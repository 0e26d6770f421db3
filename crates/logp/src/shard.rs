//! Sharding primitives for the big-`p` LogP engine.
//!
//! The sharded engine partitions the `p` simulated processors into
//! contiguous blocks ([`ShardPlan`]), one per worker thread, and advances
//! all shards through the same sequence of virtual instants in lock-step.
//! Within an instant the workers synchronize at sub-phase boundaries
//! (arrival → notify → ready) with a reusable [`Rendezvous`] barrier, so
//! cross-shard effects published in one sub-phase are visible — and
//! consumed in a canonical, shard-count-invariant order — in the next.
//! The determinism argument lives in DESIGN.md §13.

use std::sync::{Condvar, Mutex};

/// A contiguous block partition of `p` processors into `shards` shards.
///
/// Shard `s` owns processors `[s*chunk, min((s+1)*chunk, p))` with
/// `chunk = ⌈p/shards⌉`, so every shard except possibly the last has the
/// same size and ownership is computable from the processor index alone —
/// no lookup tables on the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ShardPlan {
    p: usize,
    shards: usize,
    chunk: usize,
}

impl ShardPlan {
    /// Partition `p` processors into at most `shards` blocks. The
    /// effective shard count may be lower than requested: it is clamped to
    /// `[1, p]` and then to the number of non-empty `⌈p/shards⌉`-sized
    /// blocks (an empty shard would deadlock the lock-step barriers).
    pub(crate) fn new(p: usize, shards: usize) -> ShardPlan {
        assert!(p >= 1, "ShardPlan requires p >= 1");
        let chunk = p.div_ceil(shards.clamp(1, p));
        ShardPlan {
            p,
            shards: p.div_ceil(chunk),
            chunk,
        }
    }

    /// Effective shard count (after clamping to `p`).
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning processor `i`.
    #[inline]
    pub(crate) fn owner(&self, i: usize) -> usize {
        debug_assert!(i < self.p);
        i / self.chunk
    }

    /// The processor range owned by shard `s`.
    pub(crate) fn range(&self, s: usize) -> std::ops::Range<usize> {
        debug_assert!(s < self.shards);
        let lo = s * self.chunk;
        let hi = ((s + 1) * self.chunk).min(self.p);
        lo..hi
    }
}

/// A reusable rendezvous barrier for a fixed party of workers.
///
/// Unlike `std::sync::Barrier` this one hands the *last* arriving worker a
/// leader token **while the others are still parked**, lets the leader run
/// a serial section, and only releases the party when the leader calls
/// [`Rendezvous::release`]. The sharded engines use the serial section for
/// the canonical cross-shard merge (trace events, error reduction, next
/// instant election) that must observe every shard's sub-phase output
/// before any shard proceeds.
#[derive(Debug)]
pub(crate) struct Rendezvous {
    inner: Mutex<Wait>,
    cv: Condvar,
    parties: usize,
}

#[derive(Debug)]
struct Wait {
    arrived: usize,
    generation: u64,
}

impl Rendezvous {
    /// A barrier for `parties` workers.
    pub(crate) fn new(parties: usize) -> Rendezvous {
        assert!(parties >= 1);
        Rendezvous {
            inner: Mutex::new(Wait {
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
            parties,
        }
    }

    /// Arrive at the barrier. Returns `true` for exactly one worker per
    /// round — the leader — which must then call [`Rendezvous::release`]
    /// to free the rest; every other worker blocks until that release.
    pub(crate) fn arrive(&self) -> bool {
        let mut w = self.inner.lock().unwrap();
        w.arrived += 1;
        if w.arrived == self.parties {
            true
        } else {
            // Waiters park on the generation counter: release() bumps it,
            // so a waiter is free exactly when the round it arrived in has
            // been released (robust against spurious wake-ups).
            let gen = w.generation;
            let _unused = self.cv.wait_while(w, |w| w.generation == gen).unwrap();
            false
        }
    }

    /// Release the workers parked in the current round (leader only).
    pub(crate) fn release(&self) {
        let mut w = self.inner.lock().unwrap();
        debug_assert_eq!(w.arrived, self.parties, "release without full arrival");
        w.arrived = 0;
        w.generation += 1;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn plan_blocks_are_ceiling_sized() {
        let plan = ShardPlan::new(10, 4);
        assert_eq!(plan.shards(), 4);
        assert_eq!(plan.range(0), 0..3);
        assert_eq!(plan.range(3), 9..10);
        assert_eq!(plan.owner(9), 3);
    }

    #[test]
    fn plan_partitions_exactly() {
        for p in [1usize, 2, 7, 10, 64, 1000] {
            for shards in [1usize, 2, 3, 4, 7, 64] {
                let plan = ShardPlan::new(p, shards);
                // Ranges tile [0, p) without gaps or overlaps…
                let mut covered = 0;
                for s in 0..plan.shards() {
                    let r = plan.range(s);
                    assert_eq!(r.start, covered, "gap before shard {s} (p={p})");
                    assert!(!r.is_empty(), "empty shard {s} (p={p}, shards={shards})");
                    covered = r.end;
                }
                assert_eq!(covered, p);
                // …and owner() agrees with range().
                for s in 0..plan.shards() {
                    for i in plan.range(s) {
                        assert_eq!(plan.owner(i), s);
                    }
                }
            }
        }
    }

    #[test]
    fn plan_clamps_shards_to_p() {
        let plan = ShardPlan::new(3, 16);
        assert_eq!(plan.shards(), 3);
        assert_eq!(plan.range(2), 2..3);
    }

    #[test]
    fn rendezvous_elects_one_leader_per_round() {
        let parties = 4;
        let rounds = 50;
        let rv = Rendezvous::new(parties);
        let leaders = AtomicUsize::new(0);
        let serial = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..parties {
                scope.spawn(|| {
                    for r in 0..rounds {
                        if rv.arrive() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                            // Serial section: no other worker is running.
                            assert_eq!(serial.load(Ordering::SeqCst), r);
                            serial.store(r + 1, Ordering::SeqCst);
                            rv.release();
                        }
                        // Everyone observes the leader's serial write.
                        assert!(serial.load(Ordering::SeqCst) > r);
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::SeqCst), rounds);
        assert_eq!(serial.load(Ordering::SeqCst), rounds);
    }

    #[test]
    fn rendezvous_single_party_never_blocks() {
        let rv = Rendezvous::new(1);
        for _ in 0..10 {
            assert!(rv.arrive());
            rv.release();
        }
    }
}
