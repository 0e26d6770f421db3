//! Message-transport abstraction.
//!
//! The paper's models differ precisely in what sits between a submitted
//! message and its delivery: LogP's abstract latency-`L` channel with the
//! `⌈L/G⌉` capacity constraint, or a concrete §3 network routing over a
//! topology. A [`Medium`] captures exactly that seam — per-destination
//! capacity plus a delivery-time function — so the LogP engine can run
//! over either (the latter is how stacks ground Table 1's measured `g`/`L`
//! end-to-end).
//!
//! Because the seam carries *all* transport behaviour, it is also where
//! adversarial behaviour is injected: a [`WrapMedium`] decorates any inner
//! medium with delay jitter, reordering, duplication, or capacity faults
//! (see `bvl-fault`), and the engines apply the decorator from
//! [`crate::RunOptions`] without any API fork.

use bvl_model::{Envelope, ProcId, Steps};
use rand::RngCore;

/// The transport between submission (accept) and delivery.
///
/// Implementations must be deterministic given the `rng` stream: the same
/// sequence of `delivery_time` calls with identically-seeded RNGs must
/// return the same times (the workspace determinism contract).
pub trait Medium {
    /// How many messages may be in transit towards `dst` at instant `now`
    /// (the Stalling Rule threshold; `⌈L/G⌉` in pure LogP). Most media are
    /// time-invariant and ignore `now`; fault decorators use it to model
    /// transient outages (capacity squeezes, stall bursts).
    fn capacity(&self, dst: ProcId, now: Steps) -> u64;

    /// When a message accepted at `now` arrives at `env.dst`.
    ///
    /// # Contract
    ///
    /// The returned time must be **strictly after `now`** — delivery is
    /// never instantaneous, and a time `< now` would make the medium a time
    /// machine (events scheduled in the engine's past are either lost or
    /// panic the timeline, depending on the implementation — neither is
    /// recoverable). Engines call this through
    /// [`Medium::delivery_time_checked`], which asserts the contract in
    /// every build, so a misbehaving medium fails loudly instead of
    /// silently corrupting the clock and the model costs read from it.
    ///
    /// The `rng` is the machine's policy stream — draw from it only as the
    /// medium's policy requires, since every draw advances the stream.
    fn delivery_time(&mut self, env: &Envelope, now: Steps, rng: &mut dyn RngCore) -> Steps;

    /// [`Medium::delivery_time`] with the time-travel contract enforced
    /// (`delivered > now`) in every build: one compare per accepted
    /// message. Engines must schedule through this entry point;
    /// implementors override `delivery_time` only.
    fn delivery_time_checked(
        &mut self,
        env: &Envelope,
        now: Steps,
        rng: &mut dyn RngCore,
    ) -> Steps {
        let at = self.delivery_time(env, now, rng);
        assert!(
            at > now,
            "medium '{}' time-travelled: delivery at {at:?} for a message accepted at {now:?}",
            self.name()
        );
        at
    }

    /// An optional *second* delivery of the message just scheduled at
    /// `scheduled` (adversarial duplication). Engines query this right
    /// after [`Medium::delivery_time_checked`] for the same envelope; a
    /// `Some(t)` schedules an extra copy at `t > now` which occupies an
    /// in-transit slot like any accepted message. Receiving engines
    /// de-duplicate by message id (see [`Medium::may_duplicate`]), so
    /// program semantics see at-least-once delivery collapsed back to
    /// exactly-once.
    fn duplicate_delivery(
        &mut self,
        _env: &Envelope,
        _scheduled: Steps,
        _now: Steps,
        _rng: &mut dyn RngCore,
    ) -> Option<Steps> {
        None
    }

    /// Whether this medium may ever answer [`Medium::duplicate_delivery`]
    /// with `Some`. Engines that see `true` maintain a delivered-id set and
    /// drop duplicate copies at the buffer boundary; the default `false`
    /// keeps the hot path free of that bookkeeping.
    fn may_duplicate(&self) -> bool {
        false
    }

    /// When acceptance towards `dst` is blocked at `now` by a *transient*
    /// capacity outage (capacity 0 with nothing in transit to free a
    /// slot), the earliest future instant at which capacity may reappear.
    /// Engines schedule a re-poll of the Stalling Rule at that instant, so
    /// a stall burst extends stalls instead of wedging the run. Permanent
    /// media (`None`, the default) need no wake-ups: any saturation is
    /// resolved by a future delivery.
    fn wake_hint(&mut self, _dst: ProcId, _now: Steps) -> Option<Steps> {
        None
    }

    /// Short human-readable label for reports.
    fn name(&self) -> &'static str {
        "medium"
    }

    /// An independent replica of this medium for one shard of a sharded
    /// engine, or `None` when the medium's behaviour depends on global
    /// call-order state that cannot be partitioned (a routed network's
    /// shared link clocks, say). Media whose per-message behaviour is a
    /// pure function of the envelope, the clock, and the supplied RNG are
    /// safely replicable; stateful ones return `None` and the engine falls
    /// back to a single shard rather than silently diverging.
    fn shard_replica(&self) -> Option<Box<dyn Medium + Send>> {
        None
    }
}

/// A medium decorator: wraps any transport in another (typically
/// adversarial) transport. Carried by [`crate::RunOptions`] so every
/// machine, router and simulator in the workspace can run under injected
/// faults through the one options struct — no `*_faulted` API forks.
pub trait WrapMedium: Send + Sync {
    /// Wrap `inner`, returning the decorated medium.
    fn wrap(&self, inner: Box<dyn Medium + Send>) -> Box<dyn Medium + Send>;

    /// Human-readable description of the decoration (for `Debug` output
    /// and experiment reports).
    fn label(&self) -> String;
}

impl std::fmt::Debug for dyn WrapMedium {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WrapMedium({})", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_model::{MsgId, Payload};

    struct FixedDelay(u64);

    impl Medium for FixedDelay {
        fn capacity(&self, _dst: ProcId, _now: Steps) -> u64 {
            1
        }

        fn delivery_time(&mut self, _env: &Envelope, now: Steps, _rng: &mut dyn RngCore) -> Steps {
            now + Steps(self.0)
        }
    }

    fn env() -> Envelope {
        Envelope {
            id: MsgId(0),
            src: ProcId(0),
            dst: ProcId(1),
            payload: Payload::word(0, 7),
            submitted: Steps::ZERO,
            accepted: Steps::ZERO,
            delivered: Steps::ZERO,
        }
    }

    #[test]
    fn medium_is_object_safe() {
        let mut m: Box<dyn Medium> = Box::new(FixedDelay(4));
        let mut rng = rand_stub();
        assert_eq!(m.delivery_time(&env(), Steps(3), &mut rng), Steps(7));
        assert_eq!(m.capacity(ProcId(1), Steps::ZERO), 1);
        assert_eq!(m.name(), "medium");
        // Defaults: no duplication, no wake-ups, no shard replicas.
        assert!(m.shard_replica().is_none());
        assert!(!m.may_duplicate());
        assert!(m
            .duplicate_delivery(&env(), Steps(7), Steps(3), &mut rng)
            .is_none());
        assert!(m.wake_hint(ProcId(1), Steps(3)).is_none());
    }

    #[test]
    fn checked_delivery_accepts_future_times() {
        let mut m = FixedDelay(1);
        let mut rng = rand_stub();
        assert_eq!(m.delivery_time_checked(&env(), Steps(9), &mut rng), Steps(10));
    }

    /// The satellite contract: a medium returning `delivered ≤ now` is a
    /// time machine and must fail loudly, in release builds too.
    #[test]
    #[should_panic(expected = "time-travelled")]
    fn checked_delivery_rejects_time_travel() {
        let mut m = FixedDelay(0); // delivery at `now` — instantaneous
        let mut rng = rand_stub();
        let _ = m.delivery_time_checked(&env(), Steps(5), &mut rng);
    }

    fn rand_stub() -> impl RngCore {
        struct Zero;
        impl RngCore for Zero {
            fn next_u32(&mut self) -> u32 {
                0
            }
            fn next_u64(&mut self) -> u64 {
                0
            }
        }
        Zero
    }
}
