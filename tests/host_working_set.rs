//! The hosted Theorem 1 leg's working set, measured by a counting global
//! allocator.
//!
//! * `simulate_logp_on_bsp` on a generated 4-round ring holds a bounded
//!   number of heap bytes and makes a bounded number of allocations per
//!   guest (DESIGN.md §7.6 has the figures).
//! * A `BspMachine` ring's supersteps after the first allocate nothing: the
//!   inboxes and outboxes keep their buffers across supersteps.
//! * A `retain_unread` pool hands back its unread messages ahead of the
//!   next superstep's arrivals, each group in delivery order.
//!
//! The allocator only counts on a thread that opted in, so the tests of
//! this binary may run in parallel without seeing each other's heap.

use bsp_vs_logp::bsp::{BspConfig, BspMachine, BspParams, FnProcess, Status};
use bsp_vs_logp::core::{simulate_logp_on_bsp, Theorem1Config};
use bsp_vs_logp::exec::RunOptions;
use bsp_vs_logp::logp::{LogpParams, LogpProcess, Op, ProcView};
use bsp_vs_logp::model::{Payload, ProcId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap traffic of the opted-in thread: live bytes relative to the start
/// of the measurement, their peak, and allocations (fresh or growing).
#[derive(Clone, Copy, Default)]
struct Tally {
    live: isize,
    peak: isize,
    allocs: u64,
}

thread_local! {
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

fn note(bytes: isize, allocs: u64) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = TALLY.try_with(|t| {
        if let Some(mut tally) = t.get() {
            tally.live += bytes;
            tally.peak = tally.peak.max(tally.live);
            tally.allocs += allocs;
            t.set(Some(tally));
        }
    });
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize, 1);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize, 1);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            note(new_size as isize - layout.size() as isize, 1);
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f` with this thread's heap traffic counted from zero.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|t| t.set(Some(Tally::default())));
    let out = f();
    let tally = TALLY.with(|t| t.take()).expect("tally was set");
    (out, tally)
}

const ROUNDS: u32 = 4;

/// A ring guest that generates its operations on demand and keeps nothing
/// it receives (as the lab's Theorem 1 cells do): `ROUNDS` times, send to
/// the right neighbour, then receive.
struct RingGuest {
    me: u32,
    p: u32,
    next: u32,
}

impl LogpProcess for RingGuest {
    fn next_op(&mut self, _view: &ProcView) -> Op {
        let k = self.next;
        self.next = self.next.saturating_add(1);
        if k >= 2 * ROUNDS {
            Op::Halt
        } else if k.is_multiple_of(2) {
            Op::Send {
                dst: ProcId((self.me + 1) % self.p),
                payload: Payload::word(k / 2, i64::from(self.me)),
            }
        } else {
            Op::Recv
        }
    }
}

/// Bounds on the hosted ring's heap per guest at p = 4096. With four-slot
/// inbox, outbox and arrival-queue buffers and an inbox freed and regrown
/// every superstep, the hosted leg held 1,377 B and made 6 allocations per
/// guest; sized to what arrives, it holds under 600 B and makes about 2.
const MAX_PEAK_BYTES_PER_GUEST: f64 = 700.0;
const MAX_ALLOCS_PER_GUEST: f64 = 3.5;

#[test]
fn hosted_ring_working_set_per_guest_is_bounded() {
    let p = 4096;
    let logp = LogpParams::new(p, 16, 1, 4).unwrap();
    let bsp = BspParams::new(p, 4, 16).unwrap();
    let guests: Vec<RingGuest> = (0..p as u32)
        .map(|me| RingGuest {
            me,
            p: p as u32,
            next: 0,
        })
        .collect();
    let (rep, tally) = measure(|| {
        simulate_logp_on_bsp(logp, bsp, guests, Theorem1Config::default(), &RunOptions::new())
            .expect("hosted run")
    });
    assert_eq!(rep.programs.len(), p);
    assert!(rep.programs.iter().all(|g| g.next > 2 * ROUNDS));
    let bytes = tally.peak as f64 / p as f64;
    let allocs = tally.allocs as f64 / p as f64;
    eprintln!("hosted ring, p = {p}: {bytes:.1} B peak heap and {allocs:.3} allocations per guest");
    assert!(
        bytes <= MAX_PEAK_BYTES_PER_GUEST,
        "peak heap {bytes:.1} B per guest exceeds {MAX_PEAK_BYTES_PER_GUEST} B"
    );
    assert!(
        allocs <= MAX_ALLOCS_PER_GUEST,
        "{allocs:.3} allocations per guest exceed {MAX_ALLOCS_PER_GUEST}"
    );
}

#[test]
fn bsp_ring_supersteps_after_the_first_allocate_nothing() {
    let p = 64;
    let params = BspParams::new(p, 2, 8).unwrap();
    let procs: Vec<FnProcess<i64>> = (0..p)
        .map(|_| {
            FnProcess::new(0i64, |sum, ctx| {
                while let Some(m) = ctx.recv() {
                    *sum += m.payload.expect_word();
                }
                let right = ProcId::from((ctx.me().index() + 1) % ctx.p());
                ctx.send(right, Payload::word(0, i64::from(ctx.me().0)));
                Status::Continue
            })
        })
        .collect();
    let mut m = BspMachine::new(params, procs);
    m.step().expect("superstep 0");
    // The cost ledger's record log is the one buffer a superstep still
    // grows (amortized: it is the run's output). Its first allocation holds
    // four records, so supersteps 1–3 exercise only the message plane.
    for k in 1..=3 {
        let (rec, tally) = measure(|| m.step().expect("running"));
        assert_eq!(rec.h, 1);
        assert_eq!(tally.allocs, 0, "superstep {k} allocated {} times", tally.allocs);
    }
    for i in 0..p {
        let left = (i + p - 1) % p;
        assert_eq!(*m.process(i).state(), 3 * left as i64);
    }
}

#[test]
fn retained_unread_messages_come_back_ahead_of_new_arrivals() {
    // P1..P3 each send P0 two messages in superstep 0 and one more in
    // superstep 1. P0 reads three in superstep 1 and the rest in superstep
    // 2: the three it left unread, then superstep 1's arrivals, each group
    // in (sender, submission) order.
    let params = BspParams::new(4, 1, 1).unwrap();
    let config = BspConfig {
        retain_unread: true,
        ..BspConfig::default()
    };
    let procs: Vec<FnProcess<Vec<i64>>> = (0..4)
        .map(|_| {
            FnProcess::new(Vec::new(), |seen, ctx| {
                let me = i64::from(ctx.me().0);
                match (ctx.superstep_index(), me) {
                    (0, 1..) => {
                        ctx.send(ProcId(0), Payload::word(0, 10 * me));
                        ctx.send(ProcId(0), Payload::word(0, 10 * me + 1));
                    }
                    (1, 0) => {
                        for _ in 0..3 {
                            seen.push(ctx.recv().unwrap().payload.expect_word());
                        }
                    }
                    (1, _) => ctx.send(ProcId(0), Payload::word(0, 10 * me + 2)),
                    (2, 0) => {
                        while let Some(m) = ctx.recv() {
                            seen.push(m.payload.expect_word());
                        }
                    }
                    _ => {}
                }
                if ctx.superstep_index() == 2 {
                    Status::Halt
                } else {
                    Status::Continue
                }
            })
        })
        .collect();
    let mut m = BspMachine::with_config(params, config, procs);
    m.run(10).unwrap();
    assert_eq!(m.process(0).state(), &vec![10, 11, 20, 21, 30, 31, 12, 22, 32]);
}
