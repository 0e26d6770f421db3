//! Multithreaded execution of the local computation phase.
//!
//! A BSP superstep's local phase is embarrassingly parallel — the barrier is
//! the *only* synchronization point in the model, so the engine can farm the
//! `p` process bodies out to OS threads and still produce a schedule
//! bit-identical to the sequential one: message delivery order is fixed by
//! `(sender id, submission order)` regardless of which thread ran the sender.
//!
//! Enable with [`crate::BspMachine::set_threads`]. Thread parallelism pays
//! off when process bodies do real work (e.g. the local sorting phases of
//! the cross-simulation protocols); for micro-supersteps the sequential path
//! is faster, which is why `1` is the default.

use crate::process::{BspProcess, Status, SuperstepCtx};
use bvl_model::{Envelope, Payload, ProcId};
use std::collections::VecDeque;

/// The per-processor state one local phase reads and writes, as parallel
/// slices indexed by processor id. Every slice belongs to the machine and
/// is reused across supersteps.
pub(crate) struct LocalPhase<'a, P> {
    pub procs: &'a mut [P],
    /// Read in place; unread messages stay only under `retain_unread`.
    pub inboxes: &'a mut [VecDeque<Envelope>],
    /// Read to skip halted processes; set for each process that halts.
    pub halted: &'a mut [bool],
    /// Filled with each process's local work (0 for halted ones).
    pub w: &'a mut [u64],
    /// Filled with the number of messages each process sent.
    pub sent: &'a mut [u64],
}

impl<P: BspProcess> LocalPhase<'_, P> {
    /// Run every process of this block in order, appending their sends to
    /// the block's `outbox` — so it holds them in `(sender, submission)`
    /// order. `base` is the id of the block's first processor and `p` the
    /// machine size.
    fn run(
        self,
        outbox: &mut Vec<(ProcId, Payload)>,
        base: usize,
        p: usize,
        superstep: u64,
        retain_unread: bool,
    ) {
        let LocalPhase {
            procs,
            inboxes,
            halted,
            w,
            sent,
        } = self;
        for (k, ((((proc, inbox), halted), w), sent)) in procs
            .iter_mut()
            .zip(inboxes.iter_mut())
            .zip(halted.iter_mut())
            .zip(w.iter_mut())
            .zip(sent.iter_mut())
            .enumerate()
        {
            (*w, *sent) = (0, 0);
            if *halted {
                continue;
            }
            let mut ctx = SuperstepCtx::new(ProcId::from(base + k), p, superstep, inbox, outbox);
            let status = proc.superstep(&mut ctx);
            let (work, n) = ctx.finish();
            (*w, *sent) = (work, n as u64);
            *halted = status == Status::Halt;
            if !retain_unread {
                inbox.clear();
            }
        }
    }
}

/// Execute the local phase for all non-halted processes, sequentially or on
/// `threads` OS threads (in contiguous blocks of processors). Either way
/// processor `i`'s work lands in `w[i]`, its halt in `halted[i]` and its
/// send count in `sent[i]`, and block `b`'s sends in `outboxes[b]`; read
/// in block order, the outboxes hold every send in `(sender, submission)`
/// order.
///
/// The outboxes belong to the machine and arrive empty with their
/// capacity kept, so a block allocates for its sends only when it sends
/// more than in any earlier superstep (amortized growth); the inboxes are
/// never replaced. Beyond what the process bodies allocate, the sequential
/// phase allocates nothing else; the threaded one also spawns its scoped
/// workers.
pub(crate) fn local_phase<P: BspProcess>(
    phase: LocalPhase<'_, P>,
    outboxes: &mut Vec<Vec<(ProcId, Payload)>>,
    superstep: u64,
    retain_unread: bool,
    threads: usize,
) {
    let p = phase.procs.len();
    let chunk = if threads <= 1 || p < 2 {
        p.max(1)
    } else {
        p.div_ceil(threads.min(p))
    };
    let blocks = p.div_ceil(chunk).max(1);
    if outboxes.len() < blocks {
        outboxes.resize_with(blocks, Vec::new);
    }
    if blocks == 1 {
        phase.run(&mut outboxes[0], 0, p, superstep, retain_unread);
        return;
    }
    let LocalPhase {
        procs,
        inboxes,
        halted,
        w,
        sent,
    } = phase;
    std::thread::scope(|s| {
        for (ci, (((((procs, inboxes), halted), w), sent), outbox)) in procs
            .chunks_mut(chunk)
            .zip(inboxes.chunks_mut(chunk))
            .zip(halted.chunks_mut(chunk))
            .zip(w.chunks_mut(chunk))
            .zip(sent.chunks_mut(chunk))
            .zip(outboxes.iter_mut())
            .enumerate()
        {
            let block = LocalPhase {
                procs,
                inboxes,
                halted,
                w,
                sent,
            };
            s.spawn(move || block.run(outbox, ci * chunk, p, superstep, retain_unread));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::BspMachine;
    use crate::params::BspParams;
    use crate::spmd::FnProcess;

    fn shift_ring(p: usize) -> Vec<FnProcess<i64>> {
        (0..p)
            .map(|_| {
                FnProcess::new(-1i64, move |got, ctx| {
                    let p = ctx.p();
                    if ctx.superstep_index() < 4 {
                        let right = ProcId(((ctx.me().0 as usize + 1) % p) as u32);
                        ctx.send(right, Payload::word(0, ctx.me().0 as i64));
                        if ctx.superstep_index() > 0 {
                            *got = ctx.recv().unwrap().payload.expect_word();
                        }
                        Status::Continue
                    } else {
                        *got = ctx.recv().unwrap().payload.expect_word();
                        Status::Halt
                    }
                })
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let params = BspParams::new(16, 2, 8).unwrap();
        let mut seq = BspMachine::new(params, shift_ring(16));
        let rep_seq = seq.run(10).unwrap();

        let mut par = BspMachine::new(params, shift_ring(16));
        par.set_threads(4);
        let rep_par = par.run(10).unwrap();

        assert_eq!(rep_seq.cost, rep_par.cost);
        assert_eq!(rep_seq.supersteps, rep_par.supersteps);
        for i in 0..16 {
            assert_eq!(seq.process(i).state(), par.process(i).state());
        }
    }

    #[test]
    fn more_threads_than_processors() {
        let params = BspParams::new(3, 1, 1).unwrap();
        let mut m = BspMachine::new(params, shift_ring(3));
        m.set_threads(64);
        m.run(10).unwrap();
        assert_eq!(*m.process(0).state(), 2);
    }
}
