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

/// The per-processor state one local phase reads and writes, as parallel
/// slices indexed by processor id. Every slice belongs to the machine and
/// is reused across supersteps, so a local phase allocates nothing.
pub(crate) struct LocalPhase<'a, P> {
    pub procs: &'a mut [P],
    pub inboxes: &'a mut [Vec<Envelope>],
    pub outboxes: &'a mut [Vec<(ProcId, Payload)>],
    /// Read to skip halted processes; set for each process that halts.
    pub halted: &'a mut [bool],
    /// Filled with each process's local work (0 for halted ones).
    pub w: &'a mut [u64],
}

/// Run the local phase of one process against its inbox, honouring the
/// `retain_unread` pool semantics. The process's sends accumulate into
/// `outbox` (passed empty, returned filled) so its allocation is reused
/// across supersteps. Returns the local work and whether it halted.
fn run_one<P: BspProcess>(
    proc: &mut P,
    inbox: &mut Vec<Envelope>,
    outbox: &mut Vec<(ProcId, Payload)>,
    superstep: u64,
    p: usize,
    me: usize,
    retain_unread: bool,
) -> (u64, bool) {
    let buf = std::mem::take(outbox);
    let mut ctx = SuperstepCtx::with_outbox(ProcId::from(me), p, superstep, inbox, buf);
    let status = proc.superstep(&mut ctx);
    let (w, sent, _read) = ctx.finish();
    *outbox = sent;
    if !retain_unread {
        inbox.clear();
    }
    (w, status == Status::Halt)
}

impl<P: BspProcess> LocalPhase<'_, P> {
    /// Run every process of this block in order; `base` is the id of its
    /// first processor and `p` the machine size.
    fn run(self, base: usize, p: usize, superstep: u64, retain_unread: bool) {
        let LocalPhase {
            procs,
            inboxes,
            outboxes,
            halted,
            w,
        } = self;
        for (k, ((((proc, inbox), outbox), halted), w)) in procs
            .iter_mut()
            .zip(inboxes.iter_mut())
            .zip(outboxes.iter_mut())
            .zip(halted.iter_mut())
            .zip(w.iter_mut())
            .enumerate()
        {
            *w = 0;
            if !*halted {
                (*w, *halted) = run_one(proc, inbox, outbox, superstep, p, base + k, retain_unread);
            }
        }
    }
}

/// Execute the local phase for all non-halted processes, sequentially or on
/// `threads` OS threads (in contiguous blocks of processors). Either way
/// processor `i`'s work lands in `w[i]`, its halt in `halted[i]` and its
/// sends in `outboxes[i]`.
pub(crate) fn local_phase<P: BspProcess>(
    phase: LocalPhase<'_, P>,
    superstep: u64,
    retain_unread: bool,
    threads: usize,
) {
    let p = phase.procs.len();
    if threads <= 1 || p < 2 {
        phase.run(0, p, superstep, retain_unread);
        return;
    }
    let chunk = p.div_ceil(threads.min(p));
    let LocalPhase {
        procs,
        inboxes,
        outboxes,
        halted,
        w,
    } = phase;
    std::thread::scope(|s| {
        for (ci, ((((procs, inboxes), outboxes), halted), w)) in procs
            .chunks_mut(chunk)
            .zip(inboxes.chunks_mut(chunk))
            .zip(outboxes.chunks_mut(chunk))
            .zip(halted.chunks_mut(chunk))
            .zip(w.chunks_mut(chunk))
            .enumerate()
        {
            let block = LocalPhase {
                procs,
                inboxes,
                outboxes,
                halted,
                w,
            };
            s.spawn(move || block.run(ci * chunk, p, superstep, retain_unread));
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
