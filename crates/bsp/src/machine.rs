//! The sequential superstep engine.

use crate::cost::{CostLedger, SuperstepRecord};
use crate::params::{BspConfig, BspParams};
use crate::process::{BspProcess, Status, SuperstepCtx};
use crate::report::{BspReport, SuperstepProfile};
use bvl_exec::{drive, Executor, Instruments, RunOptions, RunOutcome};
use bvl_model::trace::{Event, Trace};
use bvl_model::{Envelope, ModelError, MsgId, Payload, ProcId, Steps};
use bvl_obs::{Counter, CounterBlock, Hist, Span, SpanKind};
use std::collections::VecDeque;

/// Outcome of a completed run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Number of supersteps executed.
    pub supersteps: u64,
    /// Total model cost `Σ (w + g·h + ℓ)`.
    pub cost: Steps,
    /// Per-superstep records.
    pub records: Vec<SuperstepRecord>,
    /// Per-processor (and optionally per-superstep) statistics.
    pub stats: BspReport,
}

/// Per-processor tallies of one superstep: local work, messages sent and
/// messages received. Machine-owned and reset by each superstep, so a
/// superstep allocates no `p`-sized vectors.
#[derive(Default)]
struct Scratch {
    w_of: Vec<u64>,
    sent: Vec<u64>,
    recvd: Vec<u64>,
}

/// A BSP machine holding `p` processes of type `P`.
///
/// The machine is generic over the process type so callers can recover final
/// process state without downcasting; heterogeneous programs use
/// `P = Box<dyn BspProcess>`.
pub struct BspMachine<P: BspProcess> {
    params: BspParams,
    config: BspConfig,
    procs: Vec<P>,
    // Read in place by the local phase and refilled by the communication
    // phase: each keeps its buffer across supersteps.
    inboxes: Vec<VecDeque<Envelope>>,
    // Every send of a superstep in `(sender, submission)` order, recycled
    // across supersteps: refilled by the local phase, drained by the
    // communication phase.
    outbox: Vec<(ProcId, Payload)>,
    halted: Vec<bool>,
    // Per-superstep, per-processor tallies, recycled like the outbox.
    scratch: Scratch,
    ledger: CostLedger,
    stats: BspReport,
    instruments: Instruments,
    // Driver-local counter staging (Some iff the registry records
    // counters); settled by `Registry::absorb_counters` when the run ends.
    // Per-processor traffic counters are not staged at all: they are
    // derived from `stats.per_proc` at the barrier, with `settled` marking
    // the totals already folded in so repeated runs never double-count.
    counters: Option<CounterBlock>,
    settled: Vec<(u64, u64, u64)>, // (local_ops, sent, received)
    superstep: u64,
    stream: Option<u64>,
}

impl<P: BspProcess> BspMachine<P> {
    /// Build a machine from parameters and one process per processor.
    ///
    /// # Panics
    /// If `procs.len() != params.p`.
    pub fn new(params: BspParams, procs: Vec<P>) -> BspMachine<P> {
        Self::with_config(params, BspConfig::default(), procs)
    }

    /// Build with explicit execution options.
    pub fn with_config(params: BspParams, config: BspConfig, procs: Vec<P>) -> BspMachine<P> {
        assert_eq!(procs.len(), params.p, "need exactly p processes");
        let p = params.p;
        BspMachine {
            params,
            config,
            procs,
            inboxes: vec![VecDeque::new(); p],
            outbox: Vec::new(),
            halted: vec![false; p],
            scratch: Scratch::default(),
            ledger: CostLedger::new(),
            stats: BspReport::new(p),
            instruments: Instruments::new(config.trace),
            counters: None,
            settled: Vec::new(),
            superstep: 0,
            stream: None,
        }
    }

    /// The machine parameters.
    pub fn params(&self) -> &BspParams {
        &self.params
    }

    /// The cost ledger accumulated so far.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// The event trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.instruments.trace
    }

    /// Apply shared [`RunOptions`]: attach the observability registry
    /// (per-processor counters, barrier-wait histograms, phase spans on
    /// the ledger clock — one branch per superstep when disabled), upgrade
    /// tracing, and set the pseudo-streaming window.
    pub fn instrument(&mut self, opts: &RunOptions) {
        self.instruments.apply(opts);
        // Counters stage in a plain local block on the driver thread and
        // settle into the shared registry at the end-of-run barrier.
        self.counters = self.instruments.registry.counter_block();
        // The settle watermark only exists alongside an active block; at
        // lower tiers instrumentation must leave the machine's allocation
        // pattern untouched.
        self.settled = if self.counters.is_some() {
            vec![(0, 0, 0); self.params.p]
        } else {
            Vec::new()
        };
        // Pseudo-streaming: charge each h-relation in ⌈h/window⌉ rounds.
        self.stream = opts.stream;
    }

    /// Per-processor statistics accumulated so far.
    pub fn stats(&self) -> &BspReport {
        &self.stats
    }

    /// Immutable access to a process (e.g. to read final state).
    pub fn process(&self, i: usize) -> &P {
        &self.procs[i]
    }

    /// Consume the machine, returning the processes.
    pub fn into_processes(self) -> Vec<P> {
        self.procs
    }

    /// True when every process has halted.
    pub fn all_halted(&self) -> bool {
        self.halted.iter().all(|&h| h)
    }

    /// Pre-load a message into a processor's input pool for superstep 0
    /// (test/bootstrap convenience; does not enter the cost ledger).
    pub fn preload(&mut self, dst: ProcId, payload: Payload) {
        let env = Envelope::new(dst, dst, payload);
        self.inboxes[dst.index()].push_back(env);
    }

    /// Execute one superstep. Returns its record, or `None` if the machine
    /// had already fully halted.
    pub fn step(&mut self) -> Option<SuperstepRecord> {
        if self.all_halted() {
            return None;
        }
        let p = self.params.p;
        let Scratch {
            mut w_of,
            mut sent,
            mut recvd,
        } = std::mem::take(&mut self.scratch);
        w_of.resize(p, 0);
        sent.resize(p, 0);
        recvd.clear();
        recvd.resize(p, 0);
        let t0 = self.ledger.total();

        // Local computation phase: every live process in id order, each
        // appending its sends to the one outbox. Unread pool contents of
        // non-retaining machines are discarded as each process finishes,
        // per §2.1.
        for (i, ((((proc, inbox), halted), w), n)) in self
            .procs
            .iter_mut()
            .zip(self.inboxes.iter_mut())
            .zip(self.halted.iter_mut())
            .zip(w_of.iter_mut())
            .zip(sent.iter_mut())
            .enumerate()
        {
            (*w, *n) = (0, 0);
            if *halted {
                continue;
            }
            let mut ctx =
                SuperstepCtx::new(ProcId::from(i), p, self.superstep, inbox, &mut self.outbox);
            let status = proc.superstep(&mut ctx);
            let (work, k) = ctx.finish();
            (*w, *n) = (work, k as u64);
            *halted = status == Status::Halt;
            if !self.config.retain_unread {
                inbox.clear();
            }
        }
        let w_max = w_of.iter().copied().max().unwrap_or(0);
        self.comm_phase(&sent, &mut recvd);

        let h = sent
            .iter()
            .zip(recvd.iter())
            .map(|(&s, &r)| s.max(r))
            .max()
            .unwrap_or(0);
        let rec = match self.stream {
            Some(window) => self.ledger.charge_streamed(&self.params, w_max, h, window),
            None => self.ledger.charge(&self.params, w_max, h),
        };
        self.instruments.trace.record(Event::Superstep {
            index: rec.index,
            w: rec.w,
            h: rec.h,
            cost: rec.cost,
        });
        for i in 0..p {
            let st = &mut self.stats.per_proc[i];
            st.local_ops += w_of[i];
            st.sent += sent[i];
            st.received += recvd[i];
            st.barrier_wait += Steps(w_max - w_of[i]);
        }
        // Histograms need the individual observations (unlike the traffic
        // counters, which the barrier flush derives from the stats totals),
        // so stage the superstep's barrier waits as one batch while the
        // values are hot.
        if let Some(cb) = &mut self.counters {
            cb.observe_many(Hist::BarrierWait, w_of.iter().map(|&w| w_max - w));
        }
        if self.config.profile {
            self.stats.profile.push(SuperstepProfile {
                index: rec.index,
                w: w_of.clone(),
                sent: sent.clone(),
                received: recvd.clone(),
            });
        }
        if self.instruments.registry.is_enabled() {
            self.observe_superstep(&rec, t0, w_max, &w_of);
        }
        self.scratch = Scratch { w_of, sent, recvd };
        self.superstep += 1;
        Some(rec)
    }

    /// The communication phase: deliver every send of the outbox, in
    /// `(sender, submission)` order, to its destination's inbox, and count
    /// each processor's arrivals into `recvd`. The outbox holds the sends
    /// back to back, processor `i` contributing `sent[i]` of them, so the
    /// `k`-th message gets id `first + k` — the id a one-at-a-time
    /// allocation in that order hands out. Arrivals are counted before the
    /// first push and each inbox is reserved for them (see
    /// [`reserve_arrivals`]), so a steady exchange reuses every buffer.
    fn comm_phase(&mut self, sent: &[u64], recvd: &mut [u64]) {
        let now = self.ledger.total();
        let first = self.instruments.alloc_msg_id_block(sent.iter().sum()).0;
        for &(dst, _) in &self.outbox {
            recvd[dst.index()] += 1;
        }
        if self.instruments.trace.is_enabled() {
            for (k, (src, &(dst, _))) in senders(sent).zip(&self.outbox).enumerate() {
                self.instruments.trace.record(Event::Submit {
                    at: now,
                    proc: src,
                    msg: MsgId(first + k as u64),
                    dst,
                });
            }
        }
        for (inbox, &n) in self.inboxes.iter_mut().zip(recvd.iter()) {
            reserve_arrivals(inbox, n as usize);
        }
        for (k, (src, (dst, payload))) in senders(sent).zip(self.outbox.drain(..)).enumerate() {
            self.inboxes[dst.index()].push_back(Envelope {
                id: MsgId(first + k as u64),
                src,
                dst,
                payload,
                submitted: now,
                accepted: now,
                delivered: now,
            });
        }
    }

    /// Feed the registry for one completed superstep (only called when the
    /// registry is enabled). Counters stage in the driver-local block;
    /// spans are placed on the ledger clock — local work at `[t0, t0+w_i]`,
    /// barrier wait up to `t0+w_max`, routing for `g·h` after the slowest
    /// worker, the whole superstep over its cost — and are not even
    /// constructed below the `Sampled` tier.
    fn observe_superstep(&mut self, rec: &SuperstepRecord, t0: Steps, w_max: u64, w_of: &[u64]) {
        let registry = &self.instruments.registry;
        let spans_on = registry.spans_enabled();
        // Per-processor traffic counters are *not* staged here: the stats
        // loop in `superstep` already accumulated the same totals (and the
        // BarrierWait observations), and the barrier flush derives the
        // counter adds from them.
        if let Some(cb) = &mut self.counters {
            cb.observe(Hist::SuperstepCost, rec.cost.get());
        }
        // Phase-granular sampling: this engine emits every span of a
        // superstep at its barrier, so one admission decision (keyed on the
        // superstep index) covers the whole burst, and a rejected superstep
        // never constructs a span at all.
        if spans_on && registry.admits_phase(rec.index) {
            for (i, &w_i) in w_of.iter().enumerate() {
                let proc = ProcId::from(i);
                registry.span_admitted(Span::new(SpanKind::LocalWork, t0, t0 + Steps(w_i)).on(proc));
                if w_i < w_max {
                    registry.span_admitted(
                        Span::new(SpanKind::BarrierWait, t0 + Steps(w_i), t0 + Steps(w_max))
                            .on(proc),
                    );
                }
            }
            let comm_start = t0 + Steps(w_max);
            if rec.h > 0 {
                registry.span_admitted(
                    Span::new(
                        SpanKind::Routing,
                        comm_start,
                        comm_start + Steps(self.params.g * rec.h),
                    )
                    .at_index(rec.index),
                );
            }
            registry
                .span_admitted(Span::new(SpanKind::Superstep, t0, t0 + rec.cost).at_index(rec.index));
            // The superstep boundary is this engine's phase barrier:
            // serialize the spans staged in the registry ring in one batch
            // here, so the per-processor loop above never touches the sink
            // lock.
            registry.flush_spans();
        }
    }

    /// Run until every process halts, or fail with [`ModelError::Timeout`]
    /// after `max_supersteps`. Equivalent to [`bvl_exec::drive`] with a
    /// superstep budget, followed by assembling the [`RunReport`].
    pub fn run(&mut self, max_supersteps: u64) -> Result<RunReport, ModelError> {
        let driven = drive(self, max_supersteps);
        // End-of-run barrier: settle the staged counters whether the run
        // completed or timed out — a partial run still has real totals.
        // Traffic counters come straight from the per-processor stats; the
        // `settled` watermark keeps a second `run` call from re-adding them.
        if let Some(cb) = &mut self.counters {
            for (i, st) in self.stats.per_proc.iter().enumerate() {
                let proc = ProcId::from(i);
                let done = &mut self.settled[i];
                cb.add(proc, Counter::LocalOps, st.local_ops - done.0);
                cb.add(proc, Counter::Submitted, st.sent - done.1);
                cb.add(proc, Counter::Delivered, st.received - done.2);
                *done = (st.local_ops, st.sent, st.received);
            }
            self.instruments.registry.absorb_counters(cb);
        }
        driven?;
        Ok(RunReport {
            supersteps: self.ledger.supersteps(),
            cost: self.ledger.total(),
            records: self.ledger.records().to_vec(),
            stats: self.stats.clone(),
        })
    }
}

impl<P: BspProcess> Executor for BspMachine<P> {
    /// Execute one superstep; `Ok(false)` once every process has halted.
    fn step(&mut self) -> Result<bool, ModelError> {
        Ok(BspMachine::step(self).is_some())
    }

    fn halted(&self) -> bool {
        self.all_halted()
    }

    fn outcome(&self) -> RunOutcome {
        RunOutcome {
            makespan: self.ledger.total(),
            delivered: self.stats.per_proc.iter().map(|s| s.received).sum(),
            work: self.ledger.supersteps(),
            halted: self.all_halted(),
        }
    }
}

/// The sender of each message of a superstep's outbox: processor `i`
/// contributed `sent[i]` consecutive messages.
fn senders(sent: &[u64]) -> impl Iterator<Item = ProcId> + '_ {
    sent.iter()
        .enumerate()
        .flat_map(|(i, &n)| std::iter::repeat_n(ProcId::from(i), n as usize))
}

/// Make room in `inbox` for `n` arrivals before the first is pushed. An
/// empty inbox (the usual case: the local phase read or discarded its pool)
/// is sized exactly to them and keeps that buffer, so a steady exchange
/// never frees and regrows it. One still holding messages — retained
/// unread ones, or a halted processor's — grows amortized instead, since
/// exact growth would copy a pool that keeps filling once per superstep.
fn reserve_arrivals(inbox: &mut VecDeque<Envelope>, n: usize) {
    if inbox.is_empty() {
        inbox.reserve_exact(n);
    } else {
        inbox.reserve(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Status;
    use crate::spmd::FnProcess;

    /// Each processor sends its id to processor 0; processor 0 sums what it
    /// receives in the next superstep.
    fn gather_machine(p: usize, g: u64, l: u64) -> BspMachine<FnProcess<i64>> {
        let params = BspParams::new(p, g, l).unwrap();
        let procs: Vec<FnProcess<i64>> = (0..p)
            .map(|_| {
                FnProcess::new(0i64, move |state, ctx| match ctx.superstep_index() {
                    0 => {
                        ctx.send(ProcId(0), Payload::word(0, ctx.me().0 as i64));
                        Status::Continue
                    }
                    1 => {
                        if ctx.me().0 == 0 {
                            while let Some(m) = ctx.recv() {
                                *state += m.payload.expect_word();
                            }
                        }
                        Status::Halt
                    }
                    _ => unreachable!(),
                })
            })
            .collect();
        BspMachine::new(params, procs)
    }

    #[test]
    fn gather_sums_all_ids() {
        let mut m = gather_machine(8, 2, 16);
        let report = m.run(10).unwrap();
        assert_eq!(report.supersteps, 2);
        assert_eq!(*m.process(0).state(), (0..8).sum::<i64>());
        // Superstep 0: w = 1 send per proc, h = max(1 sent, 8 received) = 8.
        assert_eq!(report.records[0].h, 8);
        assert_eq!(report.records[0].w, 1);
        // Superstep 1: no communication, and extracting messages from the
        // input pool is not charged as local work (h already priced it).
        assert_eq!(report.records[1].h, 0);
        assert_eq!(report.records[1].w, 0);
        assert_eq!(report.cost, Steps((1 + 2 * 8 + 16) + 16));
    }

    #[test]
    fn streaming_adds_rounds_but_not_results() {
        // Same gather, streamed through a window of 3: superstep 0's
        // h-relation (h = 8) routes in ⌈8/3⌉ = 3 rounds → 2 extra ℓ.
        let mut m = gather_machine(8, 2, 16);
        m.instrument(&RunOptions::new().streamed(3));
        let report = m.run(10).unwrap();
        assert_eq!(*m.process(0).state(), (0..8).sum::<i64>());
        assert_eq!(report.records[0].h, 8, "the relation itself is unchanged");
        assert_eq!(report.cost, Steps((1 + 2 * 8 + 3 * 16) + 16));
        assert_eq!(m.ledger().sync_rounds(), 4);
        // A window ≥ h reproduces the classical cost exactly.
        let mut wide = gather_machine(8, 2, 16);
        wide.instrument(&RunOptions::new().streamed(64));
        assert_eq!(wide.run(10).unwrap().cost, Steps((1 + 2 * 8 + 16) + 16));
    }

    #[test]
    fn parameters_do_not_affect_results() {
        let mut a = gather_machine(8, 1, 1);
        let mut b = gather_machine(8, 50, 1000);
        a.run(10).unwrap();
        b.run(10).unwrap();
        assert_eq!(a.process(0).state(), b.process(0).state());
    }

    #[test]
    fn messages_arrive_next_superstep_not_same() {
        let params = BspParams::new(2, 1, 1).unwrap();
        let procs: Vec<FnProcess<Vec<usize>>> = (0..2)
            .map(|_| {
                FnProcess::new(Vec::new(), move |seen, ctx| {
                    seen.push(ctx.inbox_len());
                    if ctx.superstep_index() == 0 && ctx.me().0 == 1 {
                        ctx.send(ProcId(0), Payload::tagged(0));
                    }
                    if ctx.superstep_index() >= 1 {
                        Status::Halt
                    } else {
                        Status::Continue
                    }
                })
            })
            .collect();
        let mut m = BspMachine::new(params, procs);
        m.run(10).unwrap();
        // P0 sees nothing in superstep 0, one message in superstep 1.
        assert_eq!(m.process(0).state(), &vec![0, 1]);
    }

    #[test]
    fn unread_messages_are_discarded_by_default() {
        let params = BspParams::new(2, 1, 1).unwrap();
        let procs: Vec<FnProcess<usize>> = (0..2)
            .map(|_| {
                FnProcess::new(0usize, move |got, ctx| {
                    if ctx.me().0 == 1 && ctx.superstep_index() == 0 {
                        ctx.send(ProcId(0), Payload::tagged(0));
                    }
                    if ctx.superstep_index() == 2 {
                        *got = ctx.inbox_len();
                        return Status::Halt;
                    }
                    // Superstep 1: P0 deliberately does not read its inbox.
                    Status::Continue
                })
            })
            .collect();
        let mut m = BspMachine::new(params, procs);
        m.run(10).unwrap();
        assert_eq!(*m.process(0).state(), 0, "pool must be discarded");
    }

    #[test]
    fn retain_unread_keeps_messages() {
        let params = BspParams::new(2, 1, 1).unwrap();
        let config = BspConfig {
            retain_unread: true,
            ..BspConfig::default()
        };
        let procs: Vec<FnProcess<usize>> = (0..2)
            .map(|_| {
                FnProcess::new(0usize, move |got, ctx| {
                    if ctx.me().0 == 1 && ctx.superstep_index() == 0 {
                        ctx.send(ProcId(0), Payload::tagged(0));
                    }
                    if ctx.superstep_index() == 2 {
                        *got = ctx.inbox_len();
                        return Status::Halt;
                    }
                    Status::Continue
                })
            })
            .collect();
        let mut m = BspMachine::with_config(params, config, procs);
        m.run(10).unwrap();
        assert_eq!(*m.process(0).state(), 1);
    }

    #[test]
    fn timeout_on_nonhalting_program() {
        let params = BspParams::new(2, 1, 1).unwrap();
        let procs: Vec<FnProcess<()>> =
            (0..2).map(|_| FnProcess::new((), |_, _| Status::Continue)).collect();
        let mut m = BspMachine::new(params, procs);
        assert!(matches!(m.run(5), Err(ModelError::Timeout { budget: 5 })));
    }

    #[test]
    fn step_after_halt_returns_none() {
        let params = BspParams::new(1, 1, 1).unwrap();
        let mut m = BspMachine::new(params, vec![FnProcess::new((), |_, _| Status::Halt)]);
        assert!(m.step().is_some());
        assert!(m.step().is_none());
        assert!(m.all_halted());
    }

    #[test]
    fn delivery_order_is_by_sender_then_submission() {
        let params = BspParams::new(4, 1, 1).unwrap();
        let procs: Vec<FnProcess<Vec<i64>>> = (0..4)
            .map(|_| {
                FnProcess::new(Vec::new(), move |order, ctx| match ctx.superstep_index() {
                    0 => {
                        if ctx.me().0 != 0 {
                            // Two messages each, to exercise within-sender order.
                            ctx.send(ProcId(0), Payload::word(0, (ctx.me().0 * 10) as i64));
                            ctx.send(ProcId(0), Payload::word(0, (ctx.me().0 * 10 + 1) as i64));
                        }
                        Status::Continue
                    }
                    _ => {
                        if ctx.me().0 == 0 {
                            while let Some(m) = ctx.recv() {
                                order.push(m.payload.expect_word());
                            }
                        }
                        Status::Halt
                    }
                })
            })
            .collect();
        let mut m = BspMachine::new(params, procs);
        m.run(10).unwrap();
        assert_eq!(m.process(0).state(), &vec![10, 11, 20, 21, 30, 31]);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::params::BspConfig;
    use crate::process::Status;
    use crate::spmd::FnProcess;
    use bvl_model::trace::Event;

    #[test]
    fn traced_machine_records_submits_and_supersteps() {
        let params = BspParams::new(2, 1, 4).unwrap();
        let config = BspConfig {
            trace: true,
            ..BspConfig::default()
        };
        let procs: Vec<FnProcess<()>> = (0..2)
            .map(|_| {
                FnProcess::new((), |_, ctx| {
                    if ctx.superstep_index() == 0 {
                        let other = ProcId(1 - ctx.me().0);
                        ctx.send(other, Payload::tagged(0));
                        Status::Continue
                    } else {
                        Status::Halt
                    }
                })
            })
            .collect();
        let mut m = BspMachine::with_config(params, config, procs);
        m.run(4).unwrap();
        let submits = m.trace().filter(|e| matches!(e, Event::Submit { .. })).count();
        let steps = m.trace().filter(|e| matches!(e, Event::Superstep { .. })).count();
        assert_eq!(submits, 2);
        assert_eq!(steps, 2);
    }

    #[test]
    fn untraced_machine_records_nothing() {
        let params = BspParams::new(1, 1, 1).unwrap();
        let mut m = BspMachine::new(params, vec![FnProcess::new((), |_, _| Status::Halt)]);
        m.run(2).unwrap();
        assert!(m.trace().events().is_empty());
    }

    #[test]
    fn preload_feeds_superstep_zero() {
        let params = BspParams::new(1, 1, 1).unwrap();
        let procs = vec![FnProcess::new(0i64, |got, ctx| {
            *got = ctx.recv().map(|m| m.payload.expect_word()).unwrap_or(-1);
            Status::Halt
        })];
        let mut m = BspMachine::new(params, procs);
        m.preload(ProcId(0), Payload::word(0, 77));
        m.run(2).unwrap();
        assert_eq!(*m.process(0).state(), 77);
    }

    #[test]
    fn stats_and_registry_track_supersteps() {
        use bvl_obs::{Counter, Hist, Registry, SpanKind};
        let params = BspParams::new(4, 2, 8).unwrap();
        let config = BspConfig {
            profile: true,
            ..BspConfig::default()
        };
        // P1..P3 each send one message to P0 and charge their id as work.
        let procs: Vec<FnProcess<()>> = (0..4)
            .map(|_| {
                FnProcess::new((), move |_, ctx| {
                    if ctx.superstep_index() == 0 {
                        ctx.charge(ctx.me().0 as u64);
                        if ctx.me().0 != 0 {
                            ctx.send(ProcId(0), Payload::tagged(0));
                        }
                        Status::Continue
                    } else {
                        Status::Halt
                    }
                })
            })
            .collect();
        let mut m = BspMachine::with_config(params, config, procs);
        let reg = Registry::enabled(4);
        m.instrument(&RunOptions::new().registry(&reg));
        let report = m.run(4).unwrap();

        // Superstep 0: a send charges one local op, so w = [0,2,3,4]
        // (charge(id) + 1 for the send) → w_max 4; sent = [0,1,1,1]; h = 3.
        let st = &report.stats.per_proc;
        assert_eq!(st[3].local_ops, 4);
        assert_eq!(st[0].barrier_wait, Steps(4), "P0 waits out w_max");
        assert_eq!(st[0].received, 3);
        assert_eq!(st[2].sent, 1);
        assert_eq!(report.stats.total_sent(), 3);
        assert_eq!(report.stats.busiest(), Some(ProcId(3)));
        assert_eq!(report.stats.profile.len(), 2);
        assert_eq!(report.stats.profile[0].h(), 3);

        // Registry saw the same totals, and spans landed on the ledger clock.
        assert_eq!(reg.counter(Counter::LocalOps), 9);
        assert_eq!(reg.counter(Counter::Submitted), 3);
        assert_eq!(reg.counter(Counter::Delivered), 3);
        assert_eq!(reg.histogram(Hist::SuperstepCost).count, 2);
        let spans = reg.spans();
        let supersteps: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Superstep)
            .collect();
        assert_eq!(supersteps.len(), 2);
        assert_eq!(supersteps[0].start, Steps::ZERO);
        assert_eq!(supersteps[0].end, Steps(4 + 2 * 3 + 8));
        assert_eq!(supersteps[1].start, supersteps[0].end);
        assert!(spans.iter().any(|s| s.kind == SpanKind::BarrierWait));
        assert!(spans.iter().any(|s| s.kind == SpanKind::Routing));
    }

    #[test]
    fn attribution_residual_is_zero() {
        // Same shape as `gather_machine` in the sibling module: every
        // processor sends its id to P0, which sums in superstep 1.
        let params = BspParams::new(8, 2, 16).unwrap();
        let procs: Vec<FnProcess<()>> = (0..8)
            .map(|_| {
                FnProcess::new((), move |_, ctx| {
                    if ctx.superstep_index() == 0 {
                        ctx.send(ProcId(0), Payload::word(0, ctx.me().0 as i64));
                        Status::Continue
                    } else {
                        Status::Halt
                    }
                })
            })
            .collect();
        let mut m = BspMachine::new(params, procs);
        m.run(10).unwrap();
        let rep = m.ledger().attribution(m.params(), "gather");
        assert_eq!(rep.makespan, m.ledger().total());
        assert_eq!(rep.residual(), 0);
        assert_eq!(rep.work, Steps(1));
        assert_eq!(rep.comm, Steps(2 * 8));
        assert_eq!(rep.sync, Steps(2 * 16));
    }

    #[test]
    fn ledger_accessible_mid_run() {
        let params = BspParams::new(2, 3, 5).unwrap();
        let procs: Vec<FnProcess<()>> = (0..2)
            .map(|_| {
                FnProcess::new((), |_, ctx| {
                    ctx.charge(2);
                    if ctx.superstep_index() >= 2 {
                        Status::Halt
                    } else {
                        Status::Continue
                    }
                })
            })
            .collect();
        let mut m = BspMachine::new(params, procs);
        m.step();
        assert_eq!(m.ledger().supersteps(), 1);
        assert_eq!(m.ledger().total(), Steps(2 + 5));
        assert!(!m.all_halted());
        m.run(10).unwrap();
        assert_eq!(m.ledger().supersteps(), 3);
    }
}
