//! The sequential superstep engine.

use crate::cost::{CostLedger, SuperstepRecord};
use crate::params::{BspConfig, BspParams};
use crate::process::BspProcess;
use crate::report::{BspReport, SuperstepProfile};
use bvl_exec::{drive, Executor, Instruments, RunOptions, RunOutcome, ShardPlan};
use bvl_model::trace::{Event, Trace};
use bvl_model::{Envelope, ModelError, MsgId, Payload, ProcId, Steps};
use bvl_obs::{Counter, CounterBlock, Hist, Span, SpanKind};

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
    inboxes: Vec<Vec<Envelope>>,
    // Recycled across supersteps: refilled by the local phase, drained by
    // the communication phase, allocation reused.
    outboxes: Vec<Vec<(ProcId, Payload)>>,
    halted: Vec<bool>,
    // Per-superstep, per-processor tallies, recycled like the outboxes.
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
    threads: usize,
    shards: usize,
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
            inboxes: vec![Vec::new(); p],
            outboxes: vec![Vec::new(); p],
            halted: vec![false; p],
            scratch: Scratch::default(),
            ledger: CostLedger::new(),
            stats: BspReport::new(p),
            instruments: Instruments::new(config.trace),
            counters: None,
            settled: Vec::new(),
            superstep: 0,
            threads: 1,
            shards: 1,
            stream: None,
        }
    }

    /// Run local computation phases on `n` OS threads (default 1). Results
    /// and costs are identical for every `n`; see [`crate::parallel`].
    pub fn set_threads(&mut self, n: usize) {
        self.threads = n.max(1);
    }

    /// Fan the communication phase out over `n` destination-partitioned
    /// worker shards (default 1). Message ids come from prefix sums over
    /// the outboxes and per-inbox push order is preserved, so results and
    /// traces are bit-identical for every `n` (DESIGN.md §13).
    pub fn set_shards(&mut self, n: usize) {
        self.shards = n.max(1);
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
    /// tracing, and set the local-phase worker-thread count.
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
        self.threads = opts.threads.max(1);
        self.shards = self.shards.max(opts.shards);
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
        self.inboxes[dst.index()].push(env);
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
        recvd.clear();
        recvd.resize(p, 0);
        let t0 = self.ledger.total();

        // Local computation phase (sequential or multithreaded; identical
        // outcomes either way). Unread pool contents of non-retaining
        // machines are discarded inside the phase, per §2.1.
        crate::parallel::local_phase(
            crate::parallel::LocalPhase {
                procs: &mut self.procs,
                inboxes: &mut self.inboxes,
                outboxes: &mut self.outboxes,
                halted: &mut self.halted,
                w: &mut w_of,
            },
            self.superstep,
            self.config.retain_unread,
            self.threads,
        );
        let w_max = w_of.iter().copied().max().unwrap_or(0);
        sent.clear();
        sent.extend(self.outboxes.iter().map(|ob| ob.len() as u64));

        // Communication phase: deterministic delivery order (sender id, then
        // submission order at the sender). With shards > 1 the destinations
        // are partitioned across worker threads; prefix-summed message ids
        // and the preserved per-inbox push order keep the outcome
        // bit-identical to the sequential drain.
        if self.shards > 1 && p >= 2 {
            self.comm_phase_sharded(&mut recvd);
        } else {
            for i in 0..p {
                for (dst, payload) in self.outboxes[i].drain(..) {
                    recvd[dst.index()] += 1;
                    let id = self.instruments.alloc_msg_id();
                    let now = self.ledger.total();
                    let env = Envelope {
                        id,
                        src: ProcId::from(i),
                        dst,
                        payload,
                        submitted: now,
                        accepted: now,
                        delivered: now,
                    };
                    self.instruments.trace.record(Event::Submit {
                        at: now,
                        proc: ProcId::from(i),
                        msg: id,
                        dst,
                    });
                    self.inboxes[dst.index()].push(env);
                }
            }
        }

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

    /// The destination-partitioned communication phase. Each worker shard
    /// owns a contiguous block of inboxes, scans every outbox in (sender,
    /// submission) order and keeps only messages bound for its block, so
    /// each inbox receives exactly the sequence the sequential drain would
    /// have pushed. Message ids are precomputed from prefix sums over the
    /// outbox lengths — the id the sequential `alloc_msg_id` loop would
    /// have allocated — and Submit events are traced in one sender-order
    /// pass, so the trace, the ids and the inbox contents are all
    /// bit-identical at any shard count.
    fn comm_phase_sharded(&mut self, recvd: &mut [u64]) {
        let p = self.params.p;
        let plan = ShardPlan::new(p, self.shards);
        let now = self.ledger.total();
        let mut bases = Vec::with_capacity(p);
        let mut total = 0u64;
        for ob in &self.outboxes {
            bases.push(total);
            total += ob.len() as u64;
        }
        let first = self.instruments.alloc_msg_id_block(total).0;
        if self.instruments.trace.is_enabled() {
            for (i, ob) in self.outboxes.iter().enumerate() {
                for (j, &(dst, _)) in ob.iter().enumerate() {
                    self.instruments.trace.record(Event::Submit {
                        at: now,
                        proc: ProcId::from(i),
                        msg: MsgId(first + bases[i] + j as u64),
                        dst,
                    });
                }
            }
        }
        let outboxes = &self.outboxes;
        let bases = &bases;
        let mut inbox_blocks: Vec<&mut [Vec<Envelope>]> = Vec::with_capacity(plan.shards());
        let mut recvd_blocks: Vec<&mut [u64]> = Vec::with_capacity(plan.shards());
        let mut inbox_rest: &mut [Vec<Envelope>] = &mut self.inboxes;
        let mut recvd_rest: &mut [u64] = recvd;
        for s in 0..plan.shards() {
            let len = plan.range(s).len();
            let (ib, it) = inbox_rest.split_at_mut(len);
            let (rb, rt) = recvd_rest.split_at_mut(len);
            inbox_blocks.push(ib);
            recvd_blocks.push(rb);
            inbox_rest = it;
            recvd_rest = rt;
        }
        std::thread::scope(|scope| {
            for (s, (inboxes, recvd)) in
                inbox_blocks.into_iter().zip(recvd_blocks).enumerate()
            {
                let range = plan.range(s);
                scope.spawn(move || {
                    for (i, ob) in outboxes.iter().enumerate() {
                        for (j, (dst, payload)) in ob.iter().enumerate() {
                            let d = dst.index();
                            if range.contains(&d) {
                                recvd[d - range.start] += 1;
                                inboxes[d - range.start].push(Envelope {
                                    id: MsgId(first + bases[i] + j as u64),
                                    src: ProcId::from(i),
                                    dst: *dst,
                                    payload: payload.clone(),
                                    submitted: now,
                                    accepted: now,
                                    delivered: now,
                                });
                            }
                        }
                    }
                });
            }
        });
        for ob in &mut self.outboxes {
            ob.clear();
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
        // superstep index — shard- and thread-invariant) covers the whole
        // burst, and a rejected superstep never constructs a span at all.
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
    fn sharded_comm_phase_is_bit_identical() {
        // Dense, uneven traffic: every processor sends to several others,
        // with message ids and delivery order observable through the trace.
        let build = |shards: usize| {
            let params = BspParams::new(12, 2, 8).unwrap();
            let config = BspConfig {
                trace: true,
                ..BspConfig::default()
            };
            let procs: Vec<FnProcess<i64>> = (0..12)
                .map(|_| {
                    FnProcess::new(0i64, move |acc, ctx| {
                        let p = ctx.p();
                        let me = ctx.me().index();
                        if ctx.superstep_index() > 0 {
                            while let Some(m) = ctx.recv() {
                                *acc = acc.wrapping_mul(131) + m.payload.expect_word()
                                    + m.id.0 as i64;
                            }
                        }
                        if ctx.superstep_index() < 4 {
                            for q in 0..(me % 4) {
                                let dst = ProcId::from((me * 5 + q * 3 + 1) % p);
                                ctx.send(dst, Payload::word(0, (me * 100 + q) as i64));
                            }
                            Status::Continue
                        } else {
                            Status::Halt
                        }
                    })
                })
                .collect();
            let mut m = BspMachine::with_config(params, config, procs);
            m.set_shards(shards);
            m
        };
        let mut solo = build(1);
        let rep1 = solo.run(10).unwrap();
        for shards in [2, 4, 5] {
            let mut m = build(shards);
            let rep = m.run(10).unwrap();
            assert_eq!(rep.cost, rep1.cost);
            assert_eq!(
                format!("{:?}", m.trace().events()),
                format!("{:?}", solo.trace().events()),
                "trace diverged at {shards} shards"
            );
            for i in 0..12 {
                assert_eq!(m.process(i).state(), solo.process(i).state());
            }
        }
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
