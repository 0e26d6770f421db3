//! Simulation of LogP on BSP (§3, Theorem 1).
//!
//! A stall-free LogP program runs on BSP with slowdown `O(1 + g/G + ℓ/L)`:
//! each BSP superstep simulates a *cycle* of `C = ⌈L/2⌉` consecutive LogP
//! steps. Message submissions become insertions into the BSP output pool;
//! the superstep's communication phase transmits them, and the destination
//! feeds them into a local FIFO at the start of the next superstep — i.e.
//! "all messages submitted in a cycle arrive at their destination in the
//! subsequent cycle", which is an admissible LogP execution because a
//! stall-free program submits at most `⌈L/G⌉ ≤ L/2` messages per destination
//! per cycle, so distinct arrival times within the next cycle exist with
//! every delivery latency ≤ L (the paper's correctness argument).
//!
//! Faithfulness notes:
//!
//! * The guest's LogP clock advances with exact `o`/`G` accounting; an
//!   operation whose completion crosses a cycle boundary is carried across
//!   supersteps (a `Send` resolving to a submission time in a later cycle is
//!   buffered and transmitted in the superstep simulating that cycle).
//! * The per-superstep BSP work charge is the guest's *busy* time within
//!   the cycle (computation + overheads), never more than `C` — matching
//!   the `O(L)` work term in the proof.
//! * `verify_stall_free` checks the proof's premise: at most `⌈L/G⌉`
//!   messages per destination submitted per cycle. Programs exceeding it
//!   are not stall-free (an adversary delaying deliveries to the latency
//!   bound would saturate the destination's capacity), and the simulation
//!   reports [`ModelError::StallDetected`].

use bvl_bsp::{BspMachine, BspParams, BspProcess, RunReport, Status, SuperstepCtx};
use bvl_exec::RunOptions;
use bvl_logp::{LogpParams, LogpProcess, Op, ProcView};
use bvl_model::{Envelope, ModelError, MsgId, Payload, ProcId, Steps};
use std::collections::VecDeque;

/// Options for the Theorem 1 simulation. Run-wide knobs (registry, host
/// superstep budget) come from the [`RunOptions`] passed alongside.
#[derive(Clone, Copy, Debug)]
pub struct Theorem1Config {
    /// Enforce the stall-free premise (`⌈L/G⌉` submissions per destination
    /// per cycle); violations abort the run. Default on.
    pub verify_stall_free: bool,
}

impl Default for Theorem1Config {
    fn default() -> Self {
        Theorem1Config {
            verify_stall_free: true,
        }
    }
}

/// Default host superstep budget when `opts.budget` is unset.
pub const DEFAULT_HOST_BUDGET: u64 = 1_000_000;

/// The per-guest emulation state shared by the plain (Theorem 1) and the
/// clustered (work-preserving, footnote 1) hosts.
pub struct GuestCore<P: LogpProcess> {
    program: P,
    logp: LogpParams,
    cycle_len: u64,
    /// Guest-local LogP clock.
    local_time: Steps,
    last_submit: Option<Steps>,
    last_acquire: Option<Steps>,
    /// Delivered-but-unacquired guest messages. Both queues take their
    /// first allocation at the size that arrives (see [`reserve_first`]).
    queue: VecDeque<Envelope>,
    /// Sends whose submission time falls in a future cycle:
    /// `(submission time, dst, payload)`.
    outgoing: VecDeque<(Steps, ProcId, Payload)>,
    /// A `Recv` op the guest is blocked on across cycle boundaries.
    pending_recv: bool,
    halted: bool,
}

impl<P: LogpProcess> GuestCore<P> {
    fn new(program: P, logp: LogpParams) -> Self {
        GuestCore {
            program,
            logp,
            cycle_len: logp.l.div_ceil(2).max(1),
            local_time: Steps::ZERO,
            last_submit: None,
            last_acquire: None,
            queue: VecDeque::new(),
            outgoing: VecDeque::new(),
            pending_recv: false,
            halted: false,
        }
    }

    fn view(&self, me: ProcId) -> ProcView {
        ProcView {
            me,
            p: self.logp.p,
            now: self.local_time,
            buffered: self.queue.len(),
            params: self.logp,
        }
    }

    /// True once the guest has halted and flushed all pending sends.
    fn done(&self) -> bool {
        self.halted && self.outgoing.is_empty()
    }

    /// A message routed in the previous superstep arrives at the start of
    /// the cycle simulated now.
    fn arrive(&mut self, mut env: Envelope, cycle_start: Steps) {
        env.delivered = cycle_start;
        self.queue.push_back(env);
    }

    /// Simulate one cycle `[cycle_start, cycle_end)` of this guest, after
    /// the previous superstep's messages have [arrived](Self::arrive);
    /// sends whose submissions fall inside the cycle go through `sink`.
    /// Returns `(busy steps, messages sent)`.
    fn run_cycle(
        &mut self,
        me: ProcId,
        cycle_start: Steps,
        cycle_end: Steps,
        mut sink: impl FnMut(ProcId, Payload),
    ) -> (u64, u64) {
        let o = self.logp.o;
        let g = self.logp.g;
        // Flush sends resolved in earlier cycles whose submission time
        // falls inside this cycle.
        let mut busy = 0u64;
        let mut sent = 0u64;
        while self
            .outgoing
            .front()
            .is_some_and(|&(t_sub, _, _)| t_sub < cycle_end)
        {
            let (_, dst, payload) = self.outgoing.pop_front().expect("peeked");
            sink(dst, payload);
            busy += o;
            sent += 1;
        }
        // Run the guest forward while its clock is inside this cycle.
        while self.local_time < cycle_end && !self.halted {
            // Complete a Recv carried over from an earlier cycle.
            if self.pending_recv {
                if let Some(env) = self.queue.pop_front() {
                    let min_gap = self
                        .last_acquire
                        .map(|a| a + Steps(g))
                        .unwrap_or(Steps::ZERO);
                    let t_acq = (self.local_time + Steps(o)).max(min_gap);
                    self.last_acquire = Some(t_acq);
                    self.local_time = t_acq;
                    busy += o;
                    self.pending_recv = false;
                    self.program.on_recv(env);
                    continue;
                }
                // Still nothing: idle until new deliveries (next cycle).
                self.local_time = cycle_end;
                break;
            }
            let op = self.program.next_op(&self.view(me));
            match op {
                Op::Halt => self.halted = true,
                Op::Compute(n) => {
                    // Charge only the part falling inside this cycle; the
                    // remainder is carried by the advanced clock.
                    let end = self.local_time + Steps(n);
                    let inside =
                        end.min(cycle_end).saturating_sub(self.local_time.max(cycle_start));
                    busy += inside.get();
                    self.local_time = end;
                }
                Op::WaitUntil(t) => {
                    if t > self.local_time {
                        self.local_time = t;
                    }
                }
                Op::Recv => {
                    self.pending_recv = true;
                }
                Op::Send { dst, payload } => {
                    assert!(dst.index() < self.logp.p, "bad destination {dst:?}");
                    let min_gap = self
                        .last_submit
                        .map(|s| s + Steps(g))
                        .unwrap_or(Steps::ZERO);
                    let t_sub = (self.local_time + Steps(o)).max(min_gap);
                    self.last_submit = Some(t_sub);
                    self.local_time = t_sub;
                    if t_sub < cycle_end {
                        sink(dst, payload);
                        busy += o;
                        sent += 1;
                    } else {
                        // Submission lands in a later cycle: transmit then.
                        reserve_first(&mut self.outgoing, 1);
                        self.outgoing.push_back((t_sub, dst, payload));
                    }
                }
            }
        }
        (busy, sent)
    }
}

/// Make room for `n` more items in a guest queue. The first allocation is
/// exactly `n`: most guests never hold more than one superstep delivers,
/// where `VecDeque`'s growth rule would open four slots. Later growth is
/// amortized, because exact growth would copy a queue that keeps filling
/// (a guest buffering without receiving) once per superstep.
fn reserve_first<T>(queue: &mut VecDeque<T>, n: usize) {
    if queue.capacity() == 0 {
        queue.reserve_exact(n);
    } else {
        queue.reserve(n);
    }
}

/// A LogP processor emulated inside one BSP process (Theorem 1's 1:1 host).
pub struct GuestProc<P: LogpProcess> {
    core: GuestCore<P>,
}

impl<P: LogpProcess> GuestProc<P> {
    fn new(program: P, logp: LogpParams) -> Self {
        GuestProc {
            core: GuestCore::new(program, logp),
        }
    }

    /// The wrapped guest program (for reading final state after the run).
    pub fn program(&self) -> &P {
        &self.core.program
    }

    /// Consume into the guest program.
    pub fn into_program(self) -> P {
        self.core.program
    }

    /// The guest's final LogP-clock value.
    pub fn guest_time(&self) -> Steps {
        self.core.local_time
    }
}

impl<P: LogpProcess> BspProcess for GuestProc<P> {
    fn superstep(&mut self, ctx: &mut SuperstepCtx<'_>) -> Status {
        let cycle_len = self.core.cycle_len;
        let cycle_start = Steps(ctx.superstep_index() * cycle_len);
        let cycle_end = Steps((ctx.superstep_index() + 1) * cycle_len);
        let me = ProcId::from(ctx.me().index());
        reserve_first(&mut self.core.queue, ctx.inbox_len());
        while let Some(env) = ctx.recv() {
            self.core.arrive(env, cycle_start);
        }
        let (busy, sent) = self
            .core
            .run_cycle(me, cycle_start, cycle_end, |dst, payload| {
                ctx.send(dst, payload)
            });
        // `ctx.send` charged 1 per message; `busy` already includes the full
        // `o` per send, so top up only the difference.
        ctx.charge(busy.saturating_sub(sent).min(cycle_len));

        if self.core.done() {
            Status::Halt
        } else {
            Status::Continue
        }
    }
}

/// A BSP process hosting a *cluster* of LogP guests — the work-preserving
/// variant noted in the paper's footnote 1 (Ramachandran, Grayson, Dahlin):
/// the Theorem 1 simulation "can be immediately made work-preserving while
/// maintaining the same slowdown" by folding `c` guests onto each of `p/c`
/// BSP processors. Each superstep simulates one `⌈L/2⌉`-step cycle of every
/// resident guest sequentially, so `w ≤ c·⌈L/2⌉` and per-superstep traffic
/// is `h ≤ c·⌈L/G⌉`; total host work `p' · T_BSP = Θ(p · T_LogP)` when
/// `ℓ = O(c·L)`.
pub struct ClusterProc<P: LogpProcess> {
    cores: Vec<GuestCore<P>>,
    /// First virtual guest id resident here.
    base: usize,
    cluster: usize,
}

impl<P: LogpProcess> ClusterProc<P> {
    /// Virtual guest ids resident on this host.
    fn guest_ids(&self) -> std::ops::Range<usize> {
        self.base..self.base + self.cores.len()
    }

    /// Consume into the guest programs (in virtual-id order).
    pub fn into_programs(self) -> Vec<P> {
        self.cores.into_iter().map(|c| c.program).collect()
    }
}

/// Tag for envelopes carrying clustered guest traffic:
/// `data = [virtual_src, virtual_dst, original_tag, original data…]`.
const CLUSTER_TAG: u32 = 0xC105;

impl<P: LogpProcess> BspProcess for ClusterProc<P> {
    fn superstep(&mut self, ctx: &mut SuperstepCtx<'_>) -> Status {
        let cycle_len = self.cores[0].cycle_len;
        let cycle_start = Steps(ctx.superstep_index() * cycle_len);
        let cycle_end = Steps((ctx.superstep_index() + 1) * cycle_len);
        let (base, cluster) = (self.base, self.cluster);

        // Distribute arrivals to resident guests by virtual destination.
        while let Some(e) = ctx.recv() {
            debug_assert_eq!(e.payload.tag, CLUSTER_TAG);
            let d = e.payload.data();
            let vsrc = d[0] as u32;
            let vdst = d[1] as usize;
            debug_assert!(self.guest_ids().contains(&vdst));
            let mut inner = Envelope::new(
                ProcId(vsrc),
                ProcId(vdst as u32),
                Payload::words(d[2] as u32, &d[3..]),
            );
            inner.id = e.id;
            self.cores[vdst - base].arrive(inner, cycle_start);
        }

        let mut total_busy = 0u64;
        let mut total_sent = 0u64;
        for (k, core) in self.cores.iter_mut().enumerate() {
            let vme = ProcId::from(base + k);
            let (busy, sent) = core.run_cycle(vme, cycle_start, cycle_end, |vdst, payload| {
                let host = ProcId::from(vdst.index() / cluster);
                let mut data = Vec::with_capacity(3 + payload.data().len());
                data.push((base + k) as i64);
                data.push(vdst.index() as i64);
                data.push(payload.tag as i64);
                data.extend_from_slice(payload.data());
                ctx.send(host, Payload::from_vec(CLUSTER_TAG, data));
            });
            total_busy += busy;
            total_sent += sent;
        }
        ctx.charge(
            total_busy
                .saturating_sub(total_sent)
                .min(cycle_len * self.cores.len() as u64),
        );

        if self.cores.iter().all(|c| c.done()) {
            Status::Halt
        } else {
            Status::Continue
        }
    }
}

/// Work-preserving report.
pub struct WorkPreservingReport<P: LogpProcess> {
    /// The host BSP run.
    pub bsp: RunReport,
    /// Guest programs, in virtual-processor order.
    pub programs: Vec<P>,
    /// Host processors used (`p / cluster`).
    pub hosts: usize,
    /// Guests per host.
    pub cluster: usize,
}

impl<P: LogpProcess> WorkPreservingReport<P> {
    /// Host work = `p' · T_BSP` — compare against `p · T_LogP`.
    pub fn host_work(&self) -> u64 {
        self.hosts as u64 * self.bsp.cost.get()
    }
}

/// Simulate a `p`-guest stall-free LogP program on a BSP machine with only
/// `p / cluster` processors (footnote 1's work-preserving regime).
/// `bsp.p` must equal `logp.p / cluster` and `cluster` must divide `p`.
pub fn simulate_logp_on_bsp_clustered<P: LogpProcess>(
    logp: LogpParams,
    bsp: BspParams,
    cluster: usize,
    programs: Vec<P>,
    opts: &RunOptions,
) -> Result<WorkPreservingReport<P>, ModelError> {
    let p = logp.p;
    assert!(cluster >= 1 && p.is_multiple_of(cluster), "cluster must divide p");
    assert_eq!(bsp.p, p / cluster, "host machine size must be p / cluster");
    assert_eq!(programs.len(), p);

    let mut hosts: Vec<ClusterProc<P>> = Vec::with_capacity(bsp.p);
    let mut iter = programs.into_iter();
    for h in 0..bsp.p {
        let cores: Vec<GuestCore<P>> = (0..cluster)
            .map(|_| GuestCore::new(iter.next().expect("p programs"), logp))
            .collect();
        hosts.push(ClusterProc {
            cores,
            base: h * cluster,
            cluster,
        });
    }
    let mut machine = BspMachine::new(bsp, hosts);
    machine.instrument(opts);
    let report = machine.run(opts.budget_or(DEFAULT_HOST_BUDGET))?;
    let mut programs = Vec::with_capacity(p);
    for host in machine.into_processes() {
        programs.extend(host.into_programs());
    }
    Ok(WorkPreservingReport {
        bsp: report,
        programs,
        hosts: bsp.p,
        cluster,
    })
}

/// Result of a Theorem 1 simulation.
pub struct Theorem1Report<P: LogpProcess> {
    /// The host BSP run (supersteps, total cost).
    pub bsp: RunReport,
    /// Guest programs in their final states.
    pub programs: Vec<P>,
    /// Guest LogP-clock values at halt (max ≈ the virtual LogP makespan the
    /// simulation realized).
    pub guest_times: Vec<Steps>,
    /// Cycle length `C = ⌈L/2⌉` used.
    pub cycle_len: u64,
}

impl<P: LogpProcess> Theorem1Report<P> {
    /// The virtual guest makespan (latest guest clock).
    pub fn guest_makespan(&self) -> Steps {
        self.guest_times.iter().copied().max().unwrap_or(Steps::ZERO)
    }

    /// Measured slowdown: host BSP cost / guest LogP time.
    pub fn slowdown(&self) -> f64 {
        let guest = self.guest_makespan().get().max(1);
        self.bsp.cost.get() as f64 / guest as f64
    }

    /// Attribute the host cost onto Theorem 1's terms: `work` is the cycle
    /// emulation (the `1` term), `comm` the superstep routing (`g/G`), and
    /// `sync` the barriers (`ℓ/L`). Residual is zero by the BSP cost
    /// identity `cost = Σ (w + g·h + ℓ)`.
    pub fn attribution(&self, bsp: &BspParams, label: impl Into<String>) -> bvl_obs::CostReport {
        let work: u64 = self.bsp.records.iter().map(|r| r.w).sum();
        let comm: u64 = self.bsp.records.iter().map(|r| bsp.g * r.h).sum();
        bvl_obs::CostReport {
            label: label.into(),
            makespan: self.bsp.cost,
            work: Steps(work),
            comm: Steps(comm),
            sync: Steps(bsp.l * self.bsp.supersteps),
            stall: Steps::ZERO,
            other: Steps::ZERO,
        }
    }
}

/// Run a LogP program (one `LogpProcess` per processor) on a BSP host and
/// report cost, guest state, and slowdown inputs.
///
/// Observability comes through `opts`: `opts.registry` is attached to the
/// host BSP machine, which feeds it per-superstep local-work, barrier and
/// routing spans plus counters on the host's ledger clock; `opts.budget`
/// caps the host superstep count ([`DEFAULT_HOST_BUDGET`] when unset).
pub fn simulate_logp_on_bsp<P: LogpProcess>(
    logp: LogpParams,
    bsp: BspParams,
    programs: Vec<P>,
    config: Theorem1Config,
    opts: &RunOptions,
) -> Result<Theorem1Report<P>, ModelError> {
    assert_eq!(logp.p, bsp.p, "models must agree on p");
    let guests: Vec<GuestProc<P>> = programs
        .into_iter()
        .map(|prog| GuestProc::new(prog, logp))
        .collect();
    let mut machine = BspMachine::new(bsp, guests);
    machine.instrument(opts);
    let report = machine.run(opts.budget_or(DEFAULT_HOST_BUDGET))?;

    if config.verify_stall_free {
        // The proof's premise: per superstep, h <= ceil(L/G) (each cycle
        // routes at most a ceil(L/G)-relation). h above that implies the
        // guest was not stall-free.
        let cap = logp.capacity();
        for rec in &report.records {
            if rec.h > cap {
                return Err(ModelError::StallDetected {
                    proc: ProcId(0),
                    at: rec.index,
                });
            }
        }
    }

    let cycle_len = logp.l.div_ceil(2).max(1);
    let mut guest_times = Vec::new();
    let mut programs = Vec::new();
    for g in machine.into_processes() {
        guest_times.push(g.guest_time());
        programs.push(g.into_program());
    }
    Ok(Theorem1Report {
        bsp: report,
        programs,
        guest_times,
        cycle_len,
    })
}

/// Build a guest envelope (used by tests constructing expected messages).
pub fn guest_envelope(src: ProcId, dst: ProcId, payload: Payload, delivered: Steps) -> Envelope {
    let mut e = Envelope::new(src, dst, payload);
    e.id = MsgId(0);
    e.delivered = delivered;
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_logp::{LogpConfig, LogpMachine, Script};
    use bvl_obs::Registry;

    fn send(dst: u32, w: i64) -> Op {
        Op::Send {
            dst: ProcId(dst),
            payload: Payload::word(0, w),
        }
    }

    /// Ring shift: every processor sends to its right neighbour and
    /// receives once. Run natively and hosted; outputs must agree.
    fn ring_programs(p: usize) -> Vec<Script> {
        (0..p)
            .map(|i| Script::new([send(((i + 1) % p) as u32, i as i64), Op::Recv]))
            .collect()
    }

    #[test]
    fn hosted_ring_matches_native_outputs() {
        let logp = LogpParams::new(8, 8, 1, 2).unwrap();
        let bsp = BspParams::new(8, 2, 8).unwrap();

        let mut native = LogpMachine::with_config(logp, LogpConfig::stall_free(), ring_programs(8));
        native.run().unwrap();
        let native_received: Vec<Vec<i64>> = native
            .into_programs()
            .into_iter()
            .map(|s| s.into_received().iter().map(|e| e.payload.expect_word()).collect())
            .collect();

        let rep = simulate_logp_on_bsp(
            logp,
            bsp,
            ring_programs(8),
            Theorem1Config::default(),
            &RunOptions::new(),
        )
        .unwrap();
        let hosted_received: Vec<Vec<i64>> = rep
            .programs
            .into_iter()
            .map(|s| s.into_received().iter().map(|e| e.payload.expect_word()).collect())
            .collect();
        assert_eq!(native_received, hosted_received);
    }

    #[test]
    fn slowdown_is_constant_when_parameters_match() {
        // g = G, l = L: Theorem 1 promises O(1) slowdown.
        let logp = LogpParams::new(16, 16, 1, 4).unwrap();
        let bsp = BspParams::new(16, 4, 16).unwrap();
        // A workload long enough to amortize startup: 8 ring rounds.
        let programs: Vec<Script> = (0..16)
            .map(|i| {
                let mut ops = Vec::new();
                for r in 0..8 {
                    ops.push(send(((i + 1) % 16) as u32, (i * 100 + r) as i64));
                    ops.push(Op::Recv);
                }
                Script::new(ops)
            })
            .collect();
        let mut native = LogpMachine::with_config(logp, LogpConfig::stall_free(), programs.clone());
        let native_time = native.run().unwrap().makespan;

        let rep =
            simulate_logp_on_bsp(logp, bsp, programs, Theorem1Config::default(), &RunOptions::new())
                .unwrap();
        let slowdown = rep.bsp.cost.get() as f64 / native_time.get() as f64;
        // Theorem 1: O(1 + g/G + l/L) = O(3); allow engine constants.
        assert!(slowdown < 12.0, "slowdown {slowdown}");
        assert!(slowdown >= 1.0, "hosted cannot beat native: {slowdown}");
    }

    #[test]
    fn messages_never_arrive_in_the_cycle_they_were_submitted() {
        // P0 sends at guest time ~o; P1 records its guest acquisition time,
        // which must be in cycle >= 1 (i.e. >= C).
        let logp = LogpParams::new(2, 12, 1, 3).unwrap(); // C = 6
        let bsp = BspParams::new(2, 3, 12).unwrap();
        let programs = vec![Script::new([send(1, 9)]), Script::new([Op::Recv])];
        let rep =
            simulate_logp_on_bsp(logp, bsp, programs, Theorem1Config::default(), &RunOptions::new())
                .unwrap();
        let received = &rep.programs[1].received()[0];
        assert_eq!(received.payload.expect_word(), 9);
        assert!(received.delivered >= Steps(6), "delivered {:?}", received.delivered);
    }

    #[test]
    fn obs_host_feeds_registry_and_attribution_is_exact() {
        let logp = LogpParams::new(8, 8, 1, 2).unwrap();
        let bsp = BspParams::new(8, 2, 8).unwrap();
        let reg = Registry::enabled(8);
        let rep = simulate_logp_on_bsp(
            logp,
            bsp,
            ring_programs(8),
            Theorem1Config::default(),
            &RunOptions::new().registry(&reg),
        )
        .unwrap();
        // The host machine emitted one Superstep span per superstep.
        let spans = reg.spans();
        let count = spans
            .iter()
            .filter(|s| s.kind == bvl_obs::SpanKind::Superstep)
            .count() as u64;
        assert_eq!(count, rep.bsp.supersteps);
        // Every send the guests made was observed at the host level.
        assert_eq!(reg.counter(bvl_obs::Counter::Submitted), 8);
        let cost = rep.attribution(&bsp, "thm1 ring");
        assert_eq!(cost.makespan, rep.bsp.cost);
        assert_eq!(cost.residual(), 0, "{cost}");
    }

    #[test]
    fn stall_free_premise_violation_detected() {
        // All 7 processors send to P0 in the same cycle: 7 > ceil(L/G) = 2.
        let logp = LogpParams::new(8, 8, 1, 4).unwrap();
        let bsp = BspParams::new(8, 4, 8).unwrap();
        let mut programs = vec![Script::idle()];
        programs.extend((1..8).map(|i| Script::new([send(0, i as i64)])));
        // P0 never receives; it would deadlock on Recv, so just idle it.
        let err =
            simulate_logp_on_bsp(logp, bsp, programs, Theorem1Config::default(), &RunOptions::new());
        assert!(matches!(err, Err(ModelError::StallDetected { .. })));
    }

    #[test]
    fn long_compute_carries_across_cycles() {
        let logp = LogpParams::new(2, 8, 1, 2).unwrap(); // C = 4
        let bsp = BspParams::new(2, 2, 8).unwrap();
        let programs = vec![
            Script::new([Op::Compute(23), send(1, 5)]),
            Script::new([Op::Recv]),
        ];
        let rep =
            simulate_logp_on_bsp(logp, bsp, programs, Theorem1Config::default(), &RunOptions::new())
                .unwrap();
        // Send submits at 23 + o = 24, i.e. cycle 6; receiver gets it after.
        assert_eq!(rep.programs[1].received().len(), 1);
        assert!(rep.guest_times[0] >= Steps(24));
        // Work charged per superstep never exceeds the cycle length.
        for r in &rep.bsp.records {
            assert!(r.w <= rep.cycle_len, "w {} > C {}", r.w, rep.cycle_len);
        }
    }

    #[test]
    fn gap_respected_inside_cycles() {
        // Three sends from one guest: submissions G apart on the guest
        // clock even though the host superstep is much coarser.
        let logp = LogpParams::new(4, 16, 1, 8).unwrap();
        let bsp = BspParams::new(4, 8, 16).unwrap();
        let mut programs = vec![Script::new([send(1, 0), send(2, 1), send(3, 2)])];
        programs.extend((0..3).map(|_| Script::new([Op::Recv])));
        let rep =
            simulate_logp_on_bsp(logp, bsp, programs, Theorem1Config::default(), &RunOptions::new())
                .unwrap();
        // Guest submissions at 1, 9, 17 -> final guest clock >= 17.
        assert!(rep.guest_times[0] >= Steps(17));
    }

    #[test]
    fn deadlocked_guest_times_out() {
        let logp = LogpParams::new(2, 8, 1, 2).unwrap();
        let bsp = BspParams::new(2, 2, 8).unwrap();
        let programs = vec![Script::new([Op::Recv]), Script::idle()];
        let err = simulate_logp_on_bsp(
            logp,
            bsp,
            programs,
            Theorem1Config::default(),
            &RunOptions::new().budget(50),
        );
        assert!(matches!(err, Err(ModelError::Timeout { .. })));
    }
}

#[cfg(test)]
mod cluster_tests {
    use super::*;
    use bvl_logp::{LogpConfig, LogpMachine, Script};

    fn send(dst: u32, w: i64) -> Op {
        Op::Send {
            dst: ProcId(dst),
            payload: Payload::word(0, w),
        }
    }

    fn ring_programs(p: usize, rounds: usize) -> Vec<Script> {
        (0..p)
            .map(|i| {
                let mut ops = Vec::new();
                for r in 0..rounds {
                    ops.push(send(((i + 1) % p) as u32, (i * 100 + r) as i64));
                    ops.push(Op::Recv);
                }
                Script::new(ops)
            })
            .collect()
    }

    #[test]
    fn clustered_results_match_native() {
        let logp = LogpParams::new(16, 16, 1, 4).unwrap();
        let mut native =
            LogpMachine::with_config(logp, LogpConfig::stall_free(), ring_programs(16, 4));
        native.run().unwrap();
        let want: Vec<Vec<i64>> = native
            .into_programs()
            .into_iter()
            .map(|s| s.into_received().iter().map(|e| e.payload.expect_word()).collect())
            .collect();

        for cluster in [1usize, 2, 4, 8] {
            let bsp = BspParams::new(16 / cluster, 4, 16).unwrap();
            let rep = simulate_logp_on_bsp_clustered(
                logp,
                bsp,
                cluster,
                ring_programs(16, 4),
                &RunOptions::new().budget(10_000),
            )
            .unwrap();
            let got: Vec<Vec<i64>> = rep
                .programs
                .into_iter()
                .map(|s| s.into_received().iter().map(|e| e.payload.expect_word()).collect())
                .collect();
            assert_eq!(got, want, "cluster = {cluster}");
        }
    }

    #[test]
    fn clustering_is_work_preserving() {
        // The 1:1 host wastes p processors on an l-dominated simulation;
        // folding guests together amortizes the barrier: host work must not
        // grow with the cluster factor (and typically shrinks).
        let logp = LogpParams::new(32, 16, 1, 4).unwrap();
        let mut works = Vec::new();
        for cluster in [1usize, 4, 8] {
            let bsp = BspParams::new(32 / cluster, 4, 64).unwrap(); // pricey barrier
            let rep = simulate_logp_on_bsp_clustered(
                logp,
                bsp,
                cluster,
                ring_programs(32, 6),
                &RunOptions::new().budget(10_000),
            )
            .unwrap();
            works.push(rep.host_work());
        }
        assert!(works[1] < works[0], "work {works:?}");
        assert!(works[2] <= works[1], "work {works:?}");
    }

    #[test]
    fn cluster_of_p_runs_on_one_host() {
        let logp = LogpParams::new(8, 8, 1, 2).unwrap();
        let bsp = BspParams::new(1, 2, 8).unwrap();
        let rep = simulate_logp_on_bsp_clustered(
            logp,
            bsp,
            8,
            ring_programs(8, 2),
            &RunOptions::new().budget(10_000),
        )
        .unwrap();
        assert_eq!(rep.hosts, 1);
        assert_eq!(rep.programs.len(), 8);
        // Sequentialized: every guest received its 2 messages.
        for s in &rep.programs {
            assert_eq!(s.received().len(), 2);
        }
    }
}
