//! The full BSP-on-LogP superstep simulation (§4, Theorem 2).
//!
//! Per superstep, the simulation has "the following general structure"
//! (paper §4): (1) each LogP processor executes the local computation of
//! its BSP processor, buffering generated messages; (2) it joins a
//! synchronization activity (CB with Boolean AND) that ends after all have
//! completed; (3) a LogP routing protocol delivers all messages, which also
//! signals termination, so no further synchronization precedes the next
//! superstep. The superstep's simulated time is
//!
//! ```text
//! T_superstep = w + T_synch + T_rout(h)
//! ```
//!
//! realized here as: the CB phase with join times `w_i` (so `T_synch` is
//! measured from the latest join, per Proposition 2) plus the routing
//! phase's makespan. The slowdown against a native BSP machine with
//! `g = G, ℓ = L` is the quantity Theorem 2 bounds by `S(L, G, p, h)`.

use crate::bsp_on_logp::cb::{run_cb, word_combine, TreeShape};
use crate::bsp_on_logp::phase::route_offline;
use crate::bsp_on_logp::route_det::{route_deterministic, SortScheme};
use crate::bsp_on_logp::route_rand::route_randomized;
use bvl_bsp::{BspParams, BspProcess, Status, SuperstepCtx};
use bvl_exec::RunOptions;
use bvl_logp::LogpParams;
use bvl_model::{Envelope, HRelation, ModelError, MsgId, Payload, ProcId, Steps};
use bvl_obs::{CostReport, Counter, Hist, Span, SpanKind};
use std::collections::VecDeque;

/// How the communication phase routes each superstep's h-relation.
#[derive(Clone, Copy, Debug)]
pub enum RoutingStrategy {
    /// Theorem 2's deterministic sorting-based protocol.
    Deterministic(SortScheme),
    /// Theorem 3's randomized batching protocol (`h` is taken from the
    /// relation, i.e. assumed known in advance, as the theorem requires).
    Randomized {
        /// Batch head-room factor (see `slowdown::theorem3_batches`).
        slack: f64,
    },
    /// Off-line optimal routing (`2o + G(h−1) + L`) — the input-independent
    /// baseline of §4.2.
    Offline,
}

/// Options for the superstep simulation. Run-wide knobs (seed, registry,
/// superstep budget) come from the [`RunOptions`] passed alongside.
#[derive(Clone, Copy, Debug)]
pub struct Theorem2Config {
    /// Routing strategy.
    pub strategy: RoutingStrategy,
}

impl Default for Theorem2Config {
    fn default() -> Self {
        Theorem2Config {
            strategy: RoutingStrategy::Deterministic(SortScheme::Auto),
        }
    }
}

/// Default superstep budget when `opts.budget` is unset.
pub const DEFAULT_SUPERSTEP_BUDGET: u64 = 100_000;

/// Timing breakdown of one simulated superstep.
#[derive(Clone, Copy, Debug)]
pub struct SuperstepBreakdown {
    /// Maximum local work.
    pub w: u64,
    /// Degree of the routed relation.
    pub h: u64,
    /// Synchronization time (from the latest join).
    pub t_synch: Steps,
    /// Routing time.
    pub t_rout: Steps,
    /// Total simulated LogP time for the superstep.
    pub total: Steps,
    /// What a native BSP machine with `g = G, ℓ = L` charges.
    pub native: Steps,
}

/// Outcome of a full BSP-on-LogP run.
pub struct Theorem2Report<P> {
    /// Per-superstep breakdowns.
    pub supersteps: Vec<SuperstepBreakdown>,
    /// Total simulated LogP time.
    pub total: Steps,
    /// Total native-BSP reference cost.
    pub native_total: Steps,
    /// Guest programs in their final states.
    pub programs: Vec<P>,
}

impl<P> Theorem2Report<P> {
    /// Measured overall slowdown vs the native `g = G, ℓ = L` BSP machine.
    pub fn slowdown(&self) -> f64 {
        self.total.get() as f64 / self.native_total.get().max(1) as f64
    }

    /// Attribute the simulated makespan onto Theorem 2's cost terms:
    /// `work = Σ w`, `comm = Σ min(T_rout, G·h)` (the native `Gh` charge),
    /// `sync = Σ T_synch` (the `L·S` term realized by CB), and
    /// `other = Σ (T_rout − G·h)⁺` (routing overhead beyond the native
    /// charge — the protocol-dependent part of `S(L, G, p, h)`). Because
    /// each superstep's total is exactly `w + T_synch + T_rout`, the
    /// residual is zero by construction; a nonzero residual means the
    /// engine's accounting broke.
    pub fn attribution(&self, logp: &LogpParams, label: impl Into<String>) -> CostReport {
        let mut work = Steps::ZERO;
        let mut comm = Steps::ZERO;
        let mut sync = Steps::ZERO;
        let mut other = Steps::ZERO;
        for s in &self.supersteps {
            let gh = Steps(logp.g * s.h);
            work += Steps(s.w);
            comm += s.t_rout.min(gh);
            sync += s.t_synch;
            other += s.t_rout.saturating_sub(gh);
        }
        CostReport {
            label: label.into(),
            makespan: self.total,
            work,
            comm,
            sync,
            stall: Steps::ZERO,
            other,
        }
    }
}

/// Run a BSP program (one [`BspProcess`] per processor) on a LogP machine.
///
/// The simulation keeps a virtual clock (the cumulative simulated LogP
/// time) and, when `opts.registry` is enabled, emits per superstep:
/// per-processor [`SpanKind::LocalWork`] and [`SpanKind::BarrierWait`]
/// spans, the CB barrier split into [`SpanKind::CbCombine`] /
/// [`SpanKind::CbBroadcast`], a [`SpanKind::Routing`] span (with the
/// router's own round/cycle/batch sub-spans inside it), and an enclosing
/// [`SpanKind::Superstep`] span — plus `Submitted`/`Delivered`/`LocalOps`
/// counters and `BarrierWait`/`SuperstepCost` histograms. With a disabled
/// registry the run is observation-free but otherwise identical.
///
/// `opts.seed` is the master seed for the CB and routing phases;
/// `opts.budget` caps the superstep count ([`DEFAULT_SUPERSTEP_BUDGET`]
/// when unset).
pub fn simulate_bsp_on_logp<P: BspProcess>(
    logp: LogpParams,
    mut programs: Vec<P>,
    config: Theorem2Config,
    opts: &RunOptions,
) -> Result<Theorem2Report<P>, ModelError> {
    let registry = &opts.registry;
    let max_supersteps = opts.budget_or(DEFAULT_SUPERSTEP_BUDGET);
    let p = logp.p;
    assert_eq!(programs.len(), p, "need exactly p programs");
    let native = BspParams::new(p, logp.g, logp.l).expect("valid params");

    let mut inboxes: Vec<VecDeque<Envelope>> = vec![VecDeque::new(); p];
    let mut outbox = Vec::new();
    let mut halted = vec![false; p];
    let mut supersteps: Vec<SuperstepBreakdown> = Vec::new();
    let mut total = Steps::ZERO;
    let mut native_total = Steps::ZERO;
    let mut next_msg_id = 0u64;
    let mut index = 0u64;

    while halted.iter().any(|&h| !h) {
        if index >= max_supersteps {
            return Err(ModelError::Timeout {
                budget: max_supersteps,
            });
        }
        // --- Phase 1: local computation (guest BSP bodies). -------------
        let mut works = vec![0u64; p];
        let mut rel = HRelation::new(p);
        for i in 0..p {
            if halted[i] {
                continue;
            }
            let mut ctx =
                SuperstepCtx::new(ProcId::from(i), p, index, &mut inboxes[i], &mut outbox);
            let status = programs[i].superstep(&mut ctx);
            works[i] = ctx.finish().0;
            // The unread remainder of the pool is discarded, per §2.1.
            inboxes[i].clear();
            for (dst, payload) in outbox.drain(..) {
                rel.push(ProcId::from(i), dst, payload);
            }
            if status == Status::Halt {
                halted[i] = true;
            }
        }
        let w_max = works.iter().copied().max().unwrap_or(0);
        let h = rel.degree() as u64;
        let base = total; // virtual-clock position of this superstep

        if registry.is_enabled() {
            for (i, &w) in works.iter().enumerate() {
                let proc = ProcId::from(i);
                registry.add(proc, Counter::LocalOps, w);
                if w > 0 {
                    registry.span(
                        Span::new(SpanKind::LocalWork, base, base + Steps(w))
                            .on(proc)
                            .at_index(index),
                    );
                }
                registry.observe(Hist::BarrierWait, w_max - w);
                if w < w_max {
                    registry.span(
                        Span::new(SpanKind::BarrierWait, base + Steps(w), base + Steps(w_max))
                            .on(proc)
                            .at_index(index),
                    );
                }
            }
            for d in rel.demands() {
                registry.add(d.src, Counter::Submitted, 1);
                registry.add(d.dst, Counter::Delivered, 1);
            }
        }

        // --- Phase 2: synchronization (CB-AND, joins at w_i). ------------
        let joins: Vec<Steps> = works.iter().map(|&w| Steps(w)).collect();
        let cb = run_cb(
            logp,
            TreeShape::Heap,
            vec![Payload::word(0, 1); p],
            word_combine(|a, b| a & b),
            &joins,
            &opts.subphase().seed(opts.seed.wrapping_add(index * 17 + 1)),
        )?;
        debug_assert!(cb.results.iter().all(|r| r.expect_word() == 1));
        let t_synch = cb.t_cb;
        if registry.is_enabled() {
            // CB joins at w_i, so on the virtual clock the barrier occupies
            // [base + w_max, base + cb.makespan], split at the root's
            // combine-complete instant.
            let combine_end = base + Steps(w_max) + cb.t_combine;
            registry.span(
                Span::new(SpanKind::CbCombine, base + Steps(w_max), combine_end).at_index(index),
            );
            registry
                .span(Span::new(SpanKind::CbBroadcast, combine_end, base + cb.makespan).at_index(index));
        }

        // --- Phase 3: routing. -------------------------------------------
        let seed = opts.seed.wrapping_add(index * 17 + 2);
        let rout_base = base + cb.makespan;
        let rout_opts = opts.subphase().seed(seed).registry(registry).at(rout_base);
        let t_rout = if rel.is_empty() {
            Steps::ZERO
        } else {
            match config.strategy {
                RoutingStrategy::Deterministic(scheme) => {
                    route_deterministic(logp, &rel, scheme, &rout_opts)?.total
                }
                RoutingStrategy::Randomized { slack } => {
                    route_randomized(logp, &rel, slack, &rout_opts)?.time
                }
                RoutingStrategy::Offline => route_offline(logp, &rel, &rout_opts)?.0,
            }
        };
        if registry.is_enabled() && t_rout > Steps::ZERO {
            registry.span(Span::new(SpanKind::Routing, rout_base, rout_base + t_rout).at_index(index));
        }

        // Deliver to guest inboxes in the BSP machine's canonical order
        // (sender id, then submission order at the sender).
        for d in rel.into_demands() {
            let env = Envelope {
                id: MsgId(next_msg_id),
                src: d.src,
                dst: d.dst,
                payload: d.payload,
                submitted: total,
                accepted: total,
                delivered: total,
            };
            next_msg_id += 1;
            inboxes[env.dst.index()].push_back(env);
        }

        let step_total = cb.makespan + t_rout;
        if registry.is_enabled() {
            registry.span(Span::new(SpanKind::Superstep, base, base + step_total).at_index(index));
            registry.observe(Hist::SuperstepCost, step_total.get());
        }
        let native_cost = native.superstep_cost(w_max, h);
        supersteps.push(SuperstepBreakdown {
            w: w_max,
            h,
            t_synch,
            t_rout,
            total: step_total,
            native: native_cost,
        });
        total += step_total;
        native_total += native_cost;
        index += 1;
    }

    Ok(Theorem2Report {
        supersteps,
        total,
        native_total,
        programs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_bsp::{BspMachine, FnProcess};
    use bvl_obs::Registry;

    /// The gather workload from the BSP crate's tests: everyone sends its id
    /// to P0, which sums in the next superstep.
    fn gather(p: usize) -> Vec<FnProcess<i64>> {
        (0..p)
            .map(|_| {
                FnProcess::new(0i64, move |state, ctx| match ctx.superstep_index() {
                    0 => {
                        ctx.send(ProcId(0), Payload::word(0, ctx.me().0 as i64));
                        Status::Continue
                    }
                    _ => {
                        if ctx.me().0 == 0 {
                            while let Some(m) = ctx.recv() {
                                *state += m.payload.expect_word();
                            }
                        }
                        Status::Halt
                    }
                })
            })
            .collect()
    }

    fn ring(p: usize, rounds: u64) -> Vec<FnProcess<i64>> {
        (0..p)
            .map(|_| {
                FnProcess::new(0i64, move |acc, ctx| {
                    let p = ctx.p();
                    if ctx.superstep_index() > 0 {
                        *acc += ctx.recv().unwrap().payload.expect_word();
                    }
                    if ctx.superstep_index() < rounds {
                        let right = ProcId(((ctx.me().0 as usize + 1) % p) as u32);
                        ctx.send(right, Payload::word(0, ctx.me().0 as i64));
                        ctx.charge(3);
                        Status::Continue
                    } else {
                        Status::Halt
                    }
                })
            })
            .collect()
    }

    #[test]
    fn gather_results_match_native_bsp() {
        let logp = LogpParams::new(8, 8, 1, 2).unwrap();
        // Native run.
        let bsp = BspParams::new(8, 2, 8).unwrap();
        let mut native = BspMachine::new(bsp, gather(8));
        native.run(10).unwrap();
        let want = *native.process(0).state();

        for strategy in [
            RoutingStrategy::Deterministic(SortScheme::Network),
            RoutingStrategy::Randomized { slack: 2.0 },
            RoutingStrategy::Offline,
        ] {
            let rep = simulate_bsp_on_logp(
                logp,
                gather(8),
                Theorem2Config { strategy },
                &RunOptions::new(),
            )
            .unwrap();
            assert_eq!(*rep.programs[0].state(), want, "{strategy:?}");
            assert_eq!(rep.supersteps.len(), 2);
            assert_eq!(rep.supersteps[0].h, 8);
        }
    }

    #[test]
    fn ring_multi_superstep_equivalence() {
        let logp = LogpParams::new(16, 16, 1, 4).unwrap();
        let bsp = BspParams::new(16, 4, 16).unwrap();
        let mut native = BspMachine::new(bsp, ring(16, 5));
        native.run(10).unwrap();
        let rep =
            simulate_bsp_on_logp(logp, ring(16, 5), Theorem2Config::default(), &RunOptions::new())
                .unwrap();
        for i in 0..16 {
            assert_eq!(rep.programs[i].state(), native.process(i).state());
        }
        assert_eq!(rep.supersteps.len(), 6);
    }

    #[test]
    fn superstep_accounting_adds_up() {
        let logp = LogpParams::new(8, 8, 1, 2).unwrap();
        let rep =
            simulate_bsp_on_logp(logp, ring(8, 2), Theorem2Config::default(), &RunOptions::new())
                .unwrap();
        let sum: Steps = rep.supersteps.iter().map(|s| s.total).sum();
        assert_eq!(sum, rep.total);
        let native: Steps = rep.supersteps.iter().map(|s| s.native).sum();
        assert_eq!(native, rep.native_total);
        assert!(rep.slowdown() >= 1.0, "slowdown {}", rep.slowdown());
    }

    #[test]
    fn offline_strategy_is_fastest() {
        let logp = LogpParams::new(8, 8, 1, 2).unwrap();
        let det = simulate_bsp_on_logp(
            logp,
            ring(8, 3),
            Theorem2Config {
                strategy: RoutingStrategy::Deterministic(SortScheme::Network),
            },
            &RunOptions::new(),
        )
        .unwrap();
        let off = simulate_bsp_on_logp(
            logp,
            ring(8, 3),
            Theorem2Config {
                strategy: RoutingStrategy::Offline,
            },
            &RunOptions::new(),
        )
        .unwrap();
        assert!(off.total < det.total, "offline {:?} det {:?}", off.total, det.total);
    }

    #[test]
    fn obs_run_emits_spans_and_zero_residual_attribution() {
        let logp = LogpParams::new(8, 8, 1, 2).unwrap();
        let reg = Registry::enabled(8);
        let rep = simulate_bsp_on_logp(
            logp,
            ring(8, 3),
            Theorem2Config::default(),
            &RunOptions::new().registry(&reg),
        )
        .unwrap();
        let spans = reg.spans();

        // One Superstep span per superstep, tiling the virtual timeline.
        let mut clock = Steps::ZERO;
        let supersteps: Vec<_> =
            spans.iter().filter(|s| s.kind == SpanKind::Superstep).collect();
        assert_eq!(supersteps.len(), rep.supersteps.len());
        for (i, s) in supersteps.iter().enumerate() {
            assert_eq!(s.start, clock, "superstep {i} not contiguous");
            assert_eq!(s.index, Some(i as u64));
            clock = s.end;
        }
        assert_eq!(clock, rep.total);
        // Every span fits inside the run and is well-ordered.
        assert!(spans.iter().all(|s| s.start <= s.end && s.end <= rep.total));
        // The full phase vocabulary of the deterministic pipeline showed up.
        // (No BarrierWait here: the ring is perfectly balanced, so no
        // processor ever waits — checked separately with a skewed load.)
        for kind in [
            SpanKind::LocalWork,
            SpanKind::CbCombine,
            SpanKind::CbBroadcast,
            SpanKind::SortRound,
            SpanKind::RouteCycles,
            SpanKind::Routing,
        ] {
            assert!(spans.iter().any(|s| s.kind == kind), "missing {kind:?}");
        }
        assert!(!spans.iter().any(|s| s.kind == SpanKind::BarrierWait));

        // A skewed workload (processor i charges 3i) does produce barrier
        // waits, one span per processor slower-than-slowest.
        let skew: Vec<FnProcess<()>> = (0..8)
            .map(|_| {
                FnProcess::new((), |_, ctx| {
                    ctx.charge(ctx.me().0 as u64 * 3);
                    Status::Halt
                })
            })
            .collect();
        let reg2 = Registry::enabled(8);
        simulate_bsp_on_logp(
            logp,
            skew,
            Theorem2Config::default(),
            &RunOptions::new().registry(&reg2),
        )
        .unwrap();
        let waits: Vec<_> =
            reg2.spans().iter().filter(|s| s.kind == SpanKind::BarrierWait).cloned().collect();
        assert_eq!(waits.len(), 7, "all but the slowest processor wait");
        // Σ (w_max - w_i) = Σ_{i<8} (21 - 3i) = 84.
        assert_eq!(reg2.histogram(Hist::BarrierWait).sum, 84);
        // Conservation: submitted == delivered, and the ring sends 8
        // messages in each of its 5 sending supersteps.
        assert_eq!(reg.counter(Counter::Submitted), reg.counter(Counter::Delivered));
        assert_eq!(reg.counter(Counter::Submitted), 8 * 3);
        assert_eq!(reg.histogram(Hist::SuperstepCost).count, rep.supersteps.len() as u64);

        // Attribution explains the makespan exactly.
        let cost = rep.attribution(&logp, "ring p=8");
        assert_eq!(cost.makespan, rep.total);
        assert_eq!(cost.residual(), 0, "{cost}");
        assert!(cost.work > Steps::ZERO && cost.sync > Steps::ZERO && cost.comm > Steps::ZERO);
    }

    #[test]
    fn observation_never_perturbs_the_run() {
        let logp = LogpParams::new(8, 64, 1, 2).unwrap(); // roomy capacity
        let config = Theorem2Config {
            strategy: RoutingStrategy::Randomized { slack: 2.0 },
        };
        let plain = simulate_bsp_on_logp(logp, ring(8, 2), config, &RunOptions::new()).unwrap();
        let reg = Registry::enabled(8);
        let observed =
            simulate_bsp_on_logp(logp, ring(8, 2), config, &RunOptions::new().registry(&reg))
                .unwrap();
        assert_eq!(plain.total, observed.total);
        assert_eq!(plain.native_total, observed.native_total);
        assert!(reg.spans().iter().any(|s| s.kind == SpanKind::RouteBatch));
        assert_eq!(observed.attribution(&logp, "rand").residual(), 0);
    }

    #[test]
    fn pure_compute_costs_only_sync() {
        let logp = LogpParams::new(4, 8, 1, 2).unwrap();
        let procs: Vec<FnProcess<()>> = (0..4)
            .map(|_| {
                FnProcess::new((), |_, ctx| {
                    ctx.charge(10);
                    Status::Halt
                })
            })
            .collect();
        let rep =
            simulate_bsp_on_logp(logp, procs, Theorem2Config::default(), &RunOptions::new())
                .unwrap();
        assert_eq!(rep.supersteps.len(), 1);
        assert_eq!(rep.supersteps[0].w, 10);
        assert_eq!(rep.supersteps[0].t_rout, Steps::ZERO);
        assert!(rep.supersteps[0].t_synch > Steps::ZERO);
    }
}
