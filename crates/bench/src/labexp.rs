//! The row builders behind every shipped experiment, and the caching
//! context the `exp_*` binaries run grids in.
//!
//! Each experiment is declared once, as a `scenarios/*.scn` document that
//! [`crate::scn`] compiles into `bvl_lab` grids, and every grid runs one
//! way, through [`bvl_lab::run_grid`]. This module holds what a cell
//! computes: one row builder per work kind (`measure_row`, `run_case`,
//! `route_row`, `case_rows`, `stack_row`, `sort_row`, `stream_row`,
//! `bsf_row`, …), which [`crate::scn::run_work`] dispatches to, plus the
//! binaries' [`Lab`] and the report-folding helpers.
//!
//! Two invariants every builder keeps:
//!
//! * **Determinism** — cell bodies draw only from [`Job::rng`] (derived
//!   from `(master, domain, index)`) or from constants, so a cell computes
//!   identical rows cold, warm, resumed, or at any `RAYON_NUM_THREADS`.
//! * **Flagged cells stay live** — cells that feed an enabled
//!   observability registry (cost attribution, span export) are marked
//!   `force` in their scenario: they recompute on every run and are never
//!   stored, because their side effects (spans) are the point.

use crate::f2;
use bvl_bsp::{BspParams, FnProcess, Status};
use bvl_core::slowdown::{theorem1_bound, theorem2_s};
use bvl_core::{
    route_deterministic, simulate_bsp_on_logp, simulate_logp_on_bsp, RoutingStrategy, SortScheme,
    Theorem1Config, Theorem2Config,
};
use bvl_exec::RunOptions;
use bvl_lab::{
    run_grid, CellSpec, CodeFingerprint, GridReport, GridSpec, Job, OnStale, ShardedStore,
};
use bvl_logp::{LogpConfig, LogpMachine, LogpParams, LogpProcess, Op, ProcView, Script};
use bvl_model::{HRelation, Payload, ProcId};
use bvl_obs::{CostReport, Registry};
use std::path::Path;

/// The optional caching context of an experiment binary: a store when
/// `BVL_LAB_DIR` is set, otherwise a pure pass-through. Both paths go
/// through [`bvl_lab::run_grid`], so the execution and seeding are
/// identical — caching changes *when* a cell computes, never *what*.
pub struct Lab {
    /// The store, when `BVL_LAB_DIR` selected one.
    pub store: Option<ShardedStore>,
    /// Cache hit/miss counters and compute-latency histograms.
    pub registry: Registry,
}

impl Lab {
    /// Build from the environment: `BVL_LAB_DIR=<dir>` opts into the
    /// store (created on first use; a store written by older code is
    /// archived and recomputed), and `BVL_LAB_SHARDS=<n>` selects the
    /// shard count when the directory is created (an existing directory
    /// keeps whatever count it records). Unset or empty means uncached.
    pub fn from_env() -> Lab {
        Lab::from_dir(std::env::var("BVL_LAB_DIR").ok().filter(|d| !d.is_empty()))
    }

    /// The shard count requested by `BVL_LAB_SHARDS` (default 1).
    pub fn shards_from_env() -> usize {
        std::env::var("BVL_LAB_SHARDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1)
    }

    /// Build from an explicit directory; `None` means uncached. An
    /// unopenable store degrades to uncached with a warning rather than
    /// aborting: the cache is an accelerator, and a bad `BVL_LAB_DIR`
    /// (permissions, a file in the way) should not take the experiment
    /// down with it.
    pub fn from_dir(dir: Option<impl AsRef<str>>) -> Lab {
        let Some(dir) = dir else {
            return Lab {
                store: None,
                registry: Registry::disabled(),
            };
        };
        let dir = dir.as_ref();
        let path = Path::new(dir);
        // An existing store keeps its recorded shard count; a fresh one
        // takes BVL_LAB_SHARDS.
        let shards = bvl_lab::shard_count_of(path)
            .ok()
            .filter(|_| path.join("SHARDS.json").exists())
            .unwrap_or_else(Lab::shards_from_env);
        match ShardedStore::open(path, shards, CodeFingerprint::current(), OnStale::Invalidate) {
            Ok(store) => {
                eprintln!(
                    "[lab] store {dir}: {} cached cells across {} shard(s)",
                    store.len(),
                    store.shard_count()
                );
                Lab {
                    store: Some(store),
                    registry: Registry::enabled(1),
                }
            }
            Err(e) => {
                eprintln!("[lab] warning: cannot open store at {dir}: {e}; running uncached");
                Lab {
                    store: None,
                    registry: Registry::disabled(),
                }
            }
        }
    }

    /// Run one grid, cached when a store is attached. I/O failures while
    /// journaling are fatal (a silently un-journaled cell would defeat
    /// resume), so the binaries exit rather than continue uncached.
    pub fn run<F>(&self, grid: &GridSpec, f: F) -> GridReport
    where
        F: Fn(&CellSpec, Job) -> Vec<Vec<String>> + Sync,
    {
        match run_grid(grid, self.store.as_ref(), &self.registry, f) {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("[lab] grid '{}' failed: {e}", grid.exp);
                std::process::exit(2);
            }
        }
    }
}

/// Flatten a report of single-row cells into table rows (request order).
pub fn single_rows(rep: GridReport) -> Vec<Vec<String>> {
    rep.rows
        .into_iter()
        .map(|mut cell| {
            debug_assert_eq!(cell.len(), 1, "cell is not single-row");
            cell.pop().expect("non-empty cell")
        })
        .collect()
}

/// Flatten a report of multi-row cells into table rows (request order).
pub fn flat_rows(rep: GridReport) -> Vec<Vec<String>> {
    rep.rows.into_iter().flatten().collect()
}

pub mod table1 {
    //! E-T1 / E-NETEQ rows (Table 1, the scaling check, Observation 1,
    //! and the span-exporting hypercube-k6 cell).

    use super::*;
    use bvl_net::{Family, PortMode};
    use bvl_model::Steps;
    use bvl_obs::{Span, SpanKind};
    use bvl_scenario::{measure, Net};

    /// One Table 1 measured-vs-predicted row.
    pub fn measure_row(net: Net, family: Family, mode: PortMode, seed: u64) -> Vec<String> {
        let m = measure(net, mode, seed);
        let p = m.p as f64;
        let pred_g = family.gamma(p);
        let pred_d = family.delta(p);
        vec![
            family.label(),
            format!("{}", m.p),
            f2(m.gamma),
            f2(pred_g),
            f2(m.gamma / pred_g),
            f2(m.delta),
            f2(pred_d),
            f2(m.delta / pred_d),
            f2(m.r2),
        ]
    }

    /// One gamma-ratio scaling-check row.
    pub fn scaling_row(net: Net, family: Family, label: &str, seed: u64) -> Vec<String> {
        let m = measure(net, PortMode::Multi, seed);
        vec![
            label.into(),
            format!("{}", m.p),
            f2(m.gamma),
            f2(family.gamma(m.p as f64)),
            f2(m.delta),
            f2(family.delta(m.p as f64)),
        ]
    }

    /// One Observation 1 row: predicted `(G*, L*)` from measured `(g*, ℓ*)`.
    pub fn obs1_row(net: Net, label: &str, seed: u64) -> Vec<String> {
        let m = measure(net, PortMode::Multi, seed);
        // LogP-side: fit over the small-h prefix only (h <= capacity-ish).
        let small: Vec<(f64, f64)> = m
            .samples
            .iter()
            .take(3)
            .map(|&(h, t)| (h as f64, t))
            .collect();
        let (g_logp, l_logp, _) = bvl_model::stats::linear_fit(&small);
        let (pred_g, pred_l) = Family::predicted_logp(m.gamma, m.delta);
        vec![
            label.into(),
            f2(m.gamma),
            f2(m.delta),
            f2(g_logp),
            f2(pred_g),
            f2(l_logp),
            f2(pred_l),
        ]
    }

    /// The k6 deep-dive rows. Row 0: the fit summary; rows 1..: the raw
    /// `(h, T(h))` samples, stored at full precision so the span timeline
    /// rebuilds exactly.
    pub fn k6_rows(net: Net, label: &str, seed: u64) -> Vec<Vec<String>> {
        let m = measure(net, PortMode::Multi, seed);
        let mut rows = vec![vec![
            label.to_string(),
            m.p.to_string(),
            f2(m.gamma),
            f2(m.delta),
            f2(m.r2),
        ]];
        for &(h, t) in &m.samples {
            rows.push(vec![h.to_string(), format!("{t}")]);
        }
        rows
    }

    /// Rebuild the k6 cell's span timeline from its payload rows:
    /// back-to-back `Routing` spans, one per (h, T(h)) sample. The rebuilt
    /// registry records at the process-wide `--obs-tier`, like any live
    /// capture.
    pub fn k6_registry(rows: &[Vec<String>]) -> Registry {
        let p: usize = rows[0][1].parse().expect("k6 meta row carries p");
        let registry = crate::obs::capture_registry("exp_table1", 0, p);
        let mut clock = Steps::ZERO;
        for sample in &rows[1..] {
            let h: u64 = sample[0].parse().expect("sample h");
            let t: f64 = sample[1].parse().expect("sample t");
            let end = clock + Steps(t.round() as u64);
            registry.span(Span::new(SpanKind::Routing, clock, end).at_index(h));
            clock = end;
        }
        registry
    }
}

pub mod thm1 {
    //! E-THM1 rows (LogP-on-BSP slowdown across `(g, ℓ)` scalings and
    //! machine sizes).

    use super::*;

    /// A workload family, instantiable any number of times (the native and
    /// the hosted run each need a fresh set of guest programs).
    #[derive(Clone, Copy)]
    pub enum Workload {
        /// `rounds` neighbor rounds on a `p`-cycle.
        Ring {
            /// Machine size.
            p: usize,
            /// Number of send/recv rounds.
            rounds: usize,
        },
        /// Staggered total exchange on `p` processors.
        AllToAll {
            /// Machine size.
            p: usize,
        },
    }

    impl Workload {
        /// The row label (also the cell-params prefix in the grids).
        pub fn name(self) -> String {
            match self {
                Workload::Ring { rounds, .. } => format!("ring x{rounds}"),
                Workload::AllToAll { .. } => "all-to-all".into(),
            }
        }

        fn p(self) -> usize {
            match self {
                Workload::Ring { p, .. } | Workload::AllToAll { p } => p,
            }
        }

        /// Operation `k` of processor `me`: a ring round is a send to the
        /// right neighbour then a receive; the total exchange sends to
        /// `me + 1, me + 2, …` then receives `p − 1` times. Past the end,
        /// every operation is `Halt`.
        fn op(self, me: usize, k: usize) -> Op {
            match self {
                Workload::Ring { p, rounds } if k < 2 * rounds => {
                    if k.is_multiple_of(2) {
                        Op::Send {
                            dst: ProcId::from((me + 1) % p),
                            payload: Payload::word((k / 2) as u32, me as i64),
                        }
                    } else {
                        Op::Recv
                    }
                }
                Workload::AllToAll { p } if k < p - 1 => Op::Send {
                    dst: ProcId::from((me + 1 + k) % p),
                    payload: Payload::word(0, me as i64),
                },
                Workload::AllToAll { p } if k < 2 * (p - 1) => Op::Recv,
                _ => Op::Halt,
            }
        }

        fn guests(self) -> Vec<Guest> {
            (0..self.p())
                .map(|me| Guest {
                    workload: self,
                    me: me as u32,
                    next: 0,
                })
                .collect()
        }
    }

    /// One guest processor of a [`Workload`]: generates its operations on
    /// demand and keeps nothing it receives (a row reads only the native
    /// makespan and the host cost), so a guest costs a few words however
    /// long its program.
    struct Guest {
        workload: Workload,
        me: u32,
        next: u32,
    }

    impl LogpProcess for Guest {
        fn next_op(&mut self, _view: &ProcView) -> Op {
            let op = self.workload.op(self.me as usize, self.next as usize);
            self.next = self.next.saturating_add(1);
            op
        }
    }

    /// One table row: a workload on a LogP machine hosted by a BSP machine
    /// with `(g, ℓ) = (factor_g · G, factor_l · L)`.
    #[derive(Clone, Copy)]
    pub struct Case {
        /// The native LogP machine.
        pub logp: LogpParams,
        /// Host `g` as a multiple of the LogP `G`.
        pub factor_g: u64,
        /// Host `ℓ` as a multiple of the LogP `L`.
        pub factor_l: u64,
        /// The workload.
        pub workload: Workload,
    }

    /// Run one case; returns the table row plus the cost attribution when
    /// the options carry an enabled registry.
    pub fn run_case(case: Case, opts: &RunOptions) -> (Vec<String>, Option<CostReport>) {
        run_case_with(case, opts, Workload::guests)
    }

    /// [`run_case`] over the guest programs `guests` builds for the
    /// workload (once per leg). The native machine is dropped before the
    /// hosted leg starts, so the two legs never hold memory at once.
    fn run_case_with<P: LogpProcess>(
        case: Case,
        opts: &RunOptions,
        guests: impl Fn(Workload) -> Vec<P>,
    ) -> (Vec<String>, Option<CostReport>) {
        let Case {
            logp,
            factor_g,
            factor_l,
            workload,
        } = case;
        let native_time =
            LogpMachine::with_config(logp, LogpConfig::stall_free(), guests(workload))
                .run()
                .expect("native run")
                .makespan;
        let bsp = BspParams::new(logp.p, logp.g * factor_g, logp.l * factor_l).unwrap();
        let rep =
            simulate_logp_on_bsp(logp, bsp, guests(workload), Theorem1Config::default(), opts)
                .expect("hosted run");
        let slowdown = rep.bsp.cost.get() as f64 / native_time.get() as f64;
        let bound = theorem1_bound(bsp.g, bsp.l, logp.g, logp.l);
        let attributed = opts.registry.is_enabled().then(|| {
            rep.attribution(&bsp, format!("thm1 {} {factor_g}x/{factor_l}x", workload.name()))
        });
        let row = vec![
            workload.name(),
            format!("{}", logp.p),
            format!("{}x/{}x", factor_g, factor_l),
            format!("{}", native_time.get()),
            format!("{}", rep.bsp.cost.get()),
            f2(slowdown),
            f2(bound),
            f2(slowdown / bound),
        ];
        (row, attributed)
    }

    /// Machine size of the forced attribution cell (ring, matched 1x/1x),
    /// for sizing the export registry.
    pub const FLAGGED_P: usize = 16;

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The guest programs as whole op lists, one `Script` per
        /// processor: the construction the generated [`Guest`] replaces,
        /// kept as its oracle.
        fn scripts(workload: Workload) -> Vec<Script> {
            match workload {
                Workload::Ring { p, rounds } => (0..p)
                    .map(|i| {
                        let mut ops = Vec::new();
                        for r in 0..rounds {
                            ops.push(Op::Send {
                                dst: ProcId(((i + 1) % p) as u32),
                                payload: Payload::word(r as u32, i as i64),
                            });
                            ops.push(Op::Recv);
                        }
                        Script::new(ops)
                    })
                    .collect(),
                Workload::AllToAll { p } => (0..p)
                    .map(|me| {
                        let mut ops = Vec::new();
                        for t in 0..p - 1 {
                            ops.push(Op::Send {
                                dst: ProcId(((me + 1 + t) % p) as u32),
                                payload: Payload::word(0, me as i64),
                            });
                        }
                        ops.extend(std::iter::repeat_n(Op::Recv, p - 1));
                        Script::new(ops)
                    })
                    .collect(),
            }
        }

        #[test]
        fn generated_guests_emit_the_script_ops() {
            let mut workloads = Vec::new();
            for p in [4usize, 16, 64] {
                for rounds in [1usize, 4, 8] {
                    workloads.push(Workload::Ring { p, rounds });
                }
            }
            workloads.extend([2usize, 5, 16].map(|p| Workload::AllToAll { p }));
            for workload in workloads {
                let p = workload.p();
                let params = LogpParams::new(p, 16, 1, 4).unwrap();
                let oracle = scripts(workload);
                assert_eq!(oracle.len(), p);
                for (me, (mut script, mut guest)) in
                    oracle.into_iter().zip(workload.guests()).enumerate()
                {
                    let view = ProcView {
                        me: ProcId::from(me),
                        p,
                        now: bvl_model::Steps::ZERO,
                        buffered: 0,
                        params,
                    };
                    let mut k = 0;
                    loop {
                        let want = script.next_op(&view);
                        let got = guest.next_op(&view);
                        assert_eq!(
                            got,
                            want,
                            "{} p={p}: processor {me}, op {k}",
                            workload.name()
                        );
                        k += 1;
                        if want == Op::Halt {
                            break;
                        }
                    }
                    assert_eq!(guest.next_op(&view), Op::Halt, "halt is final");
                }
            }
        }

        #[test]
        fn generated_rows_match_script_rows_at_p4096() {
            let cases = [
                (Workload::Ring { p: 4096, rounds: 4 }, 1, 1),
                (Workload::Ring { p: 4096, rounds: 8 }, 2, 4),
                (Workload::AllToAll { p: 64 }, 2, 2),
            ];
            for (workload, factor_g, factor_l) in cases {
                let case = Case {
                    logp: LogpParams::new(workload.p(), 16, 1, 4).unwrap(),
                    factor_g,
                    factor_l,
                    workload,
                };
                let opts = RunOptions::new();
                let (generated, _) = run_case(case, &opts);
                let (scripted, _) = run_case_with(case, &opts, scripts);
                assert_eq!(generated.join("|"), scripted.join("|"));
            }
        }
    }
}

pub mod thm2 {
    //! E-THM2 rows (deterministic h-relation routing, the large-h sort
    //! regime, and the full superstep simulation).

    use super::*;

    fn make_superstep_processes(p: usize) -> Vec<FnProcess<i64>> {
        (0..p)
            .map(|_| {
                FnProcess::new(0i64, move |acc, ctx| {
                    let p = ctx.p();
                    if ctx.superstep_index() > 0 {
                        while let Some(m) = ctx.recv() {
                            *acc += m.payload.expect_word();
                        }
                    }
                    if ctx.superstep_index() < 4 {
                        ctx.charge(20);
                        let me = ctx.me().index();
                        for k in 1..=3usize {
                            ctx.send(
                                ProcId::from((me * 5 + k * 7) % p),
                                Payload::word(k as u32, me as i64),
                            );
                        }
                        Status::Continue
                    } else {
                        Status::Halt
                    }
                })
            })
            .collect()
    }

    /// One phase-breakdown row: route a random exact h-relation (drawn
    /// from `job.rng`) deterministically and compare against Theorem 2.
    pub fn route_row(
        params: LogpParams,
        h: usize,
        scheme: SortScheme,
        route_seed: u64,
        job: &mut Job,
    ) -> Vec<String> {
        let rel = HRelation::random_exact(&mut job.rng, params.p, h);
        let rep = route_deterministic(params, &rel, scheme, &job.opts.clone().seed(route_seed))
            .expect("routing succeeds");
        let native = (params.g * h as u64 + params.l) as f64;
        let s_meas = rep.total.get() as f64 / native;
        let s_pred = theorem2_s(&params, h as u64);
        vec![
            format!("{}", params.p),
            format!("{h}"),
            format!("{}", rep.t_r.get()),
            format!("{}", rep.t_sort.get()),
            format!("{}", rep.t_s.get()),
            format!("{}", rep.t_cycles.get()),
            format!("{}", rep.total.get()),
            f2(native),
            f2(s_meas),
            f2(s_pred),
        ]
    }

    /// The large-h rows: both sorting schemes route the *same* relation,
    /// so they share one cell and one RNG stream.
    pub fn route_big_rows(
        params: LogpParams,
        h: usize,
        route_seed: u64,
        job: &mut Job,
    ) -> Vec<Vec<String>> {
        let rel = HRelation::random_exact(&mut job.rng, params.p, h);
        let opts = job.opts.clone().seed(route_seed);
        let mut rows = Vec::new();
        for scheme in [SortScheme::Network, SortScheme::Columnsort] {
            let rep = route_deterministic(params, &rel, scheme, &opts).expect("routing succeeds");
            let native = (params.g * h as u64 + params.l) as f64;
            rows.push(vec![
                format!("{h}"),
                format!("{scheme:?}"),
                format!("{}", rep.sort_rounds),
                format!("{}", rep.t_sort.get()),
                format!("{}", rep.total.get()),
                f2(rep.total.get() as f64 / native),
            ]);
        }
        rows
    }

    /// One full superstep-simulation row, plus the cost attribution when
    /// the options carry an enabled registry.
    pub fn superstep_row(
        logp: LogpParams,
        name: &str,
        strategy: RoutingStrategy,
        opts: &RunOptions,
    ) -> (Vec<String>, Option<CostReport>) {
        let rep = simulate_bsp_on_logp(
            logp,
            make_superstep_processes(logp.p),
            Theorem2Config { strategy },
            opts,
        )
        .expect("superstep simulation");
        let att = opts
            .registry
            .is_enabled()
            .then(|| rep.attribution(&logp, format!("thm2 {name}")));
        let s0 = &rep.supersteps[0];
        let row = vec![
            name.to_string(),
            format!("{}", rep.supersteps.len()),
            format!("{}", s0.h),
            format!("{}", s0.t_synch.get()),
            format!("{}", s0.t_rout.get()),
            format!("{}", rep.total.get()),
            format!("{}", rep.native_total.get()),
            f2(rep.slowdown()),
        ];
        (row, att)
    }

    /// Machine size of the forced span-exporting cells (for sizing the
    /// export registries).
    pub const FLAGGED_P: usize = 16;
}

pub mod faults {
    //! E-FAULT rows (the differential conformance matrix).

    use super::*;
    use bvl_fault::conformance::run_case;
    use bvl_fault::Case;

    /// Run one differential case and shape its report into the two stored
    /// rows. Row 0 is the table row; row 1 is the meta row `[checks,
    /// repro-line...]`, so warm runs reproduce the SUMMARY counters,
    /// `fault-repros.txt` and the exit code without re-running the case.
    /// Failures print their repro lines to stderr.
    pub fn case_rows(case: &Case) -> Vec<Vec<String>> {
        let rep = run_case(case);
        let row = vec![
            case.sim.to_string(),
            format!("{}", case.p),
            format!("{}", case.h),
            case.plan.to_string(),
            format!("{}", rep.clean_time.get()),
            format!("{}", rep.faulted_time.get()),
            format!("{}", rep.attempts),
            if rep.ok() {
                "ok".into()
            } else {
                format!("{} FAILED", rep.failures.len())
            },
        ];
        let mut meta = vec![rep.checks.to_string()];
        for f in &rep.failures {
            eprintln!("FAIL {f}");
            if let Some(line) = f.lines().find_map(|l| l.trim().strip_prefix("repro: ")) {
                meta.push(line.to_string());
            }
        }
        vec![row, meta]
    }

    /// Split a conformance report back into `(table rows, repro lines,
    /// total checks)` — the shape `exp_faults` prints and gates on.
    pub fn fold(rep: GridReport) -> (Vec<Vec<String>>, Vec<String>, usize) {
        let mut table = Vec::new();
        let mut repros = Vec::new();
        let mut checks = 0usize;
        for mut cell in rep.rows {
            let meta = cell.pop().expect("meta row");
            table.push(cell.pop().expect("table row"));
            checks += meta[0].parse::<usize>().unwrap_or(0);
            repros.extend(meta.into_iter().skip(1));
        }
        (table, repros, checks)
    }
}

pub mod stack {
    //! E-STACK rows: the full tower per topology — measure `(γ̂, δ̂)`, run
    //! the ring guest abstractly, grounded on the network, and hosted on a
    //! BSP machine via Theorem 1 — one 14-column row per topology.

    use super::*;
    use crate::f3;
    use bvl_exec::Medium;
    use bvl_logp::{DeliveryPolicy, PolicyMedium};
    use bvl_net::{measure_parameters, NetMedium, RouterConfig, Topology};
    use bvl_scenario::Net;

    /// Processor count of both shipped topologies (p = 32), for sizing the
    /// span-export registry.
    pub const FLAGGED_P: usize = 32;

    /// The guest workload: a `rounds`-round neighbour ring — each processor
    /// sends one word right and receives one word from the left per round.
    /// An exact 1-relation per round, stall-free for any capacity ≥ 1.
    fn ring(p: usize, rounds: u64) -> Vec<Script> {
        (0..p)
            .map(|i| {
                let mut ops = Vec::new();
                for r in 0..rounds {
                    ops.push(Op::Send {
                        dst: ProcId(((i + 1) % p) as u32),
                        payload: Payload::word(r as u32, i as i64),
                    });
                    ops.push(Op::Recv);
                }
                Script::new(ops)
            })
            .collect()
    }

    fn tower<T: Topology + Clone + Send + 'static>(
        topo: T,
        rounds: u64,
        seed: u64,
        opts: &RunOptions,
        captured: Option<&Registry>,
    ) -> Vec<String> {
        // 1. Measure γ̂ (slope) and δ̂ (intercept) and round into valid LogP
        //    parameters: the paper's constraint max{2, o} ≤ G ≤ L.
        let measured = measure_parameters(&topo, &[1, 2, 4, 8], 3, seed, RouterConfig::default());
        let p = measured.p;
        let g_hat = (measured.gamma.round() as u64).max(2);
        let l_hat = (measured.delta.round() as u64).max(g_hat);
        let params = LogpParams::new(p, l_hat, 1, g_hat).expect("measured params valid");
        // The ring guest on the LogP machine over a medium. The options
        // supply the policy seed too, so a run replays from them alone.
        let run_over = |medium: Box<dyn Medium + Send>, opts: &RunOptions| {
            let config = LogpConfig { seed: opts.seed, ..LogpConfig::default() };
            let mut machine = LogpMachine::with_config(params, config, ring(p, rounds));
            machine.set_medium(medium);
            machine.instrument(opts);
            machine.run().expect("ring guest completes")
        };
        // The registry attaches to the grounded and hosted legs only, never
        // the abstract account — the stall-free guest contributes no spans.
        let observed = match captured {
            Some(reg) => opts.clone().registry(reg),
            None => opts.clone(),
        };

        // 2. The abstract LogP account of the workload.
        let abstract_medium = PolicyMedium::new(params, DeliveryPolicy::AtLatencyBound);
        let abstract_run = run_over(Box::new(abstract_medium), opts);
        let t_abstract = abstract_run.makespan;

        // 3. The same guest grounded on the network: per-link
        //    store-and-forward contention on the real topology.
        let grounded_medium = NetMedium::new(topo.clone(), params.capacity());
        let grounded_run = run_over(Box::new(grounded_medium), &observed);
        let t_grounded = grounded_run.makespan;
        assert_eq!(
            grounded_run.delivered, abstract_run.delivered,
            "both transports deliver the full workload"
        );

        // 4. Theorem 1: host the guest on BSP(g = Ĝ, ℓ = L̂) and compare the
        //    slowdown against 1 + g/G + ℓ/L at the measured values.
        let bsp = BspParams::new(p, g_hat, l_hat).expect("measured BSP params valid");
        let hosted = simulate_logp_on_bsp(
            params,
            bsp,
            ring(p, rounds),
            Theorem1Config::default(),
            &observed,
        )
        .expect("Theorem 1 simulation completes");
        let slowdown = hosted.bsp.cost.get() as f64 / t_abstract.get() as f64;
        let bound = 1.0 + bsp.g as f64 / params.g as f64 + bsp.l as f64 / params.l as f64;
        // Theorem 1's bound suppresses a small constant (the host superstep
        // is ⌈L/2⌉ guest cycles; acquisition serialization adds a factor
        // ≤ 2), so the binary gates on 2x; the row records the verdict.
        let within = slowdown <= 2.0 * bound;

        vec![
            measured.name.clone(),
            p.to_string(),
            f2(measured.gamma),
            f2(measured.delta),
            f3(measured.r2),
            g_hat.to_string(),
            l_hat.to_string(),
            t_abstract.get().to_string(),
            t_grounded.get().to_string(),
            f2(t_grounded.get() as f64 / t_abstract.get() as f64),
            hosted.bsp.cost.get().to_string(),
            f2(slowdown),
            f2(bound),
            within.to_string(),
        ]
    }

    /// One stack row, dispatching the generic tower over the topology tag
    /// (grounding needs a concrete `T: Topology + Clone`, not a trait
    /// object, so cells carry the tag and build on the worker thread).
    pub fn stack_row(
        net: Net,
        rounds: u64,
        seed: u64,
        opts: &RunOptions,
        captured: Option<&Registry>,
    ) -> Vec<String> {
        use bvl_net::{Array, Butterfly, Ccc, Hypercube, MeshOfTrees, ShuffleExchange};
        match net {
            Net::Array2d(s) => tower(Array::mesh2d(s), rounds, seed, opts, captured),
            Net::Array3d(s) => tower(Array::new(&[s, s, s]), rounds, seed, opts, captured),
            Net::Hypercube(k) => tower(Hypercube::new(k), rounds, seed, opts, captured),
            Net::Butterfly(k) => tower(Butterfly::new(k), rounds, seed, opts, captured),
            Net::Ccc(k) => tower(Ccc::new(k), rounds, seed, opts, captured),
            Net::ShuffleExchange(k) => {
                tower(ShuffleExchange::new(k), rounds, seed, opts, captured)
            }
            Net::MeshOfTrees(s) => tower(MeshOfTrees::new(s), rounds, seed, opts, captured),
        }
    }

}

pub mod sort {
    //! E-SORT rows: the BSP sample-sort study (`bvl_workloads::sort`) —
    //! one row per cell with the measured `w + g·h + ℓ` decomposition, the
    //! 1-optimality ratio against the bucket-balanced ideal, and the
    //! Theorem 2 cross-simulation leg with its envelope verdict.

    use super::*;
    use bvl_workloads::{run_sort, SortConfig};

    /// One study row. Column order is load-bearing: the scenario auditor
    /// (`bvl_scenario::bounds`) reads cost(2), ratio(4), xsim(8), native(9)
    /// by index.
    pub fn sort_row(cfg: &SortConfig, opts: &RunOptions) -> Vec<String> {
        let study = run_sort(cfg, opts).expect("shipped sort config runs");
        vec![
            cfg.p.to_string(),
            cfg.n.to_string(),
            study.bsp.cost.to_string(),
            study.bsp.ideal.to_string(),
            f2(study.bsp.ratio),
            study.bsp.work.to_string(),
            study.bsp.comm.to_string(),
            study.bsp.sync.to_string(),
            study.xsim.total.to_string(),
            study.xsim.native.to_string(),
            f2(study.xsim.slowdown),
            f2(study.xsim.envelope),
            if study.sorted_ok { "yes" } else { "no" }.to_string(),
        ]
    }

}

pub mod stream {
    //! E-STREAM rows: the pseudo-streaming study
    //! (`bvl_workloads::stream`) — the sample-sort workload run classically
    //! and through a bounded window, one row per window.

    use super::*;
    use bvl_workloads::{run_stream, StreamConfig};

    /// One study row. The auditor reads native(3), streamed(4), rounds(5),
    /// supersteps(6) by index.
    pub fn stream_row(cfg: &StreamConfig, opts: &RunOptions) -> Vec<String> {
        let study = run_stream(cfg, opts).expect("shipped stream config runs");
        vec![
            cfg.sort.p.to_string(),
            cfg.sort.n.to_string(),
            cfg.window.to_string(),
            study.native.to_string(),
            study.streamed.to_string(),
            study.rounds.to_string(),
            study.supersteps.to_string(),
            f2(study.overhead),
            if study.sorted_ok { "yes" } else { "no" }.to_string(),
        ]
    }

}

pub mod bsf {
    //! E-BSF rows: the Bulk Synchronous Farm study
    //! (`bvl_workloads::bsf`) — one row per worker count, sweeping across
    //! the scalability boundary `p* = √(units·t_w / (2·t_t))`.

    use super::*;
    use bvl_workloads::{run_bsf, BsfParams};

    /// One study row. The auditor reads simulated(2), predicted(3),
    /// speedup(5) by index.
    pub fn bsf_row(params: &BsfParams) -> Vec<String> {
        let study = run_bsf(params).expect("shipped BSF config runs");
        vec![
            params.workers.to_string(),
            params.units.to_string(),
            study.simulated.to_string(),
            study.predicted.to_string(),
            f2(study.ratio),
            f2(study.speedup),
            f2(study.optimal_workers),
        ]
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unopenable_store_degrades_to_uncached() {
        // A file where the store directory should be: open fails, and the
        // lab must warn and run uncached instead of aborting the process.
        let dir = std::env::temp_dir().join(format!("bvl-lab-blocked-{}", std::process::id()));
        std::fs::write(&dir, b"not a directory").unwrap();
        let lab = Lab::from_dir(Some(dir.to_str().unwrap()));
        std::fs::remove_file(&dir).unwrap();
        assert!(lab.store.is_none(), "bad store dir degrades to uncached");
        assert!(!lab.registry.is_enabled());
        assert!(Lab::from_dir(None::<&str>).store.is_none());
    }

    #[test]
    fn k6_registry_rebuilds_spans_from_payload() {
        let rows = vec![
            vec!["hypercube_k6".into(), "64".into(), "1.00".into(), "2.00".into(), "0.99".into()],
            vec!["1".into(), "12.5".into()],
            vec!["2".into(), "20.0".into()],
        ];
        let reg = table1::k6_registry(&rows);
        let spans = reg.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].end.get(), 13); // 12.5 rounds to 13
        assert_eq!(spans[1].end.get(), 33);
    }
}
