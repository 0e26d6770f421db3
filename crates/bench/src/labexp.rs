//! Lab grid definitions shared by the `exp_*` binaries, the `lab` CLI and
//! the HTTP service.
//!
//! Each experiment binary used to own its configuration lists inline; the
//! `bvl-lab` result store keys cells by `(experiment, domain, index,
//! params, options, plan)`, so every front end that wants to share the
//! cache must build **the same grids**. This module is that single
//! definition: the binaries drive the grids through [`Lab`] (caching is
//! opt-in via `BVL_LAB_DIR`), while [`experiments`] packages the same
//! grids behind the [`bvl_lab::Experiment`] trait for `lab run`/`serve`.
//!
//! Two invariants carried over from `bvl_bench::sweep`:
//!
//! * **Determinism** — cell bodies draw only from [`Job::rng`] (derived
//!   from `(master, domain, index)`) or from constants, so a cell computes
//!   identical rows cold, warm, resumed, or at any `RAYON_NUM_THREADS`.
//! * **Flagged cells stay live** — cells that feed an enabled
//!   observability registry (cost attribution, span export) are marked
//!   [`CellSpec::forced`]: they recompute on every run and are never
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
    run_grid, CellSpec, CodeFingerprint, Experiment, GridReport, GridSpec, Job, OnStale,
    ShardedStore,
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
    //! E-T1 / E-NETEQ grids (Table 1, the scaling check, Observation 1,
    //! and the span-exporting hypercube-k6 cell).

    use super::*;
    use bvl_net::{Family, PortMode};
    use bvl_model::Steps;
    use bvl_obs::{Span, SpanKind};

    // The topology vocabulary (tags, construction, measurement) moved to
    // `bvl-scenario` so `.scn` files and these grids share one definition;
    // re-exported here because the binaries and tests reach it as
    // `labexp::table1::{measure, Net}`.
    pub use bvl_scenario::{measure, Net};

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

    pub(crate) fn main_configs() -> Vec<(Net, Family, PortMode)> {
        vec![
            (Net::Array2d(16), Family::ArrayD(2), PortMode::Multi), // p = 256
            (Net::Array3d(6), Family::ArrayD(3), PortMode::Multi),  // p = 216
            (Net::Hypercube(8), Family::HypercubeMulti, PortMode::Multi), // p = 256
            (Net::Hypercube(8), Family::HypercubeSingle, PortMode::Single),
            (Net::Butterfly(5), Family::Butterfly, PortMode::Multi), // p = 192
            (Net::Ccc(5), Family::Ccc, PortMode::Multi),             // p = 160
            (Net::ShuffleExchange(8), Family::ShuffleExchange, PortMode::Multi), // p = 256
            (Net::MeshOfTrees(16), Family::MeshOfTrees, PortMode::Multi), // p = 256
        ]
    }

    pub(crate) fn scaling_configs() -> Vec<(Net, Family, &'static str)> {
        vec![
            (Net::Hypercube(4), Family::HypercubeMulti, "hypercube (multi)"),
            (Net::Hypercube(6), Family::HypercubeMulti, "hypercube (multi)"),
            (Net::Hypercube(8), Family::HypercubeMulti, "hypercube (multi)"),
            (Net::MeshOfTrees(4), Family::MeshOfTrees, "mesh-of-trees"),
            (Net::MeshOfTrees(8), Family::MeshOfTrees, "mesh-of-trees"),
            (Net::MeshOfTrees(16), Family::MeshOfTrees, "mesh-of-trees"),
        ]
    }

    pub(crate) fn obs1_configs() -> Vec<(Net, &'static str)> {
        vec![
            (Net::Hypercube(8), "hypercube(256)"),
            (Net::Array2d(16), "2d-array(256)"),
            (Net::MeshOfTrees(16), "mesh-of-trees(256)"),
        ]
    }

    /// The Table 1 grid (one cell per topology row).
    pub fn main_grid() -> GridSpec {
        let mut g = GridSpec::new("table1", 42);
        for (i, (net, family, mode)) in main_configs().into_iter().enumerate() {
            let mode = match mode {
                PortMode::Multi => "multi",
                PortMode::Single => "single",
            };
            g = g.cell(CellSpec::new(
                "table1",
                i,
                format!("{} {} {mode}", family.label(), net.tag()),
            ));
        }
        g
    }

    /// The gamma-ratio scaling check (hypercube vs mesh-of-trees ladder).
    pub fn scaling_grid() -> GridSpec {
        let mut g = GridSpec::new("table1", 7);
        for (i, (net, _, label)) in scaling_configs().into_iter().enumerate() {
            g = g.cell(CellSpec::new(
                "table1-scaling",
                i,
                format!("{label} {}", net.tag()),
            ));
        }
        g
    }

    /// Observation 1: best-attainable LogP vs BSP on the same network.
    pub fn obs1_grid() -> GridSpec {
        let mut g = GridSpec::new("table1", 9);
        for (i, (_, name)) in obs1_configs().into_iter().enumerate() {
            g = g.cell(CellSpec::new("table1-obs1", i, name));
        }
        g
    }

    /// The hypercube-k6 cell whose per-h routing samples become spans.
    /// Cacheable (not forced): the payload carries the raw samples, so the
    /// span timeline and the SUMMARY line rebuild bit-identically from a
    /// warm hit via [`k6_registry`].
    pub fn k6_grid() -> GridSpec {
        GridSpec::new("table1", 11).cell(CellSpec::new("table1-k6", 0, "hypercube(6) multi"))
    }

    /// All grids of the `table1` experiment. Smoke keeps the small nets:
    /// the hypercube(4)/mesh-of-trees(4) scaling cells (their indexes and
    /// params match the full grid, so smoke and full share cache keys) and
    /// the k6 cell.
    pub fn grids(smoke: bool) -> Vec<GridSpec> {
        if smoke {
            let mut scaling = scaling_grid();
            scaling.cells.retain(|c| c.index == 0 || c.index == 3);
            vec![scaling, k6_grid()]
        } else {
            vec![main_grid(), scaling_grid(), obs1_grid(), k6_grid()]
        }
    }

    /// Compute one `table1` cell (dispatch on the cell's domain).
    pub fn run_cell(cell: &CellSpec, _job: Job) -> Vec<Vec<String>> {
        match cell.domain.as_str() {
            "table1" => {
                let (net, family, mode) = main_configs()[cell.index];
                vec![measure_row(net, family, mode, 42)]
            }
            "table1-scaling" => {
                let (net, family, label) = scaling_configs()[cell.index];
                vec![scaling_row(net, family, label, 7)]
            }
            "table1-obs1" => {
                let (net, name) = obs1_configs()[cell.index];
                vec![obs1_row(net, name, 9)]
            }
            "table1-k6" => k6_rows(Net::Hypercube(6), "hypercube_k6", 11),
            other => panic!("unknown table1 domain '{other}'"),
        }
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
    //! E-THM1 grids (LogP-on-BSP slowdown across `(g, ℓ)` scalings and
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

    /// The reference LogP machine of the scalings table.
    pub fn reference_params() -> LogpParams {
        LogpParams::new(16, 16, 1, 4).unwrap()
    }

    pub(crate) fn scaling_cases() -> Vec<Case> {
        let logp = reference_params();
        let mut cases = Vec::new();
        for (fg, fl) in [(1u64, 1u64), (2, 1), (1, 2), (2, 2), (4, 4)] {
            cases.push(Case {
                logp,
                factor_g: fg,
                factor_l: fl,
                workload: Workload::Ring { p: 16, rounds: 8 },
            });
        }
        for (fg, fl) in [(1u64, 1u64), (2, 2)] {
            cases.push(Case {
                logp,
                factor_g: fg,
                factor_l: fl,
                workload: Workload::AllToAll { p: 16 },
            });
        }
        cases
    }

    pub(crate) fn size_cases() -> Vec<Case> {
        [4usize, 8, 16, 32, 64]
            .into_iter()
            .map(|p| Case {
                logp: LogpParams::new(p, 16, 1, 4).unwrap(),
                factor_g: 1,
                factor_l: 1,
                workload: Workload::Ring { p, rounds: 8 },
            })
            .collect()
    }

    /// The `(g, ℓ)` scalings grid. Cell 0 (ring, matched 1x/1x) is forced:
    /// it feeds the cost-attribution summary and `--trace-out`, so it runs
    /// live on every invocation.
    pub fn scalings_grid() -> GridSpec {
        let mut g = GridSpec::new("thm1", 1996);
        for (i, case) in scaling_cases().into_iter().enumerate() {
            let mut cell = CellSpec::new(
                "thm1-scalings",
                i,
                format!(
                    "{} {}x/{}x",
                    case.workload.name(),
                    case.factor_g,
                    case.factor_l
                ),
            );
            if i == 0 {
                cell = cell.forced();
            }
            g = g.cell(cell);
        }
        g
    }

    /// Matched parameters across machine sizes.
    pub fn sizes_grid() -> GridSpec {
        let mut g = GridSpec::new("thm1", 1996);
        for (i, case) in size_cases().into_iter().enumerate() {
            g = g.cell(CellSpec::new(
                "thm1-sizes",
                i,
                format!("ring p={} 1x/1x", case.logp.p),
            ));
        }
        g
    }

    /// All grids of the `thm1` experiment. Smoke keeps the cheap unforced
    /// cells (scalings 1–2, sizes 0–1).
    pub fn grids(smoke: bool) -> Vec<GridSpec> {
        let mut scalings = scalings_grid();
        let mut sizes = sizes_grid();
        if smoke {
            scalings.cells.retain(|c| !c.force && c.index <= 2);
            sizes.cells.retain(|c| c.index <= 1);
        }
        vec![scalings, sizes]
    }

    /// Compute one `thm1` cell. `captured` is attached to the options of
    /// forced cells only (the binary passes its export registry; the
    /// service passes `None` — forced cells still run live, their rows are
    /// registry-independent by the determinism contract).
    pub fn run_cell_with(
        cell: &CellSpec,
        mut job: Job,
        captured: Option<&Registry>,
    ) -> (Vec<Vec<String>>, Option<CostReport>) {
        let case = match cell.domain.as_str() {
            "thm1-scalings" => scaling_cases()[cell.index],
            "thm1-sizes" => size_cases()[cell.index],
            other => panic!("unknown thm1 domain '{other}'"),
        };
        if cell.force {
            if let Some(reg) = captured {
                job.opts = job.opts.registry(reg);
            }
        }
        let (row, att) = run_case(case, &job.opts);
        (vec![row], att)
    }

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
    //! E-THM2 grids (deterministic h-relation routing, the large-h sort
    //! regime, and the full superstep simulation).

    use super::*;

    pub(crate) fn cell_shapes() -> Vec<(usize, usize)> {
        let mut cells = Vec::new();
        for p in [16usize, 64] {
            for h in [1usize, 2, 4, 8, 16, 32] {
                cells.push((p, h));
            }
        }
        cells
    }

    pub(crate) const BIG_P: usize = 8;
    pub(crate) const BIG_HS: [usize; 3] = [98, 128, 256];

    pub(crate) fn strategies() -> Vec<(&'static str, RoutingStrategy)> {
        vec![
            ("offline", RoutingStrategy::Offline),
            ("randomized", RoutingStrategy::Randomized { slack: 2.0 }),
            (
                "deterministic",
                RoutingStrategy::Deterministic(SortScheme::Network),
            ),
        ]
    }

    /// The phase-breakdown grid over `(p, h)`. Cell 3 — `(16, 8)` — is
    /// forced: its routing phases are captured as spans for the SUMMARY
    /// line and `--trace-out`.
    pub fn cells_grid() -> GridSpec {
        let mut g = GridSpec::new("thm2", 2024);
        for (i, (p, h)) in cell_shapes().into_iter().enumerate() {
            let mut cell = CellSpec::new("thm2-cells", i, format!("p={p} h={h}"));
            if i == 3 {
                cell = cell.forced();
            }
            g = g.cell(cell);
        }
        g
    }

    /// The large-h regime grid (Network vs Columnsort on one relation).
    pub fn big_grid() -> GridSpec {
        let mut g = GridSpec::new("thm2", 2024);
        for (i, h) in BIG_HS.into_iter().enumerate() {
            g = g.cell(CellSpec::new("thm2-big", i, format!("p={BIG_P} h={h}")));
        }
        g
    }

    /// The full superstep simulation, one cell per routing strategy. The
    /// deterministic strategy (cell 2) is forced: its superstep
    /// decomposition is the richest span set the experiment exports.
    pub fn strategies_grid() -> GridSpec {
        let mut g = GridSpec::new("thm2", 2024);
        for (i, (name, _)) in strategies().into_iter().enumerate() {
            let mut cell = CellSpec::new("thm2-strategies", i, format!("strategy={name}"));
            if i == 2 {
                cell = cell.forced();
            }
            g = g.cell(cell);
        }
        g
    }

    /// All grids of the `thm2` experiment. Smoke keeps small unforced
    /// cells: the first three `(16, h)` phase cells, the h=98 sort cell,
    /// and the offline strategy.
    pub fn grids(smoke: bool) -> Vec<GridSpec> {
        let mut cells = cells_grid();
        let mut big = big_grid();
        let mut strat = strategies_grid();
        if smoke {
            cells.cells.retain(|c| c.index < 3);
            big.cells.truncate(1);
            strat.cells.retain(|c| c.index == 0);
        }
        vec![cells, big, strat]
    }

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

    /// Compute one `thm2` cell; same `captured` contract as
    /// [`thm1::run_cell_with`].
    pub fn run_cell_with(
        cell: &CellSpec,
        mut job: Job,
        captured: Option<&Registry>,
    ) -> (Vec<Vec<String>>, Option<CostReport>) {
        if cell.force {
            if let Some(reg) = captured {
                job.opts = job.opts.registry(reg);
            }
        }
        match cell.domain.as_str() {
            "thm2-cells" => {
                let (p, h) = cell_shapes()[cell.index];
                let params = LogpParams::new(p, 16, 1, 2).unwrap();
                (
                    vec![route_row(params, h, SortScheme::Network, 7, &mut job)],
                    None,
                )
            }
            "thm2-big" => {
                let h = BIG_HS[cell.index];
                let params = LogpParams::new(BIG_P, 16, 1, 2).unwrap();
                (route_big_rows(params, h, 9, &mut job), None)
            }
            "thm2-strategies" => {
                let logp = LogpParams::new(16, 16, 1, 2).unwrap();
                let (name, strategy) = strategies()[cell.index];
                let (row, att) = superstep_row(logp, name, strategy, &job.opts);
                (vec![row], att)
            }
            other => panic!("unknown thm2 domain '{other}'"),
        }
    }

    /// Machine size of the forced span-exporting cells (for sizing the
    /// export registries).
    pub const FLAGGED_P: usize = 16;
}

pub mod faults {
    //! E-FAULT grid (the differential conformance matrix).

    use super::*;
    use bvl_fault::conformance::{default_plans, run_case};
    use bvl_fault::{Case, Sim};

    /// The case matrix, in table order (plans × shapes × simulators).
    pub fn cases(smoke: bool) -> Vec<Case> {
        let shapes: &[(usize, usize)] = if smoke {
            &[(8, 4)]
        } else {
            &[(8, 4), (16, 6)]
        };
        let mut cases = Vec::new();
        for (i, plan) in default_plans().into_iter().enumerate() {
            for &(p, h) in shapes {
                for sim in Sim::ALL {
                    cases.push(Case {
                        sim,
                        p,
                        h,
                        seed: 100 + i as u64,
                        plan: plan.clone(),
                    });
                }
            }
        }
        cases
    }

    /// The conformance grid. The smoke and full matrices are distinct
    /// domains (their index→case mappings differ), each cell carrying its
    /// fault-plan line as part of the content address.
    pub fn grid(smoke: bool) -> GridSpec {
        let domain = if smoke { "faults-smoke" } else { "faults-full" };
        let mut g = GridSpec::new("faults", 100);
        for (i, case) in cases(smoke).into_iter().enumerate() {
            g = g.cell(
                CellSpec::new(
                    domain,
                    i,
                    format!("sim={} p={} h={} seed={}", case.sim, case.p, case.h, case.seed),
                )
                .plan(case.plan.to_string()),
            );
        }
        g
    }

    /// Compute one conformance cell. Row 0 is the table row; row 1 is the
    /// meta row `[checks, repro-line...]` so warm runs reproduce the
    /// SUMMARY counters, `fault-repros.txt` and the exit code without
    /// re-running the case.
    pub fn run_cell(cell: &CellSpec, _job: Job) -> Vec<Vec<String>> {
        let smoke = cell.domain == "faults-smoke";
        case_rows(&cases(smoke)[cell.index])
    }

    /// Run one differential case and shape its report into the two stored
    /// rows (see [`run_cell`]); failures print their repro lines to stderr.
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
    //! E-STACK grid: the full tower per topology — measure `(γ̂, δ̂)`, run
    //! the ring guest abstractly, grounded on the network, and hosted on a
    //! BSP machine via Theorem 1 — one 14-column row per topology.

    use super::*;
    use crate::f3;
    use bvl_exec::RunStack;
    use bvl_logp::{DeliveryPolicy, LogpSpec, PolicyMedium};
    use bvl_net::{measure_parameters, NetMedium, RouterConfig, Topology};
    use bvl_scenario::Net;

    /// Ring workload rounds (the historical `exp_stack` constant).
    pub const ROUNDS: u64 = 8;
    /// Master seed, measurement seed and `RunOptions` seed.
    pub const SEED: u64 = 1996;
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

    /// Two Table 1 rows with equal processor counts (p = 32): the
    /// multi-port hypercube (γ = Θ(1), δ = Θ(log p)) and the butterfly
    /// (γ = δ = Θ(log p)), with their cell-params strings.
    pub(crate) fn nets() -> Vec<(Net, &'static str)> {
        vec![
            (Net::Hypercube(5), "hypercube(5) rounds=8"),
            (Net::Butterfly(3), "butterfly(3) rounds=8"),
        ]
    }

    /// The stack grid. The hypercube cell caches; the butterfly cell is
    /// forced — it feeds the span export, like the historical binary where
    /// the second topology's `--trace-out` write won.
    pub fn grid() -> GridSpec {
        let mut g = GridSpec::new("stack", SEED);
        g.opts = RunOptions::new().seed(SEED);
        for (i, (_, params)) in nets().into_iter().enumerate() {
            let mut cell = CellSpec::new("stack", i, params);
            if i == 1 {
                cell = cell.forced();
            }
            g = g.cell(cell);
        }
        g
    }

    /// The `stack` grids; smoke keeps the (cacheable) hypercube cell.
    pub fn grids(smoke: bool) -> Vec<GridSpec> {
        let mut g = grid();
        if smoke {
            g.cells.retain(|c| c.index == 0);
        }
        vec![g]
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
        let opts = opts.clone().shards(bvl_obs::cli::shards());
        // The registry attaches to the grounded and hosted legs only, never
        // the abstract account — the stall-free guest contributes no spans.
        let observed = match captured {
            Some(reg) => opts.clone().registry(reg),
            None => opts.clone(),
        };

        // 2. The abstract LogP account of the workload.
        let abstract_run = LogpSpec::new(params, ring(p, rounds))
            .over(PolicyMedium::new(params, DeliveryPolicy::AtLatencyBound))
            .run_stack(&opts)
            .expect("abstract stack completes");
        let t_abstract = abstract_run.report.makespan;

        // 3. The same guest grounded on the network: per-link
        //    store-and-forward contention on the real topology.
        let grounded_run = LogpSpec::new(params, ring(p, rounds))
            .over(NetMedium::new(topo.clone(), params.capacity()))
            .run_stack(&observed)
            .expect("grounded stack completes");
        let t_grounded = grounded_run.report.makespan;
        assert_eq!(
            grounded_run.report.delivered, abstract_run.report.delivered,
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

    /// Compute one `stack` cell; same `captured` contract as
    /// [`thm1::run_cell_with`].
    pub fn run_cell_with(
        cell: &CellSpec,
        job: Job,
        captured: Option<&Registry>,
    ) -> Vec<Vec<String>> {
        let (net, _) = nets()[cell.index];
        let cap = if cell.force { captured } else { None };
        vec![stack_row(net, ROUNDS, SEED, &job.opts, cap)]
    }
}

pub mod sort {
    //! E-SORT grid: the BSP sample-sort study (`bvl_workloads::sort`) —
    //! one row per cell with the measured `w + g·h + ℓ` decomposition, the
    //! 1-optimality ratio against the bucket-balanced ideal, and the
    //! Theorem 2 cross-simulation leg with its envelope verdict.

    use super::*;
    use bvl_workloads::{run_sort, SortConfig};

    /// Key-generation master seed of the shipped grid.
    pub const SEED: u64 = 1996;

    /// The shipped study cells: block sizes growing toward the 1-optimal
    /// regime on two machine sizes, plus `(g, ℓ)` variations at fixed
    /// shape. All `p` are powers of two (the Theorem 2 leg routes through
    /// the power-of-two sorting network).
    pub fn configs() -> Vec<SortConfig> {
        let base = |p, n| SortConfig {
            p,
            n,
            g: 2,
            l: 16,
            seed: SEED,
        };
        vec![
            base(4, 256),
            base(8, 512),
            base(8, 4096),
            base(16, 2048),
            SortConfig { g: 4, l: 32, ..base(8, 512) },
            SortConfig { l: 64, ..base(8, 512) },
        ]
    }

    /// The cell-params string of one config (shared with the scenario doc).
    pub fn params_of(cfg: &SortConfig) -> String {
        format!("p={} n={} g={} l={} seed={}", cfg.p, cfg.n, cfg.g, cfg.l, cfg.seed)
    }

    /// The sort grid; no cell is forced — rows are pure measurements.
    pub fn grid() -> GridSpec {
        let mut g = GridSpec::new("sort", SEED);
        for (i, cfg) in configs().iter().enumerate() {
            g = g.cell(CellSpec::new("sort", i, params_of(cfg)));
        }
        g
    }

    /// The `sort` grids; smoke keeps the two small-block cells.
    pub fn grids(smoke: bool) -> Vec<GridSpec> {
        let mut g = grid();
        if smoke {
            g.cells.retain(|c| c.index <= 1);
        }
        vec![g]
    }

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

    /// Compute one `sort` cell (registry contract as in the other kinds:
    /// nothing to attach, rows are registry-independent).
    pub fn run_cell_with(cell: &CellSpec, job: Job) -> Vec<Vec<String>> {
        vec![sort_row(&configs()[cell.index], &job.opts)]
    }
}

pub mod stream {
    //! E-STREAM grid: the pseudo-streaming study
    //! (`bvl_workloads::stream`) — the sample-sort workload run classically
    //! and through a bounded window, one row per window.

    use super::*;
    use bvl_workloads::{run_stream, SortConfig, StreamConfig};

    /// Key-generation master seed (shared with the sort grid's base cell).
    pub const SEED: u64 = 1996;

    /// The shipped cells: one base workload, windows narrowing from
    /// wider-than-any-relation (classical behaviour must reproduce) down
    /// to a few messages per round.
    pub fn configs() -> Vec<StreamConfig> {
        [10_000u64, 64, 16, 4]
            .into_iter()
            .map(|window| StreamConfig {
                sort: SortConfig {
                    p: 8,
                    n: 512,
                    g: 2,
                    l: 16,
                    seed: SEED,
                },
                window,
            })
            .collect()
    }

    /// The cell-params string of one config (shared with the scenario doc).
    pub fn params_of(cfg: &StreamConfig) -> String {
        format!(
            "p={} n={} window={} g={} l={} seed={}",
            cfg.sort.p, cfg.sort.n, cfg.window, cfg.sort.g, cfg.sort.l, cfg.sort.seed
        )
    }

    /// The stream grid; no forced cells.
    pub fn grid() -> GridSpec {
        let mut g = GridSpec::new("stream", SEED);
        for (i, cfg) in configs().iter().enumerate() {
            g = g.cell(CellSpec::new("stream", i, params_of(cfg)));
        }
        g
    }

    /// The `stream` grids; smoke keeps the widest and narrowest windows.
    pub fn grids(smoke: bool) -> Vec<GridSpec> {
        let mut g = grid();
        if smoke {
            g.cells.retain(|c| c.index == 0 || c.index == 3);
        }
        vec![g]
    }

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

    /// Compute one `stream` cell.
    pub fn run_cell_with(cell: &CellSpec, job: Job) -> Vec<Vec<String>> {
        vec![stream_row(&configs()[cell.index], &job.opts)]
    }
}

pub mod bsf {
    //! E-BSF grid: the Bulk Synchronous Farm study
    //! (`bvl_workloads::bsf`) — one row per worker count, sweeping across
    //! the scalability boundary `p* = √(units·t_w / (2·t_t))`.

    use super::*;
    use bvl_workloads::{run_bsf, BsfParams};

    /// The shipped farm shape: `units·t_w/(2·t_t) = 256·4/4 = 256`, so the
    /// predicted curve bottoms out at `p* = 16` — the sweep brackets it
    /// from both sides.
    pub fn base() -> BsfParams {
        BsfParams::new(16, 256, 2, 4, 5, 3).expect("shipped BSF shape valid")
    }

    /// The shipped cells: the worker-count sweep across `p*`.
    pub fn configs() -> Vec<BsfParams> {
        [2usize, 4, 8, 16, 32, 64]
            .into_iter()
            .map(|w| base().with_workers(w))
            .collect()
    }

    /// The cell-params string of one config (shared with the scenario doc).
    pub fn params_of(p: &BsfParams) -> String {
        format!(
            "workers={} units={} tt={} tw={} ts={} iters={}",
            p.workers, p.units, p.tt, p.tw, p.ts, p.iters
        )
    }

    /// The bsf grid; no forced cells (the machine is RNG-free).
    pub fn grid() -> GridSpec {
        let mut g = GridSpec::new("bsf", 1996);
        for (i, cfg) in configs().iter().enumerate() {
            g = g.cell(CellSpec::new("bsf", i, params_of(cfg)));
        }
        g
    }

    /// The `bsf` grids; smoke keeps the two cells bracketing `p*` tightest.
    pub fn grids(smoke: bool) -> Vec<GridSpec> {
        let mut g = grid();
        if smoke {
            g.cells.retain(|c| c.index == 2 || c.index == 3);
        }
        vec![g]
    }

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

    /// Compute one `bsf` cell.
    pub fn run_cell_with(cell: &CellSpec, _job: Job) -> Vec<Vec<String>> {
        vec![bsf_row(&configs()[cell.index])]
    }
}

/// Every experiment the `lab` CLI and HTTP service can run. Since the
/// scenario plane landed these are compiled from the checked-in
/// `scenarios/*.scn` documents; `lab validate` and the equivalence tests
/// prove the compiled grids match the code-defined builders above bit for
/// bit, so cache keys are shared with the `exp_*` binaries either way.
pub fn experiments() -> Vec<Box<dyn Experiment>> {
    crate::scn::experiments()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_the_binaries_cell_counts() {
        let count = |gs: &[GridSpec]| gs.iter().map(|g| g.cells.len()).sum::<usize>();
        assert_eq!(count(&table1::grids(false)), 8 + 6 + 3 + 1);
        assert_eq!(count(&thm1::grids(false)), 7 + 5);
        assert_eq!(count(&thm2::grids(false)), 12 + 3 + 3);
        assert_eq!(count(&[faults::grid(true)]), 21);
        assert_eq!(count(&[faults::grid(false)]), 42);
        assert_eq!(count(&stack::grids(false)), 2);
        assert_eq!(count(&stack::grids(true)), 1);
        assert_eq!(count(&sort::grids(false)), 6);
        assert_eq!(count(&sort::grids(true)), 2);
        assert_eq!(count(&stream::grids(false)), 4);
        assert_eq!(count(&stream::grids(true)), 2);
        assert_eq!(count(&bsf::grids(false)), 6);
        assert_eq!(count(&bsf::grids(true)), 2);
    }

    #[test]
    fn smoke_grids_carry_no_forced_cells() {
        for exp in experiments() {
            for grid in exp.grids(true) {
                assert!(
                    grid.cells.iter().all(|c| !c.force),
                    "{}: smoke grid has a forced cell",
                    exp.name()
                );
                assert_eq!(grid.exp, exp.name());
            }
        }
    }

    #[test]
    fn forced_cells_sit_where_the_binaries_flag_them() {
        let forced = |g: &GridSpec| -> Vec<usize> {
            g.cells.iter().filter(|c| c.force).map(|c| c.index).collect()
        };
        assert_eq!(forced(&thm1::scalings_grid()), vec![0]);
        assert_eq!(forced(&thm2::cells_grid()), vec![3]);
        assert_eq!(forced(&thm2::strategies_grid()), vec![2]);
        assert_eq!(forced(&stack::grid()), vec![1], "butterfly feeds the span export");
        assert!(forced(&table1::k6_grid()).is_empty(), "k6 payload caches");
    }

    #[test]
    fn fault_cells_carry_their_plan_lines() {
        let g = faults::grid(true);
        assert!(g.cells.iter().all(|c| c.plan.is_some()));
        // Distinct plans produce distinct content addresses even at equal
        // (domain, index, params) — guaranteed by cell_key, spot-checked
        // here end to end.
        let code = CodeFingerprint::from_parts("x", "0");
        let mut keys: Vec<String> = g.cells.iter().map(|c| g.key_of(&code, c)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), g.cells.len());
    }

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
