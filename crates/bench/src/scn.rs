//! The shipped scenario documents and their runner.
//!
//! This module is the bridge between the declarative scenario plane
//! (`bvl-scenario`) and the row-builders in [`crate::labexp`]:
//!
//! * [`SHIPPED`] embeds the checked-in `scenarios/*.scn` files;
//!   [`reference()`] rebuilds the same documents from the legacy
//!   configuration lists, and the tests prove `doc(name) ==
//!   reference(name)` — the text files are the source of truth, the code
//!   is the oracle.
//! * [`run_work`] dispatches a compiled [`Work`] item to the shared row
//!   helper it describes, preserving the legacy seeding and registry
//!   contract exactly.
//! * [`experiments`] packages every shipped scenario behind
//!   [`bvl_lab::Experiment`] (including the lower-bound `audit` hook), and
//!   [`Runner`] implements [`bvl_lab::ScenarioRunner`] so `POST /run` and
//!   `lab run --scenario` accept arbitrary scenario documents as data.
//!
//! Every completed grid is audited against the Bilardi–Scquizzato–
//! Silvestri-style communication lower bounds (`bvl_scenario::bounds`): a
//! measured cost below a proven bound is a simulator bug and fails the
//! run, on every front end.

use crate::labexp;
use bvl_core::{RoutingStrategy, SortScheme};
use bvl_fault::Case;
use bvl_lab::{
    run_grid, CellSpec, Experiment, GridReport, GridSpec, Job, ScenarioError, ScenarioRunner,
    ShardedStore,
};
use bvl_logp::LogpParams;
use bvl_net::PortMode;
use bvl_obs::{CostReport, Registry, Tier};
use bvl_scenario::{
    compile, parse, CellDoc, CompiledGrid, CompiledScenario, GridDoc, HostWl, Net, OnlyIn,
    ScenarioDoc, Scheme, Strategy, SuperWl, View, Violation, Work,
};
use std::sync::Mutex;

/// The shipped scenario sources, embedded so every binary finds them
/// regardless of working directory. The on-disk `scenarios/*.scn` files
/// are the checked-in form; `lab emit <name>` regenerates them from
/// [`reference()`].
pub const SHIPPED: [(&str, &str); 9] = [
    ("table1", include_str!("../../../scenarios/table1.scn")),
    ("thm1", include_str!("../../../scenarios/thm1.scn")),
    ("thm2", include_str!("../../../scenarios/thm2.scn")),
    ("faults", include_str!("../../../scenarios/faults.scn")),
    ("stack", include_str!("../../../scenarios/stack.scn")),
    ("scaling", include_str!("../../../scenarios/scaling.scn")),
    ("sort", include_str!("../../../scenarios/sort.scn")),
    ("stream", include_str!("../../../scenarios/stream.scn")),
    ("bsf", include_str!("../../../scenarios/bsf.scn")),
];

/// The embedded text of shipped scenario `name`, if it exists.
pub fn shipped(name: &str) -> Option<&'static str> {
    SHIPPED.iter().find(|(n, _)| *n == name).map(|(_, t)| *t)
}

/// The parsed form of shipped scenario `name`.
pub fn doc(name: &str) -> ScenarioDoc {
    let text = shipped(name).unwrap_or_else(|| panic!("unknown shipped scenario '{name}'"));
    parse(text).unwrap_or_else(|e| panic!("shipped scenario '{name}' does not parse: {e}"))
}

/// Shipped scenario `name`, lowered for a smoke or full run.
pub fn compiled(name: &str, smoke: bool) -> CompiledScenario {
    compile(&doc(name), smoke)
        .unwrap_or_else(|e| panic!("shipped scenario '{name}' does not compile: {e}"))
}

fn mode_str(mode: PortMode) -> &'static str {
    match mode {
        PortMode::Multi => "multi",
        PortMode::Single => "single",
    }
}

fn table1_main_doc() -> GridDoc {
    let mut g = GridDoc::new("table1", 42).domain("table1");
    for (net, family, mode) in labexp::table1::main_configs() {
        g = g.cell(CellDoc::new(
            Work::Measure {
                net,
                mode,
                seed: 42,
                view: View::Main { family },
            },
            format!("{} {} {}", family.label(), net.tag(), mode_str(mode)),
        ));
    }
    g
}

fn scaling_doc() -> GridDoc {
    let mut g = GridDoc::new("table1", 7).domain("table1-scaling");
    for (i, (net, family, label)) in labexp::table1::scaling_configs().into_iter().enumerate() {
        let mut c = CellDoc::new(
            Work::Measure {
                net,
                mode: PortMode::Multi,
                seed: 7,
                view: View::Scaling {
                    family,
                    label: label.to_string(),
                },
            },
            format!("{label} {}", net.tag()),
        );
        if i == 0 || i == 3 {
            c = c.smoke();
        }
        g = g.cell(c);
    }
    g
}

fn obs1_doc() -> GridDoc {
    let mut g = GridDoc::new("table1", 9).domain("table1-obs1");
    for (net, name) in labexp::table1::obs1_configs() {
        g = g.cell(CellDoc::new(
            Work::Measure {
                net,
                mode: PortMode::Multi,
                seed: 9,
                view: View::Obs1 {
                    label: name.to_string(),
                },
            },
            name,
        ));
    }
    g
}

fn k6_doc() -> GridDoc {
    GridDoc::new("table1", 11).domain("table1-k6").cell(
        CellDoc::new(
            Work::Measure {
                net: Net::Hypercube(6),
                mode: PortMode::Multi,
                seed: 11,
                view: View::K6 {
                    label: "hypercube_k6".into(),
                },
            },
            "hypercube(6) multi",
        )
        .smoke(),
    )
}

fn host_work(case: &labexp::thm1::Case) -> Work {
    Work::Host {
        logp: case.logp,
        fg: case.factor_g,
        fl: case.factor_l,
        wl: match case.workload {
            labexp::thm1::Workload::Ring { rounds, .. } => HostWl::Ring {
                rounds: rounds as u64,
            },
            labexp::thm1::Workload::AllToAll { .. } => HostWl::AllToAll,
        },
    }
}

fn thm1_scalings_doc() -> GridDoc {
    let mut g = GridDoc::new("thm1", 1996).domain("thm1-scalings");
    for (i, case) in labexp::thm1::scaling_cases().into_iter().enumerate() {
        let mut c = CellDoc::new(
            host_work(&case),
            format!(
                "{} {}x/{}x",
                case.workload.name(),
                case.factor_g,
                case.factor_l
            ),
        );
        if i == 0 {
            c = c.forced();
        } else if i <= 2 {
            c = c.smoke();
        }
        g = g.cell(c);
    }
    g
}

fn thm1_sizes_doc() -> GridDoc {
    let mut g = GridDoc::new("thm1", 1996).domain("thm1-sizes");
    for (i, case) in labexp::thm1::size_cases().into_iter().enumerate() {
        let mut c = CellDoc::new(host_work(&case), format!("ring p={} 1x/1x", case.logp.p));
        if i <= 1 {
            c = c.smoke();
        }
        g = g.cell(c);
    }
    g
}

fn thm2_cells_doc() -> GridDoc {
    let mut g = GridDoc::new("thm2", 2024).domain("thm2-cells");
    for (i, (p, h)) in labexp::thm2::cell_shapes().into_iter().enumerate() {
        let mut c = CellDoc::new(
            Work::Route {
                logp: LogpParams::new(p, 16, 1, 2).unwrap(),
                h,
                scheme: Scheme::Network,
                seed: 7,
            },
            format!("p={p} h={h}"),
        );
        if i == 3 {
            c = c.forced();
        } else if i < 3 {
            c = c.smoke();
        }
        g = g.cell(c);
    }
    g
}

fn thm2_big_doc() -> GridDoc {
    let mut g = GridDoc::new("thm2", 2024).domain("thm2-big");
    for (i, h) in labexp::thm2::BIG_HS.into_iter().enumerate() {
        let mut c = CellDoc::new(
            Work::RouteBig {
                logp: LogpParams::new(labexp::thm2::BIG_P, 16, 1, 2).unwrap(),
                h,
                seed: 9,
            },
            format!("p={} h={h}", labexp::thm2::BIG_P),
        );
        if i == 0 {
            c = c.smoke();
        }
        g = g.cell(c);
    }
    g
}

fn thm2_strategies_doc() -> GridDoc {
    let mut g = GridDoc::new("thm2", 2024).domain("thm2-strategies");
    for (i, (name, strategy)) in labexp::thm2::strategies().into_iter().enumerate() {
        let strategy = match strategy {
            RoutingStrategy::Offline => Strategy::Offline,
            RoutingStrategy::Randomized { slack } => Strategy::Randomized {
                slack: slack as u64,
            },
            RoutingStrategy::Deterministic(_) => Strategy::Deterministic,
        };
        let mut c = CellDoc::new(
            Work::Superstep {
                logp: LogpParams::new(16, 16, 1, 2).unwrap(),
                strategy,
                wl: SuperWl::Mod7Fan,
            },
            format!("strategy={name}"),
        );
        if i == 2 {
            c = c.forced();
        } else if i == 0 {
            c = c.smoke();
        }
        g = g.cell(c);
    }
    g
}

fn faults_doc(smoke: bool) -> GridDoc {
    let (domain, only) = if smoke {
        ("faults-smoke", OnlyIn::Smoke)
    } else {
        ("faults-full", OnlyIn::Full)
    };
    let mut g = GridDoc::new("faults", 100).domain(domain).only(only);
    for case in labexp::faults::cases(smoke) {
        g = g.cell(
            CellDoc::new(
                Work::Conformance {
                    sim: case.sim,
                    p: case.p,
                    h: case.h,
                    seed: case.seed,
                },
                format!(
                    "sim={} p={} h={} seed={}",
                    case.sim, case.p, case.h, case.seed
                ),
            )
            .plan(case.plan.clone()),
        );
    }
    g
}

fn stack_doc() -> GridDoc {
    let mut g = GridDoc::new("stack", labexp::stack::SEED).domain("stack");
    g.seed = Some(labexp::stack::SEED);
    for (i, (net, params)) in labexp::stack::nets().into_iter().enumerate() {
        let mut c = CellDoc::new(
            Work::Stack {
                net,
                rounds: labexp::stack::ROUNDS,
                seed: labexp::stack::SEED,
            },
            params,
        );
        if i == 0 {
            c = c.smoke();
        } else {
            c = c.forced();
        }
        g = g.cell(c);
    }
    g
}

fn sort_doc() -> GridDoc {
    let mut g = GridDoc::new("sort", labexp::sort::SEED).domain("sort");
    for (i, cfg) in labexp::sort::configs().iter().enumerate() {
        let mut c = CellDoc::new(
            Work::Sort {
                p: cfg.p,
                n: cfg.n,
                g: cfg.g,
                l: cfg.l,
                seed: cfg.seed,
            },
            labexp::sort::params_of(cfg),
        );
        if i <= 1 {
            c = c.smoke();
        }
        g = g.cell(c);
    }
    g
}

fn stream_doc() -> GridDoc {
    let mut g = GridDoc::new("stream", labexp::stream::SEED).domain("stream");
    for (i, cfg) in labexp::stream::configs().iter().enumerate() {
        let mut c = CellDoc::new(
            Work::Stream {
                p: cfg.sort.p,
                n: cfg.sort.n,
                window: cfg.window,
                g: cfg.sort.g,
                l: cfg.sort.l,
                seed: cfg.sort.seed,
            },
            labexp::stream::params_of(cfg),
        );
        if i == 0 || i == 3 {
            c = c.smoke();
        }
        g = g.cell(c);
    }
    g
}

fn bsf_doc() -> GridDoc {
    let mut g = GridDoc::new("bsf", 1996).domain("bsf");
    for (i, cfg) in labexp::bsf::configs().iter().enumerate() {
        let mut c = CellDoc::new(
            Work::Bsf {
                workers: cfg.workers,
                units: cfg.units,
                tt: cfg.tt,
                tw: cfg.tw,
                ts: cfg.ts,
                iters: cfg.iters,
            },
            labexp::bsf::params_of(cfg),
        );
        if i == 2 || i == 3 {
            c = c.smoke();
        }
        g = g.cell(c);
    }
    g
}

/// The code-defined reference document for shipped scenario `name`, built
/// from the same configuration lists as the legacy grid builders. This is
/// the oracle the checked-in `.scn` files are proven against (`doc(name)
/// == reference(name)` is tested) and what `lab emit <name>` prints.
pub fn reference(name: &str) -> ScenarioDoc {
    match name {
        "table1" => ScenarioDoc::new("table1")
            .grid(table1_main_doc())
            .grid(scaling_doc())
            .grid(obs1_doc())
            .grid(k6_doc()),
        // The standalone scaling scenario reuses the table1-scaling grid
        // verbatim (same exp, master, domains), so it shares cache keys
        // with the full table1 run — the exemplar for carving a focused
        // scenario out of a bigger experiment as pure data.
        "scaling" => ScenarioDoc::new("scaling").grid(scaling_doc()),
        "thm1" => ScenarioDoc::new("thm1")
            .grid(thm1_scalings_doc())
            .grid(thm1_sizes_doc()),
        "thm2" => ScenarioDoc::new("thm2")
            .grid(thm2_cells_doc())
            .grid(thm2_big_doc())
            .grid(thm2_strategies_doc()),
        "faults" => ScenarioDoc::new("faults")
            .grid(faults_doc(true))
            .grid(faults_doc(false)),
        "stack" => ScenarioDoc::new("stack").grid(stack_doc()),
        "sort" => ScenarioDoc::new("sort").grid(sort_doc()),
        "stream" => ScenarioDoc::new("stream").grid(stream_doc()),
        "bsf" => ScenarioDoc::new("bsf").grid(bsf_doc()),
        other => panic!("unknown shipped scenario '{other}'"),
    }
}

/// The legacy code-defined grids for shipped scenario `name` — the oracle
/// `lab validate` and the equivalence tests diff compiled digests against.
pub fn legacy_grids(name: &str, smoke: bool) -> Option<Vec<GridSpec>> {
    match name {
        "table1" => Some(labexp::table1::grids(smoke)),
        "thm1" => Some(labexp::thm1::grids(smoke)),
        "thm2" => Some(labexp::thm2::grids(smoke)),
        "faults" => Some(vec![labexp::faults::grid(smoke)]),
        "stack" => Some(labexp::stack::grids(smoke)),
        "sort" => Some(labexp::sort::grids(smoke)),
        "stream" => Some(labexp::stream::grids(smoke)),
        "bsf" => Some(labexp::bsf::grids(smoke)),
        "scaling" => {
            let mut g = labexp::table1::scaling_grid();
            if smoke {
                g.cells.retain(|c| c.index == 0 || c.index == 3);
            }
            Some(vec![g])
        }
        _ => None,
    }
}

/// The work item behind `cell` in a compiled grid.
pub fn work_for<'a>(grid: &'a CompiledGrid, cell: &CellSpec) -> &'a Work {
    find_work(grid, cell)
        .unwrap_or_else(|| panic!("cell {}[{}] not in compiled grid", cell.domain, cell.index))
}

/// `compile` numbers a grid's cells by declaration position, so
/// `spec.cells` is strictly increasing in `index` (a smoke compile drops
/// cells but keeps the order): binary-search the index, then check the
/// domain.
fn find_work<'a>(grid: &'a CompiledGrid, cell: &CellSpec) -> Option<&'a Work> {
    let i = grid
        .spec
        .cells
        .binary_search_by_key(&cell.index, |c| c.index)
        .ok()?;
    (grid.spec.cells[i].domain == cell.domain).then(|| &grid.work[i])
}

/// Compute one cell from its typed work description. `captured` follows
/// the legacy contract: it attaches to the options of forced cells only
/// (the binaries pass their span-export registry; the service passes
/// `None` — forced cells still run live, and their rows are
/// registry-independent by the determinism contract).
pub fn run_work(
    work: &Work,
    cell: &CellSpec,
    mut job: Job,
    captured: Option<&Registry>,
) -> (Vec<Vec<String>>, Option<CostReport>) {
    let cap = if cell.force { captured } else { None };
    // The stack tower manages its own registry attachment (grounded and
    // hosted legs only); every other kind observes the whole run.
    if !matches!(work, Work::Stack { .. }) {
        if let Some(reg) = cap {
            job.opts = job.opts.registry(reg);
        }
    }
    match work {
        Work::Measure {
            net,
            mode,
            seed,
            view,
        } => {
            let rows = match view {
                View::Main { family } => {
                    vec![labexp::table1::measure_row(*net, *family, *mode, *seed)]
                }
                View::Scaling { family, label } => {
                    vec![labexp::table1::scaling_row(*net, *family, label, *seed)]
                }
                View::Obs1 { label } => vec![labexp::table1::obs1_row(*net, label, *seed)],
                View::K6 { label } => labexp::table1::k6_rows(*net, label, *seed),
            };
            (rows, None)
        }
        Work::Host { logp, fg, fl, wl } => {
            let workload = match wl {
                HostWl::Ring { rounds } => labexp::thm1::Workload::Ring {
                    p: logp.p,
                    rounds: *rounds as usize,
                },
                HostWl::AllToAll => labexp::thm1::Workload::AllToAll { p: logp.p },
            };
            let case = labexp::thm1::Case {
                logp: *logp,
                factor_g: *fg,
                factor_l: *fl,
                workload,
            };
            let (row, att) = labexp::thm1::run_case(case, &job.opts);
            (vec![row], att)
        }
        Work::Route {
            logp,
            h,
            scheme,
            seed,
        } => {
            let scheme = match scheme {
                Scheme::Network => SortScheme::Network,
                Scheme::Columnsort => SortScheme::Columnsort,
            };
            (
                vec![labexp::thm2::route_row(*logp, *h, scheme, *seed, &mut job)],
                None,
            )
        }
        Work::RouteBig { logp, h, seed } => (
            labexp::thm2::route_big_rows(*logp, *h, *seed, &mut job),
            None,
        ),
        Work::Superstep { logp, strategy, .. } => {
            let (name, strategy) = match strategy {
                Strategy::Offline => ("offline", RoutingStrategy::Offline),
                Strategy::Randomized { slack } => (
                    "randomized",
                    RoutingStrategy::Randomized {
                        slack: *slack as f64,
                    },
                ),
                Strategy::Deterministic => (
                    "deterministic",
                    RoutingStrategy::Deterministic(SortScheme::Network),
                ),
            };
            let (row, att) = labexp::thm2::superstep_row(*logp, name, strategy, &job.opts);
            (vec![row], att)
        }
        Work::Conformance { sim, p, h, seed } => {
            let plan = cell
                .plan
                .as_deref()
                .expect("conformance cell carries a plan")
                .parse()
                .expect("conformance plan parses");
            let case = Case {
                sim: *sim,
                p: *p,
                h: *h,
                seed: *seed,
                plan,
            };
            (labexp::faults::case_rows(&case), None)
        }
        Work::Stack { net, rounds, seed } => (
            vec![labexp::stack::stack_row(*net, *rounds, *seed, &job.opts, cap)],
            None,
        ),
        Work::Sort { p, n, g, l, seed } => {
            let cfg = bvl_workloads::SortConfig {
                p: *p,
                n: *n,
                g: *g,
                l: *l,
                seed: *seed,
            };
            (vec![labexp::sort::sort_row(&cfg, &job.opts)], None)
        }
        Work::Stream {
            p,
            n,
            window,
            g,
            l,
            seed,
        } => {
            let cfg = bvl_workloads::StreamConfig {
                sort: bvl_workloads::SortConfig {
                    p: *p,
                    n: *n,
                    g: *g,
                    l: *l,
                    seed: *seed,
                },
                window: *window,
            };
            (vec![labexp::stream::stream_row(&cfg, &job.opts)], None)
        }
        Work::Bsf {
            workers,
            units,
            tt,
            tw,
            ts,
            iters,
        } => {
            let params = bvl_workloads::BsfParams::new(*workers, *units, *tt, *tw, *ts, *iters)
                .expect("bsf cell parameters valid");
            (vec![labexp::bsf::bsf_row(&params)], None)
        }
    }
}

/// Audit one completed grid's rows against the proven lower bounds.
pub fn audit(grid: &CompiledGrid, rows: &[Vec<Vec<String>>]) -> Vec<Violation> {
    bvl_scenario::audit_grid(&grid.spec, &grid.work, rows)
}

/// Run one compiled grid through a [`labexp::Lab`], collecting the flagged
/// cell's cost attribution and auditing the completed rows. Violations are
/// fatal: a measured cost below a proven bound is a simulator bug, not a
/// fast run, so the binaries exit rather than print a broken table.
pub fn run_in_lab(
    lab: &labexp::Lab,
    grid: &CompiledGrid,
    captured: Option<&Registry>,
) -> (GridReport, Option<CostReport>) {
    let att: Mutex<Option<CostReport>> = Mutex::new(None);
    let rep = lab.run(&grid.spec, |cell, job| {
        let (rows, a) = run_work(work_for(grid, cell), cell, job, captured);
        if let Some(a) = a {
            *att.lock().expect("attribution lock") = Some(a);
        }
        rows
    });
    let violations = audit(grid, &rep.rows);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("[audit] {v}");
        }
        eprintln!(
            "[audit] grid '{}': {} lower-bound violation(s) — a measured cost below a \
             proven bound is a simulator bug",
            grid.spec.exp,
            violations.len()
        );
        std::process::exit(2);
    }
    (rep, att.into_inner().expect("attribution lock"))
}

/// An [`Experiment`] compiled from a shipped scenario document. Both the
/// full and smoke lowerings are kept so cells of either mode dispatch.
struct ScenarioExperiment {
    name: String,
    full: CompiledScenario,
    smoke: CompiledScenario,
}

impl ScenarioExperiment {
    fn new(name: &str) -> ScenarioExperiment {
        ScenarioExperiment {
            name: name.to_string(),
            full: compiled(name, false),
            smoke: compiled(name, true),
        }
    }

    fn work_of(&self, cell: &CellSpec) -> &Work {
        self.full
            .grids
            .iter()
            .chain(self.smoke.grids.iter())
            .find_map(|grid| find_work(grid, cell))
            .unwrap_or_else(|| panic!("unknown {} cell {}[{}]", self.name, cell.domain, cell.index))
    }
}

impl Experiment for ScenarioExperiment {
    fn name(&self) -> &str {
        &self.name
    }
    fn grids(&self, smoke: bool) -> Vec<GridSpec> {
        let compiled = if smoke { &self.smoke } else { &self.full };
        compiled.grids.iter().map(|g| g.spec.clone()).collect()
    }
    fn run_cell(&self, cell: &CellSpec, job: Job) -> Vec<Vec<String>> {
        run_work(self.work_of(cell), cell, job, None).0
    }
    fn audit(&self, grid: &GridSpec, rows: &[Vec<Vec<String>>]) -> Vec<String> {
        let work: Vec<Work> = grid.cells.iter().map(|c| self.work_of(c).clone()).collect();
        bvl_scenario::audit_grid(grid, &work, rows)
            .iter()
            .map(|v| v.to_string())
            .collect()
    }
}

/// Every experiment the `lab` CLI and HTTP service can run, compiled from
/// the checked-in scenario documents. (`scaling` is not listed: it aliases
/// a subset of `table1`'s cells and would collide with its experiment
/// name; run it as a document via `lab run --scenario`.)
pub fn experiments() -> Vec<Box<dyn Experiment>> {
    ["table1", "thm1", "thm2", "faults", "stack", "sort", "stream", "bsf"]
        .into_iter()
        .map(|name| Box::new(ScenarioExperiment::new(name)) as Box<dyn Experiment>)
        .collect()
}

/// The scenario runner behind `POST /run {"scenario": ...}` and `lab run
/// --scenario`: parse, compile, run every grid through the shared store,
/// audit each against the lower bounds, merge the reports.
pub struct Runner;

impl ScenarioRunner for Runner {
    fn run_scenario(
        &self,
        text: &str,
        store: &ShardedStore,
        registry: &Registry,
        smoke: bool,
        tier: Option<Tier>,
    ) -> Result<(String, GridReport), ScenarioError> {
        let doc = parse(text).map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        let mut compiled =
            compile(&doc, smoke).map_err(|e| ScenarioError::Invalid(e.to_string()))?;
        if let Some(t) = tier {
            // Observability-only: the tier never moves cache keys.
            for grid in &mut compiled.grids {
                grid.spec.opts.obs_tier = t;
            }
        }
        let mut merged = GridReport::empty();
        for grid in &compiled.grids {
            let rep = run_grid(&grid.spec, Some(store), registry, |cell, job| {
                run_work(work_for(grid, cell), cell, job, None).0
            })
            .map_err(|e| {
                ScenarioError::Failed(format!("grid '{}' failed: {e}", grid.spec.exp))
            })?;
            let violations = audit(grid, &rep.rows);
            if !violations.is_empty() {
                let lines: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
                return Err(ScenarioError::Failed(format!(
                    "bounds audit failed ({} violation{}): {}",
                    lines.len(),
                    if lines.len() == 1 { "" } else { "s" },
                    lines.join("; ")
                )));
            }
            merged.merge(rep);
        }
        Ok((compiled.name, merged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_scenario::grid_digest;

    const NAMES: [&str; 9] = [
        "table1", "thm1", "thm2", "faults", "stack", "scaling", "sort", "stream", "bsf",
    ];

    #[test]
    fn shipped_documents_match_their_reference() {
        for name in NAMES {
            assert_eq!(doc(name), reference(name), "scenario '{name}' drifted");
        }
    }

    #[test]
    fn reference_documents_round_trip_through_text_and_repro() {
        for name in NAMES {
            let r = reference(name);
            assert_eq!(parse(&r.to_text()).unwrap(), r, "{name}: to_text");
            assert_eq!(parse(&r.repro()).unwrap(), r, "{name}: repro");
        }
    }

    #[test]
    fn compiled_scenarios_match_the_legacy_grids_bit_for_bit() {
        for name in NAMES {
            for smoke in [false, true] {
                let compiled = compiled(name, smoke);
                let legacy = legacy_grids(name, smoke).expect("shipped name");
                assert_eq!(
                    compiled.grids.len(),
                    legacy.len(),
                    "{name} smoke={smoke}: grid count"
                );
                for (cg, lg) in compiled.grids.iter().zip(&legacy) {
                    assert_eq!(
                        grid_digest(&cg.spec),
                        grid_digest(lg),
                        "{name} smoke={smoke}: grid '{}' digest (exp/master/opts/cells/keys)",
                        lg.exp
                    );
                }
            }
        }
    }

    #[test]
    fn a_cost_below_a_proven_bound_is_caught() {
        // Fabricate rows that undercut the (h-1)·G + L routing bound: the
        // audit must flag them (a simulator "this fast" is a bug).
        let scenario = compiled("thm2", true);
        let grid = &scenario.grids[0]; // thm2-cells, Route work
        let broken: Vec<Vec<Vec<String>>> = grid
            .spec
            .cells
            .iter()
            .map(|_| {
                vec![["16", "1", "0", "0", "0", "1", "1", "16.00", "0.06", "1.00"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect()]
            })
            .collect();
        let violations = audit(grid, &broken);
        assert!(
            violations.len() >= grid.spec.cells.len(),
            "broken costs must be flagged, got {violations:?}"
        );
        // And the Experiment-level hook reports them as strings.
        let exp = ScenarioExperiment::new("thm2");
        let flagged = Experiment::audit(&exp, &grid.spec, &broken);
        assert_eq!(flagged.len(), violations.len());
    }

    /// A smoke compile keeps declared indices, so its grids have gaps;
    /// the binary search must still find every kept cell, from the grid
    /// and from the experiment's full + smoke lowerings, and a cell at a
    /// present index under another domain, or at a dropped index, is a
    /// miss.
    #[test]
    fn work_lookup_finds_smoke_cells_across_gaps_and_misses_a_wrong_domain() {
        let mut gaps = 0;
        for name in NAMES {
            let smoke = compiled(name, true);
            let exp = ScenarioExperiment::new(name);
            for grid in &smoke.grids {
                for (i, cell) in grid.spec.cells.iter().enumerate() {
                    assert!(std::ptr::eq(work_for(grid, cell), &grid.work[i]));
                    let found = exp.work_of(cell);
                    assert!(
                        found == &grid.work[i],
                        "{name} {}[{}]",
                        cell.domain,
                        cell.index
                    );
                    let mut elsewhere = cell.clone();
                    elsewhere.domain.push_str("-elsewhere");
                    assert!(
                        find_work(grid, &elsewhere).is_none(),
                        "wrong domain must miss"
                    );
                }
                for w in grid.spec.cells.windows(2) {
                    if w[1].index > w[0].index + 1 {
                        gaps += 1;
                        let mut dropped = w[0].clone();
                        dropped.index += 1;
                        assert!(
                            find_work(grid, &dropped).is_none(),
                            "dropped index must miss"
                        );
                    }
                }
            }
        }
        assert!(gaps > 0, "some shipped smoke grid must skip indices");
    }

    #[test]
    #[should_panic(expected = "not in compiled grid")]
    fn work_for_panics_on_a_cell_the_grid_lacks() {
        let smoke = compiled("thm2", true);
        let grid = &smoke.grids[0];
        let mut cell = grid.spec.cells[0].clone();
        cell.domain.push_str("-elsewhere");
        work_for(grid, &cell);
    }

    #[test]
    fn experiments_cover_every_legacy_front_end_name() {
        let names: Vec<String> = experiments().iter().map(|e| e.name().to_string()).collect();
        assert_eq!(
            names,
            ["table1", "thm1", "thm2", "faults", "stack", "sort", "stream", "bsf"]
        );
    }
}
