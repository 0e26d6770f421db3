//! The shipped scenario documents and their runner.
//!
//! This module is the bridge between the declarative scenario plane
//! (`bvl-scenario`) and the row-builders in [`crate::labexp`]:
//!
//! * [`SHIPPED`] embeds the checked-in `scenarios/*.scn` files, the one
//!   declaration of every shipped grid; [`RECORDED_DIGESTS`] pins what each
//!   lowers to, so `lab validate` and the tests catch a drifted document.
//! * [`run_work`] dispatches a compiled [`Work`] item to the shared row
//!   helper it describes, with the scheduler's seeding and the binaries'
//!   registry contract.
//! * [`experiments`] packages every shipped scenario behind
//!   [`bvl_lab::Experiment`] (including the lower-bound `audit` hook), and
//!   [`Runner`] implements [`bvl_lab::ScenarioRunner`] so `POST /run` and
//!   `lab run --scenario` accept arbitrary scenario documents as data.
//!
//! Every grid, shipped or submitted, runs through [`bvl_lab::run_grid`],
//! and every completed grid is audited against the Bilardi–Scquizzato–
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
use bvl_obs::{CostReport, Registry, Tier};
use bvl_scenario::{
    compile, parse, CompiledGrid, CompiledScenario, HostWl, ScenarioDoc, Scheme, Strategy, View,
    Violation, Work,
};
use std::sync::Mutex;

/// The shipped scenario sources, embedded so every binary finds them
/// regardless of working directory; `lab emit <name>` prints one.
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

/// The recorded digest of every shipped scenario's lowered grids, as
/// `(name, smoke, digest_of(compiled))` in [`SHIPPED`] order, full before
/// smoke. A digest covers each grid's
/// experiment, master seed, canonical options, cell count, and every
/// cell's store key and force flag, so it catches a drifted cell label,
/// seed, plan, forced-cell position or smoke subset. `lab validate` and
/// the tests check the compiled documents against this table; re-record
/// an entry only together with a deliberate change to that scenario.
pub const RECORDED_DIGESTS: [(&str, bool, &str); 18] = [
    ("table1", false, "fdf4dc5d2e7c18f6e8c62970c9360afc"),
    ("table1", true, "76c26ce4ee33b63a2dd733398e64afdc"),
    ("thm1", false, "b3d7eb4b4ce4ad5b4c3e7c92f8e0ca4b"),
    ("thm1", true, "54b71ceba827f7a6c39d69aa460c2762"),
    ("thm2", false, "e7e1f1b1169289b87eeb0734f1381bbe"),
    ("thm2", true, "11d9c5932ab35652c1d0291ebbca9597"),
    ("faults", false, "bcc5e27685b047d0c33cc3473725629a"),
    ("faults", true, "b355688f848a784f44de2f6f8764728d"),
    ("stack", false, "e8be4312d2f76883f819e3623af625df"),
    ("stack", true, "bc0511050ee3e90c1deda5ca84f61232"),
    ("scaling", false, "bf56a8b476e60a87b5199182dcff7681"),
    ("scaling", true, "5e4a45d9f86963d171ddfd7832b6b3e8"),
    ("sort", false, "b27d9414b500c1047528b67a8a25cf88"),
    ("sort", true, "fd2f10f485252ec3655e88089ba2af6a"),
    ("stream", false, "6ddf5f64811a97a7056f50c7d93ada87"),
    ("stream", true, "0621c1edc6616926efab062e3f94b643"),
    ("bsf", false, "b333196b47c1c5f20cff0c7bcabc543a"),
    ("bsf", true, "fa7541c473442f8a9d8451e77c8395a0"),
];

/// One digest over a compiled scenario's grids, in order: the
/// [`grid_digest`](bvl_scenario::grid_digest) of each.
pub fn digest_of(scenario: &CompiledScenario) -> String {
    let digests: Vec<String> =
        scenario.grids.iter().map(|g| bvl_scenario::grid_digest(&g.spec)).collect();
    let pairs: Vec<(&str, &str)> = digests.iter().map(|d| ("grid", d.as_str())).collect();
    bvl_lab::Digest::of(&pairs).hex()
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

/// Compute one cell from its typed work description. `captured`
/// attaches to the options of forced cells only
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
    #[test]
    fn shipped_documents_round_trip_through_text_and_repro() {
        for (name, _) in SHIPPED {
            let d = doc(name);
            assert_eq!(parse(&d.to_text()).unwrap(), d, "{name}: to_text");
            assert_eq!(parse(&d.repro()).unwrap(), d, "{name}: repro");
        }
    }

    #[test]
    fn shipped_grids_match_their_recorded_digests() {
        let mut report = String::new();
        let mut mismatches = 0;
        for (name, smoke, want) in RECORDED_DIGESTS {
            let got = digest_of(&compiled(name, smoke));
            if got != want {
                mismatches += 1;
            }
            report.push_str(&format!("    ({name:?}, {smoke}, {got:?}),\n"));
        }
        assert_eq!(mismatches, 0, "digests diverged; this run got:\n{report}");
        // One entry per shipped scenario and mode, in `SHIPPED` order.
        let listed: Vec<(&str, bool)> = RECORDED_DIGESTS.iter().map(|e| (e.0, e.1)).collect();
        let shipped: Vec<(&str, bool)> = SHIPPED
            .iter()
            .flat_map(|(n, _)| [(*n, false), (*n, true)])
            .collect();
        assert_eq!(listed, shipped);
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
        for (name, _) in SHIPPED {
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
    fn experiments_cover_every_front_end_name() {
        let names: Vec<String> = experiments().iter().map(|e| e.name().to_string()).collect();
        assert_eq!(
            names,
            ["table1", "thm1", "thm2", "faults", "stack", "sort", "stream", "bsf"]
        );
    }
}
