//! The scenario document model and its line-oriented serializer.
//!
//! A [`ScenarioDoc`] is the typed form of a `.scn` file: a named list of
//! grids, each grid a list of cells, each cell a typed [`Work`] item plus
//! the content-address fields ([`CellDoc::params`], [`CellDoc::plan`],
//! force/smoke markers) that [`crate::compile()`] lowers into
//! `bvl_lab::CellSpec`s.
//!
//! The text form is a flat statement language — `scenario`, `grid`, `cell`
//! statements of `key=value` attributes — separated by newlines *or* `;`,
//! so every document also has a one-line [`ScenarioDoc::repro`] encoding
//! (same convention as `FaultPlan` and conformance-case repro lines).
//! [`crate::parse::parse`] inverts [`ScenarioDoc::to_text`] exactly:
//! `parse(doc.to_text()) == doc` is proptested over random documents.

use std::fmt::Write as _;

use bvl_fault::conformance::Sim;
use bvl_fault::FaultPlan;
use bvl_logp::LogpParams;
use bvl_net::table1::Family;
use bvl_net::PortMode;

use crate::topo::{family_token, Net};

/// A full scenario document: one experiment name, one or more grids.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioDoc {
    /// Scenario name (the `scenario NAME` header; documentation only —
    /// grids carry their own experiment names for the store).
    pub name: String,
    /// The grids, in declaration order.
    pub grids: Vec<GridDoc>,
}

/// When a grid participates, if not in both smoke and full runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnlyIn {
    /// The grid exists only in smoke runs.
    Smoke,
    /// The grid exists only in full runs.
    Full,
}

/// One grid: experiment name, master seed, `RunOptions` knobs, cells.
#[derive(Clone, Debug, PartialEq)]
pub struct GridDoc {
    /// Experiment name — the store's grouping key.
    pub exp: String,
    /// Master seed every cell's RNG stream derives from.
    pub master: u64,
    /// Default cell domain; individual cells may override. A cell with no
    /// domain in a grid with no default is a compile error.
    pub domain: Option<String>,
    /// Smoke/full participation (both when `None`).
    pub only: Option<OnlyIn>,
    /// `RunOptions::seed` override (default 0).
    pub seed: Option<u64>,
    /// `RunOptions::traced()`.
    pub trace: bool,
    /// `RunOptions::at(clock_base)`.
    pub clock_base: Option<u64>,
    /// `RunOptions::budget`.
    pub budget: Option<u64>,
    /// Grid-wide fault decorator (`RunOptions::faults`).
    pub fault: Option<FaultPlan>,
    /// The cells, in declaration order — the declaration position *is* the
    /// cell's RNG-lane index, so smoke filtering never renumbers anything.
    pub cells: Vec<CellDoc>,
}

impl GridDoc {
    /// A grid with default options and no cells.
    pub fn new(exp: impl Into<String>, master: u64) -> GridDoc {
        GridDoc {
            exp: exp.into(),
            master,
            domain: None,
            only: None,
            seed: None,
            trace: false,
            clock_base: None,
            budget: None,
            fault: None,
            cells: Vec::new(),
        }
    }

    /// Set the default cell domain.
    #[must_use]
    pub fn domain(mut self, domain: impl Into<String>) -> GridDoc {
        self.domain = Some(domain.into());
        self
    }

    /// Restrict the grid to smoke or full runs.
    #[must_use]
    pub fn only(mut self, only: OnlyIn) -> GridDoc {
        self.only = Some(only);
        self
    }

    /// Append a cell.
    #[must_use]
    pub fn cell(mut self, cell: CellDoc) -> GridDoc {
        self.cells.push(cell);
        self
    }
}

/// One cell: the typed work plus its content-address fields.
#[derive(Clone, Debug, PartialEq)]
pub struct CellDoc {
    /// What the cell computes.
    pub work: Work,
    /// Human-readable cell parameters; part of the content address, so
    /// editing one moves the cell's store key.
    pub params: String,
    /// Per-cell domain override.
    pub domain: Option<String>,
    /// Per-cell fault plan (conformance cells); lowered to
    /// `CellSpec::plan`, part of the content address.
    pub plan: Option<FaultPlan>,
    /// Always run live, never cache (cells that feed a captured registry).
    pub force: bool,
    /// Include this cell in smoke runs.
    pub smoke: bool,
}

impl CellDoc {
    /// A plain cacheable cell.
    pub fn new(work: Work, params: impl Into<String>) -> CellDoc {
        CellDoc {
            work,
            params: params.into(),
            domain: None,
            plan: None,
            force: false,
            smoke: false,
        }
    }

    /// Override the grid's default domain.
    #[must_use]
    pub fn domain(mut self, domain: impl Into<String>) -> CellDoc {
        self.domain = Some(domain.into());
        self
    }

    /// Attach a per-cell fault plan.
    #[must_use]
    pub fn plan(mut self, plan: FaultPlan) -> CellDoc {
        self.plan = Some(plan);
        self
    }

    /// Mark the cell always-live.
    #[must_use]
    pub fn forced(mut self) -> CellDoc {
        self.force = true;
        self
    }

    /// Include the cell in smoke runs.
    #[must_use]
    pub fn smoke(mut self) -> CellDoc {
        self.smoke = true;
        self
    }
}

/// How a Table 1 measurement cell reports its fit.
#[derive(Clone, Debug, PartialEq)]
pub enum View {
    /// Measured-vs-predicted against an analytic [`Family`] (Table 1 main).
    Main {
        /// The analytic family whose γ/δ predictions the row compares to.
        family: Family,
    },
    /// γ̂/δ̂ vs the family's analytic values, custom row label (E-SCALE).
    Scaling {
        /// The analytic family.
        family: Family,
        /// Row label as printed.
        label: String,
    },
    /// Observation 1 check: predicted `(G*, L*)` from measured `(g*, ℓ*)`.
    Obs1 {
        /// Row label as printed.
        label: String,
    },
    /// Fit summary plus the raw per-h samples (the k=6 deep-dive).
    K6 {
        /// Label for the summary row.
        label: String,
    },
}

/// Workload for a Theorem 1 hosting cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostWl {
    /// Ring neighbor exchange, `rounds` rounds.
    Ring {
        /// Number of rounds.
        rounds: u64,
    },
    /// Total exchange: every processor sends to every other.
    AllToAll,
}

/// Sorting scheme for a deterministic-routing cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Batcher sorting network.
    Network,
    /// Columnsort.
    Columnsort,
}

/// BSP-on-LogP simulation strategy (Theorem 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Offline-routed supersteps.
    Offline,
    /// Randomized routing with integer slack factor.
    Randomized {
        /// Slack multiplier (lowered to `f64`).
        slack: u64,
    },
    /// Deterministic (sorting-network) routing.
    Deterministic,
}

/// Workload for a Theorem 2 strategy cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuperWl {
    /// The 5-superstep `(me·5 + k·7) mod p` fan used by E-THM2.
    Mod7Fan,
}

/// What one cell computes. Each variant corresponds to one `cell KIND ...`
/// statement and one shared row-builder in `bvl_bench`.
#[derive(Clone, Debug, PartialEq)]
pub enum Work {
    /// Measure γ̂/δ̂ on a Table 1 network (E-TABLE1 / E-SCALE).
    Measure {
        /// The network instance.
        net: Net,
        /// Router port mode.
        mode: PortMode,
        /// Measurement seed.
        seed: u64,
        /// Reporting view.
        view: View,
    },
    /// Theorem 1: LogP guest hosted on a BSP machine (E-THM1).
    Host {
        /// Guest LogP parameters.
        logp: LogpParams,
        /// Host bandwidth degradation factor (`g_bsp = G·fg`).
        fg: u64,
        /// Host latency degradation factor (`ℓ_bsp = L·fl`).
        fl: u64,
        /// The guest workload.
        wl: HostWl,
    },
    /// Theorem 2 deterministic h-relation routing cell (E-THM2).
    Route {
        /// LogP parameters.
        logp: LogpParams,
        /// Relation degree.
        h: usize,
        /// Sorting scheme.
        scheme: Scheme,
        /// Routing-run seed override.
        seed: u64,
    },
    /// Theorem 2 big-h cell: both sorting schemes on one shared relation.
    RouteBig {
        /// LogP parameters.
        logp: LogpParams,
        /// Relation degree.
        h: usize,
        /// Routing-run seed override.
        seed: u64,
    },
    /// Theorem 2 full BSP-on-LogP superstep simulation.
    Superstep {
        /// LogP parameters.
        logp: LogpParams,
        /// Simulation strategy.
        strategy: Strategy,
        /// The BSP workload.
        wl: SuperWl,
    },
    /// Differential fault-conformance case (E-FAULT). The fault plan rides
    /// on [`CellDoc::plan`], where it is part of the content address.
    Conformance {
        /// Which simulator to drive.
        sim: Sim,
        /// Processor count.
        p: usize,
        /// Relation degree.
        h: usize,
        /// Workload seed.
        seed: u64,
    },
    /// E-STACK tower: measure a network, ground a LogP guest on it, host
    /// the same guest via Theorem 1, compare all three.
    Stack {
        /// The network instance to measure and ground on.
        net: Net,
        /// Ring workload rounds.
        rounds: u64,
        /// Measurement + run seed.
        seed: u64,
    },
    /// Sample-sort study cell (E-SORT): native BSP leg plus the Theorem 2
    /// cross-simulation leg, with the 1-optimality ratio per cell.
    Sort {
        /// Processors (`p = 2^k ≥ 2`).
        p: usize,
        /// Total keys.
        n: u64,
        /// BSP gap `g` (LogP `G` on the cross-simulation leg).
        g: u64,
        /// BSP periodicity `ℓ` (LogP `L`).
        l: u64,
        /// Key-generation master seed (per-processor `SeedStream` lanes).
        seed: u64,
    },
    /// Pseudo-streaming study cell (E-STREAM): the sort workload run
    /// classically and through a bounded working set of `window` messages
    /// per processor per synchronization round.
    Stream {
        /// Processors (`p = 2^k ≥ 2`).
        p: usize,
        /// Total keys.
        n: u64,
        /// Streaming window (messages per processor per round).
        window: u64,
        /// BSP gap `g`.
        g: u64,
        /// BSP periodicity `ℓ`.
        l: u64,
        /// Key-generation master seed.
        seed: u64,
    },
    /// BSF master-worker cell (E-BSF): event-wise simulated farm vs the
    /// model's closed-form prediction, speedup and scalability boundary.
    Bsf {
        /// Worker count (master not counted).
        workers: usize,
        /// Work units per iteration.
        units: u64,
        /// Transfer time `t_t`.
        tt: u64,
        /// Compute time `t_w` per unit.
        tw: u64,
        /// Per-iteration setup `t_s`.
        ts: u64,
        /// Iterations.
        iters: u64,
    },
}

fn mode_token(mode: PortMode) -> &'static str {
    match mode {
        PortMode::Multi => "multi",
        PortMode::Single => "single",
    }
}

fn logp_token(params: LogpParams) -> String {
    format!("{}:{}:{}:{}", params.p, params.l, params.o, params.g)
}

/// Quote a string value for the text form (`params`, `label`).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Work {
    /// The `cell KIND attr...` fragment for this work item.
    fn statement_fragment(&self) -> String {
        match self {
            Work::Measure {
                net,
                mode,
                seed,
                view,
            } => {
                let mut s = format!("measure net={net} mode={} seed={seed}", mode_token(*mode));
                match view {
                    View::Main { family } => {
                        let _ = write!(s, " view=main family={}", family_token(*family));
                    }
                    View::Scaling { family, label } => {
                        let _ = write!(
                            s,
                            " view=scaling family={} label={}",
                            family_token(*family),
                            quote(label)
                        );
                    }
                    View::Obs1 { label } => {
                        let _ = write!(s, " view=obs1 label={}", quote(label));
                    }
                    View::K6 { label } => {
                        let _ = write!(s, " view=k6 label={}", quote(label));
                    }
                }
                s
            }
            Work::Host { logp, fg, fl, wl } => {
                let wl = match wl {
                    HostWl::Ring { rounds } => format!("ring:{rounds}"),
                    HostWl::AllToAll => "alltoall".into(),
                };
                format!("host logp={} fg={fg} fl={fl} wl={wl}", logp_token(*logp))
            }
            Work::Route {
                logp,
                h,
                scheme,
                seed,
            } => {
                let scheme = match scheme {
                    Scheme::Network => "network",
                    Scheme::Columnsort => "columnsort",
                };
                format!(
                    "route logp={} h={h} scheme={scheme} seed={seed}",
                    logp_token(*logp)
                )
            }
            Work::RouteBig { logp, h, seed } => {
                format!("route-big logp={} h={h} seed={seed}", logp_token(*logp))
            }
            Work::Superstep { logp, strategy, wl } => {
                let strategy = match strategy {
                    Strategy::Offline => "offline".to_string(),
                    Strategy::Randomized { slack } => format!("randomized:{slack}"),
                    Strategy::Deterministic => "deterministic".to_string(),
                };
                let wl = match wl {
                    SuperWl::Mod7Fan => "mod7fan",
                };
                format!(
                    "superstep logp={} strategy={strategy} wl={wl}",
                    logp_token(*logp)
                )
            }
            Work::Conformance { sim, p, h, seed } => {
                format!("conformance sim={sim} p={p} h={h} seed={seed}")
            }
            Work::Stack { net, rounds, seed } => {
                format!("stack net={net} rounds={rounds} seed={seed}")
            }
            Work::Sort { p, n, g, l, seed } => {
                format!("sort p={p} n={n} g={g} l={l} seed={seed}")
            }
            Work::Stream {
                p,
                n,
                window,
                g,
                l,
                seed,
            } => {
                format!("stream p={p} n={n} window={window} g={g} l={l} seed={seed}")
            }
            Work::Bsf {
                workers,
                units,
                tt,
                tw,
                ts,
                iters,
            } => {
                format!("bsf workers={workers} units={units} tt={tt} tw={tw} ts={ts} iters={iters}")
            }
        }
    }
}

impl ScenarioDoc {
    /// A document with no grids.
    pub fn new(name: impl Into<String>) -> ScenarioDoc {
        ScenarioDoc {
            name: name.into(),
            grids: Vec::new(),
        }
    }

    /// Append a grid.
    #[must_use]
    pub fn grid(mut self, grid: GridDoc) -> ScenarioDoc {
        self.grids.push(grid);
        self
    }

    /// The document as a flat statement list (no separators).
    pub fn statements(&self) -> Vec<String> {
        let mut out = vec![format!("scenario {}", self.name)];
        for grid in &self.grids {
            let mut s = format!("grid exp={} master={}", grid.exp, grid.master);
            if let Some(domain) = &grid.domain {
                let _ = write!(s, " domain={domain}");
            }
            match grid.only {
                Some(OnlyIn::Smoke) => s.push_str(" only=smoke"),
                Some(OnlyIn::Full) => s.push_str(" only=full"),
                None => {}
            }
            if let Some(seed) = grid.seed {
                let _ = write!(s, " seed={seed}");
            }
            if grid.trace {
                s.push_str(" trace");
            }
            if let Some(base) = grid.clock_base {
                let _ = write!(s, " clock_base={base}");
            }
            if let Some(budget) = grid.budget {
                let _ = write!(s, " budget={budget}");
            }
            if let Some(fault) = &grid.fault {
                let _ = write!(s, " fault={fault}");
            }
            out.push(s);
            for cell in &grid.cells {
                let mut s = format!("cell {}", cell.work.statement_fragment());
                if let Some(domain) = &cell.domain {
                    let _ = write!(s, " domain={domain}");
                }
                if let Some(plan) = &cell.plan {
                    let _ = write!(s, " plan={plan}");
                }
                let _ = write!(s, " params={}", quote(&cell.params));
                if cell.force {
                    s.push_str(" force");
                }
                if cell.smoke {
                    s.push_str(" smoke");
                }
                out.push(s);
            }
        }
        out
    }

    /// Multi-line text form (the `.scn` file body).
    pub fn to_text(&self) -> String {
        let mut text = self.statements().join("\n");
        text.push('\n');
        text
    }

    /// One-line round-trip encoding (`;`-separated statements), in the
    /// same spirit as `FaultPlan` and conformance-case repro lines.
    pub fn repro(&self) -> String {
        self.statements().join("; ")
    }
}
