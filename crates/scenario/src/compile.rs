//! Lowering: [`ScenarioDoc`] → the `bvl_lab` grid vocabulary.
//!
//! `compile` turns a document into [`bvl_lab::GridSpec`]/[`bvl_lab::CellSpec`]
//! stacks plus the per-cell [`Work`] items a runner dispatches on. The
//! lowering is key-preserving by construction: domain, index, params, plan
//! and the canonical `RunOptions` string land in the `CellSpec` verbatim,
//! so a document's content addresses — and therefore its warm-cache hits —
//! are a function of its text alone.
//!
//! **Smoke semantics.** A grid with `only=full` is dropped from smoke
//! compiles (and vice versa). Within a kept grid, a smoke compile keeps a
//! cell iff it is marked `smoke` (all cells, for an `only=smoke` grid).
//! Either way a cell's RNG-lane index is its position in the *full*
//! declared list, so filtered grids keep their streams and share store
//! keys with the full run.

use std::fmt;
use std::sync::Arc;

use bvl_exec::RunOptions;
use bvl_lab::jsonio::clip;
use bvl_lab::{CellSpec, CodeFingerprint, GridSpec};
use bvl_model::Steps;

use crate::doc::{OnlyIn, ScenarioDoc, Work};

/// A lowering error (bad document structure, not bad syntax).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError(pub String);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// One lowered grid: the scheduler spec plus the work item behind each cell
/// (`work[i]` drives `spec.cells[i]`).
#[derive(Clone, Debug)]
pub struct CompiledGrid {
    /// The grid as `bvl_lab::run_grid` consumes it.
    pub spec: GridSpec,
    /// The typed work per cell, in `spec.cells` order.
    pub work: Vec<Work>,
}

/// A fully lowered scenario.
#[derive(Clone, Debug)]
pub struct CompiledScenario {
    /// Scenario name from the document header.
    pub name: String,
    /// The kept grids, in declaration order.
    pub grids: Vec<CompiledGrid>,
}

impl CompiledScenario {
    /// Total cell count across grids.
    pub fn cells(&self) -> usize {
        self.grids.iter().map(|g| g.spec.cells.len()).sum()
    }
}

/// Lower `doc` for a smoke or full run.
pub fn compile(doc: &ScenarioDoc, smoke: bool) -> Result<CompiledScenario, CompileError> {
    let mut grids = Vec::new();
    for grid in &doc.grids {
        match (grid.only, smoke) {
            (Some(OnlyIn::Full), true) | (Some(OnlyIn::Smoke), false) => continue,
            _ => {}
        }

        let mut opts = RunOptions::new();
        if let Some(seed) = grid.seed {
            opts = opts.seed(seed);
        }
        if grid.trace {
            opts = opts.traced();
        }
        if let Some(base) = grid.clock_base {
            opts = opts.at(Steps(base));
        }
        if let Some(budget) = grid.budget {
            opts = opts.budget(budget);
        }
        if let Some(plan) = &grid.fault {
            opts = opts.faults(Arc::new(plan.clone()));
        }

        let mut spec = GridSpec::new(grid.exp.clone(), grid.master);
        spec.opts = opts;
        let mut work = Vec::new();
        for (index, cell) in grid.cells.iter().enumerate() {
            if smoke && !(cell.smoke || grid.only == Some(OnlyIn::Smoke)) {
                continue;
            }
            if smoke && cell.force {
                return Err(CompileError(format!(
                    "grid '{}' cell {index}: forced cells cannot run in smoke \
                     (forced means live + registry-captured; smoke grids must be cacheable)",
                    clip(&grid.exp)
                )));
            }
            let domain = cell
                .domain
                .as_deref()
                .or(grid.domain.as_deref())
                .ok_or_else(|| {
                    CompileError(format!(
                        "grid '{}' cell {index}: no domain (set grid domain= or cell domain=)",
                        clip(&grid.exp)
                    ))
                })?;
            let mut cs = CellSpec::new(domain, index, cell.params.clone());
            if let Some(plan) = &cell.plan {
                cs = cs.plan(plan.to_string());
            }
            if cell.force {
                cs = cs.forced();
            }
            spec = spec.cell(cs);
            work.push(cell.work.clone());
        }
        if spec.cells.is_empty() {
            continue;
        }
        grids.push(CompiledGrid { spec, work });
    }
    Ok(CompiledScenario {
        name: doc.name.clone(),
        grids,
    })
}

/// A content digest of a lowered grid: experiment, master seed and every
/// cell's store key (which already folds in domain, index, params, plan and
/// the canonical options) plus its force flag. Two grids with equal digests
/// request byte-identical work from the scheduler — `lab validate` checks
/// the shipped scenarios against recorded digests. Keys are taken under a
/// fixed code fingerprint, so a recorded digest moves with the grid, never
/// with the public-API inventory.
pub fn grid_digest(spec: &GridSpec) -> String {
    let code = CodeFingerprint::from_parts("grid_digest", "fixed");
    let master = spec.master.to_string();
    let mut owned: Vec<(String, String)> = vec![
        ("exp".into(), spec.exp.clone()),
        ("master".into(), master),
        ("opts".into(), spec.opts.canonical()),
    ];
    for cell in &spec.cells {
        owned.push((
            format!("cell{}", cell.index),
            format!("{} force={}", spec.key_of(&code, cell), cell.force),
        ));
    }
    let pairs: Vec<(&str, &str)> = owned
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    bvl_lab::Digest::of(&pairs).hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{CellDoc, GridDoc, View};
    use crate::topo::Net;
    use bvl_net::table1::Family;
    use bvl_net::PortMode;

    fn cell(i: u64, smoke: bool, force: bool) -> CellDoc {
        let mut c = CellDoc::new(
            Work::Measure {
                net: Net::Hypercube(3),
                mode: PortMode::Multi,
                seed: i,
                view: View::Main {
                    family: Family::HypercubeMulti,
                },
            },
            format!("cell {i}"),
        );
        if smoke {
            c = c.smoke();
        }
        if force {
            c = c.forced();
        }
        c
    }

    #[test]
    fn smoke_filter_preserves_full_list_indices() {
        let doc = ScenarioDoc::new("s").grid(
            GridDoc::new("e", 1)
                .domain("d")
                .cell(cell(0, false, false))
                .cell(cell(1, true, false))
                .cell(cell(2, false, false))
                .cell(cell(3, true, false)),
        );
        let full = compile(&doc, false).unwrap();
        assert_eq!(full.grids[0].spec.cells.len(), 4);
        let smoke = compile(&doc, true).unwrap();
        let idx: Vec<usize> = smoke.grids[0].spec.cells.iter().map(|c| c.index).collect();
        assert_eq!(idx, vec![1, 3], "smoke keeps the declared RNG lanes");
    }

    #[test]
    fn only_gates_whole_grids_and_empty_grids_drop() {
        let doc = ScenarioDoc::new("s")
            .grid(
                GridDoc::new("full-only", 1)
                    .domain("d")
                    .only(OnlyIn::Full)
                    .cell(cell(0, false, false)),
            )
            .grid(
                GridDoc::new("smoke-only", 2)
                    .domain("d")
                    .only(OnlyIn::Smoke)
                    .cell(cell(0, false, false)),
            )
            .grid(GridDoc::new("never-smoke", 3).domain("d").cell(cell(0, false, false)));
        let full = compile(&doc, false).unwrap();
        assert_eq!(
            full.grids.iter().map(|g| g.spec.exp.as_str()).collect::<Vec<_>>(),
            ["full-only", "never-smoke"]
        );
        let smoke = compile(&doc, true).unwrap();
        assert_eq!(
            smoke.grids.iter().map(|g| g.spec.exp.as_str()).collect::<Vec<_>>(),
            ["smoke-only"],
            "only=smoke keeps all cells; unmarked grids with no smoke cells drop"
        );
        assert_eq!(smoke.grids[0].spec.cells.len(), 1);
    }

    #[test]
    fn forced_cells_are_rejected_in_smoke() {
        let doc = ScenarioDoc::new("s").grid(
            GridDoc::new("e", 1)
                .domain("d")
                .cell(cell(0, true, true)),
        );
        assert!(compile(&doc, false).is_ok());
        assert!(compile(&doc, true).is_err());
    }

    #[test]
    fn missing_domain_is_an_error() {
        let doc = ScenarioDoc::new("s").grid(GridDoc::new("e", 1).cell(cell(0, false, false)));
        let e = compile(&doc, false).unwrap_err();
        assert!(e.to_string().contains("no domain"), "{e}");
    }

    #[test]
    fn grid_digest_reflects_every_key_field() {
        let base = || {
            GridDoc::new("e", 1)
                .domain("d")
                .cell(cell(0, false, false))
        };
        let digest = |doc: &ScenarioDoc| {
            grid_digest(&compile(doc, false).unwrap().grids[0].spec)
        };
        let d0 = digest(&ScenarioDoc::new("s").grid(base()));
        assert_eq!(d0, digest(&ScenarioDoc::new("other-name").grid(base())));

        let mut renamed = base();
        renamed.exp = "e2".into();
        assert_ne!(d0, digest(&ScenarioDoc::new("s").grid(renamed)));

        let mut reseeded = base();
        reseeded.seed = Some(9);
        assert_ne!(d0, digest(&ScenarioDoc::new("s").grid(reseeded)));

        let mut reparam = base();
        reparam.cells[0].params = "cell X".into();
        assert_ne!(d0, digest(&ScenarioDoc::new("s").grid(reparam)));
    }
}
