//! Pins of what the shipped scenarios compute. Every shipped scenario's
//! smoke grids run through the scenario path (`scn::run_work` under
//! `bvl_lab::run_grid`), pass the lower-bound audit, and must reproduce
//! their recorded row digests; the scenario path must also be invariant
//! under the engines' shard count. `lab validate` and the `scn` unit tests
//! pin the static half: each lowering's grid digest (exp, master, options,
//! cells, store keys).
//!
//! The row digests were recorded from the code-defined grids and row
//! builders that the `.scn` documents replaced, and checked against both
//! before those grids were deleted. A digest may only be updated together
//! with a documented change to what that scenario's cells compute.

use bvl_bench::scn;
use bvl_lab::{run_grid, GridReport, GridSpec};
use bvl_obs::Registry;
use bvl_scenario::CompiledGrid;
use std::fmt::Write as _;

fn scenario_report(grid: &CompiledGrid) -> GridReport {
    let registry = Registry::disabled();
    run_grid(&grid.spec, None, &registry, |cell, job| {
        scn::run_work(scn::work_for(grid, cell), cell, job, None).0
    })
    .expect("scenario grid runs")
}

/// FNV-1a, 64-bit: a stable digest with no dependency on the std hasher.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The rows of one smoke grid, one line per cell.
fn render(out: &mut String, spec: &GridSpec, rows: &[Vec<Vec<String>>]) {
    for (cell, rows) in spec.cells.iter().zip(rows) {
        writeln!(out, "{} {}[{}] {rows:?}", spec.exp, cell.domain, cell.index).unwrap();
    }
}

/// The FNV-1a digest of every shipped scenario's smoke rows, in
/// `scn::SHIPPED` order.
const RECORDED_SMOKE_ROWS: [(&str, u64); 9] = [
    ("table1", 0x927ed417557e6693),
    ("thm1", 0x1b3e1ac3f1550ce6),
    ("thm2", 0x19619b2265f13d1c),
    ("faults", 0xbc8b4a30ced69788),
    ("stack", 0x5f53c1fdac7e8ae0),
    ("scaling", 0xca851a9ebb6b4ab4),
    ("sort", 0x05d48e656829258a),
    ("stream", 0x423c741286947df0),
    ("bsf", 0xf0c7a4a11d46fab0),
];

#[test]
fn shipped_smoke_rows_match_their_recorded_digests() {
    let mut report = String::new();
    let mut mismatches = 0;
    for ((name, _), (recorded_name, want)) in scn::SHIPPED.iter().zip(RECORDED_SMOKE_ROWS) {
        assert_eq!(*name, recorded_name, "table order");
        let mut text = String::new();
        for grid in &scn::compiled(name, true).grids {
            let rep = scenario_report(grid);
            let violations = scn::audit(grid, &rep.rows);
            assert!(violations.is_empty(), "{name}: audit fired: {violations:?}");
            render(&mut text, &grid.spec, &rep.rows);
        }
        let got = fnv64(text.as_bytes());
        if got != want {
            mismatches += 1;
        }
        writeln!(report, "    ({name:?}, {got:#018x}),").unwrap();
    }
    assert_eq!(mismatches, 0, "digests diverged; this run got:\n{report}");
}

#[test]
fn scenario_rows_are_invariant_under_shard_count() {
    let compiled = scn::compiled("thm1", true);
    for grid in &compiled.grids {
        let base = scenario_report(grid);
        let registry = Registry::disabled();
        let mut sharded = grid.spec.clone();
        sharded.opts = sharded.opts.clone().shards(4);
        let rep = run_grid(&sharded, None, &registry, |cell, job| {
            scn::run_work(scn::work_for(grid, cell), cell, job, None).0
        })
        .expect("sharded grid runs");
        assert_eq!(base.rows, rep.rows, "shards=4 moved grid '{}'", grid.spec.exp);
    }
}
