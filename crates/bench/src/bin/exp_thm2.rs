//! E-THM2: Theorem 2 — BSP-on-LogP superstep simulation with the
//! deterministic sorting-based router: measured slowdown vs `S(L, G, p, h)`.
//!
//! For random exact h-relations across an h sweep, the per-superstep cost
//! `T = w + T_synch + T_rout(h)` is measured phase by phase and divided by
//! the native BSP cost `w + G·h + L`. The paper predicts the quotient is
//! `O(log p)` for small h and flattens towards `O(1)` as `h` grows — the
//! crossover the `S` column exhibits.
//!
//! The grids are compiled from `scenarios/thm2.scn` (their lowering is
//! pinned by `lab validate`'s recorded digests; the rows come from
//! [`bvl_bench::labexp::thm2`]) and run through the `bvl-lab` scheduler
//! (cached when `BVL_LAB_DIR` is set). The two span-exporting
//! cells — the `(16, 8)` phase breakdown and the deterministic strategy —
//! are *forced*: they recompute live so their registries carry real spans
//! for the SUMMARY line and `--trace-out`. Completed grids pass the
//! `(h-1)·G + L` routing lower-bound audit before printing.

use bvl_bench::labexp::{self, flat_rows, single_rows, thm2};
use bvl_bench::{banner, obs, print_table, scn};

fn main() {
    let lab = labexp::Lab::from_env();
    let scenario = scn::compiled("thm2", false);

    banner("Theorem 2: deterministic h-relation routing, phase breakdown");
    // The (p=16, h=8) cell (index 3) is flagged: its routing phases are
    // captured as spans for the summary line and `--trace-out`.
    let cell_registry = obs::capture_registry("exp_thm2", 0, thm2::FLAGGED_P);
    let (rep, _) = scn::run_in_lab(&lab, &scenario.grids[0], Some(&cell_registry));
    eprintln!("[sweep] thm2-cells: {}", rep.summary());
    print_table(
        &[
            "p", "h", "t_r", "t_sort", "t_s", "t_cycles", "total", "Gh+L", "S meas", "S pred",
        ],
        &single_rows(rep),
    );
    println!();
    println!("(S meas uses the Batcher network — an extra log p vs the AKS bound —");
    println!(" so the small-h rows sit above S pred by about that factor; the");
    println!(" downward trend in h, the paper's crossover, is the result.)");

    banner("Large-h regime: Columnsort (Cubesort role) makes the sort constant-round");
    let (rep, _) = scn::run_in_lab(&lab, &scenario.grids[1], None);
    eprintln!("[sweep] thm2-big: {}", rep.summary());
    print_table(
        &["h", "scheme", "comm rounds", "t_sort", "total", "S meas"],
        &flat_rows(rep),
    );

    banner("Full superstep simulation: one BSP workload under each routing strategy");
    // The deterministic strategy (index 2) is the flagged cell of this
    // sweep: its full superstep decomposition is captured as spans and its
    // measured phases are mapped onto the Theorem 2 cost terms.
    let strat_registry = obs::capture_registry("exp_thm2", 1, thm2::FLAGGED_P);
    let (rep, att) = scn::run_in_lab(&lab, &scenario.grids[2], Some(&strat_registry));
    eprintln!("[sweep] thm2-strategies: {}", rep.summary());
    print_table(
        &[
            "strategy", "supersteps", "h(0)", "t_synch(0)", "t_rout(0)", "total", "native",
            "slowdown",
        ],
        &single_rows(rep),
    );

    // At `--obs-tier off` the capture registries are disabled and the
    // flagged strategy runs unobserved — the SUMMARY line says so rather
    // than faking zeros.
    let summary = obs::Summary::new("exp_thm2").kv("cell", "deterministic_p16");
    match att {
        Some(att) => summary
            .kv("makespan", att.makespan.get())
            .kv("work", att.work.get())
            .kv("comm", att.comm.get())
            .kv("sync", att.sync.get())
            .kv("other", att.other.get())
            .f4("residual_frac", att.residual_frac())
            .kv("cell_spans", cell_registry.spans().len())
            .kv("spans", strat_registry.spans().len())
            .emit(),
        None => summary.kv("obs", "off").emit(),
    }
    // `--trace-out` exports the flagged full-superstep run (the richest
    // span set: supersteps, CB split, sort rounds, routing cycles).
    obs::write_spans_if_requested(&strat_registry);
}
