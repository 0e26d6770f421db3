//! E-THM1: Theorem 1 — LogP-on-BSP slowdown `O(1 + g/G + ℓ/L)`.
//!
//! Three stall-free LogP workloads (ring rounds, the Karp et al. optimal
//! broadcast schedule, staggered all-to-all) run natively on the LogP
//! machine and hosted on BSP machines whose `(g, ℓ)` are `1×, 2×, 4×` the
//! LogP `(G, L)`. The measured slowdown column should track (within engine
//! constants) the `1 + g/G + ℓ/L` bound, and be flat along the matched
//! diagonal — the paper's "substantial equivalence" claim.
//!
//! The grids are compiled from `scenarios/thm1.scn` (their lowering is
//! pinned by `lab validate`'s recorded digests; the rows come from
//! [`bvl_bench::labexp::thm1`]) and run through the `bvl-lab` scheduler
//! (cached when `BVL_LAB_DIR` is set). The flagged attribution
//! cell is *forced*: it recomputes live on every run, because its enabled
//! registry feeds the cost-attribution SUMMARY and the optional
//! `--trace-out` export. Completed grids pass the Theorem 1 lower-bound
//! audit before printing.

use bvl_bench::labexp::{self, single_rows, thm1};
use bvl_bench::{banner, obs, print_table, scn};
use bvl_obs::Counter;

fn main() {
    let lab = labexp::Lab::from_env();
    let scenario = scn::compiled("thm1", false);
    banner("Theorem 1: slowdown of stall-free LogP hosted on BSP");

    // Cell 0 (ring, matched 1x/1x parameters) is the flagged cell: it runs
    // with this enabled registry, feeding the cost-attribution summary and
    // the optional `--trace-out` export; every other cell pays nothing.
    let captured = obs::capture_registry("exp_thm1", 0, thm1::FLAGGED_P);
    let (rep, att) = scn::run_in_lab(&lab, &scenario.grids[0], Some(&captured));
    eprintln!("[sweep] thm1-scalings: {}", rep.summary());
    print_table(
        &[
            "workload", "p", "g/G,l/L", "native", "hosted", "slowdown", "1+g/G+l/L", "ratio",
        ],
        &single_rows(rep),
    );

    banner("Matched parameters across machine sizes (slowdown should stay flat)");
    let (rep, _) = scn::run_in_lab(&lab, &scenario.grids[1], None);
    eprintln!("[sweep] thm1-sizes: {}", rep.summary());
    print_table(
        &[
            "workload", "p", "g/G,l/L", "native", "hosted", "slowdown", "1+g/G+l/L", "ratio",
        ],
        &single_rows(rep),
    );

    // At `--obs-tier off` the capture registry is disabled, the flagged
    // cell runs unobserved, and there is no attribution — the SUMMARY line
    // says so rather than faking zeros.
    let summary = obs::Summary::new("exp_thm1").kv("cell", "ring_x8_1x/1x");
    match att {
        Some(att) => summary
            .kv("makespan", att.makespan.get())
            .kv("work", att.work.get())
            .kv("comm", att.comm.get())
            .kv("sync", att.sync.get())
            .f4("residual_frac", att.residual_frac())
            .kv("stall_episodes", captured.counter(Counter::StallEpisodes))
            .kv("spans", captured.spans().len())
            .emit(),
        None => summary.kv("obs", "off").emit(),
    }
    obs::write_spans_if_requested(&captured);
}
