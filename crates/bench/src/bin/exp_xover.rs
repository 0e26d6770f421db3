//! E-XOVER: §4.2 sorting-scheme crossover — network sort (AKS role) vs
//! Columnsort (Cubesort role) as r grows.
//!
//! The paper: "for r ≤ 2^√(log p) the AKS-based scheme outperforms the
//! Cubesort-based one; in contrast, when r = p^ε ... TCS = O(Gr + L), which
//! ... improves upon TAKS by a factor O(log p)." With Batcher standing in
//! for AKS the network side carries an extra log p, so the crossover moves
//! left but keeps its shape: constant-round Columnsort wins for large r.
//!
//! Each r is routed independently (all three schemes against the same
//! h-relation), so the rows run as one uncached [`bvl_lab::run_grid`]
//! grid, one cell per r, each with its own `(master, domain, index)` RNG
//! stream.

use bvl_bench::labexp::single_rows;
use bvl_bench::{banner, f2, obs, print_table};
use bvl_core::bsp_on_logp::sortnet::{aks_cost_formula, bitonic_cost_formula};
use bvl_core::{route_deterministic, SortScheme};
use bvl_exec::RunOptions;
use bvl_lab::{run_grid, CellSpec, GridSpec};
use bvl_logp::LogpParams;
use bvl_model::rngutil::SeedStream;
use bvl_model::HRelation;
use bvl_obs::Registry;

fn main() {
    banner("Sorting-phase cost vs r (p = 8, L = 16, o = 1, G = 2)");
    let p = 8usize;
    let params = LogpParams::new(p, 16, 1, 2).unwrap();
    let hs = [2usize, 8, 32, 98, 196, 392];
    let mut grid = GridSpec::new("xover", 77);
    // Cells inherit the process-wide `--obs-tier` flag.
    grid.opts = RunOptions::new().obs(bvl_obs::cli::obs_tier());
    for (i, h) in hs.iter().enumerate() {
        grid = grid.cell(CellSpec::new("xover", i, format!("h={h}")));
    }
    let rep = run_grid(&grid, None, &Registry::disabled(), |cell, mut job| {
        let h = hs[cell.index];
        let rel = HRelation::random_exact(&mut job.rng, p, h);
        let opts = job.opts.seed(3);
        let net = route_deterministic(params, &rel, SortScheme::Network, &opts).expect("net");
        let oe = route_deterministic(params, &rel, SortScheme::NetworkOddEven, &opts).expect("oe");
        let cs_valid = h >= 2 * (p - 1) * (p - 1);
        let cs = if cs_valid {
            Some(route_deterministic(params, &rel, SortScheme::Columnsort, &opts).expect("cs"))
        } else {
            None
        };
        vec![vec![
            format!("{h}"),
            format!("{}", net.t_sort.get()),
            format!("{}", oe.t_sort.get()),
            cs.as_ref()
                .map(|r| r.t_sort.get().to_string())
                .unwrap_or_else(|| "(invalid)".into()),
            f2(bitonic_cost_formula(params.g, params.l, params.o, h as u64, p)),
            f2(aks_cost_formula(params.g, params.l, h as u64, p)),
            cs.as_ref()
                .map(|c| f2(net.t_sort.get() as f64 / c.t_sort.get() as f64))
                .unwrap_or_else(|| "-".into()),
        ]]
    })
    .expect("an uncached grid does no I/O");
    eprintln!("[sweep] xover: {}", rep.summary());
    print_table(
        &[
            "r=h",
            "bitonic t_sort",
            "odd-even t_sort",
            "columnsort t_sort",
            "bitonic formula",
            "AKS formula",
            "net/cs",
        ],
        &single_rows(rep),
    );
    println!();
    println!("(crossover: once Columnsort is valid (r >= 2(p-1)^2 = 98 here) its");
    println!(" constant-round sort beats the log^2 p-round network, and the ratio");
    println!(" grows with r — the paper's large-r O(log p) separation, shifted by");
    println!(" the Batcher-for-AKS substitution)");

    // Flagged cell: one Columnsort route at the largest r, captured so
    // `--trace-out` shows the constant number of ColumnsortRound spans next
    // to the routing cycles.
    let h = 392usize;
    let mut rng = SeedStream::new(77).derive("flagged", 0);
    let rel = HRelation::random_exact(&mut rng, p, h);
    let registry = obs::capture_registry("exp_xover", 77, p);
    let rep = route_deterministic(
        params,
        &rel,
        SortScheme::Columnsort,
        &RunOptions::new().seed(3).registry(&registry),
    )
    .expect("columnsort routes");
    obs::Summary::new("exp_xover")
        .kv("cell", format_args!("columnsort_p{p}_h{h}"))
        .kv("makespan", rep.total.get())
        .kv("t_sort", rep.t_sort.get())
        .kv("sort_rounds", rep.sort_rounds)
        .kv("spans", registry.spans().len())
        .emit();
    obs::write_spans_if_requested(&registry);
}
