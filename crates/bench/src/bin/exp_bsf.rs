//! E-BSF: the Bulk Synchronous Farm master-worker model.
//!
//! Runs the `scenarios/bsf.scn` grid: the worker-count sweep across the
//! scalability boundary `p* = √(units·t_w / (2·t_t))`, per cell comparing
//! the event-wise simulated farm makespan against the model's closed-form
//! prediction `t_s + 2·p·t_t + ⌈units/p⌉·t_w` and reporting the simulated
//! speedup. In the full sweep the predicted curve must dip at the cell
//! containing `p*` relative to both ends — the model's scalability
//! boundary is visible in the measurements, not just the formula.
//!
//! ```sh
//! cargo run --release -p bvl-bench --bin exp_bsf             # full sweep
//! cargo run --release -p bvl-bench --bin exp_bsf -- --smoke  # CI subset
//! ```

use bvl_bench::{banner, labexp, obs, print_table, scn};

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    banner(if smoke {
        "E-BSF (smoke): the cells bracketing the scalability boundary"
    } else {
        "E-BSF: master-worker farm, predicted vs simulated across p*"
    });

    let lab = labexp::Lab::from_env();
    let scenario = scn::compiled("bsf", smoke);
    let (rep, _) = scn::run_in_lab(&lab, &scenario.grids[0], None);
    eprintln!("[sweep] bsf: {}", rep.summary());
    let rows = labexp::single_rows(rep);
    print_table(
        &["workers", "units", "simulated", "predicted", "ratio", "speedup", "p*"],
        &rows,
    );

    let num = |r: &[String], i: usize| -> f64 { r[i].parse().expect("numeric column") };
    // The audit already enforces simulated ≥ floor, predicted ≥ simulated
    // and speedup ≤ p per row; the binary adds the curve-level check: the
    // full sweep's prediction bottoms out at the p* cell.
    let curve_ok = if smoke {
        true
    } else {
        let pstar = num(&rows[0], 6);
        let at = |i: usize| num(&rows[i], 3);
        let dip = (0..rows.len())
            .min_by(|&a, &b| at(a).total_cmp(&at(b)))
            .expect("non-empty sweep");
        let w = num(&rows[dip], 0);
        w <= 2.0 * pstar && 2.0 * w >= pstar
    };

    obs::Summary::new("exp_bsf")
        .kv("cells", rows.len())
        .kv("curve_ok", curve_ok)
        .f2(
            "best_speedup",
            rows.iter().map(|r| num(r, 5)).fold(f64::NEG_INFINITY, f64::max),
        )
        .emit();

    if !curve_ok {
        eprintln!("exp_bsf: the predicted curve does not dip at the scalability boundary");
        std::process::exit(1);
    }
}
