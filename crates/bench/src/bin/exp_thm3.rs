//! E-THM3: Theorem 3 — randomized routing of known-degree h-relations:
//! time `βGh` without stalling, with high probability.
//!
//! Measures (a) the empirical β = time/(Gh) across h and p, (b) the stall
//! frequency over many seeded trials (the theorem's failure event), and
//! (c) the worst-case `O(Gh²)` backstop on adversarial hot-spot relations.

use bvl_bench::{banner, f2, f3, obs, print_table};
use bvl_core::slowdown::{stalling_worst_case, theorem3_slack};
use bvl_core::route_randomized;
use bvl_exec::RunOptions;
use bvl_logp::LogpParams;
use bvl_model::rngutil::SeedStream;
use bvl_model::{HRelation, ProcId};

fn main() {
    banner("Theorem 3: randomized routing, beta = time/(G·h) and stall frequency");
    let seeds = SeedStream::new(31);
    let mut rows = Vec::new();
    for p in [16usize, 64] {
        // Capacity 32 = L/G: comfortably >= log p, the theorem's premise.
        let params = LogpParams::new(p, 64, 1, 2).unwrap();
        for h in [8usize, 32, 64, 128] {
            let trials = 20;
            let mut stalls = 0u64;
            let mut beta_sum = 0.0;
            for t in 0..trials {
                let mut rng = seeds.derive("rel", (p * 100_000 + h * 100 + t) as u64);
                let rel = HRelation::random_exact(&mut rng, p, h);
                let rep = route_randomized(params, &rel, 2.0, &RunOptions::new().seed(t as u64))
                    .expect("routes");
                if rep.stalled {
                    stalls += 1;
                }
                beta_sum += rep.beta_measured;
            }
            rows.push(vec![
                format!("{p}"),
                format!("{h}"),
                format!("{}", params.capacity()),
                f2(beta_sum / trials as f64),
                format!("{stalls}/{trials}"),
                f2(theorem3_slack(&params, 1.0)),
            ]);
        }
    }
    print_table(
        &["p", "h", "cap", "beta meas", "stall freq", "paper slack (c2=1)"],
        &rows,
    );
    println!();
    println!("(protocol slack 2.0; the paper's analytic slack column shows how loose");
    println!(" the worst-case Chernoff constant is compared with observed behaviour)");

    banner("Worst case under stalling: hot-spot relations vs the O(Gh^2) backstop");
    let params = LogpParams::new(16, 8, 1, 2).unwrap(); // tight capacity 4
    let mut rows = Vec::new();
    for (senders, k) in [(8usize, 2usize), (15, 2), (15, 4), (15, 8)] {
        let rel = HRelation::hot_spot(16, ProcId(0), senders, k);
        let h = rel.degree() as u64;
        let rep = route_randomized(params, &rel, 2.0, &RunOptions::new().seed(5)).expect("routes");
        rows.push(vec![
            format!("{senders}x{k}"),
            format!("{h}"),
            format!("{}", rep.time.get()),
            format!("{}", stalling_worst_case(&params, h)),
            f3(rep.time.get() as f64 / stalling_worst_case(&params, h) as f64),
            format!("{}", rep.stall_episodes),
        ]);
    }
    print_table(
        &["hot spot", "h", "time", "G·h²", "time/Gh²", "stall episodes"],
        &rows,
    );

    // Flagged cell: one randomized route at (p=16, h=32) re-run with an
    // enabled registry so its batch rounds feed the summary line and the
    // optional `--trace-out` export.
    let params = LogpParams::new(16, 64, 1, 2).unwrap();
    let mut rng = SeedStream::new(31).derive("flagged", 0);
    let rel = HRelation::random_exact(&mut rng, 16, 32);
    let registry = obs::capture_registry("exp_thm3", 31, 16);
    let rep = route_randomized(params, &rel, 2.0, &RunOptions::new().seed(7).registry(&registry))
        .expect("routes");
    obs::Summary::new("exp_thm3")
        .kv("cell", "rand_p16_h32")
        .kv("makespan", rep.time.get())
        .kv("batches", rep.batches)
        .kv("leftover", rep.leftover)
        .kv("stall_episodes", rep.stall_episodes)
        .f2("beta", rep.beta_measured)
        .kv("spans", registry.spans().len())
        .emit();
    obs::write_spans_if_requested(&registry);
}
