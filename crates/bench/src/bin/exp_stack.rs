//! E-STACK: composable simulation stacks grounded on Table 1 networks.
//!
//! The paper's program is a tower: LogP and BSP are abstractions of a
//! point-to-point network whose parameters (`γ`, `δ` per Table 1) are
//! *measured*, and Theorems 1–3 relate the two abstractions to each other.
//! This experiment runs the full tower on one guest workload per topology:
//!
//! 1. **Measure** the topology's `(γ̂, δ̂)` by routing random h-relations
//!    (§5), then round them into a valid LogP quadruple `(p, L̂, 1, Ĝ)`.
//! 2. **Abstract run** — the guest on a `LogpMachine` over the pure
//!    latency-`L̂` medium (`PolicyMedium`): the LogP model's account.
//! 3. **Grounded run** — the *same* guest with its medium set to the
//!    network-backed `NetMedium`: per-link store-and-forward contention on
//!    the real topology. The ratio `grounded/abstract` is how faithfully
//!    LogP(`Ĝ`, `L̂`) abstracts this network for this traffic.
//! 4. **Hosted run** — the guest simulated on a BSP(`g=Ĝ`, `ℓ=L̂`) machine
//!    (Theorem 1). The measured slowdown is compared against the theorem's
//!    `1 + g/Ĝ + ℓ/L̂` bound evaluated at the measured parameters.
//!
//! The tower lives in [`bvl_bench::labexp::stack`]; the grid is declared
//! only in `scenarios/stack.scn` and runs through the `bvl-lab` scheduler
//! (cached when `BVL_LAB_DIR` is set; the butterfly cell is forced so its
//! registry carries real spans for `--trace-out`). One `SUMMARY` line per
//! topology, rebuilt from the cached row so warm and cold runs are
//! bit-identical.
//! The completed grid passes the Theorem 1 lower-bound audit before
//! printing. Run via `scripts/regen_experiments.sh` or:
//!
//! ```sh
//! cargo run --release -p bvl-bench --bin exp_stack
//! ```

use bvl_bench::labexp::{self, stack};
use bvl_bench::{obs, scn};

fn main() {
    println!("E-STACK: LogP guest over measured Table 1 networks (abstract vs grounded vs Theorem 1)");
    let lab = labexp::Lab::from_env();
    let scenario = scn::compiled("stack", false);
    let grid = &scenario.grids[0];

    // Two Table 1 rows with equal processor counts (p = 32): the multi-port
    // hypercube (γ = Θ(1), δ = Θ(log p)) and the butterfly (γ = δ = Θ(log p)).
    // The forced butterfly cell attaches this registry so `--trace-out`
    // exports the grounded/hosted span stream.
    let registry = obs::capture_registry("exp_stack", 0, stack::FLAGGED_P);
    let (rep, _) = scn::run_in_lab(&lab, grid, Some(&registry));
    eprintln!("[sweep] stack: {}", rep.summary());

    for rows in &rep.rows {
        let r = &rows[0];
        obs::Summary::new("exp_stack")
            .kv("topology", &r[0])
            .kv("p", &r[1])
            .kv("gamma", &r[2])
            .kv("delta", &r[3])
            .kv("r2", &r[4])
            .kv("G", &r[5])
            .kv("L", &r[6])
            .kv("t_abstract", &r[7])
            .kv("t_grounded", &r[8])
            .kv("grounding_ratio", &r[9])
            .kv("t_hosted_bsp", &r[10])
            .kv("thm1_slowdown", &r[11])
            .kv("thm1_bound", &r[12])
            .kv("within_2x_bound", &r[13])
            .emit();
        // Theorem 1's bound suppresses a small constant (the host superstep
        // is ⌈L/2⌉ guest cycles; acquisition serialization adds a factor
        // ≤ 2) — the audit enforces the floor, this asserts the ceiling.
        assert!(
            r[13] == "true",
            "{}: Theorem 1 slowdown {} exceeds 2x bound {}",
            r[0],
            r[11],
            r[12]
        );
    }
    obs::write_spans_if_requested(&registry);
}
