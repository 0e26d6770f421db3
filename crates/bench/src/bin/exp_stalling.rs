//! E-STALL: the stalling regime (§2.2 discussion and §3).
//!
//! (a) Hot-spot drain rate approaches the bandwidth limit `1/G` — the
//! paper's observation that "the LogP performance model would actually
//! encourage the use of stalling" for reduction-to-one-node patterns.
//! (b) Hosting *stalling* programs on BSP via the naive Theorem 1 extension
//! loses the per-cycle `h ≤ ⌈L/G⌉` bound; measured slowdown vs the
//! improved `O(((ℓ+g)/G)·log p)` preprocessing bound of §3.

use bvl_bench::{banner, f2, f3, obs, print_table};
use bvl_bsp::BspParams;
use bvl_core::stalling::{hot_spot_study, stalling_on_bsp};
use bvl_logp::{LogpConfig, LogpMachine, LogpParams, Op, Script};
use bvl_model::{Payload, ProcId};
use bvl_exec::RunOptions;

fn main() {
    banner("Hot-spot throughput under the Stalling Rule (target drain vs 1/G)");
    let params = LogpParams::new(16, 8, 1, 2).unwrap();
    let mut rows = Vec::new();
    for (senders, k) in [(2usize, 1usize), (4, 2), (8, 4), (15, 4), (15, 8)] {
        let rep = hot_spot_study(params, senders, k, 1).expect("runs");
        rows.push(vec![
            format!("{senders}x{k}"),
            format!("{}", rep.delivered),
            format!("{}", rep.makespan.get()),
            f3(rep.drain_rate),
            f3(1.0 / params.g as f64),
            format!("{}", rep.stall_episodes),
            f2(rep.mean_latency),
        ]);
    }
    print_table(
        &[
            "senders x k", "msgs", "makespan", "drain rate", "1/G", "stalls", "mean latency",
        ],
        &rows,
    );
    println!();
    println!("(as load grows the drain rate converges to the bandwidth limit 1/G");
    println!(" while individual latency degrades — both §2.2 predictions)");

    banner("Hosting stalling LogP programs on BSP (naive Theorem 1 extension)");
    let mut rows = Vec::new();
    for p in [8usize, 16, 32] {
        let logp = LogpParams::new(p, 8, 1, 2).unwrap();
        let bsp = BspParams::new(p, 2, 8).unwrap();
        let rep = stalling_on_bsp(logp, bsp, p - 1, 4, 2).expect("runs");
        rows.push(vec![
            format!("{p}"),
            format!("{}", rep.native.get()),
            format!("{}", rep.hosted.get()),
            f2(rep.slowdown),
            f2(rep.improved_bound_per_cycle),
        ]);
    }
    print_table(
        &["p", "native (stalling)", "hosted BSP", "slowdown", "§3 bound/cycle"],
        &rows,
    );

    // Flagged cell: the 15x8 hot spot re-run with an enabled registry and an
    // event trace, so `--trace-out` exports the full stalling picture
    // (deliveries as instants, stall windows as spans).
    let params = LogpParams::new(16, 8, 1, 2).unwrap();
    let mut scripts = vec![Script::new(vec![Op::Recv; 15 * 8])];
    scripts.extend((1..16).map(|i| {
        Script::new((0..8).map(move |q| Op::Send {
            dst: ProcId(0),
            payload: Payload::word(q as u32, i as i64),
        }))
    }));
    let config = LogpConfig {
        forbid_stalling: false,
        trace: true,
        ..LogpConfig::default()
    };
    let mut machine = LogpMachine::with_config(params, config, scripts);
    let registry = obs::capture_registry("exp_stalling", 0, 16);
    machine.instrument(&RunOptions::new().registry(&registry));
    let rep = machine.run().expect("hot spot completes");
    obs::Summary::new("exp_stalling")
        .kv("cell", "hot_spot_15x8")
        .kv("makespan", rep.makespan.get())
        .kv("stall_episodes", rep.stall_episodes)
        .kv("stall_steps", rep.total_stall.get())
        .kv("max_buffer", rep.max_buffer())
        .kv("delivered", rep.delivered)
        .kv("spans", registry.spans().len())
        .emit();
    obs::write_trace_if_requested(machine.trace(), &registry);
}
