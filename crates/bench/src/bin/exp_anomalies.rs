//! E-ANOM: the §2.2 constraint anomalies, executed.
//!
//! * `G = 1`: L simultaneous senders to one node are all accepted without
//!   stalling and delivered within L — a one-message-per-step burst into a
//!   single node. `G = 2` on the same pattern immediately stalls instead.
//! * `G > L`: the paper's periodic two-sender schedule never violates the
//!   capacity constraint yet grows the receiver's input buffer without
//!   bound; the control row (`G = L`) stays flat.

use bvl_bench::{banner, obs, print_table};
use bvl_core::anomalies::{gap_exceeds_latency_anomaly, gap_one_anomaly};
use bvl_logp::{LogpConfig, LogpMachine, LogpParams, Op, Script};
use bvl_model::{Payload, ProcId};
use bvl_exec::RunOptions;

fn main() {
    banner("G = 1 anomaly: L senders -> one destination, simultaneously");
    let mut rows = Vec::new();
    for (l, g) in [(8u64, 1u64), (8, 2), (16, 1), (16, 2)] {
        let rep = gap_one_anomaly(l, 1, g, 1).expect("runs");
        rows.push(vec![
            format!("{l}"),
            format!("{g}"),
            format!("{}", rep.senders),
            format!("{}", rep.stalled),
            format!("{}", rep.all_within_latency),
            format!("{}", rep.max_deliveries_per_step),
        ]);
    }
    print_table(
        &[
            "L", "G", "senders", "stalled", "all within L", "max deliveries/step",
        ],
        &rows,
    );
    println!();
    println!("(G=1 rows: no stall, all within L, burst = senders — the 'strong");
    println!(" performance requirement' the paper rules out by requiring G >= 2)");

    banner("G > L anomaly: receiver buffer growth under the paper's periodic schedule");
    let mut rows = Vec::new();
    let mut worst_buffer = 0usize;
    for n in [10u64, 20, 40, 80] {
        let rep = gap_exceeds_latency_anomaly(2, 6, n, 1).expect("runs");
        worst_buffer = worst_buffer.max(rep.peak_buffer);
        rows.push(vec![
            "G=6 > L=2".into(),
            format!("{n}"),
            format!("{}", rep.stall_free),
            format!("{}", rep.delivered),
            format!("{}", rep.peak_buffer),
        ]);
    }
    print_table(
        &["params", "msgs/sender", "stall-free", "delivered", "peak buffer"],
        &rows,
    );
    println!();
    println!("(peak buffer grows ~ n/2: unbounded buffers, hence the G <= L rule;");
    println!(" with G <= L the same schedule keeps the buffer constant — verified");
    println!(" in the anomalies test suite)");

    // Flagged cell: the G = 1 burst (L senders -> P0) re-run directly with a
    // traced, registry-fed machine so `--trace-out` shows the simultaneous
    // deliveries the anomaly is about.
    let l = 16u64;
    // G = 1 is exactly what §2.2 rules out, so it needs the unchecked
    // constructor — same as the anomaly harness itself.
    let params = LogpParams::new_unchecked(l as usize + 1, l, 1, 1);
    let mut scripts = vec![Script::new(vec![Op::Recv; l as usize])];
    scripts.extend((1..=l).map(|i| {
        Script::new([Op::Send {
            dst: ProcId(0),
            payload: Payload::word(0, i as i64),
        }])
    }));
    let config = LogpConfig {
        forbid_stalling: false,
        trace: true,
        ..LogpConfig::default()
    };
    let mut machine = LogpMachine::with_config(params, config, scripts);
    let registry = obs::capture_registry("exp_anomalies", 0, params.p);
    machine.instrument(&RunOptions::new().registry(&registry));
    let rep = machine.run().expect("burst completes");
    obs::Summary::new("exp_anomalies")
        .kv("cell", "gap1_burst_L16")
        .kv("makespan", rep.makespan.get())
        .kv("stall_episodes", rep.stall_episodes)
        .kv("delivered", rep.delivered)
        .kv("burst_max_buffer", rep.max_buffer())
        .kv("periodic_peak_buffer", worst_buffer)
        .emit();
    obs::write_trace_if_requested(machine.trace(), &registry);
}
