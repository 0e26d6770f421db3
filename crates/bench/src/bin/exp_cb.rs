//! E-CB: Propositions 1–2 — Combine-and-Broadcast time
//! `T_CB = Θ(L·log p / log(1 + ⌈L/G⌉))`.
//!
//! Measured CB makespans against the formula across `p` and `(L, G)`,
//! including the capacity-1 regime with the paper's timed-slot binary tree.
//! The ratio column should be roughly constant per parameter family — the
//! Θ shape — and Proposition 1 says no stall-free algorithm beats it by
//! more than a constant.

use bvl_bench::{banner, f2, obs, print_table};
use bvl_core::{run_cb, word_combine, TreeShape};
use bvl_exec::RunOptions;
use bvl_logp::{LogpConfig, LogpMachine, LogpParams, Op, Script};
use bvl_model::{Payload, ProcId, Steps};
use bvl_obs::{Span, SpanKind};

fn cb_time(params: LogpParams, seed: u64) -> Steps {
    let values = vec![Payload::word(0, 1); params.p];
    let joins = vec![Steps::ZERO; params.p];
    run_cb(
        params,
        TreeShape::Heap,
        values,
        word_combine(|a, b| a & b),
        &joins,
        &RunOptions::new().seed(seed),
    )
    .expect("CB is stall-free")
    .t_cb
}

fn main() {
    banner("Proposition 2: T_CB vs L log p / log(1 + capacity)");
    let mut rows = Vec::new();
    for (l, o, g) in [(16u64, 1u64, 2u64), (16, 1, 8), (16, 1, 16), (64, 2, 4)] {
        for p in [8usize, 32, 128, 512] {
            let params = LogpParams::new(p, l, o, g).unwrap();
            let t = cb_time(params, 1);
            let formula = (l as f64) * (p as f64).log2()
                / (1.0 + params.capacity() as f64).log2();
            let bound = params.cb_bound();
            rows.push(vec![
                format!("{p}"),
                format!("{l}"),
                format!("{g}"),
                format!("{}", params.capacity()),
                format!("{}", t.get()),
                f2(formula),
                f2(t.get() as f64 / formula),
                f2(bound),
            ]);
        }
    }
    print_table(
        &[
            "p", "L", "G", "cap", "T_CB", "L·lg p/lg(1+cap)", "ratio", "3(L+o) bound",
        ],
        &rows,
    );

    banner("Capacity effect at fixed p = 256, L = 32 (wider tree => faster barrier)");
    let mut rows = Vec::new();
    for g in [2u64, 4, 8, 16, 32] {
        let params = LogpParams::new(256, 32, 1, g).unwrap();
        let t = cb_time(params, 2);
        rows.push(vec![
            format!("{g}"),
            format!("{}", params.capacity()),
            format!("{}", 2usize.max(params.capacity() as usize)),
            format!("{}", t.get()),
            f2(params.cb_bound()),
        ]);
    }
    print_table(&["G", "cap", "tree arity", "T_CB", "bound"], &rows);

    banner("Proposition 1 (optimality, empirically): tree CB vs flat gather+scatter");
    println!("(the flat scheme concentrates p-1 messages on the root — it stalls and");
    println!(" pays Θ(G·p); the tree pays Θ(L log p / log(1+cap)), the lower bound)");
    println!();
    let mut rows = Vec::new();
    for p in [32usize, 128, 512] {
        let params = LogpParams::new(p, 16, 1, 2).unwrap();
        let tree = cb_time(params, 3);
        // Flat: everyone sends to P0; P0 folds and sends the result back.
        let mut programs = vec![Script::new(
            std::iter::repeat_n(Op::Recv, p - 1)
                .chain((1..p).map(|j| Op::Send {
                    dst: ProcId(j as u32),
                    payload: Payload::word(0, 1),
                }))
                .collect::<Vec<_>>(),
        )];
        programs.extend((1..p).map(|_| {
            Script::new([
                Op::Send {
                    dst: ProcId(0),
                    payload: Payload::word(0, 1),
                },
                Op::Recv,
            ])
        }));
        let mut m = LogpMachine::with_config(params, LogpConfig::default(), programs);
        let flat = m.run().expect("flat gather completes").makespan;
        rows.push(vec![
            format!("{p}"),
            format!("{}", tree.get()),
            format!("{}", flat.get()),
            f2(flat.get() as f64 / tree.get() as f64),
        ]);
    }
    print_table(&["p", "tree T_CB", "flat T", "flat/tree"], &rows);

    // Flagged cell: one CB at (p=128, L=16, G=2), its combine/broadcast
    // halves exported as spans (all joins at 0, so the phase boundary is
    // `t_combine` on the absolute clock).
    let params = LogpParams::new(128, 16, 1, 2).unwrap();
    let rep = run_cb(
        params,
        TreeShape::Heap,
        vec![Payload::word(0, 1); params.p],
        word_combine(|a, b| a & b),
        &vec![Steps::ZERO; params.p],
        &RunOptions::new().seed(1),
    )
    .expect("CB is stall-free");
    let registry = obs::capture_registry("exp_cb", 1, params.p);
    registry.span(Span::new(SpanKind::CbCombine, Steps::ZERO, rep.t_combine));
    registry.span(Span::new(SpanKind::CbBroadcast, rep.t_combine, rep.t_cb));
    obs::Summary::new("exp_cb")
        .kv("cell", "cb_p128_L16_G2")
        .kv("makespan", rep.makespan.get())
        .kv("t_cb", rep.t_cb.get())
        .kv("t_combine", rep.t_combine.get())
        .kv("t_broadcast", rep.t_broadcast.get())
        .kv("spans", registry.spans().len())
        .emit();
    obs::write_spans_if_requested(&registry);
}
