//! E-PART: §6 partitionability — LogP tenants on disjoint processors do not
//! interfere; BSP tenants share every barrier.

use bvl_bench::{banner, f2, obs, print_table};
use bvl_bsp::{BspParams, FnProcess, Status};
use bvl_core::partition::{bsp_coschedule, logp_coschedule};
use bvl_logp::{LogpConfig, LogpMachine, LogpParams, Op, Script};
use bvl_model::{Payload, ProcId};
use bvl_exec::RunOptions;

fn logp_tenant(rounds: u64, compute: u64) -> impl FnMut(usize) -> Vec<Script> {
    move |p: usize| {
        (0..p)
            .map(|i| {
                let mut ops = vec![Op::Compute(compute)];
                for r in 0..rounds {
                    ops.push(Op::Send {
                        dst: ProcId(((i + 1) % p) as u32),
                        payload: Payload::word(r as u32, i as i64),
                    });
                    ops.push(Op::Recv);
                }
                Script::new(ops)
            })
            .collect()
    }
}

fn bsp_tenant(rounds: u64, compute: u64) -> impl FnMut(usize) -> Vec<FnProcess<i64>> {
    move |p: usize| {
        let _ = p;
        (0..p)
            .map(|_| {
                FnProcess::new(0i64, move |acc, ctx| {
                    if ctx.superstep_index() > 0 {
                        *acc += ctx.recv().map(|m| m.payload.expect_word()).unwrap_or(0);
                    }
                    if ctx.superstep_index() < rounds {
                        ctx.charge(compute);
                        let right = ProcId(((ctx.me().0 as usize + 1) % ctx.p()) as u32);
                        ctx.send(right, Payload::word(0, 1));
                        Status::Continue
                    } else {
                        Status::Halt
                    }
                })
            })
            .collect()
    }
}

fn main() {
    banner("LogP: two tenants on disjoint halves of one machine (p = 16)");
    let logp = LogpParams::new(16, 8, 1, 2).unwrap();
    let mut rows = Vec::new();
    let mut logp_max_interf = 0.0f64;
    for (name_a, ra, ca, name_b, rb, cb) in [
        ("light (1 round)", 1u64, 0u64, "heavy (8 rounds + compute)", 8u64, 400u64),
        ("light", 1, 0, "light", 1, 0),
        ("heavy", 8, 400, "heavy", 8, 400),
    ] {
        let rep = logp_coschedule(logp, logp_tenant(ra, ca), logp_tenant(rb, cb), 1).unwrap();
        let (ia, ib) = rep.interference();
        logp_max_interf = logp_max_interf.max(ia).max(ib);
        rows.push(vec![
            format!("{name_a} + {name_b}"),
            format!("{}", rep.solo_a.get()),
            format!("{}", rep.tenant_a.get()),
            f2(ia),
            format!("{}", rep.solo_b.get()),
            format!("{}", rep.tenant_b.get()),
            f2(ib),
        ]);
    }
    print_table(
        &["tenants", "A solo", "A coshed", "A interf", "B solo", "B coshed", "B interf"],
        &rows,
    );
    println!();
    println!("(interference exactly 1.00 in every pairing: LogP executions on");
    println!(" disjoint processors are independent — natural multiuser mode)");

    banner("BSP: the same tenant pairings through one global barrier");
    let bsp = BspParams::new(16, 2, 16).unwrap();
    let mut rows = Vec::new();
    let mut bsp_max_interf = 0.0f64;
    for (name_a, ra, ca, name_b, rb, cb) in [
        ("light (1 round)", 1u64, 0u64, "heavy (8 rounds + compute)", 8u64, 400u64),
        ("light", 1, 0, "light", 1, 0),
        ("heavy", 8, 400, "heavy", 8, 400),
    ] {
        let rep = bsp_coschedule(bsp, bsp_tenant(ra, ca), bsp_tenant(rb, cb)).unwrap();
        let (ia, ib) = rep.interference();
        bsp_max_interf = bsp_max_interf.max(ia).max(ib);
        rows.push(vec![
            format!("{name_a} + {name_b}"),
            format!("{}", rep.solo_a.get()),
            format!("{}", rep.tenant_a.get()),
            f2(ia),
            format!("{}", rep.solo_b.get()),
            format!("{}", rep.tenant_b.get()),
            f2(ib),
        ]);
    }
    print_table(
        &["tenants", "A solo", "A coshed", "A interf", "B solo", "B coshed", "B interf"],
        &rows,
    );
    println!();
    println!("(the light tenant pays for every heavy superstep it shares a barrier");
    println!(" with — the global-synchronization drawback §2.1/§6 describe)");

    // Flagged cell: the heavy LogP tenant solo on the full machine, traced
    // and registry-fed, so `--trace-out` shows one tenant's event stream.
    let scripts = logp_tenant(8, 400)(16);
    let config = LogpConfig {
        trace: true,
        ..LogpConfig::stall_free()
    };
    let mut machine = LogpMachine::with_config(logp, config, scripts);
    let registry = obs::capture_registry("exp_partition", 0, 16);
    machine.instrument(&RunOptions::new().registry(&registry));
    let rep = machine.run().expect("tenant completes");
    obs::Summary::new("exp_partition")
        .kv("cell", "logp_heavy_tenant_p16")
        .kv("makespan", rep.makespan.get())
        .kv("delivered", rep.delivered)
        .f2("logp_max_interference", logp_max_interf)
        .f2("bsp_max_interference", bsp_max_interf)
        .emit();
    obs::write_trace_if_requested(machine.trace(), &registry);
}
