//! The sharded engine's acceptance bar: traces and observable outputs are
//! **bit-identical at any shard count**.
//!
//! The LogP engine partitions its processors across worker threads when
//! `RunOptions::shards > 1`; sharding is pure parallelism by contract —
//! every report field, every trace event, and every `SUMMARY` line an
//! experiment binary would print must be byte-for-byte the same at shard
//! counts 1, 2 and 4. Fixed workloads (ring, hot-spot stalling, all-to-all)
//! pin that down exactly; a property test extends it to random programs
//! under random policies and a random adversarial [`FaultPlan`].

use bsp_vs_logp::bsp::{BspMachine, BspParams, FnProcess, Status};
use bsp_vs_logp::exec::RunOptions;
use bsp_vs_logp::fault::{Dist, Fault, FaultPlan};
use bsp_vs_logp::logp::{
    AcceptOrder, DeliveryPolicy, LogpConfig, LogpMachine, LogpParams, LogpReport, Op, Script,
};
use bsp_vs_logp::model::{ModelError, Payload, ProcId, Steps};
use bsp_vs_logp::obs::{Registry, Span, SpanKind, Tier};
use proptest::prelude::*;
use std::sync::Arc;

/// One traced run at the given shard count; returns the report (or error)
/// and the full event trace rendered to a string.
fn run_traced(
    params: LogpParams,
    config: LogpConfig,
    opts: &RunOptions,
    scripts: Vec<Script>,
) -> (Result<LogpReport, ModelError>, String) {
    let mut m = LogpMachine::with_config(params, config, scripts);
    m.instrument(&RunOptions { trace: true, ..opts.clone() });
    let result = m.run();
    (result, format!("{:?}", m.trace().events()))
}

/// The one-line summary an `exp_*` binary would print for this run — the
/// user-visible digest whose bytes must not depend on the shard count.
fn summary_line(rep: &LogpReport) -> String {
    format!(
        "SUMMARY shard_determinism makespan={} stall_episodes={} stall_steps={} \
         max_buffer={} delivered={} latency_mean={:.4}",
        rep.makespan.get(),
        rep.stall_episodes,
        rep.total_stall.get(),
        rep.max_buffer(),
        rep.delivered,
        rep.latency.mean(),
    )
}

fn ring_scripts(p: usize, rounds: usize) -> Vec<Script> {
    (0..p)
        .map(|i| {
            let mut ops = Vec::new();
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

fn hot_spot_scripts(p: usize, k: usize) -> Vec<Script> {
    let mut v = vec![Script::new(vec![Op::Recv; (p - 1) * k])];
    v.extend((1..p).map(|i| {
        Script::new((0..k).map(move |q| Op::Send {
            dst: ProcId(0),
            payload: Payload::word(q as u32, i as i64),
        }))
    }));
    v
}

fn alltoall_scripts(p: usize) -> Vec<Script> {
    (0..p)
        .map(|me| {
            let mut ops = Vec::new();
            for t in 0..p - 1 {
                ops.push(Op::Send {
                    dst: ProcId(((me + 1 + t) % p) as u32),
                    payload: Payload::word(0, me as i64),
                });
            }
            ops.extend(std::iter::repeat_n(Op::Recv, p - 1));
            Script::new(ops)
        })
        .collect()
}

/// Ring, hot-spot stalling, and all-to-all: byte-identical traces and
/// SUMMARY lines at shard counts 1, 2 and 4.
#[test]
fn benched_workloads_are_shard_invariant() {
    let p = 12;
    let params = LogpParams::new(p, 16, 1, 2).unwrap();
    let workloads: Vec<(&str, Vec<Script>)> = vec![
        ("ring", ring_scripts(p, 8)),
        ("hot_spot_stalling", hot_spot_scripts(p, 6)),
        ("all_to_all", alltoall_scripts(p)),
    ];
    for (name, scripts) in workloads {
        let (base, trace1) = run_traced(
            params,
            LogpConfig::default(),
            &RunOptions::new(),
            scripts.clone(),
        );
        let base = base.unwrap_or_else(|e| panic!("{name} failed unsharded: {e:?}"));
        for shards in [2usize, 4] {
            let (rep, trace) = run_traced(
                params,
                LogpConfig::default(),
                &RunOptions::new().shards(shards),
                scripts.clone(),
            );
            let rep = rep.unwrap_or_else(|e| panic!("{name} failed at {shards} shards: {e:?}"));
            assert_eq!(trace, trace1, "{name}: trace diverged at {shards} shards");
            assert_eq!(
                summary_line(&rep),
                summary_line(&base),
                "{name}: SUMMARY diverged at {shards} shards"
            );
            assert_eq!(rep.per_proc, base.per_proc, "{name}: per-proc stats diverged");
        }
    }
}

/// Random-policy runs (random acceptance order, uniform delivery delays)
/// are just as shard-invariant: the policy RNG is keyed per destination,
/// not per call.
#[test]
fn random_policies_are_shard_invariant() {
    let p = 10;
    let params = LogpParams::new(p, 12, 1, 3).unwrap();
    let config = LogpConfig {
        accept_order: AcceptOrder::Random,
        delivery: DeliveryPolicy::Uniform,
        seed: 1996,
        ..LogpConfig::default()
    };
    let scripts = alltoall_scripts(p);
    let (base, trace1) = run_traced(params, config, &RunOptions::new(), scripts.clone());
    let base = base.unwrap();
    for shards in [2usize, 3, 4] {
        let (rep, trace) = run_traced(
            params,
            config,
            &RunOptions::new().shards(shards),
            scripts.clone(),
        );
        assert_eq!(trace, trace1, "trace diverged at {shards} shards");
        assert_eq!(summary_line(&rep.unwrap()), summary_line(&base));
    }
}

/// The sampled span plane obeys the same acceptance bar as the trace: the
/// subset a `Sampled` registry keeps is **bit-identical at shard counts
/// 1, 2 and 4**, because admission is a pure function of span content (or
/// phase index) and the sampling key — never of emission order or thread.
/// The sampled log must also be a strict, non-empty subset of the `Full`
/// log for this stall-heavy workload.
#[test]
fn sampled_span_logs_are_shard_invariant() {
    let p = 12;
    let params = LogpParams::new(p, 16, 1, 2).unwrap();
    let scripts = hot_spot_scripts(p, 6);
    let capture = |tier: Tier, shards: usize| -> Vec<Span> {
        let reg = Registry::tiered(p, tier, 0x5eed);
        let mut m = LogpMachine::with_config(params, LogpConfig::default(), scripts.clone());
        m.instrument(&RunOptions::new().registry(&reg).shards(shards));
        m.run().unwrap();
        reg.spans()
    };
    let full = capture(Tier::Full, 1);
    let sampled1 = capture(Tier::Sampled { rate: 4 }, 1);
    assert!(
        !sampled1.is_empty() && sampled1.len() < full.len(),
        "sampling must keep a strict non-empty subset ({} of {})",
        sampled1.len(),
        full.len()
    );
    for span in &sampled1 {
        assert!(full.contains(span), "sampled span not in the full log: {span:?}");
    }
    for shards in [2usize, 4] {
        let sampled = capture(Tier::Sampled { rate: 4 }, shards);
        assert_eq!(
            format!("{sampled:?}"),
            format!("{sampled1:?}"),
            "sampled span log diverged at {shards} shards"
        );
    }
}

/// The BSP engine samples at phase granularity (whole supersteps): for
/// every superstep the sampler admits, the sampled log holds exactly the
/// full log's spans of that superstep, and it holds no span of a rejected
/// one. The BSP machine has neither shards nor threads; the name dates
/// from when its communication phase was sharded.
#[test]
fn bsp_sampled_span_logs_are_shard_invariant() {
    let p = 8;
    let procs = || -> Vec<FnProcess<i64>> {
        (0..p)
            .map(|_| {
                FnProcess::new(0i64, move |acc, ctx| {
                    let p = ctx.p();
                    while let Some(m) = ctx.recv() {
                        *acc += m.payload.expect_word();
                    }
                    if ctx.superstep_index() < 24 {
                        ctx.charge(1 + ctx.me().index() as u64);
                        let me = ctx.me().index();
                        ctx.send(ProcId::from((me + 1) % p), Payload::word(0, 1));
                        Status::Continue
                    } else {
                        Status::Halt
                    }
                })
            })
            .collect()
    };
    const KEY: u64 = 0x1996;
    let capture = |tier: Tier| -> Vec<Span> {
        let params = BspParams::new(p, 2, 4).unwrap();
        let reg = Registry::tiered(p, tier, KEY);
        let mut m = BspMachine::new(params, procs());
        m.instrument(&RunOptions::new().registry(&reg));
        m.run(64).unwrap();
        reg.spans()
    };
    let tier = Tier::Sampled { rate: 4 };
    let full = capture(Tier::Full);
    let sampled = capture(tier);
    assert!(
        !sampled.is_empty() && sampled.len() < full.len(),
        "phase sampling must keep a strict non-empty subset ({} of {})",
        sampled.len(),
        full.len()
    );
    // Each superstep's spans lie in its `Superstep` span's `[start, end)`
    // (every superstep costs at least ℓ > 0), so a span's start names its
    // superstep; the indexed ones must agree.
    let bounds: Vec<(u64, Steps, Steps)> = full
        .iter()
        .filter(|s| s.kind == SpanKind::Superstep)
        .map(|s| (s.index.expect("Superstep spans are indexed"), s.start, s.end))
        .collect();
    let of_superstep = |log: &[Span], k: u64| -> Vec<Span> {
        let &(_, start, end) = bounds.iter().find(|b| b.0 == k).expect("known superstep");
        let burst: Vec<Span> =
            log.iter().filter(|s| start <= s.start && s.start < end).copied().collect();
        for s in &burst {
            assert!(s.index.is_none_or(|i| i == k), "superstep {k} holds {s:?}");
        }
        burst
    };
    let sampler = Registry::tiered(p, tier, KEY);
    let (mut admitted, mut kept) = (0, 0);
    for &(k, _, _) in &bounds {
        let got = of_superstep(&sampled, k);
        if sampler.admits_phase(k) {
            assert_eq!(got, of_superstep(&full, k), "superstep {k} admitted, burst not whole");
            admitted += 1;
        } else {
            assert!(got.is_empty(), "superstep {k} was rejected but kept {got:?}");
        }
        kept += got.len();
    }
    assert_eq!(kept, sampled.len(), "a sampled span lies outside every superstep");
    let n = bounds.len();
    assert!(0 < admitted && admitted < n, "{admitted} of {n} supersteps admitted");
}

/// Strategy: a deadlock-free random workload — every processor sends to a
/// derived destination list, then receives exactly its in-degree.
fn workload() -> impl Strategy<Value = (usize, u64, u64, u64, Vec<Vec<usize>>)> {
    (2usize..9, 1u64..10, 1u64..3, proptest::collection::vec(0usize..64, 0..6)).prop_map(
        |(p, l_raw, o, dsts_raw)| {
            let g = 2u64.max(o);
            let l = g + l_raw;
            let dsts: Vec<Vec<usize>> = (0..p)
                .map(|i| dsts_raw.iter().map(|&d| (d + i) % p).collect())
                .collect();
            (p, l, o, g, dsts)
        },
    )
}

fn scripts_for(p: usize, dsts: &[Vec<usize>]) -> Vec<Script> {
    let mut indeg = vec![0usize; p];
    for row in dsts {
        for &d in row {
            indeg[d] += 1;
        }
    }
    (0..p)
        .map(|i| {
            let mut ops: Vec<Op> = dsts[i]
                .iter()
                .map(|&d| Op::Send {
                    dst: ProcId::from(d),
                    payload: Payload::word(0, i as i64),
                })
                .collect();
            ops.extend(std::iter::repeat_n(Op::Recv, indeg[i]));
            Script::new(ops)
        })
        .collect()
}

/// Include a fault in the plan with 50% probability.
fn opt(s: impl Strategy<Value = Fault> + 'static) -> impl Strategy<Value = Option<Fault>> {
    prop_oneof![Just(None), s.prop_map(Some)]
}

/// Strategy: a random loss-free adversary — any subset of the fault
/// decorations, each with random (grammar-valid) knobs.
fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    let jitter = prop_oneof![
        (0u64..8).prop_map(|m| Fault::Jitter(Dist::Uniform(m))),
        (0u64..4).prop_map(|n| Fault::Jitter(Dist::Fixed(n))),
    ];
    let reorder = (0u8..=100).prop_map(|pct| Fault::Reorder { pct });
    let dup = (1u64..6).prop_map(|every| Fault::Duplicate { every });
    let burst = (3u64..16)
        .prop_flat_map(|period| (Just(period), 1u64..period))
        .prop_map(|(period, len)| Fault::StallBurst { period, len });
    let squeeze = (1u64..4).prop_map(|max| Fault::CapacitySqueeze { max });
    let degrade =
        (0u64..40, 1u64..4).prop_map(|(at_step, factor)| Fault::Degrade { at_step, factor });
    (
        (0u64..1000, opt(jitter), opt(reorder), opt(dup)),
        (opt(burst), opt(squeeze), opt(degrade)),
    )
        .prop_map(|((seed, a, b, c), (d, e, f))| FaultPlan {
            seed,
            faults: [a, b, c, d, e, f].into_iter().flatten().collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs under a random `FaultPlan` and random policies agree
    /// across shard counts: same trace and same report on success, the same
    /// error identity on failure.
    #[test]
    fn faulted_random_programs_are_shard_invariant(
        (p, l, o, g, dsts) in workload(),
        plan in fault_plan(),
        order in prop_oneof![
            Just(AcceptOrder::Fifo), Just(AcceptOrder::Lifo), Just(AcceptOrder::Random)],
        delivery in prop_oneof![
            Just(DeliveryPolicy::AtLatencyBound), Just(DeliveryPolicy::Eager),
            Just(DeliveryPolicy::Uniform)],
        seed in 0u64..1000,
    ) {
        let params = LogpParams::new(p, l, o, g).unwrap();
        let config = LogpConfig { accept_order: order, delivery, seed, ..LogpConfig::default() };
        let opts = RunOptions::new().faults(Arc::new(plan));
        let (base, trace1) = run_traced(params, config, &opts, scripts_for(p, &dsts));
        for shards in [2usize, 4] {
            let (result, trace) = run_traced(
                params,
                config,
                &RunOptions { shards, ..opts.clone() },
                scripts_for(p, &dsts),
            );
            match (&base, &result) {
                (Ok(b), Ok(r)) => {
                    prop_assert_eq!(&trace, &trace1, "trace diverged at {} shards", shards);
                    prop_assert_eq!(summary_line(r), summary_line(b));
                    prop_assert_eq!(r.duplicates_dropped, b.duplicates_dropped);
                }
                (Err(be), Err(re)) => prop_assert_eq!(be, re),
                _ => prop_assert!(
                    false,
                    "verdict diverged at {} shards: {:?} vs {:?}", shards, base, result
                ),
            }
        }
    }
}
