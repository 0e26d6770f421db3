//! Reproducibility: identical seeds produce identical runs, everywhere —
//! the property that makes every number in EXPERIMENTS.md replayable.

use bsp_vs_logp::core::{route_deterministic, route_randomized, SortScheme};
use bsp_vs_logp::exec::RunOptions;
use bsp_vs_logp::logp::{
    AcceptOrder, DeliveryPolicy, LogpConfig, LogpMachine, LogpParams, Op, Script, TimelineKind,
};
use bsp_vs_logp::model::rngutil::SeedStream;
use bsp_vs_logp::model::{HRelation, Payload, ProcId};
use bsp_vs_logp::net::{measure_parameters, Hypercube, RouterConfig};

fn traffic(p: usize, k: usize) -> Vec<Script> {
    let mut indeg = vec![0usize; p];
    let mut dsts: Vec<Vec<usize>> = Vec::new();
    for i in 0..p {
        let row: Vec<usize> = (0..k).map(|q| (i * 7 + q * 3 + 1) % p).collect();
        for &d in &row {
            indeg[d] += 1;
        }
        dsts.push(row);
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

#[test]
fn logp_runs_are_seed_deterministic_under_random_policies() {
    let params = LogpParams::new(12, 12, 1, 3).unwrap();
    let run = |seed: u64| {
        let config = LogpConfig {
            accept_order: AcceptOrder::Random,
            delivery: DeliveryPolicy::Uniform,
            seed,
            ..LogpConfig::default()
        };
        let mut m = LogpMachine::with_config(params, config, traffic(12, 4));
        let r = m.run().unwrap();
        // The latency mean is the most draw-sensitive observable: coarse
        // aggregates (makespan, stalls) can coincide on a drain-paced,
        // stall-free workload even when the delivery draws differ.
        (r.makespan, r.total_stall, r.delivered, r.latency.mean().to_bits())
    };
    assert_eq!(run(42), run(42));
    // And different seeds genuinely explore different schedules.
    let outcomes: Vec<_> = (0..8).map(run).collect();
    assert!(outcomes.iter().any(|o| o != &outcomes[0]));
}

/// A stalling-heavy workload: every other processor floods processor 0 far
/// past its `⌈L/G⌉` capacity (exercising the Stalling Rule's queueing on the
/// timeline), interleaved with far-future `WaitUntil`/`Compute` ops that only
/// the bucket queue's overflow path can carry.
fn stalling_hot_spot(p: usize, k: usize) -> Vec<Script> {
    let mut v = vec![Script::new(
        std::iter::repeat_n(Op::Recv, (p - 1) * k)
            .chain([Op::Halt])
            .collect::<Vec<_>>(),
    )];
    v.extend((1..p).map(|i| {
        let mut ops = Vec::new();
        for q in 0..k {
            if q == k / 2 {
                // Beyond any `max(L, G, o)` horizon: forces the overflow heap.
                ops.push(Op::Compute(200));
            }
            ops.push(Op::Send {
                dst: ProcId(0),
                payload: Payload::word(q as u32, i as i64),
            });
        }
        Script::new(ops)
    }));
    v
}

#[test]
fn bucket_timeline_trace_is_byte_identical_to_heap() {
    let params = LogpParams::new(12, 12, 1, 3).unwrap();
    let run = |kind: TimelineKind| {
        let config = LogpConfig {
            timeline: kind,
            trace: true,
            ..LogpConfig::default()
        };
        let mut m = LogpMachine::with_config(params, config, stalling_hot_spot(12, 8));
        let rep = m.run().unwrap();
        assert!(rep.stall_episodes > 0, "workload must actually stall");
        (
            format!("{:?}", m.trace().events()).into_bytes(),
            rep.makespan,
            rep.total_stall,
            rep.delivered,
        )
    };
    let heap = run(TimelineKind::BinaryHeap);
    let bucket = run(TimelineKind::Bucket);
    assert_eq!(
        heap.0, bucket.0,
        "bucket timeline must replay the heap's event order byte for byte"
    );
    assert_eq!((heap.1, heap.2, heap.3), (bucket.1, bucket.2, bucket.3));
}

#[test]
fn bucket_timeline_matches_heap_under_randomized_policies() {
    // Random acceptance order + uniform delivery delays route every event
    // through the policy RNG; the trace stays identical because the timeline
    // kind only changes the queue's *implementation*, not the event order.
    let params = LogpParams::new(12, 12, 1, 3).unwrap();
    for seed in 0..4u64 {
        let run = |kind: TimelineKind| {
            let config = LogpConfig {
                timeline: kind,
                trace: true,
                accept_order: AcceptOrder::Random,
                delivery: DeliveryPolicy::Uniform,
                seed,
                ..LogpConfig::default()
            };
            let mut m = LogpMachine::with_config(params, config, traffic(12, 4));
            m.run().unwrap();
            format!("{:?}", m.trace().events())
        };
        assert_eq!(
            run(TimelineKind::BinaryHeap),
            run(TimelineKind::Bucket),
            "trace divergence at policy seed {seed}"
        );
    }
}

#[test]
fn cross_simulation_protocols_are_replayable() {
    let params = LogpParams::new(16, 32, 1, 2).unwrap();
    let mut rng = SeedStream::new(7).derive("rel", 0);
    let rel = HRelation::random_uniform(&mut rng, 16, 4);
    let opts = RunOptions::new().seed(5);
    let a = route_deterministic(params, &rel, SortScheme::Network, &opts).unwrap();
    let b = route_deterministic(params, &rel, SortScheme::Network, &opts).unwrap();
    assert_eq!(a.total, b.total);
    let a = route_randomized(params, &rel, 2.0, &opts).unwrap();
    let b = route_randomized(params, &rel, 2.0, &opts).unwrap();
    assert_eq!(a.time, b.time);
    assert_eq!(a.leftover, b.leftover);
}

#[test]
fn network_measurements_are_replayable() {
    let topo = Hypercube::new(5);
    let a = measure_parameters(&topo, &[1, 2, 4], 2, 9, RouterConfig::default());
    let b = measure_parameters(&topo, &[1, 2, 4], 2, 9, RouterConfig::default());
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.gamma, b.gamma);
}
