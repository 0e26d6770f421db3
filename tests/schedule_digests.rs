//! Cross-version schedule pins: the full event trace, the report and every
//! received envelope of a handful of LogP runs, hashed and compared against
//! digests recorded from commit 0121843, the last engine whose timeline
//! events carried whole envelopes (before the slab and handle events of
//! DESIGN.md §13).
//!
//! `shard_determinism.rs` and `determinism.rs` compare one build with
//! itself (shard counts against each other, the bucket timeline against the
//! heap). Neither notices a change that moves every configuration the same
//! way — a reordered RNG draw, an envelope field stamped at another instant,
//! a stall window counted differently. These digests do: each run here
//! exercises a randomized policy (`Random` acceptance, `Uniform` delivery),
//! the Stalling Rule, or a dup/jitter/reorder fault plan, at shards 1 and 4,
//! and must reproduce the recorded bytes.
//!
//! A digest may only be updated together with a documented change to the
//! engine's schedule semantics.

use bsp_vs_logp::exec::RunOptions;
use bsp_vs_logp::fault::{Dist, Fault, FaultPlan};
use bsp_vs_logp::logp::{
    AcceptOrder, DeliveryPolicy, LogpConfig, LogpMachine, LogpParams, LogpReport, Op, Script,
};
use bsp_vs_logp::model::{Payload, ProcId};
use std::fmt::Write as _;
use std::sync::Arc;

/// FNV-1a, 64-bit: a stable digest with no dependency on the std hasher.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run traced at `shards`; render the trace, the report and each
/// processor's received envelopes into one string.
fn render(
    params: LogpParams,
    config: LogpConfig,
    opts: &RunOptions,
    scripts: Vec<Script>,
    shards: usize,
) -> (String, LogpReport) {
    let mut m = LogpMachine::with_config(params, config, scripts);
    m.instrument(&RunOptions {
        trace: true,
        shards,
        ..opts.clone()
    });
    let report = m.run().expect("pinned runs complete");
    let mut out = String::new();
    writeln!(out, "{:?}", m.trace().events()).unwrap();
    writeln!(out, "{report:?}").unwrap();
    for (i, script) in m.into_programs().into_iter().enumerate() {
        writeln!(out, "{i}: {:?}", script.into_received()).unwrap();
    }
    (out, report)
}

fn send(dst: usize, tag: u32, w: i64) -> Op {
    Op::Send {
        dst: ProcId::from(dst),
        payload: Payload::word(tag, w),
    }
}

fn alltoall(p: usize) -> Vec<Script> {
    (0..p)
        .map(|me| {
            let mut ops: Vec<Op> = (0..p - 1)
                .map(|t| send((me + 1 + t) % p, t as u32, me as i64))
                .collect();
            ops.extend(std::iter::repeat_n(Op::Recv, p - 1));
            Script::new(ops)
        })
        .collect()
}

/// Every sender fires `k` messages at processor 0, which receives them all:
/// the capacity `⌈L/G⌉` is exceeded and senders stall.
fn hot_spot(p: usize, k: usize) -> Vec<Script> {
    let mut v = vec![Script::new(vec![Op::Recv; (p - 1) * k])];
    v.extend((1..p).map(|i| Script::new((0..k).map(move |q| send(0, q as u32, i as i64)))));
    v
}

/// A fixed irregular relation: processor `i` sends to `(i·a + b) mod p`
/// for a few `(a, b)`, then receives its in-degree.
fn irregular(p: usize) -> Vec<Script> {
    let pairs = [(1usize, 1usize), (3, 2), (5, 7), (2, 5), (7, 3)];
    let dsts: Vec<Vec<usize>> = (0..p)
        .map(|i| pairs.iter().map(|&(a, b)| (i * a + b) % p).collect())
        .collect();
    let mut indeg = vec![0usize; p];
    for &d in dsts.iter().flatten() {
        indeg[d] += 1;
    }
    (0..p)
        .map(|i| {
            let mut ops: Vec<Op> = dsts[i]
                .iter()
                .enumerate()
                .map(|(k, &d)| send(d, k as u32, (i * 100 + k) as i64))
                .collect();
            ops.extend(std::iter::repeat_n(Op::Recv, indeg[i]));
            Script::new(ops)
        })
        .collect()
}

fn random_policies(seed: u64) -> LogpConfig {
    LogpConfig {
        accept_order: AcceptOrder::Random,
        delivery: DeliveryPolicy::Uniform,
        seed,
        ..LogpConfig::default()
    }
}

struct Pin {
    name: &'static str,
    params: LogpParams,
    config: LogpConfig,
    opts: RunOptions,
    scripts: fn() -> Vec<Script>,
    digest: u64,
}

fn pins() -> Vec<Pin> {
    let dup_jitter_reorder = FaultPlan {
        seed: 77,
        faults: vec![
            Fault::Duplicate { every: 3 },
            Fault::Jitter(Dist::Uniform(5)),
            Fault::Reorder { pct: 40 },
        ],
    };
    let outage = FaultPlan {
        seed: 5,
        faults: vec![
            Fault::StallBurst { period: 9, len: 3 },
            Fault::Duplicate { every: 4 },
            Fault::Jitter(Dist::Fixed(2)),
        ],
    };
    vec![
        Pin {
            name: "all_to_all random/uniform",
            params: LogpParams::new(10, 12, 1, 3).unwrap(),
            config: random_policies(1996),
            opts: RunOptions::new(),
            scripts: || alltoall(10),
            digest: 0xca16_9b94_f481_c0d0,
        },
        Pin {
            name: "hot_spot stalling fifo/bound",
            params: LogpParams::new(12, 16, 1, 2).unwrap(),
            config: LogpConfig::default(),
            opts: RunOptions::new(),
            scripts: || hot_spot(12, 6),
            digest: 0xa9f3_6c2f_4f2a_a232,
        },
        Pin {
            name: "hot_spot stalling random/uniform",
            params: LogpParams::new(9, 8, 1, 4).unwrap(),
            config: random_policies(31),
            opts: RunOptions::new(),
            scripts: || hot_spot(9, 5),
            digest: 0xc016_7b50_bdf4_0caf,
        },
        Pin {
            name: "irregular lifo/eager dup+jitter+reorder",
            params: LogpParams::new(11, 9, 1, 2).unwrap(),
            config: LogpConfig {
                accept_order: AcceptOrder::Lifo,
                delivery: DeliveryPolicy::Eager,
                seed: 4,
                ..LogpConfig::default()
            },
            opts: RunOptions::new().faults(Arc::new(dup_jitter_reorder.clone())),
            scripts: || irregular(11),
            digest: 0x9002_3a9f_e50f_323b,
        },
        Pin {
            name: "irregular random/uniform dup+jitter+reorder",
            params: LogpParams::new(13, 10, 2, 3).unwrap(),
            config: random_policies(808),
            opts: RunOptions::new().faults(Arc::new(dup_jitter_reorder)),
            scripts: || irregular(13),
            digest: 0x8643_5669_cb33_7bb1,
        },
        Pin {
            name: "hot_spot random/uniform stall bursts + dup",
            params: LogpParams::new(8, 12, 1, 3).unwrap(),
            config: random_policies(2024),
            opts: RunOptions::new().faults(Arc::new(outage)),
            scripts: || hot_spot(8, 4),
            digest: 0xb5e7_59b7_9b5e_e656,
        },
    ]
}

#[test]
fn schedules_match_recorded_digests() {
    let mut report = String::new();
    let mut mismatches = 0;
    let (mut stalls, mut dups) = (0, 0);
    for pin in pins() {
        for shards in [1usize, 4] {
            let (text, rep) = render(pin.params, pin.config, &pin.opts, (pin.scripts)(), shards);
            stalls += rep.stall_episodes;
            dups += rep.duplicates_dropped;
            let got = fnv64(text.as_bytes());
            if got != pin.digest {
                mismatches += 1;
            }
            writeln!(
                report,
                "{:<48} shards={shards}: got {got:#018x}, recorded {:#018x}",
                pin.name, pin.digest
            )
            .unwrap();
        }
    }
    assert_eq!(mismatches, 0, "schedule digests diverged:\n{report}");
    assert!(
        stalls > 0 && dups > 0,
        "the pins must exercise stalling and duplicates"
    );
}
