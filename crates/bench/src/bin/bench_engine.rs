//! Engine performance snapshot → `BENCH_engine.json`.
//!
//! Measures the hot paths this repo's perf work targets and writes one
//! machine-readable JSON file at the repository root so the perf trajectory
//! is tracked across PRs:
//!
//! * **timeline** — whole-machine LogP runs under `TimelineKind::BinaryHeap`
//!   (the pre-overhaul engine, kept selectable exactly for this comparison)
//!   vs `TimelineKind::Bucket` (the calendar queue). "before/after" on the
//!   same binary, same workloads.
//! * **payload** — construct+clone+read round-trips for an inline payload vs
//!   a spilled one. The spill path is the old representation (every payload
//!   heap-allocated a `Vec`), so this is the message-layer before/after.
//! * **sweep** — the `exp_table1`-style topology measurement job set run
//!   as one uncached `bvl_lab::run_grid` grid on a 1-thread rayon pool and
//!   on a pool sized to the host. On a single-core host the parallel leg is
//!   skipped with a notice (a parallel sweep cannot speed up there;
//!   pretending to measure one reports noise as a slowdown).
//! * **scaling** — the sharded engine's growth curve: single-shard wall
//!   time of a fixed-rounds ring versus machine size `p` from 64 to 10⁶ by
//!   decades, plus shards-vs-speedup rows at `p = 10⁵` (skipped with a
//!   notice when the host has fewer than two cores).
//!
//! Wall-clock numbers are environment-dependent; the JSON records the host
//! parallelism next to them. Run via `scripts/regen_experiments.sh` or:
//!
//! ```sh
//! cargo run --release -p bvl-bench --bin bench_engine
//! ```
//!
//! With `--smoke` the binary instead runs each benched workload traced at
//! shard counts 1/2/4, byte-compares the traces, prints one PASS/FAIL line
//! per workload, and exits non-zero on any divergence — the CI determinism
//! gate, cheap enough for every push.
//!
//! If `CRITERION_JSONL` points at a `CRITERION_MINI_JSON` output file (the
//! `event_queue` micro-bench writes one), its measurements are embedded
//! under `"criterion"`.

use bvl_exec::RunOptions;
use bvl_lab::{run_grid, CellSpec, GridSpec};
use bvl_logp::{
    LogpConfig, LogpMachine, LogpParams, LogpProcess, Op, ProcView, Script, TimelineKind,
};
use bvl_model::{Payload, ProcId, INLINE_WORDS};
use bvl_net::{measure_parameters, Hypercube, MeshOfTrees, RouterConfig, Topology};
use bvl_obs::Registry;
use std::hint::black_box;
use std::time::Instant;

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

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn time_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Best-of-`reps` wall times of `a` and of `b`, in milliseconds, with the
/// reps interleaved `a, b, a, b, …`: a slow host phase then lands on both
/// sides of the ratio instead of on whichever side ran during it.
fn time_pair_ms(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best_a = best_a.min(time_ms(1, &mut a));
        best_b = best_b.min(time_ms(1, &mut b));
    }
    (best_a, best_b)
}

fn run_machine(kind: TimelineKind, scripts: Vec<Script>, p: usize) -> u64 {
    let params = LogpParams::new(p, 16, 1, 2).unwrap();
    let config = LogpConfig {
        timeline: kind,
        ..LogpConfig::default()
    };
    let mut m = LogpMachine::with_config(params, config, scripts);
    m.run().unwrap().makespan.get()
}

type ScriptBuilder = Box<dyn Fn() -> Vec<Script>>;

fn timeline_section(out: &mut Vec<String>) {
    let cases: Vec<(&str, usize, ScriptBuilder)> = vec![
        ("ring_x32", 64, Box::new(|| ring_scripts(64, 32))),
        ("hot_spot_stalling", 64, Box::new(|| hot_spot_scripts(64, 16))),
        ("all_to_all", 64, Box::new(|| alltoall_scripts(64))),
    ];
    for (name, p, build) in cases {
        // Equal work both sides; 10 machine runs per timing rep.
        let reps_of = |kind| {
            let build = &build;
            move || {
                for _ in 0..10 {
                    black_box(run_machine(kind, build(), p));
                }
            }
        };
        let (heap_ms, bucket_ms) = time_pair_ms(
            5,
            reps_of(TimelineKind::BinaryHeap),
            reps_of(TimelineKind::Bucket),
        );
        eprintln!(
            "timeline/{name}: heap {heap_ms:.2} ms, bucket {bucket_ms:.2} ms, speedup {:.2}x",
            heap_ms / bucket_ms
        );
        out.push(format!(
            "    {{\"workload\": \"{name}\", \"p\": {p}, \"heap_ms\": {heap_ms:.3}, \
             \"bucket_ms\": {bucket_ms:.3}, \"speedup\": {:.3}}}",
            heap_ms / bucket_ms
        ));
    }
}

fn payload_section(out: &mut Vec<String>) {
    let inline = vec![7i64; INLINE_WORDS];
    let spill = vec![7i64; INLINE_WORDS * 2];
    let iters = 2_000_000u64;
    let bench = |words: &[i64]| -> f64 {
        let ms = time_ms(5, || {
            let mut acc = 0i64;
            for _ in 0..iters {
                let p = Payload::words(3, black_box(words));
                let q = p.clone();
                acc = acc.wrapping_add(q.data().iter().sum::<i64>());
            }
            black_box(acc);
        });
        ms * 1e6 / iters as f64 // ns per construct+clone+read
    };
    let inline_ns = bench(&inline);
    let spill_ns = bench(&spill);
    eprintln!(
        "payload: inline {inline_ns:.1} ns/op, spill {spill_ns:.1} ns/op, ratio {:.2}x",
        spill_ns / inline_ns
    );
    out.push(format!(
        "    {{\"case\": \"inline_{INLINE_WORDS}w\", \"ns_per_op\": {inline_ns:.1}}}"
    ));
    out.push(format!(
        "    {{\"case\": \"spill_{}w\", \"ns_per_op\": {spill_ns:.1}, \
         \"note\": \"spill = pre-overhaul always-Vec representation\"}}",
        INLINE_WORDS * 2
    ));
}

fn sweep_jobs() -> Vec<(&'static str, u32)> {
    vec![
        ("hypercube", 6),
        ("hypercube", 7),
        ("mesh_of_trees", 6),
        ("mesh_of_trees", 8),
        ("hypercube", 6),
        ("hypercube", 7),
        ("mesh_of_trees", 6),
        ("mesh_of_trees", 8),
    ]
}

fn run_sweep() -> f64 {
    let jobs = sweep_jobs();
    let mut grid = GridSpec::new("bench-engine", 11);
    for (i, (kind, k)) in jobs.iter().enumerate() {
        grid = grid.cell(CellSpec::new("bench-engine", i, format!("{kind}({k})")));
    }
    let rep = run_grid(&grid, None, &Registry::disabled(), |cell, _job| {
        let (kind, k) = jobs[cell.index];
        let topo: Box<dyn Topology> = match kind {
            "hypercube" => Box::new(Hypercube::new(k)),
            _ => Box::new(MeshOfTrees::new(1usize << (k / 2))),
        };
        let m = measure_parameters(&*topo, &[1, 2, 4, 8], 2, 5, RouterConfig::default());
        vec![vec![m.gamma.to_string()]]
    })
    .expect("an uncached grid does no I/O");
    rep.elapsed.as_secs_f64() * 1e3
}

/// Best-of-3 sweep time on a dedicated rayon pool of `threads` workers.
/// An explicit pool is the only honest way to vary thread count here:
/// `RAYON_NUM_THREADS` is read once when the global pool first spins up,
/// so setting it mid-process silently measures the same pool twice.
fn sweep_in_pool(threads: usize) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build rayon pool");
    time_ms(3, || {
        pool.install(|| {
            black_box(run_sweep());
        });
    })
}

fn sweep_section() -> String {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let jobs = sweep_jobs().len();
    let t1_ms = sweep_in_pool(1);
    if host < 2 {
        eprintln!(
            "sweep: {jobs} jobs, 1 thread {t1_ms:.1} ms; single-core host, parallel leg skipped"
        );
        return format!(
            "  \"sweep\": {{\"jobs\": {jobs}, \"threads_1_ms\": {t1_ms:.3}, \"host_cpus\": {host}, \
             \"skipped\": \"single-core host: a parallel sweep cannot speed up here\"}}"
        );
    }
    let tn_ms = sweep_in_pool(host);
    let speedup = t1_ms / tn_ms;
    eprintln!(
        "sweep: {jobs} jobs, 1 thread {t1_ms:.1} ms, {host} threads {tn_ms:.1} ms, speedup {speedup:.2}x"
    );
    format!(
        "  \"sweep\": {{\"jobs\": {jobs}, \"threads_1_ms\": {t1_ms:.3}, \"threads_n_ms\": {tn_ms:.3}, \
         \"threads_n\": {host}, \"host_cpus\": {host}, \"speedup\": {speedup:.3}, \"efficiency\": {:.3}}}",
        speedup / host as f64
    )
}

/// A ring participant with constant per-processor memory (one word of
/// state, no op queue), so the scaling curve can reach p = 10⁶ without the
/// `Script` representation dominating the footprint.
struct RingProc {
    next: ProcId,
    rounds_left: u32,
    recv_pending: bool,
}

impl LogpProcess for RingProc {
    fn next_op(&mut self, _view: &ProcView) -> Op {
        if self.recv_pending {
            self.recv_pending = false;
            return Op::Recv;
        }
        if self.rounds_left == 0 {
            return Op::Halt;
        }
        self.rounds_left -= 1;
        self.recv_pending = true;
        Op::Send {
            dst: self.next,
            payload: Payload::word(0, 0),
        }
    }
}

/// Rounds per processor in the scaling-curve ring; total work is O(p · rounds).
const SCALING_ROUNDS: u32 = 4;

/// Wall time of one ring run at `p` processors under `shards` shards,
/// excluding machine construction (the curve tracks engine throughput, not
/// allocation).
fn ring_time_ms(p: usize, shards: usize) -> f64 {
    let params = LogpParams::new(p, 16, 1, 2).unwrap();
    let procs = (0..p)
        .map(|i| RingProc {
            next: ProcId(((i + 1) % p) as u32),
            rounds_left: SCALING_ROUNDS,
            recv_pending: false,
        })
        .collect();
    let mut m = LogpMachine::new(params, procs);
    m.instrument(&RunOptions::new().shards(shards));
    let t0 = Instant::now();
    black_box(m.run().unwrap().makespan.get());
    t0.elapsed().as_secs_f64() * 1e3
}

fn scaling_section() -> String {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut rows = Vec::new();
    for &p in &[64usize, 1_000, 10_000, 100_000, 1_000_000] {
        // Small machines are fast enough to repeat; the big ones are long
        // enough that a single run is already stable.
        let reps = if p <= 10_000 { 3 } else { 1 };
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            best = best.min(ring_time_ms(p, 1));
        }
        eprintln!("scaling/ring_x{SCALING_ROUNDS}: p = {p}, {best:.1} ms (1 shard)");
        rows.push(format!("      {{\"p\": {p}, \"ms\": {best:.3}}}"));
    }
    let shard_json = if host >= 2 {
        let p = 100_000;
        let base = ring_time_ms(p, 1);
        let mut srows = vec![format!(
            "      {{\"shards\": 1, \"ms\": {base:.3}, \"speedup\": 1.0}}"
        )];
        for shards in [2usize, 4] {
            let ms = ring_time_ms(p, shards);
            eprintln!(
                "scaling/shards: p = {p}, {shards} shards {ms:.1} ms, speedup {:.2}x",
                base / ms
            );
            srows.push(format!(
                "      {{\"shards\": {shards}, \"ms\": {ms:.3}, \"speedup\": {:.3}}}",
                base / ms
            ));
        }
        format!(
            "\"shard_speedup\": {{\"p\": {p}, \"rows\": [\n{}\n    ]}}",
            srows.join(",\n")
        )
    } else {
        eprintln!("scaling/shards: single-core host, shard-speedup leg skipped");
        format!(
            "\"shard_speedup\": {{\"host_cpus\": {host}, \
             \"skipped\": \"single-core host: shard speedup is not measurable here\"}}"
        )
    };
    format!(
        "  \"scaling\": {{\n    \"workload\": \"ring_x{SCALING_ROUNDS}\",\n    \
         \"single_shard\": [\n{}\n    ],\n    {shard_json}\n  }}",
        rows.join(",\n")
    )
}

/// `--smoke`: the CI determinism gate. Each benched workload runs traced at
/// shard counts 1, 2, and 4; the traces must be byte-identical.
fn smoke() -> i32 {
    let cases: Vec<(&str, usize, ScriptBuilder)> = vec![
        ("ring_x32", 64, Box::new(|| ring_scripts(64, 32))),
        ("hot_spot_stalling", 64, Box::new(|| hot_spot_scripts(64, 16))),
        ("all_to_all", 64, Box::new(|| alltoall_scripts(64))),
    ];
    let mut failed = false;
    for (name, p, build) in cases {
        let run = |shards: usize| {
            let params = LogpParams::new(p, 16, 1, 2).unwrap();
            let mut m = LogpMachine::with_config(params, LogpConfig::traced(), build());
            m.instrument(&RunOptions::new().shards(shards));
            let report = m.run().unwrap();
            (report.makespan, format!("{:?}", m.trace().events()))
        };
        let (makespan, base) = run(1);
        let ok = [2usize, 4].iter().all(|&s| {
            let (mk, trace) = run(s);
            mk == makespan && trace == base
        });
        println!(
            "smoke/{name}: {}",
            if ok {
                "PASS"
            } else {
                "FAIL (trace diverged across shard counts 1/2/4)"
            }
        );
        failed |= !ok;
    }
    if failed {
        1
    } else {
        0
    }
}

fn criterion_section() -> Option<String> {
    let path = std::env::var("CRITERION_JSONL").ok()?;
    let text = std::fs::read_to_string(path).ok()?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return None;
    }
    Some(format!(
        "  \"criterion\": [\n    {}\n  ]",
        lines.join(",\n    ")
    ))
}

fn main() {
    if std::env::args().skip(1).any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut timeline = Vec::new();
    timeline_section(&mut timeline);
    let mut payload = Vec::new();
    payload_section(&mut payload);
    let sweep_json = sweep_section();
    let scaling_json = scaling_section();

    let mut sections = vec![
        format!("  \"host_cpus\": {host}"),
        format!("  \"timeline\": [\n{}\n  ]", timeline.join(",\n")),
        format!("  \"payload\": [\n{}\n  ]", payload.join(",\n")),
        sweep_json,
        scaling_json,
    ];
    if let Some(crit) = criterion_section() {
        sections.push(crit);
    }
    let json = format!("{{\n{}\n}}\n", sections.join(",\n"));
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("{json}");
    eprintln!("wrote BENCH_engine.json");
}
