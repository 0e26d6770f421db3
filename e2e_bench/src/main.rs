//! End-to-end and per-layer benchmark of the BSP vs LogP lab.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <cold_grid|warm_serve|bigp_host> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in its
//! own process, checks every output, and prints as its last stdout line a
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! one-thread replay with `--trace 1`. Lines before it, prefixed `#`,
//! carry the host and build stamp, the rows digest, the request-latency
//! tail and the path of the Chrome trace. Stores and traces live under
//! `.bench_run/` in the working directory. See `README.md`.

mod client;
mod digest;
mod gen;
mod run;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["cold_grid", "warm_serve", "bigp_host"];

/// The metrics `--trace 0` reports, in `BENCHMARK.json`'s `end_to_end`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "cold_s",
    "run_p50_ms",
    "serve_rps",
    "peak_rss_mb",
];

/// The metrics `--trace 1` reports, in `BENCHMARK.json`'s `per_layer`.
const PER_LAYER: [&str; 59] = [
    "scenario.parse_ms",
    "scenario.compile_ms",
    "scenario.audit_ms",
    "lab.open_ms",
    "lab.key_ms",
    "lab.lookup_ms",
    "lab.append_ms",
    "lab.append_bytes",
    "lab.scan_ms",
    "lab.encode_ms",
    "lab.status_ms",
    "obs.snapshot_ms",
    "http.run_p50_ms",
    "http.cells_p50_ms",
    "http.status_p50_ms",
    "http.metrics_p50_ms",
    "http.run_overhead_ms",
    "http.cells_overhead_ms",
    "http.status_overhead_ms",
    "http.metrics_overhead_ms",
    "http.run_tail_ms",
    "http.run_tail_pct",
    "http.run_tail_samples",
    "http.cache_hits",
    "http.cache_misses",
    "http.serve_mean_us",
    "compute.measure_ms",
    "compute.measure_cells",
    "compute.host_ms",
    "compute.host_cells",
    "compute.route_ms",
    "compute.route_cells",
    "compute.route-big_ms",
    "compute.route-big_cells",
    "compute.superstep_ms",
    "compute.superstep_cells",
    "compute.conformance_ms",
    "compute.conformance_cells",
    "compute.stack_ms",
    "compute.stack_cells",
    "compute.sort_ms",
    "compute.sort_cells",
    "compute.stream_ms",
    "compute.stream_cells",
    "compute.bsf_ms",
    "compute.bsf_cells",
    "logp.run_ms",
    "core.logp_on_bsp_ms",
    "logp.ns_per_msg",
    "obs.submitted",
    "obs.delivered",
    "obs.local_ops",
    "obs.stall_steps",
    "mem.rss_kb_per_proc",
    "mem.faults_first",
    "mem.faults_pass",
    "trace.total_ms",
    "trace.residual_pct",
    "trace.overhead_pct",
];

const USAGE: &str =
    "usage: bvl-e2e-bench --workload <cold_grid|warm_serve|bigp_host> --seed N --seconds S --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS.iter().find(|w| *w == value).ok_or_else(bad)?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2);
    });
    let root = PathBuf::from(".bench_run");
    let ctx = run::Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: root.join(format!("{}-{}", args.workload, std::process::id())),
        stamp: sys::host_stamp(args.workload, args.seed),
        deadline: Instant::now() + Duration::from_secs_f64(2.0 * args.seconds + 60.0),
    };
    println!("# host {}", ctx.stamp);
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("cannot create {}: {e}", ctx.dir.display());
        exit(1);
    }
    let result = match args.workload {
        "cold_grid" => run::cold(&ctx, gen::cold_grid, 64),
        "warm_serve" => run::warm_serve(&ctx),
        _ => run::cold(&ctx, gen::bigp, gen::BIGP_P),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let mut out = result.unwrap_or_else(|e| {
        eprintln!("{}: {e}", args.workload);
        exit(1);
    });
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    // A metric with no sample (every pass of it failed) prints as null and
    // fails the run, so it never reads as a perfect result.
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            let (value, unit) = out
                .metrics
                .get(*name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} not measured"));
            let value = if value.is_finite() {
                value.to_string()
            } else {
                out.attempted += 1;
                out.failed += 1;
                out.errors.push(format!("metric {name} has no sample"));
                "null".into()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();

    for note in &out.notes {
        println!("# {note}");
    }
    for e in &out.errors {
        eprintln!("# failed: {e}");
    }
    if let Some(json) = &out.chrome {
        let path = root.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::write(&path, json) {
            Ok(()) => println!("# trace {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(json: &str, section: &str) -> Vec<String> {
        let body = &json[json.find(&format!("\"{section}\"")).unwrap()..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).unwrap().to_string())
            .collect()
    }

    #[test]
    fn the_metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(names(json, "end_to_end"), END_TO_END);
        assert_eq!(names(json, "per_layer"), PER_LAYER);
        assert_eq!(names(json, "workloads"), WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload bigp_host --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("bigp_host", 9, 2.5, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload cold_grid --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
