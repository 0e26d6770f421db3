//! `lab` — the front end of the content-addressed experiment service.
//!
//! ```sh
//! lab run <exp|all> [--smoke]   # run grids through the store (incremental)
//! lab run --scenario F [--smoke] # run a scenario document as data
//! lab validate                  # shipped .scn lowerings == recorded digests
//! lab emit <name>               # print a shipped scenario document
//! lab audit [--bench F]         # lower-bound audit over exported results
//! lab status                    # store summary: cells, segments, staleness
//! lab query <exp>               # dump an experiment's cached cells
//! lab diff                      # is the store current with this binary?
//! lab gc                        # compact segments, drop stale archives
//! lab serve [--addr A] [--workers N]   # HTTP JSON endpoint
//! ```
//!
//! Every store-touching subcommand takes `--dir <path>`; the default is
//! `$BVL_LAB_DIR`, falling back to `.lab`. The same directory is what the
//! `exp_*` binaries read and write when run with `BVL_LAB_DIR` set, so a
//! store warmed by `lab run` accelerates them and vice versa — the grids
//! (and therefore the cache keys) are shared via `bvl_bench::scn`, which
//! compiles the checked-in `scenarios/*.scn` documents.

use bvl_bench::{print_table, scn};
use bvl_lab::jsonio::Cursor;
use bvl_lab::{serve, shard_count_of, CodeFingerprint, OnStale, Service, ShardedStore};
use bvl_obs::Registry;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: lab <run|validate|emit|audit|status|query|diff|gc|serve> [args]\n\
         \n\
         lab run <exp|all> [--smoke] [--dir D]   incremental grid run\n\
         lab run --scenario F [--smoke] [--dir D] run a scenario document\n\
         lab validate                            shipped scenarios vs recorded digests\n\
         lab emit <name>                         print a shipped scenario's text\n\
         lab audit [--bench F]                   audit a BENCH_*.json export: the\n\
                                                 faults conformance lower bounds, or\n\
                                                 any file's acceptance block per-gate\n\
         lab status [--dir D]                    store summary\n\
         lab query <exp> [--dir D]               dump cached cells\n\
         lab diff [--dir D]                      staleness check (exit 1 if stale)\n\
         lab gc [--dir D]                        compact the store\n\
         lab serve [--addr A] [--workers N] [--dir D]\n\
         \n\
         store-touching subcommands also take --store-shards N (default:\n\
         whatever the store records; 1 for a fresh flat store)\n\
         \n\
         experiments: {}",
        scn::experiments()
            .iter()
            .map(|e| e.name().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    exit(2)
}

/// Pull `--flag value` out of the argument list (removing both tokens).
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("lab: {flag} needs a value");
        exit(2);
    }
    args.remove(i);
    Some(args.remove(i))
}

fn take_switch(args: &mut Vec<String>, switch: &str) -> bool {
    match args.iter().position(|a| a == switch) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn store_dir(args: &mut Vec<String>) -> PathBuf {
    take_flag(args, "--dir")
        .or_else(|| std::env::var("BVL_LAB_DIR").ok().filter(|d| !d.is_empty()))
        .unwrap_or_else(|| ".lab".into())
        .into()
}

/// Shard count for a store-touching subcommand: `--store-shards N` wins
/// (a fresh directory is created with that many shards; an existing one
/// must already match), otherwise whatever the directory records.
fn store_shards(args: &mut Vec<String>, dir: &Path) -> usize {
    if let Some(n) = take_flag(args, "--store-shards") {
        match n.parse() {
            Ok(n) if n >= 1 => return n,
            _ => {
                eprintln!("lab: --store-shards wants a positive integer, got {n}");
                exit(2);
            }
        }
    }
    match shard_count_of(dir) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("lab: bad shard manifest in {}: {e}", dir.display());
            exit(2);
        }
    }
}

fn open(dir: &Path, shards: usize, on_stale: OnStale) -> ShardedStore {
    match ShardedStore::open(dir, shards, CodeFingerprint::current(), on_stale) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lab: cannot open store at {}: {e}", dir.display());
            exit(2);
        }
    }
}

fn service(store: ShardedStore) -> Service {
    Service::new(store, Registry::enabled(1), scn::experiments())
        .with_scenario_runner(Box::new(scn::Runner))
}

/// Parse `BENCH_faults.json` (the exporter in `exp_faults`) into
/// `(sim, h, clean, faulted)` tuples for the lower-bound audit.
fn parse_bench_faults(text: &str) -> Result<Vec<(String, u64, u64, u64)>, String> {
    let mut c = Cursor::new(text);
    c.expect(b'{')?;
    let key = c.string()?;
    if key != "experiment" {
        return Err(format!("expected \"experiment\", got \"{key}\""));
    }
    c.expect(b':')?;
    let _ = c.string()?;
    c.expect(b',')?;
    let key = c.string()?;
    if key != "rows" {
        return Err(format!("expected \"rows\", got \"{key}\""));
    }
    c.expect(b':')?;
    c.expect(b'[')?;
    let mut out = Vec::new();
    if !c.eat(b']') {
        loop {
            c.expect(b'{')?;
            let mut sim = String::new();
            let (mut h, mut clean, mut faulted) = (0u64, 0u64, 0u64);
            loop {
                let field = c.string()?;
                c.expect(b':')?;
                match field.as_str() {
                    "sim" => sim = c.string()?,
                    "plan" => drop(c.string()?),
                    "h" => h = c.u64()?,
                    "clean" => clean = c.u64()?,
                    "faulted" => faulted = c.u64()?,
                    "p" | "attempts" => drop(c.u64()?),
                    "ok" => drop(c.boolean()?),
                    other => return Err(format!("unknown field \"{other}\"")),
                }
                if !c.eat(b',') {
                    break;
                }
            }
            c.expect(b'}')?;
            out.push((sim, h, clean, faulted));
            if !c.eat(b',') {
                break;
            }
        }
        c.expect(b']')?;
    }
    c.expect(b'}')?;
    Ok(out)
}

/// One field of an acceptance block: booleans are gates, everything else
/// is reported as context alongside them.
enum Gate {
    Bool(bool),
    Info(String),
}

/// Byte scanner for the acceptance fallback. The store's [`Cursor`] is
/// deliberately closed over the record schema (no floats, no lookahead),
/// and the exporters emit floats like `0.72` — so the generic audit path
/// carries its own tiny tokenizer instead of widening the store's.
struct Scan<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Scan<'a> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    /// A quoted string; the exporters only escape quotes and backslashes.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out.into_bytes())
                        .map_err(|e| format!("bad utf-8 in string: {e}"));
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(&c @ (b'"' | b'\\' | b'/')) => out.push(c as char),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        other => return Err(format!("bad escape: {other:?}")),
                    }
                    self.i += 1;
                }
                Some(&c) => {
                    out.push(c as char);
                    self.i += 1;
                }
            }
        }
    }

    /// A number literal, kept verbatim — the audit reports it, never
    /// computes with it.
    fn number(&mut self) -> Result<String, String> {
        self.ws();
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'-' | b'+' | b'e' | b'E'))
        {
            self.i += 1;
        }
        if start == self.i {
            return Err(format!("expected a value at byte {start}"));
        }
        Ok(String::from_utf8_lossy(&self.b[start..self.i]).into_owned())
    }

    /// One acceptance value: bool, number, string, or a flat array of
    /// strings/numbers (rendered for display).
    fn value(&mut self) -> Result<Gate, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b't') if self.b[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Gate::Bool(true))
            }
            Some(b'f') if self.b[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Gate::Bool(false))
            }
            Some(b'"') => Ok(Gate::Info(self.string()?)),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        self.ws();
                        items.push(match self.b.get(self.i) {
                            Some(b'"') => self.string()?,
                            _ => self.number()?,
                        });
                        if !self.eat(b',') {
                            break;
                        }
                    }
                    self.expect(b']')?;
                }
                Ok(Gate::Info(items.join(" ")))
            }
            _ => Ok(Gate::Info(self.number()?)),
        }
    }
}

/// Pull the `"acceptance"` object out of any `BENCH_*.json` exporter as
/// ordered `(field, value)` pairs. The block is the trailing object in
/// every exporter's fixed shape, so scanning starts at the *last*
/// occurrence of the key — row payloads never follow it.
fn parse_acceptance(text: &str) -> Result<Vec<(String, Gate)>, String> {
    let at = text
        .rfind("\"acceptance\"")
        .ok_or("no \"acceptance\" block")?;
    let mut s = Scan {
        b: &text.as_bytes()[at + "\"acceptance\"".len()..],
        i: 0,
    };
    s.expect(b':')?;
    s.expect(b'{')?;
    let mut out = Vec::new();
    loop {
        if s.eat(b'}') {
            break;
        }
        let key = s.string()?;
        s.expect(b':')?;
        out.push((key, s.value()?));
        s.eat(b',');
    }
    if out.is_empty() {
        return Err("acceptance block is empty".into());
    }
    if !out.iter().any(|(_, g)| matches!(g, Gate::Bool(_))) {
        return Err("acceptance block has no boolean gates".into());
    }
    Ok(out)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        usage();
    };
    args.remove(0);

    match cmd.as_str() {
        "run" => {
            let smoke = take_switch(&mut args, "--smoke");
            let scenario = take_flag(&mut args, "--scenario");
            let dir = store_dir(&mut args);
            if let Some(path) = scenario {
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("lab: cannot read scenario {path}: {e}");
                        exit(2);
                    }
                };
                let shards = store_shards(&mut args, &dir);
                let svc = service(open(&dir, shards, OnStale::Invalidate));
                match svc
                    .run_scenario(&text, smoke, Some(bvl_obs::cli::obs_tier()))
                    .expect("scenario runner is registered")
                {
                    Ok((name, rep)) => {
                        print_table(
                            &["scenario", "cells", "hits", "misses", "forced", "hit rate", "elapsed"],
                            &[vec![
                                name,
                                rep.rows.len().to_string(),
                                rep.hits.to_string(),
                                rep.misses.to_string(),
                                rep.forced.to_string(),
                                format!("{:.1}%", 100.0 * rep.hit_rate()),
                                format!("{:.2}s", rep.elapsed.as_secs_f64()),
                            ]],
                        );
                    }
                    Err(e) => {
                        eprintln!("lab: scenario {path} failed: {e}");
                        exit(1);
                    }
                }
                return;
            }
            let Some(exp) = args.first().cloned() else {
                usage();
            };
            args.remove(0);
            let shards = store_shards(&mut args, &dir);
            let svc = service(open(&dir, shards, OnStale::Invalidate));
            let names: Vec<String> = if exp == "all" {
                svc.names().iter().map(|n| n.to_string()).collect()
            } else {
                vec![exp]
            };
            let mut rows = Vec::new();
            for name in &names {
                match svc.run(name, smoke, Some(bvl_obs::cli::obs_tier())) {
                    None => {
                        eprintln!("lab: unknown experiment '{name}'");
                        exit(2);
                    }
                    Some(Err(e)) => {
                        eprintln!("lab: '{name}' failed: {e}");
                        exit(2);
                    }
                    Some(Ok(rep)) => rows.push(vec![
                        name.clone(),
                        rep.rows.len().to_string(),
                        rep.hits.to_string(),
                        rep.misses.to_string(),
                        rep.forced.to_string(),
                        format!("{:.1}%", 100.0 * rep.hit_rate()),
                        format!("{:.2}s", rep.elapsed.as_secs_f64()),
                    ]),
                }
            }
            print_table(
                &["experiment", "cells", "hits", "misses", "forced", "hit rate", "elapsed"],
                &rows,
            );
        }
        "validate" => {
            // Check every shipped scenario's lowering, full and smoke,
            // against its recorded digest: exp, master, canonical options,
            // cells, store keys and force flags, bit for bit.
            let mut rows = Vec::new();
            let mut bad = 0usize;
            for (name, smoke, want) in scn::RECORDED_DIGESTS {
                let compiled = scn::compiled(name, smoke);
                let ok = scn::digest_of(&compiled) == want;
                if !ok {
                    bad += 1;
                }
                rows.push(vec![
                    name.into(),
                    if smoke { "smoke" } else { "full" }.into(),
                    format!("{} grid(s), {} cell(s)", compiled.grids.len(), compiled.cells()),
                    if ok { "ok".into() } else { "DIGEST MISMATCH".into() },
                ]);
            }
            print_table(&["scenario", "mode", "compiled", "status"], &rows);
            if bad > 0 {
                eprintln!("lab: {bad} scenario lowering(s) diverge from their recorded digests");
                exit(1);
            }
        }
        "emit" => {
            let Some(name) = args.first() else {
                usage();
            };
            match scn::shipped(name) {
                Some(text) => print!("{text}"),
                None => {
                    eprintln!("lab: unknown shipped scenario '{name}'");
                    exit(2);
                }
            }
        }
        "audit" => {
            let path = take_flag(&mut args, "--bench").unwrap_or_else(|| "BENCH_faults.json".into());
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("lab: cannot read {path}: {e}");
                    exit(2);
                }
            };
            // Two layouts are audited, tried in order. The faults export
            // carries raw conformance rows and gets the lower-bound
            // audit; every other exporter carries an `acceptance` block,
            // whose boolean fields are reported as per-gate pass/fail. A
            // file matching neither is a loud error, not a skip.
            match parse_bench_faults(&text) {
                Ok(rows) => {
                    let mut violations = Vec::new();
                    for (sim, h, clean, faulted) in &rows {
                        for v in
                            bvl_scenario::audit_conformance_row(sim, *h as usize, *clean, *faulted)
                        {
                            violations.push(format!("{sim} h={h}: {v}"));
                        }
                    }
                    if violations.is_empty() {
                        println!(
                            "audit: {} row(s) in {path} respect the conformance lower bounds",
                            rows.len()
                        );
                    } else {
                        for v in &violations {
                            eprintln!("[audit] {v}");
                        }
                        eprintln!(
                            "lab: {} lower-bound violation(s) in {path} — a cost below a \
                             proven bound is a simulator bug",
                            violations.len()
                        );
                        exit(1);
                    }
                }
                Err(faults_err) => match parse_acceptance(&text) {
                    Ok(gates) => {
                        let mut failed = 0usize;
                        let mut total = 0usize;
                        let rows: Vec<Vec<String>> = gates
                            .iter()
                            .map(|(key, gate)| match gate {
                                Gate::Bool(ok) => {
                                    total += 1;
                                    if !ok {
                                        failed += 1;
                                    }
                                    vec![
                                        key.clone(),
                                        ok.to_string(),
                                        if *ok { "pass".into() } else { "FAIL".into() },
                                    ]
                                }
                                Gate::Info(v) => vec![key.clone(), v.clone(), "-".into()],
                            })
                            .collect();
                        print_table(&["gate", "value", "status"], &rows);
                        if failed > 0 {
                            eprintln!("lab: {failed} of {total} gate(s) in {path} failed");
                            exit(1);
                        }
                        println!("audit: all {total} gate(s) in {path} pass");
                    }
                    Err(acc_err) => {
                        eprintln!(
                            "lab: {path} matches no auditable layout — not the faults \
                             conformance export ({faults_err}); {acc_err}"
                        );
                        exit(2);
                    }
                },
            }
        }
        "status" => {
            let dir = store_dir(&mut args);
            let shards = store_shards(&mut args, &dir);
            let store = open(&dir, shards, OnStale::Keep);
            println!("store: {}", dir.display());
            println!("code:  {}", store.code());
            println!("shards: {}", store.shard_count());
            match store.stale() {
                Some(writer) => println!("stale: written by {writer}"),
                None => println!("stale: no"),
            }
            let segments = store.segments().unwrap_or_default();
            let bytes: u64 = segments.iter().map(|(_, b)| b).sum();
            println!(
                "cells: {} across {} segment(s), {} bytes, {} torn line(s)",
                store.len(),
                segments.len(),
                bytes,
                store.torn()
            );
            let rows: Vec<Vec<String>> = store
                .experiments()
                .into_iter()
                .map(|(name, cells)| vec![name, cells.to_string()])
                .collect();
            if !rows.is_empty() {
                print_table(&["experiment", "cells"], &rows);
            }
        }
        "query" => {
            let dir = store_dir(&mut args);
            let Some(exp) = args.first().cloned() else {
                usage();
            };
            args.remove(0);
            let shards = store_shards(&mut args, &dir);
            let store = open(&dir, shards, OnStale::Keep);
            let rows: Vec<Vec<String>> = store
                .cells_for(&exp)
                .into_iter()
                .map(|c| {
                    vec![
                        c.domain.clone(),
                        c.index.to_string(),
                        c.params.clone(),
                        c.plan.clone().unwrap_or_else(|| "-".into()),
                        c.rows.len().to_string(),
                        c.key.chars().take(12).collect(),
                    ]
                })
                .collect();
            if rows.is_empty() {
                println!("no cached cells for '{exp}'");
            } else {
                print_table(&["domain", "index", "params", "plan", "rows", "key"], &rows);
            }
        }
        "diff" => {
            let dir = store_dir(&mut args);
            let shards = store_shards(&mut args, &dir);
            let store = open(&dir, shards, OnStale::Keep);
            match store.stale() {
                Some(writer) => {
                    println!(
                        "stale: store written by code {writer}; running code is {}",
                        store.code()
                    );
                    println!(
                        "{} cached cell(s) would be invalidated on the next cached run",
                        store.len()
                    );
                    exit(1);
                }
                None => {
                    println!(
                        "current: store and binary agree on code {} ({} cells)",
                        store.code(),
                        store.len()
                    );
                }
            }
        }
        "gc" => {
            let dir = store_dir(&mut args);
            let shards = store_shards(&mut args, &dir);
            let store = open(&dir, shards, OnStale::Invalidate);
            match store.gc() {
                Ok(rep) => println!(
                    "gc: {} live cell(s) compacted; removed {} segment(s), {} stale archive(s)",
                    rep.live, rep.removed_segments, rep.removed_archives
                ),
                Err(e) => {
                    eprintln!("lab: gc failed: {e}");
                    exit(2);
                }
            }
        }
        "serve" => {
            let addr = take_flag(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:8091".into());
            let workers: usize = take_flag(&mut args, "--workers")
                .map(|w| w.parse().unwrap_or(4))
                .unwrap_or(4);
            let dir = store_dir(&mut args);
            let shards = store_shards(&mut args, &dir);
            let svc = Arc::new(service(open(&dir, shards, OnStale::Invalidate)));
            match serve(&addr, svc, workers) {
                Ok(server) => {
                    println!("lab: serving {} with {workers} worker(s)", server.addr());
                    println!("  GET  /status         store + cache counters");
                    println!("  GET  /metrics        counter snapshot + scheduler hit rate");
                    println!("  GET  /cells?exp=NAME cached cells with payloads");
                    println!(
                        "  POST /run            \
                         {{\"exp\":\"NAME\",\"smoke\":true,\"tier\":\"sampled:8\"}}"
                    );
                    loop {
                        std::thread::park();
                    }
                }
                Err(e) => {
                    eprintln!("lab: cannot bind {addr}: {e}");
                    exit(2);
                }
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_blocks_of_every_exporter_shape_scan() {
        let text = r#"{
  "experiment": "exp_sort",
  "rows": [{"p": 4, "ratio": 1.24}],
  "acceptance": {
    "pass": true,
    "cells": 6,
    "worst_ratio": 1.36,
    "error_rate": 0.0,
    "gated_workloads": ["logp_ring_p64_x32", "bsp_shift_p64_x16"],
    "envelope_ok": false
  }
}"#;
        let gates = parse_acceptance(text).expect("scans");
        let find = |k: &str| {
            gates
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, g)| match g {
                    Gate::Bool(b) => b.to_string(),
                    Gate::Info(v) => v.clone(),
                })
                .expect("key present")
        };
        assert_eq!(find("pass"), "true");
        assert_eq!(find("envelope_ok"), "false");
        assert_eq!(find("cells"), "6");
        assert_eq!(find("worst_ratio"), "1.36");
        assert_eq!(find("gated_workloads"), "logp_ring_p64_x32 bsp_shift_p64_x16");
    }

    #[test]
    fn files_without_gates_are_rejected_not_skipped() {
        assert!(parse_acceptance("{\"experiment\": \"exp_engine\", \"rows\": []}").is_err());
        assert!(parse_acceptance("{\"acceptance\": {}}").is_err());
        assert!(parse_acceptance("{\"acceptance\": {\"cells\": 6}}").is_err());
    }

    #[test]
    fn the_faults_layout_still_wins_the_dispatch() {
        let text = r#"{"experiment": "exp_faults", "rows": [
            {"sim": "bsp-on-logp", "plan": "x", "h": 4, "clean": 10, "faulted": 12, "p": 8, "attempts": 1, "ok": true}
        ]}"#;
        let rows = parse_bench_faults(text).expect("faults layout parses");
        assert_eq!(rows, vec![("bsp-on-logp".to_string(), 4, 10, 12)]);
        assert!(parse_acceptance(text).is_err());
    }
}
