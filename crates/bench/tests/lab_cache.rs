//! End-to-end cache acceptance for the retrofitted experiment binaries:
//! run a binary twice against one `BVL_LAB_DIR` store and require (a)
//! bit-identical stdout and (b) a warm hit rate ≥ 90%.
//!
//! The smoke-matrix test runs in the normal suite; the full `exp_table1`
//! timing test (the ISSUE's ≥10× warm speedup floor) is `#[ignore]`d here
//! and exercised by the `lab-warm-cache` CI job under `--release`
//! (debug-build timings are noise). The `lab` binary's own surfaces are
//! driven here too: `query` on a damaged store, and `emit`/`validate`
//! over the shipped scenario documents.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-lab-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(bin: &str, args: &[&str], store: &PathBuf, workdir: &PathBuf) -> (Output, Duration) {
    std::fs::create_dir_all(workdir).expect("workdir");
    let t0 = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .env("BVL_LAB_DIR", store)
        .current_dir(workdir)
        .output()
        .expect("binary runs");
    (out, t0.elapsed())
}

fn hit_stats(stderr: &[u8]) -> (usize, usize) {
    // Sum the per-grid `[sweep] name: H hits / M misses ...` lines.
    let text = String::from_utf8_lossy(stderr);
    let mut hits = 0;
    let mut misses = 0;
    for line in text.lines().filter(|l| l.starts_with("[sweep]")) {
        let words: Vec<&str> = line.split_whitespace().collect();
        let grab = |marker: &str| -> usize {
            words
                .iter()
                .position(|w| *w == marker)
                .and_then(|i| words[i - 1].parse().ok())
                .unwrap_or(0)
        };
        hits += grab("hits");
        misses += grab("misses");
    }
    (hits, misses)
}

#[test]
fn warm_faults_smoke_hits_over_90_percent_with_identical_stdout() {
    let store = tmpdir("faults-store");
    let work = tmpdir("faults-work");
    let bin = env!("CARGO_BIN_EXE_exp_faults");

    let (cold, _) = run(bin, &["--smoke"], &store, &work);
    assert!(cold.status.success(), "cold run failed: {cold:?}");
    let (warm, _) = run(bin, &["--smoke"], &store, &work);
    assert!(warm.status.success(), "warm run failed: {warm:?}");

    assert_eq!(
        cold.stdout, warm.stdout,
        "stdout must be bit-identical cold vs warm"
    );
    let (hits, misses) = hit_stats(&warm.stderr);
    assert_eq!(hits + misses, 21, "smoke matrix is 21 cells");
    let rate = hits as f64 / (hits + misses) as f64;
    assert!(rate >= 0.9, "warm hit rate {rate:.2} below 0.9");

    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn uncached_and_cached_smoke_stdout_agree() {
    // The determinism contract across the cache boundary: running with no
    // store at all must print the same bytes as a cold cached run.
    let work_a = tmpdir("nostore-work");
    let work_b = tmpdir("store-work");
    let store = tmpdir("store-dir");
    let bin = env!("CARGO_BIN_EXE_exp_faults");

    std::fs::create_dir_all(&work_a).expect("workdir");
    let plain = Command::new(bin)
        .arg("--smoke")
        .env_remove("BVL_LAB_DIR")
        .current_dir(&work_a)
        .output()
        .expect("binary runs");
    let (cached, _) = run(bin, &["--smoke"], &store, &work_b);
    assert!(plain.status.success() && cached.status.success());
    assert_eq!(plain.stdout, cached.stdout);

    for d in [&work_a, &work_b, &store] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The ISSUE acceptance floor: a warm full `exp_table1` regeneration is
/// ≥ 10× faster than cold with bit-identical rows. Timing-sensitive, so
/// ignored in the debug suite; the `lab-warm-cache` CI job runs it with
/// `--release -- --ignored`.
#[test]
#[ignore = "timing assertion; run under --release (CI lab-warm-cache job)"]
fn warm_table1_is_ten_times_faster_and_identical() {
    let store = tmpdir("table1-store");
    let work = tmpdir("table1-work");
    let bin = env!("CARGO_BIN_EXE_exp_table1");

    let (cold, cold_elapsed) = run(bin, &[], &store, &work);
    assert!(cold.status.success(), "cold run failed: {cold:?}");
    let (warm, warm_elapsed) = run(bin, &[], &store, &work);
    assert!(warm.status.success(), "warm run failed: {warm:?}");

    assert_eq!(cold.stdout, warm.stdout, "stdout must be bit-identical");
    let (hits, misses) = hit_stats(&warm.stderr);
    assert_eq!((hits, misses), (18, 0), "warm table1 serves entirely from cache");

    let speedup = cold_elapsed.as_secs_f64() / warm_elapsed.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 10.0,
        "warm speedup {speedup:.1}x below 10x (cold {cold_elapsed:?}, warm {warm_elapsed:?})"
    );

    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&work);
}

/// `lab query` prints a 12-character key prefix. A damaged store can
/// hold keys shorter than that, or with a multi-byte character across
/// byte 12; the listing must show them, not panic.
#[test]
fn query_lists_cells_whose_keys_are_short_or_not_char_aligned() {
    use bvl_lab::{Cell, CodeFingerprint, OnStale, Store};
    let dir = tmpdir("damaged-keys");
    let keys = [
        "0123456789abcdef0123456789abcdef",
        "00112233445566778899aabbccddeeff",
        "ffeeddccbbaa99887766554433221100",
    ];
    {
        let mut store = Store::open(&dir, CodeFingerprint::current(), OnStale::Error).unwrap();
        for (i, key) in keys.iter().enumerate() {
            store
                .put(Cell {
                    key: key.to_string(),
                    exp: "bsf".into(),
                    domain: "d".into(),
                    index: i,
                    params: format!("i={i}"),
                    plan: None,
                    rows: vec![vec![format!("r{i}")]],
                })
                .unwrap();
        }
    }
    // Damage two records' keys in place: one too short to slice, one
    // with a two-byte character straddling byte 12.
    let seg = dir.join("segment-00000.jsonl");
    let text = std::fs::read_to_string(&seg).unwrap();
    let text = text
        .replace(keys[1], "abc")
        .replace(keys[2], "0123456789aé-rest");
    std::fs::write(&seg, text).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_lab"))
        .args(["query", "--dir"])
        .arg(&dir)
        .arg("bsf")
        .output()
        .expect("lab runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "lab query failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    for prefix in ["0123456789ab", "abc", "0123456789aé"] {
        assert!(
            stdout
                .lines()
                .any(|l| l.trim_end_matches(['|', ' ']).ends_with(prefix)),
            "no row ends with key prefix {prefix:?}:\n{stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `lab emit` prints each shipped document exactly as checked in, an
/// unknown name is a usage error rather than a panic, and `lab validate`
/// finds every shipped lowering at its recorded digest.
#[test]
fn emit_prints_the_shipped_documents_and_validate_passes() {
    let lab = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_lab"))
            .args(args)
            .output()
            .expect("lab runs")
    };
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    for (name, _) in bvl_bench::scn::SHIPPED {
        let out = lab(&["emit", name]);
        assert!(out.status.success(), "lab emit {name}: {out:?}");
        let on_disk = std::fs::read(dir.join(format!("{name}.scn"))).unwrap();
        assert!(out.stdout == on_disk, "lab emit {name} differs from scenarios/{name}.scn");
    }

    let out = lab(&["emit", "nope"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "lab emit nope: {stderr}");
    assert!(!stderr.contains("panicked"), "lab emit nope panicked: {stderr}");
    assert!(stderr.contains("unknown shipped scenario 'nope'"), "{stderr}");

    let out = lab(&["validate"]);
    assert!(
        out.status.success(),
        "lab validate failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
