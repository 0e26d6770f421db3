//! Crash consistency of the segment store. An append is one record line
//! plus a flush, so a crash tears at most the last line of the newest
//! segment, and `Store::open` skips a torn line (counting it in `torn()`)
//! instead of refusing the store. One test cuts the last record at every
//! byte offset in process; the other re-runs this test binary as a child
//! writer and SIGKILLs it after a seeded number of acknowledged appends.

use bvl_lab::{Cell, CodeFingerprint, OnStale, Store};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Set, to a store directory, in the kill test's child process.
const CHILD_DIR: &str = "BVL_CRASH_CHILD_DIR";
/// Cells a child appends before it stops waiting to be killed.
const CHILD_LIMIT: usize = 50_000;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-lab-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> Store {
    Store::open(dir, CodeFingerprint::from_parts("crash-recovery-test-api", "0"), OnStale::Error)
        .unwrap()
}

/// The `i`-th cell of a writer's sequence. Every sixteenth carries a
/// 16 kB row, so its record spans pages and a kill can land in its write.
fn cell(i: usize) -> Cell {
    let mut rows = vec![vec![i.to_string(), (i * i).to_string()]];
    if i % 16 == 15 {
        rows.push(vec!["x".repeat(16 * 1024)]);
    }
    let key = format!("{:016x}{i:016x}", (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let (exp, domain, params) = ("crash".into(), "seq".into(), format!("cell {i}"));
    Cell { key, exp, domain, index: i, params, plan: None, rows }
}

#[test]
fn torn_last_record_at_every_offset() {
    let dir = tmpdir("offsets");
    let seg = dir.join("segment-00000.jsonl");
    let build = || {
        let _ = fs::remove_dir_all(&dir);
        let mut s = open(&dir);
        (0..3).for_each(|i| s.put(cell(i)).unwrap());
    };
    build();
    let full = fs::read(&seg).unwrap();
    // The last record spans `start..full.len()`; its closing brace is the
    // byte before the final newline.
    let start = full[..full.len() - 1].iter().rposition(|&b| b == b'\n').unwrap() + 1;
    assert!(full.ends_with(b"}\n"));
    for cut in start..=full.len() {
        build();
        fs::write(&seg, &full[..cut]).unwrap();
        let (cells, torn) = if cut == start {
            (2, 0) // the whole record is gone
        } else if cut < full.len() - 1 {
            (2, 1) // its closing brace is gone
        } else {
            (3, 0)
        };
        let mut s = open(&dir);
        assert_eq!((s.len(), s.torn()), (cells, torn), "cut at byte {cut}");
        // A later append goes to a fresh segment and survives the next
        // reopen beside every cell kept.
        s.put(cell(3)).unwrap();
        drop(s);
        let s = open(&dir);
        assert_eq!((s.len(), s.torn()), (cells + 1, torn), "reopen after a cut at {cut}");
        for i in (0..cells).chain([3]) {
            assert_eq!(s.get(&cell(i).key), Some(&cell(i)), "cell {i} after a cut at {cut}");
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_writer_keeps_every_acked_cell() {
    if let Some(dir) = std::env::var_os(CHILD_DIR) {
        // The child: append the sequence, acknowledging each cell once
        // `put` has returned, until killed.
        let mut s = open(Path::new(&dir));
        for i in 0..CHILD_LIMIT {
            s.put(cell(i)).unwrap();
            println!("ack {i}");
        }
        std::process::exit(0);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0x6b11);
    for n in 0..8 {
        let dir = tmpdir(&format!("kill-{n}"));
        let kill_after: usize = rng.gen_range(1..=400);
        let mut child = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "killed_writer_keeps_every_acked_cell"])
            .args(["--nocapture", "--quiet", "--test-threads=1"])
            .env(CHILD_DIR, &dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
        let mut acked = 0;
        while acked < kill_after {
            let line = lines.next().expect("the child exited before it was killed").unwrap();
            if let Some(i) = line.strip_prefix("ack ") {
                assert_eq!(i.parse::<usize>().unwrap(), acked, "acks arrive in order");
                acked += 1;
            }
        }
        child.kill().unwrap(); // SIGKILL
        child.wait().unwrap();

        let s = open(&dir);
        for i in 0..acked {
            assert_eq!(s.get(&cell(i).key), Some(&cell(i)), "child {n}: acked cell {i} lost");
        }
        for c in s.cells() {
            let ours = c.index < CHILD_LIMIT && *c == cell(c.index);
            assert!(ours, "child {n}: cell {} is not in the written sequence", c.key);
        }
        assert!(s.torn() <= 1, "child {n}: {} torn lines", s.torn());
        fs::remove_dir_all(&dir).unwrap();
    }
}
