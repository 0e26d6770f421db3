//! The store's read views — `cells`, `cells_for`, `experiments` — and the
//! `GET /cells` / `GET /status` bodies built from them, checked two ways:
//!
//! * against a **last-writer-wins model** of the puts (a plain map from
//!   key to its last cell, sorted by `(exp, domain, index, key)`), after
//!   every operation that can change what is live: reopen, a duplicate
//!   `put`, a key re-recorded under another experiment or domain, a torn
//!   tail line and `gc`;
//! * against **golden bytes** in `tests/golden/`, recorded from the
//!   whole-store collect-and-sort read path that preceded the
//!   per-experiment index, at 1, 2 and 4 shards.
//!
//! Cells carry fixed keys, so neither the bodies nor the segments depend
//! on the code fingerprint. Params and rows hold quotes, backslashes,
//! control characters and non-ASCII text, so the byte comparison covers
//! the escaper too.

use bvl_lab::{serve, shard_of, Cell, CodeFingerprint, OnStale, Service, ShardedStore, Store};
use bvl_obs::Registry;
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// The experiments whose `GET /cells` bodies are recorded (`solo` ends
/// up empty, `nope` never existed).
const SERVED: [&str; 4] = ["alpha", "beta", "solo", "nope"];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bvl-lab-index-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn code() -> CodeFingerprint {
    CodeFingerprint::from_parts("store-index-test-api", "0")
}

/// A 32-hex key whose high lane spreads across shards.
fn key(i: u64) -> String {
    format!(
        "{:016x}{:016x}",
        i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        i ^ 0x5bd1_e995
    )
}

fn cell(
    key: &str,
    exp: &str,
    domain: &str,
    index: usize,
    params: &str,
    plan: Option<&str>,
    rows: &[&[&str]],
) -> Cell {
    Cell {
        key: key.into(),
        exp: exp.into(),
        domain: domain.into(),
        index,
        params: params.into(),
        plan: plan.map(String::from),
        rows: rows
            .iter()
            .map(|r| r.iter().map(|s| s.to_string()).collect())
            .collect(),
    }
}

const QUOTE: &str = "say \"hi\" to \"them\"";
const BACKSLASH: &str = "C:\\lab\\store\\";
const CONTROL: &str = "nul\u{0}soh\u{1}bs\u{8}ff\u{c}vt\u{b}us\u{1f}del\u{7f}";
const WHITESPACE: &str = "line one\nline two\r\n\ttabbed";
const UNICODE: &str = "γ̂=1.23 δ̂=4.56 café 日本 🚀";

/// The put sequence every test replays: two experiments over several
/// domains, one `(domain, index)` under two keys, a duplicate put, keys
/// re-recorded under another experiment and another domain, an
/// experiment that ends up empty, and non-hex keys.
fn puts() -> Vec<Cell> {
    let mut v = Vec::new();
    for i in 0..6u64 {
        let plan = (i % 2 == 1).then_some("seed=9,jitter=uniform:6");
        let params = match i {
            0 => format!("p={i}"),
            1 => format!("p={i} {QUOTE}"),
            2 => format!("p={i} {BACKSLASH}"),
            3 => format!("p={i} {CONTROL}"),
            4 => format!("p={i} {WHITESPACE}"),
            _ => format!("p={i} {UNICODE}"),
        };
        let rows: Vec<Vec<String>> = vec![
            vec![format!("r{i}"), QUOTE.into(), UNICODE.into()],
            vec![
                BACKSLASH.into(),
                CONTROL.into(),
                WHITESPACE.into(),
                String::new(),
            ],
        ];
        let rows: Vec<Vec<&str>> = rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let rows: Vec<&[&str]> = rows.iter().map(Vec::as_slice).collect();
        v.push(cell(
            &key(i),
            "alpha",
            "d1",
            i as usize,
            &params,
            plan,
            &rows,
        ));
    }
    for i in 0..4u64 {
        v.push(cell(
            &key(10 + i),
            "alpha",
            "d2",
            i as usize,
            &format!("n={i}"),
            None,
            &[&["only", "row"]],
        ));
    }
    // Same (domain, index) as key(2), different key: both are live.
    v.push(cell(
        &key(20),
        "alpha",
        "d1",
        2,
        "p=2 other options",
        Some(QUOTE),
        &[],
    ));
    for i in 0..5u64 {
        let rows: &[&[&str]] = match i {
            0 => &[],
            1 => &[&[]],
            2 => &[&[""]],
            3 => &[&[UNICODE], &[CONTROL, QUOTE]],
            _ => &[&["x"], &["y"], &["z"]],
        };
        v.push(cell(
            &key(30 + i),
            "beta",
            "b",
            i as usize,
            &format!("b={i}"),
            None,
            rows,
        ));
    }
    v.push(cell(
        "abc",
        "ünï\"code\\",
        "u",
        0,
        UNICODE,
        Some(CONTROL),
        &[&[BACKSLASH]],
    ));
    v.push(cell(
        "zz-not-hex",
        "beta",
        "b",
        7,
        "non-hex key",
        None,
        &[&["nh"]],
    ));
    v.push(cell(&key(40), "solo", "s", 0, "lonely", None, &[&["s"]]));
    // Duplicate put: last writer wins.
    v.push(cell(
        &key(3),
        "alpha",
        "d1",
        3,
        "p=3 rewritten",
        None,
        &[&["new", QUOTE]],
    ));
    // Re-recorded under another experiment (beta → alpha).
    v.push(cell(
        &key(31),
        "alpha",
        "d0",
        9,
        "moved from beta",
        None,
        &[&["moved"]],
    ));
    // Re-recorded under another domain within the same experiment.
    v.push(cell(
        &key(11),
        "alpha",
        "d3",
        1,
        "moved domain",
        Some("seed=1,dup=3"),
        &[&["d3"]],
    ));
    // The only cell of `solo` moves away: `solo` must vanish.
    v.push(cell(
        &key(40),
        "beta",
        "b",
        9,
        "left solo",
        None,
        &[&["was solo"]],
    ));
    v
}

/// The last-writer-wins view of `puts`, in `(exp, domain, index, key)`
/// order — what the store must report.
fn model(puts: &[Cell]) -> Vec<Cell> {
    let mut live: HashMap<&str, &Cell> = HashMap::new();
    for c in puts {
        live.insert(&c.key, c);
    }
    let mut cells: Vec<Cell> = live.into_values().cloned().collect();
    cells.sort_by(|a, b| {
        (&a.exp, &a.domain, a.index, &a.key).cmp(&(&b.exp, &b.domain, b.index, &b.key))
    });
    cells
}

fn model_experiments(cells: &[Cell]) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for c in cells {
        match counts.last_mut() {
            Some((name, n)) if *name == c.exp => *n += 1,
            _ => counts.push((c.exp.clone(), 1)),
        }
    }
    counts
}

fn model_for(cells: &[Cell], exp: &str) -> Vec<Cell> {
    cells.iter().filter(|c| c.exp == exp).cloned().collect()
}

/// Every experiment the model names, plus the served and unknown ones.
fn probe_names(want: &[Cell]) -> Vec<String> {
    let mut names: Vec<String> = model_experiments(want)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    names.extend(SERVED.iter().map(|s| s.to_string()));
    names
}

fn assert_store_views(store: &Store, want: &[Cell], when: &str) {
    let cells: Vec<Cell> = store.cells().into_iter().cloned().collect();
    assert_eq!(cells, want, "{when}: cells()");
    for exp in probe_names(want) {
        let got: Vec<Cell> = store.cells_for(&exp).into_iter().cloned().collect();
        assert_eq!(got, model_for(want, &exp), "{when}: cells_for({exp:?})");
    }
    assert_eq!(
        store.experiments(),
        model_experiments(want),
        "{when}: experiments()"
    );
    assert_eq!(store.len(), want.len(), "{when}: len()");
}

fn assert_sharded_views(store: &ShardedStore, want: &[Cell], when: &str) {
    assert_eq!(store.cells(), want, "{when}: cells()");
    for exp in probe_names(want) {
        assert_eq!(
            store.cells_for(&exp),
            model_for(want, &exp),
            "{when}: cells_for({exp:?})"
        );
    }
    assert_eq!(
        store.experiments(),
        model_experiments(want),
        "{when}: experiments()"
    );
    assert_eq!(store.len(), want.len(), "{when}: len()");
}

/// One HTTP/1.1 request over a fresh connection; returns (status, body).
fn request(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let req = format!("GET {path} HTTP/1.1\r\nHost: lab\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("recv");
    let status = response
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("")
        .to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The `"experiments":[…]` list of a `/status` body. Names are escaped,
/// so the closing `],"registered"` cannot occur inside one.
fn experiments_list(status: &str) -> &str {
    let start = status.find("\"experiments\":[").expect("experiments field");
    let end = status.find("],\"registered\":[").expect("registered field");
    &status[start..=end]
}

/// `GET /cells` for every served experiment, then the `/status`
/// experiments list, each labelled by its golden file name.
fn served_bodies(store: ShardedStore) -> Vec<(String, String)> {
    let service = Arc::new(Service::new(store, Registry::enabled(1), Vec::new()));
    let server = serve("127.0.0.1:0", Arc::clone(&service), 1).unwrap();
    let addr = server.addr();
    let mut out = Vec::new();
    for exp in SERVED {
        let (status, body) = request(addr, &format!("/cells?exp={exp}"));
        assert_eq!(status, "200", "{exp}: {body}");
        out.push((format!("cells_{exp}.json"), body));
    }
    let (status, body) = request(addr, "/status");
    assert_eq!(status, "200", "{body}");
    out.push((
        "status_experiments.json".into(),
        experiments_list(&body).to_string(),
    ));
    server.stop();
    out
}

fn golden(name: &str) -> String {
    let path = Path::new(GOLDEN).join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn assert_golden_bodies(store: ShardedStore, when: &str) {
    for (name, body) in served_bodies(store) {
        assert_eq!(
            body,
            golden(&name),
            "{when}: {name} differs from the recording"
        );
    }
}

/// `GET /cells` and the `/status` experiments list are byte-equal to the
/// recording at 1, 2 and 4 shards, freshly written and after a reopen.
#[test]
fn served_bodies_match_the_recording_at_1_2_and_4_shards() {
    let puts = puts();
    let want = model(&puts);
    for shards in [1usize, 2, 4] {
        let dir = tmpdir(&format!("bodies-{shards}"));
        let store = ShardedStore::open(&dir, shards, code(), OnStale::Error).unwrap();
        for c in &puts {
            store.put(c.clone()).unwrap();
        }
        assert_sharded_views(&store, &want, &format!("{shards} shards, written"));
        assert_golden_bodies(store, &format!("{shards} shards, written"));
        let store = ShardedStore::open(&dir, shards, code(), OnStale::Error).unwrap();
        assert_sharded_views(&store, &want, &format!("{shards} shards, reopened"));
        assert_golden_bodies(store, &format!("{shards} shards, reopened"));
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// The views track the model after every single put, and again after a
/// reopen replays the segments.
#[test]
fn views_follow_every_put_and_survive_reopen() {
    let puts = puts();
    let dir = tmpdir("each-put");
    {
        let mut store = Store::open(&dir, code(), OnStale::Error).unwrap();
        for (n, c) in puts.iter().enumerate() {
            store.put(c.clone()).unwrap();
            assert_store_views(&store, &model(&puts[..=n]), &format!("after put {n}"));
        }
    }
    let store = Store::open(&dir, code(), OnStale::Error).unwrap();
    assert_store_views(&store, &model(&puts), "reopened");
    fs::remove_dir_all(&dir).unwrap();
}

/// A crash tears the last record: reopening skips it, and the views are
/// the model of every put but the last — including the experiment the
/// torn put would have emptied.
#[test]
fn torn_tail_line_leaves_the_model_of_the_surviving_puts() {
    let puts = puts();
    let dir = tmpdir("torn");
    {
        let mut store = Store::open(&dir, code(), OnStale::Error).unwrap();
        for c in &puts {
            store.put(c.clone()).unwrap();
        }
    }
    let seg = dir.join("segment-00000.jsonl");
    let text = fs::read(&seg).unwrap();
    fs::write(&seg, &text[..text.len() - 7]).unwrap();
    let store = Store::open(&dir, code(), OnStale::Error).unwrap();
    assert_eq!(store.torn(), 1);
    let want = model(&puts[..puts.len() - 1]);
    assert!(
        want.iter().any(|c| c.exp == "solo"),
        "the torn put emptied solo"
    );
    assert_store_views(&store, &want, "torn tail");
    fs::remove_dir_all(&dir).unwrap();
}

/// The key of a segment line (keys in this file need no escaping).
fn line_key(line: &str) -> &str {
    let rest = line
        .strip_prefix("{\"key\":\"")
        .expect("record starts with its key");
    &rest[..rest.find('"').expect("closing quote")]
}

/// `gc` writes the live cells in view order, byte-equal to the
/// recording; at 2 and 4 shards each shard's fresh segment holds exactly
/// the recorded lines that route to it, in the same order. The views
/// hold across the compaction and a reopen of the compacted store.
#[test]
fn gc_writes_the_recorded_segment_bytes() {
    let puts = puts();
    let want = model(&puts);
    let recorded = golden("gc_segment.jsonl");
    for shards in [1usize, 2, 4] {
        let dir = tmpdir(&format!("gc-{shards}"));
        let store = ShardedStore::open(&dir, shards, code(), OnStale::Error).unwrap();
        for c in &puts {
            store.put(c.clone()).unwrap();
        }
        let rep = store.gc().unwrap();
        assert_eq!(rep.live, want.len());
        assert_sharded_views(&store, &want, &format!("{shards} shards, after gc"));
        let segments = store.segments().unwrap();
        assert_eq!(segments.len(), shards, "one fresh segment per shard");
        for (i, (name, _)) in segments.iter().enumerate() {
            let bytes = fs::read_to_string(dir.join(name)).unwrap();
            let expect: String = recorded
                .lines()
                .filter(|l| shard_of(line_key(l), shards) == i)
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(
                bytes, expect,
                "{shards} shards: {name} differs from the recording"
            );
        }
        drop(store);
        let store = ShardedStore::open(&dir, shards, code(), OnStale::Error).unwrap();
        assert_sharded_views(&store, &want, &format!("{shards} shards, gc + reopen"));
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A hand-written log that records one key under a second experiment
/// and a second domain (the later segment wins, as in a crash between a
/// compaction's rename and its unlinks): the cell is listed once, under
/// the experiment and domain of its last record.
#[test]
fn a_key_recorded_twice_is_listed_once_under_its_last_writer() {
    let dir = tmpdir("hand");
    fs::create_dir_all(&dir).unwrap();
    let rec = |key: &str, exp: &str, domain: &str, index: usize, row: &str| {
        format!(
            "{{\"key\":\"{key}\",\"exp\":\"{exp}\",\"domain\":\"{domain}\",\"index\":{index},\
             \"params\":\"i={index}\",\"payload\":[[\"{row}\"]]}}\n"
        )
    };
    let first = [
        rec("k1", "one", "d", 0, "a"),
        rec("k2", "one", "d", 1, "b"),
        rec("k3", "one", "d", 2, "c"),
        rec("k2", "two", "d", 1, "b-moved"),
    ]
    .concat();
    let second = [
        rec("k3", "one", "e", 5, "c-moved"),
        rec("k4", "two", "d", 0, "d"),
    ]
    .concat();
    fs::write(dir.join("segment-00000.jsonl"), first).unwrap();
    fs::write(dir.join("segment-00001.jsonl"), second).unwrap();

    let store = Store::open(&dir, code(), OnStale::Error).unwrap();
    let view: Vec<(&str, &str, usize, &str)> = store
        .cells()
        .into_iter()
        .map(|c| (c.exp.as_str(), c.domain.as_str(), c.index, c.key.as_str()))
        .collect();
    assert_eq!(
        view,
        vec![
            ("one", "d", 0, "k1"),
            ("one", "e", 5, "k3"),
            ("two", "d", 0, "k4"),
            ("two", "d", 1, "k2"),
        ]
    );
    let one: Vec<&str> = store
        .cells_for("one")
        .iter()
        .map(|c| c.key.as_str())
        .collect();
    assert_eq!(one, ["k1", "k3"]);
    let two: Vec<&str> = store
        .cells_for("two")
        .iter()
        .map(|c| c.key.as_str())
        .collect();
    assert_eq!(two, ["k4", "k2"]);
    assert_eq!(
        store.experiments(),
        vec![("one".to_string(), 2), ("two".to_string(), 2)]
    );
    assert_eq!(
        store.get("k2").unwrap().rows,
        vec![vec!["b-moved".to_string()]]
    );
    drop(store);

    let sharded = ShardedStore::open(&dir, 1, code(), OnStale::Error).unwrap();
    let keys: Vec<String> = sharded
        .cells_for("two")
        .into_iter()
        .map(|c| c.key)
        .collect();
    assert_eq!(keys, ["k4", "k2"]);
    assert_eq!(
        sharded.experiments(),
        vec![("one".to_string(), 2), ("two".to_string(), 2)]
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// The `"segments"` field of a `GET /status` body.
fn served_segments(addr: SocketAddr) -> usize {
    let (status, body) = request(addr, "/status");
    assert_eq!(status, "200", "{body}");
    body.split("\"segments\":")
        .nth(1)
        .and_then(|r| r.split(|ch: char| !ch.is_ascii_digit()).next())
        .and_then(|d| d.parse().ok())
        .unwrap_or_else(|| panic!("no segments field: {body}"))
}

/// `/status` serves the store's kept segment count. It must equal what a
/// directory listing finds after appends, rotation, `gc` and reopen.
#[test]
fn status_segments_track_appends_rotation_gc_and_reopen() {
    for shards in [1usize, 2, 4] {
        let dir = tmpdir(&format!("segments-{shards}"));
        let mut next = 0u64;
        let mut put_n = |store: &ShardedStore, n: u64| {
            for _ in 0..n {
                let k = key(next);
                store
                    .put(cell(&k, "alpha", "d", next as usize, "p", None, &[&["r"]]))
                    .unwrap();
                next += 1;
            }
        };
        let check = |service: &Service, addr: SocketAddr, when: &str| -> usize {
            let listed = service.store.segments().unwrap().len();
            assert_eq!(served_segments(addr), listed, "{shards} shards, {when}");
            listed
        };
        {
            let store = ShardedStore::open(&dir, shards, code(), OnStale::Error).unwrap();
            let service = Arc::new(Service::new(store, Registry::disabled(), Vec::new()));
            let server = serve("127.0.0.1:0", Arc::clone(&service), 1).unwrap();
            let addr = server.addr();
            assert_eq!(check(&service, addr, "empty"), 0);
            put_n(&service.store, 1);
            assert_eq!(check(&service, addr, "first append"), 1);
            // More than one segment's worth of lines per shard: rotation.
            put_n(&service.store, 700 * shards as u64);
            assert!(check(&service, addr, "rotated") > shards, "no rotation at {shards} shards");
            service.store.gc().unwrap();
            assert_eq!(check(&service, addr, "gc"), shards);
            put_n(&service.store, 3 * shards as u64);
            check(&service, addr, "append after gc");
            server.stop();
        }
        let store = ShardedStore::open(&dir, shards, code(), OnStale::Error).unwrap();
        let service = Arc::new(Service::new(store, Registry::disabled(), Vec::new()));
        let server = serve("127.0.0.1:0", Arc::clone(&service), 1).unwrap();
        let addr = server.addr();
        let reopened = check(&service, addr, "reopened");
        put_n(&service.store, 1);
        assert_eq!(check(&service, addr, "append after reopen"), reopened + 1);
        server.stop();
        fs::remove_dir_all(&dir).unwrap();
    }
}
