//! The sharded store: N independent [`Store`] shards behind one façade.
//!
//! A cell's 128-bit content address already distributes uniformly (dual-
//! lane FNV over the canonical identity), so sharding is a pure function
//! of the digest: [`shard_of`] takes the high 64-bit lane modulo the shard
//! count. The assignment depends on nothing else — not insertion order,
//! not thread schedule, not the directory's history — so it is stable
//! across restarts and across shard-count-preserving rebalances
//! (compaction, archive drops, segment rewrites all leave routing alone).
//!
//! On disk a sharded store is:
//!
//! ```text
//! <dir>/SHARDS.json           {"format":1,"shards":4}      (absent when 1)
//! <dir>/shard-000/…           a complete single Store directory
//! <dir>/shard-001/…
//! ```
//!
//! A 1-shard store uses `<dir>` itself as the shard directory — the exact
//! legacy layout — so every store written before sharding opens unchanged
//! and every tool that understood the old layout keeps working.
//!
//! Each shard keeps its own append stream, its own segments and its own
//! [`Store::gc`]; the façade holds one `Mutex` **per shard**, so writers
//! routed to different shards never contend.

use crate::fingerprint::CodeFingerprint;
use crate::jsonio::Cursor;
use crate::store::{Cell, GcReport, OnStale, Store};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// On-disk shard-manifest format version.
const SHARDS_FORMAT: u32 = 1;

/// The shard a key routes to: a pure function of the key's leading 64-bit
/// digest lane and the shard count. Keys are 32-hex-digit cell addresses;
/// any other string falls back to an FNV-1a fold of its bytes so routing
/// stays total (and still deterministic).
pub fn shard_of(key: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let lane = key
        .get(..16)
        .and_then(|prefix| u64::from_str_radix(prefix, 16).ok())
        .unwrap_or_else(|| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in key.as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        });
    (lane % shards as u64) as usize
}

fn shards_manifest_path(dir: &Path) -> PathBuf {
    dir.join("SHARDS.json")
}

fn parse_shards_manifest(text: &str) -> Result<(u32, usize), String> {
    let mut cur = Cursor::new(text);
    cur.expect(b'{')?;
    let mut format = None;
    let mut shards = None;
    loop {
        let field = cur.string()?;
        cur.expect(b':')?;
        match field.as_str() {
            "format" => format = Some(cur.u64()? as u32),
            "shards" => shards = Some(cur.u64()? as usize),
            other => return Err(format!("unknown shard-manifest field '{other}'")),
        }
        if !cur.eat(b',') {
            break;
        }
    }
    cur.expect(b'}')?;
    Ok((
        format.ok_or("shard manifest missing format")?,
        shards.ok_or("shard manifest missing shards")?,
    ))
}

/// The shard count recorded at `dir`: what `SHARDS.json` says, or 1 for a
/// legacy single-directory store (or an empty directory).
pub fn shard_count_of(dir: &Path) -> io::Result<usize> {
    let path = shards_manifest_path(dir);
    if !path.exists() {
        return Ok(1);
    }
    let text = fs::read_to_string(&path)?;
    let (format, shards) =
        parse_shards_manifest(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if format != SHARDS_FORMAT {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("shard manifest format {format} != supported {SHARDS_FORMAT}"),
        ));
    }
    if shards == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "shard manifest records 0 shards",
        ));
    }
    Ok(shards)
}

/// The shard subdirectory for shard `i` of `n` under `dir` (the directory
/// itself when `n == 1` — the legacy layout).
fn shard_dir(dir: &Path, i: usize, n: usize) -> PathBuf {
    if n <= 1 {
        dir.to_path_buf()
    } else {
        dir.join(format!("shard-{i:03}"))
    }
}

/// A content-addressed store split across N digest-routed shards.
///
/// The API mirrors [`Store`] where it matters to callers (get/put/len/
/// cells/gc/segments), aggregating across shards; lookups and appends lock
/// only the one shard the key routes to.
#[derive(Debug)]
pub struct ShardedStore {
    dir: PathBuf,
    code: CodeFingerprint,
    shards: Vec<Mutex<Store>>,
}

impl ShardedStore {
    /// Open (creating if needed) a store at `dir` with `shards` shards.
    ///
    /// A directory that already records a different shard count refuses to
    /// open: re-sharding moves cells between append-only logs, which is a
    /// migration (`gc` + re-import), not an open-time side effect. Pass
    /// [`shard_count_of`]'s answer to open whatever is on disk.
    pub fn open(
        dir: &Path,
        shards: usize,
        code: CodeFingerprint,
        on_stale: OnStale,
    ) -> io::Result<ShardedStore> {
        let shards = shards.max(1);
        fs::create_dir_all(dir)?;
        let on_disk = shard_count_of(dir)?;
        let manifest_exists = shards_manifest_path(dir).exists();
        if manifest_exists && on_disk != shards {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "store at {} has {on_disk} shard(s), requested {shards}; \
                     re-sharding an append-only store is a migration, not an open",
                    dir.display()
                ),
            ));
        }
        if !manifest_exists && shards > 1 {
            // A legacy single-dir store cannot silently become sharded:
            // its existing cells would route nowhere.
            let has_legacy_segments = fs::read_dir(dir)?
                .filter_map(|e| e.ok())
                .any(|e| e.file_name().to_string_lossy().starts_with("segment-"));
            if has_legacy_segments {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "store at {} is a legacy 1-shard store; opening it with \
                         {shards} shards would strand its cells",
                        dir.display()
                    ),
                ));
            }
            crate::store::write_atomic(
                &shards_manifest_path(dir),
                &format!("{{\"format\":{SHARDS_FORMAT},\"shards\":{shards}}}\n"),
            )?;
        }
        let mut opened = Vec::with_capacity(shards);
        for i in 0..shards {
            let sub = shard_dir(dir, i, shards);
            opened.push(Mutex::new(Store::open(&sub, code.clone(), on_stale)?));
        }
        Ok(ShardedStore {
            dir: dir.to_path_buf(),
            code,
            shards: opened,
        })
    }

    /// Wrap an already-open single [`Store`] as a 1-shard store — the
    /// zero-cost bridge for callers that open legacy directories.
    pub fn from_single(store: Store) -> ShardedStore {
        ShardedStore {
            dir: store.dir().to_path_buf(),
            code: store.code().clone(),
            shards: vec![Mutex::new(store)],
        }
    }

    /// Open with the shard count already recorded on disk (1 for a fresh
    /// or legacy directory).
    pub fn open_existing(
        dir: &Path,
        code: CodeFingerprint,
        on_stale: OnStale,
    ) -> io::Result<ShardedStore> {
        let n = if dir.exists() { shard_count_of(dir)? } else { 1 };
        ShardedStore::open(dir, n, code, on_stale)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to.
    pub fn route(&self, key: &str) -> usize {
        shard_of(key, self.shards.len())
    }

    /// Root directory of the sharded store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The code fingerprint this store writes under.
    pub fn code(&self) -> &CodeFingerprint {
        &self.code
    }

    /// When opened with [`OnStale::Keep`] over a stale store: the writing
    /// generation of the first stale shard (all shards are written by one
    /// process generation, so they agree).
    pub fn stale(&self) -> Option<String> {
        self.shards
            .iter()
            .find_map(|s| s.lock().expect("shard poisoned").stale().map(String::from))
    }

    /// Unparsable lines skipped during load, summed across shards.
    pub fn torn(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").torn())
            .sum()
    }

    /// Live cells across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").len())
            .sum()
    }

    /// Whether no shard holds a cell.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a cell's rows by content address (locks one shard).
    pub fn rows_of(&self, key: &str) -> Option<Vec<Vec<String>>> {
        self.shards[self.route(key)]
            .lock()
            .expect("shard poisoned")
            .get(key)
            .map(|c| c.rows.clone())
    }

    /// Look up a whole cell by content address (cloned out of the shard).
    pub fn get(&self, key: &str) -> Option<Cell> {
        self.shards[self.route(key)]
            .lock()
            .expect("shard poisoned")
            .get(key)
            .cloned()
    }

    /// Append a cell to the shard its key routes to. The record line is
    /// encoded before the shard lock is taken, so the lock covers only
    /// the append and the index update.
    pub fn put(&self, cell: Cell) -> io::Result<()> {
        let line = cell.encode();
        self.shards[self.route(&cell.key)]
            .lock()
            .expect("shard poisoned")
            .put_encoded(cell, &line)
    }

    /// All live cells across shards, sorted by `(exp, domain, index, key)`
    /// — the same total order a 1-shard store reports, so query output is
    /// independent of the shard count.
    pub fn cells(&self) -> Vec<Cell> {
        let guards = self.lock_all();
        let mut all: Vec<&Cell> = guards.iter().flat_map(|s| s.cells()).collect();
        all.sort_by(|a, b| {
            (&a.exp, &a.domain, a.index, &a.key).cmp(&(&b.exp, &b.domain, b.index, &b.key))
        });
        all.into_iter().cloned().collect()
    }

    /// Live cells of one experiment, in the same shard-count-independent
    /// order as [`ShardedStore::cells`].
    pub fn cells_for(&self, exp: &str) -> Vec<Cell> {
        self.with_cells_for(exp, |cells| cells.iter().map(|&c| c.clone()).collect())
    }

    /// Call `f` with one experiment's live cells, borrowed under every
    /// shard lock and ordered by `(domain, index, key)`. Each shard's
    /// index hands over only that experiment's cells, already sorted, so
    /// the cost is the experiment's size, not the store's.
    pub(crate) fn with_cells_for<R>(&self, exp: &str, f: impl FnOnce(&[&Cell]) -> R) -> R {
        let guards = self.lock_all();
        let mut cells: Vec<&Cell> = guards.iter().flat_map(|s| s.cells_for(exp)).collect();
        cells.sort_by(|a, b| (&a.domain, a.index, &a.key).cmp(&(&b.domain, b.index, &b.key)));
        f(&cells)
    }

    /// Every shard, locked in shard order. Every other path holds at most
    /// one shard lock at a time, so taking them in order cannot deadlock.
    fn lock_all(&self) -> Vec<MutexGuard<'_, Store>> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned"))
            .collect()
    }

    /// `(experiment, live-cell count)` pairs, sorted by name: a merge of
    /// each shard's per-experiment counts.
    pub fn experiments(&self) -> Vec<(String, usize)> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for s in &self.shards {
            for (name, n) in s.lock().expect("shard poisoned").experiments() {
                *counts.entry(name).or_default() += n;
            }
        }
        counts.into_iter().collect()
    }

    /// Segment files across shards, `(name, bytes)`; names carry a
    /// `shard-NNN/` prefix when the store is sharded.
    pub fn segments(&self) -> io::Result<Vec<(String, u64)>> {
        let n = self.shards.len();
        let mut out = Vec::new();
        for (i, s) in self.shards.iter().enumerate() {
            for (name, bytes) in s.lock().expect("shard poisoned").segments()? {
                if n > 1 {
                    out.push((format!("shard-{i:03}/{name}"), bytes));
                } else {
                    out.push((name, bytes));
                }
            }
        }
        Ok(out)
    }

    /// Segment files across shards, counted without listing directories
    /// (the length [`ShardedStore::segments`] would return).
    pub(crate) fn segment_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").segment_count())
            .sum()
    }

    /// Compact every shard (each shard's own [`Store::gc`]), summing the
    /// per-shard reports.
    pub fn gc(&self) -> io::Result<GcReport> {
        let mut total = GcReport::default();
        for s in &self.shards {
            let rep = s.lock().expect("shard poisoned").gc()?;
            total.live += rep.live;
            total.removed_segments += rep.removed_segments;
            total.removed_archives += rep.removed_archives;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bvl-lab-shard-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn code() -> CodeFingerprint {
        CodeFingerprint::from_parts("shard test api", "0.0.0")
    }

    fn cell(key: &str, i: usize) -> Cell {
        Cell {
            key: key.into(),
            exp: "e".into(),
            domain: "d".into(),
            index: i,
            params: format!("i={i}"),
            plan: None,
            rows: vec![vec![format!("r{i}")]],
        }
    }

    /// 32-hex keys with distinct high lanes.
    fn key(i: usize) -> String {
        format!(
            "{:016x}{:016x}",
            (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            i as u64
        )
    }

    #[test]
    fn routing_is_pure_total_and_in_range() {
        for n in [1usize, 2, 3, 4, 7] {
            for i in 0..64 {
                let k = key(i);
                let s = shard_of(&k, n);
                assert!(s < n);
                assert_eq!(s, shard_of(&k, n), "routing must be deterministic");
            }
        }
        // Non-hex keys still route deterministically.
        assert_eq!(shard_of("not hex at all", 4), shard_of("not hex at all", 4));
        assert_eq!(shard_of("", 3), shard_of("", 3));
    }

    #[test]
    fn one_shard_is_the_legacy_layout() {
        let dir = tmpdir("legacy");
        {
            let s = ShardedStore::open(&dir, 1, code(), OnStale::Error).unwrap();
            s.put(cell(&key(0), 0)).unwrap();
            assert!(!shards_manifest_path(&dir).exists(), "1 shard writes no manifest");
            assert!(dir.join("segment-00000.jsonl").exists(), "legacy file layout");
        }
        // The plain Store opens the same directory unchanged.
        let plain = Store::open(&dir, code(), OnStale::Error).unwrap();
        assert_eq!(plain.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_put_get_persists_and_spreads() {
        let dir = tmpdir("spread");
        {
            let s = ShardedStore::open(&dir, 4, code(), OnStale::Error).unwrap();
            for i in 0..64 {
                s.put(cell(&key(i), i)).unwrap();
            }
            assert_eq!(s.len(), 64);
        }
        let s = ShardedStore::open(&dir, 4, code(), OnStale::Error).unwrap();
        assert_eq!(s.len(), 64);
        assert_eq!(shard_count_of(&dir).unwrap(), 4);
        // Every cell lands on the shard its key routes to, and is found.
        let mut used = [false; 4];
        for i in 0..64 {
            let k = key(i);
            assert_eq!(s.rows_of(&k), Some(vec![vec![format!("r{i}")]]));
            used[shard_of(&k, 4)] = true;
        }
        assert!(used.iter().all(|&u| u), "64 spread keys must touch all 4 shards");
        // The aggregate view is sorted and complete.
        assert_eq!(s.cells().len(), 64);
        assert_eq!(s.experiments(), vec![("e".into(), 64)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_count_mismatch_refuses_to_open() {
        let dir = tmpdir("mismatch");
        drop(ShardedStore::open(&dir, 2, code(), OnStale::Error).unwrap());
        let err = ShardedStore::open(&dir, 4, code(), OnStale::Error).unwrap_err();
        assert!(err.to_string().contains("re-sharding"), "{err}");
        // open_existing adopts what is on disk.
        let s = ShardedStore::open_existing(&dir, code(), OnStale::Error).unwrap();
        assert_eq!(s.shard_count(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_store_cannot_silently_become_sharded() {
        let dir = tmpdir("strand");
        {
            let mut plain = Store::open(&dir, code(), OnStale::Error).unwrap();
            plain.put(cell(&key(1), 1)).unwrap();
        }
        let err = ShardedStore::open(&dir, 4, code(), OnStale::Error).unwrap_err();
        assert!(err.to_string().contains("legacy"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_compacts_every_shard() {
        let dir = tmpdir("gc");
        let s = ShardedStore::open(&dir, 2, code(), OnStale::Error).unwrap();
        for i in 0..32 {
            s.put(cell(&key(i), i)).unwrap();
        }
        for i in 0..32 {
            s.put(cell(&key(i), i)).unwrap(); // duplicates to fold
        }
        let rep = s.gc().unwrap();
        assert_eq!(rep.live, 32);
        assert_eq!(s.segments().unwrap().len(), 2, "one fresh segment per shard");
        assert!(s.segments().unwrap()[0].0.starts_with("shard-000/"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
