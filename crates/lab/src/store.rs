//! The persistent, content-addressed result store.
//!
//! On disk a store is a directory:
//!
//! ```text
//! <dir>/MANIFEST.json          {"format":1,"code":"<hex>"}
//! <dir>/segment-00000.jsonl    one cell record per line, append-only
//! <dir>/segment-00001.jsonl    …
//! <dir>/stale-<code8>/…        archived segments from older code
//! ```
//!
//! Crash safety is by construction rather than by locking:
//!
//! * **Appends** are one `writeln!` + flush per cell. A crash can tear at
//!   most the final line of the newest segment; loading skips unparsable
//!   lines (counted in [`Store::torn`]) instead of refusing the store.
//! * **Rotation** closes the current segment and opens the next numbered
//!   one — no file is ever rewritten in place.
//! * **Compaction** ([`Store::gc`]) writes all live cells into a fresh
//!   segment via `.tmp` + atomic rename, *then* unlinks the old segments.
//!   A crash between those steps leaves duplicate records, which loading
//!   resolves last-writer-wins (by segment order).
//! * **Invalidation**: when the manifest's code fingerprint disagrees with
//!   the running binary's, the store is *stale* — depending on
//!   [`OnStale`], opening archives the old generation into a `stale-*/`
//!   subdirectory, fails, or loads it read-only for inspection
//!   (`lab diff` uses the latter to report what would be invalidated).

use crate::fingerprint::CodeFingerprint;
use crate::jsonio::{encode_rows_into, escape, escape_into, Cursor};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// On-disk format version; bump when record or manifest shapes change.
pub const FORMAT: u32 = 1;

/// Lines per segment before the writer rotates to the next file.
const SEGMENT_ROTATE_LINES: usize = 512;

/// One cached grid cell: identity components plus the result rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Content address (see [`crate::fingerprint::cell_key`]).
    pub key: String,
    /// Experiment name (`table1`, `faults`, …).
    pub exp: String,
    /// Sweep domain within the experiment (also the RNG salt).
    pub domain: String,
    /// Index within the domain (also the RNG lane).
    pub index: usize,
    /// Human-readable parameter string for this cell.
    pub params: String,
    /// Fault-plan line for adversarial cells.
    pub plan: Option<String>,
    /// Result payload: the cell's table rows, exactly as printed.
    pub rows: Vec<Vec<String>>,
}

impl Cell {
    /// The record line (no trailing newline).
    pub(crate) fn encode(&self) -> String {
        let mut line = String::with_capacity(self.encoded_len_hint());
        line.push_str("{\"key\":\"");
        escape_into(&mut line, &self.key);
        line.push_str("\",\"exp\":\"");
        escape_into(&mut line, &self.exp);
        line.push_str("\",\"domain\":\"");
        escape_into(&mut line, &self.domain);
        let _ = write!(line, "\",\"index\":{},\"params\":\"", self.index);
        escape_into(&mut line, &self.params);
        line.push('"');
        if let Some(plan) = &self.plan {
            line.push_str(",\"plan\":\"");
            escape_into(&mut line, plan);
            line.push('"');
        }
        line.push_str(",\"payload\":");
        encode_rows_into(&mut line, &self.rows);
        line.push('}');
        line
    }

    /// Bytes of this cell's strings plus their quoting and field names:
    /// the encoded size when nothing needs escaping, so a buffer sized by
    /// it rarely grows.
    pub(crate) fn encoded_len_hint(&self) -> usize {
        let rows: usize = self
            .rows
            .iter()
            .map(|r| 3 + r.iter().map(|c| c.len() + 3).sum::<usize>())
            .sum();
        96 + self.key.len()
            + self.exp.len()
            + self.domain.len()
            + self.params.len()
            + self.plan.as_ref().map_or(0, |p| p.len() + 10)
            + rows
    }

    pub(crate) fn decode(line: &str) -> Result<Cell, String> {
        let mut cur = Cursor::new(line);
        cur.expect(b'{')?;
        let mut cell = Cell {
            key: String::new(),
            exp: String::new(),
            domain: String::new(),
            index: 0,
            params: String::new(),
            plan: None,
            rows: Vec::new(),
        };
        let mut saw_key = false;
        let mut saw_payload = false;
        loop {
            let field = cur.string()?;
            cur.expect(b':')?;
            match field.as_str() {
                "key" => {
                    cell.key = cur.string()?;
                    saw_key = true;
                }
                "exp" => cell.exp = cur.string()?,
                "domain" => cell.domain = cur.string()?,
                "index" => cell.index = cur.u64()? as usize,
                "params" => cell.params = cur.string()?,
                "plan" => cell.plan = Some(cur.string()?),
                "payload" => {
                    cell.rows = cur.rows()?;
                    saw_payload = true;
                }
                other => return Err(format!("unknown record field '{other}'")),
            }
            if !cur.eat(b',') {
                break;
            }
        }
        cur.expect(b'}')?;
        if !cur.at_end() {
            return Err("trailing bytes after record".into());
        }
        if !saw_key || !saw_payload {
            return Err("record missing key or payload".into());
        }
        Ok(cell)
    }
}

/// What to do when the store on disk was written by different code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnStale {
    /// Archive the stale generation into `stale-<code8>/` and start fresh.
    Invalidate,
    /// Refuse to open (`io::ErrorKind::InvalidData`).
    Error,
    /// Load it anyway, read-only in spirit: `stale()` reports the writing
    /// generation so tools can warn. `put` still appends (the caller is
    /// expected not to).
    Keep,
}

/// Summary of a [`Store::gc`] compaction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Live cells rewritten into the fresh segment.
    pub live: usize,
    /// Old segment files removed.
    pub removed_segments: usize,
    /// Stale-generation archive directories removed.
    pub removed_archives: usize,
}

/// A live cell, ordered by its place in its experiment: `(domain, index,
/// key)`. The key map and the per-experiment index share the one cell.
#[derive(Debug)]
struct Placed(Arc<Cell>);

impl Placed {
    fn place(&self) -> (&str, usize, &str) {
        (&self.0.domain, self.0.index, &self.0.key)
    }
}

impl PartialEq for Placed {
    fn eq(&self, other: &Placed) -> bool {
        self.place() == other.place()
    }
}

impl Eq for Placed {}

impl PartialOrd for Placed {
    fn partial_cmp(&self, other: &Placed) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Placed {
    fn cmp(&self, other: &Placed) -> Ordering {
        self.place().cmp(&other.place())
    }
}

/// The live cells of each experiment, ordered by `(exp, domain, index,
/// key)`: the read views walk it instead of collecting and sorting the
/// whole store, so one experiment's cells cost that experiment's size and
/// the experiment list costs the number of experiments. An experiment
/// with no live cell has no entry.
type ExpIndex = BTreeMap<String, BTreeSet<Placed>>;

fn index_cell(by_exp: &mut ExpIndex, cell: &Arc<Cell>) {
    let placed = Placed(Arc::clone(cell));
    match by_exp.get_mut(&cell.exp) {
        Some(cells) => {
            cells.insert(placed);
        }
        None => {
            by_exp.insert(cell.exp.clone(), BTreeSet::from([placed]));
        }
    }
}

fn unindex_cell(by_exp: &mut ExpIndex, cell: &Arc<Cell>) {
    if let Some(cells) = by_exp.get_mut(&cell.exp) {
        cells.remove(&Placed(Arc::clone(cell)));
        if cells.is_empty() {
            by_exp.remove(&cell.exp);
        }
    }
}

/// The open store: an in-memory index over append-only JSONL segments.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    code: CodeFingerprint,
    index: HashMap<String, Arc<Cell>>,
    by_exp: ExpIndex,
    stale_code: Option<String>,
    writer: Option<BufWriter<File>>,
    next_segment: u32,
    segment_lines: usize,
    /// Segment files on disk: counted at open, bumped on rotation, reset
    /// by `gc`, so `/status` need not list the directory.
    segment_count: usize,
    torn: usize,
}

pub(crate) fn segment_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("segment-{id:05}.jsonl"))
}

pub(crate) fn segment_id(name: &str) -> Option<u32> {
    name.strip_prefix("segment-")?
        .strip_suffix(".jsonl")?
        .parse()
        .ok()
}

fn manifest_text(code: &CodeFingerprint) -> String {
    format!("{{\"format\":{FORMAT},\"code\":\"{}\"}}\n", escape(code.as_str()))
}

fn parse_manifest(text: &str) -> Result<(u32, String), String> {
    let mut cur = Cursor::new(text);
    cur.expect(b'{')?;
    let mut format = None;
    let mut code = None;
    loop {
        let field = cur.string()?;
        cur.expect(b':')?;
        match field.as_str() {
            "format" => format = Some(cur.u64()? as u32),
            "code" => code = Some(cur.string()?),
            other => return Err(format!("unknown manifest field '{other}'")),
        }
        if !cur.eat(b',') {
            break;
        }
    }
    cur.expect(b'}')?;
    Ok((
        format.ok_or("manifest missing format")?,
        code.ok_or("manifest missing code")?,
    ))
}

/// Write `text` to `path` atomically (`.tmp` + rename).
pub(crate) fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

impl Store {
    /// Open (creating if needed) the store at `dir` for code generation
    /// `code`, resolving a stale store per `on_stale`.
    pub fn open(dir: &Path, code: CodeFingerprint, on_stale: OnStale) -> io::Result<Store> {
        fs::create_dir_all(dir)?;
        let manifest_path = dir.join("MANIFEST.json");
        let mut stale_code = None;
        if manifest_path.exists() {
            let text = fs::read_to_string(&manifest_path)?;
            let (format, disk_code) = parse_manifest(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            if format != FORMAT {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("store format {format} != supported {FORMAT}"),
                ));
            }
            if disk_code != code.as_str() {
                match on_stale {
                    OnStale::Error => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "store written by code {disk_code}, running code is {code}"
                            ),
                        ));
                    }
                    OnStale::Invalidate => {
                        archive_generation(dir, &disk_code)?;
                    }
                    OnStale::Keep => stale_code = Some(disk_code),
                }
            }
        }
        if stale_code.is_none() {
            write_atomic(&manifest_path, &manifest_text(&code))?;
        }

        let mut segments: Vec<u32> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| segment_id(&e.file_name().to_string_lossy()))
            .collect();
        segments.sort_unstable();
        let mut index = HashMap::new();
        let mut torn = 0;
        for &id in &segments {
            let text = fs::read_to_string(segment_path(dir, id))?;
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match Cell::decode(line) {
                    Ok(cell) => {
                        index.insert(cell.key.clone(), Arc::new(cell));
                    }
                    Err(_) => torn += 1,
                }
            }
        }
        let mut by_exp = ExpIndex::new();
        for cell in index.values() {
            index_cell(&mut by_exp, cell);
        }
        Ok(Store {
            dir: dir.to_path_buf(),
            code,
            index,
            by_exp,
            stale_code,
            writer: None,
            next_segment: segments.last().map_or(0, |&m| m + 1),
            segment_lines: 0,
            segment_count: segments.len(),
            torn,
        })
    }

    /// The code fingerprint this store handle writes under.
    pub fn code(&self) -> &CodeFingerprint {
        &self.code
    }

    /// When opened with [`OnStale::Keep`] over a stale store: the code
    /// fingerprint that wrote it.
    pub fn stale(&self) -> Option<&str> {
        self.stale_code.as_deref()
    }

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Unparsable lines skipped during load (0 on a healthy store; >0
    /// after a crash tore an append, or on corruption).
    pub fn torn(&self) -> usize {
        self.torn
    }

    /// Number of live cells.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no cells.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Look up a cell by content address.
    pub fn get(&self, key: &str) -> Option<&Cell> {
        self.index.get(key).map(Arc::as_ref)
    }

    /// Append a cell (journal + index). Duplicate keys overwrite.
    pub fn put(&mut self, cell: Cell) -> io::Result<()> {
        let line = cell.encode();
        self.put_encoded(cell, &line)
    }

    /// [`Store::put`] with the record line already encoded, so a caller
    /// holding a lock around the store can encode before taking it.
    pub(crate) fn put_encoded(&mut self, cell: Cell, line: &str) -> io::Result<()> {
        if self.writer.is_none() || self.segment_lines >= SEGMENT_ROTATE_LINES {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(segment_path(&self.dir, self.next_segment))?;
            self.writer = Some(BufWriter::new(file));
            self.next_segment += 1;
            self.segment_lines = 0;
            self.segment_count += 1;
        }
        let w = self.writer.as_mut().expect("writer just ensured");
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()?;
        self.segment_lines += 1;
        // Last writer wins: the superseded cell leaves the index, even
        // when the new one takes the same place.
        let cell = Arc::new(cell);
        if let Some(old) = self.index.insert(cell.key.clone(), Arc::clone(&cell)) {
            unindex_cell(&mut self.by_exp, &old);
        }
        index_cell(&mut self.by_exp, &cell);
        Ok(())
    }

    /// All live cells, sorted by `(exp, domain, index, key)`.
    pub fn cells(&self) -> Vec<&Cell> {
        self.by_exp
            .values()
            .flatten()
            .map(|c| c.0.as_ref())
            .collect()
    }

    /// Live cells of one experiment, sorted by `(domain, index, key)`.
    pub fn cells_for(&self, exp: &str) -> Vec<&Cell> {
        self.by_exp.get(exp).map_or_else(Vec::new, |cells| {
            cells.iter().map(|c| c.0.as_ref()).collect()
        })
    }

    /// `(experiment, live-cell count)` pairs, sorted by name.
    pub fn experiments(&self) -> Vec<(String, usize)> {
        self.by_exp
            .iter()
            .map(|(name, cells)| (name.clone(), cells.len()))
            .collect()
    }

    /// Segment files currently on disk, `(name, bytes)`, in id order.
    pub fn segments(&self) -> io::Result<Vec<(String, u64)>> {
        let mut segs: Vec<(u32, String, u64)> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                let id = segment_id(&name)?;
                let bytes = e.metadata().ok()?.len();
                Some((id, name, bytes))
            })
            .collect();
        segs.sort();
        Ok(segs.into_iter().map(|(_, n, b)| (n, b)).collect())
    }

    /// Number of segment files, as [`Store::segments`] would list them,
    /// without touching the directory.
    pub(crate) fn segment_count(&self) -> usize {
        self.segment_count
    }

    /// Compact: rewrite every live cell into one fresh segment, then drop
    /// the superseded segment files and any stale-generation archives.
    pub fn gc(&mut self) -> io::Result<GcReport> {
        self.writer = None; // close the append stream before compacting
        let old: Vec<(String, u64)> = self.segments()?;
        let fresh_id = self.next_segment;
        let fresh = segment_path(&self.dir, fresh_id);
        let tmp = fresh.with_extension("jsonl.tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            for cell in self.cells() {
                writeln!(w, "{}", cell.encode())?;
            }
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        fs::rename(&tmp, &fresh)?;
        self.segment_count = old.len() + 1;
        let mut removed = 0;
        for (name, _) in &old {
            fs::remove_file(self.dir.join(name))?;
            removed += 1;
            self.segment_count -= 1;
        }
        let mut removed_archives = 0;
        for entry in fs::read_dir(&self.dir)?.filter_map(|e| e.ok()) {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("stale-") && entry.path().is_dir() {
                fs::remove_dir_all(entry.path())?;
                removed_archives += 1;
            }
        }
        self.next_segment = fresh_id + 1;
        self.segment_lines = 0;
        self.torn = 0;
        Ok(GcReport {
            live: self.index.len(),
            removed_segments: removed,
            removed_archives,
        })
    }
}

/// Move the current generation's files into `stale-<code8>/`.
fn archive_generation(dir: &Path, old_code: &str) -> io::Result<()> {
    let tag: String = old_code.chars().take(8).collect();
    let mut archive = dir.join(format!("stale-{tag}"));
    let mut n = 1;
    while archive.exists() {
        archive = dir.join(format!("stale-{tag}-{n}"));
        n += 1;
    }
    fs::create_dir_all(&archive)?;
    for entry in fs::read_dir(dir)?.filter_map(|e| e.ok()) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if segment_id(&name).is_some() || name == "MANIFEST.json" {
            fs::rename(entry.path(), archive.join(&name))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bvl-lab-store-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cell(key: &str, exp: &str, index: usize) -> Cell {
        Cell {
            key: key.into(),
            exp: exp.into(),
            domain: format!("{exp}-dom"),
            index,
            params: format!("p={index}"),
            plan: (index % 2 == 1).then(|| "seed=9,jitter=uniform:6".into()),
            rows: vec![vec![format!("r{index}"), "x \"quoted\"".into()]],
        }
    }

    fn code() -> CodeFingerprint {
        CodeFingerprint::from_parts("test api", "0.0.0")
    }

    #[test]
    fn record_encoding_round_trips() {
        for c in [cell("k0", "e", 0), cell("k1", "e", 1)] {
            assert_eq!(Cell::decode(&c.encode()).unwrap(), c);
        }
        assert!(Cell::decode("{\"key\":\"k\"}").is_err(), "payload required");
        assert!(Cell::decode("{\"pay").is_err());
    }

    #[test]
    fn put_get_persists_across_reopen() {
        let dir = tmpdir("persist");
        {
            let mut s = Store::open(&dir, code(), OnStale::Error).unwrap();
            for i in 0..20 {
                s.put(cell(&format!("k{i}"), "exp", i)).unwrap();
            }
            assert_eq!(s.len(), 20);
        }
        let s = Store::open(&dir, code(), OnStale::Error).unwrap();
        assert_eq!(s.len(), 20);
        assert_eq!(s.torn(), 0);
        assert_eq!(s.get("k7"), Some(&cell("k7", "exp", 7)));
        assert_eq!(s.cells_for("exp").len(), 20);
        assert_eq!(s.experiments(), vec![("exp".to_string(), 20)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_line_is_skipped_not_fatal() {
        let dir = tmpdir("torn");
        {
            let mut s = Store::open(&dir, code(), OnStale::Error).unwrap();
            s.put(cell("k0", "e", 0)).unwrap();
            s.put(cell("k1", "e", 1)).unwrap();
        }
        // Simulate a crash mid-append: truncate the last line of the
        // newest segment.
        let seg = segment_path(&dir, 0);
        let text = fs::read_to_string(&seg).unwrap();
        let keep = text.len() - 10;
        fs::write(&seg, &text[..keep]).unwrap();
        let s = Store::open(&dir, code(), OnStale::Error).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.torn(), 1);
        assert!(s.get("k0").is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_code_archives_or_errors_or_keeps() {
        let dir = tmpdir("stale");
        {
            let mut s = Store::open(&dir, code(), OnStale::Error).unwrap();
            s.put(cell("k0", "e", 0)).unwrap();
        }
        let newer = CodeFingerprint::from_parts("test api CHANGED", "0.0.0");
        // Error: refuses.
        let err = Store::open(&dir, newer.clone(), OnStale::Error).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Keep: loads, reports the writing generation.
        let kept = Store::open(&dir, newer.clone(), OnStale::Keep).unwrap();
        assert_eq!(kept.stale(), Some(code().as_str()));
        assert_eq!(kept.len(), 1);
        // Invalidate: archives and starts empty.
        let s = Store::open(&dir, newer.clone(), OnStale::Invalidate).unwrap();
        assert_eq!(s.len(), 0);
        assert!(s.stale().is_none());
        let archives: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("stale-"))
            .collect();
        assert_eq!(archives.len(), 1);
        // The fresh generation reopens clean under the new code.
        let s = Store::open(&dir, newer, OnStale::Error).unwrap();
        assert_eq!(s.len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_compacts_to_one_segment_and_drops_archives() {
        let dir = tmpdir("gc");
        let mut s = Store::open(&dir, code(), OnStale::Error).unwrap();
        for i in 0..700 {
            // > SEGMENT_ROTATE_LINES forces at least one rotation
            s.put(cell(&format!("k{i}"), "e", i)).unwrap();
        }
        // Overwrite some keys so gc has duplicates to fold.
        for i in 0..50 {
            s.put(cell(&format!("k{i}"), "e", i)).unwrap();
        }
        assert!(s.segments().unwrap().len() >= 2);
        let rep = s.gc().unwrap();
        assert_eq!(rep.live, 700);
        assert!(rep.removed_segments >= 2);
        assert_eq!(s.segments().unwrap().len(), 1);
        // Everything still reachable, and a reopen agrees.
        assert_eq!(s.len(), 700);
        drop(s);
        let s = Store::open(&dir, code(), OnStale::Error).unwrap();
        assert_eq!(s.len(), 700);
        assert_eq!(s.torn(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_after_reopen_land_in_a_new_segment() {
        let dir = tmpdir("rotate");
        {
            let mut s = Store::open(&dir, code(), OnStale::Error).unwrap();
            s.put(cell("a", "e", 0)).unwrap();
        }
        {
            let mut s = Store::open(&dir, code(), OnStale::Error).unwrap();
            s.put(cell("b", "e", 1)).unwrap();
            assert_eq!(s.segments().unwrap().len(), 2);
        }
        let s = Store::open(&dir, code(), OnStale::Error).unwrap();
        assert_eq!(s.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
