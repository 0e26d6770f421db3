//! The incremental sweep scheduler.
//!
//! [`run_grid`] takes a requested grid, partitions it against the store
//! into cached **hits** and to-be-computed **misses**, executes only the
//! misses in parallel, and journals each completion into the store the
//! moment it finishes — an interrupted grid resumes exactly where it
//! stopped, because every already-finished cell is a hit on the next run.
//!
//! Every grid in the workspace runs here: the shipped scenarios, submitted
//! scenario documents, and the uncached one-off grids of `exp_xover` and
//! `bench_engine` (pass `None` for the store).
//!
//! **Determinism contract** (load-bearing for the cache): each cell's RNG
//! stream is derived from `(master seed, domain, index)` — never from the
//! position of the cell in the miss list, the worker thread, or the
//! schedule — and rows come back in request order. A cell therefore
//! computes bit-identical rows whether it runs cold in a full sweep, warm
//! as the single missing cell of a resumed grid, or at any
//! `RAYON_NUM_THREADS`.
//!
//! Hit/miss counts land on [`Counter::CacheHits`]/[`Counter::CacheMisses`]
//! and per-miss compute latency on [`Hist::CellCompute`] when the caller
//! passes an enabled registry.

use crate::fingerprint::{cell_key, CodeFingerprint};
use crate::shard::ShardedStore;
use crate::store::Cell;
use bvl_exec::RunOptions;
use bvl_model::rngutil::SeedStream;
use bvl_obs::{Counter, Hist, Registry};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One requested grid cell: the domain point of the content address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellSpec {
    /// Sweep domain (salts the RNG stream, groups cells in the store).
    pub domain: String,
    /// Index within the domain (the RNG lane — *not* the position in the
    /// request, so partial grids keep their streams).
    pub index: usize,
    /// Human-readable cell parameters; part of the content address.
    pub params: String,
    /// Fault-plan line for adversarial cells; part of the content address.
    pub plan: Option<String>,
    /// Never serve this cell from cache and never store it. For cells
    /// whose run must be live (e.g. they feed an enabled observability
    /// registry whose spans are exported afterwards).
    pub force: bool,
}

impl CellSpec {
    /// A plain cacheable cell.
    pub fn new(domain: impl Into<String>, index: usize, params: impl Into<String>) -> CellSpec {
        CellSpec {
            domain: domain.into(),
            index,
            params: params.into(),
            plan: None,
            force: false,
        }
    }

    /// Attach a fault-plan line.
    #[must_use]
    pub fn plan(mut self, plan: impl Into<String>) -> CellSpec {
        self.plan = Some(plan.into());
        self
    }

    /// Mark the cell always-live (uncacheable).
    #[must_use]
    pub fn forced(mut self) -> CellSpec {
        self.force = true;
        self
    }
}

/// A requested grid: experiment name, master seed, base run options, and
/// the cells.
#[derive(Clone, Debug)]
pub struct GridSpec {
    /// Experiment name (the store's grouping key).
    pub exp: String,
    /// Master seed every cell's RNG stream derives from.
    pub master: u64,
    /// Base run options; their canonical form is part of every cell key.
    pub opts: RunOptions,
    /// The requested cells.
    pub cells: Vec<CellSpec>,
}

impl GridSpec {
    /// An empty grid with default options.
    pub fn new(exp: impl Into<String>, master: u64) -> GridSpec {
        GridSpec {
            exp: exp.into(),
            master,
            opts: RunOptions::new(),
            cells: Vec::new(),
        }
    }

    /// Append a cell.
    #[must_use]
    pub fn cell(mut self, cell: CellSpec) -> GridSpec {
        self.cells.push(cell);
        self
    }

    /// The content address of one of this grid's cells under `code`.
    pub fn key_of(&self, code: &CodeFingerprint, cell: &CellSpec) -> String {
        self.key_with(code, &self.opts.canonical(), cell)
    }

    /// [`GridSpec::key_of`] with the grid's canonical options computed
    /// once by the caller, for keying every cell of a grid.
    fn key_with(&self, code: &CodeFingerprint, canonical: &str, cell: &CellSpec) -> String {
        cell_key(
            code,
            &self.exp,
            &cell.domain,
            cell.index,
            &cell.params,
            canonical,
            cell.plan.as_deref(),
        )
    }
}

/// Per-cell context handed to the grid body.
pub struct Job {
    /// The cell's index within its domain.
    pub index: usize,
    /// Private RNG stream derived from `(master, domain, index)`.
    pub rng: ChaCha8Rng,
    /// Run options for this cell (a clone of the grid's base options).
    pub opts: RunOptions,
}

/// Outcome of a [`run_grid`] call.
#[derive(Debug)]
pub struct GridReport {
    /// Per-cell result rows, in request order.
    pub rows: Vec<Vec<Vec<String>>>,
    /// Cells served from the store.
    pub hits: usize,
    /// Cells computed (includes forced cells).
    pub misses: usize,
    /// Of the misses, how many were forced live.
    pub forced: usize,
    /// Worker threads used for the miss sweep.
    pub threads: usize,
    /// Wall-clock time of the whole call.
    pub elapsed: Duration,
}

impl GridReport {
    /// A zero report, the identity for [`GridReport::merge`].
    pub fn empty() -> GridReport {
        GridReport {
            rows: Vec::new(),
            hits: 0,
            misses: 0,
            forced: 0,
            threads: 0,
            elapsed: Duration::ZERO,
        }
    }

    /// Fold another grid's report in: rows append in order, counters add,
    /// elapsed times sum (the grids ran back to back).
    pub fn merge(&mut self, other: GridReport) {
        self.rows.extend(other.rows);
        self.hits += other.hits;
        self.misses += other.misses;
        self.forced += other.forced;
        self.threads = self.threads.max(other.threads);
        self.elapsed += other.elapsed;
    }

    /// Fraction of cells served from cache (1.0 for an all-hit grid; 0.0
    /// for an empty one).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// One-line summary for logs:
    /// `7 hits / 2 misses (1 forced) / 4 threads / 0.31s`.
    pub fn summary(&self) -> String {
        format!(
            "{} hits / {} misses ({} forced) / {} threads / {:.2}s",
            self.hits,
            self.misses,
            self.forced,
            self.threads,
            self.elapsed.as_secs_f64()
        )
    }
}

/// Execute `grid`, serving cached cells from `store` and computing the
/// rest via `f` in parallel. Pass `None` for an uncached (pure) sweep —
/// the execution and seeding paths are identical, so cached and uncached
/// runs of the same grid produce bit-identical rows. The store may have
/// any shard count: cell keys (and therefore rows) are shard-independent,
/// so the same grid against a 1-, 2- or 4-shard store is bit-identical.
pub fn run_grid<F>(
    grid: &GridSpec,
    store: Option<&ShardedStore>,
    registry: &Registry,
    f: F,
) -> io::Result<GridReport>
where
    F: Fn(&CellSpec, Job) -> Vec<Vec<String>> + Sync,
{
    let t0 = Instant::now();
    let code = match store {
        Some(s) => s.code().clone(),
        None => CodeFingerprint::current(),
    };

    let mut rows: Vec<Option<Vec<Vec<String>>>> = vec![None; grid.cells.len()];
    let mut missing: Vec<(usize, String)> = Vec::new(); // (slot, key)
    let mut hits = 0;
    let mut forced = 0;
    let canonical = grid.opts.canonical();
    for (slot, cell) in grid.cells.iter().enumerate() {
        let key = grid.key_with(&code, &canonical, cell);
        if cell.force {
            forced += 1;
            missing.push((slot, key));
            continue;
        }
        match store.and_then(|s| s.rows_of(&key)) {
            Some(cached) => {
                rows[slot] = Some(cached);
                hits += 1;
            }
            None => missing.push((slot, key)),
        }
    }

    let misses = missing.len();
    let threads = rayon::current_num_threads().min(misses.max(1));
    let seeds = SeedStream::new(grid.master);
    let io_err: Mutex<Option<io::Error>> = Mutex::new(None);
    let computed: Vec<(usize, Vec<Vec<String>>)> = missing
        .into_par_iter()
        .map(|(slot, key)| {
            let cell = &grid.cells[slot];
            let job = Job {
                index: cell.index,
                rng: seeds.derive(&cell.domain, cell.index as u64),
                opts: grid.opts.clone(),
            };
            let cell_t0 = Instant::now();
            let out = f(cell, job);
            registry.observe(Hist::CellCompute, cell_t0.elapsed().as_micros() as u64);
            // Journal the completion immediately: a grid interrupted after
            // this point resumes with this cell as a hit.
            if let Some(s) = store {
                if !cell.force {
                    let put = s.put(Cell {
                        key,
                        exp: grid.exp.clone(),
                        domain: cell.domain.clone(),
                        index: cell.index,
                        params: cell.params.clone(),
                        plan: cell.plan.clone(),
                        rows: out.clone(),
                    });
                    if let Err(e) = put {
                        io_err.lock().expect("err slot poisoned").get_or_insert(e);
                    }
                }
            }
            (slot, out)
        })
        .collect();
    if let Some(e) = io_err.into_inner().expect("err slot poisoned") {
        return Err(e);
    }
    for (slot, out) in computed {
        rows[slot] = Some(out);
    }

    registry.add(bvl_model::ProcId(0), Counter::CacheHits, hits as u64);
    registry.add(bvl_model::ProcId(0), Counter::CacheMisses, misses as u64);

    Ok(GridReport {
        rows: rows
            .into_iter()
            .map(|r| r.expect("every slot is a hit or a computed miss"))
            .collect(),
        hits,
        misses,
        forced,
        threads,
        elapsed: t0.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{OnStale, Store};
    use rand::RngCore;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bvl-lab-sched-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn grid(n: usize) -> GridSpec {
        let mut g = GridSpec::new("sched-test", 42);
        for i in 0..n {
            g = g.cell(CellSpec::new("dom", i, format!("i={i}")));
        }
        g
    }

    fn body(cell: &CellSpec, mut job: Job) -> Vec<Vec<String>> {
        vec![vec![cell.params.clone(), job.rng.next_u64().to_string()]]
    }

    #[test]
    fn uncached_grid_matches_request_order_and_is_deterministic() {
        let reg = Registry::disabled();
        let a = run_grid(&grid(16), None, &reg, body).unwrap();
        let b = run_grid(&grid(16), None, &reg, body).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.hits, 0);
        assert_eq!(a.misses, 16);
        assert_eq!(a.rows[7][0][0], "i=7");
    }

    #[test]
    fn second_run_is_all_hits_with_identical_rows() {
        let dir = tmpdir("warm");
        let code = CodeFingerprint::from_parts("api", "0");
        let store = ShardedStore::open(&dir, 1, code, OnStale::Error).unwrap();
        let reg = Registry::enabled(1);
        let cold = run_grid(&grid(12), Some(&store), &reg, body).unwrap();
        assert_eq!((cold.hits, cold.misses), (0, 12));
        let warm = run_grid(&grid(12), Some(&store), &reg, body).unwrap();
        assert_eq!((warm.hits, warm.misses), (12, 0));
        assert_eq!(warm.hit_rate(), 1.0);
        assert_eq!(cold.rows, warm.rows);
        assert_eq!(reg.counter(Counter::CacheHits), 12);
        assert_eq!(reg.counter(Counter::CacheMisses), 12);
        assert_eq!(reg.histogram(Hist::CellCompute).count, 12);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_grid_resumes_where_it_stopped() {
        let dir = tmpdir("resume");
        let code = CodeFingerprint::from_parts("api", "0");
        let store = ShardedStore::open(&dir, 1, code.clone(), OnStale::Error).unwrap();
        let reg = Registry::disabled();
        // "Interrupted" run: only the first half of the grid was requested
        // before the process died.
        let mut half = grid(16);
        half.cells.truncate(8);
        run_grid(&half, Some(&store), &reg, body).unwrap();
        drop(store);
        // Restart: reopen the store, request the full grid.
        let store = ShardedStore::open(&dir, 1, code, OnStale::Error).unwrap();
        let full = run_grid(&grid(16), Some(&store), &reg, body).unwrap();
        assert_eq!((full.hits, full.misses), (8, 8));
        // The resumed cells' streams are (domain, index)-derived, so the
        // rows equal a from-scratch uncached run.
        let fresh = run_grid(&grid(16), None, &reg, body).unwrap();
        assert_eq!(full.rows, fresh.rows);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forced_cells_never_cache() {
        let dir = tmpdir("forced");
        let code = CodeFingerprint::from_parts("api", "0");
        let store = ShardedStore::from_single(Store::open(&dir, code, OnStale::Error).unwrap());
        let reg = Registry::disabled();
        let g = GridSpec::new("forced-test", 1)
            .cell(CellSpec::new("dom", 0, "cached"))
            .cell(CellSpec::new("dom", 1, "live").forced());
        let cold = run_grid(&g, Some(&store), &reg, body).unwrap();
        assert_eq!((cold.hits, cold.misses, cold.forced), (0, 2, 1));
        let warm = run_grid(&g, Some(&store), &reg, body).unwrap();
        assert_eq!((warm.hits, warm.misses, warm.forced), (1, 1, 1));
        assert_eq!(store.len(), 1);
        assert_eq!(cold.rows, warm.rows, "forced cells are still deterministic");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_options_or_plans_get_distinct_keys() {
        let code = CodeFingerprint::from_parts("api", "0");
        let g = grid(1);
        let base = g.key_of(&code, &g.cells[0]);
        let mut seeded = g.clone();
        seeded.opts = RunOptions::new().seed(9);
        assert_ne!(base, seeded.key_of(&code, &seeded.cells[0]));
        let planned = g.cells[0].clone().plan("seed=1,dup=3");
        assert_ne!(base, g.key_of(&code, &planned));
    }
}
