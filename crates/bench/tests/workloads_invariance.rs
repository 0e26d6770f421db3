//! Shard/thread invariance of the workload-study rows.
//!
//! The determinism contract extends to the new real-algorithm plane: an
//! `exp_sort` or `exp_bsf` row is a function of its cell's parameters
//! alone, bit-identical whatever `RunOptions::shards` the engines run at and
//! whatever `RAYON_NUM_THREADS` the grid fans out over. (The sample-sort
//! output correctness proptest lives with the workload itself, in
//! `bvl_workloads::sort`.)
//!
//! Kept as a single `#[test]` on purpose: the vendored rayon shim reads
//! `RAYON_NUM_THREADS` on every pool query, so the test mutates the
//! process environment — concurrent tests in this binary would race on it.

use bvl_bench::scn;
use bvl_lab::Job;
use bvl_model::rngutil::SeedStream;

/// Every row of the three workload grids, computed through the same
/// compiled-scenario dispatch the binaries and the lab service use.
fn all_rows(shards: usize) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for name in ["sort", "stream", "bsf"] {
        let scenario = scn::compiled(name, false);
        for grid in &scenario.grids {
            let seeds = SeedStream::new(grid.spec.master);
            for (cell, work) in grid.spec.cells.iter().zip(&grid.work) {
                let job = Job {
                    index: cell.index,
                    rng: seeds.derive(&cell.domain, cell.index as u64),
                    opts: grid.spec.opts.clone().shards(shards),
                };
                let (cell_rows, _) = scn::run_work(work, cell, job, None);
                rows.extend(cell_rows);
            }
        }
    }
    rows
}

#[test]
fn workload_rows_are_shard_and_thread_invariant() {
    let baseline = all_rows(1);
    assert_eq!(baseline.len(), 6 + 4 + 6, "one row per sort, stream and bsf cell");

    for shards in [2usize, 4] {
        assert_eq!(
            baseline,
            all_rows(shards),
            "rows diverged at {shards} shards"
        );
    }

    for threads in ["1", "2", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        assert_eq!(
            baseline,
            all_rows(1),
            "rows diverged at RAYON_NUM_THREADS={threads}"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}
