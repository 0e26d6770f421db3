//! # bvl-workloads — real-algorithm studies over the machine simulators
//!
//! The paper's comparison is only as convincing as the workloads driven
//! through it. The synthetic Theorem 1/2 grids exercise the machinery;
//! this crate drives *real algorithms* through the same `bvl-exec`
//! substrate and asks the questions the experimental literature asks:
//!
//! * [`sort`] — the BSP sample-sort study (Gerbessiotis–Siniolakis
//!   methodology): deterministic per-processor key generation on
//!   [`bvl_model::rngutil::SeedStream`] lanes, measured superstep cost
//!   decomposed into `w + g·h + ℓ`, and the **1-optimality ratio** —
//!   measured cost over the perfectly bucket-balanced cost of the same
//!   4-superstep schedule — reported per cell, on the native BSP machine
//!   *and* through the Theorem 2 cross-simulation onto LogP.
//! * [`stream`] — bounded-memory **pseudo-streaming** supersteps
//!   (Buurlage-style): any BSP workload re-run with
//!   [`bvl_exec::RunOptions::streamed`], its h-relations routed through a
//!   fixed working set of `window` messages per processor at one extra
//!   synchronization `ℓ` per round; the study quantifies the overhead
//!   against the classical one-shot relation.
//! * [`bsf`] — the **BSF** (Bulk Synchronous Farm, Ezhova–Sokolinsky)
//!   master-worker cost model as a third [`bvl_exec::Executor`] beside
//!   the BSP machine and the network router, with its closed-form
//!   predicted iteration time checked against an event-wise simulation
//!   with compute/transfer overlap, plus the model's speedup and
//!   scalability-boundary predictions.
//!
//! Everything here is deterministic under the workspace contract: given a
//! seed, results are bit-identical at any thread or shard count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bsf;
pub mod sort;
pub mod stream;

pub use bsf::{run_bsf, BsfMachine, BsfParams, BsfStudy};
pub use sort::{generate_keys, ideal_sort_cost, run_sort, SortConfig, SortStudy};
pub use stream::{run_stream, StreamConfig, StreamStudy};
