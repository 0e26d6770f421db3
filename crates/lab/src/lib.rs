//! # bvl-lab — the content-addressed experiment service
//!
//! The `exp_*` binaries regenerate deterministic `(simulator × params ×
//! seed)` grids; before this crate every invocation recomputed the whole
//! grid. `bvl-lab` turns those grids into a **re-queryable result
//! database** — the shape in which experimental-methodology papers
//! (Gerbessiotis–Siniolakis' BSP sorting study, Ezhova's BSF
//! verification) present exactly this kind of parameter sweep — and the
//! batching/caching/serving layer the ROADMAP's production north star
//! needs.
//!
//! Three layers, one module each:
//!
//! * [`fingerprint`] — stable content addresses: a cell is keyed by the
//!   canonical run options, the domain point, the fault-plan line, and a
//!   code fingerprint (public-API inventory + crate version), so results
//!   survive restarts but never outlive the code that produced them.
//! * [`store`] — the crash-safe persistent store: append-only JSONL
//!   segments, in-memory index, atomic compaction, stale-generation
//!   invalidation.
//! * [`scheduler`] — the incremental executor and the one way every grid
//!   runs: partition a requested grid into hits and misses, compute only
//!   the misses (rayon, each cell seeded from `(master, domain, index)`,
//!   so warm and cold runs are bit-identical), journal each completion
//!   for resume.
//! * [`shard`] — the scale-out layer: [`shard::ShardedStore`] routes each
//!   cell to one of N independent store shards by a pure function of its
//!   content digest, so shard count never changes what a grid computes.
//! * [`http`] — the front end: a std-only nonblocking HTTP/1.1 JSON
//!   endpoint (`GET /cells`, `GET /status`, `GET /metrics`, `POST /run`)
//!   on an [`epoll`] event loop with a bounded worker pool for runs, plus
//!   the [`http::Experiment`] registration trait the `lab` CLI and the
//!   `exp_*` bins share.
//!
//! `unsafe` is denied crate-wide and appears only in [`epoll`], which
//! declares the five raw syscall bindings the event loop needs.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod epoll;
pub mod fingerprint;
pub mod http;
pub mod jsonio;
pub mod scheduler;
pub mod shard;
pub mod store;

pub use fingerprint::{cell_key, CodeFingerprint, Digest};
pub use http::{serve, Experiment, ScenarioError, ScenarioRunner, Server, Service};
pub use scheduler::{run_grid, CellSpec, GridReport, GridSpec, Job};
pub use shard::{shard_count_of, shard_of, ShardedStore};
pub use store::{Cell, GcReport, OnStale, Store};
