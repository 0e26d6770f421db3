//! Observability for the BSP-vs-LogP engines.
//!
//! The paper's results are *decompositions of time* — Theorem 1 splits
//! LogP-on-BSP slowdown into `1 + g/G + ℓ/L`, Theorem 2 splits a superstep
//! into `w + T_synch + T_rout(h)` — so a flat makespan is not evidence, only
//! a number. This crate turns runs into auditable evidence:
//!
//! * [`Registry`] — a cloneable handle the engines feed with per-processor
//!   counters, fixed-bucket latency histograms, and structured [`Span`]s
//!   drawn from a closed [`SpanKind`] taxonomy (CB combine/broadcast,
//!   sort rounds, routing cycles, barrier waits, stalls). Disabled, every
//!   recording call is a single branch. Recording depth is a run-time
//!   [`Tier`] (`Off`/`CountersOnly`/`Sampled`/`Full`); spans stage in
//!   lock-free SPSC [`SpanRing`]s and serialize in batches at phase
//!   barriers, so tracing stays on at production cost.
//! * [`CostReport`] — a run's makespan attributed onto the paper's cost
//!   terms (`work`, `comm`, `sync`, `stall`) with a signed residual that is
//!   near zero when the accounting explains the run.
//! * [`export`] — Chrome/Perfetto `trace_event` JSON and a compact JSONL
//!   format for `bvl_model::Trace` + spans, selected by file extension, plus
//!   a dependency-free JSONL parser for validation tooling.
//! * [`cli`] — the shared `--trace-out <path>` and `--obs-tier <t>` flags.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod cli;
pub mod export;
pub mod registry;
pub mod ring;
pub mod span;
pub mod tier;

pub use attrib::{span_totals, CostReport};
pub use registry::{
    Counter, CounterBlock, Hist, HistSnapshot, Registry, DEFAULT_RING_CAPACITY, HIST_BUCKETS,
};
pub use ring::SpanRing;
pub use span::{Span, SpanKind};
pub use tier::{Sampler, Tier};
