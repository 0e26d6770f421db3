//! # bvl-scenario — the declarative scenario plane
//!
//! Every experiment in this repo is a *parameterized comparison*: a grid of
//! (workload × machine params × routing × topology) cells driven through
//! [`bvl_lab::run_grid`]. This crate declares those grids as data: a new
//! scenario needs no rebuild and can be submitted to the lab service, and
//! the shipped `scenarios/*.scn` documents are the only declaration of the
//! repo's own experiments.
//!
//! This crate makes scenarios data:
//!
//! * [`doc`] — the [`ScenarioDoc`] document model: grids of typed cells
//!   ([`Work`]) with per-grid `RunOptions` knobs ([`bvl_fault::FaultPlan`] included),
//!   a line-oriented serializer ([`ScenarioDoc::to_text`]) and a one-line
//!   round-trip encoding ([`ScenarioDoc::repro`]).
//! * [`parse()`] — a hand-written std-only parser with byte-offset error
//!   messages; `parse(doc.to_text()) == doc` (proptested).
//! * [`topo`] — the shared topology vocabulary ([`Net`], [`measure`]),
//!   with stable text tokens.
//! * [`compile()`] — the lowering pass: a document becomes the exact
//!   [`bvl_lab::GridSpec`]/[`bvl_lab::CellSpec`]/`RunOptions` stacks the
//!   scheduler consumes, with position-stable store keys, so smoke and
//!   full runs share warm-cache hits.
//! * [`bounds`] — the Bilardi–Scquizzato–Silvestri-style lower-bound
//!   audit: proven communication lower bounds per cell kind, checked over
//!   every completed grid. A measured cost below a proven bound is not a
//!   fast run, it is a simulator bug, and fails the run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod compile;
pub mod doc;
pub mod parse;
pub mod topo;

pub use bounds::{audit_conformance_row, audit_grid, Violation};
pub use compile::{compile, grid_digest, CompileError, CompiledGrid, CompiledScenario};
pub use doc::{
    CellDoc, GridDoc, HostWl, OnlyIn, Scheme, ScenarioDoc, Strategy, SuperWl, View, Work,
};
pub use parse::{parse, ParseError};
pub use topo::{family_token, measure, parse_family, Net, HS};
