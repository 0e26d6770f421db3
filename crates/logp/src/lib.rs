//! # bvl-logp — a cycle-accurate LogP machine
//!
//! Implements the LogP model exactly as §2.2 of *BSP vs LogP* defines it,
//! including the paper's formalized **Stalling Rule**:
//!
//! > At a given time `t`, let `⌈L/G⌉ − s` be the number of messages in
//! > transit destined for processor `i` that have been accepted but not yet
//! > delivered, and let `k` be the number of submitted messages for
//! > processor `i` yet to be accepted. Then `min{k, s}` of these messages
//! > are accepted from the output registers.
//!
//! The engine is event-driven ([`machine::LogpMachine`]); its faithfulness
//! is checked two independent ways: [`validate::validate`] re-derives every
//! §2.2 constraint from a recorded trace (latency bound, gaps, capacity,
//! justified stalls) under every nondeterminism policy ([`policy`]), and
//! [`reference::run_reference`] — a literal per-time-step stepper — must
//! agree with it exactly on deterministic-policy runs (differential tests).
//!
//! Programs implement [`process::LogpProcess`] (pull-based state machines);
//! [`process::Script`] covers the common case of a fixed operation schedule,
//! which is how the cross-simulation protocols in `bvl-core` drive their
//! communication phases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod machine;
pub mod metrics;
pub mod params;
pub mod policy;
pub mod process;
pub mod reference;
mod shard;
pub mod timeline;
pub mod validate;

pub use machine::LogpMachine;
pub use metrics::{LogpReport, ProcStats};
pub use params::LogpParams;
pub use policy::{AcceptOrder, DeliveryPolicy, LogpConfig, PolicyMedium};
pub use process::{FnLogpProcess, LogpProcess, Op, ProcView, Script};
pub use timeline::{Timeline, TimelineKind};
