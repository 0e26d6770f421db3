//! # bvl-bsp — a superstep-accurate BSP machine
//!
//! Implements the Bulk-Synchronous Parallel model exactly as defined in §2.1
//! of *BSP vs LogP*: a `p`-processor virtual machine that executes a sequence
//! of supersteps, each made of a local computation phase, a global
//! communication phase, and a barrier synchronization, with superstep cost
//!
//! ```text
//! T_superstep = w + g·h + ℓ
//! ```
//!
//! where `w` is the maximum local work at any processor, `h` the maximum
//! number of messages sent *or* received by any processor, and `g`, `ℓ` the
//! machine's bandwidth and latency/synchronization parameters.
//!
//! Faithfulness notes:
//!
//! * Messages sent in superstep `t` are available at destinations only at the
//!   start of superstep `t + 1`.
//! * "The previous contents of the input pools, if any, are discarded" — by
//!   default, unread inbox messages are dropped at the communication phase,
//!   exactly as the paper prescribes. [`params::BspConfig::retain_unread`]
//!   opts out for programs written against friendlier runtimes.
//! * The same program yields the same results for every `(g, ℓ)`; the
//!   parameters only enter the cost ledger, never the semantics. This is the
//!   portability property §2.1 highlights, and tests assert it.
//!
//! Programs implement [`process::BspProcess`]; [`machine::BspMachine`] runs
//! them one superstep at a time, each process's local phase in id order on
//! the calling thread, so delivery order is `(sender id, submission order)`
//! by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod machine;
pub mod params;
pub mod process;
pub mod report;
pub mod spmd;

pub use cost::{CostLedger, SuperstepRecord};
pub use machine::{BspMachine, RunReport};
pub use params::{BspConfig, BspParams};
pub use report::{BspProcStats, BspReport, SuperstepProfile};
pub use process::{BspProcess, Status, SuperstepCtx};
pub use spmd::FnProcess;
