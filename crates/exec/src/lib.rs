//! # bvl-exec — the execution substrate
//!
//! BSP, LogP, and the §3 networks are *interchangeable layers* related by
//! constant-factor simulations; this crate defines the contracts that make
//! the workspace's engines interchangeable in code:
//!
//! * [`Executor`] — the run-loop contract (step / halt / uniform
//!   [`RunOutcome`]) of the stepped engines (BSP machine, network router,
//!   BSF machine), with [`drive`] as their one budget-enforcing loop.
//! * [`RunOptions`] — the one way to parameterize a run (seed, trace,
//!   registry, observability tier, LogP shards, clock base, budget, fault
//!   decorator, streaming window), replacing positional-argument growth and
//!   forked `*_obs` entry points.
//! * [`Instruments`] — the per-machine instrumentation bundle (trace,
//!   registry, message-id allocator), deduplicated out of every engine.
//! * [`Medium`] — the transport seam between submission and delivery, so a
//!   LogP machine can run over the abstract latency-`L` channel or over a
//!   concrete routed topology; [`WrapMedium`] decorates that seam (the
//!   fault-injection hook, carried by [`RunOptions::fault`]).
//! * [`Phase`] — the shared same-instant event ordering
//!   (deliver < submit < ready).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod medium;
mod options;
mod outcome;
mod phase;

pub use medium::{Medium, WrapMedium};
pub use options::{Instruments, RunOptions};
pub use outcome::{drive, Executor, RunOutcome};
pub use phase::Phase;
