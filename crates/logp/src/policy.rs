//! Nondeterminism policies.
//!
//! §2.2 identifies two sources of nondeterminism in LogP: (i) the delay
//! between acceptance and delivery (anything up to `L`), and (ii) the order
//! in which pending submissions are accepted under congestion (the Stalling
//! Rule fixes *how many* are accepted per step, "while the order ... is left
//! completely unspecified. ... we assume that any order is possible").
//!
//! The engine makes both axes pluggable so that program correctness — "the
//! required input-output map under all admissible executions" — can be
//! tested against several adversaries.

use crate::params::LogpParams;
use crate::timeline::TimelineKind;
use bvl_exec::Medium;
use bvl_model::{Envelope, ProcId, Steps};
use rand::{Rng, RngCore};

/// When an accepted message is delivered, relative to its acceptance time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryPolicy {
    /// Always exactly `L` after acceptance — the latest admissible instant
    /// and the schedule the cross-simulation analyses assume.
    AtLatencyBound,
    /// As early as possible (one step after acceptance).
    Eager,
    /// Uniformly random in `[1, L]` after acceptance.
    Uniform,
}

impl DeliveryPolicy {
    /// Pick a delivery time for a message accepted at `accepted`.
    pub fn delivery_time<R: RngCore + ?Sized>(self, accepted: Steps, l: u64, rng: &mut R) -> Steps {
        let delay = match self {
            DeliveryPolicy::AtLatencyBound => l,
            DeliveryPolicy::Eager => 1,
            DeliveryPolicy::Uniform => rng.gen_range(1..=l.max(1)),
        };
        accepted + Steps(delay)
    }
}

/// The pure-LogP [`Medium`]: the abstract latency-`L` channel with uniform
/// per-destination capacity `⌈L/G⌉` and a pluggable [`DeliveryPolicy`].
/// This is the default medium of every `LogpMachine`; swapping it for a
/// routed-network medium is what turns the machine into a stacked
/// simulation.
#[derive(Clone, Copy, Debug)]
pub struct PolicyMedium {
    delivery: DeliveryPolicy,
    l: u64,
    capacity: u64,
}

impl PolicyMedium {
    /// The medium matching `params` and a delivery policy.
    pub fn new(params: LogpParams, delivery: DeliveryPolicy) -> PolicyMedium {
        PolicyMedium {
            delivery,
            l: params.l,
            capacity: params.capacity(),
        }
    }
}

impl Medium for PolicyMedium {
    fn capacity(&self, _dst: ProcId, _now: Steps) -> u64 {
        self.capacity
    }

    fn delivery_time(&mut self, _env: &Envelope, now: Steps, rng: &mut dyn RngCore) -> Steps {
        self.delivery.delivery_time(now, self.l, rng)
    }

    fn name(&self) -> &'static str {
        "logp"
    }

    fn shard_replica(&self) -> Option<Box<dyn Medium + Send>> {
        // Stateless apart from `Copy` parameters: every shard can carry its
        // own copy and the per-destination behaviour is unchanged.
        Some(Box::new(*self))
    }
}

/// The order in which pending (submitted, unaccepted) messages for a
/// congested destination are accepted as capacity frees up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcceptOrder {
    /// Oldest submission first (ties by sender id).
    Fifo,
    /// Newest submission first — a simple adversary.
    Lifo,
    /// Uniformly random among pending messages.
    Random,
}

/// Execution options for a LogP machine run.
#[derive(Clone, Copy, Debug)]
pub struct LogpConfig {
    /// Delivery-delay policy.
    pub delivery: DeliveryPolicy,
    /// Acceptance-order policy under congestion.
    pub accept_order: AcceptOrder,
    /// Fail with `ModelError::StallDetected` on the first stall — used to
    /// *verify* that a program is stall-free rather than merely hope so.
    pub forbid_stalling: bool,
    /// Record machine events into the trace.
    pub trace: bool,
    /// Safety valve: maximum number of engine events before the run is
    /// declared divergent.
    pub max_events: u64,
    /// Seed for the policy RNG (delivery delays, random acceptance order).
    pub seed: u64,
    /// Event-timeline implementation. `Bucket` (the default) and
    /// `BinaryHeap` produce bit-identical traces; the heap is kept for
    /// differential tests and benchmarks.
    pub timeline: TimelineKind,
}

impl Default for LogpConfig {
    fn default() -> Self {
        LogpConfig {
            delivery: DeliveryPolicy::AtLatencyBound,
            accept_order: AcceptOrder::Fifo,
            forbid_stalling: false,
            trace: false,
            max_events: 200_000_000,
            seed: 0,
            timeline: TimelineKind::default(),
        }
    }
}

impl LogpConfig {
    /// Default config with tracing on — what most tests want.
    pub fn traced() -> LogpConfig {
        LogpConfig {
            trace: true,
            ..LogpConfig::default()
        }
    }

    /// Default config that rejects any stalling execution.
    pub fn stall_free() -> LogpConfig {
        LogpConfig {
            forbid_stalling: true,
            ..LogpConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_model::rngutil::SeedStream;

    #[test]
    fn delivery_times_respect_bounds() {
        let mut rng = SeedStream::new(3).derive("t", 0);
        for _ in 0..100 {
            let d = DeliveryPolicy::Uniform.delivery_time(Steps(10), 6, &mut rng);
            assert!(d > Steps(10) && d <= Steps(16));
        }
        assert_eq!(
            DeliveryPolicy::AtLatencyBound.delivery_time(Steps(10), 6, &mut rng),
            Steps(16)
        );
        assert_eq!(
            DeliveryPolicy::Eager.delivery_time(Steps(10), 6, &mut rng),
            Steps(11)
        );
    }

    #[test]
    fn config_presets() {
        assert!(LogpConfig::traced().trace);
        assert!(LogpConfig::stall_free().forbid_stalling);
        assert!(!LogpConfig::default().trace);
    }
}
