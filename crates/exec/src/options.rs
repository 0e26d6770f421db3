//! Run configuration and the shared instrumentation bundle.
//!
//! [`RunOptions`] is the one way to parameterize a run: every engine and
//! cross-simulation entry point takes `&RunOptions` instead of growing
//! positional `seed`/`registry`/`base` arguments or forked `*_obs`
//! variants. [`Instruments`] is the matching per-machine state — trace,
//! registry handle, message-id allocator — deduplicated out of the three
//! engines that used to each hand-roll it.

use crate::medium::WrapMedium;
use bvl_model::{MsgId, Steps, Trace};
use bvl_obs::{Registry, Tier};
use std::sync::Arc;

/// Options shared by every run entry point in the workspace.
///
/// Construct with the builder methods; `RunOptions::default()` reproduces
/// the historical defaults (seed 0, untraced, disabled registry, one
/// shard, clock at zero, engine-default budget). Not every engine honours
/// every field; each field's doc names the ones that do.
///
/// ```
/// use bvl_exec::RunOptions;
/// use bvl_obs::Registry;
///
/// let registry = Registry::enabled(8);
/// let opts = RunOptions::new().seed(1996).traced().registry(&registry);
/// assert_eq!(opts.seed, 1996);
/// assert!(opts.trace && opts.registry.is_enabled());
/// ```
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Master seed for the randomized choices of the cross-simulations
    /// that take these options; each copies it into the `LogpConfig` of
    /// the machines it builds. A `LogpMachine` takes its policy seed from
    /// `LogpConfig::seed` at construction, and its `instrument` ignores
    /// this field.
    pub seed: u64,
    /// Record a full event trace (off by default; hot paths stay clean).
    pub trace: bool,
    /// Observability registry; `Registry::disabled()` is inert.
    pub registry: Registry,
    /// Observability tier ceiling for this run: the engines record through
    /// `registry.at_tier(obs_tier)`, so a run can ask for less than its
    /// registry was built to record (never more). `Tier::Full` — the
    /// historical behaviour — by default. Observability-only: excluded
    /// from [`RunOptions::canonical`] like the registry itself.
    pub obs_tier: Tier,
    /// Shards for the LogP engine, which partitions the simulated machine
    /// itself across worker threads (DESIGN.md §13); the only way to set
    /// its shard count. Shard count is determinism-invariant by contract:
    /// results and traces are bit-identical at any shard count. The BSP
    /// machine, the router and the BSF machine run on the calling thread
    /// and ignore it.
    pub shards: usize,
    /// Virtual-clock offset: spans and derived times are reported relative
    /// to this base (used when a run is one phase of a larger simulation).
    pub clock_base: Steps,
    /// Step/superstep budget before a [`bvl_model::ModelError::Timeout`];
    /// `None` means the engine's own default.
    pub budget: Option<u64>,
    /// Adversarial medium decorator (deterministic fault injection, see
    /// `bvl-fault`). When present, every engine with a transport seam wraps
    /// its medium before running — machines, routers and simulators all
    /// pick faults up from the one options struct, no API forks.
    pub fault: Option<Arc<dyn WrapMedium>>,
    /// Pseudo-streaming window (Buurlage-style bounded-memory supersteps):
    /// when set, the BSP machine's ledger (`CostLedger::charge_streamed`)
    /// streams each h-relation through a working set of at most `window`
    /// messages per processor, paying one extra synchronization `ℓ` per
    /// additional round — cost `w + g·h + ℓ·⌈h/window⌉` per superstep.
    /// That ledger is the only reader: a LogP machine run under these
    /// options runs unstreamed. `None` (the default) is the classical
    /// one-shot h-relation. Result-affecting: included in
    /// [`RunOptions::canonical`].
    pub stream: Option<u64>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            seed: 0,
            trace: false,
            registry: Registry::disabled(),
            obs_tier: Tier::Full,
            shards: 1,
            clock_base: Steps::ZERO,
            budget: None,
            fault: None,
            stream: None,
        }
    }
}

impl RunOptions {
    /// The default options (see type-level docs).
    pub fn new() -> RunOptions {
        RunOptions::default()
    }

    /// Set the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> RunOptions {
        self.seed = seed;
        self
    }

    /// Enable full event tracing.
    #[must_use]
    pub fn traced(mut self) -> RunOptions {
        self.trace = true;
        self
    }

    /// Attach a registry handle (cloned; registries are cheap handles).
    #[must_use]
    pub fn registry(mut self, registry: &Registry) -> RunOptions {
        self.registry = registry.clone();
        self
    }

    /// Cap the run's observability at `tier` (see [`RunOptions::obs_tier`]).
    #[must_use]
    pub fn obs(mut self, tier: Tier) -> RunOptions {
        self.obs_tier = tier;
        self
    }

    /// Set the shard count for the LogP engine, which partitions processor
    /// state across worker threads.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> RunOptions {
        self.shards = shards.max(1);
        self
    }

    /// Offset the run's virtual clock (span emission base).
    #[must_use]
    pub fn at(mut self, clock_base: Steps) -> RunOptions {
        self.clock_base = clock_base;
        self
    }

    /// Cap the run at `budget` steps/supersteps.
    #[must_use]
    pub fn budget(mut self, budget: u64) -> RunOptions {
        self.budget = Some(budget);
        self
    }

    /// The budget to use given an engine default.
    pub fn budget_or(&self, default: u64) -> u64 {
        self.budget.unwrap_or(default)
    }

    /// Inject a medium decorator: every engine run under these options
    /// wraps its transport in `wrap` (adversarial media, fault plans).
    #[must_use]
    pub fn faults(mut self, wrap: Arc<dyn WrapMedium>) -> RunOptions {
        self.fault = Some(wrap);
        self
    }

    /// Stream h-relations through a bounded working set of `window`
    /// messages per processor (clamped to at least 1); see
    /// [`RunOptions::stream`].
    #[must_use]
    pub fn streamed(mut self, window: u64) -> RunOptions {
        self.stream = Some(window.max(1));
        self
    }

    /// Whether these options carry a fault decorator. Protocols whose
    /// correctness argument *assumes* a well-behaved medium (e.g. the
    /// stall-free schedules of §4.2) use this to downgrade
    /// `forbid_stalling` from an invariant check to a measurement.
    pub fn faulted(&self) -> bool {
        self.fault.is_some()
    }

    /// Canonical one-line serialization of every field that can change a
    /// run's *results*, for content-addressed caching (`bvl-lab`). Two
    /// options values with equal canonical forms are behaviourally
    /// interchangeable; fields that only affect observability (the
    /// registry, whose spans never feed back into the simulation) are
    /// deliberately excluded, and `shards` is excluded because the LogP
    /// engine's determinism contract makes results invariant under shard
    /// count.
    ///
    /// The format is a stable `k=v` list — append-only by construction
    /// (new fields must be added at the end with a `-` default so that old
    /// canonical strings stay valid cache keys until the code fingerprint
    /// rotates them out).
    pub fn canonical(&self) -> String {
        format!(
            "seed={} trace={} clock_base={} budget={} fault={} stream={}",
            self.seed,
            self.trace,
            self.clock_base.get(),
            self.budget.map_or_else(|| "-".into(), |b| b.to_string()),
            self.fault.as_ref().map_or_else(|| "-".into(), |f| f.label()),
            self.stream.map_or_else(|| "-".into(), |w| w.to_string()),
        )
    }

    /// Options for a sub-phase machine: same seed and fault decorator,
    /// everything else default. Phase drivers (CB passes, sorting rounds,
    /// routing cycles) run many short-lived machines whose registries,
    /// budgets and clock bases are managed by the driver itself — only the
    /// adversary, the seed, the streaming window, the LogP shard count and
    /// the observability tier propagate down (shards are result-invariant,
    /// so propagating them is pure parallelism; the tier caps whatever
    /// registry the driver attaches, so a run observed at `counters` does
    /// not re-widen in its sub-phases).
    pub fn subphase(&self) -> RunOptions {
        RunOptions {
            seed: self.seed,
            fault: self.fault.clone(),
            shards: self.shards,
            obs_tier: self.obs_tier,
            stream: self.stream,
            ..RunOptions::default()
        }
    }
}

/// The instrumentation bundle every machine carries: event trace,
/// observability registry, and the run-unique message-id allocator.
#[derive(Debug, Default)]
pub struct Instruments {
    /// Event trace (disabled unless requested).
    pub trace: Trace,
    /// Observability registry handle.
    pub registry: Registry,
    next_msg_id: u64,
}

impl Instruments {
    /// Fully inert instruments (disabled trace and registry).
    pub fn disabled() -> Instruments {
        Instruments::new(false)
    }

    /// Instruments with a disabled registry and the trace on or off.
    pub fn new(trace_enabled: bool) -> Instruments {
        Instruments {
            trace: if trace_enabled {
                Trace::enabled()
            } else {
                Trace::disabled()
            },
            registry: Registry::disabled(),
            next_msg_id: 0,
        }
    }

    /// Instruments matching `opts`: trace enabled iff `opts.trace`, the
    /// registry capped at `opts.obs_tier`.
    pub fn from_options(opts: &RunOptions) -> Instruments {
        Instruments {
            trace: if opts.trace {
                Trace::enabled()
            } else {
                Trace::disabled()
            },
            registry: opts.registry.at_tier(opts.obs_tier),
            next_msg_id: 0,
        }
    }

    /// Apply `opts` to existing instruments: attach the registry (capped
    /// at the options' observability tier) and upgrade (never downgrade)
    /// the trace.
    pub fn apply(&mut self, opts: &RunOptions) {
        self.registry = opts.registry.at_tier(opts.obs_tier);
        if opts.trace && !self.trace.is_enabled() {
            self.trace = Trace::enabled();
        }
    }

    /// Reserve `n` consecutive run-unique message ids, returning the
    /// first. An engine reserves one block per batch of messages and gives
    /// each message the id at its position in the batch's delivery order,
    /// so ids do not depend on how the batch is fanned out.
    #[inline]
    pub fn alloc_msg_id_block(&mut self, n: u64) -> MsgId {
        let id = MsgId(self.next_msg_id);
        self.next_msg_id += n;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_historical_behaviour() {
        let opts = RunOptions::default();
        assert_eq!(opts.seed, 0);
        assert!(!opts.trace);
        assert!(!opts.registry.is_enabled());
        assert_eq!(opts.shards, 1);
        assert_eq!(opts.clock_base, Steps::ZERO);
        assert_eq!(opts.budget_or(123), 123);
    }

    #[test]
    fn builder_composes() {
        let opts = RunOptions::new()
            .seed(7)
            .traced()
            .shards(4)
            .at(Steps(100))
            .budget(50);
        assert_eq!(opts.seed, 7);
        assert!(opts.trace);
        assert_eq!(opts.shards, 4);
        assert_eq!(opts.clock_base, Steps(100));
        assert_eq!(opts.budget_or(123), 50);
    }

    #[test]
    fn shards_clamp_to_one() {
        assert_eq!(RunOptions::new().shards(0).shards, 1);
    }

    #[test]
    fn fault_decorator_rides_the_options() {
        use crate::medium::{Medium, WrapMedium};
        struct Noop;
        impl WrapMedium for Noop {
            fn wrap(&self, inner: Box<dyn Medium + Send>) -> Box<dyn Medium + Send> {
                inner
            }
            fn label(&self) -> String {
                "noop".into()
            }
        }
        let opts = RunOptions::new()
            .seed(5)
            .traced()
            .shards(4)
            .faults(Arc::new(Noop));
        assert!(opts.faulted());
        let sub = opts.subphase();
        assert_eq!(sub.seed, 5);
        assert!(sub.faulted(), "the adversary propagates to sub-phases");
        assert_eq!(sub.shards, 4, "shards propagate: pure parallelism");
        assert!(!sub.trace, "instrumentation does not");
        assert!(!RunOptions::new().faulted());
        // Debug must not choke on the trait object, and names the label.
        let fault = opts.fault.as_deref().expect("set above");
        assert_eq!(format!("{fault:?}"), "WrapMedium(noop)");
        assert!(format!("{opts:?}").contains("WrapMedium(noop)"));
    }

    #[test]
    fn canonical_covers_result_affecting_fields_only() {
        assert_eq!(
            RunOptions::new().canonical(),
            "seed=0 trace=false clock_base=0 budget=- fault=- stream=-"
        );
        let opts = RunOptions::new().seed(7).traced().at(Steps(100)).budget(50);
        assert_eq!(
            opts.canonical(),
            "seed=7 trace=true clock_base=100 budget=50 fault=- stream=-"
        );
        // The streaming window changes per-superstep cost, so it must move
        // the cache key.
        assert_eq!(
            opts.clone().streamed(64).canonical(),
            "seed=7 trace=true clock_base=100 budget=50 fault=- stream=64"
        );
        // The registry is observability-only: attaching one must not move
        // the cache key.
        let reg = Registry::enabled(4);
        assert_eq!(opts.clone().registry(&reg).canonical(), opts.canonical());
        // The shard count is determinism-invariant by contract.
        assert_eq!(opts.clone().shards(4).canonical(), opts.canonical());
        // The observability tier is observability-only too: spans never
        // feed back into the simulation, so the tier must not move keys.
        assert_eq!(opts.clone().obs(Tier::Off).canonical(), opts.canonical());
        assert_eq!(
            opts.clone().obs(Tier::Sampled { rate: 8 }).canonical(),
            opts.canonical()
        );
    }

    #[test]
    fn instruments_cap_the_registry_at_the_options_tier() {
        let reg = Registry::enabled(4);
        let opts = RunOptions::new().registry(&reg).obs(Tier::CountersOnly);
        let ins = Instruments::from_options(&opts);
        assert!(ins.registry.is_enabled());
        assert!(!ins.registry.spans_enabled());
        // Default tier is Full: the historical behaviour is unchanged.
        let full = Instruments::from_options(&RunOptions::new().registry(&reg));
        assert!(full.registry.spans_enabled());
        // apply() caps the same way, and the tier rides subphases.
        let mut applied = Instruments::disabled();
        applied.apply(&opts);
        assert!(!applied.registry.spans_enabled());
        assert_eq!(opts.subphase().obs_tier, Tier::CountersOnly);
    }

    #[test]
    fn canonical_includes_the_fault_label() {
        use crate::medium::{Medium, WrapMedium};
        struct Tagged;
        impl WrapMedium for Tagged {
            fn wrap(&self, inner: Box<dyn Medium + Send>) -> Box<dyn Medium + Send> {
                inner
            }
            fn label(&self) -> String {
                "seed=9,jitter=uniform:6".into()
            }
        }
        let opts = RunOptions::new().faults(Arc::new(Tagged));
        assert!(opts
            .canonical()
            .ends_with("fault=seed=9,jitter=uniform:6 stream=-"));
    }

    #[test]
    fn stream_window_clamps_and_rides_subphases() {
        assert_eq!(RunOptions::new().streamed(0).stream, Some(1));
        let opts = RunOptions::new().streamed(8);
        assert_eq!(opts.stream, Some(8));
        assert_eq!(
            opts.subphase().stream,
            Some(8),
            "streaming is result-affecting like the adversary: it propagates"
        );
        assert_eq!(RunOptions::new().subphase().stream, None);
    }

    #[test]
    fn msg_ids_are_sequential() {
        let mut ins = Instruments::disabled();
        assert_eq!(ins.alloc_msg_id_block(1), MsgId(0));
        assert_eq!(ins.alloc_msg_id_block(3), MsgId(1));
        assert_eq!(ins.alloc_msg_id_block(0), MsgId(4));
        assert_eq!(ins.alloc_msg_id_block(1), MsgId(4));
    }

    #[test]
    fn from_options_respects_trace_flag() {
        let ins = Instruments::from_options(&RunOptions::new().traced());
        assert!(ins.trace.is_enabled());
        let mut plain = Instruments::from_options(&RunOptions::new());
        assert!(!plain.trace.is_enabled());
        let reg = Registry::enabled(2);
        plain.apply(&RunOptions::new().registry(&reg).traced());
        assert!(plain.registry.is_enabled());
        assert!(plain.trace.is_enabled());
    }
}
