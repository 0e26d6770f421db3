//! The BSP sample-sort study (Gerbessiotis–Siniolakis methodology).
//!
//! One cell of the study: generate `n` keys deterministically on
//! per-processor [`SeedStream`] lanes, sort them with the library's
//! direct-BSP sample sort, and report
//!
//! * the measured cost decomposed into its native `w + g·h + ℓ` terms
//!   (zero residual — the ledger charges exactly those terms), and
//! * the **1-optimality ratio**: measured cost over [`ideal_sort_cost`],
//!   the cost of the same 4-superstep schedule with perfectly balanced
//!   buckets. Every measured `w`/`h` term dominates its balanced
//!   counterpart (max ≥ mean, pigeonhole), so the ratio is provably ≥ 1,
//!   and it approaches 1 exactly as the regular sampling keeps buckets
//!   balanced — the paper's experimental question.
//!
//! The same SPMD program (via
//! [`bvl_algos::bsp::sort::sample_sort_processes`]) is then re-run through
//! the Theorem 2 cross-simulation onto a LogP machine with `G = g, L = ℓ`,
//! so each cell also reports the measured LogP-side slowdown against the
//! predicted `S = O(log p)` envelope (with the implementation's measured
//! protocol constant, [`THEOREM2_PROTOCOL_CONSTANT`]).

use bvl_algos::bsp::sort::{sample_sort_processes, sample_sort_with};
use bvl_bsp::BspParams;
use bvl_core::{simulate_bsp_on_logp, Theorem2Config};
use bvl_exec::RunOptions;
use bvl_logp::LogpParams;
use bvl_model::rngutil::SeedStream;
use bvl_model::{ModelError, Word};
use rand::Rng;

/// One cell of the sorting study.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SortConfig {
    /// Processors.
    pub p: usize,
    /// Total keys across all processors.
    pub n: u64,
    /// BSP gap `g` (also the LogP `G` of the cross-simulation). Must be
    /// ≥ 2 so the LogP constraint `max{2, o} ≤ G` holds.
    pub g: u64,
    /// BSP periodicity `ℓ` (also the LogP `L`). Must be ≥ `g`.
    pub l: u64,
    /// Master seed for the key-generation lanes.
    pub seed: u64,
}

/// The native-BSP leg of one study cell.
#[derive(Clone, Copy, Debug)]
pub struct SortLeg {
    /// Measured total cost (`Σ (w + g·h + ℓ·rounds)`).
    pub cost: u64,
    /// The balanced 1-optimal reference, [`ideal_sort_cost`].
    pub ideal: u64,
    /// `cost / ideal` — the 1-optimality ratio, provably ≥ 1.
    pub ratio: f64,
    /// Supersteps executed.
    pub supersteps: u64,
    /// `Σ w` — the computation term.
    pub work: u64,
    /// `g · Σ h` — the communication term.
    pub comm: u64,
    /// `cost − work − comm` — the synchronization term (`ℓ` per round;
    /// more than `ℓ·supersteps` when the run is streamed).
    pub sync: u64,
}

/// Theorem 2's slowdown guarantee is `S = O(log p)`; the asymptotic
/// expression suppresses the concrete protocol's constants (the CB
/// synchronization tree and the deterministic sorting-based router both
/// cost real steps the O-notation hides). This is the measured constant
/// for this implementation — the cross-simulation envelope is
/// `native · C · (1 + log₂ p)`, and the sorting study's measured
/// slowdowns sit below 85 % of it across the full grid range (worst case
/// `p = 2`, one key per processor, where the protocol's constant floor is
/// not yet amortized). The same suppressed-constant treatment is applied
/// to Theorem 1 in the stack experiment.
pub const THEOREM2_PROTOCOL_CONSTANT: f64 = 4.0;

/// The Theorem 2 cross-simulation leg: the same program on LogP.
#[derive(Clone, Copy, Debug)]
pub struct XsimLeg {
    /// Measured total simulated LogP time.
    pub total: u64,
    /// What the native BSP machine with `g = G, ℓ = L` charges.
    pub native: u64,
    /// `total / native` — the measured slowdown.
    pub slowdown: f64,
    /// The predicted envelope `native · C · (1 + log₂ p)` — Theorem 2's
    /// `S = O(log p)` with the implementation's measured constant
    /// [`THEOREM2_PROTOCOL_CONSTANT`].
    pub envelope: f64,
    /// Whether the measured total sits within the predicted envelope.
    pub in_envelope: bool,
}

/// The full outcome of one study cell.
#[derive(Clone, Copy, Debug)]
pub struct SortStudy {
    /// Native-BSP measurement.
    pub bsp: SortLeg,
    /// Theorem 2 cross-simulation measurement.
    pub xsim: XsimLeg,
    /// Output verification: globally sorted, a permutation of the input,
    /// and bit-identical between the two machines.
    pub sorted_ok: bool,
}

/// Deterministic per-processor key blocks: processor `i` draws its block
/// from `SeedStream(seed).derive("sort-keys", i)`, so any processor's keys
/// can be regenerated independently of the others (and independently of
/// `p`-wide iteration order). Blocks have size `⌈n/p⌉` or `⌊n/p⌋` with the
/// larger blocks first.
pub fn generate_keys(cfg: &SortConfig) -> Vec<Vec<Word>> {
    let stream = SeedStream::new(cfg.seed);
    let p = cfg.p as u64;
    (0..cfg.p)
        .map(|i| {
            let len = cfg.n / p + u64::from((i as u64) < cfg.n % p);
            let mut rng = stream.derive("sort-keys", i as u64);
            (0..len).map(|_| rng.gen_range(-1_000_000..1_000_000)).collect()
        })
        .collect()
}

/// The perfectly balanced cost of the 4-superstep sample-sort schedule:
///
/// ```text
/// s0: w = ⌈n/p⌉ (local sort)        h = p(p−1) (samples into P0)
/// s1: w = p(p−1) (splitter select)  h = p      (broadcast)
/// s2: w = ⌈n/p⌉ (partition)         h = ⌈n/p⌉  (balanced all-to-all)
/// s3: w = ⌈n/p⌉ (balanced merge)    h = 0
/// ```
///
/// each plus one `ℓ`. Every measured term dominates its balanced
/// counterpart — `w₀`, `h₀`, `w₁`, `h₁` are deterministic and exact, the
/// all-to-all degree and the merge block are maxima over processors whose
/// mean is `n/p` — so `measured / ideal ≥ 1` always, with equality
/// approached exactly when regular sampling balances the buckets.
pub fn ideal_sort_cost(cfg: &SortConfig) -> u64 {
    let p = cfg.p as u64;
    let b = cfg.n.div_ceil(p);
    let samples = p * (p - 1);
    3 * b + samples + cfg.g * (samples + p + b) + 4 * cfg.l
}

/// Run one cell of the study: the native BSP leg and the Theorem 2
/// cross-simulation leg, both on the same deterministic keys.
///
/// `opts` applies to the BSP leg in full (registry, threads, the
/// pseudo-streaming window); the cross-simulation leg takes its seed,
/// fault decorator and shard count through [`RunOptions::subphase`]
/// semantics.
pub fn run_sort(cfg: &SortConfig, opts: &RunOptions) -> Result<SortStudy, ModelError> {
    if cfg.p < 2 || !cfg.p.is_power_of_two() {
        return Err(ModelError::InvalidParams(
            "the sorting study needs p = 2^k >= 2 (the Theorem 2 leg routes \
             through the power-of-two deterministic sorting network)"
                .into(),
        ));
    }
    if cfg.n < cfg.p as u64 {
        return Err(ModelError::InvalidParams(format!(
            "need n >= p for nonempty blocks (n = {}, p = {})",
            cfg.n, cfg.p
        )));
    }
    let params = BspParams::new(cfg.p, cfg.g, cfg.l)?;
    let keys = generate_keys(cfg);
    let mut want: Vec<Word> = keys.iter().flatten().copied().collect();
    want.sort_unstable();

    // Native BSP leg.
    let (blocks, report) = sample_sort_with(params, keys.clone(), opts)?;
    let got: Vec<Word> = blocks.iter().flatten().copied().collect();
    let cost = report.cost.get();
    let work: u64 = report.records.iter().map(|r| r.w).sum();
    let comm: u64 = cfg.g * report.records.iter().map(|r| r.h).sum::<u64>();
    let ideal = ideal_sort_cost(cfg);
    let bsp = SortLeg {
        cost,
        ideal,
        ratio: cost as f64 / ideal as f64,
        supersteps: report.supersteps,
        work,
        comm,
        sync: cost - work - comm,
    };

    // Theorem 2 cross-simulation leg: the same program on LogP with
    // G = g, L = ℓ (o = 2, the smallest legal overhead).
    let logp = LogpParams::new(cfg.p, cfg.l, 2, cfg.g)?;
    let rep = simulate_bsp_on_logp(
        logp,
        sample_sort_processes(keys),
        Theorem2Config::default(),
        &opts.subphase(),
    )?;
    let envelope = rep.native_total.get() as f64
        * THEOREM2_PROTOCOL_CONSTANT
        * (1.0 + (cfg.p as f64).log2());
    let xsim = XsimLeg {
        total: rep.total.get(),
        native: rep.native_total.get(),
        slowdown: rep.slowdown(),
        envelope,
        in_envelope: (rep.total.get() as f64) <= envelope,
    };
    let xsim_got: Vec<Word> = rep
        .programs
        .into_iter()
        .flat_map(|pr| pr.into_state().received)
        .collect();

    Ok(SortStudy {
        bsp,
        xsim,
        sorted_ok: got == want && xsim_got == got,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(p: usize, n: u64, seed: u64) -> SortConfig {
        SortConfig {
            p,
            n,
            g: 2,
            l: 16,
            seed,
        }
    }

    #[test]
    fn key_lanes_are_independent_of_p() {
        // Processor 2's block is the same whether the machine has 4 or 8
        // processors (modulo block length), because each lane derives from
        // its own (domain, lane) pair.
        let a = generate_keys(&cfg(4, 64, 7));
        let b = generate_keys(&cfg(8, 128, 7));
        assert_eq!(a[2], b[2]);
        assert_eq!(a.iter().map(Vec::len).sum::<usize>(), 64);
    }

    #[test]
    fn study_reports_a_ratio_of_at_least_one() {
        for seed in [0, 1, 1996] {
            let study = run_sort(&cfg(8, 512, seed), &RunOptions::new()).unwrap();
            assert!(study.sorted_ok, "seed {seed}: output must sort");
            assert!(
                study.bsp.ratio >= 1.0,
                "seed {seed}: measured {} below balanced ideal {}",
                study.bsp.cost,
                study.bsp.ideal
            );
            assert_eq!(
                study.bsp.cost,
                study.bsp.work + study.bsp.comm + study.bsp.sync,
                "decomposition must be zero-residual"
            );
            assert!(study.xsim.in_envelope, "seed {seed}: outside Theorem 2 envelope");
            assert!(study.xsim.slowdown > 0.0);
        }
    }

    #[test]
    fn ratio_tightens_as_blocks_grow() {
        // 1-optimality: with fixed p the ratio should approach 1 as n/p
        // grows (the fixed sample/splitter costs amortize away).
        let small = run_sort(&cfg(4, 64, 3), &RunOptions::new()).unwrap();
        let large = run_sort(&cfg(4, 4096, 3), &RunOptions::new()).unwrap();
        assert!(
            large.bsp.ratio < small.bsp.ratio,
            "ratio must tighten: {} !< {}",
            large.bsp.ratio,
            small.bsp.ratio
        );
        assert!(large.bsp.ratio < 2.0, "large blocks should be near-optimal");
    }

    #[test]
    fn streaming_inflates_only_the_sync_term() {
        let native = run_sort(&cfg(8, 512, 5), &RunOptions::new()).unwrap();
        let streamed = run_sort(&cfg(8, 512, 5), &RunOptions::new().streamed(16)).unwrap();
        assert!(streamed.sorted_ok);
        assert_eq!(streamed.bsp.work, native.bsp.work);
        assert_eq!(streamed.bsp.comm, native.bsp.comm);
        assert!(streamed.bsp.sync > native.bsp.sync);
        assert!(streamed.bsp.cost > native.bsp.cost);
    }

    #[test]
    fn tiny_configs_are_rejected() {
        assert!(run_sort(&cfg(1, 8, 0), &RunOptions::new()).is_err());
        assert!(run_sort(&cfg(8, 4, 0), &RunOptions::new()).is_err());
    }

    proptest! {
        /// The library sort already proptests correctness; this pins the
        /// *study*: for arbitrary seeds and sizes the output is sorted, a
        /// permutation of its input, identical across machines, and never
        /// beats the balanced ideal.
        #[test]
        fn sorted_permutation_and_optimality(seed in 0u64..1_000, n in 16u64..400, logp in 1u32..4) {
            let p = 1usize << logp; // the Theorem 2 leg needs p = 2^k
            let n = n.max(p as u64);
            let study = run_sort(&cfg(p, n, seed), &RunOptions::new()).unwrap();
            prop_assert!(study.sorted_ok);
            prop_assert!(study.bsp.ratio >= 1.0);
            prop_assert!(study.xsim.in_envelope);
        }
    }
}
