//! Cross-version pins of the three routers behind a cold `lab run`:
//! König edge colouring, Theorem 2's deterministic router and Table 1's
//! store-and-forward network router. Each case renders everything the
//! router decides into one string and hashes it; the digests were recorded
//! from commit 306596e, before the colour table, the routing records and
//! the network queues were rewritten for speed (DESIGN.md §7.5).
//!
//! * `koenig_color`: the rounds, in order, of seeded exact relations, hot
//!   spots (degree above 64 included), the block exchanges of a sorting
//!   network, and small multigraphs whose parallel edges force
//!   alternating-path swaps. [`koenig_reference`] keeps the original
//!   implementation as an oracle, and a proptest demands identical rounds.
//! * `route_deterministic`: the report, the sorting-round spans and every
//!   message any of its machine phases hands to the medium (id, ends,
//!   payload, accept and delivery instants), for every [`SortScheme`],
//!   clean and under a fault plan. Payload widths span inline and spilled
//!   record encodings.
//! * `Router`: every step's link moves, the outcome after each step and
//!   the delivered pairs, for every Table 1 topology × port mode × queue
//!   discipline × path strategy.
//!
//! A digest may only be updated together with a documented change to the
//! router's schedule semantics.

use bsp_vs_logp::core::bsp_on_logp::record::RECORD_TAG;
use bsp_vs_logp::core::bsp_on_logp::sortnet::{bitonic_stages, odd_even_merge_stages};
use bsp_vs_logp::core::{route_deterministic, SortScheme};
use bsp_vs_logp::exec::{Executor, Medium, RunOptions, WrapMedium};
use bsp_vs_logp::fault::{Dist, Fault, FaultPlan};
use bsp_vs_logp::logp::LogpParams;
use bsp_vs_logp::model::decompose::koenig_color;
use bsp_vs_logp::model::rngutil::SeedStream;
use bsp_vs_logp::model::{Envelope, HRelation, Payload, ProcId, Steps, Word};
use bsp_vs_logp::net::{
    Array, Butterfly, Ccc, Hypercube, MeshOfTrees, PathStrategy, PortMode, QueueDiscipline, Router,
    RouterConfig, ShuffleExchange, Topology,
};
use bsp_vs_logp::obs::Registry;
use proptest::prelude::*;
use rand::RngCore;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// FNV-1a, 64-bit: a stable digest with no dependency on the std hasher.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compare every `(name, text)` against its recorded digest; one failure
/// lists all of them, as a paste-ready recording.
fn check(cases: Vec<(String, String)>, recorded: &[(&str, u64)]) {
    let mut report = String::new();
    let mut mismatches = cases.len().abs_diff(recorded.len());
    for (i, (name, text)) in cases.iter().enumerate() {
        let got = fnv64(text.as_bytes());
        if recorded.get(i) != Some(&(name.as_str(), got)) {
            mismatches += 1;
        }
        writeln!(report, "    ({name:?}, {got:#018x}),").unwrap();
    }
    assert_eq!(mismatches, 0, "digests diverged; this run got:\n{report}");
}

// ---------------------------------------------------------------------
// König colouring
// ---------------------------------------------------------------------

/// The `koenig_color` of commit 306596e, kept verbatim as an oracle: a
/// `Vec<Vec<usize>>` colour table scanned for the smallest free colour.
/// Also returns how many alternating-path swaps it made.
fn koenig_reference(rel: &HRelation) -> (Vec<Vec<usize>>, usize) {
    let p = rel.p();
    let h = rel.degree();
    if h == 0 {
        return (Vec::new(), 0);
    }
    const NONE: usize = usize::MAX;
    let mut colored: Vec<Vec<usize>> = vec![vec![NONE; h]; 2 * p];
    let mut edge_color: Vec<usize> = vec![NONE; rel.len()];
    let ends: Vec<(usize, usize)> = rel
        .demands()
        .iter()
        .map(|d| (d.src.index(), p + d.dst.index()))
        .collect();
    let mut swaps = 0;
    for e in 0..rel.len() {
        let (u, v) = ends[e];
        let a = (0..h)
            .find(|&c| colored[u][c] == NONE)
            .expect("degree bound");
        let b = (0..h)
            .find(|&c| colored[v][c] == NONE)
            .expect("degree bound");
        if a == b {
            colored[u][a] = e;
            colored[v][a] = e;
            edge_color[e] = a;
            continue;
        }
        swaps += 1;
        let mut path: Vec<usize> = Vec::new();
        let mut cur = v;
        let mut want = a;
        loop {
            let f = colored[cur][want];
            if f == NONE {
                break;
            }
            path.push(f);
            cur = if ends[f].0 == cur {
                ends[f].1
            } else {
                ends[f].0
            };
            want = if want == a { b } else { a };
        }
        for &f in &path {
            let c = edge_color[f];
            colored[ends[f].0][c] = NONE;
            colored[ends[f].1][c] = NONE;
        }
        for &f in &path {
            let c = if edge_color[f] == a { b } else { a };
            edge_color[f] = c;
            colored[ends[f].0][c] = f;
            colored[ends[f].1][c] = f;
        }
        colored[u][a] = e;
        colored[v][a] = e;
        edge_color[e] = a;
    }
    let mut rounds: Vec<Vec<usize>> = vec![Vec::new(); h];
    for (e, &c) in edge_color.iter().enumerate() {
        rounds[c].push(e);
    }
    rounds.retain(|r| !r.is_empty());
    (rounds, swaps)
}

/// The block exchange of every round of a sorting network over `p`
/// processors holding `r` records each: the relations `route_offline`
/// colours inside the deterministic router.
fn network_rounds(p: usize, r: usize, odd_even: bool) -> Vec<HRelation> {
    let stages = if odd_even {
        odd_even_merge_stages(p)
    } else {
        bitonic_stages(p)
    };
    stages
        .iter()
        .map(|round| {
            let mut rel = HRelation::new(p);
            for &(lo, hi, _) in round {
                for k in 0..r {
                    // Encoded routing records `[dest, uid, tag, data..]`.
                    let down = [
                        ((lo * 7 + k) % p) as Word,
                        (lo * r + k) as Word,
                        3,
                        k as Word,
                    ];
                    let up = [((hi * 5 + k) % p) as Word, (hi * r + k) as Word, 4];
                    rel.push(
                        ProcId::from(lo),
                        ProcId::from(hi),
                        Payload::words(RECORD_TAG, &down),
                    );
                    rel.push(
                        ProcId::from(hi),
                        ProcId::from(lo),
                        Payload::words(RECORD_TAG, &up),
                    );
                }
            }
            rel
        })
        .collect()
}

/// Multigraphs with heavy parallel edges over few processors: the demand
/// order makes the smallest free colours disagree, so the colouring must
/// swap along alternating paths.
fn swap_multigraphs() -> Vec<(String, HRelation)> {
    let mut out = Vec::new();
    let s = SeedStream::new(41);
    for (p, m) in [(2usize, 9usize), (3, 12), (4, 17), (5, 30), (3, 70)] {
        let mut rng = s.derive("multi", (p * 1000 + m) as u64);
        let mut rel = HRelation::new(p);
        for _ in 0..m * p {
            let src = (rng.next_u64() % p as u64) as u32;
            let dst = (rng.next_u64() % p as u64) as u32;
            rel.push(ProcId(src), ProcId(dst), Payload::tagged(0));
        }
        out.push((format!("multigraph p={p} m={}", m * p), rel));
    }
    // A fixed cyclic pattern of parallel pairs.
    let mut rel = HRelation::new(3);
    for (s, d) in [
        (0, 0),
        (1, 1),
        (0, 1),
        (1, 0),
        (2, 0),
        (0, 2),
        (1, 2),
        (2, 1),
        (2, 2),
    ]
    .iter()
    .cycle()
    .take(36)
    {
        rel.push(ProcId(*s), ProcId(*d), Payload::tagged(0));
    }
    out.push(("cyclic parallel pairs p=3".into(), rel));
    out
}

fn koenig_cases() -> Vec<(String, HRelation)> {
    let mut out = Vec::new();
    let s = SeedStream::new(1996);
    for (p, h) in [
        (4usize, 2usize),
        (8, 3),
        (16, 5),
        (9, 7),
        (32, 8),
        (64, 16),
        (16, 70),
        (8, 130),
    ] {
        let mut rng = s.derive("exact", (p * 1000 + h) as u64);
        out.push((
            format!("random_exact p={p} h={h}"),
            HRelation::random_exact(&mut rng, p, h),
        ));
    }
    for (p, m) in [(8usize, 4usize), (16, 6), (5, 3)] {
        let mut rng = s.derive("uniform", (p * 1000 + m) as u64);
        out.push((
            format!("random_uniform p={p} m={m}"),
            HRelation::random_uniform(&mut rng, p, m),
        ));
    }
    out.push((
        "hot_spot p=8 7x3".into(),
        HRelation::hot_spot(8, ProcId(0), 7, 3),
    ));
    out.push((
        "hot_spot p=64 63x2".into(),
        HRelation::hot_spot(64, ProcId(5), 63, 2),
    ));
    out.push(("all_to_all p=7".into(), HRelation::all_to_all(7)));
    for (i, rel) in network_rounds(16, 6, false).into_iter().enumerate() {
        out.push((format!("bitonic p=16 r=6 round {i}"), rel));
    }
    for (i, rel) in network_rounds(8, 5, true).into_iter().enumerate() {
        out.push((format!("odd-even p=8 r=5 round {i}"), rel));
    }
    out.extend(swap_multigraphs());
    out
}

#[test]
fn koenig_rounds_match_recorded_digests() {
    let mut cases = Vec::new();
    let mut swaps = 0;
    for (name, rel) in koenig_cases() {
        let rounds = koenig_color(&rel).rounds().to_vec();
        let (oracle, n) = koenig_reference(&rel);
        assert_eq!(rounds, oracle, "{name}: rounds differ from the oracle");
        if name.starts_with("multigraph") || name.starts_with("cyclic") {
            assert!(n > 0, "{name}: the case must force alternating-path swaps");
        }
        swaps += n;
        cases.push((name, format!("{rounds:?}")));
    }
    assert!(swaps > 0);
    check(cases, KOENIG_DIGESTS);
}

const KOENIG_DIGESTS: &[(&str, u64)] = &[
    ("random_exact p=4 h=2", 0xa2d613374cdb99d9),
    ("random_exact p=8 h=3", 0xc04da931f165f369),
    ("random_exact p=16 h=5", 0x9022343a5a12e5d1),
    ("random_exact p=9 h=7", 0xf93f0b3e1cd1831e),
    ("random_exact p=32 h=8", 0x0d02145dadf45ce5),
    ("random_exact p=64 h=16", 0xf60c260c05b04103),
    ("random_exact p=16 h=70", 0xf7506afb528c453b),
    ("random_exact p=8 h=130", 0xa3fde975a37def53),
    ("random_uniform p=8 m=4", 0xe9fe2e9a13174723),
    ("random_uniform p=16 m=6", 0x5cdd16c2fb0238dd),
    ("random_uniform p=5 m=3", 0x0a566d977800e773),
    ("hot_spot p=8 7x3", 0x7a528dad8eb02a73),
    ("hot_spot p=64 63x2", 0x463fd7d9b57b9cb2),
    ("all_to_all p=7", 0xee8b638c58d87ea0),
    ("bitonic p=16 r=6 round 0", 0xf453ee0e3d275d75),
    ("bitonic p=16 r=6 round 1", 0xf453ee0e3d275d75),
    ("bitonic p=16 r=6 round 2", 0xf453ee0e3d275d75),
    ("bitonic p=16 r=6 round 3", 0xf453ee0e3d275d75),
    ("bitonic p=16 r=6 round 4", 0xf453ee0e3d275d75),
    ("bitonic p=16 r=6 round 5", 0xf453ee0e3d275d75),
    ("bitonic p=16 r=6 round 6", 0xf453ee0e3d275d75),
    ("bitonic p=16 r=6 round 7", 0xf453ee0e3d275d75),
    ("bitonic p=16 r=6 round 8", 0xf453ee0e3d275d75),
    ("bitonic p=16 r=6 round 9", 0xf453ee0e3d275d75),
    ("odd-even p=8 r=5 round 0", 0x1bf92988857c5d29),
    ("odd-even p=8 r=5 round 1", 0x1bf92988857c5d29),
    ("odd-even p=8 r=5 round 2", 0x1bf92988857c5d29),
    ("odd-even p=8 r=5 round 3", 0xb611fe3a69e8a149),
    ("odd-even p=8 r=5 round 4", 0xb611fe3a69e8a149),
    ("odd-even p=8 r=5 round 5", 0x64f1b8eaf0bbe2ea),
    ("multigraph p=2 m=18", 0x3d7bb41414104240),
    ("multigraph p=3 m=36", 0x9e1f2ba3ed512467),
    ("multigraph p=4 m=68", 0x9e1858f79d447849),
    ("multigraph p=5 m=150", 0xcff10b24ca7522d2),
    ("multigraph p=3 m=210", 0x6d3945847122e616),
    ("cyclic parallel pairs p=3", 0x96cc7309aacea765),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The colouring picks exactly the rounds of the original
    /// implementation, not merely some valid decomposition.
    #[test]
    fn koenig_matches_the_reference_rounds(
        p in 1usize..10,
        pairs in proptest::collection::vec((0usize..64, 0usize..64), 0..160),
    ) {
        let mut rel = HRelation::new(p);
        for (s, d) in pairs {
            rel.push(ProcId::from(s % p), ProcId::from(d % p), Payload::tagged(0));
        }
        let got = koenig_color(&rel).rounds().to_vec();
        prop_assert_eq!(got, koenig_reference(&rel).0);
    }
}

// ---------------------------------------------------------------------
// Theorem 2's deterministic router
// ---------------------------------------------------------------------

/// A medium decorator that logs every message handed to the medium —
/// around an optional inner decorator (a fault plan) — so a test can see
/// the deliveries of every machine phase a router runs.
struct Recorder {
    inner: Option<Arc<dyn WrapMedium>>,
    log: Arc<Mutex<String>>,
}

impl WrapMedium for Recorder {
    fn wrap(&self, inner: Box<dyn Medium + Send>) -> Box<dyn Medium + Send> {
        let inner = match &self.inner {
            Some(w) => w.wrap(inner),
            None => inner,
        };
        Box::new(Recording {
            inner,
            log: Arc::clone(&self.log),
        })
    }

    fn label(&self) -> String {
        "recorder".into()
    }
}

struct Recording {
    inner: Box<dyn Medium + Send>,
    log: Arc<Mutex<String>>,
}

impl Recording {
    fn note(&self, kind: &str, env: &Envelope, now: Steps, at: Steps) {
        let mut log = self.log.lock().unwrap();
        writeln!(
            log,
            "{kind} {:?} {:?}->{:?} {:?} sub={:?} now={now:?} at={at:?}",
            env.id, env.src, env.dst, env.payload, env.submitted
        )
        .unwrap();
    }
}

impl Medium for Recording {
    fn capacity(&self, dst: ProcId, now: Steps) -> u64 {
        self.inner.capacity(dst, now)
    }

    fn delivery_time(&mut self, env: &Envelope, now: Steps, rng: &mut dyn RngCore) -> Steps {
        let at = self.inner.delivery_time(env, now, rng);
        self.note("deliver", env, now, at);
        at
    }

    fn duplicate_delivery(
        &mut self,
        env: &Envelope,
        scheduled: Steps,
        now: Steps,
        rng: &mut dyn RngCore,
    ) -> Option<Steps> {
        let dup = self.inner.duplicate_delivery(env, scheduled, now, rng);
        if let Some(at) = dup {
            self.note("duplicate", env, now, at);
        }
        dup
    }

    fn may_duplicate(&self) -> bool {
        self.inner.may_duplicate()
    }

    fn wake_hint(&mut self, dst: ProcId, now: Steps) -> Option<Steps> {
        self.inner.wake_hint(dst, now)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A relation whose payloads are 0 to 5 words wide, so the routing
/// records both fit inline and spill.
fn mixed_width(p: usize, per: usize, seed: u64) -> HRelation {
    let mut rng = SeedStream::new(seed).derive("mixed", p as u64);
    let mut rel = HRelation::new(p);
    for src in 0..p {
        for k in 0..per {
            let dst = (rng.next_u64() % p as u64) as usize;
            let width = (src + k) % 6;
            let words: Vec<Word> = (0..width)
                .map(|w| (src * 100 + k * 10 + w) as Word - 40)
                .collect();
            rel.push(
                ProcId::from(src),
                ProcId::from(dst),
                Payload::words(k as u32, &words),
            );
        }
    }
    rel
}

fn fault_plan() -> FaultPlan {
    FaultPlan {
        seed: 13,
        faults: vec![
            Fault::Duplicate { every: 5 },
            Fault::Jitter(Dist::Uniform(4)),
            Fault::Reorder { pct: 30 },
        ],
    }
}

/// Route `rel` under `scheme`; render the report, the router's spans and
/// the medium log.
fn render_route(
    params: LogpParams,
    rel: &HRelation,
    scheme: SortScheme,
    seed: u64,
    faulted: bool,
) -> String {
    let log = Arc::new(Mutex::new(String::new()));
    let recorder = Recorder {
        inner: faulted.then(|| Arc::new(fault_plan()) as Arc<dyn WrapMedium>),
        log: Arc::clone(&log),
    };
    let registry = Registry::enabled(params.p);
    let opts = RunOptions::new()
        .seed(seed)
        .registry(&registry)
        .faults(Arc::new(recorder));
    let report = route_deterministic(params, rel, scheme, &opts).expect("routing succeeds");
    let mut out = format!("{report:?}\n{:?}\n", registry.spans());
    if !faulted {
        // The recorder only watches: without it, the same report.
        let plain = route_deterministic(params, rel, scheme, &RunOptions::new().seed(seed))
            .expect("routing succeeds");
        assert_eq!(format!("{plain:?}"), format!("{report:?}"));
    }
    out.push_str(&log.lock().unwrap());
    out
}

fn route_det_cases() -> Vec<(String, String)> {
    let schemes = [
        SortScheme::Network,
        SortScheme::NetworkOddEven,
        SortScheme::Columnsort,
        SortScheme::Auto,
    ];
    let mut out = Vec::new();
    for scheme in schemes {
        for faulted in [false, true] {
            let tag = if faulted { "faulted" } else { "clean" };
            // Columnsort needs r >= 2(p-1)^2: p = 4 with 20 records each
            // is valid for every scheme.
            let small = LogpParams::new(4, 8, 1, 2).unwrap();
            let rel = mixed_width(4, 20, 7);
            out.push((
                format!("{scheme:?} p=4 r=20 mixed {tag}"),
                render_route(small, &rel, scheme, 11, faulted),
            ));
            if scheme != SortScheme::Columnsort {
                let params = LogpParams::new(16, 12, 1, 3).unwrap();
                let rel = mixed_width(16, 5, 8);
                out.push((
                    format!("{scheme:?} p=16 r=5 mixed {tag}"),
                    render_route(params, &rel, scheme, 12, faulted),
                ));
                let hot = HRelation::hot_spot(16, ProcId(3), 12, 2);
                out.push((
                    format!("{scheme:?} p=16 hot spot {tag}"),
                    render_route(params, &hot, scheme, 13, faulted),
                ));
            }
        }
    }
    out
}

#[test]
fn deterministic_routing_matches_recorded_digests() {
    check(route_det_cases(), ROUTE_DET_DIGESTS);
}

const ROUTE_DET_DIGESTS: &[(&str, u64)] = &[
    ("Network p=4 r=20 mixed clean", 0x8166c6fb902e56d0),
    ("Network p=16 r=5 mixed clean", 0x02fbd837619f4358),
    ("Network p=16 hot spot clean", 0xc30ce5224a3d315b),
    ("Network p=4 r=20 mixed faulted", 0x64dfb89d616fd177),
    ("Network p=16 r=5 mixed faulted", 0xa0e66de087fd9e3b),
    ("Network p=16 hot spot faulted", 0x6b9ae472592b7100),
    ("NetworkOddEven p=4 r=20 mixed clean", 0xfb3ae2721cc92425),
    ("NetworkOddEven p=16 r=5 mixed clean", 0x5d96c2980c8a2c2e),
    ("NetworkOddEven p=16 hot spot clean", 0xfe5f37c744453770),
    ("NetworkOddEven p=4 r=20 mixed faulted", 0xac887c21e2e8abbd),
    ("NetworkOddEven p=16 r=5 mixed faulted", 0x32a9f167b6fd0489),
    ("NetworkOddEven p=16 hot spot faulted", 0x71e8e51c0d73670a),
    ("Columnsort p=4 r=20 mixed clean", 0x130dc565b895addf),
    ("Columnsort p=4 r=20 mixed faulted", 0x46e8fcc425e3c41a),
    ("Auto p=4 r=20 mixed clean", 0x130dc565b895addf),
    ("Auto p=16 r=5 mixed clean", 0x02fbd837619f4358),
    ("Auto p=16 hot spot clean", 0xc30ce5224a3d315b),
    ("Auto p=4 r=20 mixed faulted", 0x46e8fcc425e3c41a),
    ("Auto p=16 r=5 mixed faulted", 0xa0e66de087fd9e3b),
    ("Auto p=16 hot spot faulted", 0x6b9ae472592b7100),
];

// ---------------------------------------------------------------------
// Table 1's store-and-forward router
// ---------------------------------------------------------------------

fn topologies() -> Vec<Box<dyn Topology>> {
    vec![
        Box::new(Array::chain(9)),
        Box::new(Array::mesh2d(4)),
        Box::new(Array::new(&[3, 3, 3])),
        Box::new(Array::torus(&[4, 4])),
        Box::new(Hypercube::new(4)),
        Box::new(Butterfly::new(3)),
        Box::new(Ccc::new(3)),
        Box::new(ShuffleExchange::new(4)),
        Box::new(MeshOfTrees::new(4)),
    ]
}

/// Step the router to quiescence, rendering each step's moves and outcome,
/// then the delivered pairs.
fn render_network(topo: &dyn Topology, rel: &HRelation, config: RouterConfig) -> String {
    let mut router = Router::new(topo, rel, config);
    let mut out = format!("{:?}\n", router.route_outcome());
    while router.step().expect("router steps") {
        writeln!(
            out,
            "{:?} {:?}",
            router.last_moves(),
            router.route_outcome()
        )
        .unwrap();
        assert!(router.route_outcome().time < 100_000, "router diverged");
    }
    writeln!(out, "{:?}", router.delivered_pairs()).unwrap();
    out
}

fn network_cases() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for topo in topologies() {
        let p = topo.num_processors();
        let mut rng = SeedStream::new(77).derive("net", p as u64);
        let rels = [
            ("exact h=3", HRelation::random_exact(&mut rng, p, 3)),
            ("hot spot", HRelation::hot_spot(p, ProcId(1), p - 1, 2)),
        ];
        for (rel_name, rel) in &rels {
            for mode in [PortMode::Multi, PortMode::Single] {
                for discipline in [QueueDiscipline::Fifo, QueueDiscipline::FarthestFirst] {
                    for paths in [PathStrategy::Greedy, PathStrategy::Valiant] {
                        let config = RouterConfig {
                            mode,
                            discipline,
                            paths,
                            seed: 5,
                            ..RouterConfig::default()
                        };
                        out.push((
                            format!(
                                "{} {rel_name} {mode:?}/{discipline:?}/{paths:?}",
                                topo.name()
                            ),
                            render_network(topo.as_ref(), rel, config),
                        ));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn network_routing_matches_recorded_digests() {
    check(network_cases(), NETWORK_DIGESTS);
}

const NETWORK_DIGESTS: &[(&str, u64)] = &[
    (
        "array[9](p=9) exact h=3 Multi/Fifo/Greedy",
        0x98cf4534e6c73f0c,
    ),
    (
        "array[9](p=9) exact h=3 Multi/Fifo/Valiant",
        0xcfb232086d3821e8,
    ),
    (
        "array[9](p=9) exact h=3 Multi/FarthestFirst/Greedy",
        0x28c62bef7b56e9bf,
    ),
    (
        "array[9](p=9) exact h=3 Multi/FarthestFirst/Valiant",
        0xec8c8b25f978ee50,
    ),
    (
        "array[9](p=9) exact h=3 Single/Fifo/Greedy",
        0x6a496653e890c4b1,
    ),
    (
        "array[9](p=9) exact h=3 Single/Fifo/Valiant",
        0x99e086c4f12e6f2c,
    ),
    (
        "array[9](p=9) exact h=3 Single/FarthestFirst/Greedy",
        0x37627a542325fa40,
    ),
    (
        "array[9](p=9) exact h=3 Single/FarthestFirst/Valiant",
        0xe9013461a4fe1e54,
    ),
    (
        "array[9](p=9) hot spot Multi/Fifo/Greedy",
        0x6e2ee17ac84c227e,
    ),
    (
        "array[9](p=9) hot spot Multi/Fifo/Valiant",
        0xdf76ae08e26baf79,
    ),
    (
        "array[9](p=9) hot spot Multi/FarthestFirst/Greedy",
        0x7861bbba0206c98e,
    ),
    (
        "array[9](p=9) hot spot Multi/FarthestFirst/Valiant",
        0xd25f4239d41d499d,
    ),
    (
        "array[9](p=9) hot spot Single/Fifo/Greedy",
        0x43357e5f2a32e896,
    ),
    (
        "array[9](p=9) hot spot Single/Fifo/Valiant",
        0x839006fb1eedaf1b,
    ),
    (
        "array[9](p=9) hot spot Single/FarthestFirst/Greedy",
        0x559d098d0cc826ce,
    ),
    (
        "array[9](p=9) hot spot Single/FarthestFirst/Valiant",
        0x15f082dca0aa4f98,
    ),
    (
        "array[4, 4](p=16) exact h=3 Multi/Fifo/Greedy",
        0x4ad6f517d0ac66ea,
    ),
    (
        "array[4, 4](p=16) exact h=3 Multi/Fifo/Valiant",
        0xffe4b75b2b550474,
    ),
    (
        "array[4, 4](p=16) exact h=3 Multi/FarthestFirst/Greedy",
        0x9efabc0bf45c106e,
    ),
    (
        "array[4, 4](p=16) exact h=3 Multi/FarthestFirst/Valiant",
        0xb015e3e74a691a91,
    ),
    (
        "array[4, 4](p=16) exact h=3 Single/Fifo/Greedy",
        0x74983b1015e9303a,
    ),
    (
        "array[4, 4](p=16) exact h=3 Single/Fifo/Valiant",
        0x0429cfa6b0d4b898,
    ),
    (
        "array[4, 4](p=16) exact h=3 Single/FarthestFirst/Greedy",
        0x46e9a1883c21d80e,
    ),
    (
        "array[4, 4](p=16) exact h=3 Single/FarthestFirst/Valiant",
        0x38907d389ea6ab45,
    ),
    (
        "array[4, 4](p=16) hot spot Multi/Fifo/Greedy",
        0xfaec6f31a9706ccd,
    ),
    (
        "array[4, 4](p=16) hot spot Multi/Fifo/Valiant",
        0x85f01b1a27a455f8,
    ),
    (
        "array[4, 4](p=16) hot spot Multi/FarthestFirst/Greedy",
        0x5ce0ed33fa85ced9,
    ),
    (
        "array[4, 4](p=16) hot spot Multi/FarthestFirst/Valiant",
        0xfd705ab5675e534f,
    ),
    (
        "array[4, 4](p=16) hot spot Single/Fifo/Greedy",
        0xbd44636d14c17a28,
    ),
    (
        "array[4, 4](p=16) hot spot Single/Fifo/Valiant",
        0xcc6cdf7b85966094,
    ),
    (
        "array[4, 4](p=16) hot spot Single/FarthestFirst/Greedy",
        0x840ef7eaab87979c,
    ),
    (
        "array[4, 4](p=16) hot spot Single/FarthestFirst/Valiant",
        0x07c3667d5b803804,
    ),
    (
        "array[3, 3, 3](p=27) exact h=3 Multi/Fifo/Greedy",
        0x0ecf15fd34f0958d,
    ),
    (
        "array[3, 3, 3](p=27) exact h=3 Multi/Fifo/Valiant",
        0x4dabd8b7740bb148,
    ),
    (
        "array[3, 3, 3](p=27) exact h=3 Multi/FarthestFirst/Greedy",
        0x4af9a76f935d6b3e,
    ),
    (
        "array[3, 3, 3](p=27) exact h=3 Multi/FarthestFirst/Valiant",
        0x67798cc70fb4c0e7,
    ),
    (
        "array[3, 3, 3](p=27) exact h=3 Single/Fifo/Greedy",
        0xe13a7c5ac7dd537f,
    ),
    (
        "array[3, 3, 3](p=27) exact h=3 Single/Fifo/Valiant",
        0x5836cbb87250e50e,
    ),
    (
        "array[3, 3, 3](p=27) exact h=3 Single/FarthestFirst/Greedy",
        0x89020a02006f8568,
    ),
    (
        "array[3, 3, 3](p=27) exact h=3 Single/FarthestFirst/Valiant",
        0x7c1667586bc98ae4,
    ),
    (
        "array[3, 3, 3](p=27) hot spot Multi/Fifo/Greedy",
        0xf1308df45d315b15,
    ),
    (
        "array[3, 3, 3](p=27) hot spot Multi/Fifo/Valiant",
        0xec0d19bffc1f0a19,
    ),
    (
        "array[3, 3, 3](p=27) hot spot Multi/FarthestFirst/Greedy",
        0xa19c3389d7d7c78d,
    ),
    (
        "array[3, 3, 3](p=27) hot spot Multi/FarthestFirst/Valiant",
        0x95aa1438b4da5d61,
    ),
    (
        "array[3, 3, 3](p=27) hot spot Single/Fifo/Greedy",
        0x607c5790d1070cd6,
    ),
    (
        "array[3, 3, 3](p=27) hot spot Single/Fifo/Valiant",
        0x65e14f5726174381,
    ),
    (
        "array[3, 3, 3](p=27) hot spot Single/FarthestFirst/Greedy",
        0xe5037756ff23613e,
    ),
    (
        "array[3, 3, 3](p=27) hot spot Single/FarthestFirst/Valiant",
        0x679583061d01a99b,
    ),
    (
        "torus[4, 4](p=16) exact h=3 Multi/Fifo/Greedy",
        0xd9cdcb6aadce8bb7,
    ),
    (
        "torus[4, 4](p=16) exact h=3 Multi/Fifo/Valiant",
        0x842c8d11adb1c0df,
    ),
    (
        "torus[4, 4](p=16) exact h=3 Multi/FarthestFirst/Greedy",
        0x02ec797210c43b3f,
    ),
    (
        "torus[4, 4](p=16) exact h=3 Multi/FarthestFirst/Valiant",
        0x6416e98763953973,
    ),
    (
        "torus[4, 4](p=16) exact h=3 Single/Fifo/Greedy",
        0x2ea8d9ad058678f4,
    ),
    (
        "torus[4, 4](p=16) exact h=3 Single/Fifo/Valiant",
        0x7254ad27b3bdea29,
    ),
    (
        "torus[4, 4](p=16) exact h=3 Single/FarthestFirst/Greedy",
        0x727529b99fbca965,
    ),
    (
        "torus[4, 4](p=16) exact h=3 Single/FarthestFirst/Valiant",
        0x8f43f17cd195fd58,
    ),
    (
        "torus[4, 4](p=16) hot spot Multi/Fifo/Greedy",
        0xda47d454aedc246d,
    ),
    (
        "torus[4, 4](p=16) hot spot Multi/Fifo/Valiant",
        0x30dd09b4af72db8a,
    ),
    (
        "torus[4, 4](p=16) hot spot Multi/FarthestFirst/Greedy",
        0x76e0d56653d7b3cb,
    ),
    (
        "torus[4, 4](p=16) hot spot Multi/FarthestFirst/Valiant",
        0xb7b2e7516dac8ecd,
    ),
    (
        "torus[4, 4](p=16) hot spot Single/Fifo/Greedy",
        0x905d37a78e7b92fa,
    ),
    (
        "torus[4, 4](p=16) hot spot Single/Fifo/Valiant",
        0xf40bf189ac3e391b,
    ),
    (
        "torus[4, 4](p=16) hot spot Single/FarthestFirst/Greedy",
        0x38cfea1b8235e086,
    ),
    (
        "torus[4, 4](p=16) hot spot Single/FarthestFirst/Valiant",
        0x9f66efc2653850c5,
    ),
    (
        "hypercube(p=16) exact h=3 Multi/Fifo/Greedy",
        0x124a448f7419643f,
    ),
    (
        "hypercube(p=16) exact h=3 Multi/Fifo/Valiant",
        0xf168bdc4b320aa0c,
    ),
    (
        "hypercube(p=16) exact h=3 Multi/FarthestFirst/Greedy",
        0x8014fc59defaae59,
    ),
    (
        "hypercube(p=16) exact h=3 Multi/FarthestFirst/Valiant",
        0xa1e21dd4ebf3d713,
    ),
    (
        "hypercube(p=16) exact h=3 Single/Fifo/Greedy",
        0xa19b8358f682333c,
    ),
    (
        "hypercube(p=16) exact h=3 Single/Fifo/Valiant",
        0xd3ceead2dfc4ef0a,
    ),
    (
        "hypercube(p=16) exact h=3 Single/FarthestFirst/Greedy",
        0x82d978f44baf6b29,
    ),
    (
        "hypercube(p=16) exact h=3 Single/FarthestFirst/Valiant",
        0x58b270194c1e3ae1,
    ),
    (
        "hypercube(p=16) hot spot Multi/Fifo/Greedy",
        0x6fbde50db69031f5,
    ),
    (
        "hypercube(p=16) hot spot Multi/Fifo/Valiant",
        0xaa27ea4645499086,
    ),
    (
        "hypercube(p=16) hot spot Multi/FarthestFirst/Greedy",
        0x717b8c9afe29d051,
    ),
    (
        "hypercube(p=16) hot spot Multi/FarthestFirst/Valiant",
        0x0a91174983ccafec,
    ),
    (
        "hypercube(p=16) hot spot Single/Fifo/Greedy",
        0x7909a9642fc5c9a4,
    ),
    (
        "hypercube(p=16) hot spot Single/Fifo/Valiant",
        0x8cf72721d260c3d0,
    ),
    (
        "hypercube(p=16) hot spot Single/FarthestFirst/Greedy",
        0x5136d6942c7dc2c4,
    ),
    (
        "hypercube(p=16) hot spot Single/FarthestFirst/Valiant",
        0xe5f5d6a562d5e046,
    ),
    (
        "butterfly(p=32) exact h=3 Multi/Fifo/Greedy",
        0xfa95db94dbd6d75b,
    ),
    (
        "butterfly(p=32) exact h=3 Multi/Fifo/Valiant",
        0xe365b935b2f1ce94,
    ),
    (
        "butterfly(p=32) exact h=3 Multi/FarthestFirst/Greedy",
        0xa64da5e86ec4e04c,
    ),
    (
        "butterfly(p=32) exact h=3 Multi/FarthestFirst/Valiant",
        0x73e3fc5b1775b5fa,
    ),
    (
        "butterfly(p=32) exact h=3 Single/Fifo/Greedy",
        0x5928d76f2d7f1733,
    ),
    (
        "butterfly(p=32) exact h=3 Single/Fifo/Valiant",
        0x9c5f5991e6c56140,
    ),
    (
        "butterfly(p=32) exact h=3 Single/FarthestFirst/Greedy",
        0x71de1e49b3536e7c,
    ),
    (
        "butterfly(p=32) exact h=3 Single/FarthestFirst/Valiant",
        0x748bc0376d970723,
    ),
    (
        "butterfly(p=32) hot spot Multi/Fifo/Greedy",
        0x273b8897a291a89a,
    ),
    (
        "butterfly(p=32) hot spot Multi/Fifo/Valiant",
        0x4ba071d2ba0efc56,
    ),
    (
        "butterfly(p=32) hot spot Multi/FarthestFirst/Greedy",
        0x705ca78f54597310,
    ),
    (
        "butterfly(p=32) hot spot Multi/FarthestFirst/Valiant",
        0x2cc330696f7518fb,
    ),
    (
        "butterfly(p=32) hot spot Single/Fifo/Greedy",
        0x91be533b1ffefe66,
    ),
    (
        "butterfly(p=32) hot spot Single/Fifo/Valiant",
        0x913453b62c5008d9,
    ),
    (
        "butterfly(p=32) hot spot Single/FarthestFirst/Greedy",
        0xbd91521df3e0f804,
    ),
    (
        "butterfly(p=32) hot spot Single/FarthestFirst/Valiant",
        0x9abf19212f0ab1ef,
    ),
    ("ccc(p=24) exact h=3 Multi/Fifo/Greedy", 0x2040605cc2430bfc),
    ("ccc(p=24) exact h=3 Multi/Fifo/Valiant", 0x274fab203e9041bb),
    (
        "ccc(p=24) exact h=3 Multi/FarthestFirst/Greedy",
        0x6f02a6dc3962d89a,
    ),
    (
        "ccc(p=24) exact h=3 Multi/FarthestFirst/Valiant",
        0x25324b323f042f74,
    ),
    ("ccc(p=24) exact h=3 Single/Fifo/Greedy", 0xd10261cd3ca2559c),
    (
        "ccc(p=24) exact h=3 Single/Fifo/Valiant",
        0x16f9e29bd0d84c01,
    ),
    (
        "ccc(p=24) exact h=3 Single/FarthestFirst/Greedy",
        0xa695ad20d4f53377,
    ),
    (
        "ccc(p=24) exact h=3 Single/FarthestFirst/Valiant",
        0xced01114736e34ca,
    ),
    ("ccc(p=24) hot spot Multi/Fifo/Greedy", 0xd75855295e7b092e),
    ("ccc(p=24) hot spot Multi/Fifo/Valiant", 0xe434aff5bdcd3d32),
    (
        "ccc(p=24) hot spot Multi/FarthestFirst/Greedy",
        0x2f0a4bea6eb022ba,
    ),
    (
        "ccc(p=24) hot spot Multi/FarthestFirst/Valiant",
        0x29fb915d21a50def,
    ),
    ("ccc(p=24) hot spot Single/Fifo/Greedy", 0x0c8c19aa6ea6ac46),
    ("ccc(p=24) hot spot Single/Fifo/Valiant", 0x26610c64ac55932b),
    (
        "ccc(p=24) hot spot Single/FarthestFirst/Greedy",
        0x3c6559b7876cf41e,
    ),
    (
        "ccc(p=24) hot spot Single/FarthestFirst/Valiant",
        0xf3ef04c0cf043bc1,
    ),
    (
        "shuffle-exchange(p=16) exact h=3 Multi/Fifo/Greedy",
        0x29b2d6415099534a,
    ),
    (
        "shuffle-exchange(p=16) exact h=3 Multi/Fifo/Valiant",
        0xb411ee10723a59d6,
    ),
    (
        "shuffle-exchange(p=16) exact h=3 Multi/FarthestFirst/Greedy",
        0x42fb1a446c12c9c6,
    ),
    (
        "shuffle-exchange(p=16) exact h=3 Multi/FarthestFirst/Valiant",
        0xba6aa3ba7522d49f,
    ),
    (
        "shuffle-exchange(p=16) exact h=3 Single/Fifo/Greedy",
        0x72526d8a28fb8b91,
    ),
    (
        "shuffle-exchange(p=16) exact h=3 Single/Fifo/Valiant",
        0x373faa0c3ef8a53e,
    ),
    (
        "shuffle-exchange(p=16) exact h=3 Single/FarthestFirst/Greedy",
        0xb5747c46ee9dc7c3,
    ),
    (
        "shuffle-exchange(p=16) exact h=3 Single/FarthestFirst/Valiant",
        0x350b98bbfb86bb23,
    ),
    (
        "shuffle-exchange(p=16) hot spot Multi/Fifo/Greedy",
        0xec369a706eff85f5,
    ),
    (
        "shuffle-exchange(p=16) hot spot Multi/Fifo/Valiant",
        0x43add3e381d150d0,
    ),
    (
        "shuffle-exchange(p=16) hot spot Multi/FarthestFirst/Greedy",
        0x4c28be2629cfaa55,
    ),
    (
        "shuffle-exchange(p=16) hot spot Multi/FarthestFirst/Valiant",
        0x5c9b804519190137,
    ),
    (
        "shuffle-exchange(p=16) hot spot Single/Fifo/Greedy",
        0xe77de105e1dc9ee0,
    ),
    (
        "shuffle-exchange(p=16) hot spot Single/Fifo/Valiant",
        0x68672658d318d01b,
    ),
    (
        "shuffle-exchange(p=16) hot spot Single/FarthestFirst/Greedy",
        0x193cc3c7818dede6,
    ),
    (
        "shuffle-exchange(p=16) hot spot Single/FarthestFirst/Valiant",
        0xbeb2e79d15926902,
    ),
    (
        "mesh-of-trees(p=16) exact h=3 Multi/Fifo/Greedy",
        0xc260752c87d67796,
    ),
    (
        "mesh-of-trees(p=16) exact h=3 Multi/Fifo/Valiant",
        0x7ce351868513f94d,
    ),
    (
        "mesh-of-trees(p=16) exact h=3 Multi/FarthestFirst/Greedy",
        0x3a622e09cb32bec8,
    ),
    (
        "mesh-of-trees(p=16) exact h=3 Multi/FarthestFirst/Valiant",
        0x479a34d5b94e3f7b,
    ),
    (
        "mesh-of-trees(p=16) exact h=3 Single/Fifo/Greedy",
        0x3b33db45b21d7c9a,
    ),
    (
        "mesh-of-trees(p=16) exact h=3 Single/Fifo/Valiant",
        0x41ad7d72e0501b2d,
    ),
    (
        "mesh-of-trees(p=16) exact h=3 Single/FarthestFirst/Greedy",
        0xd347c3ce39f3def6,
    ),
    (
        "mesh-of-trees(p=16) exact h=3 Single/FarthestFirst/Valiant",
        0xd0d00d2a0e972904,
    ),
    (
        "mesh-of-trees(p=16) hot spot Multi/Fifo/Greedy",
        0x1805570e8b568f00,
    ),
    (
        "mesh-of-trees(p=16) hot spot Multi/Fifo/Valiant",
        0x8c6ed4f33e3ac124,
    ),
    (
        "mesh-of-trees(p=16) hot spot Multi/FarthestFirst/Greedy",
        0xdc003d9c41a67c96,
    ),
    (
        "mesh-of-trees(p=16) hot spot Multi/FarthestFirst/Valiant",
        0x296811ba6e367331,
    ),
    (
        "mesh-of-trees(p=16) hot spot Single/Fifo/Greedy",
        0xaf74bb8a06d7ca9c,
    ),
    (
        "mesh-of-trees(p=16) hot spot Single/Fifo/Valiant",
        0xb262e0178c955aa3,
    ),
    (
        "mesh-of-trees(p=16) hot spot Single/FarthestFirst/Greedy",
        0xe66bfa3a081b0c5c,
    ),
    (
        "mesh-of-trees(p=16) hot spot Single/FarthestFirst/Valiant",
        0xa5f45049e5deb296,
    ),
];
