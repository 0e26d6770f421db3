//! Seeded inputs: scenario documents as text, and the warm-serve request
//! schedule.
//!
//! Every workload keeps a fixed *shape* — cells per kind, machine sizes,
//! the request-type mix — and draws its *content* from the seed: master
//! seeds, measurement and routing seeds, fault-plan seeds, model
//! parameters that do not change the amount of host work, and the order of
//! requests within each block of the schedule. The program sees only the
//! generated text and the HTTP requests.

use std::fmt::Write as _;

/// A small deterministic generator (SplitMix64), so inputs depend on the
/// seed alone and not on any library's stream.
struct Rng(u64);

impl Rng {
    /// A stream for `(seed, label)`: different labels give unrelated
    /// streams under one seed.
    fn new(seed: u64, label: &str) -> Rng {
        Rng(seed ^ crate::digest::fnv64(label.as_bytes()))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// A seed for a simulator run: nonzero and small enough to read.
    fn seed(&mut self) -> u64 {
        1 + self.below(1 << 31)
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// The experiment name of the cold-grid document.
pub const COLD_EXP: &str = "coldgrid";
/// The experiment name of the big-p document.
pub const BIGP_EXP: &str = "bigp";
/// Guest machine size of the big-p host cell.
pub const BIGP_P: usize = 65536;

/// `(net, mode, view fragment)` of the cold grid's measure cells: Table 1
/// networks at the shipped sizes, every reporting view.
const MEASURE_SLOTS: [(&str, &str, &str); 8] = [
    (
        "mesh-of-trees:8",
        "multi",
        "view=scaling family=mesh-of-trees label=\"mesh-of-trees\"",
    ),
    ("hypercube:8", "multi", "view=obs1 label=\"hypercube(256)\""),
    ("array2d:8", "multi", "view=main family=array:2"),
    ("hypercube:6", "single", "view=main family=hypercube-single"),
    ("hypercube:6", "multi", "view=k6 label=\"hypercube_k6\""),
    (
        "shuffle-exchange:6",
        "multi",
        "view=main family=shuffle-exchange",
    ),
    ("butterfly:4", "multi", "view=main family=butterfly"),
    ("ccc:4", "multi", "view=main family=ccc"),
];

/// `(p, h)` of the cold grid's route cells, largest first so the shared
/// work queue ends on short cells.
const ROUTE_SLOTS: [(usize, usize); 12] = [
    (64, 32),
    (64, 16),
    (16, 32),
    (64, 8),
    (16, 16),
    (64, 4),
    (16, 8),
    (64, 2),
    (16, 4),
    (64, 1),
    (16, 2),
    (16, 1),
];

/// `(p, n, g, l)` of the sort cells (the shipped study's shapes).
const SORT_SLOTS: [(usize, u64, u64, u64); 8] = [
    (16, 2048, 2, 16),
    (8, 4096, 2, 16),
    (16, 1024, 2, 32),
    (4, 1024, 2, 16),
    (8, 512, 4, 32),
    (8, 512, 2, 64),
    (8, 512, 2, 16),
    (4, 256, 2, 16),
];

/// Fault plans of the conformance cells (the shipped decorator mix), with
/// the plan seed left to fill in.
const PLANS: [&str; 8] = [
    "jitter=uniform:6",
    "reorder=30",
    "dup=3",
    "burst=64x8",
    "squeeze=2",
    "degrade=8:2",
    "jitter=uniform:4,dup=5,squeeze=3",
    "jitter=uniform:3,reorder=20",
];

const SIMS: [&str; 3] = ["route_det", "route_rand", "logp_on_bsp"];

fn grid(out: &mut String, rng: &mut Rng, exp: &str, domain: &str) {
    let _ = writeln!(out, "grid exp={exp} master={} domain={domain}", rng.seed());
}

/// The cold-grid document: 100 cells covering every compute `Work` kind
/// at the shipped scenarios' sizes (p ≤ 64), one grid per kind.
pub fn cold_grid(seed: u64) -> String {
    let mut r = Rng::new(seed, "cold_grid");
    let mut s = format!("scenario {COLD_EXP}\n");

    grid(&mut s, &mut r, COLD_EXP, "cg-measure");
    for (net, mode, view) in MEASURE_SLOTS {
        let _ = writeln!(
            s,
            "cell measure net={net} mode={mode} seed={} {view} params=\"{net} {mode}\"",
            r.seed()
        );
    }

    grid(&mut s, &mut r, COLD_EXP, "cg-host");
    for i in 0..16 {
        let p = [4usize, 8, 16, 32, 64, 16, 32, 64][i % 8];
        let (l, g) = r.pick(&[(16u64, 4u64), (16, 2), (32, 4), (8, 2)]);
        let (fg, fl) = (r.pick(&[1u64, 2, 4]), r.pick(&[1u64, 2, 4]));
        let wl = if i % 4 == 3 {
            "alltoall".to_string()
        } else {
            format!("ring:{}", 4 + 4 * (i % 2))
        };
        let _ = writeln!(
            s,
            "cell host logp={p}:{l}:1:{g} fg={fg} fl={fl} wl={wl} params=\"host p={p} {wl} {fg}x/{fl}x\""
        );
    }

    grid(&mut s, &mut r, COLD_EXP, "cg-route");
    for (p, h) in ROUTE_SLOTS {
        let _ = writeln!(
            s,
            "cell route logp={p}:16:1:2 h={h} scheme=network seed={} params=\"route p={p} h={h}\"",
            r.seed()
        );
    }

    grid(&mut s, &mut r, COLD_EXP, "cg-route-big");
    for h in [128, 98] {
        let _ = writeln!(
            s,
            "cell route-big logp=8:16:1:2 h={h} seed={} params=\"route-big p=8 h={h}\"",
            r.seed()
        );
    }

    grid(&mut s, &mut r, COLD_EXP, "cg-superstep");
    for strategy in ["deterministic", "randomized:2", "offline"].repeat(2) {
        let _ = writeln!(
            s,
            "cell superstep logp=16:16:1:2 strategy={strategy} wl=mod7fan params=\"superstep {strategy}\""
        );
    }

    grid(&mut s, &mut r, COLD_EXP, "cg-conformance");
    for i in 0..24 {
        let (p, h) = if i < 8 { (16, 6) } else { (8, 4) };
        let sim = SIMS[i % 3];
        let plan = format!("seed={},{}", r.seed(), PLANS[i % 8]);
        let _ = writeln!(
            s,
            "cell conformance sim={sim} p={p} h={h} seed={} plan={plan} params=\"{sim} p={p} h={h}\"",
            r.seed()
        );
    }

    let _ = writeln!(
        s,
        "grid exp={COLD_EXP} master={} domain=cg-stack seed={}",
        r.seed(),
        r.seed()
    );
    for (net, rounds) in [
        ("hypercube:5", 8),
        ("butterfly:3", 8),
        ("hypercube:5", 4),
        ("butterfly:3", 4),
    ] {
        let _ = writeln!(
            s,
            "cell stack net={net} rounds={rounds} seed={} params=\"stack {net} rounds={rounds}\"",
            r.seed()
        );
    }

    grid(&mut s, &mut r, COLD_EXP, "cg-sort");
    for (p, n, g, l) in SORT_SLOTS {
        let _ = writeln!(
            s,
            "cell sort p={p} n={n} g={g} l={l} seed={} params=\"sort p={p} n={n} g={g} l={l}\"",
            r.seed()
        );
    }

    grid(&mut s, &mut r, COLD_EXP, "cg-stream");
    for window in [4, 8, 16, 32, 64, 10000] {
        let _ = writeln!(
            s,
            "cell stream p=8 n=512 window={window} g=2 l=16 seed={} params=\"stream window={window}\"",
            r.seed()
        );
    }

    grid(&mut s, &mut r, COLD_EXP, "cg-bsf");
    for i in 0..14 {
        bsf_cell(&mut s, &mut r, [2usize, 4, 8, 16, 32, 64][i % 6]);
    }
    s
}

fn bsf_cell(s: &mut String, r: &mut Rng, workers: usize) {
    let units = r.pick(&[128u64, 256, 512]);
    let (tt, tw, ts, iters) = (
        r.pick(&[1u64, 2, 3]),
        r.pick(&[2u64, 4, 8]),
        r.pick(&[1u64, 5, 9]),
        r.pick(&[2u64, 3]),
    );
    let _ = writeln!(
        s,
        "cell bsf workers={workers} units={units} tt={tt} tw={tw} ts={ts} iters={iters} \
         params=\"bsf workers={workers} units={units}\""
    );
}

fn host_cell(s: &mut String, r: &mut Rng, p: usize) {
    let (l, g) = r.pick(&[(16u64, 4u64), (16, 2), (8, 2)]);
    let (fg, fl) = (r.pick(&[1u64, 2, 4]), r.pick(&[1u64, 2, 4]));
    let _ = writeln!(
        s,
        "cell host logp={p}:{l}:1:{g} fg={fg} fl={fl} wl=ring:2 params=\"host p={p} {fg}x/{fl}x\""
    );
}

/// The warm-serve experiments: `(name, cells)`. Three experiments of
/// different sizes, so a whole-store scan costs the same whichever one a
/// request names while the rows it returns do not.
pub const SERVE_EXPS: [(&str, usize); 3] = [("ws-bsf", 500), ("ws-host", 500), ("ws-mix", 1500)];

/// The three warm-serve documents, in [`SERVE_EXPS`] order: cheap cells
/// (BSF farms, small Theorem 1 rings) that fill the store quickly.
pub fn serve_docs(seed: u64) -> Vec<String> {
    SERVE_EXPS
        .iter()
        .map(|&(exp, cells)| {
            let mut r = Rng::new(seed, exp);
            let mut s = format!("scenario {exp}\n");
            grid(&mut s, &mut r, exp, exp);
            for i in 0..cells {
                match exp {
                    "ws-bsf" => bsf_cell(&mut s, &mut r, [2usize, 4, 8, 16, 32, 64][i % 6]),
                    "ws-host" => host_cell(&mut s, &mut r, [4usize, 8][i % 2]),
                    _ if i % 3 == 2 => host_cell(&mut s, &mut r, 4),
                    _ => bsf_cell(&mut s, &mut r, [2usize, 8, 32][i % 3]),
                }
            }
            s
        })
        .collect()
}

/// The big-p document: one Theorem 1 `host` cell, a ring guest at
/// p = 65536 on a BSP host.
pub fn bigp(seed: u64) -> String {
    let mut r = Rng::new(seed, "bigp_host");
    let mut s = format!("scenario {BIGP_EXP}\n");
    grid(&mut s, &mut r, BIGP_EXP, BIGP_EXP);
    // The guest's L and G set how many supersteps the host runs, so they
    // stay fixed; the host's g and l factors change only the costs.
    let (fg, fl) = (1 + r.below(8), 1 + r.below(8));
    let _ = writeln!(
        s,
        "cell host logp={BIGP_P}:16:1:4 fg={fg} fl={fl} wl=ring:4 params=\"ring p={BIGP_P} {fg}x/{fl}x\""
    );
    s
}

/// One warm-serve request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// `POST /run` re-submitting serve document `i`.
    Run(usize),
    /// `GET /cells?exp=` of serve experiment `i`.
    Cells(usize),
    Status,
    Metrics,
}

impl Req {
    pub fn route(self) -> &'static str {
        match self {
            Req::Run(_) => "run",
            Req::Cells(_) => "cells",
            Req::Status => "status",
            Req::Metrics => "metrics",
        }
    }
}

/// Requests per block of the mix.
pub const BLOCK: usize = 10;

/// Block `b` of the request mix over `docs` documents, unshuffled. The
/// weights are the ones the repository's serve harness (`bench_serve`)
/// declares: one warm `POST /run`, two `GET /cells`, one `GET /metrics`
/// and six `GET /status` in every ten. The documents rotate from block to
/// block, so every `docs` blocks run each document once and fetch each
/// experiment's cells twice.
fn block(b: usize, docs: usize) -> [Req; BLOCK] {
    let d = |k: usize| (b + k) % docs;
    [
        Req::Run(d(0)),
        Req::Cells(d(1)),
        Req::Cells(d(2)),
        Req::Metrics,
        Req::Status,
        Req::Status,
        Req::Status,
        Req::Status,
        Req::Status,
        Req::Status,
    ]
}

/// Request `n` of `client`'s endless schedule over `docs` documents:
/// block `n / 10` of the mix, shuffled by `(seed, client, block)`.
pub fn request(seed: u64, client: usize, n: usize, docs: usize) -> Req {
    let b = n / BLOCK;
    let mut r = Rng::new(seed ^ ((client as u64) << 48) ^ b as u64, "schedule");
    let mut reqs = block(b, docs);
    r.shuffle(&mut reqs);
    reqs[n % BLOCK]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Cells per `Work` kind, read from the text.
    fn kinds(text: &str) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for line in text.lines().filter(|l| l.starts_with("cell ")) {
            *m.entry(line.split_whitespace().nth(1).unwrap().to_string())
                .or_default() += 1;
        }
        m
    }

    fn all_docs(seed: u64) -> Vec<String> {
        let mut d = vec![cold_grid(seed), bigp(seed)];
        d.extend(serve_docs(seed));
        d
    }

    fn schedule(seed: u64) -> Vec<Req> {
        (0..2)
            .flat_map(|c| (0..300).map(move |n| request(seed, c, n, 3)))
            .collect()
    }

    #[test]
    fn one_seed_gives_identical_documents_and_schedules() {
        assert_eq!(all_docs(7), all_docs(7));
        assert_eq!(schedule(7), schedule(7));
    }

    #[test]
    fn another_seed_keeps_the_shape_and_changes_the_content() {
        for (a, b) in all_docs(1).iter().zip(&all_docs(2)) {
            assert_ne!(a, b);
            assert_eq!(kinds(a), kinds(b));
        }
        let mix = |s: &[Req]| {
            let mut m = BTreeMap::new();
            for r in s {
                *m.entry(format!("{r:?}")).or_insert(0) += 1;
            }
            m
        };
        assert_ne!(schedule(1), schedule(2));
        assert_eq!(mix(&schedule(1)), mix(&schedule(2)));
    }

    #[test]
    fn the_mix_has_the_serve_harness_weights() {
        let mut routes = BTreeMap::new();
        for r in schedule(4) {
            *routes.entry(r.route()).or_insert(0) += 1;
        }
        // Two clients, 300 requests each: 60 blocks of ten.
        assert_eq!(
            routes,
            BTreeMap::from([
                ("cells", 120),
                ("metrics", 60),
                ("run", 60),
                ("status", 360)
            ])
        );
        // One document: every run and fetch names it.
        assert!((0..100).all(|n| !matches!(request(4, 1, n, 1), Req::Run(1..) | Req::Cells(1..))));
    }

    #[test]
    fn the_cold_grid_covers_every_compute_kind() {
        let k = kinds(&cold_grid(1));
        let names: Vec<&str> = k.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            [
                "bsf",
                "conformance",
                "host",
                "measure",
                "route",
                "route-big",
                "sort",
                "stack",
                "stream",
                "superstep"
            ]
        );
        assert_eq!(k.values().sum::<usize>(), 100);
    }

    #[test]
    fn documents_parse_and_compile_to_the_declared_cells() {
        for (text, cells) in all_docs(3).iter().zip([100, 1, 500, 500, 1500]) {
            let doc = bvl_scenario::parse(text).expect("generated text parses");
            let compiled = bvl_scenario::compile(&doc, false).expect("and compiles");
            assert_eq!(compiled.cells(), cells);
        }
    }
}
