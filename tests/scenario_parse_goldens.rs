//! Cross-version pins of the scenario text parser, `bvl_scenario::parse`.
//! Every case renders `format!("{:?}", parse(text))` for each document of a
//! seeded corpus, one line per document, and hashes the lines. A line is
//! the parsed `ScenarioDoc`, or the `ParseError` with its offset, line and
//! message. The digests were recorded from commit 039c10c, before the
//! tokenizer moved to borrowed tokens (DESIGN.md §15).
//!
//! * Every shipped `scenarios/*.scn` document.
//! * Documents shaped like the repository benchmark's warm-serve ones:
//!   BSF farms and small Theorem 1 rings with quoted `params`.
//! * Every byte prefix of a small document that uses each lexical form:
//!   comments, `;`, bare and quoted values, every escape, fault plans,
//!   flags and multi-byte text. A prefix that ends inside a character is
//!   read lossily, so it ends in U+FFFD.
//! * Seeded mutants of that document, with `"`, `\`, bad escapes, line
//!   breaks, `;`, `#`, `=` and multi-byte characters inserted.
//! * Documents with several errors, where the first reported error must
//!   not move: a semantic error early and a lexical one late.
//!
//! A digest may only be updated together with a documented change to the
//! scenario grammar or to its error messages.

use bvl_scenario::parse;
use std::collections::BTreeSet;
use std::fmt::Write as _;

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

/// One line per document: the parse result's `Debug` form.
fn render<'a>(docs: impl IntoIterator<Item = &'a str>) -> String {
    let mut out = String::new();
    for doc in docs {
        writeln!(out, "{:?}", parse(doc)).unwrap();
    }
    out
}

/// SplitMix64: the corpus must not move with the vendored RNG crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// A small document that uses every lexical form the grammar has.
const TOUR: &str = r#"# a lexical tour
scenario tour # the name
grid exp=tour master=7 domain=tour-d seed=3 trace clock_base=5 budget=900 fault=seed=2,jitter=uniform:3
cell bsf workers=4 units=128 tt=1 tw=2 ts=5 iters=2 params="bsf \"q\" \\ \t\n γ=1" smoke; cell host logp=8:16:1:2 fg=2 fl=1 wl=ring:2 params="host p=8 2x/1x" domain=d2

  cell conformance sim=route_det p=8 h=4 seed=9 plan=seed=11,jitter=uniform:6 params="é→ş 😀" force # trailing
cell route logp=8:16:1:4 h=2 scheme=network seed=5 params=plain-bare
grid exp=tour2 master=8 only=smoke;cell stack net=hypercube:3 rounds=2 seed=1 params=""
"#;

/// Text a mutant may insert: the quote, the backslash, bad and good
/// escapes, separators, the comment and split characters, and multi-byte
/// characters of two, three and four bytes.
const INSERTS: &[&str] = &[
    "\"",
    "\\",
    "\\q",
    "\\\"",
    "\\u",
    "\n",
    ";",
    "#",
    "=",
    "=\"",
    "\"\"",
    " ",
    "é",
    "→",
    "😀",
    "x=",
    "params=\"",
    "smoke",
];

fn char_boundary(rng: &mut Rng, s: &str) -> usize {
    loop {
        let i = rng.below(s.len() + 1);
        if s.is_char_boundary(i) {
            return i;
        }
    }
}

/// The mutant corpus: four chunks of 128, chunk `k` seeded `MUTANT_SEED + k`.
const MUTANT_SEED: u64 = 0x6d75_7461;
const MUTANT_CHUNKS: u64 = 4;

fn mutants(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng(seed);
    (0..count)
        .map(|_| {
            let mut doc = TOUR.to_string();
            for _ in 0..1 + rng.below(3) {
                let at = char_boundary(&mut rng, &doc);
                doc.insert_str(at, rng.pick(INSERTS));
            }
            doc
        })
        .collect()
}

fn bsf_cell(out: &mut String, rng: &mut Rng, workers: usize) {
    let units = rng.pick(&[128u64, 256, 512]);
    let (tt, tw, ts, iters) = (
        rng.pick(&[1u64, 2, 3]),
        rng.pick(&[2u64, 4, 8]),
        rng.pick(&[1u64, 5, 9]),
        rng.pick(&[2u64, 3]),
    );
    writeln!(
        out,
        "cell bsf workers={workers} units={units} tt={tt} tw={tw} ts={ts} iters={iters} \
         params=\"bsf workers={workers} units={units}\""
    )
    .unwrap();
}

fn host_cell(out: &mut String, rng: &mut Rng, p: usize) {
    let (l, g) = rng.pick(&[(16u64, 4u64), (16, 2), (8, 2)]);
    let (fg, fl) = (rng.pick(&[1u64, 2, 4]), rng.pick(&[1u64, 2, 4]));
    writeln!(
        out,
        "cell host logp={p}:{l}:1:{g} fg={fg} fl={fl} wl=ring:2 params=\"host p={p} {fg}x/{fl}x\""
    )
    .unwrap();
}

/// Warm-serve-shaped documents: a BSF farm, a host ring and a mix.
fn bench_docs(seed: u64) -> Vec<(String, String)> {
    let mut rng = Rng(seed);
    [("bsf", 60), ("host", 60), ("mix", 90)]
        .into_iter()
        .map(|(kind, cells)| {
            let exp = format!("ws-{kind}");
            let mut doc = format!("scenario {exp}\n");
            writeln!(doc, "grid exp={exp} master={} domain={exp}", rng.next()).unwrap();
            for i in 0..cells {
                match kind {
                    "bsf" => bsf_cell(&mut doc, &mut rng, [2, 4, 8, 16, 32, 64][i % 6]),
                    "host" => host_cell(&mut doc, &mut rng, [4, 8][i % 2]),
                    _ if i % 3 == 2 => host_cell(&mut doc, &mut rng, 4),
                    _ => bsf_cell(&mut doc, &mut rng, [2, 8, 32][i % 3]),
                }
            }
            (format!("bench-{kind}"), doc)
        })
        .collect()
}

/// Documents with a semantic error in an early statement and a lexical
/// error in a late one. The whole text is tokenized before any statement
/// is parsed, so the late lexical error is the one reported.
const SEVERAL_ERRORS: &[&str] = &[
    "scenario s\ngrid exp=e master=nope domain=d\ncell bsf workers=2 units=128 tt=1 tw=2 ts=1 iters=2 params=\"ok\"\ncell bsf workers=2 units=128 tt=1 tw=2 ts=1 iters=2 params=\"never closed\n",
    "scenario s\ngrid exp=e master=1 bogus=1\ncell stack net=hypercube:3 rounds=2 seed=1 params=\"bad \\q escape\"\n",
    "scenario s\ngrid exp=e master=1\ncell dance params=\"x\"\ncell stack net=hypercube:3 rounds=2 seed=1 params=\"x\" \"stray\"\n",
    "scenario s; grid exp=e master=1; cell route logp=8:4:1:9 h=1 scheme=network seed=7 params=\"x\"; cell stack empty= params=\"x\"",
    "scenario s\ngrid exp=e master=1\ncell stack params=\"é \\x\"\ncell stack params=\"unterminated",
    "scenario s\ngrid exp=e master=1\ncell stack net=hypercube:3 rounds=2 seed=1 params=\"ends in a backslash\\",
];

fn cases() -> Vec<(String, String)> {
    let mut cases = Vec::new();

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable scenario");
        let name = path.file_name().unwrap().to_string_lossy();
        cases.push((format!("scenarios/{name}"), render([text.as_str()])));
    }

    for (name, doc) in bench_docs(0x5eed) {
        cases.push((name, render([doc.as_str()])));
    }

    let prefixes: Vec<String> = (0..=TOUR.len())
        .map(|i| String::from_utf8_lossy(&TOUR.as_bytes()[..i]).into_owned())
        .collect();
    cases.push((
        "tour-prefixes".into(),
        render(prefixes.iter().map(String::as_str)),
    ));

    for chunk in 0..MUTANT_CHUNKS {
        let docs = mutants(MUTANT_SEED + chunk, 128);
        cases.push((
            format!("tour-mutants-{chunk}"),
            render(docs.iter().map(String::as_str)),
        ));
    }

    cases.push((
        "several-errors".into(),
        render(SEVERAL_ERRORS.iter().copied()),
    ));
    cases
}

#[test]
fn parse_results_match_recorded_digests() {
    check(cases(), DIGESTS);
}

/// The corpus reaches every lexical error and still parses some mutants.
#[test]
fn mutants_reach_every_lexical_error() {
    let mut messages = BTreeSet::new();
    let mut parsed = 0;
    for chunk in 0..MUTANT_CHUNKS {
        for doc in mutants(MUTANT_SEED + chunk, 128) {
            match parse(&doc) {
                Ok(_) => parsed += 1,
                Err(e) => {
                    messages.insert(e.msg);
                }
            }
        }
    }
    assert!(parsed > 0, "no mutant parsed");
    for needle in [
        "unterminated quoted value",
        "bad escape",
        "unexpected '\"'",
        "has an empty value",
        "unknown attribute",
    ] {
        assert!(
            messages.iter().any(|m| m.contains(needle)),
            "no mutant failed with {needle:?}: {messages:?}"
        );
    }
}

#[test]
fn the_first_error_is_the_late_lexical_one() {
    let src = SEVERAL_ERRORS[0];
    let e = parse(src).unwrap_err();
    assert_eq!(e.offset, src.rfind("params=").unwrap());
    assert_eq!(e.line, 4);
    assert_eq!(e.msg, "unterminated quoted value");
}

const DIGESTS: &[(&str, u64)] = &[
    ("scenarios/bsf.scn", 0xdc2997a4f2de8799),
    ("scenarios/faults.scn", 0x3afa96308f149066),
    ("scenarios/scaling.scn", 0xff86fd4bc5110d6c),
    ("scenarios/sort.scn", 0xb0666842bb82d8ae),
    ("scenarios/stack.scn", 0x6dc033346b9b7d12),
    ("scenarios/stream.scn", 0xe797e45c6eeb4350),
    ("scenarios/table1.scn", 0x81c8ce5bb36eddd2),
    ("scenarios/thm1.scn", 0x8c52dc84bd8163ad),
    ("scenarios/thm2.scn", 0x4036cb2e57d60dab),
    ("bench-bsf", 0x636eb10872cf065b),
    ("bench-host", 0x52059be905b3bada),
    ("bench-mix", 0x5ebc9dee34f939cc),
    ("tour-prefixes", 0x8f6340053a9567d6),
    ("tour-mutants-0", 0x5467552a45d0ef83),
    ("tour-mutants-1", 0x41a324dbf853160a),
    ("tour-mutants-2", 0x063345eaa1861f83),
    ("tour-mutants-3", 0xe10bdb150b6922d3),
    ("several-errors", 0x733c3ab963c17274),
];
