//! End-to-end pipeline fuzz (ISSUE 9): arbitrary byte soup and near-miss
//! mutations of the shipped `scenarios/*.scn` documents, pushed through
//! parse → compile → `run_grid` smoke → bounds audit. The contract under
//! fuzz is *total*ity, not acceptance:
//!
//! * no input panics any stage;
//! * every parse rejection carries a byte offset inside the source;
//! * whatever parses must compile or fail cleanly; whatever compiles must
//!   run under a synthetic cell body and audit without panicking, and the
//!   audit verdict is a pure function of the rows (same call, same
//!   violations — the gate can never flap).
//!
//! ≥256 cases per property (the shipped-document mutator runs 6 shipped
//! sources × mutations per case).

use bvl_lab::run_grid;
use bvl_obs::Registry;
use bvl_scenario::{audit_grid, compile, grid_digest, parse};
use proptest::prelude::*;
use proptest::test_runner::{ProptestConfig, TestRng};

const SHIPPED: [&str; 6] = [
    include_str!("../../../scenarios/table1.scn"),
    include_str!("../../../scenarios/thm1.scn"),
    include_str!("../../../scenarios/thm2.scn"),
    include_str!("../../../scenarios/faults.scn"),
    include_str!("../../../scenarios/stack.scn"),
    include_str!("../../../scenarios/scaling.scn"),
];

fn pick(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// Raw byte soup rendered as a string: ASCII printables, structural
/// characters the tokenizer cares about, control bytes, and multi-byte
/// UTF-8 — everything short of invalid UTF-8 (the parser takes `&str`).
fn soup() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] = &[
        'a', 'z', 'A', '0', '9', ' ', '\t', '\n', '\r', '"', '\\', '=', '#', ';', ':', ',', '(',
        ')', '{', '}', '[', ']', '.', '-', '+', '\u{0}', '\u{7f}', 'γ', '🧪',
    ];
    Just(()).prop_perturb(|_, mut rng| {
        let len = pick(&mut rng, 200) as usize;
        (0..len)
            .map(|_| ALPHABET[pick(&mut rng, ALPHABET.len() as u64) as usize])
            .collect()
    })
}

/// A near-miss mutant of a shipped document: deletions, duplications,
/// character substitutions, truncations, and cross-document splices. The
/// result is *almost* a real scenario — the hardest class of input for a
/// hand-rolled parser.
fn mutant() -> impl Strategy<Value = String> {
    Just(()).prop_perturb(|_, mut rng| {
        let base = SHIPPED[pick(&mut rng, SHIPPED.len() as u64) as usize];
        let mut text: Vec<char> = base.chars().collect();
        for _ in 0..=pick(&mut rng, 4) {
            match pick(&mut rng, 5) {
                0 if !text.is_empty() => {
                    // Delete a char.
                    let at = pick(&mut rng, text.len() as u64) as usize;
                    text.remove(at);
                }
                1 if !text.is_empty() => {
                    // Duplicate a char.
                    let at = pick(&mut rng, text.len() as u64) as usize;
                    let c = text[at];
                    text.insert(at, c);
                }
                2 if !text.is_empty() => {
                    // Substitute with a structural char.
                    const SUBS: &[char] = &['"', '=', '#', '\n', ';', 'x', '0', ' '];
                    let at = pick(&mut rng, text.len() as u64) as usize;
                    text[at] = SUBS[pick(&mut rng, SUBS.len() as u64) as usize];
                }
                3 if !text.is_empty() => {
                    // Truncate.
                    let at = pick(&mut rng, text.len() as u64) as usize;
                    text.truncate(at);
                }
                _ => {
                    // Splice a random window of another shipped document.
                    let other = SHIPPED[pick(&mut rng, SHIPPED.len() as u64) as usize];
                    let chars: Vec<char> = other.chars().collect();
                    let from = pick(&mut rng, chars.len() as u64) as usize;
                    let len = pick(&mut rng, 40) as usize;
                    let at = pick(&mut rng, text.len() as u64 + 1) as usize;
                    for (k, &c) in chars[from..(from + len).min(chars.len())].iter().enumerate() {
                        text.insert(at + k, c);
                    }
                }
            }
        }
        text.into_iter().collect()
    })
}

/// The whole pipeline on one input. Each stage may reject; none may
/// panic, and the audit verdict must be reproducible.
fn drive(text: &str) {
    let doc = match parse(text) {
        Err(e) => {
            assert!(e.offset <= text.len(), "offset {} past {}", e.offset, text.len());
            assert!(e.line >= 1, "line numbers are 1-based");
            return;
        }
        Ok(doc) => doc,
    };
    // Whatever parsed must serialize and re-parse to itself — mutants
    // that survive the parser join the round-trip contract.
    let reparsed = parse(&doc.to_text()).expect("serialized form re-parses");
    assert_eq!(reparsed, doc, "round-trip moved the document");
    let compiled = match compile(&doc, true) {
        Err(_) => return,
        Ok(c) => c,
    };
    for grid in &compiled.grids {
        // Digesting is total on compiled grids.
        let _ = grid_digest(&grid.spec);
        // Run the grid uncached with a synthetic body: the scheduler and
        // seed derivation must accept any compiled spec.
        let rep = run_grid(&grid.spec, None, &Registry::disabled(), |cell, job| {
            vec![vec![cell.domain.clone(), job.index.to_string(), "0".into()]]
        })
        .expect("uncached run of a compiled grid");
        assert_eq!(rep.rows.len(), grid.spec.cells.len());
        // The audit gate is pure: same rows, same verdict, and synthetic
        // rows (wrong arity for every bound) must not panic it.
        let first = audit_grid(&grid.spec, &grid.work, &rep.rows);
        let second = audit_grid(&grid.spec, &grid.work, &rep.rows);
        assert_eq!(first, second, "audit verdict flapped");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Unstructured byte soup: the pipeline is total on garbage.
    #[test]
    fn byte_soup_never_panics_the_pipeline(text in soup()) {
        drive(&text);
    }

    /// Near-miss mutants of the six shipped documents: the pipeline is
    /// total on almost-valid input, and anything that still parses keeps
    /// every downstream invariant.
    #[test]
    fn shipped_document_mutants_never_panic_the_pipeline(text in mutant()) {
        drive(&text);
    }
}

/// The unmutated shipped documents pass the whole pipeline — the fuzz
/// harness itself would catch a stage that rejects legitimate input.
#[test]
fn shipped_documents_drive_cleanly() {
    for text in SHIPPED {
        let doc = parse(text).expect("shipped scenario parses");
        let compiled = compile(&doc, true).expect("shipped scenario compiles");
        assert!(!compiled.grids.is_empty(), "{}: no grids", compiled.name);
        drive(text);
    }
}

/// Parse errors go back to clients in `POST /run`'s 400 body, so they must
/// not grow with what the client sent: a ~100 kB token in any position an
/// error quotes draws an error under 1 kB, with the token clipped.
#[test]
fn errors_quote_a_huge_token_clipped() {
    let big = "x".repeat(100_000);
    let digits = "9".repeat(100_000);
    let zeros = format!("{}9", "0".repeat(100_000));
    let grid = "scenario s\ngrid exp=e master=1 domain=d\n";
    let cases: Vec<(&str, String)> = vec![
        ("unknown statement", format!("scenario s\n{big}\n")),
        ("unknown cell kind", format!("{grid}cell {big} params=\"x\"\n")),
        ("unknown attribute", format!("scenario s\ngrid exp=e master=1 {big}=1\n")),
        ("has an empty value", format!("scenario s\ngrid exp=e master=1 {big}= \n")),
        ("is not a number", format!("scenario s\ngrid exp=e master={big}\n")),
        ("is not smoke | full", format!("scenario s\ngrid exp=e master=1 only={big}\n")),
        ("bad fault plan", format!("scenario s\ngrid exp=e master=1 fault={big}\n")),
        ("bad fault plan", format!("scenario s\ngrid exp=e master=1 fault=seed=1,jitter={big}\n")),
        ("bad net", format!("{grid}cell stack net={big} rounds=1 seed=1 params=\"x\"\n")),
        ("bad net", format!("{grid}cell stack net=hypercube:{digits} rounds=1 seed=1 params=\"x\"\n")),
        ("is not multi | single", format!("{grid}cell measure net=hypercube:3 mode={big} seed=1 view=main family=ccc params=\"x\"\n")),
        ("is not main", format!("{grid}cell measure net=hypercube:3 mode=multi seed=1 view={big} params=\"x\"\n")),
        ("bad family", format!("{grid}cell measure net=hypercube:3 mode=multi seed=1 view=main family={big} params=\"x\"\n")),
        ("is not of the form P:L:O:G", format!("{grid}cell route logp={big} h=1 scheme=network seed=1 params=\"x\"\n")),
        ("is not a number", format!("{grid}cell route logp=8:{digits}:1:2 h=1 scheme=network seed=1 params=\"x\"\n")),
        ("'logp=", format!("{grid}cell route logp=8:4:1:{zeros} h=1 scheme=network seed=1 params=\"x\"\n")),
        ("is not network | columnsort", format!("{grid}cell route logp=8:16:1:2 h=1 scheme={big} seed=1 params=\"x\"\n")),
        ("is not ring:ROUNDS | alltoall", format!("{grid}cell host logp=8:16:1:2 fg=1 fl=1 wl={big} params=\"x\"\n")),
        ("is not a round count", format!("{grid}cell host logp=8:16:1:2 fg=1 fl=1 wl=ring:{big} params=\"x\"\n")),
        ("is not offline", format!("{grid}cell superstep logp=8:16:1:2 strategy={big} wl=mod7fan params=\"x\"\n")),
        ("is not mod7fan", format!("{grid}cell superstep logp=8:16:1:2 strategy=offline wl={big} params=\"x\"\n")),
        ("bad sim", format!("{grid}cell conformance sim={big} p=8 h=4 seed=1 params=\"x\"\n")),
    ];
    for (want, doc) in &cases {
        let e = parse(doc).expect_err(want);
        let text = e.to_string();
        assert!(text.contains(want), "expected {want:?}, got {text}");
        assert!(text.contains('…'), "{want:?}: token not clipped: {text}");
        assert!(text.len() < 1024, "{want:?}: {} B error", text.len());
    }
}

/// Compile errors reach clients the same way and quote the grid's name:
/// a ~100 kB `exp=` draws a clipped error under 1 kB for a cell with no
/// domain and for a forced cell in a smoke compile.
#[test]
fn compile_errors_quote_a_huge_grid_name_clipped() {
    let grid = format!("scenario s\ngrid exp={} master=1", "x".repeat(100_000));
    let cell = "cell stack net=hypercube:3 rounds=1 seed=1 params=\"x\"";
    for (want, doc, smoke) in [
        ("no domain", format!("{grid}\n{cell}\n"), false),
        ("forced cells cannot", format!("{grid} domain=d\n{cell} smoke force\n"), true),
    ] {
        let text = compile(&parse(&doc).unwrap(), smoke).expect_err(want).to_string();
        assert!(text.contains(want), "expected {want:?}, got {text:.200}");
        assert!(text.contains('…'), "{want:?}: grid name not clipped: {text:.200}");
        assert!(text.len() < 1024, "{want:?}: {} B error", text.len());
    }
}
