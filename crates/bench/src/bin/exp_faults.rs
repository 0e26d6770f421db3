//! E-FAULT: differential conformance under adversarial media.
//!
//! Runs the fault-plan matrix (`bvl_fault::conformance`) over every
//! simulator and reports per-case timings, retry counts and check
//! failures. Every failure prints a one-line repro command; the lines are
//! also written to `fault-repros.txt` so CI can upload them as artifacts.
//!
//! ```sh
//! cargo run --release -p bvl-bench --bin exp_faults              # full grid
//! cargo run --release -p bvl-bench --bin exp_faults -- --smoke   # CI matrix
//! cargo run --release -p bvl-bench --bin exp_faults -- \
//!     --sim route_rand --p 8 --h 4 --seed 3 --plan 'seed=9,jitter=uniform:6'
//! ```
//!
//! The single-case form is exactly what the printed repro lines contain.

use bvl_bench::labexp::{self, faults};
use bvl_bench::{banner, obs, print_table, scn};
use bvl_fault::conformance::{default_plans, run_case};
use bvl_fault::Case;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Single-case repro mode: the exact flags the failure lines print.
    if args.iter().any(|a| a.starts_with("--sim")) {
        let case = Case::parse_args(&args).unwrap_or_else(|e| {
            eprintln!("exp_faults: {e}");
            std::process::exit(2);
        });
        banner(&format!("Repro: {} under '{}'", case.sim, case.plan));
        let rep = run_case(&case);
        println!(
            "clean {} / faulted {} steps, {} attempt(s), {} checks",
            rep.clean_time.get(),
            rep.faulted_time.get(),
            rep.attempts,
            rep.checks
        );
        if rep.ok() {
            println!("conformant");
            return;
        }
        for f in &rep.failures {
            eprintln!("FAIL {f}");
        }
        std::process::exit(1);
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    banner(if smoke {
        "E-FAULT (smoke): default plans x all simulators at p=8, h=4"
    } else {
        "E-FAULT: fault-plan conformance matrix across the simulators"
    });

    // The case matrix runs as a lab grid compiled from
    // `scenarios/faults.scn`: each cell is one (plan, shape, simulator)
    // case, keyed by its fault-plan repro line. Uncached by default; with
    // BVL_LAB_DIR set, a warm store replays verdicts, check counts and
    // repro lines without re-simulating. Cells also fan out over rayon
    // either way (the old driver was sequential) — the printed table keeps
    // matrix order because the grid preserves request order. Completed
    // grids pass the conformance lower-bound audit (faulted >= clean,
    // clean >= the route latency floor) before printing.
    let lab = labexp::Lab::from_env();
    let scenario = scn::compiled("faults", smoke);
    let case_count = scenario.grids[0].spec.cells.len();
    let (rep, _) = scn::run_in_lab(&lab, &scenario.grids[0], None);
    eprintln!("[sweep] faults: {}", rep.summary());
    let (rows, repros, checks) = faults::fold(rep);
    print_table(
        &["sim", "p", "h", "plan", "clean", "faulted", "attempts", "verdict"],
        &rows,
    );

    obs::Summary::new("exp_faults")
        .kv("cases", case_count)
        .kv("checks", checks)
        .kv("plans", default_plans().len())
        .kv("failures", repros.len())
        .emit();

    if !smoke {
        let mut json = String::from("{\n  \"experiment\": \"exp_faults\",\n  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"sim\": \"{}\", \"p\": {}, \"h\": {}, \"plan\": \"{}\", \
                 \"clean\": {}, \"faulted\": {}, \"attempts\": {}, \"ok\": {}}}{}\n",
                r[0],
                r[1],
                r[2],
                r[3],
                r[4],
                r[5],
                r[6],
                r[7] == "ok",
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write("BENCH_faults.json", &json).expect("write BENCH_faults.json");
        eprintln!("wrote BENCH_faults.json");
    }

    if !repros.is_empty() {
        std::fs::write("fault-repros.txt", repros.join("\n") + "\n")
            .expect("write fault-repros.txt");
        eprintln!(
            "{} failing case(s); repro commands in fault-repros.txt",
            repros.len()
        );
        std::process::exit(1);
    }
}
