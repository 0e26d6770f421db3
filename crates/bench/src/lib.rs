//! # bvl-bench — experiment regenerators and engine benchmarks
//!
//! The `exp-*` binaries (`src/bin/`) regenerate every quantitative result of
//! the paper — Table 1 and each theorem/proposition bound — printing
//! measured-vs-predicted tables (recorded in `EXPERIMENTS.md`). The
//! Criterion benches (`benches/`) track simulator throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod labexp;
pub mod scn;

/// Print a fixed-width table: a header row, a separator, then rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("| {} |", parts.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        line(row);
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Section banner.
pub fn banner(title: &str) {
    println!();
    println!("== {title} ==");
    println!();
}

pub mod obs {
    //! Shared observability wiring for the `exp_*` binaries.
    //!
    //! Every experiment binary prints one machine-greppable `SUMMARY` line
    //! (consumed by `scripts/regen_experiments.sh`) and honors the shared
    //! `--trace-out <path>` flag by exporting the flagged cell's spans via
    //! [`bvl_obs::export::write_trace_file`].

    use bvl_model::rngutil::SeedStream;
    use bvl_model::Trace;
    use bvl_obs::export::ObsMeta;
    use bvl_obs::Registry;

    /// The capture registry for an experiment's flagged/export cell:
    /// `procs` processors recording at the process-wide `--obs-tier`, with
    /// sampling keyed by lane 0 of the experiment's `(domain, master)` seed
    /// stream — so a sampled export admits the same spans on every run, at
    /// any shard or thread count.
    pub fn capture_registry(domain: &str, master: u64, procs: usize) -> Registry {
        Registry::tiered(
            procs,
            bvl_obs::cli::obs_tier(),
            SeedStream::new(master).lane_key(domain, 0),
        )
    }

    /// Builder for the one-line experiment summary: `SUMMARY <name> k=v ...`.
    ///
    /// Every binary emits exactly one; `scripts/regen_experiments.sh` greps
    /// the line, so keys must be stable identifiers (`makespan`,
    /// `stall_episodes`, ...) and fields print in insertion order. The
    /// typed appenders keep numeric formatting uniform across binaries:
    /// [`Summary::kv`] for anything `Display` (strings, integers,
    /// booleans), [`Summary::f2`]/[`Summary::f3`]/[`Summary::f4`] for
    /// fixed-precision floats.
    #[must_use = "finish with .emit() to print the SUMMARY line"]
    pub struct Summary {
        line: String,
    }

    impl Summary {
        /// Start a summary line for `experiment` (the binary name).
        pub fn new(experiment: &str) -> Summary {
            Summary {
                line: format!("SUMMARY {experiment}"),
            }
        }

        /// Append `key=value` with the value's `Display` form.
        pub fn kv(mut self, key: &str, value: impl std::fmt::Display) -> Summary {
            use std::fmt::Write;
            write!(self.line, " {key}={value}").expect("write to String");
            self
        }

        /// Append a float rendered at two decimal places (`{:.2}`).
        pub fn f2(self, key: &str, value: f64) -> Summary {
            self.kv(key, format_args!("{value:.2}"))
        }

        /// Append a float rendered at three decimal places (`{:.3}`).
        pub fn f3(self, key: &str, value: f64) -> Summary {
            self.kv(key, format_args!("{value:.3}"))
        }

        /// Append a float rendered at four decimal places (`{:.4}`).
        pub fn f4(self, key: &str, value: f64) -> Summary {
            self.kv(key, format_args!("{value:.4}"))
        }

        /// The finished line, without printing it.
        pub fn line(&self) -> &str {
            &self.line
        }

        /// Print the line to stdout.
        pub fn emit(self) {
            println!("{}", self.line);
        }
    }

    /// If `--trace-out <path>` was passed to this process, write `trace` +
    /// the registry's spans there (format chosen by extension: `.jsonl` →
    /// compact JSONL, anything else → Chrome `trace_event` JSON). JSONL
    /// leads with the registry's recording metadata (tier, spans dropped)
    /// so `trace_check` can tell a sampled export from a full one. Exits
    /// non-zero on I/O failure so scripted runs fail loudly.
    pub fn write_trace_if_requested(trace: &Trace, registry: &Registry) {
        let Some(path) = bvl_obs::cli::trace_out() else {
            return;
        };
        let spans = registry.spans();
        let meta = ObsMeta {
            tier: registry.tier(),
            spans_dropped: registry.spans_dropped(),
        };
        match bvl_obs::export::write_trace_file_with_meta(&path, trace, &spans, Some(&meta)) {
            Ok(()) => eprintln!(
                "trace-out: {} events + {} spans ({}, {} dropped) -> {}",
                trace.events().len(),
                spans.len(),
                meta.tier.label(),
                meta.spans_dropped,
                path.display()
            ),
            Err(e) => {
                eprintln!("trace-out: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    /// [`write_trace_if_requested`] for registry-only captures (the virtual
    /// clocks of the cross-simulations have spans but no event trace).
    pub fn write_spans_if_requested(registry: &Registry) {
        write_trace_if_requested(&Trace::disabled(), registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(1.2345), "1.234"); // rustfmt of floats rounds half-even
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn summary_builder_matches_the_grepped_format() {
        let s = super::obs::Summary::new("exp_demo")
            .kv("cell", "ring_x8")
            .kv("makespan", 1234u64)
            .kv("ok", true)
            .f2("beta", 0.456)
            .f3("r2", 0.98765)
            .f4("residual_frac", 0.00009);
        assert_eq!(
            s.line(),
            "SUMMARY exp_demo cell=ring_x8 makespan=1234 ok=true \
             beta=0.46 r2=0.988 residual_frac=0.0001"
        );
    }

    #[test]
    fn summary_fields_print_in_insertion_order() {
        let s = super::obs::Summary::new("exp_order")
            .kv("z", 1)
            .kv("a", 2)
            .kv("z", 3);
        assert_eq!(s.line(), "SUMMARY exp_order z=1 a=2 z=3");
    }
}
