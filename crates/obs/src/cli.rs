//! The shared `--trace-out <path>` and `--obs-tier <t>` flags.
//!
//! Every `exp_*` binary accepts `--trace-out <path>` (or
//! `--trace-out=<path>`) and, when present, writes the flagged cell's trace
//! there via [`crate::export::write_trace_file`], and
//! `--obs-tier <off|counters|sampled[:rate]|full>` selects the recording
//! [`Tier`]. Parsing lives here so the binaries stay one-liner thin and
//! agree on the syntax.

use crate::tier::Tier;
use std::path::PathBuf;

/// Extract `--trace-out <path>` / `--trace-out=<path>` from an argument
/// stream. Returns `None` when the flag is absent; a flag with no value is
/// treated as absent rather than an error (the binaries have no other
/// flags, so there is nothing to confuse it with).
pub fn trace_out_from<I: IntoIterator<Item = String>>(args: I) -> Option<PathBuf> {
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--trace-out" {
            return it.next().map(PathBuf::from);
        }
        if let Some(v) = arg.strip_prefix("--trace-out=") {
            if !v.is_empty() {
                return Some(PathBuf::from(v));
            }
        }
    }
    None
}

/// [`trace_out_from`] applied to this process's arguments.
pub fn trace_out() -> Option<PathBuf> {
    trace_out_from(std::env::args().skip(1))
}

/// Extract `--obs-tier <t>` / `--obs-tier=<t>` from an argument stream,
/// where `<t>` is `off`, `counters`, `sampled`, `sampled:<rate>` or
/// `full`. Returns [`Tier::Full`] (the historical behaviour) when the
/// flag is absent, valueless, or unparseable — the tier is an
/// observability dial, never an error.
pub fn obs_tier_from<I: IntoIterator<Item = String>>(args: I) -> Tier {
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let v = if arg == "--obs-tier" {
            it.next()
        } else {
            arg.strip_prefix("--obs-tier=").map(str::to_string)
        };
        if let Some(v) = v {
            if let Some(t) = Tier::parse(&v) {
                return t;
            }
        }
    }
    Tier::Full
}

/// [`obs_tier_from`] applied to this process's arguments.
pub fn obs_tier() -> Tier {
    obs_tier_from(std::env::args().skip(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Option<PathBuf> {
        trace_out_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_both_spellings() {
        assert_eq!(parse(&["--trace-out", "t.json"]), Some(PathBuf::from("t.json")));
        assert_eq!(parse(&["--trace-out=t.jsonl"]), Some(PathBuf::from("t.jsonl")));
        assert_eq!(parse(&["x", "--trace-out", "a", "b"]), Some(PathBuf::from("a")));
    }

    #[test]
    fn absent_or_valueless_is_none() {
        assert_eq!(parse(&[]), None);
        assert_eq!(parse(&["--other"]), None);
        assert_eq!(parse(&["--trace-out"]), None);
        assert_eq!(parse(&["--trace-out="]), None);
    }

    fn parse_tier(args: &[&str]) -> Tier {
        obs_tier_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn obs_tier_parses_both_spellings_and_all_tiers() {
        assert_eq!(parse_tier(&["--obs-tier", "off"]), Tier::Off);
        assert_eq!(parse_tier(&["--obs-tier=counters"]), Tier::CountersOnly);
        assert_eq!(parse_tier(&["--obs-tier", "sampled:16"]), Tier::Sampled { rate: 16 });
        assert_eq!(parse_tier(&["x", "--obs-tier=sampled", "y"]), Tier::Sampled { rate: 8 });
        assert_eq!(parse_tier(&["--obs-tier", "full"]), Tier::Full);
    }

    #[test]
    fn obs_tier_defaults_to_full() {
        assert_eq!(parse_tier(&[]), Tier::Full);
        assert_eq!(parse_tier(&["--obs-tier"]), Tier::Full);
        assert_eq!(parse_tier(&["--obs-tier=everything"]), Tier::Full);
    }
}
