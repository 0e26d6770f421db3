//! Hand-written parser for the scenario text form.
//!
//! The grammar is a flat statement language:
//!
//! ```text
//! document   := statement (sep statement)*
//! sep        := '\n' | ';'
//! statement  := 'scenario' NAME | 'grid' attr* | 'cell' KIND attr*
//! attr       := WORD | WORD '=' (BARE | QUOTED)
//! ```
//!
//! `#` starts a comment to end of line. Bare values run to the next
//! whitespace or separator and may contain `=`/`,`/`:` (fault-plan
//! one-liners embed verbatim); the split is at the *first* `=` of the
//! attribute. Quoted values use `"` with `\\`, `\"`, `\n`, `\t` escapes.
//!
//! Every error carries the byte offset (and derived line number) of the
//! offending token, in the same spirit as `bvl_obs::jsonio`. Errors go back
//! to clients (`POST /run` returns them in its 400 body), so every token
//! they quote is clipped ([`clip`]): an error never grows with what the
//! client sent.
//!
//! Tokens borrow the source; only the strings the document keeps are
//! allocated. The whole text is tokenized before any statement is parsed,
//! so a lexical error anywhere is reported ahead of a semantic one.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

use bvl_fault::conformance::Sim;
use bvl_fault::FaultPlan;
use bvl_lab::jsonio::clip;
use bvl_logp::LogpParams;

use crate::doc::{
    CellDoc, GridDoc, HostWl, OnlyIn, Scheme, ScenarioDoc, Strategy, SuperWl, View, Work,
};
use crate::topo::{parse_family, Net};

/// A scenario parse error, anchored to a byte offset in the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending token in the source text.
    pub offset: usize,
    /// 1-based line number derived from the offset.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario parse error at byte {} (line {}): {}",
            self.offset, self.line, self.msg
        )
    }
}

impl std::error::Error for ParseError {}

fn err(src: &str, offset: usize, msg: impl Into<String>) -> ParseError {
    let line = src[..offset.min(src.len())]
        .bytes()
        .filter(|&b| b == b'\n')
        .count()
        + 1;
    ParseError {
        offset,
        line,
        msg: msg.into(),
    }
}

/// One `key[=value]` attribute with its source offset. The key and a bare
/// value borrow the source, and so does a quoted value with no escape in it.
#[derive(Debug)]
struct Token<'s> {
    offset: usize,
    key: &'s str,
    value: Option<Cow<'s, str>>,
}

/// One statement: its leading word (`scenario`, `grid` or `cell`) and the
/// tokens after it, which [`Attrs`] takes out in place.
#[derive(Debug)]
struct Statement<'s> {
    head: Token<'s>,
    tokens: Vec<Option<Token<'s>>>,
}

/// Split the source into statements of tokens.
fn tokenize(src: &str) -> Result<Vec<Statement<'_>>, ParseError> {
    let bytes = src.as_bytes();
    let mut statements = Vec::new();
    let mut current: Option<Statement> = None;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' | b';' => {
                if let Some(stmt) = current.take() {
                    statements.push(stmt);
                }
                i += 1;
            }
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b if b.is_ascii_whitespace() => i += 1,
            b'"' => {
                return Err(err(src, i, "unexpected '\"' (values are key=\"...\")"));
            }
            _ => {
                let start = i;
                // Key: up to '=', whitespace, separator or comment.
                while i < bytes.len()
                    && !matches!(bytes[i], b'=' | b';' | b'#' | b'"')
                    && !bytes[i].is_ascii_whitespace()
                {
                    i += 1;
                }
                let key = &src[start..i];
                let value = if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                    if i < bytes.len() && bytes[i] == b'"' {
                        let (value, end) = quoted(src, start, i + 1)?;
                        i = end;
                        Some(value)
                    } else {
                        // Bare value: runs to whitespace/separator/comment.
                        let vstart = i;
                        while i < bytes.len()
                            && !matches!(bytes[i], b';' | b'#' | b'"')
                            && !bytes[i].is_ascii_whitespace()
                        {
                            i += 1;
                        }
                        if vstart == i {
                            return Err(err(
                                src,
                                start,
                                format!("'{}=' has an empty value", clip(key)),
                            ));
                        }
                        Some(Cow::Borrowed(&src[vstart..i]))
                    }
                } else {
                    None
                };
                let token = Token {
                    offset: start,
                    key,
                    value,
                };
                match current.as_mut() {
                    Some(stmt) => stmt.tokens.push(Some(token)),
                    None => {
                        current = Some(Statement {
                            head: token,
                            tokens: Vec::new(),
                        })
                    }
                }
            }
        }
    }
    if let Some(stmt) = current.take() {
        statements.push(stmt);
    }
    Ok(statements)
}

/// The body of a quoted value that opens before byte `i`, and the offset
/// just past its closing quote; `start` is the offset of its key. Every
/// byte the scan stops at is ASCII, so the runs it copies between escapes
/// keep multi-byte characters whole, and a value without an escape is
/// borrowed.
fn quoted(src: &str, start: usize, mut i: usize) -> Result<(Cow<'_, str>, usize), ParseError> {
    let bytes = src.as_bytes();
    let mut run = i;
    let mut escaped: Option<String> = None;
    loop {
        match bytes.get(i) {
            None | Some(b'\n') => return Err(err(src, start, "unterminated quoted value")),
            Some(b'"') => {
                let value = match escaped {
                    None => Cow::Borrowed(&src[run..i]),
                    Some(mut out) => {
                        out.push_str(&src[run..i]);
                        Cow::Owned(out)
                    }
                };
                return Ok((value, i + 1));
            }
            Some(b'\\') => {
                let out = escaped.get_or_insert_with(String::new);
                out.push_str(&src[run..i]);
                i += 1;
                out.push(match bytes.get(i) {
                    Some(b'\\') => '\\',
                    Some(b'"') => '"',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    other => {
                        return Err(err(
                            src,
                            i,
                            format!(
                                "bad escape '\\{}'",
                                other.map(|&b| b as char).unwrap_or(' ')
                            ),
                        ))
                    }
                });
                i += 1;
                run = i;
            }
            Some(_) => i += 1,
        }
    }
}

/// Attribute cursor over a statement's tokens; rejects leftovers on finish.
struct Attrs<'a, 's> {
    src: &'s str,
    stmt_offset: usize,
    items: &'a mut [Option<Token<'s>>],
}

impl<'a, 's> Attrs<'a, 's> {
    fn new(src: &'s str, stmt: &'a mut Statement<'s>) -> Attrs<'a, 's> {
        Attrs {
            src,
            stmt_offset: stmt.head.offset,
            items: &mut stmt.tokens,
        }
    }

    /// Take `key=value`, if present.
    fn take(&mut self, key: &str) -> Result<Option<(usize, Cow<'s, str>)>, ParseError> {
        for slot in self.items.iter_mut() {
            if slot.as_ref().is_some_and(|t| t.key == key) {
                let t = slot.take().unwrap();
                return match t.value {
                    Some(v) => Ok(Some((t.offset, v))),
                    None => Err(err(self.src, t.offset, format!("'{key}' needs a value"))),
                };
            }
        }
        Ok(None)
    }

    /// Take a required `key=value`.
    fn require(&mut self, key: &str) -> Result<(usize, Cow<'s, str>), ParseError> {
        self.take(key)?
            .ok_or_else(|| err(self.src, self.stmt_offset, format!("missing '{key}='")))
    }

    /// Take a bare flag, if present.
    fn take_flag(&mut self, key: &str) -> Result<bool, ParseError> {
        for slot in self.items.iter_mut() {
            if slot.as_ref().is_some_and(|t| t.key == key) {
                let t = slot.take().unwrap();
                if t.value.is_some() {
                    return Err(err(self.src, t.offset, format!("'{key}' takes no value")));
                }
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Error out on any attribute nobody consumed.
    fn finish(self) -> Result<(), ParseError> {
        match self.items.iter().flatten().next() {
            Some(slot) => Err(err(
                self.src,
                slot.offset,
                format!("unknown attribute '{}'", clip(slot.key)),
            )),
            None => Ok(()),
        }
    }
}

fn parse_with<T: FromStr>(
    src: &str,
    offset: usize,
    key: &str,
    value: &str,
    expect: &str,
) -> Result<T, ParseError> {
    value.parse::<T>().map_err(|_| {
        err(
            src,
            offset,
            format!("'{key}={}' is not {expect}", clip(value)),
        )
    })
}

/// Parse `token` with `parse`, naming `what` in the error. The wrapped
/// message quotes the token or parts of it, so for a token longer than a
/// quote may be, the message is clipped as a whole.
fn parse_tok<T>(
    src: &str,
    offset: usize,
    what: &str,
    token: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, ParseError> {
    parse(token).map_err(|e| {
        let e = if clip(token) == token { e } else { clip(&e) };
        err(src, offset, format!("bad {what}: {e}"))
    })
}

fn take_u64(src: &str, attrs: &mut Attrs<'_, '_>, key: &str) -> Result<Option<u64>, ParseError> {
    match attrs.take(key)? {
        Some((off, v)) => Ok(Some(parse_with(src, off, key, &v, "a number")?)),
        None => Ok(None),
    }
}

fn require_u64(src: &str, attrs: &mut Attrs<'_, '_>, key: &str) -> Result<u64, ParseError> {
    let (off, v) = attrs.require(key)?;
    parse_with(src, off, key, &v, "a number")
}

fn require_usize(src: &str, attrs: &mut Attrs<'_, '_>, key: &str) -> Result<usize, ParseError> {
    let (off, v) = attrs.require(key)?;
    parse_with(src, off, key, &v, "a number")
}

fn require_logp(src: &str, attrs: &mut Attrs<'_, '_>) -> Result<LogpParams, ParseError> {
    let (off, v) = attrs.require("logp")?;
    let parts: Vec<&str> = v.split(':').collect();
    if parts.len() != 4 {
        return Err(err(
            src,
            off,
            format!("'logp={}' is not of the form P:L:O:G", clip(&v)),
        ));
    }
    let num = |s: &str| -> Result<u64, ParseError> {
        s.parse().map_err(|_| {
            err(
                src,
                off,
                format!("'logp={}': '{}' is not a number", clip(&v), clip(s)),
            )
        })
    };
    let p = num(parts[0])? as usize;
    let (l, o, g) = (num(parts[1])?, num(parts[2])?, num(parts[3])?);
    LogpParams::new(p, l, o, g).map_err(|e| err(src, off, format!("'logp={}': {e}", clip(&v))))
}

fn require_plan(
    src: &str,
    attrs: &mut Attrs<'_, '_>,
    key: &str,
) -> Result<Option<FaultPlan>, ParseError> {
    match attrs.take(key)? {
        Some((off, v)) => Ok(Some(parse_tok(src, off, "fault plan", &v, str::parse)?)),
        None => Ok(None),
    }
}

fn parse_cell<'s>(src: &'s str, stmt: &mut Statement<'s>) -> Result<CellDoc, ParseError> {
    let kind = stmt.tokens.first_mut().and_then(Option::take).ok_or_else(|| {
        err(src, stmt.head.offset, "cell statement needs a kind (measure | host | route | route-big | superstep | conformance | stack | sort | stream | bsf)")
    })?;
    if kind.value.is_some() {
        return Err(err(src, kind.offset, "cell kind takes no value"));
    }
    let mut attrs = Attrs::new(src, stmt);

    let work = match kind.key {
        "measure" => {
            let (noff, nv) = attrs.require("net")?;
            let net: Net = parse_tok(src, noff, "net", &nv, str::parse)?;
            let (moff, mv) = attrs.require("mode")?;
            let mode = match &*mv {
                "multi" => bvl_net::PortMode::Multi,
                "single" => bvl_net::PortMode::Single,
                other => {
                    return Err(err(
                        src,
                        moff,
                        format!("'mode={}' is not multi | single", clip(other)),
                    ))
                }
            };
            let seed = require_u64(src, &mut attrs, "seed")?;
            let (voff, vv) = attrs.require("view")?;
            let view = match &*vv {
                "main" => {
                    let (foff, fv) = attrs.require("family")?;
                    View::Main {
                        family: parse_tok(src, foff, "family", &fv, parse_family)?,
                    }
                }
                "scaling" => {
                    let (foff, fv) = attrs.require("family")?;
                    let (_, label) = attrs.require("label")?;
                    View::Scaling {
                        family: parse_tok(src, foff, "family", &fv, parse_family)?,
                        label: label.into_owned(),
                    }
                }
                "obs1" => View::Obs1 {
                    label: attrs.require("label")?.1.into_owned(),
                },
                "k6" => View::K6 {
                    label: attrs.require("label")?.1.into_owned(),
                },
                other => {
                    return Err(err(
                        src,
                        voff,
                        format!("'view={}' is not main | scaling | obs1 | k6", clip(other)),
                    ))
                }
            };
            Work::Measure {
                net,
                mode,
                seed,
                view,
            }
        }
        "host" => {
            let logp = require_logp(src, &mut attrs)?;
            let fg = require_u64(src, &mut attrs, "fg")?;
            let fl = require_u64(src, &mut attrs, "fl")?;
            let (woff, wv) = attrs.require("wl")?;
            let wl = if let Some(rounds) = wv.strip_prefix("ring:") {
                HostWl::Ring {
                    rounds: parse_with(src, woff, "wl", rounds, "a round count")?,
                }
            } else if wv == "alltoall" {
                HostWl::AllToAll
            } else {
                return Err(err(
                    src,
                    woff,
                    format!("'wl={}' is not ring:ROUNDS | alltoall", clip(&wv)),
                ));
            };
            Work::Host { logp, fg, fl, wl }
        }
        "route" => {
            let logp = require_logp(src, &mut attrs)?;
            let h = require_usize(src, &mut attrs, "h")?;
            let (soff, sv) = attrs.require("scheme")?;
            let scheme = match &*sv {
                "network" => Scheme::Network,
                "columnsort" => Scheme::Columnsort,
                other => {
                    return Err(err(
                        src,
                        soff,
                        format!("'scheme={}' is not network | columnsort", clip(other)),
                    ))
                }
            };
            let seed = require_u64(src, &mut attrs, "seed")?;
            Work::Route {
                logp,
                h,
                scheme,
                seed,
            }
        }
        "route-big" => {
            let logp = require_logp(src, &mut attrs)?;
            let h = require_usize(src, &mut attrs, "h")?;
            let seed = require_u64(src, &mut attrs, "seed")?;
            Work::RouteBig { logp, h, seed }
        }
        "superstep" => {
            let logp = require_logp(src, &mut attrs)?;
            let (soff, sv) = attrs.require("strategy")?;
            let strategy = if sv == "offline" {
                Strategy::Offline
            } else if sv == "deterministic" {
                Strategy::Deterministic
            } else if let Some(slack) = sv.strip_prefix("randomized:") {
                Strategy::Randomized {
                    slack: parse_with(src, soff, "strategy", slack, "a slack factor")?,
                }
            } else {
                return Err(err(
                    src,
                    soff,
                    format!(
                        "'strategy={}' is not offline | randomized:SLACK | deterministic",
                        clip(&sv)
                    ),
                ));
            };
            let (woff, wv) = attrs.require("wl")?;
            let wl = match &*wv {
                "mod7fan" => SuperWl::Mod7Fan,
                other => {
                    return Err(err(src, woff, format!("'wl={}' is not mod7fan", clip(other))))
                }
            };
            Work::Superstep { logp, strategy, wl }
        }
        "conformance" => {
            let (soff, sv) = attrs.require("sim")?;
            let sim: Sim = parse_tok(src, soff, "sim", &sv, str::parse)?;
            let p = require_usize(src, &mut attrs, "p")?;
            let h = require_usize(src, &mut attrs, "h")?;
            let seed = require_u64(src, &mut attrs, "seed")?;
            Work::Conformance { sim, p, h, seed }
        }
        "stack" => {
            let (noff, nv) = attrs.require("net")?;
            let net: Net = parse_tok(src, noff, "net", &nv, str::parse)?;
            let rounds = require_u64(src, &mut attrs, "rounds")?;
            let seed = require_u64(src, &mut attrs, "seed")?;
            Work::Stack { net, rounds, seed }
        }
        "sort" => {
            let p = require_usize(src, &mut attrs, "p")?;
            let n = require_u64(src, &mut attrs, "n")?;
            let g = require_u64(src, &mut attrs, "g")?;
            let l = require_u64(src, &mut attrs, "l")?;
            let seed = require_u64(src, &mut attrs, "seed")?;
            Work::Sort { p, n, g, l, seed }
        }
        "stream" => {
            let p = require_usize(src, &mut attrs, "p")?;
            let n = require_u64(src, &mut attrs, "n")?;
            let window = require_u64(src, &mut attrs, "window")?;
            let g = require_u64(src, &mut attrs, "g")?;
            let l = require_u64(src, &mut attrs, "l")?;
            let seed = require_u64(src, &mut attrs, "seed")?;
            Work::Stream {
                p,
                n,
                window,
                g,
                l,
                seed,
            }
        }
        "bsf" => {
            let workers = require_usize(src, &mut attrs, "workers")?;
            let units = require_u64(src, &mut attrs, "units")?;
            let tt = require_u64(src, &mut attrs, "tt")?;
            let tw = require_u64(src, &mut attrs, "tw")?;
            let ts = require_u64(src, &mut attrs, "ts")?;
            let iters = require_u64(src, &mut attrs, "iters")?;
            Work::Bsf {
                workers,
                units,
                tt,
                tw,
                ts,
                iters,
            }
        }
        other => {
            return Err(err(
                src,
                kind.offset,
                format!("unknown cell kind '{}' (measure | host | route | route-big | superstep | conformance | stack | sort | stream | bsf)", clip(other)),
            ))
        }
    };

    let domain = attrs.take("domain")?.map(|(_, v)| v.into_owned());
    let plan = require_plan(src, &mut attrs, "plan")?;
    let params = attrs.require("params")?.1.into_owned();
    let force = attrs.take_flag("force")?;
    let smoke = attrs.take_flag("smoke")?;
    attrs.finish()?;

    Ok(CellDoc {
        work,
        params,
        domain,
        plan,
        force,
        smoke,
    })
}

fn parse_grid<'s>(src: &'s str, stmt: &mut Statement<'s>) -> Result<GridDoc, ParseError> {
    let mut attrs = Attrs::new(src, stmt);
    let exp = attrs.require("exp")?.1.into_owned();
    let master = require_u64(src, &mut attrs, "master")?;
    let domain = attrs.take("domain")?.map(|(_, v)| v.into_owned());
    let only = match attrs.take("only")? {
        Some((off, v)) => Some(match &*v {
            "smoke" => OnlyIn::Smoke,
            "full" => OnlyIn::Full,
            other => {
                return Err(err(
                    src,
                    off,
                    format!("'only={}' is not smoke | full", clip(other)),
                ))
            }
        }),
        None => None,
    };
    let seed = take_u64(src, &mut attrs, "seed")?;
    let trace = attrs.take_flag("trace")?;
    let clock_base = take_u64(src, &mut attrs, "clock_base")?;
    let budget = take_u64(src, &mut attrs, "budget")?;
    let fault = require_plan(src, &mut attrs, "fault")?;
    attrs.finish()?;

    Ok(GridDoc {
        exp,
        master,
        domain,
        only,
        seed,
        trace,
        clock_base,
        budget,
        fault,
        cells: Vec::new(),
    })
}

/// Parse a scenario document. Inverts [`ScenarioDoc::to_text`] and
/// [`ScenarioDoc::repro`] exactly.
pub fn parse(src: &str) -> Result<ScenarioDoc, ParseError> {
    let statements = tokenize(src)?;
    let mut stmts = statements.into_iter();

    let header = stmts
        .next()
        .ok_or_else(|| err(src, 0, "empty document (expected 'scenario NAME')"))?;
    if header.head.key != "scenario" || header.head.value.is_some() {
        return Err(err(
            src,
            header.head.offset,
            "document must start with 'scenario NAME'",
        ));
    }
    let name = match header.tokens.as_slice() {
        [Some(Token {
            key, value: None, ..
        })] => *key,
        _ => {
            return Err(err(
                src,
                header.head.offset,
                "'scenario' takes exactly one name",
            ))
        }
    };

    let mut doc = ScenarioDoc::new(name);
    for mut stmt in stmts {
        match stmt.head.key {
            "grid" => doc.grids.push(parse_grid(src, &mut stmt)?),
            "cell" => match doc.grids.last_mut() {
                Some(grid) => grid.cells.push(parse_cell(src, &mut stmt)?),
                None => {
                    return Err(err(
                        src,
                        stmt.head.offset,
                        "'cell' before any 'grid' statement",
                    ))
                }
            },
            "scenario" => return Err(err(src, stmt.head.offset, "duplicate 'scenario' statement")),
            other => {
                return Err(err(
                    src,
                    stmt.head.offset,
                    format!("unknown statement '{}' (grid | cell)", clip(other)),
                ))
            }
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(doc: &ScenarioDoc) {
        assert_eq!(&parse(&doc.to_text()).unwrap(), doc, "to_text round-trip");
        assert_eq!(&parse(&doc.repro()).unwrap(), doc, "repro round-trip");
    }

    #[test]
    fn minimal_document_round_trips() {
        let doc = ScenarioDoc::new("demo").grid(
            GridDoc::new("table1", 42).domain("table1").cell(
                CellDoc::new(
                    Work::Measure {
                        net: Net::Hypercube(6),
                        mode: bvl_net::PortMode::Multi,
                        seed: 11,
                        view: View::K6 {
                            label: "hypercube_k6".into(),
                        },
                    },
                    "hypercube(6) multi",
                )
                .smoke(),
            ),
        );
        roundtrip(&doc);
    }

    #[test]
    fn fault_plans_embed_as_bare_values() {
        let plan: FaultPlan = "seed=17,jitter=uniform:4,dup=5,squeeze=3".parse().unwrap();
        let doc = ScenarioDoc::new("faulty").grid(
            GridDoc::new("faults", 100)
                .domain("faults-smoke")
                .cell(
                    CellDoc::new(
                        Work::Conformance {
                            sim: Sim::RouteDet,
                            p: 8,
                            h: 4,
                            seed: 100,
                        },
                        "sim=route_det p=8 h=4 seed=100",
                    )
                    .plan(plan.clone()),
                ),
        );
        roundtrip(&doc);
        let parsed = parse(&doc.to_text()).unwrap();
        assert_eq!(parsed.grids[0].cells[0].plan, Some(plan));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let src = "# header comment\nscenario s # trailing\n\n  # indented\ngrid exp=e master=1 domain=d\n";
        let doc = parse(src).unwrap();
        assert_eq!(doc.name, "s");
        assert_eq!(doc.grids.len(), 1);
    }

    #[test]
    fn quoted_escapes_round_trip() {
        let doc = ScenarioDoc::new("esc").grid(
            GridDoc::new("e", 1).domain("d").cell(CellDoc::new(
                Work::Stack {
                    net: Net::Hypercube(5),
                    rounds: 8,
                    seed: 1996,
                },
                "quote \" slash \\ nl \n tab \t end",
            )),
        );
        roundtrip(&doc);
    }

    #[test]
    fn errors_carry_byte_offsets() {
        // Offset of the bad token, not of the statement.
        let src = "scenario s\ngrid exp=e master=nope\n";
        let e = parse(src).unwrap_err();
        assert_eq!(e.offset, src.find("master=").unwrap());
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("byte"), "{e}");

        let src = "scenario s\ngrid exp=e master=1 domain=d\ncell measure net=torus:4 mode=multi seed=1 view=obs1 label=\"x\" params=\"p\"\n";
        let e = parse(src).unwrap_err();
        assert_eq!(e.offset, src.find("net=torus").unwrap());
        assert_eq!(e.line, 3);

        let src = "scenario s\ngrid exp=e master=1 bogus=1\n";
        let e = parse(src).unwrap_err();
        assert_eq!(e.offset, src.find("bogus").unwrap());

        let src = "scenario s\ngrid exp=e master=1\ncell stack net=hypercube:5 rounds=8 seed=1 params=\"unterminated\n";
        let e = parse(src).unwrap_err();
        assert_eq!(e.offset, src.find("params=").unwrap());
    }

    #[test]
    fn structural_errors_are_rejected() {
        assert!(parse("").is_err());
        assert!(parse("grid exp=e master=1").is_err());
        assert!(parse("scenario a; scenario b").is_err());
        assert!(parse("scenario s; cell stack net=hypercube:5 rounds=8 seed=1 params=\"x\"").is_err());
        assert!(parse("scenario s; grid exp=e master=1; cell dance params=\"x\"").is_err());
        // G > L violates the paper constraint, rejected at parse time.
        assert!(
            parse("scenario s; grid exp=e master=1 domain=d; cell route logp=8:4:1:9 h=1 scheme=network seed=7 params=\"x\"")
                .is_err()
        );
    }
}
