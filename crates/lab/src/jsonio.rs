//! Minimal JSON encode/parse for the store's closed record schema.
//!
//! The repo's policy (see `bvl-obs::export`) is hand-written JSON for the
//! few fixed shapes we emit rather than a dependency: here that is one
//! record object per line (flat string/number fields plus one
//! array-of-array-of-strings `payload`), with full string escaping —
//! payload cells are experiment rows and may contain quotes or non-ASCII.

/// Escape `s` into a JSON string literal body (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Append the JSON string literal body of `s` (no surrounding quotes) to
/// `out`. Every byte that needs an escape is ASCII, and no byte of a
/// multi-byte UTF-8 sequence is, so the scan copies whole unescaped runs
/// at once and splits only at ASCII boundaries.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
    }
    out.push_str(&s[run..]);
}

/// Encode a list of table rows as a JSON array of arrays of strings.
pub fn encode_rows(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    encode_rows_into(&mut out, rows);
    out
}

/// Append [`encode_rows`]'s encoding of `rows` to `out`.
pub(crate) fn encode_rows_into(out: &mut String, rows: &[Vec<String>]) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(out, cell);
            out.push('"');
        }
        out.push(']');
    }
    out.push(']');
}

/// Bytes of input an error message quotes on each side of its offset (and
/// of a quoted name): errors go back to clients, so they must not grow with
/// what the client sent.
const QUOTE_BYTES: usize = 32;

/// At most [`QUOTE_BYTES`] bytes of `text` on each side of byte `pos`, cut
/// on char boundaries, with `…` marking each cut: the context an error
/// message quotes.
pub(crate) fn excerpt(text: &str, pos: usize) -> String {
    let mut start = pos.saturating_sub(QUOTE_BYTES).min(text.len());
    while !text.is_char_boundary(start) {
        start += 1;
    }
    let mut end = pos.saturating_add(QUOTE_BYTES).min(text.len());
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    let mut out = String::with_capacity(end - start + 6);
    if start > 0 {
        out.push('…');
    }
    out.push_str(&text[start..end]);
    if end < text.len() {
        out.push('…');
    }
    out
}

/// `name` cut to at most 32 bytes (`QUOTE_BYTES`) on a char boundary,
/// with `…` marking a cut: how an error message quotes a client-chosen
/// name or token.
pub fn clip(name: &str) -> String {
    excerpt(name, 0)
}

/// A single-pass cursor over a JSON text slice.
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start parsing `text`.
    pub fn new(text: &'a str) -> Cursor<'a> {
        Cursor { text, pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self
            .text
            .as_bytes()
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consume the literal byte `b` (after whitespace) or error.
    pub fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} near: {}",
                b as char,
                self.pos,
                excerpt(self.text, self.pos)
            ))
        }
    }

    /// Consume the literal byte `b` if present (after whitespace).
    pub fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Parse a quoted, escaped JSON string. The scan stops only at `"` and
    /// `\`, both ASCII, so it copies each run of bytes between escapes with
    /// one `push_str` and multi-byte characters stay whole.
    pub fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped at a backslash: decode its escape.
                    self.pos += 1;
                    match bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape: {e}"))?;
                            out.push(
                                char::from_u32(code).ok_or("\\u escape is not a scalar value")?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape: {other:?}")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// Parse an unsigned integer.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .text
            .as_bytes()
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit())
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected number at byte {start}"));
        }
        self.text[start..self.pos]
            .parse::<u64>()
            .map_err(|e| format!("bad number: {e}"))
    }

    /// Parse a JSON boolean literal.
    pub fn boolean(&mut self) -> Result<bool, String> {
        self.skip_ws();
        for (lit, val) in [("true", true), ("false", false)] {
            if self.text[self.pos..].starts_with(lit) {
                self.pos += lit.len();
                return Ok(val);
            }
        }
        Err(format!(
            "expected boolean at byte {} near: {}",
            self.pos,
            excerpt(self.text, self.pos)
        ))
    }

    /// Parse a JSON array of arrays of strings (the payload shape).
    pub fn rows(&mut self) -> Result<Vec<Vec<String>>, String> {
        self.expect(b'[')?;
        let mut rows = Vec::new();
        if self.eat(b']') {
            return Ok(rows);
        }
        loop {
            self.expect(b'[')?;
            let mut row = Vec::new();
            if !self.eat(b']') {
                loop {
                    row.push(self.string()?);
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b']')?;
            }
            rows.push(row);
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b']')?;
        Ok(rows)
    }

    /// True when only whitespace remains.
    pub fn at_end(&mut self) -> bool {
        self.peek().is_none()
    }
}

/// Round-trip convenience: parse a payload produced by [`encode_rows`].
pub fn decode_rows(text: &str) -> Result<Vec<Vec<String>>, String> {
    let mut cur = Cursor::new(text);
    let rows = cur.rows()?;
    if !cur.at_end() {
        return Err(format!("trailing bytes after payload: {text}"));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// The char-wise escaper `escape_into` replaced, kept as its oracle.
    fn escape_charwise(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    /// The char-wise `Cursor::string` the run-copying decode replaced,
    /// kept as its oracle.
    fn string_charwise(cur: &mut Cursor<'_>) -> Result<String, String> {
        cur.expect(b'"')?;
        let bytes = cur.text.as_bytes();
        let mut out = String::new();
        loop {
            match bytes.get(cur.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    cur.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    cur.pos += 1;
                    match bytes.get(cur.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = cur
                                .text
                                .get(cur.pos + 1..cur.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape: {e}"))?;
                            out.push(
                                char::from_u32(code).ok_or("\\u escape is not a scalar value")?,
                            );
                            cur.pos += 4;
                        }
                        other => return Err(format!("bad escape: {other:?}")),
                    }
                    cur.pos += 1;
                }
                Some(_) => {
                    let c = cur.text[cur.pos..].chars().next().expect("non-empty rest");
                    out.push(c);
                    cur.pos += c.len_utf8();
                }
            }
        }
    }

    /// Characters weighted toward the ones that need escaping: every
    /// control byte, the quote and the backslash, then printable ASCII and
    /// any other scalar value (surrogate draws fall back to U+FFFD).
    fn hostile_char() -> impl Strategy<Value = char> {
        prop_oneof![
            (0u8..0x20).prop_map(char::from),
            Just('"'),
            Just('\\'),
            (0x20u8..0x80).prop_map(char::from),
            (0x80u32..0x11_0000).prop_map(|u| char::from_u32(u).unwrap_or('\u{fffd}')),
        ]
    }

    fn hostile_string(max: usize) -> impl Strategy<Value = String> {
        proptest::collection::vec(hostile_char(), 0..max).prop_map(String::from_iter)
    }

    /// One piece of well-formed string text: an escaped character, a raw
    /// character that needs no escape, a short escape or a `\\u` escape of
    /// a scalar value.
    fn valid_piece() -> impl Strategy<Value = String> {
        prop_oneof![
            hostile_char().prop_map(|c| escape(&String::from(c))),
            hostile_char().prop_map(|c| match c {
                '"' | '\\' => String::from("é"),
                c => String::from(c),
            }),
            (0usize..6).prop_map(|i| ["\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t"][i].to_string()),
            (0u32..0xd800).prop_map(|u| format!("\\u{u:04x}")),
            (0xe000u32..0x1_0000).prop_map(|u| format!("\\u{u:04X}")),
        ]
    }

    /// One piece of hostile string text: a raw quote or backslash, an
    /// unknown escape, a surrogate `\\u`, a truncated or non-hex `\\u`, or
    /// a backslash before a multi-byte character.
    fn hostile_piece() -> impl Strategy<Value = String> {
        prop_oneof![
            (0usize..2).prop_map(|i| ["\"", "\\"][i].to_string()),
            (0usize..3).prop_map(|i| ["\\b", "\\f", "\\x"][i].to_string()),
            (0xd800u32..0xe000).prop_map(|u| format!("\\u{u:04x}")),
            (0usize..4).prop_map(|n| format!("\\u{}", &"00e9"[..n])),
            (0usize..4).prop_map(|i| ["\\uZZZZ", "\\u+0e9", "\\u-0e9", "\\u 0e9"][i].to_string()),
            (0x80u32..0x11_0000)
                .prop_map(|u| format!("\\{}", char::from_u32(u).unwrap_or('\u{fffd}'))),
        ]
    }

    /// One piece in six is hostile.
    fn raw_piece() -> impl Strategy<Value = String> {
        (0u8..6, valid_piece(), hostile_piece()).prop_map(|(k, v, h)| if k == 0 { h } else { v })
    }

    /// A raw string literal: optional leading whitespace, the opening
    /// quote, raw pieces, then maybe a closing quote and more text.
    fn raw_literal() -> impl Strategy<Value = String> {
        (
            0usize..3,
            proptest::collection::vec(raw_piece(), 0..24),
            0usize..3,
        )
            .prop_map(|(ws, pieces, tail)| {
                let mut text = " ".repeat(ws);
                text.push('"');
                text.extend(pieces);
                text.push_str(["", "\"", "\",\"é\"]"][tail]);
                text
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn escape_into_matches_the_charwise_escape(
            prefix in hostile_string(8),
            s in hostile_string(48),
        ) {
            let mut out = prefix.clone();
            escape_into(&mut out, &s);
            prop_assert_eq!(&out[..prefix.len()], prefix.as_str());
            prop_assert_eq!(&out[prefix.len()..], escape_charwise(&s));
            prop_assert_eq!(escape(&s), escape_charwise(&s));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn string_decodes_every_escaped_string(s in hostile_string(48)) {
            let text = format!("\"{}\"", escape(&s));
            let mut cur = Cursor::new(&text);
            prop_assert_eq!(cur.string(), Ok(s));
            prop_assert!(cur.at_end());
        }

        #[test]
        fn string_matches_the_charwise_decode_on_raw_text(text in raw_literal()) {
            let mut runs = Cursor::new(&text);
            let mut chars = Cursor::new(&text);
            prop_assert_eq!(runs.string(), string_charwise(&mut chars));
            prop_assert_eq!(runs.pos, chars.pos);
        }
    }

    #[test]
    fn every_ascii_byte_escapes_like_the_charwise_escape() {
        for b in 0u8..0x80 {
            let s = format!("a{}b{}", char::from(b), char::from(b));
            assert_eq!(escape(&s), escape_charwise(&s), "byte {b:#04x}");
        }
    }

    #[test]
    fn rows_round_trip_with_hostile_cells() {
        let rows = vec![
            vec!["plain".to_string(), "with \"quotes\"".to_string()],
            vec!["back\\slash\nnewline\ttab".to_string()],
            vec!["γ̂=1.23 δ̂=4.56".to_string(), String::new()],
            vec![],
            vec!["ctrl\u{1}char".to_string()],
        ];
        let enc = encode_rows(&rows);
        assert_eq!(decode_rows(&enc).unwrap(), rows);
    }

    #[test]
    fn empty_payload_round_trips() {
        assert_eq!(decode_rows(&encode_rows(&[])).unwrap(), Vec::<Vec<String>>::new());
    }

    #[test]
    fn torn_and_malformed_payloads_are_errors() {
        assert!(decode_rows("[[\"a\"").is_err());
        assert!(decode_rows("[[\"a\"]]x").is_err());
        assert!(decode_rows("{\"not\":\"rows\"}").is_err());
        assert!(decode_rows("[[\"bad \\u escape\\uZZZZ\"]]").is_err());
    }

    #[test]
    fn errors_quote_a_short_excerpt_of_long_input() {
        // A ~100 kB object whose closing brace is missing, with two- and
        // three-byte characters around every possible cut.
        let text = format!("{{\"k\":\"{}\"", "é日".repeat(20_000));
        let mut cur = Cursor::new(&text);
        cur.expect(b'{').unwrap();
        cur.string().unwrap();
        cur.expect(b':').unwrap();
        cur.string().unwrap();
        let err = cur.expect(b'}').unwrap_err();
        assert!(err.starts_with(&format!("expected '}}' at byte {} near: …", text.len())));
        assert!(err.len() < 128, "{} bytes: {err}", err.len());
        let err = Cursor::new(&"日".repeat(30_000)).boolean().unwrap_err();
        assert!(err.ends_with("…") && err.len() < 128, "{err}");
        assert_eq!(clip("short"), "short");
        assert_eq!(clip(&"x".repeat(40)), format!("{}…", "x".repeat(32)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn excerpt_is_short_whole_and_in_place(s in hostile_string(64), pos in 0usize..300) {
            let ex = excerpt(&s, pos);
            let body = ex.trim_start_matches('…').trim_end_matches('…');
            prop_assert!(body.len() <= 2 * QUOTE_BYTES);
            prop_assert!(s.contains(body));
            if s.len() <= QUOTE_BYTES && pos <= QUOTE_BYTES {
                prop_assert_eq!(&ex, &s);
            }
        }
    }
}
