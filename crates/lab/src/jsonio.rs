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
                "expected '{}' at byte {} of: {}",
                b as char, self.pos, self.text
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

    /// Parse a quoted, escaped JSON string.
    pub fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            match bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
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
                Some(_) => {
                    // Advance one UTF-8 scalar (multi-byte safe).
                    let rest = &self.text[self.pos..];
                    let c = rest.chars().next().expect("non-empty rest");
                    out.push(c);
                    self.pos += c.len_utf8();
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
        Err(format!("expected boolean at byte {} of: {}", self.pos, self.text))
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
}
