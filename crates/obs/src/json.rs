//! Minimal JSON: a value model, a writer and a recursive-descent parser.
//!
//! This is the single serialization substrate of the workspace (the repo has
//! a no-crates-io-dependencies policy, so there is no serde). Object key
//! order is preserved on both read and write, integers survive round trips
//! exactly, and the writer escapes every control character, so the output is
//! loadable by any conforming parser — including `chrome://tracing` for the
//! trace exporter.

use std::{
    borrow::Cow,
    fmt::Write as _, //
};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integral number (no decimal point or exponent in the source).
    Int(i64),
    /// Non-integral number.
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload (exact ints only).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Any numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    // Keep a decimal point so the value parses back as Float.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf.
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.len(), |out, i, d| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, d);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

/// Writes `s` as a quoted JSON string with all mandatory escapes.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// A parse failure with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

/// Compact rendering.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Cursor::new(text);
    p.skip_ws();
    let v = p.value(0)?;
    p.finish()?;
    Ok(v)
}

const MAX_DEPTH: usize = 128;

/// A pull cursor over JSON text: the recursive-descent parser behind
/// [`parse`], open so that a reader can build its own types straight from
/// the bytes and hand every value it does not want to [`Cursor::value`].
/// A reader that makes the same calls, in document order, that [`parse`]
/// makes fails with the same [`ParseError`] at the same byte.
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// Decoded text of the string being read, once it has an escape.
    scratch: String,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Cursor<'a> {
        Cursor {
            text,
            pos: 0,
            scratch: String::new(),
        }
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    /// The next byte, if any.
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips JSON whitespace.
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes the byte `c`, or fails with "expected `c`".
    pub fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    /// Ends the document: only whitespace may follow.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(())
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Parses one value nested `depth` levels deep (the document is depth
    /// 0, each array or object adds one).
    pub fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(|p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.members(|p, key| {
                    pairs.push((key.into_owned(), p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Reads an array, calling `item` at the start of each element; `item`
    /// must consume exactly that one value.
    pub fn items(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Reads an object, calling `member` with each decoded key at the start
    /// of its value; `member` must consume exactly that one value.
    pub fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Reads a string. One without escapes is borrowed from the text; one
    /// with escapes is decoded once and copied out at its exact length.
    pub fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.eat(b'"')?;
        let mut escaped = false;
        loop {
            // The unescaped run up to the next `"`, `\` or control byte.
            // All three are ASCII, so the run ends on a character boundary
            // of text that is already UTF-8.
            let start = self.pos;
            self.pos += stop(&self.text.as_bytes()[start..]);
            let run = &self.text[start..self.pos];
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    if !escaped {
                        return Ok(Cow::Borrowed(run));
                    }
                    self.scratch.push_str(run);
                    return Ok(Cow::Owned(self.scratch.as_str().to_owned()));
                }
                Some(b'\\') => {
                    if !escaped {
                        escaped = true;
                        self.scratch.clear();
                    }
                    self.scratch.push_str(run);
                    self.pos += 1;
                    let c = self.escape()?;
                    self.scratch.push(c);
                }
                // The run stopped here, so this is a control byte.
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                // Surrogate pairs for astral-plane characters.
                if !(0xd800..0xdc00).contains(&cp) {
                    return char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"));
                }
                if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                    return Err(self.err("lone high surrogate"));
                }
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xdc00..0xe000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                return char::from_u32(c).ok_or_else(|| self.err("invalid codepoint"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = self
            .text
            .get(self.pos..end)
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.pos += 1;
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        let text = &self.text[start..self.pos];
        if !fractional {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Offset of the first `"`, `\` or control byte in `bytes` (its length if
/// there is none), eight bytes at a time. In each little-endian word, the
/// lowest flagged byte of `has_zero(w ^ c)` (a byte equal to `c`) and of
/// `has_less(w, 0x20)` is exact: a false flag only ever sits above a true
/// one, where a borrow carried it.
fn stop(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::from_ne_bytes([1; 8]);
    const HIGH: u64 = ONES << 7;
    let has_zero = |w: u64| w.wrapping_sub(ONES) & !w;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte chunk"));
        let hits = (has_zero(w ^ (ONES * b'"' as u64))
            | has_zero(w ^ (ONES * b'\\' as u64))
            | (w.wrapping_sub(ONES * 0x20) & !w))
            & HIGH;
        if hits != 0 {
            return at + hits.trailing_zeros() as usize / 8;
        }
        at += 8;
    }
    let rest = words.remainder();
    at + rest
        .iter()
        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
        .unwrap_or(rest.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\nand\ttab\rand\u{0001}control",
            "unicode: żółć 💡",
            "",
        ] {
            let j = Json::Str(s.to_string());
            let text = j.to_string();
            assert_eq!(parse(&text).unwrap(), j, "via {text}");
        }
    }

    #[test]
    fn integers_round_trip_exactly() {
        for v in [0i64, -1, 42, i64::MAX, i64::MIN, 1_546_300_800] {
            let text = Json::Int(v).to_string();
            assert_eq!(parse(&text).unwrap(), Json::Int(v));
        }
    }

    #[test]
    fn structures_round_trip() {
        let doc = Json::Obj(vec![
            (
                "a".into(),
                Json::Arr(vec![Json::Int(1), Json::Null, Json::Bool(true)]),
            ),
            (
                "b".into(),
                Json::Obj(vec![("nested".into(), Json::Float(1.5))]),
            ),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
        assert_eq!(parse(&doc.to_string_pretty()).unwrap(), doc);
    }

    #[test]
    fn pretty_formatting_is_indented() {
        let doc = Json::Obj(vec![("k".into(), Json::Arr(vec![Json::Int(1)]))]);
        assert_eq!(doc.to_string_pretty(), "{\n  \"k\": [\n    1\n  ]\n}");
        assert_eq!(doc.to_string(), "{\"k\":[1]}");
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"\\x\"",
            "1 2",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\ud83d\\udca1\"").unwrap(),
            Json::Str("💡".to_string())
        );
        assert!(parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn runs_stop_and_resume_at_escapes() {
        for (text, want) in [
            (r#""abc\"def""#, "abc\"def"),
            (r#""\"abc""#, "\"abc"),
            (r#""abc\\""#, "abc\\"),
            (r#""\n\t\\\/""#, "\n\t\\/"),
            (r#""a\nb\rc\bd\fe""#, "a\nb\rc\u{8}d\u{c}e"),
            (r#""x\u0041y""#, "xAy"),
        ] {
            assert_eq!(parse(text).unwrap(), Json::Str(want.to_string()), "{text}");
        }
    }

    #[test]
    fn multibyte_chars_at_run_boundaries() {
        // 2-, 3- and 4-byte UTF-8 characters first and last in a run, and
        // directly next to escapes on both sides.
        for s in ["é", "€", "💡", "é€💡", "aé", "éa", "a💡", "💡a"] {
            for text in [
                format!("\"{s}\""),
                format!("\"\\n{s}\""),
                format!("\"{s}\\n\""),
                format!("\"\\\"{s}\\\\\""),
            ] {
                let want = text[1..text.len() - 1]
                    .replace("\\n", "\n")
                    .replace("\\\"", "\"")
                    .replace("\\\\", "\\");
                assert_eq!(parse(&text).unwrap(), Json::Str(want), "{text}");
            }
        }
    }

    #[test]
    fn surrogate_pairs_between_runs() {
        assert_eq!(
            parse(r#""ab\ud83d\udca1cd\ud83c\udf89""#).unwrap(),
            Json::Str("ab💡cd🎉".to_string())
        );
        let err = parse(r#""ab\ud83d\u0041""#).unwrap_err();
        assert_eq!(err.msg, "invalid low surrogate");
        let err = parse(r#""ab\udca1""#).unwrap_err();
        assert_eq!(err.msg, "invalid codepoint");
        let err = parse(r#""ab\ud83dcd""#).unwrap_err();
        assert_eq!(err.msg, "lone high surrogate");
    }

    #[test]
    fn control_byte_deep_in_a_run_reports_its_offset() {
        let text = format!("[1, \"{}\u{1}{}\"]", "é".repeat(5_000), "a".repeat(100));
        let err = parse(&text).unwrap_err();
        // `[1, "` is 5 bytes, each `é` is 2.
        assert_eq!(err.at, 5 + 2 * 5_000);
        assert_eq!(err.msg, "raw control character in string");
        let err = parse(&format!("\"{}", "x".repeat(10_000))).unwrap_err();
        assert_eq!((err.at, err.msg.as_str()), (10_001, "unterminated string"));
    }

    #[test]
    fn multi_megabyte_string_round_trips() {
        let chunk = "int f(void) { return \"é€💡\\t\"; }\n\tx = 1;\u{7}\r\n";
        let s = chunk.repeat(3 * 1024 * 1024 / chunk.len());
        assert!(s.len() > 3_000_000);
        let doc = Json::Obj(vec![("content".into(), Json::Str(s))]);
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn numbers_parse_by_shape() {
        assert_eq!(parse("3").unwrap(), Json::Int(3));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("3.5").unwrap(), Json::Float(3.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
    }
}
