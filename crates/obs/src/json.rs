//! Minimal JSON: a value model, a writer and a recursive-descent parser.
//!
//! This is the single serialization substrate of the workspace (the repo has
//! a no-crates-io-dependencies policy, so there is no serde). Object key
//! order is preserved on both read and write, integers survive round trips
//! exactly, and the writer escapes every control character, so the output is
//! loadable by any conforming parser — including `chrome://tracing` for the
//! trace exporter.

use std::fmt::Write as _;

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

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact rendering.
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
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
            out.extend(std::iter::repeat(' ').take(w * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(w * depth));
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

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the unescaped run up to the next `"`, `\` or control
            // byte in one piece. All three stoppers are ASCII, so the run
            // ends on a character boundary.
            let start = self.pos;
            let run_len = self.bytes[start..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.bytes.len() - start);
            let run = &self.bytes[start..start + run_len];
            let run = std::str::from_utf8(run).map_err(|e| ParseError {
                at: start + e.valid_up_to(),
                msg: "invalid UTF-8".to_string(),
            })?;
            out.push_str(run);
            self.pos += run_len;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(c)
                                        .ok_or_else(|| self.err("invalid codepoint"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                // The run above stopped here, so this is a control byte.
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
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
