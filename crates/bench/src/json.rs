//! A minimal, dependency-free JSON document model, serializer, and parser.
//!
//! The experiment harness emits machine-readable `BENCH_*.json` files; with
//! no network access to crates.io the workspace cannot pull in
//! `serde`/`serde_json`, so this module provides the tiny slice actually
//! needed: building documents and serializing them with **stable field
//! order** (objects preserve insertion order, so the emitted schema is
//! byte-stable across runs given equal data), plus [`Json::parse`] so the
//! baseline regression gate can read checked-in documents back.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order for schema stability.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (non-finite values serialize as `null`, as
    /// `serde_json` does for lossy float modes).
    Num(f64),
    /// An integer, kept separate so counts serialize without a decimal
    /// point.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key → value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Inserts `key` into an object, builder style. Panics on non-objects.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            _ => panic!("Json::field on a non-object"),
        }
        self
    }

    /// Parses a JSON document.
    ///
    /// Accepts exactly the dialect [`to_string_pretty`] emits (standard
    /// JSON; numbers with a `.` or exponent parse as [`Json::Num`], bare
    /// integers in `i64` range as [`Json::Int`]). Trailing garbage after
    /// the document is an error.
    ///
    /// [`to_string_pretty`]: Json::to_string_pretty
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value of this node ([`Json::Num`] or [`Json::Int`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The string value of this node.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of this node, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // Shortest round-trip via Rust's float formatting; force
                    // a decimal point so the field is typed as float.
                    let s = format!("{x}");
                    out.push_str(&s);
                    if !s.contains('.') && !s.contains('e') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Recursive-descent parser over the serializer's dialect.
///
/// Every structural token is ASCII, so `pos` only ever stops on a
/// character boundary of `text`; `bytes` is the same input for byte-wise
/// scanning.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string from byte {start}")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint \\u{hex}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a character
                    // boundary and is valid UTF-8 as a slice of `text`.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        i64::try_from(i).map_or(Json::Num(i as f64), Json::Int)
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        (i as u64).into()
    }
}

impl From<u32> for Json {
    fn from(i: u32) -> Json {
        Json::Int(i64::from(i))
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_order_is_stable() {
        let doc = Json::obj()
            .field("zeta", 1u64)
            .field("alpha", 2u64)
            .field("mid", Json::obj().field("x", 0.5));
        let s = doc.to_string_pretty();
        let zeta = s.find("zeta").unwrap();
        let alpha = s.find("alpha").unwrap();
        assert!(zeta < alpha, "insertion order must be preserved:\n{s}");
    }

    #[test]
    fn escaping_and_scalars() {
        let doc = Json::obj()
            .field("s", "a\"b\\c\nd")
            .field("t", true)
            .field("n", Json::Null)
            .field("i", -3i64)
            .field("f", 2.0);
        let s = doc.to_string_pretty();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""), "{s}");
        assert!(s.contains("\"f\": 2.0"), "{s}");
        assert!(s.contains("\"i\": -3"), "{s}");
    }

    #[test]
    fn nonfinite_floats_are_null() {
        let s = Json::obj().field("x", f64::NAN).to_string_pretty();
        assert!(s.contains("\"x\": null"), "{s}");
    }

    #[test]
    fn empty_containers() {
        let s = Json::obj()
            .field("a", Json::Arr(vec![]))
            .field("o", Json::obj())
            .to_string_pretty();
        assert!(s.contains("\"a\": []"));
        assert!(s.contains("\"o\": {}"));
    }

    #[test]
    fn parse_round_trips_serializer_output() {
        let doc = Json::obj()
            .field("schema_version", 1u64)
            .field("truncated", true)
            .field("name", "scenario \"matrix\"\n")
            .field("exponent", 1.5)
            .field("negative", -0.25)
            .field("count", -7i64)
            .field("none", Json::Null)
            .field(
                "cases",
                Json::Arr(vec![
                    Json::obj().field("n", 16u64).field("energy_mean", 2.0),
                    Json::Arr(vec![]),
                    Json::obj(),
                ]),
            );
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        // Ints stay ints, floats stay floats.
        assert_eq!(parsed.get("count"), Some(&Json::Int(-7)));
        assert_eq!(parsed.get("exponent"), Some(&Json::Num(1.5)));
        // And the re-serialization is byte-identical.
        assert_eq!(parsed.to_string_pretty(), text);
    }

    #[test]
    fn parse_scientific_notation_and_unicode() {
        let parsed = Json::parse(r#"{"x": 1e3, "y": 2.5e-2, "s": "aAü"}"#).unwrap();
        assert_eq!(parsed.get("x"), Some(&Json::Num(1000.0)));
        assert_eq!(parsed.get("y"), Some(&Json::Num(0.025)));
        assert_eq!(parsed.get("s").unwrap().as_str(), Some("aAü"));
    }

    #[test]
    fn parse_round_trips_escapes_next_to_multibyte_characters() {
        // Escapes right before and after multi-byte characters, and
        // multi-byte characters closing a run (a key ending in `ß`, a
        // value ending in `✓`), so the parser's runs start and end on
        // every kind of boundary.
        let doc = Json::obj()
            .field("é\"ü\\\n✓", "é\"ü\\\n✓")
            .field("straß", "\u{1}ü\t")
            .field("ß", vec!["\"ü", "✓\\", "", "aß"]);
        let text = doc.to_string_pretty();
        assert!(text.contains(r#""é\"ü\\\n✓": "é\"ü\\\n✓""#), "{text}");
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_string_pretty(), text);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
            "{\"a\": 01x}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accessors_navigate_documents() {
        let doc = Json::parse(r#"{"a": {"b": [1, 2.5, "x"]}}"#).unwrap();
        let arr = doc.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert!(doc.get("missing").is_none());
        assert!(doc.get("a").unwrap().as_f64().is_none());
    }
}
