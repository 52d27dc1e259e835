//! The workspace's one JSON writer and structural validator.
//!
//! The vendored `serde` is a no-op API marker (this build environment is offline), so JSON
//! emission is hand-rolled — but hand-rolled *once*, here. Every emitter in the workspace
//! (`rws-lab`'s reports and trace exports, the repository benchmark's result lines) builds
//! a [`Json`] value tree and renders it through this module, so there is exactly one
//! escaping and one number-formatting path, and one [`validate`] routine that CI runs over
//! everything that lands on disk.
//!
//! Rendering rules:
//!
//! * objects and arrays pretty-print with two-space indentation (empty ones inline as
//!   `{}` / `[]`);
//! * floats render with six decimal places, and non-finite values clamp to `0` — JSON has
//!   no `NaN`/`Infinity`, and a silent `null` would hide the bug ([`validate`] additionally
//!   rejects any document in which such a token appears);
//! * strings escape `"`', `\` and control characters.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float, rendered with six decimals (non-finite clamps to `0`).
    F64(f64),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key → value pairs (keys render in insertion order).
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

/// Build an object from `(key, value)` pairs — the idiom emitters use:
/// `obj([("schema", "v1".into()), ("runs", runs.into())])`.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn escape_into(out: &mut String, s: &str) {
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
}

impl Json {
    /// Render the value as a pretty-printed document (two-space indent, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                // JSON has no NaN/Infinity; clamp (validate rejects leaked tokens).
                let v = if v.is_finite() { *v } else { 0.0 };
                let _ = write!(out, "{v:.6}");
            }
            Json::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    for _ in 0..indent + 2 {
                        out.push(' ');
                    }
                    item.write(out, indent + 2);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                for _ in 0..indent {
                    out.push(' ');
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    for _ in 0..indent + 2 {
                        out.push(' ');
                    }
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\": ");
                    v.write(out, indent + 2);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                for _ in 0..indent {
                    out.push(' ');
                }
                out.push('}');
            }
        }
    }
}

/// Structural validation: the document must [`parse`] as one JSON value with nothing
/// trailing, and must not contain a leaked non-finite number token. Returns a description
/// of the first problem found.
pub fn validate(doc: &str) -> Result<(), String> {
    parse(doc)?;
    if doc.contains("NaN") || doc.contains("Infinity") {
        return Err("non-finite number leaked into the document".into());
    }
    Ok(())
}

/// [`validate`], plus a check that every named key appears somewhere in the document — the
/// emitter-specific schema floor (e.g. `schema`, `records`) CI gates on.
pub fn validate_with_keys(doc: &str, required: &[&str]) -> Result<(), String> {
    validate(doc)?;
    for key in required {
        if !doc.contains(&format!("\"{key}\"")) {
            return Err(format!("missing required key \"{key}\""));
        }
    }
    Ok(())
}

/// Parse a document into a [`Json`] value tree — the read half of this module, used by
/// structural checks (e.g. [`crate::trace_export::validate_chrome_trace`], and the
/// repository benchmark's `--compare`, which reads saved runs back). Numbers parse as
/// `U64`/`I64` when they are integral and in range, `F64` otherwise; object key order is
/// preserved.
pub fn parse(doc: &str) -> Result<Json, String> {
    struct P<'a> {
        bytes: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.i < self.bytes.len() && self.bytes[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn peek(&mut self) -> Option<u8> {
            self.ws();
            self.bytes.get(self.i).copied()
        }
        fn expect(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", c as char, self.i))
            }
        }
        fn value(&mut self) -> Result<Json, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string().map(Json::Str),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                Some(b't') => self.literal("true").map(|_| Json::Bool(true)),
                Some(b'f') => self.literal("false").map(|_| Json::Bool(false)),
                Some(b'n') => self.literal("null").map(|_| Json::Null),
                other => Err(format!("unexpected {other:?} at byte {}", self.i)),
            }
        }
        fn literal(&mut self, lit: &str) -> Result<(), String> {
            if self.bytes[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                Ok(())
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }
        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut pairs = Vec::new();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                pairs.push((key, self.value()?));
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    other => return Err(format!("bad object at byte {}: {other:?}", self.i)),
                }
            }
        }
        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("bad array at byte {}: {other:?}", self.i)),
                }
            }
        }
        /// Read the four hex digits of a `\u` escape.
        fn hex4(&mut self) -> Result<u32, String> {
            let hex = self.bytes.get(self.i..self.i + 4).ok_or("truncated \\u escape")?;
            self.i += 4;
            u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
                .map_err(|e| e.to_string())
        }
        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            while let Some(&c) = self.bytes.get(self.i) {
                self.i += 1;
                match c {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let esc = self.bytes.get(self.i).copied();
                        self.i += 1;
                        match esc {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{0008}'),
                            Some(b'f') => out.push('\u{000C}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let code = self.hex4()?;
                                // A high surrogate must pair with a following \uXXXX low
                                // surrogate; together they encode one non-BMP character.
                                let scalar = if (0xD800..0xDC00).contains(&code) {
                                    if self.bytes.get(self.i..self.i + 2) != Some(b"\\u") {
                                        return Err(format!("unpaired high surrogate {code:#x}"));
                                    }
                                    self.i += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(format!(
                                            "high surrogate {code:#x} followed by {low:#x}"
                                        ));
                                    }
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    code
                                };
                                out.push(
                                    char::from_u32(scalar)
                                        .ok_or(format!("bad \\u escape {scalar:#x}"))?,
                                );
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                    }
                    c => {
                        // Re-assemble multi-byte UTF-8 sequences byte by byte.
                        let start = self.i - 1;
                        let width = utf8_width(c);
                        let end = start + width;
                        let chunk = self.bytes.get(start..end).ok_or("truncated UTF-8 sequence")?;
                        out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                        self.i = end;
                    }
                }
            }
            Err("unterminated string".into())
        }
        fn number(&mut self) -> Result<Json, String> {
            let start = self.i;
            while let Some(&c) = self.bytes.get(self.i) {
                if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.i += 1;
                } else {
                    break;
                }
            }
            let text =
                std::str::from_utf8(&self.bytes[start..self.i]).map_err(|e| e.to_string())?;
            if !text.contains(['.', 'e', 'E']) {
                if let Ok(u) = text.parse::<u64>() {
                    return Ok(Json::U64(u));
                }
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::I64(i));
                }
            }
            text.parse::<f64>()
                .map(Json::F64)
                .map_err(|_| format!("bad number `{text}` at byte {start}"))
        }
    }
    fn utf8_width(first: u8) -> usize {
        match first {
            b if b < 0x80 => 1,
            b if b >= 0xF0 => 4,
            b if b >= 0xE0 => 3,
            _ => 2,
        }
    }
    let mut p = P { bytes: doc.as_bytes(), i: 0 };
    let value = p.value()?;
    p.ws();
    if p.i != doc.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(value)
}

impl Json {
    /// Look up a key in an object; `None` for missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An object's keys in document order.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The value as a `u64`, when this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, when this is any number (integers convert losslessly up to
    /// 2^53, which covers every counter the emitted documents carry).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_validates_round_trip() {
        let doc = obj([
            ("schema", "test/v1".into()),
            ("count", 3u64.into()),
            ("ratio", 1.5f64.into()),
            ("delta", Json::I64(-2)),
            ("ok", true.into()),
            ("missing", Json::Null),
            ("items", Json::Arr(vec![1u64.into(), 2u64.into()])),
            ("empty_obj", Json::Obj(Vec::new())),
            ("empty_arr", Json::Arr(Vec::new())),
        ])
        .render();
        validate(&doc).expect("rendered document must validate");
        assert!(doc.contains("\"ratio\": 1.500000"), "{doc}");
        assert!(doc.contains("\"delta\": -2"));
        assert!(doc.contains("\"empty_obj\": {}"));
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn strings_escape_and_still_validate() {
        let doc = Json::Str("a \"quoted\" \\ back\nslash \u{1}".into()).render();
        validate(&doc).expect("escaped string must validate");
        assert!(doc.contains("\\\"quoted\\\""));
        assert!(doc.contains("\\n"));
        assert!(doc.contains("\\u0001"));
    }

    #[test]
    fn non_finite_floats_clamp_to_zero() {
        let doc = Json::Arr(vec![Json::F64(f64::NAN), Json::F64(f64::INFINITY)]).render();
        validate(&doc).expect("clamped values must validate");
        assert!(!doc.contains("NaN") && !doc.contains("inf"), "{doc}");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate("{").is_err());
        assert!(validate("{\"a\": }").is_err());
        assert!(validate("[1, 2,]").is_err());
        assert!(validate("{} trailing").is_err());
        assert!(validate("\"unterminated").is_err());
        assert!(validate("{\"x\": NaN}").is_err());
        assert!(validate("[]").is_ok());
        assert!(validate("{\"a\": [1, -2.5e3, \"s\", null, true]}").is_ok());
    }

    #[test]
    fn required_keys_are_enforced() {
        let doc = obj([("schema", "x".into())]).render();
        assert!(validate_with_keys(&doc, &["schema"]).is_ok());
        let err = validate_with_keys(&doc, &["schema", "records"]).unwrap_err();
        assert!(err.contains("records"), "{err}");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let original = obj([
            ("schema", "test/v1".into()),
            ("count", 3u64.into()),
            ("delta", Json::I64(-2)),
            ("ratio", 1.5f64.into()),
            ("ok", true.into()),
            ("missing", Json::Null),
            ("name", "a \"quoted\" \\ back\nslash é".into()),
            ("items", Json::Arr(vec![1u64.into(), Json::Obj(Vec::new()), Json::Arr(Vec::new())])),
        ]);
        let parsed = parse(&original.render()).expect("rendered documents must parse");
        assert_eq!(parsed, original);
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        for bad in ["{", "{\"a\": }", "[1, 2,]", "{} trailing", "\"unterminated", ""] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_handles_every_legal_string_escape() {
        // \b, \f, and UTF-16 surrogate pairs are legal JSON our renderer never emits but
        // externally produced documents (e.g. an edited baseline) may contain.
        let parsed = parse("\"a\\bb\\ff\\u0041\\uD83D\\uDE00!\"").unwrap();
        assert_eq!(parsed, Json::Str("a\u{0008}b\u{000C}fA😀!".into()));
        for bad in ["\"\\uD83D\"", "\"\\uD83D\\u0041\"", "\"\\uD83\"", "\"\\x\""] {
            assert!(parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn value_accessors_navigate_the_tree() {
        let doc = parse("{\"records\": [{\"workload\": \"fft\", \"threads\": 4}]}").unwrap();
        let records = doc.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].get("workload").and_then(Json::as_str), Some("fft"));
        assert_eq!(records[0].keys(), vec!["workload", "threads"]);
        assert_eq!(records[0].get("threads"), Some(&Json::U64(4)));
        assert!(doc.get("absent").is_none());
        assert!(Json::Null.get("x").is_none() && Json::Null.as_array().is_none());
    }
}
