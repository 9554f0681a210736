//! Minimal hand-rolled JSON writing and parsing.
//!
//! The workspace carries no serialization crates, so every exporter (the
//! Chrome-trace writer in [`crate::trace`], the benchmark result dumps in
//! `liger-bench`) renders JSON through this module instead: a [`ToJson`]
//! trait for values plus tiny [`JsonObject`] / [`JsonArray`] builders that
//! write straight into a `String`. Output is plain standards-compliant
//! JSON; the formats of existing exports (Chrome trace events, sweep
//! results) are unchanged from the serde era.
//!
//! The reverse direction is a small recursive-descent parser
//! ([`JsonValue::parse`] / [`JsonParser`]) used by
//! [`Trace::from_chrome_json`](crate::trace::Trace::from_chrome_json) so
//! checked-in golden traces can be re-read and verified. Numbers keep their
//! source text: correlation tags are `u64` values with high bits set (the
//! engine's control-token namespace) that a lossy `f64` detour would
//! corrupt.

use std::fmt;
use std::fmt::Write as _;

/// Escapes a string for embedding inside a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A value that can render itself as a JSON fragment.
pub trait ToJson {
    /// Appends this value's JSON representation to `out`.
    fn write_json(&self, out: &mut String);

    /// Renders to a fresh string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        })*
    };
}

int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            // JSON has no NaN/Inf; null is the least-surprising stand-in.
            out.push_str("null");
        }
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        out.push_str(&escape(self));
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        let mut arr = JsonArray::begin(out);
        for v in self {
            arr.item(v);
        }
        arr.end();
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// Incremental writer for one JSON object.
pub struct JsonObject<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> JsonObject<'a> {
    /// Opens an object (writes `{`).
    pub fn begin(out: &'a mut String) -> JsonObject<'a> {
        out.push('{');
        JsonObject { out, first: true }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        self.out.push_str(&escape(name));
        self.out.push_str("\":");
    }

    /// Writes one `"name": value` member.
    pub fn field(&mut self, name: &str, value: &dyn ToJson) -> &mut Self {
        self.key(name);
        value.write_json(self.out);
        self
    }

    /// Writes one member whose value is rendered by `f` (for custom
    /// formatting such as fixed-precision floats).
    pub fn field_with(&mut self, name: &str, f: impl FnOnce(&mut String)) -> &mut Self {
        self.key(name);
        f(self.out);
        self
    }

    /// Closes the object (writes `}`).
    pub fn end(self) {
        self.out.push('}');
    }
}

/// Incremental writer for one JSON array.
pub struct JsonArray<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> JsonArray<'a> {
    /// Opens an array (writes `[`).
    pub fn begin(out: &'a mut String) -> JsonArray<'a> {
        out.push('[');
        JsonArray { out, first: true }
    }

    fn sep(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
    }

    /// Appends one element.
    pub fn item(&mut self, value: &dyn ToJson) -> &mut Self {
        self.sep();
        value.write_json(self.out);
        self
    }

    /// Appends one element rendered by `f`.
    pub fn item_with(&mut self, f: impl FnOnce(&mut String)) -> &mut Self {
        self.sep();
        f(self.out);
        self
    }

    /// Closes the array (writes `]`).
    pub fn end(self) {
        self.out.push(']');
    }
}

/// Why JSON parsing stopped: the byte offset reached and what the parser
/// expected to find there (the same shape as
/// [`crate::faults::ParseError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// What the parser expected at that offset.
    pub expected: String,
}

impl JsonError {
    fn at(offset: usize, expected: impl Into<String>) -> JsonError {
        JsonError { offset, expected: expected.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: expected {}", self.offset, self.expected)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
///
/// Numbers are kept as their source text: the trace tags this module
/// round-trips are full-width `u64`s (control tokens set bit 62) that do
/// not survive an `f64` detour. Use [`JsonValue::as_u64`] /
/// [`JsonValue::as_f64`] to interpret them.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source text (e.g. `"1.250"`).
    Number(String),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as key/value pairs in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = JsonParser::new(input);
        let v = p.value()?;
        p.finish()?;
        Ok(v)
    }

    /// The value as a bool, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, when it is a non-negative integer number
    /// (exact — no float round-trip).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The raw source text of a number value.
    pub fn number_text(&self) -> Option<&str> {
        match self {
            JsonValue::Number(raw) => Some(raw),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key in an object value (first match wins).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// A recursive-descent JSON parser over a string slice.
///
/// Exposed (rather than hidden behind [`JsonValue::parse`]) so callers
/// streaming a top-level array — the Chrome-trace reader — can note the
/// byte offset of each element before parsing it and attach it to
/// diagnostics, the way [`crate::faults::ParseError`] reports fault-spec
/// positions.
#[derive(Debug)]
pub struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    /// Starts a parser at the beginning of `input`.
    pub fn new(input: &'a str) -> JsonParser<'a> {
        JsonParser { bytes: input.as_bytes(), pos: 0 }
    }

    /// The current byte offset (whitespace not yet skipped).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Skips whitespace and returns the byte offset of the next token.
    pub fn token_offset(&mut self) -> usize {
        self.skip_ws();
        self.pos
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(JsonError::at(self.pos, format!("'{}'", b as char))),
        }
    }

    /// Consumes `[`, the start of an array.
    pub fn array_begin(&mut self) -> Result<(), JsonError> {
        self.expect(b'[')
    }

    /// At an element boundary inside an array: consumes a `,` separator
    /// (unless `first`) or the closing `]`. Returns true when another
    /// element follows.
    pub fn array_next(&mut self, first: bool) -> Result<bool, JsonError> {
        match self.peek() {
            Some(b']') => {
                self.pos += 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(JsonError::at(self.pos, "',' or ']'")),
        }
    }

    /// Requires that only whitespace remains.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(JsonError::at(self.pos, "end of input"))
        }
    }

    /// Parses one value of any kind.
    pub fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::at(self.pos, "a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::at(self.pos, format!("'{word}'")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(JsonError::at(self.pos, "a digit"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(JsonError::at(self.pos, "a fraction digit"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(JsonError::at(self.pos, "an exponent digit"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number lexeme is ASCII")
            .to_string();
        Ok(JsonValue::Number(raw))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(JsonError::at(self.pos, "'\"' closing a string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or_else(|| JsonError::at(self.pos, "an escape character"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError::at(self.pos, "4 hex digits"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::at(self.pos, "4 hex digits"))?;
                            self.pos += 4;
                            let c = char::from_u32(code).ok_or_else(|| {
                                JsonError::at(self.pos - 4, "a non-surrogate code point")
                            })?;
                            out.push(c);
                        }
                        _ => return Err(JsonError::at(self.pos - 1, "a valid escape")),
                    }
                }
                Some(_) => {
                    // A run of plain bytes up to the next quote or escape
                    // passes through unchanged; validate it once (not the
                    // whole remaining input per character).
                    let rest = &self.bytes[self.pos..];
                    let len = rest.iter().position(|&b| b == b'"' || b == b'\\');
                    let run = &rest[..len.unwrap_or(rest.len())];
                    #[cfg(test)]
                    UTF8_VALIDATED.with(|n| n.set(n.get() + run.len()));
                    let run = std::str::from_utf8(run)
                        .map_err(|_| JsonError::at(self.pos, "valid UTF-8"))?;
                    out.push_str(run);
                    self.pos += run.len();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        let mut first = true;
        while self.array_next(first)? {
            items.push(self.value()?);
            first = false;
        }
        Ok(JsonValue::Array(items))
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        loop {
            match self.peek() {
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ if fields.is_empty() => {}
                Some(b',') => {
                    self.pos += 1;
                }
                _ => return Err(JsonError::at(self.pos, "',' or '}'")),
            }
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Bytes the string decoder has run through UTF-8 validation (the
    /// linear-work test's counter).
    static UTF8_VALIDATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_decoding_validates_each_byte_once() {
        // A >= 1 MB string literal of plain ASCII and multi-byte runs split
        // by escapes: the decoder must validate each plain byte once, not
        // the whole remaining input per character.
        let mut body = String::new();
        while body.len() < 1 << 20 {
            body.push_str("plain text run, µ-ops and ünïcödé \\\"\\n\\u00e9 ");
        }
        let input = format!("\"{body}\"");
        UTF8_VALIDATED.with(|n| n.set(0));
        let parsed = JsonValue::parse(&input).expect("valid string literal");
        let validated = UTF8_VALIDATED.with(|n| n.get());
        assert!(validated <= 2 * input.len(), "{validated} bytes validated for {}", input.len());
        let JsonValue::String(s) = parsed else { panic!("not a string: {parsed:?}") };
        assert!(s.starts_with("plain text run, µ-ops and ünïcödé \"\né plain"));
    }

    #[test]
    fn invalid_utf8_in_a_string_is_a_typed_error_at_the_run() {
        let bytes = b"\"ok \xff bad\"";
        let mut p = JsonParser { bytes, pos: 0 };
        let err = p.string().expect_err("invalid UTF-8 must not decode");
        assert_eq!(err.offset, 1, "reported where the plain run starts");
        assert_eq!(err.expected, "valid UTF-8");
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn scalars() {
        assert_eq!(42u64.to_json(), "42");
        assert_eq!((-3i32).to_json(), "-3");
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(true.to_json(), "true");
        assert_eq!("hi\"".to_json(), "\"hi\\\"\"");
        assert_eq!(Some(7u32).to_json(), "7");
        assert_eq!(None::<u32>.to_json(), "null");
    }

    #[test]
    fn collections_and_objects() {
        assert_eq!(vec![1u32, 2, 3].to_json(), "[1,2,3]");
        let mut out = String::new();
        let mut o = JsonObject::begin(&mut out);
        o.field("name", &"x").field("n", &2u32).field_with("ts", |s| {
            let _ = write!(s, "{:.3}", 1.25);
        });
        o.end();
        assert_eq!(out, "{\"name\":\"x\",\"n\":2,\"ts\":1.250}");
    }

    #[test]
    fn empty_object_and_array() {
        let mut out = String::new();
        JsonObject::begin(&mut out).end();
        JsonArray::begin(&mut out).end();
        assert_eq!(out, "{}[]");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        let n = JsonValue::parse("-12.5e3").unwrap();
        assert_eq!(n.as_f64(), Some(-12500.0));
        assert_eq!(n.number_text(), Some("-12.5e3"));
        assert_eq!(JsonValue::parse("\"a\\nb\"").unwrap().as_str(), Some("a\nb"));
    }

    #[test]
    fn big_integers_survive_exactly() {
        // Bit 62 + low bits: not representable in f64.
        let tag = (1u64 << 62) | 12345;
        let v = JsonValue::parse(&tag.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(tag));
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").unwrap().is_null());
        assert_eq!(JsonValue::parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(JsonValue::parse("{}").unwrap(), JsonValue::Object(vec![]));
    }

    #[test]
    fn parse_errors_carry_byte_offsets() {
        let err = JsonValue::parse("[1,]").unwrap_err();
        assert_eq!(err.offset, 3);
        let err = JsonValue::parse("{\"a\" 1}").unwrap_err();
        assert_eq!(err.offset, 5);
        assert!(err.to_string().contains("json error at byte 5"));
        let err = JsonValue::parse("[1] trailing").unwrap_err();
        assert_eq!(err.expected, "end of input");
    }

    #[test]
    fn escape_sequences_round_trip_through_the_parser() {
        for s in ["a\"b\\c\nd", "\u{1}\t", "héllo"] {
            let rendered = s.to_json();
            assert_eq!(JsonValue::parse(&rendered).unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn writer_output_reparses() {
        let mut out = String::new();
        let mut o = JsonObject::begin(&mut out);
        o.field("xs", &vec![1u32, 2]).field("f", &1.5f64).field("s", &"q\"");
        o.end();
        let v = JsonValue::parse(&out).unwrap();
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("q\""));
        assert_eq!(v.get("xs").unwrap().as_array().unwrap()[1].as_u64(), Some(2));
    }
}
