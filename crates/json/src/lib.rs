//! A minimal JSON parser and serializer (no external dependencies).
//!
//! Just enough to validate and round-trip the workspace's structured
//! text formats: objects, arrays, strings with the standard escapes,
//! numbers as `f64`, booleans, null. Three consumers share it — the trace
//! exporters in `potemkin-obs` (round-trip tests, E12's trace self-check),
//! the scenario DSL loader in `potemkin-services`, and the experiment
//! harness in `potemkin-bench`, which builds every `BENCH_*.json` as a
//! [`JsonValue`] and prints it with [`fmt::Display`] — so the workspace
//! carries exactly one hand-rolled parser and one emitter.
//! Not a general-purpose library.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(unreachable_pub)]

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always `f64`; fine for trace timestamps).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. Key order is not preserved.
    Object(BTreeMap<String, JsonValue>),
}

/// The deepest nesting of arrays and objects a document may have: the
/// parser recurses once a level, and 128 levels fit a 2 MiB thread's stack
/// in a debug build. No scenario file or artifact comes near it.
pub const MAX_DEPTH: usize = 128;

/// Where and why a parse failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub(crate) at: usize,
    /// Static description.
    pub(crate) what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Builds a [`JsonValue::Object`] from `"key": value` pairs; each value
/// goes through [`JsonValue::from`].
#[macro_export]
macro_rules! obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::JsonValue::Object(
            [$(($key.to_string(), $crate::JsonValue::from($value))),*].into_iter().collect(),
        )
    };
}

macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            /// Exact up to 2^53, like every JSON number.
            #[allow(clippy::cast_precision_loss, clippy::cast_lossless)]
            fn from(n: $t) -> JsonValue {
                JsonValue::Num(n as f64)
            }
        }
    )*};
}

from_number!(u64, usize, f64);

impl From<bool> for JsonValue {
    fn from(b: bool) -> JsonValue {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> JsonValue {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> JsonValue {
        JsonValue::Str(s)
    }
}

impl<T: Into<JsonValue>> FromIterator<T> for JsonValue {
    /// Collects into a [`JsonValue::Array`].
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> JsonValue {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for JsonValue {
    /// Pretty-prints the value: a container whose children are all scalars
    /// stays on one line (a table row); any other container puts one child
    /// per line, two spaces per level. Non-finite numbers, which JSON cannot
    /// carry, print as `null`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl JsonValue {
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            // `Display` for `f64` is the shortest text that parses back to
            // the same value, with no exponent and no fraction on integers.
            JsonValue::Num(n) if n.is_finite() => write!(f, "{n}"),
            JsonValue::Num(_) => f.write_str("null"),
            JsonValue::Str(s) => write!(f, "\"{}\"", escape(s)),
            JsonValue::Array(items) => {
                write_container(f, depth, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            JsonValue::Object(members) => {
                write_container(f, depth, ['{', '}'], members.iter().map(|(k, v)| (Some(k), v)))
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem,
    /// among them a container nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Sets member `key` of an object.
    ///
    /// # Panics
    ///
    /// Panics if this value is not an object (a bug in the caller).
    pub fn insert(&mut self, key: &str, value: impl Into<JsonValue>) {
        let JsonValue::Object(members) = self else { panic!("insert into a JSON non-object") };
        members.insert(key.to_string(), value.into());
    }

    /// Object member lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(self.err("nested too deep")),
            Some(b'{' | b'[') => {
                self.depth += 1;
                let value = if self.peek() == Some(b'{') { self.object() } else { self.array() };
                self.depth -= 1;
                value
            }
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &'static str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-UTF-8 number"))?;
        // Past `f64`'s range is refused: infinity would print as `null`.
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(JsonValue::Num)
            .ok_or(JsonError { at: start, what: "malformed number" })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a scalar"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy a run of plain UTF-8 bytes verbatim.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[', "expected array")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{', "expected object")?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            members.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

fn write_container<'a>(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    [open, close]: [char; 2],
    children: impl Iterator<Item = (Option<&'a String>, &'a JsonValue)> + Clone,
) -> fmt::Result {
    let flat =
        children.clone().all(|(_, v)| !matches!(v, JsonValue::Array(_) | JsonValue::Object(_)));
    write!(f, "{open}")?;
    for (i, (key, value)) in children.enumerate() {
        if i > 0 {
            f.write_str(if flat { ", " } else { "," })?;
        }
        if !flat {
            write!(f, "\n{:1$}", "", 2 * depth + 2)?;
        }
        if let Some(key) = key {
            write!(f, "\"{}\": ", escape(key))?;
        }
        value.write(f, depth + 1)?;
    }
    if !flat {
        write!(f, "\n{:1$}", "", 2 * depth)?;
    }
    write!(f, "{close}")
}

/// Escapes `text` for inclusion inside a JSON string literal.
#[must_use]
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Strips full-line `//` comments, so annotated scenario files stay valid
/// inputs for [`JsonValue::parse`]. Only lines whose first non-whitespace
/// characters are `//` are dropped — `//` inside a string on a data line is
/// left alone, so URLs in values survive.
#[must_use]
pub fn strip_line_comments(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if !line.trim_start().starts_with("//") {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#" {"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}} "#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(v.get("a").and_then(|a| a.as_array()).map(<[JsonValue]>::len), Some(3));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(JsonValue::as_str), Some("x\ny"));
        assert_eq!(v.get("b").and_then(|b| b.get("e")), Some(&JsonValue::Null));
    }

    /// `depth` nested arrays around a zero, parsed on a 2 MiB thread.
    fn parse_nested(depth: usize) -> Result<JsonValue, JsonError> {
        let text = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        let parse = move || JsonValue::parse(&text);
        std::thread::Builder::new().stack_size(2 << 20).spawn(parse).unwrap().join().unwrap()
    }

    #[test]
    fn nesting_parses_to_the_cap_and_is_an_error_past_it() {
        let mut value = parse_nested(MAX_DEPTH).unwrap();
        for _ in 0..MAX_DEPTH {
            value = value.as_array().unwrap()[0].clone();
        }
        assert_eq!(value, JsonValue::Num(0.0));
        let err = parse_nested(MAX_DEPTH + 1).unwrap_err();
        assert_eq!(err, JsonError { at: MAX_DEPTH, what: "nested too deep" });
        // Far past the cap is the same typed error, not a stack overflow.
        assert_eq!(parse_nested(100_000).unwrap_err(), err);
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse("\"\\q\"").is_err());
        assert!(JsonValue::parse("-1e999").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(JsonValue::parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn integers_print_without_fraction_or_exponent() {
        for (n, text) in [
            (1_945_208_u64, "1945208"),
            (1 << 53, "9007199254740992"),
            (500_000_000, "500000000"),
            (0, "0"),
        ] {
            assert_eq!(JsonValue::from(n).to_string(), text);
        }
        assert_eq!(JsonValue::from(24.94).to_string(), "24.94");
        assert_eq!(JsonValue::from(f64::NAN).to_string(), "null");
    }

    #[test]
    fn rows_stay_on_one_line_and_nesting_indents() {
        let doc = obj! {
            "digest": "a342e7210fca478c",
            "rows": [obj! {"workers": 1_u64, "ok": true}, obj! {"workers": 2_u64, "ok": false}]
                .into_iter()
                .collect::<JsonValue>(),
            "empty": JsonValue::Array(Vec::new()),
        };
        let expected = "{\n  \"digest\": \"a342e7210fca478c\",\n  \"empty\": [],\n  \"rows\": [\n    \
                        {\"ok\": true, \"workers\": 1},\n    {\"ok\": false, \"workers\": 2}\n  ]\n}";
        assert_eq!(doc.to_string(), expected);
    }

    /// Scalars plus, while `depth` lasts, arrays and objects of the level
    /// below. Strings draw from quotes, backslashes, control characters and
    /// non-ASCII; numbers from integers up to 2^53 and arbitrary fractions.
    fn arb_value(depth: u32) -> BoxedStrategy<JsonValue> {
        let text = || "[a-c \"\\\n\t\u{1}é/{:,]{0,8}";
        let scalar = prop_oneof![
            Just(JsonValue::Null),
            any::<bool>().prop_map(JsonValue::Bool),
            (0_u64..=1 << 53).prop_map(JsonValue::from),
            (-1e9..1e9_f64).prop_map(JsonValue::Num),
            text().prop_map(JsonValue::Str),
        ];
        if depth == 0 {
            return scalar.boxed();
        }
        let inner = arb_value(depth - 1);
        prop_oneof![
            2 => scalar,
            1 => vec(inner.clone(), 0..4).prop_map(JsonValue::Array),
            1 => vec((text(), inner), 0..4)
                .prop_map(|members| JsonValue::Object(members.into_iter().collect())),
        ]
        .boxed()
    }

    proptest! {
        #[test]
        fn serialize_then_parse_is_identity(value in arb_value(3)) {
            let text = value.to_string();
            prop_assert_eq!(JsonValue::parse(&text), Ok(value), "{}", text);
        }
    }

    #[test]
    fn line_comments_are_stripped_but_inline_slashes_survive() {
        let doc = "// header comment\n{\n  // a field\n  \"url\": \"http://x/y\"\n}\n";
        let v = JsonValue::parse(&strip_line_comments(doc)).unwrap();
        assert_eq!(v.get("url").and_then(JsonValue::as_str), Some("http://x/y"));
    }
}
