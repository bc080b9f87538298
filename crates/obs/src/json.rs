//! The workspace's one JSON module: a value type, a strict parser, and
//! the writer and string escaper every hand-built JSON line uses.
//!
//! The workspace is fully offline — no serde — and its JSON needs are
//! small: the bench report (`BENCH_reuselens.json`), the daemon's
//! request lines, and the telemetry and event-log output. The parser is
//! strict because daemon requests are untrusted input:
//!
//! * nesting deeper than [`MAX_DEPTH`] is a typed error, so no input can
//!   overflow the stack;
//! * `\u` escapes must pair surrogates, raw control bytes inside strings
//!   are rejected, and numbers must be finite;
//! * an object may not repeat a key.
//!
//! Objects keep their key order (a `Vec` of pairs, not a map), so a
//! rendered document is deterministic and diffs cleanly across runs.
//! Numbers render with Rust's shortest round-trip `f64` display.

use std::fmt;
use std::fmt::Write as _;

/// Deepest accepted nesting of arrays and objects. The bench report
/// nests five levels and daemon requests two.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64` (exact for integers up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders human-readable JSON indented by two spaces per level.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN/Infinity; render them as null like browsers do.
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\":");
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
}

/// Escapes a string for embedding between the quotes of a JSON string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// A parse failure: what was wrong and the byte offset it was found at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What the parser expected or found.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// The first violation of the grammar or of the module's strictness rules,
/// with its byte offset.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
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

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", expected as char)))
        }
    }

    /// Consumes `close` if it is next, for the empty `[]` / `{}` case.
    fn close_empty(&mut self, close: u8) -> bool {
        self.skip_ws();
        let empty = self.peek() == Some(close);
        if empty {
            self.pos += 1;
        }
        empty
    }

    /// After an element: `true` on `,`, `false` on `close`.
    fn more(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err(format!("expected ',' or '{}'", close as char))),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    /// One value at nesting `depth` (the document itself is depth 0).
    /// Containers recurse at most [`MAX_DEPTH`] levels.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut pairs: Vec<(String, Json)> = Vec::new();
        if self.close_empty(b'}') {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key '{key}'")));
            }
            self.eat(b':')?;
            let value = self.value(depth)?;
            pairs.push((key, value));
            if !self.more(b'}')? {
                return Ok(Json::Obj(pairs));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        if self.close_empty(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            if !self.more(b']')? {
                return Ok(Json::Arr(items));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte. All three are ASCII, so the run
            // ends on a UTF-8 boundary of the (already valid) input.
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
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
                        b'u' => out.push(self.unicode_escape()?),
                        other => return Err(self.err(format!("bad escape '\\{}'", other as char))),
                    }
                }
                Some(_) => return Err(self.err("raw control byte in string")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&first) {
            // High surrogate: require the paired low surrogate.
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err(self.err("lone high surrogate"));
            }
            self.pos += 2;
            let second = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&second) {
                return Err(self.err("invalid low surrogate"));
            }
            let combined = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
            char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xDC00..=0xDFFF).contains(&first) {
            Err(self.err("lone low surrogate"))
        } else {
            char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self.text.get(self.pos..self.pos + 4).unwrap_or("");
        if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err("bad \\u escape"));
        }
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(format!("bad number '{text}'")))?;
        if !n.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_report_shaped_document() {
        let text = r#"{"schema":"reuselens-bench/v1","runs":[{"workload":"sweep3d","grains":4,"throughput":1234.5}],"ok":true,"none":null}"#;
        let doc = parse(text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("reuselens-bench/v1")
        );
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs[0].get("grains").and_then(Json::as_f64), Some(4.0));
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        assert_eq!(parse(&doc.render_pretty()).unwrap(), doc);
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let doc = parse(r#"{"s":"a\"b\\c\ndA\u00e9\ud83d\ude00","n":-1.5e3}"#).unwrap();
        assert_eq!(
            doc.get("s").and_then(Json::as_str),
            Some("a\"b\\c\ndA\u{e9}\u{1f600}")
        );
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(-1500.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1} x",
            "\"unterminated",
            "{\"a\":1,\"a\":2}",
            "\"raw\tcontrol\"",
            "1e999",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"\\uzzzz\"",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn numbers_render_shortest_round_trip() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(0.1).render(), "0.1");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn escaped_strings_parse_back() {
        let s = "q\"\\\r\t\u{1f}é";
        assert_eq!(
            parse(&format!("\"{}\"", escape(s))),
            Ok(Json::Str(s.to_string()))
        );
    }

    /// Deep input is a typed error, not a stack overflow.
    #[test]
    fn nesting_past_the_cap_is_a_typed_error() {
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("[", "]", MAX_DEPTH + 1)).is_err());
        let objects = |n: usize| "{\"k\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
        // The bench report's own shape: report > stage_seconds > stage.
        let report = r#"{"runs":[{"stage_seconds":{"replay":{"sum":1,"max":1}}}]}"#;
        assert!(parse(report).is_ok());
    }
}
