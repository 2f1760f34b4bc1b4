//! The workspace's one JSON engine: the outreach `ig` event files and
//! geometry descriptions, and the observability trace JSONL, all read
//! and write through it.
//!
//! Written from scratch (no serde) per the project's dependency policy.
//! Numbers are `f64`. Strings escape `"`, `\` and control characters;
//! `\u` escapes decode UTF-16 surrogate pairs into one char and reject a
//! lone surrogate. Parsing is linear in the input: a string body is
//! copied run by run between escapes, never re-validated per char.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (key order normalized).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Build an object from pairs.
    pub fn object(pairs: Vec<(&str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serialize to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                if n.is_finite() {
                    // Integers render without a fraction for readability.
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Value::String(s) => write_string(out, s),
            Value::Array(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Object(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `s` to `out` as a quoted JSON string literal.
pub fn write_string(out: &mut String, s: &str) {
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

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Description.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, reason: &str) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            reason: reason.to_string(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(&format!("unexpected character '{}'", c as char)),
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, JsonError> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.pos += 1; // the sign or first digit `value` dispatched on
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| JsonError {
                offset: start,
                reason: format!("bad number '{text}'"),
            })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go;
            // both are ASCII, so the cut is always on a char boundary.
            let rest = &self.text[self.pos..];
            let Some(run) = rest.bytes().position(|b| b == b'"' || b == b'\\') else {
                self.pos = self.text.len();
                return self.err("unterminated string");
            };
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    self.pos += 1;
                    out.push(self.unicode_escape()?);
                    continue;
                }
                _ => return self.err("bad escape"),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    /// The four hex digits of one `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        match self.text.get(self.pos..self.pos + 4) {
            Some(hex) if hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
                self.pos += 4;
                Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
            }
            _ => self.err("bad \\u escape"),
        }
    }

    /// Decode the escape after `\u`: a BMP scalar, or a high surrogate
    /// that must be followed by `\u` and a low surrogate.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = match self.hex4()? {
            high @ 0xD800..=0xDBFF => {
                if !self.text[self.pos..].starts_with("\\u") {
                    return self.err("lone surrogate");
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return self.err("lone surrogate");
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return self.err("lone surrogate"),
            code => code,
        };
        Ok(char::from_u32(code).expect("surrogates excluded"))
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parse JSON text into a [`Value`].
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.err("trailing characters");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-1.5", "3.25e2", "\"hi\""] {
            let v = parse(text).unwrap();
            let again = parse(&v.to_json()).unwrap();
            assert_eq!(v, again, "round trip of {text}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"tracks":[{"pt":12.5,"eta":-1.2},{"pt":3,"eta":0}],"met":7.25,"name":"ev\"1\"","tags":[],"extra":null}"#;
        let v = parse(text).unwrap();
        let again = parse(&v.to_json()).unwrap();
        assert_eq!(v, again);
        assert_eq!(v.get("met").and_then(Value::as_f64), Some(7.25));
        assert_eq!(
            v.get("tracks")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn string_escapes() {
        let v = Value::String("line1\nline2\t\"q\"\\".to_string());
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn unicode_passthrough() {
        let v = parse(r#""Apäσ""#).unwrap();
        assert_eq!(v.as_str(), Some("Apäσ"));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_are_rejected() {
        let v = parse(r#""a\ud83d\ude00b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\u{1F600}b"));
        assert_eq!(
            parse(r#""\uD834\uDD1E""#).unwrap().as_str(),
            Some("\u{1D11E}")
        );
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d\n""#,
        ] {
            let err = parse(bad).expect_err(bad);
            assert_eq!(err.reason, "lone surrogate", "{bad}");
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "[1,]",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn escapes_are_exact_and_malformed_escapes_are_rejected() {
        let v = Value::String("tab\t nul\u{0} us\u{1f} del\u{7f} é".to_string());
        let text = v.to_json();
        assert_eq!(text, "\"tab\\t nul\\u0000 us\\u001f del\u{7f} é\"");
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse(r#""\u00e4\u03C3\/""#).unwrap().as_str(), Some("äσ/"));
        for bad in [
            r#""\q""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\u12g4""#,
            "\"\\",
            "-",
            "{\"a\":1} extra",
            "not json",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(
            v.get("a").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Value::Number(f64::NAN).to_json(), "null");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One 1 MiB string plus 50k short ones (~2 MiB in all): a parser
        // that re-scans the rest of the input per char takes minutes here.
        let big = "é".repeat(1 << 19);
        let shorts: Vec<Value> = (0..50_000)
            .map(|i| Value::String(format!("short-string-{i:05}\\é")))
            .collect();
        let doc = Value::object(vec![
            ("big", Value::String(big.clone())),
            ("shorts", Value::Array(shorts)),
        ])
        .to_json();
        assert!(doc.len() > 2 << 20, "{} bytes", doc.len());
        let start = Instant::now();
        let v = parse(&doc).unwrap();
        let took = start.elapsed();
        assert_eq!(v.get("big").and_then(Value::as_str), Some(big.as_str()));
        assert_eq!(
            v.get("shorts")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(50_000)
        );
        assert!(took < Duration::from_secs(5), "parse took {took:?}");
    }
}
