//! The canonical JSON reference form: minimal JSON tree, writer, and
//! parser shared by every layer that touches bytes.
//!
//! This module is the **single** canonical-JSON implementation in the
//! workspace — the engine's cache, the cluster wire, and the
//! linter's artifact passes all re-export it, so "canonical bytes" means
//! exactly one thing everywhere. It is also the interchange form of the
//! binary format in [`crate::bval`]: every binary record decodes to a
//! [`Value`] whose JSON encoding is its debug/interchange representation.
//!
//! The workspace has no serialization framework (see `vendor/README.md`),
//! so all JSON is written and read through this hand-rolled codec. Two
//! properties matter more than generality:
//!
//! * **Byte stability** — encoding is deterministic (object keys keep
//!   insertion order, floats print via Rust's shortest-roundtrip `{:?}`),
//!   so `encode(decode(bytes)) == bytes` for every file this crate writes.
//!   The engine's cache-hit contract ("a warm read returns exactly the
//!   bytes of the cold run") rests on this.
//! * **Lossless floats** — `{:?}` prints the shortest decimal that parses
//!   back to the identical `f64`, so round-tripping never perturbs a
//!   metric. Non-finite floats (never produced by a healthy run) are
//!   encoded as the strings `"NaN"`, `"inf"`, `"-inf"`.

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order so encoding is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the only integer kind the cache needs).
    UInt(u64),
    /// A float; always printed with a `.` or exponent so it re-parses as
    /// [`Value::Float`].
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn object(pairs: Vec<(&str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// The value as `f64`. Accepts floats, integers, and the non-finite
    /// sentinels `"NaN"` / `"inf"` / `"-inf"`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::UInt(u) => Some(*u as f64),
            Value::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether the value is a number or a non-finite sentinel string
    /// (`"NaN"`, `"inf"`, `"-inf"`), i.e. decodes as `f64`.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::UInt(_) | Value::Float(_))
            || matches!(self, Value::Str(s) if s == "NaN" || s == "inf" || s == "-inf")
    }

    /// Encodes to compact JSON text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Value::Float(f) => write_f64(*f, out),
            Value::Str(s) => write_str(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Encodes an `f64` float: shortest roundtrip decimal for finite values
/// (Rust's `{:?}`), string sentinels otherwise (JSON has no non-finite
/// numbers).
fn write_f64(f: f64, out: &mut String) {
    if f.is_nan() {
        out.push_str("\"NaN\"");
    } else if f == f64::INFINITY {
        out.push_str("\"inf\"");
    } else if f == f64::NEG_INFINITY {
        out.push_str("\"-inf\"");
    } else {
        let _ = write!(out, "{f:?}");
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// Error produced by [`parse`] (position plus message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses JSON text into a [`Value`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("truncated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("non-scalar \\u escape"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("malformed number"))?;
        if !is_float && !text.starts_with('-') {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.error("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_byte_stable() {
        let v = Value::object(vec![
            ("id", Value::Str("H-WordCount \"tricky\"\n".into())),
            ("count", Value::UInt(u64::MAX)),
            ("pi", Value::Float(std::f64::consts::PI)),
            ("tiny", Value::Float(1e-300)),
            ("neg_zero", Value::Float(-0.0)),
            ("flag", Value::Bool(true)),
            ("gap", Value::Null),
            (
                "curve",
                Value::Array(vec![Value::Float(0.5), Value::UInt(3)]),
            ),
        ]);
        let bytes = v.encode();
        let reparsed = parse(&bytes).unwrap();
        assert_eq!(reparsed, v);
        assert_eq!(reparsed.encode(), bytes, "encode∘decode must be identity");
    }

    #[test]
    fn floats_roundtrip_to_identical_bits() {
        for f in [
            0.1,
            1.0 / 3.0,
            6.02e23,
            5e-324,
            f64::MAX,
            -0.0,
            123_456_789.123_456_78,
        ] {
            let bytes = Value::Float(f).encode();
            let back = parse(&bytes).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} mangled via {bytes}");
        }
    }

    #[test]
    fn non_finite_floats_use_sentinels() {
        assert_eq!(Value::Float(f64::NAN).encode(), "\"NaN\"");
        assert_eq!(Value::Float(f64::INFINITY).encode(), "\"inf\"");
        let back = parse("\"-inf\"").unwrap().as_f64().unwrap();
        assert_eq!(back, f64::NEG_INFINITY);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2.5 ] , \"b\\u0041\" : \"x\\ty\" } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("bA").unwrap().as_str(), Some("x\ty"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn numeric_sentinels_recognized() {
        assert!(parse("\"NaN\"").unwrap().is_numeric());
        assert!(parse("3.5").unwrap().is_numeric());
        assert!(!parse("\"text\"").unwrap().is_numeric());
    }
}
