//! Offline stand-in for `serde_json`.
//!
//! A JSON text codec over the vendored `serde` shim:
//! [`to_string`], [`to_string_pretty`], [`from_str`], and [`to_value`],
//! plus re-exports of [`Value`], [`Map`], and [`Number`]. Output matches
//! serde_json conventions closely enough for this workspace: compact
//! separators (`,`/`:`), two-space pretty indentation, sorted map output
//! for `HashMap` fields (the shim sorts at serialization time), and
//! floats printed with a trailing `.0` when integral.
//!
//! Both writers are `serde`'s one [`serde::Writer`], compact or pretty:
//! no output builds a [`Value`] tree. Only reading does: [`from_str`]
//! parses into a [`Value`] and rejects nesting deeper than [`MAX_DEPTH`],
//! as real serde_json does, instead of overflowing the stack.
//! [`to_value`] is the parse of [`to_string`]'s text, which re-prints to
//! the same text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub use serde::{Map, Number, Value};

/// Deepest array / object nesting [`from_str`] accepts.
pub const MAX_DEPTH: usize = 128;

/// JSON encode/decode error: a message plus optional position.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error::new(e.to_string())
    }
}

/// Alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// A serializable value as a [`Value`] tree: the parse of its compact
/// text.
pub fn to_value<T: serde::Serialize>(value: &T) -> Result<Value> {
    parse_value(&to_string(value)?)
}

/// Rebuild a deserializable type from a [`Value`] tree.
pub fn from_value<T: serde::Deserialize>(value: &Value) -> Result<T> {
    Ok(T::from_value(value)?)
}

/// Serialize to compact JSON text.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Serialize to pretty JSON text (two-space indent).
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize(&mut serde::Writer::pretty(&mut out));
    Ok(out)
}

/// Parse JSON text into a deserializable type.
///
/// # Errors
///
/// Malformed text, nesting deeper than [`MAX_DEPTH`] (naming the byte
/// offset of the bracket that crossed it), or a value of the wrong shape.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    /// `src` as bytes.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::new(format!(
                "unexpected byte `{}` at {}",
                b as char, self.pos
            ))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    /// Parse one array or object with `f`, one level deeper. The cap keeps
    /// recursion, and so the stack, bounded on hostile input.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value> {
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
                _ => return Err(Error::new(format!("expected `,` or `]` at {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut map = Map::new();
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
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let code = 0x10000
                                        + ((hi - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(code).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(hi).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(Error::new(format!("bad escape at {}", self.pos))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\`. Both are
                    // ASCII, so the run ends on a char boundary of `src`.
                    let start = self.pos;
                    while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::new("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::new("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value> {
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
        // Only ASCII was consumed, so the slice is on char boundaries.
        let text = &self.src[start..self.pos];
        let n = if is_float {
            Number::from_f64(
                text.parse::<f64>()
                    .map_err(|_| Error::new(format!("bad number `{text}`")))?,
            )
        } else if let Ok(u) = text.parse::<u64>() {
            Number::from(u)
        } else if let Ok(i) = text.parse::<i64>() {
            Number::from(i)
        } else {
            Number::from_f64(
                text.parse::<f64>()
                    .map_err(|_| Error::new(format!("bad number `{text}`")))?,
            )
        };
        Ok(Value::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_roundtrip() {
        let src = r#"{"a":[1,2.5,-3],"b":"hi\nthere","c":null,"d":true}"#;
        let v: Value = from_str(src).unwrap();
        let back = to_string(&v).unwrap();
        let v2: Value = from_str(&back).unwrap();
        assert_eq!(v, v2);
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v["b"].as_str().unwrap(), "hi\nthere");
    }

    #[test]
    fn pretty_output_is_indented() {
        let v: Value = from_str(r#"{"x":{"y":[1]}}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"x\""), "{pretty}");
        assert!(pretty.ends_with('}'));
        let v2: Value = from_str(&pretty).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        let s = to_string(&vec![1.0f64, 0.5]).unwrap();
        assert_eq!(s, "[1.0,0.5]");
    }

    #[test]
    fn integer_widths_parse() {
        let v: Value = from_str("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v: Value = from_str("-42").unwrap();
        assert_eq!(v.as_i64(), Some(-42));
        let v: Value = from_str("1e3").unwrap();
        assert_eq!(v.as_f64(), Some(1000.0));
    }

    #[test]
    fn unicode_escapes_parse() {
        let v: Value = from_str(r#""A😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "A\u{1F600}");
    }

    #[test]
    fn errors_on_garbage() {
        assert!(from_str::<Value>("{nope}").is_err());
        assert!(from_str::<Value>("[1,2,").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }
}
