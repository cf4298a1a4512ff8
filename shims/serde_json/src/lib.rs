//! Offline stand-in for `serde_json`.
//!
//! Renders the shim serde's [`Value`] trees to JSON text (compact and
//! pretty, matching upstream `serde_json`'s formatting) and parses JSON
//! text back. Floats round-trip exactly: the writer uses Rust's
//! shortest-representation `Display` and the parser uses the correctly
//! rounded `str::parse::<f64>`.

#![forbid(unsafe_code)]

pub use serde::value::{Error, Number, Value};
use serde::{Deserialize, Serialize};

/// Converts any serialisable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Reconstructs a `T` from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Serialises to compact JSON (`{"a":1}`).
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(&value.to_value(), &mut out)?;
    Ok(out)
}

/// Serialises to human-readable JSON (2-space indent, `"key": value`).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&value.to_value(), &mut out, 0)?;
    Ok(out)
}

/// Serialises to compact JSON bytes.
pub fn to_vec<T: Serialize>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Parses a `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v)
}

/// Parses a `T` from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn write_number(n: &Number, out: &mut String) -> Result<(), Error> {
    use std::fmt::Write;
    match n {
        Number::U64(v) => write!(out, "{v}").unwrap(),
        Number::I64(v) => write!(out, "{v}").unwrap(),
        Number::F64(v) => {
            if !v.is_finite() {
                return Err(Error::new("JSON cannot represent non-finite floats"));
            }
            // Match upstream serde_json (ryu): floats always carry a
            // fractional part or exponent, so "-0.0" and "2.0" survive
            // the round-trip as floats (and keep their sign bit).
            let start = out.len();
            write!(out, "{v}").unwrap();
            if !out[start..].contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
    }
    Ok(())
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_compact(v: &Value, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(n, out)?,
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out)?;
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_compact(item, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_pretty(v: &Value, out: &mut String, level: usize) -> Result<(), Error> {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                indent(out, level + 1);
                write_pretty(item, out, level + 1)?;
            }
            out.push('\n');
            indent(out, level);
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                indent(out, level + 1);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(item, out, level + 1)?;
            }
            out.push('\n');
            indent(out, level);
            out.push('}');
        }
        other => write_compact(other, out)?,
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(Error::new(format!("unexpected input at byte {}", self.pos))),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::new(format!("invalid UTF-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
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
                            let code = self.parse_hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if !(self.eat_keyword("\\u")) {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                let low = self.parse_hex4()?;
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::new("invalid surrogate pair"))?
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Some(rest) = text.strip_prefix('-') {
                if rest.parse::<u64>().is_ok() {
                    if let Ok(v) = text.parse::<i64>() {
                        return Ok(Value::Number(Number::I64(v)));
                    }
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U64(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Value::Number(Number::F64(v)))
            .map_err(|_| Error::new(format!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-3i32).unwrap(), "-3");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&"hi\n\"there\"").unwrap(), r#""hi\n\"there\"""#);
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<String>(r#""aAb""#).unwrap(), "aAb");
    }

    #[test]
    fn f64_exact_roundtrip() {
        for v in [
            0.1,
            1.0 / 3.0,
            1e-300,
            #[allow(clippy::excessive_precision)] // deliberately more digits than f64 holds
            123456789.123456789,
            -0.0,
            2.0f64.powi(60),
        ] {
            let s = to_string(&v).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} via {s}");
        }
    }

    #[test]
    fn integral_float_keeps_float_form() {
        let s = to_string(&2.0f64).unwrap();
        assert_eq!(s, "2.0");
        assert_eq!(from_str::<f64>(&s).unwrap(), 2.0);
        // ...and integers can still feed float fields.
        assert_eq!(from_str::<f64>("2").unwrap(), 2.0);
    }

    #[test]
    fn collections_roundtrip() {
        let v = vec![1u32, 2, 3];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&s).unwrap(), v);

        let mut m = std::collections::BTreeMap::new();
        m.insert(3u32, 0.5f64);
        m.insert(7u32, 1.5f64);
        let s = to_string(&m).unwrap();
        assert_eq!(s, r#"{"3":0.5,"7":1.5}"#);
        let back: std::collections::BTreeMap<u32, f64> = from_str(&s).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn value_indexing() {
        let v: Value = from_str(r#"{"a": [1, 2], "b": {"c": "x"}}"#).unwrap();
        assert_eq!(v["a"][1].as_u64(), Some(2));
        assert_eq!(v["b"]["c"].as_str(), Some("x"));
        assert!(v["missing"].is_null());
    }

    #[test]
    fn pretty_format_matches_upstream_shape() {
        let v: Value = from_str(r#"{"n_nodes": 40, "xs": [1], "empty": {}}"#).unwrap();
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\"n_nodes\": 40"), "{s}");
        assert!(s.contains("\"empty\": {}"), "{s}");
        assert!(s.starts_with("{\n  "), "{s}");
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_slice::<Value>(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn tuples_and_options() {
        let s = to_string(&(4.0f64, 9.0f64)).unwrap();
        assert_eq!(s, "[4.0,9.0]");
        assert_eq!(from_str::<(f64, f64)>(&s).unwrap(), (4.0, 9.0));
        assert_eq!(to_string(&Option::<u32>::None).unwrap(), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("5").unwrap(), Some(5));
    }
}
