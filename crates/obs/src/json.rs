//! A minimal JSON layer: string escaping for the renderers and a small
//! recursive-descent parser for the snapshot round-trip.
//!
//! The workspace has no crates.io access (no serde), and the observability
//! layer only needs the subset of JSON it emits itself: objects, arrays,
//! strings, and unsigned/signed integers.  The parser accepts standard JSON
//! (including `\uXXXX` escapes, arbitrary whitespace and, for the
//! checked-in bench files, fractional numbers) and rejects everything else
//! with a positioned error string.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value (the subset the observability formats use).
#[derive(Clone, PartialEq, Debug)]
pub enum JsonValue {
    /// A JSON object; key order is normalised (sorted) by the map.
    Object(BTreeMap<String, JsonValue>),
    /// A JSON array.
    Array(Vec<JsonValue>),
    /// A JSON string.
    String(String),
    /// An integral JSON number (the only kind the observability formats
    /// emit).
    Number(i128),
    /// A JSON number with a fraction or an exponent.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// The object map, when this value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The array elements, when this value is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, when this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `u64`, when this value is a non-negative integer in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }
}

/// Appends `value` to `out` as a quoted JSON string with all mandatory
/// escapes (`"` `\` and control characters).
pub fn escape_into(out: &mut String, value: &str) {
    out.push('"');
    for ch in value.chars() {
        match ch {
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

/// Parses one complete JSON document; trailing non-whitespace is an error.
///
/// # Errors
/// A human-readable message naming the byte offset of the first problem.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let bad = || format!("bad number at offset {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(bad());
        }
        let integral = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| bad())?;
        if self.pos == integral {
            text.parse::<i128>()
                .map(JsonValue::Number)
                .map_err(|_| bad())
        } else {
            text.parse::<f64>().map(JsonValue::Float).map_err(|_| bad())
        }
    }

    /// Consumes a run of decimal digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at offset {start}"))?;
                out.push_str(chunk);
            }
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("truncated \\u at offset {}", self.pos))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| format!("bad \\u at offset {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u at offset {}", self.pos))?;
                            // Surrogates never appear in the emitted formats;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err(format!("unterminated string at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrips_through_parse() {
        for raw in [
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "tab\tnl\n",
            "ünïcode",
        ] {
            let mut doc = String::new();
            escape_into(&mut doc, raw);
            assert_eq!(parse(&doc).unwrap(), JsonValue::String(raw.to_string()));
        }
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#" {"a": [1, 2, {"b": "c"}], "n": -5, "t": true, "z": null} "#;
        let value = parse(doc).unwrap();
        let map = value.as_object().unwrap();
        assert_eq!(map["n"], JsonValue::Number(-5));
        assert_eq!(map["a"].as_array().unwrap().len(), 3);
        assert_eq!(map["t"], JsonValue::Bool(true));
        assert_eq!(map["z"], JsonValue::Null);
    }

    #[test]
    fn parses_fractional_numbers() {
        let value = parse(r#"[1.5, -0.25, 2e3, 7E-1, 12]"#).unwrap();
        let items = value.as_array().unwrap();
        assert_eq!(items[0], JsonValue::Float(1.5));
        assert_eq!(items[1], JsonValue::Float(-0.25));
        assert_eq!(items[2], JsonValue::Float(2000.0));
        assert_eq!(items[3], JsonValue::Float(0.7));
        assert_eq!(items[4], JsonValue::Number(12));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "\"open",
            "12x",
            "{\"a\"}",
            "{} trailing",
            "1.",
            ".5",
            "-",
            "1e",
            "1.e5",
        ] {
            assert!(parse(bad).is_err(), "{bad} should not parse");
        }
    }
}
