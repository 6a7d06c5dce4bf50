//! Minimal JSON support: an escaping writer used by the exporters, and a
//! small recursive-descent parser used by the validators (`probe-check`
//! and the golden-file tests). The workspace builds offline, so this
//! replaces what `serde_json` would otherwise provide; it covers exactly
//! the subset the probe emits (objects, arrays, strings, f64/u64 numbers,
//! booleans, null).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Append `s` to `out` as a JSON string literal (with escaping).
pub fn write_str(out: &mut String, s: &str) {
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

/// Append an `f64` in a JSON-legal form (`NaN`/`inf` become `null`).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Trim integral floats to keep snapshots compact and stable.
        if v == v.trunc() && v.abs() < 1e15 {
            let _ = write!(out, "{}", v as i64);
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        out.push_str("null");
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; the probe only emits integers that fit).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (keys sorted by `BTreeMap`; duplicate keys keep the last).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Object field lookup (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Serialize back to compact JSON. Object keys come out in `BTreeMap`
    /// order, so `parse(doc).to_json()` is a canonical form: two
    /// documents with the same content but different key order or
    /// whitespace serialize identically (the run-record round-trip test
    /// relies on this).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_f64(out, *n),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// deepest JSON file in the repository nests 9 levels; the parser
/// recurses once per level, so the limit keeps hostile input from
/// exhausting the stack.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed input,
/// nesting deeper than [`MAX_DEPTH`], or trailing garbage.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>().map(Value::Num).map_err(|e| format!("bad number at {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogate pairs are not emitted by the probe;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the maximal run of unescaped bytes in one
                    // slice. '"' and '\\' are ASCII, so they can never
                    // match a continuation byte of a multi-byte scalar —
                    // the run always ends on a scalar boundary, and
                    // re-validating only the run keeps parsing linear.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
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
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes() {
        let mut s = String::new();
        write_str(&mut s, "a\"b\\c\nd");
        assert_eq!(s, r#""a\"b\\c\nd""#);
    }

    #[test]
    fn writer_numbers() {
        let mut s = String::new();
        write_f64(&mut s, 3.0);
        s.push(' ');
        write_f64(&mut s, 0.5);
        s.push(' ');
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "3 0.5 null");
    }

    #[test]
    fn parse_round_trip() {
        let doc = r#"{"a": [1, 2.5, "x\n"], "b": {"c": true, "d": null}, "e": -3}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("e").unwrap().as_f64(), Some(-3.0));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(50_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"));
        let obj = "{\"a\":".repeat(50_000);
        assert!(parse(&obj).unwrap_err().starts_with("nesting deeper than"));
        // Exactly the limit still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("[{ok}]");
        assert!(parse(&over).is_err());
    }

    #[test]
    fn to_json_is_canonical() {
        let a = r#"{"b": 2, "a": [1, null, "x"], "c": {"z": true}}"#;
        let b = "{\"c\":{\"z\":true},\n \"a\":[1,null,\"x\"],\"b\":2}";
        let ca = parse(a).unwrap().to_json();
        let cb = parse(b).unwrap().to_json();
        assert_eq!(ca, cb);
        assert_eq!(ca, r#"{"a":[1,null,"x"],"b":2,"c":{"z":true}}"#);
        // Round trip is a fixed point.
        assert_eq!(parse(&ca).unwrap().to_json(), ca);
    }

    #[test]
    fn parse_escaped_and_unicode() {
        let v = parse(r#""A\t\\""#).unwrap();
        assert_eq!(v.as_str(), Some("A\t\\"));
        let v = parse("\"caché\"").unwrap();
        assert_eq!(v.as_str(), Some("caché"));
    }
}
