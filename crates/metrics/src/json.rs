//! A minimal, dependency-free JSON value type, parser, and writer.
//!
//! The tool chain exchanges small JSON documents at its edges — Lariat
//! job summaries, XDMoD datasets over HTTP, legacy job-table exports.
//! Those paths need a *real* JSON implementation that works the same in
//! every build environment, and the documents are tiny, so this module
//! trades completeness for zero dependencies:
//!
//! - numbers are `f64` (integers up to 2^53 survive exactly, which
//!   covers every id and counter we serialise);
//! - object keys keep insertion order (no sorting, no dedup);
//! - non-finite numbers serialise as `null`, as in browsers.
//!
//! Ergonomics mirror the common serde_json idioms: `v["rows"][0][1]`
//! indexing (returning `Null` for absent paths) and direct comparison
//! with literals (`v["jobs"] == 3`).

use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

/// Nesting depth cap: parsing is recursive, and corrupt or adversarial
/// input must not overflow the stack.
const MAX_DEPTH: u32 = 128;

impl Value {
    /// Parse a JSON document. `None` on any syntax error, trailing
    /// garbage included.
    pub fn parse(s: &str) -> Option<Value> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && n.abs() <= 9.007_199_254_740_992e15 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<i32> for Value {
    fn eq(&self, other: &i32) -> bool {
        self.as_f64() == Some(*other as f64)
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Num(v as f64)
            }
        }
    )*};
}
from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

/// Build an object value from `(key, value)` pairs, preserving order.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

// --- writer ---------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        // Rust's f64 Display is the shortest round-trip representation.
        out.push_str(&format!("{n}"));
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl Value {
    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write_num(out, *n),
            Value::Str(s) => write_escaped(out, s),
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
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

// --- parser ---------------------------------------------------------------

fn skip_ws(b: &[u8], pos: &mut usize) {
    while let Some(&c) = b.get(*pos) {
        if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &[u8]) -> Option<()> {
    if b.get(*pos..*pos + lit.len())? == lit {
        *pos += lit.len();
        Some(())
    } else {
        None
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: u32) -> Option<Value> {
    if depth > MAX_DEPTH {
        return None;
    }
    match *b.get(*pos)? {
        b'n' => {
            expect(b, pos, b"null")?;
            Some(Value::Null)
        }
        b't' => {
            expect(b, pos, b"true")?;
            Some(Value::Bool(true))
        }
        b'f' => {
            expect(b, pos, b"false")?;
            Some(Value::Bool(false))
        }
        b'"' => parse_string(b, pos).map(Value::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Value::Array(items));
            }
            loop {
                skip_ws(b, pos);
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Value::Array(items));
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Value::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if *b.get(*pos)? != b':' {
                    return None;
                }
                *pos += 1;
                skip_ws(b, pos);
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Value::Object(fields));
                    }
                    _ => return None,
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => None,
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if *b.get(*pos)? != b'"' {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{08}'),
                    b'f' => out.push('\u{0C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hi = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low half.
                            if b.get(*pos + 1..*pos + 3)? != b"\\u" {
                                return None;
                            }
                            let lo = parse_hex4(b, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return None;
                            }
                            *pos += 6;
                            char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))?
                        } else {
                            char::from_u32(hi)?
                        };
                        out.push(c);
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            c if c < 0x20 => return None,
            _ => {
                // Copy one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let start = *pos;
                *pos += 1;
                while b.get(*pos).is_some_and(|&c| c & 0xC0 == 0x80) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).ok()?);
            }
        }
    }
}

fn parse_hex4(b: &[u8], at: usize) -> Option<u32> {
    let s = std::str::from_utf8(b.get(at..at + 4)?).ok()?;
    u32::from_str_radix(s, 16).ok()
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Value> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while b.get(*pos).is_some_and(|c| c.is_ascii_digit()) {
        *pos += 1;
    }
    if *pos == digits_start {
        return None;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while b.get(*pos).is_some_and(|c| c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == frac_start {
            return None;
        }
    }
    if matches!(b.get(*pos), Some(&b'e') | Some(&b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(&b'+') | Some(&b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while b.get(*pos).is_some_and(|c| c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == exp_start {
            return None;
        }
    }
    std::str::from_utf8(&b[start..*pos]).ok()?.parse().ok().map(Value::Num)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null"), Some(Value::Null));
        assert_eq!(Value::parse("true"), Some(Value::Bool(true)));
        assert_eq!(Value::parse("false"), Some(Value::Bool(false)));
        assert_eq!(Value::parse("42"), Some(Value::Num(42.0)));
        assert_eq!(Value::parse("-3.5e2"), Some(Value::Num(-350.0)));
        assert_eq!(Value::parse("\"hi\""), Some(Value::Str("hi".into())));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"rows":[["NAMD",320.5],["AMBER",50]],"n":2}"#).unwrap();
        assert_eq!(v["rows"][0][0], "NAMD");
        assert_eq!(v["rows"][0][1], 320.5);
        assert_eq!(v["rows"][1][1], 50.0);
        assert_eq!(v["n"], 2u64);
        assert!(v["missing"].is_null());
        assert!(v["rows"][9][9].is_null());
    }

    #[test]
    fn round_trips_through_display() {
        let cases = [
            r#"{"a":1,"b":[true,null,"x"],"c":{"d":-2.5}}"#,
            r#"[]"#,
            r#"{}"#,
            r#""escaped \"quote\" and \\ backslash""#,
            r#"{"unicode":"héllo ✓"}"#,
        ];
        for s in cases {
            let v = Value::parse(s).unwrap();
            let printed = v.to_string();
            assert_eq!(Value::parse(&printed), Some(v), "{s}");
        }
    }

    #[test]
    fn string_escapes_decode() {
        let v = Value::parse(r#""a\nb\tc\u0041\u00e9""#).unwrap();
        assert_eq!(v, "a\nb\tcAé");
        let v = Value::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, "😀");
        // Control characters re-escape on output.
        let v = Value::Str("a\u{01}b".into());
        assert_eq!(v.to_string(), r#""a\u0001b""#);
    }

    #[test]
    fn rejects_malformed_documents() {
        for s in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "tru",
            "01x",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
            "[1]extra",
            "\"\\u12\"",
            "\"\\ud800\"",
            "--1",
            "1.",
            ".5",
            "1e",
        ] {
            assert_eq!(Value::parse(s), None, "{s:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let s = "[".repeat(100_000) + &"]".repeat(100_000);
        assert_eq!(Value::parse(&s), None);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Value::Num(3.0).to_string(), "3");
        assert_eq!(Value::Num(3.25).to_string(), "3.25");
        assert_eq!(Value::Num(-0.5).to_string(), "-0.5");
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(1e16).to_string(), "10000000000000000");
    }

    #[test]
    fn large_u64_survive_exactly_up_to_2_53() {
        let v = Value::parse("9007199254740992").unwrap();
        assert_eq!(v.as_u64(), Some(9007199254740992));
    }

    #[test]
    fn obj_builder_preserves_order() {
        let v = obj([("b", 1.into()), ("a", "x".into()), ("c", Value::Null)]);
        assert_eq!(v.to_string(), r#"{"b":1,"a":"x","c":null}"#);
        assert_eq!(v["b"], 1u64);
    }
}
