//! Minimal JSON support for machine-readable experiment output.
//!
//! The repro/accubench binaries emit results as JSON and a few data types
//! round-trip through it. This crate provides the whole pipeline without
//! external dependencies: a [`Json`] value model, a writer
//! ([`Json::to_string_pretty`]), a parser ([`Json::from_str`]), the
//! [`ToJson`]/[`FromJson`] traits, and the [`impl_to_json!`] macro that
//! generates field-by-field `ToJson` impls for plain structs.
//!
//! # Examples
//!
//! ```
//! use pv_json::{Json, ToJson};
//!
//! let mut obj = Json::object();
//! obj.insert("mean", 1.5.to_json());
//! obj.insert("label", "bin-0".to_json());
//! let text = obj.to_string_pretty();
//! let back = Json::from_str(&text).unwrap();
//! assert_eq!(back["mean"].as_f64(), Some(1.5));
//! assert_eq!(back["label"].as_str(), Some("bin-0"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;
use core::ops::Index;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`, like JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

/// Error from [`Json::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the parser stopped at.
    pub offset: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

static NULL: Json = Json::Null;

/// Deepest array/object nesting [`Json::from_str`] accepts. The parser
/// recurses once per level, so without a bound a line of ~10⁵ `[` would
/// overflow the stack — an abort no `catch_unwind` can contain. Every
/// persisted type nests a handful of levels; 128 leaves ample headroom.
const MAX_DEPTH: usize = 128;

impl Json {
    /// An empty object.
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// Appends a key/value pair; objects only (no-op otherwise).
    pub fn insert(&mut self, key: impl Into<String>, value: Json) {
        if let Json::Object(entries) = self {
            entries.push((key.into(), value));
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is a number.
    pub fn is_number(&self) -> bool {
        matches!(self, Json::Number(_))
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Compact single-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Human-readable two-space-indented rendering.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_close) = match indent {
            Some(w) => ("\n", " ".repeat(w * (depth + 1)), " ".repeat(w * depth)),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => write_number(out, *n),
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push(']');
            }
            Json::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed input, trailing garbage, or
    /// arrays/objects nested more than 128 levels deep.
    #[allow(clippy::should_implement_trait)] // fallible and non-generic, like serde_json::from_str
    pub fn from_str(text: &str) -> Result<Self, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError {
                offset: pos,
                message: "trailing characters",
            });
        }
        Ok(value)
    }
}

impl Index<&str> for Json {
    type Output = Json;
    /// Object field access; returns `Json::Null` for missing keys or
    /// non-objects (like `serde_json::Value`).
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Json {
    type Output = Json;
    /// Array element access; returns `Json::Null` out of bounds.
    fn index(&self, i: usize) -> &Json {
        match self {
            Json::Array(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        if n == n.trunc() && n.abs() < 1e15 {
            // Integers render without a fractional part.
            let _ = fmt::Write::write_fmt(out, format_args!("{}", n as i64));
        } else {
            let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
        }
    } else {
        // JSON has no NaN/Infinity; emit null like serde_json does.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &'static str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError {
            offset: *pos,
            message: "unexpected token",
        })
    }
}

/// Parses the value at `pos`, which sits `depth` arrays/objects deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(ParseError {
            offset: *pos,
            message: "unexpected end of input",
        });
    };
    if matches!(b, b'[' | b'{') && depth == MAX_DEPTH {
        return Err(ParseError {
            offset: *pos,
            message: "nesting too deep",
        });
    }
    match b {
        b'n' => expect(bytes, pos, "null").map(|()| Json::Null),
        b't' => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        b'f' => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Json::String),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => {
                        return Err(ParseError {
                            offset: *pos,
                            message: "expected ',' or ']'",
                        })
                    }
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(ParseError {
                        offset: *pos,
                        message: "expected ':'",
                    });
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(entries));
                    }
                    _ => {
                        return Err(ParseError {
                            offset: *pos,
                            message: "expected ',' or '}'",
                        })
                    }
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        _ => Err(ParseError {
            offset: *pos,
            message: "unexpected character",
        }),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError {
            offset: *pos,
            message: "expected string",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(ParseError {
                offset: *pos,
                message: "unterminated string",
            });
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(ParseError {
                        offset: *pos,
                        message: "unterminated escape",
                    });
                };
                *pos += 1;
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
                        let hex = bytes.get(*pos..*pos + 4).ok_or(ParseError {
                            offset: *pos,
                            message: "truncated \\u escape",
                        })?;
                        let hex = core::str::from_utf8(hex).map_err(|_| ParseError {
                            offset: *pos,
                            message: "invalid \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError {
                            offset: *pos,
                            message: "invalid \\u escape",
                        })?;
                        *pos += 4;
                        // Surrogate pairs are not needed for our own output;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => {
                        return Err(ParseError {
                            offset: *pos,
                            message: "unknown escape",
                        })
                    }
                }
            }
            _ => {
                // Copy the full UTF-8 sequence starting here.
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(core::str::from_utf8(&bytes[start..*pos]).map_err(|_| {
                    ParseError {
                        offset: start,
                        message: "invalid utf-8",
                    }
                })?);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    core::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Number)
        .ok_or(ParseError {
            offset: start,
            message: "invalid number",
        })
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Renders `self` as JSON.
    fn to_json(&self) -> Json;
}

/// Fallible reconstruction from a [`Json`] value.
pub trait FromJson: Sized {
    /// Rebuilds `Self` from JSON; `None` on shape mismatch.
    fn from_json(value: &Json) -> Option<Self>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Number(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Option<Self> {
        value.as_f64()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Option<Self> {
        value.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Option<Self> {
        value.as_str().map(str::to_owned)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::String(self.to_owned())
    }
}

macro_rules! int_to_json {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Number(*self as f64)
            }
        }
        impl FromJson for $ty {
            fn from_json(value: &Json) -> Option<Self> {
                value.as_f64().map(|n| n as $ty)
            }
        }
    )*};
}

int_to_json!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    /// `null` rebuilds as `None`; anything else must rebuild as `T`.
    fn from_json(value: &Json) -> Option<Self> {
        if value.is_null() {
            Some(None)
        } else {
            T::from_json(value).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Option<Self> {
        value.as_array()?.iter().map(T::from_json).collect()
    }
}

macro_rules! tuple_to_json {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Array(vec![$(self.$idx.to_json()),+])
            }
        }
        impl<$($name: FromJson),+> FromJson for ($($name,)+) {
            fn from_json(value: &Json) -> Option<Self> {
                let items = value.as_array()?;
                let mut it = items.iter();
                let out = ($($name::from_json(it.next()?)?,)+);
                if it.next().is_some() { return None; }
                Some(out)
            }
        }
    )*};
}

tuple_to_json! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

/// Generates a field-by-field [`ToJson`] impl for a plain struct:
///
/// ```
/// struct Point { x: f64, y: f64 }
/// pv_json::impl_to_json!(Point { x, y });
/// # use pv_json::ToJson;
/// let p = Point { x: 1.0, y: 2.0 };
/// assert_eq!(p.to_json()["y"].as_f64(), Some(2.0));
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                let mut obj = $crate::Json::object();
                $(obj.insert(stringify!($field), $crate::ToJson::to_json(&self.$field));)*
                obj
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#;
        let v = Json::from_str(text).unwrap();
        assert_eq!(v["a"][1].as_f64(), Some(2.5));
        assert_eq!(v["a"][2].as_f64(), Some(-300.0));
        assert_eq!(v["b"]["c"].as_str(), Some("x\ny"));
        assert_eq!(v["b"]["d"].as_bool(), Some(true));
        assert!(v["e"].is_null());
        let again = Json::from_str(&v.to_string_pretty()).unwrap();
        assert_eq!(again, v);
        let compact = Json::from_str(&v.to_string_compact()).unwrap();
        assert_eq!(compact, v);
    }

    #[test]
    fn missing_keys_index_to_null() {
        let v = Json::from_str(r#"{"x": 1}"#).unwrap();
        assert!(v["nope"].is_null());
        assert!(v["x"]["deeper"].is_null());
        assert!(v[5].is_null());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "{\"a\" 1}", "1 2", "nul", ""] {
            assert!(Json::from_str(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Exactly MAX_DEPTH levels parse; one more is a typed error at the
        // offending byte. A 10⁶-deep line fails the same way instead of
        // overflowing the stack.
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::from_str(&nested(MAX_DEPTH)).is_ok());
        let err = Json::from_str(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        for deep in ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
            let err = Json::from_str(&deep).unwrap_err();
            assert_eq!(err.message, "nesting too deep");
        }
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::String("a\"b\\c\u{1}".to_owned());
        let s = v.to_string_compact();
        assert_eq!(s, "\"a\\\"b\\\\c\\u0001\"");
        assert_eq!(Json::from_str(&s).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Number(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Number(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Number(3.0).to_string_compact(), "3");
        assert_eq!(Json::Number(3.25).to_string_compact(), "3.25");
    }

    #[test]
    fn struct_macro_and_collections() {
        struct Row {
            label: String,
            values: Vec<f64>,
            flag: Option<bool>,
        }
        impl_to_json!(Row {
            label,
            values,
            flag
        });
        let r = Row {
            label: "x".into(),
            values: vec![1.0, 2.0],
            flag: None,
        };
        let j = r.to_json();
        assert_eq!(j["label"].as_str(), Some("x"));
        assert_eq!(j["values"].as_array().unwrap().len(), 2);
        assert!(j["flag"].is_null());
    }

    #[test]
    fn options_round_trip() {
        let some: Option<f64> = FromJson::from_json(&Json::Number(2.5)).unwrap();
        assert_eq!(some, Some(2.5));
        let none: Option<f64> = FromJson::from_json(&Json::Null).unwrap();
        assert_eq!(none, None);
        let bad: Option<Option<f64>> = FromJson::from_json(&Json::Bool(true));
        assert!(bad.is_none());
    }

    #[test]
    fn tuples_round_trip() {
        let t = (1.0, "two".to_owned(), 3u32);
        let j = t.to_json();
        let back: (f64, String, u32) = FromJson::from_json(&j).unwrap();
        assert_eq!(back, t);
    }
}
