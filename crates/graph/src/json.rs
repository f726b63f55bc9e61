//! Dependency-free JSON for the whole workspace.
//!
//! The build environment has no crates.io access, so the workspace carries
//! its own JSON layer instead of `serde`/`serde_json`. This module is the
//! single implementation shared by the graph wire formats here, the `tgp`
//! CLI and the `tgp-service` HTTP server:
//!
//! * [`Value`] — a JSON document (objects preserve key order),
//! * [`Value::parse`] — a recursive-descent parser with a hard recursion
//!   depth limit, suitable for untrusted input (it returns errors, never
//!   panics),
//! * [`Value::pretty`] / `Display` — pretty and compact writers,
//! * [`json!`](macro@crate::json) — literal construction macro (nested literals are written
//!   as nested `json!` calls),
//! * [`ToJson`] / [`FromJson`] — conversions for the graph types, always
//!   funnelled through the validating constructors so a decoded graph
//!   upholds every structural invariant.
//!
//! # Wire formats
//!
//! The shapes match what the previous `serde` derives produced, so
//! documents written by earlier versions still parse:
//!
//! ```text
//! PathGraph     {"node_weights": [u64…], "edge_weights": [u64…]}
//! Tree          {"node_weights": [u64…], "edges": [{"a": i, "b": j, "weight": w}…]}
//! ProcessGraph  {"node_weights": [u64…], "edges": [{"a": i, "b": j, "weight": w}…]}
//! CutSet        {"edges": [usize…]}
//! Segment       {"start": i, "end": j, "weight": w}
//! ```

use std::fmt;

use crate::{
    CutSet, EdgeId, NodeId, PathGraph, ProcessEdge, ProcessGraph, Segment, Tree, TreeEdge, Weight,
};

/// Maximum nesting depth [`Value::parse`] accepts. Deeper documents are
/// rejected with an error instead of risking stack exhaustion on
/// untrusted input.
pub const MAX_DEPTH: usize = 128;

/// A JSON number: unsigned, signed or floating point.
///
/// Integers keep full `u64`/`i64` fidelity (weights span the whole `u64`
/// range); floats compare only with floats, mirroring `serde_json`.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A float (any number written with a fraction or exponent).
    Float(f64),
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Number::UInt(a), Number::UInt(b)) => a == b,
            (Number::Int(a), Number::Int(b)) => a == b,
            (Number::UInt(a), Number::Int(b)) | (Number::Int(b), Number::UInt(a)) => {
                b >= 0 && a == b as u64
            }
            (Number::Float(a), Number::Float(b)) => a == b,
            _ => false,
        }
    }
}

/// A JSON document.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is preserved and duplicate keys keep the last
    /// occurrence (lookup scans from the back).
    Object(Vec<(String, Value)>),
}

/// A parse or decode failure, with a byte offset when it came from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input, if the error arose while parsing text.
    pub offset: Option<usize>,
    /// Human-readable description.
    pub message: String,
    /// `true` when parsing was stopped by the caller's check callback
    /// ([`Value::parse_with_check`]) rather than by malformed input.
    pub interrupted: bool,
}

impl JsonError {
    /// A decode error not tied to a text position.
    pub fn msg(message: impl Into<String>) -> Self {
        JsonError {
            offset: None,
            message: message.into(),
            interrupted: false,
        }
    }

    fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset: Some(offset),
            message: message.into(),
            interrupted: false,
        }
    }

    fn interrupted_at(offset: usize) -> Self {
        JsonError {
            offset: Some(offset),
            message: "parsing interrupted".to_string(),
            interrupted: true,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} at byte {o}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed input, trailing garbage, or
    /// nesting deeper than [`MAX_DEPTH`]. Never panics, whatever the
    /// input.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        Self::parse_inner(text, None)
    }

    /// Parses a JSON document cooperatively: `check` is polled every
    /// [`CHECK_STRIDE`] values and parsing aborts (with an error whose
    /// `interrupted` flag is set) as soon as it returns `true`. Lets a
    /// server stop burning CPU on a multi-megabyte body whose deadline
    /// has already expired; the callback is cheap enough that a parse of
    /// millions of scalars polls it only a few hundred times.
    ///
    /// # Errors
    ///
    /// As [`Value::parse`], plus the interruption case above.
    pub fn parse_with_check(
        text: &str,
        check: &mut dyn FnMut() -> bool,
    ) -> Result<Value, JsonError> {
        Self::parse_inner(text, Some(check))
    }

    fn parse_inner(
        text: &str,
        check: Option<&mut dyn FnMut() -> bool>,
    ) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            check,
            countdown: CHECK_STRIDE,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(
                p.pos,
                "trailing characters after JSON value".to_string(),
            ));
        }
        Ok(v)
    }

    /// The value under `key`, if this is an object containing it.
    /// Duplicate keys resolve to the last occurrence.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `true` if the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::UInt(u)) => Some(*u),
            Value::Number(Number::Int(i)) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::UInt(u)) => i64::try_from(*u).ok(),
            Value::Number(Number::Int(i)) => Some(*i),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::UInt(u)) => Some(*u as f64),
            Value::Number(Number::Int(i)) => Some(*i as f64),
            Value::Number(Number::Float(f)) => Some(*f),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            Value::Object(entries) if !entries.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in entries.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < entries.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
            other => {
                use fmt::Write;
                let _ = write!(out, "{other}");
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    /// Compact (no whitespace) JSON encoding.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(Number::UInt(u)) => write!(f, "{u}"),
            Value::Number(Number::Int(i)) => write!(f, "{i}"),
            Value::Number(Number::Float(x)) => {
                if x.is_finite() {
                    // Keep floats recognizable as floats on the wire.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    // JSON has no Inf/NaN; encode as null like serde_json.
                    f.write_str("null")
                }
            }
            Value::String(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::with_capacity(k.len() + 2);
                    write_escaped(&mut buf, k);
                    f.write_str(&buf)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// `value["key"]` — returns [`Value::Null`] for missing keys or
/// non-objects, mirroring `serde_json`.
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

/// `value[i]` — returns [`Value::Null`] out of bounds or for non-arrays.
impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, index: usize) -> &Value {
        const NULL: Value = Value::Null;
        match self {
            Value::Array(items) => items.get(index).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(*self)
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

macro_rules! impl_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::UInt(v as u64))
            }
        }
    )*};
}

impl_from_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                if v >= 0 {
                    Value::Number(Number::UInt(v as u64))
                } else {
                    Value::Number(Number::Int(v as i64))
                }
            }
        }
    )*};
}

impl_from_int!(i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::Float(v))
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(Number::Float(v as f64))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<&String> for Value {
    fn from(v: &String) -> Value {
        Value::String(v.clone())
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Builds a [`Value`] from a literal.
///
/// Supports `json!(null)`, `json!(expr)`, `json!([a, b, …])` and
/// `json!({ "key": value, … })` where every element/value is an
/// expression convertible via `Into<Value>`. Nested array/object
/// *literals* are written as nested `json!` calls:
/// `json!({"inner": json!([1, 2])})`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::json::Value::Array(vec![ $( $crate::json::Value::from($elem) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::json::Value::Object(vec![
            $( (($key).to_string(), $crate::json::Value::from($val)) ),*
        ])
    };
    ($other:expr) => { $crate::json::Value::from($other) };
}

/// Values parsed between two polls of a [`Value::parse_with_check`]
/// callback. Small enough that an expired deadline stops a huge parse
/// within microseconds, large enough that the callback (typically an
/// `Instant::now()` comparison) stays invisible in profiles.
pub const CHECK_STRIDE: u32 = 4096;

struct Parser<'a, 'c> {
    bytes: &'a [u8],
    pos: usize,
    /// Cooperative interruption callback, polled every [`CHECK_STRIDE`]
    /// values; `None` parses straight through.
    check: Option<&'c mut dyn FnMut() -> bool>,
    countdown: u32,
}

impl<'a, 'c> Parser<'a, 'c> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at(
                self.pos,
                format!("nesting deeper than {MAX_DEPTH}"),
            ));
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = CHECK_STRIDE;
            if let Some(check) = self.check.as_mut() {
                if check() {
                    return Err(JsonError::interrupted_at(self.pos));
                }
            }
        }
        match self.peek() {
            None => Err(JsonError::at(self.pos, "unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::at(
                self.pos,
                format!("unexpected character {:?}", other as char),
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::at(self.pos, format!("expected {word:?}")))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(JsonError::at(self.pos, "invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::at(
                        self.pos,
                        "unescaped control character in string",
                    ));
                }
                Some(_) => {
                    // Copy one UTF-8 character (input is a &str, so
                    // boundaries are trustworthy).
                    let rest = &self.bytes[self.pos..];
                    let len = utf8_len(rest[0]);
                    let chunk = rest
                        .get(..len)
                        .ok_or_else(|| JsonError::at(self.pos, "truncated UTF-8 sequence"))?;
                    out.push_str(
                        std::str::from_utf8(chunk)
                            .map_err(|_| JsonError::at(self.pos, "invalid UTF-8 in string"))?,
                    );
                    self.pos += len;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (cursor already past the `u`),
    /// combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let c = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(c)
                        .ok_or_else(|| JsonError::at(self.pos, "invalid surrogate pair"));
                }
            }
            return Err(JsonError::at(self.pos, "unpaired surrogate in \\u escape"));
        }
        char::from_u32(first).ok_or_else(|| JsonError::at(self.pos, "invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| JsonError::at(self.pos, "truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| JsonError::at(self.pos, "invalid hex digit in \\u escape"))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part (JSON forbids leading zeros like "01").
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(JsonError::at(self.pos, "invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::at(
                    self.pos,
                    "expected digit after decimal point",
                ));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::at(self.pos, "expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Value::Number(if i >= 0 {
                        Number::UInt(i as u64)
                    } else {
                        Number::Int(i)
                    }));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::UInt(u)));
            }
            // Integer out of 64-bit range: fall through to float.
        }
        let f: f64 = text
            .parse()
            .map_err(|_| JsonError::at(start, "number out of range"))?;
        if f.is_finite() {
            Ok(Value::Number(Number::Float(f)))
        } else {
            Err(JsonError::at(start, "number out of range"))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Types with a canonical JSON encoding.
pub trait ToJson {
    /// Encodes `self` as a [`Value`].
    fn to_json(&self) -> Value;
}

/// Types decodable from JSON through their validating constructors.
pub trait FromJson: Sized {
    /// Decodes from a [`Value`], re-validating every structural
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first shape or invariant
    /// violation.
    fn from_json(value: &Value) -> Result<Self, JsonError>;
}

fn field<'v>(value: &'v Value, key: &str, ty: &str) -> Result<&'v Value, JsonError> {
    if value.as_object().is_none() {
        return Err(JsonError::msg(format!("expected a JSON object for {ty}")));
    }
    value
        .get(key)
        .ok_or_else(|| JsonError::msg(format!("{ty}: missing field {key:?}")))
}

/// The array under `key` in a graph object named `ty` in messages
/// (`"PathGraph"`, `"Tree"`, ...). This and the next two helpers are
/// the graph parsers' field checks, shared with the registry's parser
/// so that both word their errors alike.
pub fn array_field<'v>(value: &'v Value, key: &str, ty: &str) -> Result<&'v [Value], JsonError> {
    field(value, key, ty)?
        .as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| JsonError::msg(format!("{ty}: {key:?} must be an array")))
}

/// Element `i` of the weight array `key` in a graph object named `ty`.
pub fn weight_item(item: &Value, key: &str, ty: &str, i: usize) -> Result<u64, JsonError> {
    item.as_u64()
        .ok_or_else(|| JsonError::msg(format!("{ty}: {key:?}[{i}] must be a non-negative integer")))
}

/// An edge object's `a`, `b` and `weight`, each checked in that order.
pub fn edge_fields(value: &Value) -> Result<(NodeId, NodeId, Weight), JsonError> {
    Ok((
        NodeId::from_json(field(value, "a", "edge")?)?,
        NodeId::from_json(field(value, "b", "edge")?)?,
        Weight::from_json(field(value, "weight", "edge")?)?,
    ))
}

fn weight_vec(value: &Value, key: &str, ty: &str) -> Result<Vec<Weight>, JsonError> {
    array_field(value, key, ty)?
        .iter()
        .enumerate()
        .map(|(i, v)| weight_item(v, key, ty, i).map(Weight::new))
        .collect()
}

impl ToJson for Weight {
    fn to_json(&self) -> Value {
        Value::from(self.get())
    }
}

impl FromJson for Weight {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_u64()
            .map(Weight::new)
            .ok_or_else(|| JsonError::msg("weight must be a non-negative integer"))
    }
}

impl ToJson for NodeId {
    fn to_json(&self) -> Value {
        Value::from(self.index())
    }
}

impl FromJson for NodeId {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let raw = value
            .as_u64()
            .ok_or_else(|| JsonError::msg("node id must be a non-negative integer"))?;
        usize::try_from(raw)
            .map(NodeId::new)
            .map_err(|_| JsonError::msg("node id out of range"))
    }
}

impl ToJson for EdgeId {
    fn to_json(&self) -> Value {
        Value::from(self.index())
    }
}

impl FromJson for EdgeId {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let raw = value
            .as_u64()
            .ok_or_else(|| JsonError::msg("edge id must be a non-negative integer"))?;
        usize::try_from(raw)
            .map(EdgeId::new)
            .map_err(|_| JsonError::msg("edge id out of range"))
    }
}

impl ToJson for PathGraph {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "node_weights".to_string(),
                Value::Array(self.node_weights().iter().map(|w| w.to_json()).collect()),
            ),
            (
                "edge_weights".to_string(),
                Value::Array(self.edge_weights().iter().map(|w| w.to_json()).collect()),
            ),
        ])
    }
}

impl FromJson for PathGraph {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let nodes = weight_vec(value, "node_weights", "PathGraph")?;
        let edges = weight_vec(value, "edge_weights", "PathGraph")?;
        PathGraph::from_weights(nodes, edges).map_err(|e| JsonError::msg(format!("PathGraph: {e}")))
    }
}

impl ToJson for TreeEdge {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("a".to_string(), self.a.to_json()),
            ("b".to_string(), self.b.to_json()),
            ("weight".to_string(), self.weight.to_json()),
        ])
    }
}

impl FromJson for TreeEdge {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let (a, b, weight) = edge_fields(value)?;
        Ok(TreeEdge::new(a, b, weight))
    }
}

fn edge_list<T: FromJson>(value: &Value, ty: &str) -> Result<Vec<T>, JsonError> {
    array_field(value, "edges", ty)?
        .iter()
        .map(T::from_json)
        .collect()
}

impl ToJson for Tree {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "node_weights".to_string(),
                Value::Array(self.node_weights().iter().map(|w| w.to_json()).collect()),
            ),
            (
                "edges".to_string(),
                Value::Array(self.edges().iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }
}

impl FromJson for Tree {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let nodes = weight_vec(value, "node_weights", "Tree")?;
        let edges = edge_list::<TreeEdge>(value, "Tree")?;
        Tree::from_edges(nodes, edges).map_err(|e| JsonError::msg(format!("Tree: {e}")))
    }
}

impl ToJson for ProcessEdge {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("a".to_string(), self.a.to_json()),
            ("b".to_string(), self.b.to_json()),
            ("weight".to_string(), self.weight.to_json()),
        ])
    }
}

impl FromJson for ProcessEdge {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let (a, b, weight) = edge_fields(value)?;
        Ok(ProcessEdge { a, b, weight })
    }
}

impl ToJson for ProcessGraph {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "node_weights".to_string(),
                Value::Array(self.node_weights().iter().map(|w| w.to_json()).collect()),
            ),
            (
                "edges".to_string(),
                Value::Array(self.edges().iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }
}

impl FromJson for ProcessGraph {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let nodes = weight_vec(value, "node_weights", "ProcessGraph")?;
        let edges = edge_list::<ProcessEdge>(value, "ProcessGraph")?;
        ProcessGraph::from_edges(nodes, edges)
            .map_err(|e| JsonError::msg(format!("ProcessGraph: {e}")))
    }
}

impl ToJson for CutSet {
    fn to_json(&self) -> Value {
        Value::Object(vec![(
            "edges".to_string(),
            Value::Array(self.iter().map(|e| e.to_json()).collect()),
        )])
    }
}

impl FromJson for CutSet {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(CutSet::new(edge_list::<EdgeId>(value, "CutSet")?))
    }
}

impl ToJson for Segment {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("start".to_string(), Value::from(self.start)),
            ("end".to_string(), Value::from(self.end)),
            ("weight".to_string(), self.weight.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse(" false ").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Value::parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(Value::parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(Value::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(
            Value::parse(&u64::MAX.to_string()).unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            Value::parse("\"hi\\n\\u00e9\"").unwrap().as_str(),
            Some("hi\né")
        );
    }

    #[test]
    fn parses_structures_and_roundtrips() {
        let text = r#"{"a": [1, 2, {"b": "x"}], "c": null, "d": true}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v["a"][2]["b"], "x");
        assert!(v["c"].is_null());
        assert_eq!(v["missing"], Value::Null);
        let reparsed = Value::parse(&v.to_string()).unwrap();
        assert_eq!(v, reparsed);
        let pretty = Value::parse(&v.pretty()).unwrap();
        assert_eq!(v, pretty);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Value::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("😀")
        );
        assert!(Value::parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "nul",
            "tru",
            "01",
            "1.",
            "1e",
            "--1",
            "\"",
            "\"\\q\"",
            "\"\\u12\"",
            "[1],",
            "{\"a\":1,}x",
            "+5",
            "NaN",
            "Infinity",
            "1e999",
            "\u{1}",
            "\"abc",
            "{\"k\" 1}",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 10) + &"]".repeat(MAX_DEPTH + 10);
        let err = Value::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn parse_with_check_interrupts_large_documents() {
        let big = format!(
            "[{}]",
            (0..3 * CHECK_STRIDE)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        // A callback that never fires parses identically to plain parse.
        let mut never = || false;
        let v = Value::parse_with_check(&big, &mut never).unwrap();
        assert_eq!(v, Value::parse(&big).unwrap());
        // One that fires on its second poll stops mid-document with the
        // interrupted flag (and never sees the end of the input).
        let mut polls = 0;
        let mut second = || {
            polls += 1;
            polls >= 2
        };
        let err = Value::parse_with_check(&big, &mut second).unwrap_err();
        assert!(err.interrupted, "{err}");
        assert!(err.offset.unwrap() < big.len());
        // Malformed input is still a plain (non-interrupted) error.
        let mut never = || false;
        let err = Value::parse_with_check("[1, 2", &mut never).unwrap_err();
        assert!(!err.interrupted, "{err}");
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let v = Value::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(v["k"].as_u64(), Some(2));
    }

    #[test]
    fn json_macro_builds_documents() {
        let v = json!({
            "name": "tgp",
            "count": 3usize,
            "ratio": 0.5,
            "tags": json!([1, 2, 3]),
            "nothing": json!(null),
        });
        assert_eq!(v["name"], "tgp");
        assert_eq!(v["count"].as_u64(), Some(3));
        assert_eq!(v["ratio"].as_f64(), Some(0.5));
        assert_eq!(v["tags"][2].as_u64(), Some(3));
        assert!(v["nothing"].is_null());
        assert_eq!(json!([1u64, 4]), Value::parse("[1,4]").unwrap());
    }

    #[test]
    fn string_escaping_roundtrips() {
        let v = Value::String("a\"b\\c\nd\te\u{1}".to_string());
        assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn graph_types_roundtrip() {
        let p = PathGraph::from_raw(&[2, 3, 5], &[10, 20]).unwrap();
        let back = PathGraph::from_json(&Value::parse(&p.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(p, back);

        let t = Tree::from_raw(&[1, 2, 3], &[(0, 1, 5), (1, 2, 7)]).unwrap();
        let back = Tree::from_json(&Value::parse(&t.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(t, back);

        let g = ProcessGraph::from_raw(&[1, 1, 1], &[(0, 1, 5), (1, 2, 7), (2, 0, 2)]).unwrap();
        let back =
            ProcessGraph::from_json(&Value::parse(&g.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(g, back);

        let cut = CutSet::new(vec![EdgeId::new(4), EdgeId::new(1)]);
        let back = CutSet::from_json(&Value::parse(&cut.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(cut, back);
    }

    #[test]
    fn decoding_validates_invariants() {
        // Wrong edge count.
        let bad = Value::parse(r#"{"node_weights": [1, 2], "edge_weights": [1, 2]}"#).unwrap();
        assert!(PathGraph::from_json(&bad).is_err());
        // Cycle.
        let cyclic = Value::parse(
            r#"{"node_weights": [1, 2, 3],
                "edges": [{"a": 0, "b": 1, "weight": 1},
                          {"a": 1, "b": 0, "weight": 1}]}"#,
        )
        .unwrap();
        assert!(Tree::from_json(&cyclic).is_err());
        // Negative weight.
        let neg = Value::parse(r#"{"node_weights": [-1], "edge_weights": []}"#).unwrap();
        assert!(PathGraph::from_json(&neg).is_err());
        // Not an object at all.
        assert!(Tree::from_json(&Value::parse("[1, 2]").unwrap()).is_err());
    }
}
