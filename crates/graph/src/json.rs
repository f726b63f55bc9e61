//! Dependency-free JSON for the whole workspace.
//!
//! The build environment has no crates.io access, so the workspace carries
//! its own JSON layer instead of `serde`/`serde_json`. This module is the
//! single implementation shared by the graph wire formats here, the `tgp`
//! CLI and the `tgp-service` HTTP server:
//!
//! * [`Value`] — a JSON document (objects preserve key order),
//! * [`Lexer`] — the one JSON tokenizer, over raw bytes: [`Value::parse`]
//!   and the registry's streaming ingest (`tgp_solvers::ingest_flat`) are
//!   grammars over it,
//! * [`Value::parse`] — a recursive-descent parser over [`Lexer`] with a
//!   hard recursion depth limit, suitable for untrusted input (it returns
//!   errors, never panics),
//! * [`Writer`] — the one renderer: compact JSON text written straight
//!   into bytes, which solvers write their responses with and which
//!   [`Value::pretty`] and `Display` render through,
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

use std::borrow::Cow;
use std::fmt;

use crate::{
    ChainView, CutSet, EdgeId, NodeId, PathGraph, ProcessEdge, ProcessGraph, Segment, Tree,
    TreeEdge, TreeView, Weight,
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
            lex: Lexer::new(text.as_bytes()),
            check,
            countdown: CHECK_STRIDE,
        };
        p.lex.skip_ws();
        let v = p.value(0)?;
        p.lex.skip_ws();
        if !p.lex.at_end() {
            return Err(JsonError::at(
                p.lex.pos(),
                "trailing characters after JSON value",
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

    /// Pretty-prints with two-space indentation. Scalars and keys are
    /// rendered by [`Writer`], as in the compact form.
    pub fn pretty(&self) -> String {
        let mut w = Writer::new();
        self.write_pretty(&mut w, 0);
        w.finish().into_string()
    }

    fn write_pretty(&self, w: &mut Writer, indent: usize) {
        match self {
            Value::Array(items) if !items.is_empty() => {
                w.raw(b"[\n");
                for (i, item) in items.iter().enumerate() {
                    w.indent(indent + 1);
                    item.write_pretty(w, indent + 1);
                    w.raw(if i + 1 < items.len() { b",\n" } else { b"\n" });
                }
                w.indent(indent);
                w.raw(b"]");
            }
            Value::Object(entries) if !entries.is_empty() => {
                w.raw(b"{\n");
                for (i, (k, v)) in entries.iter().enumerate() {
                    w.indent(indent + 1);
                    w.string(k);
                    w.raw(b": ");
                    v.write_pretty(w, indent + 1);
                    w.raw(if i + 1 < entries.len() { b",\n" } else { b"\n" });
                }
                w.indent(indent);
                w.raw(b"}");
            }
            other => {
                w.value(other);
            }
        }
    }
}

/// `"00"` through `"99"`, two digits per entry, for [`Writer::u64`].
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Compact JSON text, written straight into a byte buffer.
///
/// The one JSON renderer: every solver writes its response with it, and
/// [`Value`]'s `Display` and [`Value::pretty`] render through it. Calls
/// follow the document's order — [`Writer::begin_object`], then a
/// [`Writer::key`] and a value per member, then
/// [`Writer::end_object`] — and the writer puts the commas in. Numbers
/// are written through a two-digit table, strings are copied as they
/// are unless they need escapes (a cold path), and floats are written
/// as [`Value`] always wrote them.
///
/// ```
/// use tgp_graph::json::Writer;
///
/// let mut w = Writer::new();
/// w.begin_object().key("cut").u64s([3, 14]).key("ok").bool(true).end_object();
/// assert_eq!(w.finish().as_str(), r#"{"cut":[3,14],"ok":true}"#);
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    out: Vec<u8>,
    /// Whether the next key or value follows a sibling, and so needs a
    /// comma first.
    comma: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with room for `bytes` bytes of text.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            out: Vec::with_capacity(bytes),
            comma: false,
        }
    }

    /// The comma before a sibling; the next item then has a sibling
    /// before it if `then` is true.
    #[inline]
    fn separate(&mut self, then: bool) {
        if self.comma {
            self.out.push(b',');
        }
        self.comma = then;
    }

    /// Opens an object.
    #[inline]
    pub fn begin_object(&mut self) -> &mut Self {
        self.separate(false);
        self.out.push(b'{');
        self
    }

    /// Closes the innermost open object.
    #[inline]
    pub fn end_object(&mut self) -> &mut Self {
        self.out.push(b'}');
        self.comma = true;
        self
    }

    /// Opens an array.
    #[inline]
    pub fn begin_array(&mut self) -> &mut Self {
        self.separate(false);
        self.out.push(b'[');
        self
    }

    /// Closes the innermost open array.
    #[inline]
    pub fn end_array(&mut self) -> &mut Self {
        self.out.push(b']');
        self.comma = true;
        self
    }

    /// Writes a member's key, a static name that needs no escape; its
    /// value comes next.
    #[inline]
    pub fn key(&mut self, key: &'static str) -> &mut Self {
        debug_assert_eq!(
            plain_run(key.as_bytes()),
            key.len(),
            "{key:?} needs escapes"
        );
        self.separate(false);
        self.out.reserve(key.len() + 3);
        self.out.push(b'"');
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
        self
    }

    /// Writes a non-negative integer: four digits per division, two per
    /// table lookup, pushed byte by byte (a copy of a few bytes costs
    /// more as a `memcpy` call).
    #[inline]
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.separate(true);
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        let mut pair = |at: &mut usize, p: usize| {
            *at -= 2;
            buf[*at..*at + 2].copy_from_slice(&DIGIT_PAIRS[2 * p..2 * p + 2]);
        };
        let mut v = value;
        while v >= 10_000 {
            let four = (v % 10_000) as usize;
            v /= 10_000;
            pair(&mut at, four % 100);
            pair(&mut at, four / 100);
        }
        let mut v = v as usize;
        if v >= 100 {
            pair(&mut at, v % 100);
            v /= 100;
        }
        if v >= 10 {
            pair(&mut at, v);
        } else {
            at -= 1;
            buf[at] = b'0' + v as u8;
        }
        self.out.reserve(buf.len());
        for &digit in &buf[at..] {
            self.out.push(digit);
        }
        self
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, value: i64) -> &mut Self {
        if value < 0 {
            self.separate(false);
            self.out.push(b'-');
        }
        self.u64(value.unsigned_abs())
    }

    /// Writes a float: with one decimal when it is integral and below
    /// 10^15 in magnitude (so it stays recognizable as a float), in
    /// Rust's shortest round-trip form otherwise, and as `null` when it
    /// is not finite, since JSON has no Inf or NaN.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        use std::io::Write as _;
        self.separate(true);
        let _ = if !value.is_finite() {
            self.out.write_all(b"null")
        } else if value.fract() == 0.0 && value.abs() < 1e15 {
            write!(self.out, "{value:.1}")
        } else {
            write!(self.out, "{value}")
        };
        self
    }

    /// Writes `true` or `false`.
    #[inline]
    pub fn bool(&mut self, value: bool) -> &mut Self {
        self.separate(true);
        self.out
            .extend_from_slice(if value { b"true" } else { b"false" });
        self
    }

    /// Writes `null`.
    #[inline]
    pub fn null(&mut self) -> &mut Self {
        self.separate(true);
        self.out.extend_from_slice(b"null");
        self
    }

    /// Writes a string value.
    #[inline]
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.separate(true);
        self.string(value);
        self
    }

    /// Writes an array of non-negative integers.
    pub fn u64s(&mut self, values: impl IntoIterator<Item = u64>) -> &mut Self {
        self.begin_array();
        for v in values {
            self.u64(v);
        }
        self.end_array()
    }

    /// Writes a document tree.
    pub fn value(&mut self, value: &Value) -> &mut Self {
        match value {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Number(Number::UInt(u)) => self.u64(*u),
            Value::Number(Number::Int(i)) => self.i64(*i),
            Value::Number(Number::Float(x)) => self.f64(*x),
            Value::String(s) => self.str(s),
            Value::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array()
            }
            Value::Object(entries) => {
                self.begin_object();
                for (k, v) in entries {
                    self.separate(false);
                    self.string(k);
                    self.out.push(b':');
                    self.value(v);
                }
                self.end_object()
            }
        }
    }

    /// The text written so far.
    pub fn finish(self) -> Text {
        Text(String::from_utf8(self.out).expect("the writer writes UTF-8"))
    }

    /// A quoted string: its run of plain characters copied as it is,
    /// the rest (from the first character that needs an escape) on the
    /// cold path.
    #[inline]
    fn string(&mut self, s: &str) {
        self.out.push(b'"');
        let plain = plain_run(s.as_bytes());
        self.out.extend_from_slice(&s.as_bytes()[..plain]);
        if plain < s.len() {
            // The byte at `plain` is ASCII, so a character starts there.
            self.escaped(&s[plain..]);
        }
        self.out.push(b'"');
    }

    #[cold]
    fn escaped(&mut self, s: &str) {
        use std::io::Write as _;
        for c in s.chars() {
            let _ = match c {
                '"' => self.out.write_all(b"\\\""),
                '\\' => self.out.write_all(b"\\\\"),
                '\n' => self.out.write_all(b"\\n"),
                '\r' => self.out.write_all(b"\\r"),
                '\t' => self.out.write_all(b"\\t"),
                '\u{08}' => self.out.write_all(b"\\b"),
                '\u{0C}' => self.out.write_all(b"\\f"),
                c if (c as u32) < 0x20 => write!(self.out, "\\u{:04x}", c as u32),
                c => self.out.write_all(c.encode_utf8(&mut [0; 4]).as_bytes()),
            };
        }
    }

    /// Text outside the compact grammar, for [`Value::pretty`]; the
    /// next item starts without a comma.
    fn raw(&mut self, text: &[u8]) {
        self.out.extend_from_slice(text);
        self.comma = false;
    }

    /// Two spaces per level, for [`Value::pretty`].
    fn indent(&mut self, levels: usize) {
        for _ in 0..levels {
            self.raw(b"  ");
        }
    }
}

/// Compact JSON text, as a [`Writer`] wrote it. `Display` writes the
/// text as it is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Text(String);

impl Text {
    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The text as an owned string, without a copy.
    pub fn into_string(self) -> String {
        self.0
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Display for Value {
    /// Compact (no whitespace) JSON encoding, by [`Writer`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = Writer::new();
        w.value(self);
        f.write_str(w.finish().as_str())
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

/// Where and why a [`Lexer`] stopped: small and `Copy`, for scans that
/// only need to know *that* a token failed. It converts to [`JsonError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was wrong there.
    pub kind: LexErrorKind,
}

/// What a [`LexError`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LexErrorKind {
    /// The next byte had to be this one: `expected ':'`.
    Expected(u8),
    /// Anything else, with its message: `unterminated string`, ...
    Invalid(&'static str),
}

impl From<LexError> for JsonError {
    fn from(e: LexError) -> Self {
        let message = match e.kind {
            LexErrorKind::Expected(byte) => format!("expected {:?}", byte as char),
            LexErrorKind::Invalid(message) => message.to_string(),
        };
        JsonError::at(e.offset, message)
    }
}

/// The JSON tokenizer: a cursor over raw bytes that reads one token at
/// a time for a grammar its caller drives, and alone decides how
/// whitespace, punctuation, literals, strings and numbers are spelled.
/// The input need not be UTF-8: string contents are checked as taken.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Lexer { bytes, pos: 0 }
    }

    /// The byte offset of the next token.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// `true` once every byte is consumed.
    #[inline]
    pub fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// The next byte, unconsumed.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn fail<T>(&self, kind: LexErrorKind) -> Result<T, LexError> {
        Err(LexError {
            offset: self.pos,
            kind,
        })
    }

    /// Skips JSON whitespace: space, tab, LF and CR.
    #[inline]
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it comes next.
    #[inline]
    pub fn eat(&mut self, byte: u8) -> bool {
        // A branch, not `pos += usize::from(hit)`: EXPERIMENTS.md §ONE-LEXER.
        if self.peek() == Some(byte) {
            self.pos += 1;
            return true;
        }
        false
    }

    /// Consumes `byte`, or fails with `expected 'byte'`.
    #[inline]
    pub fn expect(&mut self, byte: u8) -> Result<(), LexError> {
        if self.eat(byte) {
            return Ok(());
        }
        self.fail(LexErrorKind::Expected(byte))
    }

    /// Consumes `word` (`null`, `true`, `false` or any fixed spelling)
    /// if it comes next.
    #[inline(always)]
    pub fn literal(&mut self, word: &str) -> bool {
        let next = self.bytes[self.pos..].starts_with(word.as_bytes());
        if next {
            self.pos += word.len();
        }
        next
    }

    /// Consumes a string: its contents borrowed when it holds no escape,
    /// decoded when it does. Fails at the offending byte.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, LexError> {
        self.expect(b'"')?;
        let start = self.pos;
        let end = start + plain_run(&self.bytes[start..]);
        if self.bytes.get(end) != Some(&b'"') {
            return self.escaped_string().map(Cow::Owned);
        }
        let text = utf8(&self.bytes[start..end], start)?;
        self.pos = end + 1;
        Ok(Cow::Borrowed(text))
    }

    /// A string that holds an escape (or is malformed), from its start.
    #[cold]
    fn escaped_string(&mut self) -> Result<String, LexError> {
        let mut out = String::new();
        loop {
            let run = self.pos;
            self.pos += plain_run(&self.bytes[run..]);
            out.push_str(utf8(&self.bytes[run..self.pos], run)?);
            let c = match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                None => return self.invalid("unterminated string"),
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape()?
                }
                Some(_) => return self.invalid("unescaped control character in string"),
            };
            out.push(c);
        }
    }

    fn invalid<T>(&self, message: &'static str) -> Result<T, LexError> {
        self.fail(LexErrorKind::Invalid(message))
    }

    /// The character an escape stands for, the cursor past its backslash.
    fn escape(&mut self) -> Result<char, LexError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return self.invalid("invalid escape sequence"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The 4 hex digits after `\u` (cursor already past the `u`),
    /// combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, LexError> {
        let first = self.hex4()?;
        if !(0xD800..0xDC00).contains(&first) {
            return char::from_u32(first).map_or_else(|| self.invalid("invalid \\u escape"), Ok);
        }
        // High surrogate: require a following \uXXXX low surrogate.
        if self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            let second = self.hex4()?;
            if (0xDC00..0xE000).contains(&second) {
                let c = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                return char::from_u32(c)
                    .map_or_else(|| self.invalid("invalid surrogate pair"), Ok);
            }
        }
        self.invalid("unpaired surrogate in \\u escape")
    }

    fn hex4(&mut self) -> Result<u32, LexError> {
        let mut v = 0;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return self.invalid("truncated \\u escape");
            };
            let Some(digit) = (b as char).to_digit(16) else {
                return self.invalid("invalid hex digit in \\u escape");
            };
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Consumes a strict JSON non-negative integer that fits `u64`: no
    /// sign, no leading zero, no fraction or exponent after it. Anything
    /// else is `None`, consuming nothing.
    // Inlined into every caller, like `literal`, with no error value: out
    // of line, the cursor round-trips through memory on every call, which
    // costs a compact tree's ingest 5–10% (EXPERIMENTS.md §ONE-LEXER).
    #[inline(always)]
    pub fn u64(&mut self) -> Option<u64> {
        let digits = &self.bytes[self.pos..];
        // The first (up to) eight digits in one word, then one digit at
        // a time. Nineteen digits never overflow (10^19 - 1 <
        // u64::MAX), so only a longer run needs checked arithmetic.
        let (mut value, mut len) = match digits.first_chunk::<8>() {
            Some(word) => eight_digits(u64::from_le_bytes(*word)),
            None => (0, 0),
        };
        if len == 8 || digits.len() < 8 {
            while len < 19 {
                match digits.get(len) {
                    Some(&c @ b'0'..=b'9') => value = value * 10 + u64::from(c - b'0'),
                    _ => break,
                }
                len += 1;
            }
            while let Some(&c @ b'0'..=b'9') = digits.get(len) {
                value = value.checked_mul(10)?.checked_add(u64::from(c - b'0'))?;
                len += 1;
            }
        }
        if len == 0
            || (len > 1 && digits[0] == b'0')
            || matches!(digits.get(len), Some(b'.' | b'e' | b'E' | b'-' | b'+'))
        {
            return None;
        }
        self.pos += len;
        Some(value)
    }

    /// Consumes any JSON number: plain integers by the [`Lexer::u64`]
    /// scan where it can, and a fraction, an exponent or a value out of
    /// 64-bit range as [`Number::Float`]. Fails at the offending byte.
    pub fn number(&mut self) -> Result<Number, LexError> {
        if let Some(u) = self.u64() {
            return Ok(Number::UInt(u));
        }
        let start = self.pos;
        let negative = self.eat(b'-');
        // Integer part (JSON forbids leading zeros like "01").
        if !self.eat(b'0') {
            if !matches!(self.peek(), Some(b'1'..=b'9')) {
                return self.invalid("invalid number");
            }
            self.digits();
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            if !self.digits() {
                return self.invalid("expected digit after decimal point");
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            is_float = true;
            let _ = self.eat(b'+') || self.eat(b'-');
            if !self.digits() {
                return self.invalid("expected digit in exponent");
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(u64::try_from(i).map_or(Number::Int(i), Number::UInt));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::UInt(u));
            }
            // Integer out of 64-bit range: fall through to float.
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Number::Float(f)),
            _ => Err(LexError {
                offset: start,
                kind: LexErrorKind::Invalid("number out of range"),
            }),
        }
    }

    /// Consumes a run of ASCII digits; `false` if there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }
}

/// The length of the run of string bytes that need no attention: up to
/// the first quote, backslash or control character.
#[inline]
fn plain_run(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .unwrap_or(bytes.len())
}

/// `bytes`, which start at `offset` in the input, as text, or an error
/// at the first byte that is not UTF-8.
#[inline]
fn utf8(bytes: &[u8], offset: usize) -> Result<&str, LexError> {
    std::str::from_utf8(bytes).map_err(|e| LexError {
        offset: offset + e.valid_up_to(),
        kind: LexErrorKind::Invalid("invalid UTF-8 in string"),
    })
}

/// The value and count of the ASCII digits that open `word` (eight
/// input bytes read little-endian, so the first byte is the lowest),
/// without a branch per digit: a mask finds the first non-digit byte, a
/// shift drops it and everything after, and three multiply-shift steps
/// combine the digits pairwise (SWAR, "SIMD within a register").
#[inline]
fn eight_digits(word: u64) -> (u64, usize) {
    const LANES: u64 = 0x0101_0101_0101_0101;
    // A byte is a digit iff its high nibble is 3 and adding 6 keeps it
    // there. A carry out of a byte >= 0xFA can only disturb bytes after
    // the first non-digit, which are dropped anyway.
    let high = word & (0xF0 * LANES);
    let plus6 = word.wrapping_add(0x06 * LANES) & (0xF0 * LANES);
    let not_digit = (high ^ (0x30 * LANES)) | (plus6 ^ (0x30 * LANES));
    let len = (not_digit.trailing_zeros() / 8) as usize;
    if len == 0 {
        return (0, 0);
    }
    // Digit values, moved up so the run ends at the top byte; the
    // vacated low bytes read as leading zeros.
    let mut v = (word & (0x0F * LANES)) << (8 * (8 - len));
    v = (v.wrapping_mul(10 * 256 + 1) >> 8) & 0x00FF_00FF_00FF_00FF;
    v = (v.wrapping_mul(100 * 65_536 + 1) >> 16) & 0x0000_FFFF_0000_FFFF;
    v = v.wrapping_mul(10_000 * (1 << 32) + 1) >> 32;
    (v, len)
}

/// [`Value::parse`]'s grammar: a recursive descent over a [`Lexer`]
/// with the depth limit and the cooperative interruption poll.
struct Parser<'a, 'c> {
    lex: Lexer<'a>,
    /// Cooperative interruption callback, polled every [`CHECK_STRIDE`]
    /// values; `None` parses straight through.
    check: Option<&'c mut dyn FnMut() -> bool>,
    countdown: u32,
}

impl Parser<'_, '_> {
    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        let at = self.lex.pos();
        if depth > MAX_DEPTH {
            return Err(JsonError::at(
                at,
                format!("nesting deeper than {MAX_DEPTH}"),
            ));
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = CHECK_STRIDE;
            if let Some(check) = self.check.as_mut() {
                if check() {
                    return Err(JsonError::interrupted_at(at));
                }
            }
        }
        Ok(match self.lex.peek() {
            None => return Err(JsonError::at(at, "unexpected end of input")),
            Some(b'n') => self.word(at, "null", Value::Null)?,
            Some(b't') => self.word(at, "true", Value::Bool(true))?,
            Some(b'f') => self.word(at, "false", Value::Bool(false))?,
            Some(b'"') => Value::String(self.lex.string()?.into_owned()),
            Some(b'[') => self.array(depth)?,
            Some(b'{') => self.object(depth)?,
            Some(b'-' | b'0'..=b'9') => Value::Number(self.lex.number()?),
            Some(other) => {
                let message = format!("unexpected character {:?}", other as char);
                return Err(JsonError::at(at, message));
            }
        })
    }

    /// The literal `word` at `at`, as `value`.
    fn word(&mut self, at: usize, word: &str, value: Value) -> Result<Value, JsonError> {
        let expected = || JsonError::at(at, format!("expected {word:?}"));
        self.lex.literal(word).then_some(value).ok_or_else(expected)
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.lex.expect(b'[')?;
        let mut items = Vec::new();
        self.lex.skip_ws();
        if self.lex.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            self.lex.skip_ws();
            items.push(self.value(depth + 1)?);
            self.lex.skip_ws();
            if self.lex.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.lex.eat(b',') {
                return Err(JsonError::at(
                    self.lex.pos(),
                    "expected ',' or ']' in array",
                ));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.lex.expect(b'{')?;
        let mut entries = Vec::new();
        self.lex.skip_ws();
        if self.lex.eat(b'}') {
            return Ok(Value::Object(entries));
        }
        loop {
            self.lex.skip_ws();
            let key = self.lex.string()?.into_owned();
            self.lex.skip_ws();
            self.lex.expect(b':')?;
            self.lex.skip_ws();
            entries.push((key, self.value(depth + 1)?));
            self.lex.skip_ws();
            if self.lex.eat(b'}') {
                return Ok(Value::Object(entries));
            }
            if !self.lex.eat(b',') {
                return Err(JsonError::at(
                    self.lex.pos(),
                    "expected ',' or '}' in object",
                ));
            }
        }
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
    let items = array_field(value, key, ty)?;
    let mut weights = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        weights.push(Weight::new(weight_item(item, key, ty, i)?));
    }
    Ok(weights)
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
        let nodes = self.node_weights().map(|w| w.to_json());
        let edges = self.edge_weights().map(|w| w.to_json());
        Value::Object(vec![
            ("node_weights".to_string(), Value::Array(nodes.collect())),
            ("edge_weights".to_string(), Value::Array(edges.collect())),
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
        let nodes = self.node_weights().map(|w| w.to_json());
        let edges = self.edges().map(|e| e.to_json());
        Value::Object(vec![
            ("node_weights".to_string(), Value::Array(nodes.collect())),
            ("edges".to_string(), Value::Array(edges.collect())),
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

    /// The writer's numbers, floats and escapes read exactly as `fmt`
    /// and the renderer before it wrote them.
    #[test]
    fn writer_formats_scalars_as_fmt_does() {
        let mut edges = vec![0u64, 9, 10, 99, 100, 999, 1_000, 9_999, 10_000, 99_999];
        for digits in 5..=19 {
            let p = 10u64.pow(digits);
            edges.extend([p - 1, p, p + 1, p + p / 2]);
        }
        edges.extend([12_345_678, u64::MAX - 1, u64::MAX]);
        for v in edges {
            assert_eq!(Value::from(v).to_string(), v.to_string());
        }
        for v in [-1i64, -10, -10_001, i64::MIN] {
            assert_eq!(Value::from(v).to_string(), v.to_string());
        }
        let old_float = |x: f64| {
            if !x.is_finite() {
                "null".to_string()
            } else if x.fract() == 0.0 && x.abs() < 1e15 {
                format!("{x:.1}")
            } else {
                format!("{x}")
            }
        };
        for x in [
            0.0,
            -0.0,
            1.0,
            -3.0,
            1.5,
            0.1 + 0.2,
            1e-7,
            123_456.789,
            999_999_999_999_999.0,
            1e15,
            1e16,
            -2.5e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(Value::from(x).to_string(), old_float(x), "{x:?}");
        }
        let tricky = "q\"b\\s\n\r\t\u{08}\u{0C}\u{01}\u{1f}é😀";
        let want = r#""q\"b\\s\n\r\t\b\f\u0001\u001fé😀""#;
        assert_eq!(Value::from(tricky).to_string(), want);
        assert_eq!(Value::parse(want).unwrap().as_str(), Some(tricky));
        let object = Value::Object(vec![(tricky.to_string(), Value::Null)]);
        assert_eq!(object.to_string(), format!("{{{want}:null}}"));
    }

    #[test]
    fn writer_places_commas_between_siblings_only() {
        let mut w = Writer::new();
        w.begin_object()
            .key("a")
            .u64s([])
            .key("b")
            .begin_array()
            .begin_object()
            .end_object()
            .begin_array()
            .end_array()
            .null()
            .bool(false)
            .i64(-4)
            .str("")
            .end_array()
            .key("c")
            .begin_object()
            .key("d")
            .f64(2.0)
            .end_object()
            .end_object();
        let text = w.finish();
        assert_eq!(
            text.as_str(),
            r#"{"a":[],"b":[{},[],null,false,-4,""],"c":{"d":2.0}}"#
        );
        assert_eq!(text.to_string(), text.as_str());
        assert_eq!(
            Value::parse(text.as_str()).unwrap().to_string(),
            text.as_str()
        );
    }

    #[test]
    fn pretty_indents_two_spaces_and_renders_scalars_compactly() {
        let v = Value::parse(r#"{"a":[1,{"b":"x\"y"}],"e":{},"f":[],"g":1.0}"#).unwrap();
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": \"x\\\"y\"\n    }\n  ],\n  \
             \"e\": {},\n  \"f\": [],\n  \"g\": 1.0\n}"
        );
        assert_eq!(Value::from(7u64).pretty(), "7");
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

    /// Every error class `Value::parse` reports, pinned to its exact
    /// message and byte offset (and so to its `Display` text).
    #[test]
    fn parse_errors_are_pinned_to_message_and_offset() {
        let deep = "[".repeat(MAX_DEPTH + 10) + &"]".repeat(MAX_DEPTH + 10);
        let cases: &[(&str, usize, &str)] = &[
            // The inputs of `malformed_inputs_error_instead_of_panicking`.
            ("", 0, "unexpected end of input"),
            ("{", 1, "expected '\"'"),
            ("}", 0, "unexpected character '}'"),
            ("[", 1, "unexpected end of input"),
            ("[1,", 3, "unexpected end of input"),
            ("[1 2]", 3, "expected ',' or ']' in array"),
            ("{\"a\"}", 4, "expected ':'"),
            ("{\"a\":}", 5, "unexpected character '}'"),
            ("{a:1}", 1, "expected '\"'"),
            ("nul", 0, "expected \"null\""),
            ("tru", 0, "expected \"true\""),
            ("01", 1, "trailing characters after JSON value"),
            ("1.", 2, "expected digit after decimal point"),
            ("1e", 2, "expected digit in exponent"),
            ("--1", 1, "invalid number"),
            ("\"", 1, "unterminated string"),
            ("\"\\q\"", 2, "invalid escape sequence"),
            ("\"\\u12\"", 5, "invalid hex digit in \\u escape"),
            ("[1],", 3, "trailing characters after JSON value"),
            ("{\"a\":1,}x", 7, "expected '\"'"),
            ("+5", 0, "unexpected character '+'"),
            ("NaN", 0, "unexpected character 'N'"),
            ("Infinity", 0, "unexpected character 'I'"),
            ("1e999", 0, "number out of range"),
            ("\u{1}", 0, "unexpected character '\\u{1}'"),
            ("\"abc", 4, "unterminated string"),
            ("{\"k\" 1}", 5, "expected ':'"),
            // The depth limit.
            (&deep, MAX_DEPTH + 1, "nesting deeper than 128"),
            // Trailing characters, after whitespace.
            ("[1] x", 4, "trailing characters after JSON value"),
            ("\t\n 7 \r\n ,", 8, "trailing characters after JSON value"),
            (
                "18446744073709551616x",
                20,
                "trailing characters after JSON value",
            ),
            // A control character inside a string.
            ("\"a\u{1}b\"", 2, "unescaped control character in string"),
            // Unpaired and out-of-order surrogates.
            ("\"\\ud83d\"", 7, "unpaired surrogate in \\u escape"),
            ("\"\\ud83dx\"", 7, "unpaired surrogate in \\u escape"),
            ("\"\\ud83d\\u0041\"", 13, "unpaired surrogate in \\u escape"),
            ("\"\\ude00\"", 7, "invalid \\u escape"),
            ("\"\\uzzzz\"", 3, "invalid hex digit in \\u escape"),
            ("\"\\u00", 5, "truncated \\u escape"),
            ("\"\\", 2, "invalid escape sequence"),
            ("\"é\\q\"", 4, "invalid escape sequence"),
            // A multi-byte character where a value should start.
            ("[é]", 1, "unexpected character 'Ã'"),
            // Number grammar.
            ("-", 1, "invalid number"),
            ("-a", 1, "invalid number"),
            ("1.e5", 2, "expected digit after decimal point"),
            ("1e+", 3, "expected digit in exponent"),
            // Separators and literals.
            ("[1,]", 3, "unexpected character ']'"),
            ("{\"a\":1,}", 7, "expected '\"'"),
            ("{\"a\" :1 ,\"b\"}", 12, "expected ':'"),
            ("{\"a\":1 \"b\":2}", 7, "expected ',' or '}' in object"),
            ("[true false]", 6, "expected ',' or ']' in array"),
            ("fals", 0, "expected \"false\""),
            ("nulL", 0, "expected \"null\""),
        ];
        for &(input, offset, message) in cases {
            let err = Value::parse(input).unwrap_err();
            let shown = if input.len() > 40 { "<deep>" } else { input };
            assert_eq!(err.offset, Some(offset), "{shown:?}");
            assert_eq!(err.message, message, "{shown:?}");
            assert!(!err.interrupted, "{shown:?}");
            assert_eq!(err.to_string(), format!("{message} at byte {offset}"));
        }
        // An interrupted parse stops at the second poll, after
        // 2 * CHECK_STRIDE values.
        let big = format!(
            "[{}]",
            (0..3 * CHECK_STRIDE)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let mut polls = 0;
        let mut second = || {
            polls += 1;
            polls >= 2
        };
        let err = Value::parse_with_check(&big, &mut second).unwrap_err();
        assert!(err.interrupted);
        assert_eq!(err.offset, Some(39_841));
        assert_eq!(err.to_string(), "parsing interrupted at byte 39841");
    }

    /// Numbers keep their representation whichever way they are scanned:
    /// plain integers as `UInt`, negative ones as `Int`, and anything
    /// with a fraction or exponent, or past 64 bits, as `Float`.
    #[test]
    fn numbers_parse_to_pinned_values() {
        let cases: &[(&str, Number)] = &[
            ("0", Number::UInt(0)),
            ("7", Number::UInt(7)),
            ("12345678", Number::UInt(12_345_678)),
            ("123456789", Number::UInt(123_456_789)),
            ("18446744073709551615", Number::UInt(u64::MAX)),
            ("-0", Number::UInt(0)),
            ("-7", Number::Int(-7)),
            ("-9223372036854775808", Number::Int(i64::MIN)),
            (
                "-9223372036854775809",
                Number::Float(-9_223_372_036_854_775_809.0),
            ),
            (
                "18446744073709551616",
                Number::Float(18_446_744_073_709_551_616.0),
            ),
            (
                "184467440737095516150",
                Number::Float(184_467_440_737_095_516_150.0),
            ),
            ("1.0", Number::Float(1.0)),
            ("0.5", Number::Float(0.5)),
            ("1e3", Number::Float(1000.0)),
            ("1E-2", Number::Float(0.01)),
            ("-2.5e+1", Number::Float(-25.0)),
        ];
        for &(text, want) in cases {
            assert_eq!(Value::parse(text).unwrap(), Value::Number(want), "{text}");
            let in_array = format!("[{text} ,{text}]");
            assert_eq!(
                Value::parse(&in_array).unwrap(),
                Value::Array(vec![Value::Number(want); 2]),
                "{in_array}"
            );
        }
    }

    #[test]
    fn eight_digit_words_parse_like_a_digit_loop() {
        let mut bytes = *b"00000000";
        let digits = b"0123456789";
        let others = b" ,]}.e-+/:\xff\x00";
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20_000 {
            for byte in &mut bytes {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *byte = if state.is_multiple_of(4) {
                    others[(state >> 8) as usize % others.len()]
                } else {
                    digits[(state >> 8) as usize % digits.len()]
                };
            }
            let len = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
            let value = bytes[..len]
                .iter()
                .fold(0u64, |v, &b| v * 10 + u64::from(b - b'0'));
            assert_eq!(
                eight_digits(u64::from_le_bytes(bytes)),
                (value, len),
                "{bytes:?}"
            );
        }
    }

    #[test]
    fn lexer_borrows_plain_strings_and_decodes_escaped_ones() {
        let mut lex = Lexer::new(r#""plain" "a\u00e9\n" "café""#.as_bytes());
        assert!(matches!(lex.string(), Ok(Cow::Borrowed("plain"))));
        lex.skip_ws();
        assert_eq!(lex.string(), Ok(Cow::Owned::<str>("a\u{e9}\n".to_string())));
        lex.skip_ws();
        assert!(matches!(lex.string(), Ok(Cow::Borrowed("café"))));
        assert!(lex.at_end());
        // Bytes that are not UTF-8 fail where they start, inside a plain
        // or an escaped string alike.
        for input in [&b"\"ab\xff\""[..], b"\"\\n\xc3\"", b"\"ab\xc3"] {
            let err = Lexer::new(input).string().unwrap_err();
            assert_eq!(err.kind, LexErrorKind::Invalid("invalid UTF-8 in string"));
            assert_eq!(err.offset, input.iter().position(|&b| b >= 0x80).unwrap());
        }
    }

    #[test]
    fn strict_integers_refuse_what_the_number_grammar_reads_otherwise() {
        let accepted = ["0", "7", "12345678", "123456789", "18446744073709551615"];
        for text in accepted {
            for tail in ["", ",", " ", "]", "}"] {
                let input = format!("{text}{tail}");
                let mut lex = Lexer::new(input.as_bytes());
                assert_eq!(lex.u64(), Some(text.parse().unwrap()), "{input}");
                assert_eq!(lex.pos(), text.len());
            }
        }
        let refused = [
            "",
            "-0",
            "-1",
            "+1",
            "01",
            "00",
            "1.0",
            "1e3",
            "1E3",
            "1-",
            "1+",
            "18446744073709551616",
            "184467440737095516150",
            "x",
            "\"1\"",
        ];
        for text in refused {
            let mut lex = Lexer::new(text.as_bytes());
            assert_eq!(lex.u64(), None, "{text}");
            assert_eq!(lex.pos(), 0, "a refused number consumes nothing: {text}");
        }
    }

    #[test]
    fn lexer_errors_render_as_json_errors() {
        let mut lex = Lexer::new(b"  x");
        lex.skip_ws();
        let err = lex.expect(b':').unwrap_err();
        assert_eq!(
            err,
            LexError {
                offset: 2,
                kind: LexErrorKind::Expected(b':')
            }
        );
        assert_eq!(JsonError::from(err).to_string(), "expected ':' at byte 2");
        assert!(!lex.literal("null"));
        assert_eq!(lex.pos(), 2);
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
