//! Offline stand-in for `serde`.
//!
//! The registry is unreachable in this build environment, so the
//! workspace vendors a minimal serialization framework with the same
//! import surface it uses from real serde: the [`Serialize`] /
//! [`Deserialize`] traits (re-exported alongside same-named derive macros
//! from `serde_derive` under the `derive` feature) and a `serde::de`
//! module with an [`Error`] type.
//!
//! Instead of serde's visitor-based data model, the shim is JSON only, and
//! the two directions take different roads. Serializing writes text:
//! [`Serialize::serialize`] (derived, on the std types and on [`Value`])
//! writes into a [`Writer`], the one JSON writer, which appends to a
//! `String` compact or pretty (two-space indent). One body per type gives
//! both layouts, and no output path builds a tree, so exporting a
//! million-element vector costs its text, not a `Value` per element.
//! Deserializing reads a tree: `serde_json`'s parser builds a [`Value`]
//! and [`Deserialize::from_value`] rebuilds the type from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::{self, Write as _};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped dynamic value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (integer or float).
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object. Entry order is preserved.
    Object(Map),
}

impl Value {
    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// `true` iff this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// `true` iff this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// `true` iff this is an array.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// `true` iff this is a number.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    /// `true` iff this is a string.
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// The boolean payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload as `f64` (integers are widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Numeric payload as `u64` if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Numeric payload as `i64` if integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The array payload, if any.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object payload, if any.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

/// A JSON number: unsigned / signed integer or float, like `serde_json`.
#[derive(Debug, Clone, Copy)]
pub struct Number {
    n: N,
}

#[derive(Debug, Clone, Copy)]
enum N {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl Number {
    /// Build from a float (stored as-is, including non-finite values;
    /// the JSON writer renders non-finite floats as `null`).
    pub fn from_f64(v: f64) -> Number {
        Number { n: N::Float(v) }
    }

    /// Widen to `f64`.
    pub fn as_f64(&self) -> f64 {
        match self.n {
            N::PosInt(u) => u as f64,
            N::NegInt(i) => i as f64,
            N::Float(f) => f,
        }
    }

    /// As `u64` if integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self.n {
            N::PosInt(u) => Some(u),
            N::NegInt(i) => u64::try_from(i).ok(),
            N::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            N::Float(_) => None,
        }
    }

    /// As `i64` if integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self.n {
            N::PosInt(u) => i64::try_from(u).ok(),
            N::NegInt(i) => Some(i),
            N::Float(f) if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 => {
                Some(f as i64)
            }
            N::Float(_) => None,
        }
    }

    /// `true` iff stored as a float.
    pub fn is_f64(&self) -> bool {
        matches!(self.n, N::Float(_))
    }
}

// Numeric equality across representations: `1`, `1u64`, and `1.0`
// compare equal. Lenient by design — round-trips through JSON text may
// change the representation of whole floats.
impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (self.n, other.n) {
            (N::PosInt(a), N::PosInt(b)) => a == b,
            (N::NegInt(a), N::NegInt(b)) => a == b,
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

impl From<u64> for Number {
    fn from(v: u64) -> Number {
        Number { n: N::PosInt(v) }
    }
}

impl From<i64> for Number {
    fn from(v: i64) -> Number {
        if v >= 0 {
            Number {
                n: N::PosInt(v as u64),
            }
        } else {
            Number { n: N::NegInt(v) }
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_json(&mut s);
        f.write_str(&s)
    }
}

/// Append `v` as JSON: non-finite values as `null` (JSON has no
/// non-finite literals; a lossy but parseable choice), integral values
/// with a trailing `.0` so float-ness stays visible, like serde_json.
fn write_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Append `s` as a quoted, escaped JSON string.
fn write_escaped(s: &str, out: &mut String) {
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

/// A JSON object: string keys to values, insertion-ordered.
#[derive(Debug, Clone, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Empty map.
    pub fn new() -> Map {
        Map::default()
    }

    /// Insert, replacing (and returning) any previous value for the key.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterate keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterate values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

// Order-insensitive equality: two objects with the same key→value pairs
// are equal regardless of insertion order.
impl PartialEq for Map {
    fn eq(&self, other: &Map) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .all(|(k, v)| other.get(k).is_some_and(|ov| ov == v))
    }
}

/// Serialization/deserialization error: a plain message.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Build an error from any displayable message.
    pub fn custom<T: fmt::Display>(msg: T) -> Error {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Compatibility alias module: `serde::de::Error::custom` works.
pub mod de {
    pub use crate::Error;
}

/// Compatibility alias module mirroring `serde::ser`.
pub mod ser {
    pub use crate::Error;
}

/// Types that write themselves as JSON text.
pub trait Serialize {
    /// Write `self` into `w`.
    fn serialize(&self, w: &mut Writer<'_>);

    /// Append compact JSON text to `out`.
    fn write_json(&self, out: &mut String) {
        self.serialize(&mut Writer::compact(out));
    }
}

/// The one JSON writer: appends to a `String`, compact or pretty. Pretty
/// puts each array element and object entry on its own line, indented
/// two spaces per level, with `": "` after keys; an empty container stays
/// `[]` / `{}`.
pub struct Writer<'a> {
    out: &'a mut String,
    pretty: bool,
    /// Arrays and objects currently open.
    depth: usize,
    /// Whether the innermost open container has no item yet.
    first: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending compact text to `out`.
    pub fn compact(out: &'a mut String) -> Self {
        Writer {
            out,
            pretty: false,
            depth: 0,
            first: true,
        }
    }

    /// A writer appending pretty text to `out`.
    pub fn pretty(out: &'a mut String) -> Self {
        Writer {
            pretty: true,
            ..Writer::compact(out)
        }
    }

    /// Append text that is already JSON: a literal or a quoted string.
    #[inline]
    pub fn raw(&mut self, json: &str) {
        self.out.push_str(json);
    }

    // `inline(always)` on the structural methods: derived bodies are large
    // enough that LLVM kept `key` out of line, and compact JSONL export
    // then took ~30 % longer per event.

    /// Open an array (`'['`) or an object (`'{'`).
    #[inline(always)]
    pub fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    /// Start the next element of the innermost open array.
    #[inline(always)]
    pub fn item(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        if self.pretty {
            self.newline();
        }
    }

    /// Start the next entry of the innermost open object. `key` is the
    /// key quoted and escaped, followed by its `:`.
    #[inline(always)]
    pub fn key(&mut self, key: &str) {
        self.item();
        self.out.push_str(key);
        if self.pretty {
            self.out.push(' ');
        }
    }

    /// Close the innermost open container with `bracket`.
    #[inline(always)]
    pub fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if self.pretty && !self.first {
            self.newline();
        }
        self.first = false;
        self.out.push(bracket);
    }

    #[cold]
    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }
}

/// Write an object whose keys are known only at run time.
fn write_object<'a, V: Serialize + 'a>(
    w: &mut Writer<'_>,
    entries: impl IntoIterator<Item = (&'a String, &'a V)>,
) {
    w.open('{');
    for (k, v) in entries {
        w.item();
        write_escaped(k, w.out);
        w.raw(if w.pretty { ": " } else { ":" });
        v.serialize(w);
    }
    w.close('}');
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuild from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------
// Serialize impls for std types.
// ---------------------------------------------------------------------

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self {
            Value::Null => w.raw("null"),
            Value::Bool(b) => b.serialize(w),
            Value::Number(n) => n.serialize(w),
            Value::String(s) => s.serialize(w),
            Value::Array(items) => items.serialize(w),
            Value::Object(map) => write_object(w, map.iter()),
        }
    }
}

impl Serialize for Number {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self.n {
            N::PosInt(u) => u.serialize(w),
            N::NegInt(i) => i.serialize(w),
            N::Float(v) => v.serialize(w),
        }
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.raw(if *self { "true" } else { "false" });
    }
}

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer<'_>) {
                let _ = write!(w.out, "{self}");
            }
        }
    )*};
}
ser_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer<'_>) {
        write_f64(*self, w.out);
    }
}

impl Serialize for f32 {
    fn serialize(&self, w: &mut Writer<'_>) {
        write_f64(f64::from(*self), w.out);
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer<'_>) {
        write_escaped(self, w.out);
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer<'_>) {
        write_escaped(self, w.out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer<'_>) {
        (**self).serialize(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        match self {
            Some(v) => v.serialize(w),
            None => w.raw("null"),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.open('[');
        for item in self {
            w.item();
            item.serialize(w);
        }
        w.close(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        self.as_slice().serialize(w);
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.open('[');
        w.item();
        self.0.serialize(w);
        w.item();
        self.1.serialize(w);
        w.close(']');
    }
}

// String-keyed maps serialize with keys sorted, matching serde_json's
// default (BTreeMap-backed) behavior and keeping output deterministic.
impl<V: Serialize, S: std::hash::BuildHasher> Serialize for HashMap<String, V, S> {
    fn serialize(&self, w: &mut Writer<'_>) {
        let mut pairs: Vec<(&String, &V)> = self.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        write_object(w, pairs);
    }
}

// ---------------------------------------------------------------------
// Deserialize impls for std types.
// ---------------------------------------------------------------------

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Value, Error> {
        Ok(v.clone())
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<bool, Error> {
        v.as_bool().ok_or_else(|| Error::custom("expected bool"))
    }
}

macro_rules! de_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, Error> {
                let u = v.as_u64().ok_or_else(|| Error::custom(concat!(
                    "expected unsigned integer for ", stringify!($t))))?;
                <$t>::try_from(u).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}
de_uint!(u8, u16, u32, u64, usize);

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, Error> {
                let i = v.as_i64().ok_or_else(|| Error::custom(concat!(
                    "expected integer for ", stringify!($t))))?;
                <$t>::try_from(i).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}
de_int!(i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<f64, Error> {
        // `null` maps back to NaN: the writer renders non-finite floats
        // as null, and this keeps such round-trips lossless enough.
        if v.is_null() {
            return Ok(f64::NAN);
        }
        v.as_f64().ok_or_else(|| Error::custom("expected number"))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<f32, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<String, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Option<T>, Error> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_value(v).map(Some)
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?;
        arr.iter().map(T::from_value).collect()
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<(A, B), Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?;
        if arr.len() != 2 {
            return Err(Error::custom("expected 2-element array"));
        }
        Ok((A::from_value(&arr[0])?, B::from_value(&arr[1])?))
    }
}

impl<V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize for HashMap<String, V, S> {
    fn from_value(v: &Value) -> Result<HashMap<String, V, S>, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::custom("expected object"))?;
        let mut out = HashMap::with_capacity_and_hasher(obj.len(), S::default());
        for (k, val) in obj.iter() {
            out.insert(k.clone(), V::from_value(val)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x` writes the text `v` writes, and reads back from `v`.
    fn roundtrip<T: Serialize + Deserialize + PartialEq + fmt::Debug>(x: T, v: Value) {
        let (mut text, mut tree) = (String::new(), String::new());
        x.write_json(&mut text);
        v.write_json(&mut tree);
        assert_eq!(text, tree);
        assert_eq!(T::from_value(&v).unwrap(), x);
    }

    fn int(u: u64) -> Value {
        Value::Number(u.into())
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(42u64, int(42));
        roundtrip(-7i64, Value::Number((-7i64).into()));
        roundtrip(1.5f64, Value::Number(Number::from_f64(1.5)));
        roundtrip(true, Value::Bool(true));
        roundtrip("hi".to_string(), Value::String("hi".into()));
        roundtrip(None::<u32>, Value::Null);
        roundtrip(vec![1u32, 2, 3], Value::Array(vec![int(1), int(2), int(3)]));
        let pair = Value::Array(vec![int(4), Value::String("x".into())]);
        roundtrip((4usize, "x".to_string()), pair);
    }

    #[test]
    fn hashmap_serializes_sorted() {
        let mut m = HashMap::new();
        m.insert("b".to_string(), 2u32);
        m.insert("a".to_string(), 1u32);
        let mut sorted = Map::new();
        sorted.insert("a".into(), int(1));
        sorted.insert("b".into(), int(2));
        roundtrip(m.clone(), Value::Object(sorted));
        let mut pretty = String::new();
        m.serialize(&mut Writer::pretty(&mut pretty));
        assert_eq!(pretty, "{\n  \"a\": 1,\n  \"b\": 2\n}");
    }

    #[test]
    fn number_equality_is_semantic() {
        assert_eq!(Number::from(1u64), Number::from_f64(1.0));
        assert_ne!(Number::from(1u64), Number::from(2u64));
    }

    #[test]
    fn map_equality_ignores_order() {
        let mut a = Map::new();
        a.insert("x".into(), Value::Bool(true));
        a.insert("y".into(), Value::Null);
        let mut b = Map::new();
        b.insert("y".into(), Value::Null);
        b.insert("x".into(), Value::Bool(true));
        assert_eq!(Value::Object(a), Value::Object(b));
    }

    #[test]
    fn index_returns_null_for_missing() {
        let v = Value::Null;
        assert!(v["nope"].is_null());
        assert!(v[3].is_null());
    }
}
