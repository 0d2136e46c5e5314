//! Offline stand-in for `serde`.
//!
//! The registry is unreachable in this build environment, so the
//! workspace vendors a minimal serialization framework with the same
//! import surface it uses from real serde: the [`Serialize`] /
//! [`Deserialize`] traits (re-exported alongside same-named derive macros
//! from `serde_derive` under the `derive` feature) and a `serde::de`
//! module with an [`Error`] type.
//!
//! Instead of serde's visitor-based data model, everything funnels
//! through a JSON-shaped [`Value`] tree: `Serialize` renders a value tree
//! and `Deserialize` reads one back. This keeps derived code trivial while
//! supporting the workspace's actual needs: reports, configs, Q-table
//! persistence, and JSONL round logs.
//!
//! Compact output streams: [`Serialize::write_json`] (derived, and on the
//! std types) appends JSON text straight to a `String`, so exporting a
//! million-element vector costs its text, not a `Value` per element. The
//! tree remains for pretty output ([`Value::write_pretty`]), parsing, and
//! hand-written impls, whose `write_json` is the default: render the tree,
//! write it. Both writers share one string escaper and one float formatter.

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

    fn write_json(&self, out: &mut String) {
        match self.n {
            N::PosInt(u) => u.write_json(out),
            N::NegInt(i) => i.write_json(out),
            N::Float(v) => write_f64(v, out),
        }
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

/// Types that can render themselves as a [`Value`] tree.
pub trait Serialize {
    /// Render as a value tree.
    fn to_value(&self) -> Value;

    /// Append compact JSON text to `out`: exactly the text the tree
    /// writer produces for [`Serialize::to_value`]. The default renders
    /// the tree and writes it; derived and std impls write directly.
    fn write_json(&self, out: &mut String) {
        self.to_value().write_json(out);
    }
}

impl Value {
    /// Append pretty JSON text (two-space indent) to `out`.
    pub fn write_pretty(&self, out: &mut String) {
        write_tree(self, out, Some(2), 0);
    }
}

fn push_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// The tree writer: compact when `indent` is `None`.
fn write_tree(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => b.write_json(out),
        Value::Number(n) => n.write_json(out),
        Value::String(s) => write_escaped(s, out),
        Value::Array(items) if items.is_empty() => out.push_str("[]"),
        Value::Object(map) if map.is_empty() => out.push_str("{}"),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_indent(out, indent, depth + 1);
                write_tree(item, out, indent, depth + 1);
            }
            push_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_indent(out, indent, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_tree(val, out, indent, depth + 1);
            }
            push_indent(out, indent, depth);
            out.push('}');
        }
    }
}

/// Append `items` as a compact JSON array.
fn write_seq<'a, T: Serialize + 'a>(items: impl IntoIterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
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
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, out: &mut String) {
        write_tree(self, out, None, 0);
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! ser_int {
    ($wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from(*self as $wide))
            }

            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
ser_int!(u64: u8, u16, u32, u64, usize);
ser_int!(i64: i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_f64(*self))
    }

    fn write_json(&self, out: &mut String) {
        write_f64(*self, out);
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_f64(f64::from(*self)))
    }

    fn write_json(&self, out: &mut String) {
        write_f64(f64::from(*self), out);
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }

    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }

    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

// String-keyed maps serialize with keys sorted, matching serde_json's
// default (BTreeMap-backed) behavior and keeping output deterministic.
impl<V: Serialize, S: std::hash::BuildHasher> Serialize for HashMap<String, V, S> {
    fn to_value(&self) -> Value {
        let mut pairs: Vec<(&String, &V)> = self.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        let mut m = Map::new();
        for (k, v) in pairs {
            m.insert(k.clone(), v.to_value());
        }
        Value::Object(m)
    }

    fn write_json(&self, out: &mut String) {
        let mut pairs: Vec<(&String, &V)> = self.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        out.push('{');
        for (i, (k, v)) in pairs.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(k, out);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
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

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<(A, B, C), Error> {
        let arr = v
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?;
        if arr.len() != 3 {
            return Err(Error::custom("expected 3-element array"));
        }
        Ok((
            A::from_value(&arr[0])?,
            B::from_value(&arr[1])?,
            C::from_value(&arr[2])?,
        ))
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

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert!((f64::from_value(&1.5f64.to_value()).unwrap() - 1.5).abs() < 1e-12);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(
            Option::<u32>::from_value(&Value::Null).unwrap(),
            None::<u32>
        );
        assert_eq!(
            Vec::<u32>::from_value(&vec![1u32, 2, 3].to_value()).unwrap(),
            vec![1, 2, 3]
        );
        let pair: (usize, String) = Deserialize::from_value(&(4usize, "x").to_value()).unwrap();
        assert_eq!(pair, (4, "x".to_string()));
    }

    #[test]
    fn hashmap_serializes_sorted() {
        let mut m = HashMap::new();
        m.insert("b".to_string(), 2u32);
        m.insert("a".to_string(), 1u32);
        let v = m.to_value();
        let obj = v.as_object().unwrap();
        let keys: Vec<&String> = obj.keys().collect();
        assert_eq!(keys, ["a", "b"]);
        let back: HashMap<String, u32> = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, m);
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
