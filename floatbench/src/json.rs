//! Two helpers for building JSON values by hand.

use serde::Serialize;
use serde_json::{Map, Value};

/// `v` as a JSON value.
pub fn value<T: Serialize>(v: &T) -> Value {
    serde_json::to_value(v).expect("plain data serialises")
}

/// An object with `entries` in the order given.
pub fn object<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in entries {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}
