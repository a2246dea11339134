//! Offline stand-in for the `serde` facade.
//!
//! The build environment cannot reach crates.io, so the workspace vendors a
//! minimal serialization framework with the same import surface the code
//! uses (`use serde::Serialize;` plus the derive macro). A [`Serialize`]
//! implementation produces a tree-structured [`Value`] that the vendored
//! `serde_json` renders as JSON. There is no derive-based read half: code
//! that reads JSON walks the [`Value`] tree that `serde_json::from_str`
//! returns.

// Let the generated `::serde::...` paths resolve when the derive is used
// inside this crate's own tests.
extern crate self as serde;

pub use serde_derive::Serialize;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// A serialized value tree (the subset of JSON the workspace needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON integer number.
    Int(i64),
    /// JSON floating-point number.
    Float(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with insertion-ordered keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Float` values as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer view of an `Int` value.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of a `String` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view of a `Bool` value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Element view of an `Array` value.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Entry view of an `Object` value.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Whether the value is JSON `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Types that can be serialized into a [`Value`] tree.
pub trait Serialize {
    /// Serializes `self` into a [`Value`].
    fn serialize(&self) -> Value;
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}
int_impls!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Float(f64::from(*self))
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for char {
    fn serialize(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self) -> Value {
        Value::Array(vec![self.0.serialize(), self.1.serialize()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize(&self) -> Value {
        Value::Array(vec![
            self.0.serialize(),
            self.1.serialize(),
            self.2.serialize(),
        ])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize, D: Serialize> Serialize for (A, B, C, D) {
    fn serialize(&self) -> Value {
        Value::Array(vec![
            self.0.serialize(),
            self.1.serialize(),
            self.2.serialize(),
            self.3.serialize(),
        ])
    }
}

/// Serializes a map: as a JSON object when every key serializes to a string,
/// otherwise as an array of `[key, value]` pairs.
fn serialize_map<'a, K, V, I>(entries: I) -> Value
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    I: Iterator<Item = (&'a K, &'a V)>,
{
    let pairs: Vec<(Value, Value)> = entries
        .map(|(k, v)| (k.serialize(), v.serialize()))
        .collect();
    if pairs.iter().all(|(k, _)| matches!(k, Value::String(_))) {
        Value::Object(
            pairs
                .into_iter()
                .map(|(k, v)| match k {
                    Value::String(s) => (s, v),
                    _ => unreachable!("checked above"),
                })
                .collect(),
        )
    } else {
        Value::Array(
            pairs
                .into_iter()
                .map(|(k, v)| Value::Array(vec![k, v]))
                .collect(),
        )
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self) -> Value {
        serialize_map(self.iter())
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self) -> Value {
        serialize_map(self.iter())
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Plain {
        a: u32,
        b: f64,
        c: String,
    }

    #[derive(Serialize)]
    struct Newtype(u32);

    #[derive(Serialize)]
    enum Mixed {
        Unit,
        One(u32),
        Two(u32, bool),
        Named { x: u32 },
    }

    #[test]
    fn named_struct_serializes_to_object() {
        let v = Plain {
            a: 1,
            b: 2.5,
            c: "hi".into(),
        }
        .serialize();
        assert_eq!(
            v,
            Value::Object(vec![
                ("a".into(), Value::Int(1)),
                ("b".into(), Value::Float(2.5)),
                ("c".into(), Value::String("hi".into())),
            ])
        );
    }

    #[test]
    fn newtype_unwraps() {
        assert_eq!(Newtype(7).serialize(), Value::Int(7));
    }

    #[test]
    fn enum_variants_are_externally_tagged() {
        assert_eq!(Mixed::Unit.serialize(), Value::String("Unit".into()));
        assert_eq!(
            Mixed::One(3).serialize(),
            Value::Object(vec![("One".into(), Value::Int(3))])
        );
        assert_eq!(
            Mixed::Two(3, true).serialize(),
            Value::Object(vec![(
                "Two".into(),
                Value::Array(vec![Value::Int(3), Value::Bool(true)])
            )])
        );
        assert_eq!(
            Mixed::Named { x: 9 }.serialize(),
            Value::Object(vec![(
                "Named".into(),
                Value::Object(vec![("x".into(), Value::Int(9))])
            )])
        );
    }

    #[test]
    fn string_keyed_maps_become_objects() {
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 1_u32);
        assert_eq!(
            m.serialize(),
            Value::Object(vec![("k".into(), Value::Int(1))])
        );
        let mut n = BTreeMap::new();
        n.insert(2_u32, 3_u32);
        assert_eq!(
            n.serialize(),
            Value::Array(vec![Value::Array(vec![Value::Int(2), Value::Int(3)])])
        );
    }
}
