//! Offline stand-in for the `serde` facade.
//!
//! The build environment cannot reach crates.io, so the workspace vendors a
//! minimal serialization framework with the same import surface the code
//! uses (`use serde::Serialize;` plus the derive macro). A [`Serialize`]
//! implementation streams compact-JSON tokens into a [`Serializer`], which
//! owns every formatting rule — separators, string escaping, float
//! rendering, the optional pretty layout — and writes them to any
//! [`fmt::Write`] sink: a `String`, or a hasher that never materializes the
//! text. No intermediate tree is built. [`Value`] is the tree that
//! `serde_json::from_str` parses into (and `serde_json::to_value` builds for
//! the few callers that need one); it serializes like any other value.

// Let the generated `::serde::...` paths resolve when the derive is used
// inside this crate's own tests.
extern crate self as serde;

pub use serde_derive::Serialize;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;

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

/// Types that serialize themselves as JSON tokens into a [`Serializer`].
///
/// Implementations call the serializer's token methods in document order;
/// they never see separators, escapes or number formats.
pub trait Serialize {
    /// Writes `self` into `out`.
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>);

    /// Whether `self` serializes to a JSON string. Map serialization reads
    /// this before writing anything: a map whose every key is a string
    /// renders as an object, any other map as an array of `[key, value]`
    /// pairs.
    fn is_json_string(&self) -> bool {
        false
    }
}

/// A streaming JSON writer over a [`fmt::Write`] sink.
///
/// Compact output matches `serde_json::to_string`; pretty output (two-space
/// indent, `": "` after keys, empty containers as `[]` / `{}`) matches
/// `serde_json::to_string_pretty`. Integral finite floats below `1e15` in
/// magnitude keep a `.0`, other finite floats use Rust's shortest
/// round-trip form, and non-finite floats render as `null`. Sinks are
/// expected not to fail (`String` and hashers never do); a sink error is
/// not reported.
pub struct Serializer<'a, W: ?Sized> {
    out: &'a mut W,
    pretty: bool,
    depth: usize,
    /// No item has been written into the innermost open container yet.
    first: bool,
}

impl<'a, W: fmt::Write + ?Sized> Serializer<'a, W> {
    /// A compact writer: no whitespace between tokens.
    pub fn compact(out: &'a mut W) -> Self {
        Serializer {
            out,
            pretty: false,
            depth: 0,
            first: false,
        }
    }

    /// A pretty writer: one item per line, two-space indent.
    pub fn pretty(out: &'a mut W) -> Self {
        Serializer {
            pretty: true,
            ..Serializer::compact(out)
        }
    }

    fn raw(&mut self, text: &str) {
        let _ = self.out.write_str(text);
    }

    /// Writes JSON `null`.
    pub fn null(&mut self) {
        self.raw("null");
    }

    /// Writes a JSON boolean.
    pub fn bool(&mut self, value: bool) {
        self.raw(if value { "true" } else { "false" });
    }

    /// Writes a JSON integer.
    pub fn int(&mut self, value: i64) {
        // Written by hand: `write!` costs about a quarter more per integer,
        // and integers are most of a program's tokens. The widest i64,
        // `-9223372036854775808`, takes 20 bytes.
        let mut buf = [0_u8; 20];
        let mut pos = buf.len();
        let mut rest = value.unsigned_abs();
        loop {
            pos -= 1;
            buf[pos] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if value < 0 {
            pos -= 1;
            buf[pos] = b'-';
        }
        self.raw(std::str::from_utf8(&buf[pos..]).expect("ASCII digits"));
    }

    /// Writes a JSON number from a float (`null` if it is not finite).
    pub fn float(&mut self, value: f64) {
        if !value.is_finite() {
            self.null();
        } else if value.fract() == 0.0 && value.abs() < 1e15 {
            let _ = write!(self.out, "{value:.1}");
        } else {
            let _ = write!(self.out, "{value}");
        }
    }

    /// Writes a JSON string, escaping `"`, `\` and control characters.
    pub fn str(&mut self, value: &str) {
        self.raw("\"");
        let bytes = value.as_bytes();
        let mut run = 0;
        for (i, &byte) in bytes.iter().enumerate() {
            let escape = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Escaped bytes are ASCII, so `run..i` ends on a char boundary.
            self.raw(&value[run..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{byte:04x}");
            } else {
                self.raw(escape);
            }
            run = i + 1;
        }
        self.raw(&value[run..]);
        self.raw("\"");
    }

    fn open(&mut self, bracket: &str) {
        self.raw(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self, bracket: &str) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.raw(bracket);
        self.first = false;
    }

    /// Starts the next item of the innermost container.
    fn next_item(&mut self) {
        if !self.first {
            self.raw(",");
        }
        self.first = false;
        self.newline();
    }

    fn newline(&mut self) {
        if self.pretty {
            self.raw("\n");
            for _ in 0..self.depth {
                self.raw("  ");
            }
        }
    }

    /// Opens a JSON array.
    pub fn begin_array(&mut self) {
        self.open("[");
    }

    /// Writes one array element.
    pub fn element<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.next_item();
        value.serialize(self);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close("]");
    }

    /// Writes a whole array, one element per item.
    pub fn array<'v, T: Serialize + 'v>(&mut self, items: impl IntoIterator<Item = &'v T>) {
        self.begin_array();
        for item in items {
            self.element(item);
        }
        self.end_array();
    }

    /// Opens a JSON object.
    pub fn begin_object(&mut self) {
        self.open("{");
    }

    /// Writes the next object member's key, which must serialize to a JSON
    /// string; exactly one value must follow.
    pub fn key<K: Serialize + ?Sized>(&mut self, key: &K) {
        self.next_item();
        key.serialize(self);
        self.raw(if self.pretty { ": " } else { ":" });
    }

    /// Writes one object member.
    pub fn entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(&mut self, key: &K, value: &V) {
        self.key(key);
        value.serialize(self);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close("}");
    }
}

impl Serialize for Value {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::Int(i) => out.int(*i),
            Value::Float(x) => out.float(*x),
            Value::String(s) => out.str(s),
            Value::Array(items) => out.array(items),
            Value::Object(entries) => {
                out.begin_object();
                for (key, value) in entries {
                    out.entry(key, value);
                }
                out.end_object();
            }
        }
    }

    fn is_json_string(&self) -> bool {
        matches!(self, Value::String(_))
    }
}

// Integers keep the tree serializer's `as i64` conversion, so a `u64`
// above `i64::MAX` renders wrapped, byte for byte as before.
macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
                out.int(*self as i64);
            }
        }
    )*};
}
int_impls!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.float(*self);
    }
}

impl Serialize for f32 {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.float(f64::from(*self));
    }
}

impl Serialize for bool {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.bool(*self);
    }
}

impl Serialize for str {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.str(self);
    }

    fn is_json_string(&self) -> bool {
        true
    }
}

impl Serialize for String {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.str(self);
    }

    fn is_json_string(&self) -> bool {
        true
    }
}

impl Serialize for char {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.str(self.encode_utf8(&mut [0; 4]));
    }

    fn is_json_string(&self) -> bool {
        true
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        (**self).serialize(out);
    }

    fn is_json_string(&self) -> bool {
        (**self).is_json_string()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        (**self).serialize(out);
    }

    fn is_json_string(&self) -> bool {
        (**self).is_json_string()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        match self {
            Some(v) => v.serialize(out),
            None => out.null(),
        }
    }

    fn is_json_string(&self) -> bool {
        self.as_ref().is_some_and(Serialize::is_json_string)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.array(self);
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.array(self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.array(self);
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.begin_array();
        out.element(&self.0);
        out.element(&self.1);
        out.end_array();
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.begin_array();
        out.element(&self.0);
        out.element(&self.1);
        out.element(&self.2);
        out.end_array();
    }
}

impl<A: Serialize, B: Serialize, C: Serialize, D: Serialize> Serialize for (A, B, C, D) {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.begin_array();
        out.element(&self.0);
        out.element(&self.1);
        out.element(&self.2);
        out.element(&self.3);
        out.end_array();
    }
}

/// Serializes a map: as a JSON object when every key serializes to a string,
/// otherwise as an array of `[key, value]` pairs.
fn serialize_map<'a, K, V, I, W>(entries: I, out: &mut Serializer<'_, W>)
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    I: Iterator<Item = (&'a K, &'a V)> + Clone,
    W: fmt::Write + ?Sized,
{
    if entries.clone().all(|(k, _)| k.is_json_string()) {
        out.begin_object();
        for (k, v) in entries {
            out.entry(k, v);
        }
        out.end_object();
    } else {
        out.begin_array();
        for pair in entries {
            out.element(&pair);
        }
        out.end_array();
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        serialize_map(self.iter(), out);
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        serialize_map(self.iter(), out);
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.array(self);
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn serialize<W: fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.array(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize + ?Sized>(value: &T) -> String {
        let mut text = String::new();
        value.serialize(&mut Serializer::compact(&mut text));
        text
    }

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
        };
        assert_eq!(json(&v), r#"{"a":1,"b":2.5,"c":"hi"}"#);
        assert!(!v.is_json_string());
    }

    #[test]
    fn newtype_unwraps() {
        assert_eq!(json(&Newtype(7)), "7");
    }

    #[test]
    fn enum_variants_are_externally_tagged() {
        assert_eq!(json(&Mixed::Unit), r#""Unit""#);
        assert_eq!(json(&Mixed::One(3)), r#"{"One":3}"#);
        assert_eq!(json(&Mixed::Two(3, true)), r#"{"Two":[3,true]}"#);
        assert_eq!(json(&Mixed::Named { x: 9 }), r#"{"Named":{"x":9}}"#);
        // Only the unit variant is a JSON string, so only it may key an object.
        assert!(Mixed::Unit.is_json_string());
        assert!(!Mixed::One(3).is_json_string());
    }

    #[test]
    fn string_keyed_maps_become_objects() {
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 1_u32);
        assert_eq!(json(&m), r#"{"k":1}"#);
        let mut n = BTreeMap::new();
        n.insert(2_u32, 3_u32);
        assert_eq!(json(&n), "[[2,3]]");
        let keyed: BTreeMap<_, _> = [(Some('a'), 1_u8)].into_iter().collect();
        assert_eq!(json(&keyed), r#"{"a":1}"#);
        let unkeyed: BTreeMap<_, _> = [(None::<char>, 1_u8)].into_iter().collect();
        assert_eq!(json(&unkeyed), "[[null,1]]");
    }

    #[test]
    fn pretty_layout_indents_and_keeps_empty_containers_inline() {
        let v = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![Value::Int(1), Value::Array(vec![])]),
            ),
            ("b".into(), Value::Object(vec![])),
        ]);
        let mut text = String::new();
        v.serialize(&mut Serializer::pretty(&mut text));
        assert_eq!(text, "{\n  \"a\": [\n    1,\n    []\n  ],\n  \"b\": {}\n}");
    }
}
