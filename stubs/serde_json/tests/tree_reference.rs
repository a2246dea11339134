//! The streaming writer against the tree renderer it replaced.
//!
//! `render` below is the renderer `serde_json` used when `Serialize` built a
//! `Value` tree first. It stays here as the byte-for-byte reference: every
//! case renders a tree with it and the equivalent typed or tree value with
//! the streaming writer, compact and pretty, and the bytes must agree.

use serde::{Serialize, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

fn render(value: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(x) => {
            if x.is_finite() {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    let _ = write!(out, "{x:.1}");
                } else {
                    let _ = write!(out, "{x}");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::String(s) => escape_into(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                render(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                escape_into(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
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

/// Asserts the writer renders `value` exactly as the reference renders
/// `tree`, compact and pretty.
fn assert_same<T: Serialize + ?Sized>(value: &T, tree: &Value) {
    for (pretty, indent) in [(false, None), (true, Some(2))] {
        let mut expected = String::new();
        render(tree, &mut expected, indent, 0);
        let written = if pretty {
            serde_json::to_string_pretty(value)
        } else {
            serde_json::to_string(value)
        };
        assert_eq!(written.unwrap(), expected, "pretty = {pretty}");
    }
}

fn float_cases() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        1.0,
        -3.0,
        2.5,
        0.1,
        1e-7,
        2.126e-11,
        999_999_999_999_999.0,
        1e15,
        -1e15,
        1.5e15,
        123_456_789_012_345_680.0,
        1.5e300,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
}

const STRING_CASES: [&str; 9] = [
    "",
    "plain",
    "quote \" inside",
    "back\\slash",
    "\n\r\t",
    "\u{0}\u{1}\u{8}\u{c}\u{1f}",
    "del \u{7f} stays",
    "héllo ☃ 𝄞",
    "mixed \"é\"\n\u{2}☃\\",
];

#[test]
fn scalars_match_the_tree_renderer() {
    for x in float_cases() {
        assert_same(&x, &Value::Float(x));
        assert_same(&Value::Float(x), &Value::Float(x));
    }
    for i in [0, 1, -1, 42, i64::MAX, i64::MIN] {
        assert_same(&i, &Value::Int(i));
    }
    // Unsigned integers keep the tree's `as i64` conversion.
    assert_same(&u64::MAX, &Value::Int(-1));
    assert_same(&usize::MAX, &Value::Int(usize::MAX as i64));
    assert_same(&7_u8, &Value::Int(7));
    assert_same(&1.5_f32, &Value::Float(1.5));
    assert_same(&true, &Value::Bool(true));
    assert_same(&None::<u32>, &Value::Null);
    assert_same(&'☃', &Value::String("☃".into()));
    for s in STRING_CASES {
        assert_same(s, &Value::String(s.into()));
    }
}

#[test]
fn containers_match_the_tree_renderer() {
    let empty_array: Vec<u32> = Vec::new();
    assert_same(&empty_array, &Value::Array(vec![]));
    let empty_map: BTreeMap<String, u32> = BTreeMap::new();
    assert_same(&empty_map, &Value::Object(vec![]));
    let floats = float_cases();
    assert_same(
        &floats,
        &Value::Array(floats.iter().map(|x| Value::Float(*x)).collect()),
    );
    let nested = Value::Object(vec![
        ("empty array".into(), Value::Array(vec![])),
        ("empty object".into(), Value::Object(vec![])),
        (
            "deep".into(),
            Value::Array(vec![
                Value::Array(vec![Value::Object(vec![])]),
                Value::Object(vec![("k".into(), Value::Array(vec![]))]),
                Value::Null,
            ]),
        ),
    ]);
    assert_same(&nested, &nested);
    let escaped_keys = Value::Object(
        STRING_CASES
            .iter()
            .enumerate()
            .map(|(i, s)| (s.to_string(), Value::Int(i as i64)))
            .collect(),
    );
    assert_same(&escaped_keys, &escaped_keys);
    assert_same(&(1_u8, "x", 2.0_f64), &{
        Value::Array(vec![
            Value::Int(1),
            Value::String("x".into()),
            Value::Float(2.0),
        ])
    });
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
struct Site(usize);

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
enum Zone {
    Compute,
    Storage,
}

#[derive(Serialize)]
enum Shape {
    Point,
    Pair(u32, f64),
    Wrapped(Zone),
    Named { zone: Zone, sites: Vec<Site> },
}

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Record {
    by_name: BTreeMap<String, f64>,
    by_zone: BTreeMap<Zone, Vec<Site>>,
    by_site: BTreeMap<Site, Vec<u32>>,
    by_label: HashMap<Site, Zone>,
    shapes: Vec<Shape>,
    unit: Unit,
    empty: Vec<Shape>,
    maybe: Option<Site>,
}

fn int(i: i64) -> Value {
    Value::Int(i)
}

fn string(s: &str) -> Value {
    Value::String(s.into())
}

#[test]
fn typed_maps_and_enums_match_the_tree_renderer() {
    let record = Record {
        by_name: [
            ("a\"quoted".to_string(), 1.0),
            ("é".to_string(), -0.0),
            ("n".to_string(), f64::NAN),
        ]
        .into_iter()
        .collect(),
        by_zone: [(Zone::Storage, vec![Site(4)]), (Zone::Compute, vec![])]
            .into_iter()
            .collect(),
        by_site: [(Site(3), vec![1, 2]), (Site(0), vec![])]
            .into_iter()
            .collect(),
        by_label: [(Site(9), Zone::Compute)].into_iter().collect(),
        shapes: vec![
            Shape::Point,
            Shape::Pair(7, 1e15),
            Shape::Wrapped(Zone::Storage),
            Shape::Named {
                zone: Zone::Compute,
                sites: vec![Site(1), Site(2)],
            },
        ],
        unit: Unit,
        empty: vec![],
        maybe: Some(Site(5)),
    };
    // The tree the old derive built: string and unit-variant keys make an
    // object, `Site` keys (integers) make `[key, value]` pairs.
    let tree = Value::Object(vec![
        (
            "by_name".into(),
            Value::Object(vec![
                ("a\"quoted".into(), Value::Float(1.0)),
                ("n".into(), Value::Float(f64::NAN)),
                ("é".into(), Value::Float(-0.0)),
            ]),
        ),
        (
            "by_zone".into(),
            Value::Object(vec![
                ("Compute".into(), Value::Array(vec![])),
                ("Storage".into(), Value::Array(vec![int(4)])),
            ]),
        ),
        (
            "by_site".into(),
            Value::Array(vec![
                Value::Array(vec![int(0), Value::Array(vec![])]),
                Value::Array(vec![int(3), Value::Array(vec![int(1), int(2)])]),
            ]),
        ),
        (
            "by_label".into(),
            Value::Array(vec![Value::Array(vec![int(9), string("Compute")])]),
        ),
        (
            "shapes".into(),
            Value::Array(vec![
                string("Point"),
                Value::Object(vec![(
                    "Pair".into(),
                    Value::Array(vec![int(7), Value::Float(1e15)]),
                )]),
                Value::Object(vec![("Wrapped".into(), string("Storage"))]),
                Value::Object(vec![(
                    "Named".into(),
                    Value::Object(vec![
                        ("zone".into(), string("Compute")),
                        ("sites".into(), Value::Array(vec![int(1), int(2)])),
                    ]),
                )]),
            ]),
        ),
        ("unit".into(), Value::Null),
        ("empty".into(), Value::Array(vec![])),
        ("maybe".into(), int(5)),
    ]);
    assert_same(&record, &tree);
    // The tree `to_value` builds renders back to the same bytes.
    assert_same(&serde_json::to_value(&record), &tree);
}

#[test]
fn to_writer_streams_the_to_string_bytes() {
    let value = (vec![Site(1)], "x\n", Some(2.5_f64));
    let mut streamed = String::new();
    serde_json::to_writer(&mut streamed, &value);
    assert_eq!(streamed, serde_json::to_string(&value).unwrap());
}
