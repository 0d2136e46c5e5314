//! The shim's one writer, compact and pretty, on every float bit pattern,
//! every string and every derived shape: literal expectations, and the
//! parsed `Value` tree re-printing the same compact text (what `to_value`
//! relies on). Also the parser: its nesting cap, and long strings mixing
//! plain runs, multibyte characters and escapes.

use std::collections::HashMap;

use proptest::prelude::*;
use serde::Serialize;
use serde_json::{from_str, to_string, to_string_pretty, Value, MAX_DEPTH};

/// The compact text of `x`, after checking that the tree it parses into
/// re-prints it.
fn text<T: Serialize>(x: &T) -> String {
    let text = to_string(x).unwrap();
    let tree: Value = from_str(&text).unwrap();
    assert_eq!(to_string(&tree).unwrap(), text);
    text
}

fn nested(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

#[test]
fn nesting_is_capped_at_max_depth() {
    let v: Value = from_str(&nested(MAX_DEPTH)).expect("128 deep parses");
    assert!(v.is_array());
    let mixed = "{\"a\":".repeat(64) + &nested(64) + &"}".repeat(64);
    assert!(from_str::<Value>(&mixed).is_ok());
    let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).expect_err("129 deep");
    assert_eq!(
        err.to_string(),
        format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
    );
    // Deep enough to overflow the stack without the cap.
    let err = from_str::<Value>(&"[".repeat(200_000)).expect_err("200k deep");
    assert!(err.to_string().contains("at byte 128"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Any `f64` / `f32` bit pattern: non-finite writes `null`, anything
    /// else keeps a decimal point and parses back to the same bits.
    #[test]
    fn floats_stream_like_the_tree(bits in any::<u64>(), bits32 in any::<u32>()) {
        let single = f32::from_bits(bits32);
        for v in [f64::from_bits(bits), f64::from(single)] {
            let written = text(&v);
            if v.is_finite() {
                prop_assert!(written.contains('.'), "{:?} wrote {}", v, written);
                prop_assert_eq!(written.parse::<f64>().unwrap().to_bits(), v.to_bits());
            } else {
                prop_assert_eq!(written.as_str(), "null");
            }
        }
        prop_assert_eq!(text(&single), text(&f64::from(single)));
    }
}

#[test]
fn float_edge_cases() {
    for (v, want) in [
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
        (f64::NEG_INFINITY, "null"),
        (-0.0, "-0.0"),
        (3.0, "3.0"),
        (-12.0, "-12.0"),
        (0.5, "0.5"),
    ] {
        assert_eq!(text(&v), want, "{v:?}");
    }
    let big = text(&1e300);
    assert!(big.starts_with("1000") && big.ends_with("000.0"), "{big}");
    let subnormal = text(&5e-324);
    assert!(
        subnormal.starts_with("0.000") && subnormal.ends_with('5'),
        "{subnormal}"
    );
    assert_eq!(text(&f32::NAN), "null");
    assert_eq!(text(&1.5f32), "1.5");
}

#[test]
fn strings_escape_like_the_tree() {
    let controls: String = (0u32..0x20).filter_map(char::from_u32).collect();
    let s = format!("{controls}\"\\/ é 漢 😀 \u{7f}");
    let written = text(&s);
    assert!(written.starts_with("\"\\u0000\\u0001"), "{written}");
    assert!(written.contains("\\t\\n\\u000b\\u000c\\r"), "{written}");
    assert!(written.contains("\\\"\\\\/ é 漢 😀 \u{7f}\""), "{written}");
    assert_eq!(from_str::<String>(&written).unwrap(), s);
    assert_eq!(text(&"plain"), "\"plain\"");
}

/// One long string mixing plain ASCII runs, multibyte characters and
/// escapes parses back whole: the parser copies each run between escapes
/// as one slice.
#[test]
fn long_mixed_strings_roundtrip() {
    let piece = "plain ascii, é漢😀 \"quoted\" back\\slash\ttab\nline\u{1}";
    let s = piece.repeat(2_000);
    let written = text(&s);
    assert_eq!(from_str::<String>(&written).unwrap(), s);
    let escaped = r#""a\u00e9\ud83d\ude00\/b""#;
    assert_eq!(from_str::<String>(escaped).unwrap(), "aé😀/b");
}

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
struct Shapes {
    #[serde(skip)]
    _hidden: u32,
    #[serde(skip_serializing_if = "Option::is_none")]
    first: Option<u8>,
    list: Vec<Option<i16>>,
    #[serde(skip_serializing_if = "Option::is_none")]
    last: Option<String>,
    pair: (u64, f32),
    map: HashMap<String, bool>,
}

#[derive(Serialize)]
enum Shape {
    Unit,
    One(Vec<u8>),
    Two(i64, Option<f64>),
    Named {
        a: u32,
        #[serde(skip_serializing_if = "Option::is_none")]
        b: Option<u32>,
    },
    NoFields {},
}

#[test]
fn derived_shapes_stream_like_the_tree() {
    assert_eq!(text(&Empty {}), "{}");
    assert_eq!(to_string_pretty(&Empty {}).unwrap(), "{}");
    let mut s = Shapes {
        _hidden: 7,
        first: None,
        list: vec![Some(-3), None, Some(4)],
        last: None,
        pair: (9, 0.25),
        map: [("b".to_string(), true), ("a".to_string(), false)].into(),
    };
    assert_eq!(
        text(&s),
        r#"{"list":[-3,null,4],"pair":[9,0.25],"map":{"a":false,"b":true}}"#
    );
    let pretty = r#"{
  "list": [
    -3,
    null,
    4
  ],
  "pair": [
    9,
    0.25
  ],
  "map": {
    "a": false,
    "b": true
  }
}"#;
    assert_eq!(to_string_pretty(&s).unwrap(), pretty);
    s.first = Some(1);
    s.last = Some("x".into());
    s.map.clear();
    assert_eq!(
        text(&s),
        r#"{"first":1,"list":[-3,null,4],"last":"x","pair":[9,0.25],"map":{}}"#
    );
    // Struct variants write every field, `None` included:
    // `skip_serializing_if` applies to struct fields only.
    let shapes = [
        Shape::Unit,
        Shape::One(vec![]),
        Shape::Two(-1, None),
        Shape::Named { a: 1, b: None },
        Shape::NoFields {},
    ];
    assert_eq!(
        text(&shapes.as_slice()),
        r#"["Unit",{"One":[]},{"Two":[-1,null]},{"Named":{"a":1,"b":null}},{"NoFields":{}}]"#
    );
    let pretty = r#"[
  "Unit",
  {
    "One": []
  },
  {
    "Two": [
      -1,
      null
    ]
  },
  {
    "Named": {
      "a": 1,
      "b": null
    }
  },
  {
    "NoFields": {}
  }
]"#;
    assert_eq!(to_string_pretty(&shapes.as_slice()).unwrap(), pretty);
}
