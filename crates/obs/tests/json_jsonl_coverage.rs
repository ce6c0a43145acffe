//! Edge-case coverage for the hand-rolled JSON pipeline: `jsonl::Record`
//! (writer) against `json::parse` (reader). The two are developed as a
//! pair — every record the writer can produce must parse back to the
//! values that were pushed in, byte-for-byte re-serializable, because the
//! scrub-and-diff determinism tests depend on that round trip.

use bvf_obs::json::{self, Value};
use bvf_obs::Record;
use proptest::prelude::*;

#[test]
fn escape_sequences_round_trip() {
    // Every escape class RFC 8259 names: quote, backslash, the named
    // control escapes, other control characters (\u form), and non-ASCII
    // text that must pass through unescaped.
    let tricky = "q\"b\\s/n\nr\rt\tnul\u{0}bel\u{7}del\u{7f}é—✓\u{1f600}";
    let line = Record::new("esc").str("s", tricky).finish();
    let v = json::parse(&line).expect("escaped record parses");
    assert_eq!(v.get("s").and_then(Value::as_str), Some(tricky));
    // And the parser's own re-serialization stays parseable and equal.
    let again = json::parse(&v.to_json_string()).expect("reserialized parses");
    assert_eq!(again, v);
}

#[test]
fn parser_accepts_escaped_forms_the_writer_never_emits() {
    // \/ and \u-escaped printable characters are legal JSON even though
    // Record never writes them.
    let v = json::parse(r#""a\/bAé""#).unwrap();
    assert_eq!(v.as_str(), Some("a/bAé"));
}

#[test]
fn nested_arrays_and_objects_round_trip() {
    let inner = Record::object()
        .u64("wall_ns", 42)
        .raw("xs", "[1,[2,[]],{\"k\":null}]")
        .finish();
    let line = Record::new("nest")
        .raw("timing", &inner)
        .raw("empty_obj", "{}")
        .raw("empty_arr", "[]")
        .finish();
    let v = json::parse(&line).expect("nested record parses");
    let timing = v.get("timing").expect("timing present");
    assert_eq!(timing.get("wall_ns").and_then(Value::as_f64), Some(42.0));
    let Some(Value::Array(xs)) = timing.get("xs") else {
        panic!("xs not an array");
    };
    assert_eq!(xs[0], Value::Number(1.0));
    assert_eq!(
        xs[1],
        Value::Array(vec![Value::Number(2.0), Value::Array(vec![])])
    );
    assert_eq!(xs[2].get("k"), Some(&Value::Null));
    assert_eq!(v.get("empty_obj"), Some(&Value::Object(vec![])));
    assert_eq!(v.get("empty_arr"), Some(&Value::Array(vec![])));
}

#[test]
fn integer_boundary_values() {
    let line = Record::new("bounds")
        .u64("zero", 0)
        .u64("u_max", u64::MAX)
        .finish();
    let v = json::parse(&line).expect("boundary record parses");
    // The parser reads numbers as f64, so boundary integers come back as
    // their nearest-double values — exactly what `as f64` gives.
    assert_eq!(v.get("zero").and_then(Value::as_f64), Some(0.0));
    assert_eq!(
        v.get("u_max").and_then(Value::as_f64),
        Some(u64::MAX as f64)
    );
    // Values that fit in a double round-trip exactly.
    let exact = Record::new("exact").u64("x", (1 << 53) - 1).finish();
    let v = json::parse(&exact).unwrap();
    assert_eq!(v.get("x").and_then(Value::as_f64), Some(9007199254740991.0));
}

#[test]
fn float_boundary_values() {
    let line = Record::new("floats")
        .f64("tiny", f64::MIN_POSITIVE)
        .f64("huge", f64::MAX)
        .f64("neg_zero", -0.0)
        .f64("nan", f64::NAN)
        .f64("inf", f64::INFINITY)
        .f64("neg_inf", f64::NEG_INFINITY)
        .finish();
    let v = json::parse(&line).expect("float record parses");
    assert_eq!(
        v.get("tiny").and_then(Value::as_f64),
        Some(f64::MIN_POSITIVE)
    );
    assert_eq!(v.get("huge").and_then(Value::as_f64), Some(f64::MAX));
    assert_eq!(v.get("neg_zero").and_then(Value::as_f64), Some(0.0));
    // Non-finite floats serialize as null — JSON has no NaN/Inf.
    assert_eq!(v.get("nan"), Some(&Value::Null));
    assert_eq!(v.get("inf"), Some(&Value::Null));
    assert_eq!(v.get("neg_inf"), Some(&Value::Null));
}

#[test]
fn trailing_garbage_is_rejected() {
    for bad in [
        "{\"a\":1}x",
        "{\"a\":1} {\"b\":2}",
        "[1,2]]",
        "12 34",
        "null null",
        "{\"a\":1}\n{\"b\":2}",
    ] {
        assert!(
            json::parse(bad).is_err(),
            "accepted trailing garbage {bad:?}"
        );
    }
    // …but trailing whitespace is fine.
    assert!(json::parse("{\"a\":1}  \n\t").is_ok());
}

/// Build a valid Unicode string from arbitrary sampled code points,
/// mapping surrogates/overflow into the valid plane.
fn string_from(points: &[u32]) -> String {
    points
        .iter()
        .map(|&p| char::from_u32(p % 0x11_0000).unwrap_or('\u{fffd}'))
        .collect()
}

proptest! {
    /// Record→parse round trip: whatever fields go into a record come
    /// back out with the same keys, order, and values.
    #[test]
    fn record_parse_round_trip(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 1..8), 1..6),
        strs in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..12), 1..6),
        ints in proptest::collection::vec(any::<u64>(), 1..6),
        floats in proptest::collection::vec(any::<f64>(), 1..6),
        bools in proptest::collection::vec(any::<bool>(), 1..6),
    ) {
        // Unique keys (later fields would shadow earlier ones in get()).
        let mut names: Vec<String> = keys.iter().map(|k| string_from(k)).collect();
        names.sort();
        names.dedup();
        let mut rec = Record::new("prop");
        let mut expect: Vec<(String, Value)> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            prop_assume!(name != "record");
            match i % 4 {
                0 => {
                    let s = string_from(&strs[i % strs.len()]);
                    rec = rec.str(name, &s);
                    expect.push((name.clone(), Value::String(s)));
                }
                1 => {
                    let v = ints[i % ints.len()];
                    rec = rec.u64(name, v);
                    expect.push((name.clone(), Value::Number(v as f64)));
                }
                2 => {
                    let v = floats[i % floats.len()];
                    rec = rec.f64(name, v);
                    expect.push((
                        name.clone(),
                        if v.is_finite() { Value::Number(v) } else { Value::Null },
                    ));
                }
                _ => {
                    let v = bools[i % bools.len()];
                    rec = rec.bool(name, v);
                    expect.push((name.clone(), Value::Bool(v)));
                }
            }
        }
        let line = rec.finish();
        let v = json::parse(&line).expect("generated record must parse");
        let Value::Object(pairs) = &v else { panic!("record is not an object") };
        prop_assert_eq!(pairs[0].clone(), ("record".to_string(), Value::String("prop".into())));
        prop_assert_eq!(pairs.len(), expect.len() + 1, "field count (order + dedup)");
        for (got, want) in pairs[1..].iter().zip(expect.iter()) {
            prop_assert_eq!(got, want);
        }
        // Parse→serialize→parse is a fixed point.
        let re = v.to_json_string();
        prop_assert_eq!(json::parse(&re).expect("reserialized parses"), v);
    }
}
