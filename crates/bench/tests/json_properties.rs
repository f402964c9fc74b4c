//! `mr_bench::json` against input it did not write: `parse` reads files
//! from outside the program (`mr-perf compare A.json B.json`,
//! `BENCHMARK.json`), so a damaged document must be an `Err`, never a
//! panic or an abort, and what the emitters write must read back exactly.

use mr_bench::json::{num, parse, Obj, Value};
use proptest::prelude::*;

/// One scalar, weighted toward the ones JSON treats specially: quotes,
/// backslashes, the 32 control characters, multi-byte and non-BMP
/// scalars, then anything `char` can hold.
fn scalar() -> impl Strategy<Value = char> {
    (0u8..8, 0u32..0x11_0000).prop_map(|(kind, raw)| match kind {
        0 => '"',
        1 => '\\',
        2 => char::from_u32(raw % 0x20).expect("a control character"),
        3 => char::from_u32(0x20 + raw % 0x5f).expect("printable ASCII"),
        4 => char::from_u32(0x80 + raw % 0x780).expect("a two-byte scalar"),
        5 => char::from_u32(0x1_0000 + raw % 0x10_0000).expect("a non-BMP scalar"),
        _ => char::from_u32(raw).unwrap_or('\u{fffd}'),
    })
}

fn string() -> impl Strategy<Value = String> {
    collection::vec(scalar(), 0..48).prop_map(|chars| chars.into_iter().collect())
}

/// A document shaped like one `mr-perf` result — counts, literals, a map
/// of `{"value", "unit"}` metrics, an array — with `label` carrying the
/// escapes and multi-byte scalars.
fn report(label: &str, values: &[f64]) -> String {
    let mut metrics = Obj::new();
    for (i, v) in values.iter().enumerate() {
        let mut m = Obj::new();
        m.num("value", *v).str("unit", "ms");
        metrics.raw(&format!("layer.{i}_ms"), m.compact());
    }
    let samples: Vec<String> = values.iter().map(|v| num(*v)).collect();
    let mut o = Obj::new();
    o.str("workload", label)
        .raw("correct", "true".to_string())
        .int("attempted", values.len() as u64)
        .raw("note", "null".to_string())
        .raw("metrics", metrics.compact())
        .raw("samples", format!("[{}]", samples.join(", ")));
    o.compact()
}

/// The bytes JSON gives meaning to.
const MARKS: &[u8] = b"\"\\{}[]:,u-+.eE0";

/// `parse` on bytes that may no longer be UTF-8 — what a reader that
/// tolerates a damaged file hands it.
fn parse_bytes(bytes: &[u8]) -> Result<Value, String> {
    parse(&String::from_utf8_lossy(bytes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A report cut at any byte — which lands inside every escape, every
    /// `\uXXXX` and every multi-byte scalar it holds — is an `Err`, and
    /// one with a byte range deleted, duplicated or overwritten (with
    /// arbitrary bytes, then with JSON's own punctuation) returns.
    #[test]
    fn damaged_reports_are_values_or_errors_never_panics(
        label in string(),
        values in collection::vec(-1.0e6f64..1.0e6, 1..6),
        at in 0usize..1_000_000,
        len in 0usize..24,
        filler in collection::vec(0u8..=255, 0..8),
    ) {
        let doc = report(&label, &values).into_bytes();
        prop_assert!(parse_bytes(&doc).is_ok());
        for cut in 0..doc.len() {
            prop_assert!(parse_bytes(&doc[..cut]).is_err(), "prefix of {cut} bytes");
        }
        let start = at % doc.len();
        let end = (start + len).min(doc.len());
        let (head, range, tail) = (&doc[..start], &doc[start..end], &doc[end..]);
        let marks: Vec<u8> = filler.iter().map(|b| MARKS[*b as usize % MARKS.len()]).collect();
        for middle in [&[][..], &[range, range].concat(), &filler, &marks] {
            let _ = parse_bytes(&[head, middle, tail].concat());
        }
    }

    /// Any string survives `Obj::str` → `compact` → `parse`, as a key and
    /// as a value.
    #[test]
    fn strings_round_trip_through_the_emitter(s in string()) {
        let mut o = Obj::new();
        o.str(&s, &s);
        prop_assert_eq!(parse(&o.compact()), Ok(Value::Obj(vec![(s.clone(), Value::Str(s))])));
    }

    /// Every finite `f64` survives `num` → `parse` to the bit.
    #[test]
    fn finite_numbers_round_trip_bit_exactly(
        x in (0u64..=u64::MAX).prop_map(f64::from_bits).prop_filter("finite", |x| x.is_finite()),
    ) {
        let bits = parse(&num(x)).map(|v| v.as_f64().map(f64::to_bits));
        prop_assert_eq!(bits, Ok(Some(x.to_bits())));
    }
}
