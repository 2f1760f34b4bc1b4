//! Property test: a rendered trace reads back through `parse_jsonl` with
//! every span path, field key and value, and counter name intact —
//! quotes, backslashes, control characters and non-ASCII included.

use daspos_obs::{parse_jsonl, render_trace, MetricsSnapshot, SpanRecord};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strings biased toward the characters an escaper can get wrong.
fn arb_text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        prop_oneof![
            Just('"'),
            Just('\\'),
            Just('/'),
            Just('\n'),
            Just('\r'),
            Just('\t'),
            Just('\u{0}'),
            Just('\u{1f}'),
            Just('\u{7f}'),
            Just('é'),
            Just('\u{2028}'),
            Just('\u{1F600}'),
        ],
        any::<char>(),
        (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).expect("astral scalar")),
        (b'a'..=b'z').prop_map(char::from),
    ];
    prop::collection::vec(ch, 0..16).prop_map(|cs| cs.into_iter().collect())
}

fn arb_span() -> impl Strategy<Value = SpanRecord> {
    (
        arb_text(),
        any::<u64>(),
        any::<u64>(),
        prop::collection::btree_map(arb_text(), arb_text(), 0..4),
    )
        .prop_map(|(path, start_ns, duration_ns, fields)| SpanRecord {
            path,
            start_ns,
            duration_ns,
            fields: fields.into_iter().collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rendered_traces_parse_back_field_for_field(
        spans in prop::collection::vec(arb_span(), 0..6),
        // Counter values stay within f64's exact-integer range.
        counters in prop::collection::btree_map(arb_text(), 0u64..(1 << 53), 0..6),
        gauges in prop::collection::btree_map(arb_text(), -(1i64 << 53)..(1 << 53), 0..4),
        stable in any::<bool>(),
    ) {
        let snapshot = MetricsSnapshot { counters: counters.clone(), gauges: gauges.clone() };
        let text = render_trace(&spans, Some(&snapshot), stable);
        let values = parse_jsonl(&text).map_err(TestCaseError::fail)?;
        let gauge_lines = if stable { 0 } else { gauges.len() };
        prop_assert_eq!(values.len(), spans.len() + counters.len() + gauge_lines);

        let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
        sorted.sort_by(|a, b| a.path.cmp(&b.path));
        for (record, value) in sorted.iter().zip(&values) {
            prop_assert_eq!(value.get("type").and_then(|v| v.as_str()), Some("span"));
            prop_assert_eq!(value.get("path").and_then(|v| v.as_str()), Some(record.path.as_str()));
            let fields: BTreeMap<&str, &str> = record
                .fields
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let parsed = value.get("fields");
            for (k, v) in &fields {
                prop_assert_eq!(parsed.and_then(|f| f.get(k)).and_then(|v| v.as_str()), Some(*v));
            }
            if stable {
                prop_assert!(value.get("start_ns").is_none());
            } else {
                prop_assert!(value.get("dur_ns").is_some());
            }
        }

        let metrics = counters
            .iter()
            .map(|(name, v)| ("counter", name, *v as f64))
            .chain(gauges.iter().filter(|_| !stable).map(|(name, v)| ("gauge", name, *v as f64)));
        for ((kind, name, v), value) in metrics.zip(&values[spans.len()..]) {
            prop_assert_eq!(value.get("type").and_then(|t| t.as_str()), Some(kind));
            prop_assert_eq!(value.get("name").and_then(|n| n.as_str()), Some(name.as_str()));
            prop_assert_eq!(value.get("value").and_then(|n| n.as_f64()), Some(v));
        }
    }
}
