//! Property tests: JSON engine and outreach format round-trips.

use daspos_hep::json::{parse, Value};
use daspos_outreach::formats::{OutreachFormat, SimpleKind, SimpleParticle, SimplifiedEvent};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_json(depth: u32) -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1.0e9..1.0e9f64).prop_map(Value::Number),
        "[ -~]{0,24}".prop_map(Value::String), // printable ASCII incl. quotes/backslashes
    ];
    leaf.prop_recursive(depth, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::btree_map("[a-zA-Z0-9_]{1,10}", inner, 0..6)
                .prop_map(|m| Value::Object(m.into_iter().collect::<BTreeMap<_, _>>())),
        ]
    })
}

fn arb_kind() -> impl Strategy<Value = SimpleKind> {
    prop_oneof![
        Just(SimpleKind::Track),
        Just(SimpleKind::Electron),
        Just(SimpleKind::Muon),
        Just(SimpleKind::Photon),
        Just(SimpleKind::Jet),
        Just(SimpleKind::V0),
    ]
}

fn arb_event() -> impl Strategy<Value = SimplifiedEvent> {
    (
        1u32..10_000,
        1u64..1_000_000,
        "[a-z]{2,8}",
        0.0..500.0f64,
        prop::collection::vec(
            (arb_kind(), 0.05..900.0f64, -5.0..5.0f64, -3.1..3.1f64, -1i8..=1, 0.0..2000.0f64),
            0..20,
        ),
    )
        .prop_map(|(run, event, experiment, met, objs)| SimplifiedEvent {
            run,
            event,
            experiment,
            met,
            objects: objs
                .into_iter()
                .map(|(kind, pt, eta, phi, charge, aux)| SimpleParticle {
                    kind,
                    pt,
                    eta,
                    phi,
                    charge,
                    aux,
                })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn json_value_round_trip(v in arb_json(3)) {
        let text = v.to_json();
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!(back, v);
    }

    #[test]
    fn json_parser_never_panics_on_noise(s in "[ -~]{0,128}") {
        let _ = parse(&s);
    }

    #[test]
    fn all_outreach_formats_round_trip_arbitrary_events(ev in arb_event()) {
        for fmt in [
            OutreachFormat::IgJson,
            OutreachFormat::EventXml,
            OutreachFormat::Compact,
        ] {
            let text = fmt.write(&ev);
            let back = fmt
                .read(&text)
                .unwrap_or_else(|e| panic!("{}: {e}\n{text}", fmt.name()));
            prop_assert_eq!(&back, &ev, "via {}", fmt.name());
        }
    }

    #[test]
    fn format_readers_never_panic_on_noise(s in "[ -~\n]{0,256}") {
        for fmt in [
            OutreachFormat::IgJson,
            OutreachFormat::EventXml,
            OutreachFormat::Compact,
        ] {
            let _ = fmt.read(&s);
        }
    }
}
