//! Property tests: the columnar (`DPCF`) tier must be observationally
//! equivalent to the row codec — byte-identical round trips on clean
//! input, identical skim verdicts and survivor events under any
//! selection × slim combination, and detected-or-harmless behaviour under
//! proptest-generated truncations and bit flips. `prop_stream.rs` pins
//! stream-vs-batch equivalence for the row format; this suite pins
//! row-vs-columnar equivalence one layer up.

use bytes::Bytes;
use daspos_hep::{EventHeader, FourVector};
use daspos_reco::objects::{AodEvent, Electron, Jet, Met, Muon, Photon, TwoProngCandidate};
use daspos_tiers::codec::Encodable;
use daspos_tiers::colnar::fnv64_wide;
use daspos_tiers::skim::{skim_slim_streaming_with, MassHypothesis, Selection, SlimSpec};
use daspos_tiers::{
    encode_columnar_parallel, skim_slim_columnar, skim_slim_columnar_with, ColumnarFile,
};
use proptest::prelude::*;

fn arb_header() -> impl Strategy<Value = EventHeader> {
    (1u32..1000, 1u32..100, 1u64..1_000_000).prop_map(|(r, l, e)| EventHeader::new(r, l, e))
}

fn arb_fourvec() -> impl Strategy<Value = FourVector> {
    (
        -500.0..500.0f64,
        -500.0..500.0f64,
        -500.0..500.0f64,
        0.0..1000.0f64,
    )
        .prop_map(|(px, py, pz, e)| FourVector::new(px, py, pz, e))
}

prop_compose! {
    fn arb_aod()(
        header in arb_header(),
        electrons in prop::collection::vec(
            (arb_fourvec(), prop::bool::ANY, 0.2..3.0f64, 0.0..5.0f64), 0..5),
        muons in prop::collection::vec(
            (arb_fourvec(), prop::bool::ANY, 1u8..6, 0.0..5.0f64), 0..5),
        photons in prop::collection::vec((arb_fourvec(), 0.0..5.0f64), 0..5),
        jets in prop::collection::vec((arb_fourvec(), 1u32..40, 0.0..1.0f64), 0..8),
        met in (-200.0..200.0f64, -200.0..200.0f64),
        cands in prop::collection::vec(
            (arb_fourvec(), 0.0..500.0f64, 0.1..50.0f64, -4.0..4.0f64,
             0.1..3.0f64, 0.1..3.0f64, 0.1..3.0f64, 0.0..0.01f64, 0u32..20, 0u32..20),
            0..4),
        n_tracks in 0u32..500
    ) -> AodEvent {
        let mut ev = AodEvent::new(header);
        for (momentum, pos, e_over_p, isolation) in electrons {
            ev.electrons.push(Electron {
                momentum, charge: if pos { 1 } else { -1 }, e_over_p, isolation,
            });
        }
        for (momentum, pos, n_stations, isolation) in muons {
            ev.muons.push(Muon {
                momentum, charge: if pos { 1 } else { -1 }, n_stations, isolation,
            });
        }
        for (momentum, isolation) in photons {
            ev.photons.push(Photon { momentum, isolation });
        }
        for (momentum, n_constituents, em_fraction) in jets {
            ev.jets.push(Jet { momentum, n_constituents, em_fraction });
        }
        ev.met = Met { mex: met.0, mey: met.1 };
        for (vertex, flight_xy, pt, eta, m1, m2, m3, t, i, j) in cands {
            ev.candidates.push(TwoProngCandidate {
                vertex, flight_xy, pt, eta,
                mass_pipi: m1, mass_ppi: m2, mass_kpi: m3,
                proper_time_d0_ns: t, track_indices: (i, j),
            });
        }
        ev.n_tracks = n_tracks;
        ev
    }
}

/// The selection zoo the equivalence tests sample from — every variant
/// of [`Selection`] appears at least once, including the combinators.
fn selections() -> Vec<Selection> {
    vec![
        Selection::All,
        Selection::NLeptons { n: 1, pt: 5.0 },
        Selection::NLeptons { n: 2, pt: 10.0 },
        Selection::NPhotons { n: 1, pt: 20.0 },
        Selection::NJets { n: 2, pt: 30.0 },
        Selection::MetAbove(50.0),
        Selection::CandidateMass {
            hypothesis: MassHypothesis::KPi,
            mass: 1.865,
            window: 0.5,
        },
        Selection::NTracksAtLeast(100),
        Selection::And(
            Box::new(Selection::NLeptons { n: 1, pt: 5.0 }),
            Box::new(Selection::MetAbove(20.0)),
        ),
        Selection::Or(
            Box::new(Selection::NJets { n: 1, pt: 10.0 }),
            Box::new(Selection::NTracksAtLeast(50)),
        ),
        Selection::Not(Box::new(Selection::MetAbove(30.0))),
    ]
}

/// The slim shapes the equivalence tests sample from.
fn slims() -> Vec<SlimSpec> {
    vec![
        SlimSpec::keep_all(),
        SlimSpec::leptons_only(),
        SlimSpec::candidates_only(),
        SlimSpec {
            keep_electrons: false,
            keep_muons: true,
            keep_photons: true,
            max_jets: 1,
            keep_candidates: false,
        },
    ]
}

/// A v2 file holding the same columns as the v1 file `v1` in raw (tag 0)
/// frames: each v1 payload behind a zero tag byte, the table's offsets,
/// lengths and digests rewritten to match.
fn raw_frames_v2(v1: &Bytes) -> Bytes {
    const HEADER: usize = 12;
    const ENTRY: usize = 17;
    let base = HEADER + 10 * ENTRY;
    let mut out = v1[..base].to_vec();
    out[4..6].copy_from_slice(&2u16.to_le_bytes());
    let mut frames = Vec::new();
    for i in 0..10 {
        let e = HEADER + i * ENTRY;
        let off = u32::from_le_bytes(v1[e + 1..e + 5].try_into().unwrap()) as usize;
        let len = u32::from_le_bytes(v1[e + 5..e + 9].try_into().unwrap()) as usize;
        let mut frame = vec![0u8];
        frame.extend_from_slice(&v1[base + off..base + off + len]);
        out[e + 1..e + 5].copy_from_slice(&(frames.len() as u32).to_le_bytes());
        out[e + 5..e + 9].copy_from_slice(&(frame.len() as u32).to_le_bytes());
        out[e + 9..e + 17].copy_from_slice(&fnv64_wide(&frame).to_le_bytes());
        frames.extend_from_slice(&frame);
    }
    out.extend_from_slice(&frames);
    Bytes::from(out)
}

/// A v2 file from a writer that still emitted the legacy dictionary and
/// RLE frames (40 events: one identical muon each, MET alternating
/// between two values, seven tracks).
const LEGACY_V2: &[u8] = include_bytes!("../../../tests/golden/dpcf-v2-dict-rle.dpcf");

/// The columnar skim of `file`, with and without the survivor callback,
/// against the streaming row skim of the same `events`: same survivors
/// and counts, the same output bytes either way, and those bytes exactly
/// what the writer makes of the survivors.
fn assert_canonical_skim(
    file: &Bytes,
    events: &[AodEvent],
    selection: &Selection,
    slim: &SlimSpec,
) -> Result<(), TestCaseError> {
    let mut row_survivors = Vec::new();
    let (_, row_report) =
        skim_slim_streaming_with(&AodEvent::encode_events(events), selection, slim, |ev| {
            row_survivors.push(ev.clone());
        })
        .expect("row skim succeeds on a clean file");
    let mut col_survivors = Vec::new();
    let (col_out, col_report) = skim_slim_columnar_with(file, selection, slim, None, |ev| {
        col_survivors.push(ev.clone());
    })
    .expect("columnar skim succeeds on a clean file");
    let (plain_out, _) =
        skim_slim_columnar(file, selection, slim, None).expect("columnar skim succeeds");
    prop_assert_eq!(row_report.events_out, col_report.events_out);
    prop_assert_eq!(&row_survivors, &col_survivors);
    prop_assert_eq!(&plain_out, &col_out);
    prop_assert_eq!(&col_out, &ColumnarFile::from_rows(&col_survivors));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The skim copies a kept record's encoded bytes when its input
    // predecessor was kept too and re-codes the rest, so its output must
    // stay canonical across exactly what that rule turns on: runs of
    // equal values (one-byte deltas), rows without entries, survivors at
    // the first and the last row, gaps, and every jet cap — over v2, v1
    // and raw-frame inputs of the same events and over the legacy
    // dictionary/RLE file.
    #[test]
    fn columnar_skim_is_canonical_across_runs_gaps_caps_and_encodings(
        picks in prop::collection::vec((0usize..4, prop::bool::ANY), 2..40),
        templates in prop::collection::vec(arb_aod(), 4)
    ) {
        // Events drawn from four templates (one stripped of electrons and
        // jets), so equal records repeat; the kept rows carry 100 tracks,
        // and the first and last rows are always kept.
        let last = picks.len() - 1;
        let events: Vec<AodEvent> = picks.iter().enumerate().map(|(i, &(t, kept))| {
            let mut ev = templates[t].clone();
            if t == 3 {
                ev.electrons.clear();
                ev.jets.clear();
            }
            ev.header = EventHeader::new(194_270, 12, 900_000 + i as u64);
            ev.n_tracks = if kept || i == 0 || i == last { 100 } else { 0 };
            ev
        }).collect();
        let selection = Selection::NTracksAtLeast(100);
        let max_jets = events.iter().map(|ev| ev.jets.len() as u32).max().unwrap_or(0);
        let v1 = ColumnarFile::from_rows_v1(&events);
        for file in [ColumnarFile::from_rows(&events), raw_frames_v2(&v1), v1] {
            for cap in (0..=max_jets + 1).chain([u32::MAX]) {
                let slim = SlimSpec { max_jets: cap, ..SlimSpec::keep_all() };
                assert_canonical_skim(&file, &events, &selection, &slim)?;
            }
        }
        let legacy = Bytes::from_static(LEGACY_V2);
        let legacy_events = ColumnarFile::parse(&legacy)
            .and_then(|f| f.to_rows())
            .expect("legacy file decodes");
        for selection in [Selection::All, Selection::MetAbove(10.0), Selection::MetAbove(10.0).not()] {
            for slim in [SlimSpec::keep_all(), SlimSpec::leptons_only(), slims()[3]] {
                assert_canonical_skim(&legacy, &legacy_events, &selection, &slim)?;
            }
        }
    }

    // Clean round trip: rows → columnar → rows is the identity, and
    // re-encoding the recovered rows reproduces the columnar file
    // byte-for-byte (the encoding is canonical).
    #[test]
    fn columnar_round_trip_is_byte_identical(
        events in prop::collection::vec(arb_aod(), 0..10)
    ) {
        let columnar = ColumnarFile::from_rows(&events);
        let file = ColumnarFile::parse(&columnar).expect("clean file parses");
        prop_assert_eq!(file.n_rows() as usize, events.len());
        let back = file.to_rows().expect("clean file decodes");
        prop_assert_eq!(&back, &events);
        prop_assert_eq!(ColumnarFile::from_rows(&back), columnar);
        // And the row codec sees the same physics after the detour.
        let row_file = AodEvent::encode_events(&events);
        prop_assert_eq!(AodEvent::encode_events(&back), row_file);
    }

    // The streaming row skim and the columnar pushdown skim must agree
    // on every selection × slim pair: same survivor events in the same
    // order, same report counts, and output files that decode to the
    // same slimmed events.
    #[test]
    fn columnar_skim_matches_streaming_skim(
        events in prop::collection::vec(arb_aod(), 0..12),
        sel_idx in 0usize..11,
        slim_idx in 0usize..4
    ) {
        let selection = &selections()[sel_idx];
        let slim = &slims()[slim_idx];

        let row_file = AodEvent::encode_events(&events);
        let mut row_survivors = Vec::new();
        let (row_out, row_report) =
            skim_slim_streaming_with(&row_file, selection, slim, |ev| {
                row_survivors.push(ev.clone());
            })
            .expect("row skim succeeds on a clean file");

        let columnar = ColumnarFile::from_rows(&events);
        let mut col_survivors = Vec::new();
        let (col_out, col_report) =
            skim_slim_columnar_with(&columnar, selection, slim, None, |ev| {
                col_survivors.push(ev.clone());
            })
            .expect("columnar skim succeeds on a clean file");

        prop_assert_eq!(row_report.events_in, col_report.events_in);
        prop_assert_eq!(row_report.events_out, col_report.events_out);
        prop_assert_eq!(&row_survivors, &col_survivors);
        // Both output files decode to the same slimmed survivors.
        let row_decoded = AodEvent::decode_events(&row_out).expect("row output decodes");
        let col_decoded = ColumnarFile::parse(&col_out)
            .and_then(|f| f.to_rows())
            .expect("columnar output decodes");
        prop_assert_eq!(&row_decoded, &row_survivors);
        prop_assert_eq!(&col_decoded, &col_survivors);
        // And the columnar output is canonical: the bytes the writer
        // produces for the survivors from scratch.
        prop_assert_eq!(&col_out, &ColumnarFile::from_rows(&col_survivors));
    }

    // Losing any suffix must be detected at parse time — the column
    // table declares every frame's extent, so a truncated file can
    // never tile correctly.
    #[test]
    fn columnar_truncations_always_error(
        events in prop::collection::vec(arb_aod(), 1..6),
        cut in 1usize..400
    ) {
        let columnar = ColumnarFile::from_rows(&events);
        let cut = cut.min(columnar.len());
        let truncated = columnar.slice(0..columnar.len() - cut);
        prop_assert!(
            ColumnarFile::parse(&truncated).is_err(),
            "truncated columnar file parsed (lost {cut} bytes)"
        );
    }

    // A single flipped bit is detected-or-harmless: decoding either
    // errors or yields the pristine events, and the pushdown skim never
    // panics on the damaged bytes.
    #[test]
    fn columnar_bit_flips_are_detected_or_harmless(
        events in prop::collection::vec(arb_aod(), 1..6),
        offset in 0usize..8192,
        bit in 0u8..8
    ) {
        let columnar = ColumnarFile::from_rows(&events);
        let mut flipped = columnar.to_vec();
        let offset = offset % flipped.len();
        flipped[offset] ^= 1 << bit;
        let flipped = Bytes::from(flipped);

        let verdict = ColumnarFile::parse(&flipped).and_then(|f| f.to_rows());
        if let Ok(back) = verdict {
            prop_assert_eq!(&back, &events, "flip at {} slipped through undetected", offset);
        }
        // The skim must fail cleanly or agree with pristine — either
        // way it returns rather than panicking.
        let _ = skim_slim_columnar(
            &flipped,
            &Selection::NLeptons { n: 1, pt: 5.0 },
            &SlimSpec::leptons_only(),
            None,
        );
    }

    // Backward compat: a v1 (raw-frames) file written today must decode
    // to the same events as the v2 encoding of the same rows, and the
    // v2 file must never be larger than its raw-frame ancestor beyond
    // the 1-byte-per-column tag overhead.
    #[test]
    fn v1_files_decode_identically_to_v2(
        events in prop::collection::vec(arb_aod(), 0..10)
    ) {
        let v1 = ColumnarFile::from_rows_v1(&events);
        let v2 = ColumnarFile::from_rows(&events);
        let from_v1 = ColumnarFile::parse(&v1).and_then(|f| f.to_rows())
            .expect("v1 decodes");
        let from_v2 = ColumnarFile::parse(&v2).and_then(|f| f.to_rows())
            .expect("v2 decodes");
        prop_assert_eq!(&from_v1, &events);
        prop_assert_eq!(&from_v2, &events);
        // The writer keeps raw as the floor: worst case is raw
        // frames plus one tag byte for each of the ten columns.
        prop_assert!(v2.len() <= v1.len() + 10);
    }

    // Redundancy-biased events (tiny value palettes, constant runs,
    // incrementing headers) push both the delta frames and the counts
    // blocks' run mode; whichever of delta or raw each column keeps, the
    // file must round-trip exactly and re-encode canonically.
    #[test]
    fn redundancy_biased_files_round_trip_across_encodings(
        n in 1usize..200,
        palette in 1u32..5,
        base in 0u64..1_000_000
    ) {
        let events: Vec<AodEvent> = (0..n).map(|i| {
            let v = i as u32 % palette;
            let mut ev = AodEvent::new(EventHeader::new(7, 3, base + i as u64));
            ev.met = Met { mex: f64::from(v) * 2.5, mey: -1.0 };
            ev.n_tracks = v;
            if v == 0 {
                ev.muons.push(Muon {
                    momentum: FourVector::new(1.0, 2.0, 3.0, 4.0),
                    charge: 1,
                    n_stations: 3,
                    isolation: 0.0,
                });
            }
            ev
        }).collect();
        let file = ColumnarFile::from_rows(&events);
        let back = ColumnarFile::parse(&file).and_then(|f| f.to_rows())
            .expect("biased file decodes");
        prop_assert_eq!(&back, &events);
        prop_assert_eq!(ColumnarFile::from_rows(&back), file);
    }

    // The worker-pool column fan-out is pure plumbing: the encode must
    // be byte-identical to the sequential path at any thread count.
    #[test]
    fn parallel_column_paths_match_sequential(
        events in prop::collection::vec(arb_aod(), 0..10),
        threads in 1usize..5
    ) {
        let file = ColumnarFile::from_rows(&events);
        prop_assert_eq!(encode_columnar_parallel(&events, threads), file);
    }
}
