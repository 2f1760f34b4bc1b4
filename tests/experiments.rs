//! Integration: the paper's experiments hold their recorded shape.
//!
//! Each test asserts one "Shape holds" claim of EXPERIMENTS.md on the
//! deterministic result of `daspos::experiments`; claims another test
//! already enforces name that test in EXPERIMENTS.md instead. No test
//! here reads a clock: costs are work counts and bytes.

use daspos::experiments::{self, reduction, R1_EVENTS};
use daspos::prelude::*;
use daspos_metadata::sharing::PolicyStatus;

#[test]
fn t1_self_documentation_row_reads_y_for_atlas_and_cms_only() {
    let t1 = experiments::t1().expect("t1 runs");
    let row = t1.table.lines().find(|l| l.starts_with("self-documenting?")).expect("row");
    // Columns alice, atlas, cms, lhcb: ATLAS's XML and CMS's ig are
    // self-documenting, ALICE and LHCb are "?" in the report.
    assert_eq!(row, "self-documenting?\t?\tY\tY\t?");
    // And self-documentation is what costs the bytes: every
    // self-documenting carrier is larger than every one that is not.
    assert_eq!(t1.carriers.len(), 3);
    for (doc, doc_bytes) in t1.carriers.iter().filter(|(f, _)| f.self_documenting()) {
        for (bare, bare_bytes) in t1.carriers.iter().filter(|(f, _)| !f.self_documenting()) {
            let (doc, bare) = (doc.name(), bare.name());
            assert!(doc_bytes > bare_bytes, "{doc} {doc_bytes} vs {bare} {bare_bytes}");
        }
    }
}

#[test]
fn m1_cms_leads_every_rubric_and_policy_orders_sharing() {
    let m1 = experiments::m1();
    let cms = &m1.live.iter().find(|r| r.experiment == "cms").expect("cms").report;
    for row in &m1.live {
        let r = &row.report;
        assert!(cms.data_management >= r.data_management, "{}", row.experiment);
        assert!(cms.description >= r.description, "{}", row.experiment);
        assert!(cms.preservation >= r.preservation, "{}", row.experiment);
        assert!(cms.sharing >= r.sharing, "{}", row.experiment);
    }
    // The experiments whose policy is under discussion trail every
    // approved one in the sharing column.
    let (pending, approved): (Vec<_>, Vec<_>) =
        m1.live.iter().partition(|row| row.policy == Some(PolicyStatus::UnderDiscussion));
    assert_eq!(pending.len(), 2);
    for p in &pending {
        for a in &approved {
            assert!(p.report.sharing < a.report.sharing, "{} vs {}", p.experiment, a.experiment);
        }
    }
}

#[test]
fn w1_narrow_acceptance_drives_the_reduction_spread() {
    // Central Z events barely survive the skims of the narrow-acceptance
    // detectors (ALICE's central barrel, LHCb's forward arm), so their
    // raw/ntuple reduction dwarfs the general-purpose detectors'.
    let w1 = experiments::w1().expect("w1 runs");
    let factor = |e: Experiment| reduction(&w1.rows.iter().find(|(x, _)| *x == e).expect("row").1);
    let narrow = factor(Experiment::Alice).min(factor(Experiment::Lhcb));
    let general = factor(Experiment::Atlas).max(factor(Experiment::Cms));
    assert!(narrow > 10.0 * general, "narrow {narrow:.0}x vs general-purpose {general:.0}x");
}

#[test]
fn w2_conditions_dependencies_are_front_loaded() {
    let w2 = experiments::w2().expect("w2 runs");
    let lookups: Vec<u64> = w2.stages.iter().map(|s| s.lookups).collect();
    // generation, simulation, reconstruction, skim+ntuple.
    assert_eq!(lookups[0], 0);
    assert!(lookups[1] > 0 && lookups[2] > 0, "{lookups:?}");
    assert_eq!(lookups[3], 0);
    for s in &w2.stages {
        assert_eq!(s.round_trips, s.lookups, "database mode: every lookup is remote ({})", s.stage);
    }
    // Shipping the snapshot with the data removes the external service.
    assert_eq!(w2.shipped.lookups, 100);
    assert_eq!(w2.shipped.round_trips, 0);
}

#[test]
fn w3_completeness_falls_with_capture_discipline() {
    let w3 = experiments::w3().expect("w3 runs");
    let full = &w3.rows[0];
    assert_eq!((full.orphans, full.completeness), (0, 1.0));
    for pair in w3.rows.windows(2) {
        let (before, after) = (&pair[0], &pair[1]);
        assert!(after.completeness < before.completeness, "{} -> {}", before.label, after.label);
    }
    // With no capture only the 50 declared roots stay attributable.
    let none = w3.rows.last().expect("rows");
    assert_eq!(none.completeness, 50.0 / none.datasets as f64);
    assert_eq!(w3.lineage_steps, 6);
}

#[test]
fn r1_rivet_is_light_and_the_full_chain_is_heavy() {
    let r1 = experiments::r1().expect("r1 runs");
    let [bridge, smeared, chain] = &r1.outputs[..] else { panic!("three back ends") };
    assert_eq!(bridge.backend, "rivet-bridge");
    // RIVET and the smeared tier never touch detector software...
    for light in [bridge, smeared] {
        let c = &light.cost;
        let work = (c.events_simulated, c.events_reconstructed, c.conditions_lookups);
        assert_eq!(work, (0, 0, 0), "{}", light.backend);
    }
    // ...the full chain simulates and reconstructs every requested event
    // against the conditions database.
    let c = &chain.cost;
    assert_eq!((c.events_simulated, c.events_reconstructed), (R1_EVENTS, R1_EVENTS));
    assert!(c.conditions_lookups >= R1_EVENTS, "{} lookups", c.conditions_lookups);
    let bytes = [bridge, smeared, chain].map(|out| out.cost.bytes_touched);
    assert!(bytes[0] < bytes[1] && bytes[1] < bytes[2], "{bytes:?}");
    // Truth-level efficiency bounds the detector-level ones.
    let truth = bridge.signal_efficiency;
    assert!(truth >= smeared.signal_efficiency && truth >= chain.signal_efficiency);
}

#[test]
fn r2_one_front_end_serves_both_back_ends_in_agreement() {
    let r2 = experiments::r2().expect("r2 runs");
    assert_eq!(r2.points.len(), 2);
    for (mass, [bridge, chain]) in &r2.points {
        assert_eq!(bridge.backend, "rivet-bridge");
        assert!(chain.backend.starts_with("full-chain"), "{}", chain.backend);
        // At RIVET's cost: the bridge simulates nothing.
        assert_eq!(bridge.cost.events_simulated, 0);
        assert_eq!(chain.cost.events_simulated, chain.cost.events_generated);
        // Physics agreement up to detector losses.
        let (b, c) = (bridge.signal_efficiency, chain.signal_efficiency);
        assert!(b >= c && b - c < 0.05, "{mass} GeV: bridge {b} vs chain {c}");
    }
}

#[test]
fn r3_limits_track_the_efficiency() {
    let r3 = experiments::r3().expect("r3 runs");
    // The CLs limit is a falling function of efficiency alone here.
    let mut by_eff = r3.points.clone();
    by_eff.sort_by(|a, b| a.efficiency.total_cmp(&b.efficiency));
    for pair in by_eff.windows(2) {
        assert!(pair[1].limit_pb <= pair[0].limit_pb, "{:?}", pair);
    }
    // Below the 200 GeV signal region the efficiency collapses and the
    // limit is the scan's weakest by far.
    let (low, rest) = r3.points.split_first().expect("points");
    for p in rest {
        assert!(low.efficiency < 0.1 * p.efficiency, "{} GeV", p.mass);
        assert!(low.limit_pb > 10.0 * p.limit_pb, "{} GeV", p.mass);
    }
    // The falling model is excluded somewhere, and escapes at high mass.
    assert!(r3.points.iter().any(|p| p.excluded()));
    assert!(!r3.points.last().expect("points").excluded());
}

#[test]
fn h1_search_upload_dominates_the_size_distribution() {
    let h1 = experiments::h1().expect("h1 runs");
    assert_eq!(h1.sizes.len(), 6);
    assert!(h1.max > 100 * h1.median, "max {} vs median {}", h1.max, h1.median);
    let heavy = h1.sizes.iter().filter(|(_, s)| *s > 10 * h1.median).count();
    assert_eq!(heavy, 1, "one search upload makes the tail");
    // INSPIRE cross-links and the non-histogram ingestion paths work.
    assert!(h1.inspire_9006.is_some());
    assert!(h1.z_hits > 0);
    assert_eq!(h1.csv_values, 4);
}

#[test]
fn o1_one_converter_serves_every_experiment() {
    let o1 = experiments::o1().expect("o1 runs");
    assert_eq!(o1.rows.len(), 4);
    for r in &o1.rows {
        let name = r.experiment.name();
        assert_eq!(r.events, 60, "{name}");
        assert!(r.objects > 0, "{name}");
        // Self-documentation costs bytes; the compact carrier stays
        // within a small factor of the binary AOD.
        assert!(r.ig_bytes > r.compact_bytes && r.ig_bytes > r.aod_bytes, "{name}");
        assert!(r.compact_bytes < 2 * r.aod_bytes, "{name}");
    }
}

#[test]
fn p1_declarative_archives_survive_and_opaque_ones_do_not() {
    let p1 = experiments::p1().expect("p1 runs");
    assert_eq!(p1.fleet, 6);
    assert_eq!(p1.on_current, 4, "opaque binaries cannot re-execute declaratively");
    assert_eq!(p1.unmigrated, 0, "nothing survives a transition unmigrated");
    assert_eq!(p1.migrated.len(), 4);
    assert_eq!(p1.survivors(), 4, "every declarative archive survives: {:?}", p1.migrated);
    assert_eq!(p1.opaque_lost.len(), 2);
    assert!(p1.opaque_lost.iter().all(|name| name.ends_with("-opaque")), "{:?}", p1.opaque_lost);
}

#[test]
fn p2_production_archives_carry_the_whole_metadata_set() {
    let p2 = experiments::p2().expect("p2 runs");
    assert_eq!(p2.archives.len(), 4);
    for a in &p2.archives {
        for uc in &p2.use_cases {
            for section in uc.required_sections {
                assert!(a.sections.iter().any(|s| s == section), "{} lacks {section}", a.name);
            }
        }
        assert_eq!(a.served, p2.use_cases.len(), "{}", a.name);
        assert!(a.workflow_head.starts_with("# daspos-workflow"), "{}", a.name);
    }
}
