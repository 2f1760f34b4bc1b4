//! Integration: the Level-2 outreach pipeline across all experiments.

use daspos::prelude::*;
use daspos_outreach::convert::{convert_aod, convert_aod_for_d0_class};
use daspos_outreach::display::render_svg;
use daspos_outreach::experiments::{render_table1, table1};
use daspos_outreach::formats::{OutreachFormat, SimpleKind};
use daspos_outreach::geometry::GeometryDescription;
use daspos_outreach::masterclass::{D0LifetimeExercise, Masterclass, V0Finder, WzCounting};

#[test]
fn common_converter_serves_all_four_experiments() {
    // O1: one thin converter, one display, four detectors.
    for experiment in Experiment::all() {
        let wf = PreservedWorkflow::standard_z(experiment, 60, 30);
        let out = wf.execute(&ExecutionContext::fresh(&wf), &ExecOptions::default()).expect("runs");
        let geometry = GeometryDescription::from_detector(&experiment.detector());
        for aod in out.aod_events.iter().take(5) {
            let simple = convert_aod(aod, experiment.name(), 0);
            // Every carrier round-trips the converted event.
            for fmt in [
                OutreachFormat::IgJson,
                OutreachFormat::EventXml,
                OutreachFormat::Compact,
            ] {
                let text = fmt.write(&simple);
                let back = fmt.read(&text).unwrap_or_else(|e| {
                    panic!("{} via {}: {e}", experiment.name(), fmt.name())
                });
                assert_eq!(back, simple);
            }
            // And the common display renders it.
            let svg = render_svg(&simple, &geometry, 400);
            assert!(svg.contains("</svg>"));
        }
    }
}

#[test]
fn wz_masterclass_on_real_production() {
    // The ATLAS/CMS masterclass run on actual simulated+reconstructed Z
    // events: the Z count dominates.
    let wf = PreservedWorkflow::standard_z(Experiment::Atlas, 404, 250);
    let out = wf.execute(&ExecutionContext::fresh(&wf), &ExecOptions::default()).expect("runs");
    let events: Vec<_> = out
        .aod_events
        .iter()
        .map(|a| convert_aod(a, "atlas", 0))
        .collect();
    let result = WzCounting.run(&events);
    let z = result.count("Z-candidates").unwrap();
    let w = result.count("W-candidates").unwrap();
    assert!(z > 50, "only {z} Z candidates from 250 Z events");
    assert!(z > w, "Z sample must be Z-dominated: z {z}, w {w}");
}

#[test]
fn d0_masterclass_measures_the_lifetime_from_the_chain() {
    let wf = PreservedWorkflow::standard_charm(2024, 12000);
    let out = wf.execute(&ExecutionContext::fresh(&wf), &ExecOptions::default()).expect("runs");
    let events: Vec<_> = out
        .aod_events
        .iter()
        .map(|a| convert_aod_for_d0_class(a, "lhcb"))
        .filter(|e| !e.objects.is_empty())
        .collect();
    let result = D0LifetimeExercise.run(&events);
    let tau = result.measurement("lifetime-ps").expect("measured");
    // The slope method carries sizeable statistical error at classroom
    // sample sizes; require the right scale, not a precision match.
    assert!(
        (tau - 0.410).abs() < 0.20,
        "classroom lifetime {tau} ps vs PDG 0.410"
    );
}

#[test]
fn v0_masterclass_finds_k0s_from_the_chain() {
    let wf = {
        let mut wf = PreservedWorkflow::standard_z(Experiment::Alice, 555, 800);
        wf.process = daspos_hep::event::ProcessKind::Strange;
        wf.skim = daspos_tiers::Selection::All;
        wf.slim = daspos_tiers::SlimSpec::keep_all();
        wf
    };
    let out = wf.execute(&ExecutionContext::fresh(&wf), &ExecOptions::default()).expect("runs");
    let events: Vec<_> = out
        .aod_events
        .iter()
        .map(|a| convert_aod(a, "alice", 0))
        .collect();
    let n_v0 = events
        .iter()
        .flat_map(|e| e.of_kind(SimpleKind::V0))
        .count();
    assert!(n_v0 > 20, "only {n_v0} V0 objects");
    let result = V0Finder.run(&events);
    let peak = result.measurement("k0s-mass-gev").expect("peak");
    assert!((peak - 0.4976).abs() < 0.03, "K0s peak at {peak}");
}

#[test]
fn table1_matrix_is_renderable_and_complete() {
    let text = render_table1();
    for name in ["alice", "atlas", "cms", "lhcb"] {
        assert!(text.contains(name), "missing column {name}");
    }
    // All three implemented formats appear somewhere in the matrix.
    for fmt in ["ig", "event-xml", "compact"] {
        assert!(text.contains(fmt), "missing format {fmt}");
    }
    // The matrix's self-documentation row is consistent with the format
    // implementations (checked per stack).
    for stack in table1() {
        if let Some(claim) = stack.self_documenting {
            let any = stack
                .data_formats
                .iter()
                .any(OutreachFormat::self_documenting);
            assert_eq!(claim, any, "{} claim mismatch", stack.experiment.name());
        }
    }
}

#[test]
fn geometry_descriptions_differ_per_experiment_but_one_display_reads_all() {
    let geometries: Vec<_> = Experiment::all()
        .into_iter()
        .map(|e| GeometryDescription::from_detector(&e.detector()))
        .collect();
    for i in 0..geometries.len() {
        for j in (i + 1)..geometries.len() {
            assert_ne!(geometries[i], geometries[j]);
        }
    }
    // JSON form parses back through the generic JSON module for each.
    for geo in &geometries {
        let parsed = daspos_hep::json::parse(&geo.to_json()).expect("valid json");
        assert!(parsed.get("volumes").is_some());
    }
}
