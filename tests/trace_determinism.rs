//! Trace determinism: the observability layer's *stable* rendering must
//! be byte-identical for a fixed seed regardless of engine choice or
//! thread count, and must keep matching the committed golden trace.
//!
//! Span paths are structural (derived from the chain topology and the
//! event count, never from scheduling), counters count work (which is
//! deterministic), and the stable rendering strips everything that
//! isn't — timestamps, durations, and gauges. So two runs of the same
//! workflow may interleave however they like and still produce the same
//! trace bytes.
//!
//! After an *intended* change to the span taxonomy or counter catalogue,
//! refresh the golden trace with
//!
//! ```text
//! DASPOS_GOLDEN_REFRESH=1 cargo test --test trace_determinism
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use daspos::obs::render_trace;
use daspos::prelude::*;
use daspos::workflow::chain_trace_coverage;

const GOLDEN_SEED: u64 = 20130908;
const GOLDEN_EVENTS: u64 = 32;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cms-z.trace.jsonl")
}

/// Run the fixed chain with observability on and return the stable trace.
fn trace_for(seed: u64, events: u64, threads: usize) -> String {
    let workflow = PreservedWorkflow::standard_z(Experiment::Cms, seed, events);
    let ctx = ExecutionContext::fresh(&workflow);
    let collector = Arc::new(MemoryCollector::new());
    let registry = Arc::new(MetricsRegistry::new());
    let opts = ExecOptions::new()
        .threads(threads)
        .with_obs(Obs::collecting(collector.clone(), registry.clone()));
    workflow.execute(&ctx, &opts).expect("chain executes");
    render_trace(&collector.sorted_records(), Some(&registry.snapshot()), true)
}

#[test]
fn stable_trace_is_identical_across_engines_and_thread_counts() {
    let sequential = trace_for(42, 200, 1);
    let pooled = trace_for(42, 200, 4);
    assert_eq!(
        sequential, pooled,
        "stable trace must not depend on the thread count"
    );
    // And across repeated runs of the same engine.
    assert_eq!(sequential, trace_for(42, 200, 1));

    // The trace covers every chain stage and carries the chunk spans the
    // runner emits (200 events = 4 chunks of 64/64/64/8).
    for needle in [
        "\"path\":\"execute/produce/chunk-00000\"",
        "\"path\":\"execute/produce/chunk-00003\"",
        "\"type\":\"counter\",\"name\":\"events.generated\",\"value\":200",
    ] {
        assert!(sequential.contains(needle), "missing {needle} in:\n{sequential}");
    }
}

#[test]
fn trace_covers_every_chain_stage_and_round_trips() {
    let workflow = PreservedWorkflow::standard_z(Experiment::Cms, 9, 96);
    let ctx = ExecutionContext::fresh(&workflow);
    let collector = Arc::new(MemoryCollector::new());
    let registry = Arc::new(MetricsRegistry::new());
    let opts =
        ExecOptions::sequential().with_obs(Obs::collecting(collector.clone(), registry.clone()));
    workflow.execute(&ctx, &opts).expect("chain executes");

    let records = collector.sorted_records();
    let missing = chain_trace_coverage(&records);
    assert!(missing.is_empty(), "stages missing from trace: {missing:?}");

    // The JSONL parses back, and parsed spans agree with the records.
    let jsonl = render_trace(&records, Some(&registry.snapshot()), true);
    let values = daspos::obs::parse_jsonl(&jsonl).expect("trace parses");
    let span_count = values
        .iter()
        .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("span"))
        .count();
    assert_eq!(span_count, records.len());

    // The summary table lists the top-level stages with their wall times.
    let summary = TraceSummary::from_records(&records).to_text();
    for stage in ["execute/produce", "execute/skim", "execute/ntuple"] {
        assert!(summary.contains(stage), "summary missing {stage}:\n{summary}");
    }
}

/// The reco and detsim sub-stage gauges are recorded and fit inside the
/// stage gauge that encloses them; like every gauge they stay out of the
/// stable trace.
#[test]
fn sub_stage_gauges_fit_inside_their_stage() {
    for (workflow, threads) in [
        (PreservedWorkflow::standard_z(Experiment::Cms, 11, 96), 1),
        (PreservedWorkflow::standard_charm(11, 96), 2),
    ] {
        let collector = Arc::new(MemoryCollector::new());
        let registry = Arc::new(MetricsRegistry::new());
        let opts = ExecOptions::new()
            .threads(threads)
            .with_obs(Obs::collecting(collector.clone(), registry.clone()));
        workflow
            .execute(&ExecutionContext::fresh(&workflow), &opts)
            .expect("chain executes");
        let snap = registry.snapshot();
        for (stage, parts) in [
            (
                "time.reconstruct_ns",
                &[
                    "time.reco.tracking_ns",
                    "time.reco.clustering_ns",
                    "time.reco.identify_ns",
                    "time.reco.jets_ns",
                    "time.reco.vertexing_ns",
                ][..],
            ),
            (
                "time.simulate_ns",
                &[
                    "time.detsim.tracker_ns",
                    "time.detsim.calo_ns",
                    "time.detsim.noise_ns",
                ][..],
            ),
        ] {
            let total = snap.gauge(stage);
            let mut sum = 0;
            for part in parts {
                let ns = snap.gauge(part);
                assert!(snap.gauges.contains_key(*part), "{part} not recorded");
                assert!(ns >= 0, "{part} = {ns}");
                sum += ns;
            }
            assert!(sum > 0, "no {stage} sub-stage time recorded");
            assert!(sum <= total, "{stage}: sub-stages {sum} ns > {total} ns");
        }
        let stable = render_trace(&collector.sorted_records(), Some(&snap), true);
        assert!(!stable.contains("time."), "a timing gauge leaked into the stable trace");
    }
}

#[test]
fn observability_off_is_observable_nowhere() {
    // A disabled bundle must not alter outputs: run with and without.
    let workflow = PreservedWorkflow::standard_z(Experiment::Cms, 5, 64);
    let plain = workflow
        .execute(&ExecutionContext::fresh(&workflow), &ExecOptions::sequential())
        .expect("runs");
    let collector = Arc::new(MemoryCollector::new());
    let registry = Arc::new(MetricsRegistry::new());
    let opts =
        ExecOptions::sequential().with_obs(Obs::collecting(collector, registry));
    let observed = workflow
        .execute(&ExecutionContext::fresh(&workflow), &opts)
        .expect("runs");
    assert_eq!(plain.tier_bytes, observed.tier_bytes);
    assert_eq!(plain.ntuple, observed.ntuple);
    assert_eq!(plain.analysis_results, observed.analysis_results);
}

#[test]
fn golden_trace_is_reproduced_byte_for_byte() {
    let path = golden_path();
    let trace = trace_for(GOLDEN_SEED, GOLDEN_EVENTS, 1);

    if std::env::var_os("DASPOS_GOLDEN_REFRESH").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, &trace).expect("write golden trace");
        eprintln!("golden trace refreshed at {}", path.display());
        return;
    }

    assert!(
        path.exists(),
        "golden trace missing — generate it once with \
         DASPOS_GOLDEN_REFRESH=1 cargo test --test trace_determinism"
    );
    let stored = std::fs::read_to_string(&path).expect("read golden trace");
    assert_eq!(
        stored, trace,
        "golden trace drifted — if the span taxonomy or counter catalogue \
         changed intentionally, refresh with DASPOS_GOLDEN_REFRESH=1"
    );
}
