//! `chain`: the validation-fleet replay. Each unit re-executes two
//! preserved workflows with the sequential engine — a CMS Z production
//! and an LHCb charm production — from a fresh execution context, and
//! checks that the skim file, ntuple and analysis results reproduce the
//! set-up execution bit for bit.

use std::sync::Arc;
use std::time::Instant;

use daspos::obs::{MemoryCollector, MetricsRegistry};
use daspos::prelude::{ExecOptions, ExecutionContext, Experiment, PreservedWorkflow};
use daspos_tiers::codec::fnv64;

use crate::speed::Gauge;
use crate::{ensure, latency_metrics, ntuple_digest, spans, stats, Mismatch, Outcome, Rng, Run};

/// Events per replayed workflow (within one runner chunk).
pub const EVENTS: u64 = 32;
/// Distinct replay pairs a run cycles through, so that one run averages
/// over 1024 different events rather than one seed's few.
pub const PAIRS: usize = 16;
/// How replay time follows the speed kernel (`speed.rs`): in step.
pub const SPEED_SENSITIVITY: f64 = 1.0;

/// The replay pairs of a run, seeded from the run seed: each a CMS Z
/// and an LHCb charm workflow.
pub fn workflows(seed: u64) -> Vec<[PreservedWorkflow; 2]> {
    let mut rng = Rng::new(seed);
    (0..PAIRS)
        .map(|_| {
            [
                PreservedWorkflow::standard_z(Experiment::Cms, rng.next_u64() >> 1, EVENTS),
                PreservedWorkflow::standard_charm(rng.next_u64() >> 1, EVENTS),
            ]
        })
        .collect()
}

/// What a replay must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    pub skim: u64,
    pub ntuple: u64,
    pub results: u64,
}

/// One replay's outputs, reduced to what the benchmark checks and counts.
pub struct Replay {
    pub digests: Digests,
    pub events: u64,
    /// RAW + AOD + skim bytes written.
    pub tier_bytes: u64,
}

/// Re-execute `wf` from a fresh context.
pub fn replay(wf: &PreservedWorkflow, opts: &ExecOptions) -> Result<Replay, String> {
    let ctx = ExecutionContext::fresh(wf);
    let out = wf.execute(&ctx, opts).map_err(|e| e.to_string())?;
    let skim = ctx
        .catalog
        .get(out.skim_dataset)
        .map_err(|e| e.to_string())?;
    let mut skim_digest = fnv64(&[]);
    for data in skim.file_data() {
        skim_digest ^= fnv64(data);
    }
    Ok(Replay {
        digests: Digests {
            skim: skim_digest,
            ntuple: ntuple_digest(&out.ntuple),
            results: fnv64(out.results_to_text().as_bytes()),
        },
        events: wf.n_events,
        tier_bytes: out
            .tier_bytes
            .iter()
            .filter(|(tier, _, _)| matches!(tier.as_str(), "raw" | "aod" | "skim"))
            .map(|(_, bytes, _)| bytes)
            .sum(),
    })
}

/// Check a replay against the set-up execution; the fault hook spoils
/// the ntuple digest of replay `index`.
pub fn check(run: &Run, index: u64, reference: &Digests, got: &Replay) -> Result<(), Mismatch> {
    let mut digests = got.digests;
    if run.corrupts(index) {
        digests.ntuple ^= 1;
    }
    ensure(digests == *reference, || {
        format!("replay {index} reproduced {digests:?}, set-up gave {reference:?}")
    })
}

/// The set-up: one reference execution of each workflow.
fn reference(wfs: &[[PreservedWorkflow; 2]]) -> Result<Vec<[Digests; 2]>, String> {
    let opts = ExecOptions::sequential();
    wfs.iter()
        .map(|[z, charm]| Ok([replay(z, &opts)?.digests, replay(charm, &opts)?.digests]))
        .collect()
}

/// Set up `times` times; the median set-up time at the reference
/// speed and the last set-up.
fn set_up(
    out: &mut Outcome,
    wfs: &[[PreservedWorkflow; 2]],
    times: usize,
) -> Result<(f64, Vec<[Digests; 2]>), String> {
    let mut secs = Vec::new();
    let mut gauge = Gauge::new(SPEED_SENSITIVITY);
    let mut last = None;
    for _ in 0..times {
        gauge.ticks(crate::SETUP_TICKS);
        let t = Instant::now();
        last = Some(reference(wfs)?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((
        crate::setup_at_reference(out, &secs, &gauge),
        last.expect("times >= 1"),
    ))
}

/// The untraced measurement: end-to-end metrics.
pub fn measure(run: &Run) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut out = Outcome::default();
    let wfs = workflows(run.seed);
    let (setup_s, refs) = set_up(&mut out, &wfs, crate::SETUPS)?;
    out.metric("setup_s", setup_s);
    let opts = ExecOptions::sequential();
    let mut raw_ns = Vec::with_capacity(run.unit_capacity());
    let mut gauge = Gauge::new(SPEED_SENSITIVITY);
    gauge.reserve(run.unit_capacity());
    let mut bytes = 0u64;
    let deadline = run.deadline(1.0);
    let mut index = 0u64;
    while Instant::now() < deadline || raw_ns.len() < 1000 {
        let p = raw_ns.len() % PAIRS;
        gauge.tick();
        let t = Instant::now();
        for (wf, reference) in wfs[p].iter().zip(&refs[p]) {
            out.attempted += 1;
            match replay(wf, &opts) {
                Ok(r) => {
                    check(run, index, reference, &r)?;
                    bytes += r.tier_bytes;
                }
                Err(e) => {
                    eprintln!("replay {index} failed: {e}");
                    out.failed += 1;
                }
            }
            index += 1;
        }
        raw_ns.push(t.elapsed().as_nanos() as f64);
    }
    let pair_ns = gauge.normalise(&raw_ns);
    crate::speed_record(&mut out, "chain.replay_pair", &raw_ns, &gauge);
    let p50 = latency_metrics(&mut out, "chain.replay_pair", &pair_ns);
    // Rates from the median pair.
    let pair_s = p50 / 1e6;
    let events_per_s = (2 * EVENTS) as f64 / pair_s;
    out.metric("throughput_per_s", events_per_s);
    out.metric(
        "mb_per_s",
        bytes as f64 / pair_ns.len() as f64 / 1e6 / pair_s,
    );
    out.note("chain.chain_events_per_s", events_per_s);
    out.note("chain.events_per_workflow", EVENTS);
    out.note("chain.distinct_pairs", PAIRS);
    Ok(out)
}

/// Stage totals of traced replays, in nanoseconds.
#[derive(Debug, Default)]
struct StageTotals {
    events: u64,
    runs: u64,
    gen: f64,
    sim: f64,
    reco: f64,
    produce: f64,
    encode_raw: f64,
    encode_aod: f64,
    skim: f64,
    analysis: f64,
    provenance: f64,
    execute: f64,
    covered: f64,
    iov_hits: f64,
    iov_lookups: f64,
    skim_in: f64,
    skim_out: f64,
}

/// Replay `wf` with a memory collector and a metrics registry attached
/// through `ExecOptions`, and fold its spans and gauges into `totals`.
fn traced_replay(wf: &PreservedWorkflow, totals: &mut StageTotals) -> Result<Replay, String> {
    let collector = Arc::new(MemoryCollector::new());
    let registry = Arc::new(MetricsRegistry::new());
    let opts = ExecOptions::sequential()
        .collector(collector.clone())
        .metrics(registry.clone());
    let r = replay(wf, &opts)?;
    let records = collector.records();
    let span = |path: &str| spans::total(&records, |p| p == path) as f64;
    let self_times = spans::self_times(&records);
    let snap = registry.snapshot();
    totals.events += r.events;
    totals.runs += 1;
    totals.gen += snap.gauge("time.generate_ns") as f64;
    totals.sim += snap.gauge("time.simulate_ns") as f64;
    totals.reco += snap.gauge("time.reconstruct_ns") as f64;
    totals.produce += span("execute/produce");
    totals.encode_raw += span("execute/encode/raw");
    totals.encode_aod += span("execute/encode/aod");
    totals.skim += span("execute/skim");
    totals.analysis += spans::total(&records, |p| p.starts_with("execute/analysis/")) as f64;
    totals.provenance += span("execute/provenance");
    totals.execute += span("execute");
    totals.covered += self_times
        .iter()
        .filter(|(path, _)| path.starts_with("execute/"))
        .map(|(_, ns)| *ns as f64)
        .sum::<f64>();
    totals.iov_hits += snap.gauge("iov.cursor_hits") as f64;
    totals.iov_lookups += snap.gauge("iov.lookups") as f64;
    totals.skim_in += snap.counter("skim.events_in") as f64;
    totals.skim_out += snap.counter("skim.events_out") as f64;
    Ok(r)
}

/// The traced measurement: per-layer metrics of the chain stages for
/// `share` of the run. With `overhead`, untraced replay pairs alternate
/// with traced ones and their time ratio is reported too.
pub fn traced(
    run: &Run,
    share: f64,
    overhead: bool,
) -> Result<Outcome, Box<dyn std::error::Error>> {
    let mut out = Outcome::default();
    let wfs = workflows(run.seed);
    let refs = reference(&wfs)?;
    let plain = ExecOptions::sequential();
    let mut t = StageTotals::default();
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    let deadline = run.deadline(share);
    let mut index = 0u64;
    while Instant::now() < deadline || traced_ns.len() < 20 {
        let p = traced_ns.len() % PAIRS;
        for traced in [true, false] {
            if !traced && !overhead {
                continue;
            }
            let started = Instant::now();
            for (wf, reference) in wfs[p].iter().zip(&refs[p]) {
                out.attempted += 1;
                let r = if traced {
                    traced_replay(wf, &mut t)?
                } else {
                    replay(wf, &plain)?
                };
                check(run, index, reference, &r)?;
                index += 1;
            }
            let ns = started.elapsed().as_nanos() as f64;
            if traced {
                traced_ns.push(ns);
            } else {
                untraced_ns.push(ns);
            }
        }
    }
    let per_event = |ns: f64| ns / t.events as f64;
    out.metric("gen.ns_per_event", per_event(t.gen));
    out.metric("detsim.ns_per_event", per_event(t.sim));
    out.metric("reco.ns_per_event", per_event(t.reco));
    out.metric("tiers.encode_raw_ns_per_event", per_event(t.encode_raw));
    out.metric("tiers.encode_aod_ns_per_event", per_event(t.encode_aod));
    out.metric("tiers.skim_ns_per_event", per_event(t.skim));
    out.metric("rivet.analysis_ns_per_event", per_event(t.analysis));
    out.metric("provenance.ns_per_run", t.provenance / t.runs as f64);
    out.metric(
        "core.runner_overhead_ns_per_event",
        per_event(t.produce - t.gen - t.sim - t.reco),
    );
    out.metric("chain.stage_coverage", t.covered / t.execute);
    out.metric("conditions.iov_hit_ratio", t.iov_hits / t.iov_lookups);
    out.metric("tiers.skim_pass_ratio", t.skim_out / t.skim_in);
    out.note("chain.traced_replays", t.runs);
    if overhead {
        out.metric(
            "obs.trace_overhead_ratio",
            stats::median(&traced_ns) / stats::median(&untraced_ns),
        );
        out.note("obs.trace_overhead_pairs", untraced_ns.len());
    }
    Ok(out)
}
