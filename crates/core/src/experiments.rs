//! The paper's evaluation, regenerated from the running system.
//!
//! The DASPOS report is qualitative: Table 1, the Appendix A rubrics, the
//! RIVET/RECAST/HepData comparison and the workflow analysis. Each
//! experiment below (DESIGN.md §4, recorded in EXPERIMENTS.md) runs the
//! toolkit and returns a small result of deterministic quantities —
//! bytes, event counts, efficiencies, rubric levels, lookup counts —
//! whose `render()` is the report. No report reads a clock, so one build
//! always prints the same bytes. `tests/experiments.rs` asserts each
//! recorded shape on these results; `daspos-cli experiment <id|all>`
//! prints them.

use std::fmt::Write as _;
use std::sync::Arc;

use daspos_conditions::{
    ConditionsSource, ConditionsStore, DbSource, IovKey, ShippedFileSource, Snapshot,
};
use daspos_detsim::{DetectorSimulation, Experiment};
use daspos_gen::{EventGenerator, GeneratorConfig, NewPhysicsParams};
use daspos_hep::event::ProcessKind;
use daspos_hep::ids::{DatasetId, RecordId, RequestId};
use daspos_hep::SeedSequence;
use daspos_hepdata::record::{DataTable, TableData};
use daspos_hepdata::repository::Submission;
use daspos_hepdata::HepDataRepository;
use daspos_metadata::maturity::MaturityReport;
use daspos_metadata::presets::{interview_for, sharing_grid_for};
use daspos_metadata::sharing::{DataSharingGrid, PolicyStatus};
use daspos_outreach::convert::convert_aod;
use daspos_outreach::experiments::render_table1;
use daspos_outreach::formats::OutreachFormat;
use daspos_provenance::graph::{StepBuilder, StepKind};
use daspos_provenance::{Platform, ProvenanceGraph, SoftwareStack, SoftwareVersion};
use daspos_recast::backend::{
    FullChainBackend, RecastBackend, RecastOutput, RivetBridgeBackend, SmearedBackend,
};
use daspos_recast::request::RecastRequest;
use daspos_recast::stats::cls_upper_limit;
use daspos_recast::RecastFrontEnd;
use daspos_reco::processor::{RecoConfig, RecoProcessor};
use daspos_rivet::{AnalysisRegistry, RunHarness};
use daspos_tiers::{skim::skim_slim, Selection, SlimSpec};

use crate::archive::{sections, PreservationArchive};
use crate::error::Error;
use crate::migrate::{make_opaque, Migrator};
use crate::runner::ExecOptions;
use crate::usecases::{self, UseCase};
use crate::workflow::{populate_conditions, ExecutionContext, PreservedWorkflow, ProductionOutput};

/// Runs one experiment and renders its report.
pub type Run = fn() -> Result<String, Error>;

/// Every experiment: its id, its title, and how to run it.
pub const ALL: [(&str, &str, Run); 12] = [
    ("t1", "Table 1: outreach feature matrix", || Ok(t1()?.render())),
    ("m1", "Appendix A maturity rubrics and sharing grid", || Ok(m1().render())),
    ("w1", "tier reduction along the data lifecycle", || Ok(w1()?.render())),
    ("w2", "conditions-database dependencies per stage", || Ok(w2()?.render())),
    ("w3", "provenance capture", || Ok(w3()?.render())),
    ("r1", "RIVET (light) vs RECAST (full chain)", || Ok(r1()?.render())),
    ("r2", "the RECAST-RIVET bridge", || Ok(r2()?.render())),
    ("r3", "RECAST limits on a new-physics model", || Ok(r3()?.render())),
    ("h1", "the reactions database", || Ok(h1()?.render())),
    ("o1", "the common outreach converter", || Ok(o1()?.render())),
    ("p1", "platform-migration survival", || Ok(p1()?.render())),
    ("p2", "the metadata set for archive access", || Ok(p2()?.render())),
];

/// Run one experiment by id and render its report; `None` for an
/// unknown id.
pub fn render(id: &str) -> Option<Result<String, Error>> {
    ALL.iter().find(|(name, _, _)| *name == id).map(|(_, _, run)| run())
}

/// Every report in [`ALL`] order, each under a banner naming it.
pub fn render_all() -> Result<String, Error> {
    let mut out = String::new();
    for (id, title, run) in ALL {
        let _ = writeln!(out, "===== {}: {title} =====", id.to_uppercase());
        out.push_str(&run()?);
        out.push('\n');
    }
    Ok(out)
}

/// Run an experiment's standard Z workflow.
fn z_production(experiment: Experiment, seed: u64, n: u64) -> Result<ProductionOutput, Error> {
    let workflow = PreservedWorkflow::standard_z(experiment, seed, n);
    workflow.execute(&ExecutionContext::fresh(&workflow), &ExecOptions::default())
}

/// A preservation archive of one production run: the charm workflow for
/// LHCb, the Z elsewhere.
fn archive(
    experiment: Experiment,
    seed: u64,
    n: u64,
    name: String,
) -> Result<PreservationArchive, Error> {
    let workflow = match experiment {
        Experiment::Lhcb => PreservedWorkflow::standard_charm(seed, n),
        e => PreservedWorkflow::standard_z(e, seed, n),
    };
    let ctx = ExecutionContext::fresh(&workflow);
    let output = workflow.execute(&ctx, &ExecOptions::default())?;
    Ok(PreservationArchive::builder(name).production(&workflow, &ctx, &output)?.build())
}

const CONDITIONS_TAG: &str = "cms-mc-2013";

fn conditions_store() -> Result<Arc<ConditionsStore>, Error> {
    let store = Arc::new(ConditionsStore::new());
    populate_conditions(&store, CONDITIONS_TAG)?;
    Ok(store)
}

fn full_chain_backend(seed: u64) -> Result<FullChainBackend, Error> {
    Ok(FullChainBackend::new(
        Experiment::Cms.detector(),
        Arc::new(DbSource::connect(conditions_store()?, CONDITIONS_TAG)),
        Arc::new(AnalysisRegistry::with_builtin()),
        SeedSequence::new(seed),
    ))
}

/// A request to re-run the preserved dilepton search on a Z′ model with
/// a 3 % width.
fn zprime_request(id: u64, mass: f64, cross_section_pb: f64, n_events: u64) -> RecastRequest {
    RecastRequest {
        id: RequestId(id),
        analysis_key: "SEARCH_2013_I0006".to_string(),
        model: NewPhysicsParams { mass, width: mass * 0.03, cross_section_pb },
        n_events,
        requester: "experiment".to_string(),
    }
}

// ---------------------------------------------------------------- T1

/// T1 — Table 1 and the byte cost of its format multiplicity.
#[derive(Debug, Clone, PartialEq)]
pub struct T1 {
    /// The rendered outreach feature matrix.
    pub table: String,
    /// Bytes of the first converted CMS Z event, per carrier.
    pub carriers: Vec<(OutreachFormat, usize)>,
}

/// Regenerate Table 1 and write one converted event in every carrier.
pub fn t1() -> Result<T1, Error> {
    let output = z_production(Experiment::Cms, 11, 20)?;
    let simple = output.aod_events.first().map(|aod| convert_aod(aod, "cms", 0));
    let carriers = simple.iter().flat_map(|simple| {
        [OutreachFormat::IgJson, OutreachFormat::EventXml, OutreachFormat::Compact]
            .map(|format| (format, format.write(simple).len()))
    });
    Ok(T1 { table: render_table1(), carriers: carriers.collect() })
}

impl T1 {
    /// The matrix, then the per-carrier sizes.
    pub fn render(&self) -> String {
        let mut out = format!("{}\none converted event, per carrier:\n", self.table);
        for (format, bytes) in &self.carriers {
            let _ = writeln!(
                out,
                "  {:>10}: {bytes:>5} bytes  self-documenting: {}",
                format.name(),
                format.self_documenting()
            );
        }
        out
    }
}

// ---------------------------------------------------------------- M1

/// One experiment's four rubric scores.
#[derive(Debug, Clone, PartialEq)]
pub struct RubricRow {
    /// The experiment preset.
    pub experiment: &'static str,
    /// Its §4 open-data policy; `None` for experiments past data taking.
    pub policy: Option<PolicyStatus>,
    /// The scores.
    pub report: MaturityReport,
}

/// M1–M4 — the Appendix A maturity rubrics and the sharing grid.
#[derive(Debug, Clone, PartialEq)]
pub struct M1 {
    /// The four LHC experiments under the 2014 policies.
    pub live: Vec<RubricRow>,
    /// The §1 legacy presets (BaBar, Tevatron).
    pub legacy: Vec<RubricRow>,
    /// Stage × audience sharing grids for CMS and ALICE.
    pub grids: Vec<(&'static str, DataSharingGrid)>,
    /// Per LHC experiment: declared raw-to-final reduction (Appendix A
    /// Q2) and the distinct formats across its lifecycle.
    pub reductions: Vec<(&'static str, f64, usize)>,
}

/// Score the preset interviews.
pub fn m1() -> M1 {
    let row = |experiment, policy: Option<PolicyStatus>| RubricRow {
        experiment,
        policy,
        report: MaturityReport::assess(
            &interview_for(experiment),
            policy.unwrap_or_else(|| PolicyStatus::report_2014(experiment)),
        ),
    };
    let live = ["alice", "atlas", "cms", "lhcb"];
    M1 {
        live: live.map(|n| row(n, Some(PolicyStatus::report_2014(n)))).to_vec(),
        legacy: ["babar", "tevatron"].map(|n| row(n, None)).to_vec(),
        grids: ["cms", "alice"].map(|n| (n, sharing_grid_for(n))).to_vec(),
        reductions: live
            .map(|n| {
                let iv = interview_for(n);
                (n, iv.lifecycle_reduction().unwrap_or(0.0), iv.distinct_formats().len())
            })
            .to_vec(),
    }
}

impl M1 {
    /// The rubric table, the legacy rows, the grids and the reductions.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:>8} {:>10} {:>12} {:>13} {:>8}  policy\n",
            "expt", "data-mgmt", "description", "preservation", "sharing"
        );
        let rubric = |out: &mut String, rows: &[RubricRow]| {
            for RubricRow { experiment, policy, report: r } in rows {
                let _ = writeln!(
                    out,
                    "{experiment:>8} {:>10} {:>12} {:>13} {:>8}  {}",
                    r.data_management.to_string(),
                    r.description.to_string(),
                    r.preservation.to_string(),
                    r.sharing.to_string(),
                    policy.map_or("n/a (past data taking)", |p| p.describe())
                );
            }
        };
        rubric(&mut out, &self.live);
        out.push_str("\nlegacy experiments (§1: BaBar and Tevatron preservation overviews):\n");
        rubric(&mut out, &self.legacy);
        out.push_str("\ndata sharing grid (per experiment, stage x audience):\n");
        for (name, grid) in &self.grids {
            let _ = writeln!(out, "--- {name} ---\n{}", grid.render());
        }
        out.push_str("lifecycle reduction factors (Appendix A Q2, declared):\n");
        for (name, factor, formats) in &self.reductions {
            let _ = writeln!(
                out,
                "  {name:>8}: {factor:>8.0}x  ({formats} formats across the lifecycle)"
            );
        }
        out
    }
}

// ---------------------------------------------------------------- W1

/// The lifecycle tiers, in processing order.
pub const TIERS: [&str; 5] = ["raw", "reco", "aod", "skim", "ntuple"];

/// W1 — total encoded bytes per tier for 120 Z events per experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct W1 {
    /// Per experiment, bytes at each of [`TIERS`].
    pub rows: Vec<(Experiment, [u64; 5])>,
}

/// Run the Z chain on every experiment and measure each tier.
pub fn w1() -> Result<W1, Error> {
    let mut rows = Vec::new();
    for experiment in Experiment::all() {
        let output = z_production(experiment, 21, 120)?;
        let bytes = TIERS.map(|tier| {
            output.tier_bytes.iter().find(|(name, _, _)| name == tier).map_or(0, |(_, b, _)| *b)
        });
        rows.push((experiment, bytes));
    }
    Ok(W1 { rows })
}

/// Raw-to-ntuple reduction of one W1 row.
pub fn reduction(bytes: &[u64; 5]) -> f64 {
    bytes[0] as f64 / bytes[4].max(1) as f64
}

impl W1 {
    /// The tier-size table.
    pub fn render(&self) -> String {
        let mut out = format!("{:>8}", "expt");
        for tier in TIERS.iter().chain(&["raw/ntuple"]) {
            let _ = write!(out, " {tier:>12}");
        }
        for (experiment, bytes) in &self.rows {
            let _ = write!(out, "\n{:>8}", experiment.name());
            for b in bytes {
                let _ = write!(out, " {b:>12}");
            }
            let _ = write!(out, " {:>11.0}x", reduction(bytes));
        }
        out.push_str(
            "\n(total bytes shrink at every step: skimming drops events, slimming drops \
             content; surviving skim events are individually richer, so per-event size \
             can rise even as the total falls)\n",
        );
        out
    }
}

// ---------------------------------------------------------------- W2

/// Conditions traffic of one processing stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageLookups {
    /// The stage.
    pub stage: &'static str,
    /// Conditions lookups.
    pub lookups: u64,
    /// Remote database round trips.
    pub round_trips: u64,
    /// Payload bytes read.
    pub bytes: u64,
}

/// W2 — conditions lookups per stage over 100 CMS Z events, and an
/// ALICE-style shipped snapshot answering 100 lookups.
#[derive(Debug, Clone, PartialEq)]
pub struct W2 {
    /// generation, simulation, reconstruction, skim+ntuple.
    pub stages: Vec<StageLookups>,
    /// The shipped snapshot's traffic.
    pub shipped: StageLookups,
}

/// Count the conditions lookups of each stage.
pub fn w2() -> Result<W2, Error> {
    let store = conditions_store()?;
    let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 31));
    let det = Experiment::Cms.detector();
    let sim_src = Arc::new(DbSource::connect(Arc::clone(&store), CONDITIONS_TAG));
    let reco_src = Arc::new(DbSource::connect(Arc::clone(&store), CONDITIONS_TAG));
    let sim =
        DetectorSimulation::new(det.clone(), Arc::clone(&sim_src) as _, SeedSequence::new(31));
    let reco = RecoProcessor::new(det, RecoConfig::default(), Arc::clone(&reco_src) as _);
    let mut aods = Vec::new();
    for i in 0..100 {
        aods.push(reco.process(&sim.simulate(&gen.event(i), i)?)?.1);
    }
    // Analysis stage: skim + ntuple — zero conditions lookups by design.
    skim_slim(&aods, &Selection::NLeptons { n: 2, pt: 10.0 }, &SlimSpec::leptons_only());
    let shipped = ShippedFileSource::new(Snapshot::capture(&store, CONDITIONS_TAG)?);
    for run in 0..100 {
        shipped.get(&IovKey::new("ecal/gain"), run)?;
    }

    let counted = |stage, src: &dyn ConditionsSource| StageLookups {
        stage,
        lookups: src.stats().lookups(),
        round_trips: src.stats().remote_round_trips(),
        bytes: src.stats().bytes_read(),
    };
    let none = |stage| StageLookups { stage, lookups: 0, round_trips: 0, bytes: 0 };
    Ok(W2 {
        stages: vec![
            none("generation"),
            counted("simulation", sim_src.as_ref()),
            counted("reconstruction", reco_src.as_ref()),
            none("skim+ntuple"),
        ],
        shipped: counted("shipped-file", &shipped),
    })
}

impl W2 {
    /// The per-stage table, then the shipped snapshot.
    pub fn render(&self) -> String {
        let mut out =
            format!("{:>16} {:>10} {:>14} {:>12}\n", "stage", "lookups", "round-trips", "bytes");
        for s in self.stages.iter().chain([&self.shipped]) {
            let (lookups, trips, bytes) = (s.lookups, s.round_trips, s.bytes);
            let _ = writeln!(out, "{:>16} {lookups:>10} {trips:>14} {bytes:>12}", s.stage);
        }
        out
    }
}

// ---------------------------------------------------------------- W3

/// One derivation campaign under one capture discipline.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureRow {
    /// The discipline.
    pub label: &'static str,
    /// Datasets in the catalog.
    pub datasets: usize,
    /// Datasets with no recorded producer.
    pub orphans: usize,
    /// Fraction of datasets attributable to a root.
    pub completeness: f64,
}

/// W3 — provenance completeness with and without external capture.
#[derive(Debug, Clone, PartialEq)]
pub struct W3 {
    /// 50 roots × 4 derivations, from full capture to none.
    pub rows: Vec<CaptureRow>,
    /// Steps the lineage of a fully captured 6-deep chain walks back.
    pub lineage_steps: usize,
}

/// A derivation campaign: `n_roots` raw datasets, each derived `depth`
/// times. Every `loss_every`-th step the processing system "forgets" to
/// record parentage and the output lands with none — §3.2's hazard.
fn campaign(n_roots: u64, depth: u64, loss_every: u64) -> Result<ProvenanceGraph, String> {
    let stack = SoftwareStack::on_current(vec![SoftwareVersion::new("daspos-tiers", 1, 0, 0)]);
    let g = ProvenanceGraph::new();
    for root in 0..n_roots {
        let mut parent = DatasetId(root * (depth + 1) + 1);
        g.declare_root(parent);
        for d in 0..depth {
            let child = DatasetId(parent.0 + 1);
            if loss_every > 0 && (root * depth + d + 1).is_multiple_of(loss_every) {
                g.reference_unchecked(child);
            } else {
                let name = format!("derivation-{d}");
                let step = StepBuilder::new(StepKind::SkimSlim, name, stack.clone());
                g.record(step.input(parent).output(child)).map_err(|e| e.to_string())?;
            }
            parent = child;
        }
    }
    Ok(g)
}

/// Run the campaign under four capture disciplines.
pub fn w3() -> Result<W3, Error> {
    let mut rows = Vec::new();
    for (label, loss_every) in [
        ("external capture (all)", 0),
        ("1 in 10 steps lost", 10),
        ("1 in 3 steps lost", 3),
        ("no capture (all lost)", 1),
    ] {
        let g = campaign(50, 4, loss_every)?;
        let (datasets, orphans) = (g.dataset_count(), g.orphans().len());
        rows.push(CaptureRow { label, datasets, orphans, completeness: g.completeness() });
    }
    let lineage = campaign(1, 6, 0)?.lineage(DatasetId(7)).map_err(|e| e.to_string())?;
    Ok(W3 { rows, lineage_steps: lineage.len() })
}

impl W3 {
    /// The completeness table and the lineage walk.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:>24} {:>10} {:>10} {:>14}\n",
            "capture discipline", "datasets", "orphans", "completeness"
        );
        for r in &self.rows {
            let percent = 100.0 * r.completeness;
            let (label, datasets, orphans) = (r.label, r.datasets, r.orphans);
            let _ = writeln!(out, "{label:>24} {datasets:>10} {orphans:>10} {percent:>13.1}%");
        }
        let _ = writeln!(
            out,
            "\nfully-captured chain: lineage of {} walks {} steps back to the root",
            DatasetId(7),
            self.lineage_steps
        );
        out
    }
}

// ---------------------------------------------------------------- R1, R2

/// One line per back end: the work it did and the efficiency it found.
fn cost_table(out: &mut String, outputs: &[RecastOutput]) {
    let _ = writeln!(
        out,
        "{:>16} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10}",
        "backend", "generated", "simulated", "recon.", "bytes", "lookups", "efficiency"
    );
    for RecastOutput { backend, cost: c, signal_efficiency, .. } in outputs {
        let _ = writeln!(
            out,
            "{backend:>16} {:>10} {:>10} {:>10} {:>10} {:>8} {signal_efficiency:>10.3}",
            c.events_generated,
            c.events_simulated,
            c.events_reconstructed,
            c.bytes_touched,
            c.conditions_lookups
        );
    }
}

/// Events an R1 request asks for.
pub const R1_EVENTS: u64 = 300;

/// R1 — one Z′ request of [`R1_EVENTS`] through the fidelity ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct R1 {
    /// What the RIVET bridge, the smeared tier and the full chain
    /// returned — lightest first.
    pub outputs: Vec<RecastOutput>,
}

/// Serve the same request through all three back ends.
pub fn r1() -> Result<R1, Error> {
    let registry = Arc::new(AnalysisRegistry::with_builtin());
    let detector = Experiment::Cms.detector();
    let backends: [Box<dyn RecastBackend>; 3] = [
        Box::new(RivetBridgeBackend::new(Arc::clone(&registry), SeedSequence::new(41))),
        Box::new(SmearedBackend::from_detector(&detector, registry, SeedSequence::new(41))),
        Box::new(full_chain_backend(41)?),
    ];
    let request = zprime_request(1, 400.0, 1.0, R1_EVENTS);
    let mut outputs = Vec::new();
    for backend in &backends {
        outputs.push(backend.process(&request).map_err(|e| e.to_string())?);
    }
    Ok(R1 { outputs })
}

impl R1 {
    /// The work-count ladder.
    pub fn render(&self) -> String {
        let mut out = String::new();
        cost_table(&mut out, &self.outputs);
        out.push_str(
            "(only the full chain simulates and reconstructs the requested events and \
             queries conditions; the smeared tier adds detector-like efficiency at \
             RIVET's work count, §2.4)\n",
        );
        out
    }
}

/// R2 — one front end driving both back ends through a two-point scan
/// of 150-event requests.
#[derive(Debug, Clone, PartialEq)]
pub struct R2 {
    /// Per scanned Z′ mass (GeV), what the front end released from the
    /// RIVET bridge and from the full chain.
    pub points: Vec<(f64, [RecastOutput; 2])>,
}

/// Submit, wait, approve and fetch the same scan through each back end.
pub fn r2() -> Result<R2, Error> {
    let registry = Arc::new(AnalysisRegistry::with_builtin());
    let frontends = [
        RecastFrontEnd::start(Arc::new(RivetBridgeBackend::new(registry, SeedSequence::new(5))), 2),
        RecastFrontEnd::start(Arc::new(full_chain_backend(5)?), 2),
    ];
    let fetch = |frontend: &RecastFrontEnd, mass: f64| -> Result<RecastOutput, String> {
        let model = NewPhysicsParams { mass, width: mass * 0.03, cross_section_pb: 1.0 };
        let id = frontend
            .submit("SEARCH_2013_I0006", model, 150, "experiment")
            .map_err(|e| e.to_string())?;
        frontend.wait(id).map_err(|e| e.to_string())?;
        frontend.approve(id).map_err(|e| e.to_string())?;
        frontend.fetch(id).map_err(|e| e.to_string())
    };
    let mut points = Vec::new();
    for mass in [300.0, 450.0] {
        points.push((mass, [fetch(&frontends[0], mass)?, fetch(&frontends[1], mass)?]));
    }
    for frontend in frontends {
        frontend.shutdown();
    }
    Ok(R2 { points })
}

impl R2 {
    /// Both back ends' work and efficiency at each mass.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (mass, outputs) in &self.points {
            let _ = writeln!(out, "Z' at {mass} GeV:");
            cost_table(&mut out, outputs);
        }
        out.push_str(
            "(identical submit/wait/approve/fetch protocol; efficiencies agree up to \
             detector losses — the bridge broadens RECAST exactly as §5 proposes)\n",
        );
        out
    }
}

// ---------------------------------------------------------------- R3

/// Observed events in the preserved search's signal region.
const N_OBS: u64 = 4;
/// Expected background in the signal region.
const BACKGROUND: f64 = 4.2;
/// Integrated luminosity (pb⁻¹).
const LUMI_IPB: f64 = 5000.0;

/// One mass point of the limit scan.
#[derive(Debug, Clone, PartialEq)]
pub struct LimitPoint {
    /// Z′ mass (GeV).
    pub mass: f64,
    /// Full-chain signal efficiency.
    pub efficiency: f64,
    /// 95 % CL cross-section limit (pb); infinite without acceptance.
    pub limit_pb: f64,
    /// The model's cross-section (pb).
    pub model_pb: f64,
}

impl LimitPoint {
    /// The model predicts more than the limit allows.
    pub fn excluded(&self) -> bool {
        self.model_pb > self.limit_pb
    }
}

/// R3 — CLs limits from the preserved search across a mass scan, against
/// a falling model curve.
#[derive(Debug, Clone, PartialEq)]
pub struct R3 {
    /// The scan, in increasing mass.
    pub points: Vec<LimitPoint>,
}

/// Re-run the search on a 250-event Z′ sample at six masses and set limits.
pub fn r3() -> Result<R3, Error> {
    let backend = full_chain_backend(51)?;
    let mut points = Vec::new();
    for (i, mass) in [150.0_f64, 250.0, 350.0, 450.0, 600.0, 800.0].into_iter().enumerate() {
        let model_pb = 0.5 * (mass / 100.0).powf(-4.5);
        let request = zprime_request(100 + i as u64, mass, model_pb, 250);
        let efficiency = backend.process(&request).map_err(|e| e.to_string())?.signal_efficiency;
        let limit_pb = cls_upper_limit(N_OBS, BACKGROUND, efficiency.max(1e-6), LUMI_IPB)
            .unwrap_or(f64::INFINITY);
        points.push(LimitPoint { mass, efficiency, limit_pb, model_pb });
    }
    Ok(R3 { points })
}

impl R3 {
    /// The limit table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:>10} {:>10} {:>14} {:>14} {:>10}\n",
            "mass GeV", "eff", "sigma_95 (pb)", "sigma_model", "excluded"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:>10.0} {:>10.3} {:>14.5} {:>14.5} {:>10}",
                p.mass,
                p.efficiency,
                p.limit_pb,
                p.model_pb,
                if p.excluded() { "YES" } else { "no" }
            );
        }
        out.push_str(
            "(the limit tracks the efficiency, which collapses below the 200 GeV \
             signal-region threshold; the model curve falls under the limit at high mass)\n",
        );
        out
    }
}

// ---------------------------------------------------------------- H1

/// H1 — the reactions database's record sizes and access paths.
#[derive(Debug, Clone, PartialEq)]
pub struct H1 {
    /// Bytes per record, in record order.
    pub sizes: Vec<(RecordId, usize)>,
    /// Median record size.
    pub median: usize,
    /// Largest record size.
    pub max: usize,
    /// Records a keyword search for "Z" finds.
    pub z_hits: usize,
    /// The title INSPIRE id 9006 links to.
    pub inspire_9006: Option<String>,
    /// Values accepted from a 2-row, 2-column CSV table.
    pub csv_values: usize,
}

/// Ingest every preserved analysis's tables from a 300-event truth run,
/// plus one search upload with a full acceptance grid (§2.3's "very
/// large amount of information").
pub fn h1() -> Result<H1, Error> {
    let repo = HepDataRepository::new();
    let registry = AnalysisRegistry::with_builtin();
    for (i, meta) in registry.list().into_iter().enumerate() {
        let analysis =
            registry.get(&meta.key).ok_or_else(|| format!("{} is not registered", meta.key))?;
        let process = match meta.key.as_str() {
            "ZLL_2013_I0001" | "SEARCH_2013_I0006" => ProcessKind::ZBoson,
            "DIJET_2013_I0002" => ProcessKind::QcdDijet,
            "HGG_2013_I0003" => ProcessKind::Higgs,
            "D0LIFE_2013_I0004" => ProcessKind::Charm,
            _ => ProcessKind::Strange,
        };
        let gen = EventGenerator::new(GeneratorConfig::new(process, 70 + i as u64));
        let result = RunHarness::run_owned(analysis.as_ref(), gen.events(300));
        let tables = result.histograms.values().map(|h| DataTable {
            name: h.name().to_string(),
            description: meta.description.clone(),
            data: TableData::from_hist(h),
        });
        repo.insert(Submission {
            title: meta.title.clone(),
            experiment: meta.experiment.clone(),
            reaction: format!("p p --> {} X", meta.key),
            inspire_id: meta.inspire_id,
            keywords: vec![meta.experiment.clone(), "2013".to_string()],
            tables: tables.collect(),
        })
        .map_err(|e| e.to_string())?;
    }
    if let Some(search) = repo.search("dilepton").first() {
        let rows = (0..120)
            .flat_map(|i| (0..120).map(move |j| vec![f64::from(i * 10), f64::from(j * 10), 0.4]));
        let grid = DataTable {
            name: "acceptance grid (m1, m2)".to_string(),
            description: "full SUSY-style efficiency grid".to_string(),
            data: TableData::Columns {
                names: vec!["m1".to_string(), "m2".to_string(), "eff".to_string()],
                rows: rows.collect(),
            },
        };
        repo.append_table(search.id, grid).map_err(|e| e.to_string())?;
    }
    let sizes = repo.size_distribution();
    let mut sorted: Vec<usize> = sizes.iter().map(|(_, s)| *s).collect();
    sorted.sort_unstable();
    Ok(H1 {
        median: sorted.get(sorted.len() / 2).copied().unwrap_or(0),
        max: sorted.last().copied().unwrap_or(0),
        sizes,
        z_hits: repo.search("Z").len(),
        inspire_9006: repo.by_inspire(9_006).map(|r| r.title),
        csv_values: TableData::from_csv("mass,limit\n200,0.1\n400,0.02\n")?.value_count(),
    })
}

impl H1 {
    /// The size table and the access paths.
    pub fn render(&self) -> String {
        let mut out = format!("{:>8} {:>12}\n", "record", "bytes");
        for (id, size) in &self.sizes {
            let outlier = if *size == self.max { "  <-- search-analysis outlier" } else { "" };
            let _ = writeln!(out, "{:>8} {size:>12}{outlier}", id.to_string());
        }
        let _ = writeln!(
            out,
            "\nmedian record {} bytes; largest {} bytes ({:.0}x the median) — the 'very \
             large amount of information' case §2.3 mentions\nsearch('Z'): {} records; \
             INSPIRE link 9006 -> {:?}\nCSV ingestion: {} values accepted",
            self.median,
            self.max,
            self.max as f64 / self.median.max(1) as f64,
            self.z_hits,
            self.inspire_9006,
            self.csv_values
        );
        out
    }
}

// ---------------------------------------------------------------- O1

/// One experiment's events through the common converter.
#[derive(Debug, Clone, PartialEq)]
pub struct ConverterRow {
    /// The experiment.
    pub experiment: Experiment,
    /// Converted events.
    pub events: usize,
    /// Binary AOD bytes of those events.
    pub aod_bytes: usize,
    /// Bytes written as self-documenting ig.
    pub ig_bytes: usize,
    /// Bytes written in the compact carrier.
    pub compact_bytes: usize,
    /// Level-2 objects the converter produced.
    pub objects: usize,
}

/// O1 — one AOD → simplified-format converter for all four experiments,
/// 60 Z events each.
#[derive(Debug, Clone, PartialEq)]
pub struct O1 {
    /// One row per experiment.
    pub rows: Vec<ConverterRow>,
}

/// Convert every experiment's Z AODs and write both carriers.
pub fn o1() -> Result<O1, Error> {
    let mut rows = Vec::new();
    for experiment in Experiment::all() {
        let output = z_production(experiment, 61, 60)?;
        let simple: Vec<_> =
            output.aod_events.iter().map(|a| convert_aod(a, experiment.name(), 12)).collect();
        let written = |format: OutreachFormat| simple.iter().map(|e| format.write(e).len()).sum();
        rows.push(ConverterRow {
            experiment,
            events: output.aod_events.len(),
            aod_bytes: output.aod_events.iter().map(|a| a.byte_size()).sum(),
            ig_bytes: written(OutreachFormat::IgJson),
            compact_bytes: written(OutreachFormat::Compact),
            objects: simple.iter().map(|e| e.objects.len()).sum(),
        });
    }
    Ok(O1 { rows })
}

impl O1 {
    /// The per-experiment conversion table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:>8} {:>10} {:>12} {:>12} {:>12} {:>10}\n",
            "expt", "events", "aod bytes", "ig bytes", "compact", "objects"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>8} {:>10} {:>12} {:>12} {:>12} {:>10}",
                r.experiment.name(),
                r.events,
                r.aod_bytes,
                r.ig_bytes,
                r.compact_bytes,
                r.objects
            );
        }
        out.push_str(
            "(one converter, one carrier family, one display — against Table 1's four \
             incompatible stacks; the self-documenting ig form trades bytes for \
             browser-openability, the compact form stays near the binary size)\n",
        );
        out
    }
}

// ---------------------------------------------------------------- P1

/// P1 — a fleet of 4 declarative and 2 opaque 25-event archives through
/// a platform transition.
#[derive(Debug, Clone, PartialEq)]
pub struct P1 {
    /// Archives in the fleet.
    pub fleet: usize,
    /// Archives that validate on the original platform.
    pub on_current: usize,
    /// Archives that validate on the successor without migration.
    pub unmigrated: usize,
    /// After a stack rebuild: each rebuilt archive and whether it validates.
    pub migrated: Vec<(String, bool)>,
    /// Archives that could not be rebuilt at all.
    pub opaque_lost: Vec<String>,
}

/// Validate the fleet before and after migrating it to the successor.
pub fn p1() -> Result<P1, Error> {
    let mut migrator = Migrator::new();
    for (i, e) in Experiment::all().into_iter().enumerate() {
        let seed = 500 + i as u64;
        migrator.add(archive(e, seed, 25, format!("{}-{seed}", e.name()))?);
    }
    for (e, seed) in [(Experiment::Cms, 600), (Experiment::Atlas, 601)] {
        migrator.add(make_opaque(archive(e, seed, 25, format!("{}-{seed}", e.name()))?));
    }
    let passed = |platform| migrator.validate_all(&platform).iter().filter(|r| r.passed()).count();
    let (on_current, unmigrated) = (passed(Platform::current()), passed(Platform::successor()));
    let report = migrator.migrate_to(&Platform::successor());
    Ok(P1 {
        fleet: report.outcomes.len() + report.unmigratable.len(),
        on_current,
        unmigrated,
        migrated: report.outcomes.iter().map(|o| (o.archive.clone(), o.passed())).collect(),
        opaque_lost: report.unmigratable,
    })
}

impl P1 {
    /// Archives alive after migration.
    pub fn survivors(&self) -> usize {
        self.migrated.iter().filter(|(_, ok)| *ok).count()
    }

    /// Survival before, without and after migration, per archive.
    pub fn render(&self) -> String {
        let (current, successor, fleet) = (Platform::current(), Platform::successor(), self.fleet);
        let mut out = format!(
            "on {current}: {}/{fleet} archives validate (opaque binaries cannot re-execute \
             declaratively)\non {successor} WITHOUT migration: {}/{fleet} survive\non \
             {successor} AFTER stack rebuild: {}/{fleet} survive ({} opaque lost)\n",
            self.on_current,
            self.unmigrated,
            self.survivors(),
            self.opaque_lost.len()
        );
        for (name, ok) in &self.migrated {
            let _ = writeln!(out, "  {name:>16}: {}", if *ok { "survived" } else { "LOST" });
        }
        for name in &self.opaque_lost {
            let _ = writeln!(out, "  {name:>16}: LOST (opaque)");
        }
        out
    }
}

// ---------------------------------------------------------------- P2

/// One archive's metadata coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct Coverage {
    /// Archive name.
    pub name: String,
    /// Section names it carries.
    pub sections: Vec<String>,
    /// Container bytes.
    pub bytes: usize,
    /// Use cases it serves.
    pub served: usize,
    /// First line of its workflow section, read from the container alone.
    pub workflow_head: String,
}

/// P2 — the use-case registry and what 20-event production archives of
/// the four experiments carry.
#[derive(Debug, Clone, PartialEq)]
pub struct P2 {
    /// The use cases and the metadata each requires.
    pub use_cases: Vec<UseCase>,
    /// One archive per experiment.
    pub archives: Vec<Coverage>,
}

/// Build the fleet and match every archive against the use cases.
pub fn p2() -> Result<P2, Error> {
    let mut archives = Vec::new();
    for (i, e) in Experiment::all().into_iter().enumerate() {
        let a = archive(e, 800 + i as u64, 20, format!("{}-arc", e.name()))?;
        archives.push(Coverage {
            workflow_head: a.section_text(sections::WORKFLOW)?.lines().next().unwrap_or("").into(),
            sections: a.sections.keys().cloned().collect(),
            bytes: a.byte_size(),
            served: usecases::served_by(&a).len(),
            name: a.name,
        });
    }
    Ok(P2 { use_cases: usecases::registry(), archives })
}

impl P2 {
    /// The use-case table and the coverage list.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:>20} {:>16} {:>10} {:>40}\n",
            "use case", "actor", "level", "required sections"
        );
        for uc in &self.use_cases {
            let _ = writeln!(
                out,
                "{:>20} {:>16} {:>10} {:>40}",
                uc.id,
                format!("{:?}", uc.actor),
                uc.required_level.to_string(),
                uc.required_sections.join(",")
            );
        }
        out.push_str("\narchive coverage (each workflow section read back from the container):\n");
        for a in &self.archives {
            let _ = writeln!(
                out,
                "{:>12}: {} sections, {} bytes, serves {}/{} use cases; workflow begins '{}'",
                a.name,
                a.sections.len(),
                a.bytes,
                a.served,
                self.use_cases.len(),
                a.workflow_head
            );
        }
        out
    }
}
