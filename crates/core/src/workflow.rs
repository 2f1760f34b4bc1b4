//! Declarative preserved workflows and their execution.
//!
//! §3.2's central observation is that HEP processing is *"nested levels
//! of processing required to go from the raw data written by the
//! detectors … to the final physics analysis plots"*, and that *"each of
//! the subsequent steps can be well-defined semantically"*. A
//! [`PreservedWorkflow`] is that semantic definition: every knob of the
//! full chain — process, seed, conditions tag, skim selection, slim spec,
//! ntuple schema, analyses — as data with a canonical text form. Execution
//! re-derives everything else.

use std::collections::BTreeMap;
use std::sync::Arc;

use daspos_conditions::{ConditionsStore, DbSource, IovKey, Payload, RunRange};
use daspos_detsim::{DetectorSimulation, Experiment};
use daspos_gen::{EventGenerator, GeneratorConfig, NewPhysicsParams};
use daspos_hep::event::ProcessKind;
use daspos_hep::ids::DatasetId;
use daspos_hep::SeedSequence;
use daspos_provenance::graph::{StepBuilder, StepKind};
use daspos_provenance::{ProvenanceGraph, SoftwareStack, SoftwareVersion};
use daspos_reco::objects::AodEvent;
use daspos_reco::processor::{RecoConfig, RecoProcessor};
use daspos_rivet::{AnalysisRegistry, AnalysisResult, RunHarness};

use daspos_obs::{MetricsRegistry, SpanRecord, Stage};

use crate::error::{Error, ErrorKind};
use crate::runner::ExecOptions;
use daspos_tiers::codec::Encodable;
use daspos_tiers::{
    DataTier, DatasetCatalog, Ntuple, NtupleSchema, Selection, SkimReport, SlimSpec, TierFormat,
};

/// The declarative description of one full production + analysis chain.
#[derive(Debug, Clone, PartialEq)]
pub struct PreservedWorkflow {
    /// Which synthetic experiment's detector and reconstruction to use.
    pub experiment: Experiment,
    /// The physics process to produce.
    pub process: ProcessKind,
    /// Model parameters when `process` is `NewPhysics`.
    pub new_physics: NewPhysicsParams,
    /// Events to produce.
    pub n_events: u64,
    /// Master seed — the single integer the whole chain replays from.
    pub seed: u64,
    /// The frozen conditions global tag.
    pub conditions_tag: String,
    /// Mean pileup.
    pub pileup_mu: f64,
    /// The skim selection (declarative, preservable).
    pub skim: Selection,
    /// The slim specification.
    pub slim: SlimSpec,
    /// The ntuple schema.
    pub ntuple_schema: NtupleSchema,
    /// Preserved analyses to run (registry keys).
    pub analyses: Vec<String>,
}

impl PreservedWorkflow {
    /// A standard Z-boson production and analysis for `experiment`.
    pub fn standard_z(experiment: Experiment, seed: u64, n_events: u64) -> Self {
        use daspos_tiers::ntuple::ColumnSpec;
        PreservedWorkflow {
            experiment,
            process: ProcessKind::ZBoson,
            new_physics: NewPhysicsParams::default(),
            n_events,
            seed,
            conditions_tag: format!("{}-mc-2013", experiment.name()),
            pileup_mu: 0.0,
            skim: Selection::NLeptons { n: 2, pt: 10.0 },
            slim: SlimSpec::leptons_only(),
            ntuple_schema: NtupleSchema::new(vec![
                ColumnSpec::Met,
                ColumnSpec::LeptonPt(0),
                ColumnSpec::LeptonPt(1),
                ColumnSpec::DileptonMass,
            ]),
            analyses: vec!["ZLL_2013_I0001".to_string()],
        }
    }

    /// The charm-lifetime workflow for the LHCb-like experiment.
    pub fn standard_charm(seed: u64, n_events: u64) -> Self {
        use daspos_tiers::ntuple::ColumnSpec;
        use daspos_tiers::skim::MassHypothesis;
        PreservedWorkflow {
            experiment: Experiment::Lhcb,
            process: ProcessKind::Charm,
            new_physics: NewPhysicsParams::default(),
            n_events,
            seed,
            conditions_tag: "lhcb-mc-2013".to_string(),
            pileup_mu: 0.0,
            skim: Selection::CandidateMass {
                hypothesis: MassHypothesis::KPi,
                mass: 1.865,
                window: 0.15,
            },
            slim: SlimSpec::candidates_only(),
            ntuple_schema: NtupleSchema::new(vec![
                ColumnSpec::CandMassKPi,
                ColumnSpec::CandProperTimePs,
                ColumnSpec::CandFlightXy,
            ]),
            analyses: vec!["D0LIFE_2013_I0004".to_string()],
        }
    }

    /// Canonical text form (the archived representation).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# daspos-workflow v1\n");
        out.push_str(&format!("experiment {}\n", self.experiment.name()));
        out.push_str(&format!("process {}\n", self.process.name()));
        out.push_str(&format!(
            "newphysics {} {} {}\n",
            self.new_physics.mass, self.new_physics.width, self.new_physics.cross_section_pb
        ));
        out.push_str(&format!("nevents {}\n", self.n_events));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("conditions {}\n", self.conditions_tag));
        out.push_str(&format!("pileup {}\n", self.pileup_mu));
        out.push_str(&format!("skim {}\n", self.skim.to_text()));
        out.push_str(&format!("slim {}\n", self.slim.to_text()));
        out.push_str(&format!("ntuple {}\n", self.ntuple_schema.to_text()));
        for a in &self.analyses {
            out.push_str(&format!("analysis {a}\n"));
        }
        out
    }

    /// Parse the canonical text form.
    pub fn parse(text: &str) -> Result<PreservedWorkflow, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty workflow")?;
        if header != "# daspos-workflow v1" {
            return Err(format!("bad workflow header '{header}'"));
        }
        let mut experiment = None;
        let mut process = None;
        let mut new_physics = NewPhysicsParams::default();
        let mut n_events = None;
        let mut seed = None;
        let mut conditions_tag = None;
        let mut pileup_mu = 0.0;
        let mut skim = None;
        let mut slim = None;
        let mut ntuple_schema = None;
        let mut analyses = Vec::new();
        for line in lines {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed line '{line}'"))?;
            match key {
                "experiment" => {
                    experiment = Some(
                        Experiment::all()
                            .into_iter()
                            .find(|e| e.name() == value)
                            .ok_or_else(|| format!("unknown experiment '{value}'"))?,
                    );
                }
                "process" => {
                    process = Some(
                        ProcessKind::all()
                            .iter()
                            .copied()
                            .find(|p| p.name() == value)
                            .ok_or_else(|| format!("unknown process '{value}'"))?,
                    );
                }
                "newphysics" => {
                    let parts: Vec<&str> = value.split(' ').collect();
                    if parts.len() != 3 {
                        return Err("newphysics needs mass width xsec".to_string());
                    }
                    new_physics = NewPhysicsParams {
                        mass: parts[0].parse().map_err(|_| "bad mass")?,
                        width: parts[1].parse().map_err(|_| "bad width")?,
                        cross_section_pb: parts[2].parse().map_err(|_| "bad xsec")?,
                    };
                }
                "nevents" => n_events = Some(value.parse().map_err(|_| "bad nevents")?),
                "seed" => seed = Some(value.parse().map_err(|_| "bad seed")?),
                "conditions" => conditions_tag = Some(value.to_string()),
                "pileup" => pileup_mu = value.parse().map_err(|_| "bad pileup")?,
                "skim" => skim = Some(Selection::parse(value)?),
                "slim" => slim = Some(SlimSpec::parse(value)?),
                "ntuple" => ntuple_schema = Some(NtupleSchema::parse(value)?),
                "analysis" => analyses.push(value.to_string()),
                other => return Err(format!("unknown workflow key '{other}'")),
            }
        }
        Ok(PreservedWorkflow {
            experiment: experiment.ok_or("missing experiment")?,
            process: process.ok_or("missing process")?,
            new_physics,
            n_events: n_events.ok_or("missing nevents")?,
            seed: seed.ok_or("missing seed")?,
            conditions_tag: conditions_tag.ok_or("missing conditions")?,
            pileup_mu,
            skim: skim.ok_or("missing skim")?,
            slim: slim.ok_or("missing slim")?,
            ntuple_schema: ntuple_schema.ok_or("missing ntuple schema")?,
            analyses,
        })
    }

    /// Build one stage stack (generator, simulation, reconstruction) from
    /// this workflow's configuration. Every runner worker owns its own
    /// stack; all stacks are identical pure functions of the workflow, so
    /// sharding events across them preserves bit-reproducibility. With a
    /// registry attached each stage counts its events (`events.*`).
    fn stage_stack(
        &self,
        ctx: &ExecutionContext,
        metrics: Option<&MetricsRegistry>,
    ) -> (EventGenerator, DetectorSimulation, RecoProcessor) {
        let mut gen = EventGenerator::new(
            GeneratorConfig::new(self.process, self.seed)
                .with_new_physics(self.new_physics)
                .with_pileup(self.pileup_mu),
        );
        let detector = self.experiment.detector();
        let mut sim = DetectorSimulation::new(
            detector.clone(),
            Arc::new(DbSource::connect(
                Arc::clone(&ctx.conditions),
                &self.conditions_tag,
            )),
            SeedSequence::new(self.seed),
        );
        let mut reco = RecoProcessor::new(
            detector,
            RecoConfig::default(),
            Arc::new(DbSource::connect(
                Arc::clone(&ctx.conditions),
                &self.conditions_tag,
            )),
        );
        if let Some(registry) = metrics {
            gen = gen.with_metrics(registry);
            sim = sim.with_metrics(registry);
            reco = reco.with_metrics(registry);
        }
        (gen, sim, reco)
    }

    /// Execute the full chain in the given context. Deterministic: the
    /// outputs — and the stable part of the trace — are byte-identical
    /// for any thread count. `ExecOptions::sequential()` reproduces the
    /// original single-threaded engine exactly (no pool, no channels);
    /// the default observability bundle is disabled and costs nothing.
    pub fn execute(
        &self,
        ctx: &ExecutionContext,
        opts: &ExecOptions,
    ) -> Result<ProductionOutput, Error> {
        let threads = opts.thread_count();
        let metrics = opts.obs.registry();
        let iov_before = ctx.conditions.cursor_stats();
        let mut root = opts.obs.tracer.span("execute");
        root.field("experiment", self.experiment.name());
        root.field("process", self.process.name());
        root.field("seed", self.seed);
        root.field("events", self.n_events);
        if let Some(m) = metrics {
            m.set_gauge("exec.threads", threads as i64);
        }
        // A reference stack for the provenance record; workers build
        // their own identical stacks below.
        let (_, _, reco) = self.stage_stack(ctx, None);

        // --- Generate / simulate / reconstruct --------------------------
        // Sharded over the worker pool and merged in event order.
        let produce = root.child("produce");
        let records =
            crate::runner::run_ordered::<_, Error, _, _>(self.n_events, opts, &produce, || {
                let (gen, sim, reco) = self.stage_stack(ctx, metrics);
                // Per-stage wall-clock gauges: measurements, engine-dependent,
                // only taken when a registry is attached.
                let clocks = metrics.map(|m| {
                    (
                        m.gauge("time.generate_ns"),
                        m.gauge("time.simulate_ns"),
                        m.gauge("time.reconstruct_ns"),
                    )
                });
                move |i: u64| {
                    if let Some((t_gen, t_sim, t_reco)) = &clocks {
                        let c0 = std::time::Instant::now();
                        let truth = gen.event(i);
                        let c1 = std::time::Instant::now();
                        let raw = sim
                            .simulate(&truth, i)
                            .map_err(|e| Error::from(e).at(Stage::Simulate))?;
                        let c2 = std::time::Instant::now();
                        let (reco_ev, aod) = reco
                            .process(&raw)
                            .map_err(|e| Error::from(e).at(Stage::Reconstruct))?;
                        let c3 = std::time::Instant::now();
                        t_gen.add((c1 - c0).as_nanos() as i64);
                        t_sim.add((c2 - c1).as_nanos() as i64);
                        t_reco.add((c3 - c2).as_nanos() as i64);
                        let reco_size = reco_ev.byte_size() as u64;
                        return Ok((truth, raw, aod, reco_size));
                    }
                    let truth = gen.event(i);
                    let raw = sim
                        .simulate(&truth, i)
                        .map_err(|e| Error::from(e).at(Stage::Simulate))?;
                    let (reco_ev, aod) = reco
                        .process(&raw)
                        .map_err(|e| Error::from(e).at(Stage::Reconstruct))?;
                    let reco_size = reco_ev.byte_size() as u64;
                    Ok((truth, raw, aod, reco_size))
                }
            })?;
        let mut produce = produce;
        produce.field("events", records.len());
        produce.finish();
        let mut truth_events = Vec::with_capacity(records.len());
        let mut raw_events = Vec::with_capacity(records.len());
        let mut aod_events = Vec::with_capacity(records.len());
        let mut reco_bytes = 0u64;
        for (truth, raw, aod, reco_size) in records {
            reco_bytes += reco_size;
            truth_events.push(truth);
            raw_events.push(raw);
            aod_events.push(aod);
        }

        // --- Persist tiers ----------------------------------------------
        let run_name = format!(
            "{}/{}/seed{}",
            self.experiment.name(),
            self.process.name(),
            self.seed
        );
        let mut enc_raw = root.child("encode/raw");
        let raw_file = daspos_detsim::raw::RawEvent::encode_events_parallel(&raw_events, threads);
        let raw_bytes = raw_file.len() as u64;
        let raw_ds = ctx
            .catalog
            .register(
                &format!("{run_name}/raw"),
                self.experiment.name(),
                DataTier::Raw,
                vec![(raw_file, raw_events.len() as u64)],
            )
            .map_err(|e| Error::from(e).at(Stage::Encode))?;
        enc_raw.field("events", raw_events.len());
        enc_raw.field("bytes", raw_bytes);
        enc_raw.finish();
        let mut enc_aod = root.child("encode/aod");
        let aod_file = match opts.tier_format {
            TierFormat::Row => AodEvent::encode_events_parallel(&aod_events, threads),
            TierFormat::Columnar => daspos_tiers::encode_columnar_parallel(&aod_events, threads),
        };
        let aod_bytes = aod_file.len() as u64;
        let aod_ds = ctx
            .catalog
            .register(
                &format!("{run_name}/aod"),
                self.experiment.name(),
                DataTier::Aod,
                // Bytes clone: a refcount bump, not a copy — the skim
                // below reads the same buffer.
                vec![(aod_file.clone(), aod_events.len() as u64)],
            )
            .map_err(|e| Error::from(e).at(Stage::Encode))?;
        enc_aod.field("events", aod_events.len());
        enc_aod.field("bytes", aod_bytes);
        enc_aod.finish();

        // --- Skim / slim / ntuple ----------------------------------------
        // Sequential runs take the single-pass streaming skim straight
        // off the encoded AOD file: decode, filter, slim and ntuple-ize
        // per event with reused scratch buffers, never materializing the
        // skimmed Vec<AodEvent>. Multi-threaded runs keep the chunked
        // batch skim. Both produce byte-identical skim files and
        // identical reports/ntuples (asserted by tests), so the engine
        // choice never changes the archived output. Columnar runs use
        // the predicate-pushdown pass over the DPCF file instead — same
        // surviving events, column-major bytes.
        let mut skim_span = root.child("skim");
        let (skim_file, skim_report, ntuple) = if opts.tier_format == TierFormat::Columnar {
            let mut ntuple = Ntuple::empty(self.ntuple_schema.clone());
            let (skim_file, skim_report) = daspos_tiers::skim_slim_columnar_with(
                &aod_file,
                &self.skim,
                &self.slim,
                metrics,
                |ev| ntuple.append(ev),
            )
            .map_err(|e| Error::from(e).at(Stage::Skim))?;
            (skim_file, skim_report, ntuple)
        } else if threads <= 1 {
            let mut ntuple = Ntuple::empty(self.ntuple_schema.clone());
            let (skim_file, skim_report) = daspos_tiers::skim::skim_slim_streaming_observed(
                &aod_file,
                &self.skim,
                &self.slim,
                metrics,
                |ev| ntuple.append(ev),
            )
            .map_err(|e| Error::from(e).at(Stage::Skim))?;
            (skim_file, skim_report, ntuple)
        } else {
            let (skimmed, skim_report) =
                daspos_tiers::skim::skim_slim_chunked(&aod_events, &self.skim, &self.slim, threads);
            let skim_file = AodEvent::encode_events_parallel(&skimmed, threads);
            let ntuple = Ntuple::fill(self.ntuple_schema.clone(), &skimmed);
            (skim_file, skim_report, ntuple)
        };
        let skim_bytes = skim_file.len() as u64;
        let skim_events = skim_report.events_out;
        skim_span.field("events_in", skim_report.events_in);
        skim_span.field("events_out", skim_report.events_out);
        skim_span.field("bytes_in", skim_report.bytes_in);
        skim_span.field("bytes_out", skim_report.bytes_out);
        let skim_ds = ctx
            .catalog
            .register(
                &format!("{run_name}/skim"),
                self.experiment.name(),
                DataTier::Aod,
                vec![(skim_file, skim_events)],
            )
            .map_err(|e| Error::from(e).at(Stage::Skim))?;
        skim_span.finish();
        let mut ntuple_span = root.child("ntuple");
        let ntuple_bytes = ntuple.byte_size() as u64;
        ntuple_span.field("rows", ntuple.n_rows());
        ntuple_span.field("bytes", ntuple_bytes);
        ntuple_span.finish();

        // --- Analyses ------------------------------------------------------
        let mut analysis_results = BTreeMap::new();
        for key in &self.analyses {
            let mut span = root.child_fmt(format_args!("analysis/{key}"));
            let analysis = ctx.registry.get(key).ok_or_else(|| {
                Error::new(ErrorKind::Analysis(format!(
                    "analysis '{key}' not in registry"
                )))
                .at(Stage::Analysis)
            })?;
            let truth_result = RunHarness::run(analysis.as_ref(), truth_events.iter());
            span.field("truth_events", truth_result.events);
            analysis_results.insert(format!("truth:{key}"), truth_result);
            let det_result = RunHarness::run_detector(analysis.as_ref(), aod_events.iter());
            span.field("det_events", det_result.events);
            analysis_results.insert(format!("det:{key}"), det_result);
            span.finish();
        }

        // --- Provenance -----------------------------------------------------
        let mut prov_span = root.child("provenance");
        ctx.provenance.declare_root(raw_ds);
        ctx.provenance
            .record(
                StepBuilder::new(
                    StepKind::Reconstruction,
                    format!("{} threads={threads}", reco.describe()),
                    ctx.software.clone(),
                )
                .conditions(&self.conditions_tag)
                .seed(self.seed)
                .input(raw_ds)
                .output(aod_ds),
            )
            .map_err(|e| Error::msg(e.to_string()).at(Stage::Provenance))?;
        ctx.provenance
            .record(
                StepBuilder::new(
                    StepKind::SkimSlim,
                    format!("skim={} slim={}", self.skim.to_text(), self.slim.to_text()),
                    ctx.software.clone(),
                )
                .input(aod_ds)
                .output(skim_ds),
            )
            .map_err(|e| Error::msg(e.to_string()).at(Stage::Provenance))?;
        prov_span.field("steps", ctx.provenance.step_count());
        prov_span.finish();

        // --- Deterministic chain counters + engine gauges -------------------
        if let Some(m) = metrics {
            m.add("tier.raw.bytes", raw_bytes);
            m.add("tier.raw.events", raw_events.len() as u64);
            m.add("tier.reco.bytes", reco_bytes);
            m.add("tier.aod.bytes", aod_bytes);
            m.add("tier.aod.events", aod_events.len() as u64);
            m.add("tier.skim.bytes", skim_bytes);
            m.add("tier.skim.events", skim_events);
            m.add("tier.ntuple.bytes", ntuple_bytes);
            m.add("tier.ntuple.rows", ntuple.n_rows() as u64);
            m.add("skim.events_in", skim_report.events_in);
            m.add("skim.events_out", skim_report.events_out);
            let iov_after = ctx.conditions.cursor_stats();
            m.gauge("iov.cursor_hits")
                .add((iov_after.0 - iov_before.0) as i64);
            m.gauge("iov.lookups")
                .add((iov_after.1 - iov_before.1) as i64);
        }
        root.finish();

        Ok(ProductionOutput {
            raw_dataset: raw_ds,
            aod_dataset: aod_ds,
            skim_dataset: skim_ds,
            tier_bytes: vec![
                ("raw".to_string(), raw_bytes, raw_events.len() as u64),
                ("reco".to_string(), reco_bytes, raw_events.len() as u64),
                ("aod".to_string(), aod_bytes, aod_events.len() as u64),
                ("skim".to_string(), skim_bytes, skim_events),
                ("ntuple".to_string(), ntuple_bytes, ntuple.n_rows() as u64),
            ],
            skim_report,
            ntuple,
            aod_events,
            analysis_results,
        })
    }

}

/// The span paths a complete chain trace must contain — the tier-1
/// coverage check behind `daspos-cli trace`. Returns the missing paths
/// (empty = full coverage). `records` may be in any order.
pub fn chain_trace_coverage(records: &[SpanRecord]) -> Vec<String> {
    let required = [
        "execute",
        "execute/produce",
        "execute/encode/raw",
        "execute/encode/aod",
        "execute/skim",
        "execute/ntuple",
        "execute/provenance",
    ];
    let mut missing: Vec<String> = required
        .iter()
        .filter(|path| !records.iter().any(|r| r.path == **path))
        .map(|p| p.to_string())
        .collect();
    if !records
        .iter()
        .any(|r| r.path.starts_with("execute/analysis/"))
    {
        missing.push("execute/analysis/*".to_string());
    }
    if !records
        .iter()
        .any(|r| r.path.starts_with("execute/produce/chunk-"))
    {
        missing.push("execute/produce/chunk-*".to_string());
    }
    missing
}

/// The execution environment a workflow runs in: the external services a
/// preservation archive must capture or recreate.
pub struct ExecutionContext {
    /// The conditions database.
    pub conditions: Arc<ConditionsStore>,
    /// The preserved-analysis registry.
    pub registry: Arc<AnalysisRegistry>,
    /// The dataset catalog.
    pub catalog: Arc<DatasetCatalog>,
    /// The provenance capture structure.
    pub provenance: Arc<ProvenanceGraph>,
    /// The software stack executing the chain.
    pub software: SoftwareStack,
}

impl ExecutionContext {
    /// A fresh context with nominal conditions for the workflow's tag.
    ///
    /// The calibration constants are a deterministic function of the tag
    /// name, so distinct tags really mean distinct calibrations — losing
    /// the tag loses physics, as the reconstruction tests demonstrate.
    pub fn fresh(workflow: &PreservedWorkflow) -> ExecutionContext {
        let conditions = Arc::new(ConditionsStore::new());
        populate_conditions(&conditions, &workflow.conditions_tag)
            .expect("fresh store accepts the tag");
        ExecutionContext {
            conditions,
            registry: Arc::new(AnalysisRegistry::with_builtin()),
            catalog: Arc::new(DatasetCatalog::new()),
            provenance: Arc::new(ProvenanceGraph::new()),
            software: standard_stack(),
        }
    }

    /// A context over an existing conditions store (archive restoration).
    pub fn with_conditions(
        conditions: Arc<ConditionsStore>,
        software: SoftwareStack,
    ) -> ExecutionContext {
        ExecutionContext {
            conditions,
            registry: Arc::new(AnalysisRegistry::with_builtin()),
            catalog: Arc::new(DatasetCatalog::new()),
            provenance: Arc::new(ProvenanceGraph::new()),
            software,
        }
    }
}

/// The standard software stack of this toolkit build.
pub fn standard_stack() -> SoftwareStack {
    SoftwareStack::on_current(vec![
        SoftwareVersion::new("daspos-gen", 1, 0, 0),
        SoftwareVersion::new("daspos-detsim", 1, 0, 0),
        SoftwareVersion::new("daspos-reco", 1, 0, 0),
        SoftwareVersion::new("daspos-tiers", 1, 0, 0),
        SoftwareVersion::new("daspos-rivet", 1, 0, 0),
        SoftwareVersion::new("conditions-db", 2, 0, 0).external(),
    ])
}

/// Deterministic calibration constants for a tag (FNV of the tag name
/// steers the gains).
pub fn populate_conditions(
    store: &ConditionsStore,
    tag: &str,
) -> Result<(), daspos_conditions::ConditionsError> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let ecal = 1.0 + (h % 11) as f64 * 0.01;
    let hcal = 1.0 + ((h >> 8) % 9) as f64 * 0.01;
    store.create_tag(tag)?;
    for (key, value) in [
        ("ecal/gain", ecal),
        ("hcal/gain", hcal),
        ("tracker/alignment-scale", 1.0),
    ] {
        store.insert(
            tag,
            IovKey::new(key),
            RunRange::from(0),
            Payload::Scalar(value),
        )?;
    }
    store.freeze(tag)
}

/// Everything a production run leaves behind.
#[derive(Debug)]
pub struct ProductionOutput {
    /// The raw-tier dataset.
    pub raw_dataset: DatasetId,
    /// The AOD dataset.
    pub aod_dataset: DatasetId,
    /// The skimmed dataset.
    pub skim_dataset: DatasetId,
    /// Bytes and event counts per tier (the W1 lifecycle numbers).
    pub tier_bytes: Vec<(String, u64, u64)>,
    /// The skim report.
    pub skim_report: SkimReport,
    /// The final ntuple.
    pub ntuple: Ntuple,
    /// AOD events in memory (for downstream outreach conversion).
    pub aod_events: Vec<AodEvent>,
    /// Analysis results keyed `truth:KEY` / `det:KEY`.
    pub analysis_results: BTreeMap<String, AnalysisResult>,
}

impl ProductionOutput {
    /// Serialize every analysis result into one YODA-like text blob
    /// (the archive's reference-results section).
    pub fn results_to_text(&self) -> String {
        let mut out = String::new();
        for (key, result) in &self.analysis_results {
            out.push_str(&format!("== {key} events={} ==\n", result.events));
            out.push_str(&daspos_rivet::yoda::to_text(&result.histograms));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip() {
        for wf in [
            PreservedWorkflow::standard_z(Experiment::Cms, 42, 100),
            PreservedWorkflow::standard_charm(7, 50),
        ] {
            let text = wf.to_text();
            let back = PreservedWorkflow::parse(&text)
                .unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
            assert_eq!(back, wf);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "wrong header\n",
            "# daspos-workflow v1\nexperiment mars\n",
            "# daspos-workflow v1\nprocess z-boson\n", // missing fields
            "# daspos-workflow v1\nunknownkey x\n",
        ] {
            assert!(PreservedWorkflow::parse(bad).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn execution_produces_shrinking_tiers() {
        let wf = PreservedWorkflow::standard_z(Experiment::Cms, 11, 60);
        let ctx = ExecutionContext::fresh(&wf);
        let out = wf.execute(&ctx, &ExecOptions::default()).expect("executes");
        let bytes: BTreeMap<&str, u64> = out
            .tier_bytes
            .iter()
            .map(|(n, b, _)| (n.as_str(), *b))
            .collect();
        assert!(
            bytes["raw"] > bytes["aod"],
            "raw {} aod {}",
            bytes["raw"],
            bytes["aod"]
        );
        assert!(bytes["aod"] > bytes["skim"]);
        assert!(bytes["skim"] >= bytes["ntuple"]);
        assert!(out.skim_report.events_out <= out.skim_report.events_in);
        assert_eq!(ctx.catalog.list().len(), 3);
        assert_eq!(ctx.provenance.step_count(), 2);
        assert!(ctx.provenance.orphans().is_empty());
    }

    #[test]
    fn execution_is_deterministic() {
        let wf = PreservedWorkflow::standard_z(Experiment::Atlas, 99, 40);
        let out1 = wf
            .execute(&ExecutionContext::fresh(&wf), &ExecOptions::default())
            .unwrap();
        let out2 = wf
            .execute(&ExecutionContext::fresh(&wf), &ExecOptions::default())
            .unwrap();
        assert_eq!(out1.results_to_text(), out2.results_to_text());
        assert_eq!(out1.tier_bytes, out2.tier_bytes);
    }

    #[test]
    fn different_seeds_differ() {
        let a = PreservedWorkflow::standard_z(Experiment::Atlas, 1, 40);
        let b = PreservedWorkflow::standard_z(Experiment::Atlas, 2, 40);
        let ra = a
            .execute(&ExecutionContext::fresh(&a), &ExecOptions::default())
            .unwrap();
        let rb = b
            .execute(&ExecutionContext::fresh(&b), &ExecOptions::default())
            .unwrap();
        assert_ne!(ra.results_to_text(), rb.results_to_text());
    }

    #[test]
    fn unknown_analysis_fails_cleanly() {
        let mut wf = PreservedWorkflow::standard_z(Experiment::Cms, 5, 10);
        wf.analyses = vec!["NOPE".to_string()];
        let err = wf
            .execute(&ExecutionContext::fresh(&wf), &ExecOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("NOPE"));
        assert_eq!(err.stage(), Some(daspos_obs::Stage::Analysis));
    }

    #[test]
    fn conditions_are_tag_dependent() {
        let s1 = ConditionsStore::new();
        populate_conditions(&s1, "tag-a").unwrap();
        let s2 = ConditionsStore::new();
        populate_conditions(&s2, "tag-b").unwrap();
        let g1 = s1
            .resolve("tag-a", &IovKey::new("ecal/gain"), 1)
            .unwrap()
            .as_scalar()
            .unwrap();
        let g2 = s2
            .resolve("tag-b", &IovKey::new("ecal/gain"), 1)
            .unwrap()
            .as_scalar()
            .unwrap();
        assert_ne!(g1, g2);
    }

    #[test]
    fn columnar_execution_matches_row_execution() {
        use daspos_obs::MetricsRegistry;
        for wf in [
            PreservedWorkflow::standard_z(Experiment::Cms, 17, 60),
            PreservedWorkflow::standard_charm(9, 120),
        ] {
            let row = wf
                .execute(&ExecutionContext::fresh(&wf), &ExecOptions::sequential())
                .unwrap();
            let registry = Arc::new(MetricsRegistry::default());
            let col = wf
                .execute(
                    &ExecutionContext::fresh(&wf),
                    &ExecOptions::sequential()
                        .tier_format(TierFormat::Columnar)
                        .metrics(Arc::clone(&registry)),
                )
                .unwrap();
            // Same physics out of both layouts: events kept, ntuple rows,
            // analysis histograms — only the tier bytes may differ.
            assert_eq!(col.skim_report.events_in, row.skim_report.events_in);
            assert_eq!(col.skim_report.events_out, row.skim_report.events_out);
            assert_eq!(col.ntuple, row.ntuple);
            assert_eq!(col.results_to_text(), row.results_to_text());
            assert_eq!(col.aod_events, row.aod_events);
            let snap = registry.snapshot();
            let read = snap.counter("tier.columnar.cols_read");
            let skipped = snap.counter("tier.columnar.cols_skipped");
            assert_eq!(read + skipped, 10, "pushdown counters cover all columns");
            assert!(skipped > 0, "a slimmed skim must skip some columns");
        }
    }

    #[test]
    fn charm_workflow_measures_lifetime() {
        let wf = PreservedWorkflow::standard_charm(21, 400);
        let out = wf
            .execute(&ExecutionContext::fresh(&wf), &ExecOptions::default())
            .unwrap();
        let truth = &out.analysis_results["truth:D0LIFE_2013_I0004"];
        assert!(truth.cutflow.final_yield() > 50.0);
        // The ntuple carries the candidate columns.
        assert!(out.ntuple.column_index("cand_t_ps").is_some());
    }
}
