//! RECAST back ends.
//!
//! A back end turns a [`RecastRequest`] into an [`RecastOutput`]. Three
//! fidelity tiers are provided, spanning the report's comparison:
//!
//! * [`FullChainBackend`] — the heavy, high-fidelity path: generate the
//!   model's events, run the **full detector simulation and
//!   reconstruction**, then the preserved analysis at detector level.
//!   This is the "closed" system whose computing cost and migration
//!   burden the report worries about.
//! * [`SmearedBackend`] — parameterized efficiencies and resolutions
//!   applied directly to truth: detector-like acceptance at near-RIVET
//!   cost (the extension that removes §2.4's "no way to include …
//!   degradations in resolution" limitation).
//! * [`RivetBridgeBackend`] — the DASPOS RECAST⇆RIVET bridge: the same
//!   request served by running the preserved analysis at truth level
//!   through the RIVET harness — light, portable, but blind to detector
//!   effects.
//!
//! Each reports a [`BackendCost`] so the R1/R2 experiments can compare.

use std::sync::Arc;

use daspos_conditions::ConditionsSource;
use daspos_detsim::{DetectorConfig, DetectorSimulation};
use daspos_gen::{EventGenerator, GeneratorConfig};
use daspos_hep::event::ProcessKind;
use daspos_hep::SeedSequence;
use daspos_reco::processor::{RecoConfig, RecoProcessor};
use daspos_rivet::{AnalysisRegistry, AnalysisResult, RunHarness};

use crate::request::RecastRequest;

/// Resource accounting for one processed request.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackendCost {
    /// Events generated.
    pub events_generated: u64,
    /// Events pushed through detector simulation.
    pub events_simulated: u64,
    /// Events reconstructed.
    pub events_reconstructed: u64,
    /// Approximate bytes of intermediate data produced.
    pub bytes_touched: u64,
    /// Conditions-database lookups performed.
    pub conditions_lookups: u64,
}

/// The outcome of processing a request.
#[derive(Debug, Clone, PartialEq)]
pub struct RecastOutput {
    /// The request this answers.
    pub request_id: daspos_hep::ids::RequestId,
    /// The analysis result (histograms + cutflow).
    pub result: AnalysisResult,
    /// Signal efficiency: final cutflow yield / events processed.
    pub signal_efficiency: f64,
    /// Which back end produced it.
    pub backend: String,
    /// What it cost.
    pub cost: BackendCost,
}

/// Back-end failures.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The requested analysis is not in the registry.
    UnknownAnalysis(String),
    /// A processing stage failed.
    Processing(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::UnknownAnalysis(k) => write!(f, "unknown analysis '{k}'"),
            BackendError::Processing(msg) => write!(f, "processing failed: {msg}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A RECAST processing back end.
pub trait RecastBackend: Send + Sync {
    /// Process one request.
    fn process(&self, request: &RecastRequest) -> Result<RecastOutput, BackendError>;

    /// A short label for provenance and reports.
    fn describe(&self) -> String;
}

/// The full-chain back end: gen → detsim → reco → detector-level
/// analysis.
pub struct FullChainBackend {
    detector: DetectorConfig,
    conditions: Arc<dyn ConditionsSource>,
    registry: Arc<AnalysisRegistry>,
    /// Master seed namespace; each request derives its own stream.
    seeds: SeedSequence,
}

impl FullChainBackend {
    /// Build a back end over one experiment's detector, conditions and
    /// preserved-analysis registry.
    pub fn new(
        detector: DetectorConfig,
        conditions: Arc<dyn ConditionsSource>,
        registry: Arc<AnalysisRegistry>,
        seeds: SeedSequence,
    ) -> Self {
        FullChainBackend {
            detector,
            conditions,
            registry,
            seeds,
        }
    }
}

impl RecastBackend for FullChainBackend {
    fn process(&self, request: &RecastRequest) -> Result<RecastOutput, BackendError> {
        let analysis = self
            .registry
            .get(&request.analysis_key)
            .ok_or_else(|| BackendError::UnknownAnalysis(request.analysis_key.clone()))?;

        // Per-request deterministic seed stream.
        let seeds = self.seeds.derive(&format!("recast-{}", request.id));
        let gen = EventGenerator::new(
            GeneratorConfig::new(ProcessKind::NewPhysics, seeds.master())
                .with_new_physics(request.model),
        );
        let sim = DetectorSimulation::new(
            self.detector.clone(),
            Arc::clone(&self.conditions),
            seeds,
        );
        let reco = RecoProcessor::new(
            self.detector.clone(),
            RecoConfig::default(),
            Arc::clone(&self.conditions),
        );

        self.conditions.stats().reset();
        let mut bytes: u64 = 0;
        let mut aods = Vec::with_capacity(request.n_events as usize);
        for i in 0..request.n_events {
            let truth = gen.event(i);
            let raw = sim
                .simulate(&truth, i)
                .map_err(|e| BackendError::Processing(e.to_string()))?;
            bytes += raw.byte_size() as u64;
            let (reco_ev, aod) = reco
                .process(&raw)
                .map_err(|e| BackendError::Processing(e.to_string()))?;
            bytes += reco_ev.byte_size() as u64 + aod.byte_size() as u64;
            aods.push(aod);
        }
        let result = RunHarness::run_detector(analysis.as_ref(), aods.iter());
        let signal_efficiency = result.cutflow.efficiency();
        Ok(RecastOutput {
            request_id: request.id,
            result,
            signal_efficiency,
            backend: self.describe(),
            cost: BackendCost {
                events_generated: request.n_events,
                events_simulated: request.n_events,
                events_reconstructed: request.n_events,
                bytes_touched: bytes,
                conditions_lookups: self.conditions.stats().lookups(),
            },
        })
    }

    fn describe(&self) -> String {
        format!("full-chain({})", self.detector.experiment.name())
    }
}

/// The RECAST⇆RIVET bridge: truth-level execution of the same preserved
/// analysis.
pub struct RivetBridgeBackend {
    registry: Arc<AnalysisRegistry>,
    seeds: SeedSequence,
}

impl RivetBridgeBackend {
    /// Build a bridge back end over a registry.
    pub fn new(registry: Arc<AnalysisRegistry>, seeds: SeedSequence) -> Self {
        RivetBridgeBackend { registry, seeds }
    }
}

impl RecastBackend for RivetBridgeBackend {
    fn process(&self, request: &RecastRequest) -> Result<RecastOutput, BackendError> {
        let analysis = self
            .registry
            .get(&request.analysis_key)
            .ok_or_else(|| BackendError::UnknownAnalysis(request.analysis_key.clone()))?;
        let seeds = self.seeds.derive(&format!("recast-{}", request.id));
        let gen = EventGenerator::new(
            GeneratorConfig::new(ProcessKind::NewPhysics, seeds.master())
                .with_new_physics(request.model),
        );
        let mut bytes: u64 = 0;
        let events: Vec<_> = gen
            .events(request.n_events)
            .inspect(|ev| bytes += (ev.particles.len() * 64) as u64)
            .collect();
        let result = RunHarness::run(analysis.as_ref(), events.iter());
        let signal_efficiency = result.cutflow.efficiency();
        Ok(RecastOutput {
            request_id: request.id,
            result,
            signal_efficiency,
            backend: self.describe(),
            cost: BackendCost {
                events_generated: request.n_events,
                events_simulated: 0,
                events_reconstructed: 0,
                bytes_touched: bytes,
                conditions_lookups: 0,
            },
        })
    }

    fn describe(&self) -> String {
        "rivet-bridge".to_string()
    }
}

/// The smeared back end: the middle rung of the fidelity ladder. Truth
/// events pass through a parameterized [`daspos_rivet::SmearingModel`]
/// (efficiencies + resolutions, no hit simulation or reconstruction)
/// before the detector-level analysis hooks — removing the §2.4 RIVET
/// limitation that there is "no way to include … the degradations in
/// resolution and particle collection efficiencies" at a fraction of the
/// full chain's cost.
pub struct SmearedBackend {
    model: daspos_rivet::SmearingModel,
    registry: Arc<AnalysisRegistry>,
    seeds: SeedSequence,
    label: String,
}

impl SmearedBackend {
    /// Build a smeared back end from an explicit model.
    pub fn new(
        model: daspos_rivet::SmearingModel,
        registry: Arc<AnalysisRegistry>,
        seeds: SeedSequence,
        label: impl Into<String>,
    ) -> Self {
        SmearedBackend {
            model,
            registry,
            seeds,
            label: label.into(),
        }
    }

    /// Build from a detector configuration (parameters collapsed from
    /// the same knobs the full simulation uses).
    pub fn from_detector(
        detector: &DetectorConfig,
        registry: Arc<AnalysisRegistry>,
        seeds: SeedSequence,
    ) -> Self {
        SmearedBackend::new(
            daspos_rivet::SmearingModel::from_detector(detector),
            registry,
            seeds,
            detector.experiment.name(),
        )
    }
}

impl RecastBackend for SmearedBackend {
    fn process(&self, request: &RecastRequest) -> Result<RecastOutput, BackendError> {
        let analysis = self
            .registry
            .get(&request.analysis_key)
            .ok_or_else(|| BackendError::UnknownAnalysis(request.analysis_key.clone()))?;
        let seeds = self.seeds.derive(&format!("recast-{}", request.id));
        let gen = EventGenerator::new(
            GeneratorConfig::new(ProcessKind::NewPhysics, seeds.master())
                .with_new_physics(request.model),
        );
        let smear_seed = seeds.stage("smear");
        let mut bytes: u64 = 0;
        let aods: Vec<_> = (0..request.n_events)
            .map(|i| {
                let truth = gen.event(i);
                bytes += (truth.particles.len() * 64) as u64;
                let aod = self.model.smear(&truth, smear_seed);
                bytes += aod.byte_size() as u64;
                aod
            })
            .collect();
        let result = RunHarness::run_detector(analysis.as_ref(), aods.iter());
        let signal_efficiency = result.cutflow.efficiency();
        Ok(RecastOutput {
            request_id: request.id,
            result,
            signal_efficiency,
            backend: self.describe(),
            cost: BackendCost {
                events_generated: request.n_events,
                events_simulated: 0,
                events_reconstructed: 0,
                bytes_touched: bytes,
                conditions_lookups: 0,
            },
        })
    }

    fn describe(&self) -> String {
        format!("smeared({})", self.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daspos_conditions::{ConditionsStore, DbSource, IovKey, Payload, RunRange};
    use daspos_detsim::Experiment;
    use daspos_gen::NewPhysicsParams;
    use daspos_hep::ids::RequestId;

    fn conditions() -> Arc<dyn ConditionsSource> {
        let s = Arc::new(ConditionsStore::new());
        s.create_tag("mc").unwrap();
        for (k, v) in [
            ("ecal/gain", 1.0),
            ("hcal/gain", 1.0),
            ("tracker/alignment-scale", 1.0),
        ] {
            s.insert("mc", IovKey::new(k), RunRange::from(0), Payload::Scalar(v))
                .unwrap();
        }
        Arc::new(DbSource::connect(s, "mc"))
    }

    fn request(id: u64, mass: f64, n: u64) -> RecastRequest {
        RecastRequest {
            id: RequestId(id),
            analysis_key: "SEARCH_2013_I0006".to_string(),
            model: NewPhysicsParams {
                mass,
                width: mass * 0.03,
                cross_section_pb: 1.0,
            },
            n_events: n,
            requester: "pheno".to_string(),
        }
    }

    fn full_chain() -> FullChainBackend {
        FullChainBackend::new(
            Experiment::Cms.detector(),
            conditions(),
            Arc::new(AnalysisRegistry::with_builtin()),
            SeedSequence::new(7),
        )
    }

    #[test]
    fn full_chain_processes_and_accounts() {
        let backend = full_chain();
        let out = backend.process(&request(1, 400.0, 80)).unwrap();
        assert_eq!(out.cost.events_simulated, 80);
        assert_eq!(out.cost.events_reconstructed, 80);
        assert!(out.cost.bytes_touched > 10_000);
        assert!(out.cost.conditions_lookups > 0);
        assert!(out.signal_efficiency > 0.1, "eff {}", out.signal_efficiency);
        assert!(out.backend.contains("full-chain"));
    }

    #[test]
    fn bridge_is_cheaper_but_agrees_on_physics() {
        let registry = Arc::new(AnalysisRegistry::with_builtin());
        let bridge = RivetBridgeBackend::new(Arc::clone(&registry), SeedSequence::new(7));
        let chain = full_chain();
        let req = request(2, 400.0, 80);
        let bridge_out = bridge.process(&req).unwrap();
        let chain_out = chain.process(&req).unwrap();
        // The bridge simulates nothing.
        assert_eq!(bridge_out.cost.events_simulated, 0);
        assert_eq!(bridge_out.cost.conditions_lookups, 0);
        assert!(bridge_out.cost.bytes_touched < chain_out.cost.bytes_touched);
        // Both find high signal efficiency for a 400 GeV resonance; the
        // truth-level bridge is at least as efficient (no detector loss).
        assert!(bridge_out.signal_efficiency >= chain_out.signal_efficiency - 0.05);
        assert!(chain_out.signal_efficiency > 0.1);
    }

    #[test]
    fn unknown_analysis_fails() {
        let backend = full_chain();
        let mut req = request(3, 300.0, 5);
        req.analysis_key = "NOPE".to_string();
        assert!(matches!(
            backend.process(&req),
            Err(BackendError::UnknownAnalysis(_))
        ));
    }

    #[test]
    fn processing_is_deterministic_per_request() {
        let backend = full_chain();
        let req = request(4, 350.0, 30);
        let a = backend.process(&req).unwrap();
        let b = backend.process(&req).unwrap();
        assert!(a.result.identical_to(&b.result));
    }

    #[test]
    fn different_requests_get_independent_streams() {
        let backend = full_chain();
        let a = backend.process(&request(5, 350.0, 30)).unwrap();
        let b = backend.process(&request(6, 350.0, 30)).unwrap();
        assert!(!a.result.identical_to(&b.result));
    }

    #[test]
    fn smeared_backend_sits_between_bridge_and_chain() {
        let reg = Arc::new(AnalysisRegistry::with_builtin());
        let smeared = SmearedBackend::from_detector(
            &Experiment::Cms.detector(),
            Arc::clone(&reg),
            SeedSequence::new(7),
        );
        let bridge = RivetBridgeBackend::new(Arc::clone(&reg), SeedSequence::new(7));
        let chain = full_chain();
        let req = request(20, 400.0, 80);
        let s = smeared.process(&req).unwrap();
        let b = bridge.process(&req).unwrap();
        let c = chain.process(&req).unwrap();
        // No simulation or conditions dependency, like the bridge…
        assert_eq!(s.cost.events_simulated, 0);
        assert_eq!(s.cost.conditions_lookups, 0);
        // …but detector-like efficiency: at or below truth level.
        assert!(s.signal_efficiency <= b.signal_efficiency + 0.05);
        assert!(s.signal_efficiency > 0.2, "eff {}", s.signal_efficiency);
        // And it agrees with the full chain within a coarse band.
        assert!(
            (s.signal_efficiency - c.signal_efficiency).abs() < 0.25,
            "smeared {} vs chain {}",
            s.signal_efficiency,
            c.signal_efficiency
        );
        assert!(s.backend.starts_with("smeared("));
    }

    #[test]
    fn smeared_backend_is_deterministic() {
        let reg = Arc::new(AnalysisRegistry::with_builtin());
        let smeared = SmearedBackend::from_detector(
            &Experiment::Cms.detector(),
            reg,
            SeedSequence::new(9),
        );
        let req = request(21, 350.0, 40);
        let a = smeared.process(&req).unwrap();
        let b = smeared.process(&req).unwrap();
        assert!(a.result.identical_to(&b.result));
    }

    #[test]
    fn efficiency_fallss_for_low_mass_models() {
        // A 150 GeV resonance sits below the 200 GeV signal region.
        let backend = full_chain();
        let high = backend.process(&request(7, 400.0, 60)).unwrap();
        let low = backend.process(&request(8, 150.0, 60)).unwrap();
        assert!(
            high.signal_efficiency > low.signal_efficiency + 0.2,
            "high {} low {}",
            high.signal_efficiency,
            low.signal_efficiency
        );
    }
}
