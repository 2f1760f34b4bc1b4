//! The reconstruction processor: RAW → RECO → AOD.
//!
//! This is the "central processing" of the report's workflow analysis: it
//! owns the conditions-database dependency, runs every reconstruction
//! algorithm, and emits the two persistent tiers. After this stage,
//! *"dependencies on external databases or other sources of information
//! become much weaker"* (§3.2) — the AOD carries candidate objects only.

use std::sync::Arc;

use daspos_conditions::{ConditionsError, ConditionsSource, IovKey};
use daspos_detsim::config::DetectorConfig;
use daspos_detsim::raw::RawEvent;
use daspos_obs::{Gauge, SectionClock};

use crate::clustering;
use crate::identify::{self, IdConfig};
use crate::jets;
use crate::objects::{AodEvent, Met, RecoEvent};
use crate::tracking;
use crate::vertexing::{self, VertexConfig};

/// Reconstruction configuration beyond the detector geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoConfig {
    /// Minimum calorimeter cluster energy (GeV).
    pub cluster_e_min: f64,
    /// Anti-kT radius parameter.
    pub jet_radius: f64,
    /// Minimum jet pT (GeV).
    pub jet_pt_min: f64,
    /// Identification working points.
    pub id: IdConfig,
    /// Vertexing configuration.
    pub vertexing: VertexConfig,
}

impl Default for RecoConfig {
    fn default() -> Self {
        RecoConfig {
            cluster_e_min: 1.0,
            jet_radius: 0.4,
            jet_pt_min: 15.0,
            id: IdConfig::default(),
            vertexing: VertexConfig::default(),
        }
    }
}

/// Sub-stage timing gauges, indexed by the constants below.
const SUB_STAGES: [&str; 5] = [
    "time.reco.tracking_ns",
    "time.reco.clustering_ns",
    "time.reco.identify_ns",
    "time.reco.jets_ns",
    "time.reco.vertexing_ns",
];
const TRACKING: usize = 0;
const CLUSTERING: usize = 1;
const IDENTIFY: usize = 2;
const JETS: usize = 3;
const VERTEXING: usize = 4;

/// The reconstruction processor for one experiment.
pub struct RecoProcessor {
    detector: DetectorConfig,
    config: RecoConfig,
    conditions: Arc<dyn ConditionsSource>,
    /// The `ecal/gain` and `hcal/gain` keys, built once.
    gain_keys: [IovKey; 2],
    reconstructed: Option<daspos_obs::Counter>,
    clocks: Option<[Gauge; 5]>,
}

impl RecoProcessor {
    /// Build a processor; the conditions source must carry the tag the
    /// simulation (or data taking) used, or the calibration will be wrong.
    pub fn new(
        detector: DetectorConfig,
        config: RecoConfig,
        conditions: Arc<dyn ConditionsSource>,
    ) -> Self {
        RecoProcessor {
            detector,
            config,
            conditions,
            gain_keys: [IovKey::new("ecal/gain"), IovKey::new("hcal/gain")],
            reconstructed: None,
            clocks: None,
        }
    }

    /// Count every successfully reconstructed event into `registry`'s
    /// `events.reconstructed` counter, and sum the wall-clock time of
    /// each sub-stage into the volatile `time.reco.{tracking,clustering,
    /// identify,jets,vertexing}_ns` gauges. Without a registry no clock
    /// is read.
    pub fn with_metrics(mut self, registry: &daspos_obs::MetricsRegistry) -> Self {
        self.reconstructed = Some(registry.counter("events.reconstructed"));
        self.clocks = Some(SUB_STAGES.map(|name| registry.gauge(name)));
        self
    }

    /// The reconstruction configuration.
    pub fn config(&self) -> &RecoConfig {
        &self.config
    }

    /// A provenance label.
    pub fn describe(&self) -> String {
        format!(
            "reco({},conditions={})",
            self.detector.experiment.name(),
            self.conditions.describe()
        )
    }

    /// RAW → RECO: fit tracks, cluster the calorimeter, build muon
    /// segments. This is the stage with the conditions dependency.
    pub fn reconstruct(&self, raw: &RawEvent) -> Result<RecoEvent, ConditionsError> {
        let run = raw.header.run.0;
        let [em_key, had_key] = &self.gain_keys;
        let em_gain = self.conditions.get(em_key, run)?.as_scalar().unwrap_or(1.0);
        let had_gain = self
            .conditions
            .get(had_key, run)?
            .as_scalar()
            .unwrap_or(1.0);

        let mut clock = SectionClock::new(self.clocks.as_ref());
        let tracks = clock.time(TRACKING, || {
            tracking::fit_all(&raw.tracker_hits, self.detector.field_tesla)
        });
        let clusters = clock.time(CLUSTERING, || {
            clustering::cluster_cells(
                &raw.calo_cells,
                &self.detector.calo,
                em_gain,
                had_gain,
                self.config.cluster_e_min,
            )
        });
        let muon_segments = clock.time(IDENTIFY, || identify::build_muon_segments(&raw.muon_hits));
        clock.finish();
        Ok(RecoEvent {
            header: raw.header,
            tracks,
            clusters,
            muon_segments,
        })
    }

    /// RECO → AOD: identify candidate physics objects. No external
    /// dependencies — everything needed is in the RECO event.
    pub fn refine(&self, reco: &RecoEvent) -> AodEvent {
        let mut clock = SectionClock::new(self.clocks.as_ref());
        let ids = clock.time(IDENTIFY, || {
            identify::identify(
                &reco.tracks,
                &reco.clusters,
                &reco.muon_segments,
                &self.config.id,
            )
        });

        // Jets from clusters not consumed by electrons/photons.
        let jets = clock.time(JETS, || {
            let jet_inputs: Vec<_> = reco
                .clusters
                .iter()
                .enumerate()
                .filter(|(i, _)| !ids.used_clusters.contains(i))
                .map(|(_, c)| *c)
                .collect();
            jets::anti_kt(&jet_inputs, self.config.jet_radius, self.config.jet_pt_min)
        });

        // MET: negative vector sum of all calibrated calo clusters plus
        // muon tracks (muons deposit almost nothing in the calorimeter).
        let mut mex = 0.0;
        let mut mey = 0.0;
        for c in &reco.clusters {
            let et = c.et();
            mex -= et * c.phi.cos();
            mey -= et * c.phi.sin();
        }
        for m in &ids.muons {
            mex -= m.momentum.px;
            mey -= m.momentum.py;
        }

        let candidates = clock.time(VERTEXING, || {
            vertexing::find_candidates(&reco.tracks, &self.config.vertexing)
        });
        clock.finish();

        AodEvent {
            header: reco.header,
            electrons: ids.electrons,
            muons: ids.muons,
            photons: ids.photons,
            jets,
            met: Met { mex, mey },
            candidates,
            n_tracks: reco.tracks.len() as u32,
        }
    }

    /// The full per-event chain RAW → AOD.
    pub fn process(&self, raw: &RawEvent) -> Result<(RecoEvent, AodEvent), ConditionsError> {
        let reco = self.reconstruct(raw)?;
        let aod = self.refine(&reco);
        if let Some(counter) = &self.reconstructed {
            counter.inc();
        }
        Ok((reco, aod))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daspos_conditions::{ConditionsStore, DbSource, Payload, RunRange};
    use daspos_detsim::{DetectorSimulation, Experiment};
    use daspos_gen::{EventGenerator, GeneratorConfig};
    use daspos_hep::event::ProcessKind;
    use daspos_hep::fourvec::invariant_mass;
    use daspos_hep::SeedSequence;

    fn conditions(gain: f64) -> Arc<ConditionsStore> {
        let s = Arc::new(ConditionsStore::new());
        s.create_tag("mc").unwrap();
        for (k, v) in [
            ("ecal/gain", gain),
            ("hcal/gain", gain),
            ("tracker/alignment-scale", 1.0),
        ] {
            s.insert("mc", IovKey::new(k), RunRange::from(0), Payload::Scalar(v))
                .unwrap();
        }
        s
    }

    fn chain(
        exp: Experiment,
        process: ProcessKind,
        seed: u64,
        gain: f64,
    ) -> (EventGenerator, DetectorSimulation, RecoProcessor) {
        let store = conditions(gain);
        let gen = EventGenerator::new(GeneratorConfig::new(process, seed));
        let sim = DetectorSimulation::new(
            exp.detector(),
            Arc::new(DbSource::connect(Arc::clone(&store), "mc")),
            SeedSequence::new(seed),
        );
        let reco = RecoProcessor::new(
            exp.detector(),
            RecoConfig::default(),
            Arc::new(DbSource::connect(store, "mc")),
        );
        (gen, sim, reco)
    }

    #[test]
    fn z_to_mumu_reconstructs_at_z_mass() {
        let (gen, sim, reco) = chain(Experiment::Cms, ProcessKind::ZBoson, 500, 1.0);
        let mut masses = Vec::new();
        for i in 0..200 {
            let raw = sim.simulate(&gen.event(i), i).unwrap();
            let (_, aod) = reco.process(&raw).unwrap();
            if aod.muons.len() >= 2 {
                let m = invariant_mass([&aod.muons[0].momentum, &aod.muons[1].momentum]);
                if m > 60.0 && m < 120.0 {
                    masses.push(m);
                }
            }
        }
        assert!(masses.len() > 30, "only {} dimuon events", masses.len());
        let mean = masses.iter().sum::<f64>() / masses.len() as f64;
        assert!((mean - 91.2).abs() < 3.0, "mean m_mumu = {mean}");
    }

    #[test]
    fn higgs_diphoton_peak() {
        let (gen, sim, reco) = chain(Experiment::Atlas, ProcessKind::Higgs, 777, 1.0);
        let mut masses = Vec::new();
        for i in 0..300 {
            let raw = sim.simulate(&gen.event(i), i).unwrap();
            let (_, aod) = reco.process(&raw).unwrap();
            if aod.photons.len() >= 2 {
                let m = invariant_mass([&aod.photons[0].momentum, &aod.photons[1].momentum]);
                if m > 100.0 && m < 150.0 {
                    masses.push(m);
                }
            }
        }
        assert!(masses.len() > 40, "only {} diphoton events", masses.len());
        let mean = masses.iter().sum::<f64>() / masses.len() as f64;
        assert!((mean - 125.0).abs() < 5.0, "mean m_gg = {mean}");
    }

    #[test]
    fn w_events_have_met() {
        let (gen, sim, reco) = chain(Experiment::Atlas, ProcessKind::WBoson, 41, 1.0);
        let mut met_sum = 0.0;
        let mut n = 0;
        for i in 0..100 {
            let raw = sim.simulate(&gen.event(i), i).unwrap();
            let (_, aod) = reco.process(&raw).unwrap();
            if !aod.leptons().is_empty() {
                met_sum += aod.met.value();
                n += 1;
            }
        }
        assert!(n > 30);
        let mean_met = met_sum / f64::from(n);
        assert!(mean_met > 15.0, "mean MET = {mean_met}");
    }

    #[test]
    fn dijet_events_have_jets() {
        let (gen, sim, reco) = chain(Experiment::Cms, ProcessKind::QcdDijet, 4242, 1.0);
        let mut two_jet_events = 0;
        for i in 0..60 {
            let raw = sim.simulate(&gen.event(i), i).unwrap();
            let (_, aod) = reco.process(&raw).unwrap();
            if aod.jets.len() >= 2 {
                two_jet_events += 1;
            }
        }
        assert!(two_jet_events > 30, "{two_jet_events}/60 dijet events");
    }

    #[test]
    fn calibration_closure_under_hot_gain() {
        // Simulated with gain 1.3, reconstructed with the SAME conditions:
        // the photon energies must come back at the true scale.
        let (gen, sim, reco) = chain(Experiment::Atlas, ProcessKind::Higgs, 90, 1.3);
        let mut masses = Vec::new();
        for i in 0..300 {
            let raw = sim.simulate(&gen.event(i), i).unwrap();
            let (_, aod) = reco.process(&raw).unwrap();
            if aod.photons.len() >= 2 {
                let m = invariant_mass([&aod.photons[0].momentum, &aod.photons[1].momentum]);
                if m > 100.0 && m < 150.0 {
                    masses.push(m);
                }
            }
        }
        assert!(masses.len() > 40);
        let mean = masses.iter().sum::<f64>() / masses.len() as f64;
        assert!((mean - 125.0).abs() < 5.0, "closure broken: mean = {mean}");
    }

    #[test]
    fn wrong_conditions_tag_breaks_the_energy_scale() {
        // Simulated with gain 1.5 but reconstructed with gain 1.0: the
        // preserved-knowledge failure the report warns about.
        let store_sim = conditions(1.5);
        let store_reco = conditions(1.0);
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::Higgs, 91));
        let sim = DetectorSimulation::new(
            Experiment::Atlas.detector(),
            Arc::new(DbSource::connect(store_sim, "mc")),
            SeedSequence::new(91),
        );
        let reco = RecoProcessor::new(
            Experiment::Atlas.detector(),
            RecoConfig::default(),
            Arc::new(DbSource::connect(store_reco, "mc")),
        );
        let mut masses = Vec::new();
        for i in 0..300 {
            let raw = sim.simulate(&gen.event(i), i).unwrap();
            let (_, aod) = reco.process(&raw).unwrap();
            if aod.photons.len() >= 2 {
                let m = invariant_mass([&aod.photons[0].momentum, &aod.photons[1].momentum]);
                if m > 80.0 && m < 250.0 {
                    masses.push(m);
                }
            }
        }
        assert!(!masses.is_empty());
        let mean = masses.iter().sum::<f64>() / masses.len() as f64;
        // Scale off by ~1.5: the peak lands near 185, not 125.
        assert!(mean > 160.0, "expected shifted peak, got {mean}");
    }

    #[test]
    fn reco_event_is_larger_than_aod() {
        let (gen, sim, reco) = chain(Experiment::Cms, ProcessKind::QcdDijet, 7, 1.0);
        let mut reco_bytes = 0usize;
        let mut aod_bytes = 0usize;
        for i in 0..30 {
            let raw = sim.simulate(&gen.event(i), i).unwrap();
            let (r, a) = reco.process(&raw).unwrap();
            reco_bytes += r.byte_size();
            aod_bytes += a.byte_size();
        }
        assert!(
            reco_bytes > aod_bytes,
            "RECO {reco_bytes} must exceed AOD {aod_bytes}"
        );
    }

    #[test]
    fn conditions_accesses_happen_per_event() {
        let store = conditions(1.0);
        let src = Arc::new(DbSource::connect(store, "mc"));
        let reco = RecoProcessor::new(
            Experiment::Atlas.detector(),
            RecoConfig::default(),
            Arc::clone(&src) as Arc<dyn ConditionsSource>,
        );
        let raw = RawEvent::new(daspos_hep::EventHeader::new(1, 1, 1));
        for _ in 0..5 {
            reco.reconstruct(&raw).unwrap();
        }
        assert_eq!(src.stats().lookups(), 10); // two keys per event
    }
}
