//! The detector simulation: truth particles → raw hits and cells.
//!
//! Calibration scales are resolved from the conditions database per event
//! (keys `ecal/gain`, `hcal/gain`, `tracker/alignment-scale`), making the
//! simulation the first stage with the external dependency the report
//! flags. The *same* conditions tag used here must later be used by the
//! reconstruction to undo the scales — losing the tag loses physics, which
//! is exactly the preservation hazard DASPOS addresses.
//!
//! Validation replays re-run this simulation and must reproduce its
//! output bit for bit, so its speed and its exact floating-point and
//! random-draw order both matter. The tracker therefore works in two
//! phases per track: it solves the helix intersection of every layer
//! first, several layers in lockstep, and only then makes the layers'
//! random draws in layer order, exactly as a layer-by-layer loop would
//! (see `trace_track`; the loop it replaced is kept as the test oracle).

use std::sync::Arc;

use daspos_hep::event::TruthEvent;
use daspos_hep::fourvec::FourVector;
use daspos_hep::particle::TruthParticle;
use daspos_hep::seq::SeedSequence;
use daspos_hep::stats;
use daspos_conditions::{ConditionsError, ConditionsSource, IovKey};
use daspos_obs::{Gauge, SectionClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::DetectorConfig;
use crate::raw::{CaloCell, MuonHit, RawEvent, TrackerHit};

/// Sub-stage timing gauges, indexed by the constants below.
const SUB_STAGES: [&str; 3] = [
    "time.detsim.tracker_ns",
    "time.detsim.calo_ns",
    "time.detsim.noise_ns",
];
const TRACKER: usize = 0;
const CALO: usize = 1;
const NOISE: usize = 2;

/// The detector simulation for one experiment.
pub struct DetectorSimulation {
    config: DetectorConfig,
    conditions: Arc<dyn ConditionsSource>,
    seeds: SeedSequence,
    /// The `ecal/gain`, `hcal/gain` and `tracker/alignment-scale` keys,
    /// built once.
    keys: [IovKey; 3],
    simulated: Option<daspos_obs::Counter>,
    clocks: Option<[Gauge; 3]>,
}

/// One particle's (or one noise hit's) calibrated energy in a tower.
struct TowerDeposit {
    key: (i32, i32),
    em: f64,
    had: f64,
}

/// Layers whose helix intersections [`Helix::cross`] solves together.
/// Each layer's fixed point is a chain of dependent divide → sin/cos →
/// sqrt steps; solving up to eight at once lets their latencies overlap.
/// Longer trackers are solved block by block.
const LANES: usize = 8;

/// Fixed-point steps a layer intersection may take before it gives up.
const MAX_STEPS: usize = 12;

/// A charged track's circle in the transverse plane.
struct Helix {
    /// Charge sign (±1).
    q: f64,
    /// Curvature radius (mm).
    r_curv: f64,
    /// Initial direction.
    phi0: f64,
    /// Circle centre (mm).
    cx: f64,
    cy: f64,
    /// Transverse distance of the production point from the beam (mm).
    r0: f64,
}

/// Where the fixed-point solve for one layer stopped: its arc length and
/// the last point it accepted, with that point's radius.
#[derive(Clone, Copy, Default)]
struct Crossing {
    s: f64,
    point: Option<(f64, f64, f64)>,
}

impl Helix {
    /// Intersect the circle with each layer cylinder of `radii` (at most
    /// [`LANES`]) by fixed-point iteration on arc length, all layers in
    /// lockstep. Each layer ends exactly as a solve of that layer alone
    /// would: below 1e-6 mm of the radius it keeps that point and its
    /// `s`; a step to `s <= 0` or `s > 4R` (a curler, which never
    /// reaches the layer) keeps the updated `s` but the previous point;
    /// otherwise it stops after [`MAX_STEPS`] steps.
    fn cross(&self, radii: &[f64], out: &mut [Crossing]) {
        let mut live = [false; LANES];
        for ((c, live), &r_layer) in out.iter_mut().zip(&mut live).zip(radii) {
            // Particles born outside a layer (displaced V0 daughters)
            // skip it. A NaN origin skips none, as `r_layer <= r0` is
            // then false.
            let born_outside = r_layer <= self.r0;
            *live = !born_outside;
            *c = Crossing {
                s: r_layer - self.r0,
                point: None,
            };
        }
        for _ in 0..MAX_STEPS {
            let mut stepped = false;
            for ((c, live), &r_layer) in out.iter_mut().zip(&mut live).zip(radii) {
                if !*live {
                    continue;
                }
                let alpha = self.q * c.s / self.r_curv;
                let x = self.cx + self.q * self.r_curv * (self.phi0 + alpha).sin();
                let y = self.cy - self.q * self.r_curv * (self.phi0 + alpha).cos();
                let rho = (x * x + y * y).sqrt();
                if (rho - r_layer).abs() < 1e-6 {
                    c.point = Some((x, y, rho));
                    *live = false;
                    continue;
                }
                c.s += r_layer - rho;
                if c.s <= 0.0 || c.s > 4.0 * self.r_curv {
                    // Curler: the track never reaches this layer.
                    *live = false;
                    continue;
                }
                c.point = Some((x, y, rho));
                stepped = true;
            }
            if !stepped {
                break;
            }
        }
    }
}

impl DetectorSimulation {
    /// Build a simulation from a detector config, a conditions source and
    /// the master seed (stage label `"detsim"` is derived internally).
    pub fn new(
        config: DetectorConfig,
        conditions: Arc<dyn ConditionsSource>,
        seeds: SeedSequence,
    ) -> Self {
        DetectorSimulation {
            config,
            conditions,
            seeds,
            keys: [
                IovKey::new("ecal/gain"),
                IovKey::new("hcal/gain"),
                IovKey::new("tracker/alignment-scale"),
            ],
            simulated: None,
            clocks: None,
        }
    }

    /// Count every successfully simulated event into `registry`'s
    /// `events.simulated` counter, and sum the wall-clock time of track
    /// tracing, calorimeter deposits (towers included) and noise into the
    /// volatile `time.detsim.{tracker,calo,noise}_ns` gauges. Without a
    /// registry no clock is read.
    pub fn with_metrics(mut self, registry: &daspos_obs::MetricsRegistry) -> Self {
        self.simulated = Some(registry.counter("events.simulated"));
        self.clocks = Some(SUB_STAGES.map(|name| registry.gauge(name)));
        self
    }

    /// The detector configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// A provenance label (detector + conditions source).
    pub fn describe(&self) -> String {
        format!(
            "detsim({},conditions={})",
            self.config.experiment.name(),
            self.conditions.describe()
        )
    }

    /// Simulate one truth event into a raw event.
    ///
    /// `event_index` selects the deterministic noise/smearing stream; it
    /// should be the same index used to generate the truth event.
    pub fn simulate(
        &self,
        truth: &TruthEvent,
        event_index: u64,
    ) -> Result<RawEvent, ConditionsError> {
        let run = truth.header.run.0;
        let [ecal_key, hcal_key, align_key] = &self.keys;
        let ecal_gain = self.conditions.get(ecal_key, run)?.as_scalar().unwrap_or(1.0);
        let hcal_gain = self.conditions.get(hcal_key, run)?.as_scalar().unwrap_or(1.0);
        let align = self.conditions.get(align_key, run)?.as_scalar().unwrap_or(1.0);

        let mut rng = StdRng::seed_from_u64(self.seeds.event("detsim", event_index));
        let mut raw = RawEvent::new(truth.header);
        let mut clock = SectionClock::new(self.clocks.as_ref());
        // Calo (EM, hadronic) deposits per tower, in deposit order; summed
        // per tower before the threshold.
        let mut deposits: Vec<TowerDeposit> = Vec::new();
        let mut stub: u32 = 0;

        for (truth_idx, p) in truth.particles.iter().enumerate() {
            if p.status != daspos_hep::particle::ParticleStatus::Final || !p.pdg.is_visible() {
                continue;
            }
            let mom = &p.momentum;
            let eta = mom.eta();
            if !eta.is_finite() {
                continue;
            }
            let charge = p.pdg.charge().map(|c| c.0).unwrap_or(0);

            // --- Tracker ---------------------------------------------------
            if charge != 0
                && self.config.in_tracker(eta)
                && mom.pt() >= self.config.tracker.pt_min
            {
                // Hits go straight into the event; a track that leaves
                // fewer than 3 is taken back out.
                let first = raw.tracker_hits.len();
                clock.time(TRACKER, || {
                    self.trace_track(&mut rng, p, charge, stub, align, &mut raw.tracker_hits)
                });
                if raw.tracker_hits.len() - first >= 3 {
                    raw.truth_links.push(truth_idx as u32);
                    stub += 1;
                } else {
                    raw.tracker_hits.truncate(first);
                }
            }

            // --- Calorimeter -----------------------------------------------
            if self.config.in_calo(eta) {
                clock.time(CALO, || {
                    let (em_dep, had_dep) = self.calo_deposit(&mut rng, p.pdg, mom);
                    if em_dep + had_dep > 0.0 {
                        deposits.push(TowerDeposit {
                            key: self.tower_of(eta, mom.phi()),
                            em: em_dep * ecal_gain,
                            had: had_dep * hcal_gain,
                        });
                    }
                });
            }

            // --- Muon system -----------------------------------------------
            if let Some(muon_cfg) = &self.config.muon {
                if p.pdg.0.abs() == 13
                    && eta > muon_cfg.eta_min
                    && eta < muon_cfg.eta_max
                    && mom.p() >= muon_cfg.p_min
                {
                    for station in 1..=muon_cfg.stations {
                        if stats::accept(&mut rng, muon_cfg.station_efficiency) {
                            raw.muon_hits.push(MuonHit {
                                station,
                                eta: eta + stats::standard_normal(&mut rng) * 0.002,
                                phi: mom.phi() + stats::standard_normal(&mut rng) * 0.002,
                                stub,
                            });
                        }
                    }
                    // Muons without tracker hits still consume a stub id so
                    // muon hits group unambiguously.
                    if raw.truth_links.len() < (stub + 1) as usize {
                        raw.truth_links.push(truth_idx as u32);
                        stub += 1;
                    }
                }
            }
        }

        // --- Noise ---------------------------------------------------------
        clock.time(NOISE, || {
            let n_noise = stats::poisson(&mut rng, self.config.calo.noise_towers).unwrap_or(0);
            for _ in 0..n_noise {
                let eta = rng.gen_range(self.config.calo.eta_min..self.config.calo.eta_max);
                let phi = stats::uniform_phi(&mut rng);
                let e = stats::exponential(&mut rng, self.config.calo.noise_energy).unwrap_or(0.0);
                let key = self.tower_of(eta, phi);
                // The other compartment gets +0.0, which leaves a tower sum
                // (never −0.0) unchanged.
                let (em, had) = if stats::accept(&mut rng, 0.5) {
                    (e, 0.0)
                } else {
                    (0.0, e)
                };
                deposits.push(TowerDeposit { key, em, had });
            }
        });

        // --- Towers ----------------------------------------------------------
        // A stable sort keeps each tower's deposits in deposit order, so
        // every tower is the same sum of the same terms in the same order.
        clock.time(CALO, || {
            deposits.sort_by_key(|d| d.key);
            for run in deposits.chunk_by(|a, b| a.key == b.key) {
                let (mut em, mut had) = (0.0, 0.0);
                for d in run {
                    em += d.em;
                    had += d.had;
                }
                if em + had >= self.config.calo.cell_threshold {
                    let (ieta, iphi) = run[0].key;
                    raw.calo_cells.push(CaloCell {
                        ieta,
                        iphi,
                        em,
                        had,
                    });
                }
            }
        });
        clock.finish();
        if let Some(counter) = &self.simulated {
            counter.inc();
        }
        Ok(raw)
    }

    /// Hits for one charged particle, appended to `hits`: helix
    /// propagation through the layer radii with per-layer efficiency and
    /// position smearing.
    ///
    /// The helix is exact in the transverse plane: a circle of signed
    /// radius `R = pT / (0.3·q·B)` through the production point, with
    /// `z` linear in arc length. Reconstruction later re-fits this circle
    /// from the smeared hits, so momentum resolution *emerges* from hit
    /// resolution and lever arm instead of being injected from truth.
    ///
    /// Two phases per block of up to [`LANES`] layers: first every
    /// layer's intersection is solved ([`Helix::cross`]), with no random
    /// draw; then, in layer order, each reached layer draws its
    /// acceptance and its three smearing normals. The draws never feed
    /// back into the geometry, so the stream of draws and every hit are
    /// the ones a layer-by-layer loop makes (DESIGN.md §20).
    pub(crate) fn trace_track(
        &self,
        rng: &mut StdRng,
        p: &TruthParticle,
        charge_thirds: i8,
        stub: u32,
        align: f64,
        hits: &mut Vec<TrackerHit>,
    ) {
        let mom = &p.momentum;
        let pt = mom.pt();
        if pt <= 0.0 {
            return;
        }
        let origin = &p.production_vertex;
        let (ox, oy, oz) = if origin.px.is_finite() {
            (origin.px, origin.py, origin.pz)
        } else {
            (0.0, 0.0, 0.0)
        };
        let q = f64::from(charge_thirds.signum());
        // Signed curvature radius in mm (pT in GeV, B in T): R[m] = pT/(0.3 q B).
        let r_curv = pt / (0.3 * self.config.field_tesla.max(1e-6)) * 1000.0;
        let phi0 = mom.phi();
        let helix = Helix {
            q,
            r_curv,
            phi0,
            // Circle centre: perpendicular to the initial direction.
            cx: ox - q * r_curv * phi0.sin(),
            cy: oy + q * r_curv * phi0.cos(),
            r0: (ox * ox + oy * oy).sqrt(),
        };
        let cot_theta = mom.pz / pt;
        let sigma = self.config.tracker.hit_resolution_mm;

        let mut crossings = [Crossing::default(); LANES];
        for (block, radii) in self.config.tracker.layer_radii_mm.chunks(LANES).enumerate() {
            let crossings = &mut crossings[..radii.len()];
            helix.cross(radii, crossings);
            for (lane, (c, &r_layer)) in crossings.iter().zip(radii).enumerate() {
                let Some((x, y, rho)) = c.point else { continue };
                if (rho - r_layer).abs() > 0.5 {
                    continue;
                }
                if !stats::accept(rng, self.config.tracker.hit_efficiency) {
                    continue;
                }
                hits.push(TrackerHit {
                    layer: (block * LANES + lane) as u8,
                    x: x * align + stats::standard_normal(rng) * sigma,
                    y: y * align + stats::standard_normal(rng) * sigma,
                    z: oz + cot_theta * c.s + stats::standard_normal(rng) * sigma,
                    stub,
                });
            }
        }
    }

    /// Energy deposited in (EM, hadronic) compartments, after resolution
    /// smearing.
    fn calo_deposit(
        &self,
        rng: &mut StdRng,
        pdg: daspos_hep::particle::PdgId,
        mom: &FourVector,
    ) -> (f64, f64) {
        let e = mom.e;
        let abs = pdg.0.abs();
        match abs {
            // Electrons and photons: full EM deposit.
            11 | 22 => {
                let res = self.config.em_resolution(e);
                let smeared = e * (1.0 + stats::standard_normal(rng) * res);
                (smeared.max(0.0), 0.0)
            }
            // Muons: minimum-ionizing deposit.
            13 => (0.3, 1.7),
            // pi0 decays to photons promptly: EM.
            111 => {
                let res = self.config.em_resolution(e);
                let smeared = e * (1.0 + stats::standard_normal(rng) * res);
                (smeared.max(0.0), 0.0)
            }
            // Long-lived neutrals and charged hadrons: hadronic shower
            // with a small EM fraction.
            _ => {
                let res = self.config.had_resolution(e);
                let smeared = (e * (1.0 + stats::standard_normal(rng) * res)).max(0.0);
                let em_frac = rng.gen_range(0.1..0.4);
                (smeared * em_frac, smeared * (1.0 - em_frac))
            }
        }
    }

    /// Tower indices for an (η, φ) direction.
    fn tower_of(&self, eta: f64, phi: f64) -> (i32, i32) {
        (
            (eta / self.config.calo.d_eta).floor() as i32,
            (phi / self.config.calo.d_phi).floor() as i32,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Experiment;
    use daspos_conditions::{ConditionsStore, DbSource, Payload, RunRange};
    use daspos_gen::{EventGenerator, GeneratorConfig};
    use daspos_hep::event::ProcessKind;
    use std::collections::BTreeMap;

    fn conditions() -> Arc<ConditionsStore> {
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
        s.freeze("mc").unwrap();
        s
    }

    fn sim(exp: Experiment) -> DetectorSimulation {
        let src = DbSource::connect(conditions(), "mc");
        DetectorSimulation::new(exp.detector(), Arc::new(src), SeedSequence::new(99))
    }

    #[test]
    fn z_event_leaves_tracks_and_calo_in_atlas() {
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 42));
        let sim = sim(Experiment::Atlas);
        let mut events_with_two_lepton_stubs = 0;
        for i in 0..50 {
            let truth = gen.event(i);
            let raw = sim.simulate(&truth, i).unwrap();
            assert!(raw.calo_cells.len() > 1, "event {i} has no calo activity");
            if raw.stub_count() >= 2 {
                events_with_two_lepton_stubs += 1;
            }
        }
        assert!(
            events_with_two_lepton_stubs > 30,
            "{events_with_two_lepton_stubs}/50"
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::Higgs, 1));
        let sim1 = sim(Experiment::Cms);
        let sim2 = sim(Experiment::Cms);
        let truth = gen.event(3);
        assert_eq!(
            sim1.simulate(&truth, 3).unwrap(),
            sim2.simulate(&truth, 3).unwrap()
        );
    }

    #[test]
    fn central_event_invisible_to_lhcb() {
        // A Z at central rapidity leaves nothing in a forward-only tracker
        // most of the time; compare stub counts with ATLAS.
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 5));
        let fwd = sim(Experiment::Lhcb);
        let ctr = sim(Experiment::Atlas);
        let mut fwd_stubs = 0;
        let mut ctr_stubs = 0;
        for i in 0..40 {
            let truth = gen.event(i);
            fwd_stubs += fwd.simulate(&truth, i).unwrap().stub_count();
            ctr_stubs += ctr.simulate(&truth, i).unwrap().stub_count();
        }
        assert!(
            ctr_stubs > 2 * fwd_stubs,
            "central {ctr_stubs} vs forward {fwd_stubs}"
        );
    }

    #[test]
    fn muon_hits_only_in_detectors_with_muon_systems() {
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 6));
        let alice = sim(Experiment::Alice);
        let cms = sim(Experiment::Cms);
        let mut alice_muons = 0;
        let mut cms_muons = 0;
        for i in 0..60 {
            let truth = gen.event(i);
            alice_muons += alice.simulate(&truth, i).unwrap().muon_hits.len();
            cms_muons += cms.simulate(&truth, i).unwrap().muon_hits.len();
        }
        assert_eq!(alice_muons, 0);
        assert!(cms_muons > 20, "cms muon hits {cms_muons}");
    }

    #[test]
    fn conditions_gain_scales_calo_energy() {
        let store = Arc::new(ConditionsStore::new());
        store.create_tag("hot").unwrap();
        for (k, v) in [
            ("ecal/gain", 2.0),
            ("hcal/gain", 2.0),
            ("tracker/alignment-scale", 1.0),
        ] {
            store
                .insert("hot", IovKey::new(k), RunRange::from(0), Payload::Scalar(v))
                .unwrap();
        }
        let hot = DetectorSimulation::new(
            Experiment::Atlas.detector(),
            Arc::new(DbSource::connect(store, "hot")),
            SeedSequence::new(99),
        );
        let nominal = sim(Experiment::Atlas);
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::Higgs, 8));
        let mut e_hot = 0.0;
        let mut e_nom = 0.0;
        for i in 0..30 {
            let truth = gen.event(i);
            e_hot += hot.simulate(&truth, i).unwrap().calo_energy();
            e_nom += nominal.simulate(&truth, i).unwrap().calo_energy();
        }
        let ratio = e_hot / e_nom;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn conditions_access_is_counted() {
        let src = Arc::new(DbSource::connect(conditions(), "mc"));
        let sim = DetectorSimulation::new(
            Experiment::Atlas.detector(),
            Arc::clone(&src) as Arc<dyn ConditionsSource>,
            SeedSequence::new(1),
        );
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 1));
        for i in 0..10 {
            sim.simulate(&gen.event(i), i).unwrap();
        }
        // Three condition keys per event.
        assert_eq!(src.stats().lookups(), 30);
    }

    #[test]
    fn missing_conditions_key_is_an_error() {
        let store = Arc::new(ConditionsStore::new());
        store.create_tag("empty").unwrap();
        let sim = DetectorSimulation::new(
            Experiment::Atlas.detector(),
            Arc::new(DbSource::connect(store, "empty")),
            SeedSequence::new(1),
        );
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 1));
        assert!(sim.simulate(&gen.event(0), 0).is_err());
    }

    #[test]
    fn displaced_v0_daughters_skip_inner_layers() {
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::Strange, 77));
        let sim = sim(Experiment::Alice);
        let mut found_displaced_track = false;
        for i in 0..200 {
            let truth = gen.event(i);
            let raw = sim.simulate(&truth, i).unwrap();
            // Look for a stub whose innermost hit is beyond layer 1.
            let mut min_layer: BTreeMap<u32, u8> = BTreeMap::new();
            for h in &raw.tracker_hits {
                let e = min_layer.entry(h.stub).or_insert(u8::MAX);
                *e = (*e).min(h.layer);
            }
            if min_layer.values().any(|&l| l >= 2) {
                found_displaced_track = true;
                break;
            }
        }
        assert!(found_displaced_track);
    }
}
