//! The event generator: configuration, pileup overlay, deterministic
//! streams.

use daspos_hep::event::{EventHeader, ProcessKind, TruthEvent};
use daspos_hep::seq::SeedSequence;
use daspos_hep::stats;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::process::{self, HardProcess, NewPhysicsParams};

/// Pileup configuration: how many soft collisions overlay each hard one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PileupConfig {
    /// Mean number of in-time pileup collisions (μ).
    pub mu: f64,
    /// Mean charged multiplicity per pileup collision.
    pub multiplicity: f64,
}

impl Default for PileupConfig {
    fn default() -> Self {
        PileupConfig {
            mu: 0.0,
            multiplicity: 25.0,
        }
    }
}

/// Generator configuration: which process, which run coordinates, which
/// master seed. This struct is part of the preserved workflow description —
/// re-running with an identical config reproduces identical events.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// The hard process to generate.
    pub process: ProcessKind,
    /// Model parameters when `process == NewPhysics`.
    pub new_physics: NewPhysicsParams,
    /// Run number stamped on the events.
    pub run: u32,
    /// Events per luminosity block.
    pub events_per_lumi_block: u64,
    /// Pileup overlay settings.
    pub pileup: PileupConfig,
    /// Master seed; combined with per-event indices via [`SeedSequence`].
    pub seed: u64,
}

impl GeneratorConfig {
    /// A minimal config for the given process with a fixed seed.
    pub fn new(process: ProcessKind, seed: u64) -> Self {
        GeneratorConfig {
            process,
            new_physics: NewPhysicsParams::default(),
            run: 1,
            events_per_lumi_block: 1000,
            pileup: PileupConfig::default(),
            seed,
        }
    }

    /// Builder: set pileup.
    pub fn with_pileup(mut self, mu: f64) -> Self {
        self.pileup.mu = mu;
        self
    }

    /// Builder: set new-physics parameters.
    pub fn with_new_physics(mut self, params: NewPhysicsParams) -> Self {
        self.new_physics = params;
        self
    }

    /// A canonical one-line description for provenance records.
    pub fn describe(&self) -> String {
        format!(
            "gen(process={},run={},seed={},mu={})",
            self.process.name(),
            self.run,
            self.seed,
            self.pileup.mu
        )
    }
}

/// The event generator. Create once, then call [`EventGenerator::event`]
/// for random access by index or [`EventGenerator::events`] for a stream.
pub struct EventGenerator {
    config: GeneratorConfig,
    hard: Box<dyn HardProcess>,
    pileup_proc: process::MinBiasProcess,
    seeds: SeedSequence,
    generated: Option<daspos_obs::Counter>,
}

impl EventGenerator {
    /// Build a generator from a config.
    pub fn new(config: GeneratorConfig) -> Self {
        let hard: Box<dyn HardProcess> = if config.process == ProcessKind::NewPhysics {
            Box::new(process::NewPhysicsProcess::new(config.new_physics))
        } else {
            process::default_process(config.process)
        };
        let pileup_proc = process::MinBiasProcess {
            mean_multiplicity: config.pileup.multiplicity,
        };
        EventGenerator {
            seeds: SeedSequence::new(config.seed),
            config,
            hard,
            pileup_proc,
            generated: None,
        }
    }

    /// Count every generated event into `registry`'s `events.generated`
    /// counter. The handle is resolved once here; the per-event cost is a
    /// single relaxed atomic increment.
    pub fn with_metrics(mut self, registry: &daspos_obs::MetricsRegistry) -> Self {
        self.generated = Some(registry.counter("events.generated"));
        self
    }

    /// The configuration this generator was built from.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generate event `index` — random access, independent of any other
    /// index, bit-identical across calls and processes.
    pub fn event(&self, index: u64) -> TruthEvent {
        let header = EventHeader::new(
            self.config.run,
            (index / self.config.events_per_lumi_block.max(1)) as u32 + 1,
            index + 1,
        );
        let mut rng = StdRng::seed_from_u64(self.seeds.event("gen", index));
        let mut ev = self.hard.generate(&mut rng, header);
        if self.config.pileup.mu > 0.0 {
            let n_pu = stats::poisson(&mut rng, self.config.pileup.mu).unwrap_or(0);
            for _ in 0..n_pu {
                let pu = self.pileup_proc.generate(&mut rng, header);
                for p in pu.particles {
                    ev.particles.push(p);
                }
            }
        }
        if let Some(counter) = &self.generated {
            counter.inc();
        }
        ev
    }

    /// An iterator over events `[0, count)`.
    pub fn events(&self, count: u64) -> impl Iterator<Item = TruthEvent> + '_ {
        (0..count).map(move |i| self.event(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let g1 = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 42));
        let g2 = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 42));
        for i in [0u64, 5, 999] {
            assert_eq!(g1.event(i), g2.event(i), "event {i} differs");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 1));
        let g2 = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 2));
        assert_ne!(g1.event(0), g2.event(0));
    }

    #[test]
    fn random_access_matches_stream_order() {
        let g = EventGenerator::new(GeneratorConfig::new(ProcessKind::WBoson, 7));
        let streamed: Vec<_> = g.events(10).collect();
        // Access out of order; must match the stream.
        for i in (0..10).rev() {
            assert_eq!(g.event(i as u64), streamed[i]);
        }
    }

    #[test]
    fn headers_advance_lumi_blocks() {
        let mut cfg = GeneratorConfig::new(ProcessKind::MinimumBias, 3);
        cfg.events_per_lumi_block = 10;
        let g = EventGenerator::new(cfg);
        assert_eq!(g.event(0).header.lumi_block.0, 1);
        assert_eq!(g.event(9).header.lumi_block.0, 1);
        assert_eq!(g.event(10).header.lumi_block.0, 2);
        assert_eq!(g.event(25).header.lumi_block.0, 3);
        assert_eq!(g.event(25).header.event.0, 26);
    }

    #[test]
    fn pileup_adds_particles() {
        let clean = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 5));
        let piled = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 5).with_pileup(20.0));
        let mut n_clean = 0;
        let mut n_piled = 0;
        for i in 0..50 {
            n_clean += clean.event(i).particles.len();
            n_piled += piled.event(i).particles.len();
        }
        assert!(
            n_piled > n_clean + 50 * 100,
            "pileup too weak: {n_piled} vs {n_clean}"
        );
    }

    #[test]
    fn new_physics_config_propagates() {
        let params = NewPhysicsParams {
            mass: 450.0,
            width: 10.0,
            cross_section_pb: 0.5,
        };
        let g = EventGenerator::new(
            GeneratorConfig::new(ProcessKind::NewPhysics, 11).with_new_physics(params),
        );
        let mut s = daspos_hep::stats::RunningStats::new();
        for i in 0..300 {
            let ev = g.event(i);
            let leps: Vec<_> = ev
                .final_state()
                .filter(|p| p.pdg.is_charged_lepton())
                .map(|p| p.momentum)
                .collect();
            if leps.len() == 2 {
                s.push(daspos_hep::fourvec::invariant_mass(leps.iter()));
            }
        }
        assert!((s.mean() - 450.0).abs() < 25.0, "mean {}", s.mean());
    }

    #[test]
    fn describe_mentions_all_knobs() {
        let mut cfg = GeneratorConfig::new(ProcessKind::Higgs, 99).with_pileup(3.0);
        cfg.run = 7;
        let d = cfg.describe();
        assert!(d.contains("higgs") && d.contains("run=7") && d.contains("seed=99"));
    }
}
