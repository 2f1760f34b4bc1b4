//! The event: the basic logical unit of HEP data.
//!
//! Per the DASPOS report (§3.1): *"The basic logical unit of data in
//! particle physics is called an 'event'. … the data from a single particle
//! collision is of no use for physics analysis. Large samples of events
//! must be compiled and filtered in order to produce sensible physics."*
//!
//! [`TruthEvent`] is the generator-level record (the HepMC analogue);
//! detector-level representations (raw hits, reconstructed objects) live in
//! the `detsim`/`reco` crates but share the [`EventHeader`].

use crate::fourvec::FourVector;
use crate::particle::{ParticleStatus, PdgId, TruthParticle};

/// A data-taking run: a contiguous period with stable detector conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunId(pub u32);

/// A luminosity block within a run (the granularity at which conditions
/// such as beam intensity are recorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LumiBlockId(pub u32);

/// An event number, unique within its run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u64);

/// The identifying header carried by an event through every data tier.
///
/// Whatever gets skimmed, slimmed or re-reconstructed, the header is the
/// stable coordinate that lets provenance link representations of the same
/// collision across tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHeader {
    /// The run this event was recorded in.
    pub run: RunId,
    /// The luminosity block within the run.
    pub lumi_block: LumiBlockId,
    /// The event number within the run.
    pub event: EventId,
}

impl EventHeader {
    /// Construct a header.
    pub fn new(run: u32, lumi_block: u32, event: u64) -> Self {
        EventHeader {
            run: RunId(run),
            lumi_block: LumiBlockId(lumi_block),
            event: EventId(event),
        }
    }
}

/// Which physical process the generator produced (truth-level label).
///
/// Real data does not carry this label — analyses must infer it
/// statistically — but simulation keeps it for efficiency studies and it is
/// exactly what RECAST-style signal injection manipulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessKind {
    /// QCD multijet production (the overwhelming background).
    QcdDijet,
    /// W boson production with leptonic decay.
    WBoson,
    /// Z/γ* production with leptonic decay.
    ZBoson,
    /// Standard Model Higgs production.
    Higgs,
    /// Open charm production (D mesons), the LHCb-style physics.
    Charm,
    /// Strange/V0 production (K0S, Λ), the ALICE-style physics.
    Strange,
    /// A beyond-Standard-Model signal injected by a RECAST request.
    NewPhysics,
    /// Minimum-bias / soft inelastic collisions (pileup).
    MinimumBias,
}

impl ProcessKind {
    /// Stable numeric code used by the binary tier codec.
    pub fn code(&self) -> u8 {
        match self {
            ProcessKind::QcdDijet => 0,
            ProcessKind::WBoson => 1,
            ProcessKind::ZBoson => 2,
            ProcessKind::Higgs => 3,
            ProcessKind::Charm => 4,
            ProcessKind::Strange => 5,
            ProcessKind::NewPhysics => 6,
            ProcessKind::MinimumBias => 7,
        }
    }

    /// Inverse of [`ProcessKind::code`].
    pub fn from_code(code: u8) -> Option<ProcessKind> {
        Some(match code {
            0 => ProcessKind::QcdDijet,
            1 => ProcessKind::WBoson,
            2 => ProcessKind::ZBoson,
            3 => ProcessKind::Higgs,
            4 => ProcessKind::Charm,
            5 => ProcessKind::Strange,
            6 => ProcessKind::NewPhysics,
            7 => ProcessKind::MinimumBias,
            _ => return None,
        })
    }

    /// Human-readable process name.
    pub fn name(&self) -> &'static str {
        match self {
            ProcessKind::QcdDijet => "qcd-dijet",
            ProcessKind::WBoson => "w-boson",
            ProcessKind::ZBoson => "z-boson",
            ProcessKind::Higgs => "higgs",
            ProcessKind::Charm => "charm",
            ProcessKind::Strange => "strange",
            ProcessKind::NewPhysics => "new-physics",
            ProcessKind::MinimumBias => "minimum-bias",
        }
    }

    /// All concrete Standard Model processes the generator offers.
    pub fn all() -> &'static [ProcessKind] {
        &[
            ProcessKind::QcdDijet,
            ProcessKind::WBoson,
            ProcessKind::ZBoson,
            ProcessKind::Higgs,
            ProcessKind::Charm,
            ProcessKind::Strange,
            ProcessKind::NewPhysics,
            ProcessKind::MinimumBias,
        ]
    }
}

/// A generator-level event record: the HepMC analogue.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthEvent {
    /// Identifying coordinates of the event.
    pub header: EventHeader,
    /// The truth process label.
    pub process: ProcessKind,
    /// The generator weight (1.0 for unweighted generation).
    pub weight: f64,
    /// The particle record; parents precede children.
    pub particles: Vec<TruthParticle>,
}

impl TruthEvent {
    /// An empty event for the given coordinates and process.
    pub fn new(header: EventHeader, process: ProcessKind) -> Self {
        TruthEvent {
            header,
            process,
            weight: 1.0,
            particles: Vec::new(),
        }
    }

    /// Append a particle and return its index for parent links.
    pub fn push(&mut self, particle: TruthParticle) -> u32 {
        self.particles.push(particle);
        (self.particles.len() - 1) as u32
    }

    /// Iterator over final-state particles.
    pub fn final_state(&self) -> impl Iterator<Item = &TruthParticle> {
        self.particles
            .iter()
            .filter(|p| p.status == ParticleStatus::Final)
    }

    /// Iterator over final-state particles visible to a detector
    /// (excludes neutrinos and any leftover partons).
    pub fn visible_final_state(&self) -> impl Iterator<Item = &TruthParticle> {
        self.final_state().filter(|p| p.pdg.is_visible())
    }

    /// The vector sum of visible final-state momenta; its negative
    /// transverse part is the true missing transverse momentum.
    pub fn visible_sum(&self) -> FourVector {
        self.visible_final_state().map(|p| p.momentum).sum()
    }

    /// True missing transverse energy: |Σ invisible pT|.
    pub fn true_met(&self) -> f64 {
        let invis: FourVector = self
            .final_state()
            .filter(|p| !p.pdg.is_visible())
            .map(|p| p.momentum)
            .sum();
        invis.pt()
    }

    /// Direct children of the particle at `index`.
    pub fn children_of(&self, index: u32) -> impl Iterator<Item = (u32, &TruthParticle)> {
        self.particles
            .iter()
            .enumerate()
            .filter(move |(_, p)| p.parent == Some(index))
            .map(|(i, p)| (i as u32, p))
    }

    /// Find the first particle of the given species, if any.
    pub fn find(&self, pdg: PdgId) -> Option<(u32, &TruthParticle)> {
        self.particles
            .iter()
            .enumerate()
            .find(|(_, p)| p.pdg == pdg)
            .map(|(i, p)| (i as u32, p))
    }

    /// Validate internal consistency: parent links in range and pointing
    /// backwards (the record is topologically ordered), finite momenta.
    pub fn validate(&self) -> Result<(), String> {
        for (i, p) in self.particles.iter().enumerate() {
            if let Some(parent) = p.parent {
                if parent as usize >= i {
                    return Err(format!(
                        "particle {i} has parent {parent} which does not precede it"
                    ));
                }
            }
            if !p.momentum.is_finite() {
                return Err(format!("particle {i} has non-finite momentum"));
            }
            if p.momentum.e < 0.0 {
                return Err(format!("particle {i} has negative energy"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particle::TruthParticle;

    fn sample_event() -> TruthEvent {
        let mut ev = TruthEvent::new(EventHeader::new(1, 2, 3), ProcessKind::ZBoson);
        let z = ev.push(TruthParticle::intermediate(
            PdgId::Z0,
            FourVector::at_rest(91.1876),
        ));
        let p = (91.1876_f64 * 91.1876 / 4.0 - 0.10566 * 0.10566).sqrt();
        ev.push(
            TruthParticle::final_state(PdgId::MUON, FourVector::new(p, 0.0, 0.0, 91.1876 / 2.0))
                .with_parent(z),
        );
        ev.push(
            TruthParticle::final_state(
                PdgId::MUON.antiparticle(),
                FourVector::new(-p, 0.0, 0.0, 91.1876 / 2.0),
            )
            .with_parent(z),
        );
        ev
    }

    #[test]
    fn process_codes_round_trip() {
        for p in ProcessKind::all() {
            assert_eq!(ProcessKind::from_code(p.code()), Some(*p));
        }
        assert_eq!(ProcessKind::from_code(200), None);
    }

    #[test]
    fn final_state_selection() {
        let ev = sample_event();
        assert_eq!(ev.final_state().count(), 2);
        assert_eq!(ev.visible_final_state().count(), 2);
        assert_eq!(ev.particles.len(), 3);
    }

    #[test]
    fn children_follow_parent_links() {
        let ev = sample_event();
        let kids: Vec<_> = ev.children_of(0).collect();
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|(_, p)| p.pdg.0.abs() == 13));
    }

    #[test]
    fn met_is_zero_without_neutrinos() {
        let ev = sample_event();
        assert!(ev.true_met() < 1e-9);
    }

    #[test]
    fn met_counts_neutrinos() {
        let mut ev = TruthEvent::new(EventHeader::new(1, 1, 1), ProcessKind::WBoson);
        ev.push(TruthParticle::final_state(
            PdgId(12),
            FourVector::new(30.0, 0.0, 5.0, (30.0_f64 * 30.0 + 25.0).sqrt()),
        ));
        assert!((ev.true_met() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn validate_accepts_wellformed() {
        assert!(sample_event().validate().is_ok());
    }

    #[test]
    fn validate_rejects_forward_parent() {
        let mut ev = TruthEvent::new(EventHeader::new(1, 1, 1), ProcessKind::QcdDijet);
        ev.push(
            TruthParticle::final_state(PdgId::PI_PLUS, FourVector::new(1.0, 0.0, 0.0, 1.1))
                .with_parent(5),
        );
        assert!(ev.validate().is_err());
    }

    #[test]
    fn validate_rejects_nan_momentum() {
        let mut ev = TruthEvent::new(EventHeader::new(1, 1, 1), ProcessKind::QcdDijet);
        ev.push(TruthParticle::final_state(
            PdgId::PI_PLUS,
            FourVector::new(f64::NAN, 0.0, 0.0, 1.0),
        ));
        assert!(ev.validate().is_err());
    }

    #[test]
    fn find_locates_species() {
        let ev = sample_event();
        let (idx, z) = ev.find(PdgId::Z0).expect("Z present");
        assert_eq!(idx, 0);
        assert_eq!(z.pdg, PdgId::Z0);
        assert!(ev.find(PdgId::HIGGS).is_none());
    }
}
