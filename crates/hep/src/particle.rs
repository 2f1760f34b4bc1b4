//! Particle identities and truth-level particles.
//!
//! Particle species are identified by their PDG Monte Carlo numbering
//! scheme codes, the universal identifier across HEP event formats
//! (HepMC, the experiments' EDMs, RIVET analyses). [`PdgId`] is a newtype
//! over the raw `i32` with lookups for the species this toolkit generates.

use std::fmt;

use crate::error::HepError;
use crate::fourvec::FourVector;

/// Electric charge in units of e, stored as thirds to stay exact for
/// quarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Charge(pub i8);

impl Charge {
    /// True for charge zero.
    #[inline]
    pub fn is_neutral(&self) -> bool {
        self.0 == 0
    }
}

/// A PDG Monte Carlo particle numbering scheme identifier.
///
/// Negative values denote antiparticles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PdgId(pub i32);

// Species table for the particles produced by daspos-gen:
// (pdg, name, mass GeV, 3*charge, lifetime ns)
const SPECIES: &[(i32, &str, f64, i8, f64)] = &[
    (1, "d", 0.0047, -1, f64::INFINITY),
    (2, "u", 0.0022, 2, f64::INFINITY),
    (3, "s", 0.095, -1, f64::INFINITY),
    (4, "c", 1.27, 2, f64::INFINITY),
    (5, "b", 4.18, -1, f64::INFINITY),
    (6, "t", 172.76, 2, 4.6e-16),
    (11, "e-", 0.000511, -3, f64::INFINITY),
    (12, "nu_e", 0.0, 0, f64::INFINITY),
    (13, "mu-", 0.10566, -3, 2.197e3 * 1.0e-9 * 1.0e9), // 2197 ns
    (14, "nu_mu", 0.0, 0, f64::INFINITY),
    (15, "tau-", 1.77686, -3, 2.903e-4),
    (16, "nu_tau", 0.0, 0, f64::INFINITY),
    (21, "g", 0.0, 0, f64::INFINITY),
    (22, "gamma", 0.0, 0, f64::INFINITY),
    (23, "Z0", 91.1876, 0, 2.638e-16),
    (24, "W+", 80.379, 3, 3.158e-16),
    (25, "H0", 125.25, 0, 1.62e-13),
    (111, "pi0", 0.13498, 0, 8.43e-8),
    (211, "pi+", 0.13957, 3, 26.03),
    (310, "K0S", 0.49761, 0, 0.08954),
    (130, "K0L", 0.49761, 0, 51.16),
    (321, "K+", 0.49368, 3, 12.38),
    (421, "D0", 1.86484, 0, 4.101e-4),
    (411, "D+", 1.86966, 3, 1.033e-3),
    (2212, "p", 0.93827, 3, f64::INFINITY),
    (2112, "n", 0.93957, 0, 8.784e11),
    (3122, "Lambda0", 1.11568, 0, 0.2632),
];

impl PdgId {
    /// The electron.
    pub const ELECTRON: PdgId = PdgId(11);
    /// The muon.
    pub const MUON: PdgId = PdgId(13);
    /// The tau lepton.
    pub const TAU: PdgId = PdgId(15);
    /// The photon.
    pub const PHOTON: PdgId = PdgId(22);
    /// The Z boson.
    pub const Z0: PdgId = PdgId(23);
    /// The W+ boson.
    pub const W_PLUS: PdgId = PdgId(24);
    /// The Higgs boson.
    pub const HIGGS: PdgId = PdgId(25);
    /// The gluon.
    pub const GLUON: PdgId = PdgId(21);
    /// The charged pion π+.
    pub const PI_PLUS: PdgId = PdgId(211);
    /// The neutral pion π0.
    pub const PI_ZERO: PdgId = PdgId(111);
    /// The short-lived neutral kaon K0S (the ALICE V0 masterclass species).
    pub const K0_SHORT: PdgId = PdgId(310);
    /// The charged kaon K+.
    pub const K_PLUS: PdgId = PdgId(321);
    /// The D0 meson (the LHCb lifetime masterclass species).
    pub const D0: PdgId = PdgId(421);
    /// The proton.
    pub const PROTON: PdgId = PdgId(2212);
    /// The Λ0 baryon.
    pub const LAMBDA: PdgId = PdgId(3122);

    /// The antiparticle of this species.
    #[inline]
    pub fn antiparticle(&self) -> PdgId {
        // Self-conjugate species keep their code.
        match self.0.abs() {
            21 | 22 | 23 | 25 | 111 | 310 | 130 => *self,
            _ => PdgId(-self.0),
        }
    }

    fn entry(&self) -> Option<&'static (i32, &'static str, f64, i8, f64)> {
        let abs = self.0.abs();
        SPECIES.iter().find(|(id, ..)| *id == abs)
    }

    /// Rest mass in GeV.
    pub fn mass(&self) -> Result<f64, HepError> {
        self.entry()
            .map(|(_, _, m, _, _)| *m)
            .ok_or(HepError::UnknownPdgId(self.0))
    }

    /// Electric charge. Antiparticles flip the sign.
    pub fn charge(&self) -> Result<Charge, HepError> {
        self.entry()
            .map(|(_, _, _, q3, _)| {
                if self.0 < 0 {
                    Charge(-q3)
                } else {
                    Charge(*q3)
                }
            })
            .ok_or(HepError::UnknownPdgId(self.0))
    }

    /// Mean proper lifetime in nanoseconds (∞ for stable particles).
    pub fn lifetime_ns(&self) -> Result<f64, HepError> {
        self.entry()
            .map(|(_, _, _, _, tau)| *tau)
            .ok_or(HepError::UnknownPdgId(self.0))
    }

    /// Canonical short name, e.g. `"mu-"`; antiparticles are rendered with
    /// a `~` prefix (or a flipped charge sign for the simple cases).
    pub fn name(&self) -> String {
        match self.entry() {
            None => format!("pdg({})", self.0),
            Some((_, n, _, q3, _)) => {
                if self.0 >= 0 {
                    (*n).to_string()
                } else if *q3 != 0 && (n.ends_with('+') || n.ends_with('-')) {
                    
                    if n.ends_with('+') {
                        n.replace('+', "-")
                    } else {
                        n.replace('-', "+")
                    }
                } else {
                    format!("~{n}")
                }
            }
        }
    }

    /// True for charged leptons (e, μ, τ).
    #[inline]
    pub fn is_charged_lepton(&self) -> bool {
        matches!(self.0.abs(), 11 | 13 | 15)
    }

    /// True for any neutrino flavour.
    #[inline]
    pub fn is_neutrino(&self) -> bool {
        matches!(self.0.abs(), 12 | 14 | 16)
    }

    /// True for quarks and gluons.
    #[inline]
    pub fn is_parton(&self) -> bool {
        matches!(self.0.abs(), 1..=6 | 21)
    }

    /// True for hadrons in the species table.
    #[inline]
    pub fn is_hadron(&self) -> bool {
        self.0.abs() >= 100
    }

    /// True when the detector sees this particle directly (it neither
    /// decays inside the detector volume with certainty nor escapes
    /// invisibly). Neutrinos are invisible; partons hadronize.
    pub fn is_visible(&self) -> bool {
        !self.is_neutrino() && !self.is_parton()
    }
}

impl fmt::Display for PdgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// HepMC-style particle status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParticleStatus {
    /// A beam particle entering the collision.
    Beam,
    /// An intermediate particle that decayed or was otherwise consumed.
    Decayed,
    /// A final-state particle that reaches the detector.
    Final,
    /// Documentation entries for hard-process bookkeeping (e.g. the
    /// intermediate W in W→ℓν before showering).
    Documentation,
}

impl ParticleStatus {
    /// The HepMC integer convention (4 = beam, 2 = decayed, 1 = final,
    /// 3 = documentation).
    pub fn code(&self) -> u8 {
        match self {
            ParticleStatus::Beam => 4,
            ParticleStatus::Decayed => 2,
            ParticleStatus::Final => 1,
            ParticleStatus::Documentation => 3,
        }
    }

    /// Inverse of [`ParticleStatus::code`].
    pub fn from_code(code: u8) -> Option<ParticleStatus> {
        match code {
            4 => Some(ParticleStatus::Beam),
            2 => Some(ParticleStatus::Decayed),
            1 => Some(ParticleStatus::Final),
            3 => Some(ParticleStatus::Documentation),
            _ => None,
        }
    }
}

/// A generator-level (truth) particle: a node in the event record.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthParticle {
    /// Species identifier.
    pub pdg: PdgId,
    /// Four-momentum in GeV.
    pub momentum: FourVector,
    /// Production vertex (x, y, z in mm; t in ns stored in `e`).
    pub production_vertex: FourVector,
    /// Status in the event record.
    pub status: ParticleStatus,
    /// Index of the parent particle within the event record, if any.
    pub parent: Option<u32>,
}

impl TruthParticle {
    /// A final-state particle produced at the origin.
    pub fn final_state(pdg: PdgId, momentum: FourVector) -> Self {
        TruthParticle {
            pdg,
            momentum,
            production_vertex: FourVector::ZERO,
            status: ParticleStatus::Final,
            parent: None,
        }
    }

    /// A decayed intermediate particle produced at the origin.
    pub fn intermediate(pdg: PdgId, momentum: FourVector) -> Self {
        TruthParticle {
            pdg,
            momentum,
            production_vertex: FourVector::ZERO,
            status: ParticleStatus::Decayed,
            parent: None,
        }
    }

    /// Attach a parent index (builder style).
    pub fn with_parent(mut self, parent: u32) -> Self {
        self.parent = Some(parent);
        self
    }

    /// Attach a production vertex (builder style).
    pub fn with_vertex(mut self, vertex: FourVector) -> Self {
        self.production_vertex = vertex;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn muon_properties() {
        let mu = PdgId::MUON;
        assert!((mu.mass().unwrap() - 0.10566).abs() < 1e-6);
        assert_eq!(mu.charge().unwrap(), Charge(-3));
        assert!(mu.is_charged_lepton());
        assert!(mu.is_visible());
        assert_eq!(mu.name(), "mu-");
    }

    #[test]
    fn antimuon_flips_charge_and_name() {
        let amu = PdgId::MUON.antiparticle();
        assert_eq!(amu, PdgId(-13));
        assert_eq!(amu.charge().unwrap(), Charge(3));
        assert_eq!(amu.name(), "mu+");
        assert_eq!(amu.mass().unwrap(), PdgId::MUON.mass().unwrap());
    }

    #[test]
    fn self_conjugate_species() {
        for id in [PdgId::PHOTON, PdgId::Z0, PdgId::HIGGS, PdgId::PI_ZERO, PdgId::K0_SHORT] {
            assert_eq!(id.antiparticle(), id, "{id} should be self-conjugate");
        }
        // D0 is NOT self-conjugate.
        assert_eq!(PdgId::D0.antiparticle(), PdgId(-421));
    }

    #[test]
    fn unknown_pdg_errors() {
        let bogus = PdgId(999_999);
        assert_eq!(bogus.mass(), Err(HepError::UnknownPdgId(999_999)));
        assert!(bogus.name().contains("999999"));
    }

    #[test]
    fn neutrinos_are_invisible() {
        for id in [12, 14, 16, -12, -14, -16] {
            assert!(PdgId(id).is_neutrino());
            assert!(!PdgId(id).is_visible());
        }
    }

    #[test]
    fn partons_are_not_visible() {
        assert!(PdgId::GLUON.is_parton());
        assert!(!PdgId::GLUON.is_visible());
        assert!(PdgId(5).is_parton());
    }

    #[test]
    fn quark_charges_are_thirds() {
        assert_eq!(PdgId(2).charge().unwrap(), Charge(2));
        assert_eq!(PdgId(1).charge().unwrap(), Charge(-1));
    }

    #[test]
    fn status_codes_round_trip() {
        for s in [
            ParticleStatus::Beam,
            ParticleStatus::Decayed,
            ParticleStatus::Final,
            ParticleStatus::Documentation,
        ] {
            assert_eq!(ParticleStatus::from_code(s.code()), Some(s));
        }
        assert_eq!(ParticleStatus::from_code(0), None);
    }

    #[test]
    fn k0s_lifetime_gives_cm_scale_flight() {
        // K0S: cτ ≈ 26.8 mm — the basis of the ALICE V0 masterclass.
        let ctau = PdgId::K0_SHORT.lifetime_ns().unwrap() * crate::units::C_MM_PER_NS;
        assert!((ctau - 26.84).abs() < 0.2, "ctau = {ctau} mm");
    }

    #[test]
    fn builder_methods() {
        let p = TruthParticle::final_state(PdgId::ELECTRON, FourVector::at_rest(0.000511))
            .with_parent(3)
            .with_vertex(FourVector::new(0.1, 0.2, 0.3, 0.0));
        assert_eq!(p.parent, Some(3));
        assert_eq!(p.production_vertex.px, 0.1);
        assert_eq!(p.status, ParticleStatus::Final);
    }
}
