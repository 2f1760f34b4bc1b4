//! Event projections: the reusable building blocks of RIVET analyses.
//!
//! A projection extracts a derived view of the truth event (final-state
//! particles in acceptance, lepton pairs, truth jets). Analyses compose
//! projections instead of re-walking the particle record — the "series of
//! standard tools … exploited to replicate analysis cuts and procedures"
//! the report describes.

use daspos_hep::event::TruthEvent;
use daspos_hep::fourvec::FourVector;
use daspos_hep::particle::PdgId;

/// A selected final-state particle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectedParticle {
    /// Species.
    pub pdg: PdgId,
    /// Four-momentum.
    pub momentum: FourVector,
}

/// Final-state particles within a (pT, |η|) acceptance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinalState {
    /// Minimum transverse momentum (GeV).
    pub pt_min: f64,
    /// Maximum |η|.
    pub abs_eta_max: f64,
}

impl FinalState {
    /// A full-acceptance final state.
    pub fn full() -> Self {
        FinalState {
            pt_min: 0.0,
            abs_eta_max: f64::INFINITY,
        }
    }

    /// Constrain to the given acceptance.
    pub fn with_cuts(pt_min: f64, abs_eta_max: f64) -> Self {
        FinalState {
            pt_min,
            abs_eta_max,
        }
    }

    /// Project visible final-state particles.
    pub fn project(&self, ev: &TruthEvent) -> Vec<SelectedParticle> {
        ev.visible_final_state()
            .filter(|p| {
                p.momentum.pt() >= self.pt_min && p.momentum.eta().abs() <= self.abs_eta_max
            })
            .map(|p| SelectedParticle {
                pdg: p.pdg,
                momentum: p.momentum,
            })
            .collect()
    }

    /// Project only particles of the given |PDG| codes.
    pub fn project_ids(&self, ev: &TruthEvent, ids: &[i32]) -> Vec<SelectedParticle> {
        self.project(ev)
            .into_iter()
            .filter(|p| ids.contains(&p.pdg.0.abs()))
            .collect()
    }
}

/// Finds an opposite-sign, same-flavour lepton pair; when several exist,
/// picks the pair with mass closest to `target_mass`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DileptonFinder {
    /// Acceptance for the constituent leptons.
    pub acceptance: FinalState,
    /// Mass the pair should be closest to (e.g. the Z mass).
    pub target_mass: f64,
}

impl DileptonFinder {
    /// A Z-window dilepton finder with standard lepton acceptance.
    pub fn z_default() -> Self {
        DileptonFinder {
            acceptance: FinalState::with_cuts(10.0, 2.5),
            target_mass: 91.1876,
        }
    }

    /// Find the best pair, returning (ℓ⁻, ℓ⁺) momenta.
    pub fn find(&self, ev: &TruthEvent) -> Option<(FourVector, FourVector)> {
        let leptons: Vec<SelectedParticle> = self
            .acceptance
            .project_ids(ev, &[11, 13])
            .into_iter()
            .collect();
        let mut best: Option<(FourVector, FourVector, f64)> = None;
        for i in 0..leptons.len() {
            for j in (i + 1)..leptons.len() {
                let (a, b) = (&leptons[i], &leptons[j]);
                // Same flavour, opposite sign.
                if a.pdg.0 != -b.pdg.0 {
                    continue;
                }
                let mass = (a.momentum + b.momentum).mass();
                let dist = (mass - self.target_mass).abs();
                let better = best.map(|(_, _, d)| dist < d).unwrap_or(true);
                if better {
                    // Particle (positive PDG code) is the negative lepton.
                    let (neg, pos) = if a.pdg.0 > 0 {
                        (a.momentum, b.momentum)
                    } else {
                        (b.momentum, a.momentum)
                    };
                    best = Some((neg, pos, dist));
                }
            }
        }
        best.map(|(neg, pos, _)| (neg, pos))
    }
}

/// Truth-level anti-kT jets built from visible final-state particles,
/// excluding prompt leptons and photons above an isolation threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthJets {
    /// Anti-kT radius.
    pub radius: f64,
    /// Minimum jet pT (GeV).
    pub pt_min: f64,
    /// Maximum jet |η|.
    pub abs_eta_max: f64,
}

impl TruthJets {
    /// Standard R=0.4 jets.
    pub fn standard() -> Self {
        TruthJets {
            radius: 0.4,
            pt_min: 20.0,
            abs_eta_max: 4.5,
        }
    }

    /// Cluster the event's hadronic final state.
    pub fn project(&self, ev: &TruthEvent) -> Vec<FourVector> {
        let inputs: Vec<FourVector> = ev
            .visible_final_state()
            .filter(|p| p.pdg.is_hadron())
            .map(|p| p.momentum)
            .collect();
        let mut jets = anti_kt_generic(&inputs, self.radius, self.pt_min);
        jets.retain(|j| j.eta().abs() <= self.abs_eta_max);
        jets
    }
}

/// Inclusive anti-kT over bare four-vectors (E-scheme).
///
/// Per-pseudojet kinematics (1/pT², η, φ) are cached and refreshed only
/// on merges, so the O(N²) distance scan costs multiply-adds rather than
/// transcendentals — this clustering runs inside every truth-level
/// analysis and the smearing model's event loop.
#[allow(clippy::needless_range_loop)] // pairwise index loop over the same slice
pub fn anti_kt_generic(inputs: &[FourVector], r: f64, pt_min: f64) -> Vec<FourVector> {
    struct Pseudo {
        momentum: FourVector,
        inv_pt2: f64,
        eta: f64,
        phi: f64,
    }
    let cache = |momentum: FourVector| {
        let pt = momentum.pt().max(1e-9);
        Pseudo {
            inv_pt2: 1.0 / (pt * pt),
            eta: momentum.eta(),
            phi: momentum.phi(),
            momentum,
        }
    };
    let mut pseudo: Vec<Pseudo> = inputs
        .iter()
        .filter(|v| v.pt() > 1e-6)
        .map(|v| cache(*v))
        .collect();
    let mut jets = Vec::new();
    let r2 = r * r;
    while !pseudo.is_empty() {
        let mut best: Option<(usize, usize)> = None;
        let mut best_d = f64::INFINITY;
        for i in 0..pseudo.len() {
            let pi = &pseudo[i];
            if pi.inv_pt2 < best_d {
                best_d = pi.inv_pt2;
                best = Some((i, usize::MAX));
            }
            for j in (i + 1)..pseudo.len() {
                let pj = &pseudo[j];
                let deta = pi.eta - pj.eta;
                let dphi = crate::projections::fast_dphi(pi.phi, pj.phi);
                let dr2 = deta * deta + dphi * dphi;
                let dij = pi.inv_pt2.min(pj.inv_pt2) * dr2 / r2;
                if dij < best_d {
                    best_d = dij;
                    best = Some((i, j));
                }
            }
        }
        let Some((i, j)) = best else { break };
        if j == usize::MAX {
            let jet = pseudo.swap_remove(i).momentum;
            if jet.pt() >= pt_min {
                jets.push(jet);
            }
        } else {
            let merged = pseudo[i].momentum + pseudo[j].momentum;
            pseudo[i] = cache(merged);
            pseudo.swap_remove(j);
        }
    }
    jets.sort_by(|a, b| b.pt().total_cmp(&a.pt()));
    jets
}

/// Wrapped azimuthal difference without loops (inputs already in
/// (−π, π]).
#[inline]
fn fast_dphi(a: f64, b: f64) -> f64 {
    let d = a - b;
    if d > std::f64::consts::PI {
        d - 2.0 * std::f64::consts::PI
    } else if d < -std::f64::consts::PI {
        d + 2.0 * std::f64::consts::PI
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daspos_gen::{EventGenerator, GeneratorConfig};
    use daspos_hep::event::{EventHeader, ProcessKind};
    use daspos_hep::particle::TruthParticle;

    #[test]
    fn final_state_cuts_apply() {
        let mut ev = TruthEvent::new(EventHeader::new(1, 1, 1), ProcessKind::MinimumBias);
        ev.push(TruthParticle::final_state(
            PdgId::PI_PLUS,
            FourVector::from_pt_eta_phi_m(5.0, 0.5, 0.0, 0.14),
        ));
        ev.push(TruthParticle::final_state(
            PdgId::PI_PLUS,
            FourVector::from_pt_eta_phi_m(0.2, 0.5, 1.0, 0.14),
        ));
        ev.push(TruthParticle::final_state(
            PdgId::PI_PLUS,
            FourVector::from_pt_eta_phi_m(5.0, 4.0, 2.0, 0.14),
        ));
        ev.push(TruthParticle::final_state(
            PdgId(12),
            FourVector::from_pt_eta_phi_m(50.0, 0.0, 0.0, 0.0),
        ));
        let fs = FinalState::with_cuts(1.0, 2.5);
        assert_eq!(fs.project(&ev).len(), 1);
        assert_eq!(FinalState::full().project(&ev).len(), 3); // neutrino invisible
    }

    #[test]
    fn dilepton_finder_reconstructs_z() {
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 64));
        let finder = DileptonFinder::z_default();
        let mut found = 0;
        let mut s = daspos_hep::stats::RunningStats::new();
        for i in 0..300 {
            let ev = gen.event(i);
            if let Some((l1, l2)) = finder.find(&ev) {
                found += 1;
                s.push((l1 + l2).mass());
            }
        }
        assert!(found > 150, "found {found}");
        assert!((s.mean() - 91.2).abs() < 1.5, "mean {}", s.mean());
    }

    #[test]
    fn dilepton_finder_rejects_same_sign_and_cross_flavour() {
        let mut ev = TruthEvent::new(EventHeader::new(1, 1, 1), ProcessKind::ZBoson);
        // e- and mu+: no SFOS pair.
        ev.push(TruthParticle::final_state(
            PdgId::ELECTRON,
            FourVector::from_pt_eta_phi_m(45.0, 0.0, 0.0, 0.0005),
        ));
        ev.push(TruthParticle::final_state(
            PdgId::MUON.antiparticle(),
            FourVector::from_pt_eta_phi_m(45.0, 0.0, 3.0, 0.105),
        ));
        assert!(DileptonFinder::z_default().find(&ev).is_none());
    }

    #[test]
    fn truth_jets_find_dijets() {
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::QcdDijet, 8));
        let jets_proj = TruthJets::standard();
        let mut dijet_events = 0;
        for i in 0..50 {
            let jets = jets_proj.project(&gen.event(i));
            if jets.len() >= 2 {
                dijet_events += 1;
                assert!(jets[0].pt() >= jets[1].pt());
            }
        }
        assert!(dijet_events > 25, "{dijet_events}/50");
    }

    #[test]
    fn anti_kt_generic_merges_collinear() {
        let a = FourVector::from_pt_eta_phi_m(50.0, 0.0, 0.0, 0.0);
        let b = FourVector::from_pt_eta_phi_m(10.0, 0.05, 0.05, 0.0);
        let jets = anti_kt_generic(&[a, b], 0.4, 5.0);
        assert_eq!(jets.len(), 1);
        assert!(jets[0].pt() > 55.0);
    }
}
