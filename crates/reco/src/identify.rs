//! Particle identification: matching tracks, clusters and muon segments
//! into electron, photon and muon candidates.

use daspos_detsim::raw::MuonHit;
use daspos_hep::fourvec::{delta_phi, FourVector};

use crate::objects::{CaloCluster, Electron, Muon, MuonSegment, Photon, Track};

/// ΔR between two (η, φ) directions.
fn dr(eta1: f64, phi1: f64, eta2: f64, phi2: f64) -> f64 {
    let de = eta1 - eta2;
    let dp = delta_phi(phi1, phi2);
    (de * de + dp * dp).sqrt()
}

/// Group muon hits into segments: hits from the same stub become one
/// segment with averaged direction.
pub fn build_muon_segments(hits: &[MuonHit]) -> Vec<MuonSegment> {
    let mut by_stub: Vec<&MuonHit> = hits.iter().collect();
    by_stub.sort_by_key(|h| h.stub);
    by_stub
        .chunk_by(|a, b| a.stub == b.stub)
        .map(|hs| {
            let n = hs.len() as f64;
            let eta = hs.iter().map(|h| h.eta).sum::<f64>() / n;
            let phi_x = hs.iter().map(|h| h.phi.cos()).sum::<f64>();
            let phi_y = hs.iter().map(|h| h.phi.sin()).sum::<f64>();
            let mut stations: Vec<u8> = hs.iter().map(|h| h.station).collect();
            stations.sort_unstable();
            stations.dedup();
            MuonSegment {
                eta,
                phi: phi_y.atan2(phi_x),
                n_stations: stations.len() as u8,
            }
        })
        .collect()
}

/// Identification working points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdConfig {
    /// Minimum candidate pT (GeV).
    pub lepton_pt_min: f64,
    /// Track–cluster / track–segment matching cone.
    pub match_dr: f64,
    /// Minimum EM fraction for an electron/photon cluster.
    pub em_fraction_min: f64,
    /// Allowed E/p window half-width around 1 for electrons.
    pub e_over_p_window: f64,
    /// Isolation cone radius.
    pub iso_cone: f64,
    /// Minimum muon-system stations.
    pub muon_stations_min: u8,
}

impl Default for IdConfig {
    fn default() -> Self {
        IdConfig {
            lepton_pt_min: 5.0,
            match_dr: 0.1,
            em_fraction_min: 0.85,
            e_over_p_window: 0.5,
            iso_cone: 0.3,
            muon_stations_min: 2,
        }
    }
}

/// Scalar ET in a cone around a direction, excluding the cluster at
/// `skip` (the candidate's own deposit).
fn isolation(
    clusters: &[CaloCluster],
    eta: f64,
    phi: f64,
    cone: f64,
    skip: Option<usize>,
    own_et: f64,
) -> f64 {
    let sum: f64 = clusters
        .iter()
        .enumerate()
        .filter(|(i, c)| Some(*i) != skip && dr(c.eta, c.phi, eta, phi) < cone)
        .map(|(_, c)| c.et())
        .sum();
    if own_et <= 0.0 {
        sum
    } else {
        sum / own_et
    }
}

/// Output of the identification step; cluster indices consumed by
/// electrons/photons are reported so jet finding can exclude them.
#[derive(Debug, Default)]
pub struct IdentifiedObjects {
    /// Electron candidates, descending pT.
    pub electrons: Vec<Electron>,
    /// Muon candidates, descending pT.
    pub muons: Vec<Muon>,
    /// Photon candidates, descending pT.
    pub photons: Vec<Photon>,
    /// Indices (into the cluster list) used by electrons/photons.
    pub used_clusters: Vec<usize>,
}

/// Run e/γ/μ identification over the reconstructed primitives.
pub fn identify(
    tracks: &[Track],
    clusters: &[CaloCluster],
    segments: &[MuonSegment],
    cfg: &IdConfig,
) -> IdentifiedObjects {
    let mut out = IdentifiedObjects::default();
    let mut cluster_used = vec![false; clusters.len()];
    let mut track_used = vec![false; tracks.len()];

    // --- Muons: track + segment match --------------------------------------
    for (ti, t) in tracks.iter().enumerate() {
        if t.pt < cfg.lepton_pt_min {
            continue;
        }
        let matched = segments.iter().find(|s| {
            s.n_stations >= cfg.muon_stations_min && dr(s.eta, s.phi, t.eta, t.phi) < cfg.match_dr
        });
        if matched.is_some() {
            let momentum = t.momentum(0.10566);
            out.muons.push(Muon {
                momentum,
                charge: t.charge,
                n_stations: matched.map(|s| s.n_stations).unwrap_or(0),
                isolation: isolation(clusters, t.eta, t.phi, cfg.iso_cone, None, momentum.pt()),
            });
            track_used[ti] = true;
        }
    }

    // --- Electrons: track + EM cluster with compatible E/p -----------------
    for (ti, t) in tracks.iter().enumerate() {
        if track_used[ti] || t.pt < cfg.lepton_pt_min {
            continue;
        }
        let best = clusters
            .iter()
            .enumerate()
            .filter(|(ci, c)| {
                !cluster_used[*ci]
                    && c.em_fraction >= cfg.em_fraction_min
                    && dr(c.eta, c.phi, t.eta, t.phi) < cfg.match_dr
            })
            .min_by(|(_, a), (_, b)| {
                dr(a.eta, a.phi, t.eta, t.phi).total_cmp(&dr(b.eta, b.phi, t.eta, t.phi))
            });
        if let Some((ci, c)) = best {
            let p = t.momentum(0.000511).p().max(1e-9);
            let e_over_p = c.energy / p;
            if (e_over_p - 1.0).abs() <= cfg.e_over_p_window {
                // Electron momentum: track direction, cluster energy.
                let momentum = FourVector::from_pt_eta_phi_e(
                    c.energy / t.eta.cosh(),
                    t.eta,
                    t.phi,
                    c.energy,
                );
                out.electrons.push(Electron {
                    momentum,
                    charge: t.charge,
                    e_over_p,
                    isolation: isolation(
                        clusters,
                        t.eta,
                        t.phi,
                        cfg.iso_cone,
                        Some(ci),
                        momentum.pt(),
                    ),
                });
                cluster_used[ci] = true;
                track_used[ti] = true;
            }
        }
    }

    // --- Photons: unmatched EM clusters -------------------------------------
    for (ci, c) in clusters.iter().enumerate() {
        if cluster_used[ci] || c.em_fraction < cfg.em_fraction_min || c.et() < cfg.lepton_pt_min {
            continue;
        }
        let track_nearby = tracks
            .iter()
            .any(|t| dr(c.eta, c.phi, t.eta, t.phi) < cfg.match_dr && t.pt > 1.0);
        if !track_nearby {
            out.photons.push(Photon {
                momentum: c.momentum(),
                isolation: isolation(clusters, c.eta, c.phi, cfg.iso_cone, Some(ci), c.et()),
            });
            cluster_used[ci] = true;
        }
    }

    out.used_clusters = cluster_used
        .iter()
        .enumerate()
        .filter(|(_, u)| **u)
        .map(|(i, _)| i)
        .collect();
    out.electrons
        .sort_by(|a, b| b.momentum.pt().total_cmp(&a.momentum.pt()));
    out.muons
        .sort_by(|a, b| b.momentum.pt().total_cmp(&a.momentum.pt()));
    out.photons
        .sort_by(|a, b| b.momentum.pt().total_cmp(&a.momentum.pt()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn track(pt: f64, eta: f64, phi: f64, charge: i8) -> Track {
        Track {
            pt,
            eta,
            phi,
            charge,
            d0: 0.0,
            z0: 0.0,
            n_hits: 8,
            first_hit_radius: 33.0,
            circle_cx: 0.0,
            circle_cy: 0.0,
            circle_r: 1e5,
            cot_theta: eta.sinh(),
        }
    }

    fn em_cluster(e: f64, eta: f64, phi: f64) -> CaloCluster {
        CaloCluster {
            energy: e,
            eta,
            phi,
            em_fraction: 1.0,
            n_towers: 2,
        }
    }

    #[test]
    fn electron_from_matched_track_and_cluster() {
        let t = track(30.0, 0.5, 1.0, -1);
        let p = t.momentum(0.000511).p();
        let c = em_cluster(p, 0.5, 1.0);
        let out = identify(&[t], &[c], &[], &IdConfig::default());
        assert_eq!(out.electrons.len(), 1);
        assert_eq!(out.electrons[0].charge, -1);
        assert!((out.electrons[0].e_over_p - 1.0).abs() < 1e-9);
        assert!(out.photons.is_empty());
        assert_eq!(out.used_clusters, vec![0]);
    }

    #[test]
    fn photon_from_unmatched_cluster() {
        let c = em_cluster(40.0, -0.3, 2.0);
        let out = identify(&[], &[c], &[], &IdConfig::default());
        assert_eq!(out.photons.len(), 1);
        assert!(out.electrons.is_empty());
    }

    #[test]
    fn hadronic_cluster_is_neither() {
        let mut c = em_cluster(40.0, 0.0, 0.0);
        c.em_fraction = 0.3;
        let out = identify(&[], &[c], &[], &IdConfig::default());
        assert!(out.photons.is_empty());
        assert!(out.used_clusters.is_empty());
    }

    #[test]
    fn muon_needs_enough_stations() {
        let t = track(25.0, 1.0, -1.0, 1);
        let seg1 = MuonSegment {
            eta: 1.0,
            phi: -1.0,
            n_stations: 1,
        };
        let out = identify(&[t], &[], &[seg1], &IdConfig::default());
        assert!(out.muons.is_empty());
        let seg3 = MuonSegment {
            eta: 1.0,
            phi: -1.0,
            n_stations: 3,
        };
        let out = identify(&[t], &[], &[seg3], &IdConfig::default());
        assert_eq!(out.muons.len(), 1);
        assert_eq!(out.muons[0].n_stations, 3);
    }

    #[test]
    fn muon_track_not_reused_as_electron() {
        let t = track(25.0, 0.0, 0.0, 1);
        let seg = MuonSegment {
            eta: 0.0,
            phi: 0.0,
            n_stations: 3,
        };
        // A coincidental EM cluster on top of the muon.
        let c = em_cluster(t.momentum(0.0).p(), 0.0, 0.0);
        let out = identify(&[t], &[c], &[seg], &IdConfig::default());
        assert_eq!(out.muons.len(), 1);
        assert!(out.electrons.is_empty());
    }

    #[test]
    fn bad_e_over_p_rejects_electron() {
        let t = track(30.0, 0.5, 1.0, -1);
        let c = em_cluster(t.momentum(0.0).p() * 3.0, 0.5, 1.0);
        let out = identify(&[t], &[c], &[], &IdConfig::default());
        assert!(out.electrons.is_empty());
    }

    #[test]
    fn isolation_counts_neighbouring_energy() {
        let t = track(30.0, 0.0, 0.0, 1);
        let p = t.momentum(0.000511).p();
        let own = em_cluster(p, 0.0, 0.0);
        let nearby = em_cluster(15.0, 0.15, 0.0);
        let out = identify(&[t], &[own, nearby], &[], &IdConfig::default());
        assert_eq!(out.electrons.len(), 1);
        assert!(out.electrons[0].isolation > 0.3, "iso = {}", out.electrons[0].isolation);
    }

    #[test]
    fn segments_group_by_stub() {
        let hits = vec![
            MuonHit {
                station: 1,
                eta: 1.0,
                phi: 0.5,
                stub: 0,
            },
            MuonHit {
                station: 2,
                eta: 1.01,
                phi: 0.51,
                stub: 0,
            },
            MuonHit {
                station: 1,
                eta: -2.0,
                phi: 2.0,
                stub: 1,
            },
        ];
        let segs = build_muon_segments(&hits);
        assert_eq!(segs.len(), 2);
        let two_station = segs.iter().find(|s| s.n_stations == 2).unwrap();
        assert!((two_station.eta - 1.005).abs() < 1e-9);
    }

    #[test]
    fn candidates_sorted_by_pt() {
        let c1 = em_cluster(20.0, 0.0, 0.0);
        let c2 = em_cluster(60.0, 1.0, 1.0);
        let out = identify(&[], &[c1, c2], &[], &IdConfig::default());
        assert_eq!(out.photons.len(), 2);
        assert!(out.photons[0].momentum.pt() >= out.photons[1].momentum.pt());
    }
}
