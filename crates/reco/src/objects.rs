//! Reconstructed object types: the RECO and AOD event models.

use daspos_hep::event::EventHeader;
use daspos_hep::fourvec::FourVector;

/// A fitted charged-particle trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Track {
    /// Transverse momentum measured from the fitted curvature (GeV).
    pub pt: f64,
    /// Pseudorapidity from the longitudinal fit.
    pub eta: f64,
    /// Azimuth of the momentum at the point of closest approach.
    pub phi: f64,
    /// Charge sign from the fitted rotation sense (±1).
    pub charge: i8,
    /// Signed transverse impact parameter w.r.t. the beamline (mm).
    pub d0: f64,
    /// Longitudinal position at the point of closest approach (mm).
    pub z0: f64,
    /// Number of hits used in the fit.
    pub n_hits: u8,
    /// Radius of the innermost hit (mm) — large for V⁰ daughters.
    pub first_hit_radius: f64,
    /// Signed curvature-circle centre x (mm), kept for vertexing.
    pub circle_cx: f64,
    /// Curvature-circle centre y (mm).
    pub circle_cy: f64,
    /// Curvature-circle radius (mm).
    pub circle_r: f64,
    /// Longitudinal slope cot θ = pz/pT.
    pub cot_theta: f64,
}

impl Track {
    /// Four-momentum under a mass hypothesis.
    pub fn momentum(&self, mass: f64) -> FourVector {
        FourVector::from_pt_eta_phi_m(self.pt, self.eta, self.phi, mass)
    }

    /// Momentum magnitude.
    pub fn p(&self) -> f64 {
        self.pt * self.cot_theta.cosh_like()
    }
}

/// Extension trait: `cosh(asinh(x)) = sqrt(1+x²)` without going through
/// `eta` explicitly.
trait CoshLike {
    fn cosh_like(&self) -> f64;
}
impl CoshLike for f64 {
    fn cosh_like(&self) -> f64 {
        (1.0 + self * self).sqrt()
    }
}

/// A calorimeter cluster: a connected group of towers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaloCluster {
    /// Calibrated cluster energy (GeV).
    pub energy: f64,
    /// Energy-weighted pseudorapidity.
    pub eta: f64,
    /// Energy-weighted azimuth.
    pub phi: f64,
    /// Fraction of the energy in the EM compartment.
    pub em_fraction: f64,
    /// Number of towers in the cluster.
    pub n_towers: u32,
}

impl CaloCluster {
    /// Transverse energy.
    pub fn et(&self) -> f64 {
        self.energy / self.eta.cosh()
    }

    /// Massless four-vector at the cluster direction.
    pub fn momentum(&self) -> FourVector {
        FourVector::from_pt_eta_phi_m(self.et(), self.eta, self.phi, 0.0)
    }
}

/// A reconstructed muon-system segment (grouped muon hits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MuonSegment {
    /// Segment pseudorapidity.
    pub eta: f64,
    /// Segment azimuth.
    pub phi: f64,
    /// Number of stations with hits.
    pub n_stations: u8,
}

/// An identified electron candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Electron {
    /// Four-momentum (track direction, cluster energy).
    pub momentum: FourVector,
    /// Charge from the track.
    pub charge: i8,
    /// Cluster-energy to track-momentum ratio.
    pub e_over_p: f64,
    /// Scalar ET sum in an isolation cone, relative to the electron ET.
    pub isolation: f64,
}

/// An identified muon candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Muon {
    /// Four-momentum from the tracker fit.
    pub momentum: FourVector,
    /// Charge from the track.
    pub charge: i8,
    /// Stations matched in the muon system.
    pub n_stations: u8,
    /// Relative isolation.
    pub isolation: f64,
}

/// An identified photon candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Photon {
    /// Four-momentum from the cluster.
    pub momentum: FourVector,
    /// Relative isolation.
    pub isolation: f64,
}

/// A clustered jet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jet {
    /// Jet four-momentum (E-scheme sum of constituents).
    pub momentum: FourVector,
    /// Number of constituent clusters.
    pub n_constituents: u32,
    /// EM energy fraction of the jet.
    pub em_fraction: f64,
}

/// Missing transverse energy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Met {
    /// x-component (GeV).
    pub mex: f64,
    /// y-component (GeV).
    pub mey: f64,
}

impl Met {
    /// Magnitude of the missing transverse momentum.
    pub fn value(&self) -> f64 {
        (self.mex * self.mex + self.mey * self.mey).sqrt()
    }

    /// Azimuth of the missing momentum.
    pub fn phi(&self) -> f64 {
        self.mey.atan2(self.mex)
    }
}

/// A two-prong decay candidate from the vertexer (V⁰ or D⁰ candidates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoProngCandidate {
    /// Decay vertex position (mm); `t` unused.
    pub vertex: FourVector,
    /// Transverse flight distance from the beamline (mm).
    pub flight_xy: f64,
    /// Candidate transverse momentum (GeV).
    pub pt: f64,
    /// Candidate pseudorapidity.
    pub eta: f64,
    /// Invariant mass under the (π⁺, π⁻) hypothesis — K⁰s peak.
    pub mass_pipi: f64,
    /// Invariant mass under the (p, π) hypothesis — Λ peak (heavier track
    /// taken as the proton).
    pub mass_ppi: f64,
    /// Invariant mass under the (K, π) hypothesis — D⁰ peak (higher-pT
    /// track taken as the kaon).
    pub mass_kpi: f64,
    /// Proper decay time under the D⁰ hypothesis (ns).
    pub proper_time_d0_ns: f64,
    /// Indices of the two tracks in the RECO track list.
    pub track_indices: (u32, u32),
}

/// The RECO tier: full reconstruction output.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoEvent {
    /// Event coordinates.
    pub header: EventHeader,
    /// All fitted tracks.
    pub tracks: Vec<Track>,
    /// All calorimeter clusters.
    pub clusters: Vec<CaloCluster>,
    /// Muon-system segments.
    pub muon_segments: Vec<MuonSegment>,
}

impl RecoEvent {
    /// Approximate serialized size in bytes (tier accounting).
    pub fn byte_size(&self) -> usize {
        16 + self.tracks.len() * 90 + self.clusters.len() * 36 + self.muon_segments.len() * 17
    }
}

/// The AOD tier: refined candidate physics objects only — *"after the
/// initial commissioning phase … only the refined objects necessary for
/// further analysis are kept"* (report §3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct AodEvent {
    /// Event coordinates.
    pub header: EventHeader,
    /// Electron candidates, descending pT.
    pub electrons: Vec<Electron>,
    /// Muon candidates, descending pT.
    pub muons: Vec<Muon>,
    /// Photon candidates, descending pT.
    pub photons: Vec<Photon>,
    /// Jets, descending pT.
    pub jets: Vec<Jet>,
    /// Missing transverse energy.
    pub met: Met,
    /// Two-prong decay candidates (V⁰/D⁰).
    pub candidates: Vec<TwoProngCandidate>,
    /// Charged track multiplicity (for event-shape physics).
    pub n_tracks: u32,
}

impl AodEvent {
    /// An empty AOD event.
    pub fn new(header: EventHeader) -> Self {
        AodEvent {
            header,
            electrons: Vec::new(),
            muons: Vec::new(),
            photons: Vec::new(),
            jets: Vec::new(),
            met: Met::default(),
            candidates: Vec::new(),
            n_tracks: 0,
        }
    }

    /// Approximate serialized size in bytes.
    pub fn byte_size(&self) -> usize {
        16 + 4
            + self.electrons.len() * 50
            + self.muons.len() * 43
            + self.photons.len() * 40
            + self.jets.len() * 44
            + 16
            + self.candidates.len() * 96
    }

    /// All charged leptons (e then μ), by descending pT; the sort is
    /// stable, so at equal pT an electron stays first. Each call
    /// allocates and sorts a fresh list. The ntuple fill
    /// (`daspos_tiers::Ntuple::append`) builds the same list, in the
    /// same order, into a buffer it reuses across rows.
    pub fn leptons(&self) -> Vec<(FourVector, i8)> {
        let mut out: Vec<(FourVector, i8)> = self
            .electrons
            .iter()
            .map(|e| (e.momentum, e.charge))
            .chain(self.muons.iter().map(|m| (m.momentum, m.charge)))
            .collect();
        out.sort_by(|a, b| b.0.pt().total_cmp(&a.0.pt()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn met_value_and_phi() {
        let met = Met { mex: 3.0, mey: 4.0 };
        assert!((met.value() - 5.0).abs() < 1e-12);
        assert!((met.phi() - (4.0f64).atan2(3.0)).abs() < 1e-12);
    }

    #[test]
    fn cluster_et_accounts_for_eta() {
        let central = CaloCluster {
            energy: 50.0,
            eta: 0.0,
            phi: 0.0,
            em_fraction: 1.0,
            n_towers: 3,
        };
        let forward = CaloCluster {
            energy: 50.0,
            eta: 3.0,
            phi: 0.0,
            em_fraction: 1.0,
            n_towers: 3,
        };
        assert!((central.et() - 50.0).abs() < 1e-9);
        assert!(forward.et() < 6.0);
    }

    #[test]
    fn track_momentum_mass_hypothesis() {
        let t = Track {
            pt: 10.0,
            eta: 1.0,
            phi: 0.5,
            charge: -1,
            d0: 0.0,
            z0: 0.0,
            n_hits: 8,
            first_hit_radius: 33.0,
            circle_cx: 0.0,
            circle_cy: 0.0,
            circle_r: 1.0e4,
            cot_theta: 1.0f64.sinh(),
        };
        let m = t.momentum(0.49368);
        assert!((m.pt() - 10.0).abs() < 1e-9);
        assert!((m.mass() - 0.49368).abs() < 1e-6);
    }

    #[test]
    fn aod_leptons_sorted_by_pt() {
        let mut aod = AodEvent::new(EventHeader::new(1, 1, 1));
        aod.electrons.push(Electron {
            momentum: FourVector::from_pt_eta_phi_m(20.0, 0.0, 0.0, 0.0),
            charge: -1,
            e_over_p: 1.0,
            isolation: 0.0,
        });
        aod.muons.push(Muon {
            momentum: FourVector::from_pt_eta_phi_m(35.0, 0.0, 1.0, 0.0),
            charge: 1,
            n_stations: 3,
            isolation: 0.0,
        });
        let leps = aod.leptons();
        assert_eq!(leps.len(), 2);
        assert!(leps[0].0.pt() > leps[1].0.pt());
        assert_eq!(leps[0].1, 1);
    }

    #[test]
    fn byte_sizes_scale_with_content() {
        let header = EventHeader::new(1, 1, 1);
        let empty = AodEvent::new(header);
        let mut full = empty.clone();
        full.jets.push(Jet {
            momentum: FourVector::ZERO,
            n_constituents: 1,
            em_fraction: 0.5,
        });
        assert!(full.byte_size() > empty.byte_size());
    }
}
