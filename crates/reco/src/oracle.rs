//! Bitwise oracle for the reconstruction kernels.
//!
//! `reference_anti_kt` and `reference_cluster_cells` are the kernels
//! [`jets::anti_kt`] and [`clustering::cluster_cells`] replaced: anti-kT
//! recomputing pT, η and φ for every pair on every pass, and clustering
//! over ordered maps. The production kernels must perform the same
//! floating-point operations in the same order, so the proptests below
//! demand equality of every output on `f64::to_bits`, not within a
//! tolerance.

use std::collections::{BTreeMap, VecDeque};

use daspos_detsim::config::CaloConfig;
use daspos_detsim::raw::CaloCell;
use proptest::prelude::*;

use crate::clustering;
use crate::jets;
use crate::objects::{CaloCluster, Jet};

/// The anti-kT scan before per-pseudojet caching.
fn reference_anti_kt(clusters: &[CaloCluster], r: f64, pt_min: f64) -> Vec<Jet> {
    #[derive(Clone, Copy)]
    struct PseudoJet {
        momentum: daspos_hep::fourvec::FourVector,
        em_energy: f64,
        n_constituents: u32,
    }
    let mut pseudo: Vec<PseudoJet> = clusters
        .iter()
        .filter(|c| c.energy > 0.0)
        .map(|c| PseudoJet {
            momentum: c.momentum(),
            em_energy: c.energy * c.em_fraction,
            n_constituents: 1,
        })
        .collect();
    let mut jets = Vec::new();
    let r2 = r * r;
    while !pseudo.is_empty() {
        let mut best_ij: Option<(usize, usize)> = None;
        let mut best_d = f64::INFINITY;
        for i in 0..pseudo.len() {
            let pt_i = pseudo[i].momentum.pt().max(1e-9);
            let d_ib = 1.0 / (pt_i * pt_i);
            if d_ib < best_d {
                best_d = d_ib;
                best_ij = Some((i, usize::MAX));
            }
            for j in (i + 1)..pseudo.len() {
                let pt_j = pseudo[j].momentum.pt().max(1e-9);
                let dr = pseudo[i].momentum.delta_r(&pseudo[j].momentum);
                let dij = (1.0 / (pt_i * pt_i)).min(1.0 / (pt_j * pt_j)) * dr * dr / r2;
                if dij < best_d {
                    best_d = dij;
                    best_ij = Some((i, j));
                }
            }
        }
        let Some((i, j)) = best_ij else { break };
        if j == usize::MAX {
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
            let pj = pseudo[j];
            let pi = &mut pseudo[i];
            pi.momentum += pj.momentum;
            pi.em_energy += pj.em_energy;
            pi.n_constituents += pj.n_constituents;
            pseudo.swap_remove(j);
        }
    }
    jets.sort_by(|a, b| b.momentum.pt().total_cmp(&a.momentum.pt()));
    jets
}

/// Tower clustering over `BTreeMap` grid and visit maps.
fn reference_cluster_cells(
    cells: &[CaloCell],
    calo: &CaloConfig,
    em_gain: f64,
    had_gain: f64,
    min_cluster_energy: f64,
) -> Vec<CaloCluster> {
    if em_gain <= 0.0 || had_gain <= 0.0 {
        return Vec::new();
    }
    let mut grid: BTreeMap<(i32, i32), (f64, f64)> = BTreeMap::new();
    for c in cells {
        let e = grid.entry((c.ieta, c.iphi)).or_insert((0.0, 0.0));
        e.0 += c.em / em_gain;
        e.1 += c.had / had_gain;
    }
    let mut visited: BTreeMap<(i32, i32), bool> = BTreeMap::new();
    let mut clusters = Vec::new();
    let keys: Vec<(i32, i32)> = grid.keys().copied().collect();
    for start in keys {
        if visited.get(&start).copied().unwrap_or(false) {
            continue;
        }
        let mut queue = VecDeque::new();
        queue.push_back(start);
        visited.insert(start, true);
        let mut sum_e = 0.0;
        let mut sum_em = 0.0;
        let mut sum_eta = 0.0;
        let mut sum_phi_x = 0.0;
        let mut sum_phi_y = 0.0;
        let mut n_towers = 0u32;
        while let Some((ieta, iphi)) = queue.pop_front() {
            let (em, had) = grid[&(ieta, iphi)];
            let e = em + had;
            let eta = (f64::from(ieta) + 0.5) * calo.d_eta;
            let phi = (f64::from(iphi) + 0.5) * calo.d_phi;
            sum_e += e;
            sum_em += em;
            sum_eta += e * eta;
            sum_phi_x += e * phi.cos();
            sum_phi_y += e * phi.sin();
            n_towers += 1;
            for deta in -1..=1 {
                for dphi in -1..=1 {
                    if deta == 0 && dphi == 0 {
                        continue;
                    }
                    let nb = (ieta + deta, iphi + dphi);
                    if grid.contains_key(&nb) && !visited.get(&nb).copied().unwrap_or(false) {
                        visited.insert(nb, true);
                        queue.push_back(nb);
                    }
                }
            }
        }
        if sum_e >= min_cluster_energy && sum_e > 0.0 {
            clusters.push(CaloCluster {
                energy: sum_e,
                eta: sum_eta / sum_e,
                phi: sum_phi_y.atan2(sum_phi_x),
                em_fraction: (sum_em / sum_e).clamp(0.0, 1.0),
                n_towers,
            });
        }
    }
    clusters.sort_by(|a, b| b.energy.total_cmp(&a.energy));
    clusters
}

fn cluster_bits(c: &CaloCluster) -> [u64; 5] {
    [
        c.energy.to_bits(),
        c.eta.to_bits(),
        c.phi.to_bits(),
        c.em_fraction.to_bits(),
        u64::from(c.n_towers),
    ]
}

fn jet_bits(j: &Jet) -> [u64; 6] {
    [
        j.momentum.px.to_bits(),
        j.momentum.py.to_bits(),
        j.momentum.pz.to_bits(),
        j.momentum.e.to_bits(),
        j.em_fraction.to_bits(),
        u64::from(j.n_constituents),
    ]
}

fn calo(d_eta: f64, d_phi: f64) -> CaloConfig {
    CaloConfig {
        eta_min: -5.0,
        eta_max: 5.0,
        d_eta,
        d_phi,
        em_stochastic: 0.1,
        em_constant: 0.01,
        had_stochastic: 0.5,
        had_constant: 0.05,
        noise_towers: 0.0,
        noise_energy: 0.0,
        cell_threshold: 0.1,
    }
}

/// Energies with exact zeros and repeated values mixed in.
fn arb_energy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(5.0), Just(12.5), 0.0..80.0f64]
}

/// Cells on a small grid, so duplicates and neighbours are common; the
/// φ index straddles both ends of the ±π seam as well as zero, and η
/// indices run negative.
fn arb_cell() -> impl Strategy<Value = CaloCell> {
    (
        -4i32..4,
        prop_oneof![-4i32..4, 28i32..34, -34i32..-28],
        arb_energy(),
        arb_energy(),
    )
        .prop_map(|(ieta, iphi, em, had)| CaloCell {
            ieta,
            iphi,
            em,
            had,
        })
}

fn arb_gain() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1.0), 0.5..2.0f64]
}

/// A floor that is sometimes exactly zero.
fn arb_floor(max: f64) -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.0..max]
}

/// Tower sizes: the square 0.1 grid and a 64-sector φ grid.
fn arb_calo() -> impl Strategy<Value = CaloConfig> {
    prop_oneof![
        Just(calo(0.1, 0.1)),
        Just(calo(0.087, std::f64::consts::TAU / 64.0)),
    ]
}

/// Clusters with zero-energy entries, φ on both sides of the seam and
/// exact copies of one another (equal pT, zero separation).
fn arb_clusters() -> impl Strategy<Value = Vec<CaloCluster>> {
    let one = (
        prop_oneof![Just(0.0), Just(40.0), 0.1..300.0f64],
        prop_oneof![Just(0.0), Just(1.5), -4.0..4.0f64],
        prop_oneof![
            -std::f64::consts::PI..std::f64::consts::PI,
            3.0..std::f64::consts::PI,
            -std::f64::consts::PI..-3.0,
        ],
        prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64],
    )
        .prop_map(|(energy, eta, phi, em_fraction)| CaloCluster {
            energy,
            eta,
            phi,
            em_fraction,
            n_towers: 1,
        });
    (
        prop::collection::vec(one, 0..=40),
        prop::collection::vec(any::<usize>(), 0..6),
    )
        .prop_map(|(mut clusters, copies)| {
            if !clusters.is_empty() {
                for ix in copies {
                    let c = clusters[ix % clusters.len()];
                    clusters.push(c);
                }
            }
            clusters
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn cluster_cells_matches_the_map_kernel_bit_for_bit(
        cells in prop::collection::vec(arb_cell(), 0..60),
        em_gain in arb_gain(),
        had_gain in arb_gain(),
        min_e in arb_floor(3.0),
        calo in arb_calo(),
    ) {
        let fast = clustering::cluster_cells(&cells, &calo, em_gain, had_gain, min_e);
        let slow = reference_cluster_cells(&cells, &calo, em_gain, had_gain, min_e);
        let fast: Vec<_> = fast.iter().map(cluster_bits).collect();
        let slow: Vec<_> = slow.iter().map(cluster_bits).collect();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn anti_kt_matches_the_uncached_kernel_bit_for_bit(
        clusters in arb_clusters(),
        r in 0.2..1.2f64,
        pt_min in arb_floor(40.0),
    ) {
        let fast: Vec<_> = jets::anti_kt(&clusters, r, pt_min).iter().map(jet_bits).collect();
        let slow: Vec<_> = reference_anti_kt(&clusters, r, pt_min).iter().map(jet_bits).collect();
        prop_assert_eq!(fast, slow);
    }

    // A pair of equal-energy clusters with R set to their exact ΔR:
    // `d_ij` then ties `d_iB` up to the last bit, so any change to how
    // `d_ij` is rounded flips the merge decision.
    #[test]
    fn anti_kt_matches_at_exact_distance_ties(
        energy in 1.0..200.0f64,
        eta in -3.0..3.0f64,
        phi in -std::f64::consts::PI..std::f64::consts::PI,
        dphi in 0.05..1.0f64,
    ) {
        let a = CaloCluster { energy, eta, phi, em_fraction: 0.5, n_towers: 1 };
        let b = CaloCluster { phi: phi + dphi, ..a };
        let r = a.momentum().delta_r(&b.momentum());
        let fast: Vec<_> = jets::anti_kt(&[a, b], r, 0.0).iter().map(jet_bits).collect();
        let slow: Vec<_> = reference_anti_kt(&[a, b], r, 0.0).iter().map(jet_bits).collect();
        prop_assert_eq!(fast, slow);
    }
}
