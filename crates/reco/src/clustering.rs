//! Calorimeter clustering: connected components over the tower grid.
//!
//! Towers sharing an edge or corner (8-connectivity) are merged into one
//! cluster; the cluster direction is the energy-weighted mean of the tower
//! centres. Calibration constants (the per-run EM/hadronic gains resolved
//! from the conditions database) are divided out here, which is why
//! reconstruction — not analysis — owns the conditions dependency
//! (report §3.2).
//!
//! The tower grid is a flat `Vec` sorted by `(ieta, iphi)`: cells are
//! stable-sorted and each tower sums its cells in their original order,
//! each tower carries its own visit mark, and a tower's neighbours are
//! found with one binary search per η row. Seeds are taken in ascending
//! tower order and the BFS visits neighbours in a fixed order, so every
//! cluster sum is formed in the same order as with an ordered map, bit
//! for bit.

use std::collections::VecDeque;

use daspos_detsim::config::CaloConfig;
use daspos_detsim::raw::CaloCell;

use crate::objects::CaloCluster;

/// One tower of the grid: its coordinates, calibrated (EM, hadronic)
/// energies, and whether the search has reached it yet.
struct Tower {
    key: (i32, i32),
    em: f64,
    had: f64,
    visited: bool,
}

/// Cluster the calorimeter cells of one event.
///
/// `em_gain` / `had_gain` are the calibration scales the simulation
/// applied; clustering divides them out to restore the true energy scale.
pub fn cluster_cells(
    cells: &[CaloCell],
    calo: &CaloConfig,
    em_gain: f64,
    had_gain: f64,
    min_cluster_energy: f64,
) -> Vec<CaloCluster> {
    if em_gain <= 0.0 || had_gain <= 0.0 {
        return Vec::new();
    }
    // Index cells by tower coordinates, summing duplicates in cell order.
    let mut sorted: Vec<&CaloCell> = cells.iter().collect();
    sorted.sort_by_key(|c| (c.ieta, c.iphi));
    let mut grid: Vec<Tower> = sorted
        .chunk_by(|a, b| (a.ieta, a.iphi) == (b.ieta, b.iphi))
        .map(|run| {
            let (mut em, mut had) = (0.0, 0.0);
            for c in run {
                em += c.em / em_gain;
                had += c.had / had_gain;
            }
            Tower {
                key: (run[0].ieta, run[0].iphi),
                em,
                had,
                visited: false,
            }
        })
        .collect();

    let mut queue = VecDeque::new();
    let mut clusters = Vec::new();

    for start in 0..grid.len() {
        if grid[start].visited {
            continue;
        }
        // BFS over 8-connected neighbours.
        queue.push_back(start);
        grid[start].visited = true;
        let mut sum_e = 0.0;
        let mut sum_em = 0.0;
        let mut sum_eta = 0.0;
        let mut sum_phi_x = 0.0;
        let mut sum_phi_y = 0.0;
        let mut n_towers = 0u32;
        while let Some(t) = queue.pop_front() {
            let Tower {
                key: (ieta, iphi),
                em,
                had,
                ..
            } = grid[t];
            let e = em + had;
            let eta = (f64::from(ieta) + 0.5) * calo.d_eta;
            let phi = (f64::from(iphi) + 0.5) * calo.d_phi;
            sum_e += e;
            sum_em += em;
            sum_eta += e * eta;
            // Average phi on the circle to handle wrap-around.
            sum_phi_x += e * phi.cos();
            sum_phi_y += e * phi.sin();
            n_towers += 1;
            // One lower-bound search per η row, then a walk over the
            // row's towers at iφ−1..=iφ+1: neighbours are reached in
            // ascending (Δη, Δφ), and the tower itself is already marked.
            for row in ieta - 1..=ieta + 1 {
                let last = (row, iphi + 1);
                let mut n = grid.partition_point(|t| t.key < (row, iphi - 1));
                while n < grid.len() && grid[n].key <= last {
                    if !grid[n].visited {
                        grid[n].visited = true;
                        queue.push_back(n);
                    }
                    n += 1;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn calo() -> CaloConfig {
        CaloConfig {
            eta_min: -5.0,
            eta_max: 5.0,
            d_eta: 0.1,
            d_phi: 0.1,
            em_stochastic: 0.1,
            em_constant: 0.01,
            had_stochastic: 0.5,
            had_constant: 0.05,
            noise_towers: 0.0,
            noise_energy: 0.0,
            cell_threshold: 0.1,
        }
    }

    fn cell(ieta: i32, iphi: i32, em: f64, had: f64) -> CaloCell {
        CaloCell {
            ieta,
            iphi,
            em,
            had,
        }
    }

    #[test]
    fn adjacent_cells_merge() {
        let cells = vec![
            cell(0, 0, 10.0, 0.0),
            cell(0, 1, 5.0, 0.0),
            cell(1, 1, 2.0, 0.0), // diagonal: still connected
        ];
        let cl = cluster_cells(&cells, &calo(), 1.0, 1.0, 0.5);
        assert_eq!(cl.len(), 1);
        assert!((cl[0].energy - 17.0).abs() < 1e-9);
        assert_eq!(cl[0].n_towers, 3);
        assert_eq!(cl[0].em_fraction, 1.0);
    }

    #[test]
    fn separated_cells_stay_distinct() {
        let cells = vec![cell(0, 0, 10.0, 0.0), cell(5, 5, 8.0, 0.0)];
        let cl = cluster_cells(&cells, &calo(), 1.0, 1.0, 0.5);
        assert_eq!(cl.len(), 2);
        // Sorted by energy.
        assert!(cl[0].energy > cl[1].energy);
    }

    #[test]
    fn gain_is_divided_out() {
        let cells = vec![cell(0, 0, 20.0, 10.0)];
        let cl = cluster_cells(&cells, &calo(), 2.0, 2.0, 0.5);
        assert_eq!(cl.len(), 1);
        assert!((cl[0].energy - 15.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_compartments_give_fraction() {
        let cells = vec![cell(0, 0, 3.0, 1.0)];
        let cl = cluster_cells(&cells, &calo(), 1.0, 1.0, 0.5);
        assert!((cl[0].em_fraction - 0.75).abs() < 1e-9);
    }

    #[test]
    fn min_energy_filters() {
        let cells = vec![cell(0, 0, 0.3, 0.0)];
        assert!(cluster_cells(&cells, &calo(), 1.0, 1.0, 0.5).is_empty());
    }

    #[test]
    fn position_is_energy_weighted() {
        // Two towers: 30 GeV at ieta=0, 10 GeV at ieta=1.
        let cells = vec![cell(0, 0, 30.0, 0.0), cell(1, 0, 10.0, 0.0)];
        let cl = cluster_cells(&cells, &calo(), 1.0, 1.0, 0.5);
        // Tower centres at eta = 0.05 and 0.15 → weighted mean 0.075.
        assert!((cl[0].eta - 0.075).abs() < 1e-9, "eta = {}", cl[0].eta);
    }

    #[test]
    fn phi_wraparound_is_handled() {
        // Towers straddling ±π (iphi ±31 at d_phi = 0.1 ⇒ phi ≈ ±3.1).
        let near_pi = (std::f64::consts::PI / 0.1) as i32 - 1;
        let cells = vec![
            cell(0, near_pi, 10.0, 0.0),
            cell(0, -near_pi - 1, 10.0, 0.0),
        ];
        // Not adjacent in index space, so two clusters — but each must have
        // a valid phi near ±π, not an average near 0.
        let cl = cluster_cells(&cells, &calo(), 1.0, 1.0, 0.5);
        for c in &cl {
            assert!(c.phi.abs() > 2.9, "phi = {}", c.phi);
        }
    }

    #[test]
    fn invalid_gain_yields_nothing() {
        let cells = vec![cell(0, 0, 10.0, 0.0)];
        assert!(cluster_cells(&cells, &calo(), 0.0, 1.0, 0.5).is_empty());
    }
}
