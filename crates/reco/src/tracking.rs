//! Track fitting: least-squares circle refit of tracker hits.
//!
//! The detector simulation writes helix hits with Gaussian position
//! smearing; here the circle is *re-measured* with the Kåsa algebraic fit,
//! so the track parameters carry realistic, lever-arm-dependent
//! resolutions. Charge comes from the rotation sense, the impact parameter
//! from the circle's distance of closest approach to the beamline, and the
//! longitudinal parameters from a linear fit of z against arc length.

use std::borrow::Cow;

use daspos_detsim::raw::TrackerHit;

use crate::objects::Track;

/// Fit one track from the hits of a single stub (≥ 3 hits required).
///
/// `field_tesla` converts the fitted curvature radius into transverse
/// momentum: `pT [GeV] = 0.3 · B [T] · R [m]`.
pub fn fit_track(hits: &[TrackerHit], field_tesla: f64) -> Option<Track> {
    if hits.len() < 3 || field_tesla <= 0.0 {
        return None;
    }
    let (cx, cy, r) = kasa_circle(hits)?;
    if !(r.is_finite() && r > 0.0) {
        return None;
    }

    // Charge from rotation sense: ordered hits turn counterclockwise for
    // positive charge in this field convention.
    let h0 = &hits[0];
    let h1 = &hits[hits.len() / 2];
    let h2 = &hits[hits.len() - 1];
    let cross = (h1.x - h0.x) * (h2.y - h1.y) - (h1.y - h0.y) * (h2.x - h1.x);
    let charge: i8 = if cross >= 0.0 { 1 } else { -1 };

    // Point of closest approach to the beamline.
    let c_norm = (cx * cx + cy * cy).sqrt();
    if c_norm == 0.0 {
        return None;
    }
    let d0 = c_norm - r;
    let poca = (cx * (1.0 - r / c_norm), cy * (1.0 - r / c_norm));

    // Momentum direction at the POCA: tangent, oriented towards the hits.
    let radial = (poca.0 - cx, poca.1 - cy);
    let mut tangent = if charge > 0 {
        (-radial.1 / r, radial.0 / r)
    } else {
        (radial.1 / r, -radial.0 / r)
    };
    // Orient the tangent so it points from the POCA towards the first hit.
    let to_first = (h0.x - poca.0, h0.y - poca.1);
    if tangent.0 * to_first.0 + tangent.1 * to_first.1 < 0.0 {
        tangent = (-tangent.0, -tangent.1);
    }
    let phi = tangent.1.atan2(tangent.0);

    let pt = 0.3 * field_tesla * r / 1000.0;

    // Longitudinal fit: z linear in arc length from the POCA.
    let angle_of = |x: f64, y: f64| (y - cy).atan2(x - cx);
    let a_poca = angle_of(poca.0, poca.1);
    let mut sum_s = 0.0;
    let mut sum_z = 0.0;
    let mut sum_ss = 0.0;
    let mut sum_sz = 0.0;
    let n = hits.len() as f64;
    for h in hits {
        let mut da = angle_of(h.x, h.y) - a_poca;
        while da > std::f64::consts::PI {
            da -= 2.0 * std::f64::consts::PI;
        }
        while da < -std::f64::consts::PI {
            da += 2.0 * std::f64::consts::PI;
        }
        let s = da.abs() * r;
        sum_s += s;
        sum_z += h.z;
        sum_ss += s * s;
        sum_sz += s * h.z;
    }
    let denom = n * sum_ss - sum_s * sum_s;
    let (cot_theta, z0) = if denom.abs() < 1e-9 {
        (0.0, sum_z / n)
    } else {
        let slope = (n * sum_sz - sum_s * sum_z) / denom;
        (slope, (sum_z - slope * sum_s) / n)
    };
    let eta = cot_theta.asinh();

    let first_hit_radius = hits
        .iter()
        .map(|h| (h.x * h.x + h.y * h.y).sqrt())
        .fold(f64::INFINITY, f64::min);

    Some(Track {
        pt,
        eta,
        phi,
        charge,
        d0,
        z0,
        n_hits: hits.len().min(255) as u8,
        first_hit_radius,
        circle_cx: cx,
        circle_cy: cy,
        circle_r: r,
        cot_theta,
    })
}

/// Kåsa least-squares circle fit: solves the linear system for
/// `x² + y² + D·x + E·y + F = 0`.
fn kasa_circle(hits: &[TrackerHit]) -> Option<(f64, f64, f64)> {
    let n = hits.len() as f64;
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut sxz, mut syz, mut sz) = (0.0, 0.0, 0.0);
    for h in hits {
        let z = h.x * h.x + h.y * h.y;
        sx += h.x;
        sy += h.y;
        sxx += h.x * h.x;
        syy += h.y * h.y;
        sxy += h.x * h.y;
        sxz += h.x * z;
        syz += h.y * z;
        sz += z;
    }
    // Normal equations for (D, E, F).
    // | sxx sxy sx | |D|   |-sxz|
    // | sxy syy sy | |E| = |-syz|
    // | sx  sy  n  | |F|   |-sz |
    let a = [[sxx, sxy, sx], [sxy, syy, sy], [sx, sy, n]];
    let b = [-sxz, -syz, -sz];
    let sol = solve3(a, b)?;
    let (d, e, f) = (sol[0], sol[1], sol[2]);
    let cx = -d / 2.0;
    let cy = -e / 2.0;
    let r2 = cx * cx + cy * cy - f;
    if r2 <= 0.0 {
        return None;
    }
    Some((cx, cy, r2.sqrt()))
}

/// Solve a 3×3 linear system by Gaussian elimination with partial
/// pivoting. Returns `None` for singular systems (collinear hits).
#[allow(clippy::needless_range_loop)] // index form mirrors the matrix algebra
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        // Pivot.
        let mut pivot = col;
        for row in (col + 1)..3 {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate.
        for row in (col + 1)..3 {
            let k = a[row][col] / a[col][col];
            for c in col..3 {
                a[row][c] -= k * a[col][c];
            }
            b[row] -= k * b[col];
        }
    }
    let mut x = [0.0; 3];
    for row in (0..3).rev() {
        let mut acc = b[row];
        for c in (row + 1)..3 {
            acc -= a[row][c] * x[c];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

/// Group raw hits by stub and fit each group, stubs in ascending order
/// and each stub's hits in readout order (a stable sort by stub). The
/// simulation writes hits already grouped that way, and those are fitted
/// in place; any other order is sorted into a copy first.
pub fn fit_all(hits: &[TrackerHit], field_tesla: f64) -> Vec<Track> {
    let by_stub: Cow<'_, [TrackerHit]> = if hits.is_sorted_by_key(|h| h.stub) {
        Cow::Borrowed(hits)
    } else {
        let mut sorted = hits.to_vec();
        sorted.sort_by_key(|h| h.stub);
        Cow::Owned(sorted)
    };
    let mut tracks: Vec<Track> = by_stub
        .chunk_by(|a, b| a.stub == b.stub)
        .filter_map(|hs| fit_track(hs, field_tesla))
        .filter(|t| t.pt.is_finite() && t.pt > 0.05 && t.pt < 5000.0)
        .collect();
    tracks.sort_by(|a, b| b.pt.total_cmp(&a.pt));
    tracks
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use daspos_conditions::{ConditionsStore, DbSource, IovKey, Payload, RunRange};
    use daspos_detsim::{DetectorSimulation, Experiment};
    use daspos_gen::{EventGenerator, GeneratorConfig};
    use daspos_hep::event::ProcessKind;
    use daspos_hep::SeedSequence;

    fn nominal_conditions() -> Arc<ConditionsStore> {
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
        s
    }

    /// Hits on a perfect circle for controlled fits.
    fn circle_hits(cx: f64, cy: f64, r: f64, angles: &[f64], cot: f64) -> Vec<TrackerHit> {
        angles
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let x = cx + r * a.cos();
                let y = cy + r * a.sin();
                // Arc length from the first angle.
                let s = (a - angles[0]).abs() * r;
                TrackerHit {
                    layer: i as u8,
                    x,
                    y,
                    z: cot * s,
                    stub: 0,
                }
            })
            .collect()
    }

    #[test]
    fn exact_circle_is_recovered() {
        // A circle through the origin: centre at (0, R).
        let r = 5000.0;
        let hits = circle_hits(0.0, r, r, &[-1.5, -1.45, -1.4, -1.35, -1.3], 0.5);
        let t = fit_track(&hits, 2.0).expect("fit");
        assert!((t.circle_r - r).abs() < 1.0, "R = {}", t.circle_r);
        assert!(t.d0.abs() < 1e-6, "d0 = {}", t.d0);
        let expected_pt = 0.3 * 2.0 * r / 1000.0;
        assert!((t.pt - expected_pt).abs() < 0.01, "pt = {}", t.pt);
        assert!((t.cot_theta - 0.5).abs() < 1e-6);
    }

    #[test]
    fn collinear_hits_fail_gracefully() {
        let hits: Vec<TrackerHit> = (0..5)
            .map(|i| TrackerHit {
                layer: i,
                x: f64::from(i) * 10.0,
                y: 0.0,
                z: 0.0,
                stub: 0,
            })
            .collect();
        assert!(fit_track(&hits, 2.0).is_none());
    }

    #[test]
    fn too_few_hits_rejected() {
        let hits = circle_hits(0.0, 100.0, 100.0, &[-1.5, -1.3], 0.0);
        assert!(fit_track(&hits, 2.0).is_none());
    }

    #[test]
    fn full_chain_pt_resolution_is_percent_level() {
        // Generate Z→ll, simulate in the CMS-like detector, refit, and
        // compare the fitted lepton pT with truth.
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 21));
        let sim = DetectorSimulation::new(
            Experiment::Cms.detector(),
            Arc::new(DbSource::connect(nominal_conditions(), "mc")),
            SeedSequence::new(21),
        );
        let field = Experiment::Cms.detector().field_tesla;
        let mut rel = daspos_hep::stats::RunningStats::new();
        for i in 0..120 {
            let truth = gen.event(i);
            let raw = sim.simulate(&truth, i).unwrap();
            let tracks = fit_all(&raw.tracker_hits, field);
            // Match each truth lepton to the nearest fitted track.
            for p in truth.final_state().filter(|p| p.pdg.is_charged_lepton()) {
                let (teta, tphi, tpt) = (p.momentum.eta(), p.momentum.phi(), p.momentum.pt());
                if let Some(best) = tracks.iter().min_by(|a, b| {
                    let da = (a.eta - teta).hypot(daspos_hep::fourvec::delta_phi(a.phi, tphi));
                    let db = (b.eta - teta).hypot(daspos_hep::fourvec::delta_phi(b.phi, tphi));
                    da.total_cmp(&db)
                }) {
                    let dr = (best.eta - teta)
                        .hypot(daspos_hep::fourvec::delta_phi(best.phi, tphi));
                    if dr < 0.05 {
                        rel.push((best.pt - tpt) / tpt);
                    }
                }
            }
        }
        assert!(rel.count() > 100, "matched only {}", rel.count());
        assert!(rel.mean().abs() < 0.02, "pT bias {}", rel.mean());
        assert!(rel.std_dev() < 0.10, "pT resolution {}", rel.std_dev());
    }

    #[test]
    fn charge_assignment_matches_truth() {
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::ZBoson, 33));
        let sim = DetectorSimulation::new(
            Experiment::Atlas.detector(),
            Arc::new(DbSource::connect(nominal_conditions(), "mc")),
            SeedSequence::new(33),
        );
        let field = Experiment::Atlas.detector().field_tesla;
        let mut correct = 0u32;
        let mut total = 0u32;
        for i in 0..100 {
            let truth = gen.event(i);
            let raw = sim.simulate(&truth, i).unwrap();
            let tracks = fit_all(&raw.tracker_hits, field);
            for p in truth.final_state().filter(|p| p.pdg.is_charged_lepton()) {
                let (teta, tphi) = (p.momentum.eta(), p.momentum.phi());
                if let Some(best) = tracks.iter().min_by(|a, b| {
                    let da = (a.eta - teta).hypot(daspos_hep::fourvec::delta_phi(a.phi, tphi));
                    let db = (b.eta - teta).hypot(daspos_hep::fourvec::delta_phi(b.phi, tphi));
                    da.total_cmp(&db)
                }) {
                    let dr = (best.eta - teta)
                        .hypot(daspos_hep::fourvec::delta_phi(best.phi, tphi));
                    if dr < 0.05 {
                        total += 1;
                        let truth_sign = p.pdg.charge().unwrap().0.signum();
                        if best.charge == truth_sign {
                            correct += 1;
                        }
                    }
                }
            }
        }
        assert!(total > 80);
        assert!(
            f64::from(correct) / f64::from(total) > 0.9,
            "charge purity {correct}/{total}"
        );
    }

    #[test]
    fn displaced_tracks_have_large_d0() {
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::Strange, 55));
        let sim = DetectorSimulation::new(
            Experiment::Alice.detector(),
            Arc::new(DbSource::connect(nominal_conditions(), "mc")),
            SeedSequence::new(55),
        );
        let field = Experiment::Alice.detector().field_tesla;
        let mut displaced = 0;
        for i in 0..150 {
            let truth = gen.event(i);
            let raw = sim.simulate(&truth, i).unwrap();
            for t in fit_all(&raw.tracker_hits, field) {
                if t.d0.abs() > 1.0 {
                    displaced += 1;
                }
            }
        }
        assert!(displaced > 20, "found {displaced} displaced tracks");
    }

    #[test]
    fn fit_all_sorts_descending_pt() {
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::QcdDijet, 3));
        let sim = DetectorSimulation::new(
            Experiment::Cms.detector(),
            Arc::new(DbSource::connect(nominal_conditions(), "mc")),
            SeedSequence::new(3),
        );
        let raw = sim.simulate(&gen.event(0), 0).unwrap();
        let tracks = fit_all(&raw.tracker_hits, 3.8);
        for w in tracks.windows(2) {
            assert!(w[0].pt >= w[1].pt);
        }
    }

    #[test]
    fn fit_all_regroups_hits_out_of_stub_order() {
        let gen = EventGenerator::new(GeneratorConfig::new(ProcessKind::QcdDijet, 3));
        let sim = DetectorSimulation::new(
            Experiment::Cms.detector(),
            Arc::new(DbSource::connect(nominal_conditions(), "mc")),
            SeedSequence::new(3),
        );
        let raw = sim.simulate(&gen.event(0), 0).unwrap();
        assert!(raw.tracker_hits.is_sorted_by_key(|h| h.stub));
        // Stubs in reverse order, each stub's hits still in readout order.
        let reversed: Vec<TrackerHit> = raw
            .tracker_hits
            .chunk_by(|a, b| a.stub == b.stub)
            .rev()
            .flatten()
            .copied()
            .collect();
        assert!(raw.stub_count() >= 2 && !reversed.is_sorted_by_key(|h| h.stub));
        assert_eq!(fit_all(&reversed, 3.8), fit_all(&raw.tracker_hits, 3.8));
    }
}
