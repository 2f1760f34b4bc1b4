//! Bitwise oracle for the two-phase tracker.
//!
//! `reference_trace_track` is the layer-by-layer loop that
//! [`DetectorSimulation::trace_track`] replaced: each layer's fixed-point
//! intersection is solved and its random draws made before the next
//! layer starts. The production tracker solves the layers of a block in
//! lockstep and draws afterwards, so the tests below demand equality of
//! every hit on `f64::to_bits`, and of the generator's next draw after the
//! call, not agreement within a tolerance.

use std::f64::consts::PI;
use std::sync::Arc;

use daspos_conditions::{ConditionsStore, DbSource};
use daspos_hep::fourvec::FourVector;
use daspos_hep::particle::{PdgId, TruthParticle};
use daspos_hep::seq::SeedSequence;
use daspos_hep::stats;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::config::{DetectorConfig, Experiment};
use crate::raw::TrackerHit;
use crate::simulate::DetectorSimulation;

/// How the reference's per-layer solves ended, summed over calls.
#[derive(Debug, Default, Clone, Copy)]
struct Exits {
    /// Layers inside the production point, skipped unsolved.
    born_outside: u32,
    converged: u32,
    curler: u32,
    exhausted: u32,
    /// Solves that kept a point more than 0.5 mm off the layer.
    off_layer: u32,
    /// Hits that kept the point of an exhausted solve.
    exhausted_hits: u32,
}

/// The tracker loop before the two-phase split, with `exits` tallying
/// how each layer's solve ended.
#[allow(clippy::too_many_arguments)] // the replaced signature, plus the tally
fn reference_trace_track(
    config: &DetectorConfig,
    rng: &mut StdRng,
    mom: &FourVector,
    origin: &FourVector,
    charge_thirds: i8,
    stub: u32,
    align: f64,
    exits: &mut Exits,
) -> Vec<TrackerHit> {
    let mut hits = Vec::new();
    let pt = mom.pt();
    if pt <= 0.0 {
        return hits;
    }
    let (ox, oy, oz) = if origin.px.is_finite() {
        (origin.px, origin.py, origin.pz)
    } else {
        (0.0, 0.0, 0.0)
    };
    let q = f64::from(charge_thirds.signum());
    let r_curv = pt / (0.3 * config.field_tesla.max(1e-6)) * 1000.0;
    let phi0 = mom.phi();
    let cx = ox - q * r_curv * phi0.sin();
    let cy = oy + q * r_curv * phi0.cos();
    let cot_theta = mom.pz / pt;
    let sigma = config.tracker.hit_resolution_mm;

    for (i, &r_layer) in config.tracker.layer_radii_mm.iter().enumerate() {
        let r0 = (ox * ox + oy * oy).sqrt();
        if r_layer <= r0 {
            exits.born_outside += 1;
            continue;
        }
        let mut s = r_layer - r0;
        let mut point = None;
        let mut exhausted = true;
        for _ in 0..12 {
            let alpha = q * s / r_curv;
            let x = cx + q * r_curv * (phi0 + alpha).sin();
            let y = cy - q * r_curv * (phi0 + alpha).cos();
            let rho = (x * x + y * y).sqrt();
            if (rho - r_layer).abs() < 1e-6 {
                point = Some((x, y));
                exits.converged += 1;
                exhausted = false;
                break;
            }
            s += r_layer - rho;
            if s <= 0.0 || s > 4.0 * r_curv {
                exits.curler += 1;
                exhausted = false;
                break;
            }
            point = Some((x, y));
        }
        if exhausted {
            exits.exhausted += 1;
        }
        let Some((x, y)) = point else { continue };
        let rho = (x * x + y * y).sqrt();
        if (rho - r_layer).abs() > 0.5 {
            exits.off_layer += 1;
            continue;
        }
        if !stats::accept(rng, config.tracker.hit_efficiency) {
            continue;
        }
        if exhausted {
            exits.exhausted_hits += 1;
        }
        hits.push(TrackerHit {
            layer: i as u8,
            x: x * align + stats::standard_normal(rng) * sigma,
            y: y * align + stats::standard_normal(rng) * sigma,
            z: oz + cot_theta * s + stats::standard_normal(rng) * sigma,
            stub,
        });
    }
    hits
}

/// One charged track to trace.
#[derive(Debug, Clone)]
struct Case {
    pt: f64,
    phi: f64,
    pz: f64,
    origin: FourVector,
    charge_thirds: i8,
    stub: u32,
    align: f64,
    seed: u64,
}

fn hit_bits(h: &TrackerHit) -> (u8, u64, u64, u64, u32) {
    (h.layer, h.x.to_bits(), h.y.to_bits(), h.z.to_bits(), h.stub)
}

/// The four detectors, and a synthetic tracker of 19 unsorted layers
/// (more than one lockstep block) in a 4 T field.
fn geometries() -> Vec<DetectorConfig> {
    let mut synthetic = Experiment::Atlas.detector();
    synthetic.field_tesla = 4.0;
    synthetic.tracker.layer_radii_mm = vec![
        12.0, 25.0, 31.5, 47.0, 60.0, 88.0, 120.0, 150.0, 40.0, 210.0, 260.0, 330.0, 390.0,
        455.0, 520.0, 600.0, 700.0, 850.0, 1000.0,
    ];
    let mut all: Vec<DetectorConfig> = Experiment::all().iter().map(|e| e.detector()).collect();
    all.push(synthetic);
    all
}

fn simulation(config: DetectorConfig) -> DetectorSimulation {
    let store = Arc::new(ConditionsStore::new());
    store.create_tag("mc").unwrap();
    DetectorSimulation::new(
        config,
        Arc::new(DbSource::connect(store, "mc")),
        SeedSequence::new(1),
    )
}

/// Trace `case` with the production tracker and the reference; both must
/// produce the same hits bit for bit and leave the generator in the same
/// state.
fn check(sim: &DetectorSimulation, case: &Case, exits: &mut Exits) -> Result<(), String> {
    let mom = FourVector::new(
        case.pt * case.phi.cos(),
        case.pt * case.phi.sin(),
        case.pz,
        (case.pt * case.pt + case.pz * case.pz).sqrt(),
    );
    let particle = TruthParticle::final_state(PdgId(211), mom).with_vertex(case.origin);
    let mut rng = StdRng::seed_from_u64(case.seed);
    let sentinel = TrackerHit {
        layer: 99,
        x: 1.0,
        y: 2.0,
        z: 3.0,
        stub: 7,
    };
    let mut hits = vec![sentinel];
    sim.trace_track(&mut rng, &particle, case.charge_thirds, case.stub, case.align, &mut hits);

    let mut ref_rng = StdRng::seed_from_u64(case.seed);
    let expected = reference_trace_track(
        sim.config(),
        &mut ref_rng,
        &mom,
        &case.origin,
        case.charge_thirds,
        case.stub,
        case.align,
        exits,
    );
    if hits[0] != sentinel {
        return Err(format!("{case:?}: hits already in the event were changed"));
    }
    let got: Vec<_> = hits[1..].iter().map(hit_bits).collect();
    let want: Vec<_> = expected.iter().map(hit_bits).collect();
    if got != want {
        return Err(format!("{case:?}: hits {got:?}, reference {want:?}"));
    }
    let (next, ref_next) = (rng.next_u64(), ref_rng.next_u64());
    if next != ref_next {
        return Err(format!("{case:?}: next draw {next:#x}, reference {ref_next:#x}"));
    }
    Ok(())
}

fn arb_origin() -> impl Strategy<Value = FourVector> {
    prop_oneof![
        Just(FourVector::ZERO),
        // A displaced vertex near the beam.
        (-3.0..3.0f64, -3.0..3.0f64, -50.0..50.0f64)
            .prop_map(|(x, y, z)| FourVector::new(x, y, z, 0.0)),
        // Born outside the inner layers.
        (10.0..700.0f64, -PI..PI, -300.0..300.0f64)
            .prop_map(|(r, a, z)| FourVector::new(r * a.cos(), r * a.sin(), z, 0.0)),
        // An unknown vertex is traced from the origin.
        Just(FourVector::new(f64::NAN, 1.0, 1.0, 0.0)),
        // A NaN y slips past that check; no layer is then skipped.
        Just(FourVector::new(0.5, f64::NAN, 1.0, 0.0)),
    ]
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (
            prop_oneof![
                Just(0.0),
                // Curlers and slow or exhausted solves.
                0.005..0.3f64,
                0.3..5.0f64,
                5.0..500.0f64,
            ],
            -PI..PI,
            -800.0..800.0f64,
        ),
        arb_origin(),
        prop_oneof![Just(-3i8), Just(3i8), Just(-1i8), Just(1i8)],
        (0u32..64, prop_oneof![Just(1.0), 0.98..1.02f64], any::<u64>()),
    )
        .prop_map(
            |((pt, phi, pz), origin, charge_thirds, (stub, align, seed))| Case {
                pt,
                phi,
                pz,
                origin,
                charge_thirds,
                stub,
                align,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn lockstep_tracker_matches_the_layer_loop_bit_for_bit(
        geometry in 0usize..5,
        case in arb_case(),
    ) {
        let sim = simulation(geometries().swap_remove(geometry));
        let outcome = check(&sim, &case, &mut Exits::default());
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// A fixed sweep over every geometry that reaches each way a layer's
/// solve can end, and hits kept from exhausted solves, so the proptest's
/// random draws are not what decides the coverage.
#[test]
fn oracle_sweep_reaches_every_exit() {
    let mut exits = Exits::default();
    let pts = [0.0, 0.01, 0.02, 0.04, 0.07, 0.1, 0.15, 0.25, 0.6, 2.0, 40.0];
    let origins = [
        FourVector::ZERO,
        FourVector::new(1.5, -0.7, 4.0, 0.0),
        FourVector::new(70.0, 140.0, -20.0, 0.0),
        FourVector::new(f64::NAN, 0.0, 0.0, 0.0),
    ];
    let mut seed = 0;
    for config in geometries() {
        let sim = simulation(config);
        for &pt in &pts {
            for &origin in &origins {
                for charge_thirds in [-3, 3] {
                    for k in 0..12 {
                        seed += 1;
                        let case = Case {
                            pt,
                            phi: -PI + f64::from(k) * PI / 6.0 + 0.1,
                            pz: f64::from(k - 6) * 25.0 * (pt + 0.1),
                            origin,
                            charge_thirds,
                            stub: k as u32,
                            align: 1.0,
                            seed,
                        };
                        check(&sim, &case, &mut exits).unwrap();
                    }
                }
            }
        }
    }
    assert!(exits.born_outside > 0, "{exits:?}");
    assert!(exits.converged > 0, "{exits:?}");
    assert!(exits.curler > 0, "{exits:?}");
    assert!(exits.exhausted > 0, "{exits:?}");
    assert!(exits.off_layer > 0, "{exits:?}");
    assert!(exits.exhausted_hits > 0, "{exits:?}");
}
