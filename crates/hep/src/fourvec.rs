//! Relativistic four-vector algebra.
//!
//! [`FourVector`] is the workhorse of every kinematic computation in the
//! toolkit: generator-level momenta, reconstructed candidate momenta, and
//! the derived observables (pT, η, φ, invariant masses) that analyses cut
//! on. It is a `Copy` type of four `f64`s so that per-event work allocates
//! nothing.

use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use crate::error::HepError;

/// A four-momentum (px, py, pz, E) in GeV with the metric (+,−,−,−).
///
/// The same type doubles as a four-position (x, y, z, ct) where needed;
/// the algebra is identical.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FourVector {
    /// x-component of the momentum (GeV).
    pub px: f64,
    /// y-component of the momentum (GeV).
    pub py: f64,
    /// z-component of the momentum (GeV) — along the beam axis.
    pub pz: f64,
    /// Energy (GeV).
    pub e: f64,
}

impl FourVector {
    /// The zero vector.
    pub const ZERO: FourVector = FourVector {
        px: 0.0,
        py: 0.0,
        pz: 0.0,
        e: 0.0,
    };

    /// Construct from Cartesian components.
    #[inline]
    pub fn new(px: f64, py: f64, pz: f64, e: f64) -> Self {
        FourVector { px, py, pz, e }
    }

    /// Construct from transverse momentum, pseudorapidity, azimuth and mass:
    /// the coordinates in which detector acceptance is naturally expressed.
    pub fn from_pt_eta_phi_m(pt: f64, eta: f64, phi: f64, m: f64) -> Self {
        let px = pt * phi.cos();
        let py = pt * phi.sin();
        let pz = pt * eta.sinh();
        let p2 = px * px + py * py + pz * pz;
        let e = (p2 + m * m).sqrt();
        FourVector { px, py, pz, e }
    }

    /// Construct from transverse momentum, pseudorapidity, azimuth and
    /// energy (used when the energy is measured directly, e.g. in a
    /// calorimeter).
    pub fn from_pt_eta_phi_e(pt: f64, eta: f64, phi: f64, e: f64) -> Self {
        FourVector {
            px: pt * phi.cos(),
            py: pt * phi.sin(),
            pz: pt * eta.sinh(),
            e,
        }
    }

    /// Construct a massive particle at rest.
    #[inline]
    pub fn at_rest(mass: f64) -> Self {
        FourVector::new(0.0, 0.0, 0.0, mass)
    }

    /// Magnitude of the three-momentum (GeV).
    #[inline]
    pub fn p(&self) -> f64 {
        (self.px * self.px + self.py * self.py + self.pz * self.pz).sqrt()
    }

    /// Transverse momentum pT (GeV).
    #[inline]
    pub fn pt(&self) -> f64 {
        (self.px * self.px + self.py * self.py).sqrt()
    }

    /// Transverse energy ET = E·sinθ.
    #[inline]
    pub fn et(&self) -> f64 {
        let p = self.p();
        if p == 0.0 {
            0.0
        } else {
            self.e * self.pt() / p
        }
    }

    /// Azimuthal angle φ ∈ (−π, π].
    #[inline]
    pub fn phi(&self) -> f64 {
        if self.px == 0.0 && self.py == 0.0 {
            0.0
        } else {
            self.py.atan2(self.px)
        }
    }

    /// Pseudorapidity η = −ln tan(θ/2). Returns ±∞ along the beam axis.
    #[inline]
    pub fn eta(&self) -> f64 {
        let pt = self.pt();
        if pt == 0.0 {
            if self.pz > 0.0 {
                f64::INFINITY
            } else if self.pz < 0.0 {
                f64::NEG_INFINITY
            } else {
                0.0
            }
        } else {
            (self.pz / pt).asinh()
        }
    }

    /// True rapidity y = ½ ln((E+pz)/(E−pz)).
    #[inline]
    pub fn rapidity(&self) -> f64 {
        0.5 * ((self.e + self.pz) / (self.e - self.pz)).ln()
    }

    /// Invariant mass squared m² = E² − |p|² (may be negative for
    /// spacelike vectors produced by resolution smearing).
    #[inline]
    pub fn m2(&self) -> f64 {
        self.e * self.e
            - self.px * self.px
            - self.py * self.py
            - self.pz * self.pz
    }

    /// Invariant mass, clamped to zero for slightly spacelike vectors.
    #[inline]
    pub fn mass(&self) -> f64 {
        self.m2().max(0.0).sqrt()
    }

    /// Lorentz factor γ = E/m. Errors for non-timelike vectors.
    pub fn gamma(&self) -> Result<f64, HepError> {
        let m2 = self.m2();
        if m2 <= 0.0 {
            Err(HepError::NotTimelike { m2 })
        } else {
            Ok(self.e / m2.sqrt())
        }
    }

    /// Angular separation ΔR = √(Δη² + Δφ²), the standard cone metric for
    /// jet clustering and isolation.
    pub fn delta_r(&self, other: &FourVector) -> f64 {
        let deta = self.eta() - other.eta();
        let dphi = delta_phi(self.phi(), other.phi());
        (deta * deta + dphi * dphi).sqrt()
    }

    /// Boost this vector by velocity (bx, by, bz) (in units of c).
    ///
    /// Returns an error when |β| ≥ 1.
    pub fn boosted(&self, bx: f64, by: f64, bz: f64) -> Result<FourVector, HepError> {
        let b2 = bx * bx + by * by + bz * bz;
        if b2 >= 1.0 {
            return Err(HepError::InvalidParameter {
                name: "beta2",
                value: b2,
            });
        }
        if b2 == 0.0 {
            return Ok(*self);
        }
        let gamma = 1.0 / (1.0 - b2).sqrt();
        let bp = bx * self.px + by * self.py + bz * self.pz;
        let gamma2 = (gamma - 1.0) / b2;
        Ok(FourVector {
            px: self.px + gamma2 * bp * bx + gamma * bx * self.e,
            py: self.py + gamma2 * bp * by + gamma * by * self.e,
            pz: self.pz + gamma2 * bp * bz + gamma * bz * self.e,
            e: gamma * (self.e + bp),
        })
    }

    /// Boost `self` (defined in the rest frame of `frame`) into the lab
    /// frame where `frame` has its given momentum.
    pub fn boosted_from_rest_frame_of(&self, frame: &FourVector) -> Result<FourVector, HepError> {
        let m2 = frame.m2();
        if m2 <= 0.0 {
            return Err(HepError::NotTimelike { m2 });
        }
        self.boosted(frame.px / frame.e, frame.py / frame.e, frame.pz / frame.e)
    }

    /// Scale the three-momentum (and energy for a massless treatment) by
    /// `k`, used by calibration corrections.
    #[inline]
    pub fn scaled(&self, k: f64) -> FourVector {
        FourVector {
            px: self.px * k,
            py: self.py * k,
            pz: self.pz * k,
            e: self.e * k,
        }
    }

    /// True when every component is finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.px.is_finite() && self.py.is_finite() && self.pz.is_finite() && self.e.is_finite()
    }
}

/// Signed azimuthal difference wrapped to (−π, π].
#[inline]
pub fn delta_phi(phi1: f64, phi2: f64) -> f64 {
    let mut d = phi1 - phi2;
    while d > std::f64::consts::PI {
        d -= 2.0 * std::f64::consts::PI;
    }
    while d <= -std::f64::consts::PI {
        d += 2.0 * std::f64::consts::PI;
    }
    d
}

/// Invariant mass of a collection of four-vectors.
pub fn invariant_mass<'a, I>(vectors: I) -> f64
where
    I: IntoIterator<Item = &'a FourVector>,
{
    let total: FourVector = vectors.into_iter().copied().fold(FourVector::ZERO, |a, b| a + b);
    total.mass()
}

impl Add for FourVector {
    type Output = FourVector;
    #[inline]
    fn add(self, rhs: FourVector) -> FourVector {
        FourVector {
            px: self.px + rhs.px,
            py: self.py + rhs.py,
            pz: self.pz + rhs.pz,
            e: self.e + rhs.e,
        }
    }
}

impl AddAssign for FourVector {
    #[inline]
    fn add_assign(&mut self, rhs: FourVector) {
        self.px += rhs.px;
        self.py += rhs.py;
        self.pz += rhs.pz;
        self.e += rhs.e;
    }
}

impl Sub for FourVector {
    type Output = FourVector;
    #[inline]
    fn sub(self, rhs: FourVector) -> FourVector {
        FourVector {
            px: self.px - rhs.px,
            py: self.py - rhs.py,
            pz: self.pz - rhs.pz,
            e: self.e - rhs.e,
        }
    }
}

impl SubAssign for FourVector {
    #[inline]
    fn sub_assign(&mut self, rhs: FourVector) {
        self.px -= rhs.px;
        self.py -= rhs.py;
        self.pz -= rhs.pz;
        self.e -= rhs.e;
    }
}

impl Neg for FourVector {
    type Output = FourVector;
    #[inline]
    fn neg(self) -> FourVector {
        FourVector {
            px: -self.px,
            py: -self.py,
            pz: -self.pz,
            e: -self.e,
        }
    }
}

impl Mul<f64> for FourVector {
    type Output = FourVector;
    #[inline]
    fn mul(self, k: f64) -> FourVector {
        self.scaled(k)
    }
}

impl std::iter::Sum for FourVector {
    fn sum<I: Iterator<Item = FourVector>>(iter: I) -> FourVector {
        iter.fold(FourVector::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn pt_eta_phi_round_trip() {
        let v = FourVector::from_pt_eta_phi_m(25.0, 1.2, 0.7, 0.105);
        assert!((v.pt() - 25.0).abs() < EPS);
        assert!((v.eta() - 1.2).abs() < EPS);
        assert!((v.phi() - 0.7).abs() < EPS);
        assert!((v.mass() - 0.105).abs() < 1e-6);
    }

    #[test]
    fn mass_of_z_to_mumu() {
        // Back-to-back muons from a Z at rest reconstruct the Z mass.
        let m_z = 91.1876;
        let p = (m_z * m_z / 4.0 - 0.105_f64 * 0.105).sqrt();
        let mu1 = FourVector::new(p, 0.0, 0.0, m_z / 2.0);
        let mu2 = FourVector::new(-p, 0.0, 0.0, m_z / 2.0);
        assert!((invariant_mass([&mu1, &mu2]) - m_z).abs() < 1e-6);
    }

    #[test]
    fn boost_to_rest_frame_gives_mass_energy() {
        let v = FourVector::from_pt_eta_phi_m(40.0, -0.8, 2.1, 91.2);
        let rest = v.boosted(-v.px / v.e, -v.py / v.e, -v.pz / v.e).unwrap();
        assert!(rest.p() < 1e-6, "residual momentum {}", rest.p());
        assert!((rest.e - 91.2).abs() < 1e-6);
    }

    #[test]
    fn boost_round_trip_identity() {
        let frame = FourVector::from_pt_eta_phi_m(30.0, 0.5, -1.0, 91.2);
        let v = FourVector::from_pt_eta_phi_m(12.0, -1.5, 0.3, 0.0);
        let there = v
            .boosted(-frame.px / frame.e, -frame.py / frame.e, -frame.pz / frame.e)
            .unwrap();
        let back = there.boosted_from_rest_frame_of(&frame).unwrap();
        assert!((back.px - v.px).abs() < 1e-9);
        assert!((back.py - v.py).abs() < 1e-9);
        assert!((back.pz - v.pz).abs() < 1e-9);
        assert!((back.e - v.e).abs() < 1e-9);
    }

    #[test]
    fn boost_preserves_invariant_mass() {
        let v = FourVector::from_pt_eta_phi_m(15.0, 0.2, 1.0, 1.865);
        let b = v.boosted(0.3, -0.2, 0.5).unwrap();
        assert!((b.mass() - v.mass()).abs() < 1e-9);
    }

    #[test]
    fn superluminal_boost_is_rejected() {
        let v = FourVector::at_rest(1.0);
        assert!(matches!(
            v.boosted(0.8, 0.8, 0.0),
            Err(HepError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn delta_phi_wraps() {
        assert!((delta_phi(3.0, -3.0) - (6.0 - 2.0 * std::f64::consts::PI)).abs() < EPS);
        assert!(delta_phi(0.1, 0.2) < 0.0);
        let d = delta_phi(-3.1, 3.1);
        assert!(d.abs() < 0.1 + 1e-9, "wrapped difference {d}");
    }

    #[test]
    fn delta_r_of_identical_is_zero() {
        let v = FourVector::from_pt_eta_phi_m(10.0, 0.4, -0.9, 0.0);
        assert_eq!(v.delta_r(&v), 0.0);
    }

    #[test]
    fn eta_along_beam_is_infinite() {
        let v = FourVector::new(0.0, 0.0, 10.0, 10.0);
        assert!(v.eta().is_infinite() && v.eta() > 0.0);
        let w = FourVector::new(0.0, 0.0, -10.0, 10.0);
        assert!(w.eta().is_infinite() && w.eta() < 0.0);
    }

    #[test]
    fn rapidity_equals_eta_for_massless() {
        let v = FourVector::from_pt_eta_phi_m(20.0, 1.7, 0.0, 0.0);
        assert!((v.rapidity() - v.eta()).abs() < 1e-9);
    }

    #[test]
    fn gamma_rejects_massless() {
        let v = FourVector::from_pt_eta_phi_m(20.0, 0.0, 0.0, 0.0);
        assert!(matches!(v.gamma(), Err(HepError::NotTimelike { .. })));
    }

    #[test]
    fn arithmetic_identities() {
        let a = FourVector::new(1.0, 2.0, 3.0, 4.0);
        let b = FourVector::new(-0.5, 1.0, 0.0, 2.0);
        assert_eq!(a + b - b, a);
        assert_eq!(-(-a), a);
        assert_eq!(a * 2.0, a + a);
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn sum_iterator() {
        let parts = [
            FourVector::new(1.0, 0.0, 0.0, 2.0),
            FourVector::new(0.0, 1.0, 0.0, 2.0),
        ];
        let total: FourVector = parts.iter().copied().sum();
        assert_eq!(total, FourVector::new(1.0, 1.0, 0.0, 4.0));
    }

    #[test]
    fn et_of_central_particle_equals_e() {
        // At eta = 0 the particle is fully transverse: ET = E.
        let v = FourVector::from_pt_eta_phi_e(30.0, 0.0, 1.0, 30.0);
        assert!((v.et() - v.e).abs() < 1e-9);
    }
}
