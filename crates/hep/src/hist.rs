//! Weighted histograms.
//!
//! Histograms are the universal currency of HEP results: RIVET analyses
//! fill them, HepData archives them as tables, outreach exercises plot
//! them, and the validation engine compares re-run output against the
//! preserved reference. [`Hist1D`]/[`Hist2D`] track sums of weights and of
//! squared weights per bin (the `sumw2` convention) so statistical errors
//! survive merging and scaling.

use crate::error::HepError;
use crate::stats::chi2_counts;

/// Uniform binning over `[lo, hi)` with explicit under/overflow.
#[derive(Debug, Clone, PartialEq)]
pub struct Binning {
    lo: f64,
    hi: f64,
    nbins: usize,
}

impl Binning {
    /// Construct a binning; errors on degenerate ranges or zero bins.
    pub fn new(nbins: usize, lo: f64, hi: f64) -> Result<Self, HepError> {
        if nbins == 0 {
            return Err(HepError::InvalidBinning {
                reason: "zero bins".to_string(),
            });
        }
        if !(lo.is_finite() && hi.is_finite()) || hi <= lo {
            return Err(HepError::InvalidBinning {
                reason: format!("invalid range [{lo}, {hi})"),
            });
        }
        Ok(Binning { lo, hi, nbins })
    }

    /// Number of regular bins (excluding under/overflow).
    #[inline]
    pub fn nbins(&self) -> usize {
        self.nbins
    }

    /// Lower edge of the histogrammed range.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the histogrammed range.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width of each regular bin.
    #[inline]
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.nbins as f64
    }

    /// Bin index for `x`: `None` for NaN, `Some(Slot)` otherwise.
    #[inline]
    pub fn locate(&self, x: f64) -> Option<Slot> {
        if x.is_nan() {
            return None;
        }
        if x < self.lo {
            Some(Slot::Underflow)
        } else if x >= self.hi {
            Some(Slot::Overflow)
        } else {
            let idx = ((x - self.lo) / self.width()) as usize;
            // Guard against floating rounding at the upper edge.
            Some(Slot::Bin(idx.min(self.nbins - 1)))
        }
    }

    /// Centre of regular bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.width()
    }
}

/// Where a fill landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Below the histogrammed range.
    Underflow,
    /// A regular bin.
    Bin(usize),
    /// At or above the upper edge.
    Overflow,
}

/// A one-dimensional weighted histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist1D {
    name: String,
    binning: Binning,
    sumw: Vec<f64>,
    sumw2: Vec<f64>,
    underflow: f64,
    overflow: f64,
    entries: u64,
}

impl Hist1D {
    /// A named histogram with `nbins` uniform bins over `[lo, hi)`.
    pub fn new(name: impl Into<String>, nbins: usize, lo: f64, hi: f64) -> Result<Self, HepError> {
        let binning = Binning::new(nbins, lo, hi)?;
        Ok(Hist1D {
            name: name.into(),
            sumw: vec![0.0; binning.nbins()],
            sumw2: vec![0.0; binning.nbins()],
            binning,
            underflow: 0.0,
            overflow: 0.0,
            entries: 0,
        })
    }

    /// The histogram's name (its path in YODA-like output).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The binning.
    pub fn binning(&self) -> &Binning {
        &self.binning
    }

    /// Fill with unit weight.
    pub fn fill(&mut self, x: f64) {
        self.fill_weighted(x, 1.0);
    }

    /// Fill with an explicit weight; NaN values are dropped silently
    /// (matching ROOT/YODA behaviour).
    pub fn fill_weighted(&mut self, x: f64, w: f64) {
        let Some(slot) = self.binning.locate(x) else {
            return;
        };
        self.entries += 1;
        match slot {
            Slot::Underflow => self.underflow += w,
            Slot::Overflow => self.overflow += w,
            Slot::Bin(i) => {
                self.sumw[i] += w;
                self.sumw2[i] += w * w;
            }
        }
    }

    /// Number of fill calls that landed anywhere (including flows).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Sum of weights in regular bin `i`.
    pub fn bin(&self, i: usize) -> f64 {
        self.sumw[i]
    }

    /// Statistical error (√sumw2) of regular bin `i`.
    pub fn bin_error(&self, i: usize) -> f64 {
        self.sumw2[i].sqrt()
    }

    /// Sum of weights below range.
    pub fn underflow(&self) -> f64 {
        self.underflow
    }

    /// Sum of weights at/above range.
    pub fn overflow(&self) -> f64 {
        self.overflow
    }

    /// Integral of the regular bins (flows excluded).
    pub fn integral(&self) -> f64 {
        self.sumw.iter().sum()
    }

    /// Integral including under/overflow.
    pub fn integral_with_flows(&self) -> f64 {
        self.integral() + self.underflow + self.overflow
    }

    /// The regular-bin contents as a slice.
    pub fn values(&self) -> &[f64] {
        &self.sumw
    }

    /// Weighted mean of bin centres — the histogram's estimate of the mean
    /// of the underlying variable.
    pub fn mean(&self) -> f64 {
        let total = self.integral();
        if total == 0.0 {
            return 0.0;
        }
        self.sumw
            .iter()
            .enumerate()
            .map(|(i, w)| w * self.binning.center(i))
            .sum::<f64>()
            / total
    }

    /// Index of the regular bin with the largest content.
    pub fn peak_bin(&self) -> usize {
        self.sumw
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Scale all contents (and errors coherently) by `k`.
    pub fn scale(&mut self, k: f64) {
        for w in &mut self.sumw {
            *w *= k;
        }
        for w2 in &mut self.sumw2 {
            *w2 *= k * k;
        }
        self.underflow *= k;
        self.overflow *= k;
    }

    /// Normalize the regular-bin integral to `target` (no-op on an empty
    /// histogram).
    pub fn normalize(&mut self, target: f64) {
        let total = self.integral();
        if total != 0.0 {
            self.scale(target / total);
        }
    }

    /// Merge another histogram filled with the same binning.
    pub fn merge(&mut self, other: &Hist1D) -> Result<(), HepError> {
        if self.binning != other.binning {
            return Err(HepError::BinningMismatch {
                left: self.binning.nbins(),
                right: other.binning.nbins(),
            });
        }
        for (a, b) in self.sumw.iter_mut().zip(&other.sumw) {
            *a += b;
        }
        for (a, b) in self.sumw2.iter_mut().zip(&other.sumw2) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.entries += other.entries;
        Ok(())
    }

    /// χ²/ndf compatibility against a reference histogram of identical
    /// binning. Small values (≲ a few) indicate statistical agreement.
    pub fn chi2_ndf(&self, reference: &Hist1D) -> Result<f64, HepError> {
        if self.binning != reference.binning {
            return Err(HepError::BinningMismatch {
                left: self.binning.nbins(),
                right: reference.binning.nbins(),
            });
        }
        let (chi2, ndf) = chi2_counts(&self.sumw, &reference.sumw)?;
        Ok(if ndf == 0 { 0.0 } else { chi2 / ndf as f64 })
    }

    /// Exact equality of contents — used by the validation engine to check
    /// bit-level reproducibility of a preserved analysis.
    pub fn identical_to(&self, other: &Hist1D) -> bool {
        self.binning == other.binning
            && self.sumw == other.sumw
            && self.underflow == other.underflow
            && self.overflow == other.overflow
    }
}

/// A two-dimensional weighted histogram (e.g. efficiency grids over mass
/// parameter spaces, as archived in HepData for SUSY searches).
#[derive(Debug, Clone, PartialEq)]
pub struct Hist2D {
    name: String,
    x: Binning,
    y: Binning,
    sumw: Vec<f64>,
    sumw2: Vec<f64>,
    outside: f64,
    entries: u64,
}

impl Hist2D {
    /// A named 2-D histogram with uniform binning on both axes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        nx: usize,
        xlo: f64,
        xhi: f64,
        ny: usize,
        ylo: f64,
        yhi: f64,
    ) -> Result<Self, HepError> {
        let x = Binning::new(nx, xlo, xhi)?;
        let y = Binning::new(ny, ylo, yhi)?;
        Ok(Hist2D {
            name: name.into(),
            sumw: vec![0.0; nx * ny],
            sumw2: vec![0.0; nx * ny],
            x,
            y,
            outside: 0.0,
            entries: 0,
        })
    }

    /// The histogram's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fill with unit weight.
    pub fn fill(&mut self, x: f64, y: f64) {
        self.fill_weighted(x, y, 1.0);
    }

    /// Fill with an explicit weight. Entries outside the grid accumulate
    /// in a single `outside` flow sum.
    pub fn fill_weighted(&mut self, x: f64, y: f64, w: f64) {
        let (Some(sx), Some(sy)) = (self.x.locate(x), self.y.locate(y)) else {
            return;
        };
        self.entries += 1;
        match (sx, sy) {
            (Slot::Bin(i), Slot::Bin(j)) => {
                let k = j * self.x.nbins() + i;
                self.sumw[k] += w;
                self.sumw2[k] += w * w;
            }
            _ => self.outside += w,
        }
    }

    /// Content of bin (i, j).
    pub fn bin(&self, i: usize, j: usize) -> f64 {
        self.sumw[j * self.x.nbins() + i]
    }

    /// Weight that fell outside the grid.
    pub fn outside(&self) -> f64 {
        self.outside
    }

    /// Number of fill calls.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Integral over the grid (flow excluded).
    pub fn integral(&self) -> f64 {
        self.sumw.iter().sum()
    }

    /// Merge another 2-D histogram of identical binning.
    pub fn merge(&mut self, other: &Hist2D) -> Result<(), HepError> {
        if self.x != other.x || self.y != other.y {
            return Err(HepError::BinningMismatch {
                left: self.sumw.len(),
                right: other.sumw.len(),
            });
        }
        for (a, b) in self.sumw.iter_mut().zip(&other.sumw) {
            *a += b;
        }
        for (a, b) in self.sumw2.iter_mut().zip(&other.sumw2) {
            *a += b;
        }
        self.outside += other.outside;
        self.entries += other.entries;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_rejects_bad_input() {
        assert!(Binning::new(0, 0.0, 1.0).is_err());
        assert!(Binning::new(10, 1.0, 1.0).is_err());
        assert!(Binning::new(10, 2.0, 1.0).is_err());
        assert!(Binning::new(10, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn locate_edges() {
        let b = Binning::new(10, 0.0, 10.0).unwrap();
        assert_eq!(b.locate(-0.1), Some(Slot::Underflow));
        assert_eq!(b.locate(0.0), Some(Slot::Bin(0)));
        assert_eq!(b.locate(9.999), Some(Slot::Bin(9)));
        assert_eq!(b.locate(10.0), Some(Slot::Overflow));
        assert_eq!(b.locate(f64::NAN), None);
    }

    #[test]
    fn centers_and_edges() {
        let b = Binning::new(4, 0.0, 2.0).unwrap();
        assert!((b.width() - 0.5).abs() < 1e-12);
        assert!((b.center(0) - 0.25).abs() < 1e-12);
        assert!((b.hi() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fill_and_flows() {
        let mut h = Hist1D::new("m", 10, 0.0, 100.0).unwrap();
        h.fill(50.0);
        h.fill(-1.0);
        h.fill(100.0);
        h.fill(f64::NAN);
        assert_eq!(h.entries(), 3);
        assert_eq!(h.integral(), 1.0);
        assert_eq!(h.underflow(), 1.0);
        assert_eq!(h.overflow(), 1.0);
        assert_eq!(h.integral_with_flows(), 3.0);
    }

    #[test]
    fn weighted_errors() {
        let mut h = Hist1D::new("w", 1, 0.0, 1.0).unwrap();
        h.fill_weighted(0.5, 2.0);
        h.fill_weighted(0.5, 2.0);
        assert_eq!(h.bin(0), 4.0);
        assert!((h.bin_error(0) - (8.0_f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn scale_and_normalize() {
        let mut h = Hist1D::new("n", 2, 0.0, 2.0).unwrap();
        h.fill(0.5);
        h.fill(0.5);
        h.fill(1.5);
        h.normalize(1.0);
        assert!((h.integral() - 1.0).abs() < 1e-12);
        assert!((h.bin(0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_associative_with_fills() {
        let mut all = Hist1D::new("a", 5, 0.0, 5.0).unwrap();
        let mut h1 = all.clone();
        let mut h2 = all.clone();
        for x in [0.5, 1.5, 2.5] {
            all.fill(x);
            h1.fill(x);
        }
        for x in [3.5, 4.5] {
            all.fill(x);
            h2.fill(x);
        }
        h1.merge(&h2).unwrap();
        assert!(h1.identical_to(&all));
        assert_eq!(h1.entries(), all.entries());
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = Hist1D::new("a", 5, 0.0, 5.0).unwrap();
        let b = Hist1D::new("b", 6, 0.0, 5.0).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn mean_of_symmetric_fill() {
        let mut h = Hist1D::new("sym", 100, -1.0, 1.0).unwrap();
        for i in 0..100 {
            h.fill(-0.99 + 0.02 * i as f64);
        }
        assert!(h.mean().abs() < 1e-9);
    }

    #[test]
    fn peak_bin_finds_mode() {
        let mut h = Hist1D::new("p", 10, 0.0, 10.0).unwrap();
        h.fill(3.5);
        h.fill(3.5);
        h.fill(7.5);
        assert_eq!(h.peak_bin(), 3);
    }

    #[test]
    fn chi2_of_identical_is_zero() {
        let mut a = Hist1D::new("a", 10, 0.0, 1.0).unwrap();
        for i in 0..100 {
            a.fill((i as f64 % 10.0) / 10.0);
        }
        let b = a.clone();
        assert_eq!(a.chi2_ndf(&b).unwrap(), 0.0);
    }

    #[test]
    fn hist2d_fill() {
        let mut h = Hist2D::new("grid", 4, 0.0, 4.0, 4, 0.0, 4.0).unwrap();
        h.fill(0.5, 0.5);
        h.fill(0.5, 3.5);
        h.fill(3.5, 0.5);
        h.fill(-1.0, 0.5); // outside
        assert_eq!(h.entries(), 4);
        assert_eq!(h.outside(), 1.0);
        assert_eq!(h.bin(0, 0), 1.0);
        assert_eq!(h.integral(), 3.0);
    }

    #[test]
    fn hist2d_merge() {
        let mut a = Hist2D::new("a", 2, 0.0, 2.0, 2, 0.0, 2.0).unwrap();
        let mut b = a.clone();
        a.fill(0.5, 0.5);
        b.fill(1.5, 1.5);
        a.merge(&b).unwrap();
        assert_eq!(a.integral(), 2.0);
        let c = Hist2D::new("c", 3, 0.0, 2.0, 2, 0.0, 2.0).unwrap();
        assert!(a.merge(&c).is_err());
    }
}
