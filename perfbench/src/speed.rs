//! Machine speed. On a shared VM the speed of CPU-bound code drifts by
//! tens of percent over seconds to minutes, more than the bounds in
//! `BENCHMARK.json` allow between two sets of runs of the same code. A
//! fixed reference kernel, timed beside every unit of work, measures
//! that speed, and each unit's time is then reported at the kernel's
//! reference speed.
//!
//! The kernel is an unstable sort of 8192 seeded integers: branchy,
//! cache-resident integer work. Not all work moves with it: in the
//! measurements README.md gives under "Machine speed", replay-chain time
//! moved in step with the kernel, archive passes by about the square
//! root of its factor, and the loopback service not in a way it could
//! predict. So each workload raises the kernel's factor to its own
//! measured sensitivity (1, ½, and 0 for no normalisation). The kernel
//! is the benchmark's own code, so no change to the measured crates can
//! move it.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Kernel time at the reference speed, in nanoseconds: its median on
/// the VM README.md describes. Only ratios to it matter.
pub const REFERENCE_NS: f64 = 112_000.0;
/// Ticks on each side of a unit whose median gives that unit's speed.
pub const HALF_WINDOW: usize = 32;
const KEYS: usize = 8192;

/// Kernel timings of one run, in the order they were taken.
#[derive(Debug, Clone)]
pub struct Gauge {
    /// The power the kernel's speed factor is raised to.
    sensitivity: f64,
    keys: Vec<u64>,
    scratch: Vec<u64>,
    ns: Vec<f64>,
}

impl Gauge {
    pub fn new(sensitivity: f64) -> Gauge {
        let mut rng = crate::Rng::new(0x5eed);
        Gauge {
            sensitivity,
            keys: (0..KEYS).map(|_| rng.next_u64()).collect(),
            scratch: Vec::with_capacity(KEYS),
            ns: Vec::new(),
        }
    }

    /// A gauge that read `ns` (for tests).
    pub fn from_ns(sensitivity: f64, ns: Vec<f64>) -> Gauge {
        Gauge {
            ns,
            ..Gauge::new(sensitivity)
        }
    }

    /// Time the kernel once. An untimed run first brings its data back
    /// into cache, so that the reading does not depend on how much
    /// memory the work before it touched.
    pub fn tick(&mut self) {
        self.kernel();
        let started = Instant::now();
        self.kernel();
        self.ns.push(started.elapsed().as_nanos() as f64);
    }

    fn kernel(&mut self) {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.keys);
        self.scratch.sort_unstable();
        black_box(&self.scratch);
    }

    /// Reserve room for `n` more ticks.
    pub fn reserve(&mut self, n: usize) {
        self.ns.reserve(n);
    }

    /// Time the kernel `n` times.
    pub fn ticks(&mut self, n: usize) {
        for _ in 0..n {
            self.tick();
        }
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// The factor that takes a time measured beside tick `i` to the
    /// reference speed: the reference over the median of the ticks
    /// within [`HALF_WINDOW`] of `i`, to the power of the sensitivity.
    pub fn scale(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(HALF_WINDOW);
        let hi = (i + HALF_WINDOW + 1).min(self.ns.len());
        self.factor(&self.ns[lo..hi])
    }

    /// The factor over every tick of the gauge.
    pub fn overall(&self) -> f64 {
        self.factor(&self.ns)
    }

    fn factor(&self, ns: &[f64]) -> f64 {
        (REFERENCE_NS / stats::median(ns)).powf(self.sensitivity)
    }

    /// `samples[i]`, measured beside tick `i`, at the reference speed.
    pub fn normalise(&self, samples: &[f64]) -> Vec<f64> {
        assert_eq!(samples.len(), self.ns.len(), "one tick per sample");
        samples
            .iter()
            .enumerate()
            .map(|(i, s)| s * self.scale(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_machine_slowing_down_midway_is_divided_out() {
        // The second half of the run, work and kernel alike, runs at
        // half speed; a lone slow kernel reading is outvoted.
        let mut ns: Vec<f64> = (0..400)
            .map(|i| {
                if i < 200 {
                    REFERENCE_NS
                } else {
                    2.0 * REFERENCE_NS
                }
            })
            .collect();
        ns[100] = 10.0 * REFERENCE_NS;
        let gauge = Gauge::from_ns(1.0, ns);
        let work: Vec<f64> = (0..400)
            .map(|i| if i < 200 { 1000.0 } else { 2000.0 })
            .collect();
        let at_reference = gauge.normalise(&work);
        for i in (0..150).chain(250..400) {
            assert_eq!(at_reference[i], 1000.0, "unit {i}");
        }
        assert_eq!(stats::median(&at_reference), 1000.0);
        // Work that really got slower stays slower.
        let slower: Vec<f64> = work.iter().map(|w| 1.5 * w).collect();
        assert_eq!(stats::median(&gauge.normalise(&slower)), 1500.0);
    }

    #[test]
    fn sensitivity_is_the_power_of_the_factor() {
        let ns = vec![4.0 * REFERENCE_NS; 10];
        assert_eq!(Gauge::from_ns(1.0, ns.clone()).overall(), 0.25);
        assert_eq!(Gauge::from_ns(0.5, ns.clone()).overall(), 0.5);
        assert_eq!(Gauge::from_ns(0.0, ns).overall(), 1.0);
    }

    #[test]
    fn every_tick_is_recorded() {
        let mut gauge = Gauge::new(1.0);
        gauge.ticks(64);
        let scale = gauge.overall();
        assert!(scale.is_finite() && scale > 0.0);
        assert_eq!(gauge.len(), 64);
    }
}
