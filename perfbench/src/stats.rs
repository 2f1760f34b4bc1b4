//! Sample statistics: percentiles that refuse to speak without enough
//! samples, the quartile spread the steadiness rule uses, and the
//! regression rule the bounds in `BENCHMARK.json` stand for.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it. A p99 thus
/// needs at least 1000 samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    let m = ld + 1;
    let n = 4;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    out
}

/// Run-to-run spread: the inter-quartile distance as a share of the
/// median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The regression rule: `after` regressed when its median is worse than
/// `before`'s by more than `bound`, a share of `before`'s median.
pub fn regressed(before: &[f64], after: &[f64], better: Better, bound: f64) -> bool {
    let (b, a) = (median(before), median(after));
    let worse = match better {
        Better::Lower => a - b,
        Better::Higher => b - a,
    };
    worse / b > bound
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(21), 0.5), Some(11.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&ramp(10)) - 5.5 / 5.5).abs() < 1e-12);
    }

    fn bound(name: &str) -> f64 {
        crate::END_TO_END
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.bound)
            .expect("declared end-to-end metric")
    }

    /// Per-run (p50, p99/p50) of ten runs of 4000 seeded latency samples,
    /// as the harness reports them: a 100 µs body with ±20 µs jitter and a
    /// 2 % tail near 400 µs. `slow` rewrites each sample, given its index
    /// in the run.
    fn runs(seed: u64, slow: impl Fn(usize, f64) -> f64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = crate::Rng::new(seed);
        (0..10)
            .map(|_| {
                let samples: Vec<f64> = (0..4000)
                    .map(|i| {
                        let jitter = rng.below(40_000) as f64 / 1000.0 - 20.0;
                        let tail = if rng.below(50) == 0 { 300.0 } else { 0.0 };
                        slow(i, 100.0 + jitter + tail)
                    })
                    .collect();
                let p50 = percentile(&samples, 0.5).expect("4000 samples");
                let p99 = percentile(&samples, 0.99).expect("4000 samples");
                (p50, p99 / p50)
            })
            .unzip()
    }

    fn lower(name: &str, before: &[f64], after: &[f64]) -> bool {
        regressed(before, after, Better::Lower, bound(name))
    }

    #[test]
    fn doubled_median_and_doubled_p99_exceed_their_bounds() {
        let (p50, tail) = runs(1, |_, x| x);
        // A 2x p99 with the body unchanged: the tail ratio catches it.
        let (p50_t, tail_t) = runs(2, |_, x| if x > 200.0 { 2.0 * x } else { x });
        assert!(lower("latency_tail_ratio", &tail, &tail_t));
        assert!(!lower("latency_p50_us", &p50, &p50_t));
        // A 2x median (everything twice as slow): p50 and throughput
        // catch it; the tail ratio, by design, does not move.
        let (p50_s, tail_s) = runs(3, |_, x| 2.0 * x);
        assert!(lower("latency_p50_us", &p50, &p50_s));
        assert!(!lower("latency_tail_ratio", &tail, &tail_s));
        let rate = |v: &[f64]| v.iter().map(|us| 1e6 / us).collect::<Vec<_>>();
        let tput = bound("throughput_per_s");
        assert!(regressed(&rate(&p50), &rate(&p50_s), Better::Higher, tput));
    }

    #[test]
    fn a_tail_in_only_half_the_run_exceeds_the_tail_bound() {
        // A stall that comes and goes, as a 20 ms stall every 2 s would
        // in the open loop: in the second and fourth quarter of each run,
        // 30 ops in a row (1.5 % of the run) wait 20 ms behind it, and
        // the first and third quarter are clean.
        let (p50, tail) = runs(6, |_, x| x);
        let (p50_i, tail_i) = runs(7, |i, x| {
            if (i / 1000) % 2 == 1 && i % 1000 < 30 {
                x + 20_000.0
            } else {
                x
            }
        });
        assert!(lower("latency_tail_ratio", &tail, &tail_i));
        assert!(!lower("latency_p50_us", &p50, &p50_i));
    }

    #[test]
    fn same_code_rerun_stays_within_bounds() {
        let (p50, tail) = runs(4, |_, x| x);
        let (again_p50, again_tail) = runs(5, |_, x| x);
        for (first, second, name) in [
            (&p50, &again_p50, "latency_p50_us"),
            (&tail, &again_tail, "latency_tail_ratio"),
        ] {
            assert!(!lower(name, first, second));
            assert!(!lower(name, second, first));
            assert!(
                spread(first) < bound(name) / 3.0,
                "{name} spread {}",
                spread(first)
            );
        }
    }
}
