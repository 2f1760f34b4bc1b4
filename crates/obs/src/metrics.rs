//! Named counters and gauges backed by atomics.
//!
//! Handles ([`Counter`], [`Gauge`]) are `Arc<Atomic*>` clones of the
//! registry's slot, so hot paths register once and then pay a single
//! relaxed `fetch_add` per increment — no name lookup, no lock.
//!
//! **Counters** are monotonic and *deterministic*: for a fixed seed their
//! final values are identical regardless of thread count (sums commute).
//! They appear in the stable trace render. **Gauges** are free-running
//! measurements whose values may depend on the engine or schedule (codec
//! byte counts, IOV cursor hit rates, per-stage nanoseconds); they are
//! stripped from the stable render alongside timestamps.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic `u64` counter handle. Clone freely; all clones share one
/// atomic slot.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` (relaxed; totals are order-independent).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A free-running `i64` gauge handle (set/add semantics).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a delta (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sums the wall-clock time of code sections into `N` gauges.
///
/// Sections add to local totals, which [`SectionClock::finish`] adds to
/// the gauges once, so a section run per particle costs no atomic.
/// Built from `None` (no registry attached) the clock never reads the
/// time: each section then costs one branch.
#[derive(Debug)]
pub struct SectionClock<'a, const N: usize> {
    gauges: Option<&'a [Gauge; N]>,
    ns: [i64; N],
}

impl<'a, const N: usize> SectionClock<'a, N> {
    /// A clock feeding `gauges`, or a disarmed one.
    pub fn new(gauges: Option<&'a [Gauge; N]>) -> Self {
        SectionClock { gauges, ns: [0; N] }
    }

    /// Run `f`, charging its wall-clock time to section `section`.
    #[inline]
    pub fn time<T>(&mut self, section: usize, f: impl FnOnce() -> T) -> T {
        if self.gauges.is_none() {
            return f();
        }
        let start = std::time::Instant::now();
        let out = f();
        self.ns[section] += start.elapsed().as_nanos() as i64;
        out
    }

    /// Add the section totals to their gauges.
    pub fn finish(self) {
        if let Some(gauges) = self.gauges {
            for (gauge, ns) in gauges.iter().zip(self.ns) {
                gauge.add(ns);
            }
        }
    }
}

/// A registry of named [`Counter`]s and [`Gauge`]s. Lookup/creation takes
/// a short mutex; the returned handles bypass it entirely, so components
/// resolve their handles once at construction and increment lock-free.
#[derive(Default, Debug)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Convenience: `counter(name).add(n)` for cold paths.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Convenience: `gauge(name).set(v)` for cold paths.
    pub fn set_gauge(&self, name: &str, v: i64) {
        self.gauge(name).set(v);
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        MetricsSnapshot { counters, gauges }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`], sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Deterministic monotonic totals.
    pub counters: BTreeMap<String, u64>,
    /// Engine/schedule-dependent measurements.
    pub gauges: BTreeMap<String, i64>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Human-readable listing: counters then gauges, one `name = value`
    /// per line, sorted by name.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("{name} = {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("{name} = {value} (gauge)\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_slots() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("events.generated");
        let b = reg.counter("events.generated");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("events.generated").get(), 4);

        let g = reg.gauge("exec.threads");
        g.set(4);
        reg.gauge("exec.threads").add(-1);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn section_clock_charges_sections_only_when_armed() {
        let reg = MetricsRegistry::new();
        let gauges = [reg.gauge("time.a_ns"), reg.gauge("time.b_ns")];
        let mut clock = SectionClock::new(Some(&gauges));
        let v = clock.time(1, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        clock.finish();
        assert_eq!(v, 7);
        assert_eq!(gauges[0].get(), 0);
        assert!(gauges[1].get() >= 2_000_000, "{}", gauges[1].get());

        let mut idle: SectionClock<'_, 2> = SectionClock::new(None);
        assert_eq!(idle.time(0, || 3), 3);
        idle.finish();
        assert_eq!(gauges[0].get(), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = MetricsRegistry::new();
        reg.add("b.second", 2);
        reg.add("a.first", 1);
        reg.set_gauge("z.gauge", -5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.first"), 1);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("z.gauge"), -5);
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, vec!["a.first", "b.second"]);
        let text = snap.to_text();
        assert!(text.contains("a.first = 1\n"));
        assert!(text.contains("z.gauge = -5 (gauge)\n"));
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        let reg = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = reg.counter("hits");
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.snapshot().counter("hits"), 4000);
    }
}
