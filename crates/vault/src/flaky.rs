//! Deterministic fault injection at the storage boundary.
//!
//! [`FlakyBackend`] wraps any [`StorageBackend`] and makes it misbehave
//! on a seed-driven schedule, faultlab-style: every operation draws its
//! fate from a pure mix of the seed and a monotonically increasing
//! operation counter, so a given (seed, operation sequence) reproduces
//! the identical failure pattern — campaigns over a flaky vault are as
//! replayable as campaigns over mutated bytes.
//!
//! Two independent fault channels:
//!
//! - **transient failures** ([`StorageError::Transient`]) with
//!   per-operation probability `transient_rate` — the channel the
//!   vault's [`RetryPolicy`](crate::RetryPolicy) must absorb;
//! - **read corruption** with probability `corrupt_rate`: a `get`
//!   succeeds but one seeded bit of the returned copy is flipped — the
//!   channel checksum-verified reads must catch and fall back from.
//!   Corruption affects only the returned bytes, never the stored
//!   object (flaky *reads*, not silent rot).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use daspos_hep::seq::mix64;

use crate::backend::{StorageBackend, StorageError};

/// The misbehavior schedule of a [`FlakyBackend`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlakyConfig {
    /// Master seed of the fault schedule.
    pub seed: u64,
    /// Probability (0–1) that any single operation attempt fails with a
    /// [`StorageError::Transient`].
    pub transient_rate: f64,
    /// Probability (0–1) that a surviving `get` returns a copy with one
    /// seeded bit flipped.
    pub corrupt_rate: f64,
}

impl FlakyConfig {
    /// Transient failures only (the retry-policy workout).
    pub fn transient(seed: u64, rate: f64) -> FlakyConfig {
        FlakyConfig {
            seed,
            transient_rate: rate,
            corrupt_rate: 0.0,
        }
    }
}

/// A [`StorageBackend`] wrapper that injects seed-scheduled faults.
pub struct FlakyBackend {
    inner: Arc<dyn StorageBackend>,
    config: FlakyConfig,
    ops: AtomicU64,
}

impl FlakyBackend {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: Arc<dyn StorageBackend>, config: FlakyConfig) -> FlakyBackend {
        FlakyBackend {
            inner,
            config,
            ops: AtomicU64::new(0),
        }
    }

    /// Draw in [0, 1) for fault channel `channel` of the next operation.
    fn draw(&self, channel: u64) -> (u64, f64) {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let raw = mix64(self.config.seed ^ mix64(op.wrapping_add(channel << 48)));
        (raw, (raw >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn maybe_fail(&self, op: &str, key: &str) -> Result<(), StorageError> {
        let (_, p) = self.draw(1);
        if p < self.config.transient_rate {
            Err(StorageError::Transient(format!(
                "injected fault: {op} '{key}' on {}",
                self.inner.name()
            )))
        } else {
            Ok(())
        }
    }
}

impl StorageBackend for FlakyBackend {
    fn name(&self) -> String {
        format!("flaky({})", self.inner.name())
    }

    fn put(&self, key: &str, data: &Bytes) -> Result<(), StorageError> {
        self.maybe_fail("put", key)?;
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Bytes, StorageError> {
        self.maybe_fail("get", key)?;
        let data = self.inner.get(key)?;
        let (raw, p) = self.draw(2);
        if p < self.config.corrupt_rate && !data.is_empty() {
            let mut copy = data.to_vec();
            let bit = raw as usize % (copy.len() * 8);
            copy[bit / 8] ^= 1 << (bit % 8);
            return Ok(Bytes::from(copy));
        }
        Ok(data)
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.maybe_fail("delete", key)?;
        self.inner.delete(key)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        self.maybe_fail("list", prefix)?;
        self.inner.list(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    #[test]
    fn reliable_schedule_passes_through() {
        let inner = Arc::new(MemoryBackend::new());
        let flaky = FlakyBackend::new(inner, FlakyConfig::transient(1, 0.0));
        let data = Bytes::from_static(b"abc");
        flaky.put("k", &data).unwrap();
        assert_eq!(flaky.get("k").unwrap(), data);
        assert_eq!(flaky.list("").unwrap(), vec!["k".to_string()]);
    }

    #[test]
    fn transient_faults_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let inner = Arc::new(MemoryBackend::new());
            inner.put("k", &Bytes::from_static(b"abc")).unwrap();
            let flaky = FlakyBackend::new(inner, FlakyConfig::transient(seed, 0.5));
            (0..32).map(|_| flaky.get("k").is_err()).collect()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same fault schedule");
        assert_ne!(a, run(8), "different seed, different schedule");
        let failures = a.iter().filter(|&&f| f).count();
        assert!(
            (4..=28).contains(&failures),
            "rate 0.5 should fail roughly half: {failures}/32"
        );
    }

    #[test]
    fn read_corruption_flips_the_copy_not_the_store() {
        let inner = Arc::new(MemoryBackend::new());
        let data = Bytes::from_static(b"pristine payload");
        inner.put("k", &data).unwrap();
        let config = FlakyConfig {
            seed: 3,
            transient_rate: 0.0,
            corrupt_rate: 1.0,
        };
        let flaky = FlakyBackend::new(inner.clone(), config);
        let corrupt = flaky.get("k").unwrap();
        assert_ne!(corrupt, data, "rate 1.0 must corrupt the returned copy");
        assert_eq!(inner.get("k").unwrap(), data, "the stored object is untouched");
    }
}
