//! Timing wrappers around the vault's public traits: a
//! [`StorageBackend`] and a [`Verifier`] that pass every call through
//! and add its wall time and byte count to shared tallies. Recording can
//! be switched off, which leaves one atomic load per call.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use daspos::vault::{ObjectKind, StorageBackend, StorageError, Verifier};

/// Calls, nanoseconds and bytes of one kind of call. Relaxed atomics:
/// the tallies are statistics and publish no other data.
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    ns: AtomicU64,
    bytes: AtomicU64,
}

/// A point-in-time copy of a [`Tally`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Reading {
    pub calls: u64,
    pub ns: u64,
    pub bytes: u64,
}

impl Tally {
    pub fn add(&self, started: Instant, bytes: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub fn read(&self) -> Reading {
        Reading {
            calls: self.calls.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

impl std::ops::Add for Reading {
    type Output = Reading;
    fn add(self, other: Reading) -> Reading {
        Reading {
            calls: self.calls + other.calls,
            ns: self.ns + other.ns,
            bytes: self.bytes + other.bytes,
        }
    }
}

impl std::ops::Sub for Reading {
    type Output = Reading;
    fn sub(self, earlier: Reading) -> Reading {
        Reading {
            calls: self.calls - earlier.calls,
            ns: self.ns - earlier.ns,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// The tallies one set of wrappers writes into, shared by every
/// backend of a vault.
#[derive(Debug)]
pub struct VaultTallies {
    recording: AtomicBool,
    pub put: Tally,
    pub get: Tally,
    /// `delete` and `list` calls.
    pub other: Tally,
    pub verify: Tally,
}

impl VaultTallies {
    pub fn new() -> Arc<VaultTallies> {
        Arc::new(VaultTallies {
            recording: AtomicBool::new(true),
            put: Tally::default(),
            get: Tally::default(),
            other: Tally::default(),
            verify: Tally::default(),
        })
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Wrap `backend` so its calls land in these tallies.
    pub fn backend(self: &Arc<Self>, backend: Arc<dyn StorageBackend>) -> Arc<dyn StorageBackend> {
        Arc::new(TimingBackend {
            inner: backend,
            tallies: Arc::clone(self),
        })
    }

    /// Wrap `verifier` so its calls land in these tallies.
    pub fn verifier(self: &Arc<Self>, verifier: Arc<dyn Verifier>) -> Arc<dyn Verifier> {
        Arc::new(TimingVerifier {
            inner: verifier,
            tallies: Arc::clone(self),
        })
    }
}

struct TimingBackend {
    inner: Arc<dyn StorageBackend>,
    tallies: Arc<VaultTallies>,
}

impl TimingBackend {
    fn timed<T>(&self, tally: &Tally, bytes: impl Fn(&T) -> usize, call: impl FnOnce() -> T) -> T {
        if !self.tallies.recording() {
            return call();
        }
        let started = Instant::now();
        let out = call();
        tally.add(started, bytes(&out));
        out
    }
}

impl StorageBackend for TimingBackend {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn put(&self, key: &str, data: &Bytes) -> Result<(), StorageError> {
        self.timed(
            &self.tallies.put,
            |_| data.len(),
            || self.inner.put(key, data),
        )
    }

    fn get(&self, key: &str) -> Result<Bytes, StorageError> {
        self.timed(
            &self.tallies.get,
            |r: &Result<Bytes, _>| r.as_ref().map_or(0, Bytes::len),
            || self.inner.get(key),
        )
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.timed(&self.tallies.other, |_| 0, || self.inner.delete(key))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        self.timed(&self.tallies.other, |_| 0, || self.inner.list(prefix))
    }
}

struct TimingVerifier {
    inner: Arc<dyn Verifier>,
    tallies: Arc<VaultTallies>,
}

impl Verifier for TimingVerifier {
    fn kind(&self) -> ObjectKind {
        self.inner.kind()
    }

    fn verify(&self, payload: &Bytes) -> Result<(), String> {
        if !self.tallies.recording() {
            return self.inner.verify(payload);
        }
        let started = Instant::now();
        let out = self.inner.verify(payload);
        self.tallies.verify.add(started, payload.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daspos::vault::{MemoryBackend, SealedTierVerifier};

    #[test]
    fn wrappers_pass_through_and_count() {
        let tallies = VaultTallies::new();
        let backend = tallies.backend(Arc::new(MemoryBackend::new()));
        let data = Bytes::from(vec![7u8; 100]);
        backend.put("k", &data).expect("memory put");
        assert_eq!(backend.get("k").expect("memory get"), data);
        assert!(backend.get("absent").is_err());
        tallies.set_recording(false);
        backend.get("k").expect("memory get");
        let (put, get) = (tallies.put.read(), tallies.get.read());
        assert_eq!((put.calls, put.bytes), (1, 100));
        assert_eq!((get.calls, get.bytes), (2, 100));

        tallies.set_recording(true);
        let verifier = tallies.verifier(Arc::new(SealedTierVerifier));
        assert_eq!(verifier.kind(), ObjectKind::SealedTier);
        let sealed = daspos_tiers::codec::seal(&data);
        assert!(verifier.verify(&sealed).is_ok());
        assert!(verifier.verify(&data).is_err());
        assert_eq!(tallies.verify.read().calls, 2);
    }
}
