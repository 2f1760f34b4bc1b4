//! Golden stripes: the exact bytes every slot of one fixed object holds
//! under each redundancy mode, and a scrub after losing any one slot
//! writing back exactly that slot, byte for byte.
//!
//! The digests below were recorded from the vault before its slot codec
//! moved to multi-lane digests; they pin the `DPVS` shard and `DPVO` copy
//! wire formats, so a change that alters one stored byte fails here.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use daspos_tiers::codec::{self, fnv64};
use daspos_vault::{
    MemoryBackend, ObjectKind, Redundancy, RetryPolicy, StorageBackend, StorageError, Vault,
};

const KEY: &str = "golden-aod-run-2013.dpsl";

/// A sealed tier file of 1001 pseudo-random bytes: an odd length, so
/// every erasure geometry below pads its last data shard.
fn payload() -> Bytes {
    let mut x: u64 = 0x5EED_DA5B_0500_2014;
    let raw: Vec<u8> = (0..1001)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as u8
        })
        .collect();
    codec::seal(&Bytes::from(raw))
}

/// A memory backend that records every `put` it receives.
#[derive(Default)]
struct Counting {
    inner: MemoryBackend,
    puts: Mutex<Vec<Bytes>>,
}

impl StorageBackend for Counting {
    fn name(&self) -> String {
        "counting".to_string()
    }
    fn put(&self, key: &str, data: &Bytes) -> Result<(), StorageError> {
        self.puts.lock().unwrap().push(data.clone());
        self.inner.put(key, data)
    }
    fn get(&self, key: &str) -> Result<Bytes, StorageError> {
        self.inner.get(key)
    }
    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.inner.delete(key)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        self.inner.list(prefix)
    }
}

fn slots(redundancy: Redundancy) -> usize {
    match redundancy {
        Redundancy::Replicas(n) => n,
        Redundancy::Erasure { k, m } => k + m,
    }
}

/// A vault over exactly one counting backend per slot, holding the
/// golden object; returns the backends in slot order.
fn stored(redundancy: Redundancy) -> (Vault, Vec<Arc<Counting>>) {
    let n = slots(redundancy);
    let backends: Vec<Arc<Counting>> = (0..n).map(|_| Arc::new(Counting::default())).collect();
    let vault = Vault::builder()
        .policy(RetryPolicy::none())
        .backends(
            backends
                .iter()
                .map(|b| b.clone() as Arc<dyn StorageBackend>)
                .collect(),
        )
        .redundancy(redundancy)
        .build()
        .unwrap();
    vault.put(KEY, ObjectKind::SealedTier, &payload()).unwrap();
    // Slot i of a stripe lives on backend (fnv64(key) + i) mod n.
    let first = (fnv64(KEY.as_bytes()) % n as u64) as usize;
    let in_slot_order = (0..n).map(|i| backends[(first + i) % n].clone()).collect();
    (vault, in_slot_order)
}

#[test]
fn every_slot_matches_its_golden_digest() {
    let golden: [(Redundancy, &[u64]); 4] = [
        (
            Redundancy::Erasure { k: 4, m: 2 },
            &[
                0x4af1_c740_e217_e454,
                0x4cc7_39a1_2fba_1733,
                0x5c1c_7d4e_79e4_a15d,
                0x0921_1c2e_7f3f_0877,
                0x0159_bbd1_c5da_634b,
                0xe541_cc26_d544_2471,
            ],
        ),
        (
            Redundancy::Erasure { k: 3, m: 1 },
            &[
                0x242b_38e1_2078_1aff,
                0x637c_c10e_0a1c_6d29,
                0x5abb_29c0_15c5_6890,
                0xf2a8_1653_5152_7bdf,
            ],
        ),
        (
            Redundancy::Erasure { k: 1, m: 2 },
            &[
                0xf85f_900b_330c_aa94,
                0x34e1_6d0e_b023_893c,
                0x4c18_5082_6554_7304,
            ],
        ),
        (
            Redundancy::Replicas(3),
            &[
                0x1ce7_5650_e846_b631,
                0x1ce7_5650_e846_b631,
                0x1ce7_5650_e846_b631,
            ],
        ),
    ];
    for (redundancy, digests) in golden {
        let (_, backends) = stored(redundancy);
        let actual: Vec<u64> = backends
            .iter()
            .map(|b| fnv64(&b.inner.get(KEY).unwrap()))
            .collect();
        let shown: Vec<String> = actual.iter().map(|d| format!("{d:#018x}")).collect();
        assert_eq!(actual, digests, "{redundancy}: slot digests {shown:?}");
    }
}

#[test]
fn scrub_after_losing_one_slot_writes_back_exactly_that_slot() {
    for redundancy in [
        Redundancy::Erasure { k: 4, m: 2 },
        Redundancy::Erasure { k: 3, m: 1 },
        Redundancy::Erasure { k: 1, m: 2 },
        Redundancy::Replicas(3),
    ] {
        for lost in 0..slots(redundancy) {
            let (vault, backends) = stored(redundancy);
            let pristine = backends[lost].inner.get(KEY).unwrap();
            backends[lost].inner.delete(KEY).unwrap();
            for b in &backends {
                b.puts.lock().unwrap().clear();
            }

            let report = vault.scrub().unwrap();
            assert!(
                report.clean(),
                "{redundancy} slot {lost}: {}",
                report.to_text()
            );
            assert_eq!(report.repaired, 1, "{redundancy} slot {lost}");
            for (i, b) in backends.iter().enumerate() {
                let puts = b.puts.lock().unwrap();
                if i == lost {
                    assert_eq!(puts.len(), 1, "{redundancy}: one put to lost slot {lost}");
                    assert_eq!(puts[0], pristine, "{redundancy}: slot {lost} rewritten");
                } else {
                    assert!(puts.is_empty(), "{redundancy}: slot {i} untouched");
                }
            }
        }
    }
}
