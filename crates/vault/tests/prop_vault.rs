//! Property tests: the DPVO envelope round-trips exactly and detects
//! every single-bit flip; a replicated vault repairs any single-replica
//! corruption byte-identically; a vault of either redundancy mode
//! survives any tolerated erasures plus a bit flip, and an erasure-coded
//! vault reports > m erasures as typed `Unrecoverable` — never wrong
//! bytes.

use std::sync::Arc;

use bytes::Bytes;
use daspos_vault::{
    decode_envelope, encode_envelope, MemoryBackend, ObjectKind, Redundancy, RetryPolicy,
    StorageBackend, Vault, VaultError,
};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = ObjectKind> {
    (0u8..4).prop_map(|v| ObjectKind::from_u8(v).expect("0..4 are all valid"))
}

/// A fresh vault over exactly as many memory backends as its stripe
/// has slots.
fn fixture(redundancy: Redundancy) -> (Vault, Vec<Arc<MemoryBackend>>) {
    let slots = match redundancy {
        Redundancy::Replicas(n) => n,
        Redundancy::Erasure { k, m } => k + m,
    };
    let backends: Vec<Arc<MemoryBackend>> =
        (0..slots).map(|_| Arc::new(MemoryBackend::new())).collect();
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
    (vault, backends)
}

/// A fresh `k + m` erasure vault over `k + m` memory backends.
fn erasure_fixture(k: usize, m: usize) -> (Vault, Vec<Arc<MemoryBackend>>) {
    fixture(Redundancy::Erasure { k, m })
}

/// `Replicas(1..=4)` or `Erasure { k: 1..=5, m: 1..=3 }`.
fn arb_redundancy() -> impl Strategy<Value = Redundancy> {
    prop_oneof![
        (1usize..=4).prop_map(Redundancy::Replicas),
        (1usize..=5, 1usize..=3).prop_map(|(k, m)| Redundancy::Erasure { k, m }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn envelope_round_trip_is_identity(
        kind in arb_kind(),
        payload in prop::collection::vec(any::<u8>(), 0..300)
    ) {
        let payload = Bytes::from(payload);
        let enc = encode_envelope(kind, &payload);
        let (k, p) = decode_envelope(&enc).expect("round-trip decodes");
        prop_assert_eq!(k, kind);
        prop_assert_eq!(p, payload);
    }

    #[test]
    fn any_bit_flip_in_an_envelope_is_detected(
        kind in arb_kind(),
        payload in prop::collection::vec(any::<u8>(), 0..300),
        pos_frac in 0.0..1.0f64,
        bit in 0u8..8
    ) {
        let enc = encode_envelope(kind, &Bytes::from(payload));
        let mut mutated = enc.to_vec();
        let pos = ((mutated.len() as f64 * pos_frac) as usize).min(mutated.len() - 1);
        mutated[pos] ^= 1 << bit;
        prop_assert!(
            decode_envelope(&Bytes::from(mutated)).is_err(),
            "flip @{} bit {} must not decode", pos, bit
        );
    }

    #[test]
    fn single_replica_corruption_is_always_repaired_byte_identically(
        payload in prop::collection::vec(any::<u8>(), 1..300),
        replica in 0usize..3,
        pos_frac in 0.0..1.0f64,
        bit in 0u8..8
    ) {
        let backends: Vec<Arc<MemoryBackend>> =
            (0..3).map(|_| Arc::new(MemoryBackend::new())).collect();
        let vault = Vault::builder()
            .policy(RetryPolicy::none())
            .backends(
                backends
                    .iter()
                    .map(|b| b.clone() as Arc<dyn StorageBackend>)
                    .collect(),
            )
            .build()
            .unwrap();
        vault.put("obj", ObjectKind::Opaque, &Bytes::from(payload)).unwrap();
        let pristine = backends[0].get("obj").unwrap();

        let mut mutated = pristine.to_vec();
        let pos = ((mutated.len() as f64 * pos_frac) as usize).min(mutated.len() - 1);
        mutated[pos] ^= 1 << bit;
        backends[replica].put("obj", &Bytes::from(mutated)).unwrap();

        let report = vault.scrub().unwrap();
        prop_assert_eq!(report.corrupt, 1);
        prop_assert_eq!(report.repaired, 1);
        prop_assert!(report.clean());
        for b in &backends {
            prop_assert_eq!(b.get("obj").unwrap(), pristine.clone());
        }
    }

    #[test]
    fn erasure_survives_any_m_erasures_plus_a_bit_flip(
        redundancy in arb_redundancy(),
        payload in prop::collection::vec(any::<u8>(), 1..400),
        erase_mask in any::<u16>(),
        slot_pick in any::<u16>(),
        pos_frac in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let payload = Bytes::from(payload);
        let (vault, backends) = fixture(redundancy);
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let pristine: Vec<Bytes> = backends.iter().map(|b| b.get("obj").unwrap()).collect();

        // Erase up to m whole slots (m = tolerated losses), chosen by
        // the mask.
        let (total, m) = (backends.len(), redundancy.tolerates());
        let mut erased = 0usize;
        for (i, backend) in backends.iter().enumerate() {
            if erased < m && (erase_mask >> i) & 1 == 1 {
                backend.delete("obj").unwrap();
                erased += 1;
            }
        }
        // Flip one bit in one *surviving* slot (caught by the shard or
        // envelope digest, so it costs one more slot — only allowed
        // when the stripe still has slack for it).
        if erased < m {
            let survivors: Vec<usize> = (0..total)
                .filter(|&i| backends[i].get("obj").is_ok())
                .collect();
            let victim = survivors[slot_pick as usize % survivors.len()];
            let mut bytes = pristine[victim].to_vec();
            let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
            bytes[pos] ^= 1 << bit;
            if bytes != pristine[victim].as_ref() {
                backends[victim].put("obj", &Bytes::from(bytes)).unwrap();
            }
        }

        let (kind, got) = vault.get("obj").unwrap();
        prop_assert_eq!(kind, ObjectKind::Opaque);
        prop_assert_eq!(got, payload);

        // Scrub re-converges every slot byte-identically.
        let report = vault.scrub().unwrap();
        prop_assert!(report.clean(), "{}", report.to_text());
        for (b, orig) in backends.iter().zip(&pristine) {
            prop_assert_eq!(&b.get("obj").unwrap(), orig);
        }
    }

    #[test]
    fn erasure_beyond_m_losses_is_typed_unrecoverable(
        k in 2usize..=5,
        m in 1usize..=3,
        payload in prop::collection::vec(any::<u8>(), 1..400),
        extra in 0usize..3,
    ) {
        let (vault, backends) = erasure_fixture(k, m);
        vault.put("obj", ObjectKind::Opaque, &Bytes::from(payload)).unwrap();

        // Delete m + 1 + extra shards — strictly more than parity
        // covers, but never all of them (zero shards is NotFound, not
        // damage).
        let losses = (m + 1 + extra).min(k + m - 1);
        for b in backends.iter().take(losses) {
            b.delete("obj").unwrap();
        }
        let survivors: Vec<Bytes> = backends[losses..]
            .iter()
            .map(|b| b.get("obj").unwrap())
            .collect();

        match vault.get("obj") {
            Err(VaultError::Unrecoverable { have, need, .. }) => {
                prop_assert_eq!(have, k + m - losses);
                prop_assert_eq!(need, k);
            }
            other => return Err(TestCaseError::fail(format!(
                "expected Unrecoverable, got {other:?}"
            ))),
        }
        let report = vault.scrub().unwrap();
        prop_assert!(!report.clean());
        prop_assert_eq!(report.unrecoverable, 1);
        prop_assert_eq!(report.lost.clone(), vec!["obj".to_string()]);
        // Nothing fabricated: surviving shards untouched, dead slots empty.
        for (b, orig) in backends[losses..].iter().zip(&survivors) {
            prop_assert_eq!(&b.get("obj").unwrap(), orig);
        }
        for b in backends.iter().take(losses) {
            prop_assert!(b.get("obj").is_err());
        }
    }
}
