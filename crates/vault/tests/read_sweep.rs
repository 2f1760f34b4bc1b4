//! The verified read's single digest sweep against the sequence it
//! replaced, and the default path of verifiers that make no claim.
//!
//! A verified read used to decode the `DPVO` envelope, hash the whole
//! envelope for the stripe's object digest and then run the kind's deep
//! verifier over the payload, each a separate pass. The oracle below
//! keeps that sequence; every single-byte flip and every truncation of a
//! sealed-tier object — at the envelope level, and inside the seal with
//! the envelope rebuilt around it — must read back, fail and scrub-report
//! exactly as the oracle says, under 4+2 erasure and under 3 replicas.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use daspos_tiers::codec::{self, fnv64};
use daspos_vault::{
    decode_envelope, decode_shard, encode_envelope, encode_shard, ColumnarVerifier,
    ConditionsVerifier, DigestClaim, Erasure, MemoryBackend, ObjectKind, Redundancy, ScrubReport,
    SealedTierVerifier, ShardHeader, StorageBackend, Vault, VaultError, Verifier,
};

const KEY: &str = "aod-run-2013.dpsl";

/// A sealed tier payload long enough for the lanes to run in lockstep.
fn sealed() -> Bytes {
    let raw: Vec<u8> = (0..61u32).map(|i| (i * 37 + 11) as u8).collect();
    codec::seal(&Bytes::from(raw))
}

/// One byte of `data` flipped by `mask`.
fn flipped(data: &Bytes, at: usize, mask: u8) -> Bytes {
    let mut bad = data.to_vec();
    bad[at] ^= mask;
    Bytes::from(bad)
}

/// Every single-byte flip (two masks, so a kind byte also lands on
/// other valid kinds) and every truncation of `data`.
fn mutations(data: &Bytes) -> Vec<Bytes> {
    let mut out = Vec::new();
    for at in 0..data.len() {
        out.push(flipped(data, at, 0x01));
        out.push(flipped(data, at, 0xA5));
        out.push(data.slice(..at));
    }
    out
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Erasure,
    Replicas,
}

struct Store {
    vault: Vault,
    backends: Vec<Arc<MemoryBackend>>,
}

fn store(mode: Mode, verifier: Option<Arc<dyn Verifier>>) -> Store {
    let n = if mode == Mode::Erasure { 6 } else { 3 };
    let backends: Vec<Arc<MemoryBackend>> =
        (0..n).map(|_| Arc::new(MemoryBackend::new())).collect();
    let mut builder = Vault::builder()
        .backends(
            backends
                .iter()
                .map(|b| b.clone() as Arc<dyn StorageBackend>)
                .collect(),
        )
        .redundancy(match mode {
            Mode::Erasure => Redundancy::Erasure { k: 4, m: 2 },
            Mode::Replicas => Redundancy::Replicas(3),
        });
    if let Some(v) = verifier {
        builder = builder.verifier(v);
    }
    Store {
        vault: builder.build().expect("geometry fits"),
        backends,
    }
}

impl Store {
    /// Replace every stored slot of `KEY` with a slot of `envelope`:
    /// a copy, or the shard at the slot's index stamped with the
    /// generation `(object_len, object_digest)` — the envelope's own
    /// unless `stale` is given. Shard digests are valid either way.
    fn plant(&self, envelope: &Bytes, stale: Option<(u32, u64)>) {
        let (object_len, object_digest) = stale.unwrap_or((envelope.len() as u32, fnv64(envelope)));
        let ec = Erasure::new(4, 2).unwrap();
        for b in &self.backends {
            let slot = b.get(KEY).expect("slot was put");
            let slot = match decode_shard(&slot) {
                Ok((header, _)) => encode_shard(
                    &ShardHeader {
                        object_len,
                        object_digest,
                        ..header
                    },
                    &ec.encode_one(envelope, header.index as usize),
                ),
                Err(_) => envelope.clone(),
            };
            b.put(KEY, &slot).unwrap();
        }
    }
}

/// The replaced read: decode the envelope, hash the whole envelope,
/// then run the deep verifier — reported in the pipeline's order.
/// `recorded` is the object digest a stripe's shards carry; `None` for
/// copies, which are rejected by their envelope digest when classified
/// rather than by reconstruction.
fn oracle_read(envelope: &Bytes, recorded: Option<u64>) -> Result<(ObjectKind, Bytes), String> {
    let decoded = decode_envelope(envelope);
    let object_digest = fnv64(envelope);
    if recorded.is_some_and(|digest| digest != object_digest) {
        return Err("reconstructed object digest mismatch".to_string());
    }
    let (kind, payload) = decoded.map_err(|e| match recorded {
        Some(_) => format!("object envelope: {e}"),
        None => e.to_string(),
    })?;
    let deep = match kind {
        ObjectKind::SealedTier => SealedTierVerifier.verify(&payload),
        ObjectKind::ConditionsText => ConditionsVerifier.verify(&payload),
        ObjectKind::ColumnarAod => ColumnarVerifier.verify(&payload),
        _ => Ok(()),
    };
    deep.map_err(|reason| format!("deep verification: {reason}"))?;
    Ok((kind, payload))
}

/// What `get` and `verify()` must say about a store whose only object
/// reads as `read` (every slot present and of one generation).
fn oracle_outputs(
    read: Result<(ObjectKind, Bytes), String>,
    slots: u64,
) -> (Result<(ObjectKind, Bytes), String>, String) {
    let mut report = ScrubReport {
        objects: 1,
        replicas: slots as usize,
        checked: slots,
        ..ScrubReport::default()
    };
    let got = read.map_err(|reason| {
        report.corrupt = slots;
        report.unrecoverable = 1;
        report.lost.push(KEY.to_string());
        report
            .details
            .push(format!("stripe 0: '{KEY}' is damaged: {reason}"));
        VaultError::Damaged {
            key: KEY.to_string(),
            reason,
        }
        .to_string()
    });
    (got, report.to_text())
}

fn vault_outputs(s: &Store) -> (Result<(ObjectKind, Bytes), String>, String) {
    let report = s.vault.verify().expect("listing works").to_text();
    (s.vault.get(KEY).map_err(|e| e.to_string()), report)
}

fn check(mode: Mode, envelope: &Bytes, stale: Option<(u32, u64)>) {
    let s = store(mode, None);
    s.vault
        .put(KEY, ObjectKind::SealedTier, &sealed())
        .expect("put");
    s.plant(envelope, stale);
    let slots = s.backends.len() as u64;
    let recorded = match mode {
        Mode::Erasure => Some(stale.map_or(fnv64(envelope), |(_, digest)| digest)),
        Mode::Replicas => None,
    };
    assert_eq!(
        vault_outputs(&s),
        oracle_outputs(oracle_read(envelope, recorded), slots),
        "{envelope:?} (stale generation: {stale:?})"
    );
}

#[test]
fn envelope_level_mutations_read_as_the_replaced_sequence() {
    let pristine = encode_envelope(ObjectKind::SealedTier, &sealed());
    let pristine_gen = (pristine.len() as u32, fnv64(&pristine));
    for mode in [Mode::Erasure, Mode::Replicas] {
        check(mode, &pristine, None);
        for bad in mutations(&pristine) {
            check(mode, &bad, None);
            if mode == Mode::Erasure && bad.len() == pristine.len() {
                // Shards re-digested over rotted data but still
                // claiming the pristine object: the object digest is
                // what must catch it, ahead of every other check.
                check(mode, &bad, Some(pristine_gen));
            }
        }
    }
}

#[test]
fn seal_level_mutations_read_as_the_replaced_sequence() {
    for mode in [Mode::Erasure, Mode::Replicas] {
        for bad in std::iter::once(sealed()).chain(mutations(&sealed())) {
            check(mode, &encode_envelope(ObjectKind::SealedTier, &bad), None);
        }
    }
}

/// A verifier that forwards only `kind` and `verify` — the shape of a
/// timing wrapper — and counts its calls.
struct PassThrough {
    calls: Arc<AtomicUsize>,
}

impl Verifier for PassThrough {
    fn kind(&self) -> ObjectKind {
        ObjectKind::SealedTier
    }

    fn verify(&self, payload: &Bytes) -> Result<(), String> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        SealedTierVerifier.verify(payload)
    }
}

/// A verifier that forwards its claim too, counting `verify` calls.
struct Claiming {
    calls: Arc<AtomicUsize>,
}

impl Verifier for Claiming {
    fn kind(&self) -> ObjectKind {
        ObjectKind::SealedTier
    }

    fn verify(&self, payload: &Bytes) -> Result<(), String> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        SealedTierVerifier.verify(payload)
    }

    fn claim(&self, payload: &Bytes) -> Option<Result<DigestClaim, String>> {
        SealedTierVerifier.claim(payload)
    }
}

/// A seal whose inner digest disagrees with its payload: a valid
/// envelope, so only the deep verifier can reject it.
fn rotted_seal() -> Bytes {
    let s = sealed();
    flipped(&s, s.len() - 1, 0x40)
}

fn seal_mismatch() -> String {
    let reason = SealedTierVerifier
        .verify(&rotted_seal())
        .expect_err("the seal is rotted");
    format!("every copy of '{KEY}' is damaged: deep verification: {reason}")
}

#[test]
fn verifiers_without_a_claim_run_once_per_elected_generation() {
    for mode in [Mode::Erasure, Mode::Replicas] {
        let calls = Arc::new(AtomicUsize::new(0));
        let count = || calls.load(Ordering::SeqCst);
        let s = store(
            mode,
            Some(Arc::new(PassThrough {
                calls: calls.clone(),
            })),
        );
        s.vault.put(KEY, ObjectKind::SealedTier, &sealed()).unwrap();
        assert_eq!(s.vault.get(KEY).unwrap().1, sealed());
        assert_eq!(count(), 1);
        assert!(s.vault.scrub().unwrap().clean());
        assert_eq!(count(), 2);
        assert!(s.vault.verify().unwrap().clean());
        assert_eq!(count(), 3);

        // Semantic rot under a valid envelope is still rejected.
        s.vault
            .put(KEY, ObjectKind::SealedTier, &rotted_seal())
            .unwrap();
        assert_eq!(s.vault.get(KEY).unwrap_err().to_string(), seal_mismatch());
        assert_eq!(count(), 4);
        let report = s.vault.scrub().unwrap();
        assert_eq!(report.lost, vec![KEY.to_string()]);
        assert_eq!(count(), 5);
    }

    // Two generations of one key: the rotted one holds the vote, fails
    // its verification, and the sound one is elected after it — one
    // call each.
    let calls = Arc::new(AtomicUsize::new(0));
    let s = store(
        Mode::Replicas,
        Some(Arc::new(PassThrough {
            calls: calls.clone(),
        })),
    );
    s.vault.put(KEY, ObjectKind::SealedTier, &sealed()).unwrap();
    let rotted = encode_envelope(ObjectKind::SealedTier, &rotted_seal());
    for b in &s.backends[..2] {
        b.put(KEY, &rotted).unwrap();
    }
    assert_eq!(s.vault.get(KEY).unwrap().1, sealed());
    assert_eq!(calls.load(Ordering::SeqCst), 2);
}

#[test]
fn verifiers_with_a_claim_are_never_called() {
    for mode in [Mode::Erasure, Mode::Replicas] {
        let calls = Arc::new(AtomicUsize::new(0));
        let s = store(
            mode,
            Some(Arc::new(Claiming {
                calls: calls.clone(),
            })),
        );
        s.vault.put(KEY, ObjectKind::SealedTier, &sealed()).unwrap();
        assert_eq!(s.vault.get(KEY).unwrap().1, sealed());
        assert!(s.vault.scrub().unwrap().clean());
        s.vault
            .put(KEY, ObjectKind::SealedTier, &rotted_seal())
            .unwrap();
        assert_eq!(s.vault.get(KEY).unwrap_err().to_string(), seal_mismatch());
        assert!(!s.vault.verify().unwrap().clean());
        assert_eq!(calls.load(Ordering::SeqCst), 0);
    }
}
