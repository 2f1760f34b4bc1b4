//! The preservation vault: one classify → vote → reconstruct → repair
//! pipeline over replicated or erasure-coded storage.
//!
//! A [`Vault`] stores every object as a *stripe* of slots, one slot per
//! backend. Slot `i` of `key` lives on backend `(fnv64(key) + i) mod B`,
//! so stripes start on different backends per key and no backend ever
//! holds two slots of one stripe. The [`Redundancy`] mode chosen at build
//! time decides only how an object maps onto slots (the slot codec):
//!
//! - [`Redundancy::Erasure`] — the `DPVO` envelope is split into `k`
//!   data + `m` parity shards (XOR for `m = 1`, GF(256) Reed–Solomon
//!   beyond), each slot holding one digested `DPVS` shard envelope.
//! - [`Redundancy::Replicas`] — a `k = 1` stripe of `n` slots (`m = n − 1`,
//!   possibly 0), each slot a plain `DPVO` copy with no `DPVS` wrapper.
//!
//! Every read and every integrity pass — [`get`](Vault::get),
//! [`scrub`](Vault::scrub)/[`verify`](Vault::verify) and the
//! multi-worker [`scan`](Vault::scan) they run on one worker,
//! [`verify_object`](Vault::verify_object) and the interruptible
//! [`scrub_object_while`](Vault::scrub_object_while) — runs the same
//! per-object pipeline:
//!
//! 1. **classify** each slot as missing, corrupt (unreadable, a copy
//!    failing its envelope digest, or a shard failing its digest or
//!    geometry check), or healthy in a write *generation* `(object_len,
//!    object_digest)`. All slots are read first and classified as one
//!    batch, so a stripe's shard digests run in parallel FNV lanes;
//! 2. **vote**: the generation backed by the most healthy slots wins,
//!    deterministically tie-broken;
//! 3. **reconstruct** the winner and verify it once end to end (object
//!    digest and envelope digest in one two-lane pass, then the deep
//!    [`Verifier`] for its kind). A winner that fails is disqualified
//!    and the next generation gets its turn; a winner with fewer than
//!    `k` slots is reported loudly as [`VaultError::Unrecoverable`] —
//!    the vault never fabricates bytes;
//! 4. **repair** the slots that disagree with the verified generation,
//!    encoding only those slots, stamped with the verified generation
//!    rather than re-hashing the object. `get` heals only slots it
//!    found damaged — corrupt ones, and those of a generation that
//!    failed verification — because a digest-valid copy it outvoted may
//!    be a concurrent `put` it half saw. Scrub rewrites every other slot, outvoted and missing ones
//!    included, so it must not race writes to the same key (the serve
//!    layer's scrubber gives way to any foreground request).
//!
//! Replicas that diverge — a `put` that reached only some backends, a
//! stale copy written back — are therefore outvoted by `get` and
//! re-converged by scrub exactly like stale shards.
//!
//! Every backend operation runs under the vault's
//! [`RetryPolicy`](crate::RetryPolicy); transient failures are retried
//! with exponential backoff and counted on the `vault.backend.retries`
//! counter. Scrub progress lands on
//! `vault.scrub.checked|corrupt|repaired|rebuilt|unrecoverable` and,
//! when a tracer is attached, as a span tree under `scrub`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use daspos_hep::par;
use daspos_obs::Obs;
use daspos_tiers::codec::fnv64;

use crate::backend::{StorageBackend, StorageError};
use crate::erasure::Erasure;
use crate::object::{
    decode_envelope, digest_and_decode_envelope, encode_envelope, parse_envelope, stored_digest,
    ColumnarVerifier, ConditionsVerifier, ObjectKind, SealedTierVerifier, Verifier,
};
use crate::policy::RetryPolicy;
use crate::shard::{decode_stripe, encode_shard, encode_stripe, ShardHeader};

/// A vault-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VaultError {
    /// The builder was asked to build a vault with zero backends.
    NoReplicas,
    /// The redundancy/backend geometry is inconsistent (replica count
    /// not matching the backend pool, erasure stripe wider than it).
    Geometry(String),
    /// No backend stores the key.
    NotFound(String),
    /// Slots of the object exist, but none is healthy, or every
    /// generation with at least `k` slots fails end-to-end verification.
    Damaged {
        /// The object's key.
        key: String,
        /// Why the last candidate was rejected.
        reason: String,
    },
    /// The best surviving generation has fewer than `k` healthy slots:
    /// the object cannot be reconstructed, and the vault refuses to
    /// guess at the bytes.
    Unrecoverable {
        /// The object's key.
        key: String,
        /// Healthy slots of the best surviving generation.
        have: usize,
        /// Slots a reconstruction needs (= the geometry's `k`).
        need: usize,
    },
    /// A storage operation failed permanently (after retries).
    Storage(StorageError),
}

impl fmt::Display for VaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VaultError::NoReplicas => write!(f, "a vault needs at least one backend"),
            VaultError::Geometry(reason) => write!(f, "bad vault geometry: {reason}"),
            VaultError::NotFound(key) => write!(f, "no backend stores '{key}'"),
            VaultError::Damaged { key, reason } => {
                write!(f, "every copy of '{key}' is damaged: {reason}")
            }
            VaultError::Unrecoverable { key, have, need } => write!(
                f,
                "'{key}' is unrecoverable: only {have} of the {need} shards needed survive"
            ),
            VaultError::Storage(e) => write!(f, "storage failure: {e}"),
        }
    }
}

impl std::error::Error for VaultError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VaultError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for VaultError {
    fn from(e: StorageError) -> VaultError {
        match e {
            StorageError::NotFound(key) => VaultError::NotFound(key),
            other => VaultError::Storage(other),
        }
    }
}

/// How a vault spreads an object across its backend pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// A `k = 1` stripe: every backend stores a full `DPVO` copy; `n`
    /// must equal the backend count. Tolerates `n - 1` backend losses
    /// at `n`× the bytes.
    Replicas(usize),
    /// `k` data + `m` parity shards, one per backend. Tolerates `m`
    /// backend losses at `(k + m) / k`× the bytes.
    Erasure {
        /// Data shards per stripe.
        k: usize,
        /// Parity shards per stripe.
        m: usize,
    },
}

impl Redundancy {
    /// Whole-backend losses this mode survives without data loss.
    pub fn tolerates(&self) -> usize {
        match self {
            Redundancy::Replicas(n) => n.saturating_sub(1),
            Redundancy::Erasure { m, .. } => *m,
        }
    }

    /// Bytes stored per object byte (ignoring envelope overhead).
    pub fn storage_factor(&self) -> f64 {
        match self {
            Redundancy::Replicas(n) => *n as f64,
            Redundancy::Erasure { k, m } => (k + m) as f64 / *k as f64,
        }
    }
}

impl fmt::Display for Redundancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Redundancy::Replicas(n) => write!(f, "{n} replica(s)"),
            Redundancy::Erasure { k, m } => write!(f, "erasure {k}+{m}"),
        }
    }
}

/// Builder for a [`Vault`].
pub struct VaultBuilder {
    backends: Vec<Arc<dyn StorageBackend>>,
    redundancy: Option<Redundancy>,
    policy: RetryPolicy,
    verifiers: BTreeMap<ObjectKind, Arc<dyn Verifier>>,
    obs: Obs,
}

impl VaultBuilder {
    fn new() -> VaultBuilder {
        let mut verifiers: BTreeMap<ObjectKind, Arc<dyn Verifier>> = BTreeMap::new();
        verifiers.insert(ObjectKind::SealedTier, Arc::new(SealedTierVerifier));
        verifiers.insert(ObjectKind::ConditionsText, Arc::new(ConditionsVerifier));
        verifiers.insert(ObjectKind::ColumnarAod, Arc::new(ColumnarVerifier));
        VaultBuilder {
            backends: Vec::new(),
            redundancy: None,
            policy: RetryPolicy::default(),
            verifiers,
            obs: Obs::disabled(),
        }
    }

    /// The backend pool, in placement order.
    pub fn backends(mut self, backends: Vec<Arc<dyn StorageBackend>>) -> VaultBuilder {
        self.backends = backends;
        self
    }

    /// Choose the redundancy mode. Defaults to
    /// [`Redundancy::Replicas`] over the whole backend pool.
    pub fn redundancy(mut self, redundancy: Redundancy) -> VaultBuilder {
        self.redundancy = Some(redundancy);
        self
    }

    /// Override the per-operation retry policy.
    pub fn policy(mut self, policy: RetryPolicy) -> VaultBuilder {
        self.policy = policy;
        self
    }

    /// Register (or replace) the deep verifier for one object kind.
    /// `SealedTier` and `ConditionsText` verifiers are pre-registered.
    pub fn verifier(mut self, verifier: Arc<dyn Verifier>) -> VaultBuilder {
        self.verifiers.insert(verifier.kind(), verifier);
        self
    }

    /// Attach an observability bundle (spans + counters).
    pub fn with_obs(mut self, obs: Obs) -> VaultBuilder {
        self.obs = obs;
        self
    }

    /// Build the vault. Fails with [`VaultError::NoReplicas`] on an
    /// empty backend pool, [`VaultError::Geometry`] when the redundancy
    /// mode does not fit it.
    pub fn build(self) -> Result<Vault, VaultError> {
        if self.backends.is_empty() {
            return Err(VaultError::NoReplicas);
        }
        let codec = match self
            .redundancy
            .unwrap_or(Redundancy::Replicas(self.backends.len()))
        {
            Redundancy::Replicas(n) => {
                if n == 0 || n != self.backends.len() {
                    return Err(VaultError::Geometry(format!(
                        "Replicas({n}) needs exactly {n} backend(s), got {}",
                        self.backends.len()
                    )));
                }
                SlotCodec::Copies(n)
            }
            Redundancy::Erasure { k, m } => {
                let ec = Erasure::new(k, m).map_err(|e| VaultError::Geometry(e.to_string()))?;
                if ec.total() > self.backends.len() {
                    return Err(VaultError::Geometry(format!(
                        "erasure {k}+{m} needs at least {} backends, got {}",
                        k + m,
                        self.backends.len()
                    )));
                }
                SlotCodec::Shards(ec)
            }
        };
        Ok(Vault {
            backends: self.backends,
            codec,
            policy: self.policy,
            verifiers: self.verifiers,
            obs: self.obs,
        })
    }
}

/// A write generation: the length and digest of the `DPVO` envelope a
/// slot was encoded from — `fnv64` of the envelope for a shard, the
/// envelope's own stored digest for a copy.
type Generation = (u32, u64);

/// How one stripe slot fared when it was read.
enum Slot {
    /// The slot was read (and, for a shard, decoded) and belongs to
    /// `gen`; `payload` is its shard, or the whole copy for replicas.
    Healthy {
        gen: Generation,
        payload: Bytes,
    },
    Corrupt(String),
    Missing,
}

impl Slot {
    /// The slot of a read that failed.
    fn unread(e: StorageError) -> Slot {
        match e {
            StorageError::NotFound(_) => Slot::Missing,
            e => Slot::Corrupt(format!("unreadable: {e}")),
        }
    }
}

/// A generation's object, reassembled and checked: the `DPVO` envelope
/// and the kind and payload it wraps.
struct Object {
    envelope: Bytes,
    kind: ObjectKind,
    payload: Bytes,
}

/// The slot codec — the only place the redundancy mode matters.
enum SlotCodec {
    /// [`Redundancy::Replicas`]: `n` slots, each a plain `DPVO` copy.
    Copies(usize),
    /// [`Redundancy::Erasure`]: `k + m` slots, each one `DPVS` shard.
    Shards(Erasure),
}

/// The `DPVS` header of slot `index` of generation `gen` under `ec`.
fn shard_header(ec: &Erasure, gen: Generation, index: usize) -> ShardHeader {
    ShardHeader {
        index: index as u8,
        k: ec.k() as u8,
        m: ec.m() as u8,
        object_len: gen.0,
        object_digest: gen.1,
    }
}

impl SlotCodec {
    /// Slots any reconstruction needs.
    fn k(&self) -> usize {
        match self {
            SlotCodec::Copies(_) => 1,
            SlotCodec::Shards(ec) => ec.k(),
        }
    }

    /// Slots per stripe.
    fn slots(&self) -> usize {
        match self {
            SlotCodec::Copies(n) => *n,
            SlotCodec::Shards(ec) => ec.total(),
        }
    }

    /// Whether a repaired slot is rebuilt as a shard (counted in
    /// [`ScrubReport::rebuilt`]) rather than copied whole.
    fn rebuilds(&self) -> bool {
        matches!(self, SlotCodec::Shards(_))
    }

    /// Encode one `DPVO` envelope into all its slots. Deterministic:
    /// re-encoding the same envelope yields byte-identical slots, which
    /// is what makes repair byte-identical too.
    fn encode(&self, envelope: &Bytes) -> Vec<Bytes> {
        match self {
            SlotCodec::Copies(n) => vec![envelope.clone(); *n],
            SlotCodec::Shards(ec) => {
                let gen = (envelope.len() as u32, fnv64(envelope));
                let payloads = ec.encode(envelope);
                let shards: Vec<(ShardHeader, &[u8])> = payloads
                    .iter()
                    .enumerate()
                    .map(|(i, payload)| (shard_header(ec, gen, i), payload.as_slice()))
                    .collect();
                encode_stripe(&shards)
            }
        }
    }

    /// Slot `index` of the verified `envelope` of generation `gen`,
    /// byte-identical to `encode(envelope)[index]`: the generation was
    /// checked against the envelope, so it is stamped rather than
    /// re-hashed, and no other slot is encoded.
    fn encode_slot(&self, envelope: &Bytes, gen: Generation, index: usize) -> Bytes {
        match self {
            SlotCodec::Copies(_) => envelope.clone(),
            SlotCodec::Shards(ec) => encode_shard(
                &shard_header(ec, gen, index),
                &ec.encode_one(envelope, index),
            ),
        }
    }

    /// Classify the reads of one stripe, slot by slot. A copy must pass
    /// its envelope digest, which is then its generation; a copy
    /// identical to an earlier healthy one joins that one's generation
    /// unhashed. A shard must pass its digest — the whole stripe's
    /// digests run in lanes — and its geometry is cross-checked against
    /// the vault's and its index against the slot it was read from,
    /// which is what catches geometry tampering even when the shard
    /// digest was recomputed.
    fn classify(&self, reads: Vec<Result<Bytes, StorageError>>) -> Vec<Slot> {
        match self {
            SlotCodec::Copies(_) => {
                let mut slots: Vec<Slot> = Vec::with_capacity(reads.len());
                for read in reads {
                    let slot = match read {
                        Ok(raw) => {
                            let same = slots.iter().find_map(|s| match s {
                                Slot::Healthy { gen, payload } if *payload == raw => Some(*gen),
                                _ => None,
                            });
                            let gen = match same {
                                Some(gen) => Ok(gen),
                                None => decode_envelope(&raw)
                                    .map(|_| (raw.len() as u32, stored_digest(&raw))),
                            };
                            match gen {
                                Ok(gen) => Slot::Healthy { gen, payload: raw },
                                Err(e) => Slot::Corrupt(e.to_string()),
                            }
                        }
                        Err(e) => Slot::unread(e),
                    };
                    slots.push(slot);
                }
                slots
            }
            SlotCodec::Shards(ec) => {
                let present: Vec<Bytes> = reads
                    .iter()
                    .filter_map(|r| r.as_ref().ok().cloned())
                    .collect();
                let mut decoded = decode_stripe(&present).into_iter();
                reads
                    .into_iter()
                    .enumerate()
                    .map(|(index, read)| match read {
                        Ok(_) => match decoded.next().expect("one decode per present shard") {
                            Ok((header, _))
                                if header.k as usize != ec.k()
                                    || header.m as usize != ec.m()
                                    || header.index as usize != index =>
                            {
                                Slot::Corrupt(format!(
                                    "shard geometry mismatch: header claims shard {} of {}+{}, slot expects {} of {}+{}",
                                    header.index,
                                    header.k,
                                    header.m,
                                    index,
                                    ec.k(),
                                    ec.m()
                                ))
                            }
                            Ok((header, payload)) => Slot::Healthy {
                                gen: (header.object_len, header.object_digest),
                                payload,
                            },
                            Err(e) => Slot::Corrupt(e.to_string()),
                        },
                        Err(e) => Slot::unread(e),
                    })
                    .collect()
            }
        }
    }

    /// Reassemble generation `gen`'s object from its healthy slots. A
    /// decoded stripe must match the generation's object digest and pass
    /// its own envelope digest, both checked in one two-lane pass. A
    /// copy was digest-checked when it was classified (or is identical
    /// to one that was), so only its header is parsed. The pipeline
    /// runs the deep verifier.
    fn reconstruct(&self, slots: &[Slot], gen: Generation) -> Result<Object, String> {
        let members = slots.iter().map(|s| match s {
            Slot::Healthy { gen: g, payload } if *g == gen => Some(payload),
            _ => None,
        });
        let (envelope, decoded) = match self {
            SlotCodec::Copies(_) => {
                let copy = members
                    .flatten()
                    .next()
                    .expect("the vote counted a copy of this generation")
                    .clone();
                let decoded = parse_envelope(&copy);
                (copy, decoded)
            }
            SlotCodec::Shards(ec) => {
                let shards: Vec<Option<&[u8]>> = members.map(|p| p.map(Bytes::as_ref)).collect();
                let envelope = Bytes::from(
                    ec.decode(&shards, gen.0 as usize)
                        .map_err(|e| e.to_string())?,
                );
                let (object_digest, decoded) = digest_and_decode_envelope(&envelope);
                if object_digest != gen.1 {
                    return Err("reconstructed object digest mismatch".to_string());
                }
                (envelope, decoded)
            }
        };
        let (kind, payload) = decoded.map_err(|e| format!("object envelope: {e}"))?;
        Ok(Object {
            envelope,
            kind,
            payload,
        })
    }
}

/// Pick the winning generation among those not yet `disqualified`: the
/// one backed by the most healthy slots, deterministically tie-broken.
/// Returns `(generation, votes)`.
fn stripe_winner(slots: &[Slot], disqualified: &[Generation]) -> Option<(Generation, usize)> {
    let mut counts: BTreeMap<Generation, usize> = BTreeMap::new();
    for s in slots {
        if let Slot::Healthy { gen, .. } = s {
            if !disqualified.contains(gen) {
                *counts.entry(*gen).or_default() += 1;
            }
        }
    }
    counts.into_iter().max_by_key(|&(gen, n)| (n, gen))
}

/// What the vote decided for one object.
enum Verdict {
    /// No slot holds the key.
    Absent,
    /// `gen` reconstructed to `object`, which passed end-to-end
    /// verification after the generations in `disqualified` failed it.
    Verified {
        gen: Generation,
        object: Object,
        disqualified: Vec<Generation>,
    },
    /// The best generation holds only `have < k` healthy slots.
    Short { gen: Generation, have: usize },
    /// No slot is healthy, or every generation with at least `k` slots
    /// failed end-to-end verification.
    Damaged(String),
}

/// The outcome of a [`scrub`](Vault::scrub) or [`verify`](Vault::verify)
/// pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Distinct keys seen across all backends.
    pub objects: usize,
    /// Backend count of the vault.
    pub replicas: usize,
    /// Slots examined (present ones, healthy or not).
    pub checked: u64,
    /// Slots failing digests, geometry checks or end-to-end
    /// verification, or stranded in an outvoted write generation.
    pub corrupt: u64,
    /// Slots absent from their backend while the key exists elsewhere.
    pub missing: u64,
    /// Damaged or missing slots rewritten from verified data.
    pub repaired: u64,
    /// Repairs rebuilt as erasure shards (always ≤ `repaired`; zero for
    /// replicas, whose repairs are whole copies).
    pub rebuilt: u64,
    /// Objects beyond repair — the keys in [`lost`](ScrubReport::lost):
    /// no healthy slot, every generation with at least `k` slots failing
    /// end-to-end verification, or a best generation with fewer than `k`
    /// healthy slots. Any of them makes [`clean`](ScrubReport::clean)
    /// false.
    pub unrecoverable: u64,
    /// Keys beyond repair, one per [`unrecoverable`](ScrubReport::unrecoverable)
    /// object.
    pub lost: Vec<String>,
    /// Per-stripe detail, one line per rebuilt shard or lost object.
    pub details: Vec<String>,
}

impl ScrubReport {
    /// True when no unrepaired damage remains: every corrupt or missing
    /// slot was repaired and nothing is lost or unrecoverable.
    pub fn clean(&self) -> bool {
        self.lost.is_empty()
            && self.unrecoverable == 0
            && self.corrupt + self.missing == self.repaired
    }

    /// Fold another report into this one (summing counts, concatenating
    /// lost keys and details) — the merge step when per-object scrubs
    /// are fanned out across a worker pool.
    pub fn absorb(&mut self, other: ScrubReport) {
        self.objects += other.objects;
        self.replicas = self.replicas.max(other.replicas);
        self.checked += other.checked;
        self.corrupt += other.corrupt;
        self.missing += other.missing;
        self.repaired += other.repaired;
        self.rebuilt += other.rebuilt;
        self.unrecoverable += other.unrecoverable;
        self.lost.extend(other.lost);
        self.details.extend(other.details);
    }

    /// Human-readable summary: a one-paragraph tally, then one line per
    /// shard-level repair event.
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "scrubbed {} object(s) across {} backend(s): {} copies checked, \
             {} corrupt, {} missing, {} repaired",
            self.objects, self.replicas, self.checked, self.corrupt, self.missing, self.repaired
        );
        if self.rebuilt > 0 {
            s.push_str(&format!(" ({} rebuilt from surviving shards)", self.rebuilt));
        }
        if self.unrecoverable > 0 {
            s.push_str(&format!(", {} unrecoverable", self.unrecoverable));
        }
        if self.lost.is_empty() {
            s.push_str(if self.clean() {
                "; vault is clean"
            } else {
                "; damage remains"
            });
        } else {
            s.push_str(&format!("; LOST beyond repair: {}", self.lost.join(", ")));
        }
        for d in &self.details {
            s.push('\n');
            s.push_str("  ");
            s.push_str(d);
        }
        s
    }
}

/// A redundant preservation store with scrubbing and self-healing
/// repair. Construct via [`Vault::builder`].
pub struct Vault {
    backends: Vec<Arc<dyn StorageBackend>>,
    codec: SlotCodec,
    policy: RetryPolicy,
    verifiers: BTreeMap<ObjectKind, Arc<dyn Verifier>>,
    obs: Obs,
}

impl Vault {
    /// Start building a vault.
    pub fn builder() -> VaultBuilder {
        VaultBuilder::new()
    }

    /// Number of backends in the pool.
    pub fn replica_count(&self) -> usize {
        self.backends.len()
    }

    /// The redundancy mode this vault was built with.
    pub fn redundancy(&self) -> Redundancy {
        match &self.codec {
            SlotCodec::Copies(n) => Redundancy::Replicas(*n),
            SlotCodec::Shards(ec) => Redundancy::Erasure {
                k: ec.k(),
                m: ec.m(),
            },
        }
    }

    /// The backend storing slot `i` of `key`'s stripe. Stripes start on
    /// backend `fnv64(key) mod B`, spreading parity (and rebuild load)
    /// across the pool; with at least `k + m` backends no backend holds
    /// two slots of one stripe.
    fn slot_backend(&self, key: &str, slot: usize) -> usize {
        let n = self.backends.len();
        ((fnv64(key.as_bytes()) % n as u64) as usize + slot) % n
    }

    /// Run one backend operation under the retry policy. Transient
    /// failures back off exponentially until the attempt or time budget
    /// runs out; every retry bumps `vault.backend.retries`.
    fn with_retry<T>(&self, f: impl Fn() -> Result<T, StorageError>) -> Result<T, StorageError> {
        let start = Instant::now();
        let mut attempt = 1u32;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(StorageError::Transient(msg)) => {
                    let delay = self.policy.delay_for(attempt);
                    if attempt >= self.policy.max_attempts
                        || start.elapsed() + delay > self.policy.timeout
                    {
                        return Err(StorageError::Transient(msg));
                    }
                    if let Some(reg) = self.obs.registry() {
                        reg.add("vault.backend.retries", 1);
                    }
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Store `payload` as `kind` under `key`, one slot per placed
    /// backend.
    ///
    /// Backends that fail permanently are skipped (and the first such
    /// error returned) *after* all remaining backends were attempted, so
    /// one bad backend never blocks the others from receiving the object
    /// — the next scrub re-converges the stragglers.
    pub fn put(&self, key: &str, kind: ObjectKind, payload: &Bytes) -> Result<(), VaultError> {
        let slots = self.codec.encode(&encode_envelope(kind, payload));
        let mut first_err = None;
        for (i, slot) in slots.iter().enumerate() {
            let backend = &self.backends[self.slot_backend(key, i)];
            if let Err(e) = self.with_retry(|| backend.put(key, slot)) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(VaultError::from(e)),
        }
    }

    /// [`put`](Vault::put) with the kind sniffed from the payload's
    /// leading magic.
    pub fn put_detected(&self, key: &str, payload: &Bytes) -> Result<ObjectKind, VaultError> {
        let kind = ObjectKind::sniff(payload);
        self.put(key, kind, payload)?;
        Ok(kind)
    }

    /// Remove `key` from every backend. Idempotent: deleting an absent
    /// key succeeds, and a backend that fails is skipped so the others
    /// still reclaim — mirroring [`put`](Vault::put)'s one-bad-backend
    /// tolerance. The serve layer leans on this to sweep superseded
    /// stream-chunk generations.
    pub fn delete(&self, key: &str) -> Result<(), VaultError> {
        let mut first_err = None;
        for backend in &self.backends {
            match self.with_retry(|| backend.delete(key)) {
                Ok(()) | Err(StorageError::NotFound(_)) => {}
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(reg) = self.obs.registry() {
            reg.add("vault.deletes", 1);
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(VaultError::from(e)),
        }
    }

    /// Classify: read every slot of `key`'s stripe, consulting
    /// `keep_going` before each read, then classify the stripe as one
    /// batch. `None` once `keep_going` declines.
    fn read_slots(&self, key: &str, keep_going: &dyn Fn() -> bool) -> Option<Vec<Slot>> {
        let mut reads = Vec::with_capacity(self.codec.slots());
        for i in 0..self.codec.slots() {
            if !keep_going() {
                return None;
            }
            let backend = &self.backends[self.slot_backend(key, i)];
            reads.push(self.with_retry(|| backend.get(key)));
        }
        Some(self.codec.classify(reads))
    }

    /// Vote and verify: walk the generations in vote order until one
    /// with at least `k` slots reconstructs and passes end-to-end
    /// verification.
    fn elect(&self, slots: &[Slot]) -> Verdict {
        let mut disqualified = Vec::new();
        let mut failure = None;
        while let Some((gen, have)) = stripe_winner(slots, &disqualified) {
            if have < self.codec.k() {
                return match failure {
                    None => Verdict::Short { gen, have },
                    Some(reason) => Verdict::Damaged(reason),
                };
            }
            match self.verified(slots, gen) {
                Ok(object) => {
                    return Verdict::Verified {
                        gen,
                        object,
                        disqualified,
                    }
                }
                Err(reason) => {
                    failure = Some(reason);
                    disqualified.push(gen);
                }
            }
        }
        let reason = failure.or_else(|| {
            slots.iter().rev().find_map(|s| match s {
                Slot::Corrupt(reason) => Some(reason.clone()),
                _ => None,
            })
        });
        reason.map_or(Verdict::Absent, Verdict::Damaged)
    }

    /// Reconstruct generation `gen` and verify it end to end (object
    /// digest, envelope digest, deep verifier) before anyone trusts the
    /// bytes.
    fn verified(&self, slots: &[Slot], gen: Generation) -> Result<Object, String> {
        let object = self.codec.reconstruct(slots, gen)?;
        if let Some(verifier) = self.verifiers.get(&object.kind) {
            verifier
                .verify(&object.payload)
                .map_err(|reason| format!("deep verification: {reason}"))?;
        }
        Ok(object)
    }

    /// Rewrite the slots of `key` that `stale` selects, each encoded
    /// alone from the verified `envelope` of generation `gen`. Returns
    /// the rewritten slot indices.
    fn repair(
        &self,
        key: &str,
        slots: &[Slot],
        envelope: &Bytes,
        gen: Generation,
        stale: impl Fn(&Slot) -> bool,
    ) -> Vec<usize> {
        (0..slots.len())
            .filter(|&i| stale(&slots[i]))
            .filter(|&i| {
                let slot = self.codec.encode_slot(envelope, gen, i);
                let backend = &self.backends[self.slot_backend(key, i)];
                self.with_retry(|| backend.put(key, &slot)).is_ok()
            })
            .collect()
    }

    /// Checksum-verified read: the winning generation, reconstructed
    /// and verified end to end. Slots found damaged — corrupt, or of a
    /// generation that failed verification — are rewritten in passing
    /// (best-effort). Outvoted digest-valid slots and missing ones wait
    /// for scrub: the read saw each slot at a different instant, so an
    /// outvoted slot may hold a concurrent `put` that has already been
    /// acknowledged.
    pub fn get(&self, key: &str) -> Result<(ObjectKind, Bytes), VaultError> {
        let slots = self
            .read_slots(key, &|| true)
            .expect("an unconditional read never gives way");
        match self.elect(&slots) {
            Verdict::Verified {
                gen,
                object,
                disqualified,
            } => {
                self.repair(key, &slots, &object.envelope, gen, |slot| match slot {
                    Slot::Healthy { gen, .. } => disqualified.contains(gen),
                    Slot::Corrupt(_) => true,
                    Slot::Missing => false,
                });
                Ok((object.kind, object.payload))
            }
            Verdict::Absent => Err(VaultError::NotFound(key.to_string())),
            Verdict::Short { have, .. } => Err(VaultError::Unrecoverable {
                key: key.to_string(),
                have,
                need: self.codec.k(),
            }),
            Verdict::Damaged(reason) => Err(VaultError::Damaged {
                key: key.to_string(),
                reason,
            }),
        }
    }

    /// All keys stored on at least one backend, ascending.
    pub fn keys(&self) -> Result<Vec<String>, VaultError> {
        let mut keys = BTreeSet::new();
        for backend in &self.backends {
            keys.extend(self.with_retry(|| backend.list(""))?);
        }
        Ok(keys.into_iter().collect())
    }

    /// Integrity sweep with self-healing repair: every damaged, outvoted
    /// or missing slot is rewritten byte-identically from the verified
    /// winning generation.
    pub fn scrub(&self) -> Result<ScrubReport, VaultError> {
        self.scan(true, 1)
    }

    /// Integrity sweep without repair — reports damage, changes nothing.
    pub fn verify(&self) -> Result<ScrubReport, VaultError> {
        self.scan(false, 1)
    }

    /// The per-object body of every integrity pass: classify, vote and
    /// verify, count every slot into `report` (slots outside the winning
    /// generation count as corrupt), and with `repair` rewrite them.
    /// `stripe` is the scan-order index used in detail lines. Returns
    /// `None`, having changed nothing, when `keep_going` declines before
    /// a slot read or before the repair writes.
    fn scan_key(
        &self,
        stripe: usize,
        key: &str,
        repair: bool,
        keep_going: &dyn Fn() -> bool,
        report: &mut ScrubReport,
        span: &daspos_obs::Span,
    ) -> Option<()> {
        let slots = self.read_slots(key, keep_going)?;
        if !keep_going() {
            return None;
        }
        let verdict = self.elect(&slots);
        let standing = match &verdict {
            Verdict::Verified { gen, .. } | Verdict::Short { gen, .. } => Some(*gen),
            Verdict::Absent | Verdict::Damaged(_) => None,
        };
        let mut corrupt_here = 0u64;
        let mut missing_here = 0u64;
        for slot in &slots {
            match slot {
                Slot::Missing => missing_here += 1,
                Slot::Healthy { gen, .. } if Some(*gen) == standing => report.checked += 1,
                _ => {
                    report.checked += 1;
                    corrupt_here += 1;
                }
            }
        }
        report.corrupt += corrupt_here;
        report.missing += missing_here;

        let k = self.codec.k();
        let mut repaired_here = 0u64;
        let mut rebuilt_here = 0u64;
        let recovered = matches!(verdict, Verdict::Verified { .. });
        match verdict {
            Verdict::Verified { gen, object, .. } if repair => {
                let rewritten = self.repair(
                    key,
                    &slots,
                    &object.envelope,
                    gen,
                    |slot| !matches!(slot, Slot::Healthy { gen: g, .. } if *g == gen),
                );
                repaired_here = rewritten.len() as u64;
                if self.codec.rebuilds() {
                    rebuilt_here = repaired_here;
                    for i in rewritten {
                        report.details.push(format!(
                            "stripe {stripe}: rebuilt shard {i}/{} on backend {}",
                            slots.len(),
                            self.backends[self.slot_backend(key, i)].name()
                        ));
                    }
                }
            }
            Verdict::Verified { .. } | Verdict::Absent => {}
            Verdict::Short { have, .. } => {
                report.unrecoverable += 1;
                report.lost.push(key.to_string());
                report.details.push(format!(
                    "stripe {stripe}: '{key}' unrecoverable ({have}/{k} shards survive)"
                ));
            }
            Verdict::Damaged(reason) => {
                report.unrecoverable += 1;
                report.lost.push(key.to_string());
                report
                    .details
                    .push(format!("stripe {stripe}: '{key}' is damaged: {reason}"));
            }
        }
        report.repaired += repaired_here;
        report.rebuilt += rebuilt_here;

        if span.enabled() {
            let mut child = span.child_fmt(format_args!("object-{key}"));
            child.field("corrupt", corrupt_here);
            child.field("missing", missing_here);
            child.field("repaired", repaired_here);
            child.field("rebuilt", rebuilt_here);
            child.field("recovered", usize::from(recovered));
            child.finish();
        }
        Some(())
    }

    fn record_scrub_counters(&self, report: &ScrubReport) {
        if let Some(reg) = self.obs.registry() {
            reg.add("vault.scrub.checked", report.checked);
            reg.add("vault.scrub.corrupt", report.corrupt);
            reg.add("vault.scrub.repaired", report.repaired);
            reg.add("vault.scrub.rebuilt", report.rebuilt);
            reg.add("vault.scrub.unrecoverable", report.unrecoverable);
        }
    }

    /// The integrity sweep behind [`scrub`](Vault::scrub) (`repair`) and
    /// [`verify`](Vault::verify): every listed key runs the per-object
    /// pipeline at its stripe index (its position in [`keys`](Vault::keys)),
    /// fanned over up to `threads` workers by the toolkit's one fan-out
    /// engine ([`daspos_hep::par`]), and the per-key reports are absorbed
    /// in key order — so the report, detail lines included, is the same
    /// at every worker count. A key every backend reports absent was
    /// deleted after the listing: it is left out of the report, not
    /// counted as missing slots.
    pub fn scan(&self, repair: bool, threads: usize) -> Result<ScrubReport, VaultError> {
        let keys = self.keys()?;
        let mut span = self
            .obs
            .tracer
            .span(if repair { "scrub" } else { "verify" });
        span.field("replicas", self.backends.len());
        span.field("objects", keys.len());

        let mut report = ScrubReport {
            replicas: self.backends.len(),
            ..ScrubReport::default()
        };
        for part in par::map_chunks(keys.len(), 1, threads, |stripe, _| {
            let mut part = ScrubReport {
                objects: 1,
                ..ScrubReport::default()
            };
            self.scan_key(stripe, &keys[stripe], repair, &|| true, &mut part, &span);
            if part.checked == 0 {
                return ScrubReport::default();
            }
            part
        }) {
            report.absorb(part);
        }
        self.record_scrub_counters(&report);
        span.field("corrupt", report.corrupt);
        span.field("repaired", report.repaired);
        span.field("lost", report.lost.len());
        span.finish();
        Ok(report)
    }

    /// Integrity-check a single object without repairing anything.
    pub fn verify_object(&self, key: &str) -> Result<ScrubReport, VaultError> {
        self.scan_one(key, false, &|| true)
            .map(|r| r.expect("an unconditional verify never gives way"))
    }

    /// Scrub (with repair) a single object — the unit of work the
    /// preservation service's background scrubber interleaves between
    /// foreground requests. `keep_going` is consulted before every slot
    /// read and once more before the vote, verification and repair
    /// writes start. When it turns false the scrub returns `Ok(None)`
    /// having mutated nothing — the caller retries the whole object on a
    /// later tick. This bounds how long a background scrubber can
    /// monopolize the store to one slot read instead of a full sweep.
    /// Reports [`VaultError::NotFound`] when no backend stores the key.
    pub fn scrub_object_while(
        &self,
        key: &str,
        keep_going: &dyn Fn() -> bool,
    ) -> Result<Option<ScrubReport>, VaultError> {
        self.scan_one(key, true, keep_going)
    }

    fn scan_one(
        &self,
        key: &str,
        repair: bool,
        keep_going: &dyn Fn() -> bool,
    ) -> Result<Option<ScrubReport>, VaultError> {
        let mut span = self.obs.tracer.span(if repair {
            "scrub-object"
        } else {
            "verify-object"
        });
        span.field("replicas", self.backends.len());
        let mut report = ScrubReport {
            objects: 1,
            replicas: self.backends.len(),
            ..ScrubReport::default()
        };
        if self
            .scan_key(0, key, repair, keep_going, &mut report, &span)
            .is_none()
        {
            span.field("abandoned", 1usize);
            span.finish();
            return Ok(None);
        }
        if report.checked == 0 {
            // Every backend reported the key absent: not damage, absence.
            return Err(VaultError::NotFound(key.to_string()));
        }
        self.record_scrub_counters(&report);
        span.field("corrupt", report.corrupt);
        span.field("repaired", report.repaired);
        span.finish();
        Ok(Some(report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use crate::flaky::{FlakyBackend, FlakyConfig};
    use daspos_obs::{MemoryCollector, MetricsRegistry};
    use daspos_tiers::codec;

    fn pool(n: usize) -> (Vec<Arc<dyn StorageBackend>>, Vec<Arc<MemoryBackend>>) {
        let mems: Vec<Arc<MemoryBackend>> =
            (0..n).map(|_| Arc::new(MemoryBackend::new())).collect();
        let dyns = mems
            .iter()
            .map(|b| b.clone() as Arc<dyn StorageBackend>)
            .collect();
        (dyns, mems)
    }

    fn three_replica_vault() -> (Vault, Vec<Arc<MemoryBackend>>) {
        let (dyns, mems) = pool(3);
        let vault = Vault::builder()
            .policy(RetryPolicy::none())
            .backends(dyns)
            .redundancy(Redundancy::Replicas(3))
            .build()
            .unwrap();
        (vault, mems)
    }

    fn erasure_vault(k: usize, m: usize, n: usize) -> (Vault, Vec<Arc<MemoryBackend>>) {
        let (dyns, mems) = pool(n);
        let vault = Vault::builder()
            .policy(RetryPolicy::none())
            .backends(dyns)
            .redundancy(Redundancy::Erasure { k, m })
            .build()
            .unwrap();
        (vault, mems)
    }

    #[test]
    fn build_requires_a_backend() {
        assert!(matches!(
            Vault::builder().build(),
            Err(VaultError::NoReplicas)
        ));
    }

    #[test]
    fn build_validates_the_geometry() {
        let (dyns, _) = pool(3);
        assert!(matches!(
            Vault::builder()
                .backends(dyns)
                .redundancy(Redundancy::Replicas(2))
                .build(),
            Err(VaultError::Geometry(_))
        ));
        let (dyns, _) = pool(3);
        assert!(matches!(
            Vault::builder()
                .backends(dyns)
                .redundancy(Redundancy::Erasure { k: 4, m: 2 })
                .build(),
            Err(VaultError::Geometry(_))
        ));
        let (dyns, _) = pool(2);
        assert!(matches!(
            Vault::builder()
                .backends(dyns)
                .redundancy(Redundancy::Erasure { k: 0, m: 2 })
                .build(),
            Err(VaultError::Geometry(_))
        ));
        // Defaults: full-pool replication.
        let (dyns, _) = pool(2);
        let vault = Vault::builder().backends(dyns).build().unwrap();
        assert_eq!(vault.redundancy(), Redundancy::Replicas(2));
    }

    #[test]
    fn put_replicates_and_get_round_trips() {
        let (vault, backends) = three_replica_vault();
        let payload = Bytes::from_static(b"artifact bytes");
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        for b in &backends {
            assert_eq!(b.len(), 1, "every replica holds a copy");
        }
        let (kind, got) = vault.get("obj").unwrap();
        assert_eq!(kind, ObjectKind::Opaque);
        assert_eq!(got, payload);
        assert!(matches!(vault.get("nope"), Err(VaultError::NotFound(_))));
    }

    #[test]
    fn get_falls_back_past_a_corrupt_replica_and_heals_it() {
        let (vault, backends) = three_replica_vault();
        let payload = Bytes::from_static(b"precious");
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let pristine = backends[1].get("obj").unwrap();
        // Rot replica 0.
        let mut rotten = pristine.to_vec();
        let last = rotten.len() - 1;
        rotten[last] ^= 0x01;
        backends[0].put("obj", &Bytes::from(rotten)).unwrap();

        let (_, got) = vault.get("obj").unwrap();
        assert_eq!(got, payload, "read falls back to the healthy copy");
        assert_eq!(
            backends[0].get("obj").unwrap(),
            pristine,
            "heal-on-get rewrote replica 0 byte-identically"
        );
    }

    #[test]
    fn get_reports_damaged_when_no_copy_survives() {
        let (vault, backends) = three_replica_vault();
        vault
            .put("obj", ObjectKind::Opaque, &Bytes::from_static(b"x"))
            .unwrap();
        for b in &backends {
            b.put("obj", &Bytes::from_static(b"garbage")).unwrap();
        }
        assert!(matches!(vault.get("obj"), Err(VaultError::Damaged { .. })));
    }

    #[test]
    fn scrub_repairs_corrupt_and_missing_copies_byte_identically() {
        let (vault, backends) = three_replica_vault();
        let sealed = codec::seal(&Bytes::from_static(b"tier payload"));
        vault.put("tier", ObjectKind::SealedTier, &sealed).unwrap();
        vault
            .put("blob", ObjectKind::Opaque, &Bytes::from_static(b"blob"))
            .unwrap();
        let pristine = backends[0].get("tier").unwrap();

        // Damage one copy, drop another.
        let mut rotten = pristine.to_vec();
        rotten[pristine.len() / 2] ^= 0x40;
        backends[2].put("tier", &Bytes::from(rotten)).unwrap();
        backends[1].delete("blob").unwrap();

        let report = vault.scrub().unwrap();
        assert_eq!(report.objects, 2);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.missing, 1);
        assert_eq!(report.repaired, 2);
        assert_eq!(report.rebuilt, 0, "replica repair copies, never rebuilds");
        assert!(report.clean(), "{}", report.to_text());
        assert_eq!(backends[2].get("tier").unwrap(), pristine);
        assert_eq!(
            backends[1].get("blob").unwrap(),
            backends[0].get("blob").unwrap()
        );

        // A second pass finds nothing to do.
        let again = vault.verify().unwrap();
        assert_eq!(again.corrupt + again.missing, 0);
        assert!(again.clean());
    }

    #[test]
    fn object_scrub_repairs_one_key_and_reports_absence() {
        let (vault, backends) = three_replica_vault();
        vault
            .put("a", ObjectKind::Opaque, &Bytes::from_static(b"aa"))
            .unwrap();
        vault
            .put("b", ObjectKind::Opaque, &Bytes::from_static(b"bb"))
            .unwrap();
        backends[1].put("a", &Bytes::from_static(b"rot")).unwrap();
        backends[2].delete("b").unwrap();

        // Scrubbing 'a' repairs 'a' only; 'b' stays damaged.
        let report = vault.scrub_object_while("a", &|| true).unwrap().unwrap();
        assert_eq!((report.objects, report.corrupt, report.repaired), (1, 1, 1));
        assert!(report.clean(), "{}", report.to_text());
        assert!(matches!(
            backends[2].get("b"),
            Err(StorageError::NotFound(_))
        ));

        // verify_object reports without repairing.
        let report = vault.verify_object("b").unwrap();
        assert_eq!((report.missing, report.repaired), (1, 0));
        assert!(matches!(
            backends[2].get("b"),
            Err(StorageError::NotFound(_))
        ));

        assert!(matches!(
            vault.scrub_object_while("nope", &|| true),
            Err(VaultError::NotFound(_))
        ));
    }

    #[test]
    fn scrub_object_while_abandons_without_mutating_and_completes_when_idle() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let (vault, backends) = three_replica_vault();
        vault
            .put("a", ObjectKind::Opaque, &Bytes::from_static(b"aa"))
            .unwrap();
        backends[1].put("a", &Bytes::from_static(b"rot")).unwrap();

        // "Traffic arrives" after the first replica classification: the
        // scrub abandons the object and the damaged copy stays damaged.
        let calls = AtomicUsize::new(0);
        let verdict = vault
            .scrub_object_while("a", &|| calls.fetch_add(1, Ordering::Relaxed) == 0)
            .unwrap();
        assert!(verdict.is_none(), "mid-object arrival must abandon");
        assert_eq!(
            backends[1].get("a").unwrap(),
            Bytes::from_static(b"rot"),
            "an abandoned scrub must not have repaired anything"
        );

        // An undisturbed pass repairs.
        let report = vault
            .scrub_object_while("a", &|| true)
            .unwrap()
            .expect("undisturbed scrub completes");
        assert_eq!((report.objects, report.corrupt, report.repaired), (1, 1, 1));
        assert_eq!(
            backends[1].get("a").unwrap(),
            backends[0].get("a").unwrap(),
            "repair must restore the healthy envelope byte-identically"
        );

        assert!(matches!(
            vault.scrub_object_while("nope", &|| true),
            Err(VaultError::NotFound(_))
        ));
    }

    #[test]
    fn verify_reports_without_touching_replicas() {
        let (vault, backends) = three_replica_vault();
        vault
            .put("obj", ObjectKind::Opaque, &Bytes::from_static(b"x"))
            .unwrap();
        backends[0].put("obj", &Bytes::from_static(b"bad")).unwrap();
        let report = vault.verify().unwrap();
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.repaired, 0);
        assert!(!report.clean());
        assert_eq!(
            backends[0].get("obj").unwrap(),
            Bytes::from_static(b"bad"),
            "verify must not repair"
        );
    }

    #[test]
    fn scrub_reports_lost_objects() {
        let (vault, backends) = three_replica_vault();
        vault
            .put("obj", ObjectKind::Opaque, &Bytes::from_static(b"x"))
            .unwrap();
        for b in &backends {
            b.put("obj", &Bytes::from_static(b"all copies rotten"))
                .unwrap();
        }
        let report = vault.scrub().unwrap();
        assert_eq!(report.lost, vec!["obj".to_string()]);
        assert!(!report.clean());
    }

    #[test]
    fn deep_verifier_catches_semantic_rot_under_a_valid_envelope() {
        // A payload that *claims* to be a sealed tier but is not: the
        // envelope digest passes (the envelope was written over the bad
        // payload), so only the deep verifier can flag it.
        let (vault, _backends) = three_replica_vault();
        vault
            .put(
                "fake",
                ObjectKind::SealedTier,
                &Bytes::from_static(b"not a seal"),
            )
            .unwrap();
        let report = vault.verify().unwrap();
        assert_eq!(report.corrupt, 3, "every copy fails deep verification");
        assert!(matches!(vault.get("fake"), Err(VaultError::Damaged { .. })));
    }

    #[test]
    fn retry_policy_rides_out_transient_faults_and_counts_retries() {
        let registry = Arc::new(MetricsRegistry::new());
        let inner = Arc::new(MemoryBackend::new());
        let flaky = Arc::new(FlakyBackend::new(inner, FlakyConfig::transient(42, 0.4)));
        let vault = Vault::builder()
            .backends(vec![flaky])
            .policy(RetryPolicy::immediate(8))
            .with_obs(Obs::metrics_only(registry.clone()))
            .build()
            .unwrap();
        let payload = Bytes::from_static(b"survives flakiness");
        for i in 0..16 {
            vault
                .put(&format!("obj-{i}"), ObjectKind::Opaque, &payload)
                .unwrap();
        }
        for i in 0..16 {
            let (_, got) = vault.get(&format!("obj-{i}")).unwrap();
            assert_eq!(got, payload);
        }
        assert!(
            registry.snapshot().counter("vault.backend.retries") > 0,
            "a 40% transient rate must have forced at least one retry"
        );
    }

    #[test]
    fn scrub_emits_spans_and_counters() {
        let collector = Arc::new(MemoryCollector::new());
        let registry = Arc::new(MetricsRegistry::new());
        let (dyns, backends) = pool(2);
        let vault = Vault::builder()
            .policy(RetryPolicy::none())
            .with_obs(Obs::collecting(collector.clone(), registry.clone()))
            .backends(dyns)
            .build()
            .unwrap();
        vault
            .put("obj", ObjectKind::Opaque, &Bytes::from_static(b"x"))
            .unwrap();
        backends[1].put("obj", &Bytes::from_static(b"rot")).unwrap();
        let report = vault.scrub().unwrap();
        assert!(report.clean());

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("vault.scrub.checked"), 2);
        assert_eq!(snapshot.counter("vault.scrub.corrupt"), 1);
        assert_eq!(snapshot.counter("vault.scrub.repaired"), 1);
        assert_eq!(snapshot.counter("vault.scrub.rebuilt"), 0);
        let paths: Vec<String> = collector
            .sorted_records()
            .into_iter()
            .map(|r| r.path)
            .collect();
        assert_eq!(
            paths,
            vec!["scrub".to_string(), "scrub/object-obj".to_string()]
        );
    }

    // ---- erasure mode ----

    #[test]
    fn erasure_put_spreads_one_shard_per_backend_and_get_round_trips() {
        let (vault, backends) = erasure_vault(4, 2, 6);
        let payload = Bytes::from((0..5000u32).map(|i| i as u8).collect::<Vec<u8>>());
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let envelope_len = crate::object::ENVELOPE_OVERHEAD + payload.len();
        for b in &backends {
            assert_eq!(b.len(), 1, "placement puts exactly one shard per backend");
            let shard = b.get("obj").unwrap();
            assert!(
                shard.len() < envelope_len / 2,
                "a shard must be a fraction of the object, got {} of {envelope_len}",
                shard.len()
            );
        }
        let (kind, got) = vault.get("obj").unwrap();
        assert_eq!(kind, ObjectKind::Opaque);
        assert_eq!(got, payload);
        assert!(matches!(vault.get("nope"), Err(VaultError::NotFound(_))));
    }

    #[test]
    fn erasure_survives_any_m_whole_backend_losses() {
        let payload = Bytes::from((0..3000u32).map(|i| (i * 7) as u8).collect::<Vec<u8>>());
        // Every pair of dead backends out of 6 — the acceptance drill.
        for dead_a in 0..6 {
            for dead_b in (dead_a + 1)..6 {
                let (vault, backends) = erasure_vault(4, 2, 6);
                vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
                backends[dead_a].delete("obj").unwrap();
                backends[dead_b].delete("obj").unwrap();
                let (_, got) = vault.get("obj").unwrap();
                assert_eq!(got, payload, "dead backends {dead_a},{dead_b}");
            }
        }
    }

    #[test]
    fn erasure_scrub_rebuilds_lost_shards_byte_identically() {
        let registry = Arc::new(MetricsRegistry::new());
        let (dyns, backends) = pool(6);
        let vault = Vault::builder()
            .policy(RetryPolicy::none())
            .backends(dyns)
            .redundancy(Redundancy::Erasure { k: 4, m: 2 })
            .with_obs(Obs::metrics_only(registry.clone()))
            .build()
            .unwrap();
        let payload = Bytes::from_static(b"stripe me across six backends please");
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let pristine: Vec<Bytes> = backends.iter().map(|b| b.get("obj").unwrap()).collect();

        // Lose one whole backend's shard, rot another.
        backends[0].delete("obj").unwrap();
        let mut rotten = pristine[3].to_vec();
        rotten[pristine[3].len() - 1] ^= 0x80;
        backends[3].put("obj", &Bytes::from(rotten)).unwrap();

        let report = vault.scrub().unwrap();
        assert_eq!(report.missing, 1);
        assert_eq!(report.corrupt, 1);
        assert_eq!(report.repaired, 2);
        assert_eq!(report.rebuilt, 2);
        assert!(report.clean(), "{}", report.to_text());
        assert!(
            report.to_text().contains("rebuilt shard"),
            "detail lines name the rebuilt shards: {}",
            report.to_text()
        );
        for (b, orig) in backends.iter().zip(&pristine) {
            assert_eq!(&b.get("obj").unwrap(), orig, "rebuild is byte-identical");
        }
        assert_eq!(registry.snapshot().counter("vault.scrub.rebuilt"), 2);
    }

    #[test]
    fn erasure_beyond_m_losses_is_unrecoverable_never_wrong_bytes() {
        let (vault, backends) = erasure_vault(4, 2, 6);
        let payload = Bytes::from_static(b"too much damage to survive");
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let survivors: Vec<Bytes> = backends[3..].iter().map(|b| b.get("obj").unwrap()).collect();
        for b in &backends[..3] {
            b.delete("obj").unwrap();
        }
        match vault.get("obj") {
            Err(VaultError::Unrecoverable { have, need, .. }) => {
                assert_eq!((have, need), (3, 4));
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
        let report = vault.scrub().unwrap();
        assert!(!report.clean());
        assert_eq!(report.unrecoverable, 1);
        assert_eq!(report.lost, vec!["obj".to_string()]);
        assert!(report.to_text().contains("unrecoverable"), "{}", report.to_text());
        // The scrub must not have fabricated anything: survivors are
        // untouched, the dead slots stay empty.
        for (b, orig) in backends[3..].iter().zip(&survivors) {
            assert_eq!(&b.get("obj").unwrap(), orig);
        }
        for b in &backends[..3] {
            assert!(matches!(b.get("obj"), Err(StorageError::NotFound(_))));
        }
    }

    #[test]
    fn erasure_geometry_tampering_with_recomputed_digest_is_caught() {
        use crate::shard::{decode_shard, encode_shard};
        let (vault, backends) = erasure_vault(4, 2, 6);
        let payload = Bytes::from_static(b"tamper with my geometry");
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let victim = backends[2].get("obj").unwrap();
        let (mut header, shard_payload) = decode_shard(&victim).unwrap();
        let pristine = victim.clone();
        // Re-route the shard to a different stripe position and
        // recompute the digest so the envelope itself verifies.
        header.index = (header.index + 1) % 6;
        backends[2]
            .put("obj", &encode_shard(&header, &shard_payload))
            .unwrap();

        let report = vault.scrub().unwrap();
        assert_eq!(report.corrupt, 1, "forged geometry must classify corrupt");
        assert_eq!(report.rebuilt, 1);
        assert!(report.clean(), "{}", report.to_text());
        assert_eq!(backends[2].get("obj").unwrap(), pristine);
        let (_, got) = vault.get("obj").unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn erasure_outvotes_a_divergent_write_generation() {
        // A stale shard from an older object generation (as a racing
        // write would leave behind) is outvoted and re-converged.
        let (vault, backends) = erasure_vault(4, 2, 6);
        let old = Bytes::from_static(b"generation one");
        let new = Bytes::from_static(b"generation two, the winner");
        vault.put("obj", ObjectKind::Opaque, &old).unwrap();
        let stale = backends[1].get("obj").unwrap();
        vault.put("obj", ObjectKind::Opaque, &new).unwrap();
        backends[1].put("obj", &stale).unwrap();

        let (_, got) = vault.get("obj").unwrap();
        assert_eq!(got, new, "five fresh shards outvote one stale shard");

        let report = vault.scrub().unwrap();
        assert!(report.clean(), "{}", report.to_text());
        let (_, after) = vault.get("obj").unwrap();
        assert_eq!(after, new);
        // All six slots now agree on the winning generation.
        let digests: BTreeSet<Vec<u8>> = backends
            .iter()
            .map(|b| b.get("obj").unwrap().to_vec())
            .collect();
        assert_eq!(digests.len(), 6, "six distinct shards, one generation");
    }

    #[test]
    fn replicas_outvote_a_divergent_write_generation() {
        // A copy left behind by an older put (as a put that reached only
        // some backends would leave) is outvoted, not served.
        let (vault, backends) = three_replica_vault();
        let old = Bytes::from_static(b"generation one");
        let new = Bytes::from_static(b"generation two, the winner");
        vault.put("obj", ObjectKind::Opaque, &old).unwrap();
        let stale = backends[0].get("obj").unwrap();
        vault.put("obj", ObjectKind::Opaque, &new).unwrap();
        backends[0].put("obj", &stale).unwrap();

        let report = vault.verify().unwrap();
        assert_eq!(report.corrupt, 1, "the stale copy is outvoted");
        let (_, got) = vault.get("obj").unwrap();
        assert_eq!(got, new, "two fresh copies outvote one stale copy");
        assert_eq!(
            backends[0].get("obj").unwrap(),
            stale,
            "get leaves a digest-valid outvoted copy to scrub"
        );

        let report = vault.scrub().unwrap();
        assert_eq!((report.corrupt, report.repaired), (1, 1));
        assert!(report.clean(), "{}", report.to_text());
        let fresh = encode_envelope(ObjectKind::Opaque, &new);
        for b in &backends {
            assert_eq!(b.get("obj").unwrap(), fresh, "every copy holds the winner");
        }
    }

    #[test]
    fn replica_tie_converges_on_one_generation() {
        let (dyns, backends) = pool(2);
        let vault = Vault::builder()
            .policy(RetryPolicy::none())
            .backends(dyns)
            .redundancy(Redundancy::Replicas(2))
            .build()
            .unwrap();
        vault
            .put("obj", ObjectKind::Opaque, &Bytes::from_static(b"left"))
            .unwrap();
        let left = backends[0].get("obj").unwrap();
        vault
            .put("obj", ObjectKind::Opaque, &Bytes::from_static(b"right"))
            .unwrap();
        backends[0].put("obj", &left).unwrap();

        let report = vault.scrub().unwrap();
        assert_eq!((report.corrupt, report.repaired), (1, 1));
        assert!(report.clean(), "{}", report.to_text());
        assert_eq!(
            backends[0].get("obj").unwrap(),
            backends[1].get("obj").unwrap()
        );
        let again = vault.verify().unwrap();
        assert!(again.clean() && again.corrupt == 0, "{}", again.to_text());
    }

    type Hook = Arc<std::sync::Mutex<Option<Box<dyn FnOnce() + Send>>>>;

    /// A backend that runs a hook just before its `hook_at`-th `get`
    /// (counted across every backend sharing `gets`).
    struct HookedBackend {
        inner: Arc<MemoryBackend>,
        gets: Arc<std::sync::atomic::AtomicUsize>,
        hook_at: usize,
        hook: Hook,
    }

    impl StorageBackend for HookedBackend {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn put(&self, key: &str, data: &Bytes) -> Result<(), StorageError> {
            self.inner.put(key, data)
        }
        fn get(&self, key: &str) -> Result<Bytes, StorageError> {
            let n = self.gets.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
            if n == self.hook_at {
                if let Some(hook) = self.hook.lock().unwrap().take() {
                    hook();
                }
            }
            self.inner.get(key)
        }
        fn delete(&self, key: &str) -> Result<(), StorageError> {
            self.inner.delete(key)
        }
        fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
            self.inner.list(prefix)
        }
    }

    #[test]
    fn get_racing_a_put_never_reverts_the_acknowledged_write() {
        // Replicas(2): the get reads one copy of v1, then a put of v2
        // lands on both backends and is acknowledged, then the get reads
        // the second copy (v2). The 1-1 tie favors the longer v1, which
        // the get may return — but it must not write v1 over v2.
        let (dyns, mems) = pool(2);
        let writer = Vault::builder()
            .policy(RetryPolicy::none())
            .backends(dyns)
            .redundancy(Redundancy::Replicas(2))
            .build()
            .unwrap();
        let old = Bytes::from_static(b"generation one, the longer payload");
        let new = Bytes::from_static(b"generation two");
        writer.put("obj", ObjectKind::Opaque, &old).unwrap();

        let gets = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let hook: Hook = Arc::new(std::sync::Mutex::new(None));
        let hooked: Vec<Arc<dyn StorageBackend>> = mems
            .iter()
            .map(|m| {
                Arc::new(HookedBackend {
                    inner: m.clone(),
                    gets: gets.clone(),
                    hook_at: 2,
                    hook: hook.clone(),
                }) as Arc<dyn StorageBackend>
            })
            .collect();
        let reader = Vault::builder()
            .policy(RetryPolicy::none())
            .backends(hooked)
            .redundancy(Redundancy::Replicas(2))
            .build()
            .unwrap();
        let writer = Arc::new(writer);
        let racing = {
            let writer = writer.clone();
            let new = new.clone();
            move || writer.put("obj", ObjectKind::Opaque, &new).unwrap()
        };
        *hook.lock().unwrap() = Some(Box::new(racing));

        let (_, got) = reader.get("obj").unwrap();
        assert_eq!(got, old, "the tie favors the longer generation");
        let fresh = encode_envelope(ObjectKind::Opaque, &new);
        for m in &mems {
            assert_eq!(
                m.get("obj").unwrap(),
                fresh,
                "the acknowledged put survives"
            );
        }
        let (_, after) = writer.get("obj").unwrap();
        assert_eq!(after, new);
    }

    #[test]
    fn erasure_heal_on_get_rewrites_corrupt_slots() {
        let (vault, backends) = erasure_vault(2, 1, 3);
        let payload = Bytes::from_static(b"heal my shards in passing");
        vault.put("obj", ObjectKind::Opaque, &payload).unwrap();
        let pristine: Vec<Bytes> = backends.iter().map(|b| b.get("obj").unwrap()).collect();
        let mut rotten = pristine[0].to_vec();
        rotten[0] ^= 0xFF;
        backends[0].put("obj", &Bytes::from(rotten)).unwrap();

        let (_, got) = vault.get("obj").unwrap();
        assert_eq!(got, payload);
        assert_eq!(
            backends[0].get("obj").unwrap(),
            pristine[0],
            "heal-on-get rewrote the corrupt shard byte-identically"
        );
    }

    #[test]
    fn placement_never_doubles_up_within_a_stripe() {
        let (dyns, _) = pool(6);
        let vault = Vault::builder()
            .backends(dyns)
            .redundancy(Redundancy::Erasure { k: 4, m: 2 })
            .build()
            .unwrap();
        for key in ["a", "tier-aod.dpef", "some-very-long-key-name.dpar"] {
            let slots: BTreeSet<usize> = (0..6).map(|i| vault.slot_backend(key, i)).collect();
            assert_eq!(slots.len(), 6, "{key}");
        }
        // Key rotation actually rotates: different keys start on
        // different backends (for at least one pair among a few keys).
        let starts: BTreeSet<usize> = ["a", "b", "c", "d", "e", "f", "g"]
            .iter()
            .map(|k| vault.slot_backend(k, 0))
            .collect();
        assert!(starts.len() > 1, "rotation must vary the starting backend");
    }

    #[test]
    fn erasure_deep_verifier_rejects_semantic_rot_after_reconstruction() {
        let (vault, _) = erasure_vault(4, 2, 6);
        vault
            .put(
                "fake",
                ObjectKind::SealedTier,
                &Bytes::from_static(b"not a seal"),
            )
            .unwrap();
        assert!(matches!(vault.get("fake"), Err(VaultError::Damaged { .. })));
        let report = vault.scrub().unwrap();
        assert!(!report.clean());
        assert_eq!(report.lost, vec!["fake".to_string()]);
    }

    /// Three identical 4+2 erasure stores of 40 objects with the same
    /// damage: one whole backend lost, shards rotted on two objects, and
    /// `obj-17` cut to three shards (lost beyond repair).
    fn damaged_erasure_stores() -> Vec<Vault> {
        (0..3)
            .map(|_| {
                let (vault, backends) = erasure_vault(4, 2, 6);
                for i in 0..40u8 {
                    let payload = Bytes::from(vec![i; 100 + 13 * i as usize]);
                    vault
                        .put(&format!("obj-{i:02}"), ObjectKind::Opaque, &payload)
                        .unwrap();
                }
                for key in backends[2].list("").unwrap() {
                    backends[2].delete(&key).unwrap();
                }
                for (key, backend) in [("obj-05", 0), ("obj-31", 4)] {
                    let mut rotten = backends[backend].get(key).unwrap().to_vec();
                    rotten[20] ^= 0x10;
                    backends[backend].put(key, &Bytes::from(rotten)).unwrap();
                }
                for backend in [0, 1] {
                    backends[backend].delete("obj-17").unwrap();
                }
                vault
            })
            .collect()
    }

    #[test]
    fn threaded_verify_report_equals_the_sequential_one() {
        let vault = damaged_erasure_stores().swap_remove(0);
        let sequential = vault.verify().unwrap();
        assert_eq!(sequential.lost, vec!["obj-17".to_string()]);
        assert!(sequential
            .details
            .iter()
            .any(|d| d.starts_with("stripe 17: ")));
        for threads in [2, 4] {
            assert_eq!(
                vault.scan(false, threads).unwrap(),
                sequential,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn threaded_scrub_report_equals_the_sequential_one() {
        let mut stores = damaged_erasure_stores();
        let sequential = stores[0].scrub().unwrap();
        assert!(sequential.rebuilt > 30, "{}", sequential.to_text());
        assert_eq!(sequential.lost, vec!["obj-17".to_string()]);
        assert!(sequential
            .details
            .iter()
            .any(|d| d.starts_with("stripe 31: rebuilt shard")));
        for (vault, threads) in stores.drain(1..).zip([2, 4]) {
            assert_eq!(
                vault.scan(true, threads).unwrap(),
                sequential,
                "threads={threads}"
            );
            // Healed, except the three shards `obj-17` cannot get back.
            let again = vault.scan(false, threads).unwrap();
            assert_eq!(
                (again.corrupt, again.missing),
                (0, 3),
                "{}",
                again.to_text()
            );
            assert_eq!(again.lost, vec!["obj-17".to_string()]);
        }
    }

    #[test]
    fn keys_deleted_after_the_listing_are_left_out_of_the_scan() {
        // The first slot read of the sweep deletes `b` from every
        // backend: its stripe then reads as absent, not as damage.
        let mems: Vec<Arc<MemoryBackend>> =
            (0..2).map(|_| Arc::new(MemoryBackend::new())).collect();
        let doomed = mems.clone();
        let hook: Hook = Arc::new(std::sync::Mutex::new(Some(Box::new(move || {
            for backend in &doomed {
                backend.delete("b").unwrap();
            }
        }))));
        let gets = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let vault = Vault::builder()
            .backends(
                mems.iter()
                    .map(|inner| {
                        Arc::new(HookedBackend {
                            inner: inner.clone(),
                            gets: gets.clone(),
                            hook_at: 1,
                            hook: hook.clone(),
                        }) as Arc<dyn StorageBackend>
                    })
                    .collect(),
            )
            .redundancy(Redundancy::Replicas(2))
            .build()
            .unwrap();
        for key in ["a", "b", "c"] {
            vault
                .put(key, ObjectKind::Opaque, &Bytes::from_static(b"x"))
                .unwrap();
        }
        gets.store(0, std::sync::atomic::Ordering::SeqCst);
        assert!(mems.iter().all(|m| m.get("b").is_ok()));
        let report = vault.verify().unwrap();
        assert_eq!((report.objects, report.checked, report.missing), (2, 4, 0));
        assert!(report.clean(), "{}", report.to_text());
    }

    #[test]
    fn scrub_report_absorb_merges_counts_and_details() {
        let mut a = ScrubReport {
            objects: 1,
            replicas: 6,
            checked: 6,
            corrupt: 1,
            missing: 0,
            repaired: 1,
            rebuilt: 1,
            unrecoverable: 0,
            lost: vec![],
            details: vec!["stripe 0: rebuilt shard 1/6 on backend memory".to_string()],
        };
        let b = ScrubReport {
            objects: 1,
            replicas: 6,
            checked: 4,
            corrupt: 2,
            missing: 2,
            repaired: 0,
            rebuilt: 0,
            unrecoverable: 1,
            lost: vec!["gone".to_string()],
            details: vec!["stripe 1: 'gone' unrecoverable (2/4 shards survive)".to_string()],
        };
        a.absorb(b);
        assert_eq!(a.objects, 2);
        assert_eq!(a.checked, 10);
        assert_eq!(a.corrupt, 3);
        assert_eq!(a.missing, 2);
        assert_eq!(a.unrecoverable, 1);
        assert_eq!(a.lost, vec!["gone".to_string()]);
        assert_eq!(a.details.len(), 2);
        assert!(!a.clean());
    }
}
