//! Deterministic fault-injection campaigns for the preservation chain.
//!
//! Preservation is only real if degradation is *caught*: the DPHEP
//! validation-framework line of work argues that archives must be
//! attacked continuously, not trusted. This module turns PR 1's ad-hoc
//! corrupt-file hardening into a systematic tool: a seed-driven mutation
//! engine over every serialized surface the toolkit ships — sealed DPEF
//! tier files, `PreservationArchive` containers, conditions-snapshot
//! text, reference-results text, single replica copies inside a
//! preservation vault, and whole stripes of the sharded erasure vault
//! (dead backends, correlated shard rot, geometry forgeries, losses
//! beyond the parity budget, scrub/write races) — and a campaign runner
//! that asserts the invariant
//!
//! > **every mutation is either detected (a clean error or a failed
//! > checksum) or harmless (the decoded content is identical to the
//! > original)** — never a panic, never a silently wrong reproduction.
//!
//! Every mutation's RNG seed is derived from `(master_seed, class,
//! index)` by a pure function, so any failure a campaign finds is
//! replayable in isolation with [`replay`] — no shrinking or corpus
//! files needed, the coordinates are the reproducer.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bytes::Bytes;
use daspos_conditions::Snapshot;
use daspos_detsim::raw::RawEvent;
use daspos_detsim::Experiment;
use daspos_provenance::Platform;
use daspos_reco::objects::AodEvent;
use daspos_tiers::codec::{self, Encodable};
use daspos_tiers::ColumnarFile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use daspos_obs::Obs;
use daspos_serve::proto as serve_proto;
use daspos_serve::stream as serve_stream;
use daspos_serve::{
    Op as ServeOp, Request as ServeRequest, Response as ServeResponse, ServeConfig, Service,
    Status as ServeStatus,
};
use daspos_vault::{
    decode_shard, encode_envelope, encode_shard, MemoryBackend, ObjectKind, Redundancy,
    StorageBackend, Vault, VaultError, ENVELOPE_OVERHEAD, SHARD_OVERHEAD,
};

use crate::archive::{sections, ContainerVerifier, PreservationArchive};
use crate::error::Error;
use crate::runner::ExecOptions;
use crate::validate::{RerunCache, ValidationReport, Validator};
use crate::workflow::{ExecutionContext, PreservedWorkflow};

/// The serialized surfaces a campaign attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArtifactClass {
    /// A sealed DPEF AOD tier file.
    TierAod,
    /// A sealed DPEF RAW tier file.
    TierRaw,
    /// A serialized `PreservationArchive` container.
    Archive,
    /// The conditions-snapshot shippable text.
    ConditionsText,
    /// The reference-results text, attacked as a checksum-preserving
    /// forgery inside an otherwise pristine archive — only re-execution
    /// can catch it.
    ResultsText,
    /// One replica copy inside a 3-replica preservation vault. The
    /// invariant is stronger here: the damage must be detected by a
    /// scrub pass AND repaired byte-identically from the surviving
    /// replicas (or the mutation left the copy byte-identical).
    VaultReplica,
    /// A columnar `DPCF` AOD tier file: the offset table, per-column
    /// digests and independently framed columns are all in scope. On
    /// v2 files half the mutations target the per-column encodings
    /// directly — encoding-tag flips, dictionary/counts-prologue
    /// corruption, and truncations inside the varint/RLE streams.
    ColumnarTier,
    /// One DPRQ/DPRS wire frame of the preservation service (length
    /// prefix + sealed body). Request frames are judged through the live
    /// service dispatch: a mutation must come back as a typed
    /// `BadRequest` or leave the frame byte-identical, and the tenant's
    /// stored objects must survive either way. Response frames attack
    /// the client-side decoder.
    ServeFrame,
    /// One stripe of a sharded erasure vault (`DPVS` shards spread 4+2
    /// over six backends). Scenarios go beyond byte noise: an entire
    /// backend dies, up to `m` shards rot at once, geometry fields are
    /// forged under an honestly recomputed digest, more than `m` shards
    /// vanish (the vault must report the object unrecoverable, never
    /// fabricate bytes), and a scrub races a write arriving through the
    /// live service dispatch.
    VaultShard,
}

impl ArtifactClass {
    /// Every class, in campaign order.
    pub fn all() -> [ArtifactClass; 9] {
        [
            ArtifactClass::TierAod,
            ArtifactClass::TierRaw,
            ArtifactClass::Archive,
            ArtifactClass::ConditionsText,
            ArtifactClass::ResultsText,
            ArtifactClass::VaultReplica,
            ArtifactClass::ColumnarTier,
            ArtifactClass::ServeFrame,
            ArtifactClass::VaultShard,
        ]
    }

    /// Stable short name (used in reports and `--replay class:index`).
    pub fn name(self) -> &'static str {
        match self {
            ArtifactClass::TierAod => "tier-aod",
            ArtifactClass::TierRaw => "tier-raw",
            ArtifactClass::Archive => "archive",
            ArtifactClass::ConditionsText => "conditions-text",
            ArtifactClass::ResultsText => "results-text",
            ArtifactClass::VaultReplica => "vault-replica",
            ArtifactClass::ColumnarTier => "columnar-tier",
            ArtifactClass::ServeFrame => "serve-frame",
            ArtifactClass::VaultShard => "vault-shard",
        }
    }

    /// Inverse of [`ArtifactClass::name`].
    pub fn parse(s: &str) -> Option<ArtifactClass> {
        ArtifactClass::all().into_iter().find(|c| c.name() == s)
    }
}

impl fmt::Display for ArtifactClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structure-aware mutation of a serialized artifact.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationKind {
    /// Flip one bit.
    BitFlip {
        /// Byte offset.
        offset: usize,
        /// Bit within the byte (0–7).
        bit: u8,
    },
    /// Overwrite one byte.
    ByteSet {
        /// Byte offset.
        offset: usize,
        /// Replacement value.
        value: u8,
    },
    /// Cut the artifact at an arbitrary length.
    Truncate {
        /// Surviving prefix length.
        len: usize,
    },
    /// Cut the artifact exactly at a structural boundary (frame start,
    /// section start, line start) — the truncations plain `Truncate`
    /// rarely hits but real storage failures produce.
    TruncateAtBoundary {
        /// Surviving prefix length (a boundary offset).
        len: usize,
    },
    /// Overwrite 4 bytes with a huge little-endian length/count value —
    /// the classic unbounded-allocation attack on length-prefixed
    /// formats.
    InflateLength {
        /// Byte offset of the 4-byte field.
        offset: usize,
        /// Inflated value written there.
        value: u32,
    },
    /// Swap two equal-length regions.
    SwapRegions {
        /// First region start.
        a: usize,
        /// Second region start.
        b: usize,
        /// Region length.
        len: usize,
    },
    /// Remove a region entirely.
    DropRegion {
        /// Region start.
        start: usize,
        /// Region length.
        len: usize,
    },
    /// Duplicate a region in place.
    DuplicateRegion {
        /// Region start.
        start: usize,
        /// Region length.
        len: usize,
    },
    /// Checksum-preserving forgery: mutate the RESULTS text, then
    /// re-insert it through the archive API so every checksum and the
    /// manifest digest are recomputed honestly. Only validation by
    /// re-execution can catch this one. Archive class only.
    ForgeResults {
        /// The byte-level mutation applied to the results text.
        sub: Box<MutationKind>,
    },
    /// Damage one replica's stored copy of one vault object: apply `sub`
    /// to that replica's envelope bytes (or, for `StaleGeneration`,
    /// replace them) and write the result back to the backend, leaving
    /// the other replicas pristine. VaultReplica class only.
    VaultReplica {
        /// The vault key attacked.
        key: String,
        /// Which replica's copy is damaged (0-based).
        replica: usize,
        /// The byte-level mutation applied to the stored envelope.
        sub: Box<MutationKind>,
    },
    /// Replace a stored copy with another vault object's pristine
    /// envelope — a stale write generation that is digest-valid and
    /// deep-valid, so only the replica vote can catch it. Used as the
    /// `sub` of a `VaultReplica` mutation.
    StaleGeneration {
        /// The key whose pristine envelope is written over the copy.
        source: String,
    },
    /// Damage one service wire frame: apply `sub` to the pristine
    /// request (or response) frame bytes. ServeFrame class only.
    ServeFrame {
        /// Attack the response frame instead of the request frame.
        response: bool,
        /// The byte-level mutation applied to the wire frame.
        sub: Box<MutationKind>,
    },
    /// Run one streaming-state drill against the live service: a
    /// protocol-level misuse sequence (chunked PUT left orphaned,
    /// committed out of order, truncated mid-stream, or spliced across
    /// tenants) rather than byte noise. ServeFrame class only — applied
    /// through the service dispatch, not to artifact bytes.
    ServeStream {
        /// Which misuse sequence runs.
        scenario: StreamScenario,
    },
    /// Run one failure drill against the sharded erasure vault.
    /// VaultShard class only — applied through the vault and backend
    /// APIs, not to artifact bytes.
    VaultShard {
        /// The vault key attacked.
        key: String,
        /// Which drill runs.
        scenario: ShardScenario,
    },
}

/// One streaming-state misuse sequence against the chunked PUT/GET
/// protocol. Every arm must land detected-or-harmless: the service
/// answers with a typed refusal (or tolerates the abandonment), never
/// panics, and the tenant's preserved objects stay byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamScenario {
    /// A client opens a stream, stages chunks and vanishes without
    /// commit or abort — staged chunks must stay invisible to reads.
    OrphanedChunks {
        /// How many chunks are staged before the client dies.
        chunks: u32,
    },
    /// Commit arrives before the declared chunks were staged.
    OutOfOrderCommit,
    /// The stream dies mid-object and the commit declares the full
    /// (never fully staged) length.
    MidStreamTruncation,
    /// Another tenant quotes the victim's stream id and tries to inject
    /// a chunk into it.
    CrossTenantSplice,
}

impl fmt::Display for StreamScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamScenario::OrphanedChunks { chunks } => {
                write!(f, "orphan a stream after {chunks} staged chunk(s)")
            }
            StreamScenario::OutOfOrderCommit => write!(f, "commit before the chunks arrive"),
            StreamScenario::MidStreamTruncation => {
                write!(f, "commit a mid-stream-truncated upload at full length")
            }
            StreamScenario::CrossTenantSplice => {
                write!(f, "splice a chunk into another tenant's stream")
            }
        }
    }
}

/// One failure drill against the sharded erasure vault — the shapes of
/// damage a multi-site deployment actually sees, as opposed to the
/// byte-level rot [`MutationKind`] models.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardScenario {
    /// Every object on one backend vanishes — a whole machine dies.
    KillBackend {
        /// The dead backend (0-based).
        backend: usize,
    },
    /// Correlated rot: apply `sub` to the attacked key's stored shard on
    /// each listed backend (at most `m`, so the stripe must recover).
    CorruptShards {
        /// The damaged backends (distinct, 0-based).
        backends: Vec<usize>,
        /// The byte-level mutation applied to each stored shard.
        sub: Box<MutationKind>,
    },
    /// Delete the attacked key's shard on more than `m` backends. The
    /// object is gone; the vault must say so with a typed
    /// `Unrecoverable` — loudly, and without ever fabricating bytes.
    Overwhelm {
        /// The erased backends (distinct, 0-based, more than `m`).
        backends: Vec<usize>,
    },
    /// Rewrite one header field of a stored shard and re-seal it with an
    /// honestly recomputed shard digest — the envelope verifies, so only
    /// the vault's geometry/index cross-check or generation vote can
    /// catch it.
    GeometryForge {
        /// The backend whose shard is forged.
        backend: usize,
        /// Which header field is forged: 0 = `k`, 1 = `m`, 2 = `index`,
        /// 3 = `object_len`, 4 = `object_digest`.
        field: u8,
    },
    /// Scrub the (damaged) key while a foreground write arrives through
    /// the live service dispatch mid-scrub.
    RaceWrite,
}

impl fmt::Display for ShardScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardScenario::KillBackend { backend } => write!(f, "kill backend {backend}"),
            ShardScenario::CorruptShards { backends, sub } => {
                write!(f, "corrupt shards on backends {backends:?} [{sub}]")
            }
            ShardScenario::Overwhelm { backends } => {
                write!(f, "erase shards on backends {backends:?} (beyond m)")
            }
            ShardScenario::GeometryForge { backend, field } => {
                let name = ["k", "m", "index", "object_len", "object_digest"]
                    [usize::from(*field).min(4)];
                write!(f, "forge {name} on backend {backend} (digest recomputed)")
            }
            ShardScenario::RaceWrite => write!(f, "scrub races a serve-path write"),
        }
    }
}

impl fmt::Display for MutationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationKind::BitFlip { offset, bit } => {
                write!(f, "bit-flip @{offset} bit {bit}")
            }
            MutationKind::ByteSet { offset, value } => {
                write!(f, "byte-set @{offset} = {value:#04x}")
            }
            MutationKind::Truncate { len } => write!(f, "truncate to {len}"),
            MutationKind::TruncateAtBoundary { len } => {
                write!(f, "truncate at boundary {len}")
            }
            MutationKind::InflateLength { offset, value } => {
                write!(f, "inflate length @{offset} to {value}")
            }
            MutationKind::SwapRegions { a, b, len } => {
                write!(f, "swap {len} bytes @{a} <-> @{b}")
            }
            MutationKind::DropRegion { start, len } => {
                write!(f, "drop {len} bytes @{start}")
            }
            MutationKind::DuplicateRegion { start, len } => {
                write!(f, "duplicate {len} bytes @{start}")
            }
            MutationKind::ForgeResults { sub } => write!(f, "forge results [{sub}]"),
            MutationKind::StaleGeneration { source } => {
                write!(f, "stale generation of {source}")
            }
            MutationKind::VaultReplica { key, replica, sub } => {
                write!(f, "vault {key} replica {replica} [{sub}]")
            }
            MutationKind::ServeFrame { response, sub } => {
                let side = if *response { "response" } else { "request" };
                write!(f, "serve {side} frame [{sub}]")
            }
            MutationKind::ServeStream { scenario } => {
                write!(f, "serve stream: {scenario}")
            }
            MutationKind::VaultShard { key, scenario } => {
                write!(f, "vault-shard {key}: {scenario}")
            }
        }
    }
}

impl MutationKind {
    /// Apply this mutation to a byte string. `ForgeResults` and
    /// `VaultReplica` are not byte-level operations (the campaign applies
    /// them through the archive / vault APIs); calling `apply` on them is
    /// a logic error.
    pub fn apply(&self, original: &[u8]) -> Vec<u8> {
        let mut v = original.to_vec();
        match *self {
            MutationKind::BitFlip { offset, bit } => v[offset] ^= 1 << bit,
            MutationKind::ByteSet { offset, value } => v[offset] = value,
            MutationKind::Truncate { len } | MutationKind::TruncateAtBoundary { len } => {
                v.truncate(len)
            }
            MutationKind::InflateLength { offset, value } => {
                v[offset..offset + 4].copy_from_slice(&value.to_le_bytes())
            }
            MutationKind::SwapRegions { a, b, len } => {
                v[a..a + len].copy_from_slice(&original[b..b + len]);
                v[b..b + len].copy_from_slice(&original[a..a + len]);
            }
            MutationKind::DropRegion { start, len } => {
                v.drain(start..start + len);
            }
            MutationKind::DuplicateRegion { start, len } => {
                let copy = original[start..start + len].to_vec();
                v.splice(start + len..start + len, copy);
            }
            MutationKind::ForgeResults { .. } => {
                unreachable!("ForgeResults is applied through the archive API")
            }
            MutationKind::VaultReplica { .. } | MutationKind::StaleGeneration { .. } => {
                unreachable!("VaultReplica is applied through the vault API")
            }
            MutationKind::ServeFrame { .. } => {
                unreachable!("ServeFrame is applied to the fixture's frame bytes")
            }
            MutationKind::ServeStream { .. } => {
                unreachable!("ServeStream drills run through the live service dispatch")
            }
            MutationKind::VaultShard { .. } => {
                unreachable!("VaultShard drills run through the vault and backend APIs")
            }
        }
        v
    }
}

/// One planned mutation with its replay coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Mutation {
    /// The artifact class attacked.
    pub class: ArtifactClass,
    /// Index within the class's campaign slice.
    pub index: u32,
    /// The derived RNG seed (pure function of master seed + coordinates).
    pub seed: u64,
    /// What the mutation does.
    pub kind: MutationKind,
}

/// SplitMix64 finalizer: a bijective avalanche mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the RNG seed for mutation `(class, index)` of a campaign — a
/// pure function, so a failure is replayable from its coordinates alone.
pub fn derive_seed(master_seed: u64, class: ArtifactClass, index: u32) -> u64 {
    mix(master_seed ^ mix(((class as u64 + 1) << 32) ^ u64::from(index)))
}

/// What the mutation sampler knows about an artifact: its length and the
/// offsets of its structural boundaries (DPEF frame starts, archive
/// section starts, text line starts).
#[derive(Debug, Clone)]
pub struct ArtifactShape {
    /// Artifact length in bytes.
    pub len: usize,
    /// Structural boundary offsets, ascending.
    pub boundaries: Vec<usize>,
}

impl ArtifactShape {
    fn text(s: &str) -> ArtifactShape {
        let mut boundaries = vec![0];
        boundaries.extend(
            s.bytes()
                .enumerate()
                .filter(|&(i, b)| b == b'\n' && i + 1 < s.len())
                .map(|(i, _)| i + 1),
        );
        ArtifactShape {
            len: s.len(),
            boundaries,
        }
    }
}

/// Sample a mutation kind for an artifact of the given shape. `forge` is
/// the shape of the results text when checksum-preserving forgeries are
/// in scope (archive class only).
fn sample_kind(
    rng: &mut StdRng,
    shape: &ArtifactShape,
    forge: Option<&ArtifactShape>,
) -> MutationKind {
    assert!(shape.len > 0, "cannot mutate an empty artifact");
    let n_kinds = if forge.is_some() { 9 } else { 8 };
    match rng.gen_range(0..n_kinds) {
        0 => MutationKind::BitFlip {
            offset: rng.gen_range(0..shape.len),
            bit: rng.gen_range(0..8u32) as u8,
        },
        1 => MutationKind::ByteSet {
            offset: rng.gen_range(0..shape.len),
            value: rng.gen_range(0..=255u32) as u8,
        },
        2 => MutationKind::Truncate {
            len: rng.gen_range(0..shape.len),
        },
        3 => {
            if shape.boundaries.is_empty() {
                MutationKind::Truncate {
                    len: rng.gen_range(0..shape.len),
                }
            } else {
                MutationKind::TruncateAtBoundary {
                    len: shape.boundaries[rng.gen_range(0..shape.boundaries.len())],
                }
            }
        }
        4 => {
            // A 4-byte window somewhere in the artifact, overwritten
            // with a count in the "absurdly large" regime.
            let offset = rng.gen_range(0..shape.len.saturating_sub(4).max(1));
            MutationKind::InflateLength {
                offset,
                value: rng.gen_range((1u32 << 24)..=u32::MAX),
            }
        }
        5 => {
            let len = rng.gen_range(1..=shape.len.min(64));
            let a = rng.gen_range(0..=shape.len - len);
            let b = rng.gen_range(0..=shape.len - len);
            MutationKind::SwapRegions { a, b, len }
        }
        6 => {
            let start = rng.gen_range(0..shape.len);
            let len = rng.gen_range(1..=(shape.len - start).min(256));
            MutationKind::DropRegion { start, len }
        }
        7 => {
            let start = rng.gen_range(0..shape.len);
            let len = rng.gen_range(1..=(shape.len - start).min(128));
            MutationKind::DuplicateRegion { start, len }
        }
        _ => {
            let forge_shape = forge.expect("forge arm only sampled when in scope");
            MutationKind::ForgeResults {
                sub: Box::new(sample_kind(rng, forge_shape, None)),
            }
        }
    }
}

/// How to run a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed every mutation seed is derived from.
    pub master_seed: u64,
    /// Mutations injected per artifact class.
    pub mutations_per_class: u32,
    /// Events in the fixture chain (small keeps artifacts quick to
    /// rebuild; the artifact structure does not depend on it).
    pub events: u64,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            master_seed: 20130908,
            mutations_per_class: 100,
            events: 10,
        }
    }
}

/// The pristine artifacts a campaign mutates, all derived from one
/// seeded chain execution.
pub struct CampaignFixture {
    /// The executed workflow.
    pub workflow: PreservedWorkflow,
    /// The packaged archive.
    pub archive: PreservationArchive,
    /// Serialized container bytes.
    pub archive_bytes: Bytes,
    /// Sealed AOD tier file.
    pub sealed_aod: Bytes,
    /// The AOD DPEF payload inside the seal.
    pub aod_payload: Bytes,
    /// Sealed RAW tier file.
    pub sealed_raw: Bytes,
    /// The RAW DPEF payload inside the seal.
    pub raw_payload: Bytes,
    /// Columnar DPCF encoding of the same AOD events.
    pub columnar_aod: Bytes,
    /// The pristine AOD events (semantic reference for columnar
    /// harmlessness checks).
    pub aod_events: Vec<AodEvent>,
    /// The conditions snapshot text carried by the archive.
    pub conditions_text: String,
    /// The parsed snapshot (semantic reference for harmlessness checks).
    pub snapshot: Snapshot,
    /// The reference results text carried by the archive.
    pub results_text: String,
    /// The objects a campaign vault stores: `(key, claimed kind,
    /// payload)`, in key order.
    pub vault_objects: Vec<(String, ObjectKind, Bytes)>,
    /// Pristine replica bytes (the encoded envelope) per vault object,
    /// aligned with `vault_objects`.
    pub vault_envelopes: Vec<Bytes>,
    /// Per-object envelope shapes for the mutation sampler, aligned with
    /// `vault_objects`.
    vault_shapes: Vec<ArtifactShape>,
    /// Per-object `DPVS` shard-envelope shapes for the shard-drill
    /// sampler (every shard of one object has the same length), aligned
    /// with `vault_objects`.
    vault_shard_shapes: Vec<ArtifactShape>,
    /// Pristine wire frame of one service request — a PUT of the sealed
    /// AOD tier under tenant `cms` — length prefix included.
    pub serve_request: Bytes,
    /// The decoded form of `serve_request` (harmlessness reference).
    pub serve_request_obj: ServeRequest,
    /// Pristine wire frame of the server's response to `serve_request`,
    /// captured through a real `Service` dispatch.
    pub serve_response: Bytes,
    /// The decoded form of `serve_response`.
    pub serve_response_obj: ServeResponse,
    /// Shape of the response frame (the request frame's shape lives in
    /// `shapes[ArtifactClass::ServeFrame]`).
    serve_response_shape: ArtifactShape,
    /// Per-class artifact shapes, indexed by `ArtifactClass as usize` —
    /// computed once here instead of once per mutation.
    shapes: [ArtifactShape; 9],
    /// Splice template for checksum-preserving results forgeries.
    forge: ForgeTemplate,
}

/// Precomputed splice template for checksum-preserving results
/// forgeries. Re-serializing the whole container per mutation (clone the
/// archive, insert the forged section, `to_bytes`) dominated campaign
/// time; everything except the RESULTS payload, its checksum/length
/// fields and the manifest digest is invariant across forgeries, so a
/// forged container is two small field patches plus three memcpys.
struct ForgeTemplate {
    /// Container bytes before the manifest digest (magic + version).
    head: Vec<u8>,
    /// Container bytes between the manifest digest and the RESULTS
    /// checksum field (archive name, section count, every earlier
    /// section record, the RESULTS name record).
    mid: Vec<u8>,
    /// Container bytes after the RESULTS data (the later sections).
    tail: Vec<u8>,
    /// The manifest-digest input buffer, with the RESULTS checksum and
    /// length fields starting at `manifest_patch`.
    manifest: Vec<u8>,
    manifest_patch: usize,
}

impl ForgeTemplate {
    fn build(archive: &PreservationArchive, bytes: &Bytes) -> ForgeTemplate {
        // Mirror the serialization walk to locate the RESULTS record.
        let mut off = 4 + 2 + 8 + 4 + archive.name.len() + 4;
        let mut results = None;
        for s in archive.sections.values() {
            let checksum_off = off + 4 + s.name.len();
            if s.name == sections::RESULTS {
                results = Some((checksum_off, s.data.len()));
            }
            off = checksum_off + 8 + 4 + s.data.len();
        }
        let (checksum_off, data_len) = results.expect("archive carries a results section");
        // The manifest-digest input: length-prefixed archive name,
        // section count, then (name_len, name, checksum, data_len) per
        // section — the exact stream `archive::manifest_digest` hashes.
        let mut manifest = Vec::new();
        manifest.extend_from_slice(&(archive.name.len() as u32).to_le_bytes());
        manifest.extend_from_slice(archive.name.as_bytes());
        manifest.extend_from_slice(&(archive.sections.len() as u32).to_le_bytes());
        let mut manifest_patch = 0;
        for s in archive.sections.values() {
            manifest.extend_from_slice(&(s.name.len() as u32).to_le_bytes());
            manifest.extend_from_slice(s.name.as_bytes());
            if s.name == sections::RESULTS {
                manifest_patch = manifest.len();
            }
            manifest.extend_from_slice(&s.checksum.to_le_bytes());
            manifest.extend_from_slice(&(s.data.len() as u32).to_le_bytes());
        }
        ForgeTemplate {
            head: bytes[..6].to_vec(),
            mid: bytes[14..checksum_off].to_vec(),
            tail: bytes[checksum_off + 12 + data_len..].to_vec(),
            manifest,
            manifest_patch,
        }
    }

    /// The container bytes that cloning the pristine archive, inserting
    /// `data` as RESULTS and serializing would produce — byte-identical
    /// (asserted by tests), without re-encoding anything else.
    fn render(&self, data: &[u8]) -> Vec<u8> {
        let checksum = codec::fnv64(data);
        let mut manifest = self.manifest.clone();
        manifest[self.manifest_patch..self.manifest_patch + 8]
            .copy_from_slice(&checksum.to_le_bytes());
        manifest[self.manifest_patch + 8..self.manifest_patch + 12]
            .copy_from_slice(&(data.len() as u32).to_le_bytes());
        let digest = codec::fnv64(&manifest);
        let mut out = Vec::with_capacity(
            self.head.len() + 8 + self.mid.len() + 12 + data.len() + self.tail.len(),
        );
        out.extend_from_slice(&self.head);
        out.extend_from_slice(&digest.to_le_bytes());
        out.extend_from_slice(&self.mid);
        out.extend_from_slice(&checksum.to_le_bytes());
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(data);
        out.extend_from_slice(&self.tail);
        out
    }
}

impl CampaignFixture {
    /// Execute one seeded chain and derive every artifact from it.
    pub fn build(cfg: &CampaignConfig) -> Result<CampaignFixture, Error> {
        CampaignFixture::build_with(cfg, &Obs::disabled())
    }

    /// [`CampaignFixture::build`] with observability: the fixture chain's
    /// `execute` spans and counters land in `obs`.
    pub fn build_with(cfg: &CampaignConfig, obs: &Obs) -> Result<CampaignFixture, Error> {
        let workflow =
            PreservedWorkflow::standard_z(Experiment::Cms, mix(cfg.master_seed), cfg.events);
        let ctx = ExecutionContext::fresh(&workflow);
        let opts = ExecOptions::default().with_obs(obs.clone());
        let output = workflow.execute(&ctx, &opts)?;
        let archive = PreservationArchive::builder("faultlab")
            .production(&workflow, &ctx, &output)?
            .build();
        let archive_bytes = archive.to_bytes();
        let aod_payload = AodEvent::encode_events(&output.aod_events);
        let raw_payload = ctx
            .catalog
            .get(output.raw_dataset)?
            .file_data()
            .next()
            .ok_or("raw dataset has no files")?
            .clone();
        let conditions_text = archive.section_text(sections::CONDITIONS)?.to_string();
        let snapshot =
            Snapshot::from_text(&conditions_text).map_err(|e| Error::msg(e.to_string()))?;
        let results_text = archive.section_text(sections::RESULTS)?.to_string();
        let sealed_aod = codec::seal(&aod_payload);
        let sealed_raw = codec::seal(&raw_payload);
        let columnar_aod = ColumnarFile::from_rows(&output.aod_events);
        let col_shape = columnar_shape(&columnar_aod);
        let byte_shapes = [
            sealed_tier_shape(&sealed_aod),
            sealed_tier_shape(&sealed_raw),
            archive_shape(&archive, &archive_bytes),
            ArtifactShape::text(&conditions_text),
            ArtifactShape::text(&results_text),
        ];
        // The vault holds one object of every kind the toolkit ships, in
        // key order. Envelope shapes reuse the payload's structural
        // boundaries, shifted past the envelope header.
        let sources = [
            (
                "aod.dpcf",
                ObjectKind::ColumnarAod,
                columnar_aod.clone(),
                &col_shape,
            ),
            (
                "archive.dpar",
                ObjectKind::Container,
                archive_bytes.clone(),
                &byte_shapes[ArtifactClass::Archive as usize],
            ),
            (
                "conditions.txt",
                ObjectKind::ConditionsText,
                Bytes::from(conditions_text.clone().into_bytes()),
                &byte_shapes[ArtifactClass::ConditionsText as usize],
            ),
            (
                "results.txt",
                ObjectKind::Opaque,
                Bytes::from(results_text.clone().into_bytes()),
                &byte_shapes[ArtifactClass::ResultsText as usize],
            ),
            (
                "tier-aod.dpef",
                ObjectKind::SealedTier,
                sealed_aod.clone(),
                &byte_shapes[ArtifactClass::TierAod as usize],
            ),
        ];
        let mut vault_objects = Vec::with_capacity(sources.len());
        let mut vault_envelopes = Vec::with_capacity(sources.len());
        let mut vault_shapes = Vec::with_capacity(sources.len());
        for (key, kind, payload, source) in sources {
            let envelope = encode_envelope(kind, &payload);
            let mut boundaries = vec![ENVELOPE_OVERHEAD];
            boundaries.extend(source.boundaries.iter().map(|b| b + ENVELOPE_OVERHEAD));
            boundaries.dedup();
            vault_shapes.push(ArtifactShape {
                len: envelope.len(),
                boundaries,
            });
            vault_envelopes.push(envelope);
            vault_objects.push((key.to_string(), kind, payload));
        }
        // Shard-envelope shapes for the erasure drills: header length
        // plus one k-th of the envelope, boundaries on every DPVS header
        // field edge (so truncations and length inflations land on the
        // format's seams).
        let vault_shard_shapes: Vec<ArtifactShape> = vault_envelopes
            .iter()
            .map(|envelope| {
                let len = SHARD_OVERHEAD + envelope.len().div_ceil(SHARD_K);
                let mut boundaries = vec![4, 6, 7, 8, 9, 13, 21, 29, SHARD_OVERHEAD];
                boundaries.retain(|b| *b < len);
                ArtifactShape { len, boundaries }
            })
            .collect();
        // The serve-frame fixtures: one pristine PUT exchange, with the
        // response captured through a real `Service` dispatch so the
        // frame is exactly what the server sends.
        let serve_request_obj = ServeRequest {
            op: ServeOp::Put,
            kind: ObjectKind::SealedTier,
            tenant: "cms".to_string(),
            key: "tier-aod.dpef".to_string(),
            payload: sealed_aod.clone(),
        };
        let serve_request = serve_proto::encode_request(&serve_request_obj);
        let serve_response_obj = serve_scratch_service()?.handle(&serve_request_obj);
        let serve_response = serve_proto::encode_response(&serve_response_obj);
        let serve_response_shape = serve_frame_shape(&serve_response);
        let serve_request_shape = serve_frame_shape(&serve_request);
        let [s0, s1, s2, s3, s4] = byte_shapes;
        let shapes = [
            s0,
            s1,
            s2,
            s3,
            s4,
            vault_shapes[0].clone(),
            col_shape,
            serve_request_shape,
            vault_shard_shapes[0].clone(),
        ];
        let forge = ForgeTemplate::build(&archive, &archive_bytes);
        Ok(CampaignFixture {
            workflow,
            sealed_aod,
            sealed_raw,
            aod_payload,
            raw_payload,
            columnar_aod,
            aod_events: output.aod_events,
            archive,
            archive_bytes,
            conditions_text,
            snapshot,
            results_text,
            vault_objects,
            vault_envelopes,
            vault_shapes,
            vault_shard_shapes,
            serve_request,
            serve_request_obj,
            serve_response,
            serve_response_obj,
            serve_response_shape,
            shapes,
            forge,
        })
    }

    /// The pristine bytes of one artifact class. For `VaultReplica` —
    /// where each mutation targets one of several keyed envelopes — this
    /// is the first object's envelope; use [`CampaignFixture::vault_envelope`]
    /// for a specific key.
    pub fn artifact(&self, class: ArtifactClass) -> &[u8] {
        match class {
            ArtifactClass::TierAod => &self.sealed_aod,
            ArtifactClass::TierRaw => &self.sealed_raw,
            ArtifactClass::Archive => &self.archive_bytes,
            ArtifactClass::ConditionsText => self.conditions_text.as_bytes(),
            ArtifactClass::ResultsText => self.results_text.as_bytes(),
            ArtifactClass::VaultReplica => &self.vault_envelopes[0],
            ArtifactClass::ColumnarTier => &self.columnar_aod,
            ArtifactClass::ServeFrame => &self.serve_request,
            ArtifactClass::VaultShard => &self.vault_envelopes[0],
        }
    }

    /// The pristine envelope bytes stored under `key` in the campaign
    /// vault.
    pub fn vault_envelope(&self, key: &str) -> Option<&Bytes> {
        self.vault_objects
            .iter()
            .position(|(k, _, _)| k == key)
            .map(|i| &self.vault_envelopes[i])
    }

    /// Length + structural boundaries for the mutation sampler.
    /// Precomputed in [`CampaignFixture::build`]; a campaign asks for the
    /// same shapes once per mutation.
    pub fn shape(&self, class: ArtifactClass) -> &ArtifactShape {
        &self.shapes[class as usize]
    }
}

/// Boundaries of a sealed tier file: the seal/payload edge, the end of
/// the DPEF file header, and every event-frame start.
fn sealed_tier_shape(sealed: &Bytes) -> ArtifactShape {
    let mut boundaries = vec![codec::SEAL_OVERHEAD];
    // DPEF header: magic(4) + version(2) + tier(1) + n_events(4).
    let header_end = codec::SEAL_OVERHEAD + 11;
    if sealed.len() > header_end {
        boundaries.push(header_end);
        let mut off = header_end;
        while off + 4 <= sealed.len() {
            let len = u32::from_le_bytes([
                sealed[off],
                sealed[off + 1],
                sealed[off + 2],
                sealed[off + 3],
            ]) as usize;
            let next = off + 4 + len;
            if next >= sealed.len() {
                break;
            }
            boundaries.push(next);
            off = next;
        }
    }
    ArtifactShape {
        len: sealed.len(),
        boundaries,
    }
}

/// Boundaries of a columnar DPCF file: every header field edge, every
/// offset-table entry start, every column frame start, and (v2) the
/// body start one byte past each frame's encoding tag — so boundary
/// truncations land exactly on the format's structural seams,
/// including the tag/body seam the v2 encodings introduced.
fn columnar_shape(file: &Bytes) -> ArtifactShape {
    // Header: magic(4) + version(2) + tier(1) + n_rows(4) + n_cols(1),
    // then 10 table entries of col_id(1) + offset(4) + length(4) +
    // digest(8), then the contiguous column frames.
    let mut boundaries = vec![4, 6, 7, 11, 12];
    let frames_base = 12 + 10 * 17;
    for entry in 0..10usize {
        let at = 12 + entry * 17;
        boundaries.push(at);
        let offset =
            u32::from_le_bytes([file[at + 1], file[at + 2], file[at + 3], file[at + 4]]) as usize;
        boundaries.push(frames_base + offset);
        boundaries.push(frames_base + offset + 1);
    }
    boundaries.sort_unstable();
    boundaries.dedup();
    boundaries.retain(|b| *b < file.len());
    ArtifactShape {
        len: file.len(),
        boundaries,
    }
}

/// Boundaries of a service wire frame: the length-prefix edge, the DPSL
/// seal's magic/digest edges, and the end of the DPRQ/DPRS prologue —
/// the seams boundary truncations and length inflations should land on.
fn serve_frame_shape(wire: &Bytes) -> ArtifactShape {
    let body = 4 + codec::SEAL_OVERHEAD;
    let mut boundaries = vec![4, 8, body, body + 8];
    boundaries.retain(|b| *b < wire.len());
    ArtifactShape {
        len: wire.len(),
        boundaries,
    }
}

/// A fresh 2-replica in-memory service for frame attacks.
fn serve_scratch_service() -> Result<Service, Error> {
    let vault = Vault::builder()
        .backends(vec![
            Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>,
            Arc::new(MemoryBackend::new()),
        ])
        .build()?;
    Ok(Service::new(
        vault,
        &ServeConfig::default(),
        Obs::disabled(),
    ))
}

/// Boundaries of a serialized container: every section record start.
fn archive_shape(archive: &PreservationArchive, bytes: &Bytes) -> ArtifactShape {
    // magic(4) + version(2) + manifest(8) + name_len(4) + name + count(4).
    let mut off = 4 + 2 + 8 + 4 + archive.name.len() + 4;
    let mut boundaries = Vec::with_capacity(archive.sections.len());
    for s in archive.sections.values() {
        boundaries.push(off);
        off += 4 + s.name.len() + 8 + 4 + s.data.len();
    }
    debug_assert_eq!(off, bytes.len());
    ArtifactShape {
        len: bytes.len(),
        boundaries,
    }
}

/// The verdict on one mutant.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The mutation was caught; the label names the detecting layer.
    Detected(String),
    /// The artifact still decodes to exactly the original content.
    Harmless,
    /// Undetected change, unbounded behavior, or a panic — an invariant
    /// violation.
    Violation(String),
}

/// Replica count of the campaign vault.
pub const VAULT_REPLICAS: usize = 3;

/// Data shards of the shard-drill vault's stripe geometry.
pub const SHARD_K: usize = 4;

/// Parity shards of the shard-drill vault's stripe geometry — the
/// stripe survives any `SHARD_M` losses.
pub const SHARD_M: usize = 2;

/// Backend count of the shard-drill vault: one shard per backend.
pub const SHARD_BACKENDS: usize = SHARD_K + SHARD_M;

/// Sample `n` distinct values from `0..pool` (a partial Fisher–Yates).
fn sample_distinct(rng: &mut StdRng, n: usize, pool: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..pool).collect();
    for i in 0..n.min(pool) {
        let j = rng.gen_range(i..pool);
        all.swap(i, j);
    }
    all.truncate(n.min(pool));
    all
}

/// Plan mutation `(class, index)` of a campaign deterministically.
pub fn derive_mutation(
    cfg: &CampaignConfig,
    fixture: &CampaignFixture,
    class: ArtifactClass,
    index: u32,
) -> Mutation {
    let seed = derive_seed(cfg.master_seed, class, index);
    let mut rng = StdRng::seed_from_u64(seed);
    let kind = if class == ArtifactClass::VaultReplica {
        // Pick a stored object, pick a replica, then either write a
        // stale generation (another object's envelope) over the copy or
        // sample a byte-level attack over that object's envelope.
        let objects = fixture.vault_objects.len();
        let object = rng.gen_range(0..objects);
        let replica = rng.gen_range(0..VAULT_REPLICAS);
        let sub = if rng.gen_range(0..8u32) == 0 {
            let other = (object + 1 + rng.gen_range(0..objects - 1)) % objects;
            MutationKind::StaleGeneration {
                source: fixture.vault_objects[other].0.clone(),
            }
        } else {
            sample_kind(&mut rng, &fixture.vault_shapes[object], None)
        };
        MutationKind::VaultReplica {
            key: fixture.vault_objects[object].0.clone(),
            replica,
            sub: Box::new(sub),
        }
    } else if class == ArtifactClass::VaultShard {
        // Pick a stored object, then a failure drill: whole-backend
        // death, correlated rot of up to m shards, loss beyond m,
        // digest-honest geometry forgery, or a scrub/write race.
        let object = rng.gen_range(0..fixture.vault_objects.len());
        let key = fixture.vault_objects[object].0.clone();
        let scenario = match rng.gen_range(0..6u32) {
            0 => ShardScenario::KillBackend {
                backend: rng.gen_range(0..SHARD_BACKENDS),
            },
            1 | 2 => {
                let damaged = 1 + rng.gen_range(0..SHARD_M);
                ShardScenario::CorruptShards {
                    backends: sample_distinct(&mut rng, damaged, SHARD_BACKENDS),
                    sub: Box::new(sample_kind(
                        &mut rng,
                        &fixture.vault_shard_shapes[object],
                        None,
                    )),
                }
            }
            3 => {
                let erased = SHARD_M + 1 + rng.gen_range(0..2usize);
                ShardScenario::Overwhelm {
                    backends: sample_distinct(&mut rng, erased, SHARD_BACKENDS),
                }
            }
            4 => ShardScenario::GeometryForge {
                backend: rng.gen_range(0..SHARD_BACKENDS),
                field: rng.gen_range(0..5u32) as u8,
            },
            _ => ShardScenario::RaceWrite,
        };
        MutationKind::VaultShard { key, scenario }
    } else if class == ArtifactClass::ServeFrame {
        // A quarter of the serve budget drills the chunked-streaming
        // state machine with protocol-level misuse; the rest samples a
        // byte-level attack over one side of the wire exchange.
        if rng.gen_range(0..4u32) == 0 {
            let scenario = match rng.gen_range(0..4u32) {
                0 => StreamScenario::OrphanedChunks {
                    chunks: 1 + rng.gen_range(0..3u32),
                },
                1 => StreamScenario::OutOfOrderCommit,
                2 => StreamScenario::MidStreamTruncation,
                _ => StreamScenario::CrossTenantSplice,
            };
            MutationKind::ServeStream { scenario }
        } else {
            let response = rng.gen_range(0..2u32) == 1;
            let shape = if response {
                &fixture.serve_response_shape
            } else {
                fixture.shape(ArtifactClass::ServeFrame)
            };
            MutationKind::ServeFrame {
                response,
                sub: Box::new(sample_kind(&mut rng, shape, None)),
            }
        }
    } else if class == ArtifactClass::ColumnarTier && rng.gen_range(0..2u32) == 1 {
        // Half the columnar budget goes to attacks aimed at the v2
        // per-column encodings rather than uniform byte noise: flip an
        // encoding tag (to another valid tag or an undefined one),
        // corrupt the frame prologue just past the tag (dictionary
        // size, counts mode, leading varints), or truncate mid-frame
        // inside the dictionary/varint/RLE streams. All of these must
        // still come back detected-or-harmless — the per-column digest
        // covers the stored frame bytes, tag included, and the
        // decoders bound every read.
        let shape = fixture.shape(class);
        let frames_base = 12 + 10 * 17;
        // The offset table is authoritative for frame starts (the shape
        // boundaries also carry the +1 body seams, so don't reuse them
        // here). The fixture file is pristine by construction.
        let artifact = fixture.artifact(class);
        let mut starts: Vec<usize> = (0..10usize)
            .map(|entry| {
                let at = 12 + entry * 17;
                let offset = u32::from_le_bytes([
                    artifact[at + 1],
                    artifact[at + 2],
                    artifact[at + 3],
                    artifact[at + 4],
                ]) as usize;
                frames_base + offset
            })
            .filter(|&b| b < shape.len)
            .collect();
        starts.sort_unstable();
        starts.dedup();
        if starts.is_empty() {
            sample_kind(&mut rng, shape, None)
        } else {
            let i = rng.gen_range(0..starts.len());
            let start = starts[i];
            let end = if i + 1 < starts.len() {
                starts[i + 1]
            } else {
                shape.len
            };
            match rng.gen_range(0..3u32) {
                0 => MutationKind::ByteSet {
                    offset: start,
                    value: rng.gen_range(0..=5u32) as u8,
                },
                1 => MutationKind::ByteSet {
                    offset: (start + 1 + rng.gen_range(0..4usize)).min(shape.len - 1),
                    value: rng.gen_range(0..=255u32) as u8,
                },
                _ => MutationKind::Truncate {
                    len: rng.gen_range(start..end.max(start + 1)),
                },
            }
        }
    } else {
        // Forgeries mutate the results text, so their sampling shape is
        // the (precomputed) ResultsText shape.
        let forge_shape =
            (class == ArtifactClass::Archive).then(|| fixture.shape(ArtifactClass::ResultsText));
        sample_kind(&mut rng, fixture.shape(class), forge_shape)
    };
    Mutation {
        class,
        index,
        seed,
        kind,
    }
}

/// Produce the mutated artifact bytes for one planned mutation. For a
/// `VaultReplica` mutation these are the damaged replica's stored bytes.
pub fn mutate_artifact(
    fixture: &CampaignFixture,
    class: ArtifactClass,
    mutation: &Mutation,
) -> Vec<u8> {
    match &mutation.kind {
        MutationKind::ForgeResults { sub } => {
            let mutated_results = sub.apply(fixture.results_text.as_bytes());
            fixture.forge.render(&mutated_results)
        }
        MutationKind::VaultReplica { key, sub, .. } => match sub.as_ref() {
            MutationKind::StaleGeneration { source } => fixture
                .vault_envelope(source)
                .expect("fixture vault key")
                .to_vec(),
            sub => sub.apply(fixture.vault_envelope(key).expect("fixture vault key")),
        },
        MutationKind::ServeFrame { response, sub } => {
            let frame = if *response {
                &fixture.serve_response
            } else {
                &fixture.serve_request
            };
            sub.apply(frame)
        }
        // Shard and stream drills damage live service state, not
        // artifact bytes — the checker stages the damage itself.
        MutationKind::VaultShard { .. } | MutationKind::ServeStream { .. } => Vec::new(),
        kind => kind.apply(fixture.artifact(class)),
    }
}

/// Decide the outcome for one mutated artifact. Never panics itself —
/// the campaign wraps this in `catch_unwind` so a panic anywhere in the
/// decode/validate stack becomes a [`Outcome::Violation`]. The planned
/// [`Mutation`] rides along because `VaultReplica` verdicts need its
/// coordinates (which key, which replica) in addition to the bytes.
pub fn check_mutant(
    fixture: &CampaignFixture,
    mutation: &Mutation,
    mutated: &Bytes,
    cache: &mut RerunCache,
) -> Outcome {
    match mutation.class {
        ArtifactClass::TierAod => check_sealed_tier::<AodEvent>(mutated, &fixture.aod_payload),
        ArtifactClass::TierRaw => check_sealed_tier::<RawEvent>(mutated, &fixture.raw_payload),
        ArtifactClass::Archive => check_archive(fixture, mutated, cache),
        ArtifactClass::ConditionsText => check_conditions_text(fixture, mutated),
        ArtifactClass::ResultsText => check_results_text(fixture, mutated, cache),
        ArtifactClass::VaultReplica => match &mutation.kind {
            MutationKind::VaultReplica { key, replica, .. } => {
                check_vault_replica(fixture, key, *replica, mutated)
            }
            other => Outcome::Violation(format!(
                "vault-replica class planned a non-vault mutation: {other}"
            )),
        },
        ArtifactClass::ColumnarTier => check_columnar_tier(fixture, mutated),
        ArtifactClass::ServeFrame => match &mutation.kind {
            MutationKind::ServeFrame { response, .. } => {
                check_serve_frame(fixture, *response, mutated)
            }
            MutationKind::ServeStream { scenario } => check_serve_stream(fixture, scenario),
            other => Outcome::Violation(format!(
                "serve-frame class planned a non-frame mutation: {other}"
            )),
        },
        ArtifactClass::VaultShard => match &mutation.kind {
            MutationKind::VaultShard { key, scenario } => {
                check_vault_shard(fixture, key, scenario)
            }
            other => Outcome::Violation(format!(
                "vault-shard class planned a non-shard mutation: {other}"
            )),
        },
    }
}

/// Judge one mutated service frame. Response frames attack the
/// client-side decoder: the mutation must be rejected with a typed
/// [`serve_proto::ProtoError`] or decode byte-identically to the
/// pristine response. Request frames go through the live [`Service`]
/// dispatch: the service must answer without panicking, a malformed
/// frame must come back as `BadRequest`, and the tenant's stored object
/// must be byte-identical afterwards — mutated frames never corrupt
/// tenant state.
fn check_serve_frame(fixture: &CampaignFixture, response: bool, mutated: &Bytes) -> Outcome {
    if response {
        let decoded = serve_proto::split_frame(mutated)
            .and_then(|(sealed, _)| serve_proto::decode_response(&sealed));
        return match decoded {
            Err(e) => Outcome::Detected(format!("frame:{}", e.category())),
            Ok(resp) if resp == fixture.serve_response_obj => Outcome::Harmless,
            Ok(_) => Outcome::Violation(
                "frame seal accepted a modified response (digest collision)".to_string(),
            ),
        };
    }
    // The length prefix is the transport layer's to check; a frame the
    // stream reader would never deliver counts as detected there.
    let (sealed, _) = match serve_proto::split_frame(mutated) {
        Err(e) => return Outcome::Detected(format!("frame:{}", e.category())),
        Ok(x) => x,
    };
    let service = match serve_scratch_service() {
        Ok(s) => s,
        Err(e) => return Outcome::Violation(format!("scratch service failed to build: {e}")),
    };
    let deposited = service.handle(&fixture.serve_request_obj);
    if deposited.status != ServeStatus::Ok {
        return Outcome::Violation(format!("pristine deposit failed: {}", deposited.status));
    }
    // The live dispatch: a panic anywhere below becomes a violation via
    // the campaign's catch_unwind.
    let (resp_frame, _close) = service.handle_wire(&sealed);
    let resp = match serve_proto::split_frame(&resp_frame)
        .and_then(|(s, _)| serve_proto::decode_response(&s))
    {
        Ok(r) => r,
        Err(e) => {
            return Outcome::Violation(format!("server emitted an undecodable response: {e}"))
        }
    };
    // Whatever the mutation did, the tenant's object must be intact.
    let stored = service.handle(&ServeRequest::control(
        ServeOp::Get,
        &fixture.serve_request_obj.tenant,
        &fixture.serve_request_obj.key,
    ));
    if stored.status != ServeStatus::Ok || stored.payload != fixture.serve_request_obj.payload {
        return Outcome::Violation(format!(
            "tenant state corrupted by a mutated frame (get came back {})",
            stored.status
        ));
    }
    match serve_proto::decode_request(&sealed) {
        Err(e) => {
            if resp.status == ServeStatus::BadRequest {
                Outcome::Detected(format!("frame:{}", e.category()))
            } else {
                Outcome::Violation(format!(
                    "malformed frame ({e}) answered {} instead of bad-request",
                    resp.status
                ))
            }
        }
        Ok(req) if req == fixture.serve_request_obj => {
            // e.g. a region swapped with itself: the pristine PUT
            // replays and must succeed again.
            if resp.status == ServeStatus::Ok {
                Outcome::Harmless
            } else {
                Outcome::Violation(format!("pristine replayed frame answered {}", resp.status))
            }
        }
        Ok(_) => Outcome::Violation(
            "frame seal accepted a modified request (digest collision)".to_string(),
        ),
    }
}

/// Judge one streaming-state misuse drill against a live service. The
/// contract for every scenario: the service answers with a typed
/// refusal (or tolerates an abandonment), never panics (the campaign's
/// catch_unwind turns one into a violation), and the tenant's pristine
/// object — deposited before the attack, under the attacked key — reads
/// back byte-identical afterwards.
fn check_serve_stream(fixture: &CampaignFixture, scenario: &StreamScenario) -> Outcome {
    const CHUNK: u32 = 1024;
    let service = match serve_scratch_service() {
        Ok(s) => s,
        Err(e) => return Outcome::Violation(format!("scratch service failed to build: {e}")),
    };
    let pristine = &fixture.serve_request_obj;
    if service.handle(pristine).status != ServeStatus::Ok {
        return Outcome::Violation("pristine deposit failed".to_string());
    }
    let tenant = pristine.tenant.as_str();
    let key = pristine.key.as_str();

    // Open a stream over the attacked key and return its id.
    let begin = |svc: &Service| -> Result<String, Outcome> {
        let resp = svc.handle(&ServeRequest {
            op: ServeOp::PutBegin,
            kind: pristine.kind,
            tenant: tenant.to_string(),
            key: key.to_string(),
            payload: serve_stream::encode_begin(CHUNK),
        });
        if resp.status != ServeStatus::Ok {
            return Err(Outcome::Violation(format!(
                "stream open refused on a healthy service: {}",
                resp.detail
            )));
        }
        Ok(resp.detail)
    };
    let chunk = |svc: &Service, who: &str, id: &str, seq: u32, data: &[u8]| -> ServeResponse {
        svc.handle(&ServeRequest {
            op: ServeOp::PutChunk,
            kind: pristine.kind,
            tenant: who.to_string(),
            key: id.to_string(),
            payload: serve_stream::encode_chunk(seq, data),
        })
    };
    let commit = |svc: &Service, id: &str, info: &serve_stream::StreamInfo| -> ServeResponse {
        svc.handle(&ServeRequest {
            op: ServeOp::PutCommit,
            kind: pristine.kind,
            tenant: tenant.to_string(),
            key: id.to_string(),
            payload: serve_stream::encode_commit(info),
        })
    };
    // The pristine object must survive whatever the drill did.
    let pristine_intact = |svc: &Service| -> Result<(), Outcome> {
        let stored = svc.handle(&ServeRequest::control(ServeOp::Get, tenant, key));
        if stored.status != ServeStatus::Ok || stored.payload != pristine.payload {
            return Err(Outcome::Violation(format!(
                "tenant state corrupted by a stream drill (get came back {})",
                stored.status
            )));
        }
        Ok(())
    };

    let filler = vec![0xA5u8; CHUNK as usize];
    match scenario {
        StreamScenario::OrphanedChunks { chunks } => {
            let id = match begin(&service) {
                Ok(id) => id,
                Err(v) => return v,
            };
            for seq in 0..*chunks {
                let resp = chunk(&service, tenant, &id, seq, &filler);
                if resp.status != ServeStatus::Ok {
                    return Outcome::Violation(format!(
                        "staging chunk {seq} refused on a healthy service: {}",
                        resp.detail
                    ));
                }
            }
            // The client vanishes. The staged chunks must never become
            // visible: the committed object is still the pristine one.
            if let Err(v) = pristine_intact(&service) {
                return v;
            }
            Outcome::Harmless
        }
        StreamScenario::OutOfOrderCommit => {
            let id = match begin(&service) {
                Ok(id) => id,
                Err(v) => return v,
            };
            let resp = chunk(&service, tenant, &id, 0, &filler);
            if resp.status != ServeStatus::Ok {
                return Outcome::Violation(format!("chunk 0 refused: {}", resp.detail));
            }
            // Commit declares three chunks while only one was staged.
            let resp = commit(
                &service,
                &id,
                &serve_stream::StreamInfo {
                    total_len: u64::from(CHUNK) * 3,
                    chunk_size: CHUNK,
                    chunks: 3,
                    digest: 0,
                },
            );
            if let Err(v) = pristine_intact(&service) {
                return v;
            }
            match resp.status {
                ServeStatus::BadRequest => Outcome::Detected("stream:commit-order".to_string()),
                other => Outcome::Violation(format!(
                    "premature commit answered {other} instead of bad-request"
                )),
            }
        }
        StreamScenario::MidStreamTruncation => {
            let id = match begin(&service) {
                Ok(id) => id,
                Err(v) => return v,
            };
            let resp = chunk(&service, tenant, &id, 0, &filler);
            if resp.status != ServeStatus::Ok {
                return Outcome::Violation(format!("chunk 0 refused: {}", resp.detail));
            }
            // The upload died after one chunk; the commit still declares
            // the full, never-staged object length.
            let resp = commit(
                &service,
                &id,
                &serve_stream::StreamInfo {
                    total_len: u64::from(CHUNK) * 4,
                    chunk_size: CHUNK,
                    chunks: 1,
                    digest: serve_stream::fnv64_fold(serve_stream::FNV_BASIS, &filler),
                },
            );
            if let Err(v) = pristine_intact(&service) {
                return v;
            }
            match resp.status {
                ServeStatus::BadRequest => Outcome::Detected("stream:truncation".to_string()),
                other => Outcome::Violation(format!(
                    "truncated commit answered {other} instead of bad-request"
                )),
            }
        }
        StreamScenario::CrossTenantSplice => {
            let id = match begin(&service) {
                Ok(id) => id,
                Err(v) => return v,
            };
            let resp = chunk(&service, tenant, &id, 0, &filler);
            if resp.status != ServeStatus::Ok {
                return Outcome::Violation(format!("chunk 0 refused: {}", resp.detail));
            }
            // Another tenant quotes the victim's stream id.
            let evil = vec![0x5Cu8; CHUNK as usize];
            let splice = chunk(&service, "intruder", &id, 1, &evil);
            if splice.status != ServeStatus::BadRequest {
                return Outcome::Violation(format!(
                    "cross-tenant chunk answered {} instead of bad-request",
                    splice.status
                ));
            }
            // The victim finishes the stream; the committed bytes must
            // be exactly the victim's, with no spliced-in chunk.
            let resp = chunk(&service, tenant, &id, 1, &filler);
            if resp.status != ServeStatus::Ok {
                return Outcome::Violation(format!(
                    "owner's stream broken by a refused splice: {}",
                    resp.detail
                ));
            }
            let mut whole = filler.clone();
            whole.extend_from_slice(&filler);
            let resp = commit(
                &service,
                &id,
                &serve_stream::StreamInfo {
                    total_len: u64::from(CHUNK) * 2,
                    chunk_size: CHUNK,
                    chunks: 2,
                    digest: serve_stream::fnv64_fold(serve_stream::FNV_BASIS, &whole),
                },
            );
            if resp.status != ServeStatus::Ok {
                return Outcome::Violation(format!(
                    "owner's commit failed after a refused splice: {}",
                    resp.detail
                ));
            }
            let stored = service.handle(&ServeRequest::control(ServeOp::Get, tenant, key));
            if stored.status != ServeStatus::Ok || stored.payload.as_slice() != whole.as_slice() {
                return Outcome::Violation(
                    "committed stream does not match the owner's bytes after a splice attempt"
                        .to_string(),
                );
            }
            Outcome::Detected("stream:cross-tenant".to_string())
        }
    }
}

fn check_columnar_tier(fixture: &CampaignFixture, mutated: &Bytes) -> Outcome {
    // Robustness probe: the pushdown skim must not panic or over-allocate
    // on the mutant, whatever its Ok/Err result — same contract as the
    // raw decoder probe on sealed tiers.
    let _ = daspos_tiers::skim_slim_columnar(
        mutated,
        &fixture.workflow.skim,
        &fixture.workflow.slim,
        None,
    );
    let parsed = match ColumnarFile::parse(mutated) {
        Err(e) => return Outcome::Detected(format!("columnar:{}", e.category().name())),
        Ok(f) => f,
    };
    match parsed.to_rows() {
        Err(e) => Outcome::Detected(format!("columnar:{}", e.category().name())),
        Ok(rows) if rows == fixture.aod_events => Outcome::Harmless,
        Ok(_) => {
            Outcome::Violation("mutated columnar file decoded into different events".to_string())
        }
    }
}

fn check_sealed_tier<T: Encodable + PartialEq>(mutated: &Bytes, payload: &Bytes) -> Outcome {
    // Robustness probe: whatever the seal says, the raw decoder must not
    // panic or over-allocate on the mutated inner bytes. Its Ok/Err
    // result is irrelevant here; a panic is converted to a violation by
    // the campaign's catch_unwind. The slice is a zero-copy window into
    // the mutant.
    if mutated.len() >= codec::SEAL_OVERHEAD {
        let inner = mutated.slice(codec::SEAL_OVERHEAD..);
        let _ = T::decode_events(&inner);
    }
    match codec::unseal(mutated) {
        Err(e) => Outcome::Detected(format!("seal:{}", e.category().name())),
        Ok(inner) if inner == *payload => match T::decode_events(&inner) {
            Ok(_) => Outcome::Harmless,
            Err(e) => Outcome::Violation(format!("pristine payload no longer decodes: {e}")),
        },
        Ok(_) => {
            Outcome::Violation("seal accepted a modified payload (digest collision)".to_string())
        }
    }
}

fn check_archive(fixture: &CampaignFixture, mutated: &Bytes, cache: &mut RerunCache) -> Outcome {
    let parsed = match PreservationArchive::from_bytes(mutated) {
        Err(e) => return Outcome::Detected(format!("container:{}", container_label(&e))),
        Ok(a) => a,
    };
    if parsed.verify_integrity().is_err() {
        return Outcome::Detected("section-checksum".to_string());
    }
    if parsed == fixture.archive {
        return Outcome::Harmless;
    }
    // The container parsed and every checksum verifies, yet the content
    // differs — a checksum-preserving forgery. Only re-execution can
    // judge it.
    match Validator::new(&Platform::current())
        .with_cache(cache)
        .run(&parsed)
    {
        Err(e) => Outcome::Detected(format!(
            "validate:{}",
            container_label(&e.into_archive_error())
        )),
        Ok(report) if report.passed() => {
            Outcome::Violation("altered archive validates as a clean reproduction".to_string())
        }
        Ok(report) => Outcome::Detected(validation_label(&report)),
    }
}

fn check_conditions_text(fixture: &CampaignFixture, mutated: &Bytes) -> Outcome {
    let text = match std::str::from_utf8(mutated) {
        Ok(t) => t,
        Err(_) => return Outcome::Detected("text:utf8".to_string()),
    };
    match Snapshot::from_text(text) {
        Err(_) => Outcome::Detected("text:parse".to_string()),
        Ok(parsed) if parsed == fixture.snapshot => Outcome::Harmless,
        Ok(_) => Outcome::Violation(
            "mutated conditions text parsed into different constants".to_string(),
        ),
    }
}

fn check_results_text(
    fixture: &CampaignFixture,
    mutated: &Bytes,
    cache: &mut RerunCache,
) -> Outcome {
    // The attack model: the mutated results are re-inserted through the
    // archive API, so every checksum is honest — integrity checks are
    // blind to it, and the forgery must be caught by re-execution.
    let mut forged = fixture.archive.clone();
    forged.insert(sections::RESULTS, mutated.clone());
    match Validator::new(&Platform::current())
        .with_cache(cache)
        .run(&forged)
    {
        Err(e) => Outcome::Detected(format!(
            "validate:{}",
            container_label(&e.into_archive_error())
        )),
        Ok(report) if report.passed() => {
            if mutated[..] == *fixture.results_text.as_bytes() {
                Outcome::Harmless
            } else {
                Outcome::Violation("forged results accepted as reproduced".to_string())
            }
        }
        Ok(report) => Outcome::Detected(validation_label(&report)),
    }
}

/// Judge one damaged replica copy. Builds a fresh [`VAULT_REPLICAS`]-way
/// vault holding every fixture object, overwrites one replica's stored
/// copy of `key` with the mutated bytes, scrubs, and demands the
/// stronger vault invariant: the damage is *detected and repaired
/// byte-identically* (every replica of every object ends the scrub
/// holding its pristine envelope), or the mutation never changed the
/// bytes at all.
fn check_vault_replica(
    fixture: &CampaignFixture,
    key: &str,
    replica: usize,
    mutated: &Bytes,
) -> Outcome {
    let backends: Vec<Arc<MemoryBackend>> = (0..VAULT_REPLICAS)
        .map(|_| Arc::new(MemoryBackend::new()))
        .collect();
    let builder = Vault::builder().verifier(Arc::new(ContainerVerifier)).backends(
        backends
            .iter()
            .map(|b| b.clone() as Arc<dyn StorageBackend>)
            .collect(),
    );
    let vault = match builder.build() {
        Ok(v) => v,
        Err(e) => return Outcome::Violation(format!("campaign vault failed to build: {e}")),
    };
    for (k, kind, payload) in &fixture.vault_objects {
        if let Err(e) = vault.put(k, *kind, payload) {
            return Outcome::Violation(format!("pristine put of {k} failed: {e}"));
        }
    }
    if let Err(e) = backends[replica].put(key, mutated) {
        return Outcome::Violation(format!("damage injection failed: {e}"));
    }
    let report = match vault.scrub() {
        Ok(r) => r,
        Err(e) => return Outcome::Violation(format!("scrub errored: {e}")),
    };
    if !report.clean() {
        return Outcome::Violation(format!("scrub left damage behind: {}", report.to_text()));
    }
    // Repair must be byte-identical everywhere, not merely "decodes".
    for backend in &backends {
        for ((k, _, _), envelope) in fixture.vault_objects.iter().zip(&fixture.vault_envelopes) {
            match backend.get(k) {
                Ok(stored) if stored == *envelope => {}
                Ok(_) => {
                    return Outcome::Violation(format!(
                        "replica copy of {k} not byte-identical after scrub"
                    ))
                }
                Err(e) => {
                    return Outcome::Violation(format!(
                        "replica copy of {k} unreadable after scrub: {e}"
                    ))
                }
            }
        }
    }
    let pristine = fixture.vault_envelope(key).expect("fixture vault key");
    if mutated == pristine {
        // e.g. a region swapped with itself: the copy never changed.
        Outcome::Harmless
    } else if report.corrupt + report.missing == 0 {
        Outcome::Violation("divergent replica copy went undetected".to_string())
    } else {
        Outcome::Detected("scrub:repaired".to_string())
    }
}

/// A fresh shard-drill vault — `SHARD_K`+`SHARD_M` over
/// [`SHARD_BACKENDS`] in-memory backends with deep container
/// verification — holding every fixture object.
fn shard_drill_vault(
    fixture: &CampaignFixture,
) -> Result<(Vault, Vec<Arc<MemoryBackend>>), String> {
    let backends: Vec<Arc<MemoryBackend>> = (0..SHARD_BACKENDS)
        .map(|_| Arc::new(MemoryBackend::new()))
        .collect();
    let vault = Vault::builder()
        .verifier(Arc::new(ContainerVerifier))
        .backends(
            backends
                .iter()
                .map(|b| b.clone() as Arc<dyn StorageBackend>)
                .collect(),
        )
        .redundancy(Redundancy::Erasure {
            k: SHARD_K,
            m: SHARD_M,
        })
        .build()
        .map_err(|e| format!("shard vault failed to build: {e}"))?;
    for (k, kind, payload) in &fixture.vault_objects {
        vault
            .put(k, *kind, payload)
            .map_err(|e| format!("pristine put of {k} failed: {e}"))?;
    }
    Ok((vault, backends))
}

/// Judge one shard drill. Recoverable damage — a dead backend, up to
/// `m` rotted shards, forged geometry — must be detected by the scrub
/// AND repaired byte-identically on every backend. Damage beyond `m`
/// must surface as a typed `Unrecoverable` on `get` and an
/// `unrecoverable`/`lost` entry in the report; fabricating bytes, or
/// quietly claiming a clean vault, is a violation.
fn check_vault_shard(fixture: &CampaignFixture, key: &str, scenario: &ShardScenario) -> Outcome {
    if matches!(scenario, ShardScenario::RaceWrite) {
        return check_shard_race(fixture, key);
    }
    let (vault, backends) = match shard_drill_vault(fixture) {
        Ok(v) => v,
        Err(e) => return Outcome::Violation(e),
    };
    // Snapshot every pristine stored shard for byte-identity checks
    // after repair (backend index -> key order).
    let mut pristine: Vec<Vec<(String, Bytes)>> = Vec::with_capacity(backends.len());
    for backend in &backends {
        let mut shards = Vec::with_capacity(fixture.vault_objects.len());
        for (k, _, _) in &fixture.vault_objects {
            match backend.get(k) {
                Ok(shard) => shards.push((k.clone(), shard)),
                Err(e) => return Outcome::Violation(format!("pristine shard of {k} unreadable: {e}")),
            }
        }
        pristine.push(shards);
    }

    // Stage the damage.
    let mut changed = false;
    match scenario {
        ShardScenario::KillBackend { backend } => {
            for (k, _, _) in &fixture.vault_objects {
                if let Err(e) = backends[*backend].delete(k) {
                    return Outcome::Violation(format!("backend kill failed: {e}"));
                }
            }
            changed = true;
        }
        ShardScenario::CorruptShards { backends: slots, sub } => {
            for &b in slots {
                let raw = match backends[b].get(key) {
                    Ok(raw) => raw,
                    Err(e) => return Outcome::Violation(format!("shard unreadable: {e}")),
                };
                let mutated = Bytes::from(sub.apply(&raw));
                if mutated != raw {
                    changed = true;
                }
                if let Err(e) = backends[b].put(key, &mutated) {
                    return Outcome::Violation(format!("damage injection failed: {e}"));
                }
            }
        }
        ShardScenario::Overwhelm { backends: slots } => {
            for &b in slots {
                if let Err(e) = backends[b].delete(key) {
                    return Outcome::Violation(format!("shard erasure failed: {e}"));
                }
            }
            changed = true;
        }
        ShardScenario::GeometryForge { backend, field } => {
            let raw = match backends[*backend].get(key) {
                Ok(raw) => raw,
                Err(e) => return Outcome::Violation(format!("shard unreadable: {e}")),
            };
            let (mut header, shard_payload) = match decode_shard(&raw) {
                Ok(parts) => parts,
                Err(e) => {
                    return Outcome::Violation(format!("pristine shard failed to decode: {e}"))
                }
            };
            match field {
                0 => header.k ^= 0x3,
                1 => header.m ^= 0x3,
                2 => header.index = (header.index + 1) % (SHARD_BACKENDS as u8),
                3 => header.object_len ^= 0x1,
                _ => header.object_digest ^= 0x1,
            }
            // encode_shard recomputes the shard digest over the forged
            // header — an honest seal around dishonest geometry.
            if let Err(e) = backends[*backend].put(key, &encode_shard(&header, &shard_payload)) {
                return Outcome::Violation(format!("damage injection failed: {e}"));
            }
            changed = true;
        }
        ShardScenario::RaceWrite => unreachable!("handled above"),
    }

    let report = match vault.scrub() {
        Ok(r) => r,
        Err(e) => return Outcome::Violation(format!("scrub errored: {e}")),
    };

    if let ShardScenario::Overwhelm { backends: slots } = scenario {
        // Beyond-m loss: loud, typed, and never fabricated.
        if report.unrecoverable == 0 || !report.lost.iter().any(|k| k == key) {
            return Outcome::Violation(format!(
                "loss beyond m went unreported: {}",
                report.to_text()
            ));
        }
        match vault.get(key) {
            Err(VaultError::Unrecoverable { .. }) => {}
            Ok(_) => {
                return Outcome::Violation(
                    "vault fabricated bytes for an unrecoverable object".to_string(),
                )
            }
            Err(e) => {
                return Outcome::Violation(format!("expected a typed Unrecoverable, got: {e}"))
            }
        }
        // Surviving shards are untouched; erased slots stay erased (a
        // scrub must not re-materialize shards it cannot verify).
        for (b, (backend, shards)) in backends.iter().zip(&pristine).enumerate() {
            for (k, shard) in shards {
                let stored = backend.get(k);
                if k == key && slots.contains(&b) {
                    if stored.is_ok() {
                        return Outcome::Violation(format!(
                            "scrub re-materialized an unverifiable shard on backend {b}"
                        ));
                    }
                    continue;
                }
                match stored {
                    Ok(s) if s == *shard => {}
                    Ok(_) => {
                        return Outcome::Violation(format!(
                            "surviving shard of {k} on backend {b} was disturbed"
                        ))
                    }
                    Err(e) => {
                        return Outcome::Violation(format!(
                            "surviving shard of {k} on backend {b} unreadable: {e}"
                        ))
                    }
                }
            }
        }
        // Every other object still reconstructs byte-identically.
        for (k, _, payload) in &fixture.vault_objects {
            if k == key {
                continue;
            }
            match vault.get(k) {
                Ok((_, got)) if got == *payload => {}
                Ok(_) => return Outcome::Violation(format!("{k} reconstructed wrong bytes")),
                Err(e) => return Outcome::Violation(format!("{k} unreadable: {e}")),
            }
        }
        return Outcome::Detected("scrub:unrecoverable".to_string());
    }

    // Recoverable drills: the scrub must converge the vault back to
    // pristine, byte-for-byte, on every backend.
    if !report.clean() {
        return Outcome::Violation(format!("scrub left damage behind: {}", report.to_text()));
    }
    for (b, (backend, shards)) in backends.iter().zip(&pristine).enumerate() {
        for (k, shard) in shards {
            match backend.get(k) {
                Ok(s) if s == *shard => {}
                Ok(_) => {
                    return Outcome::Violation(format!(
                        "shard of {k} on backend {b} not byte-identical after scrub"
                    ))
                }
                Err(e) => {
                    return Outcome::Violation(format!(
                        "shard of {k} on backend {b} unreadable after scrub: {e}"
                    ))
                }
            }
        }
    }
    for (k, _, payload) in &fixture.vault_objects {
        match vault.get(k) {
            Ok((_, got)) if got == *payload => {}
            Ok(_) => return Outcome::Violation(format!("{k} reconstructed wrong bytes")),
            Err(e) => return Outcome::Violation(format!("{k} unreadable after scrub: {e}")),
        }
    }
    if !changed {
        // e.g. a region swapped with itself: no shard ever diverged.
        return Outcome::Harmless;
    }
    if report.corrupt + report.missing == 0 {
        return Outcome::Violation("divergent shard went undetected".to_string());
    }
    match scenario {
        ShardScenario::KillBackend { .. } => {
            if report.rebuilt < fixture.vault_objects.len() as u64 {
                return Outcome::Violation(format!(
                    "a dead backend needs one rebuild per object, got {}: {}",
                    report.rebuilt,
                    report.to_text()
                ));
            }
            Outcome::Detected("scrub:rebuilt".to_string())
        }
        ShardScenario::CorruptShards { .. } => Outcome::Detected("scrub:rebuilt".to_string()),
        ShardScenario::GeometryForge { .. } => Outcome::Detected("scrub:geometry".to_string()),
        ShardScenario::Overwhelm { .. } | ShardScenario::RaceWrite => unreachable!(),
    }
}

/// Judge the scrub/write race: seed shard rot, then scrub the damaged
/// key while a foreground PUT arrives through the live service dispatch
/// mid-scrub. The scrub must finish clean with a byte-identical repair,
/// and the raced write must land and read back intact.
fn check_shard_race(fixture: &CampaignFixture, key: &str) -> Outcome {
    let (vault, backends) = match shard_drill_vault(fixture) {
        Ok(v) => v,
        Err(e) => return Outcome::Violation(e),
    };
    let pristine: Vec<Bytes> = match backends.iter().map(|b| b.get(key)).collect() {
        Ok(p) => p,
        Err(e) => return Outcome::Violation(format!("pristine shard unreadable: {e}")),
    };
    // Rot one shard so the racing scrub has real repair work to do.
    let mut rotted = pristine[2].to_vec();
    let mid = rotted.len() / 2;
    rotted[mid] ^= 0x10;
    if let Err(e) = backends[2].put(key, &Bytes::from(rotted)) {
        return Outcome::Violation(format!("damage injection failed: {e}"));
    }

    let service = Service::new(vault, &ServeConfig::default(), Obs::disabled());
    let raced_payload = fixture.vault_objects[0].2.clone();
    let calls = std::cell::Cell::new(0u32);
    let raced_status = std::cell::Cell::new(None);
    let scrubbed = service.vault().scrub_object_while(key, &|| {
        let n = calls.get();
        calls.set(n + 1);
        if n == 1 {
            // Mid-classification: a tenant write lands through the full
            // service dispatch, against the same vault being scrubbed.
            let resp = service.handle(&ServeRequest {
                op: ServeOp::Put,
                kind: ObjectKind::Opaque,
                tenant: "cms".to_string(),
                key: "raced.bin".to_string(),
                payload: raced_payload.clone(),
            });
            raced_status.set(Some(resp.status));
        }
        true
    });
    let report = match scrubbed {
        Ok(Some(r)) => r,
        Ok(None) => {
            return Outcome::Violation(
                "scrub abandoned although keep_going never declined".to_string(),
            )
        }
        Err(e) => return Outcome::Violation(format!("racing scrub errored: {e}")),
    };
    if !report.clean() {
        return Outcome::Violation(format!("racing scrub left damage: {}", report.to_text()));
    }
    match raced_status.get() {
        Some(ServeStatus::Ok) => {}
        other => return Outcome::Violation(format!("raced write rejected: {other:?}")),
    }
    for (b, (backend, shard)) in backends.iter().zip(&pristine).enumerate() {
        match backend.get(key) {
            Ok(s) if s == *shard => {}
            Ok(_) => {
                return Outcome::Violation(format!(
                    "shard on backend {b} not byte-identical after racing scrub"
                ))
            }
            Err(e) => {
                return Outcome::Violation(format!("shard on backend {b} unreadable: {e}"))
            }
        }
    }
    let got = service.handle(&ServeRequest {
        op: ServeOp::Get,
        kind: ObjectKind::Opaque,
        tenant: "cms".to_string(),
        key: "raced.bin".to_string(),
        payload: Bytes::new(),
    });
    if got.status != ServeStatus::Ok || got.payload != raced_payload {
        return Outcome::Violation(format!(
            "raced write did not survive the scrub: {:?} ({})",
            got.status, got.detail
        ));
    }
    Outcome::Detected("scrub:raced".to_string())
}

fn container_label(e: &crate::archive::ArchiveError) -> &'static str {
    use crate::archive::ArchiveError;
    match e {
        ArchiveError::MissingSection(_) => "missing-section",
        ArchiveError::CorruptSection(_) => "corrupt-section",
        ArchiveError::Malformed(_) => "malformed",
        ArchiveError::UnsupportedVersion(_) => "version",
        ArchiveError::Packaging(_) => "packaging",
        ArchiveError::Storage(_) => "storage",
    }
}

fn validation_label(report: &ValidationReport) -> String {
    let stage = if !report.integrity_ok {
        "integrity"
    } else if !report.platform_ok {
        "platform"
    } else if !report.executed {
        "execute"
    } else {
        "not-reproduced"
    };
    format!("validate:{stage}")
}

/// One invariant violation, with everything needed to replay it.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationRecord {
    /// Artifact class attacked.
    pub class: ArtifactClass,
    /// Index within the class (replay coordinate).
    pub index: u32,
    /// Derived seed (replay coordinate).
    pub seed: u64,
    /// Human description of the mutation.
    pub mutation: String,
    /// What went wrong.
    pub detail: String,
}

/// Per-class campaign tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// The class.
    pub class: ArtifactClass,
    /// Mutations injected.
    pub mutations: u32,
    /// Mutations caught by some layer.
    pub detected: u32,
    /// Mutations that left the decoded content identical.
    pub harmless: u32,
    /// Detections histogrammed by the layer that caught them.
    pub detections_by_layer: BTreeMap<String, u32>,
    /// Invariant violations (must be empty for a passing campaign).
    pub violations: Vec<ViolationRecord>,
}

/// The result of a whole campaign. Two runs with the same config produce
/// an identical report — `PartialEq` is the reproducibility check.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The config that produced this report.
    pub config: CampaignConfig,
    /// One entry per artifact class, in campaign order.
    pub classes: Vec<ClassReport>,
}

impl CampaignReport {
    /// True when no mutation violated the invariant.
    pub fn passed(&self) -> bool {
        self.classes.iter().all(|c| c.violations.is_empty())
    }

    /// Total mutations injected.
    pub fn total_mutations(&self) -> u32 {
        self.classes.iter().map(|c| c.mutations).sum()
    }

    /// Total mutations detected.
    pub fn total_detected(&self) -> u32 {
        self.classes.iter().map(|c| c.detected).sum()
    }

    /// Total harmless mutations.
    pub fn total_harmless(&self) -> u32 {
        self.classes.iter().map(|c| c.harmless).sum()
    }

    /// Total invariant violations.
    pub fn total_violations(&self) -> usize {
        self.classes.iter().map(|c| c.violations.len()).sum()
    }

    /// Render the report for terminals and logs.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "faultlab campaign: seed {}, {} classes x {} mutations, {}-event chain\n",
            self.config.master_seed,
            self.classes.len(),
            self.config.mutations_per_class,
            self.config.events
        );
        out.push_str(&format!(
            "  {:>16} {:>9} {:>9} {:>9} {:>10}\n",
            "class", "mutations", "detected", "harmless", "violations"
        ));
        for c in &self.classes {
            out.push_str(&format!(
                "  {:>16} {:>9} {:>9} {:>9} {:>10}\n",
                c.class.name(),
                c.mutations,
                c.detected,
                c.harmless,
                c.violations.len()
            ));
        }
        let mut layers: BTreeMap<&str, u32> = BTreeMap::new();
        for c in &self.classes {
            for (layer, n) in &c.detections_by_layer {
                *layers.entry(layer).or_default() += n;
            }
        }
        out.push_str("  detections by layer:");
        for (layer, n) in &layers {
            out.push_str(&format!(" {layer}={n}"));
        }
        out.push('\n');
        for c in &self.classes {
            for v in &c.violations {
                out.push_str(&format!(
                    "  VIOLATION {}:{} seed {:#018x} [{}]: {}\n",
                    v.class.name(),
                    v.index,
                    v.seed,
                    v.mutation,
                    v.detail
                ));
            }
        }
        if self.passed() {
            out.push_str("verdict: PASS - every mutation detected or harmless\n");
        } else {
            out.push_str(&format!(
                "verdict: FAIL - {} invariant violations (replay with --replay class:index)\n",
                self.total_violations()
            ));
        }
        out
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run a full campaign: build the fixture chain once, then inject
/// `mutations_per_class` seeded mutations into every artifact class and
/// judge each one. Deterministic: the same config yields the identical
/// report.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, Error> {
    run_campaign_with(cfg, &Obs::disabled())
}

/// [`run_campaign`] with observability: a `campaign` span with one child
/// per artifact class, the fixture chain's own `execute` spans, and the
/// detection histogram folded into the registry as
/// `faultlab.detect.<layer>` counters (plus `faultlab.mutations` /
/// `faultlab.harmless` / `faultlab.violations`).
pub fn run_campaign_with(cfg: &CampaignConfig, obs: &Obs) -> Result<CampaignReport, Error> {
    run_campaign_for(cfg, &ArtifactClass::all(), obs)
}

/// [`run_campaign_with`] restricted to a subset of artifact classes —
/// the engine behind targeted attacks like the CLI's
/// `vault scrub --selftest`, which storms only [`ArtifactClass::VaultReplica`].
pub fn run_campaign_for(
    cfg: &CampaignConfig,
    classes_to_run: &[ArtifactClass],
    obs: &Obs,
) -> Result<CampaignReport, Error> {
    let mut span = obs.tracer.span("campaign");
    span.field("seed", cfg.master_seed);
    span.field("mutations_per_class", cfg.mutations_per_class);
    span.field("events", cfg.events);
    let fixture_span = obs.tracer.span("campaign/fixture");
    let fixture = CampaignFixture::build_with(cfg, obs)?;
    fixture_span.finish();
    let mut cache = RerunCache::new();
    let mut classes = Vec::with_capacity(classes_to_run.len());
    for &class in classes_to_run {
        let mut class_span = obs
            .tracer
            .span_fmt(format_args!("campaign/{}", class.name()));
        let mut report = ClassReport {
            class,
            mutations: 0,
            detected: 0,
            harmless: 0,
            detections_by_layer: BTreeMap::new(),
            violations: Vec::new(),
        };
        for index in 0..cfg.mutations_per_class {
            let mutation = derive_mutation(cfg, &fixture, class, index);
            // One Vec -> Bytes conversion (no copy); the checkers slice
            // into this buffer instead of re-copying per probe.
            let mutated = Bytes::from(mutate_artifact(&fixture, class, &mutation));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                check_mutant(&fixture, &mutation, &mutated, &mut cache)
            }))
            .unwrap_or_else(|payload| {
                Outcome::Violation(format!("PANIC: {}", panic_message(payload)))
            });
            report.mutations += 1;
            match outcome {
                Outcome::Detected(layer) => {
                    report.detected += 1;
                    *report.detections_by_layer.entry(layer).or_default() += 1;
                }
                Outcome::Harmless => report.harmless += 1,
                Outcome::Violation(detail) => report.violations.push(ViolationRecord {
                    class,
                    index,
                    seed: mutation.seed,
                    mutation: mutation.kind.to_string(),
                    detail,
                }),
            }
        }
        class_span.field("mutations", report.mutations);
        class_span.field("detected", report.detected);
        class_span.field("harmless", report.harmless);
        class_span.field("violations", report.violations.len());
        class_span.finish();
        classes.push(report);
    }
    if let Some(m) = obs.registry() {
        for c in &classes {
            m.add("faultlab.mutations", u64::from(c.mutations));
            m.add("faultlab.harmless", u64::from(c.harmless));
            m.add("faultlab.violations", c.violations.len() as u64);
            for (layer, n) in &c.detections_by_layer {
                m.add(&format!("faultlab.detect.{layer}"), u64::from(*n));
            }
        }
    }
    span.field(
        "violations",
        classes.iter().map(|c| c.violations.len()).sum::<usize>(),
    );
    span.finish();
    Ok(CampaignReport {
        config: cfg.clone(),
        classes,
    })
}

/// Replay a single mutation by its campaign coordinates, returning the
/// planned mutation and its outcome — the tool for dissecting one
/// failure a campaign reported.
pub fn replay(
    cfg: &CampaignConfig,
    class: ArtifactClass,
    index: u32,
) -> Result<(Mutation, Outcome), Error> {
    let fixture = CampaignFixture::build(cfg)?;
    let mut cache = RerunCache::new();
    let mutation = derive_mutation(cfg, &fixture, class, index);
    let mutated = Bytes::from(mutate_artifact(&fixture, class, &mutation));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        check_mutant(&fixture, &mutation, &mutated, &mut cache)
    }))
    .unwrap_or_else(|payload| Outcome::Violation(format!("PANIC: {}", panic_message(payload))));
    Ok((mutation, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            master_seed: 7,
            mutations_per_class: 12,
            events: 6,
        }
    }

    #[test]
    fn seed_derivation_is_pure_and_spread() {
        let a = derive_seed(1, ArtifactClass::TierAod, 0);
        assert_eq!(a, derive_seed(1, ArtifactClass::TierAod, 0));
        assert_ne!(a, derive_seed(1, ArtifactClass::TierAod, 1));
        assert_ne!(a, derive_seed(1, ArtifactClass::TierRaw, 0));
        assert_ne!(a, derive_seed(2, ArtifactClass::TierAod, 0));
    }

    #[test]
    fn mutation_kinds_apply_correctly() {
        let original = b"0123456789".to_vec();
        assert_eq!(
            MutationKind::BitFlip { offset: 0, bit: 0 }.apply(&original),
            b"1123456789"
        );
        assert_eq!(MutationKind::Truncate { len: 3 }.apply(&original), b"012");
        assert_eq!(
            MutationKind::SwapRegions { a: 0, b: 8, len: 2 }.apply(&original),
            b"8923456701"
        );
        assert_eq!(
            MutationKind::DropRegion { start: 2, len: 3 }.apply(&original),
            b"0156789"
        );
        assert_eq!(
            MutationKind::DuplicateRegion { start: 1, len: 2 }.apply(&original),
            b"012123456789"
        );
        assert_eq!(
            MutationKind::InflateLength {
                offset: 2,
                value: u32::MAX
            }
            .apply(&original),
            b"01\xFF\xFF\xFF\xFF6789"
        );
        // A swap of a region with itself is the identity.
        assert_eq!(
            MutationKind::SwapRegions { a: 4, b: 4, len: 3 }.apply(&original),
            original
        );
    }

    #[test]
    fn small_campaign_holds_the_invariant_and_reproduces() {
        let cfg = small_config();
        let report = run_campaign(&cfg).expect("campaign runs");
        assert!(report.passed(), "{}", report.to_text());
        assert_eq!(report.total_mutations(), 12 * 9);
        assert_eq!(
            report.total_detected() + report.total_harmless(),
            report.total_mutations()
        );
        let again = run_campaign(&cfg).expect("campaign runs");
        assert_eq!(report, again, "same seed must reproduce the same report");
    }

    #[test]
    fn replay_matches_the_campaign_plan() {
        let cfg = small_config();
        let fixture = CampaignFixture::build(&cfg).unwrap();
        for class in [ArtifactClass::TierAod, ArtifactClass::ConditionsText] {
            for index in [0u32, 5] {
                let planned = derive_mutation(&cfg, &fixture, class, index);
                let (replayed, outcome) = replay(&cfg, class, index).unwrap();
                assert_eq!(planned, replayed);
                assert!(
                    !matches!(outcome, Outcome::Violation(_)),
                    "replay {class}:{index} violated: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn forge_template_matches_full_reserialization() {
        let fixture = CampaignFixture::build(&small_config()).unwrap();
        let cases = [
            fixture.results_text.clone().into_bytes(),
            b"counts_total=0\n".to_vec(),
            Vec::new(),
            vec![0xFF; 3 * fixture.results_text.len()],
        ];
        for forged_results in cases {
            let mut forged = fixture.archive.clone();
            forged.insert(sections::RESULTS, Bytes::from(forged_results.clone()));
            let expected = forged.to_bytes();
            let rendered = fixture.forge.render(&forged_results);
            assert_eq!(
                rendered.as_slice(),
                &expected[..],
                "splice template must match clone+insert+to_bytes"
            );
        }
    }

    #[test]
    fn observed_campaign_matches_and_fills_the_registry() {
        use std::sync::Arc;

        let cfg = small_config();
        let plain = run_campaign(&cfg).expect("campaign runs");
        let collector = Arc::new(daspos_obs::MemoryCollector::new());
        let registry = Arc::new(daspos_obs::MetricsRegistry::new());
        let obs = Obs::collecting(collector.clone(), registry.clone());
        let observed = run_campaign_with(&cfg, &obs).expect("campaign runs");
        assert_eq!(
            plain, observed,
            "observability must not change the verdicts"
        );

        // The detection histogram is folded into the registry.
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("faultlab.mutations"),
            u64::from(plain.total_mutations())
        );
        assert_eq!(
            snap.counter("faultlab.harmless"),
            u64::from(plain.total_harmless())
        );
        let detected: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("faultlab.detect."))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(detected, u64::from(plain.total_detected()));

        // One span per class plus the campaign root and fixture spans
        // (the fixture chain contributes its own execute spans too).
        let paths: Vec<String> = collector
            .sorted_records()
            .into_iter()
            .map(|r| r.path)
            .collect();
        for required in [
            "campaign",
            "campaign/fixture",
            "campaign/tier-aod",
            "campaign/vault-replica",
            "execute",
        ] {
            assert!(
                paths.iter().any(|p| p == required),
                "missing span {required}, have {paths:?}"
            );
        }
    }

    #[test]
    fn restricted_campaign_attacks_only_the_requested_classes() {
        let cfg = small_config();
        let report =
            run_campaign_for(&cfg, &[ArtifactClass::VaultReplica], &Obs::disabled()).unwrap();
        assert!(report.passed(), "{}", report.to_text());
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.classes[0].class, ArtifactClass::VaultReplica);
        assert_eq!(report.total_mutations(), cfg.mutations_per_class);
        // Real damage really flowed through the scrub-and-repair path.
        assert!(
            report.classes[0]
                .detections_by_layer
                .contains_key("scrub:repaired"),
            "{:?}",
            report.classes[0].detections_by_layer
        );
    }

    #[test]
    fn shard_campaign_drills_the_erasure_vault() {
        let cfg = CampaignConfig {
            master_seed: 7,
            mutations_per_class: 24,
            events: 6,
        };
        let report =
            run_campaign_for(&cfg, &[ArtifactClass::VaultShard], &Obs::disabled()).unwrap();
        assert!(report.passed(), "{}", report.to_text());
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.classes[0].class, ArtifactClass::VaultShard);
        // The drill mix really exercised both recovery and the loud
        // unrecoverable path.
        let layers = &report.classes[0].detections_by_layer;
        assert!(layers.contains_key("scrub:rebuilt"), "{layers:?}");
        assert!(layers.contains_key("scrub:unrecoverable"), "{layers:?}");
    }

    #[test]
    fn shapes_have_structural_boundaries() {
        let fixture = CampaignFixture::build(&small_config()).unwrap();
        let tier = fixture.shape(ArtifactClass::TierAod);
        // Seal edge, header end, and one frame boundary per event beyond
        // the first.
        assert!(tier.boundaries.len() >= 3, "{:?}", tier.boundaries);
        assert_eq!(tier.boundaries[0], codec::SEAL_OVERHEAD);
        let arch = fixture.shape(ArtifactClass::Archive);
        assert_eq!(arch.boundaries.len(), fixture.archive.sections.len());
        let cond = fixture.shape(ArtifactClass::ConditionsText);
        assert_eq!(
            cond.boundaries.len(),
            fixture.conditions_text.lines().count()
        );
        // Columnar shape: header edges, all 10 table entries, and the
        // frame starts (first frame begins right after the table).
        let col = fixture.shape(ArtifactClass::ColumnarTier);
        assert_eq!(col.len, fixture.columnar_aod.len());
        assert_eq!(col.boundaries[0], 4);
        assert!(
            col.boundaries.contains(&(12 + 10 * 17)),
            "{:?}",
            col.boundaries
        );
    }

    #[test]
    fn serve_frame_campaign_attacks_only_the_frame_class() {
        let cfg = CampaignConfig {
            master_seed: 7,
            mutations_per_class: 24,
            events: 6,
        };
        let report =
            run_campaign_for(&cfg, &[ArtifactClass::ServeFrame], &Obs::disabled()).unwrap();
        assert!(report.passed(), "{}", report.to_text());
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.classes[0].class, ArtifactClass::ServeFrame);
        assert_eq!(report.total_mutations(), cfg.mutations_per_class);
        // The protocol layer must really be doing the catching.
        assert!(
            report.classes[0]
                .detections_by_layer
                .keys()
                .any(|k| k.starts_with("frame:")),
            "{:?}",
            report.classes[0].detections_by_layer
        );
    }

    #[test]
    fn stream_drills_land_detected_or_harmless() {
        let cfg = small_config();
        let fixture = CampaignFixture::build(&cfg).unwrap();
        for (scenario, want_detected) in [
            (StreamScenario::OrphanedChunks { chunks: 2 }, false),
            (StreamScenario::OutOfOrderCommit, true),
            (StreamScenario::MidStreamTruncation, true),
            (StreamScenario::CrossTenantSplice, true),
        ] {
            let outcome = check_serve_stream(&fixture, &scenario);
            match (&outcome, want_detected) {
                (Outcome::Detected(_), true) | (Outcome::Harmless, false) => {}
                _ => panic!("{scenario}: unexpected outcome {outcome:?}"),
            }
        }
        // The planner really samples stream drills alongside frame noise.
        let saw = (0..64u32).any(|i| {
            matches!(
                derive_mutation(&cfg, &fixture, ArtifactClass::ServeFrame, i).kind,
                MutationKind::ServeStream { .. }
            )
        });
        assert!(saw, "planner never sampled a stream drill in 64 mutations");
    }

    #[test]
    fn serve_frame_fixtures_round_trip() {
        let fixture = CampaignFixture::build(&small_config()).unwrap();
        let (sealed, used) = serve_proto::split_frame(&fixture.serve_request).unwrap();
        assert_eq!(used, fixture.serve_request.len());
        assert_eq!(
            serve_proto::decode_request(&sealed).unwrap(),
            fixture.serve_request_obj
        );
        let (sealed, _) = serve_proto::split_frame(&fixture.serve_response).unwrap();
        assert_eq!(
            serve_proto::decode_response(&sealed).unwrap(),
            fixture.serve_response_obj
        );
        assert_eq!(fixture.serve_response_obj.status, ServeStatus::Ok);
        let shape = fixture.shape(ArtifactClass::ServeFrame);
        assert_eq!(shape.len, fixture.serve_request.len());
        assert!(shape.boundaries.contains(&4), "{:?}", shape.boundaries);
    }

    #[test]
    fn columnar_mutations_include_encoding_targeted_attacks() {
        // Across a modest index range the ColumnarTier planner must
        // produce all three v2-targeted arms: a tag flip (ByteSet at a
        // frame start with a small tag value), a prologue corruption
        // (ByteSet within 4 bytes past a frame start), and a mid-frame
        // truncation — and every one of them must come back
        // detected-or-harmless from the checker.
        let cfg = small_config();
        let fixture = CampaignFixture::build(&cfg).unwrap();
        let artifact = fixture.artifact(ArtifactClass::ColumnarTier).clone();
        let frames_base = 12 + 10 * 17;
        let starts: Vec<usize> = (0..10usize)
            .map(|entry| {
                let at = 12 + entry * 17;
                let offset = u32::from_le_bytes([
                    artifact[at + 1],
                    artifact[at + 2],
                    artifact[at + 3],
                    artifact[at + 4],
                ]) as usize;
                frames_base + offset
            })
            .collect();
        let (mut tag_flips, mut prologue_hits, mut mid_truncations) = (0usize, 0usize, 0usize);
        let mut cache = RerunCache::default();
        for index in 0..120u32 {
            let mutation = derive_mutation(&cfg, &fixture, ArtifactClass::ColumnarTier, index);
            match &mutation.kind {
                // The generic half of the budget can also land a
                // ByteSet on a frame start with an arbitrary value, so
                // only the near-tag range identifies the targeted arm.
                MutationKind::ByteSet { offset, value }
                    if starts.contains(offset) && *value <= 5 =>
                {
                    tag_flips += 1;
                }
                MutationKind::ByteSet { offset, .. }
                    if starts.iter().any(|s| *offset > *s && *offset <= *s + 4) =>
                {
                    prologue_hits += 1;
                }
                MutationKind::Truncate { len }
                    if starts.iter().any(|s| *len > *s) && *len < artifact.len() =>
                {
                    mid_truncations += 1;
                }
                _ => {}
            }
            let mutated = Bytes::from(mutate_artifact(
                &fixture,
                ArtifactClass::ColumnarTier,
                &mutation,
            ));
            let outcome = check_mutant(&fixture, &mutation, &mutated, &mut cache);
            assert!(
                !matches!(outcome, Outcome::Violation(_)),
                "mutation {index} ({}) violated: {outcome:?}",
                mutation.kind
            );
        }
        assert!(tag_flips > 0, "no encoding-tag flips planned");
        assert!(prologue_hits > 0, "no prologue corruptions planned");
        assert!(mid_truncations > 0, "no mid-frame truncations planned");
    }

    #[test]
    fn columnar_campaign_attacks_only_the_new_class() {
        let cfg = small_config();
        let report =
            run_campaign_for(&cfg, &[ArtifactClass::ColumnarTier], &Obs::disabled()).unwrap();
        assert!(report.passed(), "{}", report.to_text());
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.classes[0].class, ArtifactClass::ColumnarTier);
        assert_eq!(report.total_mutations(), cfg.mutations_per_class);
        // The per-column digests must really be doing the catching.
        assert!(
            report.classes[0]
                .detections_by_layer
                .keys()
                .any(|k| k.starts_with("columnar:")),
            "{:?}",
            report.classes[0].detections_by_layer
        );
    }
}
