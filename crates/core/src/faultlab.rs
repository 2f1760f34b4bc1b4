//! Deterministic fault-injection campaigns for the preservation chain.
//!
//! Preservation is only real if degradation is *caught*: the DPHEP
//! validation-framework line of work argues that archives must be
//! attacked continuously, not trusted. A campaign executes one seeded
//! chain ([`CampaignFixture`]), derives every serialized surface the
//! toolkit ships from it, attacks each with seed-driven,
//! structure-aware mutations, and asserts the invariant
//!
//! > **every mutation is either detected (a clean error or a failed
//! > checksum) or harmless (the decoded content is identical to the
//! > original)** — never a panic, never a silently wrong reproduction.
//!
//! Nine artifact classes are attacked, in campaign order:
//!
//! | class | surface attacked | module |
//! |---|---|---|
//! | `tier-aod`, `tier-raw` | sealed DPEF AOD / RAW tier files | `tier` |
//! | `archive` | the `.dpar` container, plus checksum-preserving RESULTS forgeries | `archive` |
//! | `conditions-text` | the conditions-snapshot text | `conditions` |
//! | `results-text` | the reference results, re-inserted under honest checksums | `results` |
//! | `vault-replica` | one replica copy in a 3-replica vault | `vault` |
//! | `columnar-tier` | the DPCF columnar AOD file, v2 encodings included | `columnar` |
//! | `serve-frame` | DPRQ/DPRS wire frames and chunked-stream misuse | `serve` |
//! | `vault-shard` | stripes of a 4+2 erasure vault: dead backends, shard rot, loss beyond `m`, geometry forgeries, scrub/write races | `vault` |
//!
//! Each class is one `FaultClass` impl in its own module: `plan` draws
//! a mutation from the class's derived RNG and `check` builds the mutant
//! and judges it. The class table (`CLASSES`) maps every
//! [`ArtifactClass`] to its name and impl; the runner, [`replay`] and the
//! CLI only ever walk that table. The two vault classes share one vault
//! drill, parameterised by the vault's `Redundancy`.
//!
//! Adding a class:
//! 1. write a module under `faultlab/` whose unit struct implements
//!    `FaultClass` (add any pristine artifact it needs to
//!    [`CampaignFixture::build`]);
//! 2. add an [`ArtifactClass`] variant with the next free discriminant
//!    and one row in `CLASSES`.
//!
//! Every mutation's RNG seed is derived from `(master_seed, class,
//! index)` by a pure function, so any failure a campaign finds is
//! replayable in isolation with [`replay`] — no shrinking or corpus
//! files needed, the coordinates are the reproducer. A class's planner
//! must therefore never reorder its draws: `tests/faultlab_golden.rs`
//! pins every class's plan and verdicts.

mod archive;
mod columnar;
mod conditions;
mod results;
mod serve;
mod tier;
mod vault;

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bytes::Bytes;
use daspos_conditions::Snapshot;
use daspos_detsim::Experiment;
use daspos_hep::seq::mix64;
use daspos_obs::Obs;
use daspos_reco::objects::AodEvent;
use daspos_serve::proto as serve_proto;
use daspos_serve::{Op as ServeOp, Request as ServeRequest, Response as ServeResponse};
use daspos_tiers::codec::{self, Encodable};
use daspos_tiers::ColumnarFile;
use daspos_vault::{encode_envelope, ObjectKind, ENVELOPE_OVERHEAD};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::archive::{sections, PreservationArchive};
use crate::error::Error;
use crate::runner::ExecOptions;
use crate::validate::RerunCache;
use crate::workflow::{ExecutionContext, PreservedWorkflow};

pub use serve::StreamScenario;
pub use vault::{ShardScenario, SHARD_BACKENDS, SHARD_K, SHARD_M, VAULT_REPLICAS};

/// The serialized surfaces a campaign attacks. The discriminants are
/// explicit because [`derive_seed`] hashes them: they name replay
/// coordinates and never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArtifactClass {
    /// A sealed DPEF AOD tier file.
    TierAod = 0,
    /// A sealed DPEF RAW tier file.
    TierRaw = 1,
    /// A serialized `PreservationArchive` container.
    Archive = 2,
    /// The conditions-snapshot shippable text.
    ConditionsText = 3,
    /// The reference-results text, attacked as a checksum-preserving
    /// forgery inside an otherwise pristine archive — only re-execution
    /// can catch it.
    ResultsText = 4,
    /// One replica copy inside a 3-replica preservation vault. The
    /// invariant is stronger here: the damage must be detected by a
    /// scrub pass AND repaired byte-identically from the surviving
    /// replicas (or the mutation left the copy byte-identical).
    VaultReplica = 5,
    /// A columnar `DPCF` AOD tier file: the offset table, per-column
    /// digests and independently framed columns are all in scope. On
    /// v2 files half the mutations target the per-column encodings
    /// directly — encoding-tag flips (including to the read-only legacy
    /// dictionary and RLE tags), counts-prologue corruption, and
    /// truncations inside the varint streams.
    ColumnarTier = 6,
    /// One DPRQ/DPRS wire frame of the preservation service (length
    /// prefix + sealed body). Request frames are judged through the live
    /// service dispatch: a mutation must come back as a typed
    /// `BadRequest` or leave the frame byte-identical, and the tenant's
    /// stored objects must survive either way. Response frames attack
    /// the client-side decoder. A quarter of the budget drills the
    /// chunked-streaming state machine instead.
    ServeFrame = 7,
    /// One stripe of a sharded erasure vault (`DPVS` shards spread 4+2
    /// over six backends). Scenarios go beyond byte noise: an entire
    /// backend dies, up to `m` shards rot at once, geometry fields are
    /// forged under an honestly recomputed digest, more than `m` shards
    /// vanish (the vault must report the object unrecoverable, never
    /// fabricate bytes), and a scrub races a write arriving through the
    /// live service dispatch.
    VaultShard = 8,
}

/// The class table, in campaign order: every class, its stable short
/// name (used in reports and `--replay class:index`) and its impl. Row
/// `i` is the class whose discriminant is `i`.
const CLASSES: [(ArtifactClass, &str, &dyn Attack); 9] = [
    (ArtifactClass::TierAod, "tier-aod", &tier::TierAod),
    (ArtifactClass::TierRaw, "tier-raw", &tier::TierRaw),
    (ArtifactClass::Archive, "archive", &archive::Archive),
    (
        ArtifactClass::ConditionsText,
        "conditions-text",
        &conditions::ConditionsText,
    ),
    (
        ArtifactClass::ResultsText,
        "results-text",
        &results::ResultsText,
    ),
    (
        ArtifactClass::VaultReplica,
        "vault-replica",
        &vault::VaultReplica,
    ),
    (
        ArtifactClass::ColumnarTier,
        "columnar-tier",
        &columnar::ColumnarTier,
    ),
    (ArtifactClass::ServeFrame, "serve-frame", &serve::ServeFrame),
    (ArtifactClass::VaultShard, "vault-shard", &vault::VaultShard),
];

impl ArtifactClass {
    /// Every class, in campaign order.
    pub fn all() -> [ArtifactClass; CLASSES.len()] {
        CLASSES.map(|(class, _, _)| class)
    }

    fn row(self) -> (ArtifactClass, &'static str, &'static dyn Attack) {
        CLASSES[self as usize]
    }

    /// Stable short name (used in reports and `--replay class:index`).
    pub fn name(self) -> &'static str {
        self.row().1
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

/// One artifact class of a campaign.
trait FaultClass: Sync {
    /// What `check` needs to rebuild and judge one planned mutation.
    type Plan;

    /// Plan one mutation with the class's derived RNG, returning its
    /// public description and the typed plan `check` consumes. The draws
    /// define the replay coordinates: their order never changes.
    fn plan(&self, rng: &mut StdRng, fixture: &CampaignFixture) -> (MutationKind, Self::Plan);

    /// Build the mutant from `plan` and judge it. A panic in here is
    /// caught by the runner and becomes an [`Outcome::Violation`].
    fn check(
        &self,
        fixture: &CampaignFixture,
        plan: &Self::Plan,
        cache: &mut RerunCache,
    ) -> Outcome;
}

/// The object-safe face of a [`FaultClass`] that the class table holds.
trait Attack: Sync {
    fn plan_kind(&self, rng: &mut StdRng, fixture: &CampaignFixture) -> MutationKind;
    fn attack(
        &self,
        rng: &mut StdRng,
        fixture: &CampaignFixture,
        cache: &mut RerunCache,
    ) -> (MutationKind, Outcome);
}

impl<C: FaultClass> Attack for C {
    fn plan_kind(&self, rng: &mut StdRng, fixture: &CampaignFixture) -> MutationKind {
        self.plan(rng, fixture).0
    }

    fn attack(
        &self,
        rng: &mut StdRng,
        fixture: &CampaignFixture,
        cache: &mut RerunCache,
    ) -> (MutationKind, Outcome) {
        let (kind, plan) = self.plan(rng, fixture);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.check(fixture, &plan, cache)))
            .unwrap_or_else(|payload| {
                Outcome::Violation(format!("PANIC: {}", panic_message(payload)))
            });
        (kind, outcome)
    }
}

/// One byte-level edit of a serialized artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ByteEdit {
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
}

impl fmt::Display for ByteEdit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ByteEdit::BitFlip { offset, bit } => write!(f, "bit-flip @{offset} bit {bit}"),
            ByteEdit::ByteSet { offset, value } => write!(f, "byte-set @{offset} = {value:#04x}"),
            ByteEdit::Truncate { len } => write!(f, "truncate to {len}"),
            ByteEdit::TruncateAtBoundary { len } => write!(f, "truncate at boundary {len}"),
            ByteEdit::InflateLength { offset, value } => {
                write!(f, "inflate length @{offset} to {value}")
            }
            ByteEdit::SwapRegions { a, b, len } => write!(f, "swap {len} bytes @{a} <-> @{b}"),
            ByteEdit::DropRegion { start, len } => write!(f, "drop {len} bytes @{start}"),
            ByteEdit::DuplicateRegion { start, len } => write!(f, "duplicate {len} bytes @{start}"),
        }
    }
}

impl ByteEdit {
    /// Apply this edit to a byte string.
    pub fn apply(&self, original: &[u8]) -> Vec<u8> {
        let mut v = original.to_vec();
        match *self {
            ByteEdit::BitFlip { offset, bit } => v[offset] ^= 1 << bit,
            ByteEdit::ByteSet { offset, value } => v[offset] = value,
            ByteEdit::Truncate { len } | ByteEdit::TruncateAtBoundary { len } => v.truncate(len),
            ByteEdit::InflateLength { offset, value } => {
                v[offset..offset + 4].copy_from_slice(&value.to_le_bytes())
            }
            ByteEdit::SwapRegions { a, b, len } => {
                v[a..a + len].copy_from_slice(&original[b..b + len]);
                v[b..b + len].copy_from_slice(&original[a..a + len]);
            }
            ByteEdit::DropRegion { start, len } => {
                v.drain(start..start + len);
            }
            ByteEdit::DuplicateRegion { start, len } => {
                let copy = original[start..start + len].to_vec();
                v.splice(start + len..start + len, copy);
            }
        }
        v
    }

    /// Draw one of the eight edits for an artifact of the given shape.
    fn sample(rng: &mut StdRng, shape: &ArtifactShape) -> ByteEdit {
        ByteEdit::sample_kind(rng.gen_range(0..8), rng, shape)
    }

    /// Finish drawing edit number `pick` (0–7), the first draw of
    /// [`ByteEdit::sample`] — split out so a class with extra mutation
    /// kinds can share that first draw.
    fn sample_kind(pick: i32, rng: &mut StdRng, shape: &ArtifactShape) -> ByteEdit {
        assert!(shape.len > 0, "cannot mutate an empty artifact");
        match pick {
            0 => ByteEdit::BitFlip {
                offset: rng.gen_range(0..shape.len),
                bit: rng.gen_range(0..8u32) as u8,
            },
            1 => ByteEdit::ByteSet {
                offset: rng.gen_range(0..shape.len),
                value: rng.gen_range(0..=255u32) as u8,
            },
            2 => ByteEdit::Truncate {
                len: rng.gen_range(0..shape.len),
            },
            3 if shape.boundaries.is_empty() => ByteEdit::Truncate {
                len: rng.gen_range(0..shape.len),
            },
            3 => ByteEdit::TruncateAtBoundary {
                len: shape.boundaries[rng.gen_range(0..shape.boundaries.len())],
            },
            // A 4-byte window somewhere in the artifact, overwritten
            // with a count in the "absurdly large" regime.
            4 => ByteEdit::InflateLength {
                offset: rng.gen_range(0..shape.len.saturating_sub(4).max(1)),
                value: rng.gen_range((1u32 << 24)..=u32::MAX),
            },
            5 => {
                let len = rng.gen_range(1..=shape.len.min(64));
                let a = rng.gen_range(0..=shape.len - len);
                let b = rng.gen_range(0..=shape.len - len);
                ByteEdit::SwapRegions { a, b, len }
            }
            6 => {
                let start = rng.gen_range(0..shape.len);
                let len = rng.gen_range(1..=(shape.len - start).min(256));
                ByteEdit::DropRegion { start, len }
            }
            _ => {
                let start = rng.gen_range(0..shape.len);
                let len = rng.gen_range(1..=(shape.len - start).min(128));
                ByteEdit::DuplicateRegion { start, len }
            }
        }
    }
}

/// One planned mutation, as reports and replays describe it.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationKind {
    /// A byte-level edit of the class's pristine artifact.
    Edit(ByteEdit),
    /// Checksum-preserving forgery: edit the RESULTS text, then
    /// re-insert it through the archive API so every checksum and the
    /// manifest digest are recomputed honestly. Only validation by
    /// re-execution can catch this one. Archive class only.
    ForgeResults {
        /// The edit applied to the results text.
        sub: ByteEdit,
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
        /// An `Edit` of the stored envelope, or a `StaleGeneration`.
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
        /// The edit applied to the wire frame.
        sub: ByteEdit,
    },
    /// Run one streaming-state drill against the live service: a
    /// protocol-level misuse sequence rather than byte noise. ServeFrame
    /// class only.
    ServeStream {
        /// Which misuse sequence runs.
        scenario: StreamScenario,
    },
    /// Run one failure drill against the sharded erasure vault.
    /// VaultShard class only.
    VaultShard {
        /// The vault key attacked.
        key: String,
        /// Which drill runs.
        scenario: ShardScenario,
    },
}

impl fmt::Display for MutationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationKind::Edit(edit) => edit.fmt(f),
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
            MutationKind::ServeStream { scenario } => write!(f, "serve stream: {scenario}"),
            MutationKind::VaultShard { key, scenario } => {
                write!(f, "vault-shard {key}: {scenario}")
            }
        }
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

/// Derive the RNG seed for mutation `(class, index)` of a campaign — a
/// pure function, so a failure is replayable from its coordinates alone.
pub fn derive_seed(master_seed: u64, class: ArtifactClass, index: u32) -> u64 {
    mix64(master_seed ^ mix64(((class as u64 + 1) << 32) ^ u64::from(index)))
}

/// What the mutation sampler knows about an artifact: its length and the
/// offsets of its structural boundaries (DPEF frame starts, archive
/// section starts, text line starts).
#[derive(Debug, Clone)]
struct ArtifactShape {
    /// Artifact length in bytes.
    len: usize,
    /// Structural boundary offsets, ascending.
    boundaries: Vec<usize>,
}

impl ArtifactShape {
    /// Text: every line start.
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
    /// `vault_objects`: the payload's own boundaries, shifted past the
    /// envelope header.
    vault_shapes: Vec<ArtifactShape>,
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
            PreservedWorkflow::standard_z(Experiment::Cms, mix64(cfg.master_seed), cfg.events);
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
        // The vault holds one object of every kind the toolkit ships, in
        // key order, each with its payload's structural shape.
        let sources = [
            (
                "aod.dpcf",
                ObjectKind::ColumnarAod,
                columnar_aod.clone(),
                columnar::shape(&columnar_aod),
            ),
            (
                "archive.dpar",
                ObjectKind::Container,
                archive_bytes.clone(),
                archive::shape(&archive, &archive_bytes),
            ),
            (
                "conditions.txt",
                ObjectKind::ConditionsText,
                Bytes::from(conditions_text.clone().into_bytes()),
                ArtifactShape::text(&conditions_text),
            ),
            (
                "results.txt",
                ObjectKind::Opaque,
                Bytes::from(results_text.clone().into_bytes()),
                ArtifactShape::text(&results_text),
            ),
            (
                "tier-aod.dpef",
                ObjectKind::SealedTier,
                sealed_aod.clone(),
                tier::shape(&sealed_aod),
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
        let serve_response_obj = serve::scratch_service()?.handle(&serve_request_obj);
        let serve_response = serve_proto::encode_response(&serve_response_obj);
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
            serve_request,
            serve_request_obj,
            serve_response,
            serve_response_obj,
        })
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

/// Plan mutation `(class, index)` of a campaign deterministically.
pub fn derive_mutation(
    cfg: &CampaignConfig,
    fixture: &CampaignFixture,
    class: ArtifactClass,
    index: u32,
) -> Mutation {
    let seed = derive_seed(cfg.master_seed, class, index);
    let kind = class
        .row()
        .2
        .plan_kind(&mut StdRng::seed_from_u64(seed), fixture);
    Mutation {
        class,
        index,
        seed,
        kind,
    }
}

/// Plan mutation `(class, index)`, build the mutant and judge it — the
/// one step the campaign runner and [`replay`] share.
fn attack(
    cfg: &CampaignConfig,
    fixture: &CampaignFixture,
    class: ArtifactClass,
    index: u32,
    cache: &mut RerunCache,
) -> (Mutation, Outcome) {
    let seed = derive_seed(cfg.master_seed, class, index);
    let (kind, outcome) = class
        .row()
        .2
        .attack(&mut StdRng::seed_from_u64(seed), fixture, cache);
    let mutation = Mutation {
        class,
        index,
        seed,
        kind,
    };
    (mutation, outcome)
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
            let (mutation, outcome) = attack(cfg, &fixture, class, index, &mut cache);
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
    Ok(attack(cfg, &fixture, class, index, &mut RerunCache::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use daspos_serve::Status as ServeStatus;

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

    /// Replay coordinates are archived in reports: `(seed, class, index)`
    /// must keep naming the same mutation, so the derivation is pinned to
    /// values recorded from an earlier build.
    #[test]
    fn seed_derivation_is_pinned() {
        for (seed, class, index, expected) in [
            (0xD45_905, ArtifactClass::TierAod, 0, 0xdb64_74f5_db86_8c08),
            (
                0xD45_905,
                ArtifactClass::ColumnarTier,
                3,
                0x790e_dfdf_2e10_819c,
            ),
            (1, ArtifactClass::VaultShard, 29, 0x3b51_0e42_43d0_6472),
            (u64::MAX, ArtifactClass::Archive, 7, 0x6376_15db_ecbf_2f18),
        ] {
            assert_eq!(
                derive_seed(seed, class, index),
                expected,
                "{class:?}:{index}"
            );
        }
    }

    /// The class table is the registry: one row per class, names
    /// unique and parseable, discriminants frozen (they feed
    /// `derive_seed`).
    #[test]
    fn class_table_names_every_class_once() {
        let all = ArtifactClass::all();
        for (i, class) in all.into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class} is out of campaign order");
            assert_eq!(ArtifactClass::parse(class.name()), Some(class));
            assert_eq!(all.iter().filter(|c| c.name() == class.name()).count(), 1);
        }
        assert_eq!(ArtifactClass::VaultShard as u64, 8);
        assert_eq!(ArtifactClass::parse("nope"), None);
    }

    #[test]
    fn byte_edits_apply_correctly() {
        let original = b"0123456789".to_vec();
        assert_eq!(
            ByteEdit::BitFlip { offset: 0, bit: 0 }.apply(&original),
            b"1123456789"
        );
        assert_eq!(ByteEdit::Truncate { len: 3 }.apply(&original), b"012");
        assert_eq!(
            ByteEdit::SwapRegions { a: 0, b: 8, len: 2 }.apply(&original),
            b"8923456701"
        );
        assert_eq!(
            ByteEdit::DropRegion { start: 2, len: 3 }.apply(&original),
            b"0156789"
        );
        assert_eq!(
            ByteEdit::DuplicateRegion { start: 1, len: 2 }.apply(&original),
            b"012123456789"
        );
        assert_eq!(
            ByteEdit::InflateLength {
                offset: 2,
                value: u32::MAX
            }
            .apply(&original),
            b"01\xFF\xFF\xFF\xFF6789"
        );
        // A swap of a region with itself is the identity.
        assert_eq!(
            ByteEdit::SwapRegions { a: 4, b: 4, len: 3 }.apply(&original),
            original
        );
    }

    #[test]
    fn small_campaign_holds_the_invariant_and_reproduces() {
        let cfg = small_config();
        let report = run_campaign(&cfg).expect("campaign runs");
        assert!(report.passed(), "{}", report.to_text());
        assert_eq!(
            report.total_mutations(),
            12 * ArtifactClass::all().len() as u32
        );
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
        let tier = tier::shape(&fixture.sealed_aod);
        // Seal edge, header end, and one frame boundary per event beyond
        // the first.
        assert!(tier.boundaries.len() >= 3, "{:?}", tier.boundaries);
        assert_eq!(tier.boundaries[0], codec::SEAL_OVERHEAD);
        let arch = archive::shape(&fixture.archive, &fixture.archive_bytes);
        assert_eq!(arch.boundaries.len(), fixture.archive.sections.len());
        let cond = ArtifactShape::text(&fixture.conditions_text);
        assert_eq!(
            cond.boundaries.len(),
            fixture.conditions_text.lines().count()
        );
        // Columnar shape: header edges, all 10 table entries, and the
        // frame starts (first frame begins right after the table).
        let col = columnar::shape(&fixture.columnar_aod);
        assert_eq!(col.len, fixture.columnar_aod.len());
        assert_eq!(col.boundaries[0], 4);
        assert!(
            col.boundaries.contains(&(12 + 10 * 17)),
            "{:?}",
            col.boundaries
        );
        for start in columnar::frame_starts(&fixture.columnar_aod) {
            assert!(col.boundaries.contains(&start), "frame start {start}");
        }
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
            let outcome = serve::ServeFrame.check(
                &fixture,
                &serve::ServeAttack::Stream(scenario.clone()),
                &mut RerunCache::new(),
            );
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
        let shape = serve::shape(&fixture.serve_request);
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
        let file_len = fixture.columnar_aod.len();
        let starts: Vec<usize> = columnar::frame_starts(&fixture.columnar_aod).collect();
        let (mut tag_flips, mut prologue_hits, mut mid_truncations) = (0usize, 0usize, 0usize);
        let mut cache = RerunCache::default();
        for index in 0..120u32 {
            let (mutation, outcome) = attack(
                &cfg,
                &fixture,
                ArtifactClass::ColumnarTier,
                index,
                &mut cache,
            );
            match &mutation.kind {
                // The generic half of the budget can also land a
                // ByteSet on a frame start with an arbitrary value, so
                // only the near-tag range identifies the targeted arm.
                MutationKind::Edit(ByteEdit::ByteSet { offset, value })
                    if starts.contains(offset) && *value <= 5 =>
                {
                    tag_flips += 1;
                }
                MutationKind::Edit(ByteEdit::ByteSet { offset, .. })
                    if starts.iter().any(|s| *offset > *s && *offset <= *s + 4) =>
                {
                    prologue_hits += 1;
                }
                MutationKind::Edit(ByteEdit::Truncate { len })
                    if starts.iter().any(|s| *len > *s) && *len < file_len =>
                {
                    mid_truncations += 1;
                }
                _ => {}
            }
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
