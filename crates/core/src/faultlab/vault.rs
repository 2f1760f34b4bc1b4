//! `vault-replica` and `vault-shard`: damage to the stored copies of a
//! preservation vault, judged by one vault drill parameterised by the
//! vault's [`Redundancy`]. The drill builds the vault, snapshots every
//! stored copy, stages the damage, scrubs, and demands that every
//! backend ends byte-identical to its snapshot and every object reads
//! back — detected *and* repaired, or reported unrecoverable when the
//! damage is beyond the redundancy.

use std::cell::Cell;
use std::sync::Arc;

use daspos_serve::{ServeConfig, Service, Status as ServeStatus};
use daspos_vault::{
    decode_shard, encode_shard, MemoryBackend, Redundancy, ScrubReport, StorageBackend, Vault,
    VaultError, SHARD_OVERHEAD,
};

use super::*;
use crate::archive::ContainerVerifier;

/// Replica count of the campaign vault.
pub const VAULT_REPLICAS: usize = 3;

/// Data shards of the shard-drill vault's stripe geometry.
pub const SHARD_K: usize = 4;

/// Parity shards of the shard-drill vault's stripe geometry — the
/// stripe survives any `SHARD_M` losses.
pub const SHARD_M: usize = 2;

/// Backend count of the shard-drill vault: one shard per backend.
pub const SHARD_BACKENDS: usize = SHARD_K + SHARD_M;

/// One replica copy in a [`VAULT_REPLICAS`]-way vault.
pub(super) struct VaultReplica;

/// What is written over the attacked replica copy.
pub(super) enum ReplicaDamage {
    /// An edit of the object's own envelope.
    Edit(ByteEdit),
    /// The pristine envelope of another fixture object (by index).
    Stale(usize),
}

impl FaultClass for VaultReplica {
    /// `(object, replica, damage)`, indices into the fixture's vault
    /// objects and the vault's backends.
    type Plan = (usize, usize, ReplicaDamage);

    fn plan(&self, rng: &mut StdRng, fixture: &CampaignFixture) -> (MutationKind, Self::Plan) {
        // Pick a stored object, pick a replica, then either write a
        // stale generation (another object's envelope) over the copy or
        // sample a byte-level attack over that object's envelope.
        let objects = fixture.vault_objects.len();
        let object = rng.gen_range(0..objects);
        let replica = rng.gen_range(0..VAULT_REPLICAS);
        let (sub, damage) = if rng.gen_range(0..8u32) == 0 {
            let other = (object + 1 + rng.gen_range(0..objects - 1)) % objects;
            let source = fixture.vault_objects[other].0.clone();
            (
                MutationKind::StaleGeneration { source },
                ReplicaDamage::Stale(other),
            )
        } else {
            let edit = ByteEdit::sample(rng, &fixture.vault_shapes[object]);
            (MutationKind::Edit(edit), ReplicaDamage::Edit(edit))
        };
        let kind = MutationKind::VaultReplica {
            key: fixture.vault_objects[object].0.clone(),
            replica,
            sub: Box::new(sub),
        };
        (kind, (object, replica, damage))
    }

    fn check(
        &self,
        fixture: &CampaignFixture,
        (object, replica, damage): &Self::Plan,
        _: &mut RerunCache,
    ) -> Outcome {
        let key = &fixture.vault_objects[*object].0;
        let drilled = drill(
            fixture,
            Redundancy::Replicas(VAULT_REPLICAS),
            None,
            |backends| {
                let stored = backends[*replica].get(key)?;
                let mutated = match damage {
                    ReplicaDamage::Edit(edit) => Bytes::from(edit.apply(&stored)),
                    ReplicaDamage::Stale(other) => fixture.vault_envelopes[*other].clone(),
                };
                backends[*replica].put(key, &mutated)?;
                Ok(mutated != stored)
            },
            scrub_all,
        );
        verdict(drilled, "scrub:repaired")
    }
}

/// One stripe of a `SHARD_K`+`SHARD_M` erasure vault.
pub(super) struct VaultShard;

/// One failure drill against the sharded erasure vault — the shapes of
/// damage a multi-site deployment actually sees, as opposed to the
/// byte-level rot a [`ByteEdit`] models.
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
        /// The edit applied to each stored shard.
        sub: ByteEdit,
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
                let name =
                    ["k", "m", "index", "object_len", "object_digest"][usize::from(*field).min(4)];
                write!(f, "forge {name} on backend {backend} (digest recomputed)")
            }
            ShardScenario::RaceWrite => write!(f, "scrub races a serve-path write"),
        }
    }
}

impl FaultClass for VaultShard {
    /// `(object, scenario)`, the object indexing the fixture's vault
    /// objects.
    type Plan = (usize, ShardScenario);

    fn plan(&self, rng: &mut StdRng, fixture: &CampaignFixture) -> (MutationKind, Self::Plan) {
        // Pick a stored object, then a failure drill: whole-backend
        // death, correlated rot of up to m shards, loss beyond m,
        // digest-honest geometry forgery, or a scrub/write race.
        let object = rng.gen_range(0..fixture.vault_objects.len());
        let scenario = match rng.gen_range(0..6u32) {
            0 => ShardScenario::KillBackend {
                backend: rng.gen_range(0..SHARD_BACKENDS),
            },
            1 | 2 => {
                let damaged = 1 + rng.gen_range(0..SHARD_M);
                ShardScenario::CorruptShards {
                    backends: sample_distinct(rng, damaged, SHARD_BACKENDS),
                    sub: ByteEdit::sample(rng, &shard_shape(&fixture.vault_envelopes[object])),
                }
            }
            3 => {
                let erased = SHARD_M + 1 + rng.gen_range(0..2usize);
                ShardScenario::Overwhelm {
                    backends: sample_distinct(rng, erased, SHARD_BACKENDS),
                }
            }
            4 => ShardScenario::GeometryForge {
                backend: rng.gen_range(0..SHARD_BACKENDS),
                field: rng.gen_range(0..5u32) as u8,
            },
            _ => ShardScenario::RaceWrite,
        };
        let kind = MutationKind::VaultShard {
            key: fixture.vault_objects[object].0.clone(),
            scenario: scenario.clone(),
        };
        (kind, (object, scenario))
    }

    /// Recoverable damage — a dead backend, up to `m` rotted shards,
    /// forged geometry, a raced scrub — must be detected and repaired
    /// byte-identically on every backend. Damage beyond `m` must surface
    /// as a typed `Unrecoverable`; fabricating bytes, or quietly
    /// claiming a clean vault, is a violation.
    fn check(
        &self,
        fixture: &CampaignFixture,
        (object, scenario): &Self::Plan,
        _: &mut RerunCache,
    ) -> Outcome {
        let key = fixture.vault_objects[*object].0.as_str();
        let (label, lost) = match scenario {
            ShardScenario::KillBackend { .. } | ShardScenario::CorruptShards { .. } => {
                ("scrub:rebuilt", None)
            }
            ShardScenario::Overwhelm { backends } => {
                ("scrub:unrecoverable", Some((key, backends.as_slice())))
            }
            ShardScenario::GeometryForge { .. } => ("scrub:geometry", None),
            ShardScenario::RaceWrite => ("scrub:raced", None),
        };
        let drilled = drill(
            fixture,
            Redundancy::Erasure {
                k: SHARD_K,
                m: SHARD_M,
            },
            lost,
            |backends| stage_shard_damage(fixture, key, scenario, backends),
            |service| match scenario {
                ShardScenario::RaceWrite => scrub_racing_a_write(fixture, key, service),
                _ => scrub_all(service),
            },
        );
        // A dead backend held one shard of every object.
        let objects = fixture.vault_objects.len() as u64;
        let drilled = drilled.and_then(|(report, changed)| match scenario {
            ShardScenario::KillBackend { .. } if report.rebuilt < objects => Err(format!(
                "a dead backend needs one rebuild per object, got {}: {}",
                report.rebuilt,
                report.to_text()
            )),
            _ => Ok((report, changed)),
        });
        verdict(drilled, label)
    }
}

/// Damage staged on a drill vault's backends: whether any stored byte
/// changed.
type Staged = Result<bool, Box<dyn std::error::Error>>;

/// The verdict on a drill: harmless when no stored byte changed (e.g. a
/// region swapped with itself), a violation when a change went unnoticed
/// by the scrub, otherwise detected by `label`.
fn verdict(drilled: Result<(ScrubReport, bool), String>, label: &str) -> Outcome {
    match drilled {
        Err(violation) => Outcome::Violation(violation),
        Ok((_, false)) => Outcome::Harmless,
        Ok((report, true)) if report.corrupt + report.missing == 0 => {
            Outcome::Violation("divergent copy went undetected".to_string())
        }
        Ok(_) => Outcome::Detected(label.to_string()),
    }
}

/// The vault drill. Builds a fresh vault of `redundancy` over in-memory
/// backends with deep container verification, puts every fixture
/// object, snapshots every stored copy, lets `stage` damage the backends
/// (it answers whether any stored byte changed), wraps the vault in a
/// service and runs `scrub` through it. The scrub must leave the vault
/// clean — or, when `lost` names a key and the backends its copies were
/// erased from, report that key unrecoverable. Every stored copy must
/// then be byte-identical to its snapshot (erased ones stay erased: a
/// scrub must not re-materialize what it cannot verify) and every object
/// must read back intact, the lost one as a typed `Unrecoverable`.
/// Returns the scrub report and what `stage` answered, or the violation.
fn drill(
    fixture: &CampaignFixture,
    redundancy: Redundancy,
    lost: Option<(&str, &[usize])>,
    stage: impl FnOnce(&[Arc<MemoryBackend>]) -> Staged,
    scrub: impl FnOnce(&Service) -> Result<ScrubReport, String>,
) -> Result<(ScrubReport, bool), String> {
    let width = match redundancy {
        Redundancy::Replicas(n) => n,
        Redundancy::Erasure { k, m } => k + m,
    };
    let backends: Vec<Arc<MemoryBackend>> =
        (0..width).map(|_| Arc::new(MemoryBackend::new())).collect();
    let vault = Vault::builder()
        .verifier(Arc::new(ContainerVerifier))
        .backends(
            backends
                .iter()
                .map(|b| b.clone() as Arc<dyn StorageBackend>)
                .collect(),
        )
        .redundancy(redundancy)
        .build()
        .map_err(|e| format!("drill vault failed to build: {e}"))?;
    for (k, kind, payload) in &fixture.vault_objects {
        vault
            .put(k, *kind, payload)
            .map_err(|e| format!("pristine put of {k} failed: {e}"))?;
    }
    let snapshot = backends
        .iter()
        .map(|b| {
            fixture
                .vault_objects
                .iter()
                .map(|(k, _, _)| b.get(k))
                .collect()
        })
        .collect::<Result<Vec<Vec<Bytes>>, _>>()
        .map_err(|e| format!("pristine copy unreadable: {e}"))?;

    let changed = stage(&backends).map_err(|e| format!("staging the damage failed: {e}"))?;
    let service = Service::new(vault, &ServeConfig::default(), Obs::disabled());
    let report = scrub(&service)?;
    let lost_key = lost.map(|(key, _)| key);
    let reported = match lost_key {
        None => report.clean(),
        Some(key) => report.unrecoverable > 0 && report.lost.iter().any(|k| k == key),
    };
    if !reported {
        return Err(format!(
            "scrub report misstates the damage: {}",
            report.to_text()
        ));
    }
    for (b, (backend, copies)) in backends.iter().zip(&snapshot).enumerate() {
        for ((k, _, _), copy) in fixture.vault_objects.iter().zip(copies) {
            let erased = lost.is_some_and(|(key, slots)| key == k && slots.contains(&b));
            if backend.get(k).ok().as_ref() != (!erased).then_some(copy) {
                return Err(format!(
                    "copy of {k} on backend {b} {} after scrub",
                    if erased {
                        "re-materialized"
                    } else {
                        "not byte-identical"
                    }
                ));
            }
        }
    }
    // Every object reads back intact; a lost one as a typed
    // `Unrecoverable`, never as fabricated bytes.
    for (k, _, payload) in &fixture.vault_objects {
        let read = service.vault().get(k);
        let intact = match lost_key {
            Some(key) if key == k => matches!(read, Err(VaultError::Unrecoverable { .. })),
            _ => matches!(&read, Ok((_, got)) if got == payload),
        };
        if !intact {
            let read = read.map(|(kind, got)| format!("{} bytes of {kind}", got.len()));
            return Err(format!("{k} reads back as {read:?} after scrub"));
        }
    }
    Ok((report, changed))
}

/// A full scrub with repair.
fn scrub_all(service: &Service) -> Result<ScrubReport, String> {
    service
        .vault()
        .scrub()
        .map_err(|e| format!("scrub errored: {e}"))
}

/// Stage one shard drill's damage on `key`'s stripe.
fn stage_shard_damage(
    fixture: &CampaignFixture,
    key: &str,
    scenario: &ShardScenario,
    backends: &[Arc<MemoryBackend>],
) -> Staged {
    match scenario {
        ShardScenario::KillBackend { backend } => {
            for (k, _, _) in &fixture.vault_objects {
                backends[*backend].delete(k)?;
            }
        }
        ShardScenario::CorruptShards {
            backends: slots,
            sub,
        } => {
            let mut changed = false;
            for &b in slots {
                let raw = backends[b].get(key)?;
                let mutated = Bytes::from(sub.apply(&raw));
                changed |= mutated != raw;
                backends[b].put(key, &mutated)?;
            }
            return Ok(changed);
        }
        ShardScenario::Overwhelm { backends: slots } => {
            for &b in slots {
                backends[b].delete(key)?;
            }
        }
        ShardScenario::GeometryForge { backend, field } => {
            let (mut header, payload) = decode_shard(&backends[*backend].get(key)?)?;
            match field {
                0 => header.k ^= 0x3,
                1 => header.m ^= 0x3,
                2 => header.index = (header.index + 1) % (SHARD_BACKENDS as u8),
                3 => header.object_len ^= 0x1,
                _ => header.object_digest ^= 0x1,
            }
            // encode_shard recomputes the shard digest over the forged
            // header — an honest seal around dishonest geometry.
            backends[*backend].put(key, &encode_shard(&header, &payload))?;
        }
        ShardScenario::RaceWrite => {
            // Rot one shard so the racing scrub has real repair work.
            let mut rotted = backends[2].get(key)?.to_vec();
            let mid = rotted.len() / 2;
            rotted[mid] ^= 0x10;
            backends[2].put(key, &Bytes::from(rotted))?;
        }
    }
    Ok(true)
}

/// Scrub `key` while a foreground PUT lands through the full service
/// dispatch mid-classification, against the same vault being scrubbed.
/// The raced write must be accepted and read back intact.
fn scrub_racing_a_write(
    fixture: &CampaignFixture,
    key: &str,
    service: &Service,
) -> Result<ScrubReport, String> {
    let put = ServeRequest {
        payload: fixture.vault_objects[0].2.clone(),
        ..ServeRequest::control(ServeOp::Put, "cms", "raced.bin")
    };
    let calls = Cell::new(0u32);
    let raced = Cell::new(None);
    let scrubbed = service.vault().scrub_object_while(key, &|| {
        if calls.replace(calls.get() + 1) == 1 {
            raced.set(Some(service.handle(&put).status));
        }
        true
    });
    let report = match scrubbed {
        Ok(Some(r)) => r,
        Ok(None) => return Err("scrub abandoned although keep_going never declined".into()),
        Err(e) => return Err(format!("racing scrub errored: {e}")),
    };
    if raced.get() != Some(ServeStatus::Ok) {
        return Err(format!("raced write rejected: {:?}", raced.get()));
    }
    let got = service.handle(&ServeRequest::control(ServeOp::Get, &put.tenant, &put.key));
    if got.status != ServeStatus::Ok || got.payload != put.payload {
        return Err(format!(
            "raced write did not survive the scrub: {:?} ({})",
            got.status, got.detail
        ));
    }
    Ok(report)
}

/// Shape of one `DPVS` shard of an envelope (every shard of an object
/// has the same length): header plus one k-th of the envelope, with
/// boundaries on every header field edge so truncations and length
/// inflations land on the format's seams.
fn shard_shape(envelope: &Bytes) -> ArtifactShape {
    let len = SHARD_OVERHEAD + envelope.len().div_ceil(SHARD_K);
    let mut boundaries = vec![4, 6, 7, 8, 9, 13, 21, 29, SHARD_OVERHEAD];
    boundaries.retain(|b| *b < len);
    ArtifactShape { len, boundaries }
}

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
