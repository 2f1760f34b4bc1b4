//! Capacity invariants of the preserved AOD tier, exact rather than
//! timed: bytes written are a deterministic function of the events, so
//! these bounds hold on every host and every run.
//!
//! The fixture is the standard CMS Z-boson chain at seed 42 with 2000
//! events, the workload behind the size figures in `BENCH_8.json` to
//! `BENCH_10.json` (columnar v2/v1 0.688, erasure/replica 0.500).

use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use daspos::prelude::*;
use daspos_reco::objects::AodEvent;
use daspos_tiers::codec::{self, Encodable};
use daspos_tiers::{skim_slim_columnar, ColumnarFile};

const SEED: u64 = 42;
const EVENTS: u64 = 2000;
const KEY: &str = "tier-aod.dpef";

/// The fixture chain's AOD events, produced once per test binary.
fn aod_events() -> &'static [AodEvent] {
    static EVENTS_CELL: OnceLock<Vec<AodEvent>> = OnceLock::new();
    EVENTS_CELL.get_or_init(|| {
        let workflow = PreservedWorkflow::standard_z(Experiment::Cms, SEED, EVENTS);
        let ctx = ExecutionContext::fresh(&workflow);
        let output = workflow
            .execute(&ctx, &ExecOptions::default())
            .expect("fixture chain executes");
        assert!(
            !output.aod_events.is_empty(),
            "fixture produced no AOD events"
        );
        output.aod_events
    })
}

/// Bytes on all backends after one put of `payload` into a vault of
/// `backends` in-memory backends under `redundancy`.
fn backend_bytes(backends: usize, redundancy: Redundancy, payload: &Bytes) -> usize {
    let pool: Vec<Arc<MemoryBackend>> = (0..backends)
        .map(|_| Arc::new(MemoryBackend::new()))
        .collect();
    let vault = Vault::builder()
        .backends(
            pool.iter()
                .map(|b| b.clone() as Arc<dyn StorageBackend>)
                .collect(),
        )
        .redundancy(redundancy)
        .build()
        .expect("vault builds");
    vault
        .put(KEY, ObjectKind::SealedTier, payload)
        .expect("vault put succeeds");
    pool.iter()
        .map(|b| b.get(KEY).expect("every backend holds a slot").len())
        .sum()
}

/// DPCF v2's per-column encodings exist to shrink the file: the same
/// rows must take strictly fewer bytes than raw v1 frames.
#[test]
fn columnar_v2_is_strictly_smaller_than_v1_on_the_fixture() {
    let events = aod_events();
    let v1 = ColumnarFile::from_rows_v1(events).len();
    let v2 = ColumnarFile::from_rows(events).len();
    assert!(
        v2 < v1,
        "v2 columnar file ({v2} B) must be smaller than v1 ({v1} B), ratio {:.3}",
        v2 as f64 / v1 as f64
    );
}

/// `(length, fnv64)` of the fixture's columnar file and of its
/// columnar skim under the workflow's own selection and slim, recorded
/// before the v2 writer dropped its dictionary and RLE encodings. No
/// fixture column ever chose either, so neither file may move.
const FIXTURE_COLUMNAR: (usize, u64) = (207_192, 0xc6a6_a180_aa6c_7431);
const FIXTURE_SKIM: (usize, u64) = (156_300, 0x8dee_e2b0_97f6_60a9);

#[test]
fn fixture_columnar_and_skim_bytes_are_pinned() {
    let file = ColumnarFile::from_rows(aod_events());
    assert_eq!((file.len(), codec::fnv64(&file)), FIXTURE_COLUMNAR);
    let workflow = PreservedWorkflow::standard_z(Experiment::Cms, SEED, EVENTS);
    let (skim, _) =
        skim_slim_columnar(&file, &workflow.skim, &workflow.slim, None).expect("fixture skims");
    assert_eq!((skim.len(), codec::fnv64(&skim)), FIXTURE_SKIM);
}

/// A 4+2 stripe tolerates two backend losses, as 3 replicas do, but
/// stores each object once plus half again in parity: at equal fault
/// tolerance it must land strictly fewer backend bytes, and at most
/// 0.55× (1.5/3 plus shard-envelope overhead).
#[test]
fn erasure_4_2_stores_at_most_0_55x_the_bytes_of_three_replicas() {
    let sealed = codec::seal(&AodEvent::encode_events(aod_events()));
    let replicas = backend_bytes(3, Redundancy::Replicas(3), &sealed);
    let erasure = backend_bytes(6, Redundancy::Erasure { k: 4, m: 2 }, &sealed);
    let ratio = erasure as f64 / replicas as f64;
    assert!(
        erasure < replicas,
        "4+2 erasure ({erasure} B) must store fewer bytes than 3 replicas ({replicas} B)"
    );
    assert!(
        ratio <= 0.55,
        "4+2 erasure stores {ratio:.3}x the bytes of 3 replicas; the bound is 0.55x"
    );
}
