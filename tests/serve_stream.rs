//! Integration: the chunked streaming protocol and per-tenant quotas.
//! Objects larger than one 16 MiB frame must round-trip byte-identically
//! through PutBegin/PutChunk/PutCommit and GetBegin/GetChunk with O(chunk)
//! peak buffering; stream misuse (out-of-order chunks, forged digests,
//! cross-tenant splices) must be rejected without corrupting preserved
//! state; and one tenant's exhausted quota must never reject another's.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use daspos::obs::Obs;
use daspos::serve::proto::MAX_FRAME_BYTES;
use daspos::serve::stream::{self, StreamInfo};
use daspos::serve::{
    expect_ok, Op, PatternChecker, PatternReader, Quota, Request, ServeClient, ServeConfig,
    ServeError, Server, Service, Status,
};
use daspos::vault::{MemoryBackend, ObjectKind, StorageBackend, Vault};
use daspos::ErrorKind;
use daspos_hep::seq::splitmix64;
use daspos_tiers::codec::fnv64;
use proptest::prelude::*;

fn start(cfg: ServeConfig) -> (Server, Arc<Service>) {
    let vault = Vault::builder()
        .backends(
            (0..2)
                .map(|_| Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>)
                .collect(),
        )
        .build()
        .expect("vault builds");
    let service = Arc::new(Service::new(vault, &cfg, Obs::disabled()));
    let server =
        Server::start(service.clone(), "127.0.0.1:0", Duration::ZERO).expect("server starts");
    (server, service)
}

fn default_server() -> (Server, Arc<Service>) {
    start(ServeConfig::default())
}

/// SplitMix64-expanded deterministic payload.
fn payload(seed: u64, len: usize) -> Bytes {
    let mut out = Vec::with_capacity(len);
    let mut z = seed;
    while out.len() < len {
        out.extend_from_slice(&splitmix64(&mut z).to_le_bytes());
    }
    out.truncate(len);
    Bytes::from(out)
}

#[test]
fn a_17_mib_object_round_trips_byte_identically_beyond_the_frame_cap() {
    let (server, service) = default_server();
    let addr = server.addr().to_string();
    const CHUNK: usize = 1024 * 1024;
    let total = (MAX_FRAME_BYTES + CHUNK) as u64; // 17 MiB > one frame

    let mut client = ServeClient::builder("atlas")
        .op_timeout(Duration::from_secs(60))
        .chunk_bytes(CHUNK)
        .connect(&addr)
        .expect("connect");

    // O(chunk) on both ends: the source and sink never hold the object.
    let mut source = PatternReader::new(0x17AB, total);
    expect_ok(
        client
            .put_stream("full-tier.dpef", ObjectKind::SealedTier, &mut source)
            .expect("streamed put sends"),
    )
    .expect("streamed put accepted");

    let mut sink = PatternChecker::new(0x17AB, total);
    let begin = expect_ok(client.get_stream("full-tier.dpef", &mut sink).expect("streamed get"))
        .expect("streamed get accepted");
    assert_eq!(begin.detail, "sealed-tier", "kind survives the round trip");
    sink.verify(total).expect("byte-identical round trip");

    // The server never staged more than one chunk at a time.
    let high_water = service.stats().stream_chunk_high_water();
    assert!(
        high_water as usize <= CHUNK,
        "peak staged chunk {high_water} exceeds the {CHUNK}-byte chunk size"
    );
    assert!(service.stats().streams_committed() >= 1);

    service.request_shutdown();
    server.join();
}

/// One server shared by every proptest case in this binary — starting a
/// listener per case would dominate the runtime. Never shut down; it
/// dies with the test process.
fn shared_addr() -> &'static str {
    use std::sync::OnceLock;
    static SHARED: OnceLock<(Server, Arc<Service>, String)> = OnceLock::new();
    let (_, _, addr) = SHARED.get_or_init(|| {
        let (server, service) = default_server();
        let addr = server.addr().to_string();
        (server, service, addr)
    });
    addr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    // Property: whatever the object size — from a single byte to past
    // the 16 MiB frame cap — a chunked PUT followed by a chunked GET
    // returns exactly the bytes put.
    #[test]
    fn chunked_round_trips_are_byte_identical_for_any_size(
        size in prop_oneof![
            1usize..=96 * 1024,
            1usize..=96 * 1024,
            1usize..=96 * 1024,
            (MAX_FRAME_BYTES - 2)..=(MAX_FRAME_BYTES + 2),
        ],
        seed in any::<u64>(),
    ) {
        // Small objects cross many 4 KiB chunk boundaries; frame-cap
        // sized ones stream in 1 MiB chunks to keep the case fast.
        let chunk = if size > 1024 * 1024 { 1024 * 1024 } else { 4096 };
        let mut client = ServeClient::builder("prop")
            .op_timeout(Duration::from_secs(60))
            .chunk_bytes(chunk)
            .connect(shared_addr())
            .expect("client connects");
        let key = format!("prop-{seed:016x}-{size}.bin");
        let bytes = payload(seed, size);
        let put = client.put_chunked(&key, ObjectKind::Opaque, &bytes).expect("put sends");
        prop_assert_eq!(put.status, Status::Ok, "put refused: {}", put.detail);
        let got = client.get_streamed_bytes(&key).expect("get sends");
        prop_assert_eq!(got.status, Status::Ok, "get refused: {}", got.detail);
        prop_assert_eq!(got.payload.as_slice(), bytes.as_slice());
    }
}

#[test]
fn plain_get_on_an_oversized_streamed_object_points_at_the_streaming_api() {
    let (server, service) = default_server();
    let addr = server.addr().to_string();
    let total = 9 * 1024 * 1024u64; // past the 8 MiB inline-GET limit

    let mut client = ServeClient::builder("atlas")
        .op_timeout(Duration::from_secs(60))
        .chunk_bytes(1024 * 1024)
        .connect(&addr)
        .expect("connect");
    let mut source = PatternReader::new(9, total);
    expect_ok(client.put_stream("big.bin", ObjectKind::Opaque, &mut source).unwrap()).unwrap();

    let resp = client.get("big.bin").expect("plain get sends");
    assert_eq!(resp.status, Status::BadRequest, "detail: {}", resp.detail);
    assert!(
        resp.detail.contains("streamed get"),
        "refusal must point at the streaming api: {}",
        resp.detail
    );

    // The streamed path still serves it.
    let mut sink = PatternChecker::new(9, total);
    expect_ok(client.get_stream("big.bin", &mut sink).unwrap()).unwrap();
    sink.verify(total).expect("streamed get still byte-identical");

    service.request_shutdown();
    server.join();
}

#[test]
fn a_small_streamed_object_reads_back_through_plain_get() {
    let (server, service) = default_server();
    let addr = server.addr().to_string();

    let mut client = ServeClient::builder("cms")
        .chunk_bytes(16 * 1024)
        .connect(&addr)
        .expect("connect");
    let bytes = payload(31, 100 * 1024); // 100 KiB over 16 KiB chunks
    expect_ok(client.put_chunked("small.bin", ObjectKind::Opaque, &bytes).unwrap()).unwrap();

    // A plain GET reassembles small chunked objects transparently.
    let got = expect_ok(client.get("small.bin").unwrap()).expect("inline reassembly");
    assert_eq!(got.payload.as_slice(), bytes.as_slice());

    service.request_shutdown();
    server.join();
}

#[test]
fn one_tenants_exhausted_quota_never_rejects_another_tenant() {
    let cfg = ServeConfig::builder()
        .quota(
            "greedy",
            Quota {
                max_bytes: 8 * 1024,
                max_inflight: 0,
                ops_per_sec: 0,
            },
        )
        .quota(
            "chatty",
            Quota {
                max_bytes: 0,
                max_inflight: 0,
                ops_per_sec: 2,
            },
        )
        .build()
        .expect("config valid");
    let (server, service) = start(cfg);
    let addr = server.addr().to_string();

    let mut greedy = ServeClient::builder("greedy").connect(&addr).expect("connect");
    let mut chatty = ServeClient::builder("chatty").connect(&addr).expect("connect");
    let mut modest = ServeClient::builder("modest").connect(&addr).expect("connect");

    // greedy exhausts its byte quota…
    let block = payload(1, 6 * 1024);
    expect_ok(greedy.put("a.bin", ObjectKind::Opaque, &block).unwrap()).expect("first put fits");
    let resp = greedy.put("b.bin", ObjectKind::Opaque, &block).unwrap();
    assert_eq!(resp.status, Status::QuotaExceeded, "detail: {}", resp.detail);
    let typed = expect_ok(resp).expect_err("quota promotes to a typed error");
    assert!(matches!(typed, ServeError::QuotaExceeded { .. }), "got {typed:?}");
    let core_err = daspos::Error::from(typed);
    assert!(
        matches!(core_err.kind(), ErrorKind::Overloaded(_)),
        "quota pressure lost its type: {core_err}"
    );

    // …chatty burns through its token bucket…
    let mut saw_rate_limit = false;
    for i in 0..20 {
        let resp = chatty.get(&format!("missing-{i}")).unwrap();
        if resp.status == Status::QuotaExceeded {
            saw_rate_limit = true;
            break;
        }
    }
    assert!(saw_rate_limit, "20 instant ops never tripped a 2 op/s bucket");
    assert!(service.stats().quota_rejected() >= 2);

    // …and neither exhaustion costs `modest` anything.
    for i in 0..10 {
        let key = format!("modest-{i}.bin");
        let bytes = payload(100 + i, 4 * 1024);
        expect_ok(modest.put(&key, ObjectKind::Opaque, &bytes).unwrap())
            .expect("an unrelated tenant must never be rejected");
        let got = expect_ok(modest.get(&key).unwrap()).expect("and reads back");
        assert_eq!(got.payload.as_slice(), bytes.as_slice());
    }
    // greedy's ops beyond bytes also still work: the byte quota gates
    // storage, not the connection.
    expect_ok(greedy.get("a.bin").unwrap()).expect("greedy can still read");

    service.request_shutdown();
    server.join();
}

/// Raw protocol access for the misuse scenarios the client API would
/// never emit.
fn raw(op: Op, tenant: &str, key: &str, payload: Bytes) -> Request {
    Request {
        op,
        kind: ObjectKind::Opaque,
        tenant: tenant.to_string(),
        key: key.to_string(),
        payload,
    }
}

#[test]
fn stream_misuse_is_rejected_without_corrupting_preserved_state() {
    let (server, service) = default_server();
    let addr = server.addr().to_string();
    let mut atlas = ServeClient::builder("atlas").connect(&addr).expect("connect");
    let mut cms = ServeClient::builder("cms").connect(&addr).expect("connect");

    // The object that must survive every forgery below.
    let precious = payload(7, 2048);
    expect_ok(atlas.put("precious.bin", ObjectKind::Opaque, &precious).unwrap()).unwrap();

    // Out-of-order chunk: rejected, stream stays open, in-order
    // delivery afterwards still commits.
    let begin = atlas
        .request(&raw(Op::PutBegin, "atlas", "ordered.bin", stream::encode_begin(1024)))
        .unwrap();
    assert_eq!(begin.status, Status::Ok);
    let id = begin.detail.clone();
    let chunk0 = payload(70, 1024);
    let resp = atlas
        .request(&raw(Op::PutChunk, "atlas", &id, stream::encode_chunk(1, &chunk0)))
        .unwrap();
    assert_eq!(resp.status, Status::BadRequest, "out-of-order seq must be refused");
    assert!(resp.detail.contains("out-of-order"), "detail: {}", resp.detail);

    // Cross-tenant splice: another tenant quoting the stream id is
    // refused and the owner's stream is untouched.
    let splice = cms
        .request(&raw(Op::PutChunk, "cms", &id, stream::encode_chunk(0, &chunk0)))
        .unwrap();
    assert_eq!(splice.status, Status::BadRequest, "detail: {}", splice.detail);
    assert!(splice.detail.contains("another tenant"), "detail: {}", splice.detail);

    // The owner proceeds as if nothing happened.
    let resp = atlas
        .request(&raw(Op::PutChunk, "atlas", &id, stream::encode_chunk(0, &chunk0)))
        .unwrap();
    assert_eq!(resp.status, Status::Ok, "detail: {}", resp.detail);
    let commit = stream::encode_commit(&StreamInfo {
        total_len: 1024,
        chunk_size: 1024,
        chunks: 1,
        digest: fnv64(&chunk0),
    });
    let resp = atlas.request(&raw(Op::PutCommit, "atlas", &id, commit)).unwrap();
    assert_eq!(resp.status, Status::Ok, "detail: {}", resp.detail);
    let got = expect_ok(atlas.get("ordered.bin").unwrap()).unwrap();
    assert_eq!(got.payload.as_slice(), chunk0.as_slice());

    // Forged digest at commit: the stream dies, the staged bytes are
    // reclaimed, and the previously preserved object is untouched.
    let begin = atlas
        .request(&raw(Op::PutBegin, "atlas", "precious.bin", stream::encode_begin(1024)))
        .unwrap();
    assert_eq!(begin.status, Status::Ok);
    let id = begin.detail.clone();
    let evil = payload(666, 1024);
    let resp = atlas
        .request(&raw(Op::PutChunk, "atlas", &id, stream::encode_chunk(0, &evil)))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    let commit = stream::encode_commit(&StreamInfo {
        total_len: 1024,
        chunk_size: 1024,
        chunks: 1,
        digest: 0xDEAD_BEEF, // not the digest of `evil`
    });
    let resp = atlas.request(&raw(Op::PutCommit, "atlas", &id, commit)).unwrap();
    assert_eq!(resp.status, Status::Damaged, "forged digest must fail commit");
    let aborted_before = service.stats().streams_aborted();
    assert!(aborted_before >= 1, "failed commit must abort the stream");
    // The old object is still exactly what was preserved.
    let got = expect_ok(atlas.get("precious.bin").unwrap()).unwrap();
    assert_eq!(got.payload.as_slice(), precious.as_slice());
    // The consumed stream no longer accepts anything.
    let resp = atlas
        .request(&raw(Op::PutChunk, "atlas", &id, stream::encode_chunk(1, &evil)))
        .unwrap();
    assert_eq!(resp.status, Status::BadRequest);

    // An explicit abort reclaims staged chunks and leaves no residue.
    let begin = atlas
        .request(&raw(Op::PutBegin, "atlas", "abandoned.bin", stream::encode_begin(1024)))
        .unwrap();
    let id = begin.detail.clone();
    atlas
        .request(&raw(Op::PutChunk, "atlas", &id, stream::encode_chunk(0, &chunk0)))
        .unwrap();
    let resp = atlas.request(&raw(Op::PutAbort, "atlas", &id, Bytes::new())).unwrap();
    assert_eq!(resp.status, Status::Ok, "detail: {}", resp.detail);
    let miss = atlas.get("abandoned.bin").unwrap();
    assert_eq!(miss.status, Status::NotFound, "aborted stream must leave no object");
    assert_eq!(service.open_streams(), 0, "no stream table residue");

    service.request_shutdown();
    server.join();
}
