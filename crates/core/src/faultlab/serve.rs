//! `serve-frame`: byte edits of one DPRQ/DPRS wire frame of the
//! preservation service, and — a quarter of the budget — misuse drills
//! against its chunked-streaming state machine.

use std::sync::Arc;

use daspos_serve::stream::{encode_begin, encode_chunk, encode_commit, StreamInfo};
use daspos_serve::{ServeConfig, Service, Status as ServeStatus};
use daspos_vault::{MemoryBackend, StorageBackend, Vault};

use super::*;

/// The service wire exchange.
pub(super) struct ServeFrame;

/// One serve-frame mutation.
pub(super) enum ServeAttack {
    /// Edit the request frame, or (`response`) the response frame.
    Frame { response: bool, edit: ByteEdit },
    /// Run a streaming-state drill.
    Stream(StreamScenario),
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

impl FaultClass for ServeFrame {
    type Plan = ServeAttack;

    fn plan(&self, rng: &mut StdRng, fixture: &CampaignFixture) -> (MutationKind, ServeAttack) {
        if rng.gen_range(0..4u32) == 0 {
            let scenario = match rng.gen_range(0..4u32) {
                0 => StreamScenario::OrphanedChunks {
                    chunks: 1 + rng.gen_range(0..3u32),
                },
                1 => StreamScenario::OutOfOrderCommit,
                2 => StreamScenario::MidStreamTruncation,
                _ => StreamScenario::CrossTenantSplice,
            };
            let kind = MutationKind::ServeStream {
                scenario: scenario.clone(),
            };
            return (kind, ServeAttack::Stream(scenario));
        }
        let response = rng.gen_range(0..2u32) == 1;
        let edit = ByteEdit::sample(rng, &shape(frame(fixture, response)));
        let kind = MutationKind::ServeFrame {
            response,
            sub: edit,
        };
        (kind, ServeAttack::Frame { response, edit })
    }

    fn check(&self, fixture: &CampaignFixture, plan: &ServeAttack, _: &mut RerunCache) -> Outcome {
        match plan {
            ServeAttack::Frame { response, edit } => {
                check_frame(fixture, *response, edit.apply(frame(fixture, *response)))
            }
            ServeAttack::Stream(scenario) => check_stream(fixture, scenario),
        }
    }
}

fn frame(fixture: &CampaignFixture, response: bool) -> &Bytes {
    if response {
        &fixture.serve_response
    } else {
        &fixture.serve_request
    }
}

/// Boundaries of a service wire frame: the length-prefix edge, the DPSL
/// seal's magic/digest edges, and the end of the DPRQ/DPRS prologue —
/// the seams boundary truncations and length inflations should land on.
pub(super) fn shape(wire: &Bytes) -> ArtifactShape {
    let body = 4 + codec::SEAL_OVERHEAD;
    let mut boundaries = vec![4, 8, body, body + 8];
    boundaries.retain(|b| *b < wire.len());
    ArtifactShape {
        len: wire.len(),
        boundaries,
    }
}

/// A fresh 2-replica in-memory service for frame attacks.
pub(super) fn scratch_service() -> Result<Service, Error> {
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

/// Run `attack` against a scratch service holding the tenant's pristine
/// deposit, then demand the deposit reads back byte-identical: whatever
/// the attack did, it must never corrupt tenant state.
fn against_deposit(fixture: &CampaignFixture, attack: impl FnOnce(&Service) -> Outcome) -> Outcome {
    let service = match scratch_service() {
        Ok(s) => s,
        Err(e) => return Outcome::Violation(format!("scratch service failed to build: {e}")),
    };
    let pristine = &fixture.serve_request_obj;
    let deposited = service.handle(pristine);
    if deposited.status != ServeStatus::Ok {
        return Outcome::Violation(format!("pristine deposit failed: {}", deposited.status));
    }
    let outcome = attack(&service);
    let stored = service.handle(&ServeRequest::control(
        ServeOp::Get,
        &pristine.tenant,
        &pristine.key,
    ));
    if stored.status != ServeStatus::Ok || stored.payload != pristine.payload {
        return Outcome::Violation(format!(
            "tenant state corrupted by the attack (get came back {})",
            stored.status
        ));
    }
    outcome
}

/// Judge one mutated service frame. Response frames attack the
/// client-side decoder: the mutation must be rejected with a typed
/// [`serve_proto::ProtoError`] or decode byte-identically to the
/// pristine response. Request frames go through the live [`Service`]
/// dispatch: the service must answer without panicking and a malformed
/// frame must come back as `BadRequest`.
fn check_frame(fixture: &CampaignFixture, response: bool, mutated: Vec<u8>) -> Outcome {
    let mutated = Bytes::from(mutated);
    if response {
        let decoded = serve_proto::split_frame(&mutated)
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
    let (sealed, _) = match serve_proto::split_frame(&mutated) {
        Err(e) => return Outcome::Detected(format!("frame:{}", e.category())),
        Ok(x) => x,
    };
    against_deposit(fixture, |service| {
        let (resp_frame, _close) = service.handle_wire(&sealed);
        let resp = match serve_proto::split_frame(&resp_frame)
            .and_then(|(s, _)| serve_proto::decode_response(&s))
        {
            Ok(r) => r,
            Err(e) => {
                return Outcome::Violation(format!("server emitted an undecodable response: {e}"))
            }
        };
        match serve_proto::decode_request(&sealed) {
            Err(e) if resp.status == ServeStatus::BadRequest => {
                Outcome::Detected(format!("frame:{}", e.category()))
            }
            Err(e) => Outcome::Violation(format!(
                "malformed frame ({e}) answered {} instead of bad-request",
                resp.status
            )),
            // e.g. a region swapped with itself: the pristine PUT
            // replays and must succeed again.
            Ok(req) if req == fixture.serve_request_obj => match resp.status {
                ServeStatus::Ok => Outcome::Harmless,
                other => Outcome::Violation(format!("pristine replayed frame answered {other}")),
            },
            Ok(_) => Outcome::Violation(
                "frame seal accepted a modified request (digest collision)".to_string(),
            ),
        }
    })
}

/// Judge one streaming-state misuse drill against a live service. Every
/// scenario opens a stream and stages chunks; the service must answer
/// with a typed refusal (or tolerate an abandonment), and the tenant's
/// pristine object, deposited before the attack, must read back
/// byte-identical afterwards.
fn check_stream(fixture: &CampaignFixture, scenario: &StreamScenario) -> Outcome {
    const CHUNK: u32 = 1024;
    let pristine = &fixture.serve_request_obj;
    let tenant = pristine.tenant.as_str();
    // The splice drill commits the owner's stream, so it targets a
    // sibling key; every other drill must leave the attacked key alone.
    let key = match scenario {
        StreamScenario::CrossTenantSplice => format!("{}.spliced", pristine.key),
        _ => pristine.key.clone(),
    };
    let filler = vec![0xA5u8; CHUNK as usize];
    against_deposit(fixture, |service| {
        let send = |op: ServeOp, who: &str, key: &str, payload: Bytes| {
            service.handle(&ServeRequest {
                kind: pristine.kind,
                payload,
                ..ServeRequest::control(op, who, key)
            })
        };
        let opened = send(ServeOp::PutBegin, tenant, &key, encode_begin(CHUNK));
        if opened.status != ServeStatus::Ok {
            return Outcome::Violation(format!(
                "stream open refused on a healthy service: {}",
                opened.detail
            ));
        }
        let id = opened.detail;
        let staged = match scenario {
            StreamScenario::OrphanedChunks { chunks } => *chunks,
            _ => 1,
        };
        let chunk = |who: &str, seq: u32, data: &[u8]| {
            send(ServeOp::PutChunk, who, &id, encode_chunk(seq, data))
        };
        for seq in 0..staged {
            let resp = chunk(tenant, seq, &filler);
            if resp.status != ServeStatus::Ok {
                return Outcome::Violation(format!(
                    "staging chunk {seq} refused on a healthy service: {}",
                    resp.detail
                ));
            }
        }
        let commit = |chunks: u32, total_len: u64, digest: u64| {
            let info = StreamInfo {
                total_len,
                chunk_size: CHUNK,
                chunks,
                digest,
            };
            send(ServeOp::PutCommit, tenant, &id, encode_commit(&info))
        };
        let refused = |resp: ServeResponse, label: &str, what: &str| match resp.status {
            ServeStatus::BadRequest => Outcome::Detected(format!("stream:{label}")),
            other => Outcome::Violation(format!("{what} answered {other} instead of bad-request")),
        };
        match scenario {
            // The client vanishes. The staged chunks must never become
            // visible: the committed object is still the pristine one.
            StreamScenario::OrphanedChunks { .. } => Outcome::Harmless,
            // Commit declares three chunks while only one was staged.
            StreamScenario::OutOfOrderCommit => refused(
                commit(3, u64::from(CHUNK) * 3, 0),
                "commit-order",
                "premature commit",
            ),
            // The upload died after one chunk; the commit still declares
            // the full, never-staged object length.
            StreamScenario::MidStreamTruncation => refused(
                commit(1, u64::from(CHUNK) * 4, codec::fnv64(&filler)),
                "truncation",
                "truncated commit",
            ),
            StreamScenario::CrossTenantSplice => {
                // Another tenant quotes the victim's stream id.
                let evil = vec![0x5Cu8; CHUNK as usize];
                let splice = chunk("intruder", 1, &evil);
                if splice.status != ServeStatus::BadRequest {
                    return Outcome::Violation(format!(
                        "cross-tenant chunk answered {} instead of bad-request",
                        splice.status
                    ));
                }
                // The victim finishes the stream; the committed bytes
                // must be exactly the victim's, with no spliced-in chunk.
                let resp = chunk(tenant, 1, &filler);
                if resp.status != ServeStatus::Ok {
                    return Outcome::Violation(format!(
                        "owner's stream broken by a refused splice: {}",
                        resp.detail
                    ));
                }
                let whole = filler.repeat(2);
                let resp = commit(2, u64::from(CHUNK) * 2, codec::fnv64(&whole));
                if resp.status != ServeStatus::Ok {
                    return Outcome::Violation(format!(
                        "owner's commit failed after a refused splice: {}",
                        resp.detail
                    ));
                }
                let stored = service.handle(&ServeRequest::control(ServeOp::Get, tenant, &key));
                if stored.status != ServeStatus::Ok || stored.payload.as_slice() != whole.as_slice()
                {
                    return Outcome::Violation(
                        "committed stream does not match the owner's bytes after a splice attempt"
                            .to_string(),
                    );
                }
                Outcome::Detected("stream:cross-tenant".to_string())
            }
        }
    })
}
