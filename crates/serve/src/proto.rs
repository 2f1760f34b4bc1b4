//! The DPRQ/DPRS framed wire protocol of the preservation service.
//!
//! Every message travels as one length-prefixed frame whose body is a
//! DPSL integrity seal (the same fnv64 envelope the tier files use, so
//! the fault campaign can attack service frames with the exact machinery
//! that attacks archives):
//!
//! ```text
//! frame    := frame_len:u32 sealed
//! sealed   := "DPSL" fnv64(body):u64 body
//! body     := request | response
//! request  := "DPRQ" version:u16 op:u8 kind:u8
//!             tenant_len:u16 tenant key_len:u16 key
//!             payload_len:u32 payload
//! response := "DPRS" version:u16 op:u8 status:u8
//!             detail_len:u16 detail payload_len:u32 payload
//! ```
//!
//! Decoding is defensive in the same way the tier codec is: every
//! declared length is checked against the bytes actually present before
//! anything is sliced (a 30-byte frame claiming a 10 MB payload errors
//! immediately, it does not allocate), frames are capped at
//! [`MAX_FRAME_BYTES`], and trailing garbage after a well-formed body is
//! an error. Because the body is sealed, any single-byte change to a
//! frame in flight surfaces as [`ProtoError::Seal`] before the body is
//! even parsed — the "detected or harmless" guarantee the `serve-frame`
//! faultlab class asserts.

use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use daspos_tiers::codec::{self, CodecError};
use daspos_vault::{validate_key, ObjectKind};

/// Magic of a request body: "DASPOS Preservation ReQuest".
pub const REQUEST_MAGIC: &[u8; 4] = b"DPRQ";

/// Magic of a response body: "DASPOS Preservation ReSponse".
pub const RESPONSE_MAGIC: &[u8; 4] = b"DPRS";

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard cap on one sealed frame body (seal overhead included). Keeps a
/// hostile length prefix from pinning server memory.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Longest accepted tenant name.
pub const MAX_TENANT_LEN: usize = 64;

/// Largest chunk a streamed PUT/GET may carry in one frame: the frame
/// cap minus generous room for the request envelope and the seal.
pub const MAX_CHUNK_BYTES: usize = MAX_FRAME_BYTES - 4096;

/// Chunk size streamed transfers use when the caller does not choose.
pub const DEFAULT_CHUNK_BYTES: usize = 4 * 1024 * 1024;

/// The operations a client can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Store a payload under `tenant/key`.
    Put = 1,
    /// Fetch the payload stored under `tenant/key`.
    Get = 2,
    /// Integrity-check the object (no repair); payload echoes the report.
    Verify = 3,
    /// Scrub the whole vault (repairing); payload carries the report.
    Scrub = 4,
    /// Server statistics (object count, op counters) as text.
    Stat = 5,
    /// Ask the server to drain in-flight work and exit.
    Shutdown = 6,
    /// Open a streamed multi-frame PUT; the response detail carries the
    /// server-assigned stream id.
    PutBegin = 7,
    /// Append one chunk to an open put-stream (key = stream id).
    PutChunk = 8,
    /// Close an open put-stream: the server re-reads every staged chunk,
    /// folds the object digest and publishes the object atomically.
    PutCommit = 9,
    /// Abandon an open put-stream and reclaim its staged chunks.
    PutAbort = 10,
    /// Open a streamed GET: the response payload describes the object's
    /// chunking (total length, chunk size, chunk count, fnv64 digest).
    GetBegin = 11,
    /// Fetch one chunk of an object by sequence number.
    GetChunk = 12,
}

impl Op {
    /// All ops, in wire order.
    pub const ALL: [Op; 12] = [
        Op::Put,
        Op::Get,
        Op::Verify,
        Op::Scrub,
        Op::Stat,
        Op::Shutdown,
        Op::PutBegin,
        Op::PutChunk,
        Op::PutCommit,
        Op::PutAbort,
        Op::GetBegin,
        Op::GetChunk,
    ];

    /// The wire discriminant.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decode a wire discriminant.
    pub fn from_u8(v: u8) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.as_u8() == v)
    }

    /// Stable lowercase label used in counters (`serve.ops.put`, …) and
    /// loadgen reports.
    pub fn name(self) -> &'static str {
        match self {
            Op::Put => "put",
            Op::Get => "get",
            Op::Verify => "verify",
            Op::Scrub => "scrub",
            Op::Stat => "stat",
            Op::Shutdown => "shutdown",
            Op::PutBegin => "put-begin",
            Op::PutChunk => "put-chunk",
            Op::PutCommit => "put-commit",
            Op::PutAbort => "put-abort",
            Op::GetBegin => "get-begin",
            Op::GetChunk => "get-chunk",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome carried by a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The operation succeeded; the payload (if any) is valid.
    Ok = 0,
    /// No object stored under the tenant/key.
    NotFound = 1,
    /// Copies exist but none passed integrity checks.
    Damaged = 2,
    /// The admission gate rejected the request; retry later.
    Overloaded = 3,
    /// The request was malformed (bad tenant, bad key, unknown op).
    BadRequest = 4,
    /// The server failed internally (storage fault after retries).
    ServerError = 5,
    /// A per-tenant quota (stored bytes, in-flight ops, or ops/sec)
    /// rejected the op. Unlike `Overloaded` this names *this* tenant's
    /// budget: other tenants are unaffected and an immediate retry will
    /// not help until the budget frees.
    QuotaExceeded = 6,
}

impl Status {
    /// All statuses, in wire order.
    pub const ALL: [Status; 7] = [
        Status::Ok,
        Status::NotFound,
        Status::Damaged,
        Status::Overloaded,
        Status::BadRequest,
        Status::ServerError,
        Status::QuotaExceeded,
    ];

    /// The wire discriminant.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decode a wire discriminant.
    pub fn from_u8(v: u8) -> Option<Status> {
        Status::ALL.into_iter().find(|s| s.as_u8() == v)
    }

    /// Stable lowercase label.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::NotFound => "not-found",
            Status::Damaged => "damaged",
            Status::Overloaded => "overloaded",
            Status::BadRequest => "bad-request",
            Status::ServerError => "server-error",
            Status::QuotaExceeded => "quota-exceeded",
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A protocol-level failure: the frame could not be trusted or parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The body ended before the declared structure was complete.
    Truncated,
    /// The body does not start with the expected DPRQ/DPRS magic.
    BadMagic,
    /// The frame speaks a protocol version this build does not.
    UnsupportedVersion {
        /// Version found in the frame.
        found: u16,
    },
    /// The op byte is not a known operation.
    UnknownOp(u8),
    /// The kind byte is not a known object kind.
    UnknownKind(u8),
    /// The status byte is not a known status.
    UnknownStatus(u8),
    /// The tenant name violates the tenant alphabet.
    BadTenant(String),
    /// The object key violates the storage-key alphabet (or the
    /// composed `tenant.key` would).
    BadKey(String),
    /// A declared length exceeds the frame cap.
    Oversized {
        /// Bytes the frame declared.
        declared: usize,
        /// The enforced cap.
        limit: usize,
    },
    /// Well-formed body followed by trailing garbage.
    TrailingBytes(usize),
    /// A tenant/key/detail field is not valid UTF-8.
    BadText,
    /// The DPSL seal around the body failed to verify.
    Seal(CodecError),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => f.write_str("frame truncated mid-structure"),
            ProtoError::BadMagic => f.write_str("bad frame magic (not a DPRQ/DPRS body)"),
            ProtoError::UnsupportedVersion { found } => write!(
                f,
                "unsupported protocol version {found} (this build speaks {PROTOCOL_VERSION})"
            ),
            ProtoError::UnknownOp(v) => write!(f, "unknown op byte {v:#04x}"),
            ProtoError::UnknownKind(v) => write!(f, "unknown object-kind byte {v:#04x}"),
            ProtoError::UnknownStatus(v) => write!(f, "unknown status byte {v:#04x}"),
            ProtoError::BadTenant(t) => write!(f, "invalid tenant name '{t}'"),
            ProtoError::BadKey(k) => write!(f, "invalid object key '{k}'"),
            ProtoError::Oversized { declared, limit } => {
                write!(f, "declared length {declared} exceeds frame cap {limit}")
            }
            ProtoError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after a complete body")
            }
            ProtoError::BadText => f.write_str("text field is not valid UTF-8"),
            ProtoError::Seal(e) => write!(f, "frame seal rejected: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// Stable short category name, the vocabulary the `serve-frame`
    /// fault class histograms detections under (mirrors
    /// `CodecError::category()` for the seal layer).
    pub fn category(&self) -> &'static str {
        match self {
            ProtoError::Truncated => "framing",
            ProtoError::BadMagic => "magic",
            ProtoError::UnsupportedVersion { .. } => "version",
            ProtoError::UnknownOp(_)
            | ProtoError::UnknownKind(_)
            | ProtoError::UnknownStatus(_)
            | ProtoError::BadTenant(_)
            | ProtoError::BadKey(_)
            | ProtoError::Oversized { .. }
            | ProtoError::TrailingBytes(_)
            | ProtoError::BadText => "structure",
            ProtoError::Seal(e) => e.category().name(),
        }
    }
}

/// Tenants are the namespace axis, so their alphabet is strictly
/// narrower than the storage-key alphabet: lowercase alphanumerics and
/// dashes only, 1–[`MAX_TENANT_LEN`] bytes, **no dots**. The composed
/// storage key is `{tenant}.{key}`; because a tenant can never contain a
/// dot, the first dot always splits the pair back unambiguously.
pub fn validate_tenant(tenant: &str) -> Result<(), ProtoError> {
    let ok = !tenant.is_empty()
        && tenant.len() <= MAX_TENANT_LEN
        && tenant
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(ProtoError::BadTenant(tenant.to_string()))
    }
}

/// Compose the backend storage key for a tenant's object, validating
/// both halves (and the composed key against the backend alphabet).
/// The `..` sequence is reserved: the streaming layer stores an
/// object's chunk records under `{tenant}.{key}..g<gen>.c<seq>`, so a
/// client-supplied key may never contain two consecutive dots.
pub fn storage_key(tenant: &str, key: &str) -> Result<String, ProtoError> {
    validate_tenant(tenant)?;
    if key.is_empty() || key.contains("..") {
        return Err(ProtoError::BadKey(key.to_string()));
    }
    let composed = format!("{tenant}.{key}");
    validate_key(&composed).map_err(|_| ProtoError::BadKey(key.to_string()))?;
    Ok(composed)
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The requested operation.
    pub op: Op,
    /// Object kind (meaningful for `Put`; `Opaque` elsewhere).
    pub kind: ObjectKind,
    /// The tenant namespace the op runs in.
    pub tenant: String,
    /// The object key within the tenant (empty for vault-wide ops).
    pub key: String,
    /// The payload (`Put` bytes; empty elsewhere).
    pub payload: Bytes,
}

impl Request {
    /// A payload-free request (get/verify/scrub/stat/shutdown).
    pub fn control(op: Op, tenant: &str, key: &str) -> Request {
        Request {
            op,
            kind: ObjectKind::Opaque,
            tenant: tenant.to_string(),
            key: key.to_string(),
            payload: Bytes::new(),
        }
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the op this responds to.
    pub op: Op,
    /// The outcome.
    pub status: Status,
    /// Human-readable diagnostics (error reasons, report text).
    pub detail: String,
    /// The payload (`Get` bytes; empty or report text elsewhere).
    pub payload: Bytes,
}

impl Response {
    /// A payload-free response.
    pub fn status_only(op: Op, status: Status, detail: impl Into<String>) -> Response {
        Response {
            op,
            status,
            detail: detail.into(),
            payload: Bytes::new(),
        }
    }
}

fn need(buf: &Bytes, n: usize) -> Result<(), ProtoError> {
    if buf.remaining() < n {
        Err(ProtoError::Truncated)
    } else {
        Ok(())
    }
}

/// Read a length-prefixed field, clamping the declared length by the
/// bytes actually remaining *before* slicing — a forged length cannot
/// drive an allocation.
fn take(buf: &mut Bytes, declared: usize) -> Result<Bytes, ProtoError> {
    need(buf, within_frame_cap(declared)?)?;
    Ok(buf.split_to(declared))
}

/// `declared` itself if it fits under [`MAX_FRAME_BYTES`].
fn within_frame_cap(declared: usize) -> Result<usize, ProtoError> {
    if declared > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized {
            declared,
            limit: MAX_FRAME_BYTES,
        });
    }
    Ok(declared)
}

/// The sealed-body length a frame's 4-byte little-endian prefix
/// declares, checked against [`MAX_FRAME_BYTES`] before a single body
/// byte is buffered. The one frame-length check: [`crate::wire`], which
/// both ends of a connection read frames with, and [`split_frame`] read
/// prefixes here.
pub fn frame_len(prefix: [u8; 4]) -> Result<usize, ProtoError> {
    within_frame_cap(u32::from_le_bytes(prefix) as usize)
}

fn take_text(buf: &mut Bytes, declared: usize) -> Result<String, ProtoError> {
    let raw = take(buf, declared)?;
    String::from_utf8(raw.to_vec()).map_err(|_| ProtoError::BadText)
}

/// Serialize and seal a request into one wire frame (length prefix
/// included).
pub fn encode_request(req: &Request) -> Bytes {
    let mut body = BytesMut::with_capacity(
        16 + req.tenant.len() + req.key.len() + req.payload.len(),
    );
    body.put_slice(REQUEST_MAGIC);
    body.put_u16_le(PROTOCOL_VERSION);
    body.put_u8(req.op.as_u8());
    body.put_u8(req.kind.as_u8());
    body.put_u16_le(req.tenant.len() as u16);
    body.put_slice(req.tenant.as_bytes());
    body.put_u16_le(req.key.len() as u16);
    body.put_slice(req.key.as_bytes());
    body.put_u32_le(req.payload.len() as u32);
    body.put_slice(&req.payload);
    frame(&body.freeze())
}

/// Serialize and seal a response into one wire frame (length prefix
/// included).
pub fn encode_response(resp: &Response) -> Bytes {
    let mut body =
        BytesMut::with_capacity(16 + resp.detail.len() + resp.payload.len());
    body.put_slice(RESPONSE_MAGIC);
    body.put_u16_le(PROTOCOL_VERSION);
    body.put_u8(resp.op.as_u8());
    body.put_u8(resp.status.as_u8());
    body.put_u16_le(resp.detail.len() as u16);
    body.put_slice(resp.detail.as_bytes());
    body.put_u32_le(resp.payload.len() as u32);
    body.put_slice(&resp.payload);
    frame(&body.freeze())
}

/// Seal a body and prepend the u32 frame-length prefix.
fn frame(body: &Bytes) -> Bytes {
    let sealed = codec::seal(body);
    let mut out = BytesMut::with_capacity(4 + sealed.len());
    out.put_u32_le(sealed.len() as u32);
    out.put_slice(&sealed);
    out.freeze()
}

/// Unseal a frame body (the bytes *after* the length prefix) and hand
/// back the plain body for parsing.
fn unseal_body(sealed: &Bytes) -> Result<Bytes, ProtoError> {
    within_frame_cap(sealed.len())?;
    codec::unseal(sealed).map_err(ProtoError::Seal)
}

fn decode_prologue(
    body: &mut Bytes,
    magic: &[u8; 4],
) -> Result<(u8, u8), ProtoError> {
    need(body, 8)?;
    let got = body.split_to(4);
    if got.as_slice() != magic {
        return Err(ProtoError::BadMagic);
    }
    let version = body.get_u16_le();
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::UnsupportedVersion { found: version });
    }
    Ok((body.get_u8(), body.get_u8()))
}

/// Parse a sealed request frame body. Validates the seal, the structure,
/// the tenant/key alphabets, and that nothing trails the body.
pub fn decode_request(sealed: &Bytes) -> Result<Request, ProtoError> {
    let mut body = unseal_body(sealed)?;
    let (op_byte, kind_byte) = decode_prologue(&mut body, REQUEST_MAGIC)?;
    let op = Op::from_u8(op_byte).ok_or(ProtoError::UnknownOp(op_byte))?;
    let kind = ObjectKind::from_u8(kind_byte).ok_or(ProtoError::UnknownKind(kind_byte))?;
    need(&body, 2)?;
    let tenant_len = body.get_u16_le() as usize;
    let tenant = take_text(&mut body, tenant_len)?;
    need(&body, 2)?;
    let key_len = body.get_u16_le() as usize;
    let key = take_text(&mut body, key_len)?;
    need(&body, 4)?;
    let payload_len = body.get_u32_le() as usize;
    let payload = take(&mut body, payload_len)?;
    if !body.is_empty() {
        return Err(ProtoError::TrailingBytes(body.len()));
    }
    validate_tenant(&tenant)?;
    if op != Op::Shutdown && op != Op::Stat && op != Op::Scrub {
        // Keyed ops must name a storable object.
        storage_key(&tenant, &key)?;
    }
    Ok(Request {
        op,
        kind,
        tenant,
        key,
        payload,
    })
}

/// Parse a sealed response frame body.
pub fn decode_response(sealed: &Bytes) -> Result<Response, ProtoError> {
    let mut body = unseal_body(sealed)?;
    let (op_byte, status_byte) = decode_prologue(&mut body, RESPONSE_MAGIC)?;
    let op = Op::from_u8(op_byte).ok_or(ProtoError::UnknownOp(op_byte))?;
    let status =
        Status::from_u8(status_byte).ok_or(ProtoError::UnknownStatus(status_byte))?;
    need(&body, 2)?;
    let detail_len = body.get_u16_le() as usize;
    let detail = take_text(&mut body, detail_len)?;
    need(&body, 4)?;
    let payload_len = body.get_u32_le() as usize;
    let payload = take(&mut body, payload_len)?;
    if !body.is_empty() {
        return Err(ProtoError::TrailingBytes(body.len()));
    }
    Ok(Response {
        op,
        status,
        detail,
        payload,
    })
}

/// Split one wire frame into its sealed body, checking the length prefix
/// against the cap and the bytes present. Returns the sealed body and
/// the total frame size consumed. Used by tests and the fault class; the
/// live server reads the prefix straight off the socket.
pub fn split_frame(wire: &Bytes) -> Result<(Bytes, usize), ProtoError> {
    let prefix = wire.first_chunk::<4>().ok_or(ProtoError::Truncated)?;
    let end = 4 + frame_len(*prefix)?;
    if wire.len() < end {
        return Err(ProtoError::Truncated);
    }
    Ok((wire.slice(4..end), end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            op: Op::Put,
            kind: ObjectKind::SealedTier,
            tenant: "cms-higgs".to_string(),
            key: "aod-0001.dpef".to_string(),
            payload: Bytes::from_static(b"sealed tier bytes"),
        }
    }

    #[test]
    fn request_round_trips() {
        let req = sample_request();
        let wire = encode_request(&req);
        let (sealed, used) = split_frame(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(decode_request(&sealed).unwrap(), req);
    }

    #[test]
    fn response_round_trips() {
        let resp = Response {
            op: Op::Get,
            status: Status::Ok,
            detail: "kind=sealed-tier".to_string(),
            payload: Bytes::from_static(b"object bytes"),
        };
        let wire = encode_response(&resp);
        let (sealed, _) = split_frame(&wire).unwrap();
        assert_eq!(decode_response(&sealed).unwrap(), resp);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let wire = encode_request(&sample_request());
        let (sealed, _) = split_frame(&wire).unwrap();
        for i in 0..sealed.len() {
            for bit in 0..8 {
                let mut bad = sealed.to_vec();
                bad[i] ^= 1 << bit;
                assert!(
                    decode_request(&Bytes::from(bad)).is_err(),
                    "flip bit {bit} of byte {i} must not decode"
                );
            }
        }
    }

    #[test]
    fn truncations_are_detected() {
        let wire = encode_request(&sample_request());
        let (sealed, _) = split_frame(&wire).unwrap();
        for cut in 0..sealed.len() {
            let bad = sealed.slice(0..cut);
            assert!(decode_request(&bad).is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn forged_lengths_do_not_allocate_or_decode() {
        // Re-seal a body whose payload length claims 10 MB on a tiny
        // frame: the seal verifies (we forged it honestly) so the parser
        // itself must catch the lie.
        let mut body = BytesMut::new();
        body.put_slice(REQUEST_MAGIC);
        body.put_u16_le(PROTOCOL_VERSION);
        body.put_u8(Op::Put.as_u8());
        body.put_u8(0);
        body.put_u16_le(1);
        body.put_slice(b"t");
        body.put_u16_le(1);
        body.put_slice(b"k");
        body.put_u32_le(10_000_000);
        body.put_slice(b"tiny");
        let sealed = codec::seal(&body.freeze());
        assert_eq!(
            decode_request(&sealed),
            Err(ProtoError::Truncated),
            "declared 10MB on 4 bytes must error, not allocate"
        );
    }

    #[test]
    fn oversized_frame_prefix_is_rejected() {
        let mut wire = BytesMut::new();
        wire.put_u32_le((MAX_FRAME_BYTES + 1) as u32);
        let err = split_frame(&wire.freeze()).unwrap_err();
        assert!(matches!(err, ProtoError::Oversized { .. }));
    }

    #[test]
    fn tenant_alphabet_is_enforced() {
        for good in ["cms", "atlas-run2", "t0", "a-b-c-9"] {
            validate_tenant(good).unwrap();
        }
        for bad in ["", "CMS", "with.dot", "under_score", "sp ace", &"x".repeat(65)] {
            assert!(validate_tenant(bad).is_err(), "tenant {bad:?} must fail");
        }
    }

    #[test]
    fn storage_key_composes_and_splits_unambiguously() {
        assert_eq!(storage_key("cms", "aod.dpef").unwrap(), "cms.aod.dpef");
        // A tenant can never contain a dot, so the first dot always
        // recovers the tenant.
        let composed = storage_key("atlas-run2", "x.y.z").unwrap();
        let (tenant, key) = composed.split_once('.').unwrap();
        assert_eq!((tenant, key), ("atlas-run2", "x.y.z"));
        assert!(storage_key("cms", "").is_err());
        assert!(storage_key("cms", "bad/slash").is_err());
        assert!(storage_key("", "k").is_err());
    }

    #[test]
    fn double_dot_keys_are_reserved_for_the_streaming_layer() {
        assert!(storage_key("cms", "a..b").is_err());
        assert!(storage_key("cms", "a..g1.c0").is_err());
        assert!(storage_key("cms", "..x").is_err());
        // A single interior dot stays legal.
        storage_key("cms", "a.b").unwrap();
    }

    #[test]
    fn stream_ops_round_trip_and_carry_distinct_discriminants() {
        let mut seen = std::collections::BTreeSet::new();
        for op in Op::ALL {
            assert!(seen.insert(op.as_u8()), "duplicate discriminant for {op}");
            assert_eq!(Op::from_u8(op.as_u8()), Some(op));
            let req = Request {
                op,
                kind: ObjectKind::Opaque,
                tenant: "cms".to_string(),
                key: "42".to_string(),
                payload: Bytes::from_static(b"\x01\x00\x00\x00chunk"),
            };
            let wire = encode_request(&req);
            let (sealed, _) = split_frame(&wire).unwrap();
            assert_eq!(decode_request(&sealed).unwrap(), req);
        }
        assert_eq!(Op::ALL.len(), 12);
        assert_eq!(Status::ALL.len(), 7);
        assert_eq!(Status::from_u8(6), Some(Status::QuotaExceeded));
        assert_eq!(Status::QuotaExceeded.name(), "quota-exceeded");
    }

    #[test]
    fn wrong_version_and_unknown_bytes_are_typed() {
        let mut body = BytesMut::new();
        body.put_slice(REQUEST_MAGIC);
        body.put_u16_le(99);
        body.put_u8(1);
        body.put_u8(0);
        let sealed = codec::seal(&body.freeze());
        assert_eq!(
            decode_request(&sealed),
            Err(ProtoError::UnsupportedVersion { found: 99 })
        );

        let mut req = sample_request();
        req.op = Op::Put;
        let wire = encode_request(&req);
        let (sealed, _) = split_frame(&wire).unwrap();
        // Rebuild with an unknown op byte, sealed honestly.
        let mut body = codec::unseal(&sealed).unwrap().to_vec();
        body[6] = 0xEE;
        let resealed = codec::seal(&Bytes::from(body));
        assert_eq!(
            decode_request(&resealed),
            Err(ProtoError::UnknownOp(0xEE))
        );
    }

    #[test]
    fn categories_cover_the_failure_taxonomy() {
        assert_eq!(ProtoError::Truncated.category(), "framing");
        assert_eq!(ProtoError::BadMagic.category(), "magic");
        assert_eq!(
            ProtoError::UnsupportedVersion { found: 9 }.category(),
            "version"
        );
        assert_eq!(ProtoError::UnknownOp(7).category(), "structure");
        assert_eq!(
            ProtoError::Seal(CodecError::SealMismatch {
                stored: 1,
                actual: 2
            })
            .category(),
            "integrity"
        );
    }
}
