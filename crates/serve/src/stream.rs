//! Streamed multi-frame transfer: payload codecs and the chunk manifest.
//!
//! Objects larger than one [`MAX_FRAME_BYTES`](crate::proto::MAX_FRAME_BYTES)
//! frame travel as a *stream*: `PutBegin` opens a server-side stream,
//! every `PutChunk` frame carries one chunk (individually fnv-sealed
//! like every frame), and `PutCommit` publishes the object after the
//! server has re-read the staged chunks and verified the whole-object
//! fnv64 digest the client declares. On the vault side a committed
//! stream is one small **manifest** object at the composed key plus one
//! vault object per chunk:
//!
//! ```text
//! {tenant}.{key}                   DPSM manifest (kind = StreamManifest)
//! {tenant}.{key}..g<gen>.c<seq>    chunk objects, generation-addressed
//! ```
//!
//! The generation id makes commits atomic: chunks stage under a fresh
//! generation nobody references, and the single manifest write flips
//! readers over. Orphaned generations (aborted or crashed streams) are
//! invisible to GETs and swept at the next commit to the same key. The
//! `..` separator can never appear in a client-supplied key (see
//! [`storage_key`](crate::proto::storage_key)), so chunk records can
//! never collide with real objects.
//!
//! GET streaming is stateless: `GetBegin` answers the object's chunk
//! geometry and whole-object digest, `GetChunk` serves one chunk, and
//! the client folds the digest incrementally — a concurrent overwrite
//! surfaces as a digest mismatch at the client, never as silent mixing.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use daspos_vault::ObjectKind;

use crate::proto::{ProtoError, MAX_CHUNK_BYTES};

/// Magic of a stream manifest payload: "DASPOS Stream Manifest".
pub const MANIFEST_MAGIC: &[u8; 4] = b"DPSM";

/// Current manifest wire version.
pub const MANIFEST_VERSION: u16 = 1;

/// The chunk geometry of a streamed object, carried by the `GetBegin`
/// response payload and (with the kind and generation) by the stored
/// manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamInfo {
    /// Total object payload length in bytes.
    pub total_len: u64,
    /// Bytes per chunk (every chunk but the last is exactly this).
    pub chunk_size: u32,
    /// Number of chunks.
    pub chunks: u32,
    /// fnv64 over the whole object payload.
    pub digest: u64,
}

/// A committed stream's stored manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// The object kind the client declared at `PutBegin`.
    pub kind: ObjectKind,
    /// Chunk geometry and whole-object digest.
    pub info: StreamInfo,
    /// The generation the chunk records live under.
    pub gen: u64,
}

/// The vault key of chunk `seq` of generation `gen` of `composed`.
/// Fixed-width fields keep the namespace collision-free and sortable.
pub fn chunk_key(composed: &str, gen: u64, seq: u32) -> String {
    format!("{composed}..g{gen:016x}.c{seq:08}")
}

/// The prefix every chunk record of `composed` (any generation) shares.
pub fn chunk_prefix(composed: &str) -> String {
    format!("{composed}..g")
}

/// Number of chunks a `total_len`-byte object splits into (zero-byte
/// objects carry zero chunks).
pub fn chunk_count(total_len: u64, chunk_size: u32) -> u32 {
    if total_len == 0 {
        0
    } else {
        total_len.div_ceil(u64::from(chunk_size.max(1))) as u32
    }
}

/// Validate a client-declared chunk size.
pub fn validate_chunk_size(chunk_size: u32) -> Result<(), ProtoError> {
    if chunk_size == 0 || chunk_size as usize > MAX_CHUNK_BYTES {
        return Err(ProtoError::Oversized {
            declared: chunk_size as usize,
            limit: MAX_CHUNK_BYTES,
        });
    }
    Ok(())
}

fn short(buf: &Bytes, n: usize) -> Result<(), ProtoError> {
    if buf.remaining() < n {
        Err(ProtoError::Truncated)
    } else {
        Ok(())
    }
}

/// Encode a `PutBegin`/`GetBegin` request payload (the requested chunk
/// size; 0 in a `GetBegin` asks for the server default).
pub fn encode_begin(chunk_size: u32) -> Bytes {
    Bytes::copy_from_slice(&chunk_size.to_le_bytes())
}

/// Decode a begin payload.
pub fn decode_begin(payload: &Bytes) -> Result<u32, ProtoError> {
    let mut b = payload.clone();
    short(&b, 4)?;
    let chunk_size = b.get_u32_le();
    if !b.is_empty() {
        return Err(ProtoError::TrailingBytes(b.len()));
    }
    Ok(chunk_size)
}

/// Encode a chunk payload (`PutChunk` request / `GetChunk` response):
/// the sequence number followed by the chunk bytes.
pub fn encode_chunk(seq: u32, data: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(4 + data.len());
    out.put_u32_le(seq);
    out.put_slice(data);
    out.freeze()
}

/// Decode a chunk payload into `(seq, data)`. The data slice is a
/// zero-copy view into the frame.
pub fn decode_chunk(payload: &Bytes) -> Result<(u32, Bytes), ProtoError> {
    let mut b = payload.clone();
    short(&b, 4)?;
    let seq = b.get_u32_le();
    if b.len() > MAX_CHUNK_BYTES {
        return Err(ProtoError::Oversized {
            declared: b.len(),
            limit: MAX_CHUNK_BYTES,
        });
    }
    Ok((seq, b))
}

/// Encode a `GetChunk` request payload: the wanted sequence number plus
/// the chunk size echoed from `GetBegin` (which keeps the op stateless
/// for objects stored un-chunked).
pub fn encode_get_chunk(seq: u32, chunk_size: u32) -> Bytes {
    let mut out = BytesMut::with_capacity(8);
    out.put_u32_le(seq);
    out.put_u32_le(chunk_size);
    out.freeze()
}

/// Decode a `GetChunk` request payload into `(seq, chunk_size)`.
pub fn decode_get_chunk(payload: &Bytes) -> Result<(u32, u32), ProtoError> {
    let mut b = payload.clone();
    short(&b, 8)?;
    let seq = b.get_u32_le();
    let chunk_size = b.get_u32_le();
    if !b.is_empty() {
        return Err(ProtoError::TrailingBytes(b.len()));
    }
    Ok((seq, chunk_size))
}

/// Encode a `PutCommit` request payload: the chunk count, total length
/// and whole-object digest the client observed while streaming.
pub fn encode_commit(info: &StreamInfo) -> Bytes {
    let mut out = BytesMut::with_capacity(20);
    out.put_u32_le(info.chunks);
    out.put_u64_le(info.total_len);
    out.put_u64_le(info.digest);
    out.freeze()
}

/// Decode a `PutCommit` payload into `(chunks, total_len, digest)`.
pub fn decode_commit(payload: &Bytes) -> Result<(u32, u64, u64), ProtoError> {
    let mut b = payload.clone();
    short(&b, 20)?;
    let chunks = b.get_u32_le();
    let total_len = b.get_u64_le();
    let digest = b.get_u64_le();
    if !b.is_empty() {
        return Err(ProtoError::TrailingBytes(b.len()));
    }
    Ok((chunks, total_len, digest))
}

/// Encode a `GetBegin` response payload.
pub fn encode_info(info: &StreamInfo) -> Bytes {
    let mut out = BytesMut::with_capacity(24);
    out.put_u64_le(info.total_len);
    out.put_u32_le(info.chunk_size);
    out.put_u32_le(info.chunks);
    out.put_u64_le(info.digest);
    out.freeze()
}

/// Decode a `GetBegin` response payload.
pub fn decode_info(payload: &Bytes) -> Result<StreamInfo, ProtoError> {
    let mut b = payload.clone();
    short(&b, 24)?;
    let info = StreamInfo {
        total_len: b.get_u64_le(),
        chunk_size: b.get_u32_le(),
        chunks: b.get_u32_le(),
        digest: b.get_u64_le(),
    };
    if !b.is_empty() {
        return Err(ProtoError::TrailingBytes(b.len()));
    }
    Ok(info)
}

/// Serialize a manifest into its stored payload form.
pub fn encode_manifest(m: &Manifest) -> Bytes {
    let mut out = BytesMut::with_capacity(4 + 2 + 1 + 24 + 8);
    out.put_slice(MANIFEST_MAGIC);
    out.put_u16_le(MANIFEST_VERSION);
    out.put_u8(m.kind.as_u8());
    out.put_u64_le(m.info.total_len);
    out.put_u32_le(m.info.chunk_size);
    out.put_u32_le(m.info.chunks);
    out.put_u64_le(m.info.digest);
    out.put_u64_le(m.gen);
    out.freeze()
}

/// Parse a stored manifest payload. Defensive like the frame decoders:
/// every field is bounds-checked and trailing bytes are an error.
pub fn decode_manifest(payload: &Bytes) -> Result<Manifest, ProtoError> {
    let mut b = payload.clone();
    short(&b, 4 + 2 + 1)?;
    let magic = b.split_to(4);
    if magic.as_slice() != MANIFEST_MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let version = b.get_u16_le();
    if version != MANIFEST_VERSION {
        return Err(ProtoError::UnsupportedVersion { found: version });
    }
    let kind_byte = b.get_u8();
    let kind = ObjectKind::from_u8(kind_byte).ok_or(ProtoError::UnknownKind(kind_byte))?;
    short(&b, 24 + 8)?;
    let info = StreamInfo {
        total_len: b.get_u64_le(),
        chunk_size: b.get_u32_le(),
        chunks: b.get_u32_le(),
        digest: b.get_u64_le(),
    };
    let gen = b.get_u64_le();
    if !b.is_empty() {
        return Err(ProtoError::TrailingBytes(b.len()));
    }
    if info.chunk_size == 0 && info.chunks != 0 {
        return Err(ProtoError::Oversized {
            declared: 0,
            limit: MAX_CHUNK_BYTES,
        });
    }
    Ok(Manifest { kind, info, gen })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_codecs_round_trip_and_reject_trailing_bytes() {
        let info = StreamInfo {
            total_len: 64 * 1024 * 1024 + 3,
            chunk_size: 4 * 1024 * 1024,
            chunks: 17,
            digest: 0xDEAD_BEEF_0123_4567,
        };
        assert_eq!(decode_begin(&encode_begin(9)).unwrap(), 9);
        assert_eq!(decode_info(&encode_info(&info)).unwrap(), info);
        assert_eq!(
            decode_commit(&encode_commit(&info)).unwrap(),
            (info.chunks, info.total_len, info.digest)
        );
        let (seq, data) = decode_chunk(&encode_chunk(5, b"abc")).unwrap();
        assert_eq!((seq, data.as_slice()), (5, b"abc".as_slice()));
        assert_eq!(decode_get_chunk(&encode_get_chunk(3, 512)).unwrap(), (3, 512));

        let mut long = encode_info(&info).to_vec();
        long.push(0);
        assert!(decode_info(&Bytes::from(long)).is_err());
        assert!(decode_begin(&Bytes::from_static(b"\x01\x00")).is_err());
        assert!(decode_commit(&Bytes::from_static(b"short")).is_err());
    }

    #[test]
    fn manifest_round_trips_and_rejects_damage() {
        let m = Manifest {
            kind: ObjectKind::SealedTier,
            info: StreamInfo {
                total_len: 1000,
                chunk_size: 256,
                chunks: 4,
                digest: 42,
            },
            gen: 7,
        };
        let wire = encode_manifest(&m);
        assert_eq!(decode_manifest(&wire).unwrap(), m);
        assert!(decode_manifest(&Bytes::from_static(b"NOPE")).is_err());
        let mut bad_kind = wire.to_vec();
        bad_kind[6] = 0xEE;
        assert!(decode_manifest(&Bytes::from(bad_kind)).is_err());
        let mut truncated = wire.to_vec();
        truncated.truncate(wire.len() - 1);
        assert!(decode_manifest(&Bytes::from(truncated)).is_err());
    }

    #[test]
    fn chunk_keys_are_generation_addressed_and_reserved() {
        assert_eq!(
            chunk_key("cms.aod", 1, 0),
            "cms.aod..g0000000000000001.c00000000"
        );
        assert!(chunk_key("cms.aod", 1, 0).starts_with(&chunk_prefix("cms.aod")));
        assert_eq!(chunk_count(0, 1024), 0);
        assert_eq!(chunk_count(1, 1024), 1);
        assert_eq!(chunk_count(1024, 1024), 1);
        assert_eq!(chunk_count(1025, 1024), 2);
        assert!(validate_chunk_size(0).is_err());
        assert!(validate_chunk_size((MAX_CHUNK_BYTES + 1) as u32).is_err());
        validate_chunk_size(1).unwrap();
    }
}
