//! The `DPVS` shard envelope: one erasure-coded shard on the wire.
//!
//! When the vault runs under [`Redundancy::Erasure`](crate::Redundancy),
//! every backend stores not a full `DPVO` envelope but one shard of it,
//! wrapped in a `DPVS` envelope that records where the shard belongs and
//! what object it belongs to:
//!
//! ```text
//! "DPVS"  magic            4 bytes
//! version u16 le           currently 1
//! index   u8               shard index within the stripe (0..k+m)
//! k       u8               data shards in the stripe's geometry
//! m       u8               parity shards
//! object_len    u32 le     byte length of the sharded DPVO envelope
//! object_digest u64 le     fnv64 of the sharded DPVO envelope
//! shard_digest  u64 le     fnv64(index ‖ k ‖ m ‖ object_len ‖
//!                                object_digest ‖ payload)
//! shard_len     u32 le     payload length
//! payload                  exactly `shard_len` bytes
//! ```
//!
//! The shard digest covers the geometry fields as well as the payload,
//! so flipping `index`/`k`/`m` (which would silently re-route a shard
//! within the stripe) is caught by the same checksum that catches
//! payload rot. An adversary who *recomputes* the digest over tampered
//! geometry still loses: the vault checks the decoded geometry against
//! its own configured `k + m` and the decoded index against the slot it
//! read the shard from, and `object_len`/`object_digest` forgeries strand
//! the shard in a minority generation that reconstruction outvotes.

use bytes::Bytes;
use daspos_tiers::codec::{fnv64, fnv64_lanes, fnv64_resume};

/// Shard envelope magic: **D**ASPOS **P**reservation **V**ault **S**hard.
pub const SHARD_MAGIC: &[u8; 4] = b"DPVS";

/// Current shard envelope wire version.
pub const SHARD_VERSION: u16 = 1;

/// Fixed bytes a shard envelope adds around its payload.
pub const SHARD_OVERHEAD: usize = 4 + 2 + 1 + 1 + 1 + 4 + 8 + 8 + 4;

/// Everything a shard envelope says about its shard, minus the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// Stripe position, `0..k` data then `k..k+m` parity.
    pub index: u8,
    /// Data shard count of the stripe's geometry.
    pub k: u8,
    /// Parity shard count.
    pub m: u8,
    /// Byte length of the sharded object (the `DPVO` envelope).
    pub object_len: u32,
    /// fnv64 of the sharded object, the stripe's generation identity.
    pub object_digest: u64,
}

/// Why a shard envelope failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Shorter than a header, or wrong magic.
    NotAShard,
    /// Unknown wire version.
    Version(u16),
    /// Geometry fields that cannot describe a stripe (`k` or `m` zero,
    /// or an index outside it).
    Geometry { index: u8, k: u8, m: u8 },
    /// Declared payload length disagrees with the actual byte count.
    Length { declared: usize, actual: usize },
    /// Stored shard digest disagrees with the recomputed one.
    Digest { stored: u64, computed: u64 },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NotAShard => write!(f, "not a DPVS shard envelope"),
            ShardError::Version(v) => write!(f, "unsupported shard version {v}"),
            ShardError::Geometry { index, k, m } => {
                write!(f, "impossible shard geometry: index {index} of {k}+{m}")
            }
            ShardError::Length { declared, actual } => write!(
                f,
                "shard length mismatch: header says {declared}, got {actual}"
            ),
            ShardError::Digest { stored, computed } => write!(
                f,
                "shard digest mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// The header bytes the shard digest covers, in wire order: `index ‖ k ‖
/// m ‖ object_len ‖ object_digest` (bytes 6..21 of the envelope).
fn digested_header(header: &ShardHeader) -> [u8; 15] {
    let mut out = [0u8; 15];
    out[0] = header.index;
    out[1] = header.k;
    out[2] = header.m;
    out[3..7].copy_from_slice(&header.object_len.to_le_bytes());
    out[7..15].copy_from_slice(&header.object_digest.to_le_bytes());
    out
}

/// The digest a shard envelope stores: fnv64 over the header fields the
/// stripe depends on, then the payload.
pub fn shard_digest(header: &ShardHeader, payload: &[u8]) -> u64 {
    fnv64_resume(fnv64(&digested_header(header)), payload)
}

/// Wrap every shard of a stripe in its `DPVS` envelope, digesting the
/// payloads in lockstep lanes ([`fnv64_lanes`]). Slot `i` of the result
/// is byte-identical to `encode_shard(&shards[i].0, shards[i].1)`.
pub fn encode_stripe(shards: &[(ShardHeader, &[u8])]) -> Vec<Bytes> {
    let mut digests: Vec<u64> = shards
        .iter()
        .map(|(header, _)| fnv64(&digested_header(header)))
        .collect();
    let payloads: Vec<&[u8]> = shards.iter().map(|(_, payload)| *payload).collect();
    fnv64_lanes(&mut digests, &payloads);
    shards
        .iter()
        .zip(digests)
        .map(|((header, payload), digest)| {
            let mut out = Vec::with_capacity(SHARD_OVERHEAD + payload.len());
            out.extend_from_slice(SHARD_MAGIC);
            out.extend_from_slice(&SHARD_VERSION.to_le_bytes());
            out.extend_from_slice(&digested_header(header));
            out.extend_from_slice(&digest.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(payload);
            Bytes::from(out)
        })
        .collect()
}

/// Wrap one shard in a `DPVS` envelope.
pub fn encode_shard(header: &ShardHeader, payload: &[u8]) -> Bytes {
    encode_stripe(&[(*header, payload)])
        .pop()
        .expect("one shard in, one envelope out")
}

/// Every check of [`decode_shard`] except the digest.
fn parse_shard(data: &Bytes) -> Result<(ShardHeader, Bytes), ShardError> {
    if data.len() < SHARD_OVERHEAD || &data[..4] != SHARD_MAGIC {
        return Err(ShardError::NotAShard);
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != SHARD_VERSION {
        return Err(ShardError::Version(version));
    }
    let (index, k, m) = (data[6], data[7], data[8]);
    if k == 0 || m == 0 || u16::from(index) >= u16::from(k) + u16::from(m) {
        return Err(ShardError::Geometry { index, k, m });
    }
    let header = ShardHeader {
        index,
        k,
        m,
        object_len: u32::from_le_bytes(data[9..13].try_into().expect("4-byte slice")),
        object_digest: u64::from_le_bytes(data[13..21].try_into().expect("8-byte slice")),
    };
    let declared = u32::from_le_bytes(data[29..33].try_into().expect("4-byte slice")) as usize;
    let actual = data.len() - SHARD_OVERHEAD;
    if declared != actual {
        return Err(ShardError::Length { declared, actual });
    }
    Ok((header, data.slice(SHARD_OVERHEAD..)))
}

/// Unwrap every `DPVS` envelope of a stripe, each checked exactly as
/// [`decode_shard`] checks it, with the digests of all well-formed shards
/// computed in lockstep lanes ([`fnv64_lanes`]). Element `i` of the
/// result equals `decode_shard(&raws[i])`.
pub fn decode_stripe(raws: &[Bytes]) -> Vec<Result<(ShardHeader, Bytes), ShardError>> {
    let mut out: Vec<_> = raws.iter().map(parse_shard).collect();
    let parsed: Vec<usize> = (0..raws.len()).filter(|&i| out[i].is_ok()).collect();
    let mut computed: Vec<u64> = parsed.iter().map(|&i| fnv64(&raws[i][6..21])).collect();
    let payloads: Vec<&[u8]> = parsed.iter().map(|&i| &raws[i][SHARD_OVERHEAD..]).collect();
    fnv64_lanes(&mut computed, &payloads);
    for (i, computed) in parsed.into_iter().zip(computed) {
        let stored = u64::from_le_bytes(raws[i][21..29].try_into().expect("8-byte slice"));
        if stored != computed {
            out[i] = Err(ShardError::Digest { stored, computed });
        }
    }
    out
}

/// Unwrap a `DPVS` envelope, verifying version, geometry plausibility,
/// length, and the shard digest. The payload is a zero-copy slice.
pub fn decode_shard(data: &Bytes) -> Result<(ShardHeader, Bytes), ShardError> {
    decode_stripe(std::slice::from_ref(data))
        .pop()
        .expect("one shard in, one result out")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> ShardHeader {
        ShardHeader {
            index: 3,
            k: 4,
            m: 2,
            object_len: 1234,
            object_digest: 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    #[test]
    fn shard_envelope_round_trips() {
        let payload = b"one shard of a stripe";
        let enc = encode_shard(&header(), payload);
        assert_eq!(enc.len(), SHARD_OVERHEAD + payload.len());
        let (h, p) = decode_shard(&enc).unwrap();
        assert_eq!(h, header());
        assert_eq!(&p[..], payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let enc = encode_shard(&header(), b"");
        let (h, p) = decode_shard(&enc).unwrap();
        assert_eq!(h, header());
        assert!(p.is_empty());
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let enc = encode_shard(&header(), b"watch this shard rot");
        for bit in 0..enc.len() * 8 {
            let mut copy = enc.to_vec();
            copy[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_shard(&Bytes::from(copy)).is_err(),
                "bit {bit} flip must not decode"
            );
        }
    }

    #[test]
    fn geometry_forgery_with_recomputed_digest_still_decodes() {
        // A tampered index whose digest was *recomputed* passes envelope
        // checks by design — the vault's slot/geometry cross-check is
        // what catches it. Pin the decode-side behaviour here.
        let payload = b"shard";
        let mut forged = header();
        forged.index = 5;
        let enc = encode_shard(&forged, payload);
        let (h, _) = decode_shard(&enc).unwrap();
        assert_eq!(h.index, 5);
    }

    #[test]
    fn impossible_geometries_are_rejected() {
        for (index, k, m) in [(0u8, 0u8, 2u8), (0, 4, 0), (6, 4, 2), (255, 4, 2)] {
            let h = ShardHeader {
                index,
                k,
                m,
                object_len: 1,
                object_digest: 1,
            };
            let enc = encode_shard(&h, b"x");
            assert!(
                matches!(decode_shard(&enc), Err(ShardError::Geometry { .. })),
                "index {index} of {k}+{m} must be rejected"
            );
        }
    }

    /// A 4+2 stripe whose six slots carry payloads of the given lengths.
    fn stripe(lens: [usize; 6]) -> Vec<(ShardHeader, Vec<u8>)> {
        lens.iter()
            .enumerate()
            .map(|(i, &len)| {
                let h = ShardHeader {
                    index: i as u8,
                    k: 4,
                    m: 2,
                    ..header()
                };
                let payload = (0..len).map(|b| (b * 37 + i * 11) as u8).collect();
                (h, payload)
            })
            .collect()
    }

    fn encode_all(shards: &[(ShardHeader, Vec<u8>)]) -> Vec<Bytes> {
        let views: Vec<(ShardHeader, &[u8])> =
            shards.iter().map(|(h, p)| (*h, p.as_slice())).collect();
        encode_stripe(&views)
    }

    #[test]
    fn encode_stripe_matches_encode_shard_slot_by_slot() {
        for lens in [[24; 6], [0, 5, 24, 31, 7, 24], [0; 6]] {
            let shards = stripe(lens);
            let encoded = encode_all(&shards);
            assert_eq!(encoded.len(), shards.len());
            for ((h, p), enc) in shards.iter().zip(&encoded) {
                assert_eq!(enc, &encode_shard(h, p), "slot {} of {lens:?}", h.index);
            }
        }
    }

    #[test]
    fn decode_stripe_agrees_with_decode_shard_under_every_flip_and_truncation() {
        for lens in [[24; 6], [0, 5, 24, 31, 7, 24]] {
            let pristine = encode_all(&stripe(lens));
            let check = |raws: &[Bytes], what: &str| {
                let one_by_one: Vec<_> = raws.iter().map(decode_shard).collect();
                assert_eq!(decode_stripe(raws), one_by_one, "{what} of {lens:?}");
            };
            check(&pristine, "pristine stripe");
            for slot in 0..pristine.len() {
                for at in 0..pristine[slot].len() {
                    let mut raws = pristine.clone();
                    let mut bad = raws[slot].to_vec();
                    bad[at] ^= 0xA5;
                    raws[slot] = Bytes::from(bad);
                    check(&raws, &format!("slot {slot} byte {at} flipped"));
                }
                for cut in 0..pristine[slot].len() {
                    let mut raws = pristine.clone();
                    raws[slot] = pristine[slot].slice(..cut);
                    check(&raws, &format!("slot {slot} truncated to {cut}"));
                }
            }
        }
    }

    #[test]
    fn truncation_and_padding_are_detected() {
        let enc = encode_shard(&header(), b"12345678");
        assert!(matches!(
            decode_shard(&enc.slice(..enc.len() - 1)),
            Err(ShardError::Length { .. })
        ));
        let mut padded = enc.to_vec();
        padded.push(0);
        assert!(matches!(
            decode_shard(&Bytes::from(padded)),
            Err(ShardError::Length { .. })
        ));
    }
}
