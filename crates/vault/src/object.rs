//! The vault object envelope and deep-verification hooks.
//!
//! Every object the vault stores is wrapped in a `DPVO` envelope that
//! records what the payload *is* and what its bytes *were*:
//!
//! ```text
//! "DPVO"  magic            4 bytes
//! version u16 le           currently 1
//! kind    u8               ObjectKind discriminant
//! digest  u64 le           fnv64(kind byte ++ payload)
//! length  u32 le           payload length
//! payload                  exactly `length` bytes
//! ```
//!
//! The digest covers the kind byte as well as the payload, so a flipped
//! kind (which would silently reroute deep verification — a `Container`
//! demoted to `Opaque` skips manifest checks) is caught by the same
//! checksum that catches payload rot. Scrub classifies a replica copy by
//! decoding the envelope; a copy that decodes and — when a [`Verifier`]
//! for its kind is registered — passes deep verification is healthy.

use bytes::Bytes;
use daspos_conditions::Snapshot;
use daspos_tiers::codec::{self, fnv64};

/// Envelope magic: **D**ASPOS **P**reservation **V**ault **O**bject.
pub const ENVELOPE_MAGIC: &[u8; 4] = b"DPVO";

/// Current envelope wire version.
pub const ENVELOPE_VERSION: u16 = 1;

/// Fixed bytes an envelope adds around its payload.
pub const ENVELOPE_OVERHEAD: usize = 4 + 2 + 1 + 8 + 4;

/// What a vault payload claims to be. Drives which deep [`Verifier`]
/// scrub applies beyond the envelope checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ObjectKind {
    /// Arbitrary bytes; checksum-only integrity.
    Opaque = 0,
    /// A DPSL-sealed tier file (`.dpef` et al.).
    SealedTier = 1,
    /// A `.dpar` archive container with a manifest digest.
    Container = 2,
    /// A conditions snapshot in its canonical text form.
    ConditionsText = 3,
    /// A columnar `DPCF` AOD tier file with per-column digests.
    ColumnarAod = 4,
    /// A `DPSM` stream manifest: the chunk geometry and whole-object
    /// digest of an object the serve layer stored as chunk records.
    StreamManifest = 5,
}

impl ObjectKind {
    /// All kinds, in discriminant order.
    pub const ALL: [ObjectKind; 6] = [
        ObjectKind::Opaque,
        ObjectKind::SealedTier,
        ObjectKind::Container,
        ObjectKind::ConditionsText,
        ObjectKind::ColumnarAod,
        ObjectKind::StreamManifest,
    ];

    /// The wire discriminant.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decode a wire discriminant.
    pub fn from_u8(v: u8) -> Option<ObjectKind> {
        match v {
            0 => Some(ObjectKind::Opaque),
            1 => Some(ObjectKind::SealedTier),
            2 => Some(ObjectKind::Container),
            3 => Some(ObjectKind::ConditionsText),
            4 => Some(ObjectKind::ColumnarAod),
            5 => Some(ObjectKind::StreamManifest),
            _ => None,
        }
    }

    /// Stable lowercase label (also the CLI `--kind` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            ObjectKind::Opaque => "opaque",
            ObjectKind::SealedTier => "sealed-tier",
            ObjectKind::Container => "container",
            ObjectKind::ConditionsText => "conditions",
            ObjectKind::ColumnarAod => "columnar-aod",
            ObjectKind::StreamManifest => "stream-manifest",
        }
    }

    /// Parse a CLI label produced by [`name`](ObjectKind::name).
    pub fn parse(s: &str) -> Option<ObjectKind> {
        ObjectKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Guess the kind of raw payload bytes from their leading magic.
    /// Used by `vault put` when the caller doesn't state a kind.
    pub fn sniff(payload: &[u8]) -> ObjectKind {
        if payload.starts_with(codec::SEAL_MAGIC) {
            ObjectKind::SealedTier
        } else if payload.starts_with(b"DPAR") {
            ObjectKind::Container
        } else if payload.starts_with(b"# daspos-conditions") {
            ObjectKind::ConditionsText
        } else if payload.starts_with(daspos_tiers::colnar::COLUMNAR_MAGIC) {
            ObjectKind::ColumnarAod
        } else if payload.starts_with(b"DPSM") {
            ObjectKind::StreamManifest
        } else {
            ObjectKind::Opaque
        }
    }
}

impl std::fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an envelope failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Shorter than a header, or wrong magic.
    NotAnEnvelope,
    /// Unknown wire version.
    Version(u16),
    /// Unknown kind discriminant.
    Kind(u8),
    /// Declared payload length disagrees with the actual byte count.
    Length { declared: usize, actual: usize },
    /// Stored digest disagrees with the recomputed one.
    Digest { stored: u64, computed: u64 },
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::NotAnEnvelope => write!(f, "not a DPVO envelope"),
            EnvelopeError::Version(v) => write!(f, "unsupported envelope version {v}"),
            EnvelopeError::Kind(k) => write!(f, "unknown object kind {k}"),
            EnvelopeError::Length { declared, actual } => {
                write!(f, "payload length mismatch: header says {declared}, got {actual}")
            }
            EnvelopeError::Digest { stored, computed } => write!(
                f,
                "digest mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// The digest an envelope stores: fnv64 over the kind byte followed by
/// the payload, so kind and payload corrupt together.
pub fn envelope_digest(kind: ObjectKind, payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(1 + payload.len());
    buf.push(kind.as_u8());
    buf.extend_from_slice(payload);
    fnv64(&buf)
}

/// Wrap `payload` in a `DPVO` envelope.
pub fn encode_envelope(kind: ObjectKind, payload: &Bytes) -> Bytes {
    let mut out = Vec::with_capacity(ENVELOPE_OVERHEAD + payload.len());
    out.extend_from_slice(ENVELOPE_MAGIC);
    out.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
    out.push(kind.as_u8());
    out.extend_from_slice(&envelope_digest(kind, payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Bytes::from(out)
}

/// The digest field of an envelope's header, unchecked. Once
/// [`decode_envelope`] has accepted `envelope`, this identifies its
/// content without hashing it again.
pub(crate) fn stored_digest(envelope: &[u8]) -> u64 {
    u64::from_le_bytes(envelope[7..15].try_into().expect("8-byte slice"))
}

/// Unwrap a `DPVO` envelope, verifying version, kind, length, and
/// digest. The returned payload is a zero-copy slice of `data`.
pub fn decode_envelope(data: &Bytes) -> Result<(ObjectKind, Bytes), EnvelopeError> {
    if data.len() < ENVELOPE_OVERHEAD || &data[..4] != ENVELOPE_MAGIC {
        return Err(EnvelopeError::NotAnEnvelope);
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != ENVELOPE_VERSION {
        return Err(EnvelopeError::Version(version));
    }
    let kind = ObjectKind::from_u8(data[6]).ok_or(EnvelopeError::Kind(data[6]))?;
    let stored = stored_digest(data);
    let declared = u32::from_le_bytes(data[15..19].try_into().expect("4-byte slice")) as usize;
    let actual = data.len() - ENVELOPE_OVERHEAD;
    if declared != actual {
        return Err(EnvelopeError::Length { declared, actual });
    }
    let payload = data.slice(ENVELOPE_OVERHEAD..);
    let computed = envelope_digest(kind, &payload);
    if stored != computed {
        return Err(EnvelopeError::Digest { stored, computed });
    }
    Ok((kind, payload))
}

/// A deep integrity check for one [`ObjectKind`], applied by scrub (and
/// checksum-verified reads) after the envelope digest passes.
///
/// The envelope digest catches bit rot; a verifier catches *semantic*
/// damage — a seal whose inner digest disagrees, a container whose
/// manifest doesn't match its sections — including damage predating the
/// object's arrival in the vault.
pub trait Verifier: Send + Sync {
    /// The kind this verifier understands.
    fn kind(&self) -> ObjectKind;

    /// Check the payload; a message describing the damage on failure.
    fn verify(&self, payload: &Bytes) -> Result<(), String>;
}

/// Deep verifier for [`ObjectKind::SealedTier`]: the payload must
/// unseal, i.e. carry a valid DPSL magic and matching inner digest.
pub struct SealedTierVerifier;

impl Verifier for SealedTierVerifier {
    fn kind(&self) -> ObjectKind {
        ObjectKind::SealedTier
    }

    fn verify(&self, payload: &Bytes) -> Result<(), String> {
        codec::unseal(payload)
            .map(|_| ())
            .map_err(|e| format!("seal verification failed: {e}"))
    }
}

/// Deep verifier for [`ObjectKind::ConditionsText`]: the payload must be
/// UTF-8 that parses back into a conditions snapshot.
pub struct ConditionsVerifier;

impl Verifier for ConditionsVerifier {
    fn kind(&self) -> ObjectKind {
        ObjectKind::ConditionsText
    }

    fn verify(&self, payload: &Bytes) -> Result<(), String> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| format!("conditions snapshot is not UTF-8: {e}"))?;
        Snapshot::from_text(text)
            .map(|_| ())
            .map_err(|e| format!("conditions snapshot does not parse: {e}"))
    }
}

/// Deep verifier for [`ObjectKind::ColumnarAod`]: the payload must parse
/// as a DPCF file and every per-column digest must match its frame.
pub struct ColumnarVerifier;

impl Verifier for ColumnarVerifier {
    fn kind(&self) -> ObjectKind {
        ObjectKind::ColumnarAod
    }

    fn verify(&self, payload: &Bytes) -> Result<(), String> {
        let file = daspos_tiers::ColumnarFile::parse(payload)
            .map_err(|e| format!("columnar file does not parse: {e}"))?;
        file.verify()
            .map_err(|e| format!("columnar digest verification failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips_every_kind() {
        let payload = Bytes::from_static(b"some payload bytes");
        for kind in ObjectKind::ALL {
            let enc = encode_envelope(kind, &payload);
            assert_eq!(enc.len(), ENVELOPE_OVERHEAD + payload.len());
            let (k, p) = decode_envelope(&enc).unwrap();
            assert_eq!(k, kind);
            assert_eq!(p, payload);
        }
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in ObjectKind::ALL {
            assert_eq!(ObjectKind::parse(kind.name()), Some(kind));
            assert_eq!(ObjectKind::from_u8(kind.as_u8()), Some(kind));
        }
        assert_eq!(ObjectKind::parse("bogus"), None);
        assert_eq!(ObjectKind::from_u8(200), None);
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let enc = encode_envelope(ObjectKind::Opaque, &Bytes::from_static(b"watch me rot"));
        for bit in 0..enc.len() * 8 {
            let mut copy = enc.to_vec();
            copy[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_envelope(&Bytes::from(copy)).is_err(),
                "bit {bit} flip must not decode"
            );
        }
    }

    #[test]
    fn kind_flip_is_caught_by_the_digest() {
        // Flip the kind byte to another *valid* kind and fix nothing
        // else: the digest covers the kind, so decode must fail with a
        // digest error, not silently reroute verification.
        let enc = encode_envelope(ObjectKind::Container, &Bytes::from_static(b"DPAR...."));
        let mut copy = enc.to_vec();
        copy[6] = ObjectKind::Opaque.as_u8();
        assert!(matches!(
            decode_envelope(&Bytes::from(copy)),
            Err(EnvelopeError::Digest { .. })
        ));
    }

    #[test]
    fn truncation_and_padding_are_detected() {
        let enc = encode_envelope(ObjectKind::Opaque, &Bytes::from_static(b"12345678"));
        let truncated = enc.slice(..enc.len() - 1);
        assert!(matches!(
            decode_envelope(&truncated),
            Err(EnvelopeError::Length { .. })
        ));
        let mut padded = enc.to_vec();
        padded.push(0);
        assert!(matches!(
            decode_envelope(&Bytes::from(padded)),
            Err(EnvelopeError::Length { .. })
        ));
    }

    #[test]
    fn sniff_recognises_the_artifact_magics() {
        let sealed = codec::seal(&Bytes::from_static(b"tier bytes"));
        assert_eq!(ObjectKind::sniff(&sealed), ObjectKind::SealedTier);
        assert_eq!(ObjectKind::sniff(b"DPAR\x02..."), ObjectKind::Container);
        assert_eq!(ObjectKind::sniff(b"random junk"), ObjectKind::Opaque);
    }

    #[test]
    fn columnar_verifier_accepts_pristine_and_rejects_rot() {
        let file = daspos_tiers::ColumnarFile::from_rows(&[]);
        assert_eq!(ObjectKind::sniff(&file), ObjectKind::ColumnarAod);
        let v = ColumnarVerifier;
        v.verify(&file).unwrap();
        for offset in 0..file.len() {
            let mut bad = file.to_vec();
            bad[offset] ^= 0x10;
            assert!(
                v.verify(&Bytes::from(bad)).is_err(),
                "flip at {offset} must not verify"
            );
        }
    }

    #[test]
    fn sealed_tier_verifier_accepts_seals_and_rejects_rot() {
        let v = SealedTierVerifier;
        let sealed = codec::seal(&Bytes::from_static(b"payload"));
        v.verify(&sealed).unwrap();
        let mut bad = sealed.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(v.verify(&Bytes::from(bad)).is_err());
        assert!(v.verify(&Bytes::from_static(b"no seal here")).is_err());
    }
}
