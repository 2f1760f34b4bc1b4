//! FNV-1a 64, the toolkit's one content digest.
//!
//! Every preserved byte stream that carries a digest — tier seals, the
//! archive container, conditions snapshots, vault envelopes, streamed
//! service objects — uses this function, and seed derivation folds stage
//! labels through it. It lives in the foundation crate so that there is
//! exactly one definition for every crate to share.

/// FNV-1a 64 offset basis: the state of a digest over no bytes.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 prime, the per-byte multiplier.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64 over a byte slice.
pub fn fnv64(data: &[u8]) -> u64 {
    fnv64_resume(FNV64_OFFSET, data)
}

/// Continue an [`fnv64`] digest from `state` over `data`:
/// `fnv64(a ++ b) == fnv64_resume(fnv64(a), b)`. Lets a caller digest a
/// short header and a long payload without copying them together, or
/// fold a streamed object chunk by chunk.
pub fn fnv64_resume(state: u64, data: &[u8]) -> u64 {
    let mut h = state;
    for b in data {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(fnv64(b""), FNV64_OFFSET);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
