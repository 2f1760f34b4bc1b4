//! FNV-1a 64, the toolkit's one content digest.
//!
//! Every preserved byte stream that carries a digest — tier seals, the
//! archive container, conditions snapshots, vault envelopes, streamed
//! service objects — uses this function, and seed derivation folds stage
//! labels through it. It lives in the foundation crate, with its
//! resumable form [`fnv64_resume`] and its lockstep-lane form
//! [`fnv64_lanes`], so that there is exactly one definition for every
//! crate to share.

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

/// Most FNV chains [`fnv64_lanes`] runs in lockstep. A chain step is a
/// XOR and a 3-cycle multiply, so four chains fill the multiplier and
/// wider groups cost the same per byte; the width only has to hold a
/// whole stripe, since a narrow leftover group runs at multiply
/// latency; six holds a whole 4+2 stripe. `fnv64_lanes`
/// over equal 2 KiB buffers, release build, 2-vCPU Intel Xeon VM, best
/// of 41 interleaved trials (8 KiB buffers agree within 0.01):
///
/// | lanes in one call         | ns per byte |
/// |---------------------------|-------------|
/// | 1                         | 1.32        |
/// | 2                         | 0.67        |
/// | 4                         | 0.34        |
/// | 5                         | 0.34        |
/// | 6 (a 4+2 stripe)          | 0.34        |
/// | 8                         | 0.34        |
/// | a 4+2 stripe as 4, then 2 | 0.46        |
const FNV64_LANES: usize = 6;

/// [`fnv64_resume`] over several independent buffers at once:
/// `states[i]` becomes `fnv64_resume(states[i], bufs[i])`.
///
/// One FNV-1a chain is a serial dependency — each byte's multiply waits
/// for the previous one — so a single digest runs at multiply latency.
/// Interleaving independent chains byte by byte lets their multiplies
/// overlap, which digests a stripe of equal-length shards, or one
/// buffer under several start states, in roughly the time of one chain.
/// Buffers run in groups of [`FNV64_LANES`] — a whole 4+2 stripe is
/// one group of six — and the last group takes what is left. The
/// lanes run in lockstep over the bytes every buffer of a group has; a
/// longer buffer finishes its tail serially, so unequal lengths are
/// correct, merely slower; a group of one buffer runs the serial loop.
/// Outputs are bit-identical to per-buffer [`fnv64_resume`], unlike the
/// word-wide `fnv64_wide` of the columnar tier format, which is a
/// different digest.
pub fn fnv64_lanes(states: &mut [u64], bufs: &[&[u8]]) {
    assert_eq!(states.len(), bufs.len(), "one state per buffer");
    for (states, bufs) in states.chunks_mut(FNV64_LANES).zip(bufs.chunks(FNV64_LANES)) {
        let common = bufs.iter().map(|b| b.len()).min().unwrap_or(0);
        match states.len() {
            6 => fnv64_lockstep::<6>(states, bufs, common),
            5 => fnv64_lockstep::<5>(states, bufs, common),
            4 => fnv64_lockstep::<4>(states, bufs, common),
            3 => fnv64_lockstep::<3>(states, bufs, common),
            2 => fnv64_lockstep::<2>(states, bufs, common),
            _ => {
                // A lone chain has nothing to overlap with.
                states[0] = fnv64_resume(states[0], bufs[0]);
                continue;
            }
        }
        for (state, buf) in states.iter_mut().zip(bufs) {
            *state = fnv64_resume(*state, &buf[common..]);
        }
    }
}

/// `N` FNV-1a chains over the first `len` bytes of each buffer, one
/// byte of every chain per step.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // byte i of every lane per step is the point
fn fnv64_lockstep<const N: usize>(states: &mut [u64], bufs: &[&[u8]], len: usize) {
    let mut h: [u64; N] = states.try_into().expect("N states");
    let bufs: [&[u8]; N] = std::array::from_fn(|lane| &bufs[lane][..len]);
    for i in 0..len {
        for lane in 0..N {
            h[lane] = (h[lane] ^ u64::from(bufs[lane][i])).wrapping_mul(FNV64_PRIME);
        }
    }
    states.copy_from_slice(&h);
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
