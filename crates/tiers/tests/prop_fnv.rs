//! Property tests: the resumable and multi-lane FNV-1a kernels are
//! bit-identical to the plain one-buffer `fnv64`.

use daspos_tiers::codec::{fnv64, fnv64_lanes, fnv64_resume, FNV64_OFFSET};
use proptest::prelude::*;

/// Most buffers a case passes: more than two full lockstep groups, so
/// calls of several groups and a short last group are exercised too.
const MAX_BUFS: usize = 13;

/// 1–13 buffers of one shared length in 0..=300 — a stripe of shards.
fn equal_bufs() -> impl Strategy<Value = Vec<Vec<u8>>> {
    (
        1usize..=MAX_BUFS,
        0usize..=300,
        prop::collection::vec(any::<u8>(), MAX_BUFS * 300),
    )
        .prop_map(|(lanes, len, pool)| {
            pool.chunks(300)
                .take(lanes)
                .map(|c| c[..len].to_vec())
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lanes_equal_per_buffer_fnv64(bufs in equal_bufs()) {
        let views: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
        let mut states = vec![FNV64_OFFSET; bufs.len()];
        fnv64_lanes(&mut states, &views);
        let expected: Vec<u64> = bufs.iter().map(|b| fnv64(b)).collect();
        prop_assert_eq!(states, expected);
    }

    #[test]
    fn lanes_of_mixed_lengths_resume_every_state(
        bufs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..=300), 1..=MAX_BUFS),
        seeds in prop::collection::vec(any::<u64>(), MAX_BUFS),
    ) {
        let views: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
        let mut states = seeds[..bufs.len()].to_vec();
        fnv64_lanes(&mut states, &views);
        let expected: Vec<u64> = bufs
            .iter()
            .zip(&seeds)
            .map(|(b, s)| fnv64_resume(*s, b))
            .collect();
        prop_assert_eq!(states, expected);
    }

    #[test]
    fn resume_at_every_split_point_equals_fnv64(data in prop::collection::vec(any::<u8>(), 0..=300)) {
        let whole = fnv64(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            prop_assert_eq!(fnv64_resume(fnv64(a), b), whole, "split at {}", split);
        }
    }
}

#[test]
fn no_lanes_is_a_no_op() {
    let mut states: [u64; 0] = [];
    fnv64_lanes(&mut states, &[]);
}
