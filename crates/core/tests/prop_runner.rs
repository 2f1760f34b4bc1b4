//! Property tests: the parallel production engine is bit-identical to
//! the sequential one.
//!
//! The whole preservation argument rests on reproducibility, so the
//! parallel runner must be invisible in the output: for a random small
//! workflow in either tier format, running with 1, 2 and 4 threads must
//! yield byte-identical RAW, AOD and skim dataset files and identical
//! skim reports, ntuples and analysis results.

use bytes::Bytes;
use daspos::prelude::*;
use daspos::runner::ExecOptions;
use daspos_hep::ids::DatasetId;
use daspos_reco::objects::AodEvent;
use daspos_tiers::codec::Encodable;
use daspos_tiers::TierFormat;
use proptest::prelude::*;

fn arb_experiment() -> impl Strategy<Value = Experiment> {
    prop_oneof![
        Just(Experiment::Alice),
        Just(Experiment::Atlas),
        Just(Experiment::Cms),
        Just(Experiment::Lhcb),
    ]
}

/// The stored file bytes of one dataset in `ctx`'s catalog.
fn dataset_files(ctx: &ExecutionContext, id: DatasetId) -> Vec<Bytes> {
    let dataset = ctx
        .catalog
        .get(id)
        .expect("the chain registered the dataset");
    dataset.file_data().cloned().collect()
}

proptest! {
    // Each case runs the full chain six times; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_execution_is_bit_identical(
        experiment in arb_experiment(),
        seed in 0u64..10_000,
        // Straddle the runner's 64-event chunk size so multi-chunk
        // scheduling is actually exercised.
        n_events in 65u64..140,
        charm in prop::bool::ANY,
    ) {
        let workflow = if charm {
            PreservedWorkflow::standard_charm(seed, n_events)
        } else {
            PreservedWorkflow::standard_z(experiment, seed, n_events)
        };
        // Both tier formats every case, so the row and columnar skim
        // engines are each pinned on every draw.
        for tier_format in [TierFormat::Row, TierFormat::Columnar] {
            // Each execution registers its datasets, so every run gets a
            // fresh (but identically-built, deterministic) context.
            let ref_ctx = ExecutionContext::fresh(&workflow);
            let reference = workflow
                .execute(&ref_ctx, &ExecOptions::sequential().tier_format(tier_format))
                .expect("sequential production runs");
            let ref_aod_bytes = AodEvent::encode_events(&reference.aod_events);
            let ref_files = [
                ("RAW", dataset_files(&ref_ctx, reference.raw_dataset)),
                ("AOD", dataset_files(&ref_ctx, reference.aod_dataset)),
                ("skim", dataset_files(&ref_ctx, reference.skim_dataset)),
            ];

            for threads in [2usize, 4] {
                let ctx = ExecutionContext::fresh(&workflow);
                let out = workflow
                    .execute(&ctx, &ExecOptions::new().threads(threads).tier_format(tier_format))
                    .expect("parallel production runs");
                let files = [
                    dataset_files(&ctx, out.raw_dataset),
                    dataset_files(&ctx, out.aod_dataset),
                    dataset_files(&ctx, out.skim_dataset),
                ];
                for ((tier, ref_bytes), bytes) in ref_files.iter().zip(&files) {
                    prop_assert_eq!(
                        bytes, ref_bytes,
                        "{} dataset file bytes differ at {} threads ({})",
                        tier, threads, tier_format.name()
                    );
                }
                let aod_bytes = AodEvent::encode_events(&out.aod_events);
                prop_assert_eq!(
                    aod_bytes.as_ref(),
                    ref_aod_bytes.as_ref(),
                    "AOD tier bytes differ at {} threads", threads
                );
                prop_assert_eq!(
                    &out.tier_bytes, &reference.tier_bytes,
                    "tier sizes differ at {} threads", threads
                );
                prop_assert_eq!(
                    &out.skim_report, &reference.skim_report,
                    "skim report differs at {} threads", threads
                );
                prop_assert_eq!(
                    &out.ntuple, &reference.ntuple,
                    "ntuple differs at {} threads", threads
                );
                prop_assert_eq!(
                    out.results_to_text(), reference.results_to_text(),
                    "analysis results differ at {} threads", threads
                );
            }
        }
    }
}
