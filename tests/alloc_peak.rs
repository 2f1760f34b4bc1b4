//! Peak-heap bound of the columnar skim, measured with the counting
//! allocator installed as this test binary's global allocator.
//!
//! The columnar skim walks each kept column once, writing the survivors
//! straight into its output frame, so its peak heap must stay in the
//! same band as the streaming row skim instead of growing with
//! per-column scratch: under 1.15× on the standard CMS Z-boson chain at
//! seed 42 with 2000 events (it reads 1.026: 292,992 B against the row
//! skim's 285,673 B). Allocation sizes and their order are
//! deterministic on one thread, so the bound is exact, not timed.
//! The binary holds a single test so no other test allocates during a
//! measurement window.

#![cfg(feature = "bench-alloc")]

use daspos::alloc_counter::{self, CountingAlloc};
use daspos::prelude::*;
use daspos_reco::objects::AodEvent;
use daspos_tiers::codec::Encodable;
use daspos_tiers::{skim, skim_slim_columnar, ColumnarFile};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak bytes allocated above the live level while `f` runs, after one
/// untimed warm-up call.
fn peak_of(mut f: impl FnMut()) -> u64 {
    f();
    alloc_counter::reset();
    f();
    alloc_counter::peak_since_reset()
}

#[test]
fn columnar_skim_peak_heap_stays_under_1_15x_the_streaming_row_skim() {
    let workflow = PreservedWorkflow::standard_z(Experiment::Cms, 42, 2000);
    let ctx = ExecutionContext::fresh(&workflow);
    let output = workflow
        .execute(&ctx, &ExecOptions::default())
        .expect("fixture chain executes");
    let row_file = AodEvent::encode_events(&output.aod_events);
    let columnar_file = ColumnarFile::from_rows(&output.aod_events);

    let streaming = peak_of(|| {
        let (file, report) =
            skim::skim_slim_streaming_with(&row_file, &workflow.skim, &workflow.slim, |_| {})
                .expect("row file skims");
        assert!(report.events_out > 0 && !file.is_empty());
    });
    let columnar = peak_of(|| {
        let (file, report) =
            skim_slim_columnar(&columnar_file, &workflow.skim, &workflow.slim, None)
                .expect("columnar file skims");
        assert!(report.events_out > 0 && !file.is_empty());
    });

    assert!(streaming > 0, "the counting allocator saw no allocation");
    assert!(
        (columnar as f64) < 1.15 * streaming as f64,
        "columnar skim peak heap {columnar} B must stay under 1.15x the streaming \
         row skim's {streaming} B (ratio {:.3})",
        columnar as f64 / streaming as f64
    );
}
