//! Counting wrapper around the system allocator, compiled only with
//! the `bench-alloc` feature.
//!
//! A binary that wants peak-heap figures installs it itself:
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: daspos::alloc_counter::CountingAlloc = daspos::alloc_counter::CountingAlloc;
//! ```
//!
//! then brackets the work with [`reset`] and [`peak_since_reset`]. The
//! counters are process-wide, so a measurement window must not overlap
//! allocations made by other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// The wrapper allocator: delegates to [`System`], tracking live
/// bytes and the high-water mark.
pub struct CountingAlloc;

static CURRENT: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static BASELINE: AtomicI64 = AtomicI64::new(0);

fn grow(n: i64) {
    let cur = CURRENT.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(cur, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result, so `System`'s `GlobalAlloc` contract holds;
// the counters are statistics that no allocation decision reads.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let delta = new_size as i64 - layout.size() as i64;
            if delta > 0 {
                grow(delta);
            } else {
                CURRENT.fetch_add(delta, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Start a measurement window at the current live-byte level.
pub fn reset() {
    let cur = CURRENT.load(Ordering::Relaxed);
    BASELINE.store(cur, Ordering::Relaxed);
    PEAK.store(cur, Ordering::Relaxed);
}

/// Peak bytes allocated above the [`reset`] baseline.
pub fn peak_since_reset() -> u64 {
    (PEAK.load(Ordering::Relaxed) - BASELINE.load(Ordering::Relaxed)).max(0) as u64
}
