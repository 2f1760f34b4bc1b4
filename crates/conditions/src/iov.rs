//! Intervals of validity.
//!
//! A conditions payload is valid for an inclusive range of runs. A
//! condition's history is a set of non-overlapping ranges; resolution for
//! a run picks the unique covering range.

use std::fmt;

use crate::error::ConditionsError;

/// An inclusive run range `[first, last]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunRange {
    /// First run covered.
    pub first: u32,
    /// Last run covered (inclusive). `u32::MAX` means open-ended.
    pub last: u32,
}

impl RunRange {
    /// A range covering `[first, last]`; errors when inverted.
    pub fn new(first: u32, last: u32) -> Result<Self, ConditionsError> {
        let r = RunRange { first, last };
        if first > last {
            Err(ConditionsError::EmptyRange(r))
        } else {
            Ok(r)
        }
    }

    /// An open-ended range starting at `first`.
    pub fn from(first: u32) -> Self {
        RunRange {
            first,
            last: u32::MAX,
        }
    }

    /// A range covering a single run.
    pub fn single(run: u32) -> Self {
        RunRange {
            first: run,
            last: run,
        }
    }

    /// True when the range covers `run`.
    #[inline]
    pub fn contains(&self, run: u32) -> bool {
        self.first <= run && run <= self.last
    }

    /// True when two ranges share at least one run.
    #[inline]
    pub fn overlaps(&self, other: &RunRange) -> bool {
        self.first <= other.last && other.first <= self.last
    }

    /// Number of runs covered (saturating for open-ended ranges).
    pub fn len(&self) -> u64 {
        u64::from(self.last) - u64::from(self.first) + 1
    }

    /// Ranges are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Display for RunRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.last == u32::MAX {
            write!(f, "[{}..]", self.first)
        } else {
            write!(f, "[{}..{}]", self.first, self.last)
        }
    }
}

/// A condition key: a hierarchical path like `"tracker/alignment"`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IovKey(pub String);

impl IovKey {
    /// Construct from any string-ish value.
    pub fn new(path: impl Into<String>) -> Self {
        IovKey(path.into())
    }

    /// The subsystem prefix (text before the first `/`), used to group
    /// dependency reports per detector subsystem.
    pub fn subsystem(&self) -> &str {
        self.0.split('/').next().unwrap_or(&self.0)
    }
}

impl fmt::Display for IovKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A sorted, non-overlapping sequence of `(RunRange, payload-index)`
/// entries for one condition key.
///
/// Resolution is `O(log n)` binary search with a last-hit cursor on top:
/// production chains resolve the same key for runs of the same interval
/// thousands of times in a row, so the cursor makes the repeated case
/// amortized `O(1)`. The cursor is a plain accelerator — a stale value
/// (after a concurrent insert) only costs one failed `contains` check
/// before the binary search runs; it can never change the result.
#[derive(Debug, Default)]
pub struct IovSequence {
    entries: Vec<(RunRange, usize)>,
    /// Index of the last entry a `resolve` hit. Relaxed atomics: the
    /// store is behind a `RwLock` read guard in the conditions store, so
    /// this must be `Sync`, and any torn/stale read is harmless.
    hint: std::sync::atomic::AtomicUsize,
    /// Resolutions answered by the cursor without a binary search.
    /// Observability gauges: schedule-dependent under threads, excluded
    /// (like the cursor itself) from `Clone` state comparisons and `Eq`.
    cursor_hits: std::sync::atomic::AtomicU64,
    /// Total `resolve` calls.
    lookups: std::sync::atomic::AtomicU64,
}

impl Clone for IovSequence {
    fn clone(&self) -> Self {
        IovSequence {
            entries: self.entries.clone(),
            hint: std::sync::atomic::AtomicUsize::new(
                self.hint.load(std::sync::atomic::Ordering::Relaxed),
            ),
            cursor_hits: std::sync::atomic::AtomicU64::new(0),
            lookups: std::sync::atomic::AtomicU64::new(0),
        }
    }
}

/// Equality ignores the cursor: two sequences with the same intervals
/// resolve identically regardless of what was last looked up.
impl PartialEq for IovSequence {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for IovSequence {}

impl IovSequence {
    /// An empty sequence.
    pub fn new() -> Self {
        IovSequence::default()
    }

    /// Insert an interval pointing at `payload_index`; rejects overlaps.
    ///
    /// `O(log n)` search plus the vector shift: entries are sorted and
    /// non-overlapping, so only the two neighbors of the insertion point
    /// can overlap the new range — no linear scan.
    pub fn insert(&mut self, range: RunRange, payload_index: usize) -> Result<(), ConditionsError> {
        let pos = self
            .entries
            .partition_point(|(r, _)| r.first < range.first);
        let overlap = pos
            .checked_sub(1)
            .and_then(|left| self.entries.get(left))
            .filter(|(r, _)| r.overlaps(&range))
            .or_else(|| self.entries.get(pos).filter(|(r, _)| r.overlaps(&range)));
        if let Some((existing, _)) = overlap {
            return Err(ConditionsError::OverlappingIov {
                key: String::new(),
                inserted: range,
                existing: *existing,
            });
        }
        self.entries.insert(pos, (range, payload_index));
        Ok(())
    }

    /// Resolution of the payload index covering `run`: the last-hit
    /// cursor first (amortized `O(1)` for repeated runs), then binary
    /// search.
    pub fn resolve(&self, run: u32) -> Option<usize> {
        use std::sync::atomic::Ordering;
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let hint = self.hint.load(Ordering::Relaxed);
        if let Some((range, idx)) = self.entries.get(hint) {
            if range.contains(run) {
                self.cursor_hits.fetch_add(1, Ordering::Relaxed);
                return Some(*idx);
            }
        }
        let pos = self.entries.partition_point(|(r, _)| r.first <= run);
        if pos == 0 {
            return None;
        }
        let (range, idx) = self.entries[pos - 1];
        if range.contains(run) {
            self.hint.store(pos - 1, Ordering::Relaxed);
            Some(idx)
        } else {
            None
        }
    }

    /// All entries in run order.
    pub fn entries(&self) -> &[(RunRange, usize)] {
        &self.entries
    }

    /// `(cursor_hits, total_lookups)` since construction — how often the
    /// last-hit cursor short-circuited the binary search. Observability
    /// gauges only: values depend on lookup interleaving under threads.
    pub fn cursor_stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        (
            self.cursor_hits.load(Ordering::Relaxed),
            self.lookups.load(Ordering::Relaxed),
        )
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no intervals exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_construction() {
        assert!(RunRange::new(5, 3).is_err());
        let r = RunRange::new(3, 5).unwrap();
        assert!(r.contains(3) && r.contains(5) && !r.contains(6));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn open_ended_range() {
        let r = RunRange::from(100);
        assert!(r.contains(u32::MAX));
        assert_eq!(r.to_string(), "[100..]");
    }

    #[test]
    fn overlap_detection() {
        let a = RunRange::new(1, 10).unwrap();
        let b = RunRange::new(10, 20).unwrap();
        let c = RunRange::new(11, 20).unwrap();
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn subsystem_prefix() {
        assert_eq!(IovKey::new("tracker/alignment").subsystem(), "tracker");
        assert_eq!(IovKey::new("beamspot").subsystem(), "beamspot");
    }

    #[test]
    fn sequence_insert_and_resolve() {
        let mut seq = IovSequence::new();
        seq.insert(RunRange::new(1, 10).unwrap(), 0).unwrap();
        seq.insert(RunRange::new(21, 30).unwrap(), 2).unwrap();
        seq.insert(RunRange::new(11, 20).unwrap(), 1).unwrap();
        assert_eq!(seq.resolve(5), Some(0));
        assert_eq!(seq.resolve(11), Some(1));
        assert_eq!(seq.resolve(30), Some(2));
        assert_eq!(seq.resolve(31), None);
        assert_eq!(seq.resolve(0), None);
        assert_eq!(seq.len(), 3);
    }

    #[test]
    fn sequence_rejects_overlap() {
        let mut seq = IovSequence::new();
        seq.insert(RunRange::new(1, 10).unwrap(), 0).unwrap();
        let err = seq.insert(RunRange::new(5, 15).unwrap(), 1).unwrap_err();
        assert!(matches!(err, ConditionsError::OverlappingIov { .. }));
        assert_eq!(seq.len(), 1);
    }

    #[test]
    fn resolve_in_gap_is_none() {
        let mut seq = IovSequence::new();
        seq.insert(RunRange::new(1, 5).unwrap(), 0).unwrap();
        seq.insert(RunRange::new(10, 15).unwrap(), 1).unwrap();
        assert_eq!(seq.resolve(7), None);
    }

    #[test]
    fn repeated_and_alternating_lookups_stay_correct_with_cursor() {
        let mut seq = IovSequence::new();
        for i in 0..50u32 {
            seq.insert(RunRange::new(i * 10 + 1, i * 10 + 10).unwrap(), i as usize)
                .unwrap();
        }
        // Repeated same-interval hits (the cursor's fast path)…
        for _ in 0..100 {
            assert_eq!(seq.resolve(205), Some(20));
        }
        // …then a jump, then alternating intervals, then misses.
        assert_eq!(seq.resolve(5), Some(0));
        for _ in 0..10 {
            assert_eq!(seq.resolve(495), Some(49));
            assert_eq!(seq.resolve(15), Some(1));
        }
        assert_eq!(seq.resolve(0), None);
        assert_eq!(seq.resolve(501), None);
    }

    #[test]
    fn insert_after_lookups_keeps_resolution_correct() {
        // A stale cursor (entries shifted by a later insert) must never
        // change what resolve returns.
        let mut seq = IovSequence::new();
        seq.insert(RunRange::new(100, 200).unwrap(), 5).unwrap();
        assert_eq!(seq.resolve(150), Some(5)); // cursor now points at it
        seq.insert(RunRange::new(1, 50).unwrap(), 9).unwrap(); // shifts entries
        assert_eq!(seq.resolve(25), Some(9));
        assert_eq!(seq.resolve(150), Some(5));
    }

    #[test]
    fn insert_detects_overlap_with_both_neighbors() {
        let mut seq = IovSequence::new();
        seq.insert(RunRange::new(1, 10).unwrap(), 0).unwrap();
        seq.insert(RunRange::new(21, 30).unwrap(), 1).unwrap();
        // Overlaps the left neighbor only.
        assert!(seq.insert(RunRange::new(10, 15).unwrap(), 2).is_err());
        // Overlaps the right neighbor only.
        assert!(seq.insert(RunRange::new(15, 21).unwrap(), 2).is_err());
        // Spans both neighbors: the reported range is the left one,
        // matching the old linear scan's first match.
        match seq.insert(RunRange::new(5, 25).unwrap(), 2).unwrap_err() {
            ConditionsError::OverlappingIov { existing, .. } => {
                assert_eq!(existing, RunRange::new(1, 10).unwrap());
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Same first run as an existing entry collides too.
        assert!(seq.insert(RunRange::new(21, 40).unwrap(), 2).is_err());
        // The gap still accepts.
        seq.insert(RunRange::new(11, 20).unwrap(), 3).unwrap();
        assert_eq!(seq.len(), 3);
    }

    #[test]
    fn cursor_stats_count_hits_and_lookups() {
        let mut seq = IovSequence::new();
        seq.insert(RunRange::new(1, 10).unwrap(), 0).unwrap();
        seq.insert(RunRange::new(11, 20).unwrap(), 1).unwrap();
        assert_eq!(seq.cursor_stats(), (0, 0));
        assert_eq!(seq.resolve(5), Some(0)); // hit: the fresh cursor already points at entry 0
        assert_eq!(seq.resolve(5), Some(0)); // hit
        assert_eq!(seq.resolve(15), Some(1)); // miss, moves the cursor
        assert_eq!(seq.resolve(99), None); // miss, no interval
        let (hits, lookups) = seq.cursor_stats();
        assert_eq!(lookups, 4);
        assert_eq!(hits, 2);
        // Clones start fresh, and stats never affect equality.
        let clone = seq.clone();
        assert_eq!(clone.cursor_stats(), (0, 0));
        assert_eq!(seq, clone);
    }

    #[test]
    fn equality_ignores_the_cursor() {
        let mut a = IovSequence::new();
        a.insert(RunRange::new(1, 10).unwrap(), 0).unwrap();
        a.insert(RunRange::new(11, 20).unwrap(), 1).unwrap();
        let b = a.clone();
        assert_eq!(a.resolve(15), Some(1)); // moves a's cursor only
        assert_eq!(a, b);
    }
}
