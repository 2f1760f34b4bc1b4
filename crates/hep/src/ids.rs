//! Opaque identifier newtypes shared across the toolkit.
//!
//! Every catalogued object — datasets, files, processing steps, analyses,
//! archives — is addressed by a typed id so that a provenance edge cannot
//! accidentally point at the wrong kind of object. The ids are small `Copy`
//! values; string names live in the catalogs, not in the ids.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u64);

        impl $name {
            /// Render as the canonical `prefix-N` string used in reports
            /// and provenance records.
            pub fn as_string(&self) -> String {
                format!("{}-{}", $prefix, self.0)
            }

            /// Parse the canonical `prefix-N` form back into an id.
            pub fn parse(s: &str) -> Option<Self> {
                let rest = s.strip_prefix($prefix)?.strip_prefix('-')?;
                rest.parse().ok().map($name)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}-{}", $prefix, self.0)
            }
        }
    };
}

id_newtype!(
    /// Identifies a dataset (a named collection of event files at one tier).
    DatasetId,
    "ds"
);
id_newtype!(
    /// Identifies a single file within a dataset.
    FileId,
    "file"
);
id_newtype!(
    /// Identifies one execution of a processing step (a provenance node).
    StepId,
    "step"
);
id_newtype!(
    /// Identifies a preserved analysis in the RIVET-like registry.
    AnalysisId,
    "ana"
);
id_newtype!(
    /// Identifies a preservation archive container.
    ArchiveId,
    "arc"
);
id_newtype!(
    /// Identifies a RECAST reanalysis request.
    RequestId,
    "req"
);
id_newtype!(
    /// Identifies a record in the reactions database.
    RecordId,
    "rec"
);

/// A process-wide monotonically increasing id source.
///
/// Catalogs use one `IdAllocator` each so that ids are unique within a
/// catalog without any global coordination. Allocation is lock-free.
#[derive(Debug, Default)]
pub struct IdAllocator {
    next: AtomicU64,
}

impl IdAllocator {
    /// An allocator starting at 1 (0 is reserved as a sentinel in
    /// serialized records).
    pub fn new() -> Self {
        IdAllocator {
            next: AtomicU64::new(1),
        }
    }

    /// Hand out the next raw id.
    pub fn allocate(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// The value the next call to [`IdAllocator::allocate`] would return.
    pub fn peek(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        let ds = DatasetId(42);
        assert_eq!(ds.to_string(), "ds-42");
        assert_eq!(DatasetId::parse("ds-42"), Some(ds));
        assert_eq!(DatasetId::parse("file-42"), None);
        assert_eq!(DatasetId::parse("ds-"), None);
        assert_eq!(DatasetId::parse("ds-x"), None);
    }

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; we just confirm values carry
        // their prefixes.
        assert_eq!(FileId(1).to_string(), "file-1");
        assert_eq!(StepId(1).to_string(), "step-1");
        assert_eq!(AnalysisId(7).to_string(), "ana-7");
        assert_eq!(ArchiveId(7).to_string(), "arc-7");
        assert_eq!(RequestId(9).to_string(), "req-9");
        assert_eq!(RecordId(9).to_string(), "rec-9");
    }

    #[test]
    fn allocator_is_monotonic_and_unique() {
        let alloc = IdAllocator::new();
        let a = alloc.allocate();
        let b = alloc.allocate();
        assert_eq!(a, 1);
        assert_eq!(b, 2);
        assert_eq!(alloc.peek(), 3);
    }

    #[test]
    fn allocator_concurrent_uniqueness() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let alloc = Arc::new(IdAllocator::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let alloc = Arc::clone(&alloc);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| alloc.allocate()).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().expect("thread panicked") {
                assert!(seen.insert(id), "duplicate id {id}");
            }
        }
        assert_eq!(seen.len(), 4000);
    }
}
