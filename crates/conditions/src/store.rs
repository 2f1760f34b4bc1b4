//! The versioned conditions store.
//!
//! A [`ConditionsStore`] holds named **global tags**. A tag is a coherent,
//! versioned view of every condition: `(tag, key, run) → payload`.
//! Production processing freezes its tag so a preserved workflow always
//! resolves the same constants — the encapsulation step the DASPOS report
//! calls for.

use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock};

use crate::error::ConditionsError;
use crate::iov::{IovKey, IovSequence, RunRange};

/// A conditions payload.
///
/// Real experiments store anything from single scalars to alignment
/// matrices; this substrate covers the shapes the synthetic detector
/// needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A single calibration scalar (e.g. an energy-scale factor).
    Scalar(f64),
    /// A vector of per-channel constants.
    Vector(Vec<f64>),
    /// Free-form text (e.g. a magnetic-field map descriptor).
    Text(String),
}

impl Payload {
    /// The scalar value, if this payload is one.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            Payload::Scalar(v) => Some(*v),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes, used for tier-size accounting.
    pub fn byte_size(&self) -> usize {
        match self {
            Payload::Scalar(_) => 8,
            Payload::Vector(v) => 8 * v.len(),
            Payload::Text(s) => s.len(),
        }
    }
}

/// One global tag: every condition key's IoV history plus its payloads.
#[derive(Debug, Default)]
pub struct GlobalTag {
    /// Tag name, e.g. `"data-2013-v2"`.
    pub name: String,
    /// Frozen tags reject further writes.
    frozen: bool,
    payloads: Vec<Payload>,
    sequences: BTreeMap<IovKey, IovSequence>,
}

impl GlobalTag {
    fn new(name: &str) -> Self {
        GlobalTag {
            name: name.to_string(),
            frozen: false,
            payloads: Vec::new(),
            sequences: BTreeMap::new(),
        }
    }

    fn insert(
        &mut self,
        key: IovKey,
        range: RunRange,
        payload: Payload,
    ) -> Result<(), ConditionsError> {
        if self.frozen {
            return Err(ConditionsError::TagFrozen(self.name.clone()));
        }
        let idx = self.payloads.len();
        let seq = self.sequences.entry(key.clone()).or_default();
        seq.insert(range, idx).map_err(|e| match e {
            ConditionsError::OverlappingIov {
                inserted, existing, ..
            } => ConditionsError::OverlappingIov {
                key: key.0.clone(),
                inserted,
                existing,
            },
            other => other,
        })?;
        self.payloads.push(payload);
        Ok(())
    }

    fn resolve(&self, key: &IovKey, run: u32) -> Result<&Payload, ConditionsError> {
        let seq = self
            .sequences
            .get(key)
            .ok_or_else(|| ConditionsError::UnknownKey {
                tag: self.name.clone(),
                key: key.0.clone(),
            })?;
        let idx = seq.resolve(run).ok_or_else(|| ConditionsError::NoValidPayload {
            tag: self.name.clone(),
            key: key.0.clone(),
            run,
        })?;
        Ok(&self.payloads[idx])
    }

    /// All condition keys defined under this tag.
    pub fn keys(&self) -> impl Iterator<Item = &IovKey> {
        self.sequences.keys()
    }

    /// Total payload bytes stored.
    pub fn byte_size(&self) -> usize {
        self.payloads.iter().map(Payload::byte_size).sum()
    }

    /// Iterate every `(key, range, payload)` triple — the snapshot walk.
    pub fn iter_entries(&self) -> impl Iterator<Item = (&IovKey, RunRange, &Payload)> {
        self.sequences.iter().flat_map(move |(key, seq)| {
            seq.entries()
                .iter()
                .map(move |(range, idx)| (key, *range, &self.payloads[*idx]))
        })
    }

    /// Summed `(cursor_hits, lookups)` over every key's IoV cursor
    /// (see [`IovSequence::cursor_stats`]).
    pub fn cursor_stats(&self) -> (u64, u64) {
        self.sequences
            .values()
            .fold((0, 0), |(hits, lookups), seq| {
                let (h, l) = seq.cursor_stats();
                (hits + h, lookups + l)
            })
    }
}

/// The conditions database: a set of global tags behind a reader-writer
/// lock, mirroring the shared service the experiments run.
#[derive(Debug, Default)]
pub struct ConditionsStore {
    tags: RwLock<BTreeMap<String, GlobalTag>>,
}

impl ConditionsStore {
    /// An empty store.
    pub fn new() -> Self {
        ConditionsStore::default()
    }

    /// Create a global tag; returns an error if it already exists (reuse
    /// would silently mix condition versions).
    pub fn create_tag(&self, name: &str) -> Result<(), ConditionsError> {
        let mut tags = self.tags.write().unwrap_or_else(PoisonError::into_inner);
        if tags.contains_key(name) {
            return Err(ConditionsError::TagFrozen(format!(
                "{name} (already exists)"
            )));
        }
        tags.insert(name.to_string(), GlobalTag::new(name));
        Ok(())
    }

    /// Insert a payload valid for `range` under `(tag, key)`.
    pub fn insert(
        &self,
        tag: &str,
        key: IovKey,
        range: RunRange,
        payload: Payload,
    ) -> Result<(), ConditionsError> {
        let mut tags = self.tags.write().unwrap_or_else(PoisonError::into_inner);
        let t = tags
            .get_mut(tag)
            .ok_or_else(|| ConditionsError::UnknownTag(tag.to_string()))?;
        t.insert(key, range, payload)
    }

    /// Freeze a tag: all subsequent writes fail, reads are guaranteed
    /// stable. Production tags are frozen before processing starts.
    pub fn freeze(&self, tag: &str) -> Result<(), ConditionsError> {
        let mut tags = self.tags.write().unwrap_or_else(PoisonError::into_inner);
        let t = tags
            .get_mut(tag)
            .ok_or_else(|| ConditionsError::UnknownTag(tag.to_string()))?;
        t.frozen = true;
        Ok(())
    }

    /// Resolve `(tag, key, run)` to a payload clone.
    pub fn resolve(&self, tag: &str, key: &IovKey, run: u32) -> Result<Payload, ConditionsError> {
        let tags = self.tags.read().unwrap_or_else(PoisonError::into_inner);
        let t = tags
            .get(tag)
            .ok_or_else(|| ConditionsError::UnknownTag(tag.to_string()))?;
        t.resolve(key, run).cloned()
    }

    /// Run a closure against a tag (avoids cloning large payload sets).
    pub fn with_tag<R>(
        &self,
        tag: &str,
        f: impl FnOnce(&GlobalTag) -> R,
    ) -> Result<R, ConditionsError> {
        let tags = self.tags.read().unwrap_or_else(PoisonError::into_inner);
        let t = tags
            .get(tag)
            .ok_or_else(|| ConditionsError::UnknownTag(tag.to_string()))?;
        Ok(f(t))
    }

    /// Summed `(cursor_hits, lookups)` over every tag — the store-wide
    /// IoV-cursor effectiveness gauge surfaced by the trace layer.
    pub fn cursor_stats(&self) -> (u64, u64) {
        self.tags
            .read().unwrap_or_else(PoisonError::into_inner)
            .values()
            .fold((0, 0), |(hits, lookups), tag| {
                let (h, l) = tag.cursor_stats();
                (hits + h, lookups + l)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_tag() -> ConditionsStore {
        let s = ConditionsStore::new();
        s.create_tag("data-2013").unwrap();
        s
    }

    #[test]
    fn insert_and_resolve() {
        let s = store_with_tag();
        let key = IovKey::new("ecal/gain");
        s.insert(
            "data-2013",
            key.clone(),
            RunRange::new(1, 100).unwrap(),
            Payload::Scalar(1.02),
        )
        .unwrap();
        let p = s.resolve("data-2013", &key, 50).unwrap();
        assert_eq!(p.as_scalar(), Some(1.02));
    }

    #[test]
    fn resolution_picks_correct_interval() {
        let s = store_with_tag();
        let key = IovKey::new("tracker/alignment");
        s.insert(
            "data-2013",
            key.clone(),
            RunRange::new(1, 10).unwrap(),
            Payload::Scalar(0.9),
        )
        .unwrap();
        s.insert(
            "data-2013",
            key.clone(),
            RunRange::new(11, 20).unwrap(),
            Payload::Scalar(1.1),
        )
        .unwrap();
        assert_eq!(
            s.resolve("data-2013", &key, 10).unwrap().as_scalar(),
            Some(0.9)
        );
        assert_eq!(
            s.resolve("data-2013", &key, 11).unwrap().as_scalar(),
            Some(1.1)
        );
    }

    #[test]
    fn missing_tag_key_run_error_paths() {
        let s = store_with_tag();
        let key = IovKey::new("x");
        assert!(matches!(
            s.resolve("nope", &key, 1),
            Err(ConditionsError::UnknownTag(_))
        ));
        assert!(matches!(
            s.resolve("data-2013", &key, 1),
            Err(ConditionsError::UnknownKey { .. })
        ));
        s.insert(
            "data-2013",
            key.clone(),
            RunRange::new(10, 20).unwrap(),
            Payload::Scalar(1.0),
        )
        .unwrap();
        assert!(matches!(
            s.resolve("data-2013", &key, 5),
            Err(ConditionsError::NoValidPayload { .. })
        ));
    }

    #[test]
    fn frozen_tag_rejects_writes_but_reads() {
        let s = store_with_tag();
        let key = IovKey::new("ecal/gain");
        s.insert(
            "data-2013",
            key.clone(),
            RunRange::from(1),
            Payload::Scalar(1.0),
        )
        .unwrap();
        s.freeze("data-2013").unwrap();
        let err = s
            .insert(
                "data-2013",
                IovKey::new("other"),
                RunRange::from(1),
                Payload::Scalar(2.0),
            )
            .unwrap_err();
        assert!(matches!(err, ConditionsError::TagFrozen(_)));
        assert!(s.resolve("data-2013", &key, 99).is_ok());
    }

    #[test]
    fn duplicate_tag_rejected() {
        let s = store_with_tag();
        assert!(s.create_tag("data-2013").is_err());
    }

    #[test]
    fn overlap_error_carries_key_name() {
        let s = store_with_tag();
        let key = IovKey::new("muon/timing");
        s.insert(
            "data-2013",
            key.clone(),
            RunRange::new(1, 10).unwrap(),
            Payload::Scalar(1.0),
        )
        .unwrap();
        let err = s
            .insert(
                "data-2013",
                key,
                RunRange::new(5, 8).unwrap(),
                Payload::Scalar(2.0),
            )
            .unwrap_err();
        match err {
            ConditionsError::OverlappingIov { key, .. } => assert_eq!(key, "muon/timing"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn byte_size_accounting() {
        let s = store_with_tag();
        s.insert(
            "data-2013",
            IovKey::new("a"),
            RunRange::from(1),
            Payload::Vector(vec![0.0; 100]),
        )
        .unwrap();
        s.insert(
            "data-2013",
            IovKey::new("b"),
            RunRange::from(1),
            Payload::Text("field-map-v1".to_string()),
        )
        .unwrap();
        let size = s.with_tag("data-2013", |t| t.byte_size()).unwrap();
        assert_eq!(size, 800 + 12);
    }

    #[test]
    fn iter_entries_visits_all() {
        let s = store_with_tag();
        for run0 in [1u32, 11, 21] {
            s.insert(
                "data-2013",
                IovKey::new("k"),
                RunRange::new(run0, run0 + 9).unwrap(),
                Payload::Scalar(f64::from(run0)),
            )
            .unwrap();
        }
        let n = s
            .with_tag("data-2013", |t| t.iter_entries().count())
            .unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn concurrent_reads_while_inserting_other_tags() {
        use std::sync::Arc;
        let s = Arc::new(ConditionsStore::new());
        s.create_tag("t").unwrap();
        s.insert(
            "t",
            IovKey::new("k"),
            RunRange::from(1),
            Payload::Scalar(1.0),
        )
        .unwrap();
        let mut handles = Vec::new();
        for i in 0..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let p = s.resolve("t", &IovKey::new("k"), 10 + i).unwrap();
                    assert_eq!(p.as_scalar(), Some(1.0));
                }
            }));
        }
        for h in handles {
            h.join().expect("reader panicked");
        }
    }
}
