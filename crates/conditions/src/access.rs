//! Access strategies: database round-trips vs shipped files.
//!
//! The report (§3.2) contrasts two constants-handling models: *"Alice, for
//! example, has text files that can easily be shipped around with the
//! data, while the other experiments make more extensive use of database
//! access from processing."* Both are implemented behind one trait so the
//! processing chain is agnostic, and both count their accesses so the W2
//! experiment can quantify the external-dependency profile per stage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use daspos_hep::digest::fnv64;

use crate::error::ConditionsError;
use crate::iov::{IovKey, IovSequence, RunRange};
use crate::store::{ConditionsStore, Payload};
use crate::text;

/// Counters describing how a processing stage used its conditions source.
#[derive(Debug, Default)]
pub struct AccessStats {
    lookups: AtomicU64,
    remote_round_trips: AtomicU64,
    bytes_read: AtomicU64,
}

impl AccessStats {
    /// Total payload lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Lookups that required a (simulated) remote database round-trip.
    pub fn remote_round_trips(&self) -> u64 {
        self.remote_round_trips.load(Ordering::Relaxed)
    }

    /// Total payload bytes transferred to the client.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Reset all counters (between pipeline stages).
    pub fn reset(&self) {
        self.lookups.store(0, Ordering::Relaxed);
        self.remote_round_trips.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
    }
}

/// Anything that can resolve conditions for a processing stage.
pub trait ConditionsSource: Send + Sync {
    /// Resolve `(key, run)` to a payload.
    fn get(&self, key: &IovKey, run: u32) -> Result<Payload, ConditionsError>;

    /// Access counters for dependency accounting.
    fn stats(&self) -> &AccessStats;

    /// A short label for provenance records (`"db:data-2013"` or
    /// `"shipped:data-2013"`).
    fn describe(&self) -> String;
}

/// Database-access mode: every lookup is a round-trip to the shared
/// [`ConditionsStore`] (the ATLAS/CMS/LHCb model). A per-client
/// memoization cache is deliberately *not* provided: the report's point is
/// that this mode keeps a live external dependency.
pub struct DbSource {
    store: Arc<ConditionsStore>,
    tag: String,
    stats: AccessStats,
}

impl DbSource {
    /// Connect to a store with a chosen global tag.
    pub fn connect(store: Arc<ConditionsStore>, tag: impl Into<String>) -> Self {
        DbSource {
            store,
            tag: tag.into(),
            stats: AccessStats::default(),
        }
    }

    /// The global tag in use.
    pub fn tag(&self) -> &str {
        &self.tag
    }
}

impl ConditionsSource for DbSource {
    fn get(&self, key: &IovKey, run: u32) -> Result<Payload, ConditionsError> {
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
        self.stats.remote_round_trips.fetch_add(1, Ordering::Relaxed);
        let p = self.store.resolve(&self.tag, key, run)?;
        self.stats
            .bytes_read
            .fetch_add(p.byte_size() as u64, Ordering::Relaxed);
        Ok(p)
    }

    fn stats(&self) -> &AccessStats {
        &self.stats
    }

    fn describe(&self) -> String {
        format!("db:{}", self.tag)
    }
}

/// A fully materialized, self-contained snapshot of one tag — what a
/// preservation archive stores, and what the shipped-file mode reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The tag the snapshot was taken from.
    pub tag: String,
    entries: Vec<(IovKey, RunRange, Payload)>,
}

impl Snapshot {
    /// Capture every entry of `tag` from the store.
    pub fn capture(store: &ConditionsStore, tag: &str) -> Result<Snapshot, ConditionsError> {
        let entries = store.with_tag(tag, |t| {
            t.iter_entries()
                .map(|(k, r, p)| (k.clone(), r, p.clone()))
                .collect::<Vec<_>>()
        })?;
        Ok(Snapshot {
            tag: tag.to_string(),
            entries,
        })
    }

    /// Number of `(key, range)` entries captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total payload bytes in the snapshot.
    pub fn byte_size(&self) -> usize {
        self.entries.iter().map(|(_, _, p)| p.byte_size()).sum()
    }

    /// Serialize to the shippable text format. The second line carries an
    /// FNV-1a 64 digest of everything after it, so corruption of the
    /// shipped file is detected instead of parsing into wrong constants.
    pub fn to_text(&self) -> String {
        let mut body = String::new();
        body.push_str("tag ");
        body.push_str(&self.tag);
        body.push('\n');
        for (k, r, p) in &self.entries {
            body.push_str(&text::format_entry(k, *r, p));
            body.push('\n');
        }
        format!(
            "{}\n{}{:016x}\n{body}",
            text::HEADER,
            text::DIGEST_PREFIX,
            fnv64(body.as_bytes())
        )
    }

    /// Parse a snapshot back from its text form. A `digest` line, when
    /// present, is verified against the remainder of the text;
    /// digest-less snapshots (pre-digest archives) are still accepted.
    pub fn from_text(s: &str) -> Result<Snapshot, ConditionsError> {
        let parse_err = |line: usize, reason: &str| ConditionsError::ParseError {
            line,
            reason: reason.to_string(),
        };
        // Split off one line; returns (line, rest-after-newline).
        fn take_line(s: &str) -> (&str, &str) {
            match s.split_once('\n') {
                Some((line, rest)) => (line, rest),
                None => (s, ""),
            }
        }
        if s.is_empty() {
            return Err(parse_err(1, "empty snapshot"));
        }
        let (header, mut rest) = take_line(s);
        if header != text::HEADER {
            return Err(ConditionsError::ParseError {
                line: 1,
                reason: format!("bad header '{header}'"),
            });
        }
        let mut line_no = 1;
        if rest.starts_with(text::DIGEST_PREFIX) {
            let (digest_line, body) = take_line(rest);
            line_no = 2;
            let hex = digest_line[text::DIGEST_PREFIX.len()..].trim();
            let stored = u64::from_str_radix(hex, 16)
                .map_err(|_| parse_err(2, "bad digest value"))?;
            let actual = fnv64(body.as_bytes());
            if stored != actual {
                return Err(ConditionsError::ParseError {
                    line: 2,
                    reason: format!(
                        "snapshot digest mismatch: file says {stored:016x}, \
                         text hashes to {actual:016x}"
                    ),
                });
            }
            rest = body;
        }
        let (tag_line, rest) = take_line(rest);
        line_no += 1;
        let tag = tag_line
            .strip_prefix("tag ")
            .ok_or_else(|| parse_err(line_no, "missing 'tag ' prefix"))?
            .to_string();
        let mut entries = Vec::new();
        for line in rest.lines() {
            line_no += 1;
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            entries.push(text::parse_entry(line, line_no)?);
        }
        Ok(Snapshot { tag, entries })
    }

    /// Restore the snapshot into a store under a (possibly new) tag name.
    pub fn restore_into(
        &self,
        store: &ConditionsStore,
        tag: &str,
    ) -> Result<(), ConditionsError> {
        store.create_tag(tag)?;
        for (k, r, p) in &self.entries {
            store.insert(tag, k.clone(), *r, p.clone())?;
        }
        store.freeze(tag)
    }
}

/// Shipped-file mode: conditions resolved from an in-memory snapshot with
/// no external dependency (the ALICE model and the archive-replay model).
///
/// Lookup rides the same [`IovSequence`] index the conditions store uses
/// — sorted intervals, binary search, last-hit cursor — so shipped-file
/// resolution is as fast as database resolution minus the round trip.
pub struct ShippedFileSource {
    snapshot: Snapshot,
    index: std::collections::BTreeMap<IovKey, IovSequence>,
    stats: AccessStats,
}

impl ShippedFileSource {
    /// Build a source over a snapshot (indexes it for lookup).
    pub fn new(snapshot: Snapshot) -> Self {
        let mut index: std::collections::BTreeMap<IovKey, IovSequence> =
            std::collections::BTreeMap::new();
        for (i, (k, r, _)) in snapshot.entries.iter().enumerate() {
            // Honest snapshots cannot carry overlapping intervals (the
            // store they were captured from rejects them); if one does,
            // the first entry for a run wins and the rest are dropped —
            // restoring such a snapshot into a store fails anyway.
            let _ = index.entry(k.clone()).or_default().insert(*r, i);
        }
        ShippedFileSource {
            snapshot,
            index,
            stats: AccessStats::default(),
        }
    }

    /// The wrapped snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }
}

impl ConditionsSource for ShippedFileSource {
    fn get(&self, key: &IovKey, run: u32) -> Result<Payload, ConditionsError> {
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
        let seq = self.index.get(key).ok_or_else(|| ConditionsError::UnknownKey {
            tag: self.snapshot.tag.clone(),
            key: key.0.clone(),
        })?;
        if let Some(idx) = seq.resolve(run) {
            let p = self.snapshot.entries[idx].2.clone();
            self.stats
                .bytes_read
                .fetch_add(p.byte_size() as u64, Ordering::Relaxed);
            return Ok(p);
        }
        Err(ConditionsError::NoValidPayload {
            tag: self.snapshot.tag.clone(),
            key: key.0.clone(),
            run,
        })
    }

    fn stats(&self) -> &AccessStats {
        &self.stats
    }

    fn describe(&self) -> String {
        format!("shipped:{}", self.snapshot.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated_store() -> Arc<ConditionsStore> {
        let s = Arc::new(ConditionsStore::new());
        s.create_tag("t").unwrap();
        s.insert(
            "t",
            IovKey::new("ecal/gain"),
            RunRange::new(1, 100).unwrap(),
            Payload::Scalar(1.02),
        )
        .unwrap();
        s.insert(
            "t",
            IovKey::new("ecal/gain"),
            RunRange::new(101, 200).unwrap(),
            Payload::Scalar(1.05),
        )
        .unwrap();
        s.insert(
            "t",
            IovKey::new("tracker/alignment"),
            RunRange::from(1),
            Payload::Vector(vec![0.1, 0.2]),
        )
        .unwrap();
        s.freeze("t").unwrap();
        s
    }

    #[test]
    fn db_source_counts_round_trips() {
        let store = populated_store();
        let src = DbSource::connect(Arc::clone(&store), "t");
        for _ in 0..5 {
            src.get(&IovKey::new("ecal/gain"), 50).unwrap();
        }
        assert_eq!(src.stats().lookups(), 5);
        assert_eq!(src.stats().remote_round_trips(), 5);
        assert_eq!(src.stats().bytes_read(), 40);
        assert_eq!(src.describe(), "db:t");
    }

    #[test]
    fn shipped_source_has_zero_round_trips() {
        let store = populated_store();
        let snap = Snapshot::capture(&store, "t").unwrap();
        let src = ShippedFileSource::new(snap);
        for _ in 0..5 {
            src.get(&IovKey::new("ecal/gain"), 150).unwrap();
        }
        assert_eq!(src.stats().lookups(), 5);
        assert_eq!(src.stats().remote_round_trips(), 0);
        assert_eq!(src.describe(), "shipped:t");
    }

    #[test]
    fn db_and_shipped_agree() {
        let store = populated_store();
        let db = DbSource::connect(Arc::clone(&store), "t");
        let shipped = ShippedFileSource::new(Snapshot::capture(&store, "t").unwrap());
        for run in [1u32, 50, 100, 101, 200] {
            for key in ["ecal/gain", "tracker/alignment"] {
                let a = db.get(&IovKey::new(key), run).unwrap();
                let b = shipped.get(&IovKey::new(key), run).unwrap();
                assert_eq!(a, b, "disagreement at run {run}, key {key}");
            }
        }
    }

    #[test]
    fn snapshot_text_round_trip() {
        let store = populated_store();
        let snap = Snapshot::capture(&store, "t").unwrap();
        let restored = Snapshot::from_text(&snap.to_text()).unwrap();
        assert_eq!(restored, snap);
        assert_eq!(restored.len(), 3);
    }

    #[test]
    fn snapshot_restore_into_new_store() {
        let store = populated_store();
        let snap = Snapshot::capture(&store, "t").unwrap();
        let fresh = ConditionsStore::new();
        snap.restore_into(&fresh, "t-restored").unwrap();
        let p = fresh
            .resolve("t-restored", &IovKey::new("ecal/gain"), 150)
            .unwrap();
        assert_eq!(p.as_scalar(), Some(1.05));
        // Restored tags arrive frozen.
        assert!(fresh
            .insert(
                "t-restored",
                IovKey::new("x"),
                RunRange::from(1),
                Payload::Scalar(0.0)
            )
            .is_err());
    }

    #[test]
    fn snapshot_rejects_corrupt_text() {
        assert!(Snapshot::from_text("").is_err());
        assert!(Snapshot::from_text("wrong header\ntag t\n").is_err());
        let store = populated_store();
        let mut text = Snapshot::capture(&store, "t").unwrap().to_text();
        text.push_str("scalar broken 5..1 2.0\n");
        assert!(Snapshot::from_text(&text).is_err());
    }

    #[test]
    fn snapshot_text_carries_verified_digest() {
        let store = populated_store();
        let snap = Snapshot::capture(&store, "t").unwrap();
        let textform = snap.to_text();
        assert!(textform.lines().nth(1).unwrap().starts_with(text::DIGEST_PREFIX));
        // A flipped digit in a constant parses fine line-by-line but must
        // fail the digest — this is the silent-corruption case the digest
        // line exists for.
        let tampered = textform.replace("1.02", "1.03");
        assert_ne!(tampered, textform);
        match Snapshot::from_text(&tampered).unwrap_err() {
            ConditionsError::ParseError { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("digest mismatch"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // A garbled digest value is also rejected.
        assert!(Snapshot::from_text(&textform.replacen("digest ", "digest zz", 1)).is_err());
    }

    #[test]
    fn digestless_snapshot_text_still_parses() {
        // Pre-digest archives shipped header + tag + entries only.
        let store = populated_store();
        let snap = Snapshot::capture(&store, "t").unwrap();
        let with_digest = snap.to_text();
        let digest_line = format!(
            "{}\n",
            with_digest.lines().nth(1).expect("digest line")
        );
        let legacy = with_digest.replacen(&digest_line, "", 1);
        assert_eq!(Snapshot::from_text(&legacy).unwrap(), snap);
    }

    #[test]
    fn shipped_source_error_paths() {
        let store = populated_store();
        let src = ShippedFileSource::new(Snapshot::capture(&store, "t").unwrap());
        assert!(matches!(
            src.get(&IovKey::new("nope"), 1),
            Err(ConditionsError::UnknownKey { .. })
        ));
        assert!(matches!(
            src.get(&IovKey::new("ecal/gain"), 500),
            Err(ConditionsError::NoValidPayload { .. })
        ));
    }

    #[test]
    fn stats_reset() {
        let store = populated_store();
        let src = DbSource::connect(store, "t");
        src.get(&IovKey::new("ecal/gain"), 1).unwrap();
        src.stats().reset();
        assert_eq!(src.stats().lookups(), 0);
        assert_eq!(src.stats().bytes_read(), 0);
    }
}
