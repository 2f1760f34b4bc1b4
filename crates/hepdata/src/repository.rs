//! The reactions-database repository.

use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock};

use daspos_hep::ids::{IdAllocator, RecordId};

use crate::record::{DataTable, HepDataRecord};

/// Repository failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HepDataError {
    /// No record with the given id.
    UnknownRecord(RecordId),
    /// A record already exists for this INSPIRE id.
    DuplicateInspireId(u64),
}

impl std::fmt::Display for HepDataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HepDataError::UnknownRecord(id) => write!(f, "unknown record {id}"),
            HepDataError::DuplicateInspireId(i) => {
                write!(f, "a record for INSPIRE id {i} already exists")
            }
        }
    }
}

impl std::error::Error for HepDataError {}

/// A submission not yet assigned a record id.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Publication title.
    pub title: String,
    /// Publishing experiment.
    pub experiment: String,
    /// Reaction string.
    pub reaction: String,
    /// INSPIRE record id (unique per record).
    pub inspire_id: u64,
    /// Search keywords.
    pub keywords: Vec<String>,
    /// The data tables.
    pub tables: Vec<DataTable>,
}

/// The thread-safe repository.
#[derive(Default)]
pub struct HepDataRepository {
    records: RwLock<BTreeMap<RecordId, HepDataRecord>>,
    by_inspire: RwLock<BTreeMap<u64, RecordId>>,
    ids: IdAllocator,
}

impl HepDataRepository {
    /// An empty repository.
    pub fn new() -> Self {
        HepDataRepository::default()
    }

    /// Insert a submission; INSPIRE ids are unique.
    pub fn insert(&self, submission: Submission) -> Result<RecordId, HepDataError> {
        let mut by_inspire = self.by_inspire.write().unwrap_or_else(PoisonError::into_inner);
        if by_inspire.contains_key(&submission.inspire_id) {
            return Err(HepDataError::DuplicateInspireId(submission.inspire_id));
        }
        let id = RecordId(self.ids.allocate());
        by_inspire.insert(submission.inspire_id, id);
        self.records.write().unwrap_or_else(PoisonError::into_inner).insert(
            id,
            HepDataRecord {
                id,
                title: submission.title,
                experiment: submission.experiment,
                reaction: submission.reaction,
                inspire_id: submission.inspire_id,
                keywords: submission.keywords,
                tables: submission.tables,
            },
        );
        Ok(id)
    }

    /// Fetch by record id.
    pub fn get(&self, id: RecordId) -> Result<HepDataRecord, HepDataError> {
        self.records
            .read().unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .cloned()
            .ok_or(HepDataError::UnknownRecord(id))
    }

    /// Fetch via the INSPIRE cross link — the report notes that *"INSPIRE
    /// entries often contain links to entries … in the HepData archive"*.
    pub fn by_inspire(&self, inspire_id: u64) -> Option<HepDataRecord> {
        let id = *self.by_inspire.read().unwrap_or_else(PoisonError::into_inner).get(&inspire_id)?;
        self.records.read().unwrap_or_else(PoisonError::into_inner).get(&id).cloned()
    }

    /// Case-insensitive keyword search across titles, reactions,
    /// experiments and keywords.
    pub fn search(&self, needle: &str) -> Vec<HepDataRecord> {
        self.records
            .read().unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|r| r.matches(needle))
            .cloned()
            .collect()
    }

    /// Add a table to an existing record (the "very large upload" case:
    /// search analyses append acceptance grids over time).
    pub fn append_table(&self, id: RecordId, table: DataTable) -> Result<(), HepDataError> {
        let mut records = self.records.write().unwrap_or_else(PoisonError::into_inner);
        let rec = records
            .get_mut(&id)
            .ok_or(HepDataError::UnknownRecord(id))?;
        rec.tables.push(table);
        Ok(())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when the repository has no records.
    pub fn is_empty(&self) -> bool {
        self.records.read().unwrap_or_else(PoisonError::into_inner).is_empty()
    }

    /// Record sizes in bytes, ordered by record id — the distribution
    /// experiment H1 reports.
    pub fn size_distribution(&self) -> Vec<(RecordId, usize)> {
        self.records
            .read().unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|r| (r.id, r.byte_size()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TableData;

    fn submission(title: &str, inspire: u64) -> Submission {
        Submission {
            title: title.to_string(),
            experiment: "atlas".to_string(),
            reaction: "p p --> Z X".to_string(),
            inspire_id: inspire,
            keywords: vec!["electroweak".to_string()],
            tables: vec![DataTable {
                name: "Table 1".to_string(),
                description: "cross section".to_string(),
                data: TableData::KeyValue(vec![("sigma".to_string(), 1.1)]),
            }],
        }
    }

    #[test]
    fn insert_get_and_inspire_link() {
        let repo = HepDataRepository::new();
        let id = repo.insert(submission("Z lineshape", 9001)).unwrap();
        let rec = repo.get(id).unwrap();
        assert_eq!(rec.title, "Z lineshape");
        let linked = repo.by_inspire(9001).unwrap();
        assert_eq!(linked.id, id);
        assert!(repo.by_inspire(1234).is_none());
    }

    #[test]
    fn duplicate_inspire_rejected() {
        let repo = HepDataRepository::new();
        repo.insert(submission("a", 1)).unwrap();
        assert_eq!(
            repo.insert(submission("b", 1)).unwrap_err(),
            HepDataError::DuplicateInspireId(1)
        );
        assert_eq!(repo.len(), 1);
    }

    #[test]
    fn search_finds_matches() {
        let repo = HepDataRepository::new();
        repo.insert(submission("Z lineshape measurement", 1)).unwrap();
        repo.insert(submission("Dijet spectra", 2)).unwrap();
        assert_eq!(repo.search("lineshape").len(), 1);
        assert_eq!(repo.search("atlas").len(), 2);
        assert_eq!(repo.search("supersymmetry").len(), 0);
    }

    #[test]
    fn append_table_grows_record() {
        let repo = HepDataRepository::new();
        let id = repo.insert(submission("search", 5)).unwrap();
        let before = repo.get(id).unwrap().byte_size();
        repo.append_table(
            id,
            DataTable {
                name: "acceptance grid".to_string(),
                description: "efficiency over (m1, m2)".to_string(),
                data: TableData::Columns {
                    names: vec!["m1".to_string(), "m2".to_string(), "eff".to_string()],
                    rows: (0..500).map(|i| vec![f64::from(i), 0.0, 0.5]).collect(),
                },
            },
        )
        .unwrap();
        let after = repo.get(id).unwrap().byte_size();
        assert!(after > before + 10_000);
        assert!(matches!(
            repo.append_table(RecordId(99), DataTable {
                name: String::new(),
                description: String::new(),
                data: TableData::KeyValue(vec![]),
            }),
            Err(HepDataError::UnknownRecord(_))
        ));
    }

    #[test]
    fn size_distribution_reflects_outliers() {
        let repo = HepDataRepository::new();
        let small = repo.insert(submission("small", 1)).unwrap();
        let big = repo.insert(submission("big search", 2)).unwrap();
        repo.append_table(
            big,
            DataTable {
                name: "grid".to_string(),
                description: String::new(),
                data: TableData::Columns {
                    names: vec!["x".to_string()],
                    rows: (0..10_000).map(|i| vec![f64::from(i)]).collect(),
                },
            },
        )
        .unwrap();
        let dist = repo.size_distribution();
        let small_size = dist.iter().find(|(id, _)| *id == small).unwrap().1;
        let big_size = dist.iter().find(|(id, _)| *id == big).unwrap().1;
        assert!(big_size > 100 * small_size);
    }

    #[test]
    fn concurrent_inserts_unique_ids() {
        use std::sync::Arc;
        let repo = Arc::new(HepDataRepository::new());
        let mut handles = Vec::new();
        for t in 0u64..4 {
            let repo = Arc::clone(&repo);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    repo.insert(submission("x", t * 1000 + i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        assert_eq!(repo.len(), 200);
    }
}
