//! The dataset catalog: named, tiered, size-accounted event collections.
//!
//! A [`Dataset`] owns encoded files (the in-memory stand-in for tape or
//! disk); the [`DatasetCatalog`] is the bookkeeping service every
//! provenance edge and preservation archive refers to. The catalog is
//! thread-safe: RECAST back-end workers read datasets concurrently.

use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock};

use bytes::Bytes;
use daspos_hep::ids::{DatasetId, FileId, IdAllocator};

use crate::tier::DataTier;

/// Descriptive metadata for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMeta {
    /// Catalog id.
    pub id: DatasetId,
    /// Human name, e.g. `"atlas/zboson/aod/v1"`.
    pub name: String,
    /// Owning experiment (`"alice"`, `"atlas"`, …).
    pub experiment: String,
    /// The data tier of every file in the dataset.
    pub tier: DataTier,
    /// Total events across files.
    pub n_events: u64,
    /// Total encoded bytes across files.
    pub n_bytes: u64,
    /// Number of files.
    pub n_files: u32,
}

/// One stored file of encoded events.
#[derive(Debug, Clone)]
pub struct StoredFile {
    /// Catalog id of the file.
    pub id: FileId,
    /// Encoded file contents (DPEF format).
    pub data: Bytes,
    /// Events in the file.
    pub n_events: u64,
}

/// A dataset: metadata plus its files.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Descriptive metadata.
    pub meta: DatasetMeta,
    /// The stored files.
    pub files: Vec<StoredFile>,
}

impl Dataset {
    /// Concatenated view over all file payloads, for whole-dataset reads.
    pub fn file_data(&self) -> impl Iterator<Item = &Bytes> {
        self.files.iter().map(|f| &f.data)
    }
}

/// Errors from catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// No dataset with the given id.
    UnknownDataset(DatasetId),
    /// A dataset with this name already exists.
    DuplicateName(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownDataset(id) => write!(f, "unknown dataset {id}"),
            CatalogError::DuplicateName(n) => write!(f, "dataset name '{n}' already exists"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// The thread-safe dataset catalog.
#[derive(Debug, Default)]
pub struct DatasetCatalog {
    inner: RwLock<BTreeMap<DatasetId, Dataset>>,
    by_name: RwLock<BTreeMap<String, DatasetId>>,
    dataset_ids: IdAllocator,
    file_ids: IdAllocator,
}

impl DatasetCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        DatasetCatalog {
            inner: RwLock::new(BTreeMap::new()),
            by_name: RwLock::new(BTreeMap::new()),
            dataset_ids: IdAllocator::new(),
            file_ids: IdAllocator::new(),
        }
    }

    /// Register a dataset from encoded files.
    ///
    /// `files` are `(encoded_bytes, n_events)` pairs.
    pub fn register(
        &self,
        name: &str,
        experiment: &str,
        tier: DataTier,
        files: Vec<(Bytes, u64)>,
    ) -> Result<DatasetId, CatalogError> {
        let mut by_name = self.by_name.write().unwrap_or_else(PoisonError::into_inner);
        if by_name.contains_key(name) {
            return Err(CatalogError::DuplicateName(name.to_string()));
        }
        let id = DatasetId(self.dataset_ids.allocate());
        let stored: Vec<StoredFile> = files
            .into_iter()
            .map(|(data, n_events)| StoredFile {
                id: FileId(self.file_ids.allocate()),
                data,
                n_events,
            })
            .collect();
        let meta = DatasetMeta {
            id,
            name: name.to_string(),
            experiment: experiment.to_string(),
            tier,
            n_events: stored.iter().map(|f| f.n_events).sum(),
            n_bytes: stored.iter().map(|f| f.data.len() as u64).sum(),
            n_files: stored.len() as u32,
        };
        self.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, Dataset { meta, files: stored });
        by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Fetch a dataset clone by id.
    pub fn get(&self, id: DatasetId) -> Result<Dataset, CatalogError> {
        self.inner
            .read().unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .cloned()
            .ok_or(CatalogError::UnknownDataset(id))
    }

    /// Look up a dataset id by name.
    pub fn find(&self, name: &str) -> Option<DatasetId> {
        self.by_name.read().unwrap_or_else(PoisonError::into_inner).get(name).copied()
    }

    /// Metadata of every dataset, ordered by id.
    pub fn list(&self) -> Vec<DatasetMeta> {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        inner.values().map(|d| d.meta.clone()).collect()
    }

    /// Delete a dataset (e.g. a failed production). Returns its metadata.
    pub fn delete(&self, id: DatasetId) -> Result<DatasetMeta, CatalogError> {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let ds = inner.remove(&id).ok_or(CatalogError::UnknownDataset(id))?;
        self.by_name.write().unwrap_or_else(PoisonError::into_inner).remove(&ds.meta.name);
        Ok(ds.meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(len: usize, n: u64) -> (Bytes, u64) {
        (Bytes::from(vec![0u8; len]), n)
    }

    #[test]
    fn register_and_get() {
        let cat = DatasetCatalog::new();
        let id = cat
            .register("atlas/z/aod/v1", "atlas", DataTier::Aod, vec![file(100, 10), file(50, 5)])
            .unwrap();
        let ds = cat.get(id).unwrap();
        assert_eq!(ds.meta.n_events, 15);
        assert_eq!(ds.meta.n_bytes, 150);
        assert_eq!(ds.meta.n_files, 2);
        assert_eq!(ds.meta.tier, DataTier::Aod);
        assert_eq!(cat.find("atlas/z/aod/v1"), Some(id));
    }

    #[test]
    fn duplicate_names_rejected() {
        let cat = DatasetCatalog::new();
        cat.register("x", "atlas", DataTier::Raw, vec![]).unwrap();
        assert!(matches!(
            cat.register("x", "cms", DataTier::Raw, vec![]),
            Err(CatalogError::DuplicateName(_))
        ));
    }

    #[test]
    fn unknown_dataset_errors() {
        let cat = DatasetCatalog::new();
        assert!(matches!(
            cat.get(DatasetId(99)),
            Err(CatalogError::UnknownDataset(_))
        ));
    }

    #[test]
    fn delete_frees_name() {
        let cat = DatasetCatalog::new();
        let id = cat
            .register("tmp", "lhcb", DataTier::Ntuple, vec![file(10, 1)])
            .unwrap();
        let meta = cat.delete(id).unwrap();
        assert_eq!(meta.name, "tmp");
        assert_eq!(cat.find("tmp"), None);
        // Name reusable after deletion.
        cat.register("tmp", "lhcb", DataTier::Ntuple, vec![])
            .unwrap();
    }

    #[test]
    fn concurrent_readers_and_writers() {
        use std::sync::Arc;
        let cat = Arc::new(DatasetCatalog::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let cat = Arc::clone(&cat);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let name = format!("ds-{t}-{i}");
                    let id = cat
                        .register(&name, "atlas", DataTier::Aod, vec![file(10, 1)])
                        .unwrap();
                    assert!(cat.get(id).is_ok());
                    assert_eq!(cat.find(&name), Some(id));
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        assert_eq!(cat.list().len(), 200);
    }
}
