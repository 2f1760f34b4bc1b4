//! The backend-agnostic storage API and its first two implementations.
//!
//! A [`StorageBackend`] is a flat keyed blob store — the narrowest
//! interface that an in-memory map, a directory tree, an object store or
//! a tape robot can all satisfy. The vault composes N of them into a
//! replicated preservation store; the archive container uses one
//! directly for `open`/`store`. Keys are restricted to a portable
//! filename alphabet so the same key is valid on every backend.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::Bytes;

/// A storage operation failure.
///
/// The retry machinery dispatches on the variant: [`Transient`] failures
/// are retried under the vault's [`RetryPolicy`](crate::RetryPolicy),
/// everything else is permanent for the attempt.
///
/// [`Transient`]: StorageError::Transient
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// No object stored under the key.
    NotFound(String),
    /// The operation failed but may succeed if retried (flaky media,
    /// interrupted I/O).
    Transient(String),
    /// The key is not expressible on this backend (bad characters,
    /// empty, too long).
    BadKey(String),
    /// A permanent backend failure (I/O error, permission, full disk).
    Backend(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(key) => write!(f, "no object stored under '{key}'"),
            StorageError::Transient(msg) => write!(f, "transient storage failure: {msg}"),
            StorageError::BadKey(key) => write!(f, "invalid storage key '{key}'"),
            StorageError::Backend(msg) => write!(f, "storage backend failure: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Keys must travel portably across backends: non-empty, ≤ 255 bytes,
/// drawn from `[A-Za-z0-9._-]`, and not starting with a dot (no hidden
/// files, no `..`).
pub fn validate_key(key: &str) -> Result<(), StorageError> {
    let ok = !key.is_empty()
        && key.len() <= 255
        && !key.starts_with('.')
        && key
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(StorageError::BadKey(key.to_string()))
    }
}

/// A flat keyed blob store. One replica of a vault, or the storage layer
/// under an archive container.
///
/// Implementations must be shareable across threads (`Send + Sync`);
/// mutation goes through `&self` so backends can be held behind `Arc`.
pub trait StorageBackend: Send + Sync {
    /// A short human label for diagnostics ("memory", "dir:/srv/r0").
    fn name(&self) -> String;

    /// Store `data` under `key`, replacing any previous object.
    fn put(&self, key: &str, data: &Bytes) -> Result<(), StorageError>;

    /// Fetch the object stored under `key`.
    fn get(&self, key: &str) -> Result<Bytes, StorageError>;

    /// Remove the object under `key` (succeeds if absent).
    fn delete(&self, key: &str) -> Result<(), StorageError>;

    /// All keys with the given prefix, ascending. `""` lists everything.
    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError>;
}

/// An in-memory backend: a mutex-guarded ordered map. The reference
/// implementation, and the fixture store for fault campaigns and tests.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    objects: Mutex<BTreeMap<String, Bytes>>,
}

impl MemoryBackend {
    /// An empty store.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.lock().expect("backend poisoned").len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl StorageBackend for MemoryBackend {
    fn name(&self) -> String {
        "memory".to_string()
    }

    fn put(&self, key: &str, data: &Bytes) -> Result<(), StorageError> {
        validate_key(key)?;
        self.objects
            .lock()
            .expect("backend poisoned")
            .insert(key.to_string(), data.clone());
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Bytes, StorageError> {
        validate_key(key)?;
        self.objects
            .lock()
            .expect("backend poisoned")
            .get(key)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        validate_key(key)?;
        self.objects.lock().expect("backend poisoned").remove(key);
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        Ok(self
            .objects
            .lock()
            .expect("backend poisoned")
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect())
    }
}

/// A directory-tree backend: one file per key under a root directory.
///
/// Writes are atomic at the object level (write a dot-prefixed
/// temporary, fsync it, rename it over the key, fsync the directory), so
/// a crash mid-`put` never leaves a half-written replica that a scrub
/// would have to distinguish from bit rot, and an acknowledged `put`
/// survives a crash. Each `put` writes its own fixed-length temporary,
/// so a 255-byte key still fits the file-name limit and concurrent puts
/// of one key cannot tear each other: the last rename wins whole. The
/// key alphabet ([`validate_key`]) guarantees keys map 1:1 to file
/// names; dot-prefixed temporaries are invisible to [`list`].
///
/// [`list`]: StorageBackend::list
#[derive(Debug, Clone)]
pub struct DirBackend {
    root: PathBuf,
}

impl DirBackend {
    /// A backend rooted at `root`. The directory is created lazily on
    /// the first `put`; `get` on a missing root reports `NotFound`.
    pub fn new(root: impl Into<PathBuf>) -> DirBackend {
        DirBackend { root: root.into() }
    }

    /// The root directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path_for(&self, key: &str) -> Result<PathBuf, StorageError> {
        validate_key(key)?;
        Ok(self.root.join(key))
    }
}

impl StorageBackend for DirBackend {
    fn name(&self) -> String {
        format!("dir:{}", self.root.display())
    }

    fn put(&self, key: &str, data: &Bytes) -> Result<(), StorageError> {
        let path = self.path_for(key)?;
        std::fs::create_dir_all(&self.root)
            .map_err(|e| StorageError::Backend(format!("mkdir {}: {e}", self.root.display())))?;
        // Process id plus a process-wide counter names a temporary no
        // other put shares, at a fixed 29 bytes whatever the key's
        // length. The counter publishes no other data: Relaxed suffices.
        static PUTS: AtomicU64 = AtomicU64::new(0);
        let tmp = self.root.join(format!(
            ".{:08x}{:016x}.tmp",
            std::process::id(),
            PUTS.fetch_add(1, Ordering::Relaxed)
        ));
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(data)?;
                f.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(StorageError::Backend(format!("write {}: {e}", path.display())));
        }
        std::fs::File::open(&self.root)
            .and_then(|dir| dir.sync_all())
            .map_err(|e| StorageError::Backend(format!("fsync {}: {e}", self.root.display())))
    }

    fn get(&self, key: &str) -> Result<Bytes, StorageError> {
        let path = self.path_for(key)?;
        match std::fs::read(&path) {
            Ok(data) => Ok(Bytes::from(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StorageError::NotFound(key.to_string()))
            }
            Err(e) => Err(StorageError::Backend(format!(
                "read {}: {e}",
                path.display()
            ))),
        }
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        let path = self.path_for(key)?;
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StorageError::Backend(format!(
                "delete {}: {e}",
                path.display()
            ))),
        }
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        let entries = match std::fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => {
                return Err(StorageError::Backend(format!(
                    "list {}: {e}",
                    self.root.display()
                )))
            }
        };
        let mut keys = Vec::new();
        for entry in entries {
            let entry =
                entry.map_err(|e| StorageError::Backend(format!("list entry: {e}")))?;
            if let Some(name) = entry.file_name().to_str() {
                if !name.starts_with('.') && name.starts_with(prefix) {
                    keys.push(name.to_string());
                }
            }
        }
        keys.sort_unstable();
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn StorageBackend) {
        let data = Bytes::from_static(b"payload bytes");
        assert!(matches!(
            backend.get("missing"),
            Err(StorageError::NotFound(_))
        ));
        backend.put("a.dpef", &data).unwrap();
        backend.put("b.dpar", &Bytes::from_static(b"other")).unwrap();
        assert_eq!(backend.get("a.dpef").unwrap(), data);
        assert_eq!(
            backend.list("").unwrap(),
            vec!["a.dpef".to_string(), "b.dpar".to_string()]
        );
        assert_eq!(backend.list("a").unwrap(), vec!["a.dpef".to_string()]);
        // Overwrite replaces.
        backend.put("a.dpef", &Bytes::from_static(b"v2")).unwrap();
        assert_eq!(backend.get("a.dpef").unwrap(), Bytes::from_static(b"v2"));
        // Delete is idempotent.
        backend.delete("a.dpef").unwrap();
        backend.delete("a.dpef").unwrap();
        assert!(matches!(
            backend.get("a.dpef"),
            Err(StorageError::NotFound(_))
        ));
        // Bad keys are rejected uniformly.
        for bad in ["", "../etc/passwd", "a/b", ".hidden", "sp ace"] {
            assert!(
                matches!(backend.put(bad, &data), Err(StorageError::BadKey(_))),
                "key {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn memory_backend_contract() {
        exercise(&MemoryBackend::new());
    }

    #[test]
    fn dir_backend_contract() {
        let root = std::env::temp_dir().join(format!("daspos-vault-be-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        exercise(&DirBackend::new(&root));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_backend_missing_root_lists_empty() {
        let backend = DirBackend::new("/nonexistent/daspos-vault-test");
        assert_eq!(backend.list("").unwrap(), Vec::<String>::new());
        assert!(matches!(
            backend.get("x"),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn dir_backend_put_is_atomic_and_hides_temporaries() {
        let root = std::env::temp_dir().join(format!("daspos-vault-at-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let backend = DirBackend::new(&root);
        backend.put("obj", &Bytes::from_static(b"x")).unwrap();
        // A stray temporary from a crashed writer must not surface as an
        // object.
        std::fs::write(root.join(".obj2.tmp"), b"partial").unwrap();
        assert_eq!(backend.list("").unwrap(), vec!["obj".to_string()]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_backend_round_trips_a_key_of_the_maximum_length() {
        let root = std::env::temp_dir().join(format!("daspos-vault-max-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let backend = DirBackend::new(&root);
        let key = "k".repeat(255);
        let data = Bytes::from_static(b"longest portable key");
        backend.put(&key, &data).unwrap();
        assert_eq!(backend.get(&key).unwrap(), data);
        assert_eq!(backend.list("").unwrap(), vec![key]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_puts_of_one_key_leave_exactly_one_intact_payload() {
        let root = std::env::temp_dir().join(format!("daspos-vault-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let backend = DirBackend::new(&root);
        let payloads: Vec<Bytes> = (0..8u8)
            .map(|t| Bytes::from(vec![t; 256 * 1024 + usize::from(t)]))
            .collect();
        let start = std::sync::Barrier::new(payloads.len());
        std::thread::scope(|s| {
            for p in &payloads {
                let (backend, start) = (&backend, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..4 {
                        backend.put("contended", p).unwrap();
                    }
                });
            }
        });
        let stored = backend.get("contended").unwrap();
        assert!(
            payloads.contains(&stored),
            "stored object of {} bytes is not any one writer's payload",
            stored.len()
        );
        // Every temporary was renamed away: the directory holds the key alone.
        let names: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("contended")]);
        let _ = std::fs::remove_dir_all(&root);
    }
}
