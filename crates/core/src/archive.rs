//! The preservation archive container.
//!
//! A [`PreservationArchive`] is the self-contained unit DASPOS's goals
//! call for: the declarative workflow, the conditions snapshot, the
//! provenance graph, the software-stack descriptor, the interview
//! metadata and the reference analysis results — everything a future
//! system needs to re-run the chain and check the answer. Sections are
//! checksummed so bit rot is detected, and the container itself has a
//! versioned binary form.
//!
//! Containers are built with [`PreservationArchive::builder`] and move
//! on and off storage through the same [`StorageBackend`] abstraction
//! the preservation vault replicates over:
//! [`store`](PreservationArchive::store) writes the serialized container
//! to a backend, [`open`](PreservationArchive::open) reads it back with
//! integrity verified.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use daspos_conditions::Snapshot;
use daspos_metadata::maturity::MaturityReport;
use daspos_metadata::presets;
use daspos_metadata::sharing::PolicyStatus;
use daspos_provenance::{text as prov_text, SoftwareStack};
use daspos_vault::{ObjectKind, StorageBackend, Verifier};

use crate::workflow::{ExecutionContext, PreservedWorkflow, ProductionOutput};

/// Container format version. v2 added the manifest digest: an FNV-1a 64
/// over the archive name plus every section's name, checksum and length,
/// stored right after the version field. Per-section checksums cover the
/// payload bytes; the manifest digest covers everything else, so no byte
/// of the container can change undetected.
pub const ARCHIVE_VERSION: u16 = 2;

const MAGIC: &[u8; 4] = b"DPAR";

/// The well-known section names.
pub mod sections {
    /// The declarative workflow text.
    pub const WORKFLOW: &str = "workflow";
    /// The conditions snapshot (shippable text form).
    pub const CONDITIONS: &str = "conditions";
    /// The provenance graph text.
    pub const PROVENANCE: &str = "provenance";
    /// The software stack descriptor.
    pub const SOFTWARE: &str = "software";
    /// The reference analysis results (YODA-like text).
    pub const RESULTS: &str = "results";
    /// Interview/maturity metadata.
    pub const METADATA: &str = "metadata";
    /// Optional: ADL analysis descriptions carried with the archive
    /// (Les Houches Rec. 1b — the analysis database entries themselves).
    /// Multiple documents are separated by a line containing only `---`.
    pub const ADL: &str = "adl";
}

/// One named, checksummed section.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveSection {
    /// Section name.
    pub name: String,
    /// Raw contents.
    pub data: Bytes,
    /// FNV-1a 64 checksum of the contents at packaging time.
    pub checksum: u64,
}

use daspos_tiers::codec::fnv64;

/// Digest over the container's manifest: the archive name and every
/// section's name, checksum and data length, in serialization order.
/// Section *data* is deliberately excluded — the per-section checksums
/// cover it (and remain individually checkable after deserialization) —
/// but those checksums are themselves covered here, so a tampered
/// checksum field, section name, count or archive name is caught at
/// [`PreservationArchive::from_bytes`] time.
fn manifest_digest(name: &str, sections: &BTreeMap<String, ArchiveSection>) -> u64 {
    let mut m = BytesMut::new();
    m.put_u32_le(name.len() as u32);
    m.put_slice(name.as_bytes());
    m.put_u32_le(sections.len() as u32);
    for s in sections.values() {
        m.put_u32_le(s.name.len() as u32);
        m.put_slice(s.name.as_bytes());
        m.put_u64_le(s.checksum);
        m.put_u32_le(s.data.len() as u32);
    }
    fnv64(&m)
}

impl ArchiveSection {
    /// Create a section (computes the checksum).
    pub fn new(name: &str, data: Bytes) -> ArchiveSection {
        ArchiveSection {
            name: name.to_string(),
            checksum: fnv64(&data),
            data,
        }
    }

    /// True when the contents still match the checksum.
    pub fn intact(&self) -> bool {
        fnv64(&self.data) == self.checksum
    }
}

/// Archive failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ArchiveError {
    /// A required section is absent.
    MissingSection(String),
    /// A section's checksum no longer matches (bit rot / tampering).
    CorruptSection(String),
    /// The binary container could not be decoded.
    Malformed(String),
    /// The container version is not supported.
    UnsupportedVersion(u16),
    /// Packaging failed.
    Packaging(String),
    /// The storage backend under [`PreservationArchive::store`] /
    /// [`PreservationArchive::open`] failed.
    Storage(String),
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::MissingSection(s) => write!(f, "missing archive section '{s}'"),
            ArchiveError::CorruptSection(s) => write!(f, "archive section '{s}' is corrupt"),
            ArchiveError::Malformed(msg) => write!(f, "malformed archive: {msg}"),
            ArchiveError::UnsupportedVersion(v) => {
                write!(f, "unsupported archive version {v}")
            }
            ArchiveError::Packaging(msg) => write!(f, "packaging failed: {msg}"),
            ArchiveError::Storage(msg) => write!(f, "archive storage failed: {msg}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

/// The preservation archive.
#[derive(Debug, Clone, PartialEq)]
pub struct PreservationArchive {
    /// Human name of the archive.
    pub name: String,
    /// Container version.
    pub version: u16,
    /// Named sections.
    pub sections: BTreeMap<String, ArchiveSection>,
}

/// Builder for a [`PreservationArchive`]: start from
/// [`PreservationArchive::builder`], capture a production run and/or add
/// individual sections, then [`build`](ArchiveBuilder::build).
///
/// ```no_run
/// # use daspos::archive::PreservationArchive;
/// # use daspos::workflow::{ExecutionContext, PreservedWorkflow};
/// # use daspos::runner::ExecOptions;
/// # use daspos_detsim::Experiment;
/// # use bytes::Bytes;
/// let wf = PreservedWorkflow::standard_z(Experiment::Cms, 2, 10);
/// let ctx = ExecutionContext::fresh(&wf);
/// let out = wf.execute(&ctx, &ExecOptions::default()).unwrap();
/// let archive = PreservationArchive::builder("run-2014")
///     .production(&wf, &ctx, &out)
///     .unwrap()
///     .section("notes", Bytes::from_static(b"golden run"))
///     .build();
/// ```
#[derive(Debug, Clone)]
pub struct ArchiveBuilder {
    name: String,
    sections: BTreeMap<String, ArchiveSection>,
}

impl ArchiveBuilder {
    /// Capture a finished production run: writes the six canonical
    /// sections (workflow, conditions, provenance, software, results,
    /// metadata) from the workflow and its execution.
    pub fn production(
        mut self,
        workflow: &PreservedWorkflow,
        ctx: &ExecutionContext,
        output: &ProductionOutput,
    ) -> Result<ArchiveBuilder, ArchiveError> {
        let snapshot = Snapshot::capture(&ctx.conditions, &workflow.conditions_tag)
            .map_err(|e| ArchiveError::Packaging(e.to_string()))?;
        let experiment = workflow.experiment.name();
        let interview = presets::interview_for(experiment);
        let maturity =
            MaturityReport::assess(&interview, PolicyStatus::report_2014(experiment));
        let metadata_text = format!(
            "experiment {experiment}\nmaturity data-management {}\nmaturity description {}\nmaturity preservation {}\nmaturity sharing {}\n",
            maturity.data_management, maturity.description, maturity.preservation, maturity.sharing
        );
        for (section, text) in [
            (sections::WORKFLOW, workflow.to_text()),
            (sections::CONDITIONS, snapshot.to_text()),
            (sections::PROVENANCE, prov_text::to_text(&ctx.provenance)),
            (sections::SOFTWARE, ctx.software.render()),
            (sections::RESULTS, output.results_to_text()),
            (sections::METADATA, metadata_text),
        ] {
            self.sections
                .insert(section.to_string(), ArchiveSection::new(section, Bytes::from(text)));
        }
        Ok(self)
    }

    /// Add (or replace) one section.
    pub fn section(mut self, name: &str, data: Bytes) -> ArchiveBuilder {
        self.sections
            .insert(name.to_string(), ArchiveSection::new(name, data));
        self
    }

    /// Add (or replace) one text section.
    pub fn section_text(self, name: &str, text: &str) -> ArchiveBuilder {
        self.section(name, Bytes::from(text.to_string()))
    }

    /// Finish the archive at the current container version.
    pub fn build(self) -> PreservationArchive {
        PreservationArchive {
            name: self.name,
            version: ARCHIVE_VERSION,
            sections: self.sections,
        }
    }
}

impl PreservationArchive {
    /// Start building an archive with the given human name.
    pub fn builder(name: impl Into<String>) -> ArchiveBuilder {
        ArchiveBuilder {
            name: name.into(),
            sections: BTreeMap::new(),
        }
    }

    /// Serialize the container and store it on a [`StorageBackend`]
    /// under `key` — the write half of the storage surface shared with
    /// the preservation vault.
    pub fn store(&self, backend: &dyn StorageBackend, key: &str) -> Result<(), ArchiveError> {
        backend
            .put(key, &self.to_bytes())
            .map_err(|e| ArchiveError::Storage(e.to_string()))
    }

    /// Read a container back from a [`StorageBackend`], verifying the
    /// manifest digest and every section checksum.
    pub fn open(
        backend: &dyn StorageBackend,
        key: &str,
    ) -> Result<PreservationArchive, ArchiveError> {
        let raw = backend
            .get(key)
            .map_err(|e| ArchiveError::Storage(e.to_string()))?;
        let archive = PreservationArchive::from_bytes(&raw)?;
        archive.verify_integrity()?;
        Ok(archive)
    }

    /// Insert (or replace) a section.
    pub fn insert(&mut self, name: &str, data: Bytes) {
        self.sections
            .insert(name.to_string(), ArchiveSection::new(name, data));
    }

    /// Fetch a section's contents, verifying its checksum.
    pub fn section(&self, name: &str) -> Result<&Bytes, ArchiveError> {
        let s = self
            .sections
            .get(name)
            .ok_or_else(|| ArchiveError::MissingSection(name.to_string()))?;
        if !s.intact() {
            return Err(ArchiveError::CorruptSection(name.to_string()));
        }
        Ok(&s.data)
    }

    /// Fetch a section as UTF-8 text.
    pub fn section_text(&self, name: &str) -> Result<&str, ArchiveError> {
        std::str::from_utf8(self.section(name)?)
            .map_err(|_| ArchiveError::CorruptSection(name.to_string()))
    }

    /// The archived software stack.
    pub fn software(&self) -> Result<SoftwareStack, ArchiveError> {
        SoftwareStack::parse(self.section_text(sections::SOFTWARE)?)
            .ok_or_else(|| ArchiveError::CorruptSection(sections::SOFTWARE.to_string()))
    }

    /// Replace the archived software stack (a migration rebuild).
    pub fn set_software(&mut self, stack: &SoftwareStack) {
        self.insert(sections::SOFTWARE, Bytes::from(stack.render()));
    }

    /// Verify every section's integrity.
    pub fn verify_integrity(&self) -> Result<(), ArchiveError> {
        for (name, s) in &self.sections {
            if !s.intact() {
                return Err(ArchiveError::CorruptSection(name.clone()));
            }
        }
        Ok(())
    }

    /// Total archived bytes.
    pub fn byte_size(&self) -> usize {
        self.sections.values().map(|s| s.data.len()).sum()
    }

    /// Serialize the container to its binary form.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(self.version);
        buf.put_u64_le(manifest_digest(&self.name, &self.sections));
        let name = self.name.as_bytes();
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name);
        buf.put_u32_le(self.sections.len() as u32);
        for s in self.sections.values() {
            let sec_name = s.name.as_bytes();
            buf.put_u32_le(sec_name.len() as u32);
            buf.put_slice(sec_name);
            buf.put_u64_le(s.checksum);
            buf.put_u32_le(s.data.len() as u32);
            buf.put_slice(&s.data);
        }
        buf.freeze()
    }

    /// Restore the container from its binary form. Checksums travel with
    /// the data, so corruption after serialization is still detected by
    /// [`PreservationArchive::verify_integrity`].
    pub fn from_bytes(data: &Bytes) -> Result<PreservationArchive, ArchiveError> {
        let mut b = data.clone();
        let need = |b: &Bytes, n: usize| -> Result<(), ArchiveError> {
            if b.remaining() < n {
                Err(ArchiveError::Malformed("truncated".to_string()))
            } else {
                Ok(())
            }
        };
        need(&b, 6)?;
        let mut magic = [0u8; 4];
        b.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(ArchiveError::Malformed("bad magic".to_string()));
        }
        let version = b.get_u16_le();
        if version != ARCHIVE_VERSION {
            return Err(ArchiveError::UnsupportedVersion(version));
        }
        need(&b, 8)?;
        let stored_manifest = b.get_u64_le();
        need(&b, 4)?;
        let name_len = b.get_u32_le() as usize;
        need(&b, name_len)?;
        let name_bytes = b.split_to(name_len);
        let name = std::str::from_utf8(&name_bytes)
            .map_err(|_| ArchiveError::Malformed("bad name utf-8".to_string()))?
            .to_string();
        need(&b, 4)?;
        let n_sections = b.get_u32_le();
        if n_sections > 10_000 {
            return Err(ArchiveError::Malformed("absurd section count".to_string()));
        }
        let mut sections = BTreeMap::new();
        for _ in 0..n_sections {
            need(&b, 4)?;
            let len = b.get_u32_le() as usize;
            need(&b, len)?;
            let sec_name_bytes = b.split_to(len);
            let sec_name = std::str::from_utf8(&sec_name_bytes)
                .map_err(|_| ArchiveError::Malformed("bad section name".to_string()))?
                .to_string();
            need(&b, 12)?;
            let checksum = b.get_u64_le();
            let data_len = b.get_u32_le() as usize;
            need(&b, data_len)?;
            let data = b.split_to(data_len);
            sections.insert(
                sec_name.clone(),
                ArchiveSection {
                    name: sec_name,
                    data,
                    checksum,
                },
            );
        }
        if b.has_remaining() {
            return Err(ArchiveError::Malformed("trailing bytes".to_string()));
        }
        // A duplicate section name in the stream collapses in the map and
        // changes the recomputed count, so it fails this check too.
        let actual_manifest = manifest_digest(&name, &sections);
        if actual_manifest != stored_manifest {
            return Err(ArchiveError::Malformed(format!(
                "manifest digest mismatch: container says {stored_manifest:016x}, \
                 contents hash to {actual_manifest:016x}"
            )));
        }
        Ok(PreservationArchive {
            name,
            version,
            sections,
        })
    }
}

/// Deep vault verifier for [`ObjectKind::Container`]: the payload must
/// parse as a `.dpar` container (manifest digest intact) and pass every
/// per-section checksum. Register it on a vault that stores containers:
///
/// ```no_run
/// # use std::sync::Arc;
/// # use daspos::archive::ContainerVerifier;
/// # use daspos::vault::{MemoryBackend, StorageBackend, Vault};
/// let vault = Vault::builder()
///     .backends(vec![Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>])
///     .verifier(Arc::new(ContainerVerifier))
///     .build()
///     .unwrap();
/// ```
pub struct ContainerVerifier;

impl Verifier for ContainerVerifier {
    fn kind(&self) -> ObjectKind {
        ObjectKind::Container
    }

    fn verify(&self, payload: &Bytes) -> Result<(), String> {
        let archive = PreservationArchive::from_bytes(payload).map_err(|e| e.to_string())?;
        archive.verify_integrity().map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daspos_detsim::Experiment;

    fn sample_archive() -> PreservationArchive {
        let wf = PreservedWorkflow::standard_z(Experiment::Cms, 3, 30);
        let ctx = ExecutionContext::fresh(&wf);
        let out = wf.execute(&ctx, &crate::runner::ExecOptions::default()).expect("executes");
        PreservationArchive::builder("sample")
            .production(&wf, &ctx, &out)
            .expect("packages")
            .build()
    }

    #[test]
    fn builder_extra_sections_and_text() {
        let a = PreservationArchive::builder("custom")
            .section("blob", Bytes::from_static(b"\x00\x01"))
            .section_text("notes", "hello")
            .build();
        assert_eq!(a.version, ARCHIVE_VERSION);
        assert_eq!(a.section_text("notes").unwrap(), "hello");
        assert_eq!(a.section("blob").unwrap(), &Bytes::from_static(b"\x00\x01"));
    }

    #[test]
    fn store_and_open_round_trip_through_a_backend() {
        use daspos_vault::MemoryBackend;
        let a = sample_archive();
        let backend = MemoryBackend::new();
        a.store(&backend, "sample.dpar").unwrap();
        let back = PreservationArchive::open(&backend, "sample.dpar").unwrap();
        assert_eq!(back, a);
        assert!(matches!(
            PreservationArchive::open(&backend, "missing.dpar"),
            Err(ArchiveError::Storage(_))
        ));
    }

    #[test]
    fn open_rejects_a_rotted_container() {
        use daspos_vault::{MemoryBackend, StorageBackend as _};
        let a = sample_archive();
        let backend = MemoryBackend::new();
        a.store(&backend, "sample.dpar").unwrap();
        let mut raw = backend.get("sample.dpar").unwrap().to_vec();
        let n = raw.len();
        raw[n - 3] ^= 0xFF;
        backend.put("sample.dpar", &Bytes::from(raw)).unwrap();
        assert!(PreservationArchive::open(&backend, "sample.dpar").is_err());
    }

    #[test]
    fn container_verifier_accepts_archives_and_rejects_rot() {
        let a = sample_archive();
        let v = ContainerVerifier;
        let bytes = a.to_bytes();
        v.verify(&bytes).unwrap();
        let mut raw = bytes.to_vec();
        let n = raw.len();
        raw[n - 3] ^= 0xFF;
        assert!(v.verify(&Bytes::from(raw)).is_err());
        assert!(v.verify(&Bytes::from_static(b"not a container")).is_err());
    }

    #[test]
    fn package_creates_all_sections() {
        let a = sample_archive();
        for s in [
            sections::WORKFLOW,
            sections::CONDITIONS,
            sections::PROVENANCE,
            sections::SOFTWARE,
            sections::RESULTS,
            sections::METADATA,
        ] {
            assert!(a.section(s).is_ok(), "missing {s}");
        }
        assert!(a.verify_integrity().is_ok());
        assert!(a.byte_size() > 500);
    }

    #[test]
    fn binary_round_trip() {
        let a = sample_archive();
        let bytes = a.to_bytes();
        let back = PreservationArchive::from_bytes(&bytes).unwrap();
        assert_eq!(back, a);
        assert!(back.verify_integrity().is_ok());
    }

    #[test]
    fn corruption_is_detected() {
        let a = sample_archive();
        let mut raw = a.to_bytes().to_vec();
        // Flip a byte near the end (inside the last section's data).
        let n = raw.len();
        raw[n - 3] ^= 0xFF;
        let tampered = PreservationArchive::from_bytes(&Bytes::from(raw)).unwrap();
        assert!(matches!(
            tampered.verify_integrity(),
            Err(ArchiveError::CorruptSection(_))
        ));
    }

    #[test]
    fn manifest_digest_catches_name_and_checksum_tampering() {
        let a = sample_archive();
        let bytes = a.to_bytes().to_vec();
        // The archive name sits after magic + version + manifest digest +
        // name length: flip its first byte.
        let name_off = 4 + 2 + 8 + 4;
        assert_eq!(&bytes[name_off..name_off + 6], b"sample");
        let mut tampered = bytes.clone();
        tampered[name_off] = b'Z';
        assert!(matches!(
            PreservationArchive::from_bytes(&Bytes::from(tampered)),
            Err(ArchiveError::Malformed(_))
        ));
        // The first section's name ("adl"/"conditions"… BTreeMap order —
        // here "conditions") follows the section count.
        let sec_name_off = name_off + a.name.len() + 4 + 4;
        let first = a.sections.keys().next().unwrap().as_bytes();
        assert_eq!(&bytes[sec_name_off..sec_name_off + first.len()], first);
        let mut tampered = bytes.clone();
        tampered[sec_name_off] ^= 0x01;
        assert!(matches!(
            PreservationArchive::from_bytes(&Bytes::from(tampered)),
            Err(ArchiveError::Malformed(_))
        ));
        // A flipped bit in the stored checksum field is caught too (it
        // would otherwise make the pristine section look corrupt).
        let checksum_off = sec_name_off + first.len();
        let mut tampered = bytes.clone();
        tampered[checksum_off] ^= 0x80;
        assert!(matches!(
            PreservationArchive::from_bytes(&Bytes::from(tampered)),
            Err(ArchiveError::Malformed(_))
        ));
        // And the stored manifest digest itself cannot be flipped.
        let mut tampered = bytes;
        tampered[6] ^= 0x01;
        assert!(matches!(
            PreservationArchive::from_bytes(&Bytes::from(tampered)),
            Err(ArchiveError::Malformed(_))
        ));
    }

    #[test]
    fn missing_section_reported() {
        let a = sample_archive();
        assert!(matches!(
            a.section("nonexistent"),
            Err(ArchiveError::MissingSection(_))
        ));
    }

    #[test]
    fn malformed_container_rejected() {
        assert!(PreservationArchive::from_bytes(&Bytes::from_static(b"junk")).is_err());
        let a = sample_archive();
        let bytes = a.to_bytes();
        let truncated = bytes.slice(0..bytes.len() / 2);
        assert!(PreservationArchive::from_bytes(&truncated).is_err());
    }

    #[test]
    fn future_version_rejected() {
        let a = sample_archive();
        let mut raw = a.to_bytes().to_vec();
        raw[4] = 9; // version low byte
        assert!(matches!(
            PreservationArchive::from_bytes(&Bytes::from(raw)),
            Err(ArchiveError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn software_section_parses() {
        let a = sample_archive();
        let stack = a.software().unwrap();
        assert!(stack.packages.iter().any(|p| p.name == "daspos-reco"));
    }

    #[test]
    fn metadata_section_has_maturity_lines() {
        let a = sample_archive();
        let text = a.section_text(sections::METADATA).unwrap();
        assert!(text.contains("experiment cms"));
        assert!(text.contains("maturity preservation"));
    }
}
