//! `archive`: byte edits of the serialized `PreservationArchive`
//! container, and checksum-preserving forgeries of its RESULTS section
//! that only validation by re-execution can catch.

use daspos_provenance::Platform;

use super::*;
use crate::archive::ArchiveError;
use crate::validate::{ValidationReport, Validator};

/// The serialized container.
pub(super) struct Archive;

impl FaultClass for Archive {
    /// The edit, and whether it forges the RESULTS text (under honest
    /// checksums) instead of editing the container bytes.
    type Plan = (ByteEdit, bool);

    fn plan(&self, rng: &mut StdRng, fixture: &CampaignFixture) -> (MutationKind, Self::Plan) {
        // A ninth mutation kind beside the eight byte edits: the forgery,
        // whose edit is drawn over the results text.
        match rng.gen_range(0..9) {
            8 => {
                let sub = ByteEdit::sample(rng, &ArtifactShape::text(&fixture.results_text));
                (MutationKind::ForgeResults { sub }, (sub, true))
            }
            pick => {
                let shape = shape(&fixture.archive, &fixture.archive_bytes);
                let edit = ByteEdit::sample_kind(pick, rng, &shape);
                (MutationKind::Edit(edit), (edit, false))
            }
        }
    }

    fn check(
        &self,
        fixture: &CampaignFixture,
        &(edit, forged): &Self::Plan,
        cache: &mut RerunCache,
    ) -> Outcome {
        let mutated = if forged {
            // Re-insert through the archive API: every checksum and the
            // manifest digest are recomputed honestly.
            let mut forgery = fixture.archive.clone();
            let results = edit.apply(fixture.results_text.as_bytes());
            forgery.insert(sections::RESULTS, Bytes::from(results));
            forgery.to_bytes()
        } else {
            Bytes::from(edit.apply(&fixture.archive_bytes))
        };
        let parsed = match PreservationArchive::from_bytes(&mutated) {
            Err(e) => return Outcome::Detected(format!("container:{}", container_label(&e))),
            Ok(a) => a,
        };
        if parsed.verify_integrity().is_err() {
            return Outcome::Detected("section-checksum".to_string());
        }
        if parsed == fixture.archive {
            return Outcome::Harmless;
        }
        // The container parsed and every checksum verifies, yet the
        // content differs — a checksum-preserving forgery. Only
        // re-execution can judge it.
        match validate(&parsed, cache) {
            Ok(()) => {
                Outcome::Violation("altered archive validates as a clean reproduction".to_string())
            }
            Err(detected) => detected,
        }
    }
}

/// Validate `archive` by re-execution: `Ok` when it reproduces cleanly,
/// otherwise the detection labelled by the stage that failed.
pub(super) fn validate(
    archive: &PreservationArchive,
    cache: &mut RerunCache,
) -> Result<(), Outcome> {
    match Validator::new(&Platform::current())
        .with_cache(cache)
        .run(archive)
    {
        Err(e) => Err(Outcome::Detected(format!(
            "validate:{}",
            container_label(&e.into_archive_error())
        ))),
        Ok(report) if report.passed() => Ok(()),
        Ok(report) => Err(Outcome::Detected(validation_label(&report))),
    }
}

/// Boundaries of a serialized container: every section record start.
pub(super) fn shape(archive: &PreservationArchive, bytes: &Bytes) -> ArtifactShape {
    // magic(4) + version(2) + manifest(8) + name_len(4) + name + count(4).
    let mut off = 4 + 2 + 8 + 4 + archive.name.len() + 4;
    let mut boundaries = Vec::with_capacity(archive.sections.len());
    for s in archive.sections.values() {
        boundaries.push(off);
        off += 4 + s.name.len() + 8 + 4 + s.data.len();
    }
    debug_assert_eq!(off, bytes.len());
    ArtifactShape {
        len: bytes.len(),
        boundaries,
    }
}

fn container_label(e: &ArchiveError) -> &'static str {
    match e {
        ArchiveError::MissingSection(_) => "missing-section",
        ArchiveError::CorruptSection(_) => "corrupt-section",
        ArchiveError::Malformed(_) => "malformed",
        ArchiveError::UnsupportedVersion(_) => "version",
        ArchiveError::Packaging(_) => "packaging",
        ArchiveError::Storage(_) => "storage",
    }
}

fn validation_label(report: &ValidationReport) -> String {
    let stage = if !report.integrity_ok {
        "integrity"
    } else if !report.platform_ok {
        "platform"
    } else if !report.executed {
        "execute"
    } else {
        "not-reproduced"
    };
    format!("validate:{stage}")
}
