//! The Data/Software Interview Template (Appendix A) as typed data.

/// How data organization is documented (Appendix A Q6A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Documentation {
    /// No documentation exists.
    None,
    /// Transient pages (wikis, tutorials) — the report notes outreach
    /// analyses live here and calls it improper curation (§2.2).
    TransientWeb,
    /// A maintained codebook or data dictionary.
    Codebook,
    /// Self-documenting formats plus a maintained dictionary.
    SelfDocumenting,
}

/// One stage of the data lifecycle (Appendix A Q2).
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleStage {
    /// Stage name: `"collection"`, `"reconstruction"`, `"analysis"`, …
    pub name: String,
    /// Files at this stage.
    pub n_files: u64,
    /// Total bytes at this stage.
    pub bytes: u64,
    /// File format names used at this stage.
    pub formats: Vec<String>,
    /// Software packages (rendered versions) required to read the stage.
    pub software: Vec<String>,
    /// Whether those package versions are pinned/documented (Q5.6B).
    pub versions_documented: bool,
}

/// Storage, backup and disaster recovery practice (Appendix A Q5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoragePractice {
    /// Number of backup copies kept (0 = none).
    pub backup_copies: u32,
    /// A written disaster-recovery plan exists.
    pub recovery_plan: bool,
    /// The plan comes with implementation procedures.
    pub recovery_procedures: bool,
    /// The plan is routinely tested.
    pub recovery_tested: bool,
    /// A succession plan (alternative data centre) exists.
    pub succession_plan: bool,
    /// The funding agency requires a data management plan.
    pub dmp_required: bool,
}

/// Data organization and description (Appendix A Q6).
#[derive(Debug, Clone, PartialEq)]
pub struct DataOrganization {
    /// How the organization is documented.
    pub documentation: Documentation,
    /// Standard field-wide formats are used at every lifecycle stage.
    pub standard_formats_everywhere: bool,
    /// Insiders can use the data from the documentation alone.
    pub usable_inside: bool,
    /// Outsiders can use the data from the documentation alone.
    pub usable_outside: bool,
    /// Metadata practices are uniform (vs per-individual).
    pub uniform_practice: bool,
}

/// Software organization (Appendix A Q7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftwareOrganization {
    /// Code lives in controlled repositories.
    pub version_controlled: bool,
    /// Production releases are tagged.
    pub tagged_releases: bool,
    /// The mapping from lifecycle stage to release is recorded.
    pub stage_versions_recorded: bool,
}

/// Curation and preservation intent (Appendix A Q8).
#[derive(Debug, Clone, PartialEq)]
pub struct CurationIntent {
    /// Tiers selected for preservation (names).
    pub preserved_tiers: Vec<String>,
    /// Expected useful lifetime in years.
    pub useful_years: u32,
    /// The generation process is documented and reproducible (Q8D) —
    /// i.e. a validated re-run exists.
    pub reproducible: bool,
    /// A repository/infrastructure is in place for the preserved data.
    pub repository_in_place: bool,
}

/// The complete interview for one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DataInterview {
    /// The experiment answering.
    pub experiment: String,
    /// Free-text description of the data (Q1A).
    pub description: String,
    /// Lifecycle stages in processing order (Q2).
    pub lifecycle: Vec<LifecycleStage>,
    /// Storage and recovery practice (Q5).
    pub storage: StoragePractice,
    /// Data organization (Q6).
    pub organization: DataOrganization,
    /// Software organization (Q7).
    pub software: SoftwareOrganization,
    /// Curation intent (Q8).
    pub curation: CurationIntent,
}

impl DataInterview {
    /// Total bytes over the whole lifecycle.
    pub fn total_bytes(&self) -> u64 {
        self.lifecycle.iter().map(|s| s.bytes).sum()
    }

    /// Size reduction factor from the first lifecycle stage to the last.
    /// The report's Q2 example shows exactly this shrinkage.
    pub fn lifecycle_reduction(&self) -> Option<f64> {
        let first = self.lifecycle.first()?;
        let last = self.lifecycle.last()?;
        if last.bytes == 0 {
            return None;
        }
        Some(first.bytes as f64 / last.bytes as f64)
    }

    /// Distinct formats used anywhere in the lifecycle — the format
    /// multiplicity Table 1 catalogues.
    pub fn distinct_formats(&self) -> Vec<String> {
        let mut formats: Vec<String> = self
            .lifecycle
            .iter()
            .flat_map(|s| s.formats.iter().cloned())
            .collect();
        formats.sort();
        formats.dedup();
        formats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &str, bytes: u64, documented: bool) -> LifecycleStage {
        LifecycleStage {
            name: name.to_string(),
            n_files: 10,
            bytes,
            formats: vec![format!("{name}-fmt")],
            software: vec!["daspos-1.0.0".to_string()],
            versions_documented: documented,
        }
    }

    fn interview() -> DataInterview {
        DataInterview {
            experiment: "atlas".to_string(),
            description: "synthetic collision data".to_string(),
            lifecycle: vec![
                stage("raw", 1_000_000, true),
                stage("aod", 100_000, true),
                stage("ntuple", 1_000, false),
            ],
            storage: StoragePractice {
                backup_copies: 2,
                recovery_plan: true,
                recovery_procedures: true,
                recovery_tested: false,
                succession_plan: false,
                dmp_required: true,
            },
            organization: DataOrganization {
                documentation: Documentation::Codebook,
                standard_formats_everywhere: false,
                usable_inside: true,
                usable_outside: false,
                uniform_practice: true,
            },
            software: SoftwareOrganization {
                version_controlled: true,
                tagged_releases: true,
                stage_versions_recorded: true,
            },
            curation: CurationIntent {
                preserved_tiers: vec!["aod".to_string()],
                useful_years: 10,
                reproducible: false,
                repository_in_place: true,
            },
        }
    }

    #[test]
    fn totals_and_reduction() {
        let iv = interview();
        assert_eq!(iv.total_bytes(), 1_101_000);
        assert!((iv.lifecycle_reduction().unwrap() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_lifecycle_has_no_reduction() {
        let mut iv = interview();
        iv.lifecycle.clear();
        assert!(iv.lifecycle_reduction().is_none());
    }

    #[test]
    fn zero_final_stage_has_no_reduction() {
        let mut iv = interview();
        iv.lifecycle.last_mut().unwrap().bytes = 0;
        assert!(iv.lifecycle_reduction().is_none());
    }

    #[test]
    fn distinct_formats_dedup() {
        let mut iv = interview();
        iv.lifecycle[1].formats.push("raw-fmt".to_string());
        let formats = iv.distinct_formats();
        assert_eq!(formats.len(), 3);
    }

    #[test]
    fn documentation_is_ordered() {
        assert!(Documentation::None < Documentation::TransientWeb);
        assert!(Documentation::TransientWeb < Documentation::Codebook);
        assert!(Documentation::Codebook < Documentation::SelfDocumenting);
    }
}
