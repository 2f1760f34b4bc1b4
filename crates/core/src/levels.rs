//! The DPHEP preservation levels.
//!
//! The report works inside the DPHEP nomenclature: Level 2 is *"actual
//! data and simulation presented in higher-level simplified formats"*;
//! the workshop's goal (i) is to establish use cases *"especially for the
//! larger DPHEP data tiers"*.

use std::fmt;

/// The four DPHEP preservation levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DphepLevel {
    /// Level 1: documentation and publications only.
    Documentation,
    /// Level 2: data in simplified formats (outreach, RIVET inputs).
    SimplifiedFormats,
    /// Level 3: analysis-grade data and the software to use it.
    AnalysisData,
    /// Level 4: raw data and full reconstruction/simulation capability.
    FullCapability,
}

impl DphepLevel {
    /// Numeric level (1–4).
    pub fn number(&self) -> u8 {
        match self {
            DphepLevel::Documentation => 1,
            DphepLevel::SimplifiedFormats => 2,
            DphepLevel::AnalysisData => 3,
            DphepLevel::FullCapability => 4,
        }
    }

    /// The DPHEP description of the level.
    pub fn description(&self) -> &'static str {
        match self {
            DphepLevel::Documentation => {
                "publications, documentation and additional metadata"
            }
            DphepLevel::SimplifiedFormats => {
                "actual data and simulation presented in higher-level simplified formats"
            }
            DphepLevel::AnalysisData => {
                "analysis-level data plus the reconstruction and analysis software"
            }
            DphepLevel::FullCapability => {
                "raw data plus full simulation, reconstruction and processing capability"
            }
        }
    }

    /// All levels in increasing capability.
    pub fn all() -> [DphepLevel; 4] {
        [
            DphepLevel::Documentation,
            DphepLevel::SimplifiedFormats,
            DphepLevel::AnalysisData,
            DphepLevel::FullCapability,
        ]
    }
}

impl fmt::Display for DphepLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DPHEP level {}", self.number())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_capability() {
        assert!(DphepLevel::Documentation < DphepLevel::SimplifiedFormats);
        assert!(DphepLevel::SimplifiedFormats < DphepLevel::AnalysisData);
        assert!(DphepLevel::AnalysisData < DphepLevel::FullCapability);
    }

    #[test]
    fn level2_matches_report_wording() {
        assert!(DphepLevel::SimplifiedFormats
            .description()
            .contains("simplified formats"));
    }
}
