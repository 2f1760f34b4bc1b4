//! Cross-sections and luminosity accounting.
//!
//! Physics analyses convert event counts into cross-sections via the
//! integrated luminosity; RECAST limit setting (R3) inverts the relation
//! to predict signal yields from a model's cross-section. The toy values
//! here preserve the *hierarchy* of real LHC rates (QCD ≫ W ≫ Z ≫ H),
//! which is what drives the skim reduction factors in experiment W1.

use daspos_hep::event::ProcessKind;

/// Cross-section table in picobarns for the synthetic collider.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossSectionTable {
    entries: Vec<(ProcessKind, f64)>,
}

impl Default for CrossSectionTable {
    fn default() -> Self {
        CrossSectionTable {
            entries: vec![
                (ProcessKind::MinimumBias, 7.0e10),
                (ProcessKind::QcdDijet, 1.0e6),
                (ProcessKind::Charm, 3.0e5),
                (ProcessKind::Strange, 5.0e5),
                (ProcessKind::WBoson, 2.0e4),
                (ProcessKind::ZBoson, 6.0e3),
                (ProcessKind::Higgs, 50.0),
            ],
        }
    }
}

impl CrossSectionTable {
    /// An empty table (for fully custom mixes).
    pub fn empty() -> Self {
        CrossSectionTable {
            entries: Vec::new(),
        }
    }

    /// Set or replace a process cross-section (pb).
    pub fn set(&mut self, kind: ProcessKind, pb: f64) {
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == kind) {
            e.1 = pb;
        } else {
            self.entries.push((kind, pb));
        }
    }

    /// The cross-section of a process (pb), zero when absent.
    pub fn get(&self, kind: ProcessKind) -> f64 {
        self.entries
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, pb)| *pb)
            .unwrap_or(0.0)
    }

    /// Sum of all cross-sections (pb).
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|(_, pb)| pb).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_matches_reality() {
        let t = CrossSectionTable::default();
        assert!(t.get(ProcessKind::QcdDijet) > t.get(ProcessKind::WBoson));
        assert!(t.get(ProcessKind::WBoson) > t.get(ProcessKind::ZBoson));
        assert!(t.get(ProcessKind::ZBoson) > t.get(ProcessKind::Higgs));
    }

    #[test]
    fn set_and_get() {
        let mut t = CrossSectionTable::empty();
        assert_eq!(t.get(ProcessKind::Higgs), 0.0);
        t.set(ProcessKind::Higgs, 50.0);
        assert_eq!(t.get(ProcessKind::Higgs), 50.0);
        t.set(ProcessKind::Higgs, 55.0);
        assert_eq!(t.get(ProcessKind::Higgs), 55.0);
        assert_eq!(t.total(), 55.0);
    }
}
