//! The analysis registry: the "RIVET distribution".
//!
//! *"Once validated, the analysis 'code' can be included in the RIVET
//! distribution, allowing anyone to reproduce the results of the analysis
//! using independent Monte Carlo generation."* The registry holds those
//! analyses, keyed by their metadata.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};

use crate::analysis::{Analysis, AnalysisMetadata};

/// A thread-safe registry of preserved analyses.
#[derive(Default)]
pub struct AnalysisRegistry {
    analyses: RwLock<BTreeMap<String, Arc<dyn Analysis>>>,
}

impl AnalysisRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        AnalysisRegistry::default()
    }

    /// A registry pre-loaded with every shipped analysis.
    pub fn with_builtin() -> Self {
        let r = AnalysisRegistry::new();
        crate::analyses::register_all(&r);
        r
    }

    /// Register an analysis under its metadata key. Re-registering a key
    /// replaces the entry (a new analysis version).
    pub fn register(&self, analysis: Box<dyn Analysis>) {
        let key = analysis.metadata().key;
        let mut analyses = self.analyses.write().unwrap_or_else(PoisonError::into_inner);
        analyses.insert(key, Arc::from(analysis));
    }

    /// Look up an analysis by key.
    pub fn get(&self, key: &str) -> Option<Arc<dyn Analysis>> {
        self.analyses.read().unwrap_or_else(PoisonError::into_inner).get(key).cloned()
    }

    /// Metadata of every registered analysis, ordered by key.
    pub fn list(&self) -> Vec<AnalysisMetadata> {
        self.analyses
            .read().unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|a| a.metadata())
            .collect()
    }

    /// Number of registered analyses.
    pub fn len(&self) -> usize {
        self.analyses.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when no analyses are registered.
    pub fn is_empty(&self) -> bool {
        self.analyses.read().unwrap_or_else(PoisonError::into_inner).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_all_six() {
        let r = AnalysisRegistry::with_builtin();
        assert_eq!(r.len(), 6);
        assert!(r.get("ZLL_2013_I0001").is_some());
        assert!(r.get("SEARCH_2013_I0006").is_some());
        assert!(r.get("NOPE").is_none());
        let keys: Vec<String> = r.list().into_iter().map(|m| m.key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted by key");
    }

    #[test]
    fn experiments_cover_all_four() {
        let r = AnalysisRegistry::with_builtin();
        let mut experiments: Vec<String> =
            r.list().into_iter().map(|m| m.experiment).collect();
        experiments.sort();
        experiments.dedup();
        assert_eq!(experiments, vec!["alice", "atlas", "cms", "lhcb"]);
    }

    #[test]
    fn reregistration_replaces() {
        use crate::analyses::DileptonSearch;
        let r = AnalysisRegistry::with_builtin();
        let before = r.len();
        r.register(Box::new(DileptonSearch {
            mass_threshold: 300.0,
        }));
        assert_eq!(r.len(), before);
    }
}
