//! The provenance graph.
//!
//! A bipartite DAG: **step** nodes (one execution of a processing stage,
//! with its full configuration) connect the **datasets** they consumed to
//! the datasets they produced. Acyclicity holds by construction — a step
//! may only consume datasets that already exist, and every dataset has at
//! most one producer.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::{PoisonError, RwLock};

use daspos_hep::ids::{DatasetId, IdAllocator, StepId};

use crate::software::SoftwareStack;

/// What kind of processing a step performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Monte Carlo generation.
    Generation,
    /// Detector simulation.
    Simulation,
    /// Reconstruction (RAW → RECO/AOD).
    Reconstruction,
    /// Skimming/slimming derivation.
    SkimSlim,
    /// Ntuple production.
    Ntupling,
    /// Final analysis execution.
    Analysis,
}

impl StepKind {
    /// Stable name for serialization.
    pub fn name(&self) -> &'static str {
        match self {
            StepKind::Generation => "generation",
            StepKind::Simulation => "simulation",
            StepKind::Reconstruction => "reconstruction",
            StepKind::SkimSlim => "skimslim",
            StepKind::Ntupling => "ntupling",
            StepKind::Analysis => "analysis",
        }
    }

    /// Inverse of [`StepKind::name`].
    pub fn parse(s: &str) -> Option<StepKind> {
        Some(match s {
            "generation" => StepKind::Generation,
            "simulation" => StepKind::Simulation,
            "reconstruction" => StepKind::Reconstruction,
            "skimslim" => StepKind::SkimSlim,
            "ntupling" => StepKind::Ntupling,
            "analysis" => StepKind::Analysis,
            _ => return None,
        })
    }
}

/// The full record of one processing-step execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Graph id of the step.
    pub id: StepId,
    /// What the step did.
    pub kind: StepKind,
    /// Human-readable configuration description (e.g. the generator
    /// config line, or a skim selection's text form).
    pub config: String,
    /// The software stack the step ran with.
    pub software: SoftwareStack,
    /// The conditions global tag used, when any.
    pub conditions_tag: Option<String>,
    /// The master seed, for stochastic stages.
    pub seed: Option<u64>,
    /// Datasets consumed.
    pub inputs: Vec<DatasetId>,
    /// Datasets produced.
    pub outputs: Vec<DatasetId>,
}

/// Provenance failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvenanceError {
    /// A step referenced an input dataset the graph has never seen.
    UnknownInput(DatasetId),
    /// A dataset was declared as output of two different steps.
    DuplicateProducer {
        /// The dataset with two producers.
        dataset: DatasetId,
        /// Its already-recorded producer.
        existing: StepId,
    },
    /// Query target does not exist in the graph.
    UnknownDataset(DatasetId),
}

impl fmt::Display for ProvenanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvenanceError::UnknownInput(d) => write!(f, "unknown input dataset {d}"),
            ProvenanceError::DuplicateProducer { dataset, existing } => {
                write!(f, "dataset {dataset} already produced by {existing}")
            }
            ProvenanceError::UnknownDataset(d) => write!(f, "dataset {d} not in graph"),
        }
    }
}

impl std::error::Error for ProvenanceError {}

/// A builder for step records.
#[derive(Debug, Clone)]
pub struct StepBuilder {
    kind: StepKind,
    config: String,
    software: SoftwareStack,
    conditions_tag: Option<String>,
    seed: Option<u64>,
    inputs: Vec<DatasetId>,
    outputs: Vec<DatasetId>,
}

impl StepBuilder {
    /// Start a record for a step of the given kind and configuration.
    pub fn new(kind: StepKind, config: impl Into<String>, software: SoftwareStack) -> Self {
        StepBuilder {
            kind,
            config: config.into(),
            software,
            conditions_tag: None,
            seed: None,
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Record the conditions tag used.
    pub fn conditions(mut self, tag: impl Into<String>) -> Self {
        self.conditions_tag = Some(tag.into());
        self
    }

    /// Record the master seed used.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Add an input dataset.
    pub fn input(mut self, ds: DatasetId) -> Self {
        self.inputs.push(ds);
        self
    }

    /// Add an output dataset.
    pub fn output(mut self, ds: DatasetId) -> Self {
        self.outputs.push(ds);
        self
    }
}

#[derive(Debug, Default)]
struct GraphInner {
    steps: BTreeMap<StepId, StepRecord>,
    /// dataset → producing step (at most one).
    producer: BTreeMap<DatasetId, StepId>,
    /// dataset → consuming steps.
    consumers: BTreeMap<DatasetId, Vec<StepId>>,
    /// every dataset ever mentioned.
    datasets: BTreeSet<DatasetId>,
    /// datasets force-referenced without provenance (orphan imports).
    orphan_marks: BTreeSet<DatasetId>,
}

/// The thread-safe provenance graph.
#[derive(Debug, Default)]
pub struct ProvenanceGraph {
    inner: RwLock<GraphInner>,
    step_ids: IdAllocator,
}

impl ProvenanceGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ProvenanceGraph::default()
    }

    /// Declare a dataset that enters the system without a recorded
    /// producer (real detector data, or an import with lost provenance).
    pub fn declare_root(&self, ds: DatasetId) {
        self.inner.write().unwrap_or_else(PoisonError::into_inner).datasets.insert(ds);
    }

    /// Record a step execution. Inputs must already exist; outputs must
    /// not already have a producer.
    pub fn record(&self, builder: StepBuilder) -> Result<StepId, ProvenanceError> {
        let mut g = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        for input in &builder.inputs {
            if !g.datasets.contains(input) {
                return Err(ProvenanceError::UnknownInput(*input));
            }
        }
        for output in &builder.outputs {
            if let Some(existing) = g.producer.get(output) {
                return Err(ProvenanceError::DuplicateProducer {
                    dataset: *output,
                    existing: *existing,
                });
            }
        }
        let id = StepId(self.step_ids.allocate());
        for input in &builder.inputs {
            g.consumers.entry(*input).or_default().push(id);
        }
        for output in &builder.outputs {
            g.producer.insert(*output, id);
            g.datasets.insert(*output);
        }
        g.steps.insert(
            id,
            StepRecord {
                id,
                kind: builder.kind,
                config: builder.config,
                software: builder.software,
                conditions_tag: builder.conditions_tag,
                seed: builder.seed,
                inputs: builder.inputs,
                outputs: builder.outputs,
            },
        );
        Ok(id)
    }

    /// Full lineage of a dataset: every ancestor step, ordered from the
    /// dataset's producer back to the roots.
    pub fn lineage(&self, ds: DatasetId) -> Result<Vec<StepRecord>, ProvenanceError> {
        let g = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        if !g.datasets.contains(&ds) {
            return Err(ProvenanceError::UnknownDataset(ds));
        }
        let mut out = Vec::new();
        let mut seen_steps = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(ds);
        while let Some(d) = queue.pop_front() {
            if let Some(step_id) = g.producer.get(&d) {
                if seen_steps.insert(*step_id) {
                    let step = &g.steps[step_id];
                    out.push(step.clone());
                    for input in &step.inputs {
                        queue.push_back(*input);
                    }
                }
            }
        }
        Ok(out)
    }

    /// All datasets derived (transitively) from `ds`.
    pub fn descendants(&self, ds: DatasetId) -> Result<Vec<DatasetId>, ProvenanceError> {
        let g = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        if !g.datasets.contains(&ds) {
            return Err(ProvenanceError::UnknownDataset(ds));
        }
        let mut out = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(ds);
        while let Some(d) = queue.pop_front() {
            for step_id in g.consumers.get(&d).into_iter().flatten() {
                for output in &g.steps[step_id].outputs {
                    if out.insert(*output) {
                        queue.push_back(*output);
                    }
                }
            }
        }
        Ok(out.into_iter().collect())
    }

    /// Datasets with no recorded producer that are NOT declared roots:
    /// the "parentage … may not be included" failure the report warns of.
    /// A dataset becomes an orphan when it is referenced as a step input
    /// via [`ProvenanceGraph::reference_unchecked`].
    pub fn orphans(&self) -> Vec<DatasetId> {
        let g = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        g.datasets
            .iter()
            .filter(|d| !g.producer.contains_key(d) && !g.roots_contains(d))
            .copied()
            .collect()
    }

    /// Force-register a dataset reference without provenance (simulates a
    /// processing system that does not record parentage).
    pub fn reference_unchecked(&self, ds: DatasetId) {
        let mut g = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        g.datasets.insert(ds);
        g.orphan_marks.insert(ds);
    }

    /// Completeness: the fraction of known datasets whose lineage reaches
    /// only declared roots or recorded producers (i.e. not orphans).
    pub fn completeness(&self) -> f64 {
        let g = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let total = g.datasets.len();
        if total == 0 {
            return 1.0;
        }
        let orphaned = g
            .datasets
            .iter()
            .filter(|d| !g.producer.contains_key(d) && !g.roots_contains(d))
            .count();
        (total - orphaned) as f64 / total as f64
    }

    /// Number of recorded steps.
    pub fn step_count(&self) -> usize {
        self.inner.read().unwrap_or_else(PoisonError::into_inner).steps.len()
    }

    /// Number of known datasets.
    pub fn dataset_count(&self) -> usize {
        self.inner.read().unwrap_or_else(PoisonError::into_inner).datasets.len()
    }

    /// Every recorded step, ordered by id.
    pub fn all_steps(&self) -> Vec<StepRecord> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner).steps.values().cloned().collect()
    }

    /// Declared roots (datasets allowed to have no producer).
    pub fn roots(&self) -> Vec<DatasetId> {
        let g = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        g.datasets
            .iter()
            .filter(|d| !g.producer.contains_key(d) && g.roots_contains(d))
            .copied()
            .collect()
    }
}

impl GraphInner {
    /// A dataset counts as a root when it was declared via `declare_root`
    /// (i.e. it is known but was never force-marked as an orphan import).
    fn roots_contains(&self, ds: &DatasetId) -> bool {
        self.datasets.contains(ds) && !self.orphan_marks.contains(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::software::SoftwareVersion;

    fn stack() -> SoftwareStack {
        SoftwareStack::on_current(vec![SoftwareVersion::new("daspos", 1, 0, 0)])
    }

    fn graph_with_chain() -> (ProvenanceGraph, DatasetId, DatasetId, DatasetId) {
        let g = ProvenanceGraph::new();
        let raw = DatasetId(1);
        let aod = DatasetId(2);
        let ntup = DatasetId(3);
        g.declare_root(raw);
        g.record(
            StepBuilder::new(StepKind::Reconstruction, "reco(atlas)", stack())
                .conditions("data-2013")
                .input(raw)
                .output(aod),
        )
        .unwrap();
        g.record(
            StepBuilder::new(StepKind::Ntupling, "schema:met,m_ll", stack())
                .input(aod)
                .output(ntup),
        )
        .unwrap();
        (g, raw, aod, ntup)
    }

    #[test]
    fn lineage_walks_to_root() {
        let (g, _raw, aod, ntup) = graph_with_chain();
        let lineage = g.lineage(ntup).unwrap();
        assert_eq!(lineage.len(), 2);
        assert_eq!(lineage[0].kind, StepKind::Ntupling);
        assert_eq!(lineage[1].kind, StepKind::Reconstruction);
        assert_eq!(lineage[1].conditions_tag.as_deref(), Some("data-2013"));
        assert_eq!(g.lineage(aod).unwrap().len(), 1);
    }

    #[test]
    fn descendants_walk_forward() {
        let (g, raw, aod, ntup) = graph_with_chain();
        let desc = g.descendants(raw).unwrap();
        assert_eq!(desc, vec![aod, ntup]);
        assert!(g.descendants(ntup).unwrap().is_empty());
    }

    #[test]
    fn unknown_input_rejected() {
        let g = ProvenanceGraph::new();
        let err = g
            .record(
                StepBuilder::new(StepKind::Analysis, "x", stack())
                    .input(DatasetId(42))
                    .output(DatasetId(43)),
            )
            .unwrap_err();
        assert_eq!(err, ProvenanceError::UnknownInput(DatasetId(42)));
    }

    #[test]
    fn duplicate_producer_rejected() {
        let g = ProvenanceGraph::new();
        g.declare_root(DatasetId(1));
        g.record(
            StepBuilder::new(StepKind::Reconstruction, "a", stack())
                .input(DatasetId(1))
                .output(DatasetId(2)),
        )
        .unwrap();
        let err = g
            .record(
                StepBuilder::new(StepKind::Reconstruction, "b", stack())
                    .input(DatasetId(1))
                    .output(DatasetId(2)),
            )
            .unwrap_err();
        assert!(matches!(err, ProvenanceError::DuplicateProducer { .. }));
    }

    #[test]
    fn orphans_and_completeness() {
        let (g, ..) = graph_with_chain();
        assert!(g.orphans().is_empty());
        assert_eq!(g.completeness(), 1.0);
        // An import without parentage appears.
        g.reference_unchecked(DatasetId(99));
        assert_eq!(g.orphans(), vec![DatasetId(99)]);
        assert!((g.completeness() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn roots_listed() {
        let (g, raw, ..) = graph_with_chain();
        assert_eq!(g.roots(), vec![raw]);
    }

    #[test]
    fn unknown_dataset_queries_error() {
        let g = ProvenanceGraph::new();
        assert!(g.lineage(DatasetId(7)).is_err());
        assert!(g.descendants(DatasetId(7)).is_err());
    }

    #[test]
    fn diamond_lineage_deduplicates_steps() {
        // raw → (stepA) → a; raw → (stepB) → b; a,b → (merge) → m.
        let g = ProvenanceGraph::new();
        let raw = DatasetId(1);
        g.declare_root(raw);
        g.record(
            StepBuilder::new(StepKind::SkimSlim, "a", stack())
                .input(raw)
                .output(DatasetId(2)),
        )
        .unwrap();
        g.record(
            StepBuilder::new(StepKind::SkimSlim, "b", stack())
                .input(raw)
                .output(DatasetId(3)),
        )
        .unwrap();
        g.record(
            StepBuilder::new(StepKind::Analysis, "merge", stack())
                .input(DatasetId(2))
                .input(DatasetId(3))
                .output(DatasetId(4)),
        )
        .unwrap();
        let lineage = g.lineage(DatasetId(4)).unwrap();
        assert_eq!(lineage.len(), 3);
        assert_eq!(g.step_count(), 3);
        assert_eq!(g.dataset_count(), 4);
    }

    #[test]
    fn concurrent_recording() {
        use std::sync::Arc;
        let g = Arc::new(ProvenanceGraph::new());
        for i in 0..8 {
            g.declare_root(DatasetId(i));
        }
        let mut handles = Vec::new();
        for t in 0u64..8 {
            let g = Arc::clone(&g);
            handles.push(std::thread::spawn(move || {
                for i in 0..20u64 {
                    g.record(
                        StepBuilder::new(StepKind::SkimSlim, format!("t{t}i{i}"),
                            SoftwareStack::on_current(vec![]))
                            .input(DatasetId(t))
                            .output(DatasetId(1000 + t * 100 + i)),
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().expect("worker panicked");
        }
        assert_eq!(g.step_count(), 160);
    }
}
