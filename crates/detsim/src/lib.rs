//! # daspos-detsim — parameterized detector simulation
//!
//! The substitute for the four LHC detectors (DESIGN.md substitution
//! table). Each experiment in the report's Table 1 becomes a
//! [`config::DetectorConfig`] — same simulation code, different acceptance,
//! resolution and subsystem parameters — so the cross-experiment variance
//! the report catalogues (outreach formats, masterclass physics, workflow
//! details) is reproduced by configuration, not by forked code.
//!
//! The simulation consumes [`daspos_hep::TruthEvent`]s and produces
//! [`raw::RawEvent`]s: tracker hits, calorimeter cells and muon-station
//! hits, with per-subsystem efficiencies, Gaussian position/energy
//! smearing, noise, and calibration scales resolved from the conditions
//! database — establishing the external dependency that experiment W2
//! measures.

pub mod config;
pub mod raw;
pub mod simulate;

#[cfg(test)]
mod oracle;

pub use config::{CaloConfig, DetectorConfig, Experiment, MuonConfig, TrackerConfig};
pub use raw::{CaloCell, MuonHit, RawEvent, TrackerHit};
pub use simulate::DetectorSimulation;
