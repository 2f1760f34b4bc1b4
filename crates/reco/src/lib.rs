//! # daspos-reco — event reconstruction
//!
//! Implements the report's "Reconstruction" stage (§3.2): *"mainly the
//! application of pattern-recognition and local-maximum-finding algorithms
//! that convert the 'raw' binary data read out from the detector elements
//! into recognizable 'objects' (particle trajectories, clusters of energy
//! depositions in calorimeters, etc.). Further refinement … results in the
//! creation of 'candidate physics objects' (electrons, muons, particle
//! jets)."*
//!
//! The chain here is real, not a pass-through:
//!
//! * [`tracking`] — least-squares circle refit of the smeared tracker
//!   hits; momentum, charge, impact parameter and pseudorapidity are all
//!   *measured* from hit positions,
//! * [`clustering`] — connected-component calorimeter clustering with
//!   calibration constants resolved from the conditions database,
//! * [`identify`] — electron/photon/muon identification from
//!   track–cluster–muon-segment matching,
//! * [`jets`] — inclusive anti-kT jet clustering,
//! * [`vertexing`] — two-track vertexing by helix-circle intersection,
//!   feeding the V⁰ and D⁰ candidate lists the masterclasses analyze,
//! * [`processor`] — the orchestrating [`processor::RecoProcessor`] that
//!   produces the RECO and AOD tiers.

pub mod clustering;
pub mod identify;
pub mod jets;
pub mod objects;
#[cfg(test)]
mod oracle;
pub mod processor;
pub mod tracking;
pub mod vertexing;

pub use objects::{
    AodEvent, CaloCluster, Electron, Jet, Met, Muon, Photon, RecoEvent, Track, TwoProngCandidate,
};
pub use processor::RecoProcessor;
