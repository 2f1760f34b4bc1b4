//! # daspos-hep — event data model and statistical primitives
//!
//! Foundation crate for the DASPOS preservation toolkit. Provides the
//! domain vocabulary every other crate builds on:
//!
//! * [`fourvec::FourVector`] — relativistic four-momentum algebra,
//! * [`particle`] — PDG particle identities and truth particles,
//! * [`event`] — the basic logical unit of HEP data: the *event*,
//! * [`stats`] — the random distributions and running statistics used by the
//!   synthetic generator and detector simulation,
//! * [`hist`] — weighted histograms, the lingua franca of HEP results,
//! * [`seq`] — deterministic seed derivation so every pipeline stage is
//!   reproducible from a single master seed (a preservation requirement),
//! * [`digest`] — FNV-1a 64, the one content digest every crate shares,
//! * [`json`] — the one JSON engine (outreach `ig` files, trace JSONL).
//!
//! The DASPOS report (§3.1) stresses that "all high energy physics studies
//! are statistical in nature, where ensembles of events are considered and
//! properties of the ensemble are measured". The types here are therefore
//! designed for cheap per-event construction and ensemble-level aggregation.

pub mod digest;
pub mod error;
pub mod event;
pub mod fourvec;
pub mod hist;
pub mod ids;
pub mod json;
pub mod particle;
pub mod seq;
pub mod stats;
pub mod units;

pub use error::HepError;
pub use event::{EventHeader, EventId, LumiBlockId, ProcessKind, RunId, TruthEvent};
pub use fourvec::FourVector;
pub use hist::{Hist1D, Hist2D};
pub use particle::{Charge, ParticleStatus, PdgId, TruthParticle};
pub use seq::SeedSequence;
