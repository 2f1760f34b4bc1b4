//! # daspos — data and software preservation for open science
//!
//! The core crate of the DASPOS toolkit: everything below it (event
//! model, generator, detector simulation, reconstruction, data tiers,
//! conditions, provenance, metadata, RIVET-like and RECAST-like
//! frameworks, HepData-like repository, outreach formats) exists so this
//! crate can do its job — **preserve a complete analysis workflow and
//! prove, by re-execution, that it was preserved**.
//!
//! The workshop report this reproduces set three goals (§1.2): establish
//! use cases for archived data ([`usecases`]), define what data and
//! associated information supports them ([`workflow`], [`archive`]), and
//! identify the metadata needed to access archives ([`archive`] +
//! `daspos-metadata`). The toolkit closes the loop with [`validate`]
//! (re-run a preserved workflow and compare) and [`migrate`] (simulate
//! the platform transitions the report warns about). Every run can carry
//! the [`obs`] runtime-metadata layer: per-stage spans, deterministic
//! chain counters and a diffable JSONL trace.
//!
//! ## Quick start
//!
//! ```
//! use daspos::prelude::*;
//!
//! // Describe a workflow declaratively.
//! let workflow = PreservedWorkflow::standard_z(Experiment::Cms, 42, 200);
//! // Execute it: generate, simulate, reconstruct, skim, analyze.
//! let ctx = ExecutionContext::fresh(&workflow);
//! let production = workflow
//!     .execute(&ctx, &ExecOptions::default())
//!     .expect("production runs");
//! // Package the run into a self-contained archive...
//! let archive = PreservationArchive::builder("demo")
//!     .production(&workflow, &ctx, &production)
//!     .expect("packaging succeeds")
//!     .build();
//! // ...and prove it is preserved by re-running from the archive alone.
//! let report = Validator::new(&Platform::current())
//!     .run(&archive)
//!     .expect("validates");
//! assert!(report.reproduced);
//! ```

#[cfg(feature = "bench-alloc")]
pub mod alloc_counter;
pub mod archive;
pub mod error;
pub mod experiments;
pub mod faultlab;
pub mod levels;
pub mod migrate;
pub mod runner;
pub mod usecases;
pub mod validate;
pub mod workflow;

/// The observability layer (spans, collectors, metrics) — re-export of
/// the `daspos-obs` crate, so `daspos::obs::MemoryCollector` etc. work.
pub use daspos_obs as obs;

/// The replicated preservation vault (backends, scrubbing, repair) —
/// re-export of the `daspos-vault` crate, so `daspos::vault::Vault`
/// etc. work.
pub use daspos_vault as vault;

/// The multi-tenant preservation service daemon (framed protocol,
/// admission control, load generation) — re-export of the
/// `daspos-serve` crate, so `daspos::serve::Server` etc. work.
pub use daspos_serve as serve;

/// Convenient re-exports for downstream users.
pub mod prelude {
    pub use crate::archive::{
        ArchiveBuilder, ArchiveSection, ContainerVerifier, PreservationArchive,
    };
    pub use crate::error::{Error, ErrorKind};
    pub use crate::faultlab::{self, ArtifactClass, CampaignConfig, CampaignReport};
    pub use crate::levels::DphepLevel;
    pub use crate::migrate::Migrator;
    pub use crate::runner::ExecOptions;
    pub use crate::usecases::{Actor, UseCase};
    pub use crate::validate::{self, ValidationReport, Validator};
    pub use crate::workflow::{ExecutionContext, PreservedWorkflow, ProductionOutput};
    pub use daspos_detsim::Experiment;
    pub use daspos_obs::{
        MemoryCollector, MetricsRegistry, Obs, Stage, Tracer, TraceSummary,
    };
    pub use daspos_provenance::Platform;
    pub use daspos_serve::{
        LoadgenConfig, LoadgenReport, ServeClient, ServeConfig, ServeError, Server, Service,
    };
    pub use daspos_vault::{
        DirBackend, MemoryBackend, ObjectKind, Redundancy, RetryPolicy,
        ScrubReport, StorageBackend, Vault, VaultError,
    };
}

pub use archive::PreservationArchive;
pub use error::{Error, ErrorKind};
pub use workflow::{ExecutionContext, PreservedWorkflow};
