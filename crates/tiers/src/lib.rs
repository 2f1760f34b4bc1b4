//! # daspos-tiers — data tiers, storage and the skim/slim engine
//!
//! Implements the report's data-lifecycle substrate (§3.2 and Appendix A
//! Q2): events move through tiers RAW → RECO → AOD → NTUP, shrinking at
//! every step through *skimming* ("the dropping of events") and
//! *slimming* ("the reduction of the event content").
//!
//! Design decisions taken straight from the report:
//!
//! * **Custom binary codec** ([`codec`]) with an explicit format version —
//!   the preservation hazard of format evolution (experiment P1) needs a
//!   version to bump.
//! * **Declarative skim/slim descriptions** ([`skim`]): §3.2 observes that
//!   *"each processing step between the final centrally-processed format
//!   and some reduced format can be reduced to a logical
//!   skimming/slimming description"*. Selections here are data (a small
//!   expression language with a text form), so a preserved workflow can
//!   re-execute them forever; closures could not be archived.
//! * **Dataset catalog** ([`dataset`]): named, tiered, size-accounted
//!   collections — the coordinates provenance edges point at.
//! * **Flat ntuples** ([`ntuple`]): the final analysis formats, produced
//!   by per-analysis column specs.

pub mod codec;
pub mod colnar;
pub mod dataset;
pub mod ntuple;
pub mod skim;
pub mod tier;

pub use codec::{CodecError, FORMAT_VERSION};
pub use colnar::{
    encode_columnar_parallel, skim_slim_columnar, skim_slim_columnar_with, ColumnarFile, TierFormat,
};
pub use dataset::{Dataset, DatasetCatalog, DatasetMeta};
pub use ntuple::{ColumnSpec, Ntuple, NtupleSchema};
pub use skim::{Selection, SkimReport, SlimSpec};
pub use tier::DataTier;
