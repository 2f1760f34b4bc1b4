//! # daspos-outreach — Level-2 data, displays and masterclasses
//!
//! Implements the report's §2.1 landscape: each experiment publishes
//! simplified ("Level 2") event data in its own format, with its own
//! event display and masterclass exercises — the multiplicity Table 1
//! catalogues — plus the report's proposed common ground: *"a thin layer
//! of software will convert data in a relatively low-level format (called
//! AOD …) into a simplified representation that can be used for further
//! analysis or visualization"* (the Finland converter).
//!
//! * [`formats`] — the simplified event model and its three carriers:
//!   ig-JSON (CMS-like, self-documenting, read and written through
//!   [`daspos_hep::json`]), event-XML (ATLAS Jive-like),
//!   and a compact binary-ish text (ALICE/LHCb-like, not
//!   self-documenting),
//! * [`geometry`] — per-experiment display geometry descriptions,
//! * [`convert`] — the thin AOD → simplified converter, common to all
//!   four experiments (experiment O1),
//! * [`display`] — an SVG event display over the common scene model,
//! * [`masterclass`] — the Table 1 exercises: W/Z/H counting, the D⁰
//!   lifetime fit, and the V⁰ finder,
//! * [`experiments`] — the Table 1 feature matrix itself, generated from
//!   the per-experiment outreach stacks.

pub mod convert;
pub mod display;
pub mod experiments;
pub mod formats;
pub mod geometry;
pub mod masterclass;

pub use convert::convert_aod;
pub use experiments::{table1, OutreachStack};
pub use formats::{OutreachFormat, SimplifiedEvent, SimpleParticle};
