//! # cps-cube
//!
//! The CubeView baseline (Shekhar et al., "Cubeview: a system for traffic
//! data visualization"): **bottom-up aggregation of numeric measures over
//! pre-defined spatial and temporal hierarchies** — the approach the paper
//! contrasts atypical clusters against (§II-A, Example 2).
//!
//! Two construction modes match the evaluation of Figures 15/16:
//!
//! * **OC** (original CubeView): aggregates *all* raw readings — pays a
//!   full scan of the raw archive,
//! * **MC** (modified CubeView): aggregates only the pre-processed atypical
//!   records — an order of magnitude faster, and the most compact model,
//!   but a bare number per (region, time bucket): it cannot say when an
//!   event started, how it moved, or which part was worst.
//!
//! The cube stores the finest cuboid (finest region level × hour) and
//! answers any coarser (spatial level, temporal level) query by distributive
//! roll-up; coarser cuboids can be materialized on demand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cube;
pub mod hierarchy;
pub mod query;

pub use cube::{CellKey, SpatioTemporalCube};
pub use hierarchy::TemporalLevel;
