//! # cps-index
//!
//! Spatio-temporal indexes over atypical records.
//!
//! Proposition 1 of the paper: retrieving atypical events costs `O(N + n²)`
//! without an index and `O(N + n·log n)` with one. This crate supplies both
//! sides of that comparison:
//!
//! * [`NeighborSource`] — the query interface event extraction needs: *all
//!   records direct-atypical-related to record `i`* (Definition 1),
//! * [`StIndex`] — the indexed implementation: per-sensor window lists
//!   (binary searched over the `δt` horizon) crossed with the network's
//!   `δd` sensor neighbourhoods,
//! * [`NaiveNeighbors`] — the `O(n)`-per-seed full scan,
//! * [`InvertedIndex`] — key → slot posting lists; the exact candidate
//!   generator behind indexed cluster integration (`Sim` is zero whenever
//!   no sensor and no window is shared, so non-candidates are provably
//!   below any merge threshold).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod inverted;
pub mod st_index;

pub use inverted::InvertedIndex;
pub use st_index::{NaiveNeighbors, NeighborSource, StIndex};
