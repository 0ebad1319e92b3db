//! # cps-geo
//!
//! Spatial substrate for the atypical-cps workspace:
//!
//! * [`Point`] / [`BoundingBox`] — geographic primitives with haversine and
//!   fast equirectangular distances,
//! * [`RoadNetwork`] — the sensor topology graph (paper §II-A: *"with the
//!   help of a topology graph mapping the sensors to different regions, the
//!   spatial coverage can be represented by a set of sensors"*). Sensors sit
//!   at mile posts on highway polylines; adjacency links consecutive sensors
//!   and interchange neighbours,
//! * [`UniformGrid`] + [`RegionHierarchy`] — the pre-defined region
//!   partition (the zipcode-area stand-in) over which the bottom-up baseline
//!   and the red-zone filter aggregate,
//! * [`RTree`] — an STR bulk-loaded R-tree used for spatial range queries
//!   and the aggregate-R-tree related-work baseline in `cps-index`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bbox;
pub mod grid;
pub mod network;
pub mod point;
pub mod rtree;

pub use bbox::BoundingBox;
pub use grid::{RegionHierarchy, UniformGrid};
pub use network::{Highway, HighwayId, RoadNetwork, SensorInfo};
pub use point::Point;
pub use rtree::RTree;
