//! # atypical
//!
//! The paper's contribution: **atypical clusters** for multidimensional
//! analysis of atypical events in cyber-physical data (Tang et al., ICDE
//! 2012).
//!
//! ## Model
//!
//! * [`event`] — atypical events (Definitions 1–3): maximal sets of records
//!   chained by the *direct atypical related* relation; a holistic model
//!   (Property 1).
//! * [`feature`] / [`cluster`] — atypical micro-clusters (Definition 4):
//!   the succinct summary `⟨ID, SF, TF⟩` whose spatial/temporal features
//!   are *algebraic* (Property 2).
//! * [`mod@similarity`] — cluster similarity (Equations 2–4) under the five
//!   balance functions.
//! * [`merge` in `cluster`] + [`mod@integrate`] — Algorithms 2 and 3:
//!   commutative/associative merging (Property 3) and fixpoint integration
//!   into macro-clusters.
//! * [`integrate_index`] — the indexed integration hot path: inverted-index
//!   candidate generation with admissible similarity upper bounds,
//!   bit-identical to the naive scan (differential-tested) but pruning
//!   provably sub-threshold pairs.
//! * [`forest`] — hierarchical clustering trees over aggregation paths
//!   (day → week → month, weekday/weekend), partially materialized.
//! * [`significant`] — significant clusters (Definition 5).
//! * [`redzone`] + [`query`] — Algorithm 4: red-zone guided online
//!   clustering with the `All` / `Pru` / `Gui` strategies, backed by
//!   Properties 4–5 (no false negatives).
//! * [`eval`] — precision/recall harness against the `All` ground truth.
//! * [`par`] — deterministic parallel sibling integration: forest
//!   roll-ups fan out over `cps-par` workers and commit in canonical
//!   node-path order, bit-identical to sequential at any thread count.
//! * [`pipeline`] — end-to-end offline construction (Algorithm 1 over a
//!   dataset store).
//! * [`context`] — weather/accident context joins (§V-D extension).
//! * [`predict`] — per-sensor recurrence profiles (§VII future-work hook).
//! * [`viz`] — ASCII rendering of clusters for the examples.
//!
//! ## Example
//!
//! From atypical records to the day's worst event:
//!
//! ```
//! use atypical::event::extract_micro_clusters;
//! use cps_core::ids::ClusterIdGen;
//! use cps_core::{AtypicalRecord, Params, SensorId, Severity, TimeWindow, WindowSpec};
//! use cps_geo::{point::LOS_ANGELES, RoadNetwork};
//! use cps_index::StIndex;
//!
//! // A one-highway deployment and a short burst of congestion.
//! let network = RoadNetwork::builder()
//!     .highway(
//!         "I-10",
//!         vec![LOS_ANGELES.offset_miles(0.0, -5.0), LOS_ANGELES.offset_miles(0.0, 5.0)],
//!         0.5,
//!     )
//!     .build();
//! let records: Vec<AtypicalRecord> = [(0u32, 97u32, 4.0), (0, 98, 5.0), (1, 98, 5.0), (2, 99, 5.0)]
//!     .into_iter()
//!     .map(|(s, w, m)| {
//!         AtypicalRecord::new(SensorId::new(s), TimeWindow::new(w), Severity::from_minutes(m))
//!     })
//!     .collect();
//!
//! // Algorithm 1: events → micro-clusters.
//! let params = Params::paper_defaults();
//! let index = StIndex::build(&records, &network, &params, WindowSpec::PEMS);
//! let mut ids = ClusterIdGen::new(1);
//! let clusters = extract_micro_clusters(&index, &mut ids);
//!
//! assert_eq!(clusters.len(), 1, "the records chain into one event");
//! assert_eq!(clusters[0].severity(), Severity::from_minutes(19.0));
//! assert_eq!(clusters[0].sensor_count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cluster;
pub mod context;
pub mod eval;
pub mod event;
pub mod feature;
pub mod forest;
pub mod integrate;
pub mod integrate_index;
pub mod online;
pub mod par;
pub mod pipeline;
pub mod predict;
pub mod query;
pub mod redzone;
pub mod report;
pub mod significant;
pub mod similarity;
pub mod store;
pub mod viz;

pub use cluster::AtypicalCluster;
pub use event::AtypicalEvent;
pub use feature::{Feature, SpatialFeature, TemporalFeature};
pub use forest::AtypicalForest;
pub use integrate::integrate;
pub use integrate_index::IndexedIntegrator;
pub use query::{Query, QueryEngine, QueryResult, Strategy, QUERY_ID_BASE};
pub use significant::significance_threshold;
pub use similarity::similarity;
pub use store::{cluster_matches, FilteredClusters, ForestLevel, ForestStore};
