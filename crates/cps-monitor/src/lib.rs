//! `cps-monitor` — a sharded online monitoring service over the
//! atypical-event pipeline.
//!
//! The single-threaded [`atypical::online::OnlineExtractor`] processes one
//! deployment-wide record stream. This crate scales it out without
//! changing its output: the road network is cut into spatial shards, each
//! served by its own extractor on a dedicated worker thread behind a
//! *bounded* channel (real backpressure, or an explicit drop counter), and
//! a merger thread reconciles the events that straddle shard boundaries so
//! the resulting micro-clusters equal the single-extractor ones — see
//! the `merger` module for the argument and the `shard_equivalence` test for the
//! property-based check.
//!
//! On top of reconciliation the merger keeps the query side of the paper
//! live: per-day red-zone `F` values (Property 4/5) maintained
//! incrementally, macro-clusters held at the Algorithm 3 fixpoint, and
//! completed day buckets persisted through [`atypical::store::ForestStore`].
//! [`MonitorHandle`] exposes significant-cluster queries (Definition 5)
//! and red-zone-guided window queries over the live + persisted levels
//! through the `cps-serve` snapshot layer ([`MonitorHandle::read_view`] /
//! [`MonitorHandle::serve`]): the merger publishes immutable epoch-stamped
//! [`cps_serve::LiveSnapshot`]s at the `[serving]` cadence, and readers pin
//! one (a lock held for one `Arc` clone), optionally behind the result
//! cache.

#![forbid(unsafe_code)]

pub mod admission;
pub mod config;
pub mod durability;
pub mod error;
mod live;
mod merger;
pub mod metrics;
pub mod service;
pub mod shard;
mod step;

pub use admission::{DeadLetterBuffer, QuarantineReason, QuarantinedRecord};
pub use config::{
    AdmissionConfig, DropBurst, DurabilityConfig, FaultConfig, FsyncPolicy, MonitorConfig,
    OverflowPolicy, ReplayConfig, ServingConfig, WorkerKill,
};
pub use cps_serve::{CacheStats, LiveSnapshot, ReadView, ServeHandle};
pub use error::MonitorError;
pub use metrics::{Metrics, MetricsSnapshot};
pub use service::{GuidedQuery, MonitorHandle, MonitorService, RecoveryReport};
pub use shard::{BoundaryInfo, ShardMap};
