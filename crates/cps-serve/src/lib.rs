//! # cps-serve
//!
//! The monitor's read side, split from its mutable ingest state: the
//! merger publishes immutable epoch-stamped [`LiveSnapshot`]s through a
//! lock-free [`SnapshotCell`]; readers pin one snapshot as a [`ReadView`]
//! with a single atomic load and answer the whole query surface
//! (`red_regions`, `query_guided`, `live_macro_clusters`,
//! `micro_clusters_for_day`, `significant_clusters`) without ever
//! touching the merger's state. A sharded [`ResultCache`] keyed by
//! `(kind, day-range)` sits in front, with epoch-based invalidation on
//! day-seal and hit/miss/stale metrics.
//!
//! The crate is deliberately monitor-agnostic: `cps-monitor` depends on
//! it (building the [`ServeContext`] at service start and publishing from
//! the merger), never the other way around, so the serving layer is
//! testable against synthetic snapshots.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod deadline;
pub mod epoch;
pub mod view;

pub use cache::{CacheStats, QueryKey, QueryKind, ResultCache, Stamp};
pub use deadline::{DegradeStats, Degraded, QueryDeadline};
pub use epoch::SnapshotCell;
pub use view::{GuidedQuery, LiveSnapshot, ReadView, ServeContext};

use atypical::AtypicalCluster;
use cps_core::{RegionId, Severity};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// First merge id handed out by a query-local
/// [`ClusterIdGen`](cps_core::ids::ClusterIdGen). Query-time integration
/// must not consume service ids (that would make queries perturb ingest
/// state and each other), so every guided query counts from this fixed
/// base: far above the live generator (which starts at 1) and distinct
/// from `cps-par`'s temporary-id base (`1 << 62`), so a query-minted id
/// can never collide with either.
pub const QUERY_ID_BASE: u64 = 1 << 61;

/// One cached query result. The variant always matches the key's
/// [`QueryKind`]; values are `Arc`s so a hit is a pointer clone.
#[derive(Clone)]
pub enum CachedValue {
    /// Red regions with their composed `F` values.
    Red(Arc<Vec<(RegionId, Severity)>>),
    /// A guided-query outcome.
    Guided(Arc<GuidedQuery>),
    /// A plain cluster list (significant clusters, day micro-clusters).
    Clusters(Arc<Vec<AtypicalCluster>>),
}

/// The serving state one monitor owns: publication cell, result cache,
/// and the immutable query context. Shared as an `Arc` between the
/// service (publisher) and any number of [`ServeHandle`]s (readers).
pub struct ServeState {
    cell: SnapshotCell<LiveSnapshot>,
    cache: ResultCache<CachedValue>,
    ctx: Arc<ServeContext>,
    next_epoch: AtomicU64,
    cache_enabled: bool,
    degrade: Arc<DegradeStats>,
}

impl ServeState {
    /// Builds the serving state around an initial snapshot (epoch 0 for a
    /// fresh service; a recovered service publishes its restored state).
    pub fn new(
        ctx: ServeContext,
        initial: LiveSnapshot,
        cache_shards: usize,
        cache_capacity: usize,
        cache_enabled: bool,
    ) -> Self {
        let next_epoch = AtomicU64::new(initial.epoch + 1);
        Self {
            cell: SnapshotCell::new(initial),
            cache: ResultCache::new(cache_shards, cache_capacity),
            ctx: Arc::new(ctx),
            next_epoch,
            cache_enabled,
            degrade: Arc::new(DegradeStats::default()),
        }
    }

    /// Counters of the deadline-bounded query path.
    pub fn degrade_stats(&self) -> &Arc<DegradeStats> {
        &self.degrade
    }

    /// Allocates the next publication epoch (strictly increasing).
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch.fetch_add(1, Relaxed)
    }

    /// Publishes a snapshot; readers see it on their next pin.
    pub fn publish(&self, snapshot: LiveSnapshot) {
        self.cell.publish(snapshot);
    }

    /// The query context (partition, params, store).
    pub fn ctx(&self) -> &Arc<ServeContext> {
        &self.ctx
    }
}

/// A `Send + Clone` snapshot-backed query handle. Every call pins the
/// freshest published epoch; use [`view`](Self::view) directly when a
/// multi-step query must see one consistent epoch across steps.
#[derive(Clone)]
pub struct ServeHandle {
    state: Arc<ServeState>,
}

impl ServeHandle {
    /// Wraps the shared serving state.
    pub fn new(state: Arc<ServeState>) -> Self {
        Self { state }
    }

    /// Pins the current snapshot as a consistent [`ReadView`].
    pub fn view(&self) -> ReadView {
        ReadView::new(self.state.cell.load(), self.state.ctx.clone())
    }

    /// The current publication epoch.
    pub fn epoch(&self) -> u64 {
        self.view().epoch()
    }

    /// Cache hit/miss/stale counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache.stats()
    }

    /// Whether results are cached (from the `[serving]` config).
    pub fn cache_enabled(&self) -> bool {
        self.state.cache_enabled
    }

    /// Cached [`ReadView::red_regions`].
    pub fn red_regions(&self, first_day: u32, n_days: u32) -> Arc<Vec<(RegionId, Severity)>> {
        let view = self.view();
        let key = QueryKey {
            kind: QueryKind::RedRegions,
            first_day,
            n_days,
        };
        if let Some(CachedValue::Red(v)) = self.lookup(&key, &view) {
            return v;
        }
        let value = Arc::new(view.red_regions(first_day, n_days));
        self.store(
            key,
            CachedValue::Red(value.clone()),
            &view,
            first_day,
            n_days,
        );
        value
    }

    /// Cached [`ReadView::query_guided`].
    pub fn query_guided(&self, first_day: u32, n_days: u32) -> cps_core::Result<Arc<GuidedQuery>> {
        let view = self.view();
        let key = QueryKey {
            kind: QueryKind::Guided,
            first_day,
            n_days,
        };
        if let Some(CachedValue::Guided(v)) = self.lookup(&key, &view) {
            return Ok(v);
        }
        let value = Arc::new(view.query_guided(first_day, n_days)?);
        self.store(
            key,
            CachedValue::Guided(value.clone()),
            &view,
            first_day,
            n_days,
        );
        Ok(value)
    }

    /// Cached [`ReadView::significant_clusters`].
    pub fn significant_clusters(
        &self,
        first_day: u32,
        n_days: u32,
    ) -> cps_core::Result<Arc<Vec<AtypicalCluster>>> {
        let view = self.view();
        let key = QueryKey {
            kind: QueryKind::Significant,
            first_day,
            n_days,
        };
        if let Some(CachedValue::Clusters(v)) = self.lookup(&key, &view) {
            return Ok(v);
        }
        let value = Arc::new(view.significant_clusters(first_day, n_days)?);
        self.store(
            key,
            CachedValue::Clusters(value.clone()),
            &view,
            first_day,
            n_days,
        );
        Ok(value)
    }

    /// Cached [`ReadView::micro_clusters_for_day`].
    pub fn micro_clusters_for_day(&self, day: u32) -> cps_core::Result<Arc<Vec<AtypicalCluster>>> {
        let view = self.view();
        let key = QueryKey {
            kind: QueryKind::MicrosForDay,
            first_day: day,
            n_days: 1,
        };
        if let Some(CachedValue::Clusters(v)) = self.lookup(&key, &view) {
            return Ok(v);
        }
        let value = view.micro_clusters_for_day(day)?;
        self.store(key, CachedValue::Clusters(value.clone()), &view, day, 1);
        Ok(value)
    }

    /// Uncached [`ReadView::live_macro_clusters`] — the snapshot already
    /// holds the fixpoint set as one `Arc`, so a cache adds nothing.
    pub fn live_macro_clusters(&self) -> Arc<Vec<AtypicalCluster>> {
        self.view().live_macro_clusters()
    }

    /// Deadline-bounded [`ReadView::query_guided_deadline`] against the
    /// freshest published epoch. Deliberately uncached: a degraded
    /// (partial) answer must never poison the cache for full-budget
    /// readers. Degradations and budget overruns are counted in the
    /// state's [`DegradeStats`].
    pub fn query_guided_deadline(
        &self,
        first_day: u32,
        n_days: u32,
        budget: std::time::Duration,
    ) -> cps_core::Result<Degraded<GuidedQuery>> {
        let view = self.view();
        let deadline = QueryDeadline::new(budget);
        let result = view.query_guided_deadline(first_day, n_days, &deadline)?;
        self.count_degradation(&result.days_omitted, result.elapsed, budget);
        Ok(result)
    }

    /// Deadline-bounded [`ReadView::significant_clusters_deadline`]
    /// against the freshest published epoch; uncached, like
    /// [`query_guided_deadline`](Self::query_guided_deadline).
    pub fn significant_clusters_deadline(
        &self,
        first_day: u32,
        n_days: u32,
        budget: std::time::Duration,
    ) -> cps_core::Result<Degraded<Vec<AtypicalCluster>>> {
        let view = self.view();
        let deadline = QueryDeadline::new(budget);
        let result = view.significant_clusters_deadline(first_day, n_days, &deadline)?;
        self.count_degradation(&result.days_omitted, result.elapsed, budget);
        Ok(result)
    }

    /// Counters of the deadline-bounded query path.
    pub fn degrade_stats(&self) -> (u64, u64) {
        self.state.degrade.snapshot()
    }

    fn count_degradation(
        &self,
        days_omitted: &[u32],
        elapsed: std::time::Duration,
        budget: std::time::Duration,
    ) {
        if !days_omitted.is_empty() {
            self.state.degrade.queries_degraded.fetch_add(1, Relaxed);
        }
        if elapsed > budget {
            self.state.degrade.deadline_overruns.fetch_add(1, Relaxed);
        }
    }

    fn lookup(&self, key: &QueryKey, view: &ReadView) -> Option<CachedValue> {
        if !self.state.cache_enabled {
            return None;
        }
        self.state.cache.get(key, view.epoch())
    }

    fn store(
        &self,
        key: QueryKey,
        value: CachedValue,
        view: &ReadView,
        first_day: u32,
        n_days: u32,
    ) {
        if !self.state.cache_enabled {
            return;
        }
        let stamp = if view.snapshot().range_sealed(first_day, n_days) {
            Stamp::Immutable
        } else {
            Stamp::Epoch(view.epoch())
        };
        self.state.cache.insert(key, value, stamp, view.epoch());
    }
}
