//! # cps-serve
//!
//! The monitor's read side, split from its mutable ingest state: the
//! merger publishes immutable epoch-stamped [`LiveSnapshot`]s through a
//! [`SnapshotCell`] (one mutex around an `Arc`, held for a pointer clone
//! or swap); readers pin one snapshot as a [`ReadView`] and answer the
//! whole query surface (`red_regions`, `query_guided`,
//! `live_macro_clusters`, `micro_clusters_for_day`,
//! `significant_clusters`) without ever touching the merger's state.
//! [`ServeHandle`] puts one result cache in front, keyed by
//! `(kind, day-range)`, with epoch-based invalidation on publication and
//! hit/miss/stale counters ([`CacheStats`]).
//!
//! The crate is deliberately monitor-agnostic: `cps-monitor` depends on
//! it (building the [`ServeContext`] at service start and publishing from
//! the merger), never the other way around, so the serving layer is
//! testable against synthetic snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod cache;
mod deadline;
mod epoch;
mod view;

pub use cache::CacheStats;
pub use deadline::{DegradeStats, Degraded};
pub use epoch::SnapshotCell;
pub use view::{GuidedQuery, LiveSnapshot, ReadView, ServeContext};

use atypical::AtypicalCluster;
use cache::{QueryKey, QueryKind, ResultCache, Stamp};
use cps_core::{RegionId, Severity};
use deadline::QueryDeadline;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// First merge id handed out by a query-local
/// [`ClusterIdGen`](cps_core::ids::ClusterIdGen). Query-time integration
/// must not consume service ids (that would make queries perturb ingest
/// state and each other), so every guided query counts from this fixed
/// base: far above the live generator (which starts at 1) and distinct
/// from `cps-par`'s temporary-id base (`1 << 62`), so a query-minted id
/// can never collide with either.
pub const QUERY_ID_BASE: u64 = 1 << 61;

/// One cached answer; its concrete type is fixed by the key's
/// [`QueryKind`], so a hit is a pointer clone and a downcast.
type CachedValue = Arc<dyn Any + Send + Sync>;

/// The serving state one monitor owns: publication cell, result cache,
/// and the immutable query context. Shared as an `Arc` between the
/// service (publisher) and any number of [`ServeHandle`]s (readers).
pub struct ServeState {
    cell: SnapshotCell<LiveSnapshot>,
    cache: ResultCache<CachedValue>,
    ctx: Arc<ServeContext>,
    next_epoch: AtomicU64,
    degrade: Arc<DegradeStats>,
}

impl ServeState {
    /// Builds the serving state around an initial snapshot (epoch 0 for a
    /// fresh service; a recovered service publishes its restored state),
    /// with a result cache of at most `cache_capacity` entries.
    pub fn new(ctx: ServeContext, initial: LiveSnapshot, cache_capacity: usize) -> Self {
        let next_epoch = AtomicU64::new(initial.epoch + 1);
        Self {
            cell: SnapshotCell::new(initial),
            cache: ResultCache::new(cache_capacity),
            ctx: Arc::new(ctx),
            next_epoch,
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

    /// Cached [`ReadView::red_regions`].
    pub fn red_regions(&self, first_day: u32, n_days: u32) -> Arc<Vec<(RegionId, Severity)>> {
        let answer = self.cached(QueryKind::RedRegions, first_day, n_days, |view| {
            Ok(Arc::new(view.red_regions(first_day, n_days)))
        });
        answer.expect("red regions never fail")
    }

    /// Cached [`ReadView::query_guided`].
    pub fn query_guided(&self, first_day: u32, n_days: u32) -> cps_core::Result<Arc<GuidedQuery>> {
        self.cached(QueryKind::Guided, first_day, n_days, |view| {
            view.query_guided(first_day, n_days).map(Arc::new)
        })
    }

    /// Cached [`ReadView::significant_clusters`].
    pub fn significant_clusters(
        &self,
        first_day: u32,
        n_days: u32,
    ) -> cps_core::Result<Arc<Vec<AtypicalCluster>>> {
        self.cached(QueryKind::Significant, first_day, n_days, |view| {
            view.significant_clusters(first_day, n_days).map(Arc::new)
        })
    }

    /// Cached [`ReadView::micro_clusters_for_day`].
    pub fn micro_clusters_for_day(&self, day: u32) -> cps_core::Result<Arc<Vec<AtypicalCluster>>> {
        self.cached(QueryKind::MicrosForDay, day, 1, |view| {
            view.micro_clusters_for_day(day)
        })
    }

    /// Uncached [`ReadView::live_macro_clusters`] — the snapshot already
    /// holds the fixpoint set as one `Arc`, so a cache adds nothing.
    pub fn live_macro_clusters(&self) -> Arc<Vec<AtypicalCluster>> {
        self.view().live_macro_clusters()
    }

    /// Deadline-bounded [`ReadView::query_guided`] against the freshest
    /// published epoch: once `budget` is spent, remaining *sealed* days
    /// are omitted instead of read from storage (live days are always
    /// served — they are pointer clones), and the answer comes back as a
    /// [`Degraded`] stamped with the pinned epoch and the exact days
    /// omitted. The caller gets an answer in bounded time, never a hang;
    /// with a generous budget the result equals the undegraded query
    /// exactly. Deliberately uncached: a degraded (partial) answer must
    /// never poison the cache for full-budget readers. Degradations and
    /// budget overruns are counted in the state's [`DegradeStats`].
    pub fn query_guided_deadline(
        &self,
        first_day: u32,
        n_days: u32,
        budget: Duration,
    ) -> cps_core::Result<Degraded<GuidedQuery>> {
        let view = self.view();
        let deadline = QueryDeadline::new(budget);
        let (value, days_omitted) = view.guided_inner(first_day, n_days, Some(&deadline))?;
        let elapsed = deadline.elapsed();
        let degraded = !days_omitted.is_empty();
        if degraded {
            self.state.degrade.queries_degraded.fetch_add(1, Relaxed);
        }
        if elapsed > budget {
            self.state.degrade.deadline_overruns.fetch_add(1, Relaxed);
        }
        Ok(Degraded {
            value,
            epoch: view.epoch(),
            seal_epoch: view.seal_epoch(),
            degraded,
            days_omitted,
            elapsed,
        })
    }

    /// Deadline-bounded [`ReadView::significant_clusters`], riding on
    /// [`query_guided_deadline`](Self::query_guided_deadline).
    pub fn significant_clusters_deadline(
        &self,
        first_day: u32,
        n_days: u32,
        budget: Duration,
    ) -> cps_core::Result<Degraded<Vec<AtypicalCluster>>> {
        let result = self.query_guided_deadline(first_day, n_days, budget)?;
        Ok(result.map(|mut q| {
            q.macros.retain(|c| c.severity() > q.threshold);
            q.macros
        }))
    }

    /// Counters of the deadline-bounded query path.
    pub fn degrade_stats(&self) -> (u64, u64) {
        self.state.degrade.snapshot()
    }

    /// Pins the freshest epoch and answers `kind` over the day range from
    /// the cache, or computes it on the pinned view and caches it. The
    /// entry is [`Stamp::Immutable`] when every day of the range is
    /// sealed in the pinned snapshot, else stamped with its epoch.
    fn cached<T: Send + Sync + 'static>(
        &self,
        kind: QueryKind,
        first_day: u32,
        n_days: u32,
        compute: impl FnOnce(&ReadView) -> cps_core::Result<Arc<T>>,
    ) -> cps_core::Result<Arc<T>> {
        let view = self.view();
        let key = QueryKey {
            kind,
            first_day,
            n_days,
        };
        if let Some(hit) = self.state.cache.get(&key, view.epoch()) {
            return Ok(hit
                .downcast()
                .expect("a query kind always caches one answer type"));
        }
        let value = compute(&view)?;
        let stamp = if view.snapshot().range_sealed(first_day, n_days) {
            Stamp::Immutable
        } else {
            Stamp::Epoch(view.epoch())
        };
        self.state
            .cache
            .insert(key, value.clone(), stamp, view.epoch());
        Ok(value)
    }
}
