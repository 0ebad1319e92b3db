//! Epoch-stamped snapshots of the monitor's live query state and the
//! [`ReadView`] that answers the full query surface against one pinned
//! epoch.
//!
//! The merger publishes a [`LiveSnapshot`] through the
//! [`SnapshotCell`](crate::SnapshotCell) whenever its live state changes
//! (at a configurable cadence); the snapshot's containers are
//! copy-on-write `Arc`s shared with the live state, so a publication is a
//! handful of pointer clones — no cluster is copied. A [`ReadView`] pins
//! one snapshot: every query it answers sees the same epoch, so a
//! multi-step drill-down (red regions, then guided integration, then a
//! day's micro-clusters) is internally consistent even while ingest keeps
//! mutating the live state behind it.
//!
//! A [`ReadView`] computes every answer afresh. It is the uncached path:
//! [`ServeHandle`](crate::ServeHandle) puts the result cache in front of
//! it, and every test compares the cached answers against it.

use crate::deadline::QueryDeadline;
use crate::QUERY_ID_BASE;
use atypical::integrate::{integrate_aligned, TimeAlignment};
use atypical::significant::significance_threshold;
use atypical::store::{ForestLevel, ForestStore};
use atypical::AtypicalCluster;
use cps_core::ids::ClusterIdGen;
use cps_core::{Params, RegionId, SensorId, Severity, TimeRange, WindowSpec};
use cps_geo::grid::SensorPartition;
use cps_storage::{IoSnapshot, Predicate};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One immutable, epoch-stamped publication of the monitor's query-side
/// state. Day maps hold `Arc`s shared copy-on-write with the live state.
#[derive(Clone)]
pub struct LiveSnapshot {
    /// Publication sequence number, strictly increasing.
    pub epoch: u64,
    /// Day-seal sequence number: bumped once per day evicted to the
    /// snapshot store. Cache entries over not-fully-sealed ranges key
    /// their validity to `epoch`; fully-sealed ranges never change.
    pub seal_epoch: u64,
    /// Live (not yet persisted) micro-clusters per day.
    pub micros_by_day: BTreeMap<u32, Arc<Vec<AtypicalCluster>>>,
    /// Per-day per-region severity totals; retained after day eviction.
    pub region_f_by_day: BTreeMap<u32, Arc<Vec<Severity>>>,
    /// The live macro-cluster fixpoint set.
    pub macros: Arc<Vec<AtypicalCluster>>,
    /// Days whose micro-clusters moved to the snapshot store.
    pub persisted_days: Arc<BTreeSet<u32>>,
}

impl LiveSnapshot {
    /// An empty snapshot at epoch 0 (pre-ingest).
    pub fn empty() -> Self {
        Self {
            epoch: 0,
            seal_epoch: 0,
            micros_by_day: BTreeMap::new(),
            region_f_by_day: BTreeMap::new(),
            macros: Arc::new(Vec::new()),
            persisted_days: Arc::new(BTreeSet::new()),
        }
    }

    /// Whether every day of `[first_day, first_day + n_days)` is sealed —
    /// its data can no longer change under any future epoch.
    pub fn range_sealed(&self, first_day: u32, n_days: u32) -> bool {
        (first_day..first_day.saturating_add(n_days)).all(|day| self.persisted_days.contains(&day))
    }
}

/// Immutable query context shared by every [`ReadView`] of one service:
/// the deployment's partition, parameters, and snapshot store.
pub struct ServeContext {
    /// Red-zone region partition of the deployment.
    pub partition: Arc<SensorPartition>,
    /// Extraction/integration parameters.
    pub params: Params,
    /// Time discretization.
    pub spec: WindowSpec,
    /// Deployment sensor count (query-scale significance threshold).
    pub num_sensors: u32,
    /// Persisted day buckets; `None` when persistence is off.
    pub store: Option<Arc<ForestStore>>,
}

/// Outcome of one red-zone-guided window query (Algorithm 4 over the
/// live + persisted day levels).
#[derive(Clone, Debug, PartialEq)]
pub struct GuidedQuery {
    /// Window range of the query.
    pub range: TimeRange,
    /// Macro-clusters integrated from the guided inputs.
    pub macros: Vec<AtypicalCluster>,
    /// Significance threshold at the query scale (Definition 5).
    pub threshold: Severity,
    /// Regions marked red by the incrementally maintained `F` values.
    pub num_red_regions: usize,
    /// Micro-clusters in the query range before guidance.
    pub candidate_clusters: usize,
    /// Micro-clusters that survived the red-zone filter.
    pub input_clusters: usize,
}

impl GuidedQuery {
    /// The macro-clusters significant at the query scale.
    pub fn significant(&self) -> Vec<&AtypicalCluster> {
        self.macros
            .iter()
            .filter(|c| c.severity() > self.threshold)
            .collect()
    }
}

/// A pinned-epoch view over one [`LiveSnapshot`]: the monitor's whole
/// query surface, answered without touching the merger's state. `Clone`
/// is cheap (two `Arc`s) and every clone pins the same epoch.
#[derive(Clone)]
pub struct ReadView {
    snapshot: Arc<LiveSnapshot>,
    ctx: Arc<ServeContext>,
}

impl ReadView {
    /// Wraps a pinned snapshot with its query context.
    pub fn new(snapshot: Arc<LiveSnapshot>, ctx: Arc<ServeContext>) -> Self {
        Self { snapshot, ctx }
    }

    /// The pinned publication epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch
    }

    /// The pinned day-seal epoch.
    pub fn seal_epoch(&self) -> u64 {
        self.snapshot.seal_epoch
    }

    /// The pinned snapshot itself.
    pub fn snapshot(&self) -> &LiveSnapshot {
        &self.snapshot
    }

    /// The live macro-clusters (Algorithm 3 fixpoint over every finalized
    /// micro-cluster as of the pinned epoch).
    pub fn live_macro_clusters(&self) -> Arc<Vec<AtypicalCluster>> {
        self.snapshot.macros.clone()
    }

    /// Every live (not yet persisted) micro-cluster at the pinned epoch.
    pub fn live_micro_clusters(&self) -> Vec<AtypicalCluster> {
        self.snapshot
            .micros_by_day
            .values()
            .flat_map(|v| v.iter().cloned())
            .collect()
    }

    /// One day's micro-clusters: from the pinned snapshot when the day is
    /// still live, from the store once sealed (sealed buckets are
    /// immutable, so the answer is epoch-independent).
    pub fn micro_clusters_for_day(&self, day: u32) -> cps_core::Result<Arc<Vec<AtypicalCluster>>> {
        if let Some(micros) = self.snapshot.micros_by_day.get(&day) {
            return Ok(micros.clone());
        }
        match &self.ctx.store {
            Some(store) => Ok(Arc::new(
                store.load(ForestLevel::Day, day)?.unwrap_or_default(),
            )),
            None => Ok(Arc::new(Vec::new())),
        }
    }

    /// Red regions over a whole-day range, with their `F` values, from the
    /// pinned per-day severity vectors (equal to
    /// [`atypical::redzone::RedZones::compute`] on the same micro-clusters
    /// by distributivity, Property 4).
    pub fn red_regions(&self, first_day: u32, n_days: u32) -> Vec<(RegionId, Severity)> {
        let range = self.ctx.spec.day_range(first_day, n_days);
        let f = self.compose_region_f(first_day, n_days);
        self.mark_red(&f, range)
            .into_iter()
            .enumerate()
            .filter(|&(_, red)| red)
            .map(|(i, _)| (RegionId::new(i as u32), f[i]))
            .collect()
    }

    /// Red-zone-guided query over whole days (Algorithm 4): micro-clusters
    /// outside every red region are pruned — safely, per Property 5 —
    /// before time-of-day-aligned integration. Deterministic: merge ids
    /// come from a query-local generator starting at [`QUERY_ID_BASE`], so
    /// the same pinned epoch always yields the same result.
    ///
    /// For sealed days the red-region sensor set is pushed down into the
    /// snapshot store as a [`Predicate`]: a cluster survives guidance iff
    /// it touches a red region's sensor, so the predicate is *exact* and
    /// the columnar backend can skip chunks and whole segments without
    /// decoding them (the skip counters surface via
    /// [`io_stats`](Self::io_stats)). Candidate counts for skipped data
    /// come from segment metadata, so the reported `candidate_clusters`
    /// is identical to the full-decode path.
    pub fn query_guided(&self, first_day: u32, n_days: u32) -> cps_core::Result<GuidedQuery> {
        let (query, _omitted) = self.guided_inner(first_day, n_days, None)?;
        Ok(query)
    }

    /// [`query_guided`](Self::query_guided) with an optional deadline:
    /// once it expires, remaining *sealed* days are omitted instead of
    /// read from storage (live days are always served — they are pointer
    /// clones). Returns the answer and the days omitted.
    pub(crate) fn guided_inner(
        &self,
        first_day: u32,
        n_days: u32,
        deadline: Option<&QueryDeadline>,
    ) -> cps_core::Result<(GuidedQuery, Vec<u32>)> {
        let spec = self.ctx.spec;
        let params = &self.ctx.params;
        let range = spec.day_range(first_day, n_days);
        let threshold = significance_threshold(params, range, self.ctx.num_sensors);

        let f = self.compose_region_f(first_day, n_days);
        let red = self.mark_red(&f, range);
        let num_red_regions = red.iter().filter(|&&r| r).count();

        let partition = &self.ctx.partition;
        let red_sensors: Vec<SensorId> = red
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r)
            .flat_map(|(i, _)| {
                partition
                    .sensors_in(RegionId::new(i as u32))
                    .iter()
                    .copied()
            })
            .collect();
        let pred = Predicate::all().with_sensors(red_sensors);

        let mut candidate_clusters = 0usize;
        let mut inputs: Vec<AtypicalCluster> = Vec::new();
        let mut days_omitted: Vec<u32> = Vec::new();
        for day in first_day..first_day.saturating_add(n_days) {
            if let Some(micros) = self.snapshot.micros_by_day.get(&day) {
                candidate_clusters += micros.len();
                inputs.extend(
                    micros
                        .iter()
                        .filter(|c| c.sf.keys().any(|s| red[partition.region_of(s).index()]))
                        .cloned(),
                );
            } else if let Some(store) = &self.ctx.store {
                // The deadline only gates *new* storage reads: a read
                // already issued completes, so a query overruns its
                // budget by at most one read.
                if deadline.is_some_and(|d| d.expired()) {
                    days_omitted.push(day);
                    continue;
                }
                if let Some(filtered) = store.load_filtered(ForestLevel::Day, day, &pred)? {
                    candidate_clusters += filtered.total;
                    inputs.extend(filtered.clusters);
                }
            }
        }
        let input_clusters = inputs.len();

        let alignment = TimeAlignment::TimeOfDay {
            windows_per_day: spec.windows_per_day(),
        };
        let mut ids = ClusterIdGen::new(QUERY_ID_BASE);
        let (macros, _stats) = integrate_aligned(inputs, params, alignment, &mut ids);
        Ok((
            GuidedQuery {
                range,
                macros,
                threshold,
                num_red_regions,
                candidate_clusters,
                input_clusters,
            },
            days_omitted,
        ))
    }

    /// The significant clusters of a whole-day range (Definition 5), via
    /// [`query_guided`](Self::query_guided).
    pub fn significant_clusters(
        &self,
        first_day: u32,
        n_days: u32,
    ) -> cps_core::Result<Vec<AtypicalCluster>> {
        let mut result = self.query_guided(first_day, n_days)?;
        result.macros.retain(|c| c.severity() > result.threshold);
        Ok(result.macros)
    }

    /// Storage I/O counters accumulated by this view's snapshot store
    /// (`bytes_decoded`, `segments_skipped`, `chunks_skipped`, …); zeros
    /// when persistence is off. Counters are store-lifetime totals —
    /// diff two snapshots with [`IoSnapshot::since`] to attribute work
    /// to one query.
    pub fn io_stats(&self) -> IoSnapshot {
        self.ctx
            .store
            .as_ref()
            .map(|s| s.io_stats())
            .unwrap_or_default()
    }

    /// Sums the pinned per-day region `F` vectors over
    /// `[first_day, first_day + n_days)`.
    fn compose_region_f(&self, first_day: u32, n_days: u32) -> Vec<Severity> {
        let num_regions = self.ctx.partition.num_regions() as usize;
        let mut f = vec![Severity::ZERO; num_regions];
        for (_, day_f) in self
            .snapshot
            .region_f_by_day
            .range(first_day..first_day.saturating_add(n_days))
        {
            for (acc, &s) in f.iter_mut().zip(day_f.iter()) {
                *acc += s;
            }
        }
        f
    }

    /// Applies the per-region significance-density test of
    /// [`atypical::redzone::RedZones::compute`] to composed `F` values.
    fn mark_red(&self, f: &[Severity], range: TimeRange) -> Vec<bool> {
        let partition = &self.ctx.partition;
        let params = &self.ctx.params;
        f.iter()
            .enumerate()
            .map(|(i, &fv)| {
                let n_i = partition.sensors_in(RegionId::new(i as u32)).len() as u32;
                n_i > 0 && fv >= significance_threshold(params, range, n_i)
            })
            .collect()
    }
}
