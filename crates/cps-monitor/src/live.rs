//! Mutable query-side state of the running service.
//!
//! The merger thread owns the [`LiveState`] by value and is its only
//! writer and only reader: queries never touch it. Instead the merger
//! publishes immutable [`cps_serve::LiveSnapshot`]s at a configurable
//! cadence and readers pin them through a [`cps_serve::ReadView`]; a
//! checkpoint gets its copy ([`LiveState::checkpoint`]) in the merger's
//! barrier reply.
//!
//! To make publication cheap, every container a snapshot exposes is held
//! copy-on-write: day buckets, per-day region `F` vectors, and the
//! persisted-day set live behind `Arc`s that snapshots share. The merger
//! mutates through [`Arc::make_mut`], which clones a bucket only when a
//! published snapshot still references it — so publication is a handful
//! of pointer bumps and mutation pays at most one day-bucket clone per
//! publication, never a full-state copy.
//!
//! Three structures are maintained incrementally as micro-clusters are
//! finalized:
//!
//! - `micros_by_day` — the live (not yet persisted) day level of the
//!   forest;
//! - `region_f_by_day` — per-day, per-region total severity `F(Wᵢ, day)`.
//!   `F` is distributive (Property 4), so a query's red zones over any
//!   whole-day range come from summing these vectors — no scan of the
//!   micro-clusters, and the vectors survive day eviction so persisted
//!   days stay cheap to pre-filter;
//! - `macros` — live macro-clusters, kept at the Algorithm 3 fixpoint by
//!   re-running the work-queue step for each arriving micro-cluster only,
//!   through the inverted-index integrator: it prunes result members
//!   sharing no sensor and no window with the arriving cluster instead of
//!   scanning the whole fixpoint set. Live comparison uses absolute time
//!   windows (the monitor integrates within its streaming horizon;
//!   cross-day folding happens in offline forest roll-ups).

use crate::durability::LiveCkpt;
use atypical::integrate::TimeAlignment;
use atypical::AtypicalCluster;
use atypical::IndexedIntegrator;
use cps_core::ids::ClusterIdGen;
use cps_core::{Params, Severity, WindowSpec};
use cps_geo::grid::SensorPartition;
use cps_serve::LiveSnapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

pub(crate) struct LiveState {
    pub(crate) ids: ClusterIdGen,
    /// Finalized micro-clusters per day, until the day is persisted.
    /// Copy-on-write: published snapshots share the day buckets.
    pub(crate) micros_by_day: BTreeMap<u32, Arc<Vec<AtypicalCluster>>>,
    /// Per-day red-zone numerators `F(Wᵢ, day)`; retained after eviction.
    pub(crate) region_f_by_day: BTreeMap<u32, Arc<Vec<Severity>>>,
    /// Live macro-clusters (pairwise similarity ≤ δsim invariant).
    pub(crate) macros: IndexedIntegrator,
    /// Days whose micro-clusters moved to the snapshot store.
    pub(crate) persisted_days: Arc<BTreeSet<u32>>,
    /// Bumped once per day eviction; snapshots carry it so caches can
    /// tell "a day sealed" from "a cluster arrived".
    pub(crate) seal_epoch: u64,
    /// Memoized `Arc` of the macro fixpoint set, rebuilt lazily after a
    /// mutation so back-to-back publications with no intervening
    /// integration share one allocation.
    macros_memo: Option<Arc<Vec<AtypicalCluster>>>,
}

impl LiveState {
    pub(crate) fn new(params: &Params) -> Self {
        Self {
            ids: ClusterIdGen::new(1),
            micros_by_day: BTreeMap::new(),
            region_f_by_day: BTreeMap::new(),
            macros: IndexedIntegrator::new(params, TimeAlignment::Absolute),
            persisted_days: Arc::new(BTreeSet::new()),
            seal_epoch: 0,
            macros_memo: None,
        }
    }

    /// Rebuilds the live state from a checkpoint. The macro fixpoint set
    /// is restored by re-admitting each checkpointed cluster: the set is
    /// pairwise non-similar, so no admission merges — no IDs are consumed
    /// and the integrator ends holding exactly the checkpointed set, with
    /// its inverted index rebuilt.
    pub(crate) fn restore(params: &Params, ckpt: &LiveCkpt) -> Self {
        let mut ids = ClusterIdGen::new(ckpt.next_id);
        let mut macros = IndexedIntegrator::new(params, TimeAlignment::Absolute);
        for cluster in &ckpt.macros {
            macros.admit(cluster.clone(), &mut ids);
        }
        debug_assert_eq!(
            ids.peek(),
            ckpt.next_id,
            "restoring a fixpoint set must not merge"
        );
        let persisted: BTreeSet<u32> = ckpt.persisted_days.iter().copied().collect();
        Self {
            ids,
            micros_by_day: ckpt
                .micros_by_day
                .iter()
                .map(|(day, micros)| (*day, Arc::new(micros.clone())))
                .collect(),
            region_f_by_day: ckpt
                .region_f_by_day
                .iter()
                .map(|(day, f)| (*day, Arc::new(f.clone())))
                .collect(),
            macros,
            seal_epoch: persisted.len() as u64,
            persisted_days: Arc::new(persisted),
            macros_memo: None,
        }
    }

    /// The checkpoint form of this state, the inverse of
    /// [`restore`](Self::restore).
    pub(crate) fn checkpoint(&self) -> LiveCkpt {
        LiveCkpt {
            next_id: self.ids.peek(),
            micros_by_day: self
                .micros_by_day
                .iter()
                .map(|(day, micros)| (*day, micros.as_ref().clone()))
                .collect(),
            region_f_by_day: self
                .region_f_by_day
                .iter()
                .map(|(day, f)| (*day, f.as_ref().clone()))
                .collect(),
            macros: self.macros.snapshot(),
            persisted_days: self.persisted_days.iter().copied().collect(),
        }
    }

    /// Admits one finalized micro-cluster: files it under its day (day of
    /// its first window), folds its severity into the day's region `F`
    /// vector, and integrates it into the live macro-clusters (one
    /// incremental step of Algorithm 3: a hit merges and re-enqueues, so
    /// the pairwise-non-similar invariant is restored before returning).
    pub(crate) fn admit(
        &mut self,
        cluster: AtypicalCluster,
        spec: WindowSpec,
        partition: &SensorPartition,
    ) {
        let day = spec.day_of(cluster.time_range().start);
        let f = self
            .region_f_by_day
            .entry(day)
            .or_insert_with(|| Arc::new(vec![Severity::ZERO; partition.num_regions() as usize]));
        let f = Arc::make_mut(f);
        for (sensor, severity) in cluster.sf.iter() {
            f[partition.region_of(sensor).index()] += severity;
        }
        self.macros.admit(cluster.clone(), &mut self.ids);
        self.macros_memo = None;
        Arc::make_mut(self.micros_by_day.entry(day).or_default()).push(cluster);
    }

    /// Removes a completed day's micro-clusters for persistence. The
    /// day's `F` vector stays so red-zone guidance keeps covering it.
    pub(crate) fn evict_day(&mut self, day: u32) -> Option<Arc<Vec<AtypicalCluster>>> {
        let micros = self.micros_by_day.remove(&day)?;
        Arc::make_mut(&mut self.persisted_days).insert(day);
        self.seal_epoch += 1;
        Some(micros)
    }

    /// Undoes [`evict_day`](Self::evict_day) after a failed persistence
    /// attempt, so the day keeps being served from memory.
    pub(crate) fn unevict_day(&mut self, day: u32, micros: Arc<Vec<AtypicalCluster>>) {
        Arc::make_mut(&mut self.persisted_days).remove(&day);
        self.micros_by_day.insert(day, micros);
    }

    /// The macro fixpoint set as a shared `Arc`, memoized until the next
    /// integration.
    pub(crate) fn macros_arc(&mut self) -> Arc<Vec<AtypicalCluster>> {
        self.macros_memo
            .get_or_insert_with(|| Arc::new(self.macros.snapshot()))
            .clone()
    }

    /// Builds an epoch-stamped publication of this state. Cheap: every
    /// container is shared copy-on-write with the live maps.
    pub(crate) fn publishable(&mut self, epoch: u64) -> LiveSnapshot {
        LiveSnapshot {
            epoch,
            seal_epoch: self.seal_epoch,
            micros_by_day: self.micros_by_day.clone(),
            region_f_by_day: self.region_f_by_day.clone(),
            macros: self.macros_arc(),
            persisted_days: self.persisted_days.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atypical::feature::{SpatialFeature, TemporalFeature};
    use atypical::similarity::similarity;
    use cps_core::{ClusterId, SensorId, TimeWindow};

    fn cluster(id: u64, sensors: &[u32], windows: &[u32]) -> AtypicalCluster {
        let sf: SpatialFeature = sensors
            .iter()
            .map(|&s| (SensorId::new(s), Severity::from_minutes(10.0)))
            .collect();
        let tf: TemporalFeature = windows
            .iter()
            .map(|&w| (TimeWindow::new(w), Severity::from_minutes(10.0)))
            .collect();
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    /// The live fixpoint must evolve exactly like the paper's naive
    /// Algorithm 3 step under the same admission sequence (same clusters,
    /// same ids: the incremental step evaluates candidates in the same
    /// set order). The naive side is the reference loop below.
    #[test]
    fn live_macros_match_naive_admission() {
        let params = Params::paper_defaults();
        let mut naive: Vec<AtypicalCluster> = Vec::new();
        let (mut naive_comparisons, mut naive_merges) = (0u64, 0u64);
        let mut live = LiveState::new(&params).macros;
        let mut ids_n = ClusterIdGen::new(100);
        let mut ids_i = ClusterIdGen::new(100);
        for i in 0..30u32 {
            let base = (i % 7) * 2;
            let c = cluster(
                u64::from(i),
                &[base, base + 1, base + 2],
                &[base, base + 1, base + 2],
            );
            let mut queue = vec![c.clone()];
            while let Some(candidate) = queue.pop() {
                let hit = naive.iter().position(|m| {
                    naive_comparisons += 1;
                    similarity(&candidate, m, params.balance) > params.delta_sim
                });
                match hit {
                    Some(at) => {
                        naive_merges += 1;
                        let existing = naive.swap_remove(at);
                        queue.push(candidate.merge(&existing, ids_n.next_id()));
                    }
                    None => naive.push(candidate),
                }
            }
            live.admit(c, &mut ids_i);
            assert_eq!(naive, live.snapshot(), "step {i}");
        }
        assert_eq!(naive.len(), live.len());
        assert!(live.stats().merges > 0);
        // Both walk the same work queue, so they merge the same pairs;
        // the index only skips comparisons it proves fruitless, so the
        // naive count dominates.
        assert_eq!(naive_merges, live.stats().merges);
        assert!(naive_comparisons >= live.stats().comparisons);
    }

    /// Publications share containers copy-on-write: a published snapshot
    /// keeps its day bucket bit-identical while the live state mutates on.
    #[test]
    fn publishable_snapshots_are_isolated_from_later_admissions() {
        let params = Params::paper_defaults();
        let network = cps_sim::TrafficSim::new(cps_sim::SimConfig::new(cps_sim::Scale::Tiny, 1))
            .network()
            .clone();
        let partition = cps_geo::grid::UniformGrid::over(&network, 2.0).partition(&network);
        let spec = WindowSpec::PEMS;
        let mut live = LiveState::new(&params);
        live.admit(cluster(1, &[0, 1], &[3, 4]), spec, &partition);
        let snap = live.publishable(1);
        let frozen_micros = snap.micros_by_day.clone();
        let frozen_f = snap.region_f_by_day.clone();
        live.admit(cluster(2, &[5, 6], &[30, 31]), spec, &partition);
        live.admit(cluster(3, &[0, 1], &[3, 4]), spec, &partition);
        assert_eq!(snap.micros_by_day, frozen_micros, "pinned bucket unchanged");
        assert_eq!(snap.region_f_by_day, frozen_f, "pinned F vector unchanged");
        assert_eq!(snap.micros_by_day[&0].len(), 1);
        assert_eq!(live.micros_by_day[&0].len(), 3);
        // Eviction bumps the seal epoch and the persisted set, without
        // touching the published snapshot's view of either.
        let evicted = live.evict_day(0).expect("day 0 is live");
        assert_eq!(evicted.len(), 3);
        assert_eq!(live.seal_epoch, 1);
        assert!(snap.persisted_days.is_empty());
        assert_eq!(snap.seal_epoch, 0);
    }
}
