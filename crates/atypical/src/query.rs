//! Online analytical query processing (§IV, Algorithm 4).
//!
//! A query `Q(W, T)` asks for the significant atypical clusters inside
//! spatial region `W` during time range `T`. Three strategies are
//! implemented, exactly the three of the evaluation:
//!
//! * [`Strategy::All`] — integrate every micro-cluster in range. Exact and
//!   exhaustive; the ground truth of the effectiveness experiments.
//! * [`Strategy::Pru`] — *beforehand pruning*: keep only micro-clusters
//!   that are significant at day scale, then integrate. Fast and precise
//!   but loses recall (a significant macro can be built from individually
//!   trivial micros — the paper's Figure 11).
//! * [`Strategy::Gui`] — *red-zone guided*: compute the distributive
//!   `F(Wᵢ, T)` per pre-defined region, prune micro-clusters entirely
//!   outside regions that can host a significant cluster (Property 5),
//!   then integrate. No false negatives.

use crate::cluster::AtypicalCluster;
use crate::forest::AtypicalForest;
use crate::integrate::{integrate_aligned, IntegrationStats, TimeAlignment};
use crate::redzone::RedZones;
use crate::significant::significance_threshold;
use crate::store::{ForestLevel, ForestStore};
use cps_core::fx::FxHashSet;
use cps_core::ids::ClusterIdGen;
use cps_core::{Params, Result, SensorId, Severity, TimeRange, WindowSpec};
use cps_geo::grid::SensorPartition;
use cps_geo::{BoundingBox, RoadNetwork};
use cps_storage::Predicate;
use std::time::{Duration, Instant};

/// First cluster id handed out by query-local [`ClusterIdGen`]s (used by
/// [`QueryEngine::execute_stored`] callers). High enough to never collide
/// with persisted micro-cluster ids.
pub const QUERY_ID_BASE: u64 = 1 << 61;

/// Query processing strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Integrate all micro-clusters (exact, slow).
    All,
    /// Prune insignificant micro-clusters beforehand (fast, misses results).
    Pru,
    /// Red-zone guided clustering (fast, no false negatives).
    Gui,
}

impl Strategy {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::All => "All",
            Strategy::Pru => "Pru",
            Strategy::Gui => "Gui",
        }
    }
}

/// An analytical query `Q(W, T)`.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    /// First day of `T` (global index).
    pub first_day: u32,
    /// Number of days in `T`.
    pub n_days: u32,
    /// Spatial region `W`; `None` = the whole deployment.
    pub bbox: Option<BoundingBox>,
}

impl Query {
    /// Whole-city query over a day range.
    pub fn days(first_day: u32, n_days: u32) -> Self {
        Self {
            first_day,
            n_days,
            bbox: None,
        }
    }

    /// Restricts the query to a bounding box.
    pub fn in_bbox(mut self, bbox: BoundingBox) -> Self {
        self.bbox = Some(bbox);
        self
    }
}

/// The outcome of one query execution.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Strategy that produced it.
    pub strategy: Strategy,
    /// Generated macro-clusters (the "returned query results").
    pub macros: Vec<AtypicalCluster>,
    /// Micro-clusters in the query range before strategy filtering.
    pub candidate_clusters: usize,
    /// Micro-clusters actually fed to integration — the I/O measure of
    /// Figure 17(b).
    pub input_clusters: usize,
    /// Red regions found (`Gui` only).
    pub num_red_regions: Option<usize>,
    /// Significance threshold at this query's scale.
    pub threshold: Severity,
    /// Sensors in `W`.
    pub n_sensors: u32,
    /// Window range of `T`.
    pub range: TimeRange,
    /// Wall-clock time of the execution.
    pub elapsed: Duration,
    /// Integration work counters.
    pub integration: IntegrationStats,
    /// Macro-clusters removed by the final severity check (0 when the check
    /// is disabled).
    pub final_check_removed: usize,
}

impl QueryResult {
    /// The returned clusters that are significant at the query scale.
    pub fn significant(&self) -> Vec<&AtypicalCluster> {
        self.macros
            .iter()
            .filter(|c| c.severity() > self.threshold)
            .collect()
    }
}

/// Query engine bound to a deployment (network + pre-defined regions).
pub struct QueryEngine<'a> {
    network: &'a RoadNetwork,
    partition: &'a SensorPartition,
    params: Params,
    /// Whether to run Algorithm 4's final severity check (lines 5–7).
    /// Disabled by default to mirror the paper's experimental setting
    /// ("this procedure is turned off in the experiments for a fair play").
    pub final_check: bool,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine over a deployment.
    pub fn new(network: &'a RoadNetwork, partition: &'a SensorPartition, params: Params) -> Self {
        assert_eq!(
            network.num_sensors(),
            partition.num_sensors(),
            "partition must cover the network's sensors"
        );
        Self {
            network,
            partition,
            params,
            final_check: false,
        }
    }

    /// Enables the final severity check (guarantees 100 % precision).
    pub fn with_final_check(mut self) -> Self {
        self.final_check = true;
        self
    }

    /// The engine's parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Executes `query` with `strategy` against the forest's day-level
    /// micro-clusters (Algorithm 4 for `Gui`).
    pub fn execute(
        &self,
        forest: &mut AtypicalForest,
        query: &Query,
        strategy: Strategy,
    ) -> QueryResult {
        let start = Instant::now();
        let spec = forest.spec();
        let range = spec.day_range(query.first_day, query.n_days);

        // Resolve W: the sensor scope and count.
        let (scope, n_sensors): (Option<FxHashSet<SensorId>>, u32) = match &query.bbox {
            Some(bbox) => {
                let sensors = self.network.sensors_in_bbox(bbox);
                let n = sensors.len() as u32;
                (Some(sensors.into_iter().collect()), n)
            }
            None => (None, self.network.num_sensors() as u32),
        };
        let threshold = significance_threshold(&self.params, range, n_sensors);

        // Candidate micro-clusters: in T, intersecting W.
        let mut candidates = forest.micros_in_days(query.first_day, query.n_days);
        if let Some(scope) = &scope {
            candidates.retain(|c| c.sf.keys().any(|s| scope.contains(&s)));
        }
        let candidate_clusters = candidates.len();

        // Strategy-specific filtering.
        let mut num_red_regions = None;
        let inputs = match strategy {
            Strategy::All => candidates,
            Strategy::Pru => {
                // Beforehand pruning: only micro-clusters significant at
                // their own (day) scale survive.
                let day_range = spec.day_range(query.first_day, 1);
                let day_threshold = significance_threshold(&self.params, day_range, n_sensors);
                candidates
                    .into_iter()
                    .filter(|c| c.severity() > day_threshold)
                    .collect()
            }
            Strategy::Gui => {
                let zones =
                    RedZones::compute(&candidates, self.partition, &self.params, range, n_sensors);
                num_red_regions = Some(zones.num_red());
                let (kept, _pruned) = zones.filter(candidates, self.partition);
                kept
            }
        };
        let input_clusters = inputs.len();

        // Integrate (Algorithm 3) with time-of-day alignment, so recurring
        // daily events aggregate across the query range.
        let alignment = TimeAlignment::TimeOfDay {
            windows_per_day: spec.windows_per_day(),
        };
        let (mut macros, integration) =
            integrate_aligned(inputs, &self.params, alignment, forest.id_gen());

        // Optional final check (Algorithm 4, lines 5–7).
        let mut final_check_removed = 0;
        if self.final_check {
            let before = macros.len();
            macros.retain(|c| c.severity() > threshold);
            final_check_removed = before - macros.len();
        }

        QueryResult {
            strategy,
            macros,
            candidate_clusters,
            input_clusters,
            num_red_regions,
            threshold,
            n_sensors,
            range,
            elapsed: start.elapsed(),
            integration,
            final_check_removed,
        }
    }

    /// Executes `query` with `strategy` directly against a persisted
    /// [`ForestStore`], pushing the query's scope down into storage as a
    /// [`Predicate`] so the columnar backend skips chunks and whole
    /// segments without decoding them.
    ///
    /// Results are identical to loading every day bucket into a forest
    /// and calling [`execute`](Self::execute): zone maps only
    /// over-approximate, and the exact per-cluster filters re-run after
    /// decode on whatever survives. Pushdown per strategy:
    ///
    /// * `All` / `Gui` — the spatial scope `W` becomes a sensor-set
    ///   predicate (`Gui` still needs every in-scope candidate to compute
    ///   red zones, so severity stays in memory).
    /// * `Pru`, whole deployment — the day-scale significance floor is
    ///   pushed down too; quiet days are skipped as whole segments, and
    ///   the candidate count comes from segment metadata without
    ///   decoding a byte.
    /// * `Pru` with a bbox — scope-only pushdown, because the candidate
    ///   count (`Fig. 17(b)`'s denominator) is the number of in-scope
    ///   clusters *before* the severity floor, which only a decode of the
    ///   scope survivors can establish.
    ///
    /// `ids` names the generated macro-clusters; seed it at
    /// [`QUERY_ID_BASE`] for collision-free query-local ids.
    pub fn execute_stored(
        &self,
        store: &ForestStore,
        spec: WindowSpec,
        query: &Query,
        strategy: Strategy,
        ids: &mut ClusterIdGen,
    ) -> Result<QueryResult> {
        let start = Instant::now();
        let range = spec.day_range(query.first_day, query.n_days);

        // Resolve W: the sensor scope and count.
        let (scope, n_sensors): (Option<Vec<SensorId>>, u32) = match &query.bbox {
            Some(bbox) => {
                let sensors = self.network.sensors_in_bbox(bbox);
                let n = sensors.len() as u32;
                (Some(sensors), n)
            }
            None => (None, self.network.num_sensors() as u32),
        };
        let threshold = significance_threshold(&self.params, range, n_sensors);
        let day_threshold =
            significance_threshold(&self.params, spec.day_range(query.first_day, 1), n_sensors);

        let scope_pred = match &scope {
            Some(s) => Predicate::all().with_sensors(s.iter().copied()),
            None => Predicate::all(),
        };
        let severity_pushed = strategy == Strategy::Pru && scope.is_none();
        let pred = if severity_pushed {
            scope_pred.with_severity_above(day_threshold)
        } else {
            scope_pred
        };

        let mut candidate_clusters = 0usize;
        let mut decoded: Vec<AtypicalCluster> = Vec::new();
        for day in query.first_day..query.first_day + query.n_days {
            if let Some(f) = store.load_filtered(ForestLevel::Day, day, &pred)? {
                // With the floor pushed down the in-range candidate count
                // is the bucket total (scope is the whole deployment);
                // otherwise it is the number of exact scope matches.
                candidate_clusters += if severity_pushed {
                    f.total
                } else {
                    f.clusters.len()
                };
                decoded.extend(f.clusters);
            }
        }

        // Strategy-specific filtering on the decoded survivors.
        let mut num_red_regions = None;
        let inputs = match strategy {
            Strategy::All => decoded,
            Strategy::Pru => {
                if severity_pushed {
                    decoded // storage already applied the strict day floor
                } else {
                    decoded
                        .into_iter()
                        .filter(|c| c.severity() > day_threshold)
                        .collect()
                }
            }
            Strategy::Gui => {
                let zones =
                    RedZones::compute(&decoded, self.partition, &self.params, range, n_sensors);
                num_red_regions = Some(zones.num_red());
                let (kept, _pruned) = zones.filter(decoded, self.partition);
                kept
            }
        };
        let input_clusters = inputs.len();

        let alignment = TimeAlignment::TimeOfDay {
            windows_per_day: spec.windows_per_day(),
        };
        let (mut macros, integration) = integrate_aligned(inputs, &self.params, alignment, ids);

        let mut final_check_removed = 0;
        if self.final_check {
            let before = macros.len();
            macros.retain(|c| c.severity() > threshold);
            final_check_removed = before - macros.len();
        }

        Ok(QueryResult {
            strategy,
            macros,
            candidate_clusters,
            input_clusters,
            num_red_regions,
            threshold,
            n_sensors,
            range,
            elapsed: start.elapsed(),
            integration,
            final_check_removed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{SpatialFeature, TemporalFeature};
    use cps_core::ScratchDir;
    use cps_core::{ClusterId, Severity, TimeWindow, WindowSpec};
    use cps_geo::point::LOS_ANGELES;
    use cps_geo::UniformGrid;

    fn network() -> RoadNetwork {
        RoadNetwork::builder()
            .highway(
                "EW",
                vec![
                    LOS_ANGELES.offset_miles(0.0, -10.0),
                    LOS_ANGELES.offset_miles(0.0, 10.0),
                ],
                0.5,
            )
            .highway(
                "NS",
                vec![
                    LOS_ANGELES.offset_miles(-10.0, 0.0),
                    LOS_ANGELES.offset_miles(10.0, 0.0),
                ],
                0.5,
            )
            .build()
    }

    /// A micro-cluster over `n_sensors` sensors starting at `base`, one
    /// window each of `per_sensor_minutes`, on `day`.
    fn micro(
        id: u64,
        day: u32,
        base: u32,
        n_sensors: u32,
        per_sensor_minutes: f64,
    ) -> AtypicalCluster {
        let spec = WindowSpec::PEMS;
        let w0 = day * spec.windows_per_day() + 96;
        let sf: SpatialFeature = (base..base + n_sensors)
            .map(|s| {
                (
                    cps_core::SensorId::new(s),
                    Severity::from_minutes(per_sensor_minutes),
                )
            })
            .collect();
        let tf: TemporalFeature = (0..n_sensors)
            .map(|k| {
                (
                    TimeWindow::new(w0 + k),
                    Severity::from_minutes(per_sensor_minutes),
                )
            })
            .collect();
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    struct Fixture {
        network: RoadNetwork,
        partition: cps_geo::grid::SensorPartition,
        forest: AtypicalForest,
    }

    fn fixture() -> Fixture {
        let network = network();
        let partition = UniformGrid::over(&network, 3.0).partition(&network);
        let params = Params::paper_defaults();
        let mut forest = AtypicalForest::new(WindowSpec::PEMS, params);
        // 14 days: a strong recurring event at sensors 0–9 (2,500 min/day —
        // significant at the 14-day scale: threshold = 0.05·4032·N), plus
        // daily trivial noise at scattered sensors (3 min).
        for day in 0..14 {
            let mut micros = vec![micro(u64::from(day) * 100, day, 0, 10, 250.0)];
            for k in 0..5u32 {
                micros.push(micro(
                    u64::from(day) * 100 + u64::from(k) + 1,
                    day,
                    20 + k * 4,
                    1,
                    3.0,
                ));
            }
            forest.insert_day(day, micros);
        }
        Fixture {
            network,
            partition,
            forest,
        }
    }

    #[test]
    fn all_processes_every_candidate() {
        let mut fx = fixture();
        let engine = QueryEngine::new(&fx.network, &fx.partition, *fx.forest.params());
        let q = Query::days(0, 14);
        let r = engine.execute(&mut fx.forest, &q, Strategy::All);
        assert_eq!(r.candidate_clusters, 14 * 6);
        assert_eq!(r.input_clusters, r.candidate_clusters);
        assert!(r.num_red_regions.is_none());
        assert!(!r.macros.is_empty());
    }

    #[test]
    fn gui_prunes_but_keeps_all_significant() {
        let mut fx = fixture();
        let params = *fx.forest.params();
        let engine = QueryEngine::new(&fx.network, &fx.partition, params);
        let q = Query::days(0, 14);
        let all = engine.execute(&mut fx.forest, &q, Strategy::All);
        let gui = engine.execute(&mut fx.forest, &q, Strategy::Gui);
        assert!(
            gui.input_clusters < all.input_clusters,
            "gui {} vs all {}",
            gui.input_clusters,
            all.input_clusters
        );
        assert!(gui.num_red_regions.unwrap() > 0);
        // No false negatives: every significant All-cluster is matched by a
        // significant Gui-cluster.
        let truth = all.significant();
        let found = gui.significant();
        assert!(
            !truth.is_empty(),
            "fixture must produce significant clusters"
        );
        for t in &truth {
            let matched = found.iter().any(|g| {
                crate::similarity::similarity(g, t, cps_core::BalanceFunction::Max) >= 0.5
            });
            assert!(matched, "significant cluster lost by Gui");
        }
    }

    #[test]
    fn pru_reduces_inputs_most() {
        let mut fx = fixture();
        let params = *fx.forest.params();
        let engine = QueryEngine::new(&fx.network, &fx.partition, params);
        let q = Query::days(0, 14);
        let pru = engine.execute(&mut fx.forest, &q, Strategy::Pru);
        let gui = engine.execute(&mut fx.forest, &q, Strategy::Gui);
        assert!(pru.input_clusters <= gui.input_clusters);
    }

    #[test]
    fn bbox_restricts_scope_and_sensor_count() {
        let mut fx = fixture();
        let params = *fx.forest.params();
        let engine = QueryEngine::new(&fx.network, &fx.partition, params);
        let bbox = BoundingBox::of_point(LOS_ANGELES).inflated_miles(2.0);
        let q = Query::days(0, 7).in_bbox(bbox);
        let r = engine.execute(&mut fx.forest, &q, Strategy::All);
        assert!(r.n_sensors < fx.network.num_sensors() as u32);
        assert!(r.candidate_clusters < 7 * 6);
    }

    #[test]
    fn final_check_guarantees_precision() {
        let mut fx = fixture();
        let params = *fx.forest.params();
        let engine = QueryEngine::new(&fx.network, &fx.partition, params).with_final_check();
        let q = Query::days(0, 14);
        let r = engine.execute(&mut fx.forest, &q, Strategy::All);
        assert!(r.macros.iter().all(|c| c.severity() > r.threshold));
        assert!(r.final_check_removed > 0, "noise macros must be removed");
    }

    #[test]
    fn threshold_grows_with_query_range() {
        let mut fx = fixture();
        let params = *fx.forest.params();
        let engine = QueryEngine::new(&fx.network, &fx.partition, params);
        let week = engine.execute(&mut fx.forest, &Query::days(0, 7), Strategy::All);
        let fortnight = engine.execute(&mut fx.forest, &Query::days(0, 14), Strategy::All);
        assert_eq!(fortnight.threshold.as_secs(), 2 * week.threshold.as_secs());
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(Strategy::All.label(), "All");
        assert_eq!(Strategy::Pru.label(), "Pru");
        assert_eq!(Strategy::Gui.label(), "Gui");
    }

    /// `execute_stored` over the segment store must agree with in-memory
    /// `execute` on everything but wall-clock and macro ids — for every
    /// strategy, scoped and unscoped.
    #[test]
    fn stored_execution_matches_in_memory_on_both_backends() {
        let mut fx = fixture();
        let params = *fx.forest.params();
        let spec = fx.forest.spec();
        let engine = QueryEngine::new(&fx.network, &fx.partition, params);
        let bbox = BoundingBox::of_point(LOS_ANGELES).inflated_miles(2.0);
        let queries = [Query::days(0, 14), Query::days(2, 7).in_bbox(bbox)];

        let dir = ScratchDir::new("query-stored");
        let store = ForestStore::open(&dir).unwrap();
        store.save_forest_days(&fx.forest).unwrap();

        for query in &queries {
            for strategy in [Strategy::All, Strategy::Pru, Strategy::Gui] {
                let mem = engine.execute(&mut fx.forest, query, strategy);
                let mut ids = ClusterIdGen::new(QUERY_ID_BASE);
                let stored = engine
                    .execute_stored(&store, spec, query, strategy, &mut ids)
                    .unwrap();
                let tag = format!("{strategy:?} bbox={}", query.bbox.is_some());
                assert_eq!(stored.candidate_clusters, mem.candidate_clusters, "{tag}");
                assert_eq!(stored.input_clusters, mem.input_clusters, "{tag}");
                assert_eq!(stored.num_red_regions, mem.num_red_regions, "{tag}");
                assert_eq!(stored.threshold, mem.threshold, "{tag}");
                assert_eq!(stored.n_sensors, mem.n_sensors, "{tag}");
                assert_eq!(stored.range, mem.range, "{tag}");
                assert_eq!(stored.macros.len(), mem.macros.len(), "{tag}");
                for (s, m) in stored.macros.iter().zip(&mem.macros) {
                    assert_eq!(s.sf, m.sf, "{tag}");
                    assert_eq!(s.tf, m.tf, "{tag}");
                }
            }
        }
    }

    /// Whole-deployment `Pru` pushes the day floor into storage: quiet
    /// days must be skipped as whole segments with zero decoded bytes,
    /// and the candidate count must still equal the in-memory one.
    #[test]
    fn pru_pushdown_skips_quiet_days() {
        use crate::store::ForestStore;

        let mut fx = fixture();
        let params = *fx.forest.params();
        let spec = fx.forest.spec();
        // Two extra days with only trivial noise — whole segments a
        // severity floor refutes outright.
        for day in 14..16 {
            let micros = (0..4u32)
                .map(|k| micro(u64::from(day) * 100 + u64::from(k), day, 30 + k, 1, 2.0))
                .collect();
            fx.forest.insert_day(day, micros);
        }
        let engine = QueryEngine::new(&fx.network, &fx.partition, params);
        let dir = ScratchDir::new("pru-push");
        let store = ForestStore::open(&dir).unwrap();
        store.save_forest_days(&fx.forest).unwrap();

        let query = Query::days(0, 16);
        let mem = engine.execute(&mut fx.forest, &query, Strategy::Pru);
        let before = store.io_stats();
        let mut ids = ClusterIdGen::new(QUERY_ID_BASE);
        let stored = engine
            .execute_stored(&store, spec, &query, Strategy::Pru, &mut ids)
            .unwrap();
        let delta = store.io_stats().since(before);
        assert_eq!(stored.candidate_clusters, mem.candidate_clusters);
        assert_eq!(stored.input_clusters, mem.input_clusters);
        assert!(
            delta.segments_skipped >= 2,
            "quiet days must be skipped whole: {delta:?}"
        );
        assert!(delta.bytes_decoded < delta.bytes_read);
    }
}
