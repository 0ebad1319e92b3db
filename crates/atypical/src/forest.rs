//! The atypical forest: hierarchical clustering trees (§III-C).
//!
//! Micro-clusters of each day sit at the leaves; macro-clusters are
//! integrated level by level (day → week → month). Because merging is
//! commutative and associative (Property 3), a month can be integrated from
//! its weeks' macro-clusters instead of re-clustering 30 days of micros —
//! that is the hierarchical speed-up the forest exists for. Multiple
//! aggregation paths (calendar weeks vs a weekday/weekend split) form the
//! different *trees* of the forest; which levels are materialized is a
//! storage/latency trade-off (§IV notes only low levels are usually
//! pre-computed).
//!
//! Batch materialization ([`AtypicalForest::materialize_range`],
//! [`ensure_weeks`](AtypicalForest::ensure_weeks)) fans independent
//! sibling nodes out over [`Params::parallelism`] worker threads and
//! commits results in canonical node-path order (ascending week index,
//! then ascending month index), so the materialized forest — fresh merge
//! ids included — is bit-identical at every thread count (see
//! `crate::par`).

use crate::cluster::AtypicalCluster;
use crate::integrate::{integrate_aligned, IntegrationStats, TimeAlignment};
use crate::par::integrate_siblings;
use cps_core::fx::FxHashMap;
use cps_core::ids::ClusterIdGen;
use cps_core::{Params, TimeRange, WindowSpec};
use std::collections::BTreeMap;

/// Aggregation paths supported by the forest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggregationPath {
    /// day → calendar week → month.
    Calendar,
    /// day → {weekday, weekend} groups per week → month.
    WeekdayWeekend,
}

/// Which levels a [`AtypicalForest::materialize_range`] call built, in
/// the canonical order they were committed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MaterializedLevels {
    /// Week indices covered by the range (whole weeks only).
    pub weeks: Vec<u32>,
    /// Month indices covered by the range (whole months only).
    pub months: Vec<u32>,
}

/// Partially materialized forest of atypical clusters.
#[derive(Debug)]
pub struct AtypicalForest {
    spec: WindowSpec,
    params: Params,
    /// Day-level micro-clusters (always materialized).
    days: BTreeMap<u32, Vec<AtypicalCluster>>,
    /// Cached week-level macro-clusters, by week index.
    weeks: FxHashMap<u32, Vec<AtypicalCluster>>,
    /// Cached month-level macro-clusters, by month index.
    months: FxHashMap<u32, Vec<AtypicalCluster>>,
    ids: ClusterIdGen,
    /// Counters accumulated across every roll-up integration this forest
    /// has run — comparisons saved by the indexed path (candidates pruned,
    /// bound skips) are observable here.
    integration_stats: IntegrationStats,
}

impl AtypicalForest {
    /// Creates an empty forest.
    pub fn new(spec: WindowSpec, params: Params) -> Self {
        Self {
            spec,
            params,
            days: BTreeMap::new(),
            weeks: FxHashMap::default(),
            months: FxHashMap::default(),
            ids: ClusterIdGen::new(1_000_000),
            integration_stats: IntegrationStats::default(),
        }
    }

    /// The time discretization.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// The clustering parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The forest's roll-up alignment: recurring daily events at the same
    /// clock time integrate across days.
    fn alignment(&self) -> TimeAlignment {
        TimeAlignment::TimeOfDay {
            windows_per_day: self.spec.windows_per_day(),
        }
    }

    /// Integration with the forest's time-of-day alignment, through the
    /// indexed [`integrate_aligned`].
    fn run_integration(&mut self, inputs: Vec<AtypicalCluster>) -> Vec<AtypicalCluster> {
        let alignment = self.alignment();
        let (macros, stats) = integrate_aligned(inputs, &self.params, alignment, &mut self.ids);
        self.integration_stats.absorb(stats);
        macros
    }

    /// Integrates independent sibling nodes, fanning them out over
    /// [`Params::parallelism`] workers and committing results in node
    /// order — bit-identical to integrating each node sequentially.
    fn run_sibling_integrations(
        &mut self,
        nodes: Vec<Vec<AtypicalCluster>>,
    ) -> Vec<Vec<AtypicalCluster>> {
        let alignment = self.alignment();
        let threads = self.params.effective_parallelism();
        let (outs, stats) =
            integrate_siblings(nodes, &self.params, alignment, &mut self.ids, threads);
        self.integration_stats.absorb(stats);
        outs
    }

    /// Counters accumulated across all roll-up integrations so far.
    pub fn integration_stats(&self) -> IntegrationStats {
        self.integration_stats
    }

    /// Inserts (replaces) the micro-clusters of one day and invalidates the
    /// cached levels above it.
    pub fn insert_day(&mut self, day: u32, micros: Vec<AtypicalCluster>) {
        self.weeks.remove(&(day / 7));
        self.months.remove(&(day / 30));
        self.days.insert(day, micros);
    }

    /// Days present, in order.
    pub fn days(&self) -> impl Iterator<Item = u32> + '_ {
        self.days.keys().copied()
    }

    /// Micro-clusters of one day (empty slice if absent).
    pub fn day(&self, day: u32) -> &[AtypicalCluster] {
        self.days.get(&day).map_or(&[], Vec::as_slice)
    }

    /// Total number of stored micro-clusters.
    pub fn num_micro_clusters(&self) -> usize {
        self.days.values().map(Vec::len).sum()
    }

    /// Clones all micro-clusters of days `[first, first + n)` — the input
    /// set an online query starts from.
    pub fn micros_in_days(&self, first_day: u32, n_days: u32) -> Vec<AtypicalCluster> {
        self.days
            .range(first_day..first_day + n_days)
            .flat_map(|(_, v)| v.iter().cloned())
            .collect()
    }

    /// The window range covering days `[first, first + n)`.
    pub fn day_window_range(&self, first_day: u32, n_days: u32) -> TimeRange {
        self.spec.day_range(first_day, n_days)
    }

    /// The whole weeks inside `[first_day, last_day]` — the weeks the
    /// hierarchical assembly of that range draws from the week cache.
    /// Mirrors [`range_inputs`](Self::range_inputs) exactly.
    fn whole_weeks_in_range(first_day: u32, last_day: u32) -> Vec<u32> {
        let mut weeks = Vec::new();
        let mut day = first_day;
        while day <= last_day {
            let week = day / 7;
            let week_start = week * 7;
            let week_end = week_start + 6;
            if day == week_start && week_end <= last_day {
                weeks.push(week);
                day = week_end + 1;
            } else {
                day += 1;
            }
        }
        weeks
    }

    /// The hierarchical input set of `[first_day, last_day]`: materialized
    /// week levels where a whole week is covered, raw day leaves otherwise.
    /// The covered whole weeks must already be materialized (see
    /// [`ensure_weeks`](Self::ensure_weeks)).
    fn range_inputs(&self, first_day: u32, last_day: u32) -> Vec<AtypicalCluster> {
        let mut inputs: Vec<AtypicalCluster> = Vec::new();
        let mut day = first_day;
        while day <= last_day {
            let week = day / 7;
            let week_start = week * 7;
            let week_end = week_start + 6;
            if day == week_start && week_end <= last_day {
                let macros = self
                    .weeks
                    .get(&week)
                    .expect("whole week materialized by ensure_weeks");
                inputs.extend(macros.iter().cloned());
                day = week_end + 1;
            } else {
                inputs.extend(self.day(day).to_vec());
                day += 1;
            }
        }
        inputs
    }

    /// Materializes the given week levels. Uncached weeks are integrated
    /// as parallel sibling nodes and committed in ascending week order —
    /// the order the sequential pull API integrates them — so the cache
    /// contents (ids included) are independent of the thread count.
    pub fn ensure_weeks(&mut self, weeks: &[u32]) {
        let mut missing: Vec<u32> = weeks
            .iter()
            .copied()
            .filter(|w| !self.weeks.contains_key(w))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        if missing.is_empty() {
            return;
        }
        let nodes: Vec<Vec<AtypicalCluster>> = missing
            .iter()
            .map(|&w| self.micros_in_days(w * 7, 7))
            .collect();
        let outs = self.run_sibling_integrations(nodes);
        for (w, macros) in missing.into_iter().zip(outs) {
            self.weeks.insert(w, macros);
        }
    }

    /// Materializes the given month levels: first the whole weeks they
    /// draw from (ascending, in parallel), then the uncached months as
    /// parallel sibling nodes committed in ascending month order.
    pub fn ensure_months(&mut self, months: &[u32]) {
        let mut missing: Vec<u32> = months
            .iter()
            .copied()
            .filter(|m| !self.months.contains_key(m))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        if missing.is_empty() {
            return;
        }
        // A 30-day month spans parts of weeks ⌊30m/7⌋ ..= ⌊(30m+29)/7⌋;
        // only the weeks entirely inside the month feed from the week
        // cache, the straddling edges enter as raw days.
        let weeks: Vec<u32> = missing
            .iter()
            .flat_map(|&m| Self::whole_weeks_in_range(m * 30, m * 30 + 29))
            .collect();
        self.ensure_weeks(&weeks);
        let nodes: Vec<Vec<AtypicalCluster>> = missing
            .iter()
            .map(|&m| self.range_inputs(m * 30, m * 30 + 29))
            .collect();
        let outs = self.run_sibling_integrations(nodes);
        for (m, macros) in missing.into_iter().zip(outs) {
            self.months.insert(m, macros);
        }
    }

    /// Week-level macro-clusters (integrated from the week's days,
    /// memoized).
    pub fn week(&mut self, week: u32) -> &[AtypicalCluster] {
        self.ensure_weeks(&[week]);
        &self.weeks[&week]
    }

    /// Month-level macro-clusters, integrated hierarchically from the
    /// month's (30-day / ~4.3-week) week levels.
    pub fn month(&mut self, month: u32) -> &[AtypicalCluster] {
        self.ensure_months(&[month]);
        &self.months[&month]
    }

    /// Materializes every week and month level whose span lies entirely
    /// inside days `[first_day, first_day + n_days)`, level by level:
    /// all weeks fan out first (ascending), then all months (ascending).
    /// Output is bit-identical at every [`Params::parallelism`] setting.
    pub fn materialize_range(&mut self, first_day: u32, n_days: u32) -> MaterializedLevels {
        let last_day = first_day + n_days - 1;
        let weeks = Self::whole_weeks_in_range(first_day, last_day);
        self.ensure_weeks(&weeks);
        let months: Vec<u32> = (first_day.div_ceil(30)..)
            .take_while(|m| m * 30 + 29 <= last_day)
            .collect();
        self.ensure_months(&months);
        MaterializedLevels { weeks, months }
    }

    /// Integrates an arbitrary day range, reusing materialized week levels
    /// where whole weeks are covered.
    pub fn integrate_days(&mut self, first_day: u32, n_days: u32) -> Vec<AtypicalCluster> {
        let last_day = first_day + n_days - 1;
        self.ensure_weeks(&Self::whole_weeks_in_range(first_day, last_day));
        let inputs = self.range_inputs(first_day, last_day);
        self.run_integration(inputs)
    }

    /// Integrates a day range along an aggregation path. The
    /// weekday/weekend path returns `(weekday macros, weekend macros)` —
    /// two separate trees of the forest over the same leaves.
    pub fn integrate_by_path(
        &mut self,
        first_day: u32,
        n_days: u32,
        path: AggregationPath,
    ) -> Vec<(String, Vec<AtypicalCluster>)> {
        match path {
            AggregationPath::Calendar => {
                vec![(
                    "calendar".to_string(),
                    self.integrate_days(first_day, n_days),
                )]
            }
            AggregationPath::WeekdayWeekend => {
                let mut weekday = Vec::new();
                let mut weekend = Vec::new();
                for day in first_day..first_day + n_days {
                    let start = cps_core::TimeWindow::new(day * self.spec.windows_per_day());
                    let bucket = if self.spec.is_weekend(start) {
                        &mut weekend
                    } else {
                        &mut weekday
                    };
                    bucket.extend(self.day(day).to_vec());
                }
                // The two trees are independent siblings; canonical order
                // is weekday first, matching the sequential path.
                let mut outs = self
                    .run_sibling_integrations(vec![weekday, weekend])
                    .into_iter();
                let weekday_macros = outs.next().unwrap_or_default();
                let weekend_macros = outs.next().unwrap_or_default();
                vec![
                    ("weekday".to_string(), weekday_macros),
                    ("weekend".to_string(), weekend_macros),
                ]
            }
        }
    }

    /// Approximate memory footprint of the materialized forest (Figure 16's
    /// `AC` series counts the micro-cluster level).
    pub fn approx_bytes(&self) -> usize {
        self.days
            .values()
            .flat_map(|v| v.iter())
            .map(AtypicalCluster::approx_bytes)
            .sum()
    }

    /// Borrows the id generator (query engines allocate merge ids from the
    /// same sequence for reproducibility).
    pub fn id_gen(&mut self) -> &mut ClusterIdGen {
        &mut self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{SpatialFeature, TemporalFeature};
    use cps_core::{ClusterId, SensorId, Severity, TimeWindow};

    /// A micro-cluster at (sensor block, one window of `day`).
    fn micro(id: u64, day: u32, base_sensor: u32) -> AtypicalCluster {
        let spec = WindowSpec::PEMS;
        let w = day * spec.windows_per_day() + 100;
        let sf: SpatialFeature = (base_sensor..base_sensor + 3)
            .map(|s| (SensorId::new(s), Severity::from_minutes(10.0)))
            .collect();
        let tf: TemporalFeature = (w..w + 3)
            .map(|t| (TimeWindow::new(t), Severity::from_minutes(10.0)))
            .collect();
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    fn forest_with_days(n_days: u32) -> AtypicalForest {
        let mut f = AtypicalForest::new(WindowSpec::PEMS, Params::paper_defaults());
        for day in 0..n_days {
            // Two micros per day: a recurring one at sensors 0.. and a
            // roaming one.
            f.insert_day(
                day,
                vec![
                    micro(u64::from(day) * 2, day, 0),
                    micro(u64::from(day) * 2 + 1, day, 20 + day * 5),
                ],
            );
        }
        f
    }

    #[test]
    fn day_storage_roundtrip() {
        let f = forest_with_days(3);
        assert_eq!(f.days().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(f.day(1).len(), 2);
        assert_eq!(f.day(9).len(), 0);
        assert_eq!(f.num_micro_clusters(), 6);
        assert_eq!(f.micros_in_days(0, 2).len(), 4);
        assert!(f.approx_bytes() > 0);
    }

    #[test]
    fn week_level_is_memoized() {
        let mut f = forest_with_days(7);
        let w0 = f.week(0).to_vec();
        let w0_again = f.week(0).to_vec();
        assert_eq!(w0, w0_again);
        assert!(!w0.is_empty());
    }

    #[test]
    fn week_level_merges_recurring_but_not_roaming_micros() {
        // The recurring micro (same sensors, same clock windows every day)
        // integrates across the week under time-of-day alignment; the
        // roaming micro moves 5 sensors per day, so spatial similarity is 0
        // and ½(0 + 1) = 0.5 does not clear the strict δsim = 0.5.
        let mut f = forest_with_days(7);
        let week = f.week(0);
        assert_eq!(week.len(), 8, "1 merged recurring + 7 roaming");
        let merged = week.iter().find(|c| c.merged_count == 7);
        assert!(merged.is_some(), "recurring event must integrate");
    }

    #[test]
    fn lower_delta_sim_merges_recurring_events() {
        let params = Params::paper_defaults().with_delta_sim(0.4);
        let mut f = AtypicalForest::new(WindowSpec::PEMS, params);
        for day in 0..7 {
            f.insert_day(day, vec![micro(u64::from(day), day, 0)]);
        }
        let week = f.week(0);
        assert_eq!(week.len(), 1, "recurring event should integrate");
        assert_eq!(week[0].merged_count, 7);
    }

    #[test]
    fn insert_invalidates_caches() {
        let mut f = forest_with_days(7);
        let before = f.week(0).len(); // 8: merged recurring + 7 roaming
        f.insert_day(3, vec![]);
        let after = f.week(0).len(); // 7: merged recurring (6 days) + 6 roaming
        assert_eq!(after, before - 1);
    }

    #[test]
    fn integrate_days_covers_partial_weeks() {
        let mut f = forest_with_days(20);
        // Days 5..15 cover a partial week, a full week, a partial week.
        let out = f.integrate_days(5, 10);
        let merged: u32 = out.iter().map(|c| c.merged_count).sum();
        assert_eq!(merged, 20, "every micro in range accounted once");
    }

    #[test]
    fn month_uses_weeks_and_accounts_all_micros() {
        let mut f = forest_with_days(30);
        let month = f.month(0).to_vec();
        let merged: u32 = month.iter().map(|c| c.merged_count).sum();
        assert_eq!(merged, 60);
    }

    #[test]
    fn weekday_weekend_path_splits_leaves() {
        let mut f = forest_with_days(14);
        let parts = f.integrate_by_path(0, 14, AggregationPath::WeekdayWeekend);
        assert_eq!(parts.len(), 2);
        let weekday_micros: u32 = parts[0].1.iter().map(|c| c.merged_count).sum();
        let weekend_micros: u32 = parts[1].1.iter().map(|c| c.merged_count).sum();
        assert_eq!(weekday_micros, 20); // 10 weekdays × 2
        assert_eq!(weekend_micros, 8); // 4 weekend days × 2
        let calendar = f.integrate_by_path(0, 14, AggregationPath::Calendar);
        assert_eq!(calendar.len(), 1);
    }

    #[test]
    fn rollups_accumulate_integration_stats() {
        let mut f = forest_with_days(7);
        assert_eq!(f.integration_stats(), IntegrationStats::default());
        let _ = f.week(0);
        let stats = f.integration_stats();
        assert!(stats.merges > 0, "recurring micros integrate");
        // Roaming micros share folded windows but no sensors with the
        // recurring ones: the one-sided bound caps those pairs at exactly
        // ½·(0 + 1) = 0.5 = δsim, so the indexed path skips them without
        // an exact evaluation.
        assert!(stats.bound_skips > 0, "disjoint-sensor pairs bound-skipped");
        let after_first = stats;
        let _ = f.week(0); // memoized — no further integration work
        assert_eq!(f.integration_stats(), after_first);
    }

    #[test]
    fn materialize_range_is_bit_identical_across_thread_counts() {
        let build = |threads: usize| {
            let params = Params::paper_defaults().with_parallelism(threads);
            let mut f = AtypicalForest::new(WindowSpec::PEMS, params);
            for day in 0..60 {
                f.insert_day(
                    day,
                    vec![
                        micro(u64::from(day) * 2, day, 0),
                        micro(u64::from(day) * 2 + 1, day, 20 + day * 5),
                    ],
                );
            }
            let levels = f.materialize_range(0, 60);
            let weeks: Vec<Vec<AtypicalCluster>> =
                levels.weeks.iter().map(|&w| f.week(w).to_vec()).collect();
            let months: Vec<Vec<AtypicalCluster>> =
                levels.months.iter().map(|&m| f.month(m).to_vec()).collect();
            (
                levels,
                weeks,
                months,
                f.integration_stats(),
                f.id_gen().peek(),
            )
        };
        let seq = build(1);
        assert_eq!(seq.0.weeks, (0..8).collect::<Vec<u32>>());
        assert_eq!(seq.0.months, vec![0, 1]);
        for threads in [2, 3, 8] {
            let par = build(threads);
            assert_eq!(par, seq, "{threads} threads");
        }
    }

    #[test]
    fn hierarchical_integration_matches_flat_severity() {
        let mut f = forest_with_days(14);
        let flat: Severity = f.micros_in_days(0, 14).iter().map(|c| c.severity()).sum();
        let hier: Severity = f.integrate_days(0, 14).iter().map(|c| c.severity()).sum();
        assert_eq!(flat, hier, "severity is conserved through the hierarchy");
    }
}
