//! Recurrence profiles — the event-prediction hook (§VII future work).
//!
//! The forest's day-level micro-clusters are a history of where and when
//! atypical events occur. A [`RecurrenceProfile`] folds that history into
//! per-(sensor, hour-of-day) statistics, answering the paper's motivating
//! questions prospectively: *where do congestions usually happen* and *when
//! do they usually start*.
//!
//! Offline only: its callers are `repro predict`
//! (`cps-bench/src/figs/prediction.rs`) and the `forest_report` example;
//! the monitor does not use it.

use crate::forest::AtypicalForest;
use cps_core::fx::FxHashMap;
use cps_core::{SensorId, Severity};

/// Aggregated recurrence statistics per (sensor, hour-of-day).
#[derive(Debug, Default, Clone)]
pub struct RecurrenceProfile {
    /// (sensor, hour) → (total severity, days on which it was atypical).
    cells: FxHashMap<(SensorId, u32), (Severity, u32)>,
    n_days: u32,
}

impl RecurrenceProfile {
    /// Builds the profile from every day stored in the forest.
    pub fn from_forest(forest: &AtypicalForest) -> Self {
        let spec = forest.spec();
        let mut cells: FxHashMap<(SensorId, u32), (Severity, u32)> = FxHashMap::default();
        // Track which (sensor, hour, day) combinations were seen so the
        // day-count increments once per day.
        let mut n_days = 0;
        for day in forest.days().collect::<Vec<_>>() {
            n_days += 1;
            let mut seen_today: FxHashMap<(SensorId, u32), Severity> = FxHashMap::default();
            for cluster in forest.day(day) {
                // Distribute the cluster's per-sensor severity across the
                // hours its windows cover, proportionally to window mass.
                let tf_total = cluster.tf.total();
                if tf_total.is_zero() {
                    continue;
                }
                for (window, wsev) in cluster.tf.iter() {
                    let hour = spec.hour_of_day(window);
                    let fraction = wsev.fraction_of(tf_total);
                    for (sensor, ssev) in cluster.sf.iter() {
                        let share = ssev.scale(fraction);
                        if share.is_zero() {
                            continue;
                        }
                        *seen_today.entry((sensor, hour)).or_default() += share;
                    }
                }
            }
            for (key, sev) in seen_today {
                let cell = cells.entry(key).or_default();
                cell.0 += sev;
                cell.1 += 1;
            }
        }
        Self { cells, n_days }
    }

    /// Days of history folded in.
    pub fn n_days(&self) -> u32 {
        self.n_days
    }

    /// Risk score for (sensor, hour): fraction of history days with
    /// atypical activity there, weighted by mean severity. Zero when never
    /// seen.
    pub fn risk(&self, sensor: SensorId, hour: u32) -> f64 {
        let Some(&(sev, days)) = self.cells.get(&(sensor, hour)) else {
            return 0.0;
        };
        if self.n_days == 0 {
            return 0.0;
        }
        let frequency = f64::from(days) / f64::from(self.n_days);
        let mean_minutes = sev.as_minutes() / f64::from(days);
        frequency * mean_minutes
    }

    /// The `k` highest-risk sensors for a given hour of day.
    pub fn top_sensors(&self, hour: u32, k: usize) -> Vec<(SensorId, f64)> {
        let mut scored: Vec<(SensorId, f64)> = self
            .cells
            .keys()
            .filter(|&&(_, h)| h == hour)
            .map(|&(s, _)| (s, self.risk(s, hour)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// Hourly risk curve for one sensor (24 values).
    pub fn hourly_curve(&self, sensor: SensorId) -> [f64; 24] {
        let mut out = [0.0; 24];
        for (h, slot) in out.iter_mut().enumerate() {
            *slot = self.risk(sensor, h as u32);
        }
        out
    }
}

/// Hold-out evaluation of the recurrence profile: hit rate of the top-`k`
/// predicted sensors against a day that was *not* in the training history.
///
/// Returns the fraction of hours `h ∈ hours` for which at least one of the
/// `k` highest-risk sensors was actually atypical at hour `h` on the
/// held-out day — a simple operational metric: "if we staffed the top-k
/// sites, would we have caught something?".
pub fn holdout_hit_rate(
    profile: &RecurrenceProfile,
    holdout_day: &[crate::cluster::AtypicalCluster],
    spec: cps_core::WindowSpec,
    hours: &[u32],
    k: usize,
) -> f64 {
    if hours.is_empty() {
        return 0.0;
    }
    // Actual (sensor, hour) activity on the held-out day.
    let mut actual: cps_core::fx::FxHashSet<(SensorId, u32)> = Default::default();
    for cluster in holdout_day {
        for (window, _) in cluster.tf.iter() {
            let hour = spec.hour_of_day(window);
            for (sensor, _) in cluster.sf.iter() {
                actual.insert((sensor, hour));
            }
        }
    }
    let hits = hours
        .iter()
        .filter(|&&h| {
            profile
                .top_sensors(h, k)
                .iter()
                .any(|&(s, _)| actual.contains(&(s, h)))
        })
        .count();
    hits as f64 / hours.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::AtypicalCluster;
    use crate::feature::{SpatialFeature, TemporalFeature};
    use crate::pipeline::build_forest_from_records;
    use cps_core::{ClusterId, Params, TimeWindow, WindowSpec};
    use cps_sim::{Scale, SimConfig, TrafficSim};

    /// A micro-cluster at sensor `s`, hour `h` of `day`, 30 minutes.
    fn micro(id: u64, day: u32, s: u32, h: u32) -> AtypicalCluster {
        let spec = WindowSpec::PEMS;
        let w = day * spec.windows_per_day() + h * spec.windows_per_hour();
        let sf: SpatialFeature =
            std::iter::once((SensorId::new(s), Severity::from_minutes(30.0))).collect();
        let tf: TemporalFeature =
            std::iter::once((TimeWindow::new(w), Severity::from_minutes(30.0))).collect();
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    fn forest() -> AtypicalForest {
        let mut f = AtypicalForest::new(WindowSpec::PEMS, Params::paper_defaults());
        // Sensor 1 congests at 8am every day; sensor 2 once at 5pm.
        for day in 0..10 {
            let mut micros = vec![micro(u64::from(day) * 10, day, 1, 8)];
            if day == 3 {
                micros.push(micro(u64::from(day) * 10 + 1, day, 2, 17));
            }
            f.insert_day(day, micros);
        }
        f
    }

    #[test]
    fn recurring_sensor_scores_higher_than_one_off() {
        let p = RecurrenceProfile::from_forest(&forest());
        assert_eq!(p.n_days(), 10);
        let recurring = p.risk(SensorId::new(1), 8);
        let one_off = p.risk(SensorId::new(2), 17);
        assert!(recurring > one_off, "{recurring} vs {one_off}");
        assert_eq!(p.risk(SensorId::new(1), 12), 0.0);
        assert_eq!(p.risk(SensorId::new(99), 8), 0.0);
    }

    #[test]
    fn top_sensors_ranked() {
        let p = RecurrenceProfile::from_forest(&forest());
        let top = p.top_sensors(8, 5);
        assert_eq!(top[0].0, SensorId::new(1));
        assert!(top[0].1 > 0.0);
        assert!(p.top_sensors(3, 5).is_empty());
    }

    #[test]
    fn hourly_curve_peaks_at_rush_hour() {
        let p = RecurrenceProfile::from_forest(&forest());
        let curve = p.hourly_curve(SensorId::new(1));
        let peak_hour = curve
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak_hour, 8);
    }

    #[test]
    fn holdout_prediction_beats_chance_on_simulated_traffic() {
        // Train on days 0–9, hold out day 10: the eternal major corridors
        // recur, so the top-5 predicted sensors at rush hours should
        // regularly be atypical on the held-out day.
        let sim = TrafficSim::new(SimConfig::new(Scale::Tiny, 42));
        let params = cps_core::Params::paper_defaults();
        let spec = sim.config().spec;
        let built = build_forest_from_records(
            (0..10).map(|d| (d, sim.atypical_day(d))),
            sim.network(),
            &params,
            spec,
        );
        let profile = RecurrenceProfile::from_forest(&built.forest);
        let holdout = build_forest_from_records(
            std::iter::once((10, sim.atypical_day(10))),
            sim.network(),
            &params,
            spec,
        );
        let rush_hours = [8u32, 9, 17, 18];
        let hit = holdout_hit_rate(&profile, holdout.forest.day(10), spec, &rush_hours, 5);
        // Day 10 is a weekday; majors fire with p≈0.9, so expect most rush
        // hours covered.
        assert!(hit >= 0.5, "hit rate {hit}");
        // Sanity: predicting for 3am should find nothing to hit.
        let off_peak = holdout_hit_rate(&profile, holdout.forest.day(10), spec, &[3], 5);
        assert!(off_peak <= hit);
    }

    #[test]
    fn empty_forest_is_safe() {
        let f = AtypicalForest::new(WindowSpec::PEMS, Params::paper_defaults());
        let p = RecurrenceProfile::from_forest(&f);
        assert_eq!(p.n_days(), 0);
        assert_eq!(p.risk(SensorId::new(1), 8), 0.0);
    }
}
