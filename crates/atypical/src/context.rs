//! Context-dimension joins (§V-D).
//!
//! "The weather dimension can be joined with temporal dimension with the
//! date and the accident dimension can be joined with temporal and spatial
//! dimensions by the accident time and location." Both joins are generic:
//! any per-day label stream and any point-event stream work, so the module
//! has no dependency on a specific simulator.
//!
//! Offline only: its callers are `repro context`
//! (`cps-bench/src/figs/context.rs`) and the `forest_report` example;
//! the monitor does not use it.

use crate::cluster::AtypicalCluster;
use cps_core::fx::FxHashMap;
use cps_core::{SensorId, Severity, TimeWindow, WindowSpec};

/// Per-day labels (weather conditions, holidays, …).
#[derive(Clone, Debug, Default)]
pub struct DayLabels<L: Clone> {
    labels: FxHashMap<u32, L>,
}

impl<L: Clone> DayLabels<L> {
    /// Builds from `(day, label)` pairs; later pairs win.
    pub fn from_pairs<I: IntoIterator<Item = (u32, L)>>(pairs: I) -> Self {
        Self {
            labels: pairs.into_iter().collect(),
        }
    }

    /// Label of one day.
    pub fn get(&self, day: u32) -> Option<&L> {
        self.labels.get(&day)
    }

    /// Severity-weighted label distribution of a cluster: how much of the
    /// cluster's severity fell on days with each label.
    pub fn distribution(&self, cluster: &AtypicalCluster, spec: WindowSpec) -> Vec<(L, Severity)>
    where
        L: PartialEq,
    {
        let mut out: Vec<(L, Severity)> = Vec::new();
        for (window, severity) in cluster.tf.iter() {
            let Some(label) = self.get(spec.day_of(window)) else {
                continue;
            };
            match out.iter_mut().find(|(l, _)| l == label) {
                Some((_, s)) => *s += severity,
                None => out.push((label.clone(), severity)),
            }
        }
        out
    }

    /// The label carrying the most of the cluster's severity.
    pub fn dominant(&self, cluster: &AtypicalCluster, spec: WindowSpec) -> Option<L>
    where
        L: PartialEq,
    {
        self.distribution(cluster, spec)
            .into_iter()
            .max_by_key(|&(_, s)| s)
            .map(|(l, _)| l)
    }
}

/// A point event in (sensor, window) space — e.g. an accident report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PointEvent {
    /// Sensor nearest the event.
    pub sensor: SensorId,
    /// Window the event was reported in.
    pub window: TimeWindow,
}

/// Joins point events onto a cluster: an event is *linked* when its sensor
/// is in the cluster's spatial feature and its window within
/// `slack_windows` of some covered window (an accident just before the jam
/// forms still counts).
pub fn linked_events<'a>(
    cluster: &AtypicalCluster,
    events: &'a [PointEvent],
    slack_windows: u32,
) -> Vec<&'a PointEvent> {
    let Some((w_lo, w_hi)) = cluster.tf.key_span() else {
        return Vec::new();
    };
    let lo = w_lo.raw().saturating_sub(slack_windows);
    let hi = w_hi.raw().saturating_add(slack_windows);
    events
        .iter()
        .filter(|e| e.window.raw() >= lo && e.window.raw() <= hi && cluster.sf.contains(e.sensor))
        .collect()
}

/// Clusters whose dominant label equals `wanted` — "show me the congestions
/// related to bad weather".
pub fn clusters_with_label<'a, L: Clone + PartialEq>(
    clusters: &'a [AtypicalCluster],
    labels: &DayLabels<L>,
    spec: WindowSpec,
    wanted: &L,
) -> Vec<&'a AtypicalCluster> {
    clusters
        .iter()
        .filter(|c| labels.dominant(c, spec).as_ref() == Some(wanted))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{SpatialFeature, TemporalFeature};
    use cps_core::ClusterId;

    fn cluster_on_windows(windows: &[(u32, f64)], sensors: &[u32]) -> AtypicalCluster {
        let tf: TemporalFeature = windows
            .iter()
            .map(|&(w, m)| (TimeWindow::new(w), Severity::from_minutes(m)))
            .collect();
        let total = tf.total();
        let per = Severity::from_secs(total.as_secs() / sensors.len() as u64);
        let mut sf: SpatialFeature = sensors.iter().map(|&s| (SensorId::new(s), per)).collect();
        // Fix rounding drift so the invariant holds.
        let drift = total.saturating_sub(sf.total());
        if !drift.is_zero() {
            sf.add(SensorId::new(sensors[0]), drift);
        }
        AtypicalCluster::new(ClusterId::new(1), sf, tf)
    }

    #[test]
    fn dominant_label_follows_severity_mass() {
        let spec = WindowSpec::PEMS;
        let labels = DayLabels::from_pairs([(0u32, "clear"), (1, "rain")]);
        // 100 min on day 0, 300 min on day 1.
        let c = cluster_on_windows(&[(100, 100.0), (388, 300.0)], &[1, 2]);
        assert_eq!(labels.dominant(&c, spec), Some("rain"));
        let dist = labels.distribution(&c, spec);
        assert_eq!(dist.len(), 2);
    }

    #[test]
    fn unlabeled_days_are_skipped() {
        let spec = WindowSpec::PEMS;
        let labels: DayLabels<&str> = DayLabels::from_pairs([(0u32, "clear")]);
        let c = cluster_on_windows(&[(10_000, 300.0)], &[1]);
        assert_eq!(labels.dominant(&c, spec), None);
        assert!(labels.get(34).is_none());
    }

    #[test]
    fn linked_events_need_space_and_time_overlap() {
        let c = cluster_on_windows(&[(100, 50.0), (101, 50.0)], &[1, 2]);
        let events = vec![
            PointEvent {
                sensor: SensorId::new(1),
                window: TimeWindow::new(99),
            }, // slack hit
            PointEvent {
                sensor: SensorId::new(1),
                window: TimeWindow::new(50),
            }, // too early
            PointEvent {
                sensor: SensorId::new(9),
                window: TimeWindow::new(100),
            }, // wrong place
            PointEvent {
                sensor: SensorId::new(2),
                window: TimeWindow::new(101),
            }, // direct hit
        ];
        let linked = linked_events(&c, &events, 2);
        assert_eq!(linked.len(), 2);
        assert!(linked.iter().all(|e| e.sensor.raw() <= 2));
    }

    #[test]
    fn filter_by_label() {
        let spec = WindowSpec::PEMS;
        let labels = DayLabels::from_pairs([(0u32, "clear"), (1, "rain")]);
        let clear_day = cluster_on_windows(&[(100, 100.0)], &[1]);
        let rain_day = cluster_on_windows(&[(388, 100.0)], &[2]);
        let clusters = vec![clear_day, rain_day];
        let rainy = clusters_with_label(&clusters, &labels, spec, &"rain");
        assert_eq!(rainy.len(), 1);
        assert!(rainy[0].sf.contains(SensorId::new(2)));
    }

    #[test]
    fn empty_cluster_links_nothing() {
        let c = AtypicalCluster::new(
            ClusterId::new(1),
            SpatialFeature::new(),
            TemporalFeature::new(),
        );
        let events = vec![PointEvent {
            sensor: SensorId::new(1),
            window: TimeWindow::new(1),
        }];
        assert!(linked_events(&c, &events, 5).is_empty());
    }
}
