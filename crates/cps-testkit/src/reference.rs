//! Independent reference for the monitor's guided read path.
//!
//! The serving layer answers red-region and guided queries from
//! incrementally maintained per-day `F` vectors and pushes the red-region
//! sensor set down into the segment store. The reference here recomputes
//! the same answers the batch way — [`RedZones::compute`] over the range's
//! micro-clusters, [`RedZones::filter`], then time-of-day-aligned
//! integration — sharing nothing with that code but the micro-clusters
//! themselves.

use atypical::integrate::{integrate_aligned, TimeAlignment};
use atypical::redzone::RedZones;
use atypical::QUERY_ID_BASE;
use cps_core::ids::ClusterIdGen;
use cps_core::{Params, RegionId, Severity, WindowSpec};
use cps_geo::grid::SensorPartition;
use cps_monitor::{GuidedQuery, ReadView};

/// What `view.red_regions(first, n)` and `view.query_guided(first, n)`
/// must answer over whole days `[first, first + n)`, bit for bit (merge
/// ids included: both sides number them from [`QUERY_ID_BASE`]).
/// `partition`, `params`, `spec` and `n_sensors` describe the deployment
/// the view's service was started on.
///
/// # Panics
/// If a day's micro-clusters cannot be read through `view`.
pub fn reference_guided(
    view: &ReadView,
    partition: &SensorPartition,
    params: &Params,
    spec: WindowSpec,
    n_sensors: u32,
    first: u32,
    n: u32,
) -> (Vec<(RegionId, Severity)>, GuidedQuery) {
    let mut micros = Vec::new();
    for day in first..first.saturating_add(n) {
        let day_micros = view
            .micro_clusters_for_day(day)
            .expect("reference: reading a day's micro-clusters");
        micros.extend(day_micros.iter().cloned());
    }
    let range = spec.day_range(first, n);
    let zones = RedZones::compute(&micros, partition, params, range, n_sensors);
    let red = (0..partition.num_regions())
        .map(RegionId::new)
        .filter(|&r| zones.is_red(r))
        .map(|r| (r, zones.f_value(r)))
        .collect();
    let candidate_clusters = micros.len();
    let (inputs, _pruned) = zones.filter(micros, partition);
    let input_clusters = inputs.len();
    let alignment = TimeAlignment::TimeOfDay {
        windows_per_day: spec.windows_per_day(),
    };
    let mut ids = ClusterIdGen::new(QUERY_ID_BASE);
    let (macros, _stats) = integrate_aligned(inputs, params, alignment, &mut ids);
    let guided = GuidedQuery {
        range,
        macros,
        threshold: zones.threshold(),
        num_red_regions: zones.num_red(),
        candidate_clusters,
        input_clusters,
    };
    (red, guided)
}
