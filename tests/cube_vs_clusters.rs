//! Cross-model consistency: the CubeView baseline (MC) and the atypical
//! forest aggregate the *same* atypical records, so their distributive
//! totals must agree exactly — Property 4 across two independent
//! implementations. Also checks the red-zone `F` values against the cube's
//! per-region aggregation.

use atypical::pipeline::build_forest_from_store;
use atypical::redzone::RedZones;
use cps_core::{DatasetId, Params, ScratchDir, Severity};
use cps_cube::cube::build_mc;
use cps_cube::TemporalLevel;
use cps_geo::grid::RegionHierarchy;
use cps_sim::{Scale, SimConfig, TrafficSim};
use cps_storage::IoStats;

/// One simulated archive per call, in its own directory: the three tests
/// run on parallel threads of one process. The guard is returned so the
/// directory lives as long as the store is read.
fn setup() -> (TrafficSim, cps_storage::DatasetStore, ScratchDir) {
    let root = ScratchDir::new("xmodel");
    let sim = TrafficSim::new(
        SimConfig::new(Scale::Tiny, 31)
            .with_datasets(1)
            .with_days_per_dataset(5),
    );
    let store = sim.write_store(&root).unwrap();
    (sim, store, root)
}

#[test]
fn cube_and_forest_totals_agree() {
    let (sim, store, _root) = setup();
    let hierarchy = RegionHierarchy::standard(sim.network(), 3.0, 3);
    let datasets = [DatasetId::new(1)];
    let io = IoStats::shared();

    let mc = build_mc(&store, &datasets, hierarchy.clone(), io.clone()).unwrap();
    // The forest must see every record too (disable the trust filter so the
    // two models aggregate identical record sets).
    let params = Params::paper_defaults().with_min_event_records(1);
    let built = build_forest_from_store(&store, &datasets, sim.network(), &params, io).unwrap();

    let cube_total = mc.cube.grand_total().total;
    let forest_total: Severity = (0..5)
        .flat_map(|d| built.forest.day(d).iter())
        .map(|c| c.severity())
        .sum();
    assert_eq!(cube_total, forest_total);
    assert_eq!(mc.n_records as usize, built.stats.n_records);
}

#[test]
fn redzone_f_matches_cube_region_rollup() {
    let (sim, store, _root) = setup();
    let hierarchy = RegionHierarchy::standard(sim.network(), 3.0, 3);
    let datasets = [DatasetId::new(1)];
    let io = IoStats::shared();
    let params = Params::paper_defaults().with_min_event_records(1);

    let mut mc = build_mc(&store, &datasets, hierarchy.clone(), io.clone()).unwrap();
    let built = build_forest_from_store(&store, &datasets, sim.network(), &params, io).unwrap();
    let forest = built.forest;

    let spec = forest.spec();
    let range = spec.day_range(0, 5);
    let micros = forest.micros_in_days(0, 5);
    let zones = RedZones::compute(
        &micros,
        hierarchy.finest(),
        &params,
        range,
        sim.network().num_sensors() as u32,
    );

    // Roll the cube up to (finest region × month) and compare per-region
    // totals with the red-zone F values.
    let cuboid = mc.cube.cuboid(0, TemporalLevel::Month);
    for (key, measure) in cuboid {
        assert_eq!(
            zones.f_value(key.region),
            measure.total,
            "region {} disagrees",
            key.region
        );
    }
    // Regions absent from the cube must have zero F.
    let covered: std::collections::HashSet<u32> = cuboid.keys().map(|k| k.region.raw()).collect();
    for r in 0..hierarchy.finest().num_regions() {
        if !covered.contains(&r) {
            assert_eq!(zones.f_value(cps_core::RegionId::new(r)), Severity::ZERO);
        }
    }
}

#[test]
fn oc_scans_more_but_answers_the_same_range_totals() {
    let (sim, store, _root) = setup();
    let hierarchy = RegionHierarchy::standard(sim.network(), 3.0, 3);
    let datasets = [DatasetId::new(1)];
    let io = IoStats::shared();

    let before = io.snapshot();
    let mc = build_mc(&store, &datasets, hierarchy.clone(), io.clone()).unwrap();
    let mc_io = io.snapshot().since(before);
    let before = io.snapshot();
    let oc = cps_cube::cube::build_oc(&store, &datasets, hierarchy, io.clone()).unwrap();
    let oc_io = io.snapshot().since(before);

    assert!(
        oc_io.bytes_read > 5 * mc_io.bytes_read,
        "OC reads the full raw archive: {} vs {}",
        oc_io.bytes_read,
        mc_io.bytes_read
    );
    assert!(oc.cube.base_cells() >= mc.cube.base_cells());
}
