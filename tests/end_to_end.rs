//! End-to-end pipeline test: synthetic CPS archive → storage → atypical
//! forest → online queries → evaluation, across crate boundaries.

use atypical::eval::evaluate;
use atypical::pipeline::build_forest_from_store;
use atypical::{Query, QueryEngine, Strategy};
use cps_core::{DatasetId, Params, ScratchDir};
use cps_geo::UniformGrid;
use cps_sim::{Scale, SimConfig, TrafficSim};
use cps_storage::IoStats;

#[test]
fn full_pipeline_tiny_archive() {
    let root = ScratchDir::new("e2e-pipeline");
    let config = SimConfig::new(Scale::Tiny, 99)
        .with_datasets(1)
        .with_days_per_dataset(7);
    let sim = TrafficSim::new(config);
    let store = sim.write_store(&root).unwrap();

    // The archive profile matches what the catalog says.
    let meta = store.dataset(DatasetId::new(1)).unwrap();
    assert_eq!(meta.n_days, 7);
    assert!(meta.atypical_fraction() > 0.005 && meta.atypical_fraction() < 0.15);

    // Build the forest from disk.
    let params = Params::paper_defaults();
    let io = IoStats::shared();
    let built = build_forest_from_store(
        &store,
        &[DatasetId::new(1)],
        sim.network(),
        &params,
        io.clone(),
    )
    .unwrap();
    assert_eq!(built.forest.days().count(), 7);
    assert!(built.stats.n_micro_clusters > 0);
    assert_eq!(
        io.snapshot().records_read,
        meta.n_atypical_records,
        "forest construction reads each atypical record exactly once"
    );

    // Query all three strategies and evaluate.
    let partition = UniformGrid::over(sim.network(), 3.0).partition(sim.network());
    let engine = QueryEngine::new(sim.network(), &partition, params);
    let mut forest = built.forest;
    let query = Query::days(0, 7);

    let all = engine.execute(&mut forest, &query, Strategy::All);
    let gui = engine.execute(&mut forest, &query, Strategy::Gui);
    let pru = engine.execute(&mut forest, &query, Strategy::Pru);

    assert_eq!(all.input_clusters, all.candidate_clusters);
    assert!(gui.input_clusters <= all.input_clusters);
    assert!(pru.input_clusters <= gui.input_clusters);

    let truth: Vec<_> = all.significant().into_iter().cloned().collect();
    let truth_refs: Vec<&atypical::AtypicalCluster> = truth.iter().collect();
    let gui_pr = evaluate(&gui, &truth_refs);
    assert_eq!(gui_pr.recall, 1.0, "Gui must not lose significant clusters");
    let all_pr = evaluate(&all, &truth_refs);
    assert_eq!(all_pr.recall, 1.0);
}

#[test]
fn query_strategies_conserve_input_severity() {
    // Whatever the strategy feeds into integration comes out with the same
    // total severity (merging is lossless).
    let sim = TrafficSim::new(
        SimConfig::new(Scale::Tiny, 5)
            .with_datasets(1)
            .with_days_per_dataset(5),
    );
    let params = Params::paper_defaults();
    let built = atypical::pipeline::build_forest_from_records(
        (0..5).map(|d| (d, sim.atypical_day(d))),
        sim.network(),
        &params,
        sim.config().spec,
    );
    let mut forest = built.forest;
    let partition = UniformGrid::over(sim.network(), 3.0).partition(sim.network());
    let engine = QueryEngine::new(sim.network(), &partition, params);
    let all = engine.execute(&mut forest, &Query::days(0, 5), Strategy::All);
    let input_total: cps_core::Severity = forest
        .micros_in_days(0, 5)
        .iter()
        .map(|c| c.severity())
        .sum();
    let output_total: cps_core::Severity = all.macros.iter().map(|c| c.severity()).sum();
    assert_eq!(input_total, output_total);
}

#[test]
fn bbox_query_restricts_and_never_exceeds_city_results() {
    let sim = TrafficSim::new(
        SimConfig::new(Scale::Tiny, 11)
            .with_datasets(1)
            .with_days_per_dataset(5),
    );
    let params = Params::paper_defaults();
    let built = atypical::pipeline::build_forest_from_records(
        (0..5).map(|d| (d, sim.atypical_day(d))),
        sim.network(),
        &params,
        sim.config().spec,
    );
    let mut forest = built.forest;
    let partition = UniformGrid::over(sim.network(), 3.0).partition(sim.network());
    let engine = QueryEngine::new(sim.network(), &partition, params);

    let city = engine.execute(&mut forest, &Query::days(0, 5), Strategy::All);
    let half = sim.network().bbox();
    let half_box = cps_geo::BoundingBox::new(
        half.min_lat,
        half.min_lon,
        half.min_lat + (half.max_lat - half.min_lat) / 2.0,
        half.max_lon,
    );
    let south = engine.execute(
        &mut forest,
        &Query::days(0, 5).in_bbox(half_box),
        Strategy::All,
    );
    assert!(south.candidate_clusters <= city.candidate_clusters);
    assert!(south.n_sensors < city.n_sensors);
    assert!(south.threshold < city.threshold);
}
