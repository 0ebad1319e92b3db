//! Streaming extraction and forest persistence, exercised end to end:
//! a live feed produces the same analytical answers as the batch pipeline,
//! and a forest saved to disk answers queries identically after reload.

use atypical::online::OnlineExtractor;
use atypical::pipeline::build_forest_from_records;
use atypical::store::{ForestLevel, ForestStore};
use atypical::{AtypicalForest, Query, QueryEngine, Strategy};
use cps_core::{Params, ScratchDir, Severity};
use cps_geo::UniformGrid;
use cps_sim::{Scale, SimConfig, TrafficSim};

fn sim() -> TrafficSim {
    TrafficSim::new(
        SimConfig::new(Scale::Tiny, 42)
            .with_datasets(1)
            .with_days_per_dataset(5),
    )
}

#[test]
fn streamed_forest_answers_queries_like_batch_forest() {
    let sim = sim();
    let params = Params::paper_defaults();
    let spec = sim.config().spec;

    // Batch path.
    let batch = build_forest_from_records(
        (0..5).map(|d| (d, sim.atypical_day(d))),
        sim.network(),
        &params,
        spec,
    );
    let mut batch_forest = batch.forest;

    // Streaming path: feed all five days through one extractor, then place
    // sealed clusters into a forest by their onset day.
    let mut online = OnlineExtractor::new(sim.network(), params, spec);
    for day in 0..5 {
        let mut records = sim.atypical_day(day);
        records.sort_unstable_by_key(|r| (r.window, r.sensor));
        for r in records {
            online.push(r).expect("feed is window-ordered");
        }
    }
    let mut stream_forest = AtypicalForest::new(spec, params);
    let mut by_day: std::collections::BTreeMap<u32, Vec<atypical::AtypicalCluster>> =
        Default::default();
    for cluster in online.finish() {
        let day = spec.day_of(cluster.time_range().start);
        by_day.entry(day).or_default().push(cluster);
    }
    for (day, clusters) in by_day {
        stream_forest.insert_day(day, clusters);
    }

    // Same total severity in both forests.
    let total = |f: &AtypicalForest| -> Severity {
        f.micros_in_days(0, 5).iter().map(|c| c.severity()).sum()
    };
    assert_eq!(total(&batch_forest), total(&stream_forest));

    // Same significant clusters from the query engine. (Cluster *counts*
    // may differ slightly: the batch pipeline cuts events at midnight while
    // the stream lets them run on — the significant set must agree anyway.)
    let partition = UniformGrid::over(sim.network(), 3.0).partition(sim.network());
    let engine = QueryEngine::new(sim.network(), &partition, params);
    let q = Query::days(0, 5);
    let from_batch = engine.execute(&mut batch_forest, &q, Strategy::All);
    let from_stream = engine.execute(&mut stream_forest, &q, Strategy::All);
    let sig_b = from_batch.significant();
    let sig_s = from_stream.significant();
    assert_eq!(sig_b.len(), sig_s.len());
    for b in &sig_b {
        assert!(
            sig_s.iter().any(|s| atypical::eval::matches(s, b)),
            "stream lost {}",
            b.id
        );
    }
}

#[test]
fn persisted_forest_reloads_and_answers_identically() {
    let sim = sim();
    let params = Params::paper_defaults();
    let spec = sim.config().spec;
    let built = build_forest_from_records(
        (0..5).map(|d| (d, sim.atypical_day(d))),
        sim.network(),
        &params,
        spec,
    );
    let mut original = built.forest;

    let root = ScratchDir::new("persist");
    let store = ForestStore::open(&root).unwrap();
    assert_eq!(store.save_forest_days(&original).unwrap(), 5);
    // Materialize a week level too.
    store.save(ForestLevel::Week, 0, original.week(0)).unwrap();

    let mut reloaded = store.load_forest(spec, params).unwrap();
    assert_eq!(reloaded.num_micro_clusters(), original.num_micro_clusters());

    let partition = UniformGrid::over(sim.network(), 3.0).partition(sim.network());
    let engine = QueryEngine::new(sim.network(), &partition, params);
    let q = Query::days(0, 5);
    let a = engine.execute(&mut original, &q, Strategy::Gui);
    let b = engine.execute(&mut reloaded, &q, Strategy::Gui);
    assert_eq!(a.input_clusters, b.input_clusters);
    assert_eq!(a.macros.len(), b.macros.len());
    let sev =
        |r: &atypical::QueryResult| -> Severity { r.macros.iter().map(|c| c.severity()).sum() };
    assert_eq!(sev(&a), sev(&b));
    // The materialized week level round-trips too.
    let week = store.load(ForestLevel::Week, 0).unwrap().unwrap();
    assert_eq!(week, original.week(0));
}

#[test]
fn online_extractor_reports_long_events_once() {
    // A corridor event spanning hours must come out as exactly one cluster,
    // not one per window batch.
    let sim = sim();
    let params = Params::paper_defaults();
    let spec = sim.config().spec;
    let mut records = sim.atypical_day(0);
    records.sort_unstable_by_key(|r| (r.window, r.sensor));

    let mut online = OnlineExtractor::new(sim.network(), params, spec);
    let mut sealed_total = 0;
    for r in records {
        online.push(r).expect("feed is window-ordered");
        sealed_total += online.drain_sealed().len();
    }
    let rest = online.finish();
    let batch =
        build_forest_from_records(vec![(0, sim.atypical_day(0))], sim.network(), &params, spec);
    assert_eq!(sealed_total + rest.len(), batch.forest.day(0).len());
}
