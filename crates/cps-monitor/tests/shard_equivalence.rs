//! Sharding must never change the output: the service's micro-cluster
//! multiset over a full simulated day equals the single-threaded
//! [`OnlineExtractor`]'s, for every shard count and any record order
//! within a window (the relation is insensitive to intra-window order).

use atypical::online::OnlineExtractor;
use atypical::AtypicalCluster;
use cps_core::{AtypicalRecord, Params, WindowSpec};
use cps_geo::RoadNetwork;
use cps_monitor::{MonitorConfig, MonitorService, OverflowPolicy};
use cps_sim::{Scale, SimConfig, TrafficSim};
use cps_testkit::canonicalize;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

struct Fixture {
    network: Arc<RoadNetwork>,
    /// One Tiny day of atypical records, sorted by `(window, sensor)`.
    records: Vec<AtypicalRecord>,
    params: Params,
    spec: WindowSpec,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let sim = TrafficSim::new(SimConfig::new(Scale::Tiny, 11));
        let mut records = sim.atypical_day(0);
        records.sort_by_key(|r| (r.window, r.sensor));
        assert!(
            !records.is_empty(),
            "fixture day generated no atypical records"
        );
        Fixture {
            network: Arc::new(sim.network().clone()),
            records,
            params: Params::paper_defaults(),
            spec: sim.config().spec,
        }
    })
}

/// Reorders records uniformly within each window (cross-window order must
/// stay monotone — both sides require it).
fn shuffled_within_windows(records: &[AtypicalRecord], seed: u64) -> Vec<AtypicalRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(records.len());
    let mut start = 0;
    while start < records.len() {
        let window = records[start].window;
        let end = start
            + records[start..]
                .iter()
                .take_while(|r| r.window == window)
                .count();
        let mut group: Vec<AtypicalRecord> = records[start..end].to_vec();
        group.shuffle(&mut rng);
        out.extend(group);
        start = end;
    }
    out
}

fn single_extractor_clusters(feed: &[AtypicalRecord]) -> Vec<AtypicalCluster> {
    let fx = fixture();
    let mut extractor = OnlineExtractor::new(&fx.network, fx.params, fx.spec);
    for &record in feed {
        extractor.push(record).expect("feed is window-monotone");
    }
    extractor.finish()
}

fn sharded_clusters(feed: &[AtypicalRecord], shards: usize) -> Vec<AtypicalCluster> {
    let fx = fixture();
    let config = MonitorConfig {
        shards,
        params: fx.params,
        spec: fx.spec,
        overflow: OverflowPolicy::Block,
        ..MonitorConfig::default()
    };
    let mut service = MonitorService::start(&config, fx.network.clone()).expect("service starts");
    let handle = service.handle();
    for &record in feed {
        assert!(service.ingest(record).expect("feed is window-monotone"));
    }
    let metrics = service.finish();
    assert_eq!(metrics.records_dropped, 0, "Block policy never drops");
    assert_eq!(metrics.records_ingested, feed.len() as u64);
    handle.read_view().live_micro_clusters()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_service_matches_single_extractor(
        shards in prop::sample::select(vec![1usize, 2, 4, 8]),
        shuffle_seed in 0u64..1_000_000,
    ) {
        let fx = fixture();
        let feed = shuffled_within_windows(&fx.records, shuffle_seed);
        let reference = canonicalize(&single_extractor_clusters(&feed));
        let sharded = canonicalize(&sharded_clusters(&feed, shards));
        prop_assert_eq!(sharded, reference);
    }
}

/// The fixture day is only useful if reconciliation actually happens:
/// assert the 4-shard run exercises boundary events and cross-shard merges.
#[test]
fn fixture_exercises_cross_shard_reconciliation() {
    let fx = fixture();
    let config = MonitorConfig {
        shards: 4,
        params: fx.params,
        spec: fx.spec,
        ..MonitorConfig::default()
    };
    let mut service = MonitorService::start(&config, fx.network.clone()).expect("service starts");
    let handle = service.handle();
    for &record in &fx.records {
        service.ingest(record).expect("feed is window-monotone");
    }
    let metrics = service.finish();
    assert!(metrics.boundary_events > 0, "no boundary events: {metrics}");
    assert!(
        metrics.cross_shard_merges > 0,
        "no cross-shard merges: {metrics}"
    );
    assert!(!handle.read_view().live_macro_clusters().is_empty());
}
