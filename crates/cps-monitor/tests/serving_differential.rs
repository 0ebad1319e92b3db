//! The serving layer must never change an answer: at quiescence (after
//! `finish`, which joins the merger behind its final publication) every
//! query through a pinned [`ReadView`] and through the cached
//! [`ServeHandle`] is bit-identical to the batch recomputation of [`reference_guided`] — with and without
//! a snapshot store, and for a service rebuilt by crash recovery before
//! it ingests anything new.

use atypical::AtypicalCluster;
use cps_core::ScratchDir;
use cps_geo::UniformGrid;
use cps_monitor::{
    DurabilityConfig, FsyncPolicy, MonitorConfig, MonitorHandle, MonitorService, OverflowPolicy,
};
use cps_sim::{Scale, SimConfig, TrafficSim};
use cps_testkit::reference_guided;
use std::sync::Arc;

const DAYS: u32 = 3;

fn sim() -> TrafficSim {
    // Hot-region skew on: the differential guarantee must hold for the
    // skewed operational workload the serving bench replays, too.
    TrafficSim::new(SimConfig::new(Scale::Tiny, 7).with_hot_region(0.2, 0.5))
}

fn feed(sim: &TrafficSim) -> Vec<cps_core::AtypicalRecord> {
    let mut records: Vec<_> = (0..DAYS).flat_map(|d| sim.atypical_day(d)).collect();
    records.sort_unstable_by_key(|r| (r.window, r.sensor));
    assert!(!records.is_empty());
    records
}

fn base_config(sim: &TrafficSim) -> MonitorConfig {
    MonitorConfig {
        shards: 3,
        spec: sim.config().spec,
        overflow: OverflowPolicy::Block,
        ..MonitorConfig::default()
    }
}

/// Runs the feed to quiescence and returns the handle (the service itself
/// is consumed by `finish`).
fn run_to_quiescence(config: &MonitorConfig, sim: &TrafficSim) -> MonitorHandle {
    let network = Arc::new(sim.network().clone());
    let mut service = MonitorService::start(config, network).expect("service starts");
    let handle = service.handle();
    for record in feed(sim) {
        assert!(service.ingest(record).expect("healthy ingest"));
    }
    let metrics = service.finish();
    assert!(
        metrics.snapshots_published > 0,
        "the merger must publish: {metrics}"
    );
    // The final publication is the merger's whole state, not a lagging
    // one: every cluster the metrics count is in the pinned view.
    let view = handle.read_view();
    let in_view: usize = (0..DAYS)
        .map(|day| view.micro_clusters_for_day(day).expect("view query").len())
        .sum();
    assert_eq!(in_view as u64, metrics.micro_clusters, "{metrics}");
    assert_eq!(
        view.live_macro_clusters().len() as u64,
        metrics.macro_clusters,
        "{metrics}"
    );
    handle
}

/// Every query of the surface, through the pinned view and the cached
/// handle, over every whole-day range of the feed, against the reference.
/// The cached queries run twice so the second answer is served from the
/// cache and must still match.
fn assert_paths_agree(handle: &MonitorHandle, config: &MonitorConfig, sim: &TrafficSim) {
    let network = sim.network();
    let partition = UniformGrid::over(network, config.red_cell_miles).partition(network);
    let n_sensors = network.num_sensors() as u32;
    let serve = handle.serve();
    let view = handle.read_view();
    for first in 0..DAYS {
        for n in 1..=(DAYS - first) {
            let (red, guided) = reference_guided(
                &view,
                &partition,
                &config.params,
                config.spec,
                n_sensors,
                first,
                n,
            );
            let significant: Vec<AtypicalCluster> =
                guided.significant().into_iter().cloned().collect();
            assert_eq!(view.red_regions(first, n), red, "red_regions({first},{n})");
            assert_eq!(
                view.query_guided(first, n).expect("view query"),
                guided,
                "query_guided({first},{n})"
            );
            assert_eq!(
                view.significant_clusters(first, n).expect("view query"),
                significant,
                "significant_clusters({first},{n})"
            );
            for round in 0..2 {
                assert_eq!(
                    *serve.red_regions(first, n),
                    red,
                    "cached red_regions({first},{n}) round {round}"
                );
                assert_eq!(
                    *serve.query_guided(first, n).expect("cached query"),
                    guided,
                    "cached query_guided({first},{n}) round {round}"
                );
                assert_eq!(
                    *serve.significant_clusters(first, n).expect("cached query"),
                    significant,
                    "cached significant_clusters({first},{n}) round {round}"
                );
            }
        }
    }
    for day in 0..DAYS {
        assert_eq!(
            serve.micro_clusters_for_day(day).expect("cached query"),
            view.micro_clusters_for_day(day).expect("view query"),
            "cached micro_clusters_for_day({day})"
        );
    }
    assert_eq!(serve.live_macro_clusters(), view.live_macro_clusters());
}

/// All-live configuration: no store, every day answered from memory.
#[test]
fn snapshot_paths_match_reference_at_quiescence() {
    let sim = sim();
    let config = base_config(&sim);
    let handle = run_to_quiescence(&config, &sim);
    assert_paths_agree(&handle, &config, &sim);
    let stats = handle.serve().cache_stats();
    assert!(stats.hits > 0, "second rounds must hit: {stats:?}");
}

/// With a snapshot store the early days seal mid-run: sealed days answer
/// from disk, live days from the snapshot — same answers either way, and
/// sealed-range cache entries are immutable (hits survive any epoch).
#[test]
fn snapshot_paths_match_reference_with_sealed_days() {
    let sim = sim();
    let dir = ScratchDir::new("serving-diff-store");
    let config = MonitorConfig {
        snapshot_dir: Some(dir.to_path_buf()),
        ..base_config(&sim)
    };
    let handle = run_to_quiescence(&config, &sim);
    let view = handle.read_view();
    assert!(
        !view.snapshot().persisted_days.is_empty(),
        "a multi-day feed with a store must seal days"
    );
    assert!(view.seal_epoch() > 0);
    assert_paths_agree(&handle, &config, &sim);
}

/// A coarse publication cadence only changes *when* snapshots appear;
/// the merger's final publication still makes quiescent answers exact.
#[test]
fn coarse_cadence_still_converges_at_quiescence() {
    let sim = sim();
    let mut config = base_config(&sim);
    config.serving.publish_every_clusters = 1_000;
    config.serving.publish_every_windows = 500;
    let handle = run_to_quiescence(&config, &sim);
    assert_paths_agree(&handle, &config, &sim);
}

/// A crash-recovered service publishes its restored state as the initial
/// snapshot: the read view answers correctly before any new ingest.
#[test]
fn recovered_service_initial_view_matches_reference() {
    let sim = sim();
    let network = Arc::new(sim.network().clone());
    let wal_dir = ScratchDir::new("serving-diff-wal");
    let config = MonitorConfig {
        durability: DurabilityConfig {
            wal_dir: Some(wal_dir.to_path_buf()),
            fsync: FsyncPolicy::Group,
            checkpoint_interval_records: 2_000,
            ..DurabilityConfig::default()
        },
        ..base_config(&sim)
    };
    {
        let mut service = MonitorService::start(&config, network.clone()).expect("service starts");
        for record in feed(&sim) {
            assert!(service.ingest(record).expect("healthy ingest"));
        }
        // Abrupt drop: no finish, no final checkpoint — the WAL replays.
    }
    let (service, report) = MonitorService::recover(&config, network).expect("recovery succeeds");
    assert!(report.replayed_entries > 0);
    let handle = service.handle();
    assert_paths_agree(&handle, &config, &sim);
    drop(service);
}
