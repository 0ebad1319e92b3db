//! Service-level behavior: ingest ordering, overflow accounting, snapshot
//! persistence, and the incrementally maintained red zones.

use cps_core::{AtypicalRecord, ScratchDir, TimeWindow};
use cps_geo::grid::UniformGrid;
use cps_monitor::{MonitorConfig, MonitorService, OverflowPolicy};
use cps_sim::{Scale, SimConfig, TrafficSim};
use cps_testkit::reference_guided;
use std::sync::Arc;

fn tiny_day() -> (TrafficSim, Vec<AtypicalRecord>) {
    let sim = TrafficSim::new(SimConfig::new(Scale::Tiny, 11));
    let mut records = sim.atypical_day(0);
    records.sort_by_key(|r| (r.window, r.sensor));
    (sim, records)
}

#[test]
fn out_of_order_ingest_is_rejected_and_service_survives() {
    let (sim, records) = tiny_day();
    let config = MonitorConfig {
        spec: sim.config().spec,
        ..MonitorConfig::default()
    };
    let mut service =
        MonitorService::start(&config, Arc::new(sim.network().clone())).expect("service starts");

    let later = records[records.len() / 2];
    let earlier = AtypicalRecord::new(
        records[0].sensor,
        TimeWindow::new(later.window.raw() - 1),
        records[0].severity,
    );
    service.ingest(later).expect("first record is accepted");
    let err = service
        .ingest(earlier)
        .expect_err("regressing window must be rejected");
    match err {
        cps_monitor::MonitorError::OutOfOrder { shard, cause } => {
            assert_eq!(shard, service.shard_map().shard_of(earlier.sensor));
            assert_eq!(cause.record, earlier);
            assert_eq!(cause.current_window, later.window);
        }
        other => panic!("wrong error variant: {other:?}"),
    }

    // The rejected record left the pipeline intact.
    for &r in &records[records.len() / 2..] {
        service.ingest(r).expect("in-order tail is accepted");
    }
    let metrics = service.finish();
    assert_eq!(
        metrics.records_ingested as usize,
        1 + records.len() - records.len() / 2
    );
    assert_eq!(metrics.records_dropped, 0);
}

#[test]
fn drop_policy_accounts_for_every_record() {
    let (sim, records) = tiny_day();
    let config = MonitorConfig {
        shards: 2,
        channel_capacity: 1,
        overflow: OverflowPolicy::Drop,
        spec: sim.config().spec,
        ..MonitorConfig::default()
    };
    let mut service =
        MonitorService::start(&config, Arc::new(sim.network().clone())).expect("service starts");
    let mut accepted = 0u64;
    for &r in &records {
        if service.ingest(r).expect("in-order feed") {
            accepted += 1;
        }
    }
    let metrics = service.finish();
    assert_eq!(metrics.records_ingested, accepted);
    assert_eq!(
        metrics.records_ingested + metrics.records_dropped,
        records.len() as u64
    );
}

#[test]
fn persisted_days_remain_queryable_and_red_zones_match_batch() {
    let (sim, records) = tiny_day();
    let root = ScratchDir::new("monitor-persist");
    let config = MonitorConfig {
        shards: 4,
        snapshot_dir: Some(root.to_path_buf()),
        spec: sim.config().spec,
        ..MonitorConfig::default()
    };
    let network = Arc::new(sim.network().clone());
    let mut service = MonitorService::start(&config, network.clone()).expect("service starts");
    let handle = service.handle();
    for &r in &records {
        service.ingest(r).expect("in-order feed");
    }
    // Nudge the clock past the day so the final day bucket is provably
    // complete before the feed closes (finish would also do it).
    let metrics = service.finish();

    assert_eq!(metrics.days_persisted, 1, "{metrics}");
    assert!(metrics.snapshot_bytes > 0, "{metrics}");
    assert!(metrics.micro_clusters > 0, "{metrics}");

    // The persisted day left live memory but still answers queries.
    let view = handle.read_view();
    assert!(view.live_micro_clusters().is_empty());
    let micros = view.micro_clusters_for_day(0).expect("store read");
    assert_eq!(micros.len() as u64, metrics.micro_clusters);

    let result = view.query_guided(0, 1).expect("guided query");
    assert_eq!(result.candidate_clusters as u64, metrics.micro_clusters);
    assert!(result.num_red_regions > 0);

    // The incrementally composed red zones equal the batch computation
    // over the same micro-clusters (Property 4: F is distributive).
    let partition = UniformGrid::over(&network, config.red_cell_miles).partition(&network);
    let (batch_red, batch_guided) = reference_guided(
        &view,
        &partition,
        &config.params,
        config.spec,
        network.num_sensors() as u32,
        0,
        1,
    );
    assert_eq!(view.red_regions(0, 1), batch_red);
    assert_eq!(result, batch_guided);
}

/// The monitor's live integration is always indexed; the TOML key that
/// used to select the naive scan is gone, so a file still setting it is
/// rejected like any other unknown key.
#[test]
fn removed_integration_key_is_an_unknown_key() {
    let err = MonitorConfig::from_toml_str("indexed_integration = true").unwrap_err();
    let unknown = MonitorConfig::from_toml_str("mystery_key = 1").unwrap_err();
    assert_eq!(
        err.replace("indexed_integration", "mystery_key"),
        unknown,
        "must be the plain unknown-key error"
    );
}

/// The snapshot store always writes columnar segments; the TOML key that
/// used to select the legacy row writer is gone, so a file still setting
/// it is rejected like any other unknown key.
#[test]
fn removed_snapshot_backend_key_is_an_unknown_key() {
    for value in ["\"row\"", "\"columnar\""] {
        let err = MonitorConfig::from_toml_str(&format!("snapshot_backend = {value}")).unwrap_err();
        let unknown = MonitorConfig::from_toml_str("mystery_key = 1").unwrap_err();
        assert_eq!(
            err.replace("snapshot_backend", "mystery_key"),
            unknown,
            "must be the plain unknown-key error"
        );
    }
}

/// The result cache is one map and always on; the TOML keys that sharded
/// it and switched it off are gone, so a file still setting either is
/// rejected like any other unknown key.
#[test]
fn removed_cache_keys_are_unknown_keys() {
    let unknown = MonitorConfig::from_toml_str("[serving]\nmystery_key = 1").unwrap_err();
    for (key, value) in [("cache", "true"), ("cache_shards", "8")] {
        let err = MonitorConfig::from_toml_str(&format!("[serving]\n{key} = {value}")).unwrap_err();
        assert_eq!(
            err.replace(key, "mystery_key"),
            unknown,
            "must be the plain unknown-key error"
        );
    }
}
