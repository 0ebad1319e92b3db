//! Output-transparency of adaptive shard rebalancing: under a seeded
//! hot-region feed with forced migrations, the rebalanced run must seal
//! the same canonical micro-cluster multiset as a static-map run — epochs
//! move *routing*, never results. Plus the two failure-mode checks that
//! make it trustworthy in production:
//!
//! - a worker killed and respawned while rebalance epochs are in flight
//!   loses nothing (checkpoint + WAL replay rebuilds the dead shard, the
//!   barrier abort path is conservative), and
//! - a full restart restores the rebalanced shard map from the
//!   checkpoint's epoch chain, so the recovered service routes — and
//!   resumes the feed — under the same cuts it crashed with.

use atypical::online::OnlineExtractor;
use cps_core::{AtypicalRecord, Params, RecordBatch, WindowSpec};
use cps_geo::RoadNetwork;
use cps_monitor::{
    DurabilityConfig, FaultConfig, FsyncPolicy, MonitorConfig, MonitorService, OverflowPolicy,
    WorkerKill,
};
use cps_sim::{Scale, SimConfig, TrafficSim};
use cps_testkit::fixtures::temp_dir;
use cps_testkit::{canonicalize, run_seeded, Canonical};
use std::sync::Arc;

const SHARDS: usize = 4;
/// Chunk size for the batched feeds — coprime with the rebalance interval
/// so migrations land at varying offsets inside batches.
const BATCH: usize = 32;

struct Fixture {
    network: Arc<RoadNetwork>,
    records: Vec<AtypicalRecord>,
    params: Params,
    spec: WindowSpec,
}

/// A hot-region day: 20% of the sensors carry 80% of the records, so the
/// spatially contiguous hot slice concentrates in one or two shards and
/// the skew gate actually fires.
fn skewed_fixture(seed: u64, len: usize) -> Fixture {
    let sim = TrafficSim::new(SimConfig::new(Scale::Tiny, seed).with_hot_region(0.2, 0.8));
    let mut records = sim.atypical_day(0);
    records.sort_by_key(|r| (r.window, r.sensor));
    records.truncate(len);
    assert!(
        records.len() * 2 >= len,
        "seed {seed}: day too small for the sweep ({} records)",
        records.len()
    );
    Fixture {
        network: Arc::new(sim.network().clone()),
        records,
        params: Params::paper_defaults(),
        spec: sim.config().spec,
    }
}

fn base_config(fx: &Fixture) -> MonitorConfig {
    MonitorConfig {
        shards: SHARDS,
        params: fx.params,
        spec: fx.spec,
        overflow: OverflowPolicy::Block,
        ..MonitorConfig::default()
    }
}

/// Low threshold + short interval: a few hundred skewed records are
/// enough to force at least one migration.
fn enable_rebalancing(cfg: &mut MonitorConfig) {
    cfg.rebalance_interval_records = 100;
    cfg.rebalance_skew = 1.05;
}

fn feed_batched(service: &mut MonitorService, records: &[AtypicalRecord]) {
    for chunk in records.chunks(BATCH) {
        let accepted = service
            .ingest_batch(&RecordBatch::from_records(chunk))
            .expect("feed is window-monotone");
        assert_eq!(accepted, chunk.len() as u64, "Block policy must not drop");
    }
}

/// One full run: batched feed, canonical sealed micro-clusters, and the
/// number of rebalance epochs that committed.
fn run(cfg: &MonitorConfig, fx: &Fixture) -> (Vec<Canonical>, u64) {
    let mut service = MonitorService::start(cfg, fx.network.clone()).expect("service starts");
    let handle = service.handle();
    feed_batched(&mut service, &fx.records);
    let metrics = service.finish();
    assert_eq!(metrics.records_ingested, fx.records.len() as u64);
    assert_eq!(metrics.records_dropped, 0);
    (
        canonicalize(&handle.read_view().live_micro_clusters()),
        metrics.rebalances,
    )
}

/// The transparency property: for seeded hot-region feeds, a run with
/// forced migrations seals exactly the canonical micro-cluster multiset
/// of the static-map run. Routing epochs must never create, lose, or
/// reshape an event.
#[test]
fn rebalancing_under_seeded_skew_is_output_transparent() {
    run_seeded("rebalance-transparent", |seed| {
        for case in [seed, seed ^ 0x9e37_79b9_7f4a_7c15] {
            let fx = skewed_fixture(case, 600);
            let (static_out, static_epochs) = run(&base_config(&fx), &fx);
            assert_eq!(static_epochs, 0, "rebalancing is off by default");

            let mut cfg = base_config(&fx);
            enable_rebalancing(&mut cfg);
            let (rebalanced_out, epochs) = run(&cfg, &fx);
            assert!(
                epochs >= 1,
                "seed {case:#x}: hot-region skew must force a migration"
            );
            assert_eq!(
                rebalanced_out, static_out,
                "seed {case:#x}: rebalancing changed the sealed events"
            );
        }
    });
}

/// Kill + respawn while rebalance epochs are committing: the victim (the
/// hot shard, so migrations move *its* slices) dies repeatedly under a
/// respawn budget, each incarnation is rebuilt from checkpoint + WAL
/// replay — batch frames replay unconditionally, epoch entries are
/// skipped in favor of the supervisor's live boundary — and the run still
/// seals exactly the single-extractor oracle's canonical multiset.
#[test]
fn worker_kill_during_rebalance_epochs_loses_nothing() {
    run_seeded("rebalance-kill-respawn", |seed| {
        let fx = skewed_fixture(seed, 300);
        let wal_dir = temp_dir("rb-kill");

        // Find the hot shard under the *initial* map.
        let probe =
            MonitorService::start(&base_config(&fx), fx.network.clone()).expect("probe starts");
        let mut load = [0usize; SHARDS];
        for r in &fx.records {
            load[probe.shard_map().shard_of(r.sensor)] += 1;
        }
        probe.finish();
        let victim = (0..SHARDS).max_by_key(|&s| load[s]).unwrap();
        assert!(load[victim] > 100, "victim shard too quiet: {load:?}");

        let mut cfg = base_config(&fx);
        enable_rebalancing(&mut cfg);
        cfg.durability = DurabilityConfig {
            wal_dir: Some(wal_dir.to_path_buf()),
            fsync: FsyncPolicy::Group,
            group_commit_records: 4,
            // Frequent checkpoints keep each incarnation's replay well
            // under `after_records`, so every respawn makes progress.
            checkpoint_interval_records: 30,
            respawn_budget: 8,
            segment_bytes: 2048,
            ..DurabilityConfig::default()
        };
        // Capacity 1 bounds the records parked in a dead worker's channel
        // and forces the next send to observe the death.
        cfg.channel_capacity = 1;
        cfg.faults = FaultConfig {
            kill_worker: Some(WorkerKill {
                shard: victim,
                after_records: 80,
            }),
            ..FaultConfig::default()
        };

        let mut service = MonitorService::start(&cfg, fx.network.clone()).expect("service starts");
        let handle = service.handle();
        feed_batched(&mut service, &fx.records);
        let metrics = service.finish();
        assert!(metrics.respawns >= 1, "the kill hook must have fired");
        assert!(metrics.rebalances >= 1, "skew must force a migration");
        assert_eq!(metrics.permanently_failed, 0);
        assert_eq!(metrics.records_ingested, fx.records.len() as u64);
        assert_eq!(metrics.records_dropped, 0);

        let mut extractor = OnlineExtractor::new(&fx.network, fx.params, fx.spec);
        for &record in &fx.records {
            extractor.push(record).expect("feed is window-monotone");
        }
        assert_eq!(
            canonicalize(&handle.read_view().live_micro_clusters()),
            canonicalize(&extractor.finish()),
            "kill + respawn across rebalance epochs lost or duplicated records"
        );
    });
}

/// Restart during a rebalance epoch: the checkpoint's epoch chain (plus
/// any epoch entries in the WAL tail) must hand the recovered service the
/// exact cuts the crashed one routed with — otherwise replayed records
/// would land on the wrong shards — and the resumed feed seals the
/// static-map run's canonical multiset.
#[test]
fn restart_restores_rebalanced_map_from_checkpoint() {
    run_seeded("rebalance-restart", |seed| {
        let fx = skewed_fixture(seed, 600);
        let wal_dir = temp_dir("rb-restart");
        let mut cfg = base_config(&fx);
        enable_rebalancing(&mut cfg);
        cfg.durability = DurabilityConfig {
            wal_dir: Some(wal_dir.to_path_buf()),
            fsync: FsyncPolicy::Group,
            group_commit_records: 4,
            checkpoint_interval_records: 50,
            respawn_budget: 0,
            segment_bytes: 2048,
            ..DurabilityConfig::default()
        };

        let half = fx.records.len() / 2;
        let mut first = MonitorService::start(&cfg, fx.network.clone()).expect("service starts");
        feed_batched(&mut first, &fx.records[..half]);
        assert!(
            first.handle().metrics().rebalances >= 1,
            "the prefix must commit at least one epoch before the restart"
        );
        let cuts_at_shutdown = first.shard_map().cuts().to_vec();
        first.finish();

        let (mut second, report) =
            MonitorService::recover(&cfg, fx.network.clone()).expect("recovery succeeds");
        assert_eq!(
            report.resume_from as usize, half,
            "a clean shutdown's WAL covers exactly the fed prefix"
        );
        assert_eq!(
            second.shard_map().cuts(),
            &cuts_at_shutdown[..],
            "recovery must restore the rebalanced shard map, not the initial one"
        );
        let handle = second.handle();
        feed_batched(&mut second, &fx.records[half..]);
        second.finish();

        let (static_out, _) = run(&base_config(&fx), &fx);
        assert_eq!(
            canonicalize(&handle.read_view().live_micro_clusters()),
            static_out,
            "restart across rebalance epochs diverged from the static-map run"
        );
    });
}
