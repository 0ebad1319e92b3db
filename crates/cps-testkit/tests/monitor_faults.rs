//! Deterministic fault hooks in the sharded monitor: a killed shard
//! worker degrades the service instead of aborting it, drop bursts are
//! exactly accounted against single-extractor equivalence, and seeded
//! scheduling jitter never changes the output.

use atypical::online::OnlineExtractor;
use cps_core::{AtypicalRecord, Params, WindowSpec};
use cps_geo::RoadNetwork;
use cps_monitor::{
    DropBurst, FaultConfig, MonitorConfig, MonitorError, MonitorService, OverflowPolicy, WorkerKill,
};
use cps_testkit::fixtures::tiny_day;
use cps_testkit::{canonicalize, run_seeded};
use std::sync::Arc;

struct Fixture {
    network: Arc<RoadNetwork>,
    records: Vec<AtypicalRecord>,
    params: Params,
    spec: WindowSpec,
}

fn fixture() -> Fixture {
    let (sim, records) = tiny_day(11);
    Fixture {
        network: Arc::new(sim.network().clone()),
        records,
        params: Params::paper_defaults(),
        spec: sim.config().spec,
    }
}

fn config(fx: &Fixture, shards: usize, faults: FaultConfig) -> MonitorConfig {
    MonitorConfig {
        shards,
        params: fx.params,
        spec: fx.spec,
        overflow: OverflowPolicy::Block,
        faults,
        ..MonitorConfig::default()
    }
}

/// Satellite regression: a worker death must surface as a typed
/// [`MonitorError::WorkerDied`] on the affected shard only — the service
/// keeps ingesting other shards, stays queryable, and counts the death
/// exactly once.
#[test]
fn worker_death_degrades_instead_of_aborting() {
    let fx = fixture();
    let faults = FaultConfig {
        kill_worker: Some(WorkerKill {
            shard: 0,
            after_records: 3,
        }),
        ..FaultConfig::default()
    };
    let mut service =
        MonitorService::start(&config(&fx, 4, faults), fx.network.clone()).expect("service starts");
    let handle = service.handle();

    let mut accepted = 0u64;
    for &record in &fx.records {
        match service.ingest(record) {
            Ok(true) => accepted += 1,
            Ok(false) => panic!("Block policy must not drop"),
            // Whether ingest observes the death depends on channel
            // buffering; when it does, the error must name the shard.
            Err(MonitorError::WorkerDied { shard }) => {
                assert_eq!(shard, 0, "only the killed shard may die");
                let msg = MonitorError::WorkerDied { shard }.to_string();
                assert!(msg.contains("shard 0"), "error names the shard: {msg}");
            }
            Err(other) => panic!("unexpected ingest error: {other}"),
        }
    }
    assert!(accepted > 0, "live shards must keep ingesting");

    // finish() joins the merger, which deterministically flags any shard
    // that never reported Done — buffered sends cannot hide the death.
    let metrics = service.finish();
    assert_eq!(metrics.workers_dead, 1, "one death, counted once");
    assert_eq!(metrics.dead_shards, vec![0]);
    assert_eq!(metrics.records_ingested, accepted);
    assert_eq!(metrics.records_dropped, 0);
    // The handle outlives the degraded service and still answers queries.
    let _ = handle.read_view().live_micro_clusters();
    let _ = handle.read_view().red_regions(0, 1);
}

/// A drop burst is exactly accounted: the drop counter equals the burst
/// length, and the surviving output equals a single extractor that saw
/// the same feed with the same records replaced by clock advances.
#[test]
fn drop_burst_is_exactly_accounted_and_equivalent() {
    let fx = fixture();
    let n = fx.records.len() as u64;
    let burst = DropBurst {
        at_record: n / 3,
        len: 40,
    };
    assert!(
        burst.at_record + burst.len < n,
        "fixture day too small for the burst"
    );
    let faults = FaultConfig {
        drop_burst: Some(burst),
        ..FaultConfig::default()
    };
    let mut service =
        MonitorService::start(&config(&fx, 4, faults), fx.network.clone()).expect("service starts");
    let handle = service.handle();

    let mut dropped_indices = Vec::new();
    for (i, &record) in fx.records.iter().enumerate() {
        match service.ingest(record).expect("feed is window-monotone") {
            true => {}
            false => dropped_indices.push(i),
        }
    }
    let metrics = service.finish();
    assert_eq!(dropped_indices.len() as u64, burst.len);
    assert_eq!(metrics.records_dropped, burst.len);
    assert_eq!(
        metrics.records_ingested + metrics.records_dropped,
        n,
        "every record is either ingested or counted dropped"
    );

    // Reference: a single extractor fed the identical effective stream —
    // dropped records still advance the clock (the service broadcasts the
    // window advance before the drop hook fires).
    let mut extractor = OnlineExtractor::new(&fx.network, fx.params, fx.spec);
    let mut next_drop = dropped_indices.iter().copied().peekable();
    for (i, &record) in fx.records.iter().enumerate() {
        if next_drop.peek() == Some(&i) {
            next_drop.next();
            extractor.advance_to(record.window);
        } else {
            extractor.push(record).expect("feed is window-monotone");
        }
    }
    assert_eq!(
        canonicalize(&handle.read_view().live_micro_clusters()),
        canonicalize(&extractor.finish()),
        "drop burst must account for exactly the dropped records"
    );
}

/// Seeded scheduling jitter perturbs worker/merger interleavings but may
/// never change the reconciled output: with no drops the sharded result
/// equals the single-extractor run. Fails reproducibly from the printed
/// seed.
#[test]
fn jittered_schedule_is_equivalent_to_single_extractor() {
    run_seeded(
        "jittered_schedule_is_equivalent_to_single_extractor",
        |seed| {
            let fx = fixture();
            let faults = FaultConfig {
                jitter_seed: Some(seed),
                ..FaultConfig::default()
            };
            let mut service = MonitorService::start(&config(&fx, 4, faults), fx.network.clone())
                .expect("service starts");
            let handle = service.handle();
            for &record in &fx.records {
                assert!(service.ingest(record).expect("feed is window-monotone"));
            }
            let metrics = service.finish();
            assert_eq!(metrics.records_dropped, 0);
            assert_eq!(metrics.workers_dead, 0);

            let mut extractor = OnlineExtractor::new(&fx.network, fx.params, fx.spec);
            for &record in &fx.records {
                extractor.push(record).expect("feed is window-monotone");
            }
            assert_eq!(
                canonicalize(&handle.read_view().live_micro_clusters()),
                canonicalize(&extractor.finish()),
                "jitter changed the reconciled micro-clusters"
            );
        },
    );
}

/// After a worker death, in-order records for *live* shards keep being
/// accepted — the error is per-shard, not global.
#[test]
fn death_on_one_shard_does_not_poison_the_others() {
    let fx = fixture();

    // Kill the busiest shard — the fixture routes no records to some
    // shards, and a shard that never processes a record never dies.
    let probe = MonitorService::start(&config(&fx, 4, FaultConfig::default()), fx.network.clone())
        .expect("probe service starts");
    let shard_of: Vec<usize> = fx
        .records
        .iter()
        .map(|r| probe.shard_map().shard_of(r.sensor))
        .collect();
    probe.finish();
    let mut load = [0usize; 4];
    for &shard in &shard_of {
        load[shard] += 1;
    }
    let victim = (0..4).max_by_key(|&s| load[s]).unwrap();
    assert!(
        load.iter().filter(|&&n| n > 0).count() >= 2,
        "fixture must populate at least two shards: {load:?}"
    );

    let faults = FaultConfig {
        kill_worker: Some(WorkerKill {
            shard: victim,
            after_records: 0,
        }),
        ..FaultConfig::default()
    };
    let mut service =
        MonitorService::start(&config(&fx, 4, faults), fx.network.clone()).expect("service starts");
    let mut shards_accepted = [false; 4];
    for (&record, &shard) in fx.records.iter().zip(&shard_of) {
        match service.ingest(record) {
            Ok(true) => shards_accepted[shard] = true,
            Ok(false) => panic!("Block policy must not drop"),
            Err(MonitorError::WorkerDied { shard: dead }) => assert_eq!(dead, victim),
            Err(other) => panic!("unexpected ingest error: {other}"),
        }
    }
    for (shard, &accepted) in shards_accepted.iter().enumerate() {
        if shard != victim && load[shard] > 0 {
            assert!(accepted, "live shard {shard} stopped accepting records");
        }
    }
    let metrics = service.finish();
    assert_eq!(metrics.workers_dead, 1);
    assert_eq!(metrics.dead_shards, vec![victim]);
}
