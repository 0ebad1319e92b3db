//! Seeded property suite for the ingest conservation identity.
//!
//! Over random feeds, random junk, and random admission configurations,
//! the monitor must never lose a record silently:
//!
//! ```text
//! ingested + dropped + shed + quarantined (+ rejected) == offered
//! ```
//!
//! holds *exactly*, the per-reason quarantine split matches an
//! independent mirror of the admission rules, the dead-letter buffer
//! plus its eviction counter accounts for every diverted record, and —
//! the analytics half of the property — quarantined records never
//! contribute to any cluster: the surviving output equals a fault-free
//! twin fed only the admitted records.
//!
//! Reproduce failures with the printed `CPS_FAULT_SEED`.

use atypical::online::OnlineExtractor;
use cps_core::{AtypicalRecord, Params, SensorId, Severity, TimeWindow};
use cps_monitor::{
    AdmissionConfig, MonitorConfig, MonitorService, OverflowPolicy, QuarantineReason,
};
use cps_testkit::fixtures::tiny_day;
use cps_testkit::{canonicalize, expected_admission, junk_feed, run_seeded};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const ROUNDS: usize = 16;

#[test]
fn conservation_holds_under_random_junk_and_admission() {
    run_seeded(
        "conservation_holds_under_random_junk_and_admission",
        |seed| {
            let (sim, _) = tiny_day(seed);
            let network = Arc::new(sim.network().clone());
            let num_sensors = network.num_sensors();
            let spec = sim.config().spec;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x636f_6e73);
            for round in 0..ROUNDS {
                // Random window-monotone clean feed over the real network.
                let len = rng.gen_range(50..400);
                let mut clean: Vec<AtypicalRecord> = (0..len)
                    .map(|_| {
                        AtypicalRecord::new(
                            SensorId::new(rng.gen_range(0..num_sensors) as u32),
                            TimeWindow::new(rng.gen_range(0..50u32)),
                            Severity::from_secs(rng.gen_range(30..3600u64)),
                        )
                    })
                    .collect();
                clean.sort_unstable_by_key(|r| (r.window, r.sensor));
                let feed = junk_feed(&clean, num_sensors, rng.gen());

                let admission = AdmissionConfig {
                    shed: false,
                    quarantine: true,
                    order_tolerance_windows: 0,
                    dedup: rng.gen_bool(0.5),
                    // Deliberately spans 1..64 so eviction is exercised: the
                    // counters must stay exact no matter the buffer size.
                    quarantine_capacity: rng.gen_range(1..64),
                };
                let expected = expected_admission(&feed.records, num_sensors, &admission);
                let shards = if rng.gen_bool(0.5) { 1 } else { 4 };
                let tag = format!("round {round} (shards {shards}, dedup {})", admission.dedup);

                let config = MonitorConfig {
                    shards,
                    overflow: OverflowPolicy::Block,
                    params: Params::paper_defaults(),
                    spec,
                    admission,
                    ..MonitorConfig::default()
                };
                let mut service =
                    MonitorService::start(&config, network.clone()).expect("service starts");
                for &r in &feed.records {
                    service.ingest(r).unwrap_or_else(|e| {
                        panic!("{tag}: quarantine must divert junk, not error: {e}")
                    });
                }
                let quarantined = service.quarantined();
                let evicted = service.quarantine_evicted();
                let handle = service.handle();
                let snapshot = service.finish();

                // The identity, exactly — Block policy with no faults means no
                // drops, sheds, or rejections in this suite.
                let offered = feed.records.len() as u64;
                assert_eq!(
                    snapshot.records_ingested + snapshot.records_quarantined,
                    offered,
                    "{tag}: conservation violated"
                );
                assert_eq!(snapshot.records_dropped, 0, "{tag}");
                assert_eq!(snapshot.records_shed, 0, "{tag}");
                assert_eq!(
                    snapshot.records_ingested,
                    expected.admitted.len() as u64,
                    "{tag}: admitted count diverged from the mirror"
                );
                assert_eq!(
                    (
                        snapshot.quarantined_malformed,
                        snapshot.quarantined_out_of_order,
                        snapshot.quarantined_duplicate
                    ),
                    (
                        expected.malformed,
                        expected.out_of_order,
                        expected.duplicate
                    ),
                    "{tag}: per-reason quarantine split diverged from the mirror"
                );

                // Dead-letter accounting: buffer + evictions == total, and
                // every buffered record carries a truthful reason.
                assert_eq!(
                    quarantined.len() as u64 + evicted,
                    snapshot.records_quarantined,
                    "{tag}: dead-letter buffer leaks records"
                );
                for q in &quarantined {
                    if q.reason == QuarantineReason::Malformed {
                        assert!(
                            q.record.sensor.index() >= num_sensors,
                            "{tag}: a malformed-tagged record has a valid sensor"
                        );
                    } else {
                        assert!(
                            q.record.sensor.index() < num_sensors,
                            "{tag}: a {} record has an unknown sensor",
                            q.reason
                        );
                    }
                }

                // Quarantined records never reach the analytics: the service's
                // surviving clusters equal a fault-free twin fed only the
                // mirror's admitted records.
                let mut twin = OnlineExtractor::new(&network, Params::paper_defaults(), spec);
                for &r in &expected.admitted {
                    twin.push(r).expect("admitted feed is window-monotone");
                }
                assert_eq!(
                    canonicalize(&handle.read_view().live_micro_clusters()),
                    canonicalize(&twin.finish()),
                    "{tag}: a quarantined record leaked into the clustering"
                );
            }
        },
    );
}
