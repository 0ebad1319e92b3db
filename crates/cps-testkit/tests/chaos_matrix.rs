//! The composed chaos matrix: multi-fault scenarios against a live
//! monitor, asserting the degraded-operation contract end to end.
//!
//! * `composed_chaos_matrix` — the full stack (junk feed, reader storm,
//!   EIO burst, slow disk, worker kill, drop burst) × {1, 4} shards ×
//!   WAL on/off: terminates, accounts every record exactly, and every
//!   reader answer carries a verified staleness stamp (the assertions
//!   live inside [`run_chaos`]).
//! * `composed_chaos_every_domain` — one composed WAL scenario per
//!   registered event-source domain, via the conformance registry.
//! * `lossless_chaos_equals_fault_free_twin` — without the drop burst,
//!   every not-ingested record is *quarantined* (accounted), so the
//!   surviving output must equal the fault-free twin canonically:
//!   quarantined records provably never reach the analytics.
//! * `shed_storm_sheds_and_conserves` — capacity-1 channels + scheduling
//!   jitter with shedding on: backpressure converts to counted sheds,
//!   never an unbounded wait, and conservation still holds exactly.
//! * `failed_checkpoint_is_counted_and_rescheduled` — a planted EIO on
//!   the checkpoint write with retries off: the failure lands in
//!   `checkpoint_failures` (not silence), ingest is unaffected, and a
//!   rescheduled checkpoint later succeeds.
//! * `deadline_overrun_is_bounded_by_one_storage_read` — with persisted
//!   days behind a slow disk, a deadline query returns a degraded answer
//!   whose overrun is bounded by the one storage read in flight when the
//!   budget expired.
//!
//! Seeded: failures print `CPS_FAULT_SEED=<seed>`; rerun with that
//! environment variable to reproduce.

use cps_monitor::{DurabilityConfig, FsyncPolicy, MonitorConfig, MonitorService, OverflowPolicy};
use cps_sim::Domain;
use cps_testkit::fixtures::temp_dir;
use cps_testkit::{
    canonicalize, registry, run_chaos, run_seeded, ChaosScenario, ConformanceCase, FaultIo,
    FaultKind, FaultPlan, OpKind,
};
use std::sync::Arc;
use std::time::Duration;

const DAYS: u32 = 2;

fn traffic_case(seed: u64) -> ConformanceCase {
    ConformanceCase::new(Domain::Traffic, seed, DAYS)
}

#[test]
fn composed_chaos_matrix() {
    run_seeded("composed_chaos_matrix", |seed| {
        let case = traffic_case(seed);
        for shards in [1usize, 4] {
            for wal in [false, true] {
                let scenario = ChaosScenario::composed(seed, shards, wal);
                let dir = temp_dir(&format!("chaos-composed-{shards}-{wal}"));
                let report = run_chaos(&scenario, &case, &dir);
                assert!(
                    report.offered > report.expected.admitted.len() as u64,
                    "{}: the junk feed must actually contain junk",
                    report.label
                );
                assert!(
                    report.expected.quarantined() > 0,
                    "{}: junk must exercise every quarantine path",
                    report.label
                );
            }
        }
    });
}

#[test]
fn composed_chaos_every_domain() {
    run_seeded("composed_chaos_every_domain", |seed| {
        for case in registry(seed, DAYS) {
            let scenario = ChaosScenario::composed(case.seed, 2, true);
            let dir = temp_dir(&format!("chaos-domain-{}", case.domain));
            let report = run_chaos(&scenario, &case, &dir);
            assert!(
                report.reader_queries > 0,
                "{}: {} reader storm went silent",
                case.domain,
                report.label
            );
        }
    });
}

#[test]
fn lossless_chaos_equals_fault_free_twin() {
    run_seeded("lossless_chaos_equals_fault_free_twin", |seed| {
        let case = traffic_case(seed);
        for shards in [1usize, 4] {
            for wal in [false, true] {
                let scenario = ChaosScenario::lossless(seed, shards, wal);
                let dir = temp_dir(&format!("chaos-lossless-{shards}-{wal}"));
                let report = run_chaos(&scenario, &case, &dir);
                assert!(
                    report.is_lossless(),
                    "{}: a lossless cell dropped, shed, or rejected records",
                    report.label
                );
                assert_eq!(
                    canonicalize(&report.service_micros),
                    canonicalize(&report.twin_micros),
                    "{}: surviving output diverged from the fault-free twin \
                     (quarantined records must never reach the analytics)",
                    report.label
                );
            }
        }
    });
}

#[test]
fn shed_storm_sheds_and_conserves() {
    run_seeded("shed_storm_sheds_and_conserves", |seed| {
        let case = traffic_case(seed);
        let scenario = ChaosScenario::shed_storm(seed, 2);
        let dir = temp_dir("chaos-shed");
        let report = run_chaos(&scenario, &case, &dir);
        assert!(
            report.snapshot.records_shed > 0,
            "{}: capacity-1 channels under jitter must shed",
            report.label
        );
        assert_eq!(
            report.snapshot.records_ingested + report.snapshot.records_shed,
            report.offered,
            "{}: every offered record is either ingested or counted shed",
            report.label
        );
    });
}

fn wal_only_config(
    dir: &std::path::Path,
    case: &ConformanceCase,
    retry_attempts: u32,
) -> MonitorConfig {
    MonitorConfig {
        shards: 1,
        overflow: OverflowPolicy::Block,
        spec: case.source().config().spec,
        durability: DurabilityConfig {
            wal_dir: Some(dir.join("wal")),
            fsync: FsyncPolicy::Group,
            group_commit_records: 8,
            checkpoint_interval_records: 100,
            respawn_budget: 0,
            segment_bytes: 8192,
            retry_attempts,
            retry_base_ms: 1,
            retry_max_ms: 4,
            ..DurabilityConfig::default()
        },
        ..MonitorConfig::default()
    }
}

/// A planted EIO on the checkpoint's temp-file write, with retries off:
/// the failure must land in `checkpoint_failures` (PR 5 swallowed it),
/// must not disturb ingest, and the rescheduled checkpoint must succeed.
#[test]
fn failed_checkpoint_is_counted_and_rescheduled() {
    run_seeded("failed_checkpoint_is_counted_and_rescheduled", |seed| {
        let case = ConformanceCase::new(Domain::Traffic, seed, 1);
        let network = Arc::new(case.source().network().clone());
        let feed = case.feed();

        // Clean run: record the op log and locate the first checkpoint
        // write. One shard and no snapshot store keep the op sequence
        // deterministic (all I/O happens on the ingest thread).
        let clean_dir = temp_dir("chaos-ck-clean");
        let fault = FaultIo::new();
        let cfg = wal_only_config(&clean_dir, &case, 1);
        let mut service =
            MonitorService::start_with(&cfg, network.clone(), fault.io()).expect("clean start");
        for &r in &feed {
            service.ingest(r).expect("clean feed accepted");
        }
        let clean = service.finish();
        assert!(clean.checkpoints >= 2, "feed too short to checkpoint twice");
        assert_eq!(clean.checkpoint_failures, 0);
        let ck_write = fault
            .ops()
            .iter()
            .find(|op| {
                matches!(op.op, OpKind::Write { .. })
                    && op.path.to_string_lossy().contains("checkpoint")
            })
            .map(|op| op.index)
            .expect("the clean run wrote a checkpoint");

        // Faulted twin: same feed, fresh directory, EIO planted exactly on
        // that write, retries off so the failure is permanent.
        let fail_dir = temp_dir("chaos-ck-fail");
        let fault = FaultIo::new();
        fault.set_plans(vec![FaultPlan {
            at_op: ck_write,
            kind: FaultKind::Error,
        }]);
        let cfg = wal_only_config(&fail_dir, &case, 1);
        let mut service =
            MonitorService::start_with(&cfg, network.clone(), fault.io()).expect("faulted start");
        for &r in &feed {
            service
                .ingest(r)
                .expect("a failed checkpoint must never surface as an ingest error");
        }
        let faulted = service.finish();
        assert_eq!(fault.pending_plans(), 0, "the planted fault must fire");
        assert_eq!(
            faulted.checkpoint_failures, 1,
            "the failed checkpoint must be counted, not swallowed"
        );
        assert!(
            faulted.checkpoints >= 1,
            "a rescheduled checkpoint must succeed after the failure"
        );
        assert_eq!(
            faulted.records_ingested, clean.records_ingested,
            "a checkpoint failure must not cost a single record"
        );
    });
}

/// With both days persisted behind a slow disk, a deadline-bounded query
/// must return a degraded answer whose overrun is bounded by the one
/// storage read that was in flight when the budget expired — never a
/// hang, and always with a staleness stamp matching the publication log.
#[test]
fn deadline_overrun_is_bounded_by_one_storage_read() {
    run_seeded("deadline_overrun_is_bounded_by_one_storage_read", |seed| {
        let case = traffic_case(seed);
        let network = Arc::new(case.source().network().clone());
        let dir = temp_dir("chaos-deadline");
        let fault = FaultIo::new();
        let mut cfg = wal_only_config(&dir, &case, 8);
        cfg.snapshot_dir = Some(dir.join("store"));
        let mut service =
            MonitorService::start_with(&cfg, network.clone(), fault.io()).expect("service starts");
        let handle = service.handle();
        for &r in &case.feed() {
            service.ingest(r).expect("feed accepted");
        }
        service.finish();

        let serve = handle.serve();
        // Generous budget: both persisted days are read, nothing omitted.
        let full = serve
            .query_guided_deadline(0, DAYS, Duration::from_secs(5))
            .expect("full-budget query");
        assert!(!full.degraded, "a generous budget must not degrade");
        assert!(full.days_omitted.is_empty());
        assert_eq!(full.epoch, serve.epoch(), "staleness stamp at quiescence");

        // Zero budget: every persisted day is omitted before any storage
        // read starts — the degraded answer is immediate.
        let zero = serve
            .query_guided_deadline(0, DAYS, Duration::ZERO)
            .expect("zero-budget query");
        assert!(zero.degraded);
        assert_eq!(
            zero.days_omitted,
            (0..DAYS).collect::<Vec<_>>(),
            "with no budget every store-resident day is omitted"
        );
        assert!(
            zero.elapsed < Duration::from_millis(250),
            "a zero-budget answer must be immediate, not a hang"
        );
        assert_eq!(zero.epoch, serve.epoch(), "degraded stamp still verified");
        let zero_sig = serve
            .significant_clusters_deadline(0, DAYS, Duration::ZERO)
            .expect("zero-budget query");
        assert!(zero_sig.degraded);
        assert_eq!(zero_sig.days_omitted, (0..DAYS).collect::<Vec<_>>());

        // Slow disk: the next storage read stalls 40ms against a 5ms
        // budget. The read already in flight completes (day 0 served);
        // the budget check before day 1's read then degrades. Overrun is
        // bounded by that one read.
        fault.push_plan(FaultPlan {
            at_op: fault.op_count(),
            kind: FaultKind::Latency { millis: 40 },
        });
        let budget = Duration::from_millis(5);
        let slow = serve
            .query_guided_deadline(0, DAYS, budget)
            .expect("slow-disk query");
        assert_eq!(fault.pending_plans(), 0, "the latency fault must fire");
        assert!(slow.degraded, "an expired budget must degrade");
        assert_eq!(
            slow.days_omitted,
            vec![1],
            "only the day after the slow read is omitted"
        );
        assert!(
            slow.elapsed <= budget + Duration::from_millis(200),
            "overrun bounded by one storage read: elapsed {:?}",
            slow.elapsed
        );

        let (degraded, overruns) = serve.degrade_stats();
        assert_eq!(
            degraded, 3,
            "exactly the two zero-budget queries and the slow-disk one degraded"
        );
        assert!(overruns >= 1, "the slow-disk query overran its budget");
    });
}
