//! Transient-fault retry proofs for the storage I/O path.
//!
//! The acceptance bar for the retry layer is *differential*: a run that
//! hits `k` transient EIO faults within the retry budget must leave
//! **byte-identical** WAL, checkpoint, and segment-store contents
//! compared to a fault-free twin — retries must reproduce exactly the
//! bytes the clean run would have written, never duplicate or reorder
//! frames. Exhausting the budget must surface as the typed
//! [`MonitorError::Wal`] (never a panic or a silent skip), and the
//! recovery path must burn through transient faults on checkpoint and
//! segment *reads* with the same budget.
//!
//! Injected faults fail an operation *before* any bytes reach the file,
//! which is what makes byte-identity provable; torn writes (bytes
//! partially applied) are a crash-consistency concern covered by the
//! crash-recovery suites, not a retry concern.

use cps_monitor::{
    DurabilityConfig, FsyncPolicy, MetricsSnapshot, MonitorConfig, MonitorError, MonitorService,
    OverflowPolicy,
};
use cps_sim::Domain;
use cps_testkit::fixtures::temp_dir;
use cps_testkit::{run_seeded, ConformanceCase, FaultIo, FaultKind, FaultPlan};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Every file under `root`, relative path → contents.
fn dir_contents(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("path under root")
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, std::fs::read(&path).expect("read file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

fn config(dir: &Path, case: &ConformanceCase, retry_attempts: u32) -> MonitorConfig {
    MonitorConfig {
        shards: 1,
        overflow: OverflowPolicy::Block,
        spec: case.source().config().spec,
        snapshot_dir: Some(dir.join("store")),
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

/// Runs the case's one-day feed to completion on `fault`-backed I/O.
/// Panics on any ingest error (these runs must stay under budget).
fn run_to_finish(
    case: &ConformanceCase,
    dir: &Path,
    fault: &FaultIo,
    retry_attempts: u32,
) -> MetricsSnapshot {
    let network = Arc::new(case.source().network().clone());
    let cfg = config(dir, case, retry_attempts);
    let mut service =
        MonitorService::start_with(&cfg, network, fault.io()).expect("service starts");
    for &r in &case.feed() {
        service.ingest(r).expect("feed accepted under budget");
    }
    service.finish()
}

/// `k = 3` consecutive transient EIO faults (each failed attempt's retry
/// is a fresh backend op, so a consecutive-op burst stresses one logical
/// operation `k` times) under a budget of 8: the run completes, counts
/// its retries, and leaves WAL + checkpoint + segment-store bytes
/// identical to the fault-free twin.
#[test]
fn transient_eio_burst_leaves_byte_identical_files() {
    run_seeded("transient_eio_burst_leaves_byte_identical_files", |seed| {
        let case = ConformanceCase::new(Domain::Traffic, seed, 1);

        let clean_dir = temp_dir("retry-clean");
        let clean_fault = FaultIo::new();
        let clean = run_to_finish(&case, &clean_dir, &clean_fault, 8);
        assert_eq!(clean.io_retries, 0, "the clean run must not retry");
        assert!(clean.checkpoints >= 1, "feed too short to checkpoint");

        let faulted_dir = temp_dir("retry-faulted");
        let fault = FaultIo::new();
        fault.set_plans(
            (0..3)
                .map(|i| FaultPlan {
                    at_op: 40 + i,
                    kind: FaultKind::Error,
                })
                .collect(),
        );
        let faulted = run_to_finish(&case, &faulted_dir, &fault, 8);
        assert_eq!(fault.pending_plans(), 0, "all three faults must fire");
        assert!(
            faulted.io_retries >= 3,
            "three transient faults need at least three retries, saw {}",
            faulted.io_retries
        );
        assert_eq!(faulted.retries_exhausted, 0, "the budget covers the burst");
        assert_eq!(faulted.records_ingested, clean.records_ingested);

        let clean_files = dir_contents(&clean_dir);
        let faulted_files = dir_contents(&faulted_dir);
        assert_eq!(
            clean_files.keys().collect::<Vec<_>>(),
            faulted_files.keys().collect::<Vec<_>>(),
            "fault-free and retried runs must produce the same file set"
        );
        for (name, bytes) in &clean_files {
            assert_eq!(
                bytes, &faulted_files[name],
                "{name}: retried contents diverged from the fault-free run"
            );
        }
    });
}

/// A burst as long as the whole budget: the operation fails permanently
/// and ingest surfaces the typed [`MonitorError::Wal`] — no panic, no
/// silent skip — while the service stays live for the rest of the feed.
#[test]
fn retry_budget_exhaustion_is_a_typed_wal_error() {
    run_seeded("retry_budget_exhaustion_is_a_typed_wal_error", |seed| {
        let case = ConformanceCase::new(Domain::Traffic, seed, 1);
        let dir = temp_dir("retry-exhausted");
        let fault = FaultIo::new();
        // Budget 2 (one retry): both the first attempt and its retry hit
        // planted EIO, so the logical operation fails permanently.
        fault.set_plans(vec![
            FaultPlan {
                at_op: 40,
                kind: FaultKind::Error,
            },
            FaultPlan {
                at_op: 41,
                kind: FaultKind::Error,
            },
        ]);
        let network = Arc::new(case.source().network().clone());
        let cfg = config(&dir, &case, 2);
        let mut service =
            MonitorService::start_with(&cfg, network, fault.io()).expect("service starts");

        let mut wal_errors = 0u64;
        for &r in &case.feed() {
            match service.ingest(r) {
                Ok(_) => {}
                Err(MonitorError::Wal { detail, .. }) => {
                    assert!(
                        detail.contains("injected"),
                        "the typed error must carry the underlying cause: {detail}"
                    );
                    wal_errors += 1;
                }
                Err(e) => panic!("expected a typed WAL error, got: {e}"),
            }
        }
        assert_eq!(
            wal_errors, 1,
            "exactly one logical operation exhausts its budget"
        );
        assert_eq!(fault.pending_plans(), 0);
        let snapshot = service.finish();
        assert!(
            snapshot.retries_exhausted >= 1,
            "exhaustion must be counted"
        );
        assert!(snapshot.io_retries >= 1, "the one retry must be counted");
        assert_eq!(
            snapshot.records_ingested + wal_errors,
            case.feed().len() as u64,
            "the failed record is accounted, everything else ingested"
        );
    });
}

/// Transient faults on the *read* path: recovery's checkpoint load and
/// WAL segment replay retry under the same budget, so a recovery racing
/// a flaky disk still comes back — and resumes exactly where the clean
/// shutdown left off.
#[test]
fn recovery_retries_transient_read_faults() {
    run_seeded("recovery_retries_transient_read_faults", |seed| {
        let case = ConformanceCase::new(Domain::Traffic, seed, 1);
        let network = Arc::new(case.source().network().clone());
        let feed = case.feed();
        let dir = temp_dir("retry-recovery");
        let cfg = config(&dir, &case, 8);

        let half = feed.len() / 2;
        assert!(half > 0, "feed too short to interrupt");
        let fault = FaultIo::new();
        let mut first =
            MonitorService::start_with(&cfg, network.clone(), fault.io()).expect("first start");
        for &r in &feed[..half] {
            first.ingest(r).expect("prefix accepted");
        }
        first.finish();

        // Fresh backend for the recovery, with transient EIO on its first
        // two operations — the checkpoint read and the first replay read.
        let fault = FaultIo::new();
        fault.set_plans(
            (0..2)
                .map(|i| FaultPlan {
                    at_op: i,
                    kind: FaultKind::Error,
                })
                .collect(),
        );
        let (mut second, report) =
            MonitorService::recover_with(&cfg, network, fault.io()).expect("recovery under budget");
        assert_eq!(fault.pending_plans(), 0, "both read faults must fire");
        assert_eq!(
            report.resume_from as usize, half,
            "retried recovery resumes exactly at the interruption point"
        );
        let handle = second.handle();
        assert!(
            handle.metrics().io_retries >= 2,
            "both transient read faults must surface as retries"
        );
        assert_eq!(handle.metrics().retries_exhausted, 0);
        for &r in &feed[half..] {
            second.ingest(r).expect("resumed feed accepted");
        }
        second.finish();
    });
}
