//! The tentpole crash-recovery sweep: kill a `ForestStore` day-bucket
//! write at *every* injected fault point (no sampled subset), reopen, and
//! assert the store either reports a typed corruption error or recovers a
//! prefix of day buckets whose clusters equal the clean run's prefix.
//!
//! The store writes one format, columnar zone-mapped `.acs` segments, so
//! the sweeps cover the segment commit protocol at every boundary of its
//! write sequence.
//!
//! Three exhaustive sweeps:
//!
//! * **Crash at every op boundary** — a power cut between any two backend
//!   operations of a multi-day workload.
//! * **Torn write at every byte** — the cut lands *inside* a write; every
//!   possible torn prefix of every write of a day-bucket file is tried.
//! * **Lying fsync at every durable length** — `sync` succeeds but only
//!   the first `cap` bytes are durable, so the crash happens *after* the
//!   commit rename: the visible file is truncated, and the store must
//!   report a typed `Corrupt` error, never silently return wrong clusters.

use atypical::store::{ForestLevel, ForestStore};
use atypical::AtypicalCluster;
use cps_core::CpsError;
use cps_storage::Io;
use cps_testkit::fixtures::{random_clusters, temp_dir};
use cps_testkit::{canonicalize, Canonical, CrashPlan, DurabilityMode, FaultIo, OpKind};
use std::path::Path;

const DAYS: u32 = 3;

fn day_buckets(seed: u64) -> Vec<Vec<AtypicalCluster>> {
    (0..DAYS)
        .map(|d| random_clusters(seed + u64::from(d), 5, 4))
        .collect()
}

/// The workload under test: open a store, persist each day in order —
/// exactly what the monitor's merger does as days complete.
fn run_workload(io: &Io, root: &Path, days: &[Vec<AtypicalCluster>]) -> cps_core::Result<()> {
    let store = ForestStore::open_with(root, io.clone())?;
    for (d, clusters) in days.iter().enumerate() {
        store.save(ForestLevel::Day, d as u32, clusters)?;
    }
    Ok(())
}

/// Reopens the crashed store with the real backend and checks the
/// recovery contract: every loadable day equals the clean run's bucket,
/// failures are typed, and the recovered days form a prefix (days were
/// written in order, so nothing later may survive an earlier loss).
fn check_recovery(root: &Path, clean: &[Vec<Canonical>], context: &str) {
    let store = ForestStore::open(root).expect("reopen after crash");
    let mut recovered = Vec::new();
    for day in 0..DAYS {
        match store.load(ForestLevel::Day, day) {
            Ok(Some(clusters)) => {
                assert_eq!(
                    canonicalize(&clusters),
                    clean[day as usize],
                    "{context}: day {day} recovered with wrong clusters"
                );
                recovered.push(true);
            }
            Ok(None) => recovered.push(false),
            Err(CpsError::Corrupt { .. }) => recovered.push(false),
            Err(other) => panic!("{context}: day {day}: untyped recovery failure {other:?}"),
        }
    }
    let first_lost = recovered.iter().position(|&r| !r).unwrap_or(DAYS as usize);
    assert!(
        recovered[first_lost..].iter().all(|&r| !r),
        "{context}: recovered days {recovered:?} are not a prefix"
    );
}

#[test]
fn crash_at_every_op_recovers_a_clean_prefix() {
    let days = day_buckets(0xC0);
    let clean: Vec<Vec<Canonical>> = days.iter().map(|c| canonicalize(c)).collect();

    let plan = CrashPlan::record(|io| {
        run_workload(io, &temp_dir("crash-clean"), &days).expect("clean run");
    });
    assert!(plan.len() > 10, "workload too small to be interesting");

    for case in plan.crash_cases() {
        let root = temp_dir("crash-case");
        run_workload(&case.fault.io(), &root, &days)
            .expect_err("a crash fault must abort the workload");
        case.fault
            .simulate_crash()
            .expect("materialize crash state");
        check_recovery(&root, &clean, &case.label);
    }
}

#[test]
fn torn_write_at_every_byte_recovers_a_clean_prefix() {
    let days = day_buckets(0xB0);
    let clean: Vec<Vec<Canonical>> = days.iter().map(|c| canonicalize(c)).collect();

    let plan = CrashPlan::record(|io| {
        run_workload(io, &temp_dir("torn-clean"), &days).expect("clean run");
    });
    let expected_cases: u64 = plan
        .ops()
        .iter()
        .filter_map(|op| match op.op {
            OpKind::Write { len } => Some(len as u64),
            _ => None,
        })
        .sum();
    assert!(expected_cases > 0);

    let mut cases = 0u64;
    for case in plan.torn_cases(|_| true) {
        let root = temp_dir("torn-case");
        run_workload(&case.fault.io(), &root, &days)
            .expect_err("a torn write must abort the workload");
        case.fault
            .simulate_crash()
            .expect("materialize crash state");
        check_recovery(&root, &clean, &case.label);
        cases += 1;
    }
    assert_eq!(
        cases, expected_cases,
        "sweep must cover every byte of every write"
    );
}

#[test]
fn lying_fsync_at_every_durable_length_is_detected() {
    // One day bucket, written through a backend whose fsync lies: after
    // the crash the *visible* (already renamed) file holds only `cap`
    // bytes. Every cap short of the full file must surface as a typed
    // Corrupt error on load — this is the only sweep where a corrupt
    // visible file is reachable at all, since honest-sync crashes always
    // leave buckets absent-or-complete (the two sweeps above).
    let clusters = random_clusters(0xF5, 5, 4);
    let clean = canonicalize(&clusters);

    let probe_root = temp_dir("lying-clean");
    run_workload(
        &FaultIo::new().io(),
        &probe_root,
        std::slice::from_ref(&clusters),
    )
    .expect("clean run");
    let bucket = ForestStore::open(&probe_root)
        .expect("reopen")
        .bucket_path(ForestLevel::Day, 0);
    let full_len = std::fs::metadata(&bucket).expect("bucket written").len();
    assert!(full_len > 12, "bucket must have header + payload");

    for cap in 0..=full_len {
        let root = temp_dir("lying-case");
        let fault = FaultIo::new();
        fault.set_mode(DurabilityMode::CappedSync { cap });
        run_workload(&fault.io(), &root, std::slice::from_ref(&clusters))
            .expect("the lying backend reports success");
        fault.simulate_crash().expect("materialize crash state");

        let store = ForestStore::open(&root).expect("reopen after crash");
        match store.load(ForestLevel::Day, 0) {
            Ok(Some(recovered)) => {
                assert_eq!(
                    cap, full_len,
                    "cap {cap} < {full_len} must not load successfully"
                );
                assert_eq!(canonicalize(&recovered), clean);
            }
            Err(CpsError::Corrupt { .. }) => {
                assert_ne!(cap, full_len, "fully durable bucket must load");
            }
            Ok(None) => panic!("cap {cap}: renamed bucket cannot be absent"),
            Err(other) => panic!("cap {cap}: untyped failure {other:?}"),
        }
    }
}
