//! The tentpole crash-equivalence sweeps for the durable monitor: kill
//! the whole service at *every* backend operation boundary (WAL appends,
//! group-commit fsyncs, segment rotations, checkpoint writes, segment
//! truncations), recover from checkpoint + WAL replay, resume the feed at
//! [`RecoveryReport::resume_from`], and require the final state to equal
//! an uninterrupted run's — bit-identical for one shard, as canonical
//! multisets across shards (where merger arrival order is scheduling-
//! dependent by design).
//!
//! Also covered: torn WAL frames at every byte boundary of representative
//! appends, worker kill + supervised respawn with zero record loss,
//! respawn-budget exhaustion surfacing the typed
//! [`MonitorError::ShardFailed`], restart after a clean shutdown, the
//! `start_with` guard against silently shadowing durable state, and format
//! fuzz over a real `wal_dir`: every byte of `checkpoint.ck` flipped and
//! every truncation, every byte of a sealed and of the final WAL segment.
//!
//! The batched hot path gets the same treatment: crash sweeps at every op
//! boundary of a batched feed (whose WAL carries multi-record batch
//! frames), torn-write sweeps at every byte inside a multi-record batch
//! frame, and resumption with a *different* batch size so the re-fed
//! chunks straddle the original flush boundaries — recovery must always
//! present a clean record prefix (never a partially applied flush) and
//! the resumed feed must apply each record exactly once.

use atypical::online::OnlineExtractor;
use atypical::AtypicalCluster;
use cps_core::{AtypicalRecord, CpsError, Params, RecordBatch, WindowSpec};
use cps_geo::RoadNetwork;
use cps_monitor::durability::{checkpoint_path, load_checkpoint, shard_wal_dir};
use cps_monitor::{
    DurabilityConfig, FaultConfig, FsyncPolicy, MonitorConfig, MonitorError, MonitorHandle,
    MonitorService, OverflowPolicy, RecoveryReport, WorkerKill,
};
use cps_storage::wal::{list_segments, segment_path, WAL_HEADER_SIZE};
use cps_storage::Io;
use cps_testkit::fixtures::{temp_dir, tiny_day};
use cps_testkit::{canonicalize, Canonical, CrashPlan, OpKind};
use std::path::Path;
use std::sync::Arc;

/// Sweeps re-run the whole service once per fault point; a bounded feed
/// keeps the op log (and so the sweep) small enough to stay exhaustive.
const FEED_LEN: usize = 120;

struct Fixture {
    network: Arc<RoadNetwork>,
    records: Vec<AtypicalRecord>,
    params: Params,
    spec: WindowSpec,
}

fn fixture() -> Fixture {
    let (sim, mut records) = tiny_day(11);
    records.truncate(FEED_LEN);
    assert!(records.len() >= 100, "fixture day too small for the sweeps");
    Fixture {
        network: Arc::new(sim.network().clone()),
        records,
        params: Params::paper_defaults(),
        spec: sim.config().spec,
    }
}

fn config(fx: &Fixture, shards: usize, wal_dir: &Path, checkpoint_interval: u64) -> MonitorConfig {
    MonitorConfig {
        shards,
        params: fx.params,
        spec: fx.spec,
        overflow: OverflowPolicy::Block,
        durability: DurabilityConfig {
            wal_dir: Some(wal_dir.to_path_buf()),
            fsync: FsyncPolicy::Group,
            group_commit_records: 4,
            checkpoint_interval_records: checkpoint_interval,
            respawn_budget: 0,
            // The minimum: frames are a few dozen bytes, so rotations
            // actually happen inside the bounded feed.
            segment_bytes: 1024,
            ..DurabilityConfig::default()
        },
        ..MonitorConfig::default()
    }
}

/// The pipeline state the sweeps compare: live micro-clusters in
/// day-then-finalization order and the live macro fixpoint set in
/// admission order. For one shard both are deterministic, so equality is
/// bit-identity of the full `⟨ID, SF, TF⟩` clusters.
type Fingerprint = (Vec<AtypicalCluster>, Vec<AtypicalCluster>);

/// The live micro- and macro-clusters of one pinned view.
fn fingerprint(handle: &MonitorHandle) -> Fingerprint {
    let view = handle.read_view();
    (
        view.live_micro_clusters(),
        view.live_macro_clusters().to_vec(),
    )
}

/// Feeds records in order until the first ingest error; returns the index
/// of the record the error rejected (`None` = whole feed accepted).
fn feed(service: &mut MonitorService, records: &[AtypicalRecord]) -> Option<usize> {
    for (i, &record) in records.iter().enumerate() {
        match service.ingest(record) {
            Ok(true) => {}
            Ok(false) => panic!("Block policy must not drop"),
            Err(_) => return Some(i),
        }
    }
    None
}

/// One full service lifetime under `io`: start, feed until the first
/// error, finish. Returns where the feed stopped and the final state;
/// `None` if the crash hit `start_with` itself (nothing ran).
fn try_run_service(
    io: &Io,
    fx: &Fixture,
    config: &MonitorConfig,
) -> Option<(Option<usize>, Fingerprint)> {
    let mut service = MonitorService::start_with(config, fx.network.clone(), io.clone()).ok()?;
    let handle = service.handle();
    let stopped = feed(&mut service, &fx.records);
    service.finish();
    let fp = fingerprint(&handle);
    Some((stopped, fp))
}

/// [`try_run_service`] for runs whose start must succeed.
fn run_service(io: &Io, fx: &Fixture, config: &MonitorConfig) -> (Option<usize>, Fingerprint) {
    try_run_service(io, fx, config).expect("service starts")
}

/// Recovers from the crashed state under the real backend, resumes the
/// feed at the reported position, and returns the final state.
fn recover_and_resume(fx: &Fixture, config: &MonitorConfig) -> Fingerprint {
    let (mut service, report) =
        MonitorService::recover(config, fx.network.clone()).expect("recovery succeeds");
    let handle = service.handle();
    let resume = report.resume_from as usize;
    assert!(
        resume <= fx.records.len(),
        "resume_from {resume} exceeds the feed"
    );
    assert!(
        feed(&mut service, &fx.records[resume..]).is_none(),
        "resumed feed must be accepted in full"
    );
    let metrics = service.finish();
    assert_eq!(metrics.recoveries, 1);
    fingerprint(&handle)
}

fn canonical(fp: &Fingerprint) -> Vec<Canonical> {
    canonicalize(&fp.0)
}

/// Runs the full crash sweep for one config shape: record the clean op
/// log, then for every op boundary crash there, recover, resume, and
/// compare against the uninterrupted run through `check`.
fn sweep_every_op(
    fx: &Fixture,
    shards: usize,
    checkpoint_interval: u64,
    tag: &str,
    check: impl Fn(&Fingerprint, &Fingerprint, &str),
) {
    let mut clean = None;
    let plan = CrashPlan::record(|io| {
        let wal_dir = temp_dir(&format!("{tag}-clean"));
        let cfg = config(fx, shards, &wal_dir, checkpoint_interval);
        let (stopped, fp) = run_service(io, fx, &cfg);
        assert_eq!(stopped, None, "baseline run must accept the whole feed");
        clean = Some(fp);
    });
    let clean = clean.unwrap();
    assert!(
        plan.len() > 100,
        "op log too small to be interesting: {} ops",
        plan.len()
    );
    if checkpoint_interval > 0 {
        assert!(
            plan.ops().iter().any(|op| matches!(op.op, OpKind::Remove)),
            "checkpointing must truncate dead segments in the baseline"
        );
    }

    for case in plan.crash_cases() {
        let wal_dir = temp_dir(&format!("{tag}-case"));
        let cfg = config(fx, shards, &wal_dir, checkpoint_interval);
        let io = case.fault.io();
        // A crash during `start_with` leaves nothing running; ingest may
        // also swallow the fault entirely (checkpoint failures only
        // postpone truncation). The crash state is materialized either
        // way and recovery must cope.
        let _ = try_run_service(&io, fx, &cfg);
        case.fault
            .simulate_crash()
            .expect("materialize crash state");
        let recovered = recover_and_resume(fx, &cfg);
        check(&recovered, &clean, &case.label);
    }
}

/// One shard: every message reaches the merger in a deterministic order,
/// so a crash planted at every op boundary must recover to the
/// bit-identical state — same clusters, same IDs, same admission order.
#[test]
fn crash_at_every_op_is_bit_identical_for_one_shard() {
    let fx = fixture();
    sweep_every_op(&fx, 1, 30, "rec1", |recovered, clean, label| {
        assert_eq!(recovered, clean, "{label}: recovered state diverged");
    });
}

/// Four shards with checkpoints and segment truncation in the loop:
/// merger arrival order is scheduling-dependent, so equivalence is the
/// canonical micro-cluster multiset.
#[test]
fn crash_at_every_op_is_canonically_equal_across_shards() {
    let fx = fixture();
    let mut checked = 0u32;
    sweep_every_op(&fx, 4, 25, "rec4", |recovered, clean, label| {
        assert_eq!(
            canonical(recovered),
            canonical(clean),
            "{label}: recovered micro-clusters diverged"
        );
    });
    let _ = &mut checked;
}

/// A WAL-enabled run must produce exactly the state a WAL-less run does —
/// durability is an overlay, not a semantic change.
#[test]
fn wal_overlay_does_not_change_the_output() {
    let fx = fixture();
    let wal_dir = temp_dir("overlay");
    let cfg = config(&fx, 1, &wal_dir, 30);
    let (stopped, with_wal) = run_service(&Io::real(), &fx, &cfg);
    assert_eq!(stopped, None);

    let plain = MonitorConfig {
        shards: 1,
        params: fx.params,
        spec: fx.spec,
        overflow: OverflowPolicy::Block,
        ..MonitorConfig::default()
    };
    let (stopped, without_wal) = run_service(&Io::real(), &fx, &plain);
    assert_eq!(stopped, None);
    assert_eq!(with_wal, without_wal);
}

/// Torn WAL frames: the power cut lands *inside* an append. Every byte
/// boundary of three representative frames (early, mid-feed, and late —
/// the last is past checkpoints) must recover to the bit-identical state:
/// the torn frame is repaired away as a clean prefix and its record
/// re-fed via `resume_from`.
#[test]
fn torn_frame_at_every_byte_recovers_bit_identically() {
    let fx = fixture();
    let mut clean = None;
    let plan = CrashPlan::record(|io| {
        let wal_dir = temp_dir("torn-clean");
        let cfg = config(&fx, 1, &wal_dir, 30);
        let (stopped, fp) = run_service(io, &fx, &cfg);
        assert_eq!(stopped, None);
        clean = Some(fp);
    });
    let clean = clean.unwrap();

    // Representative frames: appends (writes on segment files, past the
    // small segment header) spread across the feed.
    let appends: Vec<u64> = plan
        .ops()
        .iter()
        .filter(|rec| {
            matches!(rec.op, OpKind::Write { len } if len > 20)
                && rec.path.to_string_lossy().contains("shard-0")
        })
        .map(|rec| rec.index)
        .collect();
    assert!(appends.len() > 50, "too few appends: {}", appends.len());
    let picks = [
        appends[1],
        appends[appends.len() / 2],
        appends[appends.len() - 2],
    ];

    let mut cases = 0u32;
    for case in plan.torn_cases(|rec| picks.contains(&rec.index)) {
        let wal_dir = temp_dir("torn-case");
        let cfg = config(&fx, 1, &wal_dir, 30);
        let io = case.fault.io();
        let (stopped, _) = run_service(&io, &fx, &cfg);
        assert!(
            stopped.is_some(),
            "{}: a torn append must fail ingest",
            case.label
        );
        case.fault
            .simulate_crash()
            .expect("materialize crash state");
        let recovered = recover_and_resume(&fx, &cfg);
        assert_eq!(recovered, clean, "{}: recovered state diverged", case.label);
        cases += 1;
    }
    assert!(cases > 60, "torn sweep too small: {cases} cases");
}

/// Worker kill under supervision: every death is respawned from
/// checkpoint + WAL replay, the failed send retried, and zero records
/// lost — the whole feed is accepted and the canonical output equals a
/// single extractor over the same records.
#[test]
fn killed_workers_respawn_with_zero_record_loss() {
    let fx = fixture();
    let wal_dir = temp_dir("respawn");
    let mut cfg = config(&fx, 4, &wal_dir, 30);
    cfg.durability.respawn_budget = 8;
    // Capacity 1 bounds the records parked in a dead worker's channel and
    // forces the next send to observe the death.
    cfg.channel_capacity = 1;
    let probe = MonitorService::start(
        &MonitorConfig {
            shards: 4,
            params: fx.params,
            spec: fx.spec,
            ..MonitorConfig::default()
        },
        fx.network.clone(),
    )
    .expect("probe starts");
    let mut load = [0usize; 4];
    for r in &fx.records {
        load[probe.shard_map().shard_of(r.sensor)] += 1;
    }
    probe.finish();
    let victim = (0..4).max_by_key(|&s| load[s]).unwrap();
    assert!(load[victim] > 40, "victim shard too quiet: {load:?}");
    cfg.faults = FaultConfig {
        kill_worker: Some(WorkerKill {
            shard: victim,
            after_records: 20,
        }),
        ..FaultConfig::default()
    };

    let mut service = MonitorService::start(&cfg, fx.network.clone()).expect("service starts");
    let handle = service.handle();
    assert!(
        feed(&mut service, &fx.records).is_none(),
        "supervision must hide every death from ingest"
    );
    let metrics = service.finish();
    assert!(metrics.respawns >= 1, "the kill hook must have fired");
    assert_eq!(metrics.permanently_failed, 0);
    assert_eq!(metrics.records_ingested, fx.records.len() as u64);
    assert_eq!(metrics.records_dropped, 0);
    assert_eq!(
        metrics.workers_dead, metrics.respawns,
        "each counted death was respawned"
    );

    let mut extractor = OnlineExtractor::new(&fx.network, fx.params, fx.spec);
    for &record in &fx.records {
        extractor.push(record).expect("feed is window-monotone");
    }
    assert_eq!(
        canonicalize(&handle.read_view().live_micro_clusters()),
        canonicalize(&extractor.finish()),
        "respawned shards lost or duplicated records"
    );
}

/// Budget exhaustion: with `after_records = 0` every incarnation dies on
/// its first record, so a budget of 1 is spent on the second death and
/// the shard surfaces the typed [`MonitorError::ShardFailed`] from then
/// on, counted once in `permanently_failed`.
#[test]
fn respawn_budget_exhaustion_is_typed_and_counted_once() {
    let fx = fixture();
    let wal_dir = temp_dir("exhaust");
    let mut cfg = config(&fx, 4, &wal_dir, 0);
    cfg.durability.respawn_budget = 1;
    cfg.channel_capacity = 1;
    let probe = MonitorService::start(
        &MonitorConfig {
            shards: 4,
            params: fx.params,
            spec: fx.spec,
            ..MonitorConfig::default()
        },
        fx.network.clone(),
    )
    .expect("probe starts");
    let shard_of: Vec<usize> = fx
        .records
        .iter()
        .map(|r| probe.shard_map().shard_of(r.sensor))
        .collect();
    probe.finish();
    let mut load = [0usize; 4];
    for &s in &shard_of {
        load[s] += 1;
    }
    let victim = (0..4).max_by_key(|&s| load[s]).unwrap();
    cfg.faults = FaultConfig {
        kill_worker: Some(WorkerKill {
            shard: victim,
            after_records: 0,
        }),
        ..FaultConfig::default()
    };

    let mut service = MonitorService::start(&cfg, fx.network.clone()).expect("service starts");
    let mut failures = 0u32;
    let mut live_accepted = false;
    for (&record, &shard) in fx.records.iter().zip(&shard_of) {
        match service.ingest(record) {
            Ok(true) => {
                if shard != victim {
                    live_accepted = true;
                }
            }
            Ok(false) => panic!("Block policy must not drop"),
            Err(MonitorError::ShardFailed {
                shard: failed,
                respawns,
            }) => {
                assert_eq!(failed, victim);
                assert_eq!(respawns, 1);
                failures += 1;
            }
            Err(other) => panic!("unexpected ingest error: {other}"),
        }
    }
    assert!(failures > 0, "the budget must be exhausted by the feed");
    assert!(live_accepted, "other shards must keep ingesting");
    let metrics = service.finish();
    assert_eq!(
        metrics.permanently_failed, 1,
        "counted once, not per reject"
    );
    assert_eq!(metrics.respawns, 1);
    assert_eq!(metrics.dead_shards, vec![victim]);
}

/// Restart after a *clean* shutdown mid-stream: no crash, no repair —
/// recovery replays the log, resumes where the first run stopped, and the
/// combined run equals one uninterrupted service bit-identically.
#[test]
fn clean_shutdown_restart_resumes_bit_identically() {
    let fx = fixture();
    let wal_dir = temp_dir("restart");
    let cfg = config(&fx, 1, &wal_dir, 30);

    let mut first = MonitorService::start(&cfg, fx.network.clone()).expect("service starts");
    let half = fx.records.len() / 2;
    assert!(feed(&mut first, &fx.records[..half]).is_none());
    first.finish();

    let (mut second, report) =
        MonitorService::recover(&cfg, fx.network.clone()).expect("recovery succeeds");
    assert_eq!(
        report.resume_from as usize, half,
        "clean WAL covers the prefix"
    );
    assert!(report.had_checkpoint, "interval 30 must have checkpointed");
    assert!(
        (report.replayed_records as usize) < half,
        "checkpoint must bound the replayed suffix"
    );
    assert_eq!(
        report.repaired_tails, 0,
        "clean shutdown leaves no torn tail"
    );
    let handle = second.handle();
    assert!(feed(&mut second, &fx.records[half..]).is_none());
    second.finish();
    let resumed = fingerprint(&handle);

    let uninterrupted_dir = temp_dir("restart-ref");
    let ref_cfg = config(&fx, 1, &uninterrupted_dir, 30);
    let (stopped, reference) = run_service(&Io::real(), &fx, &ref_cfg);
    assert_eq!(stopped, None);
    assert_eq!(
        resumed, reference,
        "restart diverged from uninterrupted run"
    );
}

/// Feeds the records in `batch_size` chunks until the first error;
/// returns the feed position of the failing chunk's start (`None` = whole
/// feed accepted). On an error a prefix of the chunk may still be durable
/// — exactly what `resume_from` accounts for.
fn feed_batched(
    service: &mut MonitorService,
    records: &[AtypicalRecord],
    batch_size: usize,
) -> Option<usize> {
    let mut fed = 0usize;
    for chunk in records.chunks(batch_size) {
        match service.ingest_batch(&RecordBatch::from_records(chunk)) {
            Ok(accepted) => {
                assert_eq!(accepted, chunk.len() as u64, "Block policy must not drop");
                fed += chunk.len();
            }
            Err(_) => return Some(fed),
        }
    }
    None
}

/// [`try_run_service`] over the batched hot path.
fn try_run_service_batched(
    io: &Io,
    fx: &Fixture,
    config: &MonitorConfig,
    batch_size: usize,
) -> Option<(Option<usize>, Fingerprint)> {
    let mut service = MonitorService::start_with(config, fx.network.clone(), io.clone()).ok()?;
    let handle = service.handle();
    let stopped = feed_batched(&mut service, &fx.records, batch_size);
    service.finish();
    let fp = fingerprint(&handle);
    Some((stopped, fp))
}

/// Recovers, then resumes the feed *batched* with `resume_batch` — chosen
/// coprime to the original batch size by the callers, so the re-fed
/// chunks straddle the crashed run's flush boundaries and mid-batch
/// exactly-once resumption is actually exercised.
fn recover_and_resume_batched(
    fx: &Fixture,
    config: &MonitorConfig,
    resume_batch: usize,
) -> Fingerprint {
    let (mut service, report) =
        MonitorService::recover(config, fx.network.clone()).expect("recovery succeeds");
    let handle = service.handle();
    let resume = report.resume_from as usize;
    assert!(
        resume <= fx.records.len(),
        "resume_from {resume} exceeds the feed"
    );
    assert!(
        feed_batched(&mut service, &fx.records[resume..], resume_batch).is_none(),
        "resumed feed must be accepted in full"
    );
    let metrics = service.finish();
    assert_eq!(metrics.recoveries, 1);
    fingerprint(&handle)
}

/// The batched crash sweep: record the clean batched run's op log (with
/// its multi-record batch frames), crash at every op boundary, recover,
/// resume with a different batch size, compare through `check`.
fn sweep_every_op_batched(
    fx: &Fixture,
    shards: usize,
    checkpoint_interval: u64,
    batch_size: usize,
    resume_batch: usize,
    tag: &str,
    check: impl Fn(&Fingerprint, &Fingerprint, &str),
) {
    let mut clean = None;
    let plan = CrashPlan::record(|io| {
        let wal_dir = temp_dir(&format!("{tag}-clean"));
        let cfg = config(fx, shards, &wal_dir, checkpoint_interval);
        let (stopped, fp) =
            try_run_service_batched(io, fx, &cfg, batch_size).expect("service starts");
        assert_eq!(stopped, None, "baseline run must accept the whole feed");
        clean = Some(fp);
    });
    let clean = clean.unwrap();
    // Batch frames amortize appends, so the op log is much smaller than
    // the record-path sweep's — but it must still hold real batch frames
    // (a tag-2 frame with n records spans 33 + 16·n bytes framed).
    let batch_frames = plan
        .ops()
        .iter()
        .filter(|rec| matches!(rec.op, OpKind::Write { len } if len > 70))
        .count();
    assert!(
        batch_frames > 5,
        "too few multi-record batch frames: {batch_frames}"
    );

    for case in plan.crash_cases() {
        let wal_dir = temp_dir(&format!("{tag}-case"));
        let cfg = config(fx, shards, &wal_dir, checkpoint_interval);
        let io = case.fault.io();
        let _ = try_run_service_batched(&io, fx, &cfg, batch_size);
        case.fault
            .simulate_crash()
            .expect("materialize crash state");
        let recovered = recover_and_resume_batched(fx, &cfg, resume_batch);
        check(&recovered, &clean, &case.label);
    }
}

/// One shard, batched: a crash at every op boundary of the batched run
/// recovers to the bit-identical state, with the resumed feed re-chunked
/// at a coprime size. A torn or crash-split flush must never apply
/// partially — any partial application would shift cluster IDs or
/// finalization order and break bit-identity here.
#[test]
fn batch_crash_at_every_op_is_bit_identical_for_one_shard() {
    let fx = fixture();
    sweep_every_op_batched(&fx, 1, 30, 7, 5, "bat1", |recovered, clean, label| {
        assert_eq!(recovered, clean, "{label}: recovered state diverged");
    });
}

/// Four shards, batched: one flush now spans up to four WAL frames, so
/// crashes *between* the frames of a flush leave genuinely incomplete
/// flushes on disk — recovery must drop them whole (clean record prefix)
/// and the resumed feed restores the canonical multiset.
#[test]
fn batch_crash_at_every_op_is_canonically_equal_across_shards() {
    let fx = fixture();
    sweep_every_op_batched(&fx, 4, 25, 7, 5, "bat4", |recovered, clean, label| {
        assert_eq!(
            canonical(recovered),
            canonical(clean),
            "{label}: recovered micro-clusters diverged"
        );
    });
}

/// Torn batch frames: the power cut lands *inside* a multi-record batch
/// frame, at every byte boundary. The WAL tail repair drops the torn
/// frame, the flush it belonged to is incomplete and dropped whole, and
/// the resumed feed re-applies its records exactly once — bit-identical
/// final state at one shard.
#[test]
fn torn_batch_frame_at_every_byte_recovers_bit_identically() {
    let fx = fixture();
    let mut clean = None;
    let plan = CrashPlan::record(|io| {
        let wal_dir = temp_dir("torn-batch-clean");
        let cfg = config(&fx, 1, &wal_dir, 30);
        let (stopped, fp) = try_run_service_batched(io, &fx, &cfg, 7).expect("service starts");
        assert_eq!(stopped, None);
        clean = Some(fp);
    });
    let clean = clean.unwrap();

    // Multi-record batch frames: framed tag-2 entries with n records span
    // 33 + 16·n bytes, so len > 70 means at least three records torn.
    let batch_appends: Vec<u64> = plan
        .ops()
        .iter()
        .filter(|rec| {
            matches!(rec.op, OpKind::Write { len } if len > 70)
                && rec.path.to_string_lossy().contains("shard-0")
        })
        .map(|rec| rec.index)
        .collect();
    assert!(
        batch_appends.len() > 5,
        "too few batch frames: {}",
        batch_appends.len()
    );
    let picks = [
        batch_appends[1],
        batch_appends[batch_appends.len() / 2],
        batch_appends[batch_appends.len() - 2],
    ];

    let mut cases = 0u32;
    for case in plan.torn_cases(|rec| picks.contains(&rec.index)) {
        let wal_dir = temp_dir("torn-batch-case");
        let cfg = config(&fx, 1, &wal_dir, 30);
        let io = case.fault.io();
        let (stopped, _) = try_run_service_batched(&io, &fx, &cfg, 7).expect("service starts");
        assert!(
            stopped.is_some(),
            "{}: a torn batch append must fail ingest",
            case.label
        );
        case.fault
            .simulate_crash()
            .expect("materialize crash state");
        let recovered = recover_and_resume_batched(&fx, &cfg, 5);
        assert_eq!(recovered, clean, "{}: recovered state diverged", case.label);
        cases += 1;
    }
    assert!(cases > 100, "torn batch sweep too small: {cases} cases");
}

/// `start` must refuse a wal_dir holding a previous run's durable state
/// instead of silently shadowing it with fresh segments.
#[test]
fn start_refuses_a_dirty_wal_dir() {
    let fx = fixture();
    let wal_dir = temp_dir("dirty");
    let cfg = config(&fx, 1, &wal_dir, 0);
    let mut service = MonitorService::start(&cfg, fx.network.clone()).expect("fresh dir starts");
    assert!(feed(&mut service, &fx.records[..20]).is_none());
    service.finish();

    let err = MonitorService::start(&cfg, fx.network.clone())
        .err()
        .expect("dirty wal_dir must be refused");
    assert!(
        err.contains("recover"),
        "error must point at recovery: {err}"
    );
    // recover() is the sanctioned path and must succeed on the same dir.
    let (service, report) =
        MonitorService::recover(&cfg, fx.network.clone()).expect("recovery succeeds");
    assert_eq!(report.resume_from, 20);
    // Checkpoints are off, so the whole log replays.
    assert!(!report.had_checkpoint);
    assert_eq!(report.replayed_records, 20);
    service.finish();
}

/// `recover` needs a WAL configured, and a checkpoint written for a
/// different shard count is a typed config error, not silent corruption.
#[test]
fn recover_rejects_missing_wal_and_shard_mismatch() {
    let fx = fixture();
    let plain = MonitorConfig {
        shards: 1,
        params: fx.params,
        spec: fx.spec,
        ..MonitorConfig::default()
    };
    let err = MonitorService::recover(&plain, fx.network.clone())
        .err()
        .expect("recover without a WAL must fail");
    assert!(err.contains("wal_dir"), "{err}");

    // Run one shard with checkpoints, then ask recovery for four.
    let wal_dir = temp_dir("mismatch");
    let cfg = config(&fx, 1, &wal_dir, 30);
    let mut service = MonitorService::start(&cfg, fx.network.clone()).expect("service starts");
    assert!(feed(&mut service, &fx.records).is_none());
    service.finish();
    let wrong = config(&fx, 4, &wal_dir, 30);
    let err = MonitorService::recover(&wrong, fx.network.clone())
        .err()
        .expect("shard mismatch must be refused");
    assert!(err.contains("shards"), "{err}");
}

/// The format fuzz feeds this many records one per call, checkpointing
/// once: shard 0 of the fixture day is quiet, and the long tail past the
/// checkpoint still gives it two WAL segments.
const FUZZ_FEED_LEN: usize = 1600;
const FUZZ_CHECKPOINT_INTERVAL: u64 = 900;

/// A real two-shard `wal_dir` for the format fuzz: a checkpoint, and at
/// least two WAL segments per shard past it.
fn fuzz_base(wal_dir: &Path) -> (Fixture, MonitorConfig) {
    let (sim, mut records) = tiny_day(11);
    records.truncate(FUZZ_FEED_LEN);
    assert_eq!(records.len(), FUZZ_FEED_LEN, "fixture day too small");
    let fx = Fixture {
        network: Arc::new(sim.network().clone()),
        records,
        params: Params::paper_defaults(),
        spec: sim.config().spec,
    };
    let cfg = config(&fx, 2, wal_dir, FUZZ_CHECKPOINT_INTERVAL);
    let mut service = MonitorService::start(&cfg, fx.network.clone()).expect("service starts");
    assert!(feed(&mut service, &fx.records).is_none());
    service.finish();
    assert!(
        checkpoint_path(wal_dir).exists(),
        "the feed must checkpoint"
    );
    for shard in 0..2 {
        let segments = list_segments(&shard_wal_dir(wal_dir, shard)).expect("WAL lists");
        assert!(segments.len() >= 2, "shard {shard}: {segments:?}");
    }
    (fx, cfg)
}

/// Recovers `cfg`'s `wal_dir`; a recovered service is drained and must
/// have lost no worker.
fn try_recover(fx: &Fixture, cfg: &MonitorConfig) -> Result<RecoveryReport, String> {
    let (service, report) = MonitorService::recover_with(cfg, fx.network.clone(), Io::real())?;
    assert!(service.finish().dead_shards.is_empty(), "a worker died");
    Ok(report)
}

/// Every byte of `checkpoint.ck` flipped, and the file cut at every
/// length: loading is a typed `Corrupt` / `VersionMismatch`, and recovery
/// refuses to start rather than panicking or restoring garbage.
#[test]
fn checkpoint_byte_flips_and_truncations_are_typed_errors() {
    let wal_dir = temp_dir("fuzz-ckpt");
    let (fx, cfg) = fuzz_base(&wal_dir);
    let path = checkpoint_path(&wal_dir);
    let clean = std::fs::read(&path).expect("checkpoint reads");
    let mut damaged: Vec<(String, Vec<u8>)> = (0..clean.len())
        .map(|i| {
            let mut raw = clean.clone();
            raw[i] ^= 0xFF;
            (format!("flip {i}"), raw)
        })
        .collect();
    damaged.extend((0..clean.len()).map(|n| (format!("cut {n}"), clean[..n].to_vec())));
    for (label, raw) in damaged {
        std::fs::write(&path, &raw).expect("plant damage");
        match load_checkpoint(&Io::real(), &wal_dir) {
            Err(CpsError::Corrupt { .. } | CpsError::VersionMismatch { .. }) => {}
            other => panic!("{label}: {other:?}"),
        }
        assert!(try_recover(&fx, &cfg).is_err(), "{label}: recovered");
    }
    std::fs::write(&path, &clean).expect("restore checkpoint");
    assert_eq!(
        try_recover(&fx, &cfg).unwrap().resume_from,
        FUZZ_FEED_LEN as u64
    );
}

/// Every byte of a WAL segment flipped. A sealed (non-final) segment is
/// append-complete, so damage there is corruption and recovery refuses.
/// In the final segment a damaged frame is a torn tail: recovery repairs
/// it and resumes from a record prefix — except in the segment header,
/// which names the segment and is never torn by an append.
#[test]
fn wal_byte_flips_fail_typed_or_repair_the_tail() {
    let base = temp_dir("fuzz-wal");
    let (fx, base_cfg) = fuzz_base(&base);
    let shard_dir = shard_wal_dir(&base, 1);
    let segments = list_segments(&shard_dir).expect("WAL lists");
    let sealed = segment_path(&shard_dir, segments[0]);
    let last = segment_path(&shard_dir, *segments.last().unwrap());

    let clean = std::fs::read(&sealed).expect("segment reads");
    for i in 0..clean.len() {
        let mut raw = clean.clone();
        raw[i] ^= 0xFF;
        std::fs::write(&sealed, &raw).expect("plant damage");
        assert!(try_recover(&fx, &base_cfg).is_err(), "sealed byte {i}");
    }
    std::fs::write(&sealed, &clean).expect("restore segment");

    let clean = std::fs::read(&last).expect("segment reads");
    assert!(
        clean.len() > WAL_HEADER_SIZE,
        "final segment holds no frame"
    );
    for i in 0..clean.len() {
        let wal_dir = temp_dir("fuzz-wal-case");
        copy_tree(&base, &wal_dir);
        let last = wal_dir.join(last.strip_prefix(&*base).unwrap());
        let mut raw = clean.clone();
        raw[i] ^= 0xFF;
        std::fs::write(&last, &raw).expect("plant damage");
        let cfg = config(&fx, 2, &wal_dir, FUZZ_CHECKPOINT_INTERVAL);
        match try_recover(&fx, &cfg) {
            Ok(report) => {
                assert!(i >= WAL_HEADER_SIZE, "header byte {i} recovered");
                assert_eq!(report.repaired_tails, 1, "final byte {i}");
                assert!(report.resume_from <= FUZZ_FEED_LEN as u64, "final byte {i}");
            }
            Err(e) => assert!(i < WAL_HEADER_SIZE, "final byte {i}: {e}"),
        }
    }
}

fn copy_tree(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("dir reads") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            std::fs::create_dir_all(&target).expect("dir created");
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).expect("file copied");
        }
    }
}
