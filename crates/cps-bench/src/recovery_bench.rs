//! Standing perf trajectory for the durable monitor: ingest throughput
//! under each fsync policy, and recovery time as a function of the WAL
//! suffix replayed past the last checkpoint.
//!
//! The `repro monitor-recovery` command feeds the same simulated
//! atypical-record stream through the sharded [`MonitorService`] four
//! ways — durability off, fsync-every-append, group commit — and then,
//! with group commit on, plants checkpoints so that a controlled fraction
//! of the feed remains in the WAL, kills the service without a clean
//! shutdown, and times [`MonitorService::recover`]:
//!
//! A third sweep measures the batched hot path: batch size × feed skew
//! (uniform vs hot-region) × durability mode, on a window-shifted
//! replicated feed long enough that service start/teardown stops
//! dominating at multi-million rec/s. Every batched cell's canonical
//! final state is asserted equal to its record-at-a-time baseline, so the
//! throughput rows are measurements of the *same* computation.
//!
//! ```text
//! repro monitor-recovery                # seed-42 → BENCH_recovery.json
//! repro monitor-recovery --days 1 --iters 1 --bench-out results/smoke.json
//! ```
//!
//! The ingest rows quantify the WAL tax (records/s per policy); the
//! recovery rows show replay cost growing with the un-checkpointed
//! suffix, which is exactly what `checkpoint_interval_records` bounds.

use cps_core::{AtypicalRecord, RecordBatch, ScratchDir, Severity, TimeWindow};
use cps_monitor::{
    AdmissionConfig, DurabilityConfig, FsyncPolicy, MonitorConfig, MonitorService, OverflowPolicy,
    RecoveryReport,
};
use cps_sim::{build_source, Domain, Scale, SimConfig, Source, SourceConfig};
use cps_testkit::{FaultIo, FaultKind, FaultPlan};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one `repro monitor-recovery` run.
#[derive(Clone, Debug)]
pub struct RecoveryBenchConfig {
    /// Deployment scale of the simulated workload.
    pub scale: Scale,
    /// Event-source domain feeding the service.
    pub source: Domain,
    /// Simulation seed.
    pub seed: u64,
    /// Days of atypical records in the feed.
    pub days: u32,
    /// Worker shards.
    pub shards: usize,
    /// Repetitions per measurement; the best time is kept.
    pub iters: u32,
    /// Cap on the feed length (0 = the whole generated stream); lets CI
    /// smoke runs stay fast without changing the workload's shape.
    pub max_records: usize,
}

impl Default for RecoveryBenchConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Tiny,
            source: Domain::Traffic,
            seed: 42,
            days: 2,
            shards: 4,
            iters: 3,
            max_records: 0,
        }
    }
}

/// Ingest throughput under one durability mode.
#[derive(Clone, Debug)]
pub struct IngestResult {
    /// `"off"`, `"fsync-each"`, or `"group-commit"`.
    pub mode: &'static str,
    /// Records fed (all accepted; the feed runs under `Block`).
    pub records: u64,
    /// Best wall-clock feed-plus-drain time across iterations.
    pub ingest_ms: f64,
    /// `records / ingest_ms`, scaled to records per second.
    pub records_per_sec: f64,
}

/// Recovery time for one planted WAL-suffix length.
#[derive(Clone, Debug)]
pub struct RecoveryResult {
    /// Fraction of the feed left in the WAL past the last checkpoint
    /// (1.0 = no checkpoint at all, the whole log replays).
    pub suffix_fraction: f64,
    /// The `checkpoint_interval_records` that planted it (0 = disabled).
    pub checkpoint_interval: u64,
    /// Whether recovery found a checkpoint document.
    pub had_checkpoint: bool,
    /// WAL entries replayed past the checkpoint (records + advances).
    pub replayed_entries: usize,
    /// Record entries among them.
    pub replayed_records: u64,
    /// Best wall-clock `MonitorService::recover` time across iterations.
    pub recovery_ms: f64,
}

/// One cell of the batched-ingest sweep.
#[derive(Clone, Debug)]
pub struct BatchedIngestResult {
    /// Feed shape: `"uniform"` or `"hot-region"` — the domain-matched
    /// skew (traffic: 20 % of the sensors carrying 80 % of the extra
    /// event mass; audit: hot-actor incident share pushed to 0.9;
    /// infrastructure/battlefield: no skew knob, base feed reused).
    pub feed: &'static str,
    /// Durability mode: `"off"` or `"group-commit"`.
    pub mode: &'static str,
    /// Records per `ingest_batch` call; 1 is the record-at-a-time
    /// baseline the speedups are relative to.
    pub batch_size: usize,
    /// Records fed (the replicated feed).
    pub records: u64,
    /// Best wall-clock feed-plus-drain time across iterations.
    pub ingest_ms: f64,
    /// `records / ingest_ms`, scaled to records per second.
    pub records_per_sec: f64,
    /// Throughput relative to the batch-size-1 row of the same
    /// feed × mode cell.
    pub speedup_vs_record: f64,
}

/// Counters from the two degraded-operation cells appended to the
/// artifact (DESIGN §15): a faulted-WAL run — a transient-EIO burst
/// absorbed by the retry budget while admission quarantines the late
/// echoes a `late_record_ratio` feed injects — and a shed-storm run over
/// capacity-1 channels with load shedding enabled. Every accounting
/// identity is asserted inside the measurement, so a saved artifact is
/// also a degraded-mode correctness witness.
#[derive(Clone, Debug)]
pub struct DegradationResult {
    /// Records offered to the faulted-WAL cell (clean feed + late echoes).
    pub faulted_offered: u64,
    /// Transient WAL write faults planted via the fault-injecting `Io`.
    pub faults_planted: u64,
    /// Best wall-clock feed-plus-drain time of the faulted cell.
    pub faulted_ingest_ms: f64,
    /// I/O retries the budget absorbed (>= `faults_planted`).
    pub io_retries: u64,
    /// Operations whose retry budget ran out (must be 0 here).
    pub retries_exhausted: u64,
    /// Checkpoint attempts that failed and were rescheduled.
    pub checkpoint_failures: u64,
    /// Records diverted to the dead-letter buffer, by the admission rules.
    pub records_quarantined: u64,
    /// The duplicate share of those (the late echoes, sorted in-window).
    pub quarantined_duplicate: u64,
    /// Records offered to the shed-storm cell (the replicated feed).
    pub shed_offered: u64,
    /// Records shed by the overload policy instead of blocking.
    pub records_shed: u64,
}

/// All sweeps of the artifact.
#[derive(Clone, Debug)]
pub struct RecoveryBenchReport {
    pub ingest: Vec<IngestResult>,
    pub recovery: Vec<RecoveryResult>,
    pub batched: Vec<BatchedIngestResult>,
    /// The degraded-operation cells.
    pub degradation: DegradationResult,
    /// Feed length actually used (after `max_records`).
    pub feed_records: u64,
}

/// The domain-matched skewed companion source for the batched sweep:
/// traffic concentrates the extra event mass on a hot region, audit
/// pushes the hot-actor incident share up; infrastructure and
/// battlefield have no comparable skew knob, so their "skewed" feed is
/// the base configuration again (the sweep still exercises both paths).
fn skewed_source(config: &RecoveryBenchConfig) -> Box<dyn Source> {
    let base = SimConfig::new(config.scale, config.seed).with_domain(config.source);
    match config.source {
        Domain::Traffic => build_source(base.with_hot_region(0.2, 0.8)),
        Domain::Audit => {
            let mut knobs = SourceConfig::for_domain(Domain::Audit);
            knobs.hot_actor_share = 0.9;
            build_source(base.with_source(knobs))
        }
        Domain::Infrastructure | Domain::Battlefield => build_source(base),
    }
}

fn feed_records(config: &RecoveryBenchConfig, sim: &dyn Source) -> Vec<cps_core::AtypicalRecord> {
    let mut records: Vec<_> = (0..config.days).flat_map(|d| sim.atypical_day(d)).collect();
    records.sort_unstable_by_key(|r| (r.window, r.sensor));
    if config.max_records > 0 {
        records.truncate(config.max_records);
    }
    assert!(!records.is_empty(), "simulated feed is empty");
    records
}

fn monitor_config(
    config: &RecoveryBenchConfig,
    sim: &dyn Source,
    durability: DurabilityConfig,
) -> MonitorConfig {
    MonitorConfig {
        shards: config.shards,
        spec: sim.config().spec,
        overflow: OverflowPolicy::Block,
        durability,
        ..MonitorConfig::default()
    }
}

fn durability_for(mode: &str, wal_dir: &Option<ScratchDir>) -> DurabilityConfig {
    let fsync = match mode {
        "off" => FsyncPolicy::Never,
        "fsync-each" => FsyncPolicy::Always,
        "group-commit" => FsyncPolicy::Group,
        other => unreachable!("unknown ingest mode {other}"),
    };
    DurabilityConfig {
        wal_dir: wal_dir.as_ref().map(|d| d.to_path_buf()),
        fsync,
        ..DurabilityConfig::default()
    }
}

/// One timed service lifetime: start, feed everything, drain with
/// `finish`. Panics on any ingest error — the bench runs no faults, so an
/// error is a bug, not a measurement.
fn timed_ingest(
    mc: &MonitorConfig,
    network: &Arc<cps_geo::RoadNetwork>,
    records: &[cps_core::AtypicalRecord],
) -> f64 {
    let start = Instant::now();
    let mut service = MonitorService::start(mc, network.clone()).expect("service starts");
    for &record in records {
        assert!(
            service.ingest(record).expect("healthy ingest"),
            "Block policy must not drop"
        );
    }
    service.finish();
    start.elapsed().as_secs_f64() * 1e3
}

/// Order-free micro-cluster form (IDs excluded: they are admission-order
/// artifacts across shards) used by the batched sweep's built-in
/// equality assertion.
type CanonicalCluster = (Vec<(u32, Severity)>, Vec<(u32, Severity)>);

fn canonical_micros(clusters: &[atypical::AtypicalCluster]) -> Vec<CanonicalCluster> {
    let mut out: Vec<CanonicalCluster> = clusters
        .iter()
        .map(|c| {
            let mut sf: Vec<(u32, Severity)> = c.sf.iter().map(|(s, v)| (s.raw(), v)).collect();
            let mut tf: Vec<(u32, Severity)> = c.tf.iter().map(|(w, v)| (w.raw(), v)).collect();
            sf.sort_unstable();
            tf.sort_unstable();
            (sf, tf)
        })
        .collect();
    out.sort();
    out
}

/// `copies` window-shifted replicas of the sorted feed, back to back:
/// copy `k` is shifted by `k × (last window + 1)` so the stream stays
/// window-monotone. Fixed start/teardown cost stops mattering once the
/// feed is tens of thousands of records.
fn replicate_feed(records: &[AtypicalRecord], copies: usize) -> Vec<AtypicalRecord> {
    let span = records.last().expect("non-empty feed").window.raw() + 1;
    let mut out = Vec::with_capacity(records.len() * copies);
    for k in 0..copies as u32 {
        out.extend(records.iter().map(|r| {
            AtypicalRecord::new(
                r.sensor,
                TimeWindow::new(r.window.raw() + k * span),
                r.severity,
            )
        }));
    }
    out
}

/// One timed batched service lifetime; `batch_size` 1 degenerates to the
/// record-at-a-time path. Returns the wall-clock time and the canonical
/// final micro-cluster multiset for the equality gate.
fn timed_ingest_batched(
    mc: &MonitorConfig,
    network: &Arc<cps_geo::RoadNetwork>,
    records: &[cps_core::AtypicalRecord],
    batch_size: usize,
) -> (f64, Vec<CanonicalCluster>) {
    let start = Instant::now();
    let mut service = MonitorService::start(mc, network.clone()).expect("service starts");
    let handle = service.handle();
    if batch_size <= 1 {
        for &record in records {
            assert!(
                service.ingest(record).expect("healthy ingest"),
                "Block policy must not drop"
            );
        }
    } else {
        for chunk in records.chunks(batch_size) {
            let batch = RecordBatch::from_records(chunk);
            assert_eq!(
                service.ingest_batch(&batch).expect("healthy ingest"),
                chunk.len() as u64,
                "Block policy must not drop"
            );
        }
    }
    service.finish();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (
        ms,
        canonical_micros(&handle.read_view().live_micro_clusters()),
    )
}

/// Feeds the whole stream with group commit on and the checkpoint
/// interval planted so roughly `suffix_fraction` of the feed stays in the
/// WAL, then abandons the service *without* `finish` — the monitor-level
/// equivalent of a process kill (the WAL is already durable; only the
/// clean-shutdown path is skipped). Returns the recovery time and report.
fn timed_recovery(
    config: &RecoveryBenchConfig,
    sim: &dyn Source,
    network: &Arc<cps_geo::RoadNetwork>,
    records: &[cps_core::AtypicalRecord],
    suffix_fraction: f64,
) -> (u64, f64, RecoveryReport) {
    let len = records.len() as u64;
    // One checkpoint fires every `interval` records, so with
    // `interval = len - suffix` and `suffix < len/2` exactly one fires and
    // the last `suffix` records remain in the WAL. `interval = 0` disables
    // checkpoints: the whole log replays.
    let suffix = (len as f64 * suffix_fraction).round() as u64;
    // A full-feed suffix saturates to interval 0 = checkpoints disabled.
    let interval = len.saturating_sub(suffix);
    assert!(
        interval == 0 || suffix < len.div_ceil(2),
        "suffix fractions in (0.5, 1.0) would fire a second checkpoint"
    );

    let wal_dir = ScratchDir::new("bench-recovery-rec");
    let durability = DurabilityConfig {
        wal_dir: Some(wal_dir.to_path_buf()),
        fsync: FsyncPolicy::Group,
        checkpoint_interval_records: interval,
        ..DurabilityConfig::default()
    };
    let mc = monitor_config(config, sim, durability);

    let mut service = MonitorService::start(&mc, network.clone()).expect("service starts");
    for &record in records {
        assert!(
            service.ingest(record).expect("healthy ingest"),
            "Block policy must not drop"
        );
    }
    drop(service); // abrupt: no finish, no final checkpoint

    let start = Instant::now();
    let (recovered, report) =
        MonitorService::recover(&mc, network.clone()).expect("recovery succeeds");
    let ms = start.elapsed().as_secs_f64() * 1e3;
    drop(recovered);
    (interval, ms, report)
}

/// Fraction of late (out-of-order) echoes the degraded feed injects.
const LATE_RATIO: f64 = 0.15;
/// Transient WAL write faults planted in the faulted cell.
const EIO_BURST: u64 = 3;

/// The two degraded-operation cells. Cell one feeds a
/// `late_record_ratio` stream (sorted, so every echo lands as an exact
/// in-window duplicate) through a WAL-backed service whose `Io` is
/// seeded with a transient-EIO burst: the retry budget must absorb every
/// fault and admission must quarantine every echo, with the conservation
/// identity `ingested + quarantined == offered` holding exactly. Cell
/// two feeds the replicated clean stream through capacity-1 channels
/// with shedding on: `ingested + shed == offered`.
fn measure_degradation(
    config: &RecoveryBenchConfig,
    records: &[AtypicalRecord],
    network: &Arc<cps_geo::RoadNetwork>,
    sim: &dyn Source,
) -> DegradationResult {
    // --- Faulted-WAL cell -------------------------------------------------
    let late_sim = build_source(
        SimConfig::new(config.scale, config.seed)
            .with_domain(config.source)
            .with_late_record_ratio(LATE_RATIO),
    );
    let late_network = Arc::new(late_sim.network().clone());
    let late_feed = feed_records(config, late_sim.as_ref());
    let offered = late_feed.len() as u64;

    let fault = FaultIo::new();
    // Ops 10..13 are WAL segment writes well past directory setup and
    // well before the first checkpoint; the error fires before any bytes
    // land, so the retried append is byte-identical.
    fault.set_plans(
        (0..EIO_BURST)
            .map(|i| FaultPlan {
                at_op: 10 + i,
                kind: FaultKind::Error,
            })
            .collect(),
    );
    let wal_dir = ScratchDir::new("bench-recovery-degraded");
    let mut mc = monitor_config(
        config,
        late_sim.as_ref(),
        DurabilityConfig {
            wal_dir: Some(wal_dir.to_path_buf()),
            fsync: FsyncPolicy::Group,
            group_commit_records: 8,
            checkpoint_interval_records: 200,
            retry_attempts: 8,
            retry_base_ms: 1,
            retry_max_ms: 4,
            retry_jitter_seed: config.seed,
            ..DurabilityConfig::default()
        },
    );
    mc.admission = AdmissionConfig {
        quarantine: true,
        dedup: true,
        ..AdmissionConfig::default()
    };

    let start = Instant::now();
    let mut service =
        MonitorService::start_with(&mc, late_network.clone(), fault.io()).expect("service starts");
    for &record in &late_feed {
        // Echoes return Ok(false) (diverted, not ingested); WAL faults
        // are absorbed by the retry layer and never surface here.
        service
            .ingest(record)
            .expect("quarantine diverts junk and retries absorb the EIO burst");
    }
    let snapshot = service.finish();
    let faulted_ingest_ms = start.elapsed().as_secs_f64() * 1e3;

    assert_eq!(fault.pending_plans(), 0, "all planted faults must fire");
    assert!(
        snapshot.io_retries >= EIO_BURST,
        "the retry budget must absorb the planted burst"
    );
    assert_eq!(snapshot.retries_exhausted, 0);
    assert!(
        snapshot.records_quarantined > 0,
        "the late echoes must be quarantined"
    );
    assert_eq!(
        snapshot.records_ingested + snapshot.records_quarantined,
        offered,
        "conservation violated in the faulted cell"
    );
    assert_eq!(snapshot.records_dropped, 0);
    assert_eq!(snapshot.records_shed, 0);

    // --- Shed-storm cell --------------------------------------------------
    let shed_feed = replicate_feed(records, 4);
    let shed_offered = shed_feed.len() as u64;
    let mut shed_mc = monitor_config(config, sim, DurabilityConfig::default());
    shed_mc.admission = AdmissionConfig {
        shed: true,
        ..AdmissionConfig::default()
    };
    // Capacity-1 channels make the producer outrun the workers, so the
    // shed path (not the blocking path) handles the overload.
    shed_mc.channel_capacity = 1;
    let mut shed_service =
        MonitorService::start(&shed_mc, network.clone()).expect("service starts");
    for &record in &shed_feed {
        shed_service.ingest(record).expect("healthy ingest");
    }
    let shed_snapshot = shed_service.finish();
    assert!(
        shed_snapshot.records_shed > 0,
        "capacity-1 channels must force shedding"
    );
    assert_eq!(
        shed_snapshot.records_ingested + shed_snapshot.records_shed,
        shed_offered,
        "conservation violated in the shed cell"
    );
    assert_eq!(shed_snapshot.records_dropped, 0);

    DegradationResult {
        faulted_offered: offered,
        faults_planted: EIO_BURST,
        faulted_ingest_ms,
        io_retries: snapshot.io_retries,
        retries_exhausted: snapshot.retries_exhausted,
        checkpoint_failures: snapshot.checkpoint_failures,
        records_quarantined: snapshot.records_quarantined,
        quarantined_duplicate: snapshot.quarantined_duplicate,
        shed_offered,
        records_shed: shed_snapshot.records_shed,
    }
}

/// Runs both sweeps and prints one line per measurement.
pub fn run(config: &RecoveryBenchConfig) -> RecoveryBenchReport {
    let sim = build_source(SimConfig::new(config.scale, config.seed).with_domain(config.source));
    let network = Arc::new(sim.network().clone());
    let records = feed_records(config, sim.as_ref());
    let len = records.len() as u64;
    let iters = config.iters.max(1);

    let ingest = ["off", "fsync-each", "group-commit"]
        .iter()
        .map(|&mode| {
            let mut best_ms = f64::INFINITY;
            for _ in 0..iters {
                // A directory per iteration, so none sees another's WAL.
                let wal_dir = (mode != "off").then(|| ScratchDir::new("bench-recovery-ingest"));
                let mc = monitor_config(config, sim.as_ref(), durability_for(mode, &wal_dir));
                best_ms = best_ms.min(timed_ingest(&mc, &network, &records));
            }
            let r = IngestResult {
                mode,
                records: len,
                ingest_ms: best_ms,
                records_per_sec: len as f64 / (best_ms / 1e3),
            };
            eprintln!(
                "ingest {:>12}: {:>8.2} ms for {} records ({:>9.0} rec/s)",
                r.mode, r.ingest_ms, r.records, r.records_per_sec
            );
            r
        })
        .collect();

    let recovery = [1.0, 0.4, 0.2, 0.05]
        .iter()
        .map(|&fraction| {
            let mut best_ms = f64::INFINITY;
            let mut interval = 0;
            let mut report = None;
            for _ in 0..iters {
                let (i, ms, rep) =
                    timed_recovery(config, sim.as_ref(), &network, &records, fraction);
                if ms < best_ms {
                    best_ms = ms;
                    interval = i;
                    report = Some(rep);
                }
            }
            let report = report.expect("at least one iteration ran");
            // Sanity-gate the measurement: a planted checkpoint must
            // exist and strictly shrink the replayed suffix, and the
            // no-checkpoint row must replay the whole feed.
            if fraction >= 1.0 {
                assert!(!report.had_checkpoint);
                assert_eq!(report.replayed_records, len);
            } else {
                assert!(
                    report.had_checkpoint,
                    "interval {interval} planted no checkpoint"
                );
                assert!(report.replayed_records < len);
            }
            let r = RecoveryResult {
                suffix_fraction: fraction,
                checkpoint_interval: interval,
                had_checkpoint: report.had_checkpoint,
                replayed_entries: report.replayed_entries,
                replayed_records: report.replayed_records,
                recovery_ms: best_ms,
            };
            eprintln!(
                "recover suffix {:>4.0}%: {:>8.2} ms ({} entries, {} records, checkpoint: {})",
                r.suffix_fraction * 100.0,
                r.recovery_ms,
                r.replayed_entries,
                r.replayed_records,
                r.had_checkpoint
            );
            r
        })
        .collect();

    // Batch-size × skew × durability sweep on the replicated feed, each
    // cell equality-gated against its record-at-a-time baseline.
    const BATCH_SIZES: [usize; 4] = [1, 16, 64, 256];
    const REPLICAS: usize = 4;
    let skew_sim = skewed_source(config);
    let skew_network = Arc::new(skew_sim.network().clone());
    let skew_records = feed_records(config, skew_sim.as_ref());
    let feeds: [(
        &'static str,
        &Arc<cps_geo::RoadNetwork>,
        Vec<AtypicalRecord>,
    ); 2] = [
        ("uniform", &network, replicate_feed(&records, REPLICAS)),
        (
            "hot-region",
            &skew_network,
            replicate_feed(&skew_records, REPLICAS),
        ),
    ];
    let mut batched = Vec::new();
    for (feed_name, net, feed) in &feeds {
        for mode in ["off", "group-commit"] {
            let mut baseline_rate = f64::NAN;
            let mut baseline_state: Option<Vec<CanonicalCluster>> = None;
            for batch_size in BATCH_SIZES {
                let mut best_ms = f64::INFINITY;
                let mut state = None;
                for _ in 0..iters {
                    let wal_dir = (mode != "off").then(|| ScratchDir::new("bench-recovery-batch"));
                    let mc = monitor_config(config, sim.as_ref(), durability_for(mode, &wal_dir));
                    let (ms, fp) = timed_ingest_batched(&mc, net, feed, batch_size);
                    best_ms = best_ms.min(ms);
                    state.get_or_insert(fp);
                }
                let state = state.expect("at least one iteration ran");
                let rate = feed.len() as f64 / (best_ms / 1e3);
                if batch_size == 1 {
                    baseline_rate = rate;
                    baseline_state = Some(state);
                } else {
                    assert_eq!(
                        &state,
                        baseline_state.as_ref().expect("baseline ran first"),
                        "{feed_name}/{mode}: batch {batch_size} diverged from record-at-a-time"
                    );
                }
                let r = BatchedIngestResult {
                    feed: feed_name,
                    mode,
                    batch_size,
                    records: feed.len() as u64,
                    ingest_ms: best_ms,
                    records_per_sec: rate,
                    speedup_vs_record: rate / baseline_rate,
                };
                eprintln!(
                    "batch {:>10} {:>12} b={:<4}: {:>8.2} ms ({:>9.0} rec/s, {:>5.2}x)",
                    r.feed,
                    r.mode,
                    r.batch_size,
                    r.ingest_ms,
                    r.records_per_sec,
                    r.speedup_vs_record
                );
                batched.push(r);
            }
        }
    }

    let degradation = measure_degradation(config, &records, &network, sim.as_ref());
    eprintln!(
        "degraded faulted-wal: {:>8.2} ms for {} records ({} EIO absorbed by {} retries, \
         {} quarantined, {} checkpoint failures)",
        degradation.faulted_ingest_ms,
        degradation.faulted_offered,
        degradation.faults_planted,
        degradation.io_retries,
        degradation.records_quarantined,
        degradation.checkpoint_failures,
    );
    eprintln!(
        "degraded shed-storm : {} of {} records shed, every one accounted",
        degradation.records_shed, degradation.shed_offered,
    );

    RecoveryBenchReport {
        ingest,
        recovery,
        batched,
        degradation,
        feed_records: len,
    }
}

/// Writes the artifact (`BENCH_recovery.json` at the repo root for the
/// standing record; `results/BENCH_recovery_smoke.json` for CI).
pub fn save_json(
    report: &RecoveryBenchReport,
    config: &RecoveryBenchConfig,
    path: &Path,
) -> std::io::Result<()> {
    use serde::Value;
    fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
    let baseline = report
        .ingest
        .iter()
        .find(|r| r.mode == "off")
        .map_or(f64::INFINITY, |r| r.records_per_sec);
    let ingest: Vec<Value> = report
        .ingest
        .iter()
        .map(|r| {
            let relative = if baseline > 0.0 {
                r.records_per_sec / baseline
            } else {
                f64::INFINITY
            };
            obj(vec![
                ("mode", Value::Str(r.mode.to_string())),
                ("records", Value::U64(r.records)),
                ("ingest_ms", Value::F64(r.ingest_ms)),
                ("records_per_sec", Value::F64(r.records_per_sec)),
                ("throughput_vs_off", Value::F64(relative)),
            ])
        })
        .collect();
    let recovery: Vec<Value> = report
        .recovery
        .iter()
        .map(|r| {
            obj(vec![
                ("suffix_fraction", Value::F64(r.suffix_fraction)),
                ("checkpoint_interval", Value::U64(r.checkpoint_interval)),
                ("had_checkpoint", Value::Bool(r.had_checkpoint)),
                ("replayed_entries", Value::U64(r.replayed_entries as u64)),
                ("replayed_records", Value::U64(r.replayed_records)),
                ("recovery_ms", Value::F64(r.recovery_ms)),
            ])
        })
        .collect();
    let batched: Vec<Value> = report
        .batched
        .iter()
        .map(|r| {
            obj(vec![
                ("feed", Value::Str(r.feed.to_string())),
                ("mode", Value::Str(r.mode.to_string())),
                ("batch_size", Value::U64(r.batch_size as u64)),
                ("records", Value::U64(r.records)),
                ("ingest_ms", Value::F64(r.ingest_ms)),
                ("records_per_sec", Value::F64(r.records_per_sec)),
                ("speedup_vs_record", Value::F64(r.speedup_vs_record)),
            ])
        })
        .collect();
    let d = &report.degradation;
    let degradation = obj(vec![
        ("faulted_offered", Value::U64(d.faulted_offered)),
        ("faults_planted", Value::U64(d.faults_planted)),
        ("faulted_ingest_ms", Value::F64(d.faulted_ingest_ms)),
        ("io_retries", Value::U64(d.io_retries)),
        ("retries_exhausted", Value::U64(d.retries_exhausted)),
        ("checkpoint_failures", Value::U64(d.checkpoint_failures)),
        ("records_quarantined", Value::U64(d.records_quarantined)),
        ("quarantined_duplicate", Value::U64(d.quarantined_duplicate)),
        ("shed_offered", Value::U64(d.shed_offered)),
        ("records_shed", Value::U64(d.records_shed)),
    ]);
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let doc = obj(vec![
        ("bench", Value::Str("monitor-recovery".to_string())),
        (
            "scale",
            Value::Str(format!("{:?}", config.scale).to_lowercase()),
        ),
        ("source", Value::Str(config.source.name().to_string())),
        ("seed", Value::U64(config.seed)),
        ("days", Value::U64(u64::from(config.days))),
        ("shards", Value::U64(config.shards as u64)),
        ("iters", Value::U64(u64::from(config.iters))),
        ("feed_records", Value::U64(report.feed_records)),
        ("host_cpus", Value::U64(host_cpus as u64)),
        ("ingest", Value::Array(ingest)),
        ("recovery", Value::Array(recovery)),
        ("batched_ingest", Value::Array(batched)),
        ("degradation", degradation),
    ]);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let text = serde_json::to_string_pretty(&doc)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, format!("{text}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_measures_and_saves() {
        let config = RecoveryBenchConfig {
            days: 1,
            iters: 1,
            max_records: 160,
            ..RecoveryBenchConfig::default()
        };
        let report = run(&config);
        assert_eq!(report.feed_records, 160);
        assert_eq!(report.ingest.len(), 3);
        assert_eq!(report.recovery.len(), 4);
        // 2 feeds × 2 modes × 4 batch sizes, equality-gated inside run().
        assert_eq!(report.batched.len(), 16);
        for r in &report.batched {
            assert_eq!(r.records, 160 * 4, "replicated feed length");
            assert!(r.records_per_sec > 0.0);
            if r.batch_size == 1 {
                assert_eq!(r.speedup_vs_record, 1.0);
            }
        }
        // Degraded cells: the EIO burst was absorbed, the late echoes
        // quarantined, the overload shed — all fully accounted (the
        // conservation identities are asserted inside the measurement).
        let d = &report.degradation;
        assert!(d.io_retries >= d.faults_planted);
        assert_eq!(d.retries_exhausted, 0);
        assert!(d.records_quarantined > 0);
        assert!(d.records_shed > 0);

        // The no-checkpoint row replays the whole accepted feed; planted
        // checkpoints must strictly shrink the replayed suffix.
        assert!(!report.recovery[0].had_checkpoint);
        assert_eq!(report.recovery[0].replayed_records, report.feed_records);
        for r in &report.recovery[1..] {
            assert!(
                r.had_checkpoint,
                "interval {} planted no checkpoint",
                r.checkpoint_interval
            );
            assert!(r.replayed_records < report.feed_records);
        }

        let dir = ScratchDir::new("bench-recovery-test");
        let path = dir.join("BENCH_recovery_test.json");
        save_json(&report, &config, &path).expect("save json");
        let text = std::fs::read_to_string(&path).expect("read back");
        let doc: serde::Value = serde_json::from_str(&text).expect("valid json");
        let entries = doc.as_object().expect("top-level object");
        assert_eq!(
            serde::get_field(entries, "ingest")
                .as_array()
                .expect("ingest array")
                .len(),
            3
        );
        assert_eq!(
            serde::get_field(entries, "recovery")
                .as_array()
                .expect("recovery array")
                .len(),
            4
        );
        assert_eq!(
            serde::get_field(entries, "batched_ingest")
                .as_array()
                .expect("batched_ingest array")
                .len(),
            16
        );
        let degradation = serde::get_field(entries, "degradation")
            .as_object()
            .expect("degradation object");
        for key in [
            "io_retries",
            "retries_exhausted",
            "checkpoint_failures",
            "records_quarantined",
            "records_shed",
        ] {
            assert!(
                matches!(serde::get_field(degradation, key), serde::Value::U64(_)),
                "degradation block is missing {key}"
            );
        }
    }

    /// The same sweep over a non-traffic source: the equality gates
    /// inside `run` must hold for the audit stream too, and the artifact
    /// must record which domain produced it.
    #[test]
    fn audit_run_measures_and_saves() {
        let config = RecoveryBenchConfig {
            source: Domain::Audit,
            days: 1,
            iters: 1,
            max_records: 160,
            ..RecoveryBenchConfig::default()
        };
        let report = run(&config);
        assert_eq!(report.ingest.len(), 3);
        assert_eq!(report.recovery.len(), 4);
        assert_eq!(report.batched.len(), 16);

        let dir = ScratchDir::new("bench-recovery-test-audit");
        let path = dir.join("BENCH_recovery_audit_test.json");
        save_json(&report, &config, &path).expect("save json");
        let text = std::fs::read_to_string(&path).expect("read back");
        let doc: serde::Value = serde_json::from_str(&text).expect("valid json");
        let entries = doc.as_object().expect("top-level object");
        assert!(matches!(
            serde::get_field(entries, "source"),
            serde::Value::Str(s) if s == "audit"
        ));
    }
}
