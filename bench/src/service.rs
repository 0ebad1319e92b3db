//! Driving `MonitorService` the way every workload does: the fixed
//! configuration, one timed lifetime, a crash, and the per-lifetime layer
//! rows read off spans and samples.

use crate::catalog::Metrics;
use crate::feed::{Deployment, LifetimeFeed};
use crate::host;
use crate::stats::{max, median, quantile};
use crate::trace::{late_to_early_cost_ratio, span, Sample, Sampler, SpanId, Tracer, NO_PARENT};
use cps_monitor::{
    DurabilityConfig, FsyncPolicy, MetricsSnapshot, MonitorConfig, MonitorHandle, MonitorService,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Shard workers of every service the benchmark starts (`nproc` is 2).
pub const SHARDS: usize = 2;

/// The one configuration all workloads share. `durable` is the directory
/// that receives the WAL (`wal/`, group commit every 256 appends) and the
/// snapshot store (`snapshot/`); `None` is the volatile service.
/// Everything else stays at its default: only the API that ROADMAP item 2
/// keeps may appear here.
pub fn monitor_config(
    dep: &Deployment,
    durable: Option<&Path>,
    checkpoint_interval_records: u64,
) -> MonitorConfig {
    MonitorConfig {
        shards: SHARDS,
        spec: dep.spec,
        snapshot_dir: durable.map(|d| d.join("snapshot")),
        durability: DurabilityConfig {
            wal_dir: durable.map(|d| d.join("wal")),
            fsync: FsyncPolicy::Group,
            checkpoint_interval_records,
            ..DurabilityConfig::default()
        },
        ..MonitorConfig::default()
    }
}

/// The `ingest_batch` calls of one lifetime, each against the time it was
/// due: on a schedule in an open loop, when the previous call returned in a
/// closed one.
#[derive(Default)]
pub struct Calls {
    /// Duration of each call, in µs.
    pub call_us: Vec<f64>,
    /// Completion minus due time.
    pub admit_us: Vec<f64>,
    /// Start minus due time: how late the generator ran.
    pub late_us: Vec<f64>,
    /// Records of batches sent more than `late_limit` after they were due.
    pub records_sent_late: u64,
}

impl Calls {
    pub fn record(
        &mut self,
        due: Instant,
        sent: Instant,
        done: Instant,
        records: usize,
        late_limit: Duration,
    ) {
        let late = sent.saturating_duration_since(due);
        if late > late_limit {
            self.records_sent_late += records as u64;
        }
        self.late_us.push(late.as_secs_f64() * 1e6);
        self.call_us.push((done - sent).as_secs_f64() * 1e6);
        self.admit_us
            .push(done.saturating_duration_since(due).as_secs_f64() * 1e6);
    }
}

/// One service from `start` to `finish` over a whole feed.
pub struct Lifetime {
    /// `start` → `finish` returned.
    pub wall_s: f64,
    pub start_s: f64,
    /// Time inside `ingest_batch` calls.
    pub feed_s: f64,
    /// Time inside `finish`.
    pub drain_s: f64,
    pub producer_cpu_s: f64,
    /// CPU the whole process used over the lifetime — the service's
    /// threads and the load generator's.
    pub cpu_s: f64,
    pub offered: u64,
    pub calls: Calls,
    pub snapshot: MetricsSnapshot,
    /// The quiescent service, with everything it still holds in memory.
    /// Only a run's first pass keeps it, for the query probe and the
    /// oracles; see [`Pass::release`].
    pub handle: Option<MonitorHandle>,
    /// The 100 ms series of a traced lifetime; empty untraced.
    pub samples: Vec<Sample>,
}

impl Lifetime {
    /// Records offered that the service did not ingest: dropped, shed,
    /// quarantined, or lost to an `Err`.
    pub fn failed(&self) -> u64 {
        self.offered.saturating_sub(self.snapshot.records_ingested)
    }

    pub fn handle(&self) -> &MonitorHandle {
        self.handle
            .as_ref()
            .expect("only a pass that kept its service is asked for it")
    }
}

/// One repeat of a workload's ingest part.
pub trait Pass {
    /// Seconds of `--seconds` the pass used up.
    fn wall_s(&self) -> f64;
    /// Drops the services and work directories the pass still holds and
    /// keeps its numbers. A run's memory must not depend on how many
    /// passes fit in `--seconds`, so every pass but the first is released
    /// before the next one starts, and the first once the probe and the
    /// oracles are done with it.
    fn release(&mut self);
}

impl Pass for Lifetime {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }

    fn release(&mut self) {
        self.handle = None;
    }
}

/// Runs one lifetime: `start`, whatever `feed` does with the service (it
/// gets the service, its handle and the span to parent its calls under,
/// and returns the calls it made), `finish`. With a tracer, `start` and `finish` get spans under one
/// `lifetime` span and a sampler watches the service's threads; without,
/// clock reads bracket the stages.
pub fn drive_lifetime(
    mc: &MonitorConfig,
    dep: &Deployment,
    offered: u64,
    tracer: Option<&Tracer>,
    request: u64,
    feed: impl FnOnce(&mut MonitorService, &MonitorHandle, SpanId) -> Calls,
) -> Result<Lifetime, String> {
    let cpu_before = host::thread_cpu_s();
    let process_cpu_before = host::process_cpu_s();
    let begin = Instant::now();
    let root = tracer.map_or(NO_PARENT, |t| t.start("lifetime", NO_PARENT, request));
    let mut service = span(tracer, "MonitorService::start", root, request, || {
        MonitorService::start(mc, dep.network.clone())
    })?;
    let start_s = begin.elapsed().as_secs_f64();
    let handle = service.handle();
    let sampler = tracer.map(|_| Sampler::start(handle.clone(), request));

    let calls = feed(&mut service, &handle, root);
    let feed_s = calls.call_us.iter().sum::<f64>() * 1e-6;
    let drained = Instant::now();
    let snapshot = span(tracer, "MonitorService::finish", root, request, || {
        service.finish()
    });
    let drain_s = drained.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.end(root);
    }
    let wall_s = begin.elapsed().as_secs_f64();
    let samples = sampler.map(Sampler::finish).unwrap_or_default();
    if let Some(t) = tracer {
        t.add_samples(&samples);
    }
    Ok(Lifetime {
        wall_s,
        start_s,
        feed_s,
        drain_s,
        producer_cpu_s: host::thread_cpu_s() - cpu_before,
        cpu_s: host::process_cpu_s() - process_cpu_before,
        offered,
        calls,
        snapshot,
        handle: Some(handle),
        samples,
    })
}

/// One closed-loop lifetime: every batch of `feed`, back to back; a batch
/// is due when the previous call returns.
pub fn run_lifetime(
    mc: &MonitorConfig,
    dep: &Deployment,
    feed: &LifetimeFeed,
    tracer: Option<&Tracer>,
    request: u64,
) -> Result<Lifetime, String> {
    let offered = feed.records.len() as u64;
    drive_lifetime(mc, dep, offered, tracer, request, |service, _, root| {
        let mut calls = Calls::default();
        let mut due = Instant::now();
        for batch in &feed.batches {
            let sent = Instant::now();
            // An `Err` loses the batch; `Lifetime::failed` counts it from
            // the service's own ingested total.
            let _ = span(
                tracer,
                "MonitorService::ingest_batch",
                root,
                request,
                || service.ingest_batch(batch),
            );
            let done = Instant::now();
            calls.record(due, sent, done, batch.len(), Duration::MAX);
            due = done;
        }
        calls
    })
}

/// Feeds the first `n_batches` batches into a fresh service and drops it
/// without `finish` — the in-process equivalent of a kill: what the WAL
/// holds is all that survives. Returns once the dead service's threads
/// are gone, so they cannot steal time from the recovery that follows.
pub fn feed_and_crash(
    mc: &MonitorConfig,
    dep: &Deployment,
    feed: &LifetimeFeed,
    n_batches: usize,
) -> Result<(), String> {
    let mut service = MonitorService::start(mc, dep.network.clone())?;
    for batch in &feed.batches[..n_batches] {
        service
            .ingest_batch(batch)
            .map_err(|e| format!("ingest before the crash: {e}"))?;
    }
    drop(service);
    let deadline = Instant::now() + Duration::from_secs(30);
    while host::threads_cpu()
        .iter()
        .any(|(_, name, _)| name.starts_with("cps-monitor-"))
    {
        if Instant::now() > deadline {
            return Err("the crashed service's threads did not exit".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// `ingest_rec_per_s` and `cpu_us_per_rec` of a run: `passes` holds, per
/// repeat, the lifetimes that together ingested the feed once; a repeat's
/// rate is its records over its summed `start`→`finish` wall time, and the
/// run reports the median repeat.
pub fn put_ingest_rates(m: &mut Metrics, passes: &[&[Lifetime]]) {
    let total = |pass: &[Lifetime], f: &dyn Fn(&Lifetime) -> f64| pass.iter().map(f).sum::<f64>();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| total(p, &|l| l.offered as f64) / total(p, &|l| l.wall_s))
        .collect();
    let cpu: Vec<f64> = passes
        .iter()
        .map(|p| total(p, &|l| l.cpu_s) * 1e6 / total(p, &|l| l.offered as f64))
        .collect();
    m.put("ingest_rec_per_s", median(&rates), rates.len() as u64);
    m.put("cpu_us_per_rec", median(&cpu), cpu.len() as u64);
}

/// `wal_bytes_per_rec` and `store_bytes_per_cluster` over the lifetimes
/// that ingested the feed once; both 0 for a volatile service.
pub fn put_durable_sizes(m: &mut Metrics, pass: &[Lifetime]) {
    let sum = |f: &dyn Fn(&Lifetime) -> u64| pass.iter().map(f).sum::<u64>() as f64;
    m.put(
        "wal_bytes_per_rec",
        sum(&|l| l.snapshot.wal_bytes) / sum(&|l| l.offered),
        0,
    );
    m.put(
        "store_bytes_per_cluster",
        sum(&|l| l.snapshot.snapshot_bytes) / sum(&|l| l.snapshot.micro_clusters),
        0,
    );
}

/// The exact service counters, from one lifetime's final snapshot.
pub fn put_counters(m: &mut Metrics, s: &MetricsSnapshot) {
    for (name, value) in [
        ("cps-monitor.events_sealed", s.events_sealed),
        ("cps-monitor.boundary_events", s.boundary_events),
        ("cps-monitor.cross_shard_merges", s.cross_shard_merges),
        ("cps-monitor.micro_clusters", s.micro_clusters),
        ("cps-monitor.snapshots_published", s.snapshots_published),
        (
            "cps-monitor.integration_candidates_pruned",
            s.integration_candidates_pruned,
        ),
        (
            "cps-monitor.integration_bound_skips",
            s.integration_bound_skips,
        ),
        ("cps-monitor.checkpoints", s.checkpoints),
        ("cps-monitor.wal_appends", s.wal_appends),
        ("cps-monitor.days_persisted", s.days_persisted),
    ] {
        m.put(name, value as f64, 0);
    }
}

/// The call rows of a traced run: `lifetimes`' `ingest_batch` calls pooled,
/// and the median `finish()` — the backlog the feed left behind; one that
/// grows means the rate is not sustainable.
pub fn put_call_layers(m: &mut Metrics, lifetimes: &[&Lifetime]) {
    let pool = |f: &dyn Fn(&Calls) -> &Vec<f64>| -> Vec<f64> {
        lifetimes
            .iter()
            .flat_map(|l| f(&l.calls).iter().copied())
            .collect()
    };
    let (calls, admit, late) = (
        pool(&|c| &c.call_us),
        pool(&|c| &c.admit_us),
        pool(&|c| &c.late_us),
    );
    let n = calls.len() as u64;
    m.put("admit_p50_us", median(&admit), n);
    m.put("cps-monitor.ingest_call_p99_us", quantile(&calls, 0.99), n);
    m.put("cps-monitor.ingest_call_max_ms", max(&calls) / 1e3, n);
    m.put("bench.producer_late_p99_us", quantile(&late, 0.99), n);
    m.put(
        "bench.records_sent_late",
        lifetimes
            .iter()
            .map(|l| l.calls.records_sent_late)
            .sum::<u64>() as f64
            / lifetimes.len() as f64,
        0,
    );
    let drains: Vec<f64> = lifetimes.iter().map(|l| l.drain_s * 1e3).collect();
    m.put(
        "bench.drain_backlog_ms",
        median(&drains),
        drains.len() as u64,
    );
}

/// The service-from-outside rows of a traced run: `rounds` passes over the
/// same lifetimes, times and CPU reported per round.
pub fn put_lifetime_layers(m: &mut Metrics, lifetimes: &[&Lifetime], rounds: usize) {
    let n = lifetimes.len() as u64;
    let per_round =
        |f: &dyn Fn(&Lifetime) -> f64| lifetimes.iter().map(|l| f(l)).sum::<f64>() / rounds as f64;
    m.put(
        "cps-monitor.start_ms",
        median(
            &lifetimes
                .iter()
                .map(|l| l.start_s * 1e3)
                .collect::<Vec<_>>(),
        ),
        n,
    );
    m.put("cps-monitor.feed_s", per_round(&|l| l.feed_s), n);
    m.put("cps-monitor.drain_s", per_round(&|l| l.drain_s), n);
    m.put(
        "cps-monitor.producer_cpu_s",
        per_round(&|l| l.producer_cpu_s),
        n,
    );
    // A thread's last sample before it exits stands for its total.
    m.put(
        "cps-monitor.shard_cpu_s",
        per_round(&|l| l.samples.last().map_or(0.0, |s| s.shard_cpu_s)),
        n,
    );
    let merger_cpu = per_round(&|l| l.samples.last().map_or(0.0, |s| s.merger_cpu_s));
    m.put("cps-monitor.merger_cpu_s", merger_cpu, n);
    m.put(
        "cps-monitor.merger_busy_share",
        merger_cpu / per_round(&|l| l.wall_s),
        n,
    );
    let depths: Vec<f64> = lifetimes
        .iter()
        .flat_map(|l| &l.samples)
        .map(|s| s.queue_depth as f64)
        .collect();
    m.put(
        "cps-monitor.queue_depth_max",
        max(&depths),
        depths.len() as u64,
    );
    let ratios: Vec<f64> = lifetimes
        .iter()
        .map(|l| late_to_early_cost_ratio(&l.samples))
        .filter(|r| r.is_finite())
        .collect();
    m.put(
        "cps-monitor.late_to_early_cost_ratio",
        median(&ratios),
        ratios.len() as u64,
    );
    put_counters(m, &lifetimes[0].snapshot);
}
