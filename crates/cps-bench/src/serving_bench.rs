//! Concurrent query serving under sustained ingest: the standing perf
//! record for the snapshot-published read path (`cps-serve`).
//!
//! The `repro query-serving` command replays a hot-region-skewed feed
//! (the security-log-style workload where a small slice of the deployment
//! produces most of the incident volume) through the sharded monitor
//! while closed-loop reader threads hammer the query surface, through
//! both faces of the read path:
//!
//! - `snapshot` — a pinned lock-free [`ReadView`] per iteration, queries
//!   recomputed every time;
//! - `snapshot-cached` — [`ServeHandle`], the snapshot path with the
//!   sharded result cache in front.
//!
//! (The `mutex` rows of the committed `BENCH_query_serving.json` are
//! historical: that read path no longer exists.)
//!
//! ```text
//! repro query-serving --threads 1,4,8     # seed-42 → BENCH_query_serving.json
//! repro query-serving --max-records 400 --iters 1 --bench-out results/smoke.json
//! ```
//!
//! Readers interleave two mixes: *dashboard* (red regions + significant
//! clusters over the sealed-day prefix — the stable historical ranges an
//! operator's trends panel refreshes) and *drill-down* (a guided query
//! plus one day's micro-clusters). Each cell reports per-mix reader
//! p50/p99 latency, ingest throughput against the no-readers baseline,
//! and — on the cached path — the hit/miss/stale counters. The run ends
//! with a quiescent cross-check that the cached and uncached answers are
//! identical and equal the batch recomputation of
//! [`cps_testkit::reference_guided`].

use cps_core::ScratchDir;
use cps_geo::UniformGrid;
use cps_monitor::{CacheStats, MonitorConfig, MonitorHandle, MonitorService, OverflowPolicy};
use cps_sim::{build_source, Domain, Scale, SimConfig, Source, SourceConfig};
use cps_testkit::reference_guided;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The query mixes a reader interleaves.
const MIXES: [&str; 2] = ["dashboard", "drilldown"];
const DASHBOARD: usize = 0;
const DRILLDOWN: usize = 1;

/// Which face of the read path a measurement exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadPath {
    /// A pinned [`cps_monitor::ReadView`], recomputed per query.
    Snapshot,
    /// [`cps_monitor::ServeHandle`]: snapshot path + result cache.
    SnapshotCached,
}

impl ReadPath {
    /// Row label in the artifact.
    pub fn name(self) -> &'static str {
        match self {
            ReadPath::Snapshot => "snapshot",
            ReadPath::SnapshotCached => "snapshot-cached",
        }
    }
}

/// Configuration of one `repro query-serving` run.
#[derive(Clone, Debug)]
pub struct ServingBenchConfig {
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
    /// Reader-thread counts swept per path.
    pub readers: Vec<usize>,
    /// Repetitions per cell; best ingest time is kept, latency samples
    /// are merged.
    pub iters: u32,
    /// Cap on the feed length (0 = the whole generated stream).
    pub max_records: usize,
    /// Closed-loop think time between reader iterations, in ms. On a
    /// small host this is what keeps 8 readers from saturating the cores
    /// ingest needs — exactly how a real dashboard polls.
    pub think_ms: u64,
    /// Fraction of sensors forming the simulator's hot region
    /// (traffic domain; ignored elsewhere).
    pub hot_region_ratio: f64,
    /// Extra event mass aimed at the hot region. For the audit domain
    /// this maps onto the hot-actor incident share; infrastructure and
    /// battlefield have no skew knob and run their base feed.
    pub hot_region_share: f64,
}

impl Default for ServingBenchConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Tiny,
            source: Domain::Traffic,
            seed: 42,
            days: 3,
            shards: 4,
            readers: vec![1, 4, 8],
            iters: 3,
            max_records: 0,
            think_ms: 10,
            hot_region_ratio: 0.15,
            hot_region_share: 0.6,
        }
    }
}

/// Reader latency for one query mix within one cell.
#[derive(Clone, Debug)]
pub struct MixLatency {
    /// `"dashboard"` or `"drilldown"`.
    pub mix: &'static str,
    /// Queries measured across all readers and iterations.
    pub queries: u64,
    /// Median query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile query latency, microseconds.
    pub p99_us: f64,
}

/// One (path, readers) cell of the matrix.
#[derive(Clone, Debug)]
pub struct ServingResult {
    /// Read path exercised by the cell's readers.
    pub path: &'static str,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Best wall-clock feed-plus-drain time across iterations.
    pub ingest_ms: f64,
    /// Ingest throughput of the best iteration.
    pub records_per_sec: f64,
    /// `records_per_sec` relative to the no-readers baseline.
    pub throughput_vs_baseline: f64,
    /// Per-mix reader latency.
    pub mixes: Vec<MixLatency>,
    /// Result-cache counters (cached path only), summed over iterations.
    pub cache: Option<CacheStats>,
}

/// The deadline-bounded query smoke appended to the artifact
/// (DESIGN §15): after the full feed is sealed into the store, every
/// persisted day is queried twice at a zero budget — each answer must
/// come back degraded, stamped with the published epoch it was served
/// from and the exact days omitted — and once at a generous budget,
/// which must come back complete. The assertions run inside the
/// measurement, so a saved artifact is also a bounded-staleness witness.
#[derive(Clone, Debug)]
pub struct DeadlineSmokeResult {
    /// The tight per-query budget exercised, in milliseconds.
    pub budget_ms: u64,
    /// Deadline-bounded queries issued (tight + generous).
    pub queries: u64,
    /// Queries answered with at least one sealed day omitted.
    pub queries_degraded: u64,
    /// Queries that finished past their budget anyway (bounded by one
    /// in-flight storage read).
    pub deadline_overruns: u64,
    /// Slowest observed deadline query, in milliseconds.
    pub max_elapsed_ms: f64,
    /// Publication epoch the full-budget answer was served from.
    pub fresh_epoch: u64,
}

/// The whole artifact.
#[derive(Clone, Debug)]
pub struct ServingBenchReport {
    /// Feed length actually used (after `max_records`).
    pub feed_records: u64,
    /// Best no-readers feed-plus-drain time.
    pub baseline_ingest_ms: f64,
    /// No-readers ingest throughput all cells are measured against.
    pub baseline_records_per_sec: f64,
    /// The path × readers matrix.
    pub results: Vec<ServingResult>,
    /// The deadline-bounded query smoke.
    pub deadline: DeadlineSmokeResult,
    /// Whether the quiescent cached/uncached/reference cross-check passed
    /// (it panics on mismatch, so a saved artifact always says `true`).
    pub consistency_ok: bool,
}

fn feed_records(config: &ServingBenchConfig, sim: &dyn Source) -> Vec<cps_core::AtypicalRecord> {
    let mut records: Vec<_> = (0..config.days).flat_map(|d| sim.atypical_day(d)).collect();
    records.sort_unstable_by_key(|r| (r.window, r.sensor));
    if config.max_records > 0 {
        records.truncate(config.max_records);
    }
    assert!(!records.is_empty(), "simulated feed is empty");
    records
}

fn monitor_config(
    config: &ServingBenchConfig,
    sim: &dyn Source,
    snapshot_dir: PathBuf,
) -> MonitorConfig {
    MonitorConfig {
        shards: config.shards,
        spec: sim.config().spec,
        overflow: OverflowPolicy::Block,
        // Sealing days into the store is what mints immutable cache
        // entries — the serving layer's whole hit-rate story.
        snapshot_dir: Some(snapshot_dir),
        ..MonitorConfig::default()
    }
}

/// One closed-loop reader: interleaves the dashboard and drill-down mixes
/// through `path`, sleeping `think` between iterations, until `stop` — but
/// always completes at least one iteration so every cell has samples even
/// when ingest outruns thread scheduling. Returns `(mix, µs)` samples.
///
/// The sealed-day prefix is discovered from a lock-free snapshot pin on
/// both paths (one atomic load; it answers no query), so both aim the
/// same mixes at the same ranges: dashboard queries cover the
/// most recent *complete sealed week* (the bounded trailing window a
/// trends panel actually polls — stable across seven seals, which is what
/// lets immutable cache entries get re-hit), drill-downs rotate across
/// sealed days.
fn reader_loop(
    handle: MonitorHandle,
    path: ReadPath,
    stop: Arc<AtomicBool>,
    think: Duration,
) -> Vec<(usize, u64)> {
    let serve = handle.serve();
    let mut samples = Vec::new();
    let mut iters = 0u64;
    while !stop.load(Ordering::SeqCst) || iters == 0 {
        let view = handle.read_view();
        let sealed_last = view.snapshot().persisted_days.iter().next_back().copied();
        let (first, n) = match sealed_last {
            None => (0, 1), // nothing sealed yet: poll the live first day
            Some(last) if last + 1 < 7 => (0, last + 1),
            Some(last) => (((last + 1) / 7 - 1) * 7, 7),
        };
        let drill_day = sealed_last.map_or(0, |last| (iters % u64::from(last + 1)) as u32);

        let t = Instant::now();
        match path {
            ReadPath::Snapshot => drop(view.red_regions(first, n)),
            ReadPath::SnapshotCached => drop(serve.red_regions(first, n)),
        }
        samples.push((DASHBOARD, t.elapsed().as_micros() as u64));

        let t = Instant::now();
        match path {
            ReadPath::Snapshot => drop(view.significant_clusters(first, n).expect("query")),
            ReadPath::SnapshotCached => drop(serve.significant_clusters(first, n).expect("query")),
        }
        samples.push((DASHBOARD, t.elapsed().as_micros() as u64));

        let t = Instant::now();
        match path {
            ReadPath::Snapshot => drop(view.query_guided(drill_day, 1).expect("query")),
            ReadPath::SnapshotCached => drop(serve.query_guided(drill_day, 1).expect("query")),
        }
        samples.push((DRILLDOWN, t.elapsed().as_micros() as u64));

        let t = Instant::now();
        match path {
            ReadPath::Snapshot => drop(view.micro_clusters_for_day(drill_day).expect("query")),
            ReadPath::SnapshotCached => {
                drop(serve.micro_clusters_for_day(drill_day).expect("query"))
            }
        }
        samples.push((DRILLDOWN, t.elapsed().as_micros() as u64));

        iters += 1;
        if !stop.load(Ordering::SeqCst) {
            std::thread::sleep(think);
        }
    }
    samples
}

struct CellOutcome {
    ingest_ms: f64,
    samples: Vec<(usize, u64)>,
    cache: Option<CacheStats>,
}

/// One timed service lifetime with `readers` concurrent reader threads on
/// `path`: start, feed everything, drain with `finish`, stop readers.
fn timed_cell(
    config: &ServingBenchConfig,
    sim: &dyn Source,
    network: &Arc<cps_geo::RoadNetwork>,
    records: &[cps_core::AtypicalRecord],
    path: ReadPath,
    readers: usize,
) -> CellOutcome {
    // A directory of its own, so repeated cells never see each other's
    // sealed-day store.
    let snapshot_dir = ScratchDir::new("bench-serving-cell");
    let mc = monitor_config(config, sim, snapshot_dir.to_path_buf());
    let mut service = MonitorService::start(&mc, network.clone()).expect("service starts");
    let handle = service.handle();
    let stop = Arc::new(AtomicBool::new(false));
    let think = Duration::from_millis(config.think_ms);
    let threads: Vec<_> = (0..readers)
        .map(|_| {
            let handle = handle.clone();
            let stop = stop.clone();
            std::thread::spawn(move || reader_loop(handle, path, stop, think))
        })
        .collect();

    let start = Instant::now();
    for &record in records {
        assert!(
            service.ingest(record).expect("healthy ingest"),
            "Block policy must not drop"
        );
    }
    service.finish();
    let ingest_ms = start.elapsed().as_secs_f64() * 1e3;

    stop.store(true, Ordering::SeqCst);
    let mut samples = Vec::new();
    for t in threads {
        samples.extend(t.join().expect("reader panicked"));
    }
    let cache =
        (path == ReadPath::SnapshotCached && readers > 0).then(|| handle.serve().cache_stats());
    CellOutcome {
        ingest_ms,
        samples,
        cache,
    }
}

/// Nearest-rank percentile of an unsorted µs sample set.
fn percentile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let idx = ((samples.len() as f64 - 1.0) * q).round() as usize;
    samples[idx] as f64
}

fn mix_latencies(samples: &[(usize, u64)]) -> Vec<MixLatency> {
    MIXES
        .iter()
        .enumerate()
        .map(|(mix_idx, &mix)| {
            let mut us: Vec<u64> = samples
                .iter()
                .filter(|&&(m, _)| m == mix_idx)
                .map(|&(_, v)| v)
                .collect();
            let queries = us.len() as u64;
            let p99_us = percentile(&mut us, 0.99);
            let p50_us = percentile(&mut us, 0.50);
            MixLatency {
                mix,
                queries,
                p50_us,
                p99_us,
            }
        })
        .collect()
}

fn merge_cache(into: &mut Option<CacheStats>, add: Option<CacheStats>) {
    if let Some(add) = add {
        let acc = into.get_or_insert_with(CacheStats::default);
        acc.hits += add.hits;
        acc.misses += add.misses;
        acc.stale += add.stale;
        acc.evictions += add.evictions;
        acc.entries = add.entries; // point-in-time, keep the latest
    }
}

/// The deadline-bounded query smoke: seal the whole feed, then hit the
/// deadline path on every persisted day — zero budget must degrade (the
/// sealed day's storage read never fits) with a truthful staleness stamp
/// and omitted-day list; a generous budget must answer completely from
/// the freshest published epoch.
fn deadline_smoke(
    config: &ServingBenchConfig,
    sim: &dyn Source,
    network: &Arc<cps_geo::RoadNetwork>,
    records: &[cps_core::AtypicalRecord],
) -> DeadlineSmokeResult {
    let snapshot_dir = ScratchDir::new("bench-serving-deadline");
    let mc = monitor_config(config, sim, snapshot_dir.to_path_buf());
    let mut service = MonitorService::start(&mc, network.clone()).expect("service starts");
    let handle = service.handle();
    for &record in records {
        assert!(service.ingest(record).expect("healthy ingest"));
    }
    service.finish();

    let serve = handle.serve();
    let persisted: Vec<u32> = handle
        .read_view()
        .snapshot()
        .persisted_days
        .iter()
        .copied()
        .collect();
    assert!(!persisted.is_empty(), "finish must seal the fed days");
    let span = persisted.last().unwrap() + 1;

    let mut queries = 0u64;
    let mut max_elapsed = Duration::ZERO;

    let fresh = serve
        .query_guided_deadline(0, span, Duration::from_secs(5))
        .expect("full-budget query");
    queries += 1;
    max_elapsed = max_elapsed.max(fresh.elapsed);
    assert!(
        !fresh.degraded && fresh.days_omitted.is_empty(),
        "a generous budget must answer completely"
    );
    assert_eq!(
        fresh.epoch,
        serve.epoch(),
        "the staleness stamp must name the published epoch"
    );

    for &day in &persisted {
        let guided = serve
            .query_guided_deadline(day, 1, Duration::ZERO)
            .expect("zero-budget query");
        assert!(guided.degraded, "zero budget must degrade day {day}");
        assert_eq!(guided.days_omitted, vec![day]);
        assert_eq!(guided.epoch, serve.epoch());
        max_elapsed = max_elapsed.max(guided.elapsed);

        let clusters = serve
            .significant_clusters_deadline(day, 1, Duration::ZERO)
            .expect("zero-budget query");
        assert!(clusters.degraded);
        assert_eq!(clusters.days_omitted, vec![day]);
        max_elapsed = max_elapsed.max(clusters.elapsed);
        queries += 2;
    }

    let (queries_degraded, deadline_overruns) = serve.degrade_stats();
    assert_eq!(
        queries_degraded,
        2 * persisted.len() as u64,
        "every zero-budget query and only those must count as degraded"
    );
    DeadlineSmokeResult {
        budget_ms: 0,
        queries,
        queries_degraded,
        deadline_overruns,
        max_elapsed_ms: max_elapsed.as_secs_f64() * 1e3,
        fresh_epoch: fresh.epoch,
    }
}

/// Quiescent differential gate: after a full ingest and `finish`, the
/// cached and uncached-snapshot paths must answer every query of both
/// mixes identically (the cached answers exercised twice, so the second
/// read is served from the cache) and equal to the batch reference.
/// Panics on any mismatch — a saved artifact is therefore also a
/// correctness witness.
fn check_consistency(
    config: &ServingBenchConfig,
    sim: &dyn Source,
    network: &Arc<cps_geo::RoadNetwork>,
    records: &[cps_core::AtypicalRecord],
) -> bool {
    let snapshot_dir = ScratchDir::new("bench-serving-check");
    let mc = monitor_config(config, sim, snapshot_dir.to_path_buf());
    let partition = UniformGrid::over(network, mc.red_cell_miles).partition(network);
    let mut service = MonitorService::start(&mc, network.clone()).expect("service starts");
    let handle = service.handle();
    for &record in records {
        assert!(service.ingest(record).expect("healthy ingest"));
    }
    service.finish();

    let serve = handle.serve();
    let view = handle.read_view();
    let days = config.days.max(1);
    let ranges = [(0, days), (0, 1), (days - 1, 1)];
    for &(first, n) in &ranges {
        for _ in 0..2 {
            assert_eq!(
                *serve.red_regions(first, n),
                view.red_regions(first, n),
                "red_regions({first},{n}): cached != snapshot"
            );
            assert_eq!(
                *serve.query_guided(first, n).expect("query"),
                view.query_guided(first, n).expect("query"),
                "query_guided({first},{n}): cached != snapshot"
            );
            assert_eq!(
                *serve.significant_clusters(first, n).expect("query"),
                view.significant_clusters(first, n).expect("query"),
                "significant_clusters({first},{n}): cached != snapshot"
            );
        }
        let (red, guided) = reference_guided(
            &view,
            &partition,
            &mc.params,
            mc.spec,
            network.num_sensors() as u32,
            first,
            n,
        );
        assert_eq!(
            view.red_regions(first, n),
            red,
            "red_regions({first},{n}): snapshot != reference"
        );
        assert_eq!(
            view.query_guided(first, n).expect("query"),
            guided,
            "query_guided({first},{n}): snapshot != reference"
        );
    }
    for day in 0..days {
        assert_eq!(
            *serve.micro_clusters_for_day(day).expect("query"),
            *view.micro_clusters_for_day(day).expect("query"),
            "micro_clusters_for_day({day}): cached != snapshot"
        );
    }
    true
}

/// Runs the baseline, the path × readers matrix, and the quiescent
/// cross-check; prints one line per cell.
pub fn run(config: &ServingBenchConfig) -> ServingBenchReport {
    // Domain-matched skew: traffic aims the configured extra event mass
    // at a hot region, audit maps the share onto hot-actor incidents;
    // infrastructure and battlefield run their base feed.
    let base = SimConfig::new(config.scale, config.seed).with_domain(config.source);
    let sim = match config.source {
        Domain::Traffic => {
            build_source(base.with_hot_region(config.hot_region_ratio, config.hot_region_share))
        }
        Domain::Audit => {
            let mut knobs = SourceConfig::for_domain(Domain::Audit);
            knobs.hot_actor_share = config.hot_region_share;
            build_source(base.with_source(knobs))
        }
        Domain::Infrastructure | Domain::Battlefield => build_source(base),
    };
    let network = Arc::new(sim.network().clone());
    let records = feed_records(config, sim.as_ref());
    let len = records.len() as u64;
    let iters = config.iters.max(1);

    let mut baseline_ms = f64::INFINITY;
    for _ in 0..iters {
        baseline_ms = baseline_ms.min(
            timed_cell(
                config,
                sim.as_ref(),
                &network,
                &records,
                ReadPath::Snapshot,
                0,
            )
            .ingest_ms,
        );
    }
    let baseline_rps = len as f64 / (baseline_ms / 1e3);
    eprintln!(
        "baseline (0 readers): {baseline_ms:>8.2} ms for {len} records ({baseline_rps:>9.0} rec/s)"
    );

    let mut results = Vec::new();
    for path in [ReadPath::Snapshot, ReadPath::SnapshotCached] {
        for &readers in &config.readers {
            let mut best_ms = f64::INFINITY;
            let mut samples = Vec::new();
            let mut cache = None;
            for _ in 0..iters {
                let outcome = timed_cell(config, sim.as_ref(), &network, &records, path, readers);
                best_ms = best_ms.min(outcome.ingest_ms);
                samples.extend(outcome.samples);
                merge_cache(&mut cache, outcome.cache);
            }
            let records_per_sec = len as f64 / (best_ms / 1e3);
            let r = ServingResult {
                path: path.name(),
                readers,
                ingest_ms: best_ms,
                records_per_sec,
                throughput_vs_baseline: records_per_sec / baseline_rps,
                mixes: mix_latencies(&samples),
                cache,
            };
            let cache_note = r.cache.map_or(String::new(), |c| {
                format!(", cache {:.0}% hit", c.hit_rate() * 100.0)
            });
            eprintln!(
                "{:>15} x{:>2} readers: ingest {:>8.2} ms ({:>5.1}% of baseline), \
                 dash p50/p99 {:>6.0}/{:>8.0} us, drill p50/p99 {:>6.0}/{:>8.0} us{}",
                r.path,
                r.readers,
                r.ingest_ms,
                r.throughput_vs_baseline * 100.0,
                r.mixes[DASHBOARD].p50_us,
                r.mixes[DASHBOARD].p99_us,
                r.mixes[DRILLDOWN].p50_us,
                r.mixes[DRILLDOWN].p99_us,
                cache_note,
            );
            results.push(r);
        }
    }

    let deadline = deadline_smoke(config, sim.as_ref(), &network, &records);
    eprintln!(
        "deadline smoke: {} queries at {} ms budget, {} degraded, {} overruns, \
         max {:.2} ms, epoch {}",
        deadline.queries,
        deadline.budget_ms,
        deadline.queries_degraded,
        deadline.deadline_overruns,
        deadline.max_elapsed_ms,
        deadline.fresh_epoch,
    );

    let consistency_ok = check_consistency(config, sim.as_ref(), &network, &records);
    eprintln!("quiescent cross-check (cached == snapshot == reference): ok");

    ServingBenchReport {
        feed_records: len,
        baseline_ingest_ms: baseline_ms,
        baseline_records_per_sec: baseline_rps,
        results,
        deadline,
        consistency_ok,
    }
}

/// Writes the artifact (`BENCH_query_serving.json` at the repo root for
/// the standing record; `results/BENCH_query_serving_smoke.json` for CI).
pub fn save_json(
    report: &ServingBenchReport,
    config: &ServingBenchConfig,
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
    let results: Vec<Value> = report
        .results
        .iter()
        .map(|r| {
            let mixes: Vec<Value> = r
                .mixes
                .iter()
                .map(|m| {
                    obj(vec![
                        ("mix", Value::Str(m.mix.to_string())),
                        ("queries", Value::U64(m.queries)),
                        ("p50_us", Value::F64(m.p50_us)),
                        ("p99_us", Value::F64(m.p99_us)),
                    ])
                })
                .collect();
            let mut entries = vec![
                ("path", Value::Str(r.path.to_string())),
                ("readers", Value::U64(r.readers as u64)),
                ("ingest_ms", Value::F64(r.ingest_ms)),
                ("records_per_sec", Value::F64(r.records_per_sec)),
                (
                    "throughput_vs_baseline",
                    Value::F64(r.throughput_vs_baseline),
                ),
                ("mixes", Value::Array(mixes)),
            ];
            if let Some(c) = r.cache {
                entries.push((
                    "cache",
                    obj(vec![
                        ("hits", Value::U64(c.hits)),
                        ("misses", Value::U64(c.misses)),
                        ("stale", Value::U64(c.stale)),
                        ("evictions", Value::U64(c.evictions)),
                        ("entries", Value::U64(c.entries)),
                        ("hit_rate", Value::F64(c.hit_rate())),
                    ]),
                ));
            }
            obj(entries)
        })
        .collect();
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let doc = obj(vec![
        ("bench", Value::Str("query-serving".to_string())),
        (
            "scale",
            Value::Str(format!("{:?}", config.scale).to_lowercase()),
        ),
        ("source", Value::Str(config.source.name().to_string())),
        ("seed", Value::U64(config.seed)),
        ("days", Value::U64(u64::from(config.days))),
        ("shards", Value::U64(config.shards as u64)),
        ("iters", Value::U64(u64::from(config.iters))),
        ("think_ms", Value::U64(config.think_ms)),
        ("hot_region_ratio", Value::F64(config.hot_region_ratio)),
        ("hot_region_share", Value::F64(config.hot_region_share)),
        ("feed_records", Value::U64(report.feed_records)),
        ("host_cpus", Value::U64(host_cpus as u64)),
        ("baseline_ingest_ms", Value::F64(report.baseline_ingest_ms)),
        (
            "baseline_records_per_sec",
            Value::F64(report.baseline_records_per_sec),
        ),
        ("consistency_ok", Value::Bool(report.consistency_ok)),
        ("results", Value::Array(results)),
        (
            "degradation",
            obj(vec![
                ("budget_ms", Value::U64(report.deadline.budget_ms)),
                ("queries", Value::U64(report.deadline.queries)),
                (
                    "queries_degraded",
                    Value::U64(report.deadline.queries_degraded),
                ),
                (
                    "deadline_overruns",
                    Value::U64(report.deadline.deadline_overruns),
                ),
                ("max_elapsed_ms", Value::F64(report.deadline.max_elapsed_ms)),
                ("fresh_epoch", Value::U64(report.deadline.fresh_epoch)),
            ]),
        ),
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
        let config = ServingBenchConfig {
            days: 2,
            readers: vec![1, 2],
            iters: 1,
            max_records: 240,
            think_ms: 1,
            ..ServingBenchConfig::default()
        };
        let report = run(&config);
        assert_eq!(report.feed_records, 240);
        assert_eq!(report.results.len(), 4, "2 paths x 2 reader counts");
        assert!(report.consistency_ok);
        for r in &report.results {
            assert!(r.ingest_ms > 0.0);
            assert_eq!(r.mixes.len(), 2);
            for m in &r.mixes {
                assert!(
                    m.queries > 0,
                    "{} x{}: no {} samples",
                    r.path,
                    r.readers,
                    m.mix
                );
                assert!(m.p99_us >= m.p50_us);
            }
            match r.path {
                "snapshot-cached" => {
                    let c = r.cache.expect("cached path reports counters");
                    assert!(c.hits + c.misses + c.stale > 0);
                }
                _ => assert!(r.cache.is_none()),
            }
        }

        let dir = ScratchDir::new("bench-serving-test");
        let path = dir.join("BENCH_query_serving_test.json");
        save_json(&report, &config, &path).expect("save json");
        let text = std::fs::read_to_string(&path).expect("read back");
        let doc: serde::Value = serde_json::from_str(&text).expect("valid json");
        let entries = doc.as_object().expect("top-level object");
        assert_eq!(
            serde::get_field(entries, "results")
                .as_array()
                .expect("results array")
                .len(),
            4
        );
        assert_eq!(
            serde::get_field(entries, "consistency_ok"),
            &serde::Value::Bool(true)
        );
        let degradation = serde::get_field(entries, "degradation")
            .as_object()
            .expect("degradation object");
        for key in [
            "budget_ms",
            "queries",
            "queries_degraded",
            "deadline_overruns",
        ] {
            assert!(
                matches!(serde::get_field(degradation, key), serde::Value::U64(_)),
                "degradation block is missing {key}"
            );
        }
        // Every zero-budget query degraded; the generous one did not.
        assert!(report.deadline.queries_degraded > 0);
        assert_eq!(
            report.deadline.queries,
            report.deadline.queries_degraded + 1
        );
    }
}
