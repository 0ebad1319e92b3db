//! `serve-mixed`: reads beside writes. An open loop feeds 90 days, one
//! `ingest_batch` per 5-minute window, window `w` due at `t0 + w/2000 s`
//! (≈135k rec/s, well under the sustainable rate), with WAL and snapshot
//! store on so days seal while they are read. Each call is timed from its
//! due time and the generator's own lateness is reported. One closed-loop
//! reader, 2 ms think time, alternates by seeded coin between a
//! *dashboard* (`ServeHandle::red_regions` + `significant_clusters` over
//! the trailing 7 days: cacheable, invalidated by epochs) and a
//! *drill-down* (`ReadView::query_guided` over a random 1–7-day range in
//! the trailing 30 days + `micro_clusters_for_day`: uncached, spanning
//! live days and sealed segments). Its query probe reads the 90 days once
//! the stream has ended.

use super::{probe, repeat_passes, set_up, Ctx, Outcome};
use crate::catalog::Metrics;
use crate::feed::LifetimeFeed;
use crate::oracle::{reference_micros, same_clusters, service_micros};
use crate::replay;
use crate::service::{
    drive_lifetime, monitor_config, put_call_layers, put_durable_sizes, put_ingest_rates,
    put_lifetime_layers, Calls, Lifetime, Pass,
};
use crate::stats::{max, median, ns_per_call, quantile, SplitMix64, NS_CALLS};
use crate::trace::{span, Tracer, NO_PARENT};
use crate::workdir::WorkDir;
use atypical::store::ForestStore;
use cps_core::RecordBatch;
use cps_monitor::MonitorHandle;
use cps_serve::CacheStats;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Feed windows due per second of wall time.
const WINDOWS_PER_S: f64 = 2000.0;
const THINK: Duration = Duration::from_millis(2);
/// Ranges re-queried at quiescence, cached against uncached.
const ORACLE_RANGES: usize = 16;
/// Reads per feed day when the other workloads walk the reader through
/// their quiescent service.
const QUIESCENT_READS_PER_DAY: u32 = 4;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Dashboard,
    DrillDown,
}

struct Read {
    kind: Kind,
    first_day: u32,
    n_days: u32,
    latency_us: f64,
    ok: bool,
}

/// One open-loop lifetime with its reader.
struct OpenLoop {
    lifetime: Lifetime,
    reads: Vec<Read>,
    cache: CacheStats,
    /// Holds the WAL and the store the quiescent service still reads.
    dir: Option<WorkDir>,
}

impl Pass for OpenLoop {
    fn wall_s(&self) -> f64 {
        self.lifetime.wall_s
    }

    fn release(&mut self) {
        self.lifetime.release();
        self.dir = None;
    }
}

fn dashboard(
    handle: &MonitorHandle,
    tracer: Option<&Tracer>,
    first: u32,
    n: u32,
    request: u64,
) -> bool {
    let serve = handle.serve();
    let root = tracer.map_or(NO_PARENT, |t| t.start("dashboard", NO_PARENT, request));
    black_box(span(
        tracer,
        "ServeHandle::red_regions",
        root,
        request,
        || serve.red_regions(first, n),
    ));
    let ok = span(
        tracer,
        "ServeHandle::significant_clusters",
        root,
        request,
        || serve.significant_clusters(first, n),
    )
    .is_ok();
    if let Some(t) = tracer {
        t.end(root);
    }
    ok
}

fn drill_down(
    handle: &MonitorHandle,
    tracer: Option<&Tracer>,
    first: u32,
    n: u32,
    day: u32,
    request: u64,
) -> bool {
    let root = tracer.map_or(NO_PARENT, |t| t.start("drill-down", NO_PARENT, request));
    let view = span(tracer, "MonitorHandle::read_view", root, request, || {
        handle.read_view()
    });
    let guided = span(tracer, "ReadView::query_guided", root, request, || {
        view.query_guided(first, n)
    })
    .is_ok();
    let micros = span(
        tracer,
        "ReadView::micro_clusters_for_day",
        root,
        request,
        || view.micro_clusters_for_day(day),
    )
    .is_ok();
    if let Some(t) = tracer {
        t.end(root);
    }
    guided && micros
}

/// One reader iteration on the day the feed has reached: a dashboard or a
/// drill-down by `rng`'s coin, over ranges that trail `today`.
fn read(
    handle: &MonitorHandle,
    tracer: Option<&Tracer>,
    rng: &mut SplitMix64,
    today: u32,
    request: u64,
) -> Read {
    let begin = Instant::now();
    let (kind, first_day, n_days, ok) = if rng.below(2) == 0 {
        let first = today.saturating_sub(6);
        let n = today - first + 1;
        let ok = dashboard(handle, tracer, first, n, request);
        (Kind::Dashboard, first, n, ok)
    } else {
        let n = (1 + rng.below(7)).min(today + 1);
        let oldest = today.saturating_sub(29);
        let first = oldest + rng.below(today + 1 - n - oldest + 1);
        let day = first + rng.below(n);
        let ok = drill_down(handle, tracer, first, n, day, request);
        (Kind::DrillDown, first, n, ok)
    };
    Read {
        kind,
        first_day,
        n_days,
        latency_us: begin.elapsed().as_secs_f64() * 1e6,
        ok,
    }
}

/// `windows[i]` is the feed window of `batches[i]`; empty windows send nothing.
fn open_loop(
    ctx: &Ctx,
    feed: &LifetimeFeed,
    windows: &[u32],
    tracer: Option<&Tracer>,
    request: u64,
) -> Result<OpenLoop, String> {
    let dir = ctx.work.dir("serve")?;
    let mc = monitor_config(ctx.dep, Some(dir.path()), 0);
    let per_day = ctx.dep.spec.windows_per_day();
    let today = AtomicU32::new(0);
    let stop = AtomicBool::new(false);
    let mut reads = Vec::new();
    let offered = feed.records.len() as u64;
    let lifetime = drive_lifetime(
        &mc,
        ctx.dep,
        offered,
        tracer,
        request,
        |service, handle, root| {
            let mut calls = Calls::default();
            std::thread::scope(|scope| {
                let reading = scope.spawn(|| {
                    let mut rng = SplitMix64::new(ctx.seed, 2);
                    let mut reads = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        let today = today.load(Ordering::SeqCst);
                        let request = reads.len() as u64;
                        reads.push(read(handle, tracer, &mut rng, today, request));
                        std::thread::sleep(THINK);
                    }
                    reads
                });
                // Sent later than one whole period: the next window was
                // already due.
                let period = Duration::from_secs_f64(1.0 / WINDOWS_PER_S);
                let t0 = Instant::now();
                for (batch, &window) in feed.batches.iter().zip(windows) {
                    let due = t0 + Duration::from_secs_f64(f64::from(window) / WINDOWS_PER_S);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    today.store(window / per_day, Ordering::SeqCst);
                    let sent = Instant::now();
                    // An `Err` loses the batch; `Lifetime::failed` counts it.
                    let _ = span(
                        tracer,
                        "MonitorService::ingest_batch",
                        root,
                        request,
                        || service.ingest_batch(batch),
                    );
                    calls.record(due, sent, Instant::now(), batch.len(), period);
                }
                stop.store(true, Ordering::SeqCst);
                reads = reading.join().expect("the reader does not panic");
            });
            calls
        },
    )?;
    let cache = lifetime.handle().serve().cache_stats();
    Ok(OpenLoop {
        lifetime,
        reads,
        cache,
        dir: Some(dir),
    })
}

/// At quiescence the cache must answer what an uncached view answers, on
/// ranges the reader asked for.
fn cached_equals_uncached(
    handle: &MonitorHandle,
    reads: &[Read],
    out: &mut Outcome,
) -> Result<(), String> {
    let (serve, view) = (handle.serve(), handle.read_view());
    let step = (reads.len() / ORACLE_RANGES).max(1);
    for read in reads.iter().step_by(step) {
        let (first, n) = (read.first_day, read.n_days);
        // Second time round the answer comes out of the cache.
        for _ in 0..2 {
            out.checks.check(
                *serve.red_regions(first, n) == view.red_regions(first, n),
                || format!("cached red_regions({first}, {n}) differs from the uncached answer"),
            );
            let cached = serve
                .significant_clusters(first, n)
                .map_err(|e| e.to_string())?;
            let direct = view
                .significant_clusters(first, n)
                .map_err(|e| e.to_string())?;
            out.checks.check(*cached == direct, || {
                format!(
                    "cached significant_clusters({first}, {n}) differs from the uncached answer"
                )
            });
        }
    }
    Ok(())
}

/// The dashboard and drill-down rows of a traced run, from reads made with
/// tracing off. `cache` holds the result cache's counters over those
/// reads, per service.
fn put_read_layers(m: &mut Metrics, reads: &[&Read], cache: &[CacheStats], hit_ns: f64) {
    let of = |kind: Kind| -> Vec<f64> {
        reads
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.latency_us)
            .collect()
    };
    let (dash, drill) = (of(Kind::Dashboard), of(Kind::DrillDown));
    let all: Vec<f64> = reads.iter().map(|r| r.latency_us).collect();
    m.put("dash_p50_us", median(&dash), dash.len() as u64);
    m.put("drill_p50_us", median(&drill), drill.len() as u64);
    m.put(
        "cps-serve.dash_p99_us",
        quantile(&dash, 0.99),
        dash.len() as u64,
    );
    m.put(
        "cps-serve.drill_p99_us",
        quantile(&drill, 0.99),
        drill.len() as u64,
    );
    m.put("cps-serve.query_max_ms", max(&all) / 1e3, all.len() as u64);
    let passes = cache.len() as u64;
    m.put(
        "cps-serve.cache.hit_ratio",
        median(&cache.iter().map(CacheStats::hit_rate).collect::<Vec<_>>()),
        passes,
    );
    m.put(
        "cps-serve.cache.stale",
        cache.iter().map(|c| c.stale).sum::<u64>() as f64 / passes as f64,
        0,
    );
    m.put("cps-serve.cache.hit_ns", hit_ns, NS_CALLS);
}

/// A cache hit's cost: a quiescent service never changes epoch, so after
/// the first call every `red_regions` over one range is a hit.
fn cache_hit_ns(handle: &MonitorHandle) -> f64 {
    let serve = handle.serve();
    ns_per_call(|| serve.red_regions(0, 7))
}

/// What the three workloads without a reader report for the dashboard and
/// drill-down rows: the reader's walk repeated, with tracing off and
/// without think time, over their quiescent service — `today` advances
/// through the `days` held, [`QUIESCENT_READS_PER_DAY`] reads on each.
pub fn put_quiescent_reads(
    ctx: &Ctx,
    handle: &MonitorHandle,
    days: u32,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut rng = SplitMix64::new(ctx.seed, 2);
    let reads: Vec<Read> = (0..days * QUIESCENT_READS_PER_DAY)
        .map(|i| {
            read(
                handle,
                None,
                &mut rng,
                i / QUIESCENT_READS_PER_DAY,
                u64::from(i),
            )
        })
        .collect();
    out.attempted += reads.len() as u64;
    out.failed += reads.iter().filter(|r| !r.ok).count() as u64;
    let cache = handle.serve().cache_stats();
    cached_equals_uncached(handle, &reads, out)?;
    put_read_layers(
        &mut out.metrics,
        &reads.iter().collect::<Vec<_>>(),
        &[cache],
        cache_hit_ns(handle),
    );
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // The open loop replays in real time, so its smoke size is a third of the others'.
    let days = ctx.size.pick(90, 10);
    let mut out = Outcome::default();

    // One batch per 5-minute window that has records; `windows[i]` is the
    // feed window `batches[i]` is due at.
    let ((feed, windows), setup_s) = set_up(ctx, days, &mut out.metrics, |days| {
        let records: Vec<_> = days.iter().flatten().copied().collect();
        let (mut windows, mut batches) = (Vec::new(), Vec::new());
        for group in records.chunk_by(|a, b| a.window == b.window) {
            windows.push(group[0].window.raw());
            batches.push(RecordBatch::from_records(group));
        }
        (LifetimeFeed { records, batches }, windows)
    });
    out.metrics.put("setup_s", setup_s, 1);

    let mut first = open_loop(ctx, &feed, &windows, None, 0)?;
    let handle = first.lifetime.handle();
    let rounds = probe::rounds(
        ctx,
        handle,
        days,
        ctx.size.pick(probe::FIXED_ROUNDS, 3),
        0.0,
    );
    let dir = first.dir.as_ref().expect("the first pass keeps its store");
    let store = ForestStore::open(&dir.path().join("snapshot"))
        .map_err(|e| format!("opening the store: {e}"))?;
    probe::report(ctx, &rounds, handle, Some(&store), days, &mut out)?;
    cached_equals_uncached(handle, &first.reads, &mut out)?;
    let reference = reference_micros(ctx.dep, &feed)?;
    out.checks.check(
        same_clusters(&service_micros(handle)?, &reference.0),
        || "the service's micro-clusters differ from one OnlineExtractor's".into(),
    );
    let hit_ns = ctx.tracer.map(|_| cache_hit_ns(handle));
    drop(store);
    first.release();

    let passes = repeat_passes(ctx, first, 1, |tracer, index| {
        open_loop(ctx, &feed, &windows, tracer, index as u64)
    })?;
    for pass in passes.plain.iter().chain(&passes.traced) {
        out.attempted += pass.lifetime.offered + pass.reads.len() as u64;
        out.failed += pass.lifetime.failed() + pass.reads.iter().filter(|r| !r.ok).count() as u64;
    }
    // The schedule pins the rate: `ingest_rec_per_s` is the offered rate
    // unless the service cannot sustain it, in which case it falls.
    let plain: Vec<&Lifetime> = passes.plain.iter().map(|p| &p.lifetime).collect();
    put_ingest_rates(
        &mut out.metrics,
        &plain
            .iter()
            .map(|l| std::slice::from_ref(*l))
            .collect::<Vec<_>>(),
    );
    let reads = passes.plain.iter().map(|p| p.reads.len()).sum::<usize>();
    out.notes.push(format!(
        "{} open-loop pass(es): {} batches over {} records at {WINDOWS_PER_S} windows/s; {reads} reads beside them",
        passes.plain.len(), feed.batches.len(), feed.records.len()
    ));

    if !passes.traced.is_empty() {
        // Wall time is pinned by the schedule, so overhead shows as CPU.
        let cpu =
            |ps: &[OpenLoop]| median(&ps.iter().map(|p| p.lifetime.cpu_s).collect::<Vec<_>>());
        let m = &mut out.metrics;
        m.put(
            "bench.trace_overhead_ratio",
            cpu(&passes.traced) / cpu(&passes.plain),
            passes.traced.len() as u64,
        );
        let traced: Vec<&Lifetime> = passes.traced.iter().map(|p| &p.lifetime).collect();
        put_lifetime_layers(m, &traced, traced.len());
        put_call_layers(m, &plain);
        put_durable_sizes(m, std::slice::from_ref(plain[0]));
        let reads: Vec<&Read> = passes.plain.iter().flat_map(|p| &p.reads).collect();
        let cache: Vec<CacheStats> = passes.plain.iter().map(|p| p.cache).collect();
        put_read_layers(m, &reads, &cache, hit_ns.expect("timed in a traced run"));
        replay::run(
            ctx,
            std::slice::from_ref(&feed),
            std::slice::from_ref(&reference),
            m,
        )?;
    }
    Ok(out)
}
