//! The query probe: what reading a quiescent service costs. Every workload
//! runs it against the state its own first pass left behind — a sealed
//! month on `backfill-durable`, 180 live days in memory on `stream-long`,
//! 90 sealed days on `serve-mixed` — and on `cold-range`, whose 180-day
//! sealed archive exists for nothing else, it is the timed part.
//!
//! One thread, no think time, a fresh `read_view()` per query: rounds of a
//! seeded shuffle of 30 `guided-day`, 10 `guided-week`, 10 `guided-month`
//! (`query_guided` over 1/7/30 days, starts uniform over the days held),
//! 30 `micro-day` (`micro_clusters_for_day`: pure segment decode on a
//! sealed day) and 10 `red-regions` (pure in-memory `F` composition over 7
//! days). Nothing is cached by the program between queries; the segments
//! (about 1 MB) stay in the OS page cache.

use super::{Ctx, Outcome};
use crate::host;
use crate::oracle::same_clusters;
use crate::stats::{median, ns_per_call, quantile, SplitMix64, NS_CALLS};
use crate::trace::{span, Tracer, NO_PARENT};
use atypical::integrate::{integrate_aligned, TimeAlignment};
use atypical::redzone::RedZones;
use atypical::store::{ForestLevel, ForestStore};
use atypical::AtypicalCluster;
use cps_core::ids::ClusterIdGen;
use cps_monitor::MonitorHandle;
use cps_serve::{ReadView, QUERY_ID_BASE};
use cps_storage::{IoSnapshot, Predicate};
use std::hint::black_box;
use std::time::Instant;

/// Rounds of the probe on the workloads whose timed part is ingest: 400
/// month queries and 1,200 of each one-day kind, about 2 s.
pub const FIXED_ROUNDS: usize = 40;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    GuidedDay,
    GuidedWeek,
    GuidedMonth,
    MicroDay,
    RedRegions,
}

impl Kind {
    /// `(kind, queries per round)`.
    const MIX: [(Kind, usize); 5] = [
        (Kind::GuidedDay, 30),
        (Kind::GuidedWeek, 10),
        (Kind::GuidedMonth, 10),
        (Kind::MicroDay, 30),
        (Kind::RedRegions, 10),
    ];
    const GUIDED: [Kind; 3] = [Kind::GuidedDay, Kind::GuidedWeek, Kind::GuidedMonth];

    fn span_days(self) -> u32 {
        match self {
            Kind::GuidedDay | Kind::MicroDay => 1,
            Kind::GuidedWeek | Kind::RedRegions => 7,
            Kind::GuidedMonth => 30,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::GuidedDay => "guided-day",
            Kind::GuidedWeek => "guided-week",
            Kind::GuidedMonth => "guided-month",
            Kind::MicroDay => "micro-day",
            Kind::RedRegions => "red-regions",
        }
    }
}

struct Query {
    kind: Kind,
    latency_us: f64,
    io: IoSnapshot,
    ok: bool,
}

struct Round {
    wall_s: f64,
    queries: Vec<Query>,
}

/// The probe's rounds, with tracing off and on.
pub struct Rounds {
    plain: Vec<Round>,
    traced: Vec<Round>,
    /// `VmHWM` when the minimum number of rounds was done. By then the
    /// process has set up, run its first pass and probed it — the same
    /// work on every run — and nothing later is counted, so the reading
    /// does not depend on how many repeats fit in `--seconds`.
    pub peak_rss_mb: f64,
}

impl Rounds {
    /// Median traced round over median untraced round.
    pub fn trace_overhead_ratio(&self) -> f64 {
        let wall = |rounds: &[Round]| median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        wall(&self.traced) / wall(&self.plain)
    }

    pub fn traced_len(&self) -> usize {
        self.traced.len()
    }
}

/// One round of the mix. The order and the range starts come from `rng`,
/// which carries on from round to round.
fn round(
    handle: &MonitorHandle,
    days: u32,
    rng: &mut SplitMix64,
    tracer: Option<&Tracer>,
    first_request: u64,
) -> Round {
    let mut kinds: Vec<Kind> = Kind::MIX
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    rng.shuffle(&mut kinds);
    let begin = Instant::now();
    let queries = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let n = kind.span_days().min(days);
            let first = rng.below(days - n + 1);
            let request = first_request + i as u64;
            let sent = Instant::now();
            let (ok, io) = span(tracer, kind.name(), NO_PARENT, request, || {
                let view = handle.read_view();
                let before = view.io_stats();
                let ok = match kind {
                    Kind::MicroDay => view.micro_clusters_for_day(first).map(black_box).is_ok(),
                    Kind::RedRegions => {
                        black_box(view.red_regions(first, n));
                        true
                    }
                    _ => view.query_guided(first, n).map(black_box).is_ok(),
                };
                (ok, view.io_stats().since(before))
            });
            Query {
                kind,
                latency_us: sent.elapsed().as_secs_f64() * 1e6,
                io,
                ok,
            }
        })
        .collect();
    Round {
        wall_s: begin.elapsed().as_secs_f64(),
        queries,
    }
}

/// Runs rounds against `handle`, which holds `days` days, until `seconds`
/// are spent and at least `min_rounds` are done. A traced run follows each
/// round with a traced one.
pub fn rounds(
    ctx: &Ctx,
    handle: &MonitorHandle,
    days: u32,
    min_rounds: usize,
    seconds: f64,
) -> Rounds {
    let per_round: usize = Kind::MIX.iter().map(|m| m.1).sum();
    let mut rng = SplitMix64::new(ctx.seed, 3);
    let mut out = Rounds {
        plain: Vec::new(),
        traced: Vec::new(),
        peak_rss_mb: f64::NAN,
    };
    let begin = Instant::now();
    while out.plain.len() < min_rounds || begin.elapsed().as_secs_f64() < seconds {
        let first_request = (out.plain.len() * per_round) as u64;
        out.plain
            .push(round(handle, days, &mut rng, None, first_request));
        if let Some(tracer) = ctx.tracer {
            out.traced
                .push(round(handle, days, &mut rng, Some(tracer), first_request));
        }
        if out.plain.len() == min_rounds {
            out.peak_rss_mb = host::peak_rss_mb();
        }
    }
    out
}

fn latencies(rounds: &[Round], kind: Kind) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| &r.queries)
        .filter(|q| q.kind == kind)
        .map(|q| q.latency_us)
        .collect()
}

/// Counts the probe's queries, reports its latencies, checks the answers
/// against the oracle and, in a traced run, replays the query stages.
/// `store` is the service's snapshot store, if it has one.
pub fn report(
    ctx: &Ctx,
    rounds: &Rounds,
    handle: &MonitorHandle,
    store: Option<&ForestStore>,
    days: u32,
    out: &mut Outcome,
) -> Result<(), String> {
    for q in rounds
        .plain
        .iter()
        .chain(&rounds.traced)
        .flat_map(|r| &r.queries)
    {
        out.attempted += 1;
        out.failed += u64::from(!q.ok);
    }
    let (day, month, micro) = (
        latencies(&rounds.plain, Kind::GuidedDay),
        latencies(&rounds.plain, Kind::GuidedMonth),
        latencies(&rounds.plain, Kind::MicroDay),
    );
    let m = &mut out.metrics;
    m.put("guided_day_p50_us", median(&day), day.len() as u64);
    m.put("guided_month_p50_us", median(&month), month.len() as u64);
    m.put("micro_day_p50_us", median(&micro), micro.len() as u64);
    m.put("peak_rss_mb", rounds.peak_rss_mb, 1);
    out.notes.push(format!(
        "query probe: {} rounds of {} queries over {days} days, {} of them sealed (OS page cache warm)",
        rounds.plain.len(),
        rounds.plain[0].queries.len(),
        handle.read_view().snapshot().persisted_days.len()
    ));
    oracle(ctx, handle, store, days, out)?;

    let Some(tracer) = ctx.tracer else {
        return Ok(());
    };
    let guided: Vec<&Query> = rounds
        .traced
        .iter()
        .flat_map(|r| &r.queries)
        .filter(|q| Kind::GUIDED.contains(&q.kind))
        .collect();
    let sum = |f: &dyn Fn(&IoSnapshot) -> u64| guided.iter().map(|q| f(&q.io)).sum::<u64>() as f64;
    // No segment is touched where every day is live: 0 of 0 skipped is 0.
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let n = guided.len() as u64;
    let m = &mut out.metrics;
    m.put(
        "guided_month_p99_us",
        quantile(&month, 0.99),
        month.len() as u64,
    );
    m.put(
        "cps-storage.segment.bytes_read_per_query",
        sum(&|io| io.bytes_read) / n as f64,
        n,
    );
    m.put(
        "cps-storage.segment.bytes_decoded_per_query",
        sum(&|io| io.bytes_decoded) / n as f64,
        n,
    );
    m.put(
        "cps-storage.segment.chunks_skipped_ratio",
        ratio(
            sum(&|io| io.chunks_skipped),
            sum(&|io| io.chunks_skipped + io.blocks_read),
        ),
        n,
    );
    m.put(
        "cps-storage.segment.segments_skipped_ratio",
        ratio(sum(&|io| io.segments_skipped), sum(&|io| io.files_opened)),
        n,
    );
    stage_replay(ctx, tracer, handle, store, days, out)
}

fn day_micros(view: &ReadView, first: u32, n: u32) -> Result<Vec<AtypicalCluster>, String> {
    let mut micros = Vec::new();
    for day in first..first + n {
        let of_day = view
            .micro_clusters_for_day(day)
            .map_err(|e| format!("micro_clusters_for_day({day}): {e}"))?;
        micros.extend(of_day.iter().cloned());
    }
    Ok(micros)
}

/// `micro_clusters_for_day` against `ForestStore::load` on every sealed
/// day; and, on 5 seeded ranges of each kind, `query_guided` against
/// Algorithm 4 composed from `atypical`'s public functions over the days'
/// whole micro-cluster sets.
fn oracle(
    ctx: &Ctx,
    handle: &MonitorHandle,
    store: Option<&ForestStore>,
    days: u32,
    out: &mut Outcome,
) -> Result<(), String> {
    let dep = ctx.dep;
    let view = handle.read_view();
    if let Some(store) = store {
        for &day in view.snapshot().persisted_days.iter() {
            let served = view
                .micro_clusters_for_day(day)
                .map_err(|e| e.to_string())?;
            let loaded = store
                .load(ForestLevel::Day, day)
                .map_err(|e| format!("oracle: loading day {day}: {e}"))?
                .unwrap_or_default();
            out.checks.check(*served == loaded, || {
                format!("micro_clusters_for_day({day}) differs from ForestStore::load")
            });
        }
    }
    let mut rng = SplitMix64::new(ctx.seed, 4);
    for kind in Kind::GUIDED {
        for _ in 0..5 {
            let n = kind.span_days().min(days);
            let first = rng.below(days - n + 1);
            let micros = day_micros(&view, first, n)?;
            let candidates = micros.len();
            let zones = RedZones::compute(
                &micros,
                &dep.partition,
                &dep.params,
                dep.spec.day_range(first, n),
                dep.network.num_sensors() as u32,
            );
            let (kept, _) = zones.filter(micros, &dep.partition);
            let inputs = kept.len();
            let alignment = TimeAlignment::TimeOfDay {
                windows_per_day: dep.spec.windows_per_day(),
            };
            let (macros, _) = integrate_aligned(
                kept,
                &dep.params,
                alignment,
                &mut ClusterIdGen::new(QUERY_ID_BASE),
            );
            let served = view.query_guided(first, n).map_err(|e| e.to_string())?;
            let same = same_clusters(&served.macros, &macros)
                && served.num_red_regions == zones.num_red()
                && served.candidate_clusters == candidates
                && served.input_clusters == inputs;
            out.checks.check(same, || format!("query_guided({first}, {n}) differs from RedZones::compute + filter + integrate_aligned"));
        }
    }
    Ok(())
}

/// The stages of a guided query replayed one by one on seeded ranges,
/// each under its own child span, next to the whole query on the same
/// range — so the stage costs can be summed against it. The third stage
/// fetches the inputs the way the query does: `ForestStore::load_filtered`
/// under the red regions' sensor set for a sealed day, a filter over the
/// pinned snapshot's clusters for a live one.
fn stage_replay(
    ctx: &Ctx,
    tracer: &Tracer,
    handle: &MonitorHandle,
    store: Option<&ForestStore>,
    days: u32,
    out: &mut Outcome,
) -> Result<(), String> {
    let dep = ctx.dep;
    let samples = ctx.size.pick(40, 10);
    let alignment = TimeAlignment::TimeOfDay {
        windows_per_day: dep.spec.windows_per_day(),
    };
    let mut rng = SplitMix64::new(ctx.seed, 5);
    let err = |e: cps_core::CpsError| format!("stage replay: {e}");
    // A stage is a span; closing it gives its duration.
    let timed = |name: &'static str, parent, request| tracer.start(name, parent, request);
    let stop_us = |stage| tracer.end(stage) * 1e6;

    for kind in Kind::GUIDED {
        let (mut whole_us, mut stages_us, mut red_us, mut integrate_us, mut compute_us) =
            (0.0, 0.0, Vec::new(), Vec::new(), Vec::new());
        let (mut comparisons, mut pruned) = (0u64, 0u64);
        for request in 0..samples {
            let n = kind.span_days().min(days);
            let first = rng.below(days - n + 1);

            let t = timed("ReadView::query_guided", NO_PARENT, request);
            let served = handle.read_view().query_guided(first, n).map_err(err)?;
            whole_us += stop_us(t);

            let root = tracer.start("replay.guided", NO_PARENT, request);
            let t = timed("cps-serve.view.pin", root, request);
            let view = handle.read_view();
            let pin = stop_us(t);
            let t = timed("cps-serve.view.red_regions", root, request);
            let red = view.red_regions(first, n);
            let red_regions = stop_us(t);
            let t = timed("atypical.store.load_filtered", root, request);
            let mut is_red = vec![false; dep.partition.num_regions() as usize];
            for &(region, _) in &red {
                is_red[region.index()] = true;
            }
            let red_sensors = red
                .iter()
                .flat_map(|&(region, _)| dep.partition.sensors_in(region).iter().copied());
            let pred = Predicate::all().with_sensors(red_sensors);
            let mut inputs = Vec::new();
            for day in first..first + n {
                if let Some(live) = view.snapshot().micros_by_day.get(&day) {
                    inputs.extend(
                        live.iter()
                            .filter(|c| {
                                c.sf.keys()
                                    .any(|s| is_red[dep.partition.region_of(s).index()])
                            })
                            .cloned(),
                    );
                } else if let Some(filtered) = store
                    .map(|s| s.load_filtered(ForestLevel::Day, day, &pred))
                    .transpose()
                    .map_err(err)?
                    .flatten()
                {
                    inputs.extend(filtered.clusters);
                }
            }
            let load_filtered = stop_us(t);
            let t = timed("atypical.integrate.integrate_aligned", root, request);
            let (macros, stats) = integrate_aligned(
                inputs,
                &dep.params,
                alignment,
                &mut ClusterIdGen::new(QUERY_ID_BASE),
            );
            let integrate = stop_us(t);
            tracer.end(root);

            out.checks.check(served.macros == macros, || {
                format!(
                    "{}: the replayed stages over ({first}, {n}) differ from query_guided",
                    kind.name()
                )
            });
            stages_us += pin + red_regions + load_filtered + integrate;
            red_us.push(red_regions);
            integrate_us.push(integrate);
            comparisons += stats.comparisons;
            pruned += stats.candidates_pruned;

            if kind == Kind::GuidedMonth {
                // The non-incremental route to the same red zones.
                let micros = day_micros(&view, first, n)?;
                let t = timed("atypical.redzone.compute", NO_PARENT, request);
                black_box(RedZones::compute(
                    &micros,
                    &dep.partition,
                    &dep.params,
                    dep.spec.day_range(first, n),
                    dep.network.num_sensors() as u32,
                ));
                compute_us.push(stop_us(t));
            }
        }
        let m = &mut out.metrics;
        match kind {
            Kind::GuidedDay => m.put(
                "atypical.integrate.us_per_query_day",
                median(&integrate_us),
                samples,
            ),
            Kind::GuidedWeek => m.put(
                "atypical.integrate.us_per_query_week",
                median(&integrate_us),
                samples,
            ),
            _ => {
                m.put(
                    "atypical.integrate.us_per_query_month",
                    median(&integrate_us),
                    samples,
                );
                m.put("atypical.integrate.comparisons", comparisons as f64, 0);
                m.put("atypical.integrate.candidates_pruned", pruned as f64, 0);
                m.put("atypical.redzone.compute_us", median(&compute_us), samples);
                m.put("cps-serve.view.red_regions_us", median(&red_us), samples);
                m.put("bench.stage_sum_ratio_month", stages_us / whole_us, samples);
            }
        }
    }

    let pin_ns = ns_per_call(|| handle.read_view());
    out.metrics.put("cps-serve.view.pin_ns", pin_ns, NS_CALLS);
    Ok(())
}
