//! `backfill-durable`: the paper's dataset shape. Eight monthly datasets,
//! each replayed through a fresh service with WAL, snapshot store and a
//! checkpoint every 300,000 records, ended with `finish()`; then the first
//! four months again into fresh durable services that are dropped without
//! `finish()` after 400,000 records, and `MonitorService::recover` is
//! timed. Closed loop, one producer. Live state stays small, so routing,
//! extraction, WAL encode/append/fsync, checkpoints and day-seal segment
//! writes are most of the cost. Its query probe reads the first month's
//! sealed archive.

use super::{probe, repeat_passes, set_up, Ctx, Outcome};
use crate::feed::{LifetimeFeed, BATCH_RECORDS, MONTH_DAYS};
use crate::oracle::{reference_micros, same_clusters, service_micros};
use crate::replay;
use crate::service::{
    feed_and_crash, monitor_config, put_call_layers, put_durable_sizes, put_ingest_rates,
    put_lifetime_layers, run_lifetime, Lifetime, Pass,
};
use crate::stats::median;
use crate::trace::{span, Tracer, NO_PARENT};
use crate::workdir::WorkDir;
use atypical::store::ForestStore;
use cps_core::RecordBatch;
use cps_monitor::{MonitorHandle, MonitorService};
use std::time::Instant;

const CHECKPOINT_INTERVAL_RECORDS: u64 = 300_000;
/// Records a month's service has taken when it is killed. Fixed, so that
/// every seed's recovery loads one checkpoint and replays the same 100,000
/// record WAL suffix: crashing at the month's end would make `recovery_s`
/// follow the month's record count modulo the checkpoint interval.
const CRASH_AFTER_RECORDS: usize = 400_000;

/// One pass over every month: the clean lifetimes, then the recoveries.
struct Round {
    /// The whole round, recoveries and their crashed feeds included.
    wall_s: f64,
    lifetimes: Vec<Lifetime>,
    recovery_s: Vec<f64>,
    replayed_records: u64,
    /// Quiescent recovered services, for the oracle.
    recovered: Vec<MonitorHandle>,
    /// Work directories the services still read sealed days from.
    dirs: Vec<WorkDir>,
}

impl Round {
    fn records(&self) -> u64 {
        self.lifetimes.iter().map(|l| l.offered).sum()
    }

    /// Summed `start` → `finish` time of the clean lifetimes.
    fn ingest_wall_s(&self) -> f64 {
        self.lifetimes.iter().map(|l| l.wall_s).sum()
    }
}

impl Pass for Round {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }

    fn release(&mut self) {
        self.lifetimes.iter_mut().for_each(Lifetime::release);
        self.recovered.clear();
        self.dirs.clear();
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (months, recover_months) = ctx.size.pick((8, 4), (1, 1));
    let mut out = Outcome::default();

    let (feeds, setup_s) = set_up(ctx, months * MONTH_DAYS, &mut out.metrics, |days| {
        days.chunks(MONTH_DAYS as usize)
            .map(LifetimeFeed::fixed_batches)
            .collect::<Vec<_>>()
    });
    out.metrics.put("setup_s", setup_s, 1);

    // `keep` (the first pass only): every month's quiescent service stays
    // for the probe and the oracle, and each recovered service is fed the
    // rest of its month, untimed, so the oracle can hold it against the
    // clean lifetime. Otherwise a service goes as soon as it has finished.
    let round = |tracer: Option<&Tracer>, index: usize, keep: bool| -> Result<Round, String> {
        let begin = Instant::now();
        let mut round = Round {
            wall_s: 0.0,
            lifetimes: Vec::new(),
            recovery_s: Vec::new(),
            replayed_records: 0,
            recovered: Vec::new(),
            dirs: Vec::new(),
        };
        let mut untimed_s = 0.0;
        for (month, feed) in feeds.iter().enumerate() {
            let dir = ctx.work.dir(&format!("backfill-m{month}"))?;
            let mc = monitor_config(ctx.dep, Some(dir.path()), CHECKPOINT_INTERVAL_RECORDS);
            let request = (index * feeds.len() + month) as u64;
            let mut lifetime = run_lifetime(&mc, ctx.dep, feed, tracer, request)?;
            if keep {
                round.dirs.push(dir);
            } else {
                lifetime.release();
            }
            round.lifetimes.push(lifetime);
        }
        for (month, feed) in feeds.iter().take(recover_months).enumerate() {
            let dir = ctx.work.dir(&format!("backfill-crash-m{month}"))?;
            let mc = monitor_config(ctx.dep, Some(dir.path()), CHECKPOINT_INTERVAL_RECORDS);
            let crash_after = feed
                .batches
                .len()
                .min(CRASH_AFTER_RECORDS.div_ceil(BATCH_RECORDS));
            feed_and_crash(&mc, ctx.dep, feed, crash_after)?;
            let begin = Instant::now();
            let (mut service, report) = span(
                tracer,
                "MonitorService::recover",
                NO_PARENT,
                month as u64,
                || MonitorService::recover(&mc, ctx.dep.network.clone()),
            )?;
            round.recovery_s.push(begin.elapsed().as_secs_f64());
            round.replayed_records += report.replayed_records;
            if keep {
                let begin = Instant::now();
                for rest in feed.records[report.resume_from as usize..].chunks(BATCH_RECORDS) {
                    service
                        .ingest_batch(&RecordBatch::from_records(rest))
                        .map_err(|e| format!("resuming month {month} after recovery: {e}"))?;
                }
                round.recovered.push(service.handle());
                untimed_s += begin.elapsed().as_secs_f64();
            }
            service.finish();
            if keep {
                round.dirs.push(dir);
            }
        }
        round.wall_s = begin.elapsed().as_secs_f64() - untimed_s;
        Ok(round)
    };

    let mut first = round(None, 0, true)?;
    let first_month = first.lifetimes[0].handle();
    let rounds = probe::rounds(
        ctx,
        first_month,
        MONTH_DAYS,
        ctx.size.pick(probe::FIXED_ROUNDS, 3),
        0.0,
    );
    let store = ForestStore::open(&first.dirs[0].path().join("snapshot"))
        .map_err(|e| format!("opening the first month's store: {e}"))?;
    probe::report(
        ctx,
        &rounds,
        first_month,
        Some(&store),
        MONTH_DAYS,
        &mut out,
    )?;
    // Every month against the single-threaded reference, and every
    // recovered month against its clean lifetime.
    let mut reference = Vec::new();
    for (month, (feed, lifetime)) in feeds.iter().zip(&first.lifetimes).enumerate() {
        let expect = reference_micros(ctx.dep, feed)?;
        let clean = service_micros(lifetime.handle())?;
        out.checks.check(same_clusters(&clean, &expect.0), || {
            format!("month {month}: the service's micro-clusters differ from one OnlineExtractor's")
        });
        if let Some(recovered) = first.recovered.get(month) {
            out.checks
                .check(same_clusters(&service_micros(recovered)?, &clean), || {
                    format!("month {month}: the recovered state differs from the clean lifetime's")
                });
        }
        reference.push(expect);
    }
    if ctx.tracer.is_some() {
        super::serve::put_quiescent_reads(ctx, first_month, MONTH_DAYS, &mut out)?;
    }
    first.release();

    let passes = repeat_passes(ctx, first, 1, |tracer, index| round(tracer, index, false))?;
    // Conservation and the counts every repeat of a month must reproduce.
    let first = &passes.plain[0];
    for r in passes.plain.iter().chain(&passes.traced) {
        out.attempted += r.records();
        out.failed += r.lifetimes.iter().map(Lifetime::failed).sum::<u64>();
        for (l, l0) in r.lifetimes.iter().zip(&first.lifetimes) {
            let (s, s0) = (&l.snapshot, &l0.snapshot);
            let same = s.events_sealed == s0.events_sealed
                && s.micro_clusters == s0.micro_clusters
                && s.wal_appends == s0.wal_appends
                && s.wal_bytes == s0.wal_bytes
                && s.checkpoints == s0.checkpoints
                && s.days_persisted == s0.days_persisted;
            out.checks.check(same, || format!("a month's exact counts differ between two lifetimes over the same feed:\n{s:?}\n{s0:?}"));
        }
    }

    let ingests: Vec<&[Lifetime]> = passes
        .plain
        .iter()
        .map(|r| r.lifetimes.as_slice())
        .collect();
    put_ingest_rates(&mut out.metrics, &ingests);
    let recoveries: Vec<f64> = passes
        .plain
        .iter()
        .flat_map(|r| r.recovery_s.iter().copied())
        .collect();
    out.notes.push(format!(
        "{} round(s) of {} lifetime(s) over {} records; {} recover samples",
        passes.plain.len(),
        feeds.len(),
        first.records(),
        recoveries.len()
    ));

    if !passes.traced.is_empty() {
        let wall = |rs: &[Round]| median(&rs.iter().map(Round::ingest_wall_s).collect::<Vec<_>>());
        let m = &mut out.metrics;
        m.put(
            "bench.trace_overhead_ratio",
            wall(&passes.traced) / wall(&passes.plain),
            passes.traced.len() as u64,
        );
        let traced: Vec<&Lifetime> = passes.traced.iter().flat_map(|r| &r.lifetimes).collect();
        put_lifetime_layers(m, &traced, passes.traced.len());
        let plain: Vec<&Lifetime> = passes.plain.iter().flat_map(|r| &r.lifetimes).collect();
        put_call_layers(m, &plain);
        put_durable_sizes(m, &first.lifetimes);
        m.put("recovery_s", median(&recoveries), recoveries.len() as u64);
        m.put(
            "cps-monitor.recover_replayed_records",
            first.replayed_records as f64 / recover_months as f64,
            0,
        );
        replay::run(ctx, &feeds, &reference, m)?;
    }
    Ok(out)
}
