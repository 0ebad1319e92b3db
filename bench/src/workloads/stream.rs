//! `stream-long`: the first 180 days of the feed through one volatile
//! service (no WAL, no snapshot store), `start` → `finish` timed. Closed
//! loop, one producer. Storage does nothing; the merger's live
//! macro-cluster maintenance and per-cluster snapshot publication grow
//! with state and dominate, so this is the workload that shows whether
//! ingest cost is linear in stream length. Its query probe reads 180 live
//! days out of memory.

use super::{probe, repeat_passes, set_up, Ctx, Outcome};
use crate::feed::LifetimeFeed;
use crate::oracle::{reference_micros, same_clusters, service_micros};
use crate::replay;
use crate::service::{
    monitor_config, put_call_layers, put_durable_sizes, put_ingest_rates, put_lifetime_layers,
    run_lifetime, Lifetime, Pass,
};
use crate::stats::median;

/// Lifetimes a run times at least. One takes about 8 s, so `--seconds 10`
/// alone would time two and report their mean; the median of three shrugs
/// off one lifetime that met a slow phase of the host.
const MIN_LIFETIMES: usize = 3;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let days = ctx.size.pick(180, 30);
    let mut out = Outcome::default();

    let (feed, setup_s) = set_up(ctx, days, &mut out.metrics, LifetimeFeed::fixed_batches);
    out.metrics.put("setup_s", setup_s, 1);

    let mc = monitor_config(ctx.dep, None, 0);
    let mut first = run_lifetime(&mc, ctx.dep, &feed, None, 0)?;
    let rounds = probe::rounds(
        ctx,
        first.handle(),
        days,
        ctx.size.pick(probe::FIXED_ROUNDS, 3),
        0.0,
    );
    probe::report(ctx, &rounds, first.handle(), None, days, &mut out)?;
    let reference = reference_micros(ctx.dep, &feed)?;
    out.checks.check(
        same_clusters(&service_micros(first.handle())?, &reference.0),
        || "the service's micro-clusters differ from one OnlineExtractor's".into(),
    );
    if ctx.tracer.is_some() {
        super::serve::put_quiescent_reads(ctx, first.handle(), days, &mut out)?;
    }
    first.release();

    let passes = repeat_passes(ctx, first, MIN_LIFETIMES, |tracer, index| {
        run_lifetime(&mc, ctx.dep, &feed, tracer, index as u64)
    })?;
    let first = &passes.plain[0];
    for l in passes.plain.iter().chain(&passes.traced) {
        out.attempted += l.offered;
        out.failed += l.failed();
        let same = l.snapshot.events_sealed == first.snapshot.events_sealed
            && l.snapshot.micro_clusters == first.snapshot.micro_clusters;
        out.checks.check(same, || {
            "exact counts differ between two lifetimes over the same feed".into()
        });
    }
    put_ingest_rates(
        &mut out.metrics,
        &passes
            .plain
            .iter()
            .map(std::slice::from_ref)
            .collect::<Vec<_>>(),
    );
    out.notes.push(format!(
        "{} lifetime(s) over {} records ({days} days): {:.2?} s",
        passes.plain.len(),
        feed.records.len(),
        passes.plain.iter().map(|l| l.wall_s).collect::<Vec<_>>()
    ));

    if !passes.traced.is_empty() {
        let wall = |ls: &[Lifetime]| median(&ls.iter().map(|l| l.wall_s).collect::<Vec<_>>());
        let m = &mut out.metrics;
        m.put(
            "bench.trace_overhead_ratio",
            wall(&passes.traced) / wall(&passes.plain),
            passes.traced.len() as u64,
        );
        put_lifetime_layers(
            m,
            &passes.traced.iter().collect::<Vec<_>>(),
            passes.traced.len(),
        );
        put_call_layers(m, &passes.plain.iter().collect::<Vec<_>>());
        put_durable_sizes(m, std::slice::from_ref(first));
        replay::run(
            ctx,
            std::slice::from_ref(&feed),
            std::slice::from_ref(&reference),
            m,
        )?;
    }
    Ok(out)
}
