//! `cold-range`: reads only. Set-up ingests 180 days durably and calls
//! `finish()`, so every day is a sealed `.acs` segment and nothing is
//! live. The timed part is the query probe ([`super::probe`]), at least 120
//! rounds of it. "Cold" means outside the program's own caches: a fresh
//! view per query and no result cache; the segments (about 1 MB) stay in
//! the OS page cache. Segment open, zone-map refute, chunk decode and
//! query-time `integrate_aligned` do all the work; ingest layers do none
//! after set-up.

use super::{probe, set_up, Ctx, Outcome};
use crate::feed::LifetimeFeed;
use crate::oracle::{reference_micros, same_clusters, service_micros};
use crate::replay;
use crate::service::{
    monitor_config, put_call_layers, put_durable_sizes, put_ingest_rates, put_lifetime_layers,
    run_lifetime,
};
use atypical::store::ForestStore;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let days = ctx.size.pick(180, 30);
    let min_rounds = ctx.size.pick(120, 10);
    let mut out = Outcome::default();

    // Set-up: the feed, then the archive — one durable lifetime, which is
    // also this workload's one ingest: 180 days through a single service.
    let (feed, feed_s) = set_up(ctx, days, &mut out.metrics, LifetimeFeed::fixed_batches);
    let dir = ctx.work.dir("cold-archive")?;
    let mc = monitor_config(ctx.dep, Some(dir.path()), 0);
    let archive = run_lifetime(&mc, ctx.dep, &feed, ctx.tracer, 0)?;
    out.metrics.put("setup_s", feed_s + archive.wall_s, 1);
    put_ingest_rates(&mut out.metrics, &[std::slice::from_ref(&archive)]);
    out.attempted += archive.offered;
    out.failed += archive.failed();
    let handle = archive.handle();
    let sealed = handle.read_view().snapshot().persisted_days.len();
    out.checks.check(
        archive.snapshot.days_persisted as usize == sealed
            && handle.read_view().live_micro_clusters().is_empty(),
        || "the archive is not fully sealed after finish()".into(),
    );

    let rounds = probe::rounds(ctx, handle, days, min_rounds, ctx.seconds);

    let store = ForestStore::open(mc.snapshot_dir.as_ref().expect("the archive is durable"))
        .map_err(|e| format!("opening the archive: {e}"))?;
    probe::report(ctx, &rounds, handle, Some(&store), days, &mut out)?;
    let reference = reference_micros(ctx.dep, &feed)?;
    out.checks.check(
        same_clusters(&service_micros(handle)?, &reference.0),
        || "the archive's micro-clusters differ from one OnlineExtractor's".into(),
    );
    out.notes.push(format!(
        "archive: {} records, {} bytes in {sealed} segments",
        feed.records.len(),
        archive.snapshot.snapshot_bytes
    ));

    if ctx.tracer.is_some() {
        let m = &mut out.metrics;
        m.put(
            "bench.trace_overhead_ratio",
            rounds.trace_overhead_ratio(),
            rounds.traced_len() as u64,
        );
        // The archive build is the one lifetime, and it ran traced.
        put_lifetime_layers(m, &[&archive], 1);
        put_call_layers(m, &[&archive]);
        put_durable_sizes(m, std::slice::from_ref(&archive));
        super::serve::put_quiescent_reads(ctx, handle, days, &mut out)?;
        replay::run(
            ctx,
            std::slice::from_ref(&feed),
            std::slice::from_ref(&reference),
            &mut out.metrics,
        )?;
    }
    Ok(out)
}
