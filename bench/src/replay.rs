//! The layer replay of a traced run: the run's own generated inputs pushed
//! single-threaded through each layer's public functions, one layer at a
//! time, so each gets a cost of its own. Stages are child spans of one
//! `replay` span; fine-grained timings (per append, per admit) are taken
//! with local clock reads rather than spans.

use crate::catalog::Metrics;
use crate::feed::{Deployment, LifetimeFeed};
use crate::service::{feed_and_crash, monitor_config, SHARDS};
use crate::stats::{median, ns_per_call, NS_CALLS};
use crate::trace::{span, NO_PARENT};
use crate::workloads::Ctx;
use atypical::integrate::TimeAlignment;
use atypical::redzone::RedZones;
use atypical::store::{ForestLevel, ForestStore};
use atypical::{AtypicalCluster, IndexedIntegrator};
use cps_core::ids::ClusterIdGen;
use cps_core::{SensorId, Severity};
use cps_monitor::durability::{checkpoint_path, decode_entry, encode_batch_entry, load_checkpoint};
use cps_monitor::{MonitorService, ShardMap};
use cps_serve::{LiveSnapshot, SnapshotCell};
use cps_storage::wal::{read_wal, SyncPolicy, WalWriter};
use cps_storage::{Io, Predicate};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// First merge id of the replay's integrators: clear of the extractor's
/// micro-cluster ids, which count up from 1.
const MERGE_ID_BASE: u64 = 1 << 40;
/// `WalWriter` appends per fsync, as `FsyncPolicy::Group` at its default.
const APPENDS_PER_SYNC: usize = 256;
/// The durable probe: a checkpoint every 100,000 records and a crash after
/// 150,000, so `recover` loads one checkpoint and replays a 50,000-record
/// WAL suffix. Small enough for the shortest smoke feed.
const PROBE_CHECKPOINT_INTERVAL: u64 = 100_000;
const PROBE_RECORDS: usize = 150_000;

type DayMicros = BTreeMap<u32, Arc<Vec<AtypicalCluster>>>;

fn by_day(dep: &Deployment, micros: &[AtypicalCluster]) -> DayMicros {
    let mut days: BTreeMap<u32, Vec<AtypicalCluster>> = BTreeMap::new();
    for c in micros {
        days.entry(dep.spec.day_of(c.time_range().start))
            .or_default()
            .push(c.clone());
    }
    days.into_iter().map(|(d, v)| (d, Arc::new(v))).collect()
}

/// `reference[i]` holds lifetime `i`'s micro-clusters in seal order and the
/// seconds the single-threaded extractor took to produce them.
pub fn run(
    ctx: &Ctx,
    feeds: &[LifetimeFeed],
    reference: &[(Vec<AtypicalCluster>, f64)],
    m: &mut Metrics,
) -> Result<(), String> {
    let tracer = ctx
        .tracer
        .ok_or("the layer replay belongs to a traced run")?;
    let root = tracer.start("replay", NO_PARENT, 0);
    let stage = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
        span(Some(tracer), name, root, 0, f)
    };
    let last = reference.last().ok_or("no lifetime to replay")?;

    stage("replay.cps-monitor.shard.route", &mut || {
        route(ctx.dep, feeds, m);
        Ok(())
    })?;

    // The extractor ran as the oracle's reference; its time is the row.
    let records: usize = feeds.iter().map(|f| f.records.len()).sum();
    let extract_s: f64 = reference.iter().map(|r| r.1).sum();
    m.put(
        "atypical.online.extract_rec_per_s",
        records as f64 / extract_s,
        reference.len() as u64,
    );
    m.put(
        "atypical.online.events_sealed",
        reference.iter().map(|r| r.0.len()).sum::<usize>() as f64,
        0,
    );

    let mut last_integrator = None;
    stage("replay.atypical.integrate_index.admit", &mut || {
        last_integrator = Some(integrate_index(ctx.dep, reference, m));
        Ok(())
    })?;
    stage("replay.cps-serve.epoch", &mut || {
        let whole = last_integrator.as_ref().expect("the stage before set it");
        epoch(ctx.dep, &last.0, whole, "", m);
        let month: Vec<AtypicalCluster> = last
            .0
            .iter()
            .filter(|c| ctx.dep.spec.day_of(c.time_range().start) < 30)
            .cloned()
            .collect();
        let mut small = IndexedIntegrator::new(&ctx.dep.params, TimeAlignment::Absolute);
        let mut ids = ClusterIdGen::new(MERGE_ID_BASE);
        for c in &month {
            small.admit(c.clone(), &mut ids);
        }
        epoch(ctx.dep, &month, &small, "_30d", m);
        Ok(())
    })?;
    stage("replay.durability+wal", &mut || wal(ctx, feeds, m))?;
    stage("replay.checkpoint+recover", &mut || {
        durable_probe(ctx, &feeds[0], m)
    })?;
    stage("replay.atypical.store", &mut || store(ctx, &last.0, m))?;
    tracer.end(root);
    Ok(())
}

/// `ShardMap::shard_of` + `is_boundary` for every record of the feed.
fn route(dep: &Deployment, feeds: &[LifetimeFeed], m: &mut Metrics) {
    let map = ShardMap::build(&dep.network, SHARDS, dep.params.delta_d_miles);
    let begin = Instant::now();
    let (mut acc, mut records) = (0usize, 0usize);
    for r in feeds.iter().flat_map(|f| &f.records) {
        acc += map.shard_of(r.sensor) + usize::from(map.is_boundary(r.sensor));
        records += 1;
    }
    black_box(acc);
    m.put(
        "cps-monitor.shard.route_ns_per_rec",
        begin.elapsed().as_secs_f64() * 1e9 / records as f64,
        1,
    );
}

/// `IndexedIntegrator::admit` of each lifetime's micro-clusters in seal
/// order, into a fresh integrator per lifetime as the services have.
/// Returns the last lifetime's integrator.
fn integrate_index(
    dep: &Deployment,
    reference: &[(Vec<AtypicalCluster>, f64)],
    m: &mut Metrics,
) -> IndexedIntegrator {
    let (mut firsts, mut lasts) = (Vec::new(), Vec::new());
    let (mut pruned, mut comparisons, mut admits) = (0u64, 0u64, 0u64);
    let mut last = None;
    for (micros, _) in reference {
        let mut integrator = IndexedIntegrator::new(&dep.params, TimeAlignment::Absolute);
        let mut ids = ClusterIdGen::new(MERGE_ID_BASE);
        let mut admit_us = Vec::with_capacity(micros.len());
        for c in micros {
            let c = c.clone();
            let begin = Instant::now();
            integrator.admit(c, &mut ids);
            admit_us.push(begin.elapsed().as_secs_f64() * 1e6);
        }
        let tenth = (admit_us.len() / 10).max(1);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        firsts.push(mean(&admit_us[..tenth]));
        lasts.push(mean(&admit_us[admit_us.len() - tenth..]));
        let stats = integrator.stats();
        pruned += stats.candidates_pruned;
        comparisons += stats.comparisons;
        admits += admit_us.len() as u64;
        last = Some(integrator);
    }
    m.put(
        "atypical.integrate_index.admit_us_first_decile",
        median(&firsts),
        admits / 10,
    );
    m.put(
        "atypical.integrate_index.admit_us_last_decile",
        median(&lasts),
        admits / 10,
    );
    m.put(
        "atypical.integrate_index.candidates_pruned",
        pruned as f64,
        0,
    );
    m.put(
        "atypical.integrate_index.comparisons",
        comparisons as f64,
        0,
    );
    last.expect("at least one lifetime")
}

/// Publishing and pinning a `LiveSnapshot` of the given state through a
/// `SnapshotCell`. One publication is what the merger does after an
/// admission: snapshot the macro set, share the day maps, swap the cell.
fn epoch(
    dep: &Deployment,
    micros: &[AtypicalCluster],
    integrator: &IndexedIntegrator,
    suffix: &str,
    m: &mut Metrics,
) {
    let micros_by_day = by_day(dep, micros);
    let regions = dep.partition.num_regions() as usize;
    let region_f_by_day: BTreeMap<u32, Arc<Vec<Severity>>> = micros_by_day
        .iter()
        .map(|(&day, clusters)| {
            let mut f = vec![Severity::ZERO; regions];
            for (sensor, severity) in clusters.iter().flat_map(|c| c.sf.iter()) {
                f[dep.partition.region_of(sensor).index()] += severity;
            }
            (day, Arc::new(f))
        })
        .collect();
    let persisted_days = Arc::new(BTreeSet::new());
    let cell = SnapshotCell::new(LiveSnapshot::empty());
    let publishes = if suffix.is_empty() { 50 } else { 200 };
    let mut publish_ns = Vec::with_capacity(publishes);
    for epoch in 1..=publishes as u64 {
        let begin = Instant::now();
        cell.publish(LiveSnapshot {
            epoch,
            seal_epoch: 0,
            micros_by_day: micros_by_day.clone(),
            region_f_by_day: region_f_by_day.clone(),
            macros: Arc::new(integrator.snapshot()),
            persisted_days: persisted_days.clone(),
        });
        publish_ns.push(begin.elapsed().as_secs_f64() * 1e9);
    }
    m.put(
        &format!("cps-serve.epoch.publish_ns{suffix}"),
        median(&publish_ns),
        publishes as u64,
    );
    let load_ns = ns_per_call(|| cell.load());
    m.put(
        &format!("cps-serve.epoch.load_ns{suffix}"),
        load_ns,
        NS_CALLS,
    );
}

/// Every batch of the feed through `encode_batch_entry` → `WalWriter`
/// (fsync every 256 appends) → `read_wal` → `decode_entry`.
fn wal(ctx: &Ctx, feeds: &[LifetimeFeed], m: &mut Metrics) -> Result<(), String> {
    let dir = ctx.work.dir("replay-wal")?;
    let io = Io::real();
    let err = |what: &str, e: cps_core::CpsError| format!("replay: {what}: {e}");
    let mut writer = WalWriter::open(
        io.clone(),
        dir.path(),
        SyncPolicy::Never,
        cps_monitor::DurabilityConfig::default().segment_bytes,
    )
    .map_err(|e| err("opening the WAL", e))?;
    let (mut encode_s, mut seq, mut records) = (0.0, 1u64, 0u64);
    let (mut append_us, mut sync_us) = (Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for batch in feeds.iter().flat_map(|f| &f.batches) {
        let begin = Instant::now();
        encode_batch_entry(seq, seq, batch.len() as u32, batch, &mut buf);
        encode_s += begin.elapsed().as_secs_f64();
        seq += batch.len() as u64;
        records += batch.len() as u64;
        let begin = Instant::now();
        writer.append(&buf).map_err(|e| err("append", e))?;
        append_us.push(begin.elapsed().as_secs_f64() * 1e6);
        if append_us.len() % APPENDS_PER_SYNC == 0 {
            let begin = Instant::now();
            writer.sync().map_err(|e| err("sync", e))?;
            sync_us.push(begin.elapsed().as_secs_f64() * 1e6);
        }
    }
    let begin = Instant::now();
    writer.sync().map_err(|e| err("sync", e))?;
    sync_us.push(begin.elapsed().as_secs_f64() * 1e6);
    drop(writer);

    let begin = Instant::now();
    let segments = read_wal(&io, dir.path()).map_err(|e| err("read_wal", e))?;
    let read_s = begin.elapsed().as_secs_f64();
    let bytes: usize = segments.iter().flat_map(|s| &s.entries).map(Vec::len).sum();
    let begin = Instant::now();
    let mut decoded = 0u64;
    for entry in segments.iter().flat_map(|s| &s.entries) {
        if let cps_monitor::durability::WalOp::Batch { records, .. } =
            decode_entry(entry).map_err(|e| err("decode_entry", e))?.op
        {
            decoded += records.len() as u64;
        }
    }
    let decode_s = begin.elapsed().as_secs_f64();
    if decoded != records {
        return Err(format!(
            "replay: the WAL gave back {decoded} of {records} records"
        ));
    }
    m.put(
        "cps-monitor.durability.encode_ns_per_rec",
        encode_s * 1e9 / records as f64,
        records,
    );
    m.put(
        "cps-monitor.durability.decode_ns_per_rec",
        decode_s * 1e9 / records as f64,
        records,
    );
    m.put(
        "cps-storage.wal.append_us_p50",
        median(&append_us),
        append_us.len() as u64,
    );
    m.put(
        "cps-storage.wal.sync_us_p50",
        median(&sync_us),
        sync_us.len() as u64,
    );
    m.put("cps-storage.wal.appends", append_us.len() as f64, 0);
    m.put("cps-storage.wal.syncs", sync_us.len() as f64, 0);
    m.put(
        "cps-storage.wal.read_mb_per_s",
        bytes as f64 / 1e6 / read_s,
        1,
    );
    Ok(())
}

/// A durable service fed [`PROBE_RECORDS`] records and crashed, so that
/// `load_checkpoint` reads a file the service itself wrote and `recover`
/// replays a known suffix — the only recovery a workload sees whose own
/// services are never killed.
fn durable_probe(ctx: &Ctx, feed: &LifetimeFeed, m: &mut Metrics) -> Result<(), String> {
    let dir = ctx.work.dir("replay-probe")?;
    let mc = monitor_config(ctx.dep, Some(dir.path()), PROBE_CHECKPOINT_INTERVAL);
    let mut fed = 0;
    let n_batches = feed
        .batches
        .iter()
        .take_while(|b| {
            let before = fed;
            fed += b.len();
            before < PROBE_RECORDS
        })
        .count();
    feed_and_crash(&mc, ctx.dep, feed, n_batches)?;
    let wal_dir = mc
        .durability
        .wal_dir
        .as_ref()
        .expect("the probe is durable");
    let loads: Vec<f64> = (0..5)
        .map(|_| {
            let begin = Instant::now();
            let doc = load_checkpoint(&Io::real(), wal_dir);
            let ms = begin.elapsed().as_secs_f64() * 1e3;
            doc.map(|d| d.map(|_| ms))
        })
        .collect::<Result<Option<Vec<f64>>, _>>()
        .map_err(|e| format!("replay: load_checkpoint: {e}"))?
        .ok_or("replay: the probe service wrote no checkpoint")?;
    let bytes = std::fs::metadata(checkpoint_path(wal_dir))
        .map_err(|e| format!("replay: checkpoint size: {e}"))?
        .len();
    m.put(
        "cps-monitor.durability.checkpoint_load_ms",
        median(&loads),
        loads.len() as u64,
    );
    m.put("cps-monitor.durability.checkpoint_bytes", bytes as f64, 0);
    let begin = Instant::now();
    let (service, report) = MonitorService::recover(&mc, ctx.dep.network.clone())?;
    let recovery_s = begin.elapsed().as_secs_f64();
    service.finish();
    // `backfill-durable` crashes and recovers as part of its rounds and
    // has reported its own.
    if m.get("recovery_s").is_none() {
        m.put("recovery_s", recovery_s, 1);
        m.put(
            "cps-monitor.recover_replayed_records",
            report.replayed_records as f64,
            0,
        );
    }
    Ok(())
}

/// The day buckets of `micros` through `ForestStore::save`, `load` and
/// `load_filtered` — once under a predicate no chunk admits, which costs a
/// segment open (header, zone-map directory, every chunk refuted, nothing
/// decoded), and once under the predicate a guided query over that one day
/// would push down.
fn store(ctx: &Ctx, micros: &[AtypicalCluster], m: &mut Metrics) -> Result<(), String> {
    let dep = ctx.dep;
    let dir = ctx.work.dir("replay-store")?;
    let err = |what: &str, e: cps_core::CpsError| format!("replay: {what}: {e}");
    let store = ForestStore::open(dir.path()).map_err(|e| err("opening the store", e))?;
    let days = by_day(dep, micros);
    let (mut save_us, mut bytes, mut open_us, mut load_us, mut filtered_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (&day, clusters) in &days {
        let begin = Instant::now();
        store
            .save(ForestLevel::Day, day, clusters)
            .map_err(|e| err("save", e))?;
        save_us.push(begin.elapsed().as_secs_f64() * 1e6);
        let path = store.bucket_path(ForestLevel::Day, day);
        bytes.push(
            std::fs::metadata(&path)
                .map_err(|e| format!("replay: bucket size: {e}"))?
                .len() as f64,
        );
    }
    let n_sensors = dep.network.num_sensors() as u32;
    let no_sensor = Predicate::all().with_sensors([SensorId::new(n_sensors)]);
    for (&day, clusters) in &days {
        let begin = Instant::now();
        let refuted = store
            .load_filtered(ForestLevel::Day, day, &no_sensor)
            .map_err(|e| err("load_filtered under a refuting predicate", e))?;
        open_us.push(begin.elapsed().as_secs_f64() * 1e6);
        if refuted.is_some_and(|f| !f.clusters.is_empty()) {
            return Err(format!(
                "replay: day {day} has clusters on a sensor the network lacks"
            ));
        }

        let begin = Instant::now();
        let loaded = store
            .load(ForestLevel::Day, day)
            .map_err(|e| err("load", e))?;
        load_us.push(begin.elapsed().as_secs_f64() * 1e6);
        if loaded.map_or(0, |l| l.len()) != clusters.len() {
            return Err(format!(
                "replay: day {day} loaded back with a different cluster count"
            ));
        }

        let zones = RedZones::compute(
            clusters,
            &dep.partition,
            &dep.params,
            dep.spec.day_range(day, 1),
            n_sensors,
        );
        let red_sensors = dep
            .partition
            .non_empty_regions()
            .filter(|(r, _)| zones.is_red(*r))
            .flat_map(|(_, s)| s.iter().copied());
        let pred = Predicate::all().with_sensors(red_sensors);
        let begin = Instant::now();
        black_box(
            store
                .load_filtered(ForestLevel::Day, day, &pred)
                .map_err(|e| err("load_filtered", e))?,
        );
        filtered_us.push(begin.elapsed().as_secs_f64() * 1e6);
    }
    let n = days.len() as u64;
    m.put("atypical.store.save_us_per_day", median(&save_us), n);
    m.put(
        "cps-storage.store_bytes_per_day",
        bytes.iter().sum::<f64>() / n as f64,
        0,
    );
    m.put("cps-storage.segment.open_us", median(&open_us), n);
    m.put("atypical.store.load_us_per_day", median(&load_us), n);
    m.put(
        "atypical.store.load_filtered_us_per_day",
        median(&filtered_us),
        n,
    );
    Ok(())
}
