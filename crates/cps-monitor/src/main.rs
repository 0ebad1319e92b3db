//! `cps-monitor` binary: replay a simulated deployment day-by-day through
//! the sharded service and report metrics plus significant clusters.
//!
//! ```text
//! cps-monitor [--config FILE] [--scale tiny|small|medium|paper]
//!             [--source traffic|audit|infrastructure|battlefield]
//!             [--seed N] [--days N] [--shards N] [--capacity N]
//!             [--snapshot-dir DIR] [--wal-dir DIR] [--recover]
//! ```
//!
//! Flags override the config file, which overrides built-in defaults.
//! `--source` selects the event-source domain (per-domain knobs come
//! from the config file's `[source]` section); the replay feed, the
//! topology, and the atypicality criterion all follow the domain.
//!
//! `--wal-dir` turns on the durable ingest WAL (checkpoints and respawn
//! budgets come from the config file's `[durability]` section). After a
//! kill, rerun the same command with `--recover` added: the service
//! rebuilds from checkpoint + WAL replay and resumes the deterministic
//! feed at the exact record the durable state contains
//! ([`RecoveryReport::resume_from`]), so no record is lost or doubled.

use cps_core::RecordBatch;
use cps_monitor::{MonitorConfig, MonitorService, RecoveryReport};
use cps_sim::{build_source, Domain, Scale, SimConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    if let Err(e) = run() {
        eprintln!("cps-monitor: {e}");
        std::process::exit(1);
    }
}

fn parse_args(args: &[String]) -> Result<(MonitorConfig, bool), String> {
    let mut config = MonitorConfig::default();
    let mut recover = false;
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--config" => {
                config = MonitorConfig::load(&PathBuf::from(value(arg, &mut it)?))?;
            }
            "--scale" => config.replay.scale = value(arg, &mut it)?,
            "--source" => {
                let name = value(arg, &mut it)?;
                config.source.domain = Domain::parse(&name)
                    .ok_or_else(|| format!("--source: unknown domain {name:?}"))?;
            }
            "--seed" => {
                config.replay.seed = value(arg, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--days" => {
                config.replay.days = value(arg, &mut it)?
                    .parse()
                    .map_err(|e| format!("--days: {e}"))?;
            }
            "--shards" => {
                config.shards = value(arg, &mut it)?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
            }
            "--capacity" => {
                config.channel_capacity = value(arg, &mut it)?
                    .parse()
                    .map_err(|e| format!("--capacity: {e}"))?;
            }
            "--snapshot-dir" => {
                config.snapshot_dir = Some(PathBuf::from(value(arg, &mut it)?));
            }
            "--wal-dir" => {
                config.durability.wal_dir = Some(PathBuf::from(value(arg, &mut it)?));
            }
            "--recover" => recover = true,
            "--help" | "-h" => {
                println!(
                    "usage: cps-monitor [--config FILE] [--scale SCALE] [--source DOMAIN] \
                     [--seed N] [--days N] [--shards N] [--capacity N] [--snapshot-dir DIR] \
                     [--wal-dir DIR] [--recover]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if recover && config.durability.wal_dir.is_none() {
        return Err("--recover needs a WAL (--wal-dir or the config's durability.wal_dir)".into());
    }
    config.validate()?;
    Ok((config, recover))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut config, recover) = parse_args(&args)?;

    let scale = Scale::parse(&config.replay.scale)
        .ok_or_else(|| format!("unknown scale {:?}", config.replay.scale))?;
    let sim = build_source(SimConfig::new(scale, config.replay.seed).with_source(config.source));
    config.spec = sim.config().spec;
    let network = Arc::new(sim.network().clone());

    println!(
        "replaying {} day(s) of the {} domain at scale {:?} (seed {}) over {} sensors, {} shards",
        config.replay.days,
        sim.domain(),
        scale,
        config.replay.seed,
        network.num_sensors(),
        config.shards,
    );

    let (mut service, report): (MonitorService, Option<RecoveryReport>) = if recover {
        let (service, report) = MonitorService::recover(&config, network)?;
        println!(
            "recovered from {}: checkpoint seq {} ({}), {} WAL entries replayed \
             ({} records, {} torn tails repaired); feed resumes at record {}",
            config.durability.wal_dir.as_ref().unwrap().display(),
            report.checkpoint_seq,
            if report.had_checkpoint {
                "present"
            } else {
                "absent"
            },
            report.replayed_entries,
            report.replayed_records,
            report.repaired_tails,
            report.resume_from,
        );
        (service, Some(report))
    } else {
        (MonitorService::start(&config, network)?, None)
    };
    println!(
        "shard layout: sizes {:?}, {} boundary sensors",
        service.shard_map().shard_sizes(),
        service.shard_map().boundary_sensor_count(),
    );
    let handle = service.handle();

    // The replay feed is deterministic, so the recovery resume point is a
    // plain index into the concatenated day-by-day stream.
    let mut skip = report.as_ref().map_or(0, |r| r.resume_from);
    for day in 0..config.replay.days {
        let mut records = sim.atypical_day(day);
        records.sort_by_key(|r| (r.window, r.sensor));
        let day_len = records.len() as u64;
        if skip >= day_len {
            skip -= day_len;
            continue;
        }
        // One batch per window: the cadence a live feed delivers at.
        for window in records[skip as usize..].chunk_by(|a, b| a.window == b.window) {
            service
                .ingest_batch(&RecordBatch::from_records(window))
                .map_err(|e| format!("day {day}: {e}"))?;
        }
        skip = 0;
    }

    let metrics = service.finish();
    println!("\n{metrics}\n");

    // Query through the serving layer: the merger's final publication
    // makes the snapshot identical to the quiescent live state, and the
    // second identical query demonstrates the result cache.
    let serve = handle.serve();
    let result = serve
        .query_guided(0, config.replay.days)
        .map_err(|e| e.to_string())?;
    let _ = serve
        .query_guided(0, config.replay.days)
        .map_err(|e| e.to_string())?;
    println!(
        "guided query over day 0..{} (snapshot epoch {}): \
         {} candidates -> {} inputs via {} red regions",
        config.replay.days,
        serve.epoch(),
        result.candidate_clusters,
        result.input_clusters,
        result.num_red_regions,
    );
    let significant = result.significant();
    println!(
        "{} macro-cluster(s), {} significant (threshold {:.1} min):",
        result.macros.len(),
        significant.len(),
        result.threshold.as_minutes(),
    );
    for cluster in significant {
        println!("  {}", cluster.describe(config.spec));
    }
    let cache = serve.cache_stats();
    println!(
        "result cache: {} hits, {} misses, {} stale ({:.0}% hit rate, {} entries)",
        cache.hits,
        cache.misses,
        cache.stale,
        cache.hit_rate() * 100.0,
        cache.entries,
    );
    Ok(())
}
