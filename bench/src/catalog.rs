//! The benchmark's fixed names: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` is this table
//! printed by `--print-manifest`; `--smoke` fails when the two disagree.

use serde::Value;
use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Workload {
    BackfillDurable,
    StreamLong,
    ServeMixed,
    ColdRange,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BackfillDurable,
        Workload::StreamLong,
        Workload::ServeMixed,
        Workload::ColdRange,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BackfillDurable => "backfill-durable",
            Workload::StreamLong => "stream-long",
            Workload::ServeMixed => "serve-mixed",
            Workload::ColdRange => "cold-range",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: the layers only this workload loads.
    pub fn why(self) -> &'static str {
        match self {
            Workload::BackfillDurable => "8 monthly datasets, each through a fresh WAL+snapshot service, then crash and recover: routing, extraction, WAL, checkpoint and segment writes do the work; live state stays small",
            Workload::StreamLong => "180 days through one volatile service: live macro-cluster maintenance and snapshot publication grow with state and dominate; shows whether ingest cost is linear in stream length",
            Workload::ServeMixed => "open-loop durable ingest at a sustainable rate beside one reader alternating cached dashboards and uncached drill-downs over live days and sealed segments",
            Workload::ColdRange => "reads only over a sealed 180-day archive, outside the program's caches: segment open, zone-map refute, chunk decode and query-time integration do the work",
        }
    }
}

/// One named metric. Every workload reports every metric on its own input:
/// the acceptance contract wants all end-to-end metrics in each untraced
/// run and all per-layer metrics in each traced run.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// Bound of every timing, the most the acceptance contract allows. The
/// reference host is a shared 2-core VM whose speed is not stationary: in a
/// calm hour the ten-seed quartile spread of a timing is 0.02–0.07 of its
/// median, but the same binary on the same seed has measured
/// `guided_month_p50_us` on `cold-range` at 4.85 ms, 6.90 ms and 5.42 ms
/// within one afternoon, and two ten-seed sets of `backfill-durable` half an
/// hour apart had medians of 0.94M and 1.84M rec/s. A tighter bound would
/// reject unchanged code whenever a neighbour wakes up; a change that
/// claims a gain is judged by alternating pairs, which cancel the drift.
const TIMING: f64 = 0.25;

/// A metric is end-to-end only if every workload measures it on its own
/// input, because every untraced run must report every one of them and is
/// held to its bound. What only some workloads can measure (`recovery_s`
/// and the byte counts need a durable service, which `stream-long` is not)
/// or what does not repeat within a bound (latencies under contention, the
/// tail) is a per-layer metric under the name ISSUE 12 gave it.
///
/// Every timing carries [`TIMING`]; memory repeats to a few percent
/// (widest ten-seed quartile spread 0.012) and keeps the ISSUE's 0.10.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, TIMING),
    e2e("ingest_rec_per_s", "1/s", true, TIMING),
    e2e("cpu_us_per_rec", "us", false, TIMING),
    e2e("peak_rss_mb", "MB", false, 0.1),
    e2e("guided_day_p50_us", "us", false, TIMING),
    e2e("guided_month_p50_us", "us", false, TIMING),
    e2e("micro_day_p50_us", "us", false, TIMING),
];

pub const PER_LAYER: &[MetricDef] = &[
    // Set-up: feed generation and batch building.
    layer("cps-sim.gen_rec_per_s", "1/s", true),
    layer("cps-core.batch_build_ns_per_rec", "ns", false),
    // The service seen from outside, per lifetime of the traced passes.
    layer("cps-monitor.start_ms", "ms", false),
    layer("cps-monitor.feed_s", "s", false),
    layer("cps-monitor.drain_s", "s", false),
    layer("cps-monitor.producer_cpu_s", "s", false),
    layer("cps-monitor.shard_cpu_s", "s", false),
    layer("cps-monitor.merger_cpu_s", "s", false),
    layer("cps-monitor.merger_busy_share", "ratio", false),
    layer("cps-monitor.queue_depth_max", "count", false),
    layer("cps-monitor.late_to_early_cost_ratio", "ratio", false),
    // Service counters of one lifetime (the first month on backfill-durable).
    layer("cps-monitor.events_sealed", "count", false),
    layer("cps-monitor.boundary_events", "count", false),
    layer("cps-monitor.cross_shard_merges", "count", false),
    layer("cps-monitor.micro_clusters", "count", false),
    layer("cps-monitor.snapshots_published", "count", false),
    layer("cps-monitor.integration_candidates_pruned", "count", true),
    layer("cps-monitor.integration_bound_skips", "count", true),
    layer("cps-monitor.checkpoints", "count", false),
    layer("cps-monitor.wal_appends", "count", false),
    layer("cps-monitor.days_persisted", "count", false),
    // What durability costs; 0 on stream-long, which writes neither.
    layer("wal_bytes_per_rec", "bytes", false),
    layer("store_bytes_per_cluster", "bytes", false),
    // The `ingest_batch` calls of the passes with tracing off, each timed
    // from when it was due; `finish()` after the last one.
    layer("admit_p50_us", "us", false),
    layer("cps-monitor.ingest_call_p99_us", "us", false),
    layer("cps-monitor.ingest_call_max_ms", "ms", false),
    layer("bench.producer_late_p99_us", "us", false),
    layer("bench.records_sent_late", "count", false),
    layer("bench.drain_backlog_ms", "ms", false),
    // Layer replay: the run's own feed through each layer's public functions.
    layer("cps-monitor.shard.route_ns_per_rec", "ns", false),
    layer("atypical.online.extract_rec_per_s", "1/s", true),
    layer("atypical.online.events_sealed", "count", false),
    layer(
        "atypical.integrate_index.admit_us_first_decile",
        "us",
        false,
    ),
    layer("atypical.integrate_index.admit_us_last_decile", "us", false),
    layer("atypical.integrate_index.candidates_pruned", "count", true),
    layer("atypical.integrate_index.comparisons", "count", false),
    layer("cps-serve.epoch.publish_ns", "ns", false),
    layer("cps-serve.epoch.publish_ns_30d", "ns", false),
    layer("cps-serve.epoch.load_ns", "ns", false),
    layer("cps-serve.epoch.load_ns_30d", "ns", false),
    layer("cps-monitor.durability.encode_ns_per_rec", "ns", false),
    layer("cps-monitor.durability.decode_ns_per_rec", "ns", false),
    layer("cps-storage.wal.append_us_p50", "us", false),
    layer("cps-storage.wal.sync_us_p50", "us", false),
    layer("cps-storage.wal.appends", "count", false),
    layer("cps-storage.wal.syncs", "count", false),
    layer("cps-storage.wal.read_mb_per_s", "MB/s", true),
    layer("cps-monitor.durability.checkpoint_load_ms", "ms", false),
    layer("cps-monitor.durability.checkpoint_bytes", "bytes", false),
    layer("recovery_s", "s", false),
    layer("cps-monitor.recover_replayed_records", "count", false),
    layer("atypical.store.save_us_per_day", "us", false),
    layer("cps-storage.store_bytes_per_day", "bytes", false),
    layer("atypical.store.load_us_per_day", "us", false),
    layer("atypical.store.load_filtered_us_per_day", "us", false),
    layer("cps-storage.segment.open_us", "us", false),
    // The query probe: I/O per guided query, then the stages of a guided
    // query replayed one by one on seeded ranges.
    layer("guided_month_p99_us", "us", false),
    layer("cps-storage.segment.bytes_read_per_query", "bytes", false),
    layer(
        "cps-storage.segment.bytes_decoded_per_query",
        "bytes",
        false,
    ),
    layer("cps-storage.segment.chunks_skipped_ratio", "ratio", true),
    layer("cps-storage.segment.segments_skipped_ratio", "ratio", true),
    layer("atypical.integrate.us_per_query_day", "us", false),
    layer("atypical.integrate.us_per_query_week", "us", false),
    layer("atypical.integrate.us_per_query_month", "us", false),
    layer("atypical.integrate.comparisons", "count", false),
    layer("atypical.integrate.candidates_pruned", "count", true),
    layer("atypical.redzone.compute_us", "us", false),
    layer("cps-serve.view.pin_ns", "ns", false),
    layer("cps-serve.view.red_regions_us", "us", false),
    layer("bench.stage_sum_ratio_month", "ratio", false),
    // Dashboards and drill-downs: beside the writes on serve-mixed, at
    // quiescence elsewhere.
    layer("dash_p50_us", "us", false),
    layer("drill_p50_us", "us", false),
    layer("cps-serve.dash_p99_us", "us", false),
    layer("cps-serve.drill_p99_us", "us", false),
    layer("cps-serve.query_max_ms", "ms", false),
    layer("cps-serve.cache.hit_ratio", "ratio", true),
    layer("cps-serve.cache.stale", "count", false),
    layer("cps-serve.cache.hit_ns", "ns", false),
    // Traced / untraced time of the workload's own timed part.
    layer("bench.trace_overhead_ratio", "ratio", false),
];

/// Metrics that count work rather than time it and that, for one seed,
/// must come out identical on every run of the same code. Three service
/// counters are left out because they do not: `snapshots_published`,
/// `integration_candidates_pruned` and `integration_bound_skips` (and the
/// store's byte count and cluster order with them, hence the query-time
/// `atypical.integrate.*` counts) depend on the order in which the two
/// shards' sealed events reach the merger, which is thread timing.
pub const EXACT_COUNTS: &[&str] = &[
    "wal_bytes_per_rec",
    "cps-monitor.events_sealed",
    "cps-monitor.boundary_events",
    "cps-monitor.cross_shard_merges",
    "cps-monitor.micro_clusters",
    "cps-monitor.checkpoints",
    "cps-monitor.wal_appends",
    "cps-monitor.days_persisted",
    "cps-monitor.recover_replayed_records",
    "atypical.online.events_sealed",
    "atypical.integrate_index.candidates_pruned",
    "atypical.integrate_index.comparisons",
    "cps-storage.wal.appends",
    "cps-storage.wal.syncs",
    "cps-storage.store_bytes_per_day",
    "cps-monitor.durability.checkpoint_bytes",
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Metric values of one run, keyed by catalog name.
#[derive(Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, Measured>);

#[derive(Clone, Copy)]
pub struct Measured {
    pub value: f64,
    /// Samples behind the value (timings state theirs); 0 for counts.
    pub samples: u64,
}

impl Metrics {
    /// Records `name`; a name missing from the catalog is a bug here. A
    /// value that could not be measured (not finite) is left out, and the
    /// run reports it missing.
    pub fn put(&mut self, name: &str, value: f64, samples: u64) {
        if !value.is_finite() {
            return;
        }
        let def = find(name).unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.0.insert(def.name, Measured { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line, restricted to `defs`.
    pub fn to_json(&self, defs: &[MetricDef]) -> Value {
        let entries = defs
            .iter()
            .filter_map(|d| {
                let m = self.0.get(d.name)?;
                let cell = Value::Object(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(d.unit.into())),
                ]);
                Some((d.name.to_string(), cell))
            })
            .collect();
        Value::Object(entries)
    }
}

/// `BENCHMARK.json`, built from the tables above.
pub fn manifest(run_seconds: u64) -> Value {
    let strings =
        |items: &[&str]| Value::Array(items.iter().map(|s| Value::Str((*s).into())).collect());
    let better = |d: &MetricDef| {
        Value::Str(
            if d.higher_is_better {
                "higher"
            } else {
                "lower"
            }
            .into(),
        )
    };
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            Value::Object(vec![
                ("name".into(), Value::Str(w.name().into())),
                ("why".into(), Value::Str(w.why().into())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|d| {
            Value::Object(vec![
                ("name".into(), Value::Str(d.name.into())),
                ("unit".into(), Value::Str(d.unit.into())),
                ("better".into(), better(d)),
                (
                    "bound".into(),
                    Value::F64(d.bound.expect("end-to-end metrics carry a bound")),
                ),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|d| {
            Value::Object(vec![
                ("name".into(), Value::Str(d.name.into())),
                ("unit".into(), Value::Str(d.unit.into())),
                ("better".into(), better(d)),
            ])
        })
        .collect();
    Value::Object(vec![
        (
            "command".into(),
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "bench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".into(), strings(&["bench"])),
        ("run_seconds".into(), Value::U64(run_seconds)),
        ("workloads".into(), Value::Array(workloads)),
        ("end_to_end".into(), Value::Array(end_to_end)),
        ("per_layer".into(), Value::Array(per_layer)),
    ])
}
