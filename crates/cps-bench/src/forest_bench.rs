//! Standing perf trajectory for the deterministic parallel forest
//! engine: leaf construction + week/month roll-ups at a sweep of thread
//! counts.
//!
//! The `repro forest` command builds the same simulated workload at every
//! requested thread count, asserts the results are **bit-identical** to
//! the sequential build (day leaves, week and month levels, merge ids,
//! integration stats — the differential suite proves it per-seed, the
//! bench re-checks it at scale on every run), and writes one JSON
//! artifact so successive commits can be compared:
//!
//! ```text
//! repro forest                                  # seed-42 → BENCH_forest.json
//! repro forest --days 10 --threads 1,4 --iters 1 --bench-out results/smoke.json
//! ```
//!
//! The artifact records `host_cpus`: wall-clock speedup is only
//! meaningful when the host actually has more than one core — on a
//! single-core container every thread count time-slices one CPU and the
//! sweep degenerates to an overhead measurement (the bit-identity checks
//! still run in full).

use atypical::forest::MaterializedLevels;
use atypical::integrate::IntegrationStats;
use atypical::pipeline::{build_forest_from_records_parallel, ConstructionStats};
use atypical::AtypicalCluster;
use cps_core::{AtypicalRecord, Params};
use cps_sim::{build_source, Domain, Scale, SimConfig, Source};
use std::path::Path;
use std::time::Instant;

/// Configuration of one `repro forest` run.
#[derive(Clone, Debug)]
pub struct ForestBenchConfig {
    /// Deployment scale of the simulated workload.
    pub scale: Scale,
    /// Event-source domain feeding the build.
    pub source: Domain,
    /// Simulation seed.
    pub seed: u64,
    /// Days of records (also fixes which week/month levels materialize).
    pub days: u32,
    /// Thread counts to sweep; `1` is always added as the baseline.
    pub threads: Vec<usize>,
    /// Timed repetitions per thread count; the minimum is reported.
    pub iters: u32,
}

impl Default for ForestBenchConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Tiny,
            source: Domain::Traffic,
            seed: 42,
            days: 30,
            threads: vec![1, 2, 4, 8],
            iters: 3,
        }
    }
}

/// Timings for one thread count.
#[derive(Clone, Copy, Debug)]
pub struct ThreadResult {
    /// Worker threads used.
    pub threads: usize,
    /// Best-of-`iters` leaf construction (Algorithm 1 per day), ms.
    pub leaf_ms: f64,
    /// Best-of-`iters` week+month roll-up materialization, ms.
    pub rollup_ms: f64,
}

impl ThreadResult {
    /// Leaves + roll-ups.
    pub fn total_ms(&self) -> f64 {
        self.leaf_ms + self.rollup_ms
    }
}

/// Everything the engine must reproduce bit-for-bit: leaves, levels
/// (ids included) and the accumulated counters.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    days: Vec<Vec<AtypicalCluster>>,
    weeks: Vec<Vec<AtypicalCluster>>,
    months: Vec<Vec<AtypicalCluster>>,
    levels: MaterializedLevels,
    construction: ConstructionStats,
    integration: IntegrationStats,
}

/// One timed build: leaves in parallel, then the week/month waves.
fn build_once(
    day_records: &[(u32, Vec<AtypicalRecord>)],
    sim: &dyn Source,
    threads: usize,
) -> (Fingerprint, f64, f64) {
    let params = Params::paper_defaults().with_parallelism(threads);
    let spec = sim.config().spec;
    let n_days = day_records.len() as u32;

    let start = Instant::now();
    let built = build_forest_from_records_parallel(
        day_records.to_vec(),
        sim.network(),
        &params,
        spec,
        threads,
    );
    let leaf_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut forest = built.forest;
    let start = Instant::now();
    let levels = forest.materialize_range(0, n_days);
    let rollup_ms = start.elapsed().as_secs_f64() * 1e3;

    let fingerprint = Fingerprint {
        days: (0..n_days).map(|d| forest.day(d).to_vec()).collect(),
        weeks: levels
            .weeks
            .iter()
            .map(|&w| forest.week(w).to_vec())
            .collect(),
        months: levels
            .months
            .iter()
            .map(|&m| forest.month(m).to_vec())
            .collect(),
        levels,
        construction: built.stats,
        integration: forest.integration_stats(),
    };
    (fingerprint, leaf_ms, rollup_ms)
}

/// Runs the sweep, asserting bit-identity against the sequential build at
/// every thread count. Returns the per-thread timings.
pub fn run(config: &ForestBenchConfig) -> Vec<ThreadResult> {
    let sim = build_source(SimConfig::new(config.scale, config.seed).with_domain(config.source));
    let day_records: Vec<(u32, Vec<AtypicalRecord>)> =
        (0..config.days).map(|d| (d, sim.atypical_day(d))).collect();

    let mut sweep: Vec<usize> = std::iter::once(1)
        .chain(config.threads.iter().copied())
        .collect();
    sweep.sort_unstable();
    sweep.dedup();

    let (baseline, _, _) = build_once(&day_records, sim.as_ref(), 1);
    sweep
        .iter()
        .map(|&threads| {
            let mut best_leaf = f64::INFINITY;
            let mut best_rollup = f64::INFINITY;
            for _ in 0..config.iters.max(1) {
                let (fingerprint, leaf_ms, rollup_ms) =
                    build_once(&day_records, sim.as_ref(), threads);
                assert_eq!(
                    fingerprint, baseline,
                    "parallel build diverged at {threads} threads (seed {})",
                    config.seed
                );
                best_leaf = best_leaf.min(leaf_ms);
                best_rollup = best_rollup.min(rollup_ms);
            }
            let r = ThreadResult {
                threads,
                leaf_ms: best_leaf,
                rollup_ms: best_rollup,
            };
            eprintln!(
                "forest {:>2} threads: leaves {:>8.2} ms, roll-ups {:>8.2} ms (bit-identical)",
                r.threads, r.leaf_ms, r.rollup_ms,
            );
            r
        })
        .collect()
}

/// Writes the artifact (`BENCH_forest.json` at the repo root for the
/// standing record; `results/BENCH_forest_smoke.json` for CI).
pub fn save_json(
    results: &[ThreadResult],
    config: &ForestBenchConfig,
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
    let baseline_ms = results
        .iter()
        .find(|r| r.threads == 1)
        .map_or(f64::INFINITY, ThreadResult::total_ms);
    let threads: Vec<Value> = results
        .iter()
        .map(|r| {
            let speedup = if r.total_ms() > 0.0 {
                baseline_ms / r.total_ms()
            } else {
                f64::INFINITY
            };
            obj(vec![
                ("threads", Value::U64(r.threads as u64)),
                ("leaf_ms", Value::F64(r.leaf_ms)),
                ("rollup_ms", Value::F64(r.rollup_ms)),
                ("total_ms", Value::F64(r.total_ms())),
                ("speedup_vs_sequential", Value::F64(speedup)),
            ])
        })
        .collect();
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let doc = obj(vec![
        ("bench", Value::Str("forest".to_string())),
        (
            "scale",
            Value::Str(format!("{:?}", config.scale).to_lowercase()),
        ),
        ("source", Value::Str(config.source.name().to_string())),
        ("seed", Value::U64(config.seed)),
        ("days", Value::U64(u64::from(config.days))),
        ("iters", Value::U64(u64::from(config.iters))),
        // Speedup is bounded by the host: on a 1-CPU container the sweep
        // only demonstrates bit-identity, not scaling.
        ("host_cpus", Value::U64(host_cpus as u64)),
        ("bit_identical", Value::Bool(true)),
        ("threads", Value::Array(threads)),
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
    use cps_core::ScratchDir;

    #[test]
    fn tiny_sweep_is_bit_identical_and_saves() {
        let config = ForestBenchConfig {
            scale: Scale::Tiny,
            source: Domain::Traffic,
            seed: 9,
            days: 8,
            threads: vec![1, 3],
            iters: 1,
        };
        // `run` itself asserts bit-identity at every thread count.
        let results = run(&config);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].threads, 1);
        assert_eq!(results[1].threads, 3);

        let dir = ScratchDir::new("bench-forest");
        let path = dir.join("BENCH_forest_test.json");
        save_json(&results, &config, &path).expect("save json");
        let text = std::fs::read_to_string(&path).expect("read back");
        let doc: serde::Value = serde_json::from_str(&text).expect("valid json");
        let entries = doc.as_object().expect("top-level object");
        let threads = serde::get_field(entries, "threads")
            .as_array()
            .expect("threads array");
        assert_eq!(threads.len(), 2);
        assert!(matches!(
            serde::get_field(entries, "host_cpus"),
            serde::Value::U64(n) if *n >= 1
        ));
    }
}
