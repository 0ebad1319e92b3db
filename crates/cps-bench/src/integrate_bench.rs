//! Standing perf trajectory for Algorithm 3: naive scan vs the
//! inverted-index integrator on sparse, traffic-like synthetic inputs.
//!
//! The `repro integrate` command times both strategies at several input
//! sizes, asserts their outputs are bit-identical (the differential suite
//! proves it per-seed; the bench re-checks it at scale on every run), and
//! writes one JSON artifact so successive commits can be compared:
//!
//! ```text
//! repro integrate                       # 1k/5k/20k → BENCH_integrate.json
//! repro integrate --sizes 150,400 --iters 1 --bench-out results/smoke.json
//! ```
//!
//! Inputs are *sparse*: incident sites are spread over a sensor/window
//! space that grows with the input, so most cluster pairs share no key —
//! the regime the inverted indexes exploit (and the regime real
//! deployments live in: a day of city traffic produces incidents on a
//! tiny fraction of sensor pairs). A fraction of clusters revisit an
//! earlier site so merge cascades still occur.

use atypical::integrate::{
    integrate_aligned, integrate_aligned_naive, IntegrationStats, TimeAlignment,
};
use atypical::AtypicalCluster;
use cps_core::ids::ClusterIdGen;
use cps_core::{ClusterId, Params, SensorId, Severity, TimeWindow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;

/// Configuration of one `repro integrate` run.
#[derive(Clone, Debug)]
pub struct IntegrateBenchConfig {
    /// Input sizes (micro-cluster counts), each timed independently.
    pub sizes: Vec<usize>,
    /// Timed repetitions per size per strategy; the minimum is reported.
    pub iters: u32,
    /// Generator seed.
    pub seed: u64,
}

impl Default for IntegrateBenchConfig {
    fn default() -> Self {
        Self {
            sizes: vec![1_000, 5_000, 20_000],
            iters: 3,
            seed: 42,
        }
    }
}

/// Timings and integrator counters for one input size.
#[derive(Clone, Debug)]
pub struct SizeResult {
    /// Input micro-clusters.
    pub clusters: usize,
    /// Macro-clusters both strategies produced.
    pub macro_clusters: usize,
    /// Best-of-`iters` wall time of the naive scan, milliseconds.
    pub naive_ms: f64,
    /// Best-of-`iters` wall time of the indexed integrator, milliseconds.
    pub indexed_ms: f64,
    /// Counters from the naive run.
    pub naive_stats: IntegrationStats,
    /// Counters from the indexed run.
    pub indexed_stats: IntegrationStats,
}

impl SizeResult {
    /// Naive over indexed wall time.
    pub fn speedup(&self) -> f64 {
        if self.indexed_ms > 0.0 {
            self.naive_ms / self.indexed_ms
        } else {
            f64::INFINITY
        }
    }
}

/// Sparse synthetic micro-clusters: `n` clusters over `n / 4` incident
/// sites, each site owning a disjoint block of sensors and windows.
/// Clusters at the same site overlap heavily (they merge); clusters at
/// different sites share nothing (the indexes prune them).
pub fn sparse_clusters(n: usize, seed: u64) -> Vec<AtypicalCluster> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sites = (n / 4).max(1) as u32;
    (0..n)
        .map(|i| {
            let site = rng.gen_range(0..sites);
            // Disjoint 8-wide blocks per site; clusters cover a random
            // 3..=6-key span inside their site's block.
            let s_base = site * 8 + rng.gen_range(0..2);
            let w_base = site * 8 + rng.gen_range(0..2);
            let width = rng.gen_range(3..=6u32);
            let sf: Vec<(SensorId, Severity)> = (0..width)
                .map(|k| {
                    (
                        SensorId::new(s_base + k),
                        Severity::from_secs(rng.gen_range(60..1800)),
                    )
                })
                .collect();
            let total: u64 = sf.iter().map(|(_, s)| s.as_secs()).sum();
            // Spread the same total mass over the windows so the SF/TF
            // totals invariant holds.
            let per = total / u64::from(width);
            let mut tf: Vec<(TimeWindow, Severity)> = (0..width)
                .map(|k| (TimeWindow::new(w_base + k), Severity::from_secs(per)))
                .collect();
            let rem = total - per * u64::from(width);
            if rem > 0 {
                let last = tf.last_mut().expect("width >= 3");
                last.1 += Severity::from_secs(rem);
            }
            AtypicalCluster::new(
                ClusterId::new(i as u64),
                sf.into_iter().collect(),
                tf.into_iter().collect(),
            )
        })
        .collect()
}

/// One integration strategy: [`integrate_aligned`] or its naive reference.
type Strategy = fn(
    Vec<AtypicalCluster>,
    &Params,
    TimeAlignment,
    &mut ClusterIdGen,
) -> (Vec<AtypicalCluster>, IntegrationStats);

fn time_strategy(
    input: &[AtypicalCluster],
    strategy: Strategy,
    iters: u32,
) -> (Vec<AtypicalCluster>, IntegrationStats, f64) {
    let params = Params::paper_defaults();
    let mut best_ms = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters.max(1) {
        let mut ids = ClusterIdGen::new(1_000_000_000);
        let start = Instant::now();
        let result = strategy(input.to_vec(), &params, TimeAlignment::Absolute, &mut ids);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        best_ms = best_ms.min(ms);
        out = Some(result);
    }
    let (clusters, stats) = out.expect("at least one iteration");
    (clusters, stats, best_ms)
}

/// Runs the benchmark, asserting naive/indexed equivalence at every size.
pub fn run(config: &IntegrateBenchConfig) -> Vec<SizeResult> {
    config
        .sizes
        .iter()
        .map(|&n| {
            let input = sparse_clusters(n, config.seed);
            let (naive_out, naive_stats, naive_ms) =
                time_strategy(&input, integrate_aligned_naive, config.iters);
            let (indexed_out, indexed_stats, indexed_ms) =
                time_strategy(&input, integrate_aligned, config.iters);
            assert_eq!(
                naive_out, indexed_out,
                "strategies diverged at {n} clusters (seed {})",
                config.seed
            );
            assert_eq!(naive_stats.merges, indexed_stats.merges);
            let r = SizeResult {
                clusters: n,
                macro_clusters: naive_out.len(),
                naive_ms,
                indexed_ms,
                naive_stats,
                indexed_stats,
            };
            eprintln!(
                "integrate {:>7} clusters: naive {:>10.2} ms, indexed {:>9.2} ms ({:>6.1}x), {} macros",
                r.clusters,
                r.naive_ms,
                r.indexed_ms,
                r.speedup(),
                r.macro_clusters,
            );
            r
        })
        .collect()
}

/// Writes the artifact consumed by the perf trajectory
/// (`BENCH_integrate.json` at the repo root for the standing record;
/// `results/BENCH_integrate_smoke.json` for the CI smoke run).
pub fn save_json(
    results: &[SizeResult],
    config: &IntegrateBenchConfig,
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
    let sizes: Vec<Value> = results
        .iter()
        .map(|r| {
            obj(vec![
                ("clusters", Value::U64(r.clusters as u64)),
                ("macro_clusters", Value::U64(r.macro_clusters as u64)),
                ("naive_ms", Value::F64(r.naive_ms)),
                ("indexed_ms", Value::F64(r.indexed_ms)),
                ("speedup", Value::F64(r.speedup())),
                (
                    "naive",
                    obj(vec![
                        ("comparisons", Value::U64(r.naive_stats.comparisons)),
                        ("merges", Value::U64(r.naive_stats.merges)),
                    ]),
                ),
                (
                    "indexed",
                    obj(vec![
                        ("comparisons", Value::U64(r.indexed_stats.comparisons)),
                        ("merges", Value::U64(r.indexed_stats.merges)),
                        (
                            "candidates_pruned",
                            Value::U64(r.indexed_stats.candidates_pruned),
                        ),
                        ("bound_skips", Value::U64(r.indexed_stats.bound_skips)),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("bench", Value::Str("integrate".to_string())),
        ("seed", Value::U64(config.seed)),
        ("iters", Value::U64(u64::from(config.iters))),
        ("sizes", Value::Array(sizes)),
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
    fn sparse_clusters_are_valid_and_deterministic() {
        let a = sparse_clusters(64, 7);
        let b = sparse_clusters(64, 7);
        assert_eq!(a, b);
        for c in &a {
            assert_eq!(c.sf.total(), c.tf.total(), "SF/TF totals must agree");
        }
    }

    #[test]
    fn tiny_run_reports_equal_outputs_and_saves() {
        let config = IntegrateBenchConfig {
            sizes: vec![50, 120],
            iters: 1,
            seed: 9,
        };
        let results = run(&config);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.macro_clusters > 0 && r.macro_clusters <= r.clusters);
            assert!(r.indexed_stats.comparisons <= r.naive_stats.comparisons);
            assert!(
                r.indexed_stats.candidates_pruned > 0,
                "inputs must be sparse"
            );
        }
        let dir = ScratchDir::new("bench-integrate");
        let path = dir.join("BENCH_integrate_test.json");
        save_json(&results, &config, &path).expect("save json");
        let text = std::fs::read_to_string(&path).expect("read back");
        let doc: serde::Value = serde_json::from_str(&text).expect("valid json");
        let entries = doc.as_object().expect("top-level object");
        let sizes = serde::get_field(entries, "sizes")
            .as_array()
            .expect("sizes array");
        assert_eq!(sizes.len(), 2);
    }
}
