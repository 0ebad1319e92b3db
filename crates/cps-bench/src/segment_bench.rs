//! Columnar segment scan: predicate pushdown vs naive full decode.
//!
//! The `repro segment-scan` command persists the same simulated forest
//! through both [`ForestStore`] backends — the legacy row `.acf` buckets
//! (every load decodes the whole payload) and the columnar zone-mapped
//! `.acs` segments — then replays a query workload against each and
//! reports the I/O the zone maps saved: `bytes_decoded`,
//! `segments_skipped`, and `chunks_skipped` per cell, plus the
//! row-over-columnar decode reduction.
//!
//! ```text
//! repro segment-scan                  # seed-42 → BENCH_segments.json
//! repro segment-scan --days 3 --iters 1 --bench-out results/smoke.json
//! ```
//!
//! Two feed scenarios (uniform and hot-region-skewed — the security-log
//! shape where a small slice of the deployment produces most of the
//! volume) each run five query cells:
//!
//! * `guided-week` / `guided-day` — `cps-serve`'s [`ReadView::query_guided`]
//!   over sealed days: the red-region sensor set is pushed down as a
//!   [`Predicate`](cps_storage::Predicate), so these are the *selective
//!   guided queries* of the paper's online workload.
//! * `pru-range` — [`QueryEngine::execute_stored`] with [`Strategy::Pru`]
//!   over the whole range: the day-scale severity floor is pushed down.
//! * `gui-bbox` — a bbox-scoped guided query: the spatial scope is pushed
//!   down as a sensor-set predicate.
//! * `all-range` — [`Strategy::All`], no predicate: the control cell where
//!   pushdown cannot help and both backends decode everything.
//!
//! Every cell is **equality-gated before the artifact is written**: the
//! row and columnar answers must be byte-identical (macro ids included)
//! and must match the in-memory oracle, so a saved `BENCH_segments.json`
//! is also a correctness witness that pushdown never changed a result.

use atypical::pipeline::build_forest_from_records;
use atypical::store::{ForestStore, StoreBackend};
use atypical::{AtypicalForest, Query, QueryEngine, QueryResult, Strategy, QUERY_ID_BASE};
use cps_core::ids::ClusterIdGen;
use cps_core::{Params, ScratchDir, Severity, WindowSpec};
use cps_geo::grid::SensorPartition;
use cps_geo::{BoundingBox, RoadNetwork, UniformGrid};
use cps_serve::{LiveSnapshot, ReadView, ServeContext};
use cps_sim::{build_source, Domain, Scale, SimConfig, SourceConfig};
use cps_storage::{Io, IoSnapshot};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one `repro segment-scan` run.
#[derive(Clone, Debug)]
pub struct SegmentBenchConfig {
    /// Deployment scale of the simulated workload.
    pub scale: Scale,
    /// Event-source domain feeding the stores.
    pub source: Domain,
    /// Simulation seed.
    pub seed: u64,
    /// Sealed days persisted per scenario.
    pub days: u32,
    /// Repetitions per cell; best wall-clock is kept (the I/O counters
    /// are deterministic, so one delta represents them all).
    pub iters: u32,
    /// Fraction of sensors forming the simulator's hot region
    /// (traffic domain; ignored elsewhere).
    pub hot_region_ratio: f64,
    /// Extra event mass aimed at the hot region in the skewed scenario.
    pub hot_region_share: f64,
}

impl Default for SegmentBenchConfig {
    fn default() -> Self {
        Self {
            scale: Scale::Tiny,
            source: Domain::Traffic,
            seed: 42,
            days: 14,
            iters: 3,
            hot_region_ratio: 0.15,
            hot_region_share: 0.6,
        }
    }
}

/// One backend's cost for one query cell.
#[derive(Clone, Copy, Debug)]
pub struct BackendMeasure {
    /// Best wall-clock over the iterations, milliseconds.
    pub elapsed_ms: f64,
    /// Payload bytes read from disk.
    pub bytes_read: u64,
    /// Payload bytes CRC-checked and decoded into clusters.
    pub bytes_decoded: u64,
    /// Whole segments refuted by the zone-map rollup.
    pub segments_skipped: u64,
    /// Column chunks refuted by per-chunk zone maps.
    pub chunks_skipped: u64,
}

/// One (scenario, query) cell: the row baseline vs the columnar pushdown.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// `"uniform"` or `"hot-region"`.
    pub scenario: &'static str,
    /// Query label (`guided-week`, `pru-range`, …).
    pub query: &'static str,
    /// Whether the cell carries a selective predicate (the `all-range`
    /// control does not — pushdown cannot help it).
    pub selective: bool,
    /// Micro-clusters in range before strategy filtering (identical
    /// across backends by the equality gate).
    pub candidate_clusters: usize,
    /// Micro-clusters fed to integration.
    pub input_clusters: usize,
    /// Macro-clusters returned.
    pub macros: usize,
    /// The naive full-decode baseline (row `.acf` buckets).
    pub row: BackendMeasure,
    /// The zone-mapped pushdown path (columnar `.acs` segments).
    pub columnar: BackendMeasure,
    /// `row.bytes_decoded / columnar.bytes_decoded` (∞-safe: a columnar
    /// scan that decodes nothing divides by 1).
    pub decode_reduction: f64,
}

/// The whole artifact.
#[derive(Clone, Debug)]
pub struct SegmentBenchReport {
    /// Scenario × query matrix.
    pub cells: Vec<CellResult>,
    /// Whether every cell's row/columnar/in-memory answers agreed
    /// (the gates panic on mismatch, so a saved artifact always says
    /// `true`).
    pub equality_ok: bool,
    /// Largest decode reduction among the selective cells — the
    /// headline number.
    pub best_selective_reduction: f64,
}

/// Runs `f` `iters` times against `store`, keeping the best wall-clock;
/// the I/O delta is deterministic, so the last one stands for all.
fn measure<T>(store: &ForestStore, iters: u32, mut f: impl FnMut() -> T) -> (T, BackendMeasure) {
    let mut best_ms = f64::INFINITY;
    let mut io = IoSnapshot::default();
    let mut value = None;
    for _ in 0..iters.max(1) {
        let before = store.io_stats();
        let t = Instant::now();
        let v = f();
        best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
        io = store.io_stats().since(before);
        value = Some(v);
    }
    (
        value.expect("at least one iteration"),
        BackendMeasure {
            elapsed_ms: best_ms,
            bytes_read: io.bytes_read,
            bytes_decoded: io.bytes_decoded,
            segments_skipped: io.segments_skipped,
            chunks_skipped: io.chunks_skipped,
        },
    )
}

fn reduction(row: &BackendMeasure, col: &BackendMeasure) -> f64 {
    row.bytes_decoded as f64 / (col.bytes_decoded.max(1)) as f64
}

/// A [`ReadView`] pinned over a fully sealed store: every day persisted,
/// no live micro-clusters, and the per-day region `F` vectors the merger
/// would have published (recomputed from the forest's day leaves — the
/// same sums by distributivity, Property 4).
fn sealed_view(
    store: Arc<ForestStore>,
    forest: &AtypicalForest,
    partition: Arc<SensorPartition>,
    params: Params,
    spec: WindowSpec,
    num_sensors: u32,
    days: u32,
) -> ReadView {
    let mut region_f_by_day = BTreeMap::new();
    for day in 0..days {
        let mut f = vec![Severity::ZERO; partition.num_regions() as usize];
        for cluster in forest.day(day) {
            for (sensor, severity) in cluster.sf.iter() {
                f[partition.region_of(sensor).index()] += severity;
            }
        }
        region_f_by_day.insert(day, Arc::new(f));
    }
    let snapshot = LiveSnapshot {
        epoch: 1,
        seal_epoch: u64::from(days),
        micros_by_day: BTreeMap::new(),
        region_f_by_day,
        macros: Arc::new(Vec::new()),
        persisted_days: Arc::new((0..days).collect()),
    };
    let ctx = ServeContext {
        partition,
        params,
        spec,
        num_sensors,
        store: Some(store),
    };
    ReadView::new(Arc::new(snapshot), Arc::new(ctx))
}

/// Gate: the stored result must match the in-memory oracle's counts and
/// macro features (ids differ — the oracle consumes forest-local ids).
fn assert_matches_memory(tag: &str, stored: &QueryResult, mem: &QueryResult) {
    assert_eq!(
        stored.candidate_clusters, mem.candidate_clusters,
        "{tag}: stored candidates diverged from memory"
    );
    assert_eq!(
        stored.input_clusters, mem.input_clusters,
        "{tag}: stored inputs diverged from memory"
    );
    assert_eq!(
        stored.threshold, mem.threshold,
        "{tag}: stored threshold diverged from memory"
    );
    assert_eq!(
        stored.macros.len(),
        mem.macros.len(),
        "{tag}: stored macro count diverged from memory"
    );
    for (s, m) in stored.macros.iter().zip(&mem.macros) {
        assert_eq!(
            (&s.sf, &s.tf),
            (&m.sf, &m.tf),
            "{tag}: stored macro features diverged from memory"
        );
    }
}

fn print_cell(c: &CellResult) {
    eprintln!(
        "{:>10} {:>12}: decoded {:>9} B -> {:>9} B ({:>6.1}x), skipped {:>2} seg / {:>3} chunks, \
         {:>8.2} ms -> {:>8.2} ms",
        c.scenario,
        c.query,
        c.row.bytes_decoded,
        c.columnar.bytes_decoded,
        c.decode_reduction,
        c.columnar.segments_skipped,
        c.columnar.chunks_skipped,
        c.row.elapsed_ms,
        c.columnar.elapsed_ms,
    );
}

fn run_scenario(config: &SegmentBenchConfig, scenario: &'static str) -> Vec<CellResult> {
    // Domain-matched skew, exactly as the query-serving bench applies it.
    let base = SimConfig::new(config.scale, config.seed).with_domain(config.source);
    let sim = if scenario == "uniform" {
        build_source(base)
    } else {
        match config.source {
            Domain::Traffic => {
                build_source(base.with_hot_region(config.hot_region_ratio, config.hot_region_share))
            }
            Domain::Audit => {
                let mut knobs = SourceConfig::for_domain(Domain::Audit);
                knobs.hot_actor_share = config.hot_region_share;
                build_source(base.with_source(knobs))
            }
            Domain::Infrastructure | Domain::Battlefield => build_source(base),
        }
    };
    let network: &RoadNetwork = sim.network();
    let spec = sim.config().spec;
    // Trust filter off so every record lands in a persisted cluster —
    // the same setting as the conformance suite, and the one that
    // maximizes the stored volume the scan path has to contend with.
    let params = Params::paper_defaults().with_min_event_records(1);
    let days = config.days.max(1);

    let day_records = (0..days).map(|d| {
        let mut records = sim.atypical_day(d);
        records.sort_unstable_by_key(|r| (r.window, r.sensor));
        (d, records)
    });
    let mut built = build_forest_from_records(day_records, network, &params, spec);
    let partition = Arc::new(UniformGrid::over(network, 3.0).partition(network));
    let engine = QueryEngine::new(network, &partition, params);

    let mut stores = Vec::new();
    for backend in [StoreBackend::Row, StoreBackend::Columnar] {
        let dir = ScratchDir::new(&format!("bench-segment-{scenario}-{}", backend.name()));
        let store = Arc::new(
            ForestStore::open_with_backend(&dir, Io::real(), backend).expect("store opens"),
        );
        store
            .save_forest_days(&built.forest)
            .expect("forest persists");
        stores.push((store, dir));
    }
    let (row_store, col_store) = (&stores[0].0, &stores[1].0);
    let views: Vec<ReadView> = stores
        .iter()
        .map(|(store, _)| {
            sealed_view(
                store.clone(),
                &built.forest,
                partition.clone(),
                params,
                spec,
                network.num_sensors() as u32,
                days,
            )
        })
        .collect();
    let (row_view, col_view) = (&views[0], &views[1]);

    let mut cells = Vec::new();

    // Serve-path guided cells: the red-region sensor set is the predicate.
    let week_n = days.min(7);
    let guided = [
        ("guided-week", days - week_n, week_n),
        ("guided-day", days - 1, 1),
    ];
    for (label, first, n) in guided {
        let (row_result, row_m) = measure(row_store, config.iters, || {
            row_view.query_guided(first, n).expect("row guided query")
        });
        let (col_result, col_m) = measure(col_store, config.iters, || {
            col_view
                .query_guided(first, n)
                .expect("columnar guided query")
        });
        assert_eq!(
            row_result, col_result,
            "{scenario} {label}: pushdown changed the guided answer"
        );
        let cell = CellResult {
            scenario,
            query: label,
            selective: true,
            candidate_clusters: col_result.candidate_clusters,
            input_clusters: col_result.input_clusters,
            macros: col_result.macros.len(),
            decode_reduction: reduction(&row_m, &col_m),
            row: row_m,
            columnar: col_m,
        };
        print_cell(&cell);
        cells.push(cell);
    }

    // Engine cells: stored execution on both backends vs the in-memory
    // oracle. `all-range` is the unselective control.
    let whole = Query::days(0, days);
    let b = network.bbox();
    let bbox = BoundingBox {
        min_lat: b.min_lat,
        min_lon: b.min_lon,
        max_lat: b.min_lat + 0.5 * (b.max_lat - b.min_lat),
        max_lon: b.min_lon + 0.5 * (b.max_lon - b.min_lon),
    };
    let mut engine_cells = vec![
        ("pru-range", whole, Strategy::Pru, true),
        ("all-range", whole, Strategy::All, false),
    ];
    if network.sensors_in_bbox(&bbox).is_empty() {
        eprintln!("{scenario}: quarter bbox holds no sensors; skipping gui-bbox cell");
    } else {
        engine_cells.insert(1, ("gui-bbox", whole.in_bbox(bbox), Strategy::Gui, true));
    }
    for (label, query, strategy, selective) in engine_cells {
        let mem = engine.execute(&mut built.forest, &query, strategy);
        let (row_result, row_m) = measure(row_store, config.iters, || {
            let mut ids = ClusterIdGen::new(QUERY_ID_BASE);
            engine
                .execute_stored(row_store, spec, &query, strategy, &mut ids)
                .expect("row stored query")
        });
        let (col_result, col_m) = measure(col_store, config.iters, || {
            let mut ids = ClusterIdGen::new(QUERY_ID_BASE);
            engine
                .execute_stored(col_store, spec, &query, strategy, &mut ids)
                .expect("columnar stored query")
        });
        let tag = format!("{scenario} {label}");
        assert_eq!(
            row_result.macros, col_result.macros,
            "{tag}: pushdown changed the stored answer"
        );
        assert_eq!(
            row_result.candidate_clusters, col_result.candidate_clusters,
            "{tag}"
        );
        assert_eq!(
            row_result.input_clusters, col_result.input_clusters,
            "{tag}"
        );
        assert_matches_memory(&tag, &col_result, &mem);
        let cell = CellResult {
            scenario,
            query: label,
            selective,
            candidate_clusters: col_result.candidate_clusters,
            input_clusters: col_result.input_clusters,
            macros: col_result.macros.len(),
            decode_reduction: reduction(&row_m, &col_m),
            row: row_m,
            columnar: col_m,
        };
        print_cell(&cell);
        cells.push(cell);
    }

    cells
}

/// Runs both scenarios and their equality gates; prints one line per
/// cell. Panics on any row/columnar/in-memory divergence, so a returned
/// report is already verified.
pub fn run(config: &SegmentBenchConfig) -> SegmentBenchReport {
    let mut cells = Vec::new();
    for scenario in ["uniform", "hot-region"] {
        cells.extend(run_scenario(config, scenario));
    }
    let best_selective_reduction = cells
        .iter()
        .filter(|c| c.selective)
        .map(|c| c.decode_reduction)
        .fold(0.0, f64::max);
    eprintln!(
        "equality gates passed; best selective decode reduction: {best_selective_reduction:.1}x"
    );
    SegmentBenchReport {
        cells,
        equality_ok: true,
        best_selective_reduction,
    }
}

/// Writes the artifact (`BENCH_segments.json` at the repo root for the
/// standing record; `results/BENCH_segments_smoke.json` for CI).
pub fn save_json(
    report: &SegmentBenchReport,
    config: &SegmentBenchConfig,
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
    fn backend(m: &BackendMeasure) -> Value {
        obj(vec![
            ("elapsed_ms", Value::F64(m.elapsed_ms)),
            ("bytes_read", Value::U64(m.bytes_read)),
            ("bytes_decoded", Value::U64(m.bytes_decoded)),
            ("segments_skipped", Value::U64(m.segments_skipped)),
            ("chunks_skipped", Value::U64(m.chunks_skipped)),
        ])
    }
    let cells: Vec<Value> = report
        .cells
        .iter()
        .map(|c| {
            obj(vec![
                ("scenario", Value::Str(c.scenario.to_string())),
                ("query", Value::Str(c.query.to_string())),
                ("selective", Value::Bool(c.selective)),
                (
                    "candidate_clusters",
                    Value::U64(c.candidate_clusters as u64),
                ),
                ("input_clusters", Value::U64(c.input_clusters as u64)),
                ("macros", Value::U64(c.macros as u64)),
                ("row", backend(&c.row)),
                ("columnar", backend(&c.columnar)),
                ("decode_reduction", Value::F64(c.decode_reduction)),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("bench", Value::Str("segment-scan".to_string())),
        (
            "scale",
            Value::Str(format!("{:?}", config.scale).to_lowercase()),
        ),
        ("source", Value::Str(config.source.name().to_string())),
        ("seed", Value::U64(config.seed)),
        ("days", Value::U64(u64::from(config.days))),
        ("iters", Value::U64(u64::from(config.iters))),
        ("hot_region_ratio", Value::F64(config.hot_region_ratio)),
        ("hot_region_share", Value::F64(config.hot_region_share)),
        ("equality_ok", Value::Bool(report.equality_ok)),
        (
            "best_selective_reduction",
            Value::F64(report.best_selective_reduction),
        ),
        ("cells", Value::Array(cells)),
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

    #[test]
    fn tiny_run_gates_equality_and_saves() {
        let config = SegmentBenchConfig {
            days: 3,
            iters: 1,
            ..SegmentBenchConfig::default()
        };
        let report = run(&config);
        assert!(report.equality_ok);
        assert!(
            report.cells.len() >= 8,
            "2 scenarios x >=4 query cells, got {}",
            report.cells.len()
        );
        for c in &report.cells {
            assert!(
                c.row.bytes_decoded > 0,
                "{} {}: empty baseline",
                c.scenario,
                c.query
            );
            assert!(
                c.columnar.bytes_decoded <= c.columnar.bytes_read,
                "{} {}: decoded more than read",
                c.scenario,
                c.query
            );
            assert!(c.decode_reduction > 0.0);
        }
        // The unselective control must exist and cannot skip anything.
        let control = report
            .cells
            .iter()
            .find(|c| c.query == "all-range")
            .expect("control cell");
        assert_eq!(control.columnar.segments_skipped, 0);
        assert_eq!(control.columnar.chunks_skipped, 0);

        let dir = ScratchDir::new("bench-segment-test");
        let path = dir.join("BENCH_segments_test.json");
        save_json(&report, &config, &path).expect("save json");
        let text = std::fs::read_to_string(&path).expect("read back");
        let doc: serde::Value = serde_json::from_str(&text).expect("valid json");
        let entries = doc.as_object().expect("top-level object");
        assert_eq!(
            serde::get_field(entries, "equality_ok"),
            &serde::Value::Bool(true)
        );
        assert_eq!(
            serde::get_field(entries, "cells")
                .as_array()
                .expect("cells array")
                .len(),
            report.cells.len()
        );
    }
}
