//! Cross-domain conformance suite: one invariant matrix, every
//! registered event-source domain.
//!
//! The paper's algorithms consume nothing but atypical records
//! `(sensor, window, severity)` plus a topology, so every correctness
//! claim proven on the traffic generator must hold verbatim for any
//! other [`Source`] — the audit stream, the plant telemetry, the
//! battlefield lattice, and whatever comes next. This module is the
//! enforcement point: [`registry`] instantiates every [`Domain`] at a
//! small scale, and the `check_*` functions each replay one of the
//! repo's flagship differential suites against that domain's feed:
//!
//! * [`check_day_determinism`] — regenerating day `d` from the same
//!   seed is byte-identical (serialized [`cps_sim::SourceDay`], context streams
//!   included) across independently constructed sources;
//! * [`check_partition_merge`] — Properties 2–3: clustering any
//!   partition of a real day and merging the parts equals clustering
//!   the whole day at once;
//! * [`check_guided_query`] — Properties 4–5: the red-zone guided
//!   strategy loses no significant cluster against integrate-everything;
//! * [`check_cube_vs_clusters`] — the cube's distributive grand total
//!   equals the forest's day-level severity sum over identical records;
//! * [`check_indexed_vs_naive`] — indexed integration is bit-identical
//!   to the naive Algorithm 3 scan on the domain's micro-clusters;
//! * [`check_parallel_bit_identity`] — forest snapshots and cube
//!   cuboids are bit-identical at every [`thread_matrix`] setting
//!   (pin with `CPS_PAR_THREADS=1,4` as `scripts/ci.sh` does);
//! * [`check_batched_ingest`] — however the feed is cut into
//!   `ingest_batch` calls, the micro-clusters are one in-order
//!   extractor's, and on one shard the whole state is bit-identical;
//! * [`check_serve_paths`] — at quiescence the pinned read view and the
//!   cached serve handle answer every whole-day query exactly like the
//!   batch recomputation of [`reference_guided`];
//! * [`check_stored_equivalence`] — the storage axis: persisting the
//!   domain's forest through the
//!   [`ForestStore`](atypical::store::ForestStore) yields byte-identical
//!   day leaves, stored query results feature-identical to the in-memory
//!   engine for every strategy (so predicate pushdown can never change an
//!   answer), full guided recall, and the same cube==feed==forest
//!   severity total.
//!
//! A new domain gets all of this for free: implement [`Source`], add
//! the [`Domain`] variant, and the suite picks it up from
//! [`Domain::ALL`].

use crate::canonical::canonicalize;
use crate::fixtures::{cluster_from_records, temp_dir};
use crate::reference::reference_guided;
use atypical::eval::evaluate;
use atypical::integrate::{integrate_aligned, integrate_aligned_naive, TimeAlignment};
use atypical::online::OnlineExtractor;
use atypical::pipeline::build_forest_from_records;
use atypical::{AtypicalCluster, Query, QueryEngine, Strategy};
use cps_core::ids::ClusterIdGen;
use cps_core::measure::CountAndTotal;
use cps_core::{AtypicalRecord, ClusterId, Params, RecordBatch, Severity};
use cps_cube::{CellKey, SpatioTemporalCube, TemporalLevel};
use cps_geo::grid::RegionHierarchy;
use cps_geo::UniformGrid;
use cps_monitor::{MonitorConfig, MonitorHandle, MonitorService, OverflowPolicy};
use cps_sim::{build_source, Domain, Scale, SimConfig, Source};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Parallelism settings the conformance matrix compares against the
/// sequential baseline. `CPS_PAR_THREADS=n,n,...` pins the sweep.
pub fn thread_matrix() -> Vec<usize> {
    match std::env::var("CPS_PAR_THREADS") {
        Ok(text) => text
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("CPS_PAR_THREADS is not a thread list: {text:?}"))
            })
            .collect(),
        Err(_) => vec![1, 4],
    }
}

/// One domain instantiated for the conformance matrix: the source, its
/// resolved seed, and the pre-generated feed.
pub struct ConformanceCase {
    /// The domain under test.
    pub domain: Domain,
    /// Resolved simulation seed. Starts at the harness seed and is
    /// bumped (deterministically, at most 16 times) until the feed is
    /// non-empty — a quiet battlefield day must not vacuously pass.
    pub seed: u64,
    /// Whole days in the feed.
    pub days: u32,
    source: Box<dyn Source>,
    day_records: Vec<Vec<AtypicalRecord>>,
}

impl ConformanceCase {
    /// Instantiates one domain, bumping the seed until the feed has
    /// records.
    pub fn new(domain: Domain, base_seed: u64, days: u32) -> Self {
        for bump in 0..16u64 {
            let seed = base_seed.wrapping_add(bump);
            let source = build_source(SimConfig::new(Scale::Tiny, seed).with_domain(domain));
            let day_records: Vec<Vec<AtypicalRecord>> = (0..days)
                .map(|d| {
                    let mut records = source.atypical_day(d);
                    records.sort_unstable_by_key(|r| (r.window, r.sensor));
                    records
                })
                .collect();
            if day_records.iter().any(|d| !d.is_empty()) {
                return Self {
                    domain,
                    seed,
                    days,
                    source,
                    day_records,
                };
            }
        }
        panic!("{domain}: no seed near {base_seed} produced a non-empty {days}-day feed");
    }

    /// The source under test.
    pub fn source(&self) -> &dyn Source {
        self.source.as_ref()
    }

    /// Pre-processed records for one day, sorted by `(window, sensor)`.
    pub fn day(&self, day: u32) -> &[AtypicalRecord] {
        &self.day_records[day as usize]
    }

    /// The whole feed concatenated in ingest order (window-monotone).
    pub fn feed(&self) -> Vec<AtypicalRecord> {
        self.day_records.iter().flatten().copied().collect()
    }

    /// The `(day, records)` iterator the forest pipeline consumes.
    pub fn day_iter(&self) -> impl Iterator<Item = (u32, Vec<AtypicalRecord>)> + '_ {
        self.day_records
            .iter()
            .enumerate()
            .map(|(d, r)| (d as u32, r.clone()))
    }

    fn monitor_config(&self, shards: usize, parallelism: usize) -> MonitorConfig {
        MonitorConfig {
            shards,
            params: Params::paper_defaults().with_parallelism(parallelism),
            spec: self.source.config().spec,
            overflow: OverflowPolicy::Block,
            ..MonitorConfig::default()
        }
    }

    fn network_arc(&self) -> Arc<cps_geo::RoadNetwork> {
        Arc::new(self.source.network().clone())
    }
}

/// Instantiates every registered domain ([`Domain::ALL`]) at `days`
/// whole days from the harness seed.
pub fn registry(base_seed: u64, days: u32) -> Vec<ConformanceCase> {
    Domain::ALL
        .iter()
        .map(|&domain| ConformanceCase::new(domain, base_seed, days))
        .collect()
}

/// Determinism regression: generating day `d` twice — from two
/// *independently constructed* sources — is byte-identical, context
/// streams included, and so is the pre-processed atypical feed.
pub fn check_day_determinism(case: &ConformanceCase) {
    let config = SimConfig::new(Scale::Tiny, case.seed).with_domain(case.domain);
    let a = build_source(config.clone());
    let b = build_source(config);
    for day in 0..case.days {
        let day_a = a.generate_day(day);
        let day_b = b.generate_day(day);
        let bytes_a = serde_json::to_string(&day_a).expect("SourceDay serializes");
        let bytes_b = serde_json::to_string(&day_b).expect("SourceDay serializes");
        assert_eq!(
            bytes_a, bytes_b,
            "{}: day {day} is not byte-deterministic across source instances",
            case.domain
        );
        assert_eq!(
            a.atypical_day(day),
            b.atypical_day(day),
            "{}: day {day} atypical feed diverged",
            case.domain
        );
    }
}

/// Properties 2–3 on real domain records: clustering a random partition
/// of day 0 and merging the parts equals clustering the whole day.
pub fn check_partition_merge(case: &ConformanceCase) {
    let records: Vec<AtypicalRecord> = case
        .day_records
        .iter()
        .find(|d| !d.is_empty())
        .expect("registry guarantees a non-empty day")
        .clone();
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0x706d);
    let k = 4.min(records.len());
    let mut parts: Vec<Vec<AtypicalRecord>> = vec![Vec::new(); k];
    for (i, &r) in records.iter().enumerate() {
        let part = if i < k { i } else { rng.gen_range(0..k) };
        parts[part].push(r);
    }
    let whole = cluster_from_records(0, records);
    let merged = parts
        .into_iter()
        .enumerate()
        .map(|(i, part)| cluster_from_records(i as u64 + 1, part))
        .reduce(|acc, c| acc.merge(&c, ClusterId::new(99)))
        .expect("at least one part");
    assert_eq!(
        canonicalize(&[whole]),
        canonicalize(&[merged]),
        "{}: partition-and-merge diverged from recomputation",
        case.domain
    );
}

/// Properties 4–5: the guided strategy (Gui) keeps every significant
/// cluster the integrate-everything strategy (All) finds.
pub fn check_guided_query(case: &ConformanceCase) {
    let params = Params::paper_defaults();
    let network = case.source.network();
    let built =
        build_forest_from_records(case.day_iter(), network, &params, case.source.config().spec);
    let mut forest = built.forest;
    let partition = UniformGrid::over(network, 3.0).partition(network);
    let engine = QueryEngine::new(network, &partition, params);
    let query = Query::days(0, case.days);

    let all = engine.execute(&mut forest, &query, Strategy::All);
    let gui = engine.execute(&mut forest, &query, Strategy::Gui);
    let truth: Vec<AtypicalCluster> = all.significant().into_iter().cloned().collect();
    let truth_refs: Vec<&AtypicalCluster> = truth.iter().collect();
    let pr = evaluate(&gui, &truth_refs);
    assert_eq!(
        pr.recall, 1.0,
        "{}: Gui lost a significant cluster (seed {})",
        case.domain, case.seed
    );
}

/// Cube-vs-clusters equality: over the identical record multiset, the
/// cube's grand total matches both the raw feed and the forest's
/// day-level severity sum (trust filter off so both models see every
/// record).
pub fn check_cube_vs_clusters(case: &ConformanceCase) {
    let network = case.source.network();
    let spec = case.source.config().spec;
    let feed = case.feed();

    let hierarchy = RegionHierarchy::standard(network, 3.0, 3);
    let mut cube = SpatioTemporalCube::new(hierarchy, spec);
    for r in &feed {
        cube.add_atypical(r);
    }
    let grand = cube.grand_total();
    assert_eq!(grand.count, feed.len() as u64, "{}", case.domain);
    assert_eq!(
        grand.total,
        feed.iter().map(|r| r.severity).sum::<Severity>(),
        "{}",
        case.domain
    );

    let params = Params::paper_defaults().with_min_event_records(1);
    let built = build_forest_from_records(case.day_iter(), network, &params, spec);
    let forest_total: Severity = (0..case.days)
        .flat_map(|d| built.forest.day(d).iter())
        .map(|c| c.severity())
        .sum();
    assert_eq!(
        grand.total, forest_total,
        "{}: cube and forest totals disagree",
        case.domain
    );
    assert_eq!(built.stats.n_records, feed.len(), "{}", case.domain);
}

/// Indexed-vs-naive integration bit-identity on the domain's own
/// micro-clusters, under both time alignments.
pub fn check_indexed_vs_naive(case: &ConformanceCase) {
    let spec = case.source.config().spec;
    let params = Params::paper_defaults();
    let built = build_forest_from_records(case.day_iter(), case.source.network(), &params, spec);
    let micros = built.forest.micros_in_days(0, case.days);
    assert!(
        !micros.is_empty(),
        "{}: feed produced no micro-clusters",
        case.domain
    );
    for alignment in [
        TimeAlignment::Absolute,
        TimeAlignment::TimeOfDay {
            windows_per_day: spec.windows_per_day(),
        },
    ] {
        let mut naive_ids = ClusterIdGen::new(1_000_000);
        let mut indexed_ids = ClusterIdGen::new(1_000_000);
        let (naive, naive_stats) =
            integrate_aligned_naive(micros.clone(), &params, alignment, &mut naive_ids);
        let (indexed, indexed_stats) =
            integrate_aligned(micros.clone(), &params, alignment, &mut indexed_ids);
        assert_eq!(
            naive, indexed,
            "{} {alignment:?}: outputs are not bit-identical",
            case.domain
        );
        assert_eq!(
            naive_stats.merges, indexed_stats.merges,
            "{} {alignment:?}: merge counts diverge",
            case.domain
        );
        assert!(
            indexed_stats.comparisons <= naive_stats.comparisons,
            "{} {alignment:?}: the index must only skip evaluations",
            case.domain
        );
    }
}

/// The forest-snapshot state the parallel matrix compares, bit for bit.
type ForestDump = (
    Vec<Vec<AtypicalCluster>>,
    atypical::integrate::IntegrationStats,
    u64,
);

/// Parallel bit-identity: the monitor's forest snapshot (one shard, so
/// the micro-cluster feed is bit-stable) and every cube cuboid are
/// identical at each [`thread_matrix`] setting.
pub fn check_parallel_bit_identity(case: &ConformanceCase) {
    let network = case.network_arc();
    let feed = case.feed();

    let snapshot = |threads: usize| -> ForestDump {
        let config = case.monitor_config(1, threads);
        let mut service = MonitorService::start(&config, network.clone()).expect("service starts");
        let handle = service.handle();
        for &record in &feed {
            service.ingest(record).expect("window-monotone feed");
        }
        let metrics = service.finish();
        assert!(
            metrics.micro_clusters > 0,
            "{}: empty monitor run",
            case.domain
        );
        let mut forest = handle
            .forest_snapshot(0, case.days)
            .expect("snapshot materializes");
        let days: Vec<Vec<AtypicalCluster>> =
            (0..case.days).map(|d| forest.day(d).to_vec()).collect();
        (days, forest.integration_stats(), forest.id_gen().peek())
    };

    let hierarchy = RegionHierarchy::standard(case.source.network(), 3.0, 3);
    let spec = case.source.config().spec;
    let cuboids = |threads: usize| -> Vec<Vec<(CellKey, CountAndTotal)>> {
        let mut cube = SpatioTemporalCube::new(hierarchy.clone(), spec).with_parallelism(threads);
        for r in &feed {
            cube.add_atypical(r);
        }
        let mut dump = Vec::new();
        for s_level in 0..3 {
            for t_level in [TemporalLevel::Hour, TemporalLevel::Day] {
                dump.push(
                    cube.cuboid(s_level, t_level)
                        .iter()
                        .map(|(k, m)| (*k, *m))
                        .collect(),
                );
            }
        }
        dump
    };

    let sequential = (snapshot(1), cuboids(1));
    assert!(
        sequential.0 .0.iter().any(|d| !d.is_empty()),
        "{}: no day leaves",
        case.domain
    );
    for threads in thread_matrix() {
        assert_eq!(
            (snapshot(threads), cuboids(threads)),
            sequential,
            "{}: diverged at parallelism {threads}",
            case.domain
        );
    }
}

/// The full monitor state the batched differential compares: live
/// micro-clusters (IDs and finalization order), the live macro fixpoint
/// set, and the forest snapshot's day leaves.
type Fingerprint = (
    Vec<AtypicalCluster>,
    Vec<AtypicalCluster>,
    Vec<Vec<AtypicalCluster>>,
);

fn fingerprint(service: MonitorService, days: u32) -> Fingerprint {
    let handle = service.handle();
    service.finish();
    let forest = handle.forest_snapshot(0, days).expect("forest snapshot");
    let day_leaves = (0..days).map(|d| forest.day(d).to_vec()).collect();
    let view = handle.read_view();
    (
        view.live_micro_clusters(),
        view.live_macro_clusters().to_vec(),
        day_leaves,
    )
}

/// Batched-ingest differential: however the domain's feed is cut into
/// [`MonitorService::ingest_batch`] calls, the micro-clusters equal those
/// of one in-order [`OnlineExtractor`] (canonically, on one shard and on
/// four), and on one shard the whole fingerprint — ids, finalization
/// order, macro fixpoint, forest leaves — is the same at every batch
/// size, one record per call included.
pub fn check_batched_ingest(case: &ConformanceCase) {
    let network = case.network_arc();
    let feed = case.feed();

    let reference = {
        let config = case.monitor_config(1, 0);
        let mut extractor = OnlineExtractor::new(&network, config.params, config.spec);
        for &record in &feed {
            extractor.push(record).expect("window-monotone feed");
        }
        canonicalize(&extractor.finish())
    };
    let oracle_run = |shards: usize| -> Fingerprint {
        let config = case.monitor_config(shards, 0);
        let mut service = MonitorService::start(&config, network.clone()).expect("service starts");
        for &record in &feed {
            assert!(service.ingest(record).expect("window-monotone feed"));
        }
        fingerprint(service, case.days)
    };
    let batched_run = |shards: usize, batch_size: usize| -> Fingerprint {
        let config = case.monitor_config(shards, 0);
        let mut service = MonitorService::start(&config, network.clone()).expect("service starts");
        for chunk in feed.chunks(batch_size) {
            let accepted = service
                .ingest_batch(&RecordBatch::from_records(chunk))
                .expect("window-monotone feed");
            assert_eq!(accepted, chunk.len() as u64, "{}", case.domain);
        }
        fingerprint(service, case.days)
    };

    let oracle = oracle_run(1);
    assert_eq!(
        canonicalize(&oracle.0),
        reference,
        "{}: one record per call diverged from the single extractor",
        case.domain
    );
    for batch_size in [1, 64] {
        assert_eq!(
            batched_run(1, batch_size),
            oracle,
            "{} × batch {batch_size}: diverged from one record per call",
            case.domain
        );
    }
    for run in [oracle_run(4), batched_run(4, 64)] {
        assert_eq!(
            canonicalize(&run.0),
            reference,
            "{}: four-shard micro-cluster multiset diverged from the single extractor",
            case.domain
        );
    }
}

/// Quiescent serve-path differential: after `finish`, every whole-day
/// query through the pinned read view and the cached serve handle (two
/// rounds, so the second answer is cache-served) matches the batch
/// recomputation of [`reference_guided`] bit for bit.
pub fn check_serve_paths(case: &ConformanceCase) {
    let network = case.network_arc();
    let config = case.monitor_config(3, 0);
    let partition = UniformGrid::over(&network, config.red_cell_miles).partition(&network);
    let n_sensors = network.num_sensors() as u32;
    let mut service = MonitorService::start(&config, network).expect("service starts");
    let handle: MonitorHandle = service.handle();
    for record in case.feed() {
        assert!(service.ingest(record).expect("window-monotone feed"));
    }
    let metrics = service.finish();
    assert!(
        metrics.snapshots_published > 0,
        "{}: the merger must publish",
        case.domain
    );

    let serve = handle.serve();
    let view = handle.read_view();
    for first in 0..case.days {
        for n in 1..=(case.days - first) {
            let (red, guided) = reference_guided(
                &view,
                &partition,
                &config.params,
                config.spec,
                n_sensors,
                first,
                n,
            );
            let significant: Vec<AtypicalCluster> =
                guided.significant().into_iter().cloned().collect();
            assert_eq!(
                view.red_regions(first, n),
                red,
                "{}: red_regions({first},{n})",
                case.domain
            );
            assert_eq!(
                view.query_guided(first, n).expect("view query"),
                guided,
                "{}: query_guided({first},{n})",
                case.domain
            );
            assert_eq!(
                view.significant_clusters(first, n).expect("view query"),
                significant,
                "{}: significant_clusters({first},{n})",
                case.domain
            );
            for round in 0..2 {
                assert_eq!(
                    *serve.red_regions(first, n),
                    red,
                    "{}: cached red_regions({first},{n}) round {round}",
                    case.domain
                );
                assert_eq!(
                    *serve.query_guided(first, n).expect("cached query"),
                    guided,
                    "{}: cached query_guided({first},{n}) round {round}",
                    case.domain
                );
                assert_eq!(
                    *serve.significant_clusters(first, n).expect("cached query"),
                    significant,
                    "{}: cached significant_clusters({first},{n}) round {round}",
                    case.domain
                );
            }
        }
    }
    for day in 0..case.days {
        assert_eq!(
            serve.micro_clusters_for_day(day).expect("cached query"),
            view.micro_clusters_for_day(day).expect("view query"),
            "{}: cached micro_clusters_for_day({day})",
            case.domain
        );
    }
    assert_eq!(
        serve.live_macro_clusters(),
        view.live_macro_clusters(),
        "{}",
        case.domain
    );
}

/// Storage axis: the domain's forest, persisted through the
/// [`atypical::store::ForestStore`], reloads byte-identically; stored query execution
/// (`All`/`Pru`/`Gui`, with predicate pushdown) returns feature-identical
/// results to the in-memory engine, and the unselective `All` control
/// skips nothing; the guided strategy keeps full recall; and the cube's
/// grand total still equals the severity sum of the *reloaded* day
/// leaves.
pub fn check_stored_equivalence(case: &ConformanceCase) {
    use atypical::store::ForestStore;
    use atypical::QUERY_ID_BASE;

    let network = case.source.network();
    let spec = case.source.config().spec;
    // Trust filter off so the cube==forest total holds (every record
    // lands in a cluster), as in `check_cube_vs_clusters`.
    let params = Params::paper_defaults().with_min_event_records(1);
    let built = build_forest_from_records(case.day_iter(), network, &params, spec);
    let mut forest = built.forest;
    let partition = UniformGrid::over(network, 3.0).partition(network);
    let engine = QueryEngine::new(network, &partition, params);
    let query = Query::days(0, case.days);

    let feed_total: Severity = case.feed().iter().map(|r| r.severity).sum();
    let strategies = [Strategy::All, Strategy::Pru, Strategy::Gui];
    let mem: Vec<_> = strategies
        .iter()
        .map(|&s| engine.execute(&mut forest, &query, s))
        .collect();

    let dir = temp_dir(&format!("conformance-{}", case.domain));
    let store = ForestStore::open(&dir).expect("store opens");
    store.save_forest_days(&forest).expect("forest persists");

    // Reload: every day leaf is byte-identical to the in-memory forest,
    // and the cube==feed==forest total survives the disk round-trip.
    let reloaded = store.load_forest(spec, params).expect("forest reloads");
    let mut stored_total = Severity::ZERO;
    for day in 0..case.days {
        assert_eq!(
            reloaded.day(day),
            forest.day(day),
            "{}: day {day} leaves diverged after reload",
            case.domain
        );
        stored_total += forest
            .day(day)
            .iter()
            .map(|c| c.severity())
            .sum::<Severity>();
    }
    assert_eq!(
        stored_total, feed_total,
        "{}: stored forest total diverged from the feed",
        case.domain
    );

    let results: Vec<_> = strategies
        .iter()
        .map(|&s| {
            let before = store.io_stats();
            let mut ids = ClusterIdGen::new(QUERY_ID_BASE);
            let result = engine
                .execute_stored(&store, spec, &query, s, &mut ids)
                .expect("stored query");
            (result, store.io_stats().since(before))
        })
        .collect();
    for ((stored, _), mem) in results.iter().zip(&mem) {
        let tag = format!("{} {:?}", case.domain, stored.strategy);
        assert_eq!(stored.candidate_clusters, mem.candidate_clusters, "{tag}");
        assert_eq!(stored.input_clusters, mem.input_clusters, "{tag}");
        assert_eq!(stored.num_red_regions, mem.num_red_regions, "{tag}");
        assert_eq!(stored.threshold, mem.threshold, "{tag}");
        assert_eq!(stored.macros.len(), mem.macros.len(), "{tag}");
        for (s, m) in stored.macros.iter().zip(&mem.macros) {
            assert_eq!((&s.sf, &s.tf), (&m.sf, &m.tf), "{tag}");
        }
    }

    // The unselective control: `All` pushes no predicate down, so it
    // decodes every segment and chunk it opens.
    let all_io = &results[0].1;
    assert_eq!(
        (all_io.segments_skipped, all_io.chunks_skipped),
        (0, 0),
        "{}: the All strategy skipped stored data",
        case.domain
    );

    // Properties 4–5 hold through storage: stored Gui loses nothing
    // stored All finds.
    let truth: Vec<AtypicalCluster> = results[0].0.significant().into_iter().cloned().collect();
    let truth_refs: Vec<&AtypicalCluster> = truth.iter().collect();
    let pr = evaluate(&results[2].0, &truth_refs);
    assert_eq!(
        pr.recall, 1.0,
        "{}: stored Gui lost a significant cluster",
        case.domain
    );
}
