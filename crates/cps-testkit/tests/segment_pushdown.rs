//! Zone-map soundness property suite: for seeded random cluster
//! populations and seeded random predicates, the columnar pushdown path
//! returns exactly `full-decode-then-filter` — the saved clusters
//! filtered in memory with `cluster_matches`, same clusters, same
//! order — on every round, while selective rounds skip chunks. A
//! separate selectivity check pins `chunks_skipped > 0` (a zone map
//! that never refutes anything would pass the equality vacuously) and a
//! whole-segment skip check pins `segments_skipped > 0`.

use atypical::store::{cluster_matches, ForestLevel, ForestStore, CLUSTERS_PER_CHUNK};
use atypical::AtypicalCluster;
use cps_core::{SensorId, Severity, TimeRange, TimeWindow};
use cps_storage::Predicate;
use cps_testkit::fixtures::{random_cluster, temp_dir};
use cps_testkit::run_seeded;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROUNDS: usize = 24;

/// A random predicate over the fixture space (sensors 0..200, windows
/// 0..500, record severities 30..3600 s): each axis constrained with
/// independent probability, so the sweep hits empty, selective, and
/// match-all shapes.
fn random_predicate(rng: &mut StdRng) -> Predicate {
    let mut p = Predicate::all();
    if rng.gen_bool(0.6) {
        let lo: u32 = rng.gen_range(0..200);
        let n: u32 = rng.gen_range(1..20);
        p = p.with_sensors((lo..lo.saturating_add(n)).map(SensorId::new));
    }
    if rng.gen_bool(0.5) {
        let lo: u32 = rng.gen_range(0..500);
        let n: u32 = rng.gen_range(1..200);
        p = p.with_windows(TimeRange::new(TimeWindow::new(lo), TimeWindow::new(lo + n)));
    }
    if rng.gen_bool(0.5) {
        p = p.with_severity_above(Severity::from_secs(rng.gen_range(0..12_000)));
    }
    p
}

fn population(rng: &mut StdRng, n: usize) -> Vec<AtypicalCluster> {
    (0..n).map(|i| random_cluster(rng, i as u64, 5)).collect()
}

#[test]
fn pushdown_equals_full_decode_then_filter() {
    run_seeded("pushdown_equals_full_decode_then_filter", |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let clusters = population(&mut rng, 4 * CLUSTERS_PER_CHUNK);

        let dir = temp_dir("pushdown-col");
        let store = ForestStore::open(&dir).expect("columnar store");
        store.save(ForestLevel::Day, 0, &clusters).expect("save");

        let mut chunks_skipped = 0;
        for round in 0..ROUNDS {
            let pred = random_predicate(&mut rng);
            let oracle: Vec<AtypicalCluster> = clusters
                .iter()
                .filter(|c| cluster_matches(c, &pred))
                .cloned()
                .collect();
            let before = store.io_stats();
            let from_col = store
                .load_filtered(ForestLevel::Day, 0, &pred)
                .expect("columnar filtered load")
                .expect("bucket exists");
            chunks_skipped += store.io_stats().since(before).chunks_skipped;
            assert_eq!(
                from_col.clusters, oracle,
                "round {round}: pushdown diverged from full-decode-then-filter for {pred:?}"
            );
            assert_eq!(from_col.total, clusters.len(), "round {round}");
        }
        assert!(
            chunks_skipped > 0,
            "no round skipped a chunk: the equality above held vacuously"
        );
    });
}

#[test]
fn selective_predicates_actually_skip_chunks() {
    run_seeded("selective_predicates_actually_skip_chunks", |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        // Several chunks' worth of clusters: the writer sorts them by
        // first sensor, so a narrow sensor predicate must refute most
        // chunk zone maps.
        let clusters = population(&mut rng, 8 * CLUSTERS_PER_CHUNK);
        let dir = temp_dir("pushdown-selective");
        let store = ForestStore::open(&dir).expect("store opens");
        store.save(ForestLevel::Day, 0, &clusters).expect("save");

        let pred = Predicate::all().with_sensors((0..5).map(SensorId::new));
        let before = store.io_stats();
        let filtered = store
            .load_filtered(ForestLevel::Day, 0, &pred)
            .expect("filtered load")
            .expect("bucket exists");
        let delta = store.io_stats().since(before);
        assert!(
            delta.chunks_skipped > 0,
            "selective predicate skipped nothing: {delta:?}"
        );
        assert!(
            delta.bytes_decoded < delta.bytes_read,
            "skipped chunks must not be decoded: {delta:?}"
        );
        // Still exact.
        let oracle: Vec<AtypicalCluster> = clusters
            .iter()
            .filter(|c| cluster_matches(c, &pred))
            .cloned()
            .collect();
        assert_eq!(filtered.clusters, oracle);
    });
}

#[test]
fn hopeless_predicates_skip_whole_segments() {
    run_seeded("hopeless_predicates_skip_whole_segments", |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let clusters = population(&mut rng, 2 * CLUSTERS_PER_CHUNK);
        let dir = temp_dir("pushdown-hopeless");
        let store = ForestStore::open(&dir).expect("store opens");
        store.save(ForestLevel::Day, 0, &clusters).expect("save");

        // Fixture sensors live in 0..200; nothing can match.
        let pred = Predicate::all().with_sensors([SensorId::new(100_000)]);
        let before = store.io_stats();
        let filtered = store
            .load_filtered(ForestLevel::Day, 0, &pred)
            .expect("filtered load")
            .expect("bucket exists");
        let delta = store.io_stats().since(before);
        assert!(filtered.clusters.is_empty());
        assert_eq!(filtered.total, clusters.len());
        assert_eq!(
            delta.segments_skipped, 1,
            "zone rollup must refute the whole segment: {delta:?}"
        );
        assert_eq!(delta.bytes_decoded, 0, "{delta:?}");
    });
}
