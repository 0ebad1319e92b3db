//! Backfill/migration pin: a store directory containing old row-format
//! (`.acf`) day buckets — represented by a fixture checked in at
//! `tests/fixtures/legacy-row-day-00000.acf` — stays fully readable under
//! the columnar store, filtered loads included, and the first `save`
//! migrates the bucket to a `.acs` segment (removing the stale twin).
//! Unknown future segment versions are rejected with a typed
//! `VersionMismatch`, never misread.
//!
//! The row format is read-only: nothing writes `.acf` any more, so the
//! fixture is frozen.

use atypical::store::{cluster_matches, ForestLevel, ForestStore};
use atypical::AtypicalCluster;
use cps_core::{CpsError, ScratchDir, SensorId};
use cps_storage::Predicate;
use cps_testkit::fixtures::{random_clusters, temp_dir};
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("legacy-row-day-00000.acf")
}

/// The exact clusters the fixture encodes (the generator is seeded and
/// deterministic, so this is the fixture's expected plaintext).
fn fixture_clusters() -> Vec<AtypicalCluster> {
    random_clusters(0xF1C, 10, 5)
}

/// Seeds a store directory with the legacy fixture as day 0, exactly as
/// an upgrade-in-place deployment would find it.
fn legacy_store_dir(tag: &str) -> ScratchDir {
    let dir = temp_dir(tag);
    let clusters_dir = dir.join("clusters");
    std::fs::create_dir_all(&clusters_dir).expect("store layout");
    std::fs::copy(fixture_path(), clusters_dir.join("day-00000.acf")).expect("plant fixture");
    dir
}

#[test]
fn legacy_row_buckets_stay_readable_under_the_columnar_default() {
    let dir = legacy_store_dir("migration-read");
    let store = ForestStore::open(&dir).expect("store opens");
    let expected = fixture_clusters();

    assert!(store.contains(ForestLevel::Day, 0));
    assert_eq!(store.buckets(ForestLevel::Day).expect("buckets"), vec![0]);
    assert_eq!(
        store
            .load(ForestLevel::Day, 0)
            .expect("load")
            .expect("day 0"),
        expected,
        "checked-in row fixture no longer decodes to its pinned clusters"
    );

    // Predicate loads fall back to decode-then-filter on row data.
    let pred = Predicate::all().with_sensors((0..50).map(SensorId::new));
    let filtered = store
        .load_filtered(ForestLevel::Day, 0, &pred)
        .expect("filtered load")
        .expect("day 0");
    let oracle: Vec<AtypicalCluster> = expected
        .iter()
        .filter(|c| cluster_matches(c, &pred))
        .cloned()
        .collect();
    assert_eq!(filtered.clusters, oracle);
    assert_eq!(filtered.total, expected.len());
}

#[test]
fn save_migrates_a_legacy_bucket_to_columnar() {
    let dir = legacy_store_dir("migration-save");
    let store = ForestStore::open(&dir).expect("store opens");
    let expected = fixture_clusters();
    let loaded = store
        .load(ForestLevel::Day, 0)
        .expect("load")
        .expect("day 0");
    store.save(ForestLevel::Day, 0, &loaded).expect("resave");

    assert!(
        dir.join("clusters/day-00000.acs").exists(),
        "save must write the columnar segment"
    );
    assert!(
        !dir.join("clusters/day-00000.acf").exists(),
        "save must remove the stale row twin"
    );
    assert_eq!(
        store
            .load(ForestLevel::Day, 0)
            .expect("load")
            .expect("day 0"),
        expected
    );
}

#[test]
fn future_segment_versions_are_rejected_with_a_typed_error() {
    let dir = temp_dir("migration-version");
    let store = ForestStore::open(&dir).expect("store opens");
    store
        .save(ForestLevel::Day, 0, &fixture_clusters())
        .expect("save");
    let path = store.bucket_path(ForestLevel::Day, 0);
    let mut raw = std::fs::read(&path).expect("segment bytes");
    // Bump the little-endian version word right after the 4-byte magic.
    raw[4] += 1;
    std::fs::write(&path, &raw).expect("plant future version");
    match store.load(ForestLevel::Day, 0) {
        Err(CpsError::VersionMismatch { found, expected }) => {
            assert_eq!((found, expected), (2, 1));
        }
        other => panic!("future version must be a typed rejection, got {other:?}"),
    }
}
