//! Corruption fuzz over a representative columnar segment written by the
//! forest store: flip every byte and truncate at every length of the
//! whole file — header, zone-map directory, and every column chunk — and
//! assert the reader returns a typed error (`Corrupt`, or
//! `VersionMismatch` for the version word) and never panics or returns
//! wrong data. The segment is the store's only bucket format.

use atypical::store::{ForestLevel, ForestStore, CLUSTERS_PER_CHUNK};
use cps_core::{CpsError, ScratchDir, SensorId};
use cps_storage::{Io, Predicate};
use cps_testkit::fixtures::{random_clusters, temp_dir};

/// A store with one multi-chunk day bucket; returns the directory guard,
/// the store, the segment path, and its clean bytes.
fn representative_segment(tag: &str) -> (ScratchDir, ForestStore, std::path::PathBuf, Vec<u8>) {
    let dir = temp_dir(tag);
    let store = ForestStore::open_with(&dir, Io::real()).expect("store opens");
    let clusters = random_clusters(0x5E6, 3 * CLUSTERS_PER_CHUNK, 5);
    store.save(ForestLevel::Day, 0, &clusters).expect("save");
    let path = store.bucket_path(ForestLevel::Day, 0);
    let clean = std::fs::read(&path).expect("segment written");
    (dir, store, path, clean)
}

#[test]
fn every_byte_flip_is_a_typed_error() {
    let (_dir, store, path, clean) = representative_segment("segcorrupt-flip");
    assert!(
        clean.len() > 20 + 3 * 36,
        "segment must span header, directory, and chunks"
    );
    for i in 0..clean.len() {
        let mut bad = clean.clone();
        bad[i] ^= 0xFF;
        std::fs::write(&path, &bad).expect("plant corruption");
        match store.load(ForestLevel::Day, 0) {
            Err(CpsError::Corrupt { .. }) | Err(CpsError::VersionMismatch { .. }) => {}
            Err(other) => panic!("flip at byte {i}: untyped error {other:?}"),
            Ok(_) => panic!("flip at byte {i} went undetected"),
        }
    }
    std::fs::write(&path, &clean).expect("restore");
    assert!(store
        .load(ForestLevel::Day, 0)
        .expect("clean load")
        .is_some());
}

#[test]
fn every_truncation_is_a_typed_corrupt_error() {
    let (_dir, store, path, clean) = representative_segment("segcorrupt-trunc");
    for len in 0..clean.len() {
        std::fs::write(&path, &clean[..len]).expect("plant truncation");
        match store.load(ForestLevel::Day, 0) {
            Err(CpsError::Corrupt { .. }) => {}
            Err(other) => panic!("truncation at byte {len}: untyped error {other:?}"),
            Ok(Some(read)) => panic!(
                "truncation at byte {len} silently read {} cluster(s)",
                read.len()
            ),
            Ok(None) => panic!("truncation at byte {len}: bucket cannot be absent"),
        }
    }
}

/// Documented skip semantics: corruption inside a chunk that the
/// predicate's zone maps refute is *not* observed by a pushdown read
/// (the chunk's bytes are never CRC-checked), the filtered result is
/// still exact — and a full scan of the same file does reject it.
#[test]
fn corruption_in_a_skipped_chunk_is_invisible_to_pushdown_but_fatal_to_full_scans() {
    let (_dir, store, path, clean) = representative_segment("segcorrupt-skip");
    // The last chunk's last byte: with an impossible sensor predicate the
    // scan decodes nothing, so the flip sits in skipped (or never-read)
    // territory.
    let mut bad = clean.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xFF;
    std::fs::write(&path, &bad).expect("plant corruption");

    let pred = Predicate::all().with_sensors([SensorId::new(100_000)]);
    let filtered = store
        .load_filtered(ForestLevel::Day, 0, &pred)
        .expect("pushdown read skips the corrupt chunk")
        .expect("bucket exists");
    assert!(filtered.clusters.is_empty());

    match store.load(ForestLevel::Day, 0) {
        Err(CpsError::Corrupt { .. }) => {}
        other => panic!("full scan must reject the corrupt chunk, got {other:?}"),
    }
}
