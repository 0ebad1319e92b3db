//! Upgrade pin for the forest store: a cluster segment written by a
//! newer build (its version word one ahead) is rejected by `load` with a
//! typed `VersionMismatch` naming the bucket file, never misread.
//!
//! `tests/format_versions.rs` holds the same rule for every persistent
//! format; this file pins it at the store's own API.

use atypical::store::{ForestLevel, ForestStore};
use cps_core::CpsError;
use cps_storage::segment::SEGMENT_VERSION;
use cps_testkit::fixtures::{random_clusters, temp_dir};

#[test]
fn future_segment_versions_are_rejected_with_a_typed_error() {
    let dir = temp_dir("migration-version");
    let store = ForestStore::open(&dir).expect("store opens");
    store
        .save(ForestLevel::Day, 0, &random_clusters(0xF1C, 10, 5))
        .expect("save");
    let path = store.bucket_path(ForestLevel::Day, 0);
    let mut raw = std::fs::read(&path).expect("segment bytes");
    // Bump the little-endian version word right after the 4-byte magic.
    raw[4] += 1;
    std::fs::write(&path, &raw).expect("plant future version");
    match store.load(ForestLevel::Day, 0) {
        Err(CpsError::VersionMismatch {
            context,
            found,
            expected,
        }) => {
            assert_eq!(
                (context, found, expected),
                (
                    path.display().to_string(),
                    SEGMENT_VERSION + 1,
                    SEGMENT_VERSION
                )
            );
        }
        other => panic!("future version must be a typed rejection, got {other:?}"),
    }
}
