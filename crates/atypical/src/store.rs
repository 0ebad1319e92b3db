//! On-disk materialization of the atypical forest.
//!
//! §IV: *"In practical applications we do not pre-compute the entire
//! atypical forest due to storage limits. In most cases only the
//! micro-clusters and some low level macro-clusters are pre-computed."*
//! This module is that persistence layer: cluster sets are written one
//! file per (level, bucket) — e.g. the micro-clusters of day 17 or the
//! macro-clusters of week 3 — and loaded on demand when a query touches
//! the bucket. [`ForestStore`] is the only way in.
//!
//! A bucket is one columnar `.acs` file: a zone-mapped
//! [`cps_storage::segment`] whose chunks hold ~[`CLUSTERS_PER_CHUNK`]
//! clusters as delta+varint/RLE column streams, sorted by first sensor so
//! a red-zone [`Predicate`] skips whole chunks (and segments) without
//! decoding them. [`load_filtered`](ForestStore::load_filtered) is the
//! pushdown entry point; results are restored to the exact insertion
//! order via a stored position column, so answers equal a full decode
//! followed by [`cluster_matches`]. A segment of any other version is a
//! typed [`CpsError::VersionMismatch`] naming the file.
//!
//! Chunk payload (inside a `CSG1` segment, kind 1; every column
//! is one stream, clusters in min-sensor order within the segment):
//!
//! ```text
//! chunk := positions zz-delta^n | ids zz-delta^n | merged uvarint^n
//!          | |SF| uvarint^n | |TF| uvarint^n
//!          | (sf sensors zz-delta^|SF|)^n | sf severities rle
//!          | (tf windows zz-delta^|TF|)^n | tf severities rle
//! ```

use crate::cluster::AtypicalCluster;
use crate::feature::{SpatialFeature, TemporalFeature};
use cps_core::{ClusterId, CpsError, Result, SensorId, Severity, TimeWindow};
use cps_storage::iostats::{IoSnapshot, IoStats};
use cps_storage::segment::{
    get_rle_u64, get_uvarint, get_zigzag_deltas, put_rle_u64, put_uvarint, put_zigzag_deltas,
    scan_segment, SegmentWriter, ZoneMap,
};
use cps_storage::{Io, Predicate};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Segment `kind` tag for cluster segments.
const SEGMENT_KIND_CLUSTERS: u8 = 1;

/// Clusters per column chunk of a columnar bucket. Deliberately small:
/// a chunk is the pruning granule, and a guided query's red-region
/// sensor set only refutes a chunk when *none* of its clusters touch
/// it, so fine chunks are what make sensor pushdown bite (4 clusters
/// ≈ 5–10× fewer bytes decoded on selective queries than a full
/// decode). The price is a larger zone-map directory —
/// about 15% more file bytes than 8-cluster chunks — which the exact
/// per-chunk sensor lists already dominate anyway.
pub const CLUSTERS_PER_CHUNK: usize = 4;

/// Exact record-level form of a [`Predicate`] over clusters — the filter
/// pushdown must agree with. A cluster matches when it touches one of the
/// predicate's sensors (if constrained), touches a window in its range
/// (if constrained), and its total severity strictly exceeds the floor
/// (if constrained).
pub fn cluster_matches(c: &AtypicalCluster, pred: &Predicate) -> bool {
    if pred.sensors().is_some() && !c.sf.keys().any(|s| pred.sensor_matches(s)) {
        return false;
    }
    if let Some(range) = pred.windows {
        if !c.tf.keys().any(|w| range.contains(w)) {
            return false;
        }
    }
    if let Some(floor) = pred.severity_above {
        if c.severity() <= floor {
            return false;
        }
    }
    true
}

/// Encodes one chunk of `(original position, cluster)` pairs into column
/// streams, returning the chunk's zone map and payload.
fn encode_cluster_chunk(members: &[(u32, &AtypicalCluster)]) -> (ZoneMap, Vec<u8>) {
    let mut zone = ZoneMap {
        n_records: members.len() as u32,
        ..ZoneMap::empty()
    };
    let mut buf = Vec::new();
    let positions: Vec<u64> = members.iter().map(|&(p, _)| u64::from(p)).collect();
    put_zigzag_deltas(&mut buf, &positions);
    let ids: Vec<u64> = members.iter().map(|&(_, c)| c.id.raw()).collect();
    put_zigzag_deltas(&mut buf, &ids);
    for &(_, c) in members {
        put_uvarint(&mut buf, u64::from(c.merged_count));
    }
    for &(_, c) in members {
        put_uvarint(&mut buf, c.sf.len() as u64);
    }
    for &(_, c) in members {
        put_uvarint(&mut buf, c.tf.len() as u64);
    }
    let mut scratch = Vec::new();
    for &(_, c) in members {
        scratch.clear();
        for s in c.sf.keys() {
            zone.add_sensor(s);
            scratch.push(u64::from(s.raw()));
        }
        put_zigzag_deltas(&mut buf, &scratch);
    }
    let sf_sevs: Vec<u64> = members
        .iter()
        .flat_map(|&(_, c)| c.sf.iter().map(|(_, sev)| sev.as_secs()))
        .collect();
    put_rle_u64(&mut buf, &sf_sevs);
    for &(_, c) in members {
        scratch.clear();
        for w in c.tf.keys() {
            zone.add_window(w);
            scratch.push(u64::from(w.raw()));
        }
        put_zigzag_deltas(&mut buf, &scratch);
    }
    let tf_sevs: Vec<u64> = members
        .iter()
        .flat_map(|&(_, c)| c.tf.iter().map(|(_, sev)| sev.as_secs()))
        .collect();
    put_rle_u64(&mut buf, &tf_sevs);
    for &(_, c) in members {
        zone.add_severity(c.severity());
    }
    (zone, buf)
}

fn chunk_corrupt(detail: impl Into<String>) -> CpsError {
    CpsError::corrupt("cluster segment chunk", detail)
}

/// Decodes one cluster column chunk into `(position, cluster)` pairs.
/// Inverse of [`encode_cluster_chunk`]; duplicate feature keys, SF/TF
/// totals that disagree and trailing bytes are `Corrupt`.
fn decode_cluster_chunk(n: usize, mut buf: &[u8]) -> Result<Vec<(u32, AtypicalCluster)>> {
    let mut positions = Vec::new();
    get_zigzag_deltas(&mut buf, n, &mut positions)?;
    let mut ids = Vec::new();
    get_zigzag_deltas(&mut buf, n, &mut ids)?;
    let mut merged = Vec::with_capacity(n);
    for _ in 0..n {
        merged.push(get_uvarint(&mut buf)?);
    }
    let mut sf_lens = Vec::with_capacity(n);
    let mut tf_lens = Vec::with_capacity(n);
    for _ in 0..n {
        sf_lens.push(get_uvarint(&mut buf)? as usize);
    }
    for _ in 0..n {
        tf_lens.push(get_uvarint(&mut buf)? as usize);
    }
    let total_sf: usize = sf_lens.iter().sum();
    let total_tf: usize = tf_lens.iter().sum();
    const MAX_FEATURE_ENTRIES: usize = 1 << 28;
    if total_sf > MAX_FEATURE_ENTRIES || total_tf > MAX_FEATURE_ENTRIES {
        return Err(chunk_corrupt("implausible feature counts"));
    }
    let mut sensors: Vec<Vec<u64>> = Vec::with_capacity(n);
    for &len in &sf_lens {
        let mut vals = Vec::new();
        get_zigzag_deltas(&mut buf, len, &mut vals)?;
        sensors.push(vals);
    }
    let mut sf_sevs = Vec::new();
    get_rle_u64(&mut buf, total_sf, &mut sf_sevs)?;
    let mut windows: Vec<Vec<u64>> = Vec::with_capacity(n);
    for &len in &tf_lens {
        let mut vals = Vec::new();
        get_zigzag_deltas(&mut buf, len, &mut vals)?;
        windows.push(vals);
    }
    let mut tf_sevs = Vec::new();
    get_rle_u64(&mut buf, total_tf, &mut tf_sevs)?;
    if !buf.is_empty() {
        return Err(chunk_corrupt("trailing bytes after last column"));
    }

    let mut out = Vec::with_capacity(n);
    let (mut sf_at, mut tf_at) = (0usize, 0usize);
    for i in 0..n {
        let position =
            u32::try_from(positions[i]).map_err(|_| chunk_corrupt("position overflows u32"))?;
        let sf_pairs: Vec<(SensorId, Severity)> = sensors[i]
            .iter()
            .zip(&sf_sevs[sf_at..sf_at + sf_lens[i]])
            .map(|(&s, &sev)| {
                u32::try_from(s)
                    .map(|s| (SensorId::new(s), Severity::from_secs(sev)))
                    .map_err(|_| chunk_corrupt("sensor id overflows u32"))
            })
            .collect::<Result<_>>()?;
        sf_at += sf_lens[i];
        let tf_pairs: Vec<(TimeWindow, Severity)> = windows[i]
            .iter()
            .zip(&tf_sevs[tf_at..tf_at + tf_lens[i]])
            .map(|(&w, &sev)| {
                u32::try_from(w)
                    .map(|w| (TimeWindow::new(w), Severity::from_secs(sev)))
                    .map_err(|_| chunk_corrupt("window overflows u32"))
            })
            .collect::<Result<_>>()?;
        tf_at += tf_lens[i];
        let sf: SpatialFeature = sf_pairs.into_iter().collect();
        let tf: TemporalFeature = tf_pairs.into_iter().collect();
        if sf.len() != sf_lens[i] || tf.len() != tf_lens[i] {
            return Err(chunk_corrupt("duplicate feature keys"));
        }
        if sf.total() != tf.total() {
            return Err(chunk_corrupt(format!(
                "cluster at position {position}: SF/TF totals disagree"
            )));
        }
        let mut cluster = AtypicalCluster::new(ClusterId::new(ids[i]), sf, tf);
        cluster.merged_count =
            u32::try_from(merged[i]).map_err(|_| chunk_corrupt("merged count overflows u32"))?;
        out.push((position, cluster));
    }
    Ok(out)
}

/// Writes a cluster set as a columnar segment (atomic temp + rename).
/// Clusters are chunked in first-sensor order so sensor zone maps are
/// tight; the stored position column lets readers restore the original
/// order exactly.
fn write_clusters_columnar_with(io: &Io, path: &Path, clusters: &[AtypicalCluster]) -> Result<()> {
    let mut order: Vec<u32> = (0..clusters.len() as u32).collect();
    order.sort_by_key(|&i| {
        let c = &clusters[i as usize];
        (
            c.sf.keys().next().map_or(u32::MAX, |s| s.raw()),
            c.tf.keys().next().map_or(u32::MAX, |w| w.raw()),
            i,
        )
    });
    let mut writer = SegmentWriter::new();
    for chunk in order.chunks(CLUSTERS_PER_CHUNK) {
        let members: Vec<(u32, &AtypicalCluster)> =
            chunk.iter().map(|&i| (i, &clusters[i as usize])).collect();
        let (zone, payload) = encode_cluster_chunk(&members);
        writer.push_chunk(zone, payload);
    }
    writer.commit(io, path, SEGMENT_KIND_CLUSTERS)
}

/// Outcome of a filtered bucket load. Scan counters (chunks decoded and
/// skipped, bytes decoded) go to [`ForestStore::io_stats`].
#[derive(Debug)]
pub struct FilteredClusters {
    /// Clusters matching the predicate, in original insertion order.
    pub clusters: Vec<AtypicalCluster>,
    /// Records in the whole bucket (candidates before filtering) — from
    /// the segment meta, without decoding skipped chunks.
    pub total: usize,
}

/// Reads the clusters of a columnar segment that match `pred`, restored
/// to original insertion order, decoding only chunks whose zone maps
/// admit the predicate.
fn read_clusters_columnar_filtered(
    io: &Io,
    path: &Path,
    pred: &Predicate,
    stats: Option<&IoStats>,
) -> Result<FilteredClusters> {
    let mut found: Vec<(u32, AtypicalCluster)> = Vec::new();
    let scan = scan_segment(
        io,
        path,
        SEGMENT_KIND_CLUSTERS,
        pred,
        stats,
        |zone, bytes| {
            let members = decode_cluster_chunk(zone.n_records as usize, bytes)?;
            if let Some(s) = stats {
                s.add_records(members.len() as u64);
            }
            found.extend(
                members
                    .into_iter()
                    .filter(|(_, c)| cluster_matches(c, pred)),
            );
            Ok(())
        },
    )?;
    found.sort_by_key(|&(p, _)| p);
    if found.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err(CpsError::corrupt(
            path.display().to_string(),
            "duplicate cluster positions",
        ));
    }
    if let Some(&(last, _)) = found.last() {
        if u64::from(last) >= scan.total_records {
            return Err(CpsError::corrupt(
                path.display().to_string(),
                "cluster position out of range",
            ));
        }
    }
    Ok(FilteredClusters {
        clusters: found.into_iter().map(|(_, c)| c).collect(),
        total: scan.total_records as usize,
    })
}

/// Reads every cluster of a columnar segment, in original order.
fn read_clusters_columnar_with(
    io: &Io,
    path: &Path,
    stats: Option<&IoStats>,
) -> Result<Vec<AtypicalCluster>> {
    let loaded = read_clusters_columnar_filtered(io, path, &Predicate::all(), stats)?;
    if loaded.clusters.len() != loaded.total {
        return Err(CpsError::corrupt(
            path.display().to_string(),
            "cluster count disagrees with segment meta",
        ));
    }
    Ok(loaded.clusters)
}

/// A forest level that can be materialized (mirrors the aggregation
/// hierarchy of §III-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ForestLevel {
    /// Day-level micro-clusters.
    Day,
    /// Week-level macro-clusters.
    Week,
    /// Month-level macro-clusters.
    Month,
}

impl ForestLevel {
    fn prefix(self) -> &'static str {
        match self {
            ForestLevel::Day => "day",
            ForestLevel::Week => "week",
            ForestLevel::Month => "month",
        }
    }
}

/// Directory-backed store of materialized forest levels.
///
/// Layout: `<root>/clusters/<level>-<bucket>.acs`.
pub struct ForestStore {
    root: PathBuf,
    io: Io,
    stats: Arc<IoStats>,
}

impl ForestStore {
    /// Opens (creating if needed) a forest store under `root`.
    pub fn open(root: &Path) -> Result<Self> {
        Self::open_with(root, Io::real())
    }

    /// Opens a forest store whose file operations go through `io`.
    pub fn open_with(root: &Path, io: Io) -> Result<Self> {
        io.create_dir_all(&root.join("clusters"))?;
        Ok(Self {
            root: root.to_owned(),
            io,
            stats: IoStats::shared(),
        })
    }

    /// Snapshot of the store's I/O counters (`bytes_decoded`,
    /// `segments_skipped`, `chunks_skipped`, …).
    pub fn io_stats(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    /// The segment holding a bucket, if it was materialized.
    fn resolve(&self, level: ForestLevel, bucket: u32) -> Option<PathBuf> {
        let path = self.bucket_path(level, bucket);
        path.exists().then_some(path)
    }

    /// Filesystem path of one bucket's segment, for observability (e.g.
    /// reporting snapshot sizes); the file may not exist yet.
    pub fn bucket_path(&self, level: ForestLevel, bucket: u32) -> PathBuf {
        self.root
            .join("clusters")
            .join(format!("{}-{bucket:05}.acs", level.prefix()))
    }

    /// Persists one bucket of a level as a segment.
    pub fn save(
        &self,
        level: ForestLevel,
        bucket: u32,
        clusters: &[AtypicalCluster],
    ) -> Result<()> {
        write_clusters_columnar_with(&self.io, &self.bucket_path(level, bucket), clusters)
    }

    /// Loads one bucket, or `None` if it was never materialized.
    pub fn load(&self, level: ForestLevel, bucket: u32) -> Result<Option<Vec<AtypicalCluster>>> {
        self.resolve(level, bucket)
            .map(|path| read_clusters_columnar_with(&self.io, &path, Some(&self.stats)))
            .transpose()
    }

    /// Loads the clusters of one bucket that match `pred`, in original
    /// order, plus the bucket's total record count. Chunks (or the whole
    /// segment) whose zone maps refute the predicate are skipped without
    /// decoding; the result equals a full load filtered by
    /// [`cluster_matches`].
    pub fn load_filtered(
        &self,
        level: ForestLevel,
        bucket: u32,
        pred: &Predicate,
    ) -> Result<Option<FilteredClusters>> {
        self.resolve(level, bucket)
            .map(|path| read_clusters_columnar_filtered(&self.io, &path, pred, Some(&self.stats)))
            .transpose()
    }

    /// Whether a bucket is materialized.
    pub fn contains(&self, level: ForestLevel, bucket: u32) -> bool {
        self.resolve(level, bucket).is_some()
    }

    /// Buckets materialized at a level, sorted.
    pub fn buckets(&self, level: ForestLevel) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        let prefix = format!("{}-", level.prefix());
        for entry in std::fs::read_dir(self.root.join("clusters"))? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(".acs"))
            {
                if let Ok(b) = num.parse() {
                    out.push(b);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Persists a forest's day level (the "pre-compute the micro-clusters
    /// of each day" setting the paper's experiments use).
    pub fn save_forest_days(&self, forest: &crate::forest::AtypicalForest) -> Result<usize> {
        let mut n = 0;
        for day in forest.days().collect::<Vec<_>>() {
            self.save(ForestLevel::Day, day, forest.day(day))?;
            n += 1;
        }
        Ok(n)
    }

    /// Rebuilds an in-memory forest from every materialized day bucket.
    pub fn load_forest(
        &self,
        spec: cps_core::WindowSpec,
        params: cps_core::Params,
    ) -> Result<crate::forest::AtypicalForest> {
        let mut forest = crate::forest::AtypicalForest::new(spec, params);
        for day in self.buckets(ForestLevel::Day)? {
            if let Some(clusters) = self.load(ForestLevel::Day, day)? {
                forest.insert_day(day, clusters);
            }
        }
        Ok(forest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::ScratchDir;
    use cps_core::{Params, WindowSpec};

    fn cluster(id: u64, base: u32, n: u32) -> AtypicalCluster {
        let sf: SpatialFeature = (base..base + n)
            .map(|s| (SensorId::new(s), Severity::from_secs(60 + u64::from(s))))
            .collect();
        let tf: TemporalFeature = (base..base + n)
            .map(|w| (TimeWindow::new(w), Severity::from_secs(60 + u64::from(w))))
            .collect();
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    #[test]
    fn forest_store_levels_and_buckets() {
        let dir = ScratchDir::new("levels");
        let store = ForestStore::open(&dir).unwrap();
        store
            .save(ForestLevel::Day, 3, &[cluster(1, 0, 3)])
            .unwrap();
        store
            .save(ForestLevel::Day, 10, &[cluster(2, 5, 3)])
            .unwrap();
        store
            .save(ForestLevel::Week, 0, &[cluster(3, 0, 6)])
            .unwrap();
        assert!(store.contains(ForestLevel::Day, 3));
        assert!(!store.contains(ForestLevel::Day, 4));
        assert_eq!(store.buckets(ForestLevel::Day).unwrap(), vec![3, 10]);
        assert_eq!(store.buckets(ForestLevel::Week).unwrap(), vec![0]);
        assert_eq!(
            store.buckets(ForestLevel::Month).unwrap(),
            Vec::<u32>::new()
        );
        let loaded = store.load(ForestLevel::Week, 0).unwrap().unwrap();
        assert_eq!(loaded[0].id, ClusterId::new(3));
        assert!(store.load(ForestLevel::Month, 0).unwrap().is_none());
    }

    #[test]
    fn forest_persistence_roundtrip() {
        let dir = ScratchDir::new("forest");
        let store = ForestStore::open(&dir).unwrap();
        let spec = WindowSpec::PEMS;
        let params = Params::paper_defaults();
        let mut forest = crate::forest::AtypicalForest::new(spec, params);
        forest.insert_day(0, vec![cluster(1, 0, 4)]);
        forest.insert_day(1, vec![cluster(2, 10, 4), cluster(3, 20, 4)]);
        assert_eq!(store.save_forest_days(&forest).unwrap(), 2);

        let loaded = store.load_forest(spec, params).unwrap();
        assert_eq!(loaded.num_micro_clusters(), 3);
        assert_eq!(loaded.day(0), forest.day(0));
        assert_eq!(loaded.day(1), forest.day(1));
    }

    #[test]
    fn columnar_roundtrip_preserves_order_exactly() {
        let dir = ScratchDir::new("col-roundtrip");
        // Deliberately unsorted sensor bases so the chunk sort permutes,
        // and the position column must restore insertion order.
        let clusters: Vec<AtypicalCluster> = (0..100)
            .map(|i| cluster(i, ((i as u32) * 37) % 200, 4))
            .collect();
        let path = dir.join("x.acs");
        let io = Io::real();
        write_clusters_columnar_with(&io, &path, &clusters).unwrap();
        let back = read_clusters_columnar_with(&io, &path, None).unwrap();
        assert_eq!(clusters, back);
    }

    #[test]
    fn columnar_empty_set_roundtrips() {
        let dir = ScratchDir::new("col-empty");
        let path = dir.join("x.acs");
        let io = Io::real();
        write_clusters_columnar_with(&io, &path, &[]).unwrap();
        assert!(read_clusters_columnar_with(&io, &path, None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn filtered_load_equals_full_load_plus_filter_on_both_backends() {
        let clusters: Vec<AtypicalCluster> = (0..80)
            .map(|i| cluster(i, ((i as u32) * 7) % 120, 3))
            .collect();
        let preds = [
            Predicate::all(),
            Predicate::all().with_sensors((10..30).map(SensorId::new)),
            Predicate::all().with_windows(cps_core::TimeRange::new(
                TimeWindow::new(40),
                TimeWindow::new(60),
            )),
            Predicate::all().with_severity_above(Severity::from_secs(3 * 65)),
            Predicate::all()
                .with_sensors((0..15).map(SensorId::new))
                .with_severity_above(Severity::from_secs(100)),
        ];
        let dir = ScratchDir::new("filter");
        let store = ForestStore::open(&dir).unwrap();
        store.save(ForestLevel::Day, 0, &clusters).unwrap();
        let full = store.load(ForestLevel::Day, 0).unwrap().unwrap();
        assert_eq!(full, clusters);
        for pred in &preds {
            let got = store
                .load_filtered(ForestLevel::Day, 0, pred)
                .unwrap()
                .unwrap();
            let want: Vec<AtypicalCluster> = full
                .iter()
                .filter(|c| cluster_matches(c, pred))
                .cloned()
                .collect();
            assert_eq!(got.clusters, want, "{pred:?}");
            assert_eq!(got.total, clusters.len());
        }
    }

    #[test]
    fn selective_predicate_skips_chunks_without_changing_results() {
        let dir = ScratchDir::new("skip");
        let store = ForestStore::open(&dir).unwrap();
        // Enough clusters for several chunks, tight per-cluster sensor
        // spans so zone maps are selective after the chunk sort.
        let clusters: Vec<AtypicalCluster> = (0..(6 * CLUSTERS_PER_CHUNK as u64))
            .map(|i| cluster(i, (i as u32) % 600, 2))
            .collect();
        store.save(ForestLevel::Day, 0, &clusters).unwrap();
        let pred = Predicate::all().with_sensors((0..10).map(SensorId::new));
        let before = store.io_stats();
        let got = store
            .load_filtered(ForestLevel::Day, 0, &pred)
            .unwrap()
            .unwrap();
        let delta = store.io_stats().since(before);
        assert!(
            delta.chunks_skipped > 0,
            "zone maps never skipped: {delta:?}"
        );
        assert!(delta.bytes_decoded < delta.bytes_read);
        let want: Vec<AtypicalCluster> = clusters
            .iter()
            .filter(|c| cluster_matches(c, &pred))
            .cloned()
            .collect();
        assert!(!want.is_empty());
        assert_eq!(got.clusters, want);
    }

    #[test]
    fn hopeless_predicate_skips_whole_segment() {
        let dir = ScratchDir::new("seg-skip");
        let store = ForestStore::open(&dir).unwrap();
        let clusters: Vec<AtypicalCluster> = (0..10).map(|i| cluster(i, i as u32, 3)).collect();
        store.save(ForestLevel::Day, 0, &clusters).unwrap();
        let pred = Predicate::all().with_sensors([SensorId::new(9999)]);
        let before = store.io_stats();
        let got = store
            .load_filtered(ForestLevel::Day, 0, &pred)
            .unwrap()
            .unwrap();
        let delta = store.io_stats().since(before);
        assert!(got.clusters.is_empty());
        assert_eq!(got.total, 10);
        assert_eq!(delta.segments_skipped, 1);
        assert_eq!(delta.bytes_decoded, 0);
    }

    #[test]
    fn columnar_corruption_and_truncation_are_typed_errors() {
        let dir = ScratchDir::new("col-corrupt");
        let path = dir.join("x.acs");
        let io = Io::real();
        let clusters: Vec<AtypicalCluster> = (0..8).map(|i| cluster(i, i as u32 * 5, 3)).collect();
        write_clusters_columnar_with(&io, &path, &clusters).unwrap();
        let full = std::fs::read(&path).unwrap();
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0xFF;
            std::fs::write(&path, &bad).unwrap();
            match read_clusters_columnar_with(&io, &path, None) {
                Err(CpsError::Corrupt { .. }) | Err(CpsError::VersionMismatch { .. }) => {}
                Err(other) => panic!("flip at byte {i}: wrong error kind {other:?}"),
                Ok(_) => panic!("flip at byte {i} went undetected"),
            }
        }
        for len in 0..full.len() {
            std::fs::write(&path, &full[..len]).unwrap();
            match read_clusters_columnar_with(&io, &path, None) {
                Err(CpsError::Corrupt { .. }) => {}
                Err(other) => panic!("truncation at byte {len}: wrong error kind {other:?}"),
                Ok(_) => panic!("truncation at byte {len} went undetected"),
            }
        }
    }
}
