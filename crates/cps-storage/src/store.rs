//! Dataset directory layout and catalog.
//!
//! Mirrors the paper's experimental setup: the store holds a sequence of
//! monthly datasets `D1 … D12`, each partitioned per day into a raw and an
//! atypical file:
//!
//! ```text
//! <root>/catalog.json
//! <root>/D1/raw-d000.cps      raw readings, day 0 of D1
//! <root>/D1/atyp-d000.cps     pre-processed atypical records, day 0 of D1
//! …
//! ```
//!
//! Days are indexed globally (day 0 = first day of D1), so a query range of
//! "the last 84 days" maps directly onto partition files irrespective of
//! which month they fall in.

use crate::format::RecordKind;
use crate::iostats::IoStats;
use crate::reader::PartitionReader;
use crate::writer::PartitionWriter;
use cps_core::{AtypicalRecord, CpsError, DatasetId, RawRecord, Result, WindowSpec};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Metadata for one (monthly) dataset partition.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct DatasetMeta {
    /// Dataset id (`D1`…).
    pub id: DatasetId,
    /// Display name, e.g. `"Oct 2008"`.
    pub name: String,
    /// Global index of the dataset's first day.
    pub first_day: u32,
    /// Number of days covered.
    pub n_days: u32,
    /// Sensors active in this dataset.
    pub n_sensors: u32,
    /// Raw readings stored.
    pub n_raw_records: u64,
    /// Atypical records stored.
    pub n_atypical_records: u64,
}

impl DatasetMeta {
    /// Fraction of readings that are atypical.
    pub fn atypical_fraction(&self) -> f64 {
        if self.n_raw_records == 0 {
            0.0
        } else {
            self.n_atypical_records as f64 / self.n_raw_records as f64
        }
    }

    /// Global day range `[first_day, first_day + n_days)`.
    pub fn day_range(&self) -> std::ops::Range<u32> {
        self.first_day..self.first_day + self.n_days
    }
}

/// The persisted catalog: window spec plus dataset list.
#[derive(Clone, Debug, Serialize, Deserialize, Default)]
pub struct DatasetCatalog {
    /// Time discretization shared by all datasets.
    pub spec: WindowSpec,
    /// Datasets in `first_day` order.
    pub datasets: Vec<DatasetMeta>,
}

impl DatasetCatalog {
    /// Total number of days across all datasets.
    pub fn total_days(&self) -> u32 {
        self.datasets.iter().map(|d| d.n_days).sum()
    }

    /// Total raw records across all datasets.
    pub fn total_raw_records(&self) -> u64 {
        self.datasets.iter().map(|d| d.n_raw_records).sum()
    }

    /// Total atypical records across all datasets.
    pub fn total_atypical_records(&self) -> u64 {
        self.datasets.iter().map(|d| d.n_atypical_records).sum()
    }

    /// The dataset containing global `day`, if any.
    pub fn dataset_for_day(&self, day: u32) -> Option<&DatasetMeta> {
        self.datasets.iter().find(|d| d.day_range().contains(&day))
    }
}

/// A dataset store rooted at a directory.
pub struct DatasetStore {
    root: PathBuf,
    catalog: DatasetCatalog,
}

impl DatasetStore {
    /// Creates an empty store (directory is created; any existing catalog is
    /// replaced).
    pub fn create(root: &Path, spec: WindowSpec) -> Result<Self> {
        std::fs::create_dir_all(root)?;
        let store = Self {
            root: root.to_owned(),
            catalog: DatasetCatalog {
                spec,
                datasets: Vec::new(),
            },
        };
        store.persist_catalog()?;
        Ok(store)
    }

    /// Opens an existing store.
    pub fn open(root: &Path) -> Result<Self> {
        let catalog_path = root.join("catalog.json");
        let text = std::fs::read_to_string(&catalog_path)?;
        let catalog: DatasetCatalog = serde_json::from_str(&text)
            .map_err(|e| CpsError::corrupt("catalog.json", e.to_string()))?;
        Ok(Self {
            root: root.to_owned(),
            catalog,
        })
    }

    /// Root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The catalog.
    pub fn catalog(&self) -> &DatasetCatalog {
        &self.catalog
    }

    fn persist_catalog(&self) -> Result<()> {
        let text = serde_json::to_string_pretty(&self.catalog)
            .map_err(|e| CpsError::corrupt("catalog.json", e.to_string()))?;
        std::fs::write(self.root.join("catalog.json"), text)?;
        Ok(())
    }

    fn dataset_dir(&self, id: DatasetId) -> PathBuf {
        self.root.join(format!("{id}"))
    }

    /// Path of the raw partition for (`dataset`, local `day`).
    pub fn raw_path(&self, id: DatasetId, local_day: u32) -> PathBuf {
        self.dataset_dir(id)
            .join(format!("raw-d{local_day:03}.cps"))
    }

    /// Path of the atypical partition for (`dataset`, local `day`).
    pub fn atypical_path(&self, id: DatasetId, local_day: u32) -> PathBuf {
        self.dataset_dir(id)
            .join(format!("atyp-d{local_day:03}.cps"))
    }

    /// Creates the raw-partition writer for one day.
    pub fn raw_writer(&self, id: DatasetId, local_day: u32) -> Result<PartitionWriter> {
        PartitionWriter::create(&self.raw_path(id, local_day), RecordKind::Raw)
    }

    /// Creates the atypical-partition writer for one day.
    pub fn atypical_writer(&self, id: DatasetId, local_day: u32) -> Result<PartitionWriter> {
        PartitionWriter::create(&self.atypical_path(id, local_day), RecordKind::Atypical)
    }

    /// Registers (or replaces) a dataset's metadata and persists the catalog.
    pub fn register_dataset(&mut self, meta: DatasetMeta) -> Result<()> {
        self.catalog.datasets.retain(|d| d.id != meta.id);
        self.catalog.datasets.push(meta);
        self.catalog.datasets.sort_by_key(|d| d.first_day);
        self.persist_catalog()
    }

    /// Metadata for one dataset.
    pub fn dataset(&self, id: DatasetId) -> Result<&DatasetMeta> {
        self.catalog
            .datasets
            .iter()
            .find(|d| d.id == id)
            .ok_or_else(|| CpsError::NotFound(format!("{id}")))
    }

    /// Streams every raw record of `id` in day order.
    pub fn scan_raw(
        &self,
        id: DatasetId,
        stats: Arc<IoStats>,
    ) -> Result<impl Iterator<Item = Result<RawRecord>>> {
        let meta = self.dataset(id)?;
        let paths: Vec<PathBuf> = (0..meta.n_days).map(|d| self.raw_path(id, d)).collect();
        Ok(ChainedScan::new(paths, stats, ScanKind::Raw).map(|r| {
            r.map(|rec| match rec {
                Either::Raw(r) => r,
                Either::Atypical(_) => unreachable!("raw scan yielded atypical record"),
            })
        }))
    }

    /// Streams every atypical record of `id` in day order.
    pub fn scan_atypical(
        &self,
        id: DatasetId,
        stats: Arc<IoStats>,
    ) -> Result<impl Iterator<Item = Result<AtypicalRecord>>> {
        let meta = self.dataset(id)?;
        let paths: Vec<PathBuf> = (0..meta.n_days)
            .map(|d| self.atypical_path(id, d))
            .collect();
        Ok(ChainedScan::new(paths, stats, ScanKind::Atypical).map(|r| {
            r.map(|rec| match rec {
                Either::Atypical(a) => a,
                Either::Raw(_) => unreachable!("atypical scan yielded raw record"),
            })
        }))
    }

    /// Atypical partition paths covering global days `[first, first + n)`,
    /// in day order. Days with no registered dataset are skipped.
    pub fn atypical_paths_for_days(&self, first: u32, n: u32) -> Vec<PathBuf> {
        (first..first + n)
            .filter_map(|day| {
                self.catalog
                    .dataset_for_day(day)
                    .map(|meta| self.atypical_path(meta.id, day - meta.first_day))
            })
            .collect()
    }

    /// Streams the atypical records of global days `[first, first + n)`,
    /// chaining across dataset boundaries — the access pattern of an
    /// analytical query `Q(W, T)` whose `T` spans months. Days with no
    /// registered dataset are skipped silently.
    pub fn scan_atypical_days(
        &self,
        first: u32,
        n: u32,
        stats: Arc<IoStats>,
    ) -> impl Iterator<Item = Result<AtypicalRecord>> {
        let paths = self.atypical_paths_for_days(first, n);
        ChainedScan::new(paths, stats, ScanKind::Atypical).map(|r| {
            r.map(|rec| match rec {
                Either::Atypical(a) => a,
                Either::Raw(_) => unreachable!("atypical scan yielded raw record"),
            })
        })
    }

    /// Total on-disk size in bytes of the given partition paths.
    pub fn file_sizes(paths: &[PathBuf]) -> u64 {
        paths
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }
}

enum ScanKind {
    Raw,
    Atypical,
}

enum Either {
    Raw(RawRecord),
    Atypical(AtypicalRecord),
}

/// Chains per-day partitions into one record stream.
struct ChainedScan {
    paths: std::vec::IntoIter<PathBuf>,
    current: Option<Box<dyn Iterator<Item = Result<Either>>>>,
    stats: Arc<IoStats>,
    kind: ScanKind,
    failed: bool,
}

impl ChainedScan {
    fn new(paths: Vec<PathBuf>, stats: Arc<IoStats>, kind: ScanKind) -> Self {
        Self {
            paths: paths.into_iter(),
            current: None,
            stats,
            kind,
            failed: false,
        }
    }

    fn open_next(&mut self) -> Option<Result<()>> {
        let path = self.paths.next()?;
        match PartitionReader::open(&path, Arc::clone(&self.stats)) {
            Ok(reader) => {
                self.current = Some(match self.kind {
                    ScanKind::Raw => Box::new(reader.raw_records().map(|r| r.map(Either::Raw))),
                    ScanKind::Atypical => {
                        Box::new(reader.atypical_records().map(|r| r.map(Either::Atypical)))
                    }
                });
                Some(Ok(()))
            }
            Err(e) => Some(Err(e)),
        }
    }
}

impl Iterator for ChainedScan {
    type Item = Result<Either>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(iter) = &mut self.current {
                match iter.next() {
                    Some(item) => {
                        if item.is_err() {
                            self.failed = true;
                        }
                        return Some(item);
                    }
                    None => self.current = None,
                }
            }
            match self.open_next() {
                Some(Ok(())) => continue,
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                None => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::ScratchDir;
    use cps_core::{SensorId, Severity, TimeWindow};

    fn fill(store: &mut DatasetStore, id: DatasetId, first_day: u32, n_days: u32) {
        let mut raw_total = 0;
        let mut atyp_total = 0;
        for day in 0..n_days {
            let mut rw = store.raw_writer(id, day).unwrap();
            let mut aw = store.atypical_writer(id, day).unwrap();
            for i in 0..50u32 {
                rw.write_raw(&RawRecord::new(
                    SensorId::new(i),
                    TimeWindow::new((first_day + day) * 288 + i),
                    60.0,
                    100,
                    200,
                ))
                .unwrap();
                if i % 10 == 0 {
                    aw.write_atypical(&AtypicalRecord::new(
                        SensorId::new(i),
                        TimeWindow::new((first_day + day) * 288 + i),
                        Severity::from_secs(120),
                    ))
                    .unwrap();
                }
            }
            raw_total += rw.finish().unwrap();
            atyp_total += aw.finish().unwrap();
        }
        store
            .register_dataset(DatasetMeta {
                id,
                name: format!("{id}"),
                first_day,
                n_days,
                n_sensors: 50,
                n_raw_records: raw_total,
                n_atypical_records: atyp_total,
            })
            .unwrap();
    }

    #[test]
    fn create_fill_reopen_scan() {
        let root = ScratchDir::new("roundtrip");
        let mut store = DatasetStore::create(&root, WindowSpec::PEMS).unwrap();
        fill(&mut store, DatasetId::new(1), 0, 3);
        fill(&mut store, DatasetId::new(2), 3, 2);

        let store = DatasetStore::open(&root).unwrap();
        assert_eq!(store.catalog().datasets.len(), 2);
        assert_eq!(store.catalog().total_days(), 5);
        assert_eq!(store.catalog().total_raw_records(), 5 * 50);
        assert_eq!(store.catalog().total_atypical_records(), 5 * 5);

        let stats = IoStats::shared();
        let raws: Vec<_> = store
            .scan_raw(DatasetId::new(1), stats.clone())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(raws.len(), 150);
        assert_eq!(stats.snapshot().files_opened, 3);

        let atyp: Vec<_> = store
            .scan_atypical(DatasetId::new(2), stats.clone())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(atyp.len(), 10);
    }

    #[test]
    fn day_range_spans_datasets() {
        let root = ScratchDir::new("spans");
        let mut store = DatasetStore::create(&root, WindowSpec::PEMS).unwrap();
        fill(&mut store, DatasetId::new(1), 0, 3);
        fill(&mut store, DatasetId::new(2), 3, 3);
        // Days 2..5 straddle D1/D2.
        let paths = store.atypical_paths_for_days(2, 3);
        assert_eq!(paths.len(), 3);
        assert!(paths[0].to_string_lossy().contains("D1"));
        assert!(paths[1].to_string_lossy().contains("D2"));
        // Unregistered days are skipped.
        assert_eq!(store.atypical_paths_for_days(5, 10).len(), 1);
        assert!(DatasetStore::file_sizes(&paths) > 0);
    }

    #[test]
    fn day_range_scan_streams_across_datasets() {
        let root = ScratchDir::new("dayscan");
        let mut store = DatasetStore::create(&root, WindowSpec::PEMS).unwrap();
        fill(&mut store, DatasetId::new(1), 0, 3);
        fill(&mut store, DatasetId::new(2), 3, 3);
        let stats = IoStats::shared();
        // Days 2..5: one day from D1, two from D2 → 3 × 5 atypical records.
        let records: Vec<AtypicalRecord> = store
            .scan_atypical_days(2, 3, stats.clone())
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(records.len(), 15);
        assert_eq!(stats.snapshot().files_opened, 3);
        // A range with a hole (days 4..12, only 4–5 exist) still works.
        let tail: Vec<_> = store
            .scan_atypical_days(4, 8, IoStats::shared())
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(tail.len(), 10);
        // An entirely unregistered range yields nothing.
        assert_eq!(
            store.scan_atypical_days(50, 5, IoStats::shared()).count(),
            0
        );
    }

    #[test]
    fn atypical_fraction_reported() {
        let root = ScratchDir::new("fraction");
        let mut store = DatasetStore::create(&root, WindowSpec::PEMS).unwrap();
        fill(&mut store, DatasetId::new(1), 0, 1);
        let meta = store.dataset(DatasetId::new(1)).unwrap();
        assert!((meta.atypical_fraction() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn missing_dataset_is_not_found() {
        let root = ScratchDir::new("missing");
        let store = DatasetStore::create(&root, WindowSpec::PEMS).unwrap();
        assert!(matches!(
            store.dataset(DatasetId::new(9)),
            Err(CpsError::NotFound(_))
        ));
    }

    #[test]
    fn corrupt_catalog_is_reported() {
        let root = ScratchDir::new("badcat");
        DatasetStore::create(&root, WindowSpec::PEMS).unwrap();
        std::fs::write(root.join("catalog.json"), "{not json").unwrap();
        assert!(matches!(
            DatasetStore::open(&root),
            Err(CpsError::Corrupt { .. })
        ));
    }
}
