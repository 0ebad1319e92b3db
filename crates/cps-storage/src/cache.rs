//! Decoded-partition LRU cache.
//!
//! The online query experiments (Figures 17–19) repeatedly load the same
//! per-day atypical partitions while sweeping query ranges and thresholds.
//! [`PartitionCache`] keeps whole decoded partitions in memory under a byte
//! budget with LRU eviction, so sweeps pay the disk + decode cost once per
//! day instead of once per query.

use crate::iostats::IoStats;
use crate::reader::PartitionReader;
use cps_core::{AtypicalRecord, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const RECORD_MEM_SIZE: u64 = std::mem::size_of::<AtypicalRecord>() as u64;

struct CacheInner {
    /// path → (records, last-use tick)
    entries: HashMap<PathBuf, (Arc<Vec<AtypicalRecord>>, u64)>,
    bytes: u64,
    tick: u64,
}

/// LRU cache of decoded atypical partitions.
pub struct PartitionCache {
    inner: Mutex<CacheInner>,
    capacity_bytes: u64,
    stats: Arc<IoStats>,
}

impl PartitionCache {
    /// Creates a cache holding at most `capacity_bytes` of decoded records.
    pub fn new(capacity_bytes: u64, stats: Arc<IoStats>) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            capacity_bytes,
            stats,
        }
    }

    /// Loads (or returns the cached) decoded records of one atypical
    /// partition.
    pub fn load(&self, path: &Path) -> Result<Arc<Vec<AtypicalRecord>>> {
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((records, last)) = inner.entries.get_mut(path) {
                *last = tick;
                self.stats.add_cache_hit();
                return Ok(Arc::clone(records));
            }
        }
        self.stats.add_cache_miss();
        // Decode outside the lock: concurrent misses may read the same file
        // twice, but never block each other on I/O.
        let reader = PartitionReader::open(path, Arc::clone(&self.stats))?;
        let records: Vec<AtypicalRecord> = reader.atypical_records().collect::<Result<Vec<_>>>()?;
        let records = Arc::new(records);
        let size = records.len() as u64 * RECORD_MEM_SIZE;

        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner
            .entries
            .insert(path.to_owned(), (Arc::clone(&records), tick));
        inner.bytes += size;
        // Evict the least recently used entries until under budget.
        while inner.bytes > self.capacity_bytes && inner.entries.len() > 1 {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(p, _)| p.clone())
                .expect("non-empty");
            if victim == path {
                break; // never evict the entry we are returning
            }
            if let Some((recs, _)) = inner.entries.remove(&victim) {
                inner.bytes -= recs.len() as u64 * RECORD_MEM_SIZE;
            }
        }
        Ok(records)
    }

    /// Number of cached partitions.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current decoded-bytes footprint.
    pub fn bytes(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// Drops every entry.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::RecordKind;
    use crate::writer::PartitionWriter;
    use cps_core::ScratchDir;
    use cps_core::{SensorId, Severity, TimeWindow};

    fn write_partition(path: &Path, n: u32) {
        let mut w = PartitionWriter::create(path, RecordKind::Atypical).unwrap();
        for i in 0..n {
            w.write_atypical(&AtypicalRecord::new(
                SensorId::new(i),
                TimeWindow::new(i),
                Severity::from_secs(60),
            ))
            .unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn second_load_hits_cache() {
        let dir = ScratchDir::new("hits");
        let p = dir.join("a.cps");
        write_partition(&p, 100);
        let stats = IoStats::shared();
        let cache = PartitionCache::new(1 << 20, stats.clone());
        let a = cache.load(&p).unwrap();
        let b = cache.load(&p).unwrap();
        assert_eq!(a.len(), 100);
        assert!(Arc::ptr_eq(&a, &b));
        let snap = stats.snapshot();
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.files_opened, 1, "disk touched once");
    }

    #[test]
    fn lru_evicts_oldest_under_pressure() {
        let dir = ScratchDir::new("evict");
        let paths: Vec<PathBuf> = (0..4)
            .map(|i| {
                let p = dir.join(format!("{i}.cps"));
                write_partition(&p, 100);
                p
            })
            .collect();
        // Capacity for about two partitions.
        let per = 100 * RECORD_MEM_SIZE;
        let cache = PartitionCache::new(2 * per, IoStats::shared());
        cache.load(&paths[0]).unwrap();
        cache.load(&paths[1]).unwrap();
        cache.load(&paths[2]).unwrap(); // evicts paths[0]
        assert!(cache.len() <= 2);
        assert!(cache.bytes() <= 2 * per);
    }

    #[test]
    fn clear_empties_cache() {
        let dir = ScratchDir::new("clear");
        let p = dir.join("a.cps");
        write_partition(&p, 10);
        let cache = PartitionCache::new(1 << 20, IoStats::shared());
        cache.load(&p).unwrap();
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn concurrent_loads_are_safe() {
        let dir = ScratchDir::new("conc");
        let p = dir.join("a.cps");
        write_partition(&p, 500);
        let cache = Arc::new(PartitionCache::new(1 << 20, IoStats::shared()));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let p = p.clone();
                std::thread::spawn(move || cache.load(&p).unwrap().len())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 500);
        }
    }
}
