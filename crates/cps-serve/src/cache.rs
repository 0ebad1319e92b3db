//! Sharded result cache over [`ReadView`](crate::view::ReadView) queries,
//! with epoch-based invalidation.
//!
//! ## Validity stamps
//!
//! Every entry records how long its value stays correct:
//!
//! - [`Stamp::Immutable`] — the query range was fully sealed (every day in
//!   `persisted_days`) when the entry was computed. Sealed day buckets and
//!   their retained `F` vectors never change again, so the entry is valid
//!   forever. This is where the hit rate comes from: operators hammer
//!   recent *historical* ranges (the dashboard's trends panel) whose
//!   answers are stable.
//! - [`Stamp::Epoch`]`(e)` — the range overlapped live days at computation
//!   time; the entry is valid only while the current publication epoch is
//!   still `e`. Any publication — a finalized cluster, a window advance,
//!   or a day seal — invalidates it, so a reader can never observe a
//!   result older than the snapshot it pins.
//!
//! A lookup that finds an entry with a dead stamp removes it and counts a
//! *stale* (distinct from a plain miss) — the hit/miss/stale triple is the
//! operator's signal for tuning the publication cadence against the cache
//! size.

use cps_core::fx::FxHashMap;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Which query produced a cached value; part of the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// [`ReadView::red_regions`](crate::view::ReadView::red_regions).
    RedRegions,
    /// [`ReadView::query_guided`](crate::view::ReadView::query_guided).
    Guided,
    /// [`ReadView::significant_clusters`](crate::view::ReadView::significant_clusters).
    Significant,
    /// [`ReadView::micro_clusters_for_day`](crate::view::ReadView::micro_clusters_for_day).
    MicrosForDay,
}

/// Cache key: the query kind plus its whole-day range. Thresholds and the
/// region partition are service-global (fixed at start), so they live in
/// the [`ServeContext`](crate::view::ServeContext) rather than the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// The query kind.
    pub kind: QueryKind,
    /// First day of the range.
    pub first_day: u32,
    /// Days in the range (1 for [`QueryKind::MicrosForDay`]).
    pub n_days: u32,
}

/// Validity stamp of one cache entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stamp {
    /// Computed over a fully-sealed range: valid forever.
    Immutable,
    /// Valid only while the publication epoch equals the payload.
    Epoch(u64),
}

impl Stamp {
    fn valid_at(self, epoch: u64) -> bool {
        match self {
            Stamp::Immutable => true,
            Stamp::Epoch(e) => e == epoch,
        }
    }
}

struct Entry<V> {
    value: V,
    stamp: Stamp,
}

/// One cache shard: an independently locked map.
type Shard<V> = Mutex<FxHashMap<QueryKey, Entry<V>>>;

/// Hit/miss/stale counters (point-in-time copy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a valid entry.
    pub hits: u64,
    /// Lookups with no entry present.
    pub misses: u64,
    /// Lookups that found an entry invalidated by a newer epoch (the
    /// entry is evicted on the spot).
    pub stale: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Entries evicted to respect the per-shard capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over all lookups (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.stale;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded query-result cache. Shards are independent mutexes picked by
/// key hash, so concurrent readers on different ranges rarely contend;
/// the value type is an `Arc`-style cheap clone chosen by the caller.
pub struct ResultCache<V> {
    shards: Box<[Shard<V>]>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> ResultCache<V> {
    /// A cache of `shards` independent maps, `capacity` entries total.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = (capacity / shards).max(1);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &QueryKey) -> usize {
        // A cheap deterministic spread: kind ⊕ day-range, golden-ratio
        // mixed. The key space is small and structured, so multiplication
        // beats relying on the low bits.
        let raw = (key.first_day as u64) << 32 | (key.n_days as u64) << 3 | key.kind as u64;
        (raw.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.shards.len()
    }

    /// Looks up `key`, treating entries whose stamp died before `epoch`
    /// as absent (and evicting them).
    pub fn get(&self, key: &QueryKey, epoch: u64) -> Option<V> {
        let mut shard = self.shards[self.shard_of(key)].lock();
        match shard.get(key) {
            Some(entry) if entry.stamp.valid_at(epoch) => {
                self.hits.fetch_add(1, Relaxed);
                Some(entry.value.clone())
            }
            Some(_) => {
                shard.remove(key);
                self.stale.fetch_add(1, Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Relaxed);
                None
            }
        }
    }

    /// Inserts a computed value. When the shard is full, dead-stamped
    /// entries are evicted first; if none are dead, an arbitrary resident
    /// entry makes room (the map is small and rebuilt cheaply — an LRU
    /// chain is not worth its locking overhead here).
    pub fn insert(&self, key: QueryKey, value: V, stamp: Stamp, epoch: u64) {
        let mut shard = self.shards[self.shard_of(&key)].lock();
        if shard.len() >= self.capacity_per_shard && !shard.contains_key(&key) {
            let before = shard.len();
            shard.retain(|_, e| e.stamp.valid_at(epoch));
            if shard.len() >= self.capacity_per_shard {
                if let Some(&victim) = shard.keys().next() {
                    shard.remove(&victim);
                }
            }
            self.evictions
                .fetch_add((before - shard.len()) as u64, Relaxed);
        }
        shard.insert(key, Entry { value, stamp });
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            stale: self.stale.load(Relaxed),
            entries: self.shards.iter().map(|s| s.lock().len() as u64).sum(),
            evictions: self.evictions.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(first_day: u32, n_days: u32) -> QueryKey {
        QueryKey {
            kind: QueryKind::RedRegions,
            first_day,
            n_days,
        }
    }

    #[test]
    fn immutable_entries_survive_epoch_changes() {
        let cache: ResultCache<u64> = ResultCache::new(4, 64);
        cache.insert(key(0, 3), 42, Stamp::Immutable, 1);
        assert_eq!(cache.get(&key(0, 3), 1), Some(42));
        assert_eq!(cache.get(&key(0, 3), 999), Some(42));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stale), (2, 0, 0));
        assert!(stats.hit_rate() > 0.99);
    }

    #[test]
    fn epoch_entries_go_stale_on_publication() {
        let cache: ResultCache<u64> = ResultCache::new(1, 8);
        cache.insert(key(5, 1), 7, Stamp::Epoch(10), 10);
        assert_eq!(cache.get(&key(5, 1), 10), Some(7));
        assert_eq!(cache.get(&key(5, 1), 11), None, "newer epoch invalidates");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.stale), (1, 1));
        // The stale lookup evicted the entry: the next one is a plain miss.
        assert_eq!(cache.get(&key(5, 1), 11), None);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn capacity_evicts_dead_entries_first() {
        let cache: ResultCache<u64> = ResultCache::new(1, 2);
        cache.insert(key(0, 1), 1, Stamp::Epoch(1), 1);
        cache.insert(key(1, 1), 2, Stamp::Immutable, 1);
        // Shard full; inserting at epoch 2 sweeps the dead epoch-1 entry.
        cache.insert(key(2, 1), 3, Stamp::Immutable, 2);
        assert_eq!(cache.get(&key(1, 1), 2), Some(2), "live entry kept");
        assert_eq!(cache.get(&key(2, 1), 2), Some(3));
        assert!(cache.stats().evictions >= 1);
        assert!(cache.stats().entries <= 2);
    }

    #[test]
    fn distinct_kinds_do_not_collide() {
        let cache: ResultCache<u64> = ResultCache::new(2, 16);
        let guided = QueryKey {
            kind: QueryKind::Guided,
            first_day: 0,
            n_days: 1,
        };
        cache.insert(key(0, 1), 1, Stamp::Immutable, 0);
        cache.insert(guided, 2, Stamp::Immutable, 0);
        assert_eq!(cache.get(&key(0, 1), 0), Some(1));
        assert_eq!(cache.get(&guided, 0), Some(2));
    }
}
