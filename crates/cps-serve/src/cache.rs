//! Result cache over [`ReadView`](crate::ReadView) queries, with
//! epoch-based invalidation: one map behind one mutex, held for a hash
//! probe per lookup or insert.
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
//!   time; the entry answers only a reader pinned at epoch `e`. Any
//!   publication — a finalized cluster, a window advance, or a day seal —
//!   kills it for every later reader, so a reader can never observe a
//!   result older than the snapshot it pins.
//!
//! Readers pin independently, so a reader may look up an entry stored by
//! a reader pinned at a *newer* epoch. That entry is a plain miss for the
//! older reader and stays for the newer ones: only entries older than the
//! reader's epoch are dead. A lookup that finds a dead entry removes it
//! and counts a *stale* (distinct from a plain miss) — the hit/miss/stale
//! triple is the operator's signal for tuning the publication cadence
//! against the cache size.

use cps_core::fx::FxHashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Which query produced a cached value; part of the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum QueryKind {
    /// [`ReadView::red_regions`](crate::ReadView::red_regions).
    RedRegions,
    /// [`ReadView::query_guided`](crate::ReadView::query_guided).
    Guided,
    /// [`ReadView::significant_clusters`](crate::ReadView::significant_clusters).
    Significant,
    /// [`ReadView::micro_clusters_for_day`](crate::ReadView::micro_clusters_for_day).
    MicrosForDay,
}

/// Cache key: the query kind plus its whole-day range. Thresholds and the
/// region partition are service-global (fixed at start), so they live in
/// the [`ServeContext`](crate::ServeContext) rather than the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct QueryKey {
    /// The query kind.
    pub kind: QueryKind,
    /// First day of the range.
    pub first_day: u32,
    /// Days in the range (1 for [`QueryKind::MicrosForDay`]).
    pub n_days: u32,
}

/// Validity stamp of one cache entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stamp {
    /// Computed over a fully-sealed range: valid forever.
    Immutable,
    /// Computed at this publication epoch: valid for readers pinned there.
    Epoch(u64),
}

impl Stamp {
    fn valid_at(self, epoch: u64) -> bool {
        match self {
            Stamp::Immutable => true,
            Stamp::Epoch(e) => e == epoch,
        }
    }

    /// Computed at an epoch older than `epoch`: no reader pinned at
    /// `epoch` or later can use it.
    fn dead_at(self, epoch: u64) -> bool {
        matches!(self, Stamp::Epoch(e) if e < epoch)
    }
}

struct Entry<V> {
    value: V,
    stamp: Stamp,
}

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
    /// Entries evicted to respect the capacity.
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

/// The map and its counters, guarded together.
struct Inner<V> {
    map: FxHashMap<QueryKey, Entry<V>>,
    /// Every counter but `entries`, which is the map's length.
    stats: CacheStats,
}

/// A query-result cache of at most `capacity` entries. The value type is
/// an `Arc`-style cheap clone chosen by the caller.
pub(crate) struct ResultCache<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
}

impl<V: Clone> ResultCache<V> {
    /// An empty cache of at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                stats: CacheStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Every update under the lock is one map operation or one counter
    /// add, so a poisoned lock still guards a whole map and is recovered.
    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key` for a reader pinned at `epoch`. An entry from an
    /// older epoch is evicted and counted stale; one from a newer epoch
    /// is a miss and stays.
    pub fn get(&self, key: &QueryKey, epoch: u64) -> Option<V> {
        let inner = &mut *self.lock();
        match inner.map.get(key) {
            Some(entry) if entry.stamp.valid_at(epoch) => {
                inner.stats.hits += 1;
                Some(entry.value.clone())
            }
            Some(entry) if entry.stamp.dead_at(epoch) => {
                inner.map.remove(key);
                inner.stats.stale += 1;
                None
            }
            _ => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a value computed by a reader pinned at `epoch`, unless a
    /// live entry (immutable, or from this epoch or a newer one) already
    /// holds the key. When the cache is full, entries dead at `epoch` are
    /// evicted first; if none are dead, an arbitrary resident entry makes
    /// room (the map is small and rebuilt cheaply — an LRU chain is not
    /// worth its bookkeeping here).
    pub fn insert(&self, key: QueryKey, value: V, stamp: Stamp, epoch: u64) {
        let inner = &mut *self.lock();
        let map = &mut inner.map;
        match map.get(&key) {
            Some(entry) if !entry.stamp.dead_at(epoch) => return,
            Some(_) => {}
            None if map.len() >= self.capacity => {
                let before = map.len();
                map.retain(|_, e| !e.stamp.dead_at(epoch));
                if map.len() >= self.capacity {
                    if let Some(&victim) = map.keys().next() {
                        map.remove(&victim);
                    }
                }
                inner.stats.evictions += (before - map.len()) as u64;
            }
            None => {}
        }
        map.insert(key, Entry { value, stamp });
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.map.len() as u64,
            ..inner.stats
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
        let cache: ResultCache<u64> = ResultCache::new(64);
        cache.insert(key(0, 3), 42, Stamp::Immutable, 1);
        assert_eq!(cache.get(&key(0, 3), 1), Some(42));
        assert_eq!(cache.get(&key(0, 3), 999), Some(42));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stale), (2, 0, 0));
        assert!(stats.hit_rate() > 0.99);
    }

    #[test]
    fn epoch_entries_go_stale_on_publication() {
        let cache: ResultCache<u64> = ResultCache::new(8);
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
        let cache: ResultCache<u64> = ResultCache::new(2);
        cache.insert(key(0, 1), 1, Stamp::Epoch(1), 1);
        cache.insert(key(1, 1), 2, Stamp::Immutable, 1);
        // Cache full; inserting at epoch 2 sweeps the dead epoch-1 entry.
        cache.insert(key(2, 1), 3, Stamp::Immutable, 2);
        assert_eq!(cache.get(&key(1, 1), 2), Some(2), "live entry kept");
        assert_eq!(cache.get(&key(2, 1), 2), Some(3));
        assert!(cache.stats().evictions >= 1);
        assert!(cache.stats().entries <= 2);
    }

    #[test]
    fn distinct_kinds_do_not_collide() {
        let cache: ResultCache<u64> = ResultCache::new(16);
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

    #[test]
    fn older_reader_never_evicts_newer_entries() {
        let cache: ResultCache<u64> = ResultCache::new(2);
        // Reader B, pinned at epoch 11, stores its answer.
        cache.insert(key(0, 1), 11, Stamp::Epoch(11), 11);
        // Reader A, still pinned at 10: a plain miss, and B's entry stays.
        assert_eq!(cache.get(&key(0, 1), 10), None);
        assert_eq!((cache.stats().misses, cache.stats().stale), (1, 0));
        // A's answer does not overwrite B's.
        cache.insert(key(0, 1), 10, Stamp::Epoch(10), 10);
        assert_eq!(cache.get(&key(0, 1), 11), Some(11));
        // Full: A's capacity sweep drops only the entry older than A.
        cache.insert(key(1, 1), 9, Stamp::Epoch(9), 9);
        cache.insert(key(2, 1), 10, Stamp::Epoch(10), 10);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.get(&key(0, 1), 11), Some(11), "newer entry kept");
        assert_eq!(cache.get(&key(2, 1), 10), Some(10));
    }
}
