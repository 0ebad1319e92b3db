//! Per-query deadline budgets and explicitly-stamped degraded answers.
//!
//! Under fault pressure (slow disks, reader storms) a storage-backed
//! query can take arbitrarily long. The deadline path bounds it: the
//! caller grants a time budget, and once the budget is spent the query
//! stops issuing *new* storage reads and answers from what it already
//! has — the pinned snapshot's live days plus every sealed day loaded so
//! far. The answer is never a hang and never silently partial: a
//! [`Degraded`] response carries the pinned epoch pair (the staleness
//! stamp) and the exact days omitted, and the serving layer counts every
//! degraded answer and every budget overrun in [`DegradeStats`].
//!
//! A deadline can only bound work *between* storage reads — one read
//! already in flight when the budget expires still completes — so the
//! guarantee is "no query exceeds its deadline by more than one storage
//! read", mirroring the monitor's one-poll-interval bound.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// A per-query time budget, started when constructed.
#[derive(Clone, Debug)]
pub(crate) struct QueryDeadline {
    start: Instant,
    budget: Duration,
}

impl QueryDeadline {
    /// Starts a budget of `budget` from now.
    pub fn new(budget: Duration) -> Self {
        Self {
            start: Instant::now(),
            budget,
        }
    }

    /// Time spent since the budget started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.elapsed() >= self.budget
    }
}

/// A query answer that may be degraded: served from the pinned (last
/// published) epoch with some sealed days omitted because their storage
/// reads did not fit the deadline budget.
#[derive(Clone, Debug, PartialEq)]
pub struct Degraded<T> {
    /// The (possibly partial) answer.
    pub value: T,
    /// Publication epoch the answer was served from — the explicit
    /// staleness stamp. Always the freshest epoch published when the
    /// query pinned its view.
    pub epoch: u64,
    /// Day-seal epoch of the pinned snapshot.
    pub seal_epoch: u64,
    /// Whether any part of the answer was omitted. Equivalent to
    /// `!days_omitted.is_empty()`.
    pub degraded: bool,
    /// Sealed days whose storage reads were skipped, in ascending order.
    /// Live (in-memory) days are always served regardless of budget.
    pub days_omitted: Vec<u32>,
    /// Time the query actually took.
    pub elapsed: Duration,
}

impl<T> Degraded<T> {
    /// Maps the answer while keeping the degradation stamps.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Degraded<U> {
        Degraded {
            value: f(self.value),
            epoch: self.epoch,
            seal_epoch: self.seal_epoch,
            degraded: self.degraded,
            days_omitted: self.days_omitted,
            elapsed: self.elapsed,
        }
    }
}

/// Counters of the deadline path, shared by every handle of one serving
/// state. Monotone; read them with [`Relaxed`] loads.
#[derive(Debug, Default)]
pub struct DegradeStats {
    /// Deadline queries answered with at least one day omitted.
    pub queries_degraded: AtomicU64,
    /// Deadline queries that finished past their budget anyway (a
    /// storage read was already in flight when the budget expired).
    pub deadline_overruns: AtomicU64,
}

impl DegradeStats {
    /// Point-in-time copy `(queries_degraded, deadline_overruns)`.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.queries_degraded.load(Relaxed),
            self.deadline_overruns.load(Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_expires_immediately() {
        let d = QueryDeadline::new(Duration::ZERO);
        assert!(d.expired());
    }

    #[test]
    fn generous_budget_is_not_expired() {
        let d = QueryDeadline::new(Duration::from_secs(3600));
        assert!(!d.expired());
    }

    #[test]
    fn degraded_map_keeps_stamps() {
        let d = Degraded {
            value: 3u32,
            epoch: 7,
            seal_epoch: 2,
            degraded: true,
            days_omitted: vec![4, 5],
            elapsed: Duration::from_millis(12),
        };
        let mapped = d.map(|v| v * 2);
        assert_eq!(mapped.value, 6);
        assert_eq!(mapped.epoch, 7);
        assert_eq!(mapped.seal_epoch, 2);
        assert!(mapped.degraded);
        assert_eq!(mapped.days_omitted, vec![4, 5]);
    }

    #[test]
    fn stats_snapshot_reads_counters() {
        let s = DegradeStats::default();
        s.queries_degraded.fetch_add(3, Relaxed);
        s.deadline_overruns.fetch_add(1, Relaxed);
        assert_eq!(s.snapshot(), (3, 1));
    }
}
