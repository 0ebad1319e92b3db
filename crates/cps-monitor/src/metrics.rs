//! Service counters and the operator-facing [`MetricsSnapshot`].

use crate::admission::QuarantineReason;
use cps_serve::DegradeStats;
use cps_storage::RetryStats;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Lock-free counters shared by the ingest path, workers, and merger.
///
/// All counters are monotone except the per-shard queue-depth gauges and
/// the live macro-cluster gauge.
#[derive(Debug)]
pub struct Metrics {
    /// Records accepted into a shard channel.
    pub records_ingested: AtomicU64,
    /// Records rejected because a shard channel was full (`overflow = "drop"`).
    pub records_dropped: AtomicU64,
    /// Per-shard sub-batches sent through the batch ingest path
    /// (`ingest_batch`); records they carry count in `records_ingested`.
    pub batches_ingested: AtomicU64,
    /// Shard-map rebalance epochs committed (adaptive rebalancing).
    pub rebalances: AtomicU64,
    /// Raw events sealed by the shard workers.
    pub events_sealed: AtomicU64,
    /// Sealed events that touched a shard boundary and entered the
    /// reconciliation pool.
    pub boundary_events: AtomicU64,
    /// Union operations joining sealed events across shards.
    pub cross_shard_merges: AtomicU64,
    /// Micro-clusters admitted into the live forest.
    pub micro_clusters: AtomicU64,
    /// Reconciled events discarded by the trust filter (fewer than
    /// `min_event_records` records).
    pub events_discarded: AtomicU64,
    /// Live macro-clusters after the latest incremental integration.
    pub macro_clusters: AtomicU64,
    /// Result-set members never compared during live integration because
    /// they shared no sensor and no window with the arriving cluster
    /// (gauge).
    pub integration_candidates_pruned: AtomicU64,
    /// Candidate comparisons skipped because the admissible similarity
    /// upper bound already ruled them out (gauge).
    pub integration_bound_skips: AtomicU64,
    /// Similarity evaluations performed by live integration so far
    /// (gauge).
    pub integration_comparisons: AtomicU64,
    /// Merges performed by live integration so far (gauge).
    pub integration_merges: AtomicU64,
    /// Read-model snapshots published through the serving cell.
    pub snapshots_published: AtomicU64,
    /// Day buckets persisted to the snapshot store.
    pub days_persisted: AtomicU64,
    /// Bytes written to the snapshot store.
    pub snapshot_bytes: AtomicU64,
    /// Shard workers observed dead (send to their channel failed, or
    /// their thread panicked). Cumulative: a respawned worker's death
    /// stays counted here — `dead_shards` reflects current liveness.
    pub workers_dead: AtomicU64,
    /// Entries appended to the ingest write-ahead logs.
    pub wal_appends: AtomicU64,
    /// Framed bytes appended to the ingest write-ahead logs.
    pub wal_bytes: AtomicU64,
    /// Quiescent checkpoints committed.
    pub checkpoints: AtomicU64,
    /// Full restart recoveries performed (1 for a service built by
    /// `recover`, 0 otherwise).
    pub recoveries: AtomicU64,
    /// Shard workers respawned from checkpoint + WAL replay.
    pub respawns: AtomicU64,
    /// Shards declared permanently failed (respawn budget spent).
    pub permanently_failed: AtomicU64,
    /// Quiescent checkpoints that failed and were rescheduled (PR 5
    /// swallowed these; they are now typed and counted).
    pub checkpoint_failures: AtomicU64,
    /// Records shed by admission control on a full shard channel
    /// (`admission.shed`); never incremented while shedding is off.
    pub records_shed: AtomicU64,
    /// Records diverted to the dead-letter buffer (`admission.quarantine`),
    /// any reason.
    pub records_quarantined: AtomicU64,
    /// Quarantined records whose sensor the network does not have.
    pub quarantined_malformed: AtomicU64,
    /// Quarantined records out of order beyond the configured tolerance.
    pub quarantined_out_of_order: AtomicU64,
    /// Quarantined duplicate `(sensor, window)` records.
    pub quarantined_duplicate: AtomicU64,
    shed_per_shard: Vec<AtomicU64>,
    retry: OnceLock<Arc<RetryStats>>,
    degrade: OnceLock<Arc<DegradeStats>>,
    queue_depths: Vec<AtomicUsize>,
    /// Per-shard dead flags; set-once through [`Metrics::mark_worker_dead`]
    /// so concurrent observers (ingest, merger, `finish`) count each death
    /// exactly once.
    dead_flags: Vec<AtomicBool>,
}

impl Metrics {
    /// Zeroed counters for `num_shards` workers.
    pub fn new(num_shards: usize) -> Self {
        Self {
            records_ingested: AtomicU64::new(0),
            records_dropped: AtomicU64::new(0),
            batches_ingested: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            events_sealed: AtomicU64::new(0),
            boundary_events: AtomicU64::new(0),
            cross_shard_merges: AtomicU64::new(0),
            micro_clusters: AtomicU64::new(0),
            events_discarded: AtomicU64::new(0),
            macro_clusters: AtomicU64::new(0),
            integration_candidates_pruned: AtomicU64::new(0),
            integration_bound_skips: AtomicU64::new(0),
            integration_comparisons: AtomicU64::new(0),
            integration_merges: AtomicU64::new(0),
            snapshots_published: AtomicU64::new(0),
            days_persisted: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
            workers_dead: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            permanently_failed: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
            records_shed: AtomicU64::new(0),
            records_quarantined: AtomicU64::new(0),
            quarantined_malformed: AtomicU64::new(0),
            quarantined_out_of_order: AtomicU64::new(0),
            quarantined_duplicate: AtomicU64::new(0),
            shed_per_shard: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
            retry: OnceLock::new(),
            degrade: OnceLock::new(),
            queue_depths: (0..num_shards).map(|_| AtomicUsize::new(0)).collect(),
            dead_flags: (0..num_shards).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Marks one shard's worker dead. Idempotent: the first caller (the
    /// ingest path on a failed send, the merger on a missing `Done`, or
    /// `finish` on a panicked join) increments `workers_dead`; later calls
    /// are no-ops. Returns whether this call was the first.
    pub fn mark_worker_dead(&self, shard: usize) -> bool {
        let first = !self.dead_flags[shard].swap(true, Ordering::Relaxed);
        if first {
            self.workers_dead.fetch_add(1, Ordering::Relaxed);
        }
        first
    }

    /// Clears one shard's dead flag after a successful respawn: the shard
    /// is live again, so it leaves `dead_shards`, while the cumulative
    /// `workers_dead` count keeps the death on record.
    pub fn unmark_worker_dead(&self, shard: usize) {
        self.dead_flags[shard].store(false, Ordering::Relaxed);
    }

    /// Whether `shard`'s worker has been marked dead.
    pub fn worker_dead(&self, shard: usize) -> bool {
        self.dead_flags[shard].load(Ordering::Relaxed)
    }

    /// Shards whose worker has been marked dead.
    pub fn dead_shards(&self) -> Vec<usize> {
        (0..self.dead_flags.len())
            .filter(|&s| self.worker_dead(s))
            .collect()
    }

    /// Updates one shard's queue-depth gauge (called by its worker).
    pub fn set_queue_depth(&self, shard: usize, depth: usize) {
        self.queue_depths[shard].store(depth, Ordering::Relaxed);
    }

    /// Counts `n` records shed on `shard`'s full channel.
    pub fn count_shed(&self, shard: usize, n: u64) {
        self.records_shed.fetch_add(n, Ordering::Relaxed);
        self.shed_per_shard[shard].fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one record diverted to the dead-letter buffer.
    pub fn count_quarantined(&self, reason: QuarantineReason) {
        self.records_quarantined.fetch_add(1, Ordering::Relaxed);
        let by_reason = match reason {
            QuarantineReason::Malformed => &self.quarantined_malformed,
            QuarantineReason::OutOfOrder => &self.quarantined_out_of_order,
            QuarantineReason::Duplicate => &self.quarantined_duplicate,
        };
        by_reason.fetch_add(1, Ordering::Relaxed);
    }

    /// Attaches the storage retry counters (set once at service start
    /// when the durability subsystem wraps its I/O in a
    /// [`cps_storage::RetryIo`]); they then surface in every snapshot.
    pub fn set_retry_stats(&self, stats: Arc<RetryStats>) {
        let _ = self.retry.set(stats);
    }

    /// Attaches the serving layer's deadline counters (set once at
    /// service start); they then surface in every snapshot.
    pub fn set_degrade_stats(&self, stats: Arc<DegradeStats>) {
        let _ = self.degrade.set(stats);
    }

    /// Point-in-time copy of every counter; `elapsed` is the service
    /// uptime used for the ingest rate.
    pub fn snapshot(&self, elapsed: Duration) -> MetricsSnapshot {
        let records_ingested = self.records_ingested.load(Ordering::Relaxed);
        let secs = elapsed.as_secs_f64();
        MetricsSnapshot {
            records_ingested,
            records_dropped: self.records_dropped.load(Ordering::Relaxed),
            batches_ingested: self.batches_ingested.load(Ordering::Relaxed),
            rebalances: self.rebalances.load(Ordering::Relaxed),
            records_per_sec: if secs > 0.0 {
                records_ingested as f64 / secs
            } else {
                0.0
            },
            events_sealed: self.events_sealed.load(Ordering::Relaxed),
            boundary_events: self.boundary_events.load(Ordering::Relaxed),
            cross_shard_merges: self.cross_shard_merges.load(Ordering::Relaxed),
            micro_clusters: self.micro_clusters.load(Ordering::Relaxed),
            events_discarded: self.events_discarded.load(Ordering::Relaxed),
            macro_clusters: self.macro_clusters.load(Ordering::Relaxed),
            integration_candidates_pruned: self
                .integration_candidates_pruned
                .load(Ordering::Relaxed),
            integration_bound_skips: self.integration_bound_skips.load(Ordering::Relaxed),
            integration_comparisons: self.integration_comparisons.load(Ordering::Relaxed),
            integration_merges: self.integration_merges.load(Ordering::Relaxed),
            snapshots_published: self.snapshots_published.load(Ordering::Relaxed),
            days_persisted: self.days_persisted.load(Ordering::Relaxed),
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
            workers_dead: self.workers_dead.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            permanently_failed: self.permanently_failed.load(Ordering::Relaxed),
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
            records_shed: self.records_shed.load(Ordering::Relaxed),
            shed_per_shard: self
                .shed_per_shard
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .collect(),
            records_quarantined: self.records_quarantined.load(Ordering::Relaxed),
            quarantined_malformed: self.quarantined_malformed.load(Ordering::Relaxed),
            quarantined_out_of_order: self.quarantined_out_of_order.load(Ordering::Relaxed),
            quarantined_duplicate: self.quarantined_duplicate.load(Ordering::Relaxed),
            io_retries: self
                .retry
                .get()
                .map_or(0, |r| r.io_retries.load(Ordering::Relaxed)),
            retries_exhausted: self
                .retry
                .get()
                .map_or(0, |r| r.retries_exhausted.load(Ordering::Relaxed)),
            queries_degraded: self
                .degrade
                .get()
                .map_or(0, |d| d.queries_degraded.load(Ordering::Relaxed)),
            deadline_overruns: self
                .degrade
                .get()
                .map_or(0, |d| d.deadline_overruns.load(Ordering::Relaxed)),
            dead_shards: self.dead_shards(),
            queue_depths: self
                .queue_depths
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
            elapsed,
        }
    }
}

/// One observation of the service's counters. See [`Metrics`] for the
/// meaning of each field.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    pub records_ingested: u64,
    pub records_dropped: u64,
    pub batches_ingested: u64,
    pub rebalances: u64,
    pub records_per_sec: f64,
    pub events_sealed: u64,
    pub boundary_events: u64,
    pub cross_shard_merges: u64,
    pub micro_clusters: u64,
    pub events_discarded: u64,
    pub macro_clusters: u64,
    pub integration_candidates_pruned: u64,
    pub integration_bound_skips: u64,
    pub integration_comparisons: u64,
    pub integration_merges: u64,
    pub snapshots_published: u64,
    pub days_persisted: u64,
    pub snapshot_bytes: u64,
    pub workers_dead: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
    pub recoveries: u64,
    pub respawns: u64,
    pub permanently_failed: u64,
    pub checkpoint_failures: u64,
    pub records_shed: u64,
    pub shed_per_shard: Vec<u64>,
    pub records_quarantined: u64,
    pub quarantined_malformed: u64,
    pub quarantined_out_of_order: u64,
    pub quarantined_duplicate: u64,
    pub io_retries: u64,
    pub retries_exhausted: u64,
    pub queries_degraded: u64,
    pub deadline_overruns: u64,
    pub dead_shards: Vec<usize>,
    pub queue_depths: Vec<usize>,
    pub elapsed: Duration,
}

impl MetricsSnapshot {
    /// The backpressure gauge: the deepest shard channel at snapshot
    /// time. A value pinned near the channel capacity means the feed is
    /// outrunning the workers — the condition `admission.shed` relieves.
    pub fn backpressure(&self) -> usize {
        self.queue_depths.iter().copied().max().unwrap_or(0)
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "records ingested    {:>10}  ({:.0} records/s over {:.2?})",
            self.records_ingested, self.records_per_sec, self.elapsed
        )?;
        writeln!(f, "records dropped     {:>10}", self.records_dropped)?;
        writeln!(
            f,
            "batches ingested    {:>10}  ({} rebalances)",
            self.batches_ingested, self.rebalances
        )?;
        writeln!(
            f,
            "events sealed       {:>10}  ({} boundary, {} cross-shard merges)",
            self.events_sealed, self.boundary_events, self.cross_shard_merges
        )?;
        writeln!(
            f,
            "micro-clusters      {:>10}  ({} discarded by trust filter)",
            self.micro_clusters, self.events_discarded
        )?;
        writeln!(
            f,
            "macro-clusters      {:>10}  ({} pruned, {} bound-skipped)",
            self.macro_clusters, self.integration_candidates_pruned, self.integration_bound_skips
        )?;
        writeln!(
            f,
            "integration work    {:>10}  comparisons ({} merges)",
            self.integration_comparisons, self.integration_merges
        )?;
        writeln!(f, "snapshots published {:>10}", self.snapshots_published)?;
        writeln!(
            f,
            "days persisted      {:>10}  ({} bytes)",
            self.days_persisted, self.snapshot_bytes
        )?;
        writeln!(
            f,
            "wal appends         {:>10}  ({} bytes, {} checkpoints)",
            self.wal_appends, self.wal_bytes, self.checkpoints
        )?;
        writeln!(
            f,
            "recoveries          {:>10}  ({} respawns, {} permanently failed)",
            self.recoveries, self.respawns, self.permanently_failed
        )?;
        writeln!(
            f,
            "workers dead        {:>10}  {:?}",
            self.workers_dead, self.dead_shards
        )?;
        writeln!(f, "checkpoint failures {:>10}", self.checkpoint_failures)?;
        writeln!(
            f,
            "records shed        {:>10}  {:?}",
            self.records_shed, self.shed_per_shard
        )?;
        writeln!(
            f,
            "records quarantined {:>10}  ({} malformed, {} out-of-order, {} duplicate)",
            self.records_quarantined,
            self.quarantined_malformed,
            self.quarantined_out_of_order,
            self.quarantined_duplicate
        )?;
        writeln!(
            f,
            "io retries          {:>10}  ({} budgets exhausted)",
            self.io_retries, self.retries_exhausted
        )?;
        writeln!(
            f,
            "queries degraded    {:>10}  ({} deadline overruns)",
            self.queries_degraded, self.deadline_overruns
        )?;
        write!(f, "queue depths        {:?}", self.queue_depths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters_and_computes_rate() {
        let m = Metrics::new(2);
        m.records_ingested.store(500, Ordering::Relaxed);
        m.set_queue_depth(1, 7);
        let snap = m.snapshot(Duration::from_secs(2));
        assert_eq!(snap.records_ingested, 500);
        assert_eq!(snap.records_per_sec, 250.0);
        assert_eq!(snap.queue_depths, vec![0, 7]);
        assert_eq!(snap.backpressure(), 7);
        let text = snap.to_string();
        assert!(text.contains("records ingested"), "{text}");
        assert!(text.contains("250 records/s"), "{text}");
    }

    #[test]
    fn degradation_counters_flow_into_snapshots() {
        let m = Metrics::new(2);
        m.checkpoint_failures.fetch_add(2, Ordering::Relaxed);
        m.count_shed(1, 5);
        m.count_quarantined(QuarantineReason::Malformed);
        m.count_quarantined(QuarantineReason::OutOfOrder);
        m.count_quarantined(QuarantineReason::OutOfOrder);
        m.count_quarantined(QuarantineReason::Duplicate);
        let retry = Arc::new(RetryStats::default());
        retry.io_retries.fetch_add(4, Ordering::Relaxed);
        retry.retries_exhausted.fetch_add(1, Ordering::Relaxed);
        m.set_retry_stats(retry);
        let degrade = Arc::new(DegradeStats::default());
        degrade.queries_degraded.fetch_add(3, Ordering::Relaxed);
        m.set_degrade_stats(degrade);

        let snap = m.snapshot(Duration::from_secs(1));
        assert_eq!(snap.checkpoint_failures, 2);
        assert_eq!(snap.records_shed, 5);
        assert_eq!(snap.shed_per_shard, vec![0, 5]);
        assert_eq!(snap.records_quarantined, 4);
        assert_eq!(snap.quarantined_malformed, 1);
        assert_eq!(snap.quarantined_out_of_order, 2);
        assert_eq!(snap.quarantined_duplicate, 1);
        assert_eq!(snap.io_retries, 4);
        assert_eq!(snap.retries_exhausted, 1);
        assert_eq!(snap.queries_degraded, 3);
        assert_eq!(snap.deadline_overruns, 0);
        let text = snap.to_string();
        assert!(text.contains("records quarantined"), "{text}");
        assert!(text.contains("io retries"), "{text}");
        assert!(text.contains("checkpoint failures"), "{text}");
    }

    #[test]
    fn unattached_stats_read_as_zero() {
        let snap = Metrics::new(1).snapshot(Duration::from_secs(1));
        assert_eq!(snap.io_retries, 0);
        assert_eq!(snap.queries_degraded, 0);
    }
}
