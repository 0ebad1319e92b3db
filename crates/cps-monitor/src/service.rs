//! The monitoring service: ingest routing, shard workers, and the
//! [`MonitorHandle`] read facade.
//!
//! ```text
//!                      ┌─ bounded channel ─ worker 0 (ShardStep) ─┐
//!  ingest ── ShardMap ─┼─ bounded channel ─ worker 1 (ShardStep) ─┼─ merger ─ live state
//!                      └─ bounded channel ─ worker N (ShardStep) ─┘      └──── ForestStore
//! ```
//!
//! Records are routed to the shard owning their sensor; window advances
//! are broadcast to every shard so all extractor clocks move together.
//! Channels are bounded: with [`OverflowPolicy::Block`] a full channel
//! exerts backpressure on the producer, with [`OverflowPolicy::Drop`] the
//! sub-batch is dropped and its records counted.
//!
//! ## One way in
//!
//! [`MonitorService::ingest_batch`] is the only ingest path
//! ([`MonitorService::ingest`] is the same call for one record): one
//! admission pass splits a struct-of-arrays [`RecordBatch`] into per-shard
//! sub-batches, one channel send per shard delivers them
//! (`OnlineExtractor::apply_batch` hoists the window-advance and seal
//! checks out of the per-record loop), and one WAL frame per shard
//! amortizes the CRC, `Io` write, and (group-commit) fsync across the
//! whole sub-batch. Window-advance broadcasts collapse to at most one per
//! call. The resulting cluster state does not depend on how the feed is
//! cut into batches — every batch size equals one in-order
//! `OnlineExtractor` (see `tests/ingest_batch_differential.rs`); only
//! cadence counters (snapshot publications, WAL appends) differ.
//!
//! ## One way out
//!
//! The merger thread owns the query-side live state outright; nothing
//! else reads it. It publishes immutable epoch-stamped snapshots, and
//! every [`MonitorHandle`] read pins one ([`MonitorHandle::read_view`],
//! [`MonitorHandle::serve`]). A day seal is published only after the
//! store write, so no pinned view ever finds a day neither live nor on
//! disk.
//!
//! ## Adaptive shard rebalancing
//!
//! With `rebalance_interval_records > 0`, ingest tracks per-sensor record
//! counts and, when one shard's share of the load exceeds
//! `rebalance_skew` times its fair share, re-cuts the shard map along the
//! load-weighted sensor order. Each epoch is committed by a worker
//! barrier (every worker adopts the accumulated [`BoundaryInfo`] and
//! re-reports its floors before the merger sees the epoch), logged to
//! every shard's WAL, and recorded in checkpoints, so recovery replays
//! under the same map chain.
//!
//! ## Durability
//!
//! With `durability.wal_dir` set, every successfully sent ingest→worker
//! message is appended to the destination shard's write-ahead log
//! (send first, then log: the WAL is exactly the set of messages the
//! workers received, so replay never double-applies a failed send).
//! Periodic quiescent checkpoints capture the whole pipeline state —
//! extractor clocks and open events, the merger's reconciliation pool
//! and the query-side live state it owns — so [`MonitorService::recover`] replays
//! only the WAL suffix past the checkpoint and truncates dead segments.
//! With `durability.respawn_budget > 0`, a dead shard worker is rebuilt
//! in place from checkpoint + WAL replay and the failed send retried;
//! the budget spent, the shard is typed permanently failed.
//!
//! [`MonitorService::start`] is recovery from nothing: one launch path
//! builds both, and live, recovered and respawned shards run one shard
//! step through one WAL replay (the `step` module).

use crate::admission::{DeadLetterBuffer, QuarantineReason, QuarantinedRecord};
use crate::config::{FsyncPolicy, MonitorConfig, OverflowPolicy, ServingConfig};
use crate::durability::{
    checkpoint_path, encode_batch_entry, encode_entry, load_checkpoint, read_wal_suffix,
    shard_wal_dir, write_checkpoint, CheckpointDoc, ShardCkpt, WalEntry, WalOp,
};
use crate::error::MonitorError;
use crate::live::LiveState;
use crate::merger::{Merger, MergerMsg};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::shard::{BoundaryInfo, EpochChain, ShardMap};
use crate::step::{replay, ShardStep};
use atypical::online::OutOfOrderRecord;
use atypical::store::ForestStore;
use cps_core::{AtypicalRecord, Params, RecordBatch, SensorId, TimeWindow, WindowSpec};
use cps_geo::grid::{SensorPartition, UniformGrid};
use cps_geo::RoadNetwork;
use cps_index::st_index::max_gap_windows;
pub use cps_serve::GuidedQuery;
use cps_serve::{ReadView, ServeContext, ServeHandle, ServeState};
use cps_storage::wal::{repair_tail, truncate_segments_below, SyncPolicy, WalWriter};
use cps_storage::{Io, RetryIo, RetryStats};
use crossbeam::channel::{bounded, unbounded, SendError, Sender, TrySendError};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a checkpoint waits on a worker or merger barrier reply before
/// aborting the attempt (the service itself keeps running).
const BARRIER_TIMEOUT: Duration = Duration::from_secs(10);

/// State shared between the ingest thread, workers, merger, and handles.
pub(crate) struct SharedState {
    pub(crate) network: Arc<RoadNetwork>,
    pub(crate) partition: Arc<SensorPartition>,
    pub(crate) params: Params,
    pub(crate) spec: WindowSpec,
    pub(crate) metrics: Metrics,
    pub(crate) store: Option<Arc<ForestStore>>,
    /// The read side: snapshot cell + result cache. The merger publishes
    /// into it; [`MonitorHandle::read_view`] and [`MonitorHandle::serve`]
    /// read from it.
    pub(crate) serve: Arc<ServeState>,
    /// Publication cadence (from the `[serving]` config section).
    pub(crate) serving: ServingConfig,
    pub(crate) started: Instant,
    /// Per-shard count of sealed events actually handed to the merger.
    /// Respawn replay reads it to suppress regenerated events the merger
    /// already holds.
    pub(crate) sealed_sent: Vec<AtomicU64>,
}

/// Ingest → worker protocol.
enum WorkerMsg {
    /// A whole per-shard sub-batch, applied through
    /// [`atypical::online::OnlineExtractor::apply_batch`]. Records may span
    /// windows; the extractor's clock advances internally, and sealed
    /// events drain at the next advance exactly as they would between
    /// records.
    ///
    /// `advance`, when set, is the flush's window broadcast piggybacked on
    /// the sub-batch: the worker behaves exactly as if an `Advance` message
    /// immediately followed this one, but the ingest thread saves one
    /// channel send (and usually one thread wakeup) per shard per flush —
    /// on a saturated box the wakeups, not the payload, dominate the
    /// per-flush cost. Shards without a sub-batch in the flush still get
    /// the plain `Advance` message.
    Batch {
        records: RecordBatch,
        advance: Option<TimeWindow>,
    },
    Advance(TimeWindow),
    /// Quiescent-checkpoint barrier. The worker flushes its pending sealed
    /// events to the merger, then replies with its state; because the
    /// channel is FIFO, the reply proves every prior message is applied.
    Checkpoint {
        reply: Sender<ShardCkpt>,
    },
    /// Shard-map epoch barrier: adopt the accumulated boundary predicate,
    /// re-report floors to the merger under it, then ack. FIFO means the
    /// merger sees the recomputed floors before the epoch itself.
    Rebalance {
        boundary: Arc<BoundaryInfo>,
        reply: Sender<()>,
    },
}

/// A running sharded monitoring service.
///
/// Feed window-ordered records through [`ingest_batch`](Self::ingest_batch)
/// ([`ingest`](Self::ingest) is the same call for a single record); query
/// at any time through a [`MonitorHandle`];
/// [`finish`](Self::finish) drains the pipeline and returns the final
/// metrics.
pub struct MonitorService {
    shared: Arc<SharedState>,
    config: MonitorConfig,
    /// The shard map routing new records and the boundary predicate
    /// workers and the merger reconcile on, over every epoch so far.
    epochs: EpochChain,
    /// Diverted records with their typed reasons (`admission.quarantine`);
    /// ingest is `&mut self`, so no lock is needed.
    dead_letter: DeadLetterBuffer,
    /// Sensors already accepted in the current window (`admission.dedup`);
    /// cleared on every clock advance.
    seen_in_window: HashSet<u32>,
    io: Io,
    senders: Vec<Sender<WorkerMsg>>,
    workers: Vec<Option<JoinHandle<()>>>,
    merger: Option<JoinHandle<()>>,
    /// Kept for checkpoint barriers and respawn replay; dropped in
    /// [`finish`](Self::finish) so the merger's channel closes.
    merger_tx: Option<Sender<MergerMsg>>,
    /// One WAL writer per shard when durability is on.
    writers: Vec<Option<WalWriter>>,
    /// Last assigned global WAL sequence number (0 = nothing logged).
    wal_seq: u64,
    /// Records accepted since the last checkpoint.
    records_since_ck: u64,
    /// The committed checkpoint respawn replay restores from.
    ckpt_base: Option<CheckpointDoc>,
    respawns_used: Vec<u32>,
    current_window: Option<TimeWindow>,
    /// Shards whose worker was observed dead (a channel send failed or the
    /// thread panicked); marked once, counted once in the metrics.
    dead: Vec<bool>,
    /// Shards declared permanently failed (respawn budget spent).
    failed: Vec<bool>,
    /// Records seen by `ingest` so far, in feed order (drives the
    /// deterministic drop-burst hook and the recovery resume point).
    ingest_seq: u64,
    /// Per-shard sub-batches being assembled by `ingest_batch`; always
    /// empty between calls.
    pending: Vec<RecordBatch>,
    /// Shards whose current flush carried the window advance inside the
    /// sub-batch message (so `broadcast_advance` must not send it again).
    advance_fused: Vec<bool>,
    /// Scratch buffer for batch WAL frames.
    batch_buf: Vec<u8>,
    /// Per-sensor record counts since the last rebalance decision.
    sensor_counts: Vec<u64>,
    /// Records counted toward the next rebalance decision.
    records_since_rb: u64,
}

/// What [`MonitorService::recover`] did to rebuild the service.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Whether a checkpoint document existed (otherwise the whole WAL was
    /// replayed from an empty baseline).
    pub had_checkpoint: bool,
    /// The checkpoint's covered sequence number (0 without a checkpoint).
    pub checkpoint_seq: u64,
    /// WAL entries replayed (past the checkpoint).
    pub replayed_entries: usize,
    /// Record entries among them.
    pub replayed_records: u64,
    /// Shard logs whose torn final segment was repaired.
    pub repaired_tails: usize,
    /// Feed position to resume from: the number of records the recovered
    /// state durably contains. Re-feeding the source stream from this
    /// index applies every record exactly once — including the edge where
    /// a crash hit the fsync *after* a record's WAL frame became durable,
    /// so the ingest error and the log disagree about it.
    pub resume_from: u64,
}

/// SplitMix64 step, used for the deterministic scheduling jitter.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Spawns shard `shard`'s worker thread — one [`ShardStep`] resuming from
/// `state`, reporting to `merger_tx` — and returns its channel.
fn spawn_worker(
    config: &MonitorConfig,
    shard: usize,
    shared: &Arc<SharedState>,
    boundary: &Arc<BoundaryInfo>,
    merger_tx: &Sender<MergerMsg>,
    state: ShardCkpt,
) -> Result<(Sender<WorkerMsg>, JoinHandle<()>), String> {
    let (shared, boundary, merger_tx) = (shared.clone(), boundary.clone(), merger_tx.clone());
    let faults = &config.faults;
    let kill_after = faults
        .kill_worker
        .filter(|k| k.shard == shard)
        .map(|k| k.after_records);
    let mut jitter = faults
        .jitter_seed
        .map(|seed| seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    shared.sealed_sent[shard].store(state.sealed_sent, Ordering::Relaxed);
    let (tx, rx) = bounded::<WorkerMsg>(config.channel_capacity);
    let worker = std::thread::Builder::new()
        .name(format!("cps-monitor-shard-{shard}"))
        .spawn(move || {
            let mut step = ShardStep::restore(shard, &shared, boundary, state);
            let mut emit = |msg: MergerMsg| {
                if let MergerMsg::Sealed { events } = &msg {
                    let sealed = events.len() as u64;
                    shared.sealed_sent[shard].fetch_add(sealed, Ordering::Relaxed);
                }
                let _ = merger_tx.send(msg);
            };
            let mut records_processed = 0u64;
            while let Ok(msg) = rx.recv() {
                shared.metrics.set_queue_depth(shard, rx.len());
                if let Some(state) = jitter.as_mut() {
                    // Perturb worker/merger interleaving
                    // reproducibly: occasional microsecond sleeps
                    // driven by the per-shard seed.
                    let x = splitmix64(state);
                    if x.is_multiple_of(7) {
                        std::thread::sleep(std::time::Duration::from_micros(x % 50));
                    }
                }
                match msg {
                    WorkerMsg::Batch {
                        mut records,
                        advance,
                    } => {
                        // Fault hook, record-granular so the death point
                        // does not depend on batch size: apply the prefix
                        // up to the limit, then die abruptly — skip the
                        // drain/Done epilogue exactly as a crashed thread
                        // would. Per incarnation: a respawned worker dies
                        // again after `after_records` more records, so a
                        // long enough feed deterministically exhausts any
                        // respawn budget.
                        let room = kill_after.map_or(u64::MAX, |n| n - records_processed);
                        let dies = records.len() as u64 > room;
                        if dies {
                            records.windows.truncate(room as usize);
                            records.sensors.truncate(room as usize);
                            records.severities.truncate(room as usize);
                        }
                        records_processed += records.len() as u64;
                        if step.apply(&records).is_err() {
                            debug_assert!(false, "service clock admitted a stale batch");
                        }
                        if dies {
                            shared.metrics.set_queue_depth(shard, 0);
                            return;
                        }
                        // Piggybacked window broadcast — identical to an
                        // `Advance` message arriving right after this one.
                        if let Some(window) = advance {
                            step.advance(window, &mut emit);
                        }
                    }
                    WorkerMsg::Advance(window) => step.advance(window, &mut emit),
                    WorkerMsg::Rebalance { boundary, reply } => {
                        step.adopt(boundary, &mut emit);
                        let _ = reply.send(());
                    }
                    WorkerMsg::Checkpoint { reply } => {
                        let _ = reply.send(step.export(&mut emit));
                    }
                }
            }
            shared.metrics.set_queue_depth(shard, 0);
            step.finish(&mut emit);
            let _ = merger_tx.send(MergerMsg::Done { shard });
        })
        .map_err(|e| format!("spawning shard worker {shard}: {e}"))?;
    Ok((tx, worker))
}

impl MonitorService {
    /// Validates `config`, shards `network`, and spawns the worker and
    /// merger threads.
    pub fn start(config: &MonitorConfig, network: Arc<RoadNetwork>) -> Result<Self, String> {
        Self::start_with(config, network, Io::real())
    }

    /// [`start`](Self::start) with every file operation (snapshot store,
    /// WAL, checkpoints) routed through `io`.
    pub fn start_with(
        config: &MonitorConfig,
        network: Arc<RoadNetwork>,
        io: Io,
    ) -> Result<Self, String> {
        config.validate()?;
        if let Some(wal_dir) = &config.durability.wal_dir {
            let has_state = checkpoint_path(wal_dir).exists()
                || std::fs::read_dir(wal_dir).is_ok_and(|mut d| d.next().is_some());
            if has_state {
                return Err(format!(
                    "wal_dir {} holds a previous run's state; recover it with \
                     MonitorService::recover or point wal_dir elsewhere",
                    wal_dir.display()
                ));
            }
        }
        // Every file operation (for the life of the service) goes through
        // the retry layer; transparent when retries are off.
        let io = RetryIo::wrap(io, config.durability.retry_policy());
        Self::launch(config, network, io, None, &[], 0)
    }

    /// Rebuilds a service from its durable state: the checkpoint (when
    /// present) plus a single-threaded replay of the WAL suffix past it.
    /// The recovered pipeline is equivalent to one that ingested the same
    /// accepted records without interruption; resume the feed at
    /// [`RecoveryReport::resume_from`].
    pub fn recover(
        config: &MonitorConfig,
        network: Arc<RoadNetwork>,
    ) -> Result<(Self, RecoveryReport), String> {
        Self::recover_with(config, network, Io::real())
    }

    /// [`recover`](Self::recover) through an explicit [`Io`] backend.
    pub fn recover_with(
        config: &MonitorConfig,
        network: Arc<RoadNetwork>,
        io: Io,
    ) -> Result<(Self, RecoveryReport), String> {
        config.validate()?;
        let (io, retry_stats) = RetryIo::wrap(io, config.durability.retry_policy());
        let Some(wal_dir) = config.durability.wal_dir.clone() else {
            return Err("recover requires durability.wal_dir".to_string());
        };
        let base =
            load_checkpoint(&io, &wal_dir).map_err(|e| format!("loading checkpoint: {e}"))?;
        let base_seq = base.as_ref().map_or(0, |b| b.last_seq);
        if let Some(b) = base.as_ref().filter(|b| b.shards.len() != config.shards) {
            return Err(format!(
                "checkpoint has {} shards but the config asks for {}",
                b.shards.len(),
                config.shards
            ));
        }

        // Read every shard's suffix past the checkpoint and repair a torn
        // tail (only the last segment may legally hold one). The global
        // sequence numbers interleave the per-shard logs back into the
        // exact ingest send order.
        let mut entries = Vec::new();
        let mut repaired_tails = 0usize;
        for shard in 0..config.shards {
            let dir = shard_wal_dir(&wal_dir, shard);
            let (suffix, torn) = read_wal_suffix(&io, &dir, base_seq)
                .map_err(|e| format!("reading shard {shard} WAL: {e}"))?;
            if torn {
                repaired_tails += 1;
                repair_tail(&io, &dir).map_err(|e| format!("repairing shard {shard} WAL: {e}"))?;
            }
            entries.extend(suffix.into_iter().map(|e| (shard, e)));
        }
        entries.sort_by_key(|(_, e)| e.seq);
        // New appends must clear every sequence number on disk — including
        // the implicit per-record seqs inside batch frames, and frames
        // about to be dropped as incomplete below.
        //
        // Drop every frame of an incomplete flush (see the grammar notes
        // in `durability`): a crash mid-flush leaves a shard-grouped
        // subset of a feed-contiguous batch, so replaying the survivors
        // would break the clean-feed-prefix contract of `resume_from`.
        // Checkpoints only run between flushes, so a flush never straddles
        // `base.last_seq`. The missing frames are never written later,
        // hence repeated recoveries drop the same set deterministically.
        let mut max_seq = base_seq;
        let mut flush_counts = HashMap::new();
        for (_, e) in &entries {
            max_seq = max_seq.max(e.seq + e.op.records().len().saturating_sub(1) as u64);
            if let WalOp::Batch {
                flush_first,
                records,
                ..
            } = &e.op
            {
                *flush_counts.entry(*flush_first).or_insert(0u64) += records.len() as u64;
            }
        }
        entries.retain(|(_, e)| match &e.op {
            WalOp::Batch {
                flush_first,
                flush_len,
                ..
            } => flush_counts[flush_first] == u64::from(*flush_len),
            _ => true,
        });

        let had_checkpoint = base.is_some();
        let base_ingest_seq = base.as_ref().map_or(0, |b| b.ingest_seq);
        let service = Self::launch(config, network, (io, retry_stats), base, &entries, max_seq)?;
        service
            .shared
            .metrics
            .recoveries
            .store(1, Ordering::Relaxed);
        let report = RecoveryReport {
            had_checkpoint,
            checkpoint_seq: base_seq,
            replayed_entries: entries.len(),
            replayed_records: service.ingest_seq - base_ingest_seq,
            repaired_tails,
            resume_from: service.ingest_seq,
        };
        Ok((service, report))
    }

    /// Builds the running service from a checkpoint (`None`: from nothing)
    /// plus the WAL `entries` logged past it. Restores the live state, the
    /// shard-map chain and the merger; replays `entries` on this thread,
    /// the merger applied inline in send order; then starts the merger and
    /// one worker per shard from the replayed shard states. New WAL appends
    /// take sequence numbers past `wal_seq`.
    fn launch(
        config: &MonitorConfig,
        network: Arc<RoadNetwork>,
        (io, retry_stats): (Io, Arc<RetryStats>),
        base: Option<CheckpointDoc>,
        entries: &[(usize, WalEntry)],
        wal_seq: u64,
    ) -> Result<Self, String> {
        let (params, spec) = (config.params, config.spec);
        // A fresh live state, not one restored from a default checkpoint:
        // cluster ids start at 1, a default checkpoint's `next_id` at 0.
        let mut live = match &base {
            Some(ck) => LiveState::restore(&params, &ck.live),
            None => LiveState::new(&params),
        };
        let shared = Self::scaffold(config, &network, &io, &mut live)?;
        shared.metrics.set_retry_stats(retry_stats);
        let nothing = CheckpointDoc::default();
        let ck = base.as_ref().unwrap_or(&nothing);

        // The checkpointed shard-map chain: the final map routes new
        // records, while the boundary info accumulates every epoch so
        // pre-rebalance pending events still reconcile.
        let mut epochs = EpochChain::new(network.clone(), config.shards, params.delta_d_miles);
        for cuts in &ck.epochs {
            let next = epochs.successor(cuts);
            epochs.commit(next, cuts);
        }
        let mut merger = Merger::restore(
            shared.clone(),
            epochs.map.clone(),
            epochs.boundary.clone(),
            max_gap_windows(&params, spec),
            live,
            &ck.merger,
        );
        let mut steps: Vec<ShardStep> = (0..config.shards)
            .map(|shard| {
                let state = ck.shards.get(shard).cloned().unwrap_or_default();
                ShardStep::restore(shard, &shared, epochs.boundary.clone(), state)
            })
            .collect();
        let mut apply = |msg| merger.apply(msg);
        let chain = Some(&mut epochs);
        let current_window = replay(entries, &mut steps, chain, ck.current_window, &mut apply);
        let states: Vec<ShardCkpt> = steps.iter_mut().map(|s| s.export(&mut apply)).collect();
        let replayed: u64 = entries
            .iter()
            .map(|(_, e)| e.op.records().len() as u64)
            .sum();
        let ingest_seq = ck.ingest_seq + replayed;

        // Merger input is unbounded: its producers are the bounded-channel
        // workers, so it is already flow-controlled by the record channels.
        let (merger_tx, merger_rx) = unbounded::<MergerMsg>();
        let merger = std::thread::Builder::new()
            .name("cps-monitor-merger".to_string())
            .spawn(move || merger.run(merger_rx))
            .map_err(|e| format!("spawning merger: {e}"))?;

        // Writers open fresh segments past everything on disk; the old
        // segments stay (until the next checkpoint truncates them) so a
        // later recovery or respawn can still replay from the base.
        let writers = Self::open_writers(config, &io)?;
        let mut senders = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for (shard, state) in states.into_iter().enumerate() {
            let (tx, worker) =
                spawn_worker(config, shard, &shared, &epochs.boundary, &merger_tx, state)?;
            senders.push(tx);
            workers.push(Some(worker));
        }

        Ok(Self {
            shared,
            config: config.clone(),
            epochs,
            dead_letter: DeadLetterBuffer::new(config.admission.quarantine_capacity),
            seen_in_window: HashSet::new(),
            io,
            senders,
            workers,
            merger: Some(merger),
            merger_tx: Some(merger_tx),
            writers,
            wal_seq,
            records_since_ck: 0,
            ckpt_base: base,
            respawns_used: vec![0; config.shards],
            current_window,
            dead: vec![false; config.shards],
            failed: vec![false; config.shards],
            ingest_seq,
            pending: vec![RecordBatch::new(); config.shards],
            advance_fused: vec![false; config.shards],
            batch_buf: Vec::new(),
            sensor_counts: vec![0; network.num_sensors()],
            records_since_rb: 0,
        })
    }

    /// Builds the red-zone partition, the snapshot store, and the shared
    /// state, with `live` published as epoch 0: empty for a fresh start,
    /// the restored state for a recovery — readers never see a gap.
    fn scaffold(
        config: &MonitorConfig,
        network: &Arc<RoadNetwork>,
        io: &Io,
        live: &mut LiveState,
    ) -> Result<Arc<SharedState>, String> {
        let params = config.params;
        let spec = config.spec;
        let partition =
            Arc::new(UniformGrid::over(network, config.red_cell_miles).partition(network));
        let store = match &config.snapshot_dir {
            Some(dir) => Some(Arc::new(
                ForestStore::open_with(dir, io.clone()).map_err(|e| e.to_string())?,
            )),
            None => None,
        };
        let serve = Arc::new(ServeState::new(
            ServeContext {
                partition: partition.clone(),
                params,
                spec,
                num_sensors: network.num_sensors() as u32,
                store: store.clone(),
            },
            live.publishable(0),
            config.serving.cache_capacity,
        ));
        let shared = Arc::new(SharedState {
            network: network.clone(),
            partition,
            params,
            spec,
            metrics: Metrics::new(config.shards),
            store,
            serve,
            serving: config.serving,
            started: Instant::now(),
            sealed_sent: (0..config.shards).map(|_| AtomicU64::new(0)).collect(),
        });
        shared
            .metrics
            .snapshots_published
            .fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .set_degrade_stats(shared.serve.degrade_stats().clone());
        Ok(shared)
    }

    fn open_writers(config: &MonitorConfig, io: &Io) -> Result<Vec<Option<WalWriter>>, String> {
        let d = &config.durability;
        let Some(wal_dir) = &d.wal_dir else {
            return Ok((0..config.shards).map(|_| None).collect());
        };
        let policy = match d.fsync {
            FsyncPolicy::Always => SyncPolicy::Always,
            FsyncPolicy::Never => SyncPolicy::Never,
            FsyncPolicy::Group => SyncPolicy::EveryN(d.group_commit_records),
        };
        (0..config.shards)
            .map(|shard| {
                WalWriter::open(
                    io.clone(),
                    &shard_wal_dir(wal_dir, shard),
                    policy,
                    d.segment_bytes,
                )
                .map(Some)
                .map_err(|e| format!("opening shard {shard} WAL: {e}"))
            })
            .collect()
    }

    /// The shard layout in use.
    pub fn shard_map(&self) -> &ShardMap {
        &self.epochs.map
    }

    /// A cloneable query facade, valid beyond [`finish`](Self::finish).
    pub fn handle(&self) -> MonitorHandle {
        MonitorHandle {
            shared: self.shared.clone(),
        }
    }

    /// Feeds one record: [`ingest_batch`](Self::ingest_batch) for a batch
    /// of one. Returns `Ok(true)` if accepted (and, with a WAL, durably
    /// logged), `Ok(false)` if dropped by a full channel under
    /// [`OverflowPolicy::Drop`] (or the drop-burst fault hook), shed by
    /// the `admission.shed` policy, or diverted to the quarantine
    /// dead-letter buffer, and a typed [`MonitorError`] otherwise.
    pub fn ingest(&mut self, record: AtypicalRecord) -> Result<bool, MonitorError> {
        self.ingest_records(std::iter::once(record)).map(|n| n == 1)
    }

    /// Feeds a whole window-ordered batch: one admission pass splits it
    /// into per-shard sub-batches, one channel send per non-empty shard
    /// delivers them, and one WAL frame per sub-batch makes them durable
    /// (CRC, write, and group-commit fsync amortized across the
    /// sub-batch). Window-advance broadcasts collapse to at most one,
    /// after the flush. The resulting state does not depend on how the
    /// feed is cut into batches.
    ///
    /// Returns the number of records accepted. Every not-accepted outcome
    /// is counted — records dropped (a full channel under
    /// [`OverflowPolicy::Drop`], the drop-burst fault hook), shed
    /// (`admission.shed`) and quarantined (the dead-letter buffer) each
    /// have their own metric, so
    /// `ingested + dropped + shed + quarantined == offered` holds exactly.
    ///
    /// Every error is recoverable in the sense that the service keeps
    /// running; a [`MonitorError::Wal`] additionally means some records
    /// are *not* durable. On an error, a feed prefix of the batch may
    /// already be accepted and durably logged; recover and resume at
    /// [`RecoveryReport::resume_from`] to apply each record exactly once.
    pub fn ingest_batch(&mut self, batch: &RecordBatch) -> Result<u64, MonitorError> {
        self.ingest_records(batch.iter())
    }

    fn ingest_records(
        &mut self,
        records: impl Iterator<Item = AtypicalRecord>,
    ) -> Result<u64, MonitorError> {
        let entry_window = self.current_window;
        let mut accepted = 0u64;
        for record in records {
            accepted += u64::from(self.admit(record, entry_window)?);
        }
        accepted -= self.commit_pending(entry_window)?;
        self.maybe_checkpoint();
        self.maybe_rebalance();
        Ok(accepted)
    }

    /// The per-record admission step: quarantine checks, the ingest
    /// clock, the drop-burst hook, then the record joins its shard's
    /// pending sub-batch. Returns whether it did. An error first delivers
    /// the accepted prefix, so it leaves a clean boundary.
    #[inline]
    fn admit(
        &mut self,
        record: AtypicalRecord,
        entry_window: Option<TimeWindow>,
    ) -> Result<bool, MonitorError> {
        // Malformed records are diverted before shard routing (routing
        // them would index out of the shard map) and never move the clock:
        // an out-of-range sensor is garbage, so its window is untrusted.
        if self.quarantine_malformed(&record) {
            return Ok(false);
        }
        let shard = self.epochs.map.shard_of(record.sensor);
        if let Some(current) = self.current_window {
            if record.window < current {
                if self.quarantine_stale(&record, current) {
                    return Ok(false);
                }
                self.commit_pending(entry_window)?;
                return Err(MonitorError::OutOfOrder {
                    shard,
                    cause: OutOfOrderRecord {
                        record,
                        current_window: current,
                    },
                });
            }
        }
        if self.config.admission.dedup && self.current_window != Some(record.window) {
            self.seen_in_window.clear();
        }
        self.current_window = Some(record.window);
        if self.quarantine_duplicate(&record) {
            return Ok(false);
        }

        // The drop-burst hook sits after the clock update: a dropped
        // record still moves every shard's clock, exactly like a record
        // dropped by a full channel.
        let seq = self.ingest_seq;
        self.ingest_seq += 1;
        if let Some(burst) = self.config.faults.drop_burst {
            if seq >= burst.at_record && seq - burst.at_record < burst.len {
                self.shared
                    .metrics
                    .records_dropped
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(false);
            }
        }

        if self.dead[shard] {
            let err = self.dead_shard_error(shard);
            self.commit_pending(entry_window)?;
            return Err(err);
        }
        if self.config.rebalance_interval_records > 0 {
            self.sensor_counts[record.sensor.index()] += 1;
            self.records_since_rb += 1;
        }
        self.pending[shard].push(record);
        Ok(true)
    }

    /// Flushes the pending sub-batches, then broadcasts the window advance
    /// if the clock moved since `entry_window` — after the flush, so
    /// workers see batch-then-advance and drain once per call. Where
    /// possible the advance rides inside the sub-batch message itself
    /// (see [`WorkerMsg::Batch`]); shards the flush couldn't reach that
    /// way get the standalone broadcast. Returns the number of pending
    /// records dropped by full channels.
    fn commit_pending(&mut self, entry_window: Option<TimeWindow>) -> Result<u64, MonitorError> {
        let advance = if self.current_window != entry_window {
            self.current_window
        } else {
            None
        };
        let dropped = self.flush_pending(advance)?;
        if let Some(window) = advance {
            self.broadcast_advance(window)?;
        }
        Ok(dropped)
    }

    /// Delivers and logs the pending sub-batches: phase 1 sends each
    /// non-empty sub-batch to its worker, phase 2 appends one WAL frame
    /// per delivered sub-batch, all frames stamped with the flush's
    /// `(flush_first, flush_len)` so recovery treats the flush
    /// atomically. On an error the pending buffers are cleared: delivered-
    /// but-unlogged records are not durable, and recovery resolves them.
    fn flush_pending(&mut self, advance: Option<TimeWindow>) -> Result<u64, MonitorError> {
        let result = self.flush_pending_inner(advance);
        if result.is_err() {
            for b in &mut self.pending {
                b.clear();
            }
        }
        result
    }

    fn flush_pending_inner(&mut self, advance: Option<TimeWindow>) -> Result<u64, MonitorError> {
        let shards = self.senders.len();
        let mut dropped = 0u64;
        self.advance_fused.fill(false);
        for shard in 0..shards {
            if !self.pending[shard].is_empty() {
                dropped += self.deliver(shard, advance)?;
            }
        }
        let flushed: u64 = self.pending.iter().map(|b| b.len() as u64).sum();
        if flushed > 0 && self.writers.iter().any(|w| w.is_some()) {
            let flush_first = self.wal_seq + 1;
            let flush_len = flushed as u32;
            for shard in 0..shards {
                if !self.pending[shard].is_empty() {
                    self.log_batch(shard, flush_first, flush_len)?;
                }
            }
        }
        for shard in 0..shards {
            let n = self.pending[shard].len() as u64;
            if n == 0 {
                continue;
            }
            self.shared
                .metrics
                .records_ingested
                .fetch_add(n, Ordering::Relaxed);
            self.shared
                .metrics
                .batches_ingested
                .fetch_add(1, Ordering::Relaxed);
            self.records_since_ck += n;
            self.pending[shard].clear();
        }
        Ok(dropped)
    }

    /// Sends `shard`'s pending sub-batch to its worker; returns the records
    /// a full channel cost. Blocking delivery (`overflow = "block"` without
    /// `admission.shed`) is guaranteed, so the flush's window advance rides
    /// along and `broadcast_advance` skips the channel send (but still logs
    /// the WAL entry) for this shard. The other policies never wait and
    /// keep the advance a standalone broadcast: a shed or dropped sub-batch
    /// must not shed the clock with it. On a full channel, shedding drops
    /// the *oldest-window* prefix (the feed is window-monotone, so the
    /// minimal window is a contiguous prefix) and retries with the
    /// remainder — the newest data survives — while `overflow = "drop"`
    /// drops the whole sub-batch. Either way phase 2 logs only what the
    /// worker actually received.
    fn deliver(&mut self, shard: usize, advance: Option<TimeWindow>) -> Result<u64, MonitorError> {
        let shed = self.config.admission.shed;
        let blocking = self.config.overflow == OverflowPolicy::Block && !shed;
        let advance = advance.filter(|_| blocking);
        let mut lost = 0u64;
        while !self.pending[shard].is_empty() {
            let msg = WorkerMsg::Batch {
                records: self.pending[shard].clone(),
                advance,
            };
            let sent = if blocking {
                self.senders[shard]
                    .send(msg)
                    .map_err(|SendError(msg)| TrySendError::Disconnected(msg))
            } else {
                self.senders[shard].try_send(msg)
            };
            let pending = &mut self.pending[shard];
            match sent {
                Ok(()) => break,
                Err(TrySendError::Disconnected(msg)) => {
                    self.resend(shard, msg)?;
                    break;
                }
                Err(TrySendError::Full(_)) if shed => {
                    let w0 = pending.windows[0];
                    let k = pending.windows.iter().take_while(|&&w| w == w0).count();
                    pending.windows.drain(..k);
                    pending.sensors.drain(..k);
                    pending.severities.drain(..k);
                    self.shared.metrics.count_shed(shard, k as u64);
                    lost += k as u64;
                }
                Err(TrySendError::Full(_)) => {
                    let n = pending.len() as u64;
                    pending.clear();
                    self.shared
                        .metrics
                        .records_dropped
                        .fetch_add(n, Ordering::Relaxed);
                    lost += n;
                }
            }
        }
        self.advance_fused[shard] = advance.is_some();
        Ok(lost)
    }

    /// Respawns `shard`'s dead worker and sends it `msg` once more; a
    /// second failure leaves the shard dead ([`MonitorError::WorkerDied`]).
    fn resend(&mut self, shard: usize, msg: WorkerMsg) -> Result<(), MonitorError> {
        self.respawn(shard)?;
        if self.senders[shard].send(msg).is_err() {
            self.mark_dead(shard);
            return Err(MonitorError::WorkerDied { shard });
        }
        Ok(())
    }

    /// Appends one shard's pending sub-batch as a single WAL frame. The
    /// frame consumes one sequence number per record (contiguous from the
    /// frame's entry seq) even if the append fails, mirroring `log_op`.
    fn log_batch(
        &mut self,
        shard: usize,
        flush_first: u64,
        flush_len: u32,
    ) -> Result<(), MonitorError> {
        if self.writers[shard].is_none() {
            return Ok(());
        }
        let first = self.wal_seq + 1;
        self.wal_seq += self.pending[shard].len() as u64;
        let mut buf = std::mem::take(&mut self.batch_buf);
        encode_batch_entry(
            first,
            flush_first,
            flush_len,
            &self.pending[shard],
            &mut buf,
        );
        let result = self.append(shard, &buf);
        self.batch_buf = buf;
        result
    }

    /// Checks the per-sensor load window and re-cuts the shard map when
    /// one shard's share exceeds `rebalance_skew` times its fair share.
    /// Runs only between flushes (never splits a batch) and skips while
    /// any shard is dead. Failures (a barrier timeout, a WAL error) leave
    /// the service running; the counters reset either way.
    fn maybe_rebalance(&mut self) {
        if self.config.rebalance_interval_records == 0
            || self.records_since_rb < self.config.rebalance_interval_records
        {
            return;
        }
        self.records_since_rb = 0;
        let shards = self.senders.len();
        let decision = 'decide: {
            if shards < 2 || self.dead.iter().any(|&d| d) {
                break 'decide None;
            }
            let mut load = vec![0u64; shards];
            for (i, &count) in self.sensor_counts.iter().enumerate() {
                load[self.epochs.map.shard_of(SensorId::new(i as u32))] += count;
            }
            let total: u64 = load.iter().sum();
            let max = load.iter().copied().max().unwrap_or(0);
            let skewed =
                ((max * shards as u64) as f64) >= self.config.rebalance_skew * total as f64;
            if total == 0 || !skewed {
                break 'decide None;
            }
            // Load-weighted cuts along the map's spatial sensor order:
            // shard k gets the contiguous run up to the first rank whose
            // weight prefix reaches k/shards of the total. The +1 floor
            // keeps silent sensors from collapsing into one shard.
            let order = self.epochs.map.order();
            let weight = |s: SensorId| self.sensor_counts[s.index()] + 1;
            let total_w: u64 = order.iter().map(|&s| weight(s)).sum();
            let mut cuts = Vec::with_capacity(shards + 1);
            cuts.push(0u32);
            let mut acc = 0u64;
            let mut next = 1usize;
            for (rank, &sensor) in order.iter().enumerate() {
                acc += weight(sensor);
                while next < shards && acc * shards as u64 >= total_w * next as u64 {
                    cuts.push((rank + 1) as u32);
                    next += 1;
                }
            }
            while cuts.len() <= shards {
                cuts.push(order.len() as u32);
            }
            (cuts != self.epochs.map.cuts()).then_some(cuts)
        };
        if let Some(cuts) = decision {
            let _ = self.rebalance_to(&cuts);
        }
        self.sensor_counts.fill(0);
    }

    /// Commits one shard-map epoch: barrier every worker onto the
    /// accumulated boundary predicate (each re-reports its floors to the
    /// merger under it), tell the merger, swap the map, and log the epoch
    /// to every shard's WAL so any surviving log carries it. An abort
    /// before the swap is harmless — workers holding a wider predicate
    /// than the merger is conservative, never wrong.
    fn rebalance_to(&mut self, cuts: &[u32]) -> Result<(), MonitorError> {
        let next = self.epochs.successor(cuts);
        let boundary = &next.1;
        for shard in 0..self.senders.len() {
            let (reply_tx, reply_rx) = bounded(1);
            let sent = self.senders[shard]
                .send(WorkerMsg::Rebalance {
                    boundary: boundary.clone(),
                    reply: reply_tx,
                })
                .is_ok();
            if !sent || reply_rx.recv_timeout(BARRIER_TIMEOUT).is_err() {
                return Err(MonitorError::WorkerDied { shard });
            }
        }
        if let Some(tx) = &self.merger_tx {
            let _ = tx.send(MergerMsg::Rebalance {
                boundary: boundary.clone(),
            });
        }
        self.epochs.commit(next, cuts);
        let epoch = self.epochs.cuts.len() as u64;
        self.shared
            .metrics
            .rebalances
            .fetch_add(1, Ordering::Relaxed);
        for shard in 0..self.senders.len() {
            self.log_op(
                shard,
                WalOp::Rebalance {
                    epoch,
                    cuts: cuts.to_vec(),
                },
            )?;
        }
        Ok(())
    }

    /// Advances every shard's clock without feeding a record — e.g. to
    /// flush quiet periods at the end of a replay segment. With a WAL the
    /// advance is logged, so it survives recovery like any record.
    pub fn advance_to(&mut self, window: TimeWindow) -> Result<(), MonitorError> {
        if self.current_window.is_none_or(|c| window > c) {
            self.broadcast_advance(window)?;
            self.current_window = Some(window);
        }
        Ok(())
    }

    /// Window-advance broadcasts always block: dropping one would let a
    /// shard's clock fall behind and stall finalization. A dead shard is
    /// skipped — its clock stays frozen, which keeps its unfinished days
    /// live (and queryable) instead of persisting them incomplete. With
    /// supervision on, a send failure respawns the worker in place first.
    fn broadcast_advance(&mut self, window: TimeWindow) -> Result<(), MonitorError> {
        for shard in 0..self.senders.len() {
            if self.dead[shard] {
                continue;
            }
            if self.advance_fused[shard] {
                // The advance already rode inside this flush's sub-batch
                // message; only the WAL entry remains.
                self.advance_fused[shard] = false;
            } else if let Err(SendError(msg)) = self.senders[shard].send(WorkerMsg::Advance(window))
            {
                match self.resend(shard, msg) {
                    Ok(()) => {}
                    Err(MonitorError::WorkerDied { .. }) => continue,
                    Err(other) => return Err(other),
                }
            }
            self.log_op(shard, WalOp::Advance(window))?;
        }
        Ok(())
    }

    /// Appends one entry to a shard's WAL (no-op without durability).
    fn log_op(&mut self, shard: usize, op: WalOp) -> Result<(), MonitorError> {
        if self.writers[shard].is_none() {
            return Ok(());
        }
        self.wal_seq += 1;
        self.append(shard, &encode_entry(self.wal_seq, &op))
    }

    /// Appends one encoded entry to `shard`'s WAL and counts it.
    fn append(&mut self, shard: usize, payload: &[u8]) -> Result<(), MonitorError> {
        let writer = self.writers[shard].as_mut().expect("durability is on");
        let framed = writer.append(payload).map_err(|e| MonitorError::Wal {
            shard: Some(shard),
            detail: e.to_string(),
        })?;
        let metrics = &self.shared.metrics;
        metrics.wal_appends.fetch_add(1, Ordering::Relaxed);
        metrics.wal_bytes.fetch_add(framed, Ordering::Relaxed);
        Ok(())
    }

    /// Rebuilds a dead shard worker in place: replay its log from the
    /// checkpoint base on this thread, hand the merger the regenerated
    /// events it has not seen, and spawn a fresh worker holding the
    /// replayed extractor state. Typed errors when supervision is off
    /// ([`MonitorError::WorkerDied`]) or the budget is spent
    /// ([`MonitorError::ShardFailed`]).
    fn respawn(&mut self, shard: usize) -> Result<(), MonitorError> {
        self.mark_dead(shard);
        let budget = self.config.durability.respawn_budget;
        if !self.config.durability.enabled() || budget == 0 {
            return Err(MonitorError::WorkerDied { shard });
        }
        if self.respawns_used[shard] >= budget {
            self.failed[shard] = true;
            self.shared
                .metrics
                .permanently_failed
                .fetch_add(1, Ordering::Relaxed);
            return Err(self.dead_shard_error(shard));
        }
        self.respawns_used[shard] += 1;
        if let Some(stale) = self.workers[shard].take() {
            // The send failure means the receiver is gone, so the thread
            // has exited (or panicked — already just counted dead).
            let _ = stale.join();
        }

        let wal_dir = self.config.durability.wal_dir.as_ref();
        let dir = shard_wal_dir(wal_dir.expect("supervision requires a WAL"), shard);
        let base = self.ckpt_base.as_ref();
        let base_seq = base.map_or(0, |c| c.last_seq);
        let base_shard = base.map(|c| c.shards[shard].clone()).unwrap_or_default();
        // The torn flag is ignored: the live writer owns the tail segment.
        let (entries, _torn) =
            read_wal_suffix(&self.io, &dir, base_seq).map_err(|e| MonitorError::Wal {
                shard: Some(shard),
                detail: e.to_string(),
            })?;
        // Unconditional (no flush-completeness check): the send-then-append
        // invariant means a logged frame was delivered, so the dead worker
        // held these records.
        let entries: Vec<(usize, WalEntry)> = entries.into_iter().map(|e| (shard, e)).collect();

        // Replay on the ingest thread. The regenerated sealed events are a
        // prefix-extension of what the dead worker sent: suppress the ones
        // the merger already holds and forward the rest in one message,
        // then one clock report.
        let merger_tx = self
            .merger_tx
            .clone()
            .expect("merger_tx lives until finish");
        let boundary = self.epochs.boundary.clone();
        let mut already_sent =
            self.shared.sealed_sent[shard].load(Ordering::Relaxed) - base_shard.sealed_sent;
        let mut fresh = Vec::new();
        let mut forward = |msg| {
            if let MergerMsg::Sealed { events } = msg {
                let skip = already_sent.min(events.len() as u64);
                already_sent -= skip;
                fresh.extend(events.into_iter().skip(skip as usize));
            }
        };
        let mut step = ShardStep::restore(shard, &self.shared, boundary.clone(), base_shard);
        let steps = std::slice::from_mut(&mut step);
        replay(&entries, steps, None, None, &mut forward);
        let state = step.export(&mut forward);
        debug_assert_eq!(
            already_sent, 0,
            "replay regenerated fewer events than the merger received"
        );
        if !fresh.is_empty() {
            let _ = merger_tx.send(MergerMsg::Sealed { events: fresh });
        }
        step.adopt(boundary.clone(), &mut |msg| {
            let _ = merger_tx.send(msg);
        });

        let (tx, worker) = spawn_worker(
            &self.config,
            shard,
            &self.shared,
            &boundary,
            &merger_tx,
            state,
        )
        .map_err(|_| MonitorError::WorkerDied { shard })?;
        self.senders[shard] = tx;
        self.workers[shard] = Some(worker);
        self.dead[shard] = false;
        self.shared.metrics.unmark_worker_dead(shard);
        self.shared.metrics.respawns.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Diverts a record whose sensor the deployment's network does not
    /// have (`admission.quarantine`); routing it would index out of the
    /// shard map. Returns whether the record was quarantined.
    fn quarantine_malformed(&mut self, record: &AtypicalRecord) -> bool {
        if !self.config.admission.quarantine
            || record.sensor.index() < self.shared.network.num_sensors()
        {
            return false;
        }
        self.divert(*record, QuarantineReason::Malformed);
        true
    }

    /// Diverts a record whose window regressed more than
    /// `admission.order_tolerance_windows` behind the ingest clock — a
    /// stale replay. A regression *within* the tolerance is an upstream
    /// bug by the feed's own contract, so it keeps the typed
    /// [`MonitorError::OutOfOrder`] and fails fast.
    fn quarantine_stale(&mut self, record: &AtypicalRecord, current: TimeWindow) -> bool {
        if !self.config.admission.quarantine {
            return false;
        }
        let regression = current.0.saturating_sub(record.window.0);
        if regression <= self.config.admission.order_tolerance_windows {
            return false;
        }
        self.divert(*record, QuarantineReason::OutOfOrder);
        true
    }

    /// Diverts a repeat of a sensor already accepted in the current
    /// window (`admission.dedup`).
    fn quarantine_duplicate(&mut self, record: &AtypicalRecord) -> bool {
        if !self.config.admission.dedup {
            return false;
        }
        if self.seen_in_window.insert(record.sensor.index() as u32) {
            return false;
        }
        self.divert(*record, QuarantineReason::Duplicate);
        true
    }

    /// Quarantines one record: counted under its typed reason, retained
    /// in the dead-letter buffer. A diverted record never advances the
    /// ingest clock, never reaches a worker or the WAL, and never
    /// consumes an ingest sequence number.
    fn divert(&mut self, record: AtypicalRecord, reason: QuarantineReason) {
        self.shared.metrics.count_quarantined(reason);
        self.dead_letter.push(record, reason);
    }

    /// The error a permanently failed or plainly dead shard reports.
    fn dead_shard_error(&self, shard: usize) -> MonitorError {
        if self.failed[shard] {
            MonitorError::ShardFailed {
                shard,
                respawns: self.respawns_used[shard],
            }
        } else {
            MonitorError::WorkerDied { shard }
        }
    }

    /// Runs a checkpoint when the interval says so. A failed attempt is
    /// not data loss — the WAL suffix still covers everything — but it is
    /// not silent either: every failure is counted in
    /// `checkpoint_failures` and the next attempt is rescheduled a quarter
    /// interval out instead of a full one, so a transiently failing disk
    /// does not quietly quadruple the replay window.
    fn maybe_checkpoint(&mut self) {
        let interval = self.config.durability.checkpoint_interval_records;
        if interval == 0 || self.records_since_ck < interval {
            return;
        }
        self.records_since_ck = 0;
        if self.dead.iter().any(|&d| d) {
            // A frozen shard cannot reach the quiescent cut; this is a
            // postponement (the next send will respawn it), not a failure.
            return;
        }
        if self.checkpoint_now().is_err() {
            self.shared
                .metrics
                .checkpoint_failures
                .fetch_add(1, Ordering::Relaxed);
            // Retry after a quarter interval of further accepted records
            // (for tiny intervals this degenerates to the next record).
            self.records_since_ck = interval - interval / 4;
        }
    }

    /// The quiescent checkpoint protocol. All file operations happen on
    /// this (the ingest) thread, so crash sweeps see one deterministic
    /// operation order:
    ///
    /// 1. rotate every shard's WAL — post-cut entries land in segments
    ///    `>= wal_floor`;
    /// 2. barrier every worker (reply = clock, open events and sealed
    ///    count, after flushing pending sealed events to the merger);
    /// 3. barrier the merger (channel FIFO ⇒ it has applied every
    ///    pre-barrier message) for its reconciliation pool and the live
    ///    state it owns;
    /// 4. write the checkpoint atomically, then delete segments below
    ///    every floor.
    fn checkpoint_now(&mut self) -> Result<(), MonitorError> {
        let wal_dir = self
            .config
            .durability
            .wal_dir
            .clone()
            .expect("checkpointing requires a WAL");
        let shards = self.senders.len();
        let wal_err = |shard: Option<usize>, detail: String| MonitorError::Wal { shard, detail };

        let mut floors = Vec::with_capacity(shards);
        for (shard, writer) in self.writers.iter_mut().enumerate() {
            let writer = writer.as_mut().expect("durability is on");
            floors.push(
                writer
                    .rotate()
                    .map_err(|e| wal_err(Some(shard), e.to_string()))?,
            );
        }

        let mut shard_states = Vec::with_capacity(shards);
        for (shard, &wal_floor) in floors.iter().enumerate() {
            let (reply_tx, reply_rx) = bounded(1);
            if self.senders[shard]
                .send(WorkerMsg::Checkpoint { reply: reply_tx })
                .is_err()
            {
                // The worker died; the next record send will notice and
                // respawn it. Abort without marking anything.
                return Err(MonitorError::WorkerDied { shard });
            }
            match reply_rx.recv_timeout(BARRIER_TIMEOUT) {
                Ok(state) => shard_states.push(ShardCkpt { wal_floor, ..state }),
                Err(_) => {
                    return Err(wal_err(
                        Some(shard),
                        "checkpoint barrier timed out".to_string(),
                    ))
                }
            }
        }

        let merger_tx = self
            .merger_tx
            .as_ref()
            .expect("merger_tx lives until finish");
        let (reply_tx, reply_rx) = bounded(1);
        merger_tx
            .send(MergerMsg::Checkpoint { reply: reply_tx })
            .map_err(|_| wal_err(None, "merger channel closed".to_string()))?;
        let (merger, live) = reply_rx
            .recv_timeout(BARRIER_TIMEOUT)
            .map_err(|_| wal_err(None, "merger barrier timed out".to_string()))?;

        let doc = CheckpointDoc {
            last_seq: self.wal_seq,
            current_window: self.current_window,
            ingest_seq: self.ingest_seq,
            shards: shard_states,
            merger,
            live,
            epochs: self.epochs.cuts.clone(),
        };
        write_checkpoint(&self.io, &wal_dir, &doc).map_err(|e| wal_err(None, e.to_string()))?;
        for (shard, &floor) in floors.iter().enumerate() {
            // Best effort: a leftover segment is re-skipped by seq on
            // replay, never re-applied.
            let _ = truncate_segments_below(&self.io, &shard_wal_dir(&wal_dir, shard), floor);
        }
        self.ckpt_base = Some(doc);
        self.shared
            .metrics
            .checkpoints
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Records a shard's worker as dead; the shared metrics flag makes the
    /// count exactly-once across ingest, the merger, and `finish`.
    fn mark_dead(&mut self, shard: usize) {
        if !self.dead[shard] {
            self.dead[shard] = true;
            self.shared.metrics.mark_worker_dead(shard);
        }
    }

    /// Shards whose worker has been observed dead — by a failed channel
    /// send, a missing merger `Done`, or a panicked join. A successfully
    /// respawned shard leaves this list.
    pub fn dead_shards(&self) -> Vec<usize> {
        self.shared.metrics.dead_shards()
    }

    /// The quarantined (dead-letter) records currently retained, oldest
    /// first, each with its typed [`QuarantineReason`]. At most
    /// `admission.quarantine_capacity` entries; the metrics counters are
    /// authoritative when the buffer has evicted.
    pub fn quarantined(&self) -> Vec<QuarantinedRecord> {
        self.dead_letter.snapshot()
    }

    /// Dead-letter entries evicted (oldest first) to honor
    /// `admission.quarantine_capacity`.
    pub fn quarantine_evicted(&self) -> u64 {
        self.dead_letter.evicted()
    }

    /// Closes the feed, drains every shard, reconciles and persists what
    /// remains, syncs the WALs, and returns the final metrics. Handles
    /// stay valid. A panicked worker is counted dead rather than
    /// re-panicking here.
    pub fn finish(mut self) -> MetricsSnapshot {
        self.senders.clear();
        for (shard, worker) in self.workers.drain(..).enumerate() {
            if let Some(worker) = worker {
                if worker.join().is_err() {
                    self.shared.metrics.mark_worker_dead(shard);
                }
            }
        }
        // Release our merger sender so its channel closes once the worker
        // clones are gone.
        self.merger_tx = None;
        if let Some(merger) = self.merger.take() {
            merger.join().expect("merger panicked");
        }
        for writer in self.writers.iter_mut().flatten() {
            let _ = writer.sync();
        }
        self.shared.metrics.snapshot(self.shared.started.elapsed())
    }
}

/// Cloneable, thread-safe query facade over the service.
///
/// Every read goes through the latest **published snapshot**:
/// [`read_view`](Self::read_view) pins it as a [`ReadView`] (one `Arc`
/// clone under a lock) and [`serve`](Self::serve) adds the result cache
/// in front. Reader and merger share that lock only for a pointer clone
/// or swap, so a read never waits on ingest work; a pinned view is
/// internally consistent across a multi-step drill-down, and it trails
/// the merger's state by at most the configured publication cadence;
/// after [`MonitorService::finish`] the latest snapshot is the final
/// state.
#[derive(Clone)]
pub struct MonitorHandle {
    shared: Arc<SharedState>,
}

impl MonitorHandle {
    /// Current service metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(self.shared.started.elapsed())
    }

    /// Pins the latest published snapshot as a [`ReadView`]: one `Arc`
    /// clone under a lock the merger holds only for a pointer swap.
    pub fn read_view(&self) -> ReadView {
        self.serve().view()
    }

    /// A `Send + Clone` snapshot-backed query handle with the result
    /// cache in front (see the `[serving]` config section).
    pub fn serve(&self) -> ServeHandle {
        ServeHandle::new(self.shared.serve.clone())
    }

    /// Builds an offline atypical forest over days
    /// `[first_day, first_day + n_days)` from one pinned view's
    /// micro-clusters (live days plus the snapshot store) and
    /// materializes every week and month level the range covers.
    ///
    /// Roll-ups fan out over the configured [`Params::parallelism`]
    /// workers through the deterministic parallel engine, so the returned
    /// forest is bit-identical at every setting — `parallelism = 1` in
    /// the service config forces the sequential path.
    pub fn forest_snapshot(
        &self,
        first_day: u32,
        n_days: u32,
    ) -> cps_core::Result<atypical::AtypicalForest> {
        let view = self.read_view();
        let mut forest = atypical::AtypicalForest::new(self.shared.spec, self.shared.params);
        for day in first_day..first_day.saturating_add(n_days) {
            let micros = view.micro_clusters_for_day(day)?;
            forest.insert_day(day, Arc::unwrap_or_clone(micros));
        }
        forest.materialize_range(first_day, n_days);
        Ok(forest)
    }
}
