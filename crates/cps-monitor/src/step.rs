//! One shard's step of the online pipeline, and the WAL replay that drives
//! it.
//!
//! A [`ShardStep`] is one shard's [`OnlineExtractor`] (raw-event mode) plus
//! the boundary predicate its floor reports use. Records go in; sealed raw
//! events and clock reports come out as [`MergerMsg`]s handed to an `emit`
//! sink. The worker thread, recovery and respawn all drive a shard through
//! it — the worker's sink is the merger channel, recovery's is
//! [`crate::merger::Merger::apply`] inline, respawn's forwards only what
//! the merger has not seen — so a replayed shard reaches exactly the state
//! a live one did and reports it to the merger the same way.

use crate::durability::{ShardCkpt, WalEntry, WalOp};
use crate::merger::MergerMsg;
use crate::service::SharedState;
use crate::shard::{BoundaryInfo, EpochChain};
use atypical::online::{OnlineExtractor, OutOfOrderRecord};
use cps_core::{RecordBatch, TimeWindow};
use std::sync::Arc;

pub(crate) struct ShardStep<'n> {
    shard: usize,
    extractor: OnlineExtractor<'n>,
    boundary: Arc<BoundaryInfo>,
    /// Sealed events emitted over the shard's life, those before the
    /// state it was restored from included.
    sealed: u64,
}

impl<'n> ShardStep<'n> {
    /// A step resuming from `state` ([`ShardCkpt::default`] starts fresh).
    pub(crate) fn restore(
        shard: usize,
        shared: &'n SharedState,
        boundary: Arc<BoundaryInfo>,
        state: ShardCkpt,
    ) -> Self {
        let mut extractor = OnlineExtractor::new(&shared.network, shared.params, shared.spec);
        extractor.retain_raw_events(true);
        extractor.restore_open_events(state.clock, state.open);
        Self {
            shard,
            extractor,
            boundary,
            sealed: state.sealed_sent,
        }
    }

    /// Applies one routed sub-batch. Events it seals are emitted at the
    /// next [`advance`](Self::advance) or [`export`](Self::export).
    pub(crate) fn apply(&mut self, batch: &RecordBatch) -> Result<(), OutOfOrderRecord> {
        self.extractor.apply_batch(batch)
    }

    /// A window-advance broadcast: seal what can no longer grow, emit it,
    /// then report the clock and floors.
    pub(crate) fn advance(&mut self, window: TimeWindow, emit: &mut impl FnMut(MergerMsg)) {
        self.extractor.advance_to(window);
        self.emit_sealed(emit);
        emit(self.clock(window));
    }

    /// Adopts a shard-map epoch's accumulated predicate and re-reports the
    /// floors under it. Floors can only widen (the predicate grows), so the
    /// report is conservative; its window repeats the last advance, never
    /// regressing the merger's clock.
    pub(crate) fn adopt(&mut self, boundary: Arc<BoundaryInfo>, emit: &mut impl FnMut(MergerMsg)) {
        self.boundary = boundary;
        emit(self.clock(self.extractor.current_window()));
    }

    /// The checkpoint form of this shard. Emits events sealed since the
    /// last advance first: the merger state checkpointed with it must
    /// cover them, and the open-event export does not.
    pub(crate) fn export(&mut self, emit: &mut impl FnMut(MergerMsg)) -> ShardCkpt {
        self.emit_sealed(emit);
        ShardCkpt {
            clock: self.extractor.current_window(),
            open: self.extractor.export_open_events(),
            sealed_sent: self.sealed,
            wal_floor: 0,
        }
    }

    /// End of stream: seals and emits every open event.
    pub(crate) fn finish(self, emit: &mut impl FnMut(MergerMsg)) {
        let events = self.extractor.finish_raw();
        if !events.is_empty() {
            emit(MergerMsg::Sealed { events });
        }
    }

    fn emit_sealed(&mut self, emit: &mut impl FnMut(MergerMsg)) {
        let events = self.extractor.drain_sealed_raw();
        if !events.is_empty() {
            self.sealed += events.len() as u64;
            emit(MergerMsg::Sealed { events });
        }
    }

    fn clock(&self, window: TimeWindow) -> MergerMsg {
        let (open_floor, boundary_floor) =
            self.extractor.open_floors(|s| self.boundary.is_boundary(s));
        MergerMsg::Clock {
            shard: self.shard,
            window,
            open_floor,
            boundary_floor,
        }
    }
}

/// Replays logged ingest→worker messages, in `seq` order, onto the shards
/// `steps` hold (entries for other shards are skipped), emitting what they
/// produce; returns the ingest clock `clock` advanced past every replayed
/// record and advance.
///
/// With `chain` (recovery: every shard replays) each logged rebalance
/// epoch is committed the way the live barrier did it: every step adopts
/// the new predicate before the merger sees the epoch. Without it
/// (respawn: one shard) rebalances are skipped — that step already holds
/// the service's current predicate, a superset of every logged epoch's.
///
/// Finally every step catches up to the clock: a crash mid-broadcast
/// leaves some shards without the final advance entry, and a completed
/// broadcast would have aligned them. Not logged — a later replay
/// re-derives it from the same entries.
pub(crate) fn replay(
    entries: &[(usize, WalEntry)],
    steps: &mut [ShardStep<'_>],
    mut chain: Option<&mut EpochChain>,
    mut clock: Option<TimeWindow>,
    emit: &mut impl FnMut(MergerMsg),
) -> Option<TimeWindow> {
    for (shard, entry) in entries {
        let Some(at) = steps.iter().position(|s| s.shard == *shard) else {
            continue;
        };
        match &entry.op {
            WalOp::Batch { records, .. } => {
                clock = clock.max(records.iter().map(|r| r.window).max());
                let _ = steps[at].apply(&RecordBatch::from_records(records));
            }
            WalOp::Advance(window) => {
                clock = clock.max(Some(*window));
                steps[at].advance(*window, emit);
            }
            WalOp::Rebalance { epoch, cuts } => {
                // Logged to every shard, so each epoch appears up to
                // `shards` times; apply the first copy, skip the rest by
                // epoch number.
                let Some(chain) = chain.as_deref_mut() else {
                    continue;
                };
                if *epoch != chain.cuts.len() as u64 + 1 {
                    continue;
                }
                let next = chain.successor(cuts);
                chain.commit(next, cuts);
                for step in steps.iter_mut() {
                    step.adopt(chain.boundary.clone(), emit);
                }
                emit(MergerMsg::Rebalance {
                    boundary: chain.boundary.clone(),
                });
            }
        }
    }
    if let Some(window) = clock {
        for step in steps.iter_mut() {
            step.advance(window, emit);
        }
    }
    clock
}
