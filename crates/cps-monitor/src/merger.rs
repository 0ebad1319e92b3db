//! The merger thread: cross-shard reconciliation, live-state maintenance,
//! and snapshot persistence.
//!
//! ## Why reconciliation is exact
//!
//! Every record of a shard-`s` event lives on a shard-`s` sensor, so a
//! direct δd/δt relation between records of two *different* sealed events
//! can only pair sensors from different shards (two events sealed by the
//! same shard are distinct connected components of the relation restricted
//! to that shard — had any pair of their records been related, the
//! extractor would have merged them while open). The merger therefore only
//! tracks events containing *boundary* records, unions them when a
//! boundary record of one is within `δd` (via [`BoundaryInfo::neighbors`])
//! and `max_gap` windows of a boundary record of the other, and lets
//! union-find close the transitive chains. The result equals the global
//! connected components the single-threaded extractor would have built.
//! Under adaptive rebalancing the boundary predicate is the *union* over
//! every shard-map epoch (plus self-adjacency for migrated sensors) — see
//! [`BoundaryInfo`] — so fragments split by a migration still union.
//!
//! ## When a pending component may finalize
//!
//! Let `last` be the latest window among the component's boundary records.
//! A future or still-open record can join the component only through a
//! boundary record with window ≤ `last + max_gap`. So the component is
//! complete once every shard either finished, or has both its clock and
//! its oldest open *boundary* record strictly past `last + max_gap`
//! (workers report both with every window advance). Interior events —
//! no boundary record — are exact global components the moment they seal
//! and bypass the pool entirely.
//!
//! ## When a day may be persisted
//!
//! Day `d` is complete once every shard's clock passed
//! `day_end + max_gap` (nothing sealing later can *start* in day `d`),
//! no open event began in day `d` (workers report the oldest open record),
//! and no pending component has a record in day `d`. Its micro-clusters
//! then move to the [`ForestStore`] day level and leave live memory.

use crate::durability::{LiveCkpt, MergerCkpt};
use crate::live::LiveState;
use crate::metrics::Metrics;
use crate::service::SharedState;
use crate::shard::{BoundaryInfo, ShardMap};
use atypical::online::SealedRawEvent;
use atypical::{AtypicalCluster, AtypicalEvent};
use cps_core::fx::FxHashMap;
use cps_core::{AtypicalRecord, SensorId, TimeWindow};
use crossbeam::channel::{Receiver, Sender};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Worker → merger protocol.
pub(crate) enum MergerMsg {
    /// Events sealed by one shard since the last advance.
    Sealed { events: Vec<SealedRawEvent> },
    /// One shard's progress report, sent on every window advance.
    Clock {
        shard: usize,
        /// The shard extractor's current window.
        window: TimeWindow,
        /// Oldest record among the shard's still-open events.
        open_floor: Option<TimeWindow>,
        /// Oldest *boundary-sensor* record among still-open events.
        boundary_floor: Option<TimeWindow>,
    },
    /// The shard's channel closed and its final events were flushed.
    Done { shard: usize },
    /// Quiescent-checkpoint barrier: the ingest thread is blocked and
    /// every worker has acked, so all prior messages are already applied.
    /// The merger replies with its private state and the live state's
    /// checkpoint form.
    Checkpoint {
        reply: Sender<(MergerCkpt, LiveCkpt)>,
    },
    /// A shard-map epoch change: the accumulated boundary predicate
    /// (union over every epoch so far). Sent by the ingest thread *after*
    /// every worker acked the new map and enqueued its recomputed floors,
    /// so by FIFO causality the merger always sees the new floors before
    /// (or with) the first event sealed under the new map.
    Rebalance { boundary: Arc<BoundaryInfo> },
}

/// One sealed boundary event waiting for reconciliation.
struct PendingEvent {
    records: Vec<AtypicalRecord>,
    /// Latest window among records at boundary sensors.
    boundary_last: TimeWindow,
    /// Earliest window among all records (for day-completion checks).
    min_window: TimeWindow,
    /// Distinct boundary sensors of this event — the `by_sensor` keys its
    /// entries live under, so finalization can evict them without
    /// re-deriving the set from `records`.
    boundary_sensors: Vec<SensorId>,
}

/// Whether any pair drawn from two ascending window lists is within
/// `max_gap`. Two-pointer sweep: if the current pair is too far apart,
/// only advancing the smaller side can help.
fn any_within_gap(a: &[TimeWindow], b: &[TimeWindow], max_gap: u32) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].gap(b[j]) <= max_gap {
            return true;
        }
        if a[i] < b[j] {
            i += 1;
        } else {
            j += 1;
        }
    }
    false
}

pub(crate) struct Merger {
    shared: Arc<SharedState>,
    /// The query-side state. Owned here: the merger is its only writer,
    /// and readers see it only through published snapshots.
    live: LiveState,
    map: Arc<ShardMap>,
    /// The boundary predicate reconciliation runs on: the union over every
    /// shard-map epoch whose events may still be pending (see
    /// [`BoundaryInfo`]). Swapped by [`MergerMsg::Rebalance`].
    info: Arc<BoundaryInfo>,
    max_gap: u32,
    /// Slab of pending events; `None` = finalized.
    pending: Vec<Option<PendingEvent>>,
    /// Union-find over slab slots.
    parent: Vec<usize>,
    /// Live (still-`Some`) slot count — lets the per-message finalize
    /// pass bail out without touching the slab at all.
    live_pending: usize,
    /// First slot that may still be live: slots below it are all
    /// finalized. Components finalize roughly in seal order, so this
    /// keeps slab scans proportional to the *live band*, not the whole
    /// run's history.
    scan_base: usize,
    /// Boundary windows of pending events, indexed by sensor: one entry
    /// per (event, sensor) holding that event's ascending window list at
    /// the sensor. Grouping by event (rather than one entry per record)
    /// keeps the relatedness probe linear in the windows compared — with
    /// per-record entries, dense events made admission quadratic in the
    /// boundary record count.
    by_sensor: FxHashMap<SensorId, Vec<(usize, Vec<TimeWindow>)>>,
    clock: Vec<Option<TimeWindow>>,
    open_floor: Vec<Option<TimeWindow>>,
    boundary_floor: Vec<Option<TimeWindow>>,
    done: Vec<bool>,
    /// Micro-clusters admitted since the last snapshot publication.
    clusters_since_publish: u64,
    /// Global window advances since the last snapshot publication.
    windows_since_publish: u32,
    /// Latest window any shard has reported (the global clock).
    global_window: Option<TimeWindow>,
}

impl Merger {
    /// Restores a merger from its checkpoint part ([`MergerCkpt::default`]
    /// for a fresh start). Compaction note: the
    /// checkpoint stores one record list per union-find component; a
    /// single restored slot per component is behavior-equivalent to the
    /// original slots because (a) finalize sorts records before building
    /// the event, (b) the component's boundary-record set — what future
    /// unions and `component_closed` consult — is preserved, and (c)
    /// `boundary_last`/`min_window` are recomputed maxima/minima over the
    /// same records.
    pub(crate) fn restore(
        shared: Arc<SharedState>,
        map: Arc<ShardMap>,
        info: Arc<BoundaryInfo>,
        max_gap: u32,
        live: LiveState,
        ckpt: &MergerCkpt,
    ) -> Self {
        let shards = map.num_shards();
        let mut merger = Self {
            shared,
            live,
            map,
            info,
            max_gap,
            pending: Vec::new(),
            parent: Vec::new(),
            live_pending: 0,
            scan_base: 0,
            by_sensor: FxHashMap::default(),
            clock: vec![None; shards],
            open_floor: vec![None; shards],
            boundary_floor: vec![None; shards],
            done: vec![false; shards],
            clusters_since_publish: 0,
            windows_since_publish: 0,
            global_window: None,
        };
        for (shard, &(clock, open_floor, boundary_floor, done)) in ckpt.progress.iter().enumerate()
        {
            merger.clock[shard] = clock;
            merger.open_floor[shard] = open_floor;
            merger.boundary_floor[shard] = boundary_floor;
            merger.done[shard] = done;
        }
        for records in &ckpt.components {
            let slot = merger.pending.len();
            // Checkpointed component records are concatenations of slot
            // lists, not globally sorted — sort each window list so the
            // index invariant (ascending per sensor) holds after restore.
            let mut groups: FxHashMap<SensorId, Vec<TimeWindow>> = FxHashMap::default();
            for r in records {
                if merger.info.is_boundary(r.sensor) {
                    groups.entry(r.sensor).or_default().push(r.window);
                }
            }
            for windows in groups.values_mut() {
                windows.sort_unstable();
            }
            let boundary_last = groups
                .values()
                .filter_map(|w| w.last())
                .copied()
                .max()
                .expect("pooled components contain boundary records");
            let min_window = records
                .iter()
                .map(|r| r.window)
                .min()
                .expect("components are non-empty");
            let boundary_sensors: Vec<SensorId> = groups.keys().copied().collect();
            // Components were pairwise unrelated at the cut (related ones
            // were already unioned), so no cross-slot unions re-form here.
            for (s, windows) in groups {
                merger.by_sensor.entry(s).or_default().push((slot, windows));
            }
            merger.pending.push(Some(PendingEvent {
                records: records.clone(),
                boundary_last,
                min_window,
                boundary_sensors,
            }));
            merger.parent.push(slot);
            merger.live_pending += 1;
        }
        merger
    }

    /// The merger-private state for a checkpoint: per-shard progress plus
    /// the pending pool compacted to one record list per union-find
    /// component (slab order of each component's first slot).
    fn checkpoint(&mut self) -> MergerCkpt {
        let mut roots: FxHashMap<usize, usize> = FxHashMap::default();
        let mut components: Vec<Vec<AtypicalRecord>> = Vec::new();
        for slot in self.scan_base..self.pending.len() {
            if self.pending[slot].is_none() {
                continue;
            }
            let root = self.find(slot);
            let idx = *roots.entry(root).or_insert_with(|| {
                components.push(Vec::new());
                components.len() - 1
            });
            components[idx].extend(
                self.pending[slot]
                    .as_ref()
                    .expect("checked live")
                    .records
                    .iter()
                    .copied(),
            );
        }
        MergerCkpt {
            progress: (0..self.map.num_shards())
                .map(|s| {
                    (
                        self.clock[s],
                        self.open_floor[s],
                        self.boundary_floor[s],
                        self.done[s],
                    )
                })
                .collect(),
            components,
        }
    }

    /// Applies one message and runs the finalize/persist passes — the
    /// per-message body of [`run`](Self::run), shared with single-threaded
    /// recovery replay.
    pub(crate) fn apply(&mut self, msg: MergerMsg) {
        match msg {
            MergerMsg::Sealed { events } => {
                for event in events {
                    self.admit_sealed(event);
                }
            }
            MergerMsg::Clock {
                shard,
                window,
                open_floor,
                boundary_floor,
            } => {
                self.clock[shard] = Some(window);
                self.open_floor[shard] = open_floor;
                self.boundary_floor[shard] = boundary_floor;
                // Count *global* clock advances (shard clocks move in
                // lock-step per broadcast, so only the first report of a
                // new window counts) toward the window publication
                // cadence: quiet periods still refresh readers.
                if self.global_window.is_none_or(|g| window > g) {
                    self.global_window = Some(window);
                    self.windows_since_publish += 1;
                }
            }
            MergerMsg::Done { shard } => {
                self.done[shard] = true;
                self.open_floor[shard] = None;
                self.boundary_floor[shard] = None;
            }
            MergerMsg::Checkpoint { reply } => {
                let _ = reply.send((self.checkpoint(), self.live.checkpoint()));
                return;
            }
            MergerMsg::Rebalance { boundary } => {
                // Growth-only swap: every sensor flagged under the old
                // info stays flagged, so pending bookkeeping stays valid.
                self.info = boundary;
            }
        }
        self.finalize_ready();
        self.persist_complete_days();
        self.publish_if_due();
    }

    /// Publishes a fresh snapshot when either cadence counter crossed its
    /// configured threshold: admissions since the last publication
    /// (bumped by [`finalize_records`](Self::finalize_records)) or global
    /// window advances (bumped by the `Clock` handler). Both counters
    /// reset together — one publication covers everything accumulated.
    fn publish_if_due(&mut self) {
        let serving = self.shared.serving;
        if self.clusters_since_publish >= serving.publish_every_clusters
            || self.windows_since_publish >= serving.publish_every_windows
        {
            self.publish_snapshot();
        }
    }

    /// Publishes the live state's current read model through the serving
    /// cell, stamped with a fresh epoch, and resets both cadence counters.
    fn publish_snapshot(&mut self) {
        let epoch = self.shared.serve.next_epoch();
        self.shared.serve.publish(self.live.publishable(epoch));
        self.metrics()
            .snapshots_published
            .fetch_add(1, Ordering::Relaxed);
        self.clusters_since_publish = 0;
        self.windows_since_publish = 0;
    }

    pub(crate) fn run(mut self, rx: Receiver<MergerMsg>) {
        while let Ok(msg) = rx.recv() {
            self.apply(msg);
        }
        // All senders dropped: no more input exists (a shard that died
        // without reporting Done still closed its channel when its thread
        // exited), so every pending component is complete. A missing Done
        // at this point *is* a worker death — record it here so deaths the
        // ingest path never observed (all its sends were buffered) are
        // still counted deterministically.
        for shard in 0..self.map.num_shards() {
            if !self.done[shard] {
                self.metrics().mark_worker_dead(shard);
            }
        }
        self.finalize_all();
        self.persist_complete_days();
        // Final publication: after `finish` joins this thread, the latest
        // snapshot is the quiescent live state.
        self.publish_snapshot();
    }

    fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Routes one sealed event: interior events finalize immediately;
    /// boundary events enter the pool and union with any related pending
    /// event.
    fn admit_sealed(&mut self, event: SealedRawEvent) {
        self.metrics().events_sealed.fetch_add(1, Ordering::Relaxed);
        // Sealed records arrive sorted by (window, sensor), so each
        // per-sensor window list comes out ascending — what the
        // two-pointer relatedness sweep needs.
        let mut groups: FxHashMap<SensorId, Vec<TimeWindow>> = FxHashMap::default();
        for r in &event.records {
            if self.info.is_boundary(r.sensor) {
                groups.entry(r.sensor).or_default().push(r.window);
            }
        }
        if groups.is_empty() {
            self.finalize_records(event.records);
            return;
        }
        self.metrics()
            .boundary_events
            .fetch_add(1, Ordering::Relaxed);

        let slot = self.pending.len();
        let boundary_last = groups
            .values()
            .filter_map(|w| w.last())
            .copied()
            .max()
            .expect("non-empty");
        let min_window = event
            .records
            .iter()
            .map(|r| r.window)
            .min()
            .expect("sealed events are non-empty");
        self.pending.push(Some(PendingEvent {
            records: event.records,
            boundary_last,
            min_window,
            boundary_sensors: groups.keys().copied().collect(),
        }));
        self.parent.push(slot);
        self.live_pending += 1;

        // Union with every related pending event. Cross-shard relations
        // always pair boundary sensors with their cross-shard δd-neighbors,
        // so the by-sensor index over boundary windows is complete.
        let mut related = Vec::new();
        for (s, windows) in &groups {
            for &nb in self.info.neighbors(*s) {
                if let Some(list) = self.by_sensor.get(&nb) {
                    for (other, other_windows) in list {
                        if self.pending[*other].is_some()
                            && any_within_gap(windows, other_windows, self.max_gap)
                        {
                            related.push(*other);
                        }
                    }
                }
            }
        }
        for other in related {
            self.union(slot, other);
        }
        for (s, windows) in groups {
            self.by_sensor.entry(s).or_default().push((slot, windows));
        }
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
            self.metrics()
                .cross_shard_merges
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether no shard can still contribute a record relating to a
    /// component whose latest boundary window is `last`.
    fn component_closed(&self, last: TimeWindow) -> bool {
        let horizon = last.raw() as u64 + self.max_gap as u64;
        (0..self.map.num_shards()).all(|s| {
            self.done[s]
                || (self.clock[s].is_some_and(|c| c.raw() as u64 > horizon)
                    && self.boundary_floor[s].is_none_or(|f| f.raw() as u64 > horizon))
        })
    }

    /// Finalizes every pending component that can no longer grow.
    fn finalize_ready(&mut self) {
        if self.live_pending == 0 {
            return;
        }
        // Group live slots by root, tracking each component's horizon.
        let mut roots: FxHashMap<usize, (TimeWindow, Vec<usize>)> = FxHashMap::default();
        for slot in self.scan_base..self.pending.len() {
            if self.pending[slot].is_none() {
                continue;
            }
            let root = self.find(slot);
            let last = self.pending[slot]
                .as_ref()
                .expect("checked live")
                .boundary_last;
            let entry = roots.entry(root).or_insert((last, Vec::new()));
            entry.0 = entry.0.max(last);
            entry.1.push(slot);
        }
        for (_, (last, slots)) in roots {
            if self.component_closed(last) {
                self.finalize_component(&slots);
            }
        }
    }

    /// Unconditionally finalizes everything pending (only valid once all
    /// shards are done).
    fn finalize_all(&mut self) {
        let mut roots: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for slot in self.scan_base..self.pending.len() {
            if self.pending[slot].is_some() {
                let root = self.find(slot);
                roots.entry(root).or_default().push(slot);
            }
        }
        for (_, slots) in roots {
            self.finalize_component(&slots);
        }
    }

    /// Drains a component's slots into one reconciled event.
    fn finalize_component(&mut self, slots: &[usize]) {
        let mut records = Vec::new();
        for &slot in slots {
            let event = self.pending[slot].take().expect("slot still pending");
            for s in &event.boundary_sensors {
                if let Some(list) = self.by_sensor.get_mut(s) {
                    list.retain(|(o, _)| *o != slot);
                }
            }
            records.extend(event.records);
        }
        self.live_pending -= slots.len();
        while self.scan_base < self.pending.len() && self.pending[self.scan_base].is_none() {
            self.scan_base += 1;
        }
        self.finalize_records(records);
    }

    /// The single-threaded epilogue every event reaches: trust filter,
    /// then micro-cluster admission into the live state.
    fn finalize_records(&mut self, mut records: Vec<AtypicalRecord>) {
        if records.len() < self.shared.params.min_event_records as usize {
            self.metrics()
                .events_discarded
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        records.sort_by_key(|r| (r.window, r.sensor));
        let event = AtypicalEvent::new(records);
        let id = self.live.ids.next_id();
        let cluster = AtypicalCluster::from_event(id, &event);
        self.live
            .admit(cluster, self.shared.spec, &self.shared.partition);
        self.metrics()
            .micro_clusters
            .fetch_add(1, Ordering::Relaxed);
        self.metrics()
            .macro_clusters
            .store(self.live.macros.len() as u64, Ordering::Relaxed);
        let istats = self.live.macros.stats();
        self.metrics()
            .integration_candidates_pruned
            .store(istats.candidates_pruned, Ordering::Relaxed);
        self.metrics()
            .integration_bound_skips
            .store(istats.bound_skips, Ordering::Relaxed);
        self.metrics()
            .integration_comparisons
            .store(istats.comparisons, Ordering::Relaxed);
        self.metrics()
            .integration_merges
            .store(istats.merges, Ordering::Relaxed);
        self.clusters_since_publish += 1;
    }

    /// Persists (and evicts) every live day that is provably complete.
    fn persist_complete_days(&mut self) {
        if self.shared.store.is_none() {
            return;
        }
        let windows_per_day = self.shared.spec.windows_per_day() as u64;
        loop {
            let Some(&day) = self.live.micros_by_day.keys().next() else {
                return;
            };
            let day_end = (day as u64 + 1) * windows_per_day - 1;
            let closed = (0..self.map.num_shards()).all(|s| {
                self.done[s]
                    || (self.clock[s]
                        .is_some_and(|c| c.raw() as u64 > day_end + self.max_gap as u64)
                        && self.open_floor[s].is_none_or(|f| f.raw() as u64 > day_end))
            }) && self.pending[self.scan_base..]
                .iter()
                .flatten()
                .all(|p| p.min_window.raw() as u64 > day_end);
            if !closed {
                return;
            }
            // No publication happens between the eviction and the store
            // write below, so no reader ever pins a state where the day is
            // neither live nor on disk.
            let micros = self.live.evict_day(day).expect("day key just observed");
            let store = self.shared.store.as_ref().expect("checked on entry");
            match store.save(atypical::store::ForestLevel::Day, day, &micros) {
                Ok(()) => {
                    let bytes = std::fs::metadata(
                        store.bucket_path(atypical::store::ForestLevel::Day, day),
                    )
                    .map(|m| m.len())
                    .unwrap_or(0);
                    self.metrics()
                        .days_persisted
                        .fetch_add(1, Ordering::Relaxed);
                    self.metrics()
                        .snapshot_bytes
                        .fetch_add(bytes, Ordering::Relaxed);
                    // A seal changes where readers must look for the day
                    // (store, not snapshot) and bumps `seal_epoch`:
                    // publish immediately so cache entries keyed to the
                    // old epoch die and no reader misses the day.
                    self.publish_snapshot();
                }
                Err(e) => {
                    // Persistence is an optimization; keep serving from
                    // memory rather than killing the merger.
                    eprintln!("cps-monitor: failed to persist day {day}: {e}");
                    self.live.unevict_day(day, micros);
                    return;
                }
            }
        }
    }
}
