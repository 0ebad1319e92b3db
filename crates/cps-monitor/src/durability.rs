//! Durable formats of the crash-tolerant monitor: WAL entries and the
//! checkpoint document.
//!
//! ## WAL entries
//!
//! Each shard has its own segment-rotated log (see [`cps_storage::wal`])
//! under `wal_dir/shard-<s>/`. An entry is one frame payload:
//!
//! ```text
//! entry := seq u64 | tag u8 | body
//! body  := window u32                                              tag 1
//!        | flush_first u64 | flush_len u32 | count u32
//!          | count × record (16 B each,
//!            `cps_storage::format::encode_atypical`)               tag 2
//!        | epoch u64 | num_cuts u32 | num_cuts × cut u32           tag 3
//! ```
//!
//! Any other tag is `Corrupt`.
//!
//! `seq` is a *global* append counter across every shard's log, so the
//! union of all shard logs, sorted by `seq`, is exactly the sequence of
//! messages the ingest thread successfully sent — recovery replays it
//! single-threadedly and lands in the same state.
//!
//! A **batch** entry (tag 2) logs one whole sub-batch sent to a shard in a
//! single WAL frame, amortizing the frame CRC, the `Io` write and the
//! (group-commit) fsync across the batch. Replay stays record-granular:
//! the entry's `seq` is the *first* record's global sequence number and
//! the `i`-th record in the body implicitly carries `seq + i`, so
//! `resume_from` accounting and exactly-once re-feeding work mid-batch.
//!
//! One `ingest_batch` call flushes one frame per non-empty shard; the
//! frames of that **flush** share `flush_first` (the flush's first global
//! sequence number) and `flush_len` (its total record count across every
//! shard). A crash can strand part of a flush — tear its last written
//! frame (dropped whole by the WAL tail repair) or lose the frames not yet
//! written — and the surviving frames would be a shard-grouped *subset* of
//! a feed-contiguous batch, not a feed prefix. Recovery therefore drops
//! every frame of a flush whose recovered record count falls short of its
//! `flush_len`: the feed sees an incomplete flush as wholly unapplied, so
//! `resume_from` stays a clean record prefix and re-feeding the batch
//! applies each record exactly once. An incomplete flush stays incomplete
//! on disk forever (its missing frames are never written), so later
//! recoveries re-drop the same frames deterministically.
//!
//! A **rebalance** entry (tag 3) records a shard-map epoch change: the new
//! cut vector over the map's fixed spatial sensor order. It is logged to
//! *every* shard's WAL (each copy with its own `seq`) after all workers
//! acknowledged the new map, so seq-order replay swaps the map at exactly
//! the point no in-flight record straddles the change; duplicate copies
//! are idempotent by `epoch`.
//!
//! ## The checkpoint document
//!
//! `wal_dir/checkpoint.ck` is written atomically (tmp + rename) at a
//! quiescent cut: every worker has processed its whole queue and the
//! merger has processed every message the workers produced. The document
//! therefore captures an exact "state after ingest prefix P" — recovery
//! loads it and replays only WAL entries with `seq >` [`CheckpointDoc::last_seq`].
//! A cluster in the document is one `⟨ID, SF, TF⟩` row (little-endian;
//! features in ascending key order, no key twice, SF and TF totals equal):
//!
//! ```text
//! cluster := id u64 | merged u32 | |SF| u32 | |TF| u32
//!            (sensor u32, severity u64)^|SF|
//!            (window u32, severity u64)^|TF|
//! ```
//!
//! A checkpoint of any version other than [`CKPT_VERSION`] is a typed
//! [`CpsError::VersionMismatch`] naming the file.

use atypical::feature::{SpatialFeature, TemporalFeature};
use atypical::AtypicalCluster;
use bytes::{Buf, BufMut};
use cps_core::{
    AtypicalRecord, ClusterId, CpsError, RecordBatch, Result, SensorId, Severity, TimeWindow,
};
use cps_storage::crc::crc32;
use cps_storage::format::{decode_atypical, encode_atypical, RECORD_SIZE};
use cps_storage::wal::read_wal;
use cps_storage::Io;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Checkpoint file magic.
pub const CKPT_MAGIC: [u8; 4] = *b"CPSC";
/// Checkpoint format version.
pub const CKPT_VERSION: u32 = 2;

/// One logged ingest→worker message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// A window-advance broadcast.
    Advance(TimeWindow),
    /// A whole sub-batch routed to the shard in one frame. The entry's
    /// `seq` belongs to the first record; record `i` implicitly carries
    /// `seq + i`. `flush_first`/`flush_len` tie together the frames of
    /// one `ingest_batch` flush so recovery can detect (and drop) an
    /// incomplete flush — see the module docs.
    Batch {
        /// First global sequence number of the whole flush this frame
        /// belongs to.
        flush_first: u64,
        /// Total records across every frame of the flush.
        flush_len: u32,
        /// This shard's records, in feed order.
        records: Vec<AtypicalRecord>,
    },
    /// A shard-map epoch change: the new cut vector (see
    /// [`crate::shard::ShardMap::cuts`]). Logged to every shard's WAL;
    /// idempotent by epoch.
    Rebalance {
        /// The epoch the cuts establish (epoch 0 is the initial map).
        epoch: u64,
        /// `num_shards + 1` cut positions over the spatial sensor order.
        cuts: Vec<u32>,
    },
}

impl WalOp {
    /// The records this entry carries, in feed order (none for an advance
    /// or a rebalance); record `i` has sequence number `seq + i`.
    pub fn records(&self) -> &[AtypicalRecord] {
        match self {
            WalOp::Batch { records, .. } => records,
            WalOp::Advance(_) | WalOp::Rebalance { .. } => &[],
        }
    }
}

/// A decoded WAL entry: the global sequence number plus the message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalEntry {
    /// Global (cross-shard) append sequence number.
    pub seq: u64,
    /// The logged message.
    pub op: WalOp,
}

/// Encodes one entry into a fresh payload buffer.
pub fn encode_entry(seq: u64, op: &WalOp) -> Vec<u8> {
    let mut buf = Vec::with_capacity(9 + RECORD_SIZE);
    buf.put_u64_le(seq);
    match op {
        WalOp::Advance(w) => {
            buf.put_u8(1);
            buf.put_u32_le(w.raw());
        }
        WalOp::Batch {
            flush_first,
            flush_len,
            records,
        } => {
            buf.reserve(17 + records.len() * RECORD_SIZE);
            buf.put_u8(2);
            buf.put_u64_le(*flush_first);
            buf.put_u32_le(*flush_len);
            buf.put_u32_le(records.len() as u32);
            for r in records {
                encode_atypical(r, &mut buf);
            }
        }
        WalOp::Rebalance { epoch, cuts } => {
            buf.put_u8(3);
            buf.put_u64_le(*epoch);
            buf.put_u32_le(cuts.len() as u32);
            for cut in cuts {
                buf.put_u32_le(*cut);
            }
        }
    }
    buf
}

/// Encodes a batch entry (tag 2) straight from a struct-of-arrays
/// [`RecordBatch`] into `buf` (cleared first) — the ingest hot path uses
/// this to avoid materializing a row-form `Vec<AtypicalRecord>` per
/// sub-batch. `seq` is this frame's first global sequence number;
/// `flush_first`/`flush_len` describe the whole flush the frame belongs
/// to.
pub fn encode_batch_entry(
    seq: u64,
    flush_first: u64,
    flush_len: u32,
    batch: &RecordBatch,
    buf: &mut Vec<u8>,
) {
    buf.clear();
    buf.reserve(25 + batch.len() * RECORD_SIZE);
    buf.put_u64_le(seq);
    buf.put_u8(2);
    buf.put_u64_le(flush_first);
    buf.put_u32_le(flush_len);
    buf.put_u32_le(batch.len() as u32);
    for i in 0..batch.len() {
        encode_atypical(&batch.get(i), buf);
    }
}

/// Decodes one entry payload.
pub fn decode_entry(payload: &[u8]) -> Result<WalEntry> {
    let mut buf = payload;
    if buf.remaining() < 9 {
        return Err(CpsError::corrupt(
            "wal entry",
            "payload shorter than header",
        ));
    }
    let seq = buf.get_u64_le();
    let tag = buf.get_u8();
    let op = match tag {
        1 => {
            if buf.remaining() != 4 {
                return Err(CpsError::corrupt("wal entry", "bad advance body length"));
            }
            WalOp::Advance(TimeWindow::new(buf.get_u32_le()))
        }
        2 => {
            if buf.remaining() < 16 {
                return Err(CpsError::corrupt("wal entry", "truncated batch header"));
            }
            let flush_first = buf.get_u64_le();
            let flush_len = buf.get_u32_le();
            let n = buf.get_u32_le() as usize;
            if buf.remaining() != n * RECORD_SIZE {
                return Err(CpsError::corrupt("wal entry", "bad batch body length"));
            }
            if seq < flush_first || seq - flush_first + n as u64 > u64::from(flush_len) {
                return Err(CpsError::corrupt("wal entry", "batch outside its flush"));
            }
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(decode_atypical(&buf[..RECORD_SIZE]));
                buf.advance(RECORD_SIZE);
            }
            WalOp::Batch {
                flush_first,
                flush_len,
                records,
            }
        }
        3 => {
            if buf.remaining() < 12 {
                return Err(CpsError::corrupt("wal entry", "truncated rebalance header"));
            }
            let epoch = buf.get_u64_le();
            let n = buf.get_u32_le() as usize;
            if buf.remaining() != n * 4 {
                return Err(CpsError::corrupt("wal entry", "bad rebalance body length"));
            }
            let mut cuts = Vec::with_capacity(n);
            for _ in 0..n {
                cuts.push(buf.get_u32_le());
            }
            WalOp::Rebalance { epoch, cuts }
        }
        other => {
            return Err(CpsError::corrupt(
                "wal entry",
                format!("unknown tag {other}"),
            ))
        }
    };
    Ok(WalEntry { seq, op })
}

/// One shard's WAL directory under the monitor's `wal_dir`.
pub fn shard_wal_dir(wal_dir: &Path, shard: usize) -> PathBuf {
    wal_dir.join(format!("shard-{shard}"))
}

/// Reads one shard's log: every entry past `base_seq`, in `seq` order,
/// plus whether the last segment ends in a torn frame. Repairing that
/// tail is the caller's call — recovery owns the log and repairs it; a
/// respawn must not, because the live writer owns the segment.
pub fn read_wal_suffix(io: &Io, dir: &Path, base_seq: u64) -> Result<(Vec<WalEntry>, bool)> {
    let segments = read_wal(io, dir)?;
    let torn = segments.last().is_some_and(|s| s.torn);
    let mut entries = Vec::new();
    for payload in segments.iter().flat_map(|s| &s.entries) {
        let entry = decode_entry(payload)?;
        if entry.seq > base_seq {
            entries.push(entry);
        }
    }
    entries.sort_by_key(|e| e.seq);
    Ok((entries, torn))
}

/// Path of the checkpoint document.
pub fn checkpoint_path(wal_dir: &Path) -> PathBuf {
    wal_dir.join("checkpoint.ck")
}

/// Per-shard state captured at the quiescent cut.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardCkpt {
    /// The shard extractor's clock.
    pub clock: TimeWindow,
    /// Open events' member records, in slab order (see
    /// [`atypical::online::OnlineExtractor::export_open_events`]).
    pub open: Vec<Vec<AtypicalRecord>>,
    /// Sealed events this shard had sent to the merger by the cut
    /// (respawn replay suppresses regenerated duplicates up to here).
    pub sealed_sent: u64,
    /// First WAL segment holding post-checkpoint entries (older segments
    /// are deleted once the checkpoint commits).
    pub wal_floor: u64,
}

/// The whole monitor state at a quiescent cut.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckpointDoc {
    /// Entries with `seq <= last_seq` are covered; replay starts after.
    pub last_seq: u64,
    /// The ingest clock (`None` before the first record).
    pub current_window: Option<TimeWindow>,
    /// Records seen by ingest (drives the deterministic fault hooks).
    pub ingest_seq: u64,
    /// Per-shard extractor state.
    pub shards: Vec<ShardCkpt>,
    /// Merger-private state (reconciliation pool + per-shard progress),
    /// serialized by the merger itself.
    pub merger: MergerCkpt,
    /// Query-side live state.
    pub live: LiveCkpt,
    /// Rebalance history: one cut vector per epoch ≥ 1, in epoch order
    /// (epoch 0 — the initial spatially-uniform map — is implicit).
    /// Recovery rebuilds each epoch's map and replays the WAL suffix with
    /// the same map sequence the original run used.
    pub epochs: Vec<Vec<u32>>,
}

/// Per-shard merger progress: `(clock, open_floor, boundary_floor, done)`
/// as last reported by the workers' `Clock`/`Done` messages.
pub type ShardProgress = (
    Option<TimeWindow>,
    Option<TimeWindow>,
    Option<TimeWindow>,
    bool,
);

/// Merger-private checkpoint state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MergerCkpt {
    /// Per-shard worker progress.
    pub progress: Vec<ShardProgress>,
    /// Pending reconciliation components, compacted: one record list per
    /// union-find component, in slab order of each component's first slot.
    pub components: Vec<Vec<AtypicalRecord>>,
}

/// Query-side live state (see `crate::live::LiveState`), handed over by
/// the merger, which owns it, in its checkpoint-barrier reply.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LiveCkpt {
    /// Next cluster id ([`cps_core::ids::ClusterIdGen::peek`]).
    pub next_id: u64,
    /// Live (unpersisted) micro-clusters per day.
    pub micros_by_day: Vec<(u32, Vec<AtypicalCluster>)>,
    /// Per-day region `F` vectors (seconds).
    pub region_f_by_day: Vec<(u32, Vec<Severity>)>,
    /// Macro-cluster fixpoint set, in result order.
    pub macros: Vec<AtypicalCluster>,
    /// Days already persisted to the snapshot store.
    pub persisted_days: Vec<u32>,
}

fn put_opt_window(buf: &mut Vec<u8>, w: Option<TimeWindow>) {
    match w {
        Some(w) => {
            buf.put_u8(1);
            buf.put_u32_le(w.raw());
        }
        None => buf.put_u8(0),
    }
}

/// `Corrupt` unless `buf` still holds the `n` bytes of `what`.
fn need(buf: &[u8], n: usize, what: &str) -> Result<()> {
    if buf.len() < n {
        return Err(CpsError::corrupt("checkpoint", format!("truncated {what}")));
    }
    Ok(())
}

fn get_opt_window(buf: &mut &[u8]) -> Result<Option<TimeWindow>> {
    need(buf, 1, "option flag")?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => {
            need(buf, 4, "window")?;
            Ok(Some(TimeWindow::new(buf.get_u32_le())))
        }
        other => Err(CpsError::corrupt(
            "checkpoint",
            format!("bad option flag {other}"),
        )),
    }
}

fn put_records(buf: &mut Vec<u8>, records: &[AtypicalRecord]) {
    buf.put_u32_le(records.len() as u32);
    for r in records {
        encode_atypical(r, buf);
    }
}

fn get_records(buf: &mut &[u8]) -> Result<Vec<AtypicalRecord>> {
    need(buf, 4, "record list")?;
    let len = buf.get_u32_le() as usize * RECORD_SIZE;
    need(buf, len, "record data")?;
    let out = buf[..len]
        .chunks_exact(RECORD_SIZE)
        .map(decode_atypical)
        .collect();
    buf.advance(len);
    Ok(out)
}

/// A `count u32 | count × u32` list.
fn get_u32s(buf: &mut &[u8], what: &str) -> Result<Vec<u32>> {
    need(buf, 4, what)?;
    let n = buf.get_u32_le() as usize;
    need(buf, n * 4, what)?;
    Ok((0..n).map(|_| buf.get_u32_le()).collect())
}

fn encode_cluster(c: &AtypicalCluster, buf: &mut Vec<u8>) {
    buf.put_u64_le(c.id.raw());
    buf.put_u32_le(c.merged_count);
    buf.put_u32_le(c.sf.len() as u32);
    buf.put_u32_le(c.tf.len() as u32);
    for (s, sev) in c.sf.iter() {
        buf.put_u32_le(s.raw());
        buf.put_u64_le(sev.as_secs());
    }
    for (w, sev) in c.tf.iter() {
        buf.put_u32_le(w.raw());
        buf.put_u64_le(sev.as_secs());
    }
}

fn decode_cluster(buf: &mut &[u8]) -> Result<AtypicalCluster> {
    need(buf, 20, "cluster header")?;
    let id = ClusterId::new(buf.get_u64_le());
    let merged_count = buf.get_u32_le();
    let sf_len = buf.get_u32_le() as usize;
    let tf_len = buf.get_u32_le() as usize;
    need(buf, (sf_len + tf_len) * 12, "feature data")?;
    let sf: SpatialFeature = (0..sf_len)
        .map(|_| {
            let s = SensorId::new(buf.get_u32_le());
            (s, Severity::from_secs(buf.get_u64_le()))
        })
        .collect();
    let tf: TemporalFeature = (0..tf_len)
        .map(|_| {
            let w = TimeWindow::new(buf.get_u32_le());
            (w, Severity::from_secs(buf.get_u64_le()))
        })
        .collect();
    // Collecting sums repeated keys, which no writer emits.
    if sf.len() != sf_len || tf.len() != tf_len {
        return Err(CpsError::corrupt(
            "checkpoint",
            format!("cluster {id}: duplicate feature keys"),
        ));
    }
    if sf.total() != tf.total() {
        return Err(CpsError::corrupt(
            "checkpoint",
            format!("cluster {id}: SF/TF totals disagree"),
        ));
    }
    let mut cluster = AtypicalCluster::new(id, sf, tf);
    cluster.merged_count = merged_count;
    Ok(cluster)
}

fn put_clusters(buf: &mut Vec<u8>, clusters: &[AtypicalCluster]) {
    buf.put_u32_le(clusters.len() as u32);
    for c in clusters {
        encode_cluster(c, buf);
    }
}

fn get_clusters(buf: &mut &[u8]) -> Result<Vec<AtypicalCluster>> {
    need(buf, 4, "cluster list")?;
    let n = buf.get_u32_le();
    (0..n).map(|_| decode_cluster(buf)).collect()
}

impl MergerCkpt {
    /// Serializes into `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u32_le(self.progress.len() as u32);
        for &(clock, open_floor, boundary_floor, done) in &self.progress {
            put_opt_window(buf, clock);
            put_opt_window(buf, open_floor);
            put_opt_window(buf, boundary_floor);
            buf.put_u8(u8::from(done));
        }
        buf.put_u32_le(self.components.len() as u32);
        for component in &self.components {
            put_records(buf, component);
        }
    }

    /// Decodes from `buf`, advancing it.
    pub fn decode(buf: &mut &[u8]) -> Result<Self> {
        need(buf, 4, "merger state")?;
        let shards = buf.get_u32_le() as usize;
        let mut progress = Vec::with_capacity(shards.min(1 << 16));
        for _ in 0..shards {
            let clock = get_opt_window(buf)?;
            let open_floor = get_opt_window(buf)?;
            let boundary_floor = get_opt_window(buf)?;
            need(buf, 1, "done flag")?;
            let done = buf.get_u8() != 0;
            progress.push((clock, open_floor, boundary_floor, done));
        }
        need(buf, 4, "component count")?;
        let n = buf.get_u32_le();
        let components = (0..n).map(|_| get_records(buf)).collect::<Result<_>>()?;
        Ok(Self {
            progress,
            components,
        })
    }
}

impl LiveCkpt {
    /// Serializes into `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(self.next_id);
        buf.put_u32_le(self.micros_by_day.len() as u32);
        for (day, micros) in &self.micros_by_day {
            buf.put_u32_le(*day);
            put_clusters(buf, micros);
        }
        buf.put_u32_le(self.region_f_by_day.len() as u32);
        for (day, f) in &self.region_f_by_day {
            buf.put_u32_le(*day);
            buf.put_u32_le(f.len() as u32);
            for sev in f {
                buf.put_u64_le(sev.as_secs());
            }
        }
        put_clusters(buf, &self.macros);
        buf.put_u32_le(self.persisted_days.len() as u32);
        for day in &self.persisted_days {
            buf.put_u32_le(*day);
        }
    }

    /// Decodes from `buf`, advancing it.
    pub fn decode(buf: &mut &[u8]) -> Result<Self> {
        need(buf, 12, "live state")?;
        let next_id = buf.get_u64_le();
        let n_days = buf.get_u32_le() as usize;
        let mut micros_by_day = Vec::with_capacity(n_days.min(1 << 16));
        for _ in 0..n_days {
            need(buf, 4, "day bucket")?;
            let day = buf.get_u32_le();
            micros_by_day.push((day, get_clusters(buf)?));
        }
        need(buf, 4, "F-vector count")?;
        let n_f = buf.get_u32_le() as usize;
        let mut region_f_by_day = Vec::with_capacity(n_f.min(1 << 16));
        for _ in 0..n_f {
            need(buf, 8, "F vector")?;
            let day = buf.get_u32_le();
            let len = buf.get_u32_le() as usize;
            need(buf, len * 8, "F values")?;
            let f = (0..len).map(|_| Severity::from_secs(buf.get_u64_le()));
            region_f_by_day.push((day, f.collect()));
        }
        let macros = get_clusters(buf)?;
        let persisted_days = get_u32s(buf, "persisted days")?;
        Ok(Self {
            next_id,
            micros_by_day,
            region_f_by_day,
            macros,
            persisted_days,
        })
    }
}

impl CheckpointDoc {
    /// Serializes the whole document (body only; framing is added by
    /// [`write_checkpoint`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u64_le(self.last_seq);
        put_opt_window(&mut buf, self.current_window);
        buf.put_u64_le(self.ingest_seq);
        buf.put_u32_le(self.shards.len() as u32);
        for shard in &self.shards {
            buf.put_u32_le(shard.clock.raw());
            buf.put_u64_le(shard.sealed_sent);
            buf.put_u64_le(shard.wal_floor);
            buf.put_u32_le(shard.open.len() as u32);
            for event in &shard.open {
                put_records(&mut buf, event);
            }
        }
        self.merger.encode(&mut buf);
        self.live.encode(&mut buf);
        buf.put_u32_le(self.epochs.len() as u32);
        for cuts in &self.epochs {
            buf.put_u32_le(cuts.len() as u32);
            for cut in cuts {
                buf.put_u32_le(*cut);
            }
        }
        buf
    }

    /// Decodes a document body.
    pub fn decode(mut buf: &[u8]) -> Result<Self> {
        let buf = &mut buf;
        need(buf, 8, "header")?;
        let last_seq = buf.get_u64_le();
        let current_window = get_opt_window(buf)?;
        need(buf, 12, "ingest state")?;
        let ingest_seq = buf.get_u64_le();
        let n_shards = buf.get_u32_le() as usize;
        let mut shards = Vec::with_capacity(n_shards.min(1 << 16));
        for _ in 0..n_shards {
            need(buf, 24, "shard state")?;
            let clock = TimeWindow::new(buf.get_u32_le());
            let sealed_sent = buf.get_u64_le();
            let wal_floor = buf.get_u64_le();
            let n_open = buf.get_u32_le();
            let open = (0..n_open)
                .map(|_| get_records(buf))
                .collect::<Result<_>>()?;
            shards.push(ShardCkpt {
                clock,
                open,
                sealed_sent,
                wal_floor,
            });
        }
        let merger = MergerCkpt::decode(buf)?;
        let live = LiveCkpt::decode(buf)?;
        need(buf, 4, "epoch count")?;
        let n_epochs = buf.get_u32_le();
        let epochs = (0..n_epochs)
            .map(|_| get_u32s(buf, "cut vector"))
            .collect::<Result<_>>()?;
        if buf.has_remaining() {
            return Err(CpsError::corrupt("checkpoint", "trailing bytes"));
        }
        Ok(Self {
            last_seq,
            current_window,
            ingest_seq,
            shards,
            merger,
            live,
            epochs,
        })
    }
}

/// Writes the checkpoint atomically: `magic | version | len | crc | body`
/// to a temp file, synced, then renamed over [`checkpoint_path`]. A crash
/// anywhere leaves either the previous checkpoint or the new one — never
/// a torn mix.
pub fn write_checkpoint(io: &Io, wal_dir: &Path, doc: &CheckpointDoc) -> Result<()> {
    let body = doc.encode();
    let mut framed = Vec::with_capacity(16 + body.len());
    framed.put_slice(&CKPT_MAGIC);
    framed.put_u32_le(CKPT_VERSION);
    framed.put_u32_le(body.len() as u32);
    framed.put_u32_le(crc32(&body));
    framed.extend_from_slice(&body);
    let path = checkpoint_path(wal_dir);
    let tmp = path.with_extension("tmp");
    let mut w = io.create(&tmp)?;
    w.write_all(&framed)?;
    w.sync()?;
    drop(w);
    io.rename(&tmp, &path)?;
    Ok(())
}

/// Loads the checkpoint; `Ok(None)` when no checkpoint exists yet. A
/// present-but-invalid file is a typed [`CpsError::Corrupt`] — the
/// write protocol never leaves one, so damage is real.
pub fn load_checkpoint(io: &Io, wal_dir: &Path) -> Result<Option<CheckpointDoc>> {
    let path = checkpoint_path(wal_dir);
    if !path.exists() {
        return Ok(None);
    }
    let raw = io.read_to_vec(&path)?;
    if raw.len() < 16 {
        return Err(CpsError::corrupt("checkpoint", "file shorter than header"));
    }
    let mut head = &raw[..16];
    let mut magic = [0u8; 4];
    head.copy_to_slice(&mut magic);
    if magic != CKPT_MAGIC {
        return Err(CpsError::corrupt("checkpoint", "bad magic"));
    }
    let version = head.get_u32_le();
    if version != CKPT_VERSION {
        return Err(CpsError::VersionMismatch {
            context: path.display().to_string(),
            found: version,
            expected: CKPT_VERSION,
        });
    }
    let len = head.get_u32_le() as usize;
    let expected_crc = head.get_u32_le();
    if raw.len() != 16 + len {
        return Err(CpsError::corrupt("checkpoint", "body length mismatch"));
    }
    let body = &raw[16..];
    if crc32(body) != expected_crc {
        return Err(CpsError::corrupt("checkpoint", "body checksum mismatch"));
    }
    CheckpointDoc::decode(body).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::ScratchDir;
    use cps_storage::wal::{SyncPolicy, WalWriter};

    fn rec(s: u32, w: u32, secs: u64) -> AtypicalRecord {
        AtypicalRecord::new(
            SensorId::new(s),
            TimeWindow::new(w),
            Severity::from_secs(secs),
        )
    }

    fn cluster(id: u64) -> AtypicalCluster {
        let sf: SpatialFeature = [(SensorId::new(3), Severity::from_secs(90))]
            .into_iter()
            .collect();
        let tf: TemporalFeature = [(TimeWindow::new(7), Severity::from_secs(90))]
            .into_iter()
            .collect();
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    /// A cluster over sensors and windows `base..base + n`.
    fn cluster_span(id: u64, base: u32, n: u32) -> AtypicalCluster {
        let sf: SpatialFeature = (base..base + n)
            .map(|s| (SensorId::new(s), Severity::from_secs(60 + u64::from(s))))
            .collect();
        let tf: TemporalFeature = (base..base + n)
            .map(|w| (TimeWindow::new(w), Severity::from_secs(60 + u64::from(w))))
            .collect();
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    fn decode_all(mut buf: &[u8]) -> Result<Vec<AtypicalCluster>> {
        let clusters = get_clusters(&mut buf)?;
        assert!(buf.is_empty(), "cluster list left {} bytes", buf.len());
        Ok(clusters)
    }

    #[test]
    fn roundtrip_preserves_clusters_exactly() {
        let mut clusters: Vec<AtypicalCluster> = (0..20)
            .map(|i| cluster_span(i, (i as u32) * 3, 5))
            .collect();
        clusters[7].merged_count = 4;
        let mut buf = Vec::new();
        put_clusters(&mut buf, &clusters);
        assert_eq!(decode_all(&buf).unwrap(), clusters);
    }

    #[test]
    fn empty_set_roundtrips() {
        let mut buf = Vec::new();
        put_clusters(&mut buf, &[]);
        assert_eq!(buf.len(), 4);
        assert!(decode_all(&buf).unwrap().is_empty());
    }

    #[test]
    fn truncation_at_every_byte_boundary_is_a_corrupt_error() {
        let clusters: Vec<AtypicalCluster> =
            (0..3).map(|i| cluster_span(i, (i as u32) * 4, 4)).collect();
        let mut full = Vec::new();
        put_clusters(&mut full, &clusters);
        for len in 0..full.len() {
            // A structured Corrupt error — never a panic and never a
            // silent partial read.
            match get_clusters(&mut &full[..len]) {
                Err(CpsError::Corrupt { .. }) => {}
                Err(other) => panic!("truncation at byte {len}: wrong error kind {other:?}"),
                Ok(read) => panic!(
                    "truncation at byte {len} silently read {} cluster(s)",
                    read.len()
                ),
            }
        }
    }

    #[test]
    fn cluster_with_duplicate_keys_is_corrupt() {
        // Sensor 3 twice (60 + 30 s) against one 90 s window: the totals
        // agree, but no writer emits a key twice.
        let mut buf = Vec::new();
        buf.put_u64_le(1);
        buf.put_u32_le(0);
        buf.put_u32_le(2);
        buf.put_u32_le(1);
        for (key, secs) in [(3u32, 60u64), (3, 30), (7, 90)] {
            buf.put_u32_le(key);
            buf.put_u64_le(secs);
        }
        match decode_cluster(&mut &buf[..]) {
            Err(CpsError::Corrupt { context, detail }) => {
                assert_eq!(context, "checkpoint");
                assert!(detail.contains("duplicate feature keys"), "{detail}");
            }
            other => panic!("duplicate sensor decoded: {other:?}"),
        }
    }

    #[test]
    fn wal_entry_roundtrip() {
        for (seq, op) in [
            (2, WalOp::Advance(TimeWindow::new(101))),
            (u64::MAX, WalOp::Advance(TimeWindow::new(0))),
            (
                3,
                WalOp::Batch {
                    flush_first: 3,
                    flush_len: 0,
                    records: vec![],
                },
            ),
            (
                4,
                WalOp::Batch {
                    flush_first: 2,
                    flush_len: 6,
                    records: vec![rec(4, 100, 120), rec(5, 100, 60), rec(4, 101, 30)],
                },
            ),
            (
                5,
                WalOp::Rebalance {
                    epoch: 2,
                    cuts: vec![0, 3, 7, 11],
                },
            ),
        ] {
            let buf = encode_entry(seq, &op.clone());
            assert_eq!(decode_entry(&buf).unwrap(), WalEntry { seq, op });
        }
    }

    #[test]
    fn batch_entry_fast_path_matches_row_encoding() {
        let rows = vec![rec(4, 100, 120), rec(5, 100, 60), rec(4, 101, 30)];
        let mut fast = Vec::new();
        encode_batch_entry(77, 75, 9, &RecordBatch::from_records(&rows), &mut fast);
        assert_eq!(
            fast,
            encode_entry(
                77,
                &WalOp::Batch {
                    flush_first: 75,
                    flush_len: 9,
                    records: rows,
                }
            )
        );
        // The scratch buffer is cleared, not appended to.
        encode_batch_entry(
            78,
            78,
            1,
            &RecordBatch::from_records(&[rec(1, 1, 1)]),
            &mut fast,
        );
        assert_eq!(
            decode_entry(&fast).unwrap(),
            WalEntry {
                seq: 78,
                op: WalOp::Batch {
                    flush_first: 78,
                    flush_len: 1,
                    records: vec![rec(1, 1, 1)],
                }
            }
        );
    }

    #[test]
    fn wal_entry_rejects_damage() {
        let buf = encode_entry(9, &WalOp::Advance(TimeWindow::new(5)));
        assert!(decode_entry(&buf[..buf.len() - 1]).is_err());
        // Tag 0 (a lone record) is no longer a frame kind.
        for tag in [0, 4, 9] {
            let mut bad_tag = buf.clone();
            bad_tag[8] = tag;
            match decode_entry(&bad_tag) {
                Err(CpsError::Corrupt { detail, .. }) => {
                    assert_eq!(detail, format!("unknown tag {tag}"))
                }
                other => panic!("tag {tag}: {other:?}"),
            }
        }
        assert!(decode_entry(&[]).is_err());
        // Batch body shorter / longer than its count promises.
        let batch = encode_entry(
            3,
            &WalOp::Batch {
                flush_first: 3,
                flush_len: 2,
                records: vec![rec(1, 2, 3), rec(4, 5, 6)],
            },
        );
        assert!(decode_entry(&batch[..batch.len() - 1]).is_err());
        let mut long = batch.clone();
        long.push(0);
        assert!(decode_entry(&long).is_err());
        assert!(decode_entry(&batch[..20]).is_err(), "truncated header");
        // A frame claiming records outside its flush's span is corrupt.
        let outside = encode_entry(
            9,
            &WalOp::Batch {
                flush_first: 9,
                flush_len: 1,
                records: vec![rec(1, 2, 3), rec(4, 5, 6)],
            },
        );
        assert!(decode_entry(&outside).is_err(), "batch outside its flush");
        let before = encode_entry(
            2,
            &WalOp::Batch {
                flush_first: 3,
                flush_len: 4,
                records: vec![rec(1, 2, 3)],
            },
        );
        assert!(decode_entry(&before).is_err(), "seq before flush_first");
        // Rebalance body length mismatch.
        let reb = encode_entry(
            4,
            &WalOp::Rebalance {
                epoch: 1,
                cuts: vec![0, 5],
            },
        );
        assert!(decode_entry(&reb[..reb.len() - 2]).is_err());
    }

    #[test]
    fn wal_suffix_keeps_entries_past_the_base_and_reports_a_torn_tail() {
        let dir = ScratchDir::new("wal-suffix");
        let io = Io::real();
        let mut wal = WalWriter::open(io.clone(), &dir, SyncPolicy::Never, 1 << 20).unwrap();
        for seq in 1..=4u32 {
            let op = WalOp::Advance(TimeWindow::new(seq));
            wal.append(&encode_entry(u64::from(seq), &op)).unwrap();
        }
        drop(wal);
        let (entries, torn) = read_wal_suffix(&io, &dir, 2).unwrap();
        assert_eq!(entries.iter().map(|e| e.seq).collect::<Vec<_>>(), [3, 4]);
        assert!(!torn);
        // A torn frame sets the flag and is left on disk for the caller.
        let segment = std::fs::read_dir(&*dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut raw = std::fs::read(&segment).unwrap();
        raw.extend_from_slice(&[9, 0, 0]);
        std::fs::write(&segment, &raw).unwrap();
        let (entries, torn) = read_wal_suffix(&io, &dir, 2).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(torn);
        assert_eq!(std::fs::read(&segment).unwrap(), raw);
    }

    fn sample_doc() -> CheckpointDoc {
        CheckpointDoc {
            last_seq: 42,
            current_window: Some(TimeWindow::new(100)),
            ingest_seq: 37,
            shards: vec![
                ShardCkpt {
                    clock: TimeWindow::new(100),
                    open: vec![vec![rec(1, 99, 60), rec(2, 100, 30)]],
                    sealed_sent: 5,
                    wal_floor: 3,
                },
                ShardCkpt::default(),
            ],
            merger: MergerCkpt {
                progress: vec![
                    (
                        Some(TimeWindow::new(100)),
                        Some(TimeWindow::new(99)),
                        None,
                        false,
                    ),
                    (None, None, None, true),
                ],
                components: vec![vec![rec(7, 95, 45)]],
            },
            live: LiveCkpt {
                next_id: 11,
                micros_by_day: vec![(0, vec![cluster(4)])],
                region_f_by_day: vec![(0, vec![Severity::from_secs(90), Severity::ZERO])],
                macros: vec![cluster(5)],
                persisted_days: vec![0],
            },
            epochs: vec![vec![0, 1, 2], vec![0, 2, 2]],
        }
    }

    #[test]
    fn checkpoint_doc_roundtrip() {
        let doc = sample_doc();
        assert_eq!(CheckpointDoc::decode(&doc.encode()).unwrap(), doc);
        let empty = CheckpointDoc::default();
        assert_eq!(CheckpointDoc::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn checkpoint_file_roundtrip_and_corruption() {
        let dir = ScratchDir::new("ckpt");
        let io = Io::real();
        assert!(load_checkpoint(&io, &dir).unwrap().is_none());
        let doc = sample_doc();
        write_checkpoint(&io, &dir, &doc).unwrap();
        assert_eq!(load_checkpoint(&io, &dir).unwrap(), Some(doc));
        // Flip one body byte: typed corruption, not garbage state.
        let path = checkpoint_path(&dir);
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x55;
        std::fs::write(&path, raw).unwrap();
        assert!(matches!(
            load_checkpoint(&io, &dir),
            Err(CpsError::Corrupt { .. })
        ));
    }
}
