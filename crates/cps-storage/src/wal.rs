//! A CRC-framed, segment-rotated append log.
//!
//! The monitor's ingest path needs every accepted record to be durable
//! before the in-memory pipeline is trusted with it; this module supplies
//! the log, generic over payloads so other producers can reuse it.
//!
//! ```text
//! dir/seg-<seq>.wal := header frame*
//! header            := magic "CPSW" | version u32 | segment_seq u64
//! frame             := len u32 | crc32 u32 | payload (len bytes)
//! ```
//!
//! Each frame is written as **one** [`Io`] write, so a fault-injecting
//! backend tears at frame granularity and a torn frame is exactly a torn
//! write. Payloads are opaque here: the monitor's batched ingest path
//! packs an entire sub-batch of records into a single frame, so one
//! CRC, one write, and (under group commit) a shared fsync amortise
//! across the whole batch — the framing contract is unchanged. Recovery ([`read_wal`]) applies the clean-prefix contract: an
//! invalid frame in the **newest** segment ends the log there (the torn
//! tail of a crash — [`repair_tail`] rewrites the segment without it);
//! anything invalid in an older segment, or a gap in the segment
//! sequence, is a typed [`CpsError::Corrupt`] — old segments are
//! append-complete and only ever deleted whole (from the front, by a
//! checkpoint), so damage there is real corruption, never a crash
//! artifact.

use crate::crc::crc32;
use crate::io::{Io, IoWrite};
use bytes::{Buf, BufMut};
use cps_core::{CpsError, Result};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Segment file magic, `b"CPSW"`.
pub const WAL_MAGIC: [u8; 4] = *b"CPSW";
/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Segment header size in bytes.
pub const WAL_HEADER_SIZE: usize = 16;
/// Frame header size in bytes (length + CRC).
pub const FRAME_HEADER_SIZE: usize = 8;

/// When appended frames are fsynced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every append — strongest durability, slowest ingest.
    Always,
    /// Never fsync — the OS decides; a crash may lose the unsynced tail
    /// (still a clean prefix thanks to the framing).
    Never,
    /// Group commit: fsync once every `n` appends (and on rotation).
    EveryN(u64),
}

/// Append side of the log. One writer owns a directory; it always starts
/// a **fresh** segment (one past the newest on disk), so an old torn tail
/// is never appended over and remains last-segment-only until repaired
/// or truncated away.
pub struct WalWriter {
    io: Io,
    dir: PathBuf,
    policy: SyncPolicy,
    /// Rotate to a new segment once the current one exceeds this many
    /// payload+frame bytes (the header does not count).
    segment_bytes: u64,
    segment_seq: u64,
    writer: Box<dyn IoWrite>,
    bytes_in_segment: u64,
    appends_since_sync: u64,
}

/// Path of segment `seq` under `dir`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.wal"))
}

/// Segment sequence numbers present under `dir`, sorted ascending.
/// Listing is not fault-injected (directory scans are read-only).
pub fn list_segments(dir: &Path) -> Result<Vec<u64>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name.strip_prefix("seg-") {
            if let Some(num) = rest.strip_suffix(".wal") {
                if let Ok(seq) = num.parse() {
                    out.push(seq);
                }
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

impl WalWriter {
    /// Opens a writer over `dir` (created if absent), starting a fresh
    /// segment after the newest existing one.
    pub fn open(io: Io, dir: &Path, policy: SyncPolicy, segment_bytes: u64) -> Result<Self> {
        io.create_dir_all(dir)?;
        let next_seq = list_segments(dir)?.last().map_or(1, |s| s + 1);
        let writer = Self::start_segment(&io, dir, next_seq)?;
        Ok(Self {
            io,
            dir: dir.to_owned(),
            policy,
            segment_bytes: segment_bytes.max(1),
            segment_seq: next_seq,
            writer,
            bytes_in_segment: 0,
            appends_since_sync: 0,
        })
    }

    fn start_segment(io: &Io, dir: &Path, seq: u64) -> Result<Box<dyn IoWrite>> {
        let mut header = Vec::with_capacity(WAL_HEADER_SIZE);
        header.put_slice(&WAL_MAGIC);
        header.put_u32_le(WAL_VERSION);
        header.put_u64_le(seq);
        let mut w = io.create(&segment_path(dir, seq))?;
        w.write_all(&header)?;
        Ok(w)
    }

    /// The segment currently appended to.
    pub fn segment_seq(&self) -> u64 {
        self.segment_seq
    }

    /// Appends one payload as a CRC-framed record (a single backend
    /// write), rotating first if the current segment is full. Returns the
    /// framed size in bytes.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        if self.bytes_in_segment >= self.segment_bytes {
            self.rotate()?;
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_SIZE + payload.len());
        frame.put_u32_le(payload.len() as u32);
        frame.put_u32_le(crc32(payload));
        frame.put_slice(payload);
        self.writer.write_all(&frame)?;
        self.bytes_in_segment += frame.len() as u64;
        self.appends_since_sync += 1;
        match self.policy {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) if self.appends_since_sync >= n.max(1) => self.sync()?,
            _ => {}
        }
        Ok(frame.len() as u64)
    }

    /// fsyncs the current segment.
    pub fn sync(&mut self) -> Result<()> {
        self.writer.sync()?;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Closes the current segment (syncing it unless the policy is
    /// [`SyncPolicy::Never`]) and starts the next. Returns the new
    /// segment's sequence number.
    pub fn rotate(&mut self) -> Result<u64> {
        if !matches!(self.policy, SyncPolicy::Never) {
            self.sync()?;
        }
        self.segment_seq += 1;
        self.writer = Self::start_segment(&self.io, &self.dir, self.segment_seq)?;
        self.bytes_in_segment = 0;
        self.appends_since_sync = 0;
        Ok(self.segment_seq)
    }
}

/// One recovered segment.
#[derive(Debug)]
pub struct WalSegment {
    /// Segment sequence number (from the file name, verified against the
    /// header).
    pub seq: u64,
    /// Frame payloads, in append order.
    pub entries: Vec<Vec<u8>>,
    /// Whether a torn tail was dropped (only ever true for the newest
    /// segment).
    pub torn: bool,
}

/// Parses one segment body. `Ok((entries, clean))`: `clean` is false when
/// a torn/invalid tail was dropped.
fn parse_segment(raw: &[u8], seq: u64, context: &str) -> Result<(Vec<Vec<u8>>, bool)> {
    if raw.len() < WAL_HEADER_SIZE {
        // A crash during segment creation can leave a short header.
        return Ok((Vec::new(), false));
    }
    let mut head = raw;
    let mut magic = [0u8; 4];
    head.copy_to_slice(&mut magic);
    if magic != WAL_MAGIC {
        return Err(CpsError::corrupt(context, "bad WAL magic"));
    }
    let version = head.get_u32_le();
    if version != WAL_VERSION {
        return Err(CpsError::VersionMismatch {
            context: context.to_string(),
            found: version,
            expected: WAL_VERSION,
        });
    }
    let header_seq = head.get_u64_le();
    if header_seq != seq {
        return Err(CpsError::corrupt(
            context,
            format!("segment header claims seq {header_seq}, file name says {seq}"),
        ));
    }
    let mut buf = &raw[WAL_HEADER_SIZE..];
    let mut entries = Vec::new();
    while !buf.is_empty() {
        if buf.len() < FRAME_HEADER_SIZE {
            return Ok((entries, false));
        }
        let mut peek = buf;
        let len = peek.get_u32_le() as usize;
        let expected_crc = peek.get_u32_le();
        if peek.len() < len {
            return Ok((entries, false));
        }
        let payload = &peek[..len];
        if crc32(payload) != expected_crc {
            return Ok((entries, false));
        }
        entries.push(payload.to_vec());
        buf = &buf[FRAME_HEADER_SIZE + len..];
    }
    Ok((entries, true))
}

/// Reads every segment under `dir` with the clean-prefix contract (see
/// the module docs). Missing directory ⇒ empty log.
pub fn read_wal(io: &Io, dir: &Path) -> Result<Vec<WalSegment>> {
    let seqs = list_segments(dir)?;
    if let (Some(&first), Some(&last)) = (seqs.first(), seqs.last()) {
        if last - first + 1 != seqs.len() as u64 {
            return Err(CpsError::corrupt(
                dir.display().to_string(),
                format!("segment sequence has gaps: {seqs:?}"),
            ));
        }
    }
    let mut out = Vec::with_capacity(seqs.len());
    for (i, &seq) in seqs.iter().enumerate() {
        let path = segment_path(dir, seq);
        let context = path.display().to_string();
        let raw = io.read_to_vec(&path)?;
        let (entries, clean) = parse_segment(&raw, seq, &context)?;
        let is_last = i + 1 == seqs.len();
        if !clean && !is_last {
            return Err(CpsError::corrupt(
                context,
                "invalid frame in a non-final segment",
            ));
        }
        out.push(WalSegment {
            seq,
            entries,
            torn: !clean,
        });
    }
    Ok(out)
}

/// Rewrites the newest segment without its torn tail (write-then-rename,
/// so the repair itself is crash-safe). No-op when the log is clean.
/// Run before reopening a [`WalWriter`] after a crash so the torn tail
/// does not linger once newer segments exist.
pub fn repair_tail(io: &Io, dir: &Path) -> Result<()> {
    let segments = read_wal(io, dir)?;
    let Some(last) = segments.last() else {
        return Ok(());
    };
    if !last.torn {
        return Ok(());
    }
    let path = segment_path(dir, last.seq);
    let tmp = path.with_extension("tmp");
    let mut body = Vec::with_capacity(WAL_HEADER_SIZE);
    body.put_slice(&WAL_MAGIC);
    body.put_u32_le(WAL_VERSION);
    body.put_u64_le(last.seq);
    for entry in &last.entries {
        body.put_u32_le(entry.len() as u32);
        body.put_u32_le(crc32(entry));
        body.put_slice(entry);
    }
    let mut w = io.create(&tmp)?;
    w.write_all(&body)?;
    w.sync()?;
    drop(w);
    io.rename(&tmp, &path)?;
    Ok(())
}

/// Deletes every segment with `seq < floor` (checkpoint truncation).
/// Returns how many were removed.
pub fn truncate_segments_below(io: &Io, dir: &Path, floor: u64) -> Result<usize> {
    let mut removed = 0;
    for seq in list_segments(dir)? {
        if seq < floor {
            io.remove_file(&segment_path(dir, seq))?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::ScratchDir;

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..=(i % 7) as u8).map(|b| b ^ i as u8).collect())
            .collect()
    }

    #[test]
    fn roundtrip_single_segment() {
        let dir = ScratchDir::new("round");
        let io = Io::real();
        let entries = payloads(10);
        let mut w = WalWriter::open(io.clone(), &dir, SyncPolicy::Always, 1 << 20).unwrap();
        for p in &entries {
            w.append(p).unwrap();
        }
        drop(w);
        let segs = read_wal(&io, &dir).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].seq, 1);
        assert!(!segs[0].torn);
        assert_eq!(segs[0].entries, entries);
    }

    #[test]
    fn rotation_by_size_and_reopen_starts_fresh_segment() {
        let dir = ScratchDir::new("rotate");
        let io = Io::real();
        let mut w = WalWriter::open(io.clone(), &dir, SyncPolicy::Never, 32).unwrap();
        for p in payloads(12) {
            w.append(&p).unwrap();
        }
        let segs_before = list_segments(&dir).unwrap();
        assert!(segs_before.len() > 1, "{segs_before:?}");
        drop(w);
        // Reopen: the writer must not append to an existing segment.
        let w2 = WalWriter::open(io.clone(), &dir, SyncPolicy::Never, 32).unwrap();
        assert_eq!(w2.segment_seq(), segs_before.last().unwrap() + 1);
        drop(w2);
        let all: Vec<Vec<u8>> = read_wal(&io, &dir)
            .unwrap()
            .into_iter()
            .flat_map(|s| s.entries)
            .collect();
        assert_eq!(all, payloads(12));
    }

    #[test]
    fn explicit_rotation_and_truncation() {
        let dir = ScratchDir::new("truncate");
        let io = Io::real();
        let mut w = WalWriter::open(io.clone(), &dir, SyncPolicy::EveryN(4), 1 << 20).unwrap();
        w.append(b"old").unwrap();
        let new_seq = w.rotate().unwrap();
        w.append(b"new").unwrap();
        drop(w);
        assert_eq!(truncate_segments_below(&io, &dir, new_seq).unwrap(), 1);
        let segs = read_wal(&io, &dir).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].entries, vec![b"new".to_vec()]);
    }

    /// The WAL-format fuzz contract: truncating the (single-segment) log
    /// at every byte boundary yields a clean prefix of the appended
    /// entries — never an error, never a wrong or partial entry.
    #[test]
    fn truncation_at_every_byte_is_a_clean_prefix() {
        let dir = ScratchDir::new("fuzz");
        let io = Io::real();
        let entries = payloads(6);
        let mut w = WalWriter::open(io.clone(), &dir, SyncPolicy::Always, 1 << 20).unwrap();
        let mut frame_ends = vec![WAL_HEADER_SIZE as u64];
        for p in &entries {
            let n = w.append(p).unwrap();
            frame_ends.push(frame_ends.last().unwrap() + n);
        }
        drop(w);
        let path = segment_path(&dir, 1);
        let full = std::fs::read(&path).unwrap();
        assert_eq!(full.len() as u64, *frame_ends.last().unwrap());

        for len in 0..=full.len() {
            std::fs::write(&path, &full[..len]).unwrap();
            let segs = read_wal(&io, &dir).unwrap();
            let got = &segs[0].entries;
            // How many whole frames fit in `len` bytes?
            let expect = frame_ends
                .iter()
                .skip(1)
                .filter(|&&e| e <= len as u64)
                .count();
            assert_eq!(got.len(), expect, "truncation at byte {len}");
            assert_eq!(got[..], entries[..expect], "truncation at byte {len}");
            // Clean exactly at header/frame boundaries, torn everywhere else.
            let at_boundary = frame_ends.contains(&(len as u64));
            assert_eq!(segs[0].torn, !at_boundary, "truncation at byte {len}");
        }
    }

    #[test]
    fn corruption_in_old_segment_is_typed() {
        let dir = ScratchDir::new("oldcorrupt");
        let io = Io::real();
        let mut w = WalWriter::open(io.clone(), &dir, SyncPolicy::Always, 1 << 20).unwrap();
        w.append(b"aaaa").unwrap();
        w.rotate().unwrap();
        w.append(b"bbbb").unwrap();
        drop(w);
        // Flip a payload byte in segment 1 (not the last segment).
        let path = segment_path(&dir, 1);
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0xFF;
        std::fs::write(&path, raw).unwrap();
        match read_wal(&io, &dir) {
            Err(CpsError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn segment_gap_is_typed_corruption() {
        let dir = ScratchDir::new("gap");
        let io = Io::real();
        let mut w = WalWriter::open(io.clone(), &dir, SyncPolicy::Always, 1 << 20).unwrap();
        w.append(b"a").unwrap();
        w.rotate().unwrap();
        w.append(b"b").unwrap();
        w.rotate().unwrap();
        w.append(b"c").unwrap();
        drop(w);
        std::fs::remove_file(segment_path(&dir, 2)).unwrap();
        match read_wal(&io, &dir) {
            Err(CpsError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn repair_tail_rewrites_a_torn_final_segment() {
        let dir = ScratchDir::new("repair");
        let io = Io::real();
        let mut w = WalWriter::open(io.clone(), &dir, SyncPolicy::Always, 1 << 20).unwrap();
        w.append(b"keep-me").unwrap();
        w.append(b"torn-away").unwrap();
        drop(w);
        let path = segment_path(&dir, 1);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();

        repair_tail(&io, &dir).unwrap();
        let segs = read_wal(&io, &dir).unwrap();
        assert!(!segs[0].torn);
        assert_eq!(segs[0].entries, vec![b"keep-me".to_vec()]);
        // Idempotent on a clean log.
        repair_tail(&io, &dir).unwrap();
    }

    #[test]
    fn empty_or_missing_dir_reads_empty() {
        let root = ScratchDir::new("empty");
        let dir = root.join("wal");
        assert!(read_wal(&Io::real(), &dir).unwrap().is_empty());
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_wal(&Io::real(), &dir).unwrap().is_empty());
    }
}
