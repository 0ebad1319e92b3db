//! Columnar, zone-mapped segment container — the cold path's skip index.
//!
//! A *segment* is the columnar replacement for a row-oriented day bucket:
//! records are grouped into column *chunks* (a few dozen records each,
//! encoded by the owning crate with the delta/varint/RLE codecs below),
//! and every chunk carries a [`ZoneMap`] — sensor-id min/max, window
//! min/max, max severity, record count — plus its own CRC. The zone-map
//! directory sits at the *front* of the file (right after the fixed
//! header), because the [`Io`] seam reads strictly sequentially: a reader
//! learns everything it needs to skip before any payload byte, and a scan
//! that prunes the tail simply stops reading.
//!
//! Layout (little-endian):
//!
//! ```text
//! segment := header | meta | chunk_payload*
//! header  := magic "CSG1" | version u32 | kind u8 | flags u8
//!            | reserved u16 | meta_len u32 | meta_crc u32        (20 B)
//! meta    := n_records u64 | n_chunks u32 | dir_entry^n_chunks
//! dir     := payload_len u32 | payload_crc u32 | n_records u32
//!            | sensor_min u32 | sensor_max u32
//!            | window_min u32 | window_max u32 | max_severity u64 (36 B)
//!            | sensor_list
//! sensor_list := uvarint 0                          (absent: range only)
//!              | uvarint (k+1) | delta_uvarint^k    (exact sorted ids)
//! ```
//!
//! The optional per-chunk `sensor_list` is the *exact* distinct sensor
//! set (sorted ascending, delta-varint coded, capped at
//! [`MAX_ZONE_SENSORS`] ids — larger chunks fall back to the min/max
//! range). Sensor-set predicates intersect it exactly, which is what
//! makes guided pushdown effective: a region query's sensors are spread
//! across the id space, so nearly every chunk's `[min, max]` span
//! intersects them, while the exact sets rarely do.
//!
//! Every header byte is load-bearing: a flipped magic/kind/flags/reserved
//! byte is rejected outright, a flipped version is a typed
//! [`CpsError::VersionMismatch`], and `meta_len`/`meta_crc` corruption is
//! caught by the meta CRC or length check. Chunk payloads are only
//! CRC-verified when they are actually decoded — a skipped chunk is dead
//! weight the scan never vouches for.
//!
//! Commit protocol (same as every other durable file in the workspace):
//! write to `<path>.tmp` — header, meta, then one backend `write` per
//! chunk — `fsync`, rename. Each step is one [`Io`] operation, so the
//! crash sweeps in `cps-testkit` cover every op and torn-byte boundary.

use crate::crc::crc32;
use crate::io::Io;
use crate::iostats::IoStats;
use bytes::{Buf, BufMut};
use cps_core::{CpsError, Result, SensorId, Severity, TimeRange};
use std::io::Read;
use std::path::Path;

/// Magic bytes of a columnar segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"CSG1";
/// Current segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Fixed header size in bytes.
pub const SEGMENT_HEADER_SIZE: usize = 20;
/// Size of the fixed prefix of one zone-map directory entry (the
/// variable-length sensor list follows, at minimum one `0` byte).
pub const CHUNK_DIR_ENTRY_SIZE: usize = 36;
/// Largest exact sensor list a zone map stores; chunks touching more
/// distinct sensors keep only the min/max range.
pub const MAX_ZONE_SENSORS: usize = 512;
/// Fixed meta prefix (`n_records u64 | n_chunks u32`).
const META_FIXED_SIZE: usize = 12;
/// Upper bound on the zone-map directory, so a flipped `meta_len` cannot
/// trigger a multi-gigabyte allocation before the CRC rejects it.
const MAX_META_LEN: u32 = 1 << 26;
/// Upper bound on one chunk payload, for the same reason.
const MAX_CHUNK_LEN: u32 = 1 << 30;

// ---------------------------------------------------------------------------
// Integer codecs: unsigned varint, zigzag-delta sequences, RLE runs.
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 unsigned varint (1–10 bytes).
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one unsigned varint, advancing `buf`. Typed `Corrupt` on
/// truncation or overflow.
pub fn get_uvarint(buf: &mut &[u8]) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if buf.is_empty() {
            return Err(CpsError::corrupt("segment chunk", "truncated varint"));
        }
        if shift >= 64 {
            return Err(CpsError::corrupt("segment chunk", "varint overflows u64"));
        }
        let byte = buf[0];
        *buf = &buf[1..];
        let bits = u64::from(byte & 0x7f);
        if shift == 63 && bits > 1 {
            return Err(CpsError::corrupt("segment chunk", "varint overflows u64"));
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Appends a sequence as zigzag-encoded deltas from the previous value
/// (first delta is from 0). Ascending id/window columns collapse to
/// single-byte deltas; unsorted sequences still round-trip.
pub fn put_zigzag_deltas(buf: &mut Vec<u8>, values: &[u64]) {
    let mut prev = 0u64;
    for &v in values {
        put_uvarint(buf, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
}

/// Reads `n` zigzag-delta values into `out`. Inverse of
/// [`put_zigzag_deltas`].
pub fn get_zigzag_deltas(buf: &mut &[u8], n: usize, out: &mut Vec<u64>) -> Result<()> {
    let mut prev = 0u64;
    out.reserve(n);
    for _ in 0..n {
        let d = unzigzag(get_uvarint(buf)?);
        prev = prev.wrapping_add(d as u64);
        out.push(prev);
    }
    Ok(())
}

/// Appends a sequence as `(value, run)` varint pairs — the severity
/// columns, where long runs of equal per-record severities are the norm.
pub fn put_rle_u64(buf: &mut Vec<u8>, values: &[u64]) {
    let mut i = 0;
    while i < values.len() {
        let v = values[i];
        let mut run = 1u64;
        while i + (run as usize) < values.len() && values[i + run as usize] == v {
            run += 1;
        }
        put_uvarint(buf, v);
        put_uvarint(buf, run);
        i += run as usize;
    }
}

/// Reads exactly `n` RLE-encoded values into `out`. A run that overshoots
/// `n` is typed corruption.
pub fn get_rle_u64(buf: &mut &[u8], n: usize, out: &mut Vec<u64>) -> Result<()> {
    out.reserve(n);
    let mut remaining = n as u64;
    while remaining > 0 {
        let v = get_uvarint(buf)?;
        let run = get_uvarint(buf)?;
        if run == 0 || run > remaining {
            return Err(CpsError::corrupt("segment chunk", "RLE run out of bounds"));
        }
        for _ in 0..run {
            out.push(v);
        }
        remaining -= run;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Zone maps and predicates.
// ---------------------------------------------------------------------------

/// Per-chunk summary a reader can prune on without decoding the chunk.
/// `min > max` sentinels mean "no values of that column in this chunk".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZoneMap {
    /// Records in the chunk.
    pub n_records: u32,
    /// Smallest sensor id touched.
    pub sensor_min: u32,
    /// Largest sensor id touched.
    pub sensor_max: u32,
    /// Smallest window touched.
    pub window_min: u32,
    /// Largest window touched.
    pub window_max: u32,
    /// Largest per-record total severity.
    pub max_severity: Severity,
    /// The chunk's *complete* distinct sensor set, sorted ascending —
    /// `None` when unknown or larger than [`MAX_ZONE_SENSORS`] (readers
    /// then fall back to the `[sensor_min, sensor_max]` range).
    pub sensors: Option<Vec<u32>>,
}

impl Default for ZoneMap {
    fn default() -> Self {
        Self::empty()
    }
}

impl ZoneMap {
    /// A zone covering nothing (exactly: its sensor set is empty).
    pub fn empty() -> Self {
        Self {
            n_records: 0,
            sensor_min: u32::MAX,
            sensor_max: 0,
            window_min: u32::MAX,
            window_max: 0,
            max_severity: Severity::ZERO,
            sensors: Some(Vec::new()),
        }
    }

    /// Widens the sensor range — and the exact set, while it is still
    /// tracked — to include `s`.
    pub fn add_sensor(&mut self, s: SensorId) {
        self.sensor_min = self.sensor_min.min(s.raw());
        self.sensor_max = self.sensor_max.max(s.raw());
        if let Some(list) = &mut self.sensors {
            list.push(s.raw());
        }
    }

    /// Sorts and deduplicates the exact sensor list, dropping it (range
    /// fallback) past [`MAX_ZONE_SENSORS`] distinct ids. Called by the
    /// writer before an entry is encoded; after it, a `Some` list is the
    /// chunk's complete sorted sensor set and `sensor_min`/`sensor_max`
    /// are its first and last elements.
    pub fn normalize_sensors(&mut self) {
        if let Some(list) = &mut self.sensors {
            list.sort_unstable();
            list.dedup();
            if list.len() > MAX_ZONE_SENSORS {
                self.sensors = None;
            } else if let (Some(&first), Some(&last)) = (list.first(), list.last()) {
                self.sensor_min = first;
                self.sensor_max = last;
            }
        }
    }

    /// Widens the window range to include `w`.
    pub fn add_window(&mut self, w: cps_core::TimeWindow) {
        self.window_min = self.window_min.min(w.raw());
        self.window_max = self.window_max.max(w.raw());
    }

    /// Raises the severity ceiling to include one record's total.
    pub fn add_severity(&mut self, sev: Severity) {
        if sev > self.max_severity {
            self.max_severity = sev;
        }
    }

    /// The union of two zones (segment-level rollup of its chunks). The
    /// exact sensor sets union while both are known and the result stays
    /// under the cap; otherwise the rollup keeps only the range.
    pub fn merge(&self, other: &ZoneMap) -> ZoneMap {
        let sensors = match (&self.sensors, &other.sensors) {
            (Some(a), Some(b)) => {
                let mut u: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
                u.sort_unstable();
                u.dedup();
                (u.len() <= MAX_ZONE_SENSORS).then_some(u)
            }
            _ => None,
        };
        ZoneMap {
            n_records: self.n_records + other.n_records,
            sensor_min: self.sensor_min.min(other.sensor_min),
            sensor_max: self.sensor_max.max(other.sensor_max),
            window_min: self.window_min.min(other.window_min),
            window_max: self.window_max.max(other.window_max),
            max_severity: self.max_severity.max(other.max_severity),
            sensors,
        }
    }
}

/// A conjunctive pushdown filter: a record matches when it touches one of
/// the sensors (if set), touches a window in the range (if set), and its
/// total severity strictly exceeds the floor (if set).
///
/// [`admits`](Predicate::admits) is the zone-map test: it may return
/// `true` for a chunk holding no matching record (window and severity
/// zones are ranges, and a capped sensor zone degrades to one), but
/// never `false` for a chunk holding one — callers re-apply the exact
/// record-level filter after decoding, so pushdown only changes how much
/// is decoded, never what is returned.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Predicate {
    /// Sorted, deduplicated sensor ids; `None` = no sensor constraint.
    sensors: Option<Vec<SensorId>>,
    /// Half-open window range; `None` = no window constraint.
    pub windows: Option<TimeRange>,
    /// Strict lower bound on per-record total severity.
    pub severity_above: Option<Severity>,
}

impl Predicate {
    /// The match-everything predicate (scans decode every chunk).
    pub fn all() -> Self {
        Self::default()
    }

    /// Whether nothing is constrained.
    pub fn is_all(&self) -> bool {
        self.sensors.is_none() && self.windows.is_none() && self.severity_above.is_none()
    }

    /// Constrains to records touching any of `sensors` (sorted and
    /// deduplicated here; an empty set matches nothing).
    pub fn with_sensors(mut self, sensors: impl IntoIterator<Item = SensorId>) -> Self {
        let mut sensors: Vec<SensorId> = sensors.into_iter().collect();
        sensors.sort_unstable();
        sensors.dedup();
        self.sensors = Some(sensors);
        self
    }

    /// Constrains to records touching a window in `range`.
    pub fn with_windows(mut self, range: TimeRange) -> Self {
        self.windows = Some(range);
        self
    }

    /// Constrains to records whose total severity strictly exceeds
    /// `floor`.
    pub fn with_severity_above(mut self, floor: Severity) -> Self {
        self.severity_above = Some(floor);
        self
    }

    /// The sorted sensor set, if constrained.
    pub fn sensors(&self) -> Option<&[SensorId]> {
        self.sensors.as_deref()
    }

    /// Whether `s` is in the sensor set (true when unconstrained).
    pub fn sensor_matches(&self, s: SensorId) -> bool {
        match &self.sensors {
            None => true,
            Some(set) => set.binary_search(&s).is_ok(),
        }
    }

    /// Zone test: can any record in `zone` match? Sound by construction —
    /// each conjunct matches or over-approximates its record-level
    /// filter. Sensor sets intersect the zone's exact sensor list when
    /// it is stored, and its `[sensor_min, sensor_max]` range otherwise.
    pub fn admits(&self, zone: &ZoneMap) -> bool {
        if zone.n_records == 0 {
            return false;
        }
        if let Some(set) = &self.sensors {
            if zone.sensor_min > zone.sensor_max {
                return false; // chunk touches no sensor at all
            }
            match &zone.sensors {
                Some(list) => {
                    if !sorted_sets_intersect(set, list) {
                        return false;
                    }
                }
                None => {
                    let i = set.partition_point(|s| s.raw() < zone.sensor_min);
                    if i >= set.len() || set[i].raw() > zone.sensor_max {
                        return false;
                    }
                }
            }
        }
        if let Some(range) = &self.windows {
            if zone.window_min > zone.window_max {
                return false;
            }
            if zone.window_min >= range.end.raw() || zone.window_max < range.start.raw() {
                return false;
            }
        }
        if let Some(floor) = self.severity_above {
            if zone.max_severity <= floor {
                return false;
            }
        }
        true
    }
}

/// Whether two sorted sets share an element (linear merge walk).
fn sorted_sets_intersect(set: &[SensorId], list: &[u32]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < set.len() && j < list.len() {
        match set[i].raw().cmp(&list[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// Buffers encoded chunks and commits them as one atomic segment file.
#[derive(Default)]
pub struct SegmentWriter {
    chunks: Vec<(ZoneMap, Vec<u8>)>,
    n_records: u64,
}

impl SegmentWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one encoded chunk with its zone map (whose sensor list is
    /// normalized here — sorted, deduplicated, capped).
    pub fn push_chunk(&mut self, mut zone: ZoneMap, payload: Vec<u8>) {
        zone.normalize_sensors();
        self.n_records += u64::from(zone.n_records);
        self.chunks.push((zone, payload));
    }

    /// Total records across pushed chunks.
    pub fn n_records(&self) -> u64 {
        self.n_records
    }

    /// Commits the segment to `path` via write-temp + fsync + rename.
    /// `kind` tags the record schema (validated on read).
    pub fn commit(self, io: &Io, path: &Path, kind: u8) -> Result<()> {
        let mut meta =
            Vec::with_capacity(META_FIXED_SIZE + self.chunks.len() * (CHUNK_DIR_ENTRY_SIZE + 1));
        meta.put_u64_le(self.n_records);
        meta.put_u32_le(self.chunks.len() as u32);
        for (zone, payload) in &self.chunks {
            meta.put_u32_le(payload.len() as u32);
            meta.put_u32_le(crc32(payload));
            meta.put_u32_le(zone.n_records);
            meta.put_u32_le(zone.sensor_min);
            meta.put_u32_le(zone.sensor_max);
            meta.put_u32_le(zone.window_min);
            meta.put_u32_le(zone.window_max);
            meta.put_u64_le(zone.max_severity.as_secs());
            match &zone.sensors {
                None => put_uvarint(&mut meta, 0),
                Some(list) => {
                    put_uvarint(&mut meta, list.len() as u64 + 1);
                    let mut prev = 0u32;
                    for &s in list {
                        put_uvarint(&mut meta, u64::from(s - prev));
                        prev = s;
                    }
                }
            }
        }

        let mut header = Vec::with_capacity(SEGMENT_HEADER_SIZE);
        header.put_slice(&SEGMENT_MAGIC);
        header.put_u32_le(SEGMENT_VERSION);
        header.put_u8(kind);
        header.put_u8(0); // flags
        header.put_u16_le(0); // reserved
        header.put_u32_le(meta.len() as u32);
        header.put_u32_le(crc32(&meta));

        if let Some(parent) = path.parent() {
            io.create_dir_all(parent)?;
        }
        let tmp = path.with_extension("tmp");
        {
            let mut f = io.create(&tmp)?;
            use std::io::Write;
            f.write_all(&header)?;
            f.write_all(&meta)?;
            for (_, payload) in &self.chunks {
                f.write_all(payload)?;
            }
            f.sync()?;
        }
        io.rename(&tmp, path)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

/// One parsed zone-map directory entry.
#[derive(Clone, Debug)]
pub struct ChunkEntry {
    /// The chunk's zone map.
    pub zone: ZoneMap,
    /// Encoded payload length.
    pub payload_len: u32,
    /// CRC-32 of the payload.
    pub payload_crc: u32,
}

/// The parsed front matter of a segment: record total and zone-map
/// directory.
#[derive(Clone, Debug)]
pub struct SegmentMeta {
    /// Records across all chunks.
    pub n_records: u64,
    /// Per-chunk directory, in file order.
    pub chunks: Vec<ChunkEntry>,
}

impl SegmentMeta {
    /// The union of every chunk zone (the segment-level zone map).
    pub fn zone(&self) -> ZoneMap {
        self.chunks
            .iter()
            .fold(ZoneMap::empty(), |acc, c| acc.merge(&c.zone))
    }
}

/// Counters from one [`scan_segment`] call (also mirrored into the
/// optional [`IoStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentScan {
    /// Records in the whole segment (from meta — no decoding needed).
    pub total_records: u64,
    /// Chunks in the segment.
    pub chunks_total: usize,
    /// Chunks decoded and handed to the callback.
    pub chunks_decoded: usize,
    /// Chunks pruned by their zone maps.
    pub chunks_skipped: usize,
    /// Whether no chunk at all admitted the predicate.
    pub segment_skipped: bool,
    /// Payload bytes decoded.
    pub bytes_decoded: u64,
}

fn corrupt(path: &Path, detail: impl Into<String>) -> CpsError {
    CpsError::corrupt(path.display().to_string(), detail)
}

fn read_exact_or_corrupt<R: Read + ?Sized>(
    r: &mut R,
    buf: &mut [u8],
    path: &Path,
    what: &str,
) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            corrupt(path, format!("truncated {what}"))
        } else {
            CpsError::Io(e)
        }
    })
}

/// Reads a length-prefixed region without trusting the length for the
/// allocation up front.
fn read_len_or_corrupt<R: Read + ?Sized>(
    r: &mut R,
    len: u32,
    path: &Path,
    what: &str,
) -> Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(len.min(1 << 20) as usize);
    (&mut *r)
        .take(u64::from(len))
        .read_to_end(&mut buf)
        .map_err(CpsError::Io)?;
    if buf.len() != len as usize {
        return Err(corrupt(
            path,
            format!("truncated {what}: expected {len} bytes, got {}", buf.len()),
        ));
    }
    Ok(buf)
}

/// Opens `path`, validates the header, and parses the zone-map directory.
/// The returned reader is positioned at the first chunk payload.
fn open_segment(
    io: &Io,
    path: &Path,
    expected_kind: u8,
    stats: Option<&IoStats>,
) -> Result<(Box<dyn crate::io::IoRead>, SegmentMeta)> {
    let mut r = io.open(path).map_err(CpsError::Io)?;
    if let Some(s) = stats {
        s.add_file();
    }
    let mut hdr = [0u8; SEGMENT_HEADER_SIZE];
    read_exact_or_corrupt(r.as_mut(), &mut hdr, path, "segment header")?;
    let mut h = &hdr[..];
    let mut magic = [0u8; 4];
    h.copy_to_slice(&mut magic);
    if magic != SEGMENT_MAGIC {
        return Err(corrupt(path, "bad segment magic"));
    }
    let version = h.get_u32_le();
    if version != SEGMENT_VERSION {
        return Err(CpsError::VersionMismatch {
            context: path.display().to_string(),
            found: version,
            expected: SEGMENT_VERSION,
        });
    }
    let kind = h.get_u8();
    if kind != expected_kind {
        return Err(corrupt(
            path,
            format!("segment kind {kind} != expected {expected_kind}"),
        ));
    }
    let flags = h.get_u8();
    let reserved = h.get_u16_le();
    if flags != 0 || reserved != 0 {
        return Err(corrupt(path, "non-zero flags/reserved header bytes"));
    }
    let meta_len = h.get_u32_le();
    let meta_crc = h.get_u32_le();
    if meta_len < META_FIXED_SIZE as u32 || meta_len > MAX_META_LEN {
        return Err(corrupt(path, format!("implausible meta length {meta_len}")));
    }
    let meta_bytes = read_len_or_corrupt(r.as_mut(), meta_len, path, "zone-map directory")?;
    if crc32(&meta_bytes) != meta_crc {
        return Err(corrupt(path, "zone-map directory checksum mismatch"));
    }
    if let Some(s) = stats {
        s.add_bytes(SEGMENT_HEADER_SIZE as u64 + u64::from(meta_len));
    }

    let mut m = &meta_bytes[..];
    let n_records = m.get_u64_le();
    let n_chunks = m.get_u32_le() as usize;
    // Every entry costs at least its fixed prefix plus one sensor-list
    // byte, so a corrupt n_chunks cannot force a huge allocation.
    if m.len() < n_chunks.saturating_mul(CHUNK_DIR_ENTRY_SIZE + 1) {
        return Err(corrupt(path, "zone-map directory length disagrees"));
    }
    let mut chunks = Vec::with_capacity(n_chunks);
    let mut dir_records = 0u64;
    for _ in 0..n_chunks {
        if m.len() < CHUNK_DIR_ENTRY_SIZE + 1 {
            return Err(corrupt(path, "zone-map directory length disagrees"));
        }
        let payload_len = m.get_u32_le();
        if payload_len > MAX_CHUNK_LEN {
            return Err(corrupt(
                path,
                format!("implausible chunk length {payload_len}"),
            ));
        }
        let payload_crc = m.get_u32_le();
        let mut zone = ZoneMap {
            n_records: m.get_u32_le(),
            sensor_min: m.get_u32_le(),
            sensor_max: m.get_u32_le(),
            window_min: m.get_u32_le(),
            window_max: m.get_u32_le(),
            max_severity: Severity::from_secs(m.get_u64_le()),
            sensors: None,
        };
        zone.sensors = read_sensor_list(&mut m, &zone, path)?;
        dir_records += u64::from(zone.n_records);
        chunks.push(ChunkEntry {
            zone,
            payload_len,
            payload_crc,
        });
    }
    if !m.is_empty() {
        return Err(corrupt(path, "zone-map directory length disagrees"));
    }
    if dir_records != n_records {
        return Err(corrupt(path, "chunk record counts disagree with total"));
    }
    Ok((r, SegmentMeta { n_records, chunks }))
}

/// Decodes one directory entry's sensor list and validates it against
/// the fixed zone fields: sorted strictly ascending, within the stored
/// `[sensor_min, sensor_max]` range with both endpoints present. All of
/// this is already CRC-protected; the checks catch writer bugs, not just
/// bit rot.
fn read_sensor_list(m: &mut &[u8], zone: &ZoneMap, path: &Path) -> Result<Option<Vec<u32>>> {
    let tag =
        get_uvarint(m).map_err(|_| corrupt(path, "truncated sensor list in zone-map entry"))?;
    if tag == 0 {
        return Ok(None);
    }
    let count = (tag - 1) as usize;
    if count > MAX_ZONE_SENSORS {
        return Err(corrupt(path, format!("implausible sensor list ({count})")));
    }
    if count == 0 {
        if zone.sensor_min <= zone.sensor_max {
            return Err(corrupt(path, "empty sensor list under a non-empty range"));
        }
        return Ok(Some(Vec::new()));
    }
    let mut list = Vec::with_capacity(count);
    let mut prev = 0u64;
    for i in 0..count {
        let delta =
            get_uvarint(m).map_err(|_| corrupt(path, "truncated sensor list in zone-map entry"))?;
        if i > 0 && delta == 0 {
            return Err(corrupt(path, "sensor list not strictly ascending"));
        }
        prev = prev.saturating_add(delta);
        if prev > u64::from(u32::MAX) {
            return Err(corrupt(path, "sensor id overflows u32"));
        }
        list.push(prev as u32);
    }
    if list[0] != zone.sensor_min || *list.last().unwrap() != zone.sensor_max {
        return Err(corrupt(path, "sensor list disagrees with zone range"));
    }
    Ok(Some(list))
}

/// Reads only the header and zone-map directory of a segment.
pub fn read_segment_meta(
    io: &Io,
    path: &Path,
    expected_kind: u8,
    stats: Option<&IoStats>,
) -> Result<SegmentMeta> {
    open_segment(io, path, expected_kind, stats).map(|(_, meta)| meta)
}

/// Scans a segment, decoding only the chunks whose zone maps admit
/// `pred`; `on_chunk` receives each surviving chunk's zone and verified
/// payload, in file order. Skipped chunks before the last survivor are
/// consumed without CRC checks or decoding; everything after the last
/// survivor is never read at all (reads are sequential, so stopping early
/// is the whole I/O saving).
pub fn scan_segment<F>(
    io: &Io,
    path: &Path,
    expected_kind: u8,
    pred: &Predicate,
    stats: Option<&IoStats>,
    mut on_chunk: F,
) -> Result<SegmentScan>
where
    F: FnMut(&ZoneMap, &[u8]) -> Result<()>,
{
    let (mut r, meta) = open_segment(io, path, expected_kind, stats)?;
    let survivors: Vec<bool> = meta.chunks.iter().map(|c| pred.admits(&c.zone)).collect();
    let last_survivor = survivors.iter().rposition(|&s| s);

    let mut scan = SegmentScan {
        total_records: meta.n_records,
        chunks_total: meta.chunks.len(),
        ..SegmentScan::default()
    };
    let Some(last) = last_survivor else {
        scan.chunks_skipped = meta.chunks.len();
        scan.segment_skipped = !meta.chunks.is_empty();
        if let Some(s) = stats {
            if scan.segment_skipped {
                s.add_segment_skipped();
            }
            s.add_chunks_skipped(scan.chunks_skipped as u64);
        }
        return Ok(scan);
    };

    for (i, entry) in meta.chunks.iter().enumerate().take(last + 1) {
        if survivors[i] {
            let payload = read_len_or_corrupt(r.as_mut(), entry.payload_len, path, "chunk")?;
            if crc32(&payload) != entry.payload_crc {
                return Err(corrupt(path, format!("chunk {i} checksum mismatch")));
            }
            if let Some(s) = stats {
                s.add_bytes(u64::from(entry.payload_len));
                s.add_bytes_decoded(u64::from(entry.payload_len));
                s.add_block();
            }
            scan.chunks_decoded += 1;
            scan.bytes_decoded += u64::from(entry.payload_len);
            on_chunk(&entry.zone, &payload)?;
        } else {
            // Sequential reads cannot seek: consume the bytes, decode
            // nothing.
            let copied = std::io::copy(
                &mut r.as_mut().take(u64::from(entry.payload_len)),
                &mut std::io::sink(),
            )
            .map_err(CpsError::Io)?;
            if copied != u64::from(entry.payload_len) {
                return Err(corrupt(path, format!("truncated skipped chunk {i}")));
            }
            if let Some(s) = stats {
                s.add_bytes(u64::from(entry.payload_len));
            }
            scan.chunks_skipped += 1;
        }
    }
    let tail = meta.chunks.len() - (last + 1);
    scan.chunks_skipped += tail;
    if let Some(s) = stats {
        s.add_chunks_skipped(scan.chunks_skipped as u64);
    }

    // Only a scan that consumed through the final chunk can cheaply attest
    // there is no trailing garbage.
    if tail == 0 {
        let mut probe = [0u8; 1];
        match r.read(&mut probe) {
            Ok(0) => {}
            Ok(_) => return Err(corrupt(path, "trailing bytes after last chunk")),
            Err(e) => return Err(CpsError::Io(e)),
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::ScratchDir;
    use cps_core::TimeWindow;

    fn zone(sensors: (u32, u32), windows: (u32, u32), sev: u64, n: u32) -> ZoneMap {
        ZoneMap {
            n_records: n,
            sensor_min: sensors.0,
            sensor_max: sensors.1,
            window_min: windows.0,
            window_max: windows.1,
            max_severity: Severity::from_secs(sev),
            sensors: None,
        }
    }

    #[test]
    fn uvarint_roundtrips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut s = &buf[..];
            assert_eq!(get_uvarint(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn uvarint_rejects_truncation_and_overflow() {
        let mut s: &[u8] = &[0x80, 0x80];
        assert!(matches!(get_uvarint(&mut s), Err(CpsError::Corrupt { .. })));
        let mut s: &[u8] = &[0xff; 11];
        assert!(matches!(get_uvarint(&mut s), Err(CpsError::Corrupt { .. })));
    }

    #[test]
    fn zigzag_deltas_roundtrip_any_order() {
        let values = vec![5u64, 3, 1000, 0, u64::MAX, 7, 7, 8];
        let mut buf = Vec::new();
        put_zigzag_deltas(&mut buf, &values);
        let mut s = &buf[..];
        let mut out = Vec::new();
        get_zigzag_deltas(&mut s, values.len(), &mut out).unwrap();
        assert_eq!(out, values);
        assert!(s.is_empty());
    }

    #[test]
    fn ascending_sequences_compress_to_one_byte_per_delta() {
        let values: Vec<u64> = (1000..1100).collect();
        let mut buf = Vec::new();
        put_zigzag_deltas(&mut buf, &values);
        // First value costs 2 bytes; every subsequent delta of 1 costs 1.
        assert!(buf.len() <= 2 + (values.len() - 1));
    }

    #[test]
    fn rle_roundtrips_and_compresses_runs() {
        let values = vec![60u64, 60, 60, 60, 5, 5, 9, 60, 60];
        let mut buf = Vec::new();
        put_rle_u64(&mut buf, &values);
        assert!(buf.len() < values.len());
        let mut s = &buf[..];
        let mut out = Vec::new();
        get_rle_u64(&mut s, values.len(), &mut out).unwrap();
        assert_eq!(out, values);
        assert!(s.is_empty());

        // A run overshooting the expected count is typed corruption.
        let mut bad = Vec::new();
        put_uvarint(&mut bad, 60);
        put_uvarint(&mut bad, 10);
        let mut s = &bad[..];
        let mut out = Vec::new();
        assert!(matches!(
            get_rle_u64(&mut s, 3, &mut out),
            Err(CpsError::Corrupt { .. })
        ));
    }

    #[test]
    fn predicate_admits_is_sound_on_ranges() {
        let z = zone((10, 20), (100, 200), 300, 4);
        assert!(Predicate::all().admits(&z));
        let p = Predicate::all().with_sensors(vec![SensorId::new(15)]);
        assert!(p.admits(&z));
        let p = Predicate::all().with_sensors(vec![SensorId::new(9), SensorId::new(21)]);
        assert!(!p.admits(&z));
        let p = Predicate::all().with_sensors(vec![]);
        assert!(!p.admits(&z));
        let p = Predicate::all()
            .with_windows(TimeRange::new(TimeWindow::new(200), TimeWindow::new(300)));
        assert!(p.admits(&z), "window 200 is inside the zone");
        let p = Predicate::all()
            .with_windows(TimeRange::new(TimeWindow::new(201), TimeWindow::new(300)));
        assert!(!p.admits(&z));
        let p = Predicate::all().with_severity_above(Severity::from_secs(299));
        assert!(p.admits(&z));
        let p = Predicate::all().with_severity_above(Severity::from_secs(300));
        assert!(!p.admits(&z), "severity floor is strict");
        // Empty chunks admit nothing.
        assert!(!Predicate::all().admits(&ZoneMap::empty()));
    }

    #[test]
    fn exact_sensor_lists_refute_range_overlaps() {
        let mut z = zone((0, 0), (100, 200), 300, 4);
        z.sensors = Some(Vec::new());
        for s in [30u32, 10, 20, 10] {
            z.add_sensor(SensorId::new(s));
        }
        z.normalize_sensors();
        assert_eq!(z.sensors.as_deref(), Some(&[10u32, 20, 30][..]));
        assert_eq!((z.sensor_min, z.sensor_max), (10, 30));
        // 15 and 25 are inside the [10, 30] range but not in the set:
        // the range test would admit, the exact list refutes.
        let p = Predicate::all().with_sensors(vec![SensorId::new(15), SensorId::new(25)]);
        assert!(!p.admits(&z));
        let p = Predicate::all().with_sensors(vec![SensorId::new(15), SensorId::new(20)]);
        assert!(p.admits(&z));
        // The same zone without the list falls back to the range test.
        z.sensors = None;
        let p = Predicate::all().with_sensors(vec![SensorId::new(15), SensorId::new(25)]);
        assert!(p.admits(&z));
    }

    #[test]
    fn oversized_sensor_lists_degrade_to_the_range() {
        let mut z = ZoneMap {
            n_records: 1,
            ..ZoneMap::empty()
        };
        for s in 0..=(MAX_ZONE_SENSORS as u32) {
            z.add_sensor(SensorId::new(2 * s));
        }
        z.normalize_sensors();
        assert!(z.sensors.is_none(), "past the cap only the range survives");
        assert_eq!(
            (z.sensor_min, z.sensor_max),
            (0, 2 * MAX_ZONE_SENSORS as u32)
        );
        // Odd ids are not in the (dropped) set, but the range must still
        // admit them — soundness cannot depend on the cap.
        let p = Predicate::all().with_sensors(vec![SensorId::new(3)]);
        assert!(p.admits(&z));
    }

    #[test]
    fn sensor_lists_roundtrip_through_the_file_and_prune_exactly() {
        let dir = ScratchDir::new("exact-list");
        let path = dir.join("seg.acs");
        let mut w = SegmentWriter::new();
        for ids in [&[10u32, 40, 70][..], &[20, 50, 80], &[30, 60, 90]] {
            let mut z = ZoneMap {
                n_records: ids.len() as u32,
                ..ZoneMap::empty()
            };
            for &s in ids {
                z.add_sensor(SensorId::new(s));
                z.add_window(TimeWindow::new(s));
            }
            z.add_severity(Severity::from_secs(100));
            w.push_chunk(z, ids.iter().map(|&s| s as u8).collect());
        }
        w.commit(&Io::real(), &path, 7).unwrap();

        let meta = read_segment_meta(&Io::real(), &path, 7, None).unwrap();
        assert_eq!(
            meta.chunks[1].zone.sensors.as_deref(),
            Some(&[20u32, 50, 80][..])
        );
        // All three chunk ranges overlap sensor 50; only chunk 1 holds it.
        let pred = Predicate::all().with_sensors(vec![SensorId::new(50)]);
        let mut seen = Vec::new();
        let scan = scan_segment(&Io::real(), &path, 7, &pred, None, |_, bytes| {
            seen.push(bytes.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(scan.chunks_decoded, 1);
        assert_eq!(scan.chunks_skipped, 2);
        assert_eq!(seen, vec![vec![20u8, 50, 80]]);
        // The segment rollup unions the exact sets.
        assert_eq!(
            meta.zone().sensors.as_deref(),
            Some(&[10u32, 20, 30, 40, 50, 60, 70, 80, 90][..])
        );
    }

    fn write_three_chunk_segment(path: &Path) -> Vec<Vec<u8>> {
        let payloads = vec![vec![1u8, 2, 3, 4], vec![5u8, 6, 7, 8, 9], vec![10u8, 11]];
        let mut w = SegmentWriter::new();
        w.push_chunk(zone((0, 9), (0, 10), 50, 3), payloads[0].clone());
        w.push_chunk(zone((10, 19), (5, 15), 500, 4), payloads[1].clone());
        w.push_chunk(zone((20, 29), (10, 20), 40, 2), payloads[2].clone());
        w.commit(&Io::real(), path, 7).unwrap();
        payloads
    }

    #[test]
    fn full_scan_roundtrips_every_chunk_in_order() {
        let dir = ScratchDir::new("roundtrip");
        let path = dir.join("seg.acs");
        let payloads = write_three_chunk_segment(&path);
        let mut seen = Vec::new();
        let scan = scan_segment(
            &Io::real(),
            &path,
            7,
            &Predicate::all(),
            None,
            |zone, bytes| {
                seen.push((zone.n_records, bytes.to_vec()));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(scan.total_records, 9);
        assert_eq!(scan.chunks_decoded, 3);
        assert_eq!(scan.chunks_skipped, 0);
        assert!(!scan.segment_skipped);
        assert_eq!(
            seen,
            vec![
                (3, payloads[0].clone()),
                (4, payloads[1].clone()),
                (2, payloads[2].clone())
            ]
        );
    }

    #[test]
    fn pushdown_skips_chunks_and_stops_before_the_tail() {
        let dir = ScratchDir::new("pushdown");
        let path = dir.join("seg.acs");
        write_three_chunk_segment(&path);
        let stats = IoStats::shared();
        // Only the middle chunk's sensors match.
        let pred = Predicate::all().with_sensors(vec![SensorId::new(12)]);
        let mut seen = 0;
        let scan = scan_segment(&Io::real(), &path, 7, &pred, Some(&stats), |_, bytes| {
            assert_eq!(bytes, [5u8, 6, 7, 8, 9]);
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 1);
        assert_eq!(scan.chunks_decoded, 1);
        assert_eq!(scan.chunks_skipped, 2);
        assert_eq!(scan.total_records, 9);
        let snap = stats.snapshot();
        assert_eq!(snap.chunks_skipped, 2);
        assert_eq!(snap.bytes_decoded, 5);
        // The tail chunk (2 bytes) is never read: physical bytes stop at
        // header + meta (each entry carries one absent-list byte) +
        // chunk0 (skipped but consumed) + chunk1.
        assert_eq!(
            snap.bytes_read,
            (SEGMENT_HEADER_SIZE + META_FIXED_SIZE + 3 * (CHUNK_DIR_ENTRY_SIZE + 1) + 4 + 5) as u64
        );
    }

    #[test]
    fn hopeless_predicate_skips_the_whole_segment() {
        let dir = ScratchDir::new("skip-all");
        let path = dir.join("seg.acs");
        write_three_chunk_segment(&path);
        let stats = IoStats::shared();
        let pred = Predicate::all().with_severity_above(Severity::from_secs(10_000));
        let scan = scan_segment(&Io::real(), &path, 7, &pred, Some(&stats), |_, _| {
            panic!("no chunk should decode")
        })
        .unwrap();
        assert!(scan.segment_skipped);
        assert_eq!(scan.chunks_skipped, 3);
        assert_eq!(scan.total_records, 9);
        assert_eq!(stats.snapshot().segments_skipped, 1);
        assert_eq!(stats.snapshot().bytes_decoded, 0);
    }

    #[test]
    fn skipped_chunk_corruption_is_invisible_but_decoded_chunks_are_verified() {
        let dir = ScratchDir::new("skip-corrupt");
        let path = dir.join("seg.acs");
        write_three_chunk_segment(&path);
        let mut raw = std::fs::read(&path).unwrap();
        // Corrupt the first chunk's payload (right after header + meta).
        let first_chunk_at = SEGMENT_HEADER_SIZE + META_FIXED_SIZE + 3 * (CHUNK_DIR_ENTRY_SIZE + 1);
        raw[first_chunk_at] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();

        // A pushdown scan that skips chunk 0 still returns chunk 1 intact.
        let pred = Predicate::all().with_sensors(vec![SensorId::new(12)]);
        let scan = scan_segment(&Io::real(), &path, 7, &pred, None, |_, bytes| {
            assert_eq!(bytes, [5u8, 6, 7, 8, 9]);
            Ok(())
        })
        .unwrap();
        assert_eq!(scan.chunks_decoded, 1);

        // A full scan decodes chunk 0 and must reject it.
        let err = scan_segment(
            &Io::real(),
            &path,
            7,
            &Predicate::all(),
            None,
            |_, _| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, CpsError::Corrupt { .. }), "{err:?}");
    }

    #[test]
    fn every_byte_flip_of_a_fully_scanned_segment_is_detected() {
        let dir = ScratchDir::new("flip");
        let clean_path = dir.join("seg.acs");
        write_three_chunk_segment(&clean_path);
        let clean = std::fs::read(&clean_path).unwrap();
        let path = dir.join("flipped.acs");
        for i in 0..clean.len() {
            let mut raw = clean.clone();
            raw[i] ^= 0xFF;
            std::fs::write(&path, &raw).unwrap();
            match scan_segment(
                &Io::real(),
                &path,
                7,
                &Predicate::all(),
                None,
                |_, _| Ok(()),
            ) {
                Err(CpsError::Corrupt { .. }) | Err(CpsError::VersionMismatch { .. }) => {}
                Err(other) => panic!("flip at byte {i}: untyped error {other:?}"),
                Ok(_) => panic!("flip at byte {i} went undetected"),
            }
        }
    }

    #[test]
    fn truncation_at_every_byte_is_detected() {
        let dir = ScratchDir::new("trunc");
        let clean_path = dir.join("seg.acs");
        write_three_chunk_segment(&clean_path);
        let clean = std::fs::read(&clean_path).unwrap();
        let path = dir.join("cut.acs");
        for len in 0..clean.len() {
            std::fs::write(&path, &clean[..len]).unwrap();
            match scan_segment(
                &Io::real(),
                &path,
                7,
                &Predicate::all(),
                None,
                |_, _| Ok(()),
            ) {
                Err(CpsError::Corrupt { .. }) => {}
                Err(other) => panic!("truncation at {len}: untyped error {other:?}"),
                Ok(_) => panic!("truncation at {len} went undetected"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let dir = ScratchDir::new("trailing");
        let path = dir.join("seg.acs");
        write_three_chunk_segment(&path);
        let mut raw = std::fs::read(&path).unwrap();
        raw.push(0);
        std::fs::write(&path, &raw).unwrap();
        let err = scan_segment(
            &Io::real(),
            &path,
            7,
            &Predicate::all(),
            None,
            |_, _| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, CpsError::Corrupt { .. }));
    }

    #[test]
    fn future_version_is_a_typed_version_mismatch() {
        let dir = ScratchDir::new("version");
        let path = dir.join("seg.acs");
        write_three_chunk_segment(&path);
        let mut raw = std::fs::read(&path).unwrap();
        raw[4] = 2; // version u32 LE low byte
        std::fs::write(&path, &raw).unwrap();
        let err = read_segment_meta(&Io::real(), &path, 7, None).unwrap_err();
        match err {
            CpsError::VersionMismatch {
                context,
                found,
                expected,
            } => assert_eq!(
                (context, found, expected),
                (path.display().to_string(), 2, SEGMENT_VERSION)
            ),
            other => panic!("future version must be a typed rejection, got {other:?}"),
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let dir = ScratchDir::new("kind");
        let path = dir.join("seg.acs");
        write_three_chunk_segment(&path);
        let err = read_segment_meta(&Io::real(), &path, 8, None).unwrap_err();
        assert!(matches!(err, CpsError::Corrupt { .. }));
    }

    #[test]
    fn empty_segment_roundtrips() {
        let dir = ScratchDir::new("empty");
        let path = dir.join("seg.acs");
        SegmentWriter::new().commit(&Io::real(), &path, 7).unwrap();
        let scan = scan_segment(&Io::real(), &path, 7, &Predicate::all(), None, |_, _| {
            panic!("no chunks")
        })
        .unwrap();
        assert_eq!(scan.total_records, 0);
        assert_eq!(scan.chunks_total, 0);
        assert!(!scan.segment_skipped, "an empty segment is not a skip");
        let meta = read_segment_meta(&Io::real(), &path, 7, None).unwrap();
        assert_eq!(meta.zone(), ZoneMap::empty());
    }

    #[test]
    fn segment_meta_rolls_up_chunk_zones() {
        let dir = ScratchDir::new("rollup");
        let path = dir.join("seg.acs");
        write_three_chunk_segment(&path);
        let meta = read_segment_meta(&Io::real(), &path, 7, None).unwrap();
        let z = meta.zone();
        assert_eq!((z.sensor_min, z.sensor_max), (0, 29));
        assert_eq!((z.window_min, z.window_max), (0, 20));
        assert_eq!(z.max_severity, Severity::from_secs(500));
        assert_eq!(z.n_records, 9);
    }
}
