//! On-disk binary format.
//!
//! A partition file is a fixed header followed by CRC-checked blocks:
//!
//! ```text
//! file   := header block*
//! header := magic "CPSD" | version u32 | kind u8 | record_size u8 | pad [u8;6]
//! block  := count u32 | crc32 u32 | payload (count * record_size bytes)
//! ```
//!
//! Records are fixed-width little-endian structs — 16 bytes each — so a
//! monthly raw partition at paper scale (≈34 M records) is ≈520 MB and scan
//! speed is limited by sequential I/O, matching the paper's observation that
//! the pre-processing step (PR) and the original CubeView (OC) are dominated
//! by the raw scan.

use bytes::{Buf, BufMut};
use cps_core::{AtypicalRecord, CpsError, RawRecord, Result, SensorId, Severity, TimeWindow};
use std::path::Path;

/// File magic, `b"CPSD"`.
pub const MAGIC: [u8; 4] = *b"CPSD";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;
/// Size of every record encoding, in bytes.
pub const RECORD_SIZE: usize = 16;
/// File header size, in bytes.
pub const HEADER_SIZE: usize = 16;
/// Block header size, in bytes.
pub const BLOCK_HEADER_SIZE: usize = 8;
/// Records per block (64 KiB payloads).
pub const RECORDS_PER_BLOCK: usize = 4096;

/// Which record type a partition stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// Raw sensor readings.
    Raw,
    /// Pre-processed atypical records.
    Atypical,
}

impl RecordKind {
    fn tag(self) -> u8 {
        match self {
            RecordKind::Raw => 0,
            RecordKind::Atypical => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(RecordKind::Raw),
            1 => Ok(RecordKind::Atypical),
            other => Err(CpsError::corrupt(
                "file header",
                format!("unknown record kind {other}"),
            )),
        }
    }
}

/// Encodes the file header into `buf`.
pub fn encode_header(kind: RecordKind, buf: &mut Vec<u8>) {
    buf.put_slice(&MAGIC);
    buf.put_u32_le(FORMAT_VERSION);
    buf.put_u8(kind.tag());
    buf.put_u8(RECORD_SIZE as u8);
    buf.put_slice(&[0u8; 6]);
}

/// Decodes and validates the header of the partition file at `path`;
/// returns the record kind. Errors name `path`.
pub fn decode_header(mut buf: &[u8], path: &Path) -> Result<RecordKind> {
    let context = || path.display().to_string();
    if buf.len() < HEADER_SIZE {
        return Err(CpsError::corrupt(context(), "truncated header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(CpsError::corrupt(context(), "bad magic"));
    }
    let version = buf.get_u32_le();
    if version != FORMAT_VERSION {
        return Err(CpsError::VersionMismatch {
            context: context(),
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let kind = RecordKind::from_tag(buf.get_u8())?;
    let rec_size = buf.get_u8() as usize;
    if rec_size != RECORD_SIZE {
        return Err(CpsError::corrupt(
            context(),
            format!("unexpected record size {rec_size}"),
        ));
    }
    Ok(kind)
}

/// Encodes one raw record (16 bytes) into `buf`.
#[inline]
pub fn encode_raw(r: &RawRecord, buf: &mut Vec<u8>) {
    buf.put_u32_le(r.sensor.raw());
    buf.put_u32_le(r.window.raw());
    buf.put_f32_le(r.speed_mph);
    buf.put_u16_le(r.flow);
    buf.put_u16_le(r.occupancy_pm);
}

/// Decodes one raw record from exactly [`RECORD_SIZE`] bytes.
#[inline]
pub fn decode_raw(mut buf: &[u8]) -> RawRecord {
    debug_assert_eq!(buf.len(), RECORD_SIZE);
    RawRecord {
        sensor: SensorId::new(buf.get_u32_le()),
        window: TimeWindow::new(buf.get_u32_le()),
        speed_mph: buf.get_f32_le(),
        flow: buf.get_u16_le(),
        occupancy_pm: buf.get_u16_le(),
    }
}

/// Encodes one atypical record (16 bytes) into `buf`.
#[inline]
pub fn encode_atypical(r: &AtypicalRecord, buf: &mut Vec<u8>) {
    buf.put_u32_le(r.sensor.raw());
    buf.put_u32_le(r.window.raw());
    buf.put_u64_le(r.severity.as_secs());
}

/// Decodes one atypical record from exactly [`RECORD_SIZE`] bytes.
#[inline]
pub fn decode_atypical(mut buf: &[u8]) -> AtypicalRecord {
    debug_assert_eq!(buf.len(), RECORD_SIZE);
    AtypicalRecord {
        sensor: SensorId::new(buf.get_u32_le()),
        window: TimeWindow::new(buf.get_u32_le()),
        severity: Severity::from_secs(buf.get_u64_le()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn header_roundtrip() {
        for kind in [RecordKind::Raw, RecordKind::Atypical] {
            let mut buf = Vec::new();
            encode_header(kind, &mut buf);
            assert_eq!(buf.len(), HEADER_SIZE);
            assert_eq!(decode_header(&buf, Path::new("p.cps")).unwrap(), kind);
        }
    }

    #[test]
    fn header_rejects_garbage() {
        let path = Path::new("p.cps");
        assert!(decode_header(&[0u8; 4], path).is_err());
        let mut buf = Vec::new();
        encode_header(RecordKind::Raw, &mut buf);
        buf[0] = b'X';
        assert!(decode_header(&buf, path).is_err());
    }

    proptest! {
        #[test]
        fn prop_raw_roundtrip(sensor in 0u32..1_000_000, window in 0u32..10_000_000,
                              speed in 0.0f32..120.0, flow in 0u16..5000, occ in 0u16..1000) {
            let r = RawRecord::new(SensorId::new(sensor), TimeWindow::new(window), speed, flow, occ);
            let mut buf = Vec::new();
            encode_raw(&r, &mut buf);
            prop_assert_eq!(buf.len(), RECORD_SIZE);
            prop_assert_eq!(decode_raw(&buf), r);
        }

        #[test]
        fn prop_atypical_roundtrip(sensor in 0u32..1_000_000, window in 0u32..10_000_000, secs in 0u64..100_000) {
            let r = AtypicalRecord::new(
                SensorId::new(sensor),
                TimeWindow::new(window),
                Severity::from_secs(secs),
            );
            let mut buf = Vec::new();
            encode_atypical(&r, &mut buf);
            prop_assert_eq!(buf.len(), RECORD_SIZE);
            prop_assert_eq!(decode_atypical(&buf), r);
        }
    }
}
