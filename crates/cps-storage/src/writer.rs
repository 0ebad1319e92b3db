//! Streaming partition writer.

use crate::crc::crc32;
use crate::format::{
    encode_atypical, encode_header, encode_raw, RecordKind, RECORDS_PER_BLOCK, RECORD_SIZE,
};
use crate::io::{Io, IoWrite};
use bytes::BufMut;
use cps_core::{AtypicalRecord, RawRecord, Result};
use std::io::Write;
use std::path::Path;

/// Writes one partition file block by block.
///
/// Call [`PartitionWriter::finish`] to flush the trailing partial block;
/// dropping an unfinished writer loses at most the current block (the file
/// stays readable up to the last complete block).
pub struct PartitionWriter {
    out: Box<dyn IoWrite>,
    kind: RecordKind,
    block: Vec<u8>,
    block_records: usize,
    records_written: u64,
}

impl PartitionWriter {
    /// Creates (truncates) the partition at `path`.
    pub fn create(path: &Path, kind: RecordKind) -> Result<Self> {
        Self::create_with(path, kind, &Io::real())
    }

    /// Creates the partition through an explicit [`Io`] backend.
    ///
    /// Each block header and block payload is issued as one `write`, so a
    /// fault-injecting backend can fail or tear at exact block boundaries.
    pub fn create_with(path: &Path, kind: RecordKind, io: &Io) -> Result<Self> {
        if let Some(parent) = path.parent() {
            io.create_dir_all(parent)?;
        }
        let mut out = io.create(path)?;
        let mut header = Vec::with_capacity(crate::format::HEADER_SIZE);
        encode_header(kind, &mut header);
        out.write_all(&header)?;
        Ok(Self {
            out,
            kind,
            block: Vec::with_capacity(RECORDS_PER_BLOCK * RECORD_SIZE),
            block_records: 0,
            records_written: 0,
        })
    }

    /// Appends a raw record.
    ///
    /// # Panics
    /// Panics if the partition was created with [`RecordKind::Atypical`].
    pub fn write_raw(&mut self, r: &RawRecord) -> Result<()> {
        assert_eq!(self.kind, RecordKind::Raw, "raw record in atypical file");
        encode_raw(r, &mut self.block);
        self.bump()
    }

    /// Appends an atypical record.
    ///
    /// # Panics
    /// Panics if the partition was created with [`RecordKind::Raw`].
    pub fn write_atypical(&mut self, r: &AtypicalRecord) -> Result<()> {
        assert_eq!(
            self.kind,
            RecordKind::Atypical,
            "atypical record in raw file"
        );
        encode_atypical(r, &mut self.block);
        self.bump()
    }

    fn bump(&mut self) -> Result<()> {
        self.block_records += 1;
        self.records_written += 1;
        if self.block_records == RECORDS_PER_BLOCK {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.block_records == 0 {
            return Ok(());
        }
        let mut header = Vec::with_capacity(crate::format::BLOCK_HEADER_SIZE);
        header.put_u32_le(self.block_records as u32);
        header.put_u32_le(crc32(&self.block));
        self.out.write_all(&header)?;
        self.out.write_all(&self.block)?;
        self.block.clear();
        self.block_records = 0;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Flushes the trailing block and syncs the file.
    pub fn finish(mut self) -> Result<u64> {
        self.flush_block()?;
        self.out.flush()?;
        Ok(self.records_written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::PartitionReader;
    use crate::IoStats;
    use cps_core::ScratchDir;
    use cps_core::{SensorId, Severity, TimeWindow};

    #[test]
    fn write_read_roundtrip_across_blocks() {
        let dir = ScratchDir::new("writer");
        let path = dir.join("atyp.cps");
        let n = RECORDS_PER_BLOCK * 2 + 100; // two full blocks + a partial one
        let mut w = PartitionWriter::create(&path, RecordKind::Atypical).unwrap();
        for i in 0..n {
            w.write_atypical(&AtypicalRecord::new(
                SensorId::new(i as u32),
                TimeWindow::new((i * 3) as u32),
                Severity::from_secs(i as u64),
            ))
            .unwrap();
        }
        assert_eq!(w.finish().unwrap(), n as u64);

        let stats = IoStats::shared();
        let reader = PartitionReader::open(&path, stats.clone()).unwrap();
        let recs: Vec<AtypicalRecord> = reader.atypical_records().map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), n);
        assert_eq!(recs[0].sensor, SensorId::new(0));
        assert_eq!(recs[n - 1].severity, Severity::from_secs((n - 1) as u64));
        let snap = stats.snapshot();
        assert_eq!(snap.records_read, n as u64);
        assert_eq!(snap.blocks_read, 3);
        assert_eq!(snap.files_opened, 1);
    }

    #[test]
    fn empty_partition_is_valid() {
        let dir = ScratchDir::new("writer");
        let path = dir.join("empty.cps");
        let w = PartitionWriter::create(&path, RecordKind::Raw).unwrap();
        assert_eq!(w.finish().unwrap(), 0);
        let reader = PartitionReader::open(&path, IoStats::shared()).unwrap();
        assert_eq!(reader.raw_records().count(), 0);
    }

    mod proptests {
        use super::*;
        use cps_core::RawRecord;
        use proptest::prelude::*;

        fn arb_atypical() -> impl Strategy<Value = AtypicalRecord> {
            (0u32..100_000, 0u32..10_000_000, 0u64..100_000).prop_map(|(s, w, sev)| {
                AtypicalRecord::new(
                    SensorId::new(s),
                    TimeWindow::new(w),
                    Severity::from_secs(sev),
                )
            })
        }

        fn arb_raw() -> impl Strategy<Value = RawRecord> {
            (
                0u32..100_000,
                0u32..10_000_000,
                0.0f32..120.0,
                0u16..5000,
                0u16..1000,
            )
                .prop_map(|(s, w, speed, flow, occ)| {
                    RawRecord::new(SensorId::new(s), TimeWindow::new(w), speed, flow, occ)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(20))]

            /// Any atypical record sequence survives the full disk roundtrip
            /// byte-exactly, across block boundaries.
            #[test]
            fn prop_atypical_partition_roundtrip(
                records in prop::collection::vec(arb_atypical(), 0..600),
            ) {
                let dir = ScratchDir::new("writer");
                let path = dir.join(format!("prop-a-{}.cps", records.len()));
                let mut w = PartitionWriter::create(&path, RecordKind::Atypical).unwrap();
                for r in &records {
                    w.write_atypical(r).unwrap();
                }
                w.finish().unwrap();
                let reader = PartitionReader::open(&path, IoStats::shared()).unwrap();
                let back: Vec<AtypicalRecord> =
                    reader.atypical_records().map(|r| r.unwrap()).collect();
                prop_assert_eq!(back, records);
                let _ = std::fs::remove_file(&path);
            }

            /// Same for raw readings.
            #[test]
            fn prop_raw_partition_roundtrip(
                records in prop::collection::vec(arb_raw(), 0..600),
            ) {
                let dir = ScratchDir::new("writer");
                let path = dir.join(format!("prop-r-{}.cps", records.len()));
                let mut w = PartitionWriter::create(&path, RecordKind::Raw).unwrap();
                for r in &records {
                    w.write_raw(r).unwrap();
                }
                w.finish().unwrap();
                let reader = PartitionReader::open(&path, IoStats::shared()).unwrap();
                let back: Vec<RawRecord> = reader.raw_records().map(|r| r.unwrap()).collect();
                prop_assert_eq!(back, records);
                let _ = std::fs::remove_file(&path);
            }

            /// Flipping any single payload byte is always detected (CRC).
            #[test]
            fn prop_any_payload_corruption_detected(
                n in 1usize..200,
                flip in 0usize..100_000,
            ) {
                let dir = ScratchDir::new("writer");
                let path = dir.join(format!("prop-c-{n}-{flip}.cps"));
                let mut w = PartitionWriter::create(&path, RecordKind::Atypical).unwrap();
                for i in 0..n {
                    w.write_atypical(&AtypicalRecord::new(
                        SensorId::new(i as u32),
                        TimeWindow::new(i as u32),
                        Severity::from_secs(60),
                    ))
                    .unwrap();
                }
                w.finish().unwrap();
                let mut raw = std::fs::read(&path).unwrap();
                let payload_start = crate::format::HEADER_SIZE + crate::format::BLOCK_HEADER_SIZE;
                let pos = payload_start + flip % (raw.len() - payload_start);
                raw[pos] ^= 0x40;
                std::fs::write(&path, raw).unwrap();
                let reader = PartitionReader::open(&path, IoStats::shared()).unwrap();
                let results: Vec<_> = reader.atypical_records().collect();
                prop_assert!(results.iter().any(|r| r.is_err()));
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    #[test]
    #[should_panic(expected = "raw record in atypical file")]
    fn kind_mismatch_panics() {
        let dir = ScratchDir::new("writer");
        let path = dir.join("mismatch.cps");
        let mut w = PartitionWriter::create(&path, RecordKind::Atypical).unwrap();
        let _ = w.write_raw(&RawRecord::new(
            SensorId::new(0),
            TimeWindow::new(0),
            60.0,
            10,
            100,
        ));
    }
}
