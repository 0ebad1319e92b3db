//! Streaming partition reader with CRC verification and I/O accounting.

use crate::crc::crc32;
use crate::format::{
    decode_atypical, decode_header, decode_raw, RecordKind, BLOCK_HEADER_SIZE, HEADER_SIZE,
    RECORD_SIZE,
};
use crate::io::{Io, IoRead};
use crate::iostats::IoStats;
use bytes::Buf;
use cps_core::{AtypicalRecord, CpsError, RawRecord, Result};
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Reads one partition file sequentially.
pub struct PartitionReader {
    input: BufReader<Box<dyn IoRead>>,
    kind: RecordKind,
    path: PathBuf,
    stats: Arc<IoStats>,
}

impl PartitionReader {
    /// Opens a partition, validating its header.
    pub fn open(path: &Path, stats: Arc<IoStats>) -> Result<Self> {
        Self::open_with(path, stats, &Io::real())
    }

    /// Opens a partition through an explicit [`Io`] backend.
    pub fn open_with(path: &Path, stats: Arc<IoStats>, io: &Io) -> Result<Self> {
        let file = io.open(path)?;
        let mut input = BufReader::with_capacity(1 << 20, file);
        let mut header = [0u8; HEADER_SIZE];
        input.read_exact(&mut header)?;
        let kind = decode_header(&header, path)?;
        stats.add_file();
        stats.add_bytes(HEADER_SIZE as u64);
        Ok(Self {
            input,
            kind,
            path: path.to_owned(),
            stats,
        })
    }

    /// The record kind stored in this partition.
    pub fn kind(&self) -> RecordKind {
        self.kind
    }

    /// Iterates raw records.
    ///
    /// # Panics
    /// Panics if the partition stores atypical records.
    pub fn raw_records(self) -> impl Iterator<Item = Result<RawRecord>> {
        assert_eq!(self.kind, RecordKind::Raw, "not a raw partition");
        RecordIter::new(self).map(|res| res.map(|bytes| decode_raw(&bytes)))
    }

    /// Iterates atypical records.
    ///
    /// # Panics
    /// Panics if the partition stores raw records.
    pub fn atypical_records(self) -> impl Iterator<Item = Result<AtypicalRecord>> {
        assert_eq!(self.kind, RecordKind::Atypical, "not an atypical partition");
        RecordIter::new(self).map(|res| res.map(|bytes| decode_atypical(&bytes)))
    }
}

/// Block-at-a-time record iterator.
struct RecordIter {
    reader: PartitionReader,
    block: Vec<u8>,
    offset: usize,
    done: bool,
}

impl RecordIter {
    fn new(reader: PartitionReader) -> Self {
        Self {
            reader,
            block: Vec::new(),
            offset: 0,
            done: false,
        }
    }

    fn read_next_block(&mut self) -> Result<bool> {
        let mut header = [0u8; BLOCK_HEADER_SIZE];
        match self.reader.input.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(false),
            Err(e) => return Err(e.into()),
        }
        let mut h = &header[..];
        let count = h.get_u32_le() as usize;
        let expected_crc = h.get_u32_le();
        if count == 0 {
            return Err(CpsError::corrupt(
                self.reader.path.display().to_string(),
                "zero-record block",
            ));
        }
        let payload_len = count * RECORD_SIZE;
        self.block.resize(payload_len, 0);
        self.reader.input.read_exact(&mut self.block)?;
        if crc32(&self.block) != expected_crc {
            return Err(CpsError::corrupt(
                self.reader.path.display().to_string(),
                "block checksum mismatch",
            ));
        }
        self.reader.stats.add_block();
        self.reader
            .stats
            .add_bytes((BLOCK_HEADER_SIZE + payload_len) as u64);
        self.offset = 0;
        Ok(true)
    }
}

impl Iterator for RecordIter {
    type Item = Result<[u8; RECORD_SIZE]>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.offset >= self.block.len() {
            match self.read_next_block() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        let mut rec = [0u8; RECORD_SIZE];
        rec.copy_from_slice(&self.block[self.offset..self.offset + RECORD_SIZE]);
        self.offset += RECORD_SIZE;
        self.reader.stats.add_records(1);
        Some(Ok(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::PartitionWriter;
    use cps_core::ScratchDir;
    use cps_core::{SensorId, Severity, TimeWindow};
    use std::io::{Seek, SeekFrom, Write};

    fn write_partition(path: &Path, n: usize) {
        let mut w = PartitionWriter::create(path, RecordKind::Atypical).unwrap();
        for i in 0..n {
            w.write_atypical(&AtypicalRecord::new(
                SensorId::new(i as u32),
                TimeWindow::new(i as u32),
                Severity::from_secs(60),
            ))
            .unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn corrupted_block_is_detected() {
        let dir = ScratchDir::new("reader");
        let path = dir.join("corrupt.cps");
        write_partition(&path, 100);
        // Flip one payload byte after the header + block header.
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        f.seek(SeekFrom::Start(
            (HEADER_SIZE + BLOCK_HEADER_SIZE + 5) as u64,
        ))
        .unwrap();
        f.write_all(&[0xFF]).unwrap();
        drop(f);

        let reader = PartitionReader::open(&path, IoStats::shared()).unwrap();
        let results: Vec<_> = reader.atypical_records().collect();
        assert!(results.iter().any(|r| r.is_err()));
        let err = results.into_iter().find_map(|r| r.err()).unwrap();
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn truncated_file_stops_cleanly_after_last_full_block() {
        let dir = ScratchDir::new("reader");
        let path = dir.join("truncated.cps");
        write_partition(&path, 100);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 7).unwrap(); // cut into the payload
        drop(f);
        let reader = PartitionReader::open(&path, IoStats::shared()).unwrap();
        // The single (partial) block can no longer be fully read: we expect
        // an I/O error rather than silently decoding garbage.
        let results: Vec<_> = reader.atypical_records().collect();
        assert!(results.iter().any(|r| r.is_err()));
    }

    #[test]
    fn iterator_stops_after_error() {
        let dir = ScratchDir::new("reader");
        let path = dir.join("stops.cps");
        write_partition(&path, 100);
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start((HEADER_SIZE + BLOCK_HEADER_SIZE) as u64))
            .unwrap();
        f.write_all(&[0xAA]).unwrap();
        drop(f);
        let reader = PartitionReader::open(&path, IoStats::shared()).unwrap();
        let mut it = reader.atypical_records();
        assert!(it.next().unwrap().is_err());
        assert!(it.next().is_none(), "iterator must fuse after an error");
    }

    #[test]
    fn open_missing_file_errors() {
        let dir = ScratchDir::new("reader");
        let err = PartitionReader::open(&dir.join("missing.cps"), IoStats::shared());
        assert!(err.is_err());
    }
}
