//! # cps-storage
//!
//! Disk substrate for the atypical-cps workspace. The paper's evaluation
//! runs over twelve monthly PeMS datasets (54 GB total); the construction
//! experiments (Figures 15/16) are dominated by how the raw and atypical
//! record streams are scanned, so the storage layer is built for exactly
//! that access pattern:
//!
//! * [`mod@format`] — fixed-width binary record encodings inside CRC-checked
//!   blocks (corruption is detected, not silently propagated),
//! * [`writer`] / [`reader`] — streaming per-day partition files,
//! * [`store`] — the dataset directory layout (`D1/…/D12`, one raw and one
//!   atypical partition per day) plus a JSON catalog,
//! * [`iostats`] — shared atomic I/O counters; the paper reports query I/O
//!   as *number of input clusters* and construction cost as scan volume, so
//!   every read path is accounted,
//! * [`segment`] — columnar, zone-mapped segment containers with per-chunk
//!   CRCs and predicate pushdown; the cold path skips whole chunks and
//!   segments without decoding them,
//! * [`io`] — the pluggable I/O backend every durable byte flows through;
//!   `cps-testkit` swaps in a deterministic fault-injecting backend here,
//! * [`retry`] — budgeted exponential-backoff retry of transient I/O
//!   faults, wrappable around any backend (graceful degradation),
//! * [`wal`] — a CRC-framed, segment-rotated append log with clean-prefix
//!   crash recovery; the monitor journals accepted records through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod crc;
pub mod format;
pub mod io;
pub mod iostats;
pub mod reader;
pub mod retry;
pub mod segment;
pub mod store;
pub mod wal;
pub mod writer;

pub use io::{Io, IoBackend, IoRead, IoWrite};
pub use iostats::{IoSnapshot, IoStats};
pub use reader::PartitionReader;
pub use retry::{is_transient, RetryIo, RetryPolicy, RetryStats};
pub use segment::{Predicate, SegmentMeta, SegmentScan, SegmentWriter, ZoneMap};
pub use store::{DatasetCatalog, DatasetMeta, DatasetStore};
pub use wal::{SyncPolicy, WalSegment, WalWriter};
pub use writer::PartitionWriter;
