//! Fault injection through `PartitionWriter` / `PartitionReader`: EIO,
//! torn block writes, and latency at every operation of a multi-block
//! partition write, plus read-side errors. The invariant under any write
//! fault: reopening the file yields records that are a *clean prefix* of
//! the intended sequence, or a typed error — never silently wrong data.

use cps_core::{AtypicalRecord, SensorId, Severity, TimeWindow};
use cps_storage::format::{RecordKind, RECORDS_PER_BLOCK};
use cps_storage::{IoStats, PartitionReader, PartitionWriter};
use cps_testkit::fixtures::temp_dir;
use cps_testkit::{FaultIo, FaultKind, FaultPlan, OpKind};
use std::path::Path;

/// Two full blocks plus a partial trailer — block boundaries included.
fn records() -> Vec<AtypicalRecord> {
    (0..RECORDS_PER_BLOCK * 2 + 37)
        .map(|i| {
            AtypicalRecord::new(
                SensorId::new(i as u32),
                TimeWindow::new((i / 8) as u32),
                Severity::from_secs(30 + (i % 900) as u64),
            )
        })
        .collect()
}

fn write_workload(
    io: &cps_storage::Io,
    path: &Path,
    records: &[AtypicalRecord],
) -> cps_core::Result<u64> {
    let mut writer = PartitionWriter::create_with(path, RecordKind::Atypical, io)?;
    for r in records {
        writer.write_atypical(r)?;
    }
    writer.finish()
}

/// Reads back whatever survived; every successfully decoded record must
/// extend a clean prefix of `clean`.
fn assert_clean_prefix(path: &Path, clean: &[AtypicalRecord], context: &str) -> usize {
    let reader = match PartitionReader::open(path, IoStats::shared()) {
        Ok(reader) => reader,
        Err(_) => return 0, // typed failure at open — acceptable
    };
    let mut got = Vec::new();
    let mut failed = false;
    for item in reader.atypical_records() {
        match item {
            Ok(record) => got.push(record),
            Err(_) => {
                failed = true;
                break;
            }
        }
    }
    assert!(
        got.len() <= clean.len(),
        "{context}: read more records than were written"
    );
    assert_eq!(
        &got[..],
        &clean[..got.len()],
        "{context}: recovered records are not a clean prefix"
    );
    if !failed && got.len() < clean.len() {
        // A silently short read is fine only at block granularity: the
        // file simply ends after the last complete block.
        assert_eq!(
            got.len() % RECORDS_PER_BLOCK,
            0,
            "{context}: silent truncation inside a block"
        );
    }
    got.len()
}

#[test]
fn eio_at_every_op_leaves_a_readable_prefix() {
    let records = records();
    let dir = temp_dir("partition-eio");

    let recording = FaultIo::new();
    let clean_path = dir.join("clean.cps");
    write_workload(&recording.io(), &clean_path, &records).expect("clean write");
    let total_ops = recording.op_count();
    assert!(total_ops >= 8, "expected multi-block op sequence");

    for at_op in 0..total_ops {
        let path = dir.join(format!("eio-{at_op}.cps"));
        let fault = FaultIo::with_plan(FaultPlan {
            at_op,
            kind: FaultKind::Error,
        });
        write_workload(&fault.io(), &path, &records)
            .expect_err("an injected EIO must surface to the writer");
        if path.exists() {
            assert_clean_prefix(&path, &records, &format!("EIO at op {at_op}"));
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn torn_block_writes_never_yield_wrong_records() {
    let records = records();
    let dir = temp_dir("partition-torn");

    let recording = FaultIo::new();
    write_workload(&recording.io(), &dir.join("clean.cps"), &records).expect("clean write");
    let writes: Vec<(u64, usize)> = recording
        .ops()
        .iter()
        .filter_map(|op| match op.op {
            OpKind::Write { len } => Some((op.index, len)),
            _ => None,
        })
        .collect();

    for &(at_op, len) in &writes {
        // Block payloads are tens of KB; tearing at every byte is the
        // ForestStore sweep's job. Here every *write op* is torn at a set
        // of structurally interesting offsets (empty, header-splitting,
        // mid-payload, one-short).
        let keeps = [0usize, 1, 3, 7, len / 2, len.saturating_sub(1)];
        for &keep in keeps.iter().filter(|&&k| k < len) {
            let path = dir.join(format!("torn-{at_op}-{keep}.cps"));
            let fault = FaultIo::with_plan(FaultPlan {
                at_op,
                kind: FaultKind::Torn { keep },
            });
            write_workload(&fault.io(), &path, &records)
                .expect_err("a torn write must surface to the writer");
            fault.simulate_crash().expect("materialize crash state");
            if path.exists() {
                assert_clean_prefix(&path, &records, &format!("op {at_op} torn at {keep}"));
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn latency_is_not_a_failure() {
    let records = records();
    let dir = temp_dir("partition-latency");
    let path = dir.join("slow.cps");
    let fault = FaultIo::with_plan(FaultPlan {
        at_op: 3,
        kind: FaultKind::Latency { millis: 25 },
    });
    let started = std::time::Instant::now();
    let n = write_workload(&fault.io(), &path, &records).expect("latency only delays");
    assert!(started.elapsed() >= std::time::Duration::from_millis(25));
    assert_eq!(n, records.len() as u64);
    let got = assert_clean_prefix(&path, &records, "latency");
    assert_eq!(got, records.len(), "all records survive a slow write");
}

#[test]
fn read_side_eio_at_every_op_is_surfaced() {
    let records = records();
    let dir = temp_dir("partition-read-eio");
    let path = dir.join("data.cps");
    write_workload(&FaultIo::new().io(), &path, &records).expect("clean write");

    // Record the clean read's op sequence.
    let recording = FaultIo::new();
    {
        let reader =
            PartitionReader::open_with(&path, IoStats::shared(), &recording.io()).expect("open");
        assert_eq!(
            reader.atypical_records().filter(|r| r.is_ok()).count(),
            records.len()
        );
    }
    let read_ops = recording.op_count();
    assert!(read_ops >= 2, "open + at least one read");

    for at_op in 0..read_ops {
        let fault = FaultIo::with_plan(FaultPlan {
            at_op,
            kind: FaultKind::Error,
        });
        match PartitionReader::open_with(&path, IoStats::shared(), &fault.io()) {
            Err(_) => {} // fault fired during open
            Ok(reader) => {
                let mut got = Vec::new();
                let mut saw_error = false;
                for item in reader.atypical_records() {
                    match item {
                        Ok(record) => got.push(record),
                        Err(_) => {
                            saw_error = true;
                            break;
                        }
                    }
                }
                assert_eq!(&got[..], &records[..got.len()], "EIO read at op {at_op}");
                assert!(
                    saw_error || got.len() == records.len(),
                    "EIO at op {at_op} vanished: {} records, no error",
                    got.len()
                );
            }
        }
    }
}
