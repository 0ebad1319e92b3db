//! One version rule for every persistent format: the partition file
//! (`CPSD`), the forest store's cluster segment (`CSG1`), a WAL segment
//! (`CPSW`) and the monitor checkpoint (`CPSC`). Each has one writer
//! version and one reader; a file whose version word is one ahead is a
//! typed `VersionMismatch` that names the file and both versions — never
//! a misread, never a panic — through every reader entry point, and
//! `MonitorService::recover` surfaces it as an error naming the file.

use atypical::store::{ForestLevel, ForestStore};
use cps_core::{
    AtypicalRecord, CpsError, Params, RecordBatch, Result, SensorId, Severity, TimeWindow,
};
use cps_monitor::durability::{
    checkpoint_path, encode_entry, load_checkpoint, shard_wal_dir, write_checkpoint, CheckpointDoc,
    WalOp, CKPT_VERSION,
};
use cps_monitor::{DurabilityConfig, FsyncPolicy, MonitorConfig, MonitorService};
use cps_storage::format::{RecordKind, FORMAT_VERSION};
use cps_storage::segment::SEGMENT_VERSION;
use cps_storage::wal::{list_segments, read_wal, segment_path, WAL_VERSION};
use cps_storage::{
    Io, IoStats, PartitionReader, PartitionWriter, Predicate, SyncPolicy, WalWriter,
};
use cps_testkit::fixtures::{random_clusters, temp_dir, tiny_day};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One persistent format: its version, a writer that leaves one valid
/// file under a directory (returning its path), and every reader entry
/// point over that file.
struct Format {
    name: &'static str,
    version: u32,
    write: fn(&Path) -> PathBuf,
    read: fn(&Path) -> Vec<Result<()>>,
}

/// Every format starts `magic [u8; 4] | version u32 (LE)`.
const VERSION_WORD: std::ops::Range<usize> = 4..8;

const FORMATS: [Format; 4] = [
    Format {
        name: "partition",
        version: FORMAT_VERSION,
        write: write_partition,
        read: read_partition,
    },
    Format {
        name: "cluster-segment",
        version: SEGMENT_VERSION,
        write: write_cluster_segment,
        read: read_cluster_segment,
    },
    Format {
        name: "wal-segment",
        version: WAL_VERSION,
        write: write_wal_segment,
        read: read_wal_segment,
    },
    Format {
        name: "checkpoint",
        version: CKPT_VERSION,
        write: write_ckpt,
        read: read_ckpt,
    },
];

fn write_partition(dir: &Path) -> PathBuf {
    let path = dir.join("day-00000.cps");
    let mut w = PartitionWriter::create(&path, RecordKind::Atypical).expect("partition opens");
    for s in 0..3 {
        let r = AtypicalRecord::new(
            SensorId::new(s),
            TimeWindow::new(7),
            Severity::from_secs(60),
        );
        w.write_atypical(&r).expect("record written");
    }
    w.finish().expect("partition finishes");
    path
}

fn read_partition(path: &Path) -> Vec<Result<()>> {
    vec![PartitionReader::open(path, IoStats::shared()).map(drop)]
}

fn write_cluster_segment(dir: &Path) -> PathBuf {
    let store = ForestStore::open(dir).expect("store opens");
    store
        .save(ForestLevel::Day, 0, &random_clusters(0x7E5, 9, 4))
        .expect("bucket saved");
    store.bucket_path(ForestLevel::Day, 0)
}

/// The store is the only way into a cluster segment: a plain and a
/// filtered load (the filter refutes every chunk, so only the header and
/// the zone-map directory are read).
fn read_cluster_segment(path: &Path) -> Vec<Result<()>> {
    let root = path.parent().and_then(Path::parent).expect("store root");
    let store = ForestStore::open(root).expect("store opens");
    let refute_all = Predicate::all().with_sensors([SensorId::new(u32::MAX)]);
    vec![
        store.load(ForestLevel::Day, 0).map(drop),
        store
            .load_filtered(ForestLevel::Day, 0, &refute_all)
            .map(drop),
    ]
}

fn write_wal_segment(dir: &Path) -> PathBuf {
    let mut wal = WalWriter::open(Io::real(), dir, SyncPolicy::Never, 1 << 20).expect("WAL opens");
    wal.append(&encode_entry(1, &WalOp::Advance(TimeWindow::new(3))))
        .expect("entry appended");
    drop(wal);
    let seqs = list_segments(dir).expect("WAL lists");
    segment_path(dir, seqs[0])
}

fn read_wal_segment(path: &Path) -> Vec<Result<()>> {
    let dir = path.parent().expect("WAL dir");
    vec![read_wal(&Io::real(), dir).map(drop)]
}

fn write_ckpt(dir: &Path) -> PathBuf {
    write_checkpoint(&Io::real(), dir, &CheckpointDoc::default()).expect("checkpoint written");
    checkpoint_path(dir)
}

fn read_ckpt(path: &Path) -> Vec<Result<()>> {
    let wal_dir = path.parent().expect("wal dir");
    vec![load_checkpoint(&Io::real(), wal_dir).map(drop)]
}

/// Rewrites `path`'s version word to `version`.
fn set_version(path: &Path, version: u32) {
    let mut raw = std::fs::read(path).expect("file reads");
    raw[VERSION_WORD].copy_from_slice(&version.to_le_bytes());
    std::fs::write(path, raw).expect("file rewritten");
}

#[test]
fn a_future_version_is_a_typed_mismatch_naming_the_file() {
    for format in &FORMATS {
        let name = format.name;
        let dir = temp_dir(name);
        let path = (format.write)(&dir);
        let raw = std::fs::read(&path).expect("file reads");
        assert_eq!(
            u32::from_le_bytes(raw[VERSION_WORD].try_into().unwrap()),
            format.version,
            "{name}: the version word follows the magic"
        );
        for result in (format.read)(&path) {
            result.unwrap_or_else(|e| panic!("{name}: clean file fails: {e}"));
        }

        let (found, expected) = (format.version + 1, format.version);
        set_version(&path, found);
        let context = path.display().to_string();
        for result in (format.read)(&path) {
            let err = match result {
                Err(err) => err,
                Ok(()) => panic!("{name}: v{found} read as v{expected}"),
            };
            let shown = err.to_string();
            match err {
                CpsError::VersionMismatch {
                    context: c,
                    found: f,
                    expected: e,
                } => assert_eq!((c, f, e), (context.clone(), found, expected), "{name}"),
                other => panic!("{name}: not a version mismatch: {other:?}"),
            }
            assert_eq!(
                shown,
                format!(
                    "format version mismatch in {context}: found v{found}, expected v{expected}"
                )
            );
        }
    }
}

/// A real one-shard `wal_dir` with a checkpoint and a WAL suffix past it.
fn durable_run(wal_dir: &Path) -> (MonitorConfig, Arc<cps_geo::RoadNetwork>) {
    let (sim, mut records) = tiny_day(5);
    records.truncate(300);
    let network = Arc::new(sim.network().clone());
    let config = MonitorConfig {
        shards: 1,
        params: Params::paper_defaults(),
        spec: sim.config().spec,
        durability: DurabilityConfig {
            wal_dir: Some(wal_dir.to_path_buf()),
            fsync: FsyncPolicy::Never,
            checkpoint_interval_records: 100,
            ..DurabilityConfig::default()
        },
        ..MonitorConfig::default()
    };
    let mut service = MonitorService::start(&config, network.clone()).expect("service starts");
    service
        .ingest_batch(&RecordBatch::from_records(&records))
        .expect("feed accepted");
    service.finish();
    assert!(
        checkpoint_path(wal_dir).exists(),
        "the feed must checkpoint"
    );
    (config, network)
}

#[test]
fn recover_over_a_future_version_names_the_file() {
    let wal_dir = temp_dir("version-recover");
    let (config, network) = durable_run(&wal_dir);
    let shard_dir = shard_wal_dir(&wal_dir, 0);
    let newest = *list_segments(&shard_dir)
        .expect("WAL lists")
        .last()
        .expect("a WAL segment");
    for (path, version) in [
        (segment_path(&shard_dir, newest), WAL_VERSION),
        (checkpoint_path(&wal_dir), CKPT_VERSION),
    ] {
        let clean = std::fs::read(&path).expect("file reads");
        set_version(&path, version + 1);
        match MonitorService::recover(&config, network.clone()) {
            Err(msg) => {
                let want = format!(
                    "format version mismatch in {}: found v{}, expected v{version}",
                    path.display(),
                    version + 1
                );
                assert!(msg.contains(&want), "{msg}");
            }
            Ok(_) => panic!("{} recovered at a future version", path.display()),
        }
        std::fs::write(&path, clean).expect("file restored");
    }
    let (service, report) =
        MonitorService::recover(&config, network).expect("restored dir recovers");
    assert!(report.had_checkpoint);
    service.finish();
}
