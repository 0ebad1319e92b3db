//! The batched-ingest differential matrix: for seeded feeds (uniform and
//! hot-region-skewed) × batch sizes {1, 7, 64, 256} (every size leaving
//! an odd tail chunk) × shard counts {1, 4}, feeding the records through
//! [`MonitorService::ingest_batch`] must not depend on how the feed is
//! cut into batches:
//!
//! - every cell: the micro-cluster multiset equals that of one in-order
//!   [`OnlineExtractor`] over the same feed — the reference that shares
//!   no code with the service's routing, flush, or merger;
//! - one shard: bit-identical final state across batch sizes, one record
//!   per call (`ingest`) included — live micro-clusters with their IDs
//!   and finalization order, the macro fixpoint set, and the forest
//!   snapshot's day level;
//! - four shards: canonical equality only (merger arrival order is
//!   scheduling-dependent by design);
//! - always: conserved metrics — every record fed is either ingested or
//!   counted dropped.
//!
//! A WAL + restart cell closes the loop: a batched run interrupted by a
//! clean shutdown, recovered, and resumed batched equals the
//! uninterrupted run bit-identically.

use atypical::online::OnlineExtractor;
use atypical::AtypicalCluster;
use cps_core::{AtypicalRecord, Params, RecordBatch, ScratchDir, WindowSpec};
use cps_geo::RoadNetwork;
use cps_monitor::{DurabilityConfig, FsyncPolicy, MonitorConfig, MonitorService, OverflowPolicy};
use cps_sim::{Scale, SimConfig, TrafficSim};
use cps_testkit::{canonicalize, Canonical};
use std::path::Path;
use std::sync::{Arc, OnceLock};

const BATCH_SIZES: [usize; 4] = [1, 7, 64, 256];

struct Feed {
    name: &'static str,
    network: Arc<RoadNetwork>,
    records: Vec<AtypicalRecord>,
    params: Params,
    spec: WindowSpec,
}

fn feeds() -> &'static [Feed; 2] {
    static FEEDS: OnceLock<[Feed; 2]> = OnceLock::new();
    FEEDS.get_or_init(|| {
        let build = |name: &'static str, config: SimConfig| {
            let sim = TrafficSim::new(config);
            let mut records = sim.atypical_day(0);
            records.sort_by_key(|r| (r.window, r.sensor));
            assert!(!records.is_empty(), "{name} feed generated no records");
            Feed {
                name,
                network: Arc::new(sim.network().clone()),
                records,
                params: Params::paper_defaults(),
                spec: sim.config().spec,
            }
        };
        [
            build("uniform", SimConfig::new(Scale::Tiny, 11)),
            build(
                "hot-region",
                SimConfig::new(Scale::Tiny, 11).with_hot_region(0.2, 0.8),
            ),
        ]
    })
}

fn config(feed: &Feed, shards: usize) -> MonitorConfig {
    MonitorConfig {
        shards,
        params: feed.params,
        spec: feed.spec,
        overflow: OverflowPolicy::Block,
        ..MonitorConfig::default()
    }
}

/// The full state the matrix compares: live micro-clusters (IDs included)
/// in finalization order, the live macro fixpoint set, and the forest
/// snapshot's day level.
type Fingerprint = (
    Vec<AtypicalCluster>,
    Vec<AtypicalCluster>,
    Vec<AtypicalCluster>,
);

/// The reference every cell is held to: the feed through one in-order
/// extractor, in canonical (order- and ID-free) form.
fn reference(feed: &Feed) -> Vec<Canonical> {
    let mut extractor = OnlineExtractor::new(&feed.network, feed.params, feed.spec);
    for &record in &feed.records {
        extractor.push(record).expect("feed is window-monotone");
    }
    canonicalize(&extractor.finish())
}

fn fingerprint(service: MonitorService) -> Fingerprint {
    let handle = service.handle();
    service.finish();
    let forest_day = handle
        .forest_snapshot(0, 1)
        .expect("forest snapshot")
        .day(0)
        .to_vec();
    let view = handle.read_view();
    (
        view.live_micro_clusters(),
        view.live_macro_clusters().to_vec(),
        forest_day,
    )
}

/// One record per `ingest` call: the batch-of-one end of the sweep.
fn oracle_run(feed: &Feed, shards: usize) -> Fingerprint {
    let cfg = config(feed, shards);
    let mut service = MonitorService::start(&cfg, feed.network.clone()).expect("service starts");
    for &record in &feed.records {
        assert!(service.ingest(record).expect("feed is window-monotone"));
    }
    fingerprint(service)
}

/// Chunks the feed into `batch_size` batches (the last chunk is the odd
/// tail) and feeds them through `ingest_batch`.
fn batched_run(feed: &Feed, shards: usize, batch_size: usize) -> Fingerprint {
    let cfg = config(feed, shards);
    let mut service = MonitorService::start(&cfg, feed.network.clone()).expect("service starts");
    let mut fed = 0u64;
    for chunk in feed.records.chunks(batch_size) {
        let batch = RecordBatch::from_records(chunk);
        let accepted = service
            .ingest_batch(&batch)
            .expect("feed is window-monotone");
        assert_eq!(
            accepted,
            chunk.len() as u64,
            "Block policy accepts every record"
        );
        fed += accepted;
    }
    let handle = service.handle();
    let metrics = handle.metrics();
    // Conserved totals: every fed record is ingested or counted dropped.
    assert_eq!(fed, feed.records.len() as u64);
    assert_eq!(
        metrics.records_ingested + metrics.records_dropped,
        feed.records.len() as u64,
        "{}: records leaked",
        feed.name
    );
    assert_eq!(metrics.records_dropped, 0, "Block policy never drops");
    assert!(metrics.batches_ingested > 0, "{}", feed.name);
    fingerprint(service)
}

/// The sizes leave odd tails on both feeds — otherwise the tail-chunk
/// branch of the matrix is silently untested.
#[test]
fn batch_sizes_exercise_odd_tails() {
    for feed in feeds() {
        let with_tail = BATCH_SIZES
            .iter()
            .filter(|&&b| b > 1 && feed.records.len() % b != 0)
            .count();
        assert!(
            with_tail >= 2,
            "{}: feed length {} leaves too few odd tails",
            feed.name,
            feed.records.len()
        );
    }
}

/// One shard: every cell of the feed × batch-size matrix is bit-identical
/// to one record per call — cluster IDs, finalization order, forest
/// snapshot — and that state is the single extractor's.
#[test]
fn batched_ingest_is_bit_identical_to_oracle_one_shard() {
    for feed in feeds() {
        let oracle = oracle_run(feed, 1);
        assert_eq!(
            canonicalize(&oracle.0),
            reference(feed),
            "{}: diverged from the single extractor",
            feed.name
        );
        for &batch_size in &BATCH_SIZES {
            let batched = batched_run(feed, 1, batch_size);
            assert_eq!(
                batched, oracle,
                "{} × batch {batch_size}: diverged from one record per call",
                feed.name
            );
        }
    }
}

/// Four shards: merger arrival order varies, so the matrix compares the
/// canonical micro-cluster multiset (the same relaxation the crash sweeps
/// use) — every cell against the single extractor.
#[test]
fn batched_ingest_is_canonically_equal_four_shards() {
    for feed in feeds() {
        let reference = reference(feed);
        assert_eq!(
            canonicalize(&oracle_run(feed, 4).0),
            reference,
            "{}: one record per call diverged from the single extractor",
            feed.name
        );
        for &batch_size in &BATCH_SIZES {
            let batched = canonicalize(&batched_run(feed, 4, batch_size).0);
            assert_eq!(
                batched, reference,
                "{} × batch {batch_size}: micro-cluster multiset diverged",
                feed.name
            );
        }
    }
}

fn wal_config(feed: &Feed, wal_dir: &Path) -> MonitorConfig {
    let mut cfg = config(feed, 1);
    cfg.durability = DurabilityConfig {
        wal_dir: Some(wal_dir.to_path_buf()),
        fsync: FsyncPolicy::Group,
        group_commit_records: 4,
        checkpoint_interval_records: 40,
        respawn_budget: 0,
        segment_bytes: 2048,
        ..DurabilityConfig::default()
    };
    cfg
}

/// WAL + restart cell: a batched run cut off by a clean shutdown
/// mid-feed, recovered (replaying batch frames), and resumed *batched*
/// from `resume_from` equals the uninterrupted run bit-identically (and
/// with it the single extractor) — and the resume point lands mid-feed,
/// so the replayed suffix really contained batch frames.
#[test]
fn batched_wal_restart_resumes_bit_identically() {
    let feed = &feeds()[1]; // hot-region: the skewed feed
    let wal_dir = ScratchDir::new("batch-restart");
    let cfg = wal_config(feed, &wal_dir);

    let half = feed.records.len() / 2;
    let mut first = MonitorService::start(&cfg, feed.network.clone()).expect("service starts");
    for chunk in feed.records[..half].chunks(64) {
        first
            .ingest_batch(&RecordBatch::from_records(chunk))
            .expect("prefix feed accepted");
    }
    first.finish();

    let (mut second, report) =
        MonitorService::recover(&cfg, feed.network.clone()).expect("recovery succeeds");
    assert_eq!(
        report.resume_from as usize, half,
        "a clean shutdown's WAL covers exactly the fed prefix"
    );
    for chunk in feed.records[half..].chunks(64) {
        second
            .ingest_batch(&RecordBatch::from_records(chunk))
            .expect("resumed feed accepted");
    }
    let resumed = fingerprint(second);
    assert_eq!(
        resumed,
        oracle_run(feed, 1),
        "batched restart diverged from the uninterrupted run"
    );
    assert_eq!(canonicalize(&resumed.0), reference(feed));
}
