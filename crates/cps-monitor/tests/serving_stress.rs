//! Seeded concurrent stress for the serving layer: reader threads race
//! live ingest, day sealing, and WAL checkpoints, and every snapshot they
//! pin must be internally consistent — never a torn epoch, never a
//! half-applied seal, exact severity conservation between the per-day `F`
//! vectors, the day buckets, and the macro fixpoint set.
//!
//! The invariants hold *within* any published snapshot because the merger
//! alone mutates the containers, between publications of pointer clones;
//! a reader that ever observed a mix of two publications would trip one
//! of them. Severity is integer seconds, so the conservation
//! checks are exact, not tolerance-based.

use cps_core::{ScratchDir, Severity};
use cps_geo::UniformGrid;
use cps_monitor::{
    DurabilityConfig, FsyncPolicy, MonitorConfig, MonitorHandle, MonitorService, OverflowPolicy,
    ReadView,
};
use cps_sim::{Scale, SimConfig, TrafficSim};
use cps_testkit::reference_guided;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const DAYS: u32 = 3;
const READERS: usize = 4;

fn total(f: &[Severity]) -> Severity {
    f.iter().fold(Severity::ZERO, |acc, &s| acc + s)
}

/// Checks one pinned view for internal consistency and returns its
/// `(epoch, seal_epoch)` for cross-pin monotonicity.
fn check_view(view: &ReadView) -> (u64, u64) {
    let snap = view.snapshot();

    // Seal bookkeeping is torn-publication bait: the persisted set, the
    // seal counter, and the day buckets all mutate together between two
    // publications, so any mix of two publications shows up here.
    assert_eq!(
        snap.seal_epoch,
        snap.persisted_days.len() as u64,
        "seal epoch must count the persisted days"
    );
    for day in snap.persisted_days.iter() {
        assert!(
            !snap.micros_by_day.contains_key(day),
            "day {day} is both sealed and live"
        );
        assert!(
            snap.region_f_by_day.contains_key(day),
            "sealed day {day} lost its F vector"
        );
        // A seal is published only after its store write, so a day the
        // view reports sealed is already on disk.
        let stored = view.micro_clusters_for_day(*day).expect("store read");
        assert!(!stored.is_empty(), "sealed day {day} is not in the store");
    }
    // The F vectors' keys are exactly the days with admitted clusters;
    // each is live or sealed, never neither.
    for day in snap.region_f_by_day.keys() {
        assert!(
            snap.micros_by_day.contains_key(day) || snap.persisted_days.contains(day),
            "day {day} has admitted clusters but is neither live nor sealed"
        );
    }

    // Exact severity conservation, live days: the day bucket's micros and
    // the day's F vector are fed from the same admissions.
    for (day, micros) in &snap.micros_by_day {
        let bucket: Severity = micros
            .iter()
            .fold(Severity::ZERO, |acc, c| acc + c.severity());
        let f = snap
            .region_f_by_day
            .get(day)
            .unwrap_or_else(|| panic!("live day {day} has no F vector"));
        assert_eq!(
            total(f),
            bucket,
            "day {day}: F vector disagrees with its bucket"
        );
    }

    // Exact severity conservation, global: macro merges sum spatial
    // features, so the fixpoint set holds exactly the severity ever
    // admitted — which is exactly what the F vectors accumulated
    // (they survive day sealing; the macro set is never evicted).
    let macros_total: Severity = snap
        .macros
        .iter()
        .fold(Severity::ZERO, |acc, c| acc + c.severity());
    let f_total: Severity = snap
        .region_f_by_day
        .values()
        .fold(Severity::ZERO, |acc, f| acc + total(f));
    assert_eq!(
        macros_total, f_total,
        "macro fixpoint severity diverged from the admitted total"
    );

    // A pinned view is immutable: recomputing a query must reproduce it.
    let days_spanned = snap
        .micros_by_day
        .keys()
        .chain(snap.persisted_days.iter())
        .max()
        .map_or(1, |&d| d + 1);
    assert_eq!(
        view.red_regions(0, days_spanned),
        view.red_regions(0, days_spanned),
        "repeated reads of one pinned view must agree"
    );

    (view.epoch(), view.seal_epoch())
}

fn reader(handle: MonitorHandle, stop: Arc<AtomicBool>) -> u64 {
    let serve = handle.serve();
    let mut pins = 0u64;
    let mut last = (0u64, 0u64);
    while !stop.load(Ordering::SeqCst) || pins == 0 {
        let view = handle.read_view();
        let now = check_view(&view);
        assert!(
            now.0 >= last.0 && now.1 >= last.1,
            "epochs went backwards: {last:?} -> {now:?}"
        );
        last = now;
        // Exercise the cached path against the same racing state; the
        // guided pipeline's own invariant is order-insensitive.
        let day = (pins % u64::from(DAYS)) as u32;
        let guided = serve.query_guided(day, 1).expect("query");
        assert!(guided.input_clusters <= guided.candidate_clusters);
        pins += 1;
    }
    pins
}

/// Readers race ingest, day sealing (snapshot store on), group-commit WAL
/// appends, and periodic checkpoints for the whole feed; every pinned
/// snapshot must pass every invariant, and the final snapshot must agree
/// with the batch reference.
#[test]
fn concurrent_readers_see_only_consistent_snapshots() {
    let sim = TrafficSim::new(SimConfig::new(Scale::Tiny, 13).with_hot_region(0.2, 0.5));
    let network = Arc::new(sim.network().clone());
    let n_sensors = network.num_sensors() as u32;
    let mut records: Vec<_> = (0..DAYS).flat_map(|d| sim.atypical_day(d)).collect();
    records.sort_unstable_by_key(|r| (r.window, r.sensor));

    let snapshot_dir = ScratchDir::new("serving-stress-store");
    let wal_dir = ScratchDir::new("serving-stress-wal");
    let config = MonitorConfig {
        shards: 3,
        spec: sim.config().spec,
        overflow: OverflowPolicy::Block,
        snapshot_dir: Some(snapshot_dir.to_path_buf()),
        durability: DurabilityConfig {
            wal_dir: Some(wal_dir.to_path_buf()),
            fsync: FsyncPolicy::Group,
            checkpoint_interval_records: 1_000,
            ..DurabilityConfig::default()
        },
        ..MonitorConfig::default()
    };

    let partition = UniformGrid::over(&network, config.red_cell_miles).partition(&network);
    let mut service = MonitorService::start(&config, network).expect("service starts");
    let handle = service.handle();
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let handle = handle.clone();
            let stop = stop.clone();
            std::thread::spawn(move || reader(handle, stop))
        })
        .collect();

    for record in records {
        assert!(service.ingest(record).expect("healthy ingest"));
    }
    let metrics = service.finish();
    stop.store(true, Ordering::SeqCst);
    for r in readers {
        assert!(r.join().expect("reader panicked") > 0);
    }

    assert!(metrics.snapshots_published > 0, "{metrics}");

    // Quiescent agreement: the last publication is the final state.
    let view = handle.read_view();
    check_view(&view);
    assert!(
        !view.snapshot().persisted_days.is_empty(),
        "the store must have sealed days mid-run"
    );
    let (red, guided) = reference_guided(
        &view,
        &partition,
        &config.params,
        config.spec,
        n_sensors,
        0,
        DAYS,
    );
    assert_eq!(view.red_regions(0, DAYS), red);
    assert_eq!(view.query_guided(0, DAYS).expect("query"), guided);
}
