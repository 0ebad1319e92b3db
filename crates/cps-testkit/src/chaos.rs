//! Composed chaos scenarios: layered faults against one running monitor.
//!
//! A [`ChaosScenario`] stacks the repo's fault axes — injected I/O
//! errors and latency ([`FaultIo`] plan queue), worker kills and drop
//! bursts (`cps_monitor::FaultConfig`), a junk feed of malformed, stale,
//! and duplicate records, and a deadline-bounded reader storm — onto one
//! service run, and [`run_chaos`] asserts the degraded-operation
//! contract the whole way through:
//!
//! * **liveness** — the run terminates: retries burn through transient
//!   EIO bursts, shedding bounds backpressure, kills respawn in place,
//!   and deadline queries return instead of hanging;
//! * **zero silent loss** — the conservation identity
//!   `ingested + dropped + shed + quarantined + rejected == offered`
//!   holds *exactly*, with the quarantine split matching an independent
//!   mirror of the admission rules computed by the harness;
//! * **bounded staleness** — every reader-storm answer carries an epoch
//!   stamp inside the publication bounds observed around the query, and
//!   a degraded answer names exactly the days it omitted.
//!
//! The harness also builds the fault-free twin (a single
//! [`OnlineExtractor`] fed the mirror's admitted records), so a lossless
//! cell can additionally assert canonical output equality — quarantined
//! records provably never contribute to analytics.

use crate::conformance::ConformanceCase;
use crate::fault::{FaultIo, FaultKind, FaultPlan};
use atypical::online::OnlineExtractor;
use atypical::AtypicalCluster;
use cps_core::{AtypicalRecord, Params, SensorId, TimeWindow};
use cps_monitor::{
    AdmissionConfig, DropBurst, DurabilityConfig, FaultConfig, FsyncPolicy, MetricsSnapshot,
    MonitorConfig, MonitorError, MonitorService, OverflowPolicy, ShardMap, WorkerKill,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A clean feed with junk records deterministically spliced in: sensors
/// the network does not have, stale replays from an earlier window, and
/// adjacent duplicates.
pub struct JunkFeed {
    /// The perturbed feed, clean records in their original order.
    pub records: Vec<AtypicalRecord>,
    /// Malformed records injected.
    pub injected_malformed: u64,
    /// Stale (earlier-window) records injected.
    pub injected_stale: u64,
    /// Duplicate records injected.
    pub injected_duplicate: u64,
}

/// Splices junk into a window-monotone `clean` feed, seeded and
/// reproducible. Roughly one record in five gains a junk follower.
pub fn junk_feed(clean: &[AtypicalRecord], num_sensors: usize, seed: u64) -> JunkFeed {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a75_6e6b);
    let mut records = Vec::with_capacity(clean.len() + clean.len() / 4);
    let (mut malformed, mut stale, mut duplicate) = (0u64, 0u64, 0u64);
    let mut prev_window: Option<TimeWindow> = None;
    let mut prev_record: Option<AtypicalRecord> = None;
    // The most recent record of a *strictly earlier* window: replaying it
    // regresses the clock, which any tolerance setting below its
    // regression diverts.
    let mut stale_candidate: Option<AtypicalRecord> = None;
    for &r in clean {
        if prev_window.is_some_and(|w| w != r.window) {
            stale_candidate = prev_record;
        }
        prev_window = Some(r.window);
        records.push(r);
        prev_record = Some(r);
        match rng.gen_range(0..16u32) {
            0 => {
                records.push(AtypicalRecord::new(
                    SensorId::new(num_sensors as u32 + rng.gen_range(0..4u32)),
                    r.window,
                    r.severity,
                ));
                malformed += 1;
            }
            1 => {
                if let Some(old) = stale_candidate {
                    records.push(old);
                    stale += 1;
                }
            }
            2 => {
                records.push(r);
                duplicate += 1;
            }
            _ => {}
        }
    }
    JunkFeed {
        records,
        injected_malformed: malformed,
        injected_stale: stale,
        injected_duplicate: duplicate,
    }
}

/// What the admission rules should do to a feed, computed independently
/// of the service (the harness-side mirror).
pub struct AdmissionExpectation {
    /// Records that pass admission, in feed order. Drops and sheds come
    /// out of this set, never out of the quarantined one.
    pub admitted: Vec<AtypicalRecord>,
    /// Expected `quarantined_malformed`.
    pub malformed: u64,
    /// Expected `quarantined_out_of_order`.
    pub out_of_order: u64,
    /// Expected `quarantined_duplicate`.
    pub duplicate: u64,
}

impl AdmissionExpectation {
    /// Total records the quarantine should divert.
    pub fn quarantined(&self) -> u64 {
        self.malformed + self.out_of_order + self.duplicate
    }
}

/// Mirrors the service's admission rules over `feed`: same check order
/// (malformed before routing, stale-beyond-tolerance in the regression
/// arm, duplicate after the clock update), same clock semantics.
/// Panics if the feed contains a regression the service would reject
/// with a hard error — chaos feeds must stay liveness-safe.
pub fn expected_admission(
    feed: &[AtypicalRecord],
    num_sensors: usize,
    admission: &AdmissionConfig,
) -> AdmissionExpectation {
    let mut exp = AdmissionExpectation {
        admitted: Vec::with_capacity(feed.len()),
        malformed: 0,
        out_of_order: 0,
        duplicate: 0,
    };
    let mut current: Option<TimeWindow> = None;
    let mut seen: HashSet<u32> = HashSet::new();
    for &r in feed {
        if admission.quarantine && r.sensor.index() >= num_sensors {
            exp.malformed += 1;
            continue;
        }
        if let Some(c) = current {
            if r.window < c {
                let regression = c.0.saturating_sub(r.window.0);
                assert!(
                    admission.quarantine && regression > admission.order_tolerance_windows,
                    "feed contains a regression the service would hard-reject \
                     (regression {regression}, tolerance {})",
                    admission.order_tolerance_windows
                );
                exp.out_of_order += 1;
                continue;
            }
        }
        if admission.dedup && current != Some(r.window) {
            seen.clear();
        }
        current = Some(r.window);
        if admission.dedup && !seen.insert(r.sensor.index() as u32) {
            exp.duplicate += 1;
            continue;
        }
        exp.admitted.push(r);
    }
    exp
}

/// One composed chaos cell: which fault layers are on and how hard.
#[derive(Clone, Debug)]
pub struct ChaosScenario {
    /// Assertion-message label.
    pub label: String,
    /// Seed driving junk placement, I/O jitter, and scheduling jitter.
    pub seed: u64,
    /// Shard workers.
    pub shards: usize,
    /// Whole days in the feed; must match the conformance case's.
    pub days: u32,
    /// WAL + checkpoints + snapshot store + respawn supervision on. The
    /// I/O fault plans below only fire in WAL cells (without durability
    /// the run performs almost no backend operations).
    pub wal: bool,
    /// `admission.shed` — full channels shed instead of blocking.
    pub shed: bool,
    /// Junk feed + `admission.quarantine` + `admission.dedup`.
    pub junk: bool,
    /// Consecutive injected-EIO ops (burned through by the retry layer;
    /// requires `retry_attempts` > burst, which the harness configures).
    pub eio_burst: u64,
    /// Scattered slow-disk latency faults.
    pub latency_faults: u64,
    /// Kill shard 0's worker mid-feed (respawn supervision recovers it);
    /// only in WAL cells, since respawn replays the WAL.
    pub kill_worker: bool,
    /// Drop-burst length (0 = off). Dropped records are accounted, but a
    /// cell with drops can no longer equal the fault-free twin.
    pub drop_burst: u64,
    /// Concurrent deadline-bounded reader threads.
    pub readers: usize,
    /// Shard channel capacity (tiny values make shedding observable).
    pub channel_capacity: usize,
}

impl ChaosScenario {
    /// The full composed stack: junk feed, reader storm, and (in WAL
    /// cells) EIO burst + latency + worker kill, plus a drop burst.
    pub fn composed(seed: u64, shards: usize, wal: bool) -> Self {
        Self {
            label: format!("composed/shards={shards}/wal={wal}"),
            seed,
            shards,
            days: 2,
            wal,
            shed: false,
            junk: true,
            eio_burst: if wal { 3 } else { 0 },
            latency_faults: if wal { 6 } else { 0 },
            kill_worker: wal,
            drop_burst: 25,
            readers: 3,
            channel_capacity: 64,
        }
    }

    /// [`composed`](Self::composed) without the drop burst: every
    /// not-ingested record is quarantined (accounted loss only), so the
    /// output must equal the fault-free twin canonically.
    pub fn lossless(seed: u64, shards: usize, wal: bool) -> Self {
        Self {
            label: format!("lossless/shards={shards}/wal={wal}"),
            drop_burst: 0,
            ..Self::composed(seed, shards, wal)
        }
    }

    /// Overload cell: capacity-1 channels, shedding on, scheduling
    /// jitter stalling the workers — backpressure must convert to
    /// counted sheds, never to an unbounded wait.
    pub fn shed_storm(seed: u64, shards: usize) -> Self {
        Self {
            label: format!("shed-storm/shards={shards}"),
            seed,
            shards,
            days: 2,
            wal: false,
            shed: true,
            junk: false,
            eio_burst: 0,
            latency_faults: 0,
            kill_worker: false,
            drop_burst: 0,
            readers: 2,
            channel_capacity: 1,
        }
    }
}

/// What a chaos run measured (its invariants already asserted inside
/// [`run_chaos`]).
pub struct ChaosReport {
    /// Scenario label.
    pub label: String,
    /// Records offered to `ingest` (clean + junk).
    pub offered: u64,
    /// Records rejected with a typed error (dead shard with the respawn
    /// budget spent); always accounted, never silent.
    pub rejected: u64,
    /// The harness-side admission mirror.
    pub expected: AdmissionExpectation,
    /// Final service metrics.
    pub snapshot: MetricsSnapshot,
    /// The service's micro-clusters after `finish`, all days (live
    /// memory plus the snapshot store).
    pub service_micros: Vec<AtypicalCluster>,
    /// The fault-free twin's micro-clusters over the admitted records.
    pub twin_micros: Vec<AtypicalCluster>,
    /// Publication epoch after the run.
    pub final_epoch: u64,
    /// Reader-storm queries completed.
    pub reader_queries: u64,
    /// Reader-storm answers that were degraded (days omitted).
    pub reader_degraded: u64,
    /// Slowest reader-storm query.
    pub reader_max_elapsed: Duration,
}

impl ChaosReport {
    /// Whether every not-ingested record was *quarantined* (accounted
    /// divert) rather than dropped, shed, or rejected — the precondition
    /// for twin equality.
    pub fn is_lossless(&self) -> bool {
        self.snapshot.records_dropped == 0 && self.snapshot.records_shed == 0 && self.rejected == 0
    }
}

/// Runs one composed scenario against `case`'s feed inside `dir` (which
/// must be fresh) and asserts liveness, exact accounting, and bounded
/// staleness. See the module docs for the full contract.
pub fn run_chaos(scenario: &ChaosScenario, case: &ConformanceCase, dir: &Path) -> ChaosReport {
    assert_eq!(
        scenario.days, case.days,
        "{}: scenario and conformance case disagree on days",
        scenario.label
    );
    let network = Arc::new(case.source().network().clone());
    let num_sensors = network.num_sensors();
    let spec = case.source().config().spec;
    let clean = case.feed();
    let feed = if scenario.junk {
        junk_feed(&clean, num_sensors, scenario.seed).records
    } else {
        clean
    };
    let offered = feed.len() as u64;

    let admission = AdmissionConfig {
        shed: scenario.shed,
        quarantine: scenario.junk,
        order_tolerance_windows: 0,
        dedup: scenario.junk,
        quarantine_capacity: 64,
    };
    let expected = expected_admission(&feed, num_sensors, &admission);
    let admitted = expected.admitted.len() as u64;
    assert!(admitted > 0, "{}: nothing to admit", scenario.label);

    // I/O fault plans (WAL cells only — without durability the run
    // performs almost no backend operations, so the plans would never
    // fire and the cell would vacuously pass).
    let fault = FaultIo::new();
    if scenario.wal {
        let mut plans = Vec::new();
        for i in 0..scenario.eio_burst {
            plans.push(FaultPlan {
                at_op: 40 + i,
                kind: FaultKind::Error,
            });
        }
        for i in 0..scenario.latency_faults {
            plans.push(FaultPlan {
                at_op: 60 + scenario.eio_burst + i * 37,
                kind: FaultKind::Latency { millis: 1 + i % 3 },
            });
        }
        fault.set_plans(plans);
    }

    // Kill the most-loaded shard (mirroring the static epoch-0 shard map)
    // a third of the way through its feed: the worker dies two or three
    // times, well under the respawn budget, and plenty of records follow
    // each death so ingest always notices and respawns.
    let kill = scenario.kill_worker.then(|| {
        let map = ShardMap::build(
            &network,
            scenario.shards,
            Params::paper_defaults().delta_d_miles,
        );
        let mut loads = vec![0u64; scenario.shards];
        for r in &expected.admitted {
            loads[map.shard_of(r.sensor)] += 1;
        }
        let (shard, &load) = loads
            .iter()
            .enumerate()
            .max_by_key(|&(_, &l)| l)
            .expect("at least one shard");
        assert!(
            load > 0,
            "{}: no shard has records to kill over",
            scenario.label
        );
        WorkerKill {
            shard,
            after_records: (load / 3).max(1),
        }
    });
    let drop_burst = (scenario.drop_burst > 0).then_some(DropBurst {
        at_record: admitted / 3,
        len: scenario.drop_burst,
    });
    let expected_drops = drop_burst.map_or(0, |b| b.len.min(admitted.saturating_sub(b.at_record)));

    let config = MonitorConfig {
        shards: scenario.shards,
        channel_capacity: scenario.channel_capacity,
        overflow: OverflowPolicy::Block,
        params: Params::paper_defaults(),
        spec,
        snapshot_dir: scenario.wal.then(|| dir.join("store")),
        admission,
        durability: if scenario.wal {
            DurabilityConfig {
                wal_dir: Some(dir.join("wal")),
                fsync: FsyncPolicy::Group,
                group_commit_records: 8,
                checkpoint_interval_records: 200,
                respawn_budget: 8,
                segment_bytes: 8192,
                retry_attempts: 8,
                retry_base_ms: 1,
                retry_max_ms: 4,
                retry_jitter_seed: scenario.seed,
            }
        } else {
            DurabilityConfig::default()
        },
        faults: FaultConfig {
            kill_worker: kill,
            drop_burst,
            jitter_seed: Some(scenario.seed ^ 0x51),
        },
        ..MonitorConfig::default()
    };
    let mut service = MonitorService::start_with(&config, network.clone(), fault.io())
        .unwrap_or_else(|e| panic!("{}: service start failed: {e}", scenario.label));
    let handle = service.handle();

    // Reader storm: deadline-bounded queries the whole run long,
    // alternating a zero budget (forces the degraded path whenever a
    // sealed day lives only in storage) with a generous one.
    let stop = Arc::new(AtomicBool::new(false));
    let storm: Vec<std::thread::JoinHandle<(u64, u64, Duration)>> = (0..scenario.readers)
        .map(|t| {
            let serve = handle.serve();
            let stop = stop.clone();
            let days = scenario.days;
            let label = scenario.label.clone();
            std::thread::spawn(move || {
                let (mut queries, mut degraded) = (0u64, 0u64);
                let mut max_elapsed = Duration::ZERO;
                let mut i = t as u64;
                while !stop.load(Ordering::Relaxed) {
                    let budget = if i.is_multiple_of(2) {
                        Duration::ZERO
                    } else {
                        Duration::from_millis(50)
                    };
                    let before = serve.epoch();
                    let resp = serve
                        .query_guided_deadline(0, days, budget)
                        .unwrap_or_else(|e| panic!("{label}: deadline query failed: {e}"));
                    let after = serve.epoch();
                    assert!(
                        resp.epoch >= before && resp.epoch <= after,
                        "{label}: staleness stamp {} outside publication bounds \
                         [{before}, {after}]",
                        resp.epoch
                    );
                    assert_eq!(
                        resp.degraded,
                        !resp.days_omitted.is_empty(),
                        "{label}: degraded flag disagrees with days_omitted"
                    );
                    for &d in &resp.days_omitted {
                        assert!(d < days, "{label}: omitted day {d} outside the query range");
                    }
                    if resp.degraded {
                        degraded += 1;
                    }
                    max_elapsed = max_elapsed.max(resp.elapsed);
                    queries += 1;
                    i += 1;
                    std::thread::sleep(Duration::from_micros(500));
                }
                (queries, degraded, max_elapsed)
            })
        })
        .collect();

    let mut rejected = 0u64;
    for &record in &feed {
        match service.ingest(record) {
            Ok(_) => {}
            Err(MonitorError::WorkerDied { .. } | MonitorError::ShardFailed { .. }) => {
                rejected += 1;
            }
            Err(e) => panic!("{}: unexpected ingest error: {e}", scenario.label),
        }
    }
    let snapshot = service.finish();
    stop.store(true, Ordering::Relaxed);
    let (mut reader_queries, mut reader_degraded) = (0u64, 0u64);
    let mut reader_max_elapsed = Duration::ZERO;
    for t in storm {
        let (q, d, m) = t.join().expect("reader-storm thread panicked");
        reader_queries += q;
        reader_degraded += d;
        reader_max_elapsed = reader_max_elapsed.max(m);
    }
    let final_epoch = handle.serve().epoch();

    let view = handle.read_view();
    let mut service_micros = Vec::new();
    for day in 0..scenario.days {
        service_micros.extend(
            view.micro_clusters_for_day(day)
                .unwrap_or_else(|e| panic!("{}: day {day} query failed: {e}", scenario.label))
                .iter()
                .cloned(),
        );
    }
    let mut twin = OnlineExtractor::new(&network, Params::paper_defaults(), spec);
    for &r in &expected.admitted {
        twin.push(r).expect("admitted feed is window-monotone");
    }
    let twin_micros = twin.finish();

    // Zero silent loss: the quarantine split matches the mirror exactly,
    // and every offered record lands in exactly one bucket.
    let label = &scenario.label;
    assert_eq!(
        snapshot.quarantined_malformed, expected.malformed,
        "{label}: malformed quarantine count"
    );
    assert_eq!(
        snapshot.quarantined_out_of_order, expected.out_of_order,
        "{label}: out-of-order quarantine count"
    );
    assert_eq!(
        snapshot.quarantined_duplicate, expected.duplicate,
        "{label}: duplicate quarantine count"
    );
    assert_eq!(
        snapshot.records_quarantined,
        expected.quarantined(),
        "{label}: total quarantine count"
    );
    assert_eq!(
        snapshot.records_ingested
            + snapshot.records_dropped
            + snapshot.records_shed
            + snapshot.records_quarantined
            + rejected,
        offered,
        "{label}: conservation — every offered record in exactly one bucket"
    );
    assert_eq!(
        snapshot.records_ingested,
        admitted - snapshot.records_dropped - snapshot.records_shed - rejected,
        "{label}: drops and sheds come out of the admitted set only"
    );
    assert_eq!(
        snapshot.shed_per_shard.iter().sum::<u64>(),
        snapshot.records_shed,
        "{label}: per-shard shed counters sum to the total"
    );
    if scenario.drop_burst > 0 {
        assert_eq!(
            snapshot.records_dropped, expected_drops,
            "{label}: drop burst accounted exactly"
        );
    }
    if scenario.wal && scenario.eio_burst > 0 {
        assert!(
            snapshot.io_retries >= scenario.eio_burst,
            "{label}: the EIO burst must surface as retries \
             (io_retries {} < burst {})",
            snapshot.io_retries,
            scenario.eio_burst
        );
        assert_eq!(
            snapshot.retries_exhausted, 0,
            "{label}: the retry budget covers the whole burst"
        );
    }
    if scenario.wal {
        assert_eq!(
            fault.pending_plans(),
            0,
            "{label}: every planted I/O fault must actually fire"
        );
    }
    if scenario.kill_worker {
        assert!(
            snapshot.respawns >= 1,
            "{label}: the killed worker must respawn"
        );
        assert_eq!(rejected, 0, "{label}: the respawn budget covers every kill");
    }
    assert!(
        reader_queries > 0,
        "{label}: the reader storm must complete queries"
    );

    ChaosReport {
        label: scenario.label.clone(),
        offered,
        rejected,
        expected,
        snapshot,
        service_micros,
        twin_micros,
        final_epoch,
        reader_queries,
        reader_degraded,
        reader_max_elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::Severity;

    fn rec(sensor: u32, window: u32) -> AtypicalRecord {
        AtypicalRecord::new(
            SensorId::new(sensor),
            TimeWindow::new(window),
            Severity::from_secs(120),
        )
    }

    #[test]
    fn mirror_matches_admission_rules() {
        let feed = vec![
            rec(0, 1),
            rec(9, 1), // malformed (num_sensors = 4)
            rec(1, 1),
            rec(1, 1), // duplicate of sensor 1 in window 1
            rec(2, 3),
            rec(0, 1), // stale: regression 2 > tolerance 0
            rec(1, 3),
            rec(3, 4),
            rec(1, 4), // sensor 1 again, but a new window: admitted
        ];
        let admission = AdmissionConfig {
            quarantine: true,
            dedup: true,
            ..AdmissionConfig::default()
        };
        let exp = expected_admission(&feed, 4, &admission);
        assert_eq!(exp.malformed, 1);
        assert_eq!(exp.out_of_order, 1);
        assert_eq!(exp.duplicate, 1);
        assert_eq!(
            exp.admitted,
            vec![
                rec(0, 1),
                rec(1, 1),
                rec(2, 3),
                rec(1, 3),
                rec(3, 4),
                rec(1, 4)
            ]
        );
    }

    #[test]
    fn mirror_admits_everything_when_admission_is_off() {
        let feed = vec![rec(0, 1), rec(0, 1), rec(1, 2)];
        let exp = expected_admission(&feed, 4, &AdmissionConfig::default());
        assert_eq!(exp.quarantined(), 0);
        assert_eq!(exp.admitted, feed);
    }

    #[test]
    fn junk_feed_is_seeded_and_preserves_clean_order() {
        let clean = vec![rec(0, 1), rec(1, 1), rec(2, 2), rec(3, 3), rec(0, 4)];
        let a = junk_feed(&clean, 4, 7);
        let b = junk_feed(&clean, 4, 7);
        assert_eq!(a.records, b.records, "junk placement must be seeded");
        let survivors: Vec<AtypicalRecord> = a
            .records
            .iter()
            .copied()
            .filter(|r| r.sensor.index() < 4)
            .collect();
        // Clean records appear in order within the junked feed (junk only
        // adds followers, and stale/duplicate followers are copies).
        let mut clean_iter = clean.iter();
        let mut matched = 0;
        for r in &survivors {
            if clean_iter.as_slice().first() == Some(r) {
                clean_iter.next();
                matched += 1;
            }
        }
        assert_eq!(matched, clean.len(), "clean feed order must survive");
    }
}
