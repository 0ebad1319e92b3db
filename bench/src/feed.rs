//! Seeded workload inputs: the fixed deployment and the feed `--seed` draws.
//!
//! The simulator derives the deployment (road network, congestion
//! corridors and their seasons) and the daily events from one seed, and the
//! deployment's draw does not average out within a run: five deployments
//! measured 316k–442k rec/s on `stream-long`, which would drown any 10 %
//! regression bound. So the deployment is fixed at [`SIM_SEED`] — one
//! benchmark dataset, as PeMS is in the paper — and `--seed` decides which
//! simulated day lands on which calendar day of the feed: an `n`-day feed
//! is the deployment's first `n` simulated days in the seed's order. Every
//! seed replays the same days' worth of events — same volume, same
//! clusters give or take what straddles midnight — as a different stream.

use crate::stats::SplitMix64;
use cps_core::{AtypicalRecord, Params, RecordBatch, TimeWindow, WindowSpec};
use cps_geo::grid::SensorPartition;
use cps_geo::{RoadNetwork, UniformGrid};
use cps_monitor::MonitorConfig;
use cps_sim::{build_source, Scale, SimConfig, Source};
use std::sync::Arc;

/// Seed of the one simulated deployment every run measures.
pub const SIM_SEED: u64 = 42;
/// Simulated days of the deployment: the paper's 8 monthly datasets.
pub const POOL_DAYS: u32 = 240;
/// Days per monthly dataset.
pub const MONTH_DAYS: u32 = 30;
/// Records per `RecordBatch` on the closed-loop workloads.
pub const BATCH_RECORDS: usize = 256;

/// The simulated traffic deployment at `Scale::Medium` (1,240 sensors).
pub struct Deployment {
    sim: Box<dyn Source>,
    pub network: Arc<RoadNetwork>,
    pub spec: WindowSpec,
    /// The service's defaults, for the reference computations.
    pub params: Params,
    /// The red-zone grid a default-configured service lays over the network.
    pub partition: SensorPartition,
}

impl Deployment {
    pub fn new() -> Self {
        let sim = build_source(SimConfig::new(Scale::Medium, SIM_SEED));
        let network = Arc::new(sim.network().clone());
        let spec = sim.config().spec;
        let defaults = MonitorConfig::default();
        let partition = UniformGrid::over(&network, defaults.red_cell_miles).partition(&network);
        Self {
            sim,
            network,
            spec,
            params: defaults.params,
            partition,
        }
    }

    /// Seed `seed`'s feed of `n_days` calendar days. Day `d` holds the
    /// records of the simulated day the seed's permutation of `0..n_days`
    /// put there, re-stamped onto day `d`'s windows and sorted by
    /// `(window, sensor)` — the order `MonitorService` requires.
    pub fn feed(&self, seed: u64, n_days: u32) -> Vec<Vec<AtypicalRecord>> {
        assert!(
            n_days <= POOL_DAYS,
            "the deployment is simulated for {POOL_DAYS} days"
        );
        let mut order: Vec<u32> = (0..n_days).collect();
        SplitMix64::new(seed, 1).shuffle(&mut order);
        let per_day = self.spec.windows_per_day();
        (0..n_days)
            .map(|day| {
                let source_day = order[day as usize];
                let mut records = self.sim.atypical_day(source_day);
                for r in &mut records {
                    let in_day = r.window.raw() - source_day * per_day;
                    r.window = TimeWindow::new(day * per_day + in_day);
                }
                records.sort_unstable_by_key(|r| (r.window, r.sensor));
                records
            })
            .collect()
    }
}

/// One service lifetime's input: the records in feed order and the same
/// records cut into the batches handed to `ingest_batch`.
pub struct LifetimeFeed {
    pub records: Vec<AtypicalRecord>,
    pub batches: Vec<RecordBatch>,
}

impl LifetimeFeed {
    /// Fixed-size batches of [`BATCH_RECORDS`] (the closed-loop workloads).
    pub fn fixed_batches(days: &[Vec<AtypicalRecord>]) -> Self {
        let records: Vec<AtypicalRecord> = days.iter().flatten().copied().collect();
        let batches = records
            .chunks(BATCH_RECORDS)
            .map(RecordBatch::from_records)
            .collect();
        Self { records, batches }
    }
}
