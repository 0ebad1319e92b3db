//! Offline construction pipeline: CPS dataset → atypical forest.
//!
//! Runs Algorithm 1 (event retrieval + micro-cluster summarization) over
//! each day partition and stores the results at the forest's leaf level.
//! Days are processed independently — matching the paper's setup where
//! "the system only pre-computes the micro-clusters of each day" — so an
//! event that straddles midnight is summarized as one cluster per day and
//! re-joined, if similar enough, during integration.

use crate::cluster::AtypicalCluster;

use crate::forest::AtypicalForest;
use cps_core::ids::ClusterIdGen;
use cps_core::{AtypicalRecord, DatasetId, Params, Result, WindowSpec};
use cps_geo::RoadNetwork;
use cps_index::StIndex;
use cps_storage::{DatasetStore, IoStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Size/work accounting from a construction run (Figures 15 and 16).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConstructionStats {
    /// Atypical events extracted.
    pub n_events: usize,
    /// Micro-clusters produced (== events).
    pub n_micro_clusters: usize,
    /// Approximate bytes of the raw atypical-event model (`AE`).
    pub event_bytes: usize,
    /// Approximate bytes of the micro-cluster model (`AC`).
    pub cluster_bytes: usize,
    /// Atypical records consumed.
    pub n_records: usize,
}

impl ConstructionStats {
    /// Adds another run's counters into this one. Every field is a plain
    /// sum, so accumulation order does not matter — the parallel leaf
    /// build commits per-day stats in day order purely for consistency
    /// with the id rebase, not because the totals need it.
    pub fn absorb(&mut self, other: ConstructionStats) {
        self.n_events += other.n_events;
        self.n_micro_clusters += other.n_micro_clusters;
        self.event_bytes += other.event_bytes;
        self.cluster_bytes += other.cluster_bytes;
        self.n_records += other.n_records;
    }
}

/// Elapsed-time + size result of a construction run.
#[derive(Debug)]
pub struct Construction {
    /// The populated forest.
    pub forest: AtypicalForest,
    /// Size/work accounting.
    pub stats: ConstructionStats,
    /// Wall-clock construction time (excluding any raw-data pre-processing).
    pub elapsed: Duration,
}

/// Extracts one day's micro-clusters from its atypical records.
pub fn day_micro_clusters(
    records: &[AtypicalRecord],
    network: &RoadNetwork,
    params: &Params,
    spec: WindowSpec,
    ids: &mut ClusterIdGen,
    stats: &mut ConstructionStats,
) -> Vec<AtypicalCluster> {
    let index = StIndex::build(records, network, params, spec);
    let mut events = crate::event::extract_events(&index);
    // Trustworthiness filter (§II-A): drop uncorroborated tiny events.
    // Ids are allocated *after* filtering so they are dense and independent
    // of how many events were discarded (which also keeps the parallel
    // construction byte-identical to the sequential one).
    events.retain(|event| event.len() >= params.min_event_records as usize);
    stats.n_events += events.len();
    stats.n_micro_clusters += events.len();
    stats.n_records += records.len();
    let mut clusters = Vec::with_capacity(events.len());
    for event in &events {
        let cluster = AtypicalCluster::from_event(ids.next_id(), event);
        stats.event_bytes += event.approx_bytes();
        stats.cluster_bytes += cluster.approx_bytes();
        clusters.push(cluster);
    }
    clusters
}

/// Builds a forest from in-memory per-day record sets.
///
/// Leaf extraction fans out over [`Params::parallelism`] worker threads;
/// the result is bit-identical at every setting (see
/// [`build_forest_from_records_parallel`]), and `parallelism = 1` runs
/// the plain sequential loop on the calling thread.
pub fn build_forest_from_records<I>(
    days: I,
    network: &RoadNetwork,
    params: &Params,
    spec: WindowSpec,
) -> Construction
where
    I: IntoIterator<Item = (u32, Vec<AtypicalRecord>)>,
{
    build_forest_from_records_parallel(
        days.into_iter().collect(),
        network,
        params,
        spec,
        params.effective_parallelism(),
    )
}

/// Builds a forest from in-memory per-day record sets, extracting days in
/// parallel on an explicit number of worker threads.
///
/// Days are independent units of Algorithm 1 (events never span the
/// per-day partition the forest stores), so extraction parallelizes
/// embarrassingly. Each worker allocates scratch cluster ids; afterwards
/// ids are rebased deterministically in input order, so the result is
/// byte-identical to the sequential pipeline regardless of thread count
/// or scheduling. `threads <= 1` runs the exact sequential code path.
pub fn build_forest_from_records_parallel(
    days: Vec<(u32, Vec<AtypicalRecord>)>,
    network: &RoadNetwork,
    params: &Params,
    spec: WindowSpec,
    threads: usize,
) -> Construction {
    let start = Instant::now();
    let mut forest = AtypicalForest::new(spec, *params);
    let mut stats = ConstructionStats::default();
    let mut ids = ClusterIdGen::new(1);
    if threads <= 1 {
        for (day, records) in days {
            let clusters =
                day_micro_clusters(&records, network, params, spec, &mut ids, &mut stats);
            forest.insert_day(day, clusters);
        }
        return Construction {
            forest,
            stats,
            elapsed: start.elapsed(),
        };
    }

    let pool = cps_par::Pool::new(threads);
    let per_day = pool.map(days, |_, (day, records)| {
        // Worker-local ids are scratch; rebased below in input order.
        let mut ids = ClusterIdGen::new(1);
        let mut day_stats = ConstructionStats::default();
        let clusters =
            day_micro_clusters(&records, network, params, spec, &mut ids, &mut day_stats);
        (day, clusters, day_stats)
    });
    // Commit in input order — the order the sequential loop would have
    // processed — rebasing each day's dense scratch ids onto the shared
    // sequence.
    for (day, mut clusters, day_stats) in per_day {
        for c in &mut clusters {
            c.id = ids.next_id();
        }
        stats.absorb(day_stats);
        forest.insert_day(day, clusters);
    }
    Construction {
        forest,
        stats,
        elapsed: start.elapsed(),
    }
}

/// Builds a forest from the atypical partitions of the given datasets in a
/// store (the paper's offline construction over `D1..Dk`).
pub fn build_forest_from_store(
    store: &DatasetStore,
    datasets: &[DatasetId],
    network: &RoadNetwork,
    params: &Params,
    io: Arc<IoStats>,
) -> Result<Construction> {
    let start = Instant::now();
    let spec = store.catalog().spec;
    let mut forest = AtypicalForest::new(spec, *params);
    let mut stats = ConstructionStats::default();
    let mut ids = ClusterIdGen::new(1);
    let wpd = spec.windows_per_day();
    for &id in datasets {
        let meta = store.dataset(id)?.clone();
        // Stream the dataset once, cutting the stream at day boundaries.
        let mut current_day = meta.first_day;
        let mut buffer: Vec<AtypicalRecord> = Vec::new();
        for record in store.scan_atypical(id, Arc::clone(&io))? {
            let record = record?;
            let day = record.window.raw() / wpd;
            if day != current_day {
                let clusters =
                    day_micro_clusters(&buffer, network, params, spec, &mut ids, &mut stats);
                forest.insert_day(current_day, clusters);
                buffer.clear();
                current_day = day;
            }
            buffer.push(record);
        }
        if !buffer.is_empty() {
            let clusters = day_micro_clusters(&buffer, network, params, spec, &mut ids, &mut stats);
            forest.insert_day(current_day, clusters);
        }
    }
    Ok(Construction {
        forest,
        stats,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::ScratchDir;
    use cps_sim::{Scale, SimConfig, TrafficSim};

    fn sim() -> TrafficSim {
        TrafficSim::new(SimConfig::new(Scale::Tiny, 21))
    }

    #[test]
    fn in_memory_construction_produces_micro_clusters() {
        let sim = sim();
        let params = Params::paper_defaults();
        let days = (0..3).map(|d| (d, sim.atypical_day(d)));
        let built = build_forest_from_records(days, sim.network(), &params, sim.config().spec);
        assert_eq!(built.forest.days().count(), 3);
        assert!(built.stats.n_micro_clusters > 0);
        assert_eq!(built.stats.n_events, built.stats.n_micro_clusters);
        // Micro-cluster model is much smaller than the raw event model —
        // the Figure 16 compression claim (AC ≈ 0.5–1 % of AE at paper
        // scale; looser here because tiny events have less redundancy).
        assert!(built.stats.cluster_bytes < built.stats.event_bytes);
    }

    #[test]
    fn severity_is_conserved_records_to_forest() {
        let sim = sim();
        // Keep every event (including singletons) so severity is conserved
        // exactly.
        let params = Params::paper_defaults().with_min_event_records(1);
        let records = sim.atypical_day(0);
        let want: cps_core::Severity = records.iter().map(|r| r.severity).sum();
        let built = build_forest_from_records(
            vec![(0, records)],
            sim.network(),
            &params,
            sim.config().spec,
        );
        let got: cps_core::Severity = built.forest.day(0).iter().map(|c| c.severity()).sum();
        assert_eq!(want, got);
    }

    #[test]
    fn store_and_memory_paths_agree() {
        let root = ScratchDir::new("pipeline");
        let config = SimConfig::new(Scale::Tiny, 21)
            .with_datasets(1)
            .with_days_per_dataset(3);
        let sim = TrafficSim::new(config);
        let store = sim.write_store(&root).unwrap();
        let params = Params::paper_defaults();

        let from_store = build_forest_from_store(
            &store,
            &[DatasetId::new(1)],
            sim.network(),
            &params,
            IoStats::shared(),
        )
        .unwrap();
        let from_memory = build_forest_from_records(
            (0..3).map(|d| (d, sim.atypical_day(d))),
            sim.network(),
            &params,
            sim.config().spec,
        );
        assert_eq!(
            from_store.stats.n_micro_clusters,
            from_memory.stats.n_micro_clusters
        );
        for day in 0..3 {
            assert_eq!(
                from_store.forest.day(day),
                from_memory.forest.day(day),
                "day {day}"
            );
        }
    }

    #[test]
    fn parallel_construction_matches_sequential_exactly() {
        let sim = sim();
        let params = Params::paper_defaults();
        let spec = sim.config().spec;
        let days: Vec<(u32, Vec<cps_core::AtypicalRecord>)> =
            (0..6).map(|d| (d, sim.atypical_day(d))).collect();
        let sequential = build_forest_from_records(days.clone(), sim.network(), &params, spec);
        for threads in [1usize, 2, 4] {
            let parallel = build_forest_from_records_parallel(
                days.clone(),
                sim.network(),
                &params,
                spec,
                threads,
            );
            assert_eq!(parallel.stats, sequential.stats, "{threads} threads");
            for day in 0..6 {
                assert_eq!(
                    parallel.forest.day(day),
                    sequential.forest.day(day),
                    "day {day}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_day_yields_empty_leaf() {
        let sim = sim();
        let params = Params::paper_defaults();
        let built = build_forest_from_records(
            vec![(0, Vec::new())],
            sim.network(),
            &params,
            sim.config().spec,
        );
        assert_eq!(built.forest.day(0).len(), 0);
        assert_eq!(built.stats.n_records, 0);
    }
}
