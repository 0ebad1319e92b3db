//! Shared experiment setup: synthetic archive + forest construction.

use atypical::forest::AtypicalForest;
use atypical::pipeline::{build_forest_from_store, Construction};
use cps_core::{DatasetId, Params, Result, WindowSpec};
use cps_geo::grid::{RegionHierarchy, SensorPartition};
use cps_geo::{RoadNetwork, UniformGrid};
use cps_sim::{Scale, SimConfig, TrafficSim};
use cps_storage::{DatasetStore, IoStats};
use std::path::PathBuf;
use std::sync::Arc;

/// Configuration of a reproduction run.
#[derive(Clone, Debug)]
pub struct ReproConfig {
    /// Deployment scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Monthly datasets to generate.
    pub n_datasets: u32,
    /// Days per dataset.
    pub days_per_dataset: u32,
    /// Red-zone / cube grid cell size, miles.
    pub cell_miles: f64,
    /// Where the generated archive lives (reused across runs).
    pub data_dir: PathBuf,
    /// Where result JSON tables are written.
    pub out_dir: PathBuf,
}

impl ReproConfig {
    /// Defaults: tiny scale, 12 months × 30 days, cached under `target/`.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let scale_name = format!("{scale:?}").to_lowercase();
        Self {
            scale,
            seed,
            n_datasets: 12,
            days_per_dataset: 30,
            cell_miles: 3.0,
            data_dir: PathBuf::from(format!("target/repro-data/{scale_name}-{seed}")),
            out_dir: PathBuf::from("results"),
        }
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig::new(self.scale, self.seed)
            .with_datasets(self.n_datasets)
            .with_days_per_dataset(self.days_per_dataset)
    }
}

/// A ready-to-experiment deployment: archive on disk, network, regions.
pub struct Workbench {
    /// The run configuration.
    pub config: ReproConfig,
    /// The traffic simulator (holds the network).
    pub sim: TrafficSim,
    /// The on-disk archive.
    pub store: DatasetStore,
    /// Pre-defined region hierarchy (cell → district → city).
    pub hierarchy: RegionHierarchy,
    /// Shared I/O counters.
    pub io: Arc<IoStats>,
}

impl Workbench {
    /// Opens (or generates) the archive and builds the region structures.
    pub fn prepare(config: ReproConfig) -> Result<Self> {
        let sim = TrafficSim::new(config.sim_config());
        let store = match DatasetStore::open(&config.data_dir) {
            Ok(store)
                if store.catalog().datasets.len() == config.n_datasets as usize
                    && store.catalog().total_days()
                        == config.n_datasets * config.days_per_dataset =>
            {
                store
            }
            _ => {
                eprintln!(
                    "[workbench] generating archive at {} ({:?}, {} datasets x {} days)…",
                    config.data_dir.display(),
                    config.scale,
                    config.n_datasets,
                    config.days_per_dataset
                );
                let _ = std::fs::remove_dir_all(&config.data_dir);
                sim.write_store(&config.data_dir)?
            }
        };
        let hierarchy = RegionHierarchy::standard(sim.network(), config.cell_miles, 3);
        Ok(Self {
            config,
            sim,
            store,
            hierarchy,
            io: IoStats::shared(),
        })
    }

    /// The road network.
    pub fn network(&self) -> &RoadNetwork {
        self.sim.network()
    }

    /// The finest region partition (red-zone regions).
    pub fn partition(&self) -> &SensorPartition {
        self.hierarchy.finest()
    }

    /// The time discretization.
    pub fn spec(&self) -> WindowSpec {
        self.store.catalog().spec
    }

    /// Dataset ids `D1..=Dk`.
    pub fn datasets(&self, k: u32) -> Vec<DatasetId> {
        (1..=k).map(DatasetId::new).collect()
    }

    /// Builds the atypical forest over the first `k` datasets.
    pub fn build_forest(&self, k: u32, params: &Params) -> Result<Construction> {
        build_forest_from_store(
            &self.store,
            &self.datasets(k),
            self.network(),
            params,
            Arc::clone(&self.io),
        )
    }

    /// Builds a forest covering at least `n_days` days (rounded up to whole
    /// datasets).
    pub fn build_forest_for_days(&self, n_days: u32, params: &Params) -> Result<AtypicalForest> {
        let k = n_days
            .div_ceil(self.config.days_per_dataset)
            .min(self.config.n_datasets);
        Ok(self.build_forest(k, params)?.forest)
    }

    /// A partition with a different cell size (red-zone granularity
    /// ablation).
    pub fn partition_with_cell(&self, cell_miles: f64) -> SensorPartition {
        UniformGrid::over(self.network(), cell_miles).partition(self.network())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::ScratchDir;

    /// A config whose archive lives in its own scratch directory; the
    /// guard keeps it alive for the test.
    fn test_config(tag: &str) -> (ReproConfig, ScratchDir) {
        let dir = ScratchDir::new(tag);
        let mut c = ReproConfig::new(Scale::Tiny, 77);
        c.n_datasets = 1;
        c.days_per_dataset = 2;
        c.data_dir = dir.join("archive");
        (c, dir)
    }

    #[test]
    fn prepare_generates_then_reuses() {
        let (config, _dir) = test_config("workbench-reuse");
        let wb = Workbench::prepare(config.clone()).unwrap();
        assert_eq!(wb.store.catalog().datasets.len(), 1);
        let first_gen = std::fs::metadata(config.data_dir.join("catalog.json"))
            .unwrap()
            .modified()
            .unwrap();
        // Second prepare must reuse the archive (catalog unmodified).
        let wb2 = Workbench::prepare(config.clone()).unwrap();
        let second_gen = std::fs::metadata(config.data_dir.join("catalog.json"))
            .unwrap()
            .modified()
            .unwrap();
        assert_eq!(first_gen, second_gen);
        assert_eq!(wb2.network().num_sensors(), wb.network().num_sensors());
    }

    #[test]
    fn forest_builds_over_archive() {
        let (config, _dir) = test_config("workbench-forest");
        let wb = Workbench::prepare(config.clone()).unwrap();
        let params = Params::paper_defaults();
        let built = wb.build_forest(1, &params).unwrap();
        assert_eq!(built.forest.days().count(), 2);
        assert!(built.stats.n_micro_clusters > 0);
    }
}
