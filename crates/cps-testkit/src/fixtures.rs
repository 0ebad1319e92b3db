//! Shared fixtures: simulated deployments, random-but-valid clusters, and
//! temp directories.

use atypical::{AtypicalCluster, AtypicalEvent};
use cps_core::{AtypicalRecord, ClusterId, ScratchDir, SensorId, Severity, TimeWindow};
use cps_sim::{Scale, SimConfig, TrafficSim};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One simulated Tiny-scale day: the deployment plus its atypical
/// records sorted by `(window, sensor)` — the feed order every online
/// component requires.
pub fn tiny_day(seed: u64) -> (TrafficSim, Vec<AtypicalRecord>) {
    let sim = TrafficSim::new(SimConfig::new(Scale::Tiny, seed));
    let mut records = sim.atypical_day(0);
    records.sort_by_key(|r| (r.window, r.sensor));
    assert!(!records.is_empty(), "fixture day has no atypical records");
    (sim, records)
}

/// A fresh, empty scratch directory for `tag`: unique per call, removed
/// when the returned guard drops.
pub fn temp_dir(tag: &str) -> ScratchDir {
    ScratchDir::new(tag)
}

/// Builds a valid micro-cluster from a record set: records are sorted and
/// folded through [`AtypicalEvent`], so the SF/TF totals invariant the
/// decoder checks always holds.
pub fn cluster_from_records(id: u64, mut records: Vec<AtypicalRecord>) -> AtypicalCluster {
    assert!(!records.is_empty(), "clusters need at least one record");
    records.sort_by_key(|r| (r.window, r.sensor));
    AtypicalCluster::from_event(ClusterId::new(id), &AtypicalEvent::new(records))
}

/// A random valid cluster: 1..=`max_records` records over a bounded
/// sensor/window/severity space. Deterministic in `rng`.
pub fn random_cluster(rng: &mut StdRng, id: u64, max_records: usize) -> AtypicalCluster {
    let n = rng.gen_range(1..=max_records.max(1));
    let records = (0..n)
        .map(|_| {
            AtypicalRecord::new(
                SensorId::new(rng.gen_range(0..200) as u32),
                TimeWindow::new(rng.gen_range(0..500) as u32),
                Severity::from_secs(rng.gen_range(30..3600) as u64),
            )
        })
        .collect();
    cluster_from_records(id, records)
}

/// `n` random valid clusters from one seed.
pub fn random_clusters(seed: u64, n: usize, max_records: usize) -> Vec<AtypicalCluster> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| random_cluster(&mut rng, i as u64, max_records))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_clusters_are_valid_and_deterministic() {
        let a = random_clusters(7, 10, 6);
        let b = random_clusters(7, 10, 6);
        assert_eq!(a, b);
        for c in &a {
            assert_eq!(c.sf.total(), c.tf.total(), "SF/TF totals must agree");
            assert!(!c.sf.is_empty());
        }
        assert_ne!(
            crate::canonicalize(&a),
            crate::canonicalize(&random_clusters(8, 10, 6))
        );
    }
}
