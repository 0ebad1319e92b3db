//! Spatial sharding of a [`RoadNetwork`].
//!
//! Sensors are sorted by longitude (then latitude, then id — a total
//! order) and cut into `num_shards` contiguous chunks, so each shard owns
//! a compact geographic band and the δd-relation can only cross shards
//! near the cuts. A sensor is a *boundary* sensor when some sensor within
//! `δd` belongs to another shard; only events touching boundary sensors
//! can ever need cross-shard reconciliation, and the merger limits its
//! bookkeeping to exactly those.
//!
//! The initial map (epoch 0) uses evenly sized chunks. Adaptive
//! rebalancing moves the cut positions to follow observed per-sensor load
//! ([`ShardMap::build_with_cuts`]); because cuts only move along the fixed
//! spatial order, an epoch is fully described by its cut vector, which is
//! what the WAL and checkpoint record. [`BoundaryInfo`] accumulates the
//! boundary predicate across every epoch a run has used — the merger's
//! reconciliation must consider a sensor "boundary" if it was boundary (or
//! migrated shards) under *any* epoch whose events may still be pending.

use cps_core::SensorId;
use cps_geo::RoadNetwork;
use std::sync::Arc;

/// Static assignment of sensors to shards plus the cross-shard δd
/// adjacency used by the merger's reconciliation.
#[derive(Clone, Debug)]
pub struct ShardMap {
    num_shards: usize,
    shard_of: Vec<u16>,
    /// δd-neighbors in *other* shards, per sensor. Empty for interior
    /// sensors; non-empty exactly for boundary sensors.
    cross_neighbors: Vec<Vec<SensorId>>,
    boundary_sensors: usize,
    /// Sensors sorted by (lon, lat, id) — the fixed order cuts slice.
    order: Vec<SensorId>,
    /// `num_shards + 1` cut positions: shard `s` owns `order[cuts[s]..cuts[s+1]]`.
    cuts: Vec<u32>,
}

impl ShardMap {
    /// Builds the epoch-0 shard assignment for `network` with the given
    /// δd: evenly sized contiguous chunks of the spatial order.
    ///
    /// `num_shards` may exceed the sensor count; surplus shards simply own
    /// no sensors.
    pub fn build(network: &RoadNetwork, num_shards: usize, delta_d_miles: f64) -> Self {
        assert!(num_shards >= 1, "need at least one shard");
        assert!(num_shards <= u16::MAX as usize, "shard id must fit in u16");
        let n = network.num_sensors();
        // Even chunks expressed as cuts: cut[s] = first rank at or past
        // shard s under the `rank * num_shards / n` assignment. The `>=`
        // (not `==`) keeps the cuts sorted when `num_shards > n` leaves
        // some shards without any rank mapping to them.
        let mut cuts = Vec::with_capacity(num_shards + 1);
        for s in 0..num_shards {
            cuts.push(
                (0..n)
                    .find(|&r| r * num_shards / n.max(1) >= s)
                    .unwrap_or(n) as u32,
            );
        }
        cuts.push(n as u32);
        Self::build_with_cuts(network, &cuts, delta_d_miles)
    }

    /// Builds the assignment from an explicit cut vector over the spatial
    /// sensor order — the form recorded by rebalance WAL entries and
    /// checkpoints. `cuts` must have `num_shards + 1` non-decreasing
    /// entries with `cuts[0] == 0` and `cuts[num_shards] == n`.
    pub fn build_with_cuts(network: &RoadNetwork, cuts: &[u32], delta_d_miles: f64) -> Self {
        let n = network.num_sensors();
        assert!(cuts.len() >= 2, "cuts must cover at least one shard");
        let num_shards = cuts.len() - 1;
        assert!(num_shards <= u16::MAX as usize, "shard id must fit in u16");
        assert_eq!(cuts[0], 0, "first cut must be 0");
        assert_eq!(cuts[num_shards] as usize, n, "last cut must be n");
        assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "cuts must be sorted");

        let mut order: Vec<SensorId> = network.sensors().iter().map(|s| s.id).collect();
        order.sort_by(|&a, &b| {
            let (pa, pb) = (network.sensor(a).location, network.sensor(b).location);
            pa.lon
                .total_cmp(&pb.lon)
                .then(pa.lat.total_cmp(&pb.lat))
                .then(a.cmp(&b))
        });

        let mut shard_of = vec![0u16; n];
        for s in 0..num_shards {
            for rank in cuts[s] as usize..cuts[s + 1] as usize {
                shard_of[order[rank].index()] = s as u16;
            }
        }

        let mut cross_neighbors = vec![Vec::new(); n];
        let mut boundary_sensors = 0;
        for sensor in network.sensors() {
            let own = shard_of[sensor.id.index()];
            let cross: Vec<SensorId> = network
                .sensors_near(sensor.id, delta_d_miles)
                .into_iter()
                .filter(|b| shard_of[b.index()] != own)
                .collect();
            if !cross.is_empty() {
                boundary_sensors += 1;
            }
            cross_neighbors[sensor.id.index()] = cross;
        }

        Self {
            num_shards,
            shard_of,
            cross_neighbors,
            boundary_sensors,
            order,
            cuts: cuts.to_vec(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard owning `sensor`.
    #[inline]
    pub fn shard_of(&self, sensor: SensorId) -> usize {
        self.shard_of[sensor.index()] as usize
    }

    /// Whether `sensor` has a δd-neighbor in another shard.
    #[inline]
    pub fn is_boundary(&self, sensor: SensorId) -> bool {
        !self.cross_neighbors[sensor.index()].is_empty()
    }

    /// δd-neighbors of `sensor` owned by other shards.
    #[inline]
    pub fn cross_neighbors(&self, sensor: SensorId) -> &[SensorId] {
        &self.cross_neighbors[sensor.index()]
    }

    /// Total boundary sensors across the deployment.
    pub fn boundary_sensor_count(&self) -> usize {
        self.boundary_sensors
    }

    /// Sensors per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.num_shards];
        for &s in &self.shard_of {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// The fixed spatial sensor order cuts slice.
    pub fn order(&self) -> &[SensorId] {
        &self.order
    }

    /// The cut vector describing this map (`num_shards + 1` entries).
    pub fn cuts(&self) -> &[u32] {
        &self.cuts
    }
}

/// The merger's view of "which sensors can need cross-shard
/// reconciliation", accumulated over every shard-map epoch of a run.
///
/// Rebalancing moves sensors between shards mid-stream, so an event sealed
/// under an old map may still be pending when records arrive under a new
/// one. Reconciliation is therefore driven by the *union* over epochs:
///
/// * a sensor is `boundary` if any epoch flagged it boundary, **or** if it
///   ever migrated between shards (its own temporal fragments may then be
///   split across shards, so it must be indexed and matched like a
///   boundary sensor);
/// * `neighbors[sensor]` unions every epoch's cross-shard δd-neighbors,
///   plus the sensor itself once it has migrated — the merger's candidate
///   scan looks up a record's *neighbors* in its index, never the record's
///   own sensor, and same-sensor fragments split by a migration must still
///   union.
///
/// The info only ever grows, which is conservative: over-approximating the
/// boundary set costs pooling work, never correctness (interior events
/// just pass through the pool as singleton components).
#[derive(Clone, Debug, Default)]
pub struct BoundaryInfo {
    boundary: Vec<bool>,
    neighbors: Vec<Vec<SensorId>>,
    boundary_count: usize,
}

impl BoundaryInfo {
    /// The epoch-0 info: exactly the map's own boundary predicate.
    pub fn from_map(map: &ShardMap) -> Self {
        let n = map.shard_of.len();
        let mut info = Self {
            boundary: vec![false; n],
            neighbors: vec![Vec::new(); n],
            boundary_count: 0,
        };
        for i in 0..n {
            if !map.cross_neighbors[i].is_empty() {
                info.boundary[i] = true;
                info.boundary_count += 1;
                info.neighbors[i] = map.cross_neighbors[i].clone();
            }
        }
        info
    }

    /// Folds a map transition `old → new` into the info: migrated sensors
    /// become boundary (with self-adjacency), and the new map's boundary
    /// predicate is unioned in.
    pub fn accumulate(&mut self, old: &ShardMap, new: &ShardMap) {
        let n = self.boundary.len();
        assert_eq!(old.shard_of.len(), n, "maps must share the deployment");
        assert_eq!(new.shard_of.len(), n, "maps must share the deployment");
        for i in 0..n {
            let sensor = SensorId::new(i as u32);
            if old.shard_of[i] != new.shard_of[i] {
                self.mark(i);
                if !self.neighbors[i].contains(&sensor) {
                    self.neighbors[i].push(sensor);
                }
            }
            if !new.cross_neighbors[i].is_empty() {
                self.mark(i);
                for &nb in &new.cross_neighbors[i] {
                    if !self.neighbors[i].contains(&nb) {
                        self.neighbors[i].push(nb);
                    }
                }
            }
        }
    }

    fn mark(&mut self, i: usize) {
        if !self.boundary[i] {
            self.boundary[i] = true;
            self.boundary_count += 1;
        }
    }

    /// Whether `sensor` needs cross-shard reconciliation under any epoch
    /// seen so far.
    #[inline]
    pub fn is_boundary(&self, sensor: SensorId) -> bool {
        self.boundary[sensor.index()]
    }

    /// Union of cross-shard δd-neighbors across epochs (plus the sensor
    /// itself once migrated).
    #[inline]
    pub fn neighbors(&self, sensor: SensorId) -> &[SensorId] {
        &self.neighbors[sensor.index()]
    }

    /// Sensors flagged boundary.
    pub fn boundary_count(&self) -> usize {
        self.boundary_count
    }
}

/// A run's shard-map epoch chain: the map that routes new records, the
/// [`BoundaryInfo`] accumulated over every epoch, and the cut vector of
/// each rebalance epoch ≥ 1 (epoch 0 is the even [`ShardMap::build`]) —
/// what checkpoints record and recovery rebuilds.
pub(crate) struct EpochChain {
    network: Arc<RoadNetwork>,
    delta_d_miles: f64,
    pub(crate) map: Arc<ShardMap>,
    pub(crate) boundary: Arc<BoundaryInfo>,
    pub(crate) cuts: Vec<Vec<u32>>,
}

impl EpochChain {
    /// Epoch 0: the even map over `shards` shards.
    pub(crate) fn new(network: Arc<RoadNetwork>, shards: usize, delta_d_miles: f64) -> Self {
        let map = ShardMap::build(&network, shards, delta_d_miles);
        Self {
            boundary: Arc::new(BoundaryInfo::from_map(&map)),
            map: Arc::new(map),
            network,
            delta_d_miles,
            cuts: Vec::new(),
        }
    }

    /// The map `cuts` describes and the predicate accumulated through it:
    /// the next epoch, not yet committed.
    pub(crate) fn successor(&self, cuts: &[u32]) -> (Arc<ShardMap>, Arc<BoundaryInfo>) {
        let map = ShardMap::build_with_cuts(&self.network, cuts, self.delta_d_miles);
        let mut boundary = (*self.boundary).clone();
        boundary.accumulate(&self.map, &map);
        (Arc::new(map), Arc::new(boundary))
    }

    /// Makes `next` (from [`successor`](Self::successor)`(cuts)`) current.
    pub(crate) fn commit(&mut self, next: (Arc<ShardMap>, Arc<BoundaryInfo>), cuts: &[u32]) {
        (self.map, self.boundary) = next;
        self.cuts.push(cuts.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_sim::{Scale, SimConfig, TrafficSim};

    fn network() -> RoadNetwork {
        TrafficSim::new(SimConfig::new(Scale::Tiny, 1))
            .network()
            .clone()
    }

    #[test]
    fn single_shard_has_no_boundary() {
        let net = network();
        let map = ShardMap::build(&net, 1, 1.0);
        assert_eq!(map.boundary_sensor_count(), 0);
        for s in net.sensors() {
            assert_eq!(map.shard_of(s.id), 0);
            assert!(!map.is_boundary(s.id));
        }
    }

    #[test]
    fn shards_are_balanced_and_cover_all_sensors() {
        let net = network();
        for shards in [2, 3, 4, 8] {
            let map = ShardMap::build(&net, shards, 1.0);
            let sizes = map.shard_sizes();
            assert_eq!(sizes.iter().sum::<usize>(), net.num_sensors());
            let (min, max) = (
                sizes.iter().filter(|&&s| s > 0).min().copied().unwrap_or(0),
                sizes.iter().max().copied().unwrap(),
            );
            assert!(max - min <= 1, "{shards} shards: uneven sizes {sizes:?}");
        }
    }

    #[test]
    fn oversubscribed_shards_match_per_rank_assignment() {
        // More shards than sensors: surplus shards own no sensors, and
        // every sensor lands on the shard `rank * num_shards / n` names —
        // the assignment the cut vector must reproduce even when some
        // shard ids are skipped.
        let net = network();
        let n = net.num_sensors();
        for shards in [n - 1, n, n + 1, 2 * n + 3] {
            let map = ShardMap::build(&net, shards, 1.0);
            let sizes = map.shard_sizes();
            assert_eq!(sizes.iter().sum::<usize>(), n, "{shards} shards");
            assert!(sizes.iter().all(|&s| s <= 1) || shards < n);
        }
    }

    #[test]
    fn boundary_flags_match_cross_neighbors() {
        let net = network();
        let map = ShardMap::build(&net, 4, 1.0);
        assert!(
            map.boundary_sensor_count() > 0,
            "a 4-way cut must cross δd somewhere"
        );
        for s in net.sensors() {
            let expected: Vec<SensorId> = net
                .sensors_near(s.id, 1.0)
                .into_iter()
                .filter(|b| map.shard_of(*b) != map.shard_of(s.id))
                .collect();
            assert_eq!(map.cross_neighbors(s.id), expected.as_slice());
            assert_eq!(map.is_boundary(s.id), !expected.is_empty());
        }
    }

    #[test]
    fn build_with_cuts_roundtrips_the_even_build() {
        let net = network();
        for shards in [1, 2, 4] {
            let even = ShardMap::build(&net, shards, 1.0);
            let explicit = ShardMap::build_with_cuts(&net, even.cuts(), 1.0);
            assert_eq!(even.shard_of, explicit.shard_of);
            assert_eq!(even.cuts(), explicit.cuts());
            assert_eq!(even.order(), explicit.order());
        }
    }

    #[test]
    fn skewed_cuts_reassign_contiguous_bands() {
        let net = network();
        let n = net.num_sensors() as u32;
        let map = ShardMap::build_with_cuts(&net, &[0, 2, n], 1.0);
        assert_eq!(map.num_shards(), 2);
        let sizes = map.shard_sizes();
        assert_eq!(sizes, vec![2, (n - 2) as usize]);
        // Shard 0 owns exactly the first two sensors of the spatial order.
        for (rank, &s) in map.order().iter().enumerate() {
            assert_eq!(map.shard_of(s), usize::from(rank >= 2));
        }
    }

    #[test]
    fn boundary_info_accumulates_migrations_with_self_adjacency() {
        let net = network();
        let n = net.num_sensors() as u32;
        let old = ShardMap::build(&net, 2, 1.0);
        let new = ShardMap::build_with_cuts(&net, &[0, 2, n], 1.0);
        let base = BoundaryInfo::from_map(&old);
        for s in net.sensors() {
            assert_eq!(base.is_boundary(s.id), old.is_boundary(s.id));
            assert_eq!(base.neighbors(s.id), old.cross_neighbors(s.id));
        }
        let mut info = base.clone();
        info.accumulate(&old, &new);
        let mut migrated = 0;
        for s in net.sensors() {
            let moved = old.shard_of(s.id) != new.shard_of(s.id);
            if moved {
                migrated += 1;
                assert!(info.is_boundary(s.id), "migrated sensor must be boundary");
                assert!(
                    info.neighbors(s.id).contains(&s.id),
                    "migrated sensor must be self-adjacent"
                );
            }
            if old.is_boundary(s.id) || new.is_boundary(s.id) {
                assert!(info.is_boundary(s.id));
            }
            for &nb in old.cross_neighbors(s.id) {
                assert!(info.neighbors(s.id).contains(&nb));
            }
            for &nb in new.cross_neighbors(s.id) {
                assert!(info.neighbors(s.id).contains(&nb));
            }
        }
        assert!(migrated > 0, "the skewed cut must move someone");
        assert!(info.boundary_count() >= base.boundary_count());
    }
}
