//! Indexed cluster integration: Algorithm 3 with inverted-index candidate
//! generation.
//!
//! The naive integration loop evaluates every incoming cluster against the
//! entire tentative result set — `O(n²)` similarity computations to reach
//! the fixpoint. But Equation 2's similarity is *zero-overlap-zero*: the
//! numerators of Equations 3/4 are sums over the key intersections, so a
//! pair sharing no sensor has `SimSF = g(0, 0) = 0` and a pair sharing no
//! (aligned) time window has `SimTF = 0`. A cluster sharing **neither** has
//! `Sim = 0 ≤ δsim` and can never merge. Two inverted indexes — `sensor →
//! result slot` and `(folded) window → result slot` — therefore produce an
//! **exact** candidate set; everything else is pruned without evaluation
//! (`IntegrationStats::candidates_pruned`).
//!
//! Candidates are further screened by an admissible upper bound before the
//! exact similarity is computed. Gathering candidates walks the incoming
//! cluster's own features, so the incoming-side overlap mass `o₁ = Σ_{K₁∩K₂}
//! μ¹` is known exactly for free; the other side's fraction is at most 1.
//! Every balance function `g` is monotone in each argument, hence per
//! dimension
//!
//! ```text
//! SimSF = g(o₁/Σμ¹, o₂/Σμ²) ≤ g(min(1, o₁/Σμ¹), 1)
//! ```
//!
//! and `Sim ≤ ½·(bound_SF + bound_TF)`, where a dimension with no shared
//! keys contributes exactly 0 (not the one-sided bound — `g(0,0) = 0` for
//! all five `g`, including `max`). If the bound is ≤ `δsim` the candidate
//! is skipped (`IntegrationStats::bound_skips`); otherwise
//! [`similarity_parts`] decides. Concretely the per-dimension bound is
//! `p ↦ p` for `min`, `(1+p)/2` for the arithmetic mean, `√p` for the
//! geometric, `2p/(1+p)` for the harmonic, and the vacuous `1` for `max`
//! (admissible but never selective — `max` relies on candidate pruning
//! alone). See DESIGN.md for the admissibility argument.
//!
//! **The indexed path is exact, not approximate.** Candidates are evaluated
//! in result-set order (the same order the naive scan walks, including the
//! `swap_remove` perturbation on merges) and the first above-threshold hit
//! merges, so the indexed integrator reproduces the naive fixpoint
//! *bit-for-bit* — same clusters, same ids, same merge count. The
//! differential suite (`tests/integrate_differential.rs`) asserts this
//! across alignments, balance functions, and adversarial inputs.

use crate::cluster::AtypicalCluster;
use crate::integrate::{Aligned, IntegrationStats, TimeAlignment};
use crate::similarity::similarity_parts;
use cps_core::ids::ClusterIdGen;
use cps_core::{BalanceFunction, Params, SensorId, Severity, TimeWindow};
use cps_index::InvertedIndex;

/// Per-probe scratch: epoch-stamped overlap accumulators, one lane per
/// result slot, reused across probes so candidate gathering allocates only
/// when the slot universe grows.
#[derive(Default)]
struct Scratch {
    epoch: u32,
    /// Stamp marking slots that share ≥ 1 sensor with the probe.
    sf_stamp: Vec<u32>,
    /// Stamp marking slots that share ≥ 1 (aligned) window with the probe.
    tf_stamp: Vec<u32>,
    /// Probe-side severity mass (seconds) on the shared sensors.
    sf_overlap: Vec<u64>,
    /// Probe-side severity mass (seconds) on the shared windows.
    tf_overlap: Vec<u64>,
    /// Slots touched this epoch, in discovery order.
    touched: Vec<u32>,
}

impl Scratch {
    fn begin(&mut self, num_slots: usize) {
        if self.sf_stamp.len() < num_slots {
            self.sf_stamp.resize(num_slots, 0);
            self.tf_stamp.resize(num_slots, 0);
            self.sf_overlap.resize(num_slots, 0);
            self.tf_overlap.resize(num_slots, 0);
        }
        self.touched.clear();
        if self.epoch == u32::MAX {
            self.sf_stamp.fill(0);
            self.tf_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    #[inline]
    fn touch_sf(&mut self, slot: u32, secs: u64) {
        let i = slot as usize;
        if self.sf_stamp[i] != self.epoch {
            self.sf_stamp[i] = self.epoch;
            self.sf_overlap[i] = 0;
            if self.tf_stamp[i] != self.epoch {
                self.touched.push(slot);
            }
        }
        self.sf_overlap[i] = self.sf_overlap[i].saturating_add(secs);
    }

    #[inline]
    fn touch_tf(&mut self, slot: u32, secs: u64) {
        let i = slot as usize;
        if self.tf_stamp[i] != self.epoch {
            self.tf_stamp[i] = self.epoch;
            self.tf_overlap[i] = 0;
            if self.sf_stamp[i] != self.epoch {
                self.touched.push(slot);
            }
        }
        self.tf_overlap[i] = self.tf_overlap[i].saturating_add(secs);
    }
}

/// One dimension of the admissible bound: 0 when no key is shared (then the
/// dimension's similarity is exactly `g(0,0) = 0`), otherwise the one-sided
/// `g(min(1, probe-overlap/probe-total), 1)`.
#[inline]
fn side_bound(g: BalanceFunction, shared: bool, overlap_secs: u64, total: Severity) -> f64 {
    if !shared {
        return 0.0;
    }
    let frac = Severity::from_secs(overlap_secs)
        .fraction_of(total)
        .min(1.0);
    g.apply(frac, 1.0)
}

/// Maintains the Algorithm 3 result set (pairwise similarity ≤ `δsim`)
/// together with inverted indexes over its sensor and (aligned) window
/// keys, supporting incremental admission and exact candidate generation.
///
/// Two modes of use:
///
/// * **batch** — [`crate::integrate::integrate_aligned`] drives the same
///   FIFO work queue as the naive oracle and produces identical output;
/// * **persistent** — `cps-monitor` keeps one integrator alive and
///   [`Self::admit`]s each finalized micro-cluster, so the live
///   macro-cluster set stays at the fixpoint without rescanning.
pub struct IndexedIntegrator {
    params: Params,
    alignment: TimeAlignment,
    /// Slab of result entries; `None` marks a free slot.
    slots: Vec<Option<Aligned>>,
    free: Vec<u32>,
    /// Result-set order: mirrors the naive path's result `Vec` exactly,
    /// including `swap_remove` on merge, so candidate evaluation order (and
    /// hence the chosen merge partner) matches the oracle.
    order: Vec<u32>,
    /// `pos[slot]` = index of `slot` in `order` (valid for live slots).
    pos: Vec<usize>,
    sensors: InvertedIndex<SensorId>,
    windows: InvertedIndex<TimeWindow>,
    scratch: Scratch,
    stats: IntegrationStats,
}

impl IndexedIntegrator {
    /// An empty integrator for the given parameters and alignment.
    pub fn new(params: &Params, alignment: TimeAlignment) -> Self {
        debug_assert!(
            params.delta_sim >= 0.0,
            "index pruning assumes zero-similarity pairs never merge (δsim ≥ 0)"
        );
        Self {
            params: *params,
            alignment,
            slots: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            pos: Vec::new(),
            sensors: InvertedIndex::new(),
            windows: InvertedIndex::new(),
            scratch: Scratch::default(),
            stats: IntegrationStats::default(),
        }
    }

    /// Number of clusters currently in the result set.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the result set is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Counters accumulated over every admission so far.
    pub fn stats(&self) -> IntegrationStats {
        self.stats
    }

    /// Clones the current result set, in result order.
    pub fn snapshot(&self) -> Vec<AtypicalCluster> {
        self.order
            .iter()
            .map(|&slot| {
                self.slots[slot as usize]
                    .as_ref()
                    .expect("ordered slot is live")
                    .cluster
                    .clone()
            })
            .collect()
    }

    /// Consumes the integrator, returning the result set in result order.
    pub fn into_clusters(mut self) -> Vec<AtypicalCluster> {
        self.order
            .iter()
            .map(|&slot| {
                self.slots[slot as usize]
                    .take()
                    .expect("ordered slot is live")
                    .cluster
            })
            .collect()
    }

    /// Admits one cluster, restoring the fixpoint before returning: the
    /// incremental step of Algorithm 3 (merge, then re-place the merged
    /// cluster, until it lands without a hit).
    pub fn admit(&mut self, cluster: AtypicalCluster, ids: &mut ClusterIdGen) {
        let mut entry = Aligned::new(cluster, self.alignment);
        while let Some(merged) = self.place(entry, ids) {
            entry = merged;
        }
    }

    /// One placement attempt: evaluates `entry` against the result set in
    /// order. On the first above-threshold hit the partner is removed and
    /// the merged cluster returned (the caller decides where it re-enters
    /// the work queue); otherwise `entry` is inserted and `None` returned.
    pub(crate) fn place(&mut self, entry: Aligned, ids: &mut ClusterIdGen) -> Option<Aligned> {
        let g = self.params.balance;
        let delta_sim = self.params.delta_sim;

        // Gather candidates: walk the probe's keys through the postings,
        // accumulating the probe-side overlap mass per touched slot.
        self.scratch.begin(self.slots.len());
        for (sensor, severity) in entry.cluster.sf.iter() {
            for &slot in self.sensors.slots(sensor) {
                self.scratch.touch_sf(slot, severity.as_secs());
            }
        }
        for (window, severity) in entry.tf().iter() {
            for &slot in self.windows.slots(window) {
                self.scratch.touch_tf(slot, severity.as_secs());
            }
        }
        self.stats.candidates_pruned += (self.order.len() - self.scratch.touched.len()) as u64;

        // Evaluate candidates in result order — the naive scan order — so
        // the first hit is the same cluster the oracle would merge with.
        let pos = &self.pos;
        self.scratch
            .touched
            .sort_unstable_by_key(|&slot| pos[slot as usize]);
        let sf_total = entry.cluster.sf.total();
        let tf_total = entry.tf().total();

        let mut hit: Option<u32> = None;
        for i in 0..self.scratch.touched.len() {
            let slot = self.scratch.touched[i];
            let idx = slot as usize;
            let epoch = self.scratch.epoch;
            let bound = 0.5
                * (side_bound(
                    g,
                    self.scratch.sf_stamp[idx] == epoch,
                    self.scratch.sf_overlap[idx],
                    sf_total,
                ) + side_bound(
                    g,
                    self.scratch.tf_stamp[idx] == epoch,
                    self.scratch.tf_overlap[idx],
                    tf_total,
                ));
            if bound <= delta_sim {
                self.stats.bound_skips += 1;
                continue;
            }
            self.stats.comparisons += 1;
            let existing = self.slots[idx].as_ref().expect("candidate slot is live");
            let sim = similarity_parts(
                &entry.cluster.sf,
                entry.tf(),
                &existing.cluster.sf,
                existing.tf(),
                g,
            );
            if sim > delta_sim {
                hit = Some(slot);
                break;
            }
        }

        match hit {
            Some(slot) => {
                let existing = self.remove_slot(slot);
                self.stats.merges += 1;
                Some(entry.merge(existing, ids.next_id()))
            }
            None => {
                self.insert_entry(entry);
                None
            }
        }
    }

    /// Inserts a fixpoint-compatible entry at the back of the result order
    /// and registers its keys.
    fn insert_entry(&mut self, entry: Aligned) {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(None);
                self.pos.push(usize::MAX);
                (self.slots.len() - 1) as u32
            }
        };
        self.sensors.insert(slot, entry.cluster.sf.keys());
        self.windows.insert(slot, entry.tf().keys());
        self.pos[slot as usize] = self.order.len();
        self.order.push(slot);
        self.slots[slot as usize] = Some(entry);
    }

    /// Removes a live slot: deregisters its keys and applies the same
    /// `swap_remove` to the result order the naive path applies to its
    /// result `Vec`.
    fn remove_slot(&mut self, slot: u32) -> Aligned {
        let entry = self.slots[slot as usize]
            .take()
            .expect("removed slot is live");
        self.sensors.remove(slot, entry.cluster.sf.keys());
        self.windows.remove(slot, entry.tf().keys());
        let at = self.pos[slot as usize];
        self.order.swap_remove(at);
        if at < self.order.len() {
            self.pos[self.order[at] as usize] = at;
        }
        self.free.push(slot);
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{SpatialFeature, TemporalFeature};
    use crate::integrate::{integrate_aligned, integrate_aligned_naive};
    use cps_core::ClusterId;

    fn cluster(id: u64, sensors: &[(u32, f64)], windows: &[(u32, f64)]) -> AtypicalCluster {
        let sf: SpatialFeature = sensors
            .iter()
            .map(|&(s, m)| (SensorId::new(s), Severity::from_minutes(m)))
            .collect();
        let tf: TemporalFeature = windows
            .iter()
            .map(|&(w, m)| (TimeWindow::new(w), Severity::from_minutes(m)))
            .collect();
        // Balance SF/TF totals with a sink key only when they differ, so
        // tests over disjoint key sets stay genuinely disjoint.
        let (st, tt) = (sf.total(), tf.total());
        let mut sf = sf;
        let mut tf = tf;
        if st < tt {
            sf.add(SensorId::new(9999), tt.saturating_sub(st));
        } else if tt < st {
            tf.add(TimeWindow::new(999_999), st.saturating_sub(tt));
        }
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    fn uniform(id: u64, sensors: &[u32], windows: &[u32]) -> AtypicalCluster {
        cluster(
            id,
            &sensors.iter().map(|&s| (s, 10.0)).collect::<Vec<_>>(),
            &windows.iter().map(|&w| (w, 10.0)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn disjoint_clusters_are_all_pruned() {
        let params = Params::paper_defaults();
        let inputs: Vec<AtypicalCluster> = (0..10)
            .map(|i| {
                uniform(
                    i,
                    &[i as u32 * 10, i as u32 * 10 + 1],
                    &[i as u32 * 10, i as u32 * 10 + 1],
                )
            })
            .collect();
        let mut ids = ClusterIdGen::new(100);
        let (out, stats) = integrate_aligned(inputs, &params, TimeAlignment::Absolute, &mut ids);
        assert_eq!(out.len(), 10);
        assert_eq!(stats.comparisons, 0, "no pair shares a key");
        assert_eq!(stats.bound_skips, 0);
        assert_eq!(stats.candidates_pruned, 45, "all 10·9/2 pairs pruned");
    }

    #[test]
    fn identical_clusters_collapse_with_one_comparison_each() {
        let params = Params::paper_defaults();
        let inputs: Vec<AtypicalCluster> =
            (0..5).map(|i| uniform(i, &[1, 2, 3], &[7, 8, 9])).collect();
        let mut ids = ClusterIdGen::new(100);
        let (out, stats) = integrate_aligned(inputs, &params, TimeAlignment::Absolute, &mut ids);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].merged_count, 5);
        assert_eq!(stats.merges, 4);
        assert_eq!(stats.candidates_pruned, 0);
    }

    #[test]
    fn min_balance_bound_skips_weak_overlaps() {
        // Under g = min the one-sided bound equals the probe's own overlap
        // fraction: a probe putting 1/11 of its mass on the shared sensor
        // (and nothing on shared windows) is bounded by ½·(1/11 + 0) ≤ δsim
        // and skipped without an exact evaluation.
        let params = Params::paper_defaults().with_balance(BalanceFunction::Min);
        let a = cluster(1, &[(1, 100.0), (2, 10.0)], &[(5, 110.0)]);
        let b = cluster(2, &[(2, 1.0), (3, 100.0)], &[(9, 101.0)]);
        let mut ids = ClusterIdGen::new(10);
        let (out, stats) =
            integrate_aligned(vec![a, b], &params, TimeAlignment::Absolute, &mut ids);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.bound_skips, 1, "shared sensor, but bound ≤ δsim");
        assert_eq!(stats.comparisons, 0);
    }

    #[test]
    fn persistent_admission_matches_batch_result() {
        let params = Params::paper_defaults();
        // Six groups of identical clusters, disjoint across groups, so the
        // fixpoint partition is order-independent and batch vs eager
        // admission must agree on content.
        let inputs: Vec<AtypicalCluster> = (0..20)
            .map(|i| {
                let base = (i % 6) as u32 * 4;
                uniform(i, &[base, base + 1, base + 2], &[base, base + 1, base + 2])
            })
            .collect();
        let mut ids_batch = ClusterIdGen::new(500);
        let (batch, _) = integrate_aligned(
            inputs.clone(),
            &params,
            TimeAlignment::Absolute,
            &mut ids_batch,
        );

        let mut ids_live = ClusterIdGen::new(500);
        let mut live = IndexedIntegrator::new(&params, TimeAlignment::Absolute);
        for c in inputs {
            live.admit(c, &mut ids_live);
        }
        assert_eq!(live.len(), batch.len());
        // Content equality as multisets: ids can differ because the batch
        // queue defers merged clusters while admission re-places eagerly.
        let mut batch_sets: Vec<_> = batch
            .iter()
            .map(|c| (c.sf.clone(), c.tf.clone(), c.merged_count))
            .collect();
        let mut live_sets: Vec<_> = live
            .snapshot()
            .iter()
            .map(|c| (c.sf.clone(), c.tf.clone(), c.merged_count))
            .collect();
        batch_sets.sort_by_key(|t| format!("{t:?}"));
        live_sets.sort_by_key(|t| format!("{t:?}"));
        assert_eq!(batch_sets, live_sets);
        assert!(live.stats().merges > 0);
    }

    #[test]
    fn slab_reuses_slots_across_merges() {
        // Repeated merges churn slots; the free list must recycle them and
        // keep postings consistent (exercised by naive equivalence).
        let params = Params::paper_defaults().with_delta_sim(0.3);
        let inputs: Vec<AtypicalCluster> = (0..30)
            .map(|i| {
                let base = (i % 3) as u32;
                uniform(i, &[base, base + 1], &[10, 11])
            })
            .collect();
        let mut ids_a = ClusterIdGen::new(1000);
        let mut ids_b = ClusterIdGen::new(1000);
        let (indexed, is) =
            integrate_aligned(inputs.clone(), &params, TimeAlignment::Absolute, &mut ids_a);
        let (naive, ns) =
            integrate_aligned_naive(inputs, &params, TimeAlignment::Absolute, &mut ids_b);
        assert_eq!(indexed, naive);
        assert_eq!(is.merges, ns.merges);
        assert!(is.comparisons <= ns.comparisons);
    }
}
