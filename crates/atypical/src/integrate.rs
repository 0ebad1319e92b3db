//! Cluster integration (Algorithm 3).
//!
//! Repeatedly merges any pair of clusters whose similarity exceeds `δsim`
//! until no pair qualifies. The output set is a *fixpoint*: pairwise
//! similarity ≤ `δsim`. Because the merge operation is commutative and
//! associative (Property 3), any merge order yields a valid result; like
//! the paper's hard clustering, the *partition* itself can depend on order
//! when similarities straddle the threshold (§V-D discusses why that is
//! acceptable) — `integrate` is deterministic for a given input order, and
//! the test-suite quantifies the order effect explicitly.

use crate::cluster::AtypicalCluster;
use crate::feature::TemporalFeature;
use crate::integrate_index::IndexedIntegrator;
use crate::similarity::{fold_tf, similarity, similarity_folded, similarity_parts};
use cps_core::ids::ClusterIdGen;
use cps_core::{ClusterId, Params};
use std::collections::VecDeque;

/// How temporal features are compared during integration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeAlignment {
    /// Compare absolute time windows. Events on different days never look
    /// temporally similar — appropriate for within-day integration only.
    Absolute,
    /// Compare time-of-day windows (fold by `windows_per_day`): recurring
    /// daily events at the same clock time align, which is how the forest
    /// integrates a month of rush-hour jams into one macro-cluster while
    /// keeping the morning/evening pair of Example 5 apart.
    TimeOfDay {
        /// Windows per day of the deployment's [`cps_core::WindowSpec`].
        windows_per_day: u32,
    },
}

/// Statistics from one integration run.
///
/// `comparisons` counts similarity *evaluations*, not distinct unordered
/// cluster pairs: when a merge re-enqueues the merged cluster at the back of
/// the work queue, it is compared afresh against result members its
/// constituents were already compared with (the merged cluster is a new
/// cluster, so those evaluations are not redundant — but they do mean the
/// count exceeds `n·(n−1)/2` on merge-heavy inputs). The
/// `naive_comparisons_count_reevaluations_after_merge` regression test pins
/// this behavior for the naive oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrationStats {
    /// Pairwise similarity evaluations performed (exact `Sim` computations;
    /// on the indexed path this excludes pruned candidates and bound skips).
    pub comparisons: u64,
    /// Merge operations performed.
    pub merges: u64,
    /// Result-set members never evaluated against an incoming cluster
    /// because they share no sensor and no (aligned) window with it — the
    /// inverted index proves their similarity is exactly zero. Always zero
    /// on the naive path.
    pub candidates_pruned: u64,
    /// Candidates skipped because an admissible upper bound on their
    /// similarity was already ≤ `δsim`, without computing the exact value.
    /// Always zero on the naive path.
    pub bound_skips: u64,
}

impl IntegrationStats {
    /// Folds another run's counters into this one (forest roll-ups
    /// accumulate stats across many integration calls).
    ///
    /// **Invariant: order-independent.** Every field is a plain counter
    /// sum, so absorbing a set of per-node stats yields the same totals
    /// in any order. The deterministic parallel engine (`crate::par`)
    /// depends on this to report identical stats at every thread count;
    /// `par::tests::stats_absorb_is_order_independent` is the regression
    /// test that gates adding any order-sensitive field here.
    pub fn absorb(&mut self, other: IntegrationStats) {
        self.comparisons += other.comparisons;
        self.merges += other.merges;
        self.candidates_pruned += other.candidates_pruned;
        self.bound_skips += other.bound_skips;
    }
}

/// A cluster paired with its alignment-folded temporal feature, the unit
/// both integration strategies operate on. Folding is done once per input
/// and maintained incrementally through merges (folded features are
/// algebraic too).
pub(crate) struct Aligned {
    pub(crate) cluster: AtypicalCluster,
    /// `Some(folded TF)` under [`TimeAlignment::TimeOfDay`], `None` under
    /// [`TimeAlignment::Absolute`].
    pub(crate) folded: Option<TemporalFeature>,
}

impl Aligned {
    /// Wraps an input cluster, folding its temporal feature if needed.
    pub(crate) fn new(cluster: AtypicalCluster, alignment: TimeAlignment) -> Self {
        let folded = match alignment {
            TimeAlignment::Absolute => None,
            TimeAlignment::TimeOfDay { windows_per_day } => {
                Some(fold_tf(&cluster.tf, windows_per_day))
            }
        };
        Self { cluster, folded }
    }

    /// The temporal feature similarity is computed on: the folded one when
    /// present, the raw one otherwise.
    pub(crate) fn tf(&self) -> &TemporalFeature {
        self.folded.as_ref().unwrap_or(&self.cluster.tf)
    }

    /// Equation 2 against another aligned cluster.
    pub(crate) fn similarity_to(&self, other: &Aligned, g: cps_core::BalanceFunction) -> f64 {
        similarity_parts(
            &self.cluster.sf,
            self.tf(),
            &other.cluster.sf,
            other.tf(),
            g,
        )
    }

    /// Merges two aligned clusters (Algorithm 2 plus incremental fold
    /// maintenance).
    pub(crate) fn merge(self, other: Aligned, id: ClusterId) -> Aligned {
        let folded = match (self.folded, other.folded) {
            (Some(a), Some(b)) => Some(a.merge(&b)),
            _ => None,
        };
        Aligned {
            cluster: self.cluster.merge(&other.cluster, id),
            folded,
        }
    }
}

/// Integrates clusters into macro-clusters (Algorithm 3) with absolute time
/// comparison. See [`integrate_aligned`] for the cross-day variant.
pub fn integrate(
    clusters: Vec<AtypicalCluster>,
    params: &Params,
    ids: &mut ClusterIdGen,
) -> Vec<AtypicalCluster> {
    integrate_aligned(clusters, params, TimeAlignment::Absolute, ids).0
}

/// [`integrate`] with stats and absolute alignment.
pub fn integrate_with_stats(
    clusters: Vec<AtypicalCluster>,
    params: &Params,
    ids: &mut ClusterIdGen,
) -> (Vec<AtypicalCluster>, IntegrationStats) {
    integrate_aligned(clusters, params, TimeAlignment::Absolute, ids)
}

/// Integrates clusters into macro-clusters (Algorithm 3) with inverted-index
/// candidate generation ([`IndexedIntegrator`]). It walks the same work
/// queue in the same order as [`integrate_aligned_naive`] and merges with
/// the same first above-threshold result member, so the output is
/// **identical** — the index only skips evaluations it proves are ≤ `δsim`
/// (`tests/integrate_differential.rs` asserts the equivalence).
pub fn integrate_aligned(
    clusters: Vec<AtypicalCluster>,
    params: &Params,
    alignment: TimeAlignment,
    ids: &mut ClusterIdGen,
) -> (Vec<AtypicalCluster>, IntegrationStats) {
    let mut integrator = IndexedIntegrator::new(params, alignment);
    let mut queue: VecDeque<Aligned> = clusters
        .into_iter()
        .map(|c| Aligned::new(c, alignment))
        .collect();
    while let Some(entry) = queue.pop_front() {
        if let Some(merged) = integrator.place(entry, ids) {
            // Re-enqueue at the back, exactly like the naive work queue.
            queue.push_back(merged);
        }
    }
    let stats = integrator.stats();
    let out = integrator.into_clusters();
    debug_assert!(
        is_fixpoint_aligned(&out, params, alignment),
        "indexed integration must return a pairwise-non-similar set"
    );
    (out, stats)
}

/// Integrates clusters into macro-clusters (Algorithm 3) with the naive
/// full pairwise scan — the reference the tests hold
/// [`integrate_aligned`] to.
///
/// Work-queue formulation: every cluster is compared against the tentative
/// result set (an invariant: pairwise non-similar). On a hit the pair is
/// merged and re-enqueued, re-examining it against everything — exactly the
/// fixpoint Algorithm 3 reaches, in `O(n²)` comparisons when nothing merges
/// and `O(n·m)` extra work for `m` merges (Proposition 3's bound). Note the
/// re-enqueue means [`IntegrationStats::comparisons`] counts evaluations,
/// not distinct pairs: a merged cluster is compared against result members
/// its constituents already saw (see the stats type's docs).
///
/// Folded temporal features are computed once per input and merged
/// incrementally (they are algebraic too), so alignment adds `O(l)` per
/// cluster, not per comparison.
pub fn integrate_aligned_naive(
    clusters: Vec<AtypicalCluster>,
    params: &Params,
    alignment: TimeAlignment,
    ids: &mut ClusterIdGen,
) -> (Vec<AtypicalCluster>, IntegrationStats) {
    let mut stats = IntegrationStats::default();
    let mut queue: VecDeque<Aligned> = clusters
        .into_iter()
        .map(|c| Aligned::new(c, alignment))
        .collect();
    let mut result: Vec<Aligned> = Vec::with_capacity(queue.len());

    while let Some(candidate) = queue.pop_front() {
        let mut hit = None;
        for (i, existing) in result.iter().enumerate() {
            stats.comparisons += 1;
            if candidate.similarity_to(existing, params.balance) > params.delta_sim {
                hit = Some(i);
                break;
            }
        }
        match hit {
            Some(i) => {
                let existing = result.swap_remove(i);
                stats.merges += 1;
                queue.push_back(candidate.merge(existing, ids.next_id()));
            }
            None => result.push(candidate),
        }
    }
    let out: Vec<AtypicalCluster> = result.into_iter().map(|e| e.cluster).collect();
    debug_assert!(
        is_fixpoint_aligned(&out, params, alignment),
        "naive integration must return a pairwise-non-similar set"
    );
    (out, stats)
}

/// Checks the Algorithm-3 fixpoint condition: no pair in `clusters` exceeds
/// `δsim`. Used by tests and debug assertions.
pub fn is_fixpoint(clusters: &[AtypicalCluster], params: &Params) -> bool {
    is_fixpoint_aligned(clusters, params, TimeAlignment::Absolute)
}

/// [`is_fixpoint`] under an explicit [`TimeAlignment`]: the pairwise check
/// uses the same similarity the integration run used, so every `integrate*`
/// return site can `debug_assert!` it. `O(n²)` — debug builds only.
pub fn is_fixpoint_aligned(
    clusters: &[AtypicalCluster],
    params: &Params,
    alignment: TimeAlignment,
) -> bool {
    for (i, a) in clusters.iter().enumerate() {
        for b in &clusters[i + 1..] {
            let sim = match alignment {
                TimeAlignment::Absolute => similarity(a, b, params.balance),
                TimeAlignment::TimeOfDay { windows_per_day } => {
                    similarity_folded(a, b, params.balance, windows_per_day)
                }
            };
            if sim > params.delta_sim {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{SpatialFeature, TemporalFeature};
    use cps_core::{ClusterId, SensorId, Severity, TimeWindow};

    fn cluster(id: u64, sensors: &[u32], windows: &[u32]) -> AtypicalCluster {
        let sf: SpatialFeature = sensors
            .iter()
            .map(|&s| (SensorId::new(s), Severity::from_minutes(10.0)))
            .collect();
        let tf: TemporalFeature = windows
            .iter()
            .map(|&w| (TimeWindow::new(w), Severity::from_minutes(10.0)))
            .collect();
        // Balance totals through uniform weights: give TF the same total as
        // SF by scaling — simplest is to require equal counts in tests.
        assert_eq!(
            sensors.len(),
            windows.len(),
            "test helper needs equal sizes"
        );
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    fn params() -> Params {
        Params::paper_defaults()
    }

    #[test]
    fn similar_chain_collapses_to_one() {
        // a~b, b~c (transitively mergeable through the macro).
        let a = cluster(1, &[1, 2, 3, 4], &[10, 11, 12, 13]);
        let b = cluster(2, &[2, 3, 4, 5], &[11, 12, 13, 14]);
        let c = cluster(3, &[3, 4, 5, 6], &[12, 13, 14, 15]);
        let mut ids = ClusterIdGen::new(100);
        let out = integrate(vec![a, b, c], &params(), &mut ids);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].merged_count, 3);
        assert_eq!(out[0].severity(), Severity::from_minutes(120.0));
    }

    #[test]
    fn dissimilar_clusters_stay_apart() {
        let a = cluster(1, &[1, 2], &[10, 11]);
        let b = cluster(2, &[50, 51], &[10, 11]); // same time, disjoint space
        let c = cluster(3, &[1, 2], &[500, 501]); // same space, disjoint time
        let mut ids = ClusterIdGen::new(100);
        let out = integrate(vec![a, b, c], &params(), &mut ids);
        // sim(a,b) = ½(0 + 1) = 0.5, not > 0.5 ⇒ no merge; sim(a,c) likewise.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn result_is_a_fixpoint() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let clusters: Vec<AtypicalCluster> = (0..40)
            .map(|i| {
                let base_s = rng.gen_range(0..30u32);
                let base_w = rng.gen_range(0..30u32);
                let keys_s: Vec<u32> = (0..4).map(|k| base_s + k).collect();
                let keys_w: Vec<u32> = (0..4).map(|k| base_w + k).collect();
                cluster(i, &keys_s, &keys_w)
            })
            .collect();
        let p = params();
        let mut ids = ClusterIdGen::new(1000);
        let (out, stats) = integrate_with_stats(clusters, &p, &mut ids);
        assert!(is_fixpoint(&out, &p));
        assert!(stats.comparisons > 0);
    }

    #[test]
    fn severity_is_conserved() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        let clusters: Vec<AtypicalCluster> = (0..30)
            .map(|i| {
                let b = rng.gen_range(0..20u32);
                cluster(i, &[b, b + 1, b + 2], &[b, b + 1, b + 2])
            })
            .collect();
        let total_before: Severity = clusters.iter().map(|c| c.severity()).sum();
        let mut ids = ClusterIdGen::new(1000);
        let out = integrate(clusters, &params(), &mut ids);
        let total_after: Severity = out.iter().map(|c| c.severity()).sum();
        assert_eq!(total_before, total_after);
    }

    #[test]
    fn merged_counts_sum_to_input_count() {
        let clusters: Vec<AtypicalCluster> = (0..10)
            .map(|i| cluster(i, &[i as u32 / 2], &[i as u32 / 2]))
            .collect();
        let mut ids = ClusterIdGen::new(1000);
        let out = integrate(clusters, &params(), &mut ids);
        let merged: u32 = out.iter().map(|c| c.merged_count).sum();
        assert_eq!(merged, 10);
    }

    #[test]
    fn order_shuffling_keeps_significant_mass_stable() {
        // §V-D: hard clustering is order-sensitive, but the effect on large
        // clusters is bounded. Verify total severity of big clusters varies
        // by < 20 % across shuffles.
        use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let clusters: Vec<AtypicalCluster> = (0..60)
            .map(|i| {
                let b = rng.gen_range(0..12u32) * 3;
                cluster(i, &[b, b + 1, b + 2, b + 3], &[b, b + 1, b + 2, b + 3])
            })
            .collect();
        let p = params();
        let mut biggest = Vec::new();
        for shuffle in 0..5 {
            let mut input = clusters.clone();
            let mut srng = StdRng::seed_from_u64(shuffle);
            input.shuffle(&mut srng);
            let mut ids = ClusterIdGen::new(1000);
            let out = integrate(input, &p, &mut ids);
            let max_sev = out.iter().map(|c| c.severity()).max().unwrap();
            biggest.push(max_sev.as_minutes());
        }
        let lo = biggest.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = biggest.iter().cloned().fold(0.0, f64::max);
        assert!(hi / lo < 1.2, "order effect too large: {biggest:?}");
    }

    #[test]
    fn time_of_day_alignment_merges_recurring_days() {
        // The same cluster shape on three consecutive days (windows shifted
        // by 288 each day).
        let wpd = 288u32;
        let daily: Vec<AtypicalCluster> = (0..3u32)
            .map(|d| {
                cluster(
                    u64::from(d),
                    &[1, 2, 3],
                    &[d * wpd + 100, d * wpd + 101, d * wpd + 102],
                )
            })
            .collect();
        let p = params();
        let mut ids = ClusterIdGen::new(50);
        let (absolute, _) = integrate_aligned(daily.clone(), &p, TimeAlignment::Absolute, &mut ids);
        assert_eq!(
            absolute.len(),
            3,
            "absolute windows never align across days"
        );
        let (folded, stats) = integrate_aligned(
            daily,
            &p,
            TimeAlignment::TimeOfDay {
                windows_per_day: wpd,
            },
            &mut ids,
        );
        assert_eq!(folded.len(), 1, "recurring event integrates when folded");
        assert_eq!(folded[0].merged_count, 3);
        assert_eq!(stats.merges, 2);
        // Absolute windows are preserved in the merged temporal feature.
        assert_eq!(folded[0].tf.len(), 9);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Strategy: a random cluster over a small key universe (SF and TF
        /// key counts equal so the invariant helper applies).
        fn arb_cluster(id: u64) -> impl Strategy<Value = AtypicalCluster> {
            (0u32..24, 2u32..6).prop_map(move |(base, n)| {
                let keys_s: Vec<u32> = (base..base + n).collect();
                let keys_w: Vec<u32> = (base..base + n).collect();
                cluster(id, &keys_s, &keys_w)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Severity and micro counts are conserved by integration,
            /// regardless of input, threshold or balance function.
            #[test]
            fn prop_integration_conserves_mass(
                seeds in prop::collection::vec(0u64..100, 1..25),
                delta_sim in 0.05f64..0.95,
                g_idx in 0usize..5,
            ) {
                let clusters: Vec<AtypicalCluster> = seeds
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| {
                        let base = (s % 20) as u32;
                        let n = 2 + (s % 4) as u32;
                        let keys: Vec<u32> = (base..base + n).collect();
                        cluster(i as u64, &keys, &keys)
                    })
                    .collect();
                let p = Params::paper_defaults()
                    .with_delta_sim(delta_sim)
                    .with_balance(cps_core::BalanceFunction::ALL[g_idx]);
                let total_before: Severity = clusters.iter().map(|c| c.severity()).sum();
                let n_before = clusters.len() as u32;
                let mut ids = ClusterIdGen::new(10_000);
                let (out, stats) = integrate_with_stats(clusters, &p, &mut ids);
                let total_after: Severity = out.iter().map(|c| c.severity()).sum();
                let merged: u32 = out.iter().map(|c| c.merged_count).sum();
                prop_assert_eq!(total_before, total_after);
                prop_assert_eq!(merged, n_before);
                prop_assert_eq!(out.len() as u64, u64::from(n_before) - stats.merges);
                prop_assert!(is_fixpoint(&out, &p));
            }

            /// Folded integration also conserves mass and reaches a folded
            /// fixpoint.
            #[test]
            fn prop_folded_integration_conserves_mass(
                pair in (prop::collection::vec(0u64..50, 1..15), 1u32..4),
            ) {
                let (seeds, day_span) = pair;
                let wpd = 288u32;
                let clusters: Vec<AtypicalCluster> = seeds
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| {
                        let day = (s % u64::from(day_span)) as u32;
                        let base = (s % 15) as u32;
                        let keys_s: Vec<u32> = (base..base + 3).collect();
                        let keys_w: Vec<u32> = (0..3).map(|k| day * wpd + base + k).collect();
                        cluster(i as u64, &keys_s, &keys_w)
                    })
                    .collect();
                let p = Params::paper_defaults();
                let total_before: Severity = clusters.iter().map(|c| c.severity()).sum();
                let mut ids = ClusterIdGen::new(10_000);
                let (out, _) = integrate_aligned(
                    clusters,
                    &p,
                    TimeAlignment::TimeOfDay { windows_per_day: wpd },
                    &mut ids,
                );
                let total_after: Severity = out.iter().map(|c| c.severity()).sum();
                prop_assert_eq!(total_before, total_after);
                for (i, a) in out.iter().enumerate() {
                    for b in &out[i + 1..] {
                        prop_assert!(
                            crate::similarity::similarity_folded(a, b, p.balance, wpd)
                                <= p.delta_sim
                        );
                    }
                }
            }

            /// Single-use check used by arb_cluster (keeps the strategy
            /// honest about the SF/TF invariant).
            #[test]
            fn prop_arb_cluster_valid(c in arb_cluster(7)) {
                prop_assert_eq!(c.sf.total(), c.tf.total());
            }
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let mut ids = ClusterIdGen::new(1);
        assert!(integrate(vec![], &params(), &mut ids).is_empty());
        let one = cluster(1, &[1], &[1]);
        let out = integrate(vec![one.clone()], &params(), &mut ids);
        assert_eq!(out, vec![one]);
    }

    /// Pins the naive oracle's `comparisons` accounting: the work-queue
    /// re-enqueues merged clusters at the back, so result members already
    /// examined by a merge's constituents are evaluated again against the
    /// merged cluster. With input `[a, b, c]` where only `b ~ c`:
    ///
    /// * `a` enters an empty result — 0 evaluations;
    /// * `b` vs `a` — 1 evaluation, no hit;
    /// * `c` vs `a` (miss), `c` vs `b` (hit, merge) — 2 evaluations;
    /// * merged `b∪c` re-enqueued, vs `a` — 1 evaluation (a *new* cluster,
    ///   but `a` was already compared against both constituents).
    ///
    /// Total: 4 evaluations for 3 distinct input pairs, 1 merge. This is an
    /// evaluation count by design (the merged cluster's similarity to `a`
    /// is genuinely unknown); this test exists so any future change to the
    /// accounting is a conscious one.
    #[test]
    fn naive_comparisons_count_reevaluations_after_merge() {
        let a = cluster(1, &[100, 101], &[100, 101]);
        let b = cluster(2, &[1, 2, 3, 4], &[10, 11, 12, 13]);
        let c = cluster(3, &[2, 3, 4, 5], &[11, 12, 13, 14]);
        let mut ids = ClusterIdGen::new(50);
        let (out, stats) =
            integrate_aligned_naive(vec![a, b, c], &params(), TimeAlignment::Absolute, &mut ids);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.merges, 1);
        assert_eq!(stats.comparisons, 4, "3 distinct pairs + 1 re-evaluation");
        assert_eq!(stats.candidates_pruned, 0, "naive path never prunes");
        assert_eq!(stats.bound_skips, 0, "naive path never bound-skips");
    }

    /// [`integrate_aligned`] (indexed) and the naive reference return
    /// identical clusters (ids included) and identical merge counts, and
    /// the indexed one never evaluates more pairs.
    #[test]
    fn dispatch_strategies_agree_exactly() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        let clusters: Vec<AtypicalCluster> = (0..50)
            .map(|i| {
                let base = rng.gen_range(0..40u32);
                let keys: Vec<u32> = (base..base + 3).collect();
                cluster(i, &keys, &keys)
            })
            .collect();
        for alignment in [
            TimeAlignment::Absolute,
            TimeAlignment::TimeOfDay {
                windows_per_day: 288,
            },
        ] {
            let mut ids_n = ClusterIdGen::new(1000);
            let mut ids_i = ClusterIdGen::new(1000);
            let (naive, ns) =
                integrate_aligned_naive(clusters.clone(), &params(), alignment, &mut ids_n);
            let (indexed, is) =
                integrate_aligned(clusters.clone(), &params(), alignment, &mut ids_i);
            assert_eq!(naive, indexed, "{alignment:?}");
            assert_eq!(ns.merges, is.merges, "{alignment:?}");
            assert!(is.comparisons <= ns.comparisons, "{alignment:?}");
        }
    }
}
