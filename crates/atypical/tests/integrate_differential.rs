//! Differential tests: indexed integration against the naive oracle.
//!
//! [`integrate_aligned`] (inverted-index candidate generation) and
//! [`integrate_aligned_naive`] are two implementations of Algorithm 3. The
//! indexed path claims to be **bit-identical** to the naive scan — same clusters, same IDs, same
//! result order, same merge count — while skipping only comparisons the
//! inverted indexes or the admissible similarity bound prove are
//! ≤ `δsim`. These tests check that claim across random inputs (seeded
//! through `cps-testkit`; rerun a failure with `CPS_FAULT_SEED=<seed>`),
//! both time alignments, all five balance functions, and the adversarial
//! shapes that stress each pruning rule.

use atypical::integrate::{
    integrate_aligned, integrate_aligned_naive, is_fixpoint_aligned, IntegrationStats,
    TimeAlignment,
};
use atypical::AtypicalCluster;
use cps_core::ids::ClusterIdGen;
use cps_core::{BalanceFunction, ClusterId, Params, SensorId, Severity, TimeWindow};
use cps_testkit::fixtures::random_clusters;
use cps_testkit::{canonicalize, run_seeded};

const ALIGNMENTS: [TimeAlignment; 2] = [
    TimeAlignment::Absolute,
    TimeAlignment::TimeOfDay {
        windows_per_day: 96,
    },
];

/// Runs both strategies on the same input and checks every differential
/// invariant; returns `(naive, indexed)` stats for extra assertions.
fn check_equivalence(
    input: &[AtypicalCluster],
    params: &Params,
    alignment: TimeAlignment,
    context: &str,
) -> (IntegrationStats, IntegrationStats) {
    let mut naive_ids = ClusterIdGen::new(1_000_000);
    let mut indexed_ids = ClusterIdGen::new(1_000_000);
    let (naive, naive_stats) =
        integrate_aligned_naive(input.to_vec(), params, alignment, &mut naive_ids);
    let (indexed, indexed_stats) =
        integrate_aligned(input.to_vec(), params, alignment, &mut indexed_ids);

    // Both outputs reach the Algorithm 3 fixpoint.
    assert!(
        is_fixpoint_aligned(&naive, params, alignment),
        "{context}: naive output is not a fixpoint"
    );
    assert!(
        is_fixpoint_aligned(&indexed, params, alignment),
        "{context}: indexed output is not a fixpoint"
    );
    // Identical multiset of cluster contents (order- and ID-free)...
    assert_eq!(
        canonicalize(&naive),
        canonicalize(&indexed),
        "{context}: cluster multisets diverge"
    );
    // ...and in fact bit-identical output: same order, same fresh IDs.
    assert_eq!(naive, indexed, "{context}: outputs are not bit-identical");
    assert_eq!(
        naive_stats.merges, indexed_stats.merges,
        "{context}: merge counts diverge"
    );
    // The index only ever *skips* evaluations.
    assert!(
        indexed_stats.comparisons <= naive_stats.comparisons,
        "{context}: indexed did {} comparisons, naive {}",
        indexed_stats.comparisons,
        naive_stats.comparisons
    );
    // Evaluations plus bound skips never exceed the naive scan: both
    // count result members at positions up to the first hit, and the
    // indexed side only considers the candidate subset of those.
    // (`candidates_pruned` is excluded — it is charged for the whole
    // result set upfront, including positions past the hit that a naive
    // scan never reaches, so exact accounting only holds merge-free.)
    assert!(
        indexed_stats.comparisons + indexed_stats.bound_skips <= naive_stats.comparisons,
        "{context}: indexed evaluated {} + skipped {}, naive evaluated {}",
        indexed_stats.comparisons,
        indexed_stats.bound_skips,
        naive_stats.comparisons
    );
    if naive_stats.merges == 0 {
        // Merge-free, the scan lengths match member-for-member, so every
        // naive evaluation is accounted for: evaluated exactly, pruned by
        // the indexes, or skipped by the bound.
        assert_eq!(
            indexed_stats.comparisons + indexed_stats.candidates_pruned + indexed_stats.bound_skips,
            naive_stats.comparisons,
            "{context}: merge-free comparison accounting diverges"
        );
    }
    (naive_stats, indexed_stats)
}

/// Hand-built cluster over explicit `(key, severity-seconds)` pairs. SF
/// and TF totals are balanced with a sink key only when they differ, so
/// disjointness of the listed keys is preserved.
fn cluster(id: u64, sf: &[(u32, u64)], tf: &[(u32, u64)]) -> AtypicalCluster {
    let mut sf: Vec<(SensorId, Severity)> = sf
        .iter()
        .map(|&(s, secs)| (SensorId::new(s), Severity::from_secs(secs)))
        .collect();
    let mut tf: Vec<(TimeWindow, Severity)> = tf
        .iter()
        .map(|&(w, secs)| (TimeWindow::new(w), Severity::from_secs(secs)))
        .collect();
    let st: u64 = sf.iter().map(|(_, s)| s.as_secs()).sum();
    let tt: u64 = tf.iter().map(|(_, s)| s.as_secs()).sum();
    if st < tt {
        sf.push((SensorId::new(999_999), Severity::from_secs(tt - st)));
    } else if tt < st {
        tf.push((TimeWindow::new(999_999), Severity::from_secs(st - tt)));
    }
    AtypicalCluster::new(
        ClusterId::new(id),
        sf.into_iter().collect(),
        tf.into_iter().collect(),
    )
}

#[test]
fn random_inputs_all_alignments_all_balances() {
    run_seeded("random_inputs_all_alignments_all_balances", |seed| {
        for round in 0..8u64 {
            let input = random_clusters(seed.wrapping_add(round), 40, 8);
            for alignment in ALIGNMENTS {
                for g in BalanceFunction::ALL {
                    let params = Params::paper_defaults().with_balance(g);
                    check_equivalence(
                        &input,
                        &params,
                        alignment,
                        &format!("seed {seed} round {round} {alignment:?} {g:?}"),
                    );
                }
            }
        }
    });
}

#[test]
fn random_inputs_across_thresholds() {
    run_seeded("random_inputs_across_thresholds", |seed| {
        // Low thresholds force merge cascades (re-enqueues), high ones
        // force full scans; both paths must stay identical throughout.
        for &delta_sim in &[0.0, 0.05, 0.2, 0.5, 0.8, 0.99] {
            let input = random_clusters(seed, 60, 6);
            for alignment in ALIGNMENTS {
                let params = Params::paper_defaults().with_delta_sim(delta_sim);
                check_equivalence(
                    &input,
                    &params,
                    alignment,
                    &format!("seed {seed} δsim {delta_sim} {alignment:?}"),
                );
            }
        }
    });
}

#[test]
fn disjoint_sensor_sets_prune_everything() {
    // Pairwise-disjoint sensors AND windows: similarity is exactly 0 for
    // every pair, so the indexed path must do zero exact evaluations.
    let input: Vec<AtypicalCluster> = (0..25u64)
        .map(|i| {
            let base = (i as u32) * 10;
            cluster(
                i,
                &[(base, 600), (base + 1, 300)],
                &[(base, 450), (base + 1, 450)],
            )
        })
        .collect();
    for alignment in [TimeAlignment::Absolute] {
        for g in BalanceFunction::ALL {
            let params = Params::paper_defaults().with_balance(g);
            let (naive_stats, indexed_stats) = check_equivalence(
                &input,
                &params,
                alignment,
                &format!("disjoint {alignment:?} {g:?}"),
            );
            assert_eq!(indexed_stats.comparisons, 0, "{g:?}");
            assert_eq!(indexed_stats.bound_skips, 0, "{g:?}");
            assert_eq!(
                indexed_stats.candidates_pruned, naive_stats.comparisons,
                "{g:?}"
            );
        }
    }
}

#[test]
fn identical_clusters_collapse_to_one() {
    // N copies of one cluster: every admission merges with the sole
    // result member, so both strategies chain N-1 merges into one
    // macro-cluster. (Copies share every key — nothing is prunable on
    // the first comparison of each admission.)
    let input: Vec<AtypicalCluster> = (0..12u64)
        .map(|i| cluster(i, &[(5, 600), (6, 600)], &[(7, 600), (8, 600)]))
        .collect();
    for alignment in ALIGNMENTS {
        for g in BalanceFunction::ALL {
            let params = Params::paper_defaults().with_balance(g);
            let (naive_stats, indexed_stats) = check_equivalence(
                &input,
                &params,
                alignment,
                &format!("identical {alignment:?} {g:?}"),
            );
            assert_eq!(naive_stats.merges, 11, "{g:?}");
            assert_eq!(indexed_stats.merges, 11, "{g:?}");
        }
    }
}

#[test]
fn severity_ties_straddle_the_threshold() {
    // Engineered overlaps that land exactly on, just under, and just over
    // δsim. Algorithm 3 merges on *strictly greater*, so the boundary
    // pair must NOT merge — and the indexed bound (which skips on
    // `bound ≤ δsim`) must agree with the exact evaluation in all three
    // regimes.
    //
    // With arithmetic-mean balance and full window overlap,
    // Sim = ½(SimSF + 1): SimSF = 0.0 → 0.5 (= δsim, no merge);
    // a tiny shared sensor fraction pushes it just over.
    let params = Params::paper_defaults(); // δsim = 0.5, arithmetic mean
    assert_eq!(params.delta_sim, 0.5, "test assumes the paper's δsim");

    // Shared window 7 with identical mass; sensors disjoint → Sim = 0.5.
    let at_threshold = vec![
        cluster(0, &[(1, 600)], &[(7, 600)]),
        cluster(1, &[(2, 600)], &[(7, 600)]),
    ];
    // Same, plus a shared sensor carrying 1 of 600 seconds → Sim > 0.5.
    let just_over = vec![
        cluster(0, &[(1, 599), (3, 1)], &[(7, 600)]),
        cluster(1, &[(2, 599), (3, 1)], &[(7, 600)]),
    ];
    // Shared window carries half the mass; sensors disjoint → Sim = 0.25.
    let under = vec![
        cluster(0, &[(1, 600)], &[(7, 300), (8, 300)]),
        cluster(1, &[(2, 600)], &[(7, 300), (9, 300)]),
    ];

    for (input, expected_merges, label) in [
        (at_threshold, 0u64, "at-threshold"),
        (just_over, 1, "just-over"),
        (under, 0, "under"),
    ] {
        for alignment in ALIGNMENTS {
            let (naive_stats, indexed_stats) = check_equivalence(
                &input,
                &params,
                alignment,
                &format!("{label} {alignment:?}"),
            );
            assert_eq!(naive_stats.merges, expected_merges, "{label} naive");
            assert_eq!(indexed_stats.merges, expected_merges, "{label} indexed");
        }
    }
}

#[test]
fn time_of_day_folding_merges_across_days() {
    // Same time-of-day on consecutive days: disjoint absolute windows
    // (no merge) but identical folded windows (merge under TimeOfDay).
    // Exercises the folded-window index keys.
    let wpd = 96u32;
    let input = vec![
        cluster(0, &[(1, 600)], &[(10, 600)]),
        cluster(1, &[(1, 600)], &[(10 + wpd, 600)]),
    ];
    let params = Params::paper_defaults();
    let (_, abs_stats) =
        check_equivalence(&input, &params, TimeAlignment::Absolute, "tod absolute");
    let (_, tod_stats) = check_equivalence(
        &input,
        &params,
        TimeAlignment::TimeOfDay {
            windows_per_day: wpd,
        },
        "tod folded",
    );
    assert_eq!(abs_stats.merges, 0);
    assert_eq!(tod_stats.merges, 1);
}

#[test]
fn empty_and_singleton_inputs() {
    let params = Params::paper_defaults();
    for alignment in ALIGNMENTS {
        check_equivalence(&[], &params, alignment, "empty");
        let one = vec![cluster(0, &[(1, 600)], &[(2, 600)])];
        let (naive_stats, indexed_stats) = check_equivalence(&one, &params, alignment, "singleton");
        assert_eq!(naive_stats.comparisons, 0);
        assert_eq!(indexed_stats.comparisons, 0);
    }
}

#[test]
fn merge_cascades_stay_identical() {
    run_seeded("merge_cascades_stay_identical", |seed| {
        // A chain a₀~a₁~…~aₙ where consecutive clusters overlap heavily:
        // each admission merges and the merged cluster re-enqueues,
        // exercising swap_remove order perturbation and queue-back
        // re-insertion on both paths.
        let n = 30u64;
        let mut input: Vec<AtypicalCluster> = (0..n)
            .map(|i| {
                let base = i as u32;
                cluster(
                    i,
                    &[(base, 600), (base + 1, 600)],
                    &[(base, 600), (base + 1, 600)],
                )
            })
            .collect();
        // Deterministic shuffle from the test seed so the admission order
        // varies run-to-run under CPS_FAULT_SEED replay.
        let mut state = seed | 1;
        for i in (1..input.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            input.swap(i, j);
        }
        for alignment in ALIGNMENTS {
            let params = Params::paper_defaults().with_delta_sim(0.3);
            let (naive_stats, _) = check_equivalence(
                &input,
                &params,
                alignment,
                &format!("cascade seed {seed} {alignment:?}"),
            );
            assert!(naive_stats.merges > 0, "cascade must actually merge");
        }
    });
}
