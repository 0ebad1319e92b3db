//! Effectiveness evaluation: precision and recall of significant clusters.
//!
//! The paper's protocol (§V-B): `All` prunes nothing, so its significant
//! clusters are the ground truth. For a strategy's returned macro-cluster
//! set:
//!
//! * **precision** — "the proportion of significant clusters in the
//!   returned query results": of all macro-clusters returned, how many are
//!   significant at the query scale,
//! * **recall** — "the proportion of retrieved significant clusters over
//!   the ground truth": a truth cluster counts as retrieved when some
//!   returned *significant* cluster matches it (similarity ≥ 0.5 under the
//!   forgiving `max` balance — a pruned strategy reconstructs clusters with
//!   slightly reduced features, so exact equality would be wrong).
//!
//! Offline only: its callers are `repro fig18` / `fig19`
//! (`cps-bench/src/figs/effectiveness.rs`), the cross-domain conformance
//! suite and the tests; the monitor does not use it.

use crate::cluster::AtypicalCluster;
use crate::query::QueryResult;
use crate::similarity::similarity;
use cps_core::BalanceFunction;

/// Matching threshold for pairing returned clusters with ground truth.
pub const MATCH_THRESHOLD: f64 = 0.5;

/// Precision/recall of one query result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrecisionRecall {
    /// Fraction of returned clusters that are significant.
    pub precision: f64,
    /// Fraction of ground-truth significant clusters recovered.
    pub recall: f64,
    /// Clusters returned.
    pub returned: usize,
    /// Returned clusters that are significant at query scale.
    pub returned_significant: usize,
    /// Ground-truth significant clusters.
    pub truth: usize,
}

/// Whether returned cluster `r` matches ground-truth cluster `g`.
pub fn matches(r: &AtypicalCluster, g: &AtypicalCluster) -> bool {
    similarity(r, g, BalanceFunction::Max) >= MATCH_THRESHOLD
}

/// Evaluates a strategy's result against the ground-truth significant set.
pub fn evaluate(result: &QueryResult, truth: &[&AtypicalCluster]) -> PrecisionRecall {
    let returned = result.macros.len();
    let significant = result.significant();
    let returned_significant = significant.len();

    let precision = if returned == 0 {
        1.0
    } else {
        returned_significant as f64 / returned as f64
    };

    let recovered = truth
        .iter()
        .filter(|g| significant.iter().any(|r| matches(r, g)))
        .count();
    let recall = if truth.is_empty() {
        1.0
    } else {
        recovered as f64 / truth.len() as f64
    };

    PrecisionRecall {
        precision,
        recall,
        returned,
        returned_significant,
        truth: truth.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{SpatialFeature, TemporalFeature};
    use crate::integrate::IntegrationStats;
    use crate::query::Strategy;
    use cps_core::{ClusterId, SensorId, Severity, TimeRange, TimeWindow};

    fn cluster(id: u64, base: u32, n: u32, minutes_per_key: f64) -> AtypicalCluster {
        let sf: SpatialFeature = (base..base + n)
            .map(|s| (SensorId::new(s), Severity::from_minutes(minutes_per_key)))
            .collect();
        let tf: TemporalFeature = (base..base + n)
            .map(|w| (TimeWindow::new(w), Severity::from_minutes(minutes_per_key)))
            .collect();
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    fn result_with(macros: Vec<AtypicalCluster>, threshold_minutes: f64) -> QueryResult {
        QueryResult {
            strategy: Strategy::Gui,
            macros,
            candidate_clusters: 0,
            input_clusters: 0,
            num_red_regions: None,
            threshold: Severity::from_minutes(threshold_minutes),
            n_sensors: 100,
            range: TimeRange::new(TimeWindow::new(0), TimeWindow::new(288)),
            elapsed: std::time::Duration::ZERO,
            integration: IntegrationStats::default(),
            final_check_removed: 0,
        }
    }

    #[test]
    fn perfect_result_scores_one() {
        let big = cluster(1, 0, 10, 50.0); // 500 min
        let result = result_with(vec![big.clone()], 100.0);
        let truth_store = [big];
        let truth: Vec<&AtypicalCluster> = truth_store.iter().collect();
        let pr = evaluate(&result, &truth);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        assert_eq!(pr.returned_significant, 1);
    }

    #[test]
    fn trivial_returns_hurt_precision_only() {
        let big = cluster(1, 0, 10, 50.0);
        let noise1 = cluster(2, 100, 1, 1.0);
        let noise2 = cluster(3, 200, 1, 1.0);
        let result = result_with(vec![big.clone(), noise1, noise2], 100.0);
        let truth_store = [big];
        let truth: Vec<&AtypicalCluster> = truth_store.iter().collect();
        let pr = evaluate(&result, &truth);
        assert!((pr.precision - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn missing_truth_hurts_recall() {
        let a = cluster(1, 0, 10, 50.0);
        let b = cluster(2, 100, 10, 50.0);
        let result = result_with(vec![a.clone()], 100.0);
        let truth_store = [a, b];
        let truth: Vec<&AtypicalCluster> = truth_store.iter().collect();
        let pr = evaluate(&result, &truth);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 0.5);
    }

    #[test]
    fn partial_reconstruction_still_matches() {
        // A Pru-style reconstruction missing 2 of 10 sensors still matches
        // the truth cluster.
        let truth_cluster = cluster(1, 0, 10, 50.0);
        let partial = cluster(2, 0, 8, 50.0);
        assert!(matches(&partial, &truth_cluster));
        let result = result_with(vec![partial], 100.0);
        let truth_store = [truth_cluster];
        let truth: Vec<&AtypicalCluster> = truth_store.iter().collect();
        let pr = evaluate(&result, &truth);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn unrelated_cluster_does_not_match() {
        let a = cluster(1, 0, 10, 50.0);
        let b = cluster(2, 500, 10, 50.0);
        assert!(!matches(&a, &b));
    }

    #[test]
    fn empty_cases_use_conventions() {
        let result = result_with(vec![], 100.0);
        let pr = evaluate(&result, &[]);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        let truth_store = [cluster(1, 0, 10, 50.0)];
        let truth: Vec<&AtypicalCluster> = truth_store.iter().collect();
        let pr = evaluate(&result, &truth);
        assert_eq!(pr.recall, 0.0);
    }

    #[test]
    fn insignificant_returns_cannot_recover_truth() {
        // A matching cluster that is itself below the threshold does not
        // count as retrieving the truth.
        let truth_cluster = cluster(1, 0, 10, 50.0); // 500 min
        let weak = cluster(2, 0, 10, 5.0); // 50 min < threshold
        let result = result_with(vec![weak], 100.0);
        let truth_store = [truth_cluster];
        let truth: Vec<&AtypicalCluster> = truth_store.iter().collect();
        let pr = evaluate(&result, &truth);
        assert_eq!(pr.recall, 0.0);
        assert_eq!(pr.precision, 0.0);
    }
}
