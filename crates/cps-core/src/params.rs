//! The paper's tunable parameters and the balance function `g`.
//!
//! Figure 14 of the paper lists five knobs; [`Params`] bundles them with the
//! defaults used throughout the evaluation:
//!
//! | knob | paper range | default |
//! |---|---|---|
//! | severity threshold `δs` | 2% – 20% | 5% |
//! | distance threshold `δd` | 1.5 – 24 mile | 1.5 mile |
//! | time interval threshold `δt` | 15 – 80 min | 15 min |
//! | similarity threshold `δsim` | 0.1 – 1.0 | 0.5 |
//! | balance function `g` | max/min/avg/geo/har | arithmetic mean |

use serde::{Deserialize, Serialize};
use std::fmt;

/// The balance function `g(p₁, p₂)` of Equations (3) and (4).
///
/// Balances the two per-cluster overlap fractions when comparing clusters of
/// different sizes: `Max` is the most permissive (a small cluster absorbed by
/// a large one still scores high), `Min` the most conservative.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum BalanceFunction {
    /// `max(p₁, p₂)`.
    Max,
    /// `min(p₁, p₂)`.
    Min,
    /// Arithmetic mean `(p₁ + p₂) / 2` — the paper's default.
    #[default]
    ArithmeticMean,
    /// Geometric mean `√(p₁·p₂)`.
    GeometricMean,
    /// Harmonic mean `2·p₁·p₂ / (p₁ + p₂)` (zero when both are zero).
    HarmonicMean,
}

impl BalanceFunction {
    /// All five variants, in the order Figure 21 plots them.
    pub const ALL: [BalanceFunction; 5] = [
        BalanceFunction::Min,
        BalanceFunction::HarmonicMean,
        BalanceFunction::GeometricMean,
        BalanceFunction::ArithmeticMean,
        BalanceFunction::Max,
    ];

    /// Applies the balance function to two fractions in `[0, 1]`.
    #[inline]
    pub fn apply(self, p1: f64, p2: f64) -> f64 {
        match self {
            BalanceFunction::Max => p1.max(p2),
            BalanceFunction::Min => p1.min(p2),
            BalanceFunction::ArithmeticMean => 0.5 * (p1 + p2),
            BalanceFunction::GeometricMean => (p1 * p2).sqrt(),
            BalanceFunction::HarmonicMean => {
                let s = p1 + p2;
                if s == 0.0 {
                    0.0
                } else {
                    2.0 * p1 * p2 / s
                }
            }
        }
    }

    /// Short label used in experiment output (`max`, `min`, `avg`, `geo`,
    /// `har`) matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            BalanceFunction::Max => "max",
            BalanceFunction::Min => "min",
            BalanceFunction::ArithmeticMean => "avg",
            BalanceFunction::GeometricMean => "geo",
            BalanceFunction::HarmonicMean => "har",
        }
    }
}

impl fmt::Display for BalanceFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Bundle of the five tunables from Figure 14, plus validation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Distance threshold `δd` in miles: two records can be *direct atypical
    /// related* only if their sensors are closer than this.
    pub delta_d_miles: f64,
    /// Time interval threshold `δt` in minutes: … and their windows are
    /// closer than this.
    pub delta_t_minutes: u32,
    /// Relative severity threshold `δs` in `[0, 1]`: a cluster is
    /// *significant* when its severity exceeds `δs · length(T) · N`.
    pub delta_s: f64,
    /// Similarity threshold `δsim` in `[0, 1]` for merging clusters.
    pub delta_sim: f64,
    /// Balance function `g` of Equations (3)/(4).
    pub balance: BalanceFunction,
    /// Trustworthiness filter: atypical events with fewer records than this
    /// are discarded during micro-cluster retrieval. Stands in for the
    /// paper's §II-A assumption that "clean and trustworthy atypical
    /// records" are delivered by an upstream filter (Tru-Alarm): an
    /// isolated single-window glitch with no corroborating neighbour is not
    /// a trustworthy event. Set to 1 to keep everything.
    pub min_event_records: u32,
    /// Worker threads for offline forest/cube construction (leaf builds,
    /// sibling roll-ups, cuboid materialization). `0` means "all available
    /// cores" (the default); `1` runs the exact sequential code path. Any
    /// value produces **bit-identical** output — merge ids included —
    /// because sibling results are committed in canonical node-path order
    /// (see DESIGN.md, "Deterministic parallelism").
    pub parallelism: usize,
}

impl Params {
    /// The defaults of Figure 14: `δs` = 5%, `δd` = 1.5 mile, `δt` = 15 min,
    /// `δsim` = 0.5, `g` = arithmetic mean.
    pub fn paper_defaults() -> Self {
        Self {
            delta_d_miles: 1.5,
            delta_t_minutes: 15,
            delta_s: 0.05,
            delta_sim: 0.5,
            balance: BalanceFunction::ArithmeticMean,
            min_event_records: 2,
            parallelism: 0,
        }
    }

    /// Resolves [`parallelism`](Self::parallelism) to a concrete worker
    /// count: `0` maps to the number of available cores, everything else
    /// is literal.
    pub fn effective_parallelism(&self) -> usize {
        if self.parallelism == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.parallelism
        }
    }

    /// Validates ranges; returns a human-readable description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.delta_d_miles <= 0.0 || self.delta_d_miles.is_nan() {
            return Err(format!("δd must be positive, got {}", self.delta_d_miles));
        }
        if self.delta_t_minutes == 0 {
            return Err("δt must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.delta_s) {
            return Err(format!("δs must be in [0, 1], got {}", self.delta_s));
        }
        if !(0.0..=1.0).contains(&self.delta_sim) {
            return Err(format!("δsim must be in [0, 1], got {}", self.delta_sim));
        }
        if self.min_event_records == 0 {
            return Err("min_event_records must be at least 1".to_string());
        }
        Ok(())
    }

    /// Builder-style override of `δd`.
    pub fn with_delta_d(mut self, miles: f64) -> Self {
        self.delta_d_miles = miles;
        self
    }

    /// Builder-style override of `δt`.
    pub fn with_delta_t(mut self, minutes: u32) -> Self {
        self.delta_t_minutes = minutes;
        self
    }

    /// Builder-style override of `δs`.
    pub fn with_delta_s(mut self, delta_s: f64) -> Self {
        self.delta_s = delta_s;
        self
    }

    /// Builder-style override of `δsim`.
    pub fn with_delta_sim(mut self, delta_sim: f64) -> Self {
        self.delta_sim = delta_sim;
        self
    }

    /// Builder-style override of the balance function.
    pub fn with_balance(mut self, g: BalanceFunction) -> Self {
        self.balance = g;
        self
    }

    /// Builder-style override of the trustworthiness filter.
    pub fn with_min_event_records(mut self, n: u32) -> Self {
        self.min_event_records = n;
        self
    }

    /// Builder-style override of the construction parallelism (`0` = all
    /// cores, `1` = sequential escape hatch).
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads;
        self
    }
}

impl Default for Params {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn defaults_match_figure_14() {
        let p = Params::paper_defaults();
        assert_eq!(p.delta_d_miles, 1.5);
        assert_eq!(p.delta_t_minutes, 15);
        assert_eq!(p.delta_s, 0.05);
        assert_eq!(p.delta_sim, 0.5);
        assert_eq!(p.balance, BalanceFunction::ArithmeticMean);
        assert_eq!(p.parallelism, 0, "parallelism defaults to all cores");
        assert!(p.effective_parallelism() >= 1);
        assert_eq!(p.with_parallelism(3).effective_parallelism(), 3);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        assert!(Params::paper_defaults()
            .with_delta_d(0.0)
            .validate()
            .is_err());
        assert!(Params::paper_defaults().with_delta_t(0).validate().is_err());
        assert!(Params::paper_defaults()
            .with_delta_s(1.5)
            .validate()
            .is_err());
        assert!(Params::paper_defaults()
            .with_delta_sim(-0.1)
            .validate()
            .is_err());
    }

    #[test]
    fn balance_function_examples() {
        assert_eq!(BalanceFunction::Max.apply(0.2, 0.8), 0.8);
        assert_eq!(BalanceFunction::Min.apply(0.2, 0.8), 0.2);
        assert_eq!(BalanceFunction::ArithmeticMean.apply(0.2, 0.8), 0.5);
        assert!((BalanceFunction::GeometricMean.apply(0.25, 1.0) - 0.5).abs() < 1e-12);
        assert!((BalanceFunction::HarmonicMean.apply(0.5, 0.5) - 0.5).abs() < 1e-12);
        assert_eq!(BalanceFunction::HarmonicMean.apply(0.0, 0.0), 0.0);
    }

    #[test]
    fn labels_match_figure_21_legend() {
        let labels: Vec<&str> = BalanceFunction::ALL.iter().map(|g| g.label()).collect();
        assert_eq!(labels, vec!["min", "har", "geo", "avg", "max"]);
    }

    proptest! {
        /// For every g: min ≤ har ≤ geo ≤ avg ≤ max (the AM-GM-HM chain),
        /// and symmetry.
        #[test]
        fn prop_balance_ordering_and_symmetry(p1 in 0.0f64..=1.0, p2 in 0.0f64..=1.0) {
            let vals: Vec<f64> = BalanceFunction::ALL.iter().map(|g| g.apply(p1, p2)).collect();
            for w in vals.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12, "ordering violated: {:?}", vals);
            }
            for g in BalanceFunction::ALL {
                prop_assert!((g.apply(p1, p2) - g.apply(p2, p1)).abs() < 1e-12);
                let v = g.apply(p1, p2);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
            }
        }

        /// Every balance function agrees on equal inputs.
        #[test]
        fn prop_balance_idempotent_on_diagonal(p in 0.0f64..=1.0) {
            for g in BalanceFunction::ALL {
                prop_assert!((g.apply(p, p) - p).abs() < 1e-12);
            }
        }
    }
}
