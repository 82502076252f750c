//! The generic trust metric — the paper's Section-4 objective.
//!
//! "Our main objective is to define a generic metric that takes into
//! account all these dimensions and helps the designer to maximize the
//! users' trust towards the system while respecting the
//! system/application constrains."
//!
//! [`TrustMetric`] is that metric: facet weights plus an [`Aggregator`].
//! The default aggregator is the **weighted geometric mean**, which
//! encodes the paper's core claim that the facets are complementary — a
//! zero on any facet zeroes trust, no matter how strong the others are.
//! Arithmetic, minimum and general power-mean aggregation are provided
//! for the A3 ablation.

use crate::facets::{FacetScores, FacetWeights};

/// How facet scores combine into one trust value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Aggregator {
    /// Weighted arithmetic mean — facets are substitutes.
    Arithmetic,
    /// Weighted geometric mean — facets are complements (default).
    #[default]
    Geometric,
    /// The minimum facet — strictest complementarity (Rawlsian).
    Minimum,
    /// Weighted power mean with exponent `p` (`p → 0` recovers geometric,
    /// `p = 1` arithmetic, `p → −∞` minimum).
    PowerMean(
        /// The exponent; must be non-zero and finite.
        f64,
    ),
}

impl Aggregator {
    /// Label for experiment tables.
    pub fn label(&self) -> String {
        match self {
            Aggregator::Arithmetic => "arithmetic".into(),
            Aggregator::Geometric => "geometric".into(),
            Aggregator::Minimum => "minimum".into(),
            Aggregator::PowerMean(p) => format!("power({p})"),
        }
    }
}

/// The trust metric: weights + aggregator.
///
/// ```
/// use tsn_core::{FacetScores, TrustMetric};
///
/// let metric = TrustMetric::default(); // weighted geometric mean
/// let healthy = FacetScores::new(0.8, 0.8, 0.8)?;
/// let collapsed = FacetScores::new(0.0, 1.0, 1.0)?;
/// assert!(metric.trust(&healthy) > 0.79);
/// assert_eq!(metric.trust(&collapsed), 0.0); // facets are complements
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustMetric {
    /// Facet weights.
    pub weights: FacetWeights,
    /// Aggregation rule.
    pub aggregator: Aggregator,
}

impl Default for TrustMetric {
    fn default() -> Self {
        TrustMetric {
            weights: FacetWeights::default(),
            aggregator: Aggregator::Geometric,
        }
    }
}

impl TrustMetric {
    /// Creates a metric with validation.
    ///
    /// # Errors
    ///
    /// Returns a message for invalid weights or a zero/non-finite power
    /// exponent.
    pub fn new(weights: FacetWeights, aggregator: Aggregator) -> Result<Self, String> {
        weights.validate()?;
        if let Aggregator::PowerMean(p) = aggregator {
            if p == 0.0 || !p.is_finite() {
                return Err("power-mean exponent must be non-zero and finite".into());
            }
        }
        Ok(TrustMetric {
            weights,
            aggregator,
        })
    }

    /// Trust toward the system given facet scores, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `facets` or the metric's weights are invalid (construct
    /// via [`TrustMetric::new`] and [`FacetScores::new`] to avoid this).
    pub fn trust(&self, facets: &FacetScores) -> f64 {
        if let Err(e) = facets.validate() {
            // tsn-lint: allow(no-unwrap, "documented contract: new() panics on facets that validate() rejects; fallible callers validate first")
            panic!("invalid facets: {e}");
        }
        let w = self.weights.normalized();
        let pairs = [
            (w.privacy, facets.privacy),
            (w.reputation, facets.reputation),
            (w.satisfaction, facets.satisfaction),
        ];
        match self.aggregator {
            Aggregator::Arithmetic => pairs.iter().map(|(w, x)| w * x).sum(),
            Aggregator::Geometric => {
                // Π x^w, with 0^0 = 1 so zero-weight facets are ignored.
                pairs
                    .iter()
                    .map(|&(w, x)| if w == 0.0 { 1.0 } else { x.powf(w) })
                    .product()
            }
            Aggregator::Minimum => pairs
                .iter()
                .filter(|&&(w, _)| w > 0.0)
                .map(|&(_, x)| x)
                .fold(1.0, f64::min),
            Aggregator::PowerMean(p) => {
                // (Σ w x^p)^(1/p); zero facets with p<0 force trust to 0.
                if p < 0.0 && pairs.iter().any(|&(w, x)| w > 0.0 && x == 0.0) {
                    return 0.0;
                }
                let s: f64 = pairs
                    .iter()
                    .map(|&(w, x)| if w == 0.0 { 0.0 } else { w * x.powf(p) })
                    .sum();
                s.powf(1.0 / p)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(p: f64, r: f64, s: f64) -> FacetScores {
        FacetScores::new(p, r, s).unwrap()
    }

    #[test]
    fn arithmetic_is_weighted_mean() {
        let m = TrustMetric::new(FacetWeights::default(), Aggregator::Arithmetic).unwrap();
        assert!((m.trust(&f(0.9, 0.6, 0.3)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn geometric_punishes_zero_facets() {
        let m = TrustMetric::default();
        assert_eq!(m.trust(&f(0.0, 1.0, 1.0)), 0.0);
        let arith = TrustMetric::new(FacetWeights::default(), Aggregator::Arithmetic).unwrap();
        assert!(
            arith.trust(&f(0.0, 1.0, 1.0)) > 0.6,
            "arithmetic tolerates a zero"
        );
    }

    #[test]
    fn geometric_mean_of_equal_facets_is_the_facet() {
        let m = TrustMetric::default();
        assert!((m.trust(&f(0.7, 0.7, 0.7)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn minimum_is_the_weakest_facet() {
        let m = TrustMetric::new(FacetWeights::default(), Aggregator::Minimum).unwrap();
        assert_eq!(m.trust(&f(0.9, 0.2, 0.7)), 0.2);
    }

    #[test]
    fn minimum_ignores_zero_weight_facets() {
        let w = FacetWeights {
            privacy: 0.0,
            reputation: 1.0,
            satisfaction: 1.0,
        };
        let m = TrustMetric::new(w, Aggregator::Minimum).unwrap();
        assert_eq!(m.trust(&f(0.0, 0.8, 0.6)), 0.6);
    }

    #[test]
    fn power_mean_interpolates() {
        let facets = f(0.9, 0.5, 0.3);
        let arith = TrustMetric::new(FacetWeights::default(), Aggregator::Arithmetic).unwrap();
        let geo = TrustMetric::default();
        let p_half = TrustMetric::new(FacetWeights::default(), Aggregator::PowerMean(0.5)).unwrap();
        let t_arith = arith.trust(&facets);
        let t_geo = geo.trust(&facets);
        let t_half = p_half.trust(&facets);
        assert!(
            t_geo < t_half && t_half < t_arith,
            "{t_geo} < {t_half} < {t_arith}"
        );
    }

    #[test]
    fn negative_power_mean_handles_zero() {
        let m = TrustMetric::new(FacetWeights::default(), Aggregator::PowerMean(-2.0)).unwrap();
        assert_eq!(m.trust(&f(0.0, 0.9, 0.9)), 0.0);
        assert!(m.trust(&f(0.5, 0.9, 0.9)) > 0.0);
    }

    #[test]
    fn ordering_respected_by_all_aggregators() {
        // Strictly better facets must never yield lower trust.
        let low = f(0.3, 0.4, 0.5);
        let high = f(0.6, 0.7, 0.8);
        for agg in [
            Aggregator::Arithmetic,
            Aggregator::Geometric,
            Aggregator::Minimum,
            Aggregator::PowerMean(2.0),
            Aggregator::PowerMean(-1.0),
        ] {
            let m = TrustMetric::new(FacetWeights::default(), agg).unwrap();
            assert!(m.trust(&high) > m.trust(&low), "{}", agg.label());
        }
    }

    #[test]
    fn weights_shift_the_outcome() {
        let privacy_heavy = TrustMetric::new(
            FacetWeights {
                privacy: 10.0,
                reputation: 1.0,
                satisfaction: 1.0,
            },
            Aggregator::Arithmetic,
        )
        .unwrap();
        let balanced = TrustMetric::new(FacetWeights::default(), Aggregator::Arithmetic).unwrap();
        let facets = f(0.9, 0.2, 0.2);
        assert!(privacy_heavy.trust(&facets) > balanced.trust(&facets));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(TrustMetric::new(FacetWeights::default(), Aggregator::PowerMean(0.0)).is_err());
        assert!(TrustMetric::new(
            FacetWeights {
                privacy: -1.0,
                reputation: 1.0,
                satisfaction: 1.0
            },
            Aggregator::Geometric
        )
        .is_err());
    }

    #[test]
    fn aggregator_labels() {
        assert_eq!(Aggregator::Geometric.label(), "geometric");
        assert_eq!(Aggregator::PowerMean(2.0).label(), "power(2)");
    }
}
