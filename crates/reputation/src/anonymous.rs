//! Anonymity-preserving feedback wrappers (paper refs \[2\], \[4\]).
//!
//! Androulaki et al. and Bethencourt et al. show reputation can work over
//! anonymous reports at some accuracy cost. [`Anonymized`] wraps any
//! [`ReputationMechanism`] with the two standard ingredients:
//!
//! * **identity stripping** — the rater field is removed before the inner
//!   mechanism sees the report (unconditionally, or with probability
//!   `strip_probability` to model partial pseudonymity);
//! * **randomized response** — the success bit is flipped with probability
//!   `flip_probability`, giving plausible deniability for any individual
//!   report (local differential privacy for one bit: ε = ln((1−p)/p)).
//!
//! The wrapper applies to *every* mechanism uniformly, so the
//! privacy→power degradation can be measured the same way for each. The
//! scenario engine wraps its mechanism when `ScenarioConfig::anonymization`
//! is set (`ScenarioBuilder::anonymization`).

use crate::gathering::ReportView;
use crate::mechanism::{MechanismKind, ReputationMechanism};
use tsn_simnet::{NodeId, SimRng};

/// Anonymization strength.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnonymizationConfig {
    /// Probability that the rater identity is stripped from a report.
    pub strip_probability: f64,
    /// Probability that the success bit (and detail) is flipped
    /// (randomized response). Must be `< 0.5` to preserve any signal.
    pub flip_probability: f64,
}

impl Default for AnonymizationConfig {
    fn default() -> Self {
        AnonymizationConfig {
            strip_probability: 1.0,
            flip_probability: 0.0,
        }
    }
}

impl AnonymizationConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.strip_probability) {
            return Err("strip_probability must be in [0,1]".into());
        }
        if !(0.0..0.5).contains(&self.flip_probability) {
            return Err("flip_probability must be in [0,0.5)".into());
        }
        Ok(())
    }

    /// The local differential-privacy budget of the randomized response,
    /// `ε = ln((1−p)/p)`; `f64::INFINITY` when no flipping happens.
    pub fn epsilon(&self) -> f64 {
        if self.flip_probability == 0.0 {
            f64::INFINITY
        } else {
            ((1.0 - self.flip_probability) / self.flip_probability).ln()
        }
    }
}

/// A mechanism wrapped with anonymization.
#[derive(Debug)]
pub struct Anonymized<M> {
    inner: M,
    config: AnonymizationConfig,
    rng: SimRng,
    stripped: u64,
    flipped: u64,
    total: u64,
}

impl<M: ReputationMechanism> Anonymized<M> {
    /// Wraps `inner`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(inner: M, config: AnonymizationConfig, rng: SimRng) -> Self {
        if let Err(e) = config.validate() {
            // tsn-lint: allow(no-unwrap, "documented contract: new() panics on a config that validate() rejects; fallible callers validate first")
            panic!("invalid anonymization config: {e}");
        }
        Anonymized {
            inner,
            config,
            rng,
            stripped: 0,
            flipped: 0,
            total: 0,
        }
    }

    /// The wrapped mechanism.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Consumes the wrapper, returning the inner mechanism.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// Fraction of reports whose identity was stripped so far.
    #[cfg(test)]
    fn observed_strip_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.stripped as f64 / self.total as f64
        }
    }

    /// Fraction of reports whose outcome was flipped so far.
    #[cfg(test)]
    fn observed_flip_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.flipped as f64 / self.total as f64
        }
    }
}

impl<M: ReputationMechanism> ReputationMechanism for Anonymized<M> {
    fn kind(&self) -> MechanismKind {
        self.inner.kind()
    }

    fn resize(&mut self, n: usize) {
        self.inner.resize(n);
    }

    fn record(&mut self, report: &ReportView) {
        self.total += 1;
        let mut sanitized = *report;
        if sanitized.rater.is_some() && self.rng.gen_bool(self.config.strip_probability) {
            sanitized.rater = None;
            self.stripped += 1;
        }
        if self.rng.gen_bool(self.config.flip_probability) {
            sanitized.success = !sanitized.success;
            sanitized.quality = sanitized.quality.map(|q| 1.0 - q);
            self.flipped += 1;
        }
        self.inner.record(&sanitized);
    }

    fn refresh(&mut self) -> usize {
        self.inner.refresh()
    }

    fn refresh_on(&mut self, workers: usize) -> usize {
        self.inner.refresh_on(workers)
    }

    fn score(&self, node: NodeId) -> f64 {
        self.inner.score(node)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn overhead_per_report(&self) -> usize {
        // Anonymous submission adds a mix/blind-signature round trip.
        self.inner.overhead_per_report() + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beta::BetaReputation;
    use crate::gathering::{DisclosurePolicy, FeedbackReport};
    use crate::mechanism::InteractionOutcome;
    use tsn_simnet::SimTime;

    fn report(good: bool) -> ReportView {
        DisclosurePolicy::full().view(&FeedbackReport {
            rater: NodeId(0),
            ratee: NodeId(1),
            outcome: if good {
                InteractionOutcome::Success { quality: 1.0 }
            } else {
                InteractionOutcome::Failure
            },
            topic: None,
            at: SimTime::ZERO,
        })
    }

    #[test]
    fn full_strip_removes_all_identities() {
        let inner = BetaReputation::new(2);
        let mut wrapped = Anonymized::new(
            inner,
            AnonymizationConfig {
                strip_probability: 1.0,
                flip_probability: 0.0,
            },
            SimRng::seed_from_u64(0),
        );
        for _ in 0..50 {
            wrapped.record(&report(true));
        }
        assert_eq!(wrapped.observed_strip_rate(), 1.0);
        assert_eq!(wrapped.observed_flip_rate(), 0.0);
        assert!(wrapped.score(NodeId(1)) > 0.9);
    }

    #[test]
    fn flip_rate_matches_configuration() {
        let inner = BetaReputation::new(2);
        let mut wrapped = Anonymized::new(
            inner,
            AnonymizationConfig {
                strip_probability: 0.0,
                flip_probability: 0.25,
            },
            SimRng::seed_from_u64(1),
        );
        for _ in 0..4000 {
            wrapped.record(&report(true));
        }
        let rate = wrapped.observed_flip_rate();
        assert!((rate - 0.25).abs() < 0.03, "flip rate {rate}");
    }

    #[test]
    fn noise_biases_scores_toward_the_middle() {
        let run = |flip: f64| {
            let mut wrapped = Anonymized::new(
                BetaReputation::new(2),
                AnonymizationConfig {
                    strip_probability: 1.0,
                    flip_probability: flip,
                },
                SimRng::seed_from_u64(2),
            );
            for _ in 0..500 {
                wrapped.record(&report(true));
            }
            wrapped.score(NodeId(1))
        };
        let clean = run(0.0);
        let noisy = run(0.3);
        assert!(
            clean > noisy,
            "noise must pull the score down: {clean} vs {noisy}"
        );
        assert!(
            (noisy - 0.7).abs() < 0.05,
            "randomized response converges to 1−p"
        );
    }

    #[test]
    fn epsilon_budget() {
        let c = AnonymizationConfig {
            strip_probability: 1.0,
            flip_probability: 0.25,
        };
        assert!((c.epsilon() - 3.0f64.ln()).abs() < 1e-12);
        assert_eq!(AnonymizationConfig::default().epsilon(), f64::INFINITY);
    }

    #[test]
    fn kind_and_len_pass_through() {
        let wrapped = Anonymized::new(
            BetaReputation::new(7),
            AnonymizationConfig::default(),
            SimRng::seed_from_u64(3),
        );
        assert_eq!(wrapped.kind(), MechanismKind::Beta);
        assert_eq!(wrapped.len(), 7);
        assert_eq!(wrapped.overhead_per_report(), 3);
        assert_eq!(wrapped.inner().len(), 7);
    }

    #[test]
    fn config_validation() {
        assert!(AnonymizationConfig {
            strip_probability: 2.0,
            flip_probability: 0.0
        }
        .validate()
        .is_err());
        assert!(AnonymizationConfig {
            strip_probability: 0.5,
            flip_probability: 0.5
        }
        .validate()
        .is_err());
        assert!(AnonymizationConfig::default().validate().is_ok());
    }

    #[test]
    fn into_inner_returns_mechanism() {
        let mut wrapped = Anonymized::new(
            BetaReputation::new(2),
            AnonymizationConfig::default(),
            SimRng::seed_from_u64(4),
        );
        for _ in 0..10 {
            wrapped.record(&report(true));
        }
        let inner = wrapped.into_inner();
        assert!(inner.score(NodeId(1)) > 0.8);
    }
}
