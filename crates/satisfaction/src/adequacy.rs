//! Adequacy: how well one interaction matched a participant's intentions.
//!
//! Ref \[17\] defines adequacy as the instantaneous match between what the
//! system did and what the participant intended; satisfaction then
//! averages adequacy over the long run. Our adequacy combines the three
//! aspects the paper's three facets make observable per interaction.

use crate::intention::ConsumerIntentions;

/// The observable aspects of one finished interaction, from the
/// consumer's side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InteractionAspects {
    /// Whether the consumer intended (prefers) the allocated provider.
    pub intended: bool,
    /// Outcome quality in `\[0, 1\]` (0 = failure).
    pub outcome_quality: f64,
    /// Whether the consumer's privacy policy was respected during the
    /// interaction (data flows stayed compliant).
    pub privacy_respected: bool,
}

/// Weights for combining the aspects into adequacy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdequacyModel {
    /// Weight of outcome quality relative to expectation.
    pub outcome_weight: f64,
    /// Weight of the allocation matching preferred providers.
    pub preference_weight: f64,
    /// Base weight of privacy respect (scaled further by the consumer's
    /// own `privacy_concern`).
    pub privacy_weight: f64,
}

impl Default for AdequacyModel {
    fn default() -> Self {
        AdequacyModel {
            outcome_weight: 0.5,
            preference_weight: 0.25,
            privacy_weight: 0.25,
        }
    }
}

impl AdequacyModel {
    /// Validates weights.
    ///
    /// # Errors
    ///
    /// Returns a message when weights are negative or all zero.
    pub fn validate(&self) -> Result<(), String> {
        for (name, w) in [
            ("outcome_weight", self.outcome_weight),
            ("preference_weight", self.preference_weight),
            ("privacy_weight", self.privacy_weight),
        ] {
            if !(w.is_finite() && w >= 0.0) {
                return Err(format!("{name} must be finite and non-negative"));
            }
        }
        if self.outcome_weight + self.preference_weight + self.privacy_weight <= 0.0 {
            return Err("at least one weight must be positive".into());
        }
        Ok(())
    }

    /// Adequacy of one interaction to `intentions`, in `\[0, 1\]`.
    ///
    /// * Outcome: quality relative to the consumer's expectation (meeting
    ///   the expectation scores 1; a shortfall scores proportionally).
    /// * Preference: 1 if the provider was intended, a small floor if
    ///   imposed.
    /// * Privacy: 1 if respected, else 0 — weighted by how much this
    ///   consumer cares (`privacy_concern`): an indifferent user loses
    ///   nothing, a concerned user loses the full privacy share. This is
    ///   the paper's point that privacy preferences are individual.
    ///
    /// # Panics
    ///
    /// Panics if the model is invalid; call [`AdequacyModel::validate`]
    /// first to handle errors.
    pub fn adequacy(&self, intentions: &ConsumerIntentions, aspects: &InteractionAspects) -> f64 {
        if let Err(e) = self.validate() {
            // tsn-lint: allow(no-unwrap, "documented contract: new() panics on a model that validate() rejects; fallible callers validate first")
            panic!("invalid adequacy model: {e}");
        }
        let outcome_term = if intentions.quality_expectation <= 0.0 {
            1.0
        } else {
            (aspects.outcome_quality / intentions.quality_expectation).clamp(0.0, 1.0)
        };
        let preference_term = if aspects.intended { 1.0 } else { 0.2 };
        // Concern scales the *effective weight* of privacy, not its value:
        let effective_privacy_weight = self.privacy_weight * intentions.privacy_concern;
        let privacy_term = if aspects.privacy_respected { 1.0 } else { 0.0 };
        let total = self.outcome_weight + self.preference_weight + effective_privacy_weight;
        (self.outcome_weight * outcome_term
            + self.preference_weight * preference_term
            + effective_privacy_weight * privacy_term)
            / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aspects(quality: f64, privacy: bool) -> InteractionAspects {
        InteractionAspects {
            intended: true,
            outcome_quality: quality,
            privacy_respected: privacy,
        }
    }

    #[test]
    fn perfect_interaction_scores_one() {
        let model = AdequacyModel::default();
        let intentions = ConsumerIntentions::default();
        let a = model.adequacy(&intentions, &aspects(1.0, true));
        assert!((a - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failure_scores_low() {
        let model = AdequacyModel::default();
        let intentions = ConsumerIntentions::default();
        let a = model.adequacy(&intentions, &aspects(0.0, true));
        assert!(a < 0.6, "failed outcome should hurt, got {a}");
    }

    #[test]
    fn meeting_expectation_is_enough() {
        let model = AdequacyModel::default();
        let demanding = ConsumerIntentions::new(0.9, 0.5).unwrap();
        let modest = ConsumerIntentions::new(0.3, 0.5).unwrap();
        // Quality 0.5 fully satisfies the modest consumer's outcome term,
        // only partially the demanding one's.
        let a_demanding = model.adequacy(&demanding, &aspects(0.5, true));
        let a_modest = model.adequacy(&modest, &aspects(0.5, true));
        assert!(a_modest > a_demanding);
        assert!((a_modest - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unintended_provider_reduces_adequacy() {
        let model = AdequacyModel::default();
        let intentions = ConsumerIntentions::default();
        let intended = aspects(0.8, true);
        let imposed = InteractionAspects {
            intended: false,
            ..intended
        };
        let full = model.adequacy(&intentions, &intended);
        let reduced = model.adequacy(&intentions, &imposed);
        // Only the preference term moves: from 1 to the 0.2 floor.
        let total = model.outcome_weight
            + model.preference_weight
            + model.privacy_weight * intentions.privacy_concern;
        assert!(full > reduced);
        assert!((full - reduced - model.preference_weight * 0.8 / total).abs() < 1e-12);
    }

    #[test]
    fn privacy_violation_hurts_concerned_users_more() {
        let model = AdequacyModel::default();
        let concerned = ConsumerIntentions::new(0.5, 1.0).unwrap();
        let indifferent = ConsumerIntentions::new(0.5, 0.0).unwrap();
        let ok = aspects(0.8, true);
        let violated = aspects(0.8, false);
        let concerned_drop =
            model.adequacy(&concerned, &ok) - model.adequacy(&concerned, &violated);
        let indifferent_drop =
            model.adequacy(&indifferent, &ok) - model.adequacy(&indifferent, &violated);
        assert!(concerned_drop > 0.2, "drop {concerned_drop}");
        assert!(
            indifferent_drop.abs() < 1e-12,
            "indifferent users lose nothing"
        );
    }

    #[test]
    fn zero_expectation_outcome_term_is_one() {
        let model = AdequacyModel::default();
        let easy = ConsumerIntentions::new(0.0, 0.5).unwrap();
        let a = model.adequacy(&easy, &aspects(0.0, true));
        assert!(a > 0.9, "nothing expected, nothing lost: {a}");
    }

    #[test]
    fn adequacy_is_bounded() {
        let model = AdequacyModel::default();
        let intentions = ConsumerIntentions::new(0.7, 0.8).unwrap();
        for q in [0.0, 0.3, 0.9, 1.0] {
            for p in [true, false] {
                let a = model.adequacy(&intentions, &aspects(q, p));
                assert!((0.0..=1.0).contains(&a), "adequacy {a} out of range");
            }
        }
    }

    #[test]
    fn validation_catches_bad_weights() {
        let zero = AdequacyModel {
            outcome_weight: 0.0,
            preference_weight: 0.0,
            privacy_weight: 0.0,
        };
        assert!(zero.validate().is_err());
        let neg = AdequacyModel {
            outcome_weight: -1.0,
            ..Default::default()
        };
        assert!(neg.validate().is_err());
        assert!(AdequacyModel::default().validate().is_ok());
    }
}
