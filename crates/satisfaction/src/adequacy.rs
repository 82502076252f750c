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

/// Weight of outcome quality relative to expectation.
const OUTCOME_WEIGHT: f64 = 0.5;
/// Weight of the allocation matching preferred providers.
const PREFERENCE_WEIGHT: f64 = 0.25;
/// Base weight of privacy respect (scaled further by the consumer's own
/// `privacy_concern`).
const PRIVACY_WEIGHT: f64 = 0.25;

/// Adequacy of one interaction to `intentions`, in `\[0, 1\]`: a
/// weighted mean of three terms.
///
/// * Outcome (weight 0.5): quality relative to the consumer's
///   expectation (meeting the expectation scores 1; a shortfall scores
///   proportionally).
/// * Preference (weight 0.25): 1 if the provider was intended, a small
///   floor if imposed.
/// * Privacy (weight 0.25 × `privacy_concern`): 1 if respected, else 0.
///   An indifferent user loses nothing, a concerned user loses the full
///   privacy share. This is the paper's point that privacy preferences
///   are individual.
pub fn adequacy(intentions: &ConsumerIntentions, aspects: &InteractionAspects) -> f64 {
    let outcome_term = if intentions.quality_expectation <= 0.0 {
        1.0
    } else {
        (aspects.outcome_quality / intentions.quality_expectation).clamp(0.0, 1.0)
    };
    let preference_term = if aspects.intended { 1.0 } else { 0.2 };
    // Concern scales the *effective weight* of privacy, not its value:
    let effective_privacy_weight = PRIVACY_WEIGHT * intentions.privacy_concern;
    let privacy_term = if aspects.privacy_respected { 1.0 } else { 0.0 };
    let total = OUTCOME_WEIGHT + PREFERENCE_WEIGHT + effective_privacy_weight;
    (OUTCOME_WEIGHT * outcome_term
        + PREFERENCE_WEIGHT * preference_term
        + effective_privacy_weight * privacy_term)
        / total
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
        let intentions = ConsumerIntentions::default();
        let a = adequacy(&intentions, &aspects(1.0, true));
        assert!((a - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failure_scores_low() {
        let intentions = ConsumerIntentions::default();
        let a = adequacy(&intentions, &aspects(0.0, true));
        assert!(a < 0.6, "failed outcome should hurt, got {a}");
    }

    #[test]
    fn meeting_expectation_is_enough() {
        let demanding = ConsumerIntentions::new(0.9, 0.5).unwrap();
        let modest = ConsumerIntentions::new(0.3, 0.5).unwrap();
        // Quality 0.5 fully satisfies the modest consumer's outcome term,
        // only partially the demanding one's.
        let a_demanding = adequacy(&demanding, &aspects(0.5, true));
        let a_modest = adequacy(&modest, &aspects(0.5, true));
        assert!(a_modest > a_demanding);
        assert!((a_modest - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unintended_provider_reduces_adequacy() {
        let intentions = ConsumerIntentions::default();
        let intended = aspects(0.8, true);
        let imposed = InteractionAspects {
            intended: false,
            ..intended
        };
        let full = adequacy(&intentions, &intended);
        let reduced = adequacy(&intentions, &imposed);
        // Only the preference term moves: from 1 to the 0.2 floor.
        let total =
            OUTCOME_WEIGHT + PREFERENCE_WEIGHT + PRIVACY_WEIGHT * intentions.privacy_concern;
        assert!(full > reduced);
        assert!((full - reduced - PREFERENCE_WEIGHT * 0.8 / total).abs() < 1e-12);
    }

    #[test]
    fn privacy_violation_hurts_concerned_users_more() {
        let concerned = ConsumerIntentions::new(0.5, 1.0).unwrap();
        let indifferent = ConsumerIntentions::new(0.5, 0.0).unwrap();
        let ok = aspects(0.8, true);
        let violated = aspects(0.8, false);
        let concerned_drop = adequacy(&concerned, &ok) - adequacy(&concerned, &violated);
        let indifferent_drop = adequacy(&indifferent, &ok) - adequacy(&indifferent, &violated);
        assert!(concerned_drop > 0.2, "drop {concerned_drop}");
        assert!(
            indifferent_drop.abs() < 1e-12,
            "indifferent users lose nothing"
        );
    }

    #[test]
    fn zero_expectation_outcome_term_is_one() {
        let easy = ConsumerIntentions::new(0.0, 0.5).unwrap();
        let a = adequacy(&easy, &aspects(0.0, true));
        assert!(a > 0.9, "nothing expected, nothing lost: {a}");
    }

    #[test]
    fn adequacy_is_bounded() {
        let intentions = ConsumerIntentions::new(0.7, 0.8).unwrap();
        for q in [0.0, 0.3, 0.9, 1.0] {
            for p in [true, false] {
                let a = adequacy(&intentions, &aspects(q, p));
                assert!((0.0..=1.0).contains(&a), "adequacy {a} out of range");
            }
        }
    }
}
