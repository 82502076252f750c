//! Information gathering — the first block of the Marti–Garcia-Molina
//! taxonomy, and the privacy coupling point.
//!
//! A [`FeedbackReport`] is what the rater *knows*; a [`ReportView`] is what
//! the system *shares*, after the [`DisclosurePolicy`] has stripped or
//! coarsened fields. The paper's Figure 2 turns on exactly this dial:
//! sharing more fields makes mechanisms more powerful and privacy weaker.

use crate::mechanism::InteractionOutcome;
use tsn_simnet::{NodeId, SimTime};

/// A complete, truthful-as-far-as-the-rater-goes feedback record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackReport {
    /// Who experienced the interaction.
    pub rater: NodeId,
    /// Who provided the service.
    pub ratee: NodeId,
    /// What happened.
    pub outcome: InteractionOutcome,
    /// Topic / context of the interaction, if meaningful.
    pub topic: Option<usize>,
    /// When the interaction ended.
    pub at: SimTime,
}

/// The individually shareable fields of a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DisclosureField {
    /// The rater's identity (needed for rater-credibility weighting).
    RaterIdentity,
    /// Fine-grained outcome quality (vs. a coarse success bit).
    OutcomeDetail,
    /// Interaction topic/context.
    Topic,
    /// Interaction timestamp.
    Timestamp,
}

impl DisclosureField {
    /// All fields, in sensitivity order (most sensitive first).
    pub const ALL: [DisclosureField; 4] = [
        DisclosureField::RaterIdentity,
        DisclosureField::Topic,
        DisclosureField::Timestamp,
        DisclosureField::OutcomeDetail,
    ];

    /// Relative privacy sensitivity weight of the field (sums to 1 over
    /// `ALL`). Identity dominates: linking feedback to a person is the
    /// canonical privacy breach of reputation systems.
    pub fn sensitivity(self) -> f64 {
        match self {
            DisclosureField::RaterIdentity => 0.5,
            DisclosureField::Topic => 0.25,
            DisclosureField::Timestamp => 0.15,
            DisclosureField::OutcomeDetail => 0.10,
        }
    }
}

/// Which report fields are shared with the reputation system.
///
/// The policy is the paper's "quantity of shared information" knob, with
/// [`DisclosurePolicy::exposure`] as its scalar measure in `[0, 1]`.
///
/// ```
/// use tsn_reputation::DisclosurePolicy;
///
/// let anonymous = DisclosurePolicy::ladder(0);
/// let full = DisclosurePolicy::ladder(4);
/// assert!(anonymous.exposure() < full.exposure());
/// assert!(!anonymous.rater_identity && full.rater_identity);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DisclosurePolicy {
    /// Share the rater identity.
    pub rater_identity: bool,
    /// Share fine-grained outcome quality.
    pub outcome_detail: bool,
    /// Share the topic.
    pub topic: bool,
    /// Share the timestamp.
    pub timestamp: bool,
}

impl DisclosurePolicy {
    /// Everything shared — maximum reputation power, minimum privacy.
    pub fn full() -> Self {
        DisclosurePolicy {
            rater_identity: true,
            outcome_detail: true,
            topic: true,
            timestamp: true,
        }
    }

    /// Nothing but the anonymous success bit — maximum privacy.
    pub fn minimal() -> Self {
        DisclosurePolicy {
            rater_identity: false,
            outcome_detail: false,
            topic: false,
            timestamp: false,
        }
    }

    /// A ladder of policies from minimal (0) to full (4), adding fields in
    /// increasing sensitivity order. `level` is clamped to `0..=4`.
    ///
    /// This is the x-axis of the paper's Figure 2 (right): each step
    /// shares strictly more information.
    pub fn ladder(level: usize) -> Self {
        let level = level.min(4);
        DisclosurePolicy {
            outcome_detail: level >= 1,
            timestamp: level >= 2,
            topic: level >= 3,
            rater_identity: level >= 4,
        }
    }

    /// Number of ladder levels (0 through 4).
    pub const LADDER_LEVELS: usize = 5;

    /// Whether a given field is shared.
    pub fn shares(&self, field: DisclosureField) -> bool {
        match field {
            DisclosureField::RaterIdentity => self.rater_identity,
            DisclosureField::OutcomeDetail => self.outcome_detail,
            DisclosureField::Topic => self.topic,
            DisclosureField::Timestamp => self.timestamp,
        }
    }

    /// Scalar exposure in `[0, 1]`: the sensitivity-weighted fraction of
    /// fields shared. 0 = minimal, 1 = full.
    pub fn exposure(&self) -> f64 {
        let sum: f64 = DisclosureField::ALL
            .iter()
            .filter(|&&f| self.shares(f))
            .map(|f| f.sensitivity())
            .sum();
        // An empty float sum is -0.0; keep the exposure's zero unsigned.
        sum + 0.0
    }

    /// Applies the policy to a report, producing the shared view.
    pub fn view(&self, report: &FeedbackReport) -> ReportView {
        ReportView {
            rater: self.rater_identity.then_some(report.rater),
            ratee: report.ratee,
            success: report.outcome.is_success(),
            quality: self.outcome_detail.then(|| report.outcome.value()),
            topic: if self.topic { report.topic } else { None },
            at: self.timestamp.then_some(report.at),
        }
    }
}

impl Default for DisclosurePolicy {
    /// The full policy: classic reputation systems assume full feedback.
    fn default() -> Self {
        DisclosurePolicy::full()
    }
}

/// What the reputation system actually receives.
///
/// Every field except the ratee is optional: mechanisms must cope with
/// whatever the disclosure policy leaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportView {
    /// Rater identity, when disclosed.
    pub rater: Option<NodeId>,
    /// The rated node (always known: you cannot score without a subject).
    pub ratee: NodeId,
    /// Coarse outcome: did the interaction succeed?
    pub success: bool,
    /// Fine-grained quality, when disclosed.
    pub quality: Option<f64>,
    /// Topic, when disclosed.
    pub topic: Option<usize>,
    /// Timestamp, when disclosed.
    pub at: Option<SimTime>,
}

impl ReportView {
    /// The best available scalar value of the outcome: the fine-grained
    /// quality when disclosed, else the success bit.
    pub fn value(&self) -> f64 {
        self.quality.unwrap_or(if self.success { 1.0 } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> FeedbackReport {
        FeedbackReport {
            rater: NodeId(3),
            ratee: NodeId(7),
            outcome: InteractionOutcome::Success { quality: 0.8 },
            topic: Some(2),
            at: SimTime::from_secs(5),
        }
    }

    #[test]
    fn full_policy_shares_everything() {
        let v = DisclosurePolicy::full().view(&report());
        assert_eq!(v.rater, Some(NodeId(3)));
        assert_eq!(v.quality, Some(0.8));
        assert_eq!(v.topic, Some(2));
        assert_eq!(v.at, Some(SimTime::from_secs(5)));
        assert!(v.success);
    }

    #[test]
    fn minimal_policy_shares_only_the_bit() {
        let v = DisclosurePolicy::minimal().view(&report());
        assert_eq!(v.rater, None);
        assert_eq!(v.quality, None);
        assert_eq!(v.topic, None);
        assert_eq!(v.at, None);
        assert!(v.success);
        assert_eq!(v.ratee, NodeId(7));
    }

    #[test]
    fn view_value_prefers_detail() {
        let v = DisclosurePolicy::full().view(&report());
        assert_eq!(v.value(), 0.8);
        let v = DisclosurePolicy::minimal().view(&report());
        assert_eq!(v.value(), 1.0, "success bit only");
        let mut failed = report();
        failed.outcome = InteractionOutcome::Failure;
        assert_eq!(DisclosurePolicy::minimal().view(&failed).value(), 0.0);
    }

    #[test]
    fn exposure_is_monotone_on_the_ladder() {
        let mut last = -1.0;
        for level in 0..DisclosurePolicy::LADDER_LEVELS {
            let e = DisclosurePolicy::ladder(level).exposure();
            assert!(e > last, "exposure must strictly increase per level");
            last = e;
        }
        assert_eq!(DisclosurePolicy::ladder(0), DisclosurePolicy::minimal());
        assert_eq!(DisclosurePolicy::ladder(4), DisclosurePolicy::full());
        assert_eq!(
            DisclosurePolicy::ladder(99),
            DisclosurePolicy::full(),
            "clamped"
        );
    }

    #[test]
    fn exposure_extremes() {
        assert_eq!(DisclosurePolicy::minimal().exposure(), 0.0);
        assert!((DisclosurePolicy::full().exposure() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sensitivities_sum_to_one() {
        let total: f64 = DisclosureField::ALL.iter().map(|f| f.sensitivity()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_full() {
        assert_eq!(DisclosurePolicy::default(), DisclosurePolicy::full());
    }
}
