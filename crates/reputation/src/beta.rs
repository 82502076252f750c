//! Beta (Bayesian) reputation — the classic baseline mechanism.
//!
//! Every ratee accumulates pseudo-counts `(α, β)` from positive and
//! negative reports; the score is the posterior mean `α / (α + β)` with a
//! `Beta(1, 1)` (uniform) prior. When rater identities are disclosed the
//! report is weighted by the *rater's own current score* (credibility
//! weighting), which buys resistance against lying minorities — and is
//! lost under anonymization, again exactly the trade-off the paper plots.

use crate::gathering::ReportView;
use crate::mechanism::{drained, MechanismKind, ReputationMechanism};
use tsn_simnet::NodeId;

/// The Beta reputation mechanism.
///
/// ```
/// use tsn_reputation::{
///     BetaReputation, DisclosurePolicy, FeedbackReport, InteractionOutcome,
///     ReputationMechanism,
/// };
/// use tsn_simnet::{NodeId, SimTime};
///
/// let mut rep = BetaReputation::new(2);
/// let report = FeedbackReport {
///     rater: NodeId(0),
///     ratee: NodeId(1),
///     outcome: InteractionOutcome::Success { quality: 1.0 },
///     topic: None,
///     at: SimTime::ZERO,
/// };
/// rep.record(&DisclosurePolicy::full().view(&report));
/// assert!(rep.score(NodeId(1)) > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct BetaReputation {
    /// Positive pseudo-counts per node (prior adds 1).
    pos: Vec<f64>,
    /// Negative pseudo-counts per node (prior adds 1).
    neg: Vec<f64>,
    /// Whether to weight reports by rater credibility when identities are
    /// available.
    credibility_weighting: bool,
}

impl BetaReputation {
    /// Creates an instance for `n` nodes with credibility weighting on.
    pub fn new(n: usize) -> Self {
        BetaReputation {
            pos: vec![0.0; n],
            neg: vec![0.0; n],
            credibility_weighting: true,
        }
    }

    /// Disables rater-credibility weighting (used by ablations).
    pub fn without_credibility_weighting(mut self) -> Self {
        self.credibility_weighting = false;
        self
    }

    /// Total evidence (positive + negative counts) about `node`.
    pub fn evidence(&self, node: NodeId) -> f64 {
        self.pos[node.index()] + self.neg[node.index()]
    }
}

impl ReputationMechanism for BetaReputation {
    fn kind(&self) -> MechanismKind {
        MechanismKind::Beta
    }

    fn resize(&mut self, n: usize) {
        if n > self.pos.len() {
            self.pos.resize(n, 0.0);
            self.neg.resize(n, 0.0);
        }
    }

    fn record(&mut self, report: &ReportView) {
        let ratee = report.ratee.index();
        debug_assert!(ratee < self.pos.len(), "ratee out of range");
        if report.rater == Some(report.ratee) {
            return; // self-ratings are ignored
        }
        let weight = match report.rater {
            Some(rater) if self.credibility_weighting => {
                // Weight by the rater's current score; unknown raters start
                // at the 0.5 prior, so weights stay in (0, 1).
                self.score(rater).max(0.05)
            }
            _ => 1.0,
        };
        let v = report.value();
        // Fine-grained quality splits the report between α and β mass.
        self.pos[ratee] += weight * v;
        self.neg[ratee] += weight * (1.0 - v);
    }

    fn refresh(&mut self) -> usize {
        // Scores are the posterior means of the counts, always current.
        0
    }

    fn score(&self, node: NodeId) -> f64 {
        if node.index() >= self.pos.len() {
            return 0.5;
        }
        let a = self.pos[node.index()] + 1.0;
        let b = self.neg[node.index()] + 1.0;
        a / (a + b)
    }

    fn len(&self) -> usize {
        self.pos.len()
    }

    fn overhead_per_report(&self) -> usize {
        // Purely local gossip of one report.
        1
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        // Evolving state is exactly the two pseudo-count vectors;
        // credibility weighting is construction-time configuration (see
        // the trait's restore contract).
        let mut w = tsn_simnet::ByteWriter::new();
        w.put_u64(self.pos.len() as u64);
        for &x in self.pos.iter().chain(self.neg.iter()) {
            w.put_f64(x);
        }
        Some(w.finish())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = tsn_simnet::ByteReader::new(bytes);
        let n = r.take_seq_len(16)?;
        if n != self.pos.len() {
            return Err(format!(
                "Beta snapshot is for {n} nodes, instance has {}",
                self.pos.len()
            ));
        }
        let mut pos = Vec::with_capacity(n);
        for _ in 0..n {
            pos.push(r.take_f64()?);
        }
        let mut neg = Vec::with_capacity(n);
        for _ in 0..n {
            neg.push(r.take_f64()?);
        }
        drained(&r, "Beta")?;
        self.pos = pos;
        self.neg = neg;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gathering::{DisclosurePolicy, FeedbackReport};
    use crate::mechanism::InteractionOutcome;
    use tsn_simnet::SimTime;

    fn view(rater: u32, ratee: u32, good: bool, policy: &DisclosurePolicy) -> ReportView {
        policy.view(&FeedbackReport {
            rater: NodeId(rater),
            ratee: NodeId(ratee),
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
    fn prior_is_half() {
        let m = BetaReputation::new(2);
        assert_eq!(m.score(NodeId(0)), 0.5);
        assert_eq!(m.score(NodeId(99)), 0.5);
    }

    #[test]
    fn positive_reports_raise_score() {
        let mut m = BetaReputation::new(2);
        let full = DisclosurePolicy::full();
        for _ in 0..10 {
            m.record(&view(0, 1, true, &full));
        }
        assert!(m.score(NodeId(1)) > 0.8);
        assert_eq!(m.score(NodeId(0)), 0.5, "rater unchanged");
    }

    #[test]
    fn negative_reports_lower_score() {
        let mut m = BetaReputation::new(2);
        let full = DisclosurePolicy::full();
        for _ in 0..10 {
            m.record(&view(0, 1, false, &full));
        }
        assert!(m.score(NodeId(1)) < 0.2);
    }

    #[test]
    fn posterior_mean_formula() {
        let mut m = BetaReputation::new(2).without_credibility_weighting();
        let full = DisclosurePolicy::full();
        m.record(&view(0, 1, true, &full));
        m.record(&view(0, 1, true, &full));
        m.record(&view(0, 1, false, &full));
        // α = 2+1, β = 1+1 → 3/5
        assert!((m.score(NodeId(1)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn quality_detail_splits_mass() {
        let mut m = BetaReputation::new(2).without_credibility_weighting();
        let full = DisclosurePolicy::full();
        let report = FeedbackReport {
            rater: NodeId(0),
            ratee: NodeId(1),
            outcome: InteractionOutcome::Success { quality: 0.5 },
            topic: None,
            at: SimTime::ZERO,
        };
        m.record(&full.view(&report));
        // α = 0.5+1, β = 0.5+1 → 0.5
        assert!((m.score(NodeId(1)) - 0.5).abs() < 1e-12);
        assert_eq!(m.evidence(NodeId(1)), 1.0);
    }

    #[test]
    fn credibility_weighting_discounts_distrusted_raters() {
        let full = DisclosurePolicy::full();
        let mut m = BetaReputation::new(3);
        // Node 2's reputation is first destroyed by node 0.
        for _ in 0..20 {
            m.record(&view(0, 2, false, &full));
        }
        let low_cred = m.score(NodeId(2));
        assert!(low_cred < 0.1);
        // Now node 2 (distrusted) and node 0 (prior 0.5) both praise node 1.
        let mut with_liar = m.clone();
        for _ in 0..5 {
            with_liar.record(&view(2, 1, true, &full));
        }
        let mut with_neutral = m.clone();
        for _ in 0..5 {
            with_neutral.record(&view(0, 1, true, &full));
        }
        assert!(
            with_neutral.score(NodeId(1)) > with_liar.score(NodeId(1)),
            "distrusted rater's praise must count less"
        );
    }

    #[test]
    fn anonymized_reports_have_unit_weight() {
        let anon = DisclosurePolicy::minimal();
        let mut m = BetaReputation::new(2);
        m.record(&view(0, 1, true, &anon));
        // α = 1+1, β = 0+1 → 2/3 exactly (weight 1, coarse bit)
        assert!((m.score(NodeId(1)) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn self_ratings_ignored() {
        let full = DisclosurePolicy::full();
        let mut m = BetaReputation::new(2);
        for _ in 0..10 {
            m.record(&view(1, 1, true, &full));
        }
        assert_eq!(m.score(NodeId(1)), 0.5);
    }

    #[test]
    fn refresh_is_free_and_keeps_scores() {
        let full = DisclosurePolicy::full();
        let mut m = BetaReputation::new(2);
        for _ in 0..8 {
            m.record(&view(0, 1, true, &full));
        }
        let before = m.score(NodeId(1));
        assert_eq!(m.refresh(), 0);
        assert_eq!(m.score(NodeId(1)).to_bits(), before.to_bits());
    }

    #[test]
    fn resize_grows() {
        let mut m = BetaReputation::new(1);
        m.resize(4);
        assert_eq!(m.len(), 4);
        m.resize(2);
        assert_eq!(m.len(), 4, "never shrinks");
    }
}
