//! Measuring mechanism *power* — the paper's Reputation axis.
//!
//! Figure 2 (right) of the paper labels the reputation axis "satisfaction
//! of the reputation mechanism in terms of power as reliability,
//! efficiency and most of all, consistency with the reality". This module
//! makes those three words measurable:
//!
//! * **consistency** — Spearman rank correlation between mechanism scores
//!   and ground-truth provider quality (mapped to `[0, 1]`), plus RMSE;
//! * **reliability** — how well the mechanism separates adversarial from
//!   honest nodes (balanced detection accuracy at the optimal threshold);
//! * **efficiency** — inverse cost: refresh iterations and per-report
//!   message overhead, mapped through `1 / (1 + cost)`.

use crate::mechanism::ReputationMechanism;
use tsn_simnet::NodeId;

/// Weight of consistency-with-reality in the power score (the paper:
/// "most of all").
const CONSISTENCY_WEIGHT: f64 = 0.5;

/// Weight of reliability (adversary detection) in the power score.
const RELIABILITY_WEIGHT: f64 = 0.3;

/// Weight of efficiency (message/iteration cost) in the power score.
const EFFICIENCY_WEIGHT: f64 = 0.2;

/// The measured power of a mechanism against a ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Spearman rank correlation with true quality, mapped to `[0, 1]`.
    pub consistency: f64,
    /// Root-mean-square error between scores and true qualities.
    pub rmse: f64,
    /// Balanced accuracy of adversary detection at the best threshold.
    pub reliability: f64,
    /// Efficiency in `[0, 1]` (1 = free).
    pub efficiency: f64,
    /// Refresh iterations observed.
    pub iterations: usize,
    /// Per-report message overhead.
    pub overhead_per_report: usize,
}

impl PowerReport {
    /// The combined power score in `[0, 1]`: the weighted sum of
    /// consistency, reliability and efficiency (the weights sum to 1).
    pub fn power(&self) -> f64 {
        CONSISTENCY_WEIGHT * self.consistency
            + RELIABILITY_WEIGHT * self.reliability
            + EFFICIENCY_WEIGHT * self.efficiency
    }
}

/// Evaluates `mechanism` against ground truth.
///
/// `true_quality[i]` is the real success probability of node `i`;
/// `adversarial[i]` says whether node `i` is an adversary. `iterations` is
/// the refresh cost the caller observed.
///
/// # Panics
///
/// Panics if the slices' lengths differ from the mechanism's node count.
pub fn evaluate(
    mechanism: &dyn ReputationMechanism,
    true_quality: &[f64],
    adversarial: &[bool],
    iterations: usize,
) -> PowerReport {
    let scores: Vec<f64> = (0..mechanism.len())
        .map(|i| mechanism.score(NodeId::from_index(i)))
        .collect();
    evaluate_scores(mechanism, &scores, true_quality, adversarial, iterations)
}

/// Evaluates caller-owned `scores` — `scores[i]` is what `mechanism`
/// currently says about behaviour slot `i` — against ground truth.
/// [`evaluate`] gathers the scores and calls this. The scenario reads
/// them through its *identity mapping*: a whitewashed slot is scored
/// under its fresh identity while ground truth stays slot-indexed, so
/// reality knows a whitewashed adversary is the same adversary even
/// though the mechanism sees a newcomer. `mechanism` supplies only the
/// per-report overhead.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn evaluate_scores(
    mechanism: &dyn ReputationMechanism,
    scores: &[f64],
    true_quality: &[f64],
    adversarial: &[bool],
    iterations: usize,
) -> PowerReport {
    let n = scores.len();
    assert_eq!(true_quality.len(), n, "quality vector length mismatch");
    assert_eq!(adversarial.len(), n, "adversarial vector length mismatch");
    // Consistency: Spearman mapped from [-1, 1] to [0, 1]; an undefined
    // correlation (constant scores) counts as zero consistency.
    let consistency = tsn_graph::metrics::spearman(scores, true_quality)
        .map(|r| (r + 1.0) / 2.0)
        .unwrap_or(0.5);

    let rmse = if n == 0 {
        0.0
    } else {
        (scores
            .iter()
            .zip(true_quality)
            .map(|(s, q)| (s - q).powi(2))
            .sum::<f64>()
            / n as f64)
            .sqrt()
    };

    let reliability = balanced_detection_accuracy(scores, adversarial);

    let cost = iterations as f64 / 100.0 + mechanism.overhead_per_report() as f64 / 10.0;
    let efficiency = 1.0 / (1.0 + cost);

    PowerReport {
        consistency,
        rmse,
        reliability,
        efficiency,
        iterations,
        overhead_per_report: mechanism.overhead_per_report(),
    }
}

/// Balanced accuracy `(TPR + TNR) / 2` of classifying adversaries as the
/// low-score class, maximized over all score thresholds. 0.5 means chance.
///
/// A single sorted sweep with running counts — O(n log n) where the
/// naive per-threshold rescan is O(n²) — producing the same counts (and
/// therefore bit-identical accuracies) at every distinct threshold. The
/// scenario loop calls this once per round, so the quadratic version
/// showed up in profiles.
///
/// NaN scores are well-defined: `NaN <= t` is false for every threshold,
/// so a NaN-scored sample is never flagged (it always counts on the
/// high-score side). The previous sweep fed NaNs through a
/// `partial_cmp`-with-`Equal`-fallback sort, whose inconsistent
/// comparator left the flag counts — and the result — dependent on the
/// sort's internal visiting order.
pub fn balanced_detection_accuracy(scores: &[f64], adversarial: &[bool]) -> f64 {
    let positives = adversarial.iter().filter(|&&a| a).count();
    let negatives = adversarial.len() - positives;
    if positives == 0 || negatives == 0 {
        return 0.5; // degenerate: nothing to separate
    }
    // Only finite-or-infinite scores are candidate thresholds; NaN
    // samples still count toward positives/negatives above but can never
    // be flagged (consistent with the `<=` semantics).
    let mut order: Vec<(f64, bool)> = scores
        .iter()
        .copied()
        .zip(adversarial.iter().copied())
        .filter(|(s, _)| !s.is_nan())
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut best: f64 = 0.5;
    let mut flagged_adversaries = 0usize; // adversaries with score <= t
    let mut flagged_honest = 0usize; // honest with score <= t
    let mut i = 0;
    while i < order.len() {
        // Consume every sample tied at this threshold before scoring it
        // (`partial_cmp`, not `total_cmp`: -0.0 and 0.0 are one tie
        // group, exactly as `<=` would group them).
        let threshold = order[i].0;
        while i < order.len()
            && order[i].0.partial_cmp(&threshold) != Some(std::cmp::Ordering::Greater)
        {
            if order[i].1 {
                flagged_adversaries += 1;
            } else {
                flagged_honest += 1;
            }
            i += 1;
        }
        let tp = flagged_adversaries;
        let tn = negatives - flagged_honest;
        let bal = (tp as f64 / positives as f64 + tn as f64 / negatives as f64) / 2.0;
        best = best.max(bal);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beta::BetaReputation;
    use crate::gathering::{DisclosurePolicy, FeedbackReport};
    use crate::mechanism::{InteractionOutcome, NoReputation};
    use tsn_simnet::SimTime;

    fn trained_beta() -> BetaReputation {
        let mut m = BetaReputation::new(4).without_credibility_weighting();
        let full = DisclosurePolicy::full();
        // Nodes 0,1 good; 2,3 bad.
        for _ in 0..20 {
            for good in [0u32, 1] {
                m.record(&full.view(&FeedbackReport {
                    rater: NodeId(3 - good),
                    ratee: NodeId(good),
                    outcome: InteractionOutcome::Success { quality: 1.0 },
                    topic: None,
                    at: SimTime::ZERO,
                }));
            }
            for bad in [2u32, 3] {
                m.record(&full.view(&FeedbackReport {
                    rater: NodeId(bad - 2),
                    ratee: NodeId(bad),
                    outcome: InteractionOutcome::Failure,
                    topic: None,
                    at: SimTime::ZERO,
                }));
            }
        }
        m
    }

    #[test]
    fn perfect_mechanism_scores_high_power() {
        let m = trained_beta();
        let truth = [0.9, 0.9, 0.1, 0.1];
        let adv = [false, false, true, true];
        let report = evaluate(&m, &truth, &adv, 0);
        assert!(
            report.consistency > 0.9,
            "consistency {}",
            report.consistency
        );
        assert_eq!(report.reliability, 1.0);
        assert!(report.rmse < 0.2, "rmse {}", report.rmse);
        assert!(report.power() > 0.8);
    }

    #[test]
    fn blind_mechanism_scores_chance() {
        let m = NoReputation::new(4);
        let truth = [0.9, 0.9, 0.1, 0.1];
        let adv = [false, false, true, true];
        let report = evaluate(&m, &truth, &adv, 0);
        assert_eq!(report.consistency, 0.5, "constant scores → undefined → 0.5");
        assert_eq!(report.reliability, 0.5);
    }

    #[test]
    fn identity_mapped_evaluation_matches_and_exposes_whitewashing() {
        let mut m = trained_beta();
        let truth = [0.9, 0.9, 0.1, 0.1];
        let adv = [false, false, true, true];
        // The dense identity map is bit-identical to plain evaluate().
        let mapped = |m: &BetaReputation, identity: &[NodeId]| {
            let scores: Vec<f64> = identity.iter().map(|&id| m.score(id)).collect();
            evaluate_scores(m, &scores, &truth, &adv, 0)
        };
        let dense: Vec<NodeId> = (0..4).map(NodeId::from_index).collect();
        let plain = evaluate(&m, &truth, &adv, 0);
        assert_eq!(plain, mapped(&m, &dense));

        // Adversary slot 3 whitewashes: the mechanism now knows it as a
        // fresh identity (4) at the prior. Reality still knows slot 3 is
        // the same low-quality adversary, so measured power drops.
        m.resize(5);
        let washed = [NodeId(0), NodeId(1), NodeId(2), NodeId(4)];
        let after = mapped(&m, &washed);
        assert!(
            after.rmse > plain.rmse,
            "whitewashing hurts accuracy: {} vs {}",
            after.rmse,
            plain.rmse
        );
        // Reliability cannot improve (the washed score sits at the
        // prior, between the classes).
        assert!(after.reliability <= plain.reliability);
    }

    #[test]
    fn detection_accuracy_perfect_separation() {
        let scores = [0.9, 0.8, 0.1, 0.2];
        let adv = [false, false, true, true];
        assert_eq!(balanced_detection_accuracy(&scores, &adv), 1.0);
    }

    #[test]
    fn detection_accuracy_inverted_scores_is_poor() {
        // Mechanism fooled: adversaries have HIGH scores. Flagging by low
        // score then fails; balanced accuracy stays at chance (0.5 floor).
        let scores = [0.1, 0.2, 0.9, 0.8];
        let adv = [false, false, true, true];
        let acc = balanced_detection_accuracy(&scores, &adv);
        assert!((0.4..=0.6).contains(&acc), "acc {acc}");
    }

    #[test]
    fn detection_degenerate_populations() {
        assert_eq!(
            balanced_detection_accuracy(&[0.5, 0.6], &[false, false]),
            0.5
        );
        assert_eq!(balanced_detection_accuracy(&[0.5, 0.6], &[true, true]), 0.5);
    }

    #[test]
    fn efficiency_decreases_with_cost() {
        let m = trained_beta();
        let truth = [0.9, 0.9, 0.1, 0.1];
        let adv = [false, false, true, true];
        let cheap = evaluate(&m, &truth, &adv, 0);
        let costly = evaluate(&m, &truth, &adv, 500);
        assert!(cheap.efficiency > costly.efficiency);
    }

    #[test]
    fn power_weights_normalize() {
        let report = PowerReport {
            consistency: 1.0,
            rmse: 0.0,
            reliability: 0.0,
            efficiency: 0.0,
            iterations: 0,
            overhead_per_report: 0,
        };
        // Exactly 1 in f64, so the weighted sum needs no division.
        assert_eq!(
            CONSISTENCY_WEIGHT + RELIABILITY_WEIGHT + EFFICIENCY_WEIGHT,
            1.0
        );
        assert_eq!(report.power(), CONSISTENCY_WEIGHT);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let m = NoReputation::new(3);
        let _ = evaluate(&m, &[0.5; 2], &[false; 3], 0);
    }

    #[test]
    fn sweep_matches_naive_per_threshold_rescan() {
        // The O(n log n) sweep must reproduce the quadratic reference
        // bit-for-bit, ties and duplicates included.
        fn naive(scores: &[f64], adversarial: &[bool]) -> f64 {
            let positives = adversarial.iter().filter(|&&a| a).count();
            let negatives = adversarial.len() - positives;
            if positives == 0 || negatives == 0 {
                return 0.5;
            }
            let mut thresholds: Vec<f64> = scores.to_vec();
            thresholds.sort_by(|a, b| a.partial_cmp(b).unwrap());
            thresholds.dedup();
            let mut best: f64 = 0.5;
            for &t in &thresholds {
                let tp = scores
                    .iter()
                    .zip(adversarial)
                    .filter(|(s, &adv)| adv && **s <= t)
                    .count();
                let tn = scores
                    .iter()
                    .zip(adversarial)
                    .filter(|(s, &adv)| !adv && **s > t)
                    .count();
                let bal = (tp as f64 / positives as f64 + tn as f64 / negatives as f64) / 2.0;
                best = best.max(bal);
            }
            best
        }
        // NaN scores must not wedge the sweep (the tie loop advances
        // past values that do not compare greater, NaN included).
        let acc = balanced_detection_accuracy(&[0.5, f64::NAN, 0.2], &[true, false, false]);
        assert!((0.0..=1.0).contains(&acc));

        let mut rng = tsn_simnet::SimRng::seed_from_u64(5);
        for case in 0..50 {
            let n = 3 + (case % 17);
            let scores: Vec<f64> = (0..n)
                .map(|_| (rng.gen_range(0..8u32) as f64) / 8.0) // force ties
                .collect();
            let adversarial: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
            assert_eq!(
                balanced_detection_accuracy(&scores, &adversarial).to_bits(),
                naive(&scores, &adversarial).to_bits(),
                "case {case}: scores {scores:?} adv {adversarial:?}"
            );
        }
    }
}
