//! Response — the third taxonomy block: acting on scores when choosing an
//! interaction partner. Selection reuses a caller-held
//! [`SelectionScratch`], so the scenario engine's interaction loop picks
//! partners without allocating.

use tsn_simnet::{NodeId, SimRng};

/// Partner-selection policy applied to a candidate set with known scores.
///
/// ```
/// use tsn_reputation::{SelectionPolicy, SelectionScratch};
/// use tsn_simnet::{NodeId, SimRng};
///
/// let mut rng = SimRng::seed_from_u64(1);
/// let mut scratch = SelectionScratch::default();
/// let candidates = [NodeId(0), NodeId(1)];
/// let score = |n: NodeId| if n.0 == 1 { 0.9 } else { 0.1 };
/// let best = SelectionPolicy::Best.select_with(&candidates, score, &mut rng, &mut scratch);
/// assert_eq!(best, Some(NodeId(1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionPolicy {
    /// Uniform choice — ignores reputation entirely (the `None` baseline).
    Random,
    /// Always the highest-scored candidate (ties → lowest id).
    Best,
    /// Probability proportional to `score^sharpness`; `sharpness` = 1 is
    /// plain score-proportional, higher values approach `Best`, 0 is
    /// `Random`. Keeps exploration alive, which reputation systems need to
    /// discover newcomers.
    Proportional {
        /// Exponent applied to scores before normalization.
        sharpness: f64,
    },
    /// Uniform choice among candidates with `score >= threshold`; falls
    /// back to the best-scored candidate when none qualifies.
    Threshold {
        /// Minimum acceptable score.
        threshold: f64,
    },
}

impl SelectionPolicy {
    /// Standard policy set used in sweeps.
    pub const SWEEP: [SelectionPolicy; 4] = [
        SelectionPolicy::Random,
        SelectionPolicy::Best,
        SelectionPolicy::Proportional { sharpness: 2.0 },
        SelectionPolicy::Threshold { threshold: 0.5 },
    ];

    /// Short label for experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            SelectionPolicy::Random => "random",
            SelectionPolicy::Best => "best",
            SelectionPolicy::Proportional { .. } => "proportional",
            SelectionPolicy::Threshold { .. } => "threshold",
        }
    }

    /// The selection weight a candidate with reputation `score` carries
    /// under this policy: `score.max(0) ^ sharpness.max(0)` for
    /// `Proportional`, the score itself otherwise (`Random` ignores it).
    ///
    /// A score that stays fixed across many selections — a scenario
    /// round's frozen snapshot — can be weighted once and handed to
    /// [`SelectionPolicy::select_weighted`], which then draws exactly as
    /// [`SelectionPolicy::select_with`] does on the score.
    pub fn weight(self, score: f64) -> f64 {
        match self {
            SelectionPolicy::Proportional { sharpness } => score.max(0.0).powf(sharpness.max(0.0)),
            SelectionPolicy::Random | SelectionPolicy::Best | SelectionPolicy::Threshold { .. } => {
                score
            }
        }
    }

    /// Picks one provider among `candidates`, whose reputation is given by
    /// `score(candidate)`. Returns `None` when `candidates` is empty.
    ///
    /// `scratch` holds the working buffers, so a selection performs no
    /// allocation; what it held before never affects the draw.
    pub fn select_with(
        self,
        candidates: &[NodeId],
        mut score: impl FnMut(NodeId) -> f64,
        rng: &mut SimRng,
        scratch: &mut SelectionScratch,
    ) -> Option<NodeId> {
        self.select_weighted(candidates, |c| self.weight(score(c)), rng, scratch)
    }

    /// Picks one provider among `candidates` given each candidate's
    /// precomputed [`SelectionPolicy::weight`]. The draw — choice and RNG
    /// consumption — is exactly that of [`SelectionPolicy::select_with`]
    /// on the unweighted scores. `weight_of` is called at most once per
    /// candidate (never for `Random`).
    pub fn select_weighted(
        self,
        candidates: &[NodeId],
        mut weight_of: impl FnMut(NodeId) -> f64,
        rng: &mut SimRng,
        scratch: &mut SelectionScratch,
    ) -> Option<NodeId> {
        if candidates.is_empty() {
            return None;
        }
        // Weight each candidate once; every policy but `Random` reads
        // the weights (`Threshold` both to filter and in its fallback).
        let weights = &mut scratch.weights;
        weights.clear();
        if !matches!(self, SelectionPolicy::Random) {
            weights.extend(candidates.iter().map(|&c| weight_of(c)));
        }
        match self {
            SelectionPolicy::Random => rng.choose(candidates).copied(),
            SelectionPolicy::Best => best_of(candidates, weights),
            SelectionPolicy::Proportional { .. } => match rng.choose_weighted_index(weights) {
                Some(i) => Some(candidates[i]),
                // All-zero scores: fall back to uniform.
                None => rng.choose(candidates).copied(),
            },
            SelectionPolicy::Threshold { threshold } => {
                scratch.qualified.clear();
                scratch.qualified.extend(
                    candidates
                        .iter()
                        .zip(weights.iter())
                        .filter(|&(_, &w)| w >= threshold)
                        .map(|(&c, _)| c),
                );
                if scratch.qualified.is_empty() {
                    best_of(candidates, weights)
                } else {
                    rng.choose(&scratch.qualified).copied()
                }
            }
        }
    }
}

/// The highest-weighted candidate, ties → lowest id (`weights[i]`
/// belongs to `candidates[i]`). Keeps `max_by`'s exact semantics,
/// including its treatment of incomparable (NaN) weights.
fn best_of(candidates: &[NodeId], weights: &[f64]) -> Option<NodeId> {
    candidates
        .iter()
        .copied()
        .zip(weights.iter().copied())
        .max_by(|&(a, sa), &(b, sb)| {
            sa.partial_cmp(&sb)
                .unwrap_or(std::cmp::Ordering::Equal)
                // Prefer the lower id on ties (max_by keeps the last
                // maximal element, so compare ids in reverse).
                .then(b.cmp(&a))
        })
        .map(|(c, _)| c)
}

/// Reusable buffers for [`SelectionPolicy::select_weighted`]; one instance
/// per interaction loop keeps partner selection allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SelectionScratch {
    weights: Vec<f64>,
    qualified: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut scratch = SelectionScratch::default();
        for policy in SelectionPolicy::SWEEP {
            let chosen = policy.select_with(&[], |_| 1.0, &mut rng, &mut scratch);
            assert_eq!(chosen, None);
        }
    }

    #[test]
    fn best_picks_highest_score() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut scratch = SelectionScratch::default();
        let score = |n: NodeId| [0.2, 0.9, 0.5, 0.7][n.index()];
        let chosen = SelectionPolicy::Best.select_with(&nodes(4), score, &mut rng, &mut scratch);
        assert_eq!(chosen, Some(NodeId(1)));
    }

    #[test]
    fn best_breaks_ties_by_lowest_id() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut scratch = SelectionScratch::default();
        let chosen = SelectionPolicy::Best.select_with(&nodes(3), |_| 0.5, &mut rng, &mut scratch);
        assert_eq!(chosen, Some(NodeId(0)));
    }

    #[test]
    fn random_is_roughly_uniform() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut scratch = SelectionScratch::default();
        let cands = nodes(4);
        let mut counts = [0usize; 4];
        for _ in 0..8000 {
            let c = SelectionPolicy::Random
                .select_with(&cands, |_| 0.0, &mut rng, &mut scratch)
                .unwrap();
            counts[c.index()] += 1;
        }
        for c in counts {
            assert!((c as f64 / 8000.0 - 0.25).abs() < 0.03, "{counts:?}");
        }
    }

    #[test]
    fn proportional_follows_scores() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut scratch = SelectionScratch::default();
        let cands = nodes(2);
        let score = |n: NodeId| if n.0 == 0 { 0.25 } else { 0.75 };
        let policy = SelectionPolicy::Proportional { sharpness: 1.0 };
        let high = (0..10_000)
            .filter(|_| {
                policy.select_with(&cands, score, &mut rng, &mut scratch) == Some(NodeId(1))
            })
            .count();
        let rate = high as f64 / 10_000.0;
        assert!((rate - 0.75).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn proportional_sharpness_concentrates() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut scratch = SelectionScratch::default();
        let cands = nodes(2);
        let score = |n: NodeId| if n.0 == 0 { 0.4 } else { 0.6 };
        let mut pick_rate = |sharpness: f64| {
            let policy = SelectionPolicy::Proportional { sharpness };
            let high = (0..5000)
                .filter(|_| {
                    policy.select_with(&cands, score, &mut rng, &mut scratch) == Some(NodeId(1))
                })
                .count();
            high as f64 / 5000.0
        };
        let soft = pick_rate(1.0);
        let sharp = pick_rate(8.0);
        assert!(
            sharp > soft,
            "sharper exponent favours the better node more: {sharp} vs {soft}"
        );
    }

    #[test]
    fn proportional_all_zero_scores_falls_back_to_uniform() {
        let mut rng = SimRng::seed_from_u64(6);
        let mut scratch = SelectionScratch::default();
        let policy = SelectionPolicy::Proportional { sharpness: 2.0 };
        assert!(policy
            .select_with(&nodes(3), |_| 0.0, &mut rng, &mut scratch)
            .is_some());
    }

    #[test]
    fn threshold_filters_and_falls_back() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut scratch = SelectionScratch::default();
        let cands = nodes(3);
        let score = |n: NodeId| [0.1, 0.5, 0.8][n.index()];
        // Only node 2 qualifies at 0.6; nobody at 0.99 → best.
        for threshold in [0.6; 20].into_iter().chain([0.99]) {
            let c = SelectionPolicy::Threshold { threshold }.select_with(
                &cands,
                score,
                &mut rng,
                &mut scratch,
            );
            assert_eq!(c, Some(NodeId(2)), "threshold {threshold}");
        }
    }

    #[test]
    fn weight_is_the_proportional_power_and_the_score_otherwise() {
        let p = SelectionPolicy::Proportional { sharpness: 2.0 };
        assert_eq!(p.weight(0.5), 0.25);
        assert_eq!(p.weight(-0.5), 0.0);
        for policy in [
            SelectionPolicy::Best,
            SelectionPolicy::Threshold { threshold: 0.5 },
        ] {
            assert_eq!(policy.weight(-0.5), -0.5);
            assert!(policy.weight(f64::NAN).is_nan());
        }
    }

    #[test]
    fn threshold_fallback_scores_each_candidate_once() {
        let mut rng = SimRng::seed_from_u64(8);
        let mut scratch = SelectionScratch::default();
        let mut calls = 0;
        let chosen = SelectionPolicy::Threshold { threshold: 0.99 }.select_with(
            &nodes(5),
            |n| {
                calls += 1;
                n.0 as f64 / 10.0
            },
            &mut rng,
            &mut scratch,
        );
        assert_eq!(chosen, Some(NodeId(4)), "nobody qualifies: best wins");
        assert_eq!(calls, 5);
    }

    #[test]
    fn reused_scratch_draws_like_a_fresh_one() {
        // Nothing an earlier selection left in the buffers may leak into
        // the next: a reused scratch consumes the same RNG draws and
        // picks the same candidate as a fresh one, also when the
        // candidate set shrinks between calls.
        let cands = nodes(6);
        let score = |n: NodeId| [0.1, 0.0, 0.55, 0.55, 0.9, 0.3][n.index()];
        for policy in SelectionPolicy::SWEEP {
            let mut reused = SelectionScratch::default();
            for seed in 0..20 {
                let cands = &cands[..2 + seed as usize % 5];
                let mut rng_a = SimRng::seed_from_u64(seed);
                let mut rng_b = SimRng::seed_from_u64(seed);
                let fresh = &mut SelectionScratch::default();
                let a = policy.select_with(cands, score, &mut rng_a, fresh);
                let b = policy.select_with(cands, score, &mut rng_b, &mut reused);
                assert_eq!(a, b, "{policy:?} seed {seed}");
                // Same draw count ⇒ identical next draw.
                assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "{policy:?} seed {seed}");
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SelectionPolicy::Random.label(), "random");
        assert_eq!(
            SelectionPolicy::Threshold { threshold: 0.1 }.label(),
            "threshold"
        );
        assert_eq!(SelectionPolicy::SWEEP.len(), 4);
    }
}
