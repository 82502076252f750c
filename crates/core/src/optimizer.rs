//! Searching the settings space — the paper's "main aim".
//!
//! Section 4: "the main aim of our study is to find a method to obtain
//! the right settings in order to maximize the user' trust towards the
//! system", and Figure 2 (left) frames the target as **Area A**, the
//! intersection where all three facets clear their guarantees.
//!
//! [`Optimizer::sweep`] evaluates a grid over the settable dimensions
//! (mechanism × disclosure level × policy profile × selection), then
//! [`Optimizer::area_report`] classifies every evaluated point into the
//! seven Venn regions of Figure 2 (left), and [`Optimizer::best`] returns
//! the trust-maximizing configuration (optionally under facet-threshold
//! constraints).

use crate::config::{PolicyProfile, ScenarioConfig};
use crate::facets::FacetScores;
use crate::runner::{DisclosureLevel, ScenarioBuilder, SweepGrid, SweepRunner, ValidationError};
use crate::trust::TrustMetric;
use tsn_reputation::{MechanismKind, SelectionPolicy};

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct ConfigPoint {
    /// Mechanism used.
    pub mechanism: MechanismKind,
    /// Disclosure ladder level.
    pub disclosure_level: usize,
    /// Policy profile.
    pub policy_profile: PolicyProfile,
    /// Selection policy label.
    pub selection: String,
    /// Measured facets.
    pub facets: FacetScores,
    /// Trust under the sweep's metric.
    pub trust: f64,
}

/// The sweep output.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Every evaluated point.
    pub points: Vec<ConfigPoint>,
}

/// Figure 2 (left): how many points satisfy each facet region and their
/// intersections.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaReport {
    /// Thresholds defining the regions.
    pub thresholds: FacetScores,
    /// Points meeting the privacy guarantee.
    pub privacy_region: usize,
    /// Points meeting the reputation guarantee.
    pub reputation_region: usize,
    /// Points meeting the satisfaction guarantee.
    pub satisfaction_region: usize,
    /// Points meeting privacy ∧ reputation.
    pub privacy_and_reputation: usize,
    /// Points meeting privacy ∧ satisfaction.
    pub privacy_and_satisfaction: usize,
    /// Points meeting reputation ∧ satisfaction.
    pub reputation_and_satisfaction: usize,
    /// **Area A**: points meeting all three guarantees.
    pub area_a: usize,
    /// Total points evaluated.
    pub total: usize,
}

/// The optimizer: owns a base configuration and a trust metric.
#[derive(Debug, Clone)]
pub struct Optimizer {
    base: ScenarioConfig,
    metric: TrustMetric,
    /// Seeds averaged per point (Monte-Carlo smoothing).
    pub seeds_per_point: u64,
}

/// The optimizer's answer.
#[derive(Debug, Clone)]
pub struct OptimizerResult {
    /// The winning point.
    pub best: ConfigPoint,
    /// Whether the winner also clears the given thresholds (lies in
    /// Area A).
    pub in_area_a: bool,
}

impl Optimizer {
    /// Creates an optimizer sweeping around `base` with `metric`.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] when the base configuration is
    /// invalid.
    pub fn new(base: ScenarioConfig, metric: TrustMetric) -> Result<Self, ValidationError> {
        base.validate()?;
        Ok(Optimizer {
            base,
            metric,
            seeds_per_point: 2,
        })
    }

    /// The seeds each grid point is averaged over. A `seeds_per_point`
    /// of 0 is treated as 1 — the field is public and averaging over
    /// zero runs is never meaningful.
    fn point_seeds(&self) -> Vec<u64> {
        (0..self.seeds_per_point.max(1))
            .map(|i| self.base.seed.wrapping_add(i * 7919))
            .collect()
    }

    /// The grid: mechanisms × disclosure levels × policy profiles,
    /// executed in parallel by a [`SweepRunner`]. Selection is fixed to
    /// the base's policy (it is a response-block choice, not a
    /// privacy/reputation dial; the A-ablations sweep it separately).
    pub fn sweep(&self) -> SweepOutcome {
        let grid = SweepGrid::over(ScenarioBuilder::from_config(self.base.clone()))
            .all_mechanisms()
            .all_disclosures()
            .all_profiles();
        SweepOutcome {
            points: self.points(grid, self.base.selection),
        }
    }

    /// Evaluates one grid point, averaging facets over
    /// [`Optimizer::seeds_per_point`] seeds: a one-point grid whose
    /// seeds run in parallel, so it equals the matching
    /// [`Optimizer::sweep`] point bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `disclosure_level` is off the ladder (above 4).
    pub fn evaluate(
        &self,
        mechanism: MechanismKind,
        disclosure_level: usize,
        policy_profile: PolicyProfile,
        selection: SelectionPolicy,
    ) -> ConfigPoint {
        let mut base = self.base.clone();
        base.selection = selection;
        let grid = SweepGrid::over(ScenarioBuilder::from_config(base))
            .mechanisms([mechanism])
            .disclosures(DisclosureLevel::from_index(disclosure_level))
            .profiles([policy_profile]);
        self.points(grid, selection).swap_remove(0)
    }

    /// Runs `grid` over [`Optimizer::seeds_per_point`] seeds and averages
    /// each point's facets over its seeds.
    fn points(&self, grid: SweepGrid, selection: SelectionPolicy) -> Vec<ConfigPoint> {
        let seeds = self.point_seeds();
        let per_point = seeds.len();
        let report = SweepRunner::parallel()
            .run(&grid.seeds(seeds))
            // tsn-lint: allow(no-unwrap, "the base was validated in Optimizer::new; only an off-ladder evaluate level (documented panic) empties a dimension")
            .expect("base validated in Optimizer::new");
        // Seeds are the innermost grid dimension: consecutive chunks of
        // `per_point` cells are the Monte-Carlo repetitions of one
        // point, in the original (mechanism, disclosure, profile) order.
        report
            .cells
            .chunks(per_point)
            .map(|chunk| {
                let k = chunk.len() as f64;
                let facets = FacetScores {
                    privacy: chunk.iter().map(|c| c.facets.privacy).sum::<f64>() / k,
                    reputation: chunk.iter().map(|c| c.facets.reputation).sum::<f64>() / k,
                    satisfaction: chunk.iter().map(|c| c.facets.satisfaction).sum::<f64>() / k,
                };
                let first = &chunk[0].cell;
                ConfigPoint {
                    mechanism: first.mechanism,
                    disclosure_level: first.disclosure.index(),
                    policy_profile: first.profile,
                    selection: selection.label().to_owned(),
                    facets,
                    trust: self.metric.trust(&facets),
                }
            })
            .collect()
    }

    /// Classifies sweep points into the Figure-2 (left) regions.
    pub fn area_report(&self, sweep: &SweepOutcome, thresholds: FacetScores) -> AreaReport {
        let meets = |f: &FacetScores, p: bool, r: bool, s: bool| {
            (!p || f.privacy >= thresholds.privacy)
                && (!r || f.reputation >= thresholds.reputation)
                && (!s || f.satisfaction >= thresholds.satisfaction)
        };
        let count = |p: bool, r: bool, s: bool| {
            sweep
                .points
                .iter()
                .filter(|pt| meets(&pt.facets, p, r, s))
                .count()
        };
        AreaReport {
            thresholds,
            privacy_region: count(true, false, false),
            reputation_region: count(false, true, false),
            satisfaction_region: count(false, false, true),
            privacy_and_reputation: count(true, true, false),
            privacy_and_satisfaction: count(true, false, true),
            reputation_and_satisfaction: count(false, true, true),
            area_a: count(true, true, true),
            total: sweep.points.len(),
        }
    }

    /// The trust-maximizing point of a sweep; with `thresholds`, only
    /// points clearing them qualify (falling back to the unconstrained
    /// best when Area A is empty, flagged by `in_area_a = false`).
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty.
    pub fn best(&self, sweep: &SweepOutcome, thresholds: Option<FacetScores>) -> OptimizerResult {
        assert!(!sweep.points.is_empty(), "sweep must not be empty");
        let by_trust = |a: &&ConfigPoint, b: &&ConfigPoint| a.trust.total_cmp(&b.trust);
        if let Some(t) = thresholds {
            if let Some(best) = sweep
                .points
                .iter()
                .filter(|p| p.facets.meets(&t))
                .max_by(by_trust)
            {
                return OptimizerResult {
                    best: best.clone(),
                    in_area_a: true,
                };
            }
        }
        // tsn-lint: allow(no-unwrap, "non-emptiness is asserted at function entry (documented panic)")
        let best = sweep.points.iter().max_by(by_trust).expect("non-empty");
        OptimizerResult {
            best: best.clone(),
            in_area_a: false,
        }
    }

    /// Greedy hill-climb from a starting point over the two ordinal dials
    /// (disclosure level, policy profile), keeping mechanism fixed.
    /// Returns the local optimum. Used to refine the sweep winner.
    pub fn hill_climb(&self, start: &ConfigPoint) -> ConfigPoint {
        let profiles = PolicyProfile::ALL;
        let profile_idx = |p: PolicyProfile| {
            profiles
                .iter()
                .position(|&q| q == p)
                // tsn-lint: allow(no-unwrap, "p is drawn from PolicyProfile::ALL, the slice being searched")
                .expect("known profile")
        };
        let mut current = start.clone();
        loop {
            let mut improved = false;
            let mut candidates = Vec::new();
            if current.disclosure_level > 0 {
                candidates.push((current.disclosure_level - 1, current.policy_profile));
            }
            if current.disclosure_level < 4 {
                candidates.push((current.disclosure_level + 1, current.policy_profile));
            }
            let pi = profile_idx(current.policy_profile);
            if pi > 0 {
                candidates.push((current.disclosure_level, profiles[pi - 1]));
            }
            if pi + 1 < profiles.len() {
                candidates.push((current.disclosure_level, profiles[pi + 1]));
            }
            for (level, profile) in candidates {
                let cand = self.evaluate(current.mechanism, level, profile, self.base.selection);
                if cand.trust > current.trust + 1e-9 {
                    current = cand;
                    improved = true;
                }
            }
            if !improved {
                return current;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base() -> ScenarioConfig {
        ScenarioConfig {
            nodes: 24,
            rounds: 6,
            graph_degree: 4,
            ..ScenarioConfig::default()
        }
    }

    fn optimizer() -> Optimizer {
        let mut o = Optimizer::new(tiny_base(), TrustMetric::default()).unwrap();
        o.seeds_per_point = 1;
        o
    }

    #[test]
    fn evaluate_produces_bounded_point() {
        let o = optimizer();
        let p = o.evaluate(
            MechanismKind::Beta,
            2,
            PolicyProfile::Mixed,
            SelectionPolicy::Best,
        );
        assert!(p.facets.validate().is_ok());
        assert!((0.0..=1.0).contains(&p.trust));
        assert_eq!(p.disclosure_level, 2);
        assert_eq!(p.selection, "best");
    }

    #[test]
    fn evaluate_equals_the_matching_sweep_point() {
        let mut o = optimizer();
        o.seeds_per_point = 2;
        let sweep = o.sweep();
        for point in &sweep.points {
            let single = o.evaluate(
                point.mechanism,
                point.disclosure_level,
                point.policy_profile,
                tiny_base().selection,
            );
            let bits = |p: &ConfigPoint| {
                [
                    p.facets.privacy,
                    p.facets.reputation,
                    p.facets.satisfaction,
                    p.trust,
                ]
                .map(f64::to_bits)
            };
            assert_eq!(bits(&single), bits(point));
            assert_eq!(single.selection, point.selection);
        }
    }

    #[test]
    fn sweep_covers_the_grid() {
        let o = optimizer();
        let sweep = o.sweep();
        assert_eq!(sweep.points.len(), 5 * 5 * 3);
    }

    #[test]
    fn area_report_counts_nest() {
        let o = optimizer();
        let sweep = o.sweep();
        let report = o.area_report(&sweep, FacetScores::new(0.4, 0.4, 0.3).unwrap());
        // Intersections can never exceed their constituent regions.
        assert!(report.area_a <= report.privacy_and_reputation);
        assert!(report.area_a <= report.privacy_and_satisfaction);
        assert!(report.area_a <= report.reputation_and_satisfaction);
        assert!(report.privacy_and_reputation <= report.privacy_region);
        assert!(report.privacy_and_reputation <= report.reputation_region);
        assert_eq!(report.total, 75);
    }

    #[test]
    fn best_respects_thresholds_when_satisfiable() {
        let o = optimizer();
        let sweep = o.sweep();
        let loose = FacetScores::new(0.1, 0.1, 0.1).unwrap();
        let result = o.best(&sweep, Some(loose));
        assert!(result.in_area_a);
        assert!(result.best.facets.meets(&loose));
        // Unconstrained best has at least as much trust.
        let unconstrained = o.best(&sweep, None);
        assert!(unconstrained.best.trust >= result.best.trust - 1e-12);
    }

    #[test]
    fn impossible_thresholds_fall_back() {
        let o = optimizer();
        let sweep = o.sweep();
        let impossible = FacetScores::new(1.0, 1.0, 1.0).unwrap();
        let result = o.best(&sweep, Some(impossible));
        assert!(!result.in_area_a);
    }

    #[test]
    fn hill_climb_never_decreases_trust() {
        let o = optimizer();
        let start = o.evaluate(
            MechanismKind::EigenTrust,
            4,
            PolicyProfile::Strict,
            SelectionPolicy::Best,
        );
        let refined = o.hill_climb(&start);
        assert!(refined.trust >= start.trust);
    }

    #[test]
    fn zero_seeds_per_point_is_clamped_not_panicking() {
        let mut o = optimizer();
        o.seeds_per_point = 0;
        let sweep = o.sweep();
        assert_eq!(sweep.points.len(), 5 * 5 * 3);
    }

    #[test]
    fn invalid_base_rejected() {
        let mut bad = tiny_base();
        bad.nodes = 2;
        assert!(Optimizer::new(bad, TrustMetric::default()).is_err());
    }
}
