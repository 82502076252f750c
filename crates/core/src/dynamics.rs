//! Section 3's concept interactions as a coupled discrete-time system.
//!
//! The paper lists (Section 3) complementary and antagonistic influences
//! between trust `T`, satisfaction `S`, reputation efficiency `R`,
//! disclosure `D` and privacy respect `P`. This module writes them as
//! difference equations so their sign structure and fixed points can be
//! checked *analytically*, complementing the simulation evidence:
//!
//! ```text
//! S ← S + η·( base_quality·R + privacy_term·P − S )   (E3, E5c)
//! T ← T + η·( κ_S·S + κ_R·R_trusty − T )             (E1, E2, E4)
//! D ← D + η·( T − D )                                 (E5b: trust drives disclosure)
//! R ← R + η·( power(D) − R )                          (E5a: disclosure drives efficiency)
//! P ← P + η·( guarantees(D) − P )                     (privacy erodes with disclosure)
//! ```
//!
//! `R_trusty` is where the paper's fourth bullet lives: an *efficient*
//! mechanism that concludes "the majority of users are untrustworthy"
//! still leaves users distrusting the **system**, while they keep
//! contributing feedback. We model it as `R · honest_fraction`: mechanism
//! power only builds trust to the extent the verdict about the population
//! is positive.

/// Base interaction quality delivered by honest partners.
const BASE_QUALITY: f64 = 0.9;
/// Weight of satisfaction in trust formation.
const KAPPA_S: f64 = 0.6;
/// Weight of the reputation verdict in trust formation.
const KAPPA_R: f64 = 0.4;
/// How strongly disclosure erodes privacy guarantees.
const PRIVACY_EROSION: f64 = 0.5;
/// Mechanism power at full disclosure (power scales with `D`).
const MAX_POWER: f64 = 0.9;

/// Parameters of the coupled system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsConfig {
    /// Adaptation rate `η` in `(0, 1]`.
    pub eta: f64,
    /// Ground-truth fraction of honest participants — the "reality" the
    /// reputation verdict reflects when the mechanism is efficient.
    pub honest_fraction: f64,
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig {
            eta: 0.2,
            honest_fraction: 0.8,
        }
    }
}

impl DynamicsConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.eta > 0.0 && self.eta <= 1.0) {
            return Err("eta must be in (0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.honest_fraction) {
            return Err("honest_fraction must be in [0,1]".into());
        }
        Ok(())
    }
}

/// The five coupled state variables, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsState {
    /// Trust toward the system.
    pub trust: f64,
    /// User satisfaction.
    pub satisfaction: f64,
    /// Reputation-mechanism efficiency (power).
    pub reputation_efficiency: f64,
    /// Information disclosure level.
    pub disclosure: f64,
    /// Privacy guarantees experienced.
    pub privacy: f64,
}

impl DynamicsState {
    /// A neutral starting point.
    pub fn neutral() -> Self {
        DynamicsState {
            trust: 0.5,
            satisfaction: 0.5,
            reputation_efficiency: 0.5,
            disclosure: 0.5,
            privacy: 0.5,
        }
    }

    fn clamp(&mut self) {
        self.trust = self.trust.clamp(0.0, 1.0);
        self.satisfaction = self.satisfaction.clamp(0.0, 1.0);
        self.reputation_efficiency = self.reputation_efficiency.clamp(0.0, 1.0);
        self.disclosure = self.disclosure.clamp(0.0, 1.0);
        self.privacy = self.privacy.clamp(0.0, 1.0);
    }

    /// Max absolute difference with another state.
    pub fn distance(&self, other: &DynamicsState) -> f64 {
        [
            (self.trust - other.trust).abs(),
            (self.satisfaction - other.satisfaction).abs(),
            (self.reputation_efficiency - other.reputation_efficiency).abs(),
            (self.disclosure - other.disclosure).abs(),
            (self.privacy - other.privacy).abs(),
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }
}

/// The coupled interaction dynamics.
///
/// ```
/// use tsn_core::dynamics::{DynamicsState, InteractionDynamics};
///
/// let dynamics = InteractionDynamics::default();
/// let (fixed_point, steps) = dynamics.fixed_point(DynamicsState::neutral(), 1e-9, 10_000);
/// assert!(steps < 10_000, "the default system converges");
/// assert!(fixed_point.trust > 0.0 && fixed_point.trust < 1.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct InteractionDynamics {
    config: DynamicsConfig,
}

impl InteractionDynamics {
    /// Creates the system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; validate first to handle
    /// errors.
    pub fn new(config: DynamicsConfig) -> Self {
        if let Err(e) = config.validate() {
            // tsn-lint: allow(no-unwrap, "documented contract: new() panics on a config that validate() rejects; fallible callers validate first")
            panic!("invalid dynamics config: {e}");
        }
        InteractionDynamics { config }
    }

    /// One synchronous update step.
    pub fn step(&self, state: &DynamicsState) -> DynamicsState {
        let c = &self.config;
        let power = MAX_POWER * state.disclosure;
        let guarantees = 1.0 - PRIVACY_EROSION * state.disclosure;
        // The verdict an efficient mechanism renders about the population:
        let verdict = state.reputation_efficiency * c.honest_fraction
            + (1.0 - state.reputation_efficiency) * 0.5;
        // Interaction quality improves with mechanism efficiency (better
        // partner selection): from 60 % of the honest ceiling (random
        // choice) to 100 % (perfect avoidance of bad partners).
        let quality = BASE_QUALITY * c.honest_fraction * (0.6 + 0.4 * state.reputation_efficiency);
        let target_satisfaction = 0.75 * quality + 0.25 * state.privacy;
        let target_trust = (KAPPA_S * state.satisfaction + KAPPA_R * verdict) / (KAPPA_S + KAPPA_R);
        let mut next = DynamicsState {
            satisfaction: state.satisfaction + c.eta * (target_satisfaction - state.satisfaction),
            trust: state.trust + c.eta * (target_trust - state.trust),
            disclosure: state.disclosure + c.eta * (state.trust - state.disclosure),
            reputation_efficiency: state.reputation_efficiency
                + c.eta * (power - state.reputation_efficiency),
            privacy: state.privacy + c.eta * (guarantees - state.privacy),
        };
        next.clamp();
        next
    }

    /// Iterates until the state moves less than `epsilon` or `max_steps`
    /// is reached. Returns the final state and the steps taken.
    pub fn fixed_point(
        &self,
        mut state: DynamicsState,
        epsilon: f64,
        max_steps: usize,
    ) -> (DynamicsState, usize) {
        for step in 0..max_steps {
            let next = self.step(&state);
            let moved = next.distance(&state);
            state = next;
            if moved < epsilon {
                return (state, step + 1);
            }
        }
        (state, max_steps)
    }

    /// Empirical sign of the coupling `d(target)/d(source)` at a state:
    /// perturbs `source` by `+δ` and reports the change in `target` after
    /// one step. Used to verify Figure 1's edge directions.
    pub fn coupling_sign(&self, state: &DynamicsState, source: &str, target: &str) -> f64 {
        let delta = 0.05;
        let mut perturbed = *state;
        match source {
            "trust" => perturbed.trust = (perturbed.trust + delta).min(1.0),
            "satisfaction" => perturbed.satisfaction = (perturbed.satisfaction + delta).min(1.0),
            "reputation" => {
                perturbed.reputation_efficiency = (perturbed.reputation_efficiency + delta).min(1.0)
            }
            "disclosure" => perturbed.disclosure = (perturbed.disclosure + delta).min(1.0),
            "privacy" => perturbed.privacy = (perturbed.privacy + delta).min(1.0),
            // tsn-lint: allow(no-unwrap, "figure-verification probe: variable names are compile-time literals at every call site")
            other => panic!("unknown variable {other}"),
        }
        let base_next = self.step(state);
        let pert_next = self.step(&perturbed);
        let read = |s: &DynamicsState| match target {
            "trust" => s.trust,
            "satisfaction" => s.satisfaction,
            "reputation" => s.reputation_efficiency,
            "disclosure" => s.disclosure,
            "privacy" => s.privacy,
            // tsn-lint: allow(no-unwrap, "figure-verification probe: variable names are compile-time literals at every call site")
            other => panic!("unknown variable {other}"),
        };
        read(&pert_next) - read(&base_next)
    }
}

impl Default for InteractionDynamics {
    fn default() -> Self {
        InteractionDynamics::new(DynamicsConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_a_fixed_point() {
        let d = InteractionDynamics::default();
        let (state, steps) = d.fixed_point(DynamicsState::neutral(), 1e-9, 10_000);
        assert!(steps < 10_000, "should converge, took {steps}");
        // Verify it is a fixed point.
        let next = d.step(&state);
        assert!(next.distance(&state) < 1e-8);
    }

    #[test]
    fn default_fixed_point_bits_are_pinned() {
        let (s, steps) =
            InteractionDynamics::default().fixed_point(DynamicsState::neutral(), 1e-9, 10_000);
        let bits = [
            s.trust,
            s.satisfaction,
            s.reputation_efficiency,
            s.disclosure,
            s.privacy,
        ]
        .map(f64::to_bits);
        assert_eq!(
            (bits, steps),
            (
                [
                    4_603_941_623_477_472_936,
                    4_603_745_540_340_642_233,
                    4_603_364_983_024_824_683,
                    4_603_941_623_453_600_941,
                    4_604_299_216_866_935_038,
                ],
                193
            ),
            "fixed point moved"
        );
    }

    #[test]
    fn fixed_point_is_interior_for_defaults() {
        let d = InteractionDynamics::default();
        let (s, _) = d.fixed_point(DynamicsState::neutral(), 1e-10, 10_000);
        for v in [
            s.trust,
            s.satisfaction,
            s.reputation_efficiency,
            s.disclosure,
            s.privacy,
        ] {
            assert!(v > 0.05 && v < 1.0, "interior fixed point, got {s:?}");
        }
    }

    #[test]
    fn honest_world_earns_more_trust_than_hostile_world() {
        let honest = InteractionDynamics::new(DynamicsConfig {
            honest_fraction: 0.95,
            ..Default::default()
        });
        let hostile = InteractionDynamics::new(DynamicsConfig {
            honest_fraction: 0.2,
            ..Default::default()
        });
        let (s1, _) = honest.fixed_point(DynamicsState::neutral(), 1e-9, 10_000);
        let (s2, _) = hostile.fixed_point(DynamicsState::neutral(), 1e-9, 10_000);
        assert!(s1.trust > s2.trust + 0.1, "{} vs {}", s1.trust, s2.trust);
    }

    #[test]
    fn coupling_signs_match_figure_1() {
        let d = InteractionDynamics::default();
        let s = DynamicsState::neutral();
        // E1: satisfaction → trust is positive.
        assert!(d.coupling_sign(&s, "satisfaction", "trust") > 0.0);
        // E2: reputation efficiency → trust is positive (honest majority).
        assert!(d.coupling_sign(&s, "reputation", "trust") > 0.0);
        // E3: reputation efficiency → satisfaction is positive.
        assert!(d.coupling_sign(&s, "reputation", "satisfaction") > 0.0);
        // E5a: disclosure → reputation efficiency is positive.
        assert!(d.coupling_sign(&s, "disclosure", "reputation") > 0.0);
        // E5b: trust → disclosure is positive.
        assert!(d.coupling_sign(&s, "trust", "disclosure") > 0.0);
        // Privacy erosion: disclosure → privacy is negative.
        assert!(d.coupling_sign(&s, "disclosure", "privacy") < 0.0);
        // E5c: privacy → satisfaction is positive.
        assert!(d.coupling_sign(&s, "privacy", "satisfaction") > 0.0);
    }

    #[test]
    fn e4_efficient_mechanism_hostile_majority_low_trust() {
        // The paper's fourth bullet: efficiency high, majority untrustworthy
        // → users do not trust the system even though feedback continues.
        let hostile = InteractionDynamics::new(DynamicsConfig {
            honest_fraction: 0.2,
            ..Default::default()
        });
        let s = DynamicsState {
            reputation_efficiency: 0.95,
            ..DynamicsState::neutral()
        };
        // With high efficiency, reputation → trust turns NEGATIVE: the
        // verdict (0.2-honest world) is worse than agnosticism.
        assert!(hostile.coupling_sign(&s, "reputation", "trust") < 0.0);
        let (fp, _) = hostile.fixed_point(s, 1e-9, 10_000);
        assert!(
            fp.trust < 0.5,
            "hostile verdict suppresses trust: {}",
            fp.trust
        );
    }

    #[test]
    fn trust_satisfaction_loop_e1_is_mutually_reinforcing() {
        // Raising satisfaction raises trust (one step), and raising trust
        // raises disclosure → efficiency → satisfaction (three steps).
        let d = InteractionDynamics::default();
        let s = DynamicsState::neutral();
        assert!(d.coupling_sign(&s, "satisfaction", "trust") > 0.0);
        let mut boosted = s;
        boosted.trust += 0.2;
        let mut base = s;
        for _ in 0..5 {
            boosted = d.step(&boosted);
            base = d.step(&base);
        }
        assert!(
            boosted.satisfaction > base.satisfaction,
            "trust feeds back into satisfaction"
        );
    }

    #[test]
    fn config_validation() {
        assert!(DynamicsConfig {
            eta: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DynamicsConfig {
            honest_fraction: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DynamicsConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn unknown_coupling_variable_panics() {
        let d = InteractionDynamics::default();
        let _ = d.coupling_sign(&DynamicsState::neutral(), "bogus", "trust");
    }

    #[test]
    fn states_stay_in_bounds() {
        let d = InteractionDynamics::new(DynamicsConfig {
            eta: 1.0,
            ..Default::default()
        });
        let mut s = DynamicsState {
            trust: 1.0,
            satisfaction: 0.0,
            reputation_efficiency: 1.0,
            disclosure: 0.0,
            privacy: 1.0,
        };
        for _ in 0..100 {
            s = d.step(&s);
            for v in [
                s.trust,
                s.satisfaction,
                s.reputation_efficiency,
                s.disclosure,
                s.privacy,
            ] {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
