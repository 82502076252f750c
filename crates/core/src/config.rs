//! Scenario configuration: the settable knobs of the system.
//!
//! The paper's Figure 2 (right) calls privacy guarantees and reputation
//! power "the two main settable aspects"; [`ScenarioConfig`] exposes them
//! (disclosure level, mechanism, anonymization) plus the applicative
//! context (population mix, policy strictness, selection policy).

use crate::runner::ValidationError;
use tsn_reputation::{
    AnonymizationConfig, DisclosurePolicy, MechanismKind, PopulationConfig, SelectionPolicy,
};
use tsn_simnet::{DynamicsPlan, MembershipConfig};

/// How strict the users' privacy policies are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyProfile {
    /// Everyone runs permissive policies.
    Permissive,
    /// Everyone runs strict (friends-only, high-trust) policies.
    Strict,
    /// Users split between the two (privacy preferences are individual —
    /// paper Section 2.3).
    Mixed,
}

impl PolicyProfile {
    /// All profiles, for sweeps.
    pub const ALL: [PolicyProfile; 3] = [
        PolicyProfile::Permissive,
        PolicyProfile::Mixed,
        PolicyProfile::Strict,
    ];

    /// Label for experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyProfile::Permissive => "permissive",
            PolicyProfile::Strict => "strict",
            PolicyProfile::Mixed => "mixed",
        }
    }

    /// Fraction of users on strict policies.
    pub fn strict_fraction(self) -> f64 {
        match self {
            PolicyProfile::Permissive => 0.0,
            PolicyProfile::Mixed => 0.5,
            PolicyProfile::Strict => 1.0,
        }
    }
}

/// Full configuration of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Population size.
    pub nodes: usize,
    /// Rounds of the interaction loop.
    pub rounds: usize,
    /// Interactions each user initiates per round.
    pub interactions_per_node: usize,
    /// Reputation mechanism.
    pub mechanism: MechanismKind,
    /// Disclosure ladder level `0..=4` (the paper's "quantity of shared
    /// information" knob; see [`DisclosurePolicy::ladder`]).
    pub disclosure_level: usize,
    /// Extra anonymization layer, if any.
    pub anonymization: Option<AnonymizationConfig>,
    /// Partner selection policy.
    pub selection: SelectionPolicy,
    /// Users' privacy-policy strictness profile.
    pub policy_profile: PolicyProfile,
    /// Behaviour mix of the population.
    pub population: PopulationConfig,
    /// Mean privacy concern of users (individual concerns jitter around
    /// it).
    pub privacy_concern_mean: f64,
    /// Whether users adapt their personal disclosure to their current
    /// trust (the Section-3 loop "the less a user trusts … the less she
    /// discloses"). Disable for open-loop sweeps.
    pub adaptive_disclosure: bool,
    /// Rounds between mechanism refreshes.
    pub refresh_every: usize,
    /// Pre-trusted seed peers for EigenTrust.
    pub pretrusted: usize,
    /// Watts–Strogatz mean degree (even).
    pub graph_degree: usize,
    /// Watts–Strogatz rewiring probability.
    pub graph_beta: f64,
    /// Probability a malicious recipient leaks granted data per grant.
    pub leak_probability: f64,
    /// Full dynamics plan — the scenario's one churn model: session-based
    /// churn (exponential session / downtime durations; offline users
    /// neither consume nor serve), whitewash re-joins (fresh identities
    /// with reset reputation), and scheduled partitions that confine
    /// partner selection to a user's own group while active. Plain
    /// availability churn is the [`DynamicsPlan::steady_offline`]
    /// preset. `None` leaves every user online every round.
    pub dynamics: Option<DynamicsPlan>,
    /// Peer-sampling membership overlay (the paper's view-shuffling
    /// model): each node keeps a bounded [`PartialView`] refreshed by
    /// deterministic push-pull shuffles and bootstrapped through relay
    /// nodes, and partner candidates come from the local view instead
    /// of the global graph neighborhood. `None` (the default) keeps
    /// global, graph-based selection bit-identical to the goldens.
    ///
    /// [`PartialView`]: tsn_simnet::PartialView
    pub membership: Option<MembershipConfig>,
    /// Contiguous node shards the round engine splits each round's
    /// interaction phase into (see `DESIGN.md` §10). This is an
    /// execution knob, never an outcome knob: any shard count gives
    /// bit-identical results.
    ///
    /// * `1` (default) — one shard, run on the calling thread.
    /// * `0` — auto: one shard below [`SHARD_AUTO_NODES`] nodes, a few
    ///   per hardware thread at or above it.
    /// * `k ≥ 2` — `k` shards (clamped to the node count), claimed by
    ///   up to one worker thread per hardware thread.
    ///
    /// [`SHARD_AUTO_NODES`]: crate::scenario::SHARD_AUTO_NODES
    pub shards: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            nodes: 100,
            rounds: 30,
            interactions_per_node: 2,
            mechanism: MechanismKind::EigenTrust,
            disclosure_level: 4,
            anonymization: None,
            selection: SelectionPolicy::Proportional { sharpness: 2.0 },
            policy_profile: PolicyProfile::Mixed,
            population: PopulationConfig::with_malicious(0.2),
            privacy_concern_mean: 0.5,
            adaptive_disclosure: false,
            refresh_every: 5,
            pretrusted: 3,
            graph_degree: 8,
            graph_beta: 0.1,
            leak_probability: 0.3,
            dynamics: None,
            membership: None,
            shards: 1,
            seed: 42,
        }
    }
}

impl ScenarioConfig {
    /// The disclosure policy this configuration induces.
    pub fn disclosure_policy(&self) -> DisclosurePolicy {
        DisclosurePolicy::ladder(self.disclosure_level)
    }

    /// Validates all fields.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), ValidationError> {
        if self.nodes < 4 {
            return Err(ValidationError::new("nodes", "need at least 4 nodes"));
        }
        if self.rounds == 0 {
            return Err(ValidationError::new("rounds", "must be positive"));
        }
        if self.interactions_per_node == 0 {
            return Err(ValidationError::new(
                "interactions_per_node",
                "must be positive",
            ));
        }
        if self.disclosure_level >= DisclosurePolicy::LADDER_LEVELS {
            return Err(ValidationError::new(
                "disclosure_level",
                format!("must be < {}", DisclosurePolicy::LADDER_LEVELS),
            ));
        }
        if !(0.0..=1.0).contains(&self.privacy_concern_mean) {
            return Err(ValidationError::new(
                "privacy_concern_mean",
                "must be in [0,1]",
            ));
        }
        if !(0.0..=1.0).contains(&self.leak_probability) {
            return Err(ValidationError::new("leak_probability", "must be in [0,1]"));
        }
        if self.refresh_every == 0 {
            return Err(ValidationError::new("refresh_every", "must be positive"));
        }
        if let Some(plan) = &self.dynamics {
            plan.validate()
                .map_err(|m| ValidationError::new("dynamics", m))?;
        }
        if let Some(m) = &self.membership {
            m.validate_for(self.nodes)
                .map_err(|msg| ValidationError::new("membership", msg))?;
        }
        if !self.graph_degree.is_multiple_of(2)
            || self.graph_degree == 0
            || self.graph_degree >= self.nodes
        {
            return Err(ValidationError::new(
                "graph_degree",
                "must be even, positive and < nodes",
            ));
        }
        if !(0.0..=1.0).contains(&self.graph_beta) {
            return Err(ValidationError::new("graph_beta", "must be in [0,1]"));
        }
        self.population
            .validate()
            .map_err(|m| ValidationError::new("population", m))?;
        if let Some(a) = &self.anonymization {
            a.validate()
                .map_err(|m| ValidationError::new("anonymization", m))?;
        }
        Ok(())
    }

    /// A small, fast configuration for tests and doc examples.
    pub fn small() -> Self {
        ScenarioConfig {
            nodes: 40,
            rounds: 10,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ScenarioConfig::default().validate().is_ok());
        assert!(ScenarioConfig::small().validate().is_ok());
    }

    #[test]
    fn disclosure_policy_follows_level() {
        let c = ScenarioConfig {
            disclosure_level: 0,
            ..Default::default()
        };
        assert_eq!(c.disclosure_policy(), DisclosurePolicy::minimal());
        let c = ScenarioConfig {
            disclosure_level: 4,
            ..Default::default()
        };
        assert_eq!(c.disclosure_policy(), DisclosurePolicy::full());
    }

    #[test]
    fn validation_catches_each_field() {
        let cases = [
            ScenarioConfig {
                nodes: 3,
                ..Default::default()
            },
            ScenarioConfig {
                disclosure_level: 5,
                ..Default::default()
            },
            ScenarioConfig {
                privacy_concern_mean: 2.0,
                ..Default::default()
            },
            ScenarioConfig {
                leak_probability: -0.5,
                ..Default::default()
            },
            ScenarioConfig {
                graph_degree: 101,
                ..Default::default()
            },
            ScenarioConfig {
                rounds: 0,
                ..Default::default()
            },
        ];
        for (i, c) in cases.iter().enumerate() {
            assert!(c.validate().is_err(), "case {i} must be rejected");
        }
    }

    #[test]
    fn policy_profiles() {
        assert_eq!(PolicyProfile::Permissive.strict_fraction(), 0.0);
        assert_eq!(PolicyProfile::Mixed.strict_fraction(), 0.5);
        assert_eq!(PolicyProfile::Strict.strict_fraction(), 1.0);
        assert_eq!(PolicyProfile::ALL.len(), 3);
        assert_eq!(PolicyProfile::Mixed.label(), "mixed");
    }
}
