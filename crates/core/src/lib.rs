//! # tsn-core — the three-facet trust model
//!
//! The primary contribution of *"Trust your Social Network According to
//! Satisfaction, Reputation and Privacy"* (Busnel, Serrano-Alvarado,
//! Lamarre, 2010), built on the substrates of the sibling crates:
//!
//! * [`facets`] — the three facet scores in `[0, 1]`: privacy guarantees,
//!   reputation power and global satisfaction, each computed from
//!   *measured* quantities (disclosure exposure, PP-respect rate, OECD
//!   audit; mechanism consistency/reliability/efficiency; long-run
//!   participant satisfaction with fairness discount);
//! * [`trust`] — the **generic metric** the paper calls for (Section 4):
//!   a configurable aggregation of the facets into per-user and global
//!   *trust toward the system*;
//! * [`dynamics`] — Section 3's interaction loops as a coupled
//!   discrete-time system, used to verify the sign structure of Figure 1
//!   analytically;
//! * [`scenario`] — the end-to-end decentralized social-network
//!   simulation that wires every substrate together and produces the
//!   measured facets (and their per-round time series);
//! * [`optimizer`] — the paper's "main aim": searching system settings to
//!   maximize trust under applicative constraints, including the Area-A
//!   region extraction of Figure 2 (left);
//! * [`report`] — experiment-row structures shared by the `tsn-bench`
//!   binaries (the experiment index is DESIGN.md §5).
//!
//! ## Quick example
//!
//! ```
//! use tsn_core::{ScenarioConfig, Scenario};
//!
//! let mut config = ScenarioConfig::default();
//! config.nodes = 40;
//! config.rounds = 10;
//! let outcome = Scenario::new(config).expect("valid config").run();
//! assert!(outcome.facets.privacy >= 0.0 && outcome.facets.privacy <= 1.0);
//! assert!(outcome.global_trust >= 0.0 && outcome.global_trust <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dynamics;
pub mod facets;
pub mod json;
pub mod optimizer;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod trust;

pub use config::{PolicyProfile, ScenarioConfig};
pub use dynamics::{DynamicsConfig, DynamicsState, InteractionDynamics};
pub use facets::{FacetScores, FacetWeights};
pub use optimizer::{AreaReport, ConfigPoint, Optimizer, OptimizerResult, SweepOutcome};
pub use report::{ExperimentRow, ExperimentTable};
pub use runner::{
    DisclosureLevel, Observer, ScenarioBuilder, SweepGrid, SweepReport, SweepRunner,
    ValidationError,
};
pub use scenario::{RoundSample, Scenario, ScenarioOutcome, ROUND_DURATION};
pub use trust::{Aggregator, TrustMetric};
pub use tsn_simnet::{DynamicsPlan, NodeId, PartitionWindow};
