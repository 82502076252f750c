//! Commonly used items, for `use tsn_core::prelude::*`.
//!
//! Pulls together the batch entry points (scenario, builder, sweeps),
//! the online entry points ([`TrustService`], [`ServiceDriver`]) and
//! the simulator vocabulary they both speak ([`SimTime`], [`NodeId`],
//! …), so one import serves scripts and examples.

pub use crate::runner::{
    DisclosureLevel, Observer, ProgressPrinter, ScenarioBuilder, SeriesRecorder, SweepGrid,
    SweepReport, SweepRunner, ValidationError,
};
pub use crate::{
    FacetScores, FacetWeights, Scenario, ScenarioConfig, ScenarioOutcome, TrustMetric, TrustReport,
};
pub use tsn_reputation::{InteractionOutcome, MechanismKind};
pub use tsn_service::{
    DriverConfig, EpochSample, ExposureQueryResult, IngestOutcome, ServiceConfig, ServiceDriver,
    ServiceEvent, ServiceOp, ServiceStats, TrustQueryResult, TrustService,
};
pub use tsn_simnet::{
    DynamicsPlan, DynamicsRuntime, NodeId, PartitionWindow, SimDuration, SimRng, SimTime,
};
