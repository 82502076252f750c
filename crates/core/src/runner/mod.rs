//! The unified experiment-runner API.
//!
//! Everything that turns knobs into numbers lives here, in three
//! layers:
//!
//! * [`ScenarioBuilder`] — fluent, *validated* construction of a single
//!   scenario, with typed knobs ([`DisclosureLevel`] instead of a raw
//!   `usize`) and a [`ValidationError`] naming the offending field;
//! * [`Observer`] — per-round subscription hooks for streaming
//!   consumers such as [`ProgressPrinter`] (the recorded series are
//!   read afterwards with `ScenarioOutcome::series`);
//! * [`SweepGrid`] / [`SweepRunner`] — declarative mechanism ×
//!   disclosure × profile × seed grids executed across threads with
//!   per-cell deterministic seeding, yielding a [`SweepReport`] with
//!   CSV/JSON emitters.
//!
//! The CLI, the examples and every `tsn-bench` experiment binary build
//! their configurations exclusively through this module; see DESIGN.md
//! for the architecture.

mod builder;
mod error;
mod observer;
mod sweep;

pub use builder::{DisclosureLevel, ScenarioBuilder};
pub use error::ValidationError;
pub use observer::{Observer, ProgressPrinter};
pub use sweep::{SweepCell, SweepCellResult, SweepGrid, SweepReport, SweepRunner};
