//! Per-round subscription hooks.
//!
//! Callers that need the time series behind Figure 1 used to mine
//! `ScenarioOutcome::samples` after the fact; an [`Observer`] instead
//! receives each [`RoundSample`] as the scenario produces it, so
//! streaming consumers (progress printers, live plots) need no post-hoc
//! bookkeeping.

use crate::config::ScenarioConfig;
use crate::scenario::{RoundSample, ScenarioOutcome};
use std::collections::BTreeMap;

/// Subscriber to the lifecycle of one scenario run.
///
/// All hooks have empty defaults; implement only what you need.
pub trait Observer {
    /// Called once before the first round, with the validated
    /// configuration about to run.
    fn on_start(&mut self, _config: &ScenarioConfig) {}

    /// Called after every round with that round's measurements.
    fn on_round(&mut self, _sample: &RoundSample) {}

    /// Called once with the final outcome.
    fn on_finish(&mut self, _outcome: &ScenarioOutcome) {}
}

/// Records named per-round series as the run progresses.
///
/// ```
/// use tsn_core::runner::{ScenarioBuilder, SeriesRecorder};
///
/// let mut recorder = SeriesRecorder::new(["trust", "satisfaction"]);
/// ScenarioBuilder::small()
///     .run_observed(&mut [&mut recorder])
///     .expect("valid configuration");
/// assert_eq!(recorder.series("trust").expect("known name").len(), 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SeriesRecorder {
    names: Vec<String>,
    series: BTreeMap<String, Vec<f64>>,
}

impl SeriesRecorder {
    /// Subscribes to the given series names (see
    /// [`RoundSample::SERIES_NAMES`] for the recognized set; unknown
    /// names record nothing).
    pub fn new(names: impl IntoIterator<Item = impl Into<String>>) -> Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        let series = names.iter().map(|n| (n.clone(), Vec::new())).collect();
        SeriesRecorder { names, series }
    }

    /// Subscribes to every recognized series.
    pub fn all() -> Self {
        Self::new(RoundSample::SERIES_NAMES)
    }

    /// The recorded values of one subscribed series.
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// Iterates `(name, values)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.series.iter().map(|(n, v)| (n.as_str(), v.as_slice()))
    }
}

impl Observer for SeriesRecorder {
    fn on_round(&mut self, sample: &RoundSample) {
        for name in &self.names {
            if let (Some(value), Some(values)) = (sample.field(name), self.series.get_mut(name)) {
                values.push(value);
            }
        }
    }
}

/// Prints one progress line per `every` rounds to stderr — handy for
/// long CLI runs.
#[derive(Debug, Clone)]
pub struct ProgressPrinter {
    every: usize,
    rounds: usize,
}

impl ProgressPrinter {
    /// Prints every `every`-th round (clamped to at least 1).
    pub fn every(every: usize) -> Self {
        ProgressPrinter {
            every: every.max(1),
            rounds: 0,
        }
    }
}

impl Observer for ProgressPrinter {
    fn on_start(&mut self, config: &ScenarioConfig) {
        self.rounds = config.rounds;
    }

    fn on_round(&mut self, sample: &RoundSample) {
        if (sample.round + 1).is_multiple_of(self.every) || sample.round + 1 == self.rounds {
            eprintln!(
                "round {:>4}/{}: trust={:.3} satisfaction={:.3} respect={:.3}",
                sample.round + 1,
                self.rounds,
                sample.mean_trust,
                sample.mean_satisfaction,
                sample.respect_rate,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ScenarioBuilder;

    #[test]
    fn recorder_matches_post_hoc_samples() {
        let mut recorder = SeriesRecorder::new(["trust", "reports"]);
        let outcome = ScenarioBuilder::small()
            .seed(5)
            .run_observed(&mut [&mut recorder])
            .expect("valid");
        assert_eq!(
            recorder.series("trust").expect("subscribed"),
            outcome.series("trust").expect("known").as_slice()
        );
        assert_eq!(
            recorder.series("reports").expect("subscribed"),
            outcome.series("reports").expect("known").as_slice()
        );
        assert!(recorder.series("nope").is_none());
    }

    #[test]
    fn recorder_all_covers_every_series() {
        let mut recorder = SeriesRecorder::all();
        ScenarioBuilder::small()
            .seed(6)
            .run_observed(&mut [&mut recorder])
            .expect("valid");
        assert_eq!(recorder.iter().count(), RoundSample::SERIES_NAMES.len());
        for (_, values) in recorder.iter() {
            assert_eq!(values.len(), 10);
        }
    }

    #[test]
    fn multiple_observers_all_fire() {
        let mut a = SeriesRecorder::new(["trust"]);
        let mut b = SeriesRecorder::new(["satisfaction"]);
        let mut c = SeriesRecorder::new(["respect"]);
        ScenarioBuilder::small()
            .seed(7)
            .run_observed(&mut [&mut a, &mut b, &mut c])
            .expect("valid");
        assert_eq!(a.series("trust").expect("subscribed").len(), 10);
        assert_eq!(b.series("satisfaction").expect("subscribed").len(), 10);
        assert_eq!(c.series("respect").expect("subscribed").len(), 10);
    }

    #[test]
    fn observed_run_equals_plain_run() {
        let plain = ScenarioBuilder::small().seed(8).run().expect("valid");
        let observed = ScenarioBuilder::small()
            .seed(8)
            .run_observed(&mut [&mut ProgressPrinter::every(1000)])
            .expect("valid");
        assert_eq!(plain.global_trust, observed.global_trust);
        assert_eq!(plain.messages, observed.messages);
    }
}
