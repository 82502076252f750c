//! Per-round subscription hooks.
//!
//! The time series behind Figure 1 is read after the run with
//! [`ScenarioOutcome::series`]; an [`Observer`] instead receives each
//! [`RoundSample`] as the scenario produces it, for streaming consumers
//! such as progress printers and live plots.

use crate::config::ScenarioConfig;
use crate::scenario::{RoundSample, ScenarioOutcome};

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

    /// Counts the hooks it receives.
    #[derive(Default)]
    struct Counter {
        starts: usize,
        rounds: usize,
        finishes: usize,
    }

    impl Observer for Counter {
        fn on_start(&mut self, _config: &ScenarioConfig) {
            self.starts += 1;
        }

        fn on_round(&mut self, _sample: &RoundSample) {
            self.rounds += 1;
        }

        fn on_finish(&mut self, _outcome: &ScenarioOutcome) {
            self.finishes += 1;
        }
    }

    #[test]
    fn multiple_observers_all_fire() {
        let mut a = Counter::default();
        let mut b = Counter::default();
        let mut c = Counter::default();
        ScenarioBuilder::small()
            .seed(7)
            .run_observed(&mut [&mut a, &mut b, &mut c])
            .expect("valid");
        for counter in [a, b, c] {
            assert_eq!(
                (counter.starts, counter.rounds, counter.finishes),
                (1, 10, 1)
            );
        }
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
