//! Node churn: joins, leaves, crashes and whitewashing.
//!
//! The reputation literature the paper builds on (Marti & Garcia-Molina's
//! taxonomy, EigenTrust's threat models) treats churn and *whitewashing* —
//! re-joining under a fresh identity to shed a bad reputation — as
//! first-class adversarial behaviours. [`ChurnConfig`] parameterizes the
//! session model; the [`DynamicsRuntime`](crate::DynamicsRuntime) samples
//! and executes it, and reports every transition as a
//! [`DynamicsEvent`](crate::DynamicsEvent).

use crate::time::SimDuration;

/// Parameters of the churn process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Mean session length (time a node stays online). Exponentially
    /// distributed, the standard M/M churn assumption.
    pub mean_session: SimDuration,
    /// Mean offline time before re-joining. [`SimDuration::MAX`] means
    /// a node that goes offline never returns.
    pub mean_downtime: SimDuration,
    /// Probability that a re-join is a *whitewash*: the node returns under
    /// a brand-new identity, discarding its history.
    pub whitewash_probability: f64,
    /// Fraction of departures that are crashes (no goodbye protocol);
    /// the rest are graceful leaves. Only affects what higher layers see.
    pub crash_fraction: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            mean_session: SimDuration::from_secs(3_600),
            mean_downtime: SimDuration::from_secs(600),
            whitewash_probability: 0.0,
            crash_fraction: 0.2,
        }
    }
}

impl ChurnConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.mean_session == SimDuration::ZERO {
            return Err("mean_session must be positive".into());
        }
        if self.mean_downtime == SimDuration::ZERO {
            return Err("mean_downtime must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.whitewash_probability) {
            return Err("whitewash_probability must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.crash_fraction) {
            return Err("crash_fraction must be in [0,1]".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimTime;
    use crate::{DynamicsEvent, DynamicsPlan, DynamicsRuntime, NodeId};

    fn cfg() -> ChurnConfig {
        ChurnConfig {
            mean_session: SimDuration::from_secs(100),
            mean_downtime: SimDuration::from_secs(25),
            whitewash_probability: 0.3,
            crash_fraction: 0.5,
        }
    }

    type Events = Vec<(SimTime, DynamicsEvent)>;

    /// A detached runtime over `n` slots churning under [`cfg`].
    fn runtime(n: usize, seed: u64) -> DynamicsRuntime {
        let plan = DynamicsPlan {
            churn: Some(cfg()),
            ..Default::default()
        };
        DynamicsRuntime::new(plan, n, SimRng::seed_from_u64(seed)).unwrap()
    }

    /// [`runtime`] advanced to `secs`, with its `(time, event)` stream.
    fn run(n: usize, secs: u64, seed: u64) -> (DynamicsRuntime, Events) {
        let mut runtime = runtime(n, seed);
        runtime.advance_detached(SimTime::from_secs(secs));
        let events = runtime.take_events();
        (runtime, events)
    }

    fn count(events: &Events, pred: fn(&DynamicsEvent) -> bool) -> usize {
        events.iter().filter(|(_, e)| pred(e)).count()
    }

    #[test]
    fn validate_catches_bad_parameters() {
        let mut c = cfg();
        c.whitewash_probability = 1.5;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.mean_session = SimDuration::ZERO;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.crash_fraction = f64::NAN;
        assert!(c.validate().is_err());
        assert!(cfg().validate().is_ok());
    }

    #[test]
    fn session_lengths_match_mean() {
        // Every slot starts online at time zero; a session ends at the
        // slot's next departure and restarts at its next return.
        let (_, events) = run(200, 5_000, 0);
        let mut online_since = vec![Some(SimTime::ZERO); 200];
        let mut sessions = Vec::new();
        for (at, event) in events {
            match event {
                DynamicsEvent::Leave { slot } | DynamicsEvent::Crash { slot } => {
                    let since = online_since[slot.index()].take().unwrap();
                    sessions.push(at.duration_since(since).as_secs_f64());
                }
                DynamicsEvent::Rejoin { slot } | DynamicsEvent::Whitewash { slot, .. } => {
                    online_since[slot.index()] = Some(at);
                }
                _ => {}
            }
        }
        assert!(sessions.len() > 5_000, "{} sessions", sessions.len());
        let mean = sessions.iter().sum::<f64>() / sessions.len() as f64;
        assert!((mean - 100.0).abs() < 5.0, "mean session {mean}");
    }

    #[test]
    fn crash_fraction_matches() {
        let (_, events) = run(200, 5_000, 1);
        let crashes = count(&events, |e| matches!(e, DynamicsEvent::Crash { .. }));
        let leaves = count(&events, |e| matches!(e, DynamicsEvent::Leave { .. }));
        let rate = crashes as f64 / (crashes + leaves) as f64;
        assert!((rate - 0.5).abs() < 0.03, "crash rate {rate}");
    }

    #[test]
    fn whitewash_rate_matches_and_allocates_fresh_ids() {
        let n = 200;
        let (_, events) = run(n, 5_000, 2);
        for (_, event) in &events {
            if let DynamicsEvent::Whitewash { new, .. } = event {
                assert!(new.index() >= n, "fresh identities sit beyond the slots");
            }
        }
        let rejoins = count(&events, |e| matches!(e, DynamicsEvent::Rejoin { .. }));
        let whitewashes = count(&events, |e| matches!(e, DynamicsEvent::Whitewash { .. }));
        let rate = whitewashes as f64 / (whitewashes + rejoins) as f64;
        assert!((rate - 0.3).abs() < 0.03, "whitewash rate {rate}");
    }

    #[test]
    fn lifecycle_tracks_online_state() {
        // The runtime's online flags and slot identities follow the
        // last event of each slot, step by step.
        let n = 50;
        let mut runtime = runtime(n, 4);
        let mut online = vec![true; n];
        let mut identity: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        for step in 1..=100u64 {
            runtime.advance_detached(SimTime::from_secs(step * 10));
            for (_, event) in runtime.take_events() {
                match event {
                    DynamicsEvent::Leave { slot } | DynamicsEvent::Crash { slot } => {
                        online[slot.index()] = false;
                    }
                    DynamicsEvent::Rejoin { slot } => online[slot.index()] = true,
                    DynamicsEvent::Whitewash { slot, new, .. } => {
                        online[slot.index()] = true;
                        identity[slot.index()] = new;
                    }
                    _ => {}
                }
            }
            let actual: Vec<bool> = (0..n)
                .map(|i| runtime.online(NodeId::from_index(i)))
                .collect();
            assert_eq!(actual, online, "step {step}");
            assert_eq!(runtime.identities(), identity, "step {step}");
            let up = online.iter().filter(|&&o| o).count();
            assert_eq!(runtime.availability(), up as f64 / n as f64);
        }
        assert!(runtime.identity_count() > n, "1000 s of churn whitewashes");
    }

    #[test]
    fn availability_formula() {
        // Steady-state availability is up / (up + down) = 100 / 125.
        let (runtime, _) = run(2_000, 1_000, 3);
        let a = runtime.availability();
        assert!((a - 0.8).abs() < 0.03, "availability {a}");
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(run(20, 1_000, 9).1, run(20, 1_000, 9).1);
    }
}
