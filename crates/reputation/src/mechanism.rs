//! The common interface of all reputation mechanisms.

use crate::gathering::ReportView;
use tsn_simnet::NodeId;

/// The outcome of one interaction, as experienced by the consumer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InteractionOutcome {
    /// The provider delivered satisfactorily; `quality` in `[0, 1]` is the
    /// experienced quality (1 = perfect).
    Success {
        /// Experienced quality of the service.
        quality: f64,
    },
    /// The provider failed, cheated or served corrupted content.
    Failure,
}

impl InteractionOutcome {
    /// Scalar value of the outcome in `[0, 1]` (failures are 0).
    pub fn value(self) -> f64 {
        match self {
            InteractionOutcome::Success { quality } => quality.clamp(0.0, 1.0),
            InteractionOutcome::Failure => 0.0,
        }
    }

    /// Whether the interaction succeeded.
    pub fn is_success(self) -> bool {
        matches!(self, InteractionOutcome::Success { .. })
    }
}

/// Which mechanism a configuration selects; used by `tsn-core` configs
/// and experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismKind {
    /// No reputation at all (baseline: random partner choice).
    None,
    /// Bayesian Beta reputation.
    Beta,
    /// EigenTrust (Kamvar et al., WWW 2003).
    EigenTrust,
    /// PowerTrust (Zhou & Hwang, TPDS 2007).
    PowerTrust,
    /// TrustMe-style anonymous trust-holders (Singh & Liu, P2P 2003).
    TrustMe,
}

impl MechanismKind {
    /// All kinds, for sweeps.
    pub const ALL: [MechanismKind; 5] = [
        MechanismKind::None,
        MechanismKind::Beta,
        MechanismKind::EigenTrust,
        MechanismKind::PowerTrust,
        MechanismKind::TrustMe,
    ];

    /// Human-readable name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            MechanismKind::None => "none",
            MechanismKind::Beta => "beta",
            MechanismKind::EigenTrust => "eigentrust",
            MechanismKind::PowerTrust => "powertrust",
            MechanismKind::TrustMe => "trustme",
        }
    }

    /// The kind names whose mechanisms implement state snapshots
    /// ([`ReputationMechanism::snapshot_state`] /
    /// [`ReputationMechanism::restore_state`]), i.e. can live inside a
    /// service checkpoint, comma-separated — for error messages that
    /// should tell the caller their options.
    pub fn snapshot_capable_names() -> String {
        let names: Vec<&str> = MechanismKind::ALL
            .iter()
            .filter(|&&k| build_mechanism(k, 1).snapshot_state().is_some())
            .map(|k| k.name())
            .collect();
        names.join(", ")
    }
}

impl std::fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A reputation mechanism: consumes (possibly anonymized) feedback report
/// views and produces global scores in `[0, 1]`.
///
/// Implementations must tolerate missing report fields — an anonymized
/// view may hide the rater identity or the outcome detail; mechanisms
/// degrade gracefully (that degradation *is* the reputation/privacy
/// trade-off the paper studies).
///
/// Mechanisms are `Send + Sync`: the sharded scenario engine reads
/// scores (`&self`) from several worker threads at once, while
/// `record` and `refresh` are called on the engine's calling thread
/// (`refresh_on` may split a walk's iterations over workers it joins
/// before returning). Implementations hold plain owned data, so this
/// costs nothing.
pub trait ReputationMechanism: std::fmt::Debug + Send + Sync {
    /// Identifies the mechanism in reports.
    fn kind(&self) -> MechanismKind;

    /// Ensures the mechanism tracks at least `n` nodes.
    fn resize(&mut self, n: usize);

    /// Ingests one feedback report view.
    fn record(&mut self, report: &ReportView);

    /// Ingests a batch of report views, in order. Equivalent to calling
    /// [`ReputationMechanism::record`] for each view (bit-identical
    /// scores), but mechanisms backed by sorted sparse rows can exploit
    /// run locality — consecutive reports from one rater about one ratee
    /// (the ballot-stuffing shape, and the shape shard outboxes drain
    /// in) hit the same cell without re-searching the row.
    fn record_batch(&mut self, reports: &[ReportView]) {
        for report in reports {
            self.record(report);
        }
    }

    /// Recomputes global scores (may be a no-op for incremental
    /// mechanisms). Returns the number of internal iterations performed,
    /// for efficiency accounting.
    fn refresh(&mut self) -> usize;

    /// [`ReputationMechanism::refresh`], with the work of a walk
    /// mechanism (EigenTrust, PowerTrust) spread over up to `workers`
    /// threads through `tsn_simnet::steal`. Scores and the returned
    /// iteration count are bit-identical to `refresh()` for any worker
    /// count: each walk slot has one writer and keeps its accumulation
    /// order. The default refreshes on the calling thread.
    fn refresh_on(&mut self, _workers: usize) -> usize {
        self.refresh()
    }

    /// Global score of `node` in `[0, 1]`. Nodes never rated return the
    /// mechanism's prior.
    fn score(&self, node: NodeId) -> f64;

    /// Number of tracked nodes.
    fn len(&self) -> usize;

    /// Whether no nodes are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All scores, indexed by node.
    fn scores(&self) -> Vec<f64> {
        (0..self.len())
            .map(|i| self.score(NodeId::from_index(i)))
            .collect()
    }

    /// Nodes sorted by descending score (ties by ascending id, so the
    /// ranking is deterministic; NaN scores rank last).
    fn ranking(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = (0..self.len()).map(NodeId::from_index).collect();
        nodes.sort_by(|&a, &b| descending_nan_last(self.score(a), self.score(b)).then(a.cmp(&b)));
        nodes
    }

    /// Messages this mechanism would send per recorded report in a real
    /// deployment (overhead accounting; 0 for purely local mechanisms).
    fn overhead_per_report(&self) -> usize {
        0
    }

    /// Serializes the mechanism's evolving state (accumulated evidence,
    /// cached score vectors) into a self-contained byte blob, or `None`
    /// if the mechanism does not support checkpointing.
    ///
    /// Configuration is *not* part of the snapshot: the contract is that
    /// [`ReputationMechanism::restore_state`] is called on an instance
    /// constructed with identical parameters (the checkpoint envelope —
    /// e.g. the `tsn-service` checkpoint — records those parameters and
    /// rebuilds the instance before restoring). Within that contract the
    /// round trip is bit-identical: every `f64` travels as its IEEE-754
    /// bit pattern, so a restored mechanism scores exactly like the
    /// snapshotted one, down to the last bit.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`ReputationMechanism::snapshot_state`]
    /// onto an identically configured instance.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch for unsupported mechanisms,
    /// truncated/corrupt input, or a snapshot taken at a different
    /// population size. An `Err` leaves the instance unchanged: the
    /// whole snapshot is decoded and validated before anything is
    /// written.
    fn restore_state(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Err(format!(
            "mechanism '{}' does not support state restore",
            self.kind()
        ))
    }
}

/// Orders scores from highest to lowest with every NaN after every
/// number: a total order, so sorts by it never panic. `-0.0` and `0.0`
/// compare equal, as under `partial_cmp`.
pub(crate) fn descending_nan_last(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => b.partial_cmp(&a).unwrap_or(std::cmp::Ordering::Equal),
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    }
}

impl ReputationMechanism for Box<dyn ReputationMechanism> {
    fn kind(&self) -> MechanismKind {
        (**self).kind()
    }
    fn resize(&mut self, n: usize) {
        (**self).resize(n);
    }
    fn record(&mut self, report: &ReportView) {
        (**self).record(report);
    }
    fn record_batch(&mut self, reports: &[ReportView]) {
        (**self).record_batch(reports);
    }
    fn refresh(&mut self) -> usize {
        (**self).refresh()
    }
    fn refresh_on(&mut self, workers: usize) -> usize {
        (**self).refresh_on(workers)
    }
    fn score(&self, node: NodeId) -> f64 {
        (**self).score(node)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn overhead_per_report(&self) -> usize {
        (**self).overhead_per_report()
    }
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        (**self).snapshot_state()
    }
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        (**self).restore_state(bytes)
    }
}

/// A trivial mechanism that scores everyone with the same prior; the
/// `MechanismKind::None` baseline.
#[derive(Debug, Clone)]
pub struct NoReputation {
    n: usize,
    prior: f64,
}

impl NoReputation {
    /// Creates the baseline with a 0.5 prior.
    pub fn new(n: usize) -> Self {
        NoReputation { n, prior: 0.5 }
    }
}

impl ReputationMechanism for NoReputation {
    fn kind(&self) -> MechanismKind {
        MechanismKind::None
    }

    fn resize(&mut self, n: usize) {
        self.n = self.n.max(n);
    }

    fn record(&mut self, _report: &ReportView) {}

    fn refresh(&mut self) -> usize {
        0
    }

    fn score(&self, _node: NodeId) -> f64 {
        self.prior
    }

    fn len(&self) -> usize {
        self.n
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        // Stateless beyond the population size; the snapshot still
        // exists so service checkpoints work with the baseline.
        let mut w = tsn_simnet::ByteWriter::new();
        w.put_u64(self.n as u64);
        Some(w.finish())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = tsn_simnet::ByteReader::new(bytes);
        let n = r.take_u64()? as usize;
        if n != self.n {
            return Err(format!(
                "NoReputation snapshot is for {n} nodes, instance has {}",
                self.n
            ));
        }
        drained(&r, "NoReputation")
    }
}

/// Rejects bytes left over after a snapshot's last field, naming the
/// mechanism: a snapshot is exactly what its encoder wrote.
pub(crate) fn drained(r: &tsn_simnet::ByteReader, mechanism: &str) -> Result<(), String> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{mechanism} snapshot has {} trailing bytes",
            r.remaining()
        ))
    }
}

/// Constructs a boxed mechanism of the given kind with default parameters
/// for an `n`-node population.
pub fn build_mechanism(kind: MechanismKind, n: usize) -> Box<dyn ReputationMechanism> {
    match kind {
        MechanismKind::None => Box::new(NoReputation::new(n)),
        MechanismKind::Beta => Box::new(crate::beta::BetaReputation::new(n)),
        MechanismKind::EigenTrust => Box::new(crate::eigentrust::EigenTrust::new(n, Vec::new())),
        MechanismKind::PowerTrust => Box::new(crate::powertrust::PowerTrust::new(n)),
        MechanismKind::TrustMe => Box::new(crate::trustme::TrustMe::new(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gathering::{DisclosurePolicy, FeedbackReport};
    use tsn_simnet::{SimRng, SimTime};

    #[test]
    fn snapshot_capable_names_lists_the_implementations() {
        assert_eq!(
            MechanismKind::snapshot_capable_names(),
            "none, beta, eigentrust"
        );
    }

    /// A mechanism of `kind` over 4 nodes that has seen identified and
    /// anonymous reports and one refresh, so every snapshot block holds
    /// something other than the fresh state.
    fn fed(kind: MechanismKind) -> Box<dyn ReputationMechanism> {
        let mut m = build_mechanism(kind, 4);
        for (rater, ratee, good) in [(0, 1, true), (1, 2, false), (2, 3, true), (3, 1, true)] {
            let report = FeedbackReport {
                rater: NodeId(rater),
                ratee: NodeId(ratee),
                outcome: if good {
                    InteractionOutcome::Success { quality: 0.8 }
                } else {
                    InteractionOutcome::Failure
                },
                topic: None,
                at: SimTime::ZERO,
            };
            m.record(&DisclosurePolicy::full().view(&report));
            m.record(&DisclosurePolicy::minimal().view(&report));
        }
        m.refresh();
        m
    }

    #[test]
    fn restores_reject_trailing_bytes() {
        for kind in [
            MechanismKind::None,
            MechanismKind::Beta,
            MechanismKind::EigenTrust,
        ] {
            let mut m = build_mechanism(kind, 4);
            let mut snap = fed(kind).snapshot_state().expect("snapshot-capable");
            let before = m.snapshot_state();
            snap.push(0);
            let err = m.restore_state(&snap).unwrap_err();
            assert!(err.contains("1 trailing bytes"), "{kind}: {err}");
            assert_eq!(m.snapshot_state(), before, "{kind}: a failed restore wrote");
            snap.pop();
            m.restore_state(&snap).expect("round trip");
            assert_eq!(m.snapshot_state(), Some(snap), "{kind}");
        }
        // EigenTrust's snapshot ends with the opinion block, the dirty
        // flag (1 byte) and the iteration count (8 bytes): cut into the
        // last opinion weight.
        let mut m = build_mechanism(MechanismKind::EigenTrust, 4);
        let snap = fed(MechanismKind::EigenTrust)
            .snapshot_state()
            .expect("snapshot-capable");
        let before = m.snapshot_state();
        let err = m.restore_state(&snap[..snap.len() - 9 - 4]).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        assert_eq!(m.snapshot_state(), before, "a truncated restore wrote");
    }

    #[test]
    fn refresh_on_workers_matches_refresh_bit_for_bit() {
        // Three ratee blocks of the walk, so two workers split each
        // iteration; unrated nodes dangle.
        let n = 2 * crate::walk::BLOCK + 100;
        let make = |label: &str| -> Box<dyn ReputationMechanism> {
            match label {
                "eigentrust" => build_mechanism(MechanismKind::EigenTrust, n),
                "powertrust" => build_mechanism(MechanismKind::PowerTrust, n),
                _ => Box::new(crate::Anonymized::new(
                    crate::EigenTrust::new(n, vec![NodeId(0), NodeId(7)]),
                    crate::AnonymizationConfig {
                        strip_probability: 0.3,
                        flip_probability: 0.1,
                    },
                    SimRng::seed_from_u64(5),
                )),
            }
        };
        let bits = |m: &dyn ReputationMechanism| -> Vec<u64> {
            m.scores().into_iter().map(f64::to_bits).collect()
        };
        for label in ["eigentrust", "powertrust", "anonymized eigentrust"] {
            let (mut serial, mut split) = (make(label), make(label));
            let mut rng = SimRng::seed_from_u64(3);
            // Two refreshes: the second walks a rebuilt matrix.
            for _ in 0..2 {
                for _ in 0..n {
                    let report = FeedbackReport {
                        rater: NodeId(rng.gen_range(0..n as u32 / 2)),
                        ratee: NodeId(rng.gen_range(0..n as u32)),
                        outcome: if rng.gen_bool(0.7) {
                            InteractionOutcome::Success { quality: 0.9 }
                        } else {
                            InteractionOutcome::Failure
                        },
                        topic: None,
                        at: SimTime::ZERO,
                    };
                    let view = DisclosurePolicy::full().view(&report);
                    serial.record(&view);
                    split.record(&view);
                }
                let iterations = serial.refresh();
                assert!(iterations > 1, "{label}");
                assert_eq!(split.refresh_on(2), iterations, "{label}");
                assert_eq!(bits(split.as_ref()), bits(serial.as_ref()), "{label}");
            }
        }
    }

    #[test]
    fn outcome_values() {
        assert_eq!(InteractionOutcome::Failure.value(), 0.0);
        assert_eq!(InteractionOutcome::Success { quality: 0.8 }.value(), 0.8);
        assert_eq!(
            InteractionOutcome::Success { quality: 7.0 }.value(),
            1.0,
            "clamped"
        );
        assert!(InteractionOutcome::Success { quality: 0.1 }.is_success());
        assert!(!InteractionOutcome::Failure.is_success());
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(MechanismKind::EigenTrust.to_string(), "eigentrust");
        assert_eq!(MechanismKind::ALL.len(), 5);
    }

    #[test]
    fn no_reputation_scores_prior() {
        let mut m = NoReputation::new(3);
        let report = FeedbackReport {
            rater: NodeId(0),
            ratee: NodeId(1),
            outcome: InteractionOutcome::Failure,
            topic: None,
            at: SimTime::ZERO,
        };
        m.record(&DisclosurePolicy::full().view(&report));
        m.refresh();
        assert_eq!(m.score(NodeId(1)), 0.5);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn ranking_is_deterministic_under_ties() {
        let m = NoReputation::new(4);
        assert_eq!(
            m.ranking(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    /// A mechanism with fixed scores, for ordering tests.
    #[derive(Debug)]
    struct Fixed(Vec<f64>);

    impl ReputationMechanism for Fixed {
        fn kind(&self) -> MechanismKind {
            MechanismKind::None
        }
        fn resize(&mut self, _n: usize) {}
        fn record(&mut self, _report: &ReportView) {}
        fn refresh(&mut self) -> usize {
            0
        }
        fn score(&self, node: NodeId) -> f64 {
            self.0[node.index()]
        }
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn ranking_puts_nan_scores_last_without_panicking() {
        // 41 nodes: long enough that the standard sort checks its
        // comparator, which a NaN under `partial_cmp` would break.
        let mut scores: Vec<f64> = (0..41).map(|i| (i * 7 % 41) as f64 / 41.0).collect();
        scores[3] = f64::NAN;
        scores[30] = f64::NAN;
        let ranking = Fixed(scores.clone()).ranking();
        assert_eq!(&ranking[39..], &[NodeId(3), NodeId(30)]);
        let ranked: Vec<f64> = ranking[..39].iter().map(|n| scores[n.index()]).collect();
        assert!(ranked.windows(2).all(|w| w[0] > w[1]), "{ranked:?}");
        // Signed zeros tie and fall back to the id order.
        let zeros = Fixed(vec![0.0, -0.0, 0.5, 0.0]).ranking();
        assert_eq!(zeros, vec![NodeId(2), NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn build_mechanism_matches_kind() {
        for kind in MechanismKind::ALL {
            let m = build_mechanism(kind, 10);
            assert_eq!(m.kind(), kind);
            assert_eq!(m.len(), 10);
        }
    }

    #[test]
    fn resize_only_grows() {
        let mut m = NoReputation::new(5);
        m.resize(3);
        assert_eq!(m.len(), 5);
        m.resize(8);
        assert_eq!(m.len(), 8);
    }
}
