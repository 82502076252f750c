//! EigenTrust (Kamvar, Schlosser, Garcia-Molina — WWW 2003), the paper's
//! reference \[13\].
//!
//! Each peer `i` accumulates a local trust value `s_ij` for every partner
//! `j` (satisfactory minus unsatisfactory transactions). Normalized local
//! trust `c_ij = max(s_ij, 0) / Σ_j max(s_ij, 0)` forms a stochastic
//! matrix; the global trust vector is the stationary distribution of a
//! random walk that teleports to *pre-trusted peers* with probability
//! `α` = 0.15:
//!
//! ```text
//! t ← (1 − α) Cᵀ t + α p
//! ```
//!
//! **Anonymized degradation.** When the disclosure policy hides rater
//! identities, `C` cannot be built; such reports fall into a per-ratee
//! anonymous pool and the final score blends the eigenvector with the
//! pool average, weighted by the share of identified reports. Hiding
//! identities therefore smoothly reduces EigenTrust toward a plain mean —
//! precisely the reputation-power loss the paper's Figure 2 plots.
//!
//! **Shared evidence.** The cells, the anonymous pools, the opinion cache
//! and the walk live in the crate's `EvidenceStore`, which PowerTrust
//! shares. This module adds the `s_ij` cell, the pre-trusted prior the
//! walk teleports to, and the snapshot codec of the checkpoint's
//! mechanism section.

use crate::gathering::ReportView;
use crate::mechanism::{MechanismKind, ReputationMechanism};
use crate::walk::{EvidenceCell, EvidenceStore};
use tsn_simnet::NodeId;

/// Teleport probability toward pre-trusted peers (the paper's `a`).
const ALPHA: f64 = 0.15;

/// Convergence threshold on the L1 change between iterations.
const EPSILON: f64 = 1e-9;

/// Iteration cap per [`ReputationMechanism::refresh`].
const MAX_ITERATIONS: usize = 200;

/// One (rater, ratee) cell: `s_ij` (satisfactory − unsatisfactory) feeds
/// the C matrix, the value mean the trust-weighted opinion.
#[derive(Debug, Clone, Copy, Default)]
struct LocalCell {
    s: f64,
    value_sum: f64,
    count: u64,
}

impl EvidenceCell for LocalCell {
    fn add(&mut self, report: &ReportView) {
        // s_ij += value for success, −1 for failure (paper: sat − unsat).
        self.s += if report.success { report.value() } else { -1.0 };
        self.value_sum += report.value();
        self.count += 1;
    }

    fn weight(&self) -> f64 {
        self.s
    }

    fn value_mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.value_sum / self.count as f64)
    }
}

/// The EigenTrust mechanism.
#[derive(Debug, Clone)]
pub struct EigenTrust {
    /// Pre-trusted peers. Empty means "uniform prior over all peers",
    /// which is the paper's fallback when no pre-trust exists.
    pretrusted: Vec<NodeId>,
    store: EvidenceStore<LocalCell>,
    /// Teleport distribution (recomputed only when the population grows).
    prior: Vec<f64>,
}

impl EigenTrust {
    /// Creates an instance for `n` nodes whose walk teleports to
    /// `pretrusted` (uniformly to everyone when empty).
    pub fn new(n: usize, pretrusted: Vec<NodeId>) -> Self {
        let prior = compute_prior(&pretrusted, n);
        EigenTrust {
            pretrusted,
            store: EvidenceStore::new(n),
            prior,
        }
    }

    /// The raw global trust distribution (sums to 1). Prefer
    /// [`ReputationMechanism::score`] for `\[0, 1\]`-comparable values.
    pub fn global_trust(&mut self) -> &[f64] {
        self.refresh();
        self.store.global()
    }
}

fn compute_prior(pretrusted: &[NodeId], n: usize) -> Vec<f64> {
    if pretrusted.is_empty() {
        return vec![1.0 / n.max(1) as f64; n];
    }
    let mut p = vec![0.0; n];
    let share = 1.0 / pretrusted.len() as f64;
    for node in pretrusted.iter().filter(|node| node.index() < n) {
        p[node.index()] += share;
    }
    p
}

impl ReputationMechanism for EigenTrust {
    fn kind(&self) -> MechanismKind {
        MechanismKind::EigenTrust
    }

    fn resize(&mut self, n: usize) {
        if self.store.resize(n) {
            self.prior = compute_prior(&self.pretrusted, n);
        }
    }

    fn record(&mut self, report: &ReportView) {
        self.store.record(report);
    }

    fn record_batch(&mut self, reports: &[ReportView]) {
        self.store.record_batch(reports);
    }

    fn refresh(&mut self) -> usize {
        self.refresh_on(1)
    }

    fn refresh_on(&mut self, workers: usize) -> usize {
        // One walk, teleporting to the pre-trusted prior.
        self.store.refresh(|walk, _| {
            walk.stationary(&self.prior, ALPHA, EPSILON, MAX_ITERATIONS, workers)
        })
    }

    fn score(&self, node: NodeId) -> f64 {
        self.store.score(node)
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn overhead_per_report(&self) -> usize {
        // Distributed EigenTrust: report to the ratee's score managers
        // (CAN-based DHT, typically a handful of replicas).
        3
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        // Per cell: s, value_sum, count. `prior` is configuration.
        Some(self.store.snapshot(|w, cell| {
            w.put_f64(cell.s);
            w.put_f64(cell.value_sum);
            w.put_u64(cell.count);
        }))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.store.restore(bytes, "EigenTrust", 24, |r| {
            Ok(LocalCell {
                s: r.take_f64()?,
                value_sum: r.take_f64()?,
                count: r.take_u64()?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gathering::{DisclosurePolicy, FeedbackReport};
    use crate::mechanism::InteractionOutcome;
    use tsn_simnet::{SimRng, SimTime};

    fn feed(m: &mut EigenTrust, rater: u32, ratee: u32, good: bool, policy: &DisclosurePolicy) {
        let report = FeedbackReport {
            rater: NodeId(rater),
            ratee: NodeId(ratee),
            outcome: if good {
                InteractionOutcome::Success { quality: 1.0 }
            } else {
                InteractionOutcome::Failure
            },
            topic: None,
            at: SimTime::ZERO,
        };
        m.record(&policy.view(&report));
    }

    #[test]
    fn good_nodes_outrank_bad_nodes() {
        let mut m = EigenTrust::new(4, Vec::new());
        let full = DisclosurePolicy::full();
        // 0 and 1 praise each other and node 2; everyone reports node 3 bad.
        for _ in 0..5 {
            feed(&mut m, 0, 1, true, &full);
            feed(&mut m, 1, 0, true, &full);
            feed(&mut m, 0, 2, true, &full);
            feed(&mut m, 1, 3, false, &full);
            feed(&mut m, 0, 3, false, &full);
        }
        m.refresh();
        assert!(m.score(NodeId(0)) > m.score(NodeId(3)));
        assert!(m.score(NodeId(1)) > m.score(NodeId(3)));
        assert!(m.score(NodeId(2)) > m.score(NodeId(3)));
    }

    #[test]
    fn global_trust_is_a_distribution() {
        let mut m = EigenTrust::new(5, Vec::new());
        let full = DisclosurePolicy::full();
        for r in 0..5u32 {
            for e in 0..5u32 {
                if r != e {
                    feed(&mut m, r, e, e % 2 == 0, &full);
                }
            }
        }
        let t = m.global_trust();
        let sum: f64 = t.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "eigenvector sums to 1, got {sum}");
        assert!(t.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn pretrusted_peers_get_teleport_mass() {
        let mut m = EigenTrust::new(3, vec![NodeId(0)]);
        // No reports at all: stationary distribution = prior = all mass on 0.
        m.refresh();
        let t = m.global_trust();
        assert!(
            t[0] > t[1] && t[0] > t[2],
            "teleport mass concentrates on the seed: {t:?}"
        );
    }

    #[test]
    fn pretrusted_weighting_discounts_colluders() {
        // Colluders 2 and 3 praise each other massively; the pretrusted
        // seed 0 rates 1 well and 3 badly. With identity-aware weighting,
        // 1 must outrank 3 despite 3 receiving more praise volume.
        let mut m = EigenTrust::new(4, vec![NodeId(0)]);
        let full = DisclosurePolicy::full();
        for _ in 0..3 {
            feed(&mut m, 0, 1, true, &full);
            feed(&mut m, 0, 3, false, &full);
        }
        for _ in 0..20 {
            feed(&mut m, 2, 3, true, &full);
            feed(&mut m, 3, 2, true, &full);
        }
        m.refresh();
        assert!(
            m.score(NodeId(1)) > m.score(NodeId(3)),
            "seed-endorsed node must outrank collusion ring: {} vs {}",
            m.score(NodeId(1)),
            m.score(NodeId(3))
        );
    }

    #[test]
    fn self_ratings_are_ignored() {
        let mut m = EigenTrust::new(3, Vec::new());
        let full = DisclosurePolicy::full();
        for _ in 0..10 {
            feed(&mut m, 2, 2, true, &full);
        }
        m.refresh();
        // Node 2 gained nothing: uniform prior persists.
        let s: Vec<f64> = (0..3).map(|i| m.score(NodeId(i))).collect();
        assert!(
            (s[0] - s[2]).abs() < 1e-9,
            "self-praise must not help: {s:?}"
        );
    }

    #[test]
    fn anonymous_reports_still_inform_scores() {
        let mut m = EigenTrust::new(3, Vec::new());
        let anon = DisclosurePolicy::minimal();
        for _ in 0..10 {
            feed(&mut m, 0, 1, true, &anon);
            feed(&mut m, 0, 2, false, &anon);
        }
        m.refresh();
        assert!(
            m.score(NodeId(1)) > m.score(NodeId(2)),
            "anonymous pool should still separate good from bad"
        );
    }

    #[test]
    fn anonymization_degrades_separation() {
        // With identities, collusion-resistant eigenvector scoring gives a
        // crisper separation than the anonymous mean under mixed feedback.
        let run = |policy: DisclosurePolicy| {
            let mut m = EigenTrust::new(4, Vec::new());
            for _ in 0..10 {
                feed(&mut m, 0, 1, true, &policy);
                feed(&mut m, 1, 0, true, &policy);
                feed(&mut m, 2, 3, true, &policy); // liar boosts liar
                feed(&mut m, 0, 3, false, &policy);
                feed(&mut m, 1, 3, false, &policy);
            }
            m.refresh();
            m.score(NodeId(0)) - m.score(NodeId(3))
        };
        let with_ids = run(DisclosurePolicy::full());
        let without_ids = run(DisclosurePolicy::minimal());
        assert!(
            with_ids > without_ids,
            "identity-aware separation {with_ids} should beat anonymous {without_ids}"
        );
    }

    #[test]
    fn refresh_reports_iterations_and_converges() {
        let mut m = EigenTrust::new(10, Vec::new());
        let full = DisclosurePolicy::full();
        for r in 0..10u32 {
            feed(&mut m, r, (r + 1) % 10, true, &full);
        }
        let iters = m.refresh();
        assert!(iters > 0 && iters <= 200);
        assert_eq!(m.refresh(), iters, "a clean refresh reports the last walk");
    }

    #[test]
    fn empty_mechanism_scores_prior() {
        let mut m = EigenTrust::new(3, Vec::new());
        m.refresh();
        // Uniform eigenvector: max-normalized score = 1 for everyone.
        let s = m.score(NodeId(0));
        assert!(s > 0.0 && s <= 1.0);
        assert_eq!(m.score(NodeId(99)), 0.5, "out-of-range nodes get the prior");
    }

    #[test]
    fn resize_grows_tracking() {
        let mut m = EigenTrust::new(2, Vec::new());
        m.resize(5);
        assert_eq!(m.len(), 5);
        let full = DisclosurePolicy::full();
        feed(&mut m, 4, 3, true, &full);
        m.refresh();
        assert!(m.score(NodeId(3)) > 0.0);
    }

    fn random_feed(m: &mut EigenTrust, n: u32, count: usize, seed: u64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let full = DisclosurePolicy::full();
        for _ in 0..count {
            let rater = rng.gen_range(0..n);
            let mut ratee = rng.gen_range(0..n);
            if ratee == rater {
                ratee = (ratee + 1) % n;
            }
            feed(m, rater, ratee, rng.gen_bool(0.7), &full);
        }
    }

    #[test]
    fn two_instances_are_bit_identical() {
        // The HashMap-backed implementation could differ in low-order
        // float bits between instances (random iteration order); the CSR
        // storage accumulates in a fixed order, so equality is exact.
        let mut a = EigenTrust::new(30, Vec::new());
        let mut b = EigenTrust::new(30, Vec::new());
        random_feed(&mut a, 30, 600, 9);
        random_feed(&mut b, 30, 600, 9);
        a.refresh();
        b.refresh();
        assert_eq!(a.global_trust(), b.global_trust());
        for i in 0..30 {
            assert_eq!(
                a.score(NodeId(i)).to_bits(),
                b.score(NodeId(i)).to_bits(),
                "node {i}"
            );
        }
    }

    #[test]
    fn snapshot_restore_round_trip_is_bit_identical() {
        let mut a = EigenTrust::new(25, Vec::new());
        random_feed(&mut a, 25, 500, 3);
        a.refresh();
        // Leave the instance mid-stream (dirty, unrefreshed tail) so the
        // snapshot covers cache + pending state, not just a clean point.
        random_feed(&mut a, 25, 100, 4);
        let snap = a.snapshot_state().expect("eigentrust supports snapshots");

        let mut b = EigenTrust::new(25, Vec::new());
        b.restore_state(&snap).expect("round trip");
        for i in 0..25 {
            assert_eq!(
                a.score(NodeId(i)).to_bits(),
                b.score(NodeId(i)).to_bits(),
                "restored scores must match before any refresh (node {i})"
            );
        }

        // Continuing both instances identically stays bit-identical.
        random_feed(&mut a, 25, 200, 5);
        random_feed(&mut b, 25, 200, 5);
        a.refresh();
        b.refresh();
        assert_eq!(a.global_trust(), b.global_trust());
        for i in 0..25 {
            assert_eq!(a.score(NodeId(i)).to_bits(), b.score(NodeId(i)).to_bits());
        }
    }

    /// The bits a refresh leaves behind: the global trust vector and
    /// every score.
    fn refreshed_bits(m: &mut EigenTrust) -> (Vec<u64>, Vec<u64>) {
        let global = m.global_trust().iter().map(|g| g.to_bits()).collect();
        let scores = (0..m.len())
            .map(|i| m.score(NodeId::from_index(i)).to_bits())
            .collect();
        (global, scores)
    }

    #[test]
    fn refresh_of_a_clean_instance_changes_nothing() {
        let mut m = EigenTrust::new(25, Vec::new());
        random_feed(&mut m, 25, 400, 8);
        let iterations = m.refresh();
        assert!(iterations > 0);
        let walked = refreshed_bits(&mut m);
        // No report since the walk: the second refresh reports the same
        // iterations and leaves every cached bit in place.
        assert_eq!(m.refresh(), iterations);
        assert_eq!(refreshed_bits(&mut m), walked);

        // A restored clean snapshot behaves the same way.
        let snap = m.snapshot_state().expect("eigentrust supports snapshots");
        let mut restored = EigenTrust::new(25, Vec::new());
        restored.restore_state(&snap).expect("round trip");
        assert_eq!(restored.refresh(), iterations);
        assert_eq!(refreshed_bits(&mut restored), walked);

        // The next report makes the instance dirty again, and both walk
        // to the same bits.
        random_feed(&mut m, 25, 1, 9);
        random_feed(&mut restored, 25, 1, 9);
        assert_eq!(m.refresh(), restored.refresh());
        assert_eq!(refreshed_bits(&mut m), refreshed_bits(&mut restored));
    }

    #[test]
    fn snapshot_bytes_are_pinned() {
        // The byte layout of a checkpoint's mechanism section: refreshed
        // caches, anonymous pools and an unrefreshed (dirty) tail.
        let mut m = EigenTrust::new(12, Vec::new());
        random_feed(&mut m, 12, 150, 41);
        m.refresh();
        let anon = DisclosurePolicy::minimal();
        for ratee in 0..4 {
            feed(&mut m, 11, ratee, ratee % 2 == 0, &anon);
        }
        random_feed(&mut m, 12, 10, 42);
        let snap = m.snapshot_state().expect("eigentrust supports snapshots");
        assert_eq!(
            (snap.len(), tsn_simnet::codec::crc32(&snap)),
            (2989, 3_111_907_748),
            "snapshot layout moved"
        );
    }

    #[test]
    fn snapshot_restore_rejects_bad_input() {
        let mut a = EigenTrust::new(8, Vec::new());
        random_feed(&mut a, 8, 50, 6);
        let snap = a.snapshot_state().unwrap();
        let mut wrong_size = EigenTrust::new(4, Vec::new());
        assert!(
            wrong_size.restore_state(&snap).is_err(),
            "population mismatch"
        );
        let mut same = EigenTrust::new(8, Vec::new());
        assert!(
            same.restore_state(&snap[..snap.len() / 2]).is_err(),
            "truncated"
        );
    }

    #[test]
    fn restore_rejects_misplaced_ratees() {
        let mut a = EigenTrust::new(8, Vec::new());
        random_feed(&mut a, 8, 50, 6);
        let snap = a.snapshot_state().unwrap();
        let mut b = EigenTrust::new(8, Vec::new());
        // Row 0 starts after n (8 bytes) and its length (8 bytes); each
        // cell is a u32 ratee and 24 bytes of state. Repeat the first
        // ratee in the second cell, then point the first past n.
        assert!(u64::from_le_bytes(snap[8..16].try_into().unwrap()) >= 2);
        let mut repeated = snap.clone();
        repeated.copy_within(16..20, 44);
        let err = b.restore_state(&repeated).unwrap_err();
        assert!(err.contains("strictly ascending"), "{err}");
        let mut out_of_range = snap.clone();
        out_of_range[16..20].copy_from_slice(&8u32.to_le_bytes());
        let err = b.restore_state(&out_of_range).unwrap_err();
        assert!(err.contains("ratee 8 out of range"), "{err}");
        b.restore_state(&snap)
            .expect("the encoder's own bytes restore");
    }

    #[test]
    fn incremental_refreshes_match_from_scratch() {
        // Interleaving record/refresh must leave the matrix in exactly
        // the state a single batch ingest would produce: the in-place row
        // updates and resident scratch buffers carry no state between
        // refreshes.
        let mut incremental = EigenTrust::new(20, Vec::new());
        let mut rng = SimRng::seed_from_u64(17);
        let full = DisclosurePolicy::full();
        let mut log: Vec<(u32, u32, bool)> = Vec::new();
        for step in 0..400 {
            let rater = rng.gen_range(0..20);
            let mut ratee = rng.gen_range(0..20);
            if ratee == rater {
                ratee = (ratee + 1) % 20;
            }
            let good = rng.gen_bool(0.6);
            log.push((rater, ratee, good));
            feed(&mut incremental, rater, ratee, good, &full);
            if step % 37 == 0 {
                incremental.refresh();
            }
        }
        incremental.refresh();

        let mut scratch = EigenTrust::new(20, Vec::new());
        for &(rater, ratee, good) in &log {
            feed(&mut scratch, rater, ratee, good, &full);
        }
        scratch.refresh();

        assert_eq!(incremental.global_trust(), scratch.global_trust());
        for i in 0..20 {
            assert_eq!(
                incremental.score(NodeId(i)).to_bits(),
                scratch.score(NodeId(i)).to_bits(),
                "node {i}"
            );
        }
    }
}
