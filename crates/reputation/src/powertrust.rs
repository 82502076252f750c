//! PowerTrust (Zhou & Hwang — IEEE TPDS 2007), the paper's ref \[24\].
//!
//! PowerTrust observes that feedback in real P2P systems follows a
//! power law, and exploits it: a small set of *power nodes* — the most
//! reputable peers — are given extra weight when aggregating local trust
//! (the "look-ahead random walk" / LRW aggregation). We reproduce that
//! structure:
//!
//! 1. local trust `r_ij` = mean value of `i`'s reports about `j`;
//! 2. global reputation `v` = stationary vector of the row-normalized
//!    local-trust matrix (random walk), computed by power iteration;
//! 3. the top-`m` (5) nodes by `v` become power nodes; the walk re-runs with
//!    a teleport that lands on power nodes with probability `θ` = 0.15,
//!    boosting the influence of their (presumably reliable) opinions.
//!
//! **Shared evidence.** The cells, the anonymous pools (blended as in
//! [`crate::eigentrust`]), the opinion cache and the walk live in the
//! crate's `EvidenceStore`, which EigenTrust shares. This module adds the
//! `r_ij` cell and the two-walk solve step; both walks run on the one
//! matrix the store rebuilds per refresh.

use crate::gathering::ReportView;
use crate::mechanism::{descending_nan_last, MechanismKind, ReputationMechanism};
use crate::walk::{EvidenceCell, EvidenceStore};
use tsn_simnet::NodeId;

/// Number of power nodes (the paper's `m`); clamped to the population.
const POWER_NODES: usize = 5;

/// Teleport probability of both walk passes: uniform in the first,
/// toward power nodes in the second.
const THETA: f64 = 0.15;

/// Convergence threshold (L1).
const EPSILON: f64 = 1e-9;

/// Iteration cap per pass.
const MAX_ITERATIONS: usize = 200;

/// One (rater, ratee) cell: sum of report values and their count; the
/// mean is the paper's local trust `r_ij`.
#[derive(Debug, Clone, Copy, Default)]
struct PtCell {
    sum: f64,
    count: u64,
}

impl EvidenceCell for PtCell {
    fn add(&mut self, report: &ReportView) {
        self.sum += report.value();
        self.count += 1;
    }

    fn weight(&self) -> f64 {
        self.value_mean().unwrap_or(0.0)
    }

    fn value_mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// Fills `order` with the indices of `mass`, highest mass first (ties by
/// ascending index, NaN last): the power-node election order.
fn rank_descending(order: &mut Vec<usize>, mass: &[f64]) {
    order.clear();
    order.extend(0..mass.len());
    order.sort_by(|&a, &b| descending_nan_last(mass[a], mass[b]).then(a.cmp(&b)));
}

/// The PowerTrust mechanism.
#[derive(Debug, Clone)]
pub struct PowerTrust {
    store: EvidenceStore<PtCell>,
    power_set: Vec<NodeId>,
    /// Teleport vector and election order scratch of the solve step.
    teleport: Vec<f64>,
    order: Vec<usize>,
}

impl PowerTrust {
    /// Creates an instance for `n` nodes.
    pub fn new(n: usize) -> Self {
        PowerTrust {
            store: EvidenceStore::new(n),
            power_set: Vec::new(),
            teleport: Vec::new(),
            order: Vec::new(),
        }
    }
}

impl ReputationMechanism for PowerTrust {
    fn kind(&self) -> MechanismKind {
        MechanismKind::PowerTrust
    }

    fn resize(&mut self, n: usize) {
        self.store.resize(n);
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
        self.store.refresh(|walk, n| {
            // Pass 1: plain random walk elects power nodes.
            self.teleport.clear();
            self.teleport.resize(n, 1.0 / n as f64);
            let it1 = walk.stationary(&self.teleport, THETA, EPSILON, MAX_ITERATIONS, workers);
            rank_descending(&mut self.order, walk.solution());
            let m = POWER_NODES.min(n);
            self.power_set.clear();
            self.power_set
                .extend(self.order[..m].iter().map(|&i| NodeId::from_index(i)));
            // Pass 2: teleport lands on power nodes; its solution weighs
            // the opinions (the LRW aggregation).
            self.teleport.clear();
            self.teleport.resize(n, 0.0);
            for p in &self.power_set {
                self.teleport[p.index()] = 1.0 / m as f64;
            }
            it1 + walk.stationary(&self.teleport, THETA, EPSILON, MAX_ITERATIONS, workers)
        })
    }

    fn score(&self, node: NodeId) -> f64 {
        self.store.score(node)
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn overhead_per_report(&self) -> usize {
        // Report to score manager + LRW lookahead exchange.
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gathering::{DisclosurePolicy, FeedbackReport};
    use crate::mechanism::InteractionOutcome;
    use tsn_simnet::{SimRng, SimTime};

    fn feed(m: &mut PowerTrust, rater: u32, ratee: u32, good: bool) {
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
        m.record(&DisclosurePolicy::full().view(&report));
    }

    /// The good nodes of a 12-node star: as many as there are power nodes.
    const GOOD: [u32; POWER_NODES] = [0, 1, 2, 3, 4];

    fn star_population(m: &mut PowerTrust, n: u32, good: &[u32]) {
        for r in 0..n {
            for e in 0..n {
                if r != e {
                    feed(m, r, e, good.contains(&e));
                }
            }
        }
    }

    #[test]
    fn election_order_ranks_nan_mass_last_without_panicking() {
        // 41 entries: long enough that the standard sort checks its
        // comparator, which a NaN under `partial_cmp` would break.
        let mut mass: Vec<f64> = (0..41).map(|i| (i * 7 % 41) as f64).collect();
        mass[5] = f64::NAN;
        mass[17] = f64::NAN;
        let mut order = Vec::new();
        rank_descending(&mut order, &mass);
        assert_eq!(&order[39..], &[5, 17]);
        assert!(order[..39].windows(2).all(|w| mass[w[0]] > mass[w[1]]));
        // Signed zeros tie and fall back to the index order.
        rank_descending(&mut order, &[0.0, -0.0, 1.0, 0.0]);
        assert_eq!(order, vec![2, 0, 1, 3]);
    }

    #[test]
    fn good_nodes_score_higher() {
        let mut m = PowerTrust::new(12);
        star_population(&mut m, 12, &GOOD);
        m.refresh();
        for good in GOOD {
            for bad in 5u32..12 {
                assert!(
                    m.score(NodeId(good)) > m.score(NodeId(bad)),
                    "good {good} must outrank bad {bad}"
                );
            }
        }
    }

    #[test]
    fn power_nodes_are_the_top_scorers() {
        let mut m = PowerTrust::new(12);
        star_population(&mut m, 12, &GOOD);
        m.refresh();
        let mut powers: Vec<u32> = m.power_set.iter().map(|p| p.0).collect();
        powers.sort_unstable();
        assert_eq!(powers, GOOD, "power nodes {powers:?}");
    }

    #[test]
    fn power_node_count_clamps_to_population() {
        let mut m = PowerTrust::new(3);
        feed(&mut m, 0, 1, true);
        m.refresh();
        assert_eq!(m.power_set.len(), 3);
    }

    #[test]
    fn anonymous_pool_still_separates() {
        let mut m = PowerTrust::new(3);
        let anon = DisclosurePolicy::minimal();
        for _ in 0..10 {
            let good = FeedbackReport {
                rater: NodeId(0),
                ratee: NodeId(1),
                outcome: InteractionOutcome::Success { quality: 1.0 },
                topic: None,
                at: SimTime::ZERO,
            };
            let bad = FeedbackReport {
                ratee: NodeId(2),
                outcome: InteractionOutcome::Failure,
                ..good
            };
            m.record(&anon.view(&good));
            m.record(&anon.view(&bad));
        }
        m.refresh();
        assert!(m.score(NodeId(1)) > m.score(NodeId(2)));
    }

    #[test]
    fn refresh_counts_both_passes() {
        let mut m = PowerTrust::new(4);
        feed(&mut m, 0, 1, true);
        let iters = m.refresh();
        assert!(iters >= 2, "two walk passes, got {iters}");
    }

    #[test]
    fn refresh_of_a_clean_instance_changes_nothing() {
        let mut m = PowerTrust::new(12);
        for r in 0..12u32 {
            feed(&mut m, r, (r * 5 + 1) % 12, r % 3 != 0);
            feed(&mut m, r, (r + 7) % 12, true);
        }
        let bits = |m: &PowerTrust| {
            let scores: Vec<u64> = (0..12).map(|i| m.score(NodeId(i)).to_bits()).collect();
            (m.power_set.clone(), scores)
        };
        let iterations = m.refresh();
        let walked = bits(&m);
        assert_eq!(m.refresh(), iterations);
        assert_eq!(bits(&m), walked);
    }

    #[test]
    fn self_reports_ignored() {
        let mut m = PowerTrust::new(3);
        for _ in 0..5 {
            feed(&mut m, 1, 1, true);
        }
        m.refresh();
        let scores: Vec<f64> = (0..3).map(|i| m.score(NodeId(i))).collect();
        assert!((scores[0] - scores[1]).abs() < 1e-9, "{scores:?}");
    }

    #[test]
    fn deterministic_given_same_reports() {
        let mut a = PowerTrust::new(5);
        let mut b = PowerTrust::new(5);
        for m in [&mut a, &mut b] {
            star_population(m, 5, &[0]);
            m.refresh();
        }
        for i in 0..5 {
            assert_eq!(a.score(NodeId(i)), b.score(NodeId(i)));
        }
    }

    #[test]
    fn incremental_refreshes_match_from_scratch() {
        // In-place row maintenance and resident walk buffers must carry
        // no state between refreshes: an interleaved record/refresh
        // history ends bit-identical to one batch ingest + single refresh.
        let mut incremental = PowerTrust::new(15);
        let mut rng = SimRng::seed_from_u64(23);
        let mut log: Vec<(u32, u32, bool)> = Vec::new();
        for step in 0..300 {
            let rater = rng.gen_range(0..15);
            let mut ratee = rng.gen_range(0..15);
            if ratee == rater {
                ratee = (ratee + 1) % 15;
            }
            let good = rng.gen_bool(0.7);
            log.push((rater, ratee, good));
            feed(&mut incremental, rater, ratee, good);
            if step % 41 == 0 {
                incremental.refresh();
            }
        }
        incremental.refresh();

        let mut scratch = PowerTrust::new(15);
        for &(rater, ratee, good) in &log {
            feed(&mut scratch, rater, ratee, good);
        }
        scratch.refresh();

        assert_eq!(incremental.power_set, scratch.power_set);
        for i in 0..15 {
            assert_eq!(
                incremental.score(NodeId(i)).to_bits(),
                scratch.score(NodeId(i)).to_bits(),
                "node {i}"
            );
        }
    }
}
