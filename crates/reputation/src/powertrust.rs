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
//! Anonymized reports (no rater id) fall into a per-ratee pool blended in
//! the same way as [`crate::eigentrust`].
//!
//! **Performance.** Like EigenTrust, the local-trust matrix is a
//! `LocalMatrix` updated in place by `record`; both walk passes run on
//! the shared `WalkMatrix` engine (flat normalized matrix rebuilt once
//! per refresh, resident `t`/`next` ping-pong buffers), so a refresh
//! performs no steady-state allocation and accumulates floats in a
//! deterministic (rater, ratee) order.

use crate::gathering::ReportView;
use crate::local_matrix::{LocalMatrix, UpsertMemo};
use crate::mechanism::{descending_nan_last, MechanismKind, ReputationMechanism};
use crate::walk::WalkMatrix;
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

impl PtCell {
    /// The local-trust mean, or 0 when no reports arrived.
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
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
    n: usize,
    /// Sparse local trust, updated in place by `record`.
    local: LocalMatrix<PtCell>,
    anon: Vec<(f64, u64)>,
    identified_reports: u64,
    anonymous_reports: u64,
    global: Vec<f64>,
    /// Cached walk-weighted opinion per node: (weighted value sum, weight).
    opinion: Vec<(f64, f64)>,
    power_set: Vec<NodeId>,
    dirty: bool,
    last_iterations: usize,
    /// The shared power-iteration engine (both passes run on the same
    /// rebuilt matrix), plus the teleport vector and election order
    /// scratch.
    walk: WalkMatrix,
    teleport: Vec<f64>,
    order: Vec<usize>,
    /// Flat (rater, ratee, local-trust mean) image of the rated cells,
    /// captured during the walk rebuild for the opinion pass.
    opinion_src: Vec<(u32, u32, f64)>,
}

impl PowerTrust {
    /// Creates an instance for `n` nodes.
    pub fn new(n: usize) -> Self {
        PowerTrust {
            n,
            local: LocalMatrix::new(n),
            anon: vec![(0.0, 0); n],
            identified_reports: 0,
            anonymous_reports: 0,
            global: vec![1.0 / n.max(1) as f64; n],
            opinion: vec![(0.0, 0.0); n],
            power_set: Vec::new(),
            dirty: true,
            last_iterations: 0,
            walk: WalkMatrix::default(),
            teleport: Vec::new(),
            order: Vec::new(),
            opinion_src: Vec::new(),
        }
    }

    /// The power nodes elected by the latest refresh.
    pub fn power_nodes(&mut self) -> &[NodeId] {
        if self.dirty {
            self.recompute();
        }
        &self.power_set
    }

    /// Iterations used by the most recent refresh (both passes).
    pub fn last_iterations(&self) -> usize {
        self.last_iterations
    }

    fn recompute(&mut self) {
        if self.n == 0 {
            self.dirty = false;
            self.last_iterations = 0;
            return;
        }
        let n = self.n;
        // Row-normalize the positive local-trust means into the walk
        // engine; both passes share the rebuilt matrix, and the same
        // traversal flattens each rated cell's mean for the opinion pass.
        let opinion_src = &mut self.opinion_src;
        opinion_src.clear();
        self.walk
            .rebuild(n, &self.local, PtCell::mean, |i, j, cell| {
                if cell.count > 0 {
                    opinion_src.push((i, j, cell.sum / cell.count as f64));
                }
            });
        // Pass 1: plain random walk elects power nodes.
        self.teleport.clear();
        self.teleport.resize(n, 1.0 / n as f64);
        let it1 = self
            .walk
            .stationary(&self.teleport, THETA, EPSILON, MAX_ITERATIONS);
        let v1 = self.walk.solution();
        rank_descending(&mut self.order, v1);
        let m = POWER_NODES.min(n);
        self.power_set.clear();
        self.power_set
            .extend(self.order[..m].iter().map(|&i| NodeId::from_index(i)));
        // Pass 2: teleport lands on power nodes, boosting their influence.
        self.teleport.clear();
        self.teleport.resize(n, 0.0);
        for p in &self.power_set {
            self.teleport[p.index()] = 1.0 / m as f64;
        }
        let it2 = self
            .walk
            .stationary(&self.teleport, THETA, EPSILON, MAX_ITERATIONS);
        self.global.clear();
        self.global.extend_from_slice(self.walk.solution());
        // Cache the walk-weighted opinion aggregation: power nodes carry
        // the most weight when scoring others (the LRW aggregation).
        self.opinion.clear();
        self.opinion.resize(n, (0.0, 0.0));
        for &(i, j, mean) in &self.opinion_src {
            let w = self.global[i as usize].max(1e-6);
            let slot = &mut self.opinion[j as usize];
            slot.0 += w * mean;
            slot.1 += w;
        }
        self.dirty = false;
        self.last_iterations = it1 + it2;
    }

    fn blend_weight(&self) -> f64 {
        let total = self.identified_reports + self.anonymous_reports;
        if total == 0 {
            1.0
        } else {
            self.identified_reports as f64 / total as f64
        }
    }

    fn record_memo(&mut self, report: &ReportView, memo: &mut UpsertMemo) {
        let ratee = report.ratee.0;
        debug_assert!((ratee as usize) < self.n, "ratee out of range");
        match report.rater {
            Some(rater) if rater != report.ratee => {
                let cell = self.local.upsert_memo(rater.0, ratee, memo);
                cell.sum += report.value();
                cell.count += 1;
                self.identified_reports += 1;
            }
            Some(_) => {}
            None => {
                let entry = &mut self.anon[ratee as usize];
                entry.0 += report.value();
                entry.1 += 1;
                self.anonymous_reports += 1;
            }
        }
        self.dirty = true;
    }
}

impl ReputationMechanism for PowerTrust {
    fn kind(&self) -> MechanismKind {
        MechanismKind::PowerTrust
    }

    fn resize(&mut self, n: usize) {
        if n > self.n {
            self.n = n;
            self.local.resize(n);
            self.anon.resize(n, (0.0, 0));
            self.opinion.resize(n, (0.0, 0.0));
            self.global = vec![1.0 / n as f64; n];
            self.dirty = true;
        }
    }

    fn record(&mut self, report: &ReportView) {
        self.record_memo(report, &mut UpsertMemo::default());
    }

    fn record_batch(&mut self, reports: &[ReportView]) {
        // See EigenTrust::record_batch: one memo across the batch, same
        // per-cell add order as looped `record`, bit-identical scores.
        let mut memo = UpsertMemo::default();
        for report in reports {
            self.record_memo(report, &mut memo);
        }
    }

    fn refresh(&mut self) -> usize {
        // Both passes restart from their teleport vectors, so a clean
        // instance's caches already hold what a recompute would give
        // (see `EigenTrust::refresh`).
        if self.dirty {
            self.recompute();
        }
        self.last_iterations
    }

    fn score(&self, node: NodeId) -> f64 {
        if node.index() >= self.n {
            return 0.5;
        }
        let (weighted, weight) = self.opinion[node.index()];
        let identified = if weight > 0.0 { weighted / weight } else { 0.5 };
        let w = self.blend_weight();
        let (sum, count) = self.anon[node.index()];
        let anon_mean = if count > 0 { sum / count as f64 } else { 0.5 };
        w * identified + (1.0 - w) * anon_mean
    }

    fn len(&self) -> usize {
        self.n
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
        let mut powers: Vec<u32> = m.power_nodes().iter().map(|p| p.0).collect();
        powers.sort_unstable();
        assert_eq!(powers, GOOD, "power nodes {powers:?}");
    }

    #[test]
    fn power_node_count_clamps_to_population() {
        let mut m = PowerTrust::new(3);
        feed(&mut m, 0, 1, true);
        m.refresh();
        assert_eq!(m.power_nodes().len(), 3);
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
        let bits = |m: &mut PowerTrust| {
            let scores: Vec<u64> = (0..12).map(|i| m.score(NodeId(i)).to_bits()).collect();
            (m.power_nodes().to_vec(), scores)
        };
        let iterations = m.refresh();
        let walked = bits(&mut m);
        assert_eq!(m.refresh(), iterations);
        assert_eq!(m.last_iterations(), iterations);
        assert_eq!(bits(&mut m), walked);
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

        assert_eq!(incremental.power_nodes(), scratch.power_nodes());
        for i in 0..15 {
            assert_eq!(
                incremental.score(NodeId(i)).to_bits(),
                scratch.score(NodeId(i)).to_bits(),
                "node {i}"
            );
        }
    }
}
