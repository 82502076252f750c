//! DHT-style score managers — EigenTrust/PowerTrust's distribution
//! strategy as a protocol.
//!
//! Each subject's evidence lives at `k` deterministic *manager replicas*
//! (in a real deployment, the k DHT nodes closest to `hash(subject)`),
//! placed at hashed offsets over the global id space.
//! Raters send reports to all replicas; a consumer queries the replicas
//! and averages the answers it receives. Replication hides individual
//! manager crashes; losing every replica of a subject loses its history.
//!
//! Storage is sparse and sorted: shards and collected answers live in
//! per-owner rows of subject-sorted entries (binary search + in-place
//! insert, the same idiom as the reputation crate's `LocalMatrix`) —
//! memory proportional to traffic, no hashing, and (unlike the
//! `HashMap` layout it replaced) a fixed iteration order, so reports
//! are bit-identical across processes. Queued application traffic is
//! flushed through a sender-sorted cursor instead of a per-round
//! `HashMap` outbox.

use crate::host::{ProtocolCosts, RoundDriver};
use tsn_simnet::{
    DynamicsEvent, DynamicsPlan, DynamicsRuntime, Envelope, Network, NodeId, Payload, SimDuration,
    SimRng, Tag,
};

/// Message tags of the manager protocol.
const MGR_REPORT: Tag = Tag::new("mgr.report");
const MGR_QUERY: Tag = Tag::new("mgr.query");
const MGR_ANSWER: Tag = Tag::new("mgr.answer");

/// Manager-protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerConfig {
    /// Replicas per subject.
    pub replicas: usize,
    /// Length of one protocol round.
    pub round_length: SimDuration,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            replicas: 3,
            round_length: SimDuration::from_millis(100),
        }
    }
}

/// Estimate quality snapshot (see [`ManagerNetwork::report`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerReport {
    /// Mean absolute error of answered queries vs the oracle.
    pub mean_error: f64,
    /// Fraction of queries that received at least one answer.
    pub answer_rate: f64,
    /// Protocol costs so far.
    pub costs: ProtocolCosts,
}

/// Per-manager storage for one subject: evidence accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct Shard {
    sum: f64,
    count: f64,
}

/// Sparse row-major storage: one subject-sorted row per owner.
/// Lookups are a binary search, iteration is ascending
/// `(owner, subject)` — deterministic — and memory tracks the number
/// of distinct `(owner, subject)` pairs actually touched, never `n²`.
#[derive(Debug)]
struct SparseRows<T> {
    rows: Vec<Vec<(u32, T)>>,
}

impl<T: Default> SparseRows<T> {
    fn new(owners: usize) -> Self {
        let mut rows = Vec::new();
        rows.resize_with(owners, Vec::new);
        SparseRows { rows }
    }

    /// The entry for `(owner, key)`, created at its sorted position on
    /// first touch.
    fn entry(&mut self, owner: usize, key: u32) -> &mut T {
        let row = &mut self.rows[owner];
        let at = match row.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(at) => at,
            Err(at) => {
                row.insert(at, (key, T::default()));
                at
            }
        };
        &mut row[at].1
    }

    fn get(&self, owner: usize, key: u32) -> Option<&T> {
        // `None` for unknown owners too, matching the HashMap lookup
        // this replaced (public queries may probe arbitrary ids).
        let row = self.rows.get(owner)?;
        row.binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|at| &row[at].1)
    }

    /// All entries in ascending `(owner, key)` order.
    fn iter(&self) -> impl Iterator<Item = (u32, &T)> + '_ {
        self.rows
            .iter()
            .flat_map(|row| row.iter().map(|(k, v)| (*k, v)))
    }

    /// Removes `key` from every owner's row (whitewash forgetting).
    fn remove_key(&mut self, key: u32) {
        for row in &mut self.rows {
            if let Ok(at) = row.binary_search_by_key(&key, |(k, _)| *k) {
                row.remove(at);
            }
        }
    }
}

/// The score-manager protocol instance.
#[derive(Debug)]
pub struct ManagerNetwork {
    config: ManagerConfig,
    driver: RoundDriver,
    n: usize,
    /// Evidence shards, one subject-sorted row per manager.
    stores: SparseRows<Shard>,
    /// Outbound work queued by the application between rounds. Flushed
    /// once per round through a stable sender sort; `None` marks an
    /// entry already handed to the network.
    pending: Vec<(NodeId, NodeId, Option<Payload>)>,
    /// Collected answers, one subject-sorted row per requester: running
    /// (sum, count) — the mean is all the protocol ever reads.
    answers: SparseRows<(f64, f64)>,
    /// Queries issued: (requester, subject).
    queries_issued: u64,
    /// Ground truth totals per subject.
    truth: Vec<(f64, f64)>,
}

impl ManagerNetwork {
    /// Builds the protocol over an `n`-node network.
    ///
    /// # Panics
    ///
    /// Panics if `config.replicas` is zero or exceeds the node count.
    pub fn new(network: Network, config: ManagerConfig) -> Self {
        let n = network.node_count();
        assert!(config.replicas > 0, "replicas must be positive");
        assert!(config.replicas <= n, "more replicas than nodes");
        ManagerNetwork {
            config,
            driver: RoundDriver::new(network, config.round_length),
            n,
            stores: SparseRows::new(n),
            pending: Vec::new(),
            answers: SparseRows::new(n),
            queries_issued: 0,
            truth: vec![(0.0, 0.0); n],
        }
    }

    /// The single source of replica placement: a splitmix-style hash
    /// spreads subjects across the id space, then the `k` replicas are
    /// consecutive offsets — matching "k closest nodes" in a real DHT.
    /// The iterator owns its values, so callers may keep mutating
    /// `self` while iterating.
    fn replica_ids(&self, subject: NodeId) -> impl Iterator<Item = NodeId> {
        let mut x = (u64::from(subject.0) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 31;
        let n = self.n;
        let base = (x % n as u64) as usize;
        (0..self.config.replicas).map(move |j| NodeId::from_index((base + j * 7 + j) % n))
    }

    /// The deterministic manager replica set of `subject`.
    pub fn managers(&self, subject: NodeId) -> Vec<NodeId> {
        self.replica_ids(subject).collect()
    }

    /// Queues a report from `rater` about `subject`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside `[0, 1]`.
    pub fn submit_report(&mut self, rater: NodeId, subject: NodeId, value: f64) {
        assert!((0.0..=1.0).contains(&value), "value must be in [0,1]");
        self.truth[subject.index()].0 += value;
        self.truth[subject.index()].1 += 1.0;
        for manager in self.replica_ids(subject) {
            let mut fields = self.driver.network_mut().pool_mut().acquire();
            fields.extend([f64::from(subject.0), value]);
            self.pending.push((
                rater,
                manager,
                Some(Payload::Record {
                    tag: MGR_REPORT,
                    fields,
                }),
            ));
        }
    }

    /// Queues a score query from `requester` about `subject`.
    pub fn submit_query(&mut self, requester: NodeId, subject: NodeId) {
        self.queries_issued += 1;
        for manager in self.replica_ids(subject) {
            let mut fields = self.driver.network_mut().pool_mut().acquire();
            fields.push(f64::from(subject.0));
            self.pending.push((
                requester,
                manager,
                Some(Payload::Record {
                    tag: MGR_QUERY,
                    fields,
                }),
            ));
        }
    }

    /// Attaches a dynamics plan (churn, partitions, outages) executed on
    /// the driver's clock between rounds.
    ///
    /// Manager *state* survives crash/rejoin cycles (a real node keeps
    /// its disk across restarts); only traffic is affected while a
    /// replica is down. A *whitewash* instead resets the re-entering
    /// identity's reputation: every shard and collected answer about the
    /// whitewashed subject is forgotten, so its next queries answer from
    /// the prior — reset, not inherited.
    ///
    /// # Errors
    ///
    /// Returns the plan's validation error, if any.
    pub fn attach_dynamics(&mut self, plan: DynamicsPlan, rng: SimRng) -> Result<(), String> {
        let runtime = DynamicsRuntime::new(plan, self.n, rng)?;
        self.driver.attach_dynamics(runtime);
        Ok(())
    }

    /// The attached dynamics runtime, if any.
    pub fn dynamics(&self) -> Option<&DynamicsRuntime> {
        self.driver.dynamics()
    }

    /// Executes one protocol round: flushes queued application traffic,
    /// then processes whatever arrived (reports stored, queries answered,
    /// answers collected).
    pub fn round(&mut self) {
        let ManagerNetwork {
            driver,
            stores,
            pending,
            answers,
            n,
            ..
        } = self;
        let n = *n;
        // Stable sort by sender: the driver steps nodes in index order,
        // so a moving cursor hands each node its queued traffic in
        // submission order — no per-round HashMap.
        pending.sort_by_key(|(from, _, _)| from.index());
        let mut cursor = 0usize;
        driver.round(|node, inbox, _network, out| {
            while cursor < pending.len() {
                let (from, to, ref mut payload) = pending[cursor];
                if from.index() > node.index() {
                    break;
                }
                cursor += 1;
                let Some(payload) = payload.take() else {
                    continue;
                };
                if from == node {
                    out.send(to, payload);
                } else {
                    // Queued by a node the driver skipped (crashed
                    // before the flush): dropped, buffer recycled.
                    out.recycle(payload);
                }
            }
            for envelope in inbox {
                match classify(envelope, n) {
                    Some(Msg::Report { subject, value }) => {
                        let shard = stores.entry(node.index(), subject);
                        shard.sum += value;
                        shard.count += 1.0;
                    }
                    Some(Msg::Query { subject }) => {
                        let shard = stores
                            .get(node.index(), subject)
                            .copied()
                            .unwrap_or_default();
                        let score = (shard.sum + 1.0) / (shard.count + 2.0);
                        let mut fields = out.fields();
                        fields.extend([f64::from(subject), score]);
                        out.send_record(envelope.from, MGR_ANSWER, fields);
                    }
                    Some(Msg::Answer { subject, score }) => {
                        let (sum, count) = answers.entry(node.index(), subject);
                        *sum += score;
                        *count += 1.0;
                    }
                    None => out.mark_malformed(),
                }
            }
        });
        // Whatever the cursor never reached was queued by trailing dead
        // nodes: drop it (matching the HashMap outbox, which discarded
        // those entries at end of round) and recycle the buffers.
        let pool = self.driver.network_mut().pool_mut();
        for (_, _, payload) in self.pending.drain(..) {
            if let Some(payload) = payload {
                pool.recycle(payload);
            }
        }
        // Whitewashed identities shed their history. Events are
        // borrowed (the driver clears them next round) and the fields
        // destructured, so no buffer is drained or allocated.
        let ManagerNetwork {
            driver,
            stores,
            answers,
            truth,
            ..
        } = self;
        if let Some(dynamics) = driver.dynamics() {
            for &(_, event) in dynamics.events() {
                if let DynamicsEvent::Whitewash { slot, .. } = event {
                    forget_subject_in(stores, answers, truth, slot);
                }
            }
        }
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.round();
        }
    }

    /// The answer `requester` holds about `subject`: the mean of replica
    /// answers, or `None` if nothing arrived (yet).
    pub fn answer(&self, requester: NodeId, subject: NodeId) -> Option<f64> {
        self.answers
            .get(requester.index(), subject.0)
            .map(|(sum, count)| sum / count)
    }

    /// The oracle score a centralized aggregator would hold.
    pub fn oracle(&self, subject: NodeId) -> f64 {
        let (sum, count) = self.truth[subject.index()];
        (sum + 1.0) / (count + 2.0)
    }

    /// Quality snapshot across all collected answers, accumulated in
    /// fixed `(requester, subject)` order (deterministic floats).
    pub fn report(&self) -> ManagerReport {
        let mut total_error = 0.0;
        let mut answered_subjects = 0u64;
        for (subject, (sum, count)) in self.answers.iter() {
            let mean_answer = sum / count;
            total_error += (mean_answer - self.oracle(NodeId(subject))).abs();
            answered_subjects += 1;
        }
        let costs = self.driver.costs();
        ManagerReport {
            mean_error: if answered_subjects == 0 {
                0.0
            } else {
                total_error / answered_subjects as f64
            },
            answer_rate: if self.queries_issued == 0 {
                0.0
            } else {
                answered_subjects as f64 / self.queries_issued as f64
            },
            costs,
        }
    }

    /// Mutable network access (crash injection).
    pub fn network_mut(&mut self) -> &mut Network {
        self.driver.network_mut()
    }
}

/// Forgets every stored shard, collected answer and ground-truth entry
/// about `subject` — the whitewash semantics: a fresh identity starts
/// from the prior. `round()` calls it on each drained whitewash event,
/// over its destructured fields.
fn forget_subject_in(
    stores: &mut SparseRows<Shard>,
    answers: &mut SparseRows<(f64, f64)>,
    truth: &mut [(f64, f64)],
    subject: NodeId,
) {
    stores.remove_key(subject.0);
    answers.remove_key(subject.0);
    truth[subject.index()] = (0.0, 0.0);
}

enum Msg {
    Report { subject: u32, value: f64 },
    Query { subject: u32 },
    Answer { subject: u32, score: f64 },
}

/// Parses a manager envelope; `None` (malformed) covers unknown tags,
/// wrong arity, subject ids outside `0..n`, and values/scores outside
/// `[0, 1]` (including NaN) — junk must never reach an accumulator.
fn classify(envelope: &Envelope, n: usize) -> Option<Msg> {
    let Payload::Record { tag, fields } = &envelope.payload else {
        return None;
    };
    let subject_in_range = |s: f64| s >= 0.0 && (s as usize) < n && s.fract() == 0.0;
    let unit_range = |v: f64| (0.0..=1.0).contains(&v);
    match fields.as_slice() {
        [subject, value]
            if *tag == MGR_REPORT && subject_in_range(*subject) && unit_range(*value) =>
        {
            Some(Msg::Report {
                subject: *subject as u32,
                value: *value,
            })
        }
        [subject] if *tag == MGR_QUERY && subject_in_range(*subject) => Some(Msg::Query {
            subject: *subject as u32,
        }),
        [subject, score]
            if *tag == MGR_ANSWER && subject_in_range(*subject) && unit_range(*score) =>
        {
            Some(Msg::Answer {
                subject: *subject as u32,
                score: *score,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_simnet::{latency::ConstantLatency, BernoulliLoss, NetworkConfig, NoLoss, SimRng};

    fn build(n: usize, replicas: usize, loss: f64, seed: u64) -> ManagerNetwork {
        let config = NetworkConfig {
            latency: Box::new(ConstantLatency(SimDuration::from_millis(10))),
            loss: if loss > 0.0 {
                Box::new(BernoulliLoss::new(loss))
            } else {
                Box::new(NoLoss)
            },
        };
        let mut network = Network::new(config, SimRng::seed_from_u64(seed));
        for _ in 0..n {
            network.add_node();
        }
        ManagerNetwork::new(
            network,
            ManagerConfig {
                replicas,
                ..Default::default()
            },
        )
    }

    #[test]
    fn managers_are_deterministic_distinct_and_replicated() {
        let m = build(20, 3, 0.0, 0);
        for subject in 0..20u32 {
            let a = m.managers(NodeId(subject));
            let b = m.managers(NodeId(subject));
            assert_eq!(a, b);
            assert_eq!(a.len(), 3);
            let mut dedup = a.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "replicas must be distinct: {a:?}");
        }
    }

    #[test]
    fn report_query_answer_matches_oracle() {
        let mut m = build(20, 3, 0.0, 1);
        for _ in 0..5 {
            m.submit_report(NodeId(1), NodeId(7), 0.8);
        }
        m.round(); // reports travel
        m.round(); // reports stored
        m.submit_query(NodeId(2), NodeId(7));
        m.run(3); // query travels, is answered, answer returns
        let answer = m.answer(NodeId(2), NodeId(7)).expect("answer arrived");
        let oracle = m.oracle(NodeId(7));
        assert!(
            (answer - oracle).abs() < 1e-9,
            "answer {answer} vs oracle {oracle}"
        );
        assert!((oracle - (0.8 * 5.0 + 1.0) / 7.0).abs() < 1e-12);
        assert_eq!(m.report().costs.malformed, 0, "clean network, clean parse");
    }

    #[test]
    fn unanswered_query_returns_none_then_some() {
        let mut m = build(10, 2, 0.0, 2);
        m.submit_query(NodeId(0), NodeId(5));
        assert_eq!(m.answer(NodeId(0), NodeId(5)), None);
        m.run(3);
        assert!(m.answer(NodeId(0), NodeId(5)).is_some());
        assert_eq!(
            m.answer(NodeId(99), NodeId(5)),
            None,
            "unknown requesters answer None, they do not panic"
        );
    }

    #[test]
    fn replica_crash_is_tolerated() {
        let mut m = build(20, 3, 0.0, 3);
        for _ in 0..4 {
            m.submit_report(NodeId(0), NodeId(9), 1.0);
        }
        m.run(2);
        // Kill one replica of subject 9.
        let victim = m.managers(NodeId(9))[0];
        m.network_mut().set_alive(victim, false);
        m.submit_query(NodeId(1), NodeId(9));
        m.run(3);
        let answer = m
            .answer(NodeId(1), NodeId(9))
            .expect("remaining replicas answer");
        assert!(answer > 0.5, "evidence survives a replica crash: {answer}");
    }

    #[test]
    fn losing_all_replicas_loses_history() {
        let mut m = build(20, 2, 0.0, 4);
        for _ in 0..6 {
            m.submit_report(NodeId(0), NodeId(3), 1.0);
        }
        m.run(2);
        for replica in m.managers(NodeId(3)) {
            m.network_mut().set_alive(replica, false);
        }
        m.submit_query(NodeId(1), NodeId(3));
        m.run(4);
        assert_eq!(
            m.answer(NodeId(1), NodeId(3)),
            None,
            "no replica left to answer"
        );
        let report = m.report();
        assert!(report.answer_rate < 1.0);
    }

    #[test]
    fn loss_reduces_answer_rate() {
        let run = |loss: f64| {
            let mut m = build(30, 2, loss, 5);
            for s in 0..30u32 {
                m.submit_report(NodeId((s + 1) % 30), NodeId(s), 0.7);
            }
            m.run(2);
            for s in 0..30u32 {
                m.submit_query(NodeId((s + 2) % 30), NodeId(s));
            }
            m.run(4);
            m.report().answer_rate
        };
        assert!(run(0.5) < run(0.0), "loss must cost answers");
        assert_eq!(run(0.0), 1.0);
    }

    #[test]
    fn costs_count_replica_fanout() {
        let mut m = build(10, 3, 0.0, 6);
        m.submit_report(NodeId(0), NodeId(1), 0.5);
        m.round();
        assert_eq!(
            m.report().costs.messages,
            3,
            "one report → replicas messages"
        );
    }

    #[test]
    fn malformed_manager_traffic_is_counted_and_ignored() {
        let mut m = build(10, 2, 0.0, 8);
        let network = m.network_mut();
        // Unknown tag, out-of-range subject, fractional subject, text,
        // NaN report value, out-of-range answer score.
        network.send(
            NodeId(1),
            NodeId(0),
            Payload::record("mgr.bogus", vec![1.0]),
        );
        network.send(
            NodeId(1),
            NodeId(0),
            Payload::record("mgr.query", vec![99.0]),
        );
        network.send(
            NodeId(1),
            NodeId(0),
            Payload::record("mgr.report", vec![1.5, 0.5]),
        );
        network.send(NodeId(1), NodeId(0), Payload::from("noise"));
        network.send(
            NodeId(1),
            NodeId(0),
            Payload::record("mgr.report", vec![2.0, f64::NAN]),
        );
        network.send(
            NodeId(1),
            NodeId(0),
            Payload::record("mgr.answer", vec![2.0, 7.5]),
        );
        m.run(2);
        let report = m.report();
        assert_eq!(report.costs.malformed, 6);
        assert_eq!(report.answer_rate, 0.0, "junk produced no answers");
        assert_eq!(
            m.answer(NodeId(0), NodeId(2)),
            None,
            "NaN and out-of-range values never reach an accumulator"
        );
    }

    #[test]
    fn pending_traffic_of_a_crashed_sender_is_dropped() {
        let mut m = build(10, 2, 0.0, 9);
        m.submit_report(NodeId(3), NodeId(1), 0.9);
        m.network_mut().set_alive(NodeId(3), false);
        m.run(3);
        let sent = m.report().costs.messages;
        assert_eq!(sent, 0, "a dead sender's queued traffic never flows");
    }

    #[test]
    #[should_panic(expected = "more replicas than nodes")]
    fn too_many_replicas_panics() {
        let _ = build(2, 3, 0.0, 7);
    }

    #[test]
    fn forget_subject_resets_to_the_prior() {
        let n = 10;
        let mut m = build(n, 2, 0.0, 12);
        for _ in 0..5 {
            m.submit_report(NodeId(1), NodeId(4), 0.9);
        }
        m.run(2);
        m.submit_query(NodeId(2), NodeId(4));
        m.run(3);
        assert!(m.answer(NodeId(2), NodeId(4)).expect("answered") > 0.7);
        forget_subject_in(&mut m.stores, &mut m.answers, &mut m.truth, NodeId(4));
        assert_eq!(m.answer(NodeId(2), NodeId(4)), None, "answers cleared");
        assert_eq!(m.oracle(NodeId(4)), 0.5, "truth reset to the prior");
        m.submit_query(NodeId(2), NodeId(4));
        m.run(3);
        let fresh = m.answer(NodeId(2), NodeId(4)).expect("re-answered");
        assert!(
            (fresh - 0.5).abs() < 1e-9,
            "shards cleared too; replicas answer the prior: {fresh}"
        );
    }

    #[test]
    fn whitewashed_identities_reenter_with_reset_reputation() {
        use tsn_simnet::ChurnConfig;
        let n = 12;
        let mut m = build(n, 2, 0.0, 10);
        // Build a strong positive history for every subject.
        for subject in 0..n as u32 {
            for _ in 0..5 {
                m.submit_report(NodeId((subject + 1) % n as u32), NodeId(subject), 0.95);
            }
        }
        m.run(3);
        m.submit_query(NodeId(0), NodeId(5));
        m.run(3);
        let before = m.answer(NodeId(0), NodeId(5)).expect("answered");
        assert!(before > 0.8, "history built: {before}");

        // Everyone whitewashes: short sessions, certain whitewash.
        let plan = DynamicsPlan {
            churn: Some(ChurnConfig {
                mean_session: SimDuration::from_millis(300),
                mean_downtime: SimDuration::from_millis(100),
                whitewash_probability: 1.0,
                crash_fraction: 0.0,
            }),
            ..Default::default()
        };
        m.attach_dynamics(plan, SimRng::seed_from_u64(11)).unwrap();
        let mut whitewashed: Option<NodeId> = None;
        for _ in 0..60 {
            m.round();
            let d = m.dynamics().expect("attached");
            if let Some(slot) = (0..n).map(NodeId::from_index).find(|&s| d.identity(s) != s) {
                whitewashed = Some(slot);
                break;
            }
        }
        let slot = whitewashed.expect("certain whitewash fired within 6s");
        // The old identity's evidence is gone everywhere: a fresh query
        // answers from the prior, not the inherited 0.95 history.
        m.submit_query(NodeId((slot.0 + 1) % n as u32), slot);
        // The requester must be online for the query to flow and the
        // answer to land; run enough rounds for a full cycle.
        for _ in 0..30 {
            m.round();
            if let Some(answer) = m.answer(NodeId((slot.0 + 1) % n as u32), slot) {
                assert!(
                    (answer - 0.5).abs() < 1e-9,
                    "whitewashed identity re-enters at the prior, got {answer}"
                );
                assert_eq!(m.oracle(slot), 0.5, "truth reset alongside");
                return;
            }
        }
        // Churn can keep the requester or replicas offline long enough
        // that no answer lands; the stored-state reset still holds.
        assert_eq!(m.oracle(slot), 0.5, "truth reset even if no answer landed");
    }
}
