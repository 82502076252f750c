//! The simulated network: message transport with latency and loss.
//!
//! The [`Network`] owns per-node mailboxes. Sending computes a delivery
//! time through the configured [`LatencyModel`] and [`LossModel`] and
//! enqueues the envelope on an internal in-flight heap; the simulation
//! driver moves messages into mailboxes as virtual time advances.

use crate::latency::{ConstantLatency, LatencyModel, LossModel, NoLoss};
use crate::message::{Envelope, MessageId, Payload};
use crate::pool::BufferPool;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Transport configuration: the latency and loss models.
#[derive(Debug)]
pub struct NetworkConfig {
    /// One-way delay model.
    pub latency: Box<dyn LatencyModel>,
    /// Drop model.
    pub loss: Box<dyn LossModel>,
}

impl Default for NetworkConfig {
    /// 10 ms constant latency, no loss — a benign LAN.
    fn default() -> Self {
        NetworkConfig {
            latency: Box::new(ConstantLatency(SimDuration::from_millis(10))),
            loss: Box::new(NoLoss),
        }
    }
}

/// Aggregate transport statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages placed in a mailbox.
    pub delivered: u64,
    /// Messages dropped by the loss model.
    pub dropped: u64,
    /// Messages addressed to a dead node at delivery time.
    pub dead_letter: u64,
    /// Total bytes handed to the network.
    pub bytes_sent: u64,
}

/// What happened to a message at send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// Scheduled for delivery at the given time.
    Scheduled(SimTime),
    /// Dropped by the loss model; it will never arrive.
    Lost,
}

struct InFlight {
    deliver_at: SimTime,
    seq: u64,
    envelope: Envelope,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, seq).
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The message transport between simulated nodes.
pub struct Network {
    config: NetworkConfig,
    rng: SimRng,
    now: SimTime,
    stats: NetworkStats,
    mailboxes: Vec<Vec<Envelope>>,
    alive: Vec<bool>,
    in_flight: BinaryHeap<InFlight>,
    next_msg: u64,
    next_seq: u64,
    pool: BufferPool,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.mailboxes.len())
            .field("in_flight", &self.in_flight.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Network {
    /// Creates a network with the given transport models and RNG fork.
    pub fn new(config: NetworkConfig, rng: SimRng) -> Self {
        Network {
            config,
            rng,
            now: SimTime::ZERO,
            stats: NetworkStats::default(),
            mailboxes: Vec::new(),
            alive: Vec::new(),
            in_flight: BinaryHeap::new(),
            next_msg: 0,
            next_seq: 0,
            pool: BufferPool::new(),
        }
    }

    /// The network-owned field-buffer pool. Protocols acquire outgoing
    /// record buffers here; the network recycles them itself whenever it
    /// consumes a payload (loss at send time, dead-letter at delivery,
    /// mailbox clearing on death).
    pub fn pool_mut(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    /// Read access to the pool (reuse statistics).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Registers a new node; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.mailboxes.len());
        self.mailboxes.push(Vec::new());
        self.alive.push(true);
        id
    }

    /// Number of registered nodes (alive or not).
    pub fn node_count(&self) -> usize {
        self.mailboxes.len()
    }

    /// Whether `node` is currently alive (receives messages).
    ///
    /// # Panics
    ///
    /// Panics if `node` was never registered.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Marks a node alive or dead. Dead nodes silently drop deliveries
    /// (dead-letter) and their mailbox is cleared on death.
    pub fn set_alive(&mut self, node: NodeId, alive: bool) {
        self.alive[node.index()] = alive;
        if !alive {
            for envelope in self.mailboxes[node.index()].drain(..) {
                self.pool.recycle(envelope.payload);
            }
        }
    }

    /// The current network clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Replaces the loss model (e.g. at a partition or heal boundary),
    /// returning the displaced model so it can be restored later.
    /// Messages already in flight keep the delivery verdicts they were
    /// given at send time.
    pub fn set_loss(&mut self, loss: Box<dyn LossModel>) -> Box<dyn LossModel> {
        std::mem::replace(&mut self.config.loss, loss)
    }

    /// Replaces the latency model (e.g. when regional topology changes),
    /// returning the displaced model. Messages already in flight keep
    /// their original delivery times.
    pub fn set_latency(&mut self, latency: Box<dyn LatencyModel>) -> Box<dyn LatencyModel> {
        std::mem::replace(&mut self.config.latency, latency)
    }

    /// Sends `payload` from `from` to `to`.
    ///
    /// Returns the message id and the outcome. Sending from or to an
    /// unregistered node panics; sending from a dead node is allowed (the
    /// higher layer decides liveness semantics at send time).
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: Payload,
    ) -> (MessageId, DeliveryOutcome) {
        assert!(
            from.index() < self.mailboxes.len(),
            "sender {from} not registered"
        );
        assert!(
            to.index() < self.mailboxes.len(),
            "recipient {to} not registered"
        );
        let id = MessageId(self.next_msg);
        self.next_msg += 1;
        let envelope = Envelope {
            id,
            from,
            to,
            sent_at: self.now,
            payload,
        };
        self.stats.sent += 1;
        self.stats.bytes_sent += envelope.wire_size() as u64;
        if self.config.loss.is_lost(from, to, &mut self.rng) {
            self.stats.dropped += 1;
            self.pool.recycle(envelope.payload);
            return (id, DeliveryOutcome::Lost);
        }
        let deliver_at = self.now + self.config.latency.delay(from, to, &mut self.rng);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.in_flight.push(InFlight {
            deliver_at,
            seq,
            envelope,
        });
        (id, DeliveryOutcome::Scheduled(deliver_at))
    }

    /// Advances the network clock to `now`, moving every message whose
    /// delivery time has arrived into its destination mailbox.
    ///
    /// The clock is monotone: a `now` earlier than the current clock is
    /// clamped to it (delivering anything already due) instead of
    /// silently rewinding time — a rewound clock would let subsequent
    /// sends schedule deliveries in the past.
    ///
    /// Returns the number of messages delivered.
    pub fn advance_to(&mut self, now: SimTime) -> usize {
        let now = now.max(self.now);
        self.now = now;
        let mut delivered = 0;
        while let Some(top) = self.in_flight.peek() {
            if top.deliver_at > now {
                break;
            }
            // tsn-lint: allow(no-unwrap, "pop directly follows a successful peek on the same queue within one &mut borrow")
            let msg = self.in_flight.pop().expect("peeked entry exists").envelope;
            if self.alive[msg.to.index()] {
                self.mailboxes[msg.to.index()].push(msg);
                self.stats.delivered += 1;
                delivered += 1;
            } else {
                self.stats.dead_letter += 1;
                self.pool.recycle(msg.payload);
            }
        }
        delivered
    }

    /// Swaps the mailbox of `node` with `scratch` (which must be empty):
    /// the caller gets the pending envelopes, the mailbox inherits the
    /// scratch buffer's capacity, so per-round loops allocate nothing.
    pub fn swap_inbox(&mut self, node: NodeId, scratch: &mut Vec<Envelope>) {
        debug_assert!(scratch.is_empty(), "swap_inbox scratch must be drained");
        std::mem::swap(&mut self.mailboxes[node.index()], scratch);
    }

    /// Number of messages waiting in `node`'s mailbox.
    pub fn inbox_len(&self, node: NodeId) -> usize {
        self.mailboxes[node.index()].len()
    }

    /// Transport statistics so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Messages still in flight.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::BernoulliLoss;

    fn lan() -> Network {
        Network::new(NetworkConfig::default(), SimRng::seed_from_u64(0))
    }

    #[test]
    fn send_and_deliver() {
        let mut net = lan();
        let a = net.add_node();
        let b = net.add_node();
        let (_, outcome) = net.send(a, b, "hi".into());
        assert_eq!(
            outcome,
            DeliveryOutcome::Scheduled(SimTime::from_millis(10))
        );
        assert_eq!(net.inbox_len(b), 0);
        assert_eq!(net.advance_to(SimTime::from_millis(10)), 1);
        let mut inbox = Vec::new();
        net.swap_inbox(b, &mut inbox);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].from, a);
        assert_eq!(inbox[0].payload, Payload::from("hi"));
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn delivery_waits_for_latency() {
        let mut net = lan();
        let a = net.add_node();
        let b = net.add_node();
        net.send(a, b, "x".into());
        assert_eq!(net.advance_to(SimTime::from_millis(9)), 0);
        assert_eq!(net.in_flight_len(), 1);
        assert_eq!(net.advance_to(SimTime::from_millis(10)), 1);
        assert_eq!(net.in_flight_len(), 0);
    }

    #[test]
    fn dead_node_dead_letters() {
        let mut net = lan();
        let a = net.add_node();
        let b = net.add_node();
        net.send(a, b, "x".into());
        net.set_alive(b, false);
        assert_eq!(net.advance_to(SimTime::from_secs(1)), 0);
        assert_eq!(net.stats().dead_letter, 1);
        assert_eq!(net.inbox_len(b), 0);
    }

    #[test]
    fn death_clears_mailbox() {
        let mut net = lan();
        let a = net.add_node();
        let b = net.add_node();
        net.send(a, b, "x".into());
        net.advance_to(SimTime::from_secs(1));
        assert_eq!(net.inbox_len(b), 1);
        net.set_alive(b, false);
        assert_eq!(net.inbox_len(b), 0);
    }

    #[test]
    fn lossy_network_drops() {
        let config = NetworkConfig {
            latency: Box::new(ConstantLatency(SimDuration::from_millis(1))),
            loss: Box::new(BernoulliLoss::new(1.0)),
        };
        let mut net = Network::new(config, SimRng::seed_from_u64(1));
        let a = net.add_node();
        let b = net.add_node();
        let (_, outcome) = net.send(a, b, "x".into());
        assert_eq!(outcome, DeliveryOutcome::Lost);
        assert_eq!(net.stats().dropped, 1);
        assert_eq!(net.advance_to(SimTime::from_secs(1)), 0);
    }

    #[test]
    fn message_ids_are_unique_and_ordered() {
        let mut net = lan();
        let a = net.add_node();
        let b = net.add_node();
        let (id1, _) = net.send(a, b, "1".into());
        let (id2, _) = net.send(a, b, "2".into());
        assert!(id1 < id2);
    }

    #[test]
    fn same_time_deliveries_preserve_send_order() {
        let mut net = lan();
        let a = net.add_node();
        let b = net.add_node();
        net.send(a, b, "first".into());
        net.send(a, b, "second".into());
        net.advance_to(SimTime::from_millis(10));
        let mut inbox = Vec::new();
        net.swap_inbox(b, &mut inbox);
        assert_eq!(inbox[0].payload, Payload::from("first"));
        assert_eq!(inbox[1].payload, Payload::from("second"));
    }

    #[test]
    fn bytes_accounting() {
        let mut net = lan();
        let a = net.add_node();
        let b = net.add_node();
        net.send(a, b, "abcd".into());
        assert_eq!(net.stats().bytes_sent, 52);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn sending_to_unregistered_panics() {
        let mut net = lan();
        let a = net.add_node();
        net.send(a, NodeId(42), "x".into());
    }

    #[test]
    fn advance_to_never_rewinds_the_clock() {
        // Regression: `advance_to` used to set `now` unconditionally, so
        // a caller passing an earlier time silently rewound the clock and
        // subsequent sends scheduled deliveries in the past.
        let mut net = lan();
        let a = net.add_node();
        let b = net.add_node();
        net.advance_to(SimTime::from_secs(10));
        assert_eq!(net.now(), SimTime::from_secs(10));
        // An earlier target is clamped, not honoured.
        net.advance_to(SimTime::from_secs(3));
        assert_eq!(net.now(), SimTime::from_secs(10));
        // A send after the attempted rewind still schedules in the future
        // relative to the real clock.
        let (_, outcome) = net.send(a, b, "x".into());
        assert_eq!(
            outcome,
            DeliveryOutcome::Scheduled(SimTime::from_secs(10) + SimDuration::from_millis(10))
        );
        // Clamped advances still deliver anything already due.
        assert_eq!(net.advance_to(SimTime::ZERO), 0);
        net.advance_to(SimTime::from_secs(11));
        assert_eq!(net.inbox_len(b), 1);
    }

    #[test]
    fn loss_and_latency_models_swap_at_runtime() {
        let mut net = lan();
        let a = net.add_node();
        let b = net.add_node();
        // Swap in a total-loss model: new sends are dropped.
        let previous = net.set_loss(Box::new(BernoulliLoss::new(1.0)));
        let (_, outcome) = net.send(a, b, "dropped".into());
        assert_eq!(outcome, DeliveryOutcome::Lost);
        // Restore the displaced model: traffic flows again.
        net.set_loss(previous);
        let (_, outcome) = net.send(a, b, "kept".into());
        assert!(matches!(outcome, DeliveryOutcome::Scheduled(_)));
        // Latency swaps only affect messages sent afterwards.
        net.set_latency(Box::new(ConstantLatency(SimDuration::from_millis(500))));
        let (_, outcome) = net.send(a, b, "slow".into());
        assert_eq!(
            outcome,
            DeliveryOutcome::Scheduled(SimTime::from_millis(500))
        );
    }

    #[test]
    fn message_in_flight_survives_a_die_revive_cycle() {
        // Aliveness is checked at *delivery* time: a message sent while
        // the recipient was up, crossing a death + revival, is delivered
        // if the node is back before `deliver_at`.
        let mut net = lan();
        let a = net.add_node();
        let b = net.add_node();
        net.send(a, b, "survivor".into());
        net.set_alive(b, false);
        net.set_alive(b, true);
        assert_eq!(net.advance_to(SimTime::from_millis(10)), 1);
        assert_eq!(net.inbox_len(b), 1);
        assert_eq!(net.stats().dead_letter, 0);
    }

    #[test]
    fn message_in_flight_to_a_dead_node_dead_letters_even_after_later_revival() {
        let mut net = lan();
        let a = net.add_node();
        let b = net.add_node();
        net.send(a, b, "late".into());
        net.set_alive(b, false);
        // The delivery instant passes while b is down.
        net.advance_to(SimTime::from_millis(10));
        net.set_alive(b, true);
        net.advance_to(SimTime::from_secs(1));
        assert_eq!(net.inbox_len(b), 0);
        assert_eq!(net.stats().dead_letter, 1);
    }
}
