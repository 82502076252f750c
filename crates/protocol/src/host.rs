//! The round-driver harness shared by the protocols.
//!
//! Protocols in this crate are *synchronous-round* algorithms executed
//! over an asynchronous network: a round consists of (1) delivering
//! everything the network has in flight up to the round boundary,
//! (2) letting every alive node consume its inbox and emit new messages.
//! Messages delayed past a round boundary are simply consumed next round
//! — exactly the behaviour a periodic-timer implementation has.
//!
//! The driver is allocation-free in steady state: inboxes are swapped
//! into a resident scratch vector (never re-allocated per round), sends
//! are staged in a resident outbox, and every consumed record payload
//! returns its field buffer to the network's
//! [`BufferPool`] for the next sender.

use tsn_simnet::{
    BufferPool, DynamicsRuntime, Envelope, Network, NodeId, Payload, SimDuration, SimTime, Tag,
};

/// Aggregate protocol costs, reported by every experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolCosts {
    /// Messages sent.
    pub messages: u64,
    /// Bytes sent (simnet wire accounting).
    pub bytes: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Envelopes that were delivered but could not be parsed by the
    /// protocol (wrong tag, wrong arity, out-of-range ids) and were
    /// dropped — flagged via [`Outbox::mark_malformed`], counted by the
    /// driver. Zero on a clean network — the protocol test suites
    /// assert exactly that.
    pub malformed: u64,
}

/// Staging area handed to the per-node step closure: queues outgoing
/// messages and hands out pooled field buffers for building them.
#[derive(Debug)]
pub struct Outbox<'a> {
    pool: &'a mut BufferPool,
    sends: &'a mut Vec<(NodeId, Payload)>,
    malformed: &'a mut u64,
}

impl Outbox<'_> {
    /// An empty field buffer with recycled capacity, for building a
    /// record payload. Hand it back via [`Outbox::send_record`] (or
    /// [`Outbox::release`] if the message is abandoned).
    pub fn fields(&mut self) -> Vec<f64> {
        self.pool.acquire()
    }

    /// Returns an unused buffer to the pool.
    pub fn release(&mut self, buf: Vec<f64>) {
        self.pool.release(buf);
    }

    /// Recycles a payload the protocol consumed outside the inbox path
    /// (e.g. application traffic queued for a node that died).
    pub fn recycle(&mut self, payload: Payload) {
        self.pool.recycle(payload);
    }

    /// Queues an arbitrary payload for sending at the end of the step.
    pub fn send(&mut self, to: NodeId, payload: Payload) {
        self.sends.push((to, payload));
    }

    /// Queues a tagged record built from a (typically pooled) buffer.
    pub fn send_record(&mut self, to: NodeId, tag: Tag, fields: Vec<f64>) {
        self.sends.push((to, Payload::Record { tag, fields }));
    }

    /// Flags one delivered envelope as unparseable. The driver owns the
    /// counter and reports it through [`ProtocolCosts::malformed`], so
    /// every protocol on this driver gets accurate accounting for free.
    pub fn mark_malformed(&mut self) {
        *self.malformed += 1;
    }
}

/// Drives a protocol in fixed-length rounds over a [`Network`].
#[derive(Debug)]
pub struct RoundDriver {
    network: Network,
    now: SimTime,
    round_length: SimDuration,
    rounds_run: u64,
    /// Envelopes the protocol flagged via [`Outbox::mark_malformed`].
    malformed: u64,
    /// Resident inbox scratch: ping-pongs with each node's mailbox.
    inbox: Vec<Envelope>,
    /// Resident send staging, drained into the network after each step.
    sends: Vec<(NodeId, Payload)>,
    /// Optional dynamics executor, stepped between rounds.
    dynamics: Option<DynamicsRuntime>,
}

impl RoundDriver {
    /// Wraps a network; `round_length` must exceed the typical one-way
    /// latency or most traffic arrives a round late (allowed, but slow).
    pub fn new(network: Network, round_length: SimDuration) -> Self {
        RoundDriver {
            network,
            now: SimTime::ZERO,
            round_length,
            rounds_run: 0,
            malformed: 0,
            inbox: Vec::new(),
            sends: Vec::new(),
            dynamics: None,
        }
    }

    /// Attaches a dynamics runtime: its initial state (initially-offline
    /// nodes, an already-active partition window) is installed
    /// immediately, and every subsequent [`RoundDriver::round`] executes
    /// the scheduled churn transitions and partition swaps *before*
    /// delivering the round's traffic — transitions interleave with
    /// deliveries at their exact event times. Read the applied
    /// transitions after each round via
    /// [`RoundDriver::dynamics`]`.events()`; the next round clears
    /// them, so the buffer never outgrows one round.
    ///
    /// # Panics
    ///
    /// Panics if the runtime's node count differs from the network's.
    pub fn attach_dynamics(&mut self, mut dynamics: DynamicsRuntime) {
        dynamics.install(&mut self.network);
        self.dynamics = Some(dynamics);
    }

    /// The attached dynamics runtime, if any (availability, partition
    /// health, identity mapping).
    pub fn dynamics(&self) -> Option<&DynamicsRuntime> {
        self.dynamics.as_ref()
    }

    /// The simulated clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to the network (stats, liveness).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access (e.g. to kill nodes between rounds).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Rounds executed so far.
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Executes one round: advances the clock by the round length,
    /// delivers in-flight traffic, then calls `step` once per *alive*
    /// node with its drained inbox (borrowed, not owned — the driver
    /// recycles the envelopes afterwards), a read-only network view
    /// (liveness checks), and an [`Outbox`] for the messages to send.
    pub fn round<F>(&mut self, mut step: F)
    where
        F: FnMut(NodeId, &[Envelope], &Network, &mut Outbox<'_>),
    {
        self.now += self.round_length;
        if let Some(dynamics) = self.dynamics.as_mut() {
            // Last round's events expire here, so the buffer stays
            // bounded by one round even when nobody reads it.
            dynamics.clear_events();
            dynamics.advance(&mut self.network, self.now);
        }
        self.network.advance_to(self.now);
        let n = self.network.node_count();
        for i in 0..n {
            let node = NodeId::from_index(i);
            if !self.network.is_alive(node) {
                continue;
            }
            self.network.swap_inbox(node, &mut self.inbox);
            // The pool steps out of the network for the duration of the
            // step so the closure can hold `&Network` alongside it.
            let mut pool = std::mem::take(self.network.pool_mut());
            {
                let mut outbox = Outbox {
                    pool: &mut pool,
                    sends: &mut self.sends,
                    malformed: &mut self.malformed,
                };
                step(node, &self.inbox, &self.network, &mut outbox);
            }
            *self.network.pool_mut() = pool;
            for (to, payload) in self.sends.drain(..) {
                self.network.send(node, to, payload);
            }
            let pool = self.network.pool_mut();
            for envelope in self.inbox.drain(..) {
                pool.recycle(envelope.payload);
            }
        }
        self.rounds_run += 1;
    }

    /// Cost summary from the network counters plus the driver-owned
    /// malformed count.
    pub fn costs(&self) -> ProtocolCosts {
        let stats = self.network.stats();
        ProtocolCosts {
            messages: stats.sent,
            bytes: stats.bytes_sent,
            rounds: self.rounds_run,
            malformed: self.malformed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_simnet::{latency::ConstantLatency, NetworkConfig, Payload, SimRng};

    fn driver(nodes: usize) -> RoundDriver {
        let config = NetworkConfig {
            latency: Box::new(ConstantLatency(SimDuration::from_millis(10))),
            loss: Box::new(tsn_simnet::NoLoss),
        };
        let mut network = Network::new(config, SimRng::seed_from_u64(0));
        for _ in 0..nodes {
            network.add_node();
        }
        RoundDriver::new(network, SimDuration::from_millis(100))
    }

    #[test]
    fn round_delivers_previous_round_traffic() {
        let mut d = driver(2);
        let mut received = Vec::new();
        // Round 1: node 0 sends to node 1; nothing delivered yet.
        d.round(|node, inbox, _, out| {
            received.extend(inbox.iter().map(|e| (node, e.from)));
            if node == NodeId(0) {
                out.send(NodeId(1), Payload::from("ping"));
            }
        });
        assert!(received.is_empty());
        // Round 2: the ping arrives.
        d.round(|node, inbox, _, _| {
            received.extend(inbox.iter().map(|e| (node, e.from)));
        });
        assert_eq!(received, vec![(NodeId(1), NodeId(0))]);
        assert_eq!(d.rounds_run(), 2);
    }

    #[test]
    fn dead_nodes_do_not_step() {
        let mut d = driver(3);
        d.network_mut().set_alive(NodeId(1), false);
        let mut stepped = Vec::new();
        d.round(|node, _, _, _| stepped.push(node));
        assert_eq!(stepped, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn costs_track_network_counters() {
        let mut d = driver(2);
        d.round(|node, _, _, out| {
            if node == NodeId(0) {
                out.send(NodeId(1), Payload::from("x"));
            }
        });
        let costs = d.costs();
        assert_eq!(costs.messages, 1);
        assert!(costs.bytes > 0);
        assert_eq!(costs.rounds, 1);
        assert_eq!(costs.malformed, 0);
    }

    #[test]
    fn clock_advances_per_round() {
        let mut d = driver(1);
        d.round(|_, _, _, _| {});
        d.round(|_, _, _, _| {});
        assert_eq!(d.now(), SimTime::from_millis(200));
    }

    #[test]
    fn consumed_record_buffers_return_to_the_pool() {
        let mut d = driver(2);
        const T: Tag = Tag::new("test.ping");
        for _ in 0..4 {
            d.round(|node, _, _, out| {
                if node == NodeId(0) {
                    let mut fields = out.fields();
                    fields.extend([1.0, 2.0, 3.0]);
                    out.send_record(NodeId(1), T, fields);
                }
            });
        }
        // The first round allocates the one buffer in flight; every
        // later round reuses it after the receiver's inbox is drained.
        let pool = d.network().pool();
        assert!(pool.reuses() >= 2, "reuses: {}", pool.reuses());
        assert!(
            pool.fresh_allocations() <= 2,
            "fresh: {}",
            pool.fresh_allocations()
        );
    }

    #[test]
    fn dynamics_kill_and_revive_nodes_between_rounds() {
        use tsn_simnet::{dynamics::DynamicsPlan, ChurnConfig, SimRng};
        let mut d = driver(10);
        let plan = DynamicsPlan {
            churn: Some(ChurnConfig {
                mean_session: SimDuration::from_millis(300),
                mean_downtime: SimDuration::from_millis(200),
                whitewash_probability: 0.0,
                crash_fraction: 0.5,
            }),
            ..Default::default()
        };
        let runtime = tsn_simnet::DynamicsRuntime::new(plan, 10, SimRng::seed_from_u64(42))
            .expect("valid plan");
        d.attach_dynamics(runtime);
        let mut stepped_dead = 0u64;
        let mut transitions = 0usize;
        for _ in 0..50 {
            d.round(|node, _, network, _| {
                // The driver only steps alive nodes.
                if !network.is_alive(node) {
                    stepped_dead += 1;
                }
            });
            transitions += d.dynamics().map_or(0, |dynamics| dynamics.events().len());
        }
        assert_eq!(stepped_dead, 0);
        assert!(transitions > 0, "300ms sessions churn over 5s");
        let availability = d.dynamics().expect("attached").availability();
        assert!((0.0..=1.0).contains(&availability));
    }

    #[test]
    fn dynamics_partition_window_drops_cross_traffic_mid_run() {
        use tsn_simnet::dynamics::DynamicsPlan;
        use tsn_simnet::SimRng;
        let mut d = driver(4);
        // Rounds are 100ms; the split covers rounds 3..=5.
        let plan =
            DynamicsPlan::split_then_heal(SimTime::from_millis(250), SimTime::from_millis(550));
        let runtime =
            tsn_simnet::DynamicsRuntime::new(plan, 4, SimRng::seed_from_u64(1)).expect("valid");
        d.attach_dynamics(runtime);
        let mut received_from_0 = Vec::new();
        for round in 0..10 {
            d.round(|node, inbox, _, out| {
                if node == NodeId(3) {
                    received_from_0
                        .extend(inbox.iter().filter(|e| e.from == NodeId(0)).map(|_| round));
                }
                if node == NodeId(0) {
                    out.send(NodeId(3), Payload::from("tick"));
                }
            });
        }
        // Sends from rounds 0,1 arrive in rounds 1,2; sends from rounds
        // 2..=4 fall in the window and are lost; the heal lets sends
        // from round 5 on arrive again one round later.
        assert_eq!(received_from_0, vec![1, 2, 6, 7, 8, 9]);
    }

    #[test]
    fn network_liveness_is_visible_inside_the_step() {
        let mut d = driver(3);
        d.network_mut().set_alive(NodeId(2), false);
        let mut seen = Vec::new();
        d.round(|node, _, network, _| {
            seen.push((node, network.is_alive(NodeId(2))));
        });
        assert_eq!(seen, vec![(NodeId(0), false), (NodeId(1), false)]);
    }
}
