//! The dynamics layer: churn, partitions and outages as one executable
//! plan.
//!
//! The [`churn`](crate::churn) and [`partition`](crate::partition)
//! modules define the *parameters* of a realistic decentralized
//! substrate — session-based joins/leaves/crashes, whitewashing
//! re-joins, clean splits. A [`DynamicsPlan`] composes them into a
//! declarative schedule and a [`DynamicsRuntime`] — the one
//! churn executor of the workspace — samples and *executes* it against
//! a [`Network`] on the simulation clock: churn transitions interleave
//! with message delivery at their exact event times, whitewash
//! re-joins allocate fresh identities, and loss models swap at
//! partition/heal boundaries. Regional latency is not part of the plan:
//! it is a transport setting, a [`RegionalLatency`] in the
//! [`NetworkConfig`] the network is built with.
//!
//! [`RegionalLatency`]: crate::RegionalLatency
//! [`NetworkConfig`]: crate::NetworkConfig
//!
//! Two execution modes share the same schedule:
//!
//! * [`DynamicsRuntime::advance`] drives a real [`Network`]
//!   (`set_alive`, loss swaps) — the protocol round driver uses
//!   this;
//! * [`DynamicsRuntime::advance_detached`] updates only the abstract
//!   state (online flags, identities, active partition) — the scenario
//!   engine, which has no transport, uses this.
//!
//! Every transition applied is recorded as a timestamped
//! [`DynamicsEvent`]; higher layers drain those to react (e.g. reset
//! the reputation state of a whitewashed identity).

use crate::churn::ChurnConfig;
use crate::network::Network;
use crate::partition::{GroupMap, PartitionedLoss, MAX_GROUPS};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduled partition: between `start` and `end` the network's loss
/// model is replaced by a [`PartitionedLoss`] over `groups` contiguous
/// groups; at `end` the displaced model is restored (the heal).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionWindow {
    /// When the split begins.
    pub start: SimTime,
    /// When the split heals ([`SimTime::MAX`] = never).
    pub end: SimTime,
    /// Number of contiguous groups the population splits into.
    pub groups: usize,
    /// Loss probability for cross-group messages (1.0 = clean split).
    pub cross_loss: f64,
    /// Loss probability for intra-group messages.
    pub intra_loss: f64,
}

impl PartitionWindow {
    /// A clean split into `groups` groups over `[start, end)`.
    pub fn full_split(start: SimTime, end: SimTime, groups: usize) -> Self {
        PartitionWindow {
            start,
            end,
            groups,
            cross_loss: 1.0,
            intra_loss: 0.0,
        }
    }

    /// Validates a schedule of windows: each splits into 2 to 65,536
    /// groups, ends after it starts and has both loss probabilities in
    /// `[0, 1]` (NaN rejected); the windows are chronological and
    /// non-overlapping. The one rule set for every layer that takes a
    /// window list ([`DynamicsPlan::partitions`], the service config).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid window.
    pub fn validate_schedule(windows: &[PartitionWindow]) -> Result<(), String> {
        let mut previous_end = SimTime::ZERO;
        for (i, window) in windows.iter().enumerate() {
            window
                .validate()
                .map_err(|e| format!("partition {i}: {e}"))?;
            if window.start < previous_end {
                return Err(format!(
                    "partition {i} overlaps its predecessor \
                     (windows must be sorted and non-overlapping)"
                ));
            }
            previous_end = window.end;
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), String> {
        if !(2..=MAX_GROUPS).contains(&self.groups) {
            return Err(format!(
                "partition window needs at least 2 groups and at most {MAX_GROUPS} groups, got {}",
                self.groups
            ));
        }
        if self.end <= self.start {
            return Err("partition window must end after it starts".into());
        }
        if !(0.0..=1.0).contains(&self.cross_loss) {
            return Err("cross_loss must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.intra_loss) {
            return Err("intra_loss must be in [0,1]".into());
        }
        Ok(())
    }
}

/// A scheduled, targeted downtime window: `node` crashes at `start`
/// and rejoins at `end` ([`SimTime::MAX`] = never), regardless of its
/// churn state. The primitive behind maintenance windows and the
/// [`DynamicsPlan::relay_outage`] preset — unlike churn, it names its
/// victim, so experiments can kill *specific* infrastructure (relay /
/// bootstrap slots) instead of a random sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// The slot forced offline.
    pub node: NodeId,
    /// When the outage begins.
    pub start: SimTime,
    /// When the node rejoins ([`SimTime::MAX`] = never).
    pub end: SimTime,
}

impl OutageWindow {
    fn validate(&self) -> Result<(), String> {
        if self.end <= self.start {
            return Err("outage window must end after it starts".into());
        }
        Ok(())
    }
}

/// The full dynamics schedule of one experiment.
///
/// The default plan is *static* (no churn, no partitions, no outages):
/// attaching it is a no-op, and every layer above guarantees that a
/// static plan leaves outcomes bit-identical to running with no plan at
/// all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynamicsPlan {
    /// Session-based churn (`None` = the population never churns).
    pub churn: Option<ChurnConfig>,
    /// Fraction of nodes that start offline (they join once their first
    /// sampled downtime elapses — the flash-crowd shape). Requires
    /// `churn` to be set when positive, otherwise they would never join.
    pub initial_offline: f64,
    /// Scheduled partitions, in chronological, non-overlapping order.
    pub partitions: Vec<PartitionWindow>,
    /// Targeted downtime windows (non-overlapping per node).
    pub outages: Vec<OutageWindow>,
}

impl DynamicsPlan {
    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(churn) = &self.churn {
            churn.validate()?;
        }
        if !(0.0..=1.0).contains(&self.initial_offline) {
            return Err("initial_offline must be in [0,1]".into());
        }
        if self.initial_offline > 0.0 && self.churn.is_none() {
            return Err("initial_offline requires churn (offline nodes could never join)".into());
        }
        PartitionWindow::validate_schedule(&self.partitions)?;
        for (i, outage) in self.outages.iter().enumerate() {
            outage.validate().map_err(|e| format!("outage {i}: {e}"))?;
            for (j, other) in self.outages.iter().enumerate().take(i) {
                if other.node == outage.node && outage.start < other.end && other.start < outage.end
                {
                    return Err(format!("outage {i} overlaps outage {j} on {}", outage.node));
                }
            }
        }
        Ok(())
    }

    /// Preset: a flash crowd — 75 % of the population starts offline
    /// and floods in as the (short) downtimes elapse, then churns with
    /// the given mean session length.
    pub fn flash_crowd(mean_session: SimDuration, mean_downtime: SimDuration) -> Self {
        Self::churning(0.75, mean_session, mean_downtime, 0.0, 0.3)
    }

    /// Preset: steady availability churn — in steady state a fraction
    /// `p` of the population is offline at any instant. Sessions last
    /// one `round` on average and downtimes `p / (1 − p)` rounds
    /// ([`SimDuration::MAX`], i.e. never back, at `p = 1`), and a
    /// fraction `p` starts offline so the run begins in steady state.
    /// Whether a node is offline one round and the next are correlated
    /// by `e^(−1/p)` (about 0.04 at `p = 0.3`). `p = 0` is the static
    /// plan; a `p` outside `[0, 1]` (or NaN) yields a plan that fails
    /// [`DynamicsPlan::validate`].
    pub fn steady_offline(p: f64, round: SimDuration) -> Self {
        if p == 0.0 {
            return DynamicsPlan::default();
        }
        let mean_downtime = if p >= 1.0 {
            SimDuration::MAX
        } else if p > 0.0 {
            round
                .mul_f64(p / (1.0 - p))
                .max(SimDuration::from_micros(1))
        } else {
            round // p < 0 or NaN: `initial_offline` fails validation
        };
        Self::churning(p, round, mean_downtime, 0.0, 0.0)
    }

    /// Preset: one clean two-way split over `[start, end)`, healing at
    /// `end`.
    pub fn split_then_heal(start: SimTime, end: SimTime) -> Self {
        DynamicsPlan {
            partitions: vec![PartitionWindow::full_split(start, end, 2)],
            ..Default::default()
        }
    }

    /// Preset: a relay outage — the first `relays` slots (the
    /// membership overlay's bootstrap/relay nodes, see
    /// [`membership`](crate::membership)) all crash over `[start, end)`
    /// and rejoin at the heal. While they are down, nodes whose views
    /// decay cannot re-bootstrap and go *isolated* — the failure mode
    /// this preset exists to measure.
    pub fn relay_outage(relays: u32, start: SimTime, end: SimTime) -> Self {
        DynamicsPlan {
            outages: (0..relays)
                .map(|i| OutageWindow {
                    node: NodeId(i),
                    start,
                    end,
                })
                .collect(),
            ..Default::default()
        }
    }

    /// Preset: a whitewash economy — sessions end often and 80 % of
    /// re-joins come back under a fresh identity, shedding history.
    pub fn whitewash_attack(mean_session: SimDuration, mean_downtime: SimDuration) -> Self {
        Self::churning(0.0, mean_session, mean_downtime, 0.8, 0.5)
    }

    /// A churn-only plan: the shape every churn preset shares.
    fn churning(
        initial_offline: f64,
        mean_session: SimDuration,
        mean_downtime: SimDuration,
        whitewash_probability: f64,
        crash_fraction: f64,
    ) -> Self {
        DynamicsPlan {
            churn: Some(ChurnConfig {
                mean_session,
                mean_downtime,
                whitewash_probability,
                crash_fraction,
            }),
            initial_offline,
            ..Default::default()
        }
    }
}

/// A dynamics transition the runtime applied, tagged with the *slot*
/// (the stable network position / dense index) it happened to.
///
/// Identities and slots coincide until the first whitewash; afterwards
/// [`DynamicsRuntime::identity`] maps a slot to the identity currently
/// bound to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynamicsEvent {
    /// The slot went offline gracefully.
    Leave {
        /// The affected network slot.
        slot: NodeId,
    },
    /// The slot went offline abruptly.
    Crash {
        /// The affected network slot.
        slot: NodeId,
    },
    /// The slot came back under the same identity.
    Rejoin {
        /// The affected network slot.
        slot: NodeId,
    },
    /// The slot came back under a fresh identity.
    Whitewash {
        /// The affected network slot.
        slot: NodeId,
        /// The identity it abandoned.
        old: NodeId,
        /// The freshly allocated identity.
        new: NodeId,
    },
    /// A partition window began (loss model swapped in).
    PartitionStart {
        /// Index into [`DynamicsPlan::partitions`].
        window: usize,
    },
    /// A partition window healed (displaced loss model restored).
    PartitionHeal {
        /// Index into [`DynamicsPlan::partitions`].
        window: usize,
    },
}

/// Executes a [`DynamicsPlan`] on the simulation clock.
///
/// See the [module docs](self) for the attach / advance / drain
/// protocol.
#[derive(Debug)]
pub struct DynamicsRuntime {
    plan: DynamicsPlan,
    n: usize,
    /// Draws the initial offline coins, then every churn transition.
    rng: SimRng,
    /// Slots that return under a fresh identity whatever the whitewash
    /// coin says (slots past its end are unmasked).
    always_whitewash: Vec<bool>,
    /// slot → identity currently bound to it.
    identity: Vec<NodeId>,
    next_identity: u32,
    /// Per-slot pending transition, sampled when it was scheduled.
    pending: Vec<Option<DynamicsEvent>>,
    /// Min-heap of (time, seq, slot), at most one entry per slot: a
    /// slot's next transition is scheduled only once its last fired.
    schedule: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    schedule_seq: u64,
    online: Vec<bool>,
    online_count: usize,
    /// Index of the next partition window not yet healed.
    window_cursor: usize,
    /// Whether `partitions[window_cursor]` is currently active.
    in_window: bool,
    /// Flattened outage boundaries `(time, slot, goes_down)`, sorted
    /// by time (stable on ties), consumed through `outage_cursor`.
    outage_steps: Vec<(SimTime, usize, bool)>,
    outage_cursor: usize,
    /// Group map of the active window (kept for detached consumers).
    active_map: Option<GroupMap>,
    /// Loss model displaced by the active window (network mode only).
    displaced_loss: Option<Box<dyn crate::latency::LossModel>>,
    events: Vec<(SimTime, DynamicsEvent)>,
}

impl DynamicsRuntime {
    /// Builds the runtime for an `n`-slot population. The schedule is
    /// measured from [`SimTime::ZERO`]; every initial transition is
    /// sampled here, so two runtimes with the same `(plan, n, rng)` are
    /// identical.
    ///
    /// # Errors
    ///
    /// Returns the plan's validation error, if any.
    pub fn new(plan: DynamicsPlan, n: usize, rng: SimRng) -> Result<Self, String> {
        Self::with_whitewashers(plan, n, rng, Vec::new())
    }

    /// [`DynamicsRuntime::new`] where every slot flagged in
    /// `always_whitewash` returns from each downtime under a fresh
    /// identity — the whitewasher behaviour class. The whitewash coin is
    /// still drawn for every return, so an all-`false` mask replays the
    /// schedule `new` produces.
    ///
    /// # Errors
    ///
    /// Returns the plan's validation error, if any.
    pub fn with_whitewashers(
        plan: DynamicsPlan,
        n: usize,
        mut rng: SimRng,
        always_whitewash: Vec<bool>,
    ) -> Result<Self, String> {
        plan.validate()?;
        let mut online = vec![true; n];
        if plan.initial_offline > 0.0 {
            for slot in online.iter_mut() {
                if rng.gen_bool(plan.initial_offline) {
                    *slot = false;
                }
            }
        }
        let online_count = online.iter().filter(|&&o| o).count();
        // tsn-lint: allow(no-unwrap, "plan validation bounds the population well below u32::MAX before a runtime exists")
        let next_identity = u32::try_from(n).expect("population fits u32");
        let mut outage_steps: Vec<(SimTime, usize, bool)> = Vec::new();
        for outage in &plan.outages {
            if outage.node.index() >= n {
                continue; // beyond this population: inert by design
            }
            outage_steps.push((outage.start, outage.node.index(), true));
            if outage.end < SimTime::MAX {
                outage_steps.push((outage.end, outage.node.index(), false));
            }
        }
        outage_steps.sort_by_key(|&(at, _, _)| at);
        let mut runtime = DynamicsRuntime {
            plan,
            n,
            rng,
            always_whitewash,
            identity: (0..n).map(NodeId::from_index).collect(),
            next_identity,
            pending: vec![None; n],
            schedule: BinaryHeap::new(),
            schedule_seq: 0,
            online,
            online_count,
            window_cursor: 0,
            in_window: false,
            outage_steps,
            outage_cursor: 0,
            active_map: None,
            displaced_loss: None,
            events: Vec::new(),
        };
        for slot in 0..n {
            runtime.schedule_next(slot, SimTime::ZERO);
        }
        Ok(runtime)
    }

    /// The plan being executed.
    pub fn plan(&self) -> &DynamicsPlan {
        &self.plan
    }

    /// Applies the *current* abstract state to a network: kills the
    /// offline slots and — if a
    /// partition window is already active (the runtime may have run
    /// detached before attaching) — swaps its loss model in. The round
    /// driver calls this once when the runtime is attached.
    ///
    /// # Panics
    ///
    /// Panics if the network's node count differs from the runtime's.
    pub fn install(&mut self, network: &mut Network) {
        assert_eq!(
            network.node_count(),
            self.n,
            "network and dynamics plan must agree on node count"
        );
        for slot in 0..self.n {
            if !self.online[slot] {
                network.set_alive(NodeId::from_index(slot), false);
            }
        }
        if self.in_window && self.displaced_loss.is_none() {
            let spec = &self.plan.partitions[self.window_cursor];
            let map = self
                .active_map
                .clone()
                // tsn-lint: allow(no-unwrap, "window activation builds the map before in_window is ever set; they change together")
                .expect("an active window always has a map");
            self.displaced_loss = Some(network.set_loss(Box::new(PartitionedLoss::new(
                map,
                spec.cross_loss,
                spec.intra_loss,
            ))));
        }
    }

    /// Executes every transition scheduled up to `to` against the
    /// network, interleaved with message delivery: the network clock is
    /// advanced to each transition's exact time before it is applied, so
    /// a message due before a crash is delivered and one due after it
    /// dead-letters. The caller advances the network to `to` afterwards
    /// (the driver's normal round delivery).
    pub fn advance(&mut self, network: &mut Network, to: SimTime) {
        self.advance_inner(Some(network), to);
    }

    /// Executes the same schedule without a network: online flags,
    /// identities and the active-partition state move, but nothing is
    /// killed and no model is swapped. For engines that have no
    /// transport (the abstract scenario loop).
    pub fn advance_detached(&mut self, to: SimTime) {
        self.advance_inner(None, to);
    }

    fn advance_inner(&mut self, mut network: Option<&mut Network>, to: SimTime) {
        loop {
            let boundary = self.next_boundary();
            let outage = self
                .outage_steps
                .get(self.outage_cursor)
                .map(|&(t, _, _)| t);
            let transition = self.schedule.peek().map(|Reverse((t, _, _))| *t);
            // Pick the earliest due step. Tie order: partition
            // boundary, then outage, then churn transition — so a heal
            // at time t frees traffic before anything revives at t,
            // and a targeted outage overrides a same-instant churn
            // event.
            let best = [(boundary, 0u8), (outage, 1), (transition, 2)]
                .into_iter()
                .filter_map(|(t, kind)| Some((t?, kind)))
                .min();
            let Some((at, kind)) = best else {
                break;
            };
            // `SimTime::MAX` is the unreachable "infinite horizon":
            // steps saturated onto it never fire (this also guarantees
            // termination when `to` is the horizon itself).
            if at > to || at == SimTime::MAX {
                break;
            }
            if let Some(network) = network.as_deref_mut() {
                network.advance_to(at);
            }
            match kind {
                0 => self.apply_boundary(network.as_deref_mut(), at),
                1 => self.apply_outage(network.as_deref_mut(), at),
                _ => self.apply_transition(network.as_deref_mut(), at),
            }
        }
    }

    /// Applies the next outage boundary: a targeted crash at a window
    /// start, a rejoin at its end. When churn already put the slot in
    /// the target state the step is a silent no-op (the last transition
    /// wins, matching how the network mirrors per-slot state).
    fn apply_outage(&mut self, network: Option<&mut Network>, at: SimTime) {
        let (_, slot, goes_down) = self.outage_steps[self.outage_cursor];
        self.outage_cursor += 1;
        if !self.set_online(network, slot, !goes_down) {
            return;
        }
        let slot = NodeId::from_index(slot);
        let event = if goes_down {
            DynamicsEvent::Crash { slot }
        } else {
            DynamicsEvent::Rejoin { slot }
        };
        self.events.push((at, event));
    }

    /// Moves a slot to `now_online`, mirroring the change onto the
    /// network when one is attached. Returns whether the state changed
    /// (`false`: the slot already was there, nothing happened).
    fn set_online(&mut self, network: Option<&mut Network>, slot: usize, now_online: bool) -> bool {
        if self.online[slot] == now_online {
            return false;
        }
        self.online[slot] = now_online;
        if now_online {
            self.online_count += 1;
        } else {
            self.online_count -= 1;
        }
        if let Some(network) = network {
            network.set_alive(NodeId::from_index(slot), now_online);
        }
        true
    }

    /// The next partition start or heal time, if any.
    fn next_boundary(&self) -> Option<SimTime> {
        let window = self.plan.partitions.get(self.window_cursor)?;
        Some(if self.in_window {
            window.end
        } else {
            window.start
        })
    }

    fn apply_boundary(&mut self, network: Option<&mut Network>, at: SimTime) {
        let window = self.window_cursor;
        if self.in_window {
            if let Some(network) = network {
                // `displaced_loss` can only be absent if the window
                // started while running detached and no install
                // happened since — nothing to restore then.
                if let Some(restored) = self.displaced_loss.take() {
                    network.set_loss(restored);
                }
            }
            self.in_window = false;
            self.active_map = None;
            self.window_cursor += 1;
            self.events
                .push((at, DynamicsEvent::PartitionHeal { window }));
        } else {
            let spec = &self.plan.partitions[window];
            let map = GroupMap::contiguous(self.n, spec.groups);
            if let Some(network) = network {
                let displaced = network.set_loss(Box::new(PartitionedLoss::new(
                    map.clone(),
                    spec.cross_loss,
                    spec.intra_loss,
                )));
                self.displaced_loss = Some(displaced);
            }
            self.active_map = Some(map);
            self.in_window = true;
            self.events
                .push((at, DynamicsEvent::PartitionStart { window }));
        }
    }

    fn apply_transition(&mut self, network: Option<&mut Network>, at: SimTime) {
        let Some(Reverse((_, _, slot))) = self.schedule.pop() else {
            return;
        };
        let event = self.pending[slot]
            .take()
            // tsn-lint: allow(no-unwrap, "heap entries and pending events are inserted together; the popped slot still holds its event")
            .expect("scheduled slot has a pending event");
        let now_online = match event {
            DynamicsEvent::Whitewash { new, .. } => {
                self.identity[slot] = new;
                true
            }
            DynamicsEvent::Rejoin { .. } => true,
            _ => false,
        };
        self.set_online(network, slot, now_online);
        self.events.push((at, event));
        self.schedule_next(slot, at);
    }

    /// Samples the slot's next churn transition from its current state
    /// and schedules it at `from` plus the sampled delay; a time
    /// saturated onto the infinite horizon never fires. No-op without a
    /// churn model.
    fn schedule_next(&mut self, slot: usize, from: SimTime) {
        let Some(churn) = self.plan.churn else {
            return;
        };
        let (delay, event) = if self.online[slot] {
            self.sample_departure(&churn, slot)
        } else {
            self.sample_return(&churn, slot)
        };
        let at = from + delay;
        if at < SimTime::MAX {
            self.pending[slot] = Some(event);
            self.schedule.push(Reverse((at, self.schedule_seq, slot)));
            self.schedule_seq += 1;
        }
    }

    /// How long an online slot stays up (exponential session), then
    /// whether it leaves by crashing (the crash coin).
    fn sample_departure(
        &mut self,
        churn: &ChurnConfig,
        slot: usize,
    ) -> (SimDuration, DynamicsEvent) {
        let session = self.sample_exp(churn.mean_session);
        let slot = NodeId::from_index(slot);
        let event = if self.rng.gen_bool(churn.crash_fraction) {
            DynamicsEvent::Crash { slot }
        } else {
            DynamicsEvent::Leave { slot }
        };
        (session, event)
    }

    /// How long an offline slot stays down (exponential downtime), then
    /// whether it returns under a fresh identity (the whitewash coin, or
    /// always for a masked slot). The fresh identity is allocated now,
    /// when the return is scheduled, so identities are numbered in
    /// scheduling order.
    fn sample_return(&mut self, churn: &ChurnConfig, slot: usize) -> (SimDuration, DynamicsEvent) {
        let downtime = self.sample_exp(churn.mean_downtime);
        let old = self.identity[slot];
        let coin = self.rng.gen_bool(churn.whitewash_probability);
        let forced = self.always_whitewash.get(slot).copied().unwrap_or(false);
        let slot = NodeId::from_index(slot);
        let event = if coin || forced {
            let new = NodeId(self.next_identity);
            self.next_identity += 1;
            DynamicsEvent::Whitewash { slot, old, new }
        } else {
            DynamicsEvent::Rejoin { slot }
        };
        (downtime, event)
    }

    /// An exponential sample of the given mean; a [`SimDuration::MAX`]
    /// mean is the "never" horizon, not a very long average.
    fn sample_exp(&mut self, mean: SimDuration) -> SimDuration {
        let sample = self.rng.gen_exp(1.0 / mean.as_secs_f64());
        if mean == SimDuration::MAX {
            SimDuration::MAX
        } else {
            SimDuration::from_secs_f64(sample)
        }
    }

    /// Fraction of slots currently online.
    pub fn availability(&self) -> f64 {
        if self.n == 0 {
            return 1.0;
        }
        self.online_count as f64 / self.n as f64
    }

    /// Whether the given slot is currently online.
    pub fn online(&self, slot: NodeId) -> bool {
        self.online[slot.index()]
    }

    /// The identity currently bound to a slot.
    pub fn identity(&self, slot: NodeId) -> NodeId {
        self.identity[slot.index()]
    }

    /// The slot → identity map.
    pub fn identities(&self) -> &[NodeId] {
        &self.identity
    }

    /// Identities ever allocated (slots plus whitewash reincarnations).
    pub fn identity_count(&self) -> usize {
        self.next_identity as usize
    }

    /// Whether a partition window is currently active.
    pub fn partition_active(&self) -> bool {
        self.in_window
    }

    /// The group map of the active partition window, if one is active.
    pub fn active_group_map(&self) -> Option<&GroupMap> {
        self.active_map.as_ref()
    }

    /// Partition health in `[0, 1]`: the probability a uniformly random
    /// node pair can exchange messages group-wise — 1.0 outside any
    /// window, [`GroupMap::connectivity`] inside one.
    pub fn partition_health(&self) -> f64 {
        self.active_map.as_ref().map_or(1.0, GroupMap::connectivity)
    }

    /// The events applied since the last clear/drain, in time order.
    /// The allocation-free read path: borrow, react, then
    /// [`DynamicsRuntime::clear_events`] (or let the round driver clear
    /// them at its next round).
    pub fn events(&self) -> &[(SimTime, DynamicsEvent)] {
        &self.events
    }

    /// Clears the recorded events, keeping the buffer's capacity.
    pub fn clear_events(&mut self) {
        self.events.clear();
    }

    /// Drains the events applied since the last clear/drain, in time
    /// order. Prefer [`DynamicsRuntime::events`] +
    /// [`DynamicsRuntime::clear_events`] on hot paths — draining hands
    /// the buffer (and its capacity) to the caller.
    pub fn take_events(&mut self) -> Vec<(SimTime, DynamicsEvent)> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;

    fn churny_plan() -> DynamicsPlan {
        DynamicsPlan {
            churn: Some(ChurnConfig {
                mean_session: SimDuration::from_secs(2),
                mean_downtime: SimDuration::from_secs(1),
                whitewash_probability: 0.0,
                crash_fraction: 0.5,
            }),
            ..Default::default()
        }
    }

    fn network(n: usize) -> Network {
        let mut net = Network::new(NetworkConfig::default(), SimRng::seed_from_u64(0));
        for _ in 0..n {
            net.add_node();
        }
        net
    }

    #[test]
    fn static_plan_is_a_no_op() {
        let plan = DynamicsPlan::default();
        let mut runtime = DynamicsRuntime::new(plan, 8, SimRng::seed_from_u64(1)).unwrap();
        let mut net = network(8);
        runtime.install(&mut net);
        runtime.advance(&mut net, SimTime::from_secs(100));
        assert_eq!(runtime.availability(), 1.0);
        assert_eq!(runtime.partition_health(), 1.0);
        assert!(runtime.take_events().is_empty());
        assert!((0..8).all(|i| net.is_alive(NodeId(i))));
    }

    #[test]
    fn plan_validation_rejects_bad_fields() {
        let plan = DynamicsPlan {
            initial_offline: 0.5,
            ..Default::default()
        };
        assert!(plan.validate().is_err(), "initial_offline without churn");
        let plan = DynamicsPlan {
            partitions: vec![PartitionWindow::full_split(
                SimTime::from_secs(1),
                SimTime::from_secs(1),
                2,
            )],
            ..Default::default()
        };
        assert!(plan.validate().is_err(), "empty window");
        let plan = DynamicsPlan {
            partitions: vec![
                PartitionWindow::full_split(SimTime::from_secs(1), SimTime::from_secs(5), 2),
                PartitionWindow::full_split(SimTime::from_secs(4), SimTime::from_secs(6), 2),
            ],
            ..Default::default()
        };
        assert!(plan.validate().is_err(), "overlapping windows");
        assert!(
            DynamicsPlan::split_then_heal(SimTime::ZERO, SimTime::from_secs(1))
                .validate()
                .is_ok()
        );
    }

    #[test]
    fn group_counts_beyond_the_group_id_range_are_rejected() {
        // Group ids are u16: a 65,537th group would alias group 0.
        let split = |groups| DynamicsPlan {
            partitions: vec![PartitionWindow::full_split(
                SimTime::from_secs(1),
                SimTime::from_secs(2),
                groups,
            )],
            ..Default::default()
        };
        assert!(split(MAX_GROUPS).validate().is_ok());
        let err = split(MAX_GROUPS + 1).validate().unwrap_err();
        assert!(err.contains("at most 65536 groups"), "{err}");
        // Nor can a runtime be built over a plan that would alias.
        assert!(
            DynamicsRuntime::new(split(MAX_GROUPS + 1), 70_000, SimRng::seed_from_u64(1)).is_err()
        );
    }

    #[test]
    fn churn_kills_and_revives_network_nodes() {
        let n = 20;
        let mut runtime = DynamicsRuntime::new(churny_plan(), n, SimRng::seed_from_u64(3)).unwrap();
        let mut net = network(n);
        runtime.install(&mut net);
        let mut saw_offline = false;
        let mut saw_rejoin = false;
        // The network mirrors the *last* event per slot in each window
        // (a leave+rejoin inside one window nets out to alive).
        let mut expected = vec![true; n];
        for round in 1..=200u64 {
            runtime.advance(&mut net, SimTime::from_millis(round * 100));
            for (_, event) in runtime.take_events() {
                match event {
                    DynamicsEvent::Leave { slot } | DynamicsEvent::Crash { slot } => {
                        saw_offline = true;
                        expected[slot.index()] = false;
                    }
                    DynamicsEvent::Rejoin { slot } => {
                        saw_rejoin = true;
                        expected[slot.index()] = true;
                    }
                    _ => {}
                }
            }
            let mut alive = 0usize;
            for (i, &want) in expected.iter().enumerate() {
                let id = NodeId::from_index(i);
                assert_eq!(net.is_alive(id), want, "slot {i} round {round}");
                assert_eq!(runtime.online(id), want, "slot {i} round {round}");
                alive += usize::from(want);
            }
            assert_eq!(alive as f64 / n as f64, runtime.availability());
        }
        assert!(saw_offline && saw_rejoin, "20s of 2s-sessions must churn");
    }

    #[test]
    fn whitewash_allocates_fresh_identities_with_genealogy() {
        let n = 10;
        let plan = DynamicsPlan::whitewash_attack(
            SimDuration::from_millis(500),
            SimDuration::from_millis(200),
        );
        let mut runtime = DynamicsRuntime::new(plan, n, SimRng::seed_from_u64(4)).unwrap();
        let mut net = network(n);
        runtime.install(&mut net);
        runtime.advance(&mut net, SimTime::from_secs(20));
        let events = runtime.take_events();
        let whitewashes: Vec<_> = events
            .iter()
            .filter_map(|(_, e)| match *e {
                DynamicsEvent::Whitewash { slot, old, new } => Some((slot, old, new)),
                _ => None,
            })
            .collect();
        assert!(
            !whitewashes.is_empty(),
            "80% whitewash probability over 20s"
        );
        // The genealogy, derived from the events alone: each `old` is
        // the slot's previous identity, and following `new → old`
        // links from any identity ends at an original slot.
        let mut current: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        let mut predecessor = std::collections::HashMap::new();
        for &(slot, old, new) in &whitewashes {
            assert!(new.index() >= n, "fresh identities sit beyond the slots");
            assert_eq!(
                old,
                current[slot.index()],
                "old is the slot's previous identity"
            );
            current[slot.index()] = new;
            predecessor.insert(new, old);
        }
        assert_eq!(
            current,
            runtime.identities(),
            "the runtime binds the last identity"
        );
        for &(_, _, new) in &whitewashes {
            let mut root = new;
            while let Some(&prev) = predecessor.get(&root) {
                root = prev;
            }
            assert!(root.index() < n, "chains root at an original slot");
        }
        // Every distinct new identity is allocated exactly once.
        let mut fresh: Vec<u32> = whitewashes.iter().map(|&(_, _, new)| new.0).collect();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(
            fresh.len(),
            whitewashes.len(),
            "identities are never reused"
        );
        // Identities are allocated when the return is *scheduled*, so
        // the count covers fired whitewashes plus any still pending.
        assert!(runtime.identity_count() >= n + fresh.len());
    }

    #[test]
    fn masked_slots_always_whitewash_and_no_other_slot_does() {
        // Whitewash probability 0: only the mask whitewashes, also on
        // the first return of a slot that starts offline.
        let n = 24;
        let plan = DynamicsPlan {
            initial_offline: 0.5,
            ..churny_plan()
        };
        let mask: Vec<bool> = (0..n).map(|slot| slot % 3 == 0).collect();
        let rng = SimRng::seed_from_u64(40);
        let mut runtime = DynamicsRuntime::with_whitewashers(plan, n, rng, mask.clone()).unwrap();
        let started_offline: Vec<usize> = (0..n)
            .filter(|&slot| !runtime.online(NodeId::from_index(slot)))
            .collect();
        assert!(started_offline.iter().any(|&slot| mask[slot]));
        runtime.advance_detached(SimTime::from_secs(30));
        let mut returns = vec![0; n];
        for &(_, event) in runtime.events() {
            let (slot, whitewashed) = match event {
                DynamicsEvent::Whitewash { slot, .. } => (slot, true),
                DynamicsEvent::Rejoin { slot } => (slot, false),
                _ => continue,
            };
            assert_eq!(whitewashed, mask[slot.index()], "{slot}");
            returns[slot.index()] += 1;
        }
        assert!(started_offline.iter().all(|&slot| returns[slot] > 0));
    }

    #[test]
    fn steady_offline_holds_the_offline_fraction() {
        let round = SimDuration::from_secs(3600);
        let n = 400;
        let rounds = 200u64;
        for p in [0.2, 0.5] {
            let plan = DynamicsPlan::steady_offline(p, round);
            let mut runtime = DynamicsRuntime::new(plan, n, SimRng::seed_from_u64(30)).unwrap();
            let mut offline = 0.0;
            for r in 0..rounds {
                runtime.advance_detached(SimTime::ZERO + round.mul_f64(r as f64));
                offline += 1.0 - runtime.availability();
            }
            let mean = offline / rounds as f64;
            assert!((mean - p).abs() <= 0.03, "p = {p}: mean offline {mean}");
        }

        // p = 1: everyone starts offline and no node ever rejoins.
        let plan = DynamicsPlan::steady_offline(1.0, round);
        let mut runtime = DynamicsRuntime::new(plan, n, SimRng::seed_from_u64(31)).unwrap();
        runtime.advance_detached(SimTime::ZERO + round.mul_f64(rounds as f64));
        assert_eq!(runtime.availability(), 0.0);
        assert!(
            runtime.events().is_empty(),
            "{:?}",
            runtime.events().first()
        );
    }

    #[test]
    fn steady_offline_edge_probabilities() {
        let round = SimDuration::from_secs(3600);
        assert_eq!(
            DynamicsPlan::steady_offline(0.0, round),
            DynamicsPlan::default()
        );
        for (p, valid) in [
            (1.0, true),
            (1e-300, true),
            (-0.1, false),
            (1.5, false),
            (f64::NAN, false),
        ] {
            let plan = DynamicsPlan::steady_offline(p, round);
            assert_eq!(plan.validate().is_ok(), valid, "p = {p}");
        }
    }

    #[test]
    fn partition_window_swaps_and_restores_the_loss_model() {
        let n = 8;
        let plan = DynamicsPlan::split_then_heal(SimTime::from_secs(1), SimTime::from_secs(2));
        let mut runtime = DynamicsRuntime::new(plan, n, SimRng::seed_from_u64(5)).unwrap();
        let mut net = network(n);
        runtime.install(&mut net);

        // Before the window: cross-group traffic flows.
        runtime.advance(&mut net, SimTime::from_millis(500));
        net.advance_to(SimTime::from_millis(500));
        let (_, outcome) = net.send(NodeId(0), NodeId(7), "pre".into());
        assert!(matches!(
            outcome,
            crate::network::DeliveryOutcome::Scheduled(_)
        ));
        assert_eq!(runtime.partition_health(), 1.0);

        // Inside: cross-group traffic is lost, intra-group flows.
        runtime.advance(&mut net, SimTime::from_millis(1500));
        net.advance_to(SimTime::from_millis(1500));
        assert!(runtime.partition_active());
        assert_eq!(runtime.partition_health(), 0.5);
        let (_, outcome) = net.send(NodeId(0), NodeId(7), "cross".into());
        assert_eq!(outcome, crate::network::DeliveryOutcome::Lost);
        let (_, outcome) = net.send(NodeId(0), NodeId(1), "local".into());
        assert!(matches!(
            outcome,
            crate::network::DeliveryOutcome::Scheduled(_)
        ));

        // After the heal: the displaced model is back.
        runtime.advance(&mut net, SimTime::from_millis(2500));
        net.advance_to(SimTime::from_millis(2500));
        assert!(!runtime.partition_active());
        assert_eq!(runtime.partition_health(), 1.0);
        let (_, outcome) = net.send(NodeId(0), NodeId(7), "post".into());
        assert!(matches!(
            outcome,
            crate::network::DeliveryOutcome::Scheduled(_)
        ));
        let starts = runtime
            .take_events()
            .iter()
            .filter(|(_, e)| matches!(e, DynamicsEvent::PartitionStart { .. }))
            .count();
        assert_eq!(starts, 1);
    }

    #[test]
    fn attaching_mid_window_after_detached_execution_is_sound() {
        // A runtime may run detached first (the scenario engine) and
        // only later be attached to a network. If a partition window
        // opened while detached, install() must swap the loss model in,
        // and the later heal must restore cleanly instead of panicking.
        let n = 8;
        let plan = DynamicsPlan::split_then_heal(SimTime::from_secs(1), SimTime::from_secs(3));
        let mut runtime = DynamicsRuntime::new(plan, n, SimRng::seed_from_u64(11)).unwrap();
        runtime.advance_detached(SimTime::from_secs(2));
        assert!(runtime.partition_active(), "the window opened detached");

        let mut net = network(n);
        net.advance_to(SimTime::from_secs(2));
        runtime.install(&mut net);
        // The partition loss model is live on the network now.
        let (_, outcome) = net.send(NodeId(0), NodeId(7), "cross".into());
        assert_eq!(outcome, crate::network::DeliveryOutcome::Lost);

        // The heal restores the displaced model without panicking.
        runtime.advance(&mut net, SimTime::from_secs(4));
        net.advance_to(SimTime::from_secs(4));
        assert!(!runtime.partition_active());
        let (_, outcome) = net.send(NodeId(0), NodeId(7), "post".into());
        assert!(matches!(
            outcome,
            crate::network::DeliveryOutcome::Scheduled(_)
        ));

        // Fully-detached windows (never installed) heal without a
        // network too — nothing to restore, nothing to panic on.
        let plan = DynamicsPlan::split_then_heal(SimTime::from_secs(1), SimTime::from_secs(3));
        let mut detached = DynamicsRuntime::new(plan, n, SimRng::seed_from_u64(12)).unwrap();
        detached.advance_detached(SimTime::from_secs(2));
        let mut late_net = network(n);
        late_net.advance_to(SimTime::from_secs(2));
        detached.install(&mut late_net);
        detached.advance(&mut late_net, SimTime::from_secs(10));
        assert!(!detached.partition_active());
    }

    #[test]
    fn flash_crowd_starts_sparse_and_fills_up() {
        let n = 100;
        let plan =
            DynamicsPlan::flash_crowd(SimDuration::from_secs(3600), SimDuration::from_secs(1));
        let mut runtime = DynamicsRuntime::new(plan, n, SimRng::seed_from_u64(7)).unwrap();
        let start = runtime.availability();
        assert!(start < 0.5, "three quarters start offline: {start}");
        runtime.advance_detached(SimTime::from_secs(10));
        let after = runtime.availability();
        assert!(after > 0.9, "the crowd joined within seconds: {after}");
    }

    #[test]
    fn detached_and_networked_execution_agree() {
        let n = 16;
        let plan = churny_plan();
        let mut networked =
            DynamicsRuntime::new(plan.clone(), n, SimRng::seed_from_u64(8)).unwrap();
        let mut detached = DynamicsRuntime::new(plan, n, SimRng::seed_from_u64(8)).unwrap();
        let mut net = network(n);
        networked.install(&mut net);
        for step in 1..=50u64 {
            let to = SimTime::from_millis(step * 200);
            networked.advance(&mut net, to);
            detached.advance_detached(to);
            assert_eq!(
                networked.take_events(),
                detached.take_events(),
                "step {step}"
            );
            for slot in 0..n {
                let id = NodeId::from_index(slot);
                assert_eq!(networked.online(id), detached.online(id));
                assert_eq!(net.is_alive(id), networked.online(id));
            }
        }
    }

    #[test]
    fn runtime_is_deterministic_given_seed() {
        let run = || {
            let plan = DynamicsPlan::whitewash_attack(
                SimDuration::from_secs(1),
                SimDuration::from_millis(300),
            );
            let mut runtime = DynamicsRuntime::new(plan, 12, SimRng::seed_from_u64(9)).unwrap();
            runtime.advance_detached(SimTime::from_secs(30));
            runtime.take_events()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn relay_outage_kills_and_revives_exactly_the_relays() {
        let n = 12;
        let plan = DynamicsPlan::relay_outage(3, SimTime::from_secs(1), SimTime::from_secs(2));
        assert!(plan.validate().is_ok());
        let mut runtime = DynamicsRuntime::new(plan, n, SimRng::seed_from_u64(21)).unwrap();
        let mut net = network(n);
        runtime.install(&mut net);

        runtime.advance(&mut net, SimTime::from_millis(500));
        assert_eq!(runtime.availability(), 1.0);

        runtime.advance(&mut net, SimTime::from_millis(1500));
        for slot in 0..n {
            let id = NodeId::from_index(slot);
            assert_eq!(runtime.online(id), slot >= 3, "slot {slot} mid-outage");
            assert_eq!(net.is_alive(id), slot >= 3);
        }

        runtime.advance(&mut net, SimTime::from_millis(2500));
        assert_eq!(runtime.availability(), 1.0);
        let events = runtime.take_events();
        let crashes = events
            .iter()
            .filter(|(_, e)| matches!(e, DynamicsEvent::Crash { .. }))
            .count();
        let rejoins = events
            .iter()
            .filter(|(_, e)| matches!(e, DynamicsEvent::Rejoin { .. }))
            .count();
        assert_eq!((crashes, rejoins), (3, 3));
    }

    #[test]
    fn outage_validation_rejects_overlap_and_empty_windows() {
        let plan = DynamicsPlan {
            outages: vec![OutageWindow {
                node: NodeId(0),
                start: SimTime::from_secs(2),
                end: SimTime::from_secs(2),
            }],
            ..Default::default()
        };
        assert!(plan.validate().is_err(), "empty outage window");
        let plan = DynamicsPlan {
            outages: vec![
                OutageWindow {
                    node: NodeId(0),
                    start: SimTime::from_secs(1),
                    end: SimTime::from_secs(3),
                },
                OutageWindow {
                    node: NodeId(0),
                    start: SimTime::from_secs(2),
                    end: SimTime::from_secs(4),
                },
            ],
            ..Default::default()
        };
        assert!(plan.validate().is_err(), "same-node overlap");
        let plan = DynamicsPlan {
            outages: vec![
                OutageWindow {
                    node: NodeId(0),
                    start: SimTime::from_secs(1),
                    end: SimTime::from_secs(3),
                },
                OutageWindow {
                    node: NodeId(1),
                    start: SimTime::from_secs(2),
                    end: SimTime::from_secs(4),
                },
            ],
            ..Default::default()
        };
        assert!(plan.validate().is_ok(), "different nodes may overlap");
    }

    #[test]
    fn bootstrap_storm_floods_in_through_short_downtimes() {
        // 95 % start offline and flood back in at once.
        let plan = DynamicsPlan::churning(
            0.95,
            SimDuration::from_secs(3600),
            SimDuration::from_secs(1),
            0.0,
            0.3,
        );
        assert!(plan.validate().is_ok());
        let mut runtime = DynamicsRuntime::new(plan, 200, SimRng::seed_from_u64(22)).unwrap();
        assert!(runtime.availability() < 0.2, "95% start offline");
        runtime.advance_detached(SimTime::from_secs(10));
        assert!(runtime.availability() > 0.9, "the storm joined in seconds");
    }

    #[test]
    fn schedule_survives_the_infinite_horizon() {
        // Advancing to SimTime::MAX exercises the saturating time
        // arithmetic: transition times pushed past the horizon clamp
        // instead of wrapping, so the loop terminates.
        let mut runtime = DynamicsRuntime::new(
            DynamicsPlan::split_then_heal(SimTime::from_secs(1), SimTime::MAX),
            4,
            SimRng::seed_from_u64(10),
        )
        .unwrap();
        runtime.advance_detached(SimTime::MAX);
        assert!(runtime.partition_active(), "a MAX-end window never heals");
    }
}
