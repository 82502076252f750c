//! The peer-sampling membership layer: bounded partial views refreshed
//! by deterministic view shuffling.
//!
//! The source paper's central object is a peer-sampling service built
//! on *view shuffling*: every node holds a small bounded view of
//! `(peer, age)` entries and periodically swaps a half-view with a
//! partner; the paper's headline result is that this shuffling yields
//! provably uniform samples of the live population. This module is
//! that service as a simulation substrate:
//!
//! * [`PartialView`] — one node's bounded, aged entry list;
//! * [`MembershipConfig`] — view size and relay count, the overlay's
//!   only two settable values;
//! * [`MembershipRuntime`] — the per-population overlay: bootstrap
//!   through relay nodes, one deterministic, synchronous push-pull
//!   shuffle round per call to [`MembershipRuntime::shuffle_round`].
//!
//! ## The shuffle step
//!
//! One call to [`MembershipRuntime::shuffle_round`] is one synchronous
//! round: every exchange reads the views as the round found them, so
//! no exchange sees the result of another in the same round. The round
//! runs in four passes over fixed blocks of 1,024 slots:
//!
//! 1. **choose** — every live node ages every entry in its view, prunes
//!    dead entries while the oldest one is dead (the crash-healing
//!    path), and records its oldest and second-oldest live, reachable
//!    entries;
//! 2. **claim** — serial: a partner named first by more than two
//!    initiators keeps the two with the lowest per-round hash priority,
//!    and the rest move to their second choice (a node without one
//!    keeps its first). A live node with no live, reachable entry
//!    re-bootstraps through a relay. The round's exchanges are then
//!    indexed per node, in ascending initiator order;
//! 3. **draw** — for every exchange it takes part in, a node draws a
//!    buffer of a fresh self-entry plus view entries by one partial
//!    Fisher–Yates permutation per node, so it never gives away one
//!    entry twice in a round. Both sides of an exchange send equally
//!    many entries: up to `shuffle_len - 1`, and no more than either
//!    side has left after its exchanges of lower initiators;
//! 4. **merge** — every node merges each buffer addressed to it, in
//!    ascending initiator order: received entries that duplicate an
//!    existing peer keep the younger age; overflow beyond `view_size`
//!    evicts first up to `healing` oldest entries, then up to `swap` of
//!    the entries it sent in that exchange, then random entries.
//!
//! Passes 1, 3 and 4 write only their own block's slots and draw only
//! from their block's streams, so any number of workers
//! ([`MembershipRuntime::shuffle_round_on`]) yields the same views.
//!
//! The claim cap keeps the relays from turning into hubs. Every initial
//! view starts with its relay, so in the first round each relay is the
//! oldest entry of a third of the population; uncapped, a relay would
//! merge thousands of buffers in one round and end up in most views.
//! Equal, never-repeated buffers keep entries in circulation: a sent
//! entry leaves its sender's view as it lands in the receiver's, so
//! merges seldom fall back on random evictions, which would let some
//! nodes drift out of almost every view.
//!
//! This is the peer-sampling framework's `(tail, push-pull, H, S)`
//! instantiation (Jelasity et al., "Gossip-based peer sampling", ACM
//! TOCS 2007) — the family the paper's uniformity analysis covers. The
//! framework asks only that every node exchange once per period; this
//! overlay runs the period as a synchronous round rather than as
//! Cyclon's sequential sweep.
//!
//! ## The exchange shape
//!
//! The overlay fixes one point of that design space and derives it
//! from the view size `c`: half-view exchanges
//! (`shuffle_len = max(1, c / 2)`), healing `H = 1`, swap the rest
//! (`S = shuffle_len - 1`), and a re-bootstrap handout of
//! `relay_fanout = min(8, c)` entries. The default view of 16 gives
//! 8 / 1 / 7 / 8.
//!
//! ## Bootstrap and relays
//!
//! The first [`MembershipConfig::relays`] slots of the population are
//! *relay* (bootstrap) nodes: real entities that churn, crash and die
//! like everyone else (a [`DynamicsPlan`](crate::DynamicsPlan) can
//! target them — see [`DynamicsPlan::relay_outage`](crate::DynamicsPlan::relay_outage)).
//! Initial views are handed out by a relay:
//! each node starts with its relay plus a sample of previously joined
//! peers. A node whose view decays to nothing re-bootstraps through a
//! live relay; with every relay down it stays *isolated* until a relay
//! recovers — which is exactly the failure mode the relay-outage
//! scenarios measure.
//!
//! ## Determinism
//!
//! All randomness draws from per-(round, block, pass) streams
//! ([`StreamDomain::MembershipShuffle`]) under a dedicated seed, so an
//! overlay attached to an existing experiment never perturbs the
//! experiment's own draw sequences, and a `(seed, config)` pair replays
//! the overlay bit-for-bit, on any number of workers.

use crate::rng::SimRng;
use crate::steal::for_each_chunk_mut;
use crate::streams::StreamDomain;
use crate::NodeId;

/// Salt XORed into an experiment's seed to derive the membership
/// overlay's own seed family. Mirrors the dynamics-runtime idiom: the
/// overlay is seeded *beside* the main stream, never forked from it,
/// so attaching it leaves every pre-existing draw sequence untouched.
pub const MEMBERSHIP_SEED_SALT: u64 = 0x3F29_8C5B_D410_66A7;

/// One entry of a [`PartialView`]: a peer descriptor with its age in
/// shuffle rounds since the entry was (re)freshed at its origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewEntry {
    /// The peer (population slot) this entry describes.
    pub peer: NodeId,
    /// Rounds since this entry was created fresh (age 0) by its peer.
    pub age: u32,
}

/// A bounded, aged partial view — one node's entire knowledge of the
/// population.
///
/// Invariants (property-tested): no entry for the owner itself, no
/// duplicate peers, never more than `capacity` entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartialView {
    entries: Vec<ViewEntry>,
    capacity: usize,
}

impl PartialView {
    /// An empty view bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        PartialView {
            // No reservation: `capacity` is a bound, not a size hint. A
            // huge configured bound must not allocate up front.
            entries: Vec::new(),
            capacity,
        }
    }

    /// The bound on the number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the view holds no entries (the isolated state).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[ViewEntry] {
        &self.entries
    }

    /// The peers currently in view.
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.peer)
    }

    /// Whether `peer` is in view.
    pub fn contains(&self, peer: NodeId) -> bool {
        self.entries.iter().any(|e| e.peer == peer)
    }

    /// The oldest entry's position (first of the maxima — deterministic).
    fn oldest(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if best.is_none_or(|b| e.age > self.entries[b].age) {
                best = Some(i);
            }
        }
        best
    }

    /// Inserts a fresh (age 0) entry for `peer` if it is absent and
    /// the view has room; returns whether the entry was added.
    pub fn insert_fresh(&mut self, peer: NodeId) -> bool {
        if self.entries.len() >= self.capacity || self.contains(peer) {
            return false;
        }
        self.entries.push(ViewEntry { peer, age: 0 });
        true
    }

    /// A uniformly random peer from the view.
    pub fn sample(&self, rng: &mut SimRng) -> Option<NodeId> {
        rng.choose(&self.entries).map(|e| e.peer)
    }
}

/// Configuration of the membership overlay: the view size and the
/// relay count. The exchange shape derives from the view size (see
/// the [module docs](self#the-exchange-shape)).
///
/// Defaults follow the peer-sampling literature's healthy mid-range:
/// views of 16 and three relays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipConfig {
    /// View capacity per node (the paper's `c`).
    pub view_size: usize,
    /// Number of relay / bootstrap nodes: the first `relays` slots of
    /// the population. Real entities — they shuffle, churn and crash
    /// like everyone else.
    pub relays: usize,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            view_size: 16,
            relays: 3,
        }
    }
}

/// The exchange shape derived from a view size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExchangeShape {
    /// Entries exchanged per shuffle, fresh self-entry included.
    shuffle_len: usize,
    /// Healing parameter `H`: on overflow, up to this many *oldest*
    /// entries are evicted first (crash tolerance).
    healing: usize,
    /// Swap parameter `S`: after healing, up to this many of the
    /// entries *just sent* are evicted (keeps views from converging
    /// onto each other).
    swap: usize,
    /// Entries a relay hands out on (re)bootstrap: the relay itself
    /// plus up to `relay_fanout - 1` peers sampled from its own view.
    relay_fanout: usize,
}

impl ExchangeShape {
    /// Half-view exchanges, healing 1, swap the rest, and a handout of
    /// at most 8. Never evicts more than a view holds:
    /// `healing + swap = shuffle_len <= view_size` for `view_size >= 1`.
    fn of(view_size: usize) -> Self {
        let shuffle_len = (view_size / 2).max(1);
        ExchangeShape {
            shuffle_len,
            healing: 1,
            swap: shuffle_len - 1,
            relay_fanout: view_size.min(8),
        }
    }
}

impl MembershipConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.view_size == 0 {
            return Err("membership view_size must be at least 1".into());
        }
        if self.relays == 0 {
            return Err("membership needs at least 1 relay".into());
        }
        Ok(())
    }

    /// Validates the configuration for an overlay over `nodes` slots:
    /// [`MembershipConfig::validate`], plus a population larger than
    /// the relay set. Every layer that attaches an overlay checks it
    /// here.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem.
    pub fn validate_for(&self, nodes: usize) -> Result<(), String> {
        self.validate()?;
        if nodes <= self.relays {
            return Err(format!(
                "membership needs more nodes ({nodes}) than relays ({})",
                self.relays
            ));
        }
        Ok(())
    }
}

/// Counters of overlay activity since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleStats {
    /// Shuffle rounds executed.
    pub rounds: u64,
    /// Push-pull exchanges completed.
    pub exchanges: u64,
    /// Dead entries pruned during partner search.
    pub pruned: u64,
    /// Re-bootstraps served by a live relay.
    pub rebootstraps: u64,
    /// Node-rounds spent isolated (empty view, no reachable relay).
    pub isolated: u64,
}

/// Slots per block of a shuffle round. Blocks are the unit of work and
/// of randomness (one stream per block and pass), so the views never
/// depend on how many workers share the blocks.
const BLOCK: usize = 1024;

/// First-choice claimants a partner keeps per round; the others move to
/// their second choice.
const MAX_CLAIMS: usize = 2;

/// "No peer" in the per-slot choice and partner arrays.
const NONE: u32 = u32::MAX;

/// The passes that draw randomness, the low two bits of a
/// [`StreamDomain::MembershipShuffle`] label.
#[derive(Debug, Clone, Copy)]
enum Pass {
    /// The serial claim step: claim priorities and re-bootstrap draws.
    Claim = 0,
    /// Exchange buffers.
    Draw = 1,
    /// Random trims of the merge.
    Merge = 2,
}

/// A uniform index in `[0, span)` for `span >= 1`: Lemire's
/// multiply-shift with rejection, unbiased like
/// [`SimRng::gen_range`] but without its division on nearly every
/// draw, the larger part of a small draw's cost.
fn index_below(rng: &mut SimRng, span: usize) -> usize {
    let span = span as u64;
    let mut product = u128::from(rng.next_u64()) * u128::from(span);
    if (product as u64) < span {
        let threshold = span.wrapping_neg() % span;
        while (product as u64) < threshold {
            product = u128::from(rng.next_u64()) * u128::from(span);
        }
    }
    (product >> 64) as usize
}

/// The stream of one pass over one block of a round.
fn shuffle_stream(seed: u64, round: u64, block: usize, pass: Pass) -> SimRng {
    StreamDomain::MembershipShuffle
        .stream(seed, (round << 24) | ((block as u64) << 2) | pass as u64)
}

/// A node's claim priority in a round: the lower, the likelier it keeps
/// a contested partner. SplitMix64's finalizer over the round's key.
fn priority(key: u64, slot: u32) -> u64 {
    let mut z = key ^ u64::from(slot);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One round's exchanges, indexed per node: slot `x` takes part in the
/// exchange sides `start[x]..start[x + 1]`, in ascending initiator
/// order, one side per exchange it initiated or was claimed for.
struct Exchanges {
    start: Vec<usize>,
    /// Per side: the other side of the same exchange.
    mirror: Vec<usize>,
    /// Per side: its buffer is `entries[buffer[k]..buffer[k + 1]]`.
    buffer: Vec<usize>,
    /// Every exchange buffer of the round.
    entries: Vec<ViewEntry>,
}

/// The per-population peer-sampling overlay: one [`PartialView`] per
/// slot plus the deterministic shuffle protocol.
#[derive(Debug, Clone)]
pub struct MembershipRuntime {
    config: MembershipConfig,
    shape: ExchangeShape,
    seed: u64,
    views: Vec<PartialView>,
    round: u64,
    stats: ShuffleStats,
}

impl MembershipRuntime {
    /// Builds the overlay for an `n`-slot population and bootstraps
    /// every initial view through the relays. `seed` is the overlay's
    /// own seed — derive it as `experiment_seed ^ MEMBERSHIP_SEED_SALT`
    /// so the overlay never perturbs the experiment's draw sequences.
    ///
    /// # Errors
    ///
    /// Returns [`MembershipConfig::validate_for`]'s error for `n`.
    pub fn new(n: usize, config: MembershipConfig, seed: u64) -> Result<Self, String> {
        config.validate_for(n)?;
        let shape = ExchangeShape::of(config.view_size);
        // A view never holds more than the n - 1 other slots, and a
        // merge evicts in a scratch copy before it writes back: reserving
        // the bound here keeps every merge from reallocating on a worker
        // thread, and a huge configured bound from allocating beyond the
        // population.
        let reserve = config.view_size.min(n - 1);
        let mut views = vec![PartialView::new(config.view_size); n];
        // Bootstrap: each node asks relay `slot % relays`, which hands
        // out itself plus a sample of already-joined peers (the state a
        // real relay accumulates as the population trickles in).
        for (slot, view) in views.iter_mut().enumerate() {
            view.entries.reserve_exact(reserve);
            let mut rng = StreamDomain::MembershipBootstrap.stream(seed, slot as u64);
            let relay = NodeId::from_index(slot % config.relays);
            if relay.index() != slot {
                view.insert_fresh(relay);
            }
            // A view holds at most the other n - 1 slots, so targets and
            // budgets are capped at the population; below it they are
            // exactly the configured fanout.
            let want = shape.relay_fanout.min(n - 1);
            let mut budget = 4usize.saturating_mul(shape.relay_fanout.min(n));
            while view.len() < want && budget > 0 {
                budget -= 1;
                let peer = NodeId::from_index(rng.gen_range(0..n));
                if peer.index() != slot {
                    view.insert_fresh(peer);
                }
            }
        }
        Ok(MembershipRuntime {
            config,
            shape,
            seed,
            views,
            round: 0,
            stats: ShuffleStats::default(),
        })
    }

    /// One node's view.
    pub fn view(&self, node: NodeId) -> &PartialView {
        &self.views[node.index()]
    }

    /// All views, slot-indexed — the frozen per-round snapshot the
    /// sharded scenario path reads.
    pub fn views(&self) -> &[PartialView] {
        &self.views
    }

    /// Activity counters since construction.
    pub fn stats(&self) -> ShuffleStats {
        self.stats
    }

    /// Shuffle rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// [`MembershipRuntime::shuffle_round_on`] on the calling thread
    /// alone.
    pub fn shuffle_round(
        &mut self,
        alive: impl Fn(NodeId) -> bool + Sync,
        reachable: impl Fn(NodeId, NodeId) -> bool + Sync,
    ) {
        self.shuffle_round_on(1, alive, reachable);
    }

    /// Executes one synchronous shuffle round, described in the
    /// [module docs](self), on up to `workers` threads: every node for
    /// which `alive` holds exchanges with one partner. `reachable(a, b)`
    /// gates partner and relay contact (partitions, regional cuts);
    /// pass `|_, _| true` on an unpartitioned substrate.
    ///
    /// Draws come from this round's [`StreamDomain::MembershipShuffle`]
    /// streams only, so overlay state after `k` rounds is a pure
    /// function of `(seed, config, alive/reachable history)` — the
    /// worker count does not enter it.
    pub fn shuffle_round_on(
        &mut self,
        workers: usize,
        alive: impl Fn(NodeId) -> bool + Sync,
        reachable: impl Fn(NodeId, NodeId) -> bool + Sync,
    ) {
        // The round's working arrays live only for the round: kept, they
        // would add a few MB to the scenario engine's peak resident set
        // while its other phases run.
        let choice = self.choose(workers, &alive, &reachable);
        let partner = self.claim(&choice, &alive, &reachable);
        let mut exchanges = self.index(&partner);
        self.draw(&mut exchanges, workers);
        self.merge_all(&exchanges, workers);
        self.round += 1;
        self.stats.rounds += 1;
    }

    /// Pass 1: every live node ages its view, prunes dead oldest
    /// entries and records its two oldest live, reachable entries
    /// ([`NONE`] for a node that is down or found none).
    fn choose(
        &mut self,
        workers: usize,
        alive: &(impl Fn(NodeId) -> bool + Sync),
        reachable: &(impl Fn(NodeId, NodeId) -> bool + Sync),
    ) -> Vec<[u32; 2]> {
        let mut choice = vec![[NONE; 2]; self.views.len()];
        let mut blocks: Vec<_> = self
            .views
            .chunks_mut(BLOCK)
            .zip(choice.chunks_mut(BLOCK))
            .map(|(views, choices)| (views, choices, 0u64))
            .collect();
        for_each_chunk_mut(&mut blocks, 1, workers, |block, piece| {
            for (views, choices, pruned) in piece {
                for (j, (view, choice)) in views.iter_mut().zip(choices.iter_mut()).enumerate() {
                    let me = NodeId::from_index(block * BLOCK + j);
                    if alive(me) {
                        *choice = choose_partners(view, me, alive, reachable, pruned);
                    }
                }
            }
        });
        self.stats.pruned += blocks.iter().map(|(_, _, pruned)| pruned).sum::<u64>();
        choice
    }

    /// Pass 2, serial: caps each partner's first-choice claimants at
    /// [`MAX_CLAIMS`] and re-bootstraps live nodes that found no
    /// partner. Returns each slot's partner, [`NONE`] for none.
    fn claim(
        &mut self,
        choice: &[[u32; 2]],
        alive: &impl Fn(NodeId) -> bool,
        reachable: &impl Fn(NodeId, NodeId) -> bool,
    ) -> Vec<u32> {
        let n = self.views.len();
        let mut rng = shuffle_stream(self.seed, self.round, 0, Pass::Claim);
        let key = rng.next_u64();
        // Per slot: how many initiators named it first, and the ones of
        // lowest priority, lowest first.
        let mut claims = vec![0usize; n];
        let mut keep = vec![[NONE; MAX_CLAIMS]; n];
        for (slot, &[first, _]) in choice.iter().enumerate() {
            if first == NONE {
                continue;
            }
            claims[first as usize] += 1;
            // Insert into the sorted keep list; whoever falls off the end
            // is out.
            let mut carry = slot as u32;
            for kept in &mut keep[first as usize] {
                if *kept == NONE || priority(key, carry) < priority(key, *kept) {
                    std::mem::swap(kept, &mut carry);
                    if carry == NONE {
                        break;
                    }
                }
            }
        }
        let mut partner = vec![NONE; n];
        let mut handouts = Vec::new();
        for (slot, &[first, second]) in choice.iter().enumerate() {
            let me = NodeId::from_index(slot);
            partner[slot] = if first != NONE {
                let contested =
                    claims[first as usize] > MAX_CLAIMS && !keep[first as usize].contains(&me.0);
                if contested && second != NONE {
                    second
                } else {
                    first
                }
            } else if !alive(me) {
                continue;
            } else if let Some(relay) =
                self.rebootstrap(slot, &mut handouts, &mut rng, alive, reachable)
            {
                relay.0
            } else {
                self.stats.isolated += 1;
                continue;
            };
        }
        partner
    }

    /// Builds the round's exchange index from each slot's partner, with
    /// the length of every buffer.
    fn index(&mut self, partner: &[u32]) -> Exchanges {
        let n = self.views.len();
        let mut start = vec![0usize; n + 1];
        for (slot, &partner) in partner.iter().enumerate() {
            if partner != NONE {
                start[slot + 1] += 1;
                start[partner as usize + 1] += 1;
            }
        }
        for slot in 0..n {
            start[slot + 1] += start[slot];
        }
        let sides = start[n];
        self.stats.exchanges += sides as u64 / 2;
        // Initiators are visited in ascending order, so every slot's
        // sides come out in ascending initiator order. `given` counts the
        // view entries a slot's earlier buffers take.
        let mut next = start[..n].to_vec();
        let mut given = vec![0usize; n];
        let mut mirror = vec![0usize; sides];
        let mut buffer = vec![0usize; sides + 1];
        // Both sides of an exchange send a fresh self-entry plus equally
        // many view entries: up to `shuffle_len - 1`, and no more than
        // either side has not yet given away this round.
        let shuffle_len = self.shape.shuffle_len.min(n);
        for (slot, &partner) in partner.iter().enumerate() {
            if partner != NONE {
                let partner = partner as usize;
                let (mine, theirs) = (next[slot], next[partner]);
                next[slot] += 1;
                next[partner] += 1;
                mirror[mine] = theirs;
                mirror[theirs] = mine;
                let give = (shuffle_len - 1)
                    .min(self.views[slot].len() - given[slot])
                    .min(self.views[partner].len() - given[partner]);
                given[slot] += give;
                given[partner] += give;
                buffer[mine + 1] = 1 + give;
                buffer[theirs + 1] = 1 + give;
            }
        }
        for side in 0..sides {
            buffer[side + 1] += buffer[side];
        }
        let empty = ViewEntry {
            peer: NodeId(NONE),
            age: 0,
        };
        Exchanges {
            entries: vec![empty; buffer[sides]],
            start,
            mirror,
            buffer,
        }
    }

    /// Pass 3: every node fills the buffer of each of its exchange
    /// sides from its own view.
    fn draw(&self, exchanges: &mut Exchanges, workers: usize) {
        let n = self.views.len();
        let (seed, round, views) = (self.seed, self.round, &self.views);
        let Exchanges {
            start,
            buffer,
            entries,
            ..
        } = exchanges;
        let mut blocks = Vec::with_capacity(n.div_ceil(BLOCK));
        let mut rest = entries.as_mut_slice();
        for lo in (0..n).step_by(BLOCK) {
            let hi = (lo + BLOCK).min(n);
            let len = buffer[start[hi]] - buffer[start[lo]];
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(len);
            blocks.push(out);
            rest = tail;
        }
        for_each_chunk_mut(&mut blocks, 1, workers, |block, piece| {
            let mut rng = shuffle_stream(seed, round, block, Pass::Draw);
            // Worker-local, so no two workers write one cache line.
            let mut order = Vec::new();
            let lo = block * BLOCK;
            let base = buffer[start[lo]];
            for out in piece {
                for slot in lo..(lo + BLOCK).min(n) {
                    let view = &views[slot].entries;
                    let owner = NodeId::from_index(slot);
                    order.clear();
                    order.extend(0..view.len());
                    let mut drawn = 0;
                    for side in start[slot]..start[slot + 1] {
                        let buf = &mut out[buffer[side] - base..buffer[side + 1] - base];
                        fill_buffer(buf, view, owner, &mut order, &mut drawn, &mut rng);
                    }
                }
            }
        });
    }

    /// Pass 4: every node merges each buffer addressed to it, in
    /// ascending initiator order.
    fn merge_all(&mut self, exchanges: &Exchanges, workers: usize) {
        let (seed, round, shape) = (self.seed, self.round, self.shape);
        let Exchanges {
            start,
            mirror,
            buffer,
            entries,
        } = exchanges;
        for_each_chunk_mut(&mut self.views, BLOCK, workers, |offset, views| {
            let mut rng = shuffle_stream(seed, round, offset / BLOCK, Pass::Merge);
            // Worker-local, so no two workers write one cache line.
            let mut merged = Vec::new();
            for (j, view) in views.iter_mut().enumerate() {
                let slot = offset + j;
                let me = NodeId::from_index(slot);
                for side in start[slot]..start[slot + 1] {
                    let other = mirror[side];
                    let received = &entries[buffer[other]..buffer[other + 1]];
                    let sent = &entries[buffer[side]..buffer[side + 1]];
                    merge(view, me, received, sent, &shape, &mut merged, &mut rng);
                }
            }
        });
    }

    /// Refills an empty (or fully unreachable) view through a live,
    /// reachable relay: the relay itself plus a sample of the relay's
    /// view, gathered in `handouts`. Returns the relay as the round's
    /// partner.
    fn rebootstrap(
        &mut self,
        slot: usize,
        handouts: &mut Vec<NodeId>,
        rng: &mut SimRng,
        alive: &impl Fn(NodeId) -> bool,
        reachable: &impl Fn(NodeId, NodeId) -> bool,
    ) -> Option<NodeId> {
        let me = NodeId::from_index(slot);
        let relay = (0..self.config.relays)
            .map(NodeId::from_index)
            .find(|&r| r != me && alive(r) && reachable(me, r))?;
        // Sample up to fanout-1 handout peers from the relay's view
        // before touching our own.
        let relay_view = &self.views[relay.index()];
        handouts.clear();
        // Capped at the population like the bootstrap loop.
        let n = self.views.len();
        let fanout = self.shape.relay_fanout.min(n - 1);
        let mut budget = 2usize.saturating_mul(self.shape.relay_fanout.min(n));
        while handouts.len() + 1 < fanout && budget > 0 {
            budget -= 1;
            match relay_view.sample(rng) {
                Some(p) if p != me && !handouts.contains(&p) => handouts.push(p),
                Some(_) => {}
                None => break,
            }
        }
        let view = &mut self.views[slot];
        view.insert_fresh(relay);
        for &p in handouts.iter() {
            view.insert_fresh(p);
        }
        self.stats.rebootstraps += 1;
        Some(relay)
    }
}

/// Pass 1 for one live node: ages `view`, drops dead entries while the
/// oldest one is dead, and returns its oldest and second-oldest live,
/// reachable entries (the first of equals wins; [`NONE`] if absent).
/// Unreachable-but-alive entries are kept — the partition will heal.
fn choose_partners(
    view: &mut PartialView,
    me: NodeId,
    alive: &impl Fn(NodeId) -> bool,
    reachable: &impl Fn(NodeId, NodeId) -> bool,
    pruned: &mut u64,
) -> [u32; 2] {
    // One scan ages every entry and finds both the oldest entry and the
    // two oldest live, reachable ones. Pruning dead entries afterwards
    // leaves the live ones, and so the two picks, as they are.
    let mut oldest: Option<usize> = None;
    let mut best: [Option<ViewEntry>; 2] = [None, None];
    for i in 0..view.entries.len() {
        let e = &mut view.entries[i];
        e.age = e.age.saturating_add(1);
        let e = *e;
        if oldest.is_none_or(|o| e.age > view.entries[o].age) {
            oldest = Some(i);
        }
        if !(alive(e.peer) && reachable(me, e.peer)) {
            continue;
        }
        if best[0].is_none_or(|b| e.age > b.age) {
            best = [Some(e), best[0]];
        } else if best[1].is_none_or(|b| e.age > b.age) {
            best[1] = Some(e);
        }
    }
    while let Some(i) = oldest {
        if alive(view.entries[i].peer) {
            break;
        }
        view.entries.remove(i);
        *pruned += 1;
        oldest = view.oldest();
    }
    best.map(|e| e.map_or(NONE, |e| e.peer.0))
}

/// Fills `buffer` with `owner`'s fresh self-entry followed by
/// `buffer.len() - 1` distinct entries of `view`, drawn by partial
/// Fisher–Yates over the view's positions `order`.
///
/// The draw continues the permutation its owner's earlier buffers of
/// the round left in `order` (`drawn` positions in): a node never gives
/// away one entry twice in a round, as in a sequential sweep, where
/// each exchange swaps out what it sent. The index step sizes the
/// buffers so that a view always has enough entries left.
fn fill_buffer(
    buffer: &mut [ViewEntry],
    view: &[ViewEntry],
    owner: NodeId,
    order: &mut [usize],
    drawn: &mut usize,
    rng: &mut SimRng,
) {
    let Some((first, rest)) = buffer.split_first_mut() else {
        return;
    };
    *first = ViewEntry {
        peer: owner,
        age: 0,
    };
    for out in rest {
        let k = *drawn;
        let pick = k + index_below(rng, order.len() - k);
        order.swap(k, pick);
        *out = view[order[k]];
        *drawn += 1;
    }
}

/// Merges `received` into `me`'s view, evicting per the framework's
/// healing / swap / random discipline. `sent` is what `me` pushed out
/// in the same exchange (the swap candidates).
///
/// The merge works in `merged`, so the view itself never grows past its
/// capacity. Healing and swap evictions are marked and dropped in one
/// pass, which keeps the survivors' order, so "oldest", "sent" and the
/// random index all see what one removal after another would leave.
fn merge(
    view: &mut PartialView,
    me: NodeId,
    received: &[ViewEntry],
    sent: &[ViewEntry],
    shape: &ExchangeShape,
    merged: &mut Vec<ViewEntry>,
    rng: &mut SimRng,
) {
    const GONE: NodeId = NodeId(NONE);
    let cap = view.capacity;
    merged.clear();
    merged.extend_from_slice(&view.entries);
    // A buffer holds distinct peers, so only the entries held before
    // this merge can duplicate one. A 128-bit hash mask of the peers
    // present lets most new peers skip the scan.
    let held = merged.len();
    let bit = |peer: NodeId| 1u128 << (peer.0 & 127);
    let mut mask = merged.iter().fold(0u128, |m, e| m | bit(e.peer));
    for e in received {
        if e.peer == me {
            continue;
        }
        if mask & bit(e.peer) != 0 {
            if let Some(have) = merged[..held].iter_mut().find(|have| have.peer == e.peer) {
                have.age = have.age.min(e.age);
                continue;
            }
        }
        merged.push(*e);
        mask |= bit(e.peer);
    }
    let mut excess = merged.len().saturating_sub(cap);
    // Healing: evict the oldest first.
    for _ in 0..shape.healing.min(excess) {
        let mut oldest: Option<usize> = None;
        for (i, e) in merged.iter().enumerate() {
            if e.peer != GONE && oldest.is_none_or(|o| e.age > merged[o].age) {
                oldest = Some(i);
            }
        }
        if let Some(i) = oldest {
            merged[i].peer = GONE;
            excess -= 1;
        }
    }
    // Swap: evict what we just sent. `me`'s own entry is never held.
    let mut swap_left = shape.swap;
    for candidate in sent {
        if excess == 0 || swap_left == 0 {
            break;
        }
        if candidate.peer == me || mask & bit(candidate.peer) == 0 {
            continue;
        }
        if let Some(e) = merged.iter_mut().find(|e| e.peer == candidate.peer) {
            e.peer = GONE;
            excess -= 1;
            swap_left -= 1;
        }
    }
    let mut kept = 0;
    for read in 0..merged.len() {
        let e = merged[read];
        merged[kept] = e;
        kept += usize::from(e.peer != GONE);
    }
    merged.truncate(kept);
    // Random: trim the remainder.
    while merged.len() > cap {
        merged.remove(index_below(rng, merged.len()));
    }
    view.entries.clear();
    view.entries.extend_from_slice(merged);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn overlay(n: usize, seed: u64) -> MembershipRuntime {
        MembershipRuntime::new(n, MembershipConfig::default(), seed).expect("valid")
    }

    fn everyone_up(runtime: &mut MembershipRuntime, rounds: usize) {
        for _ in 0..rounds {
            runtime.shuffle_round(|_| true, |_, _| true);
        }
    }

    fn assert_invariants(runtime: &MembershipRuntime) {
        for (slot, view) in runtime.views().iter().enumerate() {
            assert!(view.len() <= view.capacity(), "slot {slot} over capacity");
            assert!(
                !view.contains(NodeId::from_index(slot)),
                "slot {slot} holds a self-entry"
            );
            let mut peers: Vec<u32> = view.peers().map(|p| p.0).collect();
            peers.sort_unstable();
            let before = peers.len();
            peers.dedup();
            assert_eq!(before, peers.len(), "slot {slot} holds duplicates");
        }
    }

    #[test]
    fn config_validation_names_bad_fields() {
        let defaults = MembershipConfig::default();
        let config = MembershipConfig {
            view_size: 0,
            ..defaults
        };
        assert!(config.validate().unwrap_err().contains("view_size"));
        let config = MembershipConfig {
            relays: 0,
            ..defaults
        };
        assert!(config.validate().unwrap_err().contains("relay"));
        assert!(MembershipConfig::default().validate().is_ok());
    }

    #[test]
    fn exchange_shape_follows_the_view_size() {
        // (view_size, shuffle_len, healing, swap, relay_fanout): half-view
        // exchanges, healing 1, swap the rest, a handout of at most 8.
        let cases = [
            (1, 1, 1, 0, 1),
            (2, 1, 1, 0, 2),
            (4, 2, 1, 1, 4),
            (6, 3, 1, 2, 6),
            (8, 4, 1, 3, 8),
            (16, 8, 1, 7, 8),
            (17, 8, 1, 7, 8),
            (1_000_000_000, 500_000_000, 1, 499_999_999, 8),
        ];
        for (view_size, shuffle_len, healing, swap, relay_fanout) in cases {
            let expected = ExchangeShape {
                shuffle_len,
                healing,
                swap,
                relay_fanout,
            };
            assert_eq!(ExchangeShape::of(view_size), expected, "{view_size}");
            let config = MembershipConfig {
                view_size,
                ..MembershipConfig::default()
            };
            let runtime = MembershipRuntime::new(40, config, 1).expect("valid");
            assert_eq!(runtime.shape, expected, "{view_size}");
        }
        // The default: 16 / 8 / 1 / 7, three relays, handout 8.
        let defaults = MembershipConfig::default();
        assert_eq!((defaults.view_size, defaults.relays), (16, 3));
        assert_eq!(
            ExchangeShape::of(defaults.view_size),
            ExchangeShape {
                shuffle_len: 8,
                healing: 1,
                swap: 7,
                relay_fanout: 8,
            }
        );
    }

    #[test]
    fn bootstrap_seeds_every_view_through_relays() {
        let runtime = overlay(64, 7);
        assert_invariants(&runtime);
        for (slot, view) in runtime.views().iter().enumerate() {
            assert!(!view.is_empty(), "slot {slot} starts with an empty view");
            if slot >= runtime.config.relays {
                let relay = NodeId::from_index(slot % runtime.config.relays);
                assert!(view.contains(relay), "slot {slot} misses its relay");
            }
        }
    }

    #[test]
    fn invariants_hold_across_many_rounds() {
        let mut runtime = overlay(48, 11);
        for round in 0..40 {
            runtime.shuffle_round(|_| true, |_, _| true);
            assert_invariants(&runtime);
            let max_age = runtime
                .views()
                .iter()
                .flat_map(|v| v.entries().iter().map(|e| e.age))
                .max()
                .unwrap_or(0);
            // A round ages every view once, before any exchange, so an
            // entry grows by at most one per round; two per round bounds
            // it loosely, never unbounded.
            assert!(
                u64::from(max_age) <= 2 * (round + 1),
                "round {round}: age {max_age} outgrew the sweep bound"
            );
        }
    }

    #[test]
    fn shuffling_is_deterministic_given_seed() {
        let run = |seed| {
            let mut runtime = overlay(32, seed);
            everyone_up(&mut runtime, 20);
            runtime.views().to_vec()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds explore different views");
    }

    #[test]
    fn dead_entries_are_pruned_and_views_heal() {
        let mut runtime = overlay(32, 13);
        everyone_up(&mut runtime, 10);
        // Kill the top half; survivors' views must shed them.
        let alive = |n: NodeId| n.index() < 16;
        for _ in 0..30 {
            runtime.shuffle_round(alive, |_, _| true);
        }
        for slot in 0..16 {
            for peer in runtime.views()[slot].peers() {
                assert!(alive(peer), "slot {slot} still references dead peer {peer}");
            }
        }
        assert!(runtime.stats().pruned > 0);
    }

    #[test]
    fn empty_view_rebootstraps_through_a_live_relay() {
        let mut runtime = overlay(16, 17);
        // Empty one node's view by hand.
        runtime.views[9] = PartialView::new(runtime.config.view_size);
        runtime.shuffle_round(|_| true, |_, _| true);
        assert!(!runtime.views()[9].is_empty(), "rebootstrap refilled it");
        assert!(runtime.stats().rebootstraps >= 1);
    }

    #[test]
    fn huge_fanout_returns_promptly_with_views_capped_at_the_population() {
        // The bootstrap, re-bootstrap and exchange loops used to budget
        // `4 × relay_fanout` (or `shuffle_len`) draws for a view that can
        // never hold more than n - 1 peers: a 2^40 fanout spun for
        // trillions of draws. The 2^40 view still derives a 2^39
        // exchange length; capped at the population, this finishes in a
        // few thousand draws.
        let huge = 1usize << 40;
        let config = MembershipConfig {
            view_size: huge,
            ..MembershipConfig::default()
        };
        let n = 50;
        let mut runtime = MembershipRuntime::new(n, config, 29).expect("valid");
        assert_invariants(&runtime);
        assert!(runtime.views().iter().all(|v| !v.is_empty() && v.len() < n));
        for _ in 0..3 {
            runtime.shuffle_round(|_| true, |_, _| true);
            assert_invariants(&runtime);
        }
        runtime.views[9] = PartialView::new(huge);
        let mut rng = SimRng::seed_from_u64(31);
        let relay = runtime.rebootstrap(9, &mut Vec::new(), &mut rng, &|_| true, &|_, _| true);
        assert_eq!(relay, Some(NodeId(0)));
        assert!(!runtime.views()[9].is_empty());
        assert_invariants(&runtime);
        assert!(runtime.views().iter().all(|v| v.len() < n));
    }

    #[test]
    fn all_relays_dead_leaves_empty_views_isolated() {
        let mut runtime = overlay(16, 19);
        runtime.views[9] = PartialView::new(runtime.config.view_size);
        // Only node 9 is up: no relay to re-bootstrap through, and no
        // live peer whose outbound exchange could refill it.
        runtime.shuffle_round(|n| n.index() == 9, |_, _| true);
        assert!(
            runtime.views()[9].is_empty(),
            "no relay reachable, no recovery"
        );
        assert_eq!(runtime.stats().isolated, 1);
        // A recovered relay ends the isolation (through its own
        // outbound exchange or by serving a re-bootstrap).
        runtime.shuffle_round(|n| n.index() == 9 || n.index() == 0, |_, _| true);
        assert!(!runtime.views()[9].is_empty());
    }

    #[test]
    fn partition_gates_partner_choice_without_eviction() {
        let mut runtime = overlay(32, 23);
        everyone_up(&mut runtime, 8);
        // Split even/odd; exchanges must stay within a side.
        let same_side = |a: NodeId, b: NodeId| a.index() % 2 == b.index() % 2;
        let snapshot: Vec<usize> = runtime.views().iter().map(|v| v.len()).collect();
        runtime.shuffle_round(|_| true, same_side);
        // Unreachable peers were not evicted (the partition heals).
        for (slot, view) in runtime.views().iter().enumerate() {
            assert!(
                view.len() + 2 >= snapshot[slot].min(view.capacity()),
                "slot {slot} lost entries to a transient partition"
            );
        }
    }

    #[test]
    fn population_must_exceed_relay_set() {
        assert!(MembershipRuntime::new(3, MembershipConfig::default(), 1).is_err());
        let config = MembershipConfig::default();
        let err = config.validate_for(config.relays).unwrap_err();
        assert!(
            err.contains("more nodes") && err.contains("relays"),
            "{err}"
        );
        assert!(config.validate_for(config.relays + 1).is_ok());
        // A bad field is reported ahead of the population check.
        let bad = MembershipConfig {
            view_size: 0,
            ..config
        };
        assert!(bad.validate_for(1000).unwrap_err().contains("view_size"));
    }

    /// A churned, partitioned population for the worker-count and claim
    /// tests: three blocks and a bit, so blocks meet mid-exchange.
    const BLOCKS_N: usize = 3 * BLOCK + 77;

    fn churned(round: u64, node: NodeId) -> bool {
        // A fifth of the population is down, a different fifth each round.
        !(u64::from(node.0) * 0x9E37_79B9 + round * 0x85EB_CA6B).is_multiple_of(5)
    }

    fn split(round: u64, a: NodeId, b: NodeId) -> bool {
        // Rounds 3..6 split the population into two halves.
        !(3..6).contains(&round) || (a.index() < BLOCKS_N / 2) == (b.index() < BLOCKS_N / 2)
    }

    #[test]
    fn worker_count_never_changes_the_views() {
        let run = |workers: usize| {
            let mut runtime = overlay(BLOCKS_N, 37);
            for round in 0..12 {
                runtime.shuffle_round_on(
                    workers,
                    |node| churned(round, node),
                    |a, b| split(round, a, b),
                );
            }
            // Empty a few views, relays included, so the round also
            // re-bootstraps.
            for slot in [1, 700, 2_500] {
                runtime.views[slot] = PartialView::new(runtime.config.view_size);
            }
            runtime.shuffle_round_on(workers, |node| churned(12, node), |_, _| true);
            runtime
        };
        let reference = run(1);
        assert_invariants(&reference);
        let stats = reference.stats();
        assert!(stats.pruned > 0 && stats.rebootstraps > 0, "{stats:?}");
        for workers in [2, 5] {
            let other = run(workers);
            assert_eq!(other.stats(), stats, "{workers} workers");
            assert!(
                other.views() == reference.views(),
                "{workers} workers diverged from one"
            );
        }
    }

    #[test]
    fn claim_step_caps_first_choice_claimants() {
        // Round one: every view starts with its relay, so each relay is
        // the oldest entry of a third of the population.
        let mut runtime = overlay(BLOCKS_N, 41);
        let up = |_: NodeId| true;
        let reachable = |_: NodeId, _: NodeId| true;
        let choice = runtime.choose(1, &up, &reachable);
        let partner = runtime.claim(&choice, &up, &reachable);
        let mut claims = vec![0usize; BLOCKS_N];
        for &[first, _] in &choice {
            assert_ne!(first, NONE, "a slot found no partner");
            claims[first as usize] += 1;
        }
        assert!(claims[0] > 1_000, "relay 0 named first {} times", claims[0]);
        let mut kept = vec![0usize; BLOCKS_N];
        for (slot, &[first, second]) in choice.iter().enumerate() {
            if partner[slot] == first {
                kept[first as usize] += 1;
            } else {
                assert_eq!(
                    partner[slot], second,
                    "slot {slot} moved off its second choice"
                );
                assert!(claims[first as usize] > MAX_CLAIMS);
            }
        }
        let most = kept.iter().copied().max().unwrap_or(0);
        assert!(
            most <= MAX_CLAIMS,
            "a partner kept {most} first-choice claimants"
        );
        assert_eq!(kept[0], MAX_CLAIMS, "relay 0 keeps its two claimants");
    }

    #[test]
    fn index_below_stays_in_range_and_covers_it() {
        let mut rng = SimRng::seed_from_u64(43);
        assert_eq!(index_below(&mut rng, 1), 0);
        let mut seen = [0u32; 7];
        for _ in 0..7_000 {
            seen[index_below(&mut rng, 7)] += 1;
        }
        assert!(seen.iter().all(|&c| (800..1_200).contains(&c)), "{seen:?}");
        assert!(index_below(&mut rng, usize::MAX) < usize::MAX);
    }

    #[test]
    fn huge_view_bound_allocates_nothing_up_front() {
        // The view size is a bound, and a view reserves no more than the
        // population: a 10^9-entry bound over 40 nodes runs like any
        // bound the views never reach.
        let shaped = |view_size: usize| MembershipConfig {
            view_size,
            ..MembershipConfig::default()
        };
        let mut huge = MembershipRuntime::new(40, shaped(1_000_000_000), 5).expect("valid");
        let mut small = MembershipRuntime::new(40, shaped(1_000), 5).expect("valid");
        for _ in 0..3 {
            huge.shuffle_round(|_| true, |_, _| true);
            small.shuffle_round(|_| true, |_, _| true);
        }
        assert_eq!(huge.stats(), small.stats());
        assert!(huge.stats().exchanges > 0);
        for (a, b) in huge.views().iter().zip(small.views()) {
            assert_eq!(a.entries(), b.entries());
        }
    }
}
