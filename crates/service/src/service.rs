//! The long-lived [`TrustService`]: epoch-committed streaming trust.
//!
//! # Delta path
//!
//! The batch scenario engine rebuilds nothing per round *within* a run,
//! but every run starts from scratch. The service goes one step
//! further: it is the run. Events stream in, are staged inside the
//! open epoch, and at each epoch boundary the whole batch is applied as
//! **deltas** to the resident mechanism — `record_batch` updates the
//! CSR `LocalMatrix` rows in place through the run-locality upsert
//! memo, and one `refresh` re-iterates the walk from the previous
//! stationary solution's matrix. Nothing is rebuilt from the event
//! history; cost per epoch is proportional to *new* events, not to the
//! service's age.
//!
//! # Staleness contract
//!
//! Queries are answered from the last committed epoch: a query at sim
//! time `t` sees every event with `at < as_of` where `as_of` is the
//! latest epoch boundary at or before `t`, so staleness is bounded by
//! one epoch length. The trade is deliberate — commit-batched updates
//! are what keep the ingest path allocation-free and the stream
//! bit-identical to a batch run (the per-epoch `record_batch` order is
//! the arrival order, exactly the fixed merge order an equivalent
//! batch run uses).
//!
//! # Checkpoint format
//!
//! [`TrustService::checkpoint`] serializes the complete service state
//! as length-prefixed binary (magic `TSNSVCKP`, version
//! [`CHECKPOINT_VERSION`]; see `tsn_simnet::codec`). After the header
//! the body is a fixed sequence of **checksummed sections**
//! ([`CHECKPOINT_SECTIONS`]): each section is its CRC-32 followed by
//! its length-prefixed payload, so restore can tell *which* section a
//! corruption hit — a torn write truncates from some section onward, a
//! flipped bit fails exactly one section's CRC — and a recovery layer
//! can fall back to an older checkpoint instead of dying. Restore
//! rejects unknown magic/version, truncation, corruption and trailing
//! garbage (each error naming the section), and reproduces the service
//! **bit-identically**: continuing a restored service equals never
//! having checkpointed, down to the float bits — including checkpoints
//! taken mid-epoch and mid-partition-window (partition windows are
//! evaluated as a pure function of the clock, so no window state needs
//! to travel). The clock section also carries an opaque journal cursor
//! ([`TrustService::checkpoint_with_cursor`]) so a write-ahead journal
//! knows where replay resumes after this checkpoint.

use crate::event::{ServiceEvent, ServiceOp};
use tsn_reputation::{
    build_mechanism, DisclosurePolicy, FeedbackReport, MechanismKind, ReputationMechanism,
};
use tsn_simnet::codec::{crc32, ByteReader, ByteWriter};
use tsn_simnet::steal::for_each_chunk_mut;
use tsn_simnet::{GroupMap, NodeId, PartitionWindow, SimDuration, SimTime};

/// Magic bytes opening every checkpoint.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"TSNSVCKP";

/// Version of the checkpoint layout. Bumped on any layout change;
/// restore refuses other versions rather than guessing. Version 2
/// introduced per-section CRCs and the journal cursor; version 3
/// added the membership-overlay configuration to the config section;
/// version 4 dropped it again (the overlay shapes the workload driver,
/// not the service).
pub const CHECKPOINT_VERSION: u32 = 4;

/// Names of the checkpoint's checksummed sections, in layout order.
pub const CHECKPOINT_SECTIONS: [&str; 7] = [
    "config",
    "clock",
    "stats",
    "staged",
    "exposure",
    "samples",
    "mechanism",
];

/// One parsed (not decoded) checkpoint section — the framing view that
/// [`checkpoint_sections`] returns for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSection {
    /// The section's name (an entry of [`CHECKPOINT_SECTIONS`]).
    pub name: &'static str,
    /// Byte offset of the section's payload within the checkpoint.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// Whether the stored CRC matches the payload.
    pub crc_ok: bool,
}

/// Walks a checkpoint's section framing without decoding anything,
/// reporting each section's position and whether its CRC holds — the
/// diagnostic view behind "which section is corrupt?" tooling.
///
/// # Errors
///
/// Rejects bad magic, unsupported versions, framing truncated before
/// the sections complete, and trailing garbage.
pub fn checkpoint_sections(bytes: &[u8]) -> Result<Vec<CheckpointSection>, String> {
    let mut r = ByteReader::new(bytes);
    r.set_context("header");
    if r.take_bytes()? != CHECKPOINT_MAGIC {
        return Err("not a TrustService checkpoint (bad magic)".into());
    }
    let version = r.take_u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "unsupported checkpoint version {version} (this build reads {CHECKPOINT_VERSION})"
        ));
    }
    let mut sections = Vec::with_capacity(CHECKPOINT_SECTIONS.len());
    for name in CHECKPOINT_SECTIONS {
        r.set_context(name);
        let stored = r.take_u32()?;
        let payload = r.take_bytes()?;
        sections.push(CheckpointSection {
            name,
            offset: r.position() - payload.len(),
            len: payload.len(),
            crc_ok: crc32(payload) == stored,
        });
    }
    if !r.is_empty() {
        return Err(format!("checkpoint has {} trailing bytes", r.remaining()));
    }
    Ok(sections)
}

/// Reads the journal cursor embedded in a checkpoint's clock section
/// without restoring the service — what a storage layer uses to decide
/// which journal segments the checkpoint still needs (everything below
/// the smallest retained cursor is garbage).
///
/// # Errors
///
/// Propagates framing errors and rejects a corrupt or malformed clock
/// section; a caller that gets an error must treat the checkpoint's
/// cursor as unknown (i.e. keep the whole journal).
pub fn checkpoint_cursor(bytes: &[u8]) -> Result<u64, String> {
    cursor_in(bytes, &checkpoint_sections(bytes)?)
}

/// [`checkpoint_cursor`] over an already-walked section table, so a
/// caller that needs both the table and the cursor walks (and CRCs)
/// the checkpoint once.
pub(crate) fn cursor_in(bytes: &[u8], sections: &[CheckpointSection]) -> Result<u64, String> {
    let clock = sections
        .iter()
        .find(|s| s.name == "clock")
        .ok_or("checkpoint section table has no 'clock' section")?;
    if !clock.crc_ok {
        return Err("checkpoint section 'clock' is corrupt".into());
    }
    let payload = &bytes[clock.offset..clock.offset + clock.len];
    // now, as_of, epoch_index, epoch_rejected, journal_cursor — 5 u64s.
    if payload.len() != 40 {
        return Err(format!(
            "checkpoint clock section is {} bytes, expected 40",
            payload.len()
        ));
    }
    Ok(u64::from_le_bytes(
        // tsn-lint: allow(no-unwrap, "the 40-byte payload length is checked on the lines above; the fixed-offset slice is 8 bytes")
        payload[32..40].try_into().expect("8-byte slice"),
    ))
}

/// Configuration of a [`TrustService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Population size (fixed for the service's lifetime).
    pub nodes: usize,
    /// Reputation mechanism answering trust queries.
    pub mechanism: MechanismKind,
    /// Commit cadence: events become query-visible at each epoch
    /// boundary, so this is also the staleness bound.
    pub epoch: SimDuration,
    /// Disclosure ladder rung (0 = anonymous bit only … 4 = full
    /// reports), applied to every interaction before it reaches the
    /// mechanism.
    pub disclosure_level: usize,
    /// Partition windows (sorted, non-overlapping): while a window is
    /// active, interactions between nodes in different contiguous
    /// groups are rejected — the service treats an active window as a
    /// reachability split, regardless of the window's probabilistic
    /// loss fields (those model the message layer, which the abstract
    /// service does not simulate). Evaluated as a pure function of the
    /// event clock, which is what makes mid-window checkpoints exact.
    pub partitions: Vec<PartitionWindow>,
    /// Worker threads for building each epoch commit's report batch
    /// (per-shard staging + fixed-order merge; the result is
    /// shard-count-invariant down to the bits). `1` commits serially,
    /// `0` uses the machine's available parallelism. This is an
    /// execution knob, not state: checkpoints do not carry it, and a
    /// restored service commits serially until
    /// [`TrustService::set_commit_shards`] is called (the host does
    /// this on recovery).
    pub commit_shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            nodes: 100,
            mechanism: MechanismKind::EigenTrust,
            epoch: SimDuration::from_secs(60),
            disclosure_level: 4,
            partitions: Vec::new(),
            commit_shards: 1,
        }
    }
}

impl ServiceConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("nodes must be positive".into());
        }
        if self.epoch == SimDuration::ZERO {
            return Err("epoch must be positive".into());
        }
        if self.disclosure_level > 4 {
            return Err(format!(
                "disclosure_level must be 0..=4, got {}",
                self.disclosure_level
            ));
        }
        PartitionWindow::validate_schedule(&self.partitions)?;
        Ok(())
    }
}

/// Whether an ingested event was accepted into the open epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Staged; becomes query-visible at the next epoch boundary.
    Accepted,
    /// Dropped: the endpoints are on opposite sides of an active
    /// partition window.
    Rejected,
}

/// Per-node exposure counters (committed visibility, like scores).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ExposureCell {
    disclosures: u64,
    breaches: u64,
}

/// How fresh a query answer is — every answer carries one of these so
/// callers can tell a normal bounded-staleness read from a read served
/// while the service is catching up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staleness {
    /// Normal operation: the answer reflects the last committed epoch
    /// and lags the query clock by less than one epoch.
    Bounded,
    /// Served during recovery or a behind-schedule commit: still the
    /// last *committed* state, but the lag may exceed the epoch bound.
    /// The explicit marker is the contract — degraded reads answer
    /// immediately instead of blocking, and say so.
    Degraded,
}

/// Answer to a trust query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustQueryResult {
    /// The node's score in `[0, 1]`, as of the last committed epoch.
    pub score: f64,
    /// The commit point the answer reflects (end of the last committed
    /// epoch; [`SimTime::ZERO`] before the first commit).
    pub as_of: SimTime,
    /// How far the answer lags the query clock; bounded by one epoch
    /// once the first epoch has committed (unless
    /// [`Staleness::Degraded`]).
    pub staleness: SimDuration,
    /// Whether the staleness bound held for this answer.
    pub mode: Staleness,
}

/// Answer to an exposure query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExposureQueryResult {
    /// Committed disclosure events about the node.
    pub disclosures: u64,
    /// Committed disclosures that broke the owner's policy.
    pub breaches: u64,
    /// `1 − breaches / disclosures` (1.0 when nothing was disclosed).
    pub respect_rate: f64,
    /// The commit point the answer reflects.
    pub as_of: SimTime,
    /// How far the answer lags the query clock.
    pub staleness: SimDuration,
    /// Whether the staleness bound held for this answer.
    pub mode: Staleness,
}

/// One committed epoch's summary — the service's output series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// The epoch index (epoch `e` covers `[e·epoch, (e+1)·epoch)`).
    pub epoch: u64,
    /// Events committed at this boundary.
    pub committed: u64,
    /// Events rejected during this epoch (partition drops).
    pub rejected: u64,
    /// Mechanism iterations spent by this commit's refresh.
    pub refresh_iterations: u64,
    /// Population mean trust score after the commit.
    pub mean_score: f64,
}

/// Lifetime counters of a service instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Events accepted into an epoch.
    pub ingested: u64,
    /// Events rejected by partition gating.
    pub rejected: u64,
    /// Queries answered (trust + exposure).
    pub queries: u64,
    /// Epoch commits performed.
    pub commits: u64,
    /// Total mechanism iterations across all refreshes.
    pub refresh_iterations: u64,
}

/// A long-lived, incrementally updated trust service.
///
/// ```
/// use tsn_service::{ServiceConfig, ServiceEvent, TrustService};
/// use tsn_reputation::InteractionOutcome;
/// use tsn_simnet::{NodeId, SimDuration, SimTime};
///
/// let mut service = TrustService::new(ServiceConfig {
///     nodes: 3,
///     epoch: SimDuration::from_secs(10),
///     ..ServiceConfig::default()
/// })
/// .unwrap();
/// service
///     .ingest(ServiceEvent::Interaction {
///         rater: NodeId(0),
///         ratee: NodeId(1),
///         outcome: InteractionOutcome::Success { quality: 1.0 },
///         at: SimTime::from_secs(1),
///     })
///     .unwrap();
/// // Crossing the epoch boundary commits the staged event.
/// let q = service.query_trust(NodeId(1), SimTime::from_secs(11)).unwrap();
/// assert_eq!(q.as_of, SimTime::from_secs(10));
/// assert!(q.score > 0.0);
/// ```
#[derive(Debug)]
pub struct TrustService {
    config: ServiceConfig,
    policy: DisclosurePolicy,
    mechanism: Box<dyn ReputationMechanism>,
    /// The service clock: the latest event/query time seen.
    now: SimTime,
    /// End of the last committed epoch; what queries reflect.
    as_of: SimTime,
    /// Index of the open (uncommitted) epoch.
    epoch_index: u64,
    /// Accepted events of the open epoch, in arrival order.
    staged: Vec<ServiceEvent>,
    /// Events rejected inside the open epoch (for the next sample).
    epoch_rejected: u64,
    /// Committed per-node exposure counters.
    exposure: Vec<ExposureCell>,
    /// One sample per committed epoch.
    samples: Vec<EpochSample>,
    stats: ServiceStats,
    /// Commit scratch: report views built per batch, capacity reused.
    views: Vec<tsn_reputation::ReportView>,
    /// Lazily built group map of the partition window under the clock.
    partition_cache: Option<(usize, GroupMap)>,
}

impl TrustService {
    /// Creates a service at sim time zero.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error.
    pub fn new(config: ServiceConfig) -> Result<Self, String> {
        config.validate()?;
        let mechanism = build_mechanism(config.mechanism, config.nodes);
        Ok(TrustService {
            policy: DisclosurePolicy::ladder(config.disclosure_level),
            mechanism,
            now: SimTime::ZERO,
            as_of: SimTime::ZERO,
            epoch_index: 0,
            staged: Vec::new(),
            epoch_rejected: 0,
            exposure: vec![ExposureCell::default(); config.nodes],
            samples: Vec::new(),
            stats: ServiceStats::default(),
            views: Vec::new(),
            partition_cache: None,
            config,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The service clock (latest event/query time seen).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The commit point queries currently reflect.
    pub fn as_of(&self) -> SimTime {
        self.as_of
    }

    /// Index of the open epoch.
    pub fn epoch_index(&self) -> u64 {
        self.epoch_index
    }

    /// Events staged in the open epoch (not yet query-visible).
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// One sample per committed epoch, in order.
    pub fn samples(&self) -> &[EpochSample] {
        &self.samples
    }

    /// All committed scores, indexed by node.
    pub fn scores(&self) -> Vec<f64> {
        self.mechanism.scores()
    }

    /// `node`'s committed score without touching the clock (the
    /// query-mix path is [`TrustService::query_trust`]).
    pub fn score(&self, node: NodeId) -> f64 {
        self.mechanism.score(node)
    }

    /// Start of epoch `e`, saturating at the horizon.
    fn epoch_start(&self, e: u64) -> SimTime {
        match self.config.epoch.as_micros().checked_mul(e) {
            Some(us) => SimTime::from_micros(us),
            None => SimTime::MAX,
        }
    }

    /// End of epoch `e` (start of `e + 1`), saturating at the horizon.
    pub fn epoch_end(&self, e: u64) -> SimTime {
        match e.checked_add(1) {
            Some(next) => self.epoch_start(next),
            None => SimTime::MAX,
        }
    }

    /// Advances the service clock, committing every epoch whose end is
    /// at or before `at`. An epoch whose end saturates to the horizon
    /// ([`SimTime::MAX`]) never closes: the loop stops instead of
    /// spinning, so a service driven to the horizon stays queryable.
    ///
    /// # Errors
    ///
    /// The clock is monotone: rewinding is an error.
    pub fn advance_to(&mut self, at: SimTime) -> Result<(), String> {
        if at < self.now {
            return Err(format!(
                "service clock is monotone: {}us precedes {}us",
                at.as_micros(),
                self.now.as_micros()
            ));
        }
        loop {
            let end = self.epoch_end(self.epoch_index);
            if end == SimTime::MAX || at < end {
                break;
            }
            self.commit_epoch(end);
        }
        self.now = at;
        Ok(())
    }

    /// The configured commit shard count with `0` (auto) resolved.
    fn effective_commit_shards(&self) -> usize {
        match self.config.commit_shards {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// Overrides the commit shard count. The knob is execution-only
    /// (never serialized), so a recovery layer calls this after a
    /// restore to bring a recovered service back to its configured
    /// parallelism. Any value is sound: shard count never changes the
    /// committed bits, only how the batch is built.
    pub fn set_commit_shards(&mut self, shards: usize) {
        self.config.commit_shards = shards;
    }

    /// Commits the open epoch at boundary `end`: applies the staged
    /// batch to the mechanism in arrival order, refreshes, samples.
    fn commit_epoch(&mut self, end: SimTime) {
        // Staging: workers claim contiguous parts through the shared
        // work-stealing helper and build each part's report views and
        // disclosure deltas independently (`DisclosurePolicy::view` is
        // pure). The merge below re-applies them in ascending part
        // order, so the final view order is exactly the arrival order
        // and the commit is shard-count-invariant down to the bits. One
        // shard, or a batch too small to split, is one part run inline.
        let shards = match self.effective_commit_shards() {
            n if n > 1 && self.staged.len() >= n * 2 => n,
            _ => 1,
        };
        // `max(1)`: an empty epoch still commits, as zero parts.
        let chunk = self.staged.len().div_ceil(shards).max(1);
        let policy = self.policy;
        // One part per chunk: its events, their views, their
        // (node, respected) disclosure deltas. The first part stages
        // into the reused view scratch.
        let mut scratch = std::mem::take(&mut self.views);
        scratch.clear();
        let mut scratch = Some(scratch);
        let mut parts: Vec<_> = self
            .staged
            .chunks(chunk)
            .map(|slice| {
                let mut views = scratch.take().unwrap_or_default();
                views.reserve(slice.len());
                (slice, views, Vec::new())
            })
            .collect();
        for_each_chunk_mut(&mut parts, 1, shards, |_, claimed| {
            for (slice, part_views, disclosures) in claimed {
                for event in slice.iter() {
                    match *event {
                        ServiceEvent::Interaction {
                            rater,
                            ratee,
                            outcome,
                            at,
                        } => {
                            part_views.push(policy.view(&FeedbackReport {
                                rater,
                                ratee,
                                outcome,
                                topic: None,
                                at,
                            }));
                        }
                        ServiceEvent::Disclosure {
                            node, respected, ..
                        } => disclosures.push((node.index(), respected)),
                    }
                }
            }
        });
        // Merge barrier, in ascending part order. With no parts (an
        // empty epoch) the scratch was never handed out.
        let mut views = scratch.unwrap_or_default();
        for (part, (_, part_views, disclosures)) in parts.into_iter().enumerate() {
            if part == 0 {
                views = part_views;
            } else {
                views.extend(part_views);
            }
            for (index, respected) in disclosures {
                let cell = &mut self.exposure[index];
                cell.disclosures += 1;
                if !respected {
                    cell.breaches += 1;
                }
            }
        }
        // One delta application: in-place CSR upserts through the
        // run-locality memo, in arrival order (bit-identical to looped
        // `record` calls by the mechanism contract).
        self.mechanism.record_batch(&views);
        let iterations = self.mechanism.refresh() as u64;
        let mean_score = if self.config.nodes == 0 {
            0.0
        } else {
            let sum: f64 = (0..self.config.nodes)
                .map(|i| self.mechanism.score(NodeId::from_index(i)))
                .sum();
            sum / self.config.nodes as f64
        };
        self.samples.push(EpochSample {
            epoch: self.epoch_index,
            committed: self.staged.len() as u64,
            rejected: self.epoch_rejected,
            refresh_iterations: iterations,
            mean_score,
        });
        self.stats.commits += 1;
        self.stats.refresh_iterations += iterations;
        self.staged.clear();
        self.epoch_rejected = 0;
        self.as_of = end;
        self.epoch_index += 1;
        self.views = views;
    }

    /// Closes the open epoch by advancing the clock to its boundary
    /// (committing it), unless the boundary has saturated to the
    /// horizon — at the horizon this is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates [`TrustService::advance_to`] errors (never occurs for
    /// a forward boundary).
    pub fn finish_epoch(&mut self) -> Result<(), String> {
        let end = self.epoch_end(self.epoch_index);
        if end == SimTime::MAX {
            return Ok(());
        }
        self.advance_to(end)
    }

    /// The partition window active at `at`, if any.
    fn active_window(&self, at: SimTime) -> Option<usize> {
        // Windows are sorted and non-overlapping (validated).
        self.config
            .partitions
            .iter()
            .position(|w| w.start <= at && at < w.end)
    }

    /// Whether `a` and `b` are split by the window active at `at`.
    fn cross_partitioned(&mut self, a: NodeId, b: NodeId, at: SimTime) -> bool {
        let Some(idx) = self.active_window(at) else {
            return false;
        };
        let groups = self.config.partitions[idx].groups;
        if groups <= 1 {
            return false;
        }
        let rebuild = match &self.partition_cache {
            Some((cached, _)) => *cached != idx,
            None => true,
        };
        if rebuild {
            self.partition_cache = Some((idx, GroupMap::contiguous(self.config.nodes, groups)));
        }
        // tsn-lint: allow(no-unwrap, "the cache is rebuilt on the line above whenever it was absent or stale")
        let (_, map) = self.partition_cache.as_ref().expect("cache just built");
        !map.same_group(a, b)
    }

    /// Ingests one event, advancing the clock to the event time first
    /// (committing any epochs it crosses).
    ///
    /// # Errors
    ///
    /// Out-of-order events (before the service clock) and out-of-range
    /// node ids are errors; partition drops are the
    /// [`IngestOutcome::Rejected`] *success* case.
    pub fn ingest(&mut self, event: ServiceEvent) -> Result<IngestOutcome, String> {
        self.advance_to(event.at())?;
        match event {
            ServiceEvent::Interaction {
                rater, ratee, at, ..
            } => {
                self.check_node(rater)?;
                self.check_node(ratee)?;
                if self.cross_partitioned(rater, ratee, at) {
                    self.stats.rejected += 1;
                    self.epoch_rejected += 1;
                    return Ok(IngestOutcome::Rejected);
                }
            }
            ServiceEvent::Disclosure { node, .. } => self.check_node(node)?,
        }
        self.staged.push(event);
        self.stats.ingested += 1;
        Ok(IngestOutcome::Accepted)
    }

    fn check_node(&self, node: NodeId) -> Result<(), String> {
        if node.index() >= self.config.nodes {
            return Err(format!(
                "node {} out of range (service tracks {} nodes)",
                node.0, self.config.nodes
            ));
        }
        Ok(())
    }

    /// Answers a trust query at sim time `at` (advancing the clock).
    ///
    /// # Errors
    ///
    /// Clock rewinds and out-of-range nodes are errors.
    pub fn query_trust(&mut self, node: NodeId, at: SimTime) -> Result<TrustQueryResult, String> {
        self.advance_to(at)?;
        self.check_node(node)?;
        self.stats.queries += 1;
        Ok(TrustQueryResult {
            score: self.mechanism.score(node),
            as_of: self.as_of,
            staleness: at.duration_since(self.as_of),
            mode: Staleness::Bounded,
        })
    }

    /// Answers a trust query from committed state **without touching
    /// the clock or the stats** — the degraded-mode read a recovery
    /// layer serves while the service is catching up. The answer is
    /// marked [`Staleness::Degraded`]: it may lag `at` by more than one
    /// epoch, and `at` may even precede the service clock (queries held
    /// back during an outage).
    ///
    /// # Errors
    ///
    /// Out-of-range nodes are errors.
    pub fn degraded_trust(&self, node: NodeId, at: SimTime) -> Result<TrustQueryResult, String> {
        self.check_node(node)?;
        Ok(TrustQueryResult {
            score: self.mechanism.score(node),
            as_of: self.as_of,
            staleness: at.duration_since(self.as_of),
            mode: Staleness::Degraded,
        })
    }

    /// Answers an exposure query at sim time `at` (advancing the clock).
    ///
    /// # Errors
    ///
    /// Clock rewinds and out-of-range nodes are errors.
    pub fn query_exposure(
        &mut self,
        node: NodeId,
        at: SimTime,
    ) -> Result<ExposureQueryResult, String> {
        self.advance_to(at)?;
        self.check_node(node)?;
        self.stats.queries += 1;
        Ok(self.exposure_answer(node, at, Staleness::Bounded))
    }

    /// Answers an exposure query from committed state without touching
    /// the clock or the stats — the degraded-mode twin of
    /// [`TrustService::degraded_trust`].
    ///
    /// # Errors
    ///
    /// Out-of-range nodes are errors.
    pub fn degraded_exposure(
        &self,
        node: NodeId,
        at: SimTime,
    ) -> Result<ExposureQueryResult, String> {
        self.check_node(node)?;
        Ok(self.exposure_answer(node, at, Staleness::Degraded))
    }

    fn exposure_answer(&self, node: NodeId, at: SimTime, mode: Staleness) -> ExposureQueryResult {
        let cell = self.exposure[node.index()];
        let respect_rate = if cell.disclosures == 0 {
            1.0
        } else {
            1.0 - cell.breaches as f64 / cell.disclosures as f64
        };
        ExposureQueryResult {
            disclosures: cell.disclosures,
            breaches: cell.breaches,
            respect_rate,
            as_of: self.as_of,
            staleness: at.duration_since(self.as_of),
            mode,
        }
    }

    /// Applies one workload operation.
    ///
    /// # Errors
    ///
    /// Propagates the underlying ingest/query errors.
    pub fn apply(&mut self, op: &ServiceOp) -> Result<(), String> {
        match *op {
            ServiceOp::Ingest(event) => {
                self.ingest(event)?;
            }
            ServiceOp::QueryTrust { node, at } => {
                self.query_trust(node, at)?;
            }
            ServiceOp::QueryExposure { node, at } => {
                self.query_exposure(node, at)?;
            }
        }
        Ok(())
    }

    /// Applies a timeline of operations in order.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first failing operation's error.
    pub fn apply_all(&mut self, ops: &[ServiceOp]) -> Result<(), String> {
        for op in ops {
            self.apply(op)?;
        }
        Ok(())
    }

    /// Serializes the complete service state (see the module docs for
    /// the format). The checkpoint may be taken at any point — mid-epoch
    /// staged events and mid-partition-window positions round-trip
    /// exactly. Equivalent to
    /// [`TrustService::checkpoint_with_cursor`] with cursor 0.
    ///
    /// # Errors
    ///
    /// Fails when the configured mechanism does not support state
    /// snapshots.
    pub fn checkpoint(&self) -> Result<Vec<u8>, String> {
        self.checkpoint_with_cursor(0)
    }

    /// Serializes the service like [`TrustService::checkpoint`], also
    /// embedding `journal_cursor` — the number of journal records
    /// already reflected in this state — in the (checksummed) clock
    /// section. A recovery layer restores the checkpoint and replays
    /// its journal from that cursor; an older checkpoint simply carries
    /// a smaller cursor and replays more.
    ///
    /// # Errors
    ///
    /// Fails when the configured mechanism does not support state
    /// snapshots; the error names the kinds that do.
    pub fn checkpoint_with_cursor(&self, journal_cursor: u64) -> Result<Vec<u8>, String> {
        let mechanism = self.mechanism.snapshot_state().ok_or_else(|| {
            format!(
                "mechanism '{}' does not support checkpointing \
                 (snapshot-capable mechanisms: {})",
                self.config.mechanism,
                MechanismKind::snapshot_capable_names()
            )
        })?;

        // Section payloads, in CHECKPOINT_SECTIONS order.
        let mut config = ByteWriter::new();
        config.put_u64(self.config.nodes as u64);
        config.put_u8(kind_tag(self.config.mechanism));
        config.put_u64(self.config.epoch.as_micros());
        config.put_u8(self.config.disclosure_level as u8);
        config.put_u64(self.config.partitions.len() as u64);
        for window in &self.config.partitions {
            config.put_u64(window.start.as_micros());
            config.put_u64(window.end.as_micros());
            config.put_u64(window.groups as u64);
            config.put_f64(window.cross_loss);
            config.put_f64(window.intra_loss);
        }

        let mut clock = ByteWriter::new();
        clock.put_u64(self.now.as_micros());
        clock.put_u64(self.as_of.as_micros());
        clock.put_u64(self.epoch_index);
        clock.put_u64(self.epoch_rejected);
        clock.put_u64(journal_cursor);

        let mut stats = ByteWriter::new();
        stats.put_u64(self.stats.ingested);
        stats.put_u64(self.stats.rejected);
        stats.put_u64(self.stats.queries);
        stats.put_u64(self.stats.commits);
        stats.put_u64(self.stats.refresh_iterations);

        let mut staged = ByteWriter::new();
        staged.put_u64(self.staged.len() as u64);
        for event in &self.staged {
            crate::journal::encode_event(&mut staged, event);
        }

        let mut exposure = ByteWriter::new();
        for cell in &self.exposure {
            exposure.put_u64(cell.disclosures);
            exposure.put_u64(cell.breaches);
        }

        let mut samples = ByteWriter::new();
        samples.put_u64(self.samples.len() as u64);
        for s in &self.samples {
            samples.put_u64(s.epoch);
            samples.put_u64(s.committed);
            samples.put_u64(s.rejected);
            samples.put_u64(s.refresh_iterations);
            samples.put_f64(s.mean_score);
        }

        let mut w = ByteWriter::new();
        w.put_bytes(CHECKPOINT_MAGIC);
        w.put_u32(CHECKPOINT_VERSION);
        for payload in [
            config.finish(),
            clock.finish(),
            stats.finish(),
            staged.finish(),
            exposure.finish(),
            samples.finish(),
            mechanism,
        ] {
            w.put_u32(crc32(&payload));
            w.put_bytes(&payload);
        }
        Ok(w.finish())
    }

    /// Reconstructs a service from a checkpoint, bit-identically,
    /// discarding the journal cursor (see
    /// [`TrustService::restore_with_cursor`]).
    ///
    /// # Errors
    ///
    /// Rejects wrong magic, unknown versions, truncated or corrupt
    /// input (naming the failing section), and trailing garbage.
    pub fn restore(bytes: &[u8]) -> Result<TrustService, String> {
        Self::restore_with_cursor(bytes).map(|(service, _)| service)
    }

    /// Reconstructs a service from a checkpoint, returning it together
    /// with the embedded journal cursor — the record count a write-ahead
    /// journal replay should resume from.
    ///
    /// # Errors
    ///
    /// Rejects wrong magic, unknown versions, truncation and trailing
    /// garbage; a CRC mismatch or decode failure is reported **naming
    /// the corrupt section**, so a recovery layer can log what was hit
    /// and fall back to an older checkpoint. A config whose node count
    /// disagrees with the exposure section's length is rejected before
    /// anything is allocated for that many nodes.
    pub fn restore_with_cursor(bytes: &[u8]) -> Result<(TrustService, u64), String> {
        // One framing walk (magic, version, truncation, trailing
        // garbage, every section CRC); decoding below borrows payloads.
        let sections = checkpoint_sections(bytes)?;
        let section = |name: &'static str| -> Result<&[u8], String> {
            match sections.iter().find(|s| s.name == name) {
                Some(s) if s.crc_ok => Ok(&bytes[s.offset..s.offset + s.len]),
                _ => Err(format!(
                    "checkpoint section '{name}' is corrupt (crc mismatch)"
                )),
            }
        };

        let config_bytes = section("config")?;
        let mut c = ByteReader::new(config_bytes);
        c.set_context("config");
        let nodes = c.take_u64()? as usize;
        let mechanism = kind_from_tag(c.take_u8()?)?;
        let epoch = SimDuration::from_micros(c.take_u64()?);
        let disclosure_level = c.take_u8()? as usize;
        let window_count = c.take_seq_len(40)?;
        let mut partitions = Vec::with_capacity(window_count);
        for _ in 0..window_count {
            partitions.push(PartitionWindow {
                start: SimTime::from_micros(c.take_u64()?),
                end: SimTime::from_micros(c.take_u64()?),
                groups: c.take_u64()? as usize,
                cross_loss: c.take_f64()?,
                intra_loss: c.take_f64()?,
            });
        }
        section_drained(&c, "config")?;
        // The exposure section holds two u64 counters per node, so its
        // (CRC-checked, input-bounded) length pins the population. Check
        // it before `TrustService::new` sizes anything by `nodes`.
        let exposure_bytes = section("exposure")?;
        let exposure_len = exposure_bytes.len();
        if nodes.checked_mul(16) != Some(exposure_len) {
            return Err(format!(
                "checkpoint section 'config' declares {nodes} nodes, \
                 but section 'exposure' holds {exposure_len} bytes (16 per node)"
            ));
        }
        let config = ServiceConfig {
            nodes,
            mechanism,
            epoch,
            disclosure_level,
            partitions,
            // Execution knob, deliberately not serialized: the restoring
            // host re-applies its own configured value.
            commit_shards: 1,
        };
        let mut service = TrustService::new(config)?;

        let clock_bytes = section("clock")?;
        let mut c = ByteReader::new(clock_bytes);
        c.set_context("clock");
        service.now = SimTime::from_micros(c.take_u64()?);
        service.as_of = SimTime::from_micros(c.take_u64()?);
        service.epoch_index = c.take_u64()?;
        service.epoch_rejected = c.take_u64()?;
        let journal_cursor = c.take_u64()?;
        section_drained(&c, "clock")?;

        let stats_bytes = section("stats")?;
        let mut c = ByteReader::new(stats_bytes);
        c.set_context("stats");
        service.stats = ServiceStats {
            ingested: c.take_u64()?,
            rejected: c.take_u64()?,
            queries: c.take_u64()?,
            commits: c.take_u64()?,
            refresh_iterations: c.take_u64()?,
        };
        section_drained(&c, "stats")?;

        let staged_bytes = section("staged")?;
        let mut c = ByteReader::new(staged_bytes);
        c.set_context("staged");
        let staged_count = c.take_seq_len(13)?;
        for _ in 0..staged_count {
            service.staged.push(crate::journal::decode_event(&mut c)?);
        }
        section_drained(&c, "staged")?;

        let mut c = ByteReader::new(exposure_bytes);
        c.set_context("exposure");
        for cell in service.exposure.iter_mut() {
            cell.disclosures = c.take_u64()?;
            cell.breaches = c.take_u64()?;
        }
        section_drained(&c, "exposure")?;

        let samples_bytes = section("samples")?;
        let mut c = ByteReader::new(samples_bytes);
        c.set_context("samples");
        let sample_count = c.take_seq_len(40)?;
        for _ in 0..sample_count {
            service.samples.push(EpochSample {
                epoch: c.take_u64()?,
                committed: c.take_u64()?,
                rejected: c.take_u64()?,
                refresh_iterations: c.take_u64()?,
                mean_score: c.take_f64()?,
            });
        }
        section_drained(&c, "samples")?;

        let mechanism_bytes = section("mechanism")?;
        service
            .mechanism
            .restore_state(mechanism_bytes)
            .map_err(|e| format!("checkpoint section 'mechanism' is corrupt: {e}"))?;

        Ok((service, journal_cursor))
    }
}

/// Rejects intra-section trailing garbage, naming the section.
fn section_drained(r: &ByteReader, name: &'static str) -> Result<(), String> {
    if !r.is_empty() {
        return Err(format!(
            "checkpoint section '{name}' has {} trailing bytes",
            r.remaining()
        ));
    }
    Ok(())
}

/// Stable one-byte tag of a mechanism kind (its index in
/// [`MechanismKind::ALL`]).
fn kind_tag(kind: MechanismKind) -> u8 {
    MechanismKind::ALL
        .iter()
        .position(|&k| k == kind)
        // tsn-lint: allow(no-unwrap, "kind is drawn from MechanismKind::ALL, the slice being searched")
        .expect("every kind is in ALL") as u8
}

fn kind_from_tag(tag: u8) -> Result<MechanismKind, String> {
    MechanismKind::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| format!("unknown mechanism tag {tag}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_reputation::InteractionOutcome;

    fn interaction(rater: u32, ratee: u32, good: bool, at_secs: u64) -> ServiceEvent {
        ServiceEvent::Interaction {
            rater: NodeId(rater),
            ratee: NodeId(ratee),
            outcome: if good {
                InteractionOutcome::Success { quality: 1.0 }
            } else {
                InteractionOutcome::Failure
            },
            at: SimTime::from_secs(at_secs),
        }
    }

    fn small_service() -> TrustService {
        TrustService::new(ServiceConfig {
            nodes: 4,
            epoch: SimDuration::from_secs(10),
            ..ServiceConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn config_validation_names_the_problem() {
        let bad = ServiceConfig {
            nodes: 0,
            ..ServiceConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("nodes"));
        let bad = ServiceConfig {
            epoch: SimDuration::ZERO,
            ..ServiceConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("epoch"));
        let bad = ServiceConfig {
            disclosure_level: 9,
            ..ServiceConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("disclosure_level"));
        // Partition windows: the one rule set shared with dynamics
        // plans, also applied to a checkpoint's config section (restore
        // goes through `TrustService::new`).
        let at = SimTime::from_secs;
        let split = |start, end, groups| PartitionWindow::full_split(at(start), at(end), groups);
        let lossy = |cross_loss, intra_loss| PartitionWindow {
            cross_loss,
            intra_loss,
            ..split(5, 9, 2)
        };
        for (partitions, expected) in [
            (vec![split(5, 9, 0)], "at least 2 groups"),
            (vec![split(5, 9, 1)], "at least 2 groups"),
            (vec![split(5, 9, 65_537)], "at most 65536 groups"),
            (vec![split(5, 5, 2)], "must end after it starts"),
            (vec![split(9, 5, 2)], "must end after it starts"),
            (vec![lossy(f64::NAN, 0.0)], "cross_loss"),
            (vec![lossy(0.5, f64::NAN)], "intra_loss"),
            (vec![lossy(1.5, 0.0)], "cross_loss"),
            (vec![lossy(0.5, -0.1)], "intra_loss"),
            (vec![split(5, 9, 2), split(8, 12, 2)], "non-overlapping"),
            (vec![split(8, 12, 2), split(1, 3, 2)], "non-overlapping"),
        ] {
            let bad = ServiceConfig {
                partitions: partitions.clone(),
                ..ServiceConfig::default()
            };
            let err = bad.validate().unwrap_err();
            assert!(err.contains(expected), "{partitions:?}: {err}");
            assert!(TrustService::new(bad).is_err());
        }
        let good = ServiceConfig {
            partitions: vec![split(1, 3, 2), split(3, 9, 4)],
            ..ServiceConfig::default()
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    fn events_become_visible_at_the_epoch_boundary() {
        let mut service = small_service();
        service.ingest(interaction(0, 1, true, 1)).unwrap();
        // Still inside epoch 0: not visible, staleness from ZERO.
        let q = service
            .query_trust(NodeId(1), SimTime::from_secs(5))
            .unwrap();
        assert_eq!(q.as_of, SimTime::ZERO);
        let baseline = q.score;
        // Crossing into epoch 1 commits.
        let q = service
            .query_trust(NodeId(1), SimTime::from_secs(12))
            .unwrap();
        assert_eq!(q.as_of, SimTime::from_secs(10));
        assert!(q.score > baseline, "{} !> {baseline}", q.score);
        assert_eq!(q.staleness, SimDuration::from_secs(2));
        assert_eq!(service.samples().len(), 1);
        assert_eq!(service.samples()[0].committed, 1);
    }

    #[test]
    fn clock_is_monotone() {
        let mut service = small_service();
        service.advance_to(SimTime::from_secs(30)).unwrap();
        let err = service.ingest(interaction(0, 1, true, 7)).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
        assert_eq!(service.samples().len(), 3, "crossed boundaries committed");
    }

    #[test]
    fn out_of_range_nodes_are_rejected() {
        let mut service = small_service();
        let err = service.ingest(interaction(0, 99, true, 1)).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = service
            .query_trust(NodeId(99), SimTime::from_secs(2))
            .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn partition_window_rejects_cross_group_interactions() {
        let mut service = TrustService::new(ServiceConfig {
            nodes: 4,
            epoch: SimDuration::from_secs(10),
            partitions: vec![PartitionWindow::full_split(
                SimTime::from_secs(10),
                SimTime::from_secs(20),
                2,
            )],
            ..ServiceConfig::default()
        })
        .unwrap();
        // Groups of contiguous(4, 2): {0, 1} and {2, 3}.
        // Before the window: cross-group accepted.
        assert_eq!(
            service.ingest(interaction(0, 3, true, 5)).unwrap(),
            IngestOutcome::Accepted
        );
        // Inside: cross-group rejected, intra-group accepted.
        assert_eq!(
            service.ingest(interaction(0, 3, true, 12)).unwrap(),
            IngestOutcome::Rejected
        );
        assert_eq!(
            service.ingest(interaction(0, 1, true, 13)).unwrap(),
            IngestOutcome::Accepted
        );
        // After the heal: accepted again.
        assert_eq!(
            service.ingest(interaction(0, 3, true, 25)).unwrap(),
            IngestOutcome::Accepted
        );
        assert_eq!(service.stats().rejected, 1);
        // The rejection landed in epoch 1's sample.
        assert_eq!(service.samples()[1].rejected, 1);
    }

    #[test]
    fn exposure_counters_commit_like_scores() {
        let mut service = small_service();
        for (secs, respected) in [(1, true), (2, true), (3, false)] {
            service
                .ingest(ServiceEvent::Disclosure {
                    node: NodeId(2),
                    respected,
                    at: SimTime::from_secs(secs),
                })
                .unwrap();
        }
        let q = service
            .query_exposure(NodeId(2), SimTime::from_secs(5))
            .unwrap();
        assert_eq!((q.disclosures, q.breaches), (0, 0), "not committed yet");
        assert_eq!(q.respect_rate, 1.0);
        let q = service
            .query_exposure(NodeId(2), SimTime::from_secs(11))
            .unwrap();
        assert_eq!((q.disclosures, q.breaches), (3, 1));
        assert!((q.respect_rate - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn horizon_epoch_never_closes_and_never_spins() {
        let mut service = TrustService::new(ServiceConfig {
            nodes: 2,
            epoch: SimDuration::MAX,
            ..ServiceConfig::default()
        })
        .unwrap();
        // Epoch 0 already ends at the saturated horizon: advancing to
        // MAX must terminate without committing anything.
        service.advance_to(SimTime::MAX).unwrap();
        assert_eq!(service.epoch_index(), 0);
        assert_eq!(service.samples().len(), 0);
        assert!(service.finish_epoch().is_ok(), "horizon finish is a no-op");
        let q = service.query_trust(NodeId(0), SimTime::MAX).unwrap();
        assert_eq!(q.as_of, SimTime::ZERO);
    }

    #[test]
    fn checkpoint_round_trip_rejects_corruption() {
        let mut service = small_service();
        service.ingest(interaction(0, 1, true, 1)).unwrap();
        let bytes = service.checkpoint().unwrap();
        assert!(TrustService::restore(&bytes).is_ok());
        assert!(TrustService::restore(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(TrustService::restore(&trailing)
            .unwrap_err()
            .contains("trailing"),);
        let mut wrong_magic = bytes.clone();
        wrong_magic[8] = b'X'; // first magic byte, after the length prefix
        assert!(TrustService::restore(&wrong_magic)
            .unwrap_err()
            .contains("magic"),);
        // A version-3 header (the layout that carried an overlay block)
        // is refused by version, not misread as trailing bytes.
        let mut previous_version = bytes.clone();
        previous_version[16] = 3; // version u32, after prefix + magic
        assert!(TrustService::restore(&previous_version)
            .unwrap_err()
            .contains("unsupported checkpoint version 3"),);
        let mut wrong_version = bytes;
        wrong_version[16] = 99;
        assert!(TrustService::restore(&wrong_version)
            .unwrap_err()
            .contains("version"),);
    }

    #[test]
    fn checkpoint_declaring_more_nodes_than_its_exposure_holds_is_rejected() {
        let mut service = small_service();
        service.ingest(interaction(0, 1, true, 1)).unwrap();
        let mut bytes = service.checkpoint().unwrap();
        let config = checkpoint_sections(&bytes).unwrap()[0];
        assert_eq!(config.name, "config");
        // Re-encode `nodes` (the payload's first u64) and re-seal the
        // section's CRC (the u32 ahead of its u64 length prefix), so
        // only the cross-check stands between restore and a 2^33-node
        // allocation.
        let payload = config.offset..config.offset + config.len;
        bytes[config.offset..config.offset + 8].copy_from_slice(&(1u64 << 33).to_le_bytes());
        let crc = crc32(&bytes[payload]);
        bytes[config.offset - 12..config.offset - 8].copy_from_slice(&crc.to_le_bytes());
        assert!(checkpoint_sections(&bytes)
            .unwrap()
            .iter()
            .all(|s| s.crc_ok));
        let err = TrustService::restore(&bytes).unwrap_err();
        assert!(
            err.contains("'config'") && err.contains("'exposure'"),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_with_trailing_bytes_in_its_mechanism_section_is_rejected() {
        let mut service = small_service();
        service.ingest(interaction(0, 1, true, 1)).unwrap();
        let mut bytes = service.checkpoint().unwrap();
        let mechanism = checkpoint_sections(&bytes).unwrap()[6];
        assert_eq!(mechanism.name, "mechanism");
        // Append one byte to the payload, re-encode the section's u64
        // length prefix and re-seal its CRC (the u32 ahead of that
        // prefix), so only the mechanism's decoder sees the extra byte.
        let (start, end) = (mechanism.offset, mechanism.offset + mechanism.len);
        bytes.insert(end, 0);
        let len = mechanism.len as u64 + 1;
        bytes[start - 8..start].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&bytes[start..end + 1]);
        bytes[start - 12..start - 8].copy_from_slice(&crc.to_le_bytes());
        assert!(checkpoint_sections(&bytes)
            .unwrap()
            .iter()
            .all(|s| s.crc_ok));
        let err = TrustService::restore(&bytes).unwrap_err();
        assert!(
            err.contains("'mechanism'") && err.contains("1 trailing bytes"),
            "{err}"
        );
    }

    #[test]
    fn unsupported_mechanism_checkpoint_is_a_clean_error() {
        let mut service = TrustService::new(ServiceConfig {
            nodes: 4,
            mechanism: MechanismKind::PowerTrust,
            epoch: SimDuration::from_secs(10),
            ..ServiceConfig::default()
        })
        .unwrap();
        service.ingest(interaction(0, 1, true, 1)).unwrap();
        let err = service.checkpoint().unwrap_err();
        assert!(err.contains("powertrust"), "{err}");
    }

    #[test]
    fn kind_tags_round_trip() {
        for kind in MechanismKind::ALL {
            assert_eq!(kind_from_tag(kind_tag(kind)).unwrap(), kind);
        }
        assert!(kind_from_tag(250).is_err());
    }
}
