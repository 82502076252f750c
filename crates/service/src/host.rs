//! The [`ServiceHost`]: a [`TrustService`] process plus its durable
//! storage, crash/recovery state machine, and fault hookup.
//!
//! The service itself is pure state; the host models the *process*
//! around it. It owns what survives a crash — a ring of recent
//! checkpoints and the write-ahead [`EventJournal`] — and the volatile
//! part that does not: the running [`TrustService`]. Crashes (explicit
//! or scheduled by a [`FaultPlan`]) drop the volatile part; recovery
//! rebuilds it as
//!
//! > newest checkpoint that passes its per-section CRCs
//! > + replay of the journal suffix from that checkpoint's cursor
//!
//! falling back checkpoint by checkpoint when the newest is corrupt
//! (each rejection is reported with the section that failed), and from
//! scratch — full journal replay — when none survives. Because every
//! acknowledged operation is journaled, recovery is lossless: the only
//! operations missing afterwards are ones no client ever got an
//! acknowledgement for (a torn tail), and those are the client's to
//! retry.
//!
//! # Bounded storage, bounded recovery
//!
//! The journal is segmented (see [`crate::journal`]): a checkpoint
//! embeds its replay cursor, recovery opens only the segments holding
//! records past that cursor (the [`RecoveryReport`] counts them), and
//! after each checkpoint write the host garbage-collects every sealed
//! segment no retained checkpoint can still need. GC is gated on the
//! whole ring being intact — a damaged generation may force recovery
//! to fall back, in the worst case to a from-scratch full replay, so
//! nothing is collected while one is stored. Together the two bounds
//! hold: recovery cost is proportional to data since the checkpoint,
//! and on-disk journal bytes stay bounded on a long-lived host.
//!
//! # Degraded reads
//!
//! While the host is in its post-restart grace window
//! ([`HostConfig::recovery_grace`]), queries answer **degraded**: from
//! the recovered committed state, read-only, marked
//! [`Staleness::Degraded`](crate::Staleness) — instead of blocking or
//! erroring. Ingests during the window (and everything while the
//! process is down) get [`HostError::Unavailable`] with an explicit
//! retry time; the client-side discipline lives in
//! [`ServiceDriver::drive_host`](crate::ServiceDriver::drive_host).
//!
//! Degraded reads deliberately bypass the journal and the service
//! clock/stats, so serving them changes nothing about the recovered
//! state's bit-identity.
//!
//! [`FaultPlan`]: tsn_simnet::FaultPlan

use crate::event::ServiceOp;
use crate::journal::{EventJournal, JournalRecord, DEFAULT_SEGMENT_BYTES};
use crate::service::{
    checkpoint_sections, cursor_in, ExposureQueryResult, IngestOutcome, ServiceConfig,
    TrustQueryResult, TrustService,
};
use tsn_simnet::{FaultInjector, FaultTarget, NodeId, SimDuration, SimTime};

/// Configuration of a [`ServiceHost`].
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// The hosted service.
    pub service: ServiceConfig,
    /// Whether to keep a write-ahead journal. Without it, recovery
    /// falls back to the newest checkpoint alone: the open epoch (and
    /// anything after the checkpoint) is lost.
    pub journal: bool,
    /// Write a checkpoint automatically every N epoch commits
    /// (0 = only explicit [`ServiceHost::checkpoint_now`] calls).
    pub checkpoint_every_epochs: u64,
    /// How many checkpoints the storage ring retains (at least 1; the
    /// default 2 is what makes fallback-from-corruption possible).
    pub retain_checkpoints: usize,
    /// Degraded-query window after a restart: queries answer from the
    /// recovered state marked degraded, ingests wait. Zero skips the
    /// window entirely (restart goes straight to `Up`).
    pub recovery_grace: SimDuration,
    /// Journal segment seal threshold in bytes (see
    /// [`crate::journal`]): smaller segments mean finer-grained GC and
    /// tighter recovery bounds, at more per-segment header overhead.
    pub journal_segment_bytes: usize,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            service: ServiceConfig::default(),
            journal: true,
            checkpoint_every_epochs: 1,
            retain_checkpoints: 2,
            recovery_grace: SimDuration::ZERO,
            journal_segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

impl HostConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the service's validation error, or a description of an
    /// invalid host field.
    pub fn validate(&self) -> Result<(), String> {
        self.service.validate()?;
        if self.retain_checkpoints == 0 {
            return Err("retain_checkpoints must be at least 1".into());
        }
        Ok(())
    }
}

/// The host's process state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// Serving normally.
    Up,
    /// Crashed; nothing answers until the restart time.
    Down,
    /// Restarted and recovered, inside the grace window: queries answer
    /// degraded, ingests wait.
    Recovering,
}

/// Why an operation could not be applied right now.
#[derive(Debug, Clone, PartialEq)]
pub enum HostError {
    /// The process is down or still in its recovery window. Retry at
    /// (or after) `retry_at`.
    Unavailable {
        /// Earliest time a retry can succeed.
        retry_at: SimTime,
        /// Which unavailability this is ("down" or "recovering").
        reason: &'static str,
    },
    /// A hard rejection from the service (invalid node, clock rewind,
    /// …) — retrying the same operation cannot succeed.
    Rejected(String),
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::Unavailable { retry_at, reason } => write!(
                f,
                "service unavailable ({reason}); retry at {}us",
                retry_at.as_micros()
            ),
            HostError::Rejected(e) => write!(f, "operation rejected: {e}"),
        }
    }
}

/// What applying an operation produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApplyOutcome {
    /// An ingest was staged (or partition-rejected).
    Ingested(IngestOutcome),
    /// A trust query's answer.
    Trust(TrustQueryResult),
    /// An exposure query's answer.
    Exposure(ExposureQueryResult),
}

/// Lifetime counters of a host (fault and recovery accounting; the
/// service's own counters live in
/// [`ServiceStats`](crate::ServiceStats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Crashes suffered (explicit or fault-scheduled).
    pub crashes: u64,
    /// Recoveries completed.
    pub recoveries: u64,
    /// Journal records replayed across all recoveries.
    pub journal_replays: u64,
    /// Checkpoints written to storage.
    pub checkpoints_written: u64,
    /// Recoveries that had to fall back past a corrupt checkpoint.
    pub checkpoint_fallbacks: u64,
    /// Storage faults injected into checkpoint writes.
    pub storage_faults: u64,
    /// Queries answered degraded during recovery windows.
    pub degraded_queries: u64,
    /// Operations bounced with [`HostError::Unavailable`].
    pub unavailable_rejections: u64,
}

/// How one recovery went.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Checkpoints rejected before one restored (0 = newest was fine).
    pub fallbacks: u64,
    /// The rejection error of each corrupt checkpoint, newest first —
    /// each names the section that failed its CRC.
    pub corrupt: Vec<String>,
    /// Whether recovery started from a fresh service because no stored
    /// checkpoint was usable.
    pub from_scratch: bool,
    /// Journal records replayed on top of the restored state.
    pub replayed: u64,
    /// Whether the journal had a torn tail (one unacknowledged
    /// operation was discarded).
    pub torn_tail: bool,
    /// Journal segments actually opened (header verified + body
    /// scanned) by the replay — the bounded-recovery measure: with
    /// checkpoints every E epochs this stays proportional to E, never
    /// to the service's age.
    pub segments_opened: usize,
    /// Live journal segments skipped because they sit wholly below the
    /// checkpoint's cursor.
    pub segments_skipped: usize,
    /// The service clock after recovery.
    pub recovered_to: SimTime,
}

/// One checkpoint generation in the host's storage ring.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredCheckpoint {
    /// The journal cursor the generation replays from (0 when the
    /// clock section could not be read — such a generation also grades
    /// as not intact).
    pub cursor: u64,
    /// Whether every section CRC held after the write, storage faults
    /// included. Only an all-intact ring allows journal GC: a damaged
    /// generation may force recovery to fall back — in the worst case
    /// to a from-scratch full replay that needs the whole journal.
    pub intact: bool,
    /// The stored checkpoint bytes.
    pub bytes: Vec<u8>,
}

/// Grades freshly stored checkpoint bytes: the embedded replay cursor
/// and whether every section CRC holds. One walk of the section table
/// (one CRC pass) yields both.
fn grade_checkpoint(bytes: &[u8]) -> (u64, bool) {
    let Ok(sections) = checkpoint_sections(bytes) else {
        return (0, false);
    };
    match cursor_in(bytes, &sections) {
        Ok(cursor) => (cursor, sections.iter().all(|s| s.crc_ok)),
        Err(_) => (0, false),
    }
}

/// A crash-tolerant process around a [`TrustService`] (see the module
/// docs).
#[derive(Debug)]
pub struct ServiceHost {
    config: HostConfig,
    /// The volatile part: `None` while crashed.
    service: Option<TrustService>,
    /// Durable storage: recent checkpoint generations, newest last.
    checkpoints: Vec<StoredCheckpoint>,
    /// Durable storage: the segmented write-ahead journal.
    journal: EventJournal,
    injector: Option<FaultInjector>,
    /// Which process-fault schedule in the injector's plan is ours
    /// (a lone host is [`FaultTarget::Service`]; replica-set members
    /// each get their own [`FaultTarget::Replica`]).
    fault_target: FaultTarget,
    state: HostState,
    /// While `Down`: when the restart fires ([`SimTime::MAX`] = only an
    /// explicit [`ServiceHost::restart`] brings it back).
    down_until: SimTime,
    /// While `Recovering`: when the grace window ends.
    grace_until: SimTime,
    /// Where the fault schedule scan resumes.
    crash_cursor: SimTime,
    /// Checkpoint write index (labels storage-fault draws).
    writes: u64,
    /// Epoch index at the last automatic checkpoint.
    last_checkpoint_epoch: u64,
    /// Whether the newest stored generation is this process's own
    /// write with no storage fault applied (see
    /// [`ServiceHost::current_checkpoint`]).
    newest_is_clean: bool,
    stats: HostStats,
    last_recovery: Option<RecoveryReport>,
}

impl ServiceHost {
    /// Creates a host with a fresh service at sim time zero.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error.
    pub fn new(config: HostConfig) -> Result<Self, String> {
        config.validate()?;
        let service = TrustService::new(config.service.clone())?;
        Ok(ServiceHost {
            service: Some(service),
            checkpoints: Vec::new(),
            journal: EventJournal::with_segment_bytes(config.journal_segment_bytes),
            injector: None,
            fault_target: FaultTarget::Service,
            state: HostState::Up,
            down_until: SimTime::MAX,
            grace_until: SimTime::ZERO,
            crash_cursor: SimTime::ZERO,
            writes: 0,
            last_checkpoint_epoch: 0,
            newest_is_clean: false,
            stats: HostStats::default(),
            last_recovery: None,
            config,
        })
    }

    /// Builds a host in the [`HostState::Down`] state from surviving
    /// storage — stored checkpoint generations (oldest first, as
    /// [`ServiceHost::stored_checkpoints`] returns them) plus the
    /// journal — with no running service. [`ServiceHost::restart`] then
    /// runs the real recovery path: newest valid checkpoint + segment
    /// suffix replay. This is how externally persisted storage (e.g.
    /// files on disk) is re-hosted.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error.
    pub fn from_storage(
        config: HostConfig,
        checkpoints: Vec<Vec<u8>>,
        journal: EventJournal,
    ) -> Result<Self, String> {
        config.validate()?;
        let checkpoints = checkpoints
            .into_iter()
            .map(|bytes| {
                let (cursor, intact) = grade_checkpoint(&bytes);
                StoredCheckpoint {
                    cursor,
                    intact,
                    bytes,
                }
            })
            .collect();
        Ok(ServiceHost {
            service: None,
            checkpoints,
            journal,
            injector: None,
            fault_target: FaultTarget::Service,
            state: HostState::Down,
            down_until: SimTime::MAX,
            grace_until: SimTime::ZERO,
            crash_cursor: SimTime::ZERO,
            writes: 0,
            last_checkpoint_epoch: 0,
            newest_is_clean: false,
            stats: HostStats::default(),
            last_recovery: None,
            config,
        })
    }

    /// Attaches a fault injector: its process faults crash this host on
    /// schedule, its storage faults corrupt checkpoint writes.
    pub fn attach_faults(&mut self, injector: FaultInjector) {
        self.attach_faults_for(injector, FaultTarget::Service);
    }

    /// Like [`ServiceHost::attach_faults`], but scoping the process
    /// faults to `target` — how a replica set hands each member its own
    /// crash schedule ([`FaultTarget::Replica`]) out of one shared
    /// plan.
    pub fn attach_faults_for(&mut self, injector: FaultInjector, target: FaultTarget) {
        self.injector = Some(injector);
        self.fault_target = target;
    }

    /// The configuration in use.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// The running service (`None` while crashed). Degraded reads and
    /// state comparisons go through here.
    pub fn service(&self) -> Option<&TrustService> {
        self.service.as_ref()
    }

    /// The current process state.
    pub fn state(&self) -> HostState {
        self.state
    }

    /// Fault and recovery counters.
    pub fn stats(&self) -> HostStats {
        self.stats
    }

    /// The stored checkpoint generations, newest last (diagnostics,
    /// persistence, tests).
    pub fn stored_checkpoints(&self) -> &[StoredCheckpoint] {
        &self.checkpoints
    }

    /// While down: the scheduled restart time ([`SimTime::MAX`] when
    /// only an explicit [`ServiceHost::restart`] brings it back).
    /// `None` when not down.
    pub fn down_until(&self) -> Option<SimTime> {
        (self.state == HostState::Down).then_some(self.down_until)
    }

    /// Test support: simulates a crash **during** a checkpoint write by
    /// truncating the newest stored generation to its first `len`
    /// bytes — a torn, partial write left on disk. The rest of the ring
    /// is untouched; recovery must skip the damaged generation via the
    /// newest→oldest fallback. Returns `false` when the ring is empty.
    pub fn tear_newest_checkpoint(&mut self, len: usize) -> bool {
        let Some(stored) = self.checkpoints.last_mut() else {
            return false;
        };
        stored.bytes.truncate(len);
        let (cursor, intact) = grade_checkpoint(&stored.bytes);
        stored.cursor = cursor;
        stored.intact = intact;
        self.newest_is_clean = false;
        true
    }

    /// The newest stored generation, when it encodes the running state
    /// exactly as [`TrustService::checkpoint_with_cursor`] at the
    /// journal's record count would now: the host is up, this process
    /// wrote the generation with no storage fault applied, and its
    /// cursor equals the journal's record count — every later op, query
    /// or advance is journaled, so any of them moves the count past it.
    /// Without a journal nothing moves the count, so a journal-less host
    /// never qualifies; nor does a generation loaded by
    /// [`ServiceHost::from_storage`], torn by
    /// [`ServiceHost::tear_newest_checkpoint`] or written before a
    /// crash.
    pub fn current_checkpoint(&self) -> Option<&[u8]> {
        let newest = self.checkpoints.last()?;
        let current = self.state == HostState::Up
            && self.config.journal
            && self.newest_is_clean
            && newest.cursor == self.journal.records();
        current.then_some(newest.bytes.as_slice())
    }

    /// The write-ahead journal (diagnostics and tests).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// How the most recent recovery went, if any.
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// Processes every scheduled state transition at or before `at`:
    /// fault-plan crashes, restarts, grace-window expiry.
    ///
    /// # Errors
    ///
    /// Propagates recovery failures (these are fatal: storage itself
    /// was unusable).
    pub fn tick(&mut self, at: SimTime) -> Result<(), String> {
        loop {
            match self.state {
                HostState::Up => {
                    let next = self
                        .injector
                        .as_ref()
                        .and_then(|i| i.next_crash(self.fault_target, self.crash_cursor));
                    match next {
                        Some(fault) if fault.at <= at => {
                            self.crash_at(fault.at, fault.restart_at());
                        }
                        _ => return Ok(()),
                    }
                }
                HostState::Down => {
                    if self.down_until > at {
                        return Ok(());
                    }
                    let restart_at = self.down_until;
                    self.recover(restart_at)?;
                }
                HostState::Recovering => {
                    if self.grace_until > at {
                        return Ok(());
                    }
                    self.state = HostState::Up;
                }
            }
        }
    }

    /// Crashes the process at `at`, losing all volatile state. It stays
    /// down until an explicit [`ServiceHost::restart`].
    pub fn crash(&mut self, at: SimTime) {
        self.crash_at(at, SimTime::MAX);
    }

    /// Crashes at `at` **mid-journal-append**: the most recent record
    /// is left half-written on storage (torn tail), exactly as if the
    /// process died inside the write. That operation was never
    /// acknowledged; recovery discards it and the client retries.
    pub fn crash_torn(&mut self, at: SimTime) {
        self.journal.tear_last_record();
        self.crash_at(at, SimTime::MAX);
    }

    fn crash_at(&mut self, at: SimTime, restart_at: SimTime) {
        self.service = None;
        self.newest_is_clean = false;
        self.state = HostState::Down;
        self.down_until = restart_at;
        self.stats.crashes += 1;
        // The next fault-schedule scan starts strictly after this crash.
        self.crash_cursor = at.saturating_add(SimDuration::from_micros(1));
    }

    /// Restarts a crashed process at `at`: recovery (checkpoint +
    /// journal replay) runs immediately; the grace window, if
    /// configured, follows.
    ///
    /// # Errors
    ///
    /// Fails when the host is not down, or when recovery itself fails.
    pub fn restart(&mut self, at: SimTime) -> Result<&RecoveryReport, String> {
        if self.state != HostState::Down {
            return Err("restart: the host is not down".into());
        }
        self.recover(at)?;
        // tsn-lint: allow(no-unwrap, "recover() stores last_recovery before returning on every path, including full replay")
        Ok(self.last_recovery.as_ref().expect("recover just ran"))
    }

    /// Recovery proper: newest valid checkpoint + segment-suffix
    /// replay from its cursor.
    fn recover(&mut self, at: SimTime) -> Result<(), String> {
        let mut corrupt = Vec::new();
        let mut restored: Option<(TrustService, u64)> = None;
        for stored in self.checkpoints.iter().rev() {
            match TrustService::restore_with_cursor(&stored.bytes) {
                Ok(pair) => {
                    restored = Some(pair);
                    break;
                }
                Err(e) => corrupt.push(e),
            }
        }
        let fallbacks = corrupt.len() as u64;
        let from_scratch = restored.is_none();
        let (mut service, cursor) = match restored {
            Some(pair) => pair,
            // No usable checkpoint: start fresh and replay everything.
            None => (TrustService::new(self.config.service.clone())?, 0),
        };
        // The shard knob is execution-only and never serialized; bring
        // the recovered service back to its configured parallelism.
        service.set_commit_shards(self.config.service.commit_shards);
        let replay = self
            .journal
            .replay_from(cursor)
            .map_err(|e| format!("recovery is unrecoverable: {e}"))?;
        let mut replayed = 0;
        for record in &replay.records {
            match record {
                JournalRecord::Op(op) => service
                    .apply(op)
                    .map_err(|e| format!("journal replay failed at record {cursor}: {e}"))?,
                JournalRecord::Advance { at } => service
                    .advance_to(*at)
                    .map_err(|e| format!("journal replay failed at record {cursor}: {e}"))?,
            }
            replayed += 1;
        }
        if replay.torn {
            // Drop the torn tail from storage: it was never acknowledged.
            self.journal.discard_torn_tail();
        }
        self.stats.recoveries += 1;
        self.stats.journal_replays += replayed;
        self.stats.checkpoint_fallbacks += fallbacks;
        self.last_recovery = Some(RecoveryReport {
            fallbacks,
            corrupt,
            from_scratch,
            replayed,
            torn_tail: replay.torn,
            segments_opened: replay.segments_opened,
            segments_skipped: replay.segments_skipped,
            recovered_to: service.now(),
        });
        self.service = Some(service);
        self.down_until = SimTime::MAX;
        if self.config.recovery_grace > SimDuration::ZERO {
            self.state = HostState::Recovering;
            self.grace_until = at.saturating_add(self.config.recovery_grace);
        } else {
            self.state = HostState::Up;
        }
        Ok(())
    }

    /// Writes a checkpoint to the storage ring (subject to any injected
    /// storage faults), embedding the journal cursor.
    ///
    /// # Errors
    ///
    /// Fails while the service is not up, or when the mechanism does
    /// not support snapshots.
    pub fn checkpoint_now(&mut self, at: SimTime) -> Result<(), String> {
        if self.state != HostState::Up {
            return Err("checkpoint: the service is not up".into());
        }
        // tsn-lint: allow(no-unwrap, "state-machine invariant: Up is only entered with a resident service (boot/recover set both)")
        let service = self.service.as_ref().expect("up implies a service");
        let encoded_cursor = self.journal.records();
        let mut bytes = service.checkpoint_with_cursor(encoded_cursor)?;
        let mut faults = 0;
        if let Some(injector) = &self.injector {
            let previous = self.checkpoints.last().map(|c| c.bytes.as_slice());
            faults = injector
                .corrupt_checkpoint(&mut bytes, previous, at, self.writes)
                .len() as u64;
            self.stats.storage_faults += faults;
        }
        self.newest_is_clean = faults == 0;
        self.writes += 1;
        // Untouched bytes are exactly what the encoder produced: every
        // section CRC holds and the cursor is the one just encoded, so
        // only a faulted write pays for the grading walk.
        let (cursor, intact) = if faults == 0 {
            debug_assert_eq!(grade_checkpoint(&bytes), (encoded_cursor, true));
            (encoded_cursor, true)
        } else {
            grade_checkpoint(&bytes)
        };
        self.checkpoints.push(StoredCheckpoint {
            cursor,
            intact,
            bytes,
        });
        while self.checkpoints.len() > self.config.retain_checkpoints {
            self.checkpoints.remove(0);
        }
        self.stats.checkpoints_written += 1;
        // Sealed segments below every retained cursor can never be
        // replayed again; collecting them is what keeps journal bytes
        // bounded. Gated on an all-intact ring (see the module docs).
        if let Some(floor) = self.journal_gc_floor() {
            self.journal.gc_before(floor);
        }
        self.last_checkpoint_epoch = self
            .service
            .as_ref()
            // tsn-lint: allow(no-unwrap, "state-machine invariant: Up is only entered with a resident service (boot/recover set both)")
            .expect("up implies a service")
            .epoch_index();
        Ok(())
    }

    /// The journal cursor below which no retained checkpoint can ever
    /// replay — `None` while GC is forbidden: an empty ring, or any
    /// stored generation that is damaged (recovery might then fall back
    /// past every cursor, down to a from-scratch full replay).
    fn journal_gc_floor(&self) -> Option<u64> {
        if self.checkpoints.is_empty() || self.checkpoints.iter().any(|c| !c.intact) {
            return None;
        }
        self.checkpoints.iter().map(|c| c.cursor).min()
    }

    /// After a successful apply/advance: auto-checkpoint if enough
    /// epochs have committed since the last one.
    fn maybe_auto_checkpoint(&mut self, at: SimTime) -> Result<(), String> {
        let every = self.config.checkpoint_every_epochs;
        if every == 0 || self.state != HostState::Up {
            return Ok(());
        }
        // tsn-lint: allow(no-unwrap, "state-machine invariant: Up is only entered with a resident service (boot/recover set both)")
        let epoch = self.service.as_ref().expect("up").epoch_index();
        if epoch >= self.last_checkpoint_epoch + every {
            self.checkpoint_now(at)?;
        }
        Ok(())
    }

    fn check_node(&self, node: NodeId) -> Result<(), HostError> {
        if node.index() >= self.config.service.nodes {
            return Err(HostError::Rejected(format!(
                "node {} out of range (service tracks {} nodes)",
                node.0, self.config.service.nodes
            )));
        }
        Ok(())
    }

    /// Pre-validates an op so a rejected one never touches the service
    /// clock (which would make journal replay diverge).
    fn validate_op(&self, op: &ServiceOp) -> Result<(), HostError> {
        match *op {
            ServiceOp::Ingest(crate::ServiceEvent::Interaction { rater, ratee, .. }) => {
                self.check_node(rater)?;
                self.check_node(ratee)
            }
            ServiceOp::Ingest(crate::ServiceEvent::Disclosure { node, .. }) => {
                self.check_node(node)
            }
            ServiceOp::QueryTrust { node, .. } | ServiceOp::QueryExposure { node, .. } => {
                self.check_node(node)
            }
        }
    }

    /// Applies one operation at its own timestamp, running any due
    /// state transitions first. Journals the operation once the service
    /// acknowledged it.
    ///
    /// # Errors
    ///
    /// [`HostError::Unavailable`] while down (all ops) or recovering
    /// (ingests only — queries answer degraded); [`HostError::Rejected`]
    /// for hard service errors. Fatal recovery failures also surface as
    /// `Rejected`.
    pub fn apply(&mut self, op: &ServiceOp) -> Result<ApplyOutcome, HostError> {
        let at = op.at();
        self.tick(at).map_err(HostError::Rejected)?;
        match self.state {
            HostState::Down => {
                self.stats.unavailable_rejections += 1;
                Err(HostError::Unavailable {
                    retry_at: self.down_until,
                    reason: "down",
                })
            }
            HostState::Recovering => match *op {
                ServiceOp::QueryTrust { node, .. } => {
                    // tsn-lint: allow(no-unwrap, "state-machine invariant: Recovering carries the service the recovery path just restored")
                    let service = self.service.as_ref().expect("recovering has a service");
                    let answer = service
                        .degraded_trust(node, at)
                        .map_err(HostError::Rejected)?;
                    self.stats.degraded_queries += 1;
                    Ok(ApplyOutcome::Trust(answer))
                }
                ServiceOp::QueryExposure { node, .. } => {
                    // tsn-lint: allow(no-unwrap, "state-machine invariant: Recovering carries the service the recovery path just restored")
                    let service = self.service.as_ref().expect("recovering has a service");
                    let answer = service
                        .degraded_exposure(node, at)
                        .map_err(HostError::Rejected)?;
                    self.stats.degraded_queries += 1;
                    Ok(ApplyOutcome::Exposure(answer))
                }
                ServiceOp::Ingest(_) => {
                    self.stats.unavailable_rejections += 1;
                    Err(HostError::Unavailable {
                        retry_at: self.grace_until,
                        reason: "recovering",
                    })
                }
            },
            HostState::Up => {
                self.validate_op(op)?;
                // tsn-lint: allow(no-unwrap, "state-machine invariant: Up is only entered with a resident service (boot/recover set both)")
                let service = self.service.as_mut().expect("up implies a service");
                let outcome = match *op {
                    ServiceOp::Ingest(event) => {
                        ApplyOutcome::Ingested(service.ingest(event).map_err(HostError::Rejected)?)
                    }
                    ServiceOp::QueryTrust { node, at } => ApplyOutcome::Trust(
                        service.query_trust(node, at).map_err(HostError::Rejected)?,
                    ),
                    ServiceOp::QueryExposure { node, at } => ApplyOutcome::Exposure(
                        service
                            .query_exposure(node, at)
                            .map_err(HostError::Rejected)?,
                    ),
                };
                if self.config.journal {
                    self.journal.append(&JournalRecord::Op(*op));
                }
                self.maybe_auto_checkpoint(at)
                    .map_err(HostError::Rejected)?;
                Ok(outcome)
            }
        }
    }

    /// Advances the service clock (committing crossed epochs) when the
    /// service is up; while down or recovering, only the host's own
    /// transitions run — the service catches up with the next applied
    /// operation.
    ///
    /// # Errors
    ///
    /// Propagates fatal recovery/service errors.
    pub fn advance_to(&mut self, at: SimTime) -> Result<(), String> {
        self.tick(at)?;
        if self.state != HostState::Up {
            return Ok(());
        }
        // tsn-lint: allow(no-unwrap, "state-machine invariant: Up is only entered with a resident service (boot/recover set both)")
        let service = self.service.as_mut().expect("up implies a service");
        if at <= service.now() {
            return Ok(());
        }
        service.advance_to(at)?;
        if self.config.journal {
            self.journal.append(&JournalRecord::Advance { at });
        }
        self.maybe_auto_checkpoint(at)
    }

    /// Closes the service's open epoch (when up): advance to its
    /// boundary, committing it.
    ///
    /// # Errors
    ///
    /// Propagates fatal recovery/service errors.
    pub fn finish_epoch(&mut self) -> Result<(), String> {
        let Some(service) = self.service.as_ref() else {
            return Ok(());
        };
        let end = service.epoch_end(service.epoch_index());
        if end == SimTime::MAX {
            return Ok(());
        }
        self.advance_to(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ServiceEvent;
    use tsn_reputation::InteractionOutcome;
    use tsn_simnet::{FaultPlan, StorageFault, StorageFaultKind};

    fn host() -> ServiceHost {
        ServiceHost::new(HostConfig {
            service: ServiceConfig {
                nodes: 4,
                epoch: SimDuration::from_secs(10),
                ..ServiceConfig::default()
            },
            ..HostConfig::default()
        })
        .unwrap()
    }

    fn ingest(rater: u32, ratee: u32, at_secs: u64) -> ServiceOp {
        ServiceOp::Ingest(ServiceEvent::Interaction {
            rater: NodeId(rater),
            ratee: NodeId(ratee),
            outcome: InteractionOutcome::Success { quality: 1.0 },
            at: SimTime::from_secs(at_secs),
        })
    }

    fn query(node: u32, at_secs: u64) -> ServiceOp {
        ServiceOp::QueryTrust {
            node: NodeId(node),
            at: SimTime::from_secs(at_secs),
        }
    }

    #[test]
    fn crash_then_restart_recovers_acknowledged_state_exactly() {
        let mut reference = host();
        let mut crashing = host();
        let ops = [
            ingest(0, 1, 1),
            ingest(1, 2, 3),
            query(1, 5),
            ingest(2, 3, 12), // crosses the first epoch boundary
            query(2, 14),
        ];
        for op in &ops {
            reference.apply(op).unwrap();
            crashing.apply(op).unwrap();
        }
        crashing.crash(SimTime::from_secs(15));
        assert_eq!(crashing.state(), HostState::Down);
        assert!(crashing.service().is_none());
        let err = crashing.apply(&query(1, 16)).unwrap_err();
        assert!(matches!(err, HostError::Unavailable { reason: "down", .. }));
        let report = crashing.restart(SimTime::from_secs(17)).unwrap();
        assert!(!report.from_scratch, "an auto-checkpoint existed");
        assert_eq!(report.fallbacks, 0);
        assert!(
            report.replayed > 0,
            "post-checkpoint ops came from the journal"
        );
        // Bit-identical recovered state.
        let a = reference.service().unwrap();
        let b = crashing.service().unwrap();
        assert_eq!(a.now(), b.now());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.samples(), b.samples());
        assert_eq!(
            a.scores().iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            b.scores().iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        // Both continue identically.
        reference.apply(&ingest(0, 2, 21)).unwrap();
        crashing.apply(&ingest(0, 2, 21)).unwrap();
        reference.finish_epoch().unwrap();
        crashing.finish_epoch().unwrap();
        assert_eq!(
            reference.service().unwrap().samples(),
            crashing.service().unwrap().samples()
        );
    }

    #[test]
    fn recovery_without_any_checkpoint_replays_the_whole_journal() {
        let mut h = ServiceHost::new(HostConfig {
            service: ServiceConfig {
                nodes: 4,
                epoch: SimDuration::from_secs(10),
                ..ServiceConfig::default()
            },
            checkpoint_every_epochs: 0, // never checkpoint
            ..HostConfig::default()
        })
        .unwrap();
        h.apply(&ingest(0, 1, 1)).unwrap();
        h.apply(&query(1, 12)).unwrap();
        h.crash(SimTime::from_secs(13));
        let report = h.restart(SimTime::from_secs(14)).unwrap().clone();
        assert!(report.from_scratch);
        assert_eq!(report.replayed, 2);
        let service = h.service().unwrap();
        assert_eq!(service.stats().ingested, 1);
        assert_eq!(service.stats().queries, 1);
        assert_eq!(service.samples().len(), 1);
    }

    #[test]
    fn torn_journal_tail_loses_only_the_unacknowledged_op() {
        let mut h = host();
        h.apply(&ingest(0, 1, 1)).unwrap();
        h.apply(&ingest(1, 2, 2)).unwrap();
        // Crash mid-append of the second ingest's record.
        h.crash_torn(SimTime::from_secs(3));
        let report = h.restart(SimTime::from_secs(4)).unwrap().clone();
        assert!(report.torn_tail);
        assert_eq!(h.service().unwrap().stats().ingested, 1);
        // The client retries the lost op; the service ends up whole.
        h.apply(&ingest(1, 2, 5)).unwrap();
        assert_eq!(h.service().unwrap().stats().ingested, 2);
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_the_previous_one() {
        let mut h = host();
        h.apply(&ingest(0, 1, 1)).unwrap();
        h.apply(&ingest(1, 2, 12)).unwrap(); // auto-checkpoint at epoch 1
        h.apply(&ingest(2, 3, 22)).unwrap(); // auto-checkpoint at epoch 2
        assert_eq!(h.stored_checkpoints().len(), 2);
        // Flip one byte inside the newest checkpoint's body.
        let newest = &mut h.checkpoints.last_mut().unwrap().bytes;
        let mid = newest.len() / 2;
        newest[mid] ^= 0x01;
        h.crash(SimTime::from_secs(23));
        let report = h.restart(SimTime::from_secs(24)).unwrap().clone();
        assert_eq!(report.fallbacks, 1);
        assert_eq!(report.corrupt.len(), 1);
        assert!(
            report.corrupt[0].contains("section '"),
            "the report must name the corrupt section: {}",
            report.corrupt[0]
        );
        assert!(!report.from_scratch);
        assert_eq!(h.stats().checkpoint_fallbacks, 1);
        // The older checkpoint carries an older cursor, so more of the
        // journal replays — state still ends up complete.
        assert_eq!(h.service().unwrap().stats().ingested, 3);
    }

    #[test]
    fn fault_plan_crashes_and_restarts_on_schedule() {
        let mut h = ServiceHost::new(HostConfig {
            service: ServiceConfig {
                nodes: 4,
                epoch: SimDuration::from_secs(10),
                ..ServiceConfig::default()
            },
            recovery_grace: SimDuration::from_secs(2),
            ..HostConfig::default()
        })
        .unwrap();
        h.attach_faults(
            FaultInjector::new(
                FaultPlan::service_crash(SimTime::from_secs(5), SimDuration::from_secs(3)),
                7,
            )
            .unwrap(),
        );
        h.apply(&ingest(0, 1, 1)).unwrap();
        // An op at t=6 lands mid-downtime (crash at 5, restart at 8).
        let err = h.apply(&query(1, 6)).unwrap_err();
        assert!(
            matches!(err, HostError::Unavailable { retry_at, .. } if retry_at == SimTime::from_secs(8))
        );
        assert_eq!(h.stats().crashes, 1);
        // At t=9 the restart has fired but the grace window (8..10) is
        // open: queries answer degraded, ingests wait.
        let outcome = h.apply(&query(1, 9)).unwrap();
        let ApplyOutcome::Trust(answer) = outcome else {
            panic!("query answers with a trust result");
        };
        assert_eq!(answer.mode, crate::Staleness::Degraded);
        assert_eq!(h.state(), HostState::Recovering);
        let err = h.apply(&ingest(1, 2, 9)).unwrap_err();
        assert!(matches!(
            err,
            HostError::Unavailable {
                reason: "recovering",
                ..
            }
        ));
        // Past the grace window: normal service again.
        h.apply(&ingest(1, 2, 11)).unwrap();
        assert_eq!(h.state(), HostState::Up);
        assert_eq!(h.stats().recoveries, 1);
        assert_eq!(h.stats().degraded_queries, 1);
        assert_eq!(h.stats().unavailable_rejections, 2);
    }

    #[test]
    fn one_walk_checkpoint_grading_matches_the_two_walk_composition() {
        use crate::service::{checkpoint_cursor, CHECKPOINT_SECTIONS};
        // The grader as two separate walks: the section table's CRCs,
        // then a second walk for the cursor.
        fn two_walks(bytes: &[u8]) -> (u64, bool) {
            let intact = checkpoint_sections(bytes).is_ok_and(|s| s.iter().all(|x| x.crc_ok));
            match checkpoint_cursor(bytes) {
                Ok(cursor) => (cursor, intact),
                Err(_) => (0, false),
            }
        }
        let check = |bytes: &[u8]| {
            let graded = grade_checkpoint(bytes);
            assert_eq!(graded, two_walks(bytes), "input of {} bytes", bytes.len());
            graded
        };

        // Staged events, committed samples and a non-zero cursor, so
        // every section has a payload.
        let mut h = host();
        h.apply(&ingest(0, 1, 1)).unwrap();
        h.apply(&ingest(1, 2, 12)).unwrap(); // auto-checkpoint
        h.apply(&ingest(2, 3, 14)).unwrap();
        h.checkpoint_now(SimTime::from_secs(15)).unwrap();
        let bytes = h.stored_checkpoints().last().unwrap().bytes.clone();
        let (cursor, intact) = check(&bytes);
        assert!(intact && cursor > 0, "a clean write grades intact");

        let sections = checkpoint_sections(&bytes).unwrap();
        assert_eq!(sections.len(), CHECKPOINT_SECTIONS.len());
        for s in &sections {
            assert!(s.len > 0, "section '{}' has a payload to flip", s.name);
            let mut rotted = bytes.clone();
            rotted[s.offset + s.len / 2] ^= 0x04;
            let expected = if s.name == "clock" {
                (0, false)
            } else {
                (cursor, false)
            };
            assert_eq!(check(&rotted), expected, "flip in section '{}'", s.name);
            // Truncated at the section's start (before its CRC word),
            // at its payload, and at its end.
            for cut in [s.offset - 12, s.offset, s.offset + s.len] {
                if cut < bytes.len() {
                    assert_eq!(check(&bytes[..cut]), (0, false), "cut at {cut}");
                }
            }
        }

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(check(&trailing), (0, false));
        let mut bad_magic = bytes;
        bad_magic[8] ^= 0xFF; // first magic byte, after the length prefix
        assert_eq!(check(&bad_magic), (0, false));
    }

    #[test]
    fn storage_faults_hit_checkpoint_writes_and_are_counted() {
        let mut h = host();
        h.attach_faults(
            FaultInjector::new(FaultPlan::bit_rot(SimTime::ZERO, SimTime::MAX), 3).unwrap(),
        );
        h.apply(&ingest(0, 1, 1)).unwrap();
        h.apply(&ingest(1, 2, 12)).unwrap(); // auto-checkpoint (bit-rotted)
        assert_eq!(h.stats().storage_faults, 1);
        h.crash(SimTime::from_secs(13));
        let report = h.restart(SimTime::from_secs(14)).unwrap().clone();
        // The single checkpoint was corrupt; recovery fell through to
        // scratch + full journal replay and still got everything back.
        assert_eq!(report.fallbacks, 1);
        assert!(report.from_scratch);
        assert_eq!(h.service().unwrap().stats().ingested, 2);
    }

    /// A host whose tiny journal segments seal every few records, so
    /// GC fires within a dozen epochs.
    fn gc_host() -> ServiceHost {
        ServiceHost::new(HostConfig {
            journal_segment_bytes: 256,
            ..host().config().clone()
        })
        .unwrap()
    }

    /// Six ingests per epoch, then the epoch boundary.
    fn drive(h: &mut ServiceHost, epochs: u64) {
        for e in 0..epochs {
            for i in 0..6u64 {
                h.apply(&ingest((i % 4) as u32, ((i + 1) % 4) as u32, e * 10 + i))
                    .unwrap();
            }
            h.finish_epoch().unwrap();
        }
    }

    /// Whole-state equality: both services encode the same checkpoint.
    fn assert_same_state(a: &ServiceHost, b: &ServiceHost) {
        let encode = |h: &ServiceHost| h.service().unwrap().checkpoint_with_cursor(0).unwrap();
        assert_eq!(encode(a), encode(b), "services diverged");
    }

    #[test]
    fn torn_checkpoint_writes_grade_damaged_pause_gc_and_still_recover() {
        let mut reference = gc_host();
        let mut torn = gc_host();
        torn.attach_faults(
            FaultInjector::new(FaultPlan::torn_checkpoints(SimTime::ZERO, SimTime::MAX), 5)
                .unwrap(),
        );
        drive(&mut reference, 12);
        drive(&mut torn, 12);
        let written = torn.stats().checkpoints_written;
        assert_eq!(written, reference.stats().checkpoints_written);
        assert_eq!(torn.stats().storage_faults, written, "every write is torn");
        assert!(torn.current_checkpoint().is_none(), "storage-faulted");
        assert!(torn.stored_checkpoints().iter().all(|c| !c.intact));
        assert!(reference.journal().gc_segments() > 0, "a clean ring GCs");
        assert_eq!(torn.journal().gc_segments(), 0, "a torn ring pauses GC");

        // Every generation is unusable, and the whole journal survived
        // to cover a from-scratch replay.
        torn.crash(SimTime::from_secs(121));
        let report = torn.restart(SimTime::from_secs(121)).unwrap().clone();
        assert_eq!(report.fallbacks, torn.stored_checkpoints().len() as u64);
        assert!(report.from_scratch);
        assert_eq!(report.replayed, torn.journal().records());
        assert_same_state(&reference, &torn);
    }

    #[test]
    fn stale_checkpoint_writes_keep_the_older_generation_intact() {
        let stale_from = |start| {
            let plan = FaultPlan {
                storage: vec![StorageFault {
                    start,
                    end: SimTime::MAX,
                    kind: StorageFaultKind::StaleVersion,
                }],
                ..FaultPlan::default()
            };
            FaultInjector::new(plan, 5).unwrap()
        };
        let mut reference = host();
        let mut stale = host();
        stale.attach_faults(stale_from(SimTime::from_secs(15)));
        // Auto-checkpoints at t=12 (clean) and t=22 (stale).
        for op in [ingest(0, 1, 1), ingest(1, 2, 12), ingest(2, 3, 22)] {
            reference.apply(&op).unwrap();
            stale.apply(&op).unwrap();
        }
        assert_eq!(stale.stats().checkpoints_written, 2);
        assert_eq!(stale.stats().storage_faults, 1, "only the t=22 write");
        let ring = stale.stored_checkpoints();
        assert_eq!(ring[1].bytes, ring[0].bytes, "the old file stayed");
        assert!(ring[1].intact, "a stale generation is a valid checkpoint");
        let older = ring[0].cursor;
        assert_eq!(ring[1].cursor, older);
        assert!(older < reference.stored_checkpoints()[1].cursor);
        assert!(stale.current_checkpoint().is_none(), "storage-faulted");

        // Recovery restores the stale generation without a fallback and
        // replays the longer suffix from its older cursor.
        stale.crash(SimTime::from_secs(23));
        let report = stale.restart(SimTime::from_secs(23)).unwrap().clone();
        assert_eq!(report.fallbacks, 0);
        assert!(!report.from_scratch);
        assert_eq!(report.replayed, stale.journal().records() - older);
        assert_same_state(&reference, &stale);

        // The first write has nothing older to substitute: it lands
        // intact, though it still counts as a faulted write.
        let mut first = host();
        first.attach_faults(stale_from(SimTime::ZERO));
        first.apply(&ingest(0, 1, 1)).unwrap();
        first.apply(&ingest(1, 2, 12)).unwrap();
        assert_eq!(first.stats().storage_faults, 1);
        let fresh = first
            .service()
            .unwrap()
            .checkpoint_with_cursor(first.journal().records())
            .unwrap();
        let only = &first.stored_checkpoints()[0];
        assert_eq!(only.bytes, fresh);
        assert!(only.intact);
        assert_eq!(only.cursor, first.journal().records());
        assert!(first.current_checkpoint().is_none(), "storage-faulted");
    }

    #[test]
    fn journal_gc_keeps_disk_bounded_and_recovery_opens_only_the_suffix() {
        let mut h = gc_host();
        drive(&mut h, 30);
        assert!(h.journal().gc_segments() > 0, "GC must have fired");
        // The live footprint stays far below what was ever written.
        assert!(
            h.journal().byte_len() < h.journal().bytes_written() as usize / 2,
            "live {} vs written {}",
            h.journal().byte_len(),
            h.journal().bytes_written()
        );
        h.crash(SimTime::from_secs(301));
        let report = h.restart(SimTime::from_secs(302)).unwrap().clone();
        assert!(!report.from_scratch);
        // Bounded recovery: the replay opened only the couple of
        // segments past the newest checkpoint's cursor, not the
        // 30-epoch history.
        assert!(
            (report.segments_opened as u64) < h.journal().segments_created() / 2,
            "opened {} of {} segments ever created",
            report.segments_opened,
            h.journal().segments_created()
        );
        assert_eq!(h.service().unwrap().stats().ingested, 180);
    }

    #[test]
    fn current_checkpoint_is_the_clean_boundary_write_until_anything_moves() {
        let mut h = host();
        h.apply(&ingest(0, 1, 1)).unwrap();
        assert!(h.current_checkpoint().is_none(), "nothing stored yet");
        h.apply(&ingest(1, 2, 12)).unwrap(); // auto-checkpoint at epoch 1
        let fresh = h
            .service()
            .unwrap()
            .checkpoint_with_cursor(h.journal().records())
            .unwrap();
        assert_eq!(h.current_checkpoint(), Some(fresh.as_slice()));
        assert_eq!(
            h.current_checkpoint(),
            Some(h.stored_checkpoints().last().unwrap().bytes.as_slice())
        );
        // Any journaled op moves the cursor past the stored generation.
        h.apply(&query(1, 13)).unwrap();
        assert!(h.current_checkpoint().is_none(), "a query followed");
        h.checkpoint_now(SimTime::from_secs(13)).unwrap();
        assert!(h.current_checkpoint().is_some());
        h.advance_to(SimTime::from_secs(14)).unwrap();
        assert!(h.current_checkpoint().is_none(), "an advance followed");
        // A torn write never qualifies, not even one whose unreadable
        // cursor grades as 0 on an empty journal.
        h.checkpoint_now(SimTime::from_secs(14)).unwrap();
        assert!(h.tear_newest_checkpoint(100));
        assert!(h.current_checkpoint().is_none(), "torn");
        let mut empty = host();
        empty.checkpoint_now(SimTime::ZERO).unwrap();
        assert!(empty.current_checkpoint().is_some());
        assert!(empty.tear_newest_checkpoint(100));
        assert_eq!(empty.stored_checkpoints()[0].cursor, 0);
        assert!(empty.current_checkpoint().is_none(), "torn, cursor 0");
        // Nor does a generation written before a crash, even though the
        // recovered state and cursor match it.
        h.checkpoint_now(SimTime::from_secs(14)).unwrap();
        h.crash(SimTime::from_secs(15));
        assert!(h.current_checkpoint().is_none(), "down");
        h.restart(SimTime::from_secs(15)).unwrap();
        assert_eq!(
            h.stored_checkpoints().last().unwrap().cursor,
            h.journal().records()
        );
        assert!(h.current_checkpoint().is_none(), "written before the crash");

        // A generation loaded from storage never qualifies.
        let stored = h
            .stored_checkpoints()
            .iter()
            .map(|c| c.bytes.clone())
            .collect();
        let mut loaded =
            ServiceHost::from_storage(h.config().clone(), stored, h.journal().clone()).unwrap();
        loaded.restart(SimTime::from_secs(16)).unwrap();
        assert!(loaded.current_checkpoint().is_none(), "from storage");
    }

    #[test]
    fn faulted_or_unjournaled_checkpoint_writes_are_never_current() {
        let mut h = host();
        h.attach_faults(
            FaultInjector::new(FaultPlan::bit_rot(SimTime::ZERO, SimTime::MAX), 3).unwrap(),
        );
        h.apply(&ingest(0, 1, 1)).unwrap();
        h.apply(&ingest(1, 2, 12)).unwrap(); // auto-checkpoint (bit-rotted)
        assert_eq!(h.stats().storage_faults, 1);
        assert_eq!(
            h.stored_checkpoints().last().unwrap().cursor,
            h.journal().records(),
            "the flip left the cursor readable"
        );
        assert!(h.current_checkpoint().is_none(), "storage-faulted");

        // Without a journal nothing moves the cursor, so nothing proves
        // a stored generation still matches the state.
        let mut bare = ServiceHost::new(HostConfig {
            journal: false,
            ..host().config().clone()
        })
        .unwrap();
        bare.apply(&ingest(1, 2, 12)).unwrap();
        assert_eq!(bare.stored_checkpoints().len(), 1);
        assert!(bare.current_checkpoint().is_none(), "no journal");
    }

    #[test]
    fn out_of_range_ops_never_touch_the_clock() {
        let mut h = host();
        h.apply(&ingest(0, 1, 5)).unwrap();
        let err = h.apply(&ingest(0, 99, 7)).unwrap_err();
        assert!(matches!(err, HostError::Rejected(ref e) if e.contains("out of range")));
        // The bad op advanced nothing: the service clock still sits at
        // the last good op, so replay stays exact.
        assert_eq!(h.service().unwrap().now(), SimTime::from_secs(5));
    }
}
