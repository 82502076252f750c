//! Replicated [`ServiceHost`]s behind one deterministic sequencer.
//!
//! Because the [`TrustService`] is a deterministic state machine over
//! an ordered operation stream, replication needs no consensus protocol
//! here: the [`ReplicaSet`] sequences every acknowledged operation into
//! a replication log and feeds the same stream, in the same order, to
//! every member. Each member is a full [`ServiceHost`] — its own
//! journal, its own checkpoint ring, its own crash schedule — so a
//! replica that restarts recovers its acknowledged prefix from its own
//! storage and catches up on the rest from the set's log.
//!
//! # Ordering rules
//!
//! - The primary applies first. Only operations the primary
//!   acknowledged enter the log; a bounced operation is the client's
//!   to retry, exactly as with a single host.
//! - Followers receive log entries strictly in log order: a lagging
//!   follower is caught up (from its own applied count) before it sees
//!   anything newer. Entries never reorder, so every replica walks the
//!   same state trajectory.
//! - Propagation is synchronous: after an acknowledged operation, every
//!   member that is up holds it. The final primary state is therefore
//!   bit-identical to an uninterrupted single host fed the same stream.
//!
//! # Failover
//!
//! When the primary is down at the next operation, the set promotes the
//! healthiest member: the candidate with the **newest committed epoch**
//! wins, ties broken by most operations applied, then by lowest replica
//! index — a deterministic rule, so a re-run fails over identically.
//! The promoted member is caught up from the log before it serves. With
//! no member up, the set answers [`HostError::Unavailable`] with the
//! earliest scheduled restart, and the driver's retry discipline does
//! what it does for a single host: re-route and re-send.
//!
//! # Divergence diagnostics
//!
//! After every committed epoch (with all members up and in sync) the
//! set compares each follower to the primary bit-for-bit: score bits,
//! epoch samples, service stats, and — for snapshot-capable mechanisms
//! — whole checkpoint bytes. A mismatch is a named, diagnosable error:
//! it identifies the replica, the epoch, and the first divergent
//! checkpoint section, and it surfaces as a hard
//! [`HostError::Rejected`] because retrying cannot help a state split.
//!
//! The checkpoint bytes compared are each member's own boundary
//! generation when it still encodes the running state
//! ([`ServiceHost::current_checkpoint`]): the auto-checkpoint a member
//! just stored is not encoded a second time. Otherwise — no checkpoint
//! at this boundary, a storage-faulted write, or anything journaled
//! since — the member's state is encoded afresh at its journal's record
//! count, which yields the same bytes for the same state. In-sync
//! members have journaled the same entries, so the embedded cursors
//! agree too.

use crate::event::ServiceOp;
use crate::host::{ApplyOutcome, HostConfig, HostError, HostState, ServiceHost};
use crate::journal::JournalRecord;
use crate::service::{checkpoint_sections, TrustService};
use std::borrow::Cow;
use tsn_simnet::{FaultInjector, FaultTarget, SimDuration, SimTime};

/// Configuration of a [`ReplicaSet`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaConfig {
    /// The per-member host configuration (every member is identical).
    pub host: HostConfig,
    /// Number of replicas (at least 1; 1 degenerates to a lone host
    /// behind the sequencer).
    pub replicas: usize,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            host: HostConfig::default(),
            replicas: 3,
        }
    }
}

impl ReplicaConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the host configuration's validation error, or a
    /// description of an invalid replication field.
    pub fn validate(&self) -> Result<(), String> {
        self.host.validate()?;
        if self.replicas == 0 {
            return Err("a replica set needs at least 1 replica".into());
        }
        if !self.host.journal {
            return Err(
                "replication requires the journal: a restarted member recovers its \
                 acknowledged prefix from its own journal before the log catches it up"
                    .into(),
            );
        }
        if self.host.recovery_grace != SimDuration::ZERO {
            return Err(
                "replication requires recovery_grace = 0: a restarted member must accept \
                 catch-up entries immediately, not bounce them through a degraded window"
                    .into(),
            );
        }
        Ok(())
    }
}

/// One completed promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverReport {
    /// The replica that was primary before the promotion.
    pub from: usize,
    /// The promoted replica.
    pub to: usize,
    /// When the promotion happened (the operation that triggered it).
    pub at: SimTime,
    /// The promoted replica's committed epoch at promotion time.
    pub epoch: u64,
    /// Log entries replayed to catch the promoted replica up before it
    /// started serving.
    pub caught_up: u64,
}

/// A follower-to-primary state comparison (see the module docs).
#[derive(PartialEq)]
struct Fingerprint<'a> {
    scores: Vec<u64>,
    samples: &'a [crate::EpochSample],
    stats: crate::ServiceStats,
    /// The stored boundary generation, or a fresh encode when none is
    /// current; `None` when the mechanism cannot snapshot — the other
    /// three fields still pin the comparison bit-for-bit.
    checkpoint: Option<Cow<'a, [u8]>>,
}

/// N replicated [`ServiceHost`]s behind one deterministic sequencer
/// (see the module docs).
#[derive(Debug)]
pub struct ReplicaSet {
    config: ReplicaConfig,
    hosts: Vec<ServiceHost>,
    primary: usize,
    /// Per-replica count of log entries applied (a global index: entry
    /// `k` of the whole run, not an offset into the compacted `log`).
    applied: Vec<u64>,
    /// The replication log suffix still needed by some member;
    /// `log[0]` is global entry `log_offset`.
    log: Vec<JournalRecord>,
    log_offset: u64,
    failovers: Vec<FailoverReport>,
    /// Newest epoch whose convergence check passed.
    converged_epoch: u64,
}

impl ReplicaSet {
    /// Creates a set of `config.replicas` fresh members; replica 0
    /// starts as primary.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error.
    pub fn new(config: ReplicaConfig) -> Result<Self, String> {
        config.validate()?;
        let hosts = (0..config.replicas)
            .map(|_| ServiceHost::new(config.host.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        let applied = vec![0; config.replicas];
        Ok(ReplicaSet {
            hosts,
            primary: 0,
            applied,
            log: Vec::new(),
            log_offset: 0,
            failovers: Vec::new(),
            converged_epoch: 0,
            config,
        })
    }

    /// Attaches one shared fault plan: member `i` answers to
    /// [`FaultTarget::Replica`]`(i)`, so a single plan scripts the whole
    /// set (e.g. [`FaultPlan::replica_crash`] to kill the primary).
    ///
    /// [`FaultPlan::replica_crash`]: tsn_simnet::FaultPlan::replica_crash
    pub fn attach_faults(&mut self, injector: FaultInjector) {
        for (i, host) in self.hosts.iter_mut().enumerate() {
            host.attach_faults_for(injector.clone(), FaultTarget::Replica(i as u32));
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ReplicaConfig {
        &self.config
    }

    /// The members, by replica index.
    pub fn hosts(&self) -> &[ServiceHost] {
        &self.hosts
    }

    /// The current primary's replica index.
    pub fn primary(&self) -> usize {
        self.primary
    }

    /// The current primary's running service, when it is up.
    pub fn primary_service(&self) -> Option<&TrustService> {
        self.hosts[self.primary].service()
    }

    /// Every promotion so far, in order.
    pub fn failovers(&self) -> &[FailoverReport] {
        &self.failovers
    }

    /// Per-replica applied log-entry counts (global indices).
    pub fn applied(&self) -> &[u64] {
        &self.applied
    }

    /// Total log entries ever sequenced.
    pub fn sequenced(&self) -> u64 {
        self.log_offset + self.log.len() as u64
    }

    /// Log entries currently retained for catch-up (the suffix some
    /// member still needs; the rest is compacted away).
    pub fn retained_log_len(&self) -> usize {
        self.log.len()
    }

    /// Test support: crashes the current primary **mid-journal-append**
    /// — its copy of the most recently sequenced entry is left torn on
    /// its own storage. The entry itself was acknowledged and
    /// replicated, so when the member restarts, its own recovery drops
    /// the torn record and the log re-delivers it. Call directly after
    /// an acknowledged operation.
    pub fn crash_primary_torn(&mut self, at: SimTime) {
        let p = self.primary;
        self.hosts[p].crash_torn(at);
        // Its recovered state will be one entry short of its journal's
        // acknowledged prefix; re-deliver that entry from the log.
        self.applied[p] = self.applied[p].saturating_sub(1);
    }

    /// Replica `i`'s committed epoch (0 while crashed).
    fn epoch_of(&self, i: usize) -> u64 {
        self.hosts[i].service().map_or(0, |s| s.epoch_index())
    }

    /// Runs every member's scheduled state transitions at `at` —
    /// fault-plan crashes and restarts. A member that restarts here
    /// recovers from its own storage; the sequencer catches it up from
    /// the log on the next propagation.
    fn tick_all(&mut self, at: SimTime) -> Result<(), String> {
        for host in &mut self.hosts {
            host.tick(at)?;
        }
        Ok(())
    }

    /// Ensures a serving primary, promoting if the current one is down:
    /// newest committed epoch wins, ties broken by most entries
    /// applied, then lowest index.
    ///
    /// # Errors
    ///
    /// [`HostError::Unavailable`] when no member is up, carrying the
    /// earliest scheduled restart.
    fn ensure_primary(&mut self, at: SimTime) -> Result<(), HostError> {
        if self.hosts[self.primary].state() == HostState::Up {
            return Ok(());
        }
        let mut best: Option<usize> = None;
        for i in 0..self.hosts.len() {
            if self.hosts[i].state() != HostState::Up {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    (self.epoch_of(i), self.applied[i]) > (self.epoch_of(b), self.applied[b])
                }
            };
            if better {
                best = Some(i);
            }
        }
        let Some(next) = best else {
            let retry_at = self
                .hosts
                .iter()
                .filter_map(|h| h.down_until())
                .min()
                .unwrap_or(SimTime::MAX);
            return Err(HostError::Unavailable {
                retry_at,
                reason: "no replica up",
            });
        };
        // The promoted member serves only once it holds every
        // acknowledged entry.
        let caught_up = self.sync_replica(next).map_err(HostError::Rejected)?;
        self.failovers.push(FailoverReport {
            from: self.primary,
            to: next,
            at,
            epoch: self.epoch_of(next),
            caught_up,
        });
        self.primary = next;
        Ok(())
    }

    /// Replays the log suffix replica `i` is missing, in order, while
    /// it stays up. Returns how many entries were delivered.
    ///
    /// # Errors
    ///
    /// A hard rejection of a logged entry — the primary acknowledged
    /// it, so a member refusing it is a state split, not a retry case.
    fn sync_replica(&mut self, i: usize) -> Result<u64, String> {
        let mut delivered = 0;
        while self.applied[i] < self.sequenced() {
            if self.hosts[i].state() != HostState::Up {
                break; // crashed mid-catch-up: stays lagging
            }
            let idx = (self.applied[i] - self.log_offset) as usize;
            let record = self.log[idx];
            match Self::deliver(&mut self.hosts[i], &record) {
                Ok(()) => {
                    self.applied[i] += 1;
                    delivered += 1;
                }
                Err(HostError::Unavailable { .. }) => break, // went down: stays lagging
                Err(HostError::Rejected(e)) => {
                    return Err(format!(
                        "replica {i} rejected acknowledged log entry {}: {e}",
                        self.applied[i]
                    ));
                }
            }
        }
        Ok(delivered)
    }

    /// Applies one log entry to one member.
    fn deliver(host: &mut ServiceHost, record: &JournalRecord) -> Result<(), HostError> {
        match record {
            JournalRecord::Op(op) => host.apply(op).map(|_| ()),
            JournalRecord::Advance { at } => host.advance_to(*at).map_err(HostError::Rejected),
        }
    }

    /// Sequences an acknowledged entry: appends it to the log, marks
    /// the primary (which already applied it) current, propagates to
    /// every other member, compacts, and runs the per-epoch convergence
    /// check.
    fn sequence(&mut self, record: JournalRecord) -> Result<(), String> {
        self.log.push(record);
        self.applied[self.primary] = self.sequenced();
        for i in 0..self.hosts.len() {
            if i != self.primary {
                self.sync_replica(i)?;
            }
        }
        // Entries every member holds can never be re-delivered — except
        // the newest, kept so a torn primary write ([`crash_primary_torn`])
        // can re-deliver it. (A long-dead member pins the log suffix it
        // is missing — the price of catch-up without state transfer.)
        //
        // [`crash_primary_torn`]: ReplicaSet::crash_primary_torn
        let floor = self.applied.iter().copied().min().unwrap_or(0);
        let floor = floor.min(self.sequenced().saturating_sub(1));
        let drop = floor.saturating_sub(self.log_offset) as usize;
        if drop > 0 {
            self.log.drain(..drop);
            self.log_offset = floor;
        }
        self.check_convergence()
    }

    /// Applies one operation through the sequencer (see the module
    /// docs for the ordering rules).
    ///
    /// # Errors
    ///
    /// [`HostError::Unavailable`] when no member can serve (retry);
    /// [`HostError::Rejected`] for hard rejections and for divergence.
    pub fn apply(&mut self, op: &ServiceOp) -> Result<ApplyOutcome, HostError> {
        let at = op.at();
        self.tick_all(at).map_err(HostError::Rejected)?;
        // The promotion loop is bounded: every Unavailable bounce means
        // the serving member just went down, and a down member is never
        // re-picked at the same instant.
        for _ in 0..=self.hosts.len() {
            self.ensure_primary(at)?;
            match self.hosts[self.primary].apply(op) {
                Ok(outcome) => {
                    self.sequence(JournalRecord::Op(*op))
                        .map_err(HostError::Rejected)?;
                    return Ok(outcome);
                }
                Err(HostError::Unavailable { .. }) => continue,
                Err(e @ HostError::Rejected(_)) => return Err(e),
            }
        }
        Err(HostError::Unavailable {
            retry_at: at.saturating_add(SimDuration::from_micros(1)),
            reason: "no replica up",
        })
    }

    /// Advances the set's clock (committing crossed epochs) through the
    /// sequencer, so every member commits the same epochs at the same
    /// boundaries.
    ///
    /// # Errors
    ///
    /// Propagates fatal recovery/service errors and divergence. A fully
    /// down set is not an error here — members catch up on restart.
    pub fn advance_to(&mut self, at: SimTime) -> Result<(), String> {
        self.tick_all(at)?;
        match self.ensure_primary(at) {
            Ok(()) => {}
            Err(HostError::Unavailable { .. }) => return Ok(()),
            Err(HostError::Rejected(e)) => return Err(e),
        }
        let before = self.hosts[self.primary]
            .service()
            .map_or(SimTime::ZERO, |s| s.now());
        if at <= before {
            return Ok(());
        }
        self.hosts[self.primary].advance_to(at)?;
        self.sequence(JournalRecord::Advance { at })
    }

    /// Compares every member to the primary once a newly committed
    /// epoch has every member up and in sync; records the epoch so each
    /// boundary is checked once.
    ///
    /// # Errors
    ///
    /// The divergence diagnosis (replica, epoch, first divergent
    /// checkpoint section).
    fn check_convergence(&mut self) -> Result<(), String> {
        let epoch = self.epoch_of(self.primary);
        if epoch <= self.converged_epoch {
            return Ok(());
        }
        let total = self.sequenced();
        let in_sync = (0..self.hosts.len())
            .all(|i| self.hosts[i].state() == HostState::Up && self.applied[i] == total);
        if !in_sync {
            return Ok(()); // checked again once everyone caught up
        }
        let reference = self.fingerprint(self.primary);
        for i in 0..self.hosts.len() {
            if i != self.primary && self.fingerprint(i) != reference {
                return Err(self.diagnose(i, epoch));
            }
        }
        self.converged_epoch = epoch;
        Ok(())
    }

    /// Replica `i`'s bit-exact state fingerprint (`i` must be up).
    fn fingerprint(&self, i: usize) -> Fingerprint<'_> {
        let host = &self.hosts[i];
        // tsn-lint: allow(no-unwrap, "the sequencer only marks a member in-sync after it served an all-up epoch, which requires Up")
        let service = host.service().expect("in-sync member is up");
        let checkpoint = match host.current_checkpoint() {
            Some(stored) => Some(Cow::Borrowed(stored)),
            None => service
                .checkpoint_with_cursor(host.journal().records())
                .ok()
                .map(Cow::Owned),
        };
        Fingerprint {
            scores: service.scores().iter().map(|s| s.to_bits()).collect(),
            samples: service.samples(),
            stats: service.stats(),
            checkpoint,
        }
    }

    /// Names what diverged between replica `i` and the primary.
    fn diagnose(&self, i: usize, epoch: u64) -> String {
        let p = self.primary;
        let head = format!("replica {i} diverged from primary {p} at epoch {epoch}");
        let (a, b) = (self.fingerprint(p), self.fingerprint(i));
        if let (Some(pc), Some(fc)) = (&a.checkpoint, &b.checkpoint) {
            if let (Ok(ps), Ok(fs)) = (checkpoint_sections(pc), checkpoint_sections(fc)) {
                for (s, t) in ps.iter().zip(&fs) {
                    if pc[s.offset..s.offset + s.len] != fc[t.offset..t.offset + t.len] {
                        return format!("{head}: first divergent section '{}'", s.name);
                    }
                }
            }
        }
        // No snapshot to walk: name the first divergent field instead.
        let field = if a.scores != b.scores {
            "scores"
        } else if a.samples != b.samples {
            "samples"
        } else {
            "stats"
        };
        format!("{head}: first divergent field '{field}'")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ServiceEvent;
    use crate::service::ServiceConfig;
    use tsn_reputation::InteractionOutcome;
    use tsn_simnet::{FaultPlan, NodeId};

    fn set(replicas: usize) -> ReplicaSet {
        ReplicaSet::new(ReplicaConfig {
            host: HostConfig {
                service: ServiceConfig {
                    nodes: 4,
                    epoch: SimDuration::from_secs(10),
                    ..ServiceConfig::default()
                },
                ..HostConfig::default()
            },
            replicas,
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

    #[test]
    fn validation_names_the_broken_invariant() {
        let bad = ReplicaConfig {
            replicas: 0,
            ..ReplicaConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("at least 1"));
        let bad = ReplicaConfig {
            host: HostConfig {
                journal: false,
                ..HostConfig::default()
            },
            ..ReplicaConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("journal"));
        let bad = ReplicaConfig {
            host: HostConfig {
                recovery_grace: SimDuration::from_secs(1),
                ..HostConfig::default()
            },
            ..ReplicaConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("recovery_grace"));
    }

    #[test]
    fn every_member_tracks_the_primary_bit_for_bit() {
        let mut set = set(3);
        for e in 0..3u64 {
            for i in 0..5u64 {
                set.apply(&ingest((i % 4) as u32, ((i + 1) % 4) as u32, e * 10 + i))
                    .unwrap();
            }
            set.advance_to(SimTime::from_secs((e + 1) * 10)).unwrap();
        }
        assert_eq!(set.applied(), &[set.sequenced(); 3]);
        let p = set.primary_service().unwrap();
        for host in set.hosts() {
            let s = host.service().unwrap();
            assert_eq!(s.stats(), p.stats());
            assert_eq!(s.samples(), p.samples());
            assert_eq!(s.checkpoint().unwrap(), p.checkpoint().unwrap());
        }
        // The log compacts behind a fully in-sync set.
        assert!(set.retained_log_len() <= 1);
        assert!(set.failovers().is_empty());
    }

    #[test]
    fn killed_primary_promotes_the_healthiest_follower() {
        let mut set = set(3);
        set.attach_faults(
            FaultInjector::new(
                FaultPlan::replica_crash(0, SimTime::from_secs(15), SimDuration::from_secs(20)),
                5,
            )
            .unwrap(),
        );
        set.apply(&ingest(0, 1, 1)).unwrap();
        set.advance_to(SimTime::from_secs(10)).unwrap();
        // The crash at t=15 hits before this op; replica 1 takes over.
        set.apply(&ingest(1, 2, 16)).unwrap();
        assert_eq!(set.primary(), 1);
        assert_eq!(set.failovers().len(), 1);
        let f = set.failovers()[0];
        assert_eq!((f.from, f.to), (0, 1));
        assert_eq!(f.at, SimTime::from_secs(16));
        // Replica 0 restarts at t=35 and catches back up on the next
        // propagation.
        set.apply(&ingest(2, 3, 36)).unwrap();
        set.advance_to(SimTime::from_secs(40)).unwrap();
        assert_eq!(set.applied(), &[set.sequenced(); 3]);
        let p = set.primary_service().unwrap();
        assert_eq!(set.hosts()[0].service().unwrap().stats(), p.stats());
    }

    #[test]
    fn an_entirely_down_set_reports_the_earliest_restart() {
        let mut set = set(2);
        set.apply(&ingest(0, 1, 1)).unwrap();
        set.hosts[0].crash(SimTime::from_secs(2));
        set.hosts[1].crash(SimTime::from_secs(2));
        let err = set.apply(&ingest(1, 2, 3)).unwrap_err();
        assert!(matches!(
            err,
            HostError::Unavailable {
                reason: "no replica up",
                retry_at: SimTime::MAX,
            }
        ));
    }

    #[test]
    fn divergence_is_a_named_diagnosable_error() {
        let mut set = set(2);
        set.apply(&ingest(0, 1, 1)).unwrap();
        // Corrupt follower 1 behind the sequencer's back: an extra op
        // the primary never saw.
        set.hosts[1].apply(&ingest(2, 3, 2)).unwrap();
        let err = set.advance_to(SimTime::from_secs(10)).unwrap_err();
        assert!(err.contains("replica 1 diverged from primary 0"), "{err}");
        assert!(err.contains("at epoch 1"), "{err}");
        assert!(err.contains("first divergent section '"), "{err}");
    }

    #[test]
    fn boundary_check_reads_each_members_stored_generation() {
        let mut set = set(3);
        set.apply(&ingest(0, 1, 1)).unwrap();
        set.advance_to(SimTime::from_secs(10)).unwrap();
        assert_eq!(set.converged_epoch, 1);
        let reference = set.hosts[0].current_checkpoint().unwrap();
        for i in 0..3 {
            assert_eq!(set.hosts[i].current_checkpoint(), Some(reference));
            assert!(matches!(
                set.fingerprint(i).checkpoint,
                Some(Cow::Borrowed(_))
            ));
        }
        // The next op leaves no current generation: the fingerprint
        // encodes afresh, to the same bytes the stored write would hold.
        set.apply(&ingest(1, 2, 11)).unwrap();
        assert!(set.hosts[0].current_checkpoint().is_none());
        let fresh = set.fingerprint(0).checkpoint.unwrap();
        assert!(matches!(fresh, Cow::Owned(_)));
        let fresh = fresh.into_owned();
        set.hosts[0].checkpoint_now(SimTime::from_secs(11)).unwrap();
        assert_eq!(set.hosts[0].current_checkpoint(), Some(&fresh[..]));
    }

    #[test]
    fn follower_mutated_after_its_boundary_write_is_still_diverged() {
        let mut set = set(2);
        set.apply(&ingest(0, 1, 1)).unwrap();
        // Follower 1 closes epoch 1 on its own (storing its boundary
        // generation), then takes an op the primary never saw.
        set.hosts[1].advance_to(SimTime::from_secs(10)).unwrap();
        assert!(set.hosts[1].current_checkpoint().is_some());
        set.hosts[1].apply(&ingest(2, 3, 10)).unwrap();
        assert!(set.hosts[1].current_checkpoint().is_none());
        // The sequenced advance is a no-op on the follower's clock, so
        // its stored generation predates the stray op.
        let err = set.advance_to(SimTime::from_secs(10)).unwrap_err();
        assert!(err.contains("replica 1 diverged from primary 0"), "{err}");
        assert!(err.contains("at epoch 1"), "{err}");
        assert!(err.contains("first divergent section '"), "{err}");
    }

    #[test]
    fn faulted_and_sparse_checkpoints_converge_without_false_divergence() {
        let run = |mut set: ReplicaSet| {
            for e in 0..4u64 {
                for i in 0..5u64 {
                    set.apply(&ingest((i % 4) as u32, ((i + 1) % 4) as u32, e * 10 + i))
                        .unwrap();
                }
                set.advance_to(SimTime::from_secs((e + 1) * 10)).unwrap();
                assert_eq!(set.converged_epoch, e + 1);
            }
            set
        };
        // Every checkpoint write is bit-rotted: no generation is current,
        // so every member's fingerprint encodes afresh.
        let mut faulted = set(3);
        faulted.attach_faults(
            FaultInjector::new(FaultPlan::bit_rot(SimTime::ZERO, SimTime::MAX), 9).unwrap(),
        );
        let faulted = run(faulted);
        for host in faulted.hosts() {
            assert_eq!(host.stats().storage_faults, 4);
            assert!(host.current_checkpoint().is_none());
        }
        // A checkpoint every other epoch: odd boundaries have no current
        // generation, even ones do.
        let mut config = set(3).config().clone();
        config.host.checkpoint_every_epochs = 2;
        let sparse = run(ReplicaSet::new(config).unwrap());
        for host in sparse.hosts() {
            assert_eq!(host.stats().checkpoints_written, 2);
            assert!(host.current_checkpoint().is_some());
        }
    }

    #[test]
    fn torn_primary_write_is_redelivered_from_the_log() {
        let mut set = set(2);
        set.apply(&ingest(0, 1, 1)).unwrap();
        set.apply(&ingest(1, 2, 2)).unwrap();
        // The primary dies mid-append of the op it just acknowledged.
        set.crash_primary_torn(SimTime::from_secs(3));
        // Replica 1 serves; replica 0 needs an explicit restart.
        set.apply(&ingest(2, 3, 4)).unwrap();
        assert_eq!(set.primary(), 1);
        set.hosts[0].restart(SimTime::from_secs(5)).unwrap();
        assert!(set.hosts[0].last_recovery().unwrap().torn_tail);
        // The next sequenced entry also re-delivers the torn one.
        set.advance_to(SimTime::from_secs(10)).unwrap();
        assert_eq!(set.applied(), &[set.sequenced(); 2]);
        let p = set.primary_service().unwrap();
        let s = set.hosts()[0].service().unwrap();
        assert_eq!(s.stats(), p.stats());
        assert_eq!(s.checkpoint().unwrap(), p.checkpoint().unwrap());
    }
}
