//! Deterministic fault injection: process and storage faults.
//!
//! The dynamics layer (churn, partitions, latency — see [`dynamics`])
//! models the *environment* degrading; this module models the system
//! itself failing: processes crashing mid-epoch and restarting after a
//! delay, checkpoints torn, bit-flipped or left stale on storage. A
//! [`FaultPlan`] schedules both families on the same sim clock as a
//! [`DynamicsPlan`](crate::DynamicsPlan), so the two compose: a run can
//! partition *and* crash *and* corrupt, each on its own schedule.
//!
//! # Determinism
//!
//! Every storage-fault draw comes from [`SimRng::stream`] keyed by
//! `(seed, fault domain, label)`, the label being a caller-chosen
//! write index. No draw consumes from any shared generator, so the
//! fault schedule is a pure function of `(seed, plan, workload)`:
//! replaying a run replays its faults bit-for-bit, which is what makes
//! crash-torture sweeps pinnable (see `tests/faults.rs`).
//!
//! # Consumers
//!
//! `tsn_service::ServiceHost` consumes process faults (crash at a sim
//! time, restart after a delay) and storage faults (checkpoint
//! truncation, bit flips, stale-version substitution); a replica set
//! scopes each member's crashes to its own [`FaultTarget::Replica`].
//!
//! [`dynamics`]: crate::dynamics

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Stream-label domain for storage-fault draws (registered as
/// [`StreamDomain::FaultStorage`](crate::StreamDomain)).
const STORAGE_DOMAIN: u64 = crate::StreamDomain::FaultStorage.tag();

/// Who a process fault hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The online `TrustService` process.
    Service,
    /// One member of a replicated service, by replica index (a replica
    /// set scopes each member's crash schedule to its own target out of
    /// one shared plan).
    Replica(u32),
}

/// A scheduled crash: the target loses all volatile state at `at` and
/// comes back `restart_after` later (recovering from durable storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessFault {
    /// Who crashes.
    pub target: FaultTarget,
    /// When the crash happens.
    pub at: SimTime,
    /// Downtime before the restart ([`SimDuration::MAX`] = never
    /// restarts; the restart instant saturates at the horizon).
    pub restart_after: SimDuration,
}

impl ProcessFault {
    /// The instant the target is back up, saturating at the horizon.
    pub fn restart_at(&self) -> SimTime {
        self.at.saturating_add(self.restart_after)
    }
}

/// What a storage fault does to a checkpoint write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StorageFaultKind {
    /// Keep only the leading `keep_fraction` of the bytes (a torn
    /// write).
    Truncate {
        /// Fraction of the checkpoint that survives, in `[0, 1)`.
        keep_fraction: f64,
    },
    /// Flip `flips` deterministic bits anywhere in the checkpoint.
    BitFlip {
        /// Number of bits to flip (at least 1).
        flips: u32,
    },
    /// Substitute the previously stored version (a lost write that
    /// leaves the old file in place).
    StaleVersion,
}

/// A storage fault active over `[start, end)`: every checkpoint write
/// whose sim time falls inside the window is affected.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageFault {
    /// When writes start being affected.
    pub start: SimTime,
    /// When writes stop being affected ([`SimTime::MAX`] = never).
    pub end: SimTime,
    /// What happens to affected writes.
    pub kind: StorageFaultKind,
}

/// A validated, composable fault schedule (see the module docs).
///
/// The empty plan is the default and injects nothing; presets cover the
/// common shapes. A plan composes with a
/// [`DynamicsPlan`](crate::DynamicsPlan) trivially — both run on the
/// sim clock and touch disjoint machinery.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Process crashes.
    pub process: Vec<ProcessFault>,
    /// Checkpoint-storage faults.
    pub storage: Vec<StorageFault>,
}

impl FaultPlan {
    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid entry: an empty
    /// storage window, a truncation keeping everything, zero bit flips,
    /// or per-target crashes that overlap a previous downtime.
    pub fn validate(&self) -> Result<(), String> {
        for (i, f) in self.process.iter().enumerate() {
            for (j, g) in self.process.iter().enumerate().take(i) {
                if f.target == g.target && f.at < g.restart_at() && g.at < f.restart_at() {
                    return Err(format!(
                        "process faults {j} and {i} overlap for the same target"
                    ));
                }
            }
        }
        for (i, f) in self.storage.iter().enumerate() {
            if f.end <= f.start {
                return Err(format!("storage fault {i} must end after it starts"));
            }
            match f.kind {
                StorageFaultKind::Truncate { keep_fraction } => {
                    if !(0.0..1.0).contains(&keep_fraction) {
                        return Err(format!(
                            "storage fault {i} keep_fraction must be in [0, 1), got {keep_fraction}"
                        ));
                    }
                }
                StorageFaultKind::BitFlip { flips } => {
                    if flips == 0 {
                        return Err(format!("storage fault {i} must flip at least one bit"));
                    }
                }
                StorageFaultKind::StaleVersion => {}
            }
        }
        Ok(())
    }

    /// Preset: the service crashes at `at` and restarts `downtime`
    /// later.
    pub fn service_crash(at: SimTime, downtime: SimDuration) -> Self {
        FaultPlan {
            process: vec![ProcessFault {
                target: FaultTarget::Service,
                at,
                restart_after: downtime,
            }],
            ..FaultPlan::default()
        }
    }

    /// Preset: replica `index` of a replicated service crashes at `at`
    /// and restarts `downtime` later — the kill-primary building block
    /// of failover tests (a fresh replica set's primary is replica 0).
    pub fn replica_crash(index: u32, at: SimTime, downtime: SimDuration) -> Self {
        FaultPlan {
            process: vec![ProcessFault {
                target: FaultTarget::Replica(index),
                at,
                restart_after: downtime,
            }],
            ..FaultPlan::default()
        }
    }

    /// Preset: every checkpoint written in `[start, end)` is torn,
    /// keeping 60 % of its bytes.
    pub fn torn_checkpoints(start: SimTime, end: SimTime) -> Self {
        FaultPlan {
            storage: vec![StorageFault {
                start,
                end,
                kind: StorageFaultKind::Truncate { keep_fraction: 0.6 },
            }],
            ..FaultPlan::default()
        }
    }

    /// Preset: every checkpoint written in `[start, end)` suffers one
    /// flipped bit — the silent-corruption case per-section CRCs exist
    /// to catch.
    pub fn bit_rot(start: SimTime, end: SimTime) -> Self {
        FaultPlan {
            storage: vec![StorageFault {
                start,
                end,
                kind: StorageFaultKind::BitFlip { flips: 1 },
            }],
            ..FaultPlan::default()
        }
    }
}

/// Executes a [`FaultPlan`] deterministically (see the module docs).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
}

impl FaultInjector {
    /// Builds an injector from a validated plan.
    ///
    /// # Errors
    ///
    /// Returns the plan's validation error.
    pub fn new(plan: FaultPlan, seed: u64) -> Result<Self, String> {
        plan.validate()?;
        Ok(FaultInjector { plan, seed })
    }

    /// The crash scheduled for `target` at or after `after`, if any.
    pub fn next_crash(&self, target: FaultTarget, after: SimTime) -> Option<ProcessFault> {
        self.plan
            .process
            .iter()
            .filter(|f| f.target == target && f.at >= after)
            .min_by_key(|f| f.at)
            .copied()
    }

    /// Applies every storage fault active at `at` to a checkpoint being
    /// written, in plan order. `previous` is the last successfully
    /// stored version (for [`StorageFaultKind::StaleVersion`]); `label`
    /// keys the deterministic draws (use the checkpoint's write index).
    /// Returns the kinds applied, for fault accounting.
    pub fn corrupt_checkpoint(
        &self,
        bytes: &mut Vec<u8>,
        previous: Option<&[u8]>,
        at: SimTime,
        label: u64,
    ) -> Vec<StorageFaultKind> {
        let mut applied = Vec::new();
        for fault in &self.plan.storage {
            if at < fault.start || at >= fault.end {
                continue;
            }
            match fault.kind {
                StorageFaultKind::Truncate { keep_fraction } => {
                    let keep = (bytes.len() as f64 * keep_fraction) as usize;
                    bytes.truncate(keep);
                }
                StorageFaultKind::BitFlip { flips } => {
                    if bytes.is_empty() {
                        continue;
                    }
                    let mut rng = SimRng::stream(self.seed, STORAGE_DOMAIN ^ label);
                    for _ in 0..flips {
                        let i = rng.gen_range(0..bytes.len());
                        let bit = rng.gen_range(0..8u32);
                        bytes[i] ^= 1 << bit;
                    }
                }
                StorageFaultKind::StaleVersion => {
                    if let Some(prev) = previous {
                        bytes.clear();
                        bytes.extend_from_slice(prev);
                    }
                }
            }
            applied.push(fault.kind);
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn validation_names_the_offending_entry() {
        let bad = FaultPlan {
            storage: vec![StorageFault {
                start: secs(5),
                end: secs(5),
                kind: StorageFaultKind::StaleVersion,
            }],
            ..FaultPlan::default()
        };
        assert!(bad.validate().unwrap_err().contains("storage fault 0"));
        let bad = FaultPlan {
            storage: vec![StorageFault {
                start: secs(0),
                end: secs(9),
                kind: StorageFaultKind::Truncate { keep_fraction: 1.0 },
            }],
            ..FaultPlan::default()
        };
        assert!(bad.validate().unwrap_err().contains("keep_fraction"));
        let bad = FaultPlan {
            storage: vec![StorageFault {
                start: secs(0),
                end: secs(9),
                kind: StorageFaultKind::BitFlip { flips: 0 },
            }],
            ..FaultPlan::default()
        };
        assert!(bad.validate().unwrap_err().contains("at least one bit"));
        let bad = FaultPlan {
            process: vec![
                ProcessFault {
                    target: FaultTarget::Service,
                    at: secs(10),
                    restart_after: SimDuration::from_secs(20),
                },
                ProcessFault {
                    target: FaultTarget::Service,
                    at: secs(15),
                    restart_after: SimDuration::from_secs(1),
                },
            ],
            ..FaultPlan::default()
        };
        assert!(bad.validate().unwrap_err().contains("overlap"));
        // Same times on *different* targets are fine.
        let ok = FaultPlan {
            process: vec![
                ProcessFault {
                    target: FaultTarget::Service,
                    at: secs(10),
                    restart_after: SimDuration::from_secs(20),
                },
                ProcessFault {
                    target: FaultTarget::Replica(3),
                    at: secs(15),
                    restart_after: SimDuration::from_secs(1),
                },
            ],
            ..FaultPlan::default()
        };
        assert!(ok.validate().is_ok());
        assert!(FaultPlan::default().validate().is_ok());
        for preset in [
            FaultPlan::service_crash(secs(5), SimDuration::from_secs(2)),
            FaultPlan::torn_checkpoints(secs(0), SimTime::MAX),
            FaultPlan::bit_rot(secs(0), SimTime::MAX),
        ] {
            preset.validate().expect("presets validate");
        }
    }

    #[test]
    fn next_crash_finds_the_earliest_pending_fault() {
        let plan = FaultPlan {
            process: vec![
                ProcessFault {
                    target: FaultTarget::Service,
                    at: secs(30),
                    restart_after: SimDuration::from_secs(5),
                },
                ProcessFault {
                    target: FaultTarget::Service,
                    at: secs(10),
                    restart_after: SimDuration::from_secs(5),
                },
                ProcessFault {
                    target: FaultTarget::Replica(2),
                    at: secs(1),
                    restart_after: SimDuration::MAX,
                },
            ],
            ..FaultPlan::default()
        };
        let injector = FaultInjector::new(plan, 0).unwrap();
        let first = injector
            .next_crash(FaultTarget::Service, SimTime::ZERO)
            .unwrap();
        assert_eq!(first.at, secs(10));
        assert_eq!(first.restart_at(), secs(15));
        let second = injector.next_crash(FaultTarget::Service, secs(11)).unwrap();
        assert_eq!(second.at, secs(30));
        assert!(injector
            .next_crash(FaultTarget::Service, secs(31))
            .is_none());
        // A never-restarting replica fault saturates at the horizon.
        let replica = injector
            .next_crash(FaultTarget::Replica(2), SimTime::ZERO)
            .unwrap();
        assert_eq!(replica.restart_at(), SimTime::MAX);
    }

    #[test]
    fn storage_faults_truncate_flip_and_substitute() {
        let original: Vec<u8> = (0..100u8).collect();
        let previous: Vec<u8> = vec![0xEE; 40];

        let torn = FaultInjector::new(FaultPlan::torn_checkpoints(secs(0), secs(100)), 5).unwrap();
        let mut bytes = original.clone();
        let applied = torn.corrupt_checkpoint(&mut bytes, Some(&previous), secs(50), 0);
        assert_eq!(bytes.len(), 60, "keep_fraction 0.6 of 100 bytes");
        assert_eq!(bytes[..60], original[..60]);
        assert_eq!(applied.len(), 1);
        // Outside the window: untouched.
        let mut clean = original.clone();
        assert!(torn
            .corrupt_checkpoint(&mut clean, Some(&previous), secs(100), 0)
            .is_empty());
        assert_eq!(clean, original);

        let rot = FaultInjector::new(FaultPlan::bit_rot(secs(0), secs(100)), 5).unwrap();
        let mut a = original.clone();
        let mut b = original.clone();
        rot.corrupt_checkpoint(&mut a, None, secs(1), 7);
        rot.corrupt_checkpoint(&mut b, None, secs(1), 7);
        assert_eq!(a, b, "bit flips must be deterministic per label");
        let distance: u32 = a
            .iter()
            .zip(&original)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(distance, 1, "exactly one flipped bit");
        let mut c = original.clone();
        rot.corrupt_checkpoint(&mut c, None, secs(1), 8);
        assert_ne!(c, a, "different labels flip different bits");

        let stale = FaultInjector::new(
            FaultPlan {
                storage: vec![StorageFault {
                    start: secs(0),
                    end: SimTime::MAX,
                    kind: StorageFaultKind::StaleVersion,
                }],
                ..FaultPlan::default()
            },
            5,
        )
        .unwrap();
        let mut bytes = original.clone();
        stale.corrupt_checkpoint(&mut bytes, Some(&previous), secs(1), 0);
        assert_eq!(bytes, previous, "write replaced by the stale version");
        // With no previous version the substitution is a no-op.
        let mut bytes = original.clone();
        stale.corrupt_checkpoint(&mut bytes, None, secs(1), 0);
        assert_eq!(bytes, original);
    }
}
