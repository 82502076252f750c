//! Crash-torture: recovery is invisible.
//!
//! The contracts pinned here:
//!
//! 1. **Recover-then-continue == uninterrupted**, bit for bit, at every
//!    crash point that matters — an epoch boundary, mid-epoch with
//!    staged events, mid-partition-window, and mid-journal-write (a
//!    torn record). The only thing a crash may cost is operations that
//!    were never acknowledged, and the client's retry restores even
//!    those.
//! 2. **Corruption degrades, never lies.** A corrupt newest checkpoint
//!    is detected by its per-section CRC, named in the recovery report,
//!    and recovery falls back to the previous checkpoint plus a longer
//!    journal suffix — converging on the same state.
//! 3. **Fault schedules are part of the experiment.** The same
//!    `(FaultPlan, seed)` replays the same crashes, the same storage
//!    damage, and the same retried timeline, bit for bit.

use tsn::prelude::*;
use tsn::reputation::MechanismKind;
use tsn::service::{
    checkpoint_sections, ApplyOutcome, EpochSample, EventJournal, HostState, JournalRecord,
    ServiceStats, CHECKPOINT_SECTIONS,
};

/// One step of a host timeline: an op at its own timestamp, or an
/// explicit clock advance (the epoch-boundary commit).
#[derive(Debug, Clone, Copy)]
enum Action {
    Op(ServiceOp),
    Advance(SimTime),
}

impl Action {
    fn at(&self) -> SimTime {
        match *self {
            Action::Op(op) => op.at(),
            Action::Advance(at) => at,
        }
    }

    fn run(&self, host: &mut ServiceHost) {
        match *self {
            Action::Op(op) => {
                host.apply(&op).expect("workload ops are valid");
            }
            Action::Advance(at) => host.advance_to(at).expect("advance is valid"),
        }
    }
}

/// Everything observable about a service, bit-exact.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    now_us: u64,
    epoch: u64,
    staged: usize,
    stats: ServiceStats,
    samples: Vec<EpochSample>,
    score_bits: Vec<u64>,
}

fn fingerprint(service: &TrustService) -> Fingerprint {
    Fingerprint {
        now_us: service.now().as_micros(),
        epoch: service.epoch_index(),
        staged: service.staged_len(),
        stats: service.stats(),
        samples: service.samples().to_vec(),
        score_bits: service.scores().iter().map(|s| s.to_bits()).collect(),
    }
}

/// A 3-epoch workload over 30 nodes with a partition window open inside
/// epoch 1 (70 s – 110 s on a 60 s epoch), so crash points can land
/// mid-window.
fn torture_setup() -> (ServiceDriver, HostConfig, Vec<Action>) {
    let nodes = 30;
    let epochs = 3u64;
    let driver = ServiceDriver::new(DriverConfig {
        nodes,
        arrival_rate: 2.0,
        disclosure_rate: 0.25,
        query_rate: 0.4,
        malicious_fraction: 0.2,
        seed: 11,
        membership: None,
    })
    .expect("valid driver");
    let service = ServiceConfig {
        nodes,
        epoch: SimDuration::from_secs(60),
        partitions: vec![PartitionWindow::full_split(
            SimTime::from_secs(70),
            SimTime::from_secs(110),
            2,
        )],
        ..ServiceConfig::default()
    };
    let host = HostConfig {
        service: service.clone(),
        journal: true,
        checkpoint_every_epochs: 1,
        retain_checkpoints: 2,
        recovery_grace: SimDuration::ZERO,
        ..HostConfig::default()
    };
    let probe = TrustService::new(service).expect("valid service");
    let mut actions = Vec::new();
    for epoch in 0..epochs {
        for op in driver.ops_for_epoch(&probe, epoch) {
            actions.push(Action::Op(op));
        }
        actions.push(Action::Advance(probe.epoch_end(epoch)));
    }
    (driver, host, actions)
}

fn reference_run(config: &HostConfig, actions: &[Action]) -> Fingerprint {
    let mut host = ServiceHost::new(config.clone()).expect("valid host");
    for action in actions {
        action.run(&mut host);
    }
    fingerprint(host.service().expect("reference host never crashes"))
}

/// Runs `actions` with a crash at `crash_at` (torn journal tail when
/// `torn`), an immediate restart, and — for the torn case — the
/// client's retry of the one unacknowledged operation. Returns the
/// final fingerprint and the recovery report.
fn crashed_run(
    config: &HostConfig,
    actions: &[Action],
    crash_at: SimTime,
    torn: bool,
) -> (Fingerprint, tsn::service::RecoveryReport) {
    let mut host = ServiceHost::new(config.clone()).expect("valid host");
    let mut crashed = false;
    let mut last_applied: Option<Action> = None;
    for action in actions {
        if !crashed && action.at() >= crash_at {
            if torn {
                host.crash_torn(crash_at);
            } else {
                host.crash(crash_at);
            }
            host.restart(crash_at).expect("recovery succeeds");
            if torn {
                // The torn record's op was never acknowledged; the
                // client reissues it verbatim.
                last_applied
                    .expect("crash points land after at least one action")
                    .run(&mut host);
            }
            crashed = true;
        }
        action.run(&mut host);
        last_applied = Some(*action);
    }
    assert!(crashed, "crash point {crash_at:?} must land inside the run");
    let report = host.last_recovery().expect("recovery ran").clone();
    (fingerprint(host.service().expect("host ends up")), report)
}

/// Contract 1, clean crashes: sweep the named crash points plus an
/// even spread across the whole timeline.
#[test]
fn recovery_is_bit_identical_at_every_crash_point() {
    let (_, config, actions) = torture_setup();
    let reference = reference_run(&config, &actions);
    let epoch_end = SimTime::from_secs(60);
    let mut crash_points = vec![
        epoch_end,                                             // exactly the epoch boundary
        epoch_end.saturating_add(SimDuration::from_micros(1)), // just inside epoch 1
        SimTime::from_secs(90),                                // mid-partition-window
        SimTime::from_secs(150),                               // mid-epoch 2, staged events
    ];
    // An even spread: every eighth of the timeline.
    let len = actions.len();
    for i in 1..8 {
        crash_points.push(actions[i * len / 8].at());
    }
    for &crash_at in &crash_points {
        let (recovered, report) = crashed_run(&config, &actions, crash_at, false);
        assert!(!report.torn_tail, "clean crashes leave no torn tail");
        assert_eq!(
            recovered, reference,
            "recover-then-continue diverged for a clean crash at {crash_at:?}"
        );
    }
}

/// Contract 1, mid-journal-write crashes: the torn record's op is the
/// only loss, and the client's retry makes the run whole again.
#[test]
fn torn_journal_recovery_is_bit_identical_after_the_client_retries() {
    let (_, config, actions) = torture_setup();
    let reference = reference_run(&config, &actions);
    let len = actions.len();
    for i in [len / 5, len / 2, 4 * len / 5] {
        let crash_at = actions[i].at();
        let (recovered, report) = crashed_run(&config, &actions, crash_at, true);
        assert!(
            report.torn_tail,
            "a mid-append crash must be detected as torn"
        );
        assert_eq!(
            recovered, reference,
            "torn-tail recovery + retry diverged for a crash at {crash_at:?}"
        );
    }
}

/// Contract 2: bit rot on the newest checkpoint write is detected by a
/// section CRC, named, and recovery falls back to the previous
/// checkpoint — still converging bit-identically.
#[test]
fn corrupt_newest_checkpoint_falls_back_and_still_converges() {
    let (_, config, actions) = torture_setup();
    let reference = reference_run(&config, &actions);
    let mut host = ServiceHost::new(config.clone()).expect("valid host");
    // Rot exactly the checkpoint written at the epoch-2 boundary
    // (120 s); the epoch-1 checkpoint (60 s) stays clean.
    host.attach_faults(
        FaultInjector::new(
            FaultPlan::bit_rot(SimTime::from_secs(115), SimTime::from_secs(125)),
            77,
        )
        .expect("valid plan"),
    );
    let crash_at = SimTime::from_secs(150);
    let mut crashed = false;
    for action in &actions {
        if !crashed && action.at() >= crash_at {
            host.crash(crash_at);
            host.restart(crash_at).expect("fallback recovery succeeds");
            crashed = true;
        }
        action.run(&mut host);
    }
    let report = host.last_recovery().expect("recovery ran").clone();
    assert_eq!(
        report.fallbacks, 1,
        "the rotted newest checkpoint is skipped"
    );
    assert!(
        report.corrupt[0].contains("is corrupt") || report.corrupt[0].contains("section"),
        "the divergence must be reported with its cause: {}",
        report.corrupt[0]
    );
    assert!(!report.from_scratch, "the previous checkpoint restores");
    assert_eq!(host.stats().storage_faults, 1);
    assert_eq!(host.stats().checkpoint_fallbacks, 1);
    assert_eq!(
        fingerprint(host.service().expect("host ends up")),
        reference,
        "fallback recovery must converge on the uninterrupted state"
    );
}

/// Contract 3: the whole faulted pipeline — scheduled crash, storage
/// rot, client retries — replays bit for bit from `(plan, seed)`.
#[test]
fn faulted_runs_replay_bit_for_bit() {
    let run = || {
        let driver = ServiceDriver::new(DriverConfig {
            nodes: 25,
            arrival_rate: 2.0,
            seed: 5,
            ..DriverConfig::default()
        })
        .expect("valid driver");
        let mut host = ServiceHost::new(HostConfig {
            service: ServiceConfig {
                nodes: 25,
                epoch: SimDuration::from_secs(60),
                ..ServiceConfig::default()
            },
            recovery_grace: SimDuration::from_secs(4),
            ..HostConfig::default()
        })
        .expect("valid host");
        let mut plan = FaultPlan::service_crash(SimTime::from_secs(80), SimDuration::from_secs(15));
        plan.storage = FaultPlan::bit_rot(SimTime::from_secs(55), SimTime::from_secs(65)).storage;
        host.attach_faults(FaultInjector::new(plan, 21).expect("valid plan"));
        let report = driver.drive_host(&mut host, 3).expect("drive succeeds");
        (
            report,
            host.stats(),
            fingerprint(host.service().expect("up at the end")),
        )
    };
    let (report_a, stats_a, state_a) = run();
    let (report_b, stats_b, state_b) = run();
    assert!(stats_a.crashes >= 1, "the scheduled crash fired");
    assert!(report_a.retries > 0, "downtime ops were retried");
    assert_eq!(report_a, report_b);
    assert_eq!(stats_a, stats_b);
    assert_eq!(state_a, state_b);
}

/// Degraded reads during the recovery window are marked and leave no
/// trace: a run that issues them ends bit-identical to one that skips
/// them.
#[test]
fn degraded_queries_are_marked_and_leave_no_trace() {
    let build = || {
        let mut host = ServiceHost::new(HostConfig {
            service: ServiceConfig {
                nodes: 10,
                epoch: SimDuration::from_secs(60),
                ..ServiceConfig::default()
            },
            recovery_grace: SimDuration::from_secs(10),
            ..HostConfig::default()
        })
        .expect("valid host");
        let op = ServiceOp::Ingest(ServiceEvent::Interaction {
            rater: NodeId(0),
            ratee: NodeId(1),
            outcome: tsn::reputation::InteractionOutcome::Success { quality: 1.0 },
            at: SimTime::from_secs(5),
        });
        host.apply(&op).expect("ingest");
        host.advance_to(SimTime::from_secs(60)).expect("commit");
        host.crash(SimTime::from_secs(70));
        host.restart(SimTime::from_secs(75)).expect("recovery");
        assert_eq!(host.state(), HostState::Recovering);
        host
    };
    let mut with_reads = build();
    for node in 0..5u32 {
        let outcome = with_reads
            .apply(&ServiceOp::QueryTrust {
                node: NodeId(node),
                at: SimTime::from_secs(80),
            })
            .expect("degraded queries answer");
        let ApplyOutcome::Trust(answer) = outcome else {
            panic!("trust queries answer with trust results");
        };
        assert_eq!(answer.mode, Staleness::Degraded);
    }
    assert_eq!(with_reads.stats().degraded_queries, 5);
    let without_reads = build();
    let close = |mut h: ServiceHost| {
        h.advance_to(SimTime::from_secs(120)).expect("advance");
        fingerprint(h.service().expect("up"))
    };
    assert_eq!(
        close(with_reads),
        close(without_reads),
        "degraded reads must not perturb recovered state"
    );
}

/// Satellite: truncating a checkpoint at (and inside) every section
/// names that section in the error, table-driven over the format's
/// section order.
#[test]
fn checkpoint_truncation_names_every_section() {
    let (_, config, actions) = torture_setup();
    let mut host = ServiceHost::new(config).expect("valid host");
    // Run past a partition window and a couple of commits so every
    // section is non-trivial, stopping mid-epoch so events are staged.
    for action in &actions {
        if action.at() >= SimTime::from_secs(150) {
            break;
        }
        action.run(&mut host);
    }
    let bytes = host
        .service()
        .expect("up")
        .checkpoint()
        .expect("checkpoint");
    let sections = checkpoint_sections(&bytes).expect("well-formed checkpoint");
    assert_eq!(sections.len(), CHECKPOINT_SECTIONS.len());
    for (section, name) in sections.iter().zip(CHECKPOINT_SECTIONS) {
        assert_eq!(section.name, name, "sections come in format order");
        assert!(section.crc_ok, "an untouched checkpoint is clean");
        // Truncating anywhere inside the section names it: right at its
        // start, just after its CRC word, and mid-payload.
        for cut in [
            section.offset,
            section.offset + 2,
            section.offset + section.len / 2,
        ] {
            let err = TrustService::restore(&bytes[..cut]).expect_err("truncated");
            assert!(
                err.contains(&format!("'{name}'")),
                "truncation at byte {cut} must blame section '{name}', got: {err}"
            );
            assert!(
                err.contains("at offset") || err.contains("is corrupt"),
                "truncation errors carry the byte offset, got: {err}"
            );
        }
        // A flipped bit inside the payload fails that section's CRC.
        let mut rotted = bytes.clone();
        rotted[section.offset + section.len / 2] ^= 0x10;
        let err = TrustService::restore(&rotted).expect_err("corrupt");
        assert!(
            err.contains(&format!("'{name}'")),
            "bit rot in section '{name}' must be blamed on it, got: {err}"
        );
    }
}

/// Satellite: an unsupported mechanism's checkpoint error states which
/// mechanisms *do* support snapshots.
#[test]
fn unsupported_checkpoint_error_lists_capable_mechanisms() {
    let service = TrustService::new(ServiceConfig {
        nodes: 8,
        mechanism: MechanismKind::PowerTrust,
        ..ServiceConfig::default()
    })
    .expect("valid service");
    let err = service
        .checkpoint()
        .expect_err("powertrust cannot snapshot");
    for name in ["powertrust", "none", "beta", "eigentrust"] {
        assert!(err.contains(name), "error must mention {name}: {err}");
    }
}

/// Satellite (property test): the journal round-trips randomized
/// record batches — empty epochs included, extreme field values
/// included — and any single-bit corruption is caught, losing at most
/// the records at and after the damage.
#[test]
fn journal_round_trips_random_batches_and_catches_single_bit_rot() {
    let mut rng = SimRng::seed_from_u64(99);
    for trial in 0..25 {
        let count: usize = rng.gen_range(0..40);
        let mut records = Vec::new();
        let mut at_us: u64 = 0;
        for _ in 0..count {
            at_us += rng.gen_range(0..5_000_000u64);
            let at = SimTime::from_micros(at_us);
            let record = match rng.gen_range(0..5u8) {
                0 => JournalRecord::Op(ServiceOp::Ingest(ServiceEvent::Interaction {
                    rater: NodeId(rng.gen_range(0..1000u32)),
                    ratee: NodeId(u32::MAX), // extreme id survives the codec
                    outcome: tsn::reputation::InteractionOutcome::Success {
                        quality: rng.gen_f64(),
                    },
                    at,
                })),
                1 => JournalRecord::Op(ServiceOp::Ingest(ServiceEvent::Disclosure {
                    node: NodeId(rng.gen_range(0..1000u32)),
                    respected: rng.gen_bool(0.5),
                    at,
                })),
                2 => JournalRecord::Op(ServiceOp::QueryTrust {
                    node: NodeId(rng.gen_range(0..1000u32)),
                    at,
                }),
                3 => JournalRecord::Op(ServiceOp::QueryExposure {
                    node: NodeId(rng.gen_range(0..1000u32)),
                    at,
                }),
                // An empty epoch: nothing but its boundary advance.
                _ => JournalRecord::Advance { at },
            };
            records.push(record);
        }
        // Small segments so every trial crosses seal boundaries; the
        // flattened record stream must be segmentation-invariant.
        let mut journal = EventJournal::with_segment_bytes(256);
        for record in &records {
            journal.append(record);
        }
        let body = journal.flattened_body();
        let scan = EventJournal::scan(&body);
        assert!(!scan.torn, "trial {trial}: clean bytes scan clean");
        assert_eq!(scan.records, records, "trial {trial}: round trip");
        if body.is_empty() {
            continue;
        }
        // Single-bit rot at a random position: the valid prefix is
        // exactly the records before the damaged one.
        let byte: usize = rng.gen_range(0..body.len());
        let bit = 1u8 << rng.gen_range(0..8u8);
        let mut rotted = body.clone();
        rotted[byte] ^= bit;
        let damaged = EventJournal::scan(&rotted);
        assert!(
            damaged.torn || damaged.records.len() < records.len(),
            "trial {trial}: a flipped bit must be caught"
        );
        assert_eq!(
            damaged.records[..],
            records[..damaged.records.len()],
            "trial {trial}: everything before the damage survives intact"
        );
    }
}

/// Satellite: a crash **during the checkpoint write itself**. The
/// newest ring generation is left truncated at every section boundary
/// of the format (and mid-payload), table-driven; recovery must grade
/// the torn generation, blame the damaged section by name, fall back
/// to the previous generation, and still converge bit-identically.
#[test]
fn torn_checkpoint_write_is_skipped_at_every_section_boundary() {
    let (_, config, actions) = torture_setup();
    let reference = reference_run(&config, &actions);
    // Crash at 150 s: the ring then holds the 60 s and 120 s
    // generations, so a torn newest write still has a clean fallback.
    let crash_at = SimTime::from_secs(150);
    // Discover the section layout of the generation actually written at
    // the 120 s boundary.
    let mut probe = ServiceHost::new(config.clone()).expect("valid host");
    for action in &actions {
        if action.at() >= crash_at {
            break;
        }
        action.run(&mut probe);
    }
    let newest = probe
        .stored_checkpoints()
        .last()
        .expect("the ring holds two generations by 150 s")
        .clone();
    assert!(newest.intact, "the untouched generation grades clean");
    let sections = checkpoint_sections(&newest.bytes).expect("well-formed checkpoint");
    assert_eq!(sections.len(), CHECKPOINT_SECTIONS.len());

    // The write can die right at a section's start or partway through
    // its payload; both must be skipped the same way.
    let mut cuts = Vec::new();
    for section in &sections {
        cuts.push((section.name, section.offset));
        cuts.push((section.name, section.offset + section.len / 2));
    }
    for (name, cut) in cuts {
        let mut host = ServiceHost::new(config.clone()).expect("valid host");
        let mut crashed = false;
        for action in &actions {
            if !crashed && action.at() >= crash_at {
                assert!(
                    host.tear_newest_checkpoint(cut),
                    "the ring is non-empty at the crash"
                );
                host.crash(crash_at);
                host.restart(crash_at).expect("fallback recovery succeeds");
                crashed = true;
            }
            action.run(&mut host);
        }
        let report = host.last_recovery().expect("recovery ran").clone();
        assert_eq!(
            report.fallbacks, 1,
            "exactly the torn generation is skipped (cut at byte {cut})"
        );
        assert!(
            !report.from_scratch,
            "the previous generation must restore (cut at byte {cut})"
        );
        assert!(
            report.corrupt[0].contains(&format!("'{name}'")),
            "the torn write at byte {cut} must blame section '{name}', got: {}",
            report.corrupt[0]
        );
        assert_eq!(
            fingerprint(host.service().expect("host ends up")),
            reference,
            "fallback recovery diverged for a checkpoint torn at byte {cut}"
        );
    }
}
