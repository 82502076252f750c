//! The `service_replicated` workload: a 3-member `ReplicaSet` with the
//! journal on and a checkpoint every epoch, fed a `ServiceDriver`
//! timeline in a closed loop by one synchronous client, while a fault
//! plan kills replica 0 (the primary) mid-epoch and restarts it two
//! epochs later.
//!
//! The timeline is generated before timing starts. Each repeat builds a
//! fresh set (`setup_s`) and replays the whole timeline; every
//! `ReplicaSet::apply` and every epoch-end `ReplicaSet::advance_to` is
//! timed from outside. After timing, a bare `TrustService` fed the same
//! stream must end bit-identical to the primary.

use crate::stats::{median, percentile, Rate};
use crate::trace::Tracer;
use crate::{repeat_for, secs, Args, Counters, Report};
use std::time::Instant;
use tsn_service::{
    DriverConfig, EventJournal, HostConfig, HostState, JournalRecord, ReplicaConfig, ReplicaSet,
    ServiceConfig, ServiceDriver, ServiceOp, TrustService,
};
use tsn_simnet::{FaultInjector, FaultPlan, SimDuration, SimTime};

/// Extra set constructions per repeat, for a steadier `setup_s`.
const SETUP_REPS: usize = 20;

/// The workload's shape at one scale.
struct Shape {
    nodes: usize,
    epochs: u64,
    /// When replica 0 crashes, in epochs.
    crash_at: f64,
    /// How long it stays down, in epochs.
    downtime: f64,
}

const EPOCH: SimDuration = SimDuration::from_secs(60);

fn shape(args: &Args) -> Shape {
    if args.toy {
        Shape {
            nodes: 300,
            epochs: 4,
            crash_at: 1.5,
            downtime: 1.0,
        }
    } else {
        Shape {
            nodes: 5_000,
            epochs: 20,
            crash_at: 8.5,
            downtime: 2.0,
        }
    }
}

fn replica_config(shape: &Shape) -> ReplicaConfig {
    ReplicaConfig {
        host: HostConfig {
            service: ServiceConfig {
                nodes: shape.nodes,
                epoch: EPOCH,
                commit_shards: 1,
                ..ServiceConfig::default()
            },
            journal: true,
            checkpoint_every_epochs: 1,
            retain_checkpoints: 2,
            recovery_grace: SimDuration::ZERO,
            ..HostConfig::default()
        },
        replicas: 3,
    }
}

fn epochs_to_time(epochs: f64) -> SimDuration {
    SimDuration::from_micros((EPOCH.as_micros() as f64 * epochs) as u64)
}

/// What `setup_s` times: the set and its fault plan.
fn build_set(config: &ReplicaConfig, shape: &Shape, seed: u64) -> Result<ReplicaSet, String> {
    let plan = FaultPlan::replica_crash(
        0,
        SimTime::ZERO + epochs_to_time(shape.crash_at),
        epochs_to_time(shape.downtime),
    );
    let mut set = ReplicaSet::new(config.clone())?;
    set.attach_faults(FaultInjector::new(plan, seed)?);
    Ok(set)
}

/// One timed replay of the timeline.
#[derive(Default)]
struct Replay {
    wall_s: f64,
    visible_ms_p99: f64,
    acknowledged: u64,
    failed: u64,
    first_error: Option<String>,
    failovers: u64,
    recoveries: u64,
}

fn recoveries(set: &ReplicaSet) -> u64 {
    set.hosts().iter().map(|h| h.stats().recoveries).sum()
}

/// Replays `timeline` into `set`, one synchronous call at a time, and
/// returns the 99th percentile of visibility latency (start of an
/// acknowledged ingest to the return of the boundary that commits it)
/// with the other call accounting. Traced, it
/// records per repeat a `replica.replay` span whose children are one
/// `replica.apply_batch` per epoch (calls and busy time as attributes),
/// the calls that promoted a follower (`replica.apply.failover`) or
/// restarted a member (`replica.apply.recovery`), and every
/// `replica.advance_to` boundary.
fn replay(
    set: &mut ReplicaSet,
    timeline: &[Vec<ServiceOp>],
    retained_max: &mut usize,
    tracer: &mut Tracer,
) -> Replay {
    let mut out = Replay::default();
    let total: usize = timeline.iter().map(Vec::len).sum();
    let mut visible_ms = Vec::with_capacity(total);
    let mut ingest_starts: Vec<Instant> = Vec::with_capacity(total);
    let start = Instant::now();
    let root = tracer.open("replica.replay", None, start);
    for (epoch, ops) in timeline.iter().enumerate() {
        let mut busy_ns = 0u128;
        let mut calls = 0u64;
        let batch_start = Instant::now();
        for op in ops {
            let failovers_before = set.failovers().len();
            let recoveries_before = recoveries(set);
            let t0 = Instant::now();
            let result = set.apply(op);
            let t1 = Instant::now();
            match result {
                Ok(_) => {
                    out.acknowledged += 1;
                    if matches!(op, ServiceOp::Ingest(_)) {
                        ingest_starts.push(t0);
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.first_error.get_or_insert_with(|| e.to_string());
                }
            }
            let failover = set.failovers().len() > failovers_before;
            let recovery = recoveries(set) > recoveries_before;
            out.failovers += u64::from(failover);
            out.recoveries += u64::from(recovery);
            if failover {
                tracer.record("replica.apply.failover", root, t0, t1);
            }
            if recovery {
                tracer.record("replica.apply.recovery", root, t0, t1);
            }
            if !failover && !recovery {
                busy_ns += t1.duration_since(t0).as_nanos();
                calls += 1;
            }
            if tracer.enabled() {
                *retained_max = (*retained_max).max(set.retained_log_len());
            }
        }
        let batch = tracer.record("replica.apply_batch", root, batch_start, Instant::now());
        tracer.set_attr(batch, "calls", calls as f64);
        tracer.set_attr(batch, "busy_ns", busy_ns as f64);

        let end = SimTime::ZERO + EPOCH.mul_f64((epoch + 1) as f64);
        let t0 = Instant::now();
        let result = set.advance_to(end);
        let t1 = Instant::now();
        let span = tracer.record("replica.advance_to", root, t0, t1);
        tracer.set_attr(span, "epoch", epoch as f64);
        if let Err(e) = result {
            out.failed += 1;
            out.first_error.get_or_insert(e);
        }
        visible_ms.extend(ingest_starts.drain(..).map(|s| secs(s, t1) * 1e3));
    }
    let end = Instant::now();
    tracer.close(root, end);
    out.wall_s = secs(start, end);
    out.visible_ms_p99 = percentile(&visible_ms, 99.0);
    out
}

fn counters(set: &ReplicaSet, acknowledged: u64) -> Counters {
    let stats = set.primary_service().map(|s| s.stats()).unwrap_or_default();
    let hosts = set.hosts();
    vec![
        ("ops", acknowledged),
        ("commits", stats.commits),
        ("refresh_iterations", stats.refresh_iterations),
        (
            "journal_bytes_written",
            hosts.iter().map(|h| h.journal().bytes_written()).sum(),
        ),
        (
            "checkpoints_written",
            hosts.iter().map(|h| h.stats().checkpoints_written).sum(),
        ),
        (
            "replayed",
            hosts
                .iter()
                .filter_map(|h| h.last_recovery())
                .map(|r| r.replayed)
                .sum(),
        ),
        (
            "caught_up",
            set.failovers().iter().map(|f| f.caught_up).sum(),
        ),
        ("sequenced", set.sequenced()),
    ]
}

/// Runs `service_replicated`.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let shape = shape(args);
    let config = replica_config(&shape);
    let driver = ServiceDriver::new(DriverConfig {
        nodes: shape.nodes,
        arrival_rate: 4.0,
        disclosure_rate: 0.1,
        query_rate: 0.5,
        malicious_fraction: 0.1,
        seed: args.seed,
        membership: None,
    })?;
    let generation = Instant::now();
    let timeline: Vec<Vec<ServiceOp>> = (0..shape.epochs)
        .map(|e| driver.ops_for_epoch_len(EPOCH, e))
        .collect();
    let total_ops: usize = timeline.iter().map(Vec::len).sum();
    println!(
        "load generation: {:.3} s for {total_ops} ops over {} epochs (not timed)",
        generation.elapsed().as_secs_f64(),
        shape.epochs
    );

    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut node_rounds = Rate::default();
    let mut ops = Rate::default();
    let mut visible_ms_p99 = Vec::new();
    let mut retained_max = 0;
    let mut last_set: Option<ReplicaSet> = None;

    repeat_for(args.seconds, |repeat| {
        tracer.set_run(repeat);
        // Drop the previous repeat's set before building the next, so
        // the peak holds one replayed set.
        last_set = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let built = build_set(&config, &shape, args.seed);
            setups.push(secs(t0, Instant::now()));
            drop(built);
        }
        let t0 = Instant::now();
        let built = build_set(&config, &shape, args.seed);
        setups.push(secs(t0, Instant::now()));
        let mut set = match built {
            Ok(set) => set,
            Err(e) => {
                report.check(false, || format!("ReplicaSet::new: {e}"));
                return;
            }
        };
        let run = replay(&mut set, &timeline, &mut retained_max, tracer);
        visible_ms_p99.push(run.visible_ms_p99);
        node_rounds.add((shape.nodes as u64 * shape.epochs) as f64, run.wall_s);
        ops.add(run.acknowledged as f64, run.wall_s);
        report.attempt(
            total_ops as u64,
            run.failed,
            run.first_error
                .as_deref()
                .unwrap_or("bounced or rejected op"),
        );
        report.check(run.failovers == 1 && run.recoveries == 1, || {
            format!(
                "expected one failover and one recovery, saw {} and {}",
                run.failovers, run.recoveries
            )
        });
        report.check(
            set.hosts().iter().all(|h| h.state() == HostState::Up)
                && set.applied().iter().all(|&a| a == set.sequenced()),
            || "members not all up and in sync after the last boundary".to_string(),
        );
        report.repeat_counters(counters(&set, run.acknowledged));
        last_set = Some(set);
    });

    report.metric("setup_s", median(&setups), "s");
    report.metric("node_rounds_per_s", node_rounds.per_second(), "1/s");
    report.metric("ops_per_s", ops.per_second(), "1/s");
    let Some(set) = last_set else {
        return Ok(report);
    };
    // After timing: the primary must equal a bare service fed the same
    // stream, bit for bit. Traced, the same pass times the commits and
    // checkpoints the members make.
    let bare = bare_replay(&config.host.service, &timeline, tracer)?;
    let primary = set.primary_service();
    report.check(
        primary.is_some_and(|p| {
            bits(&p.scores()) == bits(&bare.scores())
                && p.stats() == bare.stats()
                && p.samples() == bare.samples()
        }),
        || "primary differs from a bare TrustService fed the same stream".to_string(),
    );
    if tracer.enabled() {
        layer_metrics(
            &mut report,
            tracer,
            &set,
            &bare,
            &timeline,
            &visible_ms_p99,
            retained_max,
        );
    }
    Ok(report)
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Feeds `timeline` to a bare `TrustService`, closing every epoch.
/// Traced, each `finish_epoch` is a `service.finish_epoch` span and is
/// followed by a timed `service.checkpoint`.
fn bare_replay(
    config: &ServiceConfig,
    timeline: &[Vec<ServiceOp>],
    tracer: &mut Tracer,
) -> Result<TrustService, String> {
    let mut service = TrustService::new(config.clone())?;
    for ops in timeline {
        for op in ops {
            service.apply(op)?;
        }
        let t0 = Instant::now();
        service.finish_epoch()?;
        tracer.record("service.finish_epoch", None, t0, Instant::now());
        if tracer.enabled() {
            let t0 = Instant::now();
            let bytes = service.checkpoint()?;
            let span = tracer.record("service.checkpoint", None, t0, Instant::now());
            tracer.set_attr(span, "bytes", bytes.len() as f64);
        }
    }
    Ok(service)
}

/// Times three runs of `call` as spans `name`; returns the last result.
fn time3<T>(tracer: &mut Tracer, name: &'static str, mut call: impl FnMut() -> T) -> Option<T> {
    let mut last = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let value = std::hint::black_box(call());
        tracer.record(name, None, t0, Instant::now());
        last = Some(value);
    }
    last
}

fn last(values: &[f64]) -> f64 {
    values.last().copied().unwrap_or(0.0)
}

/// The per-layer metrics: the remaining shadow calls (journal append,
/// restore, scan), then aggregates over every span.
fn layer_metrics(
    report: &mut Report,
    tracer: &mut Tracer,
    set: &ReplicaSet,
    bare: &TrustService,
    timeline: &[Vec<ServiceOp>],
    visible_ms_p99: &[f64],
    retained_max: usize,
) {
    // Shadow journal: the records a member appends, epoch by epoch.
    let mut journal = EventJournal::new();
    for (epoch, ops) in timeline.iter().enumerate() {
        let t0 = Instant::now();
        for op in ops {
            journal.append(&JournalRecord::Op(*op));
        }
        let end = SimTime::ZERO + EPOCH.mul_f64((epoch + 1) as f64);
        journal.append(&JournalRecord::Advance { at: end });
        let span = tracer.record("journal.append_batch", None, t0, Instant::now());
        tracer.set_attr(span, "records", (ops.len() + 1) as f64);
    }
    let checkpoint = bare.checkpoint().unwrap_or_default();
    let restored = time3(tracer, "service.restore", || {
        TrustService::restore(&checkpoint).is_ok()
    });
    report.check(restored == Some(true), || {
        "the final checkpoint does not restore".to_string()
    });
    let killed = &set.hosts()[0];
    let body = killed.journal().flattened_body();
    let scanned = time3(tracer, "journal.scan", || {
        EventJournal::scan(&body).records.len()
    });
    report.check(scanned.unwrap_or(0) > 0, || {
        "the killed member's journal scans empty".to_string()
    });

    let advance = tracer.durations_ms("replica.advance_to");
    let commit = tracer.durations_ms("service.finish_epoch");
    let checkpoint_ms = tracer.durations_ms("service.checkpoint");
    let batch_calls: f64 = tracer
        .attr_values("replica.apply_batch", "calls")
        .iter()
        .sum();
    let batch_busy_ns: f64 = tracer
        .attr_values("replica.apply_batch", "busy_ns")
        .iter()
        .sum();
    let failover = tracer.durations_ms("replica.apply.failover");
    let recovery = tracer.durations_ms("replica.apply.recovery");
    let replay_ms: f64 = tracer.durations_ms("replica.replay").iter().sum();
    let parts_ms = batch_busy_ns / 1e6
        + failover.iter().sum::<f64>()
        + recovery.iter().sum::<f64>()
        + advance.iter().sum::<f64>();
    let up = set
        .hosts()
        .iter()
        .filter(|h| h.state() == HostState::Up)
        .count() as f64;
    let recovery_report = killed.last_recovery();

    report.metric("replica.commit_ms_p50", median(&advance), "ms");
    report.metric("replica.visible_ms_p99", median(visible_ms_p99), "ms");
    report.metric("replica.recovery_ms", median(&recovery), "ms");
    report.metric("replica.failover_ms", median(&failover), "ms");
    report.metric(
        "replica.apply_us_mean",
        batch_busy_ns / 1e3 / batch_calls.max(1.0),
        "us",
    );
    report.metric("replica.coverage", parts_ms / replay_ms, "ratio");
    report.metric(
        "replica.boundary_residual_ms_last",
        last(&advance) - up * (last(&commit) + last(&checkpoint_ms)),
        "ms",
    );
    let records: f64 = tracer
        .attr_values("journal.append_batch", "records")
        .iter()
        .sum();
    let append_ms: f64 = tracer.durations_ms("journal.append_batch").iter().sum();
    report.metric(
        "journal.append_ns_mean",
        append_ms * 1e6 / records.max(1.0),
        "ns",
    );
    report.metric(
        "journal.bytes_written",
        journal.bytes_written() as f64,
        "bytes",
    );
    report.metric(
        "journal.scan_ms",
        median(&tracer.durations_ms("journal.scan")),
        "ms",
    );
    report.metric("service.commit_ms_p50", median(&commit), "ms");
    report.metric("service.commit_ms_last", last(&commit), "ms");
    report.metric(
        "service.refresh_iterations",
        bare.stats().refresh_iterations as f64,
        "count",
    );
    report.metric("service.checkpoint_ms_p50", median(&checkpoint_ms), "ms");
    report.metric("service.checkpoint_ms_last", last(&checkpoint_ms), "ms");
    report.metric(
        "service.checkpoint_bytes_last",
        last(&tracer.attr_values("service.checkpoint", "bytes")),
        "bytes",
    );
    report.metric(
        "service.restore_ms_last",
        median(&tracer.durations_ms("service.restore")),
        "ms",
    );
    report.metric(
        "host.replayed",
        recovery_report.map_or(0.0, |r| r.replayed as f64),
        "count",
    );
    report.metric(
        "host.segments_opened",
        recovery_report.map_or(0.0, |r| r.segments_opened as f64),
        "count",
    );
    report.metric(
        "replica.caught_up",
        set.failovers().iter().map(|f| f.caught_up).sum::<u64>() as f64,
        "count",
    );
    report.metric("replica.sequenced", set.sequenced() as f64, "count");
    report.metric("replica.retained_log_max", retained_max as f64, "count");
}
