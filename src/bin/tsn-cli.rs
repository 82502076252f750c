//! `tsn-cli` — run scenarios, sweeps, the analytic dynamics and the
//! online trust service from the command line (plain `std::env`
//! parsing; no extra dependencies). Every command rejects a flag it
//! does not accept.
//!
//! ```text
//! tsn-cli scenario [--nodes N] [--rounds R] [--seed S] [--mechanism M]
//!                  [--disclosure 0..4] [--malicious F] [--policies P]
//!                  [--churn F] [--adaptive] [--progress K] [--json]
//!                  [--peer-sampling] [--view-size N] [--relays N]
//! tsn-cli sweep    [--nodes N] [--rounds R] [--seed S] [--seeds K]
//!                  [--threads T] [--json] [--csv]
//! tsn-cli dynamics [--honest F] [--eta F]
//! tsn-cli serve    [--nodes N] [--epochs E] [--epoch-secs S] [--seed S]
//!                  [--mechanism M] [--disclosure 0..4] [--malicious F]
//!                  [--arrivals F] [--disclosures F] [--queries F]
//!                  [--peer-sampling] [--view-size N] [--relays N]
//!                  [--crash-at SECS] [--down-secs SECS] [--grace SECS]
//!                  [--replicas N] [--kill-primary-at SECS]
//!                  [--journal-dir DIR] [--json]
//! tsn-cli replay   --journal-dir DIR [--epochs E] [--verify] [--json]
//! ```
//!
//! The service persists in one form: the segmented store `serve
//! --journal-dir` writes (journal manifest, segments, checkpoint ring)
//! plus its run record, the serve run's resolved flags. `replay`
//! re-hosts the store through the recovery path, newest valid
//! checkpoint plus journal suffix, and `--verify` checks the result
//! against a fresh run of the recorded flags, fault plan included.

use std::process::ExitCode;
use tsn::core::dynamics::{DynamicsConfig, DynamicsState, InteractionDynamics};
use tsn::core::json::JsonValue;
use tsn::core::runner::{
    DisclosureLevel, ProgressPrinter, ScenarioBuilder, SweepGrid, SweepRunner,
};
use tsn::core::{FacetScores, PolicyProfile};
use tsn::reputation::MechanismKind;
use tsn::service::{
    DriverConfig, EventJournal, HostConfig, ReplicaConfig, ReplicaSet, ServiceConfig,
    ServiceDriver, ServiceHost, TrustService,
};
use tsn::simnet::codec::crc32;
use tsn::simnet::{FaultInjector, FaultPlan, MembershipConfig, SimDuration, SimTime};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("usage: tsn-cli <scenario|sweep|dynamics|serve|replay> [flags]  (see --help)");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "scenario" => cmd_scenario(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "dynamics" => cmd_dynamics(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "--help" | "help" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "tsn-cli — Trust your Social Network, from the command line

commands:
  scenario   run one end-to-end scenario and print the facets and trust
  sweep      grid-sweep mechanisms x disclosure x policies in parallel;
             report every cell, the trust winner and Area A
  dynamics   iterate the Section-3 analytic dynamics to its fixed point
  serve      run the online TrustService under a generated workload
  replay     recover a store written by serve --journal-dir, optionally
             continue it and verify it

common flags (a command rejects any flag it does not accept):
  --nodes N --rounds R --seed S --json
scenario flags:
  --mechanism none|beta|eigentrust|powertrust|trustme
  --disclosure 0..4   --malicious 0.0..1.0
  --policies permissive|mixed|strict   --adaptive
  --churn 0.0..1.0  steady availability churn: that fraction of users
                    is offline each round (one-round mean sessions)
  --progress K   print a progress line every K rounds
peer-sampling flags (scenario, serve):
  --peer-sampling   draw partners from bounded partial views kept fresh
                    by view shuffling instead of the global population
  --view-size N     entries per partial view (default 16)
  --relays N        bootstrap relay nodes (default 3); implies the overlay
sweep flags:
  --seeds K    Monte-Carlo seeds per grid point (default 1)
  --threads T  worker threads (default: all cores)
  --csv        emit the full report as CSV
dynamics flags:
  --honest 0.0..1.0   --eta 0.0..1.0
serve flags (also --mechanism, --disclosure, --malicious):
  --epochs E        epochs to drive (default 10)
  --epoch-secs S    epoch length / staleness bound (default 60)
  --arrivals F      interactions per node per epoch (default 2.0)
  --disclosures F   disclosure probability per interaction (default 0.2)
  --queries F       query probability per interaction (default 0.5)
  --crash-at S      host the service behind a write-ahead journal +
                    auto-checkpoints and crash it at sim-second S;
                    clients retry with backoff
  --down-secs S     downtime before the scheduled restart (default 5)
  --grace S         degraded-query window after recovery (default 2);
                    --crash-at only
  --replicas N      run N replicated hosts behind the deterministic
                    sequencer (failover on crash)
  --kill-primary-at S  crash replica 0 (the initial primary) at
                    sim-second S; the healthiest follower is promoted
  --journal-dir D   host the service and persist the (primary's)
                    segmented journal + checkpoint ring to directory D
                    at the end, with the run record (the resolved
                    service, workload and --crash-at flags): the store
                    replay recovers
replay flags (the rest comes from the store's run record):
  --journal-dir D   store written by serve --journal-dir (required)
  --epochs E        extra epochs to continue after recovering (default 0)
  --verify          check the recovered-and-continued run bit for bit
                    against a fresh run of the whole history from the
                    run record, its --crash-at fault plan included"
    );
}

/// The service, workload, overlay and fault flags of a serve run: what
/// its store's run record holds, and what `replay` re-parses from it.
const RECORD_FLAGS: &str = "--nodes --epoch-secs --mechanism --disclosure --arrivals \
    --disclosures --queries --malicious --seed --view-size --relays \
    --crash-at --down-secs --grace";

/// `--down-secs` and `--grace` defaults, in sim-seconds.
const DOWN_SECS: u64 = 5;
const GRACE_SECS: u64 = 2;

/// Minimal flag parser: `--key value` pairs plus boolean `--flag`s.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    /// Wraps `command`'s arguments, rejecting any `--flag` that is in
    /// none of the whitespace-separated `accepted` lists: a typo or a
    /// retired flag must not silently run with the defaults.
    fn new(args: &'a [String], command: &str, accepted: &[&str]) -> Result<Self, String> {
        let known = |arg: &str| {
            accepted
                .iter()
                .flat_map(|l| l.split_whitespace())
                .any(|f| f == arg)
        };
        match args.iter().find(|a| a.starts_with("--") && !known(a)) {
            Some(unknown) => Err(format!("unknown flag '{unknown}' for {command}")),
            None => Ok(Flags { args }),
        }
    }

    /// The value after `key`, or `None` when `key` is absent. A `key`
    /// that is last, or followed by another `--flag`, is an error: it
    /// must not silently fall back to the default.
    fn get(&self, key: &str) -> Result<Option<&'a str>, String> {
        let Some(i) = self.args.iter().position(|a| a == key) else {
            return Ok(None);
        };
        match self.args.get(i + 1) {
            Some(value) if !value.starts_with("--") => Ok(Some(value)),
            _ => Err(format!("missing value for {key}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }

    /// The parsed value after `key`, or `None` when `key` is absent.
    fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)?
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("invalid value '{raw}' for {key}"))
            })
            .transpose()
    }
}

fn parse_mechanism(raw: &str) -> Result<MechanismKind, String> {
    MechanismKind::ALL
        .into_iter()
        .find(|m| m.name() == raw)
        .ok_or_else(|| format!("unknown mechanism '{raw}'"))
}

fn parse_policies(raw: &str) -> Result<PolicyProfile, String> {
    PolicyProfile::ALL
        .into_iter()
        .find(|p| p.label() == raw)
        .ok_or_else(|| format!("unknown policy profile '{raw}'"))
}

fn parse_disclosure(raw: &str) -> Result<DisclosureLevel, String> {
    raw.parse::<usize>()
        .ok()
        .and_then(DisclosureLevel::from_index)
        .ok_or_else(|| format!("--disclosure must be 0..4, got '{raw}'"))
}

fn scenario_builder(flags: &Flags) -> Result<ScenarioBuilder, String> {
    let mut builder = ScenarioBuilder::new()
        .nodes(flags.parse("--nodes", 100)?)
        .rounds(flags.parse("--rounds", 30)?)
        .seed(flags.parse("--seed", 42)?)
        .churn(flags.parse("--churn", 0.0)?)
        .malicious_fraction(flags.parse("--malicious", 0.2)?)
        .adaptive_disclosure(flags.has("--adaptive"));
    if let Some(raw) = flags.get("--disclosure")? {
        builder = builder.disclosure(parse_disclosure(raw)?);
    }
    if let Some(raw) = flags.get("--mechanism")? {
        builder = builder.mechanism(parse_mechanism(raw)?);
    }
    if let Some(raw) = flags.get("--policies")? {
        builder = builder.policy_profile(parse_policies(raw)?);
    }
    if let Some(overlay) = membership_flags(flags)? {
        builder = builder.membership(overlay);
    }
    Ok(builder)
}

/// Parse the peer-sampling overlay flags shared by `scenario` and `serve`.
///
/// `--peer-sampling` switches partner selection from the global population
/// to bounded partial views refreshed by view shuffling; `--view-size` and
/// `--relays` tune the overlay (and imply `--peer-sampling`). The exchange
/// shape derives from the view size inside the overlay.
fn membership_flags(flags: &Flags) -> Result<Option<MembershipConfig>, String> {
    let requested = flags.has("--peer-sampling")
        || flags.get("--view-size")?.is_some()
        || flags.get("--relays")?.is_some();
    if !requested {
        return Ok(None);
    }
    let defaults = MembershipConfig::default();
    let overlay = MembershipConfig {
        view_size: flags.parse("--view-size", defaults.view_size)?,
        relays: flags.parse("--relays", defaults.relays)?,
    };
    overlay.validate()?;
    Ok(Some(overlay))
}

fn cmd_scenario(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(
        args,
        "scenario",
        &[
            "--nodes --rounds --seed --churn --malicious --adaptive --disclosure --mechanism \
           --policies --peer-sampling --view-size --relays --progress --json",
        ],
    )?;
    let builder = scenario_builder(&flags)?;
    let config = builder.clone().build().map_err(|e| e.to_string())?;
    let outcome = if let Some(every) = flags.parse_opt("--progress")? {
        let mut progress = ProgressPrinter::every(every);
        builder.run_observed(&mut [&mut progress])
    } else {
        builder.run()
    }
    .map_err(|e| e.to_string())?;
    if flags.has("--json") {
        let line = JsonValue::object([
            (
                "config",
                JsonValue::object([
                    ("nodes", JsonValue::from(config.nodes)),
                    ("rounds", JsonValue::from(config.rounds)),
                    ("seed", JsonValue::from(config.seed)),
                    ("mechanism", JsonValue::str(config.mechanism.name())),
                    ("disclosure_level", JsonValue::from(config.disclosure_level)),
                    ("policies", JsonValue::str(config.policy_profile.label())),
                ]),
            ),
            (
                "facets",
                JsonValue::object([
                    ("privacy", JsonValue::from(outcome.facets.privacy)),
                    ("reputation", JsonValue::from(outcome.facets.reputation)),
                    ("satisfaction", JsonValue::from(outcome.facets.satisfaction)),
                ]),
            ),
            ("global_trust", JsonValue::from(outcome.global_trust)),
            ("respect_rate", JsonValue::from(outcome.respect_rate)),
            ("user_breaches", JsonValue::from(outcome.user_breaches)),
            ("system_breaches", JsonValue::from(outcome.system_breaches)),
            ("denial_rate", JsonValue::from(outcome.denial_rate)),
            ("interactions", JsonValue::from(outcome.interactions)),
            ("messages", JsonValue::from(outcome.messages)),
        ]);
        println!("{line}");
    } else {
        println!(
            "scenario: {} users, {} rounds, mechanism={}, disclosure={}, policies={}",
            config.nodes,
            config.rounds,
            config.mechanism.name(),
            config.disclosure_level,
            config.policy_profile.label()
        );
        println!("  facets: {}", outcome.facets);
        println!("  global trust      = {:.3}", outcome.global_trust);
        println!("  respect rate      = {:.3}", outcome.respect_rate);
        println!(
            "  breaches          = {} user-caused, {} system-caused",
            outcome.user_breaches, outcome.system_breaches
        );
        println!("  denial rate       = {:.3}", outcome.denial_rate);
        println!("  interactions      = {}", outcome.interactions);
        println!("  messages          = {}", outcome.messages);
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(
        args,
        "sweep",
        &["--nodes --rounds --seed --seeds --threads --csv --json"],
    )?;
    let nodes: usize = flags.parse("--nodes", 48)?;
    let seed: u64 = flags.parse("--seed", 42)?;
    let seeds_per_point: u64 = flags.parse("--seeds", 1)?;
    if seeds_per_point == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let degree = 8usize.min(nodes.saturating_sub(2)) & !1;
    let base = ScenarioBuilder::new()
        .nodes(nodes)
        .rounds(flags.parse("--rounds", 10)?)
        .graph(degree, 0.1)
        .seed(seed);
    let grid = SweepGrid::over(base)
        .all_mechanisms()
        .all_disclosures()
        .all_profiles()
        .seeds((0..seeds_per_point).map(|i| seed.wrapping_add(i * 7919)));

    let runner = match flags.parse_opt("--threads")? {
        Some(threads) => SweepRunner::with_threads(threads),
        None => SweepRunner::parallel(),
    };
    eprintln!(
        "sweeping {} cells on {} threads...",
        grid.len(),
        runner.threads().min(grid.len())
    );
    let report = runner.run(&grid).map_err(|e| e.to_string())?;

    if flags.has("--csv") {
        print!("{}", report.to_csv());
        return Ok(());
    }
    if flags.has("--json") {
        println!("{}", report.to_json());
        return Ok(());
    }

    let thresholds = FacetScores::new(0.5, 0.55, 0.35)?;
    let in_area = report.meeting(&thresholds).count();
    println!(
        "{}",
        report
            .to_table("SWEEP", "mechanism x disclosure x policies")
            .render()
    );
    println!(
        "sweep of {} cells: Area A (facets >= {:.2}/{:.2}/{:.2}) holds {} ({}%)",
        report.cells.len(),
        thresholds.privacy,
        thresholds.reputation,
        thresholds.satisfaction,
        in_area,
        (100 * in_area) / report.cells.len().max(1)
    );
    let best = report.best_by_trust().expect("non-empty grid");
    println!(
        "best: mechanism={} disclosure={} policies={} trust={:.3}{}",
        best.cell.mechanism.name(),
        best.cell.disclosure.index(),
        best.cell.profile.label(),
        best.trust,
        if best.facets.meets(&thresholds) {
            " (inside Area A)"
        } else {
            ""
        }
    );
    Ok(())
}

/// Shared by `serve` and `replay`: the driver workload flags.
fn driver_config(flags: &Flags, nodes: usize) -> Result<DriverConfig, String> {
    let defaults = DriverConfig::default();
    let config = DriverConfig {
        nodes,
        arrival_rate: flags.parse("--arrivals", defaults.arrival_rate)?,
        disclosure_rate: flags.parse("--disclosures", defaults.disclosure_rate)?,
        query_rate: flags.parse("--queries", defaults.query_rate)?,
        malicious_fraction: flags.parse("--malicious", defaults.malicious_fraction)?,
        seed: flags.parse("--seed", defaults.seed)?,
        membership: membership_flags(flags)?,
    };
    config.validate()?;
    Ok(config)
}

fn service_summary(service: &TrustService, json: bool) {
    let stats = service.stats();
    let scores = service.scores();
    let mean = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
    if json {
        let line = JsonValue::object([
            ("nodes", JsonValue::from(service.config().nodes)),
            ("epochs_committed", JsonValue::from(stats.commits)),
            ("ingested", JsonValue::from(stats.ingested)),
            ("rejected", JsonValue::from(stats.rejected)),
            ("queries", JsonValue::from(stats.queries)),
            (
                "refresh_iterations",
                JsonValue::from(stats.refresh_iterations),
            ),
            ("now_us", JsonValue::from(service.now().as_micros())),
            ("as_of_us", JsonValue::from(service.as_of().as_micros())),
            ("mean_score", JsonValue::from(mean)),
        ]);
        println!("{line}");
    } else {
        println!(
            "service: {} nodes, {} epochs committed, clock at {:.0}s (visible to {:.0}s)",
            service.config().nodes,
            stats.commits,
            service.now().as_micros() as f64 / 1e6,
            service.as_of().as_micros() as f64 / 1e6,
        );
        println!(
            "  events: {} ingested, {} rejected by partitions",
            stats.ingested, stats.rejected
        );
        println!("  queries answered  = {}", stats.queries);
        println!("  refresh iterations= {}", stats.refresh_iterations);
        println!("  mean trust score  = {mean:.4}");
    }
}

/// Shared by `serve` and `replay`: the service flags. A replay takes
/// them from the store's run record; [`recover_store`] checks them
/// against the config a restored checkpoint carries.
fn service_config(flags: &Flags) -> Result<ServiceConfig, String> {
    let mut config = ServiceConfig {
        nodes: flags.parse("--nodes", 100)?,
        epoch: SimDuration::from_secs(flags.parse("--epoch-secs", 60u64)?),
        ..ServiceConfig::default()
    };
    if let Some(raw) = flags.get("--mechanism")? {
        config.mechanism = parse_mechanism(raw)?;
    }
    if let Some(raw) = flags.get("--disclosure")? {
        config.disclosure_level = parse_disclosure(raw)?.index();
    }
    Ok(config)
}

/// Shared by `serve` and `replay --verify`: a fresh [`ServiceHost`]
/// with the `--grace` recovery window and, under `--crash-at S`, a
/// crash at sim-second S restarted after `--down-secs`.
fn host_from_flags(
    flags: &Flags,
    service: ServiceConfig,
    seed: u64,
) -> Result<ServiceHost, String> {
    let mut host = ServiceHost::new(HostConfig {
        service,
        recovery_grace: SimDuration::from_secs(flags.parse("--grace", GRACE_SECS)?),
        ..HostConfig::default()
    })?;
    if let Some(crash_at) = flags.parse_opt::<u64>("--crash-at")? {
        let down: u64 = flags.parse("--down-secs", DOWN_SECS)?;
        let plan =
            FaultPlan::service_crash(SimTime::from_secs(crash_at), SimDuration::from_secs(down));
        host.attach_faults(FaultInjector::new(plan, seed)?);
        eprintln!("fault plan: crash at {crash_at}s, restart after {down}s");
    }
    Ok(host)
}

/// `replay --verify`'s check: the recovered-and-continued `service`
/// must equal the `reference` run bit for bit. Scores could agree by
/// luck; the committed sample series and lifetime counters pin the
/// whole history.
fn verify_against(service: &TrustService, reference: &TrustService) -> Result<(), String> {
    let bits = |s: &TrustService| s.scores().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let diverged = if bits(service) != bits(reference) {
        "scores"
    } else if service.samples() != reference.samples() {
        "epoch samples"
    } else if service.stats() != reference.stats() {
        "counters"
    } else {
        return Ok(());
    };
    Err(format!(
        "verify FAILED: the recovered run's {diverged} diverged from the reference: {:?} vs {:?}",
        service.stats(),
        reference.stats()
    ))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(
        args,
        "serve",
        &[
            RECORD_FLAGS,
            "--peer-sampling --epochs --replicas --kill-primary-at --journal-dir --json",
        ],
    )?;
    let config = service_config(&flags)?;
    let epochs: u64 = flags.parse("--epochs", 10)?;
    let driver = ServiceDriver::new(driver_config(&flags, config.nodes)?)?;
    let replicas: usize = flags.parse("--replicas", 1usize)?;
    let kill = flags.get("--kill-primary-at")?.is_some();
    let crash = flags.get("--crash-at")?.is_some();
    // Fault flags the chosen mode would ignore are errors: they must
    // not silently run with the defaults.
    let replicated = replicas > 1 || kill;
    if replicated && crash {
        return Err("--crash-at crashes a single hosted service; \
                    a replica set takes --kill-primary-at"
            .into());
    }
    if replicated && flags.get("--grace")?.is_some() {
        return Err("--grace does not apply to a replica set \
                    (members recover with zero grace)"
            .into());
    }
    for flag in ["--grace", "--down-secs"] {
        if !crash && !kill && flags.get(flag)?.is_some() {
            return Err(format!("{flag} needs --crash-at or --kill-primary-at"));
        }
    }
    if replicated {
        return serve_replicated(&flags, config, &driver, epochs, replicas.max(2));
    }
    if crash || flags.get("--journal-dir")?.is_some() {
        return serve_hosted(&flags, config, &driver, epochs);
    }
    let mut service = TrustService::new(config)?;
    driver.drive(&mut service, epochs)?;
    service_summary(&service, flags.has("--json"));
    Ok(())
}

/// `serve --crash-at S` or `--journal-dir D`: the crash-tolerant path —
/// a [`ServiceHost`] (write-ahead journal + auto-checkpoints) driven
/// with client-side retries, optionally crashed on schedule.
fn serve_hosted(
    flags: &Flags,
    config: ServiceConfig,
    driver: &ServiceDriver,
    epochs: u64,
) -> Result<(), String> {
    let mut host = host_from_flags(flags, config, driver.config().seed)?;
    let report = driver.drive_host(&mut host, epochs)?;
    let stats = host.stats();
    eprintln!(
        "host: {} crashes, {} recoveries, {} checkpoints written, {} journal records \
         ({} live bytes in {} segments, {} segments GC'd)",
        stats.crashes,
        stats.recoveries,
        stats.checkpoints_written,
        host.journal().records(),
        host.journal().byte_len(),
        host.journal().segments().len(),
        host.journal().gc_segments(),
    );
    eprintln!(
        "client: {} ops applied, {} retried, {} degraded answers, {} abandoned",
        report.applied, report.retries, report.degraded_answers, report.abandoned
    );
    if let Some(recovery) = host.last_recovery() {
        eprintln!(
            "last recovery: {} journal records replayed on {} \
             ({} segments opened, {} skipped, fallbacks: {}, torn tail: {})",
            recovery.replayed,
            if recovery.from_scratch {
                "a fresh service"
            } else {
                "a restored checkpoint"
            },
            recovery.segments_opened,
            recovery.segments_skipped,
            recovery.fallbacks,
            recovery.torn_tail,
        );
    }
    persist_storage_flag(flags, &host)?;
    let service = host
        .service()
        .ok_or("the hosted service ended the run down")?;
    service_summary(service, flags.has("--json"));
    Ok(())
}

/// `serve --replicas N [--kill-primary-at S]`: N replicated hosts
/// behind the deterministic sequencer, with scripted primary kills and
/// automatic failover.
fn serve_replicated(
    flags: &Flags,
    config: ServiceConfig,
    driver: &ServiceDriver,
    epochs: u64,
    replicas: usize,
) -> Result<(), String> {
    let host = HostConfig {
        service: config,
        recovery_grace: SimDuration::ZERO,
        ..HostConfig::default()
    };
    let mut set = ReplicaSet::new(ReplicaConfig { host, replicas })?;
    if let Some(kill_at) = flags.parse_opt::<u64>("--kill-primary-at")? {
        let down: u64 = flags.parse("--down-secs", DOWN_SECS)?;
        let plan =
            FaultPlan::replica_crash(0, SimTime::from_secs(kill_at), SimDuration::from_secs(down));
        set.attach_faults(FaultInjector::new(plan, driver.config().seed)?);
        eprintln!("fault plan: kill primary (replica 0) at {kill_at}s, restart after {down}s");
    }
    let report = driver.drive_replicas(&mut set, epochs)?;
    for f in set.failovers() {
        eprintln!(
            "failover: replica {} -> {} at {:.0}s (epoch {}, {} log entries caught up)",
            f.from,
            f.to,
            f.at.as_micros() as f64 / 1e6,
            f.epoch,
            f.caught_up,
        );
    }
    eprintln!(
        "replica set: {} members, primary {}, {} entries sequenced, applied per member: {:?}",
        set.hosts().len(),
        set.primary(),
        set.sequenced(),
        set.applied(),
    );
    eprintln!(
        "client: {} ops applied, {} retried, {} degraded answers, {} abandoned",
        report.applied, report.retries, report.degraded_answers, report.abandoned
    );
    persist_storage_flag(flags, &set.hosts()[set.primary()])?;
    let service = set
        .primary_service()
        .ok_or("the replica set ended the run with no member up")?;
    service_summary(service, flags.has("--json"));
    Ok(())
}

/// Honors `--journal-dir DIR` after a hosted serve run: writes the
/// journal manifest, every live segment, the checkpoint ring and the
/// run record — the store `replay` re-hosts.
fn persist_storage_flag(flags: &Flags, host: &ServiceHost) -> Result<(), String> {
    let Some(dir) = flags.get("--journal-dir")? else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let write = |name: String, bytes: &[u8]| -> Result<(), String> {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, bytes).map_err(|e| format!("cannot write {path}: {e}"))
    };
    write("manifest.tsnm".into(), &host.journal().manifest_bytes())?;
    for segment in host.journal().segments() {
        write(format!("seg-{:08}.tsnj", segment.index()), segment.bytes())?;
    }
    for (k, stored) in host.stored_checkpoints().iter().enumerate() {
        write(format!("ckpt-{k}.tsnc"), &stored.bytes)?;
    }
    write(
        "run.tsnr".into(),
        &seal_run_record(&run_record_line(flags)?),
    )?;
    eprintln!(
        "storage: manifest + {} segments + {} checkpoints + run record -> {dir}",
        host.journal().segments().len(),
        host.stored_checkpoints().len(),
    );
    Ok(())
}

/// The run record's magic. `run.tsnr` holds this, the CRC-32 of the
/// record line (u32, little-endian) and the line.
const RUN_RECORD_MAGIC: &[u8; 8] = b"TSNRUN01";

/// The run record line: the service, workload, overlay and crash flags
/// `flags` resolve to, defaults written out — `--view-size --relays`
/// only with the overlay on, `--crash-at --down-secs --grace` only with
/// a scheduled crash. Parsing it back through [`service_config`],
/// [`driver_config`] and [`host_from_flags`] rebuilds the same run.
fn run_record_line(flags: &Flags) -> Result<String, String> {
    let service = service_config(flags)?;
    let driver = driver_config(flags, service.nodes)?;
    let mut line = format!(
        "--nodes {} --epoch-secs {} --mechanism {} --disclosure {} --arrivals {} \
         --disclosures {} --queries {} --malicious {} --seed {}",
        service.nodes,
        service.epoch.as_micros() / 1_000_000,
        service.mechanism.name(),
        service.disclosure_level,
        driver.arrival_rate,
        driver.disclosure_rate,
        driver.query_rate,
        driver.malicious_fraction,
        driver.seed,
    );
    if let Some(overlay) = driver.membership {
        line += &format!(
            " --view-size {} --relays {}",
            overlay.view_size, overlay.relays
        );
    }
    if let Some(crash_at) = flags.parse_opt::<u64>("--crash-at")? {
        line += &format!(
            " --crash-at {crash_at} --down-secs {} --grace {}",
            flags.parse("--down-secs", DOWN_SECS)?,
            flags.parse("--grace", GRACE_SECS)?,
        );
    }
    Ok(line)
}

fn seal_run_record(line: &str) -> Vec<u8> {
    let mut bytes = RUN_RECORD_MAGIC.to_vec();
    bytes.extend(crc32(line.as_bytes()).to_le_bytes());
    bytes.extend(line.as_bytes());
    bytes
}

/// Reads and checks `dir`'s run record and returns the serve flags it
/// holds. A missing file, a bad magic or CRC, or a line that does not
/// parse as a serve run is an error naming the record, raised before
/// any recovery.
fn read_run_record(dir: &str) -> Result<Vec<String>, String> {
    let path = format!("{dir}/run.tsnr");
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read run record {path}: {e}"))?;
    let corrupt = |what: &str| format!("run record {path} is corrupt: {what}");
    if bytes.len() < RUN_RECORD_MAGIC.len() + 4 {
        return Err(corrupt("shorter than its header"));
    }
    let (magic, rest) = bytes.split_at(RUN_RECORD_MAGIC.len());
    let (crc, line) = rest.split_at(4);
    if magic != RUN_RECORD_MAGIC {
        return Err(corrupt("bad magic"));
    }
    if crc32(line).to_le_bytes() != crc {
        return Err(corrupt("CRC mismatch"));
    }
    let line = std::str::from_utf8(line).map_err(|_| corrupt("not UTF-8"))?;
    let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    Flags::new(&args, "a run record", &[RECORD_FLAGS])
        .and_then(|run| run_record_line(&run))
        .map_err(|e| format!("run record {path}: {e}"))?;
    Ok(args)
}

/// `replay --journal-dir DIR`: recovers the store through the real
/// recovery path, continues it for `--epochs` more, and with
/// `--verify` checks it against a reference run — a fresh host built
/// from the store's run record, fault plan included, driven for the
/// whole history. The recorded fault flags describe the stored
/// history: they feed only the reference run, never the recovered
/// host.
///
/// The run record configures the rest too: the service a store with no
/// usable checkpoint is replayed into and the `--epochs` workload. A
/// restored checkpoint whose config disagrees with the record makes
/// the store inconsistent, an error naming the first differing field.
fn cmd_replay(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(args, "replay", &["--journal-dir --epochs --verify --json"])?;
    let dir = flags
        .get("--journal-dir")?
        .ok_or("replay needs --journal-dir DIR (a store written by serve --journal-dir)")?;
    let record = read_run_record(dir)?;
    let run = Flags { args: &record };
    let mut host = recover_store(&run, dir)?;
    let restored = host.service().ok_or("recovery left no running service")?;
    let (nodes, restored_epochs) = (restored.config().nodes, restored.epoch_index());
    eprintln!("restored {nodes} nodes at epoch {restored_epochs} from {dir}");
    let extra: u64 = flags.parse("--epochs", 0)?;
    let driver = ServiceDriver::new(driver_config(&run, nodes)?)?;
    if extra > 0 {
        driver.drive_host(&mut host, extra)?;
    }
    let service = host.service().ok_or("the service ended the run down")?;
    if flags.has("--verify") {
        let epochs = restored_epochs + extra;
        let mut reference = host_from_flags(&run, service.config().clone(), driver.config().seed)?;
        driver.drive_host(&mut reference, epochs)?;
        let reference = reference.service().ok_or("the reference run ended down")?;
        verify_against(service, reference)?;
        eprintln!(
            "verify: recovered+continued run is bit-identical to a fresh {epochs}-epoch run \
             of the run record"
        );
    }
    service_summary(service, flags.has("--json"));
    Ok(())
}

/// Reads the store in `dir` and recovers it with
/// [`ServiceHost::from_storage`] + [`ServiceHost::restart`]: newest
/// CRC-valid checkpoint of the ring, falling back to older ones, plus
/// segment-suffix journal replay. Reports the recovery on stderr,
/// naming each skipped checkpoint's corrupt section. `run` is the
/// store's run record.
fn recover_store(run: &Flags, dir: &str) -> Result<ServiceHost, String> {
    let manifest_path = format!("{dir}/manifest.tsnm");
    let manifest = std::fs::read(&manifest_path)
        .map_err(|e| format!("cannot read journal manifest {manifest_path}: {e}"))?;
    let journal = EventJournal::from_storage(&manifest, |index| {
        let path = format!("{dir}/seg-{index:08}.tsnj");
        std::fs::read(&path).map_err(|e| format!("cannot read {path}: {e}"))
    })?;
    let mut checkpoints = Vec::new();
    while let Ok(bytes) = std::fs::read(format!("{dir}/ckpt-{}.tsnc", checkpoints.len())) {
        checkpoints.push(bytes);
    }
    if checkpoints.is_empty() {
        eprintln!("no stored checkpoints in {dir}: recovery will replay the whole journal");
    }
    let wanted = service_config(run)?;
    let host_config = HostConfig {
        service: wanted.clone(),
        recovery_grace: SimDuration::ZERO,
        ..HostConfig::default()
    };
    let mut host = ServiceHost::from_storage(host_config, checkpoints, journal)?;
    let report = host.restart(SimTime::ZERO)?;
    eprintln!(
        "recovered from {} ({} records replayed, {} segments opened, {} skipped, \
         fallbacks: {}, torn tail: {})",
        if report.from_scratch {
            "scratch (no usable checkpoint)"
        } else {
            "the newest valid checkpoint"
        },
        report.replayed,
        report.segments_opened,
        report.segments_skipped,
        report.fallbacks,
        report.torn_tail,
    );
    for error in &report.corrupt {
        eprintln!("  skipped checkpoint: {error}");
    }
    if !report.from_scratch {
        let stored = host.service().ok_or("recovery left no running service")?;
        store_matches_record(stored.config(), &wanted)?;
    }
    Ok(host)
}

/// The store's own consistency check: names the first flag-set field
/// where a restored checkpoint's service config differs from the one
/// the run record builds.
fn store_matches_record(stored: &ServiceConfig, wanted: &ServiceConfig) -> Result<(), String> {
    let fields = |c: &ServiceConfig| {
        [
            ("nodes", c.nodes.to_string()),
            ("mechanism", c.mechanism.name().to_string()),
            ("epoch-secs", c.epoch.as_secs_f64().to_string()),
            ("disclosure", c.disclosure_level.to_string()),
        ]
    };
    for ((field, held), (_, given)) in fields(stored).into_iter().zip(fields(wanted)) {
        if held != given {
            return Err(format!(
                "store is inconsistent: checkpoint holds {held} {field}, run record says {given}"
            ));
        }
    }
    Ok(())
}

fn cmd_dynamics(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(args, "dynamics", &["--honest --eta"])?;
    let mut config = DynamicsConfig::default();
    config.honest_fraction = flags.parse("--honest", config.honest_fraction)?;
    config.eta = flags.parse("--eta", config.eta)?;
    config.validate()?;
    let dynamics = InteractionDynamics::new(config);
    let (state, steps) = dynamics.fixed_point(DynamicsState::neutral(), 1e-10, 100_000);
    println!(
        "fixed point after {steps} steps (honest_fraction={}):",
        config.honest_fraction
    );
    println!("  trust                 = {:.4}", state.trust);
    println!("  satisfaction          = {:.4}", state.satisfaction);
    println!(
        "  reputation efficiency = {:.4}",
        state.reputation_efficiency
    );
    println!("  disclosure            = {:.4}", state.disclosure);
    println!("  privacy               = {:.4}", state.privacy);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_a_flag_without_its_value() {
        let parse = |raw: &[&str], key: &str| {
            let args: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
            Flags { args: &args }.parse(key, 100usize)
        };
        assert_eq!(parse(&["--nodes", "12", "--json"], "--nodes"), Ok(12));
        assert_eq!(parse(&["--nodes", "12"], "--rounds"), Ok(100));
        assert_eq!(
            parse(&["--nodes", "many"], "--nodes"),
            Err("invalid value 'many' for --nodes".to_string())
        );
        for raw in [
            &["--nodes"][..],
            &["--nodes", "--json"],
            &["--seed", "1", "--nodes"],
        ] {
            assert_eq!(
                parse(raw, "--nodes"),
                Err("missing value for --nodes".to_string()),
                "{raw:?}"
            );
        }
    }

    fn owned(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_named_errors() {
        type Command = fn(&[String]) -> Result<(), String>;
        // The four retired persistence flags, a typo, a flag of
        // another command and serve flags the run record now carries.
        let cases: [(Command, &str, &[&str], &str); 8] = [
            (
                cmd_serve,
                "serve",
                &["--checkpoint", "state.ckpt"],
                "--checkpoint",
            ),
            (
                cmd_replay,
                "replay",
                &["--fallback", "prev.ckpt"],
                "--fallback",
            ),
            (
                cmd_replay,
                "replay",
                &["--from-checkpoint"],
                "--from-checkpoint",
            ),
            (cmd_serve, "serve", &["--journal"], "--journal"),
            (
                cmd_serve,
                "serve",
                &["--nodes", "30", "--epoch", "5"],
                "--epoch",
            ),
            (cmd_dynamics, "dynamics", &["--nodes", "30"], "--nodes"),
            (cmd_replay, "replay", &["--nodes", "41"], "--nodes"),
            (cmd_replay, "replay", &["--crash-at", "130"], "--crash-at"),
        ];
        for (command, name, raw, flag) in cases {
            assert_eq!(
                command(&owned(raw)),
                Err(format!("unknown flag '{flag}' for {name}")),
                "{raw:?}"
            );
        }
    }

    /// A store directory of its own under the system temp dir, removed
    /// on drop.
    struct TempStore(std::path::PathBuf);

    impl TempStore {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("tsn-cli-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempStore(dir)
        }

        /// `raw` plus `--journal-dir <this store>`.
        fn args(&self, raw: &[&str]) -> Vec<String> {
            let mut args = owned(raw);
            args.push("--journal-dir".into());
            args.push(self.0.to_str().expect("UTF-8 temp dir").into());
            args
        }

        fn path(&self, file: &str) -> std::path::PathBuf {
            self.0.join(file)
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    const SERVE: [&str; 6] = ["--nodes", "30", "--epochs", "4", "--seed", "9"];

    #[test]
    fn crashed_store_verifies_against_its_own_fault_plan() {
        let store = TempStore::new("crashed");
        let crash = ["--crash-at", "130", "--down-secs", "10"];
        cmd_serve(&store.args(&[&SERVE[..], &crash].concat())).unwrap();
        let record = read_run_record(store.0.to_str().unwrap())
            .unwrap()
            .join(" ");
        assert!(
            record.ends_with("--crash-at 130 --down-secs 10 --grace 2"),
            "{record}"
        );
        for extra in ["0", "2"] {
            let replay = store.args(&["--epochs", extra, "--verify"]);
            assert_eq!(cmd_replay(&replay), Ok(()), "--epochs {extra}");
        }
    }

    #[test]
    fn rotted_newest_checkpoint_falls_back_and_verifies() {
        let store = TempStore::new("rotted");
        cmd_serve(&store.args(&SERVE)).unwrap();
        let newest = store.path("ckpt-1.tsnc");
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 4;
        std::fs::write(&newest, bytes).unwrap();
        let dir = store.0.to_str().unwrap();
        let record = read_run_record(dir).unwrap();
        let host = recover_store(&Flags { args: &record }, dir).unwrap();
        let report = host.last_recovery().unwrap();
        assert_eq!(report.fallbacks, 1);
        assert!(!report.from_scratch);
        assert!(
            report.corrupt[0].contains("is corrupt"),
            "{:?}",
            report.corrupt
        );
        assert_eq!(
            cmd_replay(&store.args(&["--epochs", "1", "--verify"])),
            Ok(())
        );
    }

    #[test]
    fn checkpointless_store_replays_into_its_recorded_service() {
        let store = TempStore::new("no-ckpt");
        cmd_serve(&store.args(&["--nodes", "30", "--epochs", "2", "--seed", "9"])).unwrap();
        for k in 0..2 {
            std::fs::remove_file(store.path(&format!("ckpt-{k}.tsnc"))).unwrap();
        }
        let dir = store.0.to_str().unwrap();
        let record = read_run_record(dir).unwrap();
        let host = recover_store(&Flags { args: &record }, dir).unwrap();
        assert!(host.last_recovery().unwrap().from_scratch);
        assert_eq!(host.service().unwrap().config().nodes, 30);
        assert_eq!(cmd_replay(&store.args(&["--verify"])), Ok(()));
    }

    #[test]
    fn run_record_round_trips_the_configs() {
        let cases = [
            String::new(),
            // Display writes the shortest string that parses back to
            // the same bits: 0.30000000000000004.
            format!("--nodes 30 --seed 9 --arrivals {}", 0.1 + 0.2),
            "--mechanism beta --disclosure 3 --epoch-secs 45 --disclosures 0.25 \
             --queries 0.75 --malicious 0.1 --peer-sampling"
                .into(),
            "--view-size 6 --relays 2 --crash-at 130 --grace 4".into(),
        ];
        for raw in cases {
            let args: Vec<String> = raw.split_whitespace().map(str::to_owned).collect();
            let flags = Flags { args: &args };
            let line = run_record_line(&flags).unwrap();
            let record: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            let parsed = Flags::new(&record, "a run record", &[RECORD_FLAGS]).unwrap();
            let service = service_config(&flags).unwrap();
            assert_eq!(service_config(&parsed).unwrap(), service, "{raw}");
            assert_eq!(
                driver_config(&parsed, service.nodes).unwrap(),
                driver_config(&flags, service.nodes).unwrap(),
                "{raw}"
            );
            assert_eq!(run_record_line(&parsed).unwrap(), line, "{raw}");
        }
    }

    #[test]
    fn every_corruption_of_the_run_record_is_a_named_error() {
        let store = TempStore::new("record");
        cmd_serve(&store.args(&["--nodes", "30", "--epochs", "1", "--seed", "9"])).unwrap();
        let path = store.path("run.tsnr");
        let sealed = std::fs::read(&path).unwrap();
        let replay = store.args(&["--verify"]);
        let rejects = |bytes: &[u8], what: &str| {
            std::fs::write(&path, bytes).unwrap();
            let error = cmd_replay(&replay).unwrap_err();
            assert!(error.starts_with("run record "), "{what}: {error}");
        };
        for i in 0..sealed.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut bytes = sealed.clone();
                bytes[i] ^= mask;
                rejects(&bytes, &format!("byte {i} ^ {mask:#x}"));
            }
        }
        for len in 0..sealed.len() {
            rejects(&sealed[..len], &format!("truncated to {len}"));
        }
        std::fs::remove_file(&path).unwrap();
        let error = cmd_replay(&replay).unwrap_err();
        assert!(error.starts_with("cannot read run record "), "{error}");
        std::fs::write(&path, sealed).unwrap();
        assert_eq!(cmd_replay(&replay), Ok(()));
    }

    #[test]
    fn run_record_must_match_the_restored_checkpoint() {
        let store = TempStore::new("mismatch");
        cmd_serve(&store.args(&["--nodes", "30", "--epochs", "1", "--seed", "9"])).unwrap();
        let path = store.path("run.tsnr");
        let record = read_run_record(store.0.to_str().unwrap())
            .unwrap()
            .join(" ");
        let forged = record.replacen("--nodes 30", "--nodes 40", 1);
        assert_ne!(forged, record);
        std::fs::write(&path, seal_run_record(&forged)).unwrap();
        assert_eq!(
            cmd_replay(&store.args(&["--verify"])),
            Err("store is inconsistent: checkpoint holds 30 nodes, run record says 40".to_string())
        );
        std::fs::write(&path, seal_run_record(&record)).unwrap();
        assert_eq!(cmd_replay(&store.args(&["--verify"])), Ok(()));
    }

    #[test]
    fn hostile_manifest_segment_count_is_a_named_error() {
        let store = TempStore::new("hostile");
        cmd_serve(&store.args(&SERVE)).unwrap();
        let manifest = store.path("manifest.tsnm");
        let mut bytes = std::fs::read(&manifest).unwrap();
        // Bytes 48..56 of the manifest hold its segment count.
        bytes[48..56].fill(0xff);
        std::fs::write(&manifest, bytes).unwrap();
        let error = cmd_replay(&store.args(&["--verify"])).unwrap_err();
        assert!(error.contains("manifest"), "{error}");
    }

    #[test]
    fn serve_refuses_fault_flags_it_would_ignore() {
        let cases: [(&[&str], &str); 5] = [
            (
                &["--replicas", "3", "--crash-at", "100"],
                "--crash-at crashes a single hosted service; a replica set takes --kill-primary-at",
            ),
            (
                &["--kill-primary-at", "100", "--crash-at", "100"],
                "--crash-at crashes a single hosted service; a replica set takes --kill-primary-at",
            ),
            (
                &[
                    "--replicas",
                    "3",
                    "--kill-primary-at",
                    "100",
                    "--grace",
                    "9",
                ],
                "--grace does not apply to a replica set (members recover with zero grace)",
            ),
            (
                &["--grace", "9", "--down-secs", "50"],
                "--grace needs --crash-at or --kill-primary-at",
            ),
            (
                &["--replicas", "3", "--down-secs", "50"],
                "--down-secs needs --crash-at or --kill-primary-at",
            ),
        ];
        for (raw, error) in cases {
            let args = owned(&[&["--nodes", "20", "--epochs", "1"][..], raw].concat());
            assert_eq!(cmd_serve(&args), Err(error.to_string()), "{raw:?}");
        }
    }
}
