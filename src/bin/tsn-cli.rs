//! `tsn-cli` — run scenarios, sweeps and the analytic dynamics from the
//! command line (plain `std::env` parsing; no extra dependencies).
//!
//! ```text
//! tsn-cli scenario [--nodes N] [--rounds R] [--seed S] [--mechanism M]
//!                  [--disclosure 0..4] [--malicious F] [--policies P]
//!                  [--churn F] [--adaptive] [--progress K] [--json]
//! tsn-cli sweep    [--nodes N] [--rounds R] [--seed S] [--seeds K]
//!                  [--threads T] [--json] [--csv]
//! tsn-cli dynamics [--honest F] [--eta F]
//! tsn-cli serve    [--nodes N] [--epochs E] [--epoch-secs S] [--seed S]
//!                  [--mechanism M] [--disclosure 0..4] [--malicious F]
//!                  [--arrivals F] [--queries F] [--checkpoint FILE]
//!                  [--journal] [--crash-at SECS] [--down-secs SECS]
//!                  [--grace SECS] [--replicas N] [--kill-primary-at SECS]
//!                  [--journal-dir DIR] [--json]
//! tsn-cli replay   --checkpoint FILE [--fallback FILE] [--epochs E]
//!                  [--verify] [--json]
//! tsn-cli replay   --from-checkpoint --journal-dir DIR [--epochs E]
//!                  [--verify] [--json]
//! ```

use std::process::ExitCode;
use tsn::core::dynamics::{DynamicsConfig, DynamicsState, InteractionDynamics};
use tsn::core::json::JsonValue;
use tsn::core::runner::{
    DisclosureLevel, ProgressPrinter, ScenarioBuilder, SweepGrid, SweepRunner,
};
use tsn::core::{FacetScores, PolicyProfile};
use tsn::reputation::MechanismKind;
use tsn::service::{
    checkpoint_sections, DriverConfig, EventJournal, HostConfig, ReplicaConfig, ReplicaSet,
    ServiceConfig, ServiceDriver, ServiceHost, TrustService,
};
use tsn::simnet::{FaultInjector, FaultPlan, MembershipConfig, SimDuration, SimTime};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("usage: tsn-cli <scenario|sweep|dynamics> [flags]  (see --help)");
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
  replay     restore a service checkpoint and (optionally) continue it

common flags:
  --nodes N --rounds R --seed S --json
scenario flags:
  --mechanism none|beta|eigentrust|powertrust|trustme
  --disclosure 0..4   --malicious 0.0..1.0
  --policies permissive|mixed|strict   --adaptive
  --churn 0.0..1.0  steady availability churn: that fraction of users
                    is offline each round (one-round mean sessions)
  --progress K   print a progress line every K rounds
peer-sampling flags (scenario + serve):
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
serve flags:
  --epochs E        epochs to drive (default 10)
  --epoch-secs S    epoch length / staleness bound (default 60)
  --arrivals F      interactions per node per epoch (default 2.0)
  --queries F       query probability per interaction (default 0.5)
  --checkpoint F    write a binary checkpoint to file F at the end
  --journal         host the service behind a write-ahead journal +
                    auto-checkpoints (crash-tolerant mode)
  --crash-at S      crash the hosted service at sim-second S (implies
                    --journal); clients retry with backoff
  --down-secs S     downtime before the scheduled restart (default 5)
  --grace S         degraded-query window after recovery (default 2)
  --replicas N      run N replicated hosts behind the deterministic
                    sequencer (implies --journal; failover on crash)
  --kill-primary-at S  crash replica 0 (the initial primary) at
                    sim-second S; the healthiest follower is promoted
  --journal-dir D   persist the (primary's) segmented journal +
                    checkpoint ring to directory D at the end
replay flags:
  --checkpoint F    checkpoint file to restore (required)
  --fallback F      previous checkpoint to fall back to when the newest
                    one fails its section CRCs
  --from-checkpoint restore through the real recovery path instead:
                    newest valid checkpoint from --journal-dir +
                    segment-suffix journal replay
  --journal-dir D   storage directory written by serve --journal-dir
  --epochs E        extra epochs to continue after restoring (default 0)
  --verify          rerun from scratch and check the restored-and-
                    continued run is bit-identical (works for fallback
                    and --from-checkpoint restores too)"
    );
}

/// Minimal flag parser: `--key value` pairs plus boolean `--flag`s.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
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
        match self.get(key)? {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value '{raw}' for {key}")),
        }
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
/// `--relays` tune the overlay (and imply `--peer-sampling`).
fn membership_flags(flags: &Flags) -> Result<Option<MembershipConfig>, String> {
    let requested = flags.has("--peer-sampling")
        || flags.get("--view-size")?.is_some()
        || flags.get("--relays")?.is_some();
    if !requested {
        return Ok(None);
    }
    let defaults = MembershipConfig::default();
    let view_size = flags.parse("--view-size", defaults.view_size)?;
    let mut overlay = MembershipConfig {
        view_size,
        shuffle_len: (view_size / 2).max(1),
        relays: flags.parse("--relays", defaults.relays)?,
        relay_fanout: defaults.relay_fanout.min(view_size),
        ..defaults
    };
    overlay.swap = overlay.shuffle_len.saturating_sub(overlay.healing);
    overlay.validate()?;
    Ok(Some(overlay))
}

fn cmd_scenario(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let builder = scenario_builder(&flags)?;
    let config = builder.clone().build().map_err(|e| e.to_string())?;
    let outcome = if let Some(every) = flags.get("--progress")? {
        let every: usize = every.parse().map_err(|_| "invalid value for --progress")?;
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
    let flags = Flags { args };
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

    let runner = match flags.get("--threads")? {
        Some(raw) => {
            let t: usize = raw.parse().map_err(|_| "invalid value for --threads")?;
            SweepRunner::with_threads(t)
        }
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

/// Shared by `serve` and `replay --from-checkpoint`: the service
/// flags. The storage carries no service config, so a replay rebuilds
/// it from the same flags the serve run used.
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

/// `--verify` for both replay paths: recomputes the whole history from
/// scratch and checks that `service` (`what`: "restored" or
/// "recovered") matches it bit for bit, naming the reference run
/// `against` in the error.
fn verify_against_scratch(
    service: &TrustService,
    driver: &ServiceDriver,
    epochs: u64,
    what: &str,
    against: &str,
) -> Result<(), String> {
    let mut fresh = TrustService::new(service.config().clone())?;
    driver.drive(&mut fresh, epochs)?;
    let a = service.scores();
    let b = fresh.scores();
    let scores_identical =
        a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits());
    if !scores_identical {
        return Err(format!(
            "verify FAILED: {what} run's scores diverged from {against}"
        ));
    }
    // Scores could agree by luck; the committed sample series and
    // lifetime counters pin the whole history.
    if service.samples() != fresh.samples() {
        return Err(format!(
            "verify FAILED: {what} run's epoch samples diverged from {against}"
        ));
    }
    if service.stats() != fresh.stats() {
        return Err(format!(
            "verify FAILED: {what} run's counters diverged: {:?} vs {:?}",
            service.stats(),
            fresh.stats()
        ));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    let mut config = service_config(&flags)?;
    let epochs: u64 = flags.parse("--epochs", 10)?;
    // The overlay rides in the service config too, so checkpoints
    // written by this run carry it (checkpoint config section v3).
    config.membership = membership_flags(&flags)?;
    let driver = ServiceDriver::new(driver_config(&flags, config.nodes)?)?;
    let replicas: usize = flags.parse("--replicas", 1usize)?;
    if replicas > 1 || flags.get("--kill-primary-at")?.is_some() {
        return serve_replicated(&flags, config, &driver, epochs, replicas.max(2));
    }
    let hosted = flags.has("--journal")
        || flags.get("--crash-at")?.is_some()
        || flags.get("--journal-dir")?.is_some();
    if hosted {
        return serve_hosted(&flags, config, &driver, epochs);
    }
    let mut service = TrustService::new(config)?;
    driver.drive(&mut service, epochs)?;
    service_summary(&service, flags.has("--json"));
    write_checkpoint_flag(&flags, &service)?;
    Ok(())
}

/// `serve --journal [--crash-at S]`: the crash-tolerant path — a
/// [`ServiceHost`] (write-ahead journal + auto-checkpoints) driven with
/// client-side retries, optionally crashed on schedule.
fn serve_hosted(
    flags: &Flags,
    config: ServiceConfig,
    driver: &ServiceDriver,
    epochs: u64,
) -> Result<(), String> {
    let host_config = HostConfig {
        service: config,
        recovery_grace: SimDuration::from_secs(flags.parse("--grace", 2u64)?),
        ..HostConfig::default()
    };
    let mut host = ServiceHost::new(host_config)?;
    if let Some(raw) = flags.get("--crash-at")? {
        let crash_at: u64 = raw
            .parse()
            .map_err(|_| format!("invalid value '{raw}' for --crash-at"))?;
        let down: u64 = flags.parse("--down-secs", 5u64)?;
        let plan =
            FaultPlan::service_crash(SimTime::from_secs(crash_at), SimDuration::from_secs(down));
        host.attach_faults(FaultInjector::new(plan, driver.config().seed)?);
        eprintln!("fault plan: crash at {crash_at}s, restart after {down}s");
    }
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
    write_checkpoint_flag(flags, service)?;
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
    if flags.get("--grace")?.is_some() {
        eprintln!("note: --grace is ignored with --replicas (members recover with zero grace)");
    }
    let host = HostConfig {
        service: config,
        recovery_grace: SimDuration::ZERO,
        ..HostConfig::default()
    };
    let mut set = ReplicaSet::new(ReplicaConfig { host, replicas })?;
    if let Some(raw) = flags.get("--kill-primary-at")? {
        let kill_at: u64 = raw
            .parse()
            .map_err(|_| format!("invalid value '{raw}' for --kill-primary-at"))?;
        let down: u64 = flags.parse("--down-secs", 5u64)?;
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
    write_checkpoint_flag(flags, service)?;
    Ok(())
}

/// Honors `--journal-dir DIR` after a hosted serve run: writes the
/// journal manifest, every live segment, and the checkpoint ring —
/// the storage `replay --from-checkpoint` re-hosts.
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
    eprintln!(
        "storage: manifest + {} segments + {} checkpoints -> {dir}",
        host.journal().segments().len(),
        host.stored_checkpoints().len(),
    );
    Ok(())
}

/// Honors `--checkpoint FILE` after a serve run.
fn write_checkpoint_flag(flags: &Flags, service: &TrustService) -> Result<(), String> {
    if let Some(path) = flags.get("--checkpoint")? {
        let bytes = service.checkpoint()?;
        std::fs::write(path, &bytes)
            .map_err(|e| format!("cannot write checkpoint to {path}: {e}"))?;
        eprintln!("checkpoint: {} bytes -> {path}", bytes.len());
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
    if flags.has("--from-checkpoint") {
        return replay_from_storage(&flags);
    }
    let path = flags
        .get("--checkpoint")?
        .ok_or("replay needs --checkpoint FILE (or --from-checkpoint --journal-dir DIR)")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read checkpoint {path}: {e}"))?;
    let (mut service, restored_path, restored_len) = match TrustService::restore(&bytes) {
        Ok(service) => (service, path, bytes.len()),
        Err(error) => {
            // Per-section CRCs caught damage; name the bad sections and
            // fall back to the previous checkpoint when one was given.
            eprintln!("checkpoint {path} is unusable: {error}");
            if let Ok(sections) = checkpoint_sections(&bytes) {
                for section in sections.iter().filter(|s| !s.crc_ok) {
                    eprintln!(
                        "  section '{}' fails its CRC ({} bytes at offset {})",
                        section.name, section.len, section.offset
                    );
                }
            }
            let Some(fallback) = flags.get("--fallback")? else {
                return Err(format!(
                    "cannot restore {path} and no --fallback checkpoint was given: {error}"
                ));
            };
            eprintln!("falling back to {fallback}");
            let previous = std::fs::read(fallback)
                .map_err(|e| format!("cannot read fallback checkpoint {fallback}: {e}"))?;
            let len = previous.len();
            (TrustService::restore(&previous)?, fallback, len)
        }
    };
    eprintln!(
        "restored {} nodes at epoch {} from {restored_path} ({restored_len} bytes)",
        service.config().nodes,
        service.epoch_index(),
    );
    let extra: u64 = flags.parse("--epochs", 0)?;
    let restored_epochs = service.epoch_index();
    let driver = ServiceDriver::new(driver_config(&flags, service.config().nodes)?)?;
    if extra > 0 {
        driver.drive(&mut service, extra)?;
    }
    if flags.has("--verify") {
        // The checkpoint contract: restore + continue must equal an
        // uninterrupted run, bit for bit.
        let epochs = restored_epochs + extra;
        verify_against_scratch(&service, &driver, epochs, "restored", "the scratch run")?;
        eprintln!(
            "verify: restored+continued run is bit-identical to an uninterrupted {epochs}-epoch run"
        );
    }
    service_summary(&service, flags.has("--json"));
    Ok(())
}

/// `replay --from-checkpoint --journal-dir DIR`: restore through the
/// **real recovery path** — newest CRC-valid checkpoint from the ring
/// plus segment-suffix journal replay — instead of recomputing from
/// scratch, then (with `--verify`) compare bits against a full replay.
fn replay_from_storage(flags: &Flags) -> Result<(), String> {
    let dir = flags
        .get("--journal-dir")?
        .ok_or("replay --from-checkpoint needs --journal-dir DIR")?;
    let manifest_path = format!("{dir}/manifest.tsnm");
    let manifest = std::fs::read(&manifest_path)
        .map_err(|e| format!("cannot read journal manifest {manifest_path}: {e}"))?;
    let journal = EventJournal::from_storage(&manifest, |index| {
        let path = format!("{dir}/seg-{index:08}.tsnj");
        std::fs::read(&path).map_err(|e| format!("cannot read {path}: {e}"))
    })?;
    let mut checkpoints = Vec::new();
    loop {
        let path = format!("{dir}/ckpt-{}.tsnc", checkpoints.len());
        match std::fs::read(&path) {
            Ok(bytes) => checkpoints.push(bytes),
            Err(_) => break,
        }
    }
    if checkpoints.is_empty() {
        eprintln!("no stored checkpoints in {dir}: recovery will replay the whole journal");
    }
    let host_config = HostConfig {
        service: service_config(flags)?,
        recovery_grace: SimDuration::ZERO,
        ..HostConfig::default()
    };
    let mut host = ServiceHost::from_storage(host_config, checkpoints, journal)?;
    let report = host.restart(SimTime::ZERO)?.clone();
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
    let restored_epochs = host
        .service()
        .ok_or("recovery left no running service")?
        .epoch_index();
    eprintln!(
        "restored {} nodes at epoch {restored_epochs} from {dir}",
        host.config().service.nodes
    );
    let extra: u64 = flags.parse("--epochs", 0)?;
    let driver = ServiceDriver::new(driver_config(flags, host.config().service.nodes)?)?;
    if extra > 0 {
        driver.drive_host(&mut host, extra)?;
    }
    let service = host.service().ok_or("the service ended the run down")?;
    if flags.has("--verify") {
        // The recovery contract, exercised end to end: checkpoint +
        // segment-suffix replay + continue must equal recomputing the
        // whole history from scratch, bit for bit.
        let epochs = restored_epochs + extra;
        verify_against_scratch(service, &driver, epochs, "recovered", "full replay")?;
        eprintln!(
            "verify: recovery path ({} records replayed on a checkpoint) is bit-identical \
             to a full {epochs}-epoch replay",
            report.replayed,
        );
    }
    service_summary(service, flags.has("--json"));
    Ok(())
}

fn cmd_dynamics(args: &[String]) -> Result<(), String> {
    let flags = Flags { args };
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
}
