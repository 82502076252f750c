//! Determinism contract of the round engine (DESIGN.md §10).
//!
//! The outcome must be a function of `(config, seed)` only — never of
//! the shard count, the worker count, or scheduling. `shards` is an
//! execution knob. These tests pin:
//!
//! * 1, 2, 3 and 8 shards produce bit-identical outcomes;
//! * a round tail split over the workers (per-slot fills, the two-way
//!   merge barrier, the refresh walk's ratee blocks) equals the serial
//!   one-shard tail;
//! * the default, auto mode (`shards = 0`) and explicit counts agree,
//!   below and at the auto threshold;
//! * sweeps over sharded cells stay deterministic under the parallel
//!   sweep runner.

use tsn_core::json::format_f64;
use tsn_core::runner::{DisclosureLevel, ScenarioBuilder, SweepGrid, SweepRunner};
use tsn_core::scenario::{Scenario, ScenarioOutcome, SHARD_AUTO_NODES};
use tsn_core::ScenarioConfig;
use tsn_reputation::{AnonymizationConfig, MechanismKind, PopulationConfig, SelectionPolicy};

/// Bit-exact text form of every float an outcome carries (shortest
/// round-trip form, so equality here is bit equality).
fn fingerprint(o: &ScenarioOutcome) -> String {
    let mut s = String::new();
    let vec = |vs: &[f64]| {
        vs.iter()
            .map(|&v| format_f64(v))
            .collect::<Vec<_>>()
            .join(",")
    };
    s.push_str(&format!(
        "facets {} {} {} trust {} honest_success {}\n",
        format_f64(o.facets.privacy),
        format_f64(o.facets.reputation),
        format_f64(o.facets.satisfaction),
        format_f64(o.global_trust),
        format_f64(o.honest_success_rate),
    ));
    // The power report's RMSE and iteration count read the last
    // refresh's scores and walks directly; the other outcome floats see
    // them only through rankings and thresholds.
    s.push_str(&format!(
        "power rmse {} iterations {}\n",
        format_f64(o.power.rmse),
        o.power.iterations
    ));
    s.push_str(&format!(
        "counts interactions={} messages={} user_breaches={} system_breaches={} whitewashes={}\n",
        o.interactions, o.messages, o.user_breaches, o.system_breaches, o.whitewashes
    ));
    s.push_str(&format!("per_user_trust {}\n", vec(&o.per_user_trust)));
    s.push_str(&format!(
        "per_user_satisfaction {}\n",
        vec(&o.per_user_satisfaction)
    ));
    s.push_str(&format!("per_user_respect {}\n", vec(&o.per_user_respect)));
    for r in &o.samples {
        s.push_str(&format!(
            "round {} {} {} {} {} {} {} {} {} {}\n",
            r.round,
            format_f64(r.mean_satisfaction),
            format_f64(r.mean_trust),
            format_f64(r.respect_rate),
            format_f64(r.consistency),
            format_f64(r.mean_willingness),
            format_f64(r.success_rate),
            r.reports_filed,
            format_f64(r.availability),
            format_f64(r.partition_health),
        ));
    }
    s
}

/// A small but adversarial base: malicious raters (ballot stuffing),
/// traitors (clock betrayal), steady availability churn and adaptive
/// disclosure — every code path the shard phase defers to the merge
/// barrier.
fn base() -> ScenarioBuilder {
    ScenarioBuilder::small()
        .seed(7101)
        .population(PopulationConfig {
            malicious: 0.2,
            traitor: 0.1,
            traitor_switch_after: 3,
            whitewasher: 0.1,
            ..Default::default()
        })
        .churn(0.2)
        .adaptive_disclosure(true)
}

#[test]
fn one_two_and_eight_shards_are_bit_identical() {
    let one = base().shards(1).run().expect("valid config");
    assert!(one.whitewashes > 0, "whitewasher slots remap identities");
    let reference = fingerprint(&one);
    for shards in [2usize, 3, 8] {
        let outcome = base().shards(shards).run().expect("valid config");
        assert_eq!(
            reference,
            fingerprint(&outcome),
            "{shards} shards diverged from 1 shard"
        );
    }
}

#[test]
fn parallel_round_tail_equals_the_serial_tail() {
    // Large enough that the per-slot fills split into several pieces,
    // and with every feed the merge barrier splits two ways: report
    // views (ballot-stuffed copies under anonymous raters, or an
    // order-sensitive anonymization layer drawing per record), ledger
    // events and served/load credits, over whitewashed identities and
    // overlay views.
    let build = |anonymous_raters: bool| {
        let builder = ScenarioBuilder::small()
            .seed(7106)
            .nodes(2_000)
            .rounds(6)
            .refresh_every(2)
            .mechanism(MechanismKind::EigenTrust)
            .population(PopulationConfig {
                malicious: 0.2,
                whitewasher: 0.1,
                ..Default::default()
            })
            .churn(0.2)
            .with_peer_sampling()
            .adaptive_disclosure(true);
        if anonymous_raters {
            builder.disclosure(DisclosureLevel::Topical)
        } else {
            builder
                .disclosure(DisclosureLevel::Full)
                .anonymization(AnonymizationConfig {
                    strip_probability: 0.3,
                    flip_probability: 0.1,
                })
        }
    };
    for anonymous_raters in [true, false] {
        let serial = build(anonymous_raters)
            .shards(1)
            .run()
            .expect("valid config");
        assert!(serial.whitewashes > 0, "whitewasher slots remap identities");
        assert!(serial.samples.iter().all(|r| r.reports_filed > 0));
        let reference = fingerprint(&serial);
        for shards in [2usize, 5] {
            let outcome = build(anonymous_raters)
                .shards(shards)
                .run()
                .expect("valid config");
            assert_eq!(
                reference,
                fingerprint(&outcome),
                "{shards} shards diverged from the serial tail \
                 (anonymous raters: {anonymous_raters})"
            );
        }
    }
}

#[test]
fn refresh_walk_on_the_workers_is_shard_count_invariant() {
    // Wider than one 8,192-slot ratee block of the walk, and one round
    // that refreshes: with two or more shards the refresh splits each
    // walk iteration's blocks over the round's workers.
    for mechanism in [MechanismKind::EigenTrust, MechanismKind::PowerTrust] {
        let build = || {
            ScenarioBuilder::small()
                .seed(7107)
                .nodes(9_000)
                .rounds(1)
                .refresh_every(1)
                .mechanism(mechanism)
        };
        let one = build().shards(1).run().expect("valid config");
        assert!(one.interactions > 0);
        let reference = fingerprint(&one);
        for shards in [2usize, 8] {
            let outcome = build().shards(shards).run().expect("valid config");
            assert_eq!(
                reference,
                fingerprint(&outcome),
                "{mechanism}: {shards} shards diverged from 1 shard"
            );
        }
    }
}

#[test]
fn shard_knob_routes_to_the_sharded_engine() {
    // The builder method and the raw config field are the same knob.
    let via_builder = base().shards(4).run().expect("valid config");
    let via_config = Scenario::new(ScenarioConfig {
        shards: 4,
        ..base().build().expect("valid config")
    })
    .expect("valid config")
    .run();
    assert_eq!(fingerprint(&via_builder), fingerprint(&via_config));
}

#[test]
fn default_and_auto_shards_match_explicit_counts() {
    // `shards` never changes an outcome: the default, auto mode (one
    // shard below the threshold) and explicit counts give the same bits
    // on the adversarial base.
    assert!(ScenarioBuilder::small().build().expect("valid").nodes < SHARD_AUTO_NODES);
    let reference = fingerprint(&base().run().expect("valid config"));
    for shards in [0usize, 1, 2, 8] {
        let outcome = base().shards(shards).run().expect("valid config");
        assert_eq!(
            reference,
            fingerprint(&outcome),
            "shards = {shards} diverged from the default"
        );
    }
}

#[test]
fn sharded_engine_is_deterministic_with_dynamics() {
    let build = || {
        ScenarioBuilder::small()
            .seed(7102)
            .malicious_fraction(0.25)
            .whitewash_attack()
    };
    let a = build().shards(1).run().expect("valid config");
    let b = build().shards(4).run().expect("valid config");
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert!(a.whitewashes > 0, "the whitewash preset actually churns");
}

#[test]
fn sharded_runs_are_reproducible() {
    let a = base().shards(3).run().expect("valid config");
    let b = base().shards(3).run().expect("valid config");
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn sharded_outcome_is_structurally_sound() {
    let o = base().shards(4).run().expect("valid config");
    assert!(o.facets.validate().is_ok());
    assert!((0.0..=1.0).contains(&o.global_trust));
    assert!(o.interactions > 0);
    assert_eq!(o.samples.len(), 10);
    assert!(o.per_user_trust.iter().all(|t| (0.0..=1.0).contains(t)));
}

#[test]
fn sweep_over_sharded_cells_is_runner_invariant() {
    // The sweep interplay: cells configured for the sharded engine must
    // produce the same report under the serial and the parallel sweep
    // runner (cells are deterministic, so the only difference threads
    // could make is a bug).
    let grid = SweepGrid::over(base().nodes(32).rounds(4).graph(4, 0.1).shards(2))
        .mechanisms([MechanismKind::Beta, MechanismKind::EigenTrust])
        .seeds([1, 2]);
    let serial = SweepRunner::serial().run(&grid).expect("valid grid");
    let parallel = SweepRunner::with_threads(4).run(&grid).expect("valid grid");
    assert_eq!(serial, parallel);
}

#[test]
fn forced_sharding_clamps_degenerate_counts() {
    // More shards than nodes, or zero, must not panic or change results.
    let tiny = ScenarioBuilder::small().seed(7103);
    let a = tiny.clone().shards(1).run().expect("valid");
    let b = tiny.clone().shards(10_000).run().expect("valid");
    let c = tiny.shards(0).run().expect("valid");
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(fingerprint(&a), fingerprint(&c));
}

#[test]
fn never_selected_traitor_still_turns_in_a_scenario() {
    // End-to-end regression for the stuck-traitor fix: with Best
    // selection consumers converge on top-scored providers, so a
    // traitor may never serve — only the time deadline (defaulted to
    // `switch_after` rounds by the scenario) can turn it. Compare the
    // same seed with the deadline inside vs far beyond the horizon:
    // once it passes, 30% of providers serve at adversarial quality and
    // lie as raters, so late-round success must drop.
    let run = |switch_after: u64| {
        ScenarioBuilder::small()
            .seed(7104)
            .population(PopulationConfig {
                traitor: 0.3,
                traitor_switch_after: switch_after,
                ..Default::default()
            })
            .selection(SelectionPolicy::Best)
            .rounds(8)
            .run()
            .expect("valid config")
    };
    let late_success = |o: &ScenarioOutcome| {
        o.samples[4..].iter().map(|s| s.success_rate).sum::<f64>() / (o.samples.len() - 4) as f64
    };
    let betrayed = run(2); // deadline at round 2
    let loyal = run(1_000); // deadline beyond the run
    assert!(
        late_success(&betrayed) < late_success(&loyal),
        "betrayal must show up after the deadline: {} vs {}",
        late_success(&betrayed),
        late_success(&loyal)
    );
}

#[test]
fn mega_preset_is_valid_and_auto_sharded() {
    let config = ScenarioBuilder::mega(SHARD_AUTO_NODES)
        .build()
        .expect("mega preset is valid");
    assert_eq!(config.shards, 0, "auto engine selection");
    // At the threshold auto splits into several shards; one round must
    // give the same bits as a single shard.
    let run = |shards: usize| {
        ScenarioBuilder::mega(SHARD_AUTO_NODES)
            .rounds(1)
            .shards(shards)
            .run()
            .expect("mega preset is valid")
    };
    assert_eq!(fingerprint(&run(0)), fingerprint(&run(1)));
}

/// The online service's epoch-commit sharding obeys the same contract
/// as the batch engine: `commit_shards` is an execution knob, never an
/// outcome knob. 1, 2 and 8 shards produce bit-identical scores,
/// samples and stats for the same driven workload — partition windows
/// and disclosure dynamics included.
#[test]
fn service_epoch_commits_are_shard_count_invariant() {
    use tsn::prelude::*;

    let driver = ServiceDriver::new(DriverConfig {
        nodes: 60,
        arrival_rate: 2.0,
        disclosure_rate: 0.25,
        query_rate: 0.4,
        malicious_fraction: 0.2,
        seed: 7105,
        membership: None,
    })
    .expect("valid driver");
    let run = |shards: usize| {
        let mut service = TrustService::new(ServiceConfig {
            nodes: 60,
            epoch: SimDuration::from_secs(60),
            partitions: vec![PartitionWindow::full_split(
                SimTime::from_secs(70),
                SimTime::from_secs(110),
                2,
            )],
            commit_shards: shards,
            ..ServiceConfig::default()
        })
        .expect("valid service");
        driver.drive(&mut service, 3).expect("clean run");
        (
            service
                .scores()
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<u64>>(),
            service.samples().to_vec(),
            service.stats(),
        )
    };
    let reference = run(1);
    for shards in [2usize, 8] {
        assert_eq!(
            reference,
            run(shards),
            "{shards} commit shards diverged from the serial commit"
        );
    }
}
