//! End-to-end tests of the dynamics layer: churn, partitions and
//! whitewashing executed through the protocol stack and the scenario
//! engine.
//!
//! The acceptance contract:
//!
//! * with no dynamics plan, outcomes are bit-identical to the pinned
//!   goldens (covered by `tests/equivalence.rs`; the static-plan
//!   variants here pin the protocol side);
//! * `split_then_heal` produces cross-group score divergence during the
//!   partition and reconvergence after the heal;
//! * `whitewash_attack` re-enters whitewashed identities with *reset*
//!   (not inherited) reputation.

use tsn::core::runner::ScenarioBuilder;
use tsn::graph::generators;
use tsn::protocol::{GossipConfig, GossipNetwork};
use tsn::simnet::{
    dynamics::{DynamicsPlan, DynamicsRuntime, PartitionWindow},
    latency::ConstantLatency,
    ChurnConfig, GroupMap, Network, NetworkConfig, NoLoss, NodeId, RegionalLatency, SimDuration,
    SimRng, SimTime,
};

/// A clean-network gossip instance over a two-community-friendly
/// overlay; observations about subject 0 come only from the lower half.
fn gossip_with_lower_half_evidence(n: usize, seed: u64) -> GossipNetwork {
    let mut rng = SimRng::seed_from_u64(seed);
    let graph = generators::watts_strogatz(n, 6, 0.1, &mut rng).expect("valid overlay");
    let config = NetworkConfig {
        latency: Box::new(ConstantLatency(SimDuration::from_millis(10))),
        loss: Box::new(NoLoss),
    };
    let mut network = Network::new(config, rng.fork(1));
    for _ in 0..n {
        network.add_node();
    }
    let mut gossip = GossipNetwork::new(
        graph,
        network,
        GossipConfig {
            subjects: n,
            ..Default::default()
        },
        rng.fork(2),
    );
    for observer in 0..n as u32 / 2 {
        gossip.observe(NodeId(observer), 0, 0.95);
    }
    gossip
}

#[test]
fn split_then_heal_diverges_then_reconverges() {
    let n = 30;
    let mut gossip = gossip_with_lower_half_evidence(n, 100);
    // Rounds are 100ms. The clean split covers rounds 0..20; the heal
    // fires during round 20's pre-delivery dynamics step.
    let plan = DynamicsPlan::split_then_heal(SimTime::ZERO, SimTime::from_millis(2_050));
    gossip
        .attach_dynamics(plan, SimRng::seed_from_u64(101))
        .expect("valid plan");

    // --- During the partition: the islands' scores diverge.
    gossip.run(20);
    assert!(gossip.dynamics().expect("attached").partition_active());
    let a_mid = gossip.estimate(NodeId(3), 0);
    let b_mid = gossip.estimate(NodeId(25), 0);
    assert!(a_mid > 0.7, "island A converges on its evidence: {a_mid}");
    assert!(
        (b_mid - 0.5).abs() < 0.15,
        "island B is stuck near the prior: {b_mid}"
    );
    assert!(
        (a_mid - b_mid).abs() > 0.2,
        "split-brain divergence: {a_mid} vs {b_mid}"
    );

    // --- After the heal: the same instance reconverges everywhere.
    gossip.run(60);
    assert!(!gossip.dynamics().expect("attached").partition_active());
    let a_end = gossip.estimate(NodeId(3), 0);
    let b_end = gossip.estimate(NodeId(25), 0);
    assert!(
        (a_end - b_end).abs() < 0.1,
        "post-heal reconvergence: {a_end} vs {b_end}"
    );
    assert!(
        b_end > 0.7,
        "island B learned the evidence after the heal: {b_end}"
    );
}

#[test]
fn static_plan_is_bit_identical_to_no_plan() {
    let n = 24;
    let run = |attach_static: bool| {
        let mut gossip = gossip_with_lower_half_evidence(n, 200);
        if attach_static {
            gossip
                .attach_dynamics(DynamicsPlan::default(), SimRng::seed_from_u64(201))
                .expect("valid plan");
        }
        gossip.run(25);
        let report = gossip.report();
        let estimates: Vec<f64> = (0..n)
            .map(|i| gossip.estimate(NodeId::from_index(i), 0))
            .collect();
        (report.mean_error, report.costs, estimates)
    };
    assert_eq!(run(false), run(true), "a static plan must be a no-op");
}

#[test]
fn wan_regions_slow_but_do_not_prevent_convergence() {
    let n = 20;
    let mut gossip = gossip_with_lower_half_evidence(n, 300);
    // Regional latency is a transport setting, installed before the
    // first round.
    gossip
        .network_mut()
        .set_latency(Box::new(RegionalLatency::new(
            GroupMap::contiguous(n, 2),
            SimDuration::from_millis(5),
            SimDuration::from_millis(450),
        )));
    gossip.run(80);
    let report = gossip.report();
    assert!(
        report.mean_error < 0.1,
        "cross-region pushes arrive rounds late but mass is conserved: {}",
        report.mean_error
    );
}

#[test]
fn buffer_pool_accounting_survives_1k_churny_rounds() {
    // Kill/revive cycles recycle mailbox and in-flight buffers through
    // every path (death clearing, dead-letter, normal consumption); over
    // 1k rounds a pre-warmed pool must neither leak (fresh allocations
    // beyond the 2n+2 working-set bound) nor double-recycle (free list
    // outgrowing the total ever created).
    let n = 50;
    let mut gossip = gossip_with_lower_half_evidence(n, 400);
    let plan = DynamicsPlan {
        churn: Some(ChurnConfig {
            mean_session: SimDuration::from_millis(500),
            mean_downtime: SimDuration::from_millis(200),
            whitewash_probability: 0.3,
            crash_fraction: 0.5,
        }),
        ..Default::default()
    };
    gossip
        .attach_dynamics(plan, SimRng::seed_from_u64(401))
        .expect("valid plan");

    let pool = gossip.network_mut().pool_mut();
    let prewarmed: Vec<Vec<f64>> = (0..2 * n + 2)
        .map(|_| {
            let mut buf = pool.acquire();
            buf.reserve(1 + 2 * n);
            buf
        })
        .collect();
    for buf in prewarmed {
        pool.release(buf);
    }
    let baseline = pool.fresh_allocations();

    gossip.run(1000);

    let pool = gossip.network_mut().pool();
    assert_eq!(
        baseline,
        pool.fresh_allocations(),
        "1k churny rounds over a pre-warmed pool allocate zero new buffers"
    );
    assert!(pool.reuses() > 1000, "the pool is actually exercised");
    assert!(
        (pool.free_len() as u64) <= pool.fresh_allocations(),
        "free list never exceeds buffers ever created (no double recycle)"
    );
    let report = gossip.report();
    assert!(
        report.mean_error.is_finite(),
        "state stays sound: {report:?}"
    );
}

#[test]
fn scenario_flash_crowd_fills_up_and_stays_sound() {
    let outcome = ScenarioBuilder::small()
        .seed(500)
        .rounds(12)
        .flash_crowd()
        .run()
        .expect("valid configuration");
    let availability = outcome.series("availability").expect("known series");
    assert!(
        availability[0] < 0.5,
        "three quarters start offline: {}",
        availability[0]
    );
    assert!(
        availability.last().copied().expect("12 rounds") > 0.8,
        "the crowd joined: {availability:?}"
    );
    assert!(outcome.facets.validate().is_ok());
    assert!((0.0..=1.0).contains(&outcome.global_trust));
}

#[test]
fn scenario_split_then_heal_confines_interactions_and_reports_health() {
    let outcome = ScenarioBuilder::small()
        .seed(510)
        .rounds(12)
        .split_then_heal(3, 7)
        .run()
        .expect("valid configuration");
    for sample in &outcome.samples {
        let expected = if (3..7).contains(&sample.round) {
            0.5
        } else {
            1.0
        };
        assert_eq!(
            sample.partition_health, expected,
            "round {} health",
            sample.round
        );
    }
    // The partition_health series is observable by name.
    assert_eq!(outcome.series("partition_health").expect("known").len(), 12);
    assert!(outcome.facets.validate().is_ok());
}

#[test]
fn scenario_whitewash_attack_erodes_reputation_power() {
    // Whitewashing sheds bad history: across seeds, the mechanism's
    // measured power (judged against slot-level ground truth) drops
    // relative to the same population without whitewashing.
    let run = |whitewash: bool, seed: u64| {
        let base = ScenarioBuilder::small()
            .seed(seed)
            .rounds(15)
            .malicious_fraction(0.3);
        let base = if whitewash {
            base.whitewash_attack()
        } else {
            base
        };
        base.run().expect("valid configuration")
    };
    let mut washed_power = 0.0;
    let mut clean_power = 0.0;
    let mut washes = 0u64;
    for seed in 520..524 {
        let washed = run(true, seed);
        washes += washed.whitewashes;
        washed_power += washed.facets.reputation;
        clean_power += run(false, seed).facets.reputation;
    }
    assert!(washes > 0, "3-round sessions at 80% whitewash must fire");
    assert!(
        washed_power < clean_power,
        "whitewashing erodes mechanism power: {washed_power} vs {clean_power}"
    );
}

#[test]
fn scenario_with_noop_plan_is_bit_identical_to_no_plan() {
    // Attaching a plan that does nothing — the static default — must
    // not shift a single RNG draw: outcomes stay bit-identical.
    let fingerprint = |builder: ScenarioBuilder| {
        let o = builder.seed(540).run().expect("valid configuration");
        (
            o.global_trust,
            o.messages,
            o.per_user_trust.clone(),
            o.samples
                .iter()
                .map(|s| (s.mean_trust, s.success_rate, s.reports_filed))
                .collect::<Vec<_>>(),
        )
    };
    let baseline = fingerprint(ScenarioBuilder::small());
    let static_plan = fingerprint(ScenarioBuilder::small().dynamics(DynamicsPlan::default()));
    assert_eq!(baseline, static_plan, "static plan must be a no-op");
}

#[test]
fn scenario_without_dynamics_reports_full_health_series() {
    let outcome = ScenarioBuilder::small().seed(530).run().expect("valid");
    assert_eq!(outcome.whitewashes, 0);
    for sample in &outcome.samples {
        assert_eq!(sample.availability, 1.0);
        assert_eq!(sample.partition_health, 1.0);
    }
}

#[test]
fn detached_scenario_and_protocol_runtime_share_one_schedule() {
    // The scenario's detached execution and the protocol driver's
    // networked execution are the same schedule: same plan, same seed,
    // same events.
    let plan = DynamicsPlan::whitewash_attack(SimDuration::from_secs(2), SimDuration::from_secs(1));
    let n = 16;
    let mut a = DynamicsRuntime::new(plan.clone(), n, SimRng::seed_from_u64(600)).unwrap();
    let mut b = DynamicsRuntime::new(plan, n, SimRng::seed_from_u64(600)).unwrap();
    let mut network = Network::new(NetworkConfig::default(), SimRng::seed_from_u64(601));
    for _ in 0..n {
        network.add_node();
    }
    b.install(&mut network);
    a.advance_detached(SimTime::from_secs(60));
    b.advance(&mut network, SimTime::from_secs(60));
    assert_eq!(a.take_events(), b.take_events());
    assert_eq!(a.identities(), b.identities());
}

#[test]
fn runtime_with_saturated_transitions_terminates_without_spurious_events() {
    // Regression guard for the saturation path: `SimDuration::MAX`
    // churn means put every sampled transition on SimTime::MAX (the
    // "never" horizon). Those saturated steps must
    // never fire — advancing to the horizon terminates instead of
    // spinning on MAX-timestamped schedule entries, and no event is
    // fabricated at the horizon itself.
    let plan = DynamicsPlan {
        churn: Some(ChurnConfig {
            mean_session: SimDuration::MAX,
            mean_downtime: SimDuration::MAX,
            ..ChurnConfig::default()
        }),
        ..DynamicsPlan::default()
    };
    let mut runtime = DynamicsRuntime::new(plan, 12, SimRng::seed_from_u64(700)).unwrap();
    runtime.advance_detached(SimTime::MAX);
    assert!(
        runtime
            .take_events()
            .iter()
            .all(|&(at, _)| at < SimTime::MAX),
        "no event may fire at the unreachable horizon"
    );
    // Already at the horizon: advancing again is a settled no-op.
    runtime.advance_detached(SimTime::MAX);
    assert_eq!(runtime.take_events(), Vec::new());
    runtime.advance_detached(SimTime::MAX);
    assert_eq!(runtime.take_events(), Vec::new());
}

#[test]
fn partition_window_ending_at_the_horizon_never_heals() {
    // A window with `end == SimTime::MAX` is "partitioned forever":
    // the start boundary fires, the heal never does, and repeatedly
    // advancing at the horizon neither spins nor re-fires the start.
    let plan = DynamicsPlan {
        partitions: vec![PartitionWindow::full_split(
            SimTime::from_secs(10),
            SimTime::MAX,
            2,
        )],
        ..DynamicsPlan::default()
    };
    let mut runtime = DynamicsRuntime::new(plan, 8, SimRng::seed_from_u64(701)).unwrap();
    runtime.advance_detached(SimTime::MAX);
    assert!(runtime.partition_active(), "split must be in effect");
    let fired = runtime.take_events();
    assert_eq!(fired.len(), 1, "exactly the start boundary: {fired:?}");
    runtime.advance_detached(SimTime::MAX);
    assert!(runtime.take_events().is_empty(), "no re-fired boundaries");
    assert!(runtime.partition_active());
}

#[test]
fn saturated_time_arithmetic_is_stable_at_the_horizon() {
    // The service computes epoch boundaries by multiplying out epoch
    // lengths; once anything saturates, every further step must stay
    // pinned at MAX (no wrap, no panic) and durations must stay sane.
    let horizon = SimTime::MAX;
    assert_eq!(horizon.saturating_add(SimDuration::from_secs(1)), horizon);
    assert_eq!(horizon + SimDuration::MAX, horizon);
    assert_eq!(horizon.duration_since(horizon), SimDuration::ZERO);
    assert_eq!(horizon.duration_since(SimTime::ZERO), SimDuration::MAX);
    let near = SimTime::from_micros(u64::MAX - 1);
    assert_eq!(near.saturating_add(SimDuration::from_micros(7)), horizon);
    assert_eq!(horizon.duration_since(near), SimDuration::from_micros(1));
}
