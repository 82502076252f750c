//! Cross-crate integration: the full pipeline from substrates to trust.

use tsn::core::runner::ScenarioBuilder;
use tsn::core::{Optimizer, PolicyProfile, TrustMetric};
use tsn::graph::{generators, metrics};
use tsn::reputation::{MechanismKind, SelectionPolicy};
use tsn::simnet::SimRng;

fn small(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::small().seed(seed)
}

#[test]
fn simulator_graph_and_scenario_compose() {
    // The simulator's RNG drives the graph generator; the scenario
    // builds on both (indirectly). Smoke the full chain.
    let mut rng = SimRng::seed_from_u64(2);
    let g = generators::barabasi_albert(200, 3, &mut rng).unwrap();
    assert!(g.is_connected());
    assert!(metrics::average_path_length(&g, 30, &mut rng).unwrap() < 4.0);

    let outcome = small(3).run().unwrap();
    assert!(outcome.interactions > 0);
    assert!(outcome.messages > outcome.interactions);
}

#[test]
fn scenario_outcome_is_fully_reproducible() {
    let a = small(11).run().unwrap();
    let b = small(11).run().unwrap();
    assert_eq!(a.global_trust, b.global_trust);
    assert_eq!(a.per_user_trust, b.per_user_trust);
    assert_eq!(a.user_breaches, b.user_breaches);
    assert_eq!(a.system_breaches, b.system_breaches);
    assert_eq!(a.samples.len(), b.samples.len());
    for (sa, sb) in a.samples.iter().zip(&b.samples) {
        assert_eq!(sa, sb);
    }
}

#[test]
fn permissive_and_mixed_scenarios_agree_on_mechanism_quality() {
    // The A1 setting: permissive policies, so no request is denied and
    // every interaction feeds the mechanism.
    let permissive = |mechanism, selection, malicious, rounds, seed| {
        ScenarioBuilder::new()
            .nodes(60)
            .rounds(rounds)
            .policy_profile(PolicyProfile::Permissive)
            .malicious_fraction(malicious)
            .mechanism(mechanism)
            .selection(selection)
            .seed(seed)
            .run()
            .unwrap()
    };
    let proportional = SelectionPolicy::Proportional { sharpness: 2.0 };
    let beta = permissive(MechanismKind::Beta, proportional, 0.3, 20, 4);
    assert!(beta.power.consistency > 0.6);
    assert!(beta.power.reliability > 0.7);

    // Reputation beats no reputation on honest-consumer success under
    // heavy attack, averaged over seeds so one lucky random-selection
    // run cannot decide it.
    let mean = |mechanism, selection| {
        (0..3)
            .map(|seed| permissive(mechanism, selection, 0.4, 25, 100 + seed).honest_success_rate)
            .sum::<f64>()
            / 3.0
    };
    let with = mean(MechanismKind::EigenTrust, proportional);
    let without = mean(MechanismKind::None, SelectionPolicy::Random);
    assert!(with > without + 0.03, "eigentrust {with} vs none {without}");

    // The figure setting (mixed policies) agrees.
    let scenario = small(4)
        .mechanism(MechanismKind::Beta)
        .malicious_fraction(0.3)
        .run()
        .unwrap();
    assert!(scenario.facets.reputation > 0.5);
}

#[test]
fn optimizer_finds_trust_improving_settings() {
    let base = ScenarioBuilder::new()
        .nodes(24)
        .rounds(6)
        .graph(4, 0.1)
        .build()
        .unwrap();
    let mut optimizer = Optimizer::new(base.clone(), TrustMetric::default()).unwrap();
    optimizer.seeds_per_point = 1;
    let sweep = optimizer.sweep();
    let best = optimizer.best(&sweep, None);
    // The optimum must be at least as good as the base point itself.
    let base_point = optimizer.evaluate(
        base.mechanism,
        base.disclosure_level,
        base.policy_profile,
        base.selection,
    );
    assert!(best.best.trust >= base_point.trust - 1e-9);
}

#[test]
fn facade_prelude_reexports_work() {
    use tsn::prelude::*;
    let outcome = ScenarioBuilder::small().run().unwrap();
    let metric = TrustMetric::default();
    let recomputed = metric.trust(&outcome.facets);
    assert!((recomputed - outcome.global_trust).abs() < 1e-12);
}
