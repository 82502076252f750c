//! Cross-crate integration: the full pipeline from substrates to trust.

use tsn::core::runner::ScenarioBuilder;
use tsn::core::{Optimizer, TrustMetric};
use tsn::graph::{generators, metrics};
use tsn::reputation::{testbed::run_testbed, MechanismKind, PopulationConfig, TestbedConfig};
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
fn testbed_and_scenario_agree_on_mechanism_quality() {
    // Both drivers should agree that reputation helps under attack.
    let testbed = run_testbed(TestbedConfig {
        nodes: 60,
        rounds: 20,
        population: PopulationConfig::with_malicious(0.3),
        mechanism: MechanismKind::Beta,
        seed: 4,
        ..Default::default()
    })
    .unwrap();
    assert!(testbed.power.consistency > 0.6);

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
