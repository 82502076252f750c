//! The paper's qualitative claims, verified end-to-end at test scale.
//! (The `tsn-bench` binaries regenerate the same artefacts at full scale;
//! these tests pin the *signs* so regressions are caught by `cargo test`.)

use tsn::core::dynamics::{DynamicsConfig, DynamicsState, InteractionDynamics};
use tsn::core::runner::{DisclosureLevel, ScenarioBuilder};
use tsn::core::{FacetScores, Optimizer, TrustMetric};
use tsn::graph::metrics::spearman;

fn base(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .nodes(50)
        .rounds(14)
        .seed(seed)
        .malicious_fraction(0.25)
}

fn mean<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// Figure 1: satisfaction and trust co-move (positive link).
#[test]
fn fig1_satisfaction_trust_link_is_positive() {
    // Across populations of varying service quality (threat level and
    // disclosure held fixed), mean satisfaction and mean trust co-move:
    // worse service makes users both less satisfied and less trusting.
    // The two knobs held fixed each move trust through *another* facet
    // regardless of satisfaction — disclosure through privacy (the
    // Figure-2 trade-off) and the adversary share through reputation
    // (detection is degenerate at 0% malice) — so varying them would
    // test those couplings, not this link.
    let mut sats = Vec::new();
    let mut trusts = Vec::new();
    for seed in 0..12 {
        let o = base(100 + seed)
            .population(tsn::reputation::PopulationConfig {
                malicious: 0.25,
                honest_quality: 0.5 + 0.04 * (seed % 11) as f64,
                ..Default::default()
            })
            .run()
            .unwrap();
        sats.push(o.facets.satisfaction);
        trusts.push(o.global_trust);
    }
    let rho = spearman(&sats, &trusts).unwrap();
    assert!(rho > 0.5, "satisfaction↔trust Spearman {rho}");
}

/// Figure 2 (right), claim 1: privacy facet decreases with shared info.
#[test]
fn fig2_privacy_decreases_with_disclosure() {
    let facet = |level: DisclosureLevel| {
        mean((0..3).map(|s| {
            base(200 + s)
                .disclosure(level)
                .run()
                .unwrap()
                .facets
                .privacy
        }))
    };
    let lo = facet(DisclosureLevel::Minimal);
    let mid = facet(DisclosureLevel::Timestamped);
    let hi = facet(DisclosureLevel::Full);
    assert!(
        lo > mid && mid > hi,
        "privacy must fall along the ladder: {lo} {mid} {hi}"
    );
}

/// Figure 2 (right), claim 2: reputation power increases with shared info.
#[test]
fn fig2_reputation_increases_with_disclosure() {
    let facet = |level: DisclosureLevel| {
        mean((0..4).map(|s| {
            base(300 + s)
                .disclosure(level)
                .run()
                .unwrap()
                .facets
                .reputation
        }))
    };
    let lo = facet(DisclosureLevel::Minimal);
    let hi = facet(DisclosureLevel::Full);
    assert!(
        hi > lo + 0.05,
        "reputation power must rise with disclosure: {lo} -> {hi}"
    );
}

/// Figure 2 (right), claim 3: the same global satisfaction is reachable
/// from different settings.
#[test]
fn fig2_iso_satisfaction_from_multiple_settings() {
    // Sweep the grid; look for two far-apart configs with near-equal
    // satisfaction facet.
    let mut points = Vec::new();
    for level in DisclosureLevel::ALL {
        for (mech_i, mechanism) in [
            tsn::reputation::MechanismKind::Beta,
            tsn::reputation::MechanismKind::EigenTrust,
        ]
        .into_iter()
        .enumerate()
        {
            let o = base(400)
                .disclosure(level)
                .mechanism(mechanism)
                .run()
                .unwrap();
            points.push((level.index(), mech_i, o.facets.satisfaction));
        }
    }
    let found = points.iter().any(|&(l1, m1, s1)| {
        points.iter().any(|&(l2, m2, s2)| {
            (l1 as i32 - l2 as i32).abs() >= 2 && (m1 != m2 || l1 != l2) && (s1 - s2).abs() < 0.05
        })
    });
    assert!(found, "no iso-satisfaction pair found in {points:?}");
}

/// Figure 2 (left): Area A is non-empty but a strict subset.
#[test]
fn fig2_area_a_nonempty_strict_subset() {
    let base_cfg = ScenarioBuilder::new()
        .nodes(24)
        .rounds(6)
        .graph(4, 0.1)
        .build()
        .unwrap();
    let mut optimizer = Optimizer::new(base_cfg, TrustMetric::default()).unwrap();
    optimizer.seeds_per_point = 1;
    let sweep = optimizer.sweep();
    let report = optimizer.area_report(&sweep, FacetScores::new(0.5, 0.55, 0.3).unwrap());
    assert!(report.area_a > 0, "Area A must be reachable");
    assert!(
        report.area_a < report.total,
        "Area A must exclude some configs"
    );
    assert!(report.area_a <= report.privacy_region.min(report.reputation_region));
}

/// E4: an efficient mechanism judging the majority untrustworthy leaves
/// trust low even though feedback volume persists.
#[test]
fn e4_hostile_majority_low_trust_despite_feedback() {
    let o = base(500)
        .malicious_fraction(0.7)
        .disclosure(DisclosureLevel::Full)
        .rounds(16)
        .run()
        .unwrap();
    // Feedback volume persists to the last round...
    assert!(o.samples.last().unwrap().reports_filed > 0);
    // ...yet satisfaction (and hence trust) is depressed relative to an
    // honest world.
    let o_honest = base(500)
        .malicious_fraction(0.0)
        .disclosure(DisclosureLevel::Full)
        .rounds(16)
        .run()
        .unwrap();
    assert!(
        o.global_trust < o_honest.global_trust - 0.05,
        "hostile {} vs honest {}",
        o.global_trust,
        o_honest.global_trust
    );
}

/// E5: less trust → less disclosure (adaptive users retract willingness).
#[test]
fn e5_distrust_reduces_disclosure() {
    let run = |adaptive: bool| {
        mean((0..3).map(|s| {
            base(600 + s)
                .malicious_fraction(0.5)
                .leak_probability(0.8)
                .disclosure(DisclosureLevel::Full)
                .adaptive_disclosure(adaptive)
                .rounds(18)
                .run()
                .unwrap()
                .mean_willingness
        }))
    };
    assert!(
        run(true) < run(false),
        "adaptive distrust must retract disclosure"
    );
}

/// The analytic dynamics reproduce every Figure-1 edge sign.
#[test]
fn dynamics_edge_signs() {
    let d = InteractionDynamics::default();
    let s = DynamicsState::neutral();
    for (src, dst) in [
        ("satisfaction", "trust"),
        ("reputation", "trust"),
        ("reputation", "satisfaction"),
        ("disclosure", "reputation"),
        ("trust", "disclosure"),
        ("privacy", "satisfaction"),
    ] {
        assert!(
            d.coupling_sign(&s, src, dst) > 0.0,
            "{src}->{dst} must be positive"
        );
    }
    assert!(d.coupling_sign(&s, "disclosure", "privacy") < 0.0);
}

/// The analytic system converges from every corner of the state space.
#[test]
fn dynamics_global_convergence() {
    let d = InteractionDynamics::new(DynamicsConfig::default());
    let corners = [0.0, 1.0];
    let mut fixed_points = Vec::new();
    for &t in &corners {
        for &s in &corners {
            for &r in &corners {
                let start = DynamicsState {
                    trust: t,
                    satisfaction: s,
                    reputation_efficiency: r,
                    disclosure: 1.0 - t,
                    privacy: 1.0 - s,
                };
                let (fp, steps) = d.fixed_point(start, 1e-9, 20_000);
                assert!(steps < 20_000, "must converge from {start:?}");
                fixed_points.push(fp);
            }
        }
    }
    // All corners converge to the same attractor.
    for fp in &fixed_points[1..] {
        assert!(
            fp.distance(&fixed_points[0]) < 1e-6,
            "unique attractor expected"
        );
    }
}

/// The peer-sampling substrate: the paper's gossip model assumes each
/// user can interact with a partner drawn *uniformly* from the live
/// population, yet real deployments only ever hold bounded partial
/// views. The membership overlay closes that gap — this test pins the
/// claim that partner draws from shuffled partial views are
/// statistically indistinguishable from uniform sampling (chi-square
/// over the population, generous threshold to absorb the view's
/// round-to-round correlation).
#[test]
fn peer_sampling_from_shuffled_views_is_uniform() {
    use tsn::simnet::{MembershipConfig, MembershipRuntime, NodeId, SimRng};

    let n = 32usize;
    let config = MembershipConfig {
        view_size: 8,
        relays: 3,
    };
    let mut runtime = MembershipRuntime::new(n, config, 0x9E37).expect("valid overlay");
    let mut draw_rng = SimRng::seed_from_u64(0x517C_C1B7);
    let mut counts = vec![0u64; n];
    let burn_in = 64;
    let rounds = 64 + 500;
    let mut draws = 0u64;
    for round in 0..rounds {
        runtime.shuffle_round(|_| true, |_, _| true);
        if round < burn_in {
            continue; // let the relay-seeded initial views mix first
        }
        for observer in 0..n {
            if let Some(peer) = runtime
                .view(NodeId::from_index(observer))
                .sample(&mut draw_rng)
            {
                counts[peer.index()] += 1;
                draws += 1;
            }
        }
    }
    // Every ordered pair is equally likely under uniformity, so every
    // target should collect draws/n of the mass (each node is a valid
    // target for the n-1 others; the slight self-exclusion asymmetry
    // is identical across targets).
    let expected = draws as f64 / n as f64;
    let chi2: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    // df = n-1 = 31: mean 31, std ~7.9 for i.i.d. draws. Views are
    // correlated across rounds, which inflates the statistic; 3x the
    // df still rejects gross bias (a dead cell alone adds ~expected
    // ≈ 500 to the statistic).
    assert!(
        chi2 < 3.0 * (n as f64 - 1.0),
        "partner draws deviate from uniform: chi2 = {chi2:.1} over {draws} draws, counts {counts:?}"
    );
    // And no peer is starved or hoarded outright.
    let min = *counts.iter().min().expect("nonempty");
    let max = *counts.iter().max().expect("nonempty");
    assert!(
        (min as f64) > 0.5 * expected && (max as f64) < 1.5 * expected,
        "peer draw counts outside [0.5, 1.5]x expected: min {min}, max {max}, expected {expected:.0}"
    );
}
