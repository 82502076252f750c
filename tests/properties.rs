//! Property-based tests on the workspace's core invariants.
//!
//! The build environment has no crates.io access, so instead of
//! `proptest` these use the workspace's own deterministic [`SimRng`] to
//! sample each property over many random cases — same invariants,
//! reproducible counterexamples (the failing case index and inputs are
//! in the assertion message).

use tsn::core::{Aggregator, FacetScores, FacetWeights, TrustMetric};
use tsn::graph::{generators, metrics};
use tsn::privacy::enforcement::RequestContext;
use tsn::privacy::{AccessRequest, DataCategory, Enforcer, Operation, PrivacyPolicy, Purpose};
use tsn::reputation::{
    BetaReputation, DisclosurePolicy, FeedbackReport, InteractionOutcome, ReputationMechanism,
    SelectionPolicy, SelectionScratch,
};
use tsn::satisfaction::aggregate::{gini_coefficient, GlobalSatisfaction};
use tsn::satisfaction::SatisfactionTracker;
use tsn::simnet::{NodeId, SimRng, SimTime};

const CASES: usize = 128;

fn rng_for(test: u64) -> SimRng {
    SimRng::seed_from_u64(0x5EED_0000 + test)
}

/// Trust is always in [0,1] and monotone in each facet, for every
/// aggregator.
#[test]
fn trust_metric_bounded_and_monotone() {
    let mut rng = rng_for(1);
    let aggregators = [
        Aggregator::Arithmetic,
        Aggregator::Geometric,
        Aggregator::Minimum,
        Aggregator::PowerMean(2.0),
    ];
    for case in 0..CASES {
        let (p, r, s) = (rng.gen_f64(), rng.gen_f64(), rng.gen_f64());
        let bump = 0.01 + rng.gen_f64() * 0.49;
        let aggregator = *rng.choose(&aggregators).unwrap();
        let metric = TrustMetric::new(FacetWeights::default(), aggregator).unwrap();
        let facets = FacetScores::new(p, r, s).unwrap();
        let t = metric.trust(&facets);
        assert!(
            (0.0..=1.0).contains(&t),
            "case {case}: trust {t} out of range"
        );
        // Monotone: bumping any facet never lowers trust.
        for bumped in [
            FacetScores::new((p + bump).min(1.0), r, s).unwrap(),
            FacetScores::new(p, (r + bump).min(1.0), s).unwrap(),
            FacetScores::new(p, r, (s + bump).min(1.0)).unwrap(),
        ] {
            assert!(
                metric.trust(&bumped) >= t - 1e-12,
                "case {case}: bump lowered trust for {aggregator:?} at ({p},{r},{s})"
            );
        }
    }
}

/// Geometric trust never exceeds arithmetic trust (AM–GM), and the
/// minimum lower-bounds the geometric mean.
#[test]
fn am_gm_inequality() {
    let mut rng = rng_for(2);
    let geo = TrustMetric::new(FacetWeights::default(), Aggregator::Geometric).unwrap();
    let ari = TrustMetric::new(FacetWeights::default(), Aggregator::Arithmetic).unwrap();
    let min = TrustMetric::new(FacetWeights::default(), Aggregator::Minimum).unwrap();
    for case in 0..CASES {
        let facets = FacetScores::new(rng.gen_f64(), rng.gen_f64(), rng.gen_f64()).unwrap();
        assert!(
            geo.trust(&facets) <= ari.trust(&facets) + 1e-12,
            "case {case}: AM-GM violated at {facets:?}"
        );
        assert!(
            min.trust(&facets) <= geo.trust(&facets) + 1e-12,
            "case {case}: min above geometric at {facets:?}"
        );
    }
}

/// The disclosure ladder's exposure is strictly monotone and the view
/// never reveals a field the policy withholds.
#[test]
fn disclosure_ladder_monotone_and_sound() {
    let mut rng = rng_for(3);
    for case in 0..CASES {
        let level = rng.gen_range(0..5usize);
        let policy = DisclosurePolicy::ladder(level);
        if level > 0 {
            assert!(
                policy.exposure() > DisclosurePolicy::ladder(level - 1).exposure(),
                "case {case}: exposure not monotone at level {level}"
            );
        }
        let report = FeedbackReport {
            rater: NodeId(rng.gen_range(0..100u32)),
            ratee: NodeId(rng.gen_range(0..100u32)),
            outcome: InteractionOutcome::Success {
                quality: rng.gen_f64(),
            },
            topic: Some(3),
            at: SimTime::from_secs(9),
        };
        let view = policy.view(&report);
        assert_eq!(view.rater.is_some(), policy.rater_identity);
        assert_eq!(view.quality.is_some(), policy.outcome_detail);
        assert_eq!(view.topic.is_some(), policy.topic);
        assert_eq!(view.at.is_some(), policy.timestamp);
        assert_eq!(view.ratee, report.ratee);
    }
}

/// Beta reputation scores stay in (0,1) and equal the exact posterior
/// mean.
#[test]
fn beta_scores_bounded_and_directional() {
    let mut rng = rng_for(4);
    for case in 0..CASES {
        let good = rng.gen_range(0..40u32);
        let bad = rng.gen_range(0..40u32);
        let mut m = BetaReputation::new(2).without_credibility_weighting();
        let full = DisclosurePolicy::full();
        for _ in 0..good {
            m.record(&full.view(&FeedbackReport {
                rater: NodeId(0),
                ratee: NodeId(1),
                outcome: InteractionOutcome::Success { quality: 1.0 },
                topic: None,
                at: SimTime::ZERO,
            }));
        }
        for _ in 0..bad {
            m.record(&full.view(&FeedbackReport {
                rater: NodeId(0),
                ratee: NodeId(1),
                outcome: InteractionOutcome::Failure,
                topic: None,
                at: SimTime::ZERO,
            }));
        }
        let s = m.score(NodeId(1));
        assert!(s > 0.0 && s < 1.0, "case {case}: score {s} out of (0,1)");
        let expected = (good as f64 + 1.0) / ((good + bad) as f64 + 2.0);
        assert!(
            (s - expected).abs() < 1e-9,
            "case {case}: {good}+/{bad}- gave {s}, expected {expected}"
        );
    }
}

/// Selection policies always pick a member of the candidate set.
#[test]
fn selection_always_picks_a_candidate() {
    let mut rng = rng_for(5);
    let mut scratch = SelectionScratch::default();
    for case in 0..CASES {
        let k = rng.gen_range(1..20usize);
        let candidates: Vec<NodeId> = (0..k as u32).map(NodeId).collect();
        let policy = *rng.choose(&SelectionPolicy::SWEEP).unwrap();
        let chosen = policy
            .select_with(
                &candidates,
                |n| (n.0 as f64 + 1.0) / (k as f64 + 1.0),
                &mut rng,
                &mut scratch,
            )
            .unwrap();
        assert!(
            candidates.contains(&chosen),
            "case {case}: {chosen:?} not a candidate"
        );
    }
}

/// Selecting through a table of precomputed weights — the scenario
/// engine's per-round path — picks the same candidate and consumes the
/// same draws as scoring each candidate on the spot, for every policy
/// and for scores that are negative, zero, NaN or infinite.
#[test]
fn weighted_selection_matches_scored_selection() {
    let mut rng = rng_for(24);
    let palette = [
        -1.0,
        -0.0,
        0.0,
        0.25,
        0.5,
        1.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let mut scratch_a = SelectionScratch::default();
    let mut scratch_b = SelectionScratch::default();
    for case in 0..CASES * 4 {
        let nodes = rng.gen_range(1..40usize);
        let scores: Vec<f64> = (0..nodes)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    *rng.choose(&palette).unwrap()
                } else {
                    rng.gen_f64()
                }
            })
            .collect();
        // A random candidate multiset in random order, possibly empty.
        let k = rng.gen_range(0..nodes + 1);
        let candidates: Vec<NodeId> = (0..k)
            .map(|_| NodeId::from_index(rng.gen_range(0..nodes)))
            .collect();
        let score = |n: NodeId| scores[n.index()];
        for policy in SelectionPolicy::SWEEP {
            let table: Vec<f64> = scores.iter().map(|&s| policy.weight(s)).collect();
            let seed = rng.next_u64();
            let mut rng_a = SimRng::seed_from_u64(seed);
            let mut rng_b = SimRng::seed_from_u64(seed);
            let a = policy.select_with(&candidates, score, &mut rng_a, &mut scratch_a);
            let b = policy.select_weighted(
                &candidates,
                |n| table[n.index()],
                &mut rng_b,
                &mut scratch_b,
            );
            assert_eq!(a, b, "case {case}: {policy:?} on {scores:?}");
            assert_eq!(
                rng_a.next_u64(),
                rng_b.next_u64(),
                "case {case}: {policy:?} consumed different draws"
            );
        }
    }
}

/// Graph generators produce simple graphs with consistent degree
/// accounting, and BFS distances satisfy the triangle property along
/// edges.
#[test]
fn graph_invariants() {
    let mut rng = rng_for(6);
    for case in 0..24 {
        let n = rng.gen_range(10..60usize);
        let m = rng.gen_range(1..4usize);
        let g = generators::barabasi_albert(n, m, &mut rng).unwrap();
        // Handshake lemma.
        let degree_sum: usize = metrics::degree_sequence(&g).iter().sum();
        assert_eq!(degree_sum, 2 * g.edge_count(), "case {case}");
        // No self-loops, symmetric adjacency.
        for v in g.nodes() {
            assert!(!g.has_edge(v, v), "case {case}: self-loop at {v:?}");
            for &u in g.neighbors(v) {
                assert!(
                    g.has_edge(u, v),
                    "case {case}: asymmetric edge {v:?}->{u:?}"
                );
            }
        }
        // BFS: adjacent nodes' distances differ by at most 1.
        let dist = g.bfs_distances(NodeId(0));
        for (a, b) in g.edges() {
            if let (Some(da), Some(db)) = (dist[a.index()], dist[b.index()]) {
                assert!(da.abs_diff(db) <= 1, "case {case}: BFS triangle violated");
            }
        }
    }
}

/// Watts–Strogatz keeps the edge count invariant under rewiring.
#[test]
fn ws_rewiring_preserves_edges() {
    let mut rng = rng_for(7);
    for case in 0..32 {
        let beta = rng.gen_f64();
        let g = generators::watts_strogatz(40, 6, beta, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 40 * 6 / 2, "case {case} at beta {beta}");
        assert!(g.nodes().all(|v| g.degree(v) < 40), "case {case}");
    }
}

/// Satisfaction trackers remain in [0,1] under arbitrary inputs and
/// count every observation.
#[test]
fn satisfaction_tracker_bounded() {
    let mut rng = rng_for(8);
    for case in 0..CASES {
        let rate = 0.01 + rng.gen_f64() * 0.99;
        let len = rng.gen_range(1..200usize);
        let mut t = SatisfactionTracker::new(rate);
        for _ in 0..len {
            t.observe(rng.gen_f64());
            assert!(
                (0.0..=1.0).contains(&t.satisfaction()),
                "case {case}: satisfaction escaped [0,1]"
            );
        }
        assert_eq!(t.observations(), len as u64, "case {case}");
    }
}

/// Gini is in [0,1) and zero for constant populations; Jain in (0,1];
/// fairness discount never exceeds the mean.
#[test]
fn fairness_measures_bounded() {
    let mut rng = rng_for(9);
    for case in 0..CASES {
        let len = rng.gen_range(1..100usize);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_f64()).collect();
        let gini = gini_coefficient(&values);
        assert!(
            (0.0..1.0).contains(&gini) || gini.abs() < 1e-9,
            "case {case}: gini {gini} out of range"
        );
        let g = GlobalSatisfaction::from_values(&values).unwrap();
        assert!(
            g.jain_index > 0.0 && g.jain_index <= 1.0 + 1e-12,
            "case {case}"
        );
        assert!(g.fairness_discounted() <= g.mean + 1e-12, "case {case}");
        assert!(g.min <= g.mean + 1e-12, "case {case}");
    }
}

/// Enforcement soundness: a grant implies every policy clause was
/// satisfied.
#[test]
fn enforcement_grants_are_sound() {
    let mut rng = rng_for(10);
    for case in 0..CASES {
        let distance = if rng.gen_bool(0.2) {
            None
        } else {
            Some(rng.gen_range(1..6u32))
        };
        let trust = rng.gen_f64();
        let min_trust = rng.gen_f64();
        let friends_only = rng.gen_bool(0.5);
        let mut builder = PrivacyPolicy::builder(DataCategory::Content)
            .allow_operations([Operation::Read])
            .allow_purposes([Purpose::Social])
            .min_trust_level(min_trust);
        if friends_only {
            builder = builder.condition(tsn::privacy::AccessCondition::FriendsOnly);
        }
        let policy = builder.build().unwrap();
        let request = AccessRequest {
            requester: NodeId(1),
            owner: NodeId(0),
            operation: Operation::Read,
            purpose: Purpose::Social,
        };
        let ctx = RequestContext {
            social_distance: distance,
            requester_trust: trust,
        };
        let decision = Enforcer::new().decide(&request, &policy, &ctx);
        if decision.is_granted() {
            assert!(trust >= min_trust, "case {case}: granted below min trust");
            if friends_only {
                assert_eq!(distance, Some(1), "case {case}: granted beyond friends");
            }
        }
    }
}

/// Deterministic replay: the same seed gives the same RNG stream
/// through fork trees.
#[test]
fn rng_fork_determinism() {
    let mut rng = rng_for(11);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let label = rng.next_u64();
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        let mut fa = a.fork(label);
        let mut fb = b.fork(label);
        for _ in 0..8 {
            assert_eq!(fa.next_u64(), fb.next_u64(), "case {case}: fork diverged");
        }
    }
}

/// Power-mean trust always lies between the weakest and strongest facet
/// (generalized-mean bounds).
#[test]
fn power_mean_respects_bounds() {
    let mut rng = rng_for(12);
    let exponents = [-4.0, -1.0, 0.5, 1.0, 3.0];
    for case in 0..CASES {
        let (p, r, s) = (rng.gen_f64(), rng.gen_f64(), rng.gen_f64());
        let exponent = *rng.choose(&exponents).unwrap();
        let facets = FacetScores::new(p, r, s).unwrap();
        let metric =
            TrustMetric::new(FacetWeights::default(), Aggregator::PowerMean(exponent)).unwrap();
        let t = metric.trust(&facets);
        let lo = p.min(r).min(s);
        let hi = p.max(r).max(s);
        assert!(
            t >= lo - 1e-9,
            "case {case}: trust {t} below min facet {lo}"
        );
        assert!(
            t <= hi + 1e-9,
            "case {case}: trust {t} above max facet {hi}"
        );
    }
}

/// Contiguous group maps partition the node range completely.
#[test]
fn group_map_partitions_everything() {
    use tsn::simnet::GroupMap;
    let mut rng = rng_for(13);
    for case in 0..CASES {
        let n = rng.gen_range(1..200usize);
        let k = rng.gen_range(1..10usize);
        let map = GroupMap::contiguous(n, k);
        assert_eq!(map.len(), n, "case {case}");
        for i in 0..n {
            let g = map.group(NodeId::from_index(i));
            assert!(usize::from(g) < k.min(n).max(1) + 1, "case {case}");
        }
        for i in 0..n.min(20) {
            let a = NodeId::from_index(i);
            assert!(map.same_group(a, a), "case {case}");
        }
    }
}

/// The O(n log n) balanced-detection-accuracy sweep is bit-identical to
/// a naive O(n²) per-threshold rescan — on random inputs with heavy
/// ties, signed zeros, infinities and NaN scores. (A NaN score can
/// never satisfy `score <= threshold`, so NaN samples always count on
/// the unflagged side — the reference spells that semantics out with
/// plain comparisons.)
#[test]
fn detection_accuracy_matches_naive_rescan_with_nan_and_ties() {
    use tsn::reputation::accuracy::balanced_detection_accuracy;

    fn naive(scores: &[f64], adversarial: &[bool]) -> f64 {
        let positives = adversarial.iter().filter(|&&a| a).count();
        let negatives = adversarial.len() - positives;
        if positives == 0 || negatives == 0 {
            return 0.5;
        }
        let mut thresholds: Vec<f64> = scores.iter().copied().filter(|s| !s.is_nan()).collect();
        thresholds.sort_by(f64::total_cmp);
        thresholds.dedup_by(|a, b| a == b); // -0.0 == 0.0: one threshold
        let mut best: f64 = 0.5;
        for &t in &thresholds {
            let tp = scores
                .iter()
                .zip(adversarial)
                .filter(|&(s, &adv)| adv && *s <= t)
                .count();
            let tn = scores
                .iter()
                .zip(adversarial)
                // "not flagged" = not (score <= t); spelled via
                // partial_cmp so the NaN case (incomparable → not
                // flagged) is explicit.
                .filter(|&(s, &adv)| {
                    !adv && !matches!(
                        s.partial_cmp(&t),
                        Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                    )
                })
                .count();
            let bal = (tp as f64 / positives as f64 + tn as f64 / negatives as f64) / 2.0;
            best = best.max(bal);
        }
        best
    }

    let mut rng = rng_for(17);
    for case in 0..CASES {
        let n = 2 + (case % 37);
        let scores: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..12u32) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                4 => 0.0,
                // Coarse quantization forces heavy ties.
                _ => (rng.gen_range(0..6u32) as f64) / 6.0,
            })
            .collect();
        let adversarial: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.35)).collect();
        let fast = balanced_detection_accuracy(&scores, &adversarial);
        let slow = naive(&scores, &adversarial);
        assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "case {case}: scores {scores:?} adversarial {adversarial:?}"
        );
        assert!((0.5..=1.0).contains(&fast), "case {case}: {fast}");
    }

    // All-NaN scores: no thresholds at all, chance accuracy.
    assert_eq!(
        balanced_detection_accuracy(&[f64::NAN, f64::NAN], &[true, false]),
        0.5
    );
}

/// Membership view invariants survive arbitrary churn and partitions:
/// no view ever holds its owner or a duplicate peer, never exceeds its
/// capacity, and entry ages stay bounded by the worst-case travel chain
/// (one aging step at the holder plus one per exchange hop, of which a
/// round has at most n).
#[test]
fn membership_views_keep_invariants_under_random_churn() {
    use tsn::simnet::{GroupMap, MembershipConfig, MembershipRuntime, NodeId};

    let mut rng = rng_for(23);
    for case in 0..24 {
        let n = 8 + rng.gen_range(0..56u32) as usize;
        let view_size = 1 + rng.gen_range(0..12u32) as usize;
        let config = MembershipConfig {
            view_size,
            relays: 1 + rng.gen_range(0..(n.min(4)) as u32) as usize,
        };
        config.validate().expect("generated config in-range");
        let mut runtime =
            MembershipRuntime::new(n, config, 0xC0FFEE ^ case).expect("valid runtime");
        let rounds = 1 + rng.gen_range(0..40u32) as u64;
        for round in 0..rounds {
            // Random liveness each round; a coin-flip two-group
            // partition half the time.
            let alive: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.8)).collect();
            let partitioned = rng.gen_bool(0.5);
            let groups: Vec<u16> = (0..n).map(|_| rng.gen_range(0..2u32) as u16).collect();
            let map = GroupMap::new(groups);
            runtime.shuffle_round(
                |p| alive[p.index()],
                |a, b| !partitioned || map.same_group(a, b),
            );
            for owner in 0..n {
                let view = runtime.view(NodeId::from_index(owner));
                assert!(view.len() <= view_size, "case {case}: over capacity");
                let mut seen = vec![false; n];
                for entry in view.entries() {
                    assert_ne!(
                        entry.peer.index(),
                        owner,
                        "case {case}: view holds its owner"
                    );
                    assert!(
                        !seen[entry.peer.index()],
                        "case {case}: duplicate peer in view"
                    );
                    seen[entry.peer.index()] = true;
                    assert!(
                        u64::from(entry.age) <= (round + 1) * (n as u64 + 1),
                        "case {case}: age {} after {} rounds of {} exchanges",
                        entry.age,
                        round + 1,
                        n
                    );
                }
            }
        }
    }
}
