//! Integration contract of the peer-sampling membership overlay
//! (DESIGN.md §15).
//!
//! The overlay replaces global partner selection with bounded partial
//! views refreshed by view shuffling. These tests pin the contract that
//! the refactor must keep:
//!
//! * view-constrained selection is shard-count invariant (1 = 2 = 8
//!   shards, bit-identical);
//! * a relay-outage run is deterministic: a fresh replay of the same
//!   `(config, seed)` reproduces every float bit-for-bit;
//! * consumers whose whole view is unreachable are counted in the
//!   `isolated` round series instead of panicking or resampling, and
//!   membership-off runs never report isolation;
//! * every peer flows through every view within O(log n) shuffle
//!   rounds (temporal coverage — the dissemination half of uniformity).

use tsn_core::json::format_f64;
use tsn_core::runner::ScenarioBuilder;
use tsn_core::scenario::ScenarioOutcome;
use tsn_simnet::{
    DynamicsPlan, MembershipConfig, MembershipRuntime, NodeId, SimRng, SimTime,
    MEMBERSHIP_SEED_SALT,
};

/// Bit-exact text form of the outcome floats plus the per-round series
/// the overlay feeds (`availability`, `partition_health`, `isolated`).
fn fingerprint(o: &ScenarioOutcome) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "facets {} {} {} trust {}\n",
        format_f64(o.facets.privacy),
        format_f64(o.facets.reputation),
        format_f64(o.facets.satisfaction),
        format_f64(o.global_trust),
    ));
    s.push_str(&format!(
        "counts interactions={} messages={} user_breaches={} system_breaches={} whitewashes={}\n",
        o.interactions, o.messages, o.user_breaches, o.system_breaches, o.whitewashes
    ));
    for v in &o.per_user_trust {
        s.push_str(&format!("t {}\n", format_f64(*v)));
    }
    for r in &o.samples {
        s.push_str(&format!(
            "round {} {} {} {} {} {}\n",
            r.round,
            format_f64(r.mean_trust),
            format_f64(r.mean_satisfaction),
            format_f64(r.availability),
            format_f64(r.partition_health),
            r.isolated,
        ));
    }
    s
}

/// A small overlay so views actually constrain choice: 50 nodes each
/// seeing at most 6 peers, refreshed 3 entries per round.
fn overlay() -> MembershipConfig {
    MembershipConfig {
        view_size: 6,
        relays: 3,
    }
}

fn base() -> ScenarioBuilder {
    ScenarioBuilder::small()
        .seed(9301)
        .malicious_fraction(0.2)
        .membership(overlay())
}

#[test]
fn view_constrained_selection_is_shard_count_invariant() {
    // The shuffle finishes before the phase with a result independent
    // of the worker count, and the shard phase reads a frozen snapshot
    // of the views, so the shard count must not leak into any float or
    // counter.
    let reference = fingerprint(&base().shards(1).run().expect("valid"));
    for shards in [2usize, 8] {
        let outcome = base().shards(shards).run().expect("valid");
        assert_eq!(
            reference,
            fingerprint(&outcome),
            "{shards} shards diverged from 1 shard under the membership overlay"
        );
    }
}

#[test]
fn relay_outage_run_replays_bit_identical() {
    // Kill the overlay's three relay slots mid-run (rounds 4..=9 of
    // 16, at one hour per round), so views that decay to empty cannot
    // re-bootstrap — then assert a fresh run replays bit-for-bit.
    let build = || {
        base()
            .rounds(16)
            .dynamics(DynamicsPlan::relay_outage(
                3,
                SimTime::from_secs(4 * 3600),
                SimTime::from_secs(10 * 3600),
            ))
            .run()
            .expect("valid config")
    };
    let a = build();
    let b = build();
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "relay-outage run is not reproducible"
    );
    // The outage is visible: some nodes went offline, so availability
    // dips below 1 somewhere in the run.
    assert!(
        a.samples.iter().any(|r| r.availability < 1.0),
        "relay outage left no trace in availability"
    );
}

#[test]
fn unreachable_views_are_counted_isolated() {
    // Tight views plus heavy churn: some consumer's entire 4-peer view
    // is offline in some round, which must surface as `isolated` —
    // a deterministic skip, not a panic and not a fallback draw from
    // the global population.
    let outcome = ScenarioBuilder::small()
        .seed(9307)
        .rounds(24)
        .churn(0.5)
        .membership(MembershipConfig {
            view_size: 4,
            relays: 2,
        })
        .run()
        .expect("valid config");
    let total: u64 = outcome.samples.iter().map(|r| r.isolated).sum();
    assert!(
        total > 0,
        "expected at least one isolated consumer under view_size=4, churn=0.5"
    );
    // Isolation skips attempts; the run still makes progress overall.
    assert!(outcome.interactions > 0);
}

#[test]
fn membership_off_runs_never_report_isolation() {
    // Without the overlay every consumer sees the full (connected)
    // graph neighborhood, and offline providers alone never empty it
    // at this scale: the `isolated` series must stay all-zero, which
    // also pins that the legacy path did not grow a new skip branch.
    let outcome = ScenarioBuilder::small()
        .seed(9311)
        .rounds(20)
        .churn(0.3)
        .run()
        .expect("valid config");
    assert!(
        outcome.samples.iter().all(|r| r.isolated == 0),
        "membership-off run reported isolated consumers"
    );
}

#[test]
fn every_peer_reaches_every_view_in_logarithmic_rounds() {
    // Temporal coverage: with view shuffling, the union of one node's
    // successive views sweeps the whole population in O(log n) rounds
    // (coupon collection at shuffle_len fresh entries per round). At
    // n = 48 and shuffle_len = 4 the budget is ⌈16·log2(48)⌉ = 90
    // rounds. That is not far beyond what the overlay needs: the
    // slowest observer's last peer is a maximum over 48 coupon
    // collections, so one seed needs anywhere from about 60 to over 100
    // rounds, and some seeds miss the budget. This pinned seed is a
    // regression guard for one run; the median over 16 seeds is
    // checked by `coverage_median_over_seeds_stays_within_budget`.
    let n = 48usize;
    let config = MembershipConfig {
        view_size: 8,
        relays: 3,
    };
    let budget = (16.0 * (n as f64).log2()).ceil() as usize;
    let mut runtime =
        MembershipRuntime::new(n, config, 9313 ^ MEMBERSHIP_SEED_SALT).expect("valid overlay");
    let mut seen = vec![vec![false; n]; n];
    for _ in 0..budget {
        runtime.shuffle_round(|_| true, |_, _| true);
        for (observer, seen_row) in seen.iter_mut().enumerate() {
            for peer in runtime
                .view(tsn_simnet::NodeId::from_index(observer))
                .peers()
            {
                seen_row[peer.index()] = true;
            }
        }
    }
    for (observer, seen_row) in seen.iter().enumerate() {
        let missing: Vec<usize> = (0..n).filter(|&p| p != observer && !seen_row[p]).collect();
        assert!(
            missing.is_empty(),
            "node {observer} never saw peers {missing:?} within {budget} rounds"
        );
    }
}

/// Rounds until every node of a 48-node, view-8 overlay has seen every
/// other node in its view, or `None` within `limit` rounds.
fn rounds_to_full_coverage(seed: u64, limit: usize) -> Option<usize> {
    let n = 48usize;
    let config = MembershipConfig {
        view_size: 8,
        relays: 3,
    };
    let mut runtime =
        MembershipRuntime::new(n, config, seed ^ MEMBERSHIP_SEED_SALT).expect("valid overlay");
    let mut missing = n * (n - 1);
    let mut seen = vec![vec![false; n]; n];
    for round in 1..=limit {
        runtime.shuffle_round(|_| true, |_, _| true);
        for (observer, seen_row) in seen.iter_mut().enumerate() {
            for peer in runtime.view(NodeId::from_index(observer)).peers() {
                if !seen_row[peer.index()] {
                    seen_row[peer.index()] = true;
                    missing -= 1;
                }
            }
        }
        if missing == 0 {
            return Some(round);
        }
    }
    None
}

#[test]
fn coverage_median_over_seeds_stays_within_budget() {
    // The pinned-seed test above checks one run against the
    // ⌈16·log2(48)⌉ = 90-round budget; single seeds spread widely, so
    // the typical run is judged by the median over 16 seeds.
    let budget = (16.0 * 48f64.log2()).ceil() as usize;
    let mut rounds: Vec<usize> = (0..16)
        .map(|k| rounds_to_full_coverage(9313 + k, 4 * budget).unwrap_or(usize::MAX))
        .collect();
    rounds.sort_unstable();
    let median = (rounds[7] + rounds[8]) / 2;
    assert!(
        median <= budget,
        "median coverage {median} rounds over budget {budget}: {rounds:?}"
    );
}

#[test]
fn bootstrap_relays_do_not_become_hubs() {
    // Every initial view starts with its relay, so in the first round
    // each relay is the oldest entry of a third of the population. A
    // round that let every initiator exchange with its first choice
    // would have each relay merge a thousand buffers and end up in most
    // views. 3,000 nodes, 20 rounds, a random quarter of the population
    // offline each round: the sequential sweep the synchronous round
    // replaced read a largest view in-degree of 150 (a relay) and no
    // node missing from every view on this run; neither may grow.
    let n = 3_000usize;
    let mut runtime =
        MembershipRuntime::new(n, MembershipConfig::default(), 1 ^ MEMBERSHIP_SEED_SALT)
            .expect("valid overlay");
    for round in 0..20u64 {
        let mut rng = SimRng::seed_from_u64(31 ^ round);
        let up: Vec<bool> = (0..n).map(|_| rng.gen_range(0..4u32) != 0).collect();
        runtime.shuffle_round(|node| up[node.index()], |_, _| true);
    }
    let mut in_degree = vec![0usize; n];
    for view in runtime.views() {
        for peer in view.peers() {
            in_degree[peer.index()] += 1;
        }
    }
    let largest = in_degree.iter().copied().max().unwrap_or(0);
    let unseen = in_degree.iter().filter(|&&d| d == 0).count();
    assert!(largest <= 150, "largest view in-degree {largest}");
    assert_eq!(unseen, 0, "{unseen} nodes are in no view");
}
