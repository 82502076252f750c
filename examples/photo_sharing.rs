//! A decentralized photo-sharing community — the workload the paper's
//! introduction motivates (users publishing personal content on a
//! Facebook-like system, but fully decentralized).
//!
//! This example drops below the scenario engine and drives the substrate
//! APIs directly: a small-world friendship graph, per-user privacy
//! policies over photo albums, the PriServ-style enforcement engine, and
//! a Beta reputation mechanism fed by (policy-filtered) feedback.
//!
//! Run with:
//! ```text
//! cargo run --example photo_sharing
//! ```

use tsn::graph::{generators, metrics};
use tsn::privacy::enforcement::RequestContext;
use tsn::privacy::{
    AccessRequest, DataCategory, DisclosureLedger, Enforcer, Operation, PrivacyPolicy, Purpose,
};
use tsn::reputation::{
    BetaReputation, DisclosurePolicy, FeedbackReport, InteractionOutcome, ReputationMechanism,
};
use tsn::simnet::{NodeId, SimRng, SimTime};

fn main() {
    let n = 60;
    let mut rng = SimRng::seed_from_u64(7);

    // Friendship graph: small-world, as real social networks are.
    let graph = generators::watts_strogatz(n, 6, 0.1, &mut rng).expect("valid parameters");
    println!(
        "community: {} users, {} friendships, clustering {:.2}",
        graph.node_count(),
        graph.edge_count(),
        metrics::average_clustering(&graph)
    );

    // Every user's photo album is governed by their own privacy policy:
    // a third keep them strictly friends-only, the rest are permissive.
    let policies: Vec<PrivacyPolicy> = (0..n)
        .map(|i| {
            if i % 3 == 0 {
                PrivacyPolicy::strict(DataCategory::Content)
            } else {
                PrivacyPolicy::permissive(DataCategory::Content)
            }
        })
        .collect();

    let enforcer = Enforcer::new();
    let mut ledger = DisclosureLedger::new();
    let mut reputation = BetaReputation::new(n);
    let disclosure = DisclosurePolicy::full();
    let mut granted = 0u32;
    let mut denied = 0u32;

    // A week of browsing: users request photos from friends-of-friends.
    for day in 0..7u64 {
        let now = SimTime::from_secs(day * 86_400);
        for _ in 0..200 {
            let viewer = NodeId(rng.gen_range(0..n as u32));
            let owner = NodeId(rng.gen_range(0..n as u32));
            if viewer == owner {
                continue;
            }
            let distance = graph.bfs_distances(viewer)[owner.index()];
            let request = AccessRequest {
                requester: viewer,
                owner,
                operation: Operation::Read,
                purpose: Purpose::Social,
            };
            let context = RequestContext {
                social_distance: distance,
                requester_trust: reputation.score(viewer),
            };
            let decision = enforcer.decide(&request, &policies[owner.index()], &context);
            if decision.is_granted() {
                granted += 1;
                ledger.record_disclosure(owner, DataCategory::Content, false);
                // The viewer rates the album (quality depends on the owner
                // being a conscientious curator — modelled as id parity).
                let quality = if owner.0.is_multiple_of(5) { 0.3 } else { 0.9 };
                let outcome = if rng.gen_bool(quality) {
                    InteractionOutcome::Success { quality }
                } else {
                    InteractionOutcome::Failure
                };
                let report = FeedbackReport {
                    rater: viewer,
                    ratee: owner,
                    outcome,
                    topic: None,
                    at: now,
                };
                reputation.record(&disclosure.view(&report));
            } else {
                denied += 1;
            }
        }
        reputation.refresh();
    }

    println!("\nafter one simulated week:");
    println!("  photo requests granted: {granted}, denied by policy: {denied}");
    println!(
        "  disclosures on ledger: {}, respect rate {:.3}",
        ledger.len(),
        ledger.respect_rate()
    );

    // Reputation has learned who curates well.
    let mut scored: Vec<(NodeId, f64)> = (0..n as u32)
        .map(NodeId)
        .map(|u| (u, reputation.score(u)))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
    println!("\n  best-curated albums: {:?}", &scored[..3]);
    println!("  worst-curated albums: {:?}", &scored[n - 3..]);
    let sloppy_curators_low = scored[n - 3..].iter().all(|(u, _)| u.0 % 5 == 0);
    println!("  bottom three are all sloppy curators: {sloppy_curators_low}");
}
