//! Bench: PriServ-style access-decision latency and ledger accounting
//! cost — the per-request privacy overhead a deployment pays.
//!
//! Run: `cargo bench -p tsn-bench --bench enforcement`

use tsn_bench::harness::{Bench, BenchSuite};
use tsn_privacy::enforcement::RequestContext;
use tsn_privacy::{
    AccessRequest, DataCategory, DisclosureLedger, Enforcer, Operation, PrivacyPolicy, Purpose,
};
use tsn_simnet::NodeId;

fn main() {
    let enforcer = Enforcer::new();
    let strict = PrivacyPolicy::strict(DataCategory::Content);
    let permissive = PrivacyPolicy::permissive(DataCategory::Content);
    let request = AccessRequest {
        requester: NodeId(1),
        owner: NodeId(0),
        operation: Operation::Read,
        purpose: Purpose::Social,
    };
    let near = RequestContext {
        social_distance: Some(1),
        requester_trust: 0.8,
    };
    let far = RequestContext {
        social_distance: Some(4),
        requester_trust: 0.2,
    };

    let mut suite = BenchSuite::new(
        "enforcement",
        "decide:requests=10k contexts=3; ledger:records=10k; samples=20,10",
    );
    let bench = Bench::new("decide").samples(20);
    suite.record(bench.run_items("strict_grant_x10k", 10_000, || {
        (0..10_000)
            .filter(|_| enforcer.decide(&request, &strict, &near).is_granted())
            .count()
    }));
    suite.record(bench.run_items("strict_deny_x10k", 10_000, || {
        (0..10_000)
            .filter(|_| enforcer.decide(&request, &strict, &far).is_granted())
            .count()
    }));
    suite.record(bench.run_items("permissive_x10k", 10_000, || {
        (0..10_000)
            .filter(|_| enforcer.decide(&request, &permissive, &near).is_granted())
            .count()
    }));

    suite.record(Bench::new("ledger").samples(10).run_items(
        "10k_records_respect_rate",
        10_000,
        || {
            let mut ledger = DisclosureLedger::new();
            for i in 0..10_000u64 {
                ledger.record_disclosure(NodeId((i % 100) as u32), DataCategory::Content, false);
            }
            ledger.respect_rate()
        },
    ));

    suite.finish();
}
