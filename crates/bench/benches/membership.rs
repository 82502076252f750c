//! Bench: the peer-sampling membership overlay (DESIGN.md §15).
//!
//! Run: `cargo bench -p tsn-bench --bench membership`
//! Emits `BENCH_membership.json`; `BENCH_CHECK=1` gates against the
//! committed baseline.
//!
//! Two questions, each at 10k and 100k nodes:
//!
//! * `shuffle/round_*` — throughput of one full synchronous shuffle
//!   round (every live node ages its view, claims its oldest partner
//!   and push-pulls `shuffle_len` entries) on the calling thread;
//!   `shuffle/round_*_2w` runs the same round on two workers, which
//!   yields the same views. Items = nodes, so the number reads as
//!   node-shuffles/second.
//! * `dissemination/full_*` — wall-clock until a rumor started at
//!   node 0 reaches the whole population, when every informed node
//!   pushes it to one view-sampled target per round. This is the
//!   service-level payoff of uniform peer sampling: the informed set
//!   doubles per round, so the round count (printed alongside) grows
//!   as O(log n) even though no node knows more than 16 peers.

use tsn_bench::harness::{black_box, Bench, BenchSuite};
use tsn_simnet::{MembershipConfig, MembershipRuntime, NodeId, SimRng};

const SEED: u64 = 4242;

fn overlay(n: usize) -> MembershipRuntime {
    MembershipRuntime::new(n, MembershipConfig::default(), SEED).expect("valid overlay")
}

/// Push a rumor from node 0 over the shuffled overlay — one
/// view-sampled target per informed node per round — and return the
/// rounds until everyone is informed.
fn rounds_to_full_dissemination(n: usize) -> u64 {
    let mut runtime = overlay(n);
    let mut rng = SimRng::seed_from_u64(SEED ^ 0x9E37_79B9);
    let mut informed = vec![false; n];
    informed[0] = true;
    let mut remaining = n - 1;
    let mut rounds = 0u64;
    while remaining > 0 {
        runtime.shuffle_round(|_| true, |_, _| true);
        rounds += 1;
        // Synchronous-round push: targets informed this round start
        // pushing next round.
        let mut next = informed.clone();
        for (holder, _) in informed.iter().enumerate().filter(|(_, i)| **i) {
            if let Some(peer) = runtime.view(NodeId::from_index(holder)).sample(&mut rng) {
                if !next[peer.index()] {
                    next[peer.index()] = true;
                    remaining -= 1;
                }
            }
        }
        informed = next;
        assert!(rounds < 1_000, "dissemination stalled at {remaining} nodes");
    }
    rounds
}

fn main() {
    let mut suite = BenchSuite::new(
        "membership",
        "exchange=sync-round-claims2 view=16 shuffle=8 relays=3 seed=4242 nodes=10k/100k \
         workers=1/2 samples=3",
    );

    let bench = Bench::new("shuffle").samples(3).warmup(1);
    for &n in &[10_000usize, 100_000] {
        for (workers, suffix) in [(1usize, ""), (2, "_2w")] {
            let mut runtime = overlay(n);
            let label = format!("round_{}k{suffix}", n / 1000);
            let result = bench.run_items(&label, n as u64, || {
                runtime.shuffle_round_on(workers, |_| true, |_, _| true);
                black_box(runtime.rounds())
            });
            println!(
                "shuffle round at n={n}, {workers} worker(s): {:.0} node-shuffles/s (median {:?})",
                result.throughput_per_sec(),
                result.median
            );
            suite.record(result);
        }
    }

    let bench = Bench::new("dissemination").samples(3).warmup(0);
    for &n in &[10_000usize, 100_000] {
        let label = format!("full_{}k", n / 1000);
        let rounds = rounds_to_full_dissemination(n);
        let result = bench.run(&label, || black_box(rounds_to_full_dissemination(n)));
        println!(
            "full dissemination at n={n}: {rounds} rounds, median {:?}",
            result.median
        );
        suite.record(result);
    }

    suite.finish();
}
