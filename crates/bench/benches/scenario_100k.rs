//! Bench: the sharded round engine at mega scale — one scenario, 100k
//! nodes (the ROADMAP's "heavy traffic" lane), plus the 10k auto-shard
//! boundary for the trend line.
//!
//! Run: `cargo bench -p tsn-bench --bench scenario_100k`
//! Emits `BENCH_scenario_100k.json`; `BENCH_CHECK=1` gates against the
//! committed baseline.
//!
//! The lane pins the PR-5 acceptance bar: a 100k-node scenario completes
//! a 20-round run. Before the sharded engine (and the O(1) ledger
//! eviction plus the summed-dangling-mass walk iteration that landed
//! with it), a single scenario was effectively capped around the
//! 1000-node `scenario_step` lane — a 100k-node round took minutes, not
//! milliseconds.

use tsn_bench::harness::{Bench, BenchSuite};
use tsn_core::runner::ScenarioBuilder;

fn main() {
    let mut suite = BenchSuite::new(
        "scenario_100k",
        "mega:nodes=10k,100k rounds=20 shards=auto; samples=3",
    );

    // Throughput unit: node-rounds simulated per second.
    let bench = Bench::new("mega_scenario").samples(3).warmup(1);
    for nodes in [10_000usize, 100_000] {
        let rounds = 20;
        let label = format!("{}k_nodes", nodes / 1000);
        suite.record(bench.run_items(&label, (nodes * rounds) as u64, || {
            ScenarioBuilder::mega(nodes)
                .rounds(rounds)
                .seed(42)
                .run()
                .expect("mega preset is valid")
        }));
    }

    // The shard-count axis on one fixed workload: identical outcomes by
    // contract (tests/sharding.rs pins the bits), so any spread here is
    // pure scheduling cost. On a single-core runner expect parity.
    let bench = Bench::new("shard_count").samples(3).warmup(1);
    for shards in [1usize, 4, 16] {
        let nodes = 20_000;
        let rounds = 10;
        suite.record(
            bench.run_items(&format!("{shards}_shards"), (nodes * rounds) as u64, || {
                ScenarioBuilder::mega(nodes)
                    .rounds(rounds)
                    .seed(42)
                    .shards(shards)
                    .run()
                    .expect("valid config")
            }),
        );
    }

    suite.finish();
}
