//! Bench: end-to-end scenario throughput (the engine behind every
//! figure).
//!
//! Run: `cargo bench -p tsn-bench --bench scenario_step`
//! Emits `BENCH_scenario_step.json`; `BENCH_CHECK=1` gates against the
//! committed baseline.

use tsn_bench::harness::{Bench, BenchSuite};
use tsn_core::runner::ScenarioBuilder;

fn main() {
    // Perf trajectory, same protocol and machine class — pre-PR2 =
    // per-round allocations + HashMap EigenTrust + scanning ledger:
    // 50 nodes 1.335ms, 100 nodes 3.808ms.
    let mut suite = BenchSuite::new(
        "scenario_step",
        "scenario_run:nodes=50,100 rounds=10 shards=1; samples=10",
    );

    let bench = Bench::new("scenario_run").samples(10);
    for nodes in [50usize, 100] {
        let rounds = 10;
        // Throughput unit: node-rounds simulated per second.
        suite.record(
            bench.run_items(&format!("{nodes}_nodes"), (nodes * rounds) as u64, || {
                ScenarioBuilder::new()
                    .nodes(nodes)
                    .rounds(rounds)
                    .run()
                    .unwrap()
            }),
        );
    }

    suite.finish();
}
