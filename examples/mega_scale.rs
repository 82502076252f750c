//! Mega-scale scenario: one run, a hundred thousand (or a million)
//! users on the sharded round engine.
//!
//! ```text
//! cargo run --release --example mega_scale                  # 20k × 5 rounds (CI smoke)
//! MEGA_NODES=100000 MEGA_ROUNDS=20 \
//!     cargo run --release --example mega_scale              # the bench lane's workload
//! MEGA_NODES=1000000 MEGA_ROUNDS=3 \
//!     cargo run --release --example mega_scale              # a million users
//! ```
//!
//! The outcome is a pure function of `(config, seed)`: the shard count
//! (and the core count executing it) never changes a bit of the result,
//! which the run demonstrates by executing the same scenario with two
//! different shard counts and comparing outcomes.

use std::time::Instant;
use tsn::core::runner::ScenarioBuilder;

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        // A set-but-invalid value must fail loudly naming the culprit,
        // not silently fall back to the default workload.
        Ok(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("error: invalid value for {name}: {raw:?} (expected a non-negative integer)");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let nodes = env_usize("MEGA_NODES", 20_000);
    let rounds = env_usize("MEGA_ROUNDS", 5);
    println!("mega-scale scenario: {nodes} nodes × {rounds} rounds (sharded engine)");

    // tsn-lint: allow(wall-clock, "demo prints wall-clock throughput; the simulation itself runs on the sim clock")
    let start = Instant::now();
    let outcome = ScenarioBuilder::mega(nodes)
        .rounds(rounds)
        .seed(42)
        .run()
        .expect("mega preset is valid");
    let elapsed = start.elapsed();

    println!(
        "ran {} interactions / {} messages in {elapsed:.2?} \
         ({:.0} node-rounds/s)",
        outcome.interactions,
        outcome.messages,
        (nodes * rounds) as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "global trust {:.4}  facets: privacy {:.4} reputation {:.4} satisfaction {:.4}",
        outcome.global_trust,
        outcome.facets.privacy,
        outcome.facets.reputation,
        outcome.facets.satisfaction,
    );

    // Shard-count invariance, demonstrated live on a scaled-down copy
    // (fast enough for CI): one shard (everything serial on the calling
    // thread) and 7 shards (the interaction phase, the merge barrier and
    // the per-slot round-tail fills on the worker pool), bit-identical
    // trust.
    let small = nodes.min(10_000);
    let run_with = |shards: usize| {
        ScenarioBuilder::mega(small)
            .rounds(3)
            .seed(42)
            .shards(shards)
            .run()
            .expect("valid config")
    };
    let (a, b) = (run_with(1), run_with(7));
    assert_eq!(
        a.global_trust.to_bits(),
        b.global_trust.to_bits(),
        "shard count must not change the outcome"
    );
    assert_eq!(a.per_user_trust, b.per_user_trust);
    println!("shard-count invariance check: 1 shard == 7 shards ✓");
}
