//! A realistic substrate: churn, a partition that heals, and WAN
//! regions — the dynamics layer end-to-end over a regional transport.
//!
//! Three gossip runs over the same overlay and evidence:
//!
//! 1. a **stable LAN** baseline;
//! 2. a **churny WAN** (session-based joins/leaves/crashes over two
//!    slow-linked regions, with whitewashing re-joins) — the regions are
//!    a [`RegionalLatency`] in the network's configuration, the churn a
//!    [`DynamicsPlan`];
//! 3. a **split-then-heal** schedule: a clean two-way partition for the
//!    first 20 rounds, healed mid-run by the dynamics runtime.
//!
//! Run with:
//! ```text
//! cargo run --release --example churn_partition
//! ```

use tsn::graph::generators;
use tsn::protocol::{GossipConfig, GossipNetwork};
use tsn::simnet::{
    dynamics::DynamicsPlan, latency::ConstantLatency, ChurnConfig, GroupMap, LatencyModel, Network,
    NetworkConfig, NoLoss, NodeId, RegionalLatency, SimDuration, SimRng, SimTime,
};

const N: usize = 60;

fn lan() -> Box<dyn LatencyModel> {
    Box::new(ConstantLatency(SimDuration::from_millis(10)))
}

fn fresh_gossip(seed: u64, latency: Box<dyn LatencyModel>) -> GossipNetwork {
    let mut rng = SimRng::seed_from_u64(seed);
    let graph = generators::watts_strogatz(N, 6, 0.1, &mut rng).expect("valid overlay");
    let config = NetworkConfig {
        latency,
        loss: Box::new(NoLoss),
    };
    let mut network = Network::new(config, rng.fork(1));
    for _ in 0..N {
        network.add_node();
    }
    let mut gossip = GossipNetwork::new(
        graph,
        network,
        GossipConfig {
            subjects: N,
            ..Default::default()
        },
        rng.fork(2),
    );
    // Everyone has local experiences; providers below 12 are bad.
    let mut obs = SimRng::seed_from_u64(seed ^ 0xBEEF);
    for _ in 0..N * 8 {
        let observer = NodeId(obs.gen_range(0..N as u32));
        let subject = obs.gen_range(0..N);
        let quality = if subject < 12 { 0.15 } else { 0.9 };
        let value = (quality + obs.gen_normal(0.0, 0.05)).clamp(0.0, 1.0);
        gossip.observe(observer, subject, value);
    }
    gossip
}

fn main() {
    println!("gossip over {N} nodes, 40 rounds each\n");

    // 1. Stable LAN baseline.
    let mut stable = fresh_gossip(7, lan());
    stable.run(40);
    print_summary("stable-lan", &stable);

    // 2. Churny WAN: two slow-linked regions, session churn with
    //    whitewashing.
    let wan = RegionalLatency::new(
        GroupMap::contiguous(N, 2),
        SimDuration::from_millis(5),
        SimDuration::from_millis(80),
    );
    let mut churny = fresh_gossip(7, Box::new(wan));
    let plan = DynamicsPlan {
        churn: Some(ChurnConfig {
            mean_session: SimDuration::from_millis(1_200), // ~12 rounds
            mean_downtime: SimDuration::from_millis(400),
            whitewash_probability: 0.2,
            crash_fraction: 0.5,
        }),
        ..Default::default()
    };
    churny
        .attach_dynamics(plan, SimRng::seed_from_u64(8))
        .expect("valid plan");
    churny.run(40);
    print_summary("churny-wan", &churny);

    // 3. Split for 20 rounds, then heal mid-run.
    let mut split = fresh_gossip(7, lan());
    split
        .attach_dynamics(
            DynamicsPlan::split_then_heal(SimTime::ZERO, SimTime::from_millis(2_050)),
            SimRng::seed_from_u64(9),
        )
        .expect("valid plan");
    split.run(20);
    print_summary("split (mid)", &split);
    split.run(20);
    print_summary("split-healed", &split);

    println!("\nnode 5's local verdict on provider 3 (bad) / 30 (good):");
    for (label, gossip) in [
        ("stable-lan", &stable),
        ("churny-wan", &churny),
        ("split-healed", &split),
    ] {
        println!(
            "  {label:<13} {:>5.3} / {:>5.3}   (oracles {:>5.3} / {:>5.3})",
            gossip.estimate(NodeId(5), 3),
            gossip.estimate(NodeId(5), 30),
            gossip.oracle(3),
            gossip.oracle(30),
        );
    }
}

fn print_summary(label: &str, gossip: &GossipNetwork) {
    let r = gossip.report();
    let (availability, health) = gossip
        .dynamics()
        .map_or((1.0, 1.0), |d| (d.availability(), d.partition_health()));
    println!(
        "{label:<13} rounds {:>3}  mean|err| {:>7.4}  max|err| {:>7.4}  \
         availability {availability:>4.2}  partition-health {health:>4.2}",
        r.costs.rounds, r.mean_error, r.max_error
    );
}
