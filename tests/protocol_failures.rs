//! Failure injection across the protocol and simulator layers:
//! partitions, regional latency, crash-recovery interplay.

use tsn::graph::generators;
use tsn::protocol::{GossipConfig, GossipNetwork, ManagerConfig, ManagerNetwork};
use tsn::simnet::{
    GroupMap, Network, NetworkConfig, NoLoss, NodeId, PartitionedLoss, RegionalLatency,
    SimDuration, SimRng,
};

fn partitioned_network(n: usize, groups: usize, seed: u64) -> Network {
    let map = GroupMap::contiguous(n, groups);
    let config = NetworkConfig {
        latency: Box::new(RegionalLatency::new(
            map.clone(),
            SimDuration::from_millis(5),
            SimDuration::from_millis(5),
        )),
        loss: Box::new(PartitionedLoss::full_partition(map)),
    };
    let mut network = Network::new(config, SimRng::seed_from_u64(seed));
    for _ in 0..n {
        network.add_node();
    }
    network
}

#[test]
fn gossip_islands_diverge_under_full_partition() {
    // Subject 0 is observed only in island A (nodes 0..15): island B's
    // nodes can never learn about it while the partition holds.
    let n = 30;
    let mut rng = SimRng::seed_from_u64(1);
    let graph = generators::watts_strogatz(n, 6, 0.1, &mut rng).unwrap();
    let mut gossip = GossipNetwork::new(
        graph,
        partitioned_network(n, 2, 2),
        GossipConfig {
            subjects: n,
            ..Default::default()
        },
        rng.fork(1),
    );
    for observer in 0..15u32 {
        gossip.observe(NodeId(observer), 0, 0.95);
    }
    gossip.run(40);
    // An island-A node has learned subject 0 is good; an island-B node
    // still sits near the prior.
    let a_estimate = gossip.estimate(NodeId(3), 0);
    let b_estimate = gossip.estimate(NodeId(25), 0);
    assert!(a_estimate > 0.7, "island A converges: {a_estimate}");
    assert!(
        (b_estimate - 0.5).abs() < 0.15,
        "island B stays near the prior: {b_estimate}"
    );
}

#[test]
fn gossip_heals_after_partition_lifts() {
    // Same split, executed as a *scheduled* partition window on the
    // dynamics plan: the runtime swaps the loss model in at the window
    // start and restores it at the heal, mid-run, on the same instance —
    // no fresh-network modelling trick.
    let n = 20;
    let mut rng = SimRng::seed_from_u64(3);
    let graph = generators::watts_strogatz(n, 6, 0.1, &mut rng).unwrap();
    let config = NetworkConfig {
        loss: Box::new(NoLoss),
        ..Default::default()
    };
    let mut network = Network::new(config, rng.fork(1));
    for _ in 0..n {
        network.add_node();
    }
    let mut gossip = GossipNetwork::new(
        graph,
        network,
        GossipConfig {
            subjects: n,
            ..Default::default()
        },
        rng.fork(2),
    );
    for observer in 0..n as u32 / 2 {
        gossip.observe(NodeId(observer), 0, 0.9);
    }
    // Rounds are 100ms: split for the first 20 rounds, then heal.
    gossip
        .attach_dynamics(
            tsn::simnet::DynamicsPlan::split_then_heal(
                tsn::simnet::SimTime::ZERO,
                tsn::simnet::SimTime::from_millis(2_050),
            ),
            rng.fork(3),
        )
        .expect("valid plan");
    gossip.run(20);
    let far_node = NodeId((n - 1) as u32);
    let during = gossip.estimate(far_node, 0);
    assert!(
        (during - 0.5).abs() < 0.15,
        "the far island cannot learn during the split: {during}"
    );
    gossip.run(40);
    let healed = gossip.estimate(far_node, 0);
    assert!(
        healed > 0.7,
        "after the mid-run heal the far island converges: {healed}"
    );
}

#[test]
fn managers_behind_a_partition_cannot_answer() {
    let n = 20;
    let config = ManagerConfig {
        replicas: 2,
        ..Default::default()
    };
    let mut managers = ManagerNetwork::new(partitioned_network(n, 2, 4), config);
    // A subject whose replicas are ALL in the far island (group 1, nodes
    // 10..20) relative to requester 0. Placement is deterministic.
    let subject = (0..n as u32)
        .map(NodeId)
        .find(|&s| managers.managers(s).iter().all(|m| m.index() >= 10))
        .expect("deterministic placement provides an island-B subject");
    managers.submit_query(NodeId(0), subject);
    managers.run(5);
    assert_eq!(
        managers.answer(NodeId(0), subject),
        None,
        "queries cannot cross a full partition"
    );
}

#[test]
fn managers_same_island_still_work_during_partition() {
    let n = 20;
    let config = ManagerConfig {
        replicas: 2,
        ..Default::default()
    };
    let mut managers = ManagerNetwork::new(partitioned_network(n, 2, 5), config);
    // The same island-B subject, but served and queried from island B.
    let subject = (0..n as u32)
        .map(NodeId)
        .find(|&s| managers.managers(s).iter().all(|m| m.index() >= 10))
        .expect("deterministic placement provides an island-B subject");
    let b_reporter = NodeId(12);
    let b_requester = NodeId(14);
    for _ in 0..3 {
        managers.submit_report(b_reporter, subject, 0.9);
    }
    managers.run(2);
    managers.submit_query(b_requester, subject);
    managers.run(3);
    assert!(
        managers.answer(b_requester, subject).is_some(),
        "island-local service survives the partition"
    );
}

#[test]
fn regional_latency_slows_cross_region_gossip() {
    // With slow inter-region links and a short round, cross-region pushes
    // arrive rounds later; convergence within a region is faster than
    // across. We simply check overall convergence still happens.
    let n = 20;
    let map = GroupMap::contiguous(n, 2);
    let config = NetworkConfig {
        latency: Box::new(RegionalLatency::new(
            map,
            SimDuration::from_millis(5),
            SimDuration::from_millis(450),
        )),
        loss: Box::new(NoLoss),
    };
    let mut network = Network::new(config, SimRng::seed_from_u64(6));
    for _ in 0..n {
        network.add_node();
    }
    let mut rng = SimRng::seed_from_u64(7);
    let graph = generators::watts_strogatz(n, 6, 0.1, &mut rng).unwrap();
    let mut gossip = GossipNetwork::new(
        graph,
        network,
        GossipConfig {
            subjects: n,
            round_length: SimDuration::from_millis(100),
        },
        rng.fork(1),
    );
    for observer in 0..n as u32 {
        gossip.observe(NodeId(observer), 0, 0.8);
    }
    gossip.run(80);
    let report = gossip.report();
    assert!(
        report.mean_error < 0.1,
        "slow links delay but do not prevent convergence: {}",
        report.mean_error
    );
}
