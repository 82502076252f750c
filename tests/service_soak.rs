//! Longevity soak: a 10k-event service run plus a pooled gossip
//! substrate, with the pool's new ownership stats pinning "no
//! unbounded growth".
//!
//! A deployed trust service is long-lived by definition, so the things
//! that are harmless in a 30-round batch run — a leaked buffer per
//! round, an ever-growing staging vector — are exactly what kills it.
//! This suite drives an order of magnitude more events than the unit
//! tests and asserts the steady-state invariants: staged events drain
//! at every commit, and the message pool's high-water mark plateaus
//! instead of tracking run length.

use tsn::prelude::*;
use tsn::protocol::{GossipConfig, GossipNetwork};
use tsn::simnet::{latency::ConstantLatency, Network, NetworkConfig, NoLoss};
use tsn_graph::generators;

/// 10k+ events through one service instance: staging stays bounded,
/// the sample series stays exactly one entry per epoch, and counters
/// reconcile.
#[test]
fn service_soaks_past_ten_thousand_events() {
    let nodes = 400;
    let driver = ServiceDriver::new(DriverConfig {
        nodes,
        arrival_rate: 3.0,
        disclosure_rate: 0.3,
        query_rate: 0.3,
        malicious_fraction: 0.15,
        seed: 99,
        membership: None,
    })
    .expect("valid workload");
    let mut service = TrustService::new(ServiceConfig {
        nodes,
        epoch: SimDuration::from_secs(60),
        ..ServiceConfig::default()
    })
    .expect("valid config");

    let epochs = 12;
    let mut max_staged = 0usize;
    for _ in 0..epochs {
        let ops = driver.ops_for_epoch(&service, service.epoch_index());
        service.apply_all(&ops).expect("clean apply");
        max_staged = max_staged.max(service.staged_len());
        service.finish_epoch().expect("clean finish");
        assert_eq!(service.staged_len(), 0, "every commit must drain staging");
    }

    let stats = service.stats();
    assert!(
        stats.ingested > 10_000,
        "soak must exceed 10k events, got {}",
        stats.ingested
    );
    assert_eq!(service.samples().len(), epochs as usize);
    // Staging is bounded by one epoch's traffic, not by run length.
    let per_epoch = stats.ingested as usize / epochs as usize;
    assert!(
        max_staged < per_epoch * 2,
        "staging peak {max_staged} should stay near one epoch's {per_epoch}"
    );
    // The committed totals reconcile with the per-epoch series.
    let committed: u64 = service.samples().iter().map(|s| s.committed).sum();
    assert_eq!(committed, stats.ingested);
    // Scores stay inside the unit interval over the whole population.
    assert!(service
        .scores()
        .iter()
        .all(|s| (0.0..=1.0).contains(s) && s.is_finite()));
}

/// The pooled gossip substrate under soak: after a warm-up the pool's
/// high-water mark must plateau — ten times more rounds, zero growth —
/// and every buffer must come home when the wire drains.
#[test]
fn gossip_pool_high_water_plateaus_under_soak() {
    let n = 60;
    let mut rng = SimRng::seed_from_u64(17);
    let graph = generators::watts_strogatz(n, 6, 0.1, &mut rng).expect("valid graph");
    let config = NetworkConfig {
        latency: Box::new(ConstantLatency(SimDuration::from_millis(10))),
        loss: Box::new(NoLoss),
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
            ..GossipConfig::default()
        },
        rng.fork(2),
    );
    for _ in 0..n * 10 {
        let observer = NodeId(rng.gen_range(0..n as u32));
        let subject = rng.gen_range(0..n);
        gossip.observe(observer, subject, 0.7);
    }

    // Warm-up: let the pool reach its working set.
    gossip.run(10);
    let warm_high_water = gossip.network_mut().pool().high_water_mark();
    assert!(warm_high_water > 0, "gossip must actually use the pool");

    // Soak: 10x the warm-up. A leak (acquire without release) or a
    // freelist bypass (fresh allocations in steady state) would push
    // the high-water mark up with run length.
    gossip.run(100);
    let soaked = gossip.network_mut().pool();
    assert_eq!(
        soaked.high_water_mark(),
        warm_high_water,
        "pool high-water mark must plateau after warm-up"
    );
    // Steady-state rounds are allocation-free: the freelist serves
    // every acquire.
    let fresh_before = gossip.network_mut().pool().fresh_allocations();
    gossip.run(10);
    assert_eq!(
        gossip.network_mut().pool().fresh_allocations(),
        fresh_before,
        "steady-state rounds must not allocate fresh buffers"
    );

    // Ownership reconciles: whatever the pool still counts as "out"
    // must be sitting on the wire (or parked per node), not leaked.
    let in_flight = gossip.network_mut().in_flight_len();
    let outstanding = gossip.network_mut().pool().outstanding();
    assert!(
        outstanding <= in_flight + n,
        "outstanding {outstanding} must be bounded by in-flight {in_flight} + one per node"
    );
}

/// A journaling host under soak: segment GC behind the checkpoint ring
/// keeps the on-disk high-water mark bounded by the checkpoint cadence
/// — total bytes ever written keep climbing, the live footprint
/// plateaus.
#[test]
fn journaled_host_disk_high_water_plateaus_under_soak() {
    let nodes = 120;
    let driver = ServiceDriver::new(DriverConfig {
        nodes,
        arrival_rate: 2.0,
        disclosure_rate: 0.3,
        query_rate: 0.3,
        malicious_fraction: 0.15,
        seed: 99,
        membership: None,
    })
    .expect("valid workload");
    let mut host = ServiceHost::new(HostConfig {
        service: ServiceConfig {
            nodes,
            epoch: SimDuration::from_secs(60),
            ..ServiceConfig::default()
        },
        journal: true,
        checkpoint_every_epochs: 1,
        retain_checkpoints: 2,
        recovery_grace: SimDuration::ZERO,
        journal_segment_bytes: 1024, // small: several seals per epoch
    })
    .expect("valid host");

    let epochs = 16u64;
    let warmup = 4u64;
    let mut warm_high_water = 0usize;
    let mut high_water = 0usize;
    for epoch in 0..epochs {
        driver.drive_host(&mut host, 1).expect("clean epoch");
        high_water = high_water.max(host.journal().byte_len());
        if epoch < warmup {
            warm_high_water = high_water;
        }
    }

    assert!(
        host.journal().gc_segments() > 0,
        "the checkpoint ring must have unpinned segments for GC"
    );
    // The live footprint after 16 epochs is no worse than shortly after
    // start: GC tracks the ring, so four times the uptime buys zero
    // growth (one segment of slack for boundary jitter).
    assert!(
        high_water <= warm_high_water + 1024,
        "live journal bytes must plateau: warm high-water {warm_high_water}, \
         final high-water {high_water}"
    );
    // Meanwhile the journal kept writing the whole time: the total ever
    // written dwarfs what is live on disk.
    let written = host.journal().bytes_written();
    assert!(
        written >= 3 * high_water as u64,
        "total bytes written ({written}) should dwarf the live high-water ({high_water})"
    );
}
