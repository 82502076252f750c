//! Bench: the replication tax and the failover path.
//!
//! Run: `cargo bench -p tsn-bench --bench service_failover`
//! Emits `BENCH_service_failover.json`; `BENCH_CHECK=1` gates against
//! the committed baseline.
//!
//! Three lanes:
//!
//! * `replication/apply` — per-op cost of feeding an acknowledged op
//!   through a 3-member [`ReplicaSet`] (primary + sequencer + two
//!   follower applies + journal copies). Compare against the single-host
//!   apply lanes in `BENCH_service.json` for the replication tax.
//! * `failover/kill_promote_serve` — the outage a client of the set can
//!   observe: primary killed mid-journal-append, the next `apply` pays
//!   for promotion (healthiest-follower election + log catch-up) and is
//!   served by the new primary.
//! * `failover/epoch_after_failover` — a whole epoch of ops plus the
//!   boundary commit on a freshly promoted set: the steady state after
//!   the outage, confirming the promoted member serves at full speed.
//!
//! Sets are pre-warmed outside the timed region and consumed one per
//! sample, so every sample measures the same cold failover.

use tsn_bench::harness::{Bench, BenchSuite};
use tsn_service::{
    DriverConfig, HostConfig, ReplicaConfig, ReplicaSet, ServiceConfig, ServiceDriver, ServiceOp,
};
use tsn_simnet::{SimDuration, SimTime};

const NODES: usize = 1_000;
const REPLICAS: usize = 3;
const WARM_EPOCHS: u64 = 2;
const SAMPLES: u32 = 5;
const WARMUP: u32 = 1;

fn replica_config() -> ReplicaConfig {
    ReplicaConfig {
        host: HostConfig {
            service: ServiceConfig {
                nodes: NODES,
                epoch: SimDuration::from_secs(60),
                ..ServiceConfig::default()
            },
            journal: true,
            checkpoint_every_epochs: 1,
            retain_checkpoints: 2,
            recovery_grace: SimDuration::ZERO,
            ..HostConfig::default()
        },
        replicas: REPLICAS,
    }
}

/// A set already serving at the start of epoch `WARM_EPOCHS`.
fn warmed_set(driver: &ServiceDriver) -> ReplicaSet {
    let mut set = ReplicaSet::new(replica_config()).expect("valid set");
    driver
        .drive_replicas(&mut set, WARM_EPOCHS)
        .expect("clean warm-up");
    set
}

fn main() {
    let mut suite = BenchSuite::new(
        "service_failover",
        "nodes=1000 replicas=3 epoch=60s arrivals=2.0 seed=77 warm_epochs=2 samples=5",
    );
    let driver = ServiceDriver::new(DriverConfig {
        nodes: NODES,
        arrival_rate: 2.0,
        disclosure_rate: 0.1,
        query_rate: 0.2,
        malicious_fraction: 0.1,
        seed: 77,
        membership: None,
    })
    .expect("valid workload");
    // The epoch the timed lanes will serve (the one right past warm-up).
    let epoch = SimDuration::from_secs(60);
    let ops: Vec<ServiceOp> = driver.ops_for_epoch_len(epoch, WARM_EPOCHS);
    let epoch_end = SimTime::from_secs(60 * (WARM_EPOCHS + 1));
    let pool_size = (SAMPLES + WARMUP.max(1)) as usize;
    let bench = Bench::new("replication").samples(SAMPLES).warmup(WARMUP);

    // ── Lane 1: the replication tax per acknowledged op ─────────────
    let mut pool: Vec<ReplicaSet> = (0..pool_size).map(|_| warmed_set(&driver)).collect();
    let result = bench.run_items("apply", ops.len() as u64, || {
        let mut set = pool.pop().expect("one warmed set per sample");
        for op in &ops {
            set.apply(op).expect("a live set acknowledges every op");
        }
        set.sequenced()
    });
    println!(
        "replicated apply: {:.0} ops/s across {REPLICAS} members",
        result.throughput_per_sec()
    );
    suite.record(result);

    let bench = Bench::new("failover").samples(SAMPLES).warmup(WARMUP);

    // ── Lane 2: kill → promote → first op served ────────────────────
    let first_op = *ops.first().expect("the driven epoch has ops");
    let mut pool: Vec<ReplicaSet> = (0..pool_size).map(|_| warmed_set(&driver)).collect();
    let result = bench.run("kill_promote_serve", || {
        let mut set = pool.pop().expect("one warmed set per sample");
        set.crash_primary_torn(first_op.at());
        set.apply(&first_op).expect("the promoted member serves");
        assert_eq!(set.failovers().len(), 1, "the kill promoted exactly once");
        set.primary()
    });
    println!(
        "kill -> promote -> first op served: median {:?}",
        result.median
    );
    suite.record(result);

    // ── Lane 3: the epoch after the failover, at full speed ─────────
    let mut pool: Vec<ReplicaSet> = (0..pool_size).map(|_| warmed_set(&driver)).collect();
    let result = bench.run_items("epoch_after_failover", ops.len() as u64, || {
        let mut set = pool.pop().expect("one warmed set per sample");
        set.crash_primary_torn(first_op.at());
        for op in &ops {
            set.apply(op)
                .expect("the promoted set acknowledges every op");
        }
        set.advance_to(epoch_end).expect("the boundary commits");
        set.primary_service().expect("serving").epoch_index()
    });
    println!(
        "first post-failover epoch: {:.0} ops/s",
        result.throughput_per_sec()
    );
    suite.record(result);

    suite.finish();
}
