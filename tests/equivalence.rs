//! Bit-identical equivalence fixtures for the optimized hot paths.
//!
//! The scenario loop, the EigenTrust/PowerTrust local-trust storage and
//! the disclosure ledger were rewritten for performance (scratch
//! buffers, incremental CSR, running counters). Those rewrites must not
//! change a single bit of any outcome: this suite pins a grid of
//! (config, seed) fixtures to golden files capturing every float of the
//! [`ScenarioOutcome`] (shortest round-trip form, so the comparison is
//! exact) plus a full [`SweepReport`] CSV.
//!
//! The goldens were generated from the pre-refactor code. The scenario
//! goldens and `sweep_report.txt` were later regenerated once, when the
//! serial scenario loop was folded into the sharded round engine: they
//! pin the single-engine round semantics (scores, served counters and
//! cross-node leak flags as of round start; one RNG stream per
//! `(round, node)`). The gossip goldens predate that change.
//! `eigentrust_adaptive_churn.txt` was regenerated once more, alone,
//! when `ScenarioBuilder::churn(p)` stopped drawing i.i.d. per-round
//! offline coin flips and became the `DynamicsPlan::steady_offline`
//! preset executed by the dynamics runtime: the same offline fraction,
//! drawn from session churn instead. `dynamics_events.txt` pins the
//! dynamics runtime's full `(time, event)` stream; it was generated
//! before the churn sampler moved into the runtime and must never
//! move. `eigentrust_whitewash_overlay.txt` was added later, generated
//! on the engine as it stood before selection weights were tabled per
//! slot: it is the one fixture whose consumers score partners through
//! the slot→identity map (peer-sampling views, a whitewash economy and
//! two shards), and it pins that path bit for bit. To regenerate after
//! an *intentional* semantic change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test equivalence
//! ```
//!
//! and justify the diff in the PR.

use tsn_core::config::PolicyProfile;
use tsn_core::json::format_f64;
use tsn_core::runner::{DisclosureLevel, ScenarioBuilder, SweepGrid, SweepRunner};
use tsn_core::scenario::{Scenario, ScenarioOutcome};
use tsn_graph::generators;
use tsn_protocol::{GossipConfig, GossipNetwork};
use tsn_reputation::{AnonymizationConfig, MechanismKind, SelectionPolicy};
use tsn_simnet::{
    latency::ConstantLatency, BernoulliLoss, ChurnConfig, DynamicsPlan, DynamicsRuntime, Network,
    NetworkConfig, NoLoss, NodeId, PartitionWindow, SimDuration, SimRng, SimTime,
};

use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Serializes every field of an outcome in bit-exact text form.
/// `format_f64` emits the shortest string that round-trips, so two
/// outcomes serialize identically iff every float is bit-identical.
fn fingerprint(o: &ScenarioOutcome) -> String {
    let mut s = String::new();
    let f = |v: f64| format_f64(v);
    let vec = |vs: &[f64]| {
        vs.iter()
            .map(|&v| format_f64(v))
            .collect::<Vec<_>>()
            .join(",")
    };
    let _ = writeln!(
        s,
        "facets privacy={} reputation={} satisfaction={}",
        f(o.facets.privacy),
        f(o.facets.reputation),
        f(o.facets.satisfaction)
    );
    let _ = writeln!(s, "global_trust {}", f(o.global_trust));
    let _ = writeln!(s, "per_user_trust {}", vec(&o.per_user_trust));
    let _ = writeln!(s, "per_user_satisfaction {}", vec(&o.per_user_satisfaction));
    let _ = writeln!(s, "per_user_respect {}", vec(&o.per_user_respect));
    let _ = writeln!(
        s,
        "power consistency={} rmse={} reliability={} efficiency={} iterations={} overhead={}",
        f(o.power.consistency),
        f(o.power.rmse),
        f(o.power.reliability),
        f(o.power.efficiency),
        o.power.iterations,
        o.power.overhead_per_report
    );
    let _ = writeln!(
        s,
        "satisfaction mean={} min={} jain={} gini={} population={}",
        f(o.satisfaction.mean),
        f(o.satisfaction.min),
        f(o.satisfaction.jain_index),
        f(o.satisfaction.gini),
        o.satisfaction.population
    );
    let _ = writeln!(
        s,
        "ledger respect_rate={} user_breaches={} system_breaches={}",
        f(o.respect_rate),
        o.user_breaches,
        o.system_breaches
    );
    let _ = writeln!(
        s,
        "misc oecd={} willingness={} denial={} interactions={} messages={}",
        f(o.oecd_score),
        f(o.mean_willingness),
        f(o.denial_rate),
        o.interactions,
        o.messages
    );
    for r in &o.samples {
        let _ = writeln!(
            s,
            "round {} sat={} trust={} respect={} consistency={} willingness={} success={} reports={}",
            r.round,
            f(r.mean_satisfaction),
            f(r.mean_trust),
            f(r.respect_rate),
            f(r.consistency),
            f(r.mean_willingness),
            f(r.success_rate),
            r.reports_filed
        );
    }
    s
}

/// The pinned fixture grid: every mechanism, several disclosure levels,
/// every selection-policy variant, churn, adaptation and anonymization.
fn fixtures() -> Vec<(&'static str, ScenarioBuilder)> {
    vec![
        ("eigentrust_full", ScenarioBuilder::small().seed(101)),
        (
            "eigentrust_adaptive_churn",
            ScenarioBuilder::small()
                .seed(102)
                .disclosure(DisclosureLevel::Timestamped)
                .adaptive_disclosure(true)
                .churn(0.3)
                .malicious_fraction(0.3),
        ),
        (
            "powertrust_mixed",
            ScenarioBuilder::small()
                .seed(103)
                .mechanism(MechanismKind::PowerTrust)
                .disclosure(DisclosureLevel::Topical)
                .malicious_fraction(0.3),
        ),
        (
            "beta_minimal_random",
            ScenarioBuilder::small()
                .seed(104)
                .mechanism(MechanismKind::Beta)
                .disclosure(DisclosureLevel::Minimal)
                .selection(SelectionPolicy::Random),
        ),
        (
            "trustme_best_strict",
            ScenarioBuilder::small()
                .seed(105)
                .mechanism(MechanismKind::TrustMe)
                .selection(SelectionPolicy::Best)
                .policy_profile(PolicyProfile::Strict),
        ),
        (
            "none_threshold",
            ScenarioBuilder::small()
                .seed(106)
                .mechanism(MechanismKind::None)
                .selection(SelectionPolicy::Threshold { threshold: 0.5 }),
        ),
        (
            "eigentrust_anonymized",
            ScenarioBuilder::small()
                .seed(107)
                .anonymization(AnonymizationConfig::default()),
        ),
        (
            "eigentrust_whitewash_overlay",
            ScenarioBuilder::small()
                .seed(108)
                .with_peer_sampling()
                .whitewash_attack()
                .shards(2),
        ),
    ]
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(format!("{name}.txt"));
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; run with GOLDEN_REGEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name}: outcome is not bit-identical to the pre-refactor golden"
    );
}

#[test]
fn scenario_outcomes_match_pre_refactor_goldens() {
    for (name, builder) in fixtures() {
        let outcome = builder.run().expect("fixture config is valid");
        check_golden(name, &fingerprint(&outcome));
    }
}

#[test]
fn sweep_report_matches_pre_refactor_golden() {
    let grid = SweepGrid::over(ScenarioBuilder::small().nodes(24).rounds(4).graph(4, 0.1))
        .mechanisms([
            MechanismKind::None,
            MechanismKind::Beta,
            MechanismKind::EigenTrust,
        ])
        .disclosures([DisclosureLevel::Minimal, DisclosureLevel::Full])
        .seeds([1, 2]);
    let report = SweepRunner::parallel().run(&grid).expect("valid grid");
    check_golden("sweep_report", &report.to_csv());
}

#[test]
fn repeated_runs_are_bit_identical() {
    for (name, builder) in fixtures() {
        let a = builder.clone().run().expect("valid");
        let b = builder.run().expect("valid");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name}: two runs of the same config diverged"
        );
    }
}

/// A deterministic gossip instance for the message-path goldens:
/// 100 nodes on a Watts-Strogatz overlay, one observation per node.
fn gossip_instance(n: usize, loss: f64, seed: u64) -> GossipNetwork {
    let mut rng = SimRng::seed_from_u64(seed);
    let graph = generators::watts_strogatz(n, 6, 0.1, &mut rng).expect("valid overlay");
    let config = NetworkConfig {
        latency: Box::new(ConstantLatency(SimDuration::from_millis(10))),
        loss: if loss > 0.0 {
            Box::new(BernoulliLoss::new(loss))
        } else {
            Box::new(NoLoss)
        },
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
    let mut obs_rng = SimRng::seed_from_u64(seed ^ 0xA5A5);
    for _ in 0..n * 10 {
        let observer = NodeId(obs_rng.gen_range(0..n as u32));
        let subject = obs_rng.gen_range(0..n);
        let value = if subject.is_multiple_of(2) { 0.9 } else { 0.2 };
        gossip.observe(observer, subject, value);
    }
    gossip
}

/// Bit-exact text form of a gossip run: report errors, wire costs and
/// the conserved push-sum mass, plus a sample of local estimates.
fn gossip_fingerprint(gossip: &GossipNetwork, n: usize) -> String {
    let report = gossip.report();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "report mean_error={} max_error={}",
        format_f64(report.mean_error),
        format_f64(report.max_error)
    );
    let _ = writeln!(
        s,
        "costs messages={} bytes={} rounds={}",
        report.costs.messages, report.costs.bytes, report.costs.rounds
    );
    let _ = writeln!(s, "total_weight {}", format_f64(gossip.total_weight()));
    for i in (0..n).step_by(17) {
        let _ = writeln!(
            s,
            "estimate node={i} s0={} s1={}",
            format_f64(gossip.estimate(NodeId::from_index(i), 0)),
            format_f64(gossip.estimate(NodeId::from_index(i), 1)),
        );
    }
    s
}

#[test]
fn gossip_outcomes_match_pre_refactor_goldens() {
    let n = 100;
    for (name, loss) in [("gossip_clean", 0.0), ("gossip_lossy", 0.3)] {
        let mut gossip = gossip_instance(n, loss, 20100);
        gossip.run(20);
        check_golden(name, &gossip_fingerprint(&gossip, n));
    }
}

#[test]
fn gossip_steady_state_recycles_every_field_buffer() {
    // The message path draws outgoing field buffers from the network's
    // BufferPool and returns them on consumption (delivery, loss,
    // dead-letter). At most one sent plus one delivered message can be
    // alive per node at any instant, so a pool pre-warmed to that hard
    // bound must serve 1k rounds without creating a single new buffer.
    let n = 50;
    for loss in [0.0, 0.2] {
        let mut gossip = gossip_instance(n, loss, 777);
        let pool = gossip.network_mut().pool_mut();
        let prewarmed: Vec<Vec<f64>> = (0..2 * n + 2)
            .map(|_| {
                let mut buf = pool.acquire();
                buf.reserve(1 + 2 * n);
                buf
            })
            .collect();
        for buf in prewarmed {
            pool.release(buf);
        }
        let baseline = pool.fresh_allocations();
        gossip.run(1000);
        let pool = gossip.network_mut().pool();
        assert_eq!(
            baseline,
            pool.fresh_allocations(),
            "loss={loss}: 1k rounds over a pre-warmed pool must allocate \
             zero new buffers"
        );
        assert!(pool.reuses() > 1000, "the pool is actually being exercised");
    }

    // Without pre-warming, allocations track the random working-set
    // high-water mark — bounded by the same 2n+2, never by round count.
    let mut gossip = gossip_instance(n, 0.0, 777);
    gossip.run(1000);
    let fresh = gossip.network_mut().pool().fresh_allocations();
    assert!(
        fresh <= 2 * n as u64 + 2,
        "cold-start allocations stay within the working-set bound: {fresh}"
    );
}

/// The dynamics fixtures: every churn-bearing preset, a targeted relay
/// outage racing session churn, and a lossy three-way split racing a
/// whitewash economy (exercises the boundary/outage/churn tie order).
fn dynamics_fixtures() -> Vec<(&'static str, DynamicsPlan)> {
    let secs = SimDuration::from_secs;
    let at = SimTime::from_secs;
    let mut outage = DynamicsPlan::relay_outage(8, at(3), at(9));
    outage.churn = Some(ChurnConfig {
        mean_session: secs(6),
        mean_downtime: secs(2),
        whitewash_probability: 0.2,
        crash_fraction: 0.4,
    });
    let mut split = DynamicsPlan::whitewash_attack(secs(8), secs(3));
    split.partitions = vec![PartitionWindow {
        cross_loss: 0.5,
        ..PartitionWindow::full_split(at(4), at(10), 3)
    }];
    vec![
        (
            "whitewash_attack",
            DynamicsPlan::whitewash_attack(secs(8), secs(3)),
        ),
        ("flash_crowd", DynamicsPlan::flash_crowd(secs(10), secs(2))),
        ("relay_outage", outage),
        ("split_window", split),
    ]
}

/// The runtime's full `(time, event)` stream over 15 s of 500 ms
/// steps, with the availability and identity count after each step.
/// `attached` drives a real [`Network`] through `advance`; otherwise
/// the same schedule runs through `advance_detached`.
fn dynamics_stream(plan: &DynamicsPlan, seed: u64, attached: bool) -> String {
    let n = 200;
    let mut runtime =
        DynamicsRuntime::new(plan.clone(), n, SimRng::seed_from_u64(seed)).expect("valid plan");
    let mut network = Network::new(NetworkConfig::default(), SimRng::seed_from_u64(1));
    for _ in 0..n {
        network.add_node();
    }
    if attached {
        runtime.install(&mut network);
    }
    let mut s = String::new();
    for step in 1..=30u64 {
        let to = SimTime::from_millis(step * 500);
        if attached {
            runtime.advance(&mut network, to);
            network.advance_to(to);
        } else {
            runtime.advance_detached(to);
        }
        for (at, event) in runtime.events() {
            let _ = writeln!(s, "{} {event:?}", at.as_micros());
        }
        runtime.clear_events();
        let _ = writeln!(
            s,
            "step {step} availability={} identities={}",
            format_f64(runtime.availability()),
            runtime.identity_count()
        );
    }
    s
}

#[test]
fn dynamics_event_stream_matches_golden() {
    let mut golden = String::new();
    for (seed, (name, plan)) in (2026..).zip(dynamics_fixtures()) {
        let attached = dynamics_stream(&plan, seed, true);
        assert_eq!(
            attached,
            dynamics_stream(&plan, seed, false),
            "{name}: attached and detached execution diverged"
        );
        let _ = writeln!(golden, "# {name}\n{attached}");
    }
    check_golden("dynamics_events", &golden);
}

#[test]
fn scenario_reuse_is_bit_identical_to_fresh() {
    // A `Scenario`'s scratch buffers must not leak state between
    // constructions: running a freshly built scenario twice from two
    // `Scenario::new` calls is the contract the sweep runner relies on.
    let config = ScenarioBuilder::small().seed(108).build().expect("valid");
    let a = Scenario::new(config.clone()).expect("valid").run();
    let b = Scenario::new(config).expect("valid").run();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}
