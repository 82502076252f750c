//! **A2 — churn and whitewashing sensitivity** (ablation): whitewashers
//! shed their bad reputation by re-joining under fresh identities; churn
//! takes nodes offline mid-run. Both erode mechanism power — and
//! whitewashing is exactly the attack that *requires* persistent
//! identities, i.e. the privacy-reputation tension in its sharpest form.
//!
//! Runs on the scenario engine with permissive privacy policies (no
//! request is denied): 80 users, 30 rounds, one interaction per user per
//! round. The adversaries of A2a/A2b are whitewasher-class slots. Every
//! user's session lasts a mean of k rounds and ends in a 1 µs downtime;
//! a whitewasher always comes back under a fresh identity, everyone else
//! under their own. The mechanism then sees a newcomer (prior score)
//! while ground truth knows it is the same adversary. A2c swaps the
//! whitewashers for plain malicious users and takes a steady fraction of
//! the population offline each round.
//!
//! Run: `cargo run --release -p tsn-bench --bin exp_churn`

use tsn_bench::{emit, mean};
use tsn_core::report::{ExperimentRow, ExperimentTable};
use tsn_core::{DynamicsPlan, PolicyProfile, ScenarioBuilder, ScenarioOutcome, ROUND_DURATION};
use tsn_reputation::{MechanismKind, PopulationConfig};
use tsn_simnet::{ChurnConfig, SimDuration};

/// The A2 scenario for one mechanism and seed; callers add the
/// population and dynamics under test.
fn base(mechanism: MechanismKind, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .nodes(80)
        .rounds(30)
        .interactions_per_node(1)
        .policy_profile(PolicyProfile::Permissive)
        .mechanism(mechanism)
        .seed(seed)
}

/// 30 % whitewashers, re-joining under a fresh identity once every
/// `mean_session` rounds on average (`None`: they never leave).
fn run_whitewash(
    mechanism: MechanismKind,
    mean_session: Option<f64>,
    seed: u64,
) -> ScenarioOutcome {
    let mut builder = base(mechanism, seed).population(PopulationConfig {
        whitewasher: 0.3,
        ..Default::default()
    });
    if let Some(rounds) = mean_session {
        builder = builder.dynamics(DynamicsPlan {
            churn: Some(ChurnConfig {
                mean_session: ROUND_DURATION.mul_f64(rounds),
                mean_downtime: SimDuration::from_micros(1),
                whitewash_probability: 0.0,
                crash_fraction: 0.0,
            }),
            ..Default::default()
        });
    }
    builder.run().expect("valid config")
}

fn main() {
    let seeds = 3;
    let mechanisms = [
        MechanismKind::Beta,
        MechanismKind::EigenTrust,
        MechanismKind::PowerTrust,
    ];

    // --- Whitewashing sweep.
    let sessions: [(&str, Option<f64>); 4] = [
        ("never", None),
        ("every10", Some(10.0)),
        ("every5", Some(5.0)),
        ("every2", Some(2.0)),
    ];
    let mut t1 = ExperimentTable::new(
        "A2a",
        "honest success rate vs mean rounds between whitewashes (30% whitewashers)",
        sessions.iter().map(|(l, _)| *l),
    );
    let mut t2 = ExperimentTable::new(
        "A2b",
        "adversary detection (reliability, on current identities) vs whitewash frequency",
        sessions.iter().map(|(l, _)| *l),
    );
    let mut never_vs_fast = Vec::new();
    for &mechanism in &mechanisms {
        let mut s_cells = Vec::new();
        let mut r_cells = Vec::new();
        for &(_, session) in &sessions {
            let outcomes: Vec<ScenarioOutcome> = (0..seeds)
                .map(|s| run_whitewash(mechanism, session, 5000 + s))
                .collect();
            s_cells.push(mean(outcomes.iter().map(|o| o.honest_success_rate)));
            r_cells.push(mean(outcomes.iter().map(|o| o.power.reliability)));
        }
        never_vs_fast.push((s_cells[0], s_cells[3], r_cells[0], r_cells[3]));
        t1.push(ExperimentRow::new(mechanism.name(), s_cells));
        t2.push(ExperimentRow::new(mechanism.name(), r_cells));
    }
    emit(&t1);
    emit(&t2);

    // --- Churn sweep (no whitewashing): steady offline fraction.
    let offline = [0.0, 0.2, 0.4];
    let mut t3 = ExperimentTable::new(
        "A2c",
        "honest success rate vs steady offline fraction (30% malicious)",
        offline.iter().map(|f| format!("{:.0}%", f * 100.0)),
    );
    for &mechanism in &mechanisms {
        let cells: Vec<f64> = offline
            .iter()
            .map(|&p| {
                mean((0..seeds).map(|s| {
                    base(mechanism, 6000 + s)
                        .malicious_fraction(0.3)
                        .churn(p)
                        .run()
                        .expect("valid config")
                        .honest_success_rate
                }))
            })
            .collect();
        t3.push(ExperimentRow::new(mechanism.name(), cells));
    }
    emit(&t3);

    // Reproduction shape: whitewashing must help adversaries — honest
    // success drops as whitewashing accelerates (the detection column is
    // reported for context; how far it falls depends on how much
    // evidence a mechanism needs before it distrusts a newcomer).
    let mut ok = true;
    for (i, &mechanism) in mechanisms.iter().enumerate() {
        let (s_never, s_fast, r_never, r_fast) = never_vs_fast[i];
        let pass = s_fast < s_never - 0.02;
        println!(
            "check {}: honest success {:.3}->{:.3} (adversary detection {:.3}->{:.3}) -> {}",
            mechanism.name(),
            s_never,
            s_fast,
            r_never,
            r_fast,
            if pass { "PASS" } else { "FAIL" }
        );
        ok &= pass;
    }
    println!("\nA2 reproduction: {}", if ok { "PASS" } else { "FAIL" });
}
