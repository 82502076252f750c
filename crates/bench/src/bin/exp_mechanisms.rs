//! **A1 — mechanism comparison under attack** (ablation): honest-consumer
//! success rate and mechanism power for every implemented mechanism as
//! the malicious fraction grows — the standard evaluation of the
//! reputation literature the paper builds on (EigenTrust §5, PowerTrust
//! §6), run on the scenario engine with permissive privacy policies (no
//! request is denied) and full feedback disclosure.
//!
//! Run: `cargo run --release -p tsn-bench --bin exp_mechanisms`

use tsn_bench::{emit, mean};
use tsn_core::report::{ExperimentRow, ExperimentTable};
use tsn_core::{PolicyProfile, ScenarioBuilder};
use tsn_reputation::{MechanismKind, SelectionPolicy};

fn main() {
    let fractions = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let seeds = 3;

    let mut success = ExperimentTable::new(
        "A1a",
        "honest-consumer success rate vs malicious fraction",
        fractions.iter().map(|f| format!("{:.0}%", f * 100.0)),
    );
    let mut power = ExperimentTable::new(
        "A1b",
        "mechanism consistency-with-reality vs malicious fraction",
        fractions.iter().map(|f| format!("{:.0}%", f * 100.0)),
    );

    let mut none_row = Vec::new();
    let mut best_rows: Vec<(MechanismKind, Vec<f64>)> = Vec::new();
    for mechanism in MechanismKind::ALL {
        let mut success_cells = Vec::new();
        let mut power_cells = Vec::new();
        for &malicious in &fractions {
            let mut s = Vec::new();
            let mut p = Vec::new();
            for seed in 0..seeds {
                let outcome = ScenarioBuilder::new()
                    .nodes(100)
                    .rounds(30)
                    .policy_profile(PolicyProfile::Permissive)
                    .malicious_fraction(malicious)
                    .mechanism(mechanism)
                    .selection(if mechanism == MechanismKind::None {
                        SelectionPolicy::Random
                    } else {
                        SelectionPolicy::Proportional { sharpness: 2.0 }
                    })
                    .seed(4000 + seed)
                    .run()
                    .expect("valid config");
                s.push(outcome.honest_success_rate);
                p.push(outcome.power.consistency);
            }
            success_cells.push(mean(s));
            power_cells.push(mean(p));
        }
        if mechanism == MechanismKind::None {
            none_row = success_cells.clone();
        } else {
            best_rows.push((mechanism, success_cells.clone()));
        }
        success.push(ExperimentRow::new(mechanism.name(), success_cells));
        power.push(ExperimentRow::new(mechanism.name(), power_cells));
    }
    emit(&success);
    emit(&power);

    // Reproduction shape: under heavy attack (>= 30%), every real
    // mechanism must beat the no-reputation baseline on honest success.
    let heavy = [3usize, 4, 5]; // 30%, 40%, 50%
    let mut ok = true;
    for (mechanism, cells) in &best_rows {
        let wins = heavy.iter().filter(|&&i| cells[i] > none_row[i]).count();
        let pass = wins >= 2;
        println!(
            "check {}: beats baseline on {}/3 heavy-attack points -> {}",
            mechanism.name(),
            wins,
            if pass { "PASS" } else { "FAIL" }
        );
        ok &= pass;
    }
    println!("\nA1 reproduction: {}", if ok { "PASS" } else { "FAIL" });
}
