//! Attack resilience: how each reputation mechanism holds up as the
//! malicious fraction grows — the classic EigenTrust-style evaluation,
//! run on the scenario engine (adversaries lie in feedback and collude)
//! with permissive privacy policies, so no request is denied.
//!
//! Run with:
//! ```text
//! cargo run --release --example attack_resilience
//! ```

use tsn::core::{PolicyProfile, ScenarioBuilder};
use tsn::reputation::{MechanismKind, PopulationConfig, SelectionPolicy};

/// 100 users, 30 rounds, permissive policies, full disclosure.
fn base(mechanism: MechanismKind, seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .nodes(100)
        .rounds(30)
        .policy_profile(PolicyProfile::Permissive)
        .mechanism(mechanism)
        .seed(seed)
}

fn main() {
    println!("honest-consumer success rate vs malicious fraction");
    println!("(100 users, 30 rounds, proportional selection; higher is better)\n");
    print!("{:<12}", "mechanism");
    let fractions = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    for f in fractions {
        print!("  {:>6}", format!("{:.0}%", f * 100.0));
    }
    println!();

    for mechanism in MechanismKind::ALL {
        print!("{:<12}", mechanism.name());
        for malicious in fractions {
            // Average three seeds so single runs don't mislead.
            let mut total = 0.0;
            for seed in 0..3 {
                total += base(mechanism, 1000 + seed)
                    .malicious_fraction(malicious)
                    .selection(if mechanism == MechanismKind::None {
                        SelectionPolicy::Random
                    } else {
                        SelectionPolicy::Proportional { sharpness: 2.0 }
                    })
                    .run()
                    .expect("valid config")
                    .honest_success_rate;
            }
            print!("  {:>6.3}", total / 3.0);
        }
        println!();
    }

    println!("\ncollusion stress: 30% colluders in rings of 5");
    for mechanism in [
        MechanismKind::Beta,
        MechanismKind::EigenTrust,
        MechanismKind::TrustMe,
    ] {
        let outcome = base(mechanism, 99)
            .population(PopulationConfig {
                colluder: 0.3,
                ring_size: 5,
                ..Default::default()
            })
            .pretrusted(5)
            .run()
            .expect("valid config");
        println!(
            "  {:<11} honest-success {:.3}  consistency {:.3}  adversary-detection {:.3}",
            mechanism.name(),
            outcome.honest_success_rate,
            outcome.power.consistency,
            outcome.power.reliability
        );
    }
}
