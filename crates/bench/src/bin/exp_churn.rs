//! **A2 — churn and whitewashing sensitivity** (ablation): whitewashers
//! shed their bad reputation by re-joining under fresh identities; churn
//! takes nodes offline mid-run. Both erode mechanism power — and
//! whitewashing is exactly the attack that *requires* persistent
//! identities, i.e. the privacy-reputation tension in its sharpest form.
//!
//! The experiment keeps a fixed population of behaviour "slots" whose
//! *current identity* changes on whitewash: the mechanism sees a fresh
//! node (prior score), while ground truth knows it is the same adversary.
//!
//! Run: `cargo run --release -p tsn-bench --bin exp_churn`

use tsn_bench::{emit, mean};
use tsn_core::report::{ExperimentRow, ExperimentTable};
use tsn_graph::generators;
use tsn_reputation::mechanism::build_mechanism;
use tsn_reputation::{
    DisclosurePolicy, MechanismKind, Population, PopulationConfig, SelectionPolicy,
};
use tsn_simnet::{NodeId, SimRng, SimTime};

/// Runs one whitewashing economy: returns (honest success rate,
/// mean score of adversarial current identities at the end).
fn run_whitewash(
    mechanism_kind: MechanismKind,
    whitewash_every: Option<usize>,
    offline_fraction: f64,
    seed: u64,
) -> (f64, f64) {
    let n = 80;
    let rounds = 30;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut graph_rng = rng.fork(1);
    let graph = generators::watts_strogatz(n, 8, 0.1, &mut graph_rng).expect("valid parameters");
    let mut pop_rng = rng.fork(2);
    let mut population = Population::new(n, PopulationConfig::with_malicious(0.3), &mut pop_rng);

    // identity[slot] = the NodeId the mechanism currently knows this slot as.
    let mut identity: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    let mut next_id = n;
    let mut mechanism = build_mechanism(mechanism_kind, n);
    let disclosure = DisclosurePolicy::full();
    let selection = SelectionPolicy::Proportional { sharpness: 2.0 };

    let mut ok = 0u64;
    let mut tried = 0u64;
    for round in 0..rounds {
        // Whitewash: adversarial slots take fresh identities periodically.
        if let Some(every) = whitewash_every {
            if round > 0 && round % every == 0 {
                for (slot, id) in identity.iter_mut().enumerate().take(n) {
                    if population.is_adversarial(NodeId::from_index(slot)) {
                        *id = NodeId::from_index(next_id);
                        next_id += 1;
                        mechanism.resize(next_id);
                    }
                }
            }
        }
        // Churn: a random subset is offline this round.
        let offline: Vec<bool> = (0..n).map(|_| rng.gen_bool(offline_fraction)).collect();
        for consumer_slot in 0..n {
            if offline[consumer_slot] {
                continue;
            }
            let consumer = NodeId::from_index(consumer_slot);
            let candidates: Vec<usize> = graph
                .neighbors(consumer)
                .iter()
                .filter(|p| !offline[p.index()])
                .map(|p| p.index())
                .collect();
            let current_ids: Vec<NodeId> = candidates.iter().map(|&s| identity[s]).collect();
            let mech = &mechanism;
            let Some(chosen_id) = selection.select(&current_ids, |c| mech.score(c), &mut rng)
            else {
                continue;
            };
            let provider_slot = candidates[current_ids
                .iter()
                .position(|&c| c == chosen_id)
                .expect("chosen from list")];
            let provider = NodeId::from_index(provider_slot);
            let outcome = population.interact(provider, consumer, &mut rng);
            // Honest-consumer metric only.
            if !population.is_adversarial(consumer) {
                tried += 1;
                if outcome.is_success() {
                    ok += 1;
                }
            }
            let mut report = population.feedback(consumer, provider, outcome, SimTime::ZERO, None);
            // Reports are filed under *current* identities.
            report.rater = identity[consumer_slot];
            report.ratee = identity[provider_slot];
            mechanism.record(&disclosure.view(&report));
        }
        if (round + 1) % 5 == 0 {
            mechanism.refresh();
        }
    }
    mechanism.refresh();
    let adv_scores: Vec<f64> = (0..n)
        .filter(|&s| population.is_adversarial(NodeId::from_index(s)))
        .map(|s| mechanism.score(identity[s]))
        .collect();
    (
        if tried == 0 {
            0.0
        } else {
            ok as f64 / tried as f64
        },
        mean(adv_scores),
    )
}

fn main() {
    let seeds = 3;
    let mechanisms = [
        MechanismKind::Beta,
        MechanismKind::EigenTrust,
        MechanismKind::PowerTrust,
    ];

    // --- Whitewashing sweep.
    let periods: [(&str, Option<usize>); 4] = [
        ("never", None),
        ("every10", Some(10)),
        ("every5", Some(5)),
        ("every2", Some(2)),
    ];
    let mut t1 = ExperimentTable::new(
        "A2a",
        "honest success rate vs whitewash frequency (30% adversaries)",
        periods.iter().map(|(l, _)| *l),
    );
    let mut t2 = ExperimentTable::new(
        "A2b",
        "mean adversary score (their current identity) vs whitewash frequency",
        periods.iter().map(|(l, _)| *l),
    );
    let mut never_vs_fast = Vec::new();
    for &mechanism in &mechanisms {
        let mut s_cells = Vec::new();
        let mut a_cells = Vec::new();
        for &(_, every) in &periods {
            let results: Vec<(f64, f64)> = (0..seeds)
                .map(|s| run_whitewash(mechanism, every, 0.0, 5000 + s))
                .collect();
            s_cells.push(mean(results.iter().map(|r| r.0)));
            a_cells.push(mean(results.iter().map(|r| r.1)));
        }
        never_vs_fast.push((s_cells[0], s_cells[3], a_cells[0], a_cells[3]));
        t1.push(ExperimentRow::new(mechanism.name(), s_cells));
        t2.push(ExperimentRow::new(mechanism.name(), a_cells));
    }
    emit(&t1);
    emit(&t2);

    // --- Churn sweep (no whitewashing): offline fraction.
    let offline = [0.0, 0.2, 0.4];
    let mut t3 = ExperimentTable::new(
        "A2c",
        "honest success rate vs offline fraction per round",
        offline.iter().map(|f| format!("{:.0}%", f * 100.0)),
    );
    for &mechanism in &mechanisms {
        let cells: Vec<f64> = offline
            .iter()
            .map(|&frac| mean((0..seeds).map(|s| run_whitewash(mechanism, None, frac, 6000 + s).0)))
            .collect();
        t3.push(ExperimentRow::new(mechanism.name(), cells));
    }
    emit(&t3);

    // Reproduction shape: whitewashing must help adversaries — honest
    // success drops as whitewashing accelerates (the adversary-score
    // column is reported for context; evidence-hungry mechanisms show it
    // rising, while fast-converging ones re-learn within a round or two).
    let mut ok = true;
    for (i, &mechanism) in mechanisms.iter().enumerate() {
        let (s_never, s_fast, a_never, a_fast) = never_vs_fast[i];
        let pass = s_fast < s_never - 0.02;
        println!(
            "check {}: honest success {:.3}->{:.3} (adversary score {:.3}->{:.3}) -> {}",
            mechanism.name(),
            s_never,
            s_fast,
            a_never,
            a_fast,
            if pass { "PASS" } else { "FAIL" }
        );
        ok &= pass;
    }
    println!("\nA2 reproduction: {}", if ok { "PASS" } else { "FAIL" });
}
