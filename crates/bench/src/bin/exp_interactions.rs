//! **E1–E5 — the five Section-3 interaction claims**, each verified by
//! simulation (and E1–E3 also by the analytic dynamics; see
//! `fig1_interactions` for the full analytic edge table).
//!
//! Run: `cargo run --release -p tsn-bench --bin exp_interactions`

use tsn_bench::{emit, experiment_base, mean};
use tsn_core::report::{ExperimentRow, ExperimentTable};
use tsn_core::runner::DisclosureLevel;
use tsn_graph::metrics::spearman;
use tsn_reputation::MechanismKind;

fn pass(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

fn main() {
    let mut all_ok = true;

    // ------------------------------------------------------------------
    // E1: trust <-> satisfaction are mutually reinforcing.
    // Within-run evidence: the per-round series of mean trust and mean
    // satisfaction co-move.
    let mut rhos = Vec::new();
    for seed in 0..5 {
        let outcome = experiment_base(1100 + seed)
            .nodes(60)
            .rounds(20)
            .run()
            .expect("valid config");
        let trust = outcome.series("trust").expect("known series");
        let satisfaction = outcome.series("satisfaction").expect("known series");
        if let Some(r) = spearman(&trust, &satisfaction) {
            rhos.push(r);
        }
    }
    let e1 = mean(rhos.clone());
    let mut t1 = ExperimentTable::new(
        "E1",
        "trust<->satisfaction co-movement (per-round series)",
        ["spearman"],
    );
    t1.push(ExperimentRow::new("mean_over_runs", vec![e1]));
    emit(&t1);
    println!("E1 (positive co-movement): {}\n", pass(e1 > 0.3));
    all_ok &= e1 > 0.3;

    // ------------------------------------------------------------------
    // E2: the more efficient the mechanism, the more users trust the
    // system. Vary mechanism quality (None -> TrustMe -> Beta/EigenTrust)
    // under attack and compare trust.
    let mut t2 = ExperimentTable::new(
        "E2",
        "mechanism power -> trust (30% malicious)",
        ["reputation_facet", "global_trust"],
    );
    let mut by_power: Vec<(f64, f64)> = Vec::new();
    for mechanism in MechanismKind::ALL {
        let mut reps = Vec::new();
        let mut trusts = Vec::new();
        // 16 seeds: with 4, E3's five-point rank correlation sat at the
        // tie line and its verdict flipped with the engine's draws.
        for seed in 0..16 {
            let o = experiment_base(1200 + seed)
                .nodes(60)
                .rounds(15)
                .mechanism(mechanism)
                .malicious_fraction(0.3)
                .run()
                .expect("valid config");
            reps.push(o.facets.reputation);
            trusts.push(o.global_trust);
        }
        let (r, t) = (mean(reps), mean(trusts));
        by_power.push((r, t));
        t2.push(ExperimentRow::new(mechanism.name(), vec![r, t]));
    }
    emit(&t2);
    // The claim: more mechanism power → more trust. Checked two ways:
    // positive rank correlation over the mechanism sweep, and every real
    // mechanism (power > none) beating the powerless baseline on trust.
    let e2_rho = spearman(
        &by_power.iter().map(|x| x.0).collect::<Vec<_>>(),
        &by_power.iter().map(|x| x.1).collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let none_trust = by_power[0].1; // MechanismKind::ALL starts with None
    let e2 = e2_rho > 0.0 && by_power[1..].iter().all(|&(_, t)| t > none_trust);
    println!(
        "E2 (power->trust: rho {e2_rho:+.3}, all real mechanisms beat baseline): {}\n",
        pass(e2)
    );
    all_ok &= e2;

    // ------------------------------------------------------------------
    // E3: the more efficient the mechanism, the more users are satisfied.
    let sats: Vec<f64> = MechanismKind::ALL
        .iter()
        .map(|&mechanism| {
            mean((0..16).map(|seed| {
                experiment_base(1200 + seed)
                    .nodes(60)
                    .rounds(15)
                    .mechanism(mechanism)
                    .malicious_fraction(0.3)
                    .run()
                    .expect("valid config")
                    .facets
                    .satisfaction
            }))
        })
        .collect();
    let e3_rho = spearman(&by_power.iter().map(|x| x.0).collect::<Vec<_>>(), &sats).unwrap_or(0.0);
    let e3 = e3_rho > 0.0 && sats[1..].iter().all(|&s| s > sats[0]);
    println!(
        "E3 (power->satisfaction: rho {e3_rho:+.3}, all real mechanisms beat baseline): {}\n",
        pass(e3)
    );
    all_ok &= e3;

    // ------------------------------------------------------------------
    // E4: an efficient mechanism that finds the majority untrustworthy
    // leaves the system untrusted even though feedback keeps flowing.
    let mut t4 = ExperimentTable::new(
        "E4",
        "efficient mechanism, hostile majority (70% malicious, full disclosure)",
        ["reputation_facet", "global_trust", "last_round_reports"],
    );
    let mut hostile_trust = Vec::new();
    let mut honest_trust = Vec::new();
    let mut hostile_rep = Vec::new();
    let mut last_reports = Vec::new();
    for seed in 0..4 {
        let o = experiment_base(1400 + seed)
            .nodes(60)
            .rounds(18)
            .disclosure(DisclosureLevel::Full)
            .malicious_fraction(0.7)
            .run()
            .expect("valid config");
        hostile_trust.push(o.global_trust);
        hostile_rep.push(o.facets.reputation);
        last_reports.push(o.samples.last().expect("rounds ran").reports_filed as f64);

        let honest = experiment_base(1400 + seed)
            .nodes(60)
            .rounds(18)
            .disclosure(DisclosureLevel::Full)
            .malicious_fraction(0.0)
            .run()
            .expect("valid config");
        honest_trust.push(honest.global_trust);
    }
    t4.push(ExperimentRow::new(
        "hostile(70%)",
        vec![
            mean(hostile_rep.clone()),
            mean(hostile_trust.clone()),
            mean(last_reports.clone()),
        ],
    ));
    t4.push(ExperimentRow::new(
        "honest(0%)",
        vec![f64::NAN, mean(honest_trust.clone()), f64::NAN],
    ));
    emit(&t4);
    let e4 = mean(hostile_trust) < mean(honest_trust) - 0.05 && mean(last_reports) > 0.0;
    println!("E4 (low trust, feedback persists): {}\n", pass(e4));
    all_ok &= e4;

    // ------------------------------------------------------------------
    // E5a: more information gathered -> more efficient mechanism.
    let rep_at = |level: DisclosureLevel| {
        mean((0..4).map(|seed| {
            experiment_base(1500 + seed)
                .nodes(60)
                .rounds(15)
                .disclosure(level)
                .malicious_fraction(0.3)
                .run()
                .expect("valid config")
                .facets
                .reputation
        }))
    };
    let e5a = rep_at(DisclosureLevel::Full) > rep_at(DisclosureLevel::Minimal) + 0.02;
    // E5b: less trust -> less disclosure (adaptive users under a hostile,
    // leaky system).
    let willingness = |adaptive: bool| {
        mean((0..3).map(|seed| {
            experiment_base(1600 + seed)
                .nodes(60)
                .rounds(20)
                .disclosure(DisclosureLevel::Full)
                .malicious_fraction(0.5)
                .leak_probability(0.8)
                .adaptive_disclosure(adaptive)
                .run()
                .expect("valid config")
                .mean_willingness
        }))
    };
    let e5b = willingness(true) < willingness(false) - 1e-9;
    // E5c: "the more a user's privacy is respected, the more this user
    // is satisfied" — a *per-user* claim: pool (respect, satisfaction)
    // pairs across users of privacy-concerned populations.
    let mut respects = Vec::new();
    let mut user_sats = Vec::new();
    for seed in 0..4 {
        let o = experiment_base(1700 + seed)
            .nodes(60)
            .rounds(15)
            .privacy_concern(0.9)
            .malicious_fraction(0.3)
            .leak_probability(0.6)
            .run()
            .expect("valid config");
        respects.extend(o.per_user_respect.iter().copied());
        user_sats.extend(o.per_user_satisfaction.iter().copied());
    }
    let e5c_rho = spearman(&respects, &user_sats).unwrap_or(0.0);
    let e5c = e5c_rho > 0.1;

    let mut t5 = ExperimentTable::new("E5", "disclosure/trust/privacy loops", ["value"]);
    t5.push(ExperimentRow::new(
        "rep_power(level0)",
        vec![rep_at(DisclosureLevel::Minimal)],
    ));
    t5.push(ExperimentRow::new(
        "rep_power(level4)",
        vec![rep_at(DisclosureLevel::Full)],
    ));
    t5.push(ExperimentRow::new(
        "willingness(open_loop)",
        vec![willingness(false)],
    ));
    t5.push(ExperimentRow::new(
        "willingness(adaptive)",
        vec![willingness(true)],
    ));
    t5.push(ExperimentRow::new("respect<->satisfaction", vec![e5c_rho]));
    emit(&t5);
    println!("E5a (info->power): {}", pass(e5a));
    println!("E5b (distrust->retraction): {}", pass(e5b));
    println!("E5c (respect->satisfaction): {}", pass(e5c));
    all_ok &= e5a && e5b && e5c;

    println!("\nE1-E5 reproduction: {}", pass(all_ok));
}
