//! Integration coverage for the unified experiment-runner API through
//! the facade crate: builder validation, observer hooks, and the
//! determinism guarantees of the parallel sweep runner.

use tsn::prelude::*;
use tsn::reputation::MechanismKind;

fn tiny() -> ScenarioBuilder {
    ScenarioBuilder::small().nodes(24).rounds(4).graph(4, 0.1)
}

#[test]
fn builder_rejects_bad_knobs_with_field_names() {
    for (builder, field) in [
        (ScenarioBuilder::new().nodes(3), "nodes"),
        (ScenarioBuilder::new().rounds(0), "rounds"),
        (ScenarioBuilder::new().churn(2.0), "dynamics"),
        (
            ScenarioBuilder::new().leak_probability(1.5),
            "leak_probability",
        ),
        (
            ScenarioBuilder::new().privacy_concern(-0.1),
            "privacy_concern_mean",
        ),
        (ScenarioBuilder::new().graph(5, 0.1), "graph_degree"),
        (ScenarioBuilder::new().graph(8, 1.5), "graph_beta"),
        (ScenarioBuilder::new().refresh_every(0), "refresh_every"),
        (ScenarioBuilder::new().malicious_fraction(1.1), "population"),
    ] {
        let err = builder.build().expect_err("knob must be rejected");
        assert_eq!(err.field, field, "wrong field for {field}: {err}");
        assert!(err.to_string().starts_with("invalid "), "display: {err}");
    }
}

#[test]
fn builder_run_is_deterministic_per_seed() {
    let a = tiny().seed(11).run().unwrap();
    let b = tiny().seed(11).run().unwrap();
    assert_eq!(a.global_trust, b.global_trust);
    assert_eq!(a.per_user_trust, b.per_user_trust);
    assert_eq!(a.messages, b.messages);
    let c = tiny().seed(12).run().unwrap();
    assert_ne!(a.global_trust, c.global_trust);
}

#[test]
fn typed_disclosure_levels_cover_the_ladder() {
    for level in DisclosureLevel::ALL {
        let config = tiny().disclosure(level).build().unwrap();
        assert_eq!(config.disclosure_level, level.index());
    }
    assert_eq!(DisclosureLevel::from_index(99), None);
}

#[test]
fn observers_stream_what_the_outcome_records() {
    struct Samples(Vec<tsn::core::RoundSample>);
    impl Observer for Samples {
        fn on_round(&mut self, sample: &tsn::core::RoundSample) {
            self.0.push(*sample);
        }
    }
    let mut streamed = Samples(Vec::new());
    let outcome = tiny().seed(5).run_observed(&mut [&mut streamed]).unwrap();
    assert_eq!(streamed.0, outcome.samples);
}

#[test]
fn sweep_cells_are_bit_identical_across_runs() {
    let grid = || {
        SweepGrid::over(tiny())
            .mechanisms([MechanismKind::Beta, MechanismKind::EigenTrust])
            .disclosures([DisclosureLevel::Minimal, DisclosureLevel::Full])
            .seeds([7, 8])
    };
    let a = SweepRunner::parallel().run(&grid()).unwrap();
    let b = SweepRunner::parallel().run(&grid()).unwrap();
    assert_eq!(a, b, "same grid must reproduce bit-identically");
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn parallel_and_serial_sweeps_agree() {
    let grid = SweepGrid::over(tiny()).all_mechanisms().seeds([1, 2]);
    let serial = SweepRunner::serial().run(&grid).unwrap();
    let parallel = SweepRunner::with_threads(8).run(&grid).unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial.cells.len(), 10);
    // Cells arrive in grid order regardless of scheduling.
    assert!(serial
        .cells
        .iter()
        .enumerate()
        .all(|(i, c)| c.cell.index == i));
}

#[test]
fn sweep_rejects_invalid_base_without_running() {
    let err = SweepRunner::parallel()
        .run(&SweepGrid::over(ScenarioBuilder::new().nodes(2)))
        .expect_err("invalid base");
    assert_eq!(err.field, "nodes");
}

#[test]
fn sweep_report_emitters_are_consistent() {
    let grid = SweepGrid::over(tiny()).disclosures(DisclosureLevel::ALL);
    let report = SweepRunner::parallel().run(&grid).unwrap();
    let csv = report.to_csv();
    assert_eq!(csv.lines().count(), 1 + report.cells.len());
    for cell in &report.cells {
        assert!(csv.contains(cell.cell.mechanism.name()));
    }
    let json = report.to_json();
    assert!(json.contains("\"disclosure\":0") && json.contains("\"disclosure\":4"));
    let best = report.best_by_trust().unwrap();
    assert!(report.cells.iter().all(|c| c.trust <= best.trust));
}
