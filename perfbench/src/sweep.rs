//! The sweep layer, timed in the traced run of `mega_static`: the
//! Figure 2 (right) grid over a few seeds on `SweepRunner::parallel()`,
//! then every cell alone through `Scenario::new` + `run`.
//!
//! No workload drives the sweep runner end to end. A sweep of 80-node
//! cells keeps both CPUs busy on cache-resident work, and its throughput
//! followed the shared host's load by more than the benchmark's bound
//! from run to run (see `README.md`), so the layer is measured here,
//! after the workload's timing has stopped.

use crate::scenario::check_outcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Report};
use std::time::Instant;
use tsn_core::runner::{DisclosureLevel, ScenarioBuilder, SweepGrid, SweepReport, SweepRunner};
use tsn_core::Scenario;
use tsn_reputation::MechanismKind;

/// Timed sweeps of the grid; `sweep.cells_per_s` is their median.
const SWEEPS: usize = 3;

fn grid(args: &Args) -> SweepGrid {
    let (levels, seeds): (&[DisclosureLevel], u64) = if args.toy {
        (&DisclosureLevel::ALL[..2], 2)
    } else {
        (&DisclosureLevel::ALL, 16)
    };
    SweepGrid::over(ScenarioBuilder::experiment(args.seed).nodes(80).rounds(20))
        .disclosures(levels.iter().copied())
        .mechanisms([
            MechanismKind::Beta,
            MechanismKind::EigenTrust,
            MechanismKind::PowerTrust,
        ])
        .seeds((0..seeds).map(|i| args.seed.wrapping_mul(1000).wrapping_add(i)))
}

/// Output checks: every cell present, in grid order, with valid facets.
fn check_report(report: &mut Report, grid: &SweepGrid, sweep: &SweepReport) {
    let expected = grid.cells();
    report.check(sweep.cells.len() == expected.len(), || {
        format!(
            "{} cells reported for a {}-cell grid",
            sweep.cells.len(),
            expected.len()
        )
    });
    let mut bad = 0;
    for (result, cell) in sweep.cells.iter().zip(&expected) {
        let f = result.facets;
        let valid = [f.privacy, f.reputation, f.satisfaction, result.trust]
            .iter()
            .all(|v| v.is_finite() && (0.0..=1.0).contains(v));
        if result.cell != *cell || !valid {
            bad += 1;
        }
    }
    report.attempt(
        expected.len() as u64,
        bad,
        "sweep cell out of grid order or with invalid facets",
    );
    report.check(sweep.cells.iter().any(|c| c.interactions > 0), || {
        "no sweep cell interacted".to_string()
    });
}

/// Times [`SWEEPS`] sweeps of the grid (`sweep.run` spans) and every
/// cell alone (`sweep.cell`, with a `sweep.cell_setup` child), checks
/// every report, and records the sweep layer's metrics.
pub fn layer_metrics(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let grid = grid(args);
    if let Err(e) = grid.validate() {
        report.check(false, || format!("sweep grid: {e}"));
        return;
    }
    let runner = SweepRunner::parallel();
    let mut first: Option<SweepReport> = None;
    for _ in 0..SWEEPS {
        let t0 = Instant::now();
        let result = runner.run(&grid);
        tracer.record("sweep.run", None, t0, Instant::now());
        let sweep = match result {
            Ok(sweep) => sweep,
            Err(e) => {
                report.check(false, || format!("SweepRunner::run: {e}"));
                return;
            }
        };
        check_report(report, &grid, &sweep);
        match &first {
            None => first = Some(sweep),
            Some(first) => report.check(*first == sweep, || {
                "sweep reports differ between runs".to_string()
            }),
        }
    }
    let Some(first) = first else {
        return;
    };
    shadow_cells(&grid, &first, report, tracer);

    let run_ms = median(&tracer.durations_ms("sweep.run"));
    let cell_ms = tracer.durations_ms("sweep.cell");
    report.metric(
        "sweep.cells_per_s",
        grid.len() as f64 / (run_ms / 1e3),
        "1/s",
    );
    report.metric("sweep.cell_ms_p50", median(&cell_ms), "ms");
    report.metric(
        "sweep.cell_setup_ms_p50",
        median(&tracer.durations_ms("sweep.cell_setup")),
        "ms",
    );
    report.metric(
        "sweep.efficiency",
        cell_ms.iter().sum::<f64>() / (runner.threads() as f64 * run_ms),
        "ratio",
    );
}

/// Every cell alone through `Scenario::new` and `run`, each outcome
/// checked against its sweep cell.
fn shadow_cells(grid: &SweepGrid, sweep: &SweepReport, report: &mut Report, tracer: &mut Tracer) {
    for (cell, result) in grid.cells().iter().zip(&sweep.cells) {
        let config = grid.config_for(cell);
        let rounds = config.rounds;
        let t0 = Instant::now();
        let built = Scenario::new(config);
        let t1 = Instant::now();
        let Ok(mut scenario) = built else {
            report.check(false, || format!("Scenario::new for cell {}", cell.label()));
            continue;
        };
        let outcome = scenario.run();
        let span = tracer.record("sweep.cell", None, t0, Instant::now());
        tracer.record("sweep.cell_setup", span, t0, t1);
        check_outcome(report, &outcome, rounds, &cell.label());
        report.check(
            outcome.facets == result.facets
                && outcome.interactions == result.interactions
                && outcome.messages == result.messages,
            || format!("{}: a lone run differs from its sweep cell", cell.label()),
        );
    }
}
