//! The scenario-engine workloads, `mega_static` and `overlay_churn`.
//!
//! Each repeat builds the scenario (`setup_s`), then runs it with a
//! [`RoundClock`] observer whose callback instants split the run into
//! rounds from outside the engine.

use crate::stats::{median, Rate};
use crate::trace::{SpanId, Tracer};
use crate::{repeat_for, secs, Args, Counters, Report};
use std::time::Instant;
use tsn_core::runner::{Observer, ScenarioBuilder};
use tsn_core::{RoundSample, Scenario, ScenarioConfig, ScenarioOutcome};
use tsn_simnet::{MembershipRuntime, SimRng, MEMBERSHIP_SEED_SALT};

/// Extra scenario builds per repeat, for a steadier `setup_s`: one
/// build per repeat gives too few samples for a median.
const EXTRA_SETUPS: usize = 2;

/// Records the instant of every observer callback.
#[derive(Default)]
struct RoundClock {
    start: Option<Instant>,
    rounds: Vec<Instant>,
}

impl Observer for RoundClock {
    fn on_start(&mut self, _config: &ScenarioConfig) {
        self.start = Some(Instant::now());
    }

    fn on_round(&mut self, _sample: &RoundSample) {
        self.rounds.push(Instant::now());
    }
}

/// Runs `scenario` to completion under a [`RoundClock`]. Traced, it
/// records a `scenario.run` span under `parent` with one
/// `scenario.round` child per `on_round` gap (the first measured from
/// `on_start`) and a `scenario.final` child from the last `on_round`
/// to the return. Returns the outcome and the instant the run returned.
fn observed_run(
    scenario: &mut Scenario,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> (ScenarioOutcome, Instant) {
    let refresh_every = scenario.config().refresh_every;
    let mut clock = RoundClock::default();
    let start = Instant::now();
    let outcome = scenario.run_observed(&mut [&mut clock]);
    let end = Instant::now();
    if tracer.enabled() {
        let run = tracer.open("scenario.run", parent, start);
        let mut prev = clock.start.unwrap_or(start);
        for (round, &at) in clock.rounds.iter().enumerate() {
            let span = tracer.record("scenario.round", run, prev, at);
            tracer.set_attr(span, "round", round as f64);
            let refresh = (round + 1).is_multiple_of(refresh_every);
            tracer.set_attr(span, "refresh", if refresh { 1.0 } else { 0.0 });
            prev = at;
        }
        tracer.record("scenario.final", run, prev, end);
        tracer.close(run, end);
    }
    (outcome, end)
}

/// Output checks every scenario outcome must pass: facets finite and
/// in `[0, 1]`, work done, one sample per round.
pub fn check_outcome(report: &mut Report, outcome: &ScenarioOutcome, rounds: usize, label: &str) {
    let f = outcome.facets;
    for (facet, value) in [
        ("privacy", f.privacy),
        ("reputation", f.reputation),
        ("satisfaction", f.satisfaction),
        ("global trust", outcome.global_trust),
    ] {
        report.check(value.is_finite() && (0.0..=1.0).contains(&value), || {
            format!("{label}: {facet} facet {value} is not a finite value in [0, 1]")
        });
    }
    report.check(outcome.interactions > 0, || {
        format!("{label}: no interactions")
    });
    report.check(outcome.samples.len() == rounds, || {
        format!(
            "{label}: {} round samples for {rounds} rounds",
            outcome.samples.len()
        )
    });
}

fn builder(args: &Args) -> ScenarioBuilder {
    let nodes = match (args.workload.as_str(), args.toy) {
        (_, true) => 2_000,
        ("mega_static", false) => 100_000,
        _ => 30_000,
    };
    let mut builder = ScenarioBuilder::mega(nodes).rounds(20).seed(args.seed);
    if args.toy {
        // Below the auto-shard threshold: force the sharded engine the
        // full-size run uses.
        builder = builder.shards(2);
    }
    if args.workload == "overlay_churn" {
        builder = builder.with_peer_sampling().whitewash_attack();
    }
    builder
}

fn counters(outcome: &ScenarioOutcome) -> Counters {
    vec![
        ("interactions", outcome.interactions),
        (
            "reports_filed",
            outcome.samples.iter().map(|s| s.reports_filed).sum(),
        ),
        ("messages", outcome.messages),
        ("whitewashes", outcome.whitewashes),
        ("isolated", outcome.samples.iter().map(|s| s.isolated).sum()),
    ]
}

/// Runs `mega_static` or `overlay_churn`.
pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let config = builder(args).build().map_err(|e| e.to_string())?;
    let (nodes, rounds) = (config.nodes, config.rounds);
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut node_rounds = Rate::default();
    let mut ops = Rate::default();

    repeat_for(args.seconds, |repeat| {
        tracer.set_run(repeat);
        for _ in 0..EXTRA_SETUPS {
            let t0 = Instant::now();
            let built = builder(args).build_scenario();
            setups.push(secs(t0, Instant::now()));
            drop(built);
        }
        let t0 = Instant::now();
        let built = builder(args).build_scenario();
        let t1 = Instant::now();
        let mut scenario = match built {
            Ok(s) => s,
            Err(e) => {
                report.check(false, || format!("build_scenario: {e}"));
                return;
            }
        };
        let root = tracer.open("scenario.repeat", None, t0);
        tracer.record("scenario.build", root, t0, t1);
        let (outcome, t2) = observed_run(&mut scenario, tracer, root);
        tracer.close(root, t2);
        let run_s = secs(t1, t2);

        setups.push(secs(t0, t1));
        node_rounds.add((nodes * rounds) as f64, run_s);
        ops.add(outcome.interactions as f64, run_s);
        report.attempt(1, 0, "scenario run");
        check_outcome(&mut report, &outcome, rounds, &args.workload);
        report.repeat_counters(counters(&outcome));
    });

    report.metric("setup_s", median(&setups), "s");
    report.metric("node_rounds_per_s", node_rounds.per_second(), "1/s");
    report.metric("ops_per_s", ops.per_second(), "1/s");
    if tracer.enabled() {
        shadow_layers(&config, tracer);
        scenario_layer_metrics(&mut report, tracer);
        let repeat_ms: f64 = tracer.durations_ms("scenario.repeat").iter().sum();
        let parts_ms: f64 = ["scenario.build", "scenario.round", "scenario.final"]
            .iter()
            .map(|name| tracer.durations_ms(name).iter().sum::<f64>())
            .sum();
        report.metric("scenario.coverage", parts_ms / repeat_ms, "ratio");
        report.metric(
            "graph.watts_strogatz_ms",
            median(&tracer.durations_ms("graph.watts_strogatz")),
            "ms",
        );
        report.metric(
            "membership.shuffle_ms_p50",
            median(&tracer.durations_ms("membership.shuffle_round")),
            "ms",
        );
        if args.workload == "mega_static" {
            crate::sweep::layer_metrics(args, &mut report, tracer);
        }
    }
    Ok(report)
}

/// The per-round metrics, computed from the `scenario.round` and
/// `scenario.final` spans.
fn scenario_layer_metrics(report: &mut Report, tracer: &Tracer) {
    let rounds = tracer.durations_ms("scenario.round");
    let index = tracer.attr_values("scenario.round", "round");
    let refresh = tracer.attr_values("scenario.round", "refresh");
    let pick = |keep: &dyn Fn(f64, f64) -> bool| -> Vec<f64> {
        rounds
            .iter()
            .zip(index.iter().zip(&refresh))
            .filter(|&(_, (&i, &r))| keep(i, r))
            .map(|(&ms, _)| ms)
            .collect()
    };
    let plain = median(&pick(&|i, r| i > 0.0 && r == 0.0));
    let refreshing = median(&pick(&|_, r| r == 1.0));
    report.metric("scenario.round_ms_p50", median(&rounds), "ms");
    report.metric(
        "scenario.first_round_ms",
        median(&pick(&|i, _| i == 0.0)),
        "ms",
    );
    report.metric("scenario.round_plain_ms_p50", plain, "ms");
    report.metric("scenario.round_refresh_ms_p50", refreshing, "ms");
    report.metric("scenario.refresh_excess_ms", refreshing - plain, "ms");
    report.metric(
        "scenario.final_ms",
        median(&tracer.durations_ms("scenario.final")),
        "ms",
    );
}

/// Shadow calls, after timing: the graph generator on the scenario's
/// own inputs, and the membership shuffle when the overlay is on.
fn shadow_layers(config: &ScenarioConfig, tracer: &mut Tracer) {
    for _ in 0..3 {
        time_watts_strogatz(config, tracer);
    }
    if let Some(membership) = config.membership {
        let Ok(mut runtime) =
            MembershipRuntime::new(config.nodes, membership, config.seed ^ MEMBERSHIP_SEED_SALT)
        else {
            return;
        };
        for _ in 0..config.rounds {
            let start = Instant::now();
            runtime.shuffle_round(|_| true, |_, _| true);
            tracer.record("membership.shuffle_round", None, start, Instant::now());
        }
    }
}

/// One `graph.watts_strogatz` span: the generator call `Scenario::new`
/// makes, with the same n, degree, beta and RNG stream.
fn time_watts_strogatz(config: &ScenarioConfig, tracer: &mut Tracer) {
    let mut rng = SimRng::seed_from_u64(config.seed);
    let mut graph_rng = rng.fork(1);
    let start = Instant::now();
    let graph = tsn_graph::generators::watts_strogatz(
        config.nodes,
        config.graph_degree,
        config.graph_beta,
        &mut graph_rng,
    );
    let end = Instant::now();
    let edges = graph.map_or(0, |g| std::hint::black_box(g).edge_count());
    let span = tracer.record("graph.watts_strogatz", None, start, end);
    tracer.set_attr(span, "edges", edges as f64);
}
