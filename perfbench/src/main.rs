//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! One process runs one workload with one seed and prints one JSON
//! result line (see `README.md` in this directory for the workloads,
//! the metrics and how to run it). The system under test is driven
//! only through public entry points: `ScenarioBuilder` and
//! `Scenario::run_observed` with a timing observer, a `ReplicaSet` fed
//! a `ServiceDriver` timeline generated before timing starts, and, in
//! the traced run of `mega_static`, `SweepGrid` and `SweepRunner`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--scale full|toy] [--trace-out FILE]
//! ```
//!
//! `perfbench/run.py` is the intended entry point: it builds this
//! binary, pins it to at most two CPUs, measures its peak resident set
//! and, for a traced run, pairs it with an untraced one.

#![forbid(unsafe_code)]

mod scenario;
mod service;
mod stats;
mod sweep;
mod trace;

use std::time::Instant;
use trace::Tracer;

/// Repeats of the measured body every run makes at least, whatever
/// `--seconds` says: medians need more than one sample, and the work
/// counters of two repeats must agree exactly.
const MIN_REPEATS: u32 = 2;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes for the self-test (`--scale toy`).
    pub toy: bool,
    pub trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("invalid --seed: {e}"))?;
    let seconds = get("--seconds")
        .ok_or("missing --seconds")?
        .parse::<f64>()
        .map_err(|e| format!("invalid --seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("invalid --seconds: {seconds}"));
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("invalid --trace: {other}")),
    };
    let toy = match get("--scale").as_deref() {
        None | Some("full") => false,
        Some("toy") => true,
        Some(other) => return Err(format!("invalid --scale: {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        toy,
        trace_out: get("--trace-out"),
    })
}

/// What one workload run produced: output-check accounting, metrics
/// and deterministic work counters.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    counters: Counters,
}

/// Deterministic work counters of one repeat, by name.
pub type Counters = Vec<(&'static str, u64)>;

impl Report {
    /// Counts `attempted` operations (ops, cells, scenario runs) of
    /// which `failed` failed.
    pub fn attempt(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        for _ in 0..failed {
            self.failures.push(what.to_string());
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a metric; a non-finite value is an output failure.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || format!("metric {name} is not finite"));
        self.metrics
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// Keeps the first repeat's work counters and records an output
    /// failure when a later repeat's differ: the zero-noise gate (same
    /// build, same seed, same work).
    pub fn repeat_counters(&mut self, now: Counters) {
        if self.counters.is_empty() {
            self.counters = now;
            return;
        }
        let differs = (self.counters != now).then(|| {
            format!(
                "work counters differ between repeats: {:?} vs {now:?}",
                self.counters
            )
        });
        self.check(differs.is_none(), || differs.unwrap_or_default());
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"counters\":{{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(","),
            counters.join(",")
        )
    }
}

/// A finite f64 in JSON form with every digit (`Display` prints the
/// shortest representation that round-trips, never an exponent).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// Runs `body(repeat)` at least [`MIN_REPEATS`] times, and then again
/// while one more repeat as long as the longest so far still ends
/// within `seconds`: a run measures for `seconds` without overshooting
/// by a repeat, so its length does not depend on how long repeats are.
pub fn repeat_for(seconds: f64, mut body: impl FnMut(u32)) {
    let start = Instant::now();
    let mut longest = 0.0f64;
    let mut repeats = 0;
    while repeats < MIN_REPEATS || start.elapsed().as_secs_f64() + longest <= seconds {
        let t0 = Instant::now();
        body(repeats);
        longest = longest.max(t0.elapsed().as_secs_f64());
        repeats += 1;
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let report = match args.workload.as_str() {
        "mega_static" | "overlay_churn" => scenario::run(&args, &mut tracer),
        "service_replicated" => service::run(&args, &mut tracer),
        other => Err(format!("unknown workload '{other}'")),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for failure in &report.failures {
        eprintln!("perfbench: output check failed: {failure}");
    }
    if let Some(path) = &args.trace_out {
        if tracer.enabled() {
            if let Err(e) = tracer.write_jsonl(path, &args.workload, args.seed) {
                eprintln!("perfbench: cannot write spans to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("{}", report.to_json());
}
