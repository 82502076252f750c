//! Shared helpers for the experiment binaries that regenerate the
//! paper's figures (see DESIGN.md §5 for the experiment index and
//! their reproduction checks), plus the dependency-free micro-benchmark
//! harness used by `benches/`.

#![forbid(unsafe_code)]

use tsn_core::report::ExperimentTable;
use tsn_core::runner::ScenarioBuilder;

pub mod harness;

/// The standard experiment-scale scenario base: 100 users, 25 rounds,
/// 25% malicious. Every binary derives from this so results are
/// comparable across experiments.
pub fn experiment_base(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::experiment(seed)
}

/// Prints a table to stdout in both human and JSON form, the
/// machine-readable contract of DESIGN.md §5.
pub fn emit(table: &ExperimentTable) {
    println!("{}", table.render());
    println!("JSON {}", table.to_json());
    println!();
}

/// Mean of an iterator of f64 (panics on empty input).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    assert!(!v.is_empty(), "mean of empty sequence");
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_is_valid() {
        assert!(experiment_base(1).build().is_ok());
    }

    #[test]
    fn mean_works() {
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn mean_empty_panics() {
        let _ = mean([]);
    }
}
