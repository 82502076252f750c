//! Grid sweeps over the settable dimensions, executed in parallel.
//!
//! The paper's figures are sweeps: mechanism × disclosure × policy
//! profile (× seed) grids whose every cell is one scenario run. A
//! [`SweepGrid`] declares the grid, a [`SweepRunner`] executes the
//! cells — serially or across std threads — and a [`SweepReport`]
//! holds the per-cell summaries with CSV/JSON emitters.
//!
//! Determinism: a cell's configuration (including its seed) depends
//! only on its grid coordinates, never on which thread executes it or
//! in which order, and the report is always in grid order — so serial
//! and parallel runs produce identical reports.

use crate::config::{PolicyProfile, ScenarioConfig};
use crate::facets::FacetScores;
use crate::json::{format_f64, JsonValue};
use crate::report::{csv_field, ExperimentRow, ExperimentTable};
use crate::runner::{DisclosureLevel, ScenarioBuilder, ValidationError};
use crate::scenario::{run_scenario, ScenarioOutcome};
use std::collections::BTreeMap;
use tsn_reputation::MechanismKind;
use tsn_simnet::steal::for_each_chunk_mut;

/// A declared sweep: a base configuration plus the dimensions to vary.
///
/// Dimensions default to the base's own value; widen them with the
/// fluent setters. Cells are enumerated in row-major order
/// (mechanism, then disclosure, then profile, then seed).
///
/// ```
/// use tsn_core::runner::{ScenarioBuilder, SweepGrid, SweepRunner};
///
/// let grid = SweepGrid::over(ScenarioBuilder::small())
///     .all_mechanisms()
///     .seeds([1, 2]);
/// assert_eq!(grid.len(), 5 * 2);
/// let report = SweepRunner::parallel().run(&grid).expect("valid grid");
/// assert_eq!(report.cells.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct SweepGrid {
    base: ScenarioConfig,
    mechanisms: Vec<MechanismKind>,
    disclosures: Vec<DisclosureLevel>,
    profiles: Vec<PolicyProfile>,
    seeds: Vec<u64>,
}

/// One grid coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// Position in grid order (stable across runs and thread counts).
    pub index: usize,
    /// Reputation mechanism of this cell.
    pub mechanism: MechanismKind,
    /// Disclosure level of this cell.
    pub disclosure: DisclosureLevel,
    /// Policy profile of this cell.
    pub profile: PolicyProfile,
    /// Scenario seed of this cell.
    pub seed: u64,
}

impl SweepCell {
    /// Compact label for tables: `"eigentrust/level3/mixed/s42"`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/s{}",
            self.mechanism.name(),
            self.disclosure.label(),
            self.profile.label(),
            self.seed
        )
    }
}

impl SweepGrid {
    /// Declares a sweep around the given base scenario. Every dimension
    /// starts as the singleton of the base's own value.
    pub fn over(base: ScenarioBuilder) -> SweepGrid {
        let base = base.into_config_unchecked();
        SweepGrid {
            mechanisms: vec![base.mechanism],
            disclosures: vec![
                DisclosureLevel::from_index(base.disclosure_level).unwrap_or(DisclosureLevel::Full)
            ],
            profiles: vec![base.policy_profile],
            seeds: vec![base.seed],
            base,
        }
    }

    /// Sweeps the given mechanisms.
    pub fn mechanisms(mut self, mechanisms: impl IntoIterator<Item = MechanismKind>) -> Self {
        self.mechanisms = mechanisms.into_iter().collect();
        self
    }

    /// Sweeps every implemented mechanism.
    pub fn all_mechanisms(self) -> Self {
        self.mechanisms(MechanismKind::ALL)
    }

    /// Sweeps the given disclosure levels.
    pub fn disclosures(mut self, levels: impl IntoIterator<Item = DisclosureLevel>) -> Self {
        self.disclosures = levels.into_iter().collect();
        self
    }

    /// Sweeps the full disclosure ladder.
    pub fn all_disclosures(self) -> Self {
        self.disclosures(DisclosureLevel::ALL)
    }

    /// Sweeps the given policy profiles.
    pub fn profiles(mut self, profiles: impl IntoIterator<Item = PolicyProfile>) -> Self {
        self.profiles = profiles.into_iter().collect();
        self
    }

    /// Sweeps all three policy profiles.
    pub fn all_profiles(self) -> Self {
        self.profiles(PolicyProfile::ALL)
    }

    /// Sweeps the given seeds (Monte-Carlo repetitions per point).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.mechanisms.len() * self.disclosures.len() * self.profiles.len() * self.seeds.len()
    }

    /// Whether the grid has no cells (some dimension is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates the base configuration and that every dimension is
    /// non-empty.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] naming the problem.
    pub fn validate(&self) -> Result<(), ValidationError> {
        self.base.validate()?;
        for (name, empty) in [
            ("mechanisms", self.mechanisms.is_empty()),
            ("disclosures", self.disclosures.is_empty()),
            ("profiles", self.profiles.is_empty()),
            ("seeds", self.seeds.is_empty()),
        ] {
            if empty {
                return Err(ValidationError::new(
                    name,
                    "sweep dimension must be non-empty",
                ));
            }
        }
        Ok(())
    }

    /// Enumerates the cells in grid order.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.len());
        for &mechanism in &self.mechanisms {
            for &disclosure in &self.disclosures {
                for &profile in &self.profiles {
                    for &seed in &self.seeds {
                        cells.push(SweepCell {
                            index: cells.len(),
                            mechanism,
                            disclosure,
                            profile,
                            seed,
                        });
                    }
                }
            }
        }
        cells
    }

    /// The concrete configuration a cell runs: the base with the cell's
    /// coordinates substituted. Depends only on the coordinates, which
    /// is what makes sweeps reproducible under any parallelism.
    pub fn config_for(&self, cell: &SweepCell) -> ScenarioConfig {
        let mut config = self.base.clone();
        config.mechanism = cell.mechanism;
        config.disclosure_level = cell.disclosure.index();
        config.policy_profile = cell.profile;
        config.seed = cell.seed;
        config
    }
}

/// Summary of one executed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCellResult {
    /// The grid coordinate this result belongs to.
    pub cell: SweepCell,
    /// Measured facet scores.
    pub facets: FacetScores,
    /// Global trust under the default metric.
    pub trust: f64,
    /// Ledger policy-respect rate.
    pub respect_rate: f64,
    /// Fraction of content requests denied by enforcement.
    pub denial_rate: f64,
    /// OECD audit score.
    pub oecd_score: f64,
    /// Mean end-of-run disclosure willingness.
    pub mean_willingness: f64,
    /// Breaches caused by malicious users.
    pub user_breaches: usize,
    /// Breaches caused by the system.
    pub system_breaches: usize,
    /// Total interactions executed.
    pub interactions: u64,
    /// Total protocol messages.
    pub messages: u64,
}

impl SweepCellResult {
    fn from_outcome(cell: SweepCell, outcome: &ScenarioOutcome) -> Self {
        SweepCellResult {
            cell,
            facets: outcome.facets,
            trust: outcome.global_trust,
            respect_rate: outcome.respect_rate,
            denial_rate: outcome.denial_rate,
            oecd_score: outcome.oecd_score,
            mean_willingness: outcome.mean_willingness,
            user_breaches: outcome.user_breaches,
            system_breaches: outcome.system_breaches,
            interactions: outcome.interactions,
            messages: outcome.messages,
        }
    }
}

/// The structured result of a sweep, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One summary per cell, ordered by [`SweepCell::index`].
    pub cells: Vec<SweepCellResult>,
}

impl SweepReport {
    /// The trust-maximizing cell, if the report is non-empty.
    pub fn best_by_trust(&self) -> Option<&SweepCellResult> {
        self.cells.iter().max_by(|a, b| a.trust.total_cmp(&b.trust))
    }

    /// Cells whose facets clear the given thresholds (the paper's
    /// Area A membership test).
    pub fn meeting<'a>(
        &'a self,
        thresholds: &'a FacetScores,
    ) -> impl Iterator<Item = &'a SweepCellResult> {
        self.cells
            .iter()
            .filter(move |c| c.facets.meets(thresholds))
    }

    /// Mean facets and trust grouped by a cell key (e.g. group by
    /// disclosure level across seeds). Groups are returned in key
    /// order.
    pub fn mean_by<K: Ord, F: Fn(&SweepCellResult) -> K>(
        &self,
        key: F,
    ) -> Vec<(K, FacetScores, f64)> {
        let mut groups: BTreeMap<K, (FacetScores, f64, usize)> = BTreeMap::new();
        for cell in &self.cells {
            let entry = groups.entry(key(cell)).or_insert((
                FacetScores {
                    privacy: 0.0,
                    reputation: 0.0,
                    satisfaction: 0.0,
                },
                0.0,
                0,
            ));
            entry.0.privacy += cell.facets.privacy;
            entry.0.reputation += cell.facets.reputation;
            entry.0.satisfaction += cell.facets.satisfaction;
            entry.1 += cell.trust;
            entry.2 += 1;
        }
        groups
            .into_iter()
            .map(|(k, (sum, trust, n))| {
                let n = n as f64;
                (
                    k,
                    FacetScores {
                        privacy: sum.privacy / n,
                        reputation: sum.reputation / n,
                        satisfaction: sum.satisfaction / n,
                    },
                    trust / n,
                )
            })
            .collect()
    }

    /// Renders as CSV with a header row (floats in shortest round-trip
    /// form, so output is bit-stable across runs). String-valued fields
    /// are quoted per RFC 4180 when they contain `,`, `"` or line
    /// breaks, so the table survives any future axis label verbatim.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "mechanism,disclosure,profile,seed,privacy,reputation,satisfaction,trust,\
             respect_rate,denial_rate,oecd_score,mean_willingness,user_breaches,\
             system_breaches,interactions,messages\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                csv_field(c.cell.mechanism.name()),
                c.cell.disclosure.index(),
                csv_field(c.cell.profile.label()),
                c.cell.seed,
                format_f64(c.facets.privacy),
                format_f64(c.facets.reputation),
                format_f64(c.facets.satisfaction),
                format_f64(c.trust),
                format_f64(c.respect_rate),
                format_f64(c.denial_rate),
                format_f64(c.oecd_score),
                format_f64(c.mean_willingness),
                c.user_breaches,
                c.system_breaches,
                c.interactions,
                c.messages,
            ));
        }
        out
    }

    /// Renders as a single JSON array of cell objects.
    pub fn to_json(&self) -> String {
        JsonValue::array(self.cells.iter().map(|c| {
            JsonValue::object([
                ("mechanism", JsonValue::str(c.cell.mechanism.name())),
                ("disclosure", JsonValue::from(c.cell.disclosure.index())),
                ("profile", JsonValue::str(c.cell.profile.label())),
                ("seed", JsonValue::from(c.cell.seed)),
                ("privacy", JsonValue::from(c.facets.privacy)),
                ("reputation", JsonValue::from(c.facets.reputation)),
                ("satisfaction", JsonValue::from(c.facets.satisfaction)),
                ("trust", JsonValue::from(c.trust)),
                ("respect_rate", JsonValue::from(c.respect_rate)),
                ("denial_rate", JsonValue::from(c.denial_rate)),
                ("oecd_score", JsonValue::from(c.oecd_score)),
                ("mean_willingness", JsonValue::from(c.mean_willingness)),
                ("user_breaches", JsonValue::from(c.user_breaches)),
                ("system_breaches", JsonValue::from(c.system_breaches)),
                ("interactions", JsonValue::from(c.interactions)),
                ("messages", JsonValue::from(c.messages)),
            ])
        }))
        .to_string()
    }

    /// Converts to an [`ExperimentTable`] (label = cell label; columns =
    /// facets and trust) for the bench binaries' emit contract.
    pub fn to_table(&self, id: impl Into<String>, title: impl Into<String>) -> ExperimentTable {
        let mut table = ExperimentTable::new(
            id,
            title,
            ["privacy", "reputation", "satisfaction", "trust"],
        );
        for c in &self.cells {
            table.push(ExperimentRow::new(
                c.cell.label(),
                vec![
                    c.facets.privacy,
                    c.facets.reputation,
                    c.facets.satisfaction,
                    c.trust,
                ],
            ));
        }
        table
    }
}

/// Executes a [`SweepGrid`], serially or across threads.
///
/// Thread count only affects wall-clock time: results are written into
/// their grid slot, so the report is identical for any thread count.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A single-threaded runner.
    pub fn serial() -> Self {
        SweepRunner { threads: 1 }
    }

    /// A runner using all available hardware parallelism.
    pub fn parallel() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SweepRunner { threads }
    }

    /// A runner with an explicit thread count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// The thread count this runner will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every cell of the grid and collects the report in grid
    /// order.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] if the grid's base configuration is
    /// invalid or a dimension is empty; no cell is executed in that
    /// case.
    pub fn run(&self, grid: &SweepGrid) -> Result<SweepReport, ValidationError> {
        grid.validate()?;
        let cells = grid.cells();
        let mut slots: Vec<Option<SweepCellResult>> = Vec::new();
        slots.resize_with(cells.len(), || None);
        // Workers claim runs of consecutive cells (fewer contended
        // cursor bumps than per-cell claiming) and write each result
        // straight into its grid slot. A cell's config depends only on
        // its coordinates, so which worker claims which chunk never
        // shows in the report.
        let chunk = cells.len() / (self.threads * 4);
        for_each_chunk_mut(&mut slots, chunk, self.threads, |offset, claimed| {
            for (slot, cell) in claimed.iter_mut().zip(&cells[offset..]) {
                *slot = Some(run_cell(grid, cell));
            }
        });

        Ok(SweepReport {
            cells: slots
                .into_iter()
                // tsn-lint: allow(no-unwrap, "for_each_chunk_mut visits every slot exactly once; a hole here is a lost cell worth crashing on")
                .map(|s| s.expect("every cell executed"))
                .collect(),
        })
    }
}

fn run_cell(grid: &SweepGrid, cell: &SweepCell) -> SweepCellResult {
    // tsn-lint: allow(no-unwrap, "the grid was validated before execution; per-cell configs inherit that validity")
    let outcome = run_scenario(grid.config_for(cell)).expect("grid validated before execution");
    SweepCellResult::from_outcome(*cell, &outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> SweepGrid {
        SweepGrid::over(ScenarioBuilder::small().nodes(24).rounds(4).graph(4, 0.1))
            .mechanisms([MechanismKind::None, MechanismKind::Beta])
            .disclosures([DisclosureLevel::Minimal, DisclosureLevel::Full])
            .seeds([1, 2])
    }

    #[test]
    fn grid_enumerates_in_row_major_order() {
        let grid = tiny_grid();
        assert_eq!(grid.len(), 8);
        let cells = grid.cells();
        assert_eq!(cells.len(), 8);
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
        assert_eq!(cells[0].mechanism, MechanismKind::None);
        assert_eq!(cells[0].disclosure, DisclosureLevel::Minimal);
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[1].seed, 2);
        assert_eq!(cells[7].mechanism, MechanismKind::Beta);
        assert_eq!(cells[7].disclosure, DisclosureLevel::Full);
    }

    #[test]
    fn cell_config_substitutes_coordinates_only() {
        let grid = tiny_grid();
        let cells = grid.cells();
        let config = grid.config_for(&cells[5]);
        assert_eq!(config.mechanism, cells[5].mechanism);
        assert_eq!(config.disclosure_level, cells[5].disclosure.index());
        assert_eq!(config.seed, cells[5].seed);
        assert_eq!(config.nodes, 24, "non-swept knobs come from the base");
    }

    #[test]
    fn empty_dimension_is_rejected_before_execution() {
        let grid = tiny_grid().seeds([]);
        assert!(grid.is_empty());
        let err = SweepRunner::serial().run(&grid).unwrap_err();
        assert_eq!(err.field, "seeds");
    }

    #[test]
    fn invalid_base_is_rejected_before_execution() {
        let grid = SweepGrid::over(ScenarioBuilder::new().nodes(2));
        let err = SweepRunner::parallel().run(&grid).unwrap_err();
        assert_eq!(err.field, "nodes");
    }

    #[test]
    fn serial_and_parallel_reports_are_identical() {
        let grid = tiny_grid();
        let serial = SweepRunner::serial().run(&grid).expect("valid grid");
        let parallel = SweepRunner::with_threads(4).run(&grid).expect("valid grid");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn same_grid_same_report_across_runs() {
        let grid = tiny_grid();
        let a = SweepRunner::with_threads(3).run(&grid).expect("valid grid");
        let b = SweepRunner::with_threads(2).run(&grid).expect("valid grid");
        assert_eq!(a, b);
    }

    #[test]
    fn report_helpers_work() {
        let report = SweepRunner::parallel()
            .run(&tiny_grid())
            .expect("valid grid");
        let best = report.best_by_trust().expect("non-empty");
        assert!(report.cells.iter().all(|c| c.trust <= best.trust));

        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 1 + report.cells.len());
        assert!(csv.starts_with("mechanism,disclosure,profile"));

        let json = report.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"mechanism\":\"beta\""));

        let table = report.to_table("S1", "tiny sweep");
        assert_eq!(table.rows.len(), report.cells.len());

        // Grouping by disclosure averages over mechanisms and seeds.
        let by_level = report.mean_by(|c| c.cell.disclosure.index());
        assert_eq!(by_level.len(), 2);
        assert_eq!(by_level[0].0, 0);
        assert_eq!(by_level[1].0, 4);
    }

    /// A minimal RFC 4180 reader: quoted fields may contain commas,
    /// doubled quotes and line breaks. The reference the emitter's
    /// round-trip test parses back through.
    fn parse_csv(input: &str) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        let mut row = Vec::new();
        let mut field = String::new();
        let mut chars = input.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            if in_quotes {
                if c == '"' {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                } else {
                    field.push(c);
                }
            } else {
                match c {
                    '"' => in_quotes = true,
                    ',' => row.push(std::mem::take(&mut field)),
                    '\n' => {
                        row.push(std::mem::take(&mut field));
                        rows.push(std::mem::take(&mut row));
                    }
                    '\r' => {} // CRLF line ending
                    _ => field.push(c),
                }
            }
        }
        if !field.is_empty() || !row.is_empty() {
            row.push(field);
            rows.push(row);
        }
        rows
    }

    #[test]
    fn csv_round_trips_through_an_rfc4180_parser() {
        // A real report parses back field-for-field…
        let report = SweepRunner::serial().run(&tiny_grid()).expect("valid grid");
        let rows = parse_csv(&report.to_csv());
        assert_eq!(rows.len(), 1 + report.cells.len());
        assert_eq!(rows[0][0], "mechanism");
        for (row, cell) in rows[1..].iter().zip(&report.cells) {
            assert_eq!(row.len(), 16, "constant arity");
            assert_eq!(row[0], cell.cell.mechanism.name());
            assert_eq!(row[2], cell.cell.profile.label());
            assert_eq!(row[3], cell.cell.seed.to_string());
            assert_eq!(row[15], cell.messages.to_string());
            assert_eq!(row[4].parse::<f64>().unwrap(), cell.facets.privacy);
        }
        // …and so does every kind of hostile field the escaper guards
        // against (commas, quotes, CR/LF), via the same helper the
        // emitter uses.
        let nasty = [
            "plain",
            "with,comma",
            "say \"hi\"",
            "multi\nline",
            "carriage\rreturn",
            "",
            "\"all,of\nit\"",
        ];
        let line: String = nasty
            .iter()
            .map(|f| crate::report::csv_field(f).into_owned())
            .collect::<Vec<_>>()
            .join(",");
        let parsed = parse_csv(&line);
        assert_eq!(parsed.len(), 1, "one logical record despite line breaks");
        assert_eq!(parsed[0], nasty);
    }

    #[test]
    fn meeting_filters_by_thresholds() {
        let report = SweepRunner::parallel()
            .run(&tiny_grid())
            .expect("valid grid");
        let none = FacetScores::new(1.0, 1.0, 1.0).expect("valid thresholds");
        assert_eq!(report.meeting(&none).count(), 0);
        let all = FacetScores::new(0.0, 0.0, 0.0).expect("valid thresholds");
        assert_eq!(report.meeting(&all).count(), report.cells.len());
    }
}
