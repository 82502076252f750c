//! Experiment-row structures and table rendering shared by the
//! `tsn-bench` binaries, so every figure regeneration prints rows in one
//! consistent, machine-checkable format (the experiment index is
//! DESIGN.md §5).

use crate::json::JsonValue;
use std::borrow::Cow;

/// Escapes one CSV field per RFC 4180: a field containing a comma, a
/// double quote, or a line break is wrapped in double quotes with inner
/// quotes doubled; anything else passes through unchanged (borrowed).
///
/// Every string interpolated into a CSV emitter must pass through here —
/// interpolating raw labels corrupts the table the moment a sweep axis
/// name or a string-valued parameter contains `,` or `"`.
pub fn csv_field(field: &str) -> Cow<'_, str> {
    if field.contains(['"', ',', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(field)
    }
}

/// One labelled row of numeric cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRow {
    /// Row label (e.g. `"eigentrust"`, `"level=3"`).
    pub label: String,
    /// Cells, matching the table's column headers.
    pub values: Vec<f64>,
}

impl ExperimentRow {
    /// Creates a row.
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        ExperimentRow {
            label: label.into(),
            values,
        }
    }
}

/// A titled table with column headers.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTable {
    /// Experiment id (e.g. `"F2R"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers (not counting the label column).
    pub columns: Vec<String>,
    /// Rows.
    pub rows: Vec<ExperimentRow>,
}

impl ExperimentTable {
    /// Creates an empty table.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        columns: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        ExperimentTable {
            id: id.into(),
            title: title.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the headers.
    pub fn push(&mut self, row: ExperimentRow) {
        assert_eq!(
            row.values.len(),
            self.columns.len(),
            "row '{}' has {} cells for {} columns",
            row.label,
            row.values.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text (what the bench binaries
    /// print).
    pub fn render(&self) -> String {
        let label_width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .chain(std::iter::once("config".len()))
            .max()
            .unwrap_or(6)
            .max(6);
        let col_width = self
            .columns
            .iter()
            .map(|c| c.len().max(8))
            .collect::<Vec<_>>();
        let mut out = String::new();
        out.push_str(&format!("## [{}] {}\n", self.id, self.title));
        out.push_str(&format!("{:label_width$}", "config"));
        for (c, w) in self.columns.iter().zip(&col_width) {
            out.push_str(&format!("  {c:>w$}", w = w));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:label_width$}", row.label));
            for (v, w) in row.values.iter().zip(&col_width) {
                out.push_str(&format!("  {v:>w$.4}", w = w));
            }
            out.push('\n');
        }
        out
    }

    /// Renders as a JSON line (for machine consumption next to the text).
    pub fn to_json(&self) -> String {
        JsonValue::object([
            ("id", JsonValue::str(&self.id)),
            ("title", JsonValue::str(&self.title)),
            (
                "columns",
                JsonValue::array(self.columns.iter().map(JsonValue::str)),
            ),
            (
                "rows",
                JsonValue::array(self.rows.iter().map(|row| {
                    JsonValue::object([
                        ("label", JsonValue::str(&row.label)),
                        (
                            "values",
                            JsonValue::array(row.values.iter().map(|&v| JsonValue::F64(v))),
                        ),
                    ])
                })),
            ),
        ])
        .to_string()
    }

    /// Column index by header name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The values of one column across rows.
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist.
    pub fn column(&self, name: &str) -> Vec<f64> {
        let i = self
            .column_index(name)
            // tsn-lint: allow(no-unwrap, "documented panic: column() is a programmer-facing lookup and the message names the missing column")
            .unwrap_or_else(|| panic!("no column {name}"));
        self.rows.iter().map(|r| r.values[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ExperimentTable {
        let mut t = ExperimentTable::new("T1", "demo", ["alpha", "beta"]);
        t.push(ExperimentRow::new("row1", vec![1.0, 2.0]));
        t.push(ExperimentRow::new("row2", vec![3.0, 4.0]));
        t
    }

    #[test]
    fn render_contains_everything() {
        let r = table().render();
        assert!(r.contains("[T1] demo"));
        assert!(r.contains("alpha"));
        assert!(r.contains("row2"));
        assert!(r.contains("3.0000"));
    }

    #[test]
    #[should_panic(expected = "cells for")]
    fn mismatched_row_panics() {
        let mut t = table();
        t.push(ExperimentRow::new("bad", vec![1.0]));
    }

    #[test]
    fn column_extraction() {
        let t = table();
        assert_eq!(t.column("alpha"), vec![1.0, 3.0]);
        assert_eq!(t.column("beta"), vec![2.0, 4.0]);
        assert_eq!(t.column_index("beta"), Some(1));
        assert_eq!(t.column_index("gamma"), None);
    }

    #[test]
    fn csv_field_quotes_per_rfc4180() {
        assert_eq!(csv_field("plain"), "plain");
        assert!(matches!(csv_field("plain"), Cow::Borrowed(_)));
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("he said \"hi\""), "\"he said \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_field("cr\rhere"), "\"cr\rhere\"");
        assert_eq!(csv_field(""), "");
    }

    #[test]
    fn json_shape_is_stable() {
        let t = table();
        assert_eq!(
            t.to_json(),
            "{\"id\":\"T1\",\"title\":\"demo\",\"columns\":[\"alpha\",\"beta\"],\"rows\":[{\"label\":\"row1\",\"values\":[1.0,2.0]},{\"label\":\"row2\",\"values\":[3.0,4.0]}]}"
        );
    }
}
