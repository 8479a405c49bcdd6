//! Plain-text table and CSV output for experiment results.

use std::fs;
use std::path::{Path, PathBuf};

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn push<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let padded = cells.iter().zip(&widths).map(|(cell, &width)| format!("{cell:>width$}"));
            padded.collect::<Vec<_>>().join("  ") + "\n"
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
        let mut out = line(&self.header) + &rule + "\n";
        self.rows.iter().for_each(|row| out.push_str(&line(row)));
        out
    }

    /// Writes the table as CSV to `results/<name>.csv` under the repo root,
    /// returning the path written. Errors are reported, not fatal — the
    /// printed table is the primary artifact.
    pub fn write_csv(&self, name: &str) -> Option<PathBuf> {
        let path = results_dir().join(format!("{name}.csv"));
        fs::create_dir_all(path.parent()?).ok()?;
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let line = |cells: &Vec<String>| cells.iter().map(esc).collect::<Vec<_>>().join(",") + "\n";
        let text: String = std::iter::once(&self.header).chain(&self.rows).map(line).collect();
        fs::write(&path, text).ok()?;
        Some(path)
    }
}

/// The directory experiment CSVs are written to.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    let raw = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    raw.canonicalize().unwrap_or(raw).join("results")
}

/// Formats a float compactly for tables (3 significant digits, scientific
/// above 10⁵).
///
/// NaN renders as an *empty* cell: it is the "no data" marker (e.g. a
/// `MetricSummary` of no trials, or a Figure 9 cell with zero estimator
/// intervals), and a blank keeps it distinguishable from a measured zero in both the
/// rendered table and the CSV.
pub fn fmt_num(x: f64) -> String {
    if x.is_nan() {
        String::new()
    } else if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1e5 || x.abs() < 1e-3 {
        format!("{x:.2e}")
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.push(vec!["1", "2"]);
        t.push(vec!["333", "4"]);
        let s = t.render();
        assert!(s.contains("long-header"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a"]);
        t.push(vec!["1", "2"]);
    }

    #[test]
    fn fmt_num_ranges() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(4.84848), "4.848");
        assert_eq!(fmt_num(1234.0), "1234");
        assert_eq!(fmt_num(1.0e6), "1.00e6");
        assert_eq!(fmt_num(0.0001), "1.00e-4");
    }

    #[test]
    fn fmt_num_nan_is_blank_not_zero() {
        // "No data" must stay distinguishable from a measured zero in CSVs.
        assert_eq!(fmt_num(f64::NAN), "");
        assert_ne!(fmt_num(f64::NAN), fmt_num(0.0));
    }

    #[test]
    fn csv_writes() {
        let mut t = Table::new(vec!["x", "y"]);
        t.push(vec!["1", "va,lue"]);
        let path = t.write_csv("test_table_output").expect("csv written");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"va,lue\""));
        std::fs::remove_file(path).ok();
    }
}
