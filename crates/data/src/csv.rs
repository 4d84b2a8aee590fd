//! Minimal result-table writer (CSV + Markdown).
//!
//! The benchmark harness records every regenerated figure as a small table;
//! a hand-rolled writer keeps the dependency budget at zero
//! while covering the only formats we need: RFC-4180-style CSV and GitHub
//! Markdown for the `paper_experiments` report.

use std::fmt::Write as _;
use std::path::Path;

/// An in-memory table with a fixed header row.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ResultTable { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Appends a row of preformatted cells.
    ///
    /// # Panics
    /// Panics when the cell count does not match the header count — a
    /// programming error in the harness, not a data error.
    pub fn push_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} does not match header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Renders as CSV (quoting only where needed).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        write_csv_row(&mut out, &self.headers);
        for row in &self.rows {
            write_csv_row(&mut out, row);
        }
        out
    }

    /// Renders as a GitHub-flavoured Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ =
            writeln!(out, "|{}|", self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Writes the CSV rendering to `path`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

fn write_csv_row(out: &mut String, cells: &[String]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if cell.contains([',', '"', '\n']) {
            out.push('"');
            out.push_str(&cell.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(cell);
        }
    }
    out.push('\n');
}

/// Formats a duration in seconds with engineering-friendly precision
/// (matches the log-scale runtime plots of the paper).
pub fn fmt_secs(seconds: f64) -> String {
    if seconds < 0.001 {
        format!("{:.1}µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{seconds:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip_simple() {
        let mut t = ResultTable::new(["a", "b"]);
        t.push_row(["1", "2"]);
        t.push_row(["x,y", "he said \"hi\""]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n\"x,y\",\"he said \"\"hi\"\"\"\n");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn markdown_rendering() {
        let mut t = ResultTable::new(["states", "QB (s)"]);
        t.push_row(["2000", "0.01"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| states | QB (s) |\n|---|---|\n"));
        assert!(md.contains("| 2000 | 0.01 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = ResultTable::new(["a"]);
        t.push_row(["1", "2"]);
    }

    #[test]
    fn write_csv_to_file() {
        let dir = std::env::temp_dir().join("ust_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.csv");
        let mut t = ResultTable::new(["k"]);
        t.push_row(["v"]);
        t.write_csv(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "k\nv\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.0000005), "0.5µs");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(1.5), "1.500s");
    }
}
