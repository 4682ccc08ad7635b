//! Tabular experiment reports.
//!
//! Every experiment produces a [`Table`]: a titled grid of columns and rows
//! that can be printed as aligned text (for the terminal), as TSV (for
//! re-plotting the paper's figures) or written to a CSV file under
//! `target/experiments/`.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A single experiment result table.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table title (e.g. `"fig7a_ser_verification_by_distribution"`).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; each row has one cell per column.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and columns.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Panics if the arity does not match the columns.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity does not match table {:?}",
            self.title
        );
        self.rows.push(row);
    }

    /// Convenience: appends a row of displayable values.
    pub fn push<T: ToString>(&mut self, row: &[T]) {
        self.push_row(row.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as tab-separated values (header included).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{}", self.columns.join("\t"));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }

    /// Renders the table with padded, aligned columns for terminal output.
    pub fn to_aligned(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.columns, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Writes the table as `<dir>/<title>.csv` and returns the path.
    pub fn write_csv(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir.as_ref())?;
        let path = dir.as_ref().join(format!("{}.csv", self.title));
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        fs::write(&path, out)?;
        Ok(path)
    }
}

/// Formats a duration in seconds with three significant decimals (the unit
/// used on the paper's time axes).
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Formats a byte count as mebibytes (the unit of the paper's memory axes).
pub fn mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Where the experiments drop their CSV series.
pub fn experiments_dir() -> PathBuf {
    PathBuf::from("target/experiments")
}

/// Prints a set of tables (aligned + TSV) and writes them as CSV files.
pub fn emit(tables: &[Table]) {
    let dir = experiments_dir();
    for table in tables {
        println!("{}", table.to_aligned());
        println!("{}", table.to_tsv());
        match table.write_csv(&dir) {
            Ok(path) => println!("wrote {}\n", path.display()),
            Err(e) => eprintln!("could not write CSV for {}: {e}", table.title),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn tsv_and_aligned_rendering() {
        let mut t = Table::new("demo", &["x", "time_s"]);
        t.push(&["1", "0.5"]);
        t.push(&["20", "1.25"]);
        let tsv = t.to_tsv();
        assert!(tsv.starts_with("# demo\n"));
        assert!(tsv.contains("x\ttime_s"));
        assert!(tsv.contains("20\t1.25"));
        let aligned = t.to_aligned();
        assert!(aligned.contains("== demo =="));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(&["only one"]);
    }

    #[test]
    fn csv_writing() {
        let mut t = Table::new("csv_demo", &["a", "b"]);
        t.push(&[1, 2]);
        let dir = std::env::temp_dir().join("mtc_runner_report_test");
        let path = t.write_csv(&dir).unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.contains("a,b"));
        assert!(content.contains("1,2"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn experiments_dir_is_under_target() {
        assert!(experiments_dir().starts_with("target"));
    }

    #[test]
    fn emit_writes_csv_files() {
        let mut t = Table::new("runner_report_emit_test", &["a"]);
        t.push(&[1]);
        emit(&[t]);
        let path = experiments_dir().join("runner_report_emit_test.csv");
        assert!(path.exists());
        let _ = fs::remove_file(path);
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.5000");
        assert_eq!(mib(1024 * 1024), "1.00");
    }
}
