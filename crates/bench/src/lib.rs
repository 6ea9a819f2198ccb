//! Shared reporting helpers for the experiment binaries.
//!
//! Every `exp_*` binary prints a paper-style table to stdout and writes
//! the same rows as JSON under `results/`, so EXPERIMENTS.md can cite
//! machine-readable numbers.

pub mod arch;

use std::fmt::Write as _;
use std::path::PathBuf;

use serde::Serialize;

/// A fixed-width text table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {} ===", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Returns the `results/` directory, creating it if needed.
pub(crate) fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes experiment rows as pretty JSON to `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, rows: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(rows).expect("serialize rows");
    std::fs::write(&path, json).expect("write results json");
    println!("\n[results written to {}]", path.display());
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".to_string(), "1".to_string()]);
        t.row(&["longer".to_string(), "22".to_string()]);
        let s = t.render();
        assert!(s.contains("=== demo ==="));
        assert!(s.contains("name"));
        assert!(s.contains("longer"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.123), "12.3%");
    }
}
