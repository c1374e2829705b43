//! Table rendering and CSV persistence for the experiment harness: the
//! committed record under `results/`, and the host-time experiments' CSVs.

use std::fs;
use std::path::{Path, PathBuf};

/// A simple column-aligned table.
pub struct Table {
    pub(crate) headers: Vec<String>,
    pub(crate) rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }

    /// The CSV text: the header line, then one line per row.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for cells in std::iter::once(&self.headers).chain(&self.rows) {
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Write as CSV to `results/<name>.csv` under the workspace root.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// The `results/` directory next to the workspace manifest.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR of the bench crate is crates/bench; results live at
    // the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .join("results")
}

/// Format a float with the given precision, trimming to a compact cell.
pub fn fmt(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_persists() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2.5".into()]);
        t.row(vec!["10".into(), "x".into()]);
        t.print();
        let path = t.write_csv("test-table").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2.5\n10,x\n");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }
}
