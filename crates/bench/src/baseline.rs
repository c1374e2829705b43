//! The committed gate baselines (`results/<name>-baseline.csv`): one
//! keyed-row CSV reader/writer for all of them.
//!
//! A baseline is a [`Table`] whose leading *key* columns are text (scenario,
//! cores, backend, algorithm — or a metric name) and whose remaining cells
//! are the recorded values. Floats that a gate compares *bitwise* are
//! written with [`exact`], so parsing the cell back recovers the same `f64`
//! bits.

use std::path::PathBuf;

use crate::output::{results_dir, Table};

/// The cell text of a bitwise-gated float: 17 significant digits, enough for
/// `str::parse::<f64>` to recover the exact bits.
pub fn exact(x: f64) -> String {
    format!("{x:.17e}")
}

/// `<name>-baseline`: the file stem of a committed baseline under `results/`.
fn stem(name: &str) -> String {
    format!("{name}-baseline")
}

fn path(name: &str) -> PathBuf {
    results_dir().join(stem(name)).with_extension("csv")
}

/// Write `table` as the committed baseline `results/<name>-baseline.csv`.
pub fn write(name: &str, table: &Table) -> std::io::Result<PathBuf> {
    table.write_csv(&stem(name))
}

/// A baseline read back: rows addressed by their key columns.
pub struct Baseline {
    key_cols: usize,
    table: Table,
}

impl Baseline {
    /// Read `results/<name>-baseline.csv`, keyed by its first `key_cols`
    /// columns; `None` when the file does not exist.
    pub fn read(name: &str, key_cols: usize) -> Option<Self> {
        Some(Self::parse(&std::fs::read_to_string(path(name)).ok()?, key_cols))
    }

    /// Parse baseline CSV text. A row with fewer cells than the header is
    /// skipped, so no lookup can index past a truncated line.
    pub fn parse(content: &str, key_cols: usize) -> Self {
        let mut lines = content.lines().map(|l| l.split(',').map(str::to_string).collect::<Vec<_>>());
        let headers = lines.next().unwrap_or_default();
        let rows = lines.filter(|cells| cells.len() >= headers.len().max(key_cols)).collect();
        Baseline {
            key_cols,
            table: Table { headers, rows },
        }
    }

    fn key_of(&self, row: &[String]) -> String {
        row[..self.key_cols].join("/")
    }

    /// Every row's key: its key columns joined with `/`.
    pub fn keys(&self) -> impl Iterator<Item = String> + '_ {
        self.table.rows.iter().map(|row| self.key_of(row))
    }

    /// The numeric cell in column `col` (counted from the first key column)
    /// of the row keyed `key`; `None` when the row or the column is missing
    /// or the cell is not a number.
    pub fn num(&self, key: &str, col: usize) -> Option<f64> {
        let row = self.table.rows.iter().find(|row| self.key_of(row) == key)?;
        row.get(col)?.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_cells_round_trip_to_the_same_bits() {
        for x in [
            0.0,
            1.0 / 3.0,
            0.1 + 0.2,
            17.0 + 1.0 / 7.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -2.5e-7,
        ] {
            let cell = exact(x);
            assert_eq!(cell.parse::<f64>().unwrap().to_bits(), x.to_bits(), "{cell}");
        }
    }

    #[test]
    fn missing_file_is_none() {
        assert!(Baseline::read("no-such-gate", 1).is_none());
    }

    #[test]
    fn short_rows_are_skipped_not_indexed() {
        let base = Baseline::parse("shape,cores,value\nsquare,64,1.5\nsquare\nflat,8\n\nflat,16,x\n", 2);
        assert_eq!(base.keys().collect::<Vec<_>>(), ["square/64", "flat/16"]);
        assert_eq!(base.num("square/64", 2), Some(1.5));
        assert_eq!(base.num("square/64", 3), None, "no such column");
        assert_eq!(base.num("flat/8", 2), None, "the truncated row was dropped");
        assert_eq!(base.num("flat/16", 2), None, "not a number");
        assert_eq!(Baseline::parse("", 1).keys().count(), 0);
    }

    #[test]
    fn committed_baselines_reserialize_byte_identically() {
        // The cells a gate compares bitwise must already be in `exact` form.
        let is_exact_cell = |name: &str, row: &[String], col: usize| match name {
            "topo-smoke" => col >= 1,
            "fault-smoke" => col == 1 && row[0].starts_with("measured_"),
            _ => false,
        };
        for (name, key_cols) in [
            ("bench-smoke", 4),
            ("topo-smoke", 1),
            ("serve-smoke", 1),
            ("fault-smoke", 1),
        ] {
            let text = std::fs::read_to_string(path(name)).unwrap();
            let base = Baseline::read(name, key_cols).unwrap();
            assert_eq!(base.table.to_csv(), text, "{name}");
            for row in &base.table.rows {
                for (col, cell) in row.iter().enumerate().filter(|(col, _)| is_exact_cell(name, row, *col)) {
                    assert_eq!(&exact(cell.parse().unwrap()), cell, "{name}: column {col}");
                }
            }
        }
    }
}
