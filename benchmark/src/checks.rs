//! Output checks: what makes an operation count as failed.
//!
//! Every executed operation is held against three things beside the call
//! succeeding: a reference product that does not come from the kernel under
//! test, the plan's word-exact traffic, and the simulated statistics of the
//! set-up's warm-up operation — a change to host speed must not move the
//! simulated machine.

use std::collections::BTreeSet;

use cosma::api::ExecReport;
use cosma::plan::DistPlan;
use densemat::gemm::gemm_naive;
use densemat::matrix::Matrix;
use mpsim::stats::{aggregate, RankStats};

use crate::stats::splitmix64_at;

/// Largest absolute error of a product entry against the reference.
pub const PRODUCT_TOLERANCE: f64 = 1e-9;

/// Problems up to this many multiply-adds get a full `gemm_naive` reference;
/// larger ones are sampled, so the reference never costs more than the
/// operation it checks.
const FULL_REFERENCE_MAX_VOLUME: u64 = 1 << 25;

/// Sampled rows and columns of C; their cross product is 4 096 entries.
const SAMPLE_EDGE: usize = 64;

/// A product to hold `C = A·B` against.
#[derive(Debug, Clone)]
pub enum Reference {
    /// The whole product from the plain triple loop.
    Full(Matrix),
    /// Plain f64 dot products on the cross product of seeded rows and columns.
    Sampled {
        rows: Vec<usize>,
        cols: Vec<usize>,
        /// `values[r * cols.len() + c]` is `C[rows[r], cols[c]]`.
        values: Vec<f64>,
    },
}

/// `want` distinct seeded indices below `n`, ascending; all of them when
/// `n <= want`.
fn pick(n: usize, want: usize, seed: u64) -> Vec<usize> {
    if n <= want {
        return (0..n).collect();
    }
    let mut chosen = BTreeSet::new();
    let mut j = 0;
    while chosen.len() < want {
        chosen.insert((splitmix64_at(seed, j) % n as u64) as usize);
        j += 1;
    }
    chosen.into_iter().collect()
}

impl Reference {
    pub fn of(a: &Matrix, b: &Matrix, seed: u64) -> Reference {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        if (m * n * k) as u64 <= FULL_REFERENCE_MAX_VOLUME {
            let mut c = Matrix::zeros(m, n);
            gemm_naive(a, b, &mut c);
            return Reference::Full(c);
        }
        let rows = pick(m, SAMPLE_EDGE, seed ^ 0xA5A5);
        let cols = pick(n, SAMPLE_EDGE, seed ^ 0x5A5A);
        let mut values = vec![0.0; rows.len() * cols.len()];
        let mut column = vec![0.0; k];
        for (c, &j) in cols.iter().enumerate() {
            // B is row-major: gather the column once, then every dot product is contiguous.
            for (t, slot) in column.iter_mut().enumerate() {
                *slot = b.get(t, j);
            }
            for (r, &i) in rows.iter().enumerate() {
                values[r * cols.len() + c] = a.row(i).iter().zip(&column).map(|(x, y)| x * y).sum();
            }
        }
        Reference::Sampled { rows, cols, values }
    }

    /// Is every referenced entry of `c` within [`PRODUCT_TOLERANCE`]?
    pub fn agrees(&self, c: &Matrix) -> bool {
        match self {
            Reference::Full(want) => {
                want.rows() == c.rows() && want.cols() == c.cols() && want.approx_eq(c, PRODUCT_TOLERANCE)
            }
            Reference::Sampled { rows, cols, values } => rows.iter().enumerate().all(|(r, &i)| {
                cols.iter().enumerate().all(|(q, &j)| {
                    i < c.rows()
                        && j < c.cols()
                        && (c.get(i, j) - values[r * cols.len() + q]).abs() <= PRODUCT_TOLERANCE
                })
            }),
        }
    }
}

/// The simulated machine's verdict on a run. Repeats exactly for a given
/// workload and seed, on every host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimTuple {
    /// Bit pattern of the slowest rank's virtual finish time, in seconds.
    pub time_bits: u64,
    pub words: u64,
    pub msgs: u64,
    pub flops: u64,
}

impl SimTuple {
    pub fn of(stats: &[RankStats]) -> SimTuple {
        SimTuple {
            time_bits: aggregate::machine_time_s(stats).to_bits(),
            words: aggregate::total_volume(stats),
            msgs: stats.iter().map(|s| s.msgs_recv).sum(),
            flops: aggregate::total_flops(stats),
        }
    }

    pub fn time_s(&self) -> f64 {
        f64::from_bits(self.time_bits)
    }
}

/// Names of the checks an execution fails; empty when it passes.
pub fn execution_failures(
    report: &ExecReport,
    plan: &DistPlan,
    reference: &Reference,
    expect: Option<&SimTuple>,
) -> Vec<&'static str> {
    let mut failed = Vec::new();
    if !reference.agrees(&report.c) {
        failed.push("product within 1e-9 of the reference");
    }
    let traffic_exact = report.stats.len() == plan.ranks.len()
        && report
            .stats
            .iter()
            .zip(&plan.ranks)
            .all(|(st, rp)| st.total_recv() == rp.comm_words());
    if !traffic_exact {
        failed.push("every rank's received words equal its plan's");
    }
    if expect.is_some_and(|want| *want != SimTuple::of(&report.stats)) {
        failed.push("simulated time, words, messages and flops equal the warm-up's");
    }
    failed
}

/// Attempted and failed operations of a run. A failure is reported when it
/// happens, with the workload, the operation and the check.
#[derive(Debug)]
pub struct Tally {
    workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn new(workload: &'static str) -> Tally {
        Tally {
            workload,
            attempted: 0,
            failed: 0,
        }
    }

    /// Count operation `op`, failed if `failures` names any check.
    pub fn record<S: AsRef<str>>(&mut self, op: u64, failures: &[S]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        for check in failures {
            eprintln!("FAILED {} operation {op}: {}", self.workload, check.as_ref());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::gemm::matmul;

    #[test]
    fn small_products_get_a_full_reference_and_large_ones_a_sample() {
        let a = Matrix::deterministic(48, 40, 1);
        let b = Matrix::deterministic(40, 56, 2);
        let full = Reference::of(&a, &b, 7);
        assert!(matches!(full, Reference::Full(_)));
        assert!(full.agrees(&matmul(&a, &b)));

        // 72 * 80 * 8192 multiply-adds is past the full-reference limit.
        let a = Matrix::deterministic(72, 8192, 3);
        let b = Matrix::deterministic(8192, 80, 4);
        let sampled = Reference::of(&a, &b, 7);
        let Reference::Sampled { rows, cols, values } = &sampled else {
            panic!("expected a sampled reference");
        };
        assert_eq!((rows.len(), cols.len(), values.len()), (64, 64, 4096));
        let mut c = matmul(&a, &b);
        assert!(sampled.agrees(&c));
        // One wrong sampled entry is caught; the sample is seeded, not fixed.
        c.set(rows[5], cols[9], c.get(rows[5], cols[9]) + 1e-6);
        assert!(!sampled.agrees(&c));
        let Reference::Sampled { rows: other, .. } = Reference::of(&a, &b, 8) else {
            panic!("expected a sampled reference");
        };
        assert_ne!(&other, rows);
    }

    #[test]
    fn a_wrong_shape_or_entry_fails_the_full_reference() {
        let a = Matrix::deterministic(8, 8, 1);
        let b = Matrix::deterministic(8, 8, 2);
        let reference = Reference::of(&a, &b, 1);
        let mut c = matmul(&a, &b);
        c.set(3, 3, c.get(3, 3) + 1e-8);
        assert!(!reference.agrees(&c));
        assert!(!reference.agrees(&Matrix::zeros(8, 9)));
    }

    #[test]
    fn pick_is_distinct_ascending_and_bounded() {
        assert_eq!(pick(5, 64, 1), vec![0, 1, 2, 3, 4]);
        let p = pick(1536, 64, 1);
        assert_eq!(p.len(), 64);
        assert!(p.windows(2).all(|w| w[0] < w[1]) && p[63] < 1536);
    }

    #[test]
    fn tally_counts_operations_not_checks() {
        let mut t = Tally::new("test");
        t.record::<&str>(0, &[]);
        t.record(1, &["a", "b"]);
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
