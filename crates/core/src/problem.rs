//! Problem descriptions: matrix dimensions, machine size, shape classes.

use crate::api::PlanError;

/// A distributed matrix-multiplication problem instance:
/// `C = A·B`, `A ∈ R^{m×k}`, `B ∈ R^{k×n}` on `p` ranks with `S` words each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmmProblem {
    /// Rows of A and C.
    pub m: usize,
    /// Columns of B and C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Number of ranks.
    pub p: usize,
    /// Local memory per rank, in words (the paper's `S`).
    pub mem_words: usize,
}

/// The matrix-shape classes of the paper's evaluation (§8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `m = n = k` (up to a small factor).
    Square,
    /// One huge inner dimension: `m = n ≪ k` ("tall-and-skinny" A^T·B).
    LargeK,
    /// One huge outer dimension: `m ≫ n = k`.
    LargeM,
    /// Two large outer dimensions, tiny `k`: rank-k update.
    Flat,
    /// Anything else.
    Irregular,
}

impl MmmProblem {
    /// Create a problem instance.
    ///
    /// # Panics
    /// Panics if any dimension or the rank count is zero.
    pub fn new(m: usize, n: usize, k: usize, p: usize, mem_words: usize) -> Self {
        assert!(m > 0 && n > 0 && k > 0, "matrix dimensions must be positive");
        assert!(p > 0, "need at least one rank");
        assert!(mem_words > 0, "ranks need memory");
        MmmProblem {
            m,
            n,
            k,
            p,
            mem_words,
        }
    }

    /// Is this a problem a planner can take? The fields are public, so a
    /// literal bypasses [`new`](Self::new)'s asserts; the entry points
    /// (`RunSession`, the auto-planner) ask here before anything divides by
    /// `p` or multiplies the dimensions out.
    ///
    /// # Errors
    /// [`PlanError::DegenerateProblem`] for a zero dimension, no ranks, no
    /// memory, or `2·m·n·k` — and with it every matrix's word count —
    /// beyond `u64`.
    pub fn check(&self) -> Result<(), PlanError> {
        let reason = if self.m == 0 || self.n == 0 || self.k == 0 {
            "a matrix dimension is zero"
        } else if self.p == 0 {
            "no ranks"
        } else if self.mem_words == 0 {
            "ranks have no memory"
        } else if [self.m, self.n, self.k]
            .iter()
            .try_fold(2u64, |acc, &d| acc.checked_mul(d as u64))
            .is_none()
        {
            "2·m·n·k does not fit in 64 bits"
        } else {
            return Ok(());
        };
        Err(PlanError::DegenerateProblem { reason })
    }

    /// Total multiply-add flops of the classical algorithm: `2·m·n·k`.
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }

    /// The multiplication volume `m·n·k` (iteration-space points).
    pub fn volume(&self) -> u64 {
        self.m as u64 * self.n as u64 * self.k as u64
    }

    /// Words of the three matrices `(|A|, |B|, |C|) = (mk, kn, mn)`.
    pub fn matrix_words(&self) -> (u64, u64, u64) {
        (
            self.m as u64 * self.k as u64,
            self.k as u64 * self.n as u64,
            self.m as u64 * self.n as u64,
        )
    }

    /// The paper's §6 feasibility assumption: all matrices fit in collective
    /// memory, `pS ≥ mn + mk + nk`.
    pub fn fits_collective_memory(&self) -> bool {
        let (a, b, c) = self.matrix_words();
        (self.p as u128) * (self.mem_words as u128) >= (a + b + c) as u128
    }

    /// Classify the shape with the paper's informal taxonomy. A dimension is
    /// "much larger" when it exceeds another by at least 4×.
    pub fn shape(&self) -> Shape {
        let (m, n, k) = (self.m as f64, self.n as f64, self.k as f64);
        let close = |x: f64, y: f64| x / y < 4.0 && y / x < 4.0;
        let much = |x: f64, y: f64| x >= 4.0 * y;
        if close(m, n) && close(n, k) && close(m, k) {
            Shape::Square
        } else if close(m, n) && much(k, m) {
            Shape::LargeK
        } else if close(n, k) && much(m, n) {
            Shape::LargeM
        } else if close(m, n) && much(m, k) {
            Shape::Flat
        } else {
            Shape::Irregular
        }
    }

    /// The RPA water-molecule benchmark dimensions of §8: simulating `w`
    /// molecules gives `m = n = 136·w`, `k = 228·w²` (w = 128 in the paper's
    /// strong-scaling runs: 17,408 × 3,735,552).
    pub fn rpa_water(w: usize, p: usize, mem_words: usize) -> Self {
        MmmProblem::new(136 * w, 136 * w, 228 * w * w, p, mem_words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_and_words() {
        let p = MmmProblem::new(4, 5, 6, 2, 100);
        assert_eq!(p.flops(), 240);
        assert_eq!(p.volume(), 120);
        assert_eq!(p.matrix_words(), (24, 30, 20));
    }

    #[test]
    fn collective_memory_check() {
        // mn + mk + nk = 20 + 24 + 30 = 74.
        let fits = MmmProblem::new(4, 5, 6, 2, 37);
        assert!(fits.fits_collective_memory());
        let tight = MmmProblem::new(4, 5, 6, 2, 36);
        assert!(!tight.fits_collective_memory());
    }

    #[test]
    fn shape_classification() {
        assert_eq!(MmmProblem::new(100, 100, 100, 4, 1).shape(), Shape::Square);
        assert_eq!(MmmProblem::new(100, 120, 300, 4, 1).shape(), Shape::Square);
        assert_eq!(MmmProblem::new(100, 100, 10_000, 4, 1).shape(), Shape::LargeK);
        assert_eq!(MmmProblem::new(10_000, 100, 100, 4, 1).shape(), Shape::LargeM);
        assert_eq!(MmmProblem::new(10_000, 10_000, 100, 4, 1).shape(), Shape::Flat);
        assert_eq!(MmmProblem::new(10_000, 100, 10_000, 4, 1).shape(), Shape::Irregular);
    }

    #[test]
    fn rpa_water_dimensions_match_paper() {
        let p = MmmProblem::rpa_water(128, 2048, 1 << 20);
        assert_eq!(p.m, 17_408);
        assert_eq!(p.n, 17_408);
        assert_eq!(p.k, 3_735_552);
        assert_eq!(p.shape(), Shape::LargeK);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        let _ = MmmProblem::new(0, 1, 1, 1, 1);
    }
}
