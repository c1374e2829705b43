//! Row-major dense matrix storage with block (sub-matrix) operations.
//!
//! The distributed algorithms in this workspace constantly cut matrices into
//! rectangular blocks (local domains, panels, k-slabs). `Matrix` therefore
//! focuses on cheap, explicit block extraction and in-place block views
//! rather than on a full linear-algebra API.

use std::fmt;
use std::ops::Range;

use crate::gemm::View;

/// A dense, row-major `f64` matrix.
///
/// Element `(i, j)` lives at `data[i * cols + j]`. All distributed algorithms
/// in this workspace move sub-blocks of `Matrix` values between simulated
/// ranks, so the block accessors ([`Matrix::block`], [`Matrix::append_block`],
/// [`Matrix::view`]) are the workhorse API.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix from a generator function `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Create a matrix that owns the given row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length {} does not match {rows}x{cols}", data.len());
        Matrix { rows, cols, data }
    }

    /// Create a matrix with deterministic pseudo-random entries in `[-1, 1)`.
    ///
    /// Uses a splitmix64-style hash of `(seed, i, j)` so that a given element
    /// has the same value regardless of which rank materializes it. This is
    /// what lets the simulated ranks conjure "their" part of the input without
    /// a central scatter phase (the paper assumes inputs start distributed).
    pub fn deterministic(rows: usize, cols: usize, seed: u64) -> Self {
        Matrix::from_fn(rows, cols, |i, j| hash_entry(seed, i as u64, j as u64))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements (`rows * cols`), i.e. words of storage.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Write element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy the sub-matrix `rows x cols` out of this matrix.
    ///
    /// # Panics
    /// Panics if the ranges exceed the matrix bounds.
    pub fn block(&self, rows: Range<usize>, cols: Range<usize>) -> Matrix {
        let (h, w) = (rows.len(), cols.len());
        let mut data = Vec::with_capacity(h * w);
        self.append_block(rows, cols, &mut data);
        Matrix {
            rows: h,
            cols: w,
            data,
        }
    }

    /// Append the sub-matrix `rows x cols` to `out`, row-major — what
    /// [`Matrix::block`] copies, into a buffer that holds more than one block.
    ///
    /// # Panics
    /// Panics if the ranges exceed the matrix bounds.
    pub fn append_block(&self, rows: Range<usize>, cols: Range<usize>, out: &mut Vec<f64>) {
        assert!(rows.end <= self.rows, "row range out of bounds");
        assert!(cols.end <= self.cols, "col range out of bounds");
        out.reserve(rows.len() * cols.len());
        for i in rows {
            out.extend_from_slice(&self.data[i * self.cols + cols.start..i * self.cols + cols.end]);
        }
    }

    /// The sub-matrix `rows x cols` read in place — what [`Matrix::block`]
    /// copies, as a [`View`] for [`gemm_packed`](crate::gemm::gemm_packed).
    ///
    /// # Panics
    /// Panics if the ranges exceed the matrix bounds.
    pub fn view(&self, rows: Range<usize>, cols: Range<usize>) -> View<'_> {
        assert!(rows.end <= self.rows, "row range out of bounds");
        assert!(cols.end <= self.cols, "col range out of bounds");
        // An empty block may start one past the last word.
        let start = (rows.start * self.cols + cols.start).min(self.data.len());
        View::new(&self.data[start..], rows.len(), cols.len(), self.cols)
    }

    /// Maximum absolute element-wise difference to `other`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.cols, other.cols, "col mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True if all elements are within `tol` of `other`, relative to the
    /// magnitude of the involved values (suitable for verifying a distributed
    /// product against a sequential reference).
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        self.data.iter().zip(&other.data).all(|(a, b)| {
            let scale = 1.0_f64.max(a.abs()).max(b.abs());
            (a - b).abs() <= tol * scale
        })
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for i in 0..self.rows.min(max_show) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(max_show) {
                write!(f, "{:9.4} ", self.get(i, j))?;
            }
            writeln!(f, "{}", if self.cols > max_show { "…" } else { "" })?;
        }
        if self.rows > max_show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// splitmix64-style deterministic entry in `[-1, 1)` for `(seed, i, j)`.
fn hash_entry(seed: u64, i: u64, j: u64) -> f64 {
    let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ j.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    // Map the top 53 bits to [0, 1), then to [-1, 1).
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
    2.0 * unit - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_correct_shape_and_content() {
        let m = Matrix::zeros(3, 5);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 5);
        assert_eq!(m.len(), 15);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_row_major_order() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn from_vec_roundtrip() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m = Matrix::from_vec(2, 3, v.clone());
        assert_eq!(m.into_vec(), v);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 3, vec![0.0; 5]);
    }

    #[test]
    fn deterministic_is_reproducible_and_rank_independent() {
        let a = Matrix::deterministic(7, 9, 42);
        let b = Matrix::deterministic(7, 9, 42);
        assert_eq!(a, b);
        // A sub-block materialized "remotely" must agree element-wise.
        let blk = a.block(2..5, 3..8);
        for i in 0..3 {
            for j in 0..5 {
                assert_eq!(blk.get(i, j), a.get(2 + i, 3 + j));
            }
        }
    }

    #[test]
    fn deterministic_entries_in_range_and_not_constant() {
        let a = Matrix::deterministic(16, 16, 1);
        assert!(a.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
        let first = a.get(0, 0);
        assert!(a.as_slice().iter().any(|&x| x != first));
    }

    #[test]
    fn deterministic_seed_changes_content() {
        let a = Matrix::deterministic(4, 4, 1);
        let b = Matrix::deterministic(4, 4, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn block_extracts_correct_submatrix() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let b = m.block(1..3, 2..4);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.cols(), 2);
        assert_eq!(b.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
    }

    #[test]
    fn block_full_range_is_identity() {
        let m = Matrix::from_fn(3, 5, |i, j| (i + j) as f64);
        assert_eq!(m.block(0..3, 0..5), m);
    }

    #[test]
    #[should_panic(expected = "row range out of bounds")]
    fn block_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.block(0..3, 0..1);
    }

    #[test]
    fn append_block_and_view_match_the_block_they_name() {
        let src = Matrix::from_fn(5, 6, |i, j| (i * 6 + j) as f64);
        for (rows, cols) in [
            (1..4, 2..5),
            (0..5, 0..6),
            (2..2, 1..3),
            (3..5, 4..4),
            (5..5, 6..6),
            (4..5, 6..6),
        ] {
            let mut out = vec![9.0];
            src.append_block(rows.clone(), cols.clone(), &mut out);
            assert_eq!(out[0], 9.0, "appends, does not clear");
            let block = src.block(rows.clone(), cols.clone());
            assert_eq!(&out[1..], block.as_slice(), "{rows:?} x {cols:?}");
            // A view reads the same words in place: multiplied by the
            // identity it is the block.
            let mut c = Matrix::zeros(rows.len(), cols.len());
            let eye = Matrix::from_fn(cols.len(), cols.len(), |i, j| if i == j { 1.0 } else { 0.0 });
            crate::gemm::gemm_packed(src.view(rows.clone(), cols.clone()), &eye, &mut c);
            assert_eq!(c, block, "{rows:?} x {cols:?}");
        }
    }

    #[test]
    #[should_panic(expected = "col range out of bounds")]
    fn view_rejects_a_block_outside_the_matrix() {
        let _ = Matrix::zeros(2, 2).view(0..2, 1..3);
    }

    #[test]
    fn max_abs_diff_and_approx_eq() {
        let a = Matrix::from_fn(2, 2, |_, _| 1.0);
        let mut b = a.clone();
        b.set(1, 1, 1.0 + 1e-12);
        assert!(a.max_abs_diff(&b) > 0.0);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-14));
    }

    #[test]
    fn approx_eq_shape_mismatch_is_false() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(!a.approx_eq(&b, 1.0));
    }

    #[test]
    fn row_slice_matches_get() {
        let m = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m.row(2), &[6.0, 7.0, 8.0]);
    }
}
