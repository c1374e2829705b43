//! Local matrix-multiplication kernels (`C += A * B`).
//!
//! The paper uses vendor BLAS for the per-rank multiplications; this module is
//! the from-scratch substitute. Two kernels are provided:
//!
//! * [`gemm_naive`] — triple loop in `i, k, j` order (row-major friendly);
//!   the correctness reference every bitwise test compares against.
//! * [`gemm_packed`] — the kernel every library path calls: BLIS-style cache
//!   blocking with A/B panels packed into reused (thread-local arena) scratch
//!   and an unrolled `MR x NR` register micro-kernel. This is the §7 "local
//!   tuning" story of the paper — the distributed schedule only pays off when
//!   the per-rank multiply runs near peak.
//!
//! Both kernels *accumulate* into C, matching the distributed algorithms that
//! sum partial products over k-slabs. Both sum each `C[i][j]` over `k` in
//! increasing order with a single accumulator, so packing and register
//! blocking reorder *memory traffic*, never the floating-point reduction —
//! the kernels agree bitwise (modulo the sign of exact zeros when an input
//! contains ±0.0 entries).

use crate::matrix::Matrix;
use std::cell::RefCell;

/// Number of floating-point operations of a classical `m x k x n` MMM
/// (one multiply and one add per iteration-space point): `2 m n k`.
#[inline]
pub fn mmm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

fn check_dims(a: &Matrix, b: &Matrix, c: &Matrix) -> (usize, usize, usize) {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "inner dimensions of A ({k}) and B ({kb}) differ");
    assert_eq!(c.rows(), m, "C has {} rows, expected {m}", c.rows());
    assert_eq!(c.cols(), n, "C has {} cols, expected {n}", c.cols());
    (m, n, k)
}

/// Reference kernel: `c += a * b` with the plain `i, k, j` triple loop.
pub fn gemm_naive(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, k) = check_dims(a, b, c);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cv = c.as_mut_slice();
    for i in 0..m {
        for kk in 0..k {
            let aik = av[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            let brow = &bv[kk * n..(kk + 1) * n];
            let crow = &mut cv[i * n..(i + 1) * n];
            for j in 0..n {
                crow[j] += aik * brow[j];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed kernel (BLIS-style blocking: jc -> pc -> ic -> jr -> ir -> micro)
// ---------------------------------------------------------------------------

/// Rows of the register micro-tile. `MR x NR` accumulators live in registers
/// for the whole k-loop of a panel pair.
const MR: usize = 4;
/// Columns of the register micro-tile.
const NR: usize = 8;
/// Row-block of A packed per inner pass (`MC x KC` panel, ~L2-resident).
const MC: usize = 128;
/// Shared-dimension block (`KC` rows of B / cols of A per packed panel).
const KC: usize = 256;
/// Column-block of B packed per outer pass (`KC x NC` panel, ~L3-resident).
const NC: usize = 2048;

thread_local! {
    /// Reused A/B packing scratch — the crate-local arena. `gemm_packed` is
    /// called once per leaf/step by the distributed algorithms, so reusing
    /// these buffers removes two heap round-trips from every local multiply.
    static PACK_ARENA: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Packed register-blocked kernel: `c += a * b`.
///
/// Blocks the operands BLIS-style (`NC`/`KC`/`MC` cache levels), copies each
/// A panel into `MR`-interleaved and each B panel into `NR`-interleaved
/// scratch so the micro-kernel streams both with unit stride, and computes
/// `MR x NR` C micro-tiles entirely in registers. Panels are padded with
/// zeros to full `MR`/`NR` width; padded lanes are computed and discarded,
/// which keeps the micro-kernel branch-free.
///
/// Each `C[i][j]` is read once per `KC` block, accumulated over `k` in
/// increasing order, and stored back — the same reduction order as
/// [`gemm_naive`], so switching kernels does not perturb results.
pub fn gemm_packed(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, k) = check_dims(a, b, c);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cv = c.as_mut_slice();
    PACK_ARENA.with(|arena| {
        let (apack, bpack) = &mut *arena.borrow_mut();
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                pack_b_panel(bv, bpack, n, pc, kc, jc, nc);
                let mut ic = 0;
                while ic < m {
                    let mc = MC.min(m - ic);
                    pack_a_panel(av, apack, k, ic, mc, pc, kc);
                    macro_kernel(apack, bpack, cv, n, ic, mc, jc, nc, kc);
                    ic += mc;
                }
                pc += kc;
            }
            jc += nc;
        }
    });
}

/// Pack `A[ic..ic+mc, pc..pc+kc]` as `MR`-row micro-panels: element
/// `(ir + i, kk)` of the block lands at `panel_base + kk * MR + i`, zero-padded
/// to a multiple of `MR` rows.
fn pack_a_panel(av: &[f64], apack: &mut Vec<f64>, lda: usize, ic: usize, mc: usize, pc: usize, kc: usize) {
    apack.clear();
    apack.reserve(mc.div_ceil(MR) * MR * kc);
    let mut ir = 0;
    while ir < mc {
        let rows = MR.min(mc - ir);
        for kk in 0..kc {
            for i in 0..MR {
                apack.push(if i < rows {
                    av[(ic + ir + i) * lda + pc + kk]
                } else {
                    0.0
                });
            }
        }
        ir += MR;
    }
}

/// Pack `B[pc..pc+kc, jc..jc+nc]` as `NR`-column micro-panels: element
/// `(kk, jr + j)` of the block lands at `panel_base + kk * NR + j`, zero-padded
/// to a multiple of `NR` columns.
fn pack_b_panel(bv: &[f64], bpack: &mut Vec<f64>, ldb: usize, pc: usize, kc: usize, jc: usize, nc: usize) {
    bpack.clear();
    bpack.reserve(nc.div_ceil(NR) * NR * kc);
    let mut jr = 0;
    while jr < nc {
        let cols = NR.min(nc - jr);
        for kk in 0..kc {
            let brow = &bv[(pc + kk) * ldb + jc + jr..][..cols];
            bpack.extend_from_slice(brow);
            bpack.extend(std::iter::repeat_n(0.0, NR - cols));
        }
        jr += NR;
    }
}

/// Multiply one packed A panel (`mc x kc`) by one packed B panel (`kc x nc`)
/// into `C[ic.., jc..]`, micro-tile by micro-tile.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    apack: &[f64],
    bpack: &[f64],
    cv: &mut [f64],
    ldc: usize,
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
) {
    let mut jr = 0;
    while jr < nc {
        let nr = NR.min(nc - jr);
        let bpanel = &bpack[(jr / NR) * kc * NR..][..kc * NR];
        let mut ir = 0;
        while ir < mc {
            let mr = MR.min(mc - ir);
            let apanel = &apack[(ir / MR) * kc * MR..][..kc * MR];
            micro_kernel(apanel, bpanel, cv, ldc, (ic + ir) * ldc + jc + jr, kc, mr, nr);
            ir += MR;
        }
        jr += NR;
    }
}

/// The register kernel: `C[mr x nr] += Apanel * Bpanel` over `kc` steps.
///
/// All `MR x NR` accumulators are named locals, so the inner loops unroll
/// fully and vectorize; only the valid `mr x nr` corner is loaded/stored.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_kernel(
    apanel: &[f64],
    bpanel: &[f64],
    cv: &mut [f64],
    ldc: usize,
    c0: usize,
    kc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for i in 0..mr {
        let crow = &cv[c0 + i * ldc..c0 + i * ldc + nr];
        acc[i][..nr].copy_from_slice(crow);
    }
    for kk in 0..kc {
        let arow: &[f64; MR] = apanel[kk * MR..kk * MR + MR].try_into().unwrap();
        let brow: &[f64; NR] = bpanel[kk * NR..kk * NR + NR].try_into().unwrap();
        for i in 0..MR {
            let aik = arow[i];
            for j in 0..NR {
                acc[i][j] += aik * brow[j];
            }
        }
    }
    for i in 0..mr {
        let crow = &mut cv[c0 + i * ldc..c0 + i * ldc + nr];
        crow.copy_from_slice(&acc[i][..nr]);
    }
}

/// Convenience wrapper: allocate C and return `a * b` with [`gemm_packed`].
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_packed(a, b, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for kk in 0..a.cols() {
                    acc += a.get(i, kk) * b.get(kk, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(mmm_flops(2, 3, 4), 48);
        assert_eq!(mmm_flops(0, 3, 4), 0);
        assert_eq!(mmm_flops(1000, 1000, 1000), 2_000_000_000);
    }

    #[test]
    fn naive_matches_reference_small() {
        let a = Matrix::deterministic(5, 7, 1);
        let b = Matrix::deterministic(7, 4, 2);
        let mut c = Matrix::zeros(5, 4);
        gemm_naive(&a, &b, &mut c);
        assert!(c.approx_eq(&reference(&a, &b), 1e-12));
    }

    #[test]
    fn naive_accumulates_rather_than_overwrites() {
        let a = Matrix::from_fn(2, 2, |i, j| if i == j { 1.0 } else { 0.0 });
        let b = Matrix::from_fn(2, 2, |_, _| 1.0);
        let mut c = Matrix::from_fn(2, 2, |_, _| 10.0);
        gemm_naive(&a, &b, &mut c);
        assert!(c.approx_eq(&Matrix::from_fn(2, 2, |_, _| 11.0), 1e-12));
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        let mut c = Matrix::zeros(0, 3);
        gemm_naive(&a, &b, &mut c);
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::zeros(3, 2);
        gemm_naive(&a, &b, &mut c);
        gemm_packed(&a, &b, &mut c);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut c = Matrix::zeros(2, 2);
        gemm_naive(&a, &b, &mut c);
    }

    #[test]
    fn packed_matches_naive_bitwise_across_block_edges() {
        // Sizes straddling MR/NR/MC/KC/NC boundaries exercise every padded
        // corner of the packing; entries avoid exact zeros, so agreement is
        // bitwise, not just approximate.
        for &(m, n, k) in &[
            (1, 1, 1),
            (MR, NR, 4),
            (MR + 1, NR + 3, KC + 1),
            (MC + 5, NR - 1, 3),
            (130, 257, 61),
            (MC, NC.min(96), KC),
        ] {
            let a = Matrix::deterministic(m, k, 21);
            let b = Matrix::deterministic(k, n, 22);
            let mut c1 = Matrix::from_fn(m, n, |i, j| (i + 2 * j) as f64 * 0.25 + 0.125);
            let mut c2 = c1.clone();
            gemm_naive(&a, &b, &mut c1);
            gemm_packed(&a, &b, &mut c2);
            let same = c1.as_slice().iter().zip(c2.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "packed kernel diverged bitwise at {m}x{n}x{k}: {}", c1.max_abs_diff(&c2));
        }
    }

    #[test]
    fn packed_accumulates_and_handles_empty() {
        let a = Matrix::deterministic(10, 10, 7);
        let b = Matrix::deterministic(10, 10, 8);
        let mut c = Matrix::from_fn(10, 10, |_, _| 5.0);
        let mut want = Matrix::from_fn(10, 10, |_, _| 5.0);
        gemm_naive(&a, &b, &mut want);
        gemm_packed(&a, &b, &mut c);
        assert!(want.approx_eq(&c, 1e-12));
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        let mut c = Matrix::zeros(0, 3);
        gemm_packed(&a, &b, &mut c);
        assert!(c.is_empty());
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::deterministic(6, 6, 11);
        let eye = Matrix::from_fn(6, 6, |i, j| if i == j { 1.0 } else { 0.0 });
        assert!(matmul(&a, &eye).approx_eq(&a, 1e-12));
        assert!(matmul(&eye, &a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn matmul_associativity_numerically() {
        let a = Matrix::deterministic(8, 5, 12);
        let b = Matrix::deterministic(5, 9, 13);
        let c = Matrix::deterministic(9, 4, 14);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!(left.approx_eq(&right, 1e-9));
    }
}
