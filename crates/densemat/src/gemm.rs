//! Local matrix-multiplication kernels (`C += A * B`).
//!
//! The paper uses vendor BLAS for the per-rank multiplications; this module is
//! the from-scratch substitute. Two kernels are provided:
//!
//! * [`gemm_naive`] — triple loop in `i, k, j` order (row-major friendly);
//!   the correctness reference every bitwise test compares against.
//! * [`gemm_packed`] — the kernel every library path calls: BLIS-style cache
//!   blocking with A/B panels packed into reused (thread-local arena) scratch
//!   and an `MR x NR` register micro-kernel. This is the §7 "local tuning"
//!   story of the paper — the distributed schedule only pays off when the
//!   per-rank multiply runs near peak.
//!
//! The blocking loops and the two packers exist once, generic over the
//! register tile, and are instantiated at the vector width the build has:
//!
//! * **4x8**, a portable body the compiler vectorises to eight 256-bit
//!   accumulators. It is the only body of a build without AVX-512.
//! * **8x24**, under `cfg(all(target_arch = "x86_64", target_feature =
//!   "avx512f"))` — what `.cargo/config.toml`'s `target-cpu=native` sets on an
//!   AVX-512 host: twenty-four 512-bit accumulators and an explicit
//!   `std::arch` body, because the autovectoriser spills the same portable
//!   source at this shape. It is the crate's only `unsafe` code.
//!
//! Which tile runs is a compile-time fact plus one property of the input
//! (`tile_for`): a product that holds no full 8x24 tile (`m < 8` or
//! `n < 24`) stays on the 4x8 tile, because padding a 4x4 or 8x8 brick out to
//! 8x24 costs more than the wider vectors return.
//!
//! Both kernels *accumulate* into C, matching the distributed algorithms that
//! sum partial products over k-slabs. Both sum each `C[i][j]` over `k` in
//! increasing order with a single accumulator, a multiply rounded on its own
//! and then an add — never a fused multiply-add, whose single rounding would
//! change result bits — so packing and register blocking reorder *memory
//! traffic*, never the floating-point reduction: the kernels agree bitwise
//! on every input, signed zeros and infinities included, and where one
//! yields a NaN so does the other (which NaN an operation yields is the one
//! thing IEEE 754 and Rust leave open).
//!
//! [`gemm_packed`] reads its operands where they lie: an [`Operand`] is a
//! [`Matrix`], or a list of [`View`]s in ascending k — column blocks of A, row
//! blocks of B, each with its own leading dimension. The packers cut their
//! panels out of whichever views cover them, so a product over blocks that
//! arrived separately (COSMA's gathered A and B) costs no copy into one
//! matrix, and, since a k step is one multiply then one add whichever block
//! it came from, no bit.

use crate::matrix::Matrix;
use std::cell::RefCell;

/// A `rows x cols` row-major block read in place: element `(i, j)` is
/// `data[i * ld + j]`.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a> View<'a> {
    /// The `rows x cols` block whose rows start `ld` words apart in `data`.
    ///
    /// # Panics
    /// Panics if a row is wider than `ld` or the last row ends past `data`.
    pub fn new(data: &'a [f64], rows: usize, cols: usize, ld: usize) -> Self {
        if rows > 0 && cols > 0 {
            assert!(cols <= ld, "a {cols}-word row does not fit a leading dimension of {ld}");
            assert!(
                (rows - 1) * ld + cols <= data.len(),
                "a {rows}x{cols} view overruns its {} words",
                data.len()
            );
        }
        View { data, rows, cols, ld }
    }
}

/// An operand of [`gemm_packed`]: a `rows x cols` matrix read through its
/// [`View`]s along k, in ascending order — one for a [`Matrix`]; column
/// blocks of the full height for A, row blocks of the full width for B.
#[derive(Clone, Copy)]
pub struct Operand<'a> {
    rows: usize,
    cols: usize,
    views: Views<'a>,
}

/// Hands every view of an operand, in ascending k, to the callback.
type Walk<'a> = &'a dyn Fn(&mut dyn FnMut(View<'_>));

#[derive(Clone, Copy)]
enum Views<'a> {
    One(View<'a>),
    Walk(Walk<'a>),
}

impl<'a> Operand<'a> {
    /// A `rows x cols` operand whose views `walk` hands out in ascending k.
    /// [`gemm_packed`] checks that they tile the operand.
    pub fn segmented(rows: usize, cols: usize, walk: Walk<'a>) -> Self {
        Operand {
            rows,
            cols,
            views: Views::Walk(walk),
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(View<'_>)) {
        match self.views {
            Views::One(view) => f(view),
            Views::Walk(walk) => walk(f),
        }
    }
}

impl<'a> From<View<'a>> for Operand<'a> {
    fn from(view: View<'a>) -> Self {
        Operand {
            rows: view.rows,
            cols: view.cols,
            views: Views::One(view),
        }
    }
}

impl<'a> From<&'a Matrix> for Operand<'a> {
    fn from(m: &'a Matrix) -> Self {
        m.view(0..m.rows(), 0..m.cols()).into()
    }
}

/// Number of floating-point operations of a classical `m x k x n` MMM
/// (one multiply and one add per iteration-space point): `2 m n k`.
#[inline]
pub fn mmm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

/// `(m, n, k)` of `C[m x n] += A[m x k] * B[k x n]` from the shapes of A and B.
fn check_dims((m, k): (usize, usize), (kb, n): (usize, usize), c: &Matrix) -> (usize, usize, usize) {
    assert_eq!(k, kb, "inner dimensions of A ({k}) and B ({kb}) differ");
    assert_eq!(c.rows(), m, "C has {} rows, expected {m}", c.rows());
    assert_eq!(c.cols(), n, "C has {} cols, expected {n}", c.cols());
    (m, n, k)
}

/// Reference kernel: `c += a * b` with the plain `i, k, j` triple loop.
pub fn gemm_naive(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, n, k) = check_dims((a.rows(), a.cols()), (b.rows(), b.cols()), c);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cv = c.as_mut_slice();
    for i in 0..m {
        for kk in 0..k {
            let aik = av[i * k + kk];
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

/// Row-block of A packed per inner pass (`MC x KC` panel, ~L2-resident).
const MC: usize = 128;
/// Shared-dimension block (`KC` rows of B / cols of A per packed panel).
const KC: usize = 256;
/// Column-block of B packed per outer pass (`KC x NC` panel, ~L3-resident).
const NC: usize = 2048;

/// The portable register tile: `MR x NR` accumulators live in registers for
/// the whole k-loop of a panel pair.
const NARROW: (usize, usize) = (4, 8);
/// The AVX-512 register tile: 8 rows of three 512-bit vectors.
const WIDE: (usize, usize) = (8, 24);

thread_local! {
    /// Reused A/B packing scratch — the crate-local arena. `gemm_packed` is
    /// called once per leaf/step by the distributed algorithms, so reusing
    /// these buffers removes two heap round-trips from every local multiply.
    static PACK_ARENA: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The register tile [`gemm_packed`] multiplies an `m x n` C at: [`WIDE`]
/// where the build has AVX-512 and the product holds at least one full wide
/// tile, [`NARROW`] otherwise. A rule on the input's shape, not a tuned
/// threshold: a brick smaller than the wide tile would be all padding.
fn tile_for(m: usize, n: usize) -> (usize, usize) {
    if cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) && m >= WIDE.0 && n >= WIDE.1 {
        WIDE
    } else {
        NARROW
    }
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
///
/// `a` and `b` are a [`Matrix`] each (`gemm_packed(&a, &b, &mut c)`) or any
/// [`Operand`]; the panels are the same whichever views they are cut from.
///
/// # Panics
/// Panics if the shapes disagree, or if a non-empty product's operand is not
/// tiled by its views: every A view must span all `m` rows and every B view
/// all `n` columns, and their widths (A) or heights (B) must add up to `k`.
pub fn gemm_packed<'a, 'b>(a: impl Into<Operand<'a>>, b: impl Into<Operand<'b>>, c: &mut Matrix) {
    let (a, b) = (a.into(), b.into());
    let (m, n, k) = check_dims((a.rows, a.cols), (b.rows, b.cols), c);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let cv = c.as_mut_slice();
    match tile_for(m, n) {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        WIDE => blocked::<{ WIDE.0 }, { WIDE.1 }>(&a, &b, cv, m, n, k, micro_kernel_8x24),
        _ => blocked::<{ NARROW.0 }, { NARROW.1 }>(&a, &b, cv, m, n, k, micro_kernel_4x8),
    }
}

/// Which way an operand's views cut it: A's into column blocks (k runs
/// along the columns), B's into row blocks.
#[derive(Clone, Copy)]
enum KAlong {
    Cols,
    Rows,
}

impl KAlong {
    /// `(extent along k, extent across)` of a `rows x cols` block.
    fn split(self, rows: usize, cols: usize) -> (usize, usize) {
        match self {
            KAlong::Cols => (cols, rows),
            KAlong::Rows => (rows, cols),
        }
    }
}

/// Hands `f` every view of `op` holding some of the k indices `pc..pc + kc`:
/// the view, the position in that range of its first index there, and which
/// of its own indices those are. Every pack walks all the views, so this is
/// where they are held to tiling their operand.
fn each_view_in(
    op: &Operand,
    along: KAlong,
    pc: usize,
    kc: usize,
    mut f: impl FnMut(View<'_>, usize, std::ops::Range<usize>),
) {
    let (k, across) = along.split(op.rows, op.cols);
    let mut k0 = 0;
    op.for_each(&mut |v| {
        let (kv, av) = along.split(v.rows, v.cols);
        assert_eq!(av, across, "a view spans {av} of the {across} its operand needs across k");
        let (lo, hi) = (k0.max(pc), (k0 + kv).min(pc + kc));
        if lo < hi {
            f(v, lo - pc, lo - k0..hi - k0);
        }
        k0 += kv;
    });
    // A gap would leave stale pack-arena words in the panels.
    assert_eq!(k0, k, "the views span {k0} of their operand's k = {k}");
}

/// A register micro-kernel: `(apanel, bpanel, cv, ldc, c0, kc, mr, nr)`, see
/// [`micro_kernel_4x8`].
trait MicroKernel: Fn(&[f64], &[f64], &mut [f64], usize, usize, usize, usize, usize) + Copy {}
impl<F: Fn(&[f64], &[f64], &mut [f64], usize, usize, usize, usize, usize) + Copy> MicroKernel for F {}

/// The `jc -> pc -> ic` cache-blocking loops over one `m x n x k` product,
/// at register tile `MR x NR`.
fn blocked<const MR: usize, const NR: usize>(
    a: &Operand,
    b: &Operand,
    cv: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    micro_kernel: impl MicroKernel,
) {
    PACK_ARENA.with(|arena| {
        let (apack, bpack) = &mut *arena.borrow_mut();
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                pack_b_panel::<NR>(b, bpack, pc, kc, jc, nc);
                let mut ic = 0;
                while ic < m {
                    let mc = MC.min(m - ic);
                    pack_a_panel::<MR>(a, apack, ic, mc, pc, kc);
                    macro_kernel::<MR, NR>(apack, bpack, cv, n, ic, mc, jc, nc, kc, micro_kernel);
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
/// to a multiple of `MR` rows. Each A view fills the panel columns it holds.
fn pack_a_panel<const MR: usize>(
    a: &Operand,
    apack: &mut Vec<f64>,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    // No `clear`: the views tile k, so every word of the new length is
    // written below, and a stale arena needs no zeroing pass.
    apack.resize(mc.div_ceil(MR) * MR * kc, 0.0);
    each_view_in(a, KAlong::Cols, pc, kc, |v, at, ks| {
        for (p, panel) in apack.chunks_exact_mut(MR * kc).enumerate() {
            let ir = p * MR;
            let ablock = &v.data[(ic + ir) * v.ld + ks.start..];
            let cols = panel[at * MR..(at + ks.len()) * MR].chunks_exact_mut(MR);
            if mc - ir >= MR {
                for (kk, col) in cols.enumerate() {
                    for i in 0..MR {
                        col[i] = ablock[i * v.ld + kk];
                    }
                }
            } else {
                // The one ragged panel pays for the row test.
                for (kk, col) in cols.enumerate() {
                    for i in 0..MR {
                        col[i] = if i < mc - ir { ablock[i * v.ld + kk] } else { 0.0 };
                    }
                }
            }
        }
    });
}

/// Pack `B[pc..pc+kc, jc..jc+nc]` as `NR`-column micro-panels: element
/// `(kk, jr + j)` of the block lands at `panel_base + kk * NR + j`, zero-padded
/// to a multiple of `NR` columns. Each B view fills the panel rows it holds.
fn pack_b_panel<const NR: usize>(
    b: &Operand,
    bpack: &mut Vec<f64>,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    bpack.resize(nc.div_ceil(NR) * NR * kc, 0.0);
    each_view_in(b, KAlong::Rows, pc, kc, |v, at, ks| {
        for (p, panel) in bpack.chunks_exact_mut(NR * kc).enumerate() {
            let (jr, cols) = (p * NR, NR.min(nc - p * NR));
            for (kk, row) in ks.clone().zip(panel[at * NR..].chunks_exact_mut(NR)) {
                row[..cols].copy_from_slice(&v.data[kk * v.ld + jc + jr..][..cols]);
                row[cols..].fill(0.0);
            }
        }
    });
}

/// Multiply one packed A panel (`mc x kc`) by one packed B panel (`kc x nc`)
/// into `C[ic.., jc..]`, micro-tile by micro-tile.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<const MR: usize, const NR: usize>(
    apack: &[f64],
    bpack: &[f64],
    cv: &mut [f64],
    ldc: usize,
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
    micro_kernel: impl MicroKernel,
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

/// The portable register kernel: `C[mr x nr] += Apanel * Bpanel` over `kc`
/// steps, the tile's top-left corner at `cv[c0]`.
///
/// All `MR x NR` accumulators are named locals, so the inner loops unroll
/// fully and vectorize; only the valid `mr x nr` corner is loaded/stored.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_kernel_4x8(
    apanel: &[f64],
    bpanel: &[f64],
    cv: &mut [f64],
    ldc: usize,
    c0: usize,
    kc: usize,
    mr: usize,
    nr: usize,
) {
    const MR: usize = NARROW.0;
    const NR: usize = NARROW.1;
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

/// The AVX-512 register kernel, same contract as [`micro_kernel_4x8`]: a full
/// tile is read and written in place, an edge tile goes through a zero-padded
/// `MR x NR` copy on the stack.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_kernel_8x24(
    apanel: &[f64],
    bpanel: &[f64],
    cv: &mut [f64],
    ldc: usize,
    c0: usize,
    kc: usize,
    mr: usize,
    nr: usize,
) {
    const MR: usize = WIDE.0;
    const NR: usize = WIDE.1;
    let full_tile = |tile: &mut [f64], ldt: usize| {
        assert!(kc * MR <= apanel.len() && kc * NR <= bpanel.len() && (MR - 1) * ldt + NR <= tile.len());
        // SAFETY: the build has `avx512f` (this function's cfg), and the
        // assert above is the callee's contract: `kc * MR` readable words
        // behind the A pointer, `kc * NR` behind B, `(MR - 1) * ldt + NR`
        // readable and writable behind C.
        unsafe { zmm_8x24(apanel.as_ptr(), bpanel.as_ptr(), tile.as_mut_ptr(), ldt, kc) }
    };
    if mr == MR && nr == NR {
        full_tile(&mut cv[c0..], ldc);
    } else {
        let mut stack = [0.0f64; MR * NR];
        for i in 0..mr {
            stack[i * NR..i * NR + nr].copy_from_slice(&cv[c0 + i * ldc..c0 + i * ldc + nr]);
        }
        full_tile(&mut stack, NR);
        for i in 0..mr {
            cv[c0 + i * ldc..c0 + i * ldc + nr].copy_from_slice(&stack[i * NR..i * NR + nr]);
        }
    }
}

/// One full 8x24 tile: `C[i][j] += sum over kk of a[kk * 8 + i] * b[kk * 24 + j]`,
/// `kk` increasing, each product rounded (`vmulpd`) before it is added
/// (`vaddpd`) — the scalar kernel's arithmetic, eight lanes at a time.
///
/// # Safety
/// The CPU must have AVX-512F; `a` must be valid for reading `8 * kc` words,
/// `b` for `24 * kc`, and `c` for reading and writing `7 * ldc + 24`.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[target_feature(enable = "avx512f")]
unsafe fn zmm_8x24(a: *const f64, b: *const f64, c: *mut f64, ldc: usize, kc: usize) {
    use std::arch::x86_64::{
        _mm512_add_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_storeu_pd,
    };
    use std::array::from_fn;
    // SAFETY: every access below is `c[i * ldc + 8 * j + lane]` with `i < 8`,
    // `j < 3`, `lane < 8`, `a[kk * 8 + i]` or `b[kk * 24 + 8 * j + lane]` with
    // `kk < kc` — inside the ranges the caller vouches for.
    unsafe {
        let mut acc: [[_; 3]; 8] = from_fn(|i| from_fn(|j| _mm512_loadu_pd(c.add(i * ldc + 8 * j))));
        for kk in 0..kc {
            let bvec: [_; 3] = from_fn(|j| _mm512_loadu_pd(b.add(kk * 24 + 8 * j)));
            for (i, row) in acc.iter_mut().enumerate() {
                let aik = _mm512_set1_pd(*a.add(kk * 8 + i));
                for (cij, &bj) in row.iter_mut().zip(&bvec) {
                    *cij = _mm512_add_pd(*cij, _mm512_mul_pd(aik, bj));
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            for (j, &cij) in row.iter().enumerate() {
                _mm512_storeu_pd(c.add(i * ldc + 8 * j), cij);
            }
        }
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
    use std::ops::Range;

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

    /// Bitwise agreement of two results; a NaN matches any NaN (which NaN an
    /// operation yields is left open by IEEE 754, and by Rust).
    fn same_bits(x: &Matrix, y: &Matrix) -> bool {
        let same = |(x, y): (&f64, &f64)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        x.as_slice().iter().zip(y.as_slice()).all(same)
    }

    #[test]
    fn packed_matches_naive_bitwise_across_block_edges() {
        // Sizes straddling both register tiles, the routing rule between them
        // and the MC/KC/NC boundaries exercise every padded corner of the
        // packing.
        let ((nm, nn), (wm, wn)) = (NARROW, WIDE);
        for &(m, n, k) in &[
            (1, 1, 1),
            (nm, nn, 4),
            (nm + 1, nn + 3, KC + 1),
            (MC + 5, nn - 1, 3),
            (130, 257, 61),
            (MC, NC.min(96), KC),
            (wm - 1, wn, 5),
            (wm, wn - 1, 5),
            (wm, wn, 1),
            (wm + 1, wn + 1, KC + 1),
            (wm * 3 + 1, wn * 2 + 23, 40),
            (MC + 5, wn * 3, 3),
            (wm + 3, NC + wn + 5, 2),
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

    /// `src[rows, cols]` row-major with `pad` NaNs after every row: the data
    /// and leading dimension of a strided view.
    fn padded(src: &Matrix, rows: Range<usize>, cols: Range<usize>, pad: usize) -> (Vec<f64>, usize) {
        let mut data = Vec::new();
        for i in rows {
            data.extend_from_slice(&src.row(i)[cols.clone()]);
            data.extend(std::iter::repeat_n(f64::NAN, pad));
        }
        (data, cols.len() + pad)
    }

    #[test]
    fn packed_matches_naive_bitwise_on_segmented_operands() {
        // A and B cut at different k points: empty views, views narrower
        // than a register tile and wider than KC, a cut on a KC edge. Two of
        // every three views are strided, their rows padded with NaNs that no
        // packer may read. One product per register tile.
        let k = 2 * KC + 40;
        let a_cuts = [0, 1, 1, 3, KC, KC + 2, 2 * KC + 9, k];
        let b_cuts = [0, 5, KC + 11, KC + 11, KC + 12, k];
        let pad = |i: usize| [0, 3, 1][i % 3];
        for (m, n) in [(NARROW.0 + 3, NARROW.1 + 5), (MC + 5, WIDE.1 * 2 + 5)] {
            let a = Matrix::deterministic(m, k, 31);
            let b = Matrix::deterministic(k, n, 32);
            let a_parts: Vec<_> = a_cuts
                .windows(2)
                .enumerate()
                .map(|(i, c)| padded(&a, 0..m, c[0]..c[1], pad(i)))
                .collect();
            let b_parts: Vec<_> = b_cuts
                .windows(2)
                .enumerate()
                .map(|(i, c)| padded(&b, c[0]..c[1], 0..n, pad(i + 1)))
                .collect();
            let a_walk = |f: &mut dyn FnMut(View<'_>)| {
                for (c, (data, ld)) in a_cuts.windows(2).zip(&a_parts) {
                    f(View::new(data, m, c[1] - c[0], *ld));
                }
            };
            let b_walk = |f: &mut dyn FnMut(View<'_>)| {
                for (c, (data, ld)) in b_cuts.windows(2).zip(&b_parts) {
                    f(View::new(data, c[1] - c[0], n, *ld));
                }
            };
            let mut c1 = Matrix::from_fn(m, n, |i, j| (i + 3 * j) as f64 * 0.5 - 1.25);
            let mut c2 = c1.clone();
            gemm_naive(&a, &b, &mut c1);
            gemm_packed(Operand::segmented(m, k, &a_walk), Operand::segmented(k, n, &b_walk), &mut c2);
            assert!(
                same_bits(&c1, &c2),
                "segmented operands diverged at {m}x{n}x{k} on the {:?} tile",
                tile_for(m, n)
            );
        }
    }

    #[test]
    #[should_panic(expected = "the views span 3 of their operand's k = 4")]
    fn segmented_operands_must_tile_k() {
        let (a, b) = (Matrix::deterministic(2, 4, 1), Matrix::deterministic(4, 2, 2));
        let short = |f: &mut dyn FnMut(View<'_>)| f(View::new(a.as_slice(), 2, 3, 4));
        gemm_packed(Operand::segmented(2, 4, &short), &b, &mut Matrix::zeros(2, 2));
    }

    #[test]
    fn kernels_agree_bitwise_on_signed_zeros_and_non_finite_entries() {
        // Small integers (exact zeros of both signs among them) with a row of
        // signed zeros and a few infinities and NaNs in A, infinities in B: a
        // zero of A opposite an infinity of B is a NaN in both kernels, because
        // the reference skips nothing. Sizes on both sides of the routing rule.
        for &(m, n, k) in &[(3, 5, 4), (9, 31, 7), (17, 50, KC + 3)] {
            let a = Matrix::from_fn(m, k, |i, kk| match (i % 5, kk % 6) {
                (0, par) => [0.0, -0.0][par % 2],
                (1, 2) => f64::INFINITY,
                (2, 3) => f64::NEG_INFINITY,
                (3, 1) if i == 3 => f64::NAN,
                _ => ((i * 31 + kk * 17) % 13) as f64 - 6.0,
            });
            let b = Matrix::from_fn(k, n, |kk, j| match (kk % 6, j % 7) {
                (0, 3) if kk == 0 => f64::INFINITY,
                (2, 5) => f64::NEG_INFINITY,
                _ => ((kk * 5 + j * 3) % 11) as f64 - 5.0,
            });
            let mut c1 = Matrix::from_fn(m, n, |i, j| if (i + j) % 3 == 0 { -0.0 } else { 0.75 });
            let mut c2 = c1.clone();
            gemm_naive(&a, &b, &mut c1);
            gemm_packed(&a, &b, &mut c2);
            assert!(same_bits(&c1, &c2), "kernels disagree on special values at {m}x{n}x{k}");
            let count = |pred: fn(&f64) -> bool| c1.as_slice().iter().filter(|x| pred(x)).count();
            let (nans, infs, finite) =
                (count(|x| x.is_nan()), count(|x| x.is_infinite()), count(|x| x.is_finite()));
            assert!(
                nans > 0 && infs > 0 && finite > 0,
                "{m}x{n}x{k}: {nans} NaN, {infs} inf, {finite} finite"
            );
        }
        // All-negative-zero products onto a -0.0 C: the sign of zero is kept,
        // and 0 * inf with nothing else in the sum is a NaN, not a skipped term.
        let a = Matrix::from_fn(8, 2, |_, _| -0.0);
        let b = Matrix::from_fn(2, 24, |i, j| if (i, j) == (1, 7) { f64::INFINITY } else { 3.0 });
        let mut c1 = Matrix::from_fn(8, 24, |_, _| -0.0);
        let mut c2 = c1.clone();
        gemm_naive(&a, &b, &mut c1);
        gemm_packed(&a, &b, &mut c2);
        assert!(same_bits(&c1, &c2));
        assert_eq!(c1.get(0, 0).to_bits(), (-0.0f64).to_bits());
        assert!(c1.get(3, 7).is_nan() && c2.get(3, 7).is_nan());
    }

    #[test]
    fn small_bricks_take_the_narrow_tile() {
        // The benchmark's small-brick shapes (`cosma-xl` 4x2 tiles, `summa-msgs`
        // 4x4 panels) and everything short of one full wide tile.
        for (m, n) in [(4, 2), (4, 4), (8, 8), (7, 24), (8, 23), (7, 4096), (4096, 23)] {
            assert_eq!(tile_for(m, n), NARROW, "{m}x{n}");
        }
        let wide = if cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) {
            WIDE
        } else {
            NARROW
        };
        for (m, n) in [(8, 24), (9, 25), (768, 384), (256, 256)] {
            assert_eq!(tile_for(m, n), wide, "{m}x{n}");
        }
    }

    /// The packer `pack_a_panel` replaced: one `push` per element behind a
    /// row test. Kept as the statement of the packed layout.
    fn pack_a_panel_by_push<const MR: usize>(
        av: &[f64],
        lda: usize,
        ic: usize,
        mc: usize,
        pc: usize,
        kc: usize,
    ) -> Vec<f64> {
        let mut apack = Vec::new();
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
        apack
    }

    #[test]
    fn pack_a_panel_writes_the_bytes_the_push_packer_wrote() {
        fn check<const MR: usize>(a: &Matrix, apack: &mut Vec<f64>) {
            for &(ic, mc, pc, kc) in &[
                (0, 37, 0, 29),
                (3, 8, 2, 5),
                (5, 17, 11, 18),
                (36, 1, 28, 1),
                (8, 16, 0, 1),
            ] {
                pack_a_panel::<MR>(&a.into(), apack, ic, mc, pc, kc);
                let want = pack_a_panel_by_push::<MR>(a.as_slice(), a.cols(), ic, mc, pc, kc);
                let same = apack.iter().map(|x| x.to_bits()).eq(want.iter().map(|x| x.to_bits()));
                assert!(same, "MR {MR}: rows {ic}..+{mc}, columns {pc}..+{kc}");
            }
        }
        let a = Matrix::deterministic(37, 29, 5);
        // A stale, longer arena: the packer must not leak it into the padding.
        let mut apack = vec![f64::NAN; 4096];
        check::<{ NARROW.0 }>(&a, &mut apack);
        check::<{ WIDE.0 }>(&a, &mut apack);
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
