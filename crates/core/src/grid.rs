//! `FitRanks` — processor-grid optimization (§7.1, Figure 5).
//!
//! Real rank counts are rarely of the form the optimal domain wants
//! (Eq. 32 assumes all divisions come out integer). `FitRanks` searches the
//! integer grids `[g_m × g_n × g_k]` over every admissible used-rank count
//! `p' ∈ [⌈(1−δ)p⌉, p]` and picks the one minimizing modeled time
//! (compute + communication). Dropping a few ranks can shrink communication
//! dramatically: the paper's Figure 5 shows `p = 65` collapsing from a
//! stretched `1 × 5 × 13` grid to `4 × 4 × 4` with one idle rank — ~36% less
//! communication for 1.5% more per-rank compute.

use mpsim::collectives::{allgather_bruck_msgs, Fiber};
use mpsim::cost::CostModel;

use crate::problem::MmmProblem;
use crate::schedule::latency_steps;

/// A 3D processor grid `[g_m, g_n, g_k]` with row-major rank numbering:
/// `rank = (i_m · g_n + j_n) · g_k + i_k` — so every line of the grid is an
/// arithmetic progression of ranks (k-fibers step by 1, j-fibers by `g_k`,
/// i-fibers by `g_n · g_k`) and is handed out as a [`Fiber`], not a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid3 {
    /// Parts along m.
    pub gm: usize,
    /// Parts along n.
    pub gn: usize,
    /// Parts along k.
    pub gk: usize,
}

impl Grid3 {
    /// Total grid size.
    pub fn size(&self) -> usize {
        self.gm * self.gn * self.gk
    }

    /// Rank of grid coordinates.
    pub fn rank_of(&self, im: usize, jn: usize, ik: usize) -> usize {
        debug_assert!(im < self.gm && jn < self.gn && ik < self.gk);
        (im * self.gn + jn) * self.gk + ik
    }

    /// Grid coordinates of a rank.
    pub fn coords_of(&self, rank: usize) -> (usize, usize, usize) {
        debug_assert!(rank < self.size());
        let ik = rank % self.gk;
        let rest = rank / self.gk;
        (rest / self.gn, rest % self.gn, ik)
    }

    /// The j-fiber through `(im, ·, ik)` — the group that all-gathers A.
    pub fn j_fiber(&self, im: usize, ik: usize) -> Fiber {
        Fiber {
            base: self.rank_of(im, 0, ik),
            stride: self.gk,
            len: self.gn,
        }
    }

    /// The i-fiber through `(·, jn, ik)` — the group that all-gathers B.
    pub fn i_fiber(&self, jn: usize, ik: usize) -> Fiber {
        Fiber {
            base: self.rank_of(0, jn, ik),
            stride: self.gn * self.gk,
            len: self.gm,
        }
    }

    /// The k-fiber through `(im, jn, ·)` — the group that reduces C.
    pub fn k_fiber(&self, im: usize, jn: usize) -> Fiber {
        Fiber {
            base: self.rank_of(im, jn, 0),
            stride: 1,
            len: self.gk,
        }
    }
}

/// The grid of a plan header's `[g_m, g_n, g_k]`.
impl From<[usize; 3]> for Grid3 {
    fn from([gm, gn, gk]: [usize; 3]) -> Grid3 {
        Grid3 { gm, gn, gk }
    }
}

/// Result of the grid search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitResult {
    /// The chosen grid.
    pub grid: Grid3,
    /// Ranks actually used (`grid.size()`), at least `⌈(1−δ)p⌉`.
    pub used: usize,
    /// Ceil local-domain extents `[l_m, l_n, l_k]`.
    pub local: [usize; 3],
    /// Modeled per-rank words received (the objective's comm part).
    pub comm_words: u64,
    /// Modeled per-rank time in seconds (the full objective).
    pub score: f64,
}

/// Why no grid was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// No factorization of any admissible `p'` fits the per-rank memory.
    NoFeasibleGrid,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no feasible processor grid fits the per-rank memory")
    }
}

impl std::error::Error for FitError {}

/// Modeled *mean* per-rank received words of a grid: the A and B all-gathers
/// along the grid fibers plus the k-fiber reduction of the C tile. The
/// reduction is a ring reduce-scatter: each fiber member receives `g_k − 1`
/// messages, the tile minus its own chunk, `(g_k−1)/g_k · l_m·l_n` words on
/// average (the paper's `a²` term).
fn grid_comm_words(lm: usize, ln: usize, lk: usize, g: Grid3) -> u64 {
    let (lm, ln, lk) = (lm as u64, ln as u64, lk as u64);
    let a_words = lm * lk * (g.gn as u64 - 1) / g.gn as u64;
    let b_words = ln * lk * (g.gm as u64 - 1) / g.gm as u64;
    let c_words = lm * ln * (g.gk as u64 - 1) / g.gk as u64;
    a_words + b_words + c_words
}

/// `FitRanks`: search all factor triples of all admissible used-rank counts,
/// minimizing modeled time. `delta` is the maximum fraction of idle ranks
/// (the paper uses 3% on Piz Daint).
pub fn fit_ranks(prob: &MmmProblem, delta: f64, model: &CostModel) -> Result<FitResult, FitError> {
    assert!((0.0..1.0).contains(&delta), "delta must be in [0, 1)");
    let p = prob.p;
    let min_used = (((1.0 - delta) * p as f64).ceil() as usize).clamp(1, p);
    match fit_ranks_in(prob, min_used, model) {
        Ok(fit) => Ok(fit),
        // δ is a tuning knob, not a hard constraint: when no grid within the
        // idle budget is feasible (e.g. the matrix has fewer cells than the
        // budget demands ranks), fall back to the best grid of any size.
        Err(FitError::NoFeasibleGrid) if min_used > 1 => fit_ranks_in(prob, 1, model),
        Err(e) => Err(e),
    }
}

fn fit_ranks_in(prob: &MmmProblem, min_used: usize, model: &CostModel) -> Result<FitResult, FitError> {
    let p = prob.p;
    let mut best: Option<FitResult> = None;
    for used in min_used..=p {
        for (gm, gn, gk) in factor_triples(used) {
            let grid = Grid3 { gm, gn, gk };
            // Degenerate grids coarser than the matrix are useless.
            if gm > prob.m || gn > prob.n || gk > prob.k {
                continue;
            }
            let lm = prob.m.div_ceil(gm);
            let ln = prob.n.div_ceil(gn);
            let lk = prob.k.div_ceil(gk);
            // Memory feasibility: the C tile plus one double-buffered column/
            // row pair must fit (the step size search needs at least s = 1).
            let Some(steps) = latency_steps(lm, ln, lk, prob.mem_words).map(|s| s.steps) else {
                continue;
            };
            let comm_words = grid_comm_words(lm, ln, lk, grid);
            let flops = 2 * lm as u64 * ln as u64 * lk as u64;
            // Message count estimate: `⌈log₂ g⌉` Bruck rounds per A and B
            // gather per step, plus the ring reduce-scatter's `g_k − 1`.
            let msgs = steps as u64 * (allgather_bruck_msgs(gn) + allgather_bruck_msgs(gm)) + gk as u64 - 1;
            let score = model.compute_time(flops) + model.comm_time(comm_words, msgs);
            let cand = FitResult {
                grid,
                used,
                local: [lm, ln, lk],
                comm_words,
                score,
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    cand.score < b.score - 1e-15
                        || ((cand.score - b.score).abs() <= 1e-15 && cand.used > b.used)
                }
            };
            if better {
                best = Some(cand);
            }
        }
    }
    best.ok_or(FitError::NoFeasibleGrid)
}

/// All ordered factor triples `(a, b, c)` with `a·b·c = n`.
pub fn factor_triples(n: usize) -> Vec<(usize, usize, usize)> {
    let divs = divisors(n);
    let mut out = Vec::new();
    for &a in &divs {
        let rest = n / a;
        for &b in &divisors(rest) {
            out.push((a, b, rest / b));
        }
    }
    out
}

/// Sorted divisors of `n`.
pub fn divisors(n: usize) -> Vec<usize> {
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d != n / d {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::piz_daint_two_sided()
    }

    #[test]
    fn divisors_basic() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(13), vec![1, 13]);
    }

    #[test]
    fn factor_triples_complete_and_valid() {
        let triples = factor_triples(12);
        assert!(triples.iter().all(|&(a, b, c)| a * b * c == 12));
        // d(12) summed over divisor chains: Σ_{a|12} d(12/a) = 18.
        assert_eq!(triples.len(), 18);
        assert!(triples.contains(&(2, 3, 2)));
        assert!(triples.contains(&(12, 1, 1)));
    }

    #[test]
    fn grid3_rank_coord_roundtrip() {
        let g = Grid3 { gm: 3, gn: 4, gk: 2 };
        for r in 0..g.size() {
            let (im, jn, ik) = g.coords_of(r);
            assert_eq!(g.rank_of(im, jn, ik), r);
        }
    }

    #[test]
    fn grid3_fibers() {
        // The closed form names the ranks `rank_of` does, member by member.
        for g in [
            Grid3 { gm: 2, gn: 3, gk: 2 },
            Grid3 { gm: 5, gn: 1, gk: 4 },
            Grid3 { gm: 1, gn: 7, gk: 1 },
        ] {
            let ranks = |f: Fiber| (0..f.len).map(|j| f.rank(j)).collect::<Vec<_>>();
            for r in 0..g.size() {
                let (im, jn, ik) = g.coords_of(r);
                let along_j: Vec<usize> = (0..g.gn).map(|j| g.rank_of(im, j, ik)).collect();
                let along_i: Vec<usize> = (0..g.gm).map(|i| g.rank_of(i, jn, ik)).collect();
                let along_k: Vec<usize> = (0..g.gk).map(|k| g.rank_of(im, jn, k)).collect();
                assert_eq!(ranks(g.j_fiber(im, ik)), along_j, "{g:?} j-fiber of rank {r}");
                assert_eq!(ranks(g.i_fiber(jn, ik)), along_i, "{g:?} i-fiber of rank {r}");
                assert_eq!(ranks(g.k_fiber(im, jn)), along_k, "{g:?} k-fiber of rank {r}");
                assert_eq!((along_j[jn], along_i[im], along_k[ik]), (r, r, r), "{g:?}: own position");
            }
        }
    }

    #[test]
    fn square_power_of_two_uses_all_ranks() {
        // S = 2^17 leaves room for the 256x256 C tile plus round buffers.
        // (With S = 2^16 the tile alone is exactly S, which a *feasible*
        // schedule cannot use — the √(S+1)−1 attainability gap of §5.2.7.)
        let prob = MmmProblem::new(1024, 1024, 1024, 64, 1 << 17);
        let fit = fit_ranks(&prob, 0.03, &model()).unwrap();
        assert_eq!(fit.used, 64, "64 = 4x4x4 is already ideal");
        assert_eq!(fit.grid.size(), 64);
        // A balanced grid for a cube: no dimension more than 4x another.
        let Grid3 { gm, gn, gk } = fit.grid;
        let mx = gm.max(gn).max(gk);
        let mn = gm.min(gn).min(gk);
        assert!(mx <= 4 * mn, "grid {gm}x{gn}x{gk} is stretched");
    }

    #[test]
    fn figure5_p65_drops_one_rank() {
        // The paper's Figure 5: square matrices, p = 65. Using all 65 ranks
        // forces 1 x 5 x 13; dropping one gives 4 x 4 x 4 and ~36% less
        // communication.
        let prob = MmmProblem::new(4096, 4096, 4096, 65, 1 << 22);
        let strict = fit_ranks(&prob, 0.0, &model()).unwrap();
        assert_eq!(strict.used, 65);
        let relaxed = fit_ranks(&prob, 0.03, &model()).unwrap();
        assert_eq!(relaxed.used, 64, "one rank must be dropped");
        assert_eq!((relaxed.grid.gm, relaxed.grid.gn, relaxed.grid.gk), (4, 4, 4));
        let saved = 1.0 - relaxed.comm_words as f64 / strict.comm_words as f64;
        assert!(saved > 0.25, "comm saving {saved} too small");
        // Compute penalty of idling one rank of 65 is ~1.5%.
        let strict_flops = 2 * (strict.local[0] * strict.local[1] * strict.local[2]) as u64;
        let relaxed_flops = 2 * (relaxed.local[0] * relaxed.local[1] * relaxed.local[2]) as u64;
        let penalty = relaxed_flops as f64 / strict_flops as f64 - 1.0;
        assert!(penalty < 0.05, "compute penalty {penalty} too large");
    }

    #[test]
    fn prime_p_with_delta_zero_gives_degenerate_grid() {
        let prob = MmmProblem::new(512, 512, 512, 13, 1 << 18);
        let fit = fit_ranks(&prob, 0.0, &model()).unwrap();
        assert_eq!(fit.used, 13);
        // 13 is prime: the only grids are permutations of [1, 1, 13].
        let dims = [fit.grid.gm, fit.grid.gn, fit.grid.gk];
        assert!(dims.contains(&13));
    }

    #[test]
    fn delta_never_hurts() {
        for p in [13usize, 65, 100, 127] {
            let prob = MmmProblem::new(1024, 1024, 1024, p, 1 << 18);
            let strict = fit_ranks(&prob, 0.0, &model()).unwrap();
            let relaxed = fit_ranks(&prob, 0.05, &model()).unwrap();
            assert!(relaxed.score <= strict.score + 1e-12, "p={p}: relaxing delta made things worse");
        }
    }

    #[test]
    fn tall_matrices_get_k_heavy_grid() {
        // largeK: m = n = 128, k = 2^20; the grid must parallelize along k.
        let prob = MmmProblem::new(128, 128, 1 << 20, 64, 1 << 16);
        let fit = fit_ranks(&prob, 0.03, &model()).unwrap();
        assert!(fit.grid.gk >= 16, "grid {:?} does not exploit k", fit.grid);
    }

    #[test]
    fn flat_matrices_get_ij_grid() {
        // Rank-k update: m = n = 2^13, k = 64: parallelize in the ij plane.
        let prob = MmmProblem::new(1 << 13, 1 << 13, 64, 64, 1 << 22);
        let fit = fit_ranks(&prob, 0.03, &model()).unwrap();
        assert_eq!(fit.grid.gk, 1, "grid {:?} needlessly splits k", fit.grid);
        assert!(fit.grid.gm >= 4 && fit.grid.gn >= 4);
    }

    #[test]
    fn memory_infeasible_returns_error() {
        // C tile of even the finest 2D split exceeds S=4 words... but a
        // k-only split needs lm*ln = m*n <= S too. With m=n=100, p=2:
        // best tile 100x50 = 5000 words > 4.
        let prob = MmmProblem::new(100, 100, 100, 2, 4);
        assert_eq!(fit_ranks(&prob, 0.0, &model()), Err(FitError::NoFeasibleGrid));
    }

    #[test]
    fn grid_never_exceeds_matrix_dims() {
        let prob = MmmProblem::new(4, 4, 4096, 64, 1 << 14);
        let fit = fit_ranks(&prob, 0.03, &model()).unwrap();
        assert!(fit.grid.gm <= 4 && fit.grid.gn <= 4);
        assert!(fit.grid.size() <= 64);
    }
}
