//! COSMA's blocked data layout and the ScaLAPACK adapter (§7.6).
//!
//! COSMA's schedule induces its optimal initial layout: each rank should
//! start owning exactly the shards it contributes to the all-gathers —
//! then `DistrData` needs no preparatory reshuffling. This module exposes
//! that induced layout as [`densemat::layout::Distribution`]s (element-level
//! owner functions) so that
//!
//! * the executor's own-block extraction and the layout agree
//!   (tested), and
//! * the cost of adapting a ScaLAPACK block-cyclic matrix to COSMA's layout
//!   — the paper's preprocessing phase — can be measured exactly with
//!   [`densemat::layout::relayout_words`].

use densemat::layout::Distribution;

use crate::algorithm::{even_owner, even_range};
use crate::grid::Grid3;
use crate::problem::MmmProblem;
use crate::schedule::latency_steps;

/// Shared geometry of the COSMA layouts.
#[derive(Debug, Clone)]
struct Geometry {
    prob: MmmProblem,
    grid: Grid3,
}

impl Geometry {
    /// Locate coordinate `x` within `parts` balanced pieces of `0..total`:
    /// returns `(piece index, offset range of the piece)`.
    fn piece(total: usize, parts: usize, x: usize) -> (usize, std::ops::Range<usize>) {
        let idx = even_owner(total, parts, x);
        (idx, even_range(total, parts, idx))
    }
}

/// The layout of matrix A induced by a COSMA plan: element `(i, t)` belongs
/// to the rank whose brick covers row `i` and k-range `t`, within the j-fiber
/// to the member owning the balanced chunk of the round slab containing `t`.
#[derive(Debug, Clone)]
pub struct CosmaALayout {
    geo: Geometry,
}

/// The layout of matrix B induced by a COSMA plan (transposed reasoning of
/// [`CosmaALayout`]: ownership chunks run along the i-fiber).
#[derive(Debug, Clone)]
pub struct CosmaBLayout {
    geo: Geometry,
}

/// The layout of the output C: block `(i, j)` lives on the k-fiber root
/// `(i_m, j_n, 0)`.
#[derive(Debug, Clone)]
pub struct CosmaCLayout {
    geo: Geometry,
}

/// Build the three layouts induced by a COSMA grid.
pub fn cosma_layouts(prob: &MmmProblem, grid: Grid3) -> (CosmaALayout, CosmaBLayout, CosmaCLayout) {
    let geo = Geometry { prob: *prob, grid };
    (CosmaALayout { geo: geo.clone() }, CosmaBLayout { geo: geo.clone() }, CosmaCLayout { geo })
}

/// Locate `t` within the round-slab structure of the k-range `ks` and return
/// the owner position along a fiber of `parts` members.
fn chunk_owner(
    prob: &MmmProblem,
    lm: usize,
    ln: usize,
    ks: std::ops::Range<usize>,
    t: usize,
    parts: usize,
) -> usize {
    let sp =
        latency_steps(lm, ln, ks.len(), prob.mem_words).expect("layout queried for an infeasible domain");
    let local_t = t - ks.start;
    for slab in sp.slab_ranges() {
        if slab.contains(&local_t) {
            let within = local_t - slab.start;
            let (pos, _) = Geometry::piece(slab.len(), parts, within);
            return pos;
        }
    }
    unreachable!("t inside ks must fall in a slab");
}

impl Distribution for CosmaALayout {
    fn owner(&self, i: usize, t: usize) -> usize {
        let g = &self.geo;
        let (im, rows) = Geometry::piece(g.prob.m, g.grid.gm, i);
        let (ik, ks) = Geometry::piece(g.prob.k, g.grid.gk, t);
        // ln of the owning fiber is the same for all members (cols split by jn).
        let ln = even_range(g.prob.n, g.grid.gn, 0).len();
        let jn = chunk_owner(&g.prob, rows.len(), ln, ks, t, g.grid.gn);
        g.grid.rank_of(im, jn, ik)
    }

    fn num_ranks(&self) -> usize {
        self.geo.prob.p
    }

    fn shape(&self) -> (usize, usize) {
        (self.geo.prob.m, self.geo.prob.k)
    }
}

impl Distribution for CosmaBLayout {
    fn owner(&self, t: usize, j: usize) -> usize {
        let g = &self.geo;
        let (jn, cols) = Geometry::piece(g.prob.n, g.grid.gn, j);
        let (ik, ks) = Geometry::piece(g.prob.k, g.grid.gk, t);
        let lm = even_range(g.prob.m, g.grid.gm, 0).len();
        let im = chunk_owner(&g.prob, lm, cols.len(), ks, t, g.grid.gm);
        g.grid.rank_of(im, jn, ik)
    }

    fn num_ranks(&self) -> usize {
        self.geo.prob.p
    }

    fn shape(&self) -> (usize, usize) {
        (self.geo.prob.k, self.geo.prob.n)
    }
}

impl Distribution for CosmaCLayout {
    fn owner(&self, i: usize, j: usize) -> usize {
        let g = &self.geo;
        let (im, _) = Geometry::piece(g.prob.m, g.grid.gm, i);
        let (jn, _) = Geometry::piece(g.prob.n, g.grid.gn, j);
        g.grid.rank_of(im, jn, 0)
    }

    fn num_ranks(&self) -> usize {
        self.geo.prob.p
    }

    fn shape(&self) -> (usize, usize) {
        (self.geo.prob.m, self.geo.prob.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::layout::{relayout_words, BlockCyclic};

    fn setup() -> (MmmProblem, Grid3) {
        (MmmProblem::new(12, 12, 12, 8, 4096), Grid3 { gm: 2, gn: 2, gk: 2 })
    }

    #[test]
    fn piece_locates_balanced_splits() {
        // 10 into 3: pieces [0..4), [4..7), [7..10).
        assert_eq!(Geometry::piece(10, 3, 0).0, 0);
        assert_eq!(Geometry::piece(10, 3, 3).0, 0);
        assert_eq!(Geometry::piece(10, 3, 4).0, 1);
        assert_eq!(Geometry::piece(10, 3, 6).0, 1);
        assert_eq!(Geometry::piece(10, 3, 7).0, 2);
        assert_eq!(Geometry::piece(10, 3, 9).0, 2);
        for x in 0..10 {
            let (idx, r) = Geometry::piece(10, 3, x);
            assert!(r.contains(&x), "x={x} idx={idx} r={r:?}");
        }
    }

    #[test]
    fn a_layout_partitions_a_exactly() {
        let (prob, grid) = setup();
        let (la, _, _) = cosma_layouts(&prob, grid);
        let total: usize = (0..prob.p).map(|r| la.local_len(r)).sum();
        assert_eq!(total, prob.m * prob.k);
        // Every element's owner covers it: row block and k block must match.
        for i in 0..prob.m {
            for t in 0..prob.k {
                let r = la.owner(i, t);
                let (im, jn, ik) = grid.coords_of(r);
                assert!(even_range(prob.m, grid.gm, im).contains(&i));
                assert!(even_range(prob.k, grid.gk, ik).contains(&t));
                assert!(jn < grid.gn);
            }
        }
    }

    #[test]
    fn b_layout_partitions_b_exactly() {
        let (prob, grid) = setup();
        let (_, lb, _) = cosma_layouts(&prob, grid);
        let total: usize = (0..prob.p).map(|r| lb.local_len(r)).sum();
        assert_eq!(total, prob.k * prob.n);
    }

    #[test]
    fn c_layout_lives_on_k_roots() {
        let (prob, grid) = setup();
        let (_, _, lc) = cosma_layouts(&prob, grid);
        for i in 0..prob.m {
            for j in 0..prob.n {
                let (_, _, ik) = grid.coords_of(lc.owner(i, j));
                assert_eq!(ik, 0, "C must live on the k-fiber root");
            }
        }
    }

    #[test]
    fn fiber_members_share_a_block_evenly() {
        // Within one (im, ik) block of A, all gn fiber members own a share.
        let (prob, grid) = setup();
        let (la, _, _) = cosma_layouts(&prob, grid);
        let mut counts = vec![0usize; prob.p];
        for i in 0..prob.m / 2 {
            for t in 0..prob.k / 2 {
                counts[la.owner(i, t)] += 1;
            }
        }
        let owners: Vec<usize> = counts.iter().filter(|&&c| c > 0).copied().collect();
        assert_eq!(owners.len(), grid.gn, "block shared by the j-fiber");
        let (mn, mx) = (owners.iter().min().unwrap(), owners.iter().max().unwrap());
        assert!(mx - mn <= prob.m / 2, "shares roughly balanced: {owners:?}");
    }

    #[test]
    fn scalapack_relayout_cost_is_measurable() {
        let (prob, grid) = setup();
        let (la, _, _) = cosma_layouts(&prob, grid);
        let bc = BlockCyclic::new(prob.m, prob.k, 2, 2, 2, 4);
        let moved = relayout_words(&bc, &la);
        assert!(moved > 0, "layouts differ, words must move");
        assert!(moved <= (prob.m * prob.k) as u64);
    }
}
