//! Executable greedy MMM schedules (paper §5.2.7, Listing 1).
//!
//! [`tiled_moves`] emits a *complete* red-blue pebble game move sequence for
//! the tiled rank-1-update schedule: C is cut into `a × b` tiles; each tile
//! stays resident ("red") while the `k` A-column/B-row fragments stream
//! through fast memory. The generated sequence is validated move-by-move by
//! the [`crate::game`] engine, so the measured I/O of these schedules is the
//! I/O of a *real* execution, not a formula.

use crate::bounds;
use crate::game::Move;
use crate::mmm::MmmCdag;

/// Emit the complete move sequence of the tiled greedy schedule with C-tile
/// shape `a × b`.
///
/// Peak red-pebble usage is `a·b + a + b + 1` (tile partials + A fragment +
/// B fragment + the freshly computed partial before its predecessor is
/// freed), so the sequence is valid for any capacity `S ≥ a·b + a + b + 1`.
///
/// # Panics
/// Panics if `a` or `b` is zero.
pub fn tiled_moves(g: &MmmCdag, a: usize, b: usize) -> Vec<Move> {
    assert!(a > 0 && b > 0, "tile sizes must be positive");
    let (m, n, k) = (g.m, g.n, g.k);
    let mut moves = Vec::with_capacity(bounds::tiled_io(m, n, k, a, b) as usize * 2);
    let mut i0 = 0;
    while i0 < m {
        let i1 = (i0 + a).min(m);
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + b).min(n);
            // Stream the k layers through this C tile.
            for t in 0..k {
                // Load the A-column fragment and B-row fragment.
                for i in i0..i1 {
                    moves.push(Move::Load(g.a_id(i, t)));
                }
                for j in j0..j1 {
                    moves.push(Move::Load(g.b_id(t, j)));
                }
                // Update every partial in the tile, freeing its predecessor.
                for i in i0..i1 {
                    for j in j0..j1 {
                        moves.push(Move::Compute(g.c_id(i, j, t)));
                        if t > 0 {
                            moves.push(Move::RemoveRed(g.c_id(i, j, t - 1)));
                        }
                    }
                }
                // Free the streamed input fragments.
                for i in i0..i1 {
                    moves.push(Move::RemoveRed(g.a_id(i, t)));
                }
                for j in j0..j1 {
                    moves.push(Move::RemoveRed(g.b_id(t, j)));
                }
            }
            // Store the finished tile of C and release it.
            for i in i0..i1 {
                for j in j0..j1 {
                    moves.push(Move::Store(g.c_id(i, j, k - 1)));
                    moves.push(Move::RemoveRed(g.c_id(i, j, k - 1)));
                }
            }
            j0 = j1;
        }
        i0 = i1;
    }
    moves
}

/// Fast-memory capacity required by [`tiled_moves`] with tile `a × b`.
pub fn tiled_capacity(a: usize, b: usize) -> usize {
    a * b + a + b + 1
}

/// Convenience: generate the near-I/O-optimal schedule for capacity `s`
/// (tile chosen by [`bounds::best_engine_tile`]) and return
/// `(moves, tile_a, tile_b)`.
pub fn near_optimal_moves(g: &MmmCdag, s: usize) -> (Vec<Move>, usize, usize) {
    let (a, b) = bounds::best_engine_tile(s);
    (tiled_moves(g, a, b), a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{theorem1_lower_bound, tiled_io};
    use crate::cdag::VertexId;
    use crate::game::{validate_complete, GameRun};
    use crate::partition::validate_x_partition;

    /// The X-partition induced by the tiled schedule: one part per
    /// `(tile, k-layer)` subcomputation, in execution order. Feeding this to
    /// [`validate_x_partition`] certifies the schedule's partition structure
    /// (§5.2.2).
    fn tiled_partition(g: &MmmCdag, a: usize, b: usize) -> Vec<Vec<VertexId>> {
        let (m, n, k) = (g.m, g.n, g.k);
        let mut parts = Vec::new();
        let mut i0 = 0;
        while i0 < m {
            let i1 = (i0 + a).min(m);
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + b).min(n);
                for t in 0..k {
                    let t1: Vec<usize> = (i0..i1).collect();
                    let t2: Vec<usize> = (j0..j1).collect();
                    parts.push(g.brick(&t1, &t2, &[t]));
                }
                j0 = j1;
            }
            i0 = i1;
        }
        parts
    }

    #[test]
    fn tiled_schedule_is_a_complete_valid_pebbling() {
        let g = MmmCdag::new(4, 4, 3);
        let moves = tiled_moves(&g, 2, 2);
        let io = validate_complete(g.graph(), tiled_capacity(2, 2), &moves).unwrap();
        assert_eq!(io, tiled_io(4, 4, 3, 2, 2));
    }

    #[test]
    fn tiled_schedule_fails_below_required_capacity() {
        let g = MmmCdag::new(4, 4, 3);
        let moves = tiled_moves(&g, 2, 2);
        let mut run = GameRun::new(g.graph(), tiled_capacity(2, 2) - 1);
        assert!(run.apply_all(&moves).is_err());
    }

    #[test]
    fn peak_red_matches_capacity_formula() {
        for &(m, n, k, a, b) in &[(4, 4, 4, 2, 2), (5, 7, 3, 2, 3), (6, 6, 2, 3, 2)] {
            let g = MmmCdag::new(m, n, k);
            let moves = tiled_moves(&g, a, b);
            let mut run = GameRun::new(g.graph(), tiled_capacity(a, b));
            run.apply_all(&moves).unwrap();
            assert!(run.is_complete());
            assert_eq!(run.peak_red(), tiled_capacity(a, b), "({m},{n},{k}) tile ({a},{b})");
        }
    }

    #[test]
    fn measured_io_equals_formula_with_remainders() {
        // 5x7x3 with 2x3 tiles exercises remainder tiles in both dimensions.
        let g = MmmCdag::new(5, 7, 3);
        let moves = tiled_moves(&g, 2, 3);
        let io = validate_complete(g.graph(), tiled_capacity(2, 3), &moves).unwrap();
        assert_eq!(io, tiled_io(5, 7, 3, 2, 3));
    }

    #[test]
    fn measured_io_respects_theorem1() {
        for &(m, n, k, s) in &[(4, 4, 4, 9), (6, 6, 6, 12), (8, 5, 7, 16)] {
            let g = MmmCdag::new(m, n, k);
            let (moves, a, b) = near_optimal_moves(&g, s);
            let io = validate_complete(g.graph(), s, &moves).unwrap();
            let lb = theorem1_lower_bound(m, n, k, s);
            assert!(io as f64 >= lb, "measured {io} below Theorem 1 bound {lb} (tile {a}x{b})");
        }
    }

    #[test]
    fn ratio_to_bound_shrinks_with_memory() {
        // As S grows the tiled schedule approaches the lower bound: the
        // paper's sqrt(S)/(sqrt(S+1)-1) + engine slack. Tiles are chosen to
        // divide the dimensions so remainder-tile noise does not mask the
        // monotone trend.
        let (m, n, k) = (12, 12, 6);
        let g = MmmCdag::new(m, n, k);
        let mut prev_ratio = f64::INFINITY;
        for a in [1usize, 2, 3, 4, 6] {
            let s = tiled_capacity(a, a);
            let moves = tiled_moves(&g, a, a);
            let io = validate_complete(g.graph(), s, &moves).unwrap();
            let ratio = io as f64 / theorem1_lower_bound(m, n, k, s);
            assert!(ratio <= prev_ratio + 1e-9, "ratio not shrinking at tile {a} (S={s})");
            prev_ratio = ratio;
        }
        assert!(prev_ratio < 1.6, "final ratio {prev_ratio} too far from bound");
    }

    #[test]
    fn rank1_tile_is_worst_case() {
        // a = b = 1 degenerates to the naive schedule with mnk*2 loads.
        let g = MmmCdag::new(3, 3, 3);
        let moves = tiled_moves(&g, 1, 1);
        let io = validate_complete(g.graph(), tiled_capacity(1, 1), &moves).unwrap();
        assert_eq!(io, 2 * 27 + 9);
    }

    #[test]
    fn tiled_partition_is_valid_x_partition() {
        let g = MmmCdag::new(4, 4, 2);
        let parts = tiled_partition(&g, 2, 2);
        // Each part: 2x2x1 brick, Dom = alpha(2) + beta(2) + gamma(<=4) <= 8,
        // Min = 4.
        assert_eq!(parts.len(), 4 * 2);
        assert_eq!(validate_x_partition(g.graph(), &parts, 8), Ok(()));
    }

    #[test]
    fn tiled_partition_parts_have_expected_sizes() {
        let g = MmmCdag::new(5, 4, 3);
        let parts = tiled_partition(&g, 2, 2);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 5 * 4 * 3, "parts must cover all C vertices");
        assert!(parts.iter().all(|p| p.len() <= 4));
    }

    #[test]
    fn move_count_scales_linearly() {
        let g = MmmCdag::new(4, 4, 4);
        let m1 = tiled_moves(&g, 2, 2).len();
        let g2 = MmmCdag::new(4, 4, 8);
        let m2 = tiled_moves(&g2, 2, 2).len();
        assert!(m2 > m1);
        // Doubling k roughly doubles the moves (stores stay constant).
        assert!((m2 as f64) < 2.2 * m1 as f64);
    }
}
