//! SUMMA — the ScaLAPACK-style 2D algorithm (van de Geijn & Watts 1997).
//!
//! The matrices live on a `g_m × g_n` process grid, the one-layer
//! [`Grid3`] `[g_m, g_n, 1]`: rank `(i, j)` owns `A[rows_i, kslice_j]`,
//! `B[kslice_i, cols_j]` and computes `C[rows_i, cols_j]` locally (no
//! reduction — the 2D algorithm's defining property). The k dimension is
//! walked in panels: for each panel, the owning column broadcasts its `A`
//! panel along the row (the grid's j-fiber) and the owning row broadcasts
//! its `B` panel along the column (its i-fiber). Panels never straddle
//! ownership boundaries, so every broadcast has a single root and the
//! per-rank traffic is exact: a rank receives all of `A[rows_i, ·]` and
//! `B[·, cols_j]` except the slices it owns.
//!
//! Grid selection mimics a *well-tuned* ScaLAPACK (the paper hand-tuned it):
//! among all factor pairs `g_m · g_n = p` we pick the one minimizing modeled
//! communication, subject to the C tile + panel buffers fitting in `S`.

use cosma::algorithm::CPart;
use cosma::api::{AlgoId, MmmAlgorithm, PlanError, RankFuture};
use cosma::grid::Grid3;
use cosma::plan::{Brick, DistPlan, PlanHeader, RankPlan, Round, RoundsBuilder};
use cosma::problem::MmmProblem;
use densemat::gemm::gemm_packed;
use densemat::matrix::Matrix;
use mpsim::collectives::{bcast_pipelined, bcast_pipelined_recv_msgs, even_cut, even_owner, even_range};
use mpsim::comm::RankComm;
use mpsim::cost::CostModel;
use mpsim::stats::Phase;

/// Pick the best 2D grid `[g_m, g_n, 1]`: all `p` ranks, minimal modeled
/// traffic, memory feasible.
pub fn choose_grid(prob: &MmmProblem) -> Result<Grid3, PlanError> {
    let mut best: Option<(u128, Grid3)> = None;
    for gm in cosma::grid::divisors(prob.p) {
        let gn = prob.p / gm;
        if gm > prob.m || gn > prob.n {
            continue;
        }
        let lm = prob.m.div_ceil(gm);
        let ln = prob.n.div_ceil(gn);
        // C tile + one double-buffered panel pair must fit.
        if lm * ln + 2 * (lm + ln) > prob.mem_words {
            continue;
        }
        // Received words: all of A[rows, .] and B[., cols] except own slices.
        let cost = (lm as u128) * (prob.k as u128) * (gn as u128 - 1) / gn as u128
            + (ln as u128) * (prob.k as u128) * (gm as u128 - 1) / gm as u128;
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, Grid3 { gm, gn, gk: 1 }));
        }
    }
    best.map(|(_, g)| g).ok_or(PlanError::NoFeasibleGrid)
}

/// Panel boundaries along k: ownership cuts (both A's `g_n`-split and B's
/// `g_m`-split) refined to at most `nb`-wide panels.
fn panels(prob: &MmmProblem, grid: Grid3, nb: usize) -> Vec<std::ops::Range<usize>> {
    let mut cuts: Vec<usize> = (0..=grid.gn).map(|j| even_cut(prob.k, grid.gn, j)).collect();
    cuts.extend((0..=grid.gm).map(|i| even_cut(prob.k, grid.gm, i)));
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = Vec::new();
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let mut x = lo;
        while x < hi {
            let end = (x + nb).min(hi);
            out.push(x..end);
            x = end;
        }
    }
    out
}

/// The panel width that fills the memory slack, like COSMA's step size.
fn panel_width(prob: &MmmProblem, lm: usize, ln: usize) -> usize {
    let slack = prob.mem_words.saturating_sub(lm * ln);
    (slack / (2 * (lm + ln))).clamp(1, prob.k)
}

/// One k-panel as every rank of a plan sees it. Which grid row or column
/// roots a panel's broadcasts, and how many segments they arrive in, depend
/// on the panel and on a rank's tile height or width only — of which a
/// balanced split has two (`⌈m/g_m⌉` and `⌊m/g_m⌋`) — so the table is built
/// once per plan and every rank reads it.
struct Panel {
    /// Panel width along k.
    w: usize,
    /// Grid column that owns (and broadcasts) the A panel.
    a_root: usize,
    /// Grid row that owns the B panel.
    b_root: usize,
    /// Messages a non-root receives of the A panel, for a tall tile and for
    /// a short one.
    a_msgs: [u64; 2],
    /// The same of the B panel, for a wide tile and for a narrow one.
    b_msgs: [u64; 2],
}

/// Build the SUMMA [`DistPlan`]: [`plan_ranks`], collected.
///
/// Prefer [`SummaAlgorithm`] through the registry; this free function is the
/// implementation it calls.
pub fn plan(prob: &MmmProblem) -> Result<DistPlan, PlanError> {
    DistPlan::collect(|sink| plan_ranks(prob, sink))
}

/// The SUMMA plan as a rank stream: every rank's plan handed to `sink` in
/// rank order, then the header.
pub fn plan_ranks(prob: &MmmProblem, sink: &mut dyn FnMut(RankPlan)) -> Result<PlanHeader, PlanError> {
    let grid = choose_grid(prob)?;
    let lm_max = prob.m.div_ceil(grid.gm);
    let ln_max = prob.n.div_ceil(grid.gn);
    let nb = panel_width(prob, lm_max, ln_max);
    // Any non-root position receives every segment.
    let msgs = |g: usize, words: usize| bcast_pipelined_recv_msgs(1, g, words);
    let table: Vec<Panel> = panels(prob, grid, nb)
        .into_iter()
        .map(|panel| {
            let w = panel.len();
            Panel {
                w,
                a_root: even_owner(prob.k, grid.gn, panel.start),
                b_root: even_owner(prob.k, grid.gm, panel.start),
                a_msgs: [lm_max, prob.m / grid.gm].map(|lm| msgs(grid.gn, lm * w)),
                b_msgs: [ln_max, prob.n / grid.gn].map(|ln| msgs(grid.gm, w * ln)),
            }
        })
        .collect();
    // Group panels into at most MAX_PLAN_ROUNDS buckets at paper scale
    // (totals exact, pipeline granularity coarsened).
    let buckets = table.len().clamp(1, cosma::algorithm::MAX_PLAN_ROUNDS);
    let per_bucket = table.len().div_ceil(buckets);
    let mut rounds = RoundsBuilder::default();
    for rank in 0..prob.p {
        let (i, j, _) = grid.coords_of(rank);
        let rows = even_range(prob.m, grid.gm, i);
        let cols = even_range(prob.n, grid.gn, j);
        let (lm, ln) = (rows.len(), cols.len());
        let (short, narrow) = (usize::from(lm != lm_max), usize::from(ln != ln_max));
        for chunk in table.chunks(per_bucket) {
            let mut acc = Round::default();
            for panel in chunk {
                if j != panel.a_root {
                    acc.a_words += (lm * panel.w) as u64;
                    acc.msgs += panel.a_msgs[short];
                }
                if i != panel.b_root {
                    acc.b_words += (panel.w * ln) as u64;
                    acc.msgs += panel.b_msgs[narrow];
                }
                acc.flops += 2 * (lm * ln * panel.w) as u64;
            }
            rounds.push(acc);
        }
        let mem_words = (lm * ln + 2 * nb * (lm + ln)) as u64;
        sink(RankPlan {
            rank,
            active: true,
            coords: [i, j, 0],
            bricks: vec![Brick {
                rows,
                cols,
                ks: 0..prob.k,
            }],
            rounds: rounds.take(),
            mem_words,
        });
    }
    Ok(PlanHeader {
        algo: AlgoId::Summa,
        problem: *prob,
        grid: [grid.gm, grid.gn, 1],
    })
}

/// Execute a SUMMA plan on the calling rank; returns its C block. A
/// resumable rank body: every broadcast wait is an `await` point.
pub async fn execute(comm: &mut RankComm, plan: &DistPlan, a: &Matrix, b: &Matrix) -> Vec<CPart> {
    assert_eq!(plan.problem.p, comm.size(), "plan/world size mismatch");
    let prob = &plan.problem;
    let grid = Grid3::from(plan.grid);
    let rank = comm.rank();
    let (i, j, _) = grid.coords_of(rank);
    let rp = &plan.ranks[rank];
    let brick = &rp.bricks[0];
    let (rows, cols) = (brick.rows.clone(), brick.cols.clone());
    let (lm, ln) = (rows.len(), cols.len());
    let nb = panel_width(prob, prob.m.div_ceil(grid.gm), prob.n.div_ceil(grid.gn));
    let mut c_local = Matrix::zeros(lm, ln);
    comm.track_alloc((lm * ln) as u64);
    for (round, panel) in panels(prob, grid, nb).into_iter().enumerate() {
        let w = panel.len();
        let a_root = even_owner(prob.k, grid.gn, panel.start);
        let b_root = even_owner(prob.k, grid.gm, panel.start);
        // Panel broadcasts use the §7.2 pipelined binomial trees: serialized
        // whole-panel forwarding was what held PR 5's measured SUMMA time at
        // 2.1–2.4× plan. Segments are tagged `base + s`, so round bases are
        // spaced far apart (and A/B separated) to keep tags disjoint.
        let a_tag = (round as u64) << 33;
        let b_tag = ((round as u64) << 33) | (1 << 32);
        // A panel broadcast along my row (every member shares `rows`, so the
        // payload length lm·w is known group-wide).
        let mut a_panel = if j == a_root {
            a.block(rows.clone(), panel.clone()).into_vec()
        } else {
            Vec::new()
        };
        bcast_pipelined(comm, grid.j_fiber(i, 0), a_root, &mut a_panel, lm * w, a_tag, Phase::InputA).await;
        // B panel broadcast along my column.
        let mut b_panel = if i == b_root {
            b.block(panel.clone(), cols.clone()).into_vec()
        } else {
            Vec::new()
        };
        bcast_pipelined(comm, grid.i_fiber(j, 0), b_root, &mut b_panel, w * ln, b_tag, Phase::InputB).await;
        let ap = Matrix::from_vec(lm, w, a_panel);
        let bp = Matrix::from_vec(w, ln, b_panel);
        gemm_packed(&ap, &bp, &mut c_local);
        comm.record_flops(2 * (lm * ln * w) as u64);
        // A broadcast panel is a pooled buffer: hand it back for the next round.
        comm.recycle(ap.into_vec());
        comm.recycle(bp.into_vec());
    }
    vec![CPart {
        rows,
        cols,
        offset: 0,
        data: c_local.into_vec(),
    }]
}

/// SUMMA as an [`MmmAlgorithm`]: no configuration — the 2D grid is
/// auto-tuned like the paper's hand-tuned ScaLAPACK.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SummaAlgorithm;

impl MmmAlgorithm for SummaAlgorithm {
    fn id(&self) -> AlgoId {
        AlgoId::Summa
    }

    fn plan_ranks(
        &self,
        prob: &MmmProblem,
        _machine: &CostModel,
        sink: &mut dyn FnMut(RankPlan),
    ) -> Result<PlanHeader, PlanError> {
        plan_ranks(prob, sink)
    }

    fn execute_rank<'a>(
        &'a self,
        comm: &'a mut RankComm,
        plan: &'a DistPlan,
        a: &'a Matrix,
        b: &'a Matrix,
    ) -> RankFuture<'a, Vec<CPart>> {
        Box::pin(execute(comm, plan, a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma::algorithm::assemble_c;
    use densemat::gemm::matmul;
    use mpsim::exec::{run_spmd_with, ExecBackend};
    use mpsim::machine::MachineSpec;

    fn check_summa(m: usize, n: usize, k: usize, p: usize, s: usize) {
        let prob = MmmProblem::new(m, n, k, p, s);
        let dplan = plan(&prob).expect("plan");
        dplan.validate().expect("valid plan");
        let a = Matrix::deterministic(m, k, 31);
        let b = Matrix::deterministic(k, n, 32);
        let want = matmul(&a, &b);
        let spec = MachineSpec::piz_daint_with_memory(p, s);
        let (dplan_r, a_r, b_r) = (&dplan, &a, &b);
        let out = run_spmd_with(&spec, ExecBackend::Event { threads: 2 }, |mut comm| async move {
            execute(&mut comm, dplan_r, a_r, b_r).await
        })
        .expect("two-thread run accepted");
        let c = assemble_c(out.results.into_iter().flatten(), m, n);
        assert!(
            want.approx_eq(&c, 1e-9),
            "{m}x{n}x{k} p={p}: wrong product, max diff {}",
            want.max_abs_diff(&c)
        );
        for (r, st) in out.stats.iter().enumerate() {
            assert_eq!(st.total_recv(), dplan.ranks[r].comm_words(), "rank {r} traffic");
        }
    }

    #[test]
    fn summa_correct_various_shapes() {
        check_summa(16, 16, 16, 4, 4096);
        check_summa(18, 24, 30, 6, 4096);
        check_summa(17, 19, 23, 4, 4096);
        check_summa(32, 32, 8, 8, 4096); // flat
        check_summa(8, 8, 128, 4, 4096); // largeK: 2D must still be correct
    }

    #[test]
    fn summa_single_rank() {
        check_summa(10, 12, 14, 1, 4096);
    }

    #[test]
    fn summa_tight_memory_many_panels() {
        check_summa(16, 16, 64, 4, 8 * 8 + 2 * 16 * 2);
    }

    #[test]
    fn grid_choice_prefers_matrix_aspect() {
        // m >> n: the grid must put more parts along m.
        let prob = MmmProblem::new(1 << 14, 64, 4096, 16, 1 << 22);
        let g = choose_grid(&prob).unwrap();
        assert!(g.gm > g.gn, "grid {g:?} ignores the aspect ratio");
    }

    #[test]
    fn panels_respect_ownership_and_width() {
        let prob = MmmProblem::new(64, 64, 100, 6, 1 << 16);
        let grid = Grid3 { gm: 2, gn: 3, gk: 1 };
        let ps = panels(&prob, grid, 7);
        // Cover exactly 0..k with no overlaps.
        assert_eq!(ps.first().unwrap().start, 0);
        assert_eq!(ps.last().unwrap().end, 100);
        for w in ps.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // No panel straddles an ownership cut of either split.
        for panel in &ps {
            assert!(panel.len() <= 7);
            assert_eq!(even_owner(100, 3, panel.start), even_owner(100, 3, panel.end - 1));
            assert_eq!(even_owner(100, 2, panel.start), even_owner(100, 2, panel.end - 1));
        }
    }

    #[test]
    fn plan_volume_is_2d() {
        // SUMMA's per-rank volume ~ k(m+n)/sqrt(p) for square problems.
        let prob = MmmProblem::new(256, 256, 256, 16, 1 << 16);
        let dplan = plan(&prob).unwrap();
        let expect = 2.0 * 256.0 * 256.0 / 4.0 * (3.0 / 4.0);
        let got = dplan.max_comm_words() as f64;
        assert!((got / expect - 1.0).abs() < 0.1, "volume {got} vs 2D model {expect}");
    }

    #[test]
    fn infeasible_memory_is_reported() {
        let prob = MmmProblem::new(1000, 1000, 10, 2, 100);
        assert_eq!(plan(&prob), Err(PlanError::NoFeasibleGrid));
    }
}
