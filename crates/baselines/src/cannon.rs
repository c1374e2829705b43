//! Cannon's algorithm (1969): the classical 2D shift algorithm.
//!
//! Requires a perfect-square rank count `p = q²`. Matrices are split into
//! `q × q` blocks; after an initial *skew* (rank `(i, j)` fetches
//! `A(i, i+j mod q)` and `B(i+j mod q, j)`), the algorithm performs `q`
//! multiply-shift steps: multiply the held blocks, then pass the A block one
//! step left and the B block one step up along ring fibers. With balanced
//! (ceil/floor) splits the shifted blocks vary slightly in size; the plan
//! accounts for the exact sizes of the blocks each rank receives.

use cosma::algorithm::{even_range, CPart};
use cosma::api::{AlgoId, MmmAlgorithm, PlanError, RankFuture, RankRequirement};
use cosma::plan::{Brick, DistPlan, PlanHeader, RankPlan, Round};
use cosma::problem::MmmProblem;
use densemat::gemm::gemm_packed;
use densemat::matrix::Matrix;
use mpsim::comm::RankComm;
use mpsim::cost::CostModel;
use mpsim::stats::Phase;

/// The square grid edge for `p` ranks, if `p` is a perfect square.
pub fn grid_edge(p: usize) -> Option<usize> {
    let q = (p as f64).sqrt().round() as usize;
    (q * q == p).then_some(q)
}

/// Build the Cannon [`DistPlan`]: [`plan_ranks`], collected.
pub fn plan(prob: &MmmProblem) -> Result<DistPlan, PlanError> {
    DistPlan::collect(|sink| plan_ranks(prob, sink))
}

/// The Cannon plan as a rank stream: every rank's plan handed to `sink` in
/// rank order, then the header.
///
/// Fails with [`PlanError::UnsupportedRanks`] unless `p` is a perfect
/// square, and with [`PlanError::NoFeasibleGrid`] if the three blocks plus a
/// double buffer do not fit in `S`.
pub fn plan_ranks(prob: &MmmProblem, sink: &mut dyn FnMut(RankPlan)) -> Result<PlanHeader, PlanError> {
    RankRequirement::PerfectSquare.check(AlgoId::Cannon, prob.p)?;
    let q = grid_edge(prob.p).expect("perfect square checked");
    if q > prob.m.min(prob.n).min(prob.k) {
        return Err(PlanError::NoFeasibleGrid);
    }
    let lm_max = prob.m.div_ceil(q);
    let ln_max = prob.n.div_ceil(q);
    let lk_max = prob.k.div_ceil(q);
    if lm_max * ln_max + 2 * (lm_max * lk_max + lk_max * ln_max) > prob.mem_words {
        return Err(PlanError::NoFeasibleGrid);
    }
    for rank in 0..prob.p {
        let (i, j) = (rank / q, rank % q);
        let rows = even_range(prob.m, q, i);
        let cols = even_range(prob.n, q, j);
        let (lm, ln) = (rows.len(), cols.len());
        let mut rounds = Vec::with_capacity(q);
        for r in 0..q {
            let t = (i + j + r) % q;
            let lk_t = even_range(prob.k, q, t).len();
            // Round 0 is the skew: a rank whose aligned block is its own
            // original block receives nothing for that matrix.
            let (a_words, b_words, mut msgs) = if r == 0 {
                let a = if t == j { 0 } else { (lm * lk_t) as u64 };
                let b = if t == i { 0 } else { (lk_t * ln) as u64 };
                (a, b, u64::from(t != j) + u64::from(t != i))
            } else {
                ((lm * lk_t) as u64, (lk_t * ln) as u64, 2)
            };
            if q == 1 {
                msgs = 0;
            }
            rounds.push(Round {
                a_words,
                b_words,
                c_words: 0,
                msgs,
                flops: 2 * (lm * ln * lk_t) as u64,
            });
        }
        let mem_words = (lm * ln + 2 * (lm * lk_max + lk_max * ln)) as u64;
        sink(RankPlan {
            rank,
            active: true,
            coords: [i, j, 0],
            bricks: vec![Brick {
                rows,
                cols,
                ks: 0..prob.k,
            }],
            rounds,
            mem_words,
        });
    }
    Ok(PlanHeader {
        algo: AlgoId::Cannon,
        problem: *prob,
        grid: [q, q, 1],
    })
}

/// Execute a Cannon plan on the calling rank; returns its C block. A
/// resumable rank body: the skew and every ring shift are `await` points.
pub async fn execute(
    comm: &mut RankComm,
    plan: &DistPlan,
    a: &Matrix,
    b: &Matrix,
) -> (std::ops::Range<usize>, std::ops::Range<usize>, Matrix) {
    assert_eq!(plan.problem.p, comm.size(), "plan/world size mismatch");
    let prob = &plan.problem;
    let q = plan.grid[0];
    let rank = comm.rank();
    let (i, j) = (rank / q, rank % q);
    let rows = even_range(prob.m, q, i);
    let cols = even_range(prob.n, q, j);
    let (lm, ln) = (rows.len(), cols.len());
    let mut c_local = Matrix::zeros(lm, ln);
    comm.track_alloc((lm * ln) as u64);

    // Skew: I own A(i, j) and B(i, j); I need A(i, (i+j)%q), B((i+j)%q, j).
    let t0 = (i + j) % q;
    let mut a_cur = {
        let mine = a.block(rows.clone(), even_range(prob.k, q, j)).into_vec();
        if t0 == j {
            mine
        } else {
            // A(i, j) is needed by (i, j') with (i + j') % q == j.
            let dst = i * q + (j + q - i % q) % q;
            let src = i * q + t0;
            comm.sendrecv(dst, src, 0, mine, Phase::InputA).await
        }
    };
    let mut b_cur = {
        let mine = b.block(even_range(prob.k, q, i), cols.clone()).into_vec();
        if t0 == i {
            mine
        } else {
            // B(i, j) is needed by (i', j) with (i' + j) % q == i.
            let dst = ((i + q - j % q) % q) * q + j;
            let src = t0 * q + j;
            comm.sendrecv(dst, src, 1, mine, Phase::InputB).await
        }
    };

    for r in 0..q {
        let t = (i + j + r) % q;
        let lk_t = even_range(prob.k, q, t).len();
        // The live panels move into `Matrix` form for the multiply and back
        // out for the shift: no copy, nothing taken from the arena.
        let ap = Matrix::from_vec(lm, lk_t, a_cur);
        let bp = Matrix::from_vec(lk_t, ln, b_cur);
        gemm_packed(&ap, &bp, &mut c_local);
        comm.record_flops(2 * (lm * ln * lk_t) as u64);
        (a_cur, b_cur) = (ap.into_vec(), bp.into_vec());
        if r + 1 < q {
            // Shift A left along the row ring, B up along the column ring.
            let a_dst = i * q + (j + q - 1) % q;
            let a_src = i * q + (j + 1) % q;
            a_cur = comm.sendrecv(a_dst, a_src, 2 + 2 * r as u64, a_cur, Phase::InputA).await;
            let b_dst = ((i + q - 1) % q) * q + j;
            let b_src = ((i + 1) % q) * q + j;
            b_cur = comm.sendrecv(b_dst, b_src, 3 + 2 * r as u64, b_cur, Phase::InputB).await;
        }
    }
    (rows, cols, c_local)
}

/// Cannon's algorithm as an [`MmmAlgorithm`]: requires `p = q²`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CannonAlgorithm;

impl MmmAlgorithm for CannonAlgorithm {
    fn id(&self) -> AlgoId {
        AlgoId::Cannon
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn supports(&self, prob: &MmmProblem) -> Result<(), PlanError> {
        RankRequirement::PerfectSquare.check(AlgoId::Cannon, prob.p)
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
        Box::pin(async move {
            let (rows, cols, c) = execute(comm, plan, a, b).await;
            vec![CPart {
                rows,
                cols,
                offset: 0,
                data: c.into_vec(),
            }]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::gemm::matmul;
    use mpsim::exec::{run_spmd_with, ExecBackend};
    use mpsim::machine::MachineSpec;

    fn check_cannon(m: usize, n: usize, k: usize, p: usize, s: usize) {
        let prob = MmmProblem::new(m, n, k, p, s);
        let dplan = plan(&prob).expect("plan");
        dplan.validate().expect("valid plan");
        let a = Matrix::deterministic(m, k, 41);
        let b = Matrix::deterministic(k, n, 42);
        let want = matmul(&a, &b);
        let spec = MachineSpec::piz_daint_with_memory(p, s);
        let (dplan_r, a_r, b_r) = (&dplan, &a, &b);
        let out = run_spmd_with(
            &spec,
            ExecBackend::Blocking {
                workers: ExecBackend::default_workers(),
            },
            |mut comm| async move { execute(&mut comm, dplan_r, a_r, b_r).await },
        )
        .expect("blocking run accepted");
        let mut c = Matrix::zeros(m, n);
        for (rows, cols, blk) in out.results {
            c.set_block(rows.start, cols.start, &blk);
        }
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
    fn cannon_correct_square_grids() {
        check_cannon(16, 16, 16, 4, 4096);
        check_cannon(16, 16, 16, 16, 4096);
        check_cannon(18, 22, 26, 9, 4096); // uneven splits
        check_cannon(15, 17, 19, 4, 4096); // primes
    }

    #[test]
    fn cannon_single_rank() {
        check_cannon(8, 9, 10, 1, 4096);
    }

    #[test]
    fn cannon_rectangular_matrices() {
        check_cannon(32, 8, 16, 4, 4096);
        check_cannon(8, 32, 64, 4, 4096);
    }

    #[test]
    fn non_square_p_rejected() {
        let prob = MmmProblem::new(16, 16, 16, 5, 4096);
        assert!(matches!(
            plan(&prob),
            Err(PlanError::UnsupportedRanks {
                algo: AlgoId::Cannon,
                p: 5,
                ..
            })
        ));
    }

    #[test]
    fn grid_edge_detection() {
        assert_eq!(grid_edge(1), Some(1));
        assert_eq!(grid_edge(4), Some(2));
        assert_eq!(grid_edge(144), Some(12));
        assert_eq!(grid_edge(5), None);
        assert_eq!(grid_edge(8), None);
    }

    #[test]
    fn plan_traffic_matches_2d_model() {
        // Per-rank volume: q rounds (skew + q-1 shifts) of block pairs,
        // i.e. 2n²/√p for square matrices.
        let prob = MmmProblem::new(64, 64, 64, 16, 1 << 14);
        let dplan = plan(&prob).unwrap();
        let q = 4.0;
        let expect = 2.0 * (64.0 * 64.0) / q;
        let got = dplan.max_comm_words() as f64;
        assert!((got / expect - 1.0).abs() < 0.05, "got {got}, expect {expect}");
    }

    #[test]
    fn memory_infeasible_rejected() {
        let prob = MmmProblem::new(64, 64, 64, 4, 100);
        assert_eq!(plan(&prob), Err(PlanError::NoFeasibleGrid));
    }
}
