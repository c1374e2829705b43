//! Cannon's algorithm (1969): the classical 2D shift algorithm.
//!
//! Requires a perfect-square rank count `p = q²`. Matrices are split into
//! `q × q` blocks; after an initial *skew* (rank `(i, j)` fetches
//! `A(i, i+j mod q)` and `B(i+j mod q, j)`), the algorithm performs `q`
//! multiply-shift steps: multiply the held blocks, then pass the A block one
//! step left and the B block one step up along ring fibers. With balanced
//! (ceil/floor) splits the shifted blocks vary slightly in size; the plan
//! accounts for the exact sizes of the blocks each rank receives.
//!
//! The plan is Cannon's own (whole blocks resident, one brick per rank);
//! its rounds are the one-layer 2.5D steps, and execution is the 2.5D rank
//! body at `c = 1`, which does exactly these sends, receives and multiplies
//! in this order.

use cosma::algorithm::{even_range, CPart};
use cosma::api::{AlgoId, MmmAlgorithm, PlanError, RankFuture, RankRequirement};
use cosma::grid::Grid3;
use cosma::plan::{Brick, DistPlan, PlanHeader, RankPlan, RoundsBuilder};
use cosma::problem::MmmProblem;
use densemat::matrix::Matrix;
use mpsim::comm::RankComm;
use mpsim::cost::CostModel;

use crate::p25d::{layer_steps, Geometry25};

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
    let grid = Grid3 { gm: q, gn: q, gk: 1 };
    let mut rounds = RoundsBuilder::default();
    for rank in 0..prob.p {
        let (i, j, _) = grid.coords_of(rank);
        let rows = even_range(prob.m, q, i);
        let cols = even_range(prob.n, q, j);
        let (lm, ln) = (rows.len(), cols.len());
        // The skew and the q − 1 shifts: one 2.5D layer's steps.
        rounds.extend(layer_steps(prob, Geometry25 { q, c: 1 }, [i, j, 0]).map(|(_, round)| round));
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
            rounds: rounds.take(),
            mem_words,
        });
    }
    Ok(PlanHeader {
        algo: AlgoId::Cannon,
        problem: *prob,
        grid: [q, q, 1],
    })
}

/// Cannon's algorithm as an [`MmmAlgorithm`]: requires `p = q²`. Its plan's
/// grid `[q, q, 1]` runs on the one-layer 2.5D rank body
/// ([`crate::p25d::execute`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CannonAlgorithm;

impl MmmAlgorithm for CannonAlgorithm {
    fn id(&self) -> AlgoId {
        AlgoId::Cannon
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
        Box::pin(crate::p25d::execute(comm, plan, a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma::api::execute_boxed;
    use densemat::gemm::matmul;
    use mpsim::exec::ExecBackend;
    use mpsim::machine::MachineSpec;

    fn check_cannon(m: usize, n: usize, k: usize, p: usize, s: usize) {
        let prob = MmmProblem::new(m, n, k, p, s);
        let dplan = plan(&prob).expect("plan");
        dplan.validate().expect("valid plan");
        let a = Matrix::deterministic(m, k, 41);
        let b = Matrix::deterministic(k, n, 42);
        let want = matmul(&a, &b);
        let spec = MachineSpec::piz_daint_with_memory(p, s);
        let backend = ExecBackend::Event { threads: 2 };
        let out =
            execute_boxed(&CannonAlgorithm, &dplan, &spec, backend, &a, &b).expect("two-thread run accepted");
        let c = out.c;
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
    fn cannon_is_one_layer_p25d() {
        use crate::p25d::P25dAlgorithm;
        // Each algorithm runs its own plan: Cannon's whole-block memory model
        // and single brick, and the c = 1 geometry's q bricks. Both plans
        // have grid [q, q, 1], which is all either rank body reads.
        let model = CostModel::piz_daint_two_sided();
        for (m, n, k, p) in [
            (8, 9, 10, 1),
            (16, 16, 16, 4),
            (15, 17, 19, 4),
            (18, 22, 26, 9),
            (13, 11, 7, 9),
            (16, 16, 16, 16),
            (17, 19, 23, 16),
        ] {
            let prob = MmmProblem::new(m, n, k, p, 1 << 14);
            let q = grid_edge(p).unwrap();
            let layer = P25dAlgorithm::with_geometry(Geometry25 { q, c: 1 });
            let cannon_plan = CannonAlgorithm.plan(&prob, &model).unwrap();
            let layer_plan = layer.plan(&prob, &model).unwrap();
            let a = Matrix::deterministic(m, k, 71);
            let b = Matrix::deterministic(k, n, 72);
            let spec = MachineSpec::piz_daint_with_memory(p, prob.mem_words);
            for backend in [ExecBackend::event(), ExecBackend::Event { threads: 2 }] {
                let cannon = execute_boxed(&CannonAlgorithm, &cannon_plan, &spec, backend, &a, &b).unwrap();
                let one_layer = execute_boxed(&layer, &layer_plan, &spec, backend, &a, &b).unwrap();
                assert_eq!(cannon.c, one_layer.c, "{m}x{n}x{k} p={p} {backend}: product");
                assert_eq!(cannon.stats, one_layer.stats, "{m}x{n}x{k} p={p} {backend}: stats");
            }
        }
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
