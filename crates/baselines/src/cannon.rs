//! Cannon's algorithm (1969), kept only as the plan that
//! `benchmark/src/sweep.rs` times for its `baselines.plan.cannon` layer.
//!
//! Cannon's skew and `q − 1` multiply-shift steps are layer 0 of the 2.5D
//! decomposition at `c = 1`, and [`crate::p25d::execute`] is their rank
//! body, so the registry carries no algorithm of its own for them: the
//! paper's evaluation compares COSMA with SUMMA, 2.5D and CARMA only. ROADMAP
//! item 7(b) deletes this module together with that layer, and moves its
//! tests to `p25d` as one-layer tests.

use cosma::api::{MmmAlgorithm, PlanError};
use cosma::plan::DistPlan;
use cosma::problem::MmmProblem;
use mpsim::cost::CostModel;

use crate::p25d::{Geometry25, P25dAlgorithm};

/// 2.5D forced to one layer on the `⌊√p⌋ × ⌊√p⌋` grid, planned under the
/// Piz-Daint-like default model.
pub fn plan(prob: &MmmProblem) -> Result<DistPlan, PlanError> {
    let q = (prob.p as f64).sqrt().floor() as usize;
    P25dAlgorithm::with_geometry(Geometry25 { q, c: 1 }).plan(prob, &CostModel::piz_daint_two_sided())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma::api::execute_boxed;
    use densemat::gemm::matmul;
    use densemat::matrix::Matrix;
    use mpsim::exec::ExecBackend;
    use mpsim::machine::MachineSpec;

    /// Plan one layer on `p = q²` ranks and run it on two scheduler
    /// threads: one whole-k brick a rank, the reference kernel's product,
    /// and every rank receiving the words it plans.
    fn check_cannon(m: usize, n: usize, k: usize, p: usize, s: usize) {
        let prob = MmmProblem::new(m, n, k, p, s);
        let dplan = plan(&prob).expect("plan");
        dplan.validate().expect("valid plan");
        let q = (p as f64).sqrt() as usize;
        assert_eq!(dplan.grid, [q, q, 1]);
        assert!(dplan.ranks.iter().all(|r| r.bricks.len() == 1 && r.bricks[0].ks == (0..k)));
        let a = Matrix::deterministic(m, k, 41);
        let b = Matrix::deterministic(k, n, 42);
        let want = matmul(&a, &b);
        let spec = MachineSpec::piz_daint_with_memory(p, s);
        let layer = P25dAlgorithm::with_geometry(Geometry25 { q, c: 1 });
        let backend = ExecBackend::Event { threads: 2 };
        let out = execute_boxed(&layer, &dplan, &spec, backend, &a, &b).expect("two-thread run accepted");
        assert!(
            want.approx_eq(&out.c, 1e-9),
            "{m}x{n}x{k} p={p}: wrong product, max diff {}",
            want.max_abs_diff(&out.c)
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
}
