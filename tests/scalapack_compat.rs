//! The §7.6 compatibility story as an end-to-end workflow: matrices arrive
//! in the ScaLAPACK block-cyclic format, are re-arranged into COSMA's
//! blocked layout (with the relayout traffic measured), multiplied by
//! COSMA, and the result is exported back to a block-cyclic layout.

use cosma::api::RunSession;
use cosma::grid::Grid3;
use cosma::layout::cosma_layouts;
use cosma::problem::MmmProblem;
use densemat::gemm::matmul;
use densemat::layout::{gather, relayout_words, scatter, BlockCyclic, Distribution};
use densemat::matrix::Matrix;
use mpsim::cost::CostModel;

#[test]
fn block_cyclic_to_cosma_roundtrip_with_multiply() {
    let prob = MmmProblem::new(24, 20, 28, 8, 4096);
    let session = RunSession::new(prob).machine(CostModel::piz_daint_two_sided());
    let dplan = session.plan().expect("plan");
    let grid = Grid3 {
        gm: dplan.grid[0],
        gn: dplan.grid[1],
        gk: dplan.grid[2],
    };

    // 1. Inputs arrive block-cyclic (a 2x4 process grid with 4x4 blocks).
    let a = Matrix::deterministic(prob.m, prob.k, 71);
    let b = Matrix::deterministic(prob.k, prob.n, 72);
    let bc_a = BlockCyclic::new(prob.m, prob.k, 4, 4, 2, 4);
    let bc_b = BlockCyclic::new(prob.k, prob.n, 4, 4, 2, 4);
    let a_locals = scatter(&bc_a, &a);
    let b_locals = scatter(&bc_b, &b);

    // 2. Measure the preprocessing relayout into COSMA's induced layouts.
    let (la, lb, lc) = cosma_layouts(&prob, grid);
    let moved_a = relayout_words(&bc_a, &la);
    let moved_b = relayout_words(&bc_b, &lb);
    assert!(moved_a > 0 && moved_b > 0, "layouts differ, words must move");
    assert!(moved_a <= (prob.m * prob.k) as u64);
    assert!(moved_b <= (prob.k * prob.n) as u64);

    // 3. The relayout is content-preserving: gather from block-cyclic and
    // re-scatter into the COSMA layouts, then verify against the originals.
    let a_global = gather(&bc_a, &a_locals);
    let b_global = gather(&bc_b, &b_locals);
    assert_eq!(a_global, a);
    assert_eq!(b_global, b);
    let a_cosma_locals = scatter(&la, &a_global);
    assert_eq!(a_cosma_locals.iter().map(Vec::len).sum::<usize>(), prob.m * prob.k);

    // 4. Multiply with COSMA through the session.
    let c = session.execute(&a_global, &b_global).expect("execution").c;
    assert!(matmul(&a, &b).approx_eq(&c, 1e-9));
    let sharded = session.exec_backend(mpsim::exec::ExecBackend::Event { threads: 2 });
    assert_eq!(sharded.execute(&a_global, &b_global).expect("execution").c, c, "thread counts agree");

    // 5. Export C back to a block-cyclic layout and verify the round trip.
    let bc_c = BlockCyclic::new(prob.m, prob.n, 4, 4, 2, 4);
    let c_export = scatter(&bc_c, &c);
    let c_back = gather(&bc_c, &c_export);
    assert_eq!(c_back, c);
    // The export cost from COSMA's gathered C layout is also measurable.
    let moved_c = relayout_words(&lc, &bc_c);
    assert!(moved_c <= (prob.m * prob.n) as u64);
}

#[test]
fn relayout_cost_scales_with_layout_mismatch() {
    // An already-blocked layout should cost much less to adapt than a
    // finely cyclic one.
    let prob = MmmProblem::new(32, 32, 32, 4, 8192);
    let dplan = RunSession::new(prob).machine(CostModel::piz_daint_two_sided()).plan().unwrap();
    let grid = Grid3 {
        gm: dplan.grid[0],
        gn: dplan.grid[1],
        gk: dplan.grid[2],
    };
    let (la, _, _) = cosma_layouts(&prob, grid);
    // Fine cyclic (1x1 blocks) vs coarse blocked (16x16 blocks).
    let fine = BlockCyclic::new(prob.m, prob.k, 1, 1, 2, 2);
    let coarse = BlockCyclic::new(prob.m, prob.k, 16, 16, 2, 2);
    let moved_fine = relayout_words(&fine, &la);
    let moved_coarse = relayout_words(&coarse, &la);
    assert!(moved_coarse < moved_fine, "coarse {moved_coarse} should beat fine {moved_fine}");
}

#[test]
fn cosma_layouts_cover_each_matrix_exactly() {
    let prob = MmmProblem::new(18, 22, 26, 6, 4096);
    let dplan = RunSession::new(prob).machine(CostModel::piz_daint_two_sided()).plan().unwrap();
    let grid = Grid3 {
        gm: dplan.grid[0],
        gn: dplan.grid[1],
        gk: dplan.grid[2],
    };
    let (la, lb, lc) = cosma_layouts(&prob, grid);
    let sum = |d: &dyn Distribution| -> usize { (0..prob.p).map(|r| d.local_len(r)).sum() };
    assert_eq!(sum(&la), prob.m * prob.k);
    assert_eq!(sum(&lb), prob.k * prob.n);
    assert_eq!(sum(&lc), prob.m * prob.n);
}
