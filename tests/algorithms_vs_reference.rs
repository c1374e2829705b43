//! Cross-crate integration: every distributed algorithm, on the same
//! simulated machine, must produce exactly the same product as the
//! sequential reference kernel — across shapes, rank counts and memory
//! budgets, including adversarial (prime) dimensions like the paper's §8
//! "chosen adversarially, e.g. n³ + 1".
//!
//! All algorithms run through [`RunSession`] over the shared registry; the
//! session assembles each algorithm's distributed output shares into the
//! full product with the same code path.

use cosma::api::{AlgoId, CosmaAlgorithm, RunSession};
use cosma::problem::MmmProblem;
use cosma::{Backend, CosmaConfig};
use densemat::gemm::matmul;
use densemat::matrix::Matrix;
use mpsim::cost::CostModel;
use mpsim::exec::ExecBackend;

fn reference(m: usize, n: usize, k: usize) -> (Matrix, Matrix, Matrix) {
    let a = Matrix::deterministic(m, k, 7);
    let b = Matrix::deterministic(k, n, 8);
    let c = matmul(&a, &b);
    (a, b, c)
}

fn session(prob: &MmmProblem, id: AlgoId) -> RunSession {
    RunSession::new(*prob)
        .machine(CostModel::piz_daint_two_sided())
        .registry(baselines::registry())
        .algorithm(id)
}

/// Execute on the session default (the event engine) and on the blocking
/// reference executor; the two products must agree bit for bit.
fn execute_on_both(what: AlgoId, session: RunSession, a: &Matrix, b: &Matrix) -> Matrix {
    let blocking = ExecBackend::Blocking {
        workers: ExecBackend::default_workers(),
    };
    let c = session.execute(a, b).unwrap_or_else(|e| panic!("{what}: {e}")).c;
    let reference = session
        .exec_backend(blocking)
        .execute(a, b)
        .unwrap_or_else(|e| panic!("{what}: {e}"))
        .c;
    assert_eq!(c, reference, "{what}: event and blocking products differ");
    c
}

fn run(prob: &MmmProblem, id: AlgoId) -> Matrix {
    let (a, b, _) = reference(prob.m, prob.n, prob.k);
    execute_on_both(id, session(prob, id), &a, &b)
}

/// COSMA on `backend`: a registry entry of its own.
fn run_cosma_backend(prob: &MmmProblem, backend: Backend) -> Matrix {
    let (a, b, _) = reference(prob.m, prob.n, prob.k);
    let mut registry = baselines::registry();
    registry.register(CosmaAlgorithm::with_config(CosmaConfig {
        backend,
        ..CosmaConfig::default()
    }));
    execute_on_both(AlgoId::Cosma, session(prob, AlgoId::Cosma).registry(registry), &a, &b)
}

fn assert_all_agree(prob: &MmmProblem, ids: &[AlgoId]) {
    let (_, _, want) = reference(prob.m, prob.n, prob.k);
    for &id in ids {
        let c = run(prob, id);
        assert!(want.approx_eq(&c, 1e-9), "{id}: max diff {}", want.max_abs_diff(&c));
    }
}

#[test]
fn all_algorithms_agree_square() {
    let prob = MmmProblem::new(32, 32, 32, 16, 1 << 13);
    assert_all_agree(&prob, &AlgoId::ALL);
    let (_, _, want) = reference(32, 32, 32);
    let c = run_cosma_backend(&prob, Backend::OneSided);
    assert!(want.approx_eq(&c, 1e-9), "cosma/1s: max diff {}", want.max_abs_diff(&c));
}

#[test]
fn all_algorithms_agree_adversarial_primes() {
    // Dimensions that divide nothing, on a square+power-of-two p.
    let prob = MmmProblem::new(29, 31, 37, 16, 1 << 13);
    assert_all_agree(&prob, &AlgoId::ALL);
}

#[test]
fn all_algorithms_agree_largek() {
    let prob = MmmProblem::new(12, 12, 192, 8, 1 << 12);
    assert_all_agree(&prob, &[AlgoId::Cosma, AlgoId::Summa, AlgoId::P25d, AlgoId::Carma]);
}

#[test]
fn all_algorithms_agree_flat() {
    let prob = MmmProblem::new(48, 48, 6, 16, 1 << 12);
    assert_all_agree(&prob, &[AlgoId::Cosma, AlgoId::Summa, AlgoId::Carma]);
}

#[test]
fn cosma_agrees_at_larger_scale() {
    // 64 ranks, non-power-of-two dims, both backends.
    let prob = MmmProblem::new(60, 52, 44, 64, 1 << 12);
    let (_, _, want) = reference(60, 52, 44);
    let c2 = run_cosma_backend(&prob, Backend::TwoSided);
    let c1 = run_cosma_backend(&prob, Backend::OneSided);
    assert!(want.approx_eq(&c2, 1e-9));
    assert!(want.approx_eq(&c1, 1e-9));
}

#[test]
fn non_grid_friendly_rank_counts() {
    // 11 (prime), 12, 24: COSMA must handle them all (CARMA/Cannon cannot).
    for p in [11usize, 12, 24] {
        let prob = MmmProblem::new(30, 30, 30, p, 1 << 12);
        let (_, _, want) = reference(30, 30, 30);
        let c = run(&prob, AlgoId::Cosma);
        assert!(want.approx_eq(&c, 1e-9), "p={p}");
    }
}
