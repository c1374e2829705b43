//! The central consistency contract of this reproduction: the *analytic*
//! plans (which produce the paper-scale numbers in Figures 6–14 and
//! Table 4) must predict, word for word and rank for rank, the traffic of
//! the *executed* algorithms as measured by the mpiP-style counters.
//!
//! Every algorithm is planned and executed through its [`MmmAlgorithm`]
//! registry entry — no per-algorithm entry points.

mod common;

use baselines::p25d::{Geometry25, P25dAlgorithm};
use cosma::api::{execute_boxed, AlgoId, AlgorithmRegistry, PlanError, RunSession};
use cosma::plan::DistPlan;
use cosma::problem::MmmProblem;
use densemat::matrix::Matrix;
use mpsim::cost::CostModel;
use mpsim::exec::ExecBackend;
use mpsim::machine::MachineSpec;
use mpsim::stats::RankStats;

fn assert_traffic_matches(plan: &DistPlan, stats: &[RankStats]) {
    for (r, st) in stats.iter().enumerate() {
        assert_eq!(
            st.total_recv(),
            plan.ranks[r].comm_words(),
            "{}: rank {r} received {} planned {}",
            plan.algo,
            st.total_recv(),
            plan.ranks[r].comm_words()
        );
        assert_eq!(st.msgs_recv, plan.ranks[r].comm_msgs(), "{}: rank {r} message count", plan.algo);
    }
}

fn inputs(prob: &MmmProblem) -> (Matrix, Matrix) {
    (Matrix::deterministic(prob.m, prob.k, 17), Matrix::deterministic(prob.k, prob.n, 18))
}

/// The executors every contract here is held on: the session default (one
/// scheduler thread) and two threads.
const BACKENDS: [ExecBackend; 2] = [ExecBackend::event(), ExecBackend::Event { threads: 2 }];

/// Plan + execute `id` on `prob` through the registry and check the traffic.
fn check(id: AlgoId, prob: &MmmProblem) {
    check_in(baselines::registry(), id, prob);
}

/// [`check`] through `registry`'s entry for `id`.
fn check_in(registry: AlgorithmRegistry, id: AlgoId, prob: &MmmProblem) {
    let session = RunSession::new(*prob)
        .machine(CostModel::piz_daint_two_sided())
        .registry(registry)
        .algorithm(id);
    let plan = session.plan().unwrap_or_else(|e| panic!("{id}: {e}"));
    let (a, b) = inputs(prob);
    for backend in BACKENDS {
        let report = session
            .clone()
            .exec_backend(backend)
            .execute(&a, &b)
            .unwrap_or_else(|e| panic!("{id} on {backend}: {e}"));
        assert_traffic_matches(&plan, &report.stats);
    }
}

#[test]
fn cosma_plan_predicts_execution_exactly() {
    for &(m, n, k, p, s) in &[
        (32usize, 32usize, 32usize, 8usize, 1usize << 12),
        (20, 36, 28, 12, 1 << 11),
        (16, 16, 128, 16, 700),
        (96, 64, 16, 9, 1 << 12),
        (23, 29, 31, 5, 1 << 11),
    ] {
        check(AlgoId::Cosma, &MmmProblem::new(m, n, k, p, s));
    }
}

#[test]
fn summa_plan_predicts_execution_exactly() {
    for &(m, n, k, p, s) in &[
        (32usize, 32usize, 32usize, 4usize, 1usize << 12),
        (40, 24, 56, 6, 1 << 12),
        (16, 16, 96, 8, 500),
    ] {
        check(AlgoId::Summa, &MmmProblem::new(m, n, k, p, s));
    }
}

/// Cannon's algorithm is 2.5D forced to one layer on `p = q²` ranks.
#[test]
fn cannon_plan_predicts_execution_exactly() {
    for &(m, n, k, q) in &[
        (32usize, 32usize, 32usize, 3usize),
        (25, 30, 35, 5),
        (18, 20, 22, 2),
    ] {
        let mut registry = baselines::registry();
        registry.register(P25dAlgorithm::with_geometry(Geometry25 { q, c: 1 }));
        check_in(registry, AlgoId::P25d, &MmmProblem::new(m, n, k, q * q, 1 << 13));
    }
}

#[test]
fn p25d_plan_predicts_execution_exactly() {
    for &(m, n, k, p, s) in &[
        (32usize, 32usize, 32usize, 8usize, 1usize << 13),
        (24, 24, 96, 27, 1 << 12),
        (36, 28, 44, 16, 1 << 13),
    ] {
        check(AlgoId::P25d, &MmmProblem::new(m, n, k, p, s));
    }
}

#[test]
fn carma_plan_predicts_execution_exactly() {
    for &(m, n, k, p) in &[
        (32usize, 32usize, 32usize, 8usize),
        (12, 12, 384, 16),
        (128, 16, 16, 8),
        (19, 27, 41, 32),
    ] {
        check(AlgoId::Carma, &MmmProblem::new(m, n, k, p, 1 << 13));
    }
}

#[test]
fn memory_starved_carma_plan_predicts_execution_exactly() {
    // S below the pure-BFS leaf footprint: the plan gains sequential DFS
    // steps and the streaming executor must move exactly the re-fetching
    // words the plan prices, message for message.
    for &(m, n, k, p, s) in &[
        (64usize, 64usize, 64usize, 8usize, 1usize << 10),
        (8, 8, 512, 4, 600),
        (96, 24, 24, 8, 800),
        (33, 45, 59, 16, 512),
    ] {
        let prob = MmmProblem::new(m, n, k, p, s);
        assert!(baselines::carma::dfs_leaf_count(&prob) > 1, "{m}x{n}x{k} S={s} must be memory-starved");
        check(AlgoId::Carma, &prob);
    }
}

#[test]
fn carma_streaming_peak_stays_within_s() {
    // The acceptance criterion in miniature: a memory-starved problem,
    // executed with S enforced as a hard budget, measures peak ≤ S on every
    // rank while the product and traffic stay exact.
    let prob = MmmProblem::new(64, 64, 64, 8, 1 << 10);
    let session = RunSession::new(prob)
        .machine(CostModel::piz_daint_two_sided())
        .registry(baselines::registry())
        .algorithm(AlgoId::Carma);
    let (algo, plan) = (session.resolve().unwrap(), session.plan().unwrap());
    assert!(plan.ranks.iter().all(|r| r.bricks.len() > 1), "expected DFS leaves");
    let enforced = session.machine_spec().enforcing_memory();
    let (a, b) = inputs(&prob);
    for backend in BACKENDS {
        let report = execute_boxed(algo.as_ref(), &plan, &enforced, backend, &a, &b)
            .expect("streaming CARMA within budget");
        // The same product and counters as the unenforced, verified run.
        let (_, free) = session.clone().exec_backend(backend).execute_verified(&a, &b).unwrap();
        assert_eq!(report.c, free.c, "{backend}: product");
        assert_eq!(report.stats, free.stats, "{backend}: stats");
        assert_traffic_matches(&plan, &report.stats);
        for (r, st) in report.stats.iter().enumerate() {
            assert!(
                st.peak_mem_words <= prob.mem_words as u64,
                "{backend}: rank {r} peaked at {} words over S = {}",
                st.peak_mem_words,
                prob.mem_words
            );
        }
    }
}

#[test]
fn planned_memory_is_respected_by_execution() {
    // Every rank's tracked peak allocation stays within the memory its plan
    // prices, for every algorithm that plans the shape, over shapes that
    // take several rounds (or DFS leaves) per rank.
    let (model, registry) = (CostModel::piz_daint_two_sided(), baselines::registry());
    let mut checked = 0;
    for (m, n, k, p, s) in [
        (16, 16, 64, 4, 200),
        (64, 64, 256, 16, 600),
        (128, 96, 512, 12, 2000),
        (32, 32, 64, 8, 2048),
    ] {
        let prob = MmmProblem::new(m, n, k, p, s);
        let (a, b) = inputs(&prob);
        let spec = MachineSpec::piz_daint_with_memory(p, s);
        for algo in registry.all() {
            let Ok(plan) = algo.plan(&prob, &model) else {
                continue;
            };
            plan.validate().unwrap();
            for backend in BACKENDS {
                let report = execute_boxed(algo.as_ref(), &plan, &spec, backend, &a, &b).unwrap();
                for (r, st) in report.stats.iter().enumerate() {
                    assert!(
                        st.peak_mem_words <= plan.ranks[r].mem_words,
                        "{} {m}x{n}x{k} p={p} S={s} {backend}: rank {r} tracked {} vs plan {}",
                        plan.algo,
                        st.peak_mem_words,
                        plan.ranks[r].mem_words
                    );
                }
            }
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} (algorithm, shape) pairs planned");
}

#[test]
fn session_surfaces_constraint_errors_as_values() {
    // Rank-count constraints arrive as typed errors, not panics, from the
    // same entry point that plans everything else.
    let reg = baselines::registry();
    let model = CostModel::piz_daint_two_sided();
    let err = RunSession::new(MmmProblem::new(16, 16, 16, 6, 1 << 12))
        .machine(model)
        .registry(reg)
        .algorithm(AlgoId::Carma)
        .plan()
        .unwrap_err();
    assert!(matches!(
        err,
        PlanError::UnsupportedRanks {
            algo: AlgoId::Carma,
            p: 6,
            ..
        }
    ));
}

#[test]
fn planned_time_predicts_measured_virtual_time() {
    // The time axis of the central contract: an event-backend run's virtual
    // clock against the plan's alpha-beta-gamma simulation. Compute time is
    // *exact* per rank (flops counters are plan-exact and gamma is shared);
    // the comm side carries the real dependency structure, so the machine
    // total is held to the stated agreement band instead.
    let model = CostModel::piz_daint_two_sided();
    for id in [AlgoId::Cosma, AlgoId::Summa, AlgoId::P25d, AlgoId::Carma] {
        let prob = MmmProblem::new(48, 48, 48, 16, 1 << 13);
        let session = RunSession::new(prob)
            .machine(model)
            .registry(baselines::registry())
            .algorithm(id)
            .exec_backend(ExecBackend::event());
        let plan = session.plan().unwrap_or_else(|e| panic!("{id}: {e}"));
        let (a, b) = inputs(&prob);
        let report = session.execute(&a, &b).unwrap_or_else(|e| panic!("{id}: {e}"));
        for (r, st) in report.stats.iter().enumerate() {
            let planned = common::time_breakdown(&plan.ranks[r], &model, true);
            assert!(
                (st.time.compute_s - planned.compute_s).abs() <= 1e-12 * planned.compute_s.max(1.0),
                "{id}: rank {r} measured compute {} s vs planned {} s",
                st.time.compute_s,
                planned.compute_s
            );
        }
        let measured = report.measured_time_s();
        let planned = plan.simulate(&model, true).time_s;
        let f = bench::runner::TIME_AGREEMENT_FACTOR;
        assert!(
            measured <= planned * f && measured >= planned / f,
            "{id}: measured {measured} s vs planned {planned} s breaks the x{f} band"
        );
    }
}
