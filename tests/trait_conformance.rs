//! Trait-level conformance suite: every algorithm in the full
//! [`baselines::registry`] honours the [`MmmAlgorithm`] contract on a shared
//! problem matrix —
//!
//! 1. `supports(p)` is honest: a rejected rank count makes `plan` return the
//!    same typed error (never a panic), and an accepted one never panics;
//! 2. a returned plan tiles the iteration space exactly;
//! 3. planned per-rank traffic equals executed traffic, word for word, and
//!    the executed product matches the sequential kernel.

mod common;

use cosma::api::{execute_boxed, AlgoId, MmmAlgorithm, PlanError, RunSession};
use cosma::problem::MmmProblem;
use densemat::gemm::matmul;
use densemat::matrix::Matrix;
use mpsim::cost::CostModel;
use mpsim::exec::{run_spmd_with, ExecBackend};
use mpsim::machine::MachineSpec;

/// The shared problem matrix: every shape class of §8 plus adversarial
/// primes, on rank counts that exercise every algorithm's constraints
/// (squares, powers of two, primes, and a count only COSMA fully uses).
fn shared_problems() -> Vec<MmmProblem> {
    vec![
        MmmProblem::new(24, 24, 24, 4, 1 << 12),  // square, p square+pow2
        MmmProblem::new(32, 32, 32, 16, 1 << 13), // square, larger
        MmmProblem::new(29, 31, 37, 16, 1 << 13), // adversarial primes
        MmmProblem::new(12, 12, 160, 8, 1 << 12), // largeK
        MmmProblem::new(96, 12, 12, 8, 1 << 12),  // largeM
        MmmProblem::new(40, 40, 6, 16, 1 << 12),  // flat
        MmmProblem::new(30, 30, 30, 12, 1 << 12), // p = 12: not square, not 2^x
        MmmProblem::new(22, 26, 34, 7, 1 << 12),  // p = 7: prime
        MmmProblem::new(64, 64, 64, 8, 1 << 10),  // memory-starved: CARMA streams DFS leaves
    ]
}

/// Two scheduler threads: worlds sharded into regions, measured bit for bit
/// like the one-thread default.
const SHARDED: ExecBackend = ExecBackend::Event { threads: 2 };

fn model() -> CostModel {
    CostModel::piz_daint_two_sided()
}

#[test]
fn supports_is_honest_and_plan_never_panics() {
    let reg = baselines::registry();
    for prob in shared_problems() {
        for algo in reg.all() {
            let id = algo.id();
            match algo.supports(&prob) {
                Ok(()) => {
                    // An accepted problem must plan or report a typed
                    // feasibility error — never panic.
                    if let Err(e) = algo.plan(&prob, &model()) {
                        assert_eq!(e, PlanError::NoFeasibleGrid, "{id} on p={}: {e}", prob.p);
                    }
                }
                Err(e) => {
                    assert!(
                        matches!(e, PlanError::UnsupportedRanks { algo, p, .. } if algo == id && p == prob.p),
                        "{id}: supports() must name itself and p, got {e}"
                    );
                    assert_eq!(
                        algo.plan(&prob, &model()).unwrap_err(),
                        e,
                        "{id} on p={}: plan must report the same constraint supports() reports",
                        prob.p
                    );
                }
            }
        }
    }
}

#[test]
fn plans_tile_the_iteration_space() {
    let reg = baselines::registry();
    for prob in shared_problems() {
        for algo in reg.all() {
            if algo.supports(&prob).is_err() {
                continue;
            }
            let Ok(plan) = algo.plan(&prob, &model()) else {
                continue;
            };
            assert_eq!(plan.algo, algo.id(), "plan must carry its maker's id");
            plan.validate_coverage()
                .unwrap_or_else(|e| panic!("{} on p={}: {e}", algo.id(), prob.p));
        }
    }
}

/// Past 4 096 bricks the coverage check used to look at 64 sampled points
/// only. A 32 768-brick COSMA plan and a memory-starved CARMA plan of
/// several DFS leaves per rank still validate under the exact check — and
/// stop validating when one brick moves by a unit, which preserves volume
/// and bounds.
#[test]
fn large_plans_tile_the_iteration_space_exactly() {
    let reg = baselines::registry();
    for (id, prob, min_bricks_per_rank) in [
        (AlgoId::Cosma, MmmProblem::new(256, 256, 256, 32768, 1 << 12), 1),
        (AlgoId::Carma, MmmProblem::new(256, 256, 256, 2048, 1 << 9), 2),
    ] {
        let mut plan = reg.by_id(id).expect("registered").plan(&prob, &model()).expect("plans");
        let bricks: usize = plan.ranks.iter().map(|r| r.bricks.len()).sum();
        assert!(bricks > 4096, "{id}: {bricks} bricks");
        assert!(plan.ranks[1000].bricks.len() >= min_bricks_per_rank, "{id}: one leaf per rank");
        plan.validate_coverage().unwrap_or_else(|e| panic!("{id}: {e}"));

        // Rank 1000 is clear of the points the sampled check looked at.
        let rows = &mut plan.ranks[1000].bricks[0].rows;
        assert!(rows.end < prob.m, "{id}: room to shift");
        *rows = rows.start + 1..rows.end + 1;
        assert!(
            matches!(plan.validate_coverage(), Err(PlanError::Overlap { .. })),
            "{id}: a shifted brick must be rejected"
        );
    }
}

#[test]
fn planned_traffic_equals_executed_traffic() {
    let reg = baselines::registry();
    for prob in shared_problems() {
        let a = Matrix::deterministic(prob.m, prob.k, 91);
        let b = Matrix::deterministic(prob.k, prob.n, 92);
        let want = matmul(&a, &b);
        let spec = MachineSpec::piz_daint_with_memory(prob.p, prob.mem_words);
        for algo in reg.all() {
            let id = algo.id();
            if algo.supports(&prob).is_err() {
                continue;
            }
            let Ok(plan) = algo.plan(&prob, &model()) else {
                continue;
            };
            let report = execute_boxed(algo.as_ref(), &plan, &spec, SHARDED, &a, &b)
                .unwrap_or_else(|e| panic!("{id} on p={}: {e}", prob.p));
            assert!(
                want.approx_eq(&report.c, 1e-9),
                "{id} on p={}: product off by {}",
                prob.p,
                want.max_abs_diff(&report.c)
            );
            for (r, st) in report.stats.iter().enumerate() {
                assert_eq!(
                    st.total_recv(),
                    plan.ranks[r].comm_words(),
                    "{id} on p={}: rank {r} executed traffic deviates from the plan",
                    prob.p
                );
            }
        }
    }
}

/// The large-world problem matrix: paper-scale rank counts, far more ranks
/// than scheduler threads.
/// p = 2048 is not a perfect square, so 2.5D idles the ranks beyond its
/// `q²c` at scale too; matrices are sized so every rank still owns work.
fn large_world_problems() -> Vec<MmmProblem> {
    vec![
        MmmProblem::new(256, 256, 256, 1024, 1 << 20),
        MmmProblem::new(192, 224, 512, 2048, 1 << 20),
        MmmProblem::new(256, 256, 256, 4096, 1 << 20),
    ]
}

/// Plan-vs-executed traffic equality at p ∈ {1024, 2048, 4096} on two
/// scheduler threads — the conformance contract at the paper's rank counts.
/// Slow: run via `cargo test -- --ignored` (the CI `large-world` job).
#[test]
#[ignore = "large world (>= 1024 ranks); run with --ignored"]
fn large_world_traffic_matches_plan() {
    let reg = baselines::registry();
    for prob in large_world_problems() {
        let a = Matrix::deterministic(prob.m, prob.k, 31);
        let b = Matrix::deterministic(prob.k, prob.n, 32);
        let want = matmul(&a, &b);
        let spec = MachineSpec::piz_daint_with_memory(prob.p, prob.mem_words);
        let backend = SHARDED;
        for algo in reg.all() {
            let id = algo.id();
            if algo.supports(&prob).is_err() {
                continue;
            }
            let Ok(plan) = algo.plan(&prob, &model()) else {
                continue;
            };
            let report = execute_boxed(algo.as_ref(), &plan, &spec, backend, &a, &b)
                .unwrap_or_else(|e| panic!("{id} on p={}: {e}", prob.p));
            assert!(
                want.approx_eq(&report.c, 1e-9),
                "{id} on p={}: product off by {}",
                prob.p,
                want.max_abs_diff(&report.c)
            );
            for (r, st) in report.stats.iter().enumerate() {
                assert_eq!(
                    st.total_recv(),
                    plan.ranks[r].comm_words(),
                    "{id} on p={}: rank {r} executed traffic deviates from the plan",
                    prob.p
                );
            }
        }
    }
}

/// `RunSession::execute` with hundreds of ranks per scheduler thread: two
/// regions of 300 stackless ranks each, and the verified contract still
/// holds.
#[test]
fn session_executes_many_ranks_per_scheduler_thread() {
    let prob = MmmProblem::new(128, 128, 128, 600, 1 << 18);
    let a = Matrix::deterministic(prob.m, prob.k, 41);
    let b = Matrix::deterministic(prob.k, prob.n, 42);
    let (plan, _) = RunSession::new(prob)
        .registry(baselines::registry())
        .exec_backend(SHARDED)
        .execute_verified(&a, &b)
        .expect("two scheduler threads must hold a 600-rank world");
    assert_eq!(plan.problem.p, 600);
}

/// Backend equivalence: for every registry algorithm on the shared (≤ 512
/// rank) problem matrix, the event executor at every thread count produces
/// bitwise identical per-rank `CPart` results and per-rank stats, virtual
/// times included — scheduling must never change what is computed or
/// measured.
#[test]
fn all_backends_agree_exactly() {
    let reg = baselines::registry();
    let mut probs = shared_problems();
    probs.push(MmmProblem::new(64, 64, 64, 256, 1 << 16));
    for prob in probs {
        let a = Matrix::deterministic(prob.m, prob.k, 21);
        let b = Matrix::deterministic(prob.k, prob.n, 22);
        let spec = MachineSpec::piz_daint_with_memory(prob.p, prob.mem_words);
        for algo in reg.all() {
            let id = algo.id();
            if algo.supports(&prob).is_err() {
                continue;
            }
            let Ok(plan) = algo.plan(&prob, &model()) else {
                continue;
            };
            let run = |backend: ExecBackend| {
                let (algo, plan, a, b) = (algo.as_ref(), &plan, &a, &b);
                run_spmd_with(&spec, backend, move |mut c| async move {
                    algo.execute_rank(&mut c, plan, a, b).await
                })
                .unwrap_or_else(|e| panic!("{id} on p={}: {e}", prob.p))
            };
            let reference = run(ExecBackend::event());
            assert!(
                mpsim::stats::aggregate::machine_time_s(&reference.stats) > 0.0,
                "{id} on p={}: the event executor must measure virtual time",
                prob.p
            );
            for backend in [
                ExecBackend::Event { threads: 2 },
                ExecBackend::Event { threads: 3 },
                ExecBackend::Event { threads: 4 },
            ] {
                let other = run(backend);
                assert_eq!(
                    reference.results, other.results,
                    "{id} on p={}: {backend} disagrees on CPart results",
                    prob.p
                );
                assert_eq!(
                    reference.stats, other.stats,
                    "{id} on p={}: {backend} virtual times or counters diverge from one thread",
                    prob.p
                );
            }
        }
    }
}

/// The shared reference size of the acceptance contract: at p = 2048, one
/// scheduler thread and four produce bitwise-identical products and per-rank
/// stats, virtual times included, for every applicable algorithm, with
/// plan-exact traffic. Slow; run via `cargo test -- --ignored` (CI
/// `large-world` job).
#[test]
#[ignore = "large world (2048 ranks); run with --ignored"]
fn event_thread_counts_agree_exactly_at_p2048() {
    let reg = baselines::registry();
    let prob = MmmProblem::new(192, 224, 512, 2048, 1 << 20);
    let a = Matrix::deterministic(prob.m, prob.k, 31);
    let b = Matrix::deterministic(prob.k, prob.n, 32);
    let spec = MachineSpec::piz_daint_with_memory(prob.p, prob.mem_words);
    for algo in reg.all() {
        let id = algo.id();
        if algo.supports(&prob).is_err() {
            continue;
        }
        let Ok(plan) = algo.plan(&prob, &model()) else {
            continue;
        };
        let run = |backend: ExecBackend| {
            execute_boxed(algo.as_ref(), &plan, &spec, backend, &a, &b)
                .unwrap_or_else(|e| panic!("{id}: {e}"))
        };
        let event = run(ExecBackend::event());
        let four = run(ExecBackend::Event { threads: 4 });
        assert_eq!(
            event.c.as_slice(),
            four.c.as_slice(),
            "{id} at p=2048: event and event(4) disagree on the product bitwise"
        );
        assert_eq!(event.stats, four.stats, "{id} at p=2048: event and event(4) disagree on the stats");
        for (r, st) in event.stats.iter().enumerate() {
            assert_eq!(
                st.total_recv(),
                plan.ranks[r].comm_words(),
                "{id} at p=2048: rank {r} event traffic deviates from the plan"
            );
        }
    }
}

/// The acceptance criterion's XL world: a `XL_RANKS` (default 131072) rank
/// COSMA execution end-to-end on the event backend, with real messages, a
/// verified product and plan-exact per-rank traffic. No thread per rank
/// could hold a world this size; the stackless state machines cost bytes
/// per rank — and how many is pinned: the peak RSS may grow across the
/// execution by the data a rank holds plus 2 600 B, no more. Run via
/// `cargo test --release -- --ignored event_xl` (the CI `large-world` matrix
/// sets `XL_RANKS` to 16384/65536/131072); the filter matters, a test running
/// beside this one in the process would be counted in.
#[test]
#[ignore = "xl world (>= 16384 ranks); run with --ignored"]
fn event_xl_world_executes_end_to_end() {
    let p: usize = std::env::var("XL_RANKS").ok().and_then(|s| s.parse().ok()).unwrap_or(131_072);
    // The record's `square-xxl` instance; EXPERIMENTS.md keeps its history.
    let prob = bench::scenarios::exec_xl_problem(p);
    let algo = cosma::api::CosmaAlgorithm::default();
    let plan = algo.plan(&prob, &model()).unwrap_or_else(|e| panic!("p={p}: {e}"));
    plan.validate_coverage().expect("XL plan tiles the space");
    let a = Matrix::deterministic(prob.m, prob.k, 71);
    let b = Matrix::deterministic(prob.k, prob.n, 72);
    let want = matmul(&a, &b);
    let spec = MachineSpec::piz_daint_with_memory(p, prob.mem_words);
    let before = common::vm_hwm_kib();
    let report = execute_boxed(&algo, &plan, &spec, ExecBackend::event(), &a, &b)
        .unwrap_or_else(|e| panic!("p={p}: {e}"));
    let grown = (common::vm_hwm_kib() - before) as f64 * 1024.0 / p as f64;
    // What a rank holds at the lockstep peak is the A and B blocks it
    // received — one A slab and one B slab less its own blocks, which it
    // reads in place — and its C tile; the bound takes the whole slabs, and
    // the plan's `mem_words` counts them twice (§7.3 double buffering, which
    // the simulator models and does not allocate). Everything else — future,
    // payload headers, counters, heap entries, packets in flight — reads
    // 1 360–1 370 B per rank at p = 16 384 now that no rank keeps a zeroed
    // slab (2 370 B with slabs; 2 240–2 460 B across the legs when mailboxes
    // became chains through one packet arena per region).
    let data_words = |r: &cosma::plan::RankPlan| {
        let tile = r.bricks.first().map_or(0, |b| b.rows.len() * b.cols.len());
        (r.mem_words + tile as u64) / 2
    };
    let data = 8.0 * plan.ranks.iter().map(data_words).sum::<u64>() as f64 / p as f64;
    eprintln!("p={p}: peak RSS grew by {grown:.0} B per rank, {data:.0} B of them slabs and tile");
    assert!(
        grown <= data + 2_600.0,
        "p={p}: {grown:.0} B of host memory per rank for {data:.0} B of data"
    );
    assert!(want.approx_eq(&report.c, 1e-9), "p={p}: product off by {}", want.max_abs_diff(&report.c));
    for (r, st) in report.stats.iter().enumerate() {
        assert_eq!(
            st.total_recv(),
            plan.ranks[r].comm_words(),
            "p={p}: rank {r} executed traffic deviates from the plan"
        );
    }
}

/// The message-bound shape's host memory: SUMMA 256³ on 4 096 ranks (the
/// benchmark's `summa-msgs` world — 126 sixteen-word messages per rank through
/// `bcast_pipelined`) on the event backend. A mailbox costs per packet in
/// flight in the region, not per rank, so the peak RSS may grow across the
/// execution by BOUND bytes per rank and no more. Run via
/// `cargo test --release -- --ignored event_summa_msgs`, under that filter
/// alone: a test running beside it in the process would be counted in.
#[test]
#[ignore = "reads the process's peak RSS; run alone with --ignored"]
fn event_summa_msgs_world_pins_host_bytes() {
    const BOUND: f64 = 4_000.0;
    let prob = MmmProblem::new(256, 256, 256, 4096, 1 << 20);
    let algo = baselines::registry().by_id(AlgoId::Summa).unwrap();
    let plan = algo.plan(&prob, &model()).unwrap();
    let a = Matrix::deterministic(prob.m, prob.k, 71);
    let b = Matrix::deterministic(prob.k, prob.n, 72);
    let want = matmul(&a, &b);
    let spec = MachineSpec::piz_daint_with_memory(prob.p, prob.mem_words);
    let before = common::vm_hwm_kib();
    let report = execute_boxed(algo.as_ref(), &plan, &spec, ExecBackend::event(), &a, &b).unwrap();
    let grown = (common::vm_hwm_kib() - before) as f64 * 1024.0 / prob.p as f64;
    eprintln!("summa p={}: peak RSS grew by {grown:.0} B per rank", prob.p);
    assert!(grown <= BOUND, "{grown:.0} B of host memory per rank, bound {BOUND:.0}");
    assert!(want.approx_eq(&report.c, 1e-9), "product off by {}", want.max_abs_diff(&report.c));
}

/// An integer-valued matrix: every product and partial sum is an exactly
/// representable integer (well below 2^53), so *any* summation order yields
/// bitwise-identical results — what makes the DFS-vs-BFS equality below a
/// legitimate bitwise assertion rather than an epsilon comparison.
fn int_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| ((i as u64 * 31 + j as u64 * 17 + seed) % 7) as f64 - 3.0)
}

/// The memory-budgeted streaming contract: a CARMA problem whose pure-BFS
/// leaf working set exceeds `S` executes end-to-end on every backend
/// with an *enforced* budget, produces the bit-exact product of both the
/// ample-memory BFS run and the dense reference GEMM, moves exactly the
/// DFS plan's words, and keeps every rank's measured peak within `S`.
#[test]
fn dfs_carma_matches_bfs_and_reference_bitwise_on_all_backends() {
    let tight = MmmProblem::new(64, 64, 64, 8, 1 << 10);
    let ample = MmmProblem::new(64, 64, 64, 8, 1 << 20);
    assert!(baselines::carma::dfs_leaf_count(&tight) > 1, "tight problem must force DFS");
    assert_eq!(baselines::carma::dfs_leaf_count(&ample), 1, "ample problem must stay pure BFS");
    let a = int_matrix(64, 64, 3);
    let b = int_matrix(64, 64, 5);
    let want = matmul(&a, &b);
    let algo = baselines::registry().by_id(cosma::api::AlgoId::Carma).unwrap();
    let run = |prob: &MmmProblem, backend: ExecBackend| {
        let plan = algo.plan(prob, &model()).unwrap();
        plan.validate().expect("CARMA plans are memory-honest in both regimes");
        let spec = MachineSpec::piz_daint_with_memory(prob.p, prob.mem_words).enforcing_memory();
        let report = execute_boxed(algo.as_ref(), &plan, &spec, backend, &a, &b)
            .unwrap_or_else(|e| panic!("{backend} S={}: {e}", prob.mem_words));
        for (r, st) in report.stats.iter().enumerate() {
            assert_eq!(
                st.total_recv(),
                plan.ranks[r].comm_words(),
                "{backend} S={}: rank {r} traffic deviates from the DFS plan",
                prob.mem_words
            );
            assert!(
                st.peak_mem_words <= prob.mem_words as u64,
                "{backend} S={}: rank {r} peaked at {} words",
                prob.mem_words,
                st.peak_mem_words
            );
        }
        report.c
    };
    let c_bfs = run(&ample, SHARDED);
    assert_eq!(c_bfs.as_slice(), want.as_slice(), "BFS CARMA vs reference GEMM");
    for backend in [
        ExecBackend::Event { threads: 8 },
        ExecBackend::Event { threads: 3 },
        ExecBackend::event(),
    ] {
        let c_dfs = run(&tight, backend);
        assert_eq!(c_dfs.as_slice(), c_bfs.as_slice(), "{backend}: DFS vs BFS product not bitwise equal");
        assert_eq!(c_dfs.as_slice(), want.as_slice(), "{backend}: DFS vs reference not bitwise equal");
    }
}

#[test]
fn execute_on_wrong_world_is_an_error_for_every_algorithm() {
    let reg = baselines::registry();
    let prob = MmmProblem::new(16, 16, 16, 4, 1 << 12);
    let a = Matrix::deterministic(prob.m, prob.k, 1);
    let b = Matrix::deterministic(prob.k, prob.n, 2);
    let wrong = MachineSpec::piz_daint_with_memory(9, prob.mem_words);
    for algo in reg.all() {
        if algo.supports(&prob).is_err() {
            continue;
        }
        let plan = algo.plan(&prob, &model()).unwrap();
        let err = execute_boxed(algo.as_ref(), &plan, &wrong, SHARDED, &a, &b).unwrap_err();
        assert_eq!(
            err,
            PlanError::WorldSizeMismatch {
                plan_ranks: 4,
                world_ranks: 9
            },
            "{}",
            algo.id()
        );
    }
}
