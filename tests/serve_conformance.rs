//! Conformance of the serving layer (`crates/serve`) against direct
//! `RunSession` execution: a mixed multi-tenant stream served concurrently
//! must be observationally identical — bit for bit — to planning and
//! executing each job by hand, one at a time.
//!
//! This is the end-to-end guarantee the serve crate rests on: planning is a
//! pure function of the request (so cached plans are exact), and a world
//! served among many tenants — a default single-threaded event simulation on
//! a driver thread, or a world pinned to more scheduler threads beside other
//! tenants' — computes exactly what it computes alone.

use bench::serve_bench::{mixed_stream, unique_combos};
use cosma::api::{AlgoId, RunSession};
use cosma::problem::MmmProblem;
use densemat::matrix::Matrix;
use mpsim::cost::CostModel;
use mpsim::exec::ExecBackend;
use serve::{AutoPlanner, FaultPlan, JobRequest, JobResult, RetryPolicy, Server, ServerConfig};

/// Hold every served job against the serial reference: planned and executed
/// by hand with a fresh auto-planner and a private `RunSession` on `backend`
/// — no serve crate on this path beyond the selection rule itself. Full
/// `stats` equality: on the event backend the virtual clock is part of the
/// contract, not stripped. Returns the algorithms selected, in first-seen
/// order.
fn assert_matches_serial(jobs: &[JobRequest], served: &[JobResult], backend: ExecBackend) -> Vec<AlgoId> {
    assert_eq!(served.len(), jobs.len());
    let model = CostModel::piz_daint_two_sided();
    let planner = AutoPlanner::new(baselines::registry());
    let mut selected: Vec<AlgoId> = Vec::new();
    for (job, result) in jobs.iter().zip(served) {
        assert_eq!(job.id, result.id, "run_batch must return results in id order");
        let out = result.outcome.as_ref().expect("the mixed stream is feasible by construction");

        let reference = planner.select(&job.prob, &model, job.overlap, &job.choice).expect("feasible");
        assert_eq!(out.selection, reference.selection, "job {}: selection diverged", job.id);
        assert_eq!(*out.plan, *reference.plan, "job {}: plan diverged", job.id);

        let report = RunSession::new(job.prob)
            .registry(baselines::registry())
            .algorithm(reference.selection.algo)
            .machine(model)
            .overlap(job.overlap)
            .exec_backend(backend)
            .execute(&job.a, &job.b)
            .expect("serial reference run");
        assert_eq!(out.report.c, report.c, "job {}: product diverged from serial", job.id);
        assert_eq!(out.report.stats, report.stats, "job {}: stats diverged from serial", job.id);

        if !selected.contains(&out.selection.algo) {
            selected.push(out.selection.algo);
        }
    }
    selected
}

/// A ≥64-job mixed stream (repeat + unique plan keys) through a concurrent
/// [`Server`] with default knobs, so every world is a single-threaded event
/// simulation: every `JobResult` matches a serial event [`RunSession`] run
/// of the same job bitwise — per-rank α-β-γ times included — at least three
/// different algorithms are auto-selected, and the plan cache absorbs the
/// key repeats.
#[test]
fn concurrent_stream_matches_serial_run_sessions_bitwise() {
    let n_jobs = 64;
    let jobs = mixed_stream(n_jobs);
    assert!(unique_combos().len() < n_jobs, "the stream must repeat plan keys");

    let config = ServerConfig {
        drivers: 4,
        ..ServerConfig::default()
    };
    let server = Server::new(baselines::registry(), config).unwrap();
    let served = server.run_batch(jobs.clone());
    for result in &served {
        let out = result.outcome.as_ref().expect("feasible stream");
        assert_eq!(
            out.backend,
            ExecBackend::event(),
            "job {}: default jobs run on the event engine",
            result.id
        );
        assert!(out.report.measured_time_s() > 0.0, "job {}: virtual time is measured", result.id);
    }
    let selected = assert_matches_serial(&jobs, &served, ExecBackend::event());

    assert!(selected.len() >= 3, "want >= 3 algorithms auto-selected, got {selected:?}");
    let report = server.shutdown();
    assert!(report.undelivered.is_empty(), "the batch already collected every result");
    let stats = report.cache;
    assert!(stats.hit_rate() > 0.0, "key repeats must hit the cache: {stats:?}");
    assert_eq!(stats.hits + stats.misses, n_jobs as u64);
}

/// The same stream pinned to the event backend: pinning what the default
/// already is changes nothing — virtual-clock execution through the server
/// agrees with private event runs, including the per-rank α-β-γ times
/// (event worlds interleave on the driver threads but never share scheduler
/// state).
#[test]
fn event_backend_stream_matches_serial_including_virtual_time() {
    let jobs: Vec<_> = mixed_stream(24).into_iter().map(|j| j.backend(ExecBackend::event())).collect();
    let server = Server::new(baselines::registry(), ServerConfig::default()).unwrap();
    let served = server.run_batch(jobs.clone());
    assert_matches_serial(&jobs, &served, ExecBackend::event());
}

/// The opt-in path: the same stream with every job pinning two scheduler
/// threads, so each world is sharded among many tenants — and computes
/// exactly what it computes alone, virtual clock included.
#[test]
fn pinned_sharded_stream_matches_serial_run_sessions_bitwise() {
    let pinned = ExecBackend::Event { threads: 2 };
    let jobs: Vec<_> = mixed_stream(24).into_iter().map(|j| j.backend(pinned)).collect();
    let config = ServerConfig {
        drivers: 4,
        pool_workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::new(baselines::registry(), config).unwrap();
    let served = server.run_batch(jobs.clone());
    for result in &served {
        let out = result.outcome.as_ref().expect("feasible stream");
        assert_eq!(out.backend, pinned, "job {}", result.id);
    }
    assert_matches_serial(&jobs, &served, pinned);
    assert!(server.arena_stats().returns > 0, "the served worlds' arena counters are summed");
}

/// The PR-9 recovery contract end-to-end: a seeded `FaultPlan` fells 15 of
/// 64 ranks mid-run; the retry policy replans for the surviving p′ = 49 —
/// a rank count only grid fitting handles gracefully (not a power of two,
/// not a perfect square) — and the recovered job's product *and per-rank
/// virtual-clock stats* are bitwise-identical to a fresh p′ = 49 run of the
/// same operands through the same pipeline.
#[test]
fn fault_recovery_replans_survivors_and_matches_fresh_run_bitwise() {
    let prob = MmmProblem::new(96, 80, 112, 64, 1 << 14);
    let a = Matrix::deterministic(prob.m, prob.k, 5);
    let b = Matrix::deterministic(prob.k, prob.n, 6);
    let server = Server::new(baselines::registry(), ServerConfig::default()).unwrap();

    // Derive the fault horizon from a clean clocked run, so the scheduled
    // deaths land squarely mid-run whatever the machine model says.
    let clean = server.run_sync(JobRequest::new(0, prob, a.clone(), b.clone()).backend(ExecBackend::event()));
    let t = clean.outcome.expect("clean run").report.measured_time_s();
    assert!(t > 0.0);

    let plan = FaultPlan::new(2024).kill_exactly(15, t / 2.0);
    assert_eq!(plan.survivors(64), 49);
    let recovered = server.run_sync(
        JobRequest::new(1, prob, a.clone(), b.clone())
            .faults(plan)
            .retry(RetryPolicy::attempts(2)),
    );
    let out = recovered.outcome.expect("recovery must complete the job");
    assert_eq!(recovered.attempts, 2, "one injected failure, one clean re-run");
    assert!(recovered.degraded);
    assert_eq!(out.plan.problem.p, 49, "replanned for the surviving world");

    let prob49 = MmmProblem::new(prob.m, prob.n, prob.k, 49, prob.mem_words);
    let fresh = server.run_sync(JobRequest::new(2, prob49, a, b).backend(ExecBackend::event()));
    let fresh_out = fresh.outcome.expect("fresh p' run");
    assert_eq!(fresh.attempts, 1);
    assert_eq!(out.report.c, fresh_out.report.c, "recovered product must equal a fresh p' run bitwise");
    assert_eq!(out.report.stats, fresh_out.report.stats, "virtual clocks included");
}
