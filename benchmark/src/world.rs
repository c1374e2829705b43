//! The four single-world workloads: one operation is one
//! `RunSession::execute` on a single-threaded event world.

use cosma::api::{AlgoId, ExecReport, PlanError, RunSession};
use cosma::plan::DistPlan;
use cosma::problem::MmmProblem;
use densemat::matrix::Matrix;
use mpsim::exec::ExecBackend;

use crate::calibrate::Calibrator;
use crate::checks::{execution_failures, Reference, SimTuple, Tally};
use crate::layers;
use crate::run::{repeat_set_up, timed_ops, Measured, Opts};
use crate::spec::{Dims, Work, Workload};
use crate::trace::Tracer;

/// Everything an operation and its checks need, made by one set-up.
struct Ready {
    a: Matrix,
    b: Matrix,
    /// The plan every operation re-derives; planning is pure, so this copy is
    /// what the traffic check holds each execution against.
    plan: DistPlan,
    reference: Reference,
    /// The warm-up operation's simulated statistics.
    sim: SimTuple,
}

/// The session of the workload. The region-sharded engine (`threads > 1`) is
/// deliberately not used: on two shared cores its lockstep windows measure
/// the host scheduler, not the program.
fn session(algo: AlgoId, dims: Dims) -> RunSession {
    let [m, n, k, p, mem_words] = dims;
    RunSession::new(MmmProblem::new(m, n, k, p, mem_words))
        .registry(baselines::registry())
        .algorithm(algo)
        .exec_backend(ExecBackend::Event { threads: 1 })
}

fn set_up(session: &RunSession, dims: Dims, seed: u64) -> Result<Ready, String> {
    let [m, n, k, ..] = dims;
    let a = Matrix::deterministic(m, k, seed * 1000);
    let b = Matrix::deterministic(k, n, seed * 1000 + 1);
    let reference = Reference::of(&a, &b, seed);
    let plan = session.plan().map_err(|e| format!("planning failed: {e}"))?;
    // One full untimed operation: the allocator, the pack arenas and the
    // page cache are warm before anything is timed.
    let warm = session.execute(&a, &b).map_err(|e| format!("warm-up operation failed: {e}"))?;
    let failed = execution_failures(&warm, &plan, &reference, None);
    if !failed.is_empty() {
        return Err(format!("warm-up operation failed its checks: {}", failed.join("; ")));
    }
    let sim = SimTuple::of(&warm.stats);
    Ok(Ready {
        a,
        b,
        plan,
        reference,
        sim,
    })
}

fn check(
    tally: &mut Tally,
    ready: &Ready,
    op: usize,
    out: Result<ExecReport, PlanError>,
) -> Option<ExecReport> {
    match out {
        Ok(report) => {
            tally.record(
                op as u64,
                &execution_failures(&report, &ready.plan, &ready.reference, Some(&ready.sim)),
            );
            Some(report)
        }
        Err(e) => {
            tally.record(op as u64, &[format!("the call returned an error: {e}")]);
            None
        }
    }
}

pub fn run(
    w: &Workload,
    algo: AlgoId,
    dims: Dims,
    work: Work,
    opts: &Opts,
    cal: &mut Calibrator,
) -> Result<Measured, String> {
    let session = session(algo, dims);
    let mut out = Measured::new(w.name);
    // Only a fresh process can tell what a world adds to the peak resident
    // set, so the traced run asks before anything else has raised it.
    let rss_kib_per_rank = opts.trace.then(|| layers::world_rss_kib_per_rank(&session));

    let (ready, setup_s) = repeat_set_up(cal, w.setup_repeats, || set_up(&session, dims, opts.seed))?;
    out.setup_s = setup_s;

    let (untraced, traced) = opts.ops(w);
    let tally = &mut out.tally;
    let timed = timed_ops(
        cal,
        0..untraced,
        |_| session.execute(&ready.a, &ready.b),
        |i, report| drop(check(tally, &ready, i, report)),
    );
    out.wall_s = timed.wall_s();
    out.cpu_s = timed.cpu_s;
    out.work = untraced as f64
        * match work {
            Work::Ranks => dims[3] as f64,
            Work::Messages => ready.sim.msgs as f64,
            Work::Flops => 2.0 * dims[0] as f64 * dims[1] as f64 * dims[2] as f64,
        };
    out.lat_s = timed.lat_s;

    if opts.trace {
        let mut tracer = Tracer::new();
        let mut last = None;
        for i in untraced..untraced + traced {
            let op = tracer.begin("op", i as u64);
            let (plan, _) = tracer.time("core.plan", i as u64, || session.plan());
            let report = match plan {
                Ok(plan) => {
                    tracer
                        .time("core.execute", i as u64, || session.execute_planned(&plan, &ready.a, &ready.b))
                        .0
                }
                Err(e) => Err(e),
            };
            tracer.end(op);
            let checking = tracer.begin("check", i as u64);
            last = check(&mut out.tally, &ready, i, report).or(last);
            tracer.end(checking);
        }
        out.layers = layers::world(&session, &ready.plan, &ready.sim, &mut tracer);
        out.layers
            .insert("mpsim.event.rss_kib_per_rank", rss_kib_per_rank.unwrap_or(0.0));
        if let Some(report) = last {
            out.layers.insert("mpsim.pool.hits", report.pool.hits as f64);
            out.layers.insert("mpsim.pool.misses", report.pool.misses as f64);
            out.layers.insert("mpsim.pool.allocs", report.pool.allocs() as f64);
            out.layers.insert("mpsim.pool.hit_rate", report.pool.hit_rate());
            out.layers
                .insert("sim.peak_mem_words", mpsim::stats::aggregate::max_peak_mem(&report.stats) as f64);
        }
        out.finish_trace(&tracer, w.name, "op")?;
    }
    Ok(out)
}
