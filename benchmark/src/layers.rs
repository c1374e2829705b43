//! Per-layer probes of the single-world workloads.
//!
//! Each probe calls one layer's public functions directly, with inputs
//! derived from the workload's own [`DistPlan`], under a span. Nothing inside
//! `crates/*` is instrumented, so what the probes cannot attribute is
//! reported as `mpsim.event.residual_ms` rather than hidden. `pebbles` and
//! `densemat::layout` are on no workload's hot path and are not probed.

use std::collections::BTreeMap;
use std::hint::black_box;

use cosma::algorithm::{assemble_c, CPart};
use cosma::api::RunSession;
use cosma::plan::DistPlan;
use densemat::gemm::{gemm_naive, gemm_packed, mmm_flops};
use densemat::matrix::Matrix;
use mpsim::collectives::{bcast_pipelined, even_chunk_ranges, reduce_sum};
use mpsim::exec::{run_spmd_with, ExecBackend};
use mpsim::machine::MachineSpec;
use mpsim::pool::BufferPool;
use mpsim::stats::Phase;

use crate::checks::SimTuple;
use crate::procfs::vm_hwm_kib;
use crate::stats::median;
use crate::trace::Tracer;

const EVENT: ExecBackend = ExecBackend::Event { threads: 1 };

/// Words a probe may move in total: enough repetitions to time, few enough
/// that the probes together stay a fraction of the run.
const PROBE_WORDS: usize = 1 << 24;

/// A world whose ranks meet at one barrier and leave: what it costs to build
/// a world, make a future per rank, run the heap once and tear it down.
fn null_world(spec: &MachineSpec) {
    run_spmd_with(spec, EVENT, |mut comm| async move { comm.barrier().await })
        .expect("a barrier-only world runs");
}

/// KiB a null world adds to the peak resident set, per rank. Only meaningful
/// before the process has peaked for any other reason.
pub fn world_rss_kib_per_rank(session: &RunSession) -> f64 {
    let spec = session.machine_spec();
    let before = vm_hwm_kib();
    null_world(&spec);
    (vm_hwm_kib() - before) as f64 / spec.p as f64
}

/// Repetitions of a probe step that moves `words_per_step` words.
fn reps_for(words_per_step: usize) -> usize {
    (PROBE_WORDS / words_per_step.max(1)).clamp(1, 200)
}

/// The distinct `(lm, ln, lk)` brick shapes of the plan's ranks, each with
/// the number of bricks that have it.
fn brick_shapes(plan: &DistPlan) -> BTreeMap<(usize, usize, usize), usize> {
    let mut shapes = BTreeMap::new();
    for brick in plan.ranks.iter().flat_map(|r| &r.bricks) {
        *shapes.entry((brick.rows.len(), brick.cols.len(), brick.ks.len())).or_insert(0) += 1;
    }
    shapes
}

/// C parts shaped like the plan's output: each rank's tile, cut along the
/// k-fibre the way the reduce-scatter leaves it.
fn c_parts(plan: &DistPlan) -> Vec<CPart> {
    let gk = plan.grid[2].max(1);
    plan.ranks
        .iter()
        .filter(|r| r.active)
        .flat_map(|r| r.bricks.iter().map(move |b| (r.coords[2], b)))
        .map(|(ik, brick)| {
            let tile = brick.rows.len() * brick.cols.len();
            let own = even_chunk_ranges(tile, gk)[ik.min(gk - 1)].clone();
            CPart {
                rows: brick.rows.clone(),
                cols: brick.cols.clone(),
                offset: own.start,
                data: vec![1.0; own.len()],
            }
        })
        .collect()
}

/// The layer metrics of a world workload. `tracer` already holds the traced
/// operations' `core.plan` and `core.execute` spans.
pub fn world(
    session: &RunSession,
    plan: &DistPlan,
    sim: &SimTuple,
    tracer: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let spec = session.machine_spec();
    let p = spec.p;
    let probes = tracer.begin("probes", 0);

    let plan_ms = median(&tracer.durations_s("core.plan")) * 1e3;
    let execute_ms = median(&tracer.durations_s("core.execute")) * 1e3;
    m.insert("core.plan_ms", plan_ms);
    m.insert("core.execute_ms", execute_ms);

    // mpsim::event — world build and teardown, then the per-message path.
    let ((), null_s) = tracer.time("mpsim.event.null_world", 0, || null_world(&spec));
    m.insert("mpsim.event.null_world_ms", null_s * 1e3);
    m.insert("mpsim.event.null_rank_us", null_s * 1e6 / p as f64);

    let steps = (sim.msgs as usize).div_ceil(p);
    let words = (sim.words as usize).div_ceil((sim.msgs as usize).max(1)).max(1);
    let ((), ring_s) = tracer.time("mpsim.event.ring", 0, || {
        run_spmd_with(&spec, EVENT, |mut comm| async move {
            let (rank, size) = (comm.rank(), comm.size());
            let (to, from) = ((rank + 1) % size, (rank + size - 1) % size);
            let mut buf = comm.pool().take_zeroed(words);
            for step in 0..steps {
                buf = comm.sendrecv(to, from, step as u64, buf, Phase::Other).await;
            }
            comm.recycle(buf);
        })
        .expect("a ring world runs");
    });
    // The ring world is a null world plus p·steps messages.
    let ring_msgs_s = (ring_s - null_s).max(0.0);
    m.insert("mpsim.event.ring_msg_ns", ring_msgs_s * 1e9 / (p * steps).max(1) as f64);

    // mpsim::collectives — one grid row's broadcast, one k-fibre's reduction.
    let row = plan.grid[1].clamp(2, 64);
    let panel = plan
        .ranks
        .iter()
        .flat_map(|r| &r.rounds)
        .map(|r| r.a_words.max(r.b_words) as usize)
        .max()
        .unwrap_or(0)
        .max(1);
    let reps = reps_for(row * panel);
    let row_spec = MachineSpec::new(row, spec.mem_words, spec.cost);
    let group: Vec<usize> = (0..row).collect();
    let ((), bcast_s) = tracer.time("mpsim.collectives.bcast", 0, || {
        run_spmd_with(&row_spec, EVENT, |mut comm| {
            let group = &group;
            async move {
                let mut data = if comm.rank() == 0 {
                    vec![1.0; panel]
                } else {
                    Vec::new()
                };
                for rep in 0..reps {
                    // Base tags a segment count apart, as `bcast_pipelined` asks of repeated use.
                    bcast_pipelined(&mut comm, group, 0, &mut data, panel, (rep as u64) << 32, Phase::InputA)
                        .await;
                }
                black_box(data.len())
            }
        })
        .expect("a broadcast world runs");
    });
    m.insert("mpsim.collectives.bcast_us", bcast_s * 1e6 / reps as f64);

    let fibre = plan.grid[2].clamp(2, 64);
    let tile = plan
        .ranks
        .iter()
        .flat_map(|r| &r.bricks)
        .map(|b| b.rows.len() * b.cols.len())
        .max()
        .unwrap_or(1)
        .max(1);
    let reps = reps_for(fibre * tile);
    let fibre_spec = MachineSpec::new(fibre, spec.mem_words, spec.cost);
    let group: Vec<usize> = (0..fibre).collect();
    let ((), reduce_s) = tracer.time("mpsim.collectives.reduce", 0, || {
        run_spmd_with(&fibre_spec, EVENT, |mut comm| {
            let group = &group;
            async move {
                let mut data = vec![1.0; tile];
                for rep in 0..reps {
                    reduce_sum(&mut comm, group, 0, &mut data, rep as u64, Phase::OutputC).await;
                }
                black_box(data[0])
            }
        })
        .expect("a reduction world runs");
    });
    m.insert("mpsim.collectives.reduce_us", reduce_s * 1e6 / reps as f64);

    // mpsim::pool — one payload's lease and return.
    let payload = vec![1.0; words];
    let pool = BufferPool::new(true);
    let reps = (PROBE_WORDS * 4 / words).clamp(1_000, 200_000);
    let ((), pool_s) = tracer.time("mpsim.pool.take_give", 0, || {
        for _ in 0..reps {
            pool.give(black_box(pool.take_copy(black_box(&payload))));
        }
    });
    m.insert("mpsim.pool.take_give_ns", pool_s * 1e9 / reps as f64);

    // densemat::gemm — every rank's local brick, no simulator around it.
    let shapes = brick_shapes(plan);
    let mut local_s = 0.0;
    let mut local_flops = 0u64;
    let (mut naive_s, mut naive_flops) = (0.0, 0u64);
    for (i, (&(lm, ln, lk), &count)) in shapes.iter().enumerate() {
        let a = Matrix::deterministic(lm, lk, 2 * i as u64);
        let b = Matrix::deterministic(lk, ln, 2 * i as u64 + 1);
        let mut c = Matrix::zeros(lm, ln);
        let ((), s) = tracer.time("densemat.gemm.local", i as u64, || {
            for _ in 0..count {
                gemm_packed(black_box(&a), black_box(&b), &mut c);
            }
        });
        local_s += s;
        local_flops += count as u64 * mmm_flops(lm, ln, lk);
        // The plain single-threaded loop, once per shape: the baseline the packed kernel is read against.
        let ((), s) =
            tracer.time("densemat.gemm.naive", i as u64, || gemm_naive(black_box(&a), black_box(&b), &mut c));
        naive_s += s;
        naive_flops += mmm_flops(lm, ln, lk);
        black_box(&c);
    }
    m.insert("densemat.gemm.local_ms", local_s * 1e3);
    m.insert("densemat.gemm.local_gflops", local_flops as f64 / local_s.max(1e-12) * 1e-9);
    m.insert("densemat.gemm.naive_gflops", naive_flops as f64 / naive_s.max(1e-12) * 1e-9);
    m.insert("densemat.gemm.share", local_s * 1e3 / execute_ms);

    // core — assembling the distributed output.
    let parts = c_parts(plan);
    let (c, assemble_s) =
        tracer.time("core.assemble", 0, || assemble_c(parts, plan.problem.m, plan.problem.n));
    black_box(c);
    m.insert("core.assemble_ms", assemble_s * 1e3);

    tracer.end(probes);
    m.insert(
        "mpsim.event.residual_ms",
        execute_ms - (null_s + ring_msgs_s + local_s + assemble_s) * 1e3,
    );
    m.insert("sim.time_s", sim.time_s());
    m.insert("sim.words", sim.words as f64);
    m.insert("sim.msgs", sim.msgs as f64);
    m.insert("sim.flops", sim.flops as f64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma::api::AlgoId;
    use cosma::problem::MmmProblem;

    #[test]
    fn probe_inputs_follow_the_plan() {
        let session = RunSession::new(MmmProblem::new(32, 32, 64, 8, 1 << 12)).algorithm(AlgoId::Cosma);
        let plan = session.plan().unwrap();
        let shapes = brick_shapes(&plan);
        assert_eq!(shapes.values().sum::<usize>(), plan.active_ranks());
        let volume: u64 = shapes.iter().map(|(&(lm, ln, lk), &n)| (lm * ln * lk * n) as u64).sum();
        assert_eq!(volume, plan.problem.volume());
        // The parts tile C exactly: assembling ones gives ones everywhere.
        let c = assemble_c(c_parts(&plan), 32, 32);
        assert!(c.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn probe_repetitions_are_bounded() {
        assert_eq!(reps_for(0), 200);
        assert_eq!(reps_for(1 << 30), 1);
        assert_eq!(reps_for(PROBE_WORDS / 10), 10);
    }
}
