//! Evaluate every algorithm's plan on a problem instance and collect the
//! measured rows of the paper's figures and tables.
//!
//! All planning goes through the [`MmmAlgorithm`] trait and the full
//! [`baselines::registry`] — the runner knows no per-algorithm entry points.
//! Algorithms with rank-count constraints (a limitation the paper calls out
//! in §1 for CARMA) are run on the largest supported subset of the machine
//! and the rest of the ranks idle, charged against %-of-peak exactly as the
//! machine would charge them.

use std::sync::Arc;

use cosma::api::{execute_boxed, AlgoId, MmmAlgorithm, PlanError};
use cosma::plan::{RankPlan, Scoring};
use cosma::problem::MmmProblem;
use densemat::gemm::matmul;
use densemat::matrix::Matrix;
use mpsim::cost::{CostModel, TimeBreakdown};
use mpsim::exec::ExecBackend;
use mpsim::machine::{MachineSpec, Placement, Topology};
use mpsim::stats::aggregate;

/// One algorithm's planned outcome on one problem instance.
#[derive(Debug, Clone)]
pub struct AlgoRow {
    /// The measured algorithm.
    pub algo: AlgoId,
    /// Cores of the machine (including idled ones).
    pub p: usize,
    /// Mean received words per rank over all `p` ranks, idle ones included,
    /// in MB.
    pub mean_mb: f64,
    /// Simulated wall-clock seconds in the reported overlap mode (on for
    /// COSMA, off for the baselines).
    pub time_s: f64,
    /// Simulated wall-clock seconds without overlap.
    pub time_no_overlap_s: f64,
    /// Percent of machine peak flop/s in the reported overlap mode.
    pub percent_peak: f64,
    /// The processor grid used.
    pub grid: [usize; 3],
    /// Active (non-idle) ranks.
    pub active: usize,
    /// The slowest rank's time split, with and without overlap (Figure 12).
    pub critical: [TimeBreakdown; 2],
    /// The busiest rank's received words: inputs (A + B), then output (C).
    pub busiest_words: [u64; 2],
}

impl AlgoRow {
    /// Mean received MB per *active* rank — the per-rank volume of Figures
    /// 6–7 and Table 4, which idle padding ranks cannot dilute.
    pub fn active_mb(&self) -> f64 {
        self.mean_mb * self.p as f64 / self.active as f64
    }
}

pub(crate) fn words_to_mb(w: f64) -> f64 {
    w * 8.0 / 1e6
}

/// The rank count `algo` plans `prob` on: `prob.p` when it supports it,
/// else the largest `p' < p` it accepts, the rest of the machine idling
/// (the paper's treatment of CARMA on non-power-of-two machines).
pub(crate) fn planned_ranks(algo: &dyn MmmAlgorithm, prob: &MmmProblem) -> Result<usize, PlanError> {
    let sub = |p: usize| MmmProblem::new(prob.m, prob.n, prob.k, p, prob.mem_words);
    (1..=prob.p)
        .rev()
        .find(|&p| algo.supports(&sub(p)).is_ok())
        .ok_or_else(|| algo.supports(prob).unwrap_err())
}

/// Stream `algo`'s plan for `prob` once — on [`planned_ranks`], padded to
/// `prob.p` with idle ranks — and score it under every model of `models`,
/// planning under the first. Nothing of a rank outlives its scoring, so a
/// plan of any size costs one rank's memory.
///
/// This is how topology enters the paper's sweep: plans are topology-blind
/// (the decompositions optimise volume, not routes), and a model with β
/// scaled by [`contention`] charges every algorithm per word moved, so
/// lower-volume plans gain where the paper's speedup tail lives.
pub(crate) fn score(
    algo: &dyn MmmAlgorithm,
    prob: &MmmProblem,
    models: &[CostModel],
) -> Result<Vec<AlgoRow>, PlanError> {
    let used = planned_ranks(algo, prob)?;
    let mut folds: Vec<[Scoring; 2]> =
        models.iter().map(|m| [Scoring::new(m, true), Scoring::new(m, false)]).collect();
    let (mut active, mut busiest) = (0, [0u64; 2]);
    let mut absorb = |r: &RankPlan| {
        for [with, without] in &mut folds {
            with.absorb(r);
            without.absorb(r);
        }
        active += usize::from(r.active);
        let runs = r.rounds.runs();
        let input: u64 = runs.iter().map(|run| run.count * (run.round.a_words + run.round.b_words)).sum();
        let output: u64 = runs.iter().map(|run| run.count * run.round.c_words).sum();
        // The last of equally busy ranks, as `Iterator::max_by_key` picks.
        if input + output >= busiest[0] + busiest[1] {
            busiest = [input, output];
        }
    };
    let sub = MmmProblem::new(prob.m, prob.n, prob.k, used, prob.mem_words);
    let header = algo.plan_ranks(&sub, &models[0], &mut |r| absorb(&r))?;
    for rank in used..prob.p {
        absorb(&RankPlan::idle(rank));
    }
    Ok(folds
        .into_iter()
        .map(|[with, without]| {
            let (with, without) = (with.finish(prob), without.finish(prob));
            // Communication–computation overlap (§7.3) is COSMA's
            // implementation edge: the published ScaLAPACK/CTF/CARMA
            // implementations do not overlap (the paper additionally notes
            // CARMA's per-step dynamic buffer allocation, §7.5), so their
            // reported time is the non-overlapped one.
            let reported = if header.algo == AlgoId::Cosma {
                &with
            } else {
                &without
            };
            AlgoRow {
                algo: header.algo,
                p: prob.p,
                mean_mb: words_to_mb(with.mean_comm_words),
                time_s: reported.time_s,
                time_no_overlap_s: without.time_s,
                percent_peak: reported.percent_peak,
                grid: header.grid,
                active,
                critical: [with.critical, without.critical],
                busiest_words: busiest,
            }
        })
        .collect())
}

/// `topology`'s uniform-traffic contention multiplier on `p` block-placed
/// ranks ([`mpsim::Network::mean_contention`]): the plan-level view of the
/// event backend's shared-link serialisation, for
/// [`CostModel::with_contention`]. The flat topology's is exactly `1.0`.
pub(crate) fn contention(p: usize, topology: &Topology) -> f64 {
    mpsim::Network::compile(p, topology, Placement::Block).mean_contention()
}

/// Evaluate every algorithm of [`baselines::registry`] on `prob` under
/// `model`. Inapplicable or infeasible algorithms are skipped (reported by
/// absence).
pub fn run_all(prob: &MmmProblem, model: &CostModel) -> Vec<AlgoRow> {
    baselines::registry()
        .all()
        .iter()
        .filter_map(|algo| score(algo.as_ref(), prob, &[*model]).ok()?.pop())
        .collect()
}

/// One algorithm's end-to-end *executed* outcome on one problem instance:
/// the plan's word- and message-exact prediction next to what the executor actually
/// measured with real messages — the row form of the conformance contract.
#[derive(Debug, Clone)]
pub struct ExecutedRow {
    /// The executed algorithm.
    pub algo: AlgoId,
    /// World size.
    pub p: usize,
    /// Executor that ran the world.
    pub backend: ExecBackend,
    /// Total communication the plan predicts, in MB.
    pub planned_mb: f64,
    /// Total words actually received across ranks, in MB.
    pub measured_mb: f64,
    /// Whether every single rank's measured words and messages equal its
    /// plan's ([`DistPlan::deviating_rank`](cosma::plan::DistPlan::deviating_rank)).
    pub exact: bool,
    /// Maximum measured per-rank peak working set, in words.
    pub peak_mem_words: u64,
    /// Whether every rank's measured peak stayed within the problem's
    /// per-rank memory `S` — the paper's limited-memory contract.
    pub within_mem: bool,
    /// Simulated wall-clock the plan predicts under the α-β-γ model in the
    /// machine's overlap mode, in seconds. The plan model is
    /// topology-blind: the gap to the measured time on a fat tree *is* the
    /// contention the `topo` section reports.
    pub planned_time_s: f64,
    /// *Measured* virtual wall-clock of the executed run: the slowest
    /// rank's virtual finish time on the event executor's discrete-event
    /// clock.
    pub measured_time_s: f64,
    /// Measured percent of machine peak (Figures 8/10/13/14's metric, taken
    /// from the virtual clock). Zero when no time was measured.
    pub measured_percent_peak: f64,
}

/// Plan each of `algos` for `prob` under `machine`'s cost model, execute
/// the plan with real data on `machine` — its overlap, topology, placement
/// and memory budget — under `backend`, and hold what was measured against
/// the plan. A machine that enforces a memory budget admits only plans that
/// pass the full memory validation. Algorithms whose rank-count constraints
/// reject `prob.p`, or whose planning reports infeasibility, are skipped
/// (reported by absence, like [`run_all`]).
///
/// # Panics
/// Panics if an accepted execution fails (a budget exceeded among the
/// failures) or produces a wrong product — executed rows exist to certify
/// the plans, so a mismatch is a bug, not a data point.
pub fn execute(
    algos: &[Arc<dyn MmmAlgorithm>],
    prob: &MmmProblem,
    machine: &MachineSpec,
    backend: ExecBackend,
) -> Vec<ExecutedRow> {
    let a = Matrix::deterministic(prob.m, prob.k, 61);
    let b = Matrix::deterministic(prob.k, prob.n, 62);
    let want = matmul(&a, &b);
    let model = &machine.cost;
    algos
        .iter()
        .filter_map(|algo| {
            algo.supports(prob).ok()?;
            let plan = algo.plan(prob, model).ok()?;
            if machine.mem_budget.is_some() {
                plan.validate().ok()?;
            }
            let report = execute_boxed(algo.as_ref(), &plan, machine, backend, &a, &b)
                .unwrap_or_else(|e| panic!("{} on p={}: {e}", algo.id(), prob.p));
            assert!(
                want.approx_eq(&report.c, 1e-9),
                "{} on p={}: product off by {}",
                algo.id(),
                prob.p,
                want.max_abs_diff(&report.c)
            );
            let peak_mem_words = aggregate::max_peak_mem(&report.stats);
            Some(ExecutedRow {
                algo: algo.id(),
                p: prob.p,
                backend,
                planned_mb: words_to_mb(plan.total_comm_words() as f64),
                measured_mb: words_to_mb(aggregate::total_volume(&report.stats) as f64),
                exact: plan.deviating_rank(&report.stats).is_none(),
                peak_mem_words,
                within_mem: peak_mem_words <= prob.mem_words as u64,
                planned_time_s: plan.simulate(model, machine.overlap).time_s,
                measured_time_s: report.measured_time_s(),
                measured_percent_peak: report.measured_percent_peak(prob.p, model),
            })
        })
        .collect()
}

/// The stated planned-vs-measured time tolerance: an event-backend run's
/// measured virtual wall-clock must lie within this multiplicative factor
/// of `DistPlan::simulate`'s prediction under the same overlap mode
/// (`planned / FACTOR ≤ measured ≤ planned · FACTOR`).
///
/// Why a factor and not an epsilon: the plan model pipelines each rank's
/// rounds independently, while the discrete-event clock adds the real
/// dependency structure — waiting for late senders, link serialization,
/// barrier skew — and conversely lets transfers hide behind stalls the plan
/// model charges. Both effects are bounded by the round structure, so the
/// two stay within a small constant of each other: on the timed comparison
/// matrix (p ∈ {64, 1024, 16384}) COSMA/CARMA/2.5D measure 1.0–1.45× of
/// plan, and SUMMA — once its panel broadcasts were routed through the
/// pipelined §7.2 binomial trees instead of serialized whole-panel
/// forwarding — sits in the same band. The factor leaves headroom without
/// letting either model drift silently; the bitwise record
/// ([`crate::baseline`]) is the sharp instrument: any move of a measured
/// time shows up as a diff of the committed file.
pub const TIME_AGREEMENT_FACTOR: f64 = 3.0;

/// Is `measured_s` within [`TIME_AGREEMENT_FACTOR`] of `planned_s`, either way?
pub fn time_agrees(measured_s: f64, planned_s: f64) -> bool {
    measured_s <= planned_s * TIME_AGREEMENT_FACTOR && measured_s >= planned_s / TIME_AGREEMENT_FACTOR
}

/// Speedup of COSMA over the fastest other algorithm (> 1 means COSMA wins).
pub fn cosma_speedup(rows: &[AlgoRow]) -> Option<f64> {
    let cosma = rows.iter().find(|r| r.algo == AlgoId::Cosma)?;
    let best_other = rows
        .iter()
        .filter(|r| r.algo != AlgoId::Cosma)
        .map(|r| r.time_s)
        .fold(f64::INFINITY, f64::min);
    best_other.is_finite().then(|| best_other / cosma.time_s)
}

/// Geometric mean helper.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Quartile summary (min, q1, median, q3, max) of a sample.
pub fn five_numbers(xs: &[f64]) -> [f64; 5] {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let q = |f: f64| -> f64 {
        if v.is_empty() {
            return f64::NAN;
        }
        let idx = f * (v.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (idx - lo as f64)
    };
    [q(0.0), q(0.25), q(0.5), q(0.75), q(1.0)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma::plan::DistPlan;

    /// Two scheduler threads: the rows' measurement is the one-thread
    /// default's, bit for bit.
    const SHARDED: ExecBackend = ExecBackend::Event { threads: 2 };

    fn model() -> CostModel {
        CostModel::piz_daint_two_sided()
    }

    /// `prob`'s own machine: its ranks and advisory `S`, flat, overlap on.
    fn machine(prob: &MmmProblem) -> MachineSpec {
        MachineSpec::new(prob.p, prob.mem_words, model())
    }

    /// Every registry algorithm executed on `machine`.
    fn execute_every(prob: &MmmProblem, machine: &MachineSpec, backend: ExecBackend) -> Vec<ExecutedRow> {
        execute(baselines::registry().all(), prob, machine, backend)
    }

    #[test]
    fn run_all_produces_all_four_on_friendly_p() {
        let prob = MmmProblem::new(4096, 4096, 4096, 1024, 1 << 22);
        let rows = run_all(&prob, &model());
        let algos: Vec<AlgoId> = rows.iter().map(|r| r.algo).collect();
        assert_eq!(algos, AlgoId::ALL);
        for r in &rows {
            assert!(r.mean_mb > 0.0 && r.time_s > 0.0 && r.percent_peak > 0.0, "{r:?}");
            assert!(r.time_no_overlap_s >= r.time_s);
        }
    }

    /// What [`score`] streams, materialised: the plan on [`planned_ranks`]
    /// collected, padded with idle ranks and simulated — the oracle the
    /// streamed sweep replaced.
    fn materialised(algo: &dyn MmmAlgorithm, prob: &MmmProblem, model: &CostModel) -> (DistPlan, AlgoRow) {
        let used = planned_ranks(algo, prob).unwrap();
        let sub = MmmProblem::new(prob.m, prob.n, prob.k, used, prob.mem_words);
        let plan = DistPlan::collect(|sink| algo.plan_ranks(&sub, model, sink))
            .unwrap()
            .padded_to(prob.p);
        let (with, without) = (plan.simulate(model, true), plan.simulate(model, false));
        let reported = if plan.algo == AlgoId::Cosma {
            &with
        } else {
            &without
        };
        let busiest = plan.ranks.iter().max_by_key(|r| r.comm_words()).unwrap();
        let row = AlgoRow {
            algo: plan.algo,
            p: plan.problem.p,
            mean_mb: words_to_mb(plan.mean_comm_words()),
            time_s: reported.time_s,
            time_no_overlap_s: without.time_s,
            percent_peak: reported.percent_peak,
            grid: plan.grid,
            active: plan.active_ranks(),
            critical: [with.critical, without.critical],
            busiest_words: [
                busiest.rounds.iter().map(|r| r.a_words + r.b_words).sum(),
                busiest.rounds.iter().map(|r| r.c_words).sum(),
            ],
        };
        (plan, row)
    }

    #[test]
    fn streamed_rows_equal_the_materialised_plan() {
        let bits = |r: &AlgoRow| {
            let time = |t: &TimeBreakdown| [t.compute_s, t.exposed_comm_s, t.total_comm_s].map(f64::to_bits);
            (
                (r.algo, r.p, r.grid, r.active, r.busiest_words),
                [r.mean_mb, r.time_s, r.time_no_overlap_s, r.percent_peak].map(f64::to_bits),
                r.critical.each_ref().map(time),
            )
        };
        let m = model();
        let fat = m.with_contention(contention(256, &Topology::congested_fat_tree()));
        let reg = baselines::registry();
        let square = |p| MmmProblem::new(16_384, 16_384, 16_384, p, crate::scenarios::S_WORDS);
        let flat = |p| MmmProblem::new(131_072, 131_072, 512, p, crate::scenarios::S_WORDS);
        // Padded CARMA and 2.5D (the paper's §1 cases), unpadded COSMA and
        // SUMMA, under the flat and a contended model alike.
        for (id, prob, padded) in [
            (AlgoId::Carma, square(216), true),
            (AlgoId::Carma, square(3456), true),
            (AlgoId::P25d, flat(128), true),
            (AlgoId::P25d, flat(512), true),
            (AlgoId::Cosma, square(1000), false),
            (AlgoId::Summa, square(1000), false),
        ] {
            let algo = reg.by_id(id).unwrap();
            let streamed = score(algo.as_ref(), &prob, &[m, fat]).unwrap();
            for (row, model) in streamed.iter().zip([m, fat]) {
                let (plan, want) = materialised(algo.as_ref(), &prob, &model);
                assert_eq!(plan.validate_coverage(), Ok(()), "{id} p={}", prob.p);
                assert_eq!(row.active < prob.p, padded, "{id} p={}: {} active", prob.p, row.active);
                assert_eq!(bits(row), bits(&want), "{id} p={}", prob.p);
            }
        }
    }

    #[test]
    fn carma_padding_on_non_power_of_two() {
        let prob = MmmProblem::new(2048, 2048, 2048, 1500, 1 << 22);
        let carma = baselines::registry().by_id(AlgoId::Carma).unwrap();
        let row = score(carma.as_ref(), &prob, &[model()]).unwrap().remove(0);
        assert_eq!((row.p, row.active), (1500, 1024));
        assert_eq!(materialised(carma.as_ref(), &prob, &model()).0.validate_coverage(), Ok(()));
    }

    #[test]
    fn executed_rows_certify_plans_at_any_worker_count() {
        let prob = MmmProblem::new(48, 48, 48, 16, 1 << 14);
        for backend in [
            ExecBackend::Event { threads: 16 },
            ExecBackend::Event { threads: 3 },
        ] {
            let rows = execute_every(&prob, &machine(&prob), backend);
            assert!(!rows.is_empty(), "{backend}: no algorithm executed");
            for r in &rows {
                assert!(r.exact, "{backend}: {} measured traffic deviates from plan", r.algo);
                assert!((r.planned_mb - r.measured_mb).abs() < 1e-12, "{backend}: {}", r.algo);
            }
        }
    }

    #[test]
    fn executed_rows_are_labelled_by_the_pinned_backend() {
        // The bench-smoke record keys rows by this label, so it must be the
        // pinned spelling, never a machine-dependent thread count.
        let prob = MmmProblem::new(32, 32, 32, 4, 1 << 14);
        for (backend, label) in [
            (ExecBackend::event(), "event"),
            (ExecBackend::Event { threads: 2 }, "event(2)"),
            (ExecBackend::Event { threads: 4 }, "event(4)"),
        ] {
            let rows = execute_every(&prob, &machine(&prob), backend);
            assert!(!rows.is_empty());
            assert!(rows.iter().all(|r| r.backend.to_string() == label), "{label}");
        }
    }

    #[test]
    fn budgeted_rows_stay_within_s_on_a_memory_starved_problem() {
        // S below the pure-BFS CARMA leaf footprint: the machine enforces S
        // as a hard limit, and DFS-streaming CARMA completes within it with
        // plan-exact traffic.
        let prob = MmmProblem::new(64, 64, 64, 8, 1 << 10);
        assert!(baselines::carma::dfs_leaf_count(&prob) > 1);
        let rows = execute_every(&prob, &machine(&prob).enforcing_memory(), SHARDED);
        let carma = rows.iter().find(|r| r.algo == AlgoId::Carma).expect("CARMA runs budgeted");
        assert!(carma.exact, "budgeted CARMA traffic deviates from plan");
        assert!(carma.within_mem && carma.peak_mem_words <= 1 << 10, "{carma:?}");
    }

    #[test]
    fn executed_rows_report_peak_memory() {
        let prob = MmmProblem::new(48, 48, 48, 16, 1 << 14);
        for row in execute_every(&prob, &machine(&prob), SHARDED) {
            assert!(row.peak_mem_words > 0, "{}: no memory tracked", row.algo);
            assert!(row.within_mem, "{}: exceeded ample S", row.algo);
        }
    }

    #[test]
    fn executed_rows_carry_arena_counters() {
        let prob = MmmProblem::new(48, 48, 48, 16, 1 << 14);
        let (a, b) = (Matrix::deterministic(48, 48, 61), Matrix::deterministic(48, 48, 62));
        let spec = machine(&prob);
        for algo in baselines::registry().all() {
            let plan = algo.plan(&prob, &model()).unwrap();
            let pool = execute_boxed(algo.as_ref(), &plan, &spec, SHARDED, &a, &b).unwrap().pool;
            // 2.5D (one layer here) moves its panels by value and never
            // touches the arena; the other three lease every payload.
            let leases = algo.id() != AlgoId::P25d;
            assert_eq!(pool.allocs() > 0, leases, "{}: {} allocs", algo.id(), pool.allocs());
            assert!((0.0..=1.0).contains(&pool.hit_rate()), "{}: hit rate {}", algo.id(), pool.hit_rate());
        }
    }

    #[test]
    fn executed_rows_measure_time_on_the_event_backend() {
        let prob = MmmProblem::new(48, 48, 48, 16, 1 << 14);
        let one = execute_every(&prob, &machine(&prob), ExecBackend::event());
        for row in &one {
            assert!(row.measured_time_s > 0.0, "{}: no virtual time measured", row.algo);
            assert!(row.measured_percent_peak > 0.0, "{}", row.algo);
            assert!(row.planned_time_s > 0.0, "{}", row.algo);
        }
        // Two scheduler threads measure the same time, bit for bit.
        for (two, one) in execute_every(&prob, &machine(&prob), SHARDED).iter().zip(&one) {
            assert_eq!(two.measured_time_s.to_bits(), one.measured_time_s.to_bits(), "{}", one.algo);
        }
    }

    #[test]
    fn timed_rows_agree_with_the_plan_within_the_stated_tolerance() {
        // The in-test form of the bench-smoke time gate: measured virtual
        // time within TIME_AGREEMENT_FACTOR of DistPlan::simulate, overlap
        // on never slower than off, on the whole comparison matrix.
        let prob = MmmProblem::new(64, 64, 64, 16, 1 << 14);
        let [on, off] = [true, false].map(|overlap| {
            execute(
                baselines::registry().all(),
                &prob,
                &machine(&prob).with_overlap(overlap),
                ExecBackend::event(),
            )
        });
        assert_eq!(on.len(), AlgoId::ALL.len(), "all compared algorithms must time");
        for (on, off) in on.iter().zip(&off) {
            assert!(
                time_agrees(on.measured_time_s, on.planned_time_s)
                    && time_agrees(off.measured_time_s, off.planned_time_s)
                    && on.measured_time_s <= off.measured_time_s * (1.0 + 1e-9),
                "{}: measured {:.3e}/{:.3e} s vs planned {:.3e}/{:.3e} s breaks the band",
                on.algo,
                on.measured_time_s,
                off.measured_time_s,
                on.planned_time_s,
                off.planned_time_s
            );
        }
    }

    #[test]
    fn execute_holds_every_row_to_its_plan_on_the_machine_it_is_given() {
        // A contended, scattered machine without overlap, then the same world
        // with S enforced: `execute` asserts every product against `matmul`,
        // and every row is plan-exact and timed under the machine's own
        // overlap mode.
        let prob = crate::scenarios::exec_problem(cosma::problem::Shape::Square, 64);
        let contended = machine(&prob)
            .with_topology(Topology::congested_fat_tree())
            .with_placement(Placement::RoundRobin)
            .with_overlap(false);
        for spec in [contended, machine(&prob).enforcing_memory()] {
            let rows = execute(baselines::registry().all(), &prob, &spec, ExecBackend::event());
            assert_eq!(rows.len(), AlgoId::ALL.len(), "{spec:?}");
            for (row, algo) in rows.iter().zip(baselines::registry().all()) {
                let plan = algo.plan(&prob, &spec.cost).unwrap();
                assert!(row.exact && row.within_mem, "{}: {row:?}", row.algo);
                assert_eq!(
                    row.planned_time_s,
                    plan.simulate(&spec.cost, spec.overlap).time_s,
                    "{}",
                    row.algo
                );
                assert!(row.measured_time_s > 0.0, "{}", row.algo);
            }
        }
    }

    #[test]
    fn contended_rows_flat_is_bitwise_run_all_and_fat_tree_costs_time() {
        let prob = MmmProblem::new(4096, 4096, 4096, 256, 1 << 22);
        let m = model();
        let flat = run_all(&prob, &m);
        let under = |topology: &Topology| m.with_contention(contention(prob.p, topology));
        let scored: Vec<Vec<AlgoRow>> = baselines::registry()
            .all()
            .iter()
            .map(|a| {
                score(a.as_ref(), &prob, &[m, under(&Topology::Flat), under(&Topology::congested_fat_tree())])
                    .unwrap()
            })
            .collect();
        let (same, fat): (Vec<&AlgoRow>, Vec<&AlgoRow>) =
            scored.iter().map(|rows| (&rows[1], &rows[2])).unzip();
        assert_eq!(flat.len(), same.len());
        assert_eq!(flat.len(), fat.len());
        for ((a, b), c) in flat.iter().zip(same).zip(fat) {
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits(), "{}: flat must be bitwise", a.algo);
            assert_eq!(a.time_no_overlap_s.to_bits(), b.time_no_overlap_s.to_bits(), "{}", a.algo);
            assert!(c.time_s > a.time_s, "{}: contention must cost time", a.algo);
            assert_eq!(a.mean_mb, c.mean_mb, "{}: volume is topology-blind", a.algo);
        }
    }

    #[test]
    fn cosma_speedup_positive() {
        let prob = MmmProblem::new(4096, 4096, 4096, 512, 1 << 20);
        let rows = run_all(&prob, &model());
        let s = cosma_speedup(&rows).unwrap();
        assert!(s > 0.5, "speedup {s}");
    }

    #[test]
    fn geomean_and_quartiles() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        let f = five_numbers(&[3.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(f, [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(geomean(&[]).is_nan());
    }
}
