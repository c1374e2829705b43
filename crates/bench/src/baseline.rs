//! The committed record, `results/bench-smoke-baseline.csv`: everything the
//! `bench-smoke` gate executes and plans, as one table in one schema — the
//! gate's own executed worlds, and the paper's evaluation (§8's twelve
//! scenarios; §9's Figures 1, 3, 5–14 and Tables 3–4) as sections of it.
//!
//! All of it is deterministic down to the bit — plans, traffic, peak memory,
//! planned and measured virtual time, the fault-recovery and serving
//! verdicts — so the record has no host-dependent cell. [`Record::full`]
//! rebuilds it, [`Record::contracts`] checks what must hold whatever the
//! committed file says (the paper's claims among them, each worded as it
//! holds here), and [`diff`] explains any byte by which the rendered text
//! differs from the committed one. Floats are written with [`exact`], so the
//! text pins their bits. Speedups, shares and ratios are not stored: the
//! render derives them ([`Record::section`]) and the contracts compute
//! them. A change that moves a plan, traffic or virtual time re-records the
//! file (`experiments bench-smoke-baseline`) in the same commit and says
//! why. Host time is measured by `benchmark/`, paired and bounded, and
//! nowhere here.

use std::path::PathBuf;
use std::sync::Arc;

use baselines::p25d::Geometry25;
use baselines::P25dAlgorithm;
use cosma::api::{AlgoId, MmmAlgorithm};
use cosma::grid::FitResult;
use cosma::problem::{MmmProblem, Shape};
use mpsim::cost::CostModel;
use mpsim::exec::ExecBackend;
use mpsim::machine::{MachineSpec, Placement, Topology};

use crate::output::{fmt, results_dir, Table};
use crate::runner::{
    self, cosma_speedup, five_numbers, geomean, time_agrees, AlgoRow, ExecutedRow, COMPARED,
};
use crate::scenarios::{self, Scenario};
use crate::serve_bench::{self, ServeMetrics};

/// The cell text of a float: 17 significant digits, enough for
/// `str::parse::<f64>` to recover the exact bits.
pub fn exact(x: f64) -> String {
    format!("{x:.17e}")
}

/// The record's columns. The first six say where and how a run ran — a
/// planned line has no backend — and key its line; the rest are what the
/// run established. `planned MB` and `measured MB` are totals over ranks;
/// `active` counts the ranks a plan does not idle, so `planned MB / active`
/// is the per-rank volume idle padding cannot dilute.
pub const HEADERS: [&str; 18] = [
    "scenario",
    "cores",
    "backend",
    "topology",
    "overlap",
    "algorithm",
    "planned MB",
    "measured MB",
    "exact",
    "peak words",
    "within S",
    "planned ms",
    "measured ms",
    "attempts",
    "degraded",
    "bitwise",
    "active",
    "% peak",
];

/// How many leading [`HEADERS`] key a line.
const KEY_COLS: usize = 6;

/// The file stem of the committed record under `results/`.
const STEM: &str = "bench-smoke-baseline";

/// How far COSMA may trail the best baseline and still count as tied, as a
/// fraction — on the flat (rank-k update) shape only, where the compared
/// plans nearly coincide. Measured worst cases over the sweep's 186 points:
/// MB per active rank 0.011 % above SUMMA's (flat-strong p = 9216,
/// flat-extra p = 16384, where CARMA's too), planned time 0.99983 of the
/// best baseline's (flat-extra p = 16384; below 1 at 11 points on the flat
/// network and 8 on the fat tree). Every other shape holds both claims
/// exactly.
pub const TIE: f64 = 2e-4;

/// Where the committed record lives.
pub fn committed_path() -> PathBuf {
    results_dir().join(STEM).with_extension("csv")
}

/// The committed record's text.
pub fn committed() -> std::io::Result<String> {
    std::fs::read_to_string(committed_path())
}

fn model() -> CostModel {
    CostModel::piz_daint_two_sided()
}

/// The machine the record executes `prob` on: `prob`'s ranks and `S`
/// (advisory) under [`model`], flat, overlap on.
fn machine(prob: &MmmProblem) -> MachineSpec {
    MachineSpec::new(prob.p, prob.mem_words, model())
}

/// What one served job reported.
#[derive(Debug, Clone)]
pub struct ServedRun {
    /// The world size the job completed on.
    pub p: usize,
    /// The algorithm the auto-planner selected for that world.
    pub algo: AlgoId,
    /// Words received across ranks, MB.
    pub measured_mb: f64,
    /// The measured virtual clock, ms.
    pub measured_ms: f64,
    /// Executions the job consumed.
    pub attempts: usize,
    /// Whether it completed on fewer ranks than requested.
    pub degraded: bool,
}

impl ServedRun {
    /// `None` when the job failed.
    fn of(result: &serve::JobResult) -> Option<ServedRun> {
        let out = result.outcome.as_ref().ok()?;
        Some(ServedRun {
            p: out.plan.problem.p,
            algo: out.selection.algo,
            measured_mb: runner::words_to_mb(mpsim::stats::aggregate::total_volume(&out.report.stats) as f64),
            measured_ms: out.report.measured_time_s() * 1e3,
            attempts: result.attempts,
            degraded: result.degraded,
        })
    }
}

/// The `faults` section: a 64-rank world (square 96³; the auto-planner picks
/// CARMA at p = 64) served under seeded fault plans of increasing severity,
/// each once with a single attempt (completion means the run happened to
/// survive its faults) and once under `RetryPolicy::attempts(3)`, where the
/// driver catches the typed `RankFailed`, re-fits the problem to the
/// surviving p′ and re-runs clean.
#[derive(Debug, Clone)]
pub struct Faults {
    /// The fault-free reference run.
    pub clean: ServedRun,
    /// Per plan — ranks it kills, seed — the job served with one attempt
    /// and with three (`None` when it failed).
    pub runs: Vec<(usize, u64, [Option<ServedRun>; 2])>,
}

/// The `faults` section's severity levels: ranks each plan kills.
const FAULT_KILLS: [usize; 6] = [0, 1, 2, 4, 8, 16];

/// Run the `faults` section; panics when the fault-free reference run
/// fails — it cannot.
fn faults() -> Faults {
    use densemat::matrix::Matrix;
    use serve::{FaultPlan, JobRequest, RetryPolicy, Server, ServerConfig};

    let prob = MmmProblem::new(96, 96, 96, 64, 1 << 14);
    let a = Matrix::deterministic(prob.m, prob.k, 21);
    let b = Matrix::deterministic(prob.k, prob.n, 22);
    let server = Server::new(baselines::registry(), ServerConfig::default()).expect("default config");
    let job = |id: u64| JobRequest::new(id, prob, a.clone(), b.clone());
    let clean = server.run_sync(job(0).backend(ExecBackend::event()));
    let report = &clean.outcome.as_ref().expect("the clean reference run is feasible").report;
    // Fault horizons derive from the clean clock (half its makespan), so
    // the drawn deaths land mid-run whatever the cost model says.
    let horizon = report.measured_time_s() / 2.0;
    let mut id = 0;
    let mut serve = |plan: FaultPlan, attempts: usize| {
        id += 1;
        ServedRun::of(&server.run_sync(job(id).faults(plan).retry(RetryPolicy::attempts(attempts))))
    };
    let mut runs = Vec::new();
    for kills in FAULT_KILLS {
        for seed in 0..8 {
            let plan = FaultPlan::new(0xFA57 + 101 * seed).kill_exactly(kills, horizon);
            runs.push((kills, seed, [serve(plan, 1), serve(plan, 3)]));
        }
    }
    let _ = server.shutdown();
    Faults {
        clean: ServedRun::of(&clean).expect("checked above"),
        runs,
    }
}

/// Do `gemm_packed` (the default local kernel) and `gemm_naive` agree bit
/// for bit at 320³? Small-integer entries: every product and partial sum is
/// exact, so the comparison cannot hide behind rounding.
pub fn kernel_bitwise() -> bool {
    use densemat::gemm::{gemm_naive, gemm_packed};
    use densemat::matrix::Matrix;
    let n = 320;
    let ints = |s: usize| Matrix::from_fn(n, n, move |i, j| ((i * 31 + j * 7 + s) % 8 + 1) as f64);
    let (a, b) = (ints(1), ints(2));
    let mut naive = Matrix::zeros(n, n);
    gemm_naive(&a, &b, &mut naive);
    let mut packed = Matrix::zeros(n, n);
    gemm_packed(&a, &b, &mut packed);
    naive
        .as_slice()
        .iter()
        .zip(packed.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One point of the paper's sweep: a scenario at a core count, the compared
/// algorithms' plans scored on the flat network and — at the topology
/// table's counts — under the congested fat tree.
#[derive(Debug, Clone)]
pub struct Point {
    /// The scenario.
    pub scenario: Scenario,
    /// Cores.
    pub p: usize,
    /// The rows on the flat network.
    pub flat: Vec<AlgoRow>,
    /// The same plans priced under the congested fat tree; empty off the
    /// topology table's core counts.
    pub fat: Vec<AlgoRow>,
}

/// One algorithm's timed world: an executable shape run on the event
/// backend under a topology and placement, once with overlap and once
/// without — the paper's Figures 8–11 closed into a measured loop.
#[derive(Debug, Clone)]
pub struct Timed {
    /// `<shape>-timed`.
    pub scenario: &'static str,
    /// `flat`, `fat-tree` (block placement) or `fat-tree-rr` (round-robin).
    pub topology: &'static str,
    /// The run with communication–computation overlap.
    pub on: ExecutedRow,
    /// The run without.
    pub off: ExecutedRow,
}

/// The experiment ids whose output is a section of the record — every
/// deterministic experiment of the paper's evaluation — and what each
/// reproduces.
pub const SECTIONS: [(&str, &str); 20] = [
    ("fig1", "% of peak over every scenario and core count, max and geomean"),
    ("fig3", "COSMA bottom-up vs naive top-down 3D split, p = 8 (paper's example: 17 % less)"),
    ("fig5", "grid fitting at p = 65, delta = 0 vs 3 % (paper: comm -36 % for +1.5 % compute)"),
    ("fig6", "communication volume per active rank, square scenarios"),
    ("fig7", "communication volume per active rank, largeK scenarios"),
    ("fig7m", "communication volume per active rank, largeM scenarios"),
    ("fig7f", "communication volume per active rank, flat scenarios"),
    ("fig8", "% of peak and runtime, square scenarios"),
    ("fig9", "% of peak and runtime, square scenarios"),
    ("fig10", "% of peak and runtime, largeK scenarios"),
    ("fig11", "% of peak and runtime, largeK scenarios"),
    ("fig12", "COSMA time breakdown, overlap on and off"),
    ("fig13", "% of peak distributions, flat and square scenarios"),
    ("fig14", "% of peak distributions, largeK and largeM scenarios"),
    ("table3", "analytic vs planned cost (paper: 0.71x, 1.22x; p^1.5/2, p^4/3/2, 0.75p, O(p))"),
    ("table4", "volume per active rank and COSMA speedup (paper: 1.07 / 2.17 / 12.81)"),
    ("timed", "planned vs measured alpha-beta-gamma time, event backend"),
    ("topo", "table4 on a congested fat tree (paper: 1.07 / 2.17 / 12.81), executed, placement"),
    ("mem-sweep", "executed CARMA, 128^3 at p = 64, under a shrinking memory budget S (§6.2)"),
    ("faults", "a served 96^3 job at p = 64 under injected rank death, recovery by replanning"),
];

/// Figure 12's core counts (strong scaling).
const FIG12_CORES: [usize; 2] = [2048, 18_432];

/// The topology table's executed cross-check: every executable shape at two
/// event-backend world sizes, flat and under the congested fat tree.
const TOPO_WORLDS: [(&str, Shape); 5] = [
    ("square-timed", Shape::Square),
    ("largek-timed", Shape::LargeK),
    ("largem-timed", Shape::LargeM),
    ("flat-timed", Shape::Flat),
    ("irregular-timed", Shape::Irregular),
];
const TOPO_WORLD_CORES: [usize; 2] = [256, 1024];

/// Every core count of the sweep: Figures 6–7's powers of two, Figures
/// 8–11's performance counts and the topology table's whole-node
/// allocations.
fn sweep_counts() -> Vec<usize> {
    let mut counts = [topo_counts(), scenarios::perf_core_counts()].concat();
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// The counts the topology table prices under the congested fat tree too:
/// table4's powers of two and the whole-node allocations.
fn topo_counts() -> Vec<usize> {
    [scenarios::comm_core_counts(), scenarios::allocation_core_counts()].concat()
}

/// The topology table's sweeps: the powers of two (the baselines' best
/// case), realistic whole-node allocations, and both together.
fn topo_sweeps() -> [(&'static str, Vec<usize>); 3] {
    [
        ("power-of-two", scenarios::comm_core_counts()),
        ("whole-node allocations", scenarios::allocation_core_counts()),
        ("all points", topo_counts()),
    ]
}

/// The congested fat tree's contention multiplier at `p`, at
/// [`topo_counts`] only.
fn contention(p: usize) -> Option<f64> {
    topo_counts()
        .contains(&p)
        .then(|| runner::contention(p, &Topology::congested_fat_tree()))
}

/// Plan `algos` at every point of `scenarios` × `counts` (strong scaling
/// from its floor): each (scenario, p, algorithm) streamed once and scored
/// flat and — at [`topo_counts`] — under the congested fat tree.
fn sweep(scenarios: &[Scenario], counts: &[usize], algos: &[Arc<dyn MmmAlgorithm>]) -> Vec<Point> {
    let mut points = Vec::new();
    for sc in scenarios {
        for &p in counts.iter().filter(|&&p| p >= scenarios::strong_scaling_min_cores(sc)) {
            let fat = contention(p).map(|mult| model().with_contention(mult));
            let models: Vec<CostModel> = std::iter::once(model()).chain(fat).collect();
            let mut point = Point {
                scenario: *sc,
                p,
                flat: Vec::new(),
                fat: Vec::new(),
            };
            for algo in algos {
                let mut rows = runner::score(algo.as_ref(), &(sc.problem)(p), &models).into_iter().flatten();
                point.flat.extend(rows.next());
                point.fat.extend(rows.next());
            }
            points.push(point);
        }
    }
    points
}

/// Figure 3: COSMA's bottom-up grid against the naive top-down 3D split —
/// 2.5D forced to the `c = q = 2` cube, measured through the same trait —
/// at p = 8, with memory between the 2D and cubic regimes so the optimal
/// domain is not cubic.
fn fig3() -> Vec<AlgoRow> {
    let prob = MmmProblem::new(4096, 4096, 4096, 8, 3_000_000);
    let naive: Arc<dyn MmmAlgorithm> = Arc::new(P25dAlgorithm::with_geometry(Geometry25 { q: 2, c: 2 }));
    let cosma = runner::registry().by_id(AlgoId::Cosma).expect("registry has COSMA");
    [naive, cosma]
        .iter()
        .map(|algo| {
            runner::score(algo.as_ref(), &prob, &[model()])
                .expect("both plan at p = 8")
                .remove(0)
        })
        .collect()
}

/// Figure 5: COSMA's grid fitting on the square-strong problem at p = 65,
/// with no idle budget and with the paper's δ = 3 %.
fn fits() -> Vec<(f64, FitResult)> {
    let prob = MmmProblem::new(16_384, 16_384, 16_384, 65, scenarios::S_WORDS);
    [0.0, 0.03]
        .map(|delta| (delta, cosma::grid::fit_ranks(&prob, delta, &model()).expect("a 65-rank square fits")))
        .to_vec()
}

/// The flops per rank of a fit's local brick.
fn flops(f: &FitResult) -> f64 {
    2.0 * f.local.iter().map(|&l| l as f64).product::<f64>()
}

/// Table 3's problems: the general case, whose plans are measured too, and
/// two special cases of the analytic formulas, each with the unit its
/// costs are read in.
fn table3_problems() -> [(&'static str, MmmProblem, f64); 3] {
    let (n, p, tall_p) = (8192, 1024, 4096usize);
    let k = (tall_p as f64).powf(1.5) as usize / 4;
    let s = (2.0 * 64.0 * k as f64 / (tall_p as f64).powf(2.0 / 3.0)) as usize;
    let (limited, tall) = (MmmProblem::new(n, n, n, p, 2 * n * n / p), MmmProblem::new(64, 64, k, tall_p, s));
    let two_d = 2.0 * (n * n) as f64 / (p as f64).sqrt();
    [
        ("general, 8192^3, p = 512, S = 2^22", MmmProblem::new(8192, 8192, 8192, 512, 1 << 22), 1.0),
        ("limited memory, S = 2n^2/p, n = 8192, p = 1024: x 2n^2/sqrt(p)", limited, two_d),
        ("tall, extra memory, m = n = sqrt(p), k = p^1.5/4, p = 4096: x p", tall, tall_p as f64),
    ]
}

/// The analytic per-rank cost of Table 3 for `algo` on `prob`.
fn analytic_q(algo: AlgoId, prob: &MmmProblem) -> f64 {
    match algo {
        AlgoId::Summa => baselines::analysis::summa_io(prob),
        AlgoId::P25d => baselines::analysis::p25d_io(prob),
        AlgoId::Carma => baselines::analysis::carma_io(prob),
        _ => cosma::schedule::io_cost(prob),
    }
}

/// Execute, each once, the timed worlds the sections in `ids` show.
fn timed(ids: &[&str]) -> Vec<Timed> {
    let mut worlds = Vec::new();
    let mut add = |world| {
        if !worlds.contains(&world) {
            worlds.push(world);
        }
    };
    if ids.contains(&"timed") {
        for p in scenarios::timed_core_counts() {
            add(("square-timed", Shape::Square, p, "flat"));
        }
    }
    if ids.contains(&"topo") {
        for ((scenario, shape), p) in TOPO_WORLDS.into_iter().flat_map(|w| TOPO_WORLD_CORES.map(|p| (w, p))) {
            add((scenario, shape, p, "flat"));
            add((scenario, shape, p, "fat-tree"));
        }
        add(("square-timed", Shape::Square, 1024, "fat-tree-rr"));
    }
    let (fat, compared) = (Topology::congested_fat_tree(), runner::compared_algorithms());
    let mut out = Vec::new();
    for (scenario, shape, p, topology) in worlds {
        let (net, placement) = match topology {
            "flat" => (Topology::Flat, Placement::Block),
            "fat-tree" => (fat.clone(), Placement::Block),
            _ => (fat.clone(), Placement::RoundRobin),
        };
        let prob = scenarios::exec_problem(shape, p);
        let spec = machine(&prob).with_topology(net).with_placement(placement);
        let [on, off] = [true, false].map(|overlap| {
            let spec = spec.clone().with_overlap(overlap);
            runner::execute(&compared, &prob, &spec, ExecBackend::event())
        });
        out.extend(on.into_iter().zip(off).map(|(on, off)| Timed {
            scenario,
            topology,
            on,
            off,
        }));
    }
    out
}

/// The `mem-sweep` section: CARMA on the memory-starved 128³ problem at
/// p = 64, executed with every budget of [`scenarios::mem_sweep_budgets`]
/// enforced as a hard per-rank limit.
fn mem_sweep() -> Vec<(String, ExecutedRow)> {
    let carma = [runner::registry().by_id(AlgoId::Carma).expect("registry has CARMA")];
    scenarios::mem_sweep_budgets()
        .into_iter()
        .map(|s| {
            let prob = scenarios::mem_starved_problem(64, s);
            let mut rows =
                runner::execute(&carma, &prob, &machine(&prob).enforcing_memory(), ExecBackend::event());
            let row = rows.pop().unwrap_or_else(|| panic!("CARMA must execute budgeted at S = {s}"));
            (format!("mem-sweep-{s}"), row)
        })
        .collect()
}

/// The budget of a `mem-sweep` line's scenario, and CARMA's sequential DFS
/// leaves under it.
fn budget(scenario: &str) -> Option<(usize, usize)> {
    let s = scenario.strip_prefix("mem-sweep-")?.parse().ok()?;
    Some((s, baselines::carma::dfs_leaf_count(&scenarios::mem_starved_problem(64, s))))
}

/// One line of the record. `None` renders as `-`: not established by that
/// run.
#[derive(Default)]
struct Line {
    scenario: String,
    cores: Option<usize>,
    backend: Option<ExecBackend>,
    topology: Option<&'static str>,
    overlap: Option<bool>,
    algorithm: String,
    planned_mb: Option<f64>,
    measured_mb: Option<f64>,
    exact: Option<bool>,
    peak_words: Option<u64>,
    within_s: Option<bool>,
    planned_ms: Option<f64>,
    measured_ms: Option<f64>,
    attempts: Option<usize>,
    degraded: Option<bool>,
    bitwise: Option<bool>,
    active: Option<usize>,
    percent_peak: Option<f64>,
}

impl Line {
    /// A run on `backend` under the machine defaults: flat topology,
    /// overlap on.
    fn on(backend: ExecBackend, scenario: &str, algorithm: String) -> Line {
        Line {
            scenario: scenario.into(),
            backend: Some(backend),
            topology: Some("flat"),
            overlap: Some(true),
            algorithm,
            ..Line::default()
        }
    }

    fn served(scenario: &str, run: &ServedRun) -> Line {
        Line {
            cores: Some(run.p),
            measured_mb: Some(run.measured_mb),
            measured_ms: Some(run.measured_ms),
            attempts: Some(run.attempts),
            degraded: Some(run.degraded),
            ..Line::on(ExecBackend::event(), scenario, run.algo.to_string())
        }
    }

    /// The cells in [`HEADERS`] order.
    fn cells(&self, float: fn(f64) -> String) -> Vec<String> {
        fn cell<T>(x: Option<T>, show: impl Fn(T) -> String) -> String {
            x.map_or_else(|| "-".into(), show)
        }
        let flag = |b: bool| if b { "yes" } else { "NO" }.to_string();
        vec![
            self.scenario.clone(),
            cell(self.cores, |p| p.to_string()),
            cell(self.backend, |b| b.to_string()),
            cell(self.topology, str::to_string),
            cell(self.overlap, |on| if on { "on" } else { "off" }.to_string()),
            self.algorithm.clone(),
            cell(self.planned_mb, float),
            cell(self.measured_mb, float),
            cell(self.exact, flag),
            cell(self.peak_words, |w| w.to_string()),
            cell(self.within_s, flag),
            cell(self.planned_ms, float),
            cell(self.measured_ms, float),
            cell(self.attempts, |n| n.to_string()),
            cell(self.degraded, flag),
            cell(self.bitwise, flag),
            cell(self.active, |n| n.to_string()),
            cell(self.percent_peak, float),
        ]
    }
}

fn find(rows: &[AlgoRow], algo: AlgoId) -> Option<&AlgoRow> {
    rows.iter().find(|r| r.algo == algo)
}

/// `a > b`, or one of them is NaN: a summary without samples claims
/// nothing.
fn above(a: f64, b: f64) -> bool {
    a > b || a.is_nan() || b.is_nan()
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

/// COSMA's speedups as the derived values of a summary.
fn spread(speedups: &[f64]) -> [(&'static str, f64); 3] {
    [
        ("speedup min", speedups.iter().copied().fold(f64::NAN, f64::min)),
        ("speedup geomean", geomean(speedups)),
        ("speedup max", max(speedups)),
    ]
}

/// One derived line: what the values are of, then the values, named —
/// whole numbers as such, the rest rounded.
fn show(label: impl std::fmt::Display, values: &[(&str, f64)]) -> String {
    let cell = |x: f64| {
        if x.fract() == 0.0 {
            format!("{x}")
        } else {
            fmt(x, 4)
        }
    };
    let values: Vec<String> = values.iter().map(|(name, x)| format!("{name} {}", cell(*x))).collect();
    format!("{label}: {}", values.join(", "))
}

/// The record in typed form; [`Record::table`] is its one schema.
#[derive(Default)]
pub struct Record {
    /// Executed rows by scenario name: plan vs measured traffic, memory and
    /// time (flat topology, overlap on) — the gate's worlds and `mem-sweep`.
    pub executed: Vec<(String, ExecutedRow)>,
    /// Executed timed worlds: `timed`, and `topo`'s cross-check.
    pub timed: Vec<Timed>,
    /// The serve section: a 64-job mixed stream, of which the record keeps
    /// only what repeats exactly (concurrent ≡ serial, the selected
    /// algorithms).
    pub serve: Option<ServeMetrics>,
    /// [`kernel_bitwise`].
    pub kernel_bitwise: Option<bool>,
    /// The paper's sweep.
    pub sweep: Vec<Point>,
    /// Figure 3's plans: the top-down 3D split, then COSMA's.
    pub fig3: Vec<AlgoRow>,
    /// Figure 5's two grid fits, `(δ, fit)`.
    pub fits: Vec<(f64, FitResult)>,
    /// Table 3's general case, planned.
    pub table3: Vec<AlgoRow>,
    /// The `faults` section.
    pub faults: Option<Faults>,
}

impl Record {
    /// Every registry algorithm on the executable square problem
    /// ([`scenarios::exec_problem`]) at `p`.
    pub fn square(p: usize, backend: ExecBackend) -> Vec<(String, ExecutedRow)> {
        let prob = scenarios::exec_problem(Shape::Square, p);
        let rows = runner::execute(runner::registry().all(), &prob, &machine(&prob), backend);
        rows.into_iter().map(|r| ("square".into(), r)).collect()
    }

    /// The memory-starved world with S enforced as a hard budget, so only
    /// memory-honest plans run.
    pub fn square_tight(backend: ExecBackend) -> Vec<(String, ExecutedRow)> {
        let prob = scenarios::mem_starved_problem(64, 1 << 10);
        let rows =
            runner::execute(runner::registry().all(), &prob, &machine(&prob).enforcing_memory(), backend);
        rows.into_iter().map(|r| ("square-tight".into(), r)).collect()
    }

    /// The whole record: the gate's worlds — a small and a large world, an
    /// enforced memory budget, one, two and four scheduler regions, serving
    /// and the local kernel — and every section of [`SECTIONS`], fault
    /// recovery (`faults`) among them.
    pub fn full() -> Record {
        // A fixed thread count keeps the row keys stable across machines.
        let event = ExecBackend::event();
        let mut executed = Vec::new();
        for (p, backend) in [
            (64, event),
            (512, event),
            (1024, ExecBackend::Event { threads: 2 }),
            (1024, event),
        ] {
            executed.extend(Record::square(p, backend));
        }
        executed.extend(Record::square_tight(event));
        // The large-world shape at a CI-sized world, as one scheduler region
        // and as four: `contracts` holds the pair bitwise equal.
        let cosma = runner::registry().by_id(AlgoId::Cosma).expect("registry has COSMA");
        let xxl = scenarios::exec_xl_problem(4096);
        for backend in [ExecBackend::event(), ExecBackend::Event { threads: 4 }] {
            let rows = runner::execute(std::slice::from_ref(&cosma), &xxl, &machine(&xxl), backend);
            executed.extend(rows.into_iter().map(|r| ("square-xxl".into(), r)));
        }
        let mut record = Record {
            executed,
            serve: Some(serve_bench::measure(64)),
            kernel_bitwise: Some(kernel_bitwise()),
            ..Record::default()
        };
        record.add_sections(&SECTIONS.map(|(id, _)| id));
        record
    }

    /// Build what the [`SECTIONS`] in `ids` show, each part once.
    pub fn add_sections(&mut self, ids: &[&str]) {
        let wants = |of: &[&str]| of.iter().any(|id| ids.contains(id));
        if ids.iter().any(|id| sweep_view(id).is_some()) || wants(&["fig1", "fig12", "table4", "topo"]) {
            self.sweep = sweep(&scenarios::all(), &sweep_counts(), &runner::compared_algorithms());
        }
        if wants(&["fig3"]) {
            self.fig3 = fig3();
        }
        if wants(&["fig5"]) {
            self.fits = fits();
        }
        if wants(&["table3"]) {
            self.table3 = runner::run_all(&table3_problems()[0].1, &model());
        }
        self.timed.extend(timed(ids));
        if wants(&["mem-sweep"]) {
            self.executed.extend(mem_sweep());
        }
        if wants(&["faults"]) {
            self.faults = Some(faults());
        }
    }

    fn lines(&self) -> Vec<Line> {
        let mut out = Vec::new();
        for (scenario, r) in &self.executed {
            out.push(Line {
                cores: Some(r.p),
                planned_mb: Some(r.planned_mb),
                measured_mb: Some(r.measured_mb),
                exact: Some(r.exact),
                peak_words: Some(r.peak_mem_words),
                within_s: Some(r.within_mem),
                planned_ms: Some(r.planned_time_s * 1e3),
                measured_ms: Some(r.measured_time_s * 1e3),
                ..Line::on(r.backend, scenario, r.algo.to_string())
            });
        }
        for t in &self.timed {
            for (overlap, r) in [(true, &t.on), (false, &t.off)] {
                out.push(Line {
                    cores: Some(r.p),
                    topology: Some(t.topology),
                    overlap: Some(overlap),
                    planned_ms: Some(r.planned_time_s * 1e3),
                    measured_ms: Some(r.measured_time_s * 1e3),
                    ..Line::on(r.backend, t.scenario, r.algo.to_string())
                });
            }
        }
        if let Some(s) = &self.serve {
            let algos: Vec<&str> = s.algos_selected.iter().map(AlgoId::as_str).collect();
            out.push(Line {
                bitwise: Some(s.all_match_serial),
                ..Line::on(s.backend, &format!("serve-stream-{}", s.jobs), algos.join("+"))
            });
        }
        if let Some(bitwise) = self.kernel_bitwise {
            out.push(Line {
                scenario: "gemm-320".into(),
                algorithm: "packed".into(),
                bitwise: Some(bitwise),
                ..Line::default()
            });
        }
        let planned = self
            .sweep
            .iter()
            .flat_map(|pt| {
                let (id, flat, fat) = (pt.scenario.id, pt.flat.iter(), pt.fat.iter());
                flat.map(move |r| (id, "flat", r)).chain(fat.map(move |r| (id, "fat-tree", r)))
            })
            .chain(self.fig3.iter().map(|r| ("fig3", "flat", r)))
            .chain(self.table3.iter().map(|r| ("table3", "flat", r)));
        for (scenario, topology, r) in planned {
            out.push(Line {
                scenario: scenario.into(),
                cores: Some(r.p),
                topology: Some(topology),
                // The reported mode: overlap is COSMA's alone (§7.3).
                overlap: Some(r.algo == AlgoId::Cosma),
                algorithm: r.algo.to_string(),
                planned_mb: Some(r.mean_mb * r.p as f64),
                planned_ms: Some(r.time_s * 1e3),
                active: Some(r.active),
                percent_peak: Some(r.percent_peak),
                ..Line::default()
            });
        }
        if let Some(f) = &self.faults {
            out.push(Line::served("faults-clean", &f.clean));
            for (kills, seed, [once, retried]) in &f.runs {
                let at = format!("faults-{kills}-seed-{seed}");
                out.extend(once.iter().map(|run| Line::served(&format!("{at}-once"), run)));
                out.extend(retried.iter().map(|run| Line::served(&format!("{at}-retried"), run)));
            }
        }
        out
    }

    /// The record as one table, floats through `float`: [`exact`] for the
    /// committed text, a rounding for people.
    pub fn table(&self, float: fn(f64) -> String) -> Table {
        let mut t = Table::new(&HEADERS);
        for line in self.lines() {
            t.row(line.cells(float));
        }
        t
    }

    /// The committed form: CSV text with every float in [`exact`] form.
    pub fn render(&self) -> String {
        self.table(exact).to_csv()
    }

    /// Write [`render`](Self::render) over the committed record.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.table(exact).write_csv(STEM)
    }

    /// What `experiments <id>` prints for a [`SECTIONS`] id: the section's
    /// lines, floats rounded, in the columns they fill (`None` for a summary
    /// that shows none), and what the render derives from its rows, one line
    /// each.
    pub fn section(&self, id: &str) -> (Option<Table>, Vec<String>) {
        let lines: Vec<Vec<String>> = self
            .lines()
            .iter()
            .filter(|l| shows(id, l))
            .map(|l| l.cells(|x| fmt(x, 4)))
            .collect();
        let filled: Vec<usize> = (0..HEADERS.len()).filter(|&c| lines.iter().any(|l| l[c] != "-")).collect();
        let mut t = Table::new(&filled.iter().map(|&c| HEADERS[c]).collect::<Vec<_>>());
        let shown = !lines.is_empty();
        for l in lines {
            t.row(filled.iter().map(|&c| l[c].clone()).collect());
        }
        (shown.then_some(t), self.derived(id))
    }

    /// `algo`'s % of peak at Figures 8–14's flat-network points of the
    /// scenarios `keep` admits.
    fn peaks(&self, algo: AlgoId, keep: impl Fn(&Scenario) -> bool) -> Vec<f64> {
        let perf = scenarios::perf_core_counts();
        self.sweep
            .iter()
            .filter(|pt| keep(&pt.scenario) && perf.contains(&pt.p))
            .filter_map(|pt| find(&pt.flat, algo).map(|r| r.percent_peak))
            .collect()
    }

    /// COSMA's speedups over the best baseline at the points with a core
    /// count in `counts`, flat or on the fat tree.
    fn speedups(&self, fat: bool, counts: &[usize]) -> Vec<f64> {
        self.sweep
            .iter()
            .filter(|pt| counts.contains(&pt.p))
            .filter_map(|pt| cosma_speedup(if fat { &pt.fat } else { &pt.flat }))
            .collect()
    }

    /// table4's rows, and on the fat tree topo's: per scenario, each
    /// algorithm's MB per active rank averaged over the points at `counts`,
    /// and COSMA's speedup spread.
    fn summaries(&self, counts: &[usize], fat: bool) -> Vec<String> {
        let mut out = Vec::new();
        for sc in scenarios::all() {
            let points: Vec<&[AlgoRow]> = self
                .sweep
                .iter()
                .filter(|pt| pt.scenario.id == sc.id && counts.contains(&pt.p))
                .map(|pt| if fat { &pt.fat[..] } else { &pt.flat[..] })
                .filter(|rows| !rows.is_empty())
                .collect();
            let avg = |algo, of: fn(&AlgoRow) -> f64| {
                mean(points.iter().filter_map(|rows| find(rows, algo)).map(of))
            };
            let mut values: Vec<(&str, f64)> =
                COMPARED.iter().map(|&a| (a.as_str(), avg(a, AlgoRow::active_mb))).collect();
            if fat {
                values.push(("cosma s", avg(AlgoId::Cosma, |r| r.time_s)));
            }
            let speedups: Vec<f64> = points.iter().filter_map(|rows| cosma_speedup(rows)).collect();
            values.extend(spread(&speedups));
            if !points.is_empty() {
                out.push(show(format!("{}: MB per active rank, mean over p", sc.id), &values));
            }
        }
        out
    }

    /// The timed world of `topology` matching `t`'s world and algorithm.
    fn twin(&self, t: &Timed, topology: &str) -> Option<&Timed> {
        let same = |o: &&Timed| o.scenario == t.scenario && o.on.p == t.on.p && o.on.algo == t.on.algo;
        self.timed.iter().filter(same).find(|o| o.topology == topology)
    }

    /// What the render derives for section `id` from the typed rows.
    fn derived(&self, id: &str) -> Vec<String> {
        let mut out = Vec::new();
        match id {
            "fig1" => {
                for algo in COMPARED {
                    let xs = self.peaks(algo, |_| true);
                    out.push(show(
                        algo,
                        &[
                            ("max", max(&xs)),
                            ("geomean", geomean(&xs)),
                            ("of", xs.len() as f64),
                        ],
                    ));
                }
            }
            "fig3" => {
                for r in &self.fig3 {
                    let [gm, gn, gk] = r.grid;
                    out.push(show(format!("{} grid {gm}x{gn}x{gk}", r.algo), &[("MB per rank", r.mean_mb)]));
                }
                if let [naive, cosma] = &self.fig3[..] {
                    out.push(show(
                        "COSMA's reduction",
                        &[("%", 100.0 * (1.0 - cosma.mean_mb / naive.mean_mb))],
                    ));
                }
            }
            "fig5" => {
                for (delta, f) in &self.fits {
                    let cosma::grid::Grid3 { gm, gn, gk } = f.grid;
                    let label = format!("delta {}% grid {gm}x{gn}x{gk} on {} ranks", delta * 100.0, f.used);
                    let values = [
                        ("comm words/rank", f.comm_words as f64),
                        ("compute/rank", flops(f)),
                    ];
                    out.push(show(label, &values));
                }
                if let [(_, strict), (_, relaxed)] = &self.fits[..] {
                    let saving = 100.0 * (1.0 - relaxed.comm_words as f64 / strict.comm_words as f64);
                    let penalty = 100.0 * (flops(relaxed) / flops(strict) - 1.0);
                    out.push(show(
                        "delta 3% over 0%",
                        &[("comm saving %", saving), ("compute penalty %", penalty)],
                    ));
                }
            }
            "fig6" | "fig7" | "fig7m" | "fig7f" => {
                let (shapes, counts) = sweep_view(id).expect("a volume figure");
                let shown = |pt: &&Point| {
                    counts.contains(&pt.p) && shapes.iter().any(|s| pt.scenario.id.starts_with(s))
                };
                for pt in self.sweep.iter().filter(shown) {
                    let mut values: Vec<(&str, f64)> =
                        pt.flat.iter().map(|r| (r.algo.as_str(), r.active_mb())).collect();
                    let best = values[1..].iter().map(|&(_, mb)| mb).fold(f64::NAN, f64::min);
                    values.push(("best/cosma", best / values[0].1));
                    out.push(show(format!("{} {}: MB per active rank", pt.scenario.id, pt.p), &values));
                }
            }
            "fig12" => {
                for pt in self.sweep.iter().filter(|pt| shows_fig12(pt.scenario.id, pt.p)) {
                    let Some(r) = find(&pt.flat, AlgoId::Cosma) else {
                        continue;
                    };
                    let [input, output] = r.busiest_words.map(|w| w as f64);
                    for (overlap, crit) in [("no", r.critical[1]), ("yes", r.critical[0])] {
                        // The slowest rank's exposed communication, split by
                        // the busiest rank's input and output words.
                        let (comm, total) = (crit.exposed_comm_s, crit.total_s());
                        let share = |words: f64| 100.0 * comm * (words / (input + output).max(1.0)) / total;
                        let values = [
                            ("input A+B %", share(input)),
                            ("output C %", share(output)),
                            ("compute %", 100.0 * crit.compute_s / total),
                            ("total ms", total * 1e3),
                        ];
                        out.push(show(format!("{} {} overlap {overlap}", pt.scenario.id, pt.p), &values));
                    }
                }
            }
            "fig13" | "fig14" => {
                let (shapes, _) = sweep_view(id).expect("a distribution figure");
                for sc in scenarios::all().iter().filter(|sc| shapes.iter().any(|s| sc.id.starts_with(s))) {
                    for algo in COMPARED {
                        let f = five_numbers(&self.peaks(algo, |x| x.id == sc.id));
                        let values: Vec<_> =
                            ["min", "q1", "median", "q3", "max"].into_iter().zip(f).collect();
                        out.push(show(format!("{} {algo} % peak", sc.id), &values));
                    }
                }
            }
            "table3" => {
                for (i, (what, prob, unit)) in table3_problems().into_iter().enumerate() {
                    for algo in COMPARED {
                        let q = analytic_q(algo, &prob);
                        let mut values = vec![("analytic Q words", q), ("x unit", q / unit)];
                        if let Some(r) = self.table3.iter().find(|r| r.algo == algo).filter(|_| i == 0) {
                            let words = r.mean_mb * 1e6 / 8.0;
                            values.extend([("measured mean words", words), ("measured/analytic", words / q)]);
                        }
                        out.push(show(format!("{what}: {algo}"), &values));
                    }
                }
            }
            "table4" => {
                let comm = scenarios::comm_core_counts();
                out = self.summaries(&comm, false);
                out.push(show("all points: COSMA", &spread(&self.speedups(false, &comm))));
            }
            "timed" => {
                let counts = scenarios::timed_core_counts();
                let square = |t: &&Timed| {
                    t.scenario == "square-timed" && t.topology == "flat" && counts.contains(&t.on.p)
                };
                for Timed { on, off, .. } in self.timed.iter().filter(square) {
                    let values = [
                        ("meas/plan", on.measured_time_s / on.planned_time_s),
                        ("overlap gap %", 100.0 * (1.0 - on.measured_time_s / off.measured_time_s)),
                        ("meas % peak", on.measured_percent_peak),
                    ];
                    out.push(show(format!("{} {}", on.p, on.algo), &values));
                }
            }
            "topo" => {
                for (p, mult) in sweep_counts().into_iter().filter_map(|p| Some((p, contention(p)?))) {
                    out.push(show(format!("contention multiplier at p = {p}"), &[("x beta", mult)]));
                }
                out.extend(self.summaries(&topo_counts(), true));
                for (sweep, counts) in topo_sweeps() {
                    for (topology, fat) in [("flat", false), ("fat-tree", true)] {
                        let speedups = self.speedups(fat, &counts);
                        out.push(show(format!("{sweep}, {topology}: COSMA"), &spread(&speedups)));
                    }
                }
                for (t, base) in
                    self.timed.iter().filter_map(|t| Some((t, self.twin(t, against(t.topology)?)?)))
                {
                    let (ms, ratio) =
                        (t.on.measured_time_s * 1e3, t.on.measured_time_s / base.on.measured_time_s);
                    out.push(show(
                        format!("{} {} {} {}", t.scenario, t.on.p, t.topology, t.on.algo),
                        &[("ms", ms), ("ratio", ratio)],
                    ));
                }
            }
            "mem-sweep" => {
                for (scenario, _) in &self.executed {
                    if let Some((_, leaves)) = budget(scenario) {
                        out.push(show(scenario, &[("dfs leaves", leaves as f64)]));
                    }
                }
            }
            "faults" => {
                if let Some(f) = &self.faults {
                    let clean = f.clean.measured_ms;
                    out.push(show("clean run", &[("virtual ms", clean), ("fault horizon ms", clean / 2.0)]));
                    for kills in FAULT_KILLS {
                        let runs: Vec<_> = f.runs.iter().filter(|r| r.0 == kills).map(|r| &r.2).collect();
                        let done: Vec<&ServedRun> =
                            runs.iter().filter_map(|[_, retried]| retried.as_ref()).collect();
                        let values = [
                            ("survivors", (64 - kills) as f64),
                            ("ok no-retry", runs.iter().filter(|[once, _]| once.is_some()).count() as f64),
                            ("ok retry", done.len() as f64),
                            ("of", runs.len() as f64),
                            ("mean attempts", mean(done.iter().map(|r| r.attempts as f64))),
                            ("degraded", done.iter().filter(|r| r.degraded).count() as f64),
                            ("time overhead", mean(done.iter().map(|r| r.measured_ms / clean))),
                        ];
                        out.push(show(format!("kills {kills}"), &values));
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// The contracts: every claim the record makes — the gate's structural
    /// ones and the paper's, each worded as it holds here — checked on the
    /// typed rows whatever the committed file says. One line per claim that
    /// does not hold, under the key of the line or section it is about (the
    /// values are in the table); empty when all hold.
    pub fn contracts(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut claim = |holds: bool, key: &str, what: &str| {
            if !holds {
                out.push(format!("{key}: does not hold: {what}"));
            }
        };
        let band = format!("within x{} of the plan's", runner::TIME_AGREEMENT_FACTOR);
        for (scenario, r) in &self.executed {
            let key = format!("{scenario}/{}/{}/{}", r.p, r.backend, r.algo);
            claim(r.exact, &key, "every rank's measured traffic equals its plan");
            claim(r.within_mem, &key, "every rank's peak working set fits the per-rank memory S");
            let timed = time_agrees(r.measured_time_s, r.planned_time_s);
            claim(timed, &key, &format!("the measured time is {band}"));
            // Region sharding is an implementation detail of host time: a
            // multi-region row equals its one-region row bit for bit.
            if matches!(r.backend, ExecBackend::Event { threads } if threads > 1) {
                let one = self.executed.iter().find(|(s, o)| {
                    s == scenario && o.p == r.p && o.algo == r.algo && o.backend == ExecBackend::event()
                });
                let same = one.is_some_and(|(_, o)| {
                    o.measured_mb.to_bits() == r.measured_mb.to_bits()
                        && o.measured_time_s.to_bits() == r.measured_time_s.to_bits()
                });
                claim(same, &key, "traffic and time equal the one-region `event` row's bit for bit");
            }
        }
        // mem-sweep: each halving of S past the pure-BFS leaf footprint
        // doubles CARMA's sequential DFS leaves, which re-fetch inputs; peak
        // ≤ S is the executed claim above.
        let budgets: Vec<((usize, usize), &ExecutedRow)> =
            self.executed.iter().filter_map(|(s, r)| Some((budget(s)?, r))).collect();
        for pair in budgets.windows(2) {
            let &[((_, l0), r0), ((s, l1), r1)] = pair else {
                unreachable!("windows of two")
            };
            let leaves = l1 == l0 || (l1 == 2 * l0 && r1.planned_mb > r0.planned_mb);
            claim(
                leaves,
                &format!("mem-sweep-{s}"),
                "a smaller S keeps the DFS leaves, or doubles them with more traffic",
            );
        }
        for t in &self.timed {
            let (on, off) = (&t.on, &t.off);
            let key = format!("{}/{}/{}/{}", t.scenario, on.p, t.topology, on.algo);
            claim(on.exact && off.exact, &key, "every rank's measured traffic equals its plan");
            claim(
                on.within_mem && off.within_mem,
                &key,
                "every rank's peak working set fits the per-rank memory S",
            );
            let agree = [on, off].iter().all(|r| time_agrees(r.measured_time_s, r.planned_time_s));
            claim(t.topology != "flat" || agree, &key, &format!("the measured times are {band}"));
            let helps = on.measured_time_s <= off.measured_time_s * (1.0 + 1e-9);
            claim(helps, &key, "overlap on measures no slower than overlap off");
            let Some(base) = against(t.topology).and_then(|base| self.twin(t, base)) else {
                continue;
            };
            if t.topology == "fat-tree" {
                let slower = on.measured_time_s >= base.on.measured_time_s
                    && off.measured_time_s >= base.off.measured_time_s;
                claim(slower, &key, "the fat tree measures no faster than flat");
            } else {
                claim(
                    on.measured_time_s > base.on.measured_time_s,
                    &key,
                    "round-robin placement measures slower than block",
                );
            }
        }
        if let Some(s) = &self.serve {
            claim(
                s.all_match_serial,
                "serve-stream",
                "concurrent results equal serial execution bit for bit",
            );
            claim(s.hit_rate > 0.0, "serve-stream", "the mixed stream hits the plan cache");
            claim(s.algos_selected.len() >= 3, "serve-stream", "at least 3 algorithms are auto-selected");
        }
        let kernel = self.kernel_bitwise != Some(false);
        claim(kernel, "gemm-320", "gemm_packed equals gemm_naive bit for bit on integer matrices");
        // The paper's sweep: Figures 6–11, Table 4, topo and Theorem 2.
        for pt in &self.sweep {
            let key = |topology: &str| format!("{}/{}/{topology}", pt.scenario.id, pt.p);
            let slack = if pt.scenario.shape == Shape::Flat {
                TIE
            } else {
                0.0
            };
            for (topology, rows) in [("flat", &pt.flat), ("fat-tree", &pt.fat)] {
                let leads = cosma_speedup(rows).is_none_or(|s| s >= 1.0 - slack);
                claim(
                    leads,
                    &key(topology),
                    "COSMA plans no slower than the best baseline (within TIE, flat shape)",
                );
            }
            let costs = pt
                .fat
                .iter()
                .all(|r| find(&pt.flat, r.algo).is_none_or(|f| r.time_s >= f.time_s));
            claim(costs, &key("fat-tree"), "every plan takes no less time on the fat tree than flat");
            let Some(cosma) = find(&pt.flat, AlgoId::Cosma) else {
                continue;
            };
            for b in &pt.flat {
                let least = cosma.active_mb() <= b.active_mb() * (1.0 + slack);
                claim(
                    least,
                    &key("flat"),
                    &format!("COSMA receives no more MB per active rank than {}", b.algo),
                );
            }
            let overlap = cosma.time_s <= cosma.time_no_overlap_s;
            claim(overlap, &key("flat"), "COSMA's planned time with overlap is no more than without");
            // Theorem 2's envelope: the bound is attainable within 2× (the
            // sweep's largest ratio is 1.235, square-limited p = 4096).
            let prob = (pt.scenario.problem)(pt.p);
            let bound =
                pebbles::bounds::theorem2_parallel_bound(prob.m, prob.n, prob.k, prob.p, prob.mem_words);
            let envelope = cosma.mean_mb * 1e6 / 8.0 <= 2.0 * bound;
            claim(envelope, &key("flat"), "COSMA's mean received words are at most twice Theorem 2's bound");
        }
        for (sweep, counts) in topo_sweeps()
            .into_iter()
            .filter(|_| self.sweep.iter().any(|pt| !pt.fat.is_empty()))
        {
            let wider =
                above(geomean(&self.speedups(true, &counts)), geomean(&self.speedups(false, &counts)));
            claim(
                wider,
                &format!("topo/{sweep}"),
                "COSMA's speedup geomean is higher on the fat tree than flat",
            );
        }
        // Figures 13–14 and 1.
        for sc in scenarios::all() {
            let median = |algo| five_numbers(&self.peaks(algo, |x| x.id == sc.id))[2];
            for b in &COMPARED[1..] {
                claim(
                    above(median(AlgoId::Cosma), median(*b)),
                    &format!("{}/% peak", sc.id),
                    &format!("COSMA's median % of peak is above {b}'s"),
                );
            }
        }
        let summary = |algo| {
            let xs = self.peaks(algo, |_| true);
            (max(&xs), geomean(&xs))
        };
        let (top, geo) = summary(AlgoId::Cosma);
        for b in &COMPARED[1..] {
            let (b_top, b_geo) = summary(*b);
            claim(
                above(top, b_top) && above(geo, b_geo),
                "fig1",
                &format!("COSMA leads {b} in max and geomean % of peak"),
            );
        }
        // Figure 12: on every strong-scaling shape, exposed communication's
        // share of COSMA's non-overlapped time grows with p.
        for sc in scenarios::all().iter().filter(|sc| sc.id.ends_with("-strong")) {
            let share = |p: usize| {
                let pt = self.sweep.iter().find(|pt| pt.scenario.id == sc.id && pt.p == p)?;
                let crit = find(&pt.flat, AlgoId::Cosma)?.critical[1];
                Some(crit.exposed_comm_s / crit.total_s())
            };
            let [lo, hi] = FIG12_CORES.map(share);
            let grows = lo.is_none() || hi.is_none() || hi > lo;
            claim(
                grows,
                &format!("{}/fig12", sc.id),
                "COSMA's communication share grows from p = 2048 to 18432",
            );
        }
        if let [naive, cosma] = &self.fig3[..] {
            claim(
                cosma.mean_mb < naive.mean_mb,
                "fig3",
                "COSMA's bottom-up grid moves less per rank than the 3D split",
            );
        }
        if let [(_, strict), (delta, relaxed)] = &self.fits[..] {
            let trade =
                relaxed.comm_words < strict.comm_words && flops(relaxed) <= flops(strict) * (1.0 + delta);
            claim(
                trade,
                "fig5",
                "the relaxed fit trades at most delta more compute per rank for fewer words",
            );
        }
        if let Some(cosma) = find(&self.table3, AlgoId::Cosma) {
            let least = self.table3.iter().all(|b| b.mean_mb >= cosma.mean_mb);
            claim(least, "table3/general", "COSMA's plan receives the least per rank");
            use AlgoId::{Carma, Cosma, P25d, Summa};
            let [_, (_, limited, _), (_, tall, _)] = table3_problems();
            let q = |algo, prob: &MmmProblem| analytic_q(algo, prob);
            let twod = q(Summa, &limited).min(q(P25d, &limited))..q(Summa, &limited).max(q(P25d, &limited));
            let order = q(Cosma, &limited) < twod.start && q(Carma, &limited) > twod.end;
            claim(order, "table3/limited", "COSMA's cost is the lowest and the recursive one the highest");
            let order = q(Cosma, &tall) < q(P25d, &tall) && q(P25d, &tall) < q(Summa, &tall);
            claim(order, "table3/tall", "COSMA's cost is below 2.5D's, which is below 2D's");
        }
        if let Some(f) = &self.faults {
            let bits = |r: &ServedRun| [r.measured_mb, r.measured_ms].map(f64::to_bits);
            for (kills, seed, [once, retried]) in &f.runs {
                let (key, dies) = (format!("faults-{kills}-seed-{seed}"), *kills > 0);
                let recovers = retried
                    .as_ref()
                    .is_some_and(|r| r.attempts == 1 + usize::from(dies) && r.degraded == dies);
                let what =
                    "a job completes alone iff no rank dies, with retry in 1 clean or 2 degraded attempts";
                claim(once.is_some() != dies && recovers, &key, what);
                // Product bits under a quiescent plan are the event backend's
                // unit test; the record holds what it measures.
                let quiet = dies || [once, retried].into_iter().flatten().all(|r| bits(r) == bits(&f.clean));
                claim(quiet, &key, "a quiescent fault plan measures faults-clean's MB and ms bit for bit");
            }
        }
        out
    }
}

/// The timed world a `topo` row is measured against: the fat tree against
/// flat, round-robin placement against block.
fn against(topology: &str) -> Option<&'static str> {
    match topology {
        "fat-tree" => Some("flat"),
        "fat-tree-rr" => Some("fat-tree"),
        _ => None,
    }
}

/// The sweep lines Figures 6–11 and 13–14 show: the scenarios of their
/// shapes at Figures 6–7's or 8–14's core counts, on the flat network.
/// Figures 6–7 (and Table 4, `topo`) state volume as the mean MB per
/// *active* rank ([`AlgoRow::active_mb`]): a mean over all `p` lets a
/// padded baseline's idle ranks dilute it below COSMA's.
fn sweep_view(id: &str) -> Option<(&'static [&'static str], Vec<usize>)> {
    let (comm, perf) = (scenarios::comm_core_counts(), scenarios::perf_core_counts());
    Some(match id {
        "fig6" => (&["square"], comm),
        "fig7" => (&["largek"], comm),
        "fig7m" => (&["largem"], comm),
        "fig7f" => (&["flat"], comm),
        "fig8" | "fig9" => (&["square"], perf),
        "fig10" | "fig11" => (&["largek"], perf),
        "fig13" => (&["flat", "square"], perf),
        "fig14" => (&["largek", "largem"], perf),
        _ => return None,
    })
}

fn shows_fig12(scenario: &str, p: usize) -> bool {
    scenario.ends_with("-strong") && FIG12_CORES.contains(&p)
}

/// Does `experiments <id>` print `l` among its section's lines?
fn shows(id: &str, l: &Line) -> bool {
    let p = l.cores.unwrap_or(0);
    let planned = l.backend.is_none() && scenarios::by_id(&l.scenario).is_some();
    let flat = l.topology == Some("flat");
    if let Some((shapes, counts)) = sweep_view(id) {
        return planned && flat && shapes.iter().any(|s| l.scenario.starts_with(s)) && counts.contains(&p);
    }
    match id {
        "fig3" | "table3" => l.scenario == id,
        "fig12" => planned && flat && l.algorithm == "cosma" && shows_fig12(&l.scenario, p),
        "timed" => l.scenario == "square-timed" && flat && scenarios::timed_core_counts().contains(&p),
        "topo" => {
            (planned && l.topology == Some("fat-tree"))
                || (l.scenario.ends_with("-timed")
                    && TOPO_WORLD_CORES.contains(&p)
                    && l.overlap == Some(true))
        }
        "mem-sweep" | "faults" => l.scenario.starts_with(id),
        // fig1, fig5 and table4 are summaries: derived values only.
        _ => false,
    }
}

/// Explain how `rebuilt` differs from `committed` (both [`Record::render`]
/// text), line by line under each line's key; empty exactly when the two are
/// byte-identical.
pub fn diff(committed: &str, rebuilt: &str) -> Vec<String> {
    if committed == rebuilt {
        return Vec::new();
    }
    fn key(line: &str) -> String {
        line.split(',').take(KEY_COLS).collect::<Vec<_>>().join("/")
    }
    let mut out = Vec::new();
    let (mut old, mut new) = (committed.lines(), rebuilt.lines());
    let (old_header, new_header) = (old.next().unwrap_or(""), new.next().unwrap_or(""));
    if old_header != new_header {
        out.push(format!("header: rebuilt `{new_header}`, committed `{old_header}`"));
    }
    let (old, new): (Vec<&str>, Vec<&str>) = (old.collect(), new.collect());
    for line in &new {
        match old.iter().find(|o| key(o) == key(line)) {
            None => out.push(format!("{}: rebuilt but not committed", key(line))),
            Some(o) if o != line => {
                let moved: Vec<String> = new_header
                    .split(',')
                    .zip(line.split(',').zip(o.split(',')))
                    .filter(|(_, (is, was))| is != was)
                    .map(|(name, (is, was))| format!("{name} rebuilt {is}, committed {was}"))
                    .collect();
                if moved.is_empty() {
                    out.push(format!("{}: rebuilt `{line}`, committed `{o}`", key(line)));
                } else {
                    out.push(format!("{}: {}", key(line), moved.join("; ")));
                }
            }
            Some(_) => {}
        }
    }
    for line in &old {
        if !new.iter().any(|n| key(n) == key(line)) {
            out.push(format!("{}: committed but not rebuilt — scenario dropped?", key(line)));
        }
    }
    if out.is_empty() {
        out.push("the same lines in a different order, or a different line ending".into());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma::grid::Grid3;
    use mpsim::cost::TimeBreakdown;

    #[test]
    fn exact_cells_round_trip_to_the_same_bits() {
        for x in [
            0.0,
            1.0 / 3.0,
            0.1 + 0.2,
            17.0 + 1.0 / 7.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -2.5e-7,
        ] {
            let cell = exact(x);
            assert_eq!(cell.parse::<f64>().unwrap().to_bits(), x.to_bits(), "{cell}");
        }
    }

    /// The sections cheap enough for a debug build: the gate's small worlds,
    /// and of the paper's evaluation fig3, fig5, table3, fig12's COSMA
    /// points, mem-sweep and faults.
    fn small_record() -> Record {
        let mut executed = Record::square(64, ExecBackend::event());
        executed.extend(Record::square(64, ExecBackend::Event { threads: 2 }));
        executed.extend(Record::square_tight(ExecBackend::event()));
        let mut record = Record {
            executed,
            ..Record::default()
        };
        record.add_sections(&["fig3", "fig5", "table3", "mem-sweep", "faults"]);
        let strong: Vec<Scenario> =
            scenarios::all().into_iter().filter(|sc| sc.id.ends_with("-strong")).collect();
        let cosma = runner::registry().by_id(AlgoId::Cosma).unwrap();
        record.sweep = sweep(&strong, &FIG12_CORES, &[cosma]);
        record
    }

    #[test]
    fn smoke_record_is_reproducible() {
        let first = small_record();
        assert_eq!(first.contracts(), Vec::<String>::new());
        let text = first.render();
        assert_eq!(text, small_record().render());
        // 5 + 5 square rows and 4 budgeted ones; 6 mem-sweep rows, 2 fig3
        // and 4 table3 plans, COSMA at fig12's 8 points and, fat tree, at the
        // 4 with p = 2048 (a topology count); the clean faults run and 8 + 48
        // served ones.
        assert_eq!(text.lines().count(), 1 + 14 + 6 + 2 + 4 + 12 + 57);
        assert_eq!(diff(&text, &text), Vec::<String>::new());
    }

    #[test]
    fn the_small_sections_carry_the_committed_values() {
        // The lines a debug build can afford, looked up in the committed
        // record by key: the gate's full run and this one must agree.
        let committed = committed().unwrap();
        let record = small_record();
        let text = record.render();
        let shared: Vec<&str> = text.lines().filter(|l| !l.starts_with("square,64,event(2),")).collect();
        assert_eq!(shared.len(), 1 + 9 + 6 + 2 + 4 + 12 + 57);
        for line in shared {
            assert!(committed.lines().any(|c| c == line), "not in the committed record: {line}");
        }
        // And what the render derives from them is there for every section.
        for id in ["fig3", "fig5", "table3", "fig12", "mem-sweep", "faults"] {
            assert!(!record.section(id).1.is_empty(), "{id}");
        }
    }

    #[test]
    fn record_mismatch_names_the_first_differing_line() {
        let committed = "scenario,cores,backend,topology,overlap,algorithm,planned MB,measured ms\n\
                         square,64,event,flat,on,cosma,4.5e0,1.25e-1\n\
                         square,64,event,flat,on,summa,7.0e0,2.5e-1\n\
                         square,64,event,flat,on,carma,4.5e0,1.0e-1\n";
        let rebuilt = "scenario,cores,backend,topology,overlap,algorithm,planned MB,measured ms\n\
                       square,64,event,flat,on,cosma,4.5e0,1.26e-1\n\
                       square,64,event,flat,on,carma,4.5e0,1.0e-1\n";
        assert_eq!(
            diff(committed, rebuilt),
            [
                "square/64/event/flat/on/cosma: measured ms rebuilt 1.26e-1, committed 1.25e-1",
                "square/64/event/flat/on/summa: committed but not rebuilt — scenario dropped?",
            ]
        );
        assert_eq!(diff(rebuilt, committed)[1], "square/64/event/flat/on/summa: rebuilt but not committed");
        // A truncated line and a reordering are differences too.
        let cut = committed.replace(",7.0e0,2.5e-1", ",7.0e0");
        assert_eq!(diff(&cut, committed).len(), 1, "{:?}", diff(&cut, committed));
        let swapped = "scenario,cores,backend,topology,overlap,algorithm,planned MB,measured ms\n\
                       square,64,event,flat,on,carma,4.5e0,1.0e-1\n\
                       square,64,event,flat,on,cosma,4.5e0,1.26e-1\n";
        assert_eq!(diff(swapped, rebuilt).len(), 1);
    }

    fn executed(backend: ExecBackend, planned_mb: f64, measured_time_s: f64) -> ExecutedRow {
        ExecutedRow {
            algo: AlgoId::Cosma,
            p: 4,
            backend,
            planned_mb,
            measured_mb: planned_mb,
            exact: true,
            peak_mem_words: 8,
            within_mem: true,
            planned_time_s: 1.0,
            measured_time_s,
            measured_percent_peak: 0.0,
        }
    }

    fn timed(topology: &'static str, measured_s: f64, measured_no_overlap_s: f64) -> Timed {
        let run = |measured_time_s| ExecutedRow {
            algo: AlgoId::Summa,
            ..executed(ExecBackend::event(), 1.0, measured_time_s)
        };
        Timed {
            scenario: "square-timed",
            topology,
            on: run(measured_s),
            off: run(measured_no_overlap_s),
        }
    }

    fn run(attempts: usize, degraded: bool) -> ServedRun {
        ServedRun {
            p: 3,
            algo: AlgoId::Cosma,
            measured_mb: 1.0,
            measured_ms: 1.0,
            attempts,
            degraded,
        }
    }

    /// A planned row: half of the slowest rank's `time_s` is exposed
    /// communication.
    fn row(algo: AlgoId, p: usize, mean_mb: f64, time_s: f64) -> AlgoRow {
        let crit = TimeBreakdown {
            compute_s: time_s / 2.0,
            exposed_comm_s: time_s / 2.0,
            total_comm_s: time_s / 2.0,
        };
        AlgoRow {
            algo,
            p,
            mean_mb,
            time_s,
            time_no_overlap_s: time_s,
            percent_peak: 1.0 / time_s,
            grid: [1, 1, 1],
            active: p,
            critical: [crit; 2],
            busiest_words: [1, 0],
        }
    }

    fn with_comm_share(mut r: AlgoRow, share: f64) -> AlgoRow {
        let crit = &mut r.critical[1];
        crit.exposed_comm_s = share * r.time_s;
        crit.compute_s = (1.0 - share) * r.time_s;
        r
    }

    fn point(p: usize, flat: Vec<AlgoRow>, fat: Vec<AlgoRow>) -> Point {
        Point {
            scenario: scenarios::by_id("square-strong").unwrap(),
            p,
            flat,
            fat,
        }
    }

    fn fit(comm_words: u64, local: usize) -> FitResult {
        FitResult {
            grid: Grid3 { gm: 1, gn: 1, gk: 1 },
            used: 1,
            local: [local; 3],
            comm_words,
            score: 0.0,
        }
    }

    /// A record in which every contract holds, with one row per section of
    /// the record that `contracts` reads.
    fn sound() -> Record {
        use AlgoId::{Cosma, Summa};
        Record {
            executed: vec![
                ("w".into(), executed(ExecBackend::event(), 1.0, 1.5)),
                ("w".into(), executed(ExecBackend::Event { threads: 4 }, 1.0, 1.5)),
                ("mem-sweep-3072".into(), executed(ExecBackend::event(), 1.0, 1.5)),
                ("mem-sweep-2048".into(), executed(ExecBackend::event(), 1.5, 1.5)),
            ],
            timed: vec![
                timed("flat", 1.0, 1.0),
                timed("fat-tree", 2.0, 2.0),
                timed("fat-tree-rr", 2.5, 2.5),
            ],
            serve: None,
            kernel_bitwise: Some(true),
            sweep: vec![
                point(
                    256,
                    vec![row(Cosma, 256, 1.0, 1.0), row(Summa, 256, 2.0, 2.0)],
                    vec![row(Cosma, 256, 1.0, 2.0), row(Summa, 256, 2.0, 8.0)],
                ),
                point(2048, vec![with_comm_share(row(Cosma, 2048, 1.0, 1.0), 0.4)], vec![]),
                point(18_432, vec![with_comm_share(row(Cosma, 18_432, 1.0, 1.0), 0.6)], vec![]),
            ],
            fig3: vec![row(AlgoId::P25d, 8, 2.0, 1.0), row(Cosma, 8, 1.0, 1.0)],
            table3: vec![row(Cosma, 512, 1.0, 1.0), row(Summa, 512, 2.0, 1.0)],
            fits: vec![(0.0, fit(200, 2)), (0.03, fit(100, 2))],
            faults: Some(Faults {
                clean: run(1, false),
                runs: vec![
                    (0, 0, [Some(run(1, false)), Some(run(1, false))]),
                    (1, 0, [None, Some(run(2, true))]),
                ],
            }),
        }
    }

    #[test]
    fn each_broken_contract_is_a_line_of_its_own() {
        use AlgoId::{Cosma, Summa};
        assert_eq!(sound().contracts(), Vec::<String>::new());

        let mut overlapless = row(Cosma, 256, 1e9, 3.0);
        overlapless.time_no_overlap_s = 2.5;
        let broken = Record {
            executed: vec![
                (
                    "w".into(),
                    ExecutedRow {
                        exact: false,
                        within_mem: false,
                        ..executed(ExecBackend::event(), 1.0, 3.5)
                    },
                ),
                ("w".into(), executed(ExecBackend::Event { threads: 4 }, 1.0, 1.5)),
                ("lone".into(), executed(ExecBackend::Event { threads: 2 }, 1.0, 1.5)),
                ("mem-sweep-16384".into(), executed(ExecBackend::event(), 1.0, 1.5)),
                ("mem-sweep-1024".into(), executed(ExecBackend::event(), 2.0, 1.5)),
            ],
            timed: vec![timed("flat", 4.0, 3.5), timed("fat-tree", 3.9, 3.9), {
                let mut rr = timed("fat-tree-rr", 3.9, 3.9);
                (rr.off.exact, rr.off.within_mem) = (false, false);
                rr
            }],
            serve: None,
            kernel_bitwise: Some(false),
            sweep: vec![
                point(
                    256,
                    vec![overlapless, row(Summa, 256, 2.0, 2.0)],
                    vec![row(Cosma, 256, 1e9, 2.9), row(Summa, 256, 2.0, 100.0)],
                ),
                point(2048, vec![with_comm_share(row(Cosma, 2048, 1.0, 4.0), 0.6)], vec![]),
                point(18_432, vec![with_comm_share(row(Cosma, 18_432, 1.0, 4.0), 0.4)], vec![]),
            ],
            fig3: vec![row(AlgoId::P25d, 8, 1.0, 1.0), row(Cosma, 8, 2.0, 1.0)],
            table3: vec![row(Cosma, 512, 2.0, 1.0), row(Summa, 512, 1.0, 1.0)],
            fits: vec![(0.0, fit(100, 2)), (0.03, fit(200, 2))],
            faults: Some(Faults {
                clean: run(1, false),
                runs: vec![
                    (0, 0, [None, Some(run(1, false))]),
                    (
                        0,
                        1,
                        [
                            Some(ServedRun {
                                measured_ms: 2.0,
                                ..run(1, false)
                            }),
                            Some(run(1, false)),
                        ],
                    ),
                    (1, 0, [None, Some(run(3, true))]),
                ],
            }),
        };
        let lines = broken.contracts();
        let needles = [
            "w/4/event/cosma: does not hold: every rank's measured traffic",
            "w/4/event/cosma: does not hold: every rank's peak working set",
            "w/4/event/cosma: does not hold: the measured time is within x3",
            "w/4/event(4)/cosma: does not hold: traffic and time equal",
            "lone/4/event(2)/cosma: does not hold: traffic and time equal",
            "mem-sweep-1024: does not hold: a smaller S",
            "square-timed/4/flat/summa: does not hold: the measured times are within x3",
            "square-timed/4/flat/summa: does not hold: overlap on measures no slower",
            "square-timed/4/fat-tree/summa: does not hold: the fat tree measures no faster",
            "square-timed/4/fat-tree-rr/summa: does not hold: every rank's measured traffic",
            "square-timed/4/fat-tree-rr/summa: does not hold: every rank's peak working set",
            "square-timed/4/fat-tree-rr/summa: does not hold: round-robin placement",
            "gemm-320: does not hold",
            "square-strong/256/flat: does not hold: COSMA plans no slower",
            "square-strong/256/flat: does not hold: COSMA receives no more MB per active rank than summa",
            "square-strong/256/flat: does not hold: COSMA's planned time with overlap",
            "square-strong/256/flat: does not hold: COSMA's mean received words",
            "square-strong/256/fat-tree: does not hold: every plan takes no less time",
            "square-strong/% peak: does not hold: COSMA's median % of peak is above summa's",
            "fig1: does not hold: COSMA leads summa",
            "square-strong/fig12: does not hold",
            "fig3: does not hold",
            "fig5: does not hold",
            "table3/general: does not hold",
            "faults-0-seed-0: does not hold: a job completes alone",
            "faults-0-seed-1: does not hold: a quiescent fault plan measures",
            "faults-1-seed-0: does not hold",
        ];
        for needle in needles {
            let hits = lines.iter().filter(|l| l.starts_with(needle)).count();
            assert_eq!(hits, 1, "{needle}: {lines:#?}");
        }
        assert_eq!(lines.len(), needles.len(), "{lines:#?}");

        // The topology table's claim: congestion widens COSMA's lead.
        let congestion_blind = Record {
            sweep: vec![point(
                256,
                vec![row(Cosma, 256, 1.0, 1.0), row(Summa, 256, 2.0, 2.0)],
                vec![row(Cosma, 256, 1.0, 2.0), row(Summa, 256, 2.0, 4.0)],
            )],
            ..Record::default()
        };
        assert_eq!(
            congestion_blind.contracts(),
            [
                "topo/power-of-two: does not hold: COSMA's speedup geomean is higher on the fat tree than flat",
                "topo/all points: does not hold: COSMA's speedup geomean is higher on the fat tree than flat",
            ]
        );

        let unrecovered = Record {
            faults: Some(Faults {
                clean: run(1, false),
                runs: vec![(1, 0, [None, None])],
            }),
            ..Record::default()
        };
        assert_eq!(unrecovered.contracts().len(), 1);
        // A failed recovery is also a line missing from the text: the
        // header and `faults-clean` are all there is.
        assert_eq!(unrecovered.render().lines().count(), 2);
    }

    #[test]
    fn committed_record_is_in_exact_form() {
        let text = committed().unwrap();
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(header, HEADERS);
        for name in header {
            for host_dependent in ["wall", "alloc", "pool", "/s", "flop", "jobs", "plans", "speedup"] {
                assert!(!name.contains(host_dependent), "host-dependent column `{name}`");
            }
        }
        let float_cols: Vec<usize> = (0..HEADERS.len())
            .filter(|&c| [" MB", " ms", "% peak"].iter().any(|unit| HEADERS[c].ends_with(unit)))
            .collect();
        assert_eq!(float_cols.len(), 5);
        let mut keys = std::collections::HashSet::new();
        for line in lines {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), HEADERS.len(), "{line}");
            assert!(keys.insert(cells[..KEY_COLS].join("/")), "duplicate key: {line}");
            for &c in &float_cols {
                if cells[c] != "-" {
                    assert_eq!(exact(cells[c].parse().unwrap()), cells[c], "{line}: {}", HEADERS[c]);
                }
            }
        }
        // 25 executed + 6 mem-sweep, 184 timed, the serve and kernel lines,
        // 1 160 sweep + 2 fig3 + 4 table3 planned, 57 served faults.
        assert_eq!(keys.len(), 25 + 6 + 184 + 2 + 1160 + 6 + 57);
    }
}
