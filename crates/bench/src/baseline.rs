//! The committed gate record, `results/bench-smoke-baseline.csv`: everything
//! the `bench-smoke` gate executes, as one table in one schema.
//!
//! What the gate holds is deterministic down to the bit — traffic, peak
//! memory, planned and measured virtual time, the fault-recovery and serving
//! verdicts — so the record has no host-dependent cell and no tolerance.
//! [`Record::smoke`] rebuilds it, [`Record::contracts`] checks what must hold
//! whatever the committed file says, and [`diff`] explains any byte by which
//! the rendered text differs from the committed one. Floats are written with
//! [`exact`], so the text pins their bits. A change that moves traffic or
//! virtual time re-records the file (`experiments bench-smoke-baseline`) in
//! the same commit and says why. Host time is measured by `benchmark/`,
//! paired and bounded, and nowhere here.

use std::path::PathBuf;

use cosma::api::AlgoId;
use cosma::problem::{MmmProblem, Shape};
use mpsim::cost::CostModel;
use mpsim::exec::ExecBackend;
use mpsim::machine::{Placement, Topology};

use crate::output::{results_dir, Table};
use crate::runner::{self, ExecutedRow, TimedRow};
use crate::scenarios;
use crate::serve_bench::{self, ServeMetrics};

/// The cell text of a float: 17 significant digits, enough for
/// `str::parse::<f64>` to recover the exact bits.
pub fn exact(x: f64) -> String {
    format!("{x:.17e}")
}

/// The record's columns. The first six say where and how a run ran and key
/// its line; the rest are what the run established.
pub const HEADERS: [&str; 16] = [
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
];

/// How many leading [`HEADERS`] key a line.
const KEY_COLS: usize = 6;

/// The file stem of the committed record under `results/`.
const STEM: &str = "bench-smoke-baseline";

/// Where the committed record lives.
pub fn committed_path() -> PathBuf {
    results_dir().join(STEM).with_extension("csv")
}

/// The committed record's text.
pub fn committed() -> std::io::Result<String> {
    std::fs::read_to_string(committed_path())
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

/// The fault section: the serve-conformance world (96×80×112, p = 64) served
/// with a quiescent `FaultPlan` armed, then under a fixed-seed plan felling
/// 15 ranks mid-run and `RetryPolicy::attempts(2)`.
#[derive(Debug, Clone)]
pub struct FaultFacts {
    /// The run with the quiescent plan armed.
    pub quiescent: ServedRun,
    /// Whether that run's product and per-rank stats equal the clean run's
    /// bit for bit.
    pub quiescent_bitwise: bool,
    /// The recovered run: a *clean* event run at the surviving p′, so its
    /// traffic and clock are exactly reproducible. `None` when the faulted
    /// job did not complete.
    pub recovered: Option<ServedRun>,
}

/// Run the fault section.
///
/// # Panics
/// Panics when the clean or the quiescent run fails — neither can.
pub fn fault_run() -> FaultFacts {
    use densemat::matrix::Matrix;
    use serve::{FaultPlan, JobRequest, RetryPolicy, Server, ServerConfig};

    let prob = MmmProblem::new(96, 80, 112, 64, 1 << 14);
    let a = Matrix::deterministic(prob.m, prob.k, 5);
    let b = Matrix::deterministic(prob.k, prob.n, 6);
    let server = Server::new(baselines::registry(), ServerConfig::default()).expect("default config");
    let clean = server
        .run_sync(JobRequest::new(0, prob, a.clone(), b.clone()).backend(ExecBackend::event()))
        .outcome
        .expect("clean run");
    let quiet = server.run_sync(JobRequest::new(1, prob, a.clone(), b.clone()).faults(FaultPlan::new(7)));
    let quiescent_bitwise = quiet
        .outcome
        .as_ref()
        .is_ok_and(|q| q.report.c == clean.report.c && q.report.stats == clean.report.stats);
    // Deaths land in the first half of the clean makespan: mid-run whatever
    // the cost model says.
    let plan = FaultPlan::new(7).kill_exactly(15, clean.report.measured_time_s() / 2.0);
    let recovered =
        server.run_sync(JobRequest::new(2, prob, a, b).faults(plan).retry(RetryPolicy::attempts(2)));
    let facts = FaultFacts {
        quiescent: ServedRun::of(&quiet).expect("a quiescent fault plan cannot fail a run"),
        quiescent_bitwise,
        recovered: ServedRun::of(&recovered),
    };
    let _ = server.shutdown();
    facts
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
        ]
    }
}

/// The gate record in typed form; [`Record::table`] is its one schema.
#[derive(Default)]
pub struct Record {
    /// Executed rows by scenario name: plan vs measured traffic, memory and
    /// time (flat topology, overlap on).
    pub executed: Vec<(&'static str, ExecutedRow)>,
    /// The timed world on the flat topology, both overlap modes.
    pub flat: Vec<TimedRow>,
    /// The same world under [`Topology::congested_fat_tree`], row for row.
    pub fat: Vec<TimedRow>,
    /// The fault section ([`fault_run`]).
    pub fault: Option<FaultFacts>,
    /// The serve section: a 64-job mixed stream, of which the record keeps
    /// only what repeats exactly (concurrent ≡ serial, the selected
    /// algorithms).
    pub serve: Option<ServeMetrics>,
    /// [`kernel_bitwise`].
    pub kernel_bitwise: Option<bool>,
}

impl Record {
    /// Every registry algorithm on the `exec` square problem at `p`.
    pub fn square(p: usize, backend: ExecBackend) -> Vec<(&'static str, ExecutedRow)> {
        let prob = scenarios::exec_problem(Shape::Square, p);
        let rows = runner::execute_all(&prob, &CostModel::piz_daint_two_sided(), backend);
        rows.into_iter().map(|r| ("square", r)).collect()
    }

    /// The memory-starved world with S enforced as a hard budget, so only
    /// memory-honest plans run.
    pub fn square_tight(backend: ExecBackend) -> Vec<(&'static str, ExecutedRow)> {
        let prob = scenarios::mem_starved_problem(64, 1 << 10);
        let rows = runner::execute_budgeted(&prob, &CostModel::piz_daint_two_sided(), backend);
        rows.into_iter().map(|r| ("square-tight", r)).collect()
    }

    /// Run the whole gate: small enough for every CI run, wide enough to
    /// cover both executors, a small and a large world, an enforced memory
    /// budget, one and four scheduler regions, a shared-link topology,
    /// recovery, serving and the local kernel.
    pub fn smoke() -> Record {
        let m = CostModel::piz_daint_two_sided();
        // A fixed worker count keeps the row keys stable across machines.
        let blocking = ExecBackend::Blocking { workers: 2 };
        let mut executed = Vec::new();
        for (p, backend) in [
            (64, blocking),
            (512, blocking),
            (1024, blocking),
            (1024, ExecBackend::event()),
        ] {
            executed.extend(Record::square(p, backend));
        }
        executed.extend(Record::square_tight(blocking));
        // The exec-xxl shape at a CI-sized world, as one scheduler region and
        // as four: `contracts` holds the pair bitwise equal.
        let cosma = runner::registry().by_id(AlgoId::Cosma).expect("registry has COSMA");
        let xxl = scenarios::exec_xl_problem(4096);
        for backend in [ExecBackend::event(), ExecBackend::Event { threads: 4 }] {
            let rows = runner::execute_with(std::slice::from_ref(&cosma), &xxl, &m, backend);
            executed.extend(rows.into_iter().map(|r| ("square-xxl", r)));
        }
        let timed = scenarios::exec_problem(Shape::Square, 1024);
        Record {
            executed,
            flat: runner::time_all(&timed, &m),
            fat: runner::time_all_topo(&timed, &m, &Topology::congested_fat_tree(), Placement::Block),
            fault: Some(fault_run()),
            serve: Some(serve_bench::measure(64, None)),
            kernel_bitwise: Some(kernel_bitwise()),
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
                // Zero on the blocking backend, which keeps no clock.
                measured_ms: Some(r.measured_time_s * 1e3),
                ..Line::on(r.backend, scenario, r.algo.to_string())
            });
        }
        for (topology, rows) in [("flat", &self.flat), ("fat-tree", &self.fat)] {
            for r in rows {
                for (overlap, planned_s, measured_s) in [
                    (true, r.planned_s, r.measured_s),
                    (false, r.planned_no_overlap_s, r.measured_no_overlap_s),
                ] {
                    out.push(Line {
                        cores: Some(r.p),
                        topology: Some(topology),
                        overlap: Some(overlap),
                        // The plan model is topology-blind: the flat α-β-γ
                        // simulation on both topologies.
                        planned_ms: Some(planned_s * 1e3),
                        measured_ms: Some(measured_s * 1e3),
                        ..Line::on(ExecBackend::event(), "square-timed", r.algo.to_string())
                    });
                }
            }
        }
        if let Some(f) = &self.fault {
            out.push(Line {
                bitwise: Some(f.quiescent_bitwise),
                ..Line::served("fault-quiescent", &f.quiescent)
            });
            out.extend(f.recovered.iter().map(|run| Line::served("fault-recovered", run)));
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

    /// The structural contracts: what must hold on the typed rows whatever
    /// the committed record says. One line per breach, under the key of the
    /// line it is about (the values are in the table); empty when all hold.
    pub fn contracts(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut breach = |key: &str, what: &str| out.push(format!("{key}: {what}"));
        let band = format!("beyond x{} of the plan's", runner::TIME_AGREEMENT_FACTOR);
        for (scenario, r) in &self.executed {
            let key = format!("{scenario}/{}/{}/{}", r.p, r.backend, r.algo);
            if !r.exact {
                breach(&key, "some rank's measured traffic deviates from its plan");
            }
            if !r.within_mem {
                breach(&key, "peak working set exceeds the per-rank memory S");
            }
            if r.measured_time_s > 0.0 && !runner::time_agrees(r.measured_time_s, r.planned_time_s) {
                breach(&key, &format!("measured time is {band}"));
            }
            // Region sharding is an implementation detail of host time: a
            // multi-region row must equal its one-region row bit for bit.
            if matches!(r.backend, ExecBackend::Event { threads } if threads > 1) {
                let one = self.executed.iter().find(|(s, o)| {
                    s == scenario && o.p == r.p && o.algo == r.algo && o.backend == ExecBackend::event()
                });
                match one {
                    None => breach(&key, "no one-region `event` row to compare with"),
                    Some((_, one))
                        if one.measured_mb.to_bits() != r.measured_mb.to_bits()
                            || one.measured_time_s.to_bits() != r.measured_time_s.to_bits() =>
                    {
                        breach(
                            &key,
                            "measured traffic or time diverges bitwise from the one-region `event` row",
                        )
                    }
                    Some(_) => {}
                }
            }
        }
        for (i, f) in self.flat.iter().enumerate() {
            let key = format!("square-timed/{}/{}", f.p, f.algo);
            if !f.within_band() {
                breach(&key, &format!("measured time (overlap on or off) is {band}"));
            }
            if !f.overlap_helps() {
                breach(&key, "overlap on measured slower than overlap off");
            }
            if self.fat.get(i).is_some_and(|c| {
                c.measured_s < f.measured_s || c.measured_no_overlap_s < f.measured_no_overlap_s
            }) {
                breach(&key, "the fat tree measured faster than flat — contention decreased a time");
            }
        }
        if let Some(f) = &self.fault {
            if !f.quiescent_bitwise {
                breach("fault-quiescent", "a quiescent fault plan perturbed the clean run");
            }
            match &f.recovered {
                None => breach("fault-recovered", "the faulted job did not complete via recovery"),
                Some(run) if run.attempts != 2 || !run.degraded => breach(
                    "fault-recovered",
                    "expected one injected failure + one degraded clean re-run (attempts 2, degraded yes)",
                ),
                Some(_) => {}
            }
        }
        if let Some(s) = &self.serve {
            if !s.all_match_serial {
                breach("serve-stream", "concurrent results diverge from serial execution");
            }
            if s.hit_rate <= 0.0 {
                breach("serve-stream", "the mixed stream never hit the plan cache");
            }
            if s.algos_selected.len() < 3 {
                breach("serve-stream", "fewer than 3 algorithms auto-selected");
            }
        }
        if self.kernel_bitwise == Some(false) {
            breach("gemm-320", "gemm_packed diverges bitwise from gemm_naive on integer matrices");
        }
        out
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

    /// The sections cheap enough for a debug build.
    fn small_record() -> Record {
        let blocking = ExecBackend::Blocking { workers: 2 };
        let mut executed = Record::square(64, blocking);
        executed.extend(Record::square(64, ExecBackend::event()));
        executed.extend(Record::square_tight(blocking));
        Record {
            executed,
            fault: Some(fault_run()),
            ..Record::default()
        }
    }

    #[test]
    fn smoke_record_is_reproducible() {
        let first = small_record();
        assert_eq!(first.contracts(), Vec::<String>::new());
        let text = first.render();
        assert_eq!(text, small_record().render());
        // 5 + 5 square rows, 4 budgeted ones, the two fault lines.
        assert_eq!(text.lines().count(), 1 + 16);
        assert_eq!(diff(&text, &text), Vec::<String>::new());
    }

    #[test]
    fn the_small_sections_carry_the_committed_values() {
        // The lines a debug build can afford, looked up in the committed
        // record by key: the gate's full run and this one must agree.
        let committed = committed().unwrap();
        let text = small_record().render();
        let shared: Vec<&str> = text.lines().filter(|l| !l.starts_with("square,64,event,")).collect();
        assert_eq!(shared.len(), 1 + 11);
        for line in shared {
            assert!(committed.lines().any(|c| c == line), "not in the committed record: {line}");
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

    #[test]
    fn each_broken_contract_is_a_line_of_its_own() {
        let row = |backend, measured_time_s| ExecutedRow {
            algo: AlgoId::Cosma,
            p: 4,
            backend,
            planned_mb: 1.0,
            measured_mb: 1.0,
            exact: true,
            wall_s: 0.0,
            peak_mem_words: 8,
            within_mem: true,
            planned_time_s: 1.0,
            measured_time_s,
            measured_percent_peak: 0.0,
            allocs: 0,
            pool_hit_rate: 0.0,
        };
        let timed = |measured_s, measured_no_overlap_s| TimedRow {
            algo: AlgoId::Summa,
            p: 4,
            planned_s: 1.0,
            planned_no_overlap_s: 1.0,
            measured_s,
            measured_no_overlap_s,
            measured_percent_peak: 0.0,
        };
        let run = |attempts, degraded| ServedRun {
            p: 3,
            algo: AlgoId::Cosma,
            measured_mb: 1.0,
            measured_ms: 1.0,
            attempts,
            degraded,
        };
        let sound = Record {
            executed: vec![
                ("w", row(ExecBackend::event(), 1.5)),
                ("w", row(ExecBackend::Event { threads: 4 }, 1.5)),
            ],
            flat: vec![timed(1.0, 1.0)],
            fat: vec![timed(2.0, 2.0)],
            fault: Some(FaultFacts {
                quiescent: run(1, false),
                quiescent_bitwise: true,
                recovered: Some(run(2, true)),
            }),
            serve: None,
            kernel_bitwise: Some(true),
        };
        assert_eq!(sound.contracts(), Vec::<String>::new());

        let broken = Record {
            executed: vec![
                (
                    "w",
                    ExecutedRow {
                        exact: false,
                        within_mem: false,
                        ..row(ExecBackend::event(), 3.5)
                    },
                ),
                ("w", row(ExecBackend::Event { threads: 4 }, 1.5)),
                ("lone", row(ExecBackend::Event { threads: 2 }, 1.5)),
            ],
            flat: vec![timed(4.0, 3.5)],
            fat: vec![timed(3.9, 3.5)],
            fault: Some(FaultFacts {
                quiescent: run(1, false),
                quiescent_bitwise: false,
                recovered: Some(run(3, true)),
            }),
            serve: None,
            kernel_bitwise: Some(false),
        };
        let lines = broken.contracts();
        for (i, needle) in [
            "w/4/event/cosma: some rank's measured traffic deviates",
            "w/4/event/cosma: peak working set",
            "w/4/event/cosma: measured time is beyond x3",
            "w/4/event(4)/cosma: measured traffic or time diverges bitwise",
            "lone/4/event(2)/cosma: no one-region",
            "square-timed/4/summa: measured time (overlap on or off) is beyond x3",
            "square-timed/4/summa: overlap on measured slower",
            "square-timed/4/summa: the fat tree measured faster",
            "fault-quiescent:",
            "fault-recovered: expected",
            "gemm-320:",
        ]
        .into_iter()
        .enumerate()
        {
            assert!(lines[i].starts_with(needle), "line {i}: {}", lines[i]);
        }
        assert_eq!(lines.len(), 11, "{lines:#?}");
        let unrecovered = Record {
            fault: Some(FaultFacts {
                quiescent: run(1, false),
                quiescent_bitwise: true,
                recovered: None,
            }),
            ..Record::default()
        };
        assert_eq!(unrecovered.contracts().len(), 1);
        // A failed recovery is also a line missing from the text.
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
            .filter(|&c| HEADERS[c].ends_with(" MB") || HEADERS[c].ends_with(" ms"))
            .collect();
        assert_eq!(float_cols.len(), 4);
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
        // 25 executed + 16 timed + 2 fault + serve + kernel.
        assert_eq!(keys.len(), 45);
    }
}
