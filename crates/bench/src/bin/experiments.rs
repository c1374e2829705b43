//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin experiments -- <id> [<id> ...]
//! cargo run --release -p bench --bin experiments -- all
//! ```
//!
//! Ids: `fig1 fig3 fig5 fig6 fig7 fig7m fig7f fig8 fig9 fig10 fig11 fig12
//! fig13 fig14 table3 table4 exec exec-xl timed topo mem-sweep serve
//! faults`. Each
//! experiment prints its table(s) and writes CSVs to `results/`. See
//! `EXPERIMENTS.md` for the paper-vs-measured record. `--backend
//! <blocking|blocking(N)|event|event(N)>` pins the execution backend of the
//! experiments that would otherwise pick one automatically (`exec`,
//! `serve`).
//!
//! Additional maintenance commands (not part of `all`):
//!
//! * `bench-smoke` — the CI gate. Rebuilds the deterministic smoke record
//!   ([`bench::baseline::Record::smoke`]: a small executed subset on both
//!   backends, an enforced memory budget, one and four scheduler regions,
//!   the timed world flat and under the congested fat tree in both overlap
//!   modes, fault recovery, a served stream, the local kernel), checks its
//!   structural contracts, and compares the rendered text with the
//!   committed `results/bench-smoke-baseline.csv` byte for byte. Exits
//!   non-zero on a broken contract or a differing byte, naming the lines.
//!   It measures no host time: that is `benchmark/`'s job.
//! * `bench-smoke-baseline` — regenerate the committed record.
//! * `exec-rss <blocking|event>` — run the square p = 4096 executed
//!   scenario on one backend and report the process peak RSS (`VmHWM`), for
//!   the per-backend memory table in `EXPERIMENTS.md`.

use baselines::p25d::Geometry25;
use baselines::P25dAlgorithm;
use bench::baseline::{self, Record};
use bench::output::{fmt, Table};
use bench::runner::{self, cosma_speedup, five_numbers, geomean, run_all, AlgoRow, COMPARED};
use bench::scenarios::{self, Scenario};
use cosma::api::{AlgoId, RunSession};
use cosma::problem::{MmmProblem, Shape};
use mpsim::cost::CostModel;
use mpsim::exec::ExecBackend;
use mpsim::machine::{Placement, Topology};

fn model() -> CostModel {
    CostModel::piz_daint_two_sided()
}

/// The `--backend <name>` flag: when set, experiments that would pick a
/// backend automatically run on this one instead.
static BACKEND_OVERRIDE: std::sync::OnceLock<ExecBackend> = std::sync::OnceLock::new();

fn backend_override() -> Option<ExecBackend> {
    BACKEND_OVERRIDE.get().copied()
}

fn find(rows: &[AlgoRow], algo: AlgoId) -> Option<&AlgoRow> {
    rows.iter().find(|r| r.algo == algo)
}

/// Sweep one scenario over core counts, returning (p, rows) pairs.
fn sweep(sc: &Scenario, cores: &[usize]) -> Vec<(usize, Vec<AlgoRow>)> {
    let m = model();
    let min_p = scenarios::strong_scaling_min_cores(sc);
    cores
        .iter()
        .filter(|&&p| p >= min_p)
        .map(|&p| (p, run_all(&(sc.problem)(p), &m)))
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 6/7 and their largeM/flat analogues: communication volume per core
// ---------------------------------------------------------------------------

fn comm_volume_figure(fig: &str, shape_prefix: &str) {
    println!("== {fig}: communication volume per core, {shape_prefix} scenarios ==");
    for regime in ["strong", "limited", "extra"] {
        let id = format!("{shape_prefix}-{regime}");
        let Some(sc) = scenarios::by_id(&id) else { continue };
        println!("\n-- {id} --");
        let mut t = Table::new(&[
            "cores",
            "cosma MB",
            "summa MB",
            "p25d MB",
            "carma MB",
            "best/cosma",
        ]);
        for (p, rows) in sweep(&sc, &scenarios::comm_core_counts()) {
            let get = |a: AlgoId| find(&rows, a).map(|r| r.mean_mb);
            let cosma = get(AlgoId::Cosma).unwrap_or(f64::NAN);
            let others_best = COMPARED[1..].iter().filter_map(|&a| get(a)).fold(f64::INFINITY, f64::min);
            t.row(vec![
                p.to_string(),
                fmt(cosma, 1),
                get(AlgoId::Summa).map_or("-".into(), |x| fmt(x, 1)),
                get(AlgoId::P25d).map_or("-".into(), |x| fmt(x, 1)),
                get(AlgoId::Carma).map_or("-".into(), |x| fmt(x, 1)),
                fmt(others_best / cosma, 2),
            ]);
        }
        t.print();
        t.write_csv(&format!("{fig}-{id}")).expect("write csv");
    }
    println!("\nexpectation (paper): COSMA has the lowest curve in every panel.\n");
}

// ---------------------------------------------------------------------------
// Figures 8-11: % of peak and runtime
// ---------------------------------------------------------------------------

fn perf_figure(fig: &str, shape_prefix: &str, metric: &str) {
    println!("== {fig}: {metric}, {shape_prefix} scenarios ==");
    for regime in ["strong", "limited", "extra"] {
        let id = format!("{shape_prefix}-{regime}");
        let Some(sc) = scenarios::by_id(&id) else { continue };
        println!("\n-- {id} --");
        let mut t = Table::new(&["cores", "cosma", "summa", "p25d", "carma"]);
        for (p, rows) in sweep(&sc, &scenarios::perf_core_counts()) {
            let get = |a: AlgoId| -> String {
                find(&rows, a).map_or("-".into(), |r| {
                    if metric == "percent-peak" {
                        fmt(r.percent_peak, 1)
                    } else {
                        fmt(r.time_s * 1e3, 1)
                    }
                })
            };
            t.row(vec![
                p.to_string(),
                get(AlgoId::Cosma),
                get(AlgoId::Summa),
                get(AlgoId::P25d),
                get(AlgoId::Carma),
            ]);
        }
        t.print();
        t.write_csv(&format!("{fig}-{id}")).expect("write csv");
    }
    println!();
}

// ---------------------------------------------------------------------------
// Figure 1: summary bars (max and geometric-mean % peak per algorithm)
// ---------------------------------------------------------------------------

fn fig1() {
    println!("== fig1: % of peak flop/s across all experiments (max / geomean) ==\n");
    let mut samples: std::collections::HashMap<AlgoId, Vec<f64>> = Default::default();
    for sc in scenarios::all() {
        for (_, rows) in sweep(&sc, &scenarios::perf_core_counts()) {
            for r in &rows {
                samples.entry(r.algo).or_default().push(r.percent_peak);
            }
        }
    }
    let mut t = Table::new(&["algorithm", "max %peak", "geomean %peak", "samples"]);
    for algo in COMPARED {
        let xs = samples.remove(&algo).unwrap_or_default();
        let max = xs.iter().copied().fold(0.0, f64::max);
        t.row(vec![
            algo.to_string(),
            fmt(max, 1),
            fmt(geomean(&xs), 1),
            xs.len().to_string(),
        ]);
    }
    t.print();
    t.write_csv("fig1").expect("write csv");
    println!("\nexpectation (paper): COSMA leads both columns.\n");
}

// ---------------------------------------------------------------------------
// Figure 3: bottom-up vs top-down decomposition at p = 8
// ---------------------------------------------------------------------------

fn fig3() {
    println!("== fig3: COSMA bottom-up vs naive 3D top-down at p = 8 ==\n");
    // Both decompositions are measured under identical accounting: the naive
    // top-down 3D split is the forced q = 2, c = 2 replicated geometry;
    // COSMA derives its grid from the sequential schedule. Memory sits
    // between the 2D and cubic regimes so the optimal domain is not cubic.
    let prob = MmmProblem::new(4096, 4096, 4096, 8, 3_000_000);
    let m = model();
    let cosma_plan = runner::plan_for(AlgoId::Cosma, &prob, &m).expect("cosma plan");
    // The naive top-down split is 2.5D with a *forced* c = q geometry: a
    // re-configured registry entry, measured through the same trait API.
    let mut forced = runner::registry();
    forced.register(P25dAlgorithm::with_geometry(Geometry25 { q: 2, c: 2 }));
    let naive = RunSession::new(prob)
        .machine(m)
        .registry(forced)
        .algorithm(AlgoId::P25d)
        .plan()
        .expect("3D plan");
    let mut t = Table::new(&["decomposition", "mean MB/rank", "grid"]);
    t.row(vec![
        "3D top-down".into(),
        fmt(naive.mean_comm_words() * 8.0 / 1e6, 1),
        "2x2x2".into(),
    ]);
    t.row(vec![
        "COSMA bottom-up".into(),
        fmt(cosma_plan.mean_comm_words() * 8.0 / 1e6, 1),
        format!("{}x{}x{}", cosma_plan.grid[0], cosma_plan.grid[1], cosma_plan.grid[2]),
    ]);
    t.print();
    let reduction = 1.0 - cosma_plan.mean_comm_words() / naive.mean_comm_words();
    println!("\nmeasured reduction: {:.0}% (paper's example: 17%)\n", reduction * 100.0);
    t.write_csv("fig3").expect("write csv");
}

// ---------------------------------------------------------------------------
// Figure 5: processor-grid optimization at p = 65
// ---------------------------------------------------------------------------

fn fig5() {
    println!("== fig5: grid fitting at p = 65 (square matrices) ==\n");
    let prob = MmmProblem::new(16_384, 16_384, 16_384, 65, scenarios::S_WORDS);
    let m = model();
    let strict = cosma::grid::fit_ranks(&prob, 0.0, &m).expect("strict fit");
    let relaxed = cosma::grid::fit_ranks(&prob, 0.03, &m).expect("relaxed fit");
    let mut t = Table::new(&["delta", "grid", "used", "comm words/rank", "compute/rank"]);
    for (name, fit) in [("0%", strict), ("3%", relaxed)] {
        t.row(vec![
            name.into(),
            format!("{}x{}x{}", fit.grid.gm, fit.grid.gn, fit.grid.gk),
            fit.used.to_string(),
            fit.comm_words.to_string(),
            (2 * fit.local[0] as u64 * fit.local[1] as u64 * fit.local[2] as u64).to_string(),
        ]);
    }
    t.print();
    let comm_saving = 1.0 - relaxed.comm_words as f64 / strict.comm_words as f64;
    let compute_penalty = (relaxed.local.iter().product::<usize>() as f64)
        / (strict.local.iter().product::<usize>() as f64)
        - 1.0;
    println!(
        "\ncomm saving {:.0}%, compute penalty {:.1}% (paper: 36% / 1.5%)\n",
        comm_saving * 100.0,
        compute_penalty * 100.0
    );
    t.write_csv("fig5").expect("write csv");
}

// ---------------------------------------------------------------------------
// Figure 12: communication/computation breakdown, overlap on/off
// ---------------------------------------------------------------------------

fn fig12() {
    println!("== fig12: COSMA time breakdown (A+B input, C output, compute) ==\n");
    let m = model();
    let mut t = Table::new(&[
        "scenario",
        "cores",
        "overlap",
        "input A+B %",
        "output C %",
        "compute %",
        "total ms",
    ]);
    for shape in ["square", "largek", "largem", "flat"] {
        let sc = scenarios::by_id(&format!("{shape}-strong")).expect("scenario");
        for p in [2048usize, 18432] {
            if p < scenarios::strong_scaling_min_cores(&sc) {
                continue;
            }
            let prob = (sc.problem)(p);
            let Some(plan) = runner::plan_for(AlgoId::Cosma, &prob, &m) else {
                continue;
            };
            // Word-level phase split of the busiest rank.
            let crit = plan.ranks.iter().max_by_key(|r| r.comm_words()).expect("non-empty plan");
            let ab: u64 = crit.rounds.iter().map(|r| r.a_words + r.b_words).sum();
            let c: u64 = crit.rounds.iter().map(|r| r.c_words).sum();
            for overlap in [false, true] {
                let rep = plan.simulate(&m, overlap);
                let comm_s = rep.critical.exposed_comm_s;
                let comp_s = rep.critical.compute_s;
                let total = comm_s + comp_s;
                let words = (ab + c).max(1) as f64;
                let input_share = comm_s * (ab as f64 / words) / total;
                let output_share = comm_s * (c as f64 / words) / total;
                t.row(vec![
                    format!("{shape}-strong"),
                    p.to_string(),
                    if overlap { "yes" } else { "no" }.into(),
                    fmt(input_share * 100.0, 1),
                    fmt(output_share * 100.0, 1),
                    fmt(comp_s / total * 100.0, 1),
                    fmt(rep.time_s * 1e3, 1),
                ]);
            }
        }
    }
    t.print();
    t.write_csv("fig12").expect("write csv");
    println!("\nexpectation (paper): comm share grows with p; overlap hides most of it.\n");
}

// ---------------------------------------------------------------------------
// Figures 13/14: % peak distributions
// ---------------------------------------------------------------------------

fn distribution_figure(fig: &str, shapes: [&str; 2]) {
    println!("== {fig}: distribution of % peak across core counts ==\n");
    let mut t = Table::new(&["scenario", "algorithm", "min", "q1", "median", "q3", "max"]);
    for shape in shapes {
        for regime in ["strong", "limited", "extra"] {
            let id = format!("{shape}-{regime}");
            let Some(sc) = scenarios::by_id(&id) else { continue };
            let swept = sweep(&sc, &scenarios::perf_core_counts());
            for algo in COMPARED {
                let xs: Vec<f64> = swept
                    .iter()
                    .filter_map(|(_, rows)| find(rows, algo).map(|r| r.percent_peak))
                    .collect();
                if xs.is_empty() {
                    continue;
                }
                let f = five_numbers(&xs);
                t.row(vec![
                    id.clone(),
                    algo.to_string(),
                    fmt(f[0], 1),
                    fmt(f[1], 1),
                    fmt(f[2], 1),
                    fmt(f[3], 1),
                    fmt(f[4], 1),
                ]);
            }
        }
    }
    t.print();
    t.write_csv(fig).expect("write csv");
    println!();
}

// ---------------------------------------------------------------------------
// Table 3: complexity comparison
// ---------------------------------------------------------------------------

fn table3() {
    println!("== table3: analytic communication costs vs measured plans ==\n");
    let m = model();

    println!("-- general case: square 8192^3, p = 512, S = 2^22 --");
    let prob = MmmProblem::new(8192, 8192, 8192, 512, 1 << 22);
    let mut t = Table::new(&[
        "algorithm",
        "analytic Q (words)",
        "measured mean (words)",
        "measured/analytic",
    ]);
    let measured = |id: AlgoId| runner::plan_for(id, &prob, &m).map(|p| p.mean_comm_words());
    let entries: [(&str, f64, Option<f64>); 4] = [
        ("2D (SUMMA)", baselines::analysis::summa_io(&prob), measured(AlgoId::Summa)),
        ("2.5D (CTF)", baselines::analysis::p25d_io(&prob), measured(AlgoId::P25d)),
        ("recursive (CARMA)", baselines::analysis::carma_io(&prob), measured(AlgoId::Carma)),
        ("COSMA", cosma::analysis::io_cost(&prob), measured(AlgoId::Cosma)),
    ];
    for (name, analytic, measured) in entries {
        let meas = measured.unwrap_or(f64::NAN);
        t.row(vec![
            name.into(),
            fmt(analytic, 0),
            fmt(meas, 0),
            fmt(meas / analytic, 2),
        ]);
    }
    t.print();
    t.write_csv("table3-general").expect("write csv");

    println!("\n-- special case: square, limited memory (S = 2n^2/p), p = 1024, n = 8192 --");
    let n = 8192usize;
    let p = 1024usize;
    let prob = MmmProblem::new(n, n, n, p, 2 * n * n / p);
    let mut t = Table::new(&["algorithm", "analytic Q", "x (2n^2/sqrt(p))"]);
    let base = 2.0 * (n * n) as f64 / (p as f64).sqrt();
    for (name, q) in [
        ("2D", baselines::analysis::summa_io(&prob)),
        ("2.5D", baselines::analysis::p25d_io(&prob)),
        ("recursive", baselines::analysis::carma_io(&prob)),
        ("COSMA", cosma::analysis::io_cost(&prob)),
    ] {
        t.row(vec![name.into(), fmt(q, 0), fmt(q / base, 3)]);
    }
    t.print();
    println!(
        "expectation: 2D/2.5D near 1x of 2n^2/sqrt(p); recursive ~sqrt(3)/sqrt(2) = 1.22x higher \
         than COSMA, which sits at sqrt(2)/2 = 0.71x by Eq. 33's accounting."
    );
    t.write_csv("table3-square-limited").expect("write csv");

    println!(
        "\n-- special case: tall matrices, extra memory (m=n=sqrt(p), k=p^1.5/4, S=2nk/p^(2/3)), p = 4096 --"
    );
    let p = 4096usize;
    let sq = 64usize;
    let k = (p as f64).powf(1.5) as usize / 4;
    let s = (2.0 * sq as f64 * k as f64 / (p as f64).powf(2.0 / 3.0)) as usize;
    let prob = MmmProblem::new(sq, sq, k, p, s);
    let mut t = Table::new(&["algorithm", "analytic Q", "x p"]);
    for (name, q) in [
        ("2D", baselines::analysis::summa_io(&prob)),
        ("2.5D", baselines::analysis::p25d_io(&prob)),
        ("recursive", baselines::analysis::carma_io(&prob)),
        ("COSMA", cosma::analysis::io_cost(&prob)),
    ] {
        t.row(vec![name.into(), fmt(q, 0), fmt(q / p as f64, 3)]);
    }
    t.print();
    println!("expectation (paper): 2D ~ p^1.5/2, 2.5D ~ p^4/3/2, CARMA ~ 0.75p, COSMA ~ O(p).\n");
    t.write_csv("table3-tall-extra").expect("write csv");
}

// ---------------------------------------------------------------------------
// Table 4: volume summary and speedups over all twelve scenarios
// ---------------------------------------------------------------------------

fn table4() {
    println!("== table4: mean comm volume per rank (MB) and COSMA speedup ==\n");
    let mut t = Table::new(&[
        "scenario",
        "summa MB",
        "p25d MB",
        "carma MB",
        "cosma MB",
        "speedup min",
        "speedup geomean",
        "speedup max",
    ]);
    let mut all_speedups: Vec<f64> = Vec::new();
    for sc in scenarios::all() {
        let swept = sweep(&sc, &scenarios::comm_core_counts());
        if swept.is_empty() {
            continue;
        }
        let avg = |algo: AlgoId| -> f64 {
            let xs: Vec<f64> = swept
                .iter()
                .filter_map(|(_, rows)| find(rows, algo).map(|r| r.mean_mb))
                .collect();
            if xs.is_empty() {
                f64::NAN
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let speedups: Vec<f64> = swept.iter().filter_map(|(_, rows)| cosma_speedup(rows)).collect();
        all_speedups.extend(&speedups);
        let (mn, gm, mx) = if speedups.is_empty() {
            (f64::NAN, f64::NAN, f64::NAN)
        } else {
            (
                speedups.iter().copied().fold(f64::INFINITY, f64::min),
                geomean(&speedups),
                speedups.iter().copied().fold(0.0, f64::max),
            )
        };
        t.row(vec![
            sc.id.into(),
            fmt(avg(AlgoId::Summa), 0),
            fmt(avg(AlgoId::P25d), 0),
            fmt(avg(AlgoId::Carma), 0),
            fmt(avg(AlgoId::Cosma), 0),
            fmt(mn, 2),
            fmt(gm, 2),
            fmt(mx, 2),
        ]);
    }
    t.print();
    println!(
        "\noverall speedup: min {:.2} geomean {:.2} max {:.2} (paper: 1.07 / 2.17 / 12.81)\n",
        all_speedups.iter().copied().fold(f64::INFINITY, f64::min),
        geomean(&all_speedups),
        all_speedups.iter().copied().fold(0.0, f64::max)
    );
    t.write_csv("table4").expect("write csv");
}

// ---------------------------------------------------------------------------
// exec: end-to-end executed runs (real messages) certifying the plans
// ---------------------------------------------------------------------------

fn executed_table() -> Table {
    Table::new(&[
        "shape",
        "cores",
        "backend",
        "algorithm",
        "planned MB",
        "measured MB",
        "exact",
        "wall s",
        "peak words",
        "within S",
        "planned ms",
        "meas ms",
        "meas %peak",
        "allocs",
        "pool hit %",
    ])
}

fn push_executed_rows(t: &mut Table, name: &str, p: usize, rows: &[runner::ExecutedRow]) {
    for row in rows {
        t.row(vec![
            name.into(),
            p.to_string(),
            row.backend.to_string(),
            row.algo.to_string(),
            fmt(row.planned_mb, 2),
            fmt(row.measured_mb, 2),
            if row.exact { "yes" } else { "NO" }.into(),
            fmt(row.wall_s, 2),
            row.peak_mem_words.to_string(),
            if row.within_mem { "yes" } else { "NO" }.into(),
            fmt(row.planned_time_s * 1e3, 4),
            // Blocking backends keep no virtual clock: measured ms is 0.
            fmt(row.measured_time_s * 1e3, 4),
            fmt(row.measured_percent_peak, 2),
            // Arena counters: observability only (the hit/miss split depends
            // on scheduling order), so they never enter a bitwise gate.
            row.allocs.to_string(),
            fmt(row.pool_hit_rate * 100.0, 1),
        ]);
    }
}

fn exec_experiment() {
    println!("== exec: end-to-end execution, plan vs measured traffic ==\n");
    println!("(on the event-driven stackless executor unless --backend pins another)\n");
    let m = model();
    let mut t = executed_table();
    for (shape, name) in [(Shape::Square, "square"), (Shape::LargeK, "largek")] {
        for &p in &scenarios::exec_core_counts() {
            // Keep the sweep bounded: the largeK shape at one world size,
            // the square shape across all of them.
            if shape == Shape::LargeK && p != 4096 {
                continue;
            }
            let prob = scenarios::exec_problem(shape, p);
            let backend = backend_override().unwrap_or(ExecBackend::event());
            push_executed_rows(&mut t, name, p, &runner::execute_all(&prob, &m, backend));
        }
    }
    t.print();
    t.write_csv("exec").expect("write csv");
    println!("\nexpectation: every row exact — executed traffic equals the plan word for word.\n");
}

// ---------------------------------------------------------------------------
// exec-xl: 100k-rank worlds on the event-driven stackless executor
// ---------------------------------------------------------------------------

fn exec_xl() {
    println!("== exec-xl: event-driven execution at 16384-131072 ranks ==\n");
    println!(
        "(COSMA only: every rank is a stackless resumable state machine on one \
         scheduler thread — no carrier-thread backend can hold these worlds)\n"
    );
    let m = model();
    let cosma = runner::registry().by_id(AlgoId::Cosma).expect("registry has COSMA");
    let mut t = executed_table();
    for &p in &scenarios::exec_xl_core_counts() {
        let prob = scenarios::exec_xl_problem(p);
        let rows = runner::execute_with(std::slice::from_ref(&cosma), &prob, &m, ExecBackend::event());
        push_executed_rows(&mut t, "square", p, &rows);
    }
    t.print();
    t.write_csv("exec-xl").expect("write csv");
    println!("\nexpectation: every row exact, wall-time bounded — the stackless executor scales.\n");
}

// ---------------------------------------------------------------------------
// exec-xxl: million-rank worlds on the parallel event scheduler
// ---------------------------------------------------------------------------

fn exec_xxl() {
    println!("== exec-xxl: parallel event scheduler at 262144-1048576 ranks ==\n");
    println!(
        "(COSMA only: the event scheduler sharded across 1/2/4/8 OS threads — \
         rank regions advance conservative virtual-time windows bounded by the \
         link latency alpha, exchanging cross-region messages at window \
         boundaries; every thread count must measure bitwise-identically, so \
         the interesting column is wall s)\n"
    );
    let m = model();
    let cosma = runner::registry().by_id(AlgoId::Cosma).expect("registry has COSMA");
    let mut t = executed_table();
    for &p in &scenarios::exec_xxl_core_counts() {
        let prob = scenarios::exec_xl_problem(p);
        let mut reference: Option<(f64, f64)> = None;
        for &threads in &scenarios::exec_xxl_thread_counts() {
            let rows =
                runner::execute_with(std::slice::from_ref(&cosma), &prob, &m, ExecBackend::Event { threads });
            for row in &rows {
                // The determinism contract, asserted on the spot: whatever
                // the thread count, measured traffic and the virtual clock
                // must equal the single-threaded run bit for bit.
                let (ref_mb, ref_time) = *reference.get_or_insert((row.measured_mb, row.measured_time_s));
                assert!(
                    row.measured_mb == ref_mb && row.measured_time_s == ref_time,
                    "p={p} threads={threads}: parallel run diverged from the single-threaded scheduler"
                );
            }
            push_executed_rows(&mut t, "square", p, &rows);
        }
    }
    t.print();
    t.write_csv("exec-xxl").expect("write csv");
    println!(
        "\nexpectation: every row exact and bitwise-stable across thread counts — \
         only wall s may vary.\n"
    );
}

// ---------------------------------------------------------------------------
// timed: planned vs measured virtual time (the paper's time axis, closed)
// ---------------------------------------------------------------------------

fn timed() {
    println!("== timed: planned vs measured alpha-beta-gamma time, event backend ==\n");
    println!(
        "(every algorithm executes twice on the discrete-event executor — overlap \
         on and off — and the virtual clock is held against DistPlan::simulate; \
         the gate band is x{:.1} either way, overlap-on <= overlap-off on every row)\n",
        runner::TIME_AGREEMENT_FACTOR
    );
    let m = model();
    let mut t = Table::new(&[
        "cores",
        "algorithm",
        "planned ms",
        "meas ms",
        "meas/plan",
        "planned ms (no ovl)",
        "meas ms (no ovl)",
        "overlap gap %",
        "meas %peak",
        "agrees",
    ]);
    for &p in &scenarios::timed_core_counts() {
        let prob = scenarios::exec_problem(Shape::Square, p);
        for row in runner::time_all(&prob, &m) {
            let gap = 100.0 * (1.0 - row.measured_s / row.measured_no_overlap_s);
            t.row(vec![
                p.to_string(),
                row.algo.to_string(),
                fmt(row.planned_s * 1e3, 4),
                fmt(row.measured_s * 1e3, 4),
                fmt(row.ratio(), 2),
                fmt(row.planned_no_overlap_s * 1e3, 4),
                fmt(row.measured_no_overlap_s * 1e3, 4),
                fmt(gap, 1),
                fmt(row.measured_percent_peak, 2),
                if row.agrees() { "yes" } else { "NO" }.into(),
            ]);
        }
    }
    t.print();
    t.write_csv("timed").expect("write csv");
    println!(
        "\nexpectation: every row agrees — the measured time axis matches the \
         planned one the way measured MB matches planned MB.\n"
    );
}

// ---------------------------------------------------------------------------
// topo: the timed comparison under a congested fat-tree (network contention)
// ---------------------------------------------------------------------------

/// The topology experiment's scenario matrix: every executed shape at two
/// event-backend world sizes — wide enough to span the paper's shape
/// spectrum, bounded enough that flat + fat-tree + the placement sweep stay
/// in CI-scale wall time.
fn topo_matrix() -> Vec<(&'static str, Shape, usize)> {
    let shapes = [
        ("square", Shape::Square),
        ("largek", Shape::LargeK),
        ("largem", Shape::LargeM),
        ("flat", Shape::Flat),
        ("irregular", Shape::Irregular),
    ];
    let mut out = Vec::new();
    for (name, shape) in shapes {
        for p in [256usize, 1024] {
            out.push((name, shape, p));
        }
    }
    out
}

fn speedup_summary(xs: &[f64]) -> (f64, f64, f64) {
    (
        xs.iter().copied().fold(f64::INFINITY, f64::min),
        geomean(xs),
        xs.iter().copied().fold(0.0, f64::max),
    )
}

fn topo() {
    // Part 1: table4's time axis, re-simulated under the congested fat-tree.
    // Plans (and so the MB columns) are topology-blind and reproduce table4;
    // only β is scaled by the fat-tree's uniform-traffic contention
    // multiplier (`Network::mean_contention` — the plan-level mean-field
    // view of the event backend's shared-link serialization). COSMA moves
    // the fewest words, so congestion charges it the least.
    println!("== topo: table4 rerun under a congested fat-tree ==\n");
    println!(
        "(Topology::congested_fat_tree(): 4 ranks/node, 4 nodes/switch, NICs \
         provisioned for full node injection, spine 4x oversubscribed; plans stay \
         topology-blind — the time axis is re-simulated with beta scaled by the \
         fat-tree's mean-field contention multiplier, so every algorithm pays per \
         word moved and the speedup tail reopens)\n"
    );
    let m = model();
    let fat = Topology::congested_fat_tree();
    for p in [256usize, 1024, 3456] {
        let mult = mpsim::Network::compile(p, &fat, Placement::Block).mean_contention();
        println!("  contention multiplier at p = {p}: {mult:.2}x beta");
    }
    println!();
    let mut t = Table::new(&[
        "scenario",
        "summa MB",
        "p25d MB",
        "carma MB",
        "cosma MB",
        "cosma s (fat)",
        "speedup min",
        "speedup geomean",
        "speedup max",
    ]);
    // The sweep doubles table4's: its power-of-two core counts (the
    // baselines' best case — CARMA and 2.5D never pad) plus realistic whole-
    // node allocations (multiples of 36 cores, none a power of two or a
    // perfect g²·c), where the paper's §1 point bites: padded baselines idle
    // ranks and contention charges the survivors' higher per-rank volume.
    let sweeps: [(&str, Vec<usize>); 2] = [
        ("power-of-two", scenarios::comm_core_counts()),
        ("whole-node allocations", scenarios::allocation_core_counts()),
    ];
    let mut flat_by_sweep: Vec<Vec<f64>> = vec![Vec::new(); sweeps.len()];
    let mut fat_by_sweep: Vec<Vec<f64>> = vec![Vec::new(); sweeps.len()];
    for sc in scenarios::all() {
        let min_p = scenarios::strong_scaling_min_cores(&sc);
        let mut vols: Vec<Vec<f64>> = vec![Vec::new(); COMPARED.len()];
        let mut cosma_times: Vec<f64> = Vec::new();
        let mut fat_sp: Vec<f64> = Vec::new();
        for (s, (_, counts)) in sweeps.iter().enumerate() {
            for &p in counts.iter().filter(|&&p| p >= min_p) {
                let prob = (sc.problem)(p);
                let flat_rows = run_all(&prob, &m);
                let fat_rows = runner::run_all_contended(&prob, &m, &fat, Placement::Block);
                if let (Some(fs), Some(cs)) = (cosma_speedup(&flat_rows), cosma_speedup(&fat_rows)) {
                    flat_by_sweep[s].push(fs);
                    fat_by_sweep[s].push(cs);
                    fat_sp.push(cs);
                }
                for (i, &algo) in COMPARED.iter().enumerate() {
                    if let Some(r) = find(&fat_rows, algo) {
                        vols[i].push(r.mean_mb);
                    }
                }
                if let Some(r) = find(&fat_rows, AlgoId::Cosma) {
                    cosma_times.push(r.time_s);
                }
            }
        }
        if fat_sp.is_empty() {
            continue;
        }
        let avg = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let col = |algo: AlgoId| avg(&vols[COMPARED.iter().position(|&a| a == algo).unwrap()]);
        let (mn, gm, mx) = speedup_summary(&fat_sp);
        t.row(vec![
            sc.id.into(),
            fmt(col(AlgoId::Summa), 0),
            fmt(col(AlgoId::P25d), 0),
            fmt(col(AlgoId::Carma), 0),
            fmt(col(AlgoId::Cosma), 0),
            fmt(avg(&cosma_times), 2),
            fmt(mn, 2),
            fmt(gm, 2),
            fmt(mx, 2),
        ]);
    }
    t.print();
    t.write_csv("topo").expect("write csv");
    println!("\noverall cosma speedup (simulated time over best other):");
    for (s, (name, _)) in sweeps.iter().enumerate() {
        let (fmn, fgm, fmx) = speedup_summary(&flat_by_sweep[s]);
        let (cmn, cgm, cmx) = speedup_summary(&fat_by_sweep[s]);
        println!("  {name}:");
        println!("    flat:     min {fmn:.2} geomean {fgm:.2} max {fmx:.2}");
        println!("    fat-tree: min {cmn:.2} geomean {cgm:.2} max {cmx:.2}");
    }
    let all_flat: Vec<f64> = flat_by_sweep.concat();
    let all_fat: Vec<f64> = fat_by_sweep.concat();
    let (fmn, fgm, fmx) = speedup_summary(&all_flat);
    let (cmn, cgm, cmx) = speedup_summary(&all_fat);
    println!("  all points:");
    println!("    flat:     min {fmn:.2} geomean {fgm:.2} max {fmx:.2}");
    println!("    fat-tree: min {cmn:.2} geomean {cgm:.2} max {cmx:.2} (paper: 1.07 / 2.17 / 12.81)");
    println!(
        "\nexpectation: the fat-tree geomean clears 1.3 over all points and sits \
         above the flat geomean on every sweep — contention amplifies COSMA's \
         volume advantage instead of compressing it.\n"
    );

    // Part 2: the executed cross-check — the same contention charged for
    // real by the event backend's per-link virtual clocks, on the bounded
    // executable matrix. These worlds are latency-dominated (tiny per-rank
    // blocks), so the columns validate the machinery — flat reproduced
    // bitwise elsewhere, fat-tree strictly slower — rather than the paper's
    // bandwidth-regime speedups.
    println!("-- executed: event backend, flat vs congested fat-tree --\n");
    let mut et = Table::new(&["scenario", "cores", "algorithm", "flat ms", "fat ms", "fat/flat"]);
    for (name, shape, p) in topo_matrix() {
        let prob = scenarios::exec_problem(shape, p);
        let flat_rows = runner::time_all(&prob, &m);
        let fat_rows = runner::time_all_topo(&prob, &m, &fat, Placement::Block);
        for (f, c) in flat_rows.iter().zip(&fat_rows) {
            assert_eq!(f.algo, c.algo, "row sets must align");
            et.row(vec![
                name.into(),
                p.to_string(),
                f.algo.to_string(),
                fmt(f.measured_s * 1e3, 4),
                fmt(c.measured_s * 1e3, 4),
                fmt(c.measured_s / f.measured_s, 2),
            ]);
        }
    }
    et.print();
    et.write_csv("topo-executed").expect("write csv");
    println!("\nexpectation: fat/flat > 1 on every row — contention only ever costs time.\n");

    // The placement sweep: the same fat-tree, Block vs RoundRobin. Block
    // packs consecutive ranks onto a node (grid neighbours share injection
    // links but most row/column traffic stays intra-node); RoundRobin
    // spreads consecutive ranks across nodes (neighbour traffic all crosses
    // the NICs). The gap between the two columns is the placement signal.
    println!("-- placement sweep: square p = 1024, congested fat-tree --\n");
    let prob = scenarios::exec_problem(Shape::Square, 1024);
    let mut pt = Table::new(&["algorithm", "block ms", "round-robin ms", "rr/block"]);
    let block = runner::time_all_topo(&prob, &m, &fat, Placement::Block);
    let rr = runner::time_all_topo(&prob, &m, &fat, Placement::RoundRobin);
    for (b, r) in block.iter().zip(&rr) {
        assert_eq!(b.algo, r.algo, "row sets must align");
        pt.row(vec![
            b.algo.to_string(),
            fmt(b.measured_s * 1e3, 4),
            fmt(r.measured_s * 1e3, 4),
            fmt(r.measured_s / b.measured_s, 2),
        ]);
    }
    pt.print();
    pt.write_csv("topo-placement").expect("write csv");
    println!(
        "\nexpectation: placement moves every algorithm's measured time — rank \
         layout is a first-class knob once links are shared.\n"
    );
}

// ---------------------------------------------------------------------------
// mem-sweep: CARMA traffic vs per-rank memory S (the limited-memory regime)
// ---------------------------------------------------------------------------

fn mem_sweep() {
    println!("== mem-sweep: executed CARMA under a shrinking memory budget S ==\n");
    println!(
        "(fixed 128^3 problem at p = 64; every run enforces S as a hard per-rank \
         budget — the DFS prefix re-fetches inputs per sequential leaf, so \
         traffic rises as S falls while the measured peak stays within S)\n"
    );
    let m = model();
    let p = 64;
    let carma = runner::registry().by_id(AlgoId::Carma).expect("registry has CARMA");
    let mut t = Table::new(&[
        "S words",
        "dfs leaves",
        "planned MB",
        "measured MB",
        "exact",
        "peak words",
        "within S",
    ]);
    for &s in &scenarios::mem_sweep_budgets() {
        let prob = scenarios::mem_starved_problem(p, s);
        let leaves = baselines::carma::dfs_leaf_count(&prob);
        let rows =
            runner::execute_budgeted_with(std::slice::from_ref(&carma), &prob, &m, ExecBackend::event());
        let row = rows
            .iter()
            .find(|r| r.algo == AlgoId::Carma)
            .unwrap_or_else(|| panic!("CARMA must execute budgeted at S = {s}"));
        t.row(vec![
            s.to_string(),
            leaves.to_string(),
            fmt(row.planned_mb, 2),
            fmt(row.measured_mb, 2),
            if row.exact { "yes" } else { "NO" }.into(),
            row.peak_mem_words.to_string(),
            if row.within_mem { "yes" } else { "NO" }.into(),
        ]);
    }
    t.print();
    t.write_csv("mem-sweep").expect("write csv");
    println!(
        "\nexpectation (paper §6.2): halving S past the pure-BFS leaf footprint \
         doubles the DFS leaf count and raises traffic toward the sqrt(3) \
         re-fetching factor, with peak <= S on every row.\n"
    );
}

// ---------------------------------------------------------------------------
// serve: the planning-as-a-service benchmark
// ---------------------------------------------------------------------------

fn serve_metrics_table(metrics: &bench::serve_bench::ServeMetrics) -> Table {
    let algos = metrics.algos_selected.iter().map(|a| a.as_str()).collect::<Vec<_>>().join("+");
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["jobs".into(), metrics.jobs.to_string()]);
    t.row(vec!["unique plan keys".into(), metrics.unique_keys.to_string()]);
    t.row(vec!["backend".into(), metrics.backend.to_string()]);
    t.row(vec!["cold plans/s".into(), fmt(metrics.cold_plans_per_s, 0)]);
    t.row(vec!["cached plans/s".into(), fmt(metrics.cached_plans_per_s, 0)]);
    t.row(vec![
        "plan speedup (cached/cold)".into(),
        fmt(metrics.plan_speedup(), 1),
    ]);
    t.row(vec!["jobs/s (concurrent)".into(), fmt(metrics.jobs_per_s, 1)]);
    t.row(vec!["jobs/s (serial)".into(), fmt(metrics.serial_jobs_per_s, 1)]);
    t.row(vec![
        "concurrency speedup".into(),
        fmt(metrics.jobs_per_s / metrics.serial_jobs_per_s, 2),
    ]);
    t.row(vec!["cache hits".into(), metrics.hits.to_string()]);
    t.row(vec!["cache misses".into(), metrics.misses.to_string()]);
    t.row(vec!["hit rate".into(), fmt(metrics.hit_rate, 3)]);
    t.row(vec!["algorithms selected".into(), algos]);
    t.row(vec!["all match serial".into(), metrics.all_match_serial.to_string()]);
    t
}

fn serve_experiment() {
    println!("== serve: planning-as-a-service — cold vs cached plans/s, concurrent jobs/s ==\n");
    println!(
        "(mixed stream over {} unique (problem, choice) keys: auto selection over \
         the full registry plus tenant-restricted subsets; every concurrent result \
         compared bitwise against a serial run)\n",
        bench::serve_bench::unique_combos().len()
    );
    let metrics = bench::serve_bench::measure(96, backend_override());
    let t = serve_metrics_table(&metrics);
    t.print();
    t.write_csv("serve").expect("write csv");
    println!(
        "\nexpectation: cached planning orders of magnitude above cold, hit rate > 0, \
         >= 3 algorithms selected, every result bitwise-identical to serial.\n"
    );
}

// ---------------------------------------------------------------------------
// faults: completion rate and recovery overhead under injected rank death
// ---------------------------------------------------------------------------

/// The `faults` experiment: a fixed 64-rank COSMA world served under seeded
/// [`serve::FaultPlan`]s of increasing severity. Every severity level runs
/// a batch of seeds twice — once without a retry policy (completion means
/// the run happened to survive its faults) and once under
/// `RetryPolicy::attempts(3)`, where the driver catches the typed
/// `RankFailed`, re-fits the problem to the surviving p′ and re-runs clean.
/// Reported per level: both completion rates, mean attempts, the degraded
/// fraction, and the recovered run's virtual-clock overhead over the clean
/// 64-rank world (fewer ranks doing the same work).
fn faults_experiment() {
    use densemat::matrix::Matrix;
    use serve::{FaultPlan, JobRequest, RetryPolicy, Server, ServerConfig};

    println!("== faults: injected rank death, recovery by replanning the survivors ==\n");
    let p = 64;
    let prob = MmmProblem::new(96, 96, 96, p, 1 << 14);
    let a = Matrix::deterministic(prob.m, prob.k, 21);
    let b = Matrix::deterministic(prob.k, prob.n, 22);
    let server = Server::new(baselines::registry(), ServerConfig::default()).unwrap();

    // The zero-fault reference clock. Fault horizons derive from it (half
    // the clean makespan, deaths landing in its middle 80%), so the
    // scheduled deaths fall squarely mid-run whatever the cost model says.
    let clean = server
        .run_sync(JobRequest::new(0, prob, a.clone(), b.clone()).backend(ExecBackend::event()))
        .outcome
        .expect("the clean reference run is feasible");
    let t_clean = clean.report.measured_time_s();
    assert!(t_clean > 0.0, "the event backend measures a virtual clock");
    let horizon = t_clean / 2.0;
    println!(
        "(square {}^3, p = {p}, event backend; clean virtual makespan {} ms, fault \
         horizon {} ms; 8 seeds per level, each served without and with retry)\n",
        prob.m,
        fmt(t_clean * 1e3, 4),
        fmt(horizon * 1e3, 4)
    );

    let seeds_per_level: u64 = 8;
    let mut t = Table::new(&[
        "kills",
        "survivors",
        "ok no-retry",
        "ok retry",
        "mean attempts",
        "degraded",
        "time overhead",
    ]);
    let mut next_id = 1u64;
    for kills in [0usize, 1, 2, 4, 8, 16] {
        let mut ok_plain = 0usize;
        let mut ok_retry = 0usize;
        let mut attempts_sum = 0usize;
        let mut degraded = 0usize;
        let mut overhead_sum = 0.0;
        let mut overhead_n = 0usize;
        for s in 0..seeds_per_level {
            let plan = FaultPlan::new(0xFA57 + 101 * s).kill_exactly(kills, horizon);
            let plain = server.run_sync(JobRequest::new(next_id, prob, a.clone(), b.clone()).faults(plan));
            next_id += 1;
            if plain.outcome.is_ok() {
                ok_plain += 1;
            }
            let retried = server.run_sync(
                JobRequest::new(next_id, prob, a.clone(), b.clone())
                    .faults(plan)
                    .retry(RetryPolicy::attempts(3)),
            );
            next_id += 1;
            attempts_sum += retried.attempts;
            if retried.degraded {
                degraded += 1;
            }
            if let Ok(out) = &retried.outcome {
                ok_retry += 1;
                overhead_sum += out.report.measured_time_s() / t_clean;
                overhead_n += 1;
            }
        }
        let n = seeds_per_level as usize;
        t.row(vec![
            kills.to_string(),
            (p - kills).to_string(),
            format!("{ok_plain}/{n}"),
            format!("{ok_retry}/{n}"),
            fmt(attempts_sum as f64 / n as f64, 2),
            format!("{degraded}/{n}"),
            fmt(overhead_sum / overhead_n.max(1) as f64, 3),
        ]);
    }
    t.print();
    t.write_csv("faults").expect("write csv");
    println!(
        "\nexpectation: without a retry policy completion collapses the moment any rank \
         dies; with recovery every job completes on the surviving world, one extra \
         attempt, at a modest virtual-time overhead.\n"
    );
    let _ = server.shutdown();
}

// ---------------------------------------------------------------------------
// bench-smoke: the CI gate — one deterministic record, rebuilt and compared
// ---------------------------------------------------------------------------

/// Rebuild the gate record and print it, floats rounded for reading.
fn smoke_record() -> Record {
    let record = Record::smoke();
    record.table(|x| fmt(x, 4)).print();
    record
}

fn gate_verdict(failures: &[String], pass: &str) {
    if failures.is_empty() {
        println!("\n{pass}\n");
    } else {
        eprintln!("\nbench-smoke gate: FAIL");
        for f in failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

fn bench_smoke_baseline() {
    println!("== bench-smoke-baseline: (re)recording the committed gate record ==\n");
    let record = smoke_record();
    // A record that breaks its own contracts is never recorded.
    gate_verdict(&record.contracts(), "every structural contract holds");
    let path = record.write().expect("write the record");
    println!("wrote {} — commit it, and say in the commit what moved and why.\n", path.display());
}

fn bench_smoke() {
    println!("== bench-smoke: the deterministic gate record, rebuilt and compared byte for byte ==\n");
    let record = smoke_record();
    let mut failures = record.contracts();
    let path = baseline::committed_path();
    match baseline::committed() {
        Ok(committed) => {
            let moved = baseline::diff(&committed, &record.render());
            if !moved.is_empty() {
                failures.push(format!(
                    "the rebuilt record differs from {} in {} place(s); if the move is intended, run \
                     `experiments bench-smoke-baseline` and commit the file. The first:",
                    path.display(),
                    moved.len()
                ));
                failures.extend(moved.into_iter().take(10));
            }
        }
        Err(e) => failures
            .push(format!("{}: {e} — run `experiments bench-smoke-baseline` and commit it", path.display())),
    }
    gate_verdict(
        &failures,
        "bench-smoke gate: PASS (every contract holds; byte-identical to the committed record)",
    );
}

// ---------------------------------------------------------------------------
// exec-rss: per-backend peak RSS at p = 4096
// ---------------------------------------------------------------------------

/// Peak resident set of this process in KiB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn exec_rss(backend_name: &str) {
    let p = 4096;
    let backend: ExecBackend = backend_name.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!("== exec-rss: COSMA square p = {p} on {backend} ==\n");
    let m = model();
    let cosma = runner::registry().by_id(AlgoId::Cosma).expect("registry has COSMA");
    let prob = scenarios::exec_problem(Shape::Square, p);
    let before = peak_rss_kib().unwrap_or(0);
    let rows = runner::execute_with(&[cosma], &prob, &m, backend);
    let after = peak_rss_kib().unwrap_or(0);
    let mut t = executed_table();
    push_executed_rows(&mut t, "square", p, &rows);
    t.print();
    println!(
        "\npeak RSS: {:.1} MiB (baseline before run {:.1} MiB; ~{:.1} KiB per rank)\n",
        after as f64 / 1024.0,
        before as f64 / 1024.0,
        (after.saturating_sub(before)) as f64 / p as f64
    );
}

fn run(id: &str) {
    match id {
        "fig1" => fig1(),
        "fig3" => fig3(),
        "fig5" => fig5(),
        "fig6" => comm_volume_figure("fig6", "square"),
        "fig7" => comm_volume_figure("fig7", "largek"),
        "fig7m" => comm_volume_figure("fig7m", "largem"),
        "fig7f" => comm_volume_figure("fig7f", "flat"),
        "fig8" => perf_figure("fig8", "square", "percent-peak"),
        "fig9" => perf_figure("fig9", "square", "runtime-ms"),
        "fig10" => perf_figure("fig10", "largek", "percent-peak"),
        "fig11" => perf_figure("fig11", "largek", "runtime-ms"),
        "fig12" => fig12(),
        "fig13" => distribution_figure("fig13", ["flat", "square"]),
        "fig14" => distribution_figure("fig14", ["largek", "largem"]),
        "table3" => table3(),
        "table4" => table4(),
        "exec" => exec_experiment(),
        "exec-xl" => exec_xl(),
        "exec-xxl" => exec_xxl(),
        "timed" => timed(),
        "topo" => topo(),
        "mem-sweep" => mem_sweep(),
        "serve" => serve_experiment(),
        "faults" => faults_experiment(),
        "bench-smoke" => bench_smoke(),
        "bench-smoke-baseline" => bench_smoke_baseline(),
        other => {
            eprintln!("unknown experiment id: {other}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--backend <blocking|blocking(N)|event|event(N)>` pins the execution
    // backend of the experiments that would otherwise pick one automatically.
    if let Some(i) = args.iter().position(|a| a == "--backend") {
        let Some(name) = args.get(i + 1) else {
            eprintln!("--backend needs a value (blocking | blocking(N) | event | event(N))");
            std::process::exit(2);
        };
        match name.parse::<ExecBackend>() {
            Ok(backend) => {
                let _ = BACKEND_OVERRIDE.set(backend);
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        args.drain(i..=i + 1);
    }
    if args.is_empty() {
        eprintln!(
            "usage: experiments [--backend <name>] <id>...  (ids: fig1 fig3 fig5 fig6 fig7 \
             fig7m fig7f fig8 fig9 fig10 fig11 fig12 fig13 fig14 table3 table4 exec exec-xl \
             exec-xxl timed topo mem-sweep serve faults | all | bench-smoke | \
             bench-smoke-baseline | exec-rss <blocking|event>)"
        );
        std::process::exit(2);
    }
    // exec-xxl is deliberately not in `all`: its million-rank worlds take
    // tens of minutes per row — run it explicitly.
    let all_ids = [
        "fig3",
        "fig5",
        "table3",
        "exec",
        "exec-xl",
        "timed",
        "topo",
        "mem-sweep",
        "serve",
        "faults",
        "fig6",
        "fig7",
        "fig7m",
        "fig7f",
        "fig12",
        "table4",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig13",
        "fig14",
        "fig1",
    ];
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "all" {
            for id in all_ids {
                run(id);
            }
        } else if arg == "exec-rss" {
            let backend = it.next().map(String::as_str).unwrap_or("event");
            exec_rss(backend);
        } else {
            run(arg);
        }
    }
}
