//! Print the paper's evaluation and run the host-time experiments:
//! `experiments <id>...` or `experiments all`.
//!
//! The deterministic ids (`fig1 fig3 fig5 fig6 … table4 timed topo mem-sweep
//! faults`, [`bench::baseline::SECTIONS`]) print their section of the one
//! record, [`bench::baseline::Record`]: its lines, floats rounded, and what
//! the render derives from them. The host-time ids print one run's
//! wall-clock, outside any noise protocol, and write CSVs to `results/`:
//! `exec`, `exec-xl`, `serve` (all three in `all`), `exec-xxl` and
//! `exec-rss <blocking|event>` (peak RSS at p = 4096). `--backend
//! <blocking|blocking(N)|event|event(N)>` pins `exec`'s and `serve`'s
//! backend.
//!
//! `bench-smoke`, the CI gate, rebuilds the whole record
//! ([`bench::baseline::Record::full`]), checks its contracts and compares it
//! with the committed `results/bench-smoke-baseline.csv` byte for byte,
//! exiting non-zero and naming the lines on a breach or a differing byte;
//! `bench-smoke-baseline` regenerates that file. Neither measures host time:
//! that is `benchmark/`'s job.

use bench::baseline::{self, Record, SECTIONS};
use bench::output::{fmt, Table};
use bench::runner;
use bench::scenarios;
use cosma::api::AlgoId;
use cosma::problem::Shape;
use mpsim::cost::CostModel;
use mpsim::exec::ExecBackend;

fn model() -> CostModel {
    CostModel::piz_daint_two_sided()
}

/// The `--backend <name>` flag: when set, experiments that would pick a
/// backend automatically run on this one instead.
static BACKEND_OVERRIDE: std::sync::OnceLock<ExecBackend> = std::sync::OnceLock::new();

fn backend_override() -> Option<ExecBackend> {
    BACKEND_OVERRIDE.get().copied()
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
}

// ---------------------------------------------------------------------------
// bench-smoke: the CI gate — one deterministic record, rebuilt and compared
// ---------------------------------------------------------------------------

/// Rebuild the whole record and print it, floats rounded for reading.
fn full_record() -> Record {
    let record = Record::full();
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
    println!("== bench-smoke-baseline: (re)recording the committed record ==\n");
    let record = full_record();
    // A record that breaks its own contracts is never recorded.
    gate_verdict(&record.contracts(), "every contract holds");
    let path = record.write().expect("write the record");
    println!("wrote {} — commit it, and say in the commit what moved and why.\n", path.display());
}

fn bench_smoke() {
    println!("== bench-smoke: the deterministic record, rebuilt and compared byte for byte ==\n");
    let record = full_record();
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

/// Print the record's sections `ids`, building what they show once.
fn sections(ids: &[&str]) {
    let mut record = Record::default();
    record.add_sections(ids);
    for &id in ids {
        let (_, title) = SECTIONS.iter().find(|(s, _)| *s == id).expect("a section id");
        println!("== {id}: {title} ==\n");
        let (lines, derived) = record.section(id);
        if let Some(lines) = lines {
            lines.print();
            println!();
        }
        for d in derived {
            println!("  {d}");
        }
        println!();
    }
}

fn run(id: &str) {
    match id {
        "exec" => exec_experiment(),
        "exec-xl" => exec_xl(),
        "exec-xxl" => exec_xxl(),
        "serve" => serve_experiment(),
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
    let section_ids = SECTIONS.map(|(id, _)| id);
    if args.is_empty() {
        eprintln!(
            "usage: experiments [--backend <name>] <id>...  (ids: {} exec exec-xl exec-xxl serve | all | \
             bench-smoke | bench-smoke-baseline | exec-rss <blocking|event>)",
            section_ids.join(" ")
        );
        std::process::exit(2);
    }
    // exec-xxl is deliberately not in `all`: its million-rank worlds take
    // tens of minutes per row — run it explicitly.
    let mut sectioned = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "all" => {
                ["exec", "exec-xl", "serve"].into_iter().for_each(run);
                sectioned.extend(section_ids);
            }
            "exec-rss" => exec_rss(it.next().unwrap_or("event")),
            id if section_ids.contains(&id) => sectioned.push(id),
            id => run(id),
        }
    }
    if !sectioned.is_empty() {
        sections(&sectioned);
    }
}
