//! Print the paper's evaluation: `experiments <id>...` or `experiments all`.
//!
//! The ids (`fig1 fig3 fig5 fig6 … table4 timed topo mem-sweep faults`,
//! [`bench::baseline::SECTIONS`]; `all` is every one of them) print their
//! section of the one record, [`bench::baseline::Record`]: its lines, floats
//! rounded, and what the render derives from them.
//!
//! `bench-smoke`, the CI gate, rebuilds the whole record
//! ([`bench::baseline::Record::full`]), checks its contracts and compares it
//! with the committed `results/bench-smoke-baseline.csv` byte for byte,
//! exiting non-zero and naming the lines on a breach or a differing byte;
//! `bench-smoke-baseline` regenerates that file. Nothing here measures host
//! time: that is `benchmark/`'s job.

use bench::baseline::{self, Record, SECTIONS};
use bench::output::fmt;

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let section_ids = SECTIONS.map(|(id, _)| id);
    if args.is_empty() {
        eprintln!(
            "usage: experiments <id>...  (ids: {} | all | bench-smoke | bench-smoke-baseline)",
            section_ids.join(" ")
        );
        std::process::exit(2);
    }
    let mut sectioned = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "all" => sectioned.extend(section_ids),
            "bench-smoke" => bench_smoke(),
            "bench-smoke-baseline" => bench_smoke_baseline(),
            id if section_ids.contains(&id) => sectioned.push(id),
            other => {
                eprintln!("unknown experiment id: {other}");
                std::process::exit(2);
            }
        }
    }
    if !sectioned.is_empty() {
        sections(&sectioned);
    }
}
