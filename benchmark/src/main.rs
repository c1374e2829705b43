//! The repo's benchmark. One process runs one workload and prints every
//! metric by name with its unit, then the result as one JSON line:
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! benchmark --all [--seed N] [--seconds S] [--trace [0|1]]   every workload, one child process each
//! benchmark --smoke                                          K = 1 on reduced sizes, all checks on
//! benchmark --aa [N] [--workload <name>]                     the A/A noise protocol
//! benchmark --manifest                                       print BENCHMARK.json
//! ```
//!
//! `README.md` beside this package says why each workload and metric exists.

mod calibrate;
mod checks;
mod json;
mod layers;
mod procfs;
mod protocol;
mod run;
mod spec;
mod stats;
mod stream;
mod sweep;
mod trace;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

use calibrate::Calibrator;
use json::Value;
use run::{Measured, Opts};
use spec::{Kind, Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::{median, tail_percentile};

/// Where the traced run of `workload` writes its spans: inside the package,
/// relative to the directory the benchmark is run from (the repo root).
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(format!("benchmark/out/trace-{workload}.json"))
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    all: bool,
    aa: Option<usize>,
    manifest: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter().peekable();
    // A flag's value, when the next argument is one rather than another flag.
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
        it.next_if(|a| !a.starts_with("--")).cloned()
    };
    while let Some(arg) = it.next() {
        let number = |flag: &str, text: Option<String>| -> Result<u64, String> {
            let text = text.ok_or(format!("{flag} needs a value"))?;
            text.parse().map_err(|_| format!("{flag}: {text:?} is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value(&mut it).ok_or("--workload needs a name")?),
            "--seed" => out.seed = Some(number("--seed", value(&mut it))?),
            "--seconds" => match number("--seconds", value(&mut it))? {
                s @ 1..=60 => out.seconds = Some(s),
                s => return Err(format!("--seconds {s} is outside 1..=60")),
            },
            "--trace" => match value(&mut it).as_deref() {
                None | Some("1") => out.trace = true,
                Some("0") => out.trace = false,
                Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            },
            "--aa" => match value(&mut it) {
                None => out.aa = Some(10),
                Some(n) => match number("--aa", Some(n))? {
                    n @ 2..=100 => out.aa = Some(n as usize),
                    n => return Err(format!("--aa {n} is outside 2..=100")),
                },
            },
            "--smoke" => out.smoke = true,
            "--all" => out.all = true,
            "--manifest" => out.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn run_workload(w: &Workload, opts: &Opts, cal: &mut Calibrator) -> Result<Measured, String> {
    match w.kind {
        Kind::World {
            algo,
            dims,
            smoke,
            work,
        } => world::run(w, algo, if opts.smoke { smoke } else { dims }, work, opts, cal),
        Kind::Sweep { ps, smoke_ps } => sweep::run(w, if opts.smoke { smoke_ps } else { ps }, opts, cal),
        Kind::Stream {
            warm_up,
            smoke_jobs,
            smoke_warm_up,
        } => {
            let (jobs, warm_up) = if opts.smoke {
                (smoke_jobs, smoke_warm_up)
            } else {
                (w.k(opts.seconds), warm_up)
            };
            stream::run(w, jobs as u64, warm_up as u64, opts, cal)
        }
    }
}

/// The named metrics of a run, in table order: the end-to-end ones of an
/// untraced run, the per-layer ones of a traced run.
///
/// Every end-to-end time is scaled by `cal`'s speed: it is what the
/// reference box at its usual speed would have measured (see `calibrate`).
/// Per-layer numbers are as measured, with the speed beside them.
fn metrics(m: &Measured, trace: bool, cal: &Calibrator) -> Vec<(&'static str, f64, &'static str)> {
    let speed = cal.speed();
    if !trace {
        let value = |name: &str| match name {
            "setup_s" => median(&m.setup_s) * speed,
            "wall_s" => m.wall_s * speed,
            "cpu_s" => m.cpu_s * speed,
            "peak_rss_mib" => (procfs::vm_hwm_kib() - cal.resident_kib()) as f64 / 1024.0,
            "throughput" => m.work / (m.wall_s * speed),
            "lat_p50_ms" => median(&m.lat_s) * 1e3 * speed,
            other => unreachable!("no rule for end-to-end metric {other}"),
        };
        return END_TO_END.iter().map(|e| (e.name, value(e.name), e.unit)).collect();
    }
    let value = |name: &str| match name {
        "iter_min_ms" => m.lat_s.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        "iter_max_ms" => m.lat_s.iter().copied().fold(0.0, f64::max) * 1e3,
        "ops_timed" => m.lat_s.len() as f64,
        "machine.speed" => speed,
        // Only a stream has the samples for a tail; the iteration workloads have at most 32.
        "serve.lat_p90_ms" => tail_percentile(&m.lat_s, 0.90).map_or(0.0, |s| s * 1e3),
        "serve.lat_p99_ms" => tail_percentile(&m.lat_s, 0.99).map_or(0.0, |s| s * 1e3),
        // A layer the workload does not reach reads 0.
        other => m.layers.get(other).copied().unwrap_or(0.0),
    };
    PER_LAYER.iter().map(|l| (l.name, value(l.name), l.unit)).collect()
}

fn result_line(m: &Measured, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (name, Value::obj(vec![("value", Value::Num(value)), ("unit", Value::str(unit))]))
        })
        .collect();
    Value::obj(vec![
        ("correct", Value::Bool(m.tally.failed == 0)),
        ("attempted", Value::Num(m.tally.attempted as f64)),
        ("failed", Value::Num(m.tally.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
    .to_line()
}

fn run_one(w: &Workload, opts: &Opts) -> Result<bool, String> {
    let mut cal = Calibrator::new();
    cal.slice();
    let measured = run_workload(w, opts, &mut cal)?;
    if measured.tally.attempted == 0 {
        return Err("no operation was attempted".to_string());
    }
    let metrics = metrics(&measured, opts.trace, &cal);
    println!(
        "# {}{}{} seed {} ({} timed operations, {} checked, {} failed)",
        w.name,
        if opts.trace { " traced" } else { "" },
        if opts.smoke {
            " SMOKE: reduced sizes, numbers not comparable with any other run"
        } else {
            ""
        },
        opts.seed,
        measured.lat_s.len(),
        measured.tally.attempted,
        measured.tally.failed
    );
    for &(name, value, unit) in &metrics {
        // A layer the workload does not reach reads 0; the result line has it, the table leaves it out.
        if opts.trace && value == 0.0 {
            continue;
        }
        let samples = match name {
            "lat_p50_ms" | "serve.lat_p90_ms" | "serve.lat_p99_ms" => {
                format!("  ({} samples)", measured.lat_s.len())
            }
            "setup_s" => format!("  (median of {})", measured.setup_s.len()),
            _ => String::new(),
        };
        println!("{name:<32} {value:>18.6} {unit}{samples}");
    }
    println!(
        "{:<32} {:>18.6} ratio",
        "fail_share",
        measured.tally.failed as f64 / measured.tally.attempted as f64
    );
    let [fma_s, chase_s, alloc_s] = cal.slice_s();
    println!(
        "machine speed {:.4} of the reference box (calibration slices: arithmetic {:.2} ms, loads {:.2} ms, allocator {:.2} ms); unscaled wall_s {:.6}",
        cal.speed(),
        fma_s * 1e3,
        chase_s * 1e3,
        alloc_s * 1e3,
        measured.wall_s
    );
    for note in &measured.notes {
        println!("{note}");
    }
    println!("{}", result_line(&measured, &metrics));
    Ok(measured.tally.failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\nsee the head of benchmark/src/main.rs for the arguments");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", spec::manifest().to_pretty());
        return ExitCode::SUCCESS;
    }
    let seconds = args.seconds.unwrap_or(RUN_SECONDS);
    let only = match args.workload.as_deref().map(|name| spec::workload(name).ok_or(name)) {
        None => None,
        Some(Ok(w)) => Some(w),
        Some(Err(name)) => {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("benchmark: no workload {name:?}; there are {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    let ok = if let Some(n) = args.aa {
        protocol::aa(n, seconds, only)
    } else if let (Some(w), false) = (only, args.all) {
        let opts = Opts {
            seed: args.seed.unwrap_or(1),
            seconds,
            trace: args.trace,
            smoke: args.smoke,
        };
        run_one(w, &opts).unwrap_or_else(|e| {
            eprintln!("benchmark: {} did not run: {e}", w.name);
            false
        })
    } else if args.all || args.smoke {
        protocol::all(args.seed.unwrap_or(1), seconds, args.trace, args.smoke)
    } else {
        eprintln!("benchmark: give --workload <name>, --all, --smoke, --aa or --manifest");
        return ExitCode::from(2);
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload cosma-xl --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("cosma-xl"), Some(7), Some(10), false)
        );
        assert!(args("--workload serve-stream --seed 1 --seconds 10 --trace 1").unwrap().trace);
        // A bare --trace is the traced run, also when another flag follows it.
        assert!(args("--trace --workload plan-sweep").unwrap().trace);
        assert_eq!(args("--aa").unwrap().aa, Some(10));
        assert_eq!(args("--aa 4 --workload cosma-dense").unwrap().aa, Some(4));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--aa 1",
            "--frobnicate",
            "--seed",
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn an_untraced_run_reports_every_gated_metric_and_a_traced_one_every_layer() {
        let mut m = Measured {
            setup_s: vec![0.5, 0.4, 0.6],
            lat_s: vec![1.0, 2.0, 4.0],
            wall_s: 7.0,
            cpu_s: 6.5,
            work: 21.0,
            ..Measured::new("test")
        };
        m.tally.attempted = 3;
        // A calibrator that ran at exactly the reference speed scales nothing.
        let mut cal = Calibrator::new();
        cal.slice();
        let speed = cal.speed();
        let e2e = metrics(&m, false, &cal);
        assert_eq!(
            e2e.iter().map(|m| m.0).collect::<Vec<_>>(),
            END_TO_END.iter().map(|e| e.name).collect::<Vec<_>>()
        );
        let get = |name: &str| e2e.iter().find(|m| m.0 == name).unwrap().1;
        let close = |got: f64, want: f64| (got / want - 1.0).abs() < 1e-12;
        assert!(
            close(get("setup_s"), 0.5 * speed)
                && close(get("wall_s"), 7.0 * speed)
                && close(get("cpu_s"), 6.5 * speed)
        );
        assert!(close(get("throughput"), 3.0 / speed) && close(get("lat_p50_ms"), 2000.0 * speed));
        assert!(e2e.iter().all(|m| m.1 > 0.0), "a gated metric is never 0");

        let layers = metrics(&m, true, &cal);
        assert_eq!(layers.len(), PER_LAYER.len());
        let get = |name: &str| layers.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(
            (get("iter_min_ms"), get("iter_max_ms"), get("ops_timed"), get("serve.cache.hits")),
            (1000.0, 4000.0, 3.0, 0.0)
        );
        assert_eq!(
            (get("serve.lat_p99_ms"), get("machine.speed")),
            (0.0, speed),
            "three samples have no tail"
        );

        let line = json::parse(&result_line(&m, &e2e)).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Value::as_f64), Some(3.0));
        let wall = line.get("metrics").and_then(|x| x.get("wall_s")).unwrap();
        assert_eq!(
            (wall.get("value"), wall.get("unit")),
            (Some(&Value::Num(7.0 * speed)), Some(&Value::str("s")))
        );
    }
}
