//! Runs made of runs: every workload in sequence, and the A/A noise
//! protocol. Each run is a child process of this same binary, so
//! `peak_rss_mib` is per workload and one run's allocator state cannot
//! reach the next.

use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::spec::{Workload, END_TO_END, WORKLOADS};
use crate::stats::quartiles;

struct ChildRun<'a> {
    workload: &'a Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

impl ChildRun<'_> {
    fn command(&self) -> Result<Command, String> {
        let exe = std::env::current_exe().map_err(|e| format!("finding this executable: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", self.workload.name]);
        cmd.args([
            "--seed",
            &self.seed.to_string(),
            "--seconds",
            &self.seconds.to_string(),
        ]);
        cmd.args(["--trace", if self.trace { "1" } else { "0" }]);
        if self.smoke {
            cmd.arg("--smoke");
        }
        Ok(cmd)
    }

    /// Run with the child's report going where this process's does.
    fn passes(&self) -> Result<bool, String> {
        let status = self
            .command()?
            .status()
            .map_err(|e| format!("running {}: {e}", self.workload.name))?;
        Ok(status.success())
    }

    /// Run quietly and hand back the child's result line.
    fn result(&self) -> Result<Value, String> {
        let name = self.workload.name;
        let out = self
            .command()?
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("{name} seed {} exited with {}:\n{stdout}", self.seed, out.status));
        }
        let line = stdout.lines().last().ok_or(format!("{name} printed nothing"))?;
        json::parse(line).map_err(|e| format!("{name}: the result line does not parse: {e}"))
    }
}

/// Every workload in sequence. False when any failed.
pub fn all(seed: u64, seconds: u64, trace: bool, smoke: bool) -> bool {
    let mut ok = true;
    for workload in &WORKLOADS {
        // A traced pass follows the untraced one: end-to-end numbers never come from a traced run.
        for trace in [false, true].into_iter().filter(|&t| trace || !t) {
            let run = ChildRun {
                workload,
                seed,
                seconds,
                trace,
                smoke,
            };
            match run.passes() {
                Ok(passed) => ok &= passed,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ok = false;
                }
            }
            println!();
        }
    }
    ok
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Median and quartile spread (Q3 − Q1 as a share of the median) of a set.
struct SetStats {
    q: [f64; 3],
}

impl SetStats {
    fn of(values: &[f64]) -> Option<SetStats> {
        quartiles(values).map(|q| SetStats { q })
    }

    fn median(&self) -> f64 {
        self.q[1]
    }

    fn spread(&self) -> f64 {
        (self.q[2] - self.q[0]) / self.q[1]
    }
}

/// The A/A protocol: two interleaved sets of `n` untraced runs of this one
/// binary per workload, run `i` of both sets with seed `i`. Prints, for every
/// gated metric, both medians with their quartiles, the quartile spread as a
/// share of the median, and the relative difference of the medians beside
/// the bound. False when a difference or a spread (set-up's excepted, as in
/// the acceptance rule) exceeds its bound, when any operation failed, or
/// when the two sets' simulated statistics differ.
pub fn aa(n: usize, seconds: u64, only: Option<&Workload>) -> bool {
    let mut ok = true;
    let mut worst = 0.0_f64;
    println!("| workload | metric | unit | A median (Q1–Q3) | A spread | B median (Q1–Q3) | B spread | B vs A | bound | |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for workload in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o.name == w.name)) {
        let mut sets: [Vec<Value>; 2] = [Vec::new(), Vec::new()];
        let mut failed_ops = 0.0;
        for seed in 1..=n as u64 {
            for set in &mut sets {
                let run = ChildRun {
                    workload,
                    seed,
                    seconds,
                    trace: false,
                    smoke: false,
                };
                match run.result() {
                    Ok(result) => {
                        failed_ops += result.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
                        set.push(result);
                    }
                    Err(e) => {
                        eprintln!("benchmark: {e}");
                        return false;
                    }
                }
            }
            eprintln!("{}: pair {seed} of {n} done", workload.name);
        }
        for metric in &END_TO_END {
            let values =
                |set: &[Value]| set.iter().filter_map(|r| metric_value(r, metric.name)).collect::<Vec<f64>>();
            let (Some(a), Some(b)) = (SetStats::of(&values(&sets[0])), SetStats::of(&values(&sets[1])))
            else {
                eprintln!("benchmark: {} did not report {}", workload.name, metric.name);
                return false;
            };
            let diff = b.median() / a.median() - 1.0;
            let spread = if metric.name == "setup_s" {
                0.0
            } else {
                a.spread().max(b.spread())
            };
            let within = diff.abs() <= metric.bound && spread <= metric.bound;
            ok &= within;
            worst = worst.max(diff.abs().max(spread) / metric.bound);
            let cell = |s: &SetStats| format!("{:.6} ({:.6}–{:.6})", s.median(), s.q[0], s.q[2]);
            println!(
                "| {} | {} | {} | {} | {:.2} % | {} | {:.2} % | {:+.2} % | {:.0} % | {} |",
                workload.name,
                metric.name,
                metric.unit,
                cell(&a),
                a.spread() * 100.0,
                cell(&b),
                b.spread() * 100.0,
                diff * 100.0,
                metric.bound * 100.0,
                if within { "ok" } else { "OVER" }
            );
        }
        // One traced run per set: the simulated machine must not differ between runs of one binary.
        let traced = ChildRun {
            workload,
            seed: 1,
            seconds,
            trace: true,
            smoke: false,
        };
        let sim_equal = match (traced.result(), traced.result()) {
            (Ok(a), Ok(b)) => [
                "sim.time_s",
                "sim.words",
                "sim.msgs",
                "sim.flops",
                "sim.peak_mem_words",
            ]
            .iter()
            .all(|name| metric_value(&a, name).is_some_and(|x| metric_value(&b, name) == Some(x))),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("benchmark: {e}");
                false
            }
        };
        println!(
            "| {} | fail_share | ratio | {failed_ops} failed operations in {} runs | | sim.* of two traced runs {} | | | any | {} |",
            workload.name,
            2 * n,
            if sim_equal { "identical" } else { "DIFFER" },
            if failed_ops == 0.0 && sim_equal { "ok" } else { "OVER" }
        );
        ok &= failed_ops == 0.0 && sim_equal;
    }
    println!();
    println!(
        "Largest difference or spread, as a share of its bound: {worst:.2}. {}",
        if ok { "A/A holds." } else { "A/A FAILS." }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = SetStats::of(&ten).unwrap();
        assert_eq!(s.median(), 5.5);
        assert_eq!(s.spread(), (8.25 - 2.75) / 5.5);
        assert!(SetStats::of(&[1.0]).is_none());
    }

    #[test]
    fn a_result_lines_metric_is_found_by_name() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 9.5, "unit": "s"}}}"#;
        let result = json::parse(line).unwrap();
        assert_eq!(metric_value(&result, "wall_s"), Some(9.5));
        assert_eq!(metric_value(&result, "cpu_s"), None);
    }
}
