//! What the three workload families share: the run's options, the timed
//! loop, repeated set-up, and the shape of what a run measured.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::calibrate::Calibrator;
use crate::checks::Tally;
use crate::procfs::cpu_seconds;
use crate::spec::Workload;
use crate::stats::median;
use crate::trace::Tracer;

/// Options of one run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Every generated input derives from it.
    pub seed: u64,
    /// Scales the fixed operation count (see `spec::Workload::k`).
    pub seconds: u64,
    /// The traced run: half the operations untraced, half under spans, then
    /// the layer probes. Its numbers are the per-layer ones only.
    pub trace: bool,
    /// K = 1 on reduced sizes; numbers not comparable with anything.
    pub smoke: bool,
}

impl Opts {
    /// Untraced and traced operations of an iteration workload's run: all K
    /// untraced, or, in a traced run, half and half — the untraced half is
    /// the base of the tracing overhead.
    pub fn ops(&self, w: &Workload) -> (usize, usize) {
        let k = if self.smoke { 1 } else { w.k(self.seconds) };
        if self.trace {
            (k.div_ceil(2), k.div_ceil(2))
        } else {
            (k, 0)
        }
    }
}

/// What one run measured, before it is turned into named metrics.
#[derive(Debug)]
pub struct Measured {
    /// Duration of each full set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Duration of each timed, untraced operation, in seconds.
    pub lat_s: Vec<f64>,
    /// Seconds the timed operations took: their sum for the iteration
    /// workloads, first submit to last result for the stream.
    pub wall_s: f64,
    /// CPU seconds of the process over the same interval.
    pub cpu_s: f64,
    /// Numerator of `throughput` over the timed operations.
    pub work: f64,
    /// Operations checked, traced ones included, and how many failed.
    pub tally: Tally,
    /// Per-layer metrics by name; filled by a traced run only.
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines for the human-readable report that are no metric.
    pub notes: Vec<String>,
}

impl Measured {
    pub fn new(workload: &'static str) -> Measured {
        Measured {
            setup_s: Vec::new(),
            lat_s: Vec::new(),
            wall_s: 0.0,
            cpu_s: 0.0,
            work: 0.0,
            tally: Tally::new(workload),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Close a traced run: the tracing overhead from the `op_span`s against
    /// the untraced operations, the self-time table for the report, and the
    /// spans to the workload's trace file.
    pub fn finish_trace(&mut self, tracer: &Tracer, workload: &str, op_span: &str) -> Result<(), String> {
        let overhead = median(&tracer.durations_s(op_span)) / median(&self.lat_s) - 1.0;
        self.layers.insert("trace_overhead_share", overhead);
        self.notes.push(tracer.self_time_table());
        let path = crate::trace_path(workload);
        tracer
            .write_json(&path, workload)
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Run a full set-up `repeats` times, keep the last one's product, and
/// return every duration. An earlier product is dropped before the next
/// set-up starts, so repeats do not stack up in memory.
pub fn repeat_set_up<T>(
    cal: &mut Calibrator,
    repeats: usize,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut durations = Vec::with_capacity(repeats);
    let mut ready = None;
    for _ in 0..repeats.max(1) {
        drop(ready.take());
        let start = Instant::now();
        ready = Some(set_up()?);
        durations.push(start.elapsed().as_secs_f64());
        cal.after(durations[durations.len() - 1]);
    }
    Ok((ready.expect("at least one set-up ran"), durations))
}

/// Durations and CPU time of a timed section.
#[derive(Debug, Default)]
pub struct Timed {
    pub lat_s: Vec<f64>,
    pub cpu_s: f64,
}

impl Timed {
    pub fn wall_s(&self) -> f64 {
        self.lat_s.iter().sum()
    }
}

/// Time `op(i)` for `i` in `ops`; `check` sees each result outside the timed
/// interval, right after its operation, and the calibrator takes its slices
/// between operations.
pub fn timed_ops<T>(
    cal: &mut Calibrator,
    ops: std::ops::Range<usize>,
    mut op: impl FnMut(usize) -> T,
    mut check: impl FnMut(usize, T),
) -> Timed {
    let mut timed = Timed::default();
    for i in ops {
        let cpu_before = cpu_seconds();
        let start = Instant::now();
        let out = black_box(op(i));
        let seconds = start.elapsed().as_secs_f64();
        timed.cpu_s += cpu_seconds() - cpu_before;
        timed.lat_s.push(seconds);
        check(i, out);
        cal.after(seconds);
    }
    timed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_repeats_and_keeps_the_last_product() {
        let mut calls = 0;
        let mut cal = Calibrator::new();
        let (last, durations) = repeat_set_up(&mut cal, 3, || {
            calls += 1;
            Ok(calls)
        })
        .unwrap();
        assert_eq!((last, durations.len()), (3, 3));
        assert!(repeat_set_up::<()>(&mut cal, 2, || Err("no".to_string())).is_err());
    }

    #[test]
    fn checks_run_after_each_operation_outside_its_interval() {
        let mut order = Vec::new();
        let timed = timed_ops(
            &mut Calibrator::new(),
            2..4,
            |i| i * 10,
            |i, out| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                order.push((i, out));
            },
        );
        assert_eq!(order, vec![(2, 20), (3, 30)]);
        assert_eq!(timed.lat_s.len(), 2);
        assert!(timed.wall_s() < 0.02, "the check's sleep must not be timed");
    }
}
