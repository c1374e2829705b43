//! The machine's speed while a run lasts.
//!
//! The box this benchmark is tuned on is a two-core guest on a shared host:
//! the same code takes 10 to 20 % longer for seconds or minutes at a time when
//! neighbours are busy, and a run cannot tell that from a slower program. So
//! every run interleaves its operations with slices of three small kernels of
//! the benchmark's own — arithmetic, dependent loads, allocator churn: the
//! three things the workloads spend their time on — and reports its timings
//! scaled by how fast those kernels ran against the reference box at its
//! usual speed. Ten-run spreads of 10–16 % come down to 5–9 % that way; the
//! README has the measurements.
//!
//! The kernels call nothing in `crates/*`, so a change to the program cannot
//! move the scale it is measured on.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::splitmix64_at;

/// Entries of the pointer-chase cycle: 16 MiB of `u32`, four times the
/// core's L2, so a load misses it.
const CHASE_ENTRIES: usize = 1 << 22;
/// Work per slice of each kernel, sized to last about 10 ms apiece.
const FMA_STEPS: u64 = 5_000_000;
const CHASE_LOADS: u64 = 50_000;
const ALLOC_ROUNDS: usize = 450_000;

/// Seconds one slice of each kernel takes on the reference box (see the
/// README) at its usual speed: the medians over an A/A protocol's runs. They
/// only fix the scale, so that scaled seconds read like that box's seconds.
const REFERENCE_S: [f64; 3] = [0.00945, 0.0088, 0.01055];

/// Calibration time to aim for, as a share of the time measured so far.
const SHARE: f64 = 0.15;

pub struct Calibrator {
    /// A single random cycle through all entries.
    chase: Vec<u32>,
    at: u32,
    /// Seconds spent in each kernel so far.
    kernel_s: [f64; 3],
    slices: u32,
    /// Seconds of set-up and operations reported to [`after`](Self::after).
    measured_s: f64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        // Sattolo's shuffle: swapping each entry with a strictly earlier one leaves one cycle.
        let mut chase: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        for i in (1..CHASE_ENTRIES).rev() {
            chase.swap(i, (splitmix64_at(0, i as u64) % i as u64) as usize);
        }
        Calibrator {
            chase,
            at: 0,
            kernel_s: [0.0; 3],
            slices: 0,
            measured_s: 0.0,
        }
    }

    /// KiB this holds resident for the whole run; `peak_rss_mib` leaves them
    /// out, so the workload's own memory is what the metric moves with.
    pub fn resident_kib(&self) -> u64 {
        (self.chase.len() * size_of::<u32>() / 1024) as u64
    }

    /// Run each kernel once.
    pub fn slice(&mut self) {
        let start = Instant::now();
        let mut acc = [1.0_f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
        let (mul, add) = (black_box(0.999_999_9_f64), black_box(1e-7_f64));
        for _ in 0..FMA_STEPS {
            for x in &mut acc {
                *x = *x * mul + add;
            }
        }
        black_box(acc);
        let fma_done = Instant::now();

        let mut at = self.at;
        for _ in 0..CHASE_LOADS {
            at = self.chase[at as usize];
        }
        self.at = black_box(at);
        let chase_done = Instant::now();

        let mut live: Vec<Vec<f64>> = Vec::with_capacity(1024);
        for round in 0..ALLOC_ROUNDS {
            live.push(vec![round as f64; 16 + (round % 7) * 8]);
            if live.len() == 1024 {
                live.swap_remove(round % 1024);
            }
        }
        black_box(live.len());
        let alloc_done = Instant::now();

        self.kernel_s[0] += (fma_done - start).as_secs_f64();
        self.kernel_s[1] += (chase_done - fma_done).as_secs_f64();
        self.kernel_s[2] += (alloc_done - chase_done).as_secs_f64();
        self.slices += 1;
    }

    /// A set-up or an operation just took `seconds`: take slices until
    /// calibration has had its [`SHARE`] of everything measured so far.
    /// Called between operations, so the slices sample the stretch of time
    /// the operations run in.
    pub fn after(&mut self, seconds: f64) {
        self.measured_s += seconds;
        while self.kernel_s.iter().sum::<f64>() < SHARE * self.measured_s {
            self.slice();
        }
    }

    /// Mean seconds per slice of each kernel.
    pub fn slice_s(&self) -> [f64; 3] {
        self.kernel_s.map(|s| s / f64::from(self.slices.max(1)))
    }

    /// How fast the machine ran during the run, against the reference box:
    /// the geometric mean of the kernels' speed-ups. A measured time
    /// multiplied by it is the time the reference box would have measured.
    pub fn speed(&self) -> f64 {
        assert!(self.slices > 0, "no calibration slice was taken");
        let ratios = self
            .slice_s()
            .iter()
            .zip(REFERENCE_S)
            .map(|(got, want)| got / want)
            .product::<f64>();
        ratios.powf(-1.0 / 3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_through_every_entry() {
        let cal = Calibrator::new();
        let mut seen = vec![false; CHASE_ENTRIES];
        let mut at = 0u32;
        for _ in 0..CHASE_ENTRIES {
            assert!(!std::mem::replace(&mut seen[at as usize], true), "entry {at} is reached twice");
            at = cal.chase[at as usize];
        }
        assert_eq!(at, 0, "the walk must close after visiting every entry");
        assert_eq!(cal.resident_kib(), 16 * 1024);
    }

    #[test]
    fn speed_is_the_geometric_mean_against_the_reference() {
        let mut cal = Calibrator::new();
        cal.slices = 4;
        // Twice, half and exactly the reference time per slice: the mean speed-up is 1.
        cal.kernel_s = [REFERENCE_S[0] * 8.0, REFERENCE_S[1] * 2.0, REFERENCE_S[2] * 4.0];
        assert!((cal.speed() - 1.0).abs() < 1e-12);
        // Everything 25 % slower: a measured time shrinks by that much.
        cal.kernel_s = REFERENCE_S.map(|s| s * 4.0 * 1.25);
        assert!((cal.speed() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn pace_follows_the_measured_time() {
        let mut cal = Calibrator::new();
        cal.after(0.0);
        assert_eq!(cal.slices, 0);
        cal.after(0.06);
        cal.after(0.04);
        assert!(cal.slices >= 1);
        let total: f64 = cal.kernel_s.iter().sum();
        assert!(total >= SHARE * 0.1);
        assert!(cal.slice_s().iter().all(|&s| s > 0.0));
    }
}
