//! The per-rank statistics a run reports — the mpiP substitute.
//!
//! The paper measures "total communication volume per MPI rank" with the
//! mpiP profiler (Figures 6–7, Table 4). Here every point-to-point
//! operation is counted for its rank, bucketed by [`Phase`] so that
//! Figure 12's breakdown (A-input vs B-input vs C-output traffic) can be
//! regenerated from an actual execution.
//!
//! A rank's counts and its *virtual* α-β-γ time live in one record, its
//! slab in the event executor (see [`crate::event`]), written under the
//! lock of the rank's region by the operation that counts or charges them.
//! The finished run reads each slab into a [`RankStats`]: the counters, and
//! seconds of compute, of exposed communication (stalls the rank actually
//! waited through) and of all communication, hidden included — the
//! measured analogue of the plan-level `simulate_rounds` numbers. Compare
//! counters alone with [`RankStats::sans_time`].

use crate::cost::TimeBreakdown;

/// Communication phase buckets used for the Figure-12 style breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Distributing/propagating elements of the input matrix A.
    InputA,
    /// Distributing/propagating elements of the input matrix B.
    InputB,
    /// Reducing or writing back partial results of C.
    OutputC,
    /// Initial data-layout transformation traffic (§7.6 preprocessing).
    Layout,
    /// Anything else (tests, auxiliary exchanges).
    Other,
}

/// Number of phase buckets.
pub const NUM_PHASES: usize = 5;

impl Phase {
    /// Dense index of the phase, for array-backed counters.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::InputA => 0,
            Phase::InputB => 1,
            Phase::OutputC => 2,
            Phase::Layout => 3,
            Phase::Other => 4,
        }
    }

    /// All phases in index order.
    pub fn all() -> [Phase; NUM_PHASES] {
        [
            Phase::InputA,
            Phase::InputB,
            Phase::OutputC,
            Phase::Layout,
            Phase::Other,
        ]
    }
}

/// One rank's counters and virtual time, as a finished run reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankStats {
    /// Words sent, by phase index.
    pub words_sent: [u64; NUM_PHASES],
    /// Words received, by phase index.
    pub words_recv: [u64; NUM_PHASES],
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Floating-point operations performed.
    pub flops: u64,
    /// Peak tracked memory, in words.
    pub peak_mem_words: u64,
    /// Virtual α-β-γ time of this rank, measured by the event executor's
    /// discrete-event clock. `time.total_s()` is the rank's virtual finish
    /// time.
    pub time: TimeBreakdown,
}

impl RankStats {
    /// Total words sent across phases.
    pub fn total_sent(&self) -> u64 {
        self.words_sent.iter().sum()
    }

    /// Total words received across phases.
    pub fn total_recv(&self) -> u64 {
        self.words_recv.iter().sum()
    }

    /// The "communication volume per rank" reported in the paper's Table 4
    /// and Figures 6–7: words received (every received word was sent by a
    /// peer, so summing receives over ranks counts each transfer once).
    pub fn volume(&self) -> u64 {
        self.total_recv()
    }

    /// A copy with the virtual-time fields zeroed — for comparing the
    /// *counters* alone: against a model that keeps no clock, or between
    /// machines whose clocks differ (topology, overlap).
    pub fn sans_time(mut self) -> RankStats {
        self.time = TimeBreakdown::default();
        self
    }
}

/// Aggregate helpers over a run's per-rank statistics.
pub mod aggregate {
    use super::RankStats;

    /// Total received volume over all ranks (each transferred word counted
    /// once — the measured analogue of a plan's total comm words).
    pub fn total_volume(stats: &[RankStats]) -> u64 {
        stats.iter().map(RankStats::volume).sum()
    }

    /// Total flops over ranks.
    pub fn total_flops(stats: &[RankStats]) -> u64 {
        stats.iter().map(|s| s.flops).sum()
    }

    /// Maximum per-rank peak working set over ranks, in words — the number
    /// a memory-budgeted run holds against the paper's `S`.
    pub fn max_peak_mem(stats: &[RankStats]) -> u64 {
        stats.iter().map(|s| s.peak_mem_words).max().unwrap_or(0)
    }

    /// Measured machine time: the slowest rank's virtual finish time, in
    /// seconds — the executed analogue of `SimReport::time_s`.
    pub fn machine_time_s(stats: &[RankStats]) -> f64 {
        stats.iter().map(|s| s.time.total_s()).fold(0.0, f64::max)
    }

    /// The slowest rank's [`TimeBreakdown`](crate::cost::TimeBreakdown) —
    /// the executed analogue of `SimReport::critical`.
    pub fn critical_time(stats: &[RankStats]) -> crate::cost::TimeBreakdown {
        stats
            .iter()
            .map(|s| s.time)
            .fold(crate::cost::TimeBreakdown::default(), |worst, t| {
                if t.total_s() > worst.total_s() {
                    t
                } else {
                    worst
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_spmd_with, ExecBackend};
    use crate::machine::MachineSpec;

    #[test]
    fn phase_indices_are_dense_and_distinct() {
        let mut seen = [false; NUM_PHASES];
        for p in Phase::all() {
            assert!(!seen[p.index()], "duplicate index for {p:?}");
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn counters_accumulate() {
        // Two sends from rank 0 add up in one phase; rank 1 counts what it
        // received in the phase it names, and nothing in the others.
        let out =
            run_spmd_with(&MachineSpec::test_machine(2, 1000), ExecBackend::event(), |mut c| async move {
                if c.rank() == 0 {
                    c.send(1, 0, vec![0.0; 100], Phase::InputA);
                    c.send(1, 1, vec![0.0; 50], Phase::InputA);
                    c.record_flops(1000);
                } else {
                    c.recv(0, 0, Phase::InputB).await;
                    c.recv(0, 1, Phase::InputB).await;
                }
            })
            .unwrap();
        let snap = out.stats;
        assert_eq!(snap[0].words_sent[Phase::InputA.index()], 150);
        assert_eq!(snap[0].msgs_sent, 2);
        assert_eq!(snap[1].words_recv[Phase::InputB.index()], 150);
        assert_eq!(snap[1].msgs_recv, 2);
        assert_eq!(snap[0].flops, 1000);
        assert_eq!(snap[0].total_sent(), 150);
        assert_eq!(snap[1].volume(), 150);
        assert_eq!(snap[1].words_recv[Phase::InputA.index()], 0);
    }

    #[test]
    fn memory_peak_tracks_high_water_mark() {
        let out = run_spmd_with(&MachineSpec::test_machine(1, 1000), ExecBackend::event(), |c| async move {
            c.track_alloc(100);
            c.track_alloc(200);
            c.track_free(250);
            c.track_alloc(100);
        })
        .unwrap();
        assert_eq!(out.stats[0].peak_mem_words, 300);
    }

    #[test]
    fn aggregates() {
        let stats = vec![
            RankStats {
                words_recv: [10, 0, 0, 0, 0],
                flops: 5,
                ..Default::default()
            },
            RankStats {
                words_recv: [0, 30, 0, 0, 0],
                flops: 7,
                ..Default::default()
            },
        ];
        assert_eq!(aggregate::total_volume(&stats), 40);
        assert_eq!(aggregate::total_flops(&stats), 12);
        assert_eq!(aggregate::max_peak_mem(&[]), 0);
        let mut with_mem = stats;
        with_mem[0].peak_mem_words = 70;
        with_mem[1].peak_mem_words = 90;
        assert_eq!(aggregate::max_peak_mem(&with_mem), 90);
        // The slowest rank's virtual finish time, and its breakdown.
        let mut timed = with_mem.clone();
        timed[0].time = TimeBreakdown {
            compute_s: 1.75,
            exposed_comm_s: 0.5,
            total_comm_s: 2.5,
        };
        timed[1].time.exposed_comm_s = 0.125;
        assert_eq!(timed[0].time.total_s(), 2.25);
        assert_eq!(aggregate::machine_time_s(&timed), 2.25);
        assert_eq!(aggregate::critical_time(&timed), timed[0].time);
        assert_eq!(aggregate::machine_time_s(&[]), 0.0);
        // `sans_time` zeroes the clock and leaves the counters.
        assert_eq!(timed[0].sans_time().time, TimeBreakdown::default());
        assert_eq!(timed[1].sans_time(), with_mem[1]);
    }
}
