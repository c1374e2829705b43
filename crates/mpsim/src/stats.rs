//! Per-rank traffic, flop and memory counters — the mpiP substitute — and
//! the per-rank statistics a run reports.
//!
//! The paper measures "total communication volume per MPI rank" with the
//! mpiP profiler (Figures 6–7, Table 4). Here every point-to-point
//! operation updates per-rank counters, bucketed by
//! [`Phase`] so that Figure 12's breakdown (A-input vs B-input vs C-output
//! traffic) can be regenerated from an actual execution.
//!
//! Each rank's counters have **one writer**: the rank's own
//! [`RankComm`](crate::comm::RankComm), on whichever thread runs its body.
//! An update is therefore a `Relaxed` load and store rather than an atomic
//! read-modify-write; the cells stay atomics so that the board is `Sync`.
//!
//! A rank's *virtual* α-β-γ time is not a counter: the event executor keeps
//! it in its own per-rank state (see [`crate::event`]) and fills
//! [`RankStats::time`] from there — seconds of compute, of exposed
//! communication (stalls the rank actually waited through) and of all
//! communication, hidden included — the measured analogue of the plan-level
//! `simulate_rounds` numbers. Compare counters alone with
//! [`RankStats::sans_time`].

use std::sync::atomic::{AtomicU64, Ordering};

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

/// Counters of a single rank, with one writer: the rank's own
/// [`RankComm`](crate::comm::RankComm). So an update is a `Relaxed` load and
/// store, not a read-modify-write; the cells are atomics only to keep the
/// board `Sync`, and a snapshot taken after the run joins its writers sees
/// every update.
#[derive(Debug, Default)]
pub struct RankCounters {
    words_sent: [AtomicU64; NUM_PHASES],
    words_recv: [AtomicU64; NUM_PHASES],
    msgs_sent: AtomicU64,
    msgs_recv: AtomicU64,
    flops: AtomicU64,
    cur_mem_words: AtomicU64,
    peak_mem_words: AtomicU64,
}

/// Add `n` to a single-writer counter and return the new value.
fn add(cell: &AtomicU64, n: u64) -> u64 {
    let next = cell.load(Ordering::Relaxed).wrapping_add(n);
    cell.store(next, Ordering::Relaxed);
    next
}

impl RankCounters {
    /// Record a sent message of `words` words in `phase`.
    pub fn record_send(&self, words: u64, phase: Phase) {
        add(&self.words_sent[phase.index()], words);
        add(&self.msgs_sent, 1);
    }

    /// Record a received message of `words` words in `phase`.
    pub fn record_recv(&self, words: u64, phase: Phase) {
        add(&self.words_recv[phase.index()], words);
        add(&self.msgs_recv, 1);
    }

    /// Record `flops` floating-point operations of local compute.
    pub fn record_flops(&self, flops: u64) {
        add(&self.flops, flops);
    }

    /// Record an allocation of `words` words of communication/working memory.
    pub fn record_alloc(&self, words: u64) {
        let cur = add(&self.cur_mem_words, words);
        if cur > self.peak_mem_words.load(Ordering::Relaxed) {
            self.peak_mem_words.store(cur, Ordering::Relaxed);
        }
    }

    /// Record a release of `words` words.
    pub fn record_free(&self, words: u64) {
        let cur = self.cur_mem_words.load(Ordering::Relaxed);
        self.cur_mem_words.store(cur.wrapping_sub(words), Ordering::Relaxed);
    }
}

/// Immutable snapshot of one rank's counters.
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

/// Shared board of all ranks' counters.
#[derive(Debug)]
pub struct StatsBoard {
    ranks: Vec<RankCounters>,
}

impl StatsBoard {
    /// Create counters for `p` ranks.
    pub fn new(p: usize) -> Self {
        StatsBoard {
            ranks: (0..p).map(|_| RankCounters::default()).collect(),
        }
    }

    /// Number of ranks tracked.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True when tracking zero ranks.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Counters of one rank.
    pub fn rank(&self, r: usize) -> &RankCounters {
        &self.ranks[r]
    }

    /// Snapshot all ranks' counters (with zero [`RankStats::time`]: the
    /// board keeps no virtual time).
    pub fn snapshot(&self) -> Vec<RankStats> {
        self.ranks
            .iter()
            .map(|c| RankStats {
                words_sent: std::array::from_fn(|i| c.words_sent[i].load(Ordering::Relaxed)),
                words_recv: std::array::from_fn(|i| c.words_recv[i].load(Ordering::Relaxed)),
                msgs_sent: c.msgs_sent.load(Ordering::Relaxed),
                msgs_recv: c.msgs_recv.load(Ordering::Relaxed),
                flops: c.flops.load(Ordering::Relaxed),
                peak_mem_words: c.peak_mem_words.load(Ordering::Relaxed),
                time: TimeBreakdown::default(),
            })
            .collect()
    }
}

/// Aggregate helpers over per-rank snapshots.
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
        let board = StatsBoard::new(2);
        board.rank(0).record_send(100, Phase::InputA);
        board.rank(0).record_send(50, Phase::InputA);
        board.rank(1).record_recv(150, Phase::InputB);
        board.rank(0).record_flops(1000);
        let snap = board.snapshot();
        assert_eq!(snap[0].words_sent[Phase::InputA.index()], 150);
        assert_eq!(snap[0].msgs_sent, 2);
        assert_eq!(snap[1].words_recv[Phase::InputB.index()], 150);
        assert_eq!(snap[1].msgs_recv, 1);
        assert_eq!(snap[0].flops, 1000);
        assert_eq!(snap[0].total_sent(), 150);
        assert_eq!(snap[1].volume(), 150);
        assert_eq!(snap[1].words_recv[Phase::InputA.index()], 0);
    }

    #[test]
    fn memory_peak_tracks_high_water_mark() {
        let board = StatsBoard::new(1);
        board.rank(0).record_alloc(100);
        board.rank(0).record_alloc(200);
        board.rank(0).record_free(250);
        board.rank(0).record_alloc(100);
        let snap = board.snapshot();
        assert_eq!(snap[0].peak_mem_words, 300);
    }

    #[test]
    fn counters_are_thread_safe() {
        // One writer per rank, all writing at once: the board is shared
        // across threads, each rank's counters are not.
        let threads = 8;
        let board = std::sync::Arc::new(StatsBoard::new(threads));
        std::thread::scope(|s| {
            for r in 0..threads {
                let b = board.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        b.rank(r).record_send(r as u64 + 1, Phase::Other);
                    }
                });
            }
        });
        for (r, snap) in board.snapshot().iter().enumerate() {
            assert_eq!(snap.words_sent[Phase::Other.index()], 1000 * (r as u64 + 1));
            assert_eq!(snap.msgs_sent, 1000);
        }
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
