//! The communicator: tagged two-sided message passing and a world barrier.
//!
//! Rank bodies talk to the machine through [`RankComm`], the resumable
//! rank-facing handle: operations that may have to wait for a peer
//! ([`RankComm::recv`], [`RankComm::barrier`]) are `async` *wait-states*, so
//! the event executor ([`crate::event`]) parks a waiting rank as a stackless
//! state machine instead of blocking a thread.
//!
//! Messages are [`RankComm::send`]/[`RankComm::recv`] with `(source, tag)`
//! matching. A send never blocks, so exchange patterns like Cannon shifts
//! cannot deadlock.
//!
//! Behind [`RankComm`] sits the event world's crate-private transport,
//! which moves messages, steps the rank's virtual clock and counts, in the
//! rank's one record beside that clock, its words by phase, messages, flops
//! and allocations — the "communication volume per rank" of Figures 6–7.

use std::sync::Arc;

use crate::event::EventComm;
use crate::pool::BufferPool;
use crate::stats::Phase;

// ---------------------------------------------------------------------------
// The rank-facing resumable handle
// ---------------------------------------------------------------------------

/// The communicator a rank body receives.
///
/// Rendezvous operations ([`recv`](Self::recv), [`barrier`](Self::barrier),
/// [`sendrecv`](Self::sendrecv)) are `async` wait-states: they return
/// `Poll::Pending` and the event scheduler parks the rank's state machine in
/// the matching table, costing bytes instead of a stack.
///
/// Rank bodies are `async` closures over this handle:
///
/// ```
/// use mpsim::exec::{run_spmd_with, ExecBackend};
/// use mpsim::machine::MachineSpec;
/// use mpsim::stats::Phase;
///
/// let spec = MachineSpec::test_machine(4, 1000);
/// let out = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
///     let right = (c.rank() + 1) % c.size();
///     let left = (c.rank() + c.size() - 1) % c.size();
///     c.sendrecv(right, left, 0, vec![c.rank() as f64], Phase::Other).await[0]
/// })
/// .unwrap();
/// assert_eq!(out.results[1], 0.0);
/// ```
///
/// The handle is opaque: the executor's communicator and futures are private
/// to this crate, so they can be moved or rewritten without an API break.
/// This must not compile:
///
/// ```compile_fail,E0603
/// use mpsim::event::EventComm;
/// ```
pub struct RankComm {
    pub(crate) rank: usize,
    p: usize,
    /// The world's buffer-reuse arena.
    pool: Arc<BufferPool>,
    /// What moves this rank's messages, steps its virtual clock and keeps
    /// its counts.
    pub(crate) event: EventComm,
}

impl RankComm {
    /// Rank `rank`'s handle on a `p`-rank world whose arena is `pool`,
    /// moving messages over `event`.
    pub(crate) fn new(rank: usize, p: usize, pool: &Arc<BufferPool>, event: EventComm) -> Self {
        RankComm {
            rank,
            p,
            pool: pool.clone(),
            event,
        }
    }

    /// This rank's id, `0..p`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size `p`.
    pub fn size(&self) -> usize {
        self.p
    }

    /// The world's buffer-reuse arena (see [`crate::pool::BufferPool`]).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Hand a consumed buffer back to the world's arena for reuse. Purely an
    /// allocation optimization — recycling never changes results, counters
    /// or virtual time.
    pub fn recycle(&self, buf: Vec<f64>) {
        self.pool.give(buf);
    }

    /// Record `flops` local floating-point operations for this rank; they
    /// also advance its virtual clock.
    pub fn record_flops(&self, flops: u64) {
        self.event.compute(self.rank, flops);
    }

    /// Record a working-memory allocation (peak-memory accounting).
    pub fn track_alloc(&self, words: u64) {
        self.event.track_alloc(self.rank, words);
    }

    /// Record a working-memory release.
    pub fn track_free(&self, words: u64) {
        self.event.track_free(self.rank, words);
    }

    /// Send `data` to rank `to` with `tag`. Never suspends. A message the
    /// receiver never takes — it exited first, or returned without the
    /// matching `recv` — fails the finished world with
    /// [`ExecError::WorldTornDown`](crate::exec::ExecError::WorldTornDown).
    ///
    /// # Panics
    /// Panics if `to` is out of range.
    pub fn send(&self, to: usize, tag: u64, data: Vec<f64>, phase: Phase) {
        assert!(to < self.p, "send to rank {to} of {}", self.p);
        self.event.send(self.rank, to, tag, data, phase);
    }

    /// Receive the next message from `from` with `tag` — a wait-state until
    /// the matching message arrives. Messages from the same sender with the
    /// same tag are delivered in send order.
    pub async fn recv(&mut self, from: usize, tag: u64, phase: Phase) -> Vec<f64> {
        self.event.recv(self.rank, from, tag, phase).await
    }

    /// Combined exchange: send `data` to `to`, then receive from `from` under
    /// the same tag (a ring-shift step). Non-deadlocking because sends are
    /// buffered.
    pub async fn sendrecv(
        &mut self,
        to: usize,
        from: usize,
        tag: u64,
        data: Vec<f64>,
        phase: Phase,
    ) -> Vec<f64> {
        self.send(to, tag, data, phase);
        self.recv(from, tag, phase).await
    }

    /// Wait until all ranks reach the barrier — a wait-state.
    pub async fn barrier(&mut self) {
        self.event.barrier(self.rank).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_spmd_with, ExecBackend};
    use crate::machine::MachineSpec;
    use crate::stats::{RankStats, NUM_PHASES};

    /// One scheduler thread and two: every test below must hold on both.
    const BACKENDS: [ExecBackend; 2] = [ExecBackend::event(), ExecBackend::Event { threads: 2 }];

    #[test]
    fn simple_send_recv() {
        for backend in BACKENDS {
            let out = run_spmd_with(&MachineSpec::test_machine(2, 1000), backend, |mut c| async move {
                if c.rank() == 0 {
                    c.send(1, 7, vec![1.0, 2.0, 3.0], Phase::InputA);
                    Vec::new()
                } else {
                    c.recv(0, 7, Phase::InputA).await
                }
            })
            .unwrap();
            assert_eq!(out.results[1], vec![1.0, 2.0, 3.0], "{backend}");
            assert_eq!(out.stats[0].total_sent(), 3, "{backend}");
            assert_eq!(out.stats[1].total_recv(), 3, "{backend}");
            assert_eq!(out.stats[1].msgs_recv, 1, "{backend}");
        }
    }

    #[test]
    fn tag_matching_reorders() {
        // Receive tag 2 first; tag 1 waits in the mailbox and is found
        // afterwards.
        for backend in BACKENDS {
            let out = run_spmd_with(&MachineSpec::test_machine(2, 1000), backend, |mut c| async move {
                if c.rank() == 0 {
                    c.send(1, 1, vec![1.0], Phase::Other);
                    c.send(1, 2, vec![2.0], Phase::Other);
                    Vec::new()
                } else {
                    let two = c.recv(0, 2, Phase::Other).await;
                    [two, c.recv(0, 1, Phase::Other).await].concat()
                }
            })
            .unwrap();
            assert_eq!(out.results[1], [2.0, 1.0], "{backend}");
        }
    }

    #[test]
    fn same_tag_fifo_per_sender() {
        for backend in BACKENDS {
            let out = run_spmd_with(&MachineSpec::test_machine(2, 1000), backend, |mut c| async move {
                if c.rank() == 0 {
                    c.send(1, 5, vec![1.0], Phase::Other);
                    c.send(1, 5, vec![2.0], Phase::Other);
                    Vec::new()
                } else {
                    let first = c.recv(0, 5, Phase::Other).await;
                    [first, c.recv(0, 5, Phase::Other).await].concat()
                }
            })
            .unwrap();
            assert_eq!(out.results[1], [1.0, 2.0], "{backend}");
        }
    }

    #[test]
    fn self_send() {
        let out =
            run_spmd_with(&MachineSpec::test_machine(1, 1000), ExecBackend::event(), |mut c| async move {
                c.send(0, 3, vec![9.0], Phase::Other);
                c.recv(0, 3, Phase::Other).await
            })
            .unwrap();
        assert_eq!(out.results[0], vec![9.0]);
    }

    #[test]
    fn threaded_exchange() {
        // Four ranks on four scheduler threads, one region each.
        let out = run_spmd_with(
            &MachineSpec::test_machine(4, 1000),
            ExecBackend::Event { threads: 4 },
            |mut c| async move {
                let right = (c.rank() + 1) % c.size();
                let left = (c.rank() + c.size() - 1) % c.size();
                let got = c.sendrecv(right, left, 0, vec![c.rank() as f64; 10], Phase::InputB).await;
                assert_eq!(got, vec![left as f64; 10]);
            },
        )
        .unwrap();
        for st in &out.stats {
            assert_eq!(st.total_sent(), 10);
            assert_eq!(st.total_recv(), 10);
        }
    }

    #[test]
    fn alloc_tracking_reaches_stats() {
        let out = run_spmd_with(&MachineSpec::test_machine(1, 1000), ExecBackend::event(), |c| async move {
            c.track_alloc(500);
            c.track_free(200);
            c.track_alloc(100);
        })
        .unwrap();
        assert_eq!(out.stats[0].peak_mem_words, 500);
    }

    #[test]
    fn a_ranks_record_counts_every_phase_and_its_memory_high_water() {
        // Rank 0 sends one message in each of the five phases and a second
        // one in InputA; rank 1 answers once in Other, which rank 0 counts
        // under Layout: each side counts a message in the phase it names.
        // Both compute twice and hold memory through alloc / free / alloc.
        let words = |i: usize| 10 * (i + 1);
        let spec = MachineSpec::test_machine(2, 1000);
        for backend in BACKENDS {
            let out = run_spmd_with(&spec, backend, |mut c| async move {
                if c.rank() == 0 {
                    for (i, phase) in Phase::all().into_iter().enumerate() {
                        c.send(1, i as u64, vec![0.0; words(i)], phase);
                    }
                    c.send(1, 5, vec![0.0; 5], Phase::InputA);
                    c.recv(1, 6, Phase::Layout).await;
                    c.track_alloc(100);
                    c.track_alloc(200);
                    c.track_free(250);
                    c.track_alloc(100);
                } else {
                    for (i, phase) in Phase::all().into_iter().enumerate() {
                        c.recv(0, i as u64, phase).await;
                    }
                    c.recv(0, 5, Phase::InputA).await;
                    c.send(0, 6, vec![0.0; 7], Phase::Other);
                    c.track_alloc(40);
                    c.track_free(40);
                    c.track_alloc(30);
                }
                c.record_flops(1000);
                c.record_flops(500);
            })
            .unwrap();
            let per_phase: [u64; NUM_PHASES] = std::array::from_fn(|i| words(i) as u64);
            let mut sent_by_0 = per_phase;
            sent_by_0[Phase::InputA.index()] += 5;
            let mut layout = [0; NUM_PHASES];
            layout[Phase::Layout.index()] = 7;
            let mut other = [0; NUM_PHASES];
            other[Phase::Other.index()] = 7;
            let want = [
                RankStats {
                    words_sent: sent_by_0,
                    words_recv: layout,
                    msgs_sent: 6,
                    msgs_recv: 1,
                    flops: 1500,
                    peak_mem_words: 300,
                    ..RankStats::default()
                },
                RankStats {
                    words_sent: other,
                    words_recv: sent_by_0,
                    msgs_sent: 1,
                    msgs_recv: 6,
                    flops: 1500,
                    peak_mem_words: 40,
                    ..RankStats::default()
                },
            ];
            let compute_s = spec.cost.compute_time(1000) + spec.cost.compute_time(500);
            for (r, (got, want)) in out.stats.iter().zip(want).enumerate() {
                assert_eq!(got.sans_time(), want, "{backend}: rank {r}");
                assert_eq!(got.time.compute_s, compute_s, "{backend}: rank {r}");
            }
        }
    }

    #[test]
    fn rank_handle_is_small() {
        // Every event rank's body future holds one handle: 8 bytes a rank is
        // a quarter MiB at p = 32,768.
        assert!(std::mem::size_of::<RankComm>() <= 48, "{} bytes", std::mem::size_of::<RankComm>());
    }
}
