//! The communicators: tagged two-sided message passing and a world barrier.
//!
//! Rank bodies talk to the machine through [`RankComm`], the resumable
//! rank-facing handle: operations that may have to wait for a peer
//! ([`RankComm::recv`], [`RankComm::barrier`]) are `async` *wait-states*, so
//! one body runs unchanged on every [`crate::exec::ExecBackend`] — parked
//! carrier threads on the blocking backend, stackless state machines on the
//! event backend.
//!
//! Messages are [`RankComm::send`]/[`RankComm::recv`] with `(source, tag)`
//! matching. A send never blocks, so exchange patterns like Cannon shifts
//! cannot deadlock.
//!
//! [`RankComm`] alone records every count of its rank on the world's
//! [`StatsBoard`] — words by phase, messages, flops, allocations — the
//! "communication volume per rank" of Figures 6–7. Behind it sits one of two
//! crate-private transports that only move messages: the blocking
//! (channel-based) one of the blocking executor, or the event-driven one of
//! [`crate::event`], which also steps the rank's virtual clock. Both
//! executors count through the same lines, so their counters agree by
//! construction.

use std::cell::Cell;
use std::future::Future;
use std::pin::pin;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::event::{lock, EventComm};
use crate::exec::{ExecError, Waiting, WorkerGate};
use crate::pool::BufferPool;
use crate::stats::{Phase, StatsBoard};

/// Unwind this rank with a typed executor failure. The executors' recovery
/// paths (`run_world`'s join loop, the event scheduler's poll wrapper)
/// downcast the payload back to [`ExecError`] and return it through
/// `run_spmd_with`, so a deadlocked or torn-down world surfaces as a typed
/// error instead of a process abort. The default panic hook cannot Display
/// a typed payload (it prints `Box<dyn Any>`), so the human-readable form
/// goes to stderr first — worlds driven through the raw communicator API
/// stay diagnosable.
pub(crate) fn raise(e: ExecError) -> ! {
    eprintln!("mpsim rank failure: {e}");
    std::panic::panic_any(e)
}

/// A tagged message.
#[derive(Debug)]
struct Packet {
    from: usize,
    tag: u64,
    data: Vec<f64>,
}

/// State shared by all ranks of one simulated machine.
struct SharedState {
    senders: Vec<Sender<Packet>>,
    /// The world barrier: `(arrived, generation)` — a wait that can time
    /// out, which `std::sync::Barrier`'s cannot.
    barrier: Mutex<(usize, u64)>,
    all_arrived: Condvar,
}

/// A rank's handle on the blocking executor's [`WorkerGate`]: tracks whether
/// this rank currently holds a runnable slot, so rendezvous points can
/// suspend (return the slot) and resume (re-acquire it) without
/// double-releasing on panic unwinds.
struct RankGate {
    gate: Arc<WorkerGate>,
    held: Cell<bool>,
}

impl RankGate {
    /// Yield the worker slot before blocking.
    fn suspend(&self) {
        if self.held.replace(false) {
            self.gate.release();
        }
    }

    /// Re-acquire a worker slot after the rendezvous completed.
    fn resume(&self) {
        if !self.held.replace(true) {
            self.gate.acquire();
        }
    }
}

impl Drop for RankGate {
    fn drop(&mut self) {
        // The rank finished (or panicked while runnable): return its slot.
        self.suspend();
    }
}

/// The blocking executor's transport behind a [`RankComm`]: it matches,
/// moves and waits; the handle counts.
pub(crate) struct Comm {
    rank: usize,
    p: usize,
    shared: Arc<SharedState>,
    inbox: Receiver<Packet>,
    /// Out-of-order messages awaiting a matching receive.
    pending: Vec<Packet>,
    /// Admission handle: this rank's claim on a runnable slot.
    gate: RankGate,
    /// Deadlock guard: how long a blocking receive or barrier waits before
    /// raising [`ExecError::DeadlockSuspected`].
    recv_timeout: Duration,
}

impl Comm {
    /// Build communicators for a world of `p` ranks: every rank's blocking
    /// rendezvous yields its runnable slot to `gate`, and a receive or
    /// barrier that waits past `recv_timeout` raises the typed deadlock
    /// guard.
    pub fn create_world(p: usize, gate: Arc<WorkerGate>, recv_timeout: Duration) -> Vec<Comm> {
        assert!(p > 0, "world needs at least one rank");
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(SharedState {
            senders,
            barrier: Mutex::new((0, 0)),
            all_arrived: Condvar::new(),
        });
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| Comm {
                rank,
                p,
                shared: shared.clone(),
                inbox,
                pending: Vec::new(),
                gate: RankGate {
                    gate: gate.clone(),
                    held: Cell::new(false),
                },
                recv_timeout,
            })
            .collect()
    }

    /// Acquire this rank's initial runnable slot. The executor calls this on
    /// the rank's own carrier thread before any user code.
    pub fn gate_enter(&self) {
        self.gate.resume();
    }

    /// Send `data` to rank `to` with `tag`. Never blocks.
    ///
    /// # Panics
    /// Panics with a typed [`ExecError::WorldTornDown`] payload when the
    /// receiving rank already exited (the executor converts that into a
    /// typed error).
    pub fn send(&self, to: usize, tag: u64, data: Vec<f64>) {
        if self.shared.senders[to]
            .send(Packet {
                from: self.rank,
                tag,
                data,
            })
            .is_err()
        {
            // The receiver dropped: a peer exited (or failed) early.
            raise(ExecError::WorldTornDown { rank: self.rank });
        }
    }

    /// Receive the next message from `from` with `tag`, blocking until it
    /// arrives. Messages from the same sender with the same tag are delivered
    /// in send order.
    ///
    /// A receive with no matching message buffered is a resumable
    /// wait-state: the rank yields its worker slot while it waits and
    /// re-acquires one once the message arrived.
    ///
    /// # Panics
    /// Panics with a typed [`ExecError::DeadlockSuspected`] payload after
    /// [`MachineSpec::recv_timeout`](crate::machine::MachineSpec) without a
    /// matching message, or [`ExecError::WorldTornDown`] if every peer
    /// exited; the executor converts both into typed errors.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        // Check the out-of-order buffer first.
        if let Some(i) = self.pending.iter().position(|m| m.from == from && m.tag == tag) {
            return self.pending.remove(i).data;
        }
        // Drain already-delivered messages without giving up the worker slot.
        loop {
            match self.inbox.try_recv() {
                Ok(msg) if msg.from == from && msg.tag == tag => return msg.data,
                Ok(msg) => self.pending.push(msg),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => raise(ExecError::WorldTornDown { rank: self.rank }),
            }
        }
        // Nothing buffered: park until the match arrives, yielding this
        // rank's worker slot for the duration of the wait.
        self.gate.suspend();
        let data = loop {
            let msg = match self.inbox.recv_timeout(self.recv_timeout) {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => raise(ExecError::DeadlockSuspected {
                    rank: self.rank,
                    on: Waiting::Message { from, tag },
                }),
                Err(RecvTimeoutError::Disconnected) => raise(ExecError::WorldTornDown { rank: self.rank }),
            };
            if msg.from == from && msg.tag == tag {
                break msg.data;
            }
            self.pending.push(msg);
        };
        self.gate.resume();
        data
    }

    /// Block until all ranks reach the barrier. The wait is a resumable
    /// wait-state: the rank yields its worker slot while standing at the
    /// barrier (all `p` ranks must arrive, and fewer than `p` workers may
    /// exist).
    ///
    /// # Panics
    /// Panics with a typed [`ExecError::DeadlockSuspected`] payload after
    /// [`MachineSpec::recv_timeout`](crate::machine::MachineSpec) without
    /// every rank arriving; the executor converts it into a typed error.
    pub fn barrier(&self) {
        self.gate.suspend();
        let mut state = lock(&self.shared.barrier);
        let (arrived, generation) = &mut *state;
        *arrived += 1;
        // No rank re-acquires its worker slot while holding the lock.
        if *arrived == self.p {
            (*arrived, *generation) = (0, *generation + 1);
            drop(state);
            self.shared.all_arrived.notify_all();
        } else {
            let mine = *generation;
            let (state, wait) = self
                .shared
                .all_arrived
                .wait_timeout_while(state, self.recv_timeout, |(_, generation)| *generation == mine)
                .unwrap_or_else(|e| e.into_inner());
            drop(state);
            if wait.timed_out() {
                raise(ExecError::DeadlockSuspected {
                    rank: self.rank,
                    on: Waiting::Barrier,
                });
            }
        }
        self.gate.resume();
    }
}

// ---------------------------------------------------------------------------
// The rank-facing resumable handle
// ---------------------------------------------------------------------------

/// The communicator a rank body receives: one resumable surface over every
/// execution backend.
///
/// Rendezvous operations ([`recv`](Self::recv), [`barrier`](Self::barrier),
/// [`sendrecv`](Self::sendrecv)) are `async` wait-states. On the blocking backend they complete within a single poll —
/// the rank's carrier thread parks and yields its worker slot. On the event
/// backend they return `Poll::Pending` and the scheduler parks the rank's
/// state machine in the matching table, costing bytes instead of a stack.
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
/// The handle is opaque: which executor is behind it, and the executors'
/// own communicators, gate and futures, are private to this crate, so they
/// can be moved or rewritten without an API break. These must not compile:
///
/// ```compile_fail,E0603
/// use mpsim::comm::Comm;
/// ```
///
/// ```compile_fail,E0603
/// use mpsim::event::EventComm;
/// ```
///
/// ```compile_fail,E0603
/// use mpsim::exec::WorkerGate;
/// ```
pub struct RankComm {
    pub(crate) rank: usize,
    p: usize,
    /// The world's counters: this handle is the only writer of row `rank`.
    stats: Arc<StatsBoard>,
    /// The world's buffer-reuse arena.
    pool: Arc<BufferPool>,
    pub(crate) transport: Transport,
}

/// What moves a [`RankComm`]'s messages: one of the two executors.
pub(crate) enum Transport {
    /// Channel-backed blocking communicator (blocking executor), boxed so an
    /// event rank's handle is not sized by it.
    Blocking(Box<Comm>),
    /// Event-world handle (event executor): wait-states actually suspend.
    Event(EventComm),
}

impl RankComm {
    /// Rank `rank`'s handle on a world whose counters are `stats` (one row
    /// per rank) and whose arena is `pool`, moving messages over `transport`.
    pub(crate) fn new(
        rank: usize,
        stats: &Arc<StatsBoard>,
        pool: &Arc<BufferPool>,
        transport: Transport,
    ) -> Self {
        RankComm {
            rank,
            p: stats.len(),
            stats: stats.clone(),
            pool: pool.clone(),
            transport,
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

    /// Record `flops` local floating-point operations for this rank (on the
    /// event executor they also advance its virtual clock).
    pub fn record_flops(&self, flops: u64) {
        self.stats.rank(self.rank).record_flops(flops);
        if let Transport::Event(c) = &self.transport {
            c.compute(self.rank, flops);
        }
    }

    /// Record a working-memory allocation (peak-memory accounting).
    pub fn track_alloc(&self, words: u64) {
        self.stats.rank(self.rank).record_alloc(words);
    }

    /// Record a working-memory release.
    pub fn track_free(&self, words: u64) {
        self.stats.rank(self.rank).record_free(words);
    }

    /// Send `data` to rank `to` with `tag`. Never suspends.
    ///
    /// # Panics
    /// Panics if `to` is out of range, or with a typed
    /// [`ExecError::WorldTornDown`] payload when the receiving rank already
    /// exited (the executor converts that into a typed error).
    pub fn send(&self, to: usize, tag: u64, data: Vec<f64>, phase: Phase) {
        assert!(to < self.p, "send to rank {to} of {}", self.p);
        self.stats.rank(self.rank).record_send(data.len() as u64, phase);
        match &self.transport {
            Transport::Blocking(c) => c.send(to, tag, data),
            Transport::Event(c) => c.send(self.rank, to, tag, data),
        }
    }

    /// Receive the next message from `from` with `tag` — a wait-state until
    /// the matching message arrives. Messages from the same sender with the
    /// same tag are delivered in send order on every backend.
    pub async fn recv(&mut self, from: usize, tag: u64, phase: Phase) -> Vec<f64> {
        let data = match &mut self.transport {
            Transport::Blocking(c) => c.recv(from, tag),
            Transport::Event(c) => c.recv(self.rank, from, tag).await,
        };
        self.stats.rank(self.rank).record_recv(data.len() as u64, phase);
        data
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
        match &mut self.transport {
            Transport::Blocking(c) => c.barrier(),
            Transport::Event(c) => c.barrier(self.rank).await,
        }
    }
}

/// Drive a rank-body future on a blocking context to completion. Every
/// wait-state on a blocking context completes within its poll (the
/// underlying [`Comm`] blocks the thread), so a single poll finishes the
/// body; suspension here would mean the body awaited something other than
/// its communicator.
pub(crate) fn block_on_ready<F: Future>(fut: F) -> F::Output {
    let mut fut = pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    match fut.as_mut().poll(&mut cx) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!(
            "a blocking rank context cannot suspend: rank bodies must only await \
             their RankComm's operations"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_spmd_with, ExecBackend};
    use crate::machine::MachineSpec;

    /// A world of raw transports driven by hand: one slot per rank, so no
    /// wait ever queues.
    fn world(p: usize) -> Vec<Comm> {
        Comm::create_world(p, Arc::new(WorkerGate::new(p)), crate::machine::DEFAULT_RECV_TIMEOUT)
    }

    #[test]
    fn simple_send_recv() {
        let out = run_spmd_with(
            &MachineSpec::test_machine(2, 1000),
            ExecBackend::Blocking { workers: 2 },
            |mut c| async move {
                if c.rank() == 0 {
                    c.send(1, 7, vec![1.0, 2.0, 3.0], Phase::InputA);
                    Vec::new()
                } else {
                    c.recv(0, 7, Phase::InputA).await
                }
            },
        )
        .unwrap();
        assert_eq!(out.results[1], vec![1.0, 2.0, 3.0]);
        assert_eq!(out.stats[0].total_sent(), 3);
        assert_eq!(out.stats[1].total_recv(), 3);
        assert_eq!(out.stats[1].msgs_recv, 1);
    }

    #[test]
    fn tag_matching_reorders() {
        let mut comms = world(2);
        let mut c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        c0.send(1, 1, vec![1.0]);
        c0.send(1, 2, vec![2.0]);
        // Receive tag 2 first; tag 1 is buffered and found afterwards.
        assert_eq!(c1.recv(0, 2), vec![2.0]);
        assert_eq!(c1.recv(0, 1), vec![1.0]);
    }

    #[test]
    fn same_tag_fifo_per_sender() {
        let mut comms = world(2);
        let mut c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        c0.send(1, 5, vec![1.0]);
        c0.send(1, 5, vec![2.0]);
        assert_eq!(c1.recv(0, 5), vec![1.0]);
        assert_eq!(c1.recv(0, 5), vec![2.0]);
    }

    #[test]
    fn self_send() {
        let mut comms = world(1);
        let mut c0 = comms.pop().unwrap();
        c0.send(0, 3, vec![9.0]);
        assert_eq!(c0.recv(0, 3), vec![9.0]);
    }

    #[test]
    fn threaded_exchange() {
        // One carrier thread per rank, all runnable at once.
        let out = run_spmd_with(
            &MachineSpec::test_machine(4, 1000),
            ExecBackend::Blocking { workers: 4 },
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
        let out = run_spmd_with(
            &MachineSpec::test_machine(1, 1000),
            ExecBackend::Blocking { workers: 1 },
            |c| async move {
                c.track_alloc(500);
                c.track_free(200);
                c.track_alloc(100);
            },
        )
        .unwrap();
        assert_eq!(out.stats[0].peak_mem_words, 500);
    }

    #[test]
    fn rank_handle_is_small() {
        // Every event rank's body future holds one handle: 40 bytes saved
        // per rank is over a MiB at p = 32,768.
        assert!(std::mem::size_of::<RankComm>() <= 56, "{} bytes", std::mem::size_of::<RankComm>());
    }
}
