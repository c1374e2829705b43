//! The SPMD executors: run one resumable rank body per rank and collect
//! results.
//!
//! Rank bodies are `async` closures over [`RankComm`] —
//! `Fn(RankComm) -> impl Future<Output = R>` — so the same body runs on both
//! backends of the SPMD contract ([`ExecBackend`]):
//!
//! * **Blocking** — the reference executor: `p` simulated ranks multiplexed
//!   over `workers` runnable slots. Each rank gets a lightweight small-stack
//!   carrier thread, but at most `workers` of them are ever runnable: the
//!   communicator's rendezvous points (a `recv` waiting for a message, a
//!   `barrier`) yield the rank's worker slot to the next runnable
//!   rank instead of blocking it. Admission is FIFO, so runnable ranks are
//!   stepped round-robin; with `workers ≥ p` every rank is always runnable
//!   (one thread per rank). Parked ranks still pin their carrier stacks
//!   (~64 KiB touched each), which bounds practical worlds to a few thousand
//!   ranks. Every world has its own gate and its own arena.
//! * **Event** — no per-rank thread at all: every rank body is compiled by
//!   rustc into a *stackless* resumable state machine, and a single-threaded
//!   scheduler drives all of them as a discrete-event simulation: the ready
//!   queue is a min-heap ordered by each rank's virtual α-β-γ timestamp
//!   (FIFO on ties), so runs also *measure* per-rank virtual time
//!   ([`crate::event`]). A parked rank costs bytes (its suspended state
//!   machine plus a matching-table entry), which is what lets 100k+-rank
//!   worlds execute end-to-end with real messages.
//!
//! The backends are observationally identical at every worker and thread
//! count: bitwise-equal results and identical per-rank counters (the
//! conformance suite enforces this) — only the event backend additionally
//! fills `RankStats::time`, and only it honours the machine's topology,
//! placement and fault plan. [`ExecBackend::event`] is what every caller
//! that does not pin a backend runs on.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::future::Future;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::comm::{block_on_ready, Comm, CommImpl, RankComm};
use crate::machine::MachineSpec;
use crate::pool::{BufferPool, PoolStats};
use crate::stats::{RankStats, StatsBoard};

/// Stack size of one blocking rank carrier. Rank bodies keep their working
/// sets on the heap (matrix tiles, message buffers) and recurse at most
/// `log2 p` deep (CARMA's splitting), so a modest fixed stack suffices and
/// keeps 4096-rank worlds cheap.
const CARRIER_STACK_BYTES: usize = 1 << 20;

/// How an SPMD world is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
    /// The blocking reference executor: `p` carrier threads multiplexed over
    /// `workers` runnable slots; worlds up to a few thousand ranks (each
    /// parked rank pins a carrier stack). The worker count never changes what
    /// a run computes or counts. It keeps no virtual clock (`RankStats::time`
    /// stays zero) and ignores the machine's topology, placement and fault
    /// plan: the independently written reference the event backend's results
    /// and counters are tested against. Measured (EXPERIMENTS.md, "`Blocking`
    /// on a kernel-bound world"): there it is 1.6–1.8× faster than `event` /
    /// `event(2)` under a shared-link topology only because it ignores that
    /// topology; a flat spec on `Event { threads: 2 }` serves the same caller
    /// at the same speed and keeps the clock.
    Blocking {
        /// Maximum number of concurrently runnable ranks (≥ 1; a count above
        /// `p` behaves as `p`).
        workers: usize,
    },
    /// Event-driven stackless state machines on `threads` scheduler threads;
    /// any world size (verified to p = 1,048,576).
    ///
    /// With `threads: 1` (the [`ExecBackend::event`] shorthand) a single
    /// scheduler thread drives every rank. With `threads > 1` the ranks are
    /// partitioned into contiguous regions, one OS thread each, synchronized
    /// conservatively on windows of virtual time (lookahead = the cost
    /// model's per-message latency α; see [`crate::event`]). Stats — counters
    /// *and* virtual times — are bitwise-identical at every thread count;
    /// parallelism is an implementation detail of wall-clock. Ranks are only
    /// sharded where that contract is provable (flat topology, α > 0);
    /// any other world silently runs as one region on the calling thread.
    Event {
        /// Number of scheduler threads (≥ 1).
        threads: usize,
    },
}

impl ExecBackend {
    /// The event backend on a single scheduler thread — the default of
    /// every session, algorithm and served job that does not pin a backend,
    /// and the default `threads` for [`ExecBackend::Event`].
    pub const fn event() -> ExecBackend {
        ExecBackend::Event { threads: 1 }
    }

    /// Default blocking worker count: the machine's available parallelism.
    pub fn default_workers() -> usize {
        // `available_parallelism` re-reads the affinity mask and the cgroup
        // quota on every call (~10 µs).
        static WORKERS: OnceLock<usize> = OnceLock::new();
        *WORKERS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8))
    }
}

impl fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecBackend::Blocking { workers } => write!(f, "blocking({workers})"),
            ExecBackend::Event { threads } if *threads <= 1 => write!(f, "event"),
            ExecBackend::Event { threads } => write!(f, "event({threads})"),
        }
    }
}

/// What a deadlock-suspected rank was parked on (see
/// [`ExecError::DeadlockSuspected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waiting {
    /// A `recv(from, tag)` whose matching message never arrived.
    Message {
        /// The awaited sender.
        from: usize,
        /// The awaited tag.
        tag: u64,
    },
    /// A world barrier some rank never reached.
    Barrier,
    /// Something outside the communicator: the rank returned `Pending`
    /// without registering a wait (e.g. a rank body awaited a foreign
    /// future, which the event scheduler can never re-wake).
    Unknown,
}

impl fmt::Display for Waiting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Waiting::Message { from, tag } => write!(f, "a message from rank {from} with tag {tag}"),
            Waiting::Barrier => write!(f, "the world barrier"),
            Waiting::Unknown => {
                write!(f, "something outside the communicator (a non-RankComm future can never be re-woken)")
            }
        }
    }
}

/// Why an executor refused to run a world (before any rank started), or
/// rejected a finished or wedged one — the typed surface that keeps
/// blocking-backend deadlocks from aborting the process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecError {
    /// Zero blocking workers or zero event scheduler threads can never step
    /// any rank.
    NoWorkers,
    /// A sizing knob that only makes sense positive was zero — `what` names
    /// it (e.g. a served plan cache with no shard or no room for a plan).
    ZeroCapacity {
        /// The offending knob.
        what: &'static str,
    },
    /// A rank's tracked working set exceeded the machine's enforced per-rank
    /// memory budget ([`MachineSpec::mem_budget`]). Raised identically by
    /// both backends — the budget check runs on the measured
    /// `peak_mem_words` counters, which the backends share.
    MemBudgetExceeded {
        /// First offending rank.
        rank: usize,
        /// Its measured peak working set, in words.
        need: u64,
        /// The enforced budget `S`, in words.
        budget: u64,
    },
    /// A rank could not make progress: on the event backend, no rank was
    /// runnable while some were unfinished (structural detection), or a
    /// parked `recv` outlived [`MachineSpec::recv_timeout`] in *virtual*
    /// time while other ranks kept advancing; on the blocking backends, a
    /// `recv` waited past the same timeout in wall-clock time (e.g. a
    /// mismatched tag).
    DeadlockSuspected {
        /// The first stuck rank.
        rank: usize,
        /// What it was parked on.
        on: Waiting,
    },
    /// A rank found its world torn down mid-operation — a peer exited (or
    /// failed) while this rank still had communication in flight with it.
    WorldTornDown {
        /// The rank that observed the teardown.
        rank: usize,
    },
    /// A rank was killed by the machine's fault-injection plan
    /// ([`MachineSpec::faults`](crate::machine::MachineSpec)) and the world
    /// could not complete without it. Carries the earliest *scheduled*
    /// casualty of the plan — a schedule-derived attribution, so the
    /// single-threaded and multi-region event engines report the same
    /// failure — or, for a pure message-loss wedge, the starved receiver
    /// of the first lost message. A recovery driver can re-fit the problem
    /// to [`FaultPlan::survivors`](crate::fault::FaultPlan::survivors) and
    /// re-run clean.
    RankFailed {
        /// The failed rank (earliest scheduled death; ties by rank).
        rank: usize,
        /// Its virtual death time, seconds.
        at: f64,
    },
}

// `at` is derived from a finite fault horizon and never NaN, so equality is
// reflexive despite the f64 field.
impl Eq for ExecError {}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NoWorkers => {
                write!(f, "execution needs at least one blocking worker or event scheduler thread")
            }
            ExecError::ZeroCapacity { what } => write!(f, "{what} must be at least 1"),
            ExecError::MemBudgetExceeded { rank, need, budget } => write!(
                f,
                "rank {rank} peaked at {need} words of working memory, exceeding the \
                 enforced per-rank budget S = {budget} (MachineSpec::with_mem_budget)"
            ),
            ExecError::DeadlockSuspected { rank, on } => {
                write!(f, "deadlock suspected: rank {rank} waited on {on} that can no longer arrive")
            }
            ExecError::WorldTornDown { rank } => write!(
                f,
                "rank {rank}: world torn down mid-operation (a peer exited with \
                 communication still in flight)"
            ),
            ExecError::RankFailed { rank, at } => write!(
                f,
                "rank {rank} failed at virtual t = {at:.6}s (injected fault) and the \
                 world could not complete without it; replan for the surviving ranks \
                 (FaultPlan::survivors) and re-run"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Results and measured statistics of an SPMD run.
#[derive(Debug)]
pub struct RunOutput<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank measured statistics (the mpiP-equivalent numbers).
    pub stats: Vec<RankStats>,
    /// Buffer-arena counters of the run (allocations vs. recycled hits).
    /// Display-only: recycling is bitwise-invisible to `results` and
    /// `stats`, and these counters are *not* part of the determinism
    /// contract — hit/miss splits depend on scheduling order.
    pub pool: PoolStats,
}

/// The shared budget gate of both backends: with an enforcing
/// [`MachineSpec::mem_budget`], a finished run in which any rank's measured
/// peak working set exceeds the budget becomes a typed
/// [`ExecError::MemBudgetExceeded`] instead of an output.
fn enforce_mem_budget<R>(spec: &MachineSpec, out: RunOutput<R>) -> Result<RunOutput<R>, ExecError> {
    if let Some(budget) = spec.mem_budget {
        for (rank, st) in out.stats.iter().enumerate() {
            if st.peak_mem_words > budget {
                return Err(ExecError::MemBudgetExceeded {
                    rank,
                    need: st.peak_mem_words,
                    budget,
                });
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The worker gate: the blocking executor's admission control
// ---------------------------------------------------------------------------

/// FIFO admission gate of the blocking executor: at most `workers` ranks hold
/// a runnable slot at any moment.
///
/// A rank acquires a slot before running user code and *suspends* (returns
/// its slot) at every rendezvous that would block — waiting for a message,
/// standing at a barrier. Release hands the freed slot directly to the
/// longest-waiting rank (one targeted `unpark`, no thundering herd), so
/// runnable ranks are admitted round-robin and a parked rank never pins a
/// worker.
pub(crate) struct WorkerGate {
    state: Mutex<GateQueue>,
}

struct GateQueue {
    /// Unassigned slots.
    free: usize,
    /// Ranks waiting for a slot, FIFO.
    queue: VecDeque<(u64, std::thread::Thread)>,
    /// Tickets whose slot was handed over but whose thread has not resumed.
    granted: HashSet<u64>,
    next_ticket: u64,
}

impl WorkerGate {
    /// A gate admitting `workers` ≥ 1 concurrently runnable ranks.
    pub(crate) fn new(workers: usize) -> Self {
        assert!(workers > 0, "the worker gate needs at least one slot");
        WorkerGate {
            state: Mutex::new(GateQueue {
                free: workers,
                queue: VecDeque::new(),
                granted: HashSet::new(),
                next_ticket: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateQueue> {
        // A poisoned gate means a rank panicked; let that panic surface.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Block until a runnable slot is free (FIFO order).
    pub(crate) fn acquire(&self) {
        let ticket = {
            let mut st = self.lock();
            if st.free > 0 && st.queue.is_empty() {
                st.free -= 1;
                return;
            }
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.queue.push_back((ticket, std::thread::current()));
            ticket
        };
        loop {
            std::thread::park();
            if self.lock().granted.remove(&ticket) {
                return;
            }
        }
    }

    /// Return a slot, handing it to the longest-waiting rank if any.
    pub(crate) fn release(&self) {
        let mut st = self.lock();
        if let Some((ticket, thread)) = st.queue.pop_front() {
            // The slot transfers directly: `free` stays unchanged.
            st.granted.insert(ticket);
            thread.unpark();
        } else {
            st.free += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------------

/// Run the rank body `f` on every rank of `spec` under `backend` and collect
/// results. The body receives its [`RankComm`] by value and returns a
/// future; on the blocking backend the future is driven on the rank's own
/// carrier thread (wait-states block it or yield its worker slot), on the
/// event backend all bodies are stackless state machines driven by the
/// scheduler.
///
/// # Errors
/// [`ExecError::NoWorkers`] for `Blocking { workers: 0 }` or
/// `Event { threads: 0 }`; [`ExecError::MemBudgetExceeded`] when the machine
/// enforces a per-rank memory budget ([`MachineSpec::mem_budget`]) and a
/// rank's measured peak working set breaks it; a wedged, torn-down or
/// fault-felled world as the matching typed [`ExecError`].
///
/// # Panics
/// Panics if any rank panics (the panic is propagated).
pub fn run_spmd_with<R, F, Fut>(
    spec: &MachineSpec,
    backend: ExecBackend,
    f: F,
) -> Result<RunOutput<R>, ExecError>
where
    R: Send,
    F: Fn(RankComm) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    let out = match backend {
        ExecBackend::Blocking { workers: 0 } | ExecBackend::Event { threads: 0 } => {
            return Err(ExecError::NoWorkers)
        }
        // The world's own gate and arena. Slots beyond `p` could never be
        // taken, so the gate is capped there.
        ExecBackend::Blocking { workers } => {
            let gate = Arc::new(WorkerGate::new(workers.min(spec.p)));
            run_world(spec, gate, spec_arena(spec), f)?
        }
        // More than one region only where sharding is provably invisible: a
        // flat topology (per-rank virtual state is region-local there) and
        // α > 0 (the conservative lookahead). Any other world is one region
        // on the calling thread, so stats are bitwise-identical either way;
        // the thread count never affects *what* a run measures.
        ExecBackend::Event { threads } => {
            let regions = if spec.topology.commutes_with_region_sharding() && spec.cost.alpha_s > 0.0 {
                threads.min(spec.p)
            } else {
                1
            };
            crate::event::run_event_world(spec, regions, f, spec_arena(spec))?
        }
    };
    enforce_mem_budget(spec, out)
}

/// A fresh per-run arena honouring [`MachineSpec::pooling`]. A disabled
/// arena hands out plain allocations and drops returns, so a `pooling:
/// false` run exercises the exact pre-arena allocation behaviour.
fn spec_arena(spec: &MachineSpec) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(spec.pooling))
}

/// The blocking executor proper: spawn one small-stack carrier per rank,
/// drive each rank's body future on its own thread, join in rank order.
/// Every carrier acquires its admission slot on its own thread before user
/// code; the slot is returned when the body finishes or panics (the
/// communicator's gate handle releases on drop).
///
/// A rank that fails with a *typed* refusal — the communicator's deadlock
/// guard or a torn-down world, which unwind with an [`ExecError`] panic
/// payload — is caught here and surfaced as `Err` instead of aborting the
/// run; any other rank panic is propagated unchanged.
fn run_world<R, F, Fut>(
    spec: &MachineSpec,
    gate: Arc<WorkerGate>,
    pool: Arc<BufferPool>,
    f: F,
) -> Result<RunOutput<R>, ExecError>
where
    R: Send,
    F: Fn(RankComm) -> Fut + Sync,
    Fut: Future<Output = R>,
{
    let stats = Arc::new(StatsBoard::new(spec.p));
    let pool_stats_src = pool.clone();
    let comms = Comm::create_world(spec.p, stats.clone(), gate, spec.recv_timeout, pool);
    let mut slots: Vec<Option<R>> = (0..spec.p).map(|_| None).collect();
    let mut failures: Vec<ExecError> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let f = &f;
                std::thread::Builder::new()
                    .stack_size(CARRIER_STACK_BYTES)
                    .spawn_scoped(s, move || {
                        c.gate_enter();
                        block_on_ready(f(RankComm(CommImpl::Blocking(c))))
                    })
                    .expect("spawn rank carrier")
            })
            .collect();
        for (slot, h) in slots.iter_mut().zip(handles) {
            match h.join() {
                Ok(v) => *slot = Some(v),
                Err(payload) => match payload.downcast::<ExecError>() {
                    Ok(e) => failures.push(*e),
                    Err(payload) => std::panic::resume_unwind(payload),
                },
            }
        }
    });
    if !failures.is_empty() {
        // A deadlock is the root cause; torn-down-world failures on other
        // ranks are its fallout. Within a kind, report the lowest rank
        // (failures arrive in join = rank order).
        let root = failures
            .iter()
            .find(|e| matches!(e, ExecError::DeadlockSuspected { .. }))
            .unwrap_or(&failures[0]);
        return Err(*root);
    }
    Ok(RunOutput {
        results: slots.into_iter().map(|s| s.expect("missing rank result")).collect(),
        stats: stats.snapshot(),
        pool: pool_stats_src.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Phase;

    /// Run `f` on the blocking executor with one slot per rank.
    fn run_blocking<R, F, Fut>(spec: &MachineSpec, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(RankComm) -> Fut + Sync,
        Fut: Future<Output = R>,
    {
        run_spmd_with(spec, ExecBackend::Blocking { workers: spec.p }, f).unwrap()
    }

    #[test]
    fn results_are_rank_ordered() {
        let spec = MachineSpec::test_machine(8, 1000);
        let out = run_blocking(&spec, |c| async move { c.rank() * 10 });
        assert_eq!(out.results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(out.stats.len(), 8);
    }

    #[test]
    fn stats_reflect_execution() {
        let spec = MachineSpec::test_machine(4, 1000);
        let out = run_blocking(&spec, |mut c| async move {
            // Everyone sends rank+1 words to rank 0.
            if c.rank() != 0 {
                c.send(0, 1, vec![0.0; c.rank() + 1], Phase::OutputC);
                0u64
            } else {
                let mut total = 0u64;
                for from in 1..c.size() {
                    total += c.recv(from, 1, Phase::OutputC).await.len() as u64;
                }
                total
            }
        });
        assert_eq!(out.results[0], 2 + 3 + 4);
        assert_eq!(out.stats[0].total_recv(), 9);
        assert_eq!(out.stats[2].total_sent(), 3);
    }

    #[test]
    fn barrier_synchronizes() {
        let spec = MachineSpec::test_machine(6, 1000);
        let out = run_blocking(&spec, |mut c| async move {
            c.barrier().await;
            c.rank()
        });
        assert_eq!(out.results.len(), 6);
    }

    #[test]
    fn zero_workers_or_threads_is_a_typed_error() {
        let spec = MachineSpec::test_machine(4, 10);
        for backend in [
            ExecBackend::Blocking { workers: 0 },
            ExecBackend::Event { threads: 0 },
        ] {
            let err = run_spmd_with(&spec, backend, |_| async move {}).unwrap_err();
            assert_eq!(err, ExecError::NoWorkers, "{backend:?}");
            let msg = err.to_string();
            assert!(msg.contains("blocking worker") && msg.contains("event scheduler thread"), "{msg}");
        }
    }

    #[test]
    fn event_is_one_thread_and_blocking_defaults_to_every_core() {
        // Nothing escalates by world size any more: the one default is a
        // single event thread, and the blocking opt-in defaults to every core.
        assert_eq!(ExecBackend::event(), ExecBackend::Event { threads: 1 });
        assert!(ExecBackend::default_workers() >= 1);
    }

    #[test]
    fn few_workers_keep_results_rank_ordered() {
        let spec = MachineSpec::test_machine(24, 1000);
        let out =
            run_spmd_with(&spec, ExecBackend::Blocking { workers: 3 }, |c| async move { c.rank() * 10 })
                .unwrap();
        assert_eq!(out.results, (0..24).map(|r| r * 10).collect::<Vec<_>>());
    }

    #[test]
    fn blocking_runs_worlds_far_larger_than_the_worker_count() {
        // Far more ranks than workers; every rank exchanges with a
        // neighbour, so the gate must hand slots between parked and runnable
        // ranks without deadlocking.
        let p = 672;
        let spec = MachineSpec::test_machine(p, 1000);
        let out = run_spmd_with(&spec, ExecBackend::Blocking { workers: 4 }, |mut c| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            let got = c.sendrecv(right, left, 7, vec![c.rank() as f64], Phase::Other).await;
            got[0] as usize
        })
        .unwrap();
        for (r, &got) in out.results.iter().enumerate() {
            assert_eq!(got, (r + p - 1) % p);
        }
    }

    #[test]
    fn single_worker_makes_progress_through_rendezvous() {
        // workers = 1 is the harshest schedule: every recv/barrier must yield
        // the lone slot or the world deadlocks.
        let spec = MachineSpec::test_machine(8, 1000);
        let out = run_spmd_with(&spec, ExecBackend::Blocking { workers: 1 }, |mut c| async move {
            c.barrier().await;
            let got = if c.rank() == 0 {
                for to in 1..c.size() {
                    c.send(to, 1, vec![to as f64], Phase::Other);
                }
                0.0
            } else {
                c.recv(0, 1, Phase::Other).await[0]
            };
            c.barrier().await;
            got
        });
        let out = match out {
            Ok(o) => o,
            Err(e) => panic!("{e}"),
        };
        for r in 1..8 {
            assert_eq!(out.results[r], r as f64);
        }
    }

    #[test]
    fn worker_and_thread_counts_are_invisible_to_measurement() {
        let p = 16;
        let spec = MachineSpec::test_machine(p, 1000);
        let pattern = |mut c: RankComm| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.sendrecv(right, left, 3, vec![1.0; c.rank() + 1], Phase::InputA).await;
            c.barrier().await;
            c.rank()
        };
        let reference = run_spmd_with(&spec, ExecBackend::Blocking { workers: 1 }, pattern).unwrap();
        // Blocking backends keep no virtual clock.
        assert!(reference.stats.iter().all(|s| s.time.total_s() == 0.0));
        for workers in [3, p] {
            let out = run_spmd_with(&spec, ExecBackend::Blocking { workers }, pattern).unwrap();
            assert_eq!(out.results, reference.results, "blocking({workers})");
            assert_eq!(out.stats, reference.stats, "blocking({workers})");
        }
        let event = run_spmd_with(&spec, ExecBackend::event(), pattern).unwrap();
        let par = run_spmd_with(&spec, ExecBackend::Event { threads: 4 }, pattern).unwrap();
        assert_eq!(event.results, reference.results);
        // Counters are identical; only the event backend drives the virtual
        // clock, so its time fields are the extra measurement — bitwise the
        // same at every scheduler thread count.
        let counters = |out: &RunOutput<usize>| out.stats.iter().map(|s| s.sans_time()).collect::<Vec<_>>();
        assert_eq!(counters(&event), counters(&reference));
        assert!(event.stats.iter().all(|s| s.time.total_s() > 0.0));
        assert_eq!(par.results, event.results);
        assert_eq!(par.stats, event.stats);
    }

    #[test]
    fn sendrecv_is_send_then_recv_on_every_backend() {
        // `sendrecv` is written once, on `RankComm`: on every backend it
        // measures exactly what the explicit pair does, virtual time included.
        let spec = MachineSpec::test_machine(6, 1000);
        let fused = |mut c: RankComm| async move {
            let (right, left) = ((c.rank() + 1) % 6, (c.rank() + 5) % 6);
            c.sendrecv(right, left, 2, vec![c.rank() as f64; c.rank() + 1], Phase::InputB)
                .await
        };
        let split = |mut c: RankComm| async move {
            let (right, left) = ((c.rank() + 1) % 6, (c.rank() + 5) % 6);
            c.send(right, 2, vec![c.rank() as f64; c.rank() + 1], Phase::InputB);
            c.recv(left, 2, Phase::InputB).await
        };
        for backend in [ExecBackend::Blocking { workers: 2 }, ExecBackend::event()] {
            let (a, b) = (
                run_spmd_with(&spec, backend, fused).unwrap(),
                run_spmd_with(&spec, backend, split).unwrap(),
            );
            assert_eq!(a.results, b.results, "{backend}");
            assert_eq!(a.stats, b.stats, "{backend}");
        }
    }

    #[test]
    fn mismatched_tag_deadlock_is_typed_on_the_blocking_backend() {
        // Rank 0 sends tag 7 but rank 1 waits for tag 8 — a classic
        // mismatched-tag deadlock. The recv_timeout guard turns it into a
        // typed error instead of a process abort, whether the stuck rank
        // holds the only worker slot or has one to itself.
        let spec =
            MachineSpec::test_machine(2, 1000).with_recv_timeout(std::time::Duration::from_millis(200));
        for backend in [
            ExecBackend::Blocking { workers: 1 },
            ExecBackend::Blocking { workers: 2 },
        ] {
            let err = run_spmd_with(&spec, backend, |mut c| async move {
                if c.rank() == 0 {
                    c.send(1, 7, vec![1.0], Phase::Other);
                }
                c.recv((c.rank() + 1) % 2, 8, Phase::Other).await
            })
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    ExecError::DeadlockSuspected {
                        on: Waiting::Message { tag: 8, .. },
                        ..
                    }
                ),
                "{backend}: {err}"
            );
            assert!(err.to_string().contains("deadlock suspected"), "{backend}: {err}");
        }
    }

    #[test]
    fn event_deadlock_is_typed_through_run_spmd_with() {
        let spec = MachineSpec::test_machine(2, 1000);
        let err = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            c.recv((c.rank() + 1) % 2, 9, Phase::Other).await
        })
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::DeadlockSuspected {
                rank: 0,
                on: Waiting::Message { from: 1, tag: 9 }
            }
        );
    }

    #[test]
    fn event_backend_runs_worlds_beyond_the_blocking_threshold() {
        // A world past what carrier threads serve comfortably: stackless
        // ranks exchange with a neighbour and everything completes on one
        // scheduler thread.
        let p = 9192;
        let spec = MachineSpec::test_machine(p, 1000);
        let out = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            let got = c.sendrecv(right, left, 7, vec![c.rank() as f64], Phase::Other).await;
            c.barrier().await;
            got[0] as usize
        })
        .unwrap();
        for (r, &got) in out.results.iter().enumerate() {
            assert_eq!(got, (r + p - 1) % p);
        }
    }

    #[test]
    #[ignore = "xl world (131072 ranks); run with --ignored"]
    fn ring_exchange_131072_ranks_stackless() {
        // The raw-executor form of the acceptance criterion: p = 131072 with
        // a real message per rank, far beyond any carrier-thread backend.
        let p = 131_072;
        let spec = MachineSpec::test_machine(p, 10);
        let out = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            let got = c.sendrecv(right, left, 1, vec![c.rank() as f64], Phase::Other).await;
            got[0] as usize
        })
        .unwrap();
        for (r, &got) in out.results.iter().enumerate() {
            assert_eq!(got, (r + p - 1) % p);
        }
    }

    #[test]
    fn worker_gate_is_fifo_and_conserves_slots() {
        let gate = Arc::new(WorkerGate::new(2));
        gate.acquire();
        gate.acquire();
        // Both slots held: a queued acquire must wait until a release.
        let g = gate.clone();
        let waiter = std::thread::spawn(move || {
            g.acquire();
            g.release();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "no free slot yet");
        gate.release();
        waiter.join().unwrap();
        gate.release();
        // Both slots free again.
        gate.acquire();
        gate.acquire();
        gate.release();
        gate.release();
    }

    #[test]
    fn mem_budget_violation_is_typed_on_every_backend() {
        // Each rank allocates rank+1 words; with a budget of 2, rank 2 is
        // the first offender — on both backends identically.
        let spec = MachineSpec::test_machine(4, 1000).with_mem_budget(2);
        for backend in [
            ExecBackend::Blocking { workers: 4 },
            ExecBackend::Blocking { workers: 2 },
            ExecBackend::event(),
        ] {
            let err = run_spmd_with(&spec, backend, |c| async move {
                c.track_alloc(c.rank() as u64 + 1);
            })
            .unwrap_err();
            assert_eq!(
                err,
                ExecError::MemBudgetExceeded {
                    rank: 2,
                    need: 3,
                    budget: 2
                },
                "{backend}"
            );
            assert!(err.to_string().contains("per-rank budget"));
        }
    }

    #[test]
    fn mem_budget_within_limit_passes_and_freed_memory_does_not_count() {
        let spec = MachineSpec::test_machine(2, 1000).with_mem_budget(10);
        let out = run_blocking(&spec, |c| async move {
            // Peak 10, then shrink: stays exactly at the budget.
            c.track_alloc(10);
            c.track_free(8);
            c.track_alloc(2);
            c.rank()
        });
        assert_eq!(out.results, vec![0, 1]);
        assert!(out.stats.iter().all(|s| s.peak_mem_words == 10));
    }

    #[test]
    fn advisory_memory_never_errors() {
        // Without an enforcing budget, over-allocation is only measured.
        let spec = MachineSpec::test_machine(2, 10);
        let out = run_spmd_with(&spec, ExecBackend::event(), |c| async move {
            c.track_alloc(10_000);
        })
        .unwrap();
        assert_eq!(out.stats[0].peak_mem_words, 10_000);
    }

    #[test]
    fn concurrent_blocking_worlds_agree_with_a_solo_run() {
        // Four 8-rank worlds of 3 runnable slots each, at once: every world's
        // ring exchange completes and counts traffic exactly as a solo run.
        let body = |mut c: RankComm| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            let got = c.sendrecv(right, left, 7, vec![c.rank() as f64], Phase::Other).await;
            got[0] as usize
        };
        let spec = MachineSpec::test_machine(8, 1000);
        let backend = ExecBackend::Blocking { workers: 3 };
        let solo = run_spmd_with(&spec, backend, body).unwrap();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| run_spmd_with(&spec, backend, body).unwrap()))
                .collect();
            for h in handles {
                let out = h.join().unwrap();
                assert_eq!(out.results, solo.results);
                assert_eq!(out.stats, solo.stats);
            }
        });
    }

    #[test]
    fn workers_beyond_p_behave_as_p() {
        // A world's gate is capped at one slot per rank, so an absurd worker
        // count costs nothing and measures like any other.
        let spec = MachineSpec::test_machine(4, 1000);
        let body = |mut c: RankComm| async move {
            c.barrier().await;
            c.rank()
        };
        let huge = run_spmd_with(&spec, ExecBackend::Blocking { workers: usize::MAX }, body).unwrap();
        let exact = run_spmd_with(&spec, ExecBackend::Blocking { workers: 4 }, body).unwrap();
        assert_eq!(huge.results, exact.results);
        assert_eq!(huge.stats, exact.stats);
    }

    #[test]
    fn pooling_off_blocking_world_never_recycles() {
        let body = |mut c: RankComm| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            let got = c.sendrecv(right, left, 7, vec![c.rank() as f64; 64], Phase::Other).await;
            c.recycle(got);
            let scratch = c.pool().take_zeroed(64);
            c.recycle(scratch);
        };
        let backend = ExecBackend::Blocking { workers: 2 };
        let off = MachineSpec::test_machine(4, 1000).with_pooling(false);
        let out = run_spmd_with(&off, backend, body).unwrap();
        assert_eq!((out.pool.hits, out.pool.returns), (0, 0), "a disabled arena never recycles");
        assert_eq!(out.pool.misses, 4, "every take is a fresh allocation");
        let on = run_spmd_with(&MachineSpec::test_machine(4, 1000), backend, body).unwrap();
        assert_eq!(on.pool.returns, 8, "a pooling world parks what its ranks hand back");
        assert_eq!(on.pool.hits + on.pool.misses, 4);
    }
}
