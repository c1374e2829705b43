//! The SPMD executor: run one resumable rank body per rank and collect
//! results.
//!
//! Rank bodies are `async` closures over [`RankComm`] —
//! `Fn(RankComm) -> impl Future<Output = R>` — and every rank body is
//! compiled by rustc into a *stackless* resumable state machine. A scheduler
//! drives all of them as a discrete-event simulation ([`crate::event`]): the
//! ready queue orders ranks by their virtual α-β-γ timestamps (FIFO on
//! ties), so runs also *measure* per-rank virtual time. A parked rank costs
//! bytes (its suspended state machine plus a matching-table entry), which is
//! what lets 100k+-rank worlds execute end-to-end with real messages.
//! [`ExecBackend`] says how many scheduler threads drive a world; results,
//! counters and virtual times are bitwise-equal at every thread count (the
//! conformance suite enforces this).
//!
//! [`run_spmd_with`] builds each world's counters and arena once, hands
//! every rank a [`RankComm`] over them, and assembles the [`RunOutput`].
//! [`ExecBackend::event`] is what every caller that does not pin a thread
//! count runs on.

use std::fmt;
use std::future::Future;
use std::sync::Arc;

use crate::comm::RankComm;
use crate::machine::MachineSpec;
use crate::pool::{BufferPool, PoolStats};
use crate::stats::{RankStats, StatsBoard};

/// How an SPMD world is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
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
}

impl fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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

/// Why the executor refused to run a world (before any rank started), or
/// rejected a finished or wedged one — the typed surface that keeps a
/// deadlocked world from aborting the process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecError {
    /// Zero scheduler threads (or, for a server, zero driver threads) can
    /// never step any rank.
    NoWorkers,
    /// A sizing knob that only makes sense positive was zero — `what` names
    /// it (e.g. a served plan cache with no shard or no room for a plan).
    ZeroCapacity {
        /// The offending knob.
        what: &'static str,
    },
    /// A constant of the machine's cost model is NaN, infinite, a rate that
    /// is not positive or a negative α or β — `field` names the first, by
    /// [`CostModel::check`](crate::cost::CostModel::check). Such a model
    /// prices a message or a flop at NaN, ±∞ or negative time, which no
    /// virtual clock can order, so the world is refused before any rank runs.
    InvalidCostModel {
        /// The first invalid constant.
        field: &'static str,
    },
    /// A rank's tracked working set exceeded the machine's enforced per-rank
    /// memory budget ([`MachineSpec::mem_budget`]). Raised identically at
    /// every thread count — the budget check runs on the measured
    /// `peak_mem_words` counters.
    MemBudgetExceeded {
        /// First offending rank.
        rank: usize,
        /// Its measured peak working set, in words.
        need: u64,
        /// The enforced budget `S`, in words.
        budget: u64,
    },
    /// A rank could not make progress: no rank was runnable while some were
    /// unfinished (structural detection — e.g. a mismatched tag, or a rank
    /// that never reached the barrier), or a parked `recv` outlived
    /// [`MachineSpec::recv_timeout`] in *virtual* time while other ranks kept
    /// advancing.
    DeadlockSuspected {
        /// The first stuck rank.
        rank: usize,
        /// What it was parked on.
        on: Waiting,
    },
    /// Every rank finished, but a message was never received: its receiver
    /// exited first, or returned without the matching `recv`.
    WorldTornDown {
        /// The lowest rank that sent such a message.
        rank: usize,
    },
    /// A rank was killed by the machine's fault-injection plan
    /// ([`MachineSpec::faults`](crate::machine::MachineSpec)) and the world
    /// could not complete without it. Carries the earliest *scheduled*
    /// casualty of the plan — a schedule-derived attribution, so the
    /// single-threaded and multi-region event engines report the same
    /// failure. Rank death is the only fault: the network loses no
    /// message. A recovery driver can re-fit the problem to
    /// [`FaultPlan::survivors`](crate::fault::FaultPlan::survivors) and
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
                write!(f, "execution needs at least one scheduler thread")
            }
            ExecError::ZeroCapacity { what } => write!(f, "{what} must be at least 1"),
            ExecError::InvalidCostModel { field } => {
                write!(f, "the machine's cost model has an invalid {field}")
            }
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
                "rank {rank}: world torn down with a message never received (its \
                 receiver finished without taking it)"
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

/// The budget gate: with an enforcing [`MachineSpec::mem_budget`], a
/// finished run in which any rank's measured peak working set exceeds the
/// budget becomes a typed [`ExecError::MemBudgetExceeded`] instead of an
/// output.
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

/// Run the rank body `f` on every rank of `spec` under `backend` and collect
/// results. The body receives its [`RankComm`] by value and returns a
/// future; all bodies are stackless state machines driven by the scheduler.
///
/// # Errors
/// [`ExecError::NoWorkers`] for `Event { threads: 0 }`;
/// [`ExecError::InvalidCostModel`], before any rank runs, when a constant
/// of `spec.cost` fails [`CostModel::check`](crate::cost::CostModel::check);
/// [`ExecError::MemBudgetExceeded`] when the machine enforces a per-rank
/// memory budget ([`MachineSpec::mem_budget`]) and a rank's measured peak
/// working set breaks it; a wedged, torn-down or fault-felled world as the
/// matching typed [`ExecError`].
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
    spec.cost.check().map_err(|field| ExecError::InvalidCostModel { field })?;
    let ExecBackend::Event { threads } = backend;
    if threads == 0 {
        return Err(ExecError::NoWorkers);
    }
    // More than one region only where sharding is provably invisible: a
    // flat topology (per-rank virtual state is region-local there) and
    // α > 0 (the conservative lookahead). Any other world is one region on
    // the calling thread, so stats are bitwise-identical either way; the
    // thread count never affects *what* a run measures.
    let regions = if spec.topology.commutes_with_region_sharding() && spec.cost.alpha_s > 0.0 {
        threads.min(spec.p)
    } else {
        1
    };
    // The world's own counters and arena, written and leased by its rank
    // handles. A disabled arena (`MachineSpec::pooling` off) hands out plain
    // allocations and drops returns: the exact pre-arena behaviour.
    let board = Arc::new(StatsBoard::new(spec.p));
    let pool = Arc::new(BufferPool::new(spec.pooling));
    let (results, stats) = crate::event::run_event_world(spec, regions, (&board, &pool), f)?;
    enforce_mem_budget(
        spec,
        RunOutput {
            results,
            stats,
            pool: pool.stats(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Phase, NUM_PHASES};

    /// Run `f` with one scheduler thread per rank.
    fn run_sharded<R, F, Fut>(spec: &MachineSpec, f: F) -> RunOutput<R>
    where
        R: Send,
        F: Fn(RankComm) -> Fut + Sync,
        Fut: Future<Output = R>,
    {
        run_spmd_with(spec, ExecBackend::Event { threads: spec.p }, f).unwrap()
    }

    #[test]
    fn results_are_rank_ordered() {
        let spec = MachineSpec::test_machine(8, 1000);
        let out = run_sharded(&spec, |c| async move { c.rank() * 10 });
        assert_eq!(out.results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(out.stats.len(), 8);
    }

    #[test]
    fn stats_reflect_execution() {
        let spec = MachineSpec::test_machine(4, 1000);
        let out = run_sharded(&spec, |mut c| async move {
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
        let out = run_sharded(&spec, |mut c| async move {
            c.barrier().await;
            c.rank()
        });
        assert_eq!(out.results.len(), 6);
    }

    #[test]
    fn zero_workers_or_threads_is_a_typed_error() {
        let spec = MachineSpec::test_machine(4, 10);
        let err = run_spmd_with(&spec, ExecBackend::Event { threads: 0 }, |_| async move {}).unwrap_err();
        assert_eq!(err, ExecError::NoWorkers);
        assert!(err.to_string().contains("scheduler thread"), "{err}");
        // The default every caller that pins nothing runs on.
        assert_eq!(ExecBackend::event(), ExecBackend::Event { threads: 1 });
    }

    #[test]
    fn non_finite_cost_model_is_refused_before_any_rank_runs() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Two ranks swapping four words: with β = +∞ the message would
        // complete at t = +∞ and the event windows could never admit it. A
        // watchdog turns a regression into a failure instead of a hang.
        let (done, verdicts) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            use crate::cost::CostModel;
            let base = CostModel::piz_daint_two_sided();
            for (field, cost) in [
                (
                    "beta_s_per_word",
                    CostModel {
                        beta_s_per_word: f64::INFINITY,
                        ..base
                    },
                ),
                (
                    "alpha_s",
                    CostModel {
                        alpha_s: f64::NAN,
                        ..base
                    },
                ),
                (
                    "peak_flops",
                    CostModel {
                        peak_flops: f64::NEG_INFINITY,
                        ..base
                    },
                ),
                (
                    "peak_flops",
                    CostModel {
                        peak_flops: 0.0,
                        ..base
                    },
                ),
            ] {
                let spec = MachineSpec::new(2, 1000, cost);
                for backend in [ExecBackend::event(), ExecBackend::Event { threads: 2 }] {
                    let ran = AtomicBool::new(false);
                    let got = run_spmd_with(&spec, backend, |mut c| {
                        let ran = &ran;
                        async move {
                            ran.store(true, Ordering::Relaxed);
                            let peer = 1 - c.rank();
                            c.sendrecv(peer, peer, 0, vec![1.0; 4], Phase::Other).await.len()
                        }
                    });
                    let verdict = (got.err(), ran.load(Ordering::Relaxed));
                    done.send((field, backend, verdict)).unwrap();
                }
            }
        });
        for _ in 0..8 {
            let (field, backend, (err, ran)) = verdicts
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a world with a non-finite cost model hangs");
            assert_eq!(err, Some(ExecError::InvalidCostModel { field }), "{field} on {backend}");
            assert!(!ran, "{field} on {backend}: a rank ran");
            assert!(err.unwrap().to_string().contains(field));
        }
    }

    #[test]
    fn few_workers_keep_results_rank_ordered() {
        let spec = MachineSpec::test_machine(24, 1000);
        let out = run_spmd_with(&spec, ExecBackend::Event { threads: 3 }, |c| async move { c.rank() * 10 })
            .unwrap();
        assert_eq!(out.results, (0..24).map(|r| r * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_makes_progress_through_rendezvous() {
        // One scheduler thread is the harshest schedule: every recv and
        // barrier must park its rank and hand the thread to the next one, or
        // the world never finishes.
        let spec = MachineSpec::test_machine(8, 1000);
        let out = run_spmd_with(&spec, ExecBackend::event(), |mut c| async move {
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
        })
        .unwrap_or_else(|e| panic!("{e}"));
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
        let reference = run_spmd_with(&spec, ExecBackend::event(), pattern).unwrap();
        assert!(reference.stats.iter().all(|s| s.time.total_s() > 0.0), "the clock moves");
        for threads in [2, 3, 4, p] {
            let out = run_spmd_with(&spec, ExecBackend::Event { threads }, pattern).unwrap();
            assert_eq!(out.results, reference.results, "event({threads})");
            // Counters and virtual times, bit for bit.
            assert_eq!(out.stats, reference.stats, "event({threads})");
        }
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
        for backend in [ExecBackend::event(), ExecBackend::Event { threads: 2 }] {
            let (a, b) = (
                run_spmd_with(&spec, backend, fused).unwrap(),
                run_spmd_with(&spec, backend, split).unwrap(),
            );
            assert_eq!(a.results, b.results, "{backend}");
            assert_eq!(a.stats, b.stats, "{backend}");
        }
    }

    #[test]
    fn barrier_deadlock_is_typed_on_every_backend() {
        // Rank 0 returns without reaching the barrier the others wait at:
        // the scheduler sees it structurally and names the lowest stuck rank
        // at every thread count.
        let spec = MachineSpec::test_machine(3, 1000);
        for backend in [
            ExecBackend::event(),
            ExecBackend::Event { threads: 2 },
            ExecBackend::Event { threads: 3 },
        ] {
            let err = run_spmd_with(&spec, backend, |mut c| async move {
                if c.rank() != 0 {
                    c.barrier().await;
                }
            })
            .unwrap_err();
            assert_eq!(
                err,
                ExecError::DeadlockSuspected {
                    rank: 1,
                    on: Waiting::Barrier
                },
                "{backend}"
            );
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
    fn one_thread_runs_a_ring_of_thousands_of_ranks() {
        // A world of thousands of ranks: stackless ranks exchange with a
        // neighbour and everything completes on one scheduler thread.
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
        // a real message per rank, far beyond a thread per rank.
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
    fn mem_budget_violation_is_typed_on_every_backend() {
        // Each rank allocates rank+1 words; with a budget of 2, rank 2 is
        // the first offender — at every thread count identically.
        let spec = MachineSpec::test_machine(4, 1000).with_mem_budget(2);
        for backend in [
            ExecBackend::event(),
            ExecBackend::Event { threads: 2 },
            ExecBackend::Event { threads: 4 },
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
        let out = run_sharded(&spec, |c| async move {
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
    fn concurrent_sharded_worlds_agree_with_a_solo_run() {
        // Four 8-rank worlds of 3 scheduler threads each, at once: every
        // world's ring exchange completes and measures exactly as a solo run.
        let body = |mut c: RankComm| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            let got = c.sendrecv(right, left, 7, vec![c.rank() as f64], Phase::Other).await;
            got[0] as usize
        };
        let spec = MachineSpec::test_machine(8, 1000);
        let backend = ExecBackend::Event { threads: 3 };
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
        // A world's regions are capped at one per rank, so a thread count
        // above p spawns no more threads and measures like any other.
        let spec = MachineSpec::test_machine(4, 1000);
        let body = |mut c: RankComm| async move {
            c.barrier().await;
            c.rank()
        };
        let huge = run_spmd_with(&spec, ExecBackend::Event { threads: 64 }, body).unwrap();
        let exact = run_spmd_with(&spec, ExecBackend::Event { threads: 4 }, body).unwrap();
        assert_eq!(huge.results, exact.results);
        assert_eq!(huge.stats, exact.stats);
    }

    #[test]
    fn pooling_off_world_never_recycles() {
        let body = |mut c: RankComm| async move {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            let got = c.sendrecv(right, left, 7, vec![c.rank() as f64; 64], Phase::Other).await;
            c.recycle(got);
            let scratch = c.pool().take_zeroed(64);
            c.recycle(scratch);
        };
        let backend = ExecBackend::Event { threads: 2 };
        let off = MachineSpec::test_machine(4, 1000).with_pooling(false);
        let out = run_spmd_with(&off, backend, body).unwrap();
        assert_eq!((out.pool.hits, out.pool.returns), (0, 0), "a disabled arena never recycles");
        assert_eq!(out.pool.misses, 4, "every take is a fresh allocation");
        let on = run_spmd_with(&MachineSpec::test_machine(4, 1000), backend, body).unwrap();
        assert_eq!(on.pool.returns, 8, "a pooling world parks what its ranks hand back");
        assert_eq!(on.pool.hits + on.pool.misses, 4);
    }

    #[test]
    fn counters_are_exact_under_many_threads() {
        // 64 ranks on 4 and on 8 scheduler threads: every
        // rank sends 500 ring messages of varied lengths, phases and tags,
        // and records flops and allocations, its counters written by one
        // thread at a time. Every snapshot equals its closed form.
        const P: usize = 64;
        const MSGS: usize = 500;
        let words = |r: usize, i: usize| (r + 3 * i) % 11;
        let phase = |r: usize, i: usize| Phase::all()[(r + i) % NUM_PHASES];
        let alloc = |r: usize, i: usize| (r % 4 + i % 3 + 1) as u64;
        let body = move |mut c: RankComm| async move {
            let (r, p) = (c.rank(), c.size());
            let (right, left) = ((r + 1) % p, (r + p - 1) % p);
            for i in 0..MSGS {
                let tag = (i % 3) as u64;
                c.send(right, tag, vec![r as f64; words(r, i)], phase(r, i));
                let got = c.recv(left, tag, phase(left, i)).await;
                assert_eq!(got, vec![left as f64; words(left, i)], "rank {r} message {i}");
                c.record_flops((r + i) as u64);
                c.track_alloc(alloc(r, i));
                if i % 100 == 99 {
                    c.barrier().await;
                    c.track_free((i - 99..=i).map(|j| alloc(r, j)).sum());
                }
            }
        };
        let spec = MachineSpec::test_machine(P, 1 << 20);
        for backend in [
            ExecBackend::Event { threads: 4 },
            ExecBackend::Event { threads: 8 },
        ] {
            let stats = run_spmd_with(&spec, backend, body).unwrap().stats;
            for (r, got) in stats.iter().enumerate() {
                let left = (r + P - 1) % P;
                let mut want = RankStats {
                    msgs_sent: MSGS as u64,
                    msgs_recv: MSGS as u64,
                    flops: (0..MSGS).map(|i| (r + i) as u64).sum(),
                    peak_mem_words: (0..MSGS / 100)
                        .map(|b| (100 * b..100 * b + 100).map(|i| alloc(r, i)).sum())
                        .max()
                        .unwrap(),
                    ..RankStats::default()
                };
                for i in 0..MSGS {
                    want.words_sent[phase(r, i).index()] += words(r, i) as u64;
                    want.words_recv[phase(left, i).index()] += words(left, i) as u64;
                }
                assert_eq!(got.sans_time(), want, "{backend}: rank {r}");
            }
        }
    }
}
