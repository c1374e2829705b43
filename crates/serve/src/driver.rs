//! The multi-tenant execution driver.
//!
//! A [`Server`] owns the serving stack — an [`AutoPlanner`] over a shared
//! registry and a [`PlanCache`] — plus a team of driver threads consuming a
//! job queue. Each [`JobRequest`] is an independent SPMD world with its own
//! buffer arena.
//!
//! # Execution policy: jobs in parallel, worlds single-threaded
//!
//! The server spends its cores *across* jobs — one driver thread per core
//! by default — and runs each world on one of them:
//!
//! * a job that pins no backend runs on [`ExecBackend::event`]: one
//!   single-threaded discrete-event simulation on the driver thread that
//!   dequeued it. No OS thread per rank, no stack per rank, no futex wake
//!   per message; the report carries measured α-β-γ virtual time, and the
//!   job's `topology`, `placement` and `faults` are honoured.
//! * a lone heavy job on an otherwise idle server pins
//!   `Event { threads: n }` to spread its world over up to
//!   [`ServerConfig::pool_workers`] cores with the same product, counters
//!   and clock. Under load every core already has a job and fanning one out
//!   only adds overhead.
//!
//! The pipeline per job is admission → cached planning (auto-selection on
//! a miss) → the job's [`MachineSpec`] → [`execute_boxed`] → a
//! [`JobResult`] carrying the [`Selection`], the plan and the per-rank
//! [`ExecReport`]. Every step is deterministic, so a job's result is
//! bitwise-identical to `execute_boxed` run serially on the same machine
//! and backend (for a flat, fault-free job: to `RunSession::execute`) —
//! concurrency changes throughput, never answers — and at every thread count
//! the measurement, virtual clock included, is the same bit for bit.
//!
//! # Fault recovery
//!
//! A job may arm a deterministic [`FaultPlan`]: the event scheduler kills
//! the planned ranks mid-run and the execution comes back as the typed
//! [`ExecError::RankFailed`]. Under a [`RetryPolicy`] the driver recovers
//! by *shrinking the world to the survivors* — the paper's §1 argument that
//! COSMA's grid fitting handles awkward processor counts means p′ = p − k
//! is as servable as p — replanning through the same cache (a different
//! `p` is a different [`PlanKey`], so failed worlds never poison cached
//! plans) and re-executing clean. The per-job [`JobResult::attempts`] and
//! [`JobResult::degraded`] record what recovery did.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use cosma::api::{execute_boxed, AlgorithmRegistry, ExecReport, PlanError};
use cosma::plan::DistPlan;
use cosma::problem::MmmProblem;
use densemat::matrix::Matrix;
use mpsim::cost::CostModel;
use mpsim::exec::{ExecBackend, ExecError};
use mpsim::machine::{MachineSpec, Placement, Topology};
use mpsim::pool::PoolStats;
use mpsim::FaultPlan;

use crate::auto::{AlgoChoice, AutoPlanner, Selection};
use crate::cache::{CacheStats, PlanCache};
use crate::key::PlanKey;

/// How many times a failed job may be re-executed.
///
/// Only [`ExecError::RankFailed`] — the typed fault-injection failure — is
/// retried: it is the one failure mode with a principled recovery (drop the
/// dead ranks, replan for the survivors). Structural errors (infeasible
/// grids, unsupported rank counts) are deterministic and would fail
/// identically again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total executions allowed, first attempt included; `1` means no
    /// retries. Clamped to at least 1.
    pub max_attempts: usize,
}

impl RetryPolicy {
    /// No retries: one attempt, failures surface immediately.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// Up to `n` attempts.
    pub fn attempts(n: usize) -> Self {
        RetryPolicy {
            max_attempts: n.max(1),
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// One tenant request: a problem, its inputs, and the per-request knobs.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Caller-chosen id, echoed in the [`JobResult`].
    pub id: u64,
    /// The multiplication to run.
    pub prob: MmmProblem,
    /// Left operand (`m × k`).
    pub a: Matrix,
    /// Right operand (`k × n`).
    pub b: Matrix,
    /// Which algorithms may serve the request (default: all of them).
    pub choice: AlgoChoice,
    /// Cost model override (default: the Piz-Daint-like two-sided model).
    pub model: Option<CostModel>,
    /// Communication–computation overlap mode (default: on).
    pub overlap: bool,
    /// Enforced per-rank memory budget, if any.
    pub mem_budget: Option<u64>,
    /// Execution backend override (default: [`ExecBackend::event`], one
    /// single-threaded simulation per job whatever the world size); see
    /// [`JobRequest::backend()`] for when to pin one.
    pub backend: Option<ExecBackend>,
    /// Network topology the job's machine is measured under (default:
    /// [`Topology::Flat`]). Part of the plan-cache key: cached plans never
    /// cross machine shapes.
    pub topology: Topology,
    /// Rank→node placement under [`topology`](Self::topology) (default:
    /// [`Placement::Block`]).
    pub placement: Placement,
    /// Deterministic fault injection for this job's execution (default:
    /// none). The event scheduler kills the plan's ranks at their virtual
    /// death times, at every thread count alike.
    pub faults: Option<FaultPlan>,
    /// Recovery policy when an injected fault fells the world (default:
    /// [`RetryPolicy::none`] — the typed failure surfaces immediately).
    pub retry: RetryPolicy,
}

impl JobRequest {
    /// A job with default knobs: auto algorithm selection, default cost
    /// model, overlap on, event backend.
    pub fn new(id: u64, prob: MmmProblem, a: Matrix, b: Matrix) -> Self {
        JobRequest {
            id,
            prob,
            a,
            b,
            choice: AlgoChoice::Auto,
            model: None,
            overlap: true,
            mem_budget: None,
            backend: None,
            topology: Topology::Flat,
            placement: Placement::Block,
            faults: None,
            retry: RetryPolicy::none(),
        }
    }

    /// Restrict the algorithm choice.
    pub fn choice(mut self, choice: AlgoChoice) -> Self {
        self.choice = choice;
        self
    }

    /// Pin the execution backend. `Event { threads: n }` is the opt-in for
    /// a lone heavy job on an idle server: its world is sharded over
    /// `n.min(`[`ServerConfig::pool_workers`]`)` scheduler threads where the
    /// default has one, with the same product, counters and virtual times
    /// bit for bit; on a loaded server it only costs. [`JobOutput::backend`]
    /// reports the capped count.
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Measure under `topology`'s contention model (event backend only —
    /// word counters and results are topology-independent).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Choose the rank→node placement for the job's topology.
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Arm a deterministic [`FaultPlan`] for this job's execution.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Set the recovery policy for injected faults.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }
}

/// What a successfully served job produced.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The auto-planner's verdict (memoized across identical requests).
    pub selection: Selection,
    /// The executed plan (shared with the cache entry).
    pub plan: Arc<DistPlan>,
    /// The assembled product and per-rank measured statistics.
    pub report: ExecReport,
    /// Whether planning was answered from the cache.
    pub cache_hit: bool,
    /// The backend the world executed on: [`ExecBackend::event`] unless the
    /// job pinned one, with its thread count capped at
    /// [`ServerConfig::pool_workers`].
    pub backend: ExecBackend,
}

/// The server's answer to one [`JobRequest`].
#[derive(Debug)]
pub struct JobResult {
    /// The request's id.
    pub id: u64,
    /// The served output, or the typed planning/execution failure.
    pub outcome: Result<JobOutput, PlanError>,
    /// Executions this job consumed: 1 for a clean run, more when the
    /// [`RetryPolicy`] recovered from injected faults, 0 when the job was
    /// aborted before it ever ran (server shutdown, dead drivers).
    pub attempts: usize,
    /// Whether recovery shrank the world: the job completed on fewer ranks
    /// than requested (p′ < p after dropping the casualties).
    pub degraded: bool,
}

/// Final accounting from [`Server::shutdown`].
#[derive(Debug)]
pub struct ShutdownReport {
    /// Plan-cache counters at shutdown.
    pub cache: CacheStats,
    /// Every result the caller had not yet [`recv`](Server::recv)ed, in
    /// ascending id order: completed jobs verbatim, and one typed
    /// [`PlanError::Aborted`] result per job that was still queued — the
    /// queue is never silently dropped.
    pub undelivered: Vec<JobResult>,
}

/// Sizing knobs of a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Driver threads consuming the job queue (concurrent jobs in flight).
    /// Default: the core count — a default job is one single-threaded
    /// simulation on its driver thread, so this is the server's parallelism.
    pub drivers: usize,
    /// The most scheduler threads one job's world runs on: a job that pins
    /// `Event { threads }` runs on `threads.min(pool_workers)`. Default: the
    /// core count.
    pub pool_workers: usize,
    /// Plan-cache shard count.
    pub cache_shards: usize,
    /// Plan-cache capacity (plans, across all shards).
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8);
        ServerConfig {
            drivers: cores,
            pool_workers: cores,
            cache_shards: 16,
            cache_capacity: 1024,
        }
    }
}

struct Shared {
    planner: AutoPlanner,
    cache: PlanCache,
    /// The thread cap of a pinned world ([`ServerConfig::pool_workers`]).
    pool_workers: usize,
    /// [`ExecReport::pool`] summed over every world completed so far.
    arena: Mutex<PoolStats>,
}

/// The serving front door: submit [`JobRequest`]s, receive [`JobResult`]s.
///
/// ```
/// use cosma::problem::MmmProblem;
/// use densemat::matrix::Matrix;
/// use serve::{JobRequest, Server, ServerConfig};
///
/// let config = ServerConfig { drivers: 1, ..ServerConfig::default() };
/// let server = Server::new(baselines::registry(), config).unwrap();
/// let prob = MmmProblem::new(32, 32, 32, 4, 1 << 12);
/// let a = Matrix::deterministic(prob.m, prob.k, 1);
/// let b = Matrix::deterministic(prob.k, prob.n, 2);
/// let results = server.run_batch(vec![
///     JobRequest::new(0, prob, a.clone(), b.clone()),
///     JobRequest::new(1, prob, a, b), // same key: plans once
/// ]);
/// assert!(results.iter().all(|r| r.outcome.is_ok()));
/// assert_eq!(server.cache_stats().hits, 1);
/// ```
pub struct Server {
    shared: Arc<Shared>,
    jobs_tx: Option<Sender<JobRequest>>,
    // The server's own clone of the result sender: lets `submit` synthesize
    // a typed result when every driver thread has died, so batch callers
    // still get one result per request instead of hanging on `recv`.
    results_tx: Option<Sender<JobResult>>,
    results_rx: Mutex<Receiver<JobResult>>,
    shutting: Arc<AtomicBool>,
    drivers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawn a server over `registry` with `config.drivers` driver threads.
    ///
    /// # Errors
    /// [`ExecError::NoWorkers`] when `config.drivers` or
    /// `config.pool_workers` is zero, [`ExecError::ZeroCapacity`] when
    /// `config.cache_shards` or `config.cache_capacity` is.
    pub fn new(registry: AlgorithmRegistry, config: ServerConfig) -> Result<Self, ExecError> {
        if config.drivers == 0 || config.pool_workers == 0 {
            return Err(ExecError::NoWorkers);
        }
        for (what, size) in [
            ("ServerConfig::cache_shards", config.cache_shards),
            ("ServerConfig::cache_capacity", config.cache_capacity),
        ] {
            if size == 0 {
                return Err(ExecError::ZeroCapacity { what });
            }
        }
        let shared = Arc::new(Shared {
            planner: AutoPlanner::new(registry),
            cache: PlanCache::new(config.cache_shards, config.cache_capacity),
            pool_workers: config.pool_workers,
            arena: Mutex::new(PoolStats::default()),
        });
        let (jobs_tx, jobs_rx) = mpsc::channel::<JobRequest>();
        let (results_tx, results_rx) = mpsc::channel::<JobResult>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let shutting = Arc::new(AtomicBool::new(false));
        let drivers = (0..config.drivers)
            .map(|i| {
                let shared = shared.clone();
                let jobs_rx = jobs_rx.clone();
                let results_tx = results_tx.clone();
                let shutting = shutting.clone();
                std::thread::Builder::new()
                    .name(format!("serve-driver-{i}"))
                    .spawn(move || loop {
                        // Hold the queue lock only for the dequeue; waiting
                        // drivers queue up on the mutex, which is the same
                        // as waiting for a job.
                        let job = match jobs_rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
                            Ok(job) => job,
                            Err(_) => break, // queue closed and drained
                        };
                        let id = job.id;
                        let result = if shutting.load(Ordering::SeqCst) {
                            // Shutdown drain: the queue's leftover jobs
                            // become typed results, never silent drops.
                            aborted(id, "server shut down with the job still queued", 0)
                        } else {
                            // A panicking job (bad operands, a planner bug)
                            // must cost that job its result, not the whole
                            // driver thread — later jobs still get served.
                            std::panic::catch_unwind(AssertUnwindSafe(|| serve_job(&shared, job)))
                                .unwrap_or_else(|_| aborted(id, "job panicked inside the driver", 1))
                        };
                        if results_tx.send(result).is_err() {
                            break; // receiver gone: server dropped mid-flight
                        }
                    })
                    .expect("spawn serve driver")
            })
            .collect();
        Ok(Server {
            shared,
            jobs_tx: Some(jobs_tx),
            results_tx: Some(results_tx),
            results_rx: Mutex::new(results_rx),
            shutting,
            drivers,
        })
    }

    /// Enqueue a job; some driver thread will pick it up. Results arrive in
    /// *completion* order via [`recv`](Self::recv), not submission order.
    ///
    /// If every driver thread has died (each one caught a panic it could
    /// not attribute to a job), the job is answered immediately with a
    /// typed [`PlanError::Aborted`] result instead of hanging the queue.
    pub fn submit(&self, job: JobRequest) {
        let id = job.id;
        let undeliverable = self
            .jobs_tx
            .as_ref()
            .expect("server accepts jobs until shutdown")
            .send(job)
            .is_err();
        if undeliverable {
            if let Some(tx) = self.results_tx.as_ref() {
                let _ = tx.send(aborted(id, "no live driver threads to serve the job", 0));
            }
        }
    }

    /// Block for the next finished job. `None` only after
    /// [`shutdown`](Self::shutdown) semantics kick in (never while the
    /// server can still produce results).
    pub fn recv(&self) -> Option<JobResult> {
        self.results_rx.lock().unwrap_or_else(|e| e.into_inner()).recv().ok()
    }

    /// Submit `jobs` and collect exactly one result per job, returned in
    /// ascending id order (execution itself is concurrent and completes in
    /// arbitrary order).
    pub fn run_batch(&self, jobs: Vec<JobRequest>) -> Vec<JobResult> {
        let n = jobs.len();
        for job in jobs {
            self.submit(job);
        }
        let mut results: Vec<JobResult> = (0..n)
            .map(|_| self.recv().expect("drivers return one result per job"))
            .collect();
        results.sort_by_key(|r| r.id);
        results
    }

    /// Serve one job synchronously on the caller's thread (same pipeline,
    /// no queue) — the serial reference path.
    pub fn run_sync(&self, job: JobRequest) -> JobResult {
        serve_job(&self.shared, job)
    }

    /// Plan-cache counters at this instant.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Buffer-arena counters summed over every world this server has
    /// completed: each world leases scratch from an arena of its own and
    /// reports it in [`ExecReport::pool`]; this is the sum of those reports
    /// (a world that failed contributes nothing). Display-only observability
    /// — recycling never changes results or per-rank counters.
    pub fn arena_stats(&self) -> PoolStats {
        *self.shared.arena.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stop accepting jobs, drain the driver threads, and account for every
    /// job: results already computed come back verbatim in
    /// [`ShutdownReport::undelivered`], and jobs still queued come back as
    /// typed [`PlanError::Aborted`] results — `run_batch`-style callers get
    /// exactly one result per request, shutdown or not. In-flight jobs run
    /// to completion first.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.close();
        let mut undelivered: Vec<JobResult> = {
            let rx = self.results_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.try_iter().collect()
        };
        undelivered.sort_by_key(|r| r.id);
        ShutdownReport {
            cache: self.shared.cache.stats(),
            undelivered,
        }
    }

    fn close(&mut self) {
        // Flag first, then close the queue: drivers that dequeue after this
        // point convert the job to a typed aborted result instead of
        // serving it, so shutdown is prompt even with a deep queue.
        self.shutting.store(true, Ordering::SeqCst);
        drop(self.jobs_tx.take()); // closes the queue: drivers drain and exit
        for h in self.drivers.drain(..) {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        // Drop our result-sender clone so `recv` (and the shutdown drain)
        // observe a closed channel once the drivers are gone.
        drop(self.results_tx.take());
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close();
    }
}

/// A typed "this job never completed" result.
fn aborted(id: u64, reason: &'static str, attempts: usize) -> JobResult {
    JobResult {
        id,
        outcome: Err(PlanError::Aborted { reason }),
        attempts,
        degraded: false,
    }
}

/// The serving pipeline for one job: cached planning, execution, and —
/// under a [`RetryPolicy`] — survivor replanning when injected faults fell
/// the world.
fn serve_job(shared: &Shared, job: JobRequest) -> JobResult {
    let id = job.id;
    let mut p = job.prob.p;
    let mut faults = job.faults;
    let mut attempts = 0;
    let mut degraded = false;
    loop {
        attempts += 1;
        let outcome = serve_attempt(shared, &job, p, faults);
        let rank_failed = matches!(
            outcome,
            Err(PlanError::Execution {
                source: ExecError::RankFailed { .. }
            })
        );
        if rank_failed && attempts < job.retry.max_attempts {
            if let Some(plan) = faults.take() {
                // Recovery: shrink the world to the survivors (COSMA's grid
                // fitting handles any p′, power of two or not) and re-run
                // *clean* — a retry must not re-inject the faults it is
                // recovering from. A world fails only because a rank died,
                // so p′ < p.
                let survivors = plan.survivors(p);
                if survivors > 0 {
                    degraded = true;
                    p = survivors;
                    continue;
                }
            }
        }
        return JobResult {
            id,
            outcome,
            attempts,
            degraded,
        };
    }
}

/// One execution attempt at world size `p` (the job's own `p`, or the
/// survivor count after a recovery step) with `faults` armed or not.
fn serve_attempt(
    shared: &Shared,
    job: &JobRequest,
    p: usize,
    faults: Option<FaultPlan>,
) -> Result<JobOutput, PlanError> {
    let model = job.model.unwrap_or_else(CostModel::piz_daint_two_sided);
    // A shrunken world is a fresh problem with its own PlanKey, so a failed
    // world's replan lands in a different cache slot — the p-rank entry is
    // never poisoned by the failure (and stays warm for clean requests).
    let prob = if p == job.prob.p {
        job.prob
    } else {
        MmmProblem::new(job.prob.m, job.prob.n, job.prob.k, p, job.prob.mem_words)
    };
    let key = PlanKey::try_new(
        &prob,
        &model,
        job.overlap,
        job.mem_budget,
        &job.choice,
        &job.topology,
        job.placement,
    )?;
    let (planned, cache_hit) = shared
        .cache
        .get_or_try_insert_with(key, || shared.planner.select(&prob, &model, job.overlap, &job.choice))?;
    // The server's parallelism is across jobs: every driver thread already
    // has a world to run, so unpinned jobs run as one single-threaded event
    // simulation, and a pinned one on at most the server's thread cap.
    let backend = match job.backend {
        None => ExecBackend::event(),
        Some(ExecBackend::Event { threads }) => ExecBackend::Event {
            threads: threads.min(shared.pool_workers),
        },
    };
    // The job's machine, built once and only now: planning has already
    // refused a degenerate problem (and the key an invalid topology) with a
    // typed error.
    let mut machine = MachineSpec::new(prob.p, prob.mem_words, model)
        .with_overlap(job.overlap)
        .with_topology(job.topology.clone())
        .with_placement(job.placement);
    machine.mem_budget = job.mem_budget;
    machine.faults = faults;
    let algo = shared.planner.registry().by_id(planned.selection.algo)?;
    let report = execute_boxed(algo.as_ref(), &planned.plan, &machine, backend, &job.a, &job.b)?;
    {
        let mut sum = shared.arena.lock().unwrap_or_else(|e| e.into_inner());
        sum.hits += report.pool.hits;
        sum.misses += report.pool.misses;
        sum.returns += report.pool.returns;
    }
    Ok(JobOutput {
        selection: planned.selection.clone(),
        plan: planned.plan.clone(),
        report,
        cache_hit,
        backend,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma::api::AlgoId;

    fn small_config() -> ServerConfig {
        ServerConfig {
            drivers: 3,
            pool_workers: 4,
            cache_shards: 4,
            cache_capacity: 64,
        }
    }

    fn job(id: u64, p: usize, seed: u64) -> JobRequest {
        let prob = MmmProblem::new(24, 20, 28, p, 1 << 12);
        let a = Matrix::deterministic(prob.m, prob.k, seed);
        let b = Matrix::deterministic(prob.k, prob.n, seed + 1);
        JobRequest::new(id, prob, a, b)
    }

    /// What `Server::new` says to `config`, which must be a refusal.
    fn refusal(config: ServerConfig) -> ExecError {
        Server::new(baselines::registry(), config)
            .err()
            .expect("a zero-sized server is refused")
    }

    #[test]
    fn zero_drivers_is_no_workers() {
        let config = ServerConfig {
            drivers: 0,
            ..small_config()
        };
        assert_eq!(refusal(config), ExecError::NoWorkers);
    }

    #[test]
    fn zero_pool_workers_is_no_workers() {
        let config = ServerConfig {
            pool_workers: 0,
            ..small_config()
        };
        assert_eq!(refusal(config), ExecError::NoWorkers);
    }

    #[test]
    fn zero_cache_shards_is_a_typed_error() {
        let config = ServerConfig {
            cache_shards: 0,
            ..small_config()
        };
        let err = refusal(config);
        assert_eq!(
            err,
            ExecError::ZeroCapacity {
                what: "ServerConfig::cache_shards"
            }
        );
        assert_eq!(err.to_string(), "ServerConfig::cache_shards must be at least 1");
    }

    #[test]
    fn zero_cache_capacity_is_a_typed_error() {
        let config = ServerConfig {
            cache_capacity: 0,
            ..small_config()
        };
        assert_eq!(
            refusal(config),
            ExecError::ZeroCapacity {
                what: "ServerConfig::cache_capacity"
            }
        );
    }

    #[test]
    fn batch_results_match_sync_runs_bitwise() {
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        let jobs: Vec<JobRequest> = (0..12).map(|i| job(i, [4, 6, 8][i as usize % 3], i)).collect();
        let results = server.run_batch(jobs.clone());
        assert_eq!(results.len(), jobs.len());
        for (job, result) in jobs.into_iter().zip(results) {
            assert_eq!(job.id, result.id);
            let concurrent = result.outcome.unwrap();
            let serial = server.run_sync(job).outcome.unwrap();
            assert_eq!(concurrent.report.c, serial.report.c, "bitwise product");
            assert_eq!(concurrent.report.stats, serial.report.stats);
            assert_eq!(concurrent.selection, serial.selection);
            assert_eq!(*concurrent.plan, *serial.plan);
        }
    }

    #[test]
    fn repeat_keys_hit_the_cache() {
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        // 9 jobs over 3 distinct keys (ids differ, keys repeat). The cache
        // plans outside its lock by design, so two concurrent first requests
        // of one key may both miss: warm the keys one at a time, then batch
        // the repeats.
        let mut jobs = (0..9).map(|i| job(i, [4, 6, 8][i as usize % 3], i % 3));
        for warm in jobs.by_ref().take(3) {
            assert!(server.run_sync(warm).outcome.is_ok());
        }
        let results = server.run_batch(jobs.collect());
        assert!(results.iter().all(|r| r.outcome.is_ok()));
        let report = server.shutdown();
        assert!(report.undelivered.is_empty(), "batch already collected every result");
        let stats = report.cache;
        assert_eq!(stats.inserts, 3);
        assert_eq!(stats.hits + stats.misses, 9);
        assert_eq!(stats.hits, 6, "exactly the 6 repeats hit; got {stats:?}");
    }

    #[test]
    fn infeasible_job_fails_typed_while_others_succeed() {
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        // p = 6 cannot serve CARMA (not a power of two).
        let bad = job(0, 6, 0).choice(AlgoChoice::Fixed(AlgoId::Carma));
        let good = job(1, 6, 1);
        let results = server.run_batch(vec![bad, good]);
        assert!(matches!(
            results[0].outcome,
            Err(PlanError::UnsupportedRanks {
                algo: AlgoId::Carma,
                ..
            })
        ));
        let out = results[1].outcome.as_ref().unwrap();
        assert_ne!(out.selection.algo, AlgoId::Carma);
    }

    #[test]
    fn sharded_and_one_thread_jobs_interleave_and_agree() {
        // A job sharded over three scheduler threads and a one-thread job,
        // served at once, measure the same world bit for bit.
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        let sharded = job(0, 8, 3).backend(ExecBackend::Event { threads: 3 });
        let event = job(1, 8, 3).backend(ExecBackend::event());
        let results = server.run_batch(vec![sharded, event]);
        let a = results[0].outcome.as_ref().unwrap();
        let b = results[1].outcome.as_ref().unwrap();
        assert_eq!(a.backend, ExecBackend::Event { threads: 3 }, "within the server's cap of 4");
        assert_eq!(b.backend, ExecBackend::event());
        assert_eq!(a.report.c, b.report.c, "thread counts agree bitwise");
        assert_eq!(a.report.stats, b.report.stats, "counters and virtual times");
    }

    #[test]
    fn default_jobs_run_on_one_thread_and_agree_with_four() {
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        let default = server.run_sync(job(0, 8, 3)).outcome.unwrap();
        assert_eq!(default.backend, ExecBackend::event());
        assert!(default.report.measured_time_s() > 0.0, "a default job's report carries virtual time");
        let pinned = server
            .run_sync(job(1, 8, 3).backend(ExecBackend::Event { threads: 4 }))
            .outcome
            .unwrap();
        assert_eq!(default.report.c, pinned.report.c, "bitwise product");
        assert_eq!(default.report.stats, pinned.report.stats, "counters and virtual times");
    }

    #[test]
    fn arena_stats_sum_the_jobs_reports() {
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        assert_eq!(server.arena_stats(), PoolStats::default(), "nothing served yet");
        // CARMA leases every leaf buffer from its world's arena; one job in
        // three pins two scheduler threads, one fails and must add nothing.
        let mut jobs: Vec<JobRequest> = (0..9)
            .map(|i| {
                let job = job(i, [4, 8, 16][i as usize % 3], i).choice(AlgoChoice::Fixed(AlgoId::Carma));
                if i % 3 == 0 {
                    job.backend(ExecBackend::Event { threads: 2 })
                } else {
                    job
                }
            })
            .collect();
        jobs.push(job(9, 6, 0).choice(AlgoChoice::Fixed(AlgoId::Carma)));
        let mut sum = PoolStats::default();
        for r in server.run_batch(jobs) {
            let Ok(out) = r.outcome else {
                assert_eq!(r.id, 9, "only the CARMA job on p = 6 fails");
                continue;
            };
            assert!(out.report.pool.hits + out.report.pool.misses > 0, "the world's own arena served it");
            sum.hits += out.report.pool.hits;
            sum.misses += out.report.pool.misses;
            sum.returns += out.report.pool.returns;
        }
        assert!(sum.hits > 0 && sum.returns > 0, "{sum}");
        assert_eq!(server.arena_stats(), sum);
    }

    #[test]
    fn server_honours_a_pinned_event_thread_count() {
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        let default = server.run_sync(job(0, 8, 3)).outcome.unwrap();
        let pinned = server
            .run_sync(job(1, 8, 3).backend(ExecBackend::Event { threads: 2 }))
            .outcome
            .unwrap();
        assert_eq!(pinned.backend, ExecBackend::Event { threads: 2 });
        assert_eq!(pinned.report.c, default.report.c, "bitwise product");
        assert!(pinned.report.measured_time_s() > 0.0);
        assert_eq!(pinned.report.stats, default.report.stats, "counters and virtual times, bit for bit");
    }

    #[test]
    fn default_jobs_measure_their_topology() {
        // The job's topology reaches its machine: a world that ignored it
        // would measure both runs alike.
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        let flat = server.run_sync(job(0, 16, 3)).outcome.unwrap();
        let fat = server
            .run_sync(job(1, 16, 3).topology(Topology::congested_fat_tree()))
            .outcome
            .unwrap();
        assert_eq!(fat.backend, ExecBackend::event());
        assert!(
            fat.report.measured_time_s() > flat.report.measured_time_s(),
            "contention may only add time: fat {} s vs flat {} s",
            fat.report.measured_time_s(),
            flat.report.measured_time_s()
        );
        assert_eq!(fat.report.c, flat.report.c, "the topology prices messages, it does not change them");
    }

    #[test]
    fn served_job_measures_what_execute_boxed_measures_on_its_machine() {
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        let mut served = job(0, 16, 3)
            .topology(Topology::congested_fat_tree())
            .placement(Placement::RoundRobin)
            .faults(FaultPlan::new(7));
        // The problem's own S: enforced, and binding nothing.
        served.mem_budget = Some(served.prob.mem_words as u64);
        let out = server.run_sync(served.clone()).outcome.unwrap();

        let model = CostModel::piz_daint_two_sided();
        let planned = AutoPlanner::new(baselines::registry())
            .select(&served.prob, &model, served.overlap, &served.choice)
            .unwrap();
        assert_eq!(*out.plan, *planned.plan);
        let machine = MachineSpec::new(served.prob.p, served.prob.mem_words, model)
            .with_topology(Topology::congested_fat_tree())
            .with_placement(Placement::RoundRobin)
            .with_faults(FaultPlan::new(7))
            .enforcing_memory();
        let algo = baselines::registry().by_id(planned.selection.algo).unwrap();
        let direct =
            execute_boxed(algo.as_ref(), &planned.plan, &machine, ExecBackend::event(), &served.a, &served.b)
                .unwrap();
        assert_eq!(out.report.c, direct.c, "bitwise product");
        assert_eq!(out.report.stats, direct.stats, "counters and virtual times, bit for bit");
        // Each knob reached the clock: the flat, block-placed job is faster.
        let flat = server.run_sync(job(1, 16, 3)).outcome.unwrap();
        assert!(out.report.measured_time_s() > flat.report.measured_time_s());
    }

    #[test]
    fn invalid_topology_is_typed_before_planning() {
        // Refused when the job is keyed, before anything is planned or
        // cached, and before a machine is built (building one panics on an
        // invalid topology).
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        let invalid = [
            (
                Topology::FatTree {
                    ranks_per_node: 0,
                    nodes_per_switch: usize::MAX,
                    nic_factor: 1.0,
                    up_factor: 1.0,
                },
                "ranks_per_node and nodes_per_switch must be positive",
            ),
            (
                Topology::FatTree {
                    ranks_per_node: 4,
                    nodes_per_switch: 4,
                    nic_factor: 0.25,
                    up_factor: f64::INFINITY,
                },
                "link factors must be finite and non-negative",
            ),
            // A NaN factor is a topology defect, not a cost-model one.
            (
                Topology::FatTree {
                    ranks_per_node: 2,
                    nodes_per_switch: usize::MAX,
                    nic_factor: f64::NAN,
                    up_factor: 1.0,
                },
                "link factors must be finite and non-negative",
            ),
        ];
        for (id, (topology, reason)) in invalid.into_iter().enumerate() {
            let result = server.run_sync(job(id as u64, 8, 3).topology(topology));
            assert_eq!(result.outcome.err(), Some(PlanError::InvalidTopology { reason }));
            assert_eq!(result.attempts, 1);
        }
        assert_eq!(server.cache_stats().inserts, 0, "nothing was planned");
    }

    #[test]
    fn infinite_cost_constant_is_typed_before_running() {
        // β = ∞ completes every message at t = +∞, where the event executor
        // can open no window: the job is refused when it is keyed instead of
        // spinning its driver forever.
        // A zero peak prices every flop at +∞ the same way.
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        let (mut infinite_beta, mut zero_peak) =
            (CostModel::piz_daint_two_sided(), CostModel::piz_daint_two_sided());
        infinite_beta.beta_s_per_word = f64::INFINITY;
        zero_peak.peak_flops = 0.0;
        for (id, (field, model)) in [("beta_s_per_word", infinite_beta), ("peak_flops", zero_peak)]
            .into_iter()
            .enumerate()
        {
            let mut request = job(id as u64, 8, 3);
            request.model = Some(model);
            let result = server.run_sync(request);
            assert_eq!(result.outcome.err(), Some(PlanError::InvalidCostModel { field }));
            assert_eq!(result.attempts, 1);
        }
        assert_eq!(server.cache_stats().inserts, 0, "nothing was planned");
    }

    #[test]
    fn pinned_event_thread_count_is_capped_by_the_pool() {
        let config = ServerConfig {
            pool_workers: 2,
            ..small_config()
        };
        let server = Server::new(baselines::registry(), config).unwrap();
        let reference = server.run_sync(job(0, 8, 3)).outcome.unwrap();
        let pinned = server
            .run_sync(job(1, 8, 3).backend(ExecBackend::Event { threads: 8 }))
            .outcome
            .unwrap();
        // The job ran on the server's 2 threads, and the result says so.
        assert_eq!(pinned.backend, ExecBackend::Event { threads: 2 });
        assert_eq!(pinned.backend.to_string(), "event(2)");
        assert_eq!(pinned.report.c, reference.report.c, "bitwise product");
        assert_eq!(pinned.report.stats, reference.report.stats, "counters and virtual times");
    }

    #[test]
    fn mem_budget_violations_surface_per_job() {
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        let mut strict = job(0, 4, 0);
        strict.mem_budget = Some(1);
        let results = server.run_batch(vec![strict]);
        assert!(matches!(
            results[0].outcome,
            Err(PlanError::Execution {
                source: ExecError::MemBudgetExceeded { .. }
            })
        ));
    }

    #[test]
    fn clean_jobs_report_one_attempt_and_no_degradation() {
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        let result = server.run_sync(job(0, 4, 0));
        assert!(result.outcome.is_ok());
        assert_eq!(result.attempts, 1);
        assert!(!result.degraded);
    }

    #[test]
    fn injected_fault_without_retry_surfaces_rank_failed() {
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        // Horizon from a clean clocked run, so the deaths land mid-run.
        let clean = server.run_sync(job(0, 8, 3).backend(ExecBackend::event()));
        let t = clean.outcome.unwrap().report.measured_time_s();
        assert!(t > 0.0);
        let plan = FaultPlan::new(11).kill_exactly(2, t / 2.0);
        let result = server.run_sync(job(1, 8, 3).faults(plan));
        assert!(
            matches!(
                result.outcome,
                Err(PlanError::Execution {
                    source: ExecError::RankFailed { .. }
                })
            ),
            "{:?}",
            result.outcome
        );
        assert_eq!(result.attempts, 1);
        assert!(!result.degraded);
    }

    #[test]
    fn retry_policy_recovers_by_replanning_the_survivors() {
        let server = Server::new(baselines::registry(), small_config()).unwrap();
        let clean = server.run_sync(job(0, 8, 3).backend(ExecBackend::event()));
        let t = clean.outcome.unwrap().report.measured_time_s();
        let plan = FaultPlan::new(11).kill_exactly(2, t / 2.0);
        assert_eq!(plan.survivors(8), 6);
        let result = server.run_sync(job(1, 8, 3).faults(plan).retry(RetryPolicy::attempts(3)));
        let out = result.outcome.expect("recovery must complete the job");
        assert_eq!(result.attempts, 2, "one failure, one clean re-run");
        assert!(result.degraded, "the world shrank to the survivors");
        assert_eq!(out.plan.problem.p, 6, "replanned for p′ = 6");
        // The degraded product is still the product: bitwise-equal to a
        // fresh 6-rank run of the same operands.
        let fresh = server.run_sync(job(2, 6, 3).backend(ExecBackend::event()));
        assert_eq!(out.report.c, fresh.outcome.unwrap().report.c);
    }

    #[test]
    fn shutdown_accounts_for_every_queued_job() {
        // One driver, a slow job at the head of the queue, then a pile of
        // queued jobs: immediate shutdown must hand back one result per
        // submission — the in-flight job served, the rest typed aborts.
        let config = ServerConfig {
            drivers: 1,
            ..small_config()
        };
        let server = Server::new(baselines::registry(), config).unwrap();
        let n = 8;
        let heavy = {
            let prob = MmmProblem::new(96, 96, 96, 16, 1 << 14);
            let a = Matrix::deterministic(prob.m, prob.k, 1);
            let b = Matrix::deterministic(prob.k, prob.n, 2);
            JobRequest::new(0, prob, a, b).backend(ExecBackend::event())
        };
        server.submit(heavy);
        for i in 1..n {
            server.submit(job(i, 4, i));
        }
        let report = server.shutdown();
        assert_eq!(report.undelivered.len(), n as usize, "one result per submitted job");
        for (i, r) in report.undelivered.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            match &r.outcome {
                Ok(_) => {}
                Err(PlanError::Aborted { .. }) => assert_eq!(r.attempts, 0),
                other => panic!("job {i}: expected served or aborted, got {other:?}"),
            }
        }
        assert!(
            report
                .undelivered
                .iter()
                .any(|r| matches!(r.outcome, Err(PlanError::Aborted { .. }))),
            "with one driver busy on the heavy job, queued jobs must be aborted"
        );
    }

    #[test]
    fn panicking_job_costs_its_result_not_the_driver() {
        let config = ServerConfig {
            drivers: 1,
            ..small_config()
        };
        let server = Server::new(baselines::registry(), config).unwrap();
        // Operand shape contradicts the problem statement: the rank bodies
        // index out of bounds and panic. The driver must catch it, type it,
        // and keep serving.
        let poison = {
            let prob = MmmProblem::new(24, 20, 28, 4, 1 << 12);
            JobRequest::new(0, prob, Matrix::deterministic(2, 2, 1), Matrix::deterministic(2, 2, 2))
        };
        let results = server.run_batch(vec![poison, job(1, 4, 5)]);
        assert!(matches!(results[0].outcome, Err(PlanError::Aborted { .. })), "{:?}", results[0].outcome);
        assert!(results[1].outcome.is_ok(), "the driver survived to serve the next job");
    }
}
