//! # serve — planning-as-a-service over the COSMA reproduction
//!
//! The serving layer in front of the planner/executor stack: requests come
//! in as [`JobRequest`]s, answers go out as [`JobResult`]s, and everything
//! in between is memoized, auto-selected and concurrently executed. COSMA's
//! planning (grid fitting over the divisors of `p`, paper fig. 5) is *pure*
//! — fully determined by `(m, n, k, p, S, machine)` — which is what makes a
//! serving layer sound: plans can be cached and shared, and concurrent
//! execution can never change an answer.
//!
//! Three pieces:
//!
//! * [`PlanCache`] — a sharded, bounded-LRU `PlanKey → Arc<Planned>` map.
//!   [`PlanKey`] is the canonical request identity: problem dims plus the
//!   α-β-γ cost model keyed by IEEE-754 **bit pattern**, overlap mode,
//!   memory budget and the allowed-algorithm mask. Hit/miss/eviction
//!   counters are atomic ([`CacheStats`]).
//! * [`AutoPlanner`] — runs a request through every candidate of the
//!   [`AlgorithmRegistry`](cosma::api::AlgorithmRegistry)
//!   (COSMA/SUMMA/2.5D/CARMA), scores each feasible plan's
//!   `TimeBreakdown` under the cost model as its ranks stream by, and picks
//!   the strict argmin — fig. 5's grid fitting generalized across
//!   algorithms; only the winner's plan is ever stored. The verdict is a
//!   typed [`Selection`] `{ algo, planned_time_s, runner_up }`.
//! * [`Server`] — the multi-tenant driver: a team of driver threads, one
//!   per core, consumes the job queue. Jobs run in parallel, each world
//!   single-threaded: an unpinned job is one event simulation on its driver
//!   thread; a lone heavy job may pin `Event { threads: n }`. Per-job
//!   [`ExecReport`](cosma::api::ExecReport)s come back with the selection,
//!   the (possibly cached) plan and a cache-hit flag. Jobs may arm a
//!   deterministic [`FaultPlan`]; under a [`RetryPolicy`] the driver
//!   recovers from injected rank death by replanning the surviving world
//!   (see the `driver` module docs).
//!
//! ```
//! use cosma::problem::MmmProblem;
//! use densemat::matrix::Matrix;
//! use serve::{AlgoChoice, JobRequest, Server, ServerConfig};
//!
//! let server = Server::new(baselines::registry(), ServerConfig::default()).unwrap();
//! let prob = MmmProblem::new(48, 48, 48, 8, 1 << 12);
//! let a = Matrix::deterministic(prob.m, prob.k, 1);
//! let b = Matrix::deterministic(prob.k, prob.n, 2);
//! let results = server.run_batch(
//!     (0..4)
//!         .map(|id| JobRequest::new(id, prob, a.clone(), b.clone()).choice(AlgoChoice::Auto))
//!         .collect(),
//! );
//! let out = results[0].outcome.as_ref().unwrap();
//! println!("selected {} ({}s planned)", out.selection.algo, out.selection.planned_time_s);
//! assert!(server.cache_stats().hits >= 1, "repeat keys are served from the cache");
//! ```

#![forbid(unsafe_code)]

pub mod auto;
pub mod cache;
pub mod driver;
pub mod key;

pub use auto::{AlgoChoice, AutoPlanner, Planned, Ranked, Selection};
pub use cache::{CacheStats, PlanCache};
pub use driver::{JobOutput, JobRequest, JobResult, RetryPolicy, Server, ServerConfig, ShutdownReport};
pub use key::PlanKey;
pub use mpsim::FaultPlan;
