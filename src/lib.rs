//! # cosma-repro — workspace façade
//!
//! Re-exports the crates of the COSMA reproduction so that examples and
//! integration tests can use a single dependency:
//!
//! * [`pebbles`] — red-blue pebble game, CDAGs, X-partitions, MMM I/O lower
//!   bounds (paper §2.2, §4, §5).
//! * [`densemat`] — dense-matrix substrate: storage, GEMM kernels, layouts.
//! * [`mpsim`] — simulated distributed machine: the event-driven
//!   (stackless, 100k-rank) SPMD executor, collectives, traffic counters,
//!   α-β-γ cost model (replaces Piz Daint + MPI + mpiP).
//! * [`cosma`] — the paper's contribution: near-communication-optimal
//!   distributed matrix multiplication (§3, §6, §7).
//! * [`baselines`] — ScaLAPACK-style SUMMA, 2.5D/3D (CTF-style) and CARMA
//!   comparison algorithms (§2.4, §8), plus [`baselines::registry`], the
//!   full four-algorithm [`cosma::api::AlgorithmRegistry`].
//! * [`serve`] — planning-as-a-service: an LRU plan cache keyed by
//!   canonical [`serve::PlanKey`]s, a cost-model auto-planner selecting the
//!   cheapest feasible algorithm per request, and a multi-tenant
//!   [`serve::Server`] executing many independent worlds concurrently.
//!
//! The front door is [`cosma::api::RunSession`]: pick a problem, a cost
//! model and an [`cosma::api::AlgoId`], then `.plan()`, `.run()` (cost-model
//! simulation) or `.execute()` (real execution on the event-driven
//! stackless executor, which measures virtual α-β-γ time at any rank count;
//! `.exec_backend(..)` pins more scheduler threads):
//!
//! ```
//! use cosma_repro::cosma::api::{AlgoId, RunSession};
//! use cosma_repro::cosma::problem::MmmProblem;
//!
//! let outcome = RunSession::new(MmmProblem::new(64, 64, 64, 16, 1 << 12))
//!     .registry(cosma_repro::baselines::registry())
//!     .algorithm(AlgoId::P25d)
//!     .run()
//!     .unwrap();
//! assert_eq!(outcome.plan.grid, [4, 4, 1]);
//! ```
//!
//! See `README.md` for a tour and `ARCHITECTURE.md` for the system inventory.

#![forbid(unsafe_code)]

pub use baselines;
pub use cosma;
pub use densemat;
pub use mpsim;
pub use pebbles;
pub use serve;
