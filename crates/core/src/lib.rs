//! # cosma — Communication Optimal S-partition-based Matrix multiplication Algorithm
//!
//! The core contribution of the paper: a distributed matrix-multiplication
//! algorithm that *first* derives the near-I/O-optimal sequential schedule
//! (outer products over `√S × √S` C-blocks, §5) and *then* parallelizes it
//! bottom-up (§6), instead of fixing a processor grid top-down and hoping it
//! matches the matrices.
//!
//! Pipeline (Algorithm 1 of the paper):
//!
//! 1. [`schedule::find_seq_schedule`] — `a = min(√S, (mnk/p)^(1/3))`
//!    (`FindSeqSchedule`, sequential I/O optimality, §5);
//! 2. [`schedule::parallelize_schedule`] — `b = max(mnk/(pS), (mnk/p)^(1/3))`
//!    (`ParallelizeSched`, parallel I/O optimality, §6.3);
//! 3. [`grid::fit_ranks`] — fit an integer processor grid to the optimal
//!    local domain, possibly idling up to `δ·p` ranks (`FitRanks`, §7.1);
//! 4. [`plan::DistPlan`] — the materialized schedule: per-rank bricks of the
//!    iteration space and per-round exact communication volumes, produced
//!    as a rank stream ([`algorithm::plan_ranks`]) that can be judged
//!    without being stored;
//! 5. [`algorithm::execute`] — run it on an [`mpsim`] machine with real
//!    messages: per-round A/B all-gathers along grid fibers (`DistrData`),
//!    local tiled GEMM (`Multiply`), and a balanced ring reduce-scatter of C
//!    (`Reduce`; the output stays in COSMA's blocked layout).
//!
//! The closed-form per-rank I/O of Eq. 33 (Table 3's COSMA row) is
//! [`schedule::io_cost`], beside the domain it reads. The message counts a
//! plan prices its collectives by live beside those collectives in
//! [`mpsim::collectives`].
//!
//! Baseline algorithms (`baselines` crate) produce the same [`plan::DistPlan`]
//! structure, so every comparison in the paper's evaluation is a comparison
//! between two plans measured identically. That contract is a first-class
//! type: every algorithm implements [`api::MmmAlgorithm`] (typed
//! [`api::AlgoId`] identity, capability queries, planning and execution
//! behind one unified [`api::PlanError`]), an [`api::AlgorithmRegistry`]
//! collects the implementations, and [`api::RunSession`] is the single
//! builder-style entry point used by the bench harness, the examples and
//! the integration tests.

#![forbid(unsafe_code)]

pub mod algorithm;
pub mod api;
pub mod grid;
pub mod layout;
pub mod plan;
pub mod problem;
pub mod schedule;

pub use algorithm::{execute, plan as cosma_plan, CosmaConfig};
pub use api::{
    AlgoId, AlgorithmRegistry, CosmaAlgorithm, ExecReport, MmmAlgorithm, PlanError, RankRequirement,
    RunOutcome, RunSession,
};
pub use grid::{fit_ranks, FitResult, Grid3};
pub use plan::{Brick, DistPlan, PlanHeader, RankPlan, Round, SimReport};
pub use problem::{MmmProblem, Shape};
