//! # pebbles — red-blue pebble game & MMM I/O lower bounds
//!
//! This crate implements the theoretical half of the COSMA paper:
//!
//! * [`cdag`] — computational DAGs `G = (V, E)` (paper §2.2): generic storage,
//!   inputs/outputs, reachability.
//! * [`mmm`] — the classical matrix-multiplication CDAG with its `A`, `B`, `C`
//!   vertex families and the projections `φa`, `φb`, `φc` (§5.1).
//! * [`game`] — the red-blue pebble game of Hong & Kung (§2.2): an engine that
//!   validates move sequences under the `S`-red-pebble constraint and counts
//!   I/O (loads + stores).
//! * [`partition`] — `X`-partitions (§4): dominator and minimum sets, the
//!   validity conditions, and an exact *minimum* dominator-set computation via
//!   vertex-capacity max-flow (Menger's theorem) for cross-checking.
//! * [`greedy`] — executable greedy schedules (§5.2.7, Listing 1): generators
//!   that emit full pebble-game move sequences for tiled MMM, whose measured
//!   I/O attains the lower bound up to the paper's `√S/(√(S+1)−1)` factor.
//! * [`bounds`] — the closed-form results: Theorem 1 (`2mnk/√S + mn`),
//!   Theorem 2 (parallel), computational intensity (Lemma 4), the optimal
//!   `a_opt`/`b_opt` block shape (Eqs. 27–28) and X-partition parameters
//!   (Eqs. 24–25).
//! * [`optimal`] — an exhaustive Dijkstra-over-game-states pebbler for tiny
//!   CDAGs, used to certify that the bounds are tight where exhaustive search
//!   is feasible.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod cdag;
pub mod game;
pub mod greedy;
pub mod mmm;
pub mod optimal;
pub mod partition;

pub use bounds::{
    aopt_bopt, greedy_attainable_io, theorem1_lower_bound, theorem2_parallel_bound, tightness_factor,
};
pub use cdag::{Cdag, VertexId};
pub use game::{GameError, GameRun, Move};
pub use mmm::MmmCdag;
