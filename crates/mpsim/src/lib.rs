//! # mpsim — simulated distributed-memory machine
//!
//! The COSMA paper evaluates on Piz Daint (Cray XC40, Aries interconnect, MPI,
//! mpiP profiling). MPI bindings in Rust are thin and a supercomputer is not
//! available to a reproduction, so this crate provides the substitute
//! substrate (`EXPERIMENTS.md` records what it reproduces of the paper's
//! setup):
//!
//! * [`machine`] — machine descriptions: `p` ranks, `S` words of memory per
//!   rank, and a cost model; including a Piz-Daint-XC40-like preset.
//! * [`stats`] — the per-rank statistics a run reports, the stand-in for the
//!   mpiP profiler: every word a rank sends or receives is counted, bucketed
//!   by communication phase (A-input, B-input, C-output, …), in the rank's
//!   one event-world record beside its virtual clock.
//! * [`comm`] — the communicators: [`comm::RankComm`], the resumable
//!   rank-facing handle every rank body receives (tagged point-to-point
//!   message passing and a world barrier).
//! * [`event`] — the event-driven machine behind `ExecBackend::Event`: a
//!   discrete-event simulator driving rank bodies as stackless resumable
//!   state machines, with a virtual-time-ordered ready queue, a
//!   message-matching table, and a per-rank α-β-γ virtual clock that
//!   measures compute / exposed-comm / hidden-comm time. Optionally sharded
//!   across OS threads as rank regions under conservative synchronization —
//!   bitwise-identical stats at every thread count.
//! * [`collectives`] — binomial-tree broadcast and reduce, Bruck all-gather
//!   and ring reduce-scatter, built on the point-to-point layer exactly like
//!   the paper's hand-rolled broadcast trees (§7.2); all resumable (`async`).
//! * [`exec`] — the SPMD executor: event-driven stackless rank state
//!   machines on one or more scheduler threads (any world size — verified
//!   to p = 1,048,576 with real messages on the parallel scheduler), and
//!   the typed errors of a refused, wedged or failed world.
//! * [`cost`] — the α-β-γ time model: per-round communication/computation
//!   costs, with and without communication–computation overlap (§7.3), and
//!   %-of-peak reporting used by Figures 8–14.
//! * [`fault`] — deterministic fault injection: a seeded [`fault::FaultPlan`]
//!   the event scheduler consults to kill ranks at scheduled points of
//!   *virtual* time, surfacing as a typed
//!   [`exec::ExecError::RankFailed`] a caller can recover from by
//!   replanning the surviving world.
//! * [`pool`] — size-classed buffer-reuse arenas (§7 "buffer reuse"): one
//!   [`pool::BufferPool`] per world recycles message payloads, collective
//!   scratch and leaf buffers, bitwise-invisibly to results, counters and
//!   virtual time.
//!
//! Algorithms run in two modes backed by the same decomposition code: real
//! execution with data (correctness, any `p`) and plan-level analysis
//! (exact word counts at paper scale, up to 18,432 ranks). The integration
//! tests in `tests/` assert the two modes agree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod cost;
pub mod event;
pub mod exec;
pub mod fault;
pub mod machine;
pub mod pool;
pub mod stats;
pub mod topo;

pub use comm::RankComm;
pub use cost::{CostModel, RoundCost, TimeBreakdown};
pub use exec::{run_spmd_with, ExecBackend, ExecError, RunOutput, Waiting};
pub use fault::FaultPlan;
pub use machine::{MachineSpec, Placement, Topology};
pub use pool::{BufferPool, PoolStats};
pub use stats::{Phase, RankStats};
pub use topo::Network;
