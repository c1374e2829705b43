//! # bench — experiment harness for the paper's evaluation (§8–§9)
//!
//! [`scenarios`] defines the twelve benchmark scenarios of the paper
//! (4 matrix shapes × {strong scaling, limited memory, extra memory}),
//! [`runner`] evaluates every algorithm's plan on a scenario instance and
//! produces the measured rows (per-rank communication volume, simulated
//! time, % of peak), and [`output`] renders tables and CSV files.
//!
//! The `experiments` binary (`src/bin/experiments.rs`) maps each paper
//! table/figure to a subcommand; see `EXPERIMENTS.md` for the index and the
//! recorded paper-vs-measured comparison.

#![forbid(unsafe_code)]

//! [`serve_bench`] measures the serving layer (`crates/serve`): cold vs
//! cached planning throughput and executed-jobs/s under a mixed concurrent
//! stream. [`baseline`] builds, renders and compares the one committed gate
//! record under `results/`.

pub mod baseline;
pub mod output;
pub mod runner;
pub mod scenarios;
pub mod serve_bench;
