//! # bench — experiment harness for the paper's evaluation (§8–§9)
//!
//! [`scenarios`] defines the twelve benchmark scenarios of the paper
//! (4 matrix shapes × {strong scaling, limited memory, extra memory}),
//! [`runner`] streams every algorithm's plan on a scenario instance into
//! its rows (per-rank communication volume, simulated time, % of peak) and
//! executes plans against them, and [`baseline`] holds the paper's
//! evaluation as sections of the one committed record, with the paper's
//! claims as its contracts. [`serve_bench`] measures the serving layer
//! (`crates/serve`), and [`output`] renders tables.
//!
//! The `experiments` binary (`src/bin/experiments.rs`) prints each paper
//! table/figure's section; see `EXPERIMENTS.md` for the index and the
//! paper-vs-measured comparison.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod output;
pub mod runner;
pub mod scenarios;
pub mod serve_bench;
