//! # densemat — dense-matrix substrate
//!
//! This crate is the "BLAS + data-layout" substrate that the COSMA reproduction
//! is built on. The paper uses Intel MKL for local computation and the
//! ScaLAPACK block-cyclic format for interoperability (§7.6 of the paper); this
//! crate provides from-scratch replacements:
//!
//! * [`matrix`] — a row-major `f64` matrix with block extraction and in-place
//!   views, used both by the local kernels and by the distributed algorithms to
//!   describe sub-domains.
//! * [`gemm`] — local matrix-multiplication kernels: a reference naive kernel
//!   and a packed register-blocked kernel (the one every library path calls,
//!   the paper's §7 "local tuning"), which reads its operands as views in
//!   place, one or many along k. Both compute `C += A * B` so that the
//!   distributed algorithms can accumulate partial results exactly like the
//!   paper's rank-1-update formulation (Listing 1).
//! * [`layout`] — distributed data layouts: the ScaLAPACK block-cyclic layout
//!   and the COSMA blocked layout (§7.6), plus transformations between them
//!   with exact word-movement accounting.
//!
//! The kernels are deliberately simple enough to audit, yet cache- and
//! register-blocked so the cost model's "local compute" term corresponds to a
//! real, measured code path (the benchmark's `densemat.gemm.*` probes).

// The workspace's one `unsafe` exception is the AVX-512 micro-kernel in
// `gemm.rs`; every other crate is `#![forbid(unsafe_code)]`.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod gemm;
pub mod layout;
pub mod matrix;

pub use gemm::{gemm_naive, gemm_packed, matmul, mmm_flops};
pub use layout::{BlockCyclic, BlockedLayout, Distribution};
pub use matrix::Matrix;
