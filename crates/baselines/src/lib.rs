//! # baselines — the comparison algorithms of the paper's evaluation (§2.4, §9)
//!
//! Every algorithm produces the same [`cosma::plan::DistPlan`] structure as
//! COSMA and executes on the same [`mpsim`] machine, so the evaluation
//! figures compare like with like:
//!
//! * [`summa`] — SUMMA [van de Geijn & Watts '97], the 2D panel-broadcast
//!   algorithm inside ScaLAPACK's `pdgemm`. Stands in for "ScaLAPACK" in the
//!   experiments (we auto-tune its grid, as the paper manually did).
//! * [`cannon`] — Cannon's algorithm ['69]: square 2D grid, skew + ring
//!   shifts. The classical communication-optimal 2D algorithm for square
//!   matrices and square grids.
//! * [`p25d`] — the 2.5D decomposition [Solomonik & Demmel '11] with `c`
//!   replicated layers (3D as the special case `c = q`); the decomposition
//!   CTF uses. Stands in for "CTF".
//! * [`carma`] — CARMA [Demmel et al. '13]: BFS recursive splitting of the
//!   largest dimension, `p` a power of two; memory-oblivious and
//!   asymptotically optimal, but up to `√3` off in constants (§6.2).
//!
//! Every algorithm implements [`cosma::api::MmmAlgorithm`] —
//! [`SummaAlgorithm`], [`CannonAlgorithm`], [`P25dAlgorithm`],
//! [`CarmaAlgorithm`] — and [`registry`] returns the full five-algorithm
//! [`AlgorithmRegistry`] (COSMA included) that the bench harness, the
//! examples and the conformance tests consume. Planning failures and
//! rank-count constraints are reported through the unified
//! [`cosma::api::PlanError`] (the former `BaselineError` is gone).

#![forbid(unsafe_code)]

use std::sync::OnceLock;

use cosma::api::AlgorithmRegistry;

pub mod analysis;
pub mod cannon;
pub mod carma;
pub mod p25d;
pub mod summa;

pub use cannon::CannonAlgorithm;
pub use carma::CarmaAlgorithm;
pub use p25d::P25dAlgorithm;
pub use summa::SummaAlgorithm;

/// The full algorithm registry of the paper's evaluation: COSMA plus the
/// four baselines, each with its default configuration.
///
/// Built once per process and shared: [`AlgorithmRegistry`] is `Arc`-backed,
/// so every call returns an O(1) handle to the same algorithm list instead
/// of re-instantiating the five algorithms. Callers that `register` onto
/// their copy split off privately (copy-on-write) without affecting anyone
/// else.
///
/// ```
/// use cosma::api::AlgoId;
/// let reg = baselines::registry();
/// assert_eq!(reg.ids().len(), 5);
/// assert!(reg.by_id(AlgoId::Carma).is_ok());
/// ```
pub fn registry() -> AlgorithmRegistry {
    static REGISTRY: OnceLock<AlgorithmRegistry> = OnceLock::new();
    REGISTRY
        .get_or_init(|| {
            let mut r = AlgorithmRegistry::core();
            r.register(SummaAlgorithm);
            r.register(CannonAlgorithm);
            r.register(P25dAlgorithm::default());
            r.register(CarmaAlgorithm);
            r
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use cosma::api::AlgoId;

    #[test]
    fn registry_contains_all_five() {
        let reg = super::registry();
        let ids = reg.ids();
        for id in AlgoId::ALL {
            assert!(ids.contains(&id), "{id} missing from registry");
        }
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn registry_ids_match_instances() {
        for algo in super::registry().all() {
            let by_id = super::registry().by_id(algo.id()).unwrap();
            assert_eq!(by_id.id(), algo.id());
        }
    }
}
