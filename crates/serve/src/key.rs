//! Canonical cache keys for memoized planning.
//!
//! Planning is pure: a `DistPlan` is fully determined by the problem
//! `(m, n, k, p, S)`, the α-β-γ cost model, the overlap mode, the machine's
//! topology/placement and — through the auto-planner — the candidate set. A
//! [`PlanKey`] is that tuple in canonical form. Float fields are keyed by
//! **bit pattern** ([`f64::to_bits`]) after canonicalization: `-0.0`
//! normalizes to `0.0` (they plan identically, so they must share a cache
//! slot) and parameters that fail [`CostModel::check`] (NaN, infinite, a
//! rate that is not positive, a negative α or β) are rejected with a typed
//! [`PlanError::InvalidCostModel`] — a NaN would otherwise silently key a
//! cache entry no equal-looking request could ever hit again, and an
//! infinite one or a zero rate prices work at t = +∞, which no executor
//! window can ever admit.

use cosma::api::PlanError;
use cosma::problem::MmmProblem;
use mpsim::cost::CostModel;
use mpsim::machine::{Placement, Topology};

use crate::auto::AlgoChoice;

/// The canonical bit pattern of one finite machine parameter: `-0.0` folds
/// into `0.0`. ([`CostModel::check`] and [`Topology::validate`] reject the
/// non-finite ones first.)
fn canonical_bits(v: f64) -> u64 {
    if v == 0.0 {
        0.0f64.to_bits()
    } else {
        v.to_bits()
    }
}

/// Fixed-width encoding of a [`Topology`]: discriminant + one word per
/// parameter, or [`PlanError::InvalidTopology`] for one
/// [`Topology::validate`] rejects — before anything is planned, cached or
/// run on it.
fn encode_topology(t: &Topology) -> Result<(u8, [u64; 4]), PlanError> {
    t.validate().map_err(|reason| PlanError::InvalidTopology { reason })?;
    Ok(match t {
        Topology::Flat => (0, [0; 4]),
        Topology::FatTree {
            ranks_per_node,
            nodes_per_switch,
            nic_factor,
            up_factor,
        } => (
            1,
            [
                *ranks_per_node as u64,
                *nodes_per_switch as u64,
                canonical_bits(*nic_factor),
                canonical_bits(*up_factor),
            ],
        ),
    })
}

/// Canonical identity of one planning request. `Eq + Hash`, so it keys the
/// [`PlanCache`](crate::cache::PlanCache) map directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Rows of A and C.
    pub m: u64,
    /// Columns of B and C.
    pub n: u64,
    /// Columns of A / rows of B.
    pub k: u64,
    /// World size.
    pub p: u64,
    /// Per-rank memory S, in words.
    pub mem_words: u64,
    /// [`CostModel::peak_flops`] as its canonical bit pattern.
    pub peak_flops_bits: u64,
    /// [`CostModel::kernel_efficiency`] as its canonical bit pattern.
    pub kernel_efficiency_bits: u64,
    /// [`CostModel::alpha_s`] as its canonical bit pattern.
    pub alpha_bits: u64,
    /// [`CostModel::beta_s_per_word`] as its canonical bit pattern.
    pub beta_bits: u64,
    /// Communication–computation overlap mode (changes the planned-time
    /// objective the auto-planner minimizes).
    pub overlap: bool,
    /// Enforced per-rank memory budget, when set.
    pub mem_budget: Option<u64>,
    /// The allowed algorithms as a bitmask over
    /// [`AlgoId::ALL`](cosma::api::AlgoId::ALL) positions
    /// ([`AlgoChoice::mask`]).
    pub candidates: u8,
    /// [`Topology`] discriminant (0 = flat, 1 = fat tree) — cached plans
    /// must never cross machine shapes.
    pub topology_tag: u8,
    /// The topology's packed parameters (counts and canonical factor bits).
    pub topology_bits: [u64; 4],
    /// Rank→node [`Placement`] discriminant (0 = block, 1 = round-robin).
    pub placement: u8,
}

impl PlanKey {
    /// The canonical key of a planning request, or
    /// [`PlanError::InvalidTopology`] when the topology fails validation, or
    /// [`PlanError::InvalidCostModel`] when a cost-model constant fails
    /// [`CostModel::check`].
    pub fn try_new(
        prob: &MmmProblem,
        model: &CostModel,
        overlap: bool,
        mem_budget: Option<u64>,
        choice: &AlgoChoice,
        topology: &Topology,
        placement: Placement,
    ) -> Result<Self, PlanError> {
        let (topology_tag, topology_bits) = encode_topology(topology)?;
        model.check().map_err(|field| PlanError::InvalidCostModel { field })?;
        Ok(PlanKey {
            m: prob.m as u64,
            n: prob.n as u64,
            k: prob.k as u64,
            p: prob.p as u64,
            mem_words: prob.mem_words as u64,
            peak_flops_bits: canonical_bits(model.peak_flops),
            kernel_efficiency_bits: canonical_bits(model.kernel_efficiency),
            alpha_bits: canonical_bits(model.alpha_s),
            beta_bits: canonical_bits(model.beta_s_per_word),
            overlap,
            mem_budget,
            candidates: choice.mask(),
            topology_tag,
            topology_bits,
            placement: match placement {
                Placement::Block => 0,
                Placement::RoundRobin => 1,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma::api::AlgoId;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn key(
        prob: &MmmProblem,
        model: &CostModel,
        overlap: bool,
        mem_budget: Option<u64>,
        choice: &AlgoChoice,
    ) -> PlanKey {
        PlanKey::try_new(prob, model, overlap, mem_budget, choice, &Topology::Flat, Placement::Block)
            .expect("finite model")
    }

    fn hash_of(key: &PlanKey) -> u64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn same_request_same_key() {
        let prob = MmmProblem::new(96, 80, 112, 16, 1 << 14);
        let model = CostModel::piz_daint_two_sided();
        let a = key(&prob, &model, true, None, &AlgoChoice::Auto);
        let b = key(&prob, &model, true, None, &AlgoChoice::Auto);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn every_field_distinguishes() {
        let prob = MmmProblem::new(96, 80, 112, 16, 1 << 14);
        let model = CostModel::piz_daint_two_sided();
        let base = key(&prob, &model, true, None, &AlgoChoice::Auto);
        let variants = [
            key(&MmmProblem::new(97, 80, 112, 16, 1 << 14), &model, true, None, &AlgoChoice::Auto),
            key(&MmmProblem::new(96, 80, 112, 32, 1 << 14), &model, true, None, &AlgoChoice::Auto),
            key(&MmmProblem::new(96, 80, 112, 16, 1 << 15), &model, true, None, &AlgoChoice::Auto),
            key(
                &prob,
                &CostModel {
                    alpha_s: 1.2e-6,
                    ..CostModel::piz_daint_two_sided()
                },
                true,
                None,
                &AlgoChoice::Auto,
            ),
            key(&prob, &model, false, None, &AlgoChoice::Auto),
            key(&prob, &model, true, Some(1 << 14), &AlgoChoice::Auto),
            key(&prob, &model, true, None, &AlgoChoice::Fixed(AlgoId::Cosma)),
        ];
        for v in variants {
            assert_ne!(base, v);
        }
    }

    #[test]
    fn floats_key_by_bit_pattern_not_value_fuzz() {
        let prob = MmmProblem::new(64, 64, 64, 16, 1 << 14);
        let mut warm = CostModel::piz_daint_two_sided();
        warm.alpha_s += f64::EPSILON * warm.alpha_s;
        let a = key(&prob, &CostModel::piz_daint_two_sided(), true, None, &AlgoChoice::Auto);
        let b = key(&prob, &warm, true, None, &AlgoChoice::Auto);
        assert_ne!(a, b, "one-ulp difference is a different key");
    }

    #[test]
    fn equivalent_choices_share_a_key() {
        let prob = MmmProblem::new(64, 64, 64, 16, 1 << 14);
        let model = CostModel::piz_daint_two_sided();
        let spelled = AlgoChoice::Among(vec![AlgoId::Carma, AlgoId::Cosma, AlgoId::Carma]);
        let canonical = AlgoChoice::Among(vec![AlgoId::Cosma, AlgoId::Carma]);
        assert_eq!(key(&prob, &model, true, None, &spelled), key(&prob, &model, true, None, &canonical),);
    }

    #[test]
    fn negative_zero_canonicalizes_to_zero() {
        let prob = MmmProblem::new(64, 64, 64, 16, 1 << 14);
        let mut pos = CostModel::piz_daint_two_sided();
        pos.alpha_s = 0.0;
        let mut neg = pos;
        neg.alpha_s = -0.0;
        assert_ne!((-0.0f64).to_bits(), 0.0f64.to_bits(), "raw bits would fragment");
        assert_eq!(
            key(&prob, &pos, true, None, &AlgoChoice::Auto),
            key(&prob, &neg, true, None, &AlgoChoice::Auto),
            "-0.0 and 0.0 plan identically, so they must share a cache slot"
        );
    }

    #[test]
    fn nan_machine_parameter_is_a_typed_error() {
        let prob = MmmProblem::new(64, 64, 64, 16, 1 << 14);
        let mut bad = CostModel::piz_daint_two_sided();
        bad.beta_s_per_word = f64::NAN;
        let err =
            PlanKey::try_new(&prob, &bad, true, None, &AlgoChoice::Auto, &Topology::Flat, Placement::Block)
                .unwrap_err();
        assert_eq!(
            err,
            PlanError::InvalidCostModel {
                field: "beta_s_per_word"
            }
        );
    }

    #[test]
    fn infinite_machine_parameter_is_a_typed_error() {
        let prob = MmmProblem::new(64, 64, 64, 16, 1 << 14);
        let mut infinite_beta = CostModel::piz_daint_two_sided();
        infinite_beta.beta_s_per_word = f64::INFINITY;
        let mut negative_infinite_alpha = CostModel::piz_daint_two_sided();
        negative_infinite_alpha.alpha_s = f64::NEG_INFINITY;
        let mut zero_peak = CostModel::piz_daint_two_sided();
        zero_peak.peak_flops = 0.0;
        for (field, bad) in [
            ("beta_s_per_word", infinite_beta),
            ("alpha_s", negative_infinite_alpha),
            ("peak_flops", zero_peak),
        ] {
            let err = PlanKey::try_new(
                &prob,
                &bad,
                true,
                None,
                &AlgoChoice::Auto,
                &Topology::Flat,
                Placement::Block,
            )
            .unwrap_err();
            assert_eq!(err, PlanError::InvalidCostModel { field });
        }
    }

    #[test]
    fn topology_and_placement_distinguish_keys() {
        let prob = MmmProblem::new(96, 80, 112, 16, 1 << 14);
        let model = CostModel::piz_daint_two_sided();
        let flat = key(&prob, &model, true, None, &AlgoChoice::Auto);
        let mk = |t: &Topology, pl: Placement| {
            PlanKey::try_new(&prob, &model, true, None, &AlgoChoice::Auto, t, pl).unwrap()
        };
        let fat = mk(&Topology::congested_fat_tree(), Placement::Block);
        let fat_rr = mk(&Topology::congested_fat_tree(), Placement::RoundRobin);
        assert_ne!(flat, fat, "cached plans must never cross machine shapes");
        assert_ne!(fat, fat_rr, "placement is part of the machine shape");
        // One leaf switch over every node: the per-node rank count is a
        // shape of its own, whatever the switch count reads.
        let one_switch = |ranks_per_node| {
            mk(
                &Topology::FatTree {
                    ranks_per_node,
                    nodes_per_switch: usize::MAX,
                    nic_factor: 0.25,
                    up_factor: 0.25,
                },
                Placement::Block,
            )
        };
        assert_ne!(one_switch(1), one_switch(4));
        assert_ne!(fat, one_switch(4));
        // Distinct fat-tree factors are distinct shapes.
        let fat_tuned = mk(
            &Topology::FatTree {
                ranks_per_node: 4,
                nodes_per_switch: 4,
                nic_factor: 1.0,
                up_factor: 4.0,
            },
            Placement::Block,
        );
        assert_ne!(fat, fat_tuned);
    }
}
