//! The cost-model auto-planner: pick the cheapest feasible algorithm.
//!
//! COSMA's grid fitting (paper fig. 5) chooses among grid candidates by
//! planned cost; the auto-planner generalizes that one level up — it runs a
//! request through *every* candidate algorithm of the
//! [`AlgorithmRegistry`], evaluates each structurally valid plan under the
//! α-β-γ cost model, and selects the strict argmin of planned wall-clock
//! time. Selection is fully deterministic: candidates are tried in
//! [`AlgoId::ALL`] order and ties go to the earliest candidate, so the same
//! request always picks the same algorithm (and the result is reproducible
//! by exhaustive enumeration — the property suite does exactly that).
//!
//! A candidate is judged without being stored: its rank stream
//! ([`MmmAlgorithm::plan_ranks`](cosma::api::MmmAlgorithm::plan_ranks)) runs
//! through the [`Coverage`] and [`Scoring`] folds — the code behind
//! [`DistPlan::validate_coverage`] and [`DistPlan::simulate`] — and only its
//! planned time is kept. The winner alone is then planned into a
//! [`DistPlan`]; planning is pure, so that plan is the one that was scored.

use std::sync::Arc;

use cosma::api::{AlgoId, AlgorithmRegistry, PlanError};
use cosma::plan::{Coverage, DistPlan, Scoring, Tiling};
use cosma::problem::MmmProblem;
use mpsim::cost::CostModel;

/// Which algorithms a request allows the auto-planner to consider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgoChoice {
    /// Every algorithm in the registry competes (cost-model argmin).
    Auto,
    /// Exactly this algorithm; the planner only checks feasibility.
    Fixed(AlgoId),
    /// A tenant-restricted subset competes (cost-model argmin within it) —
    /// e.g. a tenant that only trusts the square-grid classics.
    Among(Vec<AlgoId>),
}

impl AlgoChoice {
    /// The candidate ids in canonical [`AlgoId::ALL`] order (duplicates
    /// collapsed). The order is the tie-break order of the selection.
    pub fn candidates(&self) -> Vec<AlgoId> {
        match self {
            AlgoChoice::Auto => AlgoId::ALL.to_vec(),
            AlgoChoice::Fixed(id) => vec![*id],
            AlgoChoice::Among(ids) => AlgoId::ALL.iter().copied().filter(|id| ids.contains(id)).collect(),
        }
    }

    /// The candidate set as a bitmask over [`AlgoId::ALL`] positions — the
    /// canonical form a [`PlanKey`](crate::key::PlanKey) stores: two
    /// choices with the same mask are the same cache entry regardless of
    /// how the caller spelled them.
    pub fn mask(&self) -> u8 {
        let mut mask = 0u8;
        for (bit, id) in AlgoId::ALL.iter().enumerate() {
            if self.candidates().contains(id) {
                mask |= 1 << bit;
            }
        }
        mask
    }
}

/// One scored candidate of a [`Selection`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ranked {
    /// The algorithm.
    pub algo: AlgoId,
    /// Its planned wall-clock time under the α-β-γ model, in seconds.
    pub planned_time_s: f64,
}

/// The auto-planner's verdict for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The winning algorithm (strict argmin of planned time; earliest
    /// [`AlgoId::ALL`] candidate on ties).
    pub algo: AlgoId,
    /// The winner's planned wall-clock seconds.
    pub planned_time_s: f64,
    /// The second-cheapest feasible candidate, when more than one was
    /// feasible — how contested the selection was.
    pub runner_up: Option<Ranked>,
}

/// A selection together with the winner's plan, ready to cache: everything
/// downstream execution needs, so a cache hit skips planning *and*
/// re-selection.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The auto-planner's verdict.
    pub selection: Selection,
    /// The winner's validated plan.
    pub plan: Arc<DistPlan>,
}

/// The auto-planner: an [`AlgorithmRegistry`] plus the selection rule.
#[derive(Debug, Clone)]
pub struct AutoPlanner {
    registry: AlgorithmRegistry,
}

impl AutoPlanner {
    /// An auto-planner over `registry` (cheap: the registry is
    /// `Arc`-backed).
    pub fn new(registry: AlgorithmRegistry) -> Self {
        AutoPlanner { registry }
    }

    /// The registry the planner selects from.
    pub fn registry(&self) -> &AlgorithmRegistry {
        &self.registry
    }

    /// Plan `prob` with every candidate of `choice` and select the cheapest
    /// feasible one. Feasible means: registered, `supports()` passes, the
    /// planner produces a plan, and the plan's coverage validates — the same
    /// gauntlet `RunSession::plan` applies. Every candidate is streamed and
    /// scored; the winner alone is materialized.
    ///
    /// # Errors
    /// [`PlanError::DegenerateProblem`] for a problem no planner can take.
    /// When no candidate is feasible, the error of the *first* candidate in
    /// canonical order (deterministic, like the selection itself); an empty
    /// candidate set is [`PlanError::UnknownAlgorithm`].
    pub fn select(
        &self,
        prob: &MmmProblem,
        model: &CostModel,
        overlap: bool,
        choice: &AlgoChoice,
    ) -> Result<Planned, PlanError> {
        prob.check()?;
        let mut feasible: Vec<Ranked> = Vec::new();
        let mut first_err: Option<PlanError> = None;
        for id in choice.candidates() {
            match self.score_one(id, prob, model, overlap) {
                Ok(planned_time_s) => feasible.push(Ranked {
                    algo: id,
                    planned_time_s,
                }),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let Some(winner_at) = argmin(&feasible) else {
            return Err(first_err.unwrap_or(PlanError::UnknownAlgorithm {
                name: "auto-planner: empty candidate set".to_string(),
            }));
        };
        let winner = feasible.swap_remove(winner_at);
        let runner_up = argmin(&feasible).map(|i| feasible[i]);
        let plan = self.registry.by_id(winner.algo)?.plan(prob, model)?;
        Ok(Planned {
            selection: Selection {
                algo: winner.algo,
                planned_time_s: winner.planned_time_s,
                runner_up,
            },
            plan: Arc::new(plan),
        })
    }

    /// The planned time of `id`'s plan for `prob`, or why it has none — from
    /// the plan's rank stream alone.
    fn score_one(
        &self,
        id: AlgoId,
        prob: &MmmProblem,
        model: &CostModel,
        overlap: bool,
    ) -> Result<f64, PlanError> {
        let algo = self.registry.by_id(id)?;
        algo.supports(prob)?;
        let mut coverage = Coverage::new(prob);
        let mut scoring = Scoring::new(model, overlap);
        let header = algo.plan_ranks(prob, model, &mut |r| {
            coverage.absorb(&r);
            scoring.absorb(&r);
        })?;
        if coverage.finish()? == Tiling::Overlapping {
            // Which ranks overlap only the bricks can say: collect this one
            // plan for the error that names them.
            algo.plan(prob, model)?.validate_coverage()?;
        }
        Ok(scoring.finish(&header.problem).time_s)
    }
}

/// Index of the strict minimum planned time; the earliest entry wins ties.
fn argmin(scored: &[Ranked]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, ranked) in scored.iter().enumerate() {
        match best {
            None => best = Some(i),
            Some(b) if ranked.planned_time_s < scored[b].planned_time_s => best = Some(i),
            Some(_) => {}
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner() -> AutoPlanner {
        AutoPlanner::new(baselines::registry())
    }

    fn model() -> CostModel {
        CostModel::piz_daint_two_sided()
    }

    #[test]
    fn choice_candidates_are_canonical_order() {
        assert_eq!(AlgoChoice::Auto.candidates(), AlgoId::ALL.to_vec());
        assert_eq!(AlgoChoice::Fixed(AlgoId::Cannon).candidates(), vec![AlgoId::Cannon]);
        // Spelled backwards, still canonical.
        let among = AlgoChoice::Among(vec![AlgoId::Carma, AlgoId::Cosma]);
        assert_eq!(among.candidates(), vec![AlgoId::Cosma, AlgoId::Carma]);
    }

    #[test]
    fn choice_masks_are_spelling_independent() {
        assert_eq!(AlgoChoice::Auto.mask(), 0b11111);
        assert_eq!(AlgoChoice::Fixed(AlgoId::Cosma).mask(), 0b00001);
        let a = AlgoChoice::Among(vec![AlgoId::Carma, AlgoId::Summa]);
        let b = AlgoChoice::Among(vec![AlgoId::Summa, AlgoId::Carma, AlgoId::Summa]);
        assert_eq!(a.mask(), b.mask());
        assert_eq!(a.mask(), 0b10010);
    }

    #[test]
    fn auto_selection_is_the_exhaustive_argmin() {
        let prob = MmmProblem::new(96, 96, 96, 16, 1 << 14);
        let planned = planner().select(&prob, &model(), true, &AlgoChoice::Auto).unwrap();
        // Exhaustive re-derivation over the registry, in canonical order:
        // every candidate materialized and judged by the plan's own methods.
        let mut best: Option<(AlgoId, f64)> = None;
        for algo in AlgoId::ALL.map(|id| baselines::registry().by_id(id).unwrap()) {
            let id = algo.id();
            let Ok(plan) = algo.supports(&prob).and_then(|()| algo.plan(&prob, &model())) else {
                continue;
            };
            if plan.validate_coverage().is_err() {
                continue;
            }
            let t = plan.simulate(&model(), true).time_s;
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((id, t));
            }
        }
        let (algo, t) = best.unwrap();
        assert_eq!(planned.selection.algo, algo);
        assert_eq!(planned.selection.planned_time_s, t);
        assert_eq!(planned.plan.algo, algo);
        let ru = planned.selection.runner_up.expect("16 ranks: several feasible algorithms");
        assert!(ru.planned_time_s >= planned.selection.planned_time_s);
        assert_ne!(ru.algo, planned.selection.algo);
    }

    #[test]
    fn fixed_choice_has_no_runner_up() {
        let prob = MmmProblem::new(64, 64, 64, 16, 1 << 14);
        let planned = planner()
            .select(&prob, &model(), true, &AlgoChoice::Fixed(AlgoId::Cannon))
            .unwrap();
        assert_eq!(planned.selection.algo, AlgoId::Cannon);
        assert_eq!(planned.selection.runner_up, None);
    }

    #[test]
    fn among_restricts_the_competition() {
        let prob = MmmProblem::new(64, 64, 64, 16, 1 << 14);
        let choice = AlgoChoice::Among(vec![AlgoId::Summa, AlgoId::Cannon]);
        let planned = planner().select(&prob, &model(), true, &choice).unwrap();
        assert!(matches!(planned.selection.algo, AlgoId::Summa | AlgoId::Cannon));
        if let Some(ru) = planned.selection.runner_up {
            assert!(matches!(ru.algo, AlgoId::Summa | AlgoId::Cannon));
        }
    }

    #[test]
    fn infeasible_candidates_are_skipped_not_fatal() {
        // p = 6: Cannon needs a perfect square, CARMA a power of two — both
        // infeasible, yet Auto still selects among the rest.
        let prob = MmmProblem::new(48, 48, 48, 6, 1 << 14);
        let planned = planner().select(&prob, &model(), true, &AlgoChoice::Auto).unwrap();
        assert!(!matches!(planned.selection.algo, AlgoId::Cannon | AlgoId::Carma));
    }

    #[test]
    fn no_feasible_candidate_reports_the_first_error() {
        // Cannon alone at p = 6: the perfect-square requirement fails.
        let prob = MmmProblem::new(48, 48, 48, 6, 1 << 14);
        let err = planner()
            .select(&prob, &model(), true, &AlgoChoice::Fixed(AlgoId::Cannon))
            .unwrap_err();
        assert!(matches!(
            err,
            PlanError::UnsupportedRanks {
                algo: AlgoId::Cannon,
                ..
            }
        ));
        // Empty candidate set: typed, not a panic.
        let err = planner().select(&prob, &model(), true, &AlgoChoice::Among(vec![])).unwrap_err();
        assert!(matches!(err, PlanError::UnknownAlgorithm { .. }));
    }
}
