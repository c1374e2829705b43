//! Ablations of the design choices the paper's §6–§7 call out:
//!
//! * the round grouping of §6.3's latency steps (totals preserved);
//! * the grid-fitting δ (idle-rank budget) of §7.1;
//! * the overlap of §7.3 (time with vs without);
//! * the per-message latency α (lower α ⇒ lower simulated time).

use cosma::api::{AlgorithmRegistry, CosmaAlgorithm, RunSession};
use cosma::plan::DistPlan;
use cosma::problem::MmmProblem;
use cosma::CosmaConfig;
use mpsim::cost::CostModel;

fn model() -> CostModel {
    CostModel::piz_daint_two_sided()
}

/// Plan COSMA with an explicit grid-fitting δ through the session API: the
/// δ variant is the registry's COSMA entry.
fn cosma_plan_delta(prob: &MmmProblem, delta: f64) -> DistPlan {
    let mut registry = AlgorithmRegistry::core();
    registry.register(CosmaAlgorithm {
        cfg: CosmaConfig { delta },
    });
    RunSession::new(*prob)
        .machine(model())
        .registry(registry)
        .plan()
        .expect("feasible problem")
}

#[test]
fn delta_ablation_over_awkward_rank_counts() {
    // Allowing 3% idle ranks searches a superset of grids, so the fit
    // objective can only improve; for the paper's p = 65 the volume cut is
    // dramatic (Figure 5).
    for p in [65usize, 67, 97, 130, 514] {
        let prob = MmmProblem::new(4096, 4096, 4096, p, 1 << 22);
        let strict = cosma::grid::fit_ranks(&prob, 0.0, &model()).unwrap();
        let relaxed = cosma::grid::fit_ranks(&prob, 0.03, &model()).unwrap();
        assert!(
            relaxed.score <= strict.score + 1e-15,
            "p={p}: superset search must not worsen the objective"
        );
        if p == 65 {
            let strict_plan = cosma_plan_delta(&prob, 0.0);
            let relaxed_plan = cosma_plan_delta(&prob, 0.03);
            let (qs, qr) = (strict_plan.mean_comm_words(), relaxed_plan.mean_comm_words());
            assert!(qr < qs * 0.8, "p=65: expected a big volume cut, got {qr} vs {qs}");
        }
    }
}

#[test]
fn overlap_ablation_hides_communication() {
    // In a bandwidth-heavy scenario, overlap must cut the simulated time;
    // the hidden fraction equals the comm that fits under compute.
    let prob = MmmProblem::new(4096, 4096, 4096, 256, 1 << 17);
    let plan = cosma_plan_delta(&prob, 0.03);
    let without = plan.simulate(&model(), false);
    let with = plan.simulate(&model(), true);
    assert!(with.time_s < without.time_s, "overlap must help");
    assert!(with.critical.exposed_comm_s < without.critical.exposed_comm_s);
    // Hidden communication never exceeds total communication.
    assert!(with.critical.total_comm_s >= with.critical.exposed_comm_s);
    assert!((with.critical.total_comm_s - without.critical.total_comm_s).abs() < 1e-12);
}

#[test]
fn lower_alpha_reduces_latency_bound_cost() {
    // Same plan, two cost models: a lower per-message alpha shows up in
    // simulated time exactly proportionally to the message count.
    let prob = MmmProblem::new(512, 512, 512, 64, 1 << 13);
    let two = CostModel::piz_daint_two_sided();
    let one = CostModel {
        alpha_s: 1.2e-6,
        ..CostModel::piz_daint_two_sided()
    };
    let plan = RunSession::new(prob).machine(two).plan().unwrap();
    let t2 = plan.simulate(&two, false);
    let t1 = plan.simulate(&one, false);
    assert!(t1.time_s < t2.time_s, "lower alpha must lower time");
    // The difference is purely latency: words and flops identical.
    assert!((t1.critical.compute_s - t2.critical.compute_s).abs() < 1e-15);
}

#[test]
fn round_grouping_preserves_totals() {
    // The MAX_PLAN_ROUNDS grouping must leave totals identical: construct a
    // problem whose natural step count exceeds the cap and compare against
    // the sum the ungrouped step structure implies.
    use cosma::schedule::latency_steps;
    let prob = MmmProblem::new(64, 64, 1 << 14, 4, 64 * 64 + 2 * 128 + 64);
    let plan = cosma_plan_delta(&prob, 0.03);
    for rp in plan.ranks.iter().filter(|r| r.active) {
        let b = &rp.bricks[0];
        let sp = latency_steps(b.rows.len(), b.cols.len(), b.ks.len(), prob.mem_words).unwrap();
        assert!(rp.rounds.iter().len() <= cosma::algorithm::MAX_PLAN_ROUNDS + 1);
        // Flops across rounds == 2 * brick volume + reduction adds.
        let mult_flops: u64 =
            rp.rounds.iter().map(|r| r.flops).sum::<u64>() - rp.rounds.iter().map(|r| r.c_words).sum::<u64>();
        assert_eq!(mult_flops, 2 * b.volume(), "rank {}", rp.rank);
        // Slab structure covers the brick's k extent.
        assert_eq!(sp.slabs.iter().sum::<usize>(), b.ks.len());
    }
}
