//! Theory ↔ systems invariants: the measured plans must respect the paper's
//! bounds and orderings.
//!
//! * COSMA's per-rank volume tracks the Theorem-2 envelope (Eq. 33);
//! * COSMA never moves more data than any baseline on common scenarios
//!   (Table 1's "optimal for all m, n, k, p" claim, at test scale);
//! * the greedy sequential schedules never beat Theorem 1;
//! * the exhaustively-optimal pebblings never beat Theorem 1 either.

use baselines::p25d::{Geometry25, P25dAlgorithm};
use cosma::algorithm::{plan as cosma_plan, CosmaConfig};
use cosma::api::MmmAlgorithm;
use cosma::problem::MmmProblem;
use mpsim::cost::CostModel;
use pebbles::bounds::{theorem1_lower_bound, theorem2_parallel_bound};
use pebbles::game::validate_complete;
use pebbles::greedy::near_optimal_moves;
use pebbles::mmm::MmmCdag;

fn model() -> CostModel {
    CostModel::piz_daint_two_sided()
}

#[test]
fn cosma_volume_tracks_theorem2_envelope() {
    for &(m, n, k, p, s) in &[
        (256usize, 256usize, 256usize, 16usize, 1usize << 13),
        (64, 64, 4096, 32, 1 << 12),
        (512, 512, 64, 64, 1 << 13),
        (1024, 96, 1024, 24, 1 << 14),
    ] {
        let prob = MmmProblem::new(m, n, k, p, s);
        let plan = cosma_plan(&prob, &CosmaConfig::default(), &model()).unwrap();
        let bound = theorem2_parallel_bound(m, n, k, p, s);
        let measured = plan.mean_comm_words();
        // The plan's received words exclude the rank's own shard, and the
        // bound's "+S" charges full buffer reloads, so the plan may sit
        // below the envelope — but never above 2x of it (attainability), and
        // never below the envelope's leading term by more than the shard
        // discount.
        assert!(
            measured <= 2.0 * bound,
            "({m},{n},{k},p={p},S={s}): measured {measured} far above bound {bound}"
        );
        // The 0.2x side holds on these four problems, not on the paper's
        // sweep: at six flat-limited points, p = 128-1024 (k = 256), COSMA
        // reads 0.191-0.198 of the bound. There the bound is in its cubic
        // branch, 3(mnk/p)^(2/3): three faces of a cube of side
        // (mnk/p)^(1/3) ~ 2731, C's among them. k = 256 cannot be cut into
        // such cubes; COSMA keeps it whole (16x16x1 at p = 256), never
        // communicates C and receives its A and B panels alone:
        // 2 (n/16) k (15/16) ~ 4.28 M words against the bound's 22.4 M. The
        // record's contracts hold the upper side on the whole sweep.
        assert!(
            measured >= 0.2 * bound,
            "({m},{n},{k},p={p},S={s}): measured {measured} implausibly below bound {bound}"
        );
    }
}

#[test]
fn cosma_never_moves_more_than_baselines() {
    // Scenarios where every baseline applies: square p (2.5D with one layer,
    // Cannon's algorithm), power-of-two p (CARMA).
    for &(m, n, k, p, s) in &[
        (256usize, 256usize, 256usize, 16usize, 1usize << 15),
        (64, 64, 2048, 16, 1 << 16),
        (2048, 64, 64, 16, 1 << 16),
        (512, 512, 32, 64, 1 << 13),
        (384, 384, 384, 64, 1 << 14),
    ] {
        let prob = MmmProblem::new(m, n, k, p, s);
        // Mean received words per rank — the paper's Table 4 metric.
        let q_cosma = cosma_plan(&prob, &CosmaConfig::default(), &model()).unwrap().mean_comm_words();
        let q_summa = baselines::summa::plan(&prob).unwrap().mean_comm_words();
        let q = (p as f64).sqrt() as usize;
        let one_layer = P25dAlgorithm::with_geometry(Geometry25 { q, c: 1 });
        let q_p25d_c1 = one_layer.plan(&prob, &model()).unwrap().mean_comm_words();
        let q_p25d = baselines::p25d::plan(&prob).unwrap().mean_comm_words();
        let q_carma = baselines::carma::plan(&prob).unwrap().mean_comm_words();
        for (name, q) in [
            ("summa", q_summa),
            ("p25d-c1", q_p25d_c1),
            ("p25d", q_p25d),
            ("carma", q_carma),
        ] {
            assert!(q_cosma <= q * 1.05, "({m},{n},{k},p={p},S={s}): COSMA {q_cosma} above {name} {q}");
        }
    }
}

#[test]
fn greedy_pebbling_never_beats_theorem1() {
    for &(m, n, k, s) in &[
        (6usize, 6usize, 6usize, 10usize),
        (8, 8, 8, 16),
        (10, 6, 8, 25),
        (4, 12, 5, 12),
    ] {
        let g = MmmCdag::new(m, n, k);
        let (moves, a, b) = near_optimal_moves(&g, s);
        let io = validate_complete(g.graph(), s, &moves).unwrap();
        let bound = theorem1_lower_bound(m, n, k, s);
        assert!(io as f64 >= bound, "({m},{n},{k},S={s}) tile ({a},{b}): measured {io} < bound {bound}");
    }
}

#[test]
fn exhaustive_optimum_sandwiched_by_bound_and_greedy() {
    use pebbles::optimal::{min_io_exhaustive, SearchResult};
    for &(m, n, k, s) in &[(2usize, 2usize, 1usize, 4usize), (1, 2, 2, 4), (2, 1, 2, 5)] {
        let g = MmmCdag::new(m, n, k);
        let (moves, _, _) = near_optimal_moves(&g, s);
        let greedy = validate_complete(g.graph(), s, &moves).unwrap();
        match min_io_exhaustive(g.graph(), s, 2_000_000) {
            SearchResult::Optimal(opt) => {
                let lb = theorem1_lower_bound(m, n, k, s);
                // Theorem 1's closed form can exceed the true optimum by
                // rounding on tiny instances; it must hold within 1 word.
                assert!(opt as f64 + 1.0 >= lb.floor(), "({m},{n},{k},S={s}): opt {opt} < bound {lb}");
                assert!(opt <= greedy, "({m},{n},{k},S={s}): opt {opt} > greedy {greedy}");
            }
            other => panic!("({m},{n},{k},S={s}): search incomplete: {other:?}"),
        }
    }
}

#[test]
fn extra_memory_reduces_cosma_volume() {
    // Eq. 33: more memory (up to the cubic point) strictly helps.
    let mk = |s: usize| {
        let prob = MmmProblem::new(512, 512, 512, 64, s);
        cosma_plan(&prob, &CosmaConfig::default(), &model()).unwrap().mean_comm_words()
    };
    let tight = mk(1 << 13);
    let roomy = mk(1 << 17);
    assert!(roomy < tight, "S x16 must reduce volume: {roomy} vs {tight}");
}

#[test]
fn volume_scales_down_with_ranks() {
    // Strong scaling: per-rank volume decreases with p (until latency
    // effects, which the plan does not model as volume).
    let mk = |p: usize| {
        let prob = MmmProblem::new(512, 512, 512, p, 1 << 16);
        cosma_plan(&prob, &CosmaConfig::default(), &model()).unwrap().mean_comm_words()
    };
    let p8 = mk(8);
    let p64 = mk(64);
    assert!(p64 < p8, "p=64 volume {p64} must undercut p=8 volume {p8}");
}
