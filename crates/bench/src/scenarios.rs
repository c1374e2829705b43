//! The paper's benchmark scenarios (§8): four matrix shapes × three memory
//! regimes, with a Piz-Daint-like per-core memory `S`.
//!
//! * **strong scaling** — fixed problem, growing `p`;
//! * **limited memory** — `pS/I = const` (`I = mn + mk + nk`): the problem
//!   grows with `p` so the input footprint per core stays fixed and no
//!   redundant input copies fit;
//! * **extra memory** — `p^(2/3)·S/I = const`: the footprint per core
//!   *shrinks* with `p`, leaving room for `~p^(1/3)` replicas.
//!
//! The tall-and-skinny dimensions derive from the paper's RPA benchmark
//! (`m = n = 136w`, `k = 228w²`). The largeK scaling-law coefficients below
//! reconstruct the figure captions (`m = n = 979·p^(1/3)`,
//! `k ≈ 1.184·10⁴·p^(2/3)`; the 10⁴ scale is implicit in the paper's text
//! but follows from the strong-scaling instance at `p = 2048`).

use cosma::api::RunSession;
use cosma::problem::{MmmProblem, Shape};
use mpsim::cost::CostModel;

/// Piz-Daint-like per-core memory: 64 GiB per 36-core node in 8-byte words.
pub const S_WORDS: usize = 64 * 1024 * 1024 * 1024 / 36 / 8;

/// Memory regime of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Fixed problem size.
    StrongScaling,
    /// `pS/I` constant.
    LimitedMemory,
    /// `p^(2/3)·S/I` constant.
    ExtraMemory,
}

/// One of the paper's twelve benchmark scenarios.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Short id: `square-strong`, `largek-limited`, …
    pub id: &'static str,
    /// Matrix shape class.
    pub shape: Shape,
    /// Memory regime.
    pub regime: Regime,
    /// Build the problem instance for `p` cores.
    pub problem: fn(usize) -> MmmProblem,
}

impl Scenario {
    /// A [`RunSession`] for this scenario at `p` cores: Piz-Daint-like cost
    /// model, full four-algorithm registry. Chain `.algorithm(..)` and
    /// `.run()` to evaluate.
    pub fn session(&self, p: usize) -> RunSession {
        RunSession::new((self.problem)(p))
            .machine(CostModel::piz_daint_two_sided())
            .registry(baselines::registry())
    }
}

fn isqrt(x: f64) -> usize {
    x.sqrt().floor().max(1.0) as usize
}

// --- square ---------------------------------------------------------------

fn square_strong(p: usize) -> MmmProblem {
    MmmProblem::new(16_384, 16_384, 16_384, p, S_WORDS)
}

fn square_limited(p: usize) -> MmmProblem {
    // n = sqrt(pS/3): the three matrices exactly fill the collective memory.
    let n = isqrt(p as f64 * S_WORDS as f64 / 3.0);
    MmmProblem::new(n, n, n, p, S_WORDS)
}

fn square_extra(p: usize) -> MmmProblem {
    let n = isqrt((p as f64).powf(2.0 / 3.0) * S_WORDS as f64 / 3.0);
    MmmProblem::new(n, n, n, p, S_WORDS)
}

// --- largeK (the RPA tall-and-skinny shape) --------------------------------

fn largek_strong(p: usize) -> MmmProblem {
    MmmProblem::rpa_water(128, p, S_WORDS)
}

fn largek_limited(p: usize) -> MmmProblem {
    let mn = (979.0 * (p as f64).cbrt()) as usize;
    let k = (1.184e4 * (p as f64).powf(2.0 / 3.0)) as usize;
    MmmProblem::new(mn.max(1), mn.max(1), k.max(1), p, S_WORDS)
}

fn largek_extra(p: usize) -> MmmProblem {
    let mn = (979.0 * (p as f64).powf(2.0 / 9.0)) as usize;
    let k = (1.184e4 * (p as f64).powf(4.0 / 9.0)) as usize;
    MmmProblem::new(mn.max(1), mn.max(1), k.max(1), p, S_WORDS)
}

// --- largeM (mirror of largeK) ----------------------------------------------

fn largem_strong(p: usize) -> MmmProblem {
    MmmProblem::new(3_735_552, 17_408, 17_408, p, S_WORDS)
}

fn largem_limited(p: usize) -> MmmProblem {
    let nk = (979.0 * (p as f64).cbrt()) as usize;
    let m = (1.184e4 * (p as f64).powf(2.0 / 3.0)) as usize;
    MmmProblem::new(m.max(1), nk.max(1), nk.max(1), p, S_WORDS)
}

fn largem_extra(p: usize) -> MmmProblem {
    let nk = (979.0 * (p as f64).powf(2.0 / 9.0)) as usize;
    let m = (1.184e4 * (p as f64).powf(4.0 / 9.0)) as usize;
    MmmProblem::new(m.max(1), nk.max(1), nk.max(1), p, S_WORDS)
}

// --- flat (rank-k update) ---------------------------------------------------

fn flat_strong(p: usize) -> MmmProblem {
    MmmProblem::new(131_072, 131_072, 512, p, S_WORDS)
}

fn flat_limited(p: usize) -> MmmProblem {
    let n = isqrt(p as f64 * S_WORDS as f64 / 3.0);
    MmmProblem::new(n, n, 256, p, S_WORDS)
}

fn flat_extra(p: usize) -> MmmProblem {
    let n = isqrt((p as f64).powf(2.0 / 3.0) * S_WORDS as f64 / 3.0);
    MmmProblem::new(n, n, 256, p, S_WORDS)
}

/// All twelve scenarios of the paper's evaluation.
pub fn all() -> Vec<Scenario> {
    use Regime::*;
    vec![
        Scenario {
            id: "square-strong",
            shape: Shape::Square,
            regime: StrongScaling,
            problem: square_strong,
        },
        Scenario {
            id: "square-limited",
            shape: Shape::Square,
            regime: LimitedMemory,
            problem: square_limited,
        },
        Scenario {
            id: "square-extra",
            shape: Shape::Square,
            regime: ExtraMemory,
            problem: square_extra,
        },
        Scenario {
            id: "largek-strong",
            shape: Shape::LargeK,
            regime: StrongScaling,
            problem: largek_strong,
        },
        Scenario {
            id: "largek-limited",
            shape: Shape::LargeK,
            regime: LimitedMemory,
            problem: largek_limited,
        },
        Scenario {
            id: "largek-extra",
            shape: Shape::LargeK,
            regime: ExtraMemory,
            problem: largek_extra,
        },
        Scenario {
            id: "largem-strong",
            shape: Shape::LargeM,
            regime: StrongScaling,
            problem: largem_strong,
        },
        Scenario {
            id: "largem-limited",
            shape: Shape::LargeM,
            regime: LimitedMemory,
            problem: largem_limited,
        },
        Scenario {
            id: "largem-extra",
            shape: Shape::LargeM,
            regime: ExtraMemory,
            problem: largem_extra,
        },
        Scenario {
            id: "flat-strong",
            shape: Shape::Flat,
            regime: StrongScaling,
            problem: flat_strong,
        },
        Scenario {
            id: "flat-limited",
            shape: Shape::Flat,
            regime: LimitedMemory,
            problem: flat_limited,
        },
        Scenario {
            id: "flat-extra",
            shape: Shape::Flat,
            regime: ExtraMemory,
            problem: flat_extra,
        },
    ]
}

/// Look up a scenario by id.
pub fn by_id(id: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.id == id)
}

/// The core counts of the communication-volume figures (Figures 6–7).
pub fn comm_core_counts() -> Vec<usize> {
    vec![128, 256, 512, 1024, 2048]
}

/// Realistic allocation sizes for the topology experiment: whole Piz Daint
/// XC40 nodes (36 cores each — 2×18-core Xeons, the machine behind
/// [`mpsim::cost::CostModel::piz_daint_two_sided`]) at natural node counts.
/// None is a power of two or a perfect `g²·c`, which is the paper's §1
/// point: real allocations rarely match the baselines' rank-count
/// requirements, so CARMA pads down to a power of two (idling up to half
/// the machine) and 2.5D pads to its nearest grid, while COSMA decomposes
/// any `p` exactly.
pub fn allocation_core_counts() -> Vec<usize> {
    // 6, 12, 24, 48 and 96 nodes of 36 cores.
    vec![216, 432, 864, 1728, 3456]
}

/// End-to-end executable instances of the four shape classes: the same
/// shapes as the paper scenarios, scaled so the full matrices fit in one
/// test process while `p` still reaches paper-like rank counts. The record's
/// executed `square` and `*-timed` worlds run them with real messages (on
/// one and on two scheduler threads) and hold the measured counters against
/// the plan.
pub fn exec_problem(shape: Shape, p: usize) -> MmmProblem {
    match shape {
        Shape::Square => MmmProblem::new(256, 256, 256, p, 1 << 20),
        Shape::LargeK => MmmProblem::new(64, 64, 4096, p, 1 << 20),
        Shape::LargeM => MmmProblem::new(4096, 64, 64, p, 1 << 20),
        Shape::Flat => MmmProblem::new(512, 512, 32, p, 1 << 20),
        // No pairwise-close dimension pair: classifies as Irregular.
        Shape::Irregular => MmmProblem::new(320, 80, 1024, p, 1 << 20),
    }
}

/// The large-world problem instance at `p` cores: the square executable
/// shape with a per-rank memory small enough that planning stays fast at
/// 100k+ ranks while every rank still owns work. The record's `square-xxl`
/// worlds and the `event_xl` conformance test run it; `benchmark/`'s
/// `cosma-xl` times the same shape at p = 32 768.
pub fn exec_xl_problem(p: usize) -> MmmProblem {
    MmmProblem::new(256, 256, 256, p, 1 << 12)
}

/// A memory-starved executable instance: the square shape with a per-rank
/// `S` small enough that pure-BFS CARMA's leaf working set no longer fits,
/// forcing the sequential DFS prefix. Used by the `mem-sweep` experiment
/// and the bench-smoke gate's budget-enforced conformance case.
pub fn mem_starved_problem(p: usize, mem_words: usize) -> MmmProblem {
    MmmProblem::new(128, 128, 128, p, mem_words)
}

/// The per-rank memory sweep of the `mem-sweep` experiment, ample → starved
/// (words). At p = 64 the pure-BFS leaf footprint of the 128³ instance is
/// 3072 words, so the lower budgets force 2, 4 and 8 sequential DFS leaves
/// — the paper's limited-memory regime in executable miniature.
pub fn mem_sweep_budgets() -> Vec<usize> {
    vec![1 << 14, 1 << 12, 3072, 2048, 1280, 1 << 10]
}

/// The core counts of the `timed` experiment (planned-vs-measured virtual
/// time): one small world, one at the paper's mid range, and one
/// only the event executor can hold — every count a power of two and a
/// perfect square, so the whole COSMA / SUMMA / 2.5D / CARMA comparison
/// matrix runs at each.
pub fn timed_core_counts() -> Vec<usize> {
    vec![64, 1024, 16_384]
}

/// The core counts of the performance figures (Figures 8–11), including
/// non-powers-of-two to expose decomposition instability.
pub fn perf_core_counts() -> Vec<usize> {
    vec![256, 512, 1000, 1024, 2048, 3072, 4096, 6000, 9216, 16384, 18432]
}

/// largeK/largeM strong scaling needs at least 2048 cores for the inputs to
/// fit, like the paper (§9, "the minimum number of cores is 2048").
pub fn strong_scaling_min_cores(s: &Scenario) -> usize {
    match (s.shape, s.regime) {
        (Shape::LargeK | Shape::LargeM, Regime::StrongScaling) => 2048,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_scenarios_with_right_shapes() {
        let s = all();
        assert_eq!(s.len(), 12);
        for sc in &s {
            let prob = (sc.problem)(2048);
            assert_eq!(prob.shape(), sc.shape, "{}", sc.id);
            assert!(prob.fits_collective_memory(), "{} does not fit at p=2048", sc.id);
        }
    }

    #[test]
    fn limited_memory_keeps_footprint_per_core_constant() {
        let sc = by_id("square-limited").unwrap();
        let footprint = |p: usize| {
            let prob = (sc.problem)(p);
            let (a, b, c) = prob.matrix_words();
            (a + b + c) as f64 / p as f64
        };
        let f1 = footprint(512);
        let f2 = footprint(4096);
        assert!((f1 / f2 - 1.0).abs() < 0.02, "{f1} vs {f2}");
    }

    #[test]
    fn extra_memory_footprint_shrinks_per_core() {
        let sc = by_id("largek-extra").unwrap();
        let footprint = |p: usize| {
            let prob = (sc.problem)(p);
            let (a, b, c) = prob.matrix_words();
            (a + b + c) as f64 / p as f64
        };
        assert!(footprint(4096) < footprint(512) * 0.6);
    }

    #[test]
    fn strong_scaling_instances_fixed() {
        let sc = by_id("largek-strong").unwrap();
        let p1 = (sc.problem)(2048);
        let p2 = (sc.problem)(18432);
        assert_eq!((p1.m, p1.n, p1.k), (p2.m, p2.n, p2.k));
        assert_eq!(p1.m, 17_408);
        assert_eq!(p1.k, 3_735_552);
    }

    #[test]
    fn sessions_plan_through_the_registry() {
        use cosma::api::AlgoId;
        let sc = by_id("square-strong").unwrap();
        let outcome = sc.session(512).algorithm(AlgoId::Summa).run().unwrap();
        assert_eq!(outcome.plan.algo, AlgoId::Summa);
        assert!(outcome.report.time_s > 0.0);
    }

    #[test]
    fn exec_problems_classify_and_fit() {
        for shape in [
            Shape::Square,
            Shape::LargeK,
            Shape::LargeM,
            Shape::Flat,
            Shape::Irregular,
        ] {
            // Every world size the record executes them at.
            for p in [64, 256, 512, 1024, 16_384] {
                let prob = exec_problem(shape, p);
                assert_eq!(prob.shape(), shape, "{shape:?} at p={p}");
                assert!(prob.fits_collective_memory(), "{shape:?} at p={p}");
            }
        }
    }

    #[test]
    fn mem_sweep_spans_both_regimes() {
        let budgets = scenarios_sorted();
        let leaf_counts: Vec<usize> = budgets
            .iter()
            .map(|&s| baselines::carma::dfs_leaf_count(&mem_starved_problem(64, s)))
            .collect();
        // Ample budgets stay pure-BFS; the starved end forces DFS leaves.
        assert_eq!(leaf_counts[0], 1, "largest budget must be ample");
        assert!(*leaf_counts.last().unwrap() > 1, "smallest budget must starve");
        // Monotone: shrinking S never removes DFS steps.
        assert!(leaf_counts.windows(2).all(|w| w[0] <= w[1]), "{leaf_counts:?}");
    }

    fn scenarios_sorted() -> Vec<usize> {
        let mut budgets = mem_sweep_budgets();
        budgets.sort_unstable_by(|a, b| b.cmp(a));
        budgets
    }

    #[test]
    fn ids_resolve() {
        for sc in all() {
            assert_eq!(by_id(sc.id).unwrap().id, sc.id);
        }
        assert!(by_id("nope").is_none());
    }
}
