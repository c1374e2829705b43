//! Distributed execution plans: per-rank bricks and exact per-round traffic.
//!
//! Every algorithm in this workspace (COSMA and the baselines) materializes a
//! [`DistPlan`]: which brick of the `m × n × k` iteration space each rank
//! computes, and — round by round — exactly how many words and messages it
//! receives for A, B and C. The plan is the single source of truth:
//!
//! * the executors *interpret* the same decomposition with real
//!   messages (integration tests assert measured traffic == plan traffic);
//! * [`DistPlan::simulate`] evaluates the plan under the α-β-γ cost model to
//!   produce the runtimes and %-of-peak numbers of Figures 8–14;
//! * [`DistPlan::validate`] checks the structural invariants the paper's
//!   schedules guarantee: exact tiling of the iteration space, per-rank
//!   memory within `S`, load balance.

use mpsim::cost::{percent_peak, simulate_rounds, CostModel, RoundCost, TimeBreakdown};

use crate::api::AlgoId;
pub use crate::api::PlanError;
use crate::problem::MmmProblem;

/// A rectangular sub-volume of the iteration space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Brick {
    /// Row range (in `0..m`).
    pub rows: std::ops::Range<usize>,
    /// Column range (in `0..n`).
    pub cols: std::ops::Range<usize>,
    /// Inner-dimension range (in `0..k`).
    pub ks: std::ops::Range<usize>,
}

impl Brick {
    /// Number of iteration-space points in the brick.
    pub fn volume(&self) -> u64 {
        self.rows.len() as u64 * self.cols.len() as u64 * self.ks.len() as u64
    }

    /// Do two bricks share at least one point?
    pub fn intersects(&self, other: &Brick) -> bool {
        fn overlap(a: &std::ops::Range<usize>, b: &std::ops::Range<usize>) -> bool {
            a.start < b.end && b.start < a.end
        }
        overlap(&self.rows, &other.rows) && overlap(&self.cols, &other.cols) && overlap(&self.ks, &other.ks)
    }

    /// Does the brick contain the point `(i, j, t)`?
    pub fn contains(&self, i: usize, j: usize, t: usize) -> bool {
        self.rows.contains(&i) && self.cols.contains(&j) && self.ks.contains(&t)
    }
}

/// One communication round of a rank: words/messages received per matrix,
/// and the flops computed with the received data (including reduction adds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Round {
    /// Words of A received.
    pub a_words: u64,
    /// Words of B received.
    pub b_words: u64,
    /// Words of C (partial results) received.
    pub c_words: u64,
    /// Messages received.
    pub msgs: u64,
    /// Flops executed in this round.
    pub flops: u64,
}

impl Round {
    /// Total words received this round.
    pub fn words(&self) -> u64 {
        self.a_words + self.b_words + self.c_words
    }
}

/// The plan of a single rank.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPlan {
    /// Rank id.
    pub rank: usize,
    /// False for ranks idled by grid fitting (§7.1).
    pub active: bool,
    /// Grid coordinates (algorithm-specific meaning; `[0; 3]` if idle).
    pub coords: [usize; 3],
    /// The iteration-space bricks this rank multiplies (usually one).
    pub bricks: Vec<Brick>,
    /// Communication rounds in execution order.
    pub rounds: Vec<Round>,
    /// Peak working-set words (buffers + partial results) the plan requires.
    pub mem_words: u64,
}

impl RankPlan {
    /// An idle rank's plan.
    pub fn idle(rank: usize) -> Self {
        RankPlan {
            rank,
            active: false,
            coords: [0; 3],
            bricks: Vec::new(),
            rounds: Vec::new(),
            mem_words: 0,
        }
    }

    /// Total words this rank receives over the whole execution — the paper's
    /// "communication volume per rank".
    pub fn comm_words(&self) -> u64 {
        self.rounds.iter().map(Round::words).sum()
    }

    /// Total messages received.
    pub fn comm_msgs(&self) -> u64 {
        self.rounds.iter().map(|r| r.msgs).sum()
    }

    /// Multiplication volume of this rank's bricks.
    pub fn volume(&self) -> u64 {
        self.bricks.iter().map(Brick::volume).sum()
    }

    /// Flops across rounds (multiplications + reduction adds).
    pub fn flops(&self) -> u64 {
        self.rounds.iter().map(|r| r.flops).sum()
    }

    /// Convert to the cost-model round representation.
    pub fn round_costs(&self) -> Vec<RoundCost> {
        self.rounds
            .iter()
            .map(|r| RoundCost {
                words: r.words(),
                msgs: r.msgs,
                flops: r.flops,
            })
            .collect()
    }

    /// This rank's *planned* time under `model` — the per-rank number an
    /// event-backend execution's measured `RankStats::time` is held
    /// against.
    pub fn time_breakdown(&self, model: &CostModel, overlap: bool) -> TimeBreakdown {
        simulate_rounds(&self.round_costs(), model, overlap)
    }
}

/// Simulated outcome of a plan under a cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Wall-clock seconds (slowest rank).
    pub time_s: f64,
    /// Percent of machine peak flop/s achieved (Figures 8/10/13/14).
    pub percent_peak: f64,
    /// Time breakdown of the slowest rank.
    pub critical: TimeBreakdown,
    /// Maximum per-rank received words (Figures 6–7).
    pub max_comm_words: u64,
    /// Mean per-rank received words over *all* p ranks (Table 4).
    pub mean_comm_words: f64,
}

/// A complete distributed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DistPlan {
    /// The algorithm that produced the plan.
    pub algo: AlgoId,
    /// The problem instance.
    pub problem: MmmProblem,
    /// The processor grid actually used (algorithm-specific meaning).
    pub grid: [usize; 3],
    /// Per-rank plans, indexed by rank (length = `problem.p`).
    pub ranks: Vec<RankPlan>,
}

impl DistPlan {
    /// Number of non-idle ranks.
    pub fn active_ranks(&self) -> usize {
        self.ranks.iter().filter(|r| r.active).count()
    }

    /// Pad the plan out to a `p`-rank machine by appending idle ranks — the
    /// paper's policy for algorithms whose rank-count constraints exclude
    /// part of the machine (CARMA on non-powers-of-two, §1): the excluded
    /// cores idle and are charged against %-of-peak exactly as the machine
    /// would charge them.
    ///
    /// # Panics
    /// Panics if the plan already has more ranks than `p`.
    pub fn padded_to(mut self, p: usize) -> DistPlan {
        assert!(self.problem.p <= p, "cannot pad a plan down");
        for rank in self.problem.p..p {
            self.ranks.push(RankPlan::idle(rank));
        }
        self.problem.p = p;
        self
    }

    /// Maximum per-rank communication volume (words received).
    pub fn max_comm_words(&self) -> u64 {
        self.ranks.iter().map(RankPlan::comm_words).max().unwrap_or(0)
    }

    /// Mean per-rank communication volume over all `p` ranks.
    pub fn mean_comm_words(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        self.total_comm_words() as f64 / self.ranks.len() as f64
    }

    /// Total received words over all ranks.
    pub fn total_comm_words(&self) -> u64 {
        self.ranks.iter().map(RankPlan::comm_words).sum()
    }

    /// Maximum per-rank latency cost (messages received) — the paper's `L`.
    pub fn max_comm_msgs(&self) -> u64 {
        self.ranks.iter().map(RankPlan::comm_msgs).max().unwrap_or(0)
    }

    /// Structural validation: bricks exactly tile the iteration space, stay
    /// in bounds, and every active rank's working set fits in `S`.
    pub fn validate(&self) -> Result<(), PlanError> {
        self.validate_coverage()?;
        for r in &self.ranks {
            if r.mem_words > self.problem.mem_words as u64 {
                return Err(PlanError::MemoryExceeded {
                    rank: r.rank,
                    need: r.mem_words,
                    have: self.problem.mem_words as u64,
                });
            }
        }
        Ok(())
    }

    /// Coverage-only validation: tiling and bounds, without the memory
    /// check. Memory-oblivious baselines (SUMMA, Cannon, 2.5D) can
    /// legitimately exceed the per-rank budget that COSMA and DFS-streaming
    /// CARMA respect; the experiment harness reports their footprint
    /// separately instead of rejecting the plan.
    pub fn validate_coverage(&self) -> Result<(), PlanError> {
        let prob = &self.problem;
        let mut covered: u64 = 0;
        let mut all_bricks: Vec<(usize, &Brick)> = Vec::new();
        for r in &self.ranks {
            for b in &r.bricks {
                if b.rows.end > prob.m || b.cols.end > prob.n || b.ks.end > prob.k {
                    return Err(PlanError::OutOfBounds { rank: r.rank });
                }
                covered += b.volume();
                all_bricks.push((r.rank, b));
            }
        }
        if covered != prob.volume() {
            return Err(PlanError::BadCoverage {
                covered,
                required: prob.volume(),
            });
        }
        // Pairwise disjointness. With exact total volume, any overlap implies
        // a hole elsewhere, but we check directly when feasible; beyond the
        // quadratic budget we rely on the volume identity plus sampling.
        if all_bricks.len() <= 4096 {
            for (i, (ra, ba)) in all_bricks.iter().enumerate() {
                for (rb, bb) in &all_bricks[i + 1..] {
                    if ba.intersects(bb) {
                        return Err(PlanError::Overlap { a: *ra, b: *rb });
                    }
                }
            }
        } else {
            // Deterministic sample of corner points.
            let probe = |i: usize, j: usize, t: usize| -> usize {
                all_bricks.iter().filter(|(_, b)| b.contains(i, j, t)).count()
            };
            for f in 0..64usize {
                let i = (f * 2654435761) % prob.m;
                let j = (f * 40503) % prob.n;
                let t = (f * 9176) % prob.k;
                if probe(i, j, t) != 1 {
                    return Err(PlanError::BadCoverage {
                        covered,
                        required: prob.volume(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Evaluate the plan under `model`: per-rank pipelined (or back-to-back)
    /// round times; machine time is the slowest rank; %-peak counts all `p`
    /// ranks including idle ones (idle ranks waste peak, as in Figure 5).
    pub fn simulate(&self, model: &CostModel, overlap: bool) -> SimReport {
        let mut worst = TimeBreakdown::default();
        let mut time_s: f64 = 0.0;
        for r in &self.ranks {
            let t = simulate_rounds(&r.round_costs(), model, overlap);
            if t.total_s() > time_s {
                time_s = t.total_s();
                worst = t;
            }
        }
        SimReport {
            time_s,
            percent_peak: percent_peak(self.problem.flops(), self.problem.p, time_s, model),
            critical: worst,
            max_comm_words: self.max_comm_words(),
            mean_comm_words: self.mean_comm_words(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brick(r: std::ops::Range<usize>, c: std::ops::Range<usize>, t: std::ops::Range<usize>) -> Brick {
        Brick {
            rows: r,
            cols: c,
            ks: t,
        }
    }

    fn simple_plan() -> DistPlan {
        // 4x4x4 volume split over 2 ranks along rows.
        let prob = MmmProblem::new(4, 4, 4, 2, 1000);
        let mk_rank = |rank: usize, rows: std::ops::Range<usize>| RankPlan {
            rank,
            active: true,
            coords: [rank, 0, 0],
            bricks: vec![brick(rows, 0..4, 0..4)],
            rounds: vec![
                Round {
                    a_words: 8,
                    b_words: 16,
                    c_words: 0,
                    msgs: 2,
                    flops: 64,
                },
                Round {
                    a_words: 8,
                    b_words: 16,
                    c_words: 0,
                    msgs: 2,
                    flops: 64,
                },
            ],
            mem_words: 100,
        };
        DistPlan {
            algo: AlgoId::Cosma,
            problem: prob,
            grid: [2, 1, 1],
            ranks: vec![mk_rank(0, 0..2), mk_rank(1, 2..4)],
        }
    }

    #[test]
    fn brick_volume_and_intersection() {
        let a = brick(0..2, 0..3, 0..4);
        assert_eq!(a.volume(), 24);
        let b = brick(1..2, 2..5, 3..6);
        assert!(a.intersects(&b));
        let c = brick(2..3, 0..3, 0..4);
        assert!(!a.intersects(&c));
        assert!(a.contains(1, 2, 3));
        assert!(!a.contains(2, 0, 0));
    }

    #[test]
    fn plan_aggregates() {
        let plan = simple_plan();
        assert_eq!(plan.active_ranks(), 2);
        assert_eq!(plan.max_comm_words(), 48);
        assert_eq!(plan.total_comm_words(), 96);
        assert!((plan.mean_comm_words() - 48.0).abs() < 1e-12);
        assert_eq!(plan.max_comm_msgs(), 4);
        assert_eq!(plan.ranks[0].volume(), 32);
        assert_eq!(plan.ranks[0].flops(), 128);
    }

    #[test]
    fn validate_accepts_exact_tiling() {
        assert_eq!(simple_plan().validate(), Ok(()));
    }

    #[test]
    fn validate_detects_hole() {
        let mut plan = simple_plan();
        plan.ranks[1].bricks[0].rows = 2..3; // leaves row 3 uncovered
        assert!(matches!(plan.validate(), Err(PlanError::BadCoverage { .. })));
    }

    #[test]
    fn validate_detects_overlap() {
        let mut plan = simple_plan();
        plan.ranks[1].bricks[0].rows = 1..3; // overlaps row 1, volume 64 again?
                                             // Volume is now 2*32 = 64 = required, but rows 1 overlaps and row 3
                                             // is uncovered -> the pairwise check fires.
        assert!(matches!(
            plan.validate(),
            Err(PlanError::Overlap { .. }) | Err(PlanError::BadCoverage { .. })
        ));
    }

    #[test]
    fn validate_detects_out_of_bounds() {
        let mut plan = simple_plan();
        plan.ranks[1].bricks[0].ks = 0..5;
        assert_eq!(plan.validate(), Err(PlanError::OutOfBounds { rank: 1 }));
    }

    #[test]
    fn validate_detects_memory_blowup() {
        let mut plan = simple_plan();
        plan.ranks[0].mem_words = 10_000;
        assert!(matches!(plan.validate(), Err(PlanError::MemoryExceeded { rank: 0, .. })));
    }

    #[test]
    fn idle_ranks_are_free() {
        let mut plan = simple_plan();
        plan.problem.p = 3;
        plan.ranks.push(RankPlan::idle(2));
        assert_eq!(plan.validate(), Ok(()));
        assert_eq!(plan.active_ranks(), 2);
        assert_eq!(plan.ranks[2].comm_words(), 0);
    }

    #[test]
    fn simulate_reports_positive_time_and_peak() {
        let plan = simple_plan();
        let model = CostModel::piz_daint_two_sided();
        let rep = plan.simulate(&model, false);
        assert!(rep.time_s > 0.0);
        assert!(rep.percent_peak > 0.0 && rep.percent_peak <= 100.0);
        let rep_overlap = plan.simulate(&model, true);
        assert!(rep_overlap.time_s <= rep.time_s);
        assert!(rep_overlap.percent_peak >= rep.percent_peak);
    }

    #[test]
    fn simulate_idle_ranks_lower_percent_peak() {
        let plan = simple_plan();
        let mut with_idle = plan.clone();
        with_idle.problem.p = 4;
        with_idle.ranks.push(RankPlan::idle(2));
        with_idle.ranks.push(RankPlan::idle(3));
        let model = CostModel::piz_daint_two_sided();
        let a = plan.simulate(&model, false);
        let b = with_idle.simulate(&model, false);
        assert!(b.percent_peak < a.percent_peak);
        assert!((b.percent_peak - a.percent_peak / 2.0).abs() < 1e-9);
    }
}
