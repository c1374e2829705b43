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
//!
//! A plan is produced as a *rank stream* — its [`RankPlan`]s in rank order,
//! then its [`PlanHeader`] — and the two judgements passed on it are folds
//! over that stream: [`Coverage`] and [`Scoring`] absorb one rank at a time
//! and hold nothing of it afterwards. [`DistPlan::collect`] stores a stream;
//! [`DistPlan::validate_coverage`] and [`DistPlan::simulate`] are the same
//! folds over the stored ranks, so a candidate the auto-planner only streams
//! is judged by the arithmetic that judges a materialized plan. A rank's
//! rounds are stored as runs of equal rounds ([`Rounds`]), and every fold
//! reads them a run at a time.

use std::collections::HashSet;

use mpsim::cost::{percent_peak, simulate_rounds, CostModel, RoundCost, TimeBreakdown};
use mpsim::stats::RankStats;

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

/// A brick as its row, column and k ranges, indexable by axis.
type Box3 = [std::ops::Range<usize>; 3];

/// The eight corner points of a box.
fn corners([rows, cols, ks]: &Box3) -> [[usize; 3]; 8] {
    let end = |r: &std::ops::Range<usize>, far: usize| if far == 0 { r.start } else { r.end };
    std::array::from_fn(|c| [end(rows, c & 4), end(cols, c & 2), end(ks, c & 1)])
}

/// Push `b` onto `stack`, then fuse the top two boxes for as long as they are
/// equal on two axes and end to end on the third: such a pair is disjoint and
/// its union is a box, so the stack goes on covering every point exactly as
/// often as the boxes pushed onto it.
fn push_fused(stack: &mut Vec<Box3>, b: Box3) {
    stack.push(b);
    while let [.., below, top] = stack.as_mut_slice() {
        let fuses_along = |x: usize| {
            (below[x].end == top[x].start || top[x].end == below[x].start)
                && (0..3).all(|y| y == x || below[y] == top[y])
        };
        let Some(x) = (0..3).find(|&x| fuses_along(x)) else {
            return;
        };
        below[x] = below[x].start.min(top[x].start)..below[x].end.max(top[x].end);
        stack.pop();
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

/// A round repeated `count` times in a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The round.
    pub round: Round,
    /// How many times in a row it comes; never zero in a [`Rounds`].
    pub count: u64,
}

/// A rank's rounds in execution order, stored as runs of equal rounds.
///
/// The paper's schedules repeat one step many times (§5–§6), and after grid
/// fitting (§7.1) a rank's step sequence is that step over and over, give or
/// take a remainder: thousands of rounds are a handful of runs. A `Rounds`
/// comes out of a [`RoundsBuilder`] and holds its runs in an exact-size
/// slice. The runs are canonical — none empty, no two neighbours equal — so
/// two `Rounds` are equal exactly when their round sequences are.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rounds {
    runs: Box<[Run]>,
}

impl Rounds {
    /// The runs in execution order. A fold over a rank's rounds reads them a
    /// run at a time: a sum is the run's count times its round's value.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Every round in execution order, each run's round `count` times; its
    /// `len()` is the number of rounds.
    pub fn iter(&self) -> RoundsIter<'_> {
        RoundsIter {
            runs: &self.runs,
            taken: 0,
            left: self.runs.iter().map(|run| run.count as usize).sum(),
        }
    }
}

/// A planner's rounds as it plans them, one rank after another: `push`
/// appends a round, `take` hands the rank's runs out as a [`Rounds`] and
/// leaves the builder empty for the next rank. Its buffer is kept, so a
/// rank costs one allocation, of exactly its runs.
#[derive(Debug, Default)]
pub struct RoundsBuilder {
    runs: Vec<Run>,
}

impl RoundsBuilder {
    /// Append `round`: it lengthens the last run if it equals its round.
    #[inline]
    pub fn push(&mut self, round: Round) {
        match self.runs.last_mut() {
            Some(last) if last.round == round => last.count += 1,
            _ => self.runs.push(Run { round, count: 1 }),
        }
    }

    /// The rounds pushed since the last `take`.
    pub fn take(&mut self) -> Rounds {
        let rounds = Rounds {
            runs: self.runs.as_slice().into(),
        };
        self.runs.clear();
        rounds
    }
}

impl Extend<Round> for RoundsBuilder {
    fn extend<I: IntoIterator<Item = Round>>(&mut self, rounds: I) {
        for round in rounds {
            self.push(round);
        }
    }
}

impl<'a> IntoIterator for &'a Rounds {
    type Item = &'a Round;
    type IntoIter = RoundsIter<'a>;

    fn into_iter(self) -> RoundsIter<'a> {
        self.iter()
    }
}

/// The rounds of a [`Rounds`] in execution order, by reference.
#[derive(Debug, Clone)]
pub struct RoundsIter<'a> {
    /// The runs not yet finished; the first one is under way.
    runs: &'a [Run],
    /// Rounds of `runs[0]` already yielded.
    taken: u64,
    /// Rounds not yet yielded.
    left: usize,
}

impl<'a> Iterator for RoundsIter<'a> {
    type Item = &'a Round;

    #[inline]
    fn next(&mut self) -> Option<&'a Round> {
        let (run, rest) = self.runs.split_first()?;
        self.taken += 1;
        if self.taken == run.count {
            self.runs = rest;
            self.taken = 0;
        }
        self.left -= 1;
        Some(&run.round)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RoundsIter<'_> {}

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
    pub rounds: Rounds,
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
            rounds: Rounds::default(),
            mem_words: 0,
        }
    }

    /// Total words this rank receives over the whole execution — the paper's
    /// "communication volume per rank".
    pub fn comm_words(&self) -> u64 {
        self.sum_over_rounds(Round::words)
    }

    /// Total messages received.
    pub fn comm_msgs(&self) -> u64 {
        self.sum_over_rounds(|r| r.msgs)
    }

    /// Multiplication volume of this rank's bricks.
    pub fn volume(&self) -> u64 {
        self.bricks.iter().map(Brick::volume).sum()
    }

    /// Flops across rounds (multiplications + reduction adds).
    pub fn flops(&self) -> u64 {
        self.sum_over_rounds(|r| r.flops)
    }

    /// `value` summed over every round, a run at a time.
    fn sum_over_rounds(&self, value: impl Fn(&Round) -> u64) -> u64 {
        self.rounds.runs().iter().map(|run| run.count * value(&run.round)).sum()
    }

    /// One pass over the runs: the planned time and the words received.
    fn time_and_words(&self, model: &CostModel, overlap: bool) -> (TimeBreakdown, u64) {
        let mut words = 0u64;
        let runs = self.rounds.runs().iter().map(|&Run { round: r, count }| {
            let received = r.words();
            words += count * received;
            let cost = RoundCost {
                words: received,
                msgs: r.msgs,
                flops: r.flops,
            };
            (cost, count)
        });
        let time = simulate_rounds(runs, model, overlap);
        (time, words)
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

    /// The first rank whose measured received words or messages (`stats`,
    /// indexed by rank) differ from its plan's; `None` when the execution
    /// was plan-exact — the reproduction's central consistency contract.
    ///
    /// A rank without stats (`stats` shorter than the plan) deviates: what
    /// was not measured was not shown to be plan-exact.
    pub fn deviating_rank(&self, stats: &[RankStats]) -> Option<usize> {
        self.ranks.iter().enumerate().position(|(rank, r)| {
            stats
                .get(rank)
                .is_none_or(|st| st.total_recv() != r.comm_words() || st.msgs_recv != r.comm_msgs())
        })
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
    /// check. Memory-oblivious baselines (SUMMA, 2.5D) can
    /// legitimately exceed the per-rank budget that COSMA and DFS-streaming
    /// CARMA respect; the experiment harness reports their footprint
    /// separately instead of rejecting the plan.
    ///
    /// The check is the [`Coverage`] fold over the stored ranks: exact at
    /// every brick count, expected O(B) time for B bricks; only a plan that
    /// fails it pays the pairwise search that names the overlapping ranks.
    pub fn validate_coverage(&self) -> Result<(), PlanError> {
        let mut coverage = Coverage::new(&self.problem);
        for r in &self.ranks {
            coverage.absorb(r);
        }
        match coverage.finish()? {
            Tiling::Exact => Ok(()),
            Tiling::Overlapping => Err(self.first_overlap()),
        }
    }

    /// The first pair of ranks whose bricks share a point, for a plan whose
    /// [`Coverage`] came out [`Tiling::Overlapping`].
    fn first_overlap(&self) -> PlanError {
        let bricks: Vec<(usize, &Brick)> = self
            .ranks
            .iter()
            .flat_map(|r| r.bricks.iter().filter(|b| b.volume() > 0).map(move |b| (r.rank, b)))
            .collect();
        for (i, (ra, ba)) in bricks.iter().enumerate() {
            for (rb, bb) in &bricks[i + 1..] {
                if ba.intersects(bb) {
                    return PlanError::Overlap { a: *ra, b: *rb };
                }
            }
        }
        unreachable!("bricks with the domain's volume that do not tile it must overlap")
    }

    /// Evaluate the plan under `model` — the [`Scoring`] fold over the stored
    /// ranks: per-rank pipelined (or back-to-back) round times; machine time
    /// is the slowest rank; %-peak counts all `p` ranks including idle ones
    /// (idle ranks waste peak, as in Figure 5).
    pub fn simulate(&self, model: &CostModel, overlap: bool) -> SimReport {
        let mut scoring = Scoring::new(model, overlap);
        for r in &self.ranks {
            scoring.absorb(r);
        }
        scoring.finish(&self.problem)
    }

    /// Store a rank stream: run `stream` with a sink that keeps every rank
    /// it is handed, and put the header it returns on top. Every planner's
    /// `plan` is this around its `plan_ranks`.
    pub fn collect(
        stream: impl FnOnce(&mut dyn FnMut(RankPlan)) -> Result<PlanHeader, PlanError>,
    ) -> Result<DistPlan, PlanError> {
        let mut ranks = Vec::new();
        let header = stream(&mut |r| ranks.push(r))?;
        Ok(DistPlan {
            algo: header.algo,
            problem: header.problem,
            grid: header.grid,
            ranks,
        })
    }
}

/// What a [`DistPlan`] holds besides its ranks — what a rank stream ends
/// with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanHeader {
    /// The algorithm that produced the plan.
    pub algo: AlgoId,
    /// The problem instance.
    pub problem: MmmProblem,
    /// The processor grid actually used (algorithm-specific meaning).
    pub grid: [usize; 3],
}

/// What a [`Coverage`] fold found once every rank was absorbed and the
/// bricks' volumes added up to the domain's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tiling {
    /// Every point of the iteration space lies in exactly one brick.
    Exact,
    /// Some point is covered twice (and, the volumes being equal, another
    /// not at all). Which ranks collide only the bricks themselves can say:
    /// [`DistPlan::validate_coverage`] on the collected plan names them.
    Overlapping,
}

/// The coverage check as a fold over a rank stream: do the bricks tile the
/// iteration space exactly? It keeps a handful of fused boxes, never a rank.
#[derive(Debug)]
pub struct Coverage {
    prob: MmmProblem,
    /// The first rank with a brick outside the iteration space; nothing is
    /// absorbed after it.
    out_of_bounds: Option<usize>,
    covered: u64,
    // The bricks folded into fewer boxes that cover every point exactly as
    // often (see `push_fused`): each rank's own, in sequence — a run of
    // k-panels becomes its column — and then, in `phases[j]`, the j-th box
    // every rank is left with — ranks listed in a grid's or a recursive
    // bisection's order become lines, planes and then the whole sub-problem
    // they share at step j.
    phases: Vec<Vec<Box3>>,
    stack: Vec<Box3>,
}

impl Coverage {
    /// A fold over the ranks of a plan for `prob`.
    pub fn new(prob: &MmmProblem) -> Self {
        Coverage {
            prob: *prob,
            out_of_bounds: None,
            covered: 0,
            phases: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Take in the next rank's bricks.
    pub fn absorb(&mut self, r: &RankPlan) {
        if self.out_of_bounds.is_some() {
            return;
        }
        let prob = &self.prob;
        for b in &r.bricks {
            if b.rows.end > prob.m || b.cols.end > prob.n || b.ks.end > prob.k {
                self.out_of_bounds = Some(r.rank);
                return;
            }
            if b.volume() > 0 {
                self.covered += b.volume();
                push_fused(&mut self.stack, [b.rows.clone(), b.cols.clone(), b.ks.clone()]);
            }
        }
        for (j, b) in self.stack.drain(..).enumerate() {
            if j == self.phases.len() {
                self.phases.push(Vec::new());
            }
            push_fused(&mut self.phases[j], b);
        }
    }

    /// The verdict over every rank absorbed.
    ///
    /// # Errors
    /// [`PlanError::OutOfBounds`] for the first rank with a brick outside
    /// the iteration space, else [`PlanError::BadCoverage`] when the bricks'
    /// volumes do not add up to the domain's.
    pub fn finish(self) -> Result<Tiling, PlanError> {
        let Coverage {
            prob,
            out_of_bounds,
            covered,
            phases,
            mut stack,
        } = self;
        if let Some(rank) = out_of_bounds {
            return Err(PlanError::OutOfBounds { rank });
        }
        if covered != prob.volume() {
            return Err(PlanError::BadCoverage {
                covered,
                required: prob.volume(),
            });
        }
        for b in phases.into_iter().flatten() {
            push_fused(&mut stack, b);
        }
        // What is left — the domain alone, or a few hundred boxes of a
        // layered grid — is checked whatever its shape. Differencing the
        // boxes' summed indicator function along all three axes leaves ±1 at
        // each box's corners and nothing else, and a function of bounded
        // support is determined by that difference. So, modulo 2: the points
        // that are a corner of an odd number of boxes are the domain's own
        // eight corners exactly when every point of the domain lies in an
        // odd number of boxes (and every point outside in none — the bricks
        // are in bounds). Odd is at least once, and with the volumes summing
        // to the domain's, at least once everywhere is exactly once
        // everywhere.
        let mut odd: HashSet<[usize; 3]> = HashSet::new();
        for corner in stack.iter().flat_map(corners) {
            if !odd.remove(&corner) {
                odd.insert(corner);
            }
        }
        let domain = corners(&[0..prob.m, 0..prob.n, 0..prob.k]);
        // (A domain without volume has no corners to find and no bricks.)
        if covered == 0 || (odd.len() == domain.len() && domain.iter().all(|corner| odd.contains(corner))) {
            Ok(Tiling::Exact)
        } else {
            Ok(Tiling::Overlapping)
        }
    }
}

/// The α-β-γ evaluation as a fold over a rank stream: one pass over each
/// rank's rounds, then the slowest rank and the word totals of all of them.
/// Ranks are absorbed in rank order, so the maximum keeps the earliest of
/// equally slow ranks and every sum adds in the order a stored plan's would.
#[derive(Debug)]
pub struct Scoring {
    model: CostModel,
    overlap: bool,
    time_s: f64,
    critical: TimeBreakdown,
    max_comm_words: u64,
    total_comm_words: u64,
    ranks: usize,
}

impl Scoring {
    /// A fold under `model`, with or without communication overlap (§7.3).
    pub fn new(model: &CostModel, overlap: bool) -> Self {
        Scoring {
            model: *model,
            overlap,
            time_s: 0.0,
            critical: TimeBreakdown::default(),
            max_comm_words: 0,
            total_comm_words: 0,
            ranks: 0,
        }
    }

    /// Take in the next rank's rounds.
    pub fn absorb(&mut self, r: &RankPlan) {
        let (t, words) = r.time_and_words(&self.model, self.overlap);
        if t.total_s() > self.time_s {
            self.time_s = t.total_s();
            self.critical = t;
        }
        self.max_comm_words = self.max_comm_words.max(words);
        self.total_comm_words += words;
        self.ranks += 1;
    }

    /// The report over every rank absorbed, for a plan of `prob`.
    pub fn finish(self, prob: &MmmProblem) -> SimReport {
        SimReport {
            time_s: self.time_s,
            percent_peak: percent_peak(prob.flops(), prob.p, self.time_s, &self.model),
            critical: self.critical,
            max_comm_words: self.max_comm_words,
            mean_comm_words: if self.ranks == 0 {
                0.0
            } else {
                self.total_comm_words as f64 / self.ranks as f64
            },
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
            rounds: {
                let mut rounds = RoundsBuilder::default();
                for _ in 0..2 {
                    rounds.push(Round {
                        a_words: 8,
                        b_words: 16,
                        c_words: 0,
                        msgs: 2,
                        flops: 64,
                    });
                }
                rounds.take()
            },
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
        assert_eq!(plan.ranks[0].comm_msgs(), 4);
        assert_eq!(plan.ranks[0].volume(), 32);
        assert_eq!(plan.ranks[0].flops(), 128);
        // Its two equal rounds are one run.
        assert_eq!(plan.ranks[0].rounds.runs().len(), 1);
        assert_eq!(plan.ranks[0].rounds.iter().len(), 2);
    }

    #[test]
    fn runs_cost_no_more_than_a_vector_of_rounds() {
        use std::mem::size_of;
        // The handle is no bigger than the `Vec<Round>` it replaced, and a
        // round that repeats nothing costs one count more.
        assert!(size_of::<Rounds>() <= size_of::<Vec<Round>>());
        assert!(size_of::<Run>() <= size_of::<Round>() + 8);
    }

    #[test]
    fn deviating_rank_names_the_first_rank_off_its_plan() {
        let plan = simple_plan();
        let measured = |r: &RankPlan| {
            let mut st = RankStats {
                msgs_recv: r.comm_msgs(),
                ..RankStats::default()
            };
            st.words_recv[0] = r.comm_words();
            st
        };
        let mut stats: Vec<RankStats> = plan.ranks.iter().map(measured).collect();
        assert_eq!(plan.deviating_rank(&stats), None);
        stats[1].msgs_recv += 1;
        assert_eq!(plan.deviating_rank(&stats), Some(1));
        stats[0].words_recv[1] += 1;
        assert_eq!(plan.deviating_rank(&stats), Some(0));
        // A rank nobody measured is not plan-exact: the first one off the
        // end of a short slice deviates.
        assert_eq!(plan.deviating_rank(&[]), Some(0));
        let exact: Vec<RankStats> = plan.ranks.iter().map(measured).collect();
        assert_eq!(plan.deviating_rank(&exact[..1]), Some(1));
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

    /// `g³` unit-cube bricks tiling a `g × g × g` domain, one rank each.
    fn cube_plan(g: usize) -> DistPlan {
        let ranks = (0..g * g * g)
            .map(|rank| {
                let (i, j, t) = (rank / (g * g), rank / g % g, rank % g);
                RankPlan {
                    bricks: vec![brick(i..i + 1, j..j + 1, t..t + 1)],
                    active: true,
                    ..RankPlan::idle(rank)
                }
            })
            .collect();
        DistPlan {
            algo: AlgoId::Cosma,
            problem: MmmProblem::new(g, g, g, g * g * g, 1000),
            grid: [g, g, g],
            ranks,
        }
    }

    #[test]
    fn validate_is_exact_past_4096_bricks() {
        // 17³ = 4913 bricks: past the brick count up to which all pairs used
        // to be tested, where 64 sampled points stood in for the check.
        let mut plan = cube_plan(17);
        assert_eq!(plan.validate(), Ok(()));
        // Shift one brick by a unit: it now doubles its row-neighbour's cell
        // and leaves its own empty. Volume, bounds and every one of the 64
        // points the sampled check looked at are as before.
        let (shifted, doubled) = (5 * 289 + 7 * 17 + 11, 6 * 289 + 7 * 17 + 11);
        assert_eq!(plan.ranks[shifted].bricks[0], brick(5..6, 7..8, 11..12));
        plan.ranks[shifted].bricks[0].rows = 6..7;
        assert_eq!(
            plan.validate(),
            Err(PlanError::Overlap {
                a: shifted,
                b: doubled
            })
        );
    }

    #[test]
    fn validate_ignores_empty_bricks() {
        // The parent's pairwise test called an empty brick inside another
        // one an overlap.
        let mut plan = simple_plan();
        plan.ranks[1].bricks.push(brick(1..1, 0..4, 0..4));
        assert_eq!(plan.validate_coverage(), Ok(()));
    }

    /// Five bricks around a centre one, no two of which make a box together,
    /// so nothing folds and the corner count decides alone.
    fn pinwheel_plan() -> DistPlan {
        let mut plan = simple_plan();
        plan.problem = MmmProblem::new(3, 3, 4, 2, 1000);
        plan.ranks[0].bricks = vec![
            brick(0..1, 0..2, 0..4),
            brick(0..2, 2..3, 0..4),
            brick(2..3, 1..3, 0..4),
        ];
        plan.ranks[1].bricks = vec![brick(1..3, 0..1, 0..4), brick(1..2, 1..2, 0..4)];
        plan
    }

    #[test]
    fn validate_accepts_a_tiling_that_does_not_fold() {
        assert_eq!(pinwheel_plan().validate_coverage(), Ok(()));
    }

    #[test]
    fn validate_rejects_equal_volume_with_an_overlap_and_a_hole() {
        // The centre brick moved onto rank 0's second: volume 36 as before.
        let mut plan = pinwheel_plan();
        plan.ranks[1].bricks[1] = brick(0..1, 2..3, 0..4);
        assert_eq!(plan.validate_coverage(), Err(PlanError::Overlap { a: 0, b: 1 }));
        // Two k-halves that fold into one column, over a second copy of it.
        let mut plan = simple_plan();
        plan.ranks[0].bricks = vec![brick(0..2, 0..4, 0..2), brick(0..2, 0..4, 2..4)];
        plan.ranks[1].bricks = vec![brick(0..2, 0..4, 0..4)];
        assert_eq!(plan.validate_coverage(), Err(PlanError::Overlap { a: 0, b: 1 }));
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
