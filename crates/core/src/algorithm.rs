//! The executable COSMA algorithm (Algorithm 1 of the paper).
//!
//! [`plan_ranks`] produces the full distributed schedule rank by rank ([`plan`]
//! collects it): grid from
//! [`crate::grid::fit_ranks`], per-rank `[l_m × l_n × l_k]` bricks,
//! latency-optimal round structure from [`crate::schedule::latency_steps`],
//! and exact per-round communication volumes (log-depth all-gathers of A
//! along j-fibers and of B along i-fibers — `DistrData` — plus a balanced ring
//! reduce-scatter of C along k-fibers — `Reduce`; the output stays
//! distributed in COSMA's blocked layout, §7.6).
//!
//! [`execute`] interprets the same schedule on an [`mpsim`] machine with real
//! messages and real matrix blocks. The body is a resumable (`async`) rank
//! program over [`RankComm`], so the event executor parks a waiting rank as
//! a stackless state machine: Bruck (log-depth) all-gathers of A and B over
//! tagged sends/receives, then the ring reduce-scatter of C.
//!
//! It moves exactly the words and messages the plan predicts — the
//! integration tests assert equality against the mpiP-style counters.

use densemat::gemm::{gemm_packed, Operand, View};
use densemat::matrix::Matrix;
use mpsim::collectives::{allgather_bruck, allgather_bruck_msgs, even_cut, reduce_scatter_ring};
pub use mpsim::collectives::{even_owner, even_range};
use mpsim::comm::RankComm;
use mpsim::cost::CostModel;
use mpsim::stats::Phase;

use crate::api::{AlgoId, PlanError};
use crate::grid::{fit_ranks, Grid3};
use crate::plan::{Brick, DistPlan, PlanHeader, RankPlan, Round, RoundsBuilder};
use crate::problem::MmmProblem;
use crate::schedule::latency_steps;

/// Tunables of the COSMA run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosmaConfig {
    /// Maximum fraction of ranks grid fitting may idle (paper: 3%).
    pub delta: f64,
}

impl Default for CosmaConfig {
    fn default() -> Self {
        CosmaConfig { delta: 0.03 }
    }
}

/// Build the COSMA [`DistPlan`] for `prob`: [`plan_ranks`], collected.
///
/// Prefer [`crate::api::RunSession`] or [`crate::api::CosmaAlgorithm`]; this
/// free function is the implementation they call.
pub fn plan(prob: &MmmProblem, cfg: &CosmaConfig, model: &CostModel) -> Result<DistPlan, PlanError> {
    DistPlan::collect(|sink| plan_ranks(prob, cfg, model, sink))
}

/// The COSMA plan for `prob` as a rank stream: every rank's plan handed to
/// `sink` in rank order, then the header.
pub fn plan_ranks(
    prob: &MmmProblem,
    cfg: &CosmaConfig,
    model: &CostModel,
    sink: &mut dyn FnMut(RankPlan),
) -> Result<PlanHeader, PlanError> {
    let fit = fit_ranks(prob, cfg.delta, model)?;
    let grid = fit.grid;
    let mut rounds = RoundsBuilder::default();
    for rank in 0..prob.p {
        if rank >= grid.size() {
            sink(RankPlan::idle(rank));
            continue;
        }
        let (im, jn, ik) = grid.coords_of(rank);
        let rows = even_range(prob.m, grid.gm, im);
        let cols = even_range(prob.n, grid.gn, jn);
        let ks = even_range(prob.k, grid.gk, ik);
        let (lm, ln, lk) = (rows.len(), cols.len(), ks.len());
        let sp = latency_steps(lm, ln, lk, prob.mem_words)
            .expect("fit_ranks only returns grids whose ceil domain fits memory");
        // At paper scale a rank can have millions of communication steps;
        // the plan groups consecutive steps into at most MAX_PLAN_ROUNDS
        // buckets. All totals (words, messages, flops) stay exact; only the
        // pipeline granularity of the time model is coarsened.
        let buckets = sp.steps.clamp(1, MAX_PLAN_ROUNDS);
        let per_bucket = sp.steps.div_ceil(buckets);
        let mut max_slab = 0usize;
        // A slab's gathers are Bruck all-gathers along both fibers.
        let bruck_msgs = allgather_bruck_msgs(grid.gn) + allgather_bruck_msgs(grid.gm);
        for chunk in sp.slabs.chunks(per_bucket) {
            let mut acc = Round::default();
            for &w in chunk {
                max_slab = max_slab.max(w);
                // A slab (lm x w): columns owned in balanced chunks along the
                // j-fiber; this rank owns chunk `jn` and receives the rest.
                let a_own_cols = even_range(w, grid.gn, jn).len();
                acc.a_words += (lm * (w - a_own_cols)) as u64;
                // B slab (w x ln): rows owned along the i-fiber.
                let b_own_rows = even_range(w, grid.gm, im).len();
                acc.b_words += ((w - b_own_rows) * ln) as u64;
                acc.msgs += bruck_msgs;
                acc.flops += 2 * (lm * ln * w) as u64;
            }
            rounds.push(acc);
        }
        if grid.gk > 1 {
            // Ring reduce-scatter of the C tile along the k-fiber: every
            // member receives the tile minus its own position's chunk and
            // adds each received word once. C stays distributed in COSMA's
            // blocked layout (§7.6) — no tree-root hotspot.
            let tile = lm * ln;
            let own_chunk = even_range(tile, grid.gk, ik).len();
            let c_words = (tile - own_chunk) as u64;
            rounds.push(Round {
                a_words: 0,
                b_words: 0,
                c_words,
                msgs: (grid.gk - 1) as u64,
                flops: c_words,
            });
        }
        let mem_words = (lm * ln + 2 * max_slab * (lm + ln)) as u64;
        sink(RankPlan {
            rank,
            active: true,
            coords: [im, jn, ik],
            bricks: vec![Brick { rows, cols, ks }],
            rounds: rounds.take(),
            mem_words,
        });
    }
    Ok(PlanHeader {
        algo: AlgoId::Cosma,
        problem: *prob,
        grid: [grid.gm, grid.gn, grid.gk],
    })
}

/// Maximum number of plan rounds per rank; longer step sequences are grouped
/// (totals exact, pipeline granularity coarsened).
pub const MAX_PLAN_ROUNDS: usize = 4096;

/// Tag layout: rounds are spaced widely enough that the ring steps of
/// adjacent rounds and matrices can never collide.
const TAG_STRIDE: u64 = 1 << 16;
const REDUCE_TAG: u64 = u64::MAX / 2;

/// A rank's share of the output: its C tile region and — when the k-fiber
/// reduce-scattered the tile — the owned slice of the flattened
/// (row-major) tile. [`assemble_c`] recombines shares into a full matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CPart {
    /// Tile rows in C.
    pub rows: std::ops::Range<usize>,
    /// Tile cols in C.
    pub cols: std::ops::Range<usize>,
    /// Word offset of the owned slice within the flattened tile.
    pub offset: usize,
    /// The owned, fully reduced words.
    pub data: Vec<f64>,
}

/// Assemble a full `m × n` C matrix from the ranks' [`CPart`] shares.
///
/// Shares *accumulate*: parts covering the same C words add up. Fully
/// reduced algorithms return disjoint parts (adding into zeros is exact
/// assignment); memory-budgeted CARMA returns one part per sequential DFS
/// leaf, and the k-split leaves of one rank carry partial sums of the same
/// C region that only become the product once summed here.
///
/// # Panics
/// Panics if a share's tile lies outside the matrix or its words run past
/// the end of its tile.
pub fn assemble_c(parts: impl IntoIterator<Item = CPart>, m: usize, n: usize) -> Matrix {
    let mut c = Matrix::zeros(m, n);
    let out = c.as_mut_slice();
    for part in parts {
        assert!(part.cols.end <= n, "a C share's columns lie outside the matrix");
        assert!(part.rows.end <= m, "a C share's rows lie outside the matrix");
        let width = part.cols.len();
        assert!(
            part.offset + part.data.len() <= part.rows.len() * width,
            "a C share's words run past the end of its tile"
        );
        // The owned slice of the flattened tile, one contiguous run of a
        // tile row at a time.
        let (mut flat, mut rest) = (part.offset, part.data.as_slice());
        while !rest.is_empty() {
            let (i, j) = (flat / width, flat % width);
            let (run, tail) = rest.split_at(rest.len().min(width - j));
            let at = (part.rows.start + i) * n + part.cols.start + j;
            for (word, v) in out[at..at + run.len()].iter_mut().zip(run) {
                *word += v;
            }
            flat += run.len();
            rest = tail;
        }
    }
    c
}

/// Execute a COSMA plan on the calling rank.
///
/// Every rank reads its *owned* shards from the globally shared `a`/`b`
/// (modeling the paper's assumption that inputs start distributed in the
/// blocked layout of §7.6 — no communication is charged for them) and then
/// performs the planned rounds with real messages. Returns the rank's
/// [`CPart`] output share (none for an idle rank); C remains distributed in
/// COSMA's blocked layout.
///
/// # Panics
/// Panics if the plan does not belong to this world size.
pub async fn execute(comm: &mut RankComm, plan: &DistPlan, a: &Matrix, b: &Matrix) -> Vec<CPart> {
    assert_eq!(plan.problem.p, comm.size(), "plan/world size mismatch");
    let grid = Grid3::from(plan.grid);
    let rp = &plan.ranks[comm.rank()];
    if !rp.active {
        return Vec::new();
    }

    let [im, jn, ik] = rp.coords;
    let brick = &rp.bricks[0];
    let (rows, cols, ks) = (brick.rows.clone(), brick.cols.clone(), brick.ks.clone());
    let (lm, ln, lk) = (rows.len(), cols.len(), ks.len());
    let sp = latency_steps(lm, ln, lk, plan.problem.mem_words).expect("plan was feasible");
    // Allocated at the first multiply, not before the gathers: in lockstep
    // every rank reaches this point before any rank finishes, so an eager
    // tile is host memory held by all ranks at once. It comes from the
    // arena, where the ranks that multiplied before this one parked the
    // payloads they read.
    let mut c_local: Option<Matrix> = None;
    comm.track_alloc((lm * ln) as u64);

    for (round, slab) in sp.slab_ranges().into_iter().enumerate() {
        let w = slab.len();
        let ks_lo = ks.start + slab.start;
        let tag = 2 * round as u64 * TAG_STRIDE;
        // --- DistrData: the round's A (lm x w); member j of the j-fiber owns
        // block j, the j-th balanced run of columns, lm·w_j words row-major ---
        let a_cols = |j| even_cut(w, grid.gn, j);
        let own = ks_lo + a_cols(jn)..ks_lo + a_cols(jn + 1);
        let own_a = a.view(rows.clone(), own.clone());
        let append = |out: &mut Vec<f64>| a.append_block(rows.clone(), own.clone(), out);
        let fiber = grid.j_fiber(im, ik);
        let got_a = allgather_bruck(comm, fiber, append, |j| lm * a_cols(j), tag, Phase::InputA).await;
        // --- DistrData: the round's B (w x ln); member i of the i-fiber owns
        // block i, the i-th balanced run of whole rows ---
        let b_rows = |i| even_cut(w, grid.gm, i);
        let own = ks_lo + b_rows(im)..ks_lo + b_rows(im + 1);
        let own_b = b.view(own.clone(), cols.clone());
        let append = |out: &mut Vec<f64>| b.append_block(own.clone(), cols.clone(), out);
        let (fiber, tag) = (grid.i_fiber(jn, ik), tag + TAG_STRIDE);
        let got_b = allgather_bruck(comm, fiber, append, |i| ln * b_rows(i), tag, Phase::InputB).await;
        // --- Multiply, reading every block where it lies: a piece of B is
        // whole rows, one view; a piece of A is one `lm × w_j` view per
        // block ---
        let a_blocks = |f: &mut dyn FnMut(View<'_>)| {
            let mut j = 0;
            got_a.for_each_piece(|_, words| {
                let Some(words) = words else {
                    j = jn + 1;
                    return f(own_a);
                };
                let mut at = 0;
                while at < words.len() {
                    assert!(j < grid.gn, "an A piece runs past the last block");
                    let w_j = a_cols(j + 1) - a_cols(j);
                    if w_j > 0 {
                        f(View::new(&words[at..at + lm * w_j], lm, w_j, w_j));
                    }
                    (at, j) = (at + lm * w_j, j + 1);
                }
            });
        };
        let b_blocks = |f: &mut dyn FnMut(View<'_>)| {
            got_b.for_each_piece(|at, words| {
                f(words.map_or(own_b, |words| View::new(words, at.len() / ln, ln, ln)));
            });
        };
        gemm_packed(
            Operand::segmented(lm, w, &a_blocks),
            Operand::segmented(w, ln, &b_blocks),
            c_local.get_or_insert_with(|| Matrix::from_vec(lm, ln, comm.pool().take_zeroed(lm * ln))),
        );
        comm.record_flops(2 * (lm * ln * w) as u64);
        got_a.recycle(comm);
        got_b.recycle(comm);
    }
    let c_local = c_local.unwrap_or_else(|| Matrix::zeros(lm, ln));

    // --- Reduce: ring reduce-scatter of the C tile along the k-fiber ---
    if grid.gk > 1 {
        let tile = lm * ln;
        let mut data = c_local.into_vec();
        let (own_idx, chunk) =
            reduce_scatter_ring(comm, grid.k_fiber(im, jn), &mut data, REDUCE_TAG, Phase::OutputC).await;
        comm.record_flops((tile - even_range(tile, grid.gk, ik).len()) as u64);
        return vec![CPart {
            rows,
            cols,
            offset: even_range(tile, grid.gk, own_idx).start,
            data: chunk,
        }];
    }
    vec![CPart {
        rows,
        cols,
        offset: 0,
        data: c_local.into_vec(),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::gemm::matmul;
    use mpsim::exec::{run_spmd_with, ExecBackend};
    use mpsim::machine::MachineSpec;

    /// Plan, execute on two scheduler threads, verify the product and the
    /// plan-exact traffic; hands back the plan and the measured counters.
    fn check_cosma(m: usize, n: usize, k: usize, p: usize, s: usize) -> (DistPlan, Vec<mpsim::RankStats>) {
        let prob = MmmProblem::new(m, n, k, p, s);
        let model = CostModel::piz_daint_two_sided();
        let dplan = plan(&prob, &CosmaConfig::default(), &model).expect("plan");
        dplan.validate().expect("valid plan");
        let a = Matrix::deterministic(m, k, 11);
        let b = Matrix::deterministic(k, n, 22);
        let want = matmul(&a, &b);
        let spec = MachineSpec::piz_daint_with_memory(p, s);
        let (dplan_r, a_r, b_r) = (&dplan, &a, &b);
        let out = run_spmd_with(&spec, ExecBackend::Event { threads: 2 }, |mut comm| async move {
            execute(&mut comm, dplan_r, a_r, b_r).await
        })
        .expect("two-thread run accepted");
        // Assemble C from every active rank's share.
        let parts: Vec<CPart> = out.results.into_iter().flatten().collect();
        assert_eq!(parts.len(), dplan.active_ranks(), "one share per active rank");
        let c = assemble_c(parts, m, n);
        assert!(
            want.approx_eq(&c, 1e-9),
            "{m}x{n}x{k} p={p} S={s}: wrong product, max diff {}",
            want.max_abs_diff(&c)
        );
        assert_eq!(dplan.deviating_rank(&out.stats), None, "measured traffic equals the plan, rank by rank");
        (dplan, out.stats)
    }

    #[test]
    fn cosma_correct_various_shapes_two_sided() {
        check_cosma(16, 16, 16, 4, 4096);
        check_cosma(24, 18, 30, 6, 4096);
        check_cosma(17, 19, 23, 5, 4096); // primes everywhere
        check_cosma(8, 8, 64, 8, 256); // largeK, k-split
        check_cosma(64, 8, 8, 8, 4096); // largeM
        check_cosma(32, 32, 4, 8, 4096); // flat
    }

    #[test]
    fn cosma_correct_when_slabs_are_narrower_than_the_fibers() {
        // Grids 16x16x2 and 13x13x3 with round widths of 8 and 7-8: most
        // fiber members own an empty block of every slab.
        check_cosma(16, 16, 16, 512, 4096);
        check_cosma(17, 19, 23, 510, 4096);
    }

    #[test]
    fn gather_allocations_grow_with_log_fiber_length() {
        // One pooled payload per Bruck round and ring step, and the C tile —
        // p·(log2 gn + log2 gm + gk) takes in these one-round worlds — and so
        // at most that many allocations. A rank reads its received payloads
        // where they arrived and recycles them after the multiply. A buffer
        // per gathered block would be p·(gn + gm), 3.2x and 5.3x the takes.
        for p in [512usize, 2048] {
            let prob = MmmProblem::new(64, 64, 64, p, 1 << 12);
            let session = crate::api::RunSession::new(prob)
                .machine(CostModel::piz_daint_two_sided())
                .exec_backend(ExecBackend::event());
            let (dplan, report) = session
                .execute_verified(&Matrix::deterministic(64, 64, 1), &Matrix::deterministic(64, 64, 2))
                .expect("executes");
            let [gm, gn, gk] = dplan.grid.map(|g| g as u64);
            assert_eq!(gm * gn * gk, p as u64, "every rank active");
            assert_eq!(dplan.ranks[0].rounds.iter().len(), 2, "one gather round and the ring");
            let takes = p as u64 * (u64::from(gn.ilog2()) + u64::from(gm.ilog2()) + gk);
            assert_eq!(report.pool.hits + report.pool.misses, takes, "p={p}: pooled payloads");
        }
    }

    #[test]
    fn assemble_c_adds_ragged_slices_word_by_word() {
        // A 3x4 tile at (1, 2) of a 5x7 matrix, cut mid-row into three
        // slices, plus a second share over part of the same words.
        let tile = |offset: usize, len: usize, scale: f64| CPart {
            rows: 1..4,
            cols: 2..6,
            offset,
            data: (offset..offset + len).map(|w| scale * (w + 1) as f64).collect(),
        };
        let parts = [
            tile(0, 3, 1.0),
            tile(3, 7, 1.0),
            tile(10, 2, 1.0),
            tile(5, 6, 100.0),
            tile(12, 0, 1.0),
        ];
        let c = assemble_c(parts, 5, 7);
        for i in 0..5 {
            for j in 0..7 {
                let want = if (1..4).contains(&i) && (2..6).contains(&j) {
                    let w = (i - 1) * 4 + (j - 2);
                    let twice = if (5..11).contains(&w) { 100.0 } else { 0.0 };
                    (1.0 + twice) * (w + 1) as f64
                } else {
                    0.0
                };
                assert_eq!(c.get(i, j), want, "C[{i}, {j}]");
            }
        }
    }

    #[test]
    #[should_panic(expected = "a C share's words run past the end of its tile")]
    fn assemble_c_rejects_a_share_longer_than_its_tile() {
        // 16 words for a 3x4 tile: the last 4 would land in C row 4.
        let part = CPart {
            rows: 1..4,
            cols: 2..6,
            offset: 0,
            data: vec![1.0; 16],
        };
        assemble_c([part], 5, 7);
    }

    #[test]
    #[should_panic(expected = "a C share's words run past the end of its tile")]
    fn assemble_c_rejects_words_for_a_tile_without_columns() {
        let part = CPart {
            rows: 1..4,
            cols: 2..2,
            offset: 0,
            data: vec![1.0],
        };
        assemble_c([part], 5, 7);
    }

    #[test]
    #[should_panic(expected = "a C share's rows lie outside the matrix")]
    fn assemble_c_rejects_a_tile_below_the_matrix() {
        let part = CPart {
            rows: 4..6,
            cols: 0..2,
            offset: 0,
            data: vec![1.0; 4],
        };
        assemble_c([part], 5, 7);
    }

    #[test]
    fn cosma_single_rank_is_local_gemm() {
        check_cosma(10, 12, 14, 1, 4096);
    }

    #[test]
    fn cosma_tight_memory_multi_round() {
        // Force several communication rounds: tile 8x8=64, slack for few cols.
        check_cosma(16, 16, 32, 4, 64 + 2 * 16 * 2);
    }

    #[test]
    fn plan_rounds_match_latency_steps() {
        let prob = MmmProblem::new(64, 64, 256, 16, 600);
        let model = CostModel::piz_daint_two_sided();
        let cfg = CosmaConfig::default();
        let dplan = plan(&prob, &cfg, &model).unwrap();
        for rp in dplan.ranks.iter().filter(|r| r.active) {
            let b = &rp.bricks[0];
            let sp = latency_steps(b.rows.len(), b.cols.len(), b.ks.len(), prob.mem_words).unwrap();
            let comm_rounds = rp.rounds.iter().filter(|r| r.c_words == 0).count();
            assert_eq!(comm_rounds, sp.steps, "rank {}", rp.rank);
        }
    }

    #[test]
    fn plan_memory_within_budget() {
        let prob = MmmProblem::new(128, 96, 512, 12, 2000);
        let model = CostModel::piz_daint_two_sided();
        let dplan = plan(&prob, &CosmaConfig::default(), &model).unwrap();
        assert_eq!(dplan.validate(), Ok(()));
        for rp in &dplan.ranks {
            assert!(rp.mem_words <= prob.mem_words as u64, "rank {}", rp.rank);
        }
    }

    #[test]
    fn plan_flops_cover_problem() {
        let prob = MmmProblem::new(40, 40, 40, 8, 4096);
        let model = CostModel::piz_daint_two_sided();
        let dplan = plan(&prob, &CosmaConfig::default(), &model).unwrap();
        let vol: u64 = dplan.ranks.iter().map(|r| r.volume()).sum();
        assert_eq!(vol, prob.volume());
    }

    #[test]
    fn idle_rank_with_prime_p() {
        // p = 7 on a cube: dropping ranks must still compute correctly.
        check_cosma(24, 24, 24, 7, 4096);
    }
}
