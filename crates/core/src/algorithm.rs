//! The executable COSMA algorithm (Algorithm 1 of the paper).
//!
//! [`plan`] materializes the full distributed schedule: grid from
//! [`crate::grid::fit_ranks`], per-rank `[l_m × l_n × l_k]` bricks,
//! latency-optimal round structure from [`crate::schedule::latency_steps`],
//! and exact per-round communication volumes (log-depth all-gathers of A
//! along j-fibers and of B along i-fibers — `DistrData` — plus a balanced ring
//! reduce-scatter of C along k-fibers — `Reduce`; the output stays
//! distributed in COSMA's blocked layout, §7.6).
//!
//! [`execute`] interprets the same schedule on an [`mpsim`] machine with real
//! messages and real matrix blocks. The body is a resumable (`async`) rank
//! program over [`RankComm`], so it runs unchanged on the blocking and
//! event-driven executors, in either communication backend of §7.4:
//!
//! * **two-sided** — Bruck (log-depth) all-gathers over tagged sends/receives;
//! * **one-sided** — every rank publishes its owned shards in an RMA window
//!   once (one fence for the epoch), then peers `get` exactly the chunks each
//!   round needs; the C reduce-scatter stays message-based (as in the paper,
//!   where collectives remain MPI even in the RMA configuration).
//!
//! Both backends move exactly the words the plan predicts — the integration
//! tests assert equality against the mpiP-style counters.

use densemat::gemm::gemm_packed;
use densemat::layout::even_splits;
use densemat::matrix::Matrix;
use mpsim::collectives::{allgather_bruck, even_chunk_ranges, reduce_scatter_ring};
use mpsim::comm::RankComm;
use mpsim::cost::CostModel;
use mpsim::stats::Phase;

use crate::api::{AlgoId, PlanError};
use crate::grid::{fit_ranks, Grid3};
use crate::plan::{Brick, DistPlan, RankPlan, Round};
use crate::problem::MmmProblem;
use crate::schedule::latency_steps;
use crate::treecount;

/// Communication backend (§7.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Message passing: Bruck all-gathers over send/recv.
    #[default]
    TwoSided,
    /// RMA: publish shards in windows, peers `get` what they need.
    OneSided,
}

/// Tunables of the COSMA run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosmaConfig {
    /// Maximum fraction of ranks grid fitting may idle (paper: 3%).
    pub delta: f64,
    /// Communication backend.
    pub backend: Backend,
}

impl Default for CosmaConfig {
    fn default() -> Self {
        CosmaConfig {
            delta: 0.03,
            backend: Backend::TwoSided,
        }
    }
}

/// The contiguous range of `idx`-th of `parts` balanced pieces of `0..total`.
pub fn even_range(total: usize, parts: usize, idx: usize) -> std::ops::Range<usize> {
    let splits = even_splits(total, parts);
    splits[idx]..splits[idx + 1]
}

/// Build the COSMA [`DistPlan`] for `prob`.
///
/// Prefer [`crate::api::RunSession`] or [`crate::api::CosmaAlgorithm`]; this
/// free function is the implementation they call.
pub fn plan(prob: &MmmProblem, cfg: &CosmaConfig, model: &CostModel) -> Result<DistPlan, PlanError> {
    let fit = fit_ranks(prob, cfg.delta, model)?;
    let grid = fit.grid;
    let mut ranks = Vec::with_capacity(prob.p);
    for rank in 0..prob.p {
        if rank >= grid.size() {
            ranks.push(RankPlan::idle(rank));
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
        let mut rounds = Vec::with_capacity(buckets + 1);
        let mut max_slab = 0usize;
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
                acc.msgs +=
                    treecount::allgather_bruck_msgs(grid.gn) + treecount::allgather_bruck_msgs(grid.gm);
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
            let own_chunk = even_chunk_ranges(tile, grid.gk)[ik].len();
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
        ranks.push(RankPlan {
            rank,
            active: true,
            coords: [im, jn, ik],
            bricks: vec![Brick { rows, cols, ks }],
            rounds,
            mem_words,
        });
    }
    Ok(DistPlan {
        algo: AlgoId::Cosma,
        problem: *prob,
        grid: [grid.gm, grid.gn, grid.gk],
        ranks,
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
pub fn assemble_c(parts: impl IntoIterator<Item = CPart>, m: usize, n: usize) -> Matrix {
    let mut c = Matrix::zeros(m, n);
    for part in parts {
        let width = part.cols.len();
        for (w, &v) in part.data.iter().enumerate() {
            let flat = part.offset + w;
            let (i, j) = (part.rows.start + flat / width, part.cols.start + flat % width);
            c.set(i, j, c.get(i, j) + v);
        }
    }
    c
}

/// Execute a COSMA plan on the calling rank.
///
/// Every rank reads its *owned* shards from the globally shared `a`/`b`
/// (modeling the paper's assumption that inputs start distributed in the
/// blocked layout of §7.6 — no communication is charged for them) and then
/// performs the planned rounds with real messages. Returns every active
/// rank's [`CPart`] output share (`None` for idle ranks); C remains
/// distributed in COSMA's blocked layout.
///
/// # Panics
/// Panics if the plan does not belong to this world size.
pub async fn execute(
    comm: &mut RankComm,
    plan: &DistPlan,
    cfg: &CosmaConfig,
    a: &Matrix,
    b: &Matrix,
) -> Option<CPart> {
    assert_eq!(plan.problem.p, comm.size(), "plan/world size mismatch");
    let grid = Grid3 {
        gm: plan.grid[0],
        gn: plan.grid[1],
        gk: plan.grid[2],
    };
    let rp = &plan.ranks[comm.rank()];

    // One-sided backend: a single epoch — everyone (idle ranks included)
    // publishes its shards, fences once, then peers pull chunks on demand.
    if cfg.backend == Backend::OneSided {
        if rp.active {
            let window = build_window(plan, rp, a, b);
            comm.track_alloc(window.len() as u64);
            comm.win_fill(window);
        } else {
            comm.win_resize(0);
        }
        comm.fence().await;
    }
    if !rp.active {
        return None;
    }

    let [im, jn, ik] = rp.coords;
    let brick = &rp.bricks[0];
    let (rows, cols, ks) = (brick.rows.clone(), brick.cols.clone(), brick.ks.clone());
    let (lm, ln, lk) = (rows.len(), cols.len(), ks.len());
    let sp = latency_steps(lm, ln, lk, plan.problem.mem_words).expect("plan was feasible");
    let mut c_local = Matrix::zeros(lm, ln);
    comm.track_alloc((lm * ln) as u64);

    for (round, slab) in sp.slab_ranges().into_iter().enumerate() {
        let w = slab.len();
        let ks_lo = ks.start + slab.start;
        // --- DistrData: assemble the A slab (lm x w) ---
        let a_slab = match cfg.backend {
            Backend::TwoSided => {
                let own = even_range(w, grid.gn, jn);
                let mine = a.block(rows.clone(), ks_lo + own.start..ks_lo + own.end).into_vec();
                let sizes: Vec<usize> = (0..grid.gn).map(|j| lm * even_range(w, grid.gn, j).len()).collect();
                let chunks = allgather_bruck(
                    comm,
                    &grid.j_group(im, ik),
                    mine,
                    &sizes,
                    2 * round as u64 * TAG_STRIDE,
                    Phase::InputA,
                )
                .await;
                assemble_col_chunks(lm, w, grid.gn, &chunks)
            }
            Backend::OneSided => {
                gather_chunks_rma(comm, plan, &grid, GatherWhat::A, im, jn, ik, round, lm, w)
            }
        };
        // --- DistrData: assemble the B slab (w x ln) ---
        let b_slab = match cfg.backend {
            Backend::TwoSided => {
                let own = even_range(w, grid.gm, im);
                let mine = b.block(ks_lo + own.start..ks_lo + own.end, cols.clone()).into_vec();
                let sizes: Vec<usize> = (0..grid.gm).map(|i| even_range(w, grid.gm, i).len() * ln).collect();
                let chunks = allgather_bruck(
                    comm,
                    &grid.i_group(jn, ik),
                    mine,
                    &sizes,
                    (2 * round as u64 + 1) * TAG_STRIDE,
                    Phase::InputB,
                )
                .await;
                assemble_row_chunks(w, ln, grid.gm, &chunks)
            }
            Backend::OneSided => {
                gather_chunks_rma(comm, plan, &grid, GatherWhat::B, im, jn, ik, round, ln, w)
            }
        };
        // --- Multiply ---
        gemm_packed(&a_slab, &b_slab, &mut c_local);
        comm.record_flops(2 * (lm * ln * w) as u64);
    }

    // --- Reduce: ring reduce-scatter of the C tile along the k-fiber ---
    if grid.gk > 1 {
        let group = grid.k_group(im, jn);
        let tile = lm * ln;
        let mut data = c_local.into_vec();
        let (own_idx, chunk) = reduce_scatter_ring(comm, &group, &mut data, REDUCE_TAG, Phase::OutputC).await;
        let own_words = even_chunk_ranges(tile, grid.gk)[ik].len();
        comm.record_flops((tile - own_words) as u64);
        let offset = even_chunk_ranges(tile, grid.gk)[own_idx].start;
        return Some(CPart {
            rows,
            cols,
            offset,
            data: chunk,
        });
    }
    Some(CPart {
        rows,
        cols,
        offset: 0,
        data: c_local.into_vec(),
    })
}

/// Which matrix an RMA gather assembles.
#[derive(Clone, Copy, PartialEq)]
enum GatherWhat {
    A,
    B,
}

/// The RMA window content of one rank: its A chunks for every round, then
/// its B chunks for every round, all row-major flattened.
fn build_window(plan: &DistPlan, rp: &RankPlan, a: &Matrix, b: &Matrix) -> Vec<f64> {
    let grid = Grid3 {
        gm: plan.grid[0],
        gn: plan.grid[1],
        gk: plan.grid[2],
    };
    let [im, jn, _ik] = rp.coords;
    let brick = &rp.bricks[0];
    let (rows, cols, ks) = (brick.rows.clone(), brick.cols.clone(), brick.ks.clone());
    let sp = latency_steps(rows.len(), cols.len(), ks.len(), plan.problem.mem_words).expect("feasible plan");
    let mut window = Vec::new();
    for slab in sp.slab_ranges() {
        let w = slab.len();
        let own = even_range(w, grid.gn, jn);
        let ks_lo = ks.start + slab.start;
        window.extend(a.block(rows.clone(), ks_lo + own.start..ks_lo + own.end).into_vec());
    }
    for slab in sp.slab_ranges() {
        let w = slab.len();
        let own = even_range(w, grid.gm, im);
        let ks_lo = ks.start + slab.start;
        window.extend(b.block(ks_lo + own.start..ks_lo + own.end, cols.clone()).into_vec());
    }
    window
}

/// Byte offset (in words) of a given round's A or B chunk inside a peer's
/// window, mirroring [`build_window`]'s layout.
fn window_offset(
    plan: &DistPlan,
    peer_coords: [usize; 3],
    peer_brick: &Brick,
    what: GatherWhat,
    round: usize,
) -> usize {
    let grid = Grid3 {
        gm: plan.grid[0],
        gn: plan.grid[1],
        gk: plan.grid[2],
    };
    let [im, jn, _] = peer_coords;
    let (lm, ln, lk) = (peer_brick.rows.len(), peer_brick.cols.len(), peer_brick.ks.len());
    let sp = latency_steps(lm, ln, lk, plan.problem.mem_words).expect("feasible plan");
    let mut offset = 0usize;
    let a_total: usize = sp.slabs.iter().map(|&w| lm * even_range(w, grid.gn, jn).len()).sum();
    match what {
        GatherWhat::A => {
            for &w in sp.slabs.iter().take(round) {
                offset += lm * even_range(w, grid.gn, jn).len();
            }
        }
        GatherWhat::B => {
            offset = a_total;
            for &w in sp.slabs.iter().take(round) {
                offset += even_range(w, grid.gm, im).len() * ln;
            }
        }
    }
    offset
}

/// Pull one round's chunks from every fiber peer via RMA `get` and assemble
/// the slab matrix.
#[allow(clippy::too_many_arguments)]
fn gather_chunks_rma(
    comm: &mut RankComm,
    plan: &DistPlan,
    grid: &Grid3,
    what: GatherWhat,
    im: usize,
    jn: usize,
    ik: usize,
    round: usize,
    edge: usize,
    w: usize,
) -> Matrix {
    let (group, parts, phase) = match what {
        GatherWhat::A => (grid.j_group(im, ik), grid.gn, Phase::InputA),
        GatherWhat::B => (grid.i_group(jn, ik), grid.gm, Phase::InputB),
    };
    let my_pos = match what {
        GatherWhat::A => jn,
        GatherWhat::B => im,
    };
    let mut chunks: Vec<Vec<f64>> = Vec::with_capacity(parts);
    for (pos, &peer) in group.iter().enumerate() {
        let own = even_range(w, parts, pos);
        let words = match what {
            GatherWhat::A => edge * own.len(),
            GatherWhat::B => own.len() * edge,
        };
        if pos == my_pos {
            let off = window_offset(plan, plan.ranks[peer].coords, &plan.ranks[peer].bricks[0], what, round);
            chunks.push(comm.win_read_local(off, words));
        } else {
            let off = window_offset(plan, plan.ranks[peer].coords, &plan.ranks[peer].bricks[0], what, round);
            chunks.push(comm.get(peer, off, words, phase));
        }
    }
    match what {
        GatherWhat::A => assemble_col_chunks(edge, w, parts, &chunks),
        GatherWhat::B => assemble_row_chunks(w, edge, parts, &chunks),
    }
}

/// Assemble an `lm x w` matrix from `parts` column-chunk payloads (chunk `j`
/// holds the balanced `j`-th column range, row-major).
fn assemble_col_chunks(lm: usize, w: usize, parts: usize, chunks: &[Vec<f64>]) -> Matrix {
    let mut out = Matrix::zeros(lm, w);
    for (pos, chunk) in chunks.iter().enumerate() {
        let r = even_range(w, parts, pos);
        if r.is_empty() {
            continue;
        }
        let block = Matrix::from_vec(lm, r.len(), chunk.clone());
        out.set_block(0, r.start, &block);
    }
    out
}

/// Assemble a `w x ln` matrix from `parts` row-chunk payloads.
fn assemble_row_chunks(w: usize, ln: usize, parts: usize, chunks: &[Vec<f64>]) -> Matrix {
    let mut out = Matrix::zeros(w, ln);
    for (pos, chunk) in chunks.iter().enumerate() {
        let r = even_range(w, parts, pos);
        if r.is_empty() {
            continue;
        }
        let block = Matrix::from_vec(r.len(), ln, chunk.clone());
        out.set_block(r.start, 0, &block);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use densemat::gemm::matmul;
    use mpsim::exec::{run_spmd_with, ExecBackend};
    use mpsim::machine::MachineSpec;

    fn check_cosma(m: usize, n: usize, k: usize, p: usize, s: usize, backend: Backend) {
        let prob = MmmProblem::new(m, n, k, p, s);
        let model = CostModel::piz_daint_two_sided();
        let cfg = CosmaConfig { delta: 0.03, backend };
        let dplan = plan(&prob, &cfg, &model).expect("plan");
        dplan.validate().expect("valid plan");
        let a = Matrix::deterministic(m, k, 11);
        let b = Matrix::deterministic(k, n, 22);
        let want = matmul(&a, &b);
        let spec = MachineSpec::piz_daint_with_memory(p, s);
        let (dplan_r, cfg_r, a_r, b_r) = (&dplan, &cfg, &a, &b);
        let out = run_spmd_with(&spec, ExecBackend::auto(spec.p), |mut comm| async move {
            execute(&mut comm, dplan_r, cfg_r, a_r, b_r).await
        })
        .expect("blocking run accepted");
        // Assemble C from every active rank's share.
        let parts: Vec<CPart> = out.results.into_iter().flatten().collect();
        assert_eq!(parts.len(), dplan.active_ranks(), "one share per active rank");
        let c = assemble_c(parts, m, n);
        assert!(
            want.approx_eq(&c, 1e-9),
            "{m}x{n}x{k} p={p} S={s} {backend:?}: wrong product, max diff {}",
            want.max_abs_diff(&c)
        );
        // Measured traffic equals the plan, rank by rank.
        for (r, st) in out.stats.iter().enumerate() {
            assert_eq!(
                st.total_recv(),
                dplan.ranks[r].comm_words(),
                "rank {r} traffic mismatch ({backend:?})"
            );
        }
    }

    #[test]
    fn cosma_correct_various_shapes_two_sided() {
        check_cosma(16, 16, 16, 4, 4096, Backend::TwoSided);
        check_cosma(24, 18, 30, 6, 4096, Backend::TwoSided);
        check_cosma(17, 19, 23, 5, 4096, Backend::TwoSided); // primes everywhere
        check_cosma(8, 8, 64, 8, 256, Backend::TwoSided); // largeK, k-split
        check_cosma(64, 8, 8, 8, 4096, Backend::TwoSided); // largeM
        check_cosma(32, 32, 4, 8, 4096, Backend::TwoSided); // flat
    }

    #[test]
    fn cosma_correct_one_sided() {
        check_cosma(16, 16, 16, 4, 4096, Backend::OneSided);
        check_cosma(12, 20, 28, 6, 2048, Backend::OneSided);
        check_cosma(8, 8, 64, 8, 256, Backend::OneSided);
    }

    #[test]
    fn cosma_single_rank_is_local_gemm() {
        check_cosma(10, 12, 14, 1, 4096, Backend::TwoSided);
    }

    #[test]
    fn cosma_tight_memory_multi_round() {
        // Force several communication rounds: tile 8x8=64, slack for few cols.
        check_cosma(16, 16, 32, 4, 64 + 2 * 16 * 2, Backend::TwoSided);
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
        check_cosma(24, 24, 24, 7, 4096, Backend::TwoSided);
    }
}
