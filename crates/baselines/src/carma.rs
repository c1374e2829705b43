//! CARMA (Demmel et al. 2013): recursive, memory-oblivious MMM.
//!
//! `p` must be a power of two. At every BFS level the *largest* of the
//! current `m, n, k` is halved and the rank group splits with it:
//!
//! * **m-split** — A and C split with the group; every rank exchanges its
//!   share of B with its partner in the sibling half (B is needed whole by
//!   both halves): `|B|/g` words received;
//! * **n-split** — symmetric: A shares are exchanged, `|A|/g` words;
//! * **k-split** — A and B split for free, but the sibling halves compute
//!   *partial sums* of the same C; on the way back up the partners combine
//!   them pairwise (a recursive-halving reduce-scatter): each receives half
//!   of its current C share, `|C_share|/2` words.
//!
//! At the leaf (`g = 1`) the rank multiplies its `m_l × n_l × k_l` brick.
//! When that leaf working set exceeds `S`, memory-aware CARMA prepends
//! *sequential DFS steps*: the whole machine processes one half of the
//! iteration space after the other (`dfs_leaves`), paying the full BFS
//! communication per DFS leaf — the re-fetching cost behind the `√3` factor
//! of §6.2.
//!
//! Both regimes are fully executable. The streaming executor iterates the
//! DFS leaves in order, re-fetching A/B shares and reducing C per leaf with
//! buffers sized to the *leaf* footprint, so the measured `peak_mem_words`
//! stays within `S` whenever the plan does — runs on a machine with an
//! enforced memory budget (`MachineSpec::with_mem_budget`) certify exactly
//! that. The downward A/B share exchanges move real share-sized payloads
//! (content read from the initially distributed inputs), the leaf multiply
//! reads its operands in place from the initial distribution, and the
//! upward k-split reduction runs on the real partial C data, so the final
//! product is verified end to end while every counted message has the true
//! CARMA size. A rank's k-split DFS leaves yield partial sums of the same C
//! region; `assemble_c` accumulates them.

use std::ops::Range;

use cosma::algorithm::{even_range, CPart};
use cosma::api::{AlgoId, MmmAlgorithm, PlanError, RankFuture, RankRequirement};
use cosma::plan::{Brick, DistPlan, PlanHeader, RankPlan, Round, RoundsBuilder};
use cosma::problem::MmmProblem;
use densemat::gemm::gemm_packed;
use densemat::matrix::Matrix;
use mpsim::comm::RankComm;
use mpsim::cost::CostModel;
use mpsim::stats::Phase;

/// Which dimension a recursion level splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SplitDim {
    /// Split rows of A/C.
    M,
    /// Split columns of B/C.
    N,
    /// Split the inner dimension.
    K,
}

/// One level of a rank's recursion path.
struct Level {
    /// The dimension split at this level.
    dim: SplitDim,
    /// Group size before the split. With `p = 2^L` every group is an aligned
    /// halving of `0..p`: the rank's position in it is `rank % group`.
    group: usize,
    /// The sub-volume the group splits.
    volume: Brick,
    /// Words this rank receives in the downward exchange (0 for k-splits).
    down_words: u64,
    /// Whether this rank took the upper half.
    upper: bool,
}

impl Level {
    /// The rank at the same position in the sibling half.
    fn partner(&self, rank: usize) -> usize {
        if self.upper {
            rank - self.group / 2
        } else {
            rank + self.group / 2
        }
    }
}

/// The full recursion trace of one rank: its path and leaf brick.
struct Trace {
    /// Levels from the root down.
    levels: Vec<Level>,
    /// Leaf brick.
    brick: Brick,
}

/// Halve `range` and return the half selected by `upper`: the lower half
/// takes `⌈len/2⌉`, the upper the rest.
fn half(range: &Range<usize>, upper: bool) -> Range<usize> {
    let mid = range.start + range.len().div_ceil(2);
    if upper {
        mid..range.end
    } else {
        range.start..mid
    }
}

/// The half of `v` that `upper` selects along `dim`.
fn split(v: &Brick, dim: SplitDim, upper: bool) -> Brick {
    let mut h = v.clone();
    match dim {
        SplitDim::M => h.rows = half(&v.rows, upper),
        SplitDim::N => h.cols = half(&v.cols, upper),
        SplitDim::K => h.ks = half(&v.ks, upper),
    }
    h
}

/// Choose the split dimension: the largest of `(lm, ln, lk)`, preferring
/// `k`, then `n`, then `m` on ties (deterministic; the paper only says
/// "split the largest dimension").
fn split_dim(lm: usize, ln: usize, lk: usize) -> SplitDim {
    if lk >= lm && lk >= ln {
        SplitDim::K
    } else if ln >= lm {
        SplitDim::N
    } else {
        SplitDim::M
    }
}

/// The working set `|A| + |B| + |C|` of multiplying `brick`, in words.
fn footprint(brick: &Brick) -> usize {
    let (lm, ln, lk) = (brick.rows.len(), brick.cols.len(), brick.ks.len());
    lm * lk + lk * ln + lm * ln
}

/// BFS recursion trace of `rank` among `p = 2^L` ranks over the sub-volume
/// `volume`.
///
/// Split decisions are taken on *canonical* dims — the ceiling-halved dims
/// of the recursion root, independent of which halves this rank took. All
/// ranks of a group therefore split the same dimension sequence even when a
/// halved dimension is odd, which keeps k-split partners on identical
/// `(rows, cols)` leaves (the upward reduce-scatter pairs opposite halves of
/// the *same* C block) and makes rank 0 — the all-ceiling path — the rank
/// with the largest leaf working set.
fn trace_on(mut volume: Brick, p: usize, rank: usize) -> Trace {
    let (mut cm, mut cn, mut ck) = (volume.rows.len(), volume.cols.len(), volume.ks.len());
    let mut levels = Vec::with_capacity(p.trailing_zeros() as usize);
    let mut group = p;
    while group > 1 {
        let dim = split_dim(cm, cn, ck);
        let (idx, hsize) = (rank % group, group / 2);
        let upper = idx >= hsize;
        let partner_idx = if upper { idx - hsize } else { idx + hsize };
        let v = &volume;
        let down_words = match dim {
            SplitDim::M => even_range(v.ks.len() * v.cols.len(), group, partner_idx).len() as u64,
            SplitDim::N => even_range(v.rows.len() * v.ks.len(), group, partner_idx).len() as u64,
            SplitDim::K => 0,
        };
        match dim {
            SplitDim::M => cm = cm.div_ceil(2),
            SplitDim::N => cn = cn.div_ceil(2),
            SplitDim::K => ck = ck.div_ceil(2),
        }
        let next = split(&volume, dim, upper);
        levels.push(Level {
            dim,
            group,
            volume,
            down_words,
            upper,
        });
        volume = next;
        group = hsize;
    }
    Trace {
        levels,
        brick: volume,
    }
}

/// The k-split unwinding, bottom-up: every k-split level with its index and
/// the C share — a word range of the flattened leaf block — the rank keeps
/// after it. A k-split halves the share like any range ([`half`]): the lower
/// half takes `⌈len/2⌉` words, `upper` keeps the rest.
fn unwind(tr: &Trace) -> impl Iterator<Item = (usize, &Level, Range<usize>)> {
    let tile = tr.brick.rows.len() * tr.brick.cols.len();
    tr.levels
        .iter()
        .enumerate()
        .rev()
        .filter(|(_, level)| level.dim == SplitDim::K)
        .scan(0..tile, |share, (li, level)| {
            *share = half(share, level.upper);
            Some((li, level, share.clone()))
        })
}

/// Hard ceiling on sequential DFS levels: beyond 24 something is wrong.
const MAX_DFS_DEPTH: usize = 24;

/// The sub-volumes the DFS prefix produces: real (memory-aware) CARMA takes
/// sequential steps — the whole machine processes one half after the other —
/// until every pure-BFS recursion's leaf working set fits in `S`. Each DFS
/// leaf then pays the full BFS communication, which is how CARMA's
/// limited-memory re-fetching cost (the `√3` factor of §6.2) arises.
///
/// The descent is *level-synchronous*: at each sequential level every
/// current sub-volume splits its own largest dimension, mirroring the
/// machine-wide lockstep of the sequential schedule. Two invariants follow
/// (pinned by the property suite): the leaf count is always a power of two,
/// and it is monotone non-increasing in `S`. Fitting is judged against the
/// *worst* rank, so a plan whose leaves fit keeps every rank within `S`:
/// because split decisions are canonical ([`trace_on`]) and halving puts the
/// ceiling in the lower half, rank 0 — which takes the lower half at every
/// level — holds the coordinate-wise largest leaf, and the [`footprint`] is
/// monotone in each dimension, so its leaf is the maximum.
fn dfs_leaves(prob: &MmmProblem) -> Vec<Brick> {
    let fits = |v: &Brick| footprint(&trace_on(v.clone(), prob.p, 0).brick) <= prob.mem_words;
    let splittable = |v: &Brick| v.rows.len().max(v.cols.len()).max(v.ks.len()) > 1;
    let mut cur = vec![Brick {
        rows: 0..prob.m,
        cols: 0..prob.n,
        ks: 0..prob.k,
    }];
    for _ in 0..MAX_DFS_DEPTH {
        if cur.iter().all(fits) || !cur.iter().all(splittable) {
            break;
        }
        cur = cur
            .iter()
            .flat_map(|v| {
                let dim = split_dim(v.rows.len(), v.cols.len(), v.ks.len());
                [false, true].map(|upper| split(v, dim, upper))
            })
            .collect();
    }
    cur
}

/// Number of sequential (DFS) leaves memory-aware CARMA processes.
pub fn dfs_leaf_count(prob: &MmmProblem) -> usize {
    dfs_leaves(prob).len()
}

/// Build the CARMA [`DistPlan`]: [`plan_ranks`], collected.
pub fn plan(prob: &MmmProblem) -> Result<DistPlan, PlanError> {
    DistPlan::collect(|sink| plan_ranks(prob, sink))
}

/// The CARMA plan as a rank stream: every rank's plan handed to `sink` in
/// rank order, then the header.
///
/// Fails with [`PlanError::UnsupportedRanks`] unless `p = 2^L`. When the
/// pure-BFS leaf working set exceeds `S`, the plan prepends sequential DFS
/// steps (see [`dfs_leaf_count`]) whose per-leaf re-fetching is priced round
/// by round; [`execute`] streams exactly that schedule, so memory-starved
/// plans execute end-to-end like everything else. Each rank's `mem_words`
/// is its real maximum leaf footprint — within `S` whenever the DFS
/// terminated by fitting, so the plan passes the full `validate()` memory
/// check, not just coverage.
pub fn plan_ranks(prob: &MmmProblem, sink: &mut dyn FnMut(RankPlan)) -> Result<PlanHeader, PlanError> {
    RankRequirement::PowerOfTwo.check(AlgoId::Carma, prob.p)?;
    let leaves = dfs_leaves(prob);
    let mut rounds = RoundsBuilder::default();
    for rank in 0..prob.p {
        let mut bricks = Vec::with_capacity(leaves.len());
        let mut mem_words = 0u64;
        for volume in &leaves {
            let tr = trace_on(volume.clone(), prob.p, rank);
            // Downward exchanges.
            rounds.extend(tr.levels.iter().filter_map(|level| {
                let words = level.down_words;
                match level.dim {
                    SplitDim::M => Some(Round {
                        b_words: words,
                        msgs: 1,
                        ..Round::default()
                    }),
                    SplitDim::N => Some(Round {
                        a_words: words,
                        msgs: 1,
                        ..Round::default()
                    }),
                    SplitDim::K => None,
                }
            }));
            // Leaf multiply.
            rounds.push(Round {
                flops: 2 * tr.brick.volume(),
                ..Round::default()
            });
            // Upward k-split reductions: each receives the kept share.
            rounds.extend(unwind(&tr).map(|(.., share)| Round {
                c_words: share.len() as u64,
                msgs: 1,
                flops: share.len() as u64,
                ..Round::default()
            }));
            mem_words = mem_words.max(footprint(&tr.brick) as u64);
            bricks.push(tr.brick);
        }
        sink(RankPlan {
            rank,
            active: true,
            coords: [0, 0, 0],
            bricks,
            rounds: rounds.take(),
            mem_words,
        });
    }
    Ok(PlanHeader {
        algo: AlgoId::Carma,
        problem: *prob,
        grid: [prob.p, 1, 1],
    })
}

/// Execute a CARMA plan on the calling rank — the *streaming* executor. A
/// resumable rank body: every sibling exchange of the BFS descent and the
/// k-split reduce unwinding is an `await` point.
///
/// The rank iterates the plan's sequential DFS leaves in order, running one
/// full BFS recursion per leaf: A/B shares are re-fetched from the initial
/// distribution per leaf (the paper's limited-memory re-fetching cost), and
/// every buffer is sized to the *leaf* footprint, so the measured
/// `peak_mem_words` stays within the plan's per-rank memory figure — a run
/// on a budget-enforcing machine certifies `peak ≤ S`. One [`CPart`] is
/// returned per leaf: the leaf's C region and the slice of its *flattened*
/// (row-major) block the rank owns after the k-split reduce-scatters. Parts
/// of k-split leaves cover the same C region with partial sums, which
/// `assemble_c` accumulates.
pub async fn execute(comm: &mut RankComm, plan: &DistPlan, a: &Matrix, b: &Matrix) -> Vec<CPart> {
    assert_eq!(plan.problem.p, comm.size(), "plan/world size mismatch");
    let leaves = dfs_leaves(&plan.problem);
    debug_assert_eq!(
        plan.ranks[comm.rank()].bricks.len(),
        leaves.len(),
        "plan and problem disagree on the DFS schedule"
    );
    let mut results = Vec::with_capacity(leaves.len());
    for (leaf, volume) in leaves.into_iter().enumerate() {
        results.push(execute_leaf(comm, leaf, volume, a, b).await);
    }
    results
}

/// One DFS leaf of [`execute`]: one walk over the rank's trace of the BFS
/// recursion over `volume`, with working memory tracked at leaf granularity
/// (buffers are allocated per leaf and released when its reduced share
/// streams back to the output distribution).
async fn execute_leaf(comm: &mut RankComm, leaf: usize, volume: Brick, a: &Matrix, b: &Matrix) -> CPart {
    let rank = comm.rank();
    let tr = trace_on(volume, comm.size(), rank);

    // Downward: exchange replicated-matrix shares with the partner across
    // the sibling half. Payload contents are this rank's actual share of
    // the replicated matrix (read from the initial distribution); only the
    // share itself is ever buffered, never the full replicated sub-matrix.
    for (li, level) in tr.levels.iter().enumerate() {
        let v = &level.volume;
        let (mat, rows, cols, phase) = match level.dim {
            SplitDim::M => (b, &v.ks, &v.cols, Phase::InputB),
            SplitDim::N => (a, &v.rows, &v.ks, Phase::InputA),
            SplitDim::K => continue,
        };
        let share = even_range(rows.len() * cols.len(), level.group, rank % level.group);
        let buf = comm.pool().take_clear(share.len());
        let payload = flat_block_slice(mat, rows, cols, share, buf);
        // Send buffer + received share are both resident at the rendezvous;
        // together they are the post-exchange holding of this matrix (my
        // share + partner share), within the leaf footprint the holdings
        // grow into.
        let sent_len = payload.len() as u64;
        comm.track_alloc(sent_len);
        let partner = level.partner(rank);
        let got = comm.sendrecv(partner, partner, tag(leaf, li), payload, phase).await;
        comm.track_alloc(got.len() as u64);
        // The received share merges into this rank's holdings; the leaf
        // reads its operands from the initial distribution, so contents are
        // only checked for size here before the buffers are retired.
        debug_assert_eq!(got.len() as u64, level.down_words);
        comm.track_free(sent_len + got.len() as u64);
        comm.recycle(got);
    }

    // Leaf multiply: the leaf footprint |A| + |B| + |C| is the working set.
    // A and B are read in place; the C tile is leased from the world's
    // arena, so across DFS leaves (and across jobs on a warm serve pool) it
    // recycles the same storage instead of re-allocating per leaf.
    let brick = &tr.brick;
    let (lm, ln) = (brick.rows.len(), brick.cols.len());
    comm.track_alloc(footprint(brick) as u64);
    let mut c_leaf = Matrix::from_vec(lm, ln, comm.pool().take_zeroed(lm * ln));
    gemm_packed(
        a.view(brick.rows.clone(), brick.ks.clone()),
        b.view(brick.ks.clone(), brick.cols.clone()),
        &mut c_leaf,
    );
    comm.record_flops(2 * brick.volume());
    comm.track_free((footprint(brick) - lm * ln) as u64);

    // Upward: recursive-halving reduce-scatter over the k-splits. Partners
    // across a k-split have the same (rows, cols) leaf and the same nested
    // share structure, so exchanging opposite halves and adding yields the
    // summed share.
    let mut data = c_leaf.into_vec();
    let mut share = 0..data.len();
    for (li, level, kept) in unwind(&tr) {
        // Split the share in place at the halves' boundary — no copies: the
        // sent half leaves the working set with the message, the kept half
        // stays, and the received half is the only transient buffer.
        let mid = if level.upper { kept.start } else { kept.end };
        let upper_half = data.split_off(mid - share.start);
        let (payload, mut kept_words) = if level.upper {
            (data, upper_half)
        } else {
            (upper_half, data)
        };
        comm.track_free(payload.len() as u64);
        let partner = level.partner(rank);
        let got = comm
            .sendrecv(partner, partner, tag(leaf, li) + 1, payload, Phase::OutputC)
            .await;
        comm.track_alloc(got.len() as u64);
        assert_eq!(got.len(), kept_words.len(), "k-split reduce share mismatch");
        for (d, s) in kept_words.iter_mut().zip(&got) {
            *d += *s;
        }
        comm.record_flops(kept_words.len() as u64);
        comm.track_free(got.len() as u64);
        comm.recycle(got);
        (data, share) = (kept_words, kept);
    }
    // The fully reduced share streams back to the output distribution, so
    // its words leave the working set before the next leaf begins.
    comm.track_free(data.len() as u64);
    CPart {
        rows: tr.brick.rows,
        cols: tr.brick.cols,
        offset: share.start,
        data,
    }
}

/// The `share` words of the row-major flattening of `mat[rows, cols]`,
/// materialized into the (pooled) `buf` without building the whole block —
/// the descent exchanges buffer only the share being sent, which is what
/// keeps the streaming executor's working set at the leaf footprint.
fn flat_block_slice(
    mat: &Matrix,
    rows: &Range<usize>,
    cols: &Range<usize>,
    share: Range<usize>,
    mut buf: Vec<f64>,
) -> Vec<f64> {
    let w = cols.len();
    buf.extend(share.map(|f| mat.get(rows.start + f / w, cols.start + f % w)));
    buf
}

/// Tags: disjoint per `(leaf, level)` pair; `+ 1` marks the upward k-split
/// reduce exchange of the same level.
fn tag(leaf: usize, level: usize) -> u64 {
    1_000 + leaf as u64 * 1_000 + 2 * level as u64
}

/// CARMA as an [`MmmAlgorithm`]: requires `p = 2^L`.
///
/// Both memory regimes execute end-to-end: ample-memory problems run the
/// pure-BFS recursion (one leaf, one `CPart`), memory-starved problems
/// stream their sequential DFS leaves with leaf-sized buffers (one `CPart`
/// per leaf), keeping the measured working set within the plan's per-rank
/// memory figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CarmaAlgorithm;

impl MmmAlgorithm for CarmaAlgorithm {
    fn id(&self) -> AlgoId {
        AlgoId::Carma
    }

    fn supports(&self, prob: &MmmProblem) -> Result<(), PlanError> {
        RankRequirement::PowerOfTwo.check(AlgoId::Carma, prob.p)
    }

    fn plan_ranks(
        &self,
        prob: &MmmProblem,
        _machine: &CostModel,
        sink: &mut dyn FnMut(RankPlan),
    ) -> Result<PlanHeader, PlanError> {
        plan_ranks(prob, sink)
    }

    fn execute_rank<'a>(
        &'a self,
        comm: &'a mut RankComm,
        plan: &'a DistPlan,
        a: &'a Matrix,
        b: &'a Matrix,
    ) -> RankFuture<'a, Vec<CPart>> {
        Box::pin(execute(comm, plan, a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma::algorithm::assemble_c;
    use densemat::gemm::matmul;
    use mpsim::exec::{run_spmd_with, ExecBackend};
    use mpsim::machine::MachineSpec;

    fn check_carma(m: usize, n: usize, k: usize, p: usize, s: usize) -> DistPlan {
        let prob = MmmProblem::new(m, n, k, p, s);
        let dplan = plan(&prob).expect("plan");
        dplan.validate_coverage().expect("valid coverage");
        let a = Matrix::deterministic(m, k, 61);
        let b = Matrix::deterministic(k, n, 62);
        let want = matmul(&a, &b);
        let spec = MachineSpec::piz_daint_with_memory(p, s);
        let (dplan_r, a_r, b_r) = (&dplan, &a, &b);
        let out = run_spmd_with(&spec, ExecBackend::Event { threads: 2 }, |mut comm| async move {
            execute(&mut comm, dplan_r, a_r, b_r).await
        })
        .expect("two-thread run accepted");
        // Reassemble C through the production assembly path, which
        // accumulates: k-split DFS leaves contribute partial sums of the
        // same region.
        let c = assemble_c(out.results.into_iter().flatten(), m, n);
        assert!(
            want.approx_eq(&c, 1e-9),
            "{m}x{n}x{k} p={p}: wrong product, max diff {}",
            want.max_abs_diff(&c)
        );
        for (r, st) in out.stats.iter().enumerate() {
            assert_eq!(st.total_recv(), dplan.ranks[r].comm_words(), "rank {r} traffic");
            assert!(
                st.peak_mem_words <= dplan.ranks[r].mem_words.max(1),
                "rank {r} peaked at {} words, plan allows {}",
                st.peak_mem_words,
                dplan.ranks[r].mem_words
            );
        }
        dplan
    }

    #[test]
    fn carma_correct_square() {
        check_carma(16, 16, 16, 4, 1 << 12);
        check_carma(24, 24, 24, 8, 1 << 12);
        check_carma(17, 23, 29, 8, 1 << 12);
    }

    #[test]
    fn carma_correct_largek_all_ksplits() {
        // k >> m, n: every level splits k, exercising the reduce-scatter.
        let dplan = check_carma(4, 4, 256, 8, 1 << 12);
        // All active levels were k-splits: every rank's brick spans k/8.
        for rp in &dplan.ranks {
            assert_eq!(rp.bricks[0].ks.len(), 32);
        }
    }

    #[test]
    fn carma_correct_largem() {
        check_carma(256, 4, 4, 8, 1 << 12);
    }

    #[test]
    fn carma_correct_flat() {
        check_carma(64, 64, 4, 16, 1 << 12);
    }

    #[test]
    fn carma_single_rank() {
        check_carma(8, 9, 10, 1, 1 << 12);
    }

    #[test]
    fn carma_streams_dfs_leaves_under_tight_memory() {
        // 64^3 over 8 ranks: the pure-BFS leaf footprint is 3·32^2 = 3072
        // words, so S = 1024 forces a sequential DFS prefix — and the
        // streaming executor must still produce the exact product, the
        // plan's exact traffic, and a peak within the plan's memory figure.
        let prob = MmmProblem::new(64, 64, 64, 8, 1 << 10);
        assert!(dfs_leaf_count(&prob) > 1, "problem must be memory-starved");
        let dplan = check_carma(64, 64, 64, 8, 1 << 10);
        // The plan is memory-honest: every rank within S, so the *full*
        // validation (not just coverage) passes.
        dplan.validate().expect("streaming CARMA plan respects S");
        for rp in &dplan.ranks {
            assert_eq!(rp.bricks.len(), dfs_leaf_count(&prob));
        }
    }

    #[test]
    fn carma_streams_sequential_k_leaves() {
        // k >> m, n with tight memory: the DFS prefix splits k, so one rank
        // contributes partial sums of the same C region across leaves and
        // the accumulating reassembly is what makes the product right.
        let prob = MmmProblem::new(8, 8, 512, 4, 600);
        assert!(dfs_leaf_count(&prob) > 1);
        check_carma(8, 8, 512, 4, 600);
    }

    #[test]
    fn leaf_count_is_a_power_of_two_and_monotone_in_s() {
        for s_shift in 8..16 {
            let prob = MmmProblem::new(96, 80, 112, 8, 1 << s_shift);
            let leaves = dfs_leaf_count(&prob);
            assert!(leaves.is_power_of_two(), "S=2^{s_shift}: {leaves} leaves");
            let roomier = MmmProblem::new(96, 80, 112, 8, 1 << (s_shift + 1));
            assert!(dfs_leaf_count(&roomier) <= leaves, "more memory must not add DFS steps");
        }
    }

    #[test]
    fn non_power_of_two_rejected() {
        let prob = MmmProblem::new(16, 16, 16, 6, 1 << 12);
        assert!(matches!(
            plan(&prob),
            Err(PlanError::UnsupportedRanks {
                algo: AlgoId::Carma,
                p: 6,
                ..
            })
        ));
    }

    #[test]
    fn trace_halves_largest_dimension() {
        let volume = Brick {
            rows: 0..8,
            cols: 0..16,
            ks: 0..64,
        };
        let tr = trace_on(volume, 8, 0);
        assert_eq!(tr.levels[0].dim, SplitDim::K); // 64 largest
        assert_eq!(tr.levels[1].dim, SplitDim::K); // still 32 vs 8/16
        assert_eq!(tr.levels[2].dim, SplitDim::K); // tie k = n = 16 prefers k
        assert_eq!(tr.brick.ks.len(), 8);
    }

    #[test]
    fn bricks_tile_iteration_space() {
        for p in [1usize, 2, 4, 8, 16, 32] {
            let prob = MmmProblem::new(13, 21, 34, p, 1 << 12);
            let dplan = plan(&prob).unwrap();
            dplan.validate_coverage().unwrap_or_else(|e| panic!("p={p}: {e:?}"));
        }
    }

    #[test]
    fn share_arithmetic() {
        let shares: Vec<_> = (0..4).map(|i| even_range(10, 4, i)).collect();
        assert_eq!(shares, vec![0..3, 3..6, 6..8, 8..10]);
    }

    #[test]
    fn ample_memory_gives_pure_bfs() {
        // With leaf sets fitting S, CARMA is memory-oblivious: volumes are
        // identical across memory sizes and there is exactly one DFS leaf.
        let prob_big = MmmProblem::new(64, 64, 64, 8, 1 << 20);
        let prob_bigger = MmmProblem::new(64, 64, 64, 8, 1 << 24);
        assert_eq!(dfs_leaf_count(&prob_big), 1);
        let a = plan(&prob_big).unwrap();
        let b = plan(&prob_bigger).unwrap();
        assert_eq!(a.max_comm_words(), b.max_comm_words());
    }

    #[test]
    fn tight_memory_forces_dfs_refetching() {
        // The 64^3-over-8-ranks BFS leaf is ~2.3k words; S = 1024 forces
        // sequential DFS steps, which re-communicate and raise the volume.
        let tight = MmmProblem::new(64, 64, 64, 8, 1 << 10);
        let roomy = MmmProblem::new(64, 64, 64, 8, 1 << 20);
        assert!(dfs_leaf_count(&tight) > 1);
        let a = plan(&tight).unwrap();
        let b = plan(&roomy).unwrap();
        assert!(
            a.max_comm_words() > b.max_comm_words(),
            "DFS re-fetching must cost extra: {} vs {}",
            a.max_comm_words(),
            b.max_comm_words()
        );
        // Coverage still exact: DFS leaves tile the volume, and memory is
        // now respected.
        a.validate().unwrap();
    }
}
