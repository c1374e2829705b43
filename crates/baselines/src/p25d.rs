//! The 2.5D decomposition (Solomonik & Demmel 2011) — the CTF stand-in.
//!
//! `p = q² · c` ranks form the `q × q × c` [`Grid3`]: `c` replicated
//! "layers", each a Cannon-style `q × q` grid. Layer 0 owns the inputs; they
//! are broadcast along the grid's k-fibers (replication), then each layer
//! executes `q/c` of the `q` alignment positions (one long alignment shift +
//! `q/c − 1` unit shifts), and finally the partial C blocks are reduced back
//! onto layer 0 along the same fibers.
//! `c = 1` degenerates to Cannon's 2D algorithm, `c = q` to the 3D
//! algorithm of Agarwal et al.
//!
//! Like CTF, the planner accepts any rank count: it searches the feasible
//! `(q, c)` pairs with `q²c ≤ p` (idling the remainder) and picks the
//! modeled-time optimum — which, as the paper observes (§1, §9), may still
//! be far from the optimal decomposition for non-square problems.

use std::ops::Range;

use cosma::algorithm::{even_range, CPart};
use cosma::api::{AlgoId, MmmAlgorithm, PlanError, RankFuture};
use cosma::grid::Grid3;
use cosma::plan::{Brick, DistPlan, PlanHeader, RankPlan, Round, RoundsBuilder};
use cosma::problem::MmmProblem;
use densemat::gemm::gemm_packed;
use densemat::matrix::Matrix;
use mpsim::collectives::{bcast, reduce_recv_count, reduce_sum};
use mpsim::comm::RankComm;
use mpsim::cost::CostModel;
use mpsim::stats::Phase;

/// The chosen 2.5D geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry25 {
    /// Layer grid edge.
    pub q: usize,
    /// Number of replicated layers.
    pub c: usize,
}

impl Geometry25 {
    /// Ranks used: `q² · c`.
    pub fn used(&self) -> usize {
        self.q * self.q * self.c
    }

    /// Alignment positions per layer.
    pub fn steps(&self) -> usize {
        self.q / self.c
    }
}

/// Search the feasible `(q, c)` pairs for the optimum of the modeled time
/// under `model`: its γ and β weigh a layer's steps against replication,
/// its α the `2·steps + 3` messages.
pub fn choose_geometry(prob: &MmmProblem, model: &CostModel) -> Result<Geometry25, PlanError> {
    let mut best: Option<(f64, Geometry25)> = None;
    let qmax = (prob.p as f64).sqrt().floor() as usize;
    for q in 1..=qmax {
        if q > prob.m || q > prob.n || q > prob.k {
            continue;
        }
        for c in cosma::grid::divisors(q) {
            let geo = Geometry25 { q, c };
            if geo.used() > prob.p {
                continue;
            }
            let lm = prob.m.div_ceil(q);
            let ln = prob.n.div_ceil(q);
            let lk = prob.k.div_ceil(q);
            // The C tile plus panel-streamed shift buffers must fit; block
            // exchanges can always be subdivided into panels, so the buffer
            // floor is one double-buffered column/row pair (like COSMA and
            // SUMMA). Replication (c > 1) additionally keeps this rank's
            // copy of the A and B blocks resident — the memory cost that
            // bounds c at pS/(mk+nk).
            if lm * ln + 2 * (lm + ln) > prob.mem_words {
                continue;
            }
            if c > 1 && lm * ln + lm * lk + lk * ln + 2 * (lm + ln) > prob.mem_words {
                continue;
            }
            let block_in = (lm * lk + lk * ln) as u64;
            let repl = if c > 1 { block_in + (lm * ln) as u64 } else { 0 };
            let comm = geo.steps() as u64 * block_in + repl;
            let msgs = 2 * geo.steps() as u64 + 3;
            let flops = 2 * (lm * ln) as u64 * (lk * geo.steps()) as u64;
            let score = model.compute_time(flops) + model.comm_time(comm, msgs);
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, geo));
            }
        }
    }
    best.map(|(_, g)| g).ok_or(PlanError::NoFeasibleGrid)
}

/// Build the 2.5D [`DistPlan`] with the geometry chosen under the
/// Piz-Daint-like default model: [`plan_ranks`], collected.
pub fn plan(prob: &MmmProblem) -> Result<DistPlan, PlanError> {
    let geo = choose_geometry(prob, &CostModel::piz_daint_two_sided())?;
    DistPlan::collect(|sink| plan_ranks(prob, geo, sink))
}

/// The 2.5D plan for an explicit geometry as a rank stream: every rank's
/// plan handed to `sink` in rank order, then the header. A forced geometry
/// (the Fig. 3 experiment's *naive* top-down 3D split `c = q`, planned under
/// exactly the same accounting as COSMA) comes through
/// [`P25dAlgorithm::with_geometry`].
///
/// # Panics
/// Panics if the geometry does not satisfy `q²c ≤ p` and `c | q`.
pub fn plan_ranks(
    prob: &MmmProblem,
    geo: Geometry25,
    sink: &mut dyn FnMut(RankPlan),
) -> Result<PlanHeader, PlanError> {
    assert!(geo.used() <= prob.p, "geometry exceeds rank count");
    assert!(geo.c >= 1 && geo.q.is_multiple_of(geo.c), "c must divide q");
    let (q, c) = (geo.q, geo.c);
    let grid = Grid3 { gm: q, gn: q, gk: c };
    let mut rounds = RoundsBuilder::default();
    for rank in 0..prob.p {
        if rank >= grid.size() {
            sink(RankPlan::idle(rank));
            continue;
        }
        let (i, j, l) = grid.coords_of(rank);
        let rows = even_range(prob.m, q, i);
        let cols = even_range(prob.n, q, j);
        let (lm, ln) = (rows.len(), cols.len());
        let own_lk_j = even_range(prob.k, q, j).len();
        let own_lk_i = even_range(prob.k, q, i).len();
        let mut bricks = Vec::with_capacity(geo.steps());
        // Replication of layer 0's blocks along the k-fiber.
        if c > 1 {
            let recv = if l == 0 {
                0
            } else {
                (lm * own_lk_j + own_lk_i * ln) as u64
            };
            rounds.push(Round {
                a_words: if l == 0 { 0 } else { (lm * own_lk_j) as u64 },
                b_words: if l == 0 { 0 } else { (own_lk_i * ln) as u64 },
                c_words: 0,
                msgs: if recv == 0 { 0 } else { 2 },
                flops: 0,
            });
        }
        for (ks, round) in layer_steps(prob, geo, [i, j, l]) {
            bricks.push(Brick {
                rows: rows.clone(),
                cols: cols.clone(),
                ks,
            });
            rounds.push(round);
        }
        // Reduction of partial C onto layer 0.
        if c > 1 {
            let recvs = reduce_recv_count(l, c);
            let c_words = recvs * (lm * ln) as u64;
            rounds.push(Round {
                a_words: 0,
                b_words: 0,
                c_words,
                msgs: recvs,
                flops: c_words,
            });
        }
        let lk_max = prob.k.div_ceil(q);
        // Panel-streamed working set (execution at test scale exchanges
        // whole blocks, but at paper scale the shifts are subdivided).
        let replica = if c > 1 { lm * lk_max + lk_max * ln } else { 0 };
        let mem_words = (lm * ln + replica + 2 * (lm + ln)) as u64;
        sink(RankPlan {
            rank,
            active: true,
            coords: [i, j, l],
            bricks,
            rounds: rounds.take(),
            mem_words,
        });
    }
    Ok(PlanHeader {
        algo: AlgoId::P25d,
        problem: *prob,
        grid: [q, q, c],
    })
}

/// The multiply-shift steps of rank `(i, j)` on layer `l`: each step's
/// k-range and the round that brings its A and B blocks. Step `s` multiplies
/// alignment position `t = (i + j + l·steps + s) mod q`; step 0 receives
/// through the alignment permutation (nothing for a block the rank already
/// owns, so a one-rank layer sends no message), every later step through a
/// unit shift. Cannon's rounds are layer 0 of `c = 1`.
pub(crate) fn layer_steps(
    prob: &MmmProblem,
    geo: Geometry25,
    [i, j, l]: [usize; 3],
) -> impl Iterator<Item = (Range<usize>, Round)> + '_ {
    let (q, step) = (geo.q, geo.steps());
    let (lm, ln) = (even_range(prob.m, q, i).len(), even_range(prob.n, q, j).len());
    (0..step).map(move |s| {
        let t = (i + j + l * step + s) % q;
        let ks = even_range(prob.k, q, t);
        let lk_t = ks.len();
        let (a_words, b_words, msgs) = if s == 0 {
            let a = if t == j { 0 } else { (lm * lk_t) as u64 };
            let b = if t == i { 0 } else { (lk_t * ln) as u64 };
            (a, b, u64::from(t != j) + u64::from(t != i))
        } else {
            ((lm * lk_t) as u64, (lk_t * ln) as u64, 2)
        };
        let round = Round {
            a_words,
            b_words,
            c_words: 0,
            msgs,
            flops: 2 * (lm * ln * lk_t) as u64,
        };
        (ks, round)
    })
}

/// Execute a 2.5D plan on the calling rank. A layer-0 rank returns its C
/// block; other layers (and idle ranks) hold no output. With `c = 1` this
/// is Cannon's rank body, which [`crate::cannon::CannonAlgorithm`] runs.
pub async fn execute(comm: &mut RankComm, plan: &DistPlan, a: &Matrix, b: &Matrix) -> Vec<CPart> {
    assert_eq!(plan.problem.p, comm.size(), "plan/world size mismatch");
    let prob = &plan.problem;
    let grid = Grid3::from(plan.grid);
    let (q, c, step) = (grid.gm, grid.gk, grid.gm / grid.gk);
    let rank = comm.rank();
    if rank >= grid.size() {
        return Vec::new();
    }
    let (i, j, l) = grid.coords_of(rank);
    let rows = even_range(prob.m, q, i);
    let cols = even_range(prob.n, q, j);
    let (lm, ln) = (rows.len(), cols.len());

    // Replication: layer 0 materializes its blocks, then broadcasts along
    // the k-fiber.
    let mut a_cur = if l == 0 {
        a.block(rows.clone(), even_range(prob.k, q, j)).into_vec()
    } else {
        Vec::new()
    };
    let mut b_cur = if l == 0 {
        b.block(even_range(prob.k, q, i), cols.clone()).into_vec()
    } else {
        Vec::new()
    };
    if c > 1 {
        bcast(comm, grid.k_fiber(i, j), 0, &mut a_cur, 0, Phase::InputA).await;
        bcast(comm, grid.k_fiber(i, j), 0, &mut b_cur, 1, Phase::InputB).await;
    }

    // Alignment permutation within the layer.
    let off = l * step;
    let t0 = (i + j + off) % q;
    if t0 != j {
        // My A(i, j) is needed by (i, j') with (i + j' + off) % q == j.
        let jp = (j + 2 * q - i % q - off % q) % q;
        let dst = grid.rank_of(i, jp, l);
        let src = grid.rank_of(i, t0, l);
        a_cur = comm.sendrecv(dst, src, 2, a_cur, Phase::InputA).await;
    }
    if t0 != i {
        let ip = (i + 2 * q - j % q - off % q) % q;
        let dst = grid.rank_of(ip, j, l);
        let src = grid.rank_of(t0, j, l);
        b_cur = comm.sendrecv(dst, src, 3, b_cur, Phase::InputB).await;
    }

    let mut c_local = Matrix::zeros(lm, ln);
    comm.track_alloc((lm * ln) as u64);
    for s in 0..step {
        let t = (i + j + off + s) % q;
        let lk_t = even_range(prob.k, q, t).len();
        // The live panels move into `Matrix` form for the multiply and back
        // out for the shift: no copy, nothing taken from the arena.
        let ap = Matrix::from_vec(lm, lk_t, a_cur);
        let bp = Matrix::from_vec(lk_t, ln, b_cur);
        gemm_packed(&ap, &bp, &mut c_local);
        comm.record_flops(2 * (lm * ln * lk_t) as u64);
        (a_cur, b_cur) = (ap.into_vec(), bp.into_vec());
        if s + 1 < step {
            let a_dst = grid.rank_of(i, (j + q - 1) % q, l);
            let a_src = grid.rank_of(i, (j + 1) % q, l);
            a_cur = comm.sendrecv(a_dst, a_src, 4 + 2 * s as u64, a_cur, Phase::InputA).await;
            let b_dst = grid.rank_of((i + q - 1) % q, j, l);
            let b_src = grid.rank_of((i + 1) % q, j, l);
            b_cur = comm.sendrecv(b_dst, b_src, 5 + 2 * s as u64, b_cur, Phase::InputB).await;
        }
    }

    // Reduce partial C onto layer 0.
    if c > 1 {
        let mut data = c_local.into_vec();
        reduce_sum(comm, grid.k_fiber(i, j), 0, &mut data, 99, Phase::OutputC).await;
        let recvs = reduce_recv_count(l, c);
        comm.record_flops(recvs * (lm * ln) as u64);
        if l != 0 {
            return Vec::new();
        }
        c_local = Matrix::from_vec(lm, ln, data);
    }
    vec![CPart {
        rows,
        cols,
        offset: 0,
        data: c_local.into_vec(),
    }]
}

/// The 2.5D decomposition as an [`MmmAlgorithm`].
///
/// By default the `(q, c)` geometry is auto-tuned like CTF; a forced
/// geometry (used by the Figure 3 experiment to measure the naive top-down
/// 3D split `c = q` under identical accounting) can be injected with
/// [`P25dAlgorithm::with_geometry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct P25dAlgorithm {
    /// Forced geometry; `None` auto-tunes.
    pub geometry: Option<Geometry25>,
}

impl P25dAlgorithm {
    /// A 2.5D instance with a pinned `(q, c)` geometry.
    pub fn with_geometry(geo: Geometry25) -> Self {
        P25dAlgorithm { geometry: Some(geo) }
    }
}

impl MmmAlgorithm for P25dAlgorithm {
    fn id(&self) -> AlgoId {
        AlgoId::P25d
    }

    fn plan_ranks(
        &self,
        prob: &MmmProblem,
        machine: &CostModel,
        sink: &mut dyn FnMut(RankPlan),
    ) -> Result<PlanHeader, PlanError> {
        match self.geometry {
            None => plan_ranks(prob, choose_geometry(prob, machine)?, sink),
            Some(geo) => {
                if geo.q == 0 || geo.c == 0 || geo.used() > prob.p || geo.q % geo.c != 0 {
                    return Err(PlanError::InvalidConfig {
                        algo: AlgoId::P25d,
                        reason: "forced geometry needs q ≥ 1, q²c ≤ p and c | q",
                    });
                }
                plan_ranks(prob, geo, sink)
            }
        }
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

    fn check_p25d(m: usize, n: usize, k: usize, p: usize, s: usize) -> DistPlan {
        let prob = MmmProblem::new(m, n, k, p, s);
        let dplan = plan(&prob).expect("plan");
        dplan.validate().expect("valid plan");
        let a = Matrix::deterministic(m, k, 51);
        let b = Matrix::deterministic(k, n, 52);
        let want = matmul(&a, &b);
        let spec = MachineSpec::piz_daint_with_memory(p, s);
        let (dplan_r, a_r, b_r) = (&dplan, &a, &b);
        let out = run_spmd_with(&spec, ExecBackend::Event { threads: 2 }, |mut comm| async move {
            execute(&mut comm, dplan_r, a_r, b_r).await
        })
        .expect("two-thread run accepted");
        let c = assemble_c(out.results.into_iter().flatten(), m, n);
        assert!(
            want.approx_eq(&c, 1e-9),
            "{m}x{n}x{k} p={p}: wrong product, max diff {}",
            want.max_abs_diff(&c)
        );
        for (r, st) in out.stats.iter().enumerate() {
            assert_eq!(st.total_recv(), dplan.ranks[r].comm_words(), "rank {r} traffic");
        }
        dplan
    }

    #[test]
    fn p25d_correct_with_replication() {
        // p = 8 with ample memory: 2x2x2 replicated geometry must appear.
        let dplan = check_p25d(16, 16, 16, 8, 1 << 14);
        assert!(dplan.grid[2] >= 1);
    }

    #[test]
    fn p25d_correct_various() {
        check_p25d(24, 20, 28, 8, 1 << 14);
        check_p25d(16, 16, 16, 12, 1 << 14); // q=2,c=2 uses 8 of 12
        check_p25d(17, 19, 23, 16, 1 << 14);
        check_p25d(9, 9, 81, 27, 1 << 12); // 3D-ish
    }

    #[test]
    fn cannon_and_p25d_steps_take_nothing_from_the_arena() {
        let takes = |algo: &dyn MmmAlgorithm, p: usize| {
            let prob = MmmProblem::new(24, 24, 24, p, 1 << 14);
            let plan = algo.plan(&prob, &CostModel::piz_daint_two_sided()).unwrap();
            let a = Matrix::deterministic(prob.m, prob.k, 51);
            let b = Matrix::deterministic(prob.k, prob.n, 52);
            let spec = MachineSpec::piz_daint_with_memory(p, prob.mem_words);
            let report = cosma::api::execute_boxed(algo, &plan, &spec, ExecBackend::event(), &a, &b).unwrap();
            assert!(matmul(&a, &b).approx_eq(&report.c, 1e-9));
            report.pool.hits + report.pool.misses
        };
        // The panels pass through the multiply and the shift rings by value.
        assert_eq!(takes(&crate::cannon::CannonAlgorithm, 16), 0);
        let layers = |q, c| P25dAlgorithm::with_geometry(Geometry25 { q, c });
        assert_eq!(takes(&layers(4, 1), 16), 0);
        // With c > 1 only the replication broadcast and the reduction lease,
        // the same per k-fiber however many steps run between them: q = 4
        // has four times the fibers of q = 2 and twice its steps.
        let one_step = takes(&layers(2, 2), 8);
        assert!(one_step > 0);
        assert_eq!(takes(&layers(4, 2), 32), 4 * one_step);
    }

    #[test]
    fn p25d_single_rank() {
        check_p25d(8, 9, 10, 1, 1 << 12);
    }

    #[test]
    fn limited_memory_forces_c1() {
        // Memory for the q = 4 blocks only: any c > 1 would shrink q and
        // blow the block working set past S.
        let prob = MmmProblem::new(64, 64, 64, 16, 1400);
        let geo = choose_geometry(&prob, &CostModel::piz_daint_two_sided()).unwrap();
        assert_eq!(geo.c, 1, "tight memory must disable replication, got {geo:?}");
    }

    #[test]
    fn extra_memory_enables_replication() {
        // Replication amortizes at scale: p = 4096 square with huge memory.
        let prob = MmmProblem::new(4096, 4096, 4096, 4096, 1 << 26);
        let geo = choose_geometry(&prob, &CostModel::piz_daint_two_sided()).unwrap();
        assert!(geo.c > 1, "ample memory should replicate, got {geo:?}");
    }

    #[test]
    fn geometry_is_chosen_under_the_callers_model() {
        // Latency enters the score through the 2·steps + 3 messages: at
        // α = 10 ms the 4 × 4 × 4 cube (two steps a layer) beats the 8 × 8
        // layer's eight, 0.269 s to 0.380 s; under the default model the
        // layer wins, 0.190 s to 0.219 s.
        let prob = MmmProblem::new(4096, 4096, 4096, 64, 1 << 23);
        let default = CostModel::piz_daint_two_sided();
        let slow = CostModel {
            alpha_s: 1e-2,
            ..default
        };
        let grid = |model: &CostModel| P25dAlgorithm::default().plan(&prob, model).unwrap().grid;
        assert_eq!(grid(&slow), [4, 4, 4]);
        assert_eq!(grid(&default), [8, 8, 1]);
        assert_eq!(plan(&prob).unwrap().grid, [8, 8, 1]);
    }

    #[test]
    fn geometry_covers_alignments_exactly() {
        // For fixed (i, j), the layers' alignment positions partition 0..q.
        let geo = Geometry25 { q: 6, c: 2 };
        let (i, j) = (2, 3);
        let mut seen = [false; 6];
        for l in 0..geo.c {
            for s in 0..geo.steps() {
                let t = (i + j + l * geo.steps() + s) % geo.q;
                assert!(!seen[t], "alignment {t} covered twice");
                seen[t] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn forced_degenerate_geometry_is_an_error_not_a_panic() {
        use cosma::api::{MmmAlgorithm, PlanError};
        let prob = MmmProblem::new(16, 16, 16, 8, 1 << 14);
        let model = mpsim::cost::CostModel::piz_daint_two_sided();
        for geo in [
            Geometry25 { q: 0, c: 1 },
            Geometry25 { q: 4, c: 3 },
            Geometry25 { q: 4, c: 1 },
        ] {
            let algo = P25dAlgorithm::with_geometry(geo);
            if geo.q == 4 && geo.c == 1 {
                continue; // q²c = 16 > p = 8 is covered below
            }
            assert!(
                matches!(algo.plan(&prob, &model), Err(PlanError::InvalidConfig { .. })),
                "{geo:?} must be rejected"
            );
        }
        let too_big = P25dAlgorithm::with_geometry(Geometry25 { q: 4, c: 1 });
        assert!(matches!(too_big.plan(&prob, &model), Err(PlanError::InvalidConfig { .. })));
    }

    #[test]
    fn infeasible_memory_reported() {
        let prob = MmmProblem::new(1000, 1000, 1000, 4, 50);
        assert_eq!(plan(&prob), Err(PlanError::NoFeasibleGrid));
    }
}
