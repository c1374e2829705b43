//! Property-based tests over the core invariants: random problems always
//! yield valid plans; random tile shapes always yield legal pebble schedules
//! whose measured I/O matches the closed form; random layouts always
//! round-trip.
//!
//! The container has no registry access, so instead of an external
//! property-testing crate the cases are drawn from a deterministic
//! splitmix64 generator — every run exercises the same reproducible sample.

mod common;

use cosma::algorithm::{even_owner, even_range};
use cosma::api::{AlgoId, PlanError, RunSession};
use cosma::plan::{RankPlan, Round, Rounds, RoundsBuilder, Scoring};
use cosma::problem::MmmProblem;
use densemat::layout::{gather, scatter, BlockCyclic, BlockedLayout};
use densemat::matrix::Matrix;
use mpsim::cost::CostModel;
use mpsim::exec::{run_spmd_with, ExecBackend};
use mpsim::machine::MachineSpec;
use mpsim::stats::Phase;
use pebbles::bounds::{theorem1_lower_bound, tiled_io};
use pebbles::game::validate_complete;
use pebbles::greedy::{tiled_capacity, tiled_moves};
use pebbles::mmm::MmmCdag;

/// Cases per property (mirrors the old proptest configuration).
const CASES: u64 = 48;

/// Deterministic splitmix64 generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi);
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

#[test]
fn even_range_is_even_splits_in_closed_form() {
    for total in 0..=64usize {
        for parts in 1..=64usize {
            let splits = densemat::layout::even_splits(total, parts);
            for idx in 0..parts {
                assert_eq!(
                    even_range(total, parts, idx),
                    splits[idx]..splits[idx + 1],
                    "{total}/{parts} piece {idx}"
                );
            }
        }
    }
    // `even_owner` is its inverse: the piece it names holds the coordinate.
    for total in 0..=200usize {
        for parts in 1..=64usize {
            for x in 0..total {
                let owner = even_owner(total, parts, x);
                assert!(even_range(total, parts, owner).contains(&x), "{total}/{parts} x={x} owner={owner}");
            }
        }
    }
}

#[test]
fn even_range_partitions_exactly() {
    let mut rng = Rng::new(1);
    for _ in 0..CASES {
        let total = rng.range(1, 5000);
        let parts = rng.range(1, 64);
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for idx in 0..parts {
            let r = even_range(total, parts, idx);
            assert_eq!(r.start, prev_end);
            prev_end = r.end;
            covered += r.len();
            // Balanced: sizes differ by at most one.
            assert!(r.len() >= total / parts);
            assert!(r.len() <= total.div_ceil(parts));
        }
        assert_eq!(covered, total);
        assert_eq!(prev_end, total);
    }
}

/// A round of the sizes a plan holds: communication and computation of the
/// same order, so that with overlap either one can hide the other.
fn draw_round(rng: &mut Rng) -> Round {
    Round {
        a_words: rng.range(0, 1 << 20) as u64,
        b_words: rng.range(0, 1 << 20) as u64,
        c_words: rng.range(0, 1 << 12) as u64,
        msgs: rng.range(0, 64) as u64,
        flops: rng.range(0, 1 << 31) as u64,
    }
}

/// A generated round sequence, by `kind`: empty, one round over and over,
/// no two neighbours equal, or runs drawn from a palette of three rounds
/// (neighbouring runs may draw the same one, and then make one run).
fn round_sequence(rng: &mut Rng, kind: u64) -> Vec<Round> {
    match kind {
        0 => Vec::new(),
        1 => vec![draw_round(rng); rng.range(1, 5000)],
        2 => (0..rng.range(1, 300))
            .map(|i| Round {
                msgs: i as u64,
                ..draw_round(rng)
            })
            .collect(),
        _ => {
            let palette = [draw_round(rng), draw_round(rng), Round::default()];
            let mut seq = Vec::new();
            for _ in 0..rng.range(1, 40) {
                let round = palette[rng.range(0, palette.len())];
                seq.extend(std::iter::repeat_n(round, rng.range(1, 13)));
            }
            seq
        }
    }
}

#[test]
fn rounds_are_the_canonical_runs_of_their_sequence() {
    let model = CostModel::piz_daint_two_sided();
    let one_rank = MmmProblem::new(1, 1, 1, 1, 1);
    let bits = |t: mpsim::TimeBreakdown| [t.compute_s, t.exposed_comm_s, t.total_comm_s].map(f64::to_bits);
    let mut rng = Rng::new(44);
    // One builder for every case, as a planner keeps one for every rank.
    let mut builder = RoundsBuilder::default();
    let mut before: (Vec<Round>, Rounds) = (Vec::new(), Rounds::default());
    for case in 0..4 * CASES {
        let seq = round_sequence(&mut rng, case % 4);
        builder.extend(seq.iter().copied());
        let rounds = builder.take();
        let at = format!("case {case} ({} rounds)", seq.len());
        assert_eq!(rounds.iter().copied().collect::<Vec<_>>(), seq, "{at}");
        assert_eq!(rounds.iter().len(), seq.len(), "{at}");
        // Canonical: no empty run, no two neighbouring runs alike, so equal
        // `Rounds` are equal sequences and the other way round.
        let runs = rounds.runs();
        assert!(runs.iter().all(|run| run.count > 0), "{at}: an empty run");
        assert!(runs.windows(2).all(|w| w[0].round != w[1].round), "{at}: runs not merged");
        assert_eq!(rounds == before.1, seq == before.0, "{at}");
        builder.extend(seq.iter().copied());
        builder.push(seq.last().copied().unwrap_or_default());
        assert_ne!(rounds, builder.take(), "{at}: one round longer");
        // Totals a run at a time are the sums a round at a time.
        let rank = RankPlan {
            active: true,
            rounds,
            ..RankPlan::idle(0)
        };
        assert_eq!(rank.comm_words(), seq.iter().map(Round::words).sum::<u64>(), "{at}");
        assert_eq!(rank.comm_msgs(), seq.iter().map(|r| r.msgs).sum::<u64>(), "{at}");
        assert_eq!(rank.flops(), seq.iter().map(|r| r.flops).sum::<u64>(), "{at}");
        // The scoring fold prices each run once; its time is, bit for bit,
        // the rounds' priced one by one.
        for overlap in [true, false] {
            let mut scoring = Scoring::new(&model, overlap);
            scoring.absorb(&rank);
            let report = scoring.finish(&one_rank);
            let per_round = common::time_breakdown(&rank, &model, overlap);
            assert_eq!(bits(report.critical), bits(per_round), "{at}, overlap {overlap}");
            assert_eq!(report.time_s.to_bits(), per_round.total_s().to_bits(), "{at}, overlap {overlap}");
        }
        before = (seq, rank.rounds);
    }
}

#[test]
fn cosma_plans_always_valid() {
    let mut rng = Rng::new(2);
    for _ in 0..CASES {
        let m = rng.range(1, 80);
        let n = rng.range(1, 80);
        let k = rng.range(1, 80);
        let p = rng.range(1, 24);
        // Guarantee feasibility: enough memory for the full C tile plus
        // buffers, scaled up randomly.
        let s = m * n + 2 * (m + n) + 16 + rng.range(0, 4000);
        let prob = MmmProblem::new(m, n, k, p, s);
        let plan = RunSession::new(prob)
            .machine(CostModel::piz_daint_two_sided())
            .plan()
            .expect("feasible problem must plan");
        assert!(plan.validate().is_ok(), "{:?}", plan.validate());
        let total: u64 = plan.ranks.iter().map(|r| r.volume()).sum();
        assert_eq!(total, prob.volume());
    }
}

#[test]
fn carma_plans_cover_space() {
    let reg = baselines::registry();
    let model = CostModel::piz_daint_two_sided();
    let carma = reg.by_id(AlgoId::Carma).unwrap();
    let mut rng = Rng::new(3);
    for _ in 0..CASES {
        let m = rng.range(1, 64);
        let n = rng.range(1, 64);
        let k = rng.range(1, 64);
        let p = 1usize << rng.range(0, 6);
        let prob = MmmProblem::new(m, n, k, p, 1 << 20);
        let plan = carma.plan(&prob, &model).unwrap();
        assert!(plan.validate_coverage().is_ok());
    }
}

/// DFS schedule invariants under random problems: the level-synchronous
/// sequential descent always yields a power-of-two leaf count, and giving
/// ranks more memory never adds DFS steps (monotone non-increasing in `S`).
#[test]
fn carma_dfs_leaf_count_invariants() {
    use baselines::carma::dfs_leaf_count;
    let mut rng = Rng::new(14);
    for _ in 0..CASES {
        let m = rng.range(8, 96);
        let n = rng.range(8, 96);
        let k = rng.range(8, 96);
        let p = 1usize << rng.range(0, 6);
        // Budgets from starved to ample, descending by random factors.
        let mut budgets: Vec<usize> = (0..4).map(|_| rng.range(64, 4 * m * n)).collect();
        budgets.sort_unstable_by(|a, b| b.cmp(a));
        let mut prev_leaves = 0usize;
        for s in budgets {
            let leaves = dfs_leaf_count(&MmmProblem::new(m, n, k, p, s));
            assert!(leaves.is_power_of_two(), "{m}x{n}x{k} p={p} S={s}: {leaves} leaves");
            assert!(
                leaves >= prev_leaves,
                "{m}x{n}x{k} p={p}: shrinking S from removed DFS steps ({prev_leaves} -> {leaves})"
            );
            prev_leaves = leaves;
        }
    }
}

/// Memory-starved CARMA on the event backend: for random problems whose
/// pure-BFS leaf working set exceeds a randomly drawn `S`, the streaming
/// executor completes under an *enforced* budget with `peak_mem_words ≤ S`,
/// plan-exact traffic and the right product.
#[test]
fn carma_streaming_respects_memory_on_event_backend() {
    use baselines::carma::dfs_leaf_count;
    use cosma::api::execute_boxed;
    use densemat::gemm::matmul;
    let carma = baselines::registry().by_id(AlgoId::Carma).unwrap();
    let model = CostModel::piz_daint_two_sided();
    let mut rng = Rng::new(15);
    let mut starved = 0usize;
    for _ in 0..12 {
        let m = rng.range(16, 56);
        let n = rng.range(16, 56);
        let k = rng.range(16, 56);
        let p = 1usize << rng.range(1, 4);
        // The pure-BFS leaf footprint of this instance: draw S at or below
        // it so most cases are memory-starved, but keep headroom for the
        // DFS descent to terminate by fitting.
        let ample = MmmProblem::new(m, n, k, p, 1 << 28);
        let bfs_footprint = carma
            .plan(&ample, &model)
            .unwrap()
            .ranks
            .iter()
            .map(|r| r.mem_words)
            .max()
            .unwrap() as usize;
        let s = rng.range(bfs_footprint.div_ceil(3).max(16), bfs_footprint.max(17) + 1);
        let prob = MmmProblem::new(m, n, k, p, s);
        let plan = carma.plan(&prob, &model).unwrap();
        assert!(plan.validate().is_ok(), "{m}x{n}x{k} p={p} S={s}: DFS plan must be memory-honest");
        starved += usize::from(dfs_leaf_count(&prob) > 1);
        let a = Matrix::deterministic(m, k, 81);
        let b = Matrix::deterministic(k, n, 82);
        let spec = MachineSpec::piz_daint_with_memory(p, s).enforcing_memory();
        let report = execute_boxed(carma.as_ref(), &plan, &spec, ExecBackend::event(), &a, &b)
            .unwrap_or_else(|e| panic!("{m}x{n}x{k} p={p} S={s}: {e}"));
        assert!(matmul(&a, &b).approx_eq(&report.c, 1e-9), "{m}x{n}x{k} p={p} S={s}: wrong product");
        for (r, st) in report.stats.iter().enumerate() {
            assert_eq!(
                st.total_recv(),
                plan.ranks[r].comm_words(),
                "{m}x{n}x{k} p={p} S={s}: rank {r} traffic"
            );
            assert!(st.peak_mem_words <= s as u64, "{m}x{n}x{k} p={p} S={s}: rank {r} peak");
        }
    }
    assert!(starved >= 6, "only {starved}/12 cases were memory-starved — weak sample");
}

#[test]
fn summa_plans_cover_space() {
    let reg = baselines::registry();
    let model = CostModel::piz_daint_two_sided();
    let summa = reg.by_id(AlgoId::Summa).unwrap();
    let mut rng = Rng::new(4);
    let mut cases = 0;
    while cases < CASES {
        let m = rng.range(2, 64);
        let n = rng.range(2, 64);
        let k = rng.range(2, 64);
        let p = rng.range(1, 17);
        // SUMMA needs a gm x gn = p grid no finer than the C matrix.
        if m * n < p {
            continue;
        }
        cases += 1;
        let prob = MmmProblem::new(m, n, k, p, 1 << 20);
        match summa.plan(&prob, &model) {
            Ok(plan) => assert!(plan.validate().is_ok()),
            // p may still not factor into gm <= m, gn <= n (e.g. p = 13,
            // m = 2): a reported infeasibility is acceptable, silence not.
            Err(e) => assert_eq!(e, PlanError::NoFeasibleGrid),
        }
    }
}

#[test]
fn tiled_pebbling_valid_and_io_exact() {
    let mut rng = Rng::new(5);
    for _ in 0..CASES {
        let m = rng.range(1, 10);
        let n = rng.range(1, 10);
        let k = rng.range(1, 8);
        let a = rng.range(1, 5);
        let b = rng.range(1, 5);
        let g = MmmCdag::new(m, n, k);
        let moves = tiled_moves(&g, a, b);
        let io = validate_complete(g.graph(), tiled_capacity(a, b), &moves)
            .expect("generated schedule must be legal");
        assert_eq!(io, tiled_io(m, n, k, a, b));
        assert!(io as f64 >= theorem1_lower_bound(m, n, k, tiled_capacity(a, b)) - (m * n) as f64 - 1.0);
    }
}

#[test]
fn block_cyclic_roundtrip() {
    let mut rng = Rng::new(6);
    for _ in 0..CASES {
        let rows = rng.range(1, 40);
        let cols = rng.range(1, 40);
        let rb = rng.range(1, 8);
        let cb = rng.range(1, 8);
        let pr = rng.range(1, 5);
        let pc = rng.range(1, 5);
        let m = Matrix::deterministic(rows, cols, 99);
        let bc = BlockCyclic::new(rows, cols, rb, cb, pr, pc);
        let locals = scatter(&bc, &m);
        assert_eq!(locals.iter().map(Vec::len).sum::<usize>(), rows * cols);
        let back = gather(&bc, &locals);
        assert_eq!(back, m);
    }
}

#[test]
fn blocked_layout_roundtrip() {
    let mut rng = Rng::new(7);
    for _ in 0..CASES {
        let rows = rng.range(1, 40);
        let cols = rng.range(1, 40);
        let gr = rng.range(1, 6).min(rows);
        let gc = rng.range(1, 6).min(cols);
        let m = Matrix::deterministic(rows, cols, 7);
        let bl = BlockedLayout::even_grid(rows, cols, gr, gc);
        let back = gather(&bl, &scatter(&bl, &m));
        assert_eq!(back, m);
        // Every rank owns a contiguous block whose size is balanced.
        for r in 0..gr * gc {
            let (rs, cs) = bl.block_of(r).expect("one block per rank");
            assert!(rs.len() >= rows / gr && rs.len() <= rows.div_ceil(gr));
            assert!(cs.len() >= cols / gc && cs.len() <= cols.div_ceil(gc));
        }
    }
}

#[test]
fn gemm_kernels_agree() {
    use densemat::gemm::{gemm_naive, gemm_packed};
    let mut rng = Rng::new(8);
    for _ in 0..CASES {
        // m and n cross twice the widest register tile (8x24).
        let m = rng.range(1, 80);
        let n = rng.range(1, 80);
        let k = rng.range(1, 48);
        let a = Matrix::deterministic(m, k, 1);
        let b = Matrix::deterministic(k, n, 2);
        let mut c0 = Matrix::zeros(m, n);
        let mut c1 = Matrix::zeros(m, n);
        gemm_naive(&a, &b, &mut c0);
        gemm_packed(&a, &b, &mut c1);
        // The packed kernel keeps the naive k-order, so it agrees bitwise,
        // not just approximately.
        assert!(
            c0.as_slice().iter().zip(c1.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{m}x{n}x{k}: packed diverges bitwise from naive"
        );
    }
}

/// Shared scheduler workload for the no-deadlock/no-reorder properties:
/// send `msgs` messages along every offset, then receive them all and check
/// per-`(sender, tag)` FIFO delivery.
async fn offset_exchange(mut c: mpsim::RankComm, offs: &[usize], msgs: usize) -> bool {
    let p = c.size();
    for (t, &d) in offs.iter().enumerate() {
        let to = (c.rank() + d) % p;
        for s in 0..msgs {
            c.send(to, t as u64, vec![c.rank() as f64, s as f64], Phase::Other);
        }
    }
    let mut in_order = true;
    for (t, &d) in offs.iter().enumerate() {
        let from = (c.rank() + p - d) % p;
        for s in 0..msgs {
            let got = c.recv(from, t as u64, Phase::Other).await;
            in_order &= got == vec![from as f64, s as f64];
        }
    }
    c.barrier().await;
    in_order
}

/// The event scheduler under random world sizes and thread counts: every
/// world completes (no deadlock — parked ranks must always yield their
/// scheduler turn), and matched send/recv pairs are delivered in send order
/// per `(sender, tag)` even when ranks are parked and resumed between
/// messages, within a region and across regions.
#[test]
fn schedulers_never_deadlock_or_reorder() {
    let mut rng = Rng::new(10);
    for case in 0..16 {
        let p = rng.range(2, 48);
        let threads = rng.range(1, 9);
        let msgs = rng.range(1, 5);
        let offsets: Vec<usize> = (0..rng.range(1, 4)).map(|_| rng.range(1, p)).collect();
        let spec = MachineSpec::test_machine(p, 1000);
        let offs = &offsets;
        let backend = if case % 2 == 0 {
            ExecBackend::Event { threads }
        } else {
            ExecBackend::event()
        };
        let out = run_spmd_with(&spec, backend, |c| offset_exchange(c, offs, msgs))
            .expect("scheduled run must be accepted");
        assert!(
            out.results.iter().all(|&ok| ok),
            "{backend} p={p} msgs={msgs} offsets={offsets:?}: reordered delivery"
        );
    }
}

/// Random exchange patterns measure identically at any scheduler thread
/// count: the regions may interleave ranks differently, but results and
/// every per-rank counter and virtual time must match the one-thread
/// reference bit for bit.
#[test]
fn few_workers_and_event_match_the_reference_on_random_patterns() {
    let mut rng = Rng::new(11);
    for _ in 0..12 {
        let p = rng.range(2, 32);
        let threads = rng.range(2, 6);
        let words = rng.range(1, 40);
        let rounds = rng.range(1, 4);
        let spec = MachineSpec::test_machine(p, 1000);
        let pattern = |mut c: mpsim::RankComm| async move {
            let p = c.size();
            let mut acc = 0.0;
            for r in 0..rounds {
                let dst = (c.rank() + r + 1) % p;
                let src = (c.rank() + p - ((r + 1) % p)) % p;
                let got = c.sendrecv(dst, src, r as u64, vec![c.rank() as f64; words], Phase::Other).await;
                acc += got.iter().sum::<f64>();
                c.barrier().await;
            }
            acc
        };
        let reference = run_spmd_with(&spec, ExecBackend::event(), pattern).unwrap();
        let few = run_spmd_with(&spec, ExecBackend::Event { threads }, pattern).unwrap();
        assert_eq!(reference.results, few.results, "p={p} threads={threads}");
        assert_eq!(stats_bits(&reference.stats), stats_bits(&few.stats), "p={p} threads={threads}");
    }
}

/// Strip the virtual-clock fields: the counters a model that keeps no clock
/// predicts.
fn counters(stats: &[mpsim::RankStats]) -> Vec<mpsim::RankStats> {
    stats.iter().map(|s| s.sans_time()).collect()
}

/// The event backend under random world sizes and message orders: random
/// send permutations (a splitmix64 shuffle per rank) must still produce the
/// closed-form results and counters of an all-to-all, at one scheduler
/// thread and at three — scheduling and send interleaving never change what
/// is computed or measured.
#[test]
fn random_message_orders_match_the_all_to_all_closed_form() {
    let mut rng = Rng::new(12);
    for _ in 0..12 {
        let p = rng.range(2, 40);
        let words = rng.range(1, 16);
        let shuffle_seed = rng.next();
        let spec = MachineSpec::test_machine(p, 1000);
        let pattern = move |mut c: mpsim::RankComm| async move {
            let p = c.size();
            // Send to every peer in a per-rank pseudo-random order...
            let mut order: Vec<usize> = (0..p).collect();
            let mut r = Rng::new(shuffle_seed ^ c.rank() as u64);
            for i in (1..p).rev() {
                order.swap(i, r.range(0, i + 1));
            }
            for &to in &order {
                c.send(to, 5, vec![c.rank() as f64; words], Phase::Other);
            }
            // ...but receive in rank order: matching is by (source, tag),
            // so arrival order must not matter.
            let mut acc = 0.0;
            for from in 0..p {
                acc += c.recv(from, 5, Phase::Other).await[0];
            }
            c.barrier().await;
            acc
        };
        let event = run_spmd_with(&spec, ExecBackend::event(), pattern).unwrap();
        // Every rank receives one message from each rank, itself included.
        let sum = (0..p).map(|r| r as f64).sum::<f64>();
        assert_eq!(event.results, vec![sum; p], "p={p} words={words}");
        let mut want = mpsim::RankStats {
            msgs_sent: p as u64,
            msgs_recv: p as u64,
            ..Default::default()
        };
        want.words_sent[Phase::Other.index()] = (p * words) as u64;
        want.words_recv[Phase::Other.index()] = (p * words) as u64;
        assert_eq!(counters(&event.stats), vec![want; p], "p={p} words={words}");
        let three = run_spmd_with(&spec, ExecBackend::Event { threads: 3 }, pattern).unwrap();
        assert_eq!(three.results, event.results, "p={p} words={words}");
        assert_eq!(stats_bits(&three.stats), stats_bits(&event.stats), "p={p} words={words}");
    }
}

/// Scheduler fairness, on what rank bodies observe: every resume appends
/// `(rank, step)` to one shared log. Under random worlds no ready rank is
/// starved (every rank's entries are complete and in program order), first
/// polls happen in admission order, and the whole schedule is deterministic
/// (two identical runs produce the same log).
#[test]
fn event_scheduler_never_starves_a_ready_rank() {
    let mut rng = Rng::new(13);
    for _ in 0..12 {
        let p = rng.range(2, 40);
        let rounds = rng.range(1, 4);
        let spec = MachineSpec::test_machine(p, 1000);
        let resume_log = || {
            let log = std::sync::Mutex::new(Vec::new());
            let out = run_spmd_with(&spec, ExecBackend::event(), |mut c| {
                let log = &log;
                async move {
                    let (rank, p) = (c.rank(), c.size());
                    log.lock().unwrap().push((rank, 0));
                    for r in 0..rounds {
                        let dst = (rank + r + 1) % p;
                        let src = (rank + p - ((r + 1) % p)) % p;
                        c.sendrecv(dst, src, r as u64, vec![1.0], Phase::Other).await;
                        log.lock().unwrap().push((rank, r + 1));
                    }
                    c.barrier().await;
                    log.lock().unwrap().push((rank, rounds + 1));
                    rank
                }
            })
            .unwrap();
            assert_eq!(out.results, (0..p).collect::<Vec<_>>());
            log.into_inner().unwrap()
        };
        let log = resume_log();
        for rank in 0..p {
            let steps: Vec<usize> = log.iter().filter(|e| e.0 == rank).map(|e| e.1).collect();
            assert_eq!(steps, (0..=rounds + 1).collect::<Vec<_>>(), "p={p} rounds={rounds} rank {rank}");
        }
        let first_polls: Vec<usize> = log.iter().filter(|e| e.1 == 0).map(|e| e.0).collect();
        assert_eq!(first_polls, (0..p).collect::<Vec<_>>(), "p={p}: first polls follow admission order");
        assert_eq!(log, resume_log(), "p={p} rounds={rounds}: the schedule must be deterministic");
    }
}

/// The virtual clock under random exchange patterns: monotone per rank
/// (every component non-negative, finish time = compute + exposed),
/// deterministic across repeated runs, and overlap-on is never slower than
/// overlap-off while never beating the `max(compute, total comm)` lower
/// bound — `simulate_rounds`' bound test at the execution level, with the
/// comm side reconstructed from the measured counters.
#[test]
fn virtual_clock_monotone_deterministic_and_overlap_bounded() {
    let mut rng = Rng::new(16);
    for _ in 0..12 {
        let p = rng.range(2, 24);
        let words = rng.range(1, 64);
        let rounds = rng.range(1, 5);
        let flops = rng.range(0, 40_000) as u64;
        let spec = MachineSpec::test_machine(p, 1000);
        let body = move |mut c: mpsim::RankComm| async move {
            let p = c.size();
            for r in 0..rounds {
                let dst = (c.rank() + r + 1) % p;
                let src = (c.rank() + p - ((r + 1) % p)) % p;
                c.sendrecv(dst, src, r as u64, vec![1.0; words], Phase::Other).await;
                c.record_flops(flops);
            }
            c.rank()
        };
        let on = run_spmd_with(&spec, ExecBackend::event(), body).unwrap();
        let on2 = run_spmd_with(&spec, ExecBackend::event(), body).unwrap();
        let off = run_spmd_with(&spec.clone().with_overlap(false), ExecBackend::event(), body).unwrap();
        assert_eq!(on.stats, on2.stats, "p={p}: virtual times must be deterministic");
        let model = &spec.cost;
        for (r, (st_on, st_off)) in on.stats.iter().zip(&off.stats).enumerate() {
            for (st, t) in [(st_on, st_on.time), (st_off, st_off.time)] {
                assert!(
                    t.compute_s >= 0.0 && t.exposed_comm_s >= 0.0 && t.total_comm_s >= t.exposed_comm_s,
                    "p={p} rank {r}: clock ran backwards ({t:?})"
                );
                // Recording completeness: total comm accounts at least every
                // received transfer once (alpha per message + beta per word,
                // reconstructed from the backend-exact counters), and the
                // compute side is exactly the recorded flops under gamma — a
                // time charge the event world missed would fail here.
                assert!(
                    t.total_comm_s + 1e-12 >= model.comm_time(st.total_recv(), st.msgs_recv),
                    "p={p} rank {r}: total comm {t:?} lost a transfer"
                );
                assert!(
                    (t.compute_s - model.compute_time(st.flops)).abs() <= 1e-12 * t.compute_s.max(1.0),
                    "p={p} rank {r}: compute time disagrees with the flops counter"
                );
            }
            // Overlap can only help...
            assert!(
                st_on.time.total_s() <= st_off.time.total_s() + 1e-12,
                "p={p} rank {r}: overlap-on slower than overlap-off"
            );
            // ...but never beats the serial lower bound: all compute, and
            // all received transfer time on the rank's single incoming link
            // (counters are backend-exact, so the comm side is exactly
            // alpha * msgs + beta * words).
            let comm_s = model.comm_time(st_on.total_recv(), st_on.msgs_recv);
            let lower = st_on.time.compute_s.max(comm_s);
            assert!(
                st_on.time.total_s() + 1e-12 >= lower,
                "p={p} rank {r}: measured {} s beats the max(compute, comm) bound {} s",
                st_on.time.total_s(),
                lower
            );
        }
    }
}

/// The auto-planner against brute force: for random problems and random
/// candidate subsets, [`serve::AutoPlanner::select`] must return exactly the
/// exhaustive argmin of planned α-β-γ time over the feasible candidates —
/// same winner, bitwise-same planned time, same plan — and must report an
/// error exactly when no candidate is feasible.
#[test]
fn auto_planner_selection_is_the_exhaustive_argmin() {
    use serve::{AlgoChoice, AutoPlanner};
    let reg = baselines::registry();
    let planner = AutoPlanner::new(reg.clone());
    let model = CostModel::piz_daint_two_sided();
    let mut rng = Rng::new(17);
    let mut feasible_cases = 0usize;
    for _ in 0..CASES {
        let m = rng.range(4, 96);
        let n = rng.range(4, 96);
        let k = rng.range(4, 96);
        let p = rng.range(1, 33);
        let s = m * n + 2 * (m + n) + 16 + rng.range(0, 1 << 14);
        let prob = MmmProblem::new(m, n, k, p, s);
        // Random candidate subset (sometimes empty, sometimes everything).
        let subset: Vec<AlgoId> = AlgoId::ALL.into_iter().filter(|_| rng.next().is_multiple_of(2)).collect();
        let choice = if rng.next().is_multiple_of(4) {
            AlgoChoice::Auto
        } else {
            AlgoChoice::Among(subset)
        };

        // Brute force: plan every candidate through the same gauntlet
        // RunSession applies, score with the cost model, keep the strict
        // argmin (earliest candidate wins ties).
        let mut best: Option<(AlgoId, f64, cosma::plan::DistPlan)> = None;
        for id in choice.candidates() {
            let Ok(algo) = reg.by_id(id) else { continue };
            if algo.supports(&prob).is_err() {
                continue;
            }
            let Ok(plan) = algo.plan(&prob, &model) else {
                continue;
            };
            if plan.validate_coverage().is_err() {
                continue;
            }
            let t = plan.simulate(&model, true).time_s;
            if best.as_ref().is_none_or(|(_, bt, _)| t < *bt) {
                best = Some((id, t, plan));
            }
        }

        match (planner.select(&prob, &model, true, &choice), best) {
            (Ok(planned), Some((algo, t, plan))) => {
                feasible_cases += 1;
                assert_eq!(planned.selection.algo, algo, "{m}x{n}x{k} p={p} {choice:?}");
                assert_eq!(
                    planned.selection.planned_time_s.to_bits(),
                    t.to_bits(),
                    "{m}x{n}x{k} p={p}: planned time must be bitwise-reproducible"
                );
                assert_eq!(*planned.plan, plan, "{m}x{n}x{k} p={p}: plan diverged");
                if let Some(ru) = planned.selection.runner_up {
                    assert!(ru.planned_time_s >= planned.selection.planned_time_s);
                    assert_ne!(ru.algo, planned.selection.algo);
                }
            }
            (Err(_), None) => {}
            (got, want) => panic!(
                "{m}x{n}x{k} p={p} {choice:?}: planner and brute force disagree on \
                 feasibility (planner: {}, brute force: {})",
                if got.is_ok() { "Ok" } else { "Err" },
                if want.is_some() { "Some" } else { "None" },
            ),
        }
    }
    assert!(feasible_cases >= CASES as usize / 2, "only {feasible_cases} feasible — weak sample");
}

/// Plan-cache exactness: for random requests, a cache hit returns a plan and
/// selection bitwise-identical to planning cold — planning is a pure
/// function of the [`serve::PlanKey`], so caching may never change what a
/// request gets back.
#[test]
fn plan_cache_hits_are_bitwise_identical_to_cold_planning() {
    use serve::{AlgoChoice, AutoPlanner, PlanCache, PlanKey};
    let planner = AutoPlanner::new(baselines::registry());
    let model = CostModel::piz_daint_two_sided();
    let cache = PlanCache::new(64);
    let mut rng = Rng::new(18);
    for _ in 0..CASES {
        let m = rng.range(4, 80);
        let n = rng.range(4, 80);
        let k = rng.range(4, 80);
        let p = 1usize << rng.range(0, 6);
        let s = m * n + 2 * (m + n) + 16 + rng.range(0, 1 << 13);
        let prob = MmmProblem::new(m, n, k, p, s);
        let choice = AlgoChoice::Auto;
        let key = PlanKey::try_new(
            &prob,
            &model,
            true,
            None,
            &choice,
            &mpsim::Topology::Flat,
            mpsim::Placement::Block,
        )
        .expect("finite model");

        // Cold: a private selection, no cache involved.
        let cold = planner.select(&prob, &model, true, &choice).expect("ample memory");
        // Through the cache: first call may insert, second must hit.
        let (first, _) = cache
            .get_or_try_insert_with(key, || planner.select(&prob, &model, true, &choice))
            .expect("ample memory");
        let hit = cache.get(&key).expect("just inserted");

        // The hit is the same allocation as the insert, and both are
        // bitwise-identical to the cold plan.
        assert!(std::sync::Arc::ptr_eq(&first, &hit), "{m}x{n}x{k} p={p}: hit reallocated");
        assert_eq!(hit.selection, cold.selection, "{m}x{n}x{k} p={p}: selection diverged");
        assert_eq!(*hit.plan, *cold.plan, "{m}x{n}x{k} p={p}: cached plan diverged from cold");
        assert_eq!(
            hit.selection.planned_time_s.to_bits(),
            cold.selection.planned_time_s.to_bits(),
            "{m}x{n}x{k} p={p}: planned time not bitwise-stable"
        );
    }
    let stats = cache.stats();
    assert!(stats.hits >= CASES, "every case must hit at least once: {stats:?}");
}

/// Topology-aware contention under random exchange patterns, three
/// properties at once:
///
/// 1. The default machine (no topology set) is *bitwise* the explicit
///    `Flat`/`Block` machine — adding the topology layer must not move the
///    virtual clock of existing flat-world users by even one ulp.
/// 2. A congested fat tree never decreases any rank's virtual time relative
///    to flat, component by component, while leaving every non-time counter
///    (words, messages, flops, results) untouched — contention reprices
///    transfers, it never reroutes or drops them.
/// 3. Shared-link charges are deterministic: two identical fat-tree runs
///    (including a scattered round-robin placement) agree bitwise on every
///    rank's stats, times included.
#[test]
fn contention_prices_flat_bitwise_and_fat_monotone_deterministic() {
    use mpsim::machine::{Placement, Topology};
    let mut rng = Rng::new(21);
    for _ in 0..12 {
        let p = rng.range(2, 32);
        let words = rng.range(1, 48);
        let rounds = rng.range(1, 5);
        let flops = rng.range(0, 30_000) as u64;
        let body = move |mut c: mpsim::RankComm| async move {
            let p = c.size();
            for r in 0..rounds {
                let dst = (c.rank() + r + 1) % p;
                let src = (c.rank() + p - ((r + 1) % p)) % p;
                c.sendrecv(dst, src, r as u64, vec![1.0; words], Phase::Other).await;
                c.record_flops(flops);
            }
            c.barrier().await;
            c.rank()
        };
        let spec = MachineSpec::test_machine(p, 1000);
        let default = run_spmd_with(&spec, ExecBackend::event(), body).unwrap();
        let explicit_flat = spec.clone().with_topology(Topology::Flat).with_placement(Placement::Block);
        let flat = run_spmd_with(&explicit_flat, ExecBackend::event(), body).unwrap();
        assert_eq!(default.results, flat.results, "p={p}");
        assert_eq!(
            default.stats, flat.stats,
            "p={p}: explicit Flat/Block must be bitwise the default machine"
        );
        let fat_spec = spec.clone().with_topology(Topology::congested_fat_tree());
        let fat = run_spmd_with(&fat_spec, ExecBackend::event(), body).unwrap();
        assert_eq!(fat.results, flat.results, "p={p}: topology changed a computed result");
        for (r, (ff, tt)) in flat.stats.iter().zip(&fat.stats).enumerate() {
            assert_eq!(ff.sans_time(), tt.sans_time(), "p={p} rank {r}: topology changed a traffic counter");
            assert!(
                tt.time.total_comm_s >= ff.time.total_comm_s - 1e-15
                    && tt.time.exposed_comm_s >= ff.time.exposed_comm_s - 1e-15
                    && tt.time.total_s() >= ff.time.total_s() - 1e-15,
                "p={p} rank {r}: contention decreased a time (flat {:?}, fat {:?})",
                ff.time,
                tt.time
            );
        }
        let fat_rr = fat_spec.clone().with_placement(Placement::RoundRobin);
        let a = run_spmd_with(&fat_rr, ExecBackend::event(), body).unwrap();
        let b = run_spmd_with(&fat_rr, ExecBackend::event(), body).unwrap();
        assert_eq!(a.results, b.results, "p={p}");
        assert_eq!(a.stats, b.stats, "p={p}: fat-tree link charges must be deterministic");
    }
}

/// The parallel event scheduler is an implementation detail of wall-clock:
/// under randomized worlds, workloads, overlap modes, and thread counts,
/// every run's results *and* full per-rank stats — traffic counters and the
/// `TimeBreakdown` virtual clock — are bitwise-identical to the
/// single-threaded scheduler. Every third case uses an antipodal exchange
/// (`rank ↔ rank + p/2`) so with two regions all traffic crosses the region
/// boundary, and shared-link topologies exercise the sequential-fallback
/// clamp on the same equality.
#[test]
fn parallel_scheduler_matches_single_thread_bitwise() {
    use mpsim::machine::Topology;
    let mut rng = Rng::new(23);
    for case in 0..16 {
        let p = rng.range(4, 40);
        let words = rng.range(1, 32);
        let rounds = rng.range(1, 4);
        let flops = rng.range(0, 20_000) as u64;
        let threads = rng.range(2, 9);
        let overlap = rng.next().is_multiple_of(2);
        let cross_region_heavy = case % 3 == 0;
        let body = move |mut c: mpsim::RankComm| async move {
            let p = c.size();
            let mut acc = 0.0;
            for r in 0..rounds {
                let off = if cross_region_heavy { p / 2 } else { r + 1 };
                let dst = (c.rank() + off) % p;
                let src = (c.rank() + p - (off % p)) % p;
                let got = c.sendrecv(dst, src, r as u64, vec![c.rank() as f64; words], Phase::Other).await;
                acc += got.iter().sum::<f64>();
                c.record_flops(flops);
            }
            c.barrier().await;
            acc
        };
        let topology = match case % 4 {
            3 => Topology::congested_fat_tree(), // clamps to the sequential engine
            _ => Topology::Flat,
        };
        let spec = MachineSpec::test_machine(p, 1000).with_overlap(overlap).with_topology(topology);
        let single = run_spmd_with(&spec, ExecBackend::event(), body).unwrap();
        let par = run_spmd_with(&spec, ExecBackend::Event { threads }, body).unwrap();
        assert_eq!(single.results, par.results, "p={p} threads={threads} case={case}");
        assert_eq!(
            single.stats, par.stats,
            "p={p} threads={threads} overlap={overlap} case={case}: \
             parallel scheduler stats must be bitwise-identical, times included"
        );
    }
}

/// Buffer-reuse arenas are invisible (the PR-10 contract): executing a
/// planned algorithm with pooling enabled and disabled produces
/// bitwise-identical products and per-rank stats at every thread count —
/// the arena only changes where bytes live, never what they hold or what
/// the clock reads. The pool counters (the observability side) must show
/// real recycling on enough pooled runs, and a disabled arena must never
/// hit or park.
#[test]
fn buffer_pooling_is_bitwise_invisible_across_backends() {
    use cosma::api::execute_boxed;
    let reg = baselines::registry();
    let model = CostModel::piz_daint_two_sided();
    let mut rng = Rng::new(0xB0);
    let mut recycled = 0usize;
    let mut runs = 0usize;
    for case in 0..9 {
        let m = rng.range(8, 56);
        let n = rng.range(8, 56);
        let k = rng.range(8, 56);
        let p = 1usize << rng.range(1, 4);
        let algo = reg
            .by_id(match case % 3 {
                0 => AlgoId::Cosma,
                1 => AlgoId::Carma,
                _ => AlgoId::Summa,
            })
            .unwrap();
        let prob = MmmProblem::new(m, n, k, p, 1 << 20);
        if algo.supports(&prob).is_err() {
            continue;
        }
        let plan = algo.plan(&prob, &model).unwrap();
        let a = Matrix::deterministic(m, k, 31);
        let b = Matrix::deterministic(k, n, 32);
        for backend in [
            ExecBackend::event(),
            ExecBackend::Event { threads: 3 },
            ExecBackend::Event { threads: p },
        ] {
            let spec = MachineSpec::piz_daint_with_memory(p, 1 << 20);
            let on = execute_boxed(algo.as_ref(), &plan, &spec, backend, &a, &b).unwrap();
            let off = execute_boxed(algo.as_ref(), &plan, &spec.clone().with_pooling(false), backend, &a, &b)
                .unwrap();
            let ctx = format!("{} {m}x{n}x{k} p={p} {backend}", algo.id());
            assert!(
                on.c.as_slice()
                    .iter()
                    .zip(off.c.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{ctx}: recycling changed a product bit"
            );
            assert_eq!(on.stats, off.stats, "{ctx}: recycling moved a counter or the clock");
            assert_eq!(off.pool.hits, 0, "{ctx}: a disabled arena must never recycle");
            assert_eq!(off.pool.returns, 0, "{ctx}: a disabled arena must never park");
            runs += 1;
            recycled += usize::from(on.pool.hits > 0);
        }
    }
    assert!(runs >= 18, "only {runs} pooled-vs-unpooled runs — weak sample");
    assert!(recycled * 2 >= runs, "only {recycled}/{runs} pooled runs recycled — arena not engaged");
}

#[test]
fn theorem2_bound_monotone_in_memory() {
    use pebbles::bounds::theorem2_parallel_bound;
    let mut rng = Rng::new(9);
    for _ in 0..CASES {
        let m = rng.range(32, 512);
        let n = rng.range(32, 512);
        let k = rng.range(32, 512);
        let p = rng.range(1, 128);
        let lo = theorem2_parallel_bound(m, n, k, p, 1 << 10);
        let hi = theorem2_parallel_bound(m, n, k, p, 1 << 20);
        assert!(hi <= lo + 1e-9, "more memory must not raise the bound");
    }
}

/// Fault determinism (the PR-9 contract): the same seeded `FaultPlan` must
/// produce the *identical* outcome on the sequential and the 4-thread event
/// scheduler — same typed failure when the world wedges, bitwise-identical
/// stats when it completes — and a quiescent plan must be a bitwise no-op
/// against the fault-free clock.
#[test]
fn fault_plans_behave_identically_across_event_thread_counts() {
    use mpsim::FaultPlan;
    let mut rng = Rng::new(0xFA);
    let mut failures = 0;
    for case in 0..10 {
        let p = rng.range(8, 40);
        let kills = rng.range(0, 3);
        // A coin this sample no longer uses, still drawn so every case
        // keeps the `p`, `kills` and `seed` it was built with.
        let _ = rng.range(0, 2);
        let seed = rng.next();
        let mut plan = FaultPlan::new(seed);
        if kills > 0 {
            plan = plan.kill_exactly(kills, 8e-6);
        }
        let body = |mut c: mpsim::RankComm| async move {
            let p = c.size();
            for _ in 0..12 {
                c.record_flops(1000);
                let right = (c.rank() + 1) % p;
                let left = (c.rank() + p - 1) % p;
                c.sendrecv(right, left, 1, vec![c.rank() as f64; 2], Phase::Other).await;
                c.barrier().await;
            }
        };
        let armed = MachineSpec::test_machine(p, 1000).with_faults(plan);
        let seq = run_spmd_with(&armed, ExecBackend::event(), body);
        let par = run_spmd_with(&armed, ExecBackend::Event { threads: 4 }, body);
        match (seq, par) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.stats, b.stats, "case {case}: completed stats must be bitwise-identical");
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "case {case}: typed failures must be identical");
                failures += 1;
            }
            (a, b) => panic!("case {case}: engines disagree on survival: {a:?} vs {b:?}"),
        }
        if kills == 0 {
            // Quiescent plan: bitwise no-op against the fault-free world.
            let bare = MachineSpec::test_machine(p, 1000);
            let clean = run_spmd_with(&bare, ExecBackend::event(), body).unwrap();
            let quiet = run_spmd_with(&armed, ExecBackend::event(), body).unwrap();
            assert_eq!(clean.stats, quiet.stats, "case {case}: quiescent plan perturbed the clock");
        }
    }
    assert!(failures > 0, "the sample must exercise at least one injected failure");
}

/// One step of a generated rank program (see [`generate_programs`]).
#[derive(Debug, Clone, Copy)]
enum Op {
    Send {
        to: usize,
        tag: u64,
        words: usize,
    },
    Recv {
        from: usize,
        tag: u64,
    },
    SendRecv {
        to: usize,
        from: usize,
        tag: u64,
        words: usize,
    },
    Barrier,
    Flops(u64),
}

/// How a generated world is broken on purpose.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Wedge {
    /// Every send has its recv and every recv its send: the world completes.
    None,
    /// One rank gets a recv nobody sends, somewhere in its program.
    OrphanRecv,
    /// After a closing barrier one rank exits and another sends to it, two
    /// message hops (so at least one α, or one word's β) later.
    SendToExited,
}

/// A small SPMD program per rank, built from a global script so that it is
/// matched by construction: sends never block, and every recv is appended to
/// its rank's list after the matching send was appended to the sender's — by
/// induction over the script no rank waits on a message that is never posted.
/// Steps: a burst of point-to-point messages received in shuffled tag order,
/// a ring `sendrecv` by a random shift, a world barrier, local flops. Tags are drawn from a small range so per-`(sender, tag)` FIFO
/// matching is exercised.
fn generate_programs(rng: &mut Rng, p: usize, wedge: Wedge) -> Vec<Vec<Op>> {
    let mut progs: Vec<Vec<Op>> = vec![Vec::new(); p];
    for _ in 0..rng.range(4, 14) {
        match rng.range(0, 5) {
            0 | 1 => {
                let from = rng.range(0, p);
                let to = (from + rng.range(1, p)) % p;
                let mut tags: Vec<u64> = (0..rng.range(1, 4) as u64).collect();
                for &tag in &tags {
                    let words = rng.range(0, 40);
                    progs[from].push(Op::Send { to, tag, words });
                }
                for i in (1..tags.len()).rev() {
                    tags.swap(i, rng.range(0, i + 1));
                }
                progs[to].extend(tags.iter().map(|&tag| Op::Recv { from, tag }));
            }
            2 => {
                let (shift, tag, words) = (rng.range(1, p), rng.range(0, 3) as u64, rng.range(0, 40));
                for (r, prog) in progs.iter_mut().enumerate() {
                    prog.push(Op::SendRecv {
                        to: (r + shift) % p,
                        from: (r + p - shift) % p,
                        tag,
                        words,
                    });
                }
            }
            3 => progs.iter_mut().for_each(|prog| prog.push(Op::Barrier)),
            _ => {
                let r = rng.range(0, p);
                progs[r].push(Op::Flops(rng.range(0, 50_000) as u64));
            }
        }
    }
    match wedge {
        Wedge::None => {}
        Wedge::OrphanRecv => {
            let r = rng.range(0, p);
            let at = rng.range(0, progs[r].len() + 1);
            let from = (r + rng.range(1, p)) % p;
            progs[r].insert(at, Op::Recv { from, tag: 99 });
        }
        Wedge::SendToExited => {
            // Ranks 0 (sender), 1 (helper), 2 (exits at the barrier): the
            // ping-pong with the helper parks the sender for two hops, so the
            // send finds rank 2 gone on every driver.
            progs.iter_mut().for_each(|prog| prog.push(Op::Barrier));
            let (to, from, tag, words) = (1, 1, 7, 1);
            progs[0].push(Op::SendRecv { to, from, tag, words });
            progs[1].push(Op::Recv { from: 0, tag });
            progs[1].push(Op::Send { to: 0, tag, words });
            progs[0].push(Op::Send { to: 2, tag, words });
        }
    }
    progs
}

/// The payload step `i` of rank `rank`'s program sends: every word names
/// the sender and the step, so a receive shows which message it matched.
fn payload(rank: usize, i: usize, words: usize) -> Vec<f64> {
    vec![(rank * 64 + i) as f64; words]
}

/// One receive, as `(words, the message's name)`; an empty message's name is
/// -1.
fn received(got: &[f64]) -> (usize, f64) {
    (got.len(), got.first().copied().unwrap_or(-1.0))
}

/// Interpret one rank's program; returns every receive, in program order.
async fn interpret(mut c: mpsim::RankComm, prog: &[Op]) -> Vec<(usize, f64)> {
    let me = c.rank();
    let mut log = Vec::new();
    for (i, &op) in prog.iter().enumerate() {
        match op {
            Op::Send { to, tag, words } => c.send(to, tag, payload(me, i, words), Phase::Other),
            Op::Recv { from, tag } => log.push(received(&c.recv(from, tag, Phase::Other).await)),
            Op::SendRecv { to, from, tag, words } => {
                let got = c.sendrecv(to, from, tag, payload(me, i, words), Phase::Other).await;
                log.push(received(&got));
            }
            Op::Barrier => c.barrier().await,
            Op::Flops(n) => c.record_flops(n),
        }
    }
    log
}

/// The sequential model of a matched world ([`Wedge::None`]): sends never
/// block and every recv is matched by construction, so the k-th
/// `Recv { from, tag }` at rank `r` takes the k-th message `from` sent to `r`
/// with `tag`. Returns what [`interpret`] returns on every rank, and every
/// rank's counters.
fn model_of(progs: &[Vec<Op>]) -> (Vec<Vec<(usize, f64)>>, Vec<mpsim::RankStats>) {
    use std::collections::{HashMap, VecDeque};
    let other = Phase::Other.index();
    let mut stats = vec![mpsim::RankStats::default(); progs.len()];
    // Each `(from, to, tag)` channel's messages, in send order.
    let mut channels: HashMap<(usize, usize, u64), VecDeque<(usize, f64)>> = HashMap::new();
    for (r, prog) in progs.iter().enumerate() {
        for (i, &op) in prog.iter().enumerate() {
            if let Op::Send { to, tag, words } | Op::SendRecv { to, tag, words, .. } = op {
                channels
                    .entry((r, to, tag))
                    .or_default()
                    .push_back(received(&payload(r, i, words)));
                stats[r].msgs_sent += 1;
                stats[r].words_sent[other] += words as u64;
            }
        }
    }
    let mut logs = vec![Vec::new(); progs.len()];
    for (r, prog) in progs.iter().enumerate() {
        for &op in prog {
            match op {
                Op::Recv { from, tag } | Op::SendRecv { from, tag, .. } => {
                    let got = channels
                        .get_mut(&(from, r, tag))
                        .and_then(VecDeque::pop_front)
                        .expect("every recv has its send");
                    stats[r].msgs_recv += 1;
                    stats[r].words_recv[other] += got.0 as u64;
                    logs[r].push(got);
                }
                Op::Flops(n) => stats[r].flops += n,
                Op::Send { .. } | Op::Barrier => {}
            }
        }
    }
    assert!(channels.values().all(VecDeque::is_empty), "every send has its recv");
    (logs, stats)
}

/// Full per-rank stats with the virtual clock as bits: `-0.0`, and a NaN if
/// one ever appeared, must not compare equal to anything but themselves.
fn stats_bits(stats: &[mpsim::RankStats]) -> Vec<(mpsim::RankStats, [u64; 3])> {
    stats
        .iter()
        .map(|s| {
            let t = s.time;
            (s.sans_time(), [t.compute_s, t.exposed_comm_s, t.total_comm_s].map(f64::to_bits))
        })
        .collect()
}

/// Bruck all-gathers on the fibers a grid algorithm really passes: worlds laid
/// out as `gm × gn × gk` grids in which every rank gathers along its i-, j-
/// and k-fiber in turn, so all fibers of a direction run at once on bases
/// ≠ 0 and strides `gn·gk`, `gk` and 1. Each fiber length 1..=33 takes each
/// direction once (the other two extents are drawn from 1..=2), with uneven
/// or mostly-empty generated cuts and 1 or 3 rows per block. Every foreign
/// block arrives exactly once, in order, in `⌈log₂ g⌉` messages per gather,
/// and event, event(4) and unpooled event worlds agree on results and stats,
/// the clocks bit for bit.
#[test]
fn bruck_allgather_on_grid_fibers_agrees_across_backends() {
    use cosma::grid::Grid3;
    use mpsim::collectives::allgather_bruck;
    let mut rng = Rng::new(20);
    for g in 1usize..=33 {
        for long_axis in 0..3 {
            let mut dims = [rng.range(1, 3), rng.range(1, 3), rng.range(1, 3)];
            dims[long_axis] = g;
            let grid = Grid3 {
                gm: dims[0],
                gn: dims[1],
                gk: dims[2],
            };
            let rows = [1usize, 3][rng.range(0, 2)];
            // One cut table per direction: block widths 0..=3, or mostly 0.
            let sparse = rng.range(0, 2) == 0;
            let cuts = dims.map(|len| {
                let mut at = 0;
                let mut cuts = vec![0];
                for _ in 0..len {
                    at += if sparse {
                        rng.range(0, 4) / 3
                    } else {
                        rng.range(0, 4)
                    };
                    cuts.push(at);
                }
                cuts
            });
            let cuts = &cuts;
            let what = format!("grid {dims:?} rows={rows} cuts={cuts:?}");
            // Block `j` of the `rows × cuts[len]` matrix gathered along
            // direction `axis` by the fiber that starts at rank `base`, row by
            // row: word `i` of the matrix is `(axis, base, i)`.
            let block = |axis: usize, base: usize, j: usize| -> Vec<f64> {
                let (cuts, width) = (&cuts[axis], cuts[axis][dims[axis]]);
                let word = |i: usize| ((axis * 1000 + base) * 1000 + i) as f64;
                (0..rows)
                    .flat_map(|r| (cuts[j]..cuts[j + 1]).map(move |col| word(r * width + col)))
                    .collect()
            };
            let body = move |mut c: mpsim::RankComm| async move {
                let (im, jn, ik) = grid.coords_of(c.rank());
                let lines = [
                    (grid.i_fiber(jn, ik), im),
                    (grid.j_fiber(im, ik), jn),
                    (grid.k_fiber(im, jn), ik),
                ];
                let mut gathered = Vec::new();
                for (axis, (fiber, pos)) in lines.into_iter().enumerate() {
                    let own = block(axis, fiber.base, pos);
                    let cut = |j: usize| rows * cuts[axis][j];
                    let tag = 100 * axis as u64;
                    let append = |out: &mut Vec<f64>| out.extend_from_slice(&own);
                    let got = allgather_bruck(&mut c, fiber, append, cut, tag, Phase::InputA).await;
                    // Every block's words in order, each piece starting where
                    // the last ended, on a block boundary.
                    let mut words = Vec::new();
                    got.for_each_piece(|at, piece| {
                        let piece = piece.unwrap_or(&own);
                        assert_eq!((at.start, at.len()), (words.len(), piece.len()), "pieces back to back");
                        assert!((0..=fiber.len).any(|j| cut(j) == at.start), "a piece starts a block");
                        words.extend_from_slice(piece);
                    });
                    got.recycle(&c);
                    gathered.push((fiber.base, words));
                }
                gathered
            };
            let spec = MachineSpec::test_machine(grid.size(), 10_000);
            let sharded = run_spmd_with(&spec, ExecBackend::Event { threads: 4 }, body).unwrap();
            for (r, (gathered, st)) in sharded.results.iter().zip(&sharded.stats).enumerate() {
                let (im, jn, ik) = grid.coords_of(r);
                let (mut words, mut msgs) = (0, 0);
                for (axis, pos) in [im, jn, ik].into_iter().enumerate() {
                    let (cuts, len) = (&cuts[axis], dims[axis]);
                    let (base, got) = &gathered[axis];
                    let want: Vec<f64> = (0..len).flat_map(|j| block(axis, *base, j)).collect();
                    assert_eq!(got, &want, "{what}: rank {r} direction {axis}");
                    words += rows * (cuts[len] - (cuts[pos + 1] - cuts[pos]));
                    msgs += mpsim::collectives::allgather_bruck_msgs(len);
                }
                assert_eq!(st.total_recv(), words as u64, "{what}: rank {r} words");
                assert_eq!(st.msgs_recv, msgs, "{what}: rank {r} msgs");
            }
            let event = run_spmd_with(&spec, ExecBackend::event(), body).unwrap();
            let unpooled =
                run_spmd_with(&spec.clone().with_pooling(false), ExecBackend::event(), body).unwrap();
            assert_eq!((&event.results, &unpooled.results), (&sharded.results, &sharded.results), "{what}");
            assert_eq!(stats_bits(&event.stats), stats_bits(&unpooled.stats), "{what}");
            assert_eq!(stats_bits(&sharded.stats), stats_bits(&event.stats), "{what}");
        }
    }
}

/// Differential sweep over generated rank programs (ROADMAP item 1, the
/// oracle of the one-driver merge): on flat α > 0 (the only machine the event
/// engine shards), flat α = 0, a node-NIC machine and the congested fat tree,
/// `event`, `event(2)` and `event(4)` agree on results and on full per-rank
/// stats — virtual clocks bit for bit — when the world completes, and on the
/// typed error when it is wedged on purpose; a completed world also matches
/// the sequential model of its program ([`model_of`]) receive by receive and
/// on every counter. `COSMA_FUZZ_SEED=<n>` replays one seed.
#[test]
fn generated_rank_programs_agree_across_event_thread_counts() {
    use mpsim::machine::Topology;
    use mpsim::{ExecError, Waiting};
    let seeds = match std::env::var("COSMA_FUZZ_SEED") {
        Ok(s) => {
            let seed = s.parse::<u64>().expect("COSMA_FUZZ_SEED is an integer");
            seed..seed + 1
        }
        Err(_) => 0..96,
    };
    for seed in seeds {
        let mut rng = Rng::new(0xF022 ^ seed);
        let p = rng.range(3, 13);
        let wedge = [Wedge::None, Wedge::None, Wedge::OrphanRecv, Wedge::SendToExited][seed as usize % 4];
        let progs = generate_programs(&mut rng, p, wedge);
        let flat = MachineSpec::test_machine(p, 1000);
        let zero_alpha = MachineSpec::new(
            p,
            1000,
            CostModel {
                alpha_s: 0.0,
                ..flat.cost
            },
        );
        let node_nic = flat.clone().with_topology(Topology::FatTree {
            ranks_per_node: 2,
            nodes_per_switch: usize::MAX,
            nic_factor: 0.5,
            up_factor: 0.5,
        });
        let fat_tree = flat.clone().with_topology(Topology::congested_fat_tree());
        let machines = [
            ("flat", flat),
            ("alpha=0", zero_alpha),
            ("node-nic", node_nic),
            ("fat-tree", fat_tree),
        ];
        for (name, spec) in &machines {
            let spec = spec.clone().with_overlap(seed % 3 != 0);
            let ctx = format!("COSMA_FUZZ_SEED={seed} {name} p={p} {wedge:?} {progs:?}");
            let run = |backend| {
                run_spmd_with(&spec, backend, |c| {
                    let prog = &progs[c.rank()];
                    interpret(c, prog)
                })
            };
            let one = run(ExecBackend::event());
            let mut completed = Vec::new();
            for threads in [2, 4] {
                match (&one, run(ExecBackend::Event { threads })) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.results, b.results, "event({threads}) results: {ctx}");
                        assert_eq!(
                            stats_bits(&a.stats),
                            stats_bits(&b.stats),
                            "event({threads}) stats: {ctx}"
                        );
                        completed.push((format!("event({threads})"), b));
                    }
                    (Err(a), Err(b)) => assert_eq!(*a, b, "event({threads}) typed error: {ctx}"),
                    (a, b) => {
                        panic!("event and event({threads}) disagree on completion: {a:?} vs {b:?}: {ctx}")
                    }
                }
            }
            match (wedge, one) {
                (Wedge::None, Ok(event)) => {
                    let (logs, stats) = model_of(&progs);
                    completed.insert(0, ("event".to_string(), event));
                    for (exec, out) in &completed {
                        assert_eq!(out.results, logs, "{exec} vs the model's receives: {ctx}");
                        assert_eq!(counters(&out.stats), stats, "{exec} vs the model's counters: {ctx}");
                    }
                }
                (Wedge::OrphanRecv, Err(ExecError::DeadlockSuspected { on, .. })) => {
                    assert!(matches!(on, Waiting::Message { .. } | Waiting::Barrier), "{on:?}: {ctx}");
                }
                (Wedge::SendToExited, Err(e)) => assert_eq!(e, ExecError::WorldTornDown { rank: 0 }, "{ctx}"),
                (_, other) => panic!("unexpected outcome {other:?}: {ctx}"),
            }
        }
    }
}
