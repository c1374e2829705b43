//! Cross-crate integration: every distributed algorithm, on the same
//! simulated machine, must produce exactly the same product as the
//! sequential reference kernel — across shapes, rank counts and memory
//! budgets, including adversarial (prime) dimensions like the paper's §8
//! "chosen adversarially, e.g. n³ + 1".
//!
//! All algorithms run through [`RunSession`] over the shared registry; the
//! session assembles each algorithm's distributed output shares into the
//! full product with the same code path.

use baselines::p25d::{Geometry25, P25dAlgorithm};
use cosma::api::{AlgoId, ExecReport, RunSession};
use cosma::problem::MmmProblem;
use densemat::gemm::matmul;
use densemat::matrix::Matrix;
use mpsim::cost::CostModel;
use mpsim::exec::ExecBackend;
use mpsim::stats::RankStats;

fn reference(m: usize, n: usize, k: usize) -> (Matrix, Matrix, Matrix) {
    let a = Matrix::deterministic(m, k, 7);
    let b = Matrix::deterministic(k, n, 8);
    let c = matmul(&a, &b);
    (a, b, c)
}

fn session(prob: &MmmProblem, id: AlgoId) -> RunSession {
    RunSession::new(*prob)
        .machine(CostModel::piz_daint_two_sided())
        .registry(baselines::registry())
        .algorithm(id)
}

/// Execute on the session default (one scheduler thread) and on two
/// threads; the two products must agree bit for bit.
fn execute_on_both(what: AlgoId, session: RunSession, a: &Matrix, b: &Matrix) -> Matrix {
    let c = session.execute(a, b).unwrap_or_else(|e| panic!("{what}: {e}")).c;
    let sharded = session
        .exec_backend(ExecBackend::Event { threads: 2 })
        .execute(a, b)
        .unwrap_or_else(|e| panic!("{what}: {e}"))
        .c;
    assert_eq!(c, sharded, "{what}: event and event(2) products differ");
    c
}

fn run(prob: &MmmProblem, id: AlgoId) -> Matrix {
    let (a, b, _) = reference(prob.m, prob.n, prob.k);
    execute_on_both(id, session(prob, id), &a, &b)
}

fn assert_all_agree(prob: &MmmProblem, ids: &[AlgoId]) {
    let (_, _, want) = reference(prob.m, prob.n, prob.k);
    for &id in ids {
        let c = run(prob, id);
        assert!(want.approx_eq(&c, 1e-9), "{id}: max diff {}", want.max_abs_diff(&c));
    }
}

#[test]
fn all_algorithms_agree_square() {
    let prob = MmmProblem::new(32, 32, 32, 16, 1 << 13);
    assert_all_agree(&prob, &AlgoId::ALL);
}

#[test]
fn all_algorithms_agree_adversarial_primes() {
    // Dimensions that divide nothing, on a square+power-of-two p.
    let prob = MmmProblem::new(29, 31, 37, 16, 1 << 13);
    assert_all_agree(&prob, &AlgoId::ALL);
}

#[test]
fn all_algorithms_agree_largek() {
    let prob = MmmProblem::new(12, 12, 192, 8, 1 << 12);
    assert_all_agree(&prob, &[AlgoId::Cosma, AlgoId::Summa, AlgoId::P25d, AlgoId::Carma]);
}

#[test]
fn all_algorithms_agree_flat() {
    let prob = MmmProblem::new(48, 48, 6, 16, 1 << 12);
    assert_all_agree(&prob, &[AlgoId::Cosma, AlgoId::Summa, AlgoId::Carma]);
}

#[test]
fn cosma_agrees_at_larger_scale() {
    // 64 ranks, non-power-of-two dims.
    let prob = MmmProblem::new(60, 52, 44, 64, 1 << 12);
    assert_all_agree(&prob, &[AlgoId::Cosma]);
}

/// COSMA's pinned shapes: gk = 1 and gk > 1 grids, slabs narrower than their
/// fibers (16³ at p = 512 is a 16×16×2 grid over 8-column slabs), primes on
/// a few and on many ranks, idle ranks, several rounds per rank, and bricks
/// big enough for the wide register tile.
const COSMA_SHAPES: [(usize, usize, usize, usize, usize); 9] = [
    (32, 32, 32, 16, 1 << 13),
    (96, 96, 48, 4, 1 << 14),
    (8, 8, 64, 8, 256),
    (12, 12, 192, 8, 1 << 12),
    (16, 16, 16, 512, 4096),
    (17, 19, 23, 5, 4096),
    (17, 19, 23, 510, 4096),
    (24, 24, 24, 7, 4096),
    (16, 16, 32, 4, 64 + 2 * 16 * 2),
];

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the bytes of every word of `c`, row-major.
fn fnv1a(c: &Matrix) -> u64 {
    fnv1a_words(c.as_slice().iter().map(|w| w.to_bits()))
}

/// FNV-1a over every rank's counters in rank order: words sent and received
/// by phase, messages sent and received, flops, peak memory, and the three
/// virtual times by their bits.
fn stats_digest(stats: &[RankStats]) -> u64 {
    fnv1a_words(stats.iter().flat_map(|s| {
        let t = s.time;
        let times = [t.compute_s, t.exposed_comm_s, t.total_comm_s].map(f64::to_bits);
        let counts = [s.msgs_sent, s.msgs_recv, s.flops, s.peak_mem_words];
        s.words_sent.into_iter().chain(s.words_recv).chain(counts).chain(times)
    }))
}

/// `session`'s run on the event engine, whose product is the same with two
/// and with four scheduler threads.
fn product_on_every_executor(session: RunSession, a: &Matrix, b: &Matrix, what: &str) -> ExecReport {
    let [event, event2, event4] = [
        ExecBackend::event(),
        ExecBackend::Event { threads: 2 },
        ExecBackend::Event { threads: 4 },
    ]
    .map(|exec| {
        let report = session.clone().exec_backend(exec).execute(a, b);
        report.unwrap_or_else(|e| panic!("{what} on {exec:?}: {e}"))
    });
    for (exec, other) in [("event(2)", event2), ("event(4)", event4)] {
        assert_eq!(fnv1a(&other.c), fnv1a(&event.c), "{what}: {exec} differs from event");
    }
    event
}

/// COSMA's product on `prob`, the same on every executor.
fn cosma_product(prob: &MmmProblem) -> Matrix {
    let (a, b, _) = reference(prob.m, prob.n, prob.k);
    product_on_every_executor(session(prob, AlgoId::Cosma), &a, &b, &format!("{prob:?}")).c
}

/// Recorded at `4248a3b`, before COSMA's gathers stopped filling slabs.
#[rustfmt::skip]
const PRODUCT_DIGESTS: [u64; 9] = [
    0xdac31c43bc6cbaee,
    0x2de41181f7de2a9c,
    0x1f0359f76ba493fb,
    0x366eac70eb823caa,
    0xc6b1a310ed16ea5e,
    0xa0bc3ba01e6d8db5,
    0x0fe0063bde791933,
    0xbf372242ea2aab73,
    0xb6aa1f2cbb1e393f,
];

#[test]
fn cosma_product_digests_are_pinned() {
    let got = COSMA_SHAPES.map(|(m, n, k, p, s)| fnv1a(&cosma_product(&MmmProblem::new(m, n, k, p, s))));
    if got != PRODUCT_DIGESTS {
        let rows: Vec<String> = got.iter().map(|d| format!("    {d:#018x},")).collect();
        panic!("COSMA's product bits moved; the table now reads:\n{}", rows.join("\n"));
    }
}

/// The baselines' pinned cases: CARMA pure-BFS, CARMA streaming DFS leaves
/// that split k (partial sums of one C region), CARMA on uneven dims, 2.5D
/// with one layer and with two, SUMMA on primes, and SUMMA on a 4 × 2 grid
/// whose panels are rooted at every row and column of it.
fn baseline_cases() -> [(&'static str, MmmProblem, AlgoId, Option<Geometry25>); 7] {
    [
        ("carma-bfs", MmmProblem::new(32, 32, 32, 16, 1 << 13), AlgoId::Carma, None),
        ("carma-dfs-k", MmmProblem::new(8, 8, 512, 4, 600), AlgoId::Carma, None),
        ("carma-uneven", MmmProblem::new(17, 23, 29, 8, 1 << 12), AlgoId::Carma, None),
        (
            "p25d-c1",
            MmmProblem::new(26, 22, 30, 9, 1 << 13),
            AlgoId::P25d,
            Some(Geometry25 { q: 3, c: 1 }),
        ),
        (
            "p25d-c2",
            MmmProblem::new(30, 26, 34, 32, 1 << 13),
            AlgoId::P25d,
            Some(Geometry25 { q: 4, c: 2 }),
        ),
        ("summa", MmmProblem::new(29, 31, 37, 16, 1 << 13), AlgoId::Summa, None),
        ("summa-4x2", MmmProblem::new(40, 18, 36, 8, 1 << 13), AlgoId::Summa, None),
    ]
}

/// Each case's product digest, then the digest of its ranks' [`RankStats`]
/// on the event engine ([`stats_digest`]): the product does not depend on
/// which member roots or forwards a broadcast, the counters and clocks do.
/// The first six products were recorded before CARMA's rank body became one
/// walk over its trace; the rest, before SUMMA and 2.5D took their rank groups
/// from `Grid3`.
#[rustfmt::skip]
const BASELINE_DIGESTS: [(u64, u64); 7] = [
    (0xa64f390e27b9c8fb, 0x83013681825ed985),
    (0x2352158be9bb203f, 0x545b74b3b5eee95d),
    (0xbee7ec3951386d04, 0xd25bb8d99fa37e8a),
    (0x398cbd0426b9095e, 0x401eac3f8e2c3a53),
    (0xbb4df5bc0be6c5cc, 0xf96a9d645d845856),
    (0xa54802ddb71e155d, 0xf2a467aa3086392c),
    (0x7e45001d44eefde7, 0x6729b62bbf9c4a1f),
];

#[test]
fn baseline_product_digests_are_pinned() {
    let [(_, bfs, ..), (_, dfs, ..), .., (_, tall, ..)] = baseline_cases();
    assert_eq!(baselines::carma::dfs_leaf_count(&bfs), 1, "carma-bfs must be one BFS recursion");
    assert!(baselines::carma::dfs_leaf_count(&dfs) > 1, "carma-dfs-k must stream DFS leaves");
    let grid = session(&tall, AlgoId::Summa).plan().expect("SUMMA plans summa-4x2").grid;
    assert_eq!(grid, [4, 2, 1], "summa-4x2 must run on a 4 × 2 grid");
    let got = baseline_cases().map(|(what, prob, id, geometry)| {
        let (a, b, want) = reference(prob.m, prob.n, prob.k);
        let mut registry = baselines::registry();
        if let Some(geo) = geometry {
            registry.register(P25dAlgorithm::with_geometry(geo));
        }
        let event = product_on_every_executor(session(&prob, id).registry(registry), &a, &b, what);
        assert!(want.approx_eq(&event.c, 1e-9), "{what}: max diff {}", want.max_abs_diff(&event.c));
        (fnv1a(&event.c), stats_digest(&event.stats))
    });
    if got != BASELINE_DIGESTS {
        let rows: Vec<String> = got.iter().map(|(c, s)| format!("    ({c:#018x}, {s:#018x}),")).collect();
        panic!("the baselines' product or counter bits moved; the table now reads:\n{}", rows.join("\n"));
    }
}

/// With gk = 1 every C word is one rank's rounds accumulated in ascending k
/// into a zero tile — the naive loop's reduction, so the bits are its bits.
#[test]
fn cosma_equals_the_naive_kernel_bitwise_when_k_is_not_split() {
    let mut checked = 0;
    for (m, n, k, p, s) in COSMA_SHAPES {
        let prob = MmmProblem::new(m, n, k, p, s);
        let plan = session(&prob, AlgoId::Cosma).plan().expect("COSMA plans every pinned shape");
        if plan.grid[2] != 1 {
            continue;
        }
        let (a, b, _) = reference(m, n, k);
        let mut want = Matrix::zeros(m, n);
        densemat::gemm::gemm_naive(&a, &b, &mut want);
        let c = cosma_product(&prob);
        assert_eq!(fnv1a(&c), fnv1a(&want), "{prob:?} grid {:?}", plan.grid);
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} pinned shapes have gk = 1");
}

#[test]
fn non_grid_friendly_rank_counts() {
    // 11 (prime), 12, 24: COSMA must handle them all (CARMA/Cannon cannot).
    for p in [11usize, 12, 24] {
        let prob = MmmProblem::new(30, 30, 30, p, 1 << 12);
        let (_, _, want) = reference(30, 30, 30);
        let c = run(&prob, AlgoId::Cosma);
        assert!(want.approx_eq(&c, 1e-9), "p={p}");
    }
}
