//! Planning oracles: what every planner produces, pinned bit for bit, and
//! the contract of producing it as a rank stream.
//!
//! [`plan_digests_are_pinned`] holds one 64-bit digest per (problem,
//! algorithm) — every rank's coordinates, memory, bricks and rounds, plus the
//! planned time's bits and the plan's word totals — against constants
//! recorded *before* the planners were touched, so a rewrite of how plans are
//! produced or scored cannot move a bit unnoticed. The rest holds the stream
//! to the plan: the ranks `plan_ranks` hands out are the ranks `plan` stores,
//! the folds over a stream say what the methods of the stored plan say, and
//! the auto-planner stores the winner's plan and no other.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use baselines::p25d::{Geometry25, P25dAlgorithm};
use cosma::algorithm::CPart;
use cosma::api::{AlgoId, AlgorithmRegistry, MmmAlgorithm, PlanError, RankFuture, RunSession};
use cosma::plan::{Coverage, DistPlan, PlanHeader, RankPlan, Round, Scoring, SimReport, Tiling};
use cosma::problem::MmmProblem;
use densemat::matrix::Matrix;
use mpsim::comm::RankComm;
use mpsim::cost::CostModel;
use serve::{AlgoChoice, AutoPlanner};

fn model() -> CostModel {
    CostModel::piz_daint_two_sided()
}

/// A splitmix64 fold over `u64` words (not `DefaultHasher`: the constants
/// below must mean the same thing on every toolchain).
struct Fold(u64);

impl Fold {
    fn word(&mut self, w: u64) {
        let mut z = (self.0 ^ w).wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        self.0 = z ^ (z >> 31);
    }

    fn words(&mut self, ws: impl IntoIterator<Item = usize>) {
        for w in ws {
            self.word(w as u64);
        }
    }
}

/// Everything a plan says, folded: header, every rank in order, and the
/// scores the auto-planner and the figures read off it.
fn digest(plan: &DistPlan) -> u64 {
    let mut f = Fold(algo_seed(plan.algo));
    f.words(plan.grid);
    f.words([plan.problem.p, plan.ranks.len()]);
    for r in &plan.ranks {
        f.words([r.rank, usize::from(r.active)]);
        f.words(r.coords);
        f.word(r.mem_words);
        f.word(r.bricks.len() as u64);
        for b in &r.bricks {
            for axis in [&b.rows, &b.cols, &b.ks] {
                f.words([axis.start, axis.end]);
            }
        }
        f.word(r.rounds.iter().len() as u64);
        for &round in &r.rounds {
            let Round {
                a_words,
                b_words,
                c_words,
                msgs,
                flops,
            } = round;
            [a_words, b_words, c_words, msgs, flops].into_iter().for_each(|w| f.word(w));
        }
    }
    f.word(plan.simulate(&model(), true).time_s.to_bits());
    f.word(plan.max_comm_words());
    f.word(plan.total_comm_words());
    f.0
}

/// The fold's seed for `algo`: its position in the five-algorithm order the
/// table was recorded under (COSMA, SUMMA, Cannon, 2.5D, CARMA), so the
/// pinned constants stay meaningful with Cannon retired.
fn algo_seed(algo: AlgoId) -> u64 {
    match algo {
        AlgoId::Cosma => 0,
        AlgoId::Summa => 1,
        AlgoId::P25d => 3,
        AlgoId::Carma => 4,
    }
}

/// One digest per algorithm of `reg` in [`AlgoId::ALL`] order; `None` where
/// the algorithm refuses the problem.
fn digests(reg: &AlgorithmRegistry, prob: &MmmProblem) -> [Option<u64>; 4] {
    AlgoId::ALL.map(|id| {
        let algo = reg.by_id(id).ok()?;
        algo.supports(prob).ok()?;
        algo.plan(prob, &model()).ok().map(|plan| digest(&plan))
    })
}

/// The pinned cases beyond the roster: idle ranks (COSMA and 2.5D on
/// awkward counts), non-powers-of-two, one rank, memory-starved CARMA
/// streaming DFS leaves, and a forced 2.5D geometry.
fn extra_cases() -> Vec<(&'static str, AlgorithmRegistry, MmmProblem)> {
    let full = baselines::registry();
    let mut forced = baselines::registry();
    forced.register(P25dAlgorithm::with_geometry(Geometry25 { q: 4, c: 2 }));
    vec![
        ("one-rank", full.clone(), MmmProblem::new(10, 12, 14, 1, 4096)),
        ("prime-p", full.clone(), MmmProblem::new(22, 26, 34, 7, 1 << 12)),
        ("idle-ranks", full.clone(), MmmProblem::new(96, 96, 96, 65, 1 << 14)),
        ("p-12", full.clone(), MmmProblem::new(30, 30, 30, 12, 1 << 12)),
        ("p-36", full.clone(), MmmProblem::new(29, 31, 37, 36, 1 << 13)),
        ("starved-carma", full.clone(), MmmProblem::new(64, 64, 64, 8, 1 << 10)),
        ("largek-small", full, MmmProblem::new(12, 12, 160, 8, 1 << 12)),
        ("forced-q4-c2", forced, MmmProblem::new(48, 40, 56, 37, 1 << 13)),
    ]
}

/// The rank counts of the `plan-sweep` roster.
const ROSTER_PS: [usize; 4] = [512, 1000, 2048, 4096];

/// Recorded at `08b4896`, the commit before plans became rank streams. The
/// 2.5D column was re-recorded when a rank's bricks became its runs of
/// contiguous k-ranges: every one of its digests is the earlier plan's with
/// only the bricks merged.
#[rustfmt::skip]
const PINNED: &[(&str, usize, [Option<u64>; 4])] = &[
    ("square-strong", 512, [Some(0xc9262ee1ad2686aa), Some(0x2de4a71b1dcfdcda), Some(0x6977a2fb0dd0e769), Some(0xe1f397fd5c40b116)]),
    ("square-strong", 1000, [Some(0x1730e06deefa0df2), Some(0x47b60be4fffdd8bc), Some(0xb40e11e55700314e), None]),
    ("square-strong", 2048, [Some(0x08479f8eeb3803ef), Some(0xb497a2001e603a5e), Some(0x95f3e9c63f267b38), Some(0x93e114cf614b6c4d)]),
    ("square-strong", 4096, [Some(0x9653d6dfc852ec63), Some(0xcbdc94c4aed9ba41), Some(0xe4b380f83ba9c346), Some(0x87dd655012f55891)]),
    ("square-limited", 512, [Some(0x651093960ef06a8d), Some(0x6ffb967cd9695410), Some(0xbca095260dbd45a9), Some(0x2f7f0b968213b1be)]),
    ("square-limited", 1000, [Some(0xcf3bd6ef35433065), Some(0xad0592acdf0be338), Some(0xd840bb705a1b52f8), None]),
    ("square-limited", 2048, [Some(0xbee54417fe894ade), Some(0x852a672a87bd19fc), Some(0x7013693de30fea18), Some(0x1e058f321f0eda18)]),
    ("square-limited", 4096, [Some(0x3a0748bd36eeba17), Some(0xbe7bd9fbfd2de961), Some(0x27bdd7d4d56e1232), Some(0x7619d8c30fe47230)]),
    ("square-extra", 512, [Some(0x7f1a15d1e290075b), Some(0x47de3cd6e0e95a51), Some(0xbc9a623adc4c12c8), Some(0x3c9ea643056c9dfc)]),
    ("square-extra", 1000, [Some(0x2354998f66e354c5), Some(0xca4efce36cd218d6), Some(0xca481e48ce1e37da), None]),
    ("square-extra", 2048, [Some(0xec9fef5e80f724c4), Some(0x4b6661400ec2c242), Some(0x38ca78868b78f0fd), Some(0xdf10be6a1dcf47ba)]),
    ("square-extra", 4096, [Some(0xfb633834f3a84610), Some(0xe6225f14078e6759), Some(0x8dc57226ba56b0ed), Some(0xc9770c0e183b6f36)]),
    ("largek-strong", 512, [Some(0xf51de0caa710c45f), Some(0x3e0ace56165a1a2d), Some(0x6339ee6294acbc7c), Some(0xbffdceb206bfac49)]),
    ("largek-strong", 1000, [Some(0x79989574bc9b4da1), Some(0x6147f74b1ddc425e), Some(0x528418e82a682bf9), None]),
    ("largek-strong", 2048, [Some(0xac8ae5c8b7ec539d), Some(0x053af9b327887bd3), Some(0xe1535bc9c90d07cb), Some(0x07eb3725fcafb79a)]),
    ("largek-strong", 4096, [Some(0x5979ca19496a039a), Some(0xf0cc30cdfb8a24d5), Some(0x095520af2b2b5b28), Some(0x974eccb52846ed3f)]),
    ("largek-limited", 512, [Some(0x63ad6eaf996b561f), Some(0x4eb9b5ee04437ef4), Some(0x9ced6ee4d318c7f3), Some(0xb13ff1acae81fa72)]),
    ("largek-limited", 1000, [Some(0x907bffaa6ca933c5), Some(0x4e889000ecfd7c16), Some(0x9dae933714e807a3), None]),
    ("largek-limited", 2048, [Some(0x90e0337ee477645b), Some(0x63770209f424b41f), Some(0x0565321dae7633cc), Some(0x9634a57131c0be10)]),
    ("largek-limited", 4096, [Some(0xc4a0f1904c86a7ca), Some(0x1f44fdee1ebdeb7d), Some(0x7bdb92f94053ea16), Some(0x7e641d4d048e5cc5)]),
    ("largek-extra", 512, [Some(0x892f6b284bfc4a09), Some(0xd7cfbe7902d3da63), Some(0x5a80935460b45135), Some(0x648c88f3aac0e361)]),
    ("largek-extra", 1000, [Some(0x6e3ccb932ccb1b40), Some(0x2967c92c96c73405), Some(0x3f392be1a64b535a), None]),
    ("largek-extra", 2048, [Some(0xbea3309e3e9271e4), Some(0xa16ffdbd228179b2), Some(0xbeff64a20cfef958), Some(0x6093806cfe12c829)]),
    ("largek-extra", 4096, [Some(0x8748855a4021a5f9), Some(0xec4a4979eb579f1c), Some(0x99aa01fd58a50b50), Some(0x1d25dc8b8d4cec28)]),
    ("largem-strong", 512, [Some(0xa7d953471b98eb12), Some(0x41dc939820fec460), Some(0x165a7d46468ba285), Some(0xe105372ac3e36af9)]),
    ("largem-strong", 1000, [Some(0x3d1b6fc7543f517a), Some(0xdfd84f735aa4cce3), Some(0x73eb755e23f71da6), None]),
    ("largem-strong", 2048, [Some(0x22ca6563752c79b8), Some(0xbafd509fa622f8b4), Some(0x97b90bf9a00500b3), Some(0xe29ceca4253fbb89)]),
    ("largem-strong", 4096, [Some(0x646ddd075dd48a5b), Some(0x858c3c4fcbaa262e), Some(0xf2f90d4fa4652c46), Some(0xafd0a1d889bf72bf)]),
    ("largem-limited", 512, [Some(0x7caf0dd54b4e8b0a), Some(0xcba14aa103e0d93b), Some(0x9a5c1b3300ca20b4), Some(0x0061d1883e88317b)]),
    ("largem-limited", 1000, [Some(0x28edb708b370f560), Some(0x5a92a9555517dde5), Some(0x80f6fffe8a17d54b), None]),
    ("largem-limited", 2048, [Some(0xf6418d93aad50e55), Some(0xba24545d71797d5c), Some(0x911d53b06430e3d9), Some(0xba3cd02cb90c6d5d)]),
    ("largem-limited", 4096, [Some(0x8b69122c28b2a9a6), Some(0x7f152ef03af493e3), Some(0x8f624dacc36fc3b6), Some(0x24ff5bf78a1f1ed5)]),
    ("largem-extra", 512, [Some(0x2e89b58c8980aa36), Some(0x0938b02fa03b80f6), Some(0xe04c3ca5bcd7d48f), Some(0xa2052e1710312bfe)]),
    ("largem-extra", 1000, [Some(0xc41374d455724335), Some(0x5e1db6f3019c4616), Some(0x5d0a40752ca19bbb), None]),
    ("largem-extra", 2048, [Some(0x386be46cdeb7ab52), Some(0x6f54323538c9e66b), Some(0x3c2f79d7c43fd673), Some(0x5cef66dafb3ba6c2)]),
    ("largem-extra", 4096, [Some(0x7a69ffe83b90b262), Some(0xfab5f07bf420d324), Some(0x8435852e3688c7a2), Some(0x90ebd0905391979e)]),
    ("flat-strong", 512, [Some(0xa5333e6d7a2451fa), Some(0x7df761f98508220e), Some(0x3ec706da69fdb53d), Some(0x8f1a09b2f6dfcd5d)]),
    ("flat-strong", 1000, [Some(0x3796d633ee54f8f5), Some(0xa4ed1d2e1ff7e9ae), Some(0x19b4cbab6b3b9fee), None]),
    ("flat-strong", 2048, [Some(0x5761725f81b8de04), Some(0xbda2389a25a3b686), Some(0xef17d4e3f83d8fc9), Some(0x30edec0d05dd7ee8)]),
    ("flat-strong", 4096, [Some(0x43c0e68d1baeb417), Some(0x4fceae991bfd6049), Some(0x3bb5f3cf5e66abd3), Some(0xc3708873727996ff)]),
    ("flat-limited", 512, [Some(0xbf7f776f5434dba4), Some(0x448915a0def98e34), Some(0x11c991ce4bb35031), Some(0x19297fffa3c557f4)]),
    ("flat-limited", 1000, [Some(0xf797d5a96f4516d9), Some(0x0ccb4ab1a9cd66fa), Some(0xd3f7bc21681fe367), None]),
    ("flat-limited", 2048, [Some(0x6163ff5499aabfc5), Some(0x9ccd4fc4d75b315d), Some(0xeee85f41dfa75b58), Some(0x1fc06bc63ece7315)]),
    ("flat-limited", 4096, [Some(0x3ede4f9b832cabdd), Some(0x9dcb2bbc670f74e0), Some(0xa2c6c6aaa473511a), Some(0xb87ca4ebf04ead12)]),
    ("flat-extra", 512, [Some(0xdca655ccbd75e6a0), Some(0xd365b9654f878e1c), Some(0xd767813b30b70065), Some(0x70fa483d58106a50)]),
    ("flat-extra", 1000, [Some(0x19a6d009e1c382c4), Some(0x554e868c027ea8f0), Some(0xeb84ca6b09b28e05), None]),
    ("flat-extra", 2048, [Some(0x0da0143421ef3212), Some(0xadc9be7185f6c576), Some(0x6188c709b94df60b), Some(0xad802bea41ed2bc2)]),
    ("flat-extra", 4096, [Some(0xa7ef42a34656955e), Some(0x04d37a1577fb02f3), Some(0xd0f5b86e311a0aef), Some(0xcf215c3e8f024fed)]),
    ("one-rank", 1, [Some(0xc3a15f33959acd72), Some(0x617eab8c10f21aae), Some(0x6a1f89e833cdeeec), Some(0xf9ef17e57726ff85)]),
    ("prime-p", 7, [Some(0x73fbe7a8b1567d06), Some(0x994df079c225a384), Some(0x2d2291f59b9d19ae), None]),
    ("idle-ranks", 65, [Some(0x6f82086b45390d68), Some(0xfcc0d914fc771692), Some(0xfd0739be0fe8427d), None]),
    ("p-12", 12, [Some(0x122a4fe9c98b6c5c), Some(0x37700267820c5627), Some(0x1348a0db357694fe), None]),
    ("p-36", 36, [Some(0x2019d4540999f65f), Some(0x4a0171f913da2b6d), Some(0x4eabb2ae6f635305), None]),
    ("starved-carma", 8, [Some(0x40c811ce76b3cd44), Some(0x7e2cc3b336d86094), None, Some(0x2e1fc0a3e06a295e)]),
    ("largek-small", 8, [Some(0x6bd585c6d85e1ca9), Some(0x587fb37c827a21e4), Some(0x47a03e3527ae1f2f), Some(0xf902c516c04f249c)]),
    ("forced-q4-c2", 37, [Some(0x1b23884e270e96c8), Some(0xd1c94e47612f6c07), Some(0x8684046dab31844d), None]),
];

#[test]
fn plan_digests_are_pinned() {
    let reg = baselines::registry();
    let mut got: Vec<(&str, usize, [Option<u64>; 4])> = Vec::new();
    for sc in bench::scenarios::all() {
        for p in ROSTER_PS {
            got.push((sc.id, p, digests(&reg, &(sc.problem)(p))));
        }
    }
    for (name, reg, prob) in extra_cases() {
        got.push((name, prob.p, digests(&reg, &prob)));
    }
    let roster = &got[..12 * ROSTER_PS.len()];
    assert_eq!(
        roster.iter().flat_map(|(_, _, d)| d).flatten().count(),
        180,
        "the roster's feasible (scenario, p, algorithm) count"
    );
    if got != PINNED {
        // The whole table, ready to paste (after checking *why* it moved).
        for (name, p, d) in &got {
            let cells: Vec<String> = d
                .iter()
                .map(|c| c.map_or("None".to_string(), |h| format!("Some({h:#018x})")))
                .collect();
            println!("    ({name:?}, {p}, [{}]),", cells.join(", "));
        }
        let moved: Vec<_> = got.iter().filter(|row| !PINNED.contains(row)).map(|(n, p, _)| (n, p)).collect();
        panic!("{} of {} pinned rows differ: {moved:?}", moved.len(), got.len());
    }
}

/// The traffic a plan prices, folded: its grid, every rank's received words
/// and messages in rank order, and its planned time with overlap on and off,
/// by their bits. Bricks and working sets are left out: they are where two
/// schedules of the same messages may differ.
fn traffic_digest(plan: &DistPlan) -> u64 {
    let mut f = Fold(0);
    f.words(plan.grid);
    for r in &plan.ranks {
        f.word(r.comm_words());
        f.word(r.comm_msgs());
    }
    for overlap in [true, false] {
        f.word(plan.simulate(&model(), overlap).time_s.to_bits());
    }
    f.0
}

/// Cannon's traffic at every point of [`plan_digests_are_pinned`] where it
/// planned, recorded from Cannon's own planner before it was retired: the
/// scenarios at p = 4096 (all but `square-limited`, where Cannon's whole
/// blocks did not fit), one rank, and p = 36.
#[rustfmt::skip]
const ONE_LAYER_TRAFFIC: [(&str, usize, u64); 13] = [
    ("square-strong", 4096, 0x9d8189af83c295ec),
    ("square-extra", 4096, 0xf4890c7007b4af44),
    ("largek-strong", 4096, 0xabc633b5feb8a7d2),
    ("largek-limited", 4096, 0x984b732657b76503),
    ("largek-extra", 4096, 0xa5a0953718e4f390),
    ("largem-strong", 4096, 0x9636bf1b6542435b),
    ("largem-limited", 4096, 0x1a322d4aa8863346),
    ("largem-extra", 4096, 0xdbc98e12538ce78a),
    ("flat-strong", 4096, 0xb1f949ec0a2c89c7),
    ("flat-limited", 4096, 0x70aba8f675403595),
    ("flat-extra", 4096, 0xf033480bf33570ae),
    ("one-rank", 1, 0x4d95333bdb8c5821),
    ("p-36", 36, 0x2dc3dff2cfa53d1a),
];

/// 2.5D forced to one layer, `{ q: ⌊√p⌋, c: 1 }`, is Cannon's algorithm:
/// at every pinned point where Cannon planned, it prices the words and
/// messages Cannon priced on every rank and the same time to the bit.
#[test]
fn one_layer_p25d_is_pinned_to_cannon() {
    let mut cases: Vec<(&str, MmmProblem)> = Vec::new();
    for sc in bench::scenarios::all() {
        cases.extend(ROSTER_PS.map(|p| (sc.id, (sc.problem)(p))));
    }
    cases.extend(extra_cases().into_iter().map(|(name, _, prob)| (name, prob)));
    let mut got = Vec::new();
    for (name, prob) in cases {
        if !ONE_LAYER_TRAFFIC.iter().any(|&(at, p, _)| (at, p) == (name, prob.p)) {
            continue;
        }
        let q = (prob.p as f64).sqrt().floor() as usize;
        let layer = P25dAlgorithm::with_geometry(Geometry25 { q, c: 1 })
            .plan(&prob, &model())
            .unwrap();
        got.push((name, prob.p, traffic_digest(&layer)));
    }
    if got != ONE_LAYER_TRAFFIC {
        for (name, p, d) in &got {
            println!("    ({name:?}, {p}, {d:#018x}),");
        }
        panic!("{} one-layer points, the table above", got.len());
    }
}

// ---------------------------------------------------------------------------
// The stream is the plan
// ---------------------------------------------------------------------------

/// Small problems over every rank-count class: squares, powers of two,
/// primes, counts that idle ranks, and a memory-starved one.
fn small_problems() -> Vec<MmmProblem> {
    let mut probs: Vec<MmmProblem> = extra_cases().into_iter().map(|(_, _, prob)| prob).collect();
    probs.push(MmmProblem::new(32, 32, 32, 16, 1 << 13));
    probs.push(MmmProblem::new(40, 40, 6, 16, 1 << 12));
    probs.push(MmmProblem::new(96, 12, 12, 8, 1 << 12));
    probs.push(MmmProblem::new(1000, 1000, 10, 2, 100)); // nothing fits
    probs
}

#[test]
fn streamed_ranks_equal_the_collected_plan() {
    let mut planned = 0;
    for prob in small_problems() {
        for algo in baselines::registry().all() {
            let at = format!("{} on {prob:?}", algo.id());
            let mut streamed: Vec<RankPlan> = Vec::new();
            let header = algo.plan_ranks(&prob, &model(), &mut |r| streamed.push(r));
            let plan = algo.plan(&prob, &model());
            match (header, plan) {
                (Ok(header), Ok(plan)) => {
                    planned += 1;
                    assert_eq!(streamed, plan.ranks, "{at}");
                    let stored = PlanHeader {
                        algo: plan.algo,
                        problem: plan.problem,
                        grid: plan.grid,
                    };
                    assert_eq!(header, stored, "{at}");
                    assert_eq!(header.problem, prob, "{at}: the header names the problem asked");
                    let ids: Vec<usize> = streamed.iter().map(|r| r.rank).collect();
                    assert_eq!(ids, (0..prob.p).collect::<Vec<_>>(), "{at}: ranks ascend from 0 to p");
                }
                (Err(streamed_err), Err(collected_err)) => assert_eq!(streamed_err, collected_err, "{at}"),
                (header, plan) => panic!("{at}: stream {header:?} but plan {:?}", plan.map(|p| p.grid)),
            }
        }
    }
    assert!(planned >= 30, "only {planned} plans compared — weak sample");
}

/// Every field of a report, floats by their bits.
fn report_bits(r: &SimReport) -> [u64; 7] {
    [
        r.time_s.to_bits(),
        r.percent_peak.to_bits(),
        r.critical.compute_s.to_bits(),
        r.critical.exposed_comm_s.to_bits(),
        r.critical.total_comm_s.to_bits(),
        r.max_comm_words,
        r.mean_comm_words.to_bits(),
    ]
}

/// Judge a rank stream with the folds alone: the coverage verdict and the
/// report, as the auto-planner takes them.
fn judge_stream(
    prob: &MmmProblem,
    overlap: bool,
    stream: impl FnOnce(&mut dyn FnMut(RankPlan)) -> Result<PlanHeader, PlanError>,
) -> (Result<Tiling, PlanError>, SimReport) {
    let model = model();
    let mut coverage = Coverage::new(prob);
    let mut scoring = Scoring::new(&model, overlap);
    let header = stream(&mut |r| {
        coverage.absorb(&r);
        scoring.absorb(&r);
    })
    .expect("a feasible stream");
    (coverage.finish(), scoring.finish(&header.problem))
}

/// Something done to every rank of a stream on its way out.
type Tamper = fn(&mut RankPlan);

/// Ways to spoil a plan, each keeping the rank count.
const TAMPERS: [(&str, Tamper); 4] = [
    ("intact", |_| {}),
    ("hole", |r| {
        if r.rank == 0 {
            r.bricks.clear()
        }
    }),
    ("overlap", to_the_origin),
    ("out of bounds", |r| {
        if r.rank == 1 {
            for b in &mut r.bricks {
                b.ks.end += 1;
            }
        }
    }),
];

/// Slide rank 1's bricks to the origin: their volume stays, and they land on
/// bricks that start there already.
fn to_the_origin(r: &mut RankPlan) {
    if r.rank == 1 {
        for b in &mut r.bricks {
            *b = cosma::plan::Brick {
                rows: 0..b.rows.len(),
                cols: 0..b.cols.len(),
                ks: 0..b.ks.len(),
            };
        }
    }
}

#[test]
fn folds_equal_the_methods() {
    let mut verdicts = std::collections::BTreeSet::new();
    for prob in small_problems().into_iter().filter(|prob| prob.p > 1) {
        for algo in baselines::registry().all() {
            let Ok(intact) = algo.plan(&prob, &model()) else {
                continue;
            };
            for (what, tamper) in TAMPERS {
                let at = format!("{} on {prob:?}, {what}", algo.id());
                let mut plan = intact.clone();
                plan.ranks.iter_mut().for_each(tamper);
                for overlap in [true, false] {
                    let (tiling, report) = judge_stream(&prob, overlap, |sink| {
                        algo.plan_ranks(&prob, &model(), &mut |mut r| {
                            tamper(&mut r);
                            sink(r)
                        })
                    });
                    assert_eq!(
                        report_bits(&report),
                        report_bits(&plan.simulate(&model(), overlap)),
                        "{at}, overlap {overlap}"
                    );
                    // The fold's verdict is the method's, except that the
                    // method goes on to name an overlapping pair.
                    match (tiling, plan.validate_coverage()) {
                        (Ok(Tiling::Exact), Ok(())) => verdicts.insert("exact"),
                        (Ok(Tiling::Overlapping), Err(PlanError::Overlap { .. })) => {
                            verdicts.insert("overlap")
                        }
                        (Err(fold), Err(method)) => {
                            assert_eq!(fold, method, "{at}");
                            verdicts.insert(match fold {
                                PlanError::BadCoverage { .. } => "bad coverage",
                                PlanError::OutOfBounds { .. } => "out of bounds",
                                other => panic!("{at}: {other}"),
                            })
                        }
                        (fold, method) => panic!("{at}: fold {fold:?} but method {method:?}"),
                    };
                }
            }
        }
    }
    let seen: Vec<&str> = verdicts.into_iter().collect();
    assert_eq!(
        seen,
        ["bad coverage", "exact", "out of bounds", "overlap"],
        "every verdict must be exercised"
    );
}

// ---------------------------------------------------------------------------
// The auto-planner stores the winner and nothing else
// ---------------------------------------------------------------------------

/// A real algorithm behind a counter: how often it was streamed, how often
/// collected, and optionally spoiling every rank on its way out.
struct Double {
    inner: Arc<dyn MmmAlgorithm>,
    tamper: Tamper,
    streams: AtomicUsize,
    collects: AtomicUsize,
}

impl Double {
    fn around(id: AlgoId, tamper: Tamper) -> Arc<Double> {
        Arc::new(Double {
            inner: baselines::registry().by_id(id).expect("registered"),
            tamper,
            streams: AtomicUsize::new(0),
            collects: AtomicUsize::new(0),
        })
    }

    /// (streams, collects) so far.
    fn counts(&self) -> (usize, usize) {
        (self.streams.load(Ordering::SeqCst), self.collects.load(Ordering::SeqCst))
    }
}

impl MmmAlgorithm for Double {
    fn id(&self) -> AlgoId {
        self.inner.id()
    }

    fn supports(&self, prob: &MmmProblem) -> Result<(), PlanError> {
        self.inner.supports(prob)
    }

    fn plan_ranks(
        &self,
        prob: &MmmProblem,
        machine: &CostModel,
        sink: &mut dyn FnMut(RankPlan),
    ) -> Result<PlanHeader, PlanError> {
        self.streams.fetch_add(1, Ordering::SeqCst);
        self.inner.plan_ranks(prob, machine, &mut |mut r| {
            (self.tamper)(&mut r);
            sink(r)
        })
    }

    /// The provided collect, counted (it streams once more).
    fn plan(&self, prob: &MmmProblem, machine: &CostModel) -> Result<DistPlan, PlanError> {
        self.collects.fetch_add(1, Ordering::SeqCst);
        DistPlan::collect(|sink| self.plan_ranks(prob, machine, sink))
    }

    fn execute_rank<'a>(
        &'a self,
        comm: &'a mut RankComm,
        plan: &'a DistPlan,
        a: &'a Matrix,
        b: &'a Matrix,
    ) -> RankFuture<'a, Vec<CPart>> {
        self.inner.execute_rank(comm, plan, a, b)
    }
}

/// All four algorithms behind counters, and the counters.
fn counted_registry() -> (AlgorithmRegistry, Vec<Arc<Double>>) {
    let doubles: Vec<Arc<Double>> = AlgoId::ALL.iter().map(|&id| Double::around(id, |_| {})).collect();
    let mut reg = AlgorithmRegistry::new();
    for double in &doubles {
        reg.register_arc(double.clone());
    }
    (reg, doubles)
}

#[test]
fn select_materialises_only_the_winner() {
    // p = 16 is a power of two: all four are feasible.
    let prob = MmmProblem::new(96, 96, 96, 16, 1 << 14);
    let choices = [
        AlgoChoice::Auto,
        AlgoChoice::Fixed(AlgoId::P25d),
        AlgoChoice::Among(vec![AlgoId::Carma, AlgoId::Summa]),
    ];
    for choice in choices {
        let (reg, doubles) = counted_registry();
        let planned = AutoPlanner::new(reg).select(&prob, &model(), true, &choice).expect("feasible");
        let reference = AutoPlanner::new(baselines::registry())
            .select(&prob, &model(), true, &choice)
            .expect("feasible");
        assert_eq!(planned.selection, reference.selection, "{choice:?}");
        assert_eq!(*planned.plan, *reference.plan, "{choice:?}");
        for double in &doubles {
            let id = double.id();
            let want = if id == planned.selection.algo {
                (2, 1) // scored from its stream, then collected
            } else if choice.candidates().contains(&id) {
                (1, 0) // scored from its stream, never stored
            } else {
                (0, 0)
            };
            assert_eq!(double.counts(), want, "{choice:?}: {id} (streams, collects)");
        }
    }
}

#[test]
fn a_streamed_overlap_names_the_same_pair() {
    let prob = MmmProblem::new(8, 8, 8, 2, 4096);
    let spoiled = |tamper: Tamper| {
        let double = Double::around(AlgoId::Cosma, tamper);
        let mut reg = AlgorithmRegistry::new();
        reg.register_arc(double.clone());
        let selected = AutoPlanner::new(reg.clone())
            .select(&prob, &model(), true, &AlgoChoice::Fixed(AlgoId::Cosma))
            .expect_err("a spoiled plan");
        let session = RunSession::new(prob).registry(reg).plan().expect_err("a spoiled plan");
        assert_eq!(selected, session, "the auto-planner and a session must refuse alike");
        (selected, double.counts())
    };
    // A hole is plain from the stream: nothing is collected for it (the one
    // collect is the session's).
    let (err, counts) = spoiled(|r| {
        if r.rank == 0 {
            r.bricks.clear()
        }
    });
    assert!(matches!(err, PlanError::BadCoverage { required: 512, .. }), "{err}");
    assert_eq!(counts, (2, 1));
    // An overlap of equal volume is collected once, to name its pair.
    let (err, counts) = spoiled(to_the_origin);
    assert_eq!(err, PlanError::Overlap { a: 0, b: 1 });
    assert_eq!(counts, (3, 2));
}

// ---------------------------------------------------------------------------
// Hostile problems
// ---------------------------------------------------------------------------

/// `MmmProblem`'s fields are public, so a literal gets past `new`'s asserts:
/// both entry points must answer with the typed error — not a panic in a
/// `clamp`, not a selection made on wrapped numbers.
#[test]
fn degenerate_problems_are_typed_errors_at_both_entry_points() {
    let sane = MmmProblem::new(64, 64, 64, 4, 1 << 12);
    let hostile = [
        ("zero ranks", MmmProblem { p: 0, ..sane }),
        ("zero dimension", MmmProblem { k: 0, ..sane }),
        ("zero memory", MmmProblem { mem_words: 0, ..sane }),
        (
            "2mnk beyond u64",
            MmmProblem {
                m: 1 << 22,
                n: 1 << 22,
                k: 1 << 22,
                ..sane
            },
        ),
        (
            "a matrix beyond u64",
            MmmProblem {
                m: 1 << 33,
                n: 1,
                k: 1 << 33,
                ..sane
            },
        ),
    ];
    let planner = AutoPlanner::new(baselines::registry());
    let (a, b) = (Matrix::deterministic(2, 2, 1), Matrix::deterministic(2, 2, 2));
    for (what, prob) in hostile {
        let degenerate =
            |e: PlanError| assert!(matches!(e, PlanError::DegenerateProblem { .. }), "{what}: {e}");
        degenerate(planner.select(&prob, &model(), true, &AlgoChoice::Auto).expect_err(what));
        for id in AlgoId::ALL {
            let session = RunSession::new(prob).registry(baselines::registry()).algorithm(id);
            degenerate(session.plan().expect_err(what));
            degenerate(session.run().expect_err(what));
            // Refused before a rank reads the (wrongly shaped) operands.
            degenerate(session.execute(&a, &b).expect_err(what));
        }
    }
    assert_eq!(sane.check(), Ok(()));
}

// ---------------------------------------------------------------------------
// Planning at scale
// ---------------------------------------------------------------------------

/// The cold auto-planner selection of paper scenario `id` at p = 16 384,
/// and how much it grew the process's peak RSS, in KiB.
fn select_at_p16384(id: &str) -> (serve::Planned, u64) {
    let prob = (bench::scenarios::by_id(id).expect("a paper scenario").problem)(16_384);
    let before = common::vm_hwm_kib();
    let planned = AutoPlanner::new(baselines::registry())
        .select(&prob, &model(), true, &AlgoChoice::Auto)
        .expect("feasible");
    (planned, common::vm_hwm_kib() - before)
}

/// `square-limited` at p = 16 384: the selection recorded at `08b4896`, which
/// needed 3.3 GiB and 20 s for it with all five plans alive at once (CARMA's
/// alone is 2.6 GiB). Streamed, only the winner's COSMA plan is ever stored,
/// and stored as runs of equal rounds it grows the peak by a few MiB (one
/// `Round` per round read +230 MiB).
/// Release only: `cargo test --release -- --ignored auto_planner_selects`.
#[test]
#[ignore = "plans four algorithms at p = 16384; run in release"]
fn auto_planner_selects_square_limited_at_p16384() {
    let (planned, grown_kib) = select_at_p16384("square-limited");
    let sel = &planned.selection;
    assert_eq!((sel.algo, sel.planned_time_s.to_bits()), (AlgoId::Cosma, 0x40b777d6bffd9e99));
    let runner_up = sel.runner_up.expect("several feasible algorithms");
    assert_eq!((runner_up.algo, runner_up.planned_time_s.to_bits()), (AlgoId::P25d, 0x40b77a55aa4a70f4));
    assert_eq!(planned.plan.ranks.len(), 16_384);
    assert_eq!(planned.plan.max_comm_words(), 14_323_879_019);
    assert!(grown_kib < 64 << 10, "selection grew the peak RSS by {} MiB", grown_kib >> 10);
}

/// `largem-limited` at p = 16 384, where SUMMA wins with ≈ 2 000 rounds a
/// rank: one `Round` stored per round grew the peak by 1 283 MiB; its runs
/// take a few MiB. The verdict is the one recorded at `bb26dff`, the commit
/// before plans stored runs.
/// Release only: `cargo test --release -- --ignored auto_planner_selects`.
#[test]
#[ignore = "plans four algorithms at p = 16384; run in release"]
fn auto_planner_selects_largem_limited_at_p16384() {
    let (planned, grown_kib) = select_at_p16384("largem-limited");
    let sel = &planned.selection;
    assert_eq!((sel.algo, sel.planned_time_s.to_bits()), (AlgoId::Summa, 0x403312a4645f067d));
    let runner_up = sel.runner_up.expect("several feasible algorithms");
    assert_eq!((runner_up.algo, runner_up.planned_time_s.to_bits()), (AlgoId::Cosma, 0x403525392ead8a5e));
    assert_eq!(planned.plan.ranks.len(), 16_384);
    assert_eq!(planned.plan.max_comm_words(), 158_417_857);
    assert!(grown_kib < 64 << 10, "selection grew the peak RSS by {} MiB", grown_kib >> 10);
}
