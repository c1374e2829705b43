//! The optimal sequential → parallel schedule derivation (§5, §6.3).
//!
//! `FindSeqSchedule` (Line 1 of Algorithm 1) and `ParallelizeSched` (Line 2)
//! solve Eq. 32:
//!
//! ```text
//! a = min{ √S, (mnk/p)^(1/3) },   b = max{ mnk/(pS), (mnk/p)^(1/3) }
//! ```
//!
//! giving every rank an `[a × a × b]` local domain: in the *limited memory*
//! regime the C-tile face is pinned at `√S × √S` and the domain grows along
//! k; with *extra memory* the domain is a cube; [`io_cost`] is Eq. 33's
//! per-rank I/O of that domain. The latency-minimizing round
//! size `s = ⌊(S − a²)/(2a)⌋` (Line 6) splits the k-extent into
//! `t = ⌈b/s⌉` communication steps (§6.3, I/O–latency trade-off).
//!
//! Memory accounting convention: like the paper's analysis (which allows
//! `a² = S`), the working set counted against `S` is the C tile plus the
//! double-buffered A/B round slabs; the rank's *own* shard of the initial
//! data is charged to the problem's input footprint, not the schedule.

use crate::algorithm::even_range;
use crate::problem::MmmProblem;

/// The optimal local-domain shape of Eq. 32, as reals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalDomain {
    /// C-tile edge `a`.
    pub a: f64,
    /// k-extent `b`.
    pub b: f64,
}

/// `FindSeqSchedule`: the sequential tile edge `a = min(√S, (mnk/p)^(1/3))`.
pub fn find_seq_schedule(prob: &MmmProblem) -> f64 {
    let per_domain = prob.volume() as f64 / prob.p as f64;
    (prob.mem_words as f64).sqrt().min(per_domain.cbrt())
}

/// `ParallelizeSched`: the k-extent `b = max(mnk/(pS), (mnk/p)^(1/3))`.
pub fn parallelize_schedule(prob: &MmmProblem) -> f64 {
    let per_domain = prob.volume() as f64 / prob.p as f64;
    (per_domain / prob.mem_words as f64).max(per_domain.cbrt())
}

/// Both halves of Eq. 32 at once.
pub fn optimal_domain(prob: &MmmProblem) -> OptimalDomain {
    OptimalDomain {
        a: find_seq_schedule(prob),
        b: parallelize_schedule(prob),
    }
}

/// Eq. 33: COSMA's per-rank I/O cost
/// `Q = min{2mnk/(p√S) + S, 3(mnk/p)^(2/3)}`, selected by regime like the
/// bound of Theorem 2 (`a = min(√S, (mnk/p)^(1/3))` decides the branch).
pub fn io_cost(prob: &MmmProblem) -> f64 {
    let d = optimal_domain(prob);
    // Q = 2ab + a² with the optimal a, b.
    2.0 * d.a * d.b + d.a * d.a
}

/// The communication-step structure of one rank's local domain (§6.3 and
/// Lines 6–7 of Algorithm 1), for a concrete integer domain `lm × ln × lk`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepPlan {
    /// Number of communication rounds `t`.
    pub steps: usize,
    /// k-extent of each round (balanced split of `lk`; every entry is at
    /// most the latency-optimal `s`).
    pub slabs: Vec<usize>,
}

/// Split a rank's k-extent `lk` into rounds that fit memory: each round
/// holds the `lm × ln` C tile plus double-buffered slabs of `s·lm + s·ln`
/// incoming words, so `s = ⌊(S − lm·ln)/(2(lm + ln))⌋` (the paper's
/// `⌊(S − a²)/(2a)⌋` generalized to rectangles), clamped to `[1, lk]`.
///
/// Returns `None` when even `s = 1` does not fit (the C tile plus one
/// column/row pair exceeds `S`) — the caller must pick a smaller grid tile.
pub fn latency_steps(lm: usize, ln: usize, lk: usize, mem_words: usize) -> Option<StepPlan> {
    let tile = lm.checked_mul(ln)?;
    let per_col = 2 * (lm + ln);
    if tile + per_col > mem_words {
        return None;
    }
    let s = ((mem_words - tile) / per_col).clamp(1, lk.max(1));
    let steps = lk.div_ceil(s);
    // Balanced slabs: sizes differ by at most one and never exceed s.
    let slabs = (0..steps).map(|i| even_range(lk, steps, i).len()).collect();
    Some(StepPlan { steps, slabs })
}

impl StepPlan {
    /// Offsets of each slab within `0..lk`.
    pub fn slab_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::with_capacity(self.slabs.len());
        let mut x = 0;
        for &w in &self.slabs {
            out.push(x..x + w);
            x += w;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limited_memory_regime_pins_a_at_sqrt_s() {
        // mnk/p = 2^30, S = 2^16 -> sqrt(S) = 256 < cbrt = 1024.
        let prob = MmmProblem::new(1 << 12, 1 << 12, 1 << 12, 64, 1 << 16);
        let d = optimal_domain(&prob);
        assert!((d.a - 256.0).abs() < 1e-9);
        // b = mnk/(pS) = 2^30 / 2^16 = 2^14.
        assert!((d.b - 16384.0).abs() < 1e-6);
        assert!(d.b > d.a, "limited memory stretches the domain along k");
    }

    #[test]
    fn extra_memory_regime_gives_cubic_domain() {
        // mnk/p = 2^30, S = 2^26 -> sqrt(S) = 2^13 > cbrt = 2^10.
        let prob = MmmProblem::new(1 << 12, 1 << 12, 1 << 12, 64, 1 << 26);
        let d = optimal_domain(&prob);
        assert!((d.a - 1024.0).abs() < 1e-6);
        assert!((d.b - 1024.0).abs() < 1e-6);
    }

    #[test]
    fn io_cost_matches_theorem2_in_both_regimes() {
        use pebbles::bounds::theorem2_parallel_bound;
        // Limited memory: mnk/p = 2^30 >= S^{3/2} with S = 2^16.
        let limited = MmmProblem::new(1 << 12, 1 << 12, 1 << 12, 64, 1 << 16);
        let q = io_cost(&limited);
        let bound = theorem2_parallel_bound(limited.m, limited.n, limited.k, limited.p, limited.mem_words);
        assert!((q - bound).abs() / bound < 1e-9, "limited: {q} vs {bound}");
        // Extra memory: cubic branch.
        let extra = MmmProblem::new(1 << 12, 1 << 12, 1 << 12, 64, 1 << 26);
        let q = io_cost(&extra);
        let bound = theorem2_parallel_bound(extra.m, extra.n, extra.k, extra.p, extra.mem_words);
        assert!((q - bound).abs() / bound < 1e-9, "extra: {q} vs {bound}");
    }

    #[test]
    fn domain_volume_is_work_per_rank() {
        for &(m, n, k, p, s) in &[
            (512usize, 512, 512, 8usize, 1usize << 14),
            (100, 3000, 70, 12, 1 << 12),
            (4096, 32, 4096, 64, 1 << 18),
        ] {
            let prob = MmmProblem::new(m, n, k, p, s);
            let d = optimal_domain(&prob);
            let vol = d.a * d.a * d.b;
            let want = prob.volume() as f64 / p as f64;
            assert!((vol / want - 1.0).abs() < 1e-9, "a²b = {vol} must equal mnk/p = {want}");
        }
    }

    #[test]
    fn latency_steps_respect_memory() {
        // Tile 10x10, S = 180: slack 80 words / (2*(10+10)) = 2 columns.
        let sp = latency_steps(10, 10, 50, 180).unwrap();
        assert_eq!(sp.steps, 25);
        assert!(sp.slabs.iter().all(|&w| w <= 2));
        assert_eq!(sp.slabs.iter().sum::<usize>(), 50);
    }

    #[test]
    fn latency_steps_single_round_with_plenty_memory() {
        let sp = latency_steps(10, 10, 50, 1_000_000).unwrap();
        assert_eq!(sp.steps, 1);
        assert_eq!(sp.slabs, vec![50]);
    }

    #[test]
    fn latency_steps_balanced_remainders() {
        // lk = 7 with s = 2 -> 4 rounds of sizes 2,2,2,1 -> balanced to 2,2,2,1.
        let sp = latency_steps(4, 4, 7, 4 * 4 + 2 * (4 + 4) * 2).unwrap();
        assert_eq!(sp.slabs.iter().sum::<usize>(), 7);
        let max = *sp.slabs.iter().max().unwrap();
        let min = *sp.slabs.iter().min().unwrap();
        assert!(max - min <= 1, "slabs {:?} not balanced", sp.slabs);
        let ranges = sp.slab_ranges();
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 7);
    }

    #[test]
    fn latency_steps_infeasible_tile() {
        assert!(latency_steps(100, 100, 10, 100 * 100 + 1).is_none());
        assert!(latency_steps(100, 100, 10, 100 * 100 + 2 * 200).is_some());
    }

    #[test]
    fn more_memory_means_fewer_steps() {
        let tight = latency_steps(32, 32, 1000, 32 * 32 + 2 * 64 * 2).unwrap();
        let roomy = latency_steps(32, 32, 1000, 32 * 32 + 2 * 64 * 50).unwrap();
        assert!(roomy.steps < tight.steps);
    }
}
