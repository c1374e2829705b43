//! The α-β-γ cost model and %-of-peak reporting.
//!
//! The paper reports runtime and "% of peak flop/s" on Piz Daint. We model a
//! rank's execution as a sequence of rounds, each with a communication part
//! (`α` per message + `β` per word) and a computation part (`flops/γ`), and
//! evaluate the sequence either back-to-back (no overlap) or double-buffered
//! (§7.3: the next round's communication overlaps the current round's
//! computation). The %-peak metric divides achieved flop/s by the machine's
//! *raw* peak, exactly like Figure 8/10/13/14.

/// Communication/computation cost constants of one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Raw peak flop rate per rank (flop/s). % peak is measured against this.
    pub peak_flops: f64,
    /// Sustained fraction of peak the local GEMM kernel achieves (γ =
    /// `peak_flops · kernel_efficiency`).
    pub kernel_efficiency: f64,
    /// Per-message latency in seconds (α).
    pub alpha_s: f64,
    /// Per-word transfer time in seconds (β, for 8-byte words).
    pub beta_s_per_word: f64,
}

impl CostModel {
    /// Piz-Daint-XC40-like constants (two-sided MPI messages): 2×18-core
    /// Xeon E5-2695 v4 nodes (33.6 Gflop/s peak per core), Aries network
    /// (~10 GB/s injection per 36-core node → ~0.28 GB/s per core).
    pub fn piz_daint_two_sided() -> Self {
        CostModel {
            peak_flops: 33.6e9,
            kernel_efficiency: 0.90,
            alpha_s: 2.0e-6,
            beta_s_per_word: 2.83e-8,
        }
    }

    /// `Ok` when every constant is finite, the two rates (`peak_flops`,
    /// `kernel_efficiency`) are positive and α and β are non-negative;
    /// otherwise the name of the first field that is not, in declaration
    /// order. A non-finite constant prices work at NaN or ±∞, which no plan
    /// comparison and no virtual clock can order; a zero rate prices a flop
    /// at +∞; a negative rate, α or β prices work at negative time, which a
    /// plan reports and no executed clock reproduces. α = 0 is allowed: it
    /// is the harness machine with free messages.
    pub fn check(&self) -> Result<(), &'static str> {
        let rates = [
            ("peak_flops", self.peak_flops),
            ("kernel_efficiency", self.kernel_efficiency),
        ];
        let costs = [
            ("alpha_s", self.alpha_s),
            ("beta_s_per_word", self.beta_s_per_word),
        ];
        let bad_rate = rates.into_iter().find(|&(_, v)| !(v.is_finite() && v > 0.0));
        match bad_rate.or_else(|| costs.into_iter().find(|&(_, v)| !(v.is_finite() && v >= 0.0))) {
            Some((field, _)) => Err(field),
            None => Ok(()),
        }
    }

    /// This model with β scaled by a topology contention multiplier
    /// (`Network::mean_contention`): the plan-level mean-field view of the
    /// event executor's shared-link serialization. α and γ are per-rank
    /// resources and stay untouched; a multiplier of exactly `1.0` (the
    /// flat topology) returns the model bitwise-unchanged.
    pub fn with_contention(&self, multiplier: f64) -> CostModel {
        CostModel {
            beta_s_per_word: self.beta_s_per_word * multiplier,
            ..*self
        }
    }

    /// Time to execute `flops` floating-point operations locally.
    pub fn compute_time(&self, flops: u64) -> f64 {
        flops as f64 / (self.peak_flops * self.kernel_efficiency)
    }

    /// Time to move `words` words in `msgs` messages.
    pub fn comm_time(&self, words: u64, msgs: u64) -> f64 {
        self.alpha_s * msgs as f64 + self.beta_s_per_word * words as f64
    }
}

/// One round of a rank's schedule: receive some words, then compute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundCost {
    /// Words received this round.
    pub words: u64,
    /// Messages received this round.
    pub msgs: u64,
    /// Flops computed this round.
    pub flops: u64,
}

/// A rank's simulated time, split into its exposed parts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Seconds spent computing.
    pub compute_s: f64,
    /// Seconds of communication that are *exposed* (not hidden by overlap).
    pub exposed_comm_s: f64,
    /// Total communication seconds (exposed + hidden).
    pub total_comm_s: f64,
}

impl TimeBreakdown {
    /// Wall-clock seconds of the rank: compute + exposed communication.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.exposed_comm_s
    }
}

/// Evaluate a sequence of rounds under the cost model.
///
/// Without overlap every round is `comm_i` then `comp_i` back to back. With
/// overlap (double buffering, §7.3) round `i+1`'s communication proceeds
/// while round `i` computes: the exposed time is
/// `comm_0 + Σ max(comp_i, comm_{i+1}) + comp_last`.
///
/// The rounds come as runs, `(round, count)`: `count` equal rounds in a row
/// (a plain sequence is runs of 1). A run's communication and computation
/// seconds are priced once and then added `count` times in order, so the
/// result is bit for bit the one of the rounds one at a time. One pass,
/// nothing stored: the runs may be a stream.
pub fn simulate_rounds(
    runs: impl IntoIterator<Item = (RoundCost, u64)>,
    model: &CostModel,
    overlap: bool,
) -> TimeBreakdown {
    // The sums start from `-0.0`, the neutral element `Iterator::sum` starts
    // from, so they are bit for bit the sums of the collected times.
    let (mut compute_s, mut total_comm_s, mut exposed) = (-0.0f64, -0.0f64, 0.0f64);
    // Computation time of the round before, behind which this round's
    // communication hides; `None` until the first round, whose fetch is
    // exposed whole.
    let mut comp_before: Option<f64> = None;
    for (r, count) in runs {
        let (comm, comp) = (model.comm_time(r.words, r.msgs), model.compute_time(r.flops));
        for _ in 0..count {
            compute_s += comp;
            total_comm_s += comm;
            // Pipeline: whatever of a fetch exceeds the computation it hides
            // behind stays exposed.
            match comp_before {
                None => exposed = comm,
                Some(before) => exposed += (comm - before).max(0.0),
            }
            comp_before = Some(comp);
        }
    }
    if comp_before.is_none() {
        return TimeBreakdown::default();
    }
    TimeBreakdown {
        compute_s,
        exposed_comm_s: if overlap { exposed } else { total_comm_s },
        total_comm_s,
    }
}

/// Percent of machine peak achieved: `flops / (p · peak · seconds) · 100`.
pub fn percent_peak(total_flops: u64, p: usize, seconds: f64, model: &CostModel) -> f64 {
    if seconds <= 0.0 || p == 0 {
        return 0.0;
    }
    100.0 * total_flops as f64 / (p as f64 * model.peak_flops * seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_model() -> CostModel {
        CostModel {
            peak_flops: 1.0,
            kernel_efficiency: 1.0,
            alpha_s: 0.0,
            beta_s_per_word: 1.0,
        }
    }

    /// A plain sequence of rounds as runs of 1.
    fn singles(rounds: impl IntoIterator<Item = RoundCost>) -> impl Iterator<Item = (RoundCost, u64)> {
        rounds.into_iter().map(|r| (r, 1))
    }

    #[test]
    fn compute_and_comm_time() {
        let m = CostModel {
            peak_flops: 100.0,
            kernel_efficiency: 0.5,
            alpha_s: 2.0,
            beta_s_per_word: 0.1,
        };
        assert!((m.compute_time(100) - 2.0).abs() < 1e-12);
        assert!((m.comm_time(10, 3) - (6.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn no_overlap_is_sum() {
        let rounds = [
            RoundCost {
                words: 5,
                msgs: 0,
                flops: 10,
            },
            RoundCost {
                words: 3,
                msgs: 0,
                flops: 4,
            },
        ];
        let t = simulate_rounds(singles(rounds), &unit_model(), false);
        assert!((t.compute_s - 14.0).abs() < 1e-12);
        assert!((t.exposed_comm_s - 8.0).abs() < 1e-12);
        assert!((t.total_s() - 22.0).abs() < 1e-12);
        assert!((t.total_comm_s - t.exposed_comm_s).abs() < 1e-12);
    }

    #[test]
    fn overlap_hides_comm_behind_compute() {
        // comm = [5, 3], comp = [10, 4]: with overlap only the first fetch is
        // exposed (3 < 10 hides fully): total = 5 + 10 + 4.
        let rounds = [
            RoundCost {
                words: 5,
                msgs: 0,
                flops: 10,
            },
            RoundCost {
                words: 3,
                msgs: 0,
                flops: 4,
            },
        ];
        let t = simulate_rounds(singles(rounds), &unit_model(), true);
        assert!((t.exposed_comm_s - 5.0).abs() < 1e-12);
        assert!((t.total_s() - 19.0).abs() < 1e-12);
        // Total comm still accounts for the hidden part.
        assert!((t.total_comm_s - 8.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_exposes_excess_comm() {
        // comm = [2, 20], comp = [4, 1]: second fetch exceeds the compute it
        // hides behind by 16.
        let rounds = [
            RoundCost {
                words: 2,
                msgs: 0,
                flops: 4,
            },
            RoundCost {
                words: 20,
                msgs: 0,
                flops: 1,
            },
        ];
        let t = simulate_rounds(singles(rounds), &unit_model(), true);
        assert!((t.exposed_comm_s - 18.0).abs() < 1e-12);
        assert!((t.total_s() - 23.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_never_slower_never_faster_than_bounds() {
        let model = CostModel::piz_daint_two_sided();
        let rounds: Vec<RoundCost> = (0..20)
            .map(|i| RoundCost {
                words: 1000 * (i + 1),
                msgs: 2,
                flops: 500_000 * (20 - i),
            })
            .collect();
        let no = simulate_rounds(singles(rounds.iter().copied()), &model, false);
        let yes = simulate_rounds(singles(rounds), &model, true);
        assert!(yes.total_s() <= no.total_s() + 1e-15);
        // Overlap cannot beat the max(comm, comp) lower bound.
        assert!(yes.total_s() + 1e-15 >= no.compute_s.max(no.total_comm_s));
    }

    #[test]
    fn a_run_is_its_rounds_one_at_a_time() {
        let model = CostModel::piz_daint_two_sided();
        let (fetch, compute) = (
            RoundCost {
                words: 70_000,
                msgs: 3,
                flops: 1_000,
            },
            RoundCost {
                words: 10,
                msgs: 1,
                flops: 90_000_000,
            },
        );
        // Fetch-bound and compute-bound runs, an empty run between them.
        let runs = [(fetch, 5), (compute, 0), (compute, 7), (fetch, 1), (compute, 3)];
        let rounds: Vec<RoundCost> = runs
            .iter()
            .flat_map(|&(r, count)| std::iter::repeat_n(r, count as usize))
            .collect();
        let bits = |t: TimeBreakdown| [t.compute_s, t.exposed_comm_s, t.total_comm_s].map(f64::to_bits);
        for overlap in [true, false] {
            assert_eq!(
                bits(simulate_rounds(runs, &model, overlap)),
                bits(simulate_rounds(singles(rounds.iter().copied()), &model, overlap)),
                "overlap {overlap}"
            );
        }
        assert_eq!(simulate_rounds([(fetch, 0)], &model, true), TimeBreakdown::default());
    }

    #[test]
    fn empty_rounds() {
        let t = simulate_rounds([], &unit_model(), true);
        assert_eq!(t.total_s(), 0.0);
    }

    #[test]
    fn percent_peak_formula() {
        let m = unit_model();
        // 50 flops on 1 rank of peak 1 flop/s over 100 s = 50%.
        assert!((percent_peak(50, 1, 100.0, &m) - 50.0).abs() < 1e-12);
        assert_eq!(percent_peak(50, 0, 100.0, &m), 0.0);
        assert_eq!(percent_peak(50, 1, 0.0, &m), 0.0);
    }

    #[test]
    fn contention_scales_beta_only_and_one_is_identity() {
        let m = CostModel::piz_daint_two_sided();
        assert_eq!(m.with_contention(1.0), m, "1.0 must be the bitwise identity");
        let worse = m.with_contention(8.0);
        assert_eq!(worse.alpha_s, m.alpha_s);
        assert_eq!(worse.peak_flops, m.peak_flops);
        assert_eq!(worse.beta_s_per_word, m.beta_s_per_word * 8.0);
    }

    #[test]
    fn check_names_the_first_invalid_constant() {
        let check = |edit: fn(&mut CostModel)| {
            let mut model = CostModel::piz_daint_two_sided();
            edit(&mut model);
            model.check()
        };
        assert_eq!(check(|_| {}), Ok(()));
        // α = 0 (either sign) is the harness machine with free messages.
        assert_eq!(check(|m| m.alpha_s = 0.0), Ok(()));
        assert_eq!(check(|m| m.alpha_s = -0.0), Ok(()));
        assert_eq!(check(|m| m.peak_flops = 0.0), Err("peak_flops"));
        assert_eq!(check(|m| m.peak_flops = -1e9), Err("peak_flops"));
        assert_eq!(check(|m| m.kernel_efficiency = 0.0), Err("kernel_efficiency"));
        assert_eq!(check(|m| m.alpha_s = -1e-6), Err("alpha_s"));
        assert_eq!(check(|m| m.beta_s_per_word = -1e-9), Err("beta_s_per_word"));
        assert_eq!(check(|m| m.beta_s_per_word = f64::NAN), Err("beta_s_per_word"));
        // The first in declaration order.
        let both = |m: &mut CostModel| (m.kernel_efficiency, m.alpha_s) = (0.0, -1.0);
        assert_eq!(check(both), Err("kernel_efficiency"));
    }

    #[test]
    fn piz_daint_presets_sane() {
        // A core computes a 1000^3 GEMM in ~66 ms at 90% of 33.6 Gflop/s.
        let t = CostModel::piz_daint_two_sided().compute_time(2_000_000_000);
        assert!(t > 0.05 && t < 0.08, "gemm time {t}");
    }
}
