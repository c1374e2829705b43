//! Closed-form communication costs of the baselines (Table 3 of the paper).
//!
//! Rows 1–3 of Table 3: the 2D (SUMMA), 2.5D (CTF) and recursive
//! (CARMA) decompositions. The `table3` experiment prints these next to the
//! measured plan volumes; tests check the measured values track the models.

use cosma::problem::MmmProblem;

/// Table 3, 2D row: `Q = k(m+n)/√p + mn/p`.
pub fn summa_io(prob: &MmmProblem) -> f64 {
    let (m, n, k, p) = (prob.m as f64, prob.n as f64, prob.k as f64, prob.p as f64);
    k * (m + n) / p.sqrt() + m * n / p
}

/// Table 3, 2.5D row: `Q = (k(m+n))^(3/2)/(p√S) + mnS/(k(m+n))`.
pub fn p25d_io(prob: &MmmProblem) -> f64 {
    let (m, n, k, p, s) = (prob.m as f64, prob.n as f64, prob.k as f64, prob.p as f64, prob.mem_words as f64);
    (k * (m + n)).powf(1.5) / (p * s.sqrt()) + m * n * s / (k * (m + n))
}

/// Table 3, recursive row:
/// `Q = 2·min{√3·mnk/(p√S), (mnk/p)^(2/3)} + (mnk/p)^(2/3)`.
///
/// As with Theorem 2 (see `pebbles::bounds`), the `min` is regime-selected:
/// in the limited-memory regime (`mnk/p ≥ S^(3/2)`) a cubic local domain
/// does not fit and the bandwidth branch `√3·mnk/(p√S)` applies — this is
/// where CARMA's `√3` penalty over COSMA lives (§6.2 and Table 3's square
/// limited-memory special case). With extra memory the published arithmetic
/// min reproduces Table 3's tall-matrix special case (`≈ 3p/4`).
pub fn carma_io(prob: &MmmProblem) -> f64 {
    let (m, n, k, p, s) = (prob.m as f64, prob.n as f64, prob.k as f64, prob.p as f64, prob.mem_words as f64);
    let d = m * n * k / p;
    let bandwidth = 3f64.sqrt() * d / s.sqrt();
    let cubic = d.powf(2.0 / 3.0);
    if d >= s.powf(1.5) {
        2.0 * bandwidth + cubic
    } else {
        2.0 * bandwidth.min(cubic) + cubic
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosma::schedule::io_cost;

    fn square(p: usize, s: usize) -> MmmProblem {
        MmmProblem::new(4096, 4096, 4096, p, s)
    }

    #[test]
    fn summa_model_tracks_plan() {
        let prob = MmmProblem::new(256, 256, 256, 16, 1 << 16);
        let plan = crate::summa::plan(&prob).unwrap();
        let model = summa_io(&prob);
        let measured = plan.max_comm_words() as f64;
        // The model counts the full k(m+n)/sqrt(p) inputs; the measured plan
        // excludes the rank's own slices ((g-1)/g of the model).
        assert!(measured <= model * 1.05, "measured {measured} above model {model}");
        assert!(measured >= model * 0.6, "measured {measured} far below model {model}");
    }

    #[test]
    fn carma_model_tracks_plan() {
        // Square, power-of-two everything, limited memory.
        let prob = MmmProblem::new(1024, 1024, 1024, 64, 1 << 16);
        let plan = crate::carma::plan(&prob).unwrap();
        let model = carma_io(&prob);
        let measured = plan.max_comm_words() as f64;
        assert!(measured <= model * 1.5 && measured >= model * 0.2, "measured {measured} vs model {model}");
    }

    #[test]
    fn cosma_beats_2d_with_extra_memory() {
        // With ample memory the 2D algorithm wastes it; COSMA's cost drops.
        let prob = square(64, 1 << 24);
        assert!(io_cost(&prob) < summa_io(&prob));
    }

    #[test]
    fn cosma_never_above_carma_model_limited_memory() {
        // In the limited-memory regime (mnk/p >= S^(3/2)) CARMA pays the
        // sqrt(3) constant of §6.2; COSMA's model must win.
        for &(m, n, k) in &[(4096, 4096, 4096), (256, 256, 1 << 20), (1 << 18, 256, 256)] {
            for &s in &[1usize << 14, 1 << 16] {
                let prob = MmmProblem::new(m, n, k, 64, s);
                let d = prob.volume() as f64 / prob.p as f64;
                assert!(d >= (s as f64).powf(1.5), "scenario not limited-memory");
                let q_cosma = io_cost(&prob);
                let q_carma = carma_io(&prob);
                assert!(
                    q_cosma <= q_carma * 1.001,
                    "({m},{n},{k},S={s}): COSMA {q_cosma} above CARMA {q_carma}"
                );
                // And the gap approaches the paper's sqrt(3) on the leading term.
                assert!(q_carma / q_cosma < 3f64.sqrt() + 0.2);
            }
        }
    }

    #[test]
    fn table3_tall_case_ordering() {
        // Table 3's "tall matrices, extra memory" special case:
        // m = n = sqrt(p), k = p^(3/2)/4, S = 2nk/p^(2/3):
        // 2D ~ p^(3/2)/2, 2.5D ~ p^(4/3)/2, CARMA ~ 3p/4, COSMA ~ 0.69p.
        let p = 4096usize;
        let sq = (p as f64).sqrt() as usize; // 64
        let k = (p as f64).powf(1.5) as usize / 4;
        let s = 2 * sq * k / (p as f64).powf(2.0 / 3.0) as usize;
        let prob = MmmProblem::new(sq, sq, k, p, s);
        let q2d = summa_io(&prob);
        let q25 = p25d_io(&prob);
        let qrec = carma_io(&prob);
        let qcosma = io_cost(&prob);
        let pf = p as f64;
        assert!((q2d / (pf.powf(1.5) / 2.0) - 1.0).abs() < 0.2, "2D {q2d}");
        assert!((q25 / (pf.powf(4.0 / 3.0) / 2.0) - 1.0).abs() < 0.3, "2.5D {q25}");
        assert!((qrec / (0.75 * pf) - 1.0).abs() < 0.2, "CARMA {qrec}");
        // COSMA and CARMA land at Θ(p) with constants within a small factor
        // of each other (the paper quotes 0.69p vs 0.75p; our Eq. 33
        // evaluation and the published CARMA formula agree to ~2x), while 2D
        // and 2.5D are asymptotically worse.
        assert!(qcosma > 0.4 * pf && qcosma < 1.5 * pf, "COSMA {qcosma}");
        assert!(q2d > q25, "2D must lose to 2.5D");
        assert!(q25 > qrec.max(qcosma), "2.5D must lose to the optimal pair");
    }
}
