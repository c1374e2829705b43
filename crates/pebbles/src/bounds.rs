//! Closed-form I/O bounds and optimal schedule parameters (paper §4–§6).
//!
//! The headline results:
//!
//! * **Theorem 1** — any pebbling of the MMM CDAG performs at least
//!   `2mnk/√S + mn` I/O operations ([`theorem1_lower_bound`]).
//! * **Attainability (§5.2.7)** — a feasible greedy schedule achieves
//!   `2mnk/(√(S+1)−1) + mn` ([`greedy_attainable_io`]), i.e. within
//!   [`tightness_factor`] `= √S/(√(S+1)−1)` of the bound.
//! * **Theorem 2** — per-processor I/O of parallel MMM is at least
//!   `min{2mnk/(p√S) + S, 3(mnk/p)^(2/3)}` ([`theorem2_parallel_bound`]).
//! * **Lemma 4** — the computational-intensity bound `Q ≥ |V|/ρ`
//!   ([`computational_intensity`], [`intensity_lower_bound`]).
//! * **Eqs. 24–25** — the optimal X-partition parameters `a = b = ⌊√S⌋`,
//!   `ρ = ⌊√S⌋/2` ([`x_partition_params`]).
//! * **Eqs. 26–28** — the feasible-schedule tile shape `a_opt, b_opt`
//!   ([`aopt_bopt`], [`aopt_bopt_enumerated`]).

/// Theorem 1: sequential MMM I/O lower bound `2mnk/√S + mn`.
pub fn theorem1_lower_bound(m: usize, n: usize, k: usize, s: usize) -> f64 {
    let (m, n, k, s) = (m as f64, n as f64, k as f64, s as f64);
    2.0 * m * n * k / s.sqrt() + m * n
}

/// I/O of the feasible greedy schedule of §5.2.7: `2mnk/(√(S+1)−1) + mn`.
pub fn greedy_attainable_io(m: usize, n: usize, k: usize, s: usize) -> f64 {
    let (m, n, k, s) = (m as f64, n as f64, k as f64, s as f64);
    2.0 * m * n * k / ((s + 1.0).sqrt() - 1.0) + m * n
}

/// The gap between the attainable schedule and the lower bound:
/// `√S/(√(S+1)−1)`, which approaches 1 for large `S` (0.04% off for a 10 MB
/// fast memory, as the paper highlights).
pub fn tightness_factor(s: usize) -> f64 {
    let s = s as f64;
    s.sqrt() / ((s + 1.0).sqrt() - 1.0)
}

/// Theorem 2: parallel MMM per-processor I/O lower bound
/// `min{2mnk/(p√S) + S, 3(mnk/p)^(2/3)}`.
///
/// The paper's `min` selects the branch by which regime applies: the I/O
/// constraint `a² ≤ S` binds ("limited memory") exactly when
/// `p ≤ mnk/S^(3/2)`, i.e. `mnk/p ≥ S^(3/2)`; there the bound is
/// `2mnk/(p√S) + S`. Otherwise ("extra memory") the cubic-domain branch
/// `3(mnk/p)^(2/3)` applies. (Taking an arithmetic minimum would always
/// return the cubic term, because `2D/√S + S ≥ 3D^(2/3)` for every `S`, with
/// equality at `S = D^(2/3)`.)
pub fn theorem2_parallel_bound(m: usize, n: usize, k: usize, p: usize, s: usize) -> f64 {
    let (m, n, k, p, s) = (m as f64, n as f64, k as f64, p as f64, s as f64);
    let per_domain = m * n * k / p;
    if per_domain >= s.powf(1.5) {
        2.0 * per_domain / s.sqrt() + s
    } else {
        3.0 * per_domain.powf(2.0 / 3.0)
    }
}

/// Lemma 4's computational intensity of a subcomputation:
/// `ρ_i = |V_i| / (X − |V_{R,i}| + |W_{B,i}|)`.
///
/// # Panics
/// Panics if the denominator is not positive (the subcomputation would do no
/// I/O at all, which Lemma 2 excludes for `X ≥ S`).
pub fn computational_intensity(volume: u64, x: usize, reuse: usize, store: usize) -> f64 {
    let denom = x as i64 - reuse as i64 + store as i64;
    assert!(denom > 0, "computational intensity undefined for X - R + T <= 0");
    volume as f64 / denom as f64
}

/// Lemma 4's lower bound `Q ≥ |V| / ρ` given the total compute volume and the
/// maximum computational intensity.
pub fn intensity_lower_bound(total_volume: u64, rho_max: f64) -> f64 {
    assert!(rho_max > 0.0, "intensity must be positive");
    total_volume as f64 / rho_max
}

/// Optimal X-partition parameters of Eq. 24–25: subcomputation shape
/// `a = b = ⌊√S⌋`, `c = 1`, partition size `X = a² + 2a`, and the maximal
/// computational intensity `ρ = a/2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XPartitionParams {
    /// Tile edge `a = b = ⌊√S⌋`.
    pub a: usize,
    /// k-extent of a subcomputation (`c = 1`).
    pub c: usize,
    /// The partition parameter `X = a² + 2a`.
    pub x: usize,
    /// Maximal computational intensity `ρ = a/2`.
    pub rho: f64,
}

/// Compute Eq. 24–25 for fast-memory size `s`.
pub fn x_partition_params(s: usize) -> XPartitionParams {
    let a = (s as f64).sqrt().floor() as usize;
    XPartitionParams {
        a,
        c: 1,
        x: a * a + 2 * a,
        rho: a as f64 / 2.0,
    }
}

/// Continuous solution of the feasible-schedule optimization (Eqs. 26–28):
/// maximize `ab/(a+b)` subject to `ab + a + 1 ≤ S`. Returns `(a_opt, b_opt)`
/// as reals; both are strictly below `√S`.
pub fn aopt_bopt(s: usize) -> (f64, f64) {
    assert!(s >= 3, "need S >= 3 for a feasible tile");
    let s = s as f64;
    let root = ((s - 1.0).powi(3)).sqrt();
    let a = (root - s + 1.0) / (s - 2.0);
    let b = -(2.0 * s + root - s * s - 1.0) / (root - s + 1.0);
    (a, b)
}

/// Exact integer solution of Eq. 26 by enumeration: the `(a, b)` maximizing
/// `ab/(a+b)` subject to `ab + a + 1 ≤ S` (keeping a full `a`-column of A and
/// one element of B resident, as in the paper's accounting).
pub fn aopt_bopt_enumerated(s: usize) -> (usize, usize) {
    assert!(s >= 3, "need S >= 3 for a feasible tile");
    let mut best = (1usize, 1usize);
    let mut best_rho = 0.0f64;
    for a in 1..s {
        if a + a + 1 > s {
            break;
        }
        let b = (s - a - 1) / a;
        if b == 0 {
            continue;
        }
        let rho = (a * b) as f64 / (a + b) as f64;
        if rho > best_rho {
            best_rho = rho;
            best = (a, b);
        }
    }
    best
}

/// The largest tile `(a, b)` maximizing `ab/(a+b)` that this workspace's
/// strict pebble-game engine can execute: the engine momentarily holds the
/// `ab` partials, the `a` A-elements, the `b` B-elements *and* the freshly
/// computed partial, so feasibility is `ab + a + b + 1 ≤ S`.
///
/// (The paper's accounting updates C partials in place, saving the `+b`;
/// both shapes differ only in lower-order terms.)
pub fn best_engine_tile(s: usize) -> (usize, usize) {
    assert!(s >= 4, "need S >= 4 for the strict engine");
    let mut best = (1usize, 1usize);
    let mut best_rho = 0.0f64;
    for a in 1..s {
        if a + a + 1 + 1 > s {
            break;
        }
        // Largest b with ab + a + b + 1 <= s  =>  b <= (s - a - 1)/(a + 1).
        let b = (s - a - 1) / (a + 1);
        if b == 0 {
            continue;
        }
        let rho = (a * b) as f64 / (a + b) as f64;
        if rho > best_rho {
            best_rho = rho;
            best = (a, b);
        }
    }
    best
}

/// Exact I/O of the tiled greedy schedule (Listing 1 generalized to `a × b`
/// tiles of C): every k-layer loads the tile's A-column fragment and B-row
/// fragment, and each output element is stored once:
/// `Q = k·(m·⌈n/b⌉ + n·⌈m/a⌉) + mn` (remainder tiles included exactly).
pub fn tiled_io(m: usize, n: usize, k: usize, a: usize, b: usize) -> u64 {
    assert!(a > 0 && b > 0, "tile sizes must be positive");
    let loads = k as u64 * (m as u64 * n.div_ceil(b) as u64 + n as u64 * m.div_ceil(a) as u64);
    loads + (m * n) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_known_values() {
        // 2*8/2 + 4 = 12 for 2x2x2 with S = 4.
        assert!((theorem1_lower_bound(2, 2, 2, 4) - 12.0).abs() < 1e-12);
        // Square n=1024, S=1024: 2n^3/32 + n^2.
        let q = theorem1_lower_bound(1024, 1024, 1024, 1024);
        assert!((q - (2.0 * 1024f64.powi(3) / 32.0 + 1024.0 * 1024.0)).abs() < 1e-3);
    }

    #[test]
    fn attainable_exceeds_bound_by_tightness_factor() {
        for s in [16usize, 100, 1024, 1 << 20] {
            let (m, n, k) = (64, 64, 64);
            let lb = theorem1_lower_bound(m, n, k, s);
            let at = greedy_attainable_io(m, n, k, s);
            assert!(at >= lb, "attainable below bound at S={s}");
            // The leading terms differ exactly by the tightness factor.
            let lead_lb = 2.0 * (m * n * k) as f64 / (s as f64).sqrt();
            let lead_at = 2.0 * (m * n * k) as f64 / ((s as f64 + 1.0).sqrt() - 1.0);
            assert!((lead_at / lead_lb - tightness_factor(s)).abs() < 1e-9);
        }
    }

    #[test]
    fn tightness_factor_approaches_one() {
        // 10 MB of fast memory = 1,310,720 doubles: factor < 1.001 (the
        // paper quotes 0.03%–0.04%).
        let f = tightness_factor(10 * 1024 * 1024 / 8);
        assert!(f > 1.0 && f < 1.001, "factor {f}");
        assert!(tightness_factor(16) > tightness_factor(256));
    }

    #[test]
    fn theorem2_switches_regimes() {
        let (m, n, k, p) = (1 << 12, 1 << 12, 1 << 12, 64);
        let per_domain = (m * n * k / p) as f64; // 2^30, so the knee is S = 2^20
        let s_small = 1 << 14; // limited memory -> 2mnk/(p sqrt S) + S
        let s_big = 1 << 26; // extra memory -> cubic branch
        let q_small = theorem2_parallel_bound(m, n, k, p, s_small);
        let expect_small = 2.0 * per_domain / (s_small as f64).sqrt() + s_small as f64;
        assert!((q_small - expect_small).abs() < 1e-6);
        let q_big = theorem2_parallel_bound(m, n, k, p, s_big);
        assert!((q_big - 3.0 * per_domain.powf(2.0 / 3.0)).abs() < 1e-6);
        // More memory never raises the bound, and the limited-memory bound
        // exceeds the cubic-domain bound.
        assert!(q_big <= q_small);
    }

    #[test]
    fn theorem2_continuous_at_regime_knee() {
        // At S = (mnk/p)^(2/3) both branches coincide: 2D/sqrt(S) + S = 3 D^(2/3).
        let (m, n, k, p) = (1 << 10, 1 << 10, 1 << 10, 8);
        let d = (m * n * k / p) as f64;
        let knee = d.powf(2.0 / 3.0) as usize;
        let below = theorem2_parallel_bound(m, n, k, p, knee - 1);
        let above = theorem2_parallel_bound(m, n, k, p, knee + 1);
        assert!((below - above).abs() / above < 1e-3, "{below} vs {above}");
    }

    #[test]
    fn intensity_formulas() {
        // Eq. 25: a 2D sqrt(S) x sqrt(S) x 1 block: |V| = S, X - R + T = 2 sqrt(S).
        let s = 100u64;
        let rho = computational_intensity(s, 120, 100, 0);
        assert!((rho - 5.0).abs() < 1e-12); // sqrt(100)/2
        assert!((intensity_lower_bound(1000, 5.0) - 200.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn intensity_rejects_nonpositive_denominator() {
        let _ = computational_intensity(10, 4, 5, 0);
    }

    #[test]
    fn x_partition_params_match_eq24() {
        let p = x_partition_params(100);
        assert_eq!(p.a, 10);
        assert_eq!(p.c, 1);
        assert_eq!(p.x, 120);
        assert!((p.rho - 5.0).abs() < 1e-12);
        // Non-square S floors.
        let p = x_partition_params(90);
        assert_eq!(p.a, 9);
    }

    #[test]
    fn aopt_bopt_continuous_below_sqrt_s() {
        for s in [10usize, 100, 1000, 100_000] {
            let (a, b) = aopt_bopt(s);
            let rs = (s as f64).sqrt();
            assert!(a > 0.0 && a < rs, "a = {a} vs sqrt(S) = {rs}");
            assert!(b > 0.0 && b < rs, "b = {b} vs sqrt(S) = {rs}");
        }
    }

    #[test]
    fn aopt_bopt_enumerated_is_feasible_and_optimal() {
        for s in [10usize, 50, 100, 1000, 4096] {
            let (a, b) = aopt_bopt_enumerated(s);
            assert!(a * b + a < s, "infeasible at S={s}");
            let rho = (a * b) as f64 / (a + b) as f64;
            // No feasible pair beats it.
            for a2 in 1..s {
                if a2 + a2 + 1 > s {
                    break;
                }
                let b2 = (s - a2 - 1) / a2;
                if b2 == 0 {
                    continue;
                }
                let rho2 = (a2 * b2) as f64 / (a2 + b2) as f64;
                assert!(rho2 <= rho + 1e-12, "S={s}: ({a2},{b2}) beats ({a},{b})");
            }
            // And it is close to the paper's optimum rho = sqrt(S)/2 scale.
            assert!(rho >= 0.5 * ((s as f64).sqrt() / 2.0), "S={s} rho too small");
        }
    }

    #[test]
    fn aopt_bopt_continuous_close_to_enumerated() {
        for s in [100usize, 1000, 10_000] {
            let (ac, bc) = aopt_bopt(s);
            let (ae, be) = aopt_bopt_enumerated(s);
            assert!((ac - ae as f64).abs() <= 2.0, "S={s}: a {ac} vs {ae}");
            assert!((bc - be as f64).abs() <= 2.0, "S={s}: b {bc} vs {be}");
        }
    }

    #[test]
    fn best_engine_tile_feasible() {
        for s in [8usize, 16, 100, 1024] {
            let (a, b) = best_engine_tile(s);
            assert!(a * b + a + b < s, "S={s}: tile ({a},{b}) infeasible");
            assert!(a >= 1 && b >= 1);
        }
        // For square-friendly S the tile is near sqrt(S) - 1.
        let (a, b) = best_engine_tile(100);
        assert!(a.min(b) >= 7, "tile ({a},{b}) too small for S=100");
    }

    #[test]
    fn tiled_io_formula_square_tiles() {
        // 4x4x4 with 2x2 tiles: loads = 4*(4*2 + 4*2) = 64, stores = 16.
        assert_eq!(tiled_io(4, 4, 4, 2, 2), 80);
        // Degenerate 1x1 tiles = rank-1 element-wise: k*(m*n + n*m) + mn.
        assert_eq!(tiled_io(2, 3, 4, 1, 1), 4 * (2 * 3 + 3 * 2) as u64 + 6);
    }

    #[test]
    fn tiled_io_beats_bound_never() {
        for &(m, n, k, s) in &[(8, 8, 8, 9), (16, 12, 20, 16), (32, 32, 32, 36)] {
            let (a, b) = best_engine_tile(s);
            let io = tiled_io(m, n, k, a, b) as f64;
            let lb = theorem1_lower_bound(m, n, k, s);
            assert!(io >= lb, "tiled I/O {io} below bound {lb}");
        }
    }

    #[test]
    fn tiled_io_improves_with_memory() {
        let io_small = tiled_io(64, 64, 64, 3, 3);
        let io_big = tiled_io(64, 64, 64, 7, 7);
        assert!(io_big < io_small);
    }
}
