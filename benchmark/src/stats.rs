//! Order statistics of timing samples, and the seeded generator every
//! workload draws from.

/// The `j`-th output of a splitmix64 stream that starts at `seed`. Stateless,
/// so job `j` of a stream is the same job however the stream is cut up.
pub fn splitmix64_at(seed: u64, j: u64) -> u64 {
    let mut z = seed.wrapping_add(j.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples when the count is even.
///
/// # Panics
/// Panics on an empty slice: a workload that timed nothing has no result.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartiles as Python's `statistics.quantiles(samples, n=4)`
/// gives them (the default, exclusive method) — the rule the A/A protocol's
/// spread is defined with. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The `q`-quantile (nearest rank, `0 < q < 1`) of a latency sample, or
/// `None` when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it: a
/// tail read off a handful of samples is the slowest few runs, not a
/// percentile.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile must be inside (0, 1)");
    let v = sorted(samples);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1); // 1-based
    if rank > v.len() || v.len() - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let n = |count: usize| -> Vec<f64> { (1..=count).map(|x| x as f64).collect() };
        // 12 000 samples: rank 11 880, 120 beyond.
        assert_eq!(tail_percentile(&n(12_000), 0.99), Some(11_880.0));
        // 1 000 samples: exactly ten beyond the 99th — the smallest sample that may report it.
        assert_eq!(tail_percentile(&n(1_000), 0.99), Some(990.0));
        assert_eq!(tail_percentile(&n(999), 0.99), None);
        // K <= 32 timed iterations never have a tail.
        assert_eq!(tail_percentile(&n(32), 0.99), None);
        assert_eq!(tail_percentile(&n(32), 0.9), None);
        assert_eq!(tail_percentile(&n(100), 0.9), Some(90.0));
    }

    #[test]
    fn splitmix_is_a_function_of_seed_and_index() {
        assert_eq!(splitmix64_at(1, 5), splitmix64_at(1, 5));
        assert_ne!(splitmix64_at(1, 5), splitmix64_at(1, 6));
        assert_ne!(splitmix64_at(1, 5), splitmix64_at(2, 5));
        // First output of the reference splitmix64 seeded with 0.
        assert_eq!(splitmix64_at(0, 0), 0xE220_A839_7B1D_CDAF);
    }
}
