//! Sample statistics: nearest-rank quantiles and the tail-percentile rule.
//!
//! A tail percentile is only reported when the sample leaves at least
//! [`MIN_BEYOND`] samples above it; with fewer, the figure would be set
//! by one or two outliers.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, lowest first.
pub const LADDER: [f64; 4] = [90.0, 95.0, 99.0, 99.9];

/// Nearest-rank quantile (`q` in `[0, 1]`) of an unsorted sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(q, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples. The product
/// is nudged down so that rounding error cannot push an exact rank up
/// (0.999 · 10 000 is 9990.000000000002 in floating point).
fn rank(q: f64, n: usize) -> usize {
    (q * n as f64 - 1e-9).ceil() as usize
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    // Samples strictly above the nearest-rank position of `p`.
    n.saturating_sub(rank(p / 100.0, n)) >= MIN_BEYOND
}

/// The highest percentile of [`LADDER`] that `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| supports(n, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(!supports(99, 90.0));
        assert!(supports(100, 90.0));
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100), Some(90.0));
    }

    #[test]
    fn highest_supported_climbs_the_ladder() {
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        // Every supported percentile really leaves ten samples above it.
        for n in [100, 250, 1000, 12_345] {
            let p = highest_supported(n).unwrap();
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let cut = quantile(&xs, p / 100.0);
            assert!(xs.iter().filter(|&&x| x > cut).count() >= MIN_BEYOND);
        }
    }
}
