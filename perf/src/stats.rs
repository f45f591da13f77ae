//! Order statistics and means over timing samples.

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The highest percentile of the ladder 50/75/90/95/99 that still has at
/// least ten samples beyond it; `None` below 20 samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.90, 0.75, 0.50]
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 1) among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile; `samples` need not be sorted and must not be
/// empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[nearest_rank(s.len(), p) - 1]
}

/// Median: the mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 41 rounds: p75 is the 31st sample, ten lie beyond it.
        assert_eq!(samples_beyond(41, 0.75), 10);
        assert_eq!(highest_supported_percentile(41), Some(0.75));
        // One round fewer than 40 and p75 is no longer supported.
        assert_eq!(highest_supported_percentile(39), Some(0.50));
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=41).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.75), 31.0);
        assert_eq!(percentile(&v, 0.50), 21.0);
        assert_eq!(percentile(&v, 1.0), 41.0);
        assert_eq!(percentile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
