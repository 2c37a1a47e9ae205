//! Order statistics over latency samples.

/// Samples beyond a reported percentile: a tail value resting on fewer
/// than this many observations is noise, so it is refused.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `0..1`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it (so p99 needs at least
/// 1,000 samples and the median at least 20).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&p), "percentile must be in [0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a small set of repeated measurements (any count ≥ 1).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.99), None);
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.99), Some(989.0));
    }

    #[test]
    fn median_needs_twenty_samples() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(percentile(&few, 0.5), None);
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
