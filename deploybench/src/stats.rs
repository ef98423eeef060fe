//! Exact order statistics over recorded samples.

/// A latency distribution summarised for reporting: the median, the 95th
/// and 99th percentiles, and how many samples they rest on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// The nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Summarises microsecond samples in milliseconds.
pub fn summarize_us(samples: &[u64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let ms = |p| percentile(&sorted, p).map_or(0.0, |us| us as f64 / 1_000.0);
    Summary {
        count: sorted.len(),
        p50: ms(0.50),
        p95: ms(0.95),
        p99: ms(0.99),
    }
}

/// The median of `values`; the mean of the middle pair for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `numerator / denominator`, or 0 for an empty denominator.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), Some(50));
        assert_eq!(percentile(&sorted, 0.99), Some(99));
        assert_eq!(percentile(&sorted, 1.0), Some(100));
        assert_eq!(percentile(&sorted, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn summaries_report_sample_counts_in_milliseconds() {
        // 1..=1000 µs, shuffled: the summary sorts before ranking.
        let mut samples: Vec<u64> = (1..=1000).map(|i| i * 1_000).collect();
        samples.reverse();
        let s = summarize_us(&samples);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p95, 950.0);
        assert_eq!(s.p99, 990.0);
        let empty = summarize_us(&[]);
        assert_eq!((empty.count, empty.p50, empty.p99), (0, 0.0, 0.0));
    }

    #[test]
    fn sub_millisecond_samples_keep_their_digits() {
        let s = summarize_us(&[1_234, 1_234, 1_235]);
        assert_eq!(s.p50, 1.234);
        assert_eq!(s.p99, 1.235);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
