//! Order statistics for the reported numbers.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail latency to report: the highest of p99/p95/p90/p75 that still
/// has at least ten samples beyond it, so the number is not one outlier.
/// Below 40 samples no percentile qualifies and the maximum is reported.
pub fn tail(sorted: &[f64]) -> (&'static str, f64) {
    const CANDIDATES: [(&str, f64); 4] =
        [("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p75", 0.75)];
    for (label, p) in CANDIDATES {
        let rank = (p * sorted.len() as f64).ceil() as usize;
        if sorted.len() - rank.min(sorted.len()) >= 10 {
            return (label, percentile(sorted, p));
        }
    }
    ("max", *sorted.last().expect("tail of no samples"))
}

/// Distance between the first and third quartile as a share of the median —
/// Python's `statistics.quantiles(values, n=4)`, the driver's spread.
/// `None` below two values, where no quartile exists.
pub fn iqr_spread(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = quartile(2);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail(&ramp(39)), ("max", 39.0));
        assert_eq!(tail(&ramp(40)), ("p75", 30.0));
        assert_eq!(tail(&ramp(99)), ("p75", 75.0));
        assert_eq!(tail(&ramp(100)), ("p90", 90.0));
        assert_eq!(tail(&ramp(199)), ("p90", 180.0));
        assert_eq!(tail(&ramp(200)), ("p95", 190.0));
        assert_eq!(tail(&ramp(1000)), ("p99", 990.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&ramp(10), 0.5), 5.0);
        assert_eq!(percentile(&ramp(10), 1.0), 10.0);
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = iqr_spread(&ramp(10)).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        let s = iqr_spread(&[12.0, 10.0]).unwrap();
        assert!((s - 3.0 / 11.0).abs() < 1e-12, "{s}");
        assert_eq!(iqr_spread(&[5.0]), None);
    }
}
