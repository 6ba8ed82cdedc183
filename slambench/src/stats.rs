//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles and the tail-percentile rule.

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 8] = [99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps decimal percentiles such as 99.9 from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] of `n`
/// samples ranked beyond it, or `None` when `n` is too small for even the
/// median to qualify.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// Label for a percentile: `p90`, `p99.9`.
pub fn percentile_label(p: f64) -> String {
    format!("p{p}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(2000), Some(99.5));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in [20, 57, 100, 480, 1234, 100_000] {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_rule_names_its_percentile() {
        assert_eq!(percentile_label(tail_percentile(100).unwrap()), "p90");
        assert_eq!(percentile_label(tail_percentile(10_000).unwrap()), "p99.9");
        assert_eq!(percentile_label(tail_percentile(2000).unwrap()), "p99.5");
    }
}
