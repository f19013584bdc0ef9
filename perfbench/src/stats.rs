//! Order statistics over timing samples.

/// A percentile is reported only when at least this many samples lie
/// beyond it; a thinner tail is one or two outliers, not a percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None` when
/// fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    // 1-based nearest rank: the smallest rank whose share reaches q.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// [`percentile`] as a metric value: NaN (which marks the run incorrect
/// if it reaches the result) when the tail is too thin.
pub fn pct(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or(f64::NAN)
}

/// Median of a non-empty sample (no tail requirement: used to summarize
/// a handful of repeated measurements of one quantity).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of `reps` runs of `f`, each returning one measurement.
pub fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples has exactly 10 beyond it.
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        // p95 has 5 beyond it: refused.
        assert_eq!(percentile(&v, 0.95), None);
        assert_eq!(percentile(&v, 0.99), None);
        // With 1000 samples p99 has 10 beyond it.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), Some(990.0));
        assert_eq!(percentile(&w[..999], 0.99), None);
    }

    #[test]
    fn percentile_is_order_independent() {
        let v = vec![
            5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 12.0,
        ];
        assert_eq!(percentile(&v, 0.1), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
