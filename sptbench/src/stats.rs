//! Order statistics of latency samples.

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// no samples.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `v`: the highest percentile with at least [`TAIL_BEYOND`]
/// samples beyond it, as `(percentile, value)`. `None` when there are too
/// few samples for any percentile to qualify.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = n - TAIL_BEYOND - 1;
    Some((100.0 * (idx + 1) as f64 / n as f64, s[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 90 is the 90th percentile and leaves exactly ten samples beyond.
        assert_eq!(tail(&v), Some((90.0, 90.0)));
    }
}
