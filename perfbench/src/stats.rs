//! Medians, means and percentiles with the sample discipline the report
//! needs: a percentile is only given when at least ten samples lie beyond
//! it.

/// Samples that must lie beyond a percentile before it is reported.
pub const BEYOND: usize = 10;

/// Nearest rank (1-based) of the `q`-quantile among `n` samples. The
/// small offset keeps `0.9 × 100` from rounding up to rank 91.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples that lie beyond the `q`-quantile of `n` samples.
pub fn beyond(q: f64, n: usize) -> usize {
    n - rank(q, n).min(n)
}

/// Fewest samples that support the `q`-quantile (`q` in `[0, 1)`).
pub fn samples_needed(q: f64) -> usize {
    (1..).find(|&n| beyond(q, n) >= BEYOND).expect("q < 1")
}

/// The `q`-quantile of `values` (nearest rank), or `None` when fewer than
/// [`BEYOND`] samples lie above it.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if beyond(q, values.len()) < BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// The median, with no sample requirement beyond one value.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The arithmetic mean (`NaN` when empty).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    sum / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 20);
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 0.5), Some(50.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean([1.0, 2.0, 6.0]), 3.0);
    }
}
