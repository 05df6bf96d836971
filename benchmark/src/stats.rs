//! Medians, percentiles and quartile spreads.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice: a layer that did no work reports no time.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
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

/// Fewest samples that must lie beyond a percentile an untraced run reports.
pub const MIN_BEYOND: usize = 10;

#[derive(Debug, PartialEq)]
pub struct TooFewSamples {
    pub have: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile `p` in (0, 1). Refuses when fewer than
/// `min_beyond` samples lie beyond the picked rank ([`MIN_BEYOND`] in real
/// runs), because such a percentile is decided by a handful of outliers.
/// An empty slice is always refused.
pub fn percentile_with(values: &[f64], p: f64, min_beyond: usize) -> Result<f64, TooFewSamples> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < min_beyond {
        return Err(TooFewSamples { have: n, beyond });
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// `(q1, median, q3)` by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), median(&v), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_refuses_with_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        // ceil(0.95 * 199) = 190, nine samples beyond.
        let percentile = |v: &[f64], p| percentile_with(v, p, MIN_BEYOND);
        assert_eq!(percentile(&v, 0.95), Err(TooFewSamples { have: 199, beyond: 9 }));
        assert_eq!(percentile_with(&v, 0.95, 0), Ok(190.0));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Ok(190.0));
        assert_eq!(percentile(&v, 0.5), Ok(100.0));
        assert!(percentile(&v[..19], 0.5).is_err());
        assert!(percentile_with(&[], 0.5, 0).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
