//! Order statistics for the benchmark's own samples.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the value is one or two outliers, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank position of quantile `q`
/// in a sample of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// 1-based nearest rank of quantile `q` among `n` samples: the
/// smallest rank whose share of the sample is at least `q`.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `values`, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
///
/// # Errors
///
/// Names the sample count when the percentile is not supported.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    let n = values.len();
    if n == 0 || samples_beyond(n, q) < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it, {n} samples leave {}",
            q * 100.0,
            if n == 0 { 0 } else { samples_beyond(n, q) }
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[nearest_rank(n, q) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_on_a_known_sample() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Ok(990.0));
        assert_eq!(percentile(&samples, 0.5), Ok(500.0));
        // Order of arrival does not matter.
        let mut reversed = samples.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 0.99), Ok(990.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        // ceil(0.99 * 999) = 990, leaving 9 beyond.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(percentile(&samples, 0.99).is_err());
        assert_eq!(samples_beyond(1000, 0.99), 10);
        // The same sample still supports p95.
        assert_eq!(percentile(&samples, 0.95), Ok(950.0));
        assert!(percentile(&[], 0.5).is_err());
    }
}
