//! Order statistics over measured samples.

/// Nearest-rank percentile of an unsorted sample (`q` in `(0, 1]`); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median: the mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Smallest sample; 0 when empty.
pub fn lowest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Largest sample; 0 when empty.
pub fn highest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Distance between the first and third quartile as a share of the median
/// (quartiles by the same exclusive method as Python's
/// `statistics.quantiles(values, n=4)`); 0 below two samples.
pub fn iqr_fraction(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |k: usize| -> f64 {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    };
    let med = median(&sorted);
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn lowest_and_highest() {
        assert_eq!(lowest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(highest(&[3.0, 1.0, 2.0]), 3.0);
        assert_eq!(lowest(&[]), 0.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_fraction(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
