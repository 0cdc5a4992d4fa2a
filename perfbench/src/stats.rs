//! Sample statistics with an explicit sample-count rule.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it: p99 needs 1000 samples, p50 needs 20. Every summary
//! carries its sample count so a reader can check the rule held.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` at quantile `q` in `[0, 1)`,
/// or an error when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let beyond = beyond_count(n, q);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are required",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(n, q) - 1])
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie strictly above the nearest-rank
/// percentile at `q`.
pub fn beyond_count(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest quantile of `n` samples that keeps [`MIN_BEYOND`]
/// samples beyond it, capped at `cap`.
pub fn highest_supported(n: usize, cap: f64) -> Option<f64> {
    if n <= MIN_BEYOND {
        return None;
    }
    let q = (n - MIN_BEYOND) as f64 / n as f64;
    Some(q.min(cap))
}

/// Median (midpoint of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let err = percentile(&v, 0.99).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99).unwrap(), 990.0);
        assert_eq!(beyond_count(1000, 0.99), 10);
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&v, 0.5).is_err());
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5).unwrap(), 10.0);
    }

    #[test]
    fn highest_supported_keeps_ten_beyond() {
        assert_eq!(highest_supported(10, 0.99), None);
        let q = highest_supported(240, 0.99).unwrap();
        assert_eq!(beyond_count(240, q), MIN_BEYOND);
        assert_eq!(highest_supported(5000, 0.99), Some(0.99));
        let v: Vec<f64> = (1..=240).map(f64::from).collect();
        assert!(percentile(&v, q).is_ok());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
