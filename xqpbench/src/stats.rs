//! Percentile and geometric-mean helpers that refuse thin samples: a
//! percentile is reported only if at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p99 over 300 requests is never passed off as a tail.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (0 < q < 1) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Geometric mean of positive values; `None` if there are none or any is
/// not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Geometric mean across groups of each group's median; `None` if any
/// group's median is refused.
pub fn geomean_of_medians(groups: &[Vec<f64>]) -> Option<f64> {
    let medians: Option<Vec<f64>> = groups.iter().map(|g| percentile(g, 0.5)).collect();
    geomean(&medians?)
}

/// Middle value of a handful of repeated measurements of one quantity
/// (set-up repeats, per-request repeats of a layer call): the mean of the
/// two middle values for an even count. Not a distribution percentile, so
/// it takes any non-empty sample.
pub fn mid(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mid of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_beyond() {
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None, "only 9 samples beyond p99");
        assert_eq!(percentile(&ramp(1100), 0.99), Some(1089.0));
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(100);
        let a = percentile(&v, 0.5);
        v.reverse();
        assert_eq!(a, percentile(&v, 0.5));
        assert_eq!(a, Some(50.0));
    }

    #[test]
    fn geomean_refuses_empty_and_non_positive() {
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn geomean_of_medians_refuses_a_thin_group() {
        let fast = vec![1.0; 25];
        let slow = vec![100.0; 25];
        assert!((geomean_of_medians(&[fast.clone(), slow]).unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(geomean_of_medians(&[fast, vec![100.0; 5]]), None);
    }

    #[test]
    fn mid_of_repeats() {
        assert_eq!(mid(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mid(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mid(&[7.0]), 7.0);
    }
}
