//! Order statistics over small samples of repeated runs.

/// Median, quartiles and range of one metric's repeats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Inter-quartile range as a share of the median (0 for a zero median).
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The value at fractional rank `p * (n + 1)` (1-based) of a sorted sample,
/// interpolated and clamped to the range — the "exclusive" method Python's
/// `statistics.quantiles` uses, so spreads computed here agree with the
/// acceptance check's.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = p * (n as f64 + 1.0);
    let lo = (rank.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (rank - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// Summarises a non-empty sample; `None` when it is empty or holds a NaN.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected above"));
    Some(Summary {
        median: quantile_sorted(&sorted, 0.5),
        q1: quantile_sorted(&sorted, 0.25),
        q3: quantile_sorted(&sorted, 0.75),
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        n: sorted.len(),
    })
}

/// Median of a sample (0 when empty, which only degenerate runs produce).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[2.0, 3.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn quartiles_stay_inside_the_range() {
        let s = summarize(&[5.0, 9.0]).unwrap();
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        assert_eq!(summarize(&[f64::NAN]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
    }
}
