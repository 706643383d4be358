//! Streaming scalar summaries (Welford's online algorithm).

/// Streaming count / min / max / mean / variance accumulator.
///
/// # Examples
///
/// ```
/// use unison_stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.add(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.mean = (n1 * self.mean + n2 * other.mean) / n;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Minimum (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Population variance (0 for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The raw accumulator state `(count, mean, m2, min, max, sum)`, for
    /// a bit-exact encoding of a mid-stream summary.
    pub fn to_raw_parts(&self) -> (u64, f64, f64, f64, f64, f64) {
        (self.count, self.mean, self.m2, self.min, self.max, self.sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn variance_matches_direct_formula() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = Summary::new();
        for &x in &xs {
            s.add(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Summary::new();
        let mut a = Summary::new();
        let mut b = Summary::new();
        for (i, &x) in xs.iter().enumerate() {
            all.add(x);
            if i % 2 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Summary::new();
        a.add(3.0);
        let b = Summary::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Summary::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 3.0);
    }
}
