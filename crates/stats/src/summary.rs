//! Streaming summary statistics.
//!
//! [`Summary`] accumulates count, mean, variance (Welford's online
//! algorithm) and extrema without storing samples, which keeps the
//! forwarding simulator's metric collection allocation-free even when tens
//! of thousands of messages are simulated per run (the paper generates one
//! message every 4 seconds for 2 hours, ×10 runs, ×4 datasets, ×6
//! algorithms).

/// Online (single-pass) summary of a stream of `f64` observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, sum: 0.0 }
    }

    /// Builds a summary from a slice in one pass.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.add(x);
        }
        s
    }

    /// Adds one observation. NaN observations are ignored (and do not count).
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another summary into this one (parallel aggregation).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean = (n1 * self.mean + n2 * other.mean) / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (non-NaN) observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.mean)
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Unbiased sample variance, or `None` with fewer than two observations.
    pub fn variance(&self) -> Option<f64> {
        if self.count < 2 {
            None
        } else {
            Some(self.m2 / (self.count - 1) as f64)
        }
    }

    /// Population variance (divides by `n`), or `None` if empty.
    pub fn population_variance(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.m2 / self.count as f64)
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Standard error of the mean, `s / sqrt(n)`.
    pub fn std_error(&self) -> Option<f64> {
        self.std_dev().map(|s| s / (self.count as f64).sqrt())
    }

    /// Minimum observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Maximum observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_reports_none() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.std_error(), None);
    }

    #[test]
    fn known_values() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
        // population variance of this classic example is 4.0
        assert!((s.population_variance().unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(s.min().unwrap(), 2.0);
        assert_eq!(s.max().unwrap(), 9.0);
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn single_observation_has_no_sample_variance() {
        let s = Summary::from_slice(&[3.0]);
        assert_eq!(s.variance(), None);
        assert_eq!(s.population_variance(), Some(0.0));
        assert_eq!(s.mean(), Some(3.0));
    }

    #[test]
    fn nan_observations_are_ignored() {
        let mut s = Summary::new();
        s.add(1.0);
        s.add(f64::NAN);
        s.add(3.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), Some(2.0));
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let (a, b) = xs.split_at(37);
        let mut left = Summary::from_slice(a);
        let right = Summary::from_slice(b);
        left.merge(&right);
        let full = Summary::from_slice(&xs);
        assert_eq!(left.count(), full.count());
        assert!((left.mean().unwrap() - full.mean().unwrap()).abs() < 1e-9);
        assert!((left.variance().unwrap() - full.variance().unwrap()).abs() < 1e-9);
        assert_eq!(left.min(), full.min());
        assert_eq!(left.max(), full.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::from_slice(&[1.0, 2.0]);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    proptest! {
        #[test]
        fn mean_is_bounded_by_extrema(xs in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
            let s = Summary::from_slice(&xs);
            let mean = s.mean().unwrap();
            prop_assert!(mean >= s.min().unwrap() - 1e-9);
            prop_assert!(mean <= s.max().unwrap() + 1e-9);
        }

        #[test]
        fn variance_is_nonnegative(xs in proptest::collection::vec(-1e6f64..1e6, 2..500)) {
            let s = Summary::from_slice(&xs);
            prop_assert!(s.variance().unwrap() >= -1e-9);
        }

        #[test]
        fn merge_is_order_insensitive(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
            ys in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let mut ab = Summary::from_slice(&xs);
            ab.merge(&Summary::from_slice(&ys));
            let mut ba = Summary::from_slice(&ys);
            ba.merge(&Summary::from_slice(&xs));
            prop_assert_eq!(ab.count(), ba.count());
            prop_assert!((ab.mean().unwrap() - ba.mean().unwrap()).abs() < 1e-9);
            prop_assert!((ab.m2 - ba.m2).abs() < 1e-6);
        }
    }
}
