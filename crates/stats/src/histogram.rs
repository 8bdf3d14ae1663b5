//! Fixed-width histograms.
//!
//! Figure 6 of the paper histograms the number of paths arriving as a
//! function of time since the first delivery, and Figure 12 shows the
//! per-message bursts of path arrivals. Both are fixed-width binned counts
//! over a known range, which is what [`Histogram`] provides. The histogram
//! also supports weighted increments so that cumulative path counts can be
//! accumulated directly.

use crate::StatsError;

/// A histogram with fixed-width bins over `[origin, origin + width * bins)`.
///
/// Values below the range are counted in `underflow`, values at or above the
/// upper edge in `overflow`, so no observation is silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    origin: f64,
    width: f64,
    counts: Vec<f64>,
    underflow: f64,
    overflow: f64,
    observations: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of width `width` starting at
    /// `origin`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidBinWidth`] if `width` is not positive and
    /// finite, or if `bins` is zero.
    pub fn new(origin: f64, width: f64, bins: usize) -> Result<Self, StatsError> {
        if !(width.is_finite() && width > 0.0) || bins == 0 || !origin.is_finite() {
            return Err(StatsError::InvalidBinWidth);
        }
        Ok(Self {
            origin,
            width,
            counts: vec![0.0; bins],
            underflow: 0.0,
            overflow: 0.0,
            observations: 0,
        })
    }

    /// Creates a histogram that covers `[lo, hi]` with `bins` equal bins.
    pub fn with_range(lo: f64, hi: f64, bins: usize) -> Result<Self, StatsError> {
        if hi <= lo || bins == 0 {
            return Err(StatsError::InvalidBinWidth);
        }
        Self::new(lo, (hi - lo) / bins as f64, bins)
    }

    /// Adds one observation of value `x`.
    pub fn add(&mut self, x: f64) {
        self.add_weighted(x, 1.0);
    }

    /// Adds an observation with an explicit weight (e.g. a burst of `w`
    /// simultaneously arriving paths).
    pub fn add_weighted(&mut self, x: f64, w: f64) {
        self.observations += 1;
        if x < self.origin {
            self.underflow += w;
            return;
        }
        let idx = ((x - self.origin) / self.width) as usize;
        if idx >= self.counts.len() {
            self.overflow += w;
        } else {
            self.counts[idx] += w;
        }
    }

    /// Adds every value in `xs`.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        self.width
    }

    /// The count (total weight) accumulated in bin `i`.
    pub fn count(&self, i: usize) -> f64 {
        self.counts[i]
    }

    /// Weight that fell below the histogram range.
    pub fn underflow(&self) -> f64 {
        self.underflow
    }

    /// Weight that fell at or above the histogram range.
    pub fn overflow(&self) -> f64 {
        self.overflow
    }

    /// Number of `add`/`add_weighted` calls.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Total weight inside the histogram range.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Left edge of bin `i`.
    pub fn bin_left(&self, i: usize) -> f64 {
        self.origin + self.width * i as f64
    }

    /// Centre of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.bin_left(i) + self.width / 2.0
    }

    /// Returns `(bin centre, count)` pairs — the series the regeneration
    /// binaries print for Figs. 6 and 12.
    pub fn series(&self) -> Vec<(f64, f64)> {
        (0..self.bins()).map(|i| (self.bin_center(i), self.counts[i])).collect()
    }

    /// Returns the running cumulative sum of counts per bin, e.g. the
    /// cumulative number of paths delivered by time t (Fig. 11).
    pub fn cumulative(&self) -> Vec<(f64, f64)> {
        let mut acc = 0.0;
        self.series()
            .into_iter()
            .map(|(x, c)| {
                acc += c;
                (x, acc)
            })
            .collect()
    }

    /// Index of the most populated bin, or `None` if every bin is empty.
    pub fn mode_bin(&self) -> Option<usize> {
        let (idx, &max) = self
            .counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("counts are never NaN"))?;
        if max > 0.0 {
            Some(idx)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Histogram::new(0.0, 0.0, 4).is_err());
        assert!(Histogram::new(0.0, -1.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(f64::INFINITY, 1.0, 4).is_err());
        assert!(Histogram::with_range(1.0, 1.0, 4).is_err());
    }

    #[test]
    fn values_land_in_expected_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        h.add(0.0);
        h.add(9.999);
        h.add(10.0);
        h.add(49.999);
        assert_eq!(h.count(0), 2.0);
        assert_eq!(h.count(1), 1.0);
        assert_eq!(h.count(4), 1.0);
        assert_eq!(h.total(), 4.0);
    }

    #[test]
    fn underflow_and_overflow_are_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(-1.0);
        h.add(5.0);
        h.add(0.5);
        assert_eq!(h.underflow(), 1.0);
        assert_eq!(h.overflow(), 1.0);
        assert_eq!(h.total(), 1.0);
        assert_eq!(h.observations(), 3);
    }

    #[test]
    fn weighted_adds_accumulate() {
        let mut h = Histogram::new(0.0, 1.0, 3).unwrap();
        h.add_weighted(0.5, 10.0);
        h.add_weighted(0.7, 5.0);
        assert_eq!(h.count(0), 15.0);
    }

    #[test]
    fn with_range_covers_exactly() {
        let h = Histogram::with_range(0.0, 100.0, 10).unwrap();
        assert_eq!(h.bins(), 10);
        assert!((h.bin_width() - 10.0).abs() < 1e-12);
        assert_eq!(h.bin_left(0), 0.0);
        assert!((h.bin_left(9) - 90.0).abs() < 1e-12);
    }

    #[test]
    fn cumulative_is_monotone_and_ends_at_total() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.extend(&[0.1, 1.1, 1.2, 3.9]);
        let cum = h.cumulative();
        for w in cum.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(cum.last().unwrap().1, h.total());
    }

    #[test]
    fn mode_bin_reports_most_populated() {
        let mut h = Histogram::new(0.0, 1.0, 3).unwrap();
        assert_eq!(h.mode_bin(), None);
        h.extend(&[0.5, 1.5, 1.6]);
        assert_eq!(h.mode_bin(), Some(1));
    }

    #[test]
    fn series_reports_bin_centers() {
        let mut h = Histogram::new(0.0, 2.0, 2).unwrap();
        h.add(1.0);
        let s = h.series();
        assert_eq!(s, vec![(1.0, 1.0), (3.0, 0.0)]);
    }

    proptest! {
        #[test]
        fn no_observation_is_lost(xs in proptest::collection::vec(-1e3f64..1e3, 0..300)) {
            let mut h = Histogram::new(-100.0, 10.0, 20).unwrap();
            h.extend(&xs);
            let accounted = h.total() + h.underflow() + h.overflow();
            prop_assert!((accounted - xs.len() as f64).abs() < 1e-9);
        }

        #[test]
        fn bin_assignment_respects_edges(x in 0.0f64..100.0) {
            let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
            h.add(x);
            let idx = (x / 10.0) as usize;
            prop_assert_eq!(h.count(idx.min(9)), 1.0);
        }
    }
}
