//! Time-binned event series.
//!
//! Figure 1 of the paper shows the total number of contacts over all nodes
//! in one-minute bins for each three-hour dataset, and Figure 11 shows the
//! cumulative number of message receptions over time. [`BinnedSeries`] bins
//! timestamped events into fixed intervals and reports the resulting count
//! series, its cumulative form, and simple stationarity diagnostics (the
//! paper selects windows whose contact rate is "relatively stable").

use crate::{StatsError, Summary};

/// Counts of events per fixed-width time bin over `[start, end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedSeries {
    start: f64,
    bin_width: f64,
    counts: Vec<f64>,
    dropped: u64,
}

impl BinnedSeries {
    /// Creates an empty series covering `[start, end)` with bins of
    /// `bin_width` seconds (the last bin may extend past `end`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidBinWidth`] if the width is non-positive
    /// or the interval is empty.
    pub fn new(start: f64, end: f64, bin_width: f64) -> Result<Self, StatsError> {
        if !(bin_width.is_finite() && bin_width > 0.0) || end <= start {
            return Err(StatsError::InvalidBinWidth);
        }
        let bins = ((end - start) / bin_width).ceil() as usize;
        Ok(Self { start, bin_width, counts: vec![0.0; bins.max(1)], dropped: 0 })
    }

    /// Records an event at time `t` with weight 1. Events outside the series
    /// range are counted as dropped.
    pub fn record(&mut self, t: f64) {
        self.record_weighted(t, 1.0);
    }

    /// Records an event at time `t` with an arbitrary weight.
    pub fn record_weighted(&mut self, t: f64, w: f64) {
        if t < self.start {
            self.dropped += 1;
            return;
        }
        let idx = ((t - self.start) / self.bin_width) as usize;
        if idx >= self.counts.len() {
            self.dropped += 1;
        } else {
            self.counts[idx] += w;
        }
    }

    /// Records every timestamp in `ts`.
    pub fn record_all(&mut self, ts: &[f64]) {
        for &t in ts {
            self.record(t);
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin width in the same units as the timestamps.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Events that fell outside the covered interval.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Start time of bin `i`.
    pub fn bin_start(&self, i: usize) -> f64 {
        self.start + self.bin_width * i as f64
    }

    /// `(bin start, count)` series — the Fig. 1 data.
    pub fn series(&self) -> Vec<(f64, f64)> {
        (0..self.bins()).map(|i| (self.bin_start(i), self.counts[i])).collect()
    }

    /// `(bin start, cumulative count)` series — the Fig. 11 data.
    pub fn cumulative(&self) -> Vec<(f64, f64)> {
        let mut acc = 0.0;
        self.series()
            .into_iter()
            .map(|(t, c)| {
                acc += c;
                (t, acc)
            })
            .collect()
    }

    /// Sum of all in-range counts.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Summary statistics of the per-bin counts.
    pub fn per_bin_summary(&self) -> Summary {
        Summary::from_slice(&self.counts)
    }

    /// Coefficient of variation (std-dev / mean) of per-bin counts.
    ///
    /// The paper picks three-hour windows whose aggregate contact process
    /// looks stable; a low coefficient of variation over one-minute bins is
    /// the quantitative version of that visual check, and the synthetic
    /// dataset tests assert it stays moderate.
    pub fn coefficient_of_variation(&self) -> Option<f64> {
        let s = self.per_bin_summary();
        match (s.mean(), s.std_dev()) {
            (Some(m), Some(sd)) if m > 0.0 => Some(sd / m),
            _ => None,
        }
    }

    /// Ratio of the mean count in the last `tail_bins` bins to the mean over
    /// the whole series. Values well below 1.0 reproduce the "drop-off from
    /// 5:30 to 6:00 pm" the paper notes in the afternoon datasets.
    pub fn tail_dropoff(&self, tail_bins: usize) -> Option<f64> {
        if tail_bins == 0 || tail_bins > self.counts.len() {
            return None;
        }
        let overall = self.per_bin_summary().mean()?;
        if overall == 0.0 {
            return None;
        }
        let tail = &self.counts[self.counts.len() - tail_bins..];
        let tail_mean = tail.iter().sum::<f64>() / tail_bins as f64;
        Some(tail_mean / overall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(BinnedSeries::new(0.0, 10.0, 0.0).is_err());
        assert!(BinnedSeries::new(0.0, 0.0, 1.0).is_err());
        assert!(BinnedSeries::new(10.0, 0.0, 1.0).is_err());
    }

    #[test]
    fn events_land_in_correct_bins() {
        let mut s = BinnedSeries::new(0.0, 180.0, 60.0).unwrap();
        s.record(0.0);
        s.record(59.9);
        s.record(60.0);
        s.record(179.9);
        assert_eq!(s.bins(), 3);
        assert_eq!(s.series(), vec![(0.0, 2.0), (60.0, 1.0), (120.0, 1.0)]);
        assert_eq!(s.total(), 4.0);
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn out_of_range_events_are_dropped() {
        let mut s = BinnedSeries::new(100.0, 200.0, 10.0).unwrap();
        s.record(50.0);
        s.record(250.0);
        s.record(150.0);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.total(), 1.0);
    }

    #[test]
    fn cumulative_ends_at_total() {
        let mut s = BinnedSeries::new(0.0, 100.0, 10.0).unwrap();
        s.record_all(&[5.0, 15.0, 15.5, 95.0]);
        let cum = s.cumulative();
        assert_eq!(cum.last().unwrap().1, 4.0);
        for w in cum.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn coefficient_of_variation_for_constant_rate_is_zero() {
        let mut s = BinnedSeries::new(0.0, 40.0, 10.0).unwrap();
        for bin in 0..4 {
            for k in 0..5 {
                s.record(bin as f64 * 10.0 + k as f64);
            }
        }
        assert!(s.coefficient_of_variation().unwrap() < 1e-12);
    }

    #[test]
    fn tail_dropoff_detects_decline() {
        let mut s = BinnedSeries::new(0.0, 100.0, 10.0).unwrap();
        // 9 busy bins then one empty bin at the end
        for bin in 0..9 {
            for k in 0..10 {
                s.record(bin as f64 * 10.0 + k as f64 * 0.5);
            }
        }
        let ratio = s.tail_dropoff(1).unwrap();
        assert!(ratio < 0.2, "tail ratio should be small, got {ratio}");
        assert_eq!(s.tail_dropoff(0), None);
        assert_eq!(s.tail_dropoff(11), None);
    }

    #[test]
    fn weighted_records() {
        let mut s = BinnedSeries::new(0.0, 20.0, 10.0).unwrap();
        s.record_weighted(5.0, 7.0);
        assert_eq!(s.total(), 7.0);
    }

    proptest! {
        #[test]
        fn total_plus_dropped_accounts_for_everything(
            ts in proptest::collection::vec(-50.0f64..250.0, 0..500)) {
            let mut s = BinnedSeries::new(0.0, 180.0, 60.0).unwrap();
            s.record_all(&ts);
            prop_assert!((s.total() + s.dropped() as f64 - ts.len() as f64).abs() < 1e-9);
        }
    }
}
