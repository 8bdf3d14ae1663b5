//! Path-explosion analysis (paper §4.2).
//!
//! For each message the paper looks at the sequence of delivery times
//! `T₁ ≤ T₂ ≤ …` of its valid paths and defines:
//!
//! * the **optimal path duration** `T₁ − t₁` (how long the first/optimal
//!   path takes, Fig. 4a);
//! * the **explosion time** `T₂₀₀₀`, the time by which 2000 paths in total
//!   have reached the destination;
//! * the **time to explosion** `TE = T₂₀₀₀ − T₁` (Fig. 4b), the striking
//!   finding being that TE is usually an order of magnitude smaller than the
//!   optimal duration;
//! * the **growth curve** of cumulative path arrivals since `T₁`, which
//!   looks approximately exponential (Fig. 6).
//!
//! [`ExplosionProfile`] computes those quantities from an
//! [`EnumerationResult`]; [`ExplosionSummary`] aggregates profiles over a
//! message population and exposes the CDFs/scatter series that the figure
//! drivers print.

use psn_stats::{Ecdf, Histogram};
use psn_trace::Seconds;

use crate::enumerate::EnumerationResult;
use crate::message::Message;

/// The paper's explosion threshold: the number of delivered paths that
/// defines `T₂₀₀₀`.
pub const PATHS_FOR_EXPLOSION: usize = 2000;

/// Per-message path-explosion profile.
#[derive(Debug, Clone)]
pub struct ExplosionProfile {
    /// The message this profile describes.
    pub message: Message,
    /// Duration of the optimal path (`T₁ − t₁`), if any path was found.
    pub optimal_duration: Option<Seconds>,
    /// Time to explosion `TE = Tₙ − T₁` for the configured threshold, if at
    /// least that many paths were found.
    pub time_to_explosion: Option<Seconds>,
    /// The explosion threshold `n` used (2000 in the paper).
    pub explosion_threshold: usize,
    /// Total number of delivered paths recorded for the message.
    pub total_paths: usize,
    /// Delivery times (absolute seconds) of every recorded path.
    pub delivery_times: Vec<Seconds>,
}

impl ExplosionProfile {
    /// Builds a profile from an enumeration result using the paper's
    /// threshold of 2000 paths.
    pub fn from_enumeration(result: &EnumerationResult) -> Self {
        Self::with_threshold(result, PATHS_FOR_EXPLOSION)
    }

    /// Builds a profile with an explicit explosion threshold `n` (the paper
    /// notes there is nothing sacrosanct about 2000; smaller thresholds are
    /// used by the quick experiment profile).
    pub fn with_threshold(result: &EnumerationResult, n: usize) -> Self {
        let optimal_duration = result.optimal_duration();
        let time_to_explosion = match (result.first_delivery_time(), result.nth_delivery_time(n)) {
            (Some(first), Some(nth)) => Some(nth - first),
            _ => None,
        };
        Self {
            message: result.message,
            optimal_duration,
            time_to_explosion,
            explosion_threshold: n,
            total_paths: result.delivered_count(),
            delivery_times: result.deliveries.iter().map(|d| d.time).collect(),
        }
    }

    /// True if at least one path reached the destination.
    pub fn delivered(&self) -> bool {
        self.optimal_duration.is_some()
    }

    /// True if the message reached its explosion threshold.
    pub fn exploded(&self) -> bool {
        self.time_to_explosion.is_some()
    }

    /// Cumulative path arrivals as `(seconds since first delivery,
    /// cumulative count)` — the Fig. 6 growth curve for one message.
    pub fn growth_curve(&self) -> Vec<(Seconds, usize)> {
        let Some(first) = self.delivery_times.first().copied() else {
            return Vec::new();
        };
        let mut curve = Vec::new();
        let mut count = 0usize;
        let mut i = 0;
        let times = &self.delivery_times;
        while i < times.len() {
            let t = times[i];
            let mut j = i;
            while j < times.len() && times[j] == t {
                j += 1;
            }
            count = j;
            curve.push((t - first, count));
            i = j;
        }
        debug_assert_eq!(count, times.len());
        curve
    }

    /// Histogram of path arrivals over time since the first delivery, with
    /// the given bin width (Fig. 6 uses the Δ-sized bursts directly; the
    /// figure driver uses 10-second bins).
    pub fn arrival_histogram(
        &self,
        bin_seconds: Seconds,
        span_seconds: Seconds,
    ) -> Option<Histogram> {
        let first = *self.delivery_times.first()?;
        let bins = (span_seconds / bin_seconds).ceil() as usize;
        let mut h = Histogram::new(0.0, bin_seconds, bins.max(1)).ok()?;
        for &t in &self.delivery_times {
            h.add(t - first);
        }
        Some(h)
    }
}

/// Aggregate explosion statistics over a message population.
#[derive(Debug, Clone, Default)]
pub struct ExplosionSummary {
    profiles: Vec<ExplosionProfile>,
}

impl ExplosionSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one per-message profile.
    pub fn push(&mut self, profile: ExplosionProfile) {
        self.profiles.push(profile);
    }

    /// All collected profiles.
    pub fn profiles(&self) -> &[ExplosionProfile] {
        &self.profiles
    }

    /// Number of messages analysed.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True if no profiles have been collected.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Fraction of messages for which at least one path was found.
    pub fn delivery_fraction(&self) -> f64 {
        if self.profiles.is_empty() {
            return 0.0;
        }
        self.profiles.iter().filter(|p| p.delivered()).count() as f64 / self.profiles.len() as f64
    }

    /// Fraction of messages that reached their explosion threshold.
    pub fn explosion_fraction(&self) -> f64 {
        if self.profiles.is_empty() {
            return 0.0;
        }
        self.profiles.iter().filter(|p| p.exploded()).count() as f64 / self.profiles.len() as f64
    }

    /// CDF of optimal path durations over delivered messages (Fig. 4a).
    pub fn optimal_duration_cdf(&self) -> Option<Ecdf> {
        let xs: Vec<f64> = self.profiles.iter().filter_map(|p| p.optimal_duration).collect();
        Ecdf::new(&xs).ok()
    }

    /// CDF of times to explosion over exploded messages (Fig. 4b).
    pub fn time_to_explosion_cdf(&self) -> Option<Ecdf> {
        let xs: Vec<f64> = self.profiles.iter().filter_map(|p| p.time_to_explosion).collect();
        Ecdf::new(&xs).ok()
    }

    /// `(optimal duration, time to explosion)` scatter points over messages
    /// that exploded (Fig. 5 / Fig. 8).
    pub fn scatter_points(&self) -> Vec<(Seconds, Seconds)> {
        self.profiles
            .iter()
            .filter_map(|p| match (p.optimal_duration, p.time_to_explosion) {
                (Some(t1), Some(te)) => Some((t1, te)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::Delivery;
    use psn_trace::NodeId;

    fn result_with_times(times: &[f64], created_at: f64) -> EnumerationResult {
        EnumerationResult {
            message: Message::new(NodeId(0), NodeId(1), created_at),
            deliveries: times.iter().map(|&t| Delivery { time: t, hops: 3 }).collect(),
            sample_paths: Vec::new(),
            exploded: false,
            truncated: false,
            slots_processed: 0,
        }
    }

    #[test]
    fn profile_computes_t1_and_te() {
        let result = result_with_times(&[100.0, 110.0, 120.0, 130.0], 40.0);
        let profile = ExplosionProfile::with_threshold(&result, 3);
        assert_eq!(profile.optimal_duration, Some(60.0));
        assert_eq!(profile.time_to_explosion, Some(20.0));
        assert!(profile.delivered());
        assert!(profile.exploded());
        assert_eq!(profile.total_paths, 4);
    }

    #[test]
    fn profile_without_enough_paths_has_no_te() {
        let result = result_with_times(&[100.0, 110.0], 0.0);
        let profile = ExplosionProfile::with_threshold(&result, 5);
        assert_eq!(profile.optimal_duration, Some(100.0));
        assert_eq!(profile.time_to_explosion, None);
        assert!(!profile.exploded());
    }

    #[test]
    fn undelivered_profile() {
        let result = result_with_times(&[], 0.0);
        let profile = ExplosionProfile::from_enumeration(&result);
        assert!(!profile.delivered());
        assert!(profile.growth_curve().is_empty());
        assert!(profile.arrival_histogram(10.0, 100.0).is_none());
        assert_eq!(profile.explosion_threshold, PATHS_FOR_EXPLOSION);
    }

    #[test]
    fn growth_curve_is_cumulative_and_groups_bursts() {
        let result = result_with_times(&[50.0, 50.0, 60.0, 60.0, 60.0, 90.0], 0.0);
        let profile = ExplosionProfile::with_threshold(&result, 4);
        let curve = profile.growth_curve();
        assert_eq!(curve, vec![(0.0, 2), (10.0, 5), (40.0, 6)]);
    }

    #[test]
    fn arrival_histogram_counts_paths() {
        let result = result_with_times(&[50.0, 55.0, 75.0], 0.0);
        let profile = ExplosionProfile::with_threshold(&result, 2);
        let h = profile.arrival_histogram(10.0, 100.0).unwrap();
        assert_eq!(h.count(0), 2.0); // 0 and 5 seconds after first
        assert_eq!(h.count(2), 1.0); // 25 seconds after first
        assert_eq!(h.total(), 3.0);
    }

    #[test]
    fn summary_aggregates_fractions_and_cdfs() {
        let mut summary = ExplosionSummary::new();
        summary.push(ExplosionProfile::with_threshold(&result_with_times(&[100.0, 120.0], 0.0), 2));
        summary.push(ExplosionProfile::with_threshold(&result_with_times(&[200.0], 0.0), 2));
        summary.push(ExplosionProfile::with_threshold(&result_with_times(&[], 0.0), 2));
        assert_eq!(summary.len(), 3);
        assert!(!summary.is_empty());
        assert!((summary.delivery_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((summary.explosion_fraction() - 1.0 / 3.0).abs() < 1e-12);
        let t1_cdf = summary.optimal_duration_cdf().unwrap();
        assert_eq!(t1_cdf.len(), 2);
        let te_cdf = summary.time_to_explosion_cdf().unwrap();
        assert_eq!(te_cdf.len(), 1);
        assert_eq!(summary.scatter_points(), vec![(100.0, 20.0)]);
    }

    #[test]
    fn empty_summary_defaults() {
        let summary = ExplosionSummary::new();
        assert!(summary.is_empty());
        assert_eq!(summary.delivery_fraction(), 0.0);
        assert_eq!(summary.explosion_fraction(), 0.0);
        assert!(summary.optimal_duration_cdf().is_none());
        assert!(summary.scatter_points().is_empty());
    }
}
