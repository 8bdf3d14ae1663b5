//! Generator configuration types.

use serde::{Deserialize, Serialize};

use crate::scenario::ScenarioError;
use crate::Seconds;

/// Panics with the validation message when a generator is handed a config
/// outside its ranges. The generators assert through this, and
/// [`crate::ScenarioConfig`]'s parser returns the same `validate` errors,
/// so each range rule lives in one place.
///
/// # Panics
///
/// When `checked` is an error.
pub(crate) fn assert_valid(checked: Result<(), ScenarioError>) {
    if let Err(e) = checked {
        panic!("{e}");
    }
}

fn require(
    ok: bool,
    kind: &str,
    field: &str,
    rule: &str,
    got: impl std::fmt::Display,
) -> Result<(), ScenarioError> {
    match ok {
        true => Ok(()),
        false => Err(ScenarioError::new(format!("{kind}: field {field:?} {rule}, got {got}"))),
    }
}

fn require_nodes(kind: &str, field: &str, nodes: usize, min: usize) -> Result<(), ScenarioError> {
    require(nodes >= min, kind, field, &format!("must be at least {min}"), nodes)
}

fn require_window(kind: &str, window_seconds: Seconds) -> Result<(), ScenarioError> {
    let ok = window_seconds > 0.0 && window_seconds.is_finite();
    require(ok, kind, "window_seconds", "must be positive and finite", window_seconds)
}

fn require_positive(kind: &str, field: &str, value: f64) -> Result<(), ScenarioError> {
    require(value > 0.0, kind, field, "must be positive", value)
}

fn require_rate_range(
    kind: &str,
    min_node_rate: f64,
    max_node_rate: f64,
) -> Result<(), ScenarioError> {
    require_positive(kind, "max_node_rate", max_node_rate)?;
    let ok = min_node_rate >= 0.0 && min_node_rate < max_node_rate;
    require(ok, kind, "min_node_rate", "must be in [0, max_node_rate)", min_node_rate)
}

fn require_cv(kind: &str, cv: f64) -> Result<(), ScenarioError> {
    require(cv >= 0.0, kind, "contact_duration_cv", "must be non-negative", cv)
}

/// Time-varying modulation of aggregate contact activity.
///
/// The paper's Fig. 1 shows that contact activity within a selected 3-hour
/// window is roughly stable but not perfectly flat: there are gentle swings
/// (sessions vs. coffee breaks) and, in the afternoon datasets, a noticeable
/// drop-off in the final half hour. The profile multiplies the base contact
/// intensity by a factor that captures those effects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ActivityProfile {
    /// Constant intensity across the whole window.
    Constant,
    /// Piecewise-constant multipliers: each entry covers an equal fraction
    /// of the window. E.g. `[1.0, 1.3, 0.9]` models session / break /
    /// session thirds.
    Piecewise(Vec<f64>),
    /// Constant intensity with a linear decay to `final_fraction` of the
    /// base intensity over the last `dropoff_seconds` of the window —
    /// the paper's "drop off from 5:30 to 6:00 pm".
    TailDropoff {
        /// Length of the declining tail.
        dropoff_seconds: Seconds,
        /// Intensity multiplier reached at the very end of the window.
        final_fraction: f64,
    },
}

impl ActivityProfile {
    /// Evaluates the multiplier at time `t` within a window of length
    /// `window_seconds`.
    pub fn multiplier(&self, t: Seconds, window_seconds: Seconds) -> f64 {
        match self {
            ActivityProfile::Constant => 1.0,
            ActivityProfile::Piecewise(factors) => {
                if factors.is_empty() {
                    return 1.0;
                }
                let idx = ((t / window_seconds) * factors.len() as f64).floor() as usize;
                factors[idx.min(factors.len() - 1)]
            }
            ActivityProfile::TailDropoff { dropoff_seconds, final_fraction } => {
                let tail_start = window_seconds - dropoff_seconds;
                if t <= tail_start {
                    1.0
                } else {
                    let progress = ((t - tail_start) / dropoff_seconds).clamp(0.0, 1.0);
                    1.0 + progress * (final_fraction - 1.0)
                }
            }
        }
    }

    /// The maximum multiplier over the window (needed for thinning).
    pub fn max_multiplier(&self) -> f64 {
        match self {
            ActivityProfile::Constant => 1.0,
            ActivityProfile::Piecewise(factors) => factors.iter().copied().fold(1.0_f64, f64::max),
            ActivityProfile::TailDropoff { final_fraction, .. } => final_fraction.max(1.0),
        }
    }
}

/// Configuration for the homogeneous generator (every pair contacts at the
/// same rate) — the setting of the paper's analytic model in §5.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HomogeneousConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Observation window length in seconds.
    pub window_seconds: Seconds,
    /// Per-*node* contact rate λ (contacts per second); the pairwise rate is
    /// `λ / (N - 1)` so that each node's total contact rate is λ, matching
    /// the model's "Poisson contacts with intensity λ" assumption.
    pub node_contact_rate: f64,
    /// Mean contact duration in seconds.
    pub mean_contact_duration: Seconds,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HomogeneousConfig {
    fn default() -> Self {
        Self {
            nodes: 50,
            window_seconds: 3.0 * 3600.0,
            node_contact_rate: 0.01,
            mean_contact_duration: 120.0,
            seed: 1,
        }
    }
}

impl HomogeneousConfig {
    /// Checks the ranges [`super::generate_homogeneous`] requires: at
    /// least two nodes, a positive finite window, a positive contact rate
    /// and contact duration.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        const KIND: &str = "homogeneous";
        require_nodes(KIND, "nodes", self.nodes, 2)?;
        require_window(KIND, self.window_seconds)?;
        require_positive(KIND, "node_contact_rate", self.node_contact_rate)?;
        require_positive(KIND, "mean_contact_duration", self.mean_contact_duration)
    }
}

/// Configuration for the heterogeneous generator: per-node contact
/// propensities drawn uniformly, pairwise rates proportional to the product
/// of propensities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeterogeneousConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Observation window length in seconds.
    pub window_seconds: Seconds,
    /// Maximum per-node contact rate (contacts per second); node rates are
    /// approximately uniform on `(0, max_node_rate)`, reproducing Fig. 7.
    pub max_node_rate: f64,
    /// Mean contact duration in seconds.
    pub mean_contact_duration: Seconds,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HeterogeneousConfig {
    fn default() -> Self {
        Self {
            nodes: 98,
            window_seconds: 3.0 * 3600.0,
            max_node_rate: 0.05,
            mean_contact_duration: 120.0,
            seed: 1,
        }
    }
}

impl HeterogeneousConfig {
    /// Checks the ranges [`super::generate_heterogeneous`] requires: at
    /// least two nodes, a positive finite window, a positive maximum rate
    /// and contact duration.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        const KIND: &str = "heterogeneous";
        require_nodes(KIND, "nodes", self.nodes, 2)?;
        require_window(KIND, self.window_seconds)?;
        require_positive(KIND, "max_node_rate", self.max_node_rate)?;
        require_positive(KIND, "mean_contact_duration", self.mean_contact_duration)
    }
}

/// Configuration for the community-structured generator: equal-size node
/// communities with an intra/inter contact-rate ratio (see
/// [`super::community`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommunityConfig {
    /// Human-readable name of the generated dataset.
    pub name: String,
    /// Number of communities.
    pub communities: usize,
    /// Nodes per community (total population = `communities ×
    /// nodes_per_community`).
    pub nodes_per_community: usize,
    /// Observation window length in seconds.
    pub window_seconds: Seconds,
    /// Maximum per-node contact rate (contacts per second).
    pub max_node_rate: f64,
    /// Ratio of intra-community to inter-community pairwise contact rates;
    /// `1` is uniform mixing, large values produce tight communities
    /// bridged by rare cross-community contacts.
    pub intra_inter_ratio: f64,
    /// Mean contact duration in seconds.
    pub mean_contact_duration: Seconds,
    /// Coefficient of variation of contact durations.
    pub contact_duration_cv: f64,
    /// RNG seed.
    pub seed: u64,
}

impl CommunityConfig {
    /// Total number of nodes across all communities.
    pub fn total_nodes(&self) -> usize {
        self.communities * self.nodes_per_community
    }

    /// Checks the ranges [`super::generate_community`] requires: at least
    /// one non-empty community and two nodes overall, a positive finite
    /// window, a positive maximum rate and contact duration, an
    /// intra/inter ratio of at least 1 and a non-negative duration CV.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        const KIND: &str = "community";
        require_nodes(KIND, "communities", self.communities, 1)?;
        require_nodes(KIND, "nodes_per_community", self.nodes_per_community, 1)?;
        let total = self.communities.saturating_mul(self.nodes_per_community);
        require(
            total >= 2,
            KIND,
            "nodes_per_community",
            "must give at least 2 nodes overall",
            total,
        )?;
        require_window(KIND, self.window_seconds)?;
        require_positive(KIND, "max_node_rate", self.max_node_rate)?;
        let ratio = self.intra_inter_ratio;
        require(ratio >= 1.0, KIND, "intra_inter_ratio", "must be at least 1", ratio)?;
        require_positive(KIND, "mean_contact_duration", self.mean_contact_duration)?;
        require_cv(KIND, self.contact_duration_cv)
    }
}

impl Default for CommunityConfig {
    fn default() -> Self {
        Self {
            name: "synthetic-community".to_string(),
            communities: 4,
            nodes_per_community: 25,
            window_seconds: 3.0 * 3600.0,
            max_node_rate: 0.045,
            intra_inter_ratio: 8.0,
            mean_contact_duration: 120.0,
            contact_duration_cv: 1.0,
            seed: 1,
        }
    }
}

/// Configuration for the scaled-population generator: 500–5000 nodes with
/// the paper's per-node rate structure preserved via propensity scaling
/// (see [`super::scaled`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaledConfig {
    /// Human-readable name of the generated dataset.
    pub name: String,
    /// Number of nodes (intended range: 500–5000; any `≥ 2` works).
    pub nodes: usize,
    /// Observation window length in seconds.
    pub window_seconds: Seconds,
    /// Maximum per-node contact rate, preserved as the population grows.
    pub max_node_rate: f64,
    /// Minimum per-node contact rate (floor keeping every node reachable).
    pub min_node_rate: f64,
    /// Mean contact duration in seconds.
    pub mean_contact_duration: Seconds,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScaledConfig {
    fn default() -> Self {
        Self {
            name: "synthetic-scaled-1k".to_string(),
            nodes: 1000,
            window_seconds: 3600.0,
            max_node_rate: 0.045,
            min_node_rate: 0.0006,
            mean_contact_duration: 120.0,
            seed: 1,
        }
    }
}

impl ScaledConfig {
    /// Checks the ranges [`super::generate_scaled`] requires: at least two
    /// nodes, a positive finite window, `0 <= min_node_rate <
    /// max_node_rate` and a positive contact duration.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        const KIND: &str = "scaled";
        require_nodes(KIND, "nodes", self.nodes, 2)?;
        require_window(KIND, self.window_seconds)?;
        require_rate_range(KIND, self.min_node_rate, self.max_node_rate)?;
        require_positive(KIND, "mean_contact_duration", self.mean_contact_duration)
    }
}

/// Full conference-trace configuration: the stand-in for the iMote datasets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConferenceConfig {
    /// Human-readable name of the generated dataset.
    pub name: String,
    /// Number of mobile (participant-carried) nodes.
    pub mobile_nodes: usize,
    /// Number of stationary (booth) nodes.
    pub stationary_nodes: usize,
    /// Observation window length in seconds (paper: 3 hours).
    pub window_seconds: Seconds,
    /// Maximum per-node contact rate; mobile propensities are uniform on
    /// `(min_node_rate, max_node_rate)`.
    pub max_node_rate: f64,
    /// Minimum per-node contact rate. A small positive floor keeps every
    /// node reachable eventually, like the real traces where even the
    /// quietest iMote logs a few contacts.
    pub min_node_rate: f64,
    /// Fixed propensity multiplier for stationary nodes relative to the
    /// *median* mobile propensity. Booth nodes see a steady stream of
    /// passers-by, so values around 1.0–1.5 are realistic.
    pub stationary_rate_factor: f64,
    /// Mean contact duration in seconds.
    pub mean_contact_duration: Seconds,
    /// Coefficient of variation of contact durations.
    pub contact_duration_cv: f64,
    /// Aggregate activity modulation over the window.
    pub activity: ActivityProfile,
    /// If set, re-sample contacts at this inquiry-scan period (the iMotes
    /// scanned every 120 s).
    pub inquiry_scan_period: Option<Seconds>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ConferenceConfig {
    fn default() -> Self {
        Self {
            name: "synthetic-conference".to_string(),
            mobile_nodes: 78,
            stationary_nodes: 20,
            window_seconds: 3.0 * 3600.0,
            max_node_rate: 0.045,
            min_node_rate: 0.0005,
            stationary_rate_factor: 1.2,
            mean_contact_duration: 120.0,
            contact_duration_cv: 1.0,
            activity: ActivityProfile::Constant,
            inquiry_scan_period: None,
            seed: 1,
        }
    }
}

impl ConferenceConfig {
    /// Total number of nodes (mobile + stationary).
    pub fn total_nodes(&self) -> usize {
        self.mobile_nodes + self.stationary_nodes
    }

    /// Checks the ranges [`super::ConferenceTraceGenerator`] requires: at
    /// least two nodes overall, a positive finite window, `0 <=
    /// min_node_rate < max_node_rate`, a positive contact duration, a
    /// non-negative duration CV and a positive inquiry-scan period when
    /// one is set.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        const KIND: &str = "conference";
        let total = self.mobile_nodes.saturating_add(self.stationary_nodes);
        require(
            total >= 2,
            KIND,
            "mobile_nodes",
            "plus stationary_nodes must be at least 2",
            total,
        )?;
        require_window(KIND, self.window_seconds)?;
        require_rate_range(KIND, self.min_node_rate, self.max_node_rate)?;
        require_positive(KIND, "mean_contact_duration", self.mean_contact_duration)?;
        require_cv(KIND, self.contact_duration_cv)?;
        match self.inquiry_scan_period {
            Some(period) => require_positive(KIND, "inquiry_scan_period", period),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn constant_profile_is_identity() {
        let p = ActivityProfile::Constant;
        assert_eq!(p.multiplier(0.0, 100.0), 1.0);
        assert_eq!(p.multiplier(99.0, 100.0), 1.0);
        assert_eq!(p.max_multiplier(), 1.0);
    }

    #[test]
    fn piecewise_profile_selects_segment() {
        let p = ActivityProfile::Piecewise(vec![1.0, 2.0, 0.5]);
        assert_eq!(p.multiplier(10.0, 300.0), 1.0);
        assert_eq!(p.multiplier(150.0, 300.0), 2.0);
        assert_eq!(p.multiplier(299.0, 300.0), 0.5);
        assert_eq!(p.max_multiplier(), 2.0);
    }

    #[test]
    fn piecewise_empty_defaults_to_one() {
        let p = ActivityProfile::Piecewise(vec![]);
        assert_eq!(p.multiplier(5.0, 10.0), 1.0);
    }

    #[test]
    fn tail_dropoff_declines_linearly() {
        let p = ActivityProfile::TailDropoff { dropoff_seconds: 100.0, final_fraction: 0.2 };
        assert_eq!(p.multiplier(0.0, 1000.0), 1.0);
        assert_eq!(p.multiplier(900.0, 1000.0), 1.0);
        let mid = p.multiplier(950.0, 1000.0);
        assert!((mid - 0.6).abs() < 1e-9);
        assert!((p.multiplier(1000.0, 1000.0) - 0.2).abs() < 1e-9);
        assert_eq!(p.max_multiplier(), 1.0);
    }

    #[test]
    fn defaults_are_paper_scale() {
        let conf = ConferenceConfig::default();
        assert_eq!(conf.total_nodes(), 98);
        assert_eq!(conf.window_seconds, 10800.0);
        let het = HeterogeneousConfig::default();
        assert_eq!(het.nodes, 98);
        let hom = HomogeneousConfig::default();
        assert!(hom.node_contact_rate > 0.0);
    }
}
