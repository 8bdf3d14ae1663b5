//! Named synthetic datasets standing in for the paper's four trace windows.
//!
//! The paper evaluates four 3-hour windows:
//!
//! * Infocom 2006, 25 April, 9 AM–12 PM
//! * Infocom 2006, 25 April, 3 PM–6 PM
//! * CoNEXT 2006, 4 December, 9 AM–12 PM
//! * CoNEXT 2006, 4 December, 3 PM–6 PM
//!
//! Each had 98 devices (≈78 mobile + 20 stationary). Per-node contact counts
//! reach ≈500 in the Infocom windows and ≈250 in the CoNEXT windows
//! (Fig. 7), and the two afternoon windows show a noticeable activity
//! drop-off in the final half hour (Fig. 1). The [`SyntheticDataset`] entries
//! configure the conference generator to match those observable statistics;
//! see DESIGN.md §2 for the substitution rationale.
//!
//! Two sizes are provided:
//!
//! * [`SyntheticDataset::paper_config`] — full 98-node, 3-hour windows used
//!   by the paper-scale figure presets of the `psn-study` CLI;
//! * [`SyntheticDataset::quick_config`] — reduced populations and windows
//!   (same structure) used by integration tests and the quick benchmark
//!   profile so the workspace stays fast to validate.

use crate::generator::config::{ActivityProfile, ConferenceConfig};
use crate::generator::ConferenceTraceGenerator;
use crate::trace::ContactTrace;

/// Identifiers for the four synthetic stand-in datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Synthetic stand-in for Infocom 2006, 9 AM–12 PM.
    Infocom06Morning,
    /// Synthetic stand-in for Infocom 2006, 3 PM–6 PM.
    Infocom06Afternoon,
    /// Synthetic stand-in for CoNEXT 2006, 9 AM–12 PM.
    Conext06Morning,
    /// Synthetic stand-in for CoNEXT 2006, 3 PM–6 PM.
    Conext06Afternoon,
}

impl DatasetId {
    /// All four datasets in the order the paper lists them.
    pub fn all() -> [DatasetId; 4] {
        [
            DatasetId::Infocom06Morning,
            DatasetId::Infocom06Afternoon,
            DatasetId::Conext06Morning,
            DatasetId::Conext06Afternoon,
        ]
    }

    /// Short label used in reports (matches the paper's "Infocom 06 9-12"
    /// style).
    pub fn label(&self) -> &'static str {
        match self {
            DatasetId::Infocom06Morning => "Infocom06 9-12",
            DatasetId::Infocom06Afternoon => "Infocom06 3-6",
            DatasetId::Conext06Morning => "Conext06 9-12",
            DatasetId::Conext06Afternoon => "Conext06 3-6",
        }
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

impl From<DatasetId> for String {
    /// A dataset id converts into the scenario label the experiment layer
    /// keys its report sections by.
    fn from(id: DatasetId) -> String {
        id.label().to_string()
    }
}

/// A named synthetic dataset: an id plus the generator configuration.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// Which paper dataset this stands in for.
    pub id: DatasetId,
    /// The conference generator configuration.
    pub config: ConferenceConfig,
}

impl SyntheticDataset {
    /// Paper-scale configuration for a dataset (98 nodes, 3-hour window).
    pub fn paper_config(id: DatasetId) -> Self {
        let (name, max_rate, activity, seed) = match id {
            DatasetId::Infocom06Morning => (
                "synthetic-infocom06-0912",
                // ≈500 contacts max per node over 3 h ≈ 0.046 contacts/s.
                0.046,
                ActivityProfile::Constant,
                0x1F0_906,
            ),
            DatasetId::Infocom06Afternoon => (
                "synthetic-infocom06-1518",
                0.042,
                ActivityProfile::TailDropoff { dropoff_seconds: 1800.0, final_fraction: 0.35 },
                0x1F0_1518,
            ),
            DatasetId::Conext06Morning => (
                "synthetic-conext06-0912",
                // ≈250 contacts max per node over 3 h ≈ 0.023 contacts/s.
                0.023,
                ActivityProfile::Constant,
                0xC0_906,
            ),
            DatasetId::Conext06Afternoon => (
                "synthetic-conext06-1518",
                0.021,
                ActivityProfile::TailDropoff { dropoff_seconds: 1800.0, final_fraction: 0.35 },
                0xC0_1518,
            ),
        };
        Self {
            id,
            config: ConferenceConfig {
                name: name.to_string(),
                mobile_nodes: 78,
                stationary_nodes: 20,
                window_seconds: 3.0 * 3600.0,
                max_node_rate: max_rate,
                min_node_rate: 0.0006,
                stationary_rate_factor: 1.2,
                mean_contact_duration: 120.0,
                contact_duration_cv: 1.0,
                activity,
                inquiry_scan_period: Some(120.0),
                seed,
            },
        }
    }

    /// Reduced-scale configuration with the same structure, used by tests
    /// and the quick benchmark profile.
    pub fn quick_config(id: DatasetId) -> Self {
        let mut ds = Self::paper_config(id);
        ds.config.mobile_nodes = 32;
        ds.config.stationary_nodes = 8;
        ds.config.window_seconds = 3600.0;
        // Keep per-node rates the same so the rate structure is preserved.
        ds.config.name = format!("{}-quick", ds.config.name);
        ds
    }

    /// Generates the contact trace for this dataset.
    pub fn generate(&self) -> ContactTrace {
        ConferenceTraceGenerator::new(self.config.clone()).generate()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::binning::stationarity_report;
    use crate::rates::ContactRates;

    #[test]
    fn all_ids_have_distinct_labels_and_seeds() {
        let labels: Vec<&str> = DatasetId::all().iter().map(|d| d.label()).collect();
        let mut unique = labels.clone();
        unique.dedup();
        assert_eq!(labels.len(), 4);
        assert_eq!(unique.len(), 4);

        let seeds: Vec<u64> = DatasetId::all()
            .iter()
            .map(|&d| SyntheticDataset::paper_config(d).config.seed)
            .collect();
        let mut s = seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(DatasetId::Infocom06Morning.to_string(), "Infocom06 9-12");
    }

    #[test]
    fn paper_configs_are_98_nodes_three_hours() {
        for id in DatasetId::all() {
            let ds = SyntheticDataset::paper_config(id);
            assert_eq!(ds.config.total_nodes(), 98);
            assert_eq!(ds.config.window_seconds, 10800.0);
            assert_eq!(ds.config.inquiry_scan_period, Some(120.0));
        }
    }

    #[test]
    fn infocom_is_busier_than_conext() {
        let info = SyntheticDataset::paper_config(DatasetId::Infocom06Morning);
        let conext = SyntheticDataset::paper_config(DatasetId::Conext06Morning);
        assert!(info.config.max_node_rate > conext.config.max_node_rate);
    }

    #[test]
    fn quick_dataset_generates_reasonable_trace() {
        let ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
        let trace = ds.generate();
        assert_eq!(trace.node_count(), 40);
        assert!(trace.contact_count() > 200, "contacts = {}", trace.contact_count());
        let rates = ContactRates::from_trace(&trace);
        // Heterogeneous rates: coefficient of variation clearly above zero.
        let summary = rates.count_summary();
        let cv = summary.std_dev().unwrap() / summary.mean().unwrap();
        assert!(cv > 0.3, "cv = {cv}");
    }

    #[test]
    fn afternoon_quick_dataset_shows_tail_dropoff() {
        let morning = SyntheticDataset::quick_config(DatasetId::Infocom06Morning).generate();
        let afternoon = SyntheticDataset::quick_config(DatasetId::Infocom06Afternoon).generate();
        let m = stationarity_report(&morning).unwrap();
        let a = stationarity_report(&afternoon).unwrap();
        assert!(
            a.tail_ratio < m.tail_ratio,
            "afternoon tail {} should be below morning tail {}",
            a.tail_ratio,
            m.tail_ratio
        );
    }

    #[test]
    fn quick_generation_is_deterministic() {
        let a = SyntheticDataset::quick_config(DatasetId::Conext06Morning).generate();
        let b = SyntheticDataset::quick_config(DatasetId::Conext06Morning).generate();
        assert_eq!(a.contacts(), b.contacts());
    }
}
