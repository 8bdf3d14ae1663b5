//! Contact activity experiments: Fig. 1 (contact time series) and Fig. 7
//! (per-node contact-count CDFs).

use psn_stats::{BinnedSeries, Ecdf};
use psn_trace::binning::{stationarity_from_series, StationarityReport};
use psn_trace::ContactSummary;

use crate::report::{Block, Column, Scalar, Section, Series};

/// The activity data for one dataset.
#[derive(Debug, Clone)]
pub struct ActivityReport {
    /// Label of the scenario this report describes.
    pub scenario: String,
    /// Total contacts per one-minute bin (Fig. 1 series).
    pub per_minute: BinnedSeries,
    /// Stationarity diagnostics of the per-minute counts: the coefficient
    /// of variation and the mean of the final 30 minutes relative to the
    /// overall mean (the afternoon drop-off). `None` when they are
    /// undefined — a run without contacts, or a window shorter than the
    /// 30-minute tail.
    pub stationarity: Option<StationarityReport>,
    /// CDF of per-node contact counts (Fig. 7 series).
    pub contact_count_cdf: Ecdf,
    /// Kolmogorov–Smirnov distance of the contact-count distribution from a
    /// uniform distribution on `[0, max]` (the paper's "approximately
    /// uniform" observation).
    pub uniformity_ks: f64,
}

impl ActivityReport {
    /// The typed Fig. 1 section: contacts per minute, with the
    /// stationarity diagnostics as machine-readable stats. Undefined
    /// diagnostics are left out of the stats and print as `-` in the title.
    pub fn timeseries_section(&self) -> Section {
        let points = self.per_minute.series().into_iter().map(|(t, c)| (t / 60.0, c)).collect();
        let mut section = Section::new();
        let (cv, tail_ratio) = match &self.stationarity {
            Some(s) => {
                section = section
                    .stat(Scalar::fixed("cv", s.coefficient_of_variation, 3))
                    .stat(Scalar::fixed("tail_ratio", s.tail_ratio, 3));
                (format!("{:.3}", s.coefficient_of_variation), format!("{:.3}", s.tail_ratio))
            }
            None => ("-".to_string(), "-".to_string()),
        };
        section
            .block(Block::Title(format!(
                "Figure 1 — total contacts per minute, {} (cv={cv}, tail ratio={tail_ratio})",
                self.scenario
            )))
            .block(Block::Series(Series::new(
                "contacts per minute",
                Column::fixed("minute", 0).with_unit("min"),
                Column::display("contacts"),
                points,
            )))
    }

    /// The typed Fig. 7 section: the per-node contact-count CDF.
    pub fn contact_cdf_section(&self) -> Section {
        Section::new()
            .stat(Scalar::fixed("uniformity_ks", self.uniformity_ks, 3))
            .block(Block::Title(format!(
                "Figure 7 — per-node contact count CDF, {} (KS distance to uniform = {:.3})",
                self.scenario, self.uniformity_ks
            )))
            .block(Block::Series(
                Series::from_ecdf("contact counts", &self.contact_count_cdf).downsample(120),
            ))
    }
}

/// Builds the activity report from a run's contact summary, whose
/// per-minute series and per-node counts were folded from the contact
/// events — by the stream pass in streaming runs, over the memoized trace
/// in materialized ones.
pub fn activity_report_streamed(
    scenario: impl Into<String>,
    summary: &ContactSummary,
) -> ActivityReport {
    let rates = summary.rates();
    ActivityReport {
        scenario: scenario.into(),
        per_minute: summary.per_minute().clone(),
        stationarity: stationarity_from_series(summary.per_minute()),
        contact_count_cdf: rates
            .count_cdf()
            .unwrap_or_else(|| unreachable!("scenarios have at least two nodes")),
        uniformity_ks: rates.uniformity_ks().unwrap_or(1.0),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::config::ExperimentProfile;
    use crate::report::{JsonRenderer, ReportDoc};
    use psn_trace::generator::HomogeneousConfig;
    use psn_trace::{DatasetId, ScenarioConfig};

    fn quick_reports() -> Vec<ActivityReport> {
        DatasetId::all()
            .into_iter()
            .map(|id| {
                let trace = ExperimentProfile::Quick.dataset(id).generate();
                activity_report_streamed(id, &ContactSummary::from_trace(&trace))
            })
            .collect()
    }

    #[test]
    fn quick_study_covers_all_datasets() {
        let reports = quick_reports();
        assert_eq!(reports.len(), 4);
        for report in &reports {
            assert!(report.per_minute.total() > 0.0, "{:?}", report.scenario);
            assert!(!report.contact_count_cdf.is_empty());
            // The synthetic traces keep the paper's roughly uniform
            // contact-count distribution.
            assert!(
                report.uniformity_ks < 0.35,
                "{:?}: ks = {}",
                report.scenario,
                report.uniformity_ks
            );
        }
    }

    #[test]
    fn afternoon_datasets_show_stronger_tail_dropoff() {
        let reports = quick_reports();
        let get = |id: DatasetId| {
            let report = reports.iter().find(|r| r.scenario == id.label()).expect("present");
            report.stationarity.as_ref().expect("three-hour windows have a tail").tail_ratio
        };
        assert!(
            get(DatasetId::Infocom06Afternoon) < get(DatasetId::Infocom06Morning),
            "afternoon should drop off more than morning"
        );
        assert!(get(DatasetId::Conext06Afternoon) < get(DatasetId::Conext06Morning));
    }

    #[test]
    fn single_trace_helpers() {
        let trace = ExperimentProfile::Quick.dataset(DatasetId::Conext06Morning).generate();
        let summary = ContactSummary::from_trace(&trace);
        assert_eq!(summary.per_minute().bin_width(), 60.0);
        assert!(summary.rates().count_cdf().is_some());
    }

    #[test]
    fn contact_free_run_renders_without_stationarity() {
        // A population too sparse to meet in its window: the per-minute
        // series is all zeros, so cv and tail ratio are undefined.
        let config = ScenarioConfig::Homogeneous(HomogeneousConfig {
            nodes: 4,
            window_seconds: 60.0,
            node_contact_rate: 1e-6,
            mean_contact_duration: 120.0,
            seed: 1,
        });
        let trace = config.generate();
        assert_eq!(trace.contact_count(), 0);
        let report = activity_report_streamed("sparse", &ContactSummary::from_trace(&trace));
        assert!(report.stationarity.is_none());

        let section = report.timeseries_section();
        assert!(section.scalars().is_empty(), "undefined stats are left out");
        let mut doc = ReportDoc::new("activity");
        doc.sections = vec![section, report.contact_cdf_section()];
        let text = crate::report::TextRenderer.render_text(&doc);
        assert!(text.contains("(cv=-, tail ratio=-)"), "{text}");
        let json = JsonRenderer.render_json(&doc);
        assert_eq!(JsonRenderer.parse(&json).unwrap(), doc, "json round trip");
    }
}
