//! # psn — Diversity of Forwarding Paths in Pocket Switched Networks
//!
//! This crate is the public face of the reproduction of Erramilli,
//! Chaintreau, Crovella & Diot, *"Diversity of Forwarding Paths in Pocket
//! Switched Networks"* (2007): a toolkit for studying the set of
//! time-respecting forwarding paths available in human-contact (pocket
//! switched) networks, the *path explosion* phenomenon, and its consequences
//! for DTN forwarding algorithms.
//!
//! ## What it provides
//!
//! * synthetic conference contact traces (and a parser for real ones) —
//!   re-exported from [`psn_trace`];
//! * space-time graph construction and k-shortest valid-path enumeration —
//!   re-exported from [`psn_spacetime`];
//! * the homogeneous/inhomogeneous analytic models of path explosion —
//!   re-exported from [`psn_analytic`];
//! * a trace-driven forwarding simulator with the paper's six algorithms —
//!   re-exported from [`psn_forwarding`];
//! * **experiment drivers** ([`experiments`]) that regenerate the data
//!   behind every figure in the paper's evaluation as **typed sections**;
//! * the **typed report model** ([`report`]): `ReportDoc`s of schema'd
//!   tables, series and scalars with pluggable renderers — golden-pinned
//!   text, parseable JSON, per-table CSV;
//! * the **study pipeline** ([`study`]): `StudySpec` → `StudyPlan` →
//!   `StudyReport`, a registry of named studies that run over any
//!   declarative [`psn_trace::ScenarioConfig`] (community-structured,
//!   scaled populations, …), first-class scenario sweeps
//!   ([`study::sweep`]), plus the figure presets the `psn-study` CLI and
//!   the golden-file tests are built on.
//!
//! ## Quick start
//!
//! ```
//! use psn::prelude::*;
//!
//! // A reduced-scale synthetic stand-in for the Infocom'06 morning trace.
//! let dataset = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
//! let trace = dataset.generate();
//!
//! // Enumerate forwarding paths for one message and look at its explosion
//! // profile.
//! let graph = SpaceTimeGraph::build_default(&trace);
//! let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(50));
//! let message = Message::new(NodeId(0), NodeId(5), 60.0);
//! let result = enumerator.enumerate(&message);
//! let profile = ExplosionProfile::with_threshold(&result, 50);
//! println!("optimal duration: {:?}", profile.optimal_duration);
//! ```
//!
//! The `examples/` directory contains runnable end-to-end scenarios and the
//! `psn-bench` crate's `psn-study` CLI regenerates every figure from a
//! preset or any scenario config file (see DESIGN.md for the experiment
//! index).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod report;
pub mod study;

pub use config::ExperimentProfile;
pub use report::{ReportDoc, ReportFormat};
pub use study::sweep::{
    run_sweep, run_sweep_with, run_sweep_with_policy, SweepPlan, SweepReport, SweepSpec,
};
pub use study::{
    ArtifactError, ArtifactStore, CacheSource, CellFailure, RunPolicy, StudyError, StudyId,
    StudyPlan, StudyReport, StudySpec, StudyView,
};

/// Convenient re-exports of the most commonly used types across the
/// workspace.
pub mod prelude {
    pub use crate::config::ExperimentProfile;
    pub use crate::experiments;
    pub use psn_analytic::{HomogeneousModel, PairClass, TwoClassModel};
    pub use psn_forwarding::{
        standard_algorithms, AlgorithmKind, AlgorithmMetrics, HistoryTimeline, PairType,
        SimulationResult, Simulator, SimulatorConfig,
    };
    pub use psn_spacetime::{
        epidemic_delivery_time, EnumerationConfig, EnumerationScratch, ExplosionProfile,
        ExplosionSummary, Message, MessageGenerator, MessageWorkloadConfig, Path, PathEnumerator,
        SpaceTimeGraph,
    };
    pub use psn_stats::{BoxPlot, ConfidenceInterval, Ecdf, Histogram, Summary};
    pub use psn_trace::{
        ContactRates, ContactSummary, ContactTrace, DatasetId, NodeClass, NodeId, RateClass,
        SyntheticDataset,
    };
}
