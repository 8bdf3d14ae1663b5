//! Experiment drivers — one module per group of figures in the paper.
//!
//! | Module | Paper figures | Content |
//! |---|---|---|
//! | [`activity`] | Fig. 1, Fig. 7 | contact time-series per dataset, per-node contact-count CDFs |
//! | [`explosion`] | Fig. 4, 5, 6, 8 | optimal-duration / time-to-explosion CDFs, scatter, growth curves, pair-type split |
//! | [`forwarding`] | Fig. 9, 10, 11, 13 | success-rate vs delay per algorithm, delay CDFs, reception times, pair-type breakdown |
//! | [`paths_taken`] | Fig. 12 | per-message path-arrival bursts and the arrival of each algorithm's chosen path |
//! | [`hop_rates`] | Fig. 14, 15 | mean contact rate per hop of near-optimal paths, per-hop rate-ratio box plots |
//! | [`model`] | §5.1 | agreement between the jump process, the ODE limit and the closed forms |
//!
//! The drivers are scenario-agnostic: each study has one entry point
//! (`run_*_streamed`, `activity_report_streamed`) that reads its contact
//! statistics from a [`psn_trace::ContactSummary`] and, where it needs
//! them, a space-time graph and history timeline. The [`crate::study`]
//! pipeline folds that summary for every run — over the scenario's event
//! stream, or over the memoized trace — so any
//! [`psn_trace::ScenarioConfig`] flows through the same calls.

pub mod activity;
pub mod explosion;
pub mod forwarding;
pub mod hop_rates;
pub mod model;
pub mod paths_taken;

pub use activity::{activity_report_streamed, ActivityReport};
pub use explosion::{run_explosion_study_streamed, ExplosionStudy, PairTypeScatter};
pub use forwarding::{run_forwarding_study_streamed, ForwardingStudy};
pub use hop_rates::{run_hop_rate_study, HopRateStudy};
pub use model::{run_model_validation, ModelValidation};
pub use paths_taken::{run_paths_taken_streamed, PathsTakenCase};
