//! # psn-trace
//!
//! Contact-trace substrate for the Pocket Switched Network (PSN)
//! path-diversity reproduction.
//!
//! The original paper ("Diversity of Forwarding Paths in Pocket Switched
//! Networks", Erramilli et al., 2007) is a trace-driven study over Bluetooth
//! contact logs collected with Intel iMotes at Infocom 2006 and CoNEXT 2006.
//! Those traces are not redistributable, so this crate provides:
//!
//! * the **contact-record data model** ([`Contact`], [`NodeId`],
//!   [`ContactTrace`]) matching the iMote logs: a contact has the two device
//!   identities, a start time and an end time, and contacts are treated as
//!   bidirectional (the paper's assumption);
//! * a **parser/serializer** for a simple line-oriented text format
//!   ([`parser`]), so externally collected traces can be fed into the
//!   toolkit;
//! * **synthetic trace generators** ([`generator`]) that reproduce the
//!   statistical structure the paper's analysis depends on — heterogeneous
//!   per-node contact rates approximately uniform on `(0, max)` (Fig. 7),
//!   roughly stationary aggregate contact activity over a 3-hour window
//!   (Fig. 1), stationary booth nodes plus mobile participants, and an
//!   optional 120-second inquiry-scan observation model;
//! * **contact-rate analysis** ([`rates`]): per-node contact counts/rates,
//!   inter-contact times, and the median-rate split into 'in' (high-rate)
//!   and 'out' (low-rate) nodes used throughout §5.2 and §6 of the paper;
//! * **named synthetic datasets** ([`datasets`]) standing in for the four
//!   3-hour windows the paper evaluates (Infocom06 9–12, Infocom06 15–18,
//!   CoNEXT06 9–12, CoNEXT06 15–18);
//! * **time-binning** helpers ([`binning`]) producing the Fig. 1 contact
//!   time-series.
//!
//! Everything downstream (space-time graphs, path enumeration, the
//! forwarding simulator) consumes [`ContactTrace`] values, so a user with
//! access to the real iMote logs can parse them with [`parser::parse_trace`]
//! and run every experiment unchanged.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod binning;
pub mod contact;
pub mod datasets;
pub mod fingerprint;
pub mod generator;
pub mod node;
pub mod parser;
pub mod rates;
pub mod scenario;
pub mod scenario_stream;
pub mod stream;
pub mod summary;
pub mod sweep;
pub mod trace;

pub use contact::Contact;
pub use datasets::{DatasetId, SyntheticDataset};
pub use fingerprint::{Fingerprint, FingerprintHasher};
pub use node::{NodeClass, NodeId, NodeRegistry};
pub use rates::{ContactRates, RateClass};
pub use scenario::{ScenarioConfig, ScenarioError, ScenarioSet};
pub use scenario_stream::ScenarioContactStream;
pub use stream::{
    ContactEvent, ContactStream, StreamError, SyntheticContactStream, SyntheticStreamConfig,
    TraceEventStream,
};
pub use summary::{ContactSummary, SummarizingStream};
pub use sweep::{ScenarioSweep, SweepAxis, SweepCell};
pub use trace::{ContactTrace, TimeWindow, TraceError};

/// Simulation time in seconds, measured from the start of the observation
/// window.
///
/// The paper's datasets are three-hour windows; all timestamps in this crate
/// are relative seconds (`0.0` = window start), which keeps arithmetic simple
/// and avoids any wall-clock dependence.
pub type Seconds = f64;
