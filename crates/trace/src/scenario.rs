//! Declarative scenario configurations.
//!
//! A [`ScenarioConfig`] names one synthetic workload family and carries its
//! full generator configuration. It unifies every generator in
//! [`crate::generator`] — the paper's conference stand-ins, the analytic
//! model's homogeneous population, the heterogeneous Fig. 7 population, and
//! the two extension families (community-structured mobility, scaled
//! populations) — behind one enum that the experiment layer (`psn`'s study
//! pipeline and the `psn-study` CLI) consumes without knowing which family
//! it is running.
//!
//! Scenarios are **config-file loadable**. The build has no registry access,
//! so the text formats are implemented here directly: a TOML subset (flat `key = value` pairs plus
//! one level of `[table]` nesting) and the equivalent JSON object. The same
//! document model backs both, and [`ScenarioConfig::to_toml_string`] /
//! [`ScenarioConfig::to_json_string`] round-trip exactly (property-tested),
//! so configs can be generated, archived and replayed byte-for-byte.
//!
//! # Example
//!
//! ```
//! use psn_trace::scenario::ScenarioConfig;
//!
//! let toml = r#"
//! kind = "community"
//! name = "four-communities"
//! communities = 4
//! nodes_per_community = 25
//! window_seconds = 10800.0
//! max_node_rate = 0.045
//! intra_inter_ratio = 8.0
//! mean_contact_duration = 120.0
//! contact_duration_cv = 1.0
//! seed = 7
//! "#;
//! let scenario = ScenarioConfig::from_toml_str(toml).unwrap();
//! assert_eq!(scenario.node_count(), 100);
//! let trace = scenario.generate();
//! assert_eq!(trace.node_count(), 100);
//! ```

use std::collections::BTreeMap;

use crate::generator::config::{
    ActivityProfile, CommunityConfig, ConferenceConfig, HeterogeneousConfig, HomogeneousConfig,
    ScaledConfig,
};
use crate::generator::{
    generate_community, generate_heterogeneous, generate_homogeneous, generate_scaled,
    ConferenceTraceGenerator,
};
use crate::trace::ContactTrace;
use crate::Seconds;

/// Error raised while parsing or validating a scenario config document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    message: String,
}

impl ScenarioError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario config error: {}", self.message)
    }
}

impl std::error::Error for ScenarioError {}

/// One declarative scenario: a workload family plus its generator
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioConfig {
    /// Conference stand-in (mobile + stationary nodes, activity profile,
    /// optional inquiry scan) — the paper's dataset family.
    Conference(ConferenceConfig),
    /// Homogeneous population (every pair at the same rate) — the analytic
    /// model's setting and the "no heterogeneity" ablation.
    Homogeneous(HomogeneousConfig),
    /// Heterogeneous per-node rates, uniform on `(0, max)` (Fig. 7).
    Heterogeneous(HeterogeneousConfig),
    /// Community-structured mobility with an intra/inter contact-rate
    /// ratio.
    Community(CommunityConfig),
    /// Scaled population (500–5000 nodes) with propensity scaling.
    Scaled(ScaledConfig),
}

impl ScenarioConfig {
    /// The machine-readable family tag used in config files.
    pub fn kind(&self) -> &'static str {
        match self {
            ScenarioConfig::Conference(_) => "conference",
            ScenarioConfig::Homogeneous(_) => "homogeneous",
            ScenarioConfig::Heterogeneous(_) => "heterogeneous",
            ScenarioConfig::Community(_) => "community",
            ScenarioConfig::Scaled(_) => "scaled",
        }
    }

    /// All family tags accepted in config files.
    pub fn kinds() -> [&'static str; 5] {
        ["conference", "homogeneous", "heterogeneous", "community", "scaled"]
    }

    /// Human-readable scenario name. Families without a `name` field derive
    /// the same name their generated trace will carry.
    pub fn name(&self) -> String {
        match self {
            ScenarioConfig::Conference(c) => c.name.clone(),
            ScenarioConfig::Homogeneous(c) => format!("homogeneous-n{}-seed{}", c.nodes, c.seed),
            ScenarioConfig::Heterogeneous(c) => {
                format!("heterogeneous-n{}-seed{}", c.nodes, c.seed)
            }
            ScenarioConfig::Community(c) => c.name.clone(),
            ScenarioConfig::Scaled(c) => c.name.clone(),
        }
    }

    /// Total number of nodes the scenario will generate.
    pub fn node_count(&self) -> usize {
        match self {
            ScenarioConfig::Conference(c) => c.total_nodes(),
            ScenarioConfig::Homogeneous(c) => c.nodes,
            ScenarioConfig::Heterogeneous(c) => c.nodes,
            ScenarioConfig::Community(c) => c.total_nodes(),
            ScenarioConfig::Scaled(c) => c.nodes,
        }
    }

    /// Observation-window length in seconds.
    pub fn window_seconds(&self) -> Seconds {
        match self {
            ScenarioConfig::Conference(c) => c.window_seconds,
            ScenarioConfig::Homogeneous(c) => c.window_seconds,
            ScenarioConfig::Heterogeneous(c) => c.window_seconds,
            ScenarioConfig::Community(c) => c.window_seconds,
            ScenarioConfig::Scaled(c) => c.window_seconds,
        }
    }

    /// The generator RNG seed.
    pub fn seed(&self) -> u64 {
        match self {
            ScenarioConfig::Conference(c) => c.seed,
            ScenarioConfig::Homogeneous(c) => c.seed,
            ScenarioConfig::Heterogeneous(c) => c.seed,
            ScenarioConfig::Community(c) => c.seed,
            ScenarioConfig::Scaled(c) => c.seed,
        }
    }

    /// Returns a copy with a different generator seed — the hook the study
    /// pipeline uses to expand one scenario into independent replications.
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut out = self.clone();
        match &mut out {
            ScenarioConfig::Conference(c) => c.seed = seed,
            ScenarioConfig::Homogeneous(c) => c.seed = seed,
            ScenarioConfig::Heterogeneous(c) => c.seed = seed,
            ScenarioConfig::Community(c) => c.seed = seed,
            ScenarioConfig::Scaled(c) => c.seed = seed,
        }
        out
    }

    /// Checks the configuration against its generator's ranges (at least
    /// two nodes, a positive finite window, positive rates and durations,
    /// …). Every parsed config — TOML, JSON and sweep cells — has passed
    /// this, so its generator's range asserts cannot fire.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match self {
            ScenarioConfig::Conference(c) => c.validate(),
            ScenarioConfig::Homogeneous(c) => c.validate(),
            ScenarioConfig::Heterogeneous(c) => c.validate(),
            ScenarioConfig::Community(c) => c.validate(),
            ScenarioConfig::Scaled(c) => c.validate(),
        }
    }

    /// Generates the contact trace for this scenario.
    ///
    /// # Panics
    ///
    /// Panics when [`ScenarioConfig::validate`] rejects the configuration.
    pub fn generate(&self) -> ContactTrace {
        match self {
            ScenarioConfig::Conference(c) => ConferenceTraceGenerator::new(c.clone()).generate(),
            ScenarioConfig::Homogeneous(c) => generate_homogeneous(c),
            ScenarioConfig::Heterogeneous(c) => generate_heterogeneous(c),
            ScenarioConfig::Community(c) => generate_community(c),
            ScenarioConfig::Scaled(c) => generate_scaled(c),
        }
    }

    /// Parses a scenario from TOML text (the subset described in the
    /// module docs).
    pub fn from_toml_str(text: &str) -> Result<Self, ScenarioError> {
        Self::from_doc(doc::parse_toml(text)?)
    }

    /// Parses a scenario from a JSON object.
    pub fn from_json_str(text: &str) -> Result<Self, ScenarioError> {
        Self::from_doc(doc::parse_json(text)?)
    }

    /// Parses a scenario from either format, auto-detected: JSON when the
    /// first non-whitespace character is `{`, TOML otherwise.
    pub fn from_config_str(text: &str) -> Result<Self, ScenarioError> {
        match text.trim_start().starts_with('{') {
            true => Self::from_json_str(text),
            false => Self::from_toml_str(text),
        }
    }

    /// Loads a scenario from a config file, dispatching on the `.json`
    /// extension and falling back to content auto-detection.
    pub fn from_path(path: &std::path::Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::new(format!("reading {}: {e}", path.display())))?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Self::from_json_str(&text),
            Some("toml") => Self::from_toml_str(&text),
            _ => Self::from_config_str(&text),
        }
    }

    /// Serialises the scenario to TOML; `from_toml_str` round-trips it
    /// exactly.
    pub fn to_toml_string(&self) -> String {
        doc::write_toml(&self.to_doc())
    }

    /// Serialises the scenario to JSON; `from_json_str` round-trips it
    /// exactly.
    pub fn to_json_string(&self) -> String {
        doc::write_json(&self.to_doc())
    }

    /// The stable structural fingerprint of this scenario — the
    /// content-address under which the artifact layer memoizes the
    /// generated trace and everything derived from it. Hashed over the
    /// config document model, so every TOML/JSON spelling and field
    /// ordering of the same scenario shares the key, and any semantic
    /// difference (seed included) changes it.
    pub fn fingerprint(&self) -> crate::fingerprint::Fingerprint {
        crate::fingerprint::table_fingerprint("psn-scenario/1", &self.to_doc())
    }

    /// A canonical serialized form of the scenario (its JSON document) —
    /// the identity string artifact stores compare on every fingerprint
    /// hit to rule hash collisions out.
    pub fn canonical_identity(&self) -> String {
        self.to_json_string()
    }

    /// Returns a copy with one named numeric field replaced — the hook
    /// scenario sweeps use to walk a parameter grid. The assignment goes
    /// through the config document model, so unknown fields, non-numeric
    /// fields (`kind`, `name`) and fractional values for integer fields
    /// are all rejected with the same errors a config file would produce.
    pub fn with_field(&self, field: &str, value: f64) -> Result<Self, ScenarioError> {
        let mut top = self.to_doc();
        if !value.is_finite() {
            return Err(ScenarioError::new(format!("field {field:?}: sweep value must be finite")));
        }
        let int_like = value.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(&value);
        let as_int = match top.get(field) {
            Some(doc::Value::Int(_)) => int_like,
            Some(_) => false,
            // Unknown fields error in `from_doc` below either way; prefer
            // the integer encoding so optional integer-valued fields parse.
            None => int_like,
        };
        if as_int {
            top.set_u64(field, value as u64);
        } else {
            top.set_f64(field, value);
        }
        Self::from_doc(top)
    }

    pub(crate) fn from_doc(mut top: doc::Table) -> Result<Self, ScenarioError> {
        let kind = top.take_string("kind")?;
        let scenario = match kind.as_str() {
            "conference" => {
                let d = ConferenceConfig::default();
                let activity = match top.take_table_opt("activity") {
                    Some(t) => activity_from_table(t)?,
                    None => d.activity,
                };
                ScenarioConfig::Conference(ConferenceConfig {
                    name: top.take_string_or("name", d.name)?,
                    mobile_nodes: top.take_usize_or("mobile_nodes", d.mobile_nodes)?,
                    stationary_nodes: top.take_usize_or("stationary_nodes", d.stationary_nodes)?,
                    window_seconds: top.take_f64_or("window_seconds", d.window_seconds)?,
                    max_node_rate: top.take_f64_or("max_node_rate", d.max_node_rate)?,
                    min_node_rate: top.take_f64_or("min_node_rate", d.min_node_rate)?,
                    stationary_rate_factor: top
                        .take_f64_or("stationary_rate_factor", d.stationary_rate_factor)?,
                    mean_contact_duration: top
                        .take_f64_or("mean_contact_duration", d.mean_contact_duration)?,
                    contact_duration_cv: top
                        .take_f64_or("contact_duration_cv", d.contact_duration_cv)?,
                    activity,
                    inquiry_scan_period: top.take_f64_opt("inquiry_scan_period")?,
                    seed: top.take_u64_or("seed", d.seed)?,
                })
            }
            "homogeneous" => {
                let d = HomogeneousConfig::default();
                ScenarioConfig::Homogeneous(HomogeneousConfig {
                    nodes: top.take_usize_or("nodes", d.nodes)?,
                    window_seconds: top.take_f64_or("window_seconds", d.window_seconds)?,
                    node_contact_rate: top.take_f64_or("node_contact_rate", d.node_contact_rate)?,
                    mean_contact_duration: top
                        .take_f64_or("mean_contact_duration", d.mean_contact_duration)?,
                    seed: top.take_u64_or("seed", d.seed)?,
                })
            }
            "heterogeneous" => {
                let d = HeterogeneousConfig::default();
                ScenarioConfig::Heterogeneous(HeterogeneousConfig {
                    nodes: top.take_usize_or("nodes", d.nodes)?,
                    window_seconds: top.take_f64_or("window_seconds", d.window_seconds)?,
                    max_node_rate: top.take_f64_or("max_node_rate", d.max_node_rate)?,
                    mean_contact_duration: top
                        .take_f64_or("mean_contact_duration", d.mean_contact_duration)?,
                    seed: top.take_u64_or("seed", d.seed)?,
                })
            }
            "community" => {
                let d = CommunityConfig::default();
                ScenarioConfig::Community(CommunityConfig {
                    name: top.take_string_or("name", d.name)?,
                    communities: top.take_usize_or("communities", d.communities)?,
                    nodes_per_community: top
                        .take_usize_or("nodes_per_community", d.nodes_per_community)?,
                    window_seconds: top.take_f64_or("window_seconds", d.window_seconds)?,
                    max_node_rate: top.take_f64_or("max_node_rate", d.max_node_rate)?,
                    intra_inter_ratio: top.take_f64_or("intra_inter_ratio", d.intra_inter_ratio)?,
                    mean_contact_duration: top
                        .take_f64_or("mean_contact_duration", d.mean_contact_duration)?,
                    contact_duration_cv: top
                        .take_f64_or("contact_duration_cv", d.contact_duration_cv)?,
                    seed: top.take_u64_or("seed", d.seed)?,
                })
            }
            "scaled" => {
                let d = ScaledConfig::default();
                ScenarioConfig::Scaled(ScaledConfig {
                    name: top.take_string_or("name", d.name)?,
                    nodes: top.take_usize_or("nodes", d.nodes)?,
                    window_seconds: top.take_f64_or("window_seconds", d.window_seconds)?,
                    max_node_rate: top.take_f64_or("max_node_rate", d.max_node_rate)?,
                    min_node_rate: top.take_f64_or("min_node_rate", d.min_node_rate)?,
                    mean_contact_duration: top
                        .take_f64_or("mean_contact_duration", d.mean_contact_duration)?,
                    seed: top.take_u64_or("seed", d.seed)?,
                })
            }
            other => {
                return Err(ScenarioError::new(format!(
                    "unknown scenario kind {other:?} (expected one of {:?})",
                    Self::kinds()
                )))
            }
        };
        top.finish()?;
        scenario.validate()?;
        Ok(scenario)
    }

    pub(crate) fn to_doc(&self) -> doc::Table {
        let mut top = doc::Table::new("scenario");
        top.set_string("kind", self.kind());
        match self {
            ScenarioConfig::Conference(c) => {
                top.set_string("name", &c.name);
                top.set_u64("mobile_nodes", c.mobile_nodes as u64);
                top.set_u64("stationary_nodes", c.stationary_nodes as u64);
                top.set_f64("window_seconds", c.window_seconds);
                top.set_f64("max_node_rate", c.max_node_rate);
                top.set_f64("min_node_rate", c.min_node_rate);
                top.set_f64("stationary_rate_factor", c.stationary_rate_factor);
                top.set_f64("mean_contact_duration", c.mean_contact_duration);
                top.set_f64("contact_duration_cv", c.contact_duration_cv);
                if let Some(p) = c.inquiry_scan_period {
                    top.set_f64("inquiry_scan_period", p);
                }
                top.set_u64("seed", c.seed);
                top.set_table("activity", activity_to_table(&c.activity));
            }
            ScenarioConfig::Homogeneous(c) => {
                top.set_u64("nodes", c.nodes as u64);
                top.set_f64("window_seconds", c.window_seconds);
                top.set_f64("node_contact_rate", c.node_contact_rate);
                top.set_f64("mean_contact_duration", c.mean_contact_duration);
                top.set_u64("seed", c.seed);
            }
            ScenarioConfig::Heterogeneous(c) => {
                top.set_u64("nodes", c.nodes as u64);
                top.set_f64("window_seconds", c.window_seconds);
                top.set_f64("max_node_rate", c.max_node_rate);
                top.set_f64("mean_contact_duration", c.mean_contact_duration);
                top.set_u64("seed", c.seed);
            }
            ScenarioConfig::Community(c) => {
                top.set_string("name", &c.name);
                top.set_u64("communities", c.communities as u64);
                top.set_u64("nodes_per_community", c.nodes_per_community as u64);
                top.set_f64("window_seconds", c.window_seconds);
                top.set_f64("max_node_rate", c.max_node_rate);
                top.set_f64("intra_inter_ratio", c.intra_inter_ratio);
                top.set_f64("mean_contact_duration", c.mean_contact_duration);
                top.set_f64("contact_duration_cv", c.contact_duration_cv);
                top.set_u64("seed", c.seed);
            }
            ScenarioConfig::Scaled(c) => {
                top.set_string("name", &c.name);
                top.set_u64("nodes", c.nodes as u64);
                top.set_f64("window_seconds", c.window_seconds);
                top.set_f64("max_node_rate", c.max_node_rate);
                top.set_f64("min_node_rate", c.min_node_rate);
                top.set_f64("mean_contact_duration", c.mean_contact_duration);
                top.set_u64("seed", c.seed);
            }
        }
        top
    }
}

impl From<crate::datasets::SyntheticDataset> for ScenarioConfig {
    fn from(ds: crate::datasets::SyntheticDataset) -> Self {
        ScenarioConfig::Conference(ds.config)
    }
}

fn activity_from_table(mut t: doc::Table) -> Result<ActivityProfile, ScenarioError> {
    let profile = t.take_string("profile")?;
    let activity = match profile.as_str() {
        "constant" => ActivityProfile::Constant,
        "piecewise" => ActivityProfile::Piecewise(t.take_f64_array("factors")?),
        "tail_dropoff" => ActivityProfile::TailDropoff {
            dropoff_seconds: t.take_f64("dropoff_seconds")?,
            final_fraction: t.take_f64("final_fraction")?,
        },
        other => {
            return Err(ScenarioError::new(format!(
                "unknown activity profile {other:?} (expected \"constant\", \"piecewise\" or \"tail_dropoff\")"
            )))
        }
    };
    t.finish()?;
    Ok(activity)
}

fn activity_to_table(activity: &ActivityProfile) -> doc::Table {
    let mut t = doc::Table::new("activity");
    match activity {
        ActivityProfile::Constant => t.set_string("profile", "constant"),
        ActivityProfile::Piecewise(factors) => {
            t.set_string("profile", "piecewise");
            t.set_f64_array("factors", factors.clone());
        }
        ActivityProfile::TailDropoff { dropoff_seconds, final_fraction } => {
            t.set_string("profile", "tail_dropoff");
            t.set_f64("dropoff_seconds", *dropoff_seconds);
            t.set_f64("final_fraction", *final_fraction);
        }
    }
    t
}

/// The shared document model behind the TOML and JSON frontends: ordered
/// key → value maps with one level of table nesting, exactly what flat
/// generator configs need. Crate-visible so the sweep-spec parser
/// ([`crate::sweep`]) reuses the same frontends.
pub(crate) mod doc {
    use super::ScenarioError;
    use std::collections::BTreeMap;

    /// A parsed scalar, array or nested table.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// Integer literal (no decimal point or exponent).
        Int(u64),
        /// Floating-point literal.
        Num(f64),
        /// Quoted string.
        Str(String),
        /// Array of numbers (used by piecewise activity factors).
        Arr(Vec<f64>),
        /// Nested table (`[section]` in TOML, nested object in JSON).
        Table(Table),
    }

    /// An ordered key → value map plus the insertion order (so writers emit
    /// fields in the order the scenario code set them, not alphabetically).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct Table {
        context: String,
        entries: BTreeMap<String, Value>,
        order: Vec<String>,
    }

    impl Table {
        pub fn new(context: &str) -> Self {
            Self { context: context.to_string(), entries: BTreeMap::new(), order: Vec::new() }
        }

        fn insert(&mut self, key: &str, value: Value) {
            if self.entries.insert(key.to_string(), value).is_none() {
                self.order.push(key.to_string());
            }
        }

        pub fn set_string(&mut self, key: &str, value: &str) {
            self.insert(key, Value::Str(value.to_string()));
        }
        pub fn set_u64(&mut self, key: &str, value: u64) {
            self.insert(key, Value::Int(value));
        }
        pub fn set_f64(&mut self, key: &str, value: f64) {
            self.insert(key, Value::Num(value));
        }
        pub fn set_f64_array(&mut self, key: &str, value: Vec<f64>) {
            self.insert(key, Value::Arr(value));
        }
        pub fn set_table(&mut self, key: &str, value: Table) {
            self.insert(key, Value::Table(value));
        }

        fn take(&mut self, key: &str) -> Option<Value> {
            let v = self.entries.remove(key);
            if v.is_some() {
                self.order.retain(|k| k != key);
            }
            v
        }

        /// Looks a value up without consuming it.
        pub fn get(&self, key: &str) -> Option<&Value> {
            self.entries.get(key)
        }

        /// Iterates entries in sorted key order — the canonical traversal
        /// the fingerprint module hashes, independent of insertion or
        /// source order.
        pub fn entries_sorted(&self) -> impl Iterator<Item = (&String, &Value)> {
            self.entries.iter()
        }

        /// Drains every remaining entry in insertion order (used for
        /// open-schema tables like a sweep's `[axes]`).
        pub fn take_all(mut self) -> Vec<(String, Value)> {
            let order = std::mem::take(&mut self.order);
            order
                .into_iter()
                .map(|key| {
                    let value = self
                        .entries
                        .remove(&key)
                        .unwrap_or_else(|| unreachable!("order tracks entries"));
                    (key, value)
                })
                .collect()
        }

        fn missing(&self, key: &str) -> ScenarioError {
            ScenarioError::new(format!("{}: missing required field {key:?}", self.context))
        }

        fn type_error(&self, key: &str, expected: &str, got: &Value) -> ScenarioError {
            ScenarioError::new(format!(
                "{}: field {key:?} must be {expected}, got {got:?}",
                self.context
            ))
        }

        pub fn take_string(&mut self, key: &str) -> Result<String, ScenarioError> {
            match self.take(key) {
                Some(Value::Str(s)) => Ok(s),
                Some(v) => Err(self.type_error(key, "a string", &v)),
                None => Err(self.missing(key)),
            }
        }

        pub fn take_string_or(
            &mut self,
            key: &str,
            default: String,
        ) -> Result<String, ScenarioError> {
            match self.take(key) {
                Some(Value::Str(s)) => Ok(s),
                Some(v) => Err(self.type_error(key, "a string", &v)),
                None => Ok(default),
            }
        }

        pub fn take_string_opt(&mut self, key: &str) -> Result<Option<String>, ScenarioError> {
            match self.take(key) {
                Some(Value::Str(s)) => Ok(Some(s)),
                Some(v) => Err(self.type_error(key, "a string", &v)),
                None => Ok(None),
            }
        }

        pub fn take_f64_array_or(
            &mut self,
            key: &str,
            default: Vec<f64>,
        ) -> Result<Vec<f64>, ScenarioError> {
            match self.take(key) {
                Some(Value::Arr(v)) => Ok(v),
                Some(v) => Err(self.type_error(key, "an array of numbers", &v)),
                None => Ok(default),
            }
        }

        pub fn take_table(&mut self, key: &str) -> Result<Table, ScenarioError> {
            match self.take(key) {
                Some(Value::Table(t)) => Ok(t),
                Some(v) => Err(self.type_error(key, "a table", &v)),
                None => Err(self.missing(key)),
            }
        }

        pub fn take_u64_or(&mut self, key: &str, default: u64) -> Result<u64, ScenarioError> {
            match self.take(key) {
                Some(Value::Int(v)) => Ok(v),
                Some(v) => Err(self.type_error(key, "an integer", &v)),
                None => Ok(default),
            }
        }

        pub fn take_usize_or(&mut self, key: &str, default: usize) -> Result<usize, ScenarioError> {
            let v = self.take_u64_or(key, default as u64)?;
            usize::try_from(v).map_err(|_| {
                ScenarioError::new(format!("{}: field {key:?} is too large", self.context))
            })
        }

        pub fn take_f64(&mut self, key: &str) -> Result<f64, ScenarioError> {
            match self.take(key) {
                Some(Value::Num(v)) => Ok(v),
                Some(Value::Int(v)) => Ok(v as f64),
                Some(v) => Err(self.type_error(key, "a number", &v)),
                None => Err(self.missing(key)),
            }
        }

        pub fn take_f64_or(&mut self, key: &str, default: f64) -> Result<f64, ScenarioError> {
            match self.take(key) {
                Some(Value::Num(v)) => Ok(v),
                Some(Value::Int(v)) => Ok(v as f64),
                Some(v) => Err(self.type_error(key, "a number", &v)),
                None => Ok(default),
            }
        }

        pub fn take_f64_opt(&mut self, key: &str) -> Result<Option<f64>, ScenarioError> {
            match self.take(key) {
                Some(Value::Num(v)) => Ok(Some(v)),
                Some(Value::Int(v)) => Ok(Some(v as f64)),
                Some(v) => Err(self.type_error(key, "a number", &v)),
                None => Ok(None),
            }
        }

        pub fn take_f64_array(&mut self, key: &str) -> Result<Vec<f64>, ScenarioError> {
            match self.take(key) {
                Some(Value::Arr(v)) => Ok(v),
                Some(v) => Err(self.type_error(key, "an array of numbers", &v)),
                None => Err(self.missing(key)),
            }
        }

        pub fn take_table_opt(&mut self, key: &str) -> Option<Table> {
            match self.take(key) {
                Some(Value::Table(t)) => Some(t),
                Some(other) => {
                    // Put it back so `finish` reports it as unexpected.
                    self.insert(key, other);
                    None
                }
                None => None,
            }
        }

        /// Errors if any keys were never consumed — the typo guard.
        pub fn finish(self) -> Result<(), ScenarioError> {
            match self.order.first() {
                None => Ok(()),
                Some(first) => {
                    Err(ScenarioError::new(format!("{}: unknown field {first:?}", self.context)))
                }
            }
        }
    }

    /// Formats an `f64` in shortest round-trip form (Rust's `{:?}`), which
    /// both frontends parse back exactly.
    fn fmt_f64(v: f64) -> String {
        format!("{v:?}")
    }

    /// Escapes a string for emission; TOML basic strings and JSON share
    /// this escape set, so one helper serves both writers.
    fn escape_string(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                other => out.push(other),
            }
        }
        out
    }

    /// Reverses [`escape_string`].
    fn unescape_string(s: &str, context: &str) -> Result<String, ScenarioError> {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                other => {
                    return Err(ScenarioError::new(format!(
                        "{context}: unsupported string escape \\{}",
                        other.map(String::from).unwrap_or_default()
                    )))
                }
            }
        }
        Ok(out)
    }

    fn parse_number(text: &str, context: &str) -> Result<Value, ScenarioError> {
        let is_float = text.contains(['.', 'e', 'E', '-', '+']);
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| ScenarioError::new(format!("{context}: invalid number {text:?}")))
    }

    // ----- TOML frontend --------------------------------------------------

    /// Strips a trailing comment, respecting quoted strings (including
    /// escaped quotes inside them).
    fn strip_comment(line: &str) -> &str {
        let mut in_string = false;
        let mut escaped = false;
        for (i, ch) in line.char_indices() {
            if escaped {
                escaped = false;
                continue;
            }
            match ch {
                '\\' if in_string => escaped = true,
                '"' => in_string = !in_string,
                '#' if !in_string => return &line[..i],
                _ => {}
            }
        }
        line
    }

    fn parse_toml_value(text: &str, context: &str) -> Result<Value, ScenarioError> {
        let text = text.trim();
        if let Some(rest) = text.strip_prefix('"') {
            // Find the closing quote, honouring backslash escapes.
            let mut escaped = false;
            let mut end = None;
            for (i, c) in rest.char_indices() {
                if escaped {
                    escaped = false;
                    continue;
                }
                match c {
                    '\\' => escaped = true,
                    '"' => {
                        end = Some(i);
                        break;
                    }
                    _ => {}
                }
            }
            let end =
                end.ok_or_else(|| ScenarioError::new(format!("{context}: unterminated string")))?;
            if !rest[end + 1..].trim().is_empty() {
                return Err(ScenarioError::new(format!(
                    "{context}: trailing content after string"
                )));
            }
            return unescape_string(&rest[..end], context).map(Value::Str);
        }
        if let Some(inner) = text.strip_prefix('[') {
            let inner = inner
                .strip_suffix(']')
                .ok_or_else(|| ScenarioError::new(format!("{context}: unterminated array")))?
                .trim();
            if inner.is_empty() {
                return Ok(Value::Arr(Vec::new()));
            }
            let items = inner
                .split(',')
                .map(|item| match parse_number(item.trim(), context)? {
                    Value::Int(v) => Ok(v as f64),
                    Value::Num(v) => Ok(v),
                    _ => unreachable!("parse_number returns numbers"),
                })
                .collect::<Result<Vec<f64>, ScenarioError>>()?;
            return Ok(Value::Arr(items));
        }
        parse_number(text, context)
    }

    /// Parses the TOML subset: `key = value` lines, `# comments`, and one
    /// level of `[table]` sections.
    pub fn parse_toml(text: &str) -> Result<Table, ScenarioError> {
        let mut top = Table::new("scenario");
        let mut current: Option<(String, Table)> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let context = format!("line {}", lineno + 1);
            if let Some(section) = line.strip_prefix('[') {
                let name = section
                    .strip_suffix(']')
                    .ok_or_else(|| {
                        ScenarioError::new(format!("{context}: malformed section header {line:?}"))
                    })?
                    .trim();
                if let Some((key, table)) = current.take() {
                    top.set_table(&key, table);
                }
                current = Some((name.to_string(), Table::new(name)));
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                ScenarioError::new(format!("{context}: expected `key = value`, got {line:?}"))
            })?;
            let key = key.trim();
            if key.is_empty() {
                return Err(ScenarioError::new(format!("{context}: empty key")));
            }
            let value = parse_toml_value(value, &context)?;
            match &mut current {
                Some((_, table)) => table.insert(key, value),
                None => top.insert(key, value),
            }
        }
        if let Some((key, table)) = current.take() {
            top.set_table(&key, table);
        }
        Ok(top)
    }

    /// Emits one scalar `key = value` line of the TOML subset.
    fn write_toml_scalar(key: &str, value: &Value, out: &mut String) {
        match value {
            Value::Int(v) => out.push_str(&format!("{key} = {v}\n")),
            Value::Num(v) => out.push_str(&format!("{key} = {}\n", fmt_f64(*v))),
            Value::Str(v) => out.push_str(&format!("{key} = \"{}\"\n", escape_string(v))),
            Value::Arr(v) => {
                let items: Vec<String> = v.iter().map(|x| fmt_f64(*x)).collect();
                out.push_str(&format!("{key} = [{}]\n", items.join(", ")));
            }
            Value::Table(_) => unreachable!("tables are emitted as sections"),
        }
    }

    /// Writes a table in the TOML subset (scalars first, then sections).
    pub fn write_toml(table: &Table) -> String {
        let mut out = String::new();
        let mut sections = Vec::new();
        for key in &table.order {
            match &table.entries[key] {
                Value::Table(t) => sections.push((key, t)),
                scalar => write_toml_scalar(key, scalar, &mut out),
            }
        }
        for (key, t) in sections {
            out.push_str(&format!("\n[{key}]\n"));
            for inner_key in &t.order {
                write_toml_scalar(inner_key, &t.entries[inner_key], &mut out);
            }
        }
        out
    }

    // ----- JSON frontend --------------------------------------------------

    struct JsonParser<'a> {
        chars: std::iter::Peekable<std::str::CharIndices<'a>>,
        text: &'a str,
    }

    impl<'a> JsonParser<'a> {
        fn new(text: &'a str) -> Self {
            Self { chars: text.char_indices().peekable(), text }
        }

        fn error(&mut self, message: &str) -> ScenarioError {
            let at = self.chars.peek().map(|&(i, _)| i).unwrap_or(self.text.len());
            ScenarioError::new(format!("json offset {at}: {message}"))
        }

        fn skip_ws(&mut self) {
            while matches!(self.chars.peek(), Some(&(_, c)) if c.is_whitespace()) {
                self.chars.next();
            }
        }

        fn expect(&mut self, want: char) -> Result<(), ScenarioError> {
            self.skip_ws();
            match self.chars.next() {
                Some((_, c)) if c == want => Ok(()),
                _ => Err(self.error(&format!("expected {want:?}"))),
            }
        }

        fn peek(&mut self) -> Option<char> {
            self.skip_ws();
            self.chars.peek().map(|&(_, c)| c)
        }

        fn parse_string(&mut self) -> Result<String, ScenarioError> {
            self.expect('"')?;
            let mut out = String::new();
            loop {
                match self.chars.next() {
                    Some((_, '"')) => return Ok(out),
                    Some((_, '\\')) => match self.chars.next() {
                        Some((_, '"')) => out.push('"'),
                        Some((_, '\\')) => out.push('\\'),
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, 't')) => out.push('\t'),
                        Some((_, 'r')) => out.push('\r'),
                        _ => return Err(self.error("unsupported string escape")),
                    },
                    Some((_, c)) => out.push(c),
                    None => return Err(self.error("unterminated string")),
                }
            }
        }

        fn parse_scalar_number(&mut self) -> Result<Value, ScenarioError> {
            self.skip_ws();
            let start = match self.chars.peek() {
                Some(&(i, _)) => i,
                None => return Err(self.error("expected a number")),
            };
            let mut end = start;
            while let Some(&(i, c)) = self.chars.peek() {
                if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                    end = i + c.len_utf8();
                    self.chars.next();
                } else {
                    break;
                }
            }
            parse_number(&self.text[start..end], "json")
        }

        fn parse_table(&mut self, context: &str) -> Result<Table, ScenarioError> {
            self.expect('{')?;
            let mut table = Table::new(context);
            if self.peek() == Some('}') {
                self.chars.next();
                return Ok(table);
            }
            loop {
                self.skip_ws();
                let key = self.parse_string()?;
                self.expect(':')?;
                let value = self.parse_value(&key)?;
                table.insert(&key, value);
                match self.peek() {
                    Some(',') => {
                        self.chars.next();
                    }
                    Some('}') => {
                        self.chars.next();
                        return Ok(table);
                    }
                    _ => return Err(self.error("expected ',' or '}'")),
                }
            }
        }

        fn parse_value(&mut self, context: &str) -> Result<Value, ScenarioError> {
            match self.peek() {
                Some('{') => Ok(Value::Table(self.parse_table(context)?)),
                Some('"') => Ok(Value::Str(self.parse_string()?)),
                Some('[') => {
                    self.chars.next();
                    let mut items = Vec::new();
                    if self.peek() == Some(']') {
                        self.chars.next();
                        return Ok(Value::Arr(items));
                    }
                    loop {
                        let item = match self.parse_scalar_number()? {
                            Value::Int(v) => v as f64,
                            Value::Num(v) => v,
                            _ => unreachable!("parse_scalar_number returns numbers"),
                        };
                        items.push(item);
                        match self.peek() {
                            Some(',') => {
                                self.chars.next();
                            }
                            Some(']') => {
                                self.chars.next();
                                return Ok(Value::Arr(items));
                            }
                            _ => return Err(self.error("expected ',' or ']'")),
                        }
                    }
                }
                _ => self.parse_scalar_number(),
            }
        }
    }

    /// Parses a JSON object into the shared document model.
    pub fn parse_json(text: &str) -> Result<Table, ScenarioError> {
        let mut parser = JsonParser::new(text);
        let table = parser.parse_table("scenario")?;
        parser.skip_ws();
        if parser.chars.next().is_some() {
            return Err(ScenarioError::new("json: trailing content after the object"));
        }
        Ok(table)
    }

    fn write_json_table(table: &Table, indent: usize, out: &mut String) {
        out.push_str("{\n");
        let pad = "  ".repeat(indent + 1);
        for (i, key) in table.order.iter().enumerate() {
            out.push_str(&pad);
            out.push_str(&format!("\"{key}\": "));
            match &table.entries[key] {
                Value::Int(v) => out.push_str(&v.to_string()),
                Value::Num(v) => out.push_str(&fmt_f64(*v)),
                Value::Str(v) => out.push_str(&format!("\"{}\"", escape_string(v))),
                Value::Arr(v) => {
                    let items: Vec<String> = v.iter().map(|x| fmt_f64(*x)).collect();
                    out.push_str(&format!("[{}]", items.join(", ")));
                }
                Value::Table(t) => write_json_table(t, indent + 1, out),
            }
            if i + 1 < table.order.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&"  ".repeat(indent));
        out.push('}');
    }

    /// Writes a table as pretty-printed JSON.
    pub fn write_json(table: &Table) -> String {
        let mut out = String::new();
        write_json_table(table, 0, &mut out);
        out.push('\n');
        out
    }
}

/// A validated collection of scenarios with unique names — what the
/// `psn-study` CLI builds from its `--config` files before handing the
/// scenarios to the study pipeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSet {
    scenarios: Vec<ScenarioConfig>,
}

impl ScenarioSet {
    /// Creates a set from scenarios, rejecting duplicate names (sections in
    /// study reports are keyed by scenario name).
    pub fn new(scenarios: Vec<ScenarioConfig>) -> Result<Self, ScenarioError> {
        let mut seen = BTreeMap::new();
        for s in &scenarios {
            if let Some(prev) = seen.insert(s.name(), s.kind()) {
                return Err(ScenarioError::new(format!(
                    "duplicate scenario name {:?} ({} and {})",
                    s.name(),
                    prev,
                    s.kind()
                )));
            }
        }
        Ok(Self { scenarios })
    }

    /// The scenarios in insertion order.
    pub fn scenarios(&self) -> &[ScenarioConfig] {
        &self.scenarios
    }

    /// Number of scenarios in the set.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True if the set holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::datasets::{DatasetId, SyntheticDataset};
    use proptest::prelude::*;

    fn all_default_scenarios() -> Vec<ScenarioConfig> {
        vec![
            ScenarioConfig::Conference(ConferenceConfig::default()),
            ScenarioConfig::Homogeneous(HomogeneousConfig::default()),
            ScenarioConfig::Heterogeneous(HeterogeneousConfig::default()),
            ScenarioConfig::Community(CommunityConfig::default()),
            ScenarioConfig::Scaled(ScaledConfig::default()),
        ]
    }

    #[test]
    fn every_family_round_trips_through_toml_and_json() {
        for scenario in all_default_scenarios() {
            let toml = scenario.to_toml_string();
            let from_toml = ScenarioConfig::from_toml_str(&toml).expect("written toml reparses");
            assert_eq!(from_toml, scenario, "toml:\n{toml}");

            let json = scenario.to_json_string();
            let from_json = ScenarioConfig::from_json_str(&json).expect("written json reparses");
            assert_eq!(from_json, scenario, "json:\n{json}");
        }
    }

    #[test]
    fn auto_detection_dispatches_on_leading_brace() {
        let scenario = ScenarioConfig::Scaled(ScaledConfig::default());
        assert_eq!(ScenarioConfig::from_config_str(&scenario.to_toml_string()).unwrap(), scenario);
        assert_eq!(ScenarioConfig::from_config_str(&scenario.to_json_string()).unwrap(), scenario);
    }

    #[test]
    fn paper_datasets_convert_to_conference_scenarios() {
        for id in DatasetId::all() {
            let ds = SyntheticDataset::paper_config(id);
            let scenario: ScenarioConfig = ds.clone().into();
            assert_eq!(scenario.kind(), "conference");
            assert_eq!(scenario.name(), ds.config.name);
            assert_eq!(scenario.node_count(), 98);
            // The scenario generates the same trace as the dataset it wraps.
            let via_scenario = ScenarioConfig::from(SyntheticDataset::quick_config(id)).generate();
            let direct = SyntheticDataset::quick_config(id).generate();
            assert_eq!(via_scenario.contacts(), direct.contacts());
        }
    }

    #[test]
    fn missing_fields_fall_back_to_defaults() {
        let scenario = ScenarioConfig::from_toml_str("kind = \"homogeneous\"\nnodes = 17\n")
            .expect("partial config parses");
        match scenario {
            ScenarioConfig::Homogeneous(c) => {
                assert_eq!(c.nodes, 17);
                assert_eq!(c.seed, HomogeneousConfig::default().seed);
            }
            other => panic!("wrong family: {other:?}"),
        }
    }

    #[test]
    fn unknown_fields_and_kinds_are_rejected() {
        let err = ScenarioConfig::from_toml_str("kind = \"homogeneous\"\nnodez = 17\n")
            .expect_err("typo must be rejected");
        assert!(err.to_string().contains("nodez"), "{err}");

        let err = ScenarioConfig::from_toml_str("kind = \"galactic\"\n")
            .expect_err("unknown kind must be rejected");
        assert!(err.to_string().contains("galactic"), "{err}");

        let err =
            ScenarioConfig::from_toml_str("nodes = 5\n").expect_err("kind is always required");
        assert!(err.to_string().contains("kind"), "{err}");
    }

    /// Parses `toml`, expecting the range check to reject it with a
    /// message naming `field`.
    fn rejected(toml: &str, field: &str) {
        let err = ScenarioConfig::from_toml_str(toml).expect_err(toml);
        assert!(err.to_string().contains(&format!("{field:?}")), "{toml}: {err}");
    }

    #[test]
    fn homogeneous_out_of_range_configs_are_rejected() {
        rejected("kind = \"homogeneous\"\nnodes = 1\n", "nodes");
        rejected("kind = \"homogeneous\"\nwindow_seconds = 0\n", "window_seconds");
        rejected("kind = \"homogeneous\"\nwindow_seconds = -10\n", "window_seconds");
        rejected("kind = \"homogeneous\"\nnode_contact_rate = 0\n", "node_contact_rate");
        rejected("kind = \"homogeneous\"\nmean_contact_duration = 0\n", "mean_contact_duration");
    }

    #[test]
    fn heterogeneous_out_of_range_configs_are_rejected() {
        rejected("kind = \"heterogeneous\"\nnodes = 1\n", "nodes");
        rejected("kind = \"heterogeneous\"\nwindow_seconds = -10\n", "window_seconds");
        rejected("kind = \"heterogeneous\"\nmax_node_rate = 0\n", "max_node_rate");
    }

    #[test]
    fn community_out_of_range_configs_are_rejected() {
        rejected("kind = \"community\"\ncommunities = 0\n", "communities");
        rejected("kind = \"community\"\nnodes_per_community = 0\n", "nodes_per_community");
        rejected(
            "kind = \"community\"\ncommunities = 1\nnodes_per_community = 1\n",
            "nodes_per_community",
        );
        rejected("kind = \"community\"\nintra_inter_ratio = 0.5\n", "intra_inter_ratio");
        rejected("kind = \"community\"\ncontact_duration_cv = -1\n", "contact_duration_cv");
    }

    #[test]
    fn scaled_out_of_range_configs_are_rejected() {
        rejected("kind = \"scaled\"\nnodes = 1\n", "nodes");
        rejected("kind = \"scaled\"\nmin_node_rate = 5\nmax_node_rate = 1\n", "min_node_rate");
        rejected("kind = \"scaled\"\nmax_node_rate = 0\n", "max_node_rate");
    }

    #[test]
    fn conference_out_of_range_configs_are_rejected() {
        rejected("kind = \"conference\"\nmobile_nodes = 1\nstationary_nodes = 0\n", "mobile_nodes");
        rejected("kind = \"conference\"\nwindow_seconds = 0\n", "window_seconds");
        rejected("kind = \"conference\"\ninquiry_scan_period = 0\n", "inquiry_scan_period");
    }

    #[test]
    fn json_and_sweep_cells_are_range_checked_too() {
        let err = ScenarioConfig::from_json_str(r#"{"kind": "homogeneous", "nodes": 1}"#)
            .expect_err("json goes through the same check");
        assert!(err.to_string().contains("\"nodes\""), "{err}");
        let base = ScenarioConfig::Homogeneous(HomogeneousConfig::default());
        let err = base.with_field("nodes", 1.0).expect_err("sweep cells too");
        assert!(err.to_string().contains("\"nodes\""), "{err}");
        assert!(base.with_field("nodes", 2.0).is_ok());
        // Every shipped default passes its own generator's ranges.
        for config in all_default_scenarios() {
            assert_eq!(config.validate(), Ok(()), "{}", config.kind());
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let toml = r#"
# the workload family
kind = "heterogeneous"   # inline comment
nodes = 98

max_node_rate = 0.05
"#;
        let scenario = ScenarioConfig::from_toml_str(toml).unwrap();
        assert_eq!(scenario.kind(), "heterogeneous");
        assert_eq!(scenario.node_count(), 98);
    }

    #[test]
    fn activity_profiles_round_trip() {
        for activity in [
            ActivityProfile::Constant,
            ActivityProfile::Piecewise(vec![1.0, 1.3, 0.9]),
            ActivityProfile::TailDropoff { dropoff_seconds: 1800.0, final_fraction: 0.35 },
        ] {
            let scenario = ScenarioConfig::Conference(ConferenceConfig {
                activity: activity.clone(),
                ..ConferenceConfig::default()
            });
            let reparsed = ScenarioConfig::from_toml_str(&scenario.to_toml_string()).unwrap();
            assert_eq!(reparsed, scenario, "activity {activity:?}");
            let reparsed = ScenarioConfig::from_json_str(&scenario.to_json_string()).unwrap();
            assert_eq!(reparsed, scenario, "activity {activity:?} (json)");
        }
    }

    #[test]
    fn names_with_quotes_newlines_and_hashes_round_trip() {
        for name in [
            "say \"hi\"",
            "line\nbreak",
            "tab\there",
            "cr\rhere",
            "back\\slash",
            "trailing # not a comment",
        ] {
            let scenario = ScenarioConfig::Scaled(ScaledConfig {
                name: name.to_string(),
                ..ScaledConfig::default()
            });
            let toml = scenario.to_toml_string();
            assert_eq!(
                ScenarioConfig::from_toml_str(&toml).expect("escaped toml reparses"),
                scenario,
                "toml:\n{toml}"
            );
            let json = scenario.to_json_string();
            assert_eq!(
                ScenarioConfig::from_json_str(&json).expect("escaped json reparses"),
                scenario,
                "json:\n{json}"
            );
        }
    }

    #[test]
    fn scenario_set_rejects_duplicate_names() {
        let a = ScenarioConfig::Scaled(ScaledConfig::default());
        let b = ScenarioConfig::Scaled(ScaledConfig { seed: 9, ..ScaledConfig::default() });
        let err = ScenarioSet::new(vec![a.clone(), b]).expect_err("same name");
        assert!(err.to_string().contains("duplicate"), "{err}");
        let ok = ScenarioSet::new(vec![a]).unwrap();
        assert_eq!(ok.len(), 1);
        assert!(!ok.is_empty());
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        for scenario in all_default_scenarios() {
            let reseeded = scenario.with_seed(0xABCD);
            assert_eq!(reseeded.seed(), 0xABCD);
            assert_eq!(reseeded.kind(), scenario.kind());
            assert_eq!(reseeded.node_count(), scenario.node_count());
        }
    }

    /// Builds an arbitrary scenario from plain sampled numbers — the
    /// vendored proptest has no enum strategies, so variant choice is an
    /// index.
    fn scenario_from_parts(
        variant: usize,
        nodes: usize,
        window: f64,
        rate: f64,
        seed: u64,
        factors: Vec<f64>,
        activity_kind: usize,
    ) -> ScenarioConfig {
        match variant % 5 {
            0 => ScenarioConfig::Conference(ConferenceConfig {
                name: format!("conf-{seed}"),
                mobile_nodes: nodes,
                stationary_nodes: nodes / 3 + 1,
                window_seconds: window,
                max_node_rate: rate,
                min_node_rate: rate / 50.0,
                stationary_rate_factor: 1.2,
                mean_contact_duration: 120.0,
                contact_duration_cv: 1.0,
                activity: match activity_kind % 3 {
                    0 => ActivityProfile::Constant,
                    1 => ActivityProfile::Piecewise(factors),
                    _ => ActivityProfile::TailDropoff {
                        dropoff_seconds: window / 4.0,
                        final_fraction: 0.35,
                    },
                },
                inquiry_scan_period: if seed.is_multiple_of(2) { Some(120.0) } else { None },
                seed,
            }),
            1 => ScenarioConfig::Homogeneous(HomogeneousConfig {
                nodes,
                window_seconds: window,
                node_contact_rate: rate,
                mean_contact_duration: 90.0,
                seed,
            }),
            2 => ScenarioConfig::Heterogeneous(HeterogeneousConfig {
                nodes,
                window_seconds: window,
                max_node_rate: rate,
                mean_contact_duration: 90.0,
                seed,
            }),
            3 => ScenarioConfig::Community(CommunityConfig {
                name: format!("community-{seed}"),
                communities: variant % 7 + 1,
                nodes_per_community: nodes,
                window_seconds: window,
                max_node_rate: rate,
                intra_inter_ratio: 1.0 + (seed % 16) as f64,
                mean_contact_duration: 100.0,
                contact_duration_cv: 0.8,
                seed,
            }),
            _ => ScenarioConfig::Scaled(ScaledConfig {
                name: format!("scaled-{seed}"),
                nodes: nodes * 10,
                window_seconds: window,
                max_node_rate: rate,
                min_node_rate: rate / 60.0,
                mean_contact_duration: 110.0,
                seed,
            }),
        }
    }

    proptest! {
        #[test]
        fn any_scenario_round_trips_through_both_formats(
            variant in 0usize..5,
            nodes in 2usize..200,
            window in 60.0f64..20_000.0,
            rate in 1e-4f64..0.5,
            seed in 0u64..u64::MAX,
            factors in proptest::collection::vec(0.05f64..3.0, 1..6),
            activity_kind in 0usize..3,
        ) {
            let scenario =
                scenario_from_parts(variant, nodes, window, rate, seed, factors, activity_kind);
            let toml = scenario.to_toml_string();
            prop_assert_eq!(
                ScenarioConfig::from_toml_str(&toml).expect("toml reparses"),
                scenario.clone(),
                "toml:\n{}",
                toml
            );
            let json = scenario.to_json_string();
            prop_assert_eq!(
                ScenarioConfig::from_json_str(&json).expect("json reparses"),
                scenario,
                "json:\n{}",
                json
            );
        }

        #[test]
        fn generation_is_deterministic_per_seed_across_families(
            variant in 0usize..5,
            seed in 0u64..1_000_000,
        ) {
            // Small populations/windows keep the property cheap while still
            // covering every family.
            let scenario = scenario_from_parts(variant, 6, 400.0, 0.05, seed, vec![1.0], 0);
            let a = scenario.generate();
            let b = scenario.generate();
            prop_assert_eq!(a.contacts(), b.contacts());
            prop_assert_eq!(a.node_count(), b.node_count());

            // A different seed must not reproduce the same contact list
            // (unless both are empty, which the rates above make unlikely —
            // but guard it anyway).
            let other = scenario.with_seed(seed ^ 0x5A5A_5A5A).generate();
            if !a.is_empty() || !other.is_empty() {
                prop_assert!(
                    a.contacts() != other.contacts(),
                    "different seeds must give different traces"
                );
            }
        }
    }
}
