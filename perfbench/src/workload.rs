//! The four benchmark workloads and the setup every mode shares: loading
//! the scenario, applying the seed, building and validating the plan, and
//! creating the store.

use psn::study::{StudyParams, StudyScenario};
use psn::{ArtifactStore, ExperimentProfile, StudyId, StudyPlan, StudySpec};
use psn_spacetime::{MessageGenerator, MessageWorkloadConfig};
use psn_trace::ScenarioConfig;

/// One named workload: a scenario file plus the `psn-study run` flags it
/// stands for.
pub struct Workload {
    pub name: &'static str,
    pub config_path: &'static str,
    pub study: StudyId,
    pub profile: ExperimentProfile,
    pub messages: Option<usize>,
    pub k: Option<usize>,
    /// Overrides the scenario's `window_seconds` via `with_field`.
    pub window_seconds: Option<f64>,
    /// Hot window of the streaming engine; `None` runs materialized.
    pub streaming_window: Option<usize>,
    /// What `work_per_s` counts.
    pub work_unit: &'static str,
    /// Whether `--seed` draws the forwarding message workload. Workloads
    /// whose cost is set by a handful of enumerated messages keep their
    /// study's draw: per-message enumeration cost is so heavy-tailed that
    /// the seed, not the code, would set the run's cost.
    pub seeded: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-forwarding",
        config_path: "scenarios/infocom_morning.toml",
        study: StudyId::Forwarding,
        profile: ExperimentProfile::Paper,
        messages: None,
        k: None,
        window_seconds: None,
        streaming_window: None,
        work_unit: "message-simulations",
        seeded: true,
    },
    Workload {
        name: "paper-explosion",
        config_path: "scenarios/infocom_morning.toml",
        study: StudyId::Explosion,
        profile: ExperimentProfile::Paper,
        messages: Some(16),
        k: None,
        window_seconds: None,
        streaming_window: None,
        work_unit: "messages-enumerated",
        seeded: false,
    },
    Workload {
        name: "stream-forwarding",
        config_path: "scenarios/infocom_morning.toml",
        study: StudyId::Forwarding,
        profile: ExperimentProfile::Quick,
        messages: None,
        k: None,
        window_seconds: None,
        streaming_window: Some(64),
        work_unit: "message-simulations",
        seeded: true,
    },
    Workload {
        name: "ingest-long",
        config_path: "scenarios/scaled_1k.toml",
        study: StudyId::PathsTaken,
        profile: ExperimentProfile::Quick,
        messages: Some(2),
        k: Some(10),
        window_seconds: Some(36_000.0),
        streaming_window: Some(64),
        work_unit: "contacts-ingested",
        seeded: false,
    },
];

/// Which engine a plan runs on.
#[derive(Clone, Copy)]
pub enum Engine {
    /// The workload's own engine, the one that is timed.
    Measured,
    /// The other engine, used only for the reference digest: materialized
    /// for streaming workloads, and for materialized workloads streaming
    /// with a window larger than the slot count.
    Reference,
}

/// Everything the pipeline needs before its first layer call.
pub struct Setup {
    pub config: ScenarioConfig,
    pub plan: StudyPlan,
    pub store: ArtifactStore,
    pub threads: usize,
}

impl Workload {
    pub fn find(name: &str) -> Result<&'static Workload, String> {
        WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?} (known: {})", names.join(", "))
        })
    }

    /// Loads the scenario file, applies the field override, seeds the
    /// message workload (an unseeded workload keeps the study's own
    /// seeds), plans the study and creates a fresh in-memory store.
    pub fn setup(&self, seed: u64, threads: usize, engine: Engine) -> Result<Setup, String> {
        let mut config = ScenarioConfig::from_path(std::path::Path::new(self.config_path))
            .map_err(|e| format!("{}: {e}", self.config_path))?;
        if let Some(window) = self.window_seconds {
            config = config.with_field("window_seconds", window).map_err(|e| e.to_string())?;
        }
        let mut params = StudyParams::for_profile(self.profile).with_threads(threads);
        if self.seeded {
            params.workload_seed = seed;
        }
        if let Some(k) = self.k {
            params = params.with_k(k);
        }
        if let Some(messages) = self.messages {
            params = params.with_messages(messages);
        }
        let window = match engine {
            Engine::Measured => self.streaming_window,
            Engine::Reference if self.streaming_window.is_some() => None,
            Engine::Reference => Some((config.window_seconds() / params.delta).ceil() as usize + 1),
        };
        params = params.with_streaming_window(window);
        let spec = StudySpec::new(self.study, vec![StudyScenario::from(config.clone())], params);
        let plan = spec.plan().map_err(|e| e.to_string())?;
        Ok(Setup { config, plan, store: ArtifactStore::in_memory(), threads })
    }
}

impl Setup {
    pub fn params(&self) -> &StudyParams {
        &self.plan.params
    }

    /// The forwarding workload the study derives from the scenario, with
    /// its horizon capped at two thirds of the window as the study does.
    pub fn forwarding_workload(&self) -> MessageWorkloadConfig {
        let p = self.params();
        let cap = (self.config.window_seconds() * 2.0 / 3.0).max(1.0);
        MessageWorkloadConfig {
            nodes: self.config.node_count(),
            generation_horizon: p.workload_horizon.map_or(cap, |h| h.min(cap)),
            mean_interarrival: p.workload_interarrival,
            seed: p.workload_seed,
        }
    }

    /// The uniformly drawn messages of the explosion (`seed` =
    /// `enumeration_message_seed`) or paths-taken (`paths_taken_seed`)
    /// workload.
    pub fn uniform_messages(&self, seed: u64, count: usize) -> Vec<psn_spacetime::Message> {
        let window = self.config.window_seconds();
        MessageGenerator::new(MessageWorkloadConfig {
            nodes: self.config.node_count(),
            generation_horizon: (window * 2.0 / 3.0).max(1.0),
            mean_interarrival: 4.0,
            seed,
        })
        .uniform_messages(count)
    }

    /// Message-simulations of the forwarding study: messages of every run
    /// times the six algorithms.
    pub fn forwarding_message_sims(&self) -> u64 {
        let generator = MessageGenerator::new(self.forwarding_workload());
        let per_algorithm: usize = (0..self.params().simulation_runs as u64)
            .map(|run| generator.poisson_messages(run).len())
            .sum();
        (per_algorithm * psn_forwarding::standard_algorithms().len()) as u64
    }
}
