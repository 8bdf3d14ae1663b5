//! The traced pass: re-enacts one study run through the public layer calls
//! `compute_run_sections` makes — store resolution or the stream pass, the
//! engine entry points, then render — with a span around each call and the
//! layer counters read at the same boundaries.

use std::sync::Arc;
use std::time::Instant;

use psn::experiments::explosion::run_explosion_study_on_graph;
use psn::experiments::forwarding::{run_forwarding_study_shared, run_forwarding_study_streamed};
use psn::experiments::paths_taken::PathsTakenCase;
use psn::report::{JsonRenderer, RunMeta, Section};
use psn::{ArtifactStore, ReportDoc, StudyId, StudyView};
use psn_artifact::SlabSlotSpill;
use psn_forwarding::{
    standard_algorithms, ForwardingAlgorithm, HistoryTimeline, Simulator, SimulatorConfig,
    TimelineBuilder, TraceOracle,
};
use psn_spacetime::{Message, PathEnumerator, SharedGraph, WindowedSpaceTimeGraph};
use psn_trace::{ContactStream, ContactSummary, ContactTrace, SummarizingStream};

use crate::workload::Setup;

/// One timed interval. Spans whose time is a difference of calibration
/// passes rather than a clock reading are marked `derived`.
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub derived: bool,
}

/// In-memory span recorder for one pass; written out when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_s = self.now();
        self.spans.push(Span { name, start_s, end_s: start_s, parent, derived: false });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_s = self.now();
    }

    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    fn derived(&mut self, name: &'static str, parent: usize, start_s: f64, seconds: f64) -> f64 {
        let end_s = start_s + seconds;
        self.spans.push(Span { name, start_s, end_s, parent: Some(parent), derived: true });
        end_s
    }

    /// Total seconds of every span named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).fold(0.0, |sum, s| sum + s.end_s - s.start_s)
    }
}

/// Layer counters of one pass. The first seven fields cannot depend on
/// scheduling and are asserted equal across passes and worker counts.
pub struct Counters {
    pub contacts: u64,
    pub busy_slots: u64,
    pub spill_stores: u64,
    pub message_sims: u64,
    pub delivered: u64,
    pub paths_delivered: u64,
    pub builds: u64,
    pub builds_by_kind: [u64; 4],
    pub spill_loads: u64,
    pub loads_per_busy_slot: f64,
    pub simulate_loads: u64,
    pub avoided_reloads: u64,
    pub graph_bytes: u64,
    pub timeline_bytes: u64,
    pub peak_stream_bytes: u64,
    pub quarantines: u64,
}

impl Counters {
    pub fn deterministic(&self) -> [(&'static str, u64); 7] {
        [
            ("trace.contacts", self.contacts),
            ("spacetime.busy_slots", self.busy_slots),
            ("spacetime.spill_stores", self.spill_stores),
            ("forwarding.message_sims", self.message_sims),
            ("forwarding.delivered", self.delivered),
            ("spacetime.paths_delivered", self.paths_delivered),
            ("artifact.builds", self.builds),
        ]
    }
}

/// Seconds of the two stream passes the streaming attribution subtracts:
/// the source drained through the summary fold, and the same plus the
/// windowed graph build with a no-op tap.
pub struct Calibration {
    pub source_s: f64,
    pub graph_s: f64,
}

enum Source {
    Trace(Arc<ContactTrace>),
    Summary(ContactSummary),
}

/// The resolved engine inputs of one run.
pub struct Inputs {
    source: Source,
    graph: SharedGraph,
    windowed: Option<Arc<WindowedSpaceTimeGraph>>,
    timeline: Option<Arc<HistoryTimeline>>,
    timeline_bytes: usize,
}

impl Inputs {
    fn spill_loads(&self) -> u64 {
        self.windowed.as_ref().map_or(0, |g| g.spill_loads())
    }
}

/// What the engine calls of one run produce.
pub struct EngineOut {
    pub sections: Vec<Section>,
    pub message_sims: u64,
    pub delivered: u64,
    pub paths_delivered: u64,
    /// Spill loads of each engine call, in call order.
    pub loads: Vec<u64>,
    pub simulate_loads: u64,
}

/// One traced pass: its spans, counters and rendered report.
pub struct Pass {
    pub tracer: Tracer,
    pub counters: Counters,
    pub report: String,
    pub inputs: Inputs,
    pub engines: EngineOut,
}

fn needs_timeline(study: StudyId) -> bool {
    matches!(study, StudyId::Forwarding | StudyId::PathsTaken)
}

fn summarizing(setup: &Setup) -> SummarizingStream<psn_trace::ScenarioContactStream> {
    let stream = setup.config.stream(setup.params().delta);
    // Only the forwarding oracle reads the pair matrix; the pipeline folds
    // it exactly when a timeline is needed.
    if needs_timeline(setup.plan.study) {
        SummarizingStream::new(stream)
    } else {
        SummarizingStream::rates_only(stream)
    }
}

fn stream_error(e: impl std::fmt::Display) -> String {
    format!("stream pass: {e}")
}

/// Times the two calibration passes of a streaming run.
pub fn calibrate(setup: &Setup) -> Result<Calibration, String> {
    let window = setup.params().streaming_window.ok_or("calibration needs a streaming run")?;
    let start = Instant::now();
    let mut stream = summarizing(setup);
    while stream.next_event().map_err(stream_error)?.is_some() {}
    std::hint::black_box(stream.into_summary());
    let source_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut stream = summarizing(setup);
    let spill = SlabSlotSpill::in_temp_file().map_err(stream_error)?;
    let graph =
        WindowedSpaceTimeGraph::stream_with(&mut stream, window, Box::new(spill), |_, _| {})
            .map_err(stream_error)?;
    std::hint::black_box((graph.busy_slots().len(), stream.into_summary()));
    drop(graph);
    let graph_s = start.elapsed().as_secs_f64();
    Ok(Calibration { source_s, graph_s })
}

/// Resolves the trace, graph and timeline as the pipeline does: through
/// the store when materialized, or in one stream pass when streaming.
fn resolve_inputs(
    setup: &Setup,
    store: &ArtifactStore,
    tracer: &mut Tracer,
    root: usize,
    calibration: Option<&Calibration>,
) -> Result<Inputs, String> {
    let config = &setup.config;
    let delta = setup.params().delta;
    let timeline_wanted = needs_timeline(setup.plan.study);
    let Some(window) = setup.params().streaming_window else {
        let (trace, _) = tracer
            .time("trace.generate", Some(root), || store.scenario_trace(config))
            .map_err(|e| e.to_string())?;
        let (graph, _) = tracer
            .time("spacetime.graph_build", Some(root), || {
                store.spacetime_graph(config, &trace, delta)
            })
            .map_err(|e| e.to_string())?;
        let timeline = if timeline_wanted {
            let (timeline, _) = tracer
                .time("forwarding.timeline_build", Some(root), || {
                    store.history_timeline(config, &graph, delta)
                })
                .map_err(|e| e.to_string())?;
            Some(timeline)
        } else {
            None
        };
        let timeline_bytes = timeline.as_ref().map_or(0, |t| t.approx_bytes());
        return Ok(Inputs {
            source: Source::Trace(trace),
            graph: graph.into(),
            windowed: None,
            timeline,
            timeline_bytes,
        });
    };

    let calibration = calibration.ok_or("a streaming pass needs its calibration")?;
    let pass = tracer.open("stream.pass", Some(root));
    let mut stream = summarizing(setup);
    let spill = SlabSlotSpill::in_temp_file().map_err(stream_error)?;
    let mut timeline_fold = timeline_wanted.then(|| TimelineBuilder::new(stream.node_count()));
    let mut timeline_peak = 0usize;
    let graph =
        WindowedSpaceTimeGraph::stream_with(&mut stream, window, Box::new(spill), |s, slot| {
            if let Some(b) = timeline_fold.as_mut() {
                b.push_slot(s, slot.edges());
                timeline_peak = timeline_peak.max(b.approx_bytes());
            }
        })
        .map_err(stream_error)?;
    store.record_stream_peak(graph.peak_bytes() + timeline_peak);
    let timeline = timeline_fold.map(|b| {
        Arc::new(b.finish((0..graph.slot_count()).map(|s| graph.slot_end_time(s)).collect()))
    });
    let summary = stream.into_summary();
    tracer.close(pass);

    // Split the pass by the calibration passes: source and fold, then the
    // graph build on top of it, then whatever the riding timeline adds.
    let start = tracer.spans[pass].start_s;
    let pass_s = tracer.spans[pass].end_s - start;
    let at = tracer.derived("trace.source_fold", pass, start, calibration.source_s);
    let at = tracer.derived(
        "spacetime.graph_build",
        pass,
        at,
        calibration.graph_s - calibration.source_s,
    );
    tracer.derived("forwarding.timeline_build", pass, at, pass_s - calibration.graph_s);

    let graph = Arc::new(graph);
    Ok(Inputs {
        source: Source::Summary(summary),
        graph: graph.clone().into(),
        windowed: Some(graph),
        timeline,
        timeline_bytes: timeline_peak,
    })
}

/// Tags a section with its run and view, as the pipeline does.
fn tag(setup: &Setup, view: StudyView, mut section: Section) -> Section {
    let config = &setup.config;
    section.scenario = setup.plan.runs[0].label.clone();
    section.view = view.name().to_string();
    section.run = Some(RunMeta {
        scenario_kind: config.kind().to_string(),
        seed: config.seed(),
        nodes: config.node_count(),
        window_seconds: config.window_seconds(),
    });
    section
}

/// Runs the study's engine calls on resolved inputs with `threads`
/// workers, recording a span per call under `parent`.
pub fn run_engines(
    setup: &Setup,
    inputs: &Inputs,
    threads: usize,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Result<EngineOut, String> {
    let p = setup.params();
    let label = setup.plan.runs[0].label.clone();
    let graph = inputs.graph.as_graph_ref();
    let timeline = || inputs.timeline.clone().ok_or("the study needs a timeline");
    let mut sections = Vec::new();
    let before = inputs.spill_loads();
    match setup.plan.study {
        StudyId::Explosion => {
            let messages =
                setup.uniform_messages(p.enumeration_message_seed, p.enumeration_messages);
            let Source::Trace(trace) = &inputs.source else {
                return Err("the explosion workload runs materialized".into());
            };
            let study = tracer.time("spacetime.enumerate", parent, || {
                run_explosion_study_on_graph(
                    label,
                    trace,
                    graph,
                    &messages,
                    p.enumeration.clone(),
                    p.explosion_threshold,
                    threads,
                )
            });
            for &view in &setup.plan.views {
                let section = match view {
                    StudyView::ExplosionCdfs => study.cdfs_section(),
                    StudyView::ExplosionScatter => study.scatter_section(),
                    StudyView::ExplosionGrowth => study.growth_section(),
                    StudyView::ExplosionPairTypes => study.pair_type_section(),
                    other => return Err(format!("view {} is not benchmarked", other.name())),
                };
                sections.push(tag(setup, view, section));
            }
            let paths = study.summary.profiles().iter().map(|pr| pr.total_paths as u64).sum();
            Ok(EngineOut {
                sections,
                message_sims: 0,
                delivered: 0,
                paths_delivered: paths,
                loads: vec![inputs.spill_loads() - before],
                simulate_loads: 0,
            })
        }
        StudyId::Forwarding => {
            let workload = setup.forwarding_workload();
            let timeline = timeline()?;
            let study = tracer.time("forwarding.simulate", parent, || match &inputs.source {
                Source::Trace(trace) => run_forwarding_study_shared(
                    label,
                    trace,
                    inputs.graph.clone(),
                    timeline,
                    workload,
                    p.simulation_runs,
                    threads,
                ),
                Source::Summary(summary) => run_forwarding_study_streamed(
                    label,
                    summary,
                    inputs.graph.clone(),
                    timeline,
                    workload,
                    p.simulation_runs,
                    threads,
                ),
            });
            for &view in &setup.plan.views {
                let section = match view {
                    StudyView::DelayVsSuccess => study.delay_vs_success_section(),
                    StudyView::DelayDistributions => study.delay_distributions_section(),
                    StudyView::ReceptionTimes => study.reception_times_section(),
                    StudyView::PairTypePerformance => study.pair_type_section(),
                    other => return Err(format!("view {} is not benchmarked", other.name())),
                };
                sections.push(tag(setup, view, section));
            }
            let loads = inputs.spill_loads() - before;
            Ok(EngineOut {
                sections,
                message_sims: study.algorithms.iter().map(|a| a.metrics.messages as u64).sum(),
                delivered: study.algorithms.iter().map(|a| a.metrics.delivered as u64).sum(),
                paths_delivered: 0,
                loads: vec![loads],
                simulate_loads: loads,
            })
        }
        StudyId::PathsTaken => {
            // Paths-taken wraps both engines; make the two calls here and
            // combine them as the study does, so each gets its own span.
            let Source::Summary(summary) = &inputs.source else {
                return Err("the paths-taken workload runs streaming".into());
            };
            let messages = setup.uniform_messages(p.paths_taken_seed, p.paths_taken_messages);
            graph.advise_sequential(true);
            let enumerator = PathEnumerator::new(graph, p.enumeration.clone());
            let results = tracer.time("spacetime.enumerate", parent, || {
                enumerator.enumerate_batch(&messages, &mut Vec::new())
            });
            let enumerate_loads = inputs.spill_loads() - before;
            let timeline = timeline()?;
            let algorithms = standard_algorithms();
            let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> =
                algorithms.iter().map(|(_, a)| (a.as_ref() as _, messages.as_slice())).collect();
            let config = SimulatorConfig { delta: graph.delta(), threads, ..Default::default() };
            let simulations = tracer.time("forwarding.simulate", parent, || {
                Simulator::from_streamed_parts(
                    summary.node_count(),
                    TraceOracle::from_summary(summary),
                    inputs.graph.clone(),
                    timeline,
                    config,
                )
                .run_many(&jobs)
            });
            graph.advise_sequential(false);
            let simulate_loads = inputs.spill_loads() - before - enumerate_loads;

            for (index, (message, result)) in messages.iter().zip(&results).enumerate() {
                let first = result.first_delivery_time();
                let mut arrival_bursts: Vec<(f64, usize)> = Vec::new();
                if let Some(first) = first {
                    for delivery in &result.deliveries {
                        let offset = delivery.time - first;
                        match arrival_bursts.last_mut() {
                            Some((t, count)) if (*t - offset).abs() < 1e-9 => *count += 1,
                            _ => arrival_bursts.push((offset, 1)),
                        }
                    }
                }
                let algorithm_arrivals = algorithms
                    .iter()
                    .zip(&simulations)
                    .map(|((kind, _), sim)| {
                        let arrival = match (sim.outcomes[index].delivered_at, first) {
                            (Some(t), Some(first)) => Some(t - first),
                            _ => None,
                        };
                        (*kind, arrival)
                    })
                    .collect();
                let case = PathsTakenCase { message: *message, arrival_bursts, algorithm_arrivals };
                sections.push(tag(setup, StudyView::PathsTaken, case.section()));
            }
            let outcomes = simulations.iter().flat_map(|s| &s.outcomes);
            Ok(EngineOut {
                sections,
                message_sims: simulations.iter().map(|s| s.outcomes.len() as u64).sum(),
                delivered: outcomes.filter(|o| o.delivered()).count() as u64,
                paths_delivered: results.iter().map(|r| r.deliveries.len() as u64).sum(),
                loads: vec![enumerate_loads, simulate_loads],
                simulate_loads,
            })
        }
        other => Err(format!("study {} is not benchmarked", other.name())),
    }
}

/// Runs one traced pass against a fresh store and renders its report.
pub fn traced_pass(setup: &Setup, calibration: Option<&Calibration>) -> Result<Pass, String> {
    let store = ArtifactStore::in_memory();
    let mut tracer = Tracer::new();
    let root = tracer.open("core.study", None);
    let inputs = resolve_inputs(setup, &store, &mut tracer, root, calibration)?;
    let engines = run_engines(setup, &inputs, setup.threads, &mut tracer, Some(root))?;
    let mut doc = ReportDoc::new(setup.plan.study.name());
    doc.sections = engines.sections.clone();
    tracer.close(root);
    let report = tracer.time("core.render", None, || JsonRenderer.render_json(&doc));

    let stats = store.stats();
    let (contacts, busy_slots, graph_bytes) = match &inputs.source {
        Source::Trace(trace) => {
            let busy = inputs.graph.as_graph_ref().busy_slots().len();
            let bytes = match &inputs.graph {
                SharedGraph::Full(g) => g.approx_bytes(),
                SharedGraph::Windowed(g) => g.peak_bytes(),
            };
            (trace.contact_count() as u64, busy as u64, bytes as u64)
        }
        Source::Summary(summary) => {
            let graph = inputs.windowed.as_ref().ok_or("streamed inputs without a graph")?;
            (summary.contacts(), graph.busy_slots().len() as u64, graph.peak_bytes() as u64)
        }
    };
    let spill_loads: u64 = engines.loads.iter().sum();
    let loads_per_busy_slot = engines.loads.iter().map(|&l| l as f64).sum::<f64>()
        / (engines.loads.len() as f64 * busy_slots.max(1) as f64);
    let counters = Counters {
        contacts,
        busy_slots,
        spill_stores: inputs.windowed.as_ref().map_or(0, |g| g.spill_stores()),
        message_sims: engines.message_sims,
        delivered: engines.delivered,
        paths_delivered: engines.paths_delivered,
        builds: stats.total_builds(),
        builds_by_kind: stats.builds,
        spill_loads,
        loads_per_busy_slot,
        simulate_loads: engines.simulate_loads,
        avoided_reloads: inputs.windowed.as_ref().map_or(0, |g| g.avoided_reloads()),
        graph_bytes,
        timeline_bytes: inputs.timeline_bytes as u64,
        peak_stream_bytes: stats.peak_stream_bytes as u64,
        quarantines: stats.quarantines,
    };
    Ok(Pass { tracer, counters, report, inputs, engines })
}

/// The timed layer calls inside `core.study`, in pipeline order, as
/// (metric, span name).
pub const LAYER_CALLS: [(&str, &str); 6] = [
    ("trace.generate_s", "trace.generate"),
    ("trace.source_fold_s", "trace.source_fold"),
    ("spacetime.graph_build_s", "spacetime.graph_build"),
    ("forwarding.timeline_build_s", "forwarding.timeline_build"),
    ("spacetime.enumerate_s", "spacetime.enumerate"),
    ("forwarding.simulate_s", "forwarding.simulate"),
];
