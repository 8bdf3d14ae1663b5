//! `psn-perfbench`: the worker half of the repository benchmark.
//! `perfbench/run.py` times one `run` per process and reads its
//! CPU time and peak RSS from the kernel; this binary does the in-process
//! parts.
//!
//! ```text
//! psn-perfbench run       --workload W --seed N
//! psn-perfbench setup     --workload W --seed N
//! psn-perfbench reference --workload W --seed N
//! psn-perfbench trace     --workload W --seed N --seconds S --expect DIGEST --spans PATH
//! ```
//!
//! Every mode prints one JSON object on stdout and exits nonzero on any
//! failure. Run it from the repository root: scenario paths are relative.

mod traced;
mod workload;

use std::fmt::Write as _;
use std::time::Instant;

use psn::report::JsonRenderer;
use psn::study::run_study_with;
use psn::{ArtifactStore, StudyId};
use psn_trace::FingerprintHasher;

use traced::{calibrate, run_engines, traced_pass, Counters, Tracer, LAYER_CALLS};
use workload::{Engine, Setup, Workload};

/// Engine workers of every run: the host's two cores.
const THREADS: usize = 2;

struct Args {
    mode: String,
    workload: &'static Workload,
    seed: u64,
    /// The trace mode's flags, required there and refused elsewhere.
    trace: Option<TraceArgs>,
}

struct TraceArgs {
    seconds: f64,
    expect: String,
    spans: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode (run, setup, reference or trace)")?;
    let (mut workload, mut seed, mut seconds, mut expect, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::find(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| bad(&e))?),
            "--expect" => expect = Some(value),
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = match (mode == "trace", seconds, expect, spans) {
        (true, Some(seconds), Some(expect), Some(spans)) => {
            Some(TraceArgs { seconds, expect, spans })
        }
        (true, ..) => return Err("trace needs --seconds, --expect and --spans".into()),
        (false, None, None, None) => None,
        (false, ..) => return Err("--seconds, --expect and --spans belong to trace".into()),
    };
    Ok(Args {
        mode,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace,
    })
}

fn digest(report: &str) -> String {
    let mut hasher = FingerprintHasher::new("psn-perfbench/report");
    hasher.write_str(report);
    hasher.finish().to_hex()
}

/// Runs the whole study through the pipeline's entry point and renders it:
/// the span `wall_s` measures.
fn run_study(setup: &Setup) -> Result<String, String> {
    let report = run_study_with(&setup.plan, &setup.store).map_err(|e| e.to_string())?;
    Ok(JsonRenderer.render_json(&report.doc))
}

/// `entered` is read first thing in `main`, so `setup_s` runs from there
/// to the first layer call and leaves out the cost of spawning the process.
fn cmd_run(args: &Args, entered: Instant, setup_only: bool) -> Result<String, String> {
    let setup = args.workload.setup(args.seed, THREADS, Engine::Measured)?;
    let setup_s = entered.elapsed().as_secs_f64();
    if setup_only {
        return Ok(format!("{{\"setup_s\": {setup_s:?}}}"));
    }
    let start = Instant::now();
    let report = run_study(&setup)?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(format!(
        "{{\"setup_s\": {setup_s:?}, \"wall_s\": {wall_s:?}, \"digest\": \"{}\", \
         \"report_bytes\": {}, \"quarantines\": {}}}",
        digest(&report),
        report.len(),
        setup.store.stats().quarantines
    ))
}

/// The reference digest through the other engine, plus the input sizes
/// of the workload.
fn cmd_reference(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let setup = w.setup(args.seed, THREADS, Engine::Reference)?;
    let report = run_study(&setup)?;
    let p = setup.params();
    let (trace, _) = setup.store.scenario_trace(&setup.config).map_err(|e| e.to_string())?;
    let (graph, _) =
        setup.store.spacetime_graph(&setup.config, &trace, p.delta).map_err(|e| e.to_string())?;
    let contacts = trace.contact_count() as u64;
    let algorithms = psn_forwarding::standard_algorithms().len() as u64;
    let (messages, message_sims) = match setup.plan.study {
        StudyId::Forwarding => {
            let sims = setup.forwarding_message_sims();
            (sims / algorithms, sims)
        }
        StudyId::Explosion => (p.enumeration_messages as u64, 0),
        _ => (p.paths_taken_messages as u64, p.paths_taken_messages as u64 * algorithms),
    };
    let work_units = match w.work_unit {
        "message-simulations" => message_sims,
        "messages-enumerated" => messages,
        _ => contacts,
    };
    let window = match w.streaming_window {
        Some(window) => window.to_string(),
        None => "\"materialized\"".to_string(),
    };
    Ok(format!(
        "{{\"digest\": \"{}\", \"report_bytes\": {}, \"study\": \"{}\", \"seed\": {}, \
         \"seed_applied\": {}, \"scenario_seed\": {}, \
         \"nodes\": {}, \
         \"contacts\": {contacts}, \"slots\": {}, \"busy_slots\": {}, \"window\": {window}, \
         \"threads\": {}, \"messages\": {messages}, \"message_sims\": {message_sims}, \
         \"work_units\": {work_units}, \"work_unit\": \"{}\"}}",
        digest(&report),
        report.len(),
        setup.plan.study.name(),
        args.seed,
        w.seeded,
        setup.config.seed(),
        setup.config.node_count(),
        graph.slot_count(),
        graph.busy_slots().len(),
        setup.threads,
        w.work_unit
    ))
}

/// One run through the pipeline's entry point against a fresh store,
/// checked, with the study call and the render timed apart.
fn untraced_run(setup: &Setup, expect: &str) -> Result<(f64, f64), String> {
    let store = ArtifactStore::in_memory();
    let start = Instant::now();
    let report = run_study_with(&setup.plan, &store).map_err(|e| e.to_string())?;
    let study_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let rendered = JsonRenderer.render_json(&report.doc);
    let render_s = start.elapsed().as_secs_f64();
    if digest(&rendered) != expect {
        return Err("untraced report differs from the reference".into());
    }
    Ok((study_s, render_s))
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Repeats an untraced run, the calibration passes (streaming only), a
/// traced pass and the one-worker engine call until `--seconds` is used
/// up, at least twice; checks every report against the reference and the
/// scheduling-free counters across passes and worker counts; prints
/// per-layer medians.
///
/// `core.study_s` is the untraced `run_study_with` call, so
/// `core.unattributed_s` is the pipeline's own work outside the layer
/// calls the traced pass re-enacts: cache keys, store lookups, section
/// copies. Both can read negative when the re-enactment runs slower than
/// the pipeline; the output counts such readings instead of hiding them.
fn cmd_trace(args: &Args, trace: &TraceArgs) -> Result<String, String> {
    let expect = trace.expect.as_str();
    let setup = args.workload.setup(args.seed, THREADS, Engine::Measured)?;
    let streaming = setup.params().streaming_window.is_some();
    let started = Instant::now();
    let mut untraced = Vec::new();
    // Each traced pass with the tracer of its one-worker engine call.
    let mut passes: Vec<(traced::Pass, Tracer)> = Vec::new();
    let mut longest = 0.0f64;
    while passes.len() < 2 || started.elapsed().as_secs_f64() + longest <= trace.seconds {
        let iteration = Instant::now();
        // Alternate which run goes first, so the first run's cold start
        // does not land on one side of the overhead.
        let untraced_first = passes.len().is_multiple_of(2);
        if untraced_first {
            untraced.push(untraced_run(&setup, expect)?);
        }
        let calibration = if streaming { Some(calibrate(&setup)?) } else { None };
        let pass = traced_pass(&setup, calibration.as_ref())?;
        if !untraced_first {
            untraced.push(untraced_run(&setup, expect)?);
        }
        if digest(&pass.report) != expect {
            return Err("traced report differs from the reference".into());
        }
        let mut one_worker = Tracer::new();
        let out = run_engines(&setup, &pass.inputs, 1, &mut one_worker, None)?;
        let same = out.sections == pass.engines.sections
            && out.message_sims == pass.engines.message_sims
            && out.delivered == pass.engines.delivered
            && out.paths_delivered == pass.engines.paths_delivered;
        if !same {
            return Err("the one-worker engine call differs from the two-worker call".into());
        }
        if let Some((first, _)) = passes.first() {
            let (a, b) = (first.counters.deterministic(), pass.counters.deterministic());
            if a != b {
                return Err(format!(
                    "scheduling-free counters differ across passes: {a:?} vs {b:?}"
                ));
            }
        }
        if pass.counters.quarantines != 0 {
            return Err(format!("{} store quarantines", pass.counters.quarantines));
        }
        passes.push((pass, one_worker));
        longest = longest.max(iteration.elapsed().as_secs_f64());
    }

    let med = |f: &dyn Fn(&traced::Pass, &Tracer) -> f64| {
        median(&mut passes.iter().map(|(p, w)| f(p, w)).collect::<Vec<_>>())
    };
    let c: &Counters = &passes[0].0.counters;
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let mut metrics: Vec<(&str, f64)> = Vec::new();
    let mut attributed = 0.0;
    for (metric, span) in LAYER_CALLS {
        let seconds = med(&|p, _| p.tracer.seconds(span));
        attributed += seconds;
        metrics.push((metric, seconds));
    }
    let study_s = median(&mut untraced.iter().map(|(study, _)| *study).collect::<Vec<_>>());
    let untraced_wall =
        median(&mut untraced.iter().map(|(study, render)| study + render).collect::<Vec<_>>());
    let traced_total =
        med(&|p, _| p.tracer.seconds("core.study") + p.tracer.seconds("core.render"));
    let loads: Vec<f64> = passes.iter().map(|(p, _)| p.counters.spill_loads as f64).collect();
    let loads_spread = loads.iter().cloned().fold(f64::MIN, f64::max)
        - loads.iter().cloned().fold(f64::MAX, f64::min);
    let sims = c.message_sims.max(1) as f64;
    metrics.extend([
        ("trace.contacts", c.contacts as f64),
        ("spacetime.graph_mib", mib(c.graph_bytes)),
        ("spacetime.busy_slots", c.busy_slots as f64),
        ("spacetime.spill_stores", c.spill_stores as f64),
        ("spacetime.spill_loads", median(&mut loads.clone())),
        ("spacetime.spill_loads_spread", loads_spread),
        ("spacetime.loads_per_busy_slot", med(&|p, _| p.counters.loads_per_busy_slot)),
        ("spacetime.avoided_reloads", med(&|p, _| p.counters.avoided_reloads as f64)),
        ("spacetime.enumerate_1w_s", med(&|_, w| w.seconds("spacetime.enumerate"))),
        ("spacetime.paths_delivered", c.paths_delivered as f64),
        ("forwarding.timeline_mib", mib(c.timeline_bytes)),
        ("forwarding.simulate_1w_s", med(&|_, w| w.seconds("forwarding.simulate"))),
        ("forwarding.message_sims", c.message_sims as f64),
        ("forwarding.delivered", c.delivered as f64),
        ("forwarding.loads_per_sim", med(&|p, _| p.counters.simulate_loads as f64) / sims),
        ("artifact.builds", c.builds as f64),
        ("artifact.peak_stream_mib", mib(c.peak_stream_bytes)),
        ("artifact.quarantines", c.quarantines as f64),
        ("core.study_s", study_s),
        ("core.render_s", median(&mut untraced.iter().map(|(_, r)| *r).collect::<Vec<_>>())),
        ("core.report_bytes", passes[0].0.report.len() as f64),
        ("core.unattributed_s", study_s - attributed),
        ("core.untraced_wall_s", untraced_wall),
        ("core.tracing_overhead_s", traced_total - untraced_wall),
    ]);
    let negative_derived = passes
        .iter()
        .flat_map(|(p, _)| &p.tracer.spans)
        .filter(|s| s.derived && s.end_s < s.start_s)
        .count();

    std::fs::write(
        &trace.spans,
        spans_json(&passes.iter().map(|(p, _)| &p.tracer).collect::<Vec<_>>()),
    )
    .map_err(|e| format!("writing {}: {e}", trace.spans))?;
    let mut out = String::from("{\"metrics\": {");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {value:?}");
    }
    let kinds = c.builds_by_kind;
    let _ = write!(
        out,
        "}}, \"passes\": {}, \"negative_derived_spans\": {negative_derived}, \
         \"builds_by_kind\": {{\"trace\": {}, \"graph\": {}, \"timeline\": {}, \"result\": {}}}}}",
        passes.len(),
        kinds[0],
        kinds[1],
        kinds[2],
        kinds[3]
    );
    Ok(out)
}

fn spans_json(tracers: &[&Tracer]) -> String {
    let mut out = String::from("[\n");
    for (pass, tracer) in tracers.iter().enumerate() {
        for (id, span) in tracer.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}{{\"pass\": {pass}, \"id\": {id}, \"name\": \"{}\", \"start_s\": {:?}, \
                 \"end_s\": {:?}, \"parent\": {parent}, \"derived\": {}}}",
                if pass == 0 && id == 0 { "  " } else { ", " },
                span.name,
                span.start_s,
                span.end_s,
                span.derived
            );
        }
    }
    out.push_str("]\n");
    out
}

fn main() -> std::process::ExitCode {
    let entered = Instant::now();
    let result = parse_args().and_then(|args| match (args.mode.as_str(), &args.trace) {
        ("run", _) => cmd_run(&args, entered, false),
        ("setup", _) => cmd_run(&args, entered, true),
        ("reference", _) => cmd_reference(&args),
        ("trace", Some(trace)) => cmd_trace(&args, trace),
        (other, _) => Err(format!("unknown mode {other:?}")),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            std::process::ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("psn-perfbench: {message}");
            std::process::ExitCode::FAILURE
        }
    }
}
