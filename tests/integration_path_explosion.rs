//! Cross-crate integration tests for the path-enumeration pipeline:
//! synthetic trace generation → space-time graph → k-shortest valid-path
//! enumeration → explosion profiles.

use psn::prelude::*;
use psn_spacetime::validity::is_valid_path;

/// A reduced conference trace shared by the tests in this file.
fn small_trace() -> ContactTrace {
    let mut ds = SyntheticDataset::quick_config(DatasetId::Infocom06Morning);
    ds.config.mobile_nodes = 22;
    ds.config.stationary_nodes = 6;
    ds.config.window_seconds = 1800.0;
    ds.generate()
}

fn messages(trace: &ContactTrace, count: usize) -> Vec<Message> {
    let generator = MessageGenerator::new(MessageWorkloadConfig {
        nodes: trace.node_count(),
        generation_horizon: trace.window().duration() * 2.0 / 3.0,
        mean_interarrival: 4.0,
        seed: 99,
    });
    generator.uniform_messages(count)
}

#[test]
fn enumerated_first_paths_match_epidemic_optimum() {
    let trace = small_trace();
    let graph = SpaceTimeGraph::build_default(&trace);
    let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(40));
    for message in messages(&trace, 12) {
        let enumerated = enumerator.enumerate(&message).first_delivery_time();
        let optimal = epidemic_delivery_time(&graph, &message);
        assert_eq!(enumerated, optimal, "first delivery mismatch for {message}");
    }
}

#[test]
fn every_sampled_path_is_valid_and_properly_terminated() {
    let trace = small_trace();
    let graph = SpaceTimeGraph::build_default(&trace);
    let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(40));
    let mut checked = 0usize;
    for message in messages(&trace, 8) {
        let result = enumerator.enumerate(&message);
        for path in &result.sample_paths {
            assert_eq!(path.first().node, message.source);
            assert_eq!(path.current_node(), message.destination);
            assert!(path.first().time >= message.created_at);
            assert_eq!(is_valid_path(&graph, path, message.destination), Ok(()));
            checked += 1;
        }
        // Delivery times are sorted.
        for w in result.deliveries.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }
    assert!(checked > 0, "expected at least one delivered path to check");
}

#[test]
fn explosion_profiles_show_te_smaller_than_t1_on_average() {
    let trace = small_trace();
    let graph = SpaceTimeGraph::build_default(&trace);
    let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(60));
    let mut summary = ExplosionSummary::new();
    for message in messages(&trace, 20) {
        let result = enumerator.enumerate(&message);
        summary.push(ExplosionProfile::with_threshold(&result, 60));
    }
    assert!(summary.delivery_fraction() > 0.5, "most messages should be deliverable");
    let scatter = summary.scatter_points();
    if scatter.len() >= 5 {
        let mean_t1: f64 = scatter.iter().map(|p| p.0).sum::<f64>() / scatter.len() as f64;
        let mean_te: f64 = scatter.iter().map(|p| p.1).sum::<f64>() / scatter.len() as f64;
        assert!(
            mean_te <= mean_t1 + 60.0,
            "mean TE {mean_te} should not exceed mean T1 {mean_t1} by more than a slot"
        );
    }
}

#[test]
fn growth_curves_are_monotone_and_reach_total() {
    let trace = small_trace();
    let graph = SpaceTimeGraph::build_default(&trace);
    let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(50));
    for message in messages(&trace, 6) {
        let result = enumerator.enumerate(&message);
        let profile = ExplosionProfile::with_threshold(&result, 50);
        let curve = profile.growth_curve();
        for w in curve.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        if let Some(last) = curve.last() {
            assert_eq!(last.1, profile.total_paths);
        }
    }
}

#[test]
fn denser_contact_traces_deliver_more_messages() {
    // Sanity check of the substrate: doubling the contact rate should not
    // reduce the fraction of deliverable messages.
    let sparse = {
        let mut ds = SyntheticDataset::quick_config(DatasetId::Conext06Morning);
        ds.config.mobile_nodes = 20;
        ds.config.stationary_nodes = 4;
        ds.config.window_seconds = 1500.0;
        ds.config.max_node_rate = 0.008;
        ds.generate()
    };
    let dense = {
        let mut ds = SyntheticDataset::quick_config(DatasetId::Conext06Morning);
        ds.config.mobile_nodes = 20;
        ds.config.stationary_nodes = 4;
        ds.config.window_seconds = 1500.0;
        ds.config.max_node_rate = 0.05;
        ds.generate()
    };
    let fraction_delivered = |trace: &ContactTrace| {
        let graph = SpaceTimeGraph::build_default(trace);
        let msgs = messages(trace, 15);
        let delivered = msgs.iter().filter(|m| epidemic_delivery_time(&graph, m).is_some()).count();
        delivered as f64 / msgs.len() as f64
    };
    assert!(fraction_delivered(&dense) >= fraction_delivered(&sparse));
}

/// Paper-scale oracle for the message that dominates the k = 2000
/// explosion workload: `n1->n48`, the second of the explosion study's
/// uniform draw (seed `0xEC0`) on `scenarios/infocom_morning.toml`. Both
/// engines enumerate it at k ∈ {50, 200}; the reference needs over a
/// minute at k = 2000, so that is left to the `enumeration` bench. Run it
/// in release: `cargo test --release -p psn --test
/// integration_path_explosion -- --ignored`.
#[test]
#[ignore = "paper scale: run in release with --ignored"]
fn arena_matches_reference_on_the_paper_explosion_message() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios/infocom_morning.toml");
    let scenario = psn_trace::ScenarioConfig::from_path(&path).expect("scenario loads");
    let trace = scenario.generate();
    let graph = SpaceTimeGraph::build_default(&trace);
    let message = MessageGenerator::new(MessageWorkloadConfig {
        nodes: trace.node_count(),
        generation_horizon: (trace.window().duration() * 2.0 / 3.0).max(1.0),
        mean_interarrival: 4.0,
        seed: 0xEC0,
    })
    .uniform_messages(16)[1];
    assert_eq!((message.source, message.destination), (NodeId(1), NodeId(48)));
    for k in [50, 200] {
        let enumerator =
            PathEnumerator::new(&graph, EnumerationConfig { k, ..EnumerationConfig::paper() });
        let arena = enumerator.enumerate(&message);
        let reference = enumerator.enumerate_reference(&message);
        assert!(arena.delivered_count() > 0, "k = {k}: no delivery");
        assert_eq!(arena.deliveries, reference.deliveries, "k = {k}: deliveries differ");
        assert_eq!(arena.sample_paths, reference.sample_paths, "k = {k}: sample paths differ");
        assert_eq!(arena.exploded, reference.exploded, "k = {k}: explosion flag differs");
        assert_eq!(arena.truncated, reference.truncated, "k = {k}: truncation flag differs");
        assert_eq!(arena.slots_processed, reference.slots_processed, "k = {k}: slot count differs");
    }
}
