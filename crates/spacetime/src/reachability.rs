//! Epidemic (optimal) delivery computation.
//!
//! Epidemic forwarding delivers every message along its optimal path: the
//! first path found by flooding is by definition the shortest-duration path
//! available to any forwarding algorithm (paper §4.1,
//! `T(σ, δ, t₁) = T_Epidemic(σ, δ, t₁)`).
//!
//! [`epidemic_spread`] floods a message through the space-time graph slot by
//! slot and records, for every node, the earliest time a copy reaches it.
//! This is much cheaper than full path enumeration and is used as the
//! optimal baseline by the forwarding experiments, for the delivery-time
//! CDFs, and as a cross-check on the enumerator's first-delivery times.

use psn_trace::Seconds;

use crate::message::Message;
use crate::windowed::GraphRef;

/// The outcome of epidemic flooding for a single message.
#[derive(Debug, Clone, PartialEq)]
pub struct EpidemicOutcome {
    /// The message that was flooded.
    pub message: Message,
    /// Earliest delivery time at the destination, if reachable before the
    /// end of the trace.
    pub delivery_time: Option<Seconds>,
    /// Earliest infection time per node (index = node id), `None` if the
    /// flood never reached that node.
    pub infection_times: Vec<Option<Seconds>>,
}

impl EpidemicOutcome {
    /// Delivery delay (delivery time minus creation time), if delivered.
    pub fn delay(&self) -> Option<Seconds> {
        self.delivery_time.map(|t| t - self.message.created_at)
    }

    /// Number of nodes that eventually received a copy (including the
    /// source).
    pub fn infected_count(&self) -> usize {
        self.infection_times.iter().filter(|t| t.is_some()).count()
    }
}

/// Floods a message from its source through the space-time graph and
/// returns per-node earliest infection times.
///
/// Flooding stops early once the destination is reached if `stop_at_destination`
/// is true; otherwise it continues to the end of the trace so that the full
/// infection curve is available.
pub fn epidemic_spread<'a>(
    graph: impl Into<GraphRef<'a>>,
    message: &Message,
    stop_at_destination: bool,
) -> EpidemicOutcome {
    let graph = graph.into();
    let n = graph.node_count();
    let mut infection: Vec<Option<Seconds>> = vec![None; n];
    infection[message.source.index()] = Some(message.created_at);

    let start_slot = graph.slot_of_time(message.created_at);
    let mut delivery_time = None;

    'slots: for s in start_slot..graph.slot_count() {
        let slot_time = graph.slot_end_time(s);
        let slot = graph.slot(s);
        // Any component containing an infected node becomes fully infected
        // by the end of the slot (zero-weight edges within the slot).
        // Collect infected component labels first to avoid order dependence.
        // Only nodes with contacts this slot can spread or catch a copy, so
        // both passes walk the precomputed active-node list instead of all n
        // nodes.
        let mut infected_components: Vec<u32> = Vec::new();
        for &node in slot.active_nodes() {
            if infection[node.index()].is_some() {
                infected_components.push(slot.component(node));
            }
        }
        if infected_components.is_empty() {
            continue;
        }
        infected_components.sort_unstable();
        infected_components.dedup();

        for &node in slot.active_nodes() {
            let idx = node.index();
            if infection[idx].is_some() {
                continue;
            }
            if infected_components.binary_search(&slot.component(node)).is_ok() {
                infection[idx] = Some(slot_time);
                if node == message.destination {
                    delivery_time = Some(slot_time);
                    if stop_at_destination {
                        break 'slots;
                    }
                }
            }
        }
    }

    EpidemicOutcome { message: *message, delivery_time, infection_times: infection }
}

/// Convenience wrapper returning only the optimal delivery time for a
/// message, `None` if the destination is unreachable within the trace.
pub fn epidemic_delivery_time<'a>(
    graph: impl Into<GraphRef<'a>>,
    message: &Message,
) -> Option<Seconds> {
    epidemic_spread(graph, message, true).delivery_time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{EnumerationConfig, PathEnumerator};
    use crate::graph::SpaceTimeGraph;
    use psn_trace::contact::Contact;
    use psn_trace::node::{NodeClass, NodeRegistry};
    use psn_trace::trace::{ContactTrace, TimeWindow};
    use psn_trace::NodeId;

    fn nid(v: u32) -> NodeId {
        NodeId(v)
    }

    fn trace_from(contacts: Vec<(u32, u32, f64, f64)>, nodes: usize, end: f64) -> ContactTrace {
        let mut reg = NodeRegistry::new();
        for _ in 0..nodes {
            reg.add(NodeClass::Mobile);
        }
        let cs = contacts
            .into_iter()
            .map(|(a, b, s, e)| Contact::new(nid(a), nid(b), s, e).unwrap())
            .collect();
        ContactTrace::from_contacts("reach-test", reg, TimeWindow::new(0.0, end), cs).unwrap()
    }

    #[test]
    fn chain_delivery_time() {
        let trace = trace_from(vec![(0, 1, 1.0, 5.0), (1, 2, 21.0, 25.0)], 3, 60.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let message = Message::new(nid(0), nid(2), 0.0);
        let outcome = epidemic_spread(&graph, &message, false);
        assert_eq!(outcome.delivery_time, Some(30.0));
        assert_eq!(outcome.delay(), Some(30.0));
        assert_eq!(outcome.infected_count(), 3);
        assert_eq!(outcome.infection_times[1], Some(10.0));
        assert_eq!(epidemic_delivery_time(&graph, &message), Some(30.0));
    }

    #[test]
    fn unreachable_destination() {
        let trace = trace_from(vec![(0, 1, 1.0, 5.0)], 3, 40.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let message = Message::new(nid(0), nid(2), 0.0);
        let outcome = epidemic_spread(&graph, &message, false);
        assert_eq!(outcome.delivery_time, None);
        assert_eq!(outcome.delay(), None);
        assert_eq!(outcome.infected_count(), 2);
    }

    #[test]
    fn contacts_before_creation_time_are_ignored() {
        let trace = trace_from(vec![(0, 1, 1.0, 5.0), (1, 2, 21.0, 25.0)], 3, 60.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        // Created after the 0-1 contact: only the 1-2 contact remains, which
        // does not involve the source, so nothing is delivered.
        let message = Message::new(nid(0), nid(2), 15.0);
        assert_eq!(epidemic_delivery_time(&graph, &message), None);
    }

    #[test]
    fn intra_slot_component_spreads_in_one_slot() {
        // 0-1 and 1-2 overlap in the same slot: the message crosses both in
        // one slot via zero-weight edges.
        let trace = trace_from(vec![(0, 1, 1.0, 8.0), (1, 2, 2.0, 9.0)], 3, 30.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let message = Message::new(nid(0), nid(2), 0.0);
        assert_eq!(epidemic_delivery_time(&graph, &message), Some(10.0));
    }

    #[test]
    fn agrees_with_enumerator_first_delivery() {
        let trace = trace_from(
            vec![
                (0, 1, 1.0, 30.0),
                (0, 2, 5.0, 40.0),
                (1, 3, 35.0, 80.0),
                (2, 3, 45.0, 90.0),
                (1, 2, 50.0, 95.0),
                (3, 4, 100.0, 140.0),
                (2, 4, 110.0, 150.0),
                (0, 3, 120.0, 160.0),
            ],
            5,
            200.0,
        );
        let graph = SpaceTimeGraph::build_default(&trace);
        let enumerator = PathEnumerator::new(&graph, EnumerationConfig::quick(50));
        for (src, dst, t) in [(0u32, 4u32, 0.0), (1, 4, 10.0), (2, 0, 0.0), (4, 0, 0.0)] {
            let message = Message::new(nid(src), nid(dst), t);
            let optimal = epidemic_delivery_time(&graph, &message);
            let enumerated = enumerator.enumerate(&message).first_delivery_time();
            assert_eq!(optimal, enumerated, "message {message}");
        }
    }

    #[test]
    fn stop_at_destination_does_not_change_delivery_time() {
        let trace =
            trace_from(vec![(0, 1, 1.0, 5.0), (1, 2, 21.0, 25.0), (2, 3, 41.0, 45.0)], 4, 60.0);
        let graph = SpaceTimeGraph::build_default(&trace);
        let message = Message::new(nid(0), nid(2), 0.0);
        let early = epidemic_spread(&graph, &message, true);
        let full = epidemic_spread(&graph, &message, false);
        assert_eq!(early.delivery_time, full.delivery_time);
        // The full run keeps spreading past the destination.
        assert!(full.infected_count() >= early.infected_count());
    }
}
