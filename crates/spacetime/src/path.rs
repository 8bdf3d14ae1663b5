//! The time-respecting path model.
//!
//! A path is a sequence of hops `((x₁, t₁), (x₂, t₂), …, (xₖ, tₖ))` with
//! non-decreasing times, where each consecutive pair of nodes was in contact
//! at the later hop's time (paper §4). The first hop is the message source
//! at its creation time; the last hop is wherever the message currently is
//! (the destination, for a delivered path).

use psn_trace::{NodeId, Seconds};

/// One hop of a path: a node holding the message from time `time` onwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// The node that received the message at this hop.
    pub node: NodeId,
    /// The time the node received the message (slot end time for enumerated
    /// paths).
    pub time: Seconds,
}

/// A time-respecting path through the space-time graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    hops: Vec<Hop>,
}

impl Path {
    /// Creates a path consisting only of the source hop.
    pub fn source(node: NodeId, time: Seconds) -> Self {
        Self { hops: vec![Hop { node, time }] }
    }

    /// Creates a path from an explicit hop sequence.
    ///
    /// # Panics
    ///
    /// Panics if the hop list is empty or times decrease — these are
    /// construction bugs, not runtime conditions.
    pub fn from_hops(hops: Vec<Hop>) -> Self {
        assert!(!hops.is_empty(), "a path has at least the source hop");
        for w in hops.windows(2) {
            assert!(w[1].time >= w[0].time, "hop times must be non-decreasing");
        }
        Self { hops }
    }

    /// The hop sequence.
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }

    /// Number of hops (tuples) in the path; the paper's notion of path
    /// length.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// A path always has at least the source hop.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of message transmissions (hops minus one).
    pub fn relay_count(&self) -> usize {
        self.hops.len() - 1
    }

    /// The source hop.
    pub fn first(&self) -> Hop {
        self.hops[0]
    }

    /// The most recent hop (current holder, or destination if delivered).
    pub fn last(&self) -> Hop {
        *self.hops.last().expect("paths are non-empty")
    }

    /// The node currently holding the message.
    pub fn current_node(&self) -> NodeId {
        self.last().node
    }

    /// Time of the final hop.
    pub fn end_time(&self) -> Seconds {
        self.last().time
    }

    /// Path duration: time of the last hop minus time of the source hop
    /// (`tₖ − t₁` in the paper).
    pub fn duration(&self) -> Seconds {
        self.last().time - self.first().time
    }

    /// True if `node` appears anywhere on the path.
    pub fn contains(&self, node: NodeId) -> bool {
        self.hops.iter().any(|h| h.node == node)
    }

    /// The node visited at hop index `i` (0 = source), if any.
    pub fn node_at(&self, i: usize) -> Option<NodeId> {
        self.hops.get(i).map(|h| h.node)
    }

    /// Iterator over the nodes along the path in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.hops.iter().map(|h| h.node)
    }

    /// Returns a new path with one extra hop appended.
    ///
    /// # Panics
    ///
    /// Panics if the new hop's time is before the current end time.
    pub fn extended(&self, node: NodeId, time: Seconds) -> Path {
        assert!(time >= self.end_time(), "extension must not go back in time");
        let mut hops = self.hops.clone();
        hops.push(Hop { node, time });
        Path { hops }
    }

    /// Appends one hop in place. Crate-internal: the arena uses this to
    /// finish a delivered path without the intermediate clone `extended`
    /// would cost.
    ///
    /// # Panics
    ///
    /// Panics if the new hop's time is before the current end time.
    pub(crate) fn push_hop(&mut self, hop: Hop) {
        assert!(hop.time >= self.end_time(), "extension must not go back in time");
        self.hops.push(hop);
    }

    /// True if no node appears more than once (the paper's loop-avoidance
    /// requirement).
    pub fn is_loop_free(&self) -> bool {
        for (i, a) in self.hops.iter().enumerate() {
            for b in &self.hops[i + 1..] {
                if a.node == b.node {
                    return false;
                }
            }
        }
        true
    }

    /// Renders the path as `n0@0 -> n3@40 -> n7@90`, used by the Fig. 12
    /// report and by debugging output.
    pub fn render(&self) -> String {
        self.hops
            .iter()
            .map(|h| format!("{}@{:.0}", h.node, h.time))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(v: u32) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn source_path_basics() {
        let p = Path::source(nid(3), 12.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.relay_count(), 0);
        assert_eq!(p.duration(), 0.0);
        assert_eq!(p.current_node(), nid(3));
        assert!(p.contains(nid(3)));
        assert!(!p.contains(nid(4)));
        assert!(p.is_loop_free());
        assert!(!p.is_empty());
    }

    #[test]
    fn extension_appends_hops() {
        let p = Path::source(nid(0), 0.0).extended(nid(1), 10.0).extended(nid(2), 30.0);
        assert_eq!(p.len(), 3);
        assert_eq!(p.relay_count(), 2);
        assert_eq!(p.duration(), 30.0);
        assert_eq!(p.node_at(0), Some(nid(0)));
        assert_eq!(p.node_at(2), Some(nid(2)));
        assert_eq!(p.node_at(3), None);
        assert_eq!(p.nodes().collect::<Vec<_>>(), vec![nid(0), nid(1), nid(2)]);
    }

    #[test]
    #[should_panic]
    fn extension_cannot_go_back_in_time() {
        Path::source(nid(0), 10.0).extended(nid(1), 5.0);
    }

    #[test]
    fn loop_detection() {
        let looping = Path::from_hops(vec![
            Hop { node: nid(0), time: 0.0 },
            Hop { node: nid(1), time: 5.0 },
            Hop { node: nid(0), time: 9.0 },
        ]);
        assert!(!looping.is_loop_free());
        let clean =
            Path::from_hops(vec![Hop { node: nid(0), time: 0.0 }, Hop { node: nid(1), time: 5.0 }]);
        assert!(clean.is_loop_free());
    }

    #[test]
    #[should_panic]
    fn from_hops_rejects_decreasing_times() {
        Path::from_hops(vec![Hop { node: nid(0), time: 10.0 }, Hop { node: nid(1), time: 5.0 }]);
    }

    #[test]
    #[should_panic]
    fn from_hops_rejects_empty() {
        Path::from_hops(vec![]);
    }

    #[test]
    fn equal_times_are_allowed() {
        // Two hops within the same slot share the slot end time.
        let p = Path::source(nid(0), 10.0).extended(nid(1), 10.0);
        assert_eq!(p.duration(), 0.0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn render_and_display() {
        let p = Path::source(nid(0), 0.0).extended(nid(5), 40.0);
        assert_eq!(p.render(), "n0@0 -> n5@40");
        assert_eq!(format!("{p}"), "n0@0 -> n5@40");
    }
}
