//! Node identities and the node registry.
//!
//! The iMote datasets distinguish two kinds of devices: *mobile* nodes
//! carried by conference participants and *stationary* nodes placed around
//! the venue (20 of the 98 devices in each dataset). The registry records
//! that classification together with an optional human-readable label (the
//! MAC address in the real traces).

/// Compact identifier of a node (device) within a trace.
///
/// Node ids are dense indices `0..N`, which lets the space-time graph and
/// the forwarding simulator use plain vectors rather than hash maps on the
/// hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Whether a device was carried by a participant or fixed in the venue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Carried by a conference participant.
    Mobile,
    /// Placed at a fixed location in the conference venue.
    Stationary,
}

impl std::fmt::Display for NodeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeClass::Mobile => write!(f, "mobile"),
            NodeClass::Stationary => write!(f, "stationary"),
        }
    }
}

/// Metadata for one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Identifier within the trace.
    pub id: NodeId,
    /// Mobile participant or stationary booth node.
    pub class: NodeClass,
    /// Optional label — the device MAC address in real iMote logs, or a
    /// generated name for synthetic traces.
    pub label: String,
}

/// The set of nodes participating in a trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeRegistry {
    nodes: Vec<NodeInfo>,
}

impl NodeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Creates a registry of `mobile` mobile nodes followed by `stationary`
    /// stationary nodes, with generated labels.
    ///
    /// This mirrors the composition of the paper's datasets (e.g. 78 mobile
    /// + 20 stationary for Infocom 2006).
    pub fn with_counts(mobile: usize, stationary: usize) -> Self {
        let mut reg = Self::new();
        for _ in 0..mobile {
            reg.add(NodeClass::Mobile);
        }
        for _ in 0..stationary {
            reg.add(NodeClass::Stationary);
        }
        reg
    }

    /// Adds a node of the given class with a generated label and returns its
    /// id.
    pub fn add(&mut self, class: NodeClass) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let label = match class {
            NodeClass::Mobile => format!("imote-{:03}", id.0),
            NodeClass::Stationary => format!("booth-{:03}", id.0),
        };
        self.nodes.push(NodeInfo { id, class, label });
        id
    }

    /// Adds a node with an explicit label (e.g. a MAC address from a parsed
    /// trace).
    pub fn add_labeled(&mut self, class: NodeClass, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeInfo { id, class, label: label.into() });
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the registry has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up node metadata. Returns `None` for ids not in the registry.
    pub fn get(&self, id: NodeId) -> Option<&NodeInfo> {
        self.nodes.get(id.index())
    }

    /// Iterates over all nodes in id order.
    pub fn iter(&self) -> impl Iterator<Item = &NodeInfo> {
        self.nodes.iter()
    }

    /// Ids of all nodes in id order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().map(|n| n.id)
    }

    /// Ids of all mobile nodes.
    pub fn mobile_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().filter(|n| n.class == NodeClass::Mobile).map(|n| n.id).collect()
    }

    /// Ids of all stationary nodes.
    pub fn stationary_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().filter(|n| n.class == NodeClass::Stationary).map(|n| n.id).collect()
    }

    /// Finds a node by its label.
    pub fn find_by_label(&self, label: &str) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.label == label).map(|n| n.id)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        let id = NodeId(42);
        assert_eq!(id.to_string(), "n42");
        assert_eq!(id.index(), 42);
        assert_eq!(NodeId::from(7u32), NodeId(7));
    }

    #[test]
    fn registry_with_counts_matches_paper_composition() {
        let reg = NodeRegistry::with_counts(78, 20);
        assert_eq!(reg.len(), 98);
        assert_eq!(reg.mobile_ids().len(), 78);
        assert_eq!(reg.stationary_ids().len(), 20);
        assert!(!reg.is_empty());
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let reg = NodeRegistry::with_counts(3, 2);
        let ids: Vec<u32> = reg.ids().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn labels_reflect_class() {
        let reg = NodeRegistry::with_counts(1, 1);
        assert!(reg.get(NodeId(0)).unwrap().label.starts_with("imote-"));
        assert!(reg.get(NodeId(1)).unwrap().label.starts_with("booth-"));
    }

    #[test]
    fn add_labeled_and_find_by_label() {
        let mut reg = NodeRegistry::new();
        let id = reg.add_labeled(NodeClass::Mobile, "00:11:22:33:44:55");
        assert_eq!(reg.find_by_label("00:11:22:33:44:55"), Some(id));
        assert_eq!(reg.find_by_label("missing"), None);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let reg = NodeRegistry::with_counts(2, 0);
        assert!(reg.get(NodeId(5)).is_none());
    }

    #[test]
    fn class_display() {
        assert_eq!(NodeClass::Mobile.to_string(), "mobile");
        assert_eq!(NodeClass::Stationary.to_string(), "stationary");
    }

    #[test]
    fn empty_registry() {
        let reg = NodeRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.len(), 0);
        assert!(reg.mobile_ids().is_empty());
    }
}
