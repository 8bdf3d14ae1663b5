//! Source/destination pair-type classification.
//!
//! Section 5.2 of the paper splits nodes at the median contact rate into
//! 'in' (high-rate) and 'out' (low-rate) nodes and classifies each message
//! by the classes of its endpoints: in-in, in-out, out-in, out-out. The
//! explosion structure (Fig. 8) and the forwarding performance (Fig. 13)
//! are then broken down by pair type.

use psn_spacetime::Message;
use psn_trace::{ContactRates, RateClass};

/// The four source/destination contact-rate combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairType {
    /// High-rate source, high-rate destination.
    InIn,
    /// High-rate source, low-rate destination.
    InOut,
    /// Low-rate source, high-rate destination.
    OutIn,
    /// Low-rate source, low-rate destination.
    OutOut,
}

impl PairType {
    /// All four pair types in the paper's presentation order.
    pub fn all() -> [PairType; 4] {
        [PairType::InIn, PairType::InOut, PairType::OutIn, PairType::OutOut]
    }

    /// The label used in figures ("in-in", "in-out", ...).
    pub fn label(&self) -> &'static str {
        match self {
            PairType::InIn => "in-in",
            PairType::InOut => "in-out",
            PairType::OutIn => "out-in",
            PairType::OutOut => "out-out",
        }
    }

    /// Builds the pair type from the two endpoint classes.
    pub fn from_classes(source: RateClass, destination: RateClass) -> Self {
        match (source, destination) {
            (RateClass::In, RateClass::In) => PairType::InIn,
            (RateClass::In, RateClass::Out) => PairType::InOut,
            (RateClass::Out, RateClass::In) => PairType::OutIn,
            (RateClass::Out, RateClass::Out) => PairType::OutOut,
        }
    }

    /// True if the source is a high-rate ('in') node.
    pub fn source_is_in(&self) -> bool {
        matches!(self, PairType::InIn | PairType::InOut)
    }

    /// True if the destination is a high-rate ('in') node.
    pub fn destination_is_in(&self) -> bool {
        matches!(self, PairType::InIn | PairType::OutIn)
    }
}

impl std::fmt::Display for PairType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Classifies a message by the contact-rate classes of its endpoints.
pub fn classify_message(rates: &ContactRates, message: &Message) -> PairType {
    PairType::from_classes(rates.classify(message.source), rates.classify(message.destination))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_trace::contact::Contact;
    use psn_trace::node::{NodeClass, NodeId, NodeRegistry};
    use psn_trace::trace::{ContactTrace, TimeWindow};

    fn nid(v: u32) -> NodeId {
        NodeId(v)
    }

    fn rates() -> ContactRates {
        let mut reg = NodeRegistry::new();
        for _ in 0..4 {
            reg.add(NodeClass::Mobile);
        }
        // Node 0: 3 contacts, node 1: 2, node 2: 1, node 3: 0.
        let contacts = vec![
            Contact::new(nid(0), nid(1), 0.0, 1.0).unwrap(),
            Contact::new(nid(0), nid(1), 2.0, 3.0).unwrap(),
            Contact::new(nid(0), nid(2), 4.0, 5.0).unwrap(),
        ];
        let trace =
            ContactTrace::from_contacts("pt", reg, TimeWindow::new(0.0, 10.0), contacts).unwrap();
        ContactRates::from_trace(&trace)
    }

    #[test]
    fn classification_follows_endpoint_rates() {
        let r = rates();
        // Nodes 0 and 1 are 'in', 2 and 3 are 'out'.
        assert_eq!(classify_message(&r, &Message::new(nid(0), nid(1), 0.0)), PairType::InIn);
        assert_eq!(classify_message(&r, &Message::new(nid(0), nid(3), 0.0)), PairType::InOut);
        assert_eq!(classify_message(&r, &Message::new(nid(2), nid(1), 0.0)), PairType::OutIn);
        assert_eq!(classify_message(&r, &Message::new(nid(3), nid(2), 0.0)), PairType::OutOut);
    }

    #[test]
    fn labels_and_helpers() {
        assert_eq!(PairType::all().len(), 4);
        assert_eq!(PairType::InOut.to_string(), "in-out");
        assert!(PairType::InOut.source_is_in());
        assert!(!PairType::InOut.destination_is_in());
        assert!(PairType::OutIn.destination_is_in());
        assert!(!PairType::OutIn.source_is_in());
    }

    #[test]
    fn from_classes_round_trips() {
        use RateClass::*;
        assert_eq!(PairType::from_classes(In, In), PairType::InIn);
        assert_eq!(PairType::from_classes(In, Out), PairType::InOut);
        assert_eq!(PairType::from_classes(Out, In), PairType::OutIn);
        assert_eq!(PairType::from_classes(Out, Out), PairType::OutOut);
    }
}
