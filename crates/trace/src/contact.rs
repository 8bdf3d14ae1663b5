//! Contact records.
//!
//! A contact is an interval during which two devices could exchange data.
//! In the iMote traces a contact record holds the responding device's MAC
//! address plus the start and end time of the contact; following the paper
//! we treat contacts as symmetric (if A saw B, both can exchange data in
//! either direction for the duration of the contact).

use crate::{NodeId, Seconds};

/// A single contact between two nodes over a closed time interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contact {
    /// One endpoint of the contact (the scanning device in iMote logs).
    pub a: NodeId,
    /// The other endpoint (the responding device in iMote logs).
    pub b: NodeId,
    /// Contact start time, seconds from the window start.
    pub start: Seconds,
    /// Contact end time, seconds from the window start. Always `>= start`.
    pub end: Seconds,
}

/// Problems detected when validating a contact record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContactError {
    /// `end < start`.
    NegativeDuration,
    /// A node cannot be in contact with itself.
    SelfContact,
    /// A timestamp was NaN or infinite.
    NonFiniteTime,
}

impl std::fmt::Display for ContactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContactError::NegativeDuration => write!(f, "contact ends before it starts"),
            ContactError::SelfContact => write!(f, "contact connects a node to itself"),
            ContactError::NonFiniteTime => write!(f, "contact has a non-finite timestamp"),
        }
    }
}

impl std::error::Error for ContactError {}

impl Contact {
    /// Creates a validated contact.
    ///
    /// # Errors
    ///
    /// Rejects self-contacts, negative durations and non-finite timestamps.
    pub fn new(a: NodeId, b: NodeId, start: Seconds, end: Seconds) -> Result<Self, ContactError> {
        if !(start.is_finite() && end.is_finite()) {
            return Err(ContactError::NonFiniteTime);
        }
        if a == b {
            return Err(ContactError::SelfContact);
        }
        if end < start {
            return Err(ContactError::NegativeDuration);
        }
        Ok(Self { a, b, start, end })
    }

    /// Creates an instantaneous contact (zero duration) at time `t`.
    ///
    /// Inquiry-scan observations are often logged as point events; the
    /// space-time graph only needs the contact to overlap a Δ-slot, so zero
    /// duration is acceptable.
    pub fn instant(a: NodeId, b: NodeId, t: Seconds) -> Result<Self, ContactError> {
        Self::new(a, b, t, t)
    }

    /// Duration of the contact in seconds.
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }

    /// True if the contact involves `node` at either endpoint.
    pub fn involves(&self, node: NodeId) -> bool {
        self.a == node || self.b == node
    }

    /// Given one endpoint, returns the other, or `None` if `node` is not an
    /// endpoint of this contact.
    pub fn peer_of(&self, node: NodeId) -> Option<NodeId> {
        if self.a == node {
            Some(self.b)
        } else if self.b == node {
            Some(self.a)
        } else {
            None
        }
    }

    /// True if the contact interval overlaps the half-open interval
    /// `[t0, t1)`.
    ///
    /// The space-time graph builder uses this to decide whether two nodes
    /// were "in contact at any time during `[T − Δ, T)`" (paper §4.1).
    pub fn overlaps(&self, t0: Seconds, t1: Seconds) -> bool {
        // A zero-duration contact exactly at t0 counts as overlapping.
        self.start < t1 && self.end >= t0
    }

    /// Returns the contact with endpoints ordered so that `a <= b`.
    ///
    /// Useful for deduplication: the same physical contact may be logged by
    /// both devices.
    pub fn normalized(&self) -> Contact {
        if self.a.0 <= self.b.0 {
            *self
        } else {
            Contact { a: self.b, b: self.a, ..*self }
        }
    }

    /// The unordered endpoint pair as a sortable key.
    pub fn pair_key(&self) -> (NodeId, NodeId) {
        let n = self.normalized();
        (n.a, n.b)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use proptest::prelude::*;

    fn nid(v: u32) -> NodeId {
        NodeId(v)
    }

    #[test]
    fn valid_contact_constructs() {
        let c = Contact::new(nid(1), nid(2), 10.0, 20.0).unwrap();
        assert_eq!(c.duration(), 10.0);
        assert!(c.involves(nid(1)));
        assert!(c.involves(nid(2)));
        assert!(!c.involves(nid(3)));
    }

    #[test]
    fn rejects_invalid_contacts() {
        assert_eq!(Contact::new(nid(1), nid(1), 0.0, 1.0), Err(ContactError::SelfContact));
        assert_eq!(Contact::new(nid(1), nid(2), 5.0, 1.0), Err(ContactError::NegativeDuration));
        assert_eq!(Contact::new(nid(1), nid(2), f64::NAN, 1.0), Err(ContactError::NonFiniteTime));
        assert_eq!(
            Contact::new(nid(1), nid(2), 0.0, f64::INFINITY),
            Err(ContactError::NonFiniteTime)
        );
    }

    #[test]
    fn instant_contact_has_zero_duration() {
        let c = Contact::instant(nid(1), nid(2), 30.0).unwrap();
        assert_eq!(c.duration(), 0.0);
        assert_eq!(c.start, c.end);
    }

    #[test]
    fn peer_of_returns_other_endpoint() {
        let c = Contact::new(nid(3), nid(7), 0.0, 1.0).unwrap();
        assert_eq!(c.peer_of(nid(3)), Some(nid(7)));
        assert_eq!(c.peer_of(nid(7)), Some(nid(3)));
        assert_eq!(c.peer_of(nid(5)), None);
    }

    #[test]
    fn overlap_semantics() {
        let c = Contact::new(nid(1), nid(2), 10.0, 20.0).unwrap();
        assert!(c.overlaps(0.0, 11.0));
        assert!(c.overlaps(15.0, 16.0));
        assert!(c.overlaps(19.0, 30.0));
        assert!(c.overlaps(20.0, 30.0)); // end is inclusive
        assert!(!c.overlaps(20.5, 30.0));
        assert!(!c.overlaps(0.0, 10.0)); // [0,10) does not include start=10
    }

    #[test]
    fn zero_duration_contact_overlaps_its_slot() {
        let c = Contact::instant(nid(1), nid(2), 10.0).unwrap();
        assert!(c.overlaps(10.0, 20.0));
        assert!(c.overlaps(0.0, 10.5));
        assert!(!c.overlaps(10.5, 20.0));
    }

    #[test]
    fn normalization_orders_endpoints() {
        let c = Contact::new(nid(9), nid(2), 0.0, 1.0).unwrap();
        let n = c.normalized();
        assert_eq!(n.a, nid(2));
        assert_eq!(n.b, nid(9));
        assert_eq!(c.pair_key(), (nid(2), nid(9)));
        // Already-normalized contacts are unchanged.
        assert_eq!(n.normalized(), n);
    }

    #[test]
    fn error_display() {
        assert!(!ContactError::NegativeDuration.to_string().is_empty());
        assert!(!ContactError::SelfContact.to_string().is_empty());
        assert!(!ContactError::NonFiniteTime.to_string().is_empty());
    }

    proptest! {
        #[test]
        fn construction_never_accepts_invalid(a in 0u32..50, b in 0u32..50,
                                              s in -1e3f64..1e3, e in -1e3f64..1e3) {
            match Contact::new(nid(a), nid(b), s, e) {
                Ok(c) => {
                    prop_assert!(c.a != c.b);
                    prop_assert!(c.end >= c.start);
                    prop_assert!(c.duration() >= 0.0);
                }
                Err(_) => {
                    prop_assert!(a == b || e < s);
                }
            }
        }

        #[test]
        fn overlap_is_consistent_with_interval_math(
            s in 0.0f64..100.0, d in 0.0f64..50.0, t0 in 0.0f64..150.0, w in 0.1f64..50.0) {
            let c = Contact::new(nid(0), nid(1), s, s + d).unwrap();
            let t1 = t0 + w;
            let brute = c.start < t1 && c.end >= t0;
            prop_assert_eq!(c.overlaps(t0, t1), brute);
        }
    }
}
