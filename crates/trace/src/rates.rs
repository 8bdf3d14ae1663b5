//! Per-node contact-rate analysis.
//!
//! Section 5.2 of the paper shows that per-node contact rates in the iMote
//! datasets are highly variable — the CDF of per-node contact counts is
//! approximately uniform on `(0, max)` (Fig. 7) — and that splitting nodes
//! at the *median* rate into high-rate ('in') and low-rate ('out') classes
//! explains the structure of optimal path duration and time to explosion.
//! This module computes those per-node statistics from a [`ContactTrace`]:
//! contact counts, contact rates, inter-contact time statistics and the
//! median split used by the pair-type experiments (Figs. 8 and 13) and by
//! the rate-aware forwarding analysis (Figs. 14 and 15).

use std::collections::BTreeMap;

use psn_stats::{median, Ecdf, Summary};

use crate::node::NodeId;
use crate::trace::ContactTrace;
use crate::Seconds;

/// Whether a node is in the high-rate ('in') or low-rate ('out') half of the
/// population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RateClass {
    /// Contact rate above the population median ('in' node in the paper).
    In,
    /// Contact rate at or below the population median ('out' node).
    Out,
}

impl std::fmt::Display for RateClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RateClass::In => write!(f, "in"),
            RateClass::Out => write!(f, "out"),
        }
    }
}

/// Per-node contact-rate statistics for one trace.
#[derive(Debug, Clone)]
pub struct ContactRates {
    /// Total number of contacts each node participated in.
    counts: Vec<u64>,
    /// Contacts per second for each node (count / window duration).
    rates: Vec<f64>,
    /// The median of the per-node rates.
    median_rate: f64,
    /// Window duration used to convert counts to rates.
    window_seconds: Seconds,
}

impl ContactRates {
    /// Computes per-node contact counts and rates from a trace.
    ///
    /// Every contact increments the count of both endpoints, matching the
    /// paper's definition of "the number of contacts a node makes per unit
    /// time".
    pub fn from_trace(trace: &ContactTrace) -> Self {
        let n = trace.node_count();
        let mut counts = vec![0u64; n];
        for c in trace.contacts() {
            counts[c.a.index()] += 1;
            counts[c.b.index()] += 1;
        }
        Self::from_counts(counts, trace.window().duration())
    }

    /// Builds the statistics from already-folded per-node contact counts —
    /// the streaming path, where counts come from a
    /// [`crate::summary::ContactSummary`] instead of a materialized trace.
    /// Bit-identical to [`ContactRates::from_trace`] when the counts match.
    pub fn from_counts(counts: Vec<u64>, window_seconds: Seconds) -> Self {
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / window_seconds).collect();
        let median_rate = if rates.is_empty() {
            0.0
        } else {
            median(&rates).unwrap_or_else(|_| unreachable!("non-empty, finite rates"))
        };
        Self { counts, rates, median_rate, window_seconds }
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.counts.len()
    }

    /// Total contact count of `node`.
    pub fn count(&self, node: NodeId) -> u64 {
        self.counts[node.index()]
    }

    /// Contact rate (contacts per second) of `node`.
    pub fn rate(&self, node: NodeId) -> f64 {
        self.rates[node.index()]
    }

    /// All per-node counts, indexed by node id.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// All per-node rates, indexed by node id.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// The median per-node rate — the paper's 'in'/'out' split point.
    pub fn median_rate(&self) -> f64 {
        self.median_rate
    }

    /// Observation window length the rates were computed over.
    pub fn window_seconds(&self) -> Seconds {
        self.window_seconds
    }

    /// Classifies a node as 'in' (above the median rate) or 'out'.
    pub fn classify(&self, node: NodeId) -> RateClass {
        if self.rate(node) > self.median_rate {
            RateClass::In
        } else {
            RateClass::Out
        }
    }

    /// Ids of all 'in' nodes.
    pub fn in_nodes(&self) -> Vec<NodeId> {
        (0..self.counts.len() as u32)
            .map(NodeId)
            .filter(|&n| self.classify(n) == RateClass::In)
            .collect()
    }

    /// Ids of all 'out' nodes.
    pub fn out_nodes(&self) -> Vec<NodeId> {
        (0..self.counts.len() as u32)
            .map(NodeId)
            .filter(|&n| self.classify(n) == RateClass::Out)
            .collect()
    }

    /// Empirical CDF of per-node contact counts (the Fig. 7 series).
    pub fn count_cdf(&self) -> Option<Ecdf> {
        let xs: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
        Ecdf::new(&xs).ok()
    }

    /// Summary statistics of per-node counts.
    pub fn count_summary(&self) -> Summary {
        Summary::from_slice(&self.counts.iter().map(|&c| c as f64).collect::<Vec<_>>())
    }

    /// Uniformity diagnostic for the contact-count distribution.
    ///
    /// The paper observes that the CDF of per-node contact counts is
    /// approximately uniform on `(0, max)`. This returns the
    /// Kolmogorov–Smirnov distance between the empirical count CDF and the
    /// uniform CDF on `[0, max]`; small values (≲ 0.15) indicate the
    /// synthetic traces reproduce the paper's Fig. 7 shape.
    pub fn uniformity_ks(&self) -> Option<f64> {
        let cdf = self.count_cdf()?;
        let max = cdf.max();
        if max <= 0.0 {
            return None;
        }
        let sup =
            cdf.samples().iter().map(|&x| (cdf.eval(x) - x / max).abs()).fold(0.0_f64, f64::max);
        Some(sup)
    }
}

/// Inter-contact time statistics for a trace.
///
/// The paper cites earlier work showing heavy-tailed inter-contact times;
/// this helper extracts per-pair inter-contact gaps so that the synthetic
/// generator can be sanity-checked and so downstream users can reproduce
/// that style of analysis.
#[derive(Debug, Clone, Default)]
pub struct InterContactTimes {
    gaps: Vec<Seconds>,
}

impl InterContactTimes {
    /// Computes the gaps between the end of one contact and the start of the
    /// next contact *of the same unordered node pair*.
    pub fn from_trace(trace: &ContactTrace) -> Self {
        let mut per_pair: BTreeMap<(NodeId, NodeId), Vec<(Seconds, Seconds)>> = BTreeMap::new();
        for c in trace.contacts() {
            per_pair.entry(c.pair_key()).or_default().push((c.start, c.end));
        }
        let mut gaps = Vec::new();
        for intervals in per_pair.values_mut() {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in intervals.windows(2) {
                let gap = w[1].0 - w[0].1;
                if gap > 0.0 {
                    gaps.push(gap);
                }
            }
        }
        Self { gaps }
    }

    /// The raw inter-contact gaps in seconds.
    pub fn gaps(&self) -> &[Seconds] {
        &self.gaps
    }

    /// Number of gaps observed.
    pub fn len(&self) -> usize {
        self.gaps.len()
    }

    /// True if no pair had more than one contact.
    pub fn is_empty(&self) -> bool {
        self.gaps.is_empty()
    }

    /// ECDF of inter-contact times.
    pub fn cdf(&self) -> Option<Ecdf> {
        Ecdf::new(&self.gaps).ok()
    }

    /// Mean inter-contact time.
    pub fn mean(&self) -> Option<Seconds> {
        Summary::from_slice(&self.gaps).mean()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::contact::Contact;
    use crate::node::{NodeClass, NodeRegistry};
    use crate::trace::TimeWindow;

    fn trace_with(contacts: Vec<(u32, u32, f64, f64)>, nodes: usize) -> ContactTrace {
        let mut reg = NodeRegistry::new();
        for _ in 0..nodes {
            reg.add(NodeClass::Mobile);
        }
        let cs = contacts
            .into_iter()
            .map(|(a, b, s, e)| Contact::new(NodeId(a), NodeId(b), s, e).unwrap())
            .collect();
        ContactTrace::from_contacts("t", reg, TimeWindow::new(0.0, 100.0), cs).unwrap()
    }

    #[test]
    fn gap_order_is_pair_sorted_and_deterministic() {
        // Three pairs interleaved in time; the gap list must come out in
        // ascending pair order, then chronological within a pair —
        // independent of insertion order. This pins the determinism
        // contract the report path relies on (psn-analyze lint L2).
        let trace = trace_with(
            vec![
                (2, 3, 40.0, 41.0),
                (0, 1, 0.0, 1.0),
                (2, 3, 10.0, 11.0),
                (0, 2, 20.0, 21.0),
                (0, 1, 5.0, 6.0),
                (0, 2, 50.0, 51.0),
            ],
            4,
        );
        let ict = InterContactTimes::from_trace(&trace);
        // (0,1): 5 - 1 = 4;  (0,2): 50 - 21 = 29;  (2,3): 40 - 11 = 29.
        assert_eq!(ict.gaps(), &[4.0, 29.0, 29.0]);
        let again = InterContactTimes::from_trace(&trace);
        assert_eq!(ict.gaps(), again.gaps());
    }

    #[test]
    fn counts_both_endpoints() {
        let trace = trace_with(vec![(0, 1, 0.0, 1.0), (0, 2, 2.0, 3.0)], 4);
        let rates = ContactRates::from_trace(&trace);
        assert_eq!(rates.count(NodeId(0)), 2);
        assert_eq!(rates.count(NodeId(1)), 1);
        assert_eq!(rates.count(NodeId(2)), 1);
        assert_eq!(rates.count(NodeId(3)), 0);
        assert_eq!(rates.node_count(), 4);
        assert_eq!(rates.window_seconds(), 100.0);
    }

    #[test]
    fn rates_are_counts_over_window() {
        let trace = trace_with(vec![(0, 1, 0.0, 1.0)], 2);
        let rates = ContactRates::from_trace(&trace);
        assert!((rates.rate(NodeId(0)) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn median_split_classifies_half_in_half_out() {
        // Node 0: 3 contacts, node 1: 2, node 2: 1, node 3: 0 -> median between 1 and 2.
        let trace = trace_with(vec![(0, 1, 0.0, 1.0), (0, 1, 2.0, 3.0), (0, 2, 4.0, 5.0)], 4);
        let rates = ContactRates::from_trace(&trace);
        assert_eq!(rates.classify(NodeId(0)), RateClass::In);
        assert_eq!(rates.classify(NodeId(1)), RateClass::In);
        assert_eq!(rates.classify(NodeId(2)), RateClass::Out);
        assert_eq!(rates.classify(NodeId(3)), RateClass::Out);
        assert_eq!(rates.in_nodes().len(), 2);
        assert_eq!(rates.out_nodes().len(), 2);
    }

    #[test]
    fn in_and_out_partition_the_population() {
        let trace = trace_with(
            vec![(0, 1, 0.0, 1.0), (1, 2, 2.0, 3.0), (2, 3, 4.0, 5.0), (0, 2, 6.0, 7.0)],
            5,
        );
        let rates = ContactRates::from_trace(&trace);
        let total = rates.in_nodes().len() + rates.out_nodes().len();
        assert_eq!(total, 5);
    }

    #[test]
    fn count_cdf_and_summary() {
        let trace = trace_with(vec![(0, 1, 0.0, 1.0), (0, 2, 1.0, 2.0)], 3);
        let rates = ContactRates::from_trace(&trace);
        let cdf = rates.count_cdf().unwrap();
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf.max(), 2.0);
        let summary = rates.count_summary();
        assert_eq!(summary.count(), 3);
    }

    #[test]
    fn uniformity_ks_detects_uniform_counts() {
        // Construct counts 1..=8 by chaining contacts: node i has roughly i contacts.
        let mut contacts = Vec::new();
        for i in 0..8u32 {
            for k in 0..=i {
                let peer = (i + k + 1) % 9;
                if peer != i {
                    contacts.push((i, peer, (k as f64) * 1.0, (k as f64) * 1.0 + 0.5));
                }
            }
        }
        let trace = trace_with(contacts, 9);
        let rates = ContactRates::from_trace(&trace);
        let ks = rates.uniformity_ks().unwrap();
        assert!(ks < 0.5, "ks = {ks}");
    }

    #[test]
    fn empty_trace_has_zero_rates() {
        let trace = trace_with(vec![], 3);
        let rates = ContactRates::from_trace(&trace);
        assert_eq!(rates.median_rate(), 0.0);
        assert_eq!(rates.count(NodeId(0)), 0);
        // All nodes are 'out' when every rate equals the median.
        assert_eq!(rates.out_nodes().len(), 3);
        assert_eq!(rates.uniformity_ks(), None);
    }

    #[test]
    fn intercontact_gaps_per_pair() {
        let trace = trace_with(
            vec![
                (0, 1, 0.0, 10.0),
                (0, 1, 30.0, 40.0),
                (0, 1, 100.0 - 1.0, 99.5),
                (1, 2, 5.0, 6.0),
            ],
            3,
        );
        // third contact above: start 99.0 end 99.5 (note ordering fixed below)
        let ict = InterContactTimes::from_trace(&trace);
        // Gaps for pair (0,1): 30-10=20, 99-40=59. Pair (1,2) has a single contact.
        assert_eq!(ict.len(), 2);
        let mut gaps = ict.gaps().to_vec();
        gaps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((gaps[0] - 20.0).abs() < 1e-9);
        assert!((gaps[1] - 59.0).abs() < 1e-9);
        assert!(ict.mean().unwrap() > 0.0);
        assert!(ict.cdf().is_some());
        assert!(!ict.is_empty());
    }

    #[test]
    fn rate_class_display() {
        assert_eq!(RateClass::In.to_string(), "in");
        assert_eq!(RateClass::Out.to_string(), "out");
    }
}
