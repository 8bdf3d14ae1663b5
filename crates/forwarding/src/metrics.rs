//! Forwarding performance metrics.
//!
//! The paper's two headline metrics (§4.1) are the **success rate**
//! `S_A = E[1{P_A(σ,δ,t₁)}]` (fraction of messages for which the algorithm
//! finds any path before the trace ends) and the **average delay**
//! `D_A = E[T_A(σ,δ,t₁) | delivered]`. Figure 9 plots one against the other
//! per algorithm and dataset; Figure 10 shows the full delay distributions;
//! Figure 13 breaks both metrics down by source/destination pair type.

use psn_spacetime::{Message, Path};
use psn_stats::{Ecdf, Summary};
use psn_trace::{ContactRates, Seconds};

use crate::pairtype::{classify_message, PairType};
use crate::simulator::SimulationResult;

/// Outcome of simulating a single message under one algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageOutcome {
    /// The message.
    pub message: Message,
    /// Delivery time (absolute seconds), or `None` if the message was never
    /// delivered.
    pub delivered_at: Option<Seconds>,
    /// The hop path of the first delivered copy, if delivered.
    pub path: Option<Path>,
}

impl MessageOutcome {
    /// True if the message reached its destination.
    pub fn delivered(&self) -> bool {
        self.delivered_at.is_some()
    }

    /// Delivery delay (delivery time − creation time), if delivered.
    pub fn delay(&self) -> Option<Seconds> {
        self.delivered_at.map(|t| t - self.message.created_at)
    }
}

/// Aggregate metrics of one algorithm over one message population.
#[derive(Debug, Clone)]
pub struct AlgorithmMetrics {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of messages simulated.
    pub messages: usize,
    /// Number of delivered messages.
    pub delivered: usize,
    /// Success rate `S` in `[0, 1]`.
    pub success_rate: f64,
    /// Average delay `D` over delivered messages, seconds.
    pub average_delay: Option<Seconds>,
    /// Delivery delays of all delivered messages, seconds.
    pub delays: Vec<Seconds>,
}

impl AlgorithmMetrics {
    /// Computes metrics from a simulation result.
    pub fn from_result(result: &SimulationResult) -> Self {
        Self::from_outcomes(&result.algorithm, &result.outcomes)
    }

    /// Computes metrics from raw outcomes.
    pub fn from_outcomes(algorithm: &str, outcomes: &[MessageOutcome]) -> Self {
        let delays: Vec<Seconds> = outcomes.iter().filter_map(|o| o.delay()).collect();
        let delivered = delays.len();
        let messages = outcomes.len();
        let success_rate = if messages == 0 { 0.0 } else { delivered as f64 / messages as f64 };
        let average_delay = Summary::from_slice(&delays).mean();
        Self {
            algorithm: algorithm.to_string(),
            messages,
            delivered,
            success_rate,
            average_delay,
            delays,
        }
    }

    /// Averages the success rate and delay over several independent runs of
    /// the same algorithm (the paper averages over 10 simulation runs).
    ///
    /// The success rate is weighted by each run's message count — i.e. it is
    /// total delivered over total messages — so it stays consistent with the
    /// summed `delivered` / `messages` fields when runs have unequal message
    /// counts. (An unweighted mean of per-run rates would let a tiny run
    /// swing the aggregate as much as a large one.)
    pub fn average_over_runs(runs: &[AlgorithmMetrics]) -> Option<AlgorithmMetrics> {
        let first = runs.first()?;
        let messages: usize = runs.iter().map(|r| r.messages).sum();
        let delivered: usize = runs.iter().map(|r| r.delivered).sum();
        let success_rate = if messages == 0 { 0.0 } else { delivered as f64 / messages as f64 };
        let delays: Vec<Seconds> = runs.iter().flat_map(|r| r.delays.iter().copied()).collect();
        let average_delay = Summary::from_slice(&delays).mean();
        Some(AlgorithmMetrics {
            algorithm: first.algorithm.clone(),
            messages,
            delivered,
            success_rate,
            average_delay,
            delays,
        })
    }

    /// The empirical CDF of delivery delays (Fig. 10), if any message was
    /// delivered.
    pub fn delay_cdf(&self) -> Option<Ecdf> {
        Ecdf::new(&self.delays).ok()
    }
}

/// Per-pair-type breakdown of success rate and delay (Fig. 13).
#[derive(Debug, Clone)]
pub struct PairTypeMetrics {
    /// Algorithm name.
    pub algorithm: String,
    /// One entry per pair type, in [`PairType::all`] order.
    pub per_type: Vec<(PairType, AlgorithmMetrics)>,
}

impl PairTypeMetrics {
    /// Splits outcomes by the pair type of each message and computes the
    /// per-class metrics. `rates` must come from the same trace the
    /// simulation ran on.
    pub fn from_outcomes(
        algorithm: &str,
        outcomes: &[MessageOutcome],
        rates: &ContactRates,
    ) -> Self {
        let mut buckets: Vec<Vec<MessageOutcome>> = vec![Vec::new(); 4];
        for outcome in outcomes {
            let class = classify_message(rates, &outcome.message);
            let idx = PairType::all().iter().position(|&t| t == class).expect("all types listed");
            buckets[idx].push(outcome.clone());
        }
        let per_type = PairType::all()
            .into_iter()
            .zip(buckets)
            .map(|(t, bucket)| (t, AlgorithmMetrics::from_outcomes(algorithm, &bucket)))
            .collect();
        Self { algorithm: algorithm.to_string(), per_type }
    }

    /// The metrics for one pair type.
    pub fn get(&self, pair_type: PairType) -> &AlgorithmMetrics {
        &self.per_type.iter().find(|(t, _)| *t == pair_type).expect("every pair type is present").1
    }
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

    fn outcome(src: u32, dst: u32, created: f64, delivered: Option<f64>) -> MessageOutcome {
        MessageOutcome {
            message: Message::new(nid(src), nid(dst), created),
            delivered_at: delivered,
            path: None,
        }
    }

    #[test]
    fn outcome_delay() {
        let o = outcome(0, 1, 10.0, Some(110.0));
        assert!(o.delivered());
        assert_eq!(o.delay(), Some(100.0));
        let missed = outcome(0, 1, 10.0, None);
        assert!(!missed.delivered());
        assert_eq!(missed.delay(), None);
    }

    #[test]
    fn metrics_from_outcomes() {
        let outcomes = vec![
            outcome(0, 1, 0.0, Some(100.0)),
            outcome(1, 2, 0.0, Some(300.0)),
            outcome(2, 3, 0.0, None),
            outcome(3, 0, 0.0, None),
        ];
        let m = AlgorithmMetrics::from_outcomes("Test", &outcomes);
        assert_eq!(m.messages, 4);
        assert_eq!(m.delivered, 2);
        assert!((m.success_rate - 0.5).abs() < 1e-12);
        assert_eq!(m.average_delay, Some(200.0));
        assert_eq!(m.delays.len(), 2);
        let cdf = m.delay_cdf().unwrap();
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn metrics_with_no_messages() {
        let m = AlgorithmMetrics::from_outcomes("Empty", &[]);
        assert_eq!(m.success_rate, 0.0);
        assert_eq!(m.average_delay, None);
        assert!(m.delay_cdf().is_none());
    }

    #[test]
    fn averaging_over_runs() {
        let run1 = AlgorithmMetrics::from_outcomes(
            "A",
            &[outcome(0, 1, 0.0, Some(100.0)), outcome(1, 2, 0.0, None)],
        );
        let run2 = AlgorithmMetrics::from_outcomes(
            "A",
            &[outcome(0, 1, 0.0, Some(300.0)), outcome(1, 2, 0.0, Some(500.0))],
        );
        let avg = AlgorithmMetrics::average_over_runs(&[run1, run2]).unwrap();
        assert!((avg.success_rate - 0.75).abs() < 1e-12);
        assert_eq!(avg.average_delay, Some(300.0));
        assert_eq!(avg.messages, 4);
        assert_eq!(avg.delivered, 3);
        assert!(AlgorithmMetrics::average_over_runs(&[]).is_none());
    }

    #[test]
    fn averaging_weights_unequal_run_sizes_by_messages() {
        // Run 1: 4 messages, 1 delivered. Run 2: 1 message, delivered.
        // The aggregate must be 2/5 = 0.4 (consistent with the summed
        // counters), not the unweighted mean (0.25 + 1.0) / 2 = 0.625.
        let run1 = AlgorithmMetrics::from_outcomes(
            "A",
            &[
                outcome(0, 1, 0.0, Some(100.0)),
                outcome(1, 2, 0.0, None),
                outcome(2, 3, 0.0, None),
                outcome(3, 0, 0.0, None),
            ],
        );
        let run2 = AlgorithmMetrics::from_outcomes("A", &[outcome(0, 1, 0.0, Some(200.0))]);
        let avg = AlgorithmMetrics::average_over_runs(&[run1, run2]).unwrap();
        assert_eq!(avg.messages, 5);
        assert_eq!(avg.delivered, 2);
        assert!((avg.success_rate - 0.4).abs() < 1e-12, "got {}", avg.success_rate);
        assert_eq!(avg.success_rate, avg.delivered as f64 / avg.messages as f64);
        // Empty runs do not divide by zero.
        let empty = AlgorithmMetrics::from_outcomes("A", &[]);
        let avg_empty = AlgorithmMetrics::average_over_runs(&[empty]).unwrap();
        assert_eq!(avg_empty.success_rate, 0.0);
    }

    #[test]
    fn pair_type_breakdown() {
        // Build rates where nodes 0, 1 are 'in' and 2, 3 are 'out'.
        let mut reg = NodeRegistry::new();
        for _ in 0..4 {
            reg.add(NodeClass::Mobile);
        }
        let contacts = vec![
            Contact::new(nid(0), nid(1), 0.0, 1.0).unwrap(),
            Contact::new(nid(0), nid(1), 2.0, 3.0).unwrap(),
            Contact::new(nid(0), nid(2), 4.0, 5.0).unwrap(),
        ];
        let trace =
            ContactTrace::from_contacts("m", reg, TimeWindow::new(0.0, 10.0), contacts).unwrap();
        let rates = ContactRates::from_trace(&trace);

        let outcomes = vec![
            outcome(0, 1, 0.0, Some(50.0)),  // in-in, delivered
            outcome(0, 3, 0.0, None),        // in-out, lost
            outcome(2, 1, 0.0, Some(150.0)), // out-in, delivered
            outcome(3, 2, 0.0, None),        // out-out, lost
            outcome(1, 0, 0.0, Some(70.0)),  // in-in, delivered
        ];
        let breakdown = PairTypeMetrics::from_outcomes("Test", &outcomes, &rates);
        assert_eq!(breakdown.get(PairType::InIn).messages, 2);
        assert_eq!(breakdown.get(PairType::InIn).delivered, 2);
        assert_eq!(breakdown.get(PairType::InOut).messages, 1);
        assert_eq!(breakdown.get(PairType::InOut).delivered, 0);
        assert_eq!(breakdown.get(PairType::OutIn).delivered, 1);
        assert_eq!(breakdown.get(PairType::OutOut).messages, 1);
        assert_eq!(breakdown.per_type.len(), 4);
    }
}
