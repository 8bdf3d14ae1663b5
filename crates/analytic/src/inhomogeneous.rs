//! Two-class (in/out) inhomogeneous model (paper §5.2).
//!
//! The homogeneous model predicts short optimal paths and immediate
//! explosion, which the data contradict. The paper's explanation is rate
//! heterogeneity: split the population at the median contact rate into 'in'
//! (high-rate) and 'out' (low-rate) nodes; then
//!
//! * if the source is an 'out' node, there is a waiting period of order
//!   `1/λ_σ` before the message reaches any high-rate node and fast
//!   explosion can begin, so **T₁ is large**;
//! * if the destination is an 'out' node, the explosion among high-rate
//!   nodes must still trickle to the low-rate destination at rate of order
//!   `λ_δ`, so **TE is large**;
//! * 'in'–'in' pairs see small T₁ and small TE, 'out'–'out' pairs see both
//!   large.
//!
//! [`TwoClassModel`] turns that reasoning into quantitative predictions
//! using the homogeneous closed forms within each phase: a waiting phase at
//! the source rate, an explosion phase at the 'in'-class rate, and a
//! delivery phase at the destination rate. The predictions are coarse by
//! design (the paper itself only argues qualitatively) but give the ordering
//! and rough magnitudes that the trace-driven experiments (Figs. 8 and 13)
//! are checked against.

use crate::generating_fn::expected_first_path_time;

/// The four source/destination class combinations of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairClass {
    /// High-rate source, high-rate destination.
    InIn,
    /// High-rate source, low-rate destination.
    InOut,
    /// Low-rate source, high-rate destination.
    OutIn,
    /// Low-rate source, low-rate destination.
    OutOut,
}

impl PairClass {
    /// All four classes in the paper's presentation order.
    pub fn all() -> [PairClass; 4] {
        [PairClass::InIn, PairClass::InOut, PairClass::OutIn, PairClass::OutOut]
    }

    /// Label used in reports ("in-in", "in-out", ...).
    pub fn label(&self) -> &'static str {
        match self {
            PairClass::InIn => "in-in",
            PairClass::InOut => "in-out",
            PairClass::OutIn => "out-in",
            PairClass::OutOut => "out-out",
        }
    }
}

impl std::fmt::Display for PairClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Qualitative/quantitative prediction for one pair class.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoClassPrediction {
    /// The pair class the prediction is for.
    pub class: PairClass,
    /// Predicted order of magnitude of the optimal path duration T₁
    /// (seconds).
    pub expected_t1: f64,
    /// Predicted order of magnitude of the time to explosion TE (seconds).
    pub expected_te: f64,
}

/// The two-class population model.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoClassModel {
    /// Contact rate of 'in' (high-rate) nodes, contacts per second.
    pub lambda_in: f64,
    /// Contact rate of 'out' (low-rate) nodes, contacts per second.
    pub lambda_out: f64,
    /// Number of 'in' nodes.
    pub n_in: usize,
    /// Number of 'out' nodes.
    pub n_out: usize,
    /// Number of paths that defines "explosion" (2000 in the paper).
    pub explosion_threshold: usize,
}

impl TwoClassModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics unless `lambda_in > lambda_out > 0` and both class sizes are
    /// at least one.
    pub fn new(
        lambda_in: f64,
        lambda_out: f64,
        n_in: usize,
        n_out: usize,
        explosion_threshold: usize,
    ) -> Self {
        assert!(lambda_out > 0.0, "out-class rate must be positive");
        assert!(lambda_in > lambda_out, "'in' nodes must have the higher rate");
        assert!(n_in >= 1 && n_out >= 1, "both classes must be populated");
        assert!(explosion_threshold >= 1);
        Self { lambda_in, lambda_out, n_in, n_out, explosion_threshold }
    }

    /// Builds the model from a set of per-node contact rates, splitting at
    /// the median exactly as the trace analysis does.
    pub fn from_rates(rates: &[f64], explosion_threshold: usize) -> Option<Self> {
        if rates.len() < 2 || rates.iter().any(|r| !r.is_finite() || *r < 0.0) {
            return None;
        }
        let mut sorted = rates.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = sorted[sorted.len() / 2];
        let (out, inn): (Vec<f64>, Vec<f64>) = sorted.iter().partition(|&&r| r <= median);
        if out.is_empty() || inn.is_empty() {
            return None;
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let lambda_in = mean(&inn);
        let lambda_out = mean(&out).max(1e-9);
        if lambda_in <= lambda_out {
            return None;
        }
        Some(Self { lambda_in, lambda_out, n_in: inn.len(), n_out: out.len(), explosion_threshold })
    }

    /// Time for the message to first move from a low-rate source into the
    /// high-rate core, of order `1/λ_out` (paper §5.2: "the time until
    /// high-rate path explosion occurs is on the order of 1/λᵢ").
    pub fn escape_time(&self) -> f64 {
        1.0 / self.lambda_out
    }

    /// Time for the explosion to accumulate `explosion_threshold` paths once
    /// it proceeds at rate λ among a subset of the population: the
    /// homogeneous model gives path counts growing like `e^{λt}/N`, so the
    /// threshold is crossed after `ln(threshold · N)/λ`.
    fn explosion_ramp(&self, lambda: f64, population: usize) -> f64 {
        ((self.explosion_threshold as f64 * population as f64).ln()) / lambda
    }

    /// Time for an ongoing high-rate explosion to reach a low-rate
    /// destination, of order `1/λ_out`.
    pub fn delivery_trickle_time(&self) -> f64 {
        1.0 / self.lambda_out
    }

    /// The model's T₁/TE prediction for one pair class.
    pub fn predict(&self, class: PairClass) -> TwoClassPrediction {
        let n_total = self.n_in + self.n_out;
        let fast_first = expected_first_path_time(n_total, self.lambda_in);
        let fast_ramp = self.explosion_ramp(self.lambda_in, self.n_in);

        let (expected_t1, expected_te) = match class {
            // High-rate source and destination: explosion starts at once and
            // reaches the destination during the fast ramp.
            PairClass::InIn => (fast_first, fast_ramp),
            // High-rate source, low-rate destination: first path is fast but
            // the destination only samples the explosion at its own rate.
            PairClass::InOut => (
                fast_first + self.delivery_trickle_time() * 0.5,
                fast_ramp + self.delivery_trickle_time(),
            ),
            // Low-rate source: long wait before the high-rate core is
            // reached, then a fast explosion ending at a fast destination.
            PairClass::OutIn => (self.escape_time() + fast_first, fast_ramp),
            // Both low-rate: wait to escape and wait to deliver.
            PairClass::OutOut => (
                self.escape_time() + fast_first + self.delivery_trickle_time() * 0.5,
                fast_ramp + self.delivery_trickle_time(),
            ),
        };
        TwoClassPrediction { class, expected_t1, expected_te }
    }

    /// Predictions for all four classes.
    pub fn predict_all(&self) -> Vec<TwoClassPrediction> {
        PairClass::all().into_iter().map(|c| self.predict(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TwoClassModel {
        // Roughly Infocom-like: in-rate ~ 0.03/s, out-rate ~ 0.006/s.
        TwoClassModel::new(0.03, 0.006, 49, 49, 2000)
    }

    #[test]
    fn pair_class_labels_and_order() {
        let labels: Vec<&str> = PairClass::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["in-in", "in-out", "out-in", "out-out"]);
        assert_eq!(PairClass::InOut.to_string(), "in-out");
    }

    #[test]
    fn predictions_reproduce_the_papers_ordering() {
        let m = model();
        let p: std::collections::HashMap<PairClass, TwoClassPrediction> =
            m.predict_all().into_iter().map(|p| (p.class, p)).collect();

        // T1: out-source pairs are slower than in-source pairs.
        assert!(p[&PairClass::OutIn].expected_t1 > p[&PairClass::InIn].expected_t1);
        assert!(p[&PairClass::OutOut].expected_t1 > p[&PairClass::InOut].expected_t1);
        // TE: out-destination pairs are slower than in-destination pairs.
        assert!(p[&PairClass::InOut].expected_te > p[&PairClass::InIn].expected_te);
        assert!(p[&PairClass::OutOut].expected_te > p[&PairClass::OutIn].expected_te);
        // in-in is the best case on both axes; out-out the worst on both.
        for class in [PairClass::InOut, PairClass::OutIn, PairClass::OutOut] {
            assert!(p[&class].expected_t1 >= p[&PairClass::InIn].expected_t1);
            assert!(p[&class].expected_te >= p[&PairClass::InIn].expected_te);
            assert!(p[&PairClass::OutOut].expected_t1 >= p[&class].expected_t1 - 1e-9);
            assert!(p[&PairClass::OutOut].expected_te >= p[&class].expected_te - 1e-9);
        }
    }

    #[test]
    fn t1_can_exceed_te_by_an_order_of_magnitude_for_out_sources() {
        // The paper's headline observation: optimal path duration can be an
        // order of magnitude larger than the time to explosion. That arises
        // for out-in pairs when the out-rate is much smaller than the
        // in-rate.
        let m = TwoClassModel::new(0.04, 0.002, 49, 49, 2000);
        let p = m.predict(PairClass::OutIn);
        assert!(
            p.expected_t1 > 1.5 * p.expected_te,
            "T1 {} should exceed TE {}",
            p.expected_t1,
            p.expected_te
        );
    }

    #[test]
    fn from_rates_splits_at_median() {
        let rates: Vec<f64> = (1..=10).map(|i| i as f64 * 0.004).collect();
        let m = TwoClassModel::from_rates(&rates, 500).unwrap();
        assert_eq!(m.n_in + m.n_out, 10);
        assert!(m.lambda_in > m.lambda_out);
        assert_eq!(m.explosion_threshold, 500);
    }

    #[test]
    fn from_rates_rejects_degenerate_inputs() {
        assert!(TwoClassModel::from_rates(&[0.01], 100).is_none());
        assert!(TwoClassModel::from_rates(&[0.01, 0.01, 0.01], 100).is_none());
        assert!(TwoClassModel::from_rates(&[0.01, f64::NAN], 100).is_none());
    }

    #[test]
    fn escape_time_scales_inversely_with_out_rate() {
        let slow = TwoClassModel::new(0.03, 0.002, 10, 10, 100);
        let fast = TwoClassModel::new(0.03, 0.01, 10, 10, 100);
        assert!(slow.escape_time() > fast.escape_time());
    }

    #[test]
    #[should_panic]
    fn rejects_in_rate_below_out_rate() {
        TwoClassModel::new(0.001, 0.01, 5, 5, 100);
    }
}
