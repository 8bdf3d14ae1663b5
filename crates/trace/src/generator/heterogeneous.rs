//! Heterogeneous contact-trace generator.
//!
//! The paper's central empirical observation (§5.2, Fig. 7) is that per-node
//! contact rates are *not* homogeneous: the distribution of per-node contact
//! counts over a 3-hour window is approximately uniform on `(0, max)`. Some
//! nodes meet hundreds of others, some almost none.
//!
//! This generator reproduces that structure with a simple multiplicative
//! model: each node `i` is assigned a contact *propensity* `p_i` drawn
//! uniformly from `(0, 1)`, and the pairwise contact process of `(i, j)` is
//! Poisson with rate proportional to `p_i · p_j`. The proportionality
//! constant is chosen so that the *maximum* per-node rate matches the
//! configured `max_node_rate`; per-node total rates then inherit an
//! approximately uniform distribution because `λ_i = c · p_i · Σ_{j≠i} p_j`
//! is linear in `p_i`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::contact::Contact;
use crate::node::{NodeId, NodeRegistry};
use crate::trace::{ContactTrace, TimeWindow};

use super::config::{assert_valid, HeterogeneousConfig};
use super::sampling::{exponential, poisson_process};

/// Generates a heterogeneous-rate contact trace according to `config`.
///
/// # Panics
///
/// Panics when [`HeterogeneousConfig::validate`] rejects the
/// configuration.
pub fn generate_heterogeneous(config: &HeterogeneousConfig) -> ContactTrace {
    assert_valid(config.validate());

    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.nodes;

    // Per-node propensities uniform on (0, 1); a tiny floor avoids
    // completely isolated nodes, like the real traces where even the
    // quietest device logs at least a handful of contacts.
    let propensities: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0)).collect();

    let trace = build_product_rate_trace(
        &mut rng,
        &propensities,
        config.max_node_rate,
        config.window_seconds,
        config.mean_contact_duration,
        format!("heterogeneous-n{}-seed{}", n, config.seed),
        NodeRegistry::with_counts(n, 0),
    );
    trace
}

/// Shared core of the heterogeneous and conference generators: given
/// per-node propensities, builds pairwise Poisson contact processes with
/// rate proportional to the propensity product, scaled so the largest
/// per-node rate equals `max_node_rate`.
pub(crate) fn build_product_rate_trace<R: Rng + ?Sized>(
    rng: &mut R,
    propensities: &[f64],
    max_node_rate: f64,
    window_seconds: f64,
    mean_contact_duration: f64,
    name: String,
    registry: NodeRegistry,
) -> ContactTrace {
    let n = propensities.len();
    assert_eq!(registry.len(), n, "registry and propensity vector must agree");

    let total: f64 = propensities.iter().sum();
    // Node i's total rate under scale c is c * p_i * (total - p_i); choose c
    // so the maximum over i equals max_node_rate.
    let max_unscaled = propensities.iter().map(|&p| p * (total - p)).fold(0.0_f64, f64::max);
    assert!(max_unscaled > 0.0, "propensities must not be all zero");
    let scale = max_node_rate / max_unscaled;

    let duration_rate = 1.0 / mean_contact_duration;
    let mut contacts = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let pair_rate = scale * propensities[i] * propensities[j];
            if pair_rate <= 0.0 {
                continue;
            }
            for start in poisson_process(rng, pair_rate, window_seconds) {
                let duration = exponential(rng, duration_rate);
                let end = (start + duration).min(window_seconds);
                contacts.push(
                    Contact::new(NodeId(i as u32), NodeId(j as u32), start, end).unwrap_or_else(
                        |e| unreachable!("generated contacts are valid by construction: {e}"),
                    ),
                );
            }
        }
    }

    ContactTrace::from_contacts(name, registry, TimeWindow::new(0.0, window_seconds), contacts)
        .unwrap_or_else(|e| unreachable!("generated contacts lie inside the window: {e}"))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::rates::ContactRates;
    use psn_stats::Summary;

    fn config(seed: u64) -> HeterogeneousConfig {
        HeterogeneousConfig {
            nodes: 60,
            window_seconds: 3.0 * 3600.0,
            max_node_rate: 0.04,
            mean_contact_duration: 90.0,
            seed,
        }
    }

    #[test]
    fn rates_are_heterogeneous() {
        let trace = generate_heterogeneous(&config(2));
        let rates = ContactRates::from_trace(&trace);
        let summary = Summary::from_slice(rates.rates());
        let mean = summary.mean().unwrap();
        let sd = summary.std_dev().unwrap();
        // Uniform-like spread: coefficient of variation well above the
        // Poisson-only noise level of a homogeneous population.
        assert!(sd / mean > 0.3, "cv = {}", sd / mean);
    }

    #[test]
    fn count_distribution_is_roughly_uniform() {
        let trace = generate_heterogeneous(&config(5));
        let rates = ContactRates::from_trace(&trace);
        let ks = rates.uniformity_ks().unwrap();
        assert!(ks < 0.25, "KS distance to uniform = {ks}");
    }

    #[test]
    fn max_rate_is_close_to_configured_maximum() {
        let cfg = config(9);
        let trace = generate_heterogeneous(&cfg);
        let rates = ContactRates::from_trace(&trace);
        let max_rate = rates.rates().iter().copied().fold(0.0_f64, f64::max);
        assert!(
            (max_rate - cfg.max_node_rate).abs() < 0.4 * cfg.max_node_rate,
            "max rate {max_rate} vs configured {}",
            cfg.max_node_rate
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_heterogeneous(&config(3));
        let b = generate_heterogeneous(&config(3));
        assert_eq!(a.contacts(), b.contacts());
    }

    #[test]
    fn in_out_split_is_balanced() {
        let trace = generate_heterogeneous(&config(4));
        let rates = ContactRates::from_trace(&trace);
        let in_count = rates.in_nodes().len();
        let out_count = rates.out_nodes().len();
        assert_eq!(in_count + out_count, 60);
        // The median split should be close to half/half.
        assert!((in_count as i64 - out_count as i64).abs() <= 2);
    }

    #[test]
    #[should_panic]
    fn rejects_degenerate_config() {
        generate_heterogeneous(&HeterogeneousConfig { nodes: 0, ..config(1) });
    }
}
