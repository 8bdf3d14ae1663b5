//! Stream-native scenario sources.
//!
//! [`ScenarioConfig::generate`] materializes the full contact list before
//! the streaming pipeline can adapt it through
//! [`crate::stream::TraceEventStream`], so a "streaming" study still paid
//! O(contacts) memory at the source. [`ScenarioConfig::stream`] closes that
//! gap: every scenario family is exposed directly as a slot-ordered
//! [`ContactStream`] whose state is bounded by the *population* (pair
//! cursors plus the k-way merge heap), never by the trace length.
//!
//! # Bit-identity contract
//!
//! The stream is pinned **event-identical** to `TraceEventStream` over the
//! materialized trace for every family × seed (property-tested in this
//! module). That works because the generators are deterministic RNG
//! programs with a fixed draw order:
//!
//! 1. **Replay phase** (construction): the generator's exact draw sequence
//!    is replayed once on the master RNG *without storing contacts*. At the
//!    point where each pair's draws begin, cheap 32-byte RNG cursors are
//!    cloned — one positioned at the pair's arrival draws, one at its
//!    duration draws (and, for the thinned conference process, one at its
//!    thinning draws). Pairs that produce no contacts are discarded.
//! 2. **Merge phase** (iteration): each retained pair re-draws its contacts
//!    lazily from its cursors — arrivals and durations advance in lockstep,
//!    reproducing the interleaved draw order bit for bit — and a min-heap
//!    merges pairs on the exact total order [`ContactTrace`]`::sort` uses:
//!    `(start, end, a, b)`. Within a pair, starts are strictly increasing
//!    (exponential inter-arrivals are positive), so the merge output equals
//!    the sorted contact list of the materialized trace.
//!
//! The `scaled` family needs no merge at all: its generator samples the
//! aggregate superposition process in time order, so the stream replays the
//! single RNG loop directly in O(nodes) state. The conference family's
//! optional inquiry-scan observation model is composed on top as a bounded
//! reorder buffer: scan-aligned starts are monotone in ground-truth starts,
//! so contacts are bucketed per scan instant, sorted within the bucket, and
//! flushed as soon as a later scan instant arrives.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::contact::Contact;
use crate::generator::community::community_of;
use crate::generator::config::{
    ActivityProfile, CommunityConfig, ConferenceConfig, HeterogeneousConfig, HomogeneousConfig,
    ScaledConfig,
};
use crate::generator::sampling::{exponential, lognormal_mean_cv};
use crate::generator::scaled::sample_node;
use crate::generator::ConferenceTraceGenerator;
use crate::node::NodeId;
use crate::scenario::ScenarioConfig;
use crate::stream::{ContactEvent, ContactStream, StreamError};
use crate::trace::TimeWindow;
use crate::Seconds;

/// How a family draws contact durations once a start is accepted.
#[derive(Debug, Clone, Copy)]
enum DurationModel {
    /// Exponential durations (homogeneous, heterogeneous, scaled).
    Exponential {
        /// `1 / mean_contact_duration`.
        rate: f64,
    },
    /// Log-normal durations (community, conference). `cv == 0` consumes no
    /// draws, exactly like [`lognormal_mean_cv`].
    Lognormal { mean: f64, cv: f64 },
}

impl DurationModel {
    fn draw(self, rng: &mut StdRng) -> f64 {
        match self {
            DurationModel::Exponential { rate } => exponential(rng, rate),
            DurationModel::Lognormal { mean, cv } => lognormal_mean_cv(rng, mean, cv),
        }
    }
}

/// One pair's lazy contact iterator: RNG cursors positioned at the pair's
/// arrival / thinning / duration draws of the generator's master sequence.
#[derive(Debug)]
struct PairCursor {
    a: u32,
    b: u32,
    /// Rate of the arrival process — the pair rate, boosted by the activity
    /// profile's maximum multiplier for thinned (conference) pairs.
    arrival_rate: f64,
    /// Running arrival time of the pair's Poisson process.
    t: f64,
    starts_rng: StdRng,
    /// Present only for thinned (conference) pairs: one uniform per
    /// candidate arrival, in candidate order.
    thin_rng: Option<StdRng>,
    durs_rng: StdRng,
}

impl PairCursor {
    /// Re-draws the pair's next surviving contact, or `None` once its
    /// arrival process leaves the window.
    fn next_contact(
        &mut self,
        horizon: Seconds,
        duration: DurationModel,
        thinning: Option<&(ActivityProfile, f64)>,
    ) -> Option<Contact> {
        loop {
            self.t += exponential(&mut self.starts_rng, self.arrival_rate);
            if self.t >= horizon {
                return None;
            }
            if let Some(thin_rng) = self.thin_rng.as_mut() {
                let (activity, max_mod) = thinning
                    .unwrap_or_else(|| unreachable!("thinned cursors carry an activity profile"));
                let m = activity.multiplier(self.t, horizon);
                if thin_rng.gen_range(0.0..1.0) >= m / max_mod {
                    continue;
                }
            }
            let end = (self.t + duration.draw(&mut self.durs_rng)).min(horizon);
            let contact = Contact::new(NodeId(self.a), NodeId(self.b), self.t, end)
                .unwrap_or_else(|e| unreachable!("replayed contacts are valid: {e}"));
            return Some(contact);
        }
    }
}

/// Heap entry ordering pairs on the next contact's full sort key — the
/// exact `(start, end, a, b)` total order of [`crate::trace::ContactTrace`]
/// `::sort`, so the merge reproduces the materialized contact order.
#[derive(Debug, Clone, Copy)]
struct MergeEntry {
    contact: Contact,
    cursor: usize,
}

impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let (x, y) = (&self.contact, &other.contact);
        x.start
            .total_cmp(&y.start)
            .then(x.end.total_cmp(&y.end))
            .then(x.a.cmp(&y.a))
            .then(x.b.cmp(&y.b))
            .then(self.cursor.cmp(&other.cursor))
    }
}

impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for MergeEntry {}

/// K-way merge over per-pair cursors for the product-rate families.
#[derive(Debug)]
struct PairMergeSource {
    horizon: Seconds,
    duration: DurationModel,
    /// `Some((profile, max_multiplier))` for the conference family.
    thinning: Option<(ActivityProfile, f64)>,
    cursors: Vec<PairCursor>,
    heap: BinaryHeap<Reverse<MergeEntry>>,
}

impl PairMergeSource {
    fn new(
        horizon: Seconds,
        duration: DurationModel,
        thinning: Option<(ActivityProfile, f64)>,
        mut cursors: Vec<PairCursor>,
    ) -> Self {
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (idx, cursor) in cursors.iter_mut().enumerate() {
            if let Some(contact) = cursor.next_contact(horizon, duration, thinning.as_ref()) {
                heap.push(Reverse(MergeEntry { contact, cursor: idx }));
            }
        }
        Self { horizon, duration, thinning, cursors, heap }
    }

    fn next_contact(&mut self) -> Option<Contact> {
        let Reverse(entry) = self.heap.pop()?;
        let cursor = &mut self.cursors[entry.cursor];
        if let Some(contact) =
            cursor.next_contact(self.horizon, self.duration, self.thinning.as_ref())
        {
            self.heap.push(Reverse(MergeEntry { contact, cursor: entry.cursor }));
        }
        Some(entry.contact)
    }

    /// Bytes held by the merge state — pair cursors plus the heap.
    fn approx_bytes(&self) -> usize {
        self.cursors.capacity() * std::mem::size_of::<PairCursor>()
            + self.heap.capacity() * std::mem::size_of::<Reverse<MergeEntry>>()
    }
}

/// Direct replay of the scaled generator's aggregate, time-ordered loop.
#[derive(Debug)]
struct ScaledSource {
    rng: StdRng,
    t: f64,
    horizon: Seconds,
    aggregate_rate: f64,
    duration_rate: f64,
    /// Propensity prefix sums for inverse-CDF pair attribution.
    prefix: Vec<f64>,
    done: bool,
}

impl ScaledSource {
    fn next_contact(&mut self) -> Option<Contact> {
        if self.done {
            return None;
        }
        self.t += exponential(&mut self.rng, self.aggregate_rate);
        if self.t >= self.horizon {
            self.done = true;
            return None;
        }
        let (i, j) = loop {
            let i = sample_node(&mut self.rng, &self.prefix);
            let j = sample_node(&mut self.rng, &self.prefix);
            if i != j {
                break (i, j);
            }
        };
        let duration = exponential(&mut self.rng, self.duration_rate);
        let end = (self.t + duration).min(self.horizon);
        let contact = Contact::new(NodeId(i as u32), NodeId(j as u32), self.t, end)
            .unwrap_or_else(|e| unreachable!("replayed contacts are valid: {e}"));
        Some(contact)
    }

    fn approx_bytes(&self) -> usize {
        self.prefix.capacity() * std::mem::size_of::<f64>()
    }
}

/// Streaming composition of the inquiry-scan observation model over the
/// conference merge: scan-aligned starts are monotone in ground-truth
/// starts, so mapped contacts are bucketed per scan instant and each bucket
/// is sorted and flushed once a later instant arrives. The buffer is
/// bounded by the contacts mapped to one scan instant, matching the
/// re-sort `apply_inquiry_scan` performs via `from_contacts`.
#[derive(Debug)]
struct ScanSource {
    inner: PairMergeSource,
    period: Seconds,
    window_end: Seconds,
    /// Scan instant the current bucket accumulates (meaningful only while
    /// `bucket` is non-empty).
    bucket_grid: Seconds,
    bucket: Vec<Contact>,
    emit: VecDeque<Contact>,
    inner_done: bool,
}

impl ScanSource {
    fn new(inner: PairMergeSource, period: Seconds, window_end: Seconds) -> Self {
        assert!(period > 0.0, "scan period must be positive");
        Self {
            inner,
            period,
            window_end,
            bucket_grid: 0.0,
            bucket: Vec::new(),
            emit: VecDeque::new(),
            inner_done: false,
        }
    }

    fn flush_bucket(&mut self) {
        self.bucket.sort_by(|x, y| {
            x.start
                .total_cmp(&y.start)
                .then(x.end.total_cmp(&y.end))
                .then(x.a.cmp(&y.a))
                .then(x.b.cmp(&y.b))
        });
        self.emit.extend(self.bucket.drain(..));
    }

    fn next_contact(&mut self) -> Option<Contact> {
        loop {
            if let Some(c) = self.emit.pop_front() {
                return Some(c);
            }
            if self.inner_done {
                if self.bucket.is_empty() {
                    return None;
                }
                self.flush_bucket();
                continue;
            }
            match self.inner.next_contact() {
                None => {
                    self.inner_done = true;
                }
                Some(c) => {
                    // The exact arithmetic of `apply_inquiry_scan`.
                    let first_scan = (c.start / self.period).ceil() * self.period;
                    if first_scan > c.end || first_scan >= self.window_end {
                        continue; // unobserved by any scan
                    }
                    let last_scan = (c.end / self.period).floor() * self.period;
                    let observed_end = (last_scan + self.period).min(self.window_end);
                    let mapped = Contact::new(c.a, c.b, first_scan, observed_end.max(first_scan))
                        .unwrap_or_else(|e| {
                            unreachable!("scan-aligned contacts remain valid: {e}")
                        });
                    debug_assert!(
                        self.bucket.is_empty() || first_scan >= self.bucket_grid,
                        "scan instants regress"
                    );
                    if !self.bucket.is_empty() && first_scan > self.bucket_grid {
                        self.flush_bucket();
                    }
                    self.bucket_grid = first_scan;
                    self.bucket.push(mapped);
                }
            }
        }
    }

    fn approx_bytes(&self) -> usize {
        self.inner.approx_bytes()
            + (self.bucket.capacity() + self.emit.capacity()) * std::mem::size_of::<Contact>()
    }
}

#[derive(Debug)]
enum ScenarioSource {
    Pairs(PairMergeSource),
    Scaled(ScaledSource),
    Scan(ScanSource),
}

impl ScenarioSource {
    fn next_contact(&mut self) -> Option<Contact> {
        match self {
            ScenarioSource::Pairs(s) => s.next_contact(),
            ScenarioSource::Scaled(s) => s.next_contact(),
            ScenarioSource::Scan(s) => s.next_contact(),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            ScenarioSource::Pairs(s) => s.approx_bytes(),
            ScenarioSource::Scaled(s) => s.approx_bytes(),
            ScenarioSource::Scan(s) => s.approx_bytes(),
        }
    }
}

/// A scenario family exposed directly as a slot-ordered [`ContactStream`] —
/// no [`crate::trace::ContactTrace`] is ever materialized. State is bounded
/// by the population (pair cursors + merge heap + pending downs), not the
/// trace length.
#[derive(Debug)]
pub struct ScenarioContactStream {
    node_count: usize,
    window: TimeWindow,
    delta: Seconds,
    source: ScenarioSource,
    pending: Option<Contact>,
    sequencer: crate::stream::EventSequencer,
}

impl ScenarioContactStream {
    /// Bytes held by the source's generator state (cursors, merge heap,
    /// reorder buffers) — the working set a streaming study should account
    /// against its budget.
    pub fn approx_bytes(&self) -> usize {
        self.source.approx_bytes()
    }
}

impl ContactStream for ScenarioContactStream {
    fn node_count(&self) -> usize {
        self.node_count
    }

    fn window(&self) -> TimeWindow {
        self.window
    }

    fn delta(&self) -> Seconds {
        self.delta
    }

    fn next_event(&mut self) -> Result<Option<ContactEvent>, StreamError> {
        if self.pending.is_none() {
            self.pending = self.source.next_contact();
        }
        let (event, consumed) = self.sequencer.step(self.pending.as_ref())?;
        if consumed {
            self.pending = None;
        }
        Ok(event)
    }
}

/// Replays the shared product-rate pair loop (heterogeneous, community,
/// conference without thinning is *not* handled here — see
/// [`conference_cursors`]), snapshotting cursors for pairs that produce at
/// least one contact. `pair_rate_of(i, j) <= 0` skips the pair without
/// consuming draws, exactly like the generators.
fn replay_plain_pairs(
    rng: &mut StdRng,
    n: usize,
    horizon: Seconds,
    duration: DurationModel,
    pair_rate_of: impl Fn(usize, usize) -> f64,
) -> Vec<PairCursor> {
    let mut cursors = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let rate = pair_rate_of(i, j);
            if rate <= 0.0 {
                continue;
            }
            let starts_rng = rng.clone();
            let mut t = 0.0;
            let mut starts = 0usize;
            loop {
                t += exponential(rng, rate);
                if t >= horizon {
                    break;
                }
                starts += 1;
            }
            let durs_rng = rng.clone();
            for _ in 0..starts {
                duration.draw(rng);
            }
            if starts > 0 {
                cursors.push(PairCursor {
                    a: i as u32,
                    b: j as u32,
                    arrival_rate: rate,
                    t: 0.0,
                    starts_rng,
                    thin_rng: None,
                    durs_rng,
                });
            }
        }
    }
    cursors
}

fn homogeneous_source(config: &HomogeneousConfig) -> PairMergeSource {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pair_rate = config.node_contact_rate / (config.nodes as f64 - 1.0);
    let duration = DurationModel::Exponential { rate: 1.0 / config.mean_contact_duration };
    let cursors =
        replay_plain_pairs(&mut rng, config.nodes, config.window_seconds, duration, |_, _| {
            pair_rate
        });
    PairMergeSource::new(config.window_seconds, duration, None, cursors)
}

fn heterogeneous_source(config: &HeterogeneousConfig) -> PairMergeSource {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let propensities: Vec<f64> = (0..config.nodes).map(|_| rng.gen_range(0.01..1.0)).collect();
    let total: f64 = propensities.iter().sum();
    let max_unscaled = propensities.iter().map(|&p| p * (total - p)).fold(0.0_f64, f64::max);
    assert!(max_unscaled > 0.0, "propensities must not be all zero");
    let scale = config.max_node_rate / max_unscaled;
    let duration = DurationModel::Exponential { rate: 1.0 / config.mean_contact_duration };
    let cursors =
        replay_plain_pairs(&mut rng, config.nodes, config.window_seconds, duration, |i, j| {
            scale * propensities[i] * propensities[j]
        });
    PairMergeSource::new(config.window_seconds, duration, None, cursors)
}

fn community_source(config: &CommunityConfig) -> PairMergeSource {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.total_nodes();
    let inter_weight = 1.0 / config.intra_inter_ratio;
    let propensities: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..1.0)).collect();
    let mut totals = vec![0.0f64; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let same =
                community_of(config, NodeId(i as u32)) == community_of(config, NodeId(j as u32));
            let w = propensities[i] * propensities[j] * if same { 1.0 } else { inter_weight };
            totals[i] += w;
            totals[j] += w;
        }
    }
    let max_total = totals.iter().copied().fold(0.0_f64, f64::max);
    assert!(max_total > 0.0, "community configuration produced no contact weight");
    let scale = config.max_node_rate / max_total;
    let duration = DurationModel::Lognormal {
        mean: config.mean_contact_duration,
        cv: config.contact_duration_cv,
    };
    let cursors = replay_plain_pairs(&mut rng, n, config.window_seconds, duration, |i, j| {
        let same = community_of(config, NodeId(i as u32)) == community_of(config, NodeId(j as u32));
        scale * propensities[i] * propensities[j] * if same { 1.0 } else { inter_weight }
    });
    PairMergeSource::new(config.window_seconds, duration, None, cursors)
}

fn conference_source(config: &ConferenceConfig) -> PairMergeSource {
    let generator = ConferenceTraceGenerator::new(config.clone());
    let c = generator.config();
    let mut rng = StdRng::seed_from_u64(c.seed);
    let propensities = generator.draw_propensities(&mut rng);
    let n = propensities.len();
    let total: f64 = propensities.iter().sum();
    let max_unscaled = propensities.iter().map(|&p| p * (total - p)).fold(0.0_f64, f64::max);
    let scale = c.max_node_rate / max_unscaled;
    let max_mod = c.activity.max_multiplier();
    let duration =
        DurationModel::Lognormal { mean: c.mean_contact_duration, cv: c.contact_duration_cv };

    let mut cursors = Vec::new();
    // Reused candidate-time scratch; bounded by one pair's candidates.
    let mut candidates: Vec<f64> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let pair_rate = scale * propensities[i] * propensities[j];
            if pair_rate <= 0.0 {
                continue;
            }
            let boosted = pair_rate * max_mod;
            let starts_rng = rng.clone();
            candidates.clear();
            let mut t = 0.0;
            loop {
                t += exponential(&mut rng, boosted);
                if t >= c.window_seconds {
                    break;
                }
                candidates.push(t);
            }
            let thin_rng = rng.clone();
            let mut accepted = 0usize;
            for &ct in &candidates {
                let m = c.activity.multiplier(ct, c.window_seconds);
                if rng.gen_range(0.0..1.0) < m / max_mod {
                    accepted += 1;
                }
            }
            let durs_rng = rng.clone();
            for _ in 0..accepted {
                duration.draw(&mut rng);
            }
            if accepted > 0 {
                cursors.push(PairCursor {
                    a: i as u32,
                    b: j as u32,
                    arrival_rate: boosted,
                    t: 0.0,
                    starts_rng,
                    thin_rng: Some(thin_rng),
                    durs_rng,
                });
            }
        }
    }
    PairMergeSource::new(c.window_seconds, duration, Some((c.activity.clone(), max_mod)), cursors)
}

fn scaled_source(config: &ScaledConfig) -> ScaledSource {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let floor = (config.min_node_rate / config.max_node_rate).max(1e-3);
    let propensities: Vec<f64> = (0..config.nodes).map(|_| rng.gen_range(floor..1.0)).collect();
    let total: f64 = propensities.iter().sum();
    let max_unscaled = propensities.iter().map(|&p| p * (total - p)).fold(0.0_f64, f64::max);
    let scale = config.max_node_rate / max_unscaled;
    let sum_sq: f64 = propensities.iter().map(|&p| p * p).sum();
    let aggregate_rate = scale * (total * total - sum_sq) / 2.0;
    let mut prefix = Vec::with_capacity(config.nodes);
    let mut acc = 0.0;
    for &p in &propensities {
        acc += p;
        prefix.push(acc);
    }
    ScaledSource {
        rng,
        t: 0.0,
        horizon: config.window_seconds,
        aggregate_rate,
        duration_rate: 1.0 / config.mean_contact_duration,
        prefix,
        done: false,
    }
}

impl ScenarioConfig {
    /// Exposes the scenario as a slot-ordered [`ContactStream`] at
    /// discretization step `delta`, without materializing a
    /// [`crate::trace::ContactTrace`]. The event sequence is bit-identical
    /// to [`crate::stream::TraceEventStream`] over [`Self::generate`] for
    /// every family and seed.
    ///
    /// # Panics
    ///
    /// Panics when [`ScenarioConfig::validate`] rejects the configuration
    /// (the generators' rule set), and if `delta` is not strictly positive
    /// and finite.
    pub fn stream(&self, delta: Seconds) -> ScenarioContactStream {
        crate::generator::config::assert_valid(self.validate());
        let window = TimeWindow::new(0.0, self.window_seconds());
        let source = match self {
            ScenarioConfig::Conference(c) => {
                let merged = conference_source(c);
                match c.inquiry_scan_period {
                    Some(period) => {
                        ScenarioSource::Scan(ScanSource::new(merged, period, window.end))
                    }
                    None => ScenarioSource::Pairs(merged),
                }
            }
            ScenarioConfig::Homogeneous(c) => ScenarioSource::Pairs(homogeneous_source(c)),
            ScenarioConfig::Heterogeneous(c) => ScenarioSource::Pairs(heterogeneous_source(c)),
            ScenarioConfig::Community(c) => ScenarioSource::Pairs(community_source(c)),
            ScenarioConfig::Scaled(c) => ScenarioSource::Scaled(scaled_source(c)),
        };
        ScenarioContactStream {
            node_count: self.node_count(),
            window,
            delta,
            source,
            pending: None,
            sequencer: crate::stream::EventSequencer::new(window, delta),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::stream::TraceEventStream;
    use proptest::prelude::*;

    fn drain(stream: &mut impl ContactStream) -> Vec<ContactEvent> {
        let mut events = Vec::new();
        while let Some(event) = stream.next_event().unwrap() {
            events.push(event);
        }
        events
    }

    /// The pin: a family's stream source is event-identical to
    /// `TraceEventStream` over its materialized trace.
    fn assert_stream_matches_trace(scenario: &ScenarioConfig, delta: Seconds) {
        let trace = scenario.generate();
        let expected = drain(&mut TraceEventStream::new(&trace, delta));
        let mut stream = scenario.stream(delta);
        assert_eq!(stream.node_count(), trace.node_count(), "{}", scenario.name());
        assert_eq!(stream.window(), trace.window(), "{}", scenario.name());
        assert_eq!(stream.slot_count(), TraceEventStream::new(&trace, delta).slot_count());
        let got = drain(&mut stream);
        assert_eq!(
            got.len(),
            expected.len(),
            "{}: event count mismatch ({} contacts materialized)",
            scenario.name(),
            trace.contact_count()
        );
        for (idx, (g, e)) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(g, e, "{}: event {idx} diverges", scenario.name());
        }
    }

    fn families(seed: u64) -> Vec<ScenarioConfig> {
        vec![
            ScenarioConfig::Conference(ConferenceConfig {
                name: format!("stream-conf-{seed}"),
                mobile_nodes: 18,
                stationary_nodes: 4,
                window_seconds: 2400.0,
                max_node_rate: 0.03,
                min_node_rate: 0.0005,
                stationary_rate_factor: 1.2,
                mean_contact_duration: 90.0,
                contact_duration_cv: 0.8,
                activity: ActivityProfile::Piecewise(vec![1.0, 1.6, 0.7]),
                inquiry_scan_period: None,
                seed,
            }),
            ScenarioConfig::Homogeneous(HomogeneousConfig {
                nodes: 16,
                window_seconds: 2400.0,
                node_contact_rate: 0.02,
                mean_contact_duration: 60.0,
                seed,
            }),
            ScenarioConfig::Heterogeneous(HeterogeneousConfig {
                nodes: 20,
                window_seconds: 2400.0,
                max_node_rate: 0.04,
                mean_contact_duration: 90.0,
                seed,
            }),
            ScenarioConfig::Community(CommunityConfig {
                name: format!("stream-community-{seed}"),
                communities: 3,
                nodes_per_community: 6,
                window_seconds: 2400.0,
                max_node_rate: 0.04,
                intra_inter_ratio: 6.0,
                mean_contact_duration: 100.0,
                contact_duration_cv: 0.9,
                seed,
            }),
            ScenarioConfig::Scaled(ScaledConfig {
                name: format!("stream-scaled-{seed}"),
                nodes: 80,
                window_seconds: 1200.0,
                max_node_rate: 0.04,
                min_node_rate: 0.0006,
                mean_contact_duration: 90.0,
                seed,
            }),
        ]
    }

    #[test]
    fn every_family_matches_its_materialized_trace() {
        for scenario in families(7) {
            assert_stream_matches_trace(&scenario, 10.0);
        }
    }

    #[test]
    fn conference_with_inquiry_scan_matches() {
        for seed in [1u64, 9, 23] {
            let scenario = ScenarioConfig::Conference(ConferenceConfig {
                name: format!("stream-scan-{seed}"),
                mobile_nodes: 16,
                stationary_nodes: 3,
                window_seconds: 3600.0,
                max_node_rate: 0.03,
                min_node_rate: 0.0005,
                stationary_rate_factor: 1.2,
                mean_contact_duration: 150.0,
                contact_duration_cv: 1.0,
                activity: ActivityProfile::TailDropoff {
                    dropoff_seconds: 900.0,
                    final_fraction: 0.3,
                },
                inquiry_scan_period: Some(120.0),
                seed,
            });
            assert_stream_matches_trace(&scenario, 30.0);
        }
    }

    #[test]
    fn zero_cv_durations_consume_no_draws() {
        let scenario = ScenarioConfig::Community(CommunityConfig {
            name: "stream-zero-cv".to_string(),
            communities: 2,
            nodes_per_community: 5,
            window_seconds: 1800.0,
            max_node_rate: 0.05,
            intra_inter_ratio: 4.0,
            mean_contact_duration: 120.0,
            contact_duration_cv: 0.0,
            seed: 3,
        });
        assert_stream_matches_trace(&scenario, 10.0);
    }

    #[test]
    fn stream_state_is_population_bounded() {
        // Twice the window, roughly twice the contacts — the source's state
        // must not grow with trace length.
        let short = ScenarioConfig::Heterogeneous(HeterogeneousConfig {
            nodes: 30,
            window_seconds: 1800.0,
            max_node_rate: 0.05,
            mean_contact_duration: 60.0,
            seed: 5,
        });
        let long = ScenarioConfig::Heterogeneous(HeterogeneousConfig {
            window_seconds: 14_400.0,
            ..match &short {
                ScenarioConfig::Heterogeneous(c) => c.clone(),
                _ => unreachable!(),
            }
        });
        let mut a = short.stream(10.0);
        let mut b = long.stream(10.0);
        drain(&mut a);
        drain(&mut b);
        assert!(
            b.approx_bytes() <= a.approx_bytes() * 2,
            "state grew with trace length: {} vs {}",
            b.approx_bytes(),
            a.approx_bytes()
        );
    }

    proptest! {
        #[test]
        fn stream_matches_trace_across_seeds(seed in 0u64..1_000_000, family in 0usize..5) {
            let scenario = families(seed).into_iter().nth(family).unwrap();
            assert_stream_matches_trace(&scenario, 15.0);
        }

        #[test]
        fn scan_composition_matches_across_seeds(seed in 0u64..1_000_000, period in 1usize..5) {
            let scenario = ScenarioConfig::Conference(ConferenceConfig {
                name: format!("stream-scan-prop-{seed}"),
                mobile_nodes: 12,
                stationary_nodes: 2,
                window_seconds: 1800.0,
                max_node_rate: 0.035,
                min_node_rate: 0.0005,
                stationary_rate_factor: 1.1,
                mean_contact_duration: 130.0,
                contact_duration_cv: 0.9,
                activity: ActivityProfile::Constant,
                inquiry_scan_period: Some(60.0 * period as f64),
                seed,
            });
            assert_stream_matches_trace(&scenario, 20.0);
        }
    }
}
