//! The trace-driven forwarding simulator.
//!
//! The simulator replays a contact trace slot by slot (the same Δ
//! discretization as the space-time graph, 10 s by default) and applies a
//! forwarding algorithm to every contact, following the paper's methodology
//! (§6.1):
//!
//! * nodes have infinite buffers and keep every message (copy) they receive
//!   until the end of the simulation;
//! * delivery respects minimal progress: whenever any node holding a copy is
//!   in contact with the destination, the message is delivered;
//! * within a slot, messages may traverse several contacts (the zero-weight
//!   multi-hop of the space-time graph): the simulator sweeps the slot's
//!   contacts until no more copies move, so Epidemic achieves exactly the
//!   optimal delivery times computed by [`psn_spacetime::reachability`];
//! * the algorithm's `should_forward` rule decides replication on every
//!   contact between a holder and a non-destination peer that lacks a copy.
//!
//! Besides delivery times the simulator records, per message, the hop path
//! along which the *first delivered copy* travelled, which the experiments
//! use for the per-hop contact-rate analyses (Figs. 12, 14, 15).
//!
//! # Engines
//!
//! Two engines produce bit-identical [`MessageOutcome`]s (pinned by
//! differential tests):
//!
//! * [`Simulator::run`] / [`Simulator::run_many`] — the **batched parallel
//!   engine**. The key observation is that contact history depends only on
//!   the trace, so it is precomputed once as a shared read-only
//!   [`HistoryTimeline`]; message copy-state is per message, so every
//!   message simulates independently against the timeline, the
//!   [`TraceOracle`] and the graph's per-slot edge lists. Work is sharded
//!   across `std::thread::scope` workers via an `AtomicUsize` work queue
//!   over (job × message-chunk) items; each worker visits only busy slots
//!   from the message's creation slot and stops at delivery, so delivered
//!   and not-yet-created messages cost nothing; idle messages jump to the
//!   next slot where a holder is active (the timeline's skip index).
//!   Utility tables are built exactly once per job across all workers. The
//!   engine also **pins a slot only on act**: the per-slot precheck reads
//!   the timeline's activity and neighbor bitmasks, the
//!   destination-unaware utility tables of a windowed graph walk its
//!   edges off the same masks, and the slot itself is read only by the
//!   fixpoint sweep of a slot the precheck passed (for the
//!   utility-decomposed algorithms that precheck is exact: a copy moves
//!   or the message is delivered). On a windowed graph every pin may be a
//!   spill reload, so a batch's reloads stay near one per busy slot
//!   instead of one per visited slot per message.
//! * [`Simulator::run_reference`] — the original serial sweep retained as
//!   the behavioural baseline: one mutable [`ContactHistory`] advanced slot
//!   by slot, an `O(n)` adjacency rescan per slot and a global
//!   `O(messages × edges)` fixpoint sweep. Kept for differential testing
//!   and as the benchmark baseline, mirroring
//!   `PathEnumerator::enumerate_reference` from the enumeration engine.
//!
//! The engines agree because a message's copy-state evolves under a
//! deterministic function of (its own state, the slot's edge list in
//! normalized order, the read-only context): sweeping one message to its own
//! fixpoint visits exactly the same (edge, direction) decision sequence as
//! sweeping all messages to the global fixpoint.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use psn_spacetime::{GraphRef, Message, Path, SharedGraph, Slot, SlotGuard, SpaceTimeGraph};
use psn_trace::{ContactTrace, NodeId, Seconds};

use crate::algorithm::{ForwardingAlgorithm, ForwardingContext};
use crate::history::ContactHistory;
use crate::metrics::MessageOutcome;
use crate::oracle::TraceOracle;
use crate::timeline::HistoryTimeline;

/// Configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatorConfig {
    /// Slot length in seconds (the paper's Δ = 10 s).
    pub delta: Seconds,
    /// Worker threads for the parallel engine; `0` (the default) uses one
    /// thread per available core. The thread count never affects results —
    /// only wall-clock time.
    pub threads: usize,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        Self { delta: 10.0, threads: 0 }
    }
}

/// The result of simulating one algorithm over one trace and message set.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Name of the algorithm that produced the result.
    pub algorithm: String,
    /// Per-message outcomes, in the same order as the input messages.
    pub outcomes: Vec<MessageOutcome>,
}

impl SimulationResult {
    /// Number of simulated messages.
    pub fn message_count(&self) -> usize {
        self.outcomes.len()
    }
}

/// Internal per-message, per-node copy state.
struct MessageState {
    /// Which nodes currently hold a copy.
    holders: Vec<bool>,
    /// How each holder obtained its copy: `(previous node, receive time)`;
    /// the source's entry is `None`.
    received_from: Vec<Option<(NodeId, Seconds)>>,
    /// Delivery time, once delivered.
    delivered_at: Option<Seconds>,
    /// The node that handed the delivered copy to the destination.
    delivered_by: Option<NodeId>,
    /// True once the creation slot has been reached and the source holds the
    /// message.
    active: bool,
}

impl MessageState {
    fn new(node_count: usize) -> Self {
        Self {
            holders: vec![false; node_count],
            received_from: vec![None; node_count],
            delivered_at: None,
            delivered_by: None,
            active: false,
        }
    }

    /// Clears the state for reuse by the next message in a worker's batch.
    fn reset(&mut self) {
        self.holders.fill(false);
        self.received_from.fill(None);
        self.delivered_at = None;
        self.delivered_by = None;
        self.active = false;
    }
}

/// How the parallel engine evaluates forwarding decisions for one job,
/// derived once per job from [`ForwardingAlgorithm::copy_utility`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecisionMode {
    /// No utility decomposition: call `should_forward` per decision.
    Direct,
    /// Destination-unaware utilities: computed per slot on first visit and
    /// shared across every message of the job a worker processes. With
    /// `is_static` (utilities never consult the history) one table serves
    /// every slot of the job.
    SharedUtility {
        /// See [`ForwardingAlgorithm::utility_is_static`].
        is_static: bool,
    },
    /// Destination-aware utilities. With `is_static` one table per (job,
    /// destination) serves every message to that destination; otherwise
    /// the lazy per-destination memo evaluates a node's utility on first
    /// comparison and keeps it until the node next contacts the
    /// destination (the `copy_utility` contract guarantees nothing else
    /// can change it).
    PerMessageUtility {
        /// See [`ForwardingAlgorithm::utility_is_static`].
        is_static: bool,
    },
}

/// Sentinel for "this table key dimension does not apply".
const NO_KEY: u32 = u32::MAX;

/// Sets `node`'s bit in a node bitmask.
#[inline]
fn set_bit(mask: &mut [u64], node: NodeId) {
    mask[node.index() / 64] |= 1u64 << (node.index() % 64);
}

/// True iff two node bitmasks share a set bit; length mismatches treat the
/// missing tail as zero.
#[inline]
fn masks_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// `slot`'s contact edges read off the timeline's masks instead of the
/// slot itself: active nodes `a` ascending, then each `a`'s slot neighbors
/// `b > a` ascending — exactly [`Slot::seal`]'s sorted, deduplicated
/// `(low, high)` order (pinned by a test below), without pinning the slot.
fn mask_edges(timeline: &HistoryTimeline, slot: usize) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    for (word_idx, &word) in timeline.active_mask(slot).iter().enumerate() {
        let mut actives = word;
        while actives != 0 {
            let a = word_idx * 64 + actives.trailing_zeros() as usize;
            actives &= actives - 1;
            let low = NodeId(a as u32);
            let row = timeline.neighbor_mask(slot, low);
            for (peer_word, &peers) in row.iter().enumerate().skip(a / 64) {
                // Keep only peers above `a` in `a`'s own word.
                let mut peers = if peer_word == a / 64 {
                    peers & !(2u64 << (a % 64)).wrapping_sub(1)
                } else {
                    peers
                };
                while peers != 0 {
                    let b = peer_word * 64 + peers.trailing_zeros() as usize;
                    peers &= peers - 1;
                    edges.push((low, NodeId(b as u32)));
                }
            }
        }
    }
    edges
}

/// A slot pinned on first use. The windowed graph's hot-set lookup (and,
/// for a cold slot, its spill reload) runs only when a caller reads the
/// slot's data, so a slot the timeline-mask precheck rejects is never
/// pinned; on the materialized graph the pin is a free borrow.
struct LazySlot<'g> {
    graph: GraphRef<'g>,
    slot: usize,
    pinned: OnceCell<SlotGuard<'g>>,
}

impl<'g> LazySlot<'g> {
    fn new(graph: GraphRef<'g>, slot: usize) -> Self {
        Self { graph, slot, pinned: OnceCell::new() }
    }

    /// The slot's data, pinning it on the first call.
    fn get(&self) -> &Slot {
        self.pinned.get_or_init(|| self.graph.slot(self.slot))
    }

    /// The slot's edges for a utility-table build, without pinning a
    /// windowed slot: borrowed from a materialized graph, where reading
    /// them is free, and walked off the timeline's masks otherwise. (On
    /// the paper-scale trace the walk measured ~5% slower than the borrow.)
    fn table_edges(&self, timeline: &HistoryTimeline) -> Cow<'_, [(NodeId, NodeId)]> {
        match self.graph {
            GraphRef::Full(_) => Cow::Borrowed(self.get().edges()),
            GraphRef::Windowed(_) => Cow::Owned(mask_edges(timeline, self.slot)),
        }
    }
}

/// One read of the lazy utility memo ([`SlotUtility::Lazy`]): returns the
/// memoized value while `slot` is inside `v`'s validity interval, otherwise
/// re-evaluates against this slot's context and stores the value under the
/// *maximal* interval over which the (node, destination) pair statistics
/// are constant ([`HistoryTimeline::pair_constancy_interval`]) — so the
/// memo, which outlives a single message (it is keyed per destination and
/// shared by every message of the job with that destination), serves reads
/// both before and after the evaluation point. Exact because the
/// `copy_utility` contract pins
/// a destination-aware utility to the (node, destination) pair stats, which
/// change only in slots where the pair is in contact.
#[allow(clippy::too_many_arguments)]
#[inline]
fn lazy_eval(
    algorithm: &dyn ForwardingAlgorithm,
    ctx: &ForwardingContext<'_>,
    timeline: &HistoryTimeline,
    destination: NodeId,
    slot: usize,
    utilities: &mut [f64],
    valid_from: &mut [u32],
    valid_until: &mut [u32],
    v: NodeId,
) -> f64 {
    let s = slot as u32;
    if valid_from[v.index()] <= s && s < valid_until[v.index()] {
        return utilities[v.index()];
    }
    let value =
        algorithm.copy_utility(ctx, v, destination).expect("copy_utility is uniformly Some");
    let (from, until) = timeline.pair_constancy_interval(v, destination, slot);
    utilities[v.index()] = value;
    valid_from[v.index()] = from;
    valid_until[v.index()] = until;
    value
}

/// The slot's per-node *promising* bitmask: bit `v` is set iff some
/// neighbor of `v` this slot has strictly higher utility. One pass over
/// the slot's edges, shared across every message of the job through the
/// table it is published with. A superset of the exact actionability
/// condition (it ignores holder status), so a precheck against it can
/// only produce false positives — and a false positive just runs a sweep
/// that moves nothing.
fn build_promising(edges: &[(NodeId, NodeId)], utilities: &[f64], words: usize) -> Box<[u64]> {
    let mut promising = vec![0u64; words].into_boxed_slice();
    for &(a, b) in edges {
        if utilities[a.index()] > utilities[b.index()] {
            set_bit(&mut promising, b);
        } else if utilities[b.index()] > utilities[a.index()] {
            set_bit(&mut promising, a);
        }
    }
    promising
}

/// The slot's within-slot reachability closure under one utility order:
/// node-major bitmask rows (stride `words`) where row `v` holds `v` plus
/// every node a copy at `v` could reach through the slot's edges along
/// strictly-increasing utilities (the fixpoint sweep forwards multi-hop
/// within a slot). One `O(E log E + E·words)` pass per (job, slot), shared
/// across every message of the job.
///
/// Built by processing the directed utility-increasing edges in descending
/// order of the *receiving* (lower-utility) endpoint's utility: when
/// `reach[lo] |= reach[hi]` runs, every update into `hi` (whose receiving
/// utility is `u[hi] > u[lo]`) has already run, so `reach[hi]` is final —
/// the closure propagates in one pass.
fn build_reach(
    edges: &[(NodeId, NodeId)],
    utilities: &[f64],
    n: usize,
    words: usize,
) -> Box<[u64]> {
    let mut reach = vec![0u64; n * words].into_boxed_slice();
    for v in 0..n {
        reach[v * words + v / 64] |= 1u64 << (v % 64);
    }
    let mut directed: Vec<(f64, NodeId, NodeId)> = Vec::with_capacity(edges.len());
    for &(a, b) in edges {
        if utilities[a.index()] > utilities[b.index()] {
            directed.push((utilities[b.index()], a, b));
        } else if utilities[b.index()] > utilities[a.index()] {
            directed.push((utilities[a.index()], b, a));
        }
    }
    directed.sort_by(|x, y| y.0.total_cmp(&x.0));
    for &(_, hi, lo) in &directed {
        for w in 0..words {
            let src = reach[hi.index() * words + w];
            reach[lo.index() * words + w] |= src;
        }
    }
    reach
}

/// True iff some active holder's within-slot reachability closure (a row
/// of [`build_reach`]) contains a node outside the current holder set —
/// i.e. the fixpoint sweep would forward at least one copy. Together with
/// a destination-adjacency scan this is an **exact** actionability test
/// (see the precheck in `simulate_message`), at two word-ops per active
/// holder and no neighbor scans.
fn closure_escapes(reach: &[u64], active: &[u64], holder_mask: &[u64]) -> bool {
    let words = holder_mask.len();
    for (word, (&act, &held)) in active.iter().zip(holder_mask).enumerate() {
        let mut bits = act & held;
        while bits != 0 {
            let v = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let row = &reach[v * words..][..words];
            if row.iter().zip(holder_mask).any(|(r, h)| r & !h != 0) {
                return true;
            }
        }
    }
    false
}

/// The utility-mode actionability precheck, run entirely on the timeline's
/// per-slot neighbor bitmasks: a two-word destination-adjacency test for
/// delivery, then per active holder a `neighbors ∧ ¬holders` word
/// combination whose surviving bits (the holder's non-holder slot
/// neighbors) are the only nodes whose utilities get read at all. It never
/// pins the slot. Exact: a sweep acts iff a holder sits next to the
/// destination or to a strictly-higher-utility non-holder. Generic over
/// the utility reader so each mode compiles to a direct slice load (or an
/// inlined lazy-memo read) instead of a dynamic call per neighbor; a
/// holder's own utility is evaluated at most once however many neighbors
/// it has.
#[inline]
fn utility_actionable(
    timeline: &HistoryTimeline,
    slot: usize,
    holder_mask: &[u64],
    active: &[u64],
    destination: NodeId,
    mut value: impl FnMut(NodeId) -> f64,
) -> bool {
    // Delivery: some holder shares an edge with the destination. (Slot
    // neighbors are mutual, so this is the destination's row against the
    // holder mask.)
    if masks_intersect(timeline.neighbor_mask(slot, destination), holder_mask) {
        return true;
    }
    // Forwarding: some active holder has a strictly-higher-utility
    // non-holder neighbor. Only holders active this slot have neighbors,
    // so the bit walk starts from `active ∧ held`.
    for (word_idx, (&act, &held)) in active.iter().zip(holder_mask).enumerate() {
        let mut bits = act & held;
        while bits != 0 {
            let h = NodeId((word_idx * 64 + bits.trailing_zeros() as usize) as u32);
            bits &= bits - 1;
            let mut own = None;
            for (peer_word, (&nb, &nb_held)) in
                timeline.neighbor_mask(slot, h).iter().zip(holder_mask).enumerate()
            {
                let mut cand = nb & !nb_held;
                while cand != 0 {
                    let v = NodeId((peer_word * 64 + cand.trailing_zeros() as usize) as u32);
                    cand &= cand - 1;
                    let own = *own.get_or_insert_with(|| value(h));
                    if value(v) > own {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// One slot's fixpoint sweep: scans `edges` in normalized order (the same
/// order the reference engine uses) until no copy moves, forwarding where
/// `forward` says so; returns true on delivery. Edges where neither
/// endpoint holds a copy are skipped without entering the per-direction
/// loop — the common case even in actionable slots. Generic over the
/// forward predicate so each utility mode's comparison inlines into the
/// edge scan.
#[allow(clippy::too_many_arguments)]
#[inline]
fn sweep_slot(
    edges: &[(NodeId, NodeId)],
    state: &mut MessageState,
    holder_list: &mut Vec<NodeId>,
    holder_mask: &mut [u64],
    destination: NodeId,
    slot_time: Seconds,
    mut forward: impl FnMut(NodeId, NodeId) -> bool,
) -> bool {
    loop {
        let mut changed = false;
        for &(a, b) in edges {
            if !state.holders[a.index()] && !state.holders[b.index()] {
                continue;
            }
            for (from, to) in [(a, b), (b, a)] {
                if !state.holders[from.index()] {
                    continue;
                }
                if to == destination {
                    state.delivered_at = Some(slot_time);
                    state.delivered_by = Some(from);
                    return true;
                }
                if state.holders[to.index()] {
                    continue;
                }
                if forward(from, to) {
                    state.holders[to.index()] = true;
                    state.received_from[to.index()] = Some((from, slot_time));
                    holder_list.push(to);
                    set_bit(holder_mask, to);
                    changed = true;
                }
            }
        }
        if !changed {
            return false;
        }
    }
}

/// How forwarding decisions read utilities during one slot of one message.
#[derive(Clone, Copy)]
enum SlotUtility<'a> {
    /// No utility decomposition: per-decision `should_forward` calls.
    Direct,
    /// A job- or slot-wide table (destination-unaware modes), plus the
    /// slot's shared precheck structures (promising mask and reachability
    /// closure), which make the actionability precheck exact in a handful
    /// of word intersections.
    Shared {
        /// Per-node utilities.
        utils: &'a [f64],
        /// The shared per-slot table carrying the promising mask and the
        /// reachability closure.
        precheck: &'a UtilityTable,
    },
    /// The per-destination static table copied into
    /// `WorkerScratch::utilities` at the message's first visited slot.
    PerMessage,
    /// The lazy memo: `WorkerScratch::utilities[v]` is evaluated on first
    /// comparison and stays exact while `slot < valid_until[v]` (the
    /// node's next contact with the destination). Nodes never compared are
    /// never evaluated — the win over the eager full fill.
    Lazy,
}

/// Build latch for one in-flight utility table — the exactly-once pattern
/// from `psn_artifact::store`: the first worker to want a table inserts a
/// `Building` entry and computes it outside the lock; later workers wait on
/// the latch instead of duplicating the work.
struct TableLatch {
    done: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

impl TableLatch {
    fn new() -> Self {
        Self { done: std::sync::Mutex::new(false), cv: std::sync::Condvar::new() }
    }

    /// Marks the build finished (successfully or not) and wakes all waiters.
    /// Poison-safe: a panicking builder must still release its waiters.
    fn release(&self) {
        let mut done = self.done.lock().unwrap_or_else(|poison| poison.into_inner());
        *done = true;
        self.cv.notify_all();
    }

    /// Blocks until [`TableLatch::release`].
    fn wait(&self) {
        let done = self.done.lock().unwrap_or_else(|poison| poison.into_inner());
        let _done =
            self.cv.wait_while(done, |done| !*done).unwrap_or_else(|poison| poison.into_inner());
    }
}

/// One published shared utility table: the per-node utilities plus, for
/// the destination-unaware modes' per-slot tables, the slot's per-node
/// *promising* bitmask (see [`build_promising`]) and
/// within-slot reachability closure (see [`build_reach`]). Static job-wide
/// tables carry empty masks; the per-slot precheck entries a static job
/// publishes carry empty utilities.
struct UtilityTable {
    utilities: Box<[f64]>,
    promising: Box<[u64]>,
    reach: Box<[u64]>,
}

/// One utility-table slot of a [`JobTables`] store.
enum TableState {
    /// A worker is computing the table; wait on the latch, then re-inspect.
    Building(std::sync::Arc<TableLatch>),
    /// The published, immutable table.
    Ready(std::sync::Arc<UtilityTable>),
}

/// Cross-worker utility-table store for **one job** of a `run_many` batch.
///
/// Keyed by `(slot, destination)` with [`NO_KEY`] marking a dimension the
/// job's [`DecisionMode`] does not depend on: `(NO_KEY, NO_KEY)` for static
/// destination-unaware utilities (one table per job), `(slot, NO_KEY)` for
/// per-slot destination-unaware tables (dynamic utilities, or a static
/// job's precheck masks), `(NO_KEY, dest)` for static destination-aware
/// utilities. (Dynamic destination-aware utilities use the worker-local
/// lazy memo instead.) Every table is built **exactly once per job** no
/// matter how many workers shard its messages, instead of once per worker
/// (and, for destination-aware algorithms, once per message).
///
/// Sharing is exact, not approximate: the `copy_utility` contract pins the
/// utility of a node at a slot to a pure function of (slot history,
/// destination), so a table computed by any worker is bit-identical to the
/// one every other worker would compute.
struct JobTables {
    map: std::sync::Mutex<std::collections::BTreeMap<(u32, u32), TableState>>,
}

/// Removes a still-`Building` entry and releases its latch when the
/// builder unwinds (fault injection panics mid-build under
/// `catch_unwind`), so waiting workers wake up and rebuild instead of
/// hanging. Disarmed on successful publication — the latch is then
/// released with the `Ready` entry already in place.
struct ReleaseOnUnwind<'a> {
    tables: &'a JobTables,
    key: (u32, u32),
    latch: &'a std::sync::Arc<TableLatch>,
    armed: bool,
}

impl Drop for ReleaseOnUnwind<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut map = self.tables.map.lock().unwrap_or_else(|poison| poison.into_inner());
            if matches!(map.get(&self.key), Some(TableState::Building(_))) {
                map.remove(&self.key);
            }
        }
        self.latch.release();
    }
}

impl JobTables {
    fn new() -> Self {
        Self { map: std::sync::Mutex::new(std::collections::BTreeMap::new()) }
    }

    /// Returns the table for `key`, computing it via `build` if this caller
    /// is the first to want it; concurrent callers for the same key block
    /// until the builder publishes.
    fn get_or_build(
        &self,
        key: (u32, u32),
        build: impl Fn() -> std::sync::Arc<UtilityTable>,
    ) -> std::sync::Arc<UtilityTable> {
        loop {
            let wait_on = {
                let mut map = self.map.lock().unwrap_or_else(|poison| poison.into_inner());
                match map.get(&key) {
                    Some(TableState::Ready(table)) => return std::sync::Arc::clone(table),
                    Some(TableState::Building(latch)) => std::sync::Arc::clone(latch),
                    None => {
                        let latch = std::sync::Arc::new(TableLatch::new());
                        map.insert(key, TableState::Building(std::sync::Arc::clone(&latch)));
                        drop(map);
                        let mut guard =
                            ReleaseOnUnwind { tables: self, key, latch: &latch, armed: true };
                        let table = build();
                        let mut map = self.map.lock().unwrap_or_else(|poison| poison.into_inner());
                        map.insert(key, TableState::Ready(std::sync::Arc::clone(&table)));
                        drop(map);
                        guard.armed = false;
                        return table;
                    }
                }
            };
            wait_on.wait();
        }
    }
}

/// Reusable per-worker buffers: the message copy-state, the holder list,
/// the per-message utility vector and the per-(job, slot) utility cache —
/// a lock-free L1 over the cross-worker [`JobTables`] store.
struct WorkerScratch {
    state: MessageState,
    /// Nodes currently holding a copy, in acquisition order — scanned to
    /// skip slots where no holder has a contact.
    holder_list: Vec<NodeId>,
    /// `state.holders` as a bitmask — intersected with the timeline's
    /// per-slot activity mask so "can anything move this slot?" costs a
    /// few word operations instead of a holder-list scan.
    holder_mask: Vec<u64>,
    utilities: Vec<f64>,
    /// Lazy-memo validity interval per node: `utilities[v]` is exact for
    /// every slot in `[valid_from[v], valid_until[v])` — the maximal
    /// interval over which the (node, destination) pair statistics are
    /// constant. `(u32::MAX, 0)` = not evaluated.
    valid_from: Vec<u32>,
    /// Exclusive upper bound of the lazy-memo validity interval.
    valid_until: Vec<u32>,
    /// Which `(job, destination)` the lazy memo describes
    /// (`(usize::MAX, u32::MAX)` = none). The memo outlives a single
    /// message: the chunk loop groups a lazy job's messages by
    /// destination, so consecutive messages share the evaluations.
    lazy_key: (usize, u32),
    /// Which job the shared caches below belong to (`usize::MAX` = none).
    shared_job: usize,
    shared_slots: Vec<Option<std::sync::Arc<UtilityTable>>>,
    /// Slot indices with a populated `shared_slots` entry — `bind_job`
    /// clears exactly these instead of wiping all O(slot_count) entries on
    /// every job switch.
    touched_slots: Vec<u32>,
    /// Single job-wide table for static destination-unaware utilities.
    static_utils: Option<std::sync::Arc<UtilityTable>>,
}

impl WorkerScratch {
    fn new(node_count: usize, slot_count: usize) -> Self {
        Self {
            state: MessageState::new(node_count),
            holder_list: Vec::with_capacity(node_count),
            holder_mask: vec![0; node_count.div_ceil(64)],
            utilities: vec![0.0; node_count],
            valid_from: vec![u32::MAX; node_count],
            valid_until: vec![0; node_count],
            lazy_key: (usize::MAX, u32::MAX),
            shared_job: usize::MAX,
            shared_slots: vec![None; slot_count],
            touched_slots: Vec::new(),
            static_utils: None,
        }
    }

    /// Rebinds the shared caches to `job`, clearing them if the worker
    /// switched jobs (work items are job-major, so this is rare). Only the
    /// touched slots are cleared — a job that visited a handful of slots
    /// pays for those, not for the whole trace.
    fn bind_job(&mut self, job: usize) {
        if self.shared_job != job {
            self.shared_job = job;
            for &slot in &self.touched_slots {
                self.shared_slots[slot as usize] = None;
            }
            self.touched_slots.clear();
            self.static_utils = None;
        }
    }
}

/// The slot-based trace-driven simulator.
///
/// The graph and history timeline are held behind [`std::sync::Arc`] so a
/// caching layer (the artifact store) can build them once per trace and
/// share them across every simulator — and every study run — over that
/// trace; [`Simulator::new`] builds private copies when nothing is shared.
/// The graph is a [`SharedGraph`], so the simulator runs unchanged over
/// either the fully materialized graph or the bounded-window streaming one.
#[derive(Debug)]
pub struct Simulator {
    node_count: usize,
    graph: SharedGraph,
    oracle: TraceOracle,
    timeline: std::sync::Arc<HistoryTimeline>,
    config: SimulatorConfig,
}

impl Simulator {
    /// Builds a simulator for a trace, precomputing the space-time graph,
    /// the whole-trace oracle and the shared history timeline.
    pub fn new(trace: &ContactTrace, config: SimulatorConfig) -> Self {
        assert!(config.delta > 0.0, "slot length must be positive");
        let graph = std::sync::Arc::new(SpaceTimeGraph::build(trace, config.delta));
        let timeline = std::sync::Arc::new(HistoryTimeline::build(&graph));
        Self::from_streamed_parts(
            trace.node_count(),
            TraceOracle::from_trace(trace),
            graph,
            timeline,
            config,
        )
    }

    /// Builds a simulator around an already-built graph, timeline and
    /// oracle — the study path, where the graph and timeline are memoized
    /// by the artifact store (or built by the one streaming pass, over the
    /// bounded-window representation) and the oracle is folded from the
    /// run's [`psn_trace::ContactSummary`] ([`TraceOracle::from_summary`]).
    /// The graph's discretization must match `config.delta`; results are
    /// then bit-identical to [`Simulator::new`] over the matching trace.
    ///
    /// # Panics
    ///
    /// Panics when the parts disagree on node count or discretization — a
    /// mismatched cache key, never a data-dependent condition.
    pub fn from_streamed_parts(
        node_count: usize,
        oracle: TraceOracle,
        graph: impl Into<SharedGraph>,
        timeline: std::sync::Arc<HistoryTimeline>,
        config: SimulatorConfig,
    ) -> Self {
        let graph = graph.into();
        assert!(config.delta > 0.0, "slot length must be positive");
        {
            let graph = graph.as_graph_ref();
            assert!(
                graph.delta() == config.delta,
                "shared graph was discretized at Δ = {} but the simulator wants Δ = {}",
                graph.delta(),
                config.delta
            );
            assert_eq!(graph.node_count(), node_count, "graph belongs to a different trace");
        }
        assert_eq!(timeline.node_count(), node_count, "timeline belongs to a different trace");
        assert_eq!(oracle.node_count(), node_count, "oracle belongs to a different trace");
        Self { node_count, graph, oracle, timeline, config }
    }

    /// Builds a simulator with the default Δ = 10 s.
    pub fn with_default_config(trace: &ContactTrace) -> Self {
        Self::new(trace, SimulatorConfig::default())
    }

    /// The underlying space-time graph (shared with path-enumeration
    /// experiments so both views use identical discretization), as a
    /// representation-agnostic [`GraphRef`].
    pub fn graph(&self) -> GraphRef<'_> {
        self.graph.as_graph_ref()
    }

    /// The whole-trace oracle.
    pub fn oracle(&self) -> &TraceOracle {
        &self.oracle
    }

    /// The precomputed, read-only contact-history timeline shared by all
    /// parallel simulations over this trace.
    pub fn timeline(&self) -> &HistoryTimeline {
        &self.timeline
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimulatorConfig {
        &self.config
    }

    /// The number of worker threads the parallel engine will use.
    pub fn threads(&self) -> usize {
        if self.config.threads > 0 {
            self.config.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }

    /// Runs `algorithm` over `messages` with the parallel engine and returns
    /// per-message outcomes.
    pub fn run(
        &self,
        algorithm: &dyn ForwardingAlgorithm,
        messages: &[Message],
    ) -> SimulationResult {
        self.run_many(&[(algorithm, messages)]).pop().expect("one job yields one result")
    }

    /// Runs a batch of independent `(algorithm, message set)` jobs — e.g.
    /// every algorithm × run combination of a study — sharding (job ×
    /// message-chunk) work items across the configured worker threads.
    /// Returns one result per job, in input order, bit-identical to running
    /// [`Simulator::run_reference`] on each job separately.
    pub fn run_many(
        &self,
        jobs: &[(&dyn ForwardingAlgorithm, &[Message])],
    ) -> Vec<SimulationResult> {
        let threads = self.threads();
        let slot_count = self.graph.as_graph_ref().slot_count();
        let total_messages: usize = jobs.iter().map(|(_, m)| m.len()).sum();

        // Chunked work items balance wildly varying per-message cost (an
        // undeliverable out-out message sweeps every slot; an in-in message
        // delivers almost immediately) without per-message queue traffic.
        let chunk = total_messages.div_ceil((threads * 8).max(1)).clamp(16, 1024);
        let mut items: Vec<(usize, usize, usize)> = Vec::new();
        for (job_idx, (_, messages)) in jobs.iter().enumerate() {
            let mut start = 0;
            while start < messages.len() {
                let end = (start + chunk).min(messages.len());
                items.push((job_idx, start, end));
                start = end;
            }
        }

        // One decision mode per job, derived from the algorithm's utility
        // decomposition (see [`ForwardingAlgorithm::copy_utility`]).
        let modes: Vec<DecisionMode> =
            jobs.iter().map(|(algorithm, _)| self.decision_mode(*algorithm)).collect();

        let mut outcomes: Vec<Vec<Option<MessageOutcome>>> =
            jobs.iter().map(|(_, m)| vec![None; m.len()]).collect();

        // One cross-worker table store per job: every worker sharding a
        // job's messages reads and fills the same exactly-once-latched
        // tables.
        let tables: Vec<JobTables> = jobs.iter().map(|_| JobTables::new()).collect();

        let process_item = |scratch: &mut WorkerScratch,
                            (job_idx, start, end): (usize, usize, usize)|
         -> Vec<MessageOutcome> {
            let (algorithm, messages) = jobs[job_idx];
            scratch.bind_job(job_idx);
            let job_tables = &tables[job_idx];
            let chunk = &messages[start..end];
            if modes[job_idx] == (DecisionMode::PerMessageUtility { is_static: false }) {
                // Lazy jobs memoize utility evaluations per destination
                // (`WorkerScratch::lazy_key`); processing the chunk grouped
                // by destination lets every message to the same destination
                // reuse the memo instead of resetting it. The stable sort
                // keeps same-destination messages in input order; outcomes
                // are written back by original index, so results are
                // order-independent anyway (messages never interact).
                let mut order: Vec<usize> = (0..chunk.len()).collect();
                order.sort_by_key(|&i| chunk[i].destination.0);
                let mut out: Vec<Option<MessageOutcome>> = (0..chunk.len()).map(|_| None).collect();
                for i in order {
                    out[i] = Some(self.simulate_message(
                        algorithm,
                        modes[job_idx],
                        &chunk[i],
                        scratch,
                        job_tables,
                    ));
                }
                out.into_iter().map(|o| o.expect("every chunk index simulated")).collect()
            } else {
                chunk
                    .iter()
                    .map(|m| {
                        self.simulate_message(algorithm, modes[job_idx], m, scratch, job_tables)
                    })
                    .collect()
            }
        };

        if threads <= 1 || items.len() <= 1 {
            let mut scratch = WorkerScratch::new(self.node_count, slot_count);
            for &item in &items {
                let (job_idx, start, _) = item;
                for (offset, outcome) in process_item(&mut scratch, item).into_iter().enumerate() {
                    outcomes[job_idx][start + offset] = Some(outcome);
                }
            }
        } else {
            // The `AtomicUsize` work-queue pattern proven in the explosion
            // study driver: workers claim items off a fetch-add counter and
            // accumulate into per-worker vectors, so the hot loop takes no
            // locks; results are merged after the join.
            //
            // Each item runs under `catch_unwind` so one panicking chunk
            // cannot take sibling threads down mid-job: the first panic is
            // recorded, the queue is aborted, and the panic re-raised once
            // on the calling thread for the study layer to isolate.
            let next = AtomicUsize::new(0);
            let abort = std::sync::atomic::AtomicBool::new(false);
            let first_panic: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);
            let per_worker: Vec<Vec<(usize, usize, Vec<MessageOutcome>)>> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| {
                            scope.spawn(|| {
                                let mut scratch = WorkerScratch::new(self.node_count, slot_count);
                                let mut local = Vec::new();
                                loop {
                                    // relaxed: advisory abort flag; a stale read only costs one extra job.
                                    if abort.load(Ordering::Relaxed) {
                                        break;
                                    }
                                    // relaxed: work-stealing claim counter; each index is claimed once and results are joined, which orders the data.
                                    let idx = next.fetch_add(1, Ordering::Relaxed);
                                    let Some(&item) = items.get(idx) else {
                                        break;
                                    };
                                    let (job_idx, start, _) = item;
                                    let job = std::panic::catch_unwind(
                                        std::panic::AssertUnwindSafe(|| {
                                            psn_fault::inject_job(
                                                psn_fault::sites::QUEUE_FORWARDING,
                                            );
                                            process_item(&mut scratch, item)
                                        }),
                                    );
                                    match job {
                                        Ok(batch) => local.push((job_idx, start, batch)),
                                        Err(payload) => {
                                            // relaxed: advisory abort flag; a stale read only costs one extra job.
                                            abort.store(true, Ordering::Relaxed);
                                            let mut slot = first_panic
                                                .lock()
                                                .unwrap_or_else(|poison| poison.into_inner());
                                            slot.get_or_insert_with(|| {
                                                psn_fault::panic_message(payload.as_ref())
                                            });
                                            break;
                                        }
                                    }
                                }
                                local
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("simulation workers catch their own panics"))
                        .collect()
                });
            if let Some(message) =
                first_panic.into_inner().unwrap_or_else(|poison| poison.into_inner())
            {
                panic!("simulation worker panicked: {message}");
            }
            for (job_idx, start, batch) in per_worker.into_iter().flatten() {
                for (offset, outcome) in batch.into_iter().enumerate() {
                    outcomes[job_idx][start + offset] = Some(outcome);
                }
            }
        }

        jobs.iter()
            .zip(outcomes)
            .map(|((algorithm, _), job_outcomes)| SimulationResult {
                algorithm: algorithm.name().to_string(),
                outcomes: job_outcomes
                    .into_iter()
                    .map(|o| o.expect("every message chunk was simulated"))
                    .collect(),
            })
            .collect()
    }

    /// Derives how decisions of `algorithm` are evaluated, by probing
    /// [`ForwardingAlgorithm::copy_utility`] (whose contract requires a
    /// uniform `Some`/`None` answer).
    fn decision_mode(&self, algorithm: &dyn ForwardingAlgorithm) -> DecisionMode {
        let graph = self.graph.as_graph_ref();
        if self.node_count == 0 || graph.slot_count() == 0 {
            return DecisionMode::Direct;
        }
        let view = self.timeline.at_slot(0);
        let ctx =
            ForwardingContext { history: &view, oracle: &self.oracle, now: graph.slot_end_time(0) };
        let probe = NodeId(0);
        if algorithm.copy_utility(&ctx, probe, probe).is_none() {
            DecisionMode::Direct
        } else if algorithm.destination_aware() {
            DecisionMode::PerMessageUtility { is_static: algorithm.utility_is_static() }
        } else {
            DecisionMode::SharedUtility { is_static: algorithm.utility_is_static() }
        }
    }

    /// Simulates one message to its per-slot fixpoint against the shared
    /// timeline. Visits only busy slots from the creation slot onward and
    /// stops at delivery; stretches of busy slots where no holder has a
    /// contact are jumped over entirely.
    fn simulate_message(
        &self,
        algorithm: &dyn ForwardingAlgorithm,
        mode: DecisionMode,
        message: &Message,
        scratch: &mut WorkerScratch,
        tables: &JobTables,
    ) -> MessageOutcome {
        let WorkerScratch {
            state,
            holder_list,
            holder_mask,
            utilities,
            valid_from,
            valid_until,
            lazy_key,
            shared_job,
            shared_slots,
            touched_slots,
            static_utils,
        } = scratch;
        let graph = self.graph.as_graph_ref();
        let n = self.node_count;
        state.reset();
        state.holders[message.source.index()] = true;
        holder_list.clear();
        holder_list.push(message.source);
        holder_mask.fill(0);
        set_bit(holder_mask, message.source);
        let creation_slot = graph.slot_of_time(message.created_at);
        let busy = graph.busy_slots();
        let first_busy = busy.partition_point(|&s| s < creation_slot);
        let destination = message.destination;
        // Destination-aware dynamic utilities use the lazy memo: evaluate
        // on comparison, valid until the node's next destination contact.
        // The `copy_utility` contract makes it exact, and it touches only
        // nodes that are actually compared.
        let lazy = mode == (DecisionMode::PerMessageUtility { is_static: false });
        if lazy {
            // The memo is keyed by (job, destination): its entries are
            // destination-pair facts with maximal validity intervals,
            // independent of any particular message, so every message of
            // the job with this destination (grouped together by the chunk
            // loop) reads and extends one shared memo. A key switch
            // invalidates it wholesale.
            let key = (*shared_job, destination.0);
            if *lazy_key != key {
                *lazy_key = key;
                valid_from.fill(u32::MAX);
                valid_until.fill(0);
            }
        } else {
            // Static destination-aware jobs copy their table into the
            // `utilities` buffer, so any stored memo intervals no longer
            // describe its contents.
            *lazy_key = (usize::MAX, u32::MAX);
        }
        // For algorithms whose utility requires a past destination contact
        // (FRESH, Greedy), a slot can only matter if the destination itself
        // or some node that ever meets it is active: delivery needs the
        // destination on a slot edge, and a forward target must strictly
        // beat its holder, which such algorithms reserve for nodes that
        // have met the destination. One extra word intersection rejects
        // every other slot before any slot data is pinned.
        let dest_gate: Option<&[u64]> = (lazy && algorithm.utility_requires_destination_contact())
            .then(|| self.timeline.ever_met_mask(destination));
        let mut utilities_ready = false;
        let mut cursor = first_busy;

        'slots: while let Some(&slot) = busy.get(cursor) {
            cursor += 1;

            // Mask fast path: answer "can this slot matter to this
            // message?" from the timeline's per-slot activity bitmask
            // before pinning any slot data or building a context. A slot
            // matters only if a holder has a contact — every edge endpoint
            // is an active node, so otherwise no copy can move and no
            // delivery can happen.
            let active = self.timeline.active_mask(slot);
            if !masks_intersect(holder_mask, active) {
                // No holder is active: jump straight to the earliest slot
                // where one is again, skipping the intervening busy slots
                // entirely.
                let target = holder_list
                    .iter()
                    .filter_map(|&h| self.timeline.next_active_slot(h, slot + 1))
                    .min();
                let Some(target) = target else {
                    // No holder is ever active again: undeliverable.
                    break 'slots;
                };
                cursor = busy.partition_point(|&s| s < target);
                continue;
            }
            if let Some(ever) = dest_gate {
                if !masks_intersect(ever, active) {
                    continue;
                }
            }
            let slot_time = graph.slot_end_time(slot);
            // Pin the slot on first use: a free borrow on the materialized
            // graph, a hot-set lookup or spill reload on the windowed one.
            // The prechecks read the timeline's masks and tables pin only
            // where that is free (`table_edges`), so a windowed slot is
            // read only by the sweep of a slot the precheck passed.
            let slot_data = LazySlot::new(graph, slot);
            let view = self.timeline.at_slot(slot);
            let ctx = ForwardingContext { history: &view, oracle: &self.oracle, now: slot_time };

            // Exact full table at this slot's context, published through
            // the cross-worker store.
            let fill_utilities = || -> Box<[f64]> {
                (0..n as u32)
                    .map(|v| {
                        algorithm
                            .copy_utility(&ctx, NodeId(v), destination)
                            .expect("copy_utility is uniformly Some")
                    })
                    .collect()
            };
            let utilities_only = || {
                std::sync::Arc::new(UtilityTable {
                    utilities: fill_utilities(),
                    promising: Box::default(),
                    reach: Box::default(),
                })
            };
            let words = holder_mask.len();

            // Resolve how this slot's forwarding decisions read utilities.
            let utility: SlotUtility<'_> = match mode {
                DecisionMode::Direct => SlotUtility::Direct,
                DecisionMode::SharedUtility { is_static: true } => {
                    // Static and destination independent: one table serves
                    // the whole job. The worker-local slot doubles as the
                    // lock-free L1 over the cross-worker store.
                    let table: &UtilityTable = static_utils.get_or_insert_with(|| {
                        tables.get_or_build((NO_KEY, NO_KEY), utilities_only)
                    });
                    // Publish the precheck structures (promising mask +
                    // reachability closure) for each visited slot of the
                    // static table — utilities are job-wide, but who can
                    // reach whom depends on the slot's edges.
                    if shared_slots[slot].is_none() {
                        let slot32 = slot as u32;
                        shared_slots[slot] = Some(tables.get_or_build((slot32, NO_KEY), || {
                            let edges = slot_data.table_edges(&self.timeline);
                            std::sync::Arc::new(UtilityTable {
                                utilities: Box::default(),
                                promising: build_promising(&edges, &table.utilities, words),
                                reach: build_reach(&edges, &table.utilities, n, words),
                            })
                        }));
                        touched_slots.push(slot32);
                    }
                    SlotUtility::Shared {
                        utils: &table.utilities,
                        precheck: shared_slots[slot].as_deref().expect("just filled"),
                    }
                }
                DecisionMode::SharedUtility { is_static: false } => {
                    // Destination independent: one table per (job, slot),
                    // built exactly once across all workers and reused for
                    // every message of the job.
                    if shared_slots[slot].is_none() {
                        let slot32 = slot as u32;
                        shared_slots[slot] = Some(tables.get_or_build((slot32, NO_KEY), || {
                            let utilities = fill_utilities();
                            let edges = slot_data.table_edges(&self.timeline);
                            let promising = build_promising(&edges, &utilities, words);
                            let reach = build_reach(&edges, &utilities, n, words);
                            std::sync::Arc::new(UtilityTable { utilities, promising, reach })
                        }));
                        touched_slots.push(slot32);
                    }
                    let table = shared_slots[slot].as_deref().expect("just filled");
                    SlotUtility::Shared { utils: &table.utilities, precheck: table }
                }
                DecisionMode::PerMessageUtility { is_static: true } => {
                    if !utilities_ready {
                        // One static table per (job, destination), however
                        // many messages share the destination.
                        let table = tables.get_or_build((NO_KEY, destination.0), utilities_only);
                        utilities.copy_from_slice(&table.utilities);
                        utilities_ready = true;
                    }
                    SlotUtility::PerMessage
                }
                DecisionMode::PerMessageUtility { is_static: false } => SlotUtility::Lazy,
            };

            // Exact actionability precheck: the sweep can move a copy (or
            // deliver) iff some holder has a neighbor that is the
            // destination or a strictly-higher-utility non-holder. If not,
            // the whole fixpoint sweep is a no-op — the reference engine
            // pays a full edge scan to find that out, this engine pays a
            // few word operations per active holder.
            let actionable = match utility {
                // Every edge endpoint is active, so if every active node
                // already holds a copy, no forward or delivery is possible —
                // a word-level exact rejection. (The destination never
                // becomes a holder, so a deliverable slot always has an
                // active non-holder.)
                SlotUtility::Direct => {
                    active.iter().zip(&*holder_mask).any(|(act, held)| act & !held != 0)
                }
                // Scan-free, off the shared per-slot table. The sweep acts
                // iff a holder sits next to the destination (delivery — a
                // holder with a slot edge is by definition active) or some
                // active holder's within-slot reachability closure leaves
                // the current holder set (the first forward of the fixpoint
                // must start at an existing holder, and every node its
                // closure row adds is reachable through strictly-increasing
                // utilities — so "row escapes the holder mask" is both
                // necessary and sufficient for a copy to move). The
                // promising mask stays as a cheaper first gate: no
                // promising holder means no holder has any higher-utility
                // neighbor at all.
                SlotUtility::Shared { precheck, .. } => {
                    masks_intersect(self.timeline.neighbor_mask(slot, destination), holder_mask)
                        || (masks_intersect(holder_mask, &precheck.promising)
                            && closure_escapes(&precheck.reach, active, holder_mask))
                }
                SlotUtility::PerMessage => utility_actionable(
                    &self.timeline,
                    slot,
                    holder_mask,
                    active,
                    destination,
                    |v| utilities[v.index()],
                ),
                SlotUtility::Lazy => utility_actionable(
                    &self.timeline,
                    slot,
                    holder_mask,
                    active,
                    destination,
                    |v| {
                        lazy_eval(
                            algorithm,
                            &ctx,
                            &self.timeline,
                            destination,
                            slot,
                            utilities,
                            valid_from,
                            valid_until,
                            v,
                        )
                    },
                ),
            };
            if !actionable {
                continue;
            }

            // Sweep the slot's edges (in the same normalized order the
            // reference engine scans them) until no copy moves, with the
            // forward predicate monomorphized per utility mode and a
            // both-endpoints-idle fast path per edge.
            let edges = slot_data.get().edges();
            let delivered = match utility {
                SlotUtility::Direct => sweep_slot(
                    edges,
                    state,
                    holder_list,
                    holder_mask,
                    destination,
                    slot_time,
                    |from, to| algorithm.should_forward(&ctx, from, to, destination),
                ),
                SlotUtility::Shared { utils, .. } => sweep_slot(
                    edges,
                    state,
                    holder_list,
                    holder_mask,
                    destination,
                    slot_time,
                    |from, to| utils[to.index()] > utils[from.index()],
                ),
                SlotUtility::PerMessage => sweep_slot(
                    edges,
                    state,
                    holder_list,
                    holder_mask,
                    destination,
                    slot_time,
                    |from, to| utilities[to.index()] > utilities[from.index()],
                ),
                SlotUtility::Lazy => sweep_slot(
                    edges,
                    state,
                    holder_list,
                    holder_mask,
                    destination,
                    slot_time,
                    |from, to| {
                        lazy_eval(
                            algorithm,
                            &ctx,
                            &self.timeline,
                            destination,
                            slot,
                            utilities,
                            valid_from,
                            valid_until,
                            to,
                        ) > lazy_eval(
                            algorithm,
                            &ctx,
                            &self.timeline,
                            destination,
                            slot,
                            utilities,
                            valid_from,
                            valid_until,
                            from,
                        )
                    },
                ),
            };
            if delivered {
                break 'slots;
            }
        }

        self.outcome_for(message, state)
    }

    /// Runs `algorithm` over `messages` with the retained serial reference
    /// engine: a mutable [`ContactHistory`] replay with a per-slot adjacency
    /// rescan and a global fixpoint sweep over all messages. Slow but
    /// direct; the parallel engine is pinned to its outcomes by differential
    /// tests.
    pub fn run_reference(
        &self,
        algorithm: &dyn ForwardingAlgorithm,
        messages: &[Message],
    ) -> SimulationResult {
        let graph = self.graph.as_graph_ref();
        let n = self.node_count;
        let mut history = ContactHistory::new(n);
        let mut states: Vec<MessageState> = messages.iter().map(|_| MessageState::new(n)).collect();

        // Messages sorted by creation slot for activation.
        let mut activation_order: Vec<usize> = (0..messages.len()).collect();
        activation_order.sort_by(|&a, &b| {
            messages[a]
                .created_at
                .partial_cmp(&messages[b].created_at)
                .expect("finite creation times")
        });
        let mut next_activation = 0usize;

        for slot in 0..graph.slot_count() {
            let slot_time = graph.slot_end_time(slot);
            let slot_data = graph.slot(slot);

            // Activate messages created during this slot (their creation
            // time falls before the slot's end).
            while next_activation < activation_order.len() {
                let idx = activation_order[next_activation];
                let m = &messages[idx];
                if graph.slot_of_time(m.created_at) > slot {
                    break;
                }
                let state = &mut states[idx];
                state.active = true;
                state.holders[m.source.index()] = true;
                next_activation += 1;
            }

            // Collect this slot's contact edges and update history before
            // forwarding decisions (current contacts count as "now").
            let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
            for a_idx in 0..n {
                let a = NodeId(a_idx as u32);
                for &b in slot_data.neighbors(a) {
                    if a.0 < b.0 {
                        edges.push((a, b));
                        history.record_contact(a, b, slot, slot_time);
                    }
                }
            }
            if edges.is_empty() {
                continue;
            }

            let ctx = ForwardingContext { history: &history, oracle: &self.oracle, now: slot_time };

            // Sweep the slot's edges until no copy moves, so multi-hop
            // transfers within a slot are possible for every algorithm.
            loop {
                let mut changed = false;
                for (msg_idx, message) in messages.iter().enumerate() {
                    let state = &mut states[msg_idx];
                    if !state.active || state.delivered_at.is_some() {
                        continue;
                    }
                    for &(a, b) in &edges {
                        if state.delivered_at.is_some() {
                            break;
                        }
                        for (from, to) in [(a, b), (b, a)] {
                            if !state.holders[from.index()] {
                                continue;
                            }
                            if to == message.destination {
                                state.delivered_at = Some(slot_time);
                                state.delivered_by = Some(from);
                                break;
                            }
                            if state.holders[to.index()] {
                                continue;
                            }
                            if algorithm.should_forward(&ctx, from, to, message.destination) {
                                state.holders[to.index()] = true;
                                state.received_from[to.index()] = Some((from, slot_time));
                                changed = true;
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        let outcomes = messages
            .iter()
            .zip(&states)
            .map(|(message, state)| self.outcome_for(message, state))
            .collect();

        SimulationResult { algorithm: algorithm.name().to_string(), outcomes }
    }

    /// Reconstructs the delivered path (if any) and wraps up the outcome for
    /// one message.
    fn outcome_for(&self, message: &Message, state: &MessageState) -> MessageOutcome {
        let path = state.delivered_at.map(|delivered_at| {
            let mut hops_rev: Vec<(NodeId, Seconds)> = Vec::new();
            hops_rev.push((message.destination, delivered_at));
            let mut node = state.delivered_by.expect("delivered messages record the last relay");
            let mut receive_time = delivered_at;
            loop {
                match state.received_from[node.index()] {
                    Some((previous, t)) => {
                        hops_rev.push((node, t.min(receive_time)));
                        receive_time = t;
                        node = previous;
                    }
                    None => {
                        hops_rev.push((node, message.created_at.min(receive_time)));
                        break;
                    }
                }
            }
            hops_rev.reverse();
            let mut path = Path::source(hops_rev[0].0, hops_rev[0].1);
            for &(n, t) in &hops_rev[1..] {
                path = path.extended(n, t);
            }
            path
        });

        MessageOutcome { message: *message, delivered_at: state.delivered_at, path }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{DynamicProgramming, Epidemic, Fresh, GreedyOnline, GreedyTotal};
    use crate::standard_algorithms;
    use psn_spacetime::epidemic_delivery_time;
    use psn_trace::contact::Contact;
    use psn_trace::node::{NodeClass, NodeRegistry};
    use psn_trace::trace::TimeWindow;

    fn nid(v: u32) -> NodeId {
        NodeId(v)
    }

    fn trace_from(contacts: Vec<(u32, u32, f64, f64)>, nodes: usize, end: f64) -> ContactTrace {
        trace_in_window(contacts, nodes, TimeWindow::new(0.0, end))
    }

    fn trace_in_window(
        contacts: Vec<(u32, u32, f64, f64)>,
        nodes: usize,
        window: TimeWindow,
    ) -> ContactTrace {
        let mut reg = NodeRegistry::new();
        for _ in 0..nodes {
            reg.add(NodeClass::Mobile);
        }
        let cs = contacts
            .into_iter()
            .map(|(a, b, s, e)| Contact::new(nid(a), nid(b), s, e).unwrap())
            .collect();
        ContactTrace::from_contacts("sim-test", reg, window, cs).unwrap()
    }

    #[test]
    fn epidemic_matches_spacetime_optimum() {
        let trace = trace_from(
            vec![
                (0, 1, 1.0, 30.0),
                (0, 2, 5.0, 40.0),
                (1, 3, 35.0, 80.0),
                (2, 3, 45.0, 90.0),
                (3, 4, 100.0, 140.0),
                (2, 4, 110.0, 150.0),
            ],
            5,
            200.0,
        );
        let sim = Simulator::with_default_config(&trace);
        let messages = vec![
            Message::new(nid(0), nid(4), 0.0),
            Message::new(nid(1), nid(4), 10.0),
            Message::new(nid(4), nid(0), 0.0),
            Message::new(nid(2), nid(1), 50.0),
        ];
        let result = sim.run(&Epidemic, &messages);
        for (outcome, message) in result.outcomes.iter().zip(&messages) {
            let optimal = epidemic_delivery_time(sim.graph(), message);
            assert_eq!(outcome.delivered_at, optimal, "message {message}");
        }
        assert_eq!(result.algorithm, "Epidemic");
        assert_eq!(result.message_count(), 4);
    }

    #[test]
    fn delivered_paths_start_at_source_and_end_at_destination() {
        let trace =
            trace_from(vec![(0, 1, 1.0, 5.0), (1, 2, 21.0, 25.0), (2, 3, 41.0, 45.0)], 4, 100.0);
        let sim = Simulator::with_default_config(&trace);
        let message = Message::new(nid(0), nid(3), 0.0);
        let result = sim.run(&Epidemic, &[message]);
        let outcome = &result.outcomes[0];
        assert_eq!(outcome.delivered_at, Some(50.0));
        let path = outcome.path.as_ref().unwrap();
        assert_eq!(path.first().node, nid(0));
        assert_eq!(path.current_node(), nid(3));
        assert_eq!(path.nodes().collect::<Vec<_>>(), vec![nid(0), nid(1), nid(2), nid(3)]);
        assert!(path.is_loop_free());
        // Hop times are non-decreasing and end at the delivery time.
        assert_eq!(path.end_time(), 50.0);
    }

    #[test]
    fn undelivered_message_has_no_path() {
        let trace = trace_from(vec![(0, 1, 1.0, 5.0)], 3, 50.0);
        let sim = Simulator::with_default_config(&trace);
        let result = sim.run(&Epidemic, &[Message::new(nid(0), nid(2), 0.0)]);
        assert_eq!(result.outcomes[0].delivered_at, None);
        assert!(result.outcomes[0].path.is_none());
        assert!(!result.outcomes[0].delivered());
    }

    #[test]
    fn direct_source_destination_contact_always_delivers() {
        // Even an algorithm that never forwards (FRESH with no history)
        // delivers on direct contact thanks to minimal progress.
        let trace = trace_from(vec![(0, 1, 12.0, 20.0)], 2, 60.0);
        let sim = Simulator::with_default_config(&trace);
        let result = sim.run(&Fresh, &[Message::new(nid(0), nid(1), 0.0)]);
        assert_eq!(result.outcomes[0].delivered_at, Some(20.0));
        let path = result.outcomes[0].path.as_ref().unwrap();
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn fresh_without_useful_history_never_relays() {
        // 0 meets 1, 1 meets 2 — but 1 has never met 2 before the moment it
        // could relay, so FRESH keeps the message at 0 and it is never
        // delivered (0 never meets 2 directly).
        let trace = trace_from(vec![(0, 1, 1.0, 5.0), (1, 2, 21.0, 25.0)], 3, 60.0);
        let sim = Simulator::with_default_config(&trace);
        let result = sim.run(&Fresh, &[Message::new(nid(0), nid(2), 0.0)]);
        assert_eq!(result.outcomes[0].delivered_at, None);
        // Epidemic delivers the same message.
        let epidemic = sim.run(&Epidemic, &[Message::new(nid(0), nid(2), 0.0)]);
        assert_eq!(epidemic.outcomes[0].delivered_at, Some(30.0));
    }

    #[test]
    fn fresh_uses_history_from_earlier_contacts() {
        // Node 1 meets the destination 2 early (before the message exists),
        // then meets the source 0, then meets 2 again: FRESH relays 0 -> 1
        // because 1's encounter with 2 is fresher than 0's (never).
        let trace =
            trace_from(vec![(1, 2, 1.0, 5.0), (0, 1, 41.0, 45.0), (1, 2, 81.0, 85.0)], 3, 120.0);
        let sim = Simulator::with_default_config(&trace);
        let result = sim.run(&Fresh, &[Message::new(nid(0), nid(2), 20.0)]);
        assert_eq!(result.outcomes[0].delivered_at, Some(90.0));
        let path = result.outcomes[0].path.as_ref().unwrap();
        assert_eq!(path.nodes().collect::<Vec<_>>(), vec![nid(0), nid(1), nid(2)]);
    }

    #[test]
    fn greedy_total_pushes_toward_hubs() {
        // Node 1 is the hub; Greedy Total forwards 0 -> 1 even though it is
        // destination unaware, and 1 later meets the destination 3.
        let trace = trace_from(
            vec![(1, 2, 1.0, 5.0), (1, 4, 11.0, 15.0), (0, 1, 41.0, 45.0), (1, 3, 81.0, 85.0)],
            5,
            120.0,
        );
        let sim = Simulator::with_default_config(&trace);
        let result = sim.run(&GreedyTotal, &[Message::new(nid(0), nid(3), 20.0)]);
        assert_eq!(result.outcomes[0].delivered_at, Some(90.0));
    }

    #[test]
    fn multi_hop_within_a_slot_is_possible() {
        // 0-1 and 1-2 overlap in one slot: epidemic crosses both in the same
        // slot, matching the space-time graph's zero-weight reachability.
        let trace = trace_from(vec![(0, 1, 1.0, 9.0), (1, 2, 2.0, 9.5)], 3, 30.0);
        let sim = Simulator::with_default_config(&trace);
        let result = sim.run(&Epidemic, &[Message::new(nid(0), nid(2), 0.0)]);
        assert_eq!(result.outcomes[0].delivered_at, Some(10.0));
    }

    #[test]
    fn messages_created_late_are_not_forwarded_early() {
        let trace = trace_from(vec![(0, 1, 1.0, 5.0), (0, 1, 51.0, 55.0)], 2, 100.0);
        let sim = Simulator::with_default_config(&trace);
        // Created at t=30: only the second contact can deliver it.
        let result = sim.run(&Epidemic, &[Message::new(nid(0), nid(1), 30.0)]);
        assert_eq!(result.outcomes[0].delivered_at, Some(60.0));
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_delta() {
        let trace = trace_from(vec![(0, 1, 0.0, 5.0)], 2, 10.0);
        Simulator::new(&trace, SimulatorConfig { delta: 0.0, ..SimulatorConfig::default() });
    }

    // ------------------------------------------------------------------
    // Differential property tests: the parallel engine must reproduce the
    // retained serial reference engine bit-for-bit — for every algorithm,
    // on random traces, including nonzero window starts and forced
    // multi-thread sharding.
    // ------------------------------------------------------------------

    /// Deterministic pseudo-random trace over `[window.start, window.end]`:
    /// uniform endpoints and start times, mixed short/long durations so
    /// contacts both fit in one slot and span several.
    fn random_trace(
        seed: u64,
        nodes: usize,
        contact_count: usize,
        window: TimeWindow,
    ) -> ContactTrace {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let span = window.end - window.start;
        let mut contacts = Vec::with_capacity(contact_count);
        for _ in 0..contact_count {
            let a = rng.gen_range(0..nodes as u32);
            let mut b = rng.gen_range(0..nodes as u32);
            while b == a {
                b = rng.gen_range(0..nodes as u32);
            }
            let start = window.start + rng.gen_range(0.0..span * 0.9);
            let duration = rng.gen_range(1.0..span * 0.2);
            contacts.push((a, b, start, (start + duration).min(window.end)));
        }
        trace_in_window(contacts, nodes, window)
    }

    /// Deterministic pseudo-random message population with creation times
    /// across (and slightly beyond) the window.
    fn random_messages(seed: u64, nodes: usize, count: usize, window: TimeWindow) -> Vec<Message> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let span = window.end - window.start;
        (0..count)
            .map(|_| {
                let src = rng.gen_range(0..nodes as u32);
                let mut dst = rng.gen_range(0..nodes as u32);
                while dst == src {
                    dst = rng.gen_range(0..nodes as u32);
                }
                let created = window.start + rng.gen_range(0.0..span);
                Message::new(nid(src), nid(dst), created)
            })
            .collect()
    }

    fn assert_engines_agree(sim: &Simulator, messages: &[Message]) {
        let algorithms = standard_algorithms();
        let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> =
            algorithms.iter().map(|(_, a)| (a.as_ref(), messages)).collect();
        let parallel = sim.run_many(&jobs);
        for ((kind, algorithm), parallel_result) in algorithms.iter().zip(&parallel) {
            let reference = sim.run_reference(algorithm.as_ref(), messages);
            assert_eq!(reference.algorithm, parallel_result.algorithm);
            assert_eq!(
                reference.outcomes.len(),
                parallel_result.outcomes.len(),
                "{kind}: outcome counts differ"
            );
            for (i, (r, p)) in reference.outcomes.iter().zip(&parallel_result.outcomes).enumerate()
            {
                assert_eq!(r, p, "{kind}: outcome {i} differs for {}", r.message);
            }
        }
    }

    #[test]
    fn parallel_engine_matches_reference_on_random_traces() {
        for seed in 0..6u64 {
            let nodes = 5 + (seed as usize % 8);
            let window = TimeWindow::new(0.0, 500.0);
            let trace = random_trace(seed, nodes, 30 + 5 * seed as usize, window);
            let sim = Simulator::with_default_config(&trace);
            let messages = random_messages(seed, nodes, 14, window);
            assert_engines_agree(&sim, &messages);
        }
    }

    #[test]
    fn parallel_engine_matches_reference_with_nonzero_window_start() {
        // Same bug family as PR 1's `slot_of_time` fix: everything must keep
        // lining up when the trace window does not begin at t = 0.
        for seed in 50..55u64 {
            let nodes = 6 + (seed as usize % 5);
            let window = TimeWindow::new(7200.0, 7800.0);
            let trace = random_trace(seed, nodes, 40, window);
            let sim = Simulator::with_default_config(&trace);
            let messages = random_messages(seed, nodes, 12, window);
            assert_engines_agree(&sim, &messages);
        }
    }

    #[test]
    fn parallel_engine_is_invariant_to_thread_count_and_chunking() {
        let window = TimeWindow::new(300.0, 900.0);
        let trace = random_trace(99, 10, 60, window);
        let messages = random_messages(99, 10, 40, window);
        let algorithms = standard_algorithms();
        let baseline = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: 1 });
        for threads in [2usize, 3, 7] {
            let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads });
            assert_eq!(sim.threads(), threads);
            for (kind, algorithm) in &algorithms {
                let serial = baseline.run(algorithm.as_ref(), &messages);
                let sharded = sim.run(algorithm.as_ref(), &messages);
                for (r, p) in serial.outcomes.iter().zip(&sharded.outcomes) {
                    assert_eq!(r, p, "{kind} with {threads} threads");
                }
            }
        }
    }

    /// Pins the engine to `run_reference` for every standard algorithm at
    /// each worker count in `threads`, under three chunkings of the same
    /// messages: one job per algorithm, all six algorithms in one
    /// `run_many` batch, and one single-message job per message (every
    /// work item a one-message chunk, so workers switch jobs and rebuild
    /// their caches on every item).
    fn assert_matches_reference_across_threads_and_chunking(
        trace: &ContactTrace,
        messages: &[Message],
        threads: &[usize],
    ) {
        let algorithms = standard_algorithms();
        let reference_sim = Simulator::with_default_config(trace);
        let references: Vec<SimulationResult> = algorithms
            .iter()
            .map(|(_, algorithm)| reference_sim.run_reference(algorithm.as_ref(), messages))
            .collect();
        let batch: Vec<(&dyn ForwardingAlgorithm, &[Message])> =
            algorithms.iter().map(|(_, a)| (a.as_ref(), messages)).collect();
        for &threads in threads {
            let sim = Simulator::new(trace, SimulatorConfig { delta: 10.0, threads });
            let batched = sim.run_many(&batch);
            for (((kind, algorithm), reference), batched) in
                algorithms.iter().zip(&references).zip(&batched)
            {
                let single = sim.run(algorithm.as_ref(), messages);
                assert_eq!(
                    reference.outcomes, single.outcomes,
                    "{kind}: one job, {threads} workers"
                );
                assert_eq!(
                    reference.outcomes, batched.outcomes,
                    "{kind}: six-job batch, {threads} workers"
                );
                let singletons: Vec<(&dyn ForwardingAlgorithm, &[Message])> = messages
                    .iter()
                    .map(|m| (algorithm.as_ref(), std::slice::from_ref(m)))
                    .collect();
                let split: Vec<MessageOutcome> =
                    sim.run_many(&singletons).into_iter().flat_map(|r| r.outcomes).collect();
                assert_eq!(
                    reference.outcomes, split,
                    "{kind}: one job per message, {threads} workers"
                );
            }
        }
    }

    #[test]
    fn engine_matches_reference_across_threads_and_chunking() {
        // Forces the skip-index sweep and the cross-worker latched tables
        // under real multi-thread sharding against the reference engine,
        // on a nonzero window start.
        let window = TimeWindow::new(3600.0, 4200.0);
        let trace = random_trace(21, 12, 70, window);
        let messages = random_messages(21, 12, 24, window);
        assert_matches_reference_across_threads_and_chunking(&trace, &messages, &[1, 2, 3]);
    }

    #[test]
    fn engine_matches_reference_on_a_trace_with_more_than_64_nodes() {
        // Node counts beyond one 64-bit mask word stress the wide-trace
        // paths.
        let window = TimeWindow::new(0.0, 800.0);
        let trace = random_trace(33, 70, 220, window);
        let messages = random_messages(33, 70, 20, window);
        assert_matches_reference_across_threads_and_chunking(&trace, &messages, &[1, 2, 3]);
    }

    #[test]
    fn reach_closure_matches_fixpoint_on_random_slots() {
        // `build_reach` folds the strictly-increasing-utility edges in one
        // descending-utility pass; the naive fixpoint (iterate the
        // single-step expansion until nothing changes) defines what a row
        // must contain. Random edge sets with ties exercise both the
        // multi-hop chains and the strictly-unequal filter.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC105);
            let n = 3 + (seed as usize % 70);
            let words = n.div_ceil(64);
            let utilities: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..5u32))).collect();
            let mut edges = Vec::new();
            for _ in 0..rng.gen_range(0..3 * n) {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a != b {
                    edges.push((NodeId(a), NodeId(b)));
                }
            }
            let reach = build_reach(&edges, &utilities, n, words);
            // Naive fixpoint: start from self, repeatedly add every node
            // reachable over one strictly-increasing edge.
            let mut expected = vec![0u64; n * words];
            for v in 0..n {
                expected[v * words + v / 64] |= 1u64 << (v % 64);
            }
            loop {
                let mut changed = false;
                for &(a, b) in &edges {
                    for (lo, hi) in [(a, b), (b, a)] {
                        if utilities[hi.index()] > utilities[lo.index()] {
                            for w in 0..words {
                                let add = expected[hi.index() * words + w]
                                    & !expected[lo.index() * words + w];
                                if add != 0 {
                                    expected[lo.index() * words + w] |= add;
                                    changed = true;
                                }
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            assert_eq!(&reach[..], &expected[..], "seed {seed}, n {n}");
        }
    }

    #[test]
    fn engines_agree_on_clustered_trace_with_unreachable_destinations() {
        // Two contact clusters with no bridge: within-cluster messages
        // deliver, cross-cluster destinations are never met by any holder.
        // This drives the ever-met destination gate (FRESH and Greedy skip
        // every slot where no node that ever meets the destination is
        // active) and the per-destination lazy memo across repeated
        // destinations — both must stay bit-identical to the reference
        // engine under real multi-thread sharding.
        let window = TimeWindow::new(0.0, 700.0);
        let cluster_a = random_trace(61, 6, 40, window);
        let cluster_b = random_trace(62, 6, 40, window);
        let mut contacts: Vec<(u32, u32, f64, f64)> = Vec::new();
        for c in cluster_a.contacts() {
            contacts.push((c.a.0, c.b.0, c.start, c.end));
        }
        for c in cluster_b.contacts() {
            contacts.push((c.a.0 + 6, c.b.0 + 6, c.start, c.end));
        }
        let trace = trace_in_window(contacts, 12, window);
        // Within-cluster, cross-cluster, and repeated-destination messages.
        let mut messages = random_messages(61, 6, 10, window);
        messages.extend(
            random_messages(62, 6, 10, window)
                .into_iter()
                .map(|m| Message::new(nid(m.source.0 + 6), nid(m.destination.0 + 6), m.created_at)),
        );
        for (i, m) in random_messages(63, 6, 8, window).into_iter().enumerate() {
            // Source in one cluster, destination in the other: undeliverable.
            messages.push(Message::new(m.source, nid(m.destination.0 + 6), m.created_at));
            messages.push(Message::new(nid(6 + i as u32 % 6), m.destination, m.created_at));
        }
        assert_matches_reference_across_threads_and_chunking(&trace, &messages, &[1, 3]);
    }

    #[test]
    fn run_many_shards_algorithm_by_run_jobs() {
        let window = TimeWindow::new(0.0, 600.0);
        let trace = random_trace(7, 9, 45, window);
        let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: 4 });
        let algorithms = standard_algorithms();
        let message_sets: Vec<Vec<Message>> =
            (0..3u64).map(|run| random_messages(run, 9, 10, window)).collect();
        // Flatten algorithm × run jobs like the study driver does.
        let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> = algorithms
            .iter()
            .flat_map(|(_, a)| message_sets.iter().map(move |m| (a.as_ref() as _, m.as_slice())))
            .collect();
        let results = sim.run_many(&jobs);
        assert_eq!(results.len(), algorithms.len() * message_sets.len());
        for ((algorithm, messages), result) in jobs.iter().zip(&results) {
            assert_eq!(result.algorithm, algorithm.name());
            let reference = sim.run_reference(*algorithm, messages);
            assert_eq!(reference.outcomes, result.outcomes);
        }
    }

    #[test]
    fn mask_walked_edges_match_slot_edges_on_random_traces() {
        // On a windowed graph the destination-unaware tables are built
        // from `mask_edges` instead of the slot; they are bit-identical
        // only if the mask walk yields exactly `Slot::edges` — same pairs,
        // same order. Node counts straddle the 64-bit word boundary.
        for seed in 0..12u64 {
            let nodes = [3usize, 9, 63, 64, 65, 130][seed as usize % 6];
            let window = TimeWindow::new(600.0 * seed as f64, 600.0 * seed as f64 + 900.0);
            let trace = random_trace(seed ^ 0xED6E, nodes, 40 + 6 * nodes, window);
            let graph = SpaceTimeGraph::build(&trace, 10.0);
            let timeline = HistoryTimeline::build(&graph);
            assert!(!graph.busy_slots().is_empty());
            for &slot in graph.busy_slots() {
                let walked = mask_edges(&timeline, slot);
                assert_eq!(walked, graph.edges(slot), "seed {seed}, slot {slot}");
            }
        }
    }

    /// A windowed, spill-backed copy of `trace`'s graph with `window` hot
    /// busy slots, spilling to memory.
    fn windowed_graph(
        trace: &ContactTrace,
        window: usize,
    ) -> std::sync::Arc<psn_spacetime::WindowedSpaceTimeGraph> {
        let mut stream = psn_trace::TraceEventStream::new(trace, 10.0);
        let graph = psn_spacetime::WindowedSpaceTimeGraph::stream(
            &mut stream,
            window,
            Box::new(psn_spacetime::MemorySpill::new()),
        )
        .expect("an in-memory spill never fails");
        std::sync::Arc::new(graph)
    }

    #[test]
    fn windowed_graph_matches_reference_on_materialized_graph() {
        // The pin-on-first-use path reads a windowed slot only after the
        // mask precheck passes; every algorithm and worker count over a
        // spill-backed graph must still reproduce the reference engine on
        // the materialized graph, message by message.
        let window = TimeWindow::new(1800.0, 2600.0);
        let trace = random_trace(71, 14, 110, window);
        let messages = random_messages(71, 14, 30, window);
        let reference_sim = Simulator::with_default_config(&trace);
        let algorithms = standard_algorithms();
        let references: Vec<SimulationResult> = algorithms
            .iter()
            .map(|(_, algorithm)| reference_sim.run_reference(algorithm.as_ref(), &messages))
            .collect();
        let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> =
            algorithms.iter().map(|(_, a)| (a.as_ref(), messages.as_slice())).collect();
        let timeline = std::sync::Arc::new(reference_sim.timeline().clone());
        for window_slots in [1usize, 7, 64] {
            let graph = windowed_graph(&trace, window_slots);
            assert!(graph.spill_stores() > 0 || window_slots >= graph.busy_slots().len());
            for threads in [1usize, 2] {
                let sim = Simulator::from_streamed_parts(
                    trace.node_count(),
                    TraceOracle::from_trace(&trace),
                    std::sync::Arc::clone(&graph),
                    std::sync::Arc::clone(&timeline),
                    SimulatorConfig { delta: 10.0, threads },
                );
                let results = sim.run_many(&jobs);
                for (((kind, _), reference), result) in
                    algorithms.iter().zip(&references).zip(&results)
                {
                    assert_eq!(
                        reference.outcomes, result.outcomes,
                        "{kind} at window {window_slots} on {threads} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn windowed_forwarding_reloads_at_most_one_reference_pass_per_job() {
        // The reference engine pins every slot once per job. The parallel
        // engine at one worker pins a slot only after the mask precheck
        // passes, so over a one-slot window its spill reloads stay within
        // that budget even though every message of every job replays the
        // trace on its own. (Pinning every visited
        // slot, as the engine once did, costs about 3x the budget here.)
        let window = TimeWindow::new(0.0, 2400.0);
        let trace = random_trace(83, 16, 260, window);
        let messages = random_messages(83, 16, 80, window);
        let graph = windowed_graph(&trace, 1);
        let busy = graph.busy_slots().len() as u64;
        let timeline =
            std::sync::Arc::new(HistoryTimeline::build(&SpaceTimeGraph::build(&trace, 10.0)));
        let sim = Simulator::from_streamed_parts(
            trace.node_count(),
            TraceOracle::from_trace(&trace),
            std::sync::Arc::clone(&graph),
            timeline,
            SimulatorConfig { delta: 10.0, threads: 1 },
        );
        let algorithms = standard_algorithms();
        let jobs: Vec<(&dyn ForwardingAlgorithm, &[Message])> =
            algorithms.iter().map(|(_, a)| (a.as_ref(), messages.as_slice())).collect();
        let before = graph.spill_loads();
        sim.run_many(&jobs);
        let loads = graph.spill_loads() - before;
        let budget = jobs.len() as u64 * busy;
        assert!(
            loads <= budget,
            "{loads} spill loads exceed {} jobs × {busy} busy slots",
            jobs.len()
        );
    }

    /// Delegates to `inner` and counts its `copy_utility` calls.
    struct CountingUtility<'a> {
        inner: &'a dyn ForwardingAlgorithm,
        calls: AtomicUsize,
    }

    impl ForwardingAlgorithm for CountingUtility<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn destination_aware(&self) -> bool {
            self.inner.destination_aware()
        }
        fn should_forward(
            &self,
            ctx: &ForwardingContext<'_>,
            holder: NodeId,
            peer: NodeId,
            destination: NodeId,
        ) -> bool {
            self.inner.should_forward(ctx, holder, peer, destination)
        }
        fn copy_utility(
            &self,
            ctx: &ForwardingContext<'_>,
            node: NodeId,
            destination: NodeId,
        ) -> Option<f64> {
            // relaxed: a tally read only after the workers have joined.
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.copy_utility(ctx, node, destination)
        }
        fn utility_is_static(&self) -> bool {
            self.inner.utility_is_static()
        }
        fn utility_requires_destination_contact(&self) -> bool {
            self.inner.utility_requires_destination_contact()
        }
    }

    #[test]
    fn utility_tables_are_built_exactly_once_per_job_at_any_worker_count() {
        // Greedy Total (static, destination-unaware), Greedy Online
        // (dynamic, destination-unaware) and Dynamic Programming (static,
        // destination-aware) evaluate utilities only to build tables, so
        // their `copy_utility` calls count table builds. 64 messages split
        // each job into at least 4 chunks that the workers share; with
        // exactly-once tables the count cannot depend on the worker count,
        // and it stays within one table per key: one per job, per busy
        // slot and per destination respectively.
        let window = TimeWindow::new(0.0, 1200.0);
        let trace = random_trace(47, 14, 120, window);
        let messages = random_messages(47, 14, 64, window);
        let sims: Vec<Simulator> = [1usize, 2, 3]
            .iter()
            .map(|&threads| Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads }))
            .collect();
        let busy = sims[0].graph().busy_slots().len();
        let destinations =
            messages.iter().map(|m| m.destination).collect::<std::collections::BTreeSet<_>>();
        let algorithms: [(&dyn ForwardingAlgorithm, usize); 3] =
            [(&GreedyTotal, 1), (&GreedyOnline, busy), (&DynamicProgramming, destinations.len())];
        for (algorithm, max_tables) in algorithms {
            let counts: Vec<usize> = sims
                .iter()
                .map(|sim| {
                    let counting = CountingUtility { inner: algorithm, calls: AtomicUsize::new(0) };
                    sim.run(&counting, &messages);
                    counting.calls.into_inner()
                })
                .collect();
            // One call is the decision-mode probe; the rest build tables
            // of one evaluation per node.
            let name = algorithm.name();
            assert!(counts[0] > 1, "{name}: no table was built");
            assert!(counts[0] <= 1 + 14 * max_tables, "{name}: {} calls", counts[0]);
            assert!(
                counts.iter().all(|&c| c == counts[0]),
                "{name}: {counts:?} utility evaluations at 1, 2 and 3 workers"
            );
        }
    }

    /// Greedy Online, except that every utility evaluation at time
    /// `fail_at` stalls briefly and then panics.
    struct PanicsInTableBuild {
        fail_at: Seconds,
    }

    impl ForwardingAlgorithm for PanicsInTableBuild {
        fn name(&self) -> &str {
            "PanicsInTableBuild"
        }
        fn destination_aware(&self) -> bool {
            false
        }
        fn should_forward(
            &self,
            ctx: &ForwardingContext<'_>,
            holder: NodeId,
            peer: NodeId,
            destination: NodeId,
        ) -> bool {
            GreedyOnline.should_forward(ctx, holder, peer, destination)
        }
        fn copy_utility(
            &self,
            ctx: &ForwardingContext<'_>,
            node: NodeId,
            destination: NodeId,
        ) -> Option<f64> {
            if ctx.now == self.fail_at {
                std::thread::sleep(std::time::Duration::from_millis(50));
                panic!("utility build failed at t = {}", self.fail_at);
            }
            GreedyOnline.copy_utility(ctx, node, destination)
        }
    }

    #[test]
    fn panicking_table_build_fails_the_batch_instead_of_hanging_waiters() {
        // Every message starts at node 0, whose first contact is in slot
        // 5, so both workers' first chunks want the same per-slot table
        // there. Its build panics; the unwinding builder must remove its
        // entry and release the latch, so the other worker rebuilds (and
        // fails too) rather than blocking forever. The stall in the build
        // makes that worker usually wait on the latch first; either way it
        // reaches the key within its first chunk, so a stale entry would
        // hang it. A watchdog turns a hang into a failure.
        let trace = trace_from(
            vec![
                (1, 2, 1.0, 5.0),
                (3, 4, 11.0, 25.0),
                (0, 1, 51.0, 55.0),
                (0, 3, 52.0, 58.0),
                (2, 5, 61.0, 75.0),
                (4, 5, 81.0, 85.0),
            ],
            6,
            120.0,
        );
        let sim = Simulator::new(&trace, SimulatorConfig { delta: 10.0, threads: 2 });
        let first_slot = sim.timeline().next_active_slot(nid(0), 0).expect("node 0 has contacts");
        assert_eq!(first_slot, 5);
        let algorithm = PanicsInTableBuild { fail_at: sim.graph().slot_end_time(first_slot) };
        let messages: Vec<Message> =
            (0..40u32).map(|i| Message::new(nid(0), nid(1 + i % 5), 0.0)).collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run(&algorithm, &messages);
            }));
            // The receiver is gone only if the watchdog already fired.
            let _ = tx.send(run.map_err(|payload| psn_fault::panic_message(payload.as_ref())));
        });
        let run = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_many hung on the table latch of a panicked build");
        worker.join().expect("the worker catches the batch's panic");
        let message = run.expect_err("a panicking table build must fail the batch");
        assert!(message.contains("simulation worker panicked"), "{message}");
        assert!(message.contains("utility build failed"), "{message}");
    }
}
