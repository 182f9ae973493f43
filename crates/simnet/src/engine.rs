//! The event-queue kernel: virtual clock, message scheduling, delivery.

use crate::counts::{Counted, SendCounts};
use crate::faults::FaultPlan;
use crate::net::NetModel;
use crate::stats::SimStats;
use crate::trace::{HopKind, TraceEvent, TraceSink, Verdict};
use crate::{NodeId, SimTime};
use rand::rngs::SmallRng;
use std::borrow::Cow;
use std::collections::{BinaryHeap, VecDeque};

/// Per-hop virtual latency model governing **event scheduling** (the
/// simulator's clock).
///
/// The paper measures delay in hops, which corresponds to [`Unit`]. The
/// other variants exist for jitter/sensitivity studies; hop-depth
/// accounting (the reported metric) is independent of the latency model.
///
/// Sampling is **edge-keyed**: the cost of a hop is a pure function of
/// `(model, sim seed, src, dst)`, never of the shared RNG stream — so the
/// virtual time of a delivery cannot depend on how concurrently-scheduled
/// events happened to interleave. (The [`Uniform`] variant used to draw
/// from the simulator's `SmallRng` in delivery order, which made virtual
/// times send-order-dependent; the regression is pinned by
/// `uniform_latency_is_send_order_invariant` below.)
///
/// This is distinct from the [`NetModel`] cost layer ([`Sim::with_net`]),
/// which *accumulates* per-edge costs along message chains without
/// perturbing scheduling — see [`Envelope::cost`].
///
/// [`Unit`]: LatencyModel::Unit
/// [`Uniform`]: LatencyModel::Uniform
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LatencyModel {
    /// Every hop takes exactly one tick (virtual time = hop count).
    #[default]
    Unit,
    /// Every hop takes a fixed number of ticks.
    Fixed(u64),
    /// Hop latency keyed uniformly into `lo..=hi` ticks per edge.
    Uniform {
        /// Minimum per-hop latency.
        lo: u64,
        /// Maximum per-hop latency.
        hi: u64,
    },
}

impl LatencyModel {
    /// The scheduling cost of edge `src → dst` under simulator seed `seed`
    /// — a pure function of its arguments (no RNG stream; the hash is
    /// [`crate::net::mix`], shared with [`NetModel`] edge costs).
    fn cost(&self, seed: u64, src: NodeId, dst: NodeId) -> u64 {
        match *self {
            LatencyModel::Unit => 1,
            LatencyModel::Fixed(t) => t,
            LatencyModel::Uniform { lo, hi } => {
                debug_assert!(lo <= hi, "empty latency range [{lo}, {hi}]");
                let key = crate::net::mix(seed, src as u64, dst as u64);
                // A full-domain span (hi − lo + 1 overflows) admits every
                // u64, so the key is already a valid sample.
                match (hi.wrapping_sub(lo)).checked_add(1) {
                    Some(span) => lo + key % span,
                    None => key,
                }
            }
        }
    }
}

/// A message delivered to a node.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sender node.
    pub from: NodeId,
    /// Receiver node.
    pub to: NodeId,
    /// Overlay hop depth: number of hops from the protocol's origin. The
    /// initial self-delivery that starts a protocol has depth 0.
    pub hop: u32,
    /// Virtual time of delivery.
    pub at: SimTime,
    /// Accumulated [`NetModel`] cost (virtual milliseconds) along this
    /// message's forwarding chain: the parent envelope's cost plus the
    /// edge cost of the final hop. Under the default `unit` model this
    /// equals `hop` — accumulation never perturbs scheduling, so hop
    /// metrics and message sets are identical under every cost model.
    pub cost: u64,
    /// Protocol payload.
    pub payload: M,
}

struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    env: Envelope<M>,
}

// Manual ordering: BinaryHeap is a max-heap, so invert to pop earliest
// (time, seq) first. Only `at` and `seq` participate — seq is unique, which
// both breaks ties FIFO and spares `M: Eq` bounds.
impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The discrete-event simulator.
///
/// Generic over the protocol message type `M`. Create one `Sim` per
/// query/protocol run — or, on hot paths, recycle the internal collections
/// across runs via [`Sim::from_scratch`]/[`Sim::recycle`] so batch drivers
/// amortize all queue/lane capacity.
///
/// The fault plan is held as a [`Cow`]: batch query paths borrow the
/// caller's plan ([`Sim::with_faults_ref`], zero clones per query) while
/// tests and churn experiments that mutate the plan mid-run keep the owned
/// form ([`Sim::with_faults`]; [`Sim::faults_mut`] clones on first write).
pub struct Sim<'p, M> {
    now: SimTime,
    seq: u64,
    seed: u64,
    /// Far-future events (`at ≥ now + 2` when pushed). The common unit-tick
    /// case never touches this heap: events landing at `now` or `now + 1`
    /// go to the ready-time lanes below, which preserve `(at, seq)` order
    /// by construction (the sequence counter is monotone, so lane FIFO
    /// order *is* seq order).
    queue: BinaryHeap<Scheduled<M>>,
    /// The cohort being delivered: events at `now`, in seq order.
    cur: VecDeque<Envelope<M>>,
    /// Events at `now + 1`, in seq order.
    next: VecDeque<Envelope<M>>,
    rng: SmallRng,
    latency: LatencyModel,
    net: NetModel,
    faults: Cow<'p, FaultPlan>,
    stats: SimStats,
    /// Hostile-fault bookkeeping, touched only when the matching family is
    /// attached: delivery attempts per directed edge (the loss plan's
    /// attempt index) and network messages per peer (the rate limiter's
    /// bucket), in one flat table that is read by key and never iterated.
    counts: SendCounts,
    /// The observability plane: `None` (the default) keeps every emission
    /// site a single branch with no allocation, so traced-off runs are
    /// bit-identical to pre-trace builds.
    trace: Option<Box<TraceSink>>,
}

impl<M> std::fmt::Debug for Sim<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'p, M> Sim<'p, M> {
    /// Creates a simulator with the default unit-latency model and no
    /// faults, seeded deterministically.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: 0,
            seq: 0,
            seed,
            queue: BinaryHeap::new(),
            cur: VecDeque::new(),
            next: VecDeque::new(),
            rng: crate::rng_from_seed(seed),
            latency: LatencyModel::Unit,
            net: NetModel::unit(),
            faults: Cow::Owned(FaultPlan::default()),
            stats: SimStats::default(),
            counts: SendCounts::default(),
            trace: None,
        }
    }

    /// [`new`](Sim::new), recycling the collections parked in `scratch` by a
    /// previous run's [`recycle`](Sim::recycle) — the event heap and cohort
    /// lanes keep their grown capacity, so steady-state queries allocate
    /// nothing for scheduling. The scratch's collections are left empty.
    pub fn from_scratch(seed: u64, scratch: &mut SimScratch<M>) -> Self {
        let mut sim = Sim::new(seed);
        sim.queue = std::mem::take(&mut scratch.queue);
        sim.cur = std::mem::take(&mut scratch.cur);
        sim.next = std::mem::take(&mut scratch.next);
        sim.counts = std::mem::take(&mut scratch.counts);
        debug_assert!(sim.pending() == 0, "recycled scratch must arrive empty");
        sim
    }

    /// Parks this simulator's collections in `scratch` for the next
    /// [`from_scratch`](Sim::from_scratch), clearing them first. The heap,
    /// the lanes and the fault counters all retain capacity across the
    /// round trip; clearing the counters costs only the entries this run
    /// filled.
    pub fn recycle(mut self, scratch: &mut SimScratch<M>) {
        self.queue.clear();
        self.cur.clear();
        self.next.clear();
        self.counts.clear();
        scratch.queue = std::mem::take(&mut self.queue);
        scratch.cur = std::mem::take(&mut self.cur);
        scratch.next = std::mem::take(&mut self.next);
        scratch.counts = std::mem::take(&mut self.counts);
    }

    /// Attaches a [`TraceSink`]: from here on every send verdict, scheduled
    /// hop, and delivery emits a structured virtual-time event. Tracing
    /// never changes scheduling, stats, or RNG consumption — it only
    /// records what already happened.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = Some(Box::new(sink));
        self
    }

    /// Detaches and returns the trace sink, if one was attached.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.trace.take().map(|b| *b)
    }

    /// True when a trace sink is attached (protocols may use this to skip
    /// building event metadata on the hot path).
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Records that the delivery in `env` *answers* the query — called by
    /// protocol handlers at the site where they push an arrival. No-op
    /// without an attached sink.
    pub fn trace_answer(&mut self, env: &Envelope<M>) {
        if self.trace.is_some() {
            let ev = TraceEvent::Answer { node: env.to, hop: env.hop, cost_ms: env.cost };
            self.emit(ev);
        }
    }

    /// Appends `event` at the current virtual time. No-op when no sink is
    /// attached.
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.emit(self.now, event);
        }
    }

    /// Replaces the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Replaces the [`NetModel`] whose per-edge costs accumulate into
    /// [`Envelope::cost`]. Scheduling (and therefore event order, hop
    /// metrics, and message sets) is unaffected: the cost layer rides on
    /// top of the unit-tick clock.
    pub fn with_net(mut self, net: NetModel) -> Self {
        self.net = net;
        self
    }

    /// The cost model in force.
    pub fn net(&self) -> &NetModel {
        &self.net
    }

    /// Replaces the fault plan (owned — the sim may mutate it mid-run via
    /// [`faults_mut`](Sim::faults_mut) without touching the caller's copy).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Cow::Owned(faults);
        self
    }

    /// Replaces the fault plan by reference — the per-query hot path: no
    /// clone, the plan is shared for the run. A later
    /// [`faults_mut`](Sim::faults_mut) clones on first write, so borrowed
    /// plans stay safe under mid-run mutation too.
    pub fn with_faults_ref(mut self, faults: &'p FaultPlan) -> Self {
        self.faults = Cow::Borrowed(faults);
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Clears statistics (keeps clock, faults and RNG state).
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
    }

    /// Mutable access to the fault plan (e.g. to crash nodes mid-run).
    /// Clones a borrowed plan on first call — cold paths only.
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        self.faults.to_mut()
    }

    /// The fault plan in force.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Deterministic RNG for protocol-level decisions.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Sends a protocol message from `from` to `to` with explicit hop depth.
    ///
    /// Counts one message (unless `from == to`, which models local
    /// self-delivery used to start protocols and is free, like the paper's
    /// convention that the origin peer's local processing costs no hops).
    /// The message may be dropped or ignored according to the [`FaultPlan`].
    pub fn send(&mut self, from: NodeId, to: NodeId, hop: u32, payload: M) {
        self.send_with_cost(from, to, hop, 0, payload);
    }

    /// [`send`](Self::send) with an explicit accumulated-cost base: the
    /// envelope's [`cost`](Envelope::cost) is `base_cost` plus the edge's
    /// [`NetModel`] cost. Protocols use this where a message chain
    /// continues through a local hand-off (e.g. a routing phase switching
    /// to a flooding phase by self-delivery), so the chain's cost is not
    /// reset to zero.
    pub fn send_with_cost(
        &mut self,
        from: NodeId,
        to: NodeId,
        hop: u32,
        base_cost: u64,
        payload: M,
    ) {
        let is_network = from != to;
        // The rate limiter's queueing delay for this message (computed up
        // front so the token bucket counts every send attempt — a throttled
        // sender queues messages whether or not the network then loses
        // them — but priced only onto messages that actually schedule).
        let mut queueing = 0;
        if is_network {
            self.stats.messages_sent += 1;
            if let Some(rl) = self.faults.rate_limit() {
                queueing = rl.queue_delay(self.counts.bump(Counted::Peer(from)));
                if queueing > 0 {
                    self.stats.messages_throttled += 1;
                    if self.trace.is_some() {
                        // Throttled is a *pricing* verdict: the message
                        // still schedules, with `queueing` folded into its
                        // edge cost below.
                        let plan = format!("rate-limit +{queueing}ms");
                        let ev = TraceEvent::FaultVerdict {
                            src: from,
                            dst: to,
                            verdict: Verdict::Throttled,
                            plan,
                        };
                        self.emit(ev);
                    }
                }
            }
            // Partition: cross-side delivery is refused while the split is
            // open. Checked at send time only — the epoch advances between
            // protocol runs, never mid-run.
            if let Some(part) = self.faults.partition() {
                let seed = self.faults.plan_seed() ^ self.seed;
                let epoch = self.faults.epoch();
                if part.severed(seed, epoch, from, to, &self.net) {
                    self.stats.messages_blocked += 1;
                    if self.trace.is_some() {
                        let plan = format!("partition epoch {epoch}");
                        let ev = TraceEvent::FaultVerdict {
                            src: from,
                            dst: to,
                            verdict: Verdict::Blocked,
                            plan,
                        };
                        self.emit(ev);
                    }
                    return;
                }
            }
            if self.faults.should_drop(&mut self.rng) {
                self.stats.messages_dropped += 1;
                if self.trace.is_some() {
                    let ev = TraceEvent::FaultVerdict {
                        src: from,
                        dst: to,
                        verdict: Verdict::Dropped,
                        plan: "drop-prob".to_string(),
                    };
                    self.emit(ev);
                }
                return;
            }
            // Hash-verdict loss: the attempt index is this edge's delivery
            // counter, so re-sends (retries) of the same edge get fresh
            // verdicts while the whole stream stays a pure function of the
            // event order — itself deterministic per seed.
            if let Some(loss) = self.faults.loss() {
                let attempt = self.counts.bump(Counted::Edge(from, to)) - 1;
                let verdict = loss.lost(self.faults.plan_seed() ^ self.seed, from, to, attempt);
                if verdict {
                    self.stats.messages_lost += 1;
                    if self.trace.is_some() {
                        let plan = format!("hash-loss attempt {attempt}");
                        let ev = TraceEvent::FaultVerdict {
                            src: from,
                            dst: to,
                            verdict: Verdict::Lost,
                            plan,
                        };
                        self.emit(ev);
                    }
                    return;
                }
            }
        }
        if self.faults.is_crashed(to) {
            self.stats.messages_to_crashed += 1;
            if self.trace.is_some() {
                let ev = TraceEvent::FaultVerdict {
                    src: from,
                    dst: to,
                    verdict: Verdict::ToCrashed,
                    plan: "crashed receiver".to_string(),
                };
                self.emit(ev);
            }
            return;
        }
        let latency = if is_network { self.latency.cost(self.seed, from, to) } else { 0 };
        let edge_cost = queueing + if is_network { self.net.edge_cost(from, to) } else { 0 };
        let cost = base_cost + edge_cost;
        if self.trace.is_some() {
            let kind = if is_network { HopKind::Network } else { HopKind::Local };
            let ev = TraceEvent::Hop {
                src: from,
                dst: to,
                hop,
                edge_cost_ms: edge_cost,
                cost_ms: cost,
                kind,
            };
            self.emit(ev);
        }
        let env = Envelope { from, to, hop, at: self.now + latency, cost, payload };
        self.enqueue(env);
    }

    /// Routes an event to the ready-time lane for its delivery time, or to
    /// the heap when it lands further out than `now + 1`.
    fn enqueue(&mut self, env: Envelope<M>) {
        self.seq += 1;
        if env.at == self.now {
            self.cur.push_back(env);
        } else if env.at == self.now + 1 {
            self.next.push_back(env);
        } else {
            self.queue.push(Scheduled { at: env.at, seq: self.seq, env });
        }
    }

    /// Forwards in response to a received envelope: hop depth increments
    /// and the accumulated [`NetModel`] cost carries over automatically.
    pub fn forward(&mut self, received: &Envelope<M>, to: NodeId, payload: M) {
        self.send_with_cost(received.to, to, received.hop + 1, received.cost, payload);
    }

    /// Schedules a local (non-network) event at `delay` ticks in the future;
    /// hop depth is preserved. Used for timers/retries. Not counted as a
    /// message and free under every cost model.
    pub fn schedule_local(&mut self, node: NodeId, delay: u64, hop: u32, payload: M) {
        if self.faults.is_crashed(node) {
            return;
        }
        let env = Envelope { from: node, to: node, hop, at: self.now + delay, cost: 0, payload };
        self.enqueue(env);
    }

    /// Runs until the queue drains, calling `handler` for each delivery.
    ///
    /// Events are drained in ready-time cohorts: the whole cohort for the
    /// current tick is assembled once, then delivered FIFO — the exact
    /// `(at, seq)` order the per-event heap pops produced, without a heap
    /// operation per unit-latency event.
    ///
    /// A node crashed *after* a message to it was scheduled still does not
    /// receive it (the crash check is repeated at delivery time).
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Sim<'p, M>, Envelope<M>),
    {
        loop {
            let Some(env) = self.cur.pop_front() else {
                if self.advance() {
                    continue;
                }
                break;
            };
            debug_assert!(env.at == self.now, "cohort member off its tick");
            if self.faults.is_crashed(env.to) {
                self.stats.messages_to_crashed += 1;
                if self.trace.is_some() {
                    let ev = TraceEvent::FaultVerdict {
                        src: env.from,
                        dst: env.to,
                        verdict: Verdict::ToCrashed,
                        plan: "crashed at delivery".to_string(),
                    };
                    self.emit(ev);
                }
                continue;
            }
            self.stats.deliveries += 1;
            if env.from != env.to {
                self.stats.max_hop_delivered = self.stats.max_hop_delivered.max(env.hop);
            }
            if self.trace.is_some() {
                let ev = TraceEvent::Delivery { node: env.to, hop: env.hop, cost_ms: env.cost };
                self.emit(ev);
            }
            handler(self, env);
        }
    }

    /// Advances the clock to the earliest pending tick and assembles that
    /// tick's cohort in `cur`. Heap events at the new tick were pushed
    /// before its lane opened (at a smaller `now`), so they carry smaller
    /// sequence numbers and drain first — the heap itself yields equal-time
    /// events in seq order, and the lane is already FIFO-by-seq. Returns
    /// `false` when nothing is pending.
    fn advance(&mut self) -> bool {
        debug_assert!(self.cur.is_empty(), "advance with an undelivered cohort");
        let lane_t = if self.next.is_empty() { None } else { Some(self.now + 1) };
        let heap_t = self.queue.peek().map(|s| s.at);
        let Some(t) = [lane_t, heap_t].into_iter().flatten().min() else {
            return false;
        };
        debug_assert!(t > self.now, "time must not run backwards");
        while self.queue.peek().is_some_and(|s| s.at == t) {
            let s = self.queue.pop().expect("peeked above");
            self.cur.push_back(s.env);
        }
        if t == self.now + 1 {
            self.cur.append(&mut self.next);
        }
        self.now = t;
        true
    }

    /// Number of undelivered events still queued (non-zero only if `run`
    /// has not been called or a handler re-enqueued work).
    pub fn pending(&self) -> usize {
        self.queue.len() + self.cur.len() + self.next.len()
    }
}

/// Parked [`Sim`] collections for reuse across queries: the far-future
/// event heap, both cohort lanes, and the fault-bookkeeping counters. One
/// lives per driver thread; a query builds its simulator with
/// [`Sim::from_scratch`] and parks the collections back with
/// [`Sim::recycle`], so steady-state scheduling allocates nothing.
///
/// Recycling is observationally inert: a recycled `Sim` starts from the
/// identical logical state as a fresh one (empty collections, fresh RNG,
/// clock at zero) — only retained *capacity* differs, which no metric,
/// digest, or trace can see.
pub struct SimScratch<M> {
    queue: BinaryHeap<Scheduled<M>>,
    cur: VecDeque<Envelope<M>>,
    next: VecDeque<Envelope<M>>,
    counts: SendCounts,
}

impl<M> Default for SimScratch<M> {
    fn default() -> Self {
        SimScratch {
            queue: BinaryHeap::new(),
            cur: VecDeque::new(),
            next: VecDeque::new(),
            counts: SendCounts::default(),
        }
    }
}

impl<M> SimScratch<M> {
    /// An empty scratch (no capacity reserved yet).
    pub fn new() -> Self {
        Self::default()
    }
}

impl<M> std::fmt::Debug for SimScratch<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimScratch")
            .field("queue_capacity", &self.queue.capacity())
            .field("lane_capacity", &(self.cur.capacity() + self.next.capacity()))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_then_fifo_order() {
        let mut sim: Sim<&str> = Sim::new(1);
        sim.send(0, 1, 0, "a"); // t=1
        sim.send(0, 2, 0, "b"); // t=1, after "a"
        sim.schedule_local(0, 0, 0, "now"); // t=0
        let mut order = Vec::new();
        sim.run(|_, env| order.push(env.payload));
        assert_eq!(order, vec!["now", "a", "b"]);
    }

    #[test]
    fn hop_depth_increments_on_forward() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.send(0, 0, 0, 3); // start at node 0 with 3 forwards to do
        sim.run(|sim, env| {
            if env.payload > 0 {
                sim.forward(&env, env.to + 1, env.payload - 1);
            }
        });
        assert_eq!(sim.stats().max_hop_delivered, 3);
        assert_eq!(sim.stats().messages_sent, 3);
    }

    #[test]
    fn self_delivery_is_free() {
        let mut sim: Sim<()> = Sim::new(1);
        sim.send(5, 5, 0, ());
        sim.run(|_, _| {});
        assert_eq!(sim.stats().messages_sent, 0);
        assert_eq!(sim.stats().deliveries, 1);
    }

    #[test]
    fn crashed_nodes_never_receive() {
        let mut sim: Sim<()> = Sim::new(1);
        sim.faults_mut().crash(1);
        sim.send(0, 1, 0, ());
        let mut delivered = 0;
        sim.run(|_, _| delivered += 1);
        assert_eq!(delivered, 0);
        assert_eq!(sim.stats().messages_to_crashed, 1);
        assert_eq!(sim.stats().messages_sent, 1); // send still cost a message
    }

    #[test]
    fn crash_after_scheduling_still_blocks_delivery() {
        let mut sim: Sim<u8> = Sim::new(1);
        sim.send(0, 0, 0, 0);
        let mut got_second = false;
        sim.run(|sim, env| {
            if env.payload == 0 {
                sim.forward(&env, 1, 1);
                sim.faults_mut().crash(1); // crash after the send
            } else {
                got_second = true;
            }
        });
        assert!(!got_second);
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let mut sim: Sim<()> = Sim::new(1).with_faults(FaultPlan::with_drop_prob(1.0));
        sim.send(0, 1, 0, ());
        let mut delivered = 0;
        sim.run(|_, _| delivered += 1);
        assert_eq!(delivered, 0);
        assert_eq!(sim.stats().messages_dropped, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim: Sim<u64> =
                Sim::new(seed).with_latency(LatencyModel::Uniform { lo: 1, hi: 9 });
            sim.send(0, 0, 0, 10);
            let mut times = Vec::new();
            sim.run(|sim, env| {
                times.push(env.at);
                if env.payload > 0 {
                    sim.forward(&env, (env.to + 1) % 4, env.payload - 1);
                }
            });
            times
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn uniform_latency_accumulates_time() {
        let mut sim: Sim<u8> = Sim::new(3).with_latency(LatencyModel::Fixed(5));
        sim.send(0, 1, 0, 0);
        sim.run(|_, _| {});
        assert_eq!(sim.now(), 5);
    }

    #[test]
    fn uniform_latency_is_send_order_invariant() {
        // Regression: Uniform used to draw from the shared SmallRng in
        // delivery order, so an edge's virtual cost depended on how sends
        // interleaved. Edge-keyed sampling makes the cost a pure function
        // of (seed, src, dst): the same plan sent in a different order
        // yields the same per-edge delivery times.
        let edges = [(0usize, 1usize), (2, 3), (4, 5), (1, 4), (3, 0)];
        let deliver = |order: &[usize]| -> std::collections::BTreeMap<(NodeId, NodeId), SimTime> {
            let mut sim: Sim<()> =
                Sim::new(11).with_latency(LatencyModel::Uniform { lo: 1, hi: 50 });
            for &i in order {
                let (a, b) = edges[i];
                sim.send(a, b, 0, ());
            }
            let mut times = std::collections::BTreeMap::new();
            sim.run(|_, env| {
                times.insert((env.from, env.to), env.at);
            });
            times
        };
        let forward = deliver(&[0, 1, 2, 3, 4]);
        let reversed = deliver(&[4, 3, 2, 1, 0]);
        assert_eq!(forward, reversed, "edge costs must not depend on send order");
        assert!(forward.values().any(|&t| t > 1), "jitter must actually vary costs");
    }

    #[test]
    fn envelope_cost_accumulates_net_model_edges() {
        use crate::net::NetModel;
        let wan = NetModel::wan();
        let mut sim: Sim<u8> = Sim::new(5).with_net(wan);
        sim.send(0, 0, 0, 3); // free self-delivery starts the chain
        let mut costs = Vec::new();
        sim.run(|sim, env| {
            costs.push((env.to, env.cost));
            if env.payload > 0 {
                sim.forward(&env, env.to + 1, env.payload - 1);
            }
        });
        assert_eq!(costs[0], (0, 0), "self-delivery is cost-free");
        assert_eq!(costs[1].1, wan.edge_cost(0, 1));
        assert_eq!(costs[2].1, wan.edge_cost(0, 1) + wan.edge_cost(1, 2));
        // Scheduling stayed on unit ticks: hop order is unperturbed.
        assert_eq!(sim.now(), 3);
        // An explicit base cost carries a chain across a local hand-off.
        let mut sim2: Sim<u8> = Sim::new(5).with_net(wan);
        sim2.send_with_cost(7, 8, 4, 100, 0);
        sim2.run(|_, env| assert_eq!(env.cost, 100 + wan.edge_cost(7, 8)));
    }

    #[test]
    fn partition_refuses_cross_side_delivery_until_heal() {
        use crate::faults::PartitionPlan;
        let new_plan =
            || FaultPlan::new().with_partition(PartitionPlan::new(2, 1, 3)).with_plan_seed(0x9);
        let plan = new_plan();
        // Find a cross-side pair under this sim's effective verdict seed.
        let probe: Sim<()> = Sim::new(4).with_faults_ref(&plan);
        let seed = probe.faults().plan_seed() ^ 4;
        let part = *plan.partition().unwrap();
        let a = 0;
        let b = (1..64)
            .find(|&b| part.side_of(seed, a, probe.net()) != part.side_of(seed, b, probe.net()))
            .expect("a 2-island split has both sides");
        let deliveries = |epoch: u64| {
            let mut p = new_plan();
            p.set_epoch(epoch);
            let mut sim: Sim<()> = Sim::new(4).with_faults(p);
            sim.send(a, b, 0, ());
            let mut got = 0;
            sim.run(|_, _| got += 1);
            (got, sim.stats().messages_blocked)
        };
        assert_eq!(deliveries(0), (1, 0), "closed before open_epoch");
        assert_eq!(deliveries(1), (0, 1), "severed during the interval");
        assert_eq!(deliveries(2), (0, 1), "still severed");
        assert_eq!(deliveries(3), (1, 0), "healed at heal_epoch");
    }

    #[test]
    fn loss_plan_verdicts_are_replayable_and_counted() {
        use crate::faults::LossPlan;
        let run = |seed: u64| {
            let plan = FaultPlan::new().with_loss(LossPlan::bernoulli(0.3));
            let mut sim: Sim<u64> = Sim::new(seed).with_faults(plan);
            for i in 0..200 {
                sim.send(0, 1 + (i as usize % 7), 0, i);
            }
            let mut delivered = Vec::new();
            sim.run(|_, env| delivered.push(env.payload));
            (delivered, sim.stats().messages_lost)
        };
        let (delivered, lost) = run(21);
        assert_eq!(run(21), (delivered.clone(), lost), "verdicts replay exactly");
        assert!(lost > 20 && lost < 100, "lost = {lost} of 200 at p=0.3");
        assert_eq!(delivered.len() as u64 + lost, 200);
        assert_ne!(run(22).1, 0, "a different sim seed still loses messages");
    }

    #[test]
    fn loss_attempt_counter_gives_retries_fresh_verdicts() {
        use crate::faults::LossPlan;
        // p=0.5: across 64 attempts of the same edge both verdicts occur —
        // proof the per-edge attempt counter advances (a retry is not
        // doomed to repeat its predecessor's fate).
        let plan = FaultPlan::new().with_loss(LossPlan::bernoulli(0.5));
        let mut sim: Sim<u8> = Sim::new(6).with_faults(plan);
        for _ in 0..64 {
            sim.send(2, 3, 0, 0);
        }
        sim.run(|_, _| {});
        let lost = sim.stats().messages_lost;
        assert!(lost > 0 && lost < 64, "verdicts must vary across attempts, lost = {lost}");
    }

    #[test]
    fn rate_limit_prices_overflow_without_perturbing_schedule() {
        use crate::faults::RateLimitPlan;
        let plan = FaultPlan::new().with_rate_limit(RateLimitPlan::new(2, 5));
        let mut sim: Sim<u8> = Sim::new(8).with_faults(plan);
        for _ in 0..4 {
            sim.send(0, 1, 0, 0);
        }
        let mut costs = Vec::new();
        sim.run(|_, env| costs.push((env.at, env.cost)));
        // Unit net model: base edge cost 1. Bucket of 2, then 5 ms × k.
        assert_eq!(
            costs.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            vec![1, 1, 6, 11],
            "overflow queues linearly on the cost path"
        );
        // Scheduling stayed on unit ticks for all four messages.
        assert!(costs.iter().all(|&(at, _)| at == 1), "queueing must never delay the clock");
        assert_eq!(sim.stats().messages_throttled, 2);
        assert_eq!(sim.stats().deliveries, 4);
    }

    #[test]
    fn trace_records_hops_verdicts_and_deliveries() {
        use crate::faults::LossPlan;
        use crate::trace::{TraceEvent, TraceSink, Verdict};
        let plan = FaultPlan::new().with_loss(LossPlan::bernoulli(0.5));
        let run = || {
            let mut sim: Sim<u8> = Sim::new(6).with_faults_ref(&plan).with_trace(TraceSink::new());
            for _ in 0..16 {
                sim.send(2, 3, 0, 0);
            }
            sim.run(|sim, env| sim.trace_answer(&env));
            sim.take_trace().expect("sink attached")
        };
        let trace = run();
        let lost = trace
            .records()
            .iter()
            .filter(|r| matches!(&r.event, TraceEvent::FaultVerdict { verdict: Verdict::Lost, .. }))
            .count();
        let hops =
            trace.records().iter().filter(|r| matches!(&r.event, TraceEvent::Hop { .. })).count();
        let answers = trace
            .records()
            .iter()
            .filter(|r| matches!(&r.event, TraceEvent::Answer { .. }))
            .count();
        assert_eq!(lost + hops, 16, "every send got exactly one ruling");
        assert_eq!(answers, hops, "every delivery was marked as answering");
        assert!(lost > 0 && hops > 0, "p=0.5 over 16 attempts produces both");
        // The stream is (time, id)-ordered and replays byte-identically.
        let lines: Vec<String> = trace.records().iter().map(|r| r.to_json_line()).collect();
        let replay: Vec<String> = run().records().iter().map(|r| r.to_json_line()).collect();
        assert_eq!(lines, replay);
        let mut stamps: Vec<(u64, u64)> = trace.records().iter().map(|r| (r.time, r.id)).collect();
        let unsorted = stamps.clone();
        stamps.sort_unstable();
        assert_eq!(unsorted, stamps);
    }

    #[test]
    fn tracing_never_perturbs_stats_or_outcomes() {
        use crate::faults::LossPlan;
        use crate::trace::TraceSink;
        let plan = FaultPlan::new().with_loss(LossPlan::bernoulli(0.3));
        let run = |traced: bool| {
            let mut sim: Sim<u64> = Sim::new(21).with_faults_ref(&plan).with_net(NetModel::wan());
            if traced {
                sim = sim.with_trace(TraceSink::new());
            }
            sim.send(0, 0, 0, 6);
            let mut seen = Vec::new();
            sim.run(|sim, env| {
                seen.push((env.to, env.hop, env.cost, env.at));
                if env.payload > 0 {
                    sim.forward(&env, (env.to + 1) % 5, env.payload - 1);
                }
            });
            (seen, sim.stats().clone())
        };
        assert_eq!(run(false), run(true), "the sink must be observation-only");
    }

    #[test]
    fn recycled_sim_replays_a_fresh_sim_exactly() {
        // A Sim built from recycled scratch must be logically identical to
        // a fresh one: same deliveries, same stats, same virtual times —
        // under jittered latency (heap traffic) and a lossy plan (RNG +
        // bookkeeping traffic), across several recycles.
        use crate::faults::LossPlan;
        let plan = FaultPlan::new().with_loss(LossPlan::bernoulli(0.3));
        let run = |sim: &mut Sim<u64>| {
            for i in 0..40 {
                sim.send(i % 7, (i + 1) % 7, 0, i as u64);
            }
            let mut seen = Vec::new();
            sim.run(|_, env| seen.push((env.from, env.to, env.at, env.payload)));
            (seen, sim.stats().clone())
        };
        let fresh = {
            let mut sim: Sim<u64> = Sim::new(17)
                .with_latency(LatencyModel::Uniform { lo: 1, hi: 9 })
                .with_faults_ref(&plan);
            run(&mut sim)
        };
        let mut scratch = SimScratch::new();
        for round in 0..3 {
            let mut sim: Sim<u64> = Sim::from_scratch(17, &mut scratch)
                .with_latency(LatencyModel::Uniform { lo: 1, hi: 9 })
                .with_faults_ref(&plan);
            assert_eq!(run(&mut sim), fresh, "round {round} diverged");
            sim.recycle(&mut scratch);
        }
    }

    #[test]
    fn send_counters_reproduce_an_ordered_map_oracle_across_recycles() {
        // Forwarding chains over six nodes repeat every edge many times.
        // Under per-edge loss, bursty loss and a rate limit, a recycled
        // simulator's stats and trace equal a fresh one's byte for byte, and
        // each network send's ruling in the trace replays against attempt
        // indices and bucket counts kept in ordered maps.
        use crate::trace::{TraceRecord, TraceSink};
        use std::collections::BTreeMap;
        let run = |sim: &mut Sim<'_, u64>, round: u64| -> (String, Vec<TraceRecord>) {
            for i in 0..24 {
                sim.send(i % 6, (i * 7 + round as usize) % 6, 0, 40 + i as u64);
            }
            sim.run(|sim, env| {
                if env.payload > 0 {
                    let to = (env.to + 1 + (env.payload * 13 + round) as usize % 5) % 6;
                    sim.forward(&env, to, env.payload - 1);
                }
            });
            let records = sim.take_trace().unwrap().into_records();
            (format!("{:?}", sim.stats()), records)
        };
        let json = |records: &[TraceRecord]| -> Vec<String> {
            records.iter().map(TraceRecord::to_json_line).collect()
        };
        for name in ["lossy-p", "bursty", "throttle"] {
            let plan = FaultPlan::named_hostile(name).unwrap();
            let mut scratch = SimScratch::new();
            for round in 0..4 {
                let seed = 90 + round;
                let traced = |sim: Sim<'static, u64>| sim.with_trace(TraceSink::new());
                let mut sim = traced(Sim::from_scratch(seed, &mut scratch)).with_faults_ref(&plan);
                let (stats, records) = run(&mut sim, round);
                sim.recycle(&mut scratch);
                let mut fresh = traced(Sim::new(seed)).with_faults_ref(&plan);
                let (fresh_stats, fresh) = run(&mut fresh, round);
                assert_eq!(stats, fresh_stats, "{name} round {round}");
                assert_eq!(json(&records), json(&fresh), "{name} round {round}");

                let salt = plan.plan_seed() ^ seed;
                let mut attempts: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
                let mut sends: BTreeMap<NodeId, u64> = BTreeMap::new();
                let (mut lost, mut throttled, mut announced) = (0, 0, None);
                for r in &records {
                    match &r.event {
                        TraceEvent::FaultVerdict { src, dst, verdict, plan: ruling } => {
                            if *verdict == Verdict::Throttled {
                                announced = Some((*src, *dst, ruling.clone()));
                                continue;
                            }
                            assert_eq!(*verdict, Verdict::Lost, "{name}: {ruling}");
                            let a = attempts.entry((*src, *dst)).or_insert(0);
                            assert!(plan.loss().unwrap().lost(salt, *src, *dst, *a));
                            assert_eq!(*ruling, format!("hash-loss attempt {a}"));
                            *a += 1;
                            lost += 1;
                        }
                        TraceEvent::Hop {
                            src, dst, edge_cost_ms, kind: HopKind::Network, ..
                        } => {
                            if let Some(loss) = plan.loss() {
                                let a = attempts.entry((*src, *dst)).or_insert(0);
                                assert!(
                                    !loss.lost(salt, *src, *dst, *a),
                                    "{name}: delivered a loss"
                                );
                                *a += 1;
                            }
                            let queueing = plan.rate_limit().map_or(0, |rl| {
                                let sent = sends.entry(*src).or_insert(0);
                                *sent += 1;
                                rl.queue_delay(*sent)
                            });
                            let want = (queueing > 0)
                                .then(|| (*src, *dst, format!("rate-limit +{queueing}ms")));
                            throttled += u64::from(queueing > 0);
                            assert_eq!(announced.take(), want, "{name} round {round}");
                            let edge = NetModel::unit().edge_cost(*src, *dst);
                            assert_eq!(*edge_cost_ms, queueing + edge);
                        }
                        _ => {}
                    }
                }
                assert!(lost + throttled > 0, "{name} round {round}: the plan never ruled");
                assert!(stats.contains(&format!("messages_lost: {lost},")), "{stats}");
                assert!(stats.contains(&format!("messages_throttled: {throttled},")), "{stats}");
            }
        }
    }

    #[test]
    fn borrowed_fault_plan_clones_on_first_write_only() {
        let plan = FaultPlan::new();
        let mut sim: Sim<()> = Sim::new(1).with_faults_ref(&plan);
        sim.faults_mut().crash(3); // copy-on-write: the caller's plan is untouched
        assert!(sim.faults().is_crashed(3));
        assert!(!plan.is_crashed(3));
    }

    #[test]
    fn unit_net_model_cost_equals_hop_depth() {
        let mut sim: Sim<u8> = Sim::new(9);
        sim.send(0, 0, 0, 4);
        sim.run(|sim, env| {
            assert_eq!(env.cost, u64::from(env.hop), "unit cost reproduces hop ticks");
            if env.payload > 0 {
                sim.forward(&env, env.to + 1, env.payload - 1);
            }
        });
    }
}
