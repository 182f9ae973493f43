//! The simulator kernel: a unit-tick clock, message sending and delivery.

use crate::counts::SendCounts;
use crate::faults::FaultPlan;
use crate::net::NetModel;
use crate::stats::SimStats;
use crate::trace::{HopKind, TraceEvent, TraceSink};
use crate::verdicts::Verdicts;
use crate::{NodeId, SimTime};
use std::collections::VecDeque;

/// The plan a [`Sim`] runs under until [`Sim::with_faults`] lends it one.
static NO_FAULTS: FaultPlan = FaultPlan::new();

/// A message delivered to a node, at the simulator's [`now`](Sim::now).
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sender node.
    pub from: NodeId,
    /// Receiver node.
    pub to: NodeId,
    /// Overlay hop depth: number of hops from the protocol's origin. The
    /// initial self-delivery that starts a protocol has depth 0.
    pub hop: u32,
    /// Accumulated [`NetModel`] cost (virtual milliseconds) along this
    /// message's forwarding chain: the parent envelope's cost plus the
    /// edge cost of the final hop. Under the default `unit` model this
    /// equals `hop` — accumulation never perturbs scheduling, so hop
    /// metrics and message sets are identical under every cost model.
    pub cost: u64,
    /// Protocol payload.
    pub payload: M,
}

/// The simulator: one clock in unit ticks and two delivery lanes.
///
/// Generic over the protocol message type `M`. A network message lands one
/// tick after it was sent, a self-delivery in the tick it was sent in. A
/// tick delivers the network sends of the tick before, then its own
/// self-deliveries; each lane is FIFO, so within a tick deliveries come in
/// send order. Create one `Sim` per query/protocol run — or, on hot paths,
/// recycle the lanes across runs via [`Sim::from_scratch`]/[`Sim::recycle`]
/// so batch drivers amortize their capacity.
///
/// The fault plan is borrowed for the run ([`Sim::with_faults`]) and never
/// changes under it, so every verdict is decided at send time, by the run's
/// [`Verdicts`] chain.
pub struct Sim<'p, M> {
    now: SimTime,
    /// Network sends in send order: the first `due` were sent the tick
    /// before and land in this one, the rest land at `now + 1`. An
    /// envelope is written once and read once.
    network: VecDeque<Envelope<M>>,
    due: usize,
    /// Self-deliveries of this tick, in send order, delivered after its
    /// network sends.
    local: VecDeque<Envelope<M>>,
    net: NetModel,
    /// The plan's verdict chain, which also holds the run's counters.
    verdicts: Verdicts<'p>,
    /// Whether the plan injects anything: a fault-free plan rules on no
    /// send, so the verdict chain is skipped whole.
    faulty: bool,
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
            .field("stats", self.stats())
            .finish_non_exhaustive()
    }
}

impl<'p, M> Sim<'p, M> {
    /// Creates a simulator with the unit cost model and no faults, seeded
    /// deterministically.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: 0,
            network: VecDeque::new(),
            due: 0,
            local: VecDeque::new(),
            net: NetModel::unit(),
            verdicts: Verdicts::new(&NO_FAULTS, seed),
            faulty: false,
            trace: None,
        }
    }

    /// [`new`](Sim::new), recycling the collections parked in `scratch` by a
    /// previous run's [`recycle`](Sim::recycle) — both lanes keep their
    /// grown capacity, so steady-state queries allocate nothing for
    /// scheduling. The scratch's collections are left empty.
    pub fn from_scratch(seed: u64, scratch: &mut SimScratch<M>) -> Self {
        let mut sim = Sim::new(seed);
        sim.network = std::mem::take(&mut scratch.network);
        sim.local = std::mem::take(&mut scratch.local);
        sim.verdicts.counts = std::mem::take(&mut scratch.counts);
        debug_assert!(sim.pending() == 0, "recycled scratch must arrive empty");
        sim
    }

    /// Parks this simulator's collections in `scratch` for the next
    /// [`from_scratch`](Sim::from_scratch), clearing them first. The lanes
    /// and the fault counters retain capacity across the round trip;
    /// clearing the counters costs only the entries this run filled.
    pub fn recycle(mut self, scratch: &mut SimScratch<M>) {
        self.network.clear();
        self.local.clear();
        self.verdicts.counts.clear();
        scratch.network = std::mem::take(&mut self.network);
        scratch.local = std::mem::take(&mut self.local);
        scratch.counts = std::mem::take(&mut self.verdicts.counts);
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

    /// Replaces the [`NetModel`] whose per-edge costs accumulate into
    /// [`Envelope::cost`]. Scheduling (and therefore event order, hop
    /// metrics, and message sets) is unaffected: the cost layer rides on
    /// top of the unit-tick clock.
    pub fn with_net(mut self, net: NetModel) -> Self {
        self.net = net;
        self
    }

    /// Runs under `faults`, borrowed for the run: no clone per query.
    pub fn with_faults(mut self, faults: &'p FaultPlan) -> Self {
        self.verdicts.plan = faults;
        self.faulty = !faults.is_fault_free();
        self
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.verdicts.stats
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
        self.verdicts.stats.messages_sent += u64::from(is_network);
        let queueing = if self.faulty {
            let trace = self.trace.as_deref_mut().map(|sink| (sink, self.now));
            let Some(queueing) = self.verdicts.rule(from, to, is_network, &self.net, trace) else {
                return;
            };
            queueing
        } else {
            0
        };
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
        let env = Envelope { from, to, hop, cost, payload };
        if is_network {
            self.network.push_back(env);
        } else {
            self.local.push_back(env);
        }
    }

    /// Forwards in response to a received envelope: hop depth increments
    /// and the accumulated [`NetModel`] cost carries over automatically.
    pub fn forward(&mut self, received: &Envelope<M>, to: NodeId, payload: M) {
        self.send_with_cost(received.to, to, received.hop + 1, received.cost, payload);
    }

    /// Runs until both lanes drain, calling `handler` for each delivery:
    /// the tick's due network sends, then its self-deliveries; then the
    /// network sends made meanwhile fall due and the clock advances by one.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Sim<'p, M>, Envelope<M>),
    {
        loop {
            let next = if self.due > 0 {
                self.due -= 1;
                self.network.pop_front()
            } else {
                self.local.pop_front()
            };
            let Some(env) = next else {
                if self.network.is_empty() {
                    break;
                }
                self.due = self.network.len();
                self.now += 1;
                continue;
            };
            let stats = &mut self.verdicts.stats;
            stats.deliveries += 1;
            if env.from != env.to {
                stats.max_hop_delivered = stats.max_hop_delivered.max(env.hop);
            }
            if self.trace.is_some() {
                let ev = TraceEvent::Delivery { node: env.to, hop: env.hop, cost_ms: env.cost };
                self.emit(ev);
            }
            handler(self, env);
        }
    }

    /// Number of undelivered messages still queued (non-zero before `run`
    /// returns).
    pub fn pending(&self) -> usize {
        self.network.len() + self.local.len()
    }
}

/// Parked [`Sim`] collections for reuse across queries: both delivery
/// lanes and the fault-bookkeeping counters. One lives per driver thread; a
/// query builds its simulator with [`Sim::from_scratch`] and parks the
/// collections back with [`Sim::recycle`], so steady-state scheduling
/// allocates nothing.
///
/// Recycling is observationally inert: a recycled `Sim` starts from the
/// identical logical state as a fresh one (empty collections, fresh RNG,
/// clock at zero) — only retained *capacity* differs, which no metric,
/// digest, or trace can see.
pub struct SimScratch<M> {
    network: VecDeque<Envelope<M>>,
    local: VecDeque<Envelope<M>>,
    counts: SendCounts,
}

impl<M> Default for SimScratch<M> {
    fn default() -> Self {
        let counts = SendCounts::default();
        SimScratch { network: VecDeque::new(), local: VecDeque::new(), counts }
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
            .field("lane_capacity", &(self.network.capacity() + self.local.capacity()))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{LossPlan, RateLimitPlan};
    use crate::trace::{TraceRecord, Verdict};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;

    #[test]
    fn delivers_in_time_then_fifo_order() {
        let mut sim: Sim<&str> = Sim::new(1);
        sim.send(0, 1, 0, "a"); // t=1
        sim.send(0, 2, 0, "b"); // t=1, after "a"
        sim.send(0, 0, 0, "now"); // t=0: a self-delivery lands in this tick
        let mut order = Vec::new();
        sim.run(|sim, env| order.push((sim.now(), env.payload)));
        assert_eq!(order, vec![(0, "now"), (1, "a"), (1, "b")]);
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
        let mut plan = FaultPlan::new();
        plan.crash(1);
        let mut sim: Sim<()> = Sim::new(1).with_faults(&plan);
        sim.send(0, 1, 0, ());
        let mut delivered = 0;
        sim.run(|_, _| delivered += 1);
        assert_eq!(delivered, 0);
        assert_eq!(sim.stats().messages_to_crashed, 1);
        assert_eq!(sim.stats().messages_sent, 1); // send still cost a message
    }

    #[test]
    fn drop_probability_one_drops_everything() {
        let plan = FaultPlan::with_drop_prob(1.0);
        let mut sim: Sim<()> = Sim::new(1).with_faults(&plan);
        sim.send(0, 1, 0, ());
        let mut delivered = 0;
        sim.run(|_, _| delivered += 1);
        assert_eq!(delivered, 0);
        assert_eq!(sim.stats().messages_dropped, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        // The drop-probability stream is the simulator's RNG: the seed picks
        // which forwards survive, and so when and where the chain arrives.
        let plan = FaultPlan::with_drop_prob(0.3);
        let run = |seed: u64| {
            let mut sim: Sim<u64> = Sim::new(seed).with_faults(&plan);
            for i in 0..8 {
                sim.send(0, 0, 0, 10 + i);
            }
            let mut seen = Vec::new();
            sim.run(|sim, env| {
                seen.push((sim.now(), env.to, env.payload));
                if env.payload > 0 {
                    sim.forward(&env, (env.to + 1) % 4, env.payload - 1);
                }
            });
            seen
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn envelope_cost_accumulates_net_model_edges() {
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
        // Find a cross-side pair under this plan's sides.
        let seed = plan.plan_seed();
        let part = *plan.partition().unwrap();
        let unit = NetModel::unit();
        let a = 0;
        let b = (1..64)
            .find(|&b| part.side_of(seed, a, &unit) != part.side_of(seed, b, &unit))
            .expect("a 2-island split has both sides");
        let deliveries = |epoch: u64| {
            let mut p = new_plan();
            p.set_epoch(epoch);
            let mut sim: Sim<()> = Sim::new(4).with_faults(&p);
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
    fn partition_sides_are_the_plans_whatever_the_sim_seed() {
        // One open split: the pair it severs is severed for every query
        // seed, so a retry (which reseeds) cannot cross it either.
        let mut open = FaultPlan::named_hostile("split-brain").unwrap().with_plan_seed(0x9);
        open.set_epoch(1);
        let (part, unit) = (*open.partition().unwrap(), NetModel::unit());
        let side = |node| part.side_of(open.plan_seed(), node, &unit);
        let b = (1..64).find(|&b| side(0) != side(b)).expect("a split has two sides");
        for seed in 1..=8 {
            let mut sim: Sim<()> = Sim::new(seed).with_faults(&open);
            sim.send(0, b, 0, ());
            sim.run(|_, _| panic!("seed {seed} crossed the split"));
            assert_eq!(sim.stats().messages_blocked, 1, "seed {seed}");
        }
    }

    #[test]
    fn loss_plan_verdicts_are_replayable_and_counted() {
        let plan = FaultPlan::new().with_loss(LossPlan::bernoulli(0.3));
        let run = |seed: u64| {
            let mut sim: Sim<u64> = Sim::new(seed).with_faults(&plan);
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
        // p=0.5: across 64 attempts of the same edge both verdicts occur —
        // proof the per-edge attempt counter advances (a retry is not
        // doomed to repeat its predecessor's fate).
        let plan = FaultPlan::new().with_loss(LossPlan::bernoulli(0.5));
        let mut sim: Sim<u8> = Sim::new(6).with_faults(&plan);
        for _ in 0..64 {
            sim.send(2, 3, 0, 0);
        }
        sim.run(|_, _| {});
        let lost = sim.stats().messages_lost;
        assert!(lost > 0 && lost < 64, "verdicts must vary across attempts, lost = {lost}");
    }

    #[test]
    fn rate_limit_prices_overflow_without_perturbing_schedule() {
        let plan = FaultPlan::new().with_rate_limit(RateLimitPlan::new(2, 5));
        let mut sim: Sim<u8> = Sim::new(8).with_faults(&plan);
        for _ in 0..4 {
            sim.send(0, 1, 0, 0);
        }
        let mut costs = Vec::new();
        sim.run(|sim, env| costs.push((sim.now(), env.cost)));
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
        let plan = FaultPlan::new().with_loss(LossPlan::bernoulli(0.5));
        let run = || {
            let mut sim: Sim<u8> = Sim::new(6).with_faults(&plan).with_trace(TraceSink::new());
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
        let plan = FaultPlan::new().with_loss(LossPlan::bernoulli(0.3));
        let run = |traced: bool| {
            let mut sim: Sim<u64> = Sim::new(21).with_faults(&plan).with_net(NetModel::wan());
            if traced {
                sim = sim.with_trace(TraceSink::new());
            }
            sim.send(0, 0, 0, 6);
            let mut seen = Vec::new();
            sim.run(|sim, env| {
                seen.push((env.to, env.hop, env.cost, sim.now()));
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
        // under RNG-stream drops and a hash-verdict loss plan (RNG and
        // bookkeeping traffic), with forwarding chains filling both lanes,
        // across several recycles.
        let plan = FaultPlan::with_drop_prob(0.2).with_loss(LossPlan::bernoulli(0.3));
        let run = |sim: &mut Sim<u64>| {
            for i in 0..40 {
                sim.send(i % 7, (i + i % 2) % 7, 0, i as u64 % 5);
            }
            let mut seen = Vec::new();
            sim.run(|sim, env| {
                seen.push((env.from, env.to, sim.now(), env.payload));
                if env.payload > 0 {
                    sim.forward(&env, (env.to + 3) % 7, env.payload - 1);
                }
            });
            (seen, sim.stats().clone())
        };
        let fresh = run(&mut Sim::new(17).with_faults(&plan));
        assert!(fresh.1.messages_dropped > 0 && fresh.1.messages_lost > 0, "{:?}", fresh.1);
        let mut scratch = SimScratch::new();
        for round in 0..3 {
            let mut sim: Sim<u64> = Sim::from_scratch(17, &mut scratch).with_faults(&plan);
            assert_eq!(run(&mut sim), fresh, "round {round} diverged");
            sim.recycle(&mut scratch);
        }
    }

    // The lane contract, over random programs of self-deliveries and
    // forwards under a lossy, rate-limited plan: deliveries come in tick
    // order and, within a tick, in send order; a forward lands one tick
    // after the delivery that sent it, a self-delivery in that delivery's
    // tick; and a recycled simulator replays a fresh one.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn lanes_deliver_in_tick_then_send_order(
            seed in any::<u64>(),
            program in prop::collection::vec((any::<bool>(), 0usize..6), 1..96),
        ) {
            let plan = FaultPlan::new()
                .with_loss(LossPlan::bernoulli(0.2))
                .with_rate_limit(RateLimitPlan::new(2, 3));
            // Message ids are send order. Each delivery takes the program's
            // next two steps: `true` self-delivers, `false` forwards.
            let drive = |sim: &mut Sim<'_, usize>| {
                let mut sent: Vec<(bool, SimTime)> = vec![(true, 0)];
                let mut got: Vec<(usize, SimTime)> = Vec::new();
                let mut steps = program.iter();
                sim.send(0, 0, 0, 0);
                sim.run(|sim, env| {
                    got.push((env.payload, sim.now()));
                    for &(local, peer) in steps.by_ref().take(2) {
                        let id = sent.len();
                        sent.push((local, sim.now()));
                        if local {
                            sim.send_with_cost(env.to, env.to, env.hop, env.cost, id);
                        } else {
                            sim.forward(&env, (env.to + 1 + peer) % 7, id);
                        }
                    }
                });
                let json: Vec<String> = sim
                    .take_trace()
                    .map(|t| t.records().iter().map(TraceRecord::to_json_line).collect())
                    .unwrap_or_default();
                (sent, got, format!("{:?}", sim.stats()), json)
            };
            let traced = |sim: Sim<'static, usize>| sim.with_trace(TraceSink::new());
            let fresh = drive(&mut traced(Sim::new(seed)).with_faults(&plan));
            let (sent, got, _, _) = &fresh;
            for pair in got.windows(2) {
                let ((a, ta), (b, tb)) = (pair[0], pair[1]);
                prop_assert!(ta < tb || (ta == tb && a < b), "{a}@{ta} before {b}@{tb}");
            }
            for &(id, tick) in got {
                let (local, parent_tick) = sent[id];
                prop_assert_eq!(tick, parent_tick + u64::from(!local), "message {}", id);
            }
            let mut delivered = vec![false; sent.len()];
            got.iter().for_each(|&(id, _)| delivered[id] = true);
            for (id, &(local, _)) in sent.iter().enumerate() {
                prop_assert!(!local || delivered[id], "self-delivery {} was lost", id);
            }
            let mut scratch = SimScratch::new();
            for round in 0..2 {
                let mut sim = traced(Sim::from_scratch(seed, &mut scratch)).with_faults(&plan);
                prop_assert_eq!(&drive(&mut sim), &fresh, "round {}", round);
                sim.recycle(&mut scratch);
            }
        }
    }

    #[test]
    fn send_counters_reproduce_an_ordered_map_oracle_across_recycles() {
        // Forwarding chains over six nodes repeat every edge many times.
        // Under per-edge loss, bursty loss and a rate limit, a recycled
        // simulator's stats and trace equal a fresh one's byte for byte, and
        // each network send's ruling in the trace replays against attempt
        // indices and bucket counts kept in ordered maps.
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
                let mut sim = traced(Sim::from_scratch(seed, &mut scratch)).with_faults(&plan);
                let (stats, records) = run(&mut sim, round);
                sim.recycle(&mut scratch);
                let mut fresh = traced(Sim::new(seed)).with_faults(&plan);
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

    /// The simulator as it was with two lanes, kept as the reference the
    /// engine is checked against: `cur` holds the tick being delivered (the
    /// tick before's network sends, then this tick's self-deliveries),
    /// `next` this tick's network sends, and a tick ends with
    /// `cur.append(&mut next)`. Every send runs the whole fault chain, its
    /// attempt and bucket counters kept in ordered maps.
    struct TwoLanes<'p> {
        now: SimTime,
        seed: u64,
        cur: VecDeque<Envelope<u64>>,
        next: VecDeque<Envelope<u64>>,
        rng: SmallRng,
        net: NetModel,
        faults: &'p FaultPlan,
        stats: SimStats,
        attempts: std::collections::BTreeMap<(NodeId, NodeId), u64>,
        sends: std::collections::BTreeMap<NodeId, u64>,
        trace: TraceSink,
    }

    impl TwoLanes<'_> {
        fn trace_verdict(&mut self, src: NodeId, dst: NodeId, verdict: Verdict, plan: String) {
            self.trace.emit(self.now, TraceEvent::FaultVerdict { src, dst, verdict, plan });
        }
    }

    /// What the delivery-order reference drives: the engine, or
    /// [`TwoLanes`].
    trait Lanes {
        fn now(&self) -> SimTime;
        fn send_with_cost(&mut self, from: NodeId, to: NodeId, hop: u32, base: u64, id: u64);
        fn forward(&mut self, received: &Envelope<u64>, to: NodeId, id: u64);
        fn answer(&mut self, env: &Envelope<u64>);
        fn drain(&mut self, handler: &mut dyn FnMut(&mut Self, Envelope<u64>));
    }

    impl Lanes for Sim<'_, u64> {
        fn now(&self) -> SimTime {
            self.now
        }
        fn send_with_cost(&mut self, from: NodeId, to: NodeId, hop: u32, base: u64, id: u64) {
            Sim::send_with_cost(self, from, to, hop, base, id);
        }
        fn forward(&mut self, received: &Envelope<u64>, to: NodeId, id: u64) {
            Sim::forward(self, received, to, id);
        }
        fn answer(&mut self, env: &Envelope<u64>) {
            self.trace_answer(env);
        }
        fn drain(&mut self, handler: &mut dyn FnMut(&mut Self, Envelope<u64>)) {
            self.run(handler);
        }
    }

    impl Lanes for TwoLanes<'_> {
        fn now(&self) -> SimTime {
            self.now
        }
        fn send_with_cost(&mut self, from: NodeId, to: NodeId, hop: u32, base: u64, id: u64) {
            let is_network = from != to;
            let mut queueing = 0;
            if is_network {
                self.stats.messages_sent += 1;
                if let Some(rl) = self.faults.rate_limit() {
                    let sent = self.sends.entry(from).or_insert(0);
                    *sent += 1;
                    queueing = rl.queue_delay(*sent);
                    if queueing > 0 {
                        self.stats.messages_throttled += 1;
                        let plan = format!("rate-limit +{queueing}ms");
                        self.trace_verdict(from, to, Verdict::Throttled, plan);
                    }
                }
                if let Some(part) = self.faults.partition() {
                    let epoch = self.faults.epoch();
                    if part.severed(self.faults.plan_seed(), epoch, from, to, &self.net) {
                        self.stats.messages_blocked += 1;
                        let plan = format!("partition epoch {epoch}");
                        return self.trace_verdict(from, to, Verdict::Blocked, plan);
                    }
                }
                if self.faults.should_drop(&mut self.rng) {
                    self.stats.messages_dropped += 1;
                    return self.trace_verdict(from, to, Verdict::Dropped, "drop-prob".into());
                }
                if let Some(loss) = self.faults.loss() {
                    let count = self.attempts.entry((from, to)).or_insert(0);
                    let attempt = *count;
                    *count += 1;
                    if loss.lost(self.faults.plan_seed() ^ self.seed, from, to, attempt) {
                        self.stats.messages_lost += 1;
                        let plan = format!("hash-loss attempt {attempt}");
                        return self.trace_verdict(from, to, Verdict::Lost, plan);
                    }
                }
            }
            if self.faults.is_crashed(to) {
                self.stats.messages_to_crashed += 1;
                return self.trace_verdict(from, to, Verdict::ToCrashed, "crashed receiver".into());
            }
            let edge_cost_ms = queueing + if is_network { self.net.edge_cost(from, to) } else { 0 };
            let cost = base + edge_cost_ms;
            let kind = if is_network { HopKind::Network } else { HopKind::Local };
            let hop_event =
                TraceEvent::Hop { src: from, dst: to, hop, edge_cost_ms, cost_ms: cost, kind };
            self.trace.emit(self.now, hop_event);
            let env = Envelope { from, to, hop, cost, payload: id };
            if is_network {
                self.next.push_back(env);
            } else {
                self.cur.push_back(env);
            }
        }
        fn forward(&mut self, received: &Envelope<u64>, to: NodeId, id: u64) {
            self.send_with_cost(received.to, to, received.hop + 1, received.cost, id);
        }
        fn answer(&mut self, env: &Envelope<u64>) {
            let answer = TraceEvent::Answer { node: env.to, hop: env.hop, cost_ms: env.cost };
            self.trace.emit(self.now, answer);
        }
        fn drain(&mut self, handler: &mut dyn FnMut(&mut Self, Envelope<u64>)) {
            loop {
                let Some(env) = self.cur.pop_front() else {
                    if self.next.is_empty() {
                        break;
                    }
                    self.cur.append(&mut self.next);
                    self.now += 1;
                    continue;
                };
                self.stats.deliveries += 1;
                if env.from != env.to {
                    self.stats.max_hop_delivered = self.stats.max_hop_delivered.max(env.hop);
                }
                let delivery =
                    TraceEvent::Delivery { node: env.to, hop: env.hop, cost_ms: env.cost };
                self.trace.emit(self.now, delivery);
                handler(self, env);
            }
        }
    }

    /// One delivered envelope as the reference compares it:
    /// `(now, from, to, hop, cost, payload)`.
    type Delivered = (SimTime, NodeId, NodeId, u32, u64, u64);

    /// Runs a program on `lanes`: the starting sends, then per delivery the
    /// program's next steps — `(0, p)` forwards to peer `p`, `(1, p)` sends
    /// from `p` to the receiver at a hop of its own, `(2, _)` sends to
    /// itself mid-tick, `(3, _)` marks the delivery answered, and `(4, _)`
    /// does nothing. Message ids are send order.
    fn drive<L: Lanes>(
        lanes: &mut L,
        starts: &[(NodeId, NodeId)],
        program: &[(u8, NodeId)],
    ) -> Vec<Delivered> {
        let mut id = 0;
        for &(from, to) in starts {
            lanes.send_with_cost(from, to, 0, 0, id);
            id += 1;
        }
        let (mut got, mut steps) = (Vec::new(), program.iter());
        lanes.drain(&mut |lanes, env| {
            got.push((lanes.now(), env.from, env.to, env.hop, env.cost, env.payload));
            for &(op, peer) in steps.by_ref().take(3) {
                match op {
                    0 => lanes.forward(&env, peer, id),
                    1 => lanes.send_with_cost(peer, env.to, env.hop + 2, env.cost, id),
                    2 => lanes.send_with_cost(env.to, env.to, env.hop, env.cost, id),
                    3 => lanes.answer(&env),
                    _ => {}
                }
                id += 1;
            }
        });
        got
    }

    // The engine against the two-lane reference: over random programs of
    // network sends, forwards and mid-tick self-sends, under a random plan
    // of drops, hash loss, crashes, a rate limit and a partition, on a unit
    // or a wan net, the delivered sequence, the stats and the trace are the
    // reference's — traced or not, fresh or recycled.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn delivery_order_stats_and_trace_match_the_two_lane_reference(
            seed in any::<u64>(),
            starts in prop::collection::vec((0usize..8, 0usize..8), 1..6),
            program in prop::collection::vec((0u8..5, 0usize..8), 0..160),
            drop in prop_oneof![Just(0.0), 0.05f64..0.3],
            (lossy, p, burst) in (any::<bool>(), 0.05f64..0.4, 1u64..4),
            crashed in prop::collection::vec(0usize..8, 0..3),
            (throttled, bucket, delay) in (any::<bool>(), 1u64..4, 1u64..6),
            (split, islands, epoch) in (any::<bool>(), 2u64..4, 0u64..2),
            wan in any::<bool>(),
        ) {
            // Every family is attached about half the time, so about one
            // plan in thirty is fault-free.
            let mut plan = FaultPlan::with_drop_prob(drop).with_plan_seed(seed.rotate_left(17));
            if lossy {
                plan = plan.with_loss(LossPlan::bursty(p, burst));
            }
            if throttled {
                plan = plan.with_rate_limit(RateLimitPlan::new(bucket, delay));
            }
            if split {
                plan = plan.with_partition(crate::faults::PartitionPlan::new(islands, 1, 3));
                plan.set_epoch(epoch);
            }
            crashed.iter().for_each(|&node| plan.crash(node));
            let net = if wan { NetModel::wan() } else { NetModel::unit() };

            let mut reference = TwoLanes {
                now: 0,
                seed,
                cur: VecDeque::new(),
                next: VecDeque::new(),
                rng: crate::rng_from_seed(seed),
                net,
                faults: &plan,
                stats: SimStats::default(),
                attempts: Default::default(),
                sends: Default::default(),
                trace: TraceSink::new(),
            };
            let want = drive(&mut reference, &starts, &program);
            let want_trace: Vec<String> =
                reference.trace.records().iter().map(TraceRecord::to_json_line).collect();

            let mut scratch = SimScratch::new();
            for round in 0..2 {
                let mut sim = Sim::from_scratch(seed, &mut scratch)
                    .with_net(net)
                    .with_faults(&plan)
                    .with_trace(TraceSink::new());
                prop_assert_eq!(&drive(&mut sim, &starts, &program), &want, "round {}", round);
                prop_assert_eq!(sim.stats(), &reference.stats, "round {}", round);
                let trace = sim.take_trace().expect("sink attached");
                let trace: Vec<String> = trace.records().iter().map(TraceRecord::to_json_line).collect();
                prop_assert_eq!(&trace, &want_trace, "round {}", round);
                sim.recycle(&mut scratch);
            }
            let mut untraced = Sim::new(seed).with_net(net).with_faults(&plan);
            prop_assert_eq!(&drive(&mut untraced, &starts, &program), &want);
            prop_assert_eq!(untraced.stats(), &reference.stats);
        }
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
