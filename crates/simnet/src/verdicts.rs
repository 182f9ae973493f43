//! The fault plan's verdict chain: one ruling per send, shared by every
//! engine that loses messages — [`Sim`](crate::Sim) on each scheduled send
//! and a substrate's routed lookups on each edge they cross.

use crate::counts::{Counted, SendCounts};
use crate::faults::FaultPlan;
use crate::net::NetModel;
use crate::stats::SimStats;
use crate::trace::{TraceEvent, TraceSink, Verdict};
use crate::{NodeId, SimTime};
use rand::rngs::SmallRng;

/// The verdict chain of one run under a borrowed [`FaultPlan`]: its seed,
/// the drop-probability RNG, the loss plan's per-edge attempt counters and
/// the rate limiter's per-peer buckets, and the counters of what it
/// refused.
///
/// [`rule`](Verdicts::rule) decides every send in the order it is asked,
/// so a run's verdicts are a pure function of its seed and send order.
#[derive(Debug)]
pub struct Verdicts<'p> {
    pub(crate) plan: &'p FaultPlan,
    seed: u64,
    rng: SmallRng,
    /// Delivery attempts per directed edge (the loss plan's attempt index)
    /// and network messages per peer (the rate limiter's bucket), in one
    /// flat table that is read by key and never iterated.
    pub(crate) counts: SendCounts,
    /// The run's counters. The chain fills the verdict ones
    /// (`messages_dropped`, `_lost`, `_blocked`, `_throttled`,
    /// `_to_crashed`); the rest are its owner's to fill.
    pub(crate) stats: SimStats,
}

impl<'p> Verdicts<'p> {
    /// A fresh chain under `plan` for a run seeded `seed`: no send counted
    /// yet, the drop RNG at the start of its stream.
    pub fn new(plan: &'p FaultPlan, seed: u64) -> Self {
        Verdicts {
            plan,
            seed,
            rng: crate::rng_from_seed(seed),
            counts: SendCounts::default(),
            stats: SimStats::default(),
        }
    }

    /// Rules on the send `from → to`: `None` if the plan refuses it
    /// (counted, and traced into `trace` at its time when one is given),
    /// else the rate limiter's queueing delay for it. A local send
    /// (`is_network` false) meets only the crash check. `net` places the
    /// partition's sides.
    #[inline]
    pub fn rule(
        &mut self,
        from: NodeId,
        to: NodeId,
        is_network: bool,
        net: &NetModel,
        mut trace: Option<(&mut TraceSink, SimTime)>,
    ) -> Option<u64> {
        // The rate limiter's queueing delay for this message (computed up
        // front so the token bucket counts every send attempt — a throttled
        // sender queues messages whether or not the network then loses
        // them — but priced only onto messages that actually schedule).
        let mut queueing = 0;
        if is_network {
            if let Some(rl) = self.plan.rate_limit() {
                queueing = rl.queue_delay(self.counts.bump(Counted::Peer(from)));
                if queueing > 0 {
                    self.stats.messages_throttled += 1;
                    // Throttled is a *pricing* verdict: the message still
                    // goes, with `queueing` folded into its edge cost.
                    emit(&mut trace, from, to, Verdict::Throttled, || {
                        format!("rate-limit +{queueing}ms")
                    });
                }
            }
            // Partition: cross-side delivery is refused while the split is
            // open. The epoch advances between protocol runs, never mid-run.
            // Sides are the plan's alone: every query, and every retry of
            // one, meets the same split.
            if let Some(part) = self.plan.partition() {
                let epoch = self.plan.epoch();
                if part.severed(self.plan.plan_seed(), epoch, from, to, net) {
                    self.stats.messages_blocked += 1;
                    emit(&mut trace, from, to, Verdict::Blocked, || {
                        format!("partition epoch {epoch}")
                    });
                    return None;
                }
            }
            if self.plan.should_drop(&mut self.rng) {
                self.stats.messages_dropped += 1;
                emit(&mut trace, from, to, Verdict::Dropped, || "drop-prob".to_string());
                return None;
            }
            // Hash-verdict loss: the attempt index is this edge's delivery
            // counter, so re-sends (retries) of the same edge get fresh
            // verdicts while the whole stream stays a pure function of the
            // send order — itself deterministic per seed.
            if let Some(loss) = self.plan.loss() {
                let attempt = self.counts.bump(Counted::Edge(from, to)) - 1;
                if loss.lost(self.plan.plan_seed() ^ self.seed, from, to, attempt) {
                    self.stats.messages_lost += 1;
                    emit(&mut trace, from, to, Verdict::Lost, || {
                        format!("hash-loss attempt {attempt}")
                    });
                    return None;
                }
            }
        }
        if self.plan.is_crashed(to) {
            self.stats.messages_to_crashed += 1;
            emit(&mut trace, from, to, Verdict::ToCrashed, || "crashed receiver".to_string());
            return None;
        }
        Some(queueing)
    }
}

/// Traces a fault verdict on the send `src → dst`; `plan` names the ruling
/// component and is spelled only when a sink is given.
#[inline]
fn emit(
    trace: &mut Option<(&mut TraceSink, SimTime)>,
    src: NodeId,
    dst: NodeId,
    verdict: Verdict,
    plan: impl FnOnce() -> String,
) {
    if let Some((sink, now)) = trace {
        sink.emit(*now, TraceEvent::FaultVerdict { src, dst, verdict, plan: plan() });
    }
}
