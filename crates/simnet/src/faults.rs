//! Fault injection: message loss, crashed nodes, partitions, rate limits.
//!
//! Beyond the original crash/drop faults, a [`FaultPlan`] can carry three
//! **hostile-network families**, every decision a pure hash of
//! `(plan, seed, edge/peer, attempt)` — no RNG stream is consumed, so two
//! simulations injecting faults in different orders (or from different
//! threads) see identical verdicts and reports stay bitwise
//! thread-count-invariant:
//!
//! * [`LossPlan`] — per-edge message loss. Each delivery attempt on an
//!   edge gets an attempt index; the drop verdict is a SplitMix64 hash of
//!   `(plan seed ⊕ sim seed, src, dst, attempt / burst)` compared against
//!   the loss probability. `burst = 1` is independent Bernoulli loss
//!   (`lossy-p`); `burst > 1` makes whole windows of consecutive attempts
//!   share one verdict (`bursty`), modelling correlated outages.
//! * [`PartitionPlan`] — a network split into `islands` sides that opens
//!   at one epoch and heals at another. While open, the simulator refuses
//!   cross-side delivery. Side assignment is **cluster-model-aware**:
//!   under the `cluster` [`NetModel`](crate::NetModel) a node's side is its
//!   cluster group (the partition follows the transit-stub topology);
//!   under every other model sides are a pure hash of the node id.
//! * [`RateLimitPlan`] — a deterministic token bucket per sending peer:
//!   the first `burst` network messages of a run are free, and overflow
//!   message `k` is priced `k × delay_ms` of queueing delay through
//!   [`Envelope::cost`](crate::Envelope::cost) (the virtual-millisecond
//!   latency path) without perturbing event scheduling.
//!
//! The named catalog ([`HOSTILE_PLAN_NAMES`], [`FaultPlan::named_hostile`]):
//!
//! | name | family | parameters |
//! |---|---|---|
//! | `lossy-p` | loss | 10% independent per-attempt loss (`lossy-N` = N%) |
//! | `bursty` | loss | 25% of 4-attempt windows drop entirely |
//! | `split-brain` | partition | 2 islands, opens at epoch 1, heals at 3 |
//! | `island-3` | partition | 3 islands, opens at epoch 0, heals at 2 (`island-K` = K islands) |
//! | `throttle` | rate limit | 8-message bucket, 5 ms queueing quantum |

use crate::net::{mix, NetModel};
use crate::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeSet;

/// Names of every cataloged hostile plan, in [`FaultPlan::named_hostile`]
/// order (the parameterized spellings `lossy-N` / `island-K` also parse).
pub const HOSTILE_PLAN_NAMES: [&str; 5] =
    ["lossy-p", "bursty", "split-brain", "island-3", "throttle"];

/// Domain-separation salt for loss verdicts.
const LOSS_SALT: u64 = 0x1055_1055_1055_1055;

/// Domain-separation salt for partition side assignment.
const PARTITION_SALT: u64 = 0x9a97_1710_9a97_1710;

/// Per-edge message loss: the drop verdict of delivery attempt `a` on edge
/// `src → dst` is a pure hash — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossPlan {
    prob: f64,
    burst: u64,
}

impl LossPlan {
    /// Independent Bernoulli loss at probability `p` per delivery attempt.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    pub fn bernoulli(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability must be in [0,1]");
        LossPlan { prob: p, burst: 1 }
    }

    /// Correlated loss: consecutive windows of `burst` attempts on an edge
    /// share one verdict, each window dropping entirely with probability
    /// `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p ≤ 1.0` and `burst ≥ 1`.
    pub fn bursty(p: f64, burst: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability must be in [0,1]");
        assert!(burst >= 1, "burst window must be at least one attempt");
        LossPlan { prob: p, burst }
    }

    /// The per-attempt (or per-window) drop probability.
    pub fn prob(&self) -> f64 {
        self.prob
    }

    /// The burst window length in attempts (1 = independent loss).
    pub fn burst(&self) -> u64 {
        self.burst
    }

    /// The drop verdict for delivery attempt `attempt` on edge
    /// `src → dst`: a pure function of its arguments (no RNG stream).
    pub fn lost(&self, seed: u64, src: NodeId, dst: NodeId, attempt: u64) -> bool {
        if self.prob <= 0.0 {
            return false;
        }
        if self.prob >= 1.0 {
            return true;
        }
        let window = attempt / self.burst;
        let h = mix(seed ^ LOSS_SALT, mix(0, src as u64, dst as u64), window);
        // Compare the hash's top 53 bits (exactly representable in f64)
        // against the probability — bit-reproducible on every platform.
        ((h >> 11) as f64) < self.prob * (1u64 << 53) as f64
    }
}

/// A network partition: `islands` sides, open during
/// `open_epoch ≤ epoch < heal_epoch`. While open the simulator refuses
/// cross-side delivery (see [`Sim::send`](crate::Sim::send)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionPlan {
    islands: u64,
    open_epoch: u64,
    heal_epoch: u64,
}

impl PartitionPlan {
    /// A partition into `islands` sides, open on
    /// `open_epoch ≤ epoch < heal_epoch`.
    ///
    /// # Panics
    ///
    /// Panics unless `islands ≥ 2` and `open_epoch < heal_epoch`.
    pub fn new(islands: u64, open_epoch: u64, heal_epoch: u64) -> Self {
        assert!(islands >= 2, "a partition needs at least two islands");
        assert!(open_epoch < heal_epoch, "partition must heal after it opens");
        PartitionPlan { islands, open_epoch, heal_epoch }
    }

    /// Number of sides the network splits into.
    pub fn islands(&self) -> u64 {
        self.islands
    }

    /// First epoch the split is open.
    pub fn open_epoch(&self) -> u64 {
        self.open_epoch
    }

    /// First epoch the split is healed again.
    pub fn heal_epoch(&self) -> u64 {
        self.heal_epoch
    }

    /// Whether the split is open at `epoch`.
    pub fn active(&self, epoch: u64) -> bool {
        (self.open_epoch..self.heal_epoch).contains(&epoch)
    }

    /// Which side a node is on: its cluster group under the `cluster`
    /// [`NetModel`] (the partition follows the transit-stub topology),
    /// otherwise a pure hash of the node id.
    pub fn side_of(&self, seed: u64, node: NodeId, net: &NetModel) -> u64 {
        match net.cluster_group(node) {
            Some(group) => group % self.islands,
            None => mix(seed ^ PARTITION_SALT, node as u64, self.islands) % self.islands,
        }
    }

    /// Whether delivery `a → b` is refused at `epoch`: the split is open
    /// and the endpoints sit on different sides.
    pub fn severed(&self, seed: u64, epoch: u64, a: NodeId, b: NodeId, net: &NetModel) -> bool {
        self.active(epoch) && self.side_of(seed, a, net) != self.side_of(seed, b, net)
    }
}

/// A deterministic per-peer token bucket: the first `burst` network
/// messages a peer sends in a run are free; overflow message `k` (1-based)
/// is priced `k × delay_ms` of queueing delay through the envelope's
/// accumulated cost — latency only, never scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitPlan {
    burst: u64,
    delay_ms: u64,
}

impl RateLimitPlan {
    /// A bucket of `burst` free messages with a `delay_ms` queueing
    /// quantum per overflow position.
    ///
    /// # Panics
    ///
    /// Panics unless `burst ≥ 1` and `delay_ms ≥ 1`.
    pub fn new(burst: u64, delay_ms: u64) -> Self {
        assert!(burst >= 1, "token bucket must hold at least one message");
        assert!(delay_ms >= 1, "queueing quantum must cost time");
        RateLimitPlan { burst, delay_ms }
    }

    /// Bucket size: network messages a peer sends before queueing starts.
    pub fn burst(&self) -> u64 {
        self.burst
    }

    /// Queueing quantum in virtual milliseconds.
    pub fn delay_ms(&self) -> u64 {
        self.delay_ms
    }

    /// The queueing delay of a peer's `sent`-th network message (1-based):
    /// 0 inside the bucket, `k × delay_ms` for overflow position `k`.
    pub fn queue_delay(&self, sent: u64) -> u64 {
        sent.saturating_sub(self.burst) * self.delay_ms
    }
}

/// Faults applied to a simulation run.
///
/// * Every network message is dropped independently with probability
///   `drop_prob` (the legacy RNG-stream fault — the hostile families below
///   are hash-verdict and thread-count-invariant instead).
/// * Crashed nodes silently discard anything addressed to them. A
///   [`Sim`](crate::Sim) borrows its plan for the whole run, so the check
///   is made once, when the message is sent; crashing a node is a change
///   between runs.
/// * Optional hostile families: [`LossPlan`], [`PartitionPlan`],
///   [`RateLimitPlan`] — see the module docs.
///
/// # Example
///
/// ```
/// use simnet::FaultPlan;
///
/// let mut plan = FaultPlan::with_drop_prob(0.05);
/// plan.crash(3);
/// assert!(plan.is_crashed(3) && !plan.is_crashed(4));
///
/// let hostile = FaultPlan::named_hostile("split-brain").unwrap();
/// assert!(hostile.partition().unwrap().active(1));
/// assert!(!FaultPlan::new().is_hostile());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    drop_prob: f64,
    // A BTreeSet, not a HashSet: `crashed_nodes()` iteration order (and
    // anything derived from it — victim picks, printed reports) must be a
    // pure function of the plan's contents, never of hasher seeds.
    crashed: BTreeSet<NodeId>,
    loss: Option<LossPlan>,
    partition: Option<PartitionPlan>,
    rate_limit: Option<RateLimitPlan>,
    /// The current partition epoch (advanced by the epoch driver; batch
    /// runs stay at 0).
    epoch: u64,
    /// Seed mixed into every hash verdict: alone for partition sides,
    /// alongside the simulator seed for loss.
    plan_seed: u64,
}

impl FaultPlan {
    /// A plan with no faults.
    pub const fn new() -> Self {
        FaultPlan {
            drop_prob: 0.0,
            crashed: BTreeSet::new(),
            loss: None,
            partition: None,
            rate_limit: None,
            epoch: 0,
            plan_seed: 0,
        }
    }

    /// A plan dropping each message independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    pub fn with_drop_prob(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability must be in [0,1]");
        FaultPlan { drop_prob: p, ..FaultPlan::default() }
    }

    /// Looks a hostile plan up by catalog name (see
    /// [`HOSTILE_PLAN_NAMES`]). Besides the exact catalog entries, the
    /// parameterized spellings parse too: `lossy-N` (N% independent loss,
    /// `1 ≤ N ≤ 99`) and `island-K` (K-island partition, `K ≥ 2`).
    pub fn named_hostile(name: &str) -> Option<FaultPlan> {
        let plan = match name {
            "lossy-p" => FaultPlan::default().with_loss(LossPlan::bernoulli(0.10)),
            "bursty" => FaultPlan::default().with_loss(LossPlan::bursty(0.25, 4)),
            "split-brain" => FaultPlan::default().with_partition(PartitionPlan::new(2, 1, 3)),
            "throttle" => FaultPlan::default().with_rate_limit(RateLimitPlan::new(8, 5)),
            _ => {
                if let Some(pct) = name.strip_prefix("lossy-") {
                    let pct: u64 = pct.parse().ok().filter(|p| (1..=99).contains(p))?;
                    FaultPlan::default().with_loss(LossPlan::bernoulli(pct as f64 / 100.0))
                } else if let Some(k) = name.strip_prefix("island-") {
                    let k: u64 = k.parse().ok().filter(|&k| k >= 2)?;
                    FaultPlan::default().with_partition(PartitionPlan::new(k, 0, 2))
                } else {
                    return None;
                }
            }
        };
        Some(plan)
    }

    /// Attaches a loss plan.
    pub fn with_loss(mut self, loss: LossPlan) -> Self {
        self.loss = Some(loss);
        self
    }

    /// Attaches a partition plan.
    pub fn with_partition(mut self, partition: PartitionPlan) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Attaches a rate-limit plan.
    pub fn with_rate_limit(mut self, rate_limit: RateLimitPlan) -> Self {
        self.rate_limit = Some(rate_limit);
        self
    }

    /// Replaces the plan seed mixed into every hash verdict.
    pub fn with_plan_seed(mut self, seed: u64) -> Self {
        self.plan_seed = seed;
        self
    }

    /// The loss plan, if any.
    pub fn loss(&self) -> Option<&LossPlan> {
        self.loss.as_ref()
    }

    /// The partition plan, if any.
    pub fn partition(&self) -> Option<&PartitionPlan> {
        self.partition.as_ref()
    }

    /// The rate-limit plan, if any.
    pub fn rate_limit(&self) -> Option<&RateLimitPlan> {
        self.rate_limit.as_ref()
    }

    /// The plan seed mixed into every hash verdict.
    pub fn plan_seed(&self) -> u64 {
        self.plan_seed
    }

    /// The current partition epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the partition epoch (called by epoch drivers between
    /// epochs; batch runs stay at 0).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Whether any hostile family (loss, partition, rate limit) is
    /// attached.
    pub fn is_hostile(&self) -> bool {
        self.loss.is_some() || self.partition.is_some() || self.rate_limit.is_some()
    }

    /// Whether the plan injects no faults at all — the gate fault-unaware
    /// schemes use to accept a trivial plan instead of refusing.
    pub fn is_fault_free(&self) -> bool {
        self.drop_prob == 0.0 && self.crashed.is_empty() && !self.is_hostile()
    }

    /// The first crashed node id at or beyond `n`, if any — callers that
    /// know their network size use this to reject plans naming
    /// out-of-range peers instead of silently ignoring them.
    pub fn first_out_of_range(&self, n: usize) -> Option<NodeId> {
        self.crashed.range(n..).next().copied()
    }

    /// The first crashed node id that `is_live` refuses, if any — the
    /// [`first_out_of_range`](Self::first_out_of_range) of a network whose
    /// live ids are not `0..n` (a churned one, with freed slots and ids
    /// handed out past its size). Asks `is_live` once per crashed id.
    pub fn first_not_live(&self, is_live: impl Fn(NodeId) -> bool) -> Option<NodeId> {
        self.crashed.iter().copied().find(|&node| !is_live(node))
    }

    /// The message-drop probability.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// Sets the message-drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    pub fn set_drop_prob(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "drop probability must be in [0,1]");
        self.drop_prob = p;
    }

    /// Marks a node as crashed.
    pub fn crash(&mut self, node: NodeId) {
        self.crashed.insert(node);
    }

    /// Whether a node is crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(&node)
    }

    /// Number of crashed nodes.
    pub fn crashed_count(&self) -> usize {
        self.crashed.len()
    }

    /// Iterates over crashed nodes in ascending `NodeId` order — a
    /// deterministic order, so derived streams (victim selection, report
    /// rows) are run-independent.
    pub fn crashed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.crashed.iter().copied()
    }

    pub(crate) fn should_drop(&self, rng: &mut SmallRng) -> bool {
        self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_fault_free() {
        let plan = FaultPlan::new();
        assert_eq!(plan.drop_prob(), 0.0);
        assert_eq!(plan.crashed_count(), 0);
        assert!(plan.is_fault_free());
        assert!(!plan.is_hostile());
        let mut rng = crate::rng_from_seed(1);
        for _ in 0..100 {
            assert!(!plan.should_drop(&mut rng));
        }
    }

    #[test]
    fn drop_probability_is_roughly_respected() {
        let plan = FaultPlan::with_drop_prob(0.3);
        let mut rng = crate::rng_from_seed(2);
        let drops = (0..10_000).filter(|_| plan.should_drop(&mut rng)).count();
        assert!((2_500..3_500).contains(&drops), "drops = {drops}");
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn rejects_invalid_probability() {
        FaultPlan::with_drop_prob(1.5);
    }

    #[test]
    fn crashed_nodes_iterate_in_sorted_order_regardless_of_insertion() {
        // Regression: a HashSet here made crashed_nodes() run-dependent.
        let mut plan = FaultPlan::new();
        for node in [42, 7, 19, 3, 99, 7] {
            plan.crash(node);
        }
        assert_eq!(plan.crashed_nodes().collect::<Vec<_>>(), vec![3, 7, 19, 42, 99]);
        let mut reversed = FaultPlan::new();
        for node in [99, 42, 19, 7, 3] {
            reversed.crash(node);
        }
        assert_eq!(
            plan.crashed_nodes().collect::<Vec<_>>(),
            reversed.crashed_nodes().collect::<Vec<_>>(),
            "iteration order must be a pure function of the set contents"
        );
    }

    #[test]
    fn crash_marks_each_node_once() {
        let mut plan = FaultPlan::new();
        plan.crash(7);
        plan.crash(9);
        plan.crash(7);
        assert_eq!(plan.crashed_count(), 2);
        assert!(plan.is_crashed(7) && !plan.is_crashed(8));
        assert_eq!(plan.crashed_nodes().collect::<Vec<_>>(), vec![7, 9]);
    }

    #[test]
    fn out_of_range_detection_finds_the_smallest_offender() {
        let mut plan = FaultPlan::new();
        plan.crash(3);
        plan.crash(64);
        plan.crash(99);
        assert_eq!(plan.first_out_of_range(100), None);
        assert_eq!(plan.first_out_of_range(65), Some(99));
        assert_eq!(plan.first_out_of_range(10), Some(64));
        assert_eq!(FaultPlan::new().first_out_of_range(0), None);
    }

    #[test]
    fn liveness_detection_finds_the_smallest_offender() {
        let mut plan = FaultPlan::new();
        plan.crash(3);
        plan.crash(64);
        plan.crash(99);
        assert_eq!(plan.first_not_live(|_| true), None);
        assert_eq!(plan.first_not_live(|node| node != 64 && node != 99), Some(64));
        assert_eq!(plan.first_not_live(|node| node < 10), Some(64));
        assert_eq!(plan.first_not_live(|node| node > 50), Some(3));
        for n in [0, 10, 65, 100] {
            assert_eq!(plan.first_not_live(|node| node < n), plan.first_out_of_range(n));
        }
        assert_eq!(FaultPlan::new().first_not_live(|_| false), None);
    }

    #[test]
    fn loss_verdicts_are_pure_and_roughly_respect_probability() {
        let loss = LossPlan::bernoulli(0.10);
        let lost = (0..10_000u64).filter(|&a| loss.lost(7, 1, 2, a)).count();
        assert!((700..1_300).contains(&lost), "lost = {lost} of 10k at p=0.1");
        // Pure: same arguments, same verdict; different edges/attempts/seeds
        // decorrelate.
        for a in 0..64u64 {
            assert_eq!(loss.lost(7, 1, 2, a), loss.lost(7, 1, 2, a));
        }
        let edge_a: Vec<bool> = (0..256).map(|a| loss.lost(7, 1, 2, a)).collect();
        let edge_b: Vec<bool> = (0..256).map(|a| loss.lost(7, 3, 4, a)).collect();
        let seed_b: Vec<bool> = (0..256).map(|a| loss.lost(8, 1, 2, a)).collect();
        assert_ne!(edge_a, edge_b, "edges must decorrelate");
        assert_ne!(edge_a, seed_b, "seeds must decorrelate");
    }

    #[test]
    fn loss_extremes_are_exact() {
        let none = LossPlan::bernoulli(0.0);
        let all = LossPlan::bernoulli(1.0);
        for a in 0..100u64 {
            assert!(!none.lost(1, 0, 1, a));
            assert!(all.lost(1, 0, 1, a));
        }
    }

    #[test]
    fn bursty_loss_drops_whole_windows() {
        let loss = LossPlan::bursty(0.25, 4);
        for window in 0..256u64 {
            let verdicts: Vec<bool> =
                (window * 4..window * 4 + 4).map(|a| loss.lost(9, 5, 6, a)).collect();
            assert!(
                verdicts.iter().all(|&v| v == verdicts[0]),
                "window {window} split its verdict: {verdicts:?}"
            );
        }
        let lost = (0..4_096u64).filter(|&a| loss.lost(9, 5, 6, a)).count();
        assert!((600..1_500).contains(&lost), "lost = {lost} of 4096 at window-p=0.25");
    }

    #[test]
    fn partition_opens_and_heals_on_schedule() {
        let p = PartitionPlan::new(2, 1, 3);
        assert!(!p.active(0));
        assert!(p.active(1));
        assert!(p.active(2));
        assert!(!p.active(3));
        let net = NetModel::unit();
        // Find a cross-side pair, then check epoch gating on it.
        let a = 0;
        let b = (1..100).find(|&b| p.side_of(5, a, &net) != p.side_of(5, b, &net)).unwrap();
        assert!(!p.severed(5, 0, a, b, &net), "closed before open_epoch");
        assert!(p.severed(5, 1, a, b, &net), "open during the interval");
        assert!(!p.severed(5, 3, a, b, &net), "healed at heal_epoch");
        // Same-side pairs are never severed.
        let c = (1..100).find(|&c| p.side_of(5, a, &net) == p.side_of(5, c, &net)).unwrap();
        assert!(!p.severed(5, 1, a, c, &net));
    }

    #[test]
    fn partition_sides_split_the_network_nontrivially() {
        let p = PartitionPlan::new(3, 0, 2);
        let net = NetModel::unit();
        let mut counts = [0usize; 3];
        for n in 0..300 {
            counts[p.side_of(11, n, &net) as usize] += 1;
        }
        for (side, &c) in counts.iter().enumerate() {
            assert!(c >= 50, "side {side} holds only {c} of 300 nodes");
        }
    }

    #[test]
    fn partition_follows_cluster_groups_under_the_cluster_model() {
        let p = PartitionPlan::new(2, 0, 1);
        let net = NetModel::cluster();
        for n in 0..200 {
            let group = net.cluster_group(n).expect("cluster model exposes groups");
            assert_eq!(p.side_of(3, n, &net), group % 2, "node {n} side must track its cluster");
        }
        // The hash seed is irrelevant under the cluster model.
        assert_eq!(p.side_of(3, 42, &net), p.side_of(99, 42, &net));
    }

    #[test]
    fn rate_limit_prices_overflow_linearly() {
        let rl = RateLimitPlan::new(8, 5);
        assert_eq!(rl.queue_delay(1), 0);
        assert_eq!(rl.queue_delay(8), 0);
        assert_eq!(rl.queue_delay(9), 5);
        assert_eq!(rl.queue_delay(10), 10);
        assert_eq!(rl.queue_delay(20), 60);
    }

    #[test]
    fn hostile_catalog_round_trips_and_rejects_unknowns() {
        for name in HOSTILE_PLAN_NAMES {
            let plan = FaultPlan::named_hostile(name)
                .unwrap_or_else(|| panic!("{name} missing from catalog"));
            assert!(plan.is_hostile(), "{name} must attach a hostile family");
            assert!(!plan.is_fault_free(), "{name} must not be fault-free");
        }
        // Parameterized spellings.
        let lossy20 = FaultPlan::named_hostile("lossy-20").unwrap();
        assert_eq!(lossy20.loss().unwrap().prob(), 0.20);
        let island5 = FaultPlan::named_hostile("island-5").unwrap();
        assert_eq!(island5.partition().unwrap().islands(), 5);
        // Rejections: unknown names, out-of-band parameters.
        for bad in ["packet-storm", "lossy-0", "lossy-100", "lossy-x", "island-1", "island-"] {
            assert!(FaultPlan::named_hostile(bad).is_none(), "{bad} must not parse");
        }
    }

    #[test]
    fn epoch_advances_and_defaults_to_zero() {
        let mut plan = FaultPlan::named_hostile("split-brain").unwrap();
        assert_eq!(plan.epoch(), 0);
        assert!(!plan.partition().unwrap().active(plan.epoch()), "split-brain is closed at 0");
        plan.set_epoch(2);
        assert!(plan.partition().unwrap().active(plan.epoch()));
    }
}
