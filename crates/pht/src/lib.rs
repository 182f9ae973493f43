//! PHT — the Prefix Hash Tree (Chawathe, Ramabhadran et al., SIGCOMM 2005):
//! range queries layered over *any* DHT, reproduced as the second baseline
//! of the Armada paper (Table 1).
//!
//! A PHT stores keys (here: `width`-bit quantised attribute values) in the
//! leaves of a binary trie whose node labels are hashed onto DHT peers, so
//! every trie-node access costs one full DHT routing. A range query
//!
//! 1. binary-searches prefix lengths to find the deepest existing trie node
//!    on the query's common prefix (`O(log width)` sequential DHT gets), and
//! 2. descends in parallel into every child overlapping the range, one DHT
//!    get per visited node, collecting overlapping leaves.
//!
//! Delay is therefore `Θ(depth · routing)` — `O(b·log N)` in the paper's
//! notation — growing with both the trie depth (data/range dependent) and
//! the substrate's routing cost. This is the behaviour Table 1 contrasts
//! with Armada's `< log N` bound; the `ablation_pht` experiment additionally
//! compares the constant-degree (FISSIONE) and `O(log N)`-degree (Chord)
//! substrates under the same PHT.
//!
//! Which trie nodes a query gets depends only on the trie, so the
//! simulator lists a query's gets first and prices them all in one
//! [`Dht::route_keys`] call from the client — over Chord, one route tree
//! walking each finger edge once for every get behind it. Every get is
//! still charged its own full routing, and the probes and descent levels
//! fold exactly as the algorithm runs them, so the delay stays
//! `Θ(b·log N)`; only the simulator's work shrinks. Under a fault plan
//! which gets are sent depends on which came back, so the query routes
//! round by round instead, each get alone through the plan's
//! [`simnet::Verdicts`] chain: a lost get loses its trie node's subtree.
//!
//! # Example
//!
//! ```
//! use pht::Pht;
//!
//! let mut rng = simnet::rng_from_seed(11);
//! let dht = chord::ChordNet::build(64, &mut rng);
//! let mut pht = Pht::new(dht, 0.0, 1000.0);
//! pht.insert(120.5, 1);
//! pht.insert(130.0, 2);
//! pht.insert(800.0, 3);
//! let out = pht.range_query(0, 100.0, 200.0);
//! assert_eq!(out.results, vec![1, 2]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheme;

pub use scheme::{register, DynamicPhtScheme, PhtScheme};

use dht_api::{Dht, Lookup};
use simnet::{NodeId, QueryScratch, Verdicts};

/// Default key width in bits (quantisation of the attribute domain).
pub const DEFAULT_WIDTH: u32 = 16;

/// Widest supported key, in bits.
const MAX_WIDTH: u32 = 30;

/// Default leaf capacity `B` before a split.
pub const DEFAULT_LEAF_CAPACITY: usize = 4;

/// A binary trie label: the first `len` bits of `bits` (MSB-first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label {
    bits: u32,
    len: u32,
}

impl Label {
    /// The root label (empty).
    pub const ROOT: Label = Label { bits: 0, len: 0 };

    /// Extends the label with one bit.
    pub fn child(self, bit: u32) -> Label {
        debug_assert!(bit <= 1);
        Label { bits: (self.bits << 1) | bit, len: self.len + 1 }
    }

    /// The label's depth.
    pub fn len(self) -> u32 {
        self.len
    }

    /// Whether the label is the root.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The first `n ≤ len` bits as a new label.
    pub fn prefix(self, n: u32) -> Label {
        debug_assert!(n <= self.len);
        Label { bits: self.bits >> (self.len - n), len: n }
    }

    /// Smallest `width`-bit key under this label.
    pub fn key_lo(self, width: u32) -> u32 {
        self.bits << (width - self.len)
    }

    /// Largest `width`-bit key under this label.
    pub fn key_hi(self, width: u32) -> u32 {
        (self.bits << (width - self.len)) | ((1u32 << (width - self.len)) - 1)
    }

    /// Whether the label's key interval overlaps `[a, b]`.
    pub fn overlaps(self, width: u32, a: u32, b: u32) -> bool {
        self.key_lo(width) <= b && self.key_hi(width) >= a
    }

    /// The DHT key the label's trie node is stored under: FNV-1a of its
    /// bits and length.
    pub fn dht_key(self) -> u64 {
        let mut buf = [0u8; 8];
        buf[..4].copy_from_slice(&self.bits.to_be_bytes());
        buf[4..].copy_from_slice(&self.len.to_be_bytes());
        dht_api::fnv1a(&buf)
    }
}

/// A stored record as a leaf bucket holds it: `(key, value, handle)`.
pub type Entry = (u32, f64, u64);

/// A leaf bucket's entries.
type Entries = Vec<Entry>;

/// One trie node in the arena.
#[derive(Debug, Clone)]
struct Node {
    label: Label,
    /// [`Label::dht_key`] of `label`, hashed once when the node is made.
    key: u64,
    body: Body,
}

#[derive(Debug, Clone)]
enum Body {
    /// Internal node: both children exist (PHT tries are complete). The
    /// 0-child sits at this arena index, the 1-child right after it.
    Internal(usize),
    /// Leaf bucket.
    Leaf(Entries),
}

impl Node {
    fn new(label: Label, body: Body) -> Node {
        Node { label, key: label.dht_key(), body }
    }
}

/// Result of a PHT range query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhtOutcome {
    /// Handles of matching records, ascending.
    pub results: Vec<u64>,
    /// Critical-path delay in overlay hops: sequential binary-search probes
    /// plus, per descent level, the slowest parallel get.
    pub delay: u64,
    /// Critical-path virtual milliseconds under the trie's
    /// [`NetModel`](simnet::NetModel): the same probe/descent structure
    /// with each get priced by its substrate routing path's edge costs
    /// plus the direct response edge. `latency ≤ delay` under the `unit`
    /// model (a get whose trie node hashes onto the querying peer still
    /// pays the response-message hop charge but no wire time).
    pub latency: u64,
    /// Total overlay messages (each trie-node get = routing hops + 1 direct
    /// response).
    pub messages: u64,
    /// Trie nodes visited (each one costs a DHT get).
    pub nodes_visited: usize,
    /// Leaves whose bucket overlapped the range.
    pub dest_leaves: usize,
    /// Destination leaves whose get was answered: `dest_leaves` unless a
    /// fault plan lost one.
    pub reached_leaves: usize,
}

/// A Prefix Hash Tree over a generic DHT substrate.
///
/// The trie is held here for simulation, as an arena of nodes (its
/// *placement* is what the DHT determines; every access is charged the
/// full routing cost from the querying client, exactly as the layered
/// scheme would pay).
#[derive(Debug, Clone)]
pub struct Pht<D: Dht> {
    dht: D,
    width: u32,
    leaf_capacity: usize,
    domain_lo: f64,
    domain_hi: f64,
    net: simnet::NetModel,
    /// The trie: the root at index 0, children allocated as a pair.
    nodes: Vec<Node>,
}

impl<D: Dht> Pht<D> {
    /// Creates an empty PHT with default width/capacity over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`.
    pub fn new(dht: D, lo: f64, hi: f64) -> Self {
        Self::with_params(dht, lo, hi, DEFAULT_WIDTH, DEFAULT_LEAF_CAPACITY)
    }

    /// Creates an empty PHT with explicit key width and leaf capacity.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`, `1 ≤ width ≤ 30` and `capacity ≥ 1`.
    pub fn with_params(dht: D, lo: f64, hi: f64, width: u32, capacity: usize) -> Self {
        assert!(lo < hi, "empty attribute domain");
        assert!((1..=MAX_WIDTH).contains(&width), "width out of range");
        assert!(capacity >= 1, "leaf capacity must be positive");
        Pht {
            dht,
            width,
            leaf_capacity: capacity,
            domain_lo: lo,
            domain_hi: hi,
            net: simnet::NetModel::unit(),
            nodes: vec![Node::new(Label::ROOT, Body::Leaf(Vec::new()))],
        }
    }

    /// Replaces the network cost model trie-node gets are priced with
    /// (`unit` by default). Hop and message metrics are model-invariant;
    /// only [`PhtOutcome::latency`] moves.
    pub fn set_net_model(&mut self, model: simnet::NetModel) {
        self.net = model;
    }

    /// The network cost model in force.
    pub fn net_model(&self) -> &simnet::NetModel {
        &self.net
    }

    /// The substrate.
    pub fn dht(&self) -> &D {
        &self.dht
    }

    /// The substrate, mutably (churn drives membership through here).
    ///
    /// The trie itself is unaffected by substrate membership:
    /// PHT assumes DHT-level replication of trie nodes (the original paper
    /// stores each node under a replicated put/get interface), so a peer
    /// crash changes routing costs and origins but loses no index state.
    pub fn dht_mut(&mut self) -> &mut D {
        &mut self.dht
    }

    /// Quantises an attribute value to a `width`-bit key.
    pub fn quantize(&self, value: f64) -> u32 {
        let t = ((value - self.domain_lo) / (self.domain_hi - self.domain_lo)).clamp(0.0, 1.0);
        let max = (1u64 << self.width) - 1;
        ((t * max as f64) as u64).min(max) as u32
    }

    /// Inserts a record; splits overflowing leaves (cascading if needed).
    pub fn insert(&mut self, value: f64, handle: u64) {
        let key = self.quantize(value);
        let leaf = self.find_leaf(key);
        match &mut self.nodes[leaf].body {
            Body::Leaf(entries) => entries.push((key, value, handle)),
            Body::Internal(_) => unreachable!("find_leaf returns leaves"),
        }
        self.split_while_overflowing(leaf);
    }

    /// Number of stored records.
    pub fn record_count(&self) -> usize {
        self.trie().map(|(_, entries)| entries.map_or(0, <[_]>::len)).sum()
    }

    /// Depth of the deepest leaf (the paper's `b`).
    pub fn depth(&self) -> u32 {
        self.trie()
            .filter(|(_, entries)| entries.is_some())
            .map(|(label, _)| label.len())
            .max()
            .unwrap_or(0)
    }

    /// Every trie node in arena order: its label, and a leaf's entries
    /// (`None` for an internal node).
    pub fn trie(&self) -> impl Iterator<Item = (Label, Option<&[Entry]>)> + '_ {
        self.nodes.iter().map(|node| match &node.body {
            Body::Leaf(entries) => (node.label, Some(entries.as_slice())),
            Body::Internal(_) => (node.label, None),
        })
    }

    /// The child `key` descends into from an internal node at `depth` whose
    /// 0-child sits at arena index `first_child`.
    fn child_toward(&self, first_child: usize, depth: u32, key: u32) -> usize {
        first_child + ((key >> (self.width - depth - 1)) & 1) as usize
    }

    fn find_leaf(&self, key: u32) -> usize {
        let mut i = 0;
        loop {
            match self.nodes[i].body {
                Body::Leaf(_) => return i,
                Body::Internal(first) => {
                    i = self.child_toward(first, self.nodes[i].label.len(), key)
                }
            }
        }
    }

    fn split_while_overflowing(&mut self, mut i: usize) {
        loop {
            let label = self.nodes[i].label;
            let entries = match &mut self.nodes[i].body {
                Body::Leaf(e) if e.len() > self.leaf_capacity && label.len() < self.width => {
                    std::mem::take(e)
                }
                _ => return,
            };
            let first = self.nodes.len();
            self.nodes[i].body = Body::Internal(first);
            let bit_pos = self.width - label.len() - 1;
            let (ones, zeros): (Entries, Entries) =
                entries.into_iter().partition(|&(k, _, _)| (k >> bit_pos) & 1 == 1);
            // At most one child can still overflow; recurse into it.
            let overflowing = [&zeros, &ones].iter().position(|e| e.len() > self.leaf_capacity);
            self.nodes.push(Node::new(label.child(0), Body::Leaf(zeros)));
            self.nodes.push(Node::new(label.child(1), Body::Leaf(ones)));
            match overflowing {
                Some(bit) => i = first + bit,
                None => return,
            }
        }
    }

    /// Executes a range query from the client peer `from`.
    ///
    /// Follows the PHT paper's parallel algorithm: binary search for the
    /// deepest existing node on `lcp(lo_key, hi_key)`, then parallel descent
    /// over range-overlapping children.
    pub fn range_query(&self, from: NodeId, lo: f64, hi: f64) -> PhtOutcome {
        self.range_query_scratch(from, lo, hi, &mut QueryScratch::new())
    }

    /// [`range_query`](Self::range_query) on the caller's reusable
    /// buffers: the query's get keys, descent levels and the
    /// substrate's route-tree buffers live in `scratch`, so a warm query
    /// allocates only its result list. Reuse never moves an outcome.
    ///
    /// Which trie nodes a query gets depends only on the trie, never on
    /// where they are stored, so the query first lists every get — the
    /// binary-search probes, then the descent level by level — and prices
    /// them in one [`Dht::route_keys`] call from the client. Each get costs
    /// its request's routing plus a one-hop direct response, in hops,
    /// cost-model virtual milliseconds and messages; probes add up
    /// (sequential), a descent level costs its slowest get (parallel).
    pub fn range_query_scratch(
        &self,
        from: NodeId,
        lo: f64,
        hi: f64,
        scratch: &mut QueryScratch,
    ) -> PhtOutcome {
        self.range_query_under(from, lo, hi, None, scratch)
    }

    /// [`range_query_scratch`](Self::range_query_scratch), its gets lost
    /// by a fault plan's verdict chain when `faults` is given.
    ///
    /// Under a plan, which gets are sent depends on which came back, so
    /// the query routes round by round: each get alone through the chain
    /// ([`Dht::route_keys`]), then its direct response. A binary-search
    /// probe that goes unanswered reads as a missing node and the search
    /// steps shallower — still correct, since the descent then starts at
    /// an ancestor on the lcp path. A descent get that goes unanswered
    /// loses its node's subtree. A round costs its slowest answered get;
    /// `dest_leaves` is the fault-free count, found by a local trie walk,
    /// and `reached_leaves` counts the answered ones.
    pub(crate) fn range_query_under(
        &self,
        from: NodeId,
        lo: f64,
        hi: f64,
        faults: Option<&mut Verdicts<'_>>,
        scratch: &mut QueryScratch,
    ) -> PhtOutcome {
        let mut bufs = std::mem::take(scratch.slot::<QueryBufs>());
        let out = self.query_on(from, lo, hi, faults, &mut bufs, scratch);
        *scratch.slot::<QueryBufs>() = bufs;
        out
    }

    /// [`range_query_under`](Self::range_query_under) on its buffers.
    fn query_on(
        &self,
        from: NodeId,
        lo: f64,
        hi: f64,
        mut faults: Option<&mut Verdicts<'_>>,
        bufs: &mut QueryBufs,
        scratch: &mut QueryScratch,
    ) -> PhtOutcome {
        let QueryBufs { keys, rounds, descent, hits, gets, answered } = bufs;
        let (a, b) = (self.quantize(lo.min(hi)), self.quantize(hi.max(lo)));

        // Longest common prefix of the range endpoints.
        let lcp_len = (a ^ b).leading_zeros().saturating_sub(32 - self.width);
        let lcp = Label { bits: a >> (self.width - lcp_len), len: lcp_len };

        // The existing nodes on the lcp path, by depth: the trie is
        // complete, so a prefix of the lcp exists iff it is no longer than
        // the deepest node the walk reaches.
        let mut path = [0usize; MAX_WIDTH as usize + 1];
        let mut deepest = 0u32;
        while deepest < lcp_len {
            let Body::Internal(first) = self.nodes[path[deepest as usize]].body else { break };
            path[deepest as usize + 1] = self.child_toward(first, deepest, a);
            deepest += 1;
        }

        // Ends the round of gets listed since the last one. Under a plan
        // they go out now, and `answered` learns which came back; without
        // one, every get is answered and all are priced after the walk.
        keys.clear();
        rounds.clear();
        answered.clear();
        let faulty = faults.is_some();
        let mut cost = Cost::default();
        let mut end_round = |keys: &[u64],
                             rounds: &mut Vec<usize>,
                             gets: &mut Vec<(Lookup, u64)>,
                             answered: &mut Vec<bool>| {
            let start = rounds.last().copied().unwrap_or(0);
            rounds.push(keys.len());
            if let Some(verdicts) = faults.as_deref_mut() {
                gets.clear();
                let (net, round) = (&self.net, &keys[start..]);
                self.dht.route_keys(from, round, net, Some(&mut *verdicts), scratch, gets);
                let reply = |owner| verdicts.rule(owner, from, owner != from, net, None);
                cost.round(net, from, gets, reply, Some(answered));
            }
        };

        // Binary search over prefix lengths for the deepest existing node on
        // the lcp path (sequential DHT gets; a missing probe still pays its
        // get). Each probe is a round of its own.
        let (mut lo_len, mut hi_len) = (0u32, lcp_len);
        let mut start = 0;
        while lo_len <= hi_len {
            let mid = (lo_len + hi_len).div_ceil(2);
            let exists = mid <= deepest;
            keys.push(if exists {
                self.nodes[path[mid as usize]].key
            } else {
                lcp.prefix(mid).dht_key()
            });
            end_round(keys, rounds, gets, answered);
            if exists && (!faulty || answered[keys.len() - 1]) {
                start = path[mid as usize];
                if mid == hi_len {
                    break;
                }
                lo_len = mid;
            } else {
                if mid == 0 {
                    break;
                }
                hi_len = mid - 1;
            }
        }

        // Parallel descent from `start`, one level of arena indices at a
        // time; each level is a round of parallel gets.
        hits.clear();
        descent.clear();
        descent.push(start);
        let mut reached_leaves = 0usize;
        let mut level = 0..1;
        while !level.is_empty() {
            let first_get = keys.len();
            keys.extend(descent[level.clone()].iter().map(|&at| self.nodes[at].key));
            end_round(keys, rounds, gets, answered);
            for (at, get) in level.clone().zip(first_get..) {
                if faulty && !answered[get] {
                    continue;
                }
                let node = &self.nodes[descent[at]];
                match &node.body {
                    // Every node the descent reaches overlaps the range:
                    // `start` lies on the lcp path and a child is taken
                    // only if it overlaps. So every leaf is a destination.
                    Body::Leaf(entries) => {
                        hits.extend(
                            entries
                                .iter()
                                .filter(|&&(k, v, _)| k >= a && k <= b && v >= lo && v <= hi)
                                .map(|&(_, _, h)| h),
                        );
                        reached_leaves += 1;
                    }
                    &Body::Internal(first) => {
                        for child in [first, first + 1] {
                            if self.nodes[child].label.overlaps(self.width, a, b) {
                                descent.push(child);
                            }
                        }
                    }
                }
            }
            level = level.end..descent.len();
        }

        let dest_leaves = if faulty {
            self.overlapping_leaves(path[deepest as usize], a, b)
        } else {
            // Every get priced at once, then folded round by round: a
            // round costs its slowest get, and the rounds run one after
            // another.
            gets.clear();
            self.dht.route_keys(from, keys, &self.net, None, scratch, gets);
            debug_assert_eq!(gets.len(), keys.len(), "one priced get per key");
            let mut first = 0;
            for &end in rounds.iter() {
                cost.round(&self.net, from, &gets[first..end], |_| Some(0), None);
                first = end;
            }
            reached_leaves
        };

        hits.sort_unstable();
        PhtOutcome {
            results: hits.to_vec(),
            delay: cost.delay,
            latency: cost.latency,
            messages: cost.messages,
            nodes_visited: keys.len(),
            dest_leaves,
            reached_leaves,
        }
    }

    /// The leaves under arena node `at` — itself overlapping `[a, b]` —
    /// whose keys overlap `[a, b]`: a query's destinations, found by a
    /// local walk that routes nothing.
    fn overlapping_leaves(&self, at: usize, a: u32, b: u32) -> usize {
        match self.nodes[at].body {
            Body::Leaf(_) => 1,
            Body::Internal(first) => [first, first + 1]
                .into_iter()
                .filter(|&child| self.nodes[child].label.overlaps(self.width, a, b))
                .map(|child| self.overlapping_leaves(child, a, b))
                .sum(),
        }
    }
}

/// A query's critical path and traffic, folded round by round.
#[derive(Debug, Default)]
struct Cost {
    delay: u64,
    latency: u64,
    messages: u64,
}

impl Cost {
    /// Folds one round of routed gets from `from`. A get costs its routed
    /// request plus, if the request arrived, a one-hop direct response
    /// whose ruling `reply(owner)` gives: its queueing delay, or `None`
    /// when it is lost. The round costs its slowest answered get; each
    /// get's answer is pushed onto `answered`, if given.
    fn round(
        &mut self,
        net: &simnet::NetModel,
        from: NodeId,
        gets: &[(Lookup, u64)],
        mut reply: impl FnMut(NodeId) -> Option<u64>,
        mut answered: Option<&mut Vec<bool>>,
    ) {
        let (mut delay, mut latency) = (0u64, 0u64);
        for &(lookup, route_latency) in gets {
            self.messages += lookup.hops as u64 + u64::from(lookup.arrived);
            let answer = if lookup.arrived { reply(lookup.owner) } else { None };
            if let Some(queueing) = answer {
                delay = delay.max(lookup.hops as u64 + 1); // routed request + direct response
                latency = latency.max(route_latency + net.edge_cost(lookup.owner, from) + queueing);
            }
            if let Some(answered) = answered.as_deref_mut() {
                answered.push(answer.is_some());
            }
        }
        self.delay += delay;
        self.latency += latency;
    }
}

/// A range query's working buffers, kept in a query scratch slot across
/// queries.
#[derive(Debug, Default)]
struct QueryBufs {
    /// Every get's DHT key: the probes, then the descent in level order.
    keys: Vec<u64>,
    /// Where each round of gets ends in `keys`: one round per probe, then
    /// one per descent level.
    rounds: Vec<usize>,
    /// The descent's trie nodes (arena indices), level after level.
    descent: Vec<usize>,
    /// Handles of the matching records.
    hits: Vec<u64>,
    /// Each get's routed lookup and path latency: every key's after a
    /// fault-free walk, the last round's under a plan.
    gets: Vec<(Lookup, u64)>,
    /// Whether each get, as `keys`, was answered.
    answered: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::Rng;

    fn chord_pht(n: usize, seed: u64) -> Pht<chord::ChordNet> {
        let mut rng = simnet::rng_from_seed(seed);
        let dht = chord::ChordNet::build(n, &mut rng);
        Pht::new(dht, 0.0, 1000.0)
    }

    #[test]
    fn label_arithmetic() {
        let l = Label::ROOT.child(1).child(0).child(1); // 101
        assert_eq!(l.len(), 3);
        assert_eq!(l.key_lo(8), 0b1010_0000);
        assert_eq!(l.key_hi(8), 0b1011_1111);
        assert!(l.overlaps(8, 0b1010_0000, 0b1010_0001));
        assert!(!l.overlaps(8, 0, 0b1001_1111));
        assert_eq!(l.prefix(2), Label::ROOT.child(1).child(0));
    }

    #[test]
    fn inserts_split_leaves() {
        let mut pht = chord_pht(32, 1);
        for i in 0..50 {
            pht.insert(i as f64 * 20.0, i);
        }
        assert_eq!(pht.record_count(), 50);
        assert!(pht.depth() > 1, "leaves must have split");
    }

    #[test]
    fn range_query_returns_exactly_matching_records() {
        let mut pht = chord_pht(64, 2);
        let mut rng = simnet::rng_from_seed(20);
        let mut data = Vec::new();
        for h in 0..300u64 {
            let v: f64 = rng.gen_range(0.0..=1000.0);
            pht.insert(v, h);
            data.push((v, h));
        }
        for _ in 0..50 {
            let lo: f64 = rng.gen_range(0.0..900.0);
            let hi = lo + rng.gen_range(0.1..150.0);
            let from = 0;
            let out = pht.range_query(from, lo, hi);
            let mut expect: Vec<u64> =
                data.iter().filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h).collect();
            expect.sort_unstable();
            assert_eq!(out.results, expect, "query [{lo}, {hi}]");
        }
    }

    #[test]
    fn duplicate_keys_beyond_capacity_stay_at_max_depth() {
        let mut rng = simnet::rng_from_seed(3);
        let dht = chord::ChordNet::build(16, &mut rng);
        let mut pht = Pht::with_params(dht, 0.0, 1.0, 4, 2);
        for h in 0..20 {
            pht.insert(0.5, h); // identical key every time
        }
        assert_eq!(pht.record_count(), 20);
        let out = pht.range_query(0, 0.4, 0.6);
        assert_eq!(out.results.len(), 20);
    }

    #[test]
    fn delay_is_multiple_of_substrate_routing() {
        // PHT pays Θ(depth · logN): substantially more than one routing.
        let mut pht = chord_pht(256, 4);
        let mut rng = simnet::rng_from_seed(40);
        for h in 0..500u64 {
            pht.insert(rng.gen_range(0.0..=1000.0), h);
        }
        let out = pht.range_query(0, 200.0, 400.0);
        let log_n = (256f64).log2();
        assert!(
            out.delay as f64 > 2.0 * log_n,
            "PHT delay {} should exceed 2·logN {}",
            out.delay,
            2.0 * log_n
        );
        assert!(out.nodes_visited >= 3);
    }

    #[test]
    fn works_over_fissione_too() {
        let cfg =
            fissione::FissioneConfig { object_id_len: 24, ..fissione::FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(5);
        let dht = fissione::FissioneNet::build(cfg, 100, &mut rng).unwrap();
        let mut pht = Pht::new(dht, 0.0, 1000.0);
        let mut rng2 = simnet::rng_from_seed(50);
        let mut data = Vec::new();
        for h in 0..200u64 {
            let v: f64 = rng2.gen_range(0.0..=1000.0);
            pht.insert(v, h);
            data.push((v, h));
        }
        let from = pht.dht().any_node();
        let out = pht.range_query(from, 300.0, 500.0);
        let mut expect: Vec<u64> =
            data.iter().filter(|&&(v, _)| (300.0..=500.0).contains(&v)).map(|&(_, h)| h).collect();
        expect.sort_unstable();
        assert_eq!(out.results, expect);
    }

    /// `route_keys` against `alone(from, key, model)` per key — the
    /// lookup and summed edge costs of the substrate's own single route —
    /// from every tenth live node, under `unit` and `wan`, on one reused
    /// scratch.
    fn assert_batch_equals_gets_alone<D: Dht>(
        dht: &D,
        live: &[NodeId],
        alone: impl Fn(NodeId, u64, &simnet::NetModel) -> (Lookup, u64),
        rng: &mut SmallRng,
    ) {
        let mut keys: Vec<u64> = (0..200).map(|_| rng.gen()).collect();
        keys.extend_from_within(..20); // repeats
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        for model in [simnet::NetModel::unit(), simnet::NetModel::wan()] {
            for &from in live.iter().step_by(10) {
                out.clear();
                dht.route_keys(from, &keys, &model, None, &mut scratch, &mut out);
                let routed: Vec<_> = keys.iter().map(|&key| alone(from, key, &model)).collect();
                assert_eq!(out, routed, "{} from {from}", dht.name());
            }
        }
    }

    #[test]
    fn batched_gets_equal_gets_routed_alone_on_both_substrates() {
        // Each substrate walks one route tree, held against its own
        // `route_fold` per key.
        let price = |model: &simnet::NetModel| {
            let model = *model;
            move |(hops, cost): (usize, u64), src, dst| (hops + 1, cost + model.edge_cost(src, dst))
        };
        let mut rng = simnet::rng_from_seed(8);
        let chord = chord::ChordNet::build(300, &mut rng);
        let live: Vec<NodeId> = chord.live_members().collect();
        let alone = |from, key, model: &simnet::NetModel| {
            let (owner, (hops, cost)) = chord.route_fold(from, key, (0, 0), price(model));
            (Lookup { owner, hops, arrived: true }, cost)
        };
        assert_batch_equals_gets_alone(&chord, &live, alone, &mut rng);
        let cfg =
            fissione::FissioneConfig { object_id_len: 24, ..fissione::FissioneConfig::default() };
        let fissione = fissione::FissioneNet::build(cfg, 120, &mut rng).unwrap();
        let live: Vec<NodeId> = fissione.live_peers().collect();
        let alone = |from, key, model: &simnet::NetModel| {
            let object = fissione.object_of_key(key);
            let (owner, (hops, cost)) =
                fissione.route_fold(from, object, (0, 0), price(model)).unwrap();
            (Lookup { owner, hops, arrived: true }, cost)
        };
        assert_batch_equals_gets_alone(&fissione, &live, alone, &mut rng);
    }

    #[test]
    fn a_reused_scratch_never_moves_an_outcome() {
        let mut pht = chord_pht(200, 9);
        let mut rng = simnet::rng_from_seed(90);
        for h in 0..600u64 {
            pht.insert(rng.gen_range(0.0..=1000.0), h);
        }
        let mut scratch = QueryScratch::new();
        for _ in 0..40 {
            let lo = rng.gen_range(0.0..1000.0);
            let hi = lo + rng.gen_range(0.0..300.0);
            let from = pht.dht().random_node(&mut rng);
            let reused = pht.range_query_scratch(from, lo, hi, &mut scratch);
            assert_eq!(reused, pht.range_query(from, lo, hi), "[{lo}, {hi}] from {from}");
        }
    }

    #[test]
    fn empty_tree_query_is_cheap_and_empty() {
        let pht = chord_pht(32, 6);
        let out = pht.range_query(0, 10.0, 20.0);
        assert!(out.results.is_empty());
        assert_eq!(out.dest_leaves, 1); // the root leaf overlaps everything
    }

    #[test]
    fn point_query_visits_one_path() {
        let mut pht = chord_pht(64, 7);
        let mut rng = simnet::rng_from_seed(70);
        for h in 0..200u64 {
            pht.insert(rng.gen_range(0.0..=1000.0), h);
        }
        let out = pht.range_query(0, 500.0, 500.0);
        // A point query's descent touches exactly one path below the lcp.
        assert!(out.nodes_visited <= 2 * pht.depth() as usize + 4);
    }
}
