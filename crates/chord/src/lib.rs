//! Chord (Stoica et al., ToN 2003), simulated: a 2⁶⁴ identifier ring with
//! successor lists and finger tables.
//!
//! In this workspace Chord serves as the *O(log N)-degree* contrast
//! substrate: PHT runs over both Chord and FISSIONE to show the layered
//! scheme's costs on either side of Table 1's degree divide.
//!
//! Node ids ([`NodeId`]) are **stable slots**: a node keeps its id for its
//! lifetime, departures free the slot, and later joins may recycle it —
//! the discipline every dynamic substrate in the workspace shares, so
//! drivers can hold ids across membership events. The simulator models the
//! converged steady state the paper's analysis assumes: a membership event
//! re-derives the affected finger tables synchronously, so
//! [`stabilize`](dht_api::DynamicDht::stabilize) has no deferred repair to
//! do and reports zero operations.
//!
//! # Example
//!
//! ```
//! use chord::ChordNet;
//! use dht_api::Dht;
//!
//! let mut rng = simnet::rng_from_seed(3);
//! let net = ChordNet::build(128, &mut rng);
//! let lookup = net.route_key(net.any_node(), 0xdead_beef);
//! assert!(lookup.hops as f64 <= 2.0 * 128f64.log2());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dht_api::{Dht, DynamicDht, Lookup, SchemeError};
use rand::rngs::SmallRng;
use rand::Rng;
use simnet::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const RING_BITS: u32 = 64;
/// Sentinel filling the finger-slab rows of dead slots.
const DEAD_FINGER: NodeId = NodeId::MAX;

/// A simulated Chord ring.
///
/// Ring identifiers are uniform random 64-bit values; key `k` is owned by
/// its **successor** (the first node clockwise at or after `k`). Fingers
/// are exact (the network is maintained in a converged state, as the
/// paper's steady-state analysis assumes).
#[derive(Debug, Clone)]
pub struct ChordNet {
    /// Slot table: `slots[n]` is node `n`'s ring identifier, `None` for
    /// departed slots.
    slots: Vec<Option<u64>>,
    /// The live ring: `(identifier, slot)` sorted by identifier.
    ring: Vec<(u64, NodeId)>,
    /// Finger slab: row `n` is the contiguous stripe
    /// `fingers[n·64 .. (n+1)·64]`, where entry `b` is the node owning
    /// `slots[n] + 2^b`; dead slots' rows hold [`DEAD_FINGER`].
    fingers: Vec<NodeId>,
    /// Free slots as a min-heap: joins recycle the lowest free index,
    /// matching the old slot scan without its O(N) cost.
    free_slots: BinaryHeap<Reverse<usize>>,
}

impl ChordNet {
    /// Builds a converged `n`-node ring with random identifiers. Slot `i`
    /// holds the `i`-th smallest identifier.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn build(n: usize, rng: &mut SmallRng) -> Self {
        assert!(n > 0, "a Chord ring needs at least one node");
        let mut ids: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        ids.sort_unstable();
        ids.dedup();
        while ids.len() < n {
            let extra: u64 = rng.gen();
            if let Err(pos) = ids.binary_search(&extra) {
                ids.insert(pos, extra);
            }
        }
        let ring = ids.iter().enumerate().map(|(slot, &id)| (id, slot)).collect();
        let mut net = ChordNet {
            slots: ids.into_iter().map(Some).collect(),
            ring,
            fingers: Vec::new(),
            free_slots: BinaryHeap::new(),
        };
        net.fingers = vec![DEAD_FINGER; net.slots.len() * RING_BITS as usize];
        net.rebuild_all_fingers();
        net
    }

    fn rebuild_all_fingers(&mut self) {
        for slot in 0..self.slots.len() {
            self.rebuild_fingers_of(slot);
        }
    }

    fn rebuild_fingers_of(&mut self, slot: NodeId) {
        let base = slot * RING_BITS as usize;
        match self.slots[slot] {
            Some(id) => {
                for b in 0..RING_BITS {
                    self.fingers[base + b as usize] = self.successor_of(id.wrapping_add(1u64 << b));
                }
            }
            None => self.fingers[base..base + RING_BITS as usize].fill(DEAD_FINGER),
        }
    }

    /// The node owning `point` (its successor on the ring).
    pub fn successor_of(&self, point: u64) -> NodeId {
        match self.ring.binary_search_by_key(&point, |&(id, _)| id) {
            Ok(i) => self.ring[i].1,
            Err(i) if i == self.ring.len() => self.ring[0].1, // wrap
            Err(i) => self.ring[i].1,
        }
    }

    /// The ring identifier of a node.
    ///
    /// # Panics
    ///
    /// Panics for dead or unknown node ids.
    pub fn id_of(&self, node: NodeId) -> u64 {
        self.slots[node].expect("live node")
    }

    /// Whether `node` refers to a live ring member.
    pub fn is_live(&self, node: NodeId) -> bool {
        self.slots.get(node).is_some_and(Option::is_some)
    }

    /// Live nodes in ring order (ascending identifier) — a deterministic
    /// order churn plans rely on for victim selection.
    pub fn live_members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ring.iter().map(|&(_, slot)| slot)
    }

    /// The complete finger slab in slot-major order (row `n` holds the 64
    /// fingers of slot `n`; dead slots are all-`u64::MAX`) — exposed so
    /// equivalence tests can compare incremental maintenance against
    /// [`refresh_all_fingers`](Self::refresh_all_fingers) byte for byte.
    pub fn finger_slab(&self) -> &[NodeId] {
        &self.fingers
    }

    /// Recomputes every finger table from scratch on the current
    /// membership — the oracle the incremental `join`/`remove` repairs are
    /// pinned against. A converged network is a fixed point: calling this
    /// must never change [`finger_slab`](Self::finger_slab).
    pub fn refresh_all_fingers(&mut self) {
        self.rebuild_all_fingers();
    }

    /// A new node joins with a fresh random identifier; the converged
    /// maintenance model re-derives the affected finger tables
    /// synchronously. Returns the newcomer's slot.
    ///
    /// Maintenance is incremental: the newcomer computes its own table
    /// (64 successor lookups), and an existing finger moves only when the
    /// new identifier now owns its target point — an `O(1)` interval test
    /// per finger, no per-event full rebuild.
    pub fn join(&mut self, rng: &mut SmallRng) -> NodeId {
        // Exactly one RNG draw per join, so the membership plan's stream
        // advances by a fixed amount regardless of ring contents (detlint's
        // D3 seeded-plan discipline). A colliding identifier (probability
        // ~N/2⁶⁴) re-derives follow-up candidates from the draw itself
        // instead of consuming more of the stream.
        let mut id: u64 = rng.gen();
        while self.ring.binary_search_by_key(&id, |&(i, _)| i).is_ok() {
            id = splitmix64(id);
        }
        let slot = if let Some(Reverse(free)) = self.free_slots.pop() {
            debug_assert!(self.slots[free].is_none(), "free-slot heap out of sync");
            self.slots[free] = Some(id);
            free
        } else {
            self.slots.push(Some(id));
            self.fingers.resize(self.fingers.len() + RING_BITS as usize, DEAD_FINGER);
            self.slots.len() - 1
        };
        let pos = self.ring.binary_search_by_key(&id, |&(i, _)| i).unwrap_err();
        let pred_id = self.ring[(pos + self.ring.len() - 1) % self.ring.len()].0;
        self.ring.insert(pos, (id, slot));
        self.rebuild_fingers_of(slot);
        // A finger `successor_of(start)` moves to the newcomer exactly when
        // its start point `other + 2^b` lies on the arc `(pred, id]` the
        // newcomer took over — equivalently, when `other` lies on that arc
        // shifted by `−2^b`. Binary-searching the shifted arc per bit
        // touches only the expected-O(1) movers instead of the whole ring.
        for b in 0..RING_BITS as usize {
            let step = 1u64 << b;
            let (r1, r2) = self.arc_ranges(pred_id.wrapping_sub(step), id.wrapping_sub(step));
            for i in r1.chain(r2) {
                let other = self.ring[i].1;
                if other == slot {
                    continue;
                }
                self.fingers[other * RING_BITS as usize + b] = slot;
            }
        }
        slot
    }

    /// Ring indices whose identifiers lie on the clockwise arc
    /// `(lo, hi]`, as up to two contiguous index ranges (the second is the
    /// wrapped prefix). Requires `lo != hi`.
    fn arc_ranges(&self, lo: u64, hi: u64) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        debug_assert_ne!(lo, hi, "a full-ring arc is never enumerated");
        let above = |point: u64| match self.ring.binary_search_by_key(&point, |&(i, _)| i) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        let (a, b) = (above(lo), above(hi));
        if lo < hi {
            (a..b, 0..0)
        } else {
            (a..self.ring.len(), 0..b)
        }
    }

    /// Graceful departure: the node's successor takes over its keys (keys
    /// are derived, not stored, in this simulator) and the remaining
    /// fingers re-converge — incrementally: only fingers that pointed at
    /// the leaver move, and their new target is by definition the leaver's
    /// ring successor.
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadOrigin`] for dead ids, [`SchemeError::Query`] when
    /// only one node remains.
    pub fn remove(&mut self, node: NodeId) -> Result<(), SchemeError> {
        if !self.is_live(node) {
            return Err(SchemeError::BadOrigin { origin: node });
        }
        if self.ring.len() <= 1 {
            return Err(SchemeError::Query("the last Chord node cannot leave".into()));
        }
        let id = self.slots[node].take().expect("checked live");
        let pos = self.ring.binary_search_by_key(&id, |&(i, _)| i).expect("ring member");
        let pred_id = self.ring[(pos + self.ring.len() - 1) % self.ring.len()].0;
        self.ring.remove(pos);
        let base = node * RING_BITS as usize;
        self.fingers[base..base + RING_BITS as usize].fill(DEAD_FINGER);
        self.free_slots.push(Reverse(node));
        // Everything the leaver owned falls to its ring successor. In the
        // converged state the fingers pointing at the leaver are exactly
        // those whose start point lies on the leaver's arc `(pred, id]`, so
        // the shifted-arc enumeration of `join` finds every one of them.
        let heir = self.ring[pos % self.ring.len()].1;
        for b in 0..RING_BITS as usize {
            let step = 1u64 << b;
            let (r1, r2) = self.arc_ranges(pred_id.wrapping_sub(step), id.wrapping_sub(step));
            for i in r1.chain(r2) {
                let other = self.ring[i].1;
                let f = &mut self.fingers[other * RING_BITS as usize + b];
                debug_assert_eq!(*f, node, "converged fingers point into the leaver's arc");
                *f = heir;
            }
        }
        Ok(())
    }

    /// Verifies the ring invariants Chord's routing and Squid's segment
    /// walks trust: the ring is strictly ascending; every ring entry's slot
    /// is live and holds that identifier, and the live slots number the
    /// ring's length; the slab is `slots × 64` long, every live row's
    /// finger `b` is `successor_of(id + 2^b)` and every dead row is
    /// all-`usize::MAX`; the free heap holds exactly the dead slots, once
    /// each.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string on violation (test helper).
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Some(w) = self.ring.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(format!("ring not ascending: {:#x} before {:#x}", w[0].0, w[1].0));
        }
        for &(id, slot) in &self.ring {
            if self.slots.get(slot) != Some(&Some(id)) {
                return Err(format!(
                    "ring entry ({id:#x}, {slot}) but the slot holds {:?}",
                    self.slots.get(slot)
                ));
            }
        }
        let live = self.slots.iter().filter(|s| s.is_some()).count();
        if live != self.ring.len() {
            return Err(format!("{live} live slots vs a ring of {}", self.ring.len()));
        }
        if self.fingers.len() != self.slots.len() * RING_BITS as usize {
            return Err(format!("slab of {} for {} slots", self.fingers.len(), self.slots.len()));
        }
        for (slot, row) in self.fingers.chunks(RING_BITS as usize).enumerate() {
            for (b, &finger) in row.iter().enumerate() {
                let want = self.slots[slot]
                    .map_or(DEAD_FINGER, |id| self.successor_of(id.wrapping_add(1 << b)));
                if finger != want {
                    return Err(format!("slot {slot} finger {b} is {finger}, want {want}"));
                }
            }
        }
        let mut free: Vec<NodeId> = self.free_slots.iter().map(|&Reverse(slot)| slot).collect();
        free.sort_unstable();
        let dead: Vec<NodeId> =
            (0..self.slots.len()).filter(|&s| self.slots[s].is_none()).collect();
        if free != dead {
            return Err(format!("free heap {free:?} vs dead slots {dead:?}"));
        }
        Ok(())
    }

    /// Greedy finger routing from `from` to the owner of ring point `key`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is dead.
    pub fn route_point(&self, from: NodeId, key: u64) -> Lookup {
        let (owner, hops) = self.route_fold(from, key, 0, |hops, _, _| hops + 1);
        Lookup { owner, hops }
    }

    /// Walks the greedy finger route from `from` to the owner of ring
    /// point `key`, folding `f(acc, src, dst)` over its edges in order.
    /// Returns the owner and the folded value; nothing is allocated unless
    /// `f` does.
    ///
    /// Each hop reads one finger row. The farthest-preceding-finger scan
    /// starts at the top bit of the clockwise distance `key − id(cur)`:
    /// finger `b` owns `id(cur) + 2^b`, so it lies at least `2^b` clockwise
    /// of `cur` (or is `cur` itself) and can never precede a key closer
    /// than that. The hops are those of the full 64-bit scan.
    ///
    /// # Panics
    ///
    /// Panics if `from` is dead.
    pub fn route_fold<A>(
        &self,
        from: NodeId,
        key: u64,
        init: A,
        mut f: impl FnMut(A, NodeId, NodeId) -> A,
    ) -> (NodeId, A) {
        let owner = self.successor_of(key);
        let (mut cur, mut cur_id, mut acc) = (from, self.id_of(from), init);
        // Every hop strictly shortens the clockwise distance to the key, so
        // no node is visited twice: the ring size bounds the loop.
        for _ in 0..=self.ring.len() {
            if cur == owner {
                return (owner, acc);
            }
            let row = &self.fingers[cur * RING_BITS as usize..][..RING_BITS as usize];
            // If the owner is our direct successor, one hop finishes;
            // otherwise jump through the farthest finger preceding the key.
            let succ = row[0];
            let next = if Self::in_interval(cur_id, self.id_of(succ), key) {
                debug_assert_eq!(succ, owner);
                succ
            } else {
                // `key ≠ id(cur)` here (`cur` would own it), so the
                // distance is non-zero.
                let top = (RING_BITS - 1 - key.wrapping_sub(cur_id).leading_zeros()) as usize;
                row[..=top]
                    .iter()
                    .rev()
                    .copied()
                    .find(|&f| f != cur && Self::in_interval(cur_id, key, self.id_of(f)))
                    .unwrap_or(succ)
            };
            acc = f(acc, cur, next);
            (cur, cur_id) = (next, self.id_of(next));
        }
        unreachable!("routing exceeded its progress bound");
    }

    /// Whether `x` lies in the half-open clockwise interval `(a, b]`.
    fn in_interval(a: u64, b: u64, x: u64) -> bool {
        if a < b {
            x > a && x <= b
        } else {
            x > a || x <= b // wrapped
        }
    }
}

/// SplitMix64 finalizer: derives collision-retry identifiers in
/// [`ChordNet::join`] without consuming more of the membership RNG stream.
fn splitmix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Dht for ChordNet {
    fn route_key(&self, from: NodeId, key: u64) -> Lookup {
        self.route_point(from, key)
    }

    fn route_key_latency(&self, from: NodeId, key: u64, net: &simnet::NetModel) -> (Lookup, u64) {
        // The real finger path, priced edge by edge.
        let (owner, (hops, cost)) = self.route_fold(from, key, (0, 0), |(hops, cost), src, dst| {
            (hops + 1, cost + net.edge_cost(src, dst))
        });
        (Lookup { owner, hops }, cost)
    }

    fn is_live(&self, node: NodeId) -> bool {
        ChordNet::is_live(self, node)
    }

    fn owner_of_key(&self, key: u64) -> NodeId {
        self.successor_of(key)
    }

    fn replica_owners(&self, key: u64, r: usize) -> Vec<NodeId> {
        // Chord's classic successor-list replication: the key's owner plus
        // the next `r − 1` nodes clockwise — a local ring walk, no routing.
        let want = r.max(1).min(self.ring.len());
        let start = match self.ring.binary_search_by_key(&key, |&(id, _)| id) {
            Ok(i) => i,
            Err(i) => i % self.ring.len(),
        };
        (0..want).map(|i| self.ring[(start + i) % self.ring.len()].1).collect()
    }

    fn any_node(&self) -> NodeId {
        self.ring[0].1
    }

    fn random_node(&self, rng: &mut SmallRng) -> NodeId {
        loop {
            let slot = rng.gen_range(0..self.slots.len());
            if self.slots[slot].is_some() {
                return slot;
            }
        }
    }

    fn node_count(&self) -> usize {
        self.ring.len()
    }

    fn name(&self) -> &'static str {
        "chord"
    }
}

impl DynamicDht for ChordNet {
    fn join(&mut self, rng: &mut SmallRng) -> Result<NodeId, SchemeError> {
        Ok(ChordNet::join(self, rng))
    }

    fn leave(&mut self, node: NodeId) -> Result<(), SchemeError> {
        self.remove(node)
    }

    fn crash(&mut self, node: NodeId) -> Result<(), SchemeError> {
        // The simulator stores no per-node state at the Chord layer, so an
        // abrupt failure differs from a graceful leave only in what the
        // layer above loses.
        self.remove(node)
    }

    fn stabilize(&mut self) -> usize {
        // Maintenance is synchronous in the converged-state model: every
        // membership event already re-derived the finger tables.
        0
    }

    fn live_nodes(&self) -> Vec<NodeId> {
        self.live_members().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(n: usize, seed: u64) -> ChordNet {
        let mut rng = simnet::rng_from_seed(seed);
        ChordNet::build(n, &mut rng)
    }

    /// The walk `route_fold` replaced, kept as its reference: every hop
    /// scans all 64 fingers for the farthest one preceding the key.
    fn full_scan_path(net: &ChordNet, from: NodeId, key: u64) -> Vec<NodeId> {
        let owner = net.successor_of(key);
        let finger = |slot: NodeId, b: usize| net.fingers[slot * RING_BITS as usize + b];
        let mut cur = from;
        let mut path = vec![from];
        while cur != owner {
            let succ = finger(cur, 0);
            if ChordNet::in_interval(net.id_of(cur), net.id_of(succ), key) {
                path.push(succ);
                break;
            }
            let mut next = succ;
            for b in (0..RING_BITS as usize).rev() {
                let f = finger(cur, b);
                if f != cur && ChordNet::in_interval(net.id_of(cur), key, net.id_of(f)) {
                    next = f;
                    break;
                }
            }
            cur = next;
            path.push(next);
            assert!(path.len() <= net.ring.len() + 1, "routing must terminate");
        }
        path
    }

    /// The nodes `route_fold` visits, `[from, …, owner]`, checking that
    /// consecutive edges chain.
    fn fold_path(net: &ChordNet, from: NodeId, key: u64) -> Vec<NodeId> {
        let (owner, path) = net.route_fold(from, key, vec![from], |mut path, src, dst| {
            assert_eq!(path.last(), Some(&src), "edges chain");
            path.push(dst);
            path
        });
        assert_eq!(path.last(), Some(&owner));
        path
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn route_fold_takes_the_full_scan_hops(
            n in 1usize..160,
            seed in 0u64..10_000,
            churn in prop::collection::vec(any::<bool>(), 0..40),
            probes in prop::collection::vec((any::<u64>(), any::<usize>(), 0u8..4), 1..24),
        ) {
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = ChordNet::build(n, &mut rng);
            // Join on `true`, remove the middle member on `false` (refused
            // on a one-node ring).
            for join in churn {
                if join {
                    net.join(&mut rng);
                } else {
                    let victim = net.live_members().nth(net.node_count() / 2).unwrap();
                    let _ = net.remove(victim);
                }
            }
            let live: Vec<NodeId> = net.live_members().collect();
            for (raw_key, raw_from, kind) in probes {
                let from = live[raw_from % live.len()];
                let at = net.id_of(live[raw_key as usize % live.len()]);
                // Arbitrary keys, keys on a member's id and just past it,
                // and self-routes.
                let key = match kind {
                    0 => raw_key,
                    1 => at,
                    2 => at.wrapping_add(1),
                    _ => net.id_of(from),
                };
                let path = fold_path(&net, from, key);
                prop_assert_eq!(&path, &full_scan_path(&net, from, key), "{} -> {:#x}", from, key);
                let lookup = net.route_point(from, key);
                prop_assert_eq!((lookup.owner, lookup.hops), (path[path.len() - 1], path.len() - 1));
            }
        }
    }

    #[test]
    fn route_fold_on_a_one_node_ring_folds_nothing() {
        let net = build(1, 12);
        let only = net.any_node();
        for key in [0, net.id_of(only), u64::MAX] {
            assert_eq!(net.route_fold(only, key, 7u32, |_, _, _| unreachable!()), (only, 7));
        }
    }

    #[test]
    fn ownership_is_clockwise_successor() {
        let net = build(50, 1);
        let mut rng = simnet::rng_from_seed(10);
        for _ in 0..200 {
            let key: u64 = rng.gen();
            let owner = net.successor_of(key);
            // No node lies strictly between key and its owner clockwise.
            for n in net.live_members() {
                if n != owner {
                    assert!(
                        !ChordNet::in_interval(key.wrapping_sub(1), net.id_of(owner), net.id_of(n))
                            || net.id_of(n) == key,
                        "node {n} preempts owner"
                    );
                }
            }
        }
    }

    #[test]
    fn routing_reaches_owner_from_everywhere() {
        let net = build(200, 2);
        let mut rng = simnet::rng_from_seed(20);
        for _ in 0..300 {
            let key: u64 = rng.gen();
            let from = net.random_node(&mut rng);
            let lookup = net.route_point(from, key);
            assert_eq!(lookup.owner, net.successor_of(key));
        }
    }

    #[test]
    fn hops_scale_logarithmically() {
        let mut rng = simnet::rng_from_seed(30);
        for &n in &[64usize, 256, 1024] {
            let net = build(n, 3 + n as u64);
            let mut total = 0usize;
            let queries = 300;
            for _ in 0..queries {
                let key: u64 = rng.gen();
                let from = net.random_node(&mut rng);
                total += net.route_point(from, key).hops;
            }
            let avg = total as f64 / queries as f64;
            let log_n = (n as f64).log2();
            // Chord's average is ~½·log₂N; allow generous slack.
            assert!(avg < log_n, "N={n}: avg {avg} ≥ log2N {log_n}");
            assert!(avg > 0.25 * log_n, "N={n}: avg {avg} suspiciously low");
        }
    }

    #[test]
    fn replica_owners_walk_the_successor_list() {
        let net = build(40, 9);
        let mut rng = simnet::rng_from_seed(90);
        for _ in 0..50 {
            let key: u64 = rng.gen();
            let owners = Dht::replica_owners(&net, key, 4);
            assert_eq!(owners.len(), 4);
            assert_eq!(owners[0], net.successor_of(key), "primary is the key's owner");
            let distinct: std::collections::BTreeSet<_> = owners.iter().collect();
            assert_eq!(distinct.len(), 4, "owners must be distinct");
            // Consecutive on the ring: each owner is its predecessor's
            // direct successor.
            for pair in owners.windows(2) {
                assert_eq!(
                    net.successor_of(net.id_of(pair[0]).wrapping_add(1)),
                    pair[1],
                    "successor-list order"
                );
            }
            // Prefix-stable in r.
            assert_eq!(Dht::replica_owners(&net, key, 2), owners[..2].to_vec());
        }
        // Clamped to the network size.
        let tiny = build(3, 10);
        assert_eq!(Dht::replica_owners(&tiny, 7, 10).len(), 3);
    }

    #[test]
    fn self_route_costs_zero() {
        let net = build(20, 4);
        let key = 42u64;
        let owner = net.successor_of(key);
        assert_eq!(net.route_point(owner, key).hops, 0);
    }

    #[test]
    fn single_node_owns_everything() {
        let net = build(1, 5);
        let only = net.any_node();
        assert_eq!(net.successor_of(0), only);
        assert_eq!(net.successor_of(u64::MAX), only);
        assert_eq!(net.route_point(only, 12345).hops, 0);
    }

    #[test]
    fn churn_preserves_routing_and_slot_stability() {
        let mut rng = simnet::rng_from_seed(6);
        let mut net = ChordNet::build(64, &mut rng);
        // A survivor's slot and identifier must never move under churn.
        let witness = net.live_members().nth(10).unwrap();
        let witness_id = net.id_of(witness);
        for i in 0..60 {
            if i % 2 == 0 {
                net.join(&mut rng);
            } else {
                let victim = net.live_members().find(|&n| n != witness).unwrap();
                net.remove(victim).unwrap();
            }
        }
        assert_eq!(net.id_of(witness), witness_id);
        assert_eq!(net.node_count(), 64);
        // Ring order is maintained and routing still converges everywhere.
        for _ in 0..100 {
            let key: u64 = rng.gen();
            let from = net.random_node(&mut rng);
            let lookup = net.route_point(from, key);
            assert_eq!(lookup.owner, net.successor_of(key));
            assert!(lookup.hops <= net.node_count());
        }
    }

    #[test]
    fn incremental_finger_maintenance_matches_a_full_rebuild() {
        let mut rng = simnet::rng_from_seed(8);
        let mut net = ChordNet::build(80, &mut rng);
        for i in 0..100 {
            if i % 3 == 0 {
                let victim = net.random_node(&mut rng);
                let _ = net.remove(victim);
            } else {
                net.join(&mut rng);
            }
        }
        let incremental = net.fingers.clone();
        net.rebuild_all_fingers();
        assert_eq!(incremental, net.fingers, "incremental repair must converge exactly");
    }

    #[test]
    fn invariants_hold_under_churn_and_catch_corruption() {
        let mut rng = simnet::rng_from_seed(11);
        let mut net = ChordNet::build(40, &mut rng);
        for i in 0..60 {
            if i % 3 == 0 {
                net.join(&mut rng);
            } else {
                net.remove(net.random_node(&mut rng)).unwrap();
            }
            net.check_invariants().unwrap();
        }
        let mut stale = net.clone();
        stale.free_slots.push(Reverse(stale.any_node()));
        assert!(stale.check_invariants().unwrap_err().contains("free heap"));
        let mut stale = net.clone();
        let row = stale.any_node() * RING_BITS as usize;
        stale.fingers[row + 5] = DEAD_FINGER;
        assert!(stale.check_invariants().unwrap_err().contains("finger 5"));
        let mut stale = net;
        stale.ring.swap(0, 1);
        assert!(stale.check_invariants().unwrap_err().contains("ascending"));
    }

    #[test]
    fn last_node_cannot_leave_and_dead_ids_error() {
        let mut net = build(2, 7);
        let victim = net.any_node();
        net.remove(victim).unwrap();
        assert!(matches!(net.remove(victim), Err(SchemeError::BadOrigin { .. })));
        let survivor = net.any_node();
        assert!(matches!(net.remove(survivor), Err(SchemeError::Query(_))));
    }
}
