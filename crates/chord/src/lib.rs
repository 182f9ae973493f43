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
//! [`stabilize`](dht_api::DynamicScheme::stabilize) has no deferred repair to
//! do and reports zero operations.
//!
//! # Routing state
//!
//! Of a node's 64 fingers (`successor_of(id + 2^b)`) only ≈ log₂N are
//! distinct: every low bit lands on the successor. A node's row holds just
//! those, as `u32` slots in increasing clockwise distance, beside one
//! dense `u64` identifier column by slot — ≈ 1 MB at 10⁴ nodes, so a
//! route's reads stay in L2. A hop takes the farthest finger at distance
//! `≤ d` from one short row ([`ChordNet::route_fold`]). Joins and removals
//! patch only the rows whose fingers move, and a row is built with one
//! successor lookup per distinct finger.
//!
//! Many routes from one origin — a PHT query's trie-node gets — are walked
//! as one route tree ([`ChordNet::route_tree_fold`]): the keys go in
//! clockwise order from the origin and each resumes from the deepest peer
//! of the previous route whose hop it provably repeats, so a finger edge is
//! walked once for every key behind it. The origin's predecessor arc
//! decides ownership, so no key pays a successor lookup.
//!
//! # Example
//!
//! ```
//! use chord::ChordNet;
//! use dht_api::Dht;
//! use simnet::{NetModel, QueryScratch};
//!
//! let mut rng = simnet::rng_from_seed(3);
//! let net = ChordNet::build(128, &mut rng);
//! let mut gets = Vec::new();
//! let keys = [0xdead_beef, 0xfeed];
//! let unit = NetModel::unit();
//! net.route_keys(net.any_node(), &keys, &unit, None, &mut QueryScratch::new(), &mut gets);
//! for ((lookup, latency), key) in gets.into_iter().zip(keys) {
//!     assert_eq!(lookup.owner, net.successor_of(key));
//!     assert!(lookup.hops as f64 <= 2.0 * 128f64.log2());
//!     assert_eq!(latency, lookup.hops as u64); // a unit edge per hop
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dht_api::{Dht, DynamicScheme, Lookup, SchemeError};
use rand::rngs::SmallRng;
use rand::Rng;
use simnet::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const RING_BITS: u32 = 64;
/// Sentinel filling the derived finger-slab rows of dead slots.
const DEAD_FINGER: NodeId = NodeId::MAX;

/// A simulated Chord ring.
///
/// Ring identifiers are uniform random 64-bit values; key `k` is owned by
/// its **successor** (the first node clockwise at or after `k`). Fingers
/// are exact (the network is maintained in a converged state, as the
/// paper's steady-state analysis assumes).
#[derive(Debug, Clone)]
pub struct ChordNet {
    /// The live ring: `(identifier, slot)` sorted by identifier.
    ring: Vec<(u64, NodeId)>,
    /// Identifier column: `ids[n]` is slot `n`'s ring identifier (stale
    /// once the slot is dead).
    ids: Vec<u64>,
    /// Finger rows: `rows[n]` holds slot `n`'s distinct non-self fingers
    /// in increasing clockwise distance; `None` for a dead slot.
    rows: Vec<Option<Vec<u32>>>,
    /// Free slots as a min-heap: joins recycle the lowest free index,
    /// matching the old slot scan without its O(N) cost.
    free_slots: BinaryHeap<Reverse<usize>>,
}

/// One greedy hop out of a row: the finger taken, its clockwise distance
/// from the hop's source, and the distance of the row's next finger
/// (`None` past the last) — a key closer than that takes the same hop.
#[derive(Debug, Clone, Copy)]
struct Hop {
    next: NodeId,
    step: u64,
    reach: Option<u64>,
}

/// One peer on the route [`ChordNet::route_tree_fold`] walked last: its
/// clockwise distance from the origin (`at`), the largest origin distance
/// of a key that takes the same hop out of it as that route did (`upto`,
/// set as the route leaves it), and the value folded so far.
#[derive(Debug, Clone, Copy)]
struct Frame<A> {
    node: NodeId,
    at: u64,
    upto: u64,
    acc: A,
}

/// What one call of [`ChordNet::route_tree_fold`] works on and returns: the
/// keys' clockwise distances from the origin in sorted order, the frames of
/// the route walked last, and one result per key. Kept across calls (a
/// query scratch slot), it allocates nothing once grown.
#[derive(Debug)]
pub struct RouteTree<A> {
    order: Vec<(u64, u32)>,
    frames: Vec<Frame<A>>,
    results: Vec<(NodeId, A)>,
}

impl<A> Default for RouteTree<A> {
    fn default() -> Self {
        RouteTree { order: Vec::new(), frames: Vec::new(), results: Vec::new() }
    }
}

impl<A> RouteTree<A> {
    /// The last call's results, one per key in the order given: what
    /// [`ChordNet::route_fold`] returns for that key.
    pub fn results(&self) -> &[(NodeId, A)] {
        &self.results
    }
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
        let mut net =
            ChordNet { ring, ids, rows: vec![Some(Vec::new()); n], free_slots: BinaryHeap::new() };
        net.refresh_all_fingers();
        net
    }

    /// The distinct non-self fingers of a live node with identifier `id`,
    /// in increasing clockwise distance: one successor lookup per finger.
    /// Finger `b` lies at least `2^b` clockwise of `id`, so once a finger
    /// at distance `d` is found, every bit whose start `id + 2^b` is at most
    /// `d` away lands on it too and the next lookup is the first bit past
    /// `d`; a finger on the node itself ends the row, since every later
    /// start lies on its own arc.
    fn finger_row(&self, id: u64) -> Vec<u32> {
        let mut row = Vec::new();
        let mut b = 0;
        while b < RING_BITS {
            let finger = self.successor_of(id.wrapping_add(1 << b));
            let d = self.ids[finger].wrapping_sub(id);
            if d == 0 {
                break;
            }
            row.push(finger as u32);
            b = RING_BITS - d.leading_zeros();
        }
        row
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
        assert!(self.rows[node].is_some(), "live node");
        self.ids[node]
    }

    /// Whether `node` refers to a live ring member.
    pub fn is_live(&self, node: NodeId) -> bool {
        self.rows.get(node).is_some_and(Option::is_some)
    }

    /// Live nodes in ring order (ascending identifier) — a deterministic
    /// order churn plans rely on for victim selection.
    pub fn live_members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ring.iter().map(|&(_, slot)| slot)
    }

    /// Every finger table as a 64-wide slab in slot-major order (row `n`
    /// holds slot `n`'s fingers `0..64`, a finger on the node itself
    /// included; dead slots are all-`usize::MAX`), derived from the rows —
    /// exposed so equivalence tests can compare incremental maintenance
    /// against [`refresh_all_fingers`](Self::refresh_all_fingers) byte for
    /// byte.
    pub fn finger_slab(&self) -> Vec<NodeId> {
        let mut slab = Vec::with_capacity(self.rows.len() * RING_BITS as usize);
        for (slot, row) in self.rows.iter().enumerate() {
            let Some(row) = row else {
                slab.extend([DEAD_FINGER; RING_BITS as usize]);
                continue;
            };
            let id = self.ids[slot];
            let mut fingers = row.iter().map(|&f| f as NodeId).peekable();
            for b in 0..RING_BITS {
                // Finger `b` is the nearest row entry at least `2^b` away.
                while fingers.next_if(|&f| self.ids[f].wrapping_sub(id) < 1 << b).is_some() {}
                slab.push(fingers.peek().copied().unwrap_or(slot));
            }
        }
        slab
    }

    /// Recomputes every finger row from scratch on the current membership
    /// — the oracle the incremental `join`/`remove` repairs are pinned
    /// against. A converged network is a fixed point: calling this must
    /// never change [`finger_slab`](Self::finger_slab).
    pub fn refresh_all_fingers(&mut self) {
        for i in 0..self.ring.len() {
            let (id, slot) = self.ring[i];
            self.rows[slot] = Some(self.finger_row(id));
        }
    }

    /// A new node joins with a fresh random identifier; the converged
    /// maintenance model re-derives the affected finger tables
    /// synchronously. Returns the newcomer's slot.
    ///
    /// Maintenance is incremental: the newcomer builds its own row, and an
    /// existing row changes only when the new identifier now owns one of
    /// its fingers' start points — an `O(1)` interval test per finger, no
    /// per-event full rebuild.
    ///
    /// # Panics
    ///
    /// Panics past 2³² slots.
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
            debug_assert!(self.rows[free].is_none(), "free-slot heap out of sync");
            self.ids[free] = id;
            free
        } else {
            assert!(u32::try_from(self.ids.len()).is_ok(), "Chord slots fit u32");
            self.ids.push(id);
            self.rows.push(None);
            self.ids.len() - 1
        };
        let pos = self.ring.binary_search_by_key(&id, |&(i, _)| i).unwrap_err();
        let pred_id = self.ring[(pos + self.ring.len() - 1) % self.ring.len()].0;
        let succ = self.ring[pos % self.ring.len()].1;
        self.ring.insert(pos, (id, slot));
        self.rows[slot] = Some(self.finger_row(id));
        // A finger `successor_of(start)` moves to the newcomer exactly when
        // its start point `other + 2^b` lies on the arc `(pred, id]` the
        // newcomer took over from its successor — equivalently, when
        // `other` lies on that arc shifted by `−2^b`. Binary-searching the
        // shifted arc per bit touches only the expected-O(1) movers instead
        // of the whole ring.
        for b in 0..RING_BITS {
            let step = 1u64 << b;
            let (r1, r2) = self.arc_ranges(pred_id.wrapping_sub(step), id.wrapping_sub(step));
            for i in r1.chain(r2) {
                let other = self.ring[i].1;
                if other != slot {
                    self.take_over(other, slot, succ);
                }
            }
        }
        slot
    }

    /// Patches `other`'s row after the newcomer `new` took over part of the
    /// arc `succ` owned, some of `other`'s fingers with it. `new` sits just
    /// before `succ` in clockwise order (at the row's end when `succ` is
    /// `other` itself, whose fingers on its own arc the row leaves out);
    /// `succ` keeps its place only while a start point still lies on
    /// `(new, succ]`, i.e. while a power of two lies on that arc's range of
    /// distances from `other`.
    fn take_over(&mut self, other: NodeId, new: NodeId, succ: NodeId) {
        let ids = &self.ids;
        let row = self.rows[other].as_mut().expect("ring members are live");
        if row.contains(&(new as u32)) {
            return; // a lower bit already moved to the newcomer
        }
        if succ == other {
            row.push(new as u32);
            return;
        }
        let at = row.iter().position(|&f| f == succ as u32).expect("the successor was a finger");
        let (to_new, to_succ) =
            (ids[new].wrapping_sub(ids[other]), ids[succ].wrapping_sub(ids[other]));
        // The largest power of two up to `to_succ`: the farthest start point
        // `succ` can still own.
        if 1 << (RING_BITS - 1 - to_succ.leading_zeros()) > to_new {
            row.insert(at, new as u32);
        } else {
            row[at] = new as u32;
        }
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
    /// fingers re-converge — incrementally: only rows holding the leaver
    /// change, and its place goes to its ring successor, the heir.
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
        let id = self.ids[node];
        let pos = self.ring.binary_search_by_key(&id, |&(i, _)| i).expect("ring member");
        let pred_id = self.ring[(pos + self.ring.len() - 1) % self.ring.len()].0;
        self.ring.remove(pos);
        self.rows[node] = None;
        self.free_slots.push(Reverse(node));
        // Everything the leaver owned falls to its ring successor. In the
        // converged state the fingers pointing at the leaver are exactly
        // those whose start point lies on the leaver's arc `(pred, id]`, so
        // the shifted-arc enumeration of `join` finds every row holding
        // it. The heir follows the leaver in clockwise order, so it takes
        // the leaver's place — unless the row already holds it next, or it
        // is the row's own node.
        let heir = self.ring[pos % self.ring.len()].1;
        for b in 0..RING_BITS {
            let step = 1u64 << b;
            let (r1, r2) = self.arc_ranges(pred_id.wrapping_sub(step), id.wrapping_sub(step));
            for i in r1.chain(r2) {
                let other = self.ring[i].1;
                let row = self.rows[other].as_mut().expect("ring members are live");
                let Some(at) = row.iter().position(|&f| f == node as u32) else { continue };
                if heir == other || row.get(at + 1) == Some(&(heir as u32)) {
                    row.remove(at);
                } else {
                    row[at] = heir as u32;
                }
            }
        }
        Ok(())
    }

    /// Verifies the ring invariants Chord's routing and Squid's segment
    /// walks trust: the ring is strictly ascending; every ring entry's slot
    /// is live and the identifier column holds its identifier, and the live
    /// slots number the ring's length; the columns cover the same slots;
    /// every live row is exactly the distinct non-self
    /// `successor_of(id + 2^b)`, `b = 0..64`, in increasing clockwise
    /// distance (dead slots have no row); the free heap holds exactly the
    /// dead slots, once each.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string on violation (test helper).
    pub fn check_invariants(&self) -> Result<(), String> {
        if let Some(w) = self.ring.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(format!("ring not ascending: {:#x} before {:#x}", w[0].0, w[1].0));
        }
        if self.ids.len() != self.rows.len() {
            return Err(format!("{} ids for {} rows", self.ids.len(), self.rows.len()));
        }
        for &(id, slot) in &self.ring {
            let holds = self.is_live(slot).then(|| self.ids[slot]);
            if holds != Some(id) {
                return Err(format!("ring entry ({id:#x}, {slot}) but the slot holds {holds:?}"));
            }
        }
        let live = self.rows.iter().filter(|row| row.is_some()).count();
        if live != self.ring.len() {
            return Err(format!("{live} live slots vs a ring of {}", self.ring.len()));
        }
        for &(id, slot) in &self.ring {
            let mut want: Vec<u32> = (0..RING_BITS)
                .map(|b| self.successor_of(id.wrapping_add(1 << b)))
                .filter(|&f| f != slot)
                .map(|f| f as u32)
                .collect();
            want.dedup();
            let row = self.rows[slot].as_deref().expect("checked live");
            if row != want {
                return Err(format!("slot {slot} row is {row:?}, want {want:?}"));
            }
        }
        let mut free: Vec<NodeId> = self.free_slots.iter().map(|&Reverse(slot)| slot).collect();
        free.sort_unstable();
        let dead: Vec<NodeId> = (0..self.rows.len()).filter(|&s| !self.is_live(s)).collect();
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
        Lookup { owner, hops, arrived: true }
    }

    /// The clockwise distance from live `node` to its ring predecessor:
    /// `node` owns exactly the keys at distance 0 or farther than that.
    fn pred_distance(&self, node: NodeId) -> u64 {
        let id = self.id_of(node);
        let pos =
            self.ring.binary_search_by_key(&id, |&(i, _)| i).expect("live nodes are on the ring");
        self.ring[(pos + self.ring.len() - 1) % self.ring.len()].0.wrapping_sub(id)
    }

    /// The greedy hop out of `cur` toward a key `d > 0` clockwise of it
    /// that `cur` does not own: the farthest finger at distance `≤ d`, or
    /// the successor (the key's owner) when even that one lies past the
    /// key.
    fn hop(&self, cur: NodeId, d: u64) -> Hop {
        let id = self.ids[cur];
        let row = self.rows[cur].as_deref().expect("routes stand on live nodes");
        let dist = |f: u32| self.ids[f as usize].wrapping_sub(id);
        let pick = row.iter().filter(|&&f| dist(f) <= d).count().max(1) - 1;
        Hop {
            next: row[pick] as NodeId,
            step: dist(row[pick]),
            reach: row.get(pick + 1).map(|&f| dist(f)),
        }
    }

    /// Walks the greedy finger route from `from` to the owner of ring
    /// point `key`, folding `f(acc, src, dst)` over its edges in order.
    /// Returns the owner and the folded value; nothing is allocated unless
    /// `f` does.
    ///
    /// Each hop reads one row: it takes the farthest finger at clockwise
    /// distance `≤ d`, the distance left to the key, or the successor when
    /// none is that close. A route never passes the key's owner — it is the
    /// first node at or past the key — so the route ends on the first node
    /// it reaches at distance `≥ d`; `from` owns the key when it lies on
    /// the arc back to `from`'s predecessor. The hops are those of the full
    /// 64-finger scan.
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
        let d = key.wrapping_sub(self.id_of(from));
        let (mut cur, mut at, mut acc) = (from, 0, init);
        if d != 0 && d <= self.pred_distance(from) {
            // Every hop strictly shortens the distance to the key, so no
            // node is visited twice: the ring size bounds the loop.
            for _ in 0..self.ring.len() {
                let hop = self.hop(cur, d - at);
                acc = f(acc, cur, hop.next);
                (cur, at) = (hop.next, at + hop.step);
                if at >= d {
                    break;
                }
            }
            assert!(at >= d, "routing exceeded its progress bound");
        }
        debug_assert_eq!(cur, self.successor_of(key), "a route ends on the key's owner");
        (cur, acc)
    }

    /// [`route_fold`](Self::route_fold) from one origin to many keys at
    /// once, walked as one route tree: `out.results()[i]` is what
    /// `route_fold(from, keys[i], init, f)` returns, for a pure `f`.
    ///
    /// The keys are walked in clockwise order from `from`. A hop depends on
    /// the key only through the distance left, and a key at least as far
    /// takes the same hop out of a row as long as it lies short of the
    /// row's next finger — so each key resumes from the deepest peer of
    /// the previous route all of whose hops it repeats, and a finger edge
    /// is walked once for every key behind it. `f` runs once per edge
    /// walked, and a resumed key starts from the value folded up to its
    /// peer. Ownership at the origin is decided by its predecessor arc;
    /// elsewhere a route ends on the first node at or past its key, so no
    /// key pays a successor lookup. Allocates nothing once `out` has grown
    /// to the batch.
    ///
    /// # Panics
    ///
    /// Panics if `from` is dead or past 2³² keys.
    pub fn route_tree_fold<A: Copy>(
        &self,
        from: NodeId,
        keys: impl IntoIterator<Item = u64>,
        init: A,
        mut f: impl FnMut(A, NodeId, NodeId) -> A,
        out: &mut RouteTree<A>,
    ) {
        let RouteTree { order, frames, results } = out;
        let from_id = self.id_of(from);
        let owned_past = self.pred_distance(from);
        order.clear();
        order.extend(keys.into_iter().enumerate().map(|(i, key)| {
            (key.wrapping_sub(from_id), u32::try_from(i).expect("route tree keys fit u32"))
        }));
        results.clear();
        results.resize(order.len(), (from, init));
        order.sort_unstable();
        frames.clear();
        frames.push(Frame { node: from, at: 0, upto: 0, acc: init });
        for &(d, i) in order.iter() {
            if d == 0 || d > owned_past {
                continue; // on the origin's own arc
            }
            // Every frame but the last records the hop the previous route
            // took out of it; the keys come in increasing distance, so one
            // comparison per frame tells whether this key takes it too.
            let mut depth = 0;
            while depth + 1 < frames.len() && d <= frames[depth].upto {
                depth += 1;
            }
            frames.truncate(depth + 1);
            let mut cur = frames[depth];
            while cur.at < d {
                assert!(frames.len() <= self.ring.len(), "routing exceeded its progress bound");
                let hop = self.hop(cur.node, d - cur.at);
                frames[depth].upto = hop.reach.map_or(u64::MAX, |r| cur.at.saturating_add(r - 1));
                cur = Frame {
                    node: hop.next,
                    at: cur.at + hop.step,
                    upto: 0,
                    acc: f(cur.acc, cur.node, hop.next),
                };
                frames.push(cur);
                depth += 1;
            }
            results[i as usize] = (cur.node, cur.acc);
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
    fn route_keys(
        &self,
        from: NodeId,
        keys: &[u64],
        model: &simnet::NetModel,
        faults: Option<&mut simnet::Verdicts<'_>>,
        scratch: &mut simnet::QueryScratch,
        out: &mut Vec<(Lookup, u64)>,
    ) {
        if let Some(verdicts) = faults {
            for &key in keys {
                let fold = |acc, src, dst| dht_api::faulted_edge(verdicts, model, acc, src, dst);
                let (owner, (hops, latency, arrived)) =
                    self.route_fold(from, key, (0, 0, true), fold);
                out.push((Lookup { owner, hops, arrived }, latency));
            }
            return;
        }
        // The greedy finger paths, priced edge by edge, walked as one tree.
        let price =
            |(hops, cost): (usize, u64), src, dst| (hops + 1, cost + model.edge_cost(src, dst));
        let tree = scratch.slot::<RouteTree<(usize, u64)>>();
        self.route_tree_fold(from, keys.iter().copied(), (0, 0), price, tree);
        if cfg!(debug_assertions) {
            for (&key, &got) in keys.iter().zip(tree.results()) {
                let alone = self.route_fold(from, key, (0, 0), price);
                assert_eq!(got, alone, "the tree routed {from} -> {key:#x} unlike a route alone");
            }
        }
        out.extend(
            tree.results()
                .iter()
                .map(|&(owner, (hops, cost))| (Lookup { owner, hops, arrived: true }, cost)),
        );
    }

    fn is_live(&self, node: NodeId) -> bool {
        ChordNet::is_live(self, node)
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
            let slot = rng.gen_range(0..self.rows.len());
            if self.rows[slot].is_some() {
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

impl DynamicScheme for ChordNet {
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

    fn live_peers(&self) -> Vec<NodeId> {
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

    /// Whether `x` lies in the half-open clockwise interval `(a, b]`.
    fn in_interval(a: u64, b: u64, x: u64) -> bool {
        if a < b {
            x > a && x <= b
        } else {
            x > a || x <= b // wrapped
        }
    }

    /// The walk of the 64-finger table, kept as `route_fold`'s reference:
    /// every hop scans all 64 fingers for the farthest one preceding the
    /// key, each finger computed as `successor_of(id + 2^b)` on the spot
    /// rather than read from the rows under test.
    fn full_scan_path(net: &ChordNet, from: NodeId, key: u64) -> Vec<NodeId> {
        let owner = net.successor_of(key);
        let finger =
            |slot: NodeId, b: usize| net.successor_of(net.id_of(slot).wrapping_add(1 << b));
        let mut cur = from;
        let mut path = vec![from];
        while cur != owner {
            let succ = finger(cur, 0);
            if in_interval(net.id_of(cur), net.id_of(succ), key) {
                path.push(succ);
                break;
            }
            let mut next = succ;
            for b in (0..RING_BITS as usize).rev() {
                let f = finger(cur, b);
                if f != cur && in_interval(net.id_of(cur), key, net.id_of(f)) {
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

    /// One `route_fold` per key and one `route_tree_fold` over all of
    /// them agree key by key — owner, hop count and `model`-priced cost.
    fn assert_tree_equals_routes(
        net: &ChordNet,
        from: NodeId,
        keys: &[u64],
        model: &simnet::NetModel,
    ) {
        let price = |(hops, cost): (usize, u64), src: NodeId, dst: NodeId| {
            (hops + 1, cost + model.edge_cost(src, dst))
        };
        let mut tree = RouteTree::default();
        net.route_tree_fold(from, keys.iter().copied(), (0, 0), price, &mut tree);
        assert_eq!(tree.results().len(), keys.len());
        for (&key, &got) in keys.iter().zip(tree.results()) {
            assert_eq!(got, net.route_fold(from, key, (0, 0), price), "{from} -> {key:#x}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn route_tree_fold_equals_one_route_fold_per_key(
            size in 0usize..5,
            seed in 0u64..10_000,
            churn in prop::collection::vec(any::<bool>(), 0..24),
            picks in prop::collection::vec((any::<u64>(), 0u8..6), 1..160),
            raw_from in any::<usize>(),
        ) {
            let n = [1, 2, 3, 64, 500][size];
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = ChordNet::build(n, &mut rng);
            let models = [simnet::NetModel::unit(), simnet::NetModel::named("wan").unwrap()];
            for round in 0..2 {
                // As built, then after churn.
                if round == 1 {
                    for &join in &churn {
                        if join {
                            net.join(&mut rng);
                        } else {
                            let victim = net.live_members().nth(net.node_count() / 3).unwrap();
                            let _ = net.remove(victim);
                        }
                    }
                }
                let live: Vec<NodeId> = net.live_members().collect();
                let from = live[raw_from % live.len()];
                let from_id = net.id_of(from);
                let pred_id = net.id_of(live[(live.iter().position(|&x| x == from).unwrap() + live.len() - 1) % live.len()]);
                let mut keys: Vec<u64> = Vec::new();
                for &(raw, kind) in &picks {
                    let member = net.id_of(live[raw as usize % live.len()]);
                    keys.push(match kind {
                        // Arbitrary keys and repeats of earlier ones.
                        0 => raw,
                        1 => keys.get(raw as usize % keys.len().max(1)).copied().unwrap_or(raw),
                        // Node ids and the points just past them.
                        2 => member,
                        3 => member.wrapping_add(1),
                        // The origin's own arc `(pred, from]`, ends included.
                        4 => pred_id.wrapping_add(1).wrapping_add(raw % from_id.wrapping_sub(pred_id).max(1)),
                        _ => from_id,
                    });
                }
                for model in &models {
                    assert_tree_equals_routes(&net, from, &keys, model);
                }
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
                        !in_interval(key.wrapping_sub(1), net.id_of(owner), net.id_of(n))
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
        let incremental = net.rows.clone();
        net.refresh_all_fingers();
        assert_eq!(incremental, net.rows, "incremental repair must converge exactly");
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
        let slot = stale.any_node();
        stale.rows[slot].as_mut().unwrap().remove(2);
        assert!(stale.check_invariants().unwrap_err().contains(&format!("slot {slot} row")));
        let mut stale = net.clone();
        let slot = stale.any_node();
        stale.ids[slot] ^= 1;
        assert!(stale.check_invariants().unwrap_err().contains("ring entry"));
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
