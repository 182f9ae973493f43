//! Long-path Kautz routing on variable-length PeerIDs (§3).
//!
//! Toward a target string `T`, a peer `C` finds the longest suffix `j` of its
//! ID that prefixes `T`, forms the ideal continuation
//! `I = C.id[1..] ++ T[j..]`, and forwards to the out-neighbor owning `I`.
//! Every hop strictly decreases `len(id) − j`, so delivery needs at most
//! `len(source.id)` hops: `< 2·log₂N` worst case, `< log₂N` on average under
//! the neighborhood invariant.
//!
//! A hop is a read of the current peer's [`RouteTable`] row — §3's routing
//! table *is* the out-neighbor list. `I` extends the left shift `C.id[1..]`,
//! so its owner is by definition one of the out-neighbors the row holds: the
//! hop forms `I` on the order-preserving [`PeerKey`]s with integer
//! operations, then scans the row (2–3 entries under balance) for the one
//! key that prefixes `I`. A route stands at a *rank* (the peer's position in
//! PeerID order) and carries that rank's row record — key, depth, node id
//! and out-neighbors as an interval of ranks — so the scan reads the
//! neighbors' records where they lie, one record per candidate, and the
//! record it picks is the next position whole. The hop carries the next
//! peer's `j` with it — a neighbor no shorter than the shift is
//! `C.id[1..] ++ T[j..j']`, so `j'` follows from its length — and a route
//! slides for `j` symbol by symbol only at its origin and after a short
//! neighbor. A hop allocates nothing and never probes the global ordered
//! cover; it costs one read of the candidates' records. The first route
//! after a membership change builds the table
//! ([`FissioneNet::route_table`]); every later one shares it.
//!
//! A target enters as a key, never as a string: its window, the key of
//! its first 64 symbols ([`ObjectKey::head`]), decides every hop, since a
//! live PeerID has at most [`MAX_PEER_DEPTH`](kautz::MAX_PEER_DEPTH)
//! symbols. [`FissioneNet::route`], which keeps the path, is the one door
//! that takes a [`KautzStr`].
//!
//! Many routes from one origin — a query's replica fetches, a PHT query's
//! trie-node gets ([`dht_api::Dht::route_keys`]) — are walked as one route
//! tree ([`FissioneNet::route_tree_fold`]): in key order, each resumes from
//! the deepest peer of the previous route it provably shares, so the hops
//! near the origin are walked once for the tree, and the origin's suffixes
//! are shifted once for it.
//!
//! Debug builds assert every hop — the pick, the error arm and the carried
//! `j` — against the partition-tree probe behind [`FissioneNet::owner_of`]
//! and the slide, and the tests below hold routes against the §3 rule on
//! strings and route trees against one route per target.

use crate::net::{RouteTable, Row};
use crate::{FissioneError, FissioneNet};
use kautz::key::Suffixes;
use kautz::{KautzStr, ObjectKey, PeerKey};
use simnet::NodeId;

/// A completed route through the overlay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    path: Vec<NodeId>,
}

impl Route {
    /// The traversed peers, source first, owner last.
    pub fn path(&self) -> &[NodeId] {
        &self.path
    }

    /// The source peer.
    pub fn source(&self) -> NodeId {
        self.path[0]
    }

    /// The destination (owning) peer.
    pub fn dest(&self) -> NodeId {
        *self.path.last().expect("route paths are non-empty")
    }

    /// Number of overlay hops (edges traversed).
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// A routing target in key space: the window of the target string (the
/// key of its first 64 symbols, [`ObjectKey::head`] — live PeerID depths
/// never approach that, so every prefix and suffix relation a hop needs is
/// decided inside it) and the window's length.
#[derive(Debug, Clone, Copy)]
struct Target {
    probe: PeerKey,
    len: usize,
}

impl Target {
    fn of(window: PeerKey) -> Self {
        Target { probe: window, len: window.depth() }
    }
}

/// Where a route stands: at the live peer of rank `rank`, whose row
/// (key, depth, node id and out-neighbors) is `row`, and `j`, the length of
/// the longest proper suffix of that key which prefixes the target (the
/// overlap the next hop continues from).
#[derive(Debug, Clone, Copy)]
struct At {
    rank: usize,
    row: Row,
    j: usize,
}

impl At {
    /// A route's first position: the overlap found by sliding.
    fn start(table: &RouteTable, rank: usize, target: Target) -> Self {
        let row = table.row(rank);
        At { rank, row, j: overlap(row.key, target) }
    }

    fn node(&self) -> NodeId {
        self.row.node as NodeId
    }
}

/// The longest proper suffix of the id keyed `id` that prefixes `target`:
/// the longest suffix of its shift `id[1..]` that does. The slide starts at
/// `j = len − 1` and the first hit is the longest; it costs a shift and a
/// compare per step, at most `len(id)` steps.
fn overlap(id: PeerKey, target: Target) -> usize {
    id.shift().longest_suffix_prefix(target.probe, target.len)
}

/// One peer on the route [`FissioneNet::route_tree_fold`] walked last: where
/// it stood, how many leading target symbols the walk from the origin
/// depended on to get there (`need`; `usize::MAX` once a hop needed a
/// slide), and the value folded so far.
#[derive(Debug, Clone, Copy)]
struct Frame<A> {
    at: At,
    need: usize,
    acc: A,
}

/// What one call of [`FissioneNet::route_tree_fold`] works on and returns:
/// the targets' keys beside their positions, in key order, the frames of
/// the route walked last, and one result per target. Kept across calls (a
/// query scratch slot), it allocates nothing once grown.
#[derive(Debug)]
pub struct RouteTree<A> {
    order: Vec<(PeerKey, u32)>,
    frames: Vec<Frame<A>>,
    results: Vec<Result<(NodeId, A), FissioneError>>,
}

impl<A> Default for RouteTree<A> {
    fn default() -> Self {
        RouteTree { order: Vec::new(), frames: Vec::new(), results: Vec::new() }
    }
}

impl<A> RouteTree<A> {
    /// The last call's results, one per target in the order given: what
    /// [`FissioneNet::route_fold`] returns for that target.
    pub fn results(&self) -> &[Result<(NodeId, A), FissioneError>] {
        &self.results
    }
}

impl FissioneNet {
    /// The routing table (built if a membership change dropped it) and the
    /// rank of `node` in it.
    fn table_at(&self, node: NodeId) -> Result<(&RouteTable, usize), FissioneError> {
        let table = self.route_table();
        let rank = table.rank(node).ok_or(FissioneError::NoSuchPeer { node })?;
        Ok((table, rank))
    }

    /// The next hop from `node` toward the string keyed `target`, or `None`
    /// if `node` already owns it: a read of `node`'s row of the routing
    /// table (which this call builds if a membership change dropped it).
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::NoSuchPeer`] for dead nodes and
    /// [`FissioneError::TargetTooShort`] when ownership of the ideal
    /// continuation is unresolvable.
    pub fn next_hop(
        &self,
        node: NodeId,
        target: ObjectKey,
    ) -> Result<Option<NodeId>, FissioneError> {
        let (table, rank) = self.table_at(node)?;
        let target = Target::of(target.head());
        let next = self.hop(table, At::start(table, rank, target), target)?;
        Ok(next.map(|(next, _)| next.node()))
    }

    /// The hop rule: from `at`, the next position toward `target` and
    /// whether its overlap was carried (`true`) or had to be slid for.
    ///
    /// Cost: the ideal continuation is one shift of the current key, and
    /// its owner is found among the row's 2–3 candidates, each one record
    /// holding the key, depth and node id the next position needs. The next
    /// peer's overlap is carried, not slid for: the owner prefixes
    /// `id[1..] ++ T[j..]`, so a next key of `l ≥ len − 1` symbols is
    /// `id[1..] ++ T[j..j']` with `j' = j + l − (len − 1)`, and a longer
    /// overlap would make one of the current id longer than `j`. Only a
    /// short neighbor (`l < len − 1`, which the neighborhood invariant rules
    /// out) is slid for.
    #[inline]
    fn hop(
        &self,
        table: &RouteTable,
        at: At,
        target: Target,
    ) -> Result<Option<(At, bool)>, FissioneError> {
        let At { rank, row, j } = at;
        let (id, len) = (row.key, row.depth as usize);
        if id.is_prefix_at(len, target.probe) {
            return Ok(None);
        }
        debug_assert_eq!(j, overlap(id, target), "rank {rank} carried a wrong overlap");
        // The ideal continuation `id[1..] ++ target[j..]`, windowed like any
        // other probe.
        let ideal = id.shift_toward(len, target.probe, j);
        let ideal_len = len - 1 + target.len - j;
        // Its owner prefixes an extension of the shift `id[1..]`, which makes
        // it an out-neighbor; the cover being prefix-free, at most one key
        // in the row qualifies, and none exactly when no live PeerID does.
        let next =
            table.prefixing(row.out(), ideal).ok_or_else(|| self.target_too_short(ideal_len));
        debug_assert_eq!(
            next.clone().map(|(_, owner)| owner.node as NodeId),
            self.owner_of_window(ideal, ideal_len),
            "the row of rank {rank} and the partition tree disagree on an owner"
        );
        let (next, row) = next?;
        debug_assert_ne!(next, rank, "Kautz shift cannot map a peer to itself");
        let next_len = row.depth as usize;
        let carried = next_len + 1 >= len;
        let j = if carried { j + next_len + 1 - len } else { overlap(row.key, target) };
        Ok(Some((At { rank: next, row, j }, carried)))
    }

    /// Walks the route from `from` to the owner of the string keyed
    /// `target` (an ObjectID, or a PeerID), folding `f(acc, src, dst)` over
    /// its edges in order. Returns the owner and the folded value; nothing
    /// is allocated unless `f` does. The walk fetches the routing table
    /// once — building it if this is the first route since a membership
    /// change — and every hop reads one row of it.
    ///
    /// # Errors
    ///
    /// Propagates [`FissioneNet::next_hop`] errors.
    pub fn route_fold<A>(
        &self,
        from: NodeId,
        target: ObjectKey,
        init: A,
        mut f: impl FnMut(A, NodeId, NodeId) -> A,
    ) -> Result<(NodeId, A), FissioneError> {
        let target = Target::of(target.head());
        let mut acc = init;
        let (table, rank) = self.table_at(from)?;
        let mut at = At::start(table, rank, target);
        // `len(id) − j` strictly decreases each hop; the initial ID length
        // bounds the loop. Guard with a generous cap for defence in depth.
        let cap = self.max_depth() + 2;
        for _ in 0..=cap {
            match self.hop(table, at, target)? {
                None => return Ok((at.node(), acc)),
                Some((next, _)) => {
                    acc = f(acc, at.node(), next.node());
                    at = next;
                }
            }
        }
        unreachable!("routing exceeded its progress bound");
    }

    /// [`route_fold`](Self::route_fold) from one origin to many targets at
    /// once, given by their windows ([`ObjectKey::head`]), priced as one
    /// route tree: `out.results()[i]` is what `route_fold(from, key_i, init,
    /// f)` returns for the key `key_i` whose window is `targets[i]`, for a
    /// pure `f`.
    ///
    /// Routes from one origin share their first hops, and a hop depends on
    /// the target only through the overlap it continues from and the
    /// target symbols it appends. So the targets are walked in key order
    /// and each resumes from the deepest peer of the previous route it
    /// provably shares: its own overlap at the origin equals the previous
    /// target's, it agrees with the previous target on every symbol the
    /// walk to that peer appended (none of whose hops needed a slide), and
    /// no peer before that one owns it. `f` runs once per edge walked, and
    /// a resumed target starts from the value folded up to its peer. The
    /// origin's suffixes are shifted once per tree, so a target's overlap
    /// at the origin is one masked compare per candidate length. Allocates
    /// nothing once `out` has grown to the batch.
    pub fn route_tree_fold<A: Copy>(
        &self,
        from: NodeId,
        targets: impl IntoIterator<Item = PeerKey>,
        init: A,
        mut f: impl FnMut(A, NodeId, NodeId) -> A,
        out: &mut RouteTree<A>,
    ) {
        let RouteTree { order, frames, results } = out;
        order.clear();
        order.extend(targets.into_iter().zip(0..));
        results.clear();
        frames.clear();
        let (table, rank) = match self.table_at(from) {
            Ok(at) => at,
            Err(e) => {
                results.extend(order.iter().map(|_| Err(e.clone())));
                return;
            }
        };
        assert!(u32::try_from(order.len()).is_ok(), "route tree targets fit u32");
        results.resize(order.len(), Ok((from, init)));
        order.sort_unstable();
        let origin = table.row(rank);
        let slide = Suffixes::new(origin.key.shift());
        let cap = self.max_depth() + 2;
        // The probe of the target whose route `frames` holds.
        let mut prev = PeerKey::EMPTY;
        for &(probe, i) in order.iter() {
            let target = Target::of(probe);
            let start = At { rank, row: origin, j: slide.longest_prefix_of(probe, target.len) };
            let mut depth = 0;
            if frames.first().is_some_and(|origin| origin.at.j == start.j) {
                let common = probe.common_prefix_len(prev);
                while depth + 1 < frames.len()
                    && frames[depth + 1].need <= common
                    && !frames[depth].at.row.key.is_prefix_of(probe)
                {
                    depth += 1;
                }
                frames.truncate(depth + 1);
            } else {
                frames.clear();
                frames.push(Frame { at: start, need: 0, acc: init });
            }
            prev = probe;
            let Frame { mut at, mut need, mut acc } = frames[depth];
            results[i as usize] = loop {
                assert!(frames.len() <= cap + 2, "routing exceeded its progress bound");
                match self.hop(table, at, target) {
                    Ok(None) => break Ok((at.node(), acc)),
                    Err(e) => break Err(e),
                    Ok(Some((next, carried))) => {
                        acc = f(acc, at.node(), next.node());
                        need = if carried && need != usize::MAX { next.j } else { usize::MAX };
                        at = next;
                        frames.push(Frame { at, need, acc });
                    }
                }
            };
        }
    }

    /// Routes from `from` to the owner of `target`, returning the full
    /// path: the one routing door that takes a string.
    ///
    /// # Errors
    ///
    /// Propagates [`FissioneNet::next_hop`] errors.
    pub fn route(&self, from: NodeId, target: &KautzStr) -> Result<Route, FissioneError> {
        let target = ObjectKey::new(target);
        let (_, path) = self.route_fold(from, target, vec![from], |mut path, _, next| {
            path.push(next);
            path
        })?;
        Ok(Route { path })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FissioneConfig;
    use kautz::KautzStr;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::Rng;

    fn build(n: usize, seed: u64) -> FissioneNet {
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(seed);
        FissioneNet::build(cfg, n, &mut rng).unwrap()
    }

    /// The hop rule on strings, as §3 states it — the reference the
    /// key-space [`FissioneNet::next_hop`] must equal hop for hop.
    fn next_hop_on_strings(
        net: &FissioneNet,
        node: NodeId,
        target: &KautzStr,
    ) -> Result<Option<NodeId>, FissioneError> {
        let id = net.peer_id(node)?;
        if id.is_prefix_of(target) {
            return Ok(None);
        }
        let j = id.longest_suffix_prefix(target);
        let ideal = id
            .drop_front(1)
            .concat(&target.drop_front(j))
            .expect("suffix match makes the junction legal");
        net.owner_of(&ideal).map(Some)
    }

    /// The route on strings: the chain of [`next_hop_on_strings`] calls from
    /// `from`, as where it ends and the edges it crosses.
    fn route_on_strings(
        net: &FissioneNet,
        from: NodeId,
        target: &KautzStr,
    ) -> Result<(NodeId, Vec<(NodeId, NodeId)>), FissioneError> {
        let (mut cur, mut edges) = (from, Vec::new());
        while let Some(next) = next_hop_on_strings(net, cur, target)? {
            edges.push((cur, next));
            cur = next;
        }
        Ok((cur, edges))
    }

    /// Compares the two hop rules at every live peer, at `usize::MAX` and at
    /// each of `also` (ids that may have departed), for `rounds` each of
    /// PeerID targets, truncated ObjectIDs and 100-symbol ObjectIDs, and for
    /// the empty target; checks the fold's edge sequence against the chain
    /// of string hops, and its value against the materialised route under
    /// three cost models. Returns how many comparisons came out
    /// `Err(TargetTooShort)`.
    fn assert_key_space_equals_strings(
        net: &FissioneNet,
        rng: &mut SmallRng,
        rounds: usize,
        also: &[NodeId],
    ) -> usize {
        let peers: Vec<NodeId> = net.live_peers().collect();
        let mut targets = vec![KautzStr::empty()];
        for _ in 0..rounds {
            let long = KautzStr::random(100, rng);
            targets.push(net.peer_id(peers[rng.gen_range(0..peers.len())]).unwrap().clone());
            targets.push(long.take_front(rng.gen_range(0..8)));
            targets.push(long);
        }
        let models = ["unit", "wan", "cluster"].map(|m| simnet::NetModel::named(m).unwrap());
        let mut too_short = 0;
        for target in &targets {
            for &node in peers.iter().chain(also).chain(&[usize::MAX]) {
                let hop = net.next_hop(node, ObjectKey::new(target));
                assert_eq!(hop, next_hop_on_strings(net, node, target), "{node} -> {target}");
                too_short += usize::from(matches!(hop, Err(FissioneError::TargetTooShort { .. })));
            }
            for &from in [peers[rng.gen_range(0..peers.len())]].iter().chain(also) {
                let key = ObjectKey::new(target);
                let edges = net.route_fold(from, key, Vec::new(), |mut edges, src, dst| {
                    edges.push((src, dst));
                    edges
                });
                assert_eq!(edges, route_on_strings(net, from, target), "{from} -> {target}");
                let Ok(route) = net.route(from, target) else { continue };
                for model in &models {
                    let folded = net.route_fold(from, key, (0, 0), |(hops, cost), src, dst| {
                        (hops + 1, cost + model.edge_cost(src, dst))
                    });
                    let walked = (route.hops(), model.path_cost(route.path()));
                    assert_eq!(folded, Ok((route.dest(), walked)), "{} from {from}", model.name());
                }
            }
        }
        too_short
    }

    #[test]
    fn key_space_hops_equal_the_string_reference() {
        let mut too_short = 0;
        for (n, seed) in [(3, 27), (40, 28), (700, 29)] {
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = build(n, seed);
            too_short += assert_key_space_equals_strings(&net, &mut rng, 6, &[]);
            // A peer that has just departed, its slot still in the table.
            let leaver = net.random_peer(&mut rng);
            if net.leave(leaver).is_ok() {
                assert!(!net.is_live(leaver));
                too_short += assert_key_space_equals_strings(&net, &mut rng, 1, &[leaver]);
            }
        }
        assert!(too_short > 0, "short targets must exercise the TargetTooShort arm");
    }

    // The same comparison on nets shaped by the churn schedules of
    // `tests/churn_properties.rs` (3 : 2 : 1 : 1 join, leave, crash,
    // stabilize), after every operation: each comparison builds the routing
    // table, so each operation has one to drop, and a hop that read a table
    // which outlived a change would differ from the strings here.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn key_space_hops_equal_the_string_reference_after_churn(
            seed in 0u64..1000,
            ops in prop::collection::vec((0u8..7, any::<usize>()), 1..120),
        ) {
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = build(12, seed);
            assert_key_space_equals_strings(&net, &mut rng, 1, &[]);
            for (op, raw) in ops {
                let peers: Vec<NodeId> = net.live_peers().collect();
                let victim = peers[raw % peers.len()];
                match op {
                    0..=2 => drop(net.join(&mut rng)),
                    3..=4 => drop(net.leave(victim)),
                    5 => drop(net.crash(victim)),
                    _ => drop(net.stabilize()),
                }
                // The victim too: departed, if the operation removed it.
                assert_key_space_equals_strings(&net, &mut rng, 1, &[victim]);
            }
        }
    }

    /// A route tree's fold: the hop count and a digest of the edges walked,
    /// in order (so two folds agree only on the same path).
    fn path_digest((hops, digest): (u64, u64), src: NodeId, dst: NodeId) -> (u64, u64) {
        (hops + 1, simnet::mix(digest, src as u64, dst as u64))
    }

    /// `size` route-tree targets from `from`, drawn in turn from these
    /// kinds: the origin's own PeerID, the ids in `departed`, live PeerIDs
    /// (some drawn twice), ObjectIDs at the network's length and at the 64
    /// symbols a key holds, ObjectID-length extensions of PeerIDs (which
    /// share long prefixes with them), and prefixes too short to have an
    /// owner.
    fn tree_targets(
        net: &FissioneNet,
        rng: &mut SmallRng,
        from: NodeId,
        departed: &[KautzStr],
        size: usize,
    ) -> Vec<KautzStr> {
        let peers: Vec<NodeId> = net.live_peers().collect();
        let k = net.config().object_id_len;
        let mut targets: Vec<KautzStr> = net.peer_id(from).ok().cloned().into_iter().collect();
        targets.extend(departed.iter().cloned());
        while targets.len() < size {
            let id = net.peer_id(peers[rng.gen_range(0..peers.len())]).unwrap().clone();
            let object = KautzStr::random(k, rng);
            targets.extend([
                id.min_extension(k),
                object.take_front(rng.gen_range(0..8)),
                KautzStr::random(64, rng),
                id.clone(),
                id,
                object,
            ]);
        }
        targets.truncate(size.max(1));
        let again = targets[rng.gen_range(0..targets.len())].clone();
        *targets.last_mut().unwrap() = again;
        targets
    }

    /// Holds one route tree per origin, on the targets' keys, against one
    /// `route_fold` per target on the strings, result for result, through
    /// one reused [`RouteTree`]; returns the edges the trees walked and the
    /// edges the routes did.
    fn assert_tree_equals_routes(
        net: &FissioneNet,
        rng: &mut SmallRng,
        origins: &[NodeId],
        departed: &[KautzStr],
        size: usize,
    ) -> (u64, u64) {
        let mut tree = RouteTree::default();
        let (mut walked, mut routed) = (0, 0);
        for &from in origins {
            let targets = tree_targets(net, rng, from, departed, size);
            let count = |acc, src, dst| {
                walked += 1;
                path_digest(acc, src, dst)
            };
            let keys = targets.iter().map(|t| ObjectKey::new(t).head());
            net.route_tree_fold(from, keys, (0, 0), count, &mut tree);
            assert_eq!(tree.results().len(), targets.len());
            for (target, got) in targets.iter().zip(tree.results()) {
                let want = net.route_fold(from, ObjectKey::new(target), (0, 0), path_digest);
                assert_eq!(*got, want, "{from} -> {target}");
                routed += want.map_or(0, |(_, (hops, _))| hops);
            }
        }
        (walked, routed)
    }

    #[test]
    fn route_trees_equal_one_route_per_target() {
        for (n, seed) in [(3, 31), (40, 32), (700, 33)] {
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = build(n, seed);
            let origins: Vec<NodeId> = (0..8).map(|_| net.random_peer(&mut rng)).collect();
            let (walked, routed) = assert_tree_equals_routes(&net, &mut rng, &origins, &[], 85);
            assert!(walked < routed, "N = {n}: the trees shared no hop");
            // Deepen some leaves past their neighbors' depth, so hops reach
            // short neighbors and slide; then a departed origin and departed
            // targets.
            for _ in 0..4 {
                let leaf = net.random_peer(&mut rng);
                net.split_leaf(leaf);
                net.split_leaf(leaf);
            }
            let leaver = net.random_peer(&mut rng);
            let departed = vec![net.peer_id(leaver).unwrap().clone()];
            if net.leave(leaver).is_ok() {
                let mut origins: Vec<NodeId> = (0..8).map(|_| net.random_peer(&mut rng)).collect();
                origins.push(leaver);
                assert_tree_equals_routes(&net, &mut rng, &origins, &departed, 85);
            }
        }
    }

    /// The batch sizes a fetch phase prices — one fetch, a `stack-hostile`
    /// query's ≈ 223, a wide scan's ≈ 1 200, and more — on a built cover and
    /// on one churned without `stabilize`, where short neighbors make hops
    /// slide.
    #[test]
    fn route_trees_equal_one_route_per_target_at_fetch_phase_sizes() {
        let mut rng = simnet::rng_from_seed(34);
        let mut net = build(700, 34);
        let mut churned = net.clone();
        let mut departed = Vec::new();
        for op in 0..240 {
            let victim = churned.random_peer(&mut rng);
            let id = churned.peer_id(victim).unwrap().clone();
            let gone = match op % 3 {
                0 => churned.leave(victim).is_ok(),
                1 => churned.crash(victim).is_ok(),
                _ => {
                    churned.join(&mut rng);
                    false
                }
            };
            if gone {
                departed.push(id);
            }
        }
        let violations = churned.check_invariants().unwrap().neighborhood_violations;
        assert!(violations > 0, "an unstabilized cover with no short neighbor slides nowhere");
        for net in [&mut net, &mut churned] {
            for size in [1, 223, 1200, 3000] {
                let origins = [net.random_peer(&mut rng), net.random_peer(&mut rng)];
                let (walked, routed) =
                    assert_tree_equals_routes(net, &mut rng, &origins, &departed, size);
                assert!(size == 1 || walked < routed, "{size} targets shared no hop");
            }
        }
    }

    // The same comparison on churned covers (3 : 2 : 1 join, leave, crash),
    // never stabilized, so the neighborhood invariant breaks: after every
    // operation, from two live origins and from the victim, with the ids of
    // every departed peer among the targets.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn route_trees_equal_one_route_per_target_after_churn(
            seed in 0u64..1000,
            ops in prop::collection::vec((0u8..6, any::<usize>()), 1..60),
        ) {
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = build(12, seed);
            let mut departed = Vec::new();
            for (op, raw) in ops {
                let peers: Vec<NodeId> = net.live_peers().collect();
                let victim = peers[raw % peers.len()];
                let id = net.peer_id(victim).unwrap().clone();
                let gone = match op {
                    0..=2 => { net.join(&mut rng); false }
                    3..=4 => net.leave(victim).is_ok(),
                    _ => net.crash(victim).is_ok(),
                };
                if gone {
                    departed.push(id);
                }
                let origins = [peers[raw % 7 % peers.len()], net.random_peer(&mut rng), victim];
                assert_tree_equals_routes(&net, &mut rng, &origins, &departed, 85);
            }
        }
    }

    #[test]
    fn route_reaches_owner_from_everywhere() {
        let net = build(200, 21);
        let mut rng = simnet::rng_from_seed(210);
        for _ in 0..100 {
            let target = KautzStr::random(24, &mut rng);
            let owner = net.owner_of(&target).unwrap();
            let from = net.random_peer(&mut rng);
            let route = net.route(from, &target).unwrap();
            assert_eq!(route.dest(), owner);
            assert_eq!(route.source(), from);
        }
    }

    #[test]
    fn hops_are_bounded_by_source_depth() {
        let net = build(500, 22);
        let mut rng = simnet::rng_from_seed(220);
        for _ in 0..200 {
            let target = KautzStr::random(24, &mut rng);
            let from = net.random_peer(&mut rng);
            let route = net.route(from, &target).unwrap();
            let depth = net.peer(from).unwrap().depth();
            assert!(route.hops() <= depth, "{} hops from depth-{} peer", route.hops(), depth);
        }
    }

    #[test]
    fn average_hops_below_log_n() {
        let net = build(1000, 23);
        let mut rng = simnet::rng_from_seed(230);
        let mut total = 0usize;
        let queries = 500;
        for _ in 0..queries {
            let target = KautzStr::random(24, &mut rng);
            let from = net.random_peer(&mut rng);
            total += net.route(from, &target).unwrap().hops();
        }
        let avg = total as f64 / queries as f64;
        assert!(avg < (1000f64).log2(), "avg hops {avg}");
    }

    #[test]
    fn each_hop_is_an_out_neighbor_edge() {
        let net = build(150, 24);
        let mut rng = simnet::rng_from_seed(240);
        for _ in 0..50 {
            let target = KautzStr::random(24, &mut rng);
            let from = net.random_peer(&mut rng);
            let route = net.route(from, &target).unwrap();
            for w in route.path().windows(2) {
                assert!(
                    net.out_neighbors(w[0]).contains(&w[1]),
                    "hop {} -> {} is not an edge",
                    net.peer_id(w[0]).unwrap(),
                    net.peer_id(w[1]).unwrap()
                );
            }
        }
    }

    #[test]
    fn self_route_when_source_owns_target() {
        let net = build(100, 25);
        let mut rng = simnet::rng_from_seed(250);
        let target = KautzStr::random(24, &mut rng);
        let owner = net.owner_of(&target).unwrap();
        let route = net.route(owner, &target).unwrap();
        assert_eq!(route.hops(), 0);
        assert_eq!(route.path(), &[owner]);
    }
}
