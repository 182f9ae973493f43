//! Long-path Kautz routing on variable-length PeerIDs (§3).
//!
//! Toward a target string `T`, a peer `C` finds the longest suffix `j` of its
//! ID that prefixes `T`, forms the ideal continuation
//! `I = C.id[1..] ++ T[j..]`, and forwards to the out-neighbor owning `I`.
//! Every hop strictly decreases `len(id) − j`, so delivery needs at most
//! `len(source.id)` hops: `< 2·log₂N` worst case, `< log₂N` on average under
//! the neighborhood invariant.
//!
//! The hop rule runs on the order-preserving `u128` keys the peer table is
//! already ordered by: the suffix match, the shift and the owner probe are
//! integer operations, so a hop allocates nothing.

use crate::net::{enc_id, enc_is_prefix, enc_len, enc_probe};
use crate::{FissioneError, FissioneNet};
use kautz::KautzStr;
use simnet::{FaultPlan, NodeId};

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

/// A routing target in key space: the [`enc_probe`] window of the target
/// string (its first 64 symbols — live PeerID depths never approach that,
/// so every prefix and suffix relation a hop needs is decided inside it)
/// and the string's full length.
#[derive(Clone, Copy)]
struct Target {
    probe: u128,
    len: usize,
}

impl Target {
    fn of(target: &KautzStr) -> Self {
        Target { probe: enc_probe(target), len: target.len() }
    }
}

impl FissioneNet {
    /// The next hop from `node` toward `target`, or `None` if `node` already
    /// owns it.
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::NoSuchPeer`] for dead nodes and
    /// [`FissioneError::TargetTooShort`] when ownership of the ideal
    /// continuation is unresolvable.
    pub fn next_hop(
        &self,
        node: NodeId,
        target: &KautzStr,
    ) -> Result<Option<NodeId>, FissioneError> {
        let next = self.hop(enc_id(self.peer_id(node)?), Target::of(target))?;
        Ok(next.map(|(_, node)| node))
    }

    /// The hop rule: from the peer whose [`enc_id`] key is `id`, the next
    /// peer toward `target` and that peer's own key (the owner probe reads
    /// it anyway, so a route never looks a PeerID up after its first hop).
    fn hop(&self, id: u128, target: Target) -> Result<Option<(u128, NodeId)>, FissioneError> {
        if enc_is_prefix(id, target.probe) {
            return Ok(None);
        }
        let len = enc_len(id);
        // The longest suffix of the id that prefixes the target: its last
        // `j` 2-bit groups against the target's first `j`. The whole id
        // cannot match (it is no prefix of the target), so `j < len`.
        let j = (1..len.min(target.len + 1))
            .rev()
            .find(|&j| (id << (2 * (len - j))) >> (128 - 2 * j) == target.probe >> (128 - 2 * j))
            .unwrap_or(0);
        // The ideal continuation `id[1..] ++ target[j..]`, windowed like
        // any other probe.
        let ideal = (id << 2) | ((target.probe << (2 * j)) >> (2 * (len - 1)));
        let next = self.owner_of_enc(ideal, len - 1 + target.len - j)?;
        debug_assert_ne!(next.0, id, "Kautz shift cannot map a peer to itself");
        Ok(Some(next))
    }

    /// Walks the route from `from` to the owner of `target` (an
    /// ObjectID-length Kautz string, or a PeerID), folding `f(acc, src,
    /// dst)` over its edges in order. Returns the owner and the folded
    /// value; nothing is allocated unless `f` does.
    ///
    /// # Errors
    ///
    /// Propagates [`FissioneNet::next_hop`] errors.
    pub fn route_fold<A>(
        &self,
        from: NodeId,
        target: &KautzStr,
        init: A,
        mut f: impl FnMut(A, NodeId, NodeId) -> A,
    ) -> Result<(NodeId, A), FissioneError> {
        let target = Target::of(target);
        let mut acc = init;
        let (mut cur, mut id) = (from, enc_id(self.peer_id(from)?));
        // `len(id) − j` strictly decreases each hop; the initial ID length
        // bounds the loop. Guard with a generous cap for defence in depth.
        let cap = self.max_depth() + 2;
        for _ in 0..=cap {
            match self.hop(id, target)? {
                None => return Ok((cur, acc)),
                Some((key, next)) => {
                    acc = f(acc, cur, next);
                    (cur, id) = (next, key);
                }
            }
        }
        unreachable!("routing exceeded its progress bound");
    }

    /// Routes from `from` to the owner of `target`, returning the full
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates [`FissioneNet::next_hop`] errors.
    pub fn route(&self, from: NodeId, target: &KautzStr) -> Result<Route, FissioneError> {
        let (_, path) = self.route_fold(from, target, vec![from], |mut path, _, next| {
            path.push(next);
            path
        })?;
        Ok(Route { path })
    }

    /// Fault-tolerant routing: greedy Kautz routing with depth-first
    /// backtracking around crashed peers. The message is modelled as
    /// carrying its walk and visited set, which a real implementation can do
    /// (the walk is `O(log N)` in the common case); Kautz graphs are
    /// `d`-connected (§3), so any crash set smaller than `d` leaves the
    /// owner reachable and this search finds it.
    ///
    /// The returned [`Route`] is the full walk *including backtrack steps*,
    /// so `hops()` honestly counts every traversed edge.
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::Unroutable`] when the source is crashed or
    /// the owner is unreachable in the residual overlay.
    pub fn route_avoiding(
        &self,
        from: NodeId,
        target: &KautzStr,
        faults: &FaultPlan,
    ) -> Result<Route, FissioneError> {
        if faults.is_crashed(from) {
            return Err(FissioneError::Unroutable);
        }
        let mut visited = std::collections::BTreeSet::new();
        visited.insert(from);
        let mut stack = vec![from];
        let mut walk = vec![from];
        while let Some(&cur) = stack.last() {
            let Some(ideal) = self.next_hop(cur, target)? else {
                return Ok(Route { path: walk });
            };
            // Candidate order: the ideal greedy hop first, then the other
            // out-neighbors, then in-neighbors (overlay links are
            // bidirectional connections, so a detour may traverse one
            // backwards — the approximate topology has out-degree-1 peers
            // that would otherwise be stranded by a single crash).
            let mut cands = self.out_neighbors(cur);
            cands.extend(self.in_neighbors(cur));
            cands.dedup();
            cands.sort_by_key(|&n| n != ideal);
            let next = cands.into_iter().find(|&n| !faults.is_crashed(n) && !visited.contains(&n));
            match next {
                Some(n) => {
                    visited.insert(n);
                    stack.push(n);
                    walk.push(n);
                }
                None => {
                    stack.pop();
                    if let Some(&back) = stack.last() {
                        walk.push(back);
                    }
                }
            }
        }
        Err(FissioneError::Unroutable)
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

    /// Compares the two hop rules at every live peer for PeerID targets,
    /// truncated ObjectIDs and 100-symbol ObjectIDs, and checks the fold
    /// against the materialised route under three cost models. Returns how
    /// many comparisons came out `Err(TargetTooShort)`.
    fn assert_key_space_equals_strings(net: &FissioneNet, rng: &mut SmallRng) -> usize {
        let peers: Vec<NodeId> = net.live_peers().collect();
        let mut targets: Vec<KautzStr> = Vec::new();
        for _ in 0..6 {
            let long = KautzStr::random(2, 100, rng);
            targets.push(net.peer_id(peers[rng.gen_range(0..peers.len())]).unwrap().clone());
            targets.push(long.take_front(rng.gen_range(0..8)));
            targets.push(long);
        }
        let models = ["unit", "wan", "cluster"].map(|m| simnet::NetModel::named(m).unwrap());
        let mut too_short = 0;
        for target in &targets {
            for &node in &peers {
                let hop = net.next_hop(node, target);
                assert_eq!(hop, next_hop_on_strings(net, node, target), "{node} -> {target}");
                too_short += usize::from(matches!(hop, Err(FissioneError::TargetTooShort { .. })));
            }
            let from = peers[rng.gen_range(0..peers.len())];
            let Ok(route) = net.route(from, target) else { continue };
            for model in &models {
                let folded = net.route_fold(from, target, (0, 0), |(hops, cost), src, dst| {
                    (hops + 1, cost + model.edge_cost(src, dst))
                });
                let walked = (route.hops(), model.path_cost(route.path()));
                assert_eq!(folded, Ok((route.dest(), walked)), "{} from {from}", model.name());
            }
        }
        assert_eq!(
            net.next_hop(usize::MAX, &targets[0]),
            next_hop_on_strings(net, usize::MAX, &targets[0])
        );
        too_short
    }

    #[test]
    fn key_space_hops_equal_the_string_reference() {
        let mut too_short = 0;
        for (n, seed) in [(3, 27), (40, 28), (700, 29)] {
            too_short +=
                assert_key_space_equals_strings(&build(n, seed), &mut simnet::rng_from_seed(seed));
        }
        assert!(too_short > 0, "short targets must exercise the TargetTooShort arm");
    }

    // The same comparison on nets shaped by the churn schedules of
    // `tests/churn_properties.rs` (3 : 2 : 1 : 1 join, leave, crash,
    // stabilize).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn key_space_hops_equal_the_string_reference_after_churn(
            seed in 0u64..1000,
            ops in prop::collection::vec((0u8..7, any::<usize>()), 1..120),
        ) {
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = build(12, seed);
            for (op, raw) in ops {
                let peers: Vec<NodeId> = net.live_peers().collect();
                let victim = peers[raw % peers.len()];
                match op {
                    0..=2 => drop(net.join(&mut rng)),
                    3..=4 => drop(net.leave(victim)),
                    5 => drop(net.crash(victim)),
                    _ => drop(net.stabilize()),
                }
            }
            assert_key_space_equals_strings(&net, &mut rng);
        }
    }

    #[test]
    fn route_reaches_owner_from_everywhere() {
        let net = build(200, 21);
        let mut rng = simnet::rng_from_seed(210);
        for _ in 0..100 {
            let target = KautzStr::random(2, 24, &mut rng);
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
            let target = KautzStr::random(2, 24, &mut rng);
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
            let target = KautzStr::random(2, 24, &mut rng);
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
            let target = KautzStr::random(2, 24, &mut rng);
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
        let target = KautzStr::random(2, 24, &mut rng);
        let owner = net.owner_of(&target).unwrap();
        let route = net.route(owner, &target).unwrap();
        assert_eq!(route.hops(), 0);
        assert_eq!(route.path(), &[owner]);
    }

    #[test]
    fn route_avoiding_detours_around_crashes() {
        let net = build(300, 26);
        let mut rng = simnet::rng_from_seed(260);
        let mut successes = 0;
        let mut attempts = 0;
        for _ in 0..100 {
            let target = KautzStr::random(2, 24, &mut rng);
            let owner = net.owner_of(&target).unwrap();
            let from = net.random_peer(&mut rng);
            if from == owner {
                continue;
            }
            // Crash the ideal first hop.
            let Ok(Some(first)) = net.next_hop(from, &target) else { continue };
            if first == owner {
                continue; // crashing the owner makes the target unreachable
            }
            let mut faults = FaultPlan::new();
            faults.crash(first);
            attempts += 1;
            if let Ok(route) = net.route_avoiding(from, &target, &faults) {
                assert_eq!(route.dest(), owner);
                assert!(route.path().iter().all(|&n| n != first));
                successes += 1;
            }
        }
        assert!(attempts > 20, "test must exercise detours");
        let rate = successes as f64 / attempts as f64;
        assert!(rate > 0.9, "detour success rate {rate}");
    }
}
