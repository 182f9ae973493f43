//! The forward routing tree (FRT, §4.2, Figure 4).
//!
//! For peer `P = u1…ub`, the FRT has `b+1` levels: level `i` holds every
//! peer whose PeerID has the prefix `u_{i+1}…u_b` (the length-`(b−i)` suffix
//! of `P`'s ID), and the last level holds every peer whose first symbol is
//! not `u_b`. Children of a node are its FISSIONE out-neighbors at the next
//! level, ordered by PeerID.
//!
//! Queries never materialise the FRT — PIRA/MIRA traverse it implicitly by
//! forwarding to out-neighbors — so the explicit construction lives here,
//! in the test tree, as the reference the traversal is checked against.

use fissione::FissioneNet;
use kautz::KautzStr;
use simnet::NodeId;
use std::collections::BTreeSet;

/// An explicitly constructed forward routing tree.
#[derive(Debug, Clone)]
pub struct ForwardRoutingTree {
    levels: Vec<Vec<NodeId>>,
}

impl ForwardRoutingTree {
    /// Builds the FRT of `root` against the current network topology.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not live.
    pub fn build(net: &FissioneNet, root: NodeId) -> Self {
        let root_id = net.peer_id(root).expect("root must be live").clone();
        let b = root_id.len();
        let mut levels = Vec::with_capacity(b + 1);
        for i in 0..=b {
            let anchor = root_id.drop_front(i); // u_{i+1}…u_b
            let members: Vec<NodeId> = if i < b {
                net.peers_with_prefix(&anchor).collect()
            } else {
                // Last level: peers whose first symbol differs from u_b.
                let last = root_id.last().expect("ids are non-empty");
                net.live_peers()
                    .filter(|&n| net.peer_id(n).expect("live").first() != Some(last))
                    .collect()
            };
            levels.push(members);
        }
        ForwardRoutingTree { levels }
    }

    /// Number of levels (`len(root_id) + 1`).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Peers at a level, in PeerID order.
    ///
    /// # Panics
    ///
    /// Panics if `level ≥ level_count()`.
    pub fn level(&self, level: usize) -> &[NodeId] {
        &self.levels[level]
    }

    /// Children of `node` at `level`: its out-neighbors that belong to
    /// `level + 1`, in PeerID order.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1 ≥ level_count()` or `node` is dead.
    pub fn children(&self, net: &FissioneNet, level: usize, node: NodeId) -> Vec<NodeId> {
        let next: BTreeSet<NodeId> = self.levels[level + 1].iter().copied().collect();
        let mut kids: Vec<(KautzStr, NodeId)> = net
            .out_neighbors(node)
            .into_iter()
            .filter(|n| next.contains(n))
            .map(|n| (net.peer_id(n).expect("live").clone(), n))
            .collect();
        kids.sort();
        kids.into_iter().map(|(_, n)| n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fissione::{FissioneConfig, FissioneNet};

    /// Builds the complete K(2,3) cover: all 12 length-3 strings as peers.
    fn k23_cover() -> (FissioneNet, Vec<NodeId>) {
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut net = FissioneNet::new(cfg);
        // Split every peer twice: depth 1 → 2 → 3.
        for _ in 0..2 {
            let peers: Vec<NodeId> = net.live_peers().collect();
            for p in peers {
                net.split_leaf(p);
            }
        }
        net.check_invariants().unwrap();
        let peers: Vec<NodeId> = net.live_peers().collect();
        assert_eq!(peers.len(), 12);
        (net, peers)
    }

    fn find(net: &FissioneNet, id: &str) -> NodeId {
        let key: KautzStr = id.parse().unwrap();
        net.live_peers().find(|&n| net.peer_id(n).unwrap() == &key).expect("peer exists")
    }

    #[test]
    fn frt_of_212_matches_figure_4() {
        let (net, _) = k23_cover();
        let root = find(&net, "212");
        let frt = ForwardRoutingTree::build(&net, root);
        assert_eq!(frt.level_count(), 4);
        let ids = |lvl: usize| -> Vec<String> {
            frt.level(lvl).iter().map(|&n| net.peer_id(n).unwrap().to_string()).collect()
        };
        assert_eq!(ids(0), vec!["212"]);
        // Level 1: common prefix 12 (suffix of 212).
        assert_eq!(ids(1), vec!["120", "121"]);
        // Level 2: common prefix 2.
        assert_eq!(ids(2), vec!["201", "202", "210", "212"]);
        // Level 3: all peers not starting with u_b = 2.
        assert_eq!(ids(3), vec!["010", "012", "020", "021", "101", "102", "120", "121"]);
    }

    #[test]
    fn children_are_ordered_out_neighbors() {
        let (net, _) = k23_cover();
        let root = find(&net, "212");
        let frt = ForwardRoutingTree::build(&net, root);
        let kids = frt.children(&net, 0, root);
        let kid_ids: Vec<String> =
            kids.iter().map(|&n| net.peer_id(n).unwrap().to_string()).collect();
        assert_eq!(kid_ids, vec!["120", "121"]);
        // Every level-1 node's children live in level 2.
        for &n in frt.level(1) {
            for c in frt.children(&net, 1, n) {
                assert!(frt.level(2).contains(&c));
            }
        }
    }

    #[test]
    fn every_level_node_has_a_parent_path() {
        // Levels are exactly the union of children of the previous level.
        let (net, _) = k23_cover();
        let root = find(&net, "212");
        let frt = ForwardRoutingTree::build(&net, root);
        for lvl in 0..frt.level_count() - 1 {
            let mut reached: Vec<NodeId> =
                frt.level(lvl).iter().flat_map(|&n| frt.children(&net, lvl, n)).collect();
            reached.sort_unstable();
            reached.dedup();
            let mut expect: Vec<NodeId> = frt.level(lvl + 1).to_vec();
            expect.sort_unstable();
            assert_eq!(reached, expect, "level {} covers level {}", lvl, lvl + 1);
        }
    }

    #[test]
    fn frt_on_irregular_cover() {
        // FRT levels behave on an unbalanced network, too.
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(44);
        let net = FissioneNet::build(cfg, 37, &mut rng).unwrap();
        for root in net.live_peers() {
            let frt = ForwardRoutingTree::build(&net, root);
            let b = net.peer_id(root).unwrap().len();
            assert_eq!(frt.level_count(), b + 1);
            assert_eq!(frt.level(0), &[root]);
        }
    }
}
