//! The network cost model: deterministic per-edge virtual latency.
//!
//! The paper measures delay in overlay hops — equivalent to a network in
//! which every edge costs exactly one tick. Real deployments are not that
//! network: WAN edges cost tens of milliseconds, transit-stub topologies
//! make some pairs far cheaper than others, and a handful of slow peers can
//! dominate a query's critical path. [`NetModel`] names a small catalog of
//! such cost surfaces and prices every overlay edge with a **pure function
//! of `(model, seed, src, dst)`**:
//!
//! * no RNG stream is consumed — two simulations sampling edges in
//!   different orders (or from different threads) see identical costs, so
//!   parallel-driver reports stay bitwise thread-count-invariant;
//! * the same edge always costs the same within one model instance — edge
//!   cost is a property of the *network*, not of the query that happens to
//!   traverse it;
//! * costs are symmetric (`cost(a, b) == cost(b, a)`) and self-edges are
//!   free, matching the simulator's convention that local self-delivery
//!   costs nothing.
//!
//! Costs are in **virtual milliseconds**. The catalog:
//!
//! | name | per-edge cost | models |
//! |---|---|---|
//! | `unit` | 1 | the paper's hop-tick network (latency ≡ hop count) |
//! | `lan` | 1–3 | one datacenter: uniform fast edges with jitter |
//! | `wan` | 30–90 | homogeneous wide-area: every edge is slow |
//! | `cluster` | 1–3 intra, 10–74 inter | transit-stub: peers hash into 8 clusters with seeded 2-D coordinates; inter-cluster cost grows with coordinate distance |
//! | `straggler` | 2–4, ×(+120) per slow endpoint | a deterministic 1-in-16 slow-peer set taxes every edge that touches it |

use crate::NodeId;

/// Names of every cataloged cost model, in [`NetModel::named`] order.
pub const NET_MODEL_NAMES: [&str; 5] = ["unit", "lan", "wan", "cluster", "straggler"];

/// The default seed for named models (experiments that want several
/// independent samples of the same topology class use
/// [`NetModel::with_seed`]).
const DEFAULT_SEED: u64 = 0x11e7;

/// Number of clusters the `cluster` model hashes peers into.
const CLUSTERS: u64 = 8;

/// One in `STRAGGLER_ODDS` peers is a straggler under the `straggler`
/// model.
const STRAGGLER_ODDS: u64 = 16;

/// Extra virtual milliseconds per straggler endpoint on an edge.
const STRAGGLER_TAX: u64 = 120;

/// The cost-surface family of a [`NetModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetModelKind {
    /// Every edge costs one tick: virtual time equals hop count.
    Unit,
    /// Datacenter-uniform: every edge costs 1–3 ms (seeded jitter).
    Lan,
    /// Wide-area-uniform: every edge costs 30–90 ms (seeded jitter).
    Wan,
    /// Transit-stub: peers hash into 8 clusters with seeded 2-D
    /// coordinates; intra-cluster edges cost 1–3 ms, inter-cluster edges
    /// 10 ms plus the coordinate distance of the cluster centers.
    Cluster,
    /// Uniform 2–4 ms base with a deterministic 1-in-16 slow-peer set:
    /// each straggler endpoint adds 120 ms to the edge.
    Straggler,
}

/// A named, seeded, deterministic per-edge cost model.
///
/// # Example
///
/// ```
/// use simnet::NetModel;
///
/// let wan = NetModel::named("wan").unwrap();
/// // Pure function of (model, seed, src, dst): no RNG stream, no order
/// // dependence, symmetric, self-edges free.
/// assert_eq!(wan.edge_cost(3, 7), wan.edge_cost(3, 7));
/// assert_eq!(wan.edge_cost(3, 7), wan.edge_cost(7, 3));
/// assert_eq!(wan.edge_cost(5, 5), 0);
/// assert!((30..=90).contains(&wan.edge_cost(3, 7)));
/// // `unit` reproduces the paper's hop ticks.
/// assert_eq!(NetModel::unit().edge_cost(3, 7), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetModel {
    kind: NetModelKind,
    seed: u64,
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel::unit()
    }
}

impl NetModel {
    /// The hop-tick model: every edge costs 1 (latency ≡ hop count).
    pub fn unit() -> Self {
        NetModel { kind: NetModelKind::Unit, seed: DEFAULT_SEED }
    }

    /// The datacenter model: uniform 1–3 ms edges.
    pub fn lan() -> Self {
        NetModel { kind: NetModelKind::Lan, seed: DEFAULT_SEED }
    }

    /// The wide-area model: uniform 30–90 ms edges.
    pub fn wan() -> Self {
        NetModel { kind: NetModelKind::Wan, seed: DEFAULT_SEED }
    }

    /// The transit-stub model: seeded clusters with 2-D coordinates.
    pub fn cluster() -> Self {
        NetModel { kind: NetModelKind::Cluster, seed: DEFAULT_SEED }
    }

    /// The slow-peer model: a deterministic straggler set taxes its edges.
    pub fn straggler() -> Self {
        NetModel { kind: NetModelKind::Straggler, seed: DEFAULT_SEED }
    }

    /// Looks a model up by catalog name (see [`NET_MODEL_NAMES`]).
    pub fn named(name: &str) -> Option<NetModel> {
        match name {
            "unit" => Some(NetModel::unit()),
            "lan" => Some(NetModel::lan()),
            "wan" => Some(NetModel::wan()),
            "cluster" => Some(NetModel::cluster()),
            "straggler" => Some(NetModel::straggler()),
            _ => None,
        }
    }

    /// Replaces the seed (an independent sample of the same topology
    /// class; `unit` ignores it).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The catalog name.
    pub fn name(&self) -> &'static str {
        match self.kind {
            NetModelKind::Unit => "unit",
            NetModelKind::Lan => "lan",
            NetModelKind::Wan => "wan",
            NetModelKind::Cluster => "cluster",
            NetModelKind::Straggler => "straggler",
        }
    }

    /// The cost-surface family.
    pub fn kind(&self) -> NetModelKind {
        self.kind
    }

    /// The seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether this is the hop-tick model (under which latency reproduces
    /// hop accounting exactly).
    pub fn is_unit(&self) -> bool {
        self.kind == NetModelKind::Unit
    }

    /// A comparison-table substrate label: `base` under `unit` (the tables
    /// read as they always have), `"{base} @ {name}"` under any other model.
    pub fn label(&self, base: &str) -> String {
        if self.is_unit() {
            base.to_string()
        } else {
            format!("{base} @ {}", self.name())
        }
    }

    /// Whether `node` is in the `straggler` model's deterministic slow-peer
    /// set (always false under every other model).
    pub fn is_straggler(&self, node: NodeId) -> bool {
        self.kind == NetModelKind::Straggler
            && mix(self.seed ^ 0x5712_a991, node as u64, 0).is_multiple_of(STRAGGLER_ODDS)
    }

    /// The virtual-millisecond cost of the overlay edge `src → dst`: a pure
    /// function of `(model, seed, src, dst)`, symmetric, 0 for self-edges.
    ///
    /// `unit` returns before the pair is hashed: every send of an unpriced
    /// run asks for its edge.
    #[inline]
    pub fn edge_cost(&self, src: NodeId, dst: NodeId) -> u64 {
        if src == dst {
            return 0;
        }
        if self.kind == NetModelKind::Unit {
            return 1;
        }
        // Symmetry: hash the unordered pair.
        let (a, b) = if src <= dst { (src, dst) } else { (dst, src) };
        let h = mix(self.seed, a as u64, b as u64);
        match self.kind {
            NetModelKind::Unit => 1,
            NetModelKind::Lan => 1 + h % 3,
            NetModelKind::Wan => 30 + h % 61,
            NetModelKind::Cluster => {
                let (ca, cb) = (self.cluster_of(a), self.cluster_of(b));
                if ca == cb {
                    1 + h % 3
                } else {
                    let (xa, ya) = self.cluster_center(ca);
                    let (xb, yb) = self.cluster_center(cb);
                    // Manhattan distance of the seeded 2-D centers, scaled
                    // into a 10–74 ms transit band (integer arithmetic:
                    // bitwise reproducible on every platform).
                    let dist = xa.abs_diff(xb) + ya.abs_diff(yb);
                    10 + dist / 8
                }
            }
            NetModelKind::Straggler => {
                let mut cost = 2 + h % 3;
                if self.is_straggler(a) {
                    cost += STRAGGLER_TAX;
                }
                if self.is_straggler(b) {
                    cost += STRAGGLER_TAX;
                }
                cost
            }
        }
    }

    /// The summed edge cost of a node path (`[a, b, c]` ⇒
    /// `cost(a,b) + cost(b,c)`; empty and single-node paths cost 0).
    pub fn path_cost(&self, path: &[NodeId]) -> u64 {
        path.windows(2).map(|w| self.edge_cost(w[0], w[1])).sum()
    }

    /// Which cluster group a node hashes into — `Some` only under the
    /// `cluster` model (partition plans use this to split the network
    /// along its transit-stub topology rather than at random).
    pub fn cluster_group(&self, node: NodeId) -> Option<u64> {
        (self.kind == NetModelKind::Cluster).then(|| self.cluster_of(node))
    }

    /// Which cluster a node hashes into under the `cluster` model.
    fn cluster_of(&self, node: NodeId) -> u64 {
        mix(self.seed ^ 0xc105, node as u64, 1) % CLUSTERS
    }

    /// The seeded 2-D coordinates of a cluster center, each in `0..256`.
    fn cluster_center(&self, cluster: u64) -> (u64, u64) {
        let h = mix(self.seed ^ 0x2d2d, cluster, 2);
        (h % 256, (h >> 8) % 256)
    }
}

/// SplitMix64-style avalanche over three words — the pure edge-keyed hash
/// shared by [`NetModel`] costs, the engine's edge-keyed scheduling
/// jitter, and the hostile fault verdicts (one definition, so none of them
/// can de-synchronize). Public because downstream layers (retry backoff
/// jitter) must hash the same way.
///
/// # Example
///
/// ```
/// // Pure: same words, same hash; any word change avalanches.
/// assert_eq!(simnet::mix(1, 2, 3), simnet::mix(1, 2, 3));
/// assert_ne!(simnet::mix(1, 2, 3), simnet::mix(1, 2, 4));
/// ```
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_models() -> Vec<NetModel> {
        NET_MODEL_NAMES.iter().map(|n| NetModel::named(n).unwrap()).collect()
    }

    #[test]
    fn catalog_round_trips() {
        for name in NET_MODEL_NAMES {
            let m = NetModel::named(name).unwrap();
            assert_eq!(m.name(), name);
        }
        assert!(NetModel::named("dialup").is_none());
        assert_eq!(NetModel::default(), NetModel::unit());
        assert_eq!(NetModel::unit().label("Chord"), "Chord");
        assert_eq!(NetModel::wan().label("Chord"), "Chord @ wan");
    }

    #[test]
    fn edge_costs_are_pure_symmetric_and_self_free() {
        for m in all_models() {
            for (a, b) in [(0usize, 1usize), (3, 7), (100, 2), (42, 4242)] {
                assert_eq!(m.edge_cost(a, b), m.edge_cost(a, b), "{}: pure", m.name());
                assert_eq!(m.edge_cost(a, b), m.edge_cost(b, a), "{}: symmetric", m.name());
                assert!(m.edge_cost(a, b) >= 1, "{}: network edges cost time", m.name());
            }
            assert_eq!(m.edge_cost(9, 9), 0, "{}: self-edges are free", m.name());
        }
    }

    #[test]
    fn unit_reproduces_hop_ticks() {
        let m = NetModel::unit();
        for (a, b) in [(0usize, 1usize), (5, 900), (17, 3)] {
            assert_eq!(m.edge_cost(a, b), 1);
        }
        assert_eq!(m.path_cost(&[4, 9, 2, 77]), 3);
    }

    #[test]
    fn costs_fall_in_documented_bands() {
        for a in 0..40usize {
            for b in (a + 1)..40usize {
                assert!((1..=3).contains(&NetModel::lan().edge_cost(a, b)));
                assert!((30..=90).contains(&NetModel::wan().edge_cost(a, b)));
                let c = NetModel::cluster().edge_cost(a, b);
                assert!((1..=74).contains(&c), "cluster cost {c}");
                let s = NetModel::straggler().edge_cost(a, b);
                assert!((2..=4 + 2 * STRAGGLER_TAX).contains(&s), "straggler cost {s}");
            }
        }
    }

    #[test]
    fn straggler_set_is_sparse_and_taxes_its_edges() {
        let m = NetModel::straggler();
        let stragglers: Vec<NodeId> = (0..1000).filter(|&n| m.is_straggler(n)).collect();
        // ~1/16 of peers; allow generous slack around the expectation.
        assert!((20..=120).contains(&stragglers.len()), "{} stragglers", stragglers.len());
        let slow = stragglers[0];
        let fast = (0..1000).find(|&n| !m.is_straggler(n)).unwrap();
        assert!(m.edge_cost(slow, fast) > STRAGGLER_TAX);
        assert!(m.edge_cost(fast, (fast + 1..).find(|&n| !m.is_straggler(n)).unwrap()) <= 4);
        // Other models have no stragglers.
        assert!(!NetModel::wan().is_straggler(slow));
    }

    #[test]
    fn cluster_model_is_cheap_inside_and_dearer_across() {
        let m = NetModel::cluster();
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for a in 0..60usize {
            for b in (a + 1)..60usize {
                let cost = m.edge_cost(a, b);
                if m.cluster_of(a) == m.cluster_of(b) {
                    intra.push(cost);
                } else {
                    inter.push(cost);
                }
            }
        }
        assert!(!intra.is_empty() && !inter.is_empty());
        assert!(intra.iter().all(|&c| c <= 3));
        assert!(inter.iter().all(|&c| c >= 10));
    }

    #[test]
    fn seeds_give_independent_samples() {
        let a = NetModel::wan();
        let b = NetModel::wan().with_seed(99);
        let differs = (0..100usize).any(|n| a.edge_cost(n, n + 1) != b.edge_cost(n, n + 1));
        assert!(differs, "different seeds must sample different cost surfaces");
        // But unit is seed-free by construction.
        assert_eq!(NetModel::unit().with_seed(9).edge_cost(1, 2), 1);
    }
}
