//! Squid (Schmidt & Parashar, IEEE Internet Computing 2004): multi-attribute
//! range queries over Chord via space-filling-curve clusters — the
//! `O(h·logN)` row of the Armada paper's Table 1.
//!
//! Squid maps `m`-attribute keys onto the Chord ring with an SFC (z-order
//! here) and answers a rectangle query by *recursive cluster refinement*:
//! starting from coarse curve clusters that overlap the query, each
//! refinement step routes the sub-cluster through Chord to the node owning
//! its first key — so **every refinement level costs a full `O(log N)`
//! routing**, giving the `O(h·logN)` delay the Armada paper contrasts with
//! PIRA's single-`logN` bound.
//!
//! The curve itself — domains, keys, clusters and their errors — is
//! [`sfc::ZMap`]'s; this crate is the back end that reaches a cluster
//! through Chord and walks the ring segment owning it. A query answers
//! with the workspace's [`RangeOutcome`], whose destinations are the
//! clusters visited.
//!
//! # Example
//!
//! ```
//! use simnet::QueryScratch;
//! use squid::SquidNet;
//!
//! let mut rng = simnet::rng_from_seed(9);
//! let mut net = SquidNet::build(64, &[(0.0, 100.0), (0.0, 100.0)], &mut rng)?;
//! net.publish(&[50.0, 50.0], 1)?;
//! net.publish(&[90.0, 10.0], 2)?;
//! let origin = net.random_node(&mut rng);
//! let out = net.range_query(origin, &[(40.0, 60.0), (40.0, 60.0)], &mut QueryScratch::new())?;
//! assert_eq!(out.results, vec![1]);
//! assert!(out.exact && out.dest_peers >= 1); // one destination per cluster
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheme;

pub use scheme::register;

use chord::ChordNet;
use dht_api::{Dht, OutcomeCosts, RangeOutcome};
use rand::rngs::SmallRng;
use sfc::{ZError, ZMap};
use simnet::{NodeId, QueryScratch};

/// A Squid deployment: Chord ring + SFC mapping + per-node storage.
#[derive(Debug, Clone)]
pub struct SquidNet {
    chord: ChordNet,
    zmap: ZMap,
    /// Network cost model pricing routings and segment walks.
    net_model: simnet::NetModel,
    /// Per-node stored records `(zkey, point, handle)`.
    records: Vec<Vec<(u64, Vec<f64>, u64)>>,
}

impl SquidNet {
    /// Builds an `n`-node Squid system over the given attribute domains.
    ///
    /// # Errors
    ///
    /// As [`ZMap::new`]: [`ZError::UnsupportedArity`] unless there are
    /// `1..=`[`sfc::MAX_ARITY`] domains, [`ZError::EmptyRange`] for an
    /// empty domain.
    pub fn build(n: usize, domains: &[(f64, f64)], rng: &mut SmallRng) -> Result<Self, ZError> {
        let zmap = ZMap::new(domains)?;
        Ok(SquidNet {
            chord: ChordNet::build(n, rng),
            zmap,
            net_model: simnet::NetModel::unit(),
            records: vec![Vec::new(); n],
        })
    }

    /// Replaces the network cost model queries price their edges with
    /// (`unit` by default). Hop and message metrics are model-invariant;
    /// only [`RangeOutcome::latency`] moves.
    pub fn set_net_model(&mut self, model: simnet::NetModel) {
        self.net_model = model;
    }

    /// The network cost model in force.
    pub fn net_model(&self) -> &simnet::NetModel {
        &self.net_model
    }

    /// The underlying Chord ring.
    pub fn chord(&self) -> &ChordNet {
        &self.chord
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.chord.node_count()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of attributes the system was built with.
    pub fn dims(&self) -> usize {
        self.zmap.dims()
    }

    /// A uniformly random node.
    pub fn random_node(&self, rng: &mut SmallRng) -> NodeId {
        self.chord.random_node(rng)
    }

    /// Maps a z-order key onto the Chord ring (keys use the top bits so
    /// curve order equals ring order).
    fn ring_point(&self, zkey: u64) -> u64 {
        zkey << (64 - self.zmap.space().key_bits())
    }

    /// Publishes a record at the Chord node owning its curve position.
    ///
    /// # Errors
    ///
    /// [`ZError::WrongArity`] on arity mismatch.
    pub fn publish(&mut self, values: &[f64], handle: u64) -> Result<NodeId, ZError> {
        let zkey = self.zmap.key(values)?;
        let owner = self.chord.successor_of(self.ring_point(zkey));
        self.records[owner].push((zkey, values.to_vec(), handle));
        Ok(owner)
    }

    /// Executes a rectangle query from `origin` via recursive cluster
    /// refinement. The outcome's `delay` is the per-level critical path —
    /// per refinement level, the slowest routing plus the ring-segment walk
    /// that collects its cluster — and its `latency` the same path priced
    /// under the deployment's [`NetModel`](simnet::NetModel): each Chord
    /// routing charges its real finger path's edges plus the direct
    /// response edge, each segment-walk step its successor edge
    /// (`latency ≤ delay` under `unit`: an origin-owned cluster head pays
    /// the response-message hop charge but no wire time). Every
    /// overlapping cluster is visited, so the query is exact and its
    /// destinations are the clusters.
    ///
    /// Each level's routings are priced as one [`Dht::route_keys`] batch
    /// whose buffers live in `scratch`; reusing a scratch across queries
    /// moves allocation counts only, never the outcome.
    ///
    /// # Errors
    ///
    /// As [`ZMap::clusters`]: arity mismatch or an empty per-attribute
    /// range.
    pub fn range_query(
        &self,
        origin: NodeId,
        query: &[(f64, f64)],
        scratch: &mut QueryScratch,
    ) -> Result<RangeOutcome, ZError> {
        // The SFC clusters overlapping the query, as contiguous key ranges
        // annotated with the refinement depth that produced them. Squid
        // refines clusters level by level, each level routed through Chord;
        // the per-level cost is the slowest routing of that level and a
        // cluster emitted at depth `d` has paid `d/dims` refinement rounds.
        let clusters = self.zmap.clusters(query)?;
        let model = &self.net_model;
        let mut delay = 0u64;
        let mut latency = 0u64;
        let mut messages = 0u64;
        let mut results = Vec::new();

        // Refinement levels: group clusters by depth (in interleaved bits ⇒
        // one "level" per dims bits). Every level contributes one parallel
        // round of Chord routings.
        let dims = self.zmap.space().dims();
        let mut per_level: std::collections::BTreeMap<u32, Vec<&sfc::ZRange>> =
            std::collections::BTreeMap::new();
        for c in &clusters {
            per_level.entry(c.depth.div_ceil(dims)).or_default().push(c);
        }
        // Each level's routings, to its clusters' first keys, priced in one
        // batch: the real finger paths, edge by edge.
        let (mut keys, mut gets) = (Vec::new(), Vec::new());
        for (_, level_clusters) in per_level {
            let mut level_delay = 0u64;
            let mut level_latency = 0u64;
            keys.clear();
            keys.extend(level_clusters.iter().map(|cluster| self.ring_point(cluster.lo)));
            gets.clear();
            self.chord.route_keys(origin, &keys, model, None, scratch, &mut gets);
            for (cluster, &(lookup, path_latency)) in level_clusters.into_iter().zip(&gets) {
                // The routing plus the direct response edge.
                let rtt = lookup.hops as u64 + 1;
                let rtt_latency = path_latency + model.edge_cost(lookup.owner, origin);
                level_delay = level_delay.max(rtt);
                messages += rtt;
                // Walk the successor chain of nodes owning keys in
                // [lo, hi]. A node with ring id `i` owns the keys in
                // `(pred, i]`, so a node whose id lies in `[a, b)` hands the
                // walk on to its successor — at most once round the ring. A
                // node whose id precedes `a` is the wrap node `ring[0]`: it
                // owns the ring tail past the largest id, so the cluster
                // ends there (at once when the whole cluster lies past the
                // largest id). A one-node ring has nowhere to walk.
                let (a, b) = (self.ring_point(cluster.lo), self.ring_point(cluster.hi));
                let mut node = lookup.owner;
                let mut walked = 0u64;
                let mut walk_latency = 0u64;
                loop {
                    for (zkey, point, handle) in &self.records[node] {
                        if (cluster.lo..=cluster.hi).contains(zkey) && sfc::contains(query, point) {
                            results.push(*handle);
                        }
                    }
                    let nid = self.chord.id_of(node);
                    if !(a..b).contains(&nid) || walked as usize == self.len() || self.len() == 1 {
                        break;
                    }
                    let succ = self.chord.successor_of(nid.wrapping_add(1));
                    walk_latency += model.edge_cost(node, succ);
                    node = succ;
                    walked += 1;
                    messages += 1;
                }
                level_delay = level_delay.max(rtt + walked);
                level_latency = level_latency.max(rtt_latency + walk_latency);
            }
            delay += level_delay;
            latency += level_latency;
        }
        let costs = OutcomeCosts { hops: delay, latency, messages };
        Ok(RangeOutcome::from_native(results, costs, clusters.len(), clusters.len(), true))
    }

    /// Ground truth for tests: a direct scan over all stored records.
    pub fn expected_results(&self, query: &[(f64, f64)]) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .records
            .iter()
            .flatten()
            .filter(|(_, point, _)| sfc::contains(query, point))
            .map(|&(_, _, h)| h)
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn build2(n: usize, records: usize, seed: u64) -> SquidNet {
        let mut rng = simnet::rng_from_seed(seed);
        let mut net = SquidNet::build(n, &[(0.0, 100.0), (0.0, 100.0)], &mut rng).unwrap();
        for h in 0..records as u64 {
            let p = [rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)];
            net.publish(&p, h).unwrap();
        }
        net
    }

    #[test]
    fn squid_is_exact_on_random_queries() {
        let net = build2(80, 300, 1);
        let mut rng = simnet::rng_from_seed(10);
        let mut scratch = QueryScratch::new();
        for _ in 0..40 {
            let q: Vec<(f64, f64)> = (0..2)
                .map(|_| {
                    let lo = rng.gen_range(0.0..80.0);
                    (lo, lo + rng.gen_range(0.5..20.0))
                })
                .collect();
            let origin = net.random_node(&mut rng);
            let out = net.range_query(origin, &q, &mut QueryScratch::new()).unwrap();
            assert_eq!(out.results, net.expected_results(&q), "query {q:?}");
            // A reused scratch moves allocations only, never the outcome.
            assert_eq!(net.range_query(origin, &q, &mut scratch).unwrap(), out);
        }
    }

    #[test]
    fn squid_delay_is_multiple_of_log_n() {
        let net = build2(256, 500, 2);
        let mut rng = simnet::rng_from_seed(20);
        let origin = net.random_node(&mut rng);
        let out = net
            .range_query(origin, &[(20.0, 45.0), (30.0, 70.0)], &mut QueryScratch::new())
            .unwrap();
        let log_n = (256f64).log2();
        assert!(
            out.delay as f64 > 2.0 * log_n,
            "Squid delay {} should exceed 2·logN {}",
            out.delay,
            2.0 * log_n
        );
        assert!(out.dest_peers > 1, "a fat rectangle spans multiple clusters");
    }

    #[test]
    fn squid_whole_space_returns_everything() {
        let net = build2(50, 120, 3);
        let mut rng = simnet::rng_from_seed(30);
        let origin = net.random_node(&mut rng);
        let out = net
            .range_query(origin, &[(0.0, 100.0), (0.0, 100.0)], &mut QueryScratch::new())
            .unwrap();
        assert_eq!(out.results.len(), 120);
    }

    #[test]
    fn squid_rejects_bad_queries() {
        let net = build2(20, 0, 4);
        assert!(matches!(
            net.range_query(0, &[(0.0, 1.0)], &mut QueryScratch::new()),
            Err(ZError::WrongArity { .. })
        ));
        assert!(matches!(
            net.range_query(0, &[(5.0, 1.0), (0.0, 1.0)], &mut QueryScratch::new()),
            Err(ZError::EmptyRange { .. })
        ));
    }

    #[test]
    fn a_cluster_past_the_largest_ring_id_is_not_a_ring_walk() {
        // The domain's top cell sits past every Chord id (at these sizes),
        // so its owner is the wrap node `ring[0]`: the walk must stop
        // there, not go round the whole ring.
        for n in [8usize, 20, 64] {
            let mut rng = simnet::rng_from_seed(9);
            let mut net = SquidNet::build(n, &[(0.0, 100.0)], &mut rng).unwrap();
            net.publish(&[100.0], 7).unwrap();
            let bound = 2.0 * (n as f64).log2() + 2.0;
            for origin in 0..3 {
                let out =
                    net.range_query(origin, &[(100.0, 100.0)], &mut QueryScratch::new()).unwrap();
                assert_eq!(out.results, vec![7]);
                assert!(out.delay as f64 <= bound, "N = {n}, origin {origin}: delay {}", out.delay);
            }
        }
    }

    #[test]
    fn squid_three_attributes() {
        let mut rng = simnet::rng_from_seed(5);
        let mut net = SquidNet::build(60, &[(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)], &mut rng).unwrap();
        for h in 0..200u64 {
            let p = [rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()];
            net.publish(&p, h).unwrap();
        }
        let q = [(0.2, 0.6), (0.1, 0.9), (0.4, 0.5)];
        let out = net.range_query(0, &q, &mut QueryScratch::new()).unwrap();
        assert_eq!(out.results, net.expected_results(&q));
    }
}
