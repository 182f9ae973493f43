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
//! # Example
//!
//! ```
//! use squid::SquidNet;
//!
//! let mut rng = simnet::rng_from_seed(9);
//! let mut net = SquidNet::build(64, &[(0.0, 100.0), (0.0, 100.0)], &mut rng)?;
//! net.publish(&[50.0, 50.0], 1)?;
//! net.publish(&[90.0, 10.0], 2)?;
//! let origin = net.random_node(&mut rng);
//! let out = net.range_query(origin, &[(40.0, 60.0), (40.0, 60.0)])?;
//! assert_eq!(out.results, vec![1]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheme;

pub use scheme::register;

use chord::ChordNet;
use dht_api::Dht;
use rand::rngs::SmallRng;
use sfc::{merge_ranges, ZSpace};
use simnet::NodeId;

/// Default bits per attribute for the SFC quantisation.
pub const DEFAULT_BITS: u32 = 10;

/// The most attributes a z-order key holds at [`DEFAULT_BITS`] bits each.
pub const MAX_ARITY: usize = (sfc::MAX_KEY_BITS / DEFAULT_BITS) as usize;

/// Errors returned by Squid operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SquidError {
    /// Wrong number of attributes.
    WrongArity {
        /// Expected attribute count.
        expected: usize,
        /// Supplied attribute count.
        got: usize,
    },
    /// An attribute domain or query range was empty.
    EmptyRange {
        /// Index of the offending attribute.
        attribute: usize,
    },
    /// A build asked for no attributes, or for more than the z-order key
    /// holds at [`DEFAULT_BITS`] bits each.
    UnsupportedArity {
        /// Supplied attribute count.
        got: usize,
        /// The most attributes a key holds ([`MAX_ARITY`]).
        max: usize,
    },
}

impl std::fmt::Display for SquidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SquidError::WrongArity { expected, got } => {
                write!(f, "expected {expected} attributes, got {got}")
            }
            SquidError::EmptyRange { attribute } => {
                write!(f, "empty range for attribute {attribute}")
            }
            SquidError::UnsupportedArity { got, max } => {
                write!(f, "Squid serves 1..={max} attributes, got {got}")
            }
        }
    }
}

impl std::error::Error for SquidError {}

/// Result of a Squid range query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SquidOutcome {
    /// Matching record handles, ascending.
    pub results: Vec<u64>,
    /// Critical-path delay: per refinement level, the slowest routing, plus
    /// the ring-segment walks that collect cluster contents.
    pub delay: u64,
    /// The same per-level critical path priced in virtual milliseconds
    /// under the deployment's [`NetModel`](simnet::NetModel): each Chord
    /// routing charges its real finger path's edges plus the direct
    /// response edge, each segment-walk step its successor edge.
    /// `latency ≤ delay` under `unit` (an origin-owned cluster head pays
    /// the response-message hop charge but no wire time).
    pub latency: u64,
    /// Total messages.
    pub messages: u64,
    /// Clusters visited (each costs one Chord routing).
    pub clusters: usize,
}

/// A Squid deployment: Chord ring + SFC mapping + per-node storage.
#[derive(Debug, Clone)]
pub struct SquidNet {
    chord: ChordNet,
    zspace: ZSpace,
    domains: Vec<(f64, f64)>,
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
    /// Returns [`SquidError::UnsupportedArity`] unless there are
    /// `1..=`[`MAX_ARITY`] domains, and [`SquidError::EmptyRange`] for an
    /// empty domain.
    pub fn build(n: usize, domains: &[(f64, f64)], rng: &mut SmallRng) -> Result<Self, SquidError> {
        if !(1..=MAX_ARITY).contains(&domains.len()) {
            return Err(SquidError::UnsupportedArity { got: domains.len(), max: MAX_ARITY });
        }
        for (i, &(lo, hi)) in domains.iter().enumerate() {
            if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
                return Err(SquidError::EmptyRange { attribute: i });
            }
        }
        let chord = ChordNet::build(n, rng);
        let zspace = ZSpace::new(domains.len() as u32, DEFAULT_BITS);
        Ok(SquidNet {
            chord,
            zspace,
            domains: domains.to_vec(),
            net_model: simnet::NetModel::unit(),
            records: vec![Vec::new(); n],
        })
    }

    /// Replaces the network cost model queries price their edges with
    /// (`unit` by default). Hop and message metrics are model-invariant;
    /// only [`SquidOutcome::latency`] moves.
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
        self.domains.len()
    }

    /// A uniformly random node.
    pub fn random_node(&self, rng: &mut SmallRng) -> NodeId {
        self.chord.random_node(rng)
    }

    /// Maps a z-order key onto the Chord ring (keys use the top bits so
    /// curve order equals ring order).
    fn ring_point(&self, zkey: u64) -> u64 {
        zkey << (64 - self.zspace.key_bits())
    }

    fn quantize_point(&self, values: &[f64]) -> Result<Vec<u32>, SquidError> {
        if values.len() != self.domains.len() {
            return Err(SquidError::WrongArity { expected: self.domains.len(), got: values.len() });
        }
        Ok(values
            .iter()
            .zip(self.domains.iter())
            .map(|(&v, &(lo, hi))| self.zspace.quantize((v - lo) / (hi - lo)))
            .collect())
    }

    /// Publishes a record at the Chord node owning its curve position.
    ///
    /// # Errors
    ///
    /// Returns [`SquidError::WrongArity`] on arity mismatch.
    pub fn publish(&mut self, values: &[f64], handle: u64) -> Result<NodeId, SquidError> {
        let coords = self.quantize_point(values)?;
        let zkey = self.zspace.interleave(&coords);
        let owner = self.chord.successor_of(self.ring_point(zkey));
        self.records[owner].push((zkey, values.to_vec(), handle));
        Ok(owner)
    }

    /// Executes a rectangle query from `origin` via recursive cluster
    /// refinement.
    ///
    /// # Errors
    ///
    /// Returns an error on arity mismatch or an empty per-attribute range.
    pub fn range_query(
        &self,
        origin: NodeId,
        query: &[(f64, f64)],
    ) -> Result<SquidOutcome, SquidError> {
        if query.len() != self.domains.len() {
            return Err(SquidError::WrongArity { expected: self.domains.len(), got: query.len() });
        }
        let mut qranges = Vec::with_capacity(query.len());
        for (i, (&(lo, hi), &(dlo, dhi))) in query.iter().zip(self.domains.iter()).enumerate() {
            if lo > hi {
                return Err(SquidError::EmptyRange { attribute: i });
            }
            let a = self.zspace.quantize((lo - dlo) / (dhi - dlo));
            let b = self.zspace.quantize((hi - dlo) / (dhi - dlo));
            qranges.push((a, b));
        }

        // The SFC clusters overlapping the query, as contiguous key ranges
        // annotated with the refinement depth that produced them. Squid
        // refines clusters level by level, each level routed through Chord;
        // the per-level cost is the slowest routing of that level and a
        // cluster emitted at depth `d` has paid `d/dims` refinement rounds.
        let clusters = merge_ranges(self.zspace.decompose(&qranges));
        let model = &self.net_model;
        let mut delay = 0u64;
        let mut latency = 0u64;
        let mut messages = 0u64;
        let mut results = Vec::new();

        // Refinement levels: group clusters by depth (in interleaved bits ⇒
        // one "level" per dims bits). Every level contributes one parallel
        // round of Chord routings.
        let dims = self.zspace.dims().max(1);
        let mut per_level: std::collections::BTreeMap<u32, Vec<&sfc::ZRange>> =
            std::collections::BTreeMap::new();
        for c in &clusters {
            per_level.entry(c.depth.div_ceil(dims)).or_default().push(c);
        }
        for (_, level_clusters) in per_level {
            let mut level_delay = 0u64;
            let mut level_latency = 0u64;
            for cluster in level_clusters {
                // Route to the cluster's first key: the real finger path,
                // priced edge by edge, plus the direct response edge.
                let (lookup, path_latency) =
                    self.chord.route_key_latency(origin, self.ring_point(cluster.lo), model);
                let rtt = lookup.hops as u64 + 1;
                let rtt_latency = path_latency + model.edge_cost(lookup.owner, origin);
                level_delay = level_delay.max(rtt);
                messages += rtt;
                // Walk the successor chain of nodes owning keys in
                // [lo, hi]. A node with ring id `i` owns the keys in
                // `(pred, i]`, so the segment ends at the first node whose
                // id reaches `ring_point(hi)` — possibly wrapping past 0.
                let mut node = lookup.owner;
                let mut walked = 0u64;
                let mut walk_latency = 0u64;
                let mut prev_id: Option<u64> = None;
                loop {
                    for (zkey, point, handle) in &self.records[node] {
                        let inside = *zkey >= cluster.lo
                            && *zkey <= cluster.hi
                            && point
                                .iter()
                                .zip(query.iter())
                                .all(|(&v, &(lo, hi))| v >= lo && v <= hi);
                        if inside {
                            results.push(*handle);
                        }
                    }
                    let nid = self.chord.id_of(node);
                    if nid >= self.ring_point(cluster.hi) {
                        break; // this node's bucket covers through the top
                    }
                    if prev_id.is_some_and(|p| nid < p) {
                        break; // wrapped: this node owns the ring tail
                    }
                    prev_id = Some(nid);
                    let succ = self.chord.successor_of(nid.wrapping_add(1));
                    if succ == node {
                        break; // single-node ring
                    }
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

        results.sort_unstable();
        results.dedup();
        Ok(SquidOutcome { results, delay, latency, messages, clusters: clusters.len() })
    }

    /// Ground truth for tests: a direct scan over all stored records.
    pub fn expected_results(&self, query: &[(f64, f64)]) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .records
            .iter()
            .flatten()
            .filter(|(_, point, _)| {
                point.iter().zip(query.iter()).all(|(&v, &(lo, hi))| v >= lo && v <= hi)
            })
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
        for _ in 0..40 {
            let q: Vec<(f64, f64)> = (0..2)
                .map(|_| {
                    let lo = rng.gen_range(0.0..80.0);
                    (lo, lo + rng.gen_range(0.5..20.0))
                })
                .collect();
            let origin = net.random_node(&mut rng);
            let out = net.range_query(origin, &q).unwrap();
            assert_eq!(out.results, net.expected_results(&q), "query {q:?}");
        }
    }

    #[test]
    fn squid_delay_is_multiple_of_log_n() {
        let net = build2(256, 500, 2);
        let mut rng = simnet::rng_from_seed(20);
        let origin = net.random_node(&mut rng);
        let out = net.range_query(origin, &[(20.0, 45.0), (30.0, 70.0)]).unwrap();
        let log_n = (256f64).log2();
        assert!(
            out.delay as f64 > 2.0 * log_n,
            "Squid delay {} should exceed 2·logN {}",
            out.delay,
            2.0 * log_n
        );
        assert!(out.clusters > 1, "a fat rectangle spans multiple clusters");
    }

    #[test]
    fn squid_whole_space_returns_everything() {
        let net = build2(50, 120, 3);
        let mut rng = simnet::rng_from_seed(30);
        let origin = net.random_node(&mut rng);
        let out = net.range_query(origin, &[(0.0, 100.0), (0.0, 100.0)]).unwrap();
        assert_eq!(out.results.len(), 120);
    }

    #[test]
    fn squid_rejects_bad_queries() {
        let net = build2(20, 0, 4);
        assert!(matches!(net.range_query(0, &[(0.0, 1.0)]), Err(SquidError::WrongArity { .. })));
        assert!(matches!(
            net.range_query(0, &[(5.0, 1.0), (0.0, 1.0)]),
            Err(SquidError::EmptyRange { .. })
        ));
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
        let out = net.range_query(0, &q).unwrap();
        assert_eq!(out.results, net.expected_results(&q));
    }
}
