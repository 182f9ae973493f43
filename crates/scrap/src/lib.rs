//! SCRAP (Ganesan, Yang & Garcia-Molina, WebDB 2004): multi-attribute range
//! queries by z-order mapping over a Skip Graph — the `O(logN + n)`
//! multi-attribute row of the Armada paper's Table 1.
//!
//! SCRAP composes two ideas this workspace already has: points are mapped to
//! one dimension with a space-filling curve ([`sfc`]), and the resulting
//! keys are range-partitioned over a [`skipgraph`]. A rectangle query
//! decomposes into contiguous curve ranges, each answered by a Skip Graph
//! range query (search `O(logN)` + walk `O(n)`), issued in parallel from the
//! client.
//!
//! The curve — domains, keys, clusters and their errors — is
//! [`sfc::ZMap`]'s; this crate is the back end that walks each curve range
//! on the Skip Graph. A query answers with the workspace's
//! [`RangeOutcome`], whose destinations are the curve ranges queried.
//!
//! # Example
//!
//! ```
//! use scrap::ScrapNet;
//!
//! let mut rng = simnet::rng_from_seed(10);
//! let mut net = ScrapNet::build(64, &[(0.0, 10.0), (0.0, 10.0)], &mut rng)?;
//! net.publish(&[5.0, 5.0], 1)?;
//! net.publish(&[9.0, 1.0], 2)?;
//! let origin = net.random_node(&mut rng);
//! let out = net.range_query(origin, &[(4.0, 6.0), (4.0, 6.0)])?;
//! assert_eq!(out.results, vec![1]);
//! assert!(out.exact && out.dest_peers >= 1); // one destination per range
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheme;

pub use scheme::register;

use dht_api::{OutcomeCosts, RangeOutcome};
use rand::rngs::SmallRng;
use sfc::{ZError, ZMap};
use simnet::NodeId;
use skipgraph::SkipGraphNet;

/// A SCRAP deployment: Skip Graph keyed by curve position + z-order mapping.
#[derive(Debug, Clone)]
pub struct ScrapNet {
    skip: SkipGraphNet,
    zmap: ZMap,
    /// Points by handle, for final rectangle filtering. BTreeMap so every
    /// walk over the stored points runs in handle order.
    points: std::collections::BTreeMap<u64, Vec<f64>>,
}

impl ScrapNet {
    /// Builds an `n`-peer SCRAP system over the given attribute domains.
    ///
    /// # Errors
    ///
    /// As [`ZMap::new`]: [`ZError::UnsupportedArity`] unless there are
    /// `1..=`[`sfc::MAX_ARITY`] domains, [`ZError::EmptyRange`] for an
    /// empty domain.
    pub fn build(n: usize, domains: &[(f64, f64)], rng: &mut SmallRng) -> Result<Self, ZError> {
        let zmap = ZMap::new(domains)?;
        let key_max = (1u64 << zmap.space().key_bits()) as f64;
        let skip = SkipGraphNet::build(n, 0.0, key_max, rng);
        Ok(ScrapNet { skip, zmap, points: std::collections::BTreeMap::new() })
    }

    /// Replaces the network cost model (forwarded to the underlying Skip
    /// Graph, whose searches and walks do all the routing). Hop and
    /// message metrics are model-invariant; only
    /// [`RangeOutcome::latency`] moves.
    pub fn set_net_model(&mut self, model: simnet::NetModel) {
        self.skip.set_net_model(model);
    }

    /// The network cost model in force.
    pub fn net_model(&self) -> &simnet::NetModel {
        self.skip.net_model()
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.skip.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of attributes the system was built with.
    pub fn dims(&self) -> usize {
        self.zmap.dims()
    }

    /// A uniformly random peer.
    pub fn random_node(&self, rng: &mut SmallRng) -> NodeId {
        self.skip.random_node(rng)
    }

    /// Publishes a record at the peer owning its curve position.
    ///
    /// # Errors
    ///
    /// [`ZError::WrongArity`] on arity mismatch.
    pub fn publish(&mut self, values: &[f64], handle: u64) -> Result<NodeId, ZError> {
        let key = self.zmap.key(values)? as f64;
        self.points.insert(handle, values.to_vec());
        Ok(self.skip.publish(key, handle))
    }

    /// Executes a rectangle query: decomposes into curve ranges, queries
    /// each on the Skip Graph in parallel, filters by the true rectangle.
    /// The outcome's `delay` and `latency` are the slowest range's (the
    /// ranges run in parallel; `latency == delay` under `unit`), its
    /// messages the sum over ranges. Every range is queried, so the query
    /// is exact and its destinations are the ranges.
    ///
    /// # Errors
    ///
    /// As [`ZMap::clusters`]: arity mismatch or an empty per-attribute
    /// range.
    pub fn range_query(
        &self,
        origin: NodeId,
        query: &[(f64, f64)],
    ) -> Result<RangeOutcome, ZError> {
        let ranges = self.zmap.clusters(query)?;
        let mut results = Vec::new();
        let mut costs = OutcomeCosts::default();
        for r in &ranges {
            let out = self.skip.range_query(origin, r.lo as f64, r.hi as f64);
            costs.hops = costs.hops.max(u64::from(out.delay)); // parallel ranges
            costs.latency = costs.latency.max(out.latency);
            costs.messages += out.messages;
            results
                .extend(out.results.into_iter().filter(|h| sfc::contains(query, &self.points[h])));
        }
        Ok(RangeOutcome::from_native(results, costs, ranges.len(), ranges.len(), true))
    }

    /// Ground truth for tests: a direct scan over all published points.
    pub fn expected_results(&self, query: &[(f64, f64)]) -> Vec<u64> {
        self.points
            .iter()
            .filter(|(_, point)| sfc::contains(query, point))
            .map(|(&h, _)| h)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn build2(n: usize, records: usize, seed: u64) -> ScrapNet {
        let mut rng = simnet::rng_from_seed(seed);
        let mut net = ScrapNet::build(n, &[(0.0, 100.0), (0.0, 100.0)], &mut rng).unwrap();
        for h in 0..records as u64 {
            let p = [rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)];
            net.publish(&p, h).unwrap();
        }
        net
    }

    #[test]
    fn scrap_is_exact_on_random_queries() {
        let net = build2(90, 300, 1);
        net.skip.check_invariants().unwrap();
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
    fn scrap_delay_grows_with_selectivity() {
        let net = build2(600, 1200, 2);
        let mut rng = simnet::rng_from_seed(20);
        let origin = net.random_node(&mut rng);
        let small = net.range_query(origin, &[(50.0, 52.0), (50.0, 52.0)]).unwrap();
        let large = net.range_query(origin, &[(5.0, 95.0), (5.0, 95.0)]).unwrap();
        assert!(large.delay > small.delay, "O(logN + n) must grow");
        assert!(large.messages > 10 * small.messages.max(1) / 2);
    }

    #[test]
    fn scrap_whole_space_returns_everything() {
        let net = build2(40, 100, 3);
        net.skip.check_invariants().unwrap();
        let out = net.range_query(0, &[(0.0, 100.0), (0.0, 100.0)]).unwrap();
        assert_eq!(out.results.len(), 100);
        assert_eq!(out.dest_peers, 1, "the whole space is one curve range");
    }

    #[test]
    fn scrap_rejects_bad_queries() {
        let net = build2(20, 0, 4);
        assert!(matches!(net.range_query(0, &[(0.0, 1.0)]), Err(ZError::WrongArity { .. })));
    }
}
