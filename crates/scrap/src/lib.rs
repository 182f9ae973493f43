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
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheme;

pub use scheme::register;

use rand::rngs::SmallRng;
use sfc::{merge_ranges, ZSpace};
use simnet::NodeId;
use skipgraph::SkipGraphNet;

/// Bits per attribute for the z-order quantisation.
pub const DEFAULT_BITS: u32 = 10;

/// The most attributes a z-order key holds at [`DEFAULT_BITS`] bits each.
pub const MAX_ARITY: usize = (sfc::MAX_KEY_BITS / DEFAULT_BITS) as usize;

/// Errors returned by SCRAP operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ScrapError {
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

impl std::fmt::Display for ScrapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScrapError::WrongArity { expected, got } => {
                write!(f, "expected {expected} attributes, got {got}")
            }
            ScrapError::EmptyRange { attribute } => {
                write!(f, "empty range for attribute {attribute}")
            }
            ScrapError::UnsupportedArity { got, max } => {
                write!(f, "SCRAP serves 1..={max} attributes, got {got}")
            }
        }
    }
}

impl std::error::Error for ScrapError {}

/// Result of a SCRAP range query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapOutcome {
    /// Matching record handles, ascending.
    pub results: Vec<u64>,
    /// Critical-path delay: the slowest of the parallel per-range Skip
    /// Graph queries.
    pub delay: u32,
    /// The same parallel-range critical path in virtual milliseconds
    /// under the deployment's [`NetModel`](simnet::NetModel): the slowest
    /// per-range Skip Graph latency. Equals `delay` under `unit`.
    pub latency: u64,
    /// Total messages across all ranges.
    pub messages: u64,
    /// Curve ranges queried.
    pub ranges: usize,
}

/// A SCRAP deployment: Skip Graph keyed by curve position + z-order mapping.
#[derive(Debug, Clone)]
pub struct ScrapNet {
    skip: SkipGraphNet,
    zspace: ZSpace,
    domains: Vec<(f64, f64)>,
    /// Points by handle, for final rectangle filtering. BTreeMap so every
    /// walk over the stored points runs in handle order.
    points: std::collections::BTreeMap<u64, Vec<f64>>,
}

impl ScrapNet {
    /// Builds an `n`-peer SCRAP system over the given attribute domains.
    ///
    /// # Errors
    ///
    /// Returns [`ScrapError::UnsupportedArity`] unless there are
    /// `1..=`[`MAX_ARITY`] domains, and [`ScrapError::EmptyRange`] for an
    /// empty domain.
    pub fn build(n: usize, domains: &[(f64, f64)], rng: &mut SmallRng) -> Result<Self, ScrapError> {
        if !(1..=MAX_ARITY).contains(&domains.len()) {
            return Err(ScrapError::UnsupportedArity { got: domains.len(), max: MAX_ARITY });
        }
        for (i, &(lo, hi)) in domains.iter().enumerate() {
            if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
                return Err(ScrapError::EmptyRange { attribute: i });
            }
        }
        let zspace = ZSpace::new(domains.len() as u32, DEFAULT_BITS);
        let key_max = (1u64 << zspace.key_bits()) as f64;
        let skip = SkipGraphNet::build(n, 0.0, key_max, rng);
        Ok(ScrapNet {
            skip,
            zspace,
            domains: domains.to_vec(),
            points: std::collections::BTreeMap::new(),
        })
    }

    /// Replaces the network cost model (forwarded to the underlying Skip
    /// Graph, whose searches and walks do all the routing). Hop and
    /// message metrics are model-invariant; only
    /// [`ScrapOutcome::latency`] moves.
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
        self.domains.len()
    }

    /// A uniformly random peer.
    pub fn random_node(&self, rng: &mut SmallRng) -> NodeId {
        self.skip.random_node(rng)
    }

    fn zkey(&self, values: &[f64]) -> Result<u64, ScrapError> {
        if values.len() != self.domains.len() {
            return Err(ScrapError::WrongArity { expected: self.domains.len(), got: values.len() });
        }
        let coords: Vec<u32> = values
            .iter()
            .zip(self.domains.iter())
            .map(|(&v, &(lo, hi))| self.zspace.quantize((v - lo) / (hi - lo)))
            .collect();
        Ok(self.zspace.interleave(&coords))
    }

    /// Publishes a record at the peer owning its curve position.
    ///
    /// # Errors
    ///
    /// Returns [`ScrapError::WrongArity`] on arity mismatch.
    pub fn publish(&mut self, values: &[f64], handle: u64) -> Result<NodeId, ScrapError> {
        let key = self.zkey(values)? as f64;
        self.points.insert(handle, values.to_vec());
        Ok(self.skip.publish(key, handle))
    }

    /// Executes a rectangle query: decomposes into curve ranges, queries
    /// each on the Skip Graph in parallel, filters by the true rectangle.
    ///
    /// # Errors
    ///
    /// Returns an error on arity mismatch or an empty per-attribute range.
    pub fn range_query(
        &self,
        origin: NodeId,
        query: &[(f64, f64)],
    ) -> Result<ScrapOutcome, ScrapError> {
        if query.len() != self.domains.len() {
            return Err(ScrapError::WrongArity { expected: self.domains.len(), got: query.len() });
        }
        let mut qranges = Vec::with_capacity(query.len());
        for (i, (&(lo, hi), &(dlo, dhi))) in query.iter().zip(self.domains.iter()).enumerate() {
            if lo > hi {
                return Err(ScrapError::EmptyRange { attribute: i });
            }
            let a = self.zspace.quantize((lo - dlo) / (dhi - dlo));
            let b = self.zspace.quantize((hi - dlo) / (dhi - dlo));
            qranges.push((a, b));
        }
        let ranges = merge_ranges(self.zspace.decompose(&qranges));

        let mut results = Vec::new();
        let mut delay = 0u32;
        let mut latency = 0u64;
        let mut messages = 0u64;
        for r in &ranges {
            let out = self.skip.range_query(origin, r.lo as f64, r.hi as f64);
            delay = delay.max(out.delay); // parallel ranges
            latency = latency.max(out.latency);
            messages += out.messages;
            for h in out.results {
                let point = &self.points[&h];
                let inside =
                    point.iter().zip(query.iter()).all(|(&v, &(lo, hi))| v >= lo && v <= hi);
                if inside {
                    results.push(h);
                }
            }
        }
        results.sort_unstable();
        results.dedup();
        Ok(ScrapOutcome { results, delay, latency, messages, ranges: ranges.len() })
    }

    /// Ground truth for tests: a direct scan over all published points.
    pub fn expected_results(&self, query: &[(f64, f64)]) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .points
            .iter()
            .filter(|(_, point)| {
                point.iter().zip(query.iter()).all(|(&v, &(lo, hi))| v >= lo && v <= hi)
            })
            .map(|(&h, _)| h)
            .collect();
        out.sort_unstable();
        out
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
        let out = net.range_query(0, &[(0.0, 100.0), (0.0, 100.0)]).unwrap();
        assert_eq!(out.results.len(), 100);
        assert_eq!(out.ranges, 1, "the whole space is one curve range");
    }

    #[test]
    fn scrap_rejects_bad_queries() {
        let net = build2(20, 0, 4);
        assert!(matches!(net.range_query(0, &[(0.0, 1.0)]), Err(ScrapError::WrongArity { .. })));
    }
}
