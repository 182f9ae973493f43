//! Topology and routing statistics used by the `fissione_props` experiment
//! (validating the §3 claims: average degree ≈ 4, diameter < 2·log₂N,
//! average routing delay < log₂N).

use crate::FissioneNet;
use kautz::KautzStr;
use rand::rngs::SmallRng;
use simnet::{NodeId, Summary};
use std::collections::VecDeque;

/// PeerID depth distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthStats {
    /// Summary over live peer depths.
    pub summary: Summary,
    /// `histogram[d]` = live peers at depth `d`.
    pub histogram: Vec<usize>,
}

/// Degree distribution (out, in, and total).
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Summary of out-degrees.
    pub out: Summary,
    /// Summary of in-degrees.
    pub r#in: Summary,
    /// Summary of total degrees (out + in).
    pub total: Summary,
}

/// Sampled routing performance.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingSample {
    /// Summary of hop counts over the sampled routes.
    pub hops: Summary,
    /// Number of sampled routes.
    pub queries: usize,
}

impl FissioneNet {
    /// Depth distribution of live peers.
    pub fn depth_stats(&self) -> DepthStats {
        let depths: Vec<f64> =
            self.live_peers().map(|n| self.peer(n).expect("live").depth() as f64).collect();
        DepthStats {
            summary: Summary::from_samples(depths),
            histogram: self.depth_histogram().to_vec(),
        }
    }

    /// Degree distribution of live peers.
    pub fn degree_stats(&self) -> DegreeStats {
        let mut outs = Vec::with_capacity(self.len());
        let mut ins = Vec::with_capacity(self.len());
        let mut totals = Vec::with_capacity(self.len());
        for n in self.live_peers() {
            let o = self.out_neighbors(n).len() as f64;
            let i = self.in_neighbors(n).len() as f64;
            outs.push(o);
            ins.push(i);
            totals.push(o + i);
        }
        DegreeStats {
            out: Summary::from_samples(outs),
            r#in: Summary::from_samples(ins),
            total: Summary::from_samples(totals),
        }
    }

    /// BFS eccentricity of one peer over out-edges (max hops to reach any
    /// live peer).
    ///
    /// # Panics
    ///
    /// Panics if `node` is dead or some peer is unreachable (the cover
    /// guarantees strong connectivity).
    pub fn eccentricity(&self, node: NodeId) -> usize {
        let mut dist: Vec<Option<usize>> = vec![None; self.slot_count()];
        let mut q = VecDeque::new();
        dist[node] = Some(0);
        q.push_back(node);
        let mut seen = 1usize;
        let mut ecc = 0;
        while let Some(u) = q.pop_front() {
            let du = dist[u].expect("queued nodes have distances");
            ecc = ecc.max(du);
            for v in self.out_neighbors(u) {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    seen += 1;
                    q.push_back(v);
                }
            }
        }
        assert_eq!(seen, self.len(), "overlay must be strongly connected");
        ecc
    }

    /// Exact graph diameter (max eccentricity over all live peers);
    /// `O(N·(N+E))`, intended for `N ≲ 10⁴`.
    pub fn diameter(&self) -> usize {
        self.live_peers().map(|n| self.eccentricity(n)).max().unwrap_or(0)
    }

    /// Estimated diameter from a random sample of source peers.
    pub fn diameter_sampled(&self, sources: usize, rng: &mut SmallRng) -> usize {
        (0..sources).map(|_| self.eccentricity(self.random_peer(rng))).max().unwrap_or(0)
    }

    /// Samples `queries` random lookups from random sources and summarises
    /// the hop counts (the §3 "average routing delay").
    pub fn routing_sample(&self, queries: usize, rng: &mut SmallRng) -> RoutingSample {
        let k = self.config().object_id_len;
        let hops: Vec<f64> = (0..queries)
            .map(|_| {
                let target = KautzStr::random(k, rng);
                let from = self.random_peer(rng);
                self.route(from, &target).expect("route succeeds").hops() as f64
            })
            .collect();
        RoutingSample { hops: Summary::from_samples(hops), queries }
    }

    /// Number of peer slots ever allocated (dead slots included); used to
    /// size per-node scratch tables.
    pub fn slot_count(&self) -> usize {
        // live_peers yields at most this many distinct NodeIds.
        self.live_peers().map(|n| n + 1).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use crate::{FissioneConfig, FissioneNet};

    fn build(n: usize, seed: u64) -> FissioneNet {
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(seed);
        FissioneNet::build(cfg, n, &mut rng).unwrap()
    }

    #[test]
    fn depth_stats_match_paper_bounds() {
        let net = build(1000, 31);
        let d = net.depth_stats();
        let log_n = (1000f64).log2();
        assert!(d.summary.mean < log_n);
        assert!(d.summary.max < 2.0 * log_n);
        assert_eq!(d.histogram.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn degree_stats_average_about_four() {
        let net = build(800, 32);
        let g = net.degree_stats();
        assert!((3.0..5.0).contains(&g.total.mean), "avg total {}", g.total.mean);
        // Out-degree ≈ in-degree ≈ 2 on average.
        assert!((1.5..3.0).contains(&g.out.mean));
        assert!((1.5..3.0).contains(&g.r#in.mean));
    }

    #[test]
    fn diameter_below_twice_log_n() {
        let net = build(400, 33);
        let dia = net.diameter();
        let bound = 2.0 * (400f64).log2();
        assert!((dia as f64) < bound, "diameter {dia} vs {bound}");
    }

    #[test]
    fn routing_sample_below_log_n() {
        let net = build(600, 34);
        let mut rng = simnet::rng_from_seed(340);
        let s = net.routing_sample(400, &mut rng);
        assert!(s.hops.mean < (600f64).log2(), "mean hops {}", s.hops.mean);
        assert_eq!(s.queries, 400);
    }
}
