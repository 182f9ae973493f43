//! The metrics registry: named counters, fixed-bucket histograms, and
//! per-peer load — merged shard-order-deterministically by the driver.
//!
//! Everything is a `BTreeMap` keyed by name (or peer id), so iteration,
//! merging, JSON rendering, and digest folding are all independent of
//! insertion order and hasher state — the same discipline the rest of the
//! workspace follows (detlint rule D1). Collection is **opt-in** per
//! driver run ([`ParallelDriver::with_metrics`](crate::ParallelDriver)); a
//! report with
//! an empty registry digests exactly as it did before the registry
//! existed, which is what keeps the committed canaries bit-for-bit.
//!
//! Per-peer load directly answers ROADMAP item 4's question — *who absorbs
//! the traffic* — via [`MetricsRegistry::load_skew`]: max/mean and the
//! Gini coefficient of the per-peer query-origin distribution.

use simnet::NodeId;
use std::collections::BTreeMap;

/// Upper bucket edges (inclusive) of every histogram: powers of two from
/// 1 to 2²⁰, plus an overflow bucket. Fixed — never derived from data —
/// so histograms merge bucket-by-bucket across shards and runs.
pub const HISTOGRAM_BOUNDS: [u64; 21] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
    262144, 524288, 1048576,
];

/// A fixed-bucket histogram over [`HISTOGRAM_BOUNDS`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// `counts[i]` = samples `≤ HISTOGRAM_BOUNDS[i]` (and above the
    /// previous bound); the final slot counts overflow samples.
    counts: [u64; HISTOGRAM_BOUNDS.len() + 1],
    /// Sum of all recorded values.
    sum: u64,
    /// Number of recorded values.
    count: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx =
            HISTOGRAM_BOUNDS.iter().position(|&b| value <= b).unwrap_or(HISTOGRAM_BOUNDS.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Adds another histogram bucket-by-bucket (both share
    /// [`HISTOGRAM_BOUNDS`], so merging commutes and associates — shard
    /// order cannot change the result).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The bucket counts (last slot = overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    fn to_json(&self) -> String {
        let buckets: Vec<String> = self.counts.iter().map(u64::to_string).collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            buckets.join(",")
        )
    }
}

/// Per-peer load skew statistics — ROADMAP item 4's max/mean and Gini.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSkew {
    /// Heaviest single peer's load.
    pub max: u64,
    /// Mean load over peers that appear in the map.
    pub mean: f64,
    /// Gini coefficient of the load distribution (0 = perfectly even,
    /// → 1 = one peer absorbs everything).
    pub gini: f64,
}

/// Named counters, fixed-bucket histograms, and per-peer load counts.
///
/// All maps are ordered, so two registries built from the same samples in
/// any grouping merge to identical contents — the property the sharded
/// drivers rely on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    peer_load: BTreeMap<NodeId, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// True when nothing has been recorded — the state in which digest
    /// folding contributes zero bytes.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.peer_load.is_empty()
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Records a sample into the named histogram (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_string()).or_default().record(value);
    }

    /// Adds `by` to a peer's load count.
    pub fn load(&mut self, peer: NodeId, by: u64) {
        *self.peer_load.entry(peer).or_insert(0) += by;
    }

    /// The named counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All per-peer loads in peer order.
    pub fn peer_loads(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.peer_load.iter().map(|(&p, &v)| (p, v))
    }

    /// Folds `other` into `self`. Merging is commutative and associative,
    /// so any shard grouping produces the same registry.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (&p, v) in &other.peer_load {
            *self.peer_load.entry(p).or_insert(0) += v;
        }
    }

    /// Max/mean/Gini over the per-peer load map; `None` when no load was
    /// recorded. Peers with zero recorded load don't appear in the map and
    /// are not part of the statistic (the drivers record every query's
    /// origin, so absence means the peer genuinely absorbed nothing —
    /// callers wanting population-wide Gini can pre-seed zeros).
    pub fn load_skew(&self) -> Option<LoadSkew> {
        if self.peer_load.is_empty() {
            return None;
        }
        let loads: Vec<u64> = self.peer_load.values().copied().collect();
        let n = loads.len() as f64;
        let total: u64 = loads.iter().sum();
        let max = loads.iter().copied().max().unwrap_or(0);
        let mean = total as f64 / n;
        // Gini via the sorted-rank formula: G = (2·Σ i·xᵢ)/(n·Σ xᵢ) − (n+1)/n
        // with xᵢ ascending, i 1-based.
        let gini = if total == 0 {
            0.0
        } else {
            let mut sorted = loads;
            sorted.sort_unstable();
            let weighted: f64 =
                sorted.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * x as f64).sum();
            (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
        };
        Some(LoadSkew { max, mean, gini })
    }

    /// Deterministic JSON rendering (hand-rolled, like every artifact in
    /// the workspace): counters, histograms, per-peer load, and the load
    /// skew summary, all in key order.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> =
            self.counters.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        let hists: Vec<String> =
            self.histograms.iter().map(|(k, h)| format!("\"{k}\":{}", h.to_json())).collect();
        let loads: Vec<String> =
            self.peer_load.iter().map(|(p, v)| format!("\"{p}\":{v}")).collect();
        let skew = match self.load_skew() {
            Some(s) => format!(
                "{{\"max\":{},\"mean\":{},\"gini\":{}}}",
                s.max,
                fmt_f64(s.mean),
                fmt_f64(s.gini)
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\"counters\":{{{}}},\"histograms\":{{{}}},\"peer_load\":{{{}}},\"load_skew\":{skew}}}",
            counters.join(","),
            hists.join(","),
            loads.join(",")
        )
    }

    /// A flat, deterministic byte rendering for digest folding: every
    /// counter, bucket, and load cell in key order. Empty registry ⇒ empty
    /// bytes, so pre-metrics digests are unchanged.
    pub fn digest_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, v) in &self.counters {
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        for (k, h) in &self.histograms {
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(&h.sum.to_le_bytes());
            out.extend_from_slice(&h.count.to_le_bytes());
            for c in &h.counts {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        for (&p, v) in &self.peer_load {
            out.extend_from_slice(&(p as u64).to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }
}

fn fmt_f64(v: f64) -> String {
    // Shortest round-trip float formatting, matching the baseline artifact.
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 1_048_577] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1_048_583);
        assert_eq!(h.buckets()[0], 2, "0 and 1 land in the ≤1 bucket");
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 1, "3 lands in ≤4");
        assert_eq!(h.buckets()[HISTOGRAM_BOUNDS.len()], 1, "overflow bucket");
    }

    #[test]
    fn merge_is_grouping_invariant() {
        let samples: Vec<u64> = (0..100).map(|i| (i * 37) % 512).collect();
        let mut whole = MetricsRegistry::new();
        for &s in &samples {
            whole.observe("x", s);
            whole.inc("n", 1);
            whole.load((s % 7) as usize, 1);
        }
        // Split into odd-sized shards, merge in a different order.
        let mut parts: Vec<MetricsRegistry> = Vec::new();
        for chunk in samples.chunks(13) {
            let mut m = MetricsRegistry::new();
            for &s in chunk {
                m.observe("x", s);
                m.inc("n", 1);
                m.load((s % 7) as usize, 1);
            }
            parts.push(m);
        }
        parts.reverse();
        let mut merged = MetricsRegistry::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(whole, merged);
        assert_eq!(whole.digest_bytes(), merged.digest_bytes());
        assert_eq!(whole.to_json(), merged.to_json());
    }

    #[test]
    fn empty_registry_digests_to_nothing() {
        let m = MetricsRegistry::new();
        assert!(m.is_empty());
        assert!(m.digest_bytes().is_empty());
        assert_eq!(m.load_skew(), None);
    }

    #[test]
    fn load_skew_matches_hand_computation() {
        let mut m = MetricsRegistry::new();
        for (peer, n) in [(0usize, 1u64), (1, 1), (2, 6)] {
            m.load(peer, n);
        }
        let s = m.load_skew().expect("non-empty");
        assert_eq!(s.max, 6);
        assert!((s.mean - 8.0 / 3.0).abs() < 1e-12);
        // Sorted loads [1,1,6]: G = 2(1·1+2·1+3·6)/(3·8) − 4/3 = 42/24 − 4/3.
        assert!((s.gini - (42.0 / 24.0 - 4.0 / 3.0)).abs() < 1e-12, "gini = {}", s.gini);
    }

    #[test]
    fn even_load_has_zero_gini() {
        let mut m = MetricsRegistry::new();
        for p in 0..8 {
            m.load(p, 5);
        }
        let s = m.load_skew().expect("non-empty");
        assert!(s.gini.abs() < 1e-12);
        assert_eq!(s.max, 5);
    }
}
