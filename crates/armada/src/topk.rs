//! Top-k queries over Armada — the paper's §6 future work ("we plan to
//! extend Armada to support other complex queries, such as top-k query"),
//! implemented here.
//!
//! The algorithm exploits the order-preserving naming: the `k` largest
//! attribute values live in the right-most leaves of the namespace, so a
//! top-k query is a sequence of delay-bounded PIRA probes over
//! geometrically expanding ranges anchored at the top of the value space
//! (`[H − δ, H]`, `δ` doubling until `k` records surface or the space is
//! exhausted). Each probe inherits PIRA's `< 2·log₂N` bound, and the probe
//! count is `O(log(H − L) / δ₀)`, so the total stays polylogarithmic
//! whenever the data is not pathologically sparse near the top.

use crate::{ArmadaError, RecordId, SingleArmada};
use simnet::NodeId;

/// Result of a top-k query.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKOutcome {
    /// Up to `k` records, sorted by attribute value descending (ties by
    /// record id ascending).
    pub results: Vec<RecordId>,
    /// Cumulative delay across the sequential probes (hops).
    pub delay: u32,
    /// Total messages across all probes.
    pub messages: u64,
    /// Number of PIRA probes issued.
    pub probes: usize,
}

impl SingleArmada {
    /// Returns the `k` records with the largest attribute values, querying
    /// from `origin`.
    ///
    /// # Errors
    ///
    /// Returns [`ArmadaError::BadOrigin`] for dead origins.
    pub fn top_k(&self, origin: NodeId, k: usize, seed: u64) -> Result<TopKOutcome, ArmadaError> {
        self.top_k_below(origin, self.naming().space().hi(), k, seed)
    }

    /// Returns the `k` records with the largest attribute values that are
    /// `≤ bound` (e.g. "the 10 best scores no better than 80").
    ///
    /// # Errors
    ///
    /// Returns [`ArmadaError::BadOrigin`] for dead origins.
    pub fn top_k_below(
        &self,
        origin: NodeId,
        bound: f64,
        k: usize,
        seed: u64,
    ) -> Result<TopKOutcome, ArmadaError> {
        if !self.net().is_live(origin) {
            return Err(ArmadaError::BadOrigin { origin });
        }
        let space = self.naming().space();
        let top = bound.clamp(space.lo(), space.hi());
        let full = top - space.lo();
        let mut outcome = TopKOutcome { results: Vec::new(), delay: 0, messages: 0, probes: 0 };
        if k == 0 || full < 0.0 {
            return Ok(outcome);
        }

        // Geometric expansion: start at 1/1024 of the space below `bound`.
        let mut delta = (full / 1024.0).max(f64::MIN_POSITIVE);
        // One scratch shared by all probes of this expansion.
        let mut scratch = simnet::QueryScratch::new();
        loop {
            let lo = (top - delta).max(space.lo());
            let probe_seed = seed.wrapping_add(outcome.probes as u64);
            let probe = self.pira_query_scratch(origin, lo, top, probe_seed, &mut scratch)?;
            outcome.probes += 1;
            outcome.delay += probe.metrics.delay;
            outcome.messages += probe.metrics.messages;
            if probe.results.len() >= k || lo <= space.lo() {
                let mut ranked: Vec<(f64, RecordId)> =
                    probe.results.into_iter().map(|r| (self.value(r), r)).collect();
                ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                outcome.results = ranked.into_iter().take(k).map(|(_, r)| r).collect();
                return Ok(outcome);
            }
            delta *= 2.0;
        }
    }

    /// Ground truth for [`SingleArmada::top_k_below`].
    pub fn expected_top_k(&self, bound: f64, k: usize) -> Vec<RecordId> {
        let mut ranked: Vec<(f64, RecordId)> = (0..self.record_count() as u64)
            .map(RecordId)
            .map(|r| (self.value(r), r))
            .filter(|&(v, _)| v <= bound)
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.into_iter().take(k).map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::SingleArmada;
    use fissione::FissioneConfig;
    use rand::Rng;

    fn build(n: usize, records: usize, seed: u64) -> SingleArmada {
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(seed);
        let mut a = SingleArmada::build_with(cfg, n, 0.0, 1000.0, &mut rng).unwrap();
        for _ in 0..records {
            let v: f64 = rng.gen_range(0.0..=1000.0);
            a.publish(v);
        }
        a
    }

    #[test]
    fn top_k_matches_ground_truth() {
        let a = build(200, 500, 111);
        let mut rng = simnet::rng_from_seed(1110);
        for k in [1usize, 5, 20, 100] {
            let origin = a.net().random_peer(&mut rng);
            let out = a.top_k(origin, k, k as u64).unwrap();
            assert_eq!(out.results, a.expected_top_k(1000.0, k), "k = {k}");
        }
    }

    #[test]
    fn top_k_below_bound() {
        let a = build(150, 400, 112);
        let mut rng = simnet::rng_from_seed(1120);
        let origin = a.net().random_peer(&mut rng);
        let out = a.top_k_below(origin, 500.0, 10, 3).unwrap();
        assert_eq!(out.results, a.expected_top_k(500.0, 10));
        for &r in &out.results {
            assert!(a.value(r) <= 500.0);
        }
    }

    #[test]
    fn top_k_larger_than_dataset_returns_everything() {
        let a = build(60, 25, 113);
        let mut rng = simnet::rng_from_seed(1130);
        let origin = a.net().random_peer(&mut rng);
        let out = a.top_k(origin, 100, 1).unwrap();
        assert_eq!(out.results.len(), 25);
        assert_eq!(out.results, a.expected_top_k(1000.0, 100));
    }

    #[test]
    fn top_k_zero_is_empty_and_free() {
        let a = build(40, 50, 114);
        let origin = a.net().live_peers().next().unwrap();
        let out = a.top_k(origin, 0, 1).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.probes, 0);
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn top_k_probe_count_is_logarithmic() {
        let a = build(300, 2000, 115);
        let mut rng = simnet::rng_from_seed(1150);
        let origin = a.net().random_peer(&mut rng);
        let out = a.top_k(origin, 10, 9).unwrap();
        // Doubling from 1/1024 of the space: at most 11 probes ever; with
        // 2000 uniform records, k = 10 needs δ ≈ 5 units ⇒ ~4 probes.
        assert!(out.probes <= 5, "{} probes", out.probes);
        // Delay stays within probes × 2logN.
        let bound = out.probes as f64 * 2.0 * (300f64).log2();
        assert!(f64::from(out.delay) <= bound);
    }

    #[test]
    fn top_k_on_empty_dataset() {
        let a = build(40, 0, 116);
        let origin = a.net().live_peers().next().unwrap();
        let out = a.top_k(origin, 5, 1).unwrap();
        assert!(out.results.is_empty());
        assert!(out.probes >= 1, "must probe to discover emptiness");
    }

    #[test]
    fn top_k_results_are_sorted_descending() {
        let a = build(100, 300, 117);
        let mut rng = simnet::rng_from_seed(1170);
        let origin = a.net().random_peer(&mut rng);
        let out = a.top_k(origin, 25, 2).unwrap();
        let values: Vec<f64> = out.results.iter().map(|&r| a.value(r)).collect();
        for w in values.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }
}
