//! What a driver run measures: [`DriverReport`] (the summary statistics
//! of a batch), [`EpochSummary`] (one epoch of an epoch-driven run), and
//! the per-shard sample accumulator they are built from.
//!
//! The driver itself is [`ParallelDriver`](crate::ParallelDriver): it owns
//! the per-query loop, so a new scheme or workload never re-implements
//! measurement glue; this module owns the aggregation.

use simnet::{Samples, Summary};

/// Aggregated measurements over one driver run.
#[derive(Debug, Clone, Default)]
pub struct DriverReport {
    /// Registry name of the measured scheme.
    pub scheme: String,
    /// Queries executed.
    pub queries: usize,
    /// Delay (hops) per query.
    pub delay: Summary,
    /// Latency (virtual ms under the scheme's
    /// [`NetModel`](crate::NetModel)) per query.
    pub latency: Summary,
    /// Messages per query.
    pub messages: Summary,
    /// Ground-truth destination count per query.
    pub dest_peers: Summary,
    /// `MesgRatio` per query.
    pub mesg_ratio: Summary,
    /// `IncreRatio` per query.
    pub incre_ratio: Summary,
    /// `peer_recall` per query (1.0 throughout for fault-free runs).
    pub recall: Summary,
    /// Fraction of queries answered exactly (1.0 for fault-free runs of
    /// exact schemes).
    pub exact_rate: f64,
    /// Total results returned across the workload.
    pub results_returned: u64,
    /// Per-epoch series when the run was epoch-driven
    /// ([`ParallelDriver::run_epochs`](crate::ParallelDriver::run_epochs));
    /// empty for plain batch runs.
    pub epochs: Vec<EpochSummary>,
    /// The metrics registry collected alongside the run — counters,
    /// fixed-bucket histograms, and per-peer query load, merged
    /// shard-order-deterministically. Empty unless the driver ran with
    /// metrics enabled
    /// ([`ParallelDriver::with_metrics`](crate::ParallelDriver::with_metrics)),
    /// and an empty registry contributes nothing to
    /// [`DigestReport`](crate::DigestReport) — so pre-metrics digests are
    /// unchanged.
    pub metrics: crate::MetricsRegistry,
}

/// One epoch of an epoch-driven run: the churn applied just before it and
/// the measurement series of its queries.
#[derive(Debug, Clone, Default)]
pub struct EpochSummary {
    /// Epoch index (0-based; epoch 0 queries the as-built network).
    pub epoch: usize,
    /// Live peers while this epoch's queries ran.
    pub peers: usize,
    /// Membership events applied between the previous epoch and this one
    /// (all zeros for epoch 0).
    pub churn: crate::ChurnStats,
    /// Replica repair performed after those membership events — the
    /// re-replication traffic of a [`Replicated`](crate::Replicated)
    /// scheme (all zeros for epoch 0 and for unreplicated schemes).
    pub repair: crate::ReplicaRepair,
    /// Mean query delay (hops) within the epoch.
    pub delay_mean: f64,
    /// Mean query latency (virtual ms) within the epoch.
    pub latency_mean: f64,
    /// Fraction of the epoch's queries answered exactly.
    pub exact_rate: f64,
    /// Mean `peer_recall` within the epoch.
    pub recall_mean: f64,
    /// Results returned by the epoch's queries.
    pub results_returned: u64,
}

/// Sample accumulator shared by the single- and multi-attribute loops of
/// [`ParallelDriver`](crate::ParallelDriver), shard by shard: its worker
/// threads each fill one `Accumulator` and [`merge`](Self::merge) them
/// back in shard order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Accumulator {
    delay: Samples,
    latency: Samples,
    messages: Samples,
    dest_peers: Samples,
    mesg_ratio: Samples,
    incre_ratio: Samples,
    recall: Samples,
    exact: usize,
    results: u64,
    /// `Some` when the run collects metrics; per-query counters,
    /// histograms, and origin load land here and merge shard by shard.
    metrics: Option<crate::MetricsRegistry>,
}

impl Accumulator {
    /// An accumulator that also fills a metrics registry.
    pub(crate) fn with_metrics() -> Accumulator {
        Accumulator { metrics: Some(crate::MetricsRegistry::new()), ..Default::default() }
    }

    pub(crate) fn push(
        &mut self,
        out: &crate::RangeOutcome,
        n_peers: usize,
        origin: simnet::NodeId,
    ) {
        self.delay.push(out.delay as f64);
        self.latency.push(out.latency as f64);
        self.messages.push(out.messages as f64);
        self.dest_peers.push(out.dest_peers as f64);
        self.mesg_ratio.push(out.mesg_ratio());
        self.incre_ratio.push(out.incre_ratio(n_peers));
        self.recall.push(out.peer_recall());
        if out.exact {
            self.exact += 1;
        }
        self.results += out.results.len() as u64;
        if let Some(m) = self.metrics.as_mut() {
            m.inc("queries", 1);
            m.inc("messages", out.messages);
            m.inc("results", out.results.len() as u64);
            m.inc("exact", u64::from(out.exact));
            m.inc("reached_peers", out.reached_peers as u64);
            m.inc("dest_peers", out.dest_peers as u64);
            m.observe("delay_hops", out.delay);
            m.observe("latency_ms", out.latency);
            m.observe("messages", out.messages);
            m.load(origin, 1);
        }
    }

    /// Appends another shard's samples. Since [`Samples::summarize`] sorts
    /// (and metrics merging commutes), the final report does not depend on
    /// how queries were sharded.
    pub(crate) fn merge(&mut self, other: Accumulator) {
        self.delay.merge(other.delay);
        self.latency.merge(other.latency);
        self.messages.merge(other.messages);
        self.dest_peers.merge(other.dest_peers);
        self.mesg_ratio.merge(other.mesg_ratio);
        self.incre_ratio.merge(other.incre_ratio);
        self.recall.merge(other.recall);
        self.exact += other.exact;
        self.results += other.results;
        if let Some(theirs) = other.metrics {
            match self.metrics.as_mut() {
                Some(mine) => mine.merge(&theirs),
                None => self.metrics = Some(theirs),
            }
        }
    }

    /// Direct access to the metrics registry (for driver-level counters
    /// like retry and repair traffic that are not per-outcome).
    pub(crate) fn metrics_mut(&mut self) -> Option<&mut crate::MetricsRegistry> {
        self.metrics.as_mut()
    }

    pub(crate) fn report(self, scheme: &str, queries: usize) -> DriverReport {
        DriverReport {
            scheme: scheme.to_string(),
            queries,
            delay: self.delay.summarize(),
            latency: self.latency.summarize(),
            messages: self.messages.summarize(),
            dest_peers: self.dest_peers.summarize(),
            mesg_ratio: self.mesg_ratio.summarize(),
            incre_ratio: self.incre_ratio.summarize(),
            recall: self.recall.summarize(),
            exact_rate: self.exact as f64 / queries.max(1) as f64,
            results_returned: self.results,
            epochs: Vec::new(),
            metrics: self.metrics.unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::scheme::{RangeOutcome, RangeScheme, SchemeError};
    use crate::{ParallelDriver, WorkloadGen};
    use rand::rngs::SmallRng;
    use rand::Rng;
    use simnet::NodeId;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Fixed-cost fake scheme: every query costs `delay = 2`, `messages =
    /// 5`, reaches 4/4 destinations and returns one result per whole unit
    /// of range width; every query also counts as one retry attempt.
    #[derive(Default)]
    struct Fixed(AtomicU64);

    impl RangeScheme for Fixed {
        fn scheme_name(&self) -> &'static str {
            "fixed"
        }

        fn substrate(&self) -> String {
            "test".into()
        }

        fn degree(&self) -> String {
            "1".into()
        }

        fn node_count(&self) -> usize {
            32
        }

        fn publish(&mut self, _value: f64, _handle: u64) -> Result<(), SchemeError> {
            Ok(())
        }

        fn random_origin(&self, rng: &mut SmallRng) -> NodeId {
            rng.gen_range(0..32)
        }

        fn range_query(
            &self,
            _origin: NodeId,
            lo: f64,
            hi: f64,
            _seed: u64,
        ) -> Result<RangeOutcome, SchemeError> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(RangeOutcome {
                results: (0..(hi - lo).round() as u64).collect(),
                delay: 2,
                latency: 2,
                messages: 5,
                dest_peers: 4,
                reached_peers: 4,
                exact: true,
            })
        }

        fn retry_attempts(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    fn serial(queries: usize, metrics: bool) -> ParallelDriver {
        ParallelDriver { queries, seed: 9, threads: 1, shard_salt: 0, metrics }
    }

    #[test]
    fn driver_aggregates_fixed_costs_exactly() {
        let workload = WorkloadGen::uniform((0.0, 100.0), 3.0);
        let report = serial(50, false).run(&Fixed::default(), &workload).unwrap();
        assert_eq!(report.queries, 50);
        assert_eq!(report.delay.mean, 2.0);
        assert_eq!(report.delay.max, 2.0);
        assert_eq!(report.messages.mean, 5.0);
        assert_eq!(report.dest_peers.mean, 4.0);
        assert_eq!(report.exact_rate, 1.0);
        assert_eq!(report.mesg_ratio.mean, 1.25);
        // 3 results per query (range width 3).
        assert_eq!(report.results_returned, 150);
        assert_eq!(report.scheme, "fixed");
        assert!(report.metrics.is_empty(), "metrics are opt-in");
    }

    #[test]
    fn metrics_registry_and_retry_attempts_are_accounted_per_batch() {
        let workload = WorkloadGen::uniform((0.0, 100.0), 3.0);
        let scheme = Fixed::default();
        // A warm-up batch first: the retry counter is cumulative on the
        // scheme, and a batch must report only its own delta.
        serial(7, true).run(&scheme, &workload).unwrap();
        let m = serial(50, true).run(&scheme, &workload).unwrap().metrics;
        assert_eq!(m.counter("queries"), 50);
        assert_eq!(m.counter("messages"), 250);
        assert_eq!(m.counter("results"), 150);
        assert_eq!(m.counter("exact"), 50);
        assert_eq!(m.counter("reached_peers"), 200);
        assert_eq!(m.counter("dest_peers"), 200);
        assert_eq!(m.counter("retry_attempts"), 50);
        assert_eq!(m.histogram("delay_hops").map(|h| (h.count(), h.sum())), Some((50, 100)));
        assert_eq!(m.peer_loads().map(|(_, load)| load).sum::<u64>(), 50);
    }
}
