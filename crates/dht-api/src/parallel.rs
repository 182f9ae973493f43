//! A sharded workload driver: fan a batch of queries across OS threads
//! against one shared scheme instance, with a determinism guarantee.
//!
//! A driver that threads one RNG through its query loop makes results
//! depend on execution order. [`ParallelDriver`] has no such dependence:
//! every query `q` is fully determined by `(workload, seed, q)` — the
//! range comes from
//! [`WorkloadGen::range`](crate::WorkloadGen::range) and the origin from an
//! RNG derived from `(seed, q)` — so the work can be cut into contiguous
//! index shards, one per thread, and merged back in shard order. The merged
//! [`DriverReport`] is **bitwise identical** for any thread count,
//! `threads = 1` included (enforced by `tests/parallel_determinism.rs` at
//! the workspace root).
//!
//! Scheme instances are shared by reference across the scoped threads —
//! queries take `&self`, and `Send + Sync` are supertraits of
//! [`RangeScheme`] — so no per-thread rebuilds are paid.

use crate::churn::{ChurnPlan, ChurnStats};
use crate::driver::{Accumulator, EpochSummary};
use crate::scheme::{
    MultiRangeScheme, QueryCtx, RangeOutcome, RangeRequest, RangeScheme, RectRequest, SchemeError,
};
use crate::workload::WorkloadGen;
use crate::{DriverReport, QueryTrace};
use simnet::{NodeId, QueryScratch};

/// What a shard — or the whole sharded batch — comes back with: its
/// accumulator plus one extra value per query, in query-index order.
type Sharded<X> = Result<(Accumulator, Vec<X>), SchemeError>;

/// Salt separating origin-selection RNG streams from workload streams.
const ORIGIN_SALT: u64 = 0x0419_0419_0419_0419;

/// The default worker thread count: one per available CPU (1 if the
/// parallelism cannot be determined). The single source of truth for
/// every driver and experiment config in the workspace.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A sharded, workload-driven query driver.
///
/// # Example
///
/// Drive any registered scheme over a named workload (here a toy registry;
/// `armada_experiments::standard_registry()` provides the real one):
///
/// ```
/// use dht_api::{ParallelDriver, WorkloadGen};
///
/// # use dht_api::{RangeOutcome, RangeScheme, SchemeError};
/// # use rand::Rng;
/// # struct Scan(Vec<(f64, u64)>);
/// # impl RangeScheme for Scan {
/// #     fn scheme_name(&self) -> &'static str { "scan" }
/// #     fn substrate(&self) -> String { "local".into() }
/// #     fn degree(&self) -> String { "0".into() }
/// #     fn node_count(&self) -> usize { 64 }
/// #     fn publish(&mut self, v: f64, h: u64) -> Result<(), SchemeError> {
/// #         self.0.push((v, h));
/// #         Ok(())
/// #     }
/// #     fn random_origin(&self, rng: &mut rand::rngs::SmallRng) -> usize {
/// #         rng.gen_range(0..64)
/// #     }
/// #     fn range_query(&self, _o: usize, lo: f64, hi: f64, _s: u64)
/// #         -> Result<RangeOutcome, SchemeError> {
/// #         let mut results: Vec<u64> = self.0.iter()
/// #             .filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h).collect();
/// #         results.sort_unstable();
/// #         Ok(RangeOutcome { results, delay: 1, latency: 1, messages: 1, dest_peers: 1,
/// #             reached_peers: 1, exact: true })
/// #     }
/// # }
/// # let mut scheme = Scan(Vec::new());
/// # for h in 0..100 { scheme.publish(h as f64 * 10.0, h).unwrap(); }
/// let workload = WorkloadGen::named("mixed", (0.0, 1000.0)).unwrap();
/// let driver = ParallelDriver::new(200).with_seed(7).with_threads(4);
/// let report = driver.run(&scheme, &workload).unwrap();
/// assert_eq!(report.queries, 200);
/// // Same seed, any thread count: identical report.
/// let serial = driver.with_threads(1).run(&scheme, &workload).unwrap();
/// assert_eq!(report.delay, serial.delay);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelDriver {
    /// Number of queries in the batch.
    pub queries: usize,
    /// Base seed; query `q` derives all of its randomness from `(seed, q)`.
    pub seed: u64,
    /// Worker thread count (shards are contiguous index chunks).
    pub threads: usize,
    /// Permutes the order shards are *submitted* to worker threads
    /// (0 = natural order). Results always merge in shard-index order, so
    /// the report is identical for every salt — the determinism canary
    /// (`tests/hasher_perturbation.rs`) sweeps this to prove submission
    /// order cannot leak into a report.
    pub shard_salt: u64,
    /// Whether to fill [`DriverReport::metrics`] (off by default, so
    /// existing reports — and their digests — are unchanged).
    pub metrics: bool,
}

impl ParallelDriver {
    /// A driver for `queries` queries with seed 0 and
    /// [`default_threads`] workers.
    pub fn new(queries: usize) -> Self {
        ParallelDriver {
            queries,
            seed: 0,
            threads: default_threads(),
            shard_salt: 0,
            metrics: false,
        }
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker thread count (clamped to at least 1). The report is
    /// the same for every value; this only tunes wall-clock time.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the shard submission-order salt. The report is the same for
    /// every value; only the order workers are handed their shards moves.
    pub fn with_shard_salt(mut self, salt: u64) -> Self {
        self.shard_salt = salt;
        self
    }

    /// Enables (or disables) metrics collection: counters, histograms, and
    /// per-peer origin load land on [`DriverReport::metrics`], merged in
    /// shard order. All summary statistics are unchanged either way.
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// The origin peer query `q` runs from — the public form of the
    /// driver's origin derivation, so out-of-band tools (the
    /// `trace_explain` bin) can re-run *exactly* the query a report
    /// measured. Pure in `(self.seed, q, scheme membership)`.
    pub fn query_origin(&self, scheme: &dyn RangeScheme, q: usize) -> NodeId {
        scheme.random_origin(&mut self.origin_rng(q))
    }

    /// The scheme seed query `q` runs with (the `seed + q` convention).
    pub fn query_seed(&self, q: usize) -> u64 {
        self.seed.wrapping_add(q as u64)
    }

    /// The contiguous index shards the batch is cut into.
    fn shards(&self) -> Vec<std::ops::Range<usize>> {
        let threads = self.threads.clamp(1, self.queries.max(1));
        let chunk = self.queries.div_ceil(threads);
        (0..threads)
            .map(|t| (t * chunk).min(self.queries)..((t + 1) * chunk).min(self.queries))
            .filter(|r| !r.is_empty())
            .collect()
    }

    /// Runs every shard and merges the accumulators — and whatever extra
    /// value `X` each query yields (nothing, or its trace), concatenated in
    /// query-index order. The closure maps a query index to its outcome,
    /// origin and extra. Shards are *submitted* in
    /// [`shard_salt`](Self::shard_salt)-permuted order but their results
    /// are re-placed by shard index before merging, so neither scheduling
    /// nor submission order can reach the report.
    fn run_sharded<X, F>(&self, n_peers: usize, per_query: F) -> Sharded<X>
    where
        X: Send,
        F: Fn(usize, &mut QueryScratch) -> Result<(RangeOutcome, NodeId, X), SchemeError> + Sync,
    {
        let shards = self.shards();
        let mut order: Vec<usize> = (0..shards.len()).collect();
        if self.shard_salt != 0 {
            order.sort_by_key(|&i| splitmix64(self.shard_salt ^ i as u64));
        }
        let run = |shard| run_shard(shard, n_peers, &per_query, self.metrics);
        let mut shard_results: Vec<Option<Sharded<X>>> = (0..shards.len()).map(|_| None).collect();
        if shards.len() <= 1 {
            for &i in &order {
                shard_results[i] = Some(run(shards[i].clone()));
            }
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = order
                    .iter()
                    .map(|&i| {
                        let shard = shards[i].clone();
                        (i, scope.spawn(|| run(shard)))
                    })
                    .collect();
                for (i, h) in handles {
                    shard_results[i] = Some(h.join().expect("worker panicked"));
                }
            });
        }
        let mut merged = Accumulator::default();
        let mut extras = Vec::with_capacity(self.queries);
        for r in shard_results {
            let (acc, extra) = r.expect("every shard ran")?;
            merged.merge(acc);
            extras.extend(extra);
        }
        Ok((merged, extras))
    }

    /// Query `g` of the batch over `(lo, hi)`: the one place the driver
    /// derives the origin and the scheme seed and calls
    /// [`RangeScheme::query`].
    fn query_at(
        &self,
        scheme: &dyn RangeScheme,
        g: usize,
        (lo, hi): (f64, f64),
        cx: &mut QueryCtx<'_>,
    ) -> Result<(RangeOutcome, NodeId), SchemeError> {
        let origin = self.query_origin(scheme, g);
        let out = scheme.query(&RangeRequest::new(origin, lo, hi, self.query_seed(g))?, cx)?;
        Ok((out, origin))
    }

    /// A plain sharded batch over `range_of`, with the hostile wrapper's
    /// retry traffic metered around it: each query's attempt count is
    /// deterministic, so the batch delta of the cumulative counter is too,
    /// whatever the interleaving.
    fn run_batch<W, S>(
        &self,
        scheme: &dyn RangeScheme,
        range_of: W,
        sink: S,
    ) -> Result<DriverReport, SchemeError>
    where
        W: Fn(u64) -> (f64, f64) + Sync,
        S: Fn(usize, &RangeOutcome) + Sync,
    {
        let retries_before = scheme.retry_attempts();
        let (mut acc, _) = self.run_sharded(scheme.node_count(), |q, scratch| {
            let (out, origin) =
                self.query_at(scheme, q, range_of(q as u64), &mut QueryCtx::new(scratch))?;
            sink(q, &out);
            Ok((out, origin, ()))
        })?;
        if let Some(m) = acc.metrics_mut() {
            m.inc("retry_attempts", scheme.retry_attempts() - retries_before);
        }
        Ok(acc.report(scheme.scheme_name(), self.queries))
    }

    /// Runs the batch against a single-attribute scheme: query `q` executes
    /// `workload.range(seed, q)` from an origin drawn via a `(seed, q)`
    /// RNG, with scheme seed `seed + q`.
    ///
    /// This is the **streaming** mode: each worker derives its shard's
    /// ranges from the workload generator on the fly, so memory stays
    /// `O(queries / threads)` regardless of batch size — the mode the
    /// scaling sweeps rely on at `N = 10⁶`. Because `workload.range` is a
    /// pure function of `(seed, q)`, the report is bitwise identical to
    /// [`run_indexed`](Self::run_indexed) over a pre-generated range
    /// table at every thread count.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed query error across all shards.
    pub fn run(
        &self,
        scheme: &dyn RangeScheme,
        workload: &WorkloadGen,
    ) -> Result<DriverReport, SchemeError> {
        self.run_indexed(scheme, |q| workload.range(self.seed, q))
    }

    /// The general index-addressed form of [`run`](Self::run): `next_range`
    /// maps a query index to its `(lo, hi)` range and must be a pure
    /// function of that index — the determinism guarantee is exactly as
    /// strong as that purity. Its caller is the streaming contract's oracle,
    /// `tests/parallel_determinism.rs::streaming_and_materialized_drivers_are_interchangeable_at_scale`,
    /// which materializes the whole range table and drives it by lookup.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed query error across all shards.
    pub fn run_indexed<W>(
        &self,
        scheme: &dyn RangeScheme,
        next_range: W,
    ) -> Result<DriverReport, SchemeError>
    where
        W: Fn(u64) -> (f64, f64) + Sync,
    {
        self.run_batch(scheme, next_range, |_, _| {})
    }

    /// The result-streaming form of [`run`](Self::run): every query's full
    /// outcome — result handles included — is handed to `sink` as soon as
    /// the query completes, then dropped. Combined with the lazily-derived
    /// ranges of streaming mode, this keeps a millions-of-queries sweep at
    /// `O(queries / threads)` memory end to end: neither the range table
    /// nor the result sets are ever materialized batch-wide.
    ///
    /// Determinism contract: the mapping `q → outcome` is a pure function
    /// of `(workload, seed, q)` — identical to what [`run`](Self::run)
    /// measures — and the returned [`DriverReport`] is bitwise identical to
    /// [`run`](Self::run)'s at every thread count. What is *not* specified
    /// is the interleaving of `sink` invocations across worker threads;
    /// `sink` receives the query index precisely so order-sensitive
    /// consumers can reassemble any order they need (an order-insensitive
    /// sink — per-index writes, commutative folds — needs nothing extra).
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed query error across all shards.
    pub fn run_streaming<S>(
        &self,
        scheme: &dyn RangeScheme,
        workload: &WorkloadGen,
        sink: S,
    ) -> Result<DriverReport, SchemeError>
    where
        S: Fn(usize, &RangeOutcome) + Sync,
    {
        self.run_batch(scheme, |q| workload.range(self.seed, q), sink)
    }

    /// Runs the batch against a multi-attribute scheme: query `q` executes
    /// `workload.rect(domains, seed, q)`.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed query error across all shards.
    pub fn run_multi(
        &self,
        scheme: &dyn MultiRangeScheme,
        domains: &[(f64, f64)],
        workload: &WorkloadGen,
    ) -> Result<DriverReport, SchemeError> {
        let (acc, _) = self.run_sharded(scheme.node_count(), |q, scratch| {
            let rect = workload.rect(domains, self.seed, q as u64);
            let origin = scheme.random_origin(&mut self.origin_rng(q));
            let req = RectRequest::new(origin, &rect, self.query_seed(q))?;
            Ok((scheme.query(&req, &mut QueryCtx::new(scratch))?, origin, ()))
        })?;
        Ok(acc.report(scheme.scheme_name(), self.queries))
    }

    /// Runs an epoch-driven batch under a churn plan: `epochs` epochs of
    /// `self.queries` queries each, with the plan's membership events (and
    /// its stabilization policy) applied between epochs.
    ///
    /// Within an epoch the batch shards across threads against
    /// `&dyn RangeScheme` exactly like [`run`](Self::run) — query `q` of
    /// epoch `e` is addressed by the *global* index `e·queries + q`, so
    /// ranges, origins, and scheme seeds are all pure functions of that
    /// index and the report stays **bitwise identical for any thread
    /// count**. Membership events apply between epochs under `&mut`,
    /// single-threaded, from an RNG derived from `(plan, seed, epoch)`
    /// alone. The merged [`DriverReport`] covers all epochs and carries the
    /// per-epoch recall/exactness/delay series in
    /// [`DriverReport::epochs`].
    ///
    /// # Errors
    ///
    /// [`SchemeError::Unsupported`] when the scheme's
    /// [`as_dynamic`](RangeScheme::as_dynamic) hook returns `None`;
    /// otherwise the lowest-indexed query error of the failing epoch.
    pub fn run_epochs(
        &self,
        scheme: &mut dyn RangeScheme,
        workload: &WorkloadGen,
        plan: &ChurnPlan,
        epochs: usize,
    ) -> Result<DriverReport, SchemeError> {
        if scheme.as_dynamic().is_none() {
            return Err(SchemeError::Unsupported {
                scheme: scheme.scheme_name().to_string(),
                feature: "dynamics",
            });
        }
        let name = scheme.scheme_name().to_string();
        let mut total = Accumulator::default();
        let mut series = Vec::with_capacity(epochs);
        let mut pending_churn = ChurnStats::default();
        let mut pending_repair = crate::ReplicaRepair::default();
        for epoch in 0..epochs {
            // Hostile-wrapped schemes observe the epoch through their
            // fault plan (partition open/heal schedules). Advanced here,
            // serially, before the sharded batch: the epoch a query sees
            // is a pure function of its global index.
            if let Some(hostile) = scheme.as_hostile() {
                hostile.set_epoch(epoch as u64);
            }
            let n_peers = scheme.node_count();
            let base = epoch * self.queries;
            let (acc, _) = {
                let shared: &dyn RangeScheme = &*scheme;
                self.run_sharded(n_peers, |q, scratch| {
                    let range = workload.range(self.seed, (base + q) as u64);
                    let (out, origin) =
                        self.query_at(shared, base + q, range, &mut QueryCtx::new(scratch))?;
                    Ok((out, origin, ()))
                })?
            };
            let epoch_report = acc.clone().report(&name, self.queries);
            series.push(EpochSummary {
                epoch,
                peers: n_peers,
                churn: std::mem::take(&mut pending_churn),
                repair: std::mem::take(&mut pending_repair),
                delay_mean: epoch_report.delay.mean,
                latency_mean: epoch_report.latency.mean,
                exact_rate: epoch_report.exact_rate,
                recall_mean: epoch_report.recall.mean,
                results_returned: epoch_report.results_returned,
            });
            total.merge(acc);
            if epoch + 1 < epochs {
                let dynamic = scheme.as_dynamic().expect("checked above");
                pending_churn = plan.apply(dynamic, self.seed, epoch as u64)?;
                // Replicated schemes re-replicate after membership events;
                // when the plan already stabilized (which repairs replicas
                // too), this pass finds nothing left to do and reports the
                // delta honestly.
                pending_repair =
                    scheme.as_replicated().map_or_else(Default::default, |c| c.re_replicate());
            }
        }
        let mut report = total.report(&name, epochs * self.queries);
        if self.metrics {
            // Epoch-level traffic that is not per-outcome: repair and churn
            // totals, folded serially in epoch order.
            for e in &series {
                report.metrics.inc("repair_placed", e.repair.placed as u64);
                report.metrics.inc("repair_dropped", e.repair.dropped as u64);
                report.metrics.inc("repair_messages", e.repair.messages);
                report.metrics.inc("repair_latency_ms", e.repair.latency);
                report.metrics.inc("churn_joins", e.churn.joins as u64);
                report.metrics.inc("churn_leaves", e.churn.leaves as u64);
                report.metrics.inc("churn_crashes", e.churn.crashes as u64);
            }
        }
        report.epochs = series;
        Ok(report)
    }

    /// Runs one query of the batch with tracing: the exact `(range,
    /// origin, seed)` triple [`run`](Self::run) would use for index `q`,
    /// with a trace requested in the [`QueryCtx`].
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn trace_one(
        &self,
        scheme: &dyn RangeScheme,
        workload: &WorkloadGen,
        q: usize,
    ) -> Result<(RangeOutcome, QueryTrace), SchemeError> {
        let (out, _, trace) = self.trace_at(scheme, workload, q, &mut QueryScratch::new())?;
        Ok((out, trace))
    }

    /// [`trace_one`](Self::trace_one) on the caller's scratch, origin included.
    fn trace_at(
        &self,
        scheme: &dyn RangeScheme,
        workload: &WorkloadGen,
        q: usize,
        scratch: &mut QueryScratch,
    ) -> Result<(RangeOutcome, NodeId, QueryTrace), SchemeError> {
        let mut trace = QueryTrace::default();
        let range = workload.range(self.seed, q as u64);
        let mut cx = QueryCtx::new(scratch).with_trace(&mut trace);
        let (out, origin) = self.query_at(scheme, q, range, &mut cx)?;
        Ok((out, origin, trace))
    }

    /// The traced form of [`run`](Self::run): the same sharded execution,
    /// additionally collecting every query's [`QueryTrace`]. Traces come
    /// back in **query-index order** whatever the thread count or shard
    /// salt — shards are contiguous ascending index ranges re-placed by
    /// shard index before concatenation, so the serialized event stream is
    /// byte-identical across `{1, n}` threads and every submission order
    /// (pinned by `tests/parallel_determinism.rs`).
    ///
    /// Requesting a trace never moves an outcome, so the report matches an
    /// untraced [`run`](Self::run) field for field.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-indexed query error across all shards.
    pub fn run_traced(
        &self,
        scheme: &dyn RangeScheme,
        workload: &WorkloadGen,
    ) -> Result<(DriverReport, Vec<QueryTrace>), SchemeError> {
        let (acc, traces) = self.run_sharded(scheme.node_count(), |q, scratch| {
            self.trace_at(scheme, workload, q, scratch)
        })?;
        Ok((acc.report(scheme.scheme_name(), self.queries), traces))
    }

    /// Origin-selection RNG for query `q`: index-derived, like the
    /// workload's, so origins are shard-invariant too.
    fn origin_rng(&self, q: usize) -> rand::rngs::SmallRng {
        simnet::rng_from_seed(
            self.seed ^ ORIGIN_SALT ^ (q as u64).wrapping_mul(0xd1b5_4a32_d192_ed03),
        )
    }
}

/// SplitMix64 finalizer: the permutation key behind
/// [`ParallelDriver::shard_salt`].
fn splitmix64(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Executes one contiguous shard serially, in index order, with one
/// [`QueryScratch`] for the whole shard — per-query setup allocations are
/// paid once per worker thread, and the scratch contract (bit-identical
/// outcomes) keeps the shard-invariance guarantee intact.
fn run_shard<X, F>(
    shard: std::ops::Range<usize>,
    n_peers: usize,
    per_query: &F,
    metrics: bool,
) -> Sharded<X>
where
    F: Fn(usize, &mut QueryScratch) -> Result<(RangeOutcome, NodeId, X), SchemeError>,
{
    let mut acc = if metrics { Accumulator::with_metrics() } else { Accumulator::default() };
    let mut extras = Vec::with_capacity(shard.len());
    let mut scratch = QueryScratch::new();
    for q in shard {
        let (out, origin, extra) = per_query(q, &mut scratch)?;
        acc.push(&out, n_peers, origin);
        extras.push(extra);
    }
    Ok((acc, extras))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{RangeOutcome, RangeScheme};
    use rand::Rng;

    /// Deterministic synthetic scheme: cost fields are pure functions of
    /// the query, so any cross-thread nondeterminism shows up as a report
    /// mismatch.
    struct Synth;

    impl RangeScheme for Synth {
        fn scheme_name(&self) -> &'static str {
            "synth"
        }
        fn substrate(&self) -> String {
            "test".into()
        }
        fn degree(&self) -> String {
            "1".into()
        }
        fn node_count(&self) -> usize {
            128
        }
        fn publish(&mut self, _: f64, _: u64) -> Result<(), SchemeError> {
            Ok(())
        }
        fn random_origin(&self, rng: &mut rand::rngs::SmallRng) -> usize {
            rng.gen_range(0..128)
        }
        fn range_query(
            &self,
            origin: usize,
            lo: f64,
            hi: f64,
            seed: u64,
        ) -> Result<RangeOutcome, SchemeError> {
            let width = hi - lo;
            Ok(RangeOutcome {
                results: vec![seed],
                delay: (width as u64 % 17) + (origin as u64 % 3),
                latency: (width as u64 % 29) + (origin as u64 % 5),
                messages: (lo as u64 % 23) + 1,
                dest_peers: (width as usize / 10) + 1,
                reached_peers: (width as usize / 10) + 1,
                exact: true,
            })
        }
    }

    #[test]
    fn shards_cover_exactly_once() {
        for (queries, threads) in [(100, 8), (7, 8), (8, 3), (1, 4), (0, 4), (64, 1)] {
            let d = ParallelDriver { queries, seed: 0, threads, shard_salt: 0, metrics: false };
            let mut seen = vec![0usize; queries];
            for shard in d.shards() {
                for q in shard {
                    seen[q] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "q={queries} t={threads}: {seen:?}");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let wl = WorkloadGen::named("mixed", (0.0, 1000.0)).unwrap();
        let base = ParallelDriver::new(257).with_seed(99);
        let serial = base.with_threads(1).run(&Synth, &wl).unwrap();
        for threads in [2, 3, 8, 64] {
            let sharded = base.with_threads(threads).run(&Synth, &wl).unwrap();
            assert_eq!(sharded.delay, serial.delay, "threads={threads}");
            assert_eq!(sharded.messages, serial.messages);
            assert_eq!(sharded.dest_peers, serial.dest_peers);
            assert_eq!(sharded.mesg_ratio, serial.mesg_ratio);
            assert_eq!(sharded.incre_ratio, serial.incre_ratio);
            assert_eq!(sharded.exact_rate, serial.exact_rate);
            assert_eq!(sharded.results_returned, serial.results_returned);
        }
    }

    #[test]
    fn shard_salt_permutes_submission_without_touching_the_report() {
        let wl = WorkloadGen::named("mixed", (0.0, 1000.0)).unwrap();
        let base = ParallelDriver::new(257).with_seed(99).with_threads(8);
        let reference = base.run(&Synth, &wl).unwrap();
        for salt in [1u64, 0x5eed, u64::MAX] {
            let permuted = base.with_shard_salt(salt).run(&Synth, &wl).unwrap();
            assert_eq!(
                crate::DigestReport::of(&permuted),
                crate::DigestReport::of(&reference),
                "salt {salt:#x} leaked into the report"
            );
        }
    }

    #[test]
    fn per_query_scheme_seeds_are_seed_plus_index() {
        // Synth returns its scheme seed as the sole result: with base seed
        // 100 the serial batch must hand out exactly 100, 101, 102, 103.
        let wl = WorkloadGen::named("uniform", (0.0, 1000.0)).unwrap();
        let d = ParallelDriver { queries: 4, seed: 100, threads: 1, shard_salt: 0, metrics: false };
        let seen = std::sync::Mutex::new(Vec::<u64>::new());
        let report =
            d.run_streaming(&Synth, &wl, |_, out| seen.lock().unwrap().extend(&out.results));
        assert_eq!(report.unwrap().queries, 4);
        assert_eq!(*seen.lock().unwrap(), vec![100, 101, 102, 103]);
        assert_eq!((d.query_seed(0), d.query_seed(3)), (100, 103));
    }

    #[test]
    fn errors_propagate_from_any_shard() {
        struct FailAbove(usize);
        impl RangeScheme for FailAbove {
            fn scheme_name(&self) -> &'static str {
                "fail"
            }
            fn substrate(&self) -> String {
                "test".into()
            }
            fn degree(&self) -> String {
                "0".into()
            }
            fn node_count(&self) -> usize {
                4
            }
            fn publish(&mut self, _: f64, _: u64) -> Result<(), SchemeError> {
                Ok(())
            }
            fn random_origin(&self, _: &mut rand::rngs::SmallRng) -> usize {
                0
            }
            fn range_query(
                &self,
                _: usize,
                _: f64,
                _: f64,
                seed: u64,
            ) -> Result<RangeOutcome, SchemeError> {
                if seed as usize >= self.0 {
                    return Err(SchemeError::Query("boom".into()));
                }
                Ok(RangeOutcome {
                    results: vec![],
                    delay: 0,
                    latency: 0,
                    messages: 0,
                    dest_peers: 0,
                    reached_peers: 0,
                    exact: true,
                })
            }
        }
        let wl = WorkloadGen::named("uniform", (0.0, 10.0)).unwrap();
        // Failure lands in the last shard; the driver must still report it.
        let d = ParallelDriver { queries: 40, seed: 0, threads: 4, shard_salt: 0, metrics: false };
        assert!(d.run(&FailAbove(35), &wl).is_err());
        assert!(d.run(&FailAbove(1000), &wl).is_ok());
    }

    #[test]
    fn streaming_sees_every_outcome_once_and_matches_run() {
        use std::sync::Mutex;
        let wl = WorkloadGen::named("mixed", (0.0, 1000.0)).unwrap();
        let base = ParallelDriver::new(257).with_seed(99);
        let reference = base.with_threads(1).run(&Synth, &wl).unwrap();
        for threads in [1, 4, 8] {
            let streamed: Mutex<Vec<Option<Vec<u64>>>> = Mutex::new(vec![None; 257]);
            let report = base
                .with_threads(threads)
                .run_streaming(&Synth, &wl, |q, out| {
                    let prev = streamed.lock().unwrap()[q].replace(out.results.clone());
                    assert!(prev.is_none(), "query {q} streamed twice");
                })
                .unwrap();
            assert_eq!(
                crate::DigestReport::of(&report),
                crate::DigestReport::of(&reference),
                "threads={threads}: streaming perturbed the report"
            );
            // Synth returns its per-query scheme seed as the sole result, so
            // slot q must hold exactly [seed + q] — the pure q → outcome map.
            let got = streamed.into_inner().unwrap();
            for (q, slot) in got.iter().enumerate() {
                assert_eq!(
                    slot.as_deref(),
                    Some(&[99 + q as u64][..]),
                    "threads={threads}: query {q} missing or wrong"
                );
            }
        }
    }
}
