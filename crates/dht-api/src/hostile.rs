//! The hostile-network layer: named fault plans and seeded retry policies
//! composable over any registered scheme.
//!
//! [`Hostile`] wraps a built [`RangeScheme`] with a
//! [`FaultPlan`](simnet::FaultPlan) carrying the hostile families
//! (per-edge loss, partitions, rate limits — see the
//! [`simnet::FaultPlan`] docs) and a [`RetryPolicy`] that re-asks failed
//! queries. The registry spells the composition inline:
//! `"pira@lossy-p/r2"` builds PIRA, then wraps it with the `lossy-p` loss
//! plan and a 2-attempt retry policy.
//!
//! There is one execution path: every attempt runs the inner scheme's own
//! query under the wrapped plan, handed down through its [`QueryCtx`]. The
//! engine loses real messages — PIRA's descent, the sequential walk and
//! DCF-CAN's flood inside the simulator, PHT's routed gets and their
//! responses on the substrate's edges — and all of them rule through the
//! one [`simnet::Verdicts`] chain. A scheme that cannot simulate a plan
//! (the static baselines: Skip Graph, Squid, SCRAP) refuses it with
//! [`SchemeError::Unsupported`], so a hostile suffix never answers
//! fault-free.
//!
//! Every verdict is a pure function of `(plan, seed, send order)` — the
//! partition and loss families hash, the drop probability draws from the
//! query seed's own stream, no wall clock — so reports stay bitwise
//! identical for any thread count or shard salt (pinned by
//! `tests/fault_invariance.rs` at the workspace root).
//!
//! Retries are *counted in messages* and their waits are *priced in
//! virtual milliseconds*: attempt `k+1` adds its own messages, hops and
//! latency, and the `timeout_ms + backoff` wait before it adds latency
//! alone, never overlay hops.

use crate::explain::{CostNode, QueryTrace};
use crate::scheme::{QueryCtx, RangeOutcome, RangeRequest, RangeScheme, SchemeError};
use simnet::{mix, FaultPlan, NodeId, TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};

/// Salt separating retry-attempt seeds and backoff jitter from the base
/// query-seed stream.
const RETRY_SALT: u64 = 0x4e74_4e74_4e74_4e74;

/// A seeded retry/timeout policy: how many times a query is attempted and
/// what each wait costs in virtual milliseconds.
///
/// The backoff before attempt `k` is a **pure function** of
/// `(seed, query, k)` — exponential in `k` with hash jitter, no RNG
/// stream — so two drivers with different thread counts produce identical
/// retry traces (see [`RetryPolicy::backoff_wait`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per query (1 = no retries).
    pub attempts: u32,
    /// Virtual milliseconds waited before declaring an attempt failed.
    pub timeout_ms: u64,
    /// Base backoff quantum in virtual milliseconds; attempt `k`'s wait
    /// doubles it `k−1` times and adds hash jitter in `[0, backoff_ms)`.
    pub backoff_ms: u64,
}

impl RetryPolicy {
    /// Defaults accompanying an `rN` spelling: 40 ms timeout, 10 ms
    /// backoff quantum.
    const DEFAULT_TIMEOUT_MS: u64 = 40;
    const DEFAULT_BACKOFF_MS: u64 = 10;

    /// The no-retry policy: one attempt, zero waits.
    pub fn none() -> Self {
        RetryPolicy { attempts: 1, timeout_ms: 0, backoff_ms: 0 }
    }

    /// A policy of `attempts` attempts with the default timeout/backoff.
    ///
    /// # Panics
    ///
    /// Panics unless `attempts ≥ 1`.
    pub fn with_attempts(attempts: u32) -> Self {
        assert!(attempts >= 1, "a query is always attempted at least once");
        RetryPolicy {
            attempts,
            timeout_ms: Self::DEFAULT_TIMEOUT_MS,
            backoff_ms: Self::DEFAULT_BACKOFF_MS,
        }
    }

    /// Parses the registry's retry spelling: `rN` with `1 ≤ N ≤ 9`.
    pub fn named(name: &str) -> Option<RetryPolicy> {
        let n = name.strip_prefix('r')?;
        let attempts: u32 = n.parse().ok().filter(|a| (1..=9).contains(a))?;
        Some(RetryPolicy::with_attempts(attempts))
    }

    /// Whether the policy never retries (single attempt).
    pub fn is_none(&self) -> bool {
        self.attempts <= 1
    }

    /// The backoff wait (virtual ms) paid before retry attempt `attempt`
    /// (1-based; attempt 0 is the initial try and waits nothing): the
    /// base quantum doubled `attempt − 1` times, plus hash jitter in
    /// `[0, backoff_ms)`. A pure function of `(seed, query, attempt)` —
    /// identical traces on every thread count.
    pub fn backoff_wait(&self, seed: u64, query: u64, attempt: u32) -> u64 {
        if attempt == 0 || self.backoff_ms == 0 {
            return 0;
        }
        let doubled = self.backoff_ms << (attempt - 1).min(16);
        let jitter = mix(seed ^ RETRY_SALT, query, attempt as u64) % self.backoff_ms;
        doubled + jitter
    }

    /// The scheme seed used by attempt `attempt` of a query issued with
    /// `seed`: attempt 0 uses the seed untouched (so a 1-attempt hostile
    /// run reproduces the no-retry run bit for bit), and each retry mixes
    /// the attempt index in so native simulations re-roll their loss
    /// verdicts.
    pub fn attempt_seed(seed: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            seed
        } else {
            mix(seed ^ RETRY_SALT, attempt as u64, 1)
        }
    }
}

/// The hostile-network control surface exposed through
/// [`RangeScheme::as_hostile`]: epoch drivers advance the wrapped fault
/// plan's partition epoch between query epochs, serially, so the epoch a
/// query observes is a pure function of its global index.
pub trait HostileControl {
    /// Advances the wrapped fault plan's partition epoch.
    fn set_epoch(&mut self, epoch: u64);

    /// The current partition epoch.
    fn epoch(&self) -> u64;

    /// The wrapped fault plan.
    fn fault_plan(&self) -> &FaultPlan;

    /// The wrapped retry policy.
    fn retry_policy(&self) -> RetryPolicy;
}

/// Parses a registry hostile suffix `plan[/rN]` (e.g. `"lossy-p"`,
/// `"split-brain/r3"`) into its fault plan — seeded by the plan name, so
/// two plans' verdict streams decorrelate — and optional retry override.
pub(crate) fn parse_hostile_spec(spec: &str) -> Option<(FaultPlan, Option<RetryPolicy>)> {
    let (plan_name, retry) = match spec.split_once('/') {
        None => (spec, None),
        Some((p, r)) => (p, Some(RetryPolicy::named(r)?)),
    };
    let plan = FaultPlan::named_hostile(plan_name)?;
    Some((plan.with_plan_seed(crate::fnv1a(plan_name.as_bytes())), retry))
}

/// A scheme wrapped with a hostile fault plan and a retry policy — see
/// the module docs at the top of this file.
pub struct Hostile {
    inner: Box<dyn RangeScheme>,
    plan: FaultPlan,
    retry: RetryPolicy,
    /// The suffix spelling, for substrate annotations.
    spec: String,
    /// Retry attempts actually executed (initial tries not counted) —
    /// surfaced through [`RangeScheme::retry_attempts`] so drivers can
    /// meter retry traffic. Relaxed atomic: increments commute, so the
    /// total is thread-count- and shard-order-invariant.
    retries: AtomicU64,
}

impl Hostile {
    /// Wraps `inner` with a fault plan and retry policy; `spec` is the
    /// display spelling (e.g. `"lossy-p/r2"`).
    ///
    /// # Errors
    ///
    /// [`SchemeError::Build`] for a retry policy of zero attempts, and
    /// [`SchemeError::FaultPlanOutOfRange`] when the plan crashes an id
    /// that names no peer the crash could reach — rejected here instead of
    /// silently ignoring the no-op entry. For a scheme that churns the
    /// bound is its [`live_peers`](crate::DynamicScheme::live_peers): a
    /// departed peer's freed slot is refused and a peer that joined past
    /// `node_count()` accepted. Otherwise it is `0..node_count()`.
    pub fn new(
        mut inner: Box<dyn RangeScheme>,
        plan: FaultPlan,
        retry: RetryPolicy,
        spec: impl Into<String>,
    ) -> Result<Hostile, SchemeError> {
        if retry.attempts == 0 {
            return Err(SchemeError::Build("a retry policy makes at least one attempt".into()));
        }
        let n = inner.node_count();
        let offender = match inner.as_dynamic().map(|dynamic| dynamic.live_peers()) {
            Some(mut peers) => {
                peers.sort_unstable();
                plan.first_not_live(|node| peers.binary_search(&node).is_ok())
            }
            None => plan.first_out_of_range(n),
        };
        if let Some(node) = offender {
            return Err(SchemeError::FaultPlanOutOfRange { node, n });
        }
        Ok(Hostile { inner, plan, retry, spec: spec.into(), retries: AtomicU64::new(0) })
    }
}

/// Merges a later attempt into the accumulated outcome: results
/// union (sorted, deduplicated), additive traffic and critical paths,
/// best-attempt reach.
fn merge_attempts(acc: RangeOutcome, next: RangeOutcome) -> RangeOutcome {
    let mut results = acc.results;
    results.extend(next.results);
    results.sort_unstable();
    results.dedup();
    RangeOutcome {
        results,
        delay: acc.delay + next.delay,
        latency: acc.latency + next.latency,
        messages: acc.messages + next.messages,
        dest_peers: acc.dest_peers.max(next.dest_peers),
        reached_peers: acc.reached_peers.max(next.reached_peers),
        exact: acc.exact || next.exact,
    }
}

impl RangeScheme for Hostile {
    fn scheme_name(&self) -> &'static str {
        self.inner.scheme_name()
    }

    fn substrate(&self) -> String {
        format!("{} [hostile: {}]", self.inner.substrate(), self.spec)
    }

    fn degree(&self) -> String {
        self.inner.degree()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError> {
        self.inner.publish(value, handle)
    }

    fn random_origin(&self, rng: &mut rand::rngs::SmallRng) -> NodeId {
        self.inner.random_origin(rng)
    }

    /// Runs under the *wrapped* plan; a caller-supplied plan that injects
    /// is refused (the wrapper is the fault source, not a fault target).
    /// Every attempt runs the inner scheme's own faulted query; retries
    /// re-roll verdicts via their mixed attempt seed. When the context
    /// asks for a trace, each attempt's event stream is spliced onto one
    /// merged timeline (later attempts offset by the accumulated latency +
    /// waits) with a [`TraceEvent::RetryAttempt`] stamp per executed
    /// retry, under a cost tree of per-attempt subtrees whose totals
    /// telescope to the merged outcome.
    fn query(
        &self,
        req: &RangeRequest,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
        cx.refuse_faults(self.scheme_name())?;
        let seed = req.seed();
        let backoff = |attempt| {
            self.retry.timeout_ms + self.retry.backoff_wait(self.plan.plan_seed(), seed, attempt)
        };
        let mut merged: Option<RangeOutcome> = None;
        let mut waits = 0u64;
        // (merged event stream, cost tree, timeline position) when traced.
        let mut traced = cx.trace.is_some().then(|| {
            let label = format!("{} [hostile: {}]", self.inner.scheme_name(), self.spec);
            (TraceSink::new(), CostNode::group(label), 0u64)
        });
        for attempt in 0..self.retry.attempts {
            let attempt_req = req.with_seed(RetryPolicy::attempt_seed(seed, attempt));
            let mut attempt_trace = traced.is_some().then(QueryTrace::default);
            let out = self.inner.query(
                &attempt_req,
                &mut QueryCtx {
                    scratch: &mut *cx.scratch,
                    faults: Some(&self.plan),
                    trace: attempt_trace.as_mut(),
                },
            )?;
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            let attempt_latency = out.latency;
            let acc = match merged.take() {
                None => out,
                Some(acc) => merge_attempts(acc, out),
            };
            let exact = acc.exact;
            merged = Some(acc);
            if let (Some((sink, root, timeline)), Some(tr)) = (traced.as_mut(), attempt_trace) {
                if attempt > 0 {
                    let wait = backoff(attempt);
                    *timeline += wait;
                    sink.emit(
                        *timeline,
                        TraceEvent::RetryAttempt { attempt, wait_ms: wait, exact },
                    );
                }
                sink.append_offset(tr.events, *timeline);
                *timeline += attempt_latency;
                let mut node = tr.root;
                node.label = format!("attempt {attempt}: {}", node.label);
                root.children.push(node);
            }
            if exact {
                break;
            }
            if attempt + 1 < self.retry.attempts {
                waits += backoff(attempt + 1);
            }
        }
        let mut out = merged.expect("`Hostile::new` refuses a policy of zero attempts");
        out.latency += waits;
        if let (Some(trace), Some((sink, mut root, _))) = (cx.trace.as_deref_mut(), traced) {
            if waits > 0 {
                root.children.push(CostNode::leaf(
                    format!("retry waits (+{waits} ms timeout + backoff)"),
                    0,
                    waits,
                    0,
                ));
            }
            *trace = QueryTrace { events: sink.into_records(), root };
        }
        Ok(out)
    }

    fn retry_attempts(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    fn as_dynamic(&mut self) -> Option<&mut dyn crate::DynamicScheme> {
        self.inner.as_dynamic()
    }

    fn as_replica_routing(&self) -> Option<&dyn crate::ReplicaRouting> {
        self.inner.as_replica_routing()
    }

    fn as_replicated(&mut self) -> Option<&mut dyn crate::ReplicationControl> {
        self.inner.as_replicated()
    }

    fn as_hostile(&mut self) -> Option<&mut dyn HostileControl> {
        Some(self)
    }
}

impl HostileControl for Hostile {
    fn set_epoch(&mut self, epoch: u64) {
        self.plan.set_epoch(epoch);
    }

    fn epoch(&self) -> u64 {
        self.plan.epoch()
    }

    fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy scheme that takes any plan and traces, and always comes back
    /// inexact so every retry attempt executes.
    struct NativeToy;

    impl NativeToy {
        fn outcome() -> RangeOutcome {
            RangeOutcome {
                results: vec![1, 2, 3],
                delay: 2,
                latency: 5,
                messages: 4,
                dest_peers: 4,
                reached_peers: 3,
                exact: false,
            }
        }
    }

    impl RangeScheme for NativeToy {
        fn scheme_name(&self) -> &'static str {
            "native-toy"
        }
        fn substrate(&self) -> String {
            "toy".into()
        }
        fn degree(&self) -> String {
            "0".into()
        }
        fn node_count(&self) -> usize {
            8
        }
        fn publish(&mut self, _: f64, _: u64) -> Result<(), SchemeError> {
            Ok(())
        }
        fn random_origin(&self, _: &mut rand::rngs::SmallRng) -> NodeId {
            0
        }
        fn range_query(
            &self,
            _: NodeId,
            _: f64,
            _: f64,
            _: u64,
        ) -> Result<RangeOutcome, SchemeError> {
            Ok(Self::outcome())
        }
        fn query(
            &self,
            req: &RangeRequest,
            cx: &mut QueryCtx<'_>,
        ) -> Result<RangeOutcome, SchemeError> {
            let out = Self::outcome();
            cx.trace_modeled("native-toy", req.origin(), &out);
            Ok(out)
        }
    }

    /// Query `q` from peer 0 with a trace requested.
    fn traced(h: &Hostile, q: u64) -> (RangeOutcome, QueryTrace) {
        let mut trace = QueryTrace::default();
        let mut scratch = simnet::QueryScratch::new();
        let req = RangeRequest::new(0, 0.0, 1.0, q).unwrap();
        let out = h.query(&req, &mut QueryCtx::new(&mut scratch).with_trace(&mut trace)).unwrap();
        (out, trace)
    }

    fn hostile(plan_name: &str, attempts: u32) -> Hostile {
        let (plan, _) = parse_hostile_spec(plan_name).unwrap();
        let retry =
            if attempts <= 1 { RetryPolicy::none() } else { RetryPolicy::with_attempts(attempts) };
        Hostile::new(Box::new(NativeToy), plan, retry, plan_name).unwrap()
    }

    #[test]
    fn retry_policy_parses_and_bounds() {
        assert_eq!(RetryPolicy::named("r1"), Some(RetryPolicy::with_attempts(1)));
        assert_eq!(RetryPolicy::named("r3").unwrap().attempts, 3);
        for bad in ["r0", "r10", "r", "x3", "3"] {
            assert!(RetryPolicy::named(bad).is_none(), "{bad} must not parse");
        }
        assert!(RetryPolicy::none().is_none());
        assert!(!RetryPolicy::with_attempts(2).is_none());
    }

    #[test]
    fn backoff_is_a_pure_function_of_seed_query_attempt() {
        let p = RetryPolicy::with_attempts(4);
        for (seed, query, attempt) in [(1u64, 2u64, 1u32), (9, 9, 2), (0, 7, 3)] {
            assert_eq!(
                p.backoff_wait(seed, query, attempt),
                p.backoff_wait(seed, query, attempt),
                "backoff must be replayable"
            );
        }
        // Attempt 0 (the initial try) waits nothing; later attempts grow
        // exponentially in expectation.
        assert_eq!(p.backoff_wait(5, 5, 0), 0);
        let w1 = p.backoff_wait(5, 5, 1);
        let w3 = p.backoff_wait(5, 5, 3);
        assert!((p.backoff_ms..2 * p.backoff_ms).contains(&w1), "w1 = {w1}");
        assert!(w3 >= 4 * p.backoff_ms, "w3 = {w3}");
        // Different queries jitter differently (for at least one pair).
        assert!(
            (0..32).any(|q| p.backoff_wait(5, q, 1) != p.backoff_wait(5, q + 32, 1)),
            "jitter must depend on the query"
        );
    }

    #[test]
    fn attempt_zero_reproduces_the_base_seed() {
        assert_eq!(RetryPolicy::attempt_seed(42, 0), 42);
        assert_ne!(RetryPolicy::attempt_seed(42, 1), 42);
        assert_ne!(RetryPolicy::attempt_seed(42, 1), RetryPolicy::attempt_seed(42, 2));
    }

    #[test]
    fn hostile_spec_grammar_round_trips() {
        let (plan, retry) = parse_hostile_spec("lossy-p").unwrap();
        assert!(plan.loss().is_some());
        assert!(retry.is_none());
        let (plan, retry) = parse_hostile_spec("split-brain/r3").unwrap();
        assert!(plan.partition().is_some());
        assert_eq!(retry.unwrap().attempts, 3);
        // Plan seeds are name-derived, so verdict streams decorrelate.
        let (a, _) = parse_hostile_spec("lossy-p").unwrap();
        let (b, _) = parse_hostile_spec("bursty").unwrap();
        assert_ne!(a.plan_seed(), b.plan_seed());
        for bad in ["nope", "lossy-p/r0", "lossy-p/x2", "lossy-p/r2/r3"] {
            assert!(parse_hostile_spec(bad).is_none(), "{bad} must not parse");
        }
    }

    #[test]
    fn out_of_range_crash_plans_are_rejected_at_wrap_time() {
        let mut plan = FaultPlan::new();
        plan.crash(8); // NativeToy has peers 0..8
        let err = Hostile::new(Box::new(NativeToy), plan, RetryPolicy::none(), "crash")
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, SchemeError::FaultPlanOutOfRange { node: 8, n: 8 });
        assert!(err.to_string().contains('8'));
    }

    #[test]
    fn a_zero_attempt_policy_is_refused_at_wrap_time() {
        // The fields are public, so a policy can be spelled with no
        // attempt at all; its first query used to panic.
        let retry = RetryPolicy { attempts: 0, timeout_ms: 40, backoff_ms: 10 };
        let (plan, _) = parse_hostile_spec("lossy-p").unwrap();
        let err =
            Hostile::new(Box::new(NativeToy), plan, retry, "lossy-p").map(|_| ()).unwrap_err();
        assert!(matches!(err, SchemeError::Build(_)), "{err}");
        assert!(err.to_string().contains("at least one attempt"), "{err}");
    }

    #[test]
    fn traced_native_retries_splice_attempts_onto_one_timeline() {
        let h = hostile("lossy-p", 3);
        let plain = h.range_query(0, 0.0, 1.0, 7).unwrap();
        let (traced, tr) = traced(&h, 7);
        assert_eq!(plain, traced, "tracing must not perturb the merged outcome");
        assert_eq!(tr.root.total(), (traced.delay, traced.latency, traced.messages));
        // All three attempts ran (NativeToy is never exact): two retry
        // stamps, and attempt events pushed into the future by the
        // accumulated latency + waits.
        let retry_events: Vec<u64> = tr
            .events
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::RetryAttempt { .. }))
            .map(|r| r.time)
            .collect();
        assert_eq!(retry_events.len(), 2);
        assert!(retry_events[1] > retry_events[0], "attempts sit on one merged timeline");
        let text = tr.explain_text();
        assert!(text.contains("attempt 0:"), "{text}");
        assert!(text.contains("attempt 2:"), "{text}");
        assert!(text.contains("retry waits"), "{text}");
        // Both runs executed 2 retries each.
        assert_eq!(h.retry_attempts(), 4);
    }

    #[test]
    fn control_surface_exposes_plan_and_policy() {
        let mut h = hostile("island-3", 2);
        assert_eq!(h.epoch(), 0);
        h.set_epoch(5);
        assert_eq!(h.epoch(), 5);
        assert_eq!(h.fault_plan().partition().unwrap().islands(), 3);
        assert_eq!(h.retry_policy().attempts, 2);
        assert_eq!(h.scheme_name(), "native-toy");
        assert!(h.substrate().contains("hostile"));
        let hook: &mut dyn RangeScheme = &mut h;
        assert!(hook.as_hostile().is_some());
    }
}
