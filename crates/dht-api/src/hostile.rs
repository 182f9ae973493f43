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
//! Two execution paths, chosen per query by
//! [`RangeScheme::supports_fault_injection`]:
//!
//! * **Native** — schemes whose engine runs a real simulator (PIRA, the
//!   sequential walk, DCF-CAN) receive the fault plan through their
//!   [`QueryCtx`]; the simulator itself drops, blocks, and throttles
//!   messages, so loss interacts with the scheme's actual dissemination
//!   tree or chain.
//! * **Generic** — every other scheme (PHT on either substrate and the
//!   static baselines) answers fault-free, and the wrapper
//!   degrades the *response plane*: each of the outcome's `dest_peers`
//!   ground-truth destinations becomes a slot with a virtual peer
//!   identity (a pure hash of `(plan, query seed, slot)`), and a slot's
//!   answer is withheld when its edge is severed by the partition, its
//!   peer is crashed, or the loss hash says the reply was lost. Rate
//!   limits price the origin's message overflow into latency. Results are
//!   mapped to slots stably, so retry attempts re-reach exactly the slots
//!   that failed and the union converges toward the exact answer.
//!
//! Every verdict on both paths is a pure hash of
//! `(plan, seed, edge/peer, attempt)` — no RNG stream, no wall clock — so
//! reports stay bitwise identical for any thread count or shard salt
//! (pinned by `tests/fault_invariance.rs` at the workspace root).
//!
//! Retries are *counted in messages* and their waits are *priced in
//! virtual milliseconds*: attempt `k+1` adds its own message traffic and
//! `timeout_ms + backoff` latency, never extra overlay hops — hop metrics
//! keep measuring the dissemination structure, latency measures the wait.

use crate::explain::{CostNode, QueryTrace};
use crate::scheme::{QueryCtx, RangeOutcome, RangeRequest, RangeScheme, SchemeError};
use simnet::{mix, FaultPlan, NetModel, NodeId, TraceEvent, TraceSink};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Salt separating retry-attempt seeds and backoff jitter from the base
/// query-seed stream.
const RETRY_SALT: u64 = 0x4e74_4e74_4e74_4e74;

/// Salt deriving virtual destination identities on the generic
/// response-plane path.
const SLOT_SALT: u64 = 0x510f_510f_510f_510f;

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
/// the module docs at the top of this file for the two execution paths.
pub struct Hostile {
    inner: Box<dyn RangeScheme>,
    plan: FaultPlan,
    retry: RetryPolicy,
    /// The scheme's network cost model, so partition sides stay
    /// cluster-model-aware on the generic path too.
    net: NetModel,
    /// The suffix spelling, for substrate annotations.
    spec: String,
    /// Retry attempts actually executed (initial tries not counted) —
    /// surfaced through [`RangeScheme::retry_attempts`] so drivers can
    /// meter retry traffic. Relaxed atomic: increments commute, so the
    /// total is thread-count- and shard-order-invariant.
    retries: AtomicU64,
}

/// What the generic response-plane path did beyond the fault-free base
/// query — the trace plane's raw material.
#[derive(Default)]
struct GenericLog {
    /// `(attempt, retransmissions, wait_ms, exact_after)` per executed
    /// retry attempt.
    retries: Vec<(u32, u64, u64, bool)>,
    /// Rate-limit queueing charged on the origin's message overflow.
    queue_delay: u64,
}

impl Hostile {
    /// Wraps `inner` with a fault plan and retry policy. `net` is the
    /// model the scheme was built with (partition side assignment follows
    /// its cluster groups); `spec` is the display spelling (e.g.
    /// `"lossy-p/r2"`).
    ///
    /// # Errors
    ///
    /// [`SchemeError::FaultPlanOutOfRange`] when the plan crashes an id
    /// that names no peer the crash could reach — rejected here instead
    /// of silently ignoring the no-op entry. On the native path of a
    /// scheme that churns, the engine routes to live peers, so the bound
    /// is its [`live_peers`](crate::DynamicScheme::live_peers): a departed
    /// peer's freed slot is refused and a peer that joined past
    /// `node_count()` accepted. Otherwise it is `0..node_count()`, the ids
    /// the response plane draws its destinations from.
    pub fn new(
        mut inner: Box<dyn RangeScheme>,
        plan: FaultPlan,
        retry: RetryPolicy,
        net: NetModel,
        spec: impl Into<String>,
    ) -> Result<Hostile, SchemeError> {
        let n = inner.node_count();
        let live = if inner.supports_fault_injection() {
            inner.as_dynamic().map(|dynamic| dynamic.live_peers())
        } else {
            None
        };
        let offender = match live {
            Some(mut peers) => {
                peers.sort_unstable();
                plan.first_not_live(|node| peers.binary_search(&node).is_ok())
            }
            None => plan.first_out_of_range(n),
        };
        if let Some(node) = offender {
            return Err(SchemeError::FaultPlanOutOfRange { node, n });
        }
        Ok(Hostile { inner, plan, retry, net, spec: spec.into(), retries: AtomicU64::new(0) })
    }

    /// Native path: every attempt runs the inner scheme's own faulted
    /// simulation under the wrapped plan; retries re-roll verdicts via
    /// their mixed attempt seed. When the context asks for a trace, each
    /// attempt's event stream is spliced onto one merged timeline (later
    /// attempts offset by the accumulated latency + waits) with a
    /// [`TraceEvent::RetryAttempt`] stamp per executed retry, under a cost
    /// tree of per-attempt subtrees whose totals telescope to the merged
    /// outcome.
    fn native_query(
        &self,
        req: &RangeRequest,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
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
        let mut out = merged.expect("at least one attempt always runs");
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

    /// Generic path: answer fault-free, then degrade the response plane —
    /// see the module docs for the slot model. The inner scheme's own trace
    /// covers the fault-free base query; the degradation's extra charges —
    /// one retransmission batch + wait per executed retry, rate-limit
    /// queueing — append as their own cost nodes, so a requested trace's
    /// total telescopes to the degraded outcome.
    fn generic_query(
        &self,
        req: &RangeRequest,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
        let base = self.inner.query(req, cx)?;
        let base_latency = base.latency;
        let mut log = cx.trace.is_some().then(GenericLog::default);
        let out = self.degrade(req.origin(), req.seed(), base, log.as_mut());
        let (Some(trace), Some(log)) = (cx.trace.as_deref_mut(), log) else {
            return Ok(out);
        };
        let inner_root = std::mem::replace(
            &mut trace.root,
            CostNode::group(format!(
                "{} [hostile: {} — response-plane degradation]",
                self.inner.scheme_name(),
                self.spec
            )),
        );
        trace.root.children.push(inner_root);
        let mut sink = TraceSink::new();
        let mut t = 0u64;
        for &(attempt, resend, wait, exact) in &log.retries {
            t += wait;
            sink.emit(t, TraceEvent::RetryAttempt { attempt, wait_ms: wait, exact });
            trace.root.children.push(CostNode::leaf(
                format!("retry attempt {attempt}: {resend} retransmissions (+{wait} ms wait)"),
                0,
                wait,
                resend,
            ));
        }
        if log.queue_delay > 0 {
            trace.root.children.push(CostNode::leaf(
                format!("rate-limit queueing (+{} ms)", log.queue_delay),
                0,
                log.queue_delay,
                0,
            ));
        }
        trace.append_events(sink.into_records(), base_latency);
        Ok(out)
    }

    /// The response-plane degradation of
    /// [`generic_query`](Self::generic_query) — see the module docs for
    /// the slot model. When `log` is present every executed retry and the
    /// rate-limit charge are recorded; the outcome is identical either
    /// way.
    fn degrade(
        &self,
        origin: NodeId,
        seed: u64,
        base: RangeOutcome,
        mut log: Option<&mut GenericLog>,
    ) -> RangeOutcome {
        let dest = base.dest_peers;
        if dest == 0 {
            return base;
        }
        let n = self.inner.node_count().max(1) as u64;
        let pseed = self.plan.plan_seed();
        // Virtual peer identity of a destination slot: pure in
        // (plan, query seed, slot), stable across attempts.
        let vid = |slot: usize| (mix(pseed ^ SLOT_SALT, seed, slot as u64) % n) as NodeId;
        let mut reached: BTreeSet<usize> = BTreeSet::new();
        let mut messages = base.messages;
        let mut waits = 0u64;
        for attempt in 0..self.retry.attempts {
            if attempt > 0 {
                // One retransmit per still-unanswered destination, paid
                // after the timeout + backoff wait.
                let resend = (dest - reached.len()) as u64;
                let wait = self.retry.timeout_ms + self.retry.backoff_wait(pseed, seed, attempt);
                messages += resend;
                waits += wait;
                self.retries.fetch_add(1, Ordering::Relaxed);
                if let Some(log) = log.as_deref_mut() {
                    log.retries.push((attempt, resend, wait, false));
                }
            }
            for slot in 0..dest {
                if reached.contains(&slot) {
                    continue;
                }
                let peer = vid(slot);
                if peer == origin {
                    reached.insert(slot);
                    continue;
                }
                if self.plan.is_crashed(peer) {
                    continue;
                }
                let severed = self
                    .plan
                    .partition()
                    .is_some_and(|p| p.severed(pseed, self.plan.epoch(), origin, peer, &self.net));
                if severed {
                    continue;
                }
                let lost = self
                    .plan
                    .loss()
                    .is_some_and(|l| l.lost(pseed ^ seed, origin, peer, attempt as u64));
                if !lost {
                    reached.insert(slot);
                }
            }
            if attempt > 0 {
                if let Some(log) = log.as_deref_mut() {
                    if let Some(last) = log.retries.last_mut() {
                        last.3 = base.exact && reached.len() == dest;
                    }
                }
            }
            if reached.len() == dest {
                break;
            }
        }
        let all = reached.len() == dest;
        let results = if all {
            base.results
        } else {
            // Result j belongs to slot j mod dest — a stable assignment,
            // so the surviving subset is deterministic (and stays sorted).
            base.results
                .iter()
                .enumerate()
                .filter(|(j, _)| reached.contains(&(j % dest)))
                .map(|(_, &h)| h)
                .collect()
        };
        let mut latency = base.latency + waits;
        if let Some(rl) = self.plan.rate_limit() {
            // The origin's last message queues longest; its delay is the
            // critical-path contribution.
            let queued = rl.queue_delay(messages);
            latency += queued;
            if let Some(log) = log {
                log.queue_delay = queued;
            }
        }
        RangeOutcome {
            results,
            delay: base.delay,
            latency,
            messages,
            dest_peers: dest,
            reached_peers: reached.len(),
            exact: base.exact && all,
        }
    }
}

/// Merges a later native attempt into the accumulated outcome: results
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
    fn query(
        &self,
        req: &RangeRequest,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
        cx.refuse_faults(self.scheme_name())?;
        if self.inner.supports_fault_injection() {
            self.native_query(req, cx)
        } else {
            self.generic_query(req, cx)
        }
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
    use rand::Rng;

    /// A toy exact scheme: every query spans `dest` destinations and
    /// returns one handle per destination slot.
    struct Toy {
        n: usize,
        dest: usize,
    }

    impl RangeScheme for Toy {
        fn scheme_name(&self) -> &'static str {
            "toy"
        }
        fn substrate(&self) -> String {
            "toy".into()
        }
        fn degree(&self) -> String {
            "0".into()
        }
        fn node_count(&self) -> usize {
            self.n
        }
        fn publish(&mut self, _: f64, _: u64) -> Result<(), SchemeError> {
            Ok(())
        }
        fn random_origin(&self, rng: &mut rand::rngs::SmallRng) -> NodeId {
            rng.gen_range(0..self.n)
        }
        fn range_query(
            &self,
            _origin: NodeId,
            _lo: f64,
            _hi: f64,
            _seed: u64,
        ) -> Result<RangeOutcome, SchemeError> {
            Ok(RangeOutcome {
                results: (0..self.dest as u64).collect(),
                delay: 3,
                latency: 3,
                messages: self.dest as u64,
                dest_peers: self.dest,
                reached_peers: self.dest,
                exact: true,
            })
        }
    }

    /// A toy *native-fault* scheme: supports fault injection and tracing,
    /// and always comes back inexact so every retry attempt executes.
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
        fn supports_fault_injection(&self) -> bool {
            true
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
        Hostile::new(Box::new(Toy { n: 64, dest: 16 }), plan, retry, NetModel::unit(), plan_name)
            .unwrap()
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
        plan.crash(64); // Toy has peers 0..64
        let err = Hostile::new(
            Box::new(Toy { n: 64, dest: 4 }),
            plan,
            RetryPolicy::none(),
            NetModel::unit(),
            "crash",
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err, SchemeError::FaultPlanOutOfRange { node: 64, n: 64 });
        assert!(err.to_string().contains("64"));
    }

    #[test]
    fn loss_degrades_and_retries_recover_monotonically() {
        let mut prev_recall = 0.0;
        let mut prev_messages = 0u64;
        for attempts in 1..=4u32 {
            let h = hostile("lossy-30", attempts);
            let mut recall_sum = 0.0;
            let mut messages = 0u64;
            for q in 0..50u64 {
                let out = h.range_query(0, 0.0, 1.0, q).unwrap();
                recall_sum += out.peer_recall();
                messages += out.messages;
                assert_eq!(out.results.len(), {
                    // Results map to slots stably: exactly the reached
                    // slots' handles survive.
                    out.reached_peers
                });
            }
            let recall = recall_sum / 50.0;
            assert!(
                recall >= prev_recall,
                "recall must be monotone in attempts: {recall} < {prev_recall}"
            );
            assert!(messages >= prev_messages, "messages must be monotone in attempts");
            prev_recall = recall;
            prev_messages = messages;
        }
        // One attempt under 30% loss loses something across 50 queries;
        // four attempts recover almost everything.
        assert!(prev_recall > 0.95, "4 attempts at 30% loss: recall = {prev_recall}");
    }

    #[test]
    fn partition_severs_during_the_interval_and_heals_after() {
        let mut h = hostile("split-brain", 1);
        let fault_free = |h: &Hostile| {
            (0..40u64).all(|q| {
                let out = h.range_query(0, 0.0, 1.0, q).unwrap();
                out.exact && out.peer_recall() == 1.0
            })
        };
        // split-brain opens at epoch 1 and heals at 3.
        assert!(fault_free(&h), "closed before open_epoch");
        h.set_epoch(1);
        let dropped = (0..40u64)
            .filter(|&q| h.range_query(0, 0.0, 1.0, q).unwrap().peer_recall() < 1.0)
            .count();
        assert!(dropped > 10, "split must sever a good share of queries: {dropped}/40");
        h.set_epoch(3);
        assert!(fault_free(&h), "healed at heal_epoch");
    }

    #[test]
    fn retries_cannot_cross_an_open_partition() {
        let mut h = hostile("split-brain", 4);
        h.set_epoch(1);
        let single = {
            let mut s = hostile("split-brain", 1);
            s.set_epoch(1);
            s
        };
        for q in 0..40u64 {
            let once = single.range_query(0, 0.0, 1.0, q).unwrap();
            let retried = h.range_query(0, 0.0, 1.0, q).unwrap();
            assert_eq!(
                retried.reached_peers, once.reached_peers,
                "query {q}: retries must not reach across a severed edge"
            );
        }
    }

    #[test]
    fn rate_limit_prices_latency_only() {
        let h = hostile("throttle", 1);
        let out = h.range_query(0, 0.0, 1.0, 7).unwrap();
        // Toy sends 16 messages against an 8-message bucket at 5 ms.
        assert_eq!(out.messages, 16);
        assert_eq!(out.latency, 3 + (16 - 8) * 5);
        assert_eq!(out.delay, 3, "hop metrics never move");
        assert!(out.exact, "throttling delays, it does not lose");
    }

    #[test]
    fn waits_price_into_latency_not_hops() {
        let h = hostile("lossy-50", 3);
        for q in 0..20u64 {
            let out = h.range_query(0, 0.0, 1.0, q).unwrap();
            assert_eq!(out.delay, 3, "query {q}: retry waits must not add hops");
            if out.messages > 16 {
                // A retry happened: its timeout + backoff is in latency.
                assert!(out.latency >= 3 + h.retry.timeout_ms, "query {q}");
            }
        }
    }

    #[test]
    fn traced_throttle_charges_queueing_as_its_own_node() {
        let h = hostile("throttle", 1);
        let plain = h.range_query(0, 0.0, 1.0, 7).unwrap();
        let (traced, tr) = traced(&h, 7);
        assert_eq!(plain, traced);
        assert_eq!(tr.root.total(), (traced.delay, traced.latency, traced.messages));
        assert!(tr.explain_text().contains("rate-limit queueing"), "{}", tr.explain_text());
    }

    #[test]
    fn traced_native_retries_splice_attempts_onto_one_timeline() {
        let (plan, _) = parse_hostile_spec("lossy-p").unwrap();
        let h = Hostile::new(
            Box::new(NativeToy),
            plan,
            RetryPolicy::with_attempts(3),
            NetModel::unit(),
            "lossy-p/r3",
        )
        .unwrap();
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
        assert_eq!(h.scheme_name(), "toy");
        assert!(h.substrate().contains("hostile"));
        let hook: &mut dyn RangeScheme = &mut h;
        assert!(hook.as_hostile().is_some());
    }
}
