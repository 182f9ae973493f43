//! The unified range-query contract: one trait per query shape, one outcome
//! type, one error type — implemented by every scheme in the workspace.
//!
//! The Armada paper's whole argument (Table 1, Figures 5–8) is a
//! *comparison* of range-query schemes. These traits make that comparison a
//! first-class program structure: anything that can `publish` handles keyed
//! by an attribute value and answer `[lo, hi]` queries is a
//! [`RangeScheme`]; anything that indexes points and answers rectangle
//! queries is a [`MultiRangeScheme`]. Experiments, benches, and examples
//! drive all of them through trait objects, so adding a scheme to every
//! table is one `impl` plus one registry entry.

use simnet::NodeId;

/// The shared result of one range query, in the metric vocabulary the
/// paper's evaluation uses (§4.3.3) — common across all schemes.
///
/// Schemes with richer native outcomes (e.g. PIRA's [`QueryMetrics`]-backed
/// outcome or PHT's trie statistics) convert into this via their
/// `into_outcome()` and keep the native type for scheme-specific analysis.
///
/// [`QueryMetrics`]: https://docs.rs/armada
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeOutcome {
    /// Handles of records satisfying the query, ascending and deduplicated.
    pub results: Vec<u64>,
    /// Query delay: critical-path length in overlay hops under unit
    /// per-hop latency (the paper's delay metric).
    pub delay: u64,
    /// Query latency: critical-path virtual time in milliseconds under the
    /// scheme's [`NetModel`](crate::NetModel) — the time by which the last
    /// destination first learns of the query, accumulated edge by edge
    /// along the realized message paths. Under the `unit` model this is
    /// the hop metric again (`latency ≤ delay`, with equality everywhere
    /// except degenerate local RPCs some layered schemes charge a hop
    /// for); under `wan`/`cluster`/`straggler` it is where the paper's
    /// hop bounds are re-examined in wall-clock terms.
    pub latency: u64,
    /// Total protocol messages sent.
    pub messages: u64,
    /// Ground-truth destination count — peers/zones/leaves whose region
    /// intersects the query ("Destpeers").
    pub dest_peers: usize,
    /// Destinations that actually answered (`== dest_peers` fault-free).
    pub reached_peers: usize,
    /// Whether the answered set equals the ground truth exactly.
    pub exact: bool,
}

/// The cost triple every native scheme outcome reports — hop critical
/// path, [`NetModel`](crate::NetModel) critical path, and message total.
///
/// Exists so [`RangeOutcome::from_native`] is the *single* conversion
/// point from scheme-native outcomes: an adapter cannot forget (or
/// silently zero) the latency plumbing without the type signature
/// noticing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeCosts {
    /// Critical-path length in overlay hops ([`RangeOutcome::delay`]).
    pub hops: u64,
    /// Critical-path virtual milliseconds ([`RangeOutcome::latency`]).
    pub latency: u64,
    /// Total protocol messages ([`RangeOutcome::messages`]).
    pub messages: u64,
}

impl RangeOutcome {
    /// The shared adapter conversion: every scheme's `into_outcome()`
    /// funnels through here, so the hop/latency/messages/exactness
    /// plumbing lives in one place and cannot drift per scheme. It is also
    /// where [`results`](Self::results)' contract is kept: handles come out
    /// ascending and each once, however often one was published (sorted
    /// only when they arrive unsorted).
    pub fn from_native(
        mut results: Vec<u64>,
        costs: OutcomeCosts,
        dest_peers: usize,
        reached_peers: usize,
        exact: bool,
    ) -> RangeOutcome {
        if !results.is_sorted() {
            results.sort_unstable();
        }
        results.dedup();
        RangeOutcome {
            results,
            delay: costs.hops,
            latency: costs.latency,
            messages: costs.messages,
            dest_peers,
            reached_peers,
            exact,
        }
    }
    /// `MesgRatio = Messages / Destpeers` (§4.3.3 metric (b)).
    pub fn mesg_ratio(&self) -> f64 {
        if self.dest_peers == 0 {
            0.0
        } else {
            self.messages as f64 / self.dest_peers as f64
        }
    }

    /// `IncreRatio = (Messages − log₂N) / (Destpeers − 1)` (§4.3.3 metric
    /// (c)); returns 0 when `Destpeers ≤ 1`.
    pub fn incre_ratio(&self, n_peers: usize) -> f64 {
        if self.dest_peers <= 1 {
            return 0.0;
        }
        (self.messages as f64 - (n_peers as f64).log2()) / (self.dest_peers as f64 - 1.0)
    }

    /// Fraction of ground-truth destinations reached.
    pub fn peer_recall(&self) -> f64 {
        if self.dest_peers == 0 {
            1.0
        } else {
            self.reached_peers as f64 / self.dest_peers as f64
        }
    }
}

/// Unified error for scheme construction and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeError {
    /// The query origin is not a live peer.
    BadOrigin {
        /// The offending node id.
        origin: NodeId,
    },
    /// The queried range (or a per-attribute range) holds no value:
    /// `lo > hi`, or a NaN bound.
    EmptyRange {
        /// Lower endpoint as supplied.
        lo: f64,
        /// Upper endpoint as supplied.
        hi: f64,
    },
    /// A point or rectangle had the wrong number of attributes.
    WrongArity {
        /// Expected attribute count.
        expected: usize,
        /// Supplied attribute count.
        got: usize,
    },
    /// No scheme registered under the requested name.
    UnknownScheme {
        /// The name looked up.
        name: String,
        /// `"single"` or `"multi"` — which registry was consulted.
        kind: &'static str,
    },
    /// No named workload in the [`WorkloadGen`](crate::WorkloadGen) catalog.
    UnknownWorkload {
        /// The name looked up.
        name: String,
    },
    /// No named plan in the [`ChurnPlan`](crate::ChurnPlan) catalog.
    UnknownChurnPlan {
        /// The name looked up.
        name: String,
    },
    /// No replica policy parses from the name (see
    /// [`ReplicaPolicy::named`](crate::ReplicaPolicy::named)).
    UnknownReplicaPolicy {
        /// The name looked up.
        name: String,
    },
    /// No network cost model in the [`NetModel`](crate::NetModel) catalog
    /// (see [`NET_MODEL_NAMES`](crate::NET_MODEL_NAMES)).
    UnknownNetModel {
        /// The name looked up.
        name: String,
    },
    /// No hostile fault plan parses from the name (see
    /// [`HOSTILE_PLAN_NAMES`](crate::HOSTILE_PLAN_NAMES) and the `plan/rN`
    /// retry-suffix grammar).
    UnknownHostilePlan {
        /// The name looked up.
        name: String,
    },
    /// A registry name carries a second net model or a second hostile
    /// spec (`"pira@wan@lan"`): a stack holds one of each.
    DuplicateSuffix {
        /// The repeating suffix.
        suffix: String,
    },
    /// A fault plan crashes an id that names no live peer — rejected
    /// instead of silently ignored, so a typo'd crash list (or one written
    /// before a peer departed) cannot pass as a fault-free run.
    FaultPlanOutOfRange {
        /// The smallest offending node id.
        node: NodeId,
        /// The scheme's live peer count.
        n: usize,
    },
    /// The scheme does not support the requested capability (e.g. dynamics
    /// on a scheme whose substrate has no churn primitives).
    Unsupported {
        /// Registry name of the scheme.
        scheme: String,
        /// The capability asked for (`"dynamics"`, `"fault injection"`).
        feature: &'static str,
    },
    /// Scheme construction failed (wrapped native error message).
    Build(String),
    /// A query failed for a scheme-specific reason (wrapped message).
    Query(String),
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeError::BadOrigin { origin } => write!(f, "origin {origin} is not live"),
            SchemeError::EmptyRange { lo, hi } => write!(f, "empty range [{lo}, {hi}]"),
            SchemeError::WrongArity { expected, got } => {
                write!(f, "expected {expected} attributes, got {got}")
            }
            SchemeError::UnknownScheme { name, kind } => {
                write!(f, "no {kind}-attribute scheme registered as {name:?}")
            }
            SchemeError::UnknownWorkload { name } => {
                write!(f, "no workload named {name:?} in the catalog")
            }
            SchemeError::UnknownChurnPlan { name } => {
                write!(f, "no churn plan named {name:?} in the catalog")
            }
            SchemeError::UnknownReplicaPolicy { name } => {
                write!(
                    f,
                    "no replica policy named {name:?} (try none, successor-R, neighbor-set-R)"
                )
            }
            SchemeError::UnknownNetModel { name } => {
                write!(
                    f,
                    "no net model named {name:?} (catalog: {})",
                    simnet::NET_MODEL_NAMES.join(", ")
                )
            }
            SchemeError::UnknownHostilePlan { name } => {
                write!(
                    f,
                    "no hostile fault plan named {name:?} (catalog: {}; \
                     parameterized lossy-N / island-K; retry suffix /rN)",
                    simnet::HOSTILE_PLAN_NAMES.join(", ")
                )
            }
            SchemeError::DuplicateSuffix { suffix } => {
                write!(f, "suffix {suffix:?} repeats a category: one net model and one hostile spec per name")
            }
            SchemeError::FaultPlanOutOfRange { node, n } => {
                write!(
                    f,
                    "fault plan names peer {node}, which is none of the scheme's {n} live peers"
                )
            }
            SchemeError::Unsupported { scheme, feature } => {
                write!(f, "scheme {scheme:?} does not support {feature}")
            }
            SchemeError::Build(msg) => write!(f, "scheme build failed: {msg}"),
            SchemeError::Query(msg) => write!(f, "query failed: {msg}"),
        }
    }
}

impl std::error::Error for SchemeError {}

/// One validated single-attribute range request: who asks (`origin`), what
/// for (`[lo, hi]`) and the per-query `seed`. [`new`](Self::new) is the one
/// place bounds are checked, so a request that exists is well-formed and
/// no scheme re-validates it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeRequest {
    origin: NodeId,
    lo: f64,
    hi: f64,
    seed: u64,
}

impl RangeRequest {
    /// Validates the bounds and builds the request. Infinite and
    /// out-of-domain bounds pass (every scheme clamps them to its domain).
    ///
    /// # Errors
    ///
    /// [`SchemeError::EmptyRange`] for `lo > hi` or a NaN bound.
    pub fn new(origin: NodeId, lo: f64, hi: f64, seed: u64) -> Result<Self, SchemeError> {
        check_bounds(lo, hi)?;
        Ok(RangeRequest { origin, lo, hi, seed })
    }

    /// The querying peer.
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    /// Lower bound of the range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Seed for schemes with internal randomness.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The same request under another seed (retry attempts re-roll theirs).
    pub fn with_seed(self, seed: u64) -> Self {
        RangeRequest { seed, ..self }
    }
}

/// One validated rectangle request — [`RangeRequest`]'s multi-attribute
/// twin, borrowing its `(lo, hi)`-per-attribute rectangle. Arity is the
/// scheme's to check (only it knows its dimension count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectRequest<'a> {
    origin: NodeId,
    rect: &'a [(f64, f64)],
    seed: u64,
}

impl<'a> RectRequest<'a> {
    /// Validates every per-attribute range and builds the request.
    ///
    /// # Errors
    ///
    /// [`SchemeError::EmptyRange`] for the first attribute with `lo > hi`
    /// or a NaN bound.
    pub fn new(origin: NodeId, rect: &'a [(f64, f64)], seed: u64) -> Result<Self, SchemeError> {
        rect.iter().try_for_each(|&(lo, hi)| check_bounds(lo, hi))?;
        Ok(RectRequest { origin, rect, seed })
    }

    /// The querying peer.
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    /// One `(lo, hi)` per attribute.
    pub fn rect(&self) -> &'a [(f64, f64)] {
        self.rect
    }

    /// Seed for schemes with internal randomness.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// NaN compares false against everything, so `lo <= hi` rejects it along
/// with inverted bounds: a range with a NaN bound holds no value.
fn check_bounds(lo: f64, hi: f64) -> Result<(), SchemeError> {
    if lo <= hi {
        Ok(())
    } else {
        Err(SchemeError::EmptyRange { lo, hi })
    }
}

/// Everything a query may carry besides the request itself: the caller's
/// reusable buffers, a fault plan to inject, and a trace to fill. Wrappers
/// hand the same context down their stack, so an axis set at the top
/// reaches the engine at the bottom.
pub struct QueryCtx<'a> {
    /// Reusable per-thread buffers. Drivers own one per worker and pass it
    /// to every query on that thread; reuse may only move allocation
    /// counts, never an outcome.
    pub scratch: &'a mut simnet::QueryScratch,
    /// The fault plan to run under (message drops, crashed responders,
    /// loss/partition/rate-limit families); `None` for a fault-free query.
    pub faults: Option<&'a simnet::FaultPlan>,
    /// Where to write the query's observability record; `None` skips
    /// tracing. Tracing observes, never perturbs: the outcome is the same
    /// either way.
    pub trace: Option<&'a mut crate::QueryTrace>,
}

impl<'a> QueryCtx<'a> {
    /// A plain context: scratch only, no faults, no trace.
    pub fn new(scratch: &'a mut simnet::QueryScratch) -> Self {
        QueryCtx { scratch, faults: None, trace: None }
    }

    /// Runs the query under `faults`.
    pub fn with_faults(mut self, faults: &'a simnet::FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Records the query into `trace`.
    pub fn with_trace(mut self, trace: &'a mut crate::QueryTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// For schemes without a native fault path: accepts an absent or
    /// fault-free plan, refuses one that injects.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Unsupported`] naming `scheme` when the plan injects
    /// faults.
    pub fn refuse_faults(&self, scheme: &str) -> Result<(), SchemeError> {
        match self.faults {
            Some(plan) if !plan.is_fault_free() => Err(SchemeError::Unsupported {
                scheme: scheme.to_string(),
                feature: "fault injection",
            }),
            _ => Ok(()),
        }
    }

    /// For schemes with a native fault path over `n` live peers, `is_live`
    /// telling them apart: the plan to simulate under. A plan crashing an
    /// id that names no live peer — one past the ids ever handed out, or a
    /// departed peer's freed slot on a churned network — would silently be
    /// a no-op (nothing routes to it), so it is rejected. `n` only feeds
    /// the error. The check asks `is_live` once per crashed id, so a query
    /// pays time linear in the plan's crash list (none for a plan that
    /// only drops, loses or partitions messages).
    ///
    /// # Errors
    ///
    /// [`SchemeError::FaultPlanOutOfRange`] naming the smallest offender.
    pub fn faults_within(
        &self,
        n: usize,
        is_live: impl Fn(NodeId) -> bool,
    ) -> Result<Option<&'a simnet::FaultPlan>, SchemeError> {
        match self.faults.and_then(|plan| plan.first_not_live(is_live)) {
            Some(node) => Err(SchemeError::FaultPlanOutOfRange { node, n }),
            None => Ok(self.faults),
        }
    }

    /// Fills the requested trace (if any) with the analytic decomposition
    /// of `outcome` — see [`QueryTrace::modeled`](crate::QueryTrace::modeled).
    pub fn trace_modeled(&mut self, label: &str, origin: NodeId, outcome: &RangeOutcome) {
        if let Some(trace) = self.trace.as_deref_mut() {
            *trace = crate::QueryTrace::modeled(label, origin, outcome);
        }
    }

    /// Fills the requested trace (if any) from the event stream a
    /// simulation-backed engine recorded for `outcome` — see
    /// [`QueryTrace::from_sim_records`](crate::QueryTrace::from_sim_records).
    pub fn trace_sim_records(
        &mut self,
        label: &str,
        records: Option<Vec<simnet::TraceRecord>>,
        outcome: &RangeOutcome,
    ) {
        if let (Some(trace), Some(records)) = (self.trace.as_deref_mut(), records) {
            *trace = crate::QueryTrace::from_sim_records(label, records, outcome);
        }
    }
}

/// A single-attribute range-query scheme: publish `(value, handle)` records,
/// answer `[lo, hi]` queries with a [`RangeOutcome`].
///
/// Implementations exist for all seven schemes of the paper's Table 1:
/// Armada/PIRA, the sequential-walk reference, DCF-CAN (directed and naive
/// flooding), PHT (over FissionE and over Chord), Skip Graph, Squid, and
/// SCRAP (the latter two as one-attribute builds of their native
/// [`MultiRangeScheme`] behind [`OneAttribute`]).
///
/// # Two query methods
///
/// The trait has the `Read::read` / `read_vectored` shape. A scheme
/// implements **one** of:
///
/// * [`query`](Self::query) — the full surface: a validated
///   [`RangeRequest`] plus a [`QueryCtx`] carrying scratch, faults and
///   trace in one call. Engines (the simulation-backed schemes) and the
///   wrappers implement only this; the provided
///   [`range_query`](Self::range_query) validates its bounds and runs it on
///   a fresh [`QueryScratch`](simnet::QueryScratch).
/// * [`range_query`](Self::range_query) — the plain positional call. An
///   analytic scheme implements only this; the provided `query` answers a
///   plain request through it, fills a requested trace with a modeled
///   decomposition, and refuses a fault plan that injects.
///
/// Both are provided, each through the other, so a scheme implementing
/// neither compiles: its first query recurses, as with `Read`. A debug
/// build panics there with "implement `query` or `range_query`"; a release
/// build overflows the stack. [`MultiRangeScheme`] has no such trap: its
/// `query` is required.
///
/// An engine implements only `query`, keeping its buffers in the
/// caller's scratch; the positional calls answer through it:
///
/// ```
/// # use dht_api::{OutcomeCosts, QueryCtx, QueryTrace, RangeOutcome, RangeRequest, RangeScheme, SchemeError};
/// /// Four peers holding the handles 0, 10, 20 and 30 at those values.
/// struct Engine;
/// impl RangeScheme for Engine {
/// #     fn scheme_name(&self) -> &'static str { "engine" }
/// #     fn substrate(&self) -> String { "local".into() }
/// #     fn degree(&self) -> String { "1".into() }
/// #     fn node_count(&self) -> usize { 4 }
/// #     fn publish(&mut self, _: f64, _: u64) -> Result<(), SchemeError> { Ok(()) }
/// #     fn random_origin(&self, _: &mut rand::rngs::SmallRng) -> usize { 0 }
///     fn query(&self, req: &RangeRequest, cx: &mut QueryCtx<'_>)
///         -> Result<RangeOutcome, SchemeError> {
///         cx.refuse_faults("engine")?;
///         let hits = cx.scratch.slot::<Vec<u64>>();
///         hits.clear();
///         let held = [0, 10, 20, 30].into_iter();
///         hits.extend(held.filter(|&v| (req.lo()..=req.hi()).contains(&(v as f64))));
///         let costs = OutcomeCosts { hops: 1, latency: 1, messages: hits.len() as u64 };
///         let out = RangeOutcome::from_native(hits.clone(), costs, hits.len(), hits.len(), true);
///         cx.trace_modeled("engine", req.origin(), &out);
///         Ok(out)
///     }
/// }
/// // The plain call…
/// let outcome = Engine.range_query(0, 5.0, 25.0, 1)?;
/// assert_eq!(outcome.results, vec![10, 20]);
/// assert!(outcome.mesg_ratio() >= 1.0); // messages per useful peer
///
/// // …answers bit-identically with a reused scratch, and with a trace.
/// let mut scratch = simnet::QueryScratch::new();
/// for _ in 0..2 {
///     assert_eq!(Engine.range_query_scratch(0, 5.0, 25.0, 1, &mut scratch)?, outcome);
/// }
/// let mut trace = QueryTrace::default();
/// let request = RangeRequest::new(0, 5.0, 25.0, 1)?;
/// let traced = Engine.query(&request, &mut QueryCtx::new(&mut scratch).with_trace(&mut trace))?;
/// assert_eq!(traced, outcome); // tracing observes, never perturbs
/// assert_eq!(trace.root.total(), (outcome.delay, outcome.latency, outcome.messages));
///
/// // Malformed bounds never reach a scheme: the request refuses them.
/// assert!(matches!(RangeRequest::new(0, 25.0, 5.0, 1), Err(SchemeError::EmptyRange { .. })));
/// assert!(matches!(Engine.range_query(0, f64::NAN, 5.0, 1), Err(SchemeError::EmptyRange { .. })));
/// # Ok::<(), SchemeError>(())
/// ```
///
/// # Thread safety
///
/// `Send + Sync` are supertraits: queries take `&self` and must not mutate
/// scheme state (all mutation happens through `publish` before measuring),
/// so one built instance can be shared by reference across the worker
/// threads of [`ParallelDriver`](crate::ParallelDriver). Implementations
/// satisfy this for free as long as they avoid interior mutability
/// (`RefCell`, `Cell`, un-synchronized statics) — which every scheme in the
/// workspace does; per-query randomness comes in through the `seed`
/// argument instead.
pub trait RangeScheme: Send + Sync {
    /// Registry name of the scheme (e.g. `"pira"`, `"dcf-can"`).
    fn scheme_name(&self) -> &'static str;

    /// Human-readable substrate description for comparison tables.
    fn substrate(&self) -> String;

    /// Degree figure for comparison tables: measured mean where the
    /// simulation has real neighbor tables, asymptotic label otherwise.
    fn degree(&self) -> String;

    /// Number of live peers/zones.
    fn node_count(&self) -> usize;

    /// Publishes a record: `handle` becomes retrievable by range queries
    /// covering `value`.
    ///
    /// # Errors
    ///
    /// Scheme-specific; uniform schemes never fail on in-domain values.
    fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError>;

    /// A uniformly random live query origin.
    fn random_origin(&self, rng: &mut rand::rngs::SmallRng) -> NodeId;

    /// Executes a plain range query over `[lo, hi]` from `origin`: fresh
    /// buffers, no faults, no trace. `seed` feeds schemes with internal
    /// randomness (tie-breaking, simulation); pure schemes ignore it.
    /// Takes `&self`: queries never mutate scheme state, which is what
    /// lets [`ParallelDriver`](crate::ParallelDriver) share one instance
    /// across threads. The provided implementation is
    /// [`range_query_scratch`](Self::range_query_scratch) on a fresh
    /// scratch; only analytic schemes override it.
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadOrigin`] for dead origins,
    /// [`SchemeError::EmptyRange`] for `lo > hi` or a NaN bound (validate
    /// with [`RangeRequest::new`]), scheme-specific wraps otherwise.
    fn range_query(
        &self,
        origin: NodeId,
        lo: f64,
        hi: f64,
        seed: u64,
    ) -> Result<RangeOutcome, SchemeError> {
        self.range_query_scratch(origin, lo, hi, seed, &mut simnet::QueryScratch::new())
    }

    /// Executes `req` under `cx` — scratch reuse, fault injection and
    /// tracing in any combination, on any stack. For identical requests
    /// the outcome is bit-identical to [`range_query`](Self::range_query)
    /// whatever scratch or trace the context carries; a filled trace's
    /// [`total`](crate::CostNode::total) reproduces the outcome's
    /// `delay`/`latency`/`messages` exactly.
    ///
    /// # Errors
    ///
    /// As [`range_query`](Self::range_query); the provided implementation
    /// adds [`SchemeError::Unsupported`] for a plan that injects faults.
    fn query(
        &self,
        req: &RangeRequest,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
        cx.refuse_faults(self.scheme_name())?;
        #[cfg(debug_assertions)]
        let depth = ProvidedQueryDepth::enter(self.scheme_name());
        let out = self.range_query(req.origin, req.lo, req.hi, req.seed)?;
        #[cfg(debug_assertions)]
        drop(depth);
        cx.trace_modeled(self.scheme_name(), req.origin, &out);
        Ok(out)
    }

    /// [`query`](Self::query) for a plain request in positional form:
    /// validate, then run with the caller's `scratch`. Not meant to be
    /// overridden.
    ///
    /// # Errors
    ///
    /// As [`query`](Self::query).
    fn range_query_scratch(
        &self,
        origin: NodeId,
        lo: f64,
        hi: f64,
        seed: u64,
        scratch: &mut simnet::QueryScratch,
    ) -> Result<RangeOutcome, SchemeError> {
        self.query(&RangeRequest::new(origin, lo, hi, seed)?, &mut QueryCtx::new(scratch))
    }

    /// Cumulative retry attempts this scheme has spent beyond each query's
    /// first try — non-zero only on the [`Hostile`](crate::Hostile)
    /// wrapper, whose drivers read the delta around a batch to account
    /// retry traffic in the metrics registry.
    fn retry_attempts(&self) -> u64 {
        0
    }

    /// The scheme's dynamics capability: `Some` when the substrate has
    /// churn primitives (join/leave/crash/stabilize), `None` otherwise.
    /// Drivers and experiments discover support at runtime through this
    /// hook — no hard-coded scheme lists.
    fn as_dynamic(&mut self) -> Option<&mut dyn crate::DynamicScheme> {
        None
    }

    /// The scheme's replica-routing capability: `Some` when the scheme can
    /// tell the replication layer where copies belong and what a point
    /// fetch costs ([`ReplicaRouting`](crate::ReplicaRouting)), `None`
    /// otherwise. The [`Replicated`](crate::Replicated) wrapper refuses
    /// construction over schemes without it.
    fn as_replica_routing(&self) -> Option<&dyn crate::ReplicaRouting> {
        None
    }

    /// The scheme's replication control surface: `Some` only on the
    /// [`Replicated`](crate::Replicated) wrapper. Drivers use this to run
    /// [`re_replicate`](crate::ReplicationControl::re_replicate) after
    /// membership events and report the repair traffic per epoch.
    fn as_replicated(&mut self) -> Option<&mut dyn crate::ReplicationControl> {
        None
    }

    /// The scheme's hostile-network control surface: `Some` only on the
    /// [`Hostile`](crate::Hostile) wrapper. Epoch drivers use it to advance
    /// the wrapped fault plan's partition epoch between query epochs —
    /// serially, between the sharded batches, so the epoch a query sees is
    /// a pure function of its global index.
    fn as_hostile(&mut self) -> Option<&mut dyn crate::HostileControl> {
        None
    }
}

/// How deep the provided [`RangeScheme::query`] nests on this thread, in
/// debug builds. It calls `range_query`, whose provided form calls `query`
/// again, so a scheme implementing neither nests without end; an analytic
/// scheme answering through another's provided `query` nests once per
/// layer. Past [`MAX_DEPTH`](Self::MAX_DEPTH) the first kind is assumed
/// and named, instead of overflowing the stack.
#[cfg(debug_assertions)]
struct ProvidedQueryDepth;

#[cfg(debug_assertions)]
thread_local! {
    static PROVIDED_QUERY_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

#[cfg(debug_assertions)]
impl ProvidedQueryDepth {
    const MAX_DEPTH: u32 = 16;

    /// Enters one level (left when the guard drops, unwinding included).
    ///
    /// # Panics
    ///
    /// Past `MAX_DEPTH` levels on this thread.
    fn enter(scheme: &str) -> ProvidedQueryDepth {
        let depth = PROVIDED_QUERY_DEPTH.with(|d| {
            d.set(d.get() + 1);
            d.get()
        });
        let guard = ProvidedQueryDepth;
        assert!(
            depth <= Self::MAX_DEPTH,
            "scheme `{scheme}` recursed between the provided `RangeScheme::query` and \
             `range_query`: implement `query` or `range_query`"
        );
        guard
    }
}

#[cfg(debug_assertions)]
impl Drop for ProvidedQueryDepth {
    fn drop(&mut self) {
        PROVIDED_QUERY_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// A multi-attribute range-query scheme: publish points, answer
/// hyper-rectangle queries.
///
/// Implemented by Armada/MIRA, Squid, and SCRAP. Every one is an engine,
/// so [`query`](Self::query) is the one method a scheme implements for
/// queries; [`rect_query`](Self::rect_query) is the positional call
/// through it.
///
/// # Thread safety
///
/// `Send + Sync` are supertraits under the same contract as
/// [`RangeScheme`]: queries take `&self`, so built instances shard
/// across [`ParallelDriver`](crate::ParallelDriver) threads by reference.
pub trait MultiRangeScheme: Send + Sync {
    /// Registry name of the scheme (e.g. `"mira"`, `"squid"`).
    fn scheme_name(&self) -> &'static str;

    /// Human-readable substrate description for comparison tables.
    fn substrate(&self) -> String;

    /// Degree figure for comparison tables.
    fn degree(&self) -> String;

    /// Number of live peers.
    fn node_count(&self) -> usize;

    /// Number of attributes the scheme was built with.
    fn dims(&self) -> usize;

    /// Publishes a record at an attribute point.
    ///
    /// # Errors
    ///
    /// [`SchemeError::WrongArity`] when `point.len() != dims()`.
    fn publish_point(&mut self, point: &[f64], handle: u64) -> Result<(), SchemeError>;

    /// A uniformly random live query origin.
    fn random_origin(&self, rng: &mut rand::rngs::SmallRng) -> NodeId;

    /// Executes `req` under `cx`, with the contract of
    /// [`RangeScheme::query`]: scratch reuse, fault injection and tracing
    /// in any combination, the outcome bit-identical whatever scratch or
    /// trace the context carries. A scheme without a native fault path
    /// refuses an injecting plan ([`QueryCtx::refuse_faults`]) and fills a
    /// requested trace itself ([`QueryCtx::trace_modeled`]).
    ///
    /// # Errors
    ///
    /// [`SchemeError::WrongArity`] on arity mismatch,
    /// [`SchemeError::BadOrigin`] for dead origins,
    /// [`SchemeError::Unsupported`] for an injecting plan the scheme
    /// cannot simulate, scheme-specific wraps otherwise.
    fn query(
        &self,
        req: &RectRequest<'_>,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError>;

    /// Executes a plain rectangle query (one `(lo, hi)` per attribute):
    /// validate, then [`query`](Self::query) on a fresh scratch. Not meant
    /// to be overridden.
    ///
    /// # Errors
    ///
    /// As [`query`](Self::query), plus [`SchemeError::EmptyRange`] for a
    /// per-attribute range with `lo > hi` or a NaN bound (validate with
    /// [`RectRequest::new`]).
    fn rect_query(
        &self,
        origin: NodeId,
        rect: &[(f64, f64)],
        seed: u64,
    ) -> Result<RangeOutcome, SchemeError> {
        let req = RectRequest::new(origin, rect, seed)?;
        self.query(&req, &mut QueryCtx::new(&mut simnet::QueryScratch::new()))
    }
}

/// A one-attribute [`MultiRangeScheme`] seen as a [`RangeScheme`]: how a
/// rectangle-native scheme (Squid, SCRAP) joins the single-attribute
/// tables under its own name.
///
/// `publish(v, h)` is `publish_point(&[v], h)` and a `[lo, hi]` query is
/// the rectangle `[(lo, hi)]`, run under the caller's [`QueryCtx`] (so a
/// driver's scratch reaches the wrapped scheme); the name, labels, node
/// count and origin are the wrapped scheme's. Every capability hook keeps
/// its default (`None` / `false`), so the adapter refuses faults,
/// replication and churn exactly as a scheme without them does.
///
/// ```
/// # use dht_api::{MultiRangeScheme, OneAttribute, QueryCtx, RangeOutcome, RangeScheme, RectRequest, SchemeError};
/// # struct Line(usize);
/// # impl MultiRangeScheme for Line {
/// #     fn scheme_name(&self) -> &'static str { "line" }
/// #     fn substrate(&self) -> String { "local".into() }
/// #     fn degree(&self) -> String { "0".into() }
/// #     fn node_count(&self) -> usize { 1 }
/// #     fn dims(&self) -> usize { self.0 }
/// #     fn publish_point(&mut self, _: &[f64], _: u64) -> Result<(), SchemeError> { Ok(()) }
/// #     fn random_origin(&self, _: &mut rand::rngs::SmallRng) -> usize { 0 }
/// #     fn query(&self, _: &RectRequest<'_>, _: &mut QueryCtx<'_>)
/// #         -> Result<RangeOutcome, SchemeError> {
/// #         Ok(RangeOutcome { results: vec![7], delay: 1, latency: 1, messages: 1,
/// #             dest_peers: 1, reached_peers: 1, exact: true })
/// #     }
/// # }
/// let scheme = OneAttribute::new(Box::new(Line(1)))?;
/// assert_eq!(scheme.scheme_name(), "line");
/// assert_eq!(scheme.range_query(0, 10.0, 20.0, 0)?.results, vec![7]);
/// // A rectangle of two attributes has no single-attribute reading.
/// assert!(matches!(
///     OneAttribute::new(Box::new(Line(2))).map(|_| ()),
///     Err(SchemeError::WrongArity { expected: 1, got: 2 })
/// ));
/// # Ok::<(), SchemeError>(())
/// ```
pub struct OneAttribute(Box<dyn MultiRangeScheme>);

impl OneAttribute {
    /// Wraps `inner`.
    ///
    /// # Errors
    ///
    /// [`SchemeError::WrongArity`] unless `inner` has exactly one attribute.
    pub fn new(inner: Box<dyn MultiRangeScheme>) -> Result<Self, SchemeError> {
        match inner.dims() {
            1 => Ok(OneAttribute(inner)),
            got => Err(SchemeError::WrongArity { expected: 1, got }),
        }
    }
}

impl RangeScheme for OneAttribute {
    fn scheme_name(&self) -> &'static str {
        self.0.scheme_name()
    }

    fn substrate(&self) -> String {
        self.0.substrate()
    }

    fn degree(&self) -> String {
        self.0.degree()
    }

    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError> {
        self.0.publish_point(&[value], handle)
    }

    fn random_origin(&self, rng: &mut rand::rngs::SmallRng) -> NodeId {
        self.0.random_origin(rng)
    }

    fn query(
        &self,
        req: &RangeRequest,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
        let rect = [(req.lo, req.hi)];
        self.0.query(&RectRequest { origin: req.origin, rect: &rect, seed: req.seed }, cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(messages: u64, dest: usize, reached: usize) -> RangeOutcome {
        RangeOutcome::from_native(
            vec![],
            OutcomeCosts { hops: 3, latency: 3, messages },
            dest,
            reached,
            dest == reached,
        )
    }

    #[test]
    fn ratios_match_paper_definitions() {
        assert_eq!(outcome(20, 10, 10).mesg_ratio(), 2.0);
        assert_eq!(outcome(20, 0, 0).mesg_ratio(), 0.0);
        // (20 - log2(1024)) / (6 - 1) = 2.
        assert_eq!(outcome(20, 6, 6).incre_ratio(1024), 2.0);
        assert_eq!(outcome(20, 1, 1).incre_ratio(1024), 0.0);
        assert_eq!(outcome(5, 4, 3).peer_recall(), 0.75);
        assert_eq!(outcome(5, 0, 0).peer_recall(), 1.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "implement `query` or `range_query`")]
    fn a_scheme_implementing_neither_query_method_is_named_in_debug() {
        struct Neither;
        impl RangeScheme for Neither {
            fn scheme_name(&self) -> &'static str {
                "neither"
            }
            fn substrate(&self) -> String {
                "local".into()
            }
            fn degree(&self) -> String {
                "0".into()
            }
            fn node_count(&self) -> usize {
                1
            }
            fn publish(&mut self, _: f64, _: u64) -> Result<(), SchemeError> {
                Ok(())
            }
            fn random_origin(&self, _: &mut rand::rngs::SmallRng) -> NodeId {
                0
            }
        }
        let _ = Neither.range_query(0, 0.0, 1.0, 0);
    }

    #[test]
    fn errors_render_usefully() {
        let e = SchemeError::UnknownScheme { name: "nope".into(), kind: "single" };
        assert!(e.to_string().contains("nope"));
        assert!(SchemeError::EmptyRange { lo: 5.0, hi: 1.0 }.to_string().contains("[5, 1]"));
        assert!(SchemeError::WrongArity { expected: 2, got: 3 }.to_string().contains("2"));
    }

    #[test]
    fn requests_reject_inverted_and_nan_bounds_only() {
        let empty = |r: Result<_, SchemeError>| matches!(r, Err(SchemeError::EmptyRange { .. }));
        for (lo, hi) in [(5.0, 1.0), (f64::NAN, 1.0), (1.0, f64::NAN), (f64::NAN, f64::NAN)] {
            assert!(empty(RangeRequest::new(0, lo, hi, 0).map(|_| ())), "[{lo}, {hi}]");
            assert!(empty(RectRequest::new(0, &[(0.0, 1.0), (lo, hi)], 0).map(|_| ())));
        }
        // Points, infinities and out-of-domain bounds are the schemes' to clamp.
        for (lo, hi) in [(2.0, 2.0), (f64::NEG_INFINITY, f64::INFINITY), (-1e9, 1e9)] {
            assert!(RangeRequest::new(0, lo, hi, 0).is_ok(), "[{lo}, {hi}]");
            assert!(RectRequest::new(0, &[(lo, hi)], 0).is_ok());
        }
        assert_eq!(RangeRequest::new(3, 1.0, 2.0, 9).unwrap().with_seed(4).seed(), 4);
    }
}
