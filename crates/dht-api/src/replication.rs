//! The replication layer: deterministic replica placement, quorum-style
//! range reads, and post-churn repair — composable over any scheme.
//!
//! The paper's evaluation treats recall loss under faults as a given (§4.3.3
//! measures *peer recall* but never tries to win it back), and the churn
//! experiments confirm it: every dynamic scheme's recall collapses between
//! crash events and `stabilize()`. Real DHT deployments close that gap with
//! record replication — garage's sharded replica sets over the ring and
//! maidsafe's close-group replication near the target address are the two
//! classic disciplines — and this module makes that a first-class,
//! scheme-generic capability:
//!
//! * [`ReplicaPolicy`] — a named, deterministic placement policy: `none`,
//!   `successor-r` (consistent-hash ring walk over the live peer set, the
//!   garage/Dynamo discipline) or `neighbor-set-r` (the substrate's close
//!   group around the primary owner, the maidsafe discipline).
//! * [`ReplicaRouting`] — what a scheme exposes so the layer can place and
//!   read replicas: the live membership, the substrate's close group and
//!   honest point-fetch cost accounting. Schemes opt in through
//!   [`RangeScheme::as_replica_routing`].
//! * [`Replicated`] — the wrapper: composes over any boxed [`RangeScheme`],
//!   publishes each record to `r` deterministically chosen owners, answers
//!   range queries from *any live replica* when the primary path comes back
//!   short (extra messages and the second-phase delay are counted in the
//!   [`RangeOutcome`]), and re-replicates after membership events.
//! * [`ReplicationControl`] / [`ReplicaRepair`] — the control surface
//!   drivers use ([`RangeScheme::as_replicated`]) to trigger
//!   [`re_replicate`](ReplicationControl::re_replicate) after churn and
//!   report the repair traffic as a per-epoch series.
//!
//! # Layout
//!
//! [`Replicated`] keeps its records in flat columns: the published
//! `(value, handle)` pairs in publish order, the same records in value
//! order (sorted by the first query after a publish), and the replica
//! holders at `r − 1` slots per record. A query's ground truth is one slice
//! of the value column; a primary answer as long as that slice needs no
//! fetch, and otherwise the records it missed are priced as one fetch
//! phase, in one [`ReplicaRouting::fetch_costs`] call.
//!
//! # Determinism and monotonicity
//!
//! Placement is a pure function of `(policy, record value, live peer set)`;
//! repair iterates records in publish order; nothing draws from an RNG. Two
//! consequences the workspace tests pin: epoch-driven reports stay
//! **bitwise identical for any thread count**, and under `successor-r`
//! placement the owner list for factor `r` is a *prefix* of the list for
//! `r + 1`, so the set of records recoverable mid-churn grows monotonically
//! with the replication factor — the recall-vs-replication trade-off the
//! `replication_sweep` experiment measures.
//!
//! # What repair may assume
//!
//! Like the schemes' own `repair_records` sweeps, the wrapper keeps the
//! published record table as durable ground truth, and repair is modeled
//! as **loss-free re-publication from that table**: `re_replicate` places
//! copies at the freshly-computed owners whether or not a live copy
//! survived the epoch's crashes (the same assumption every substrate's
//! `stabilize` repair already makes — a record whose primary *and* all
//! replicas died in one event batch still comes back at the next repair
//! pass). What replication factors trade off is therefore the *window*,
//! not permanent loss: copies held by crashed or departed peers are gone
//! until repair runs, and queries inside that window — exactly what the
//! recall experiments measure — only recover records that still have a
//! live holder.

use crate::dynamics::DynamicScheme;
use crate::scheme::{QueryCtx, RangeOutcome, RangeRequest, RangeScheme, SchemeError};
use rand::rngs::SmallRng;
use simnet::{NodeId, QueryScratch};
use std::cmp::Ordering;
use std::sync::OnceLock;

/// Salt separating replica-fetch drop draws from every other seeded
/// stream (workload, origin, churn).
const FETCH_SALT: u64 = 0xfe7c_fe7c_fe7c_fe7c;

/// Replica placement disciplines a [`ReplicaPolicy`] can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaKind {
    /// No replication: the primary copy is the only copy.
    None,
    /// Consistent-hash ring walk: the record's key is hashed to a point on
    /// a ring of live-peer positions and the `r` peers clockwise from it
    /// hold the copies (garage / Dynamo style).
    Successor,
    /// The substrate's close group: the primary owner plus its `r − 1`
    /// nearest peers in the overlay's own distance metric (maidsafe style).
    NeighborSet,
}

/// A named, deterministic replica placement policy: the kind plus the
/// replication factor `r` (total copies, primary included).
///
/// # Example
///
/// ```
/// use dht_api::ReplicaPolicy;
///
/// let p = ReplicaPolicy::named("successor-3").unwrap();
/// assert_eq!(p.factor(), 3);
/// assert_eq!(p.name(), "successor-3");
/// // Registry-suffix shorthand parses to the same policies.
/// assert_eq!(ReplicaPolicy::named("r3").unwrap(), p);
/// assert_eq!(
///     ReplicaPolicy::named("ns2").unwrap(),
///     ReplicaPolicy::named("neighbor-set-2").unwrap()
/// );
/// assert!(ReplicaPolicy::named("none").unwrap().is_none());
/// assert!(ReplicaPolicy::named("quorum-9").is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaPolicy {
    kind: ReplicaKind,
    factor: usize,
}

impl Default for ReplicaPolicy {
    fn default() -> Self {
        ReplicaPolicy::none()
    }
}

impl ReplicaPolicy {
    /// The no-replication policy (factor 1).
    pub fn none() -> Self {
        ReplicaPolicy { kind: ReplicaKind::None, factor: 1 }
    }

    /// Successor placement with `r` total copies (clamped to at least 1).
    pub fn successor(r: usize) -> Self {
        ReplicaPolicy { kind: ReplicaKind::Successor, factor: r.max(1) }
    }

    /// Close-group placement with `r` total copies (clamped to at least 1).
    pub fn neighbor_set(r: usize) -> Self {
        ReplicaPolicy { kind: ReplicaKind::NeighborSet, factor: r.max(1) }
    }

    /// Parses a policy name: `none`, `successor-R`, `neighbor-set-R`, or
    /// the registry-suffix shorthands `rR` / `nsR` (as in `"pira+r3"`).
    ///
    /// # Errors
    ///
    /// [`SchemeError::UnknownReplicaPolicy`] for anything else.
    pub fn named(name: &str) -> Result<Self, SchemeError> {
        let unknown = || SchemeError::UnknownReplicaPolicy { name: name.to_string() };
        if name == "none" {
            return Ok(ReplicaPolicy::none());
        }
        let (kind, digits) = if let Some(d) = name.strip_prefix("successor-") {
            (ReplicaKind::Successor, d)
        } else if let Some(d) = name.strip_prefix("neighbor-set-") {
            (ReplicaKind::NeighborSet, d)
        } else if let Some(d) = name.strip_prefix("ns") {
            (ReplicaKind::NeighborSet, d)
        } else if let Some(d) = name.strip_prefix('r') {
            (ReplicaKind::Successor, d)
        } else {
            return Err(unknown());
        };
        let factor: usize = digits.parse().map_err(|_| unknown())?;
        if factor == 0 {
            return Err(unknown());
        }
        Ok(ReplicaPolicy { kind, factor })
    }

    /// The canonical policy name (`"none"`, `"successor-3"`, …).
    pub fn name(&self) -> String {
        match self.kind {
            ReplicaKind::None => "none".to_string(),
            ReplicaKind::Successor => format!("successor-{}", self.factor),
            ReplicaKind::NeighborSet => format!("neighbor-set-{}", self.factor),
        }
    }

    /// The placement discipline.
    pub fn kind(&self) -> ReplicaKind {
        self.kind
    }

    /// Total copies per record, primary included (always ≥ 1).
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// Whether the policy places no extra copies (kind `none`, or any kind
    /// at factor 1).
    pub fn is_none(&self) -> bool {
        self.kind == ReplicaKind::None || self.factor <= 1
    }
}

/// A peer's position on the consistent-hash ring — a pure function of the
/// node id, so positions survive churn (only a changed peer's own arc
/// moves, the property consistent hashing exists for).
fn ring_position(node: NodeId) -> u64 {
    crate::fnv1a(&(node as u64).to_le_bytes())
}

/// The consistent-hash ring over one live peer set: `(position, peer)`
/// pairs in position order. Building it is the `O(N log N)` part of
/// placement; [`Replicated`] keeps one and rebuilds it only after a
/// membership change.
struct Ring(Vec<(u64, NodeId)>);

impl Ring {
    fn new(live: &[NodeId]) -> Self {
        let mut ring: Vec<(u64, NodeId)> = live.iter().map(|&n| (ring_position(n), n)).collect();
        ring.sort_unstable();
        Ring(ring)
    }

    /// Appends the first `r` peers clockwise from `key`'s ring point
    /// (fewer when the ring is smaller) to `out`: one binary search, then a
    /// walk.
    fn owners_into(&self, key: u64, r: usize, out: &mut Vec<NodeId>) {
        let ring = &self.0;
        let point = crate::fnv1a(&key.to_le_bytes());
        let start = ring.partition_point(|&(p, _)| p < point);
        out.extend((0..r.min(ring.len())).map(|i| ring[(start + i) % ring.len()].1));
    }
}

/// Successor-style owner selection over a live peer set: hash `key` to a
/// ring point, take the first `r` live peers clockwise from it.
///
/// The returned list for `r` is always a **prefix** of the list for
/// `r + 1` — the property that makes recall monotone in the replication
/// factor under identical churn histories.
pub fn ring_owners(live: &[NodeId], key: u64, r: usize) -> Vec<NodeId> {
    let mut owners = Vec::new();
    Ring::new(live).owners_into(key, r, &mut owners);
    owners
}

/// Hashes a record's attribute value into the opaque key space replica
/// placement works over (bit-exact, so `0.1` and `0.1` always co-locate).
pub fn value_key(value: f64) -> u64 {
    crate::fnv1a(&value.to_bits().to_le_bytes())
}

/// What a scheme exposes so the replication layer can place and read
/// replicas — the live membership, the substrate's close group, and honest
/// fetch costs.
///
/// Schemes opt in through [`RangeScheme::as_replica_routing`]; the
/// [`Replicated`] wrapper refuses construction over schemes that do not.
pub trait ReplicaRouting {
    /// All live peers, in the same deterministic order as
    /// [`DynamicScheme::live_peers`].
    fn live_peers(&self) -> Vec<NodeId>;

    /// The substrate's close group for the record keyed by `value`: the
    /// primary owner plus its `r − 1` nearest live peers in the overlay's
    /// own distance metric (e.g.
    /// [`Dht::replica_owners`](crate::Dht::replica_owners) one layer
    /// down). Distinct, primary first.
    fn close_group(&self, value: f64, r: usize) -> Vec<NodeId>;

    /// Appends the cost of a point fetch from `origin` at each holder in
    /// `holders`, in order: the overlay routing path to the holder plus
    /// one direct response hop, in hops, [`NetModel`](crate::NetModel)
    /// virtual milliseconds, and messages. One call prices a query's whole
    /// fetch phase, which leaves from one origin, however many fetches it
    /// has (and one record's copy transfers in a repair pass); a single
    /// fetch is a batch of one holder. Implementations price it with the
    /// same honesty as their query paths (real routed edges where the
    /// substrate can route to a node, the `O(log N)` lookup model
    /// otherwise — with latency accumulated over the same edges the hop
    /// figure counts). A substrate whose routes from one origin share hops
    /// may walk them together — FissionE walks one route tree — keeping its
    /// buffers in `scratch`, so long as every cost equals the fetch's
    /// priced alone (debug builds of [`Replicated`] hold each cost against
    /// a batch of that holder alone).
    fn fetch_costs(
        &self,
        origin: NodeId,
        holders: &[NodeId],
        scratch: &mut QueryScratch,
        costs: &mut Vec<FetchCost>,
    );
}

/// The cost of one replica point fetch (or copy transfer): the overlay
/// routing path to the holder plus one direct response hop, in all three
/// cost currencies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchCost {
    /// Overlay hops on the critical path (request routing + response).
    pub hops: u64,
    /// Virtual milliseconds under the scheme's
    /// [`NetModel`](crate::NetModel), accumulated over the same edges.
    pub latency: u64,
    /// Protocol messages sent.
    pub messages: u64,
}

/// What one repair pass did: copies placed, stale copies dropped, and the
/// messages the traffic cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaRepair {
    /// Replica copies newly placed on live owners.
    pub placed: usize,
    /// Stale copies retired from live peers that are no longer owners.
    pub dropped: usize,
    /// Protocol messages the pass sent (copy transfers + retirements).
    pub messages: u64,
    /// Critical-path virtual milliseconds of the pass: transfers run in
    /// parallel, so this is the slowest single copy transfer under the
    /// scheme's [`NetModel`](crate::NetModel).
    pub latency: u64,
}

impl ReplicaRepair {
    /// Total repair operations (placements + retirements).
    pub fn ops(&self) -> usize {
        self.placed + self.dropped
    }
}

/// The control surface of a replicated scheme, discovered at runtime via
/// [`RangeScheme::as_replicated`] — how
/// [`ParallelDriver::run_epochs`](crate::ParallelDriver::run_epochs)
/// triggers repair after membership events and reports its traffic.
pub trait ReplicationControl {
    /// The active placement policy.
    fn policy(&self) -> &ReplicaPolicy;

    /// Restores the replica invariant: every record's copies sit at its
    /// currently-computed owners. Returns what the pass did; a second call
    /// with no intervening membership change returns all zeros
    /// (idempotency, pinned by `tests/repair_idempotency.rs`).
    fn re_replicate(&mut self) -> ReplicaRepair;

    /// Replica copies currently placed (primaries not counted).
    fn replica_count(&self) -> usize;

    /// Human-readable label, e.g. `"pira+successor-3"`.
    fn label(&self) -> String;
}

/// A replicated scheme: any boxed [`RangeScheme`] wrapped with
/// policy-driven replica placement, replica-served range reads, and
/// post-churn repair.
///
/// Build one directly, or through the registry with a
/// [`BuildParams::replication`](crate::BuildParams) policy or a
/// `"pira+r3"`-style name suffix.
///
/// # Outcome semantics
///
/// The wrapper reinterprets completeness at *data* granularity: when the
/// primary path misses records that a live replica still holds, the
/// wrapper fetches them (one point fetch per record, priced by
/// [`ReplicaRouting::fetch_costs`]), adds the fetch messages to
/// [`RangeOutcome::messages`], extends [`RangeOutcome::delay`] by the
/// slowest fetch (the fetch phase starts after the primary phase
/// completes), and scales [`RangeOutcome::reached_peers`] by the recovered
/// fraction of the missing records — full recovery restores
/// `exact == true` and `peer_recall == 1.0`.
pub struct Replicated {
    inner: Box<dyn RangeScheme>,
    policy: ReplicaPolicy,
    /// Every record ever published, in publish order — the ground truth
    /// queries are checked against and repair re-replicates from.
    published: Vec<(f64, u64)>,
    /// The peers holding a replica of each record, `r − 1` slots per record
    /// in publish order: record `i`'s holders are the first `held[i]` slots
    /// from `i · (r − 1)`, in placement order (the primary copy lives inside
    /// the inner scheme and is not listed).
    holders: Vec<NodeId>,
    held: Vec<u32>,
    /// The published records in value order, so a query finds its
    /// in-range records by two binary searches: sorted from `published` by
    /// the first query after a publish (a `OnceLock` because queries hold
    /// `&self` across driver threads) and dropped by the next publish.
    by_value: OnceLock<Vec<Entry>>,
    /// The successor ring over the inner scheme's live peers; `None` once
    /// a membership call may have changed them (every one passes through
    /// this wrapper, which owns the inner scheme), rebuilt on next use.
    ring: Option<Ring>,
    /// The owners `publish` places a record at, kept across calls.
    owners: Vec<NodeId>,
}

/// A published record in the value column: its value (`-0.0` folded onto
/// `0.0`), publish index and handle. Ordered by `f64::total_cmp` of the
/// value, then by publish index: that order agrees with the range
/// contract's `lo <= v && v <= hi` on every non-NaN value and sorts NaNs
/// outside every range.
#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    index: usize,
    handle: u64,
}

impl Entry {
    fn new(value: f64, index: usize, handle: u64) -> Self {
        Entry { value: fold_zero(value), index, handle }
    }
}

/// `value` with `-0.0` folded onto `0.0`.
fn fold_zero(value: f64) -> f64 {
    if value == 0.0 {
        0.0
    } else {
        value
    }
}

/// A record the primary phase missed: its publish index and handle, and
/// `slot`, the position of its handle among the distinct missing handles
/// (whether a fetch for the handle landed is kept per slot).
#[derive(Debug, Clone, Copy)]
struct Missing {
    index: usize,
    handle: u64,
    slot: usize,
}

/// The buffers of one query's fetch phase ([`Replicated::recover`]),
/// kept in a [`QueryScratch`] slot across queries.
#[derive(Default)]
struct FetchPhase {
    /// The in-range records the primary phase missed, in publish order.
    missing: Vec<Missing>,
    /// Per slot, whether a fetch for that handle landed.
    got: Vec<bool>,
    /// The fetches, in publish order: holder, and whether it lands.
    holders: Vec<NodeId>,
    lands: Vec<bool>,
    /// Their costs, in the same order.
    costs: Vec<FetchCost>,
    /// The handles that landed, ascending.
    landed: Vec<u64>,
    /// One fetch priced alone: what debug builds hold each cost against.
    alone: Vec<FetchCost>,
    /// The in-range handles, ascending and distinct: what debug builds hold
    /// the phase's answer against.
    expected: Vec<u64>,
}

impl Replicated {
    /// Wraps `inner` under `policy`.
    ///
    /// `inner` must hold no records yet: every record is published through
    /// the wrapper, which keeps them as the ground truth a query's answer
    /// is completed from, and the fetch phase takes the inner scheme's
    /// answer to be a part of the in-range records published that way. An
    /// inner scheme that answers any other handle breaks that precondition
    /// and leaves [`RangeOutcome::exact`] and the recovered answer
    /// unspecified (debug builds panic at the first such query).
    ///
    /// # Errors
    ///
    /// [`SchemeError::Unsupported`] when the inner scheme does not expose
    /// [`ReplicaRouting`] (placement would be impossible).
    pub fn new(inner: Box<dyn RangeScheme>, policy: ReplicaPolicy) -> Result<Self, SchemeError> {
        if inner.as_replica_routing().is_none() {
            return Err(SchemeError::Unsupported {
                scheme: inner.scheme_name().to_string(),
                feature: "replication",
            });
        }
        Ok(Replicated {
            inner,
            policy,
            published: Vec::new(),
            holders: Vec::new(),
            held: Vec::new(),
            by_value: OnceLock::new(),
            ring: None,
            owners: Vec::new(),
        })
    }

    /// The published records valued in `[lo, hi]`, in value order: one
    /// slice of the value column, which the first call after a publish
    /// sorts from `published` (`O(R log R)`, once per batch of publishes;
    /// concurrent first callers wait for one sort).
    fn in_range(&self, lo: f64, hi: f64) -> &[Entry] {
        let entries = self.by_value.get_or_init(|| {
            let records = self.published.iter().enumerate();
            let mut entries: Vec<Entry> =
                records.map(|(index, &(value, handle))| Entry::new(value, index, handle)).collect();
            entries
                .sort_unstable_by(|a, b| a.value.total_cmp(&b.value).then(a.index.cmp(&b.index)));
            entries
        });
        let (lo, hi) = (fold_zero(lo), fold_zero(hi));
        let start = entries.partition_point(|e| e.value.total_cmp(&lo) == Ordering::Less);
        let end = entries.partition_point(|e| e.value.total_cmp(&hi) != Ordering::Greater);
        &entries[start..end.max(start)]
    }

    /// The wrapped scheme.
    pub fn inner(&self) -> &dyn RangeScheme {
        self.inner.as_ref()
    }

    /// The peers currently holding a replica of the `record`-th published
    /// record, in placement order (the primary copy lives inside the inner
    /// scheme and is not listed).
    ///
    /// # Panics
    ///
    /// Panics when fewer than `record + 1` records were published.
    pub fn replica_holders(&self, record: usize) -> &[NodeId] {
        let base = record * self.stride();
        &self.holders[base..base + self.held[record] as usize]
    }

    /// Replica slots per record: `r − 1`.
    fn stride(&self) -> usize {
        self.policy.factor() - 1
    }

    fn routing(&self) -> &dyn ReplicaRouting {
        self.inner.as_replica_routing().expect("checked at construction")
    }

    /// Writes the policy's owners for the record keyed by `value` into
    /// `owners`, primary first — a pure function of `(value, policy, live
    /// membership)`: [`ReplicaKind::Successor`] walks the cached ring (the
    /// same list [`ring_owners`] computes over
    /// [`ReplicaRouting::live_peers`]), [`ReplicaKind::NeighborSet`] asks
    /// the substrate for its [`close_group`](ReplicaRouting::close_group).
    fn owners_into(&mut self, value: f64, owners: &mut Vec<NodeId>) {
        owners.clear();
        let routing = self.inner.as_replica_routing().expect("checked at construction");
        let r = self.policy.factor();
        match self.policy.kind() {
            ReplicaKind::None => {}
            ReplicaKind::Successor => self
                .ring
                .get_or_insert_with(|| Ring::new(&routing.live_peers()))
                .owners_into(value_key(value), r, owners),
            ReplicaKind::NeighborSet => owners.extend(routing.close_group(value, r)),
        }
        assert!(owners.len() <= r, "a placement names at most r = {r} owners");
    }

    /// The second query phase: fetch records the primary path missed from
    /// any live replica, with honest cost accounting. Under fault
    /// injection (`faults` present) the fetches obey part of the plan the
    /// primary phase did: holders the plan has crashed cannot serve, and
    /// each fetch is dropped with the plan's `drop_prob`, drawn from an RNG
    /// derived from the query seed so the outcome stays deterministic.
    /// Dropped fetches still cost their messages and delay. The plan's
    /// hash-verdict loss (`lossy-p`, `bursty`) and its partitions never
    /// touch a fetch.
    ///
    /// The ground truth is one slice of the value column. The primary
    /// answer is a part of it (the precondition on [`new`](Self::new)), and
    /// its handles are distinct, so one with as many results as the slice
    /// has records is that truth: such a query costs two binary searches
    /// and no fetch. Otherwise the missing records are found in one pass
    /// over the slice, and deciding and pricing are separate: in publish
    /// order (the seeded drop draws are consumed in it), each missing
    /// record's holder and whether its fetch lands are decided; the decided
    /// fetches are then priced together, in one
    /// [`ReplicaRouting::fetch_costs`] call. The phase's slowest fetch and
    /// message sum do not depend on the order fetches are priced in. Every
    /// buffer lives in `scratch`, so the phase allocates nothing per query
    /// once grown.
    ///
    /// When `fetch_log` is present every attempted fetch is recorded as
    /// `(holder, cost, recovered)`, in publish order — the trace plane's
    /// raw material; the query outcome is identical either way.
    fn recover(
        &self,
        req: &RangeRequest,
        out: RangeOutcome,
        faults: Option<&simnet::FaultPlan>,
        scratch: &mut QueryScratch,
        fetch_log: Option<&mut Vec<(NodeId, FetchCost, bool)>>,
    ) -> RangeOutcome {
        if self.policy.is_none() {
            return out;
        }
        let mut phase = std::mem::take(scratch.slot::<FetchPhase>());
        let out = self.fetch_phase(req, out, faults, &mut phase, scratch, fetch_log);
        *scratch.slot::<FetchPhase>() = phase;
        out
    }

    /// [`recover`](Self::recover) on its buffers.
    fn fetch_phase(
        &self,
        req: &RangeRequest,
        mut out: RangeOutcome,
        faults: Option<&simnet::FaultPlan>,
        phase: &mut FetchPhase,
        scratch: &mut QueryScratch,
        mut fetch_log: Option<&mut Vec<(NodeId, FetchCost, bool)>>,
    ) -> RangeOutcome {
        use rand::Rng as _;
        let FetchPhase { missing, got, holders, lands, costs, landed, alone, expected } = phase;
        let origin = req.origin();
        let range = self.in_range(req.lo(), req.hi());
        if cfg!(debug_assertions) {
            // Ground truth, ascending and distinct — the same contract as
            // `RangeOutcome::results`, which the primary answer must be a
            // part of for the checks below to hold.
            expected.clear();
            expected.extend(range.iter().map(|e| e.handle));
            expected.sort_unstable();
            expected.dedup();
            assert!(
                out.results.iter().all(|h| expected.binary_search(h).is_ok()),
                "the primary phase answered a record not published through the wrapper in [{}, {}]",
                req.lo(),
                req.hi()
            );
        }
        if out.results.len() == range.len() {
            debug_assert_eq!(out.results, *expected, "the no-fetch exit missed a record");
            return out;
        }
        // `slice − results`, in publish order; a handle published twice
        // shares one slot among its records.
        missing.clear();
        missing.extend(
            range
                .iter()
                .filter(|e| out.results.binary_search(&e.handle).is_err())
                .map(|e| Missing { index: e.index, handle: e.handle, slot: 0 }),
        );
        missing.sort_unstable_by_key(|m| (m.handle, m.index));
        let mut slots = 0;
        for i in 0..missing.len() {
            slots += usize::from(i == 0 || missing[i - 1].handle != missing[i].handle);
            missing[i].slot = slots - 1;
        }
        missing.sort_unstable_by_key(|m| m.index);
        got.clear();
        got.resize(slots, false);
        let mut fault_state =
            faults.map(|plan| (plan, simnet::rng_from_seed(req.seed() ^ FETCH_SALT)));
        holders.clear();
        lands.clear();
        landed.clear();
        for m in missing.iter() {
            if got[m.slot] {
                continue;
            }
            let mut copies = self.replica_holders(m.index).iter().copied();
            let holder = match &fault_state {
                None => copies.next(),
                Some((plan, _)) => copies.find(|&h| !plan.is_crashed(h)),
            };
            let Some(holder) = holder else { continue };
            let mut lands_here = true;
            if let Some((plan, rng)) = &mut fault_state {
                if plan.drop_prob() > 0.0 && rng.gen::<f64>() < plan.drop_prob() {
                    lands_here = false; // paid for, lost in transit
                }
            }
            got[m.slot] = lands_here;
            holders.push(holder);
            lands.push(lands_here);
            if lands_here {
                landed.push(m.handle); // and its later records are skipped
            }
        }
        let routing = self.routing();
        let (mut fetch_delay, mut fetch_latency) = (0u64, 0u64);
        costs.clear();
        if !holders.is_empty() {
            routing.fetch_costs(origin, holders, scratch, costs);
        }
        debug_assert_eq!(costs.len(), holders.len(), "one cost per fetch");
        for ((&holder, &lands_here), &cost) in holders.iter().zip(lands.iter()).zip(costs.iter()) {
            if cfg!(debug_assertions) {
                alone.clear();
                routing.fetch_costs(origin, &[holder], scratch, alone);
                assert_eq!(
                    alone[..],
                    [cost],
                    "the batch priced the fetch {origin} -> {holder} unlike a fetch alone"
                );
            }
            fetch_delay = fetch_delay.max(cost.hops);
            fetch_latency = fetch_latency.max(cost.latency);
            out.messages += cost.messages;
            if let Some(log) = fetch_log.as_deref_mut() {
                log.push((holder, cost, lands_here));
            }
        }
        // Fetches run in parallel, but only after the primary phase came
        // back short — a strictly two-phase read (dropped fetches extend
        // the phase too; the origin waited for them). Hop and virtual-ms
        // critical paths extend by the slowest fetch in their own currency.
        out.delay += fetch_delay;
        out.latency += fetch_latency;
        let recovered = landed.len();
        if recovered == 0 {
            return out;
        }
        landed.sort_unstable();
        merge_disjoint(&mut out.results, landed);
        out.exact = recovered == slots;
        debug_assert_eq!(out.exact, out.results == *expected, "exactness after the fetch phase");
        if out.exact {
            out.reached_peers = out.dest_peers;
        } else {
            // Scale reached by the recovered fraction of the missing
            // records, flooring so a partially-recovered query can never
            // report the full-recall figure exact recovery earns.
            let gap = out.dest_peers.saturating_sub(out.reached_peers);
            let gain = gap * recovered / slots;
            out.reached_peers = (out.reached_peers + gain)
                .min(out.dest_peers.saturating_sub(1))
                .max(out.reached_peers);
        }
        out
    }

    /// Drops every copy held by `node` (it crashed or departed): one scan
    /// of the holder table.
    fn evict(&mut self, node: NodeId) {
        let stride = self.stride();
        if stride == 0 {
            return;
        }
        for (slots, held) in self.holders.chunks_exact_mut(stride).zip(&mut self.held) {
            let count = *held as usize;
            if let Some(at) = slots[..count].iter().position(|&h| h == node) {
                slots.copy_within(at + 1..count, at);
                *held -= 1;
            }
        }
    }

    /// The inner scheme's membership surface. Every caller is about to
    /// change the live peer set, so the cached ring is dropped here.
    fn dynamic_inner(&mut self) -> Result<&mut dyn DynamicScheme, SchemeError> {
        self.ring = None;
        let name = self.inner.scheme_name();
        self.inner.as_dynamic().ok_or_else(|| SchemeError::Unsupported {
            scheme: name.to_string(),
            feature: "dynamics",
        })
    }
}

/// The virtual time the fetch phase is stamped from: the primary phase's
/// reported latency, or — when every branch was lost and nobody answered,
/// so that latency reads 0 — the tick of the last record the primary phase
/// already traced, whichever is later. A zero-latency local fetch
/// (`holder == origin`) then still lands after everything before it, and
/// the stream stays `(t, id)`-sorted. Only event stamps depend on this;
/// no outcome or cost node does.
fn fetch_phase_start(latency: u64, trace: Option<&crate::QueryTrace>) -> u64 {
    trace.and_then(|t| t.events.last()).map_or(latency, |last| latency.max(last.time))
}

/// Merges `add` into `into`, both ascending and with no value in common,
/// in place: `into` grows once, and the two are merged from the back.
fn merge_disjoint(into: &mut Vec<u64>, add: &[u64]) {
    let mut i = into.len();
    into.resize(i + add.len(), 0);
    let mut j = add.len();
    for k in (0..into.len()).rev() {
        if j == 0 {
            break;
        }
        if i > 0 && into[i - 1] > add[j - 1] {
            into[k] = into[i - 1];
            i -= 1;
        } else {
            into[k] = add[j - 1];
            j -= 1;
        }
    }
}

/// Splices a recorded fetch phase into a query trace: one
/// [`ReplicaFetch`](simnet::TraceEvent::ReplicaFetch) event per attempted
/// fetch (time-based after the primary phase — fetches run in parallel, so
/// each lands at its own round-trip latency) and one cost node carrying
/// exactly the deltas [`Replicated::recover`] charged: the slowest fetch
/// in hops and virtual ms, the summed fetch messages. Keeps the explain
/// invariant `root.total() == (delay, latency, messages)` through the
/// replication layer.
fn splice_fetch_phase(
    trace: &mut crate::QueryTrace,
    origin: NodeId,
    phase_start: u64,
    log: &[(NodeId, FetchCost, bool)],
) {
    use crate::CostNode;
    if log.is_empty() {
        return;
    }
    // Emit in completion order so the merged stream stays (time, id)-sorted;
    // the stable sort keeps equal-latency fetches in publish order.
    let mut order: Vec<usize> = (0..log.len()).collect();
    order.sort_by_key(|&i| log[i].1.latency);
    let mut sink = simnet::TraceSink::new();
    for &i in &order {
        let (holder, cost, recovered) = log[i];
        sink.emit(
            cost.latency,
            simnet::TraceEvent::ReplicaFetch {
                origin,
                holder,
                hops: cost.hops,
                latency_ms: cost.latency,
                messages: cost.messages,
                recovered,
            },
        );
    }
    trace.append_events(sink.into_records(), phase_start);

    let delay: u64 = log.iter().map(|e| e.1.hops).max().unwrap_or(0);
    let latency: u64 = log.iter().map(|e| e.1.latency).max().unwrap_or(0);
    let messages: u64 = log.iter().map(|e| e.1.messages).sum();
    let recovered = log.iter().filter(|e| e.2).count();
    let mut phase = CostNode::leaf(
        format!(
            "replica fetch phase: {} fetch{}, {recovered} recovered (slowest +{latency} ms)",
            log.len(),
            if log.len() == 1 { "" } else { "es" },
        ),
        delay,
        latency,
        messages,
    );
    for &(holder, cost, landed) in log {
        let lost = if landed { "" } else { " — lost in transit" };
        phase.children.push(CostNode::leaf(
            format!(
                "fetch from peer {holder}: {} hops, {} ms, {} msg{lost}",
                cost.hops, cost.latency, cost.messages
            ),
            0,
            0,
            0,
        ));
    }
    trace.root.children.push(phase);
}

impl std::fmt::Debug for Replicated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replicated")
            .field("scheme", &self.inner.scheme_name())
            .field("policy", &self.policy.name())
            .field("records", &self.published.len())
            .field("replicas", &self.replica_count())
            .finish()
    }
}

impl RangeScheme for Replicated {
    fn scheme_name(&self) -> &'static str {
        self.inner.scheme_name()
    }

    fn substrate(&self) -> String {
        format!("{} + {}", self.inner.substrate(), self.policy.name())
    }

    fn degree(&self) -> String {
        self.inner.degree()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError> {
        let mut owners = std::mem::take(&mut self.owners);
        if !self.policy.is_none() {
            self.owners_into(value, &mut owners);
        }
        let published = self.inner.publish(value, handle);
        if published.is_ok() {
            let index = self.published.len();
            self.by_value.take();
            self.published.push((value, handle));
            // The primary copy (owners[0]) lives inside the inner scheme.
            let copies = owners.get(1..).unwrap_or(&[]);
            self.holders.extend_from_slice(copies);
            self.holders.resize((index + 1) * self.stride(), usize::MAX);
            self.held.push(copies.len() as u32);
        }
        self.owners = owners;
        published
    }

    fn random_origin(&self, rng: &mut SmallRng) -> NodeId {
        self.inner.random_origin(rng)
    }

    /// The inner query under the same context, then the fetch phase —
    /// obeying the context's fault plan, spliced into its trace.
    fn query(
        &self,
        req: &RangeRequest,
        cx: &mut QueryCtx<'_>,
    ) -> Result<RangeOutcome, SchemeError> {
        let out = self.inner.query(req, cx)?;
        let phase_start = fetch_phase_start(out.latency, cx.trace.as_deref());
        let mut log = cx.trace.is_some().then(Vec::new);
        let out = self.recover(req, out, cx.faults, cx.scratch, log.as_mut());
        if let (Some(trace), Some(log)) = (cx.trace.as_deref_mut(), log) {
            splice_fetch_phase(trace, req.origin(), phase_start, &log);
        }
        Ok(out)
    }

    fn retry_attempts(&self) -> u64 {
        self.inner.retry_attempts()
    }

    fn as_dynamic(&mut self) -> Option<&mut dyn DynamicScheme> {
        if self.inner.as_dynamic().is_some() {
            Some(self)
        } else {
            None
        }
    }

    fn as_replicated(&mut self) -> Option<&mut dyn ReplicationControl> {
        Some(self)
    }
}

impl DynamicScheme for Replicated {
    fn join(&mut self, rng: &mut SmallRng) -> Result<NodeId, SchemeError> {
        self.dynamic_inner()?.join(rng)
    }

    fn leave(&mut self, node: NodeId) -> Result<(), SchemeError> {
        self.dynamic_inner()?.leave(node)?;
        self.evict(node);
        Ok(())
    }

    fn crash(&mut self, node: NodeId) -> Result<(), SchemeError> {
        self.dynamic_inner()?.crash(node)?;
        self.evict(node);
        Ok(())
    }

    fn stabilize(&mut self) -> usize {
        let inner_ops = self.dynamic_inner().map_or(0, |d| d.stabilize());
        inner_ops + self.re_replicate().ops()
    }

    fn live_peers(&self) -> Vec<NodeId> {
        // The dynamics hook needs `&mut self`; the routing hook exposes the
        // same deterministic membership list through `&self`.
        self.routing().live_peers()
    }
}

impl ReplicationControl for Replicated {
    fn policy(&self) -> &ReplicaPolicy {
        &self.policy
    }

    fn re_replicate(&mut self) -> ReplicaRepair {
        let mut repair = ReplicaRepair::default();
        if self.policy.is_none() {
            return repair;
        }
        // Buffers for the whole pass: one record's owners, the copies it
        // still needs, and their transfer costs.
        let mut scratch = QueryScratch::new();
        let (mut owners, mut transfers, mut costs) = (Vec::new(), Vec::new(), Vec::new());
        let stride = self.stride();
        for idx in 0..self.published.len() {
            self.owners_into(self.published[idx].0, &mut owners);
            let desired = owners.get(1..).unwrap_or(&[]);
            let slots = &mut self.holders[idx * stride..(idx + 1) * stride];
            let before = self.held[idx] as usize;
            let mut kept = 0;
            for i in 0..before {
                if desired.contains(&slots[i]) {
                    slots[kept] = slots[i];
                    kept += 1;
                }
            }
            let retired = before - kept;
            repair.dropped += retired;
            repair.messages += retired as u64; // one retirement message each
            transfers.clear();
            transfers
                .extend(desired.iter().copied().filter(|owner| !slots[..kept].contains(owner)));
            slots[kept..kept + transfers.len()].copy_from_slice(&transfers);
            self.held[idx] = (kept + transfers.len()) as u32;
            if transfers.is_empty() {
                continue;
            }
            repair.placed += transfers.len();
            // Copy transfers from the primary owner's side.
            costs.clear();
            let routing = self.inner.as_replica_routing().expect("checked");
            routing.fetch_costs(owners[0], &transfers, &mut scratch, &mut costs);
            for cost in &costs {
                repair.messages += cost.messages;
                // Transfers run in parallel: the pass's virtual-time
                // critical path is its slowest single transfer.
                repair.latency = repair.latency.max(cost.latency);
            }
        }
        repair
    }

    fn replica_count(&self) -> usize {
        self.held.iter().map(|&held| held as usize).sum()
    }

    fn label(&self) -> String {
        format!("{}+{}", self.inner.scheme_name(), self.policy.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A toy sharded scheme: each record lives at one owner chosen by
    /// consistent hashing; crashed owners lose their records until
    /// `stabilize` re-homes them. Faithful enough to exercise every
    /// wrapper path without a real substrate.
    struct ShardScan {
        alive: Vec<bool>,
        /// `(value, handle, current owner)`; dead owner ⇒ record lost.
        records: Vec<(f64, u64, NodeId)>,
    }

    impl ShardScan {
        fn new(n: usize) -> Self {
            ShardScan { alive: vec![true; n], records: Vec::new() }
        }

        fn live(&self) -> Vec<NodeId> {
            (0..self.alive.len()).filter(|&i| self.alive[i]).collect()
        }
    }

    impl RangeScheme for ShardScan {
        fn scheme_name(&self) -> &'static str {
            "shard-scan"
        }
        fn substrate(&self) -> String {
            "toy".into()
        }
        fn degree(&self) -> String {
            "0".into()
        }
        fn node_count(&self) -> usize {
            self.live().len()
        }
        fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError> {
            let owner = ring_owners(&self.live(), value_key(value), 1)[0];
            self.records.push((value, handle, owner));
            Ok(())
        }
        fn random_origin(&self, _rng: &mut SmallRng) -> NodeId {
            self.live()[0]
        }
        fn range_query(
            &self,
            _origin: NodeId,
            lo: f64,
            hi: f64,
            _seed: u64,
        ) -> Result<RangeOutcome, SchemeError> {
            let in_range: Vec<&(f64, u64, NodeId)> =
                self.records.iter().filter(|&&(v, _, _)| v >= lo && v <= hi).collect();
            let dest: BTreeSet<NodeId> = in_range.iter().map(|r| r.2).collect();
            let reached: BTreeSet<NodeId> =
                dest.iter().copied().filter(|&o| self.alive[o]).collect();
            let mut results: Vec<u64> =
                in_range.iter().filter(|r| self.alive[r.2]).map(|r| r.1).collect();
            results.sort_unstable();
            results.dedup();
            Ok(RangeOutcome {
                results,
                delay: 2,
                latency: 2,
                messages: dest.len() as u64,
                dest_peers: dest.len(),
                reached_peers: reached.len(),
                exact: dest.len() == reached.len(),
            })
        }
        fn as_dynamic(&mut self) -> Option<&mut dyn DynamicScheme> {
            Some(self)
        }
        fn as_replica_routing(&self) -> Option<&dyn ReplicaRouting> {
            Some(self)
        }
        fn query(
            &self,
            req: &RangeRequest,
            cx: &mut QueryCtx<'_>,
        ) -> Result<RangeOutcome, SchemeError> {
            let (lo, hi) = (req.lo(), req.hi());
            let mut out = self.range_query(req.origin(), lo, hi, req.seed())?;
            if let Some(faults) = cx.faults {
                // Owners crashed by the plan cannot answer this query.
                let lost: Vec<u64> = self
                    .records
                    .iter()
                    .filter(|&&(v, _, owner)| v >= lo && v <= hi && faults.is_crashed(owner))
                    .map(|&(_, h, _)| h)
                    .collect();
                out.results.retain(|h| !lost.contains(h));
                out.exact = lost.is_empty() && out.exact;
            }
            cx.trace_modeled("shard-scan", req.origin(), &out);
            Ok(out)
        }
    }

    impl DynamicScheme for ShardScan {
        fn join(&mut self, _rng: &mut SmallRng) -> Result<NodeId, SchemeError> {
            self.alive.push(true);
            Ok(self.alive.len() - 1)
        }
        fn leave(&mut self, node: NodeId) -> Result<(), SchemeError> {
            self.crash(node)
        }
        fn crash(&mut self, node: NodeId) -> Result<(), SchemeError> {
            if !self.alive.get(node).copied().unwrap_or(false) {
                return Err(SchemeError::BadOrigin { origin: node });
            }
            self.alive[node] = false;
            Ok(())
        }
        fn stabilize(&mut self) -> usize {
            let live = self.live();
            let mut moved = 0;
            for rec in &mut self.records {
                if !self.alive[rec.2] {
                    rec.2 = ring_owners(&live, value_key(rec.0), 1)[0];
                    moved += 1;
                }
            }
            moved
        }
        fn live_peers(&self) -> Vec<NodeId> {
            self.live()
        }
    }

    impl ReplicaRouting for ShardScan {
        fn live_peers(&self) -> Vec<NodeId> {
            self.live()
        }
        fn close_group(&self, value: f64, r: usize) -> Vec<NodeId> {
            ring_owners(&self.live(), value_key(value), r)
        }
        fn fetch_costs(
            &self,
            _origin: NodeId,
            holders: &[NodeId],
            _scratch: &mut QueryScratch,
            costs: &mut Vec<FetchCost>,
        ) {
            costs.extend(holders.iter().map(|_| FetchCost { hops: 2, latency: 2, messages: 2 }));
        }
    }

    fn replicated(n: usize, records: usize, policy: ReplicaPolicy) -> Replicated {
        let mut wrapped = Replicated::new(Box::new(ShardScan::new(n)), policy).unwrap();
        for h in 0..records as u64 {
            // Spread values deterministically over [0, 1000].
            wrapped.publish((h as f64 * 37.0) % 1000.0, h).unwrap();
        }
        wrapped
    }

    /// The whole-domain query from peer 0 through the full-surface call.
    fn query_all(
        scheme: &dyn RangeScheme,
        faults: Option<&simnet::FaultPlan>,
        trace: Option<&mut crate::QueryTrace>,
    ) -> RangeOutcome {
        let req = RangeRequest::new(0, 0.0, 1000.0, 0).unwrap();
        let mut scratch = simnet::QueryScratch::new();
        scheme.query(&req, &mut QueryCtx { scratch: &mut scratch, faults, trace }).unwrap()
    }

    /// An inner scheme that already holds a record breaks the precondition
    /// on [`Replicated::new`]: its answer is no longer a part of the
    /// wrapper's ground truth, which debug builds catch at the first query.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the primary phase answered a record not published through")]
    fn an_inner_answer_outside_the_published_records_is_caught() {
        let mut inner = ShardScan::new(8);
        inner.publish(5.0, 999).unwrap();
        let mut wrapped = Replicated::new(Box::new(inner), ReplicaPolicy::successor(2)).unwrap();
        wrapped.publish(6.0, 1).unwrap();
        wrapped.publish(7.0, 2).unwrap();
        query_all(&wrapped, None, None);
    }

    #[test]
    fn policy_parsing_and_labels() {
        assert!(ReplicaPolicy::named("bogus").is_err());
        assert!(ReplicaPolicy::named("r0").is_err());
        assert!(ReplicaPolicy::named("successor-x").is_err());
        assert_eq!(ReplicaPolicy::successor(3).name(), "successor-3");
        assert_eq!(ReplicaPolicy::neighbor_set(2).name(), "neighbor-set-2");
        assert!(ReplicaPolicy::successor(1).is_none(), "factor 1 places no copies");
        assert!(!ReplicaPolicy::successor(2).is_none());
        assert_eq!(ReplicaPolicy::default(), ReplicaPolicy::none());
    }

    #[test]
    fn ring_owners_are_distinct_live_and_prefix_stable() {
        let live: Vec<NodeId> = (0..20).collect();
        for key in [0u64, 7, 0xdead_beef] {
            let five = ring_owners(&live, key, 5);
            assert_eq!(five.len(), 5);
            let set: BTreeSet<_> = five.iter().collect();
            assert_eq!(set.len(), 5, "owners must be distinct");
            // Prefix property: r owners are the first r of r+1 owners.
            for r in 1..5 {
                assert_eq!(ring_owners(&live, key, r), five[..r].to_vec());
            }
        }
        // Clamps to the live set.
        assert_eq!(ring_owners(&live[..3], 1, 9).len(), 3);
        assert!(ring_owners(&[], 1, 3).is_empty());
    }

    #[test]
    fn wrapper_requires_the_routing_hook() {
        struct NoHook;
        impl RangeScheme for NoHook {
            fn scheme_name(&self) -> &'static str {
                "no-hook"
            }
            fn substrate(&self) -> String {
                "toy".into()
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
            fn random_origin(&self, _: &mut SmallRng) -> NodeId {
                0
            }
            fn range_query(
                &self,
                _: NodeId,
                _: f64,
                _: f64,
                _: u64,
            ) -> Result<RangeOutcome, SchemeError> {
                unreachable!()
            }
        }
        let err = Replicated::new(Box::new(NoHook), ReplicaPolicy::successor(2))
            .map(|_| ())
            .expect_err("no routing hook, no replication");
        assert!(matches!(err, SchemeError::Unsupported { feature: "replication", .. }), "{err}");
    }

    #[test]
    fn replicas_recover_crash_lost_records_with_honest_costs() {
        let mut scheme = replicated(12, 60, ReplicaPolicy::successor(3));
        let clean = scheme.range_query(0, 0.0, 1000.0, 0).unwrap();
        assert!(clean.exact);
        assert_eq!(clean.results.len(), 60);

        // Crash a third of the network through the wrapper.
        for _ in 0..4 {
            let victim = *DynamicScheme::live_peers(&scheme).last().unwrap();
            DynamicScheme::crash(&mut scheme, victim).unwrap();
        }
        let out = scheme.range_query(0, 0.0, 1000.0, 0).unwrap();
        let inner_out = scheme.inner().range_query(0, 0.0, 1000.0, 0).unwrap();
        assert!(inner_out.results.len() < 60, "crashes must cost the primary path records");
        assert_eq!(out.results.len(), 60, "every record has a live replica at r = 3");
        assert!(out.exact, "full recovery restores exactness");
        assert_eq!(out.peer_recall(), 1.0);
        assert!(
            out.messages > inner_out.messages,
            "replica fetches must be paid for: {} !> {}",
            out.messages,
            inner_out.messages
        );
        assert!(out.delay > inner_out.delay, "the fetch phase extends the critical path");
    }

    #[test]
    fn factor_one_and_none_are_pass_through() {
        for policy in [ReplicaPolicy::none(), ReplicaPolicy::successor(1)] {
            let mut scheme = replicated(10, 30, policy);
            assert_eq!(scheme.replica_count(), 0);
            let victim = *DynamicScheme::live_peers(&scheme).last().unwrap();
            DynamicScheme::crash(&mut scheme, victim).unwrap();
            let out = scheme.range_query(0, 0.0, 1000.0, 0).unwrap();
            let inner_out = scheme.inner().range_query(0, 0.0, 1000.0, 0).unwrap();
            assert_eq!(out, inner_out, "no replicas ⇒ the wrapper changes nothing");
            assert_eq!(scheme.re_replicate(), ReplicaRepair::default());
        }
    }

    #[test]
    fn recovered_results_grow_monotonically_with_the_factor() {
        let mut per_factor = Vec::new();
        for r in [1usize, 2, 3, 5] {
            let mut scheme = replicated(14, 80, ReplicaPolicy::successor(r));
            // Identical crash sequence for every factor.
            for _ in 0..5 {
                let victim = DynamicScheme::live_peers(&scheme)[1];
                DynamicScheme::crash(&mut scheme, victim).unwrap();
            }
            let out = scheme.range_query(0, 0.0, 1000.0, 0).unwrap();
            per_factor.push((r, out.results.len(), out.peer_recall()));
        }
        for pair in per_factor.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1,
                "results must be monotone in r: {:?} then {:?}",
                pair[0],
                pair[1]
            );
            assert!(pair[1].2 >= pair[0].2, "recall must be monotone in r");
        }
        assert!(
            per_factor.last().unwrap().1 > per_factor.first().unwrap().1,
            "5 crashes on 14 peers must cost the unreplicated scheme something"
        );
    }

    #[test]
    fn re_replicate_is_idempotent_and_heals_after_churn() {
        let mut scheme = replicated(12, 50, ReplicaPolicy::successor(3));
        let placed_at_publish = scheme.replica_count();
        assert_eq!(placed_at_publish, 100, "r = 3 places two copies per record");
        // Fresh network, placement already correct: repair is a no-op.
        assert_eq!(scheme.re_replicate(), ReplicaRepair::default());

        for _ in 0..3 {
            let victim = DynamicScheme::live_peers(&scheme)[0];
            DynamicScheme::crash(&mut scheme, victim).unwrap();
        }
        assert!(scheme.replica_count() < placed_at_publish, "evictions shrink the copy set");
        let repair = scheme.re_replicate();
        assert!(repair.placed > 0, "repair must restore evicted copies");
        assert!(repair.messages > 0, "repair traffic is not free");
        assert_eq!(scheme.replica_count(), 100);
        // Second pass with no intervening membership change: all zeros.
        assert_eq!(scheme.re_replicate(), ReplicaRepair::default());
        assert_eq!(repair.ops(), repair.placed + repair.dropped);
    }

    #[test]
    fn fault_injected_queries_cannot_recover_from_faulted_holders() {
        let scheme = replicated(12, 60, ReplicaPolicy::successor(3));
        let clean = scheme.range_query(0, 0.0, 1000.0, 0).unwrap();
        assert_eq!(clean.results.len(), 60);

        // Pick one record and fault-crash its primary: the replicas serve.
        let inner_live: Vec<NodeId> = (0..12).collect();
        let owners = ring_owners(&inner_live, value_key(37.0), 3);
        let mut faults = simnet::FaultPlan::new();
        faults.crash(owners[0]);
        let out = query_all(&scheme, Some(&faults), None);
        assert_eq!(out.results.len(), 60, "a live replica must cover the faulted primary");

        // Fault-crash the whole replica set: recovery must NOT resurrect
        // the records (the holders are down for this query).
        for &o in &owners {
            faults.crash(o);
        }
        let out = query_all(&scheme, Some(&faults), None);
        assert!(
            out.results.len() < 60,
            "records whose full replica set is faulted must stay missing"
        );
        assert!(!out.exact);

        // Total message loss: fetches are paid for but recover nothing.
        let mut lossy = simnet::FaultPlan::with_drop_prob(1.0);
        lossy.crash(owners[0]);
        let dropped = query_all(&scheme, Some(&lossy), None);
        let inner_only = query_all(scheme.inner(), Some(&lossy), None);
        assert_eq!(
            dropped.results, inner_only.results,
            "at 100% loss no fetch can land, so no record comes back"
        );
        assert!(
            dropped.messages > inner_only.messages,
            "the dropped fetches were still sent and must be charged"
        );
    }

    #[test]
    fn the_value_index_answers_ranges_as_ieee_comparisons_do() {
        let values =
            [-0.0, 0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 5.0, 5.0, 1e9];
        let mut scheme =
            Replicated::new(Box::new(ShardScan::new(40)), ReplicaPolicy::successor(3)).unwrap();
        // Every primary is down for the query, so each record in the answer
        // was found through the index and fetched from a replica.
        let live: Vec<NodeId> = (0..40).collect();
        let mut faults = simnet::FaultPlan::new();
        for (h, &value) in values.iter().enumerate() {
            scheme.publish(value, h as u64).unwrap();
            faults.crash(ring_owners(&live, value_key(value), 1)[0]);
        }
        for (lo, hi) in [
            (0.0, 10.0),
            (-0.0, 0.0),
            (0.0, -0.0),
            (5.0, 5.0),
            (-1.0, -0.5),
            (f64::NEG_INFINITY, f64::INFINITY),
            (1e8, f64::INFINITY),
        ] {
            let oracle: Vec<u64> = (0..values.len())
                .filter(|&h| values[h] >= lo && values[h] <= hi)
                .map(|h| h as u64)
                .collect();
            let req = RangeRequest::new(0, lo, hi, 0).unwrap();
            let mut scratch = simnet::QueryScratch::new();
            let mut cx = QueryCtx { scratch: &mut scratch, faults: Some(&faults), trace: None };
            let out = scheme.query(&req, &mut cx).unwrap();
            assert_eq!(out.results, oracle, "[{lo}, {hi}]");
            assert!(out.exact, "[{lo}, {hi}]");
        }
    }

    #[test]
    fn a_handle_published_twice_is_fetched_until_one_copy_lands() {
        // Handle 7 sits under two values; at 100 % loss both of its records
        // are tried (and charged), on a clean network only the first.
        let mut scheme =
            Replicated::new(Box::new(ShardScan::new(12)), ReplicaPolicy::successor(3)).unwrap();
        scheme.publish(10.0, 7).unwrap();
        scheme.publish(20.0, 7).unwrap();
        let live: Vec<NodeId> = (0..12).collect();
        let mut crashed = simnet::FaultPlan::new();
        let mut lossy = simnet::FaultPlan::with_drop_prob(1.0);
        for value in [10.0, 20.0] {
            let primary = ring_owners(&live, value_key(value), 1)[0];
            crashed.crash(primary);
            lossy.crash(primary);
        }
        let base = query_all(scheme.inner(), Some(&crashed), None).messages;
        let clean = query_all(&scheme, Some(&crashed), None);
        assert_eq!((clean.results, clean.messages), (vec![7], base + 2));
        let dropped = query_all(&scheme, Some(&lossy), None);
        assert_eq!((dropped.results, dropped.messages), (vec![], base + 4));
    }

    #[test]
    fn partial_recovery_never_reports_full_recall() {
        let mut scheme = replicated(10, 40, ReplicaPolicy::successor(2));
        // Crash enough peers that some records lose primary AND replica.
        for _ in 0..4 {
            let victim = DynamicScheme::live_peers(&scheme)[0];
            DynamicScheme::crash(&mut scheme, victim).unwrap();
        }
        let out = scheme.range_query(9, 0.0, 1000.0, 0).unwrap();
        if !out.exact {
            assert!(
                out.peer_recall() < 1.0,
                "an inexact recovered query must not report peer recall 1.0 \
                 (reached {} of {})",
                out.reached_peers,
                out.dest_peers
            );
        }
    }

    #[test]
    fn stabilize_repairs_both_layers() {
        let mut scheme = replicated(12, 50, ReplicaPolicy::neighbor_set(2));
        for _ in 0..3 {
            let victim = DynamicScheme::live_peers(&scheme)[2];
            DynamicScheme::crash(&mut scheme, victim).unwrap();
        }
        let ops = DynamicScheme::stabilize(&mut scheme);
        assert!(ops > 0, "stabilize re-homes records and replicas");
        let out = scheme.range_query(0, 0.0, 1000.0, 0).unwrap();
        assert!(out.exact, "post-stabilize queries are exact again");
        // And the repair pass left nothing to do.
        assert_eq!(scheme.re_replicate(), ReplicaRepair::default());
    }

    #[test]
    fn traced_recovery_keeps_the_accounting_invariant_and_logs_fetches() {
        let mut scheme = replicated(12, 60, ReplicaPolicy::successor(3));
        for _ in 0..4 {
            let victim = *DynamicScheme::live_peers(&scheme).last().unwrap();
            DynamicScheme::crash(&mut scheme, victim).unwrap();
        }
        let plain = scheme.range_query(0, 0.0, 1000.0, 0).unwrap();
        let mut tr = crate::QueryTrace::default();
        let traced = query_all(&scheme, None, Some(&mut tr));
        assert_eq!(plain, traced, "tracing must not perturb the outcome");
        assert_eq!(tr.root.total(), (traced.delay, traced.latency, traced.messages));
        let fetches = tr
            .events
            .iter()
            .filter(|r| matches!(r.event, simnet::TraceEvent::ReplicaFetch { .. }))
            .count();
        assert!(fetches > 0, "crash-lost records must show up as fetch events");
        assert!(tr.explain_text().contains("replica fetch phase"), "{}", tr.explain_text());
        // The merged stream stays totally ordered by (time, id).
        let stamps: Vec<(u64, u64)> = tr.events.iter().map(|r| (r.time, r.id)).collect();
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(stamps, sorted, "fetch events must splice in time order");
    }

    #[test]
    fn a_local_fetch_after_an_unanswered_primary_phase_stays_in_time_order() {
        // The shape `pira+r3@wan@lossy-10/r2` hits: every primary branch is
        // lost, so the reported latency is 0 while the traced records
        // already reach tick 5 — and the origin itself holds a replica, a
        // zero-latency fetch.
        let mut sink = simnet::TraceSink::new();
        for t in [0, 3, 5] {
            sink.emit(
                t,
                simnet::TraceEvent::ReplicaFetch {
                    origin: 1,
                    holder: 2,
                    hops: 0,
                    latency_ms: 0,
                    messages: 0,
                    recovered: false,
                },
            );
        }
        let mut tr = crate::QueryTrace { events: sink.into_records(), ..Default::default() };
        assert_eq!(fetch_phase_start(0, Some(&tr)), 5, "never before the last traced tick");
        assert_eq!(fetch_phase_start(9, Some(&tr)), 9, "an answered phase ends at its latency");
        assert_eq!(fetch_phase_start(4, None), 4);
        let local = FetchCost { hops: 0, latency: 0, messages: 0 };
        let remote = FetchCost { hops: 2, latency: 2, messages: 2 };
        let start = fetch_phase_start(0, Some(&tr));
        splice_fetch_phase(&mut tr, 1, start, &[(7, remote, true), (1, local, true)]);
        let stamps: Vec<(u64, u64)> = tr.events.iter().map(|r| (r.time, r.id)).collect();
        assert_eq!(stamps, vec![(0, 0), (3, 1), (5, 2), (5, 3), (7, 4)]);
        // The cost node carries the phase's deltas, not its stamps.
        assert_eq!(tr.root.total(), (2, 2, 2));
    }

    #[test]
    fn traced_faulted_recovery_marks_lost_fetches() {
        let scheme = replicated(12, 60, ReplicaPolicy::successor(3));
        let inner_live: Vec<NodeId> = (0..12).collect();
        let owners = ring_owners(&inner_live, value_key(37.0), 3);
        let mut lossy = simnet::FaultPlan::with_drop_prob(1.0);
        lossy.crash(owners[0]);
        let plain = query_all(&scheme, Some(&lossy), None);
        let mut tr = crate::QueryTrace::default();
        let traced = query_all(&scheme, Some(&lossy), Some(&mut tr));
        assert_eq!(plain, traced, "traced faulted recovery must replay the same verdicts");
        assert_eq!(tr.root.total(), (traced.delay, traced.latency, traced.messages));
        let lost = tr
            .events
            .iter()
            .filter(|r| {
                matches!(r.event, simnet::TraceEvent::ReplicaFetch { recovered: false, .. })
            })
            .count();
        assert!(lost > 0, "100% loss fetches must be logged as not recovered");
        assert!(tr.explain_text().contains("lost in transit"));
    }

    #[test]
    fn control_surface_reports_policy_and_label() {
        let mut scheme = replicated(8, 10, ReplicaPolicy::successor(2));
        let control = scheme.as_replicated().expect("wrapper exposes control");
        assert_eq!(control.policy().name(), "successor-2");
        assert_eq!(control.label(), "shard-scan+successor-2");
        assert!(scheme.substrate().contains("successor-2"));
    }
}
