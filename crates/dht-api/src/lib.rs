//! The workspace's query-facing contract: one trait, one outcome type, one
//! driver for every range-query scheme.
//!
//! The Armada paper's taxonomy (§2) distinguishes schemes that modify the
//! DHT from **general** schemes built entirely on the standard exact-match
//! interface; its evaluation (Table 1, Figures 5–8) then *compares* seven
//! schemes on identical workloads. This crate carries both halves of that
//! structure:
//!
//! * [`Dht`] — the minimal exact-match interface a layered scheme (PHT)
//!   consumes: keyed routing with hop accounting, implemented by `fissione`
//!   (constant degree) and `chord` (logarithmic degree).
//! * [`RangeScheme`] / [`MultiRangeScheme`] — the unified query interface
//!   every scheme in the workspace implements, returning the shared
//!   [`RangeOutcome`] metric vocabulary; [`OneAttribute`] serves a
//!   one-attribute rectangle scheme through the first.
//! * [`SchemeRegistry`] — name → builder tables so callers select schemes
//!   at runtime as trait objects.
//! * [`WorkloadGen`] — named, seeded query mixes (uniform, Zipf-skewed hot
//!   ranges, clustered, wide scans, correlated rectangles, a production
//!   blend), addressed by query *index* so a workload is identical however
//!   it is sharded.
//! * [`ParallelDriver`] — the one driver: fans a batch across OS threads
//!   over one shared `&dyn` scheme, aggregates [`RangeOutcome`]s into
//!   [`DriverReport`] summary statistics and merges per-thread
//!   [`Summary`](simnet::Summary) statistics deterministically — the same
//!   report for any thread count.
//! * [`DynamicScheme`] — the dynamics layer: churn primitives
//!   (`join`/`leave`/`crash`/`stabilize`) a scheme exposes through
//!   [`RangeScheme::as_dynamic`] when its substrate supports membership
//!   change (a churn-capable substrate implements the same trait), with
//!   the stabilize guarantee that queries are exact again afterwards.
//! * [`ChurnPlan`] — named, seeded membership-dynamics plans (join storms,
//!   leave storms, flash crowds, steady churn, crash massacres) whose
//!   events are pure functions of `(plan, seed, epoch)`; driven by
//!   [`ParallelDriver::run_epochs`], which interleaves sharded query
//!   epochs with serial membership events and reports a per-epoch
//!   recall/exactness/delay series.
//! * [`ReplicaPolicy`] / [`Replicated`] — the replication layer: named,
//!   deterministic replica placement (`none`, `successor-r`,
//!   `neighbor-set-r`) composable over any scheme that exposes
//!   [`ReplicaRouting`], answering range queries from any live replica
//!   mid-churn and re-replicating after membership events
//!   ([`ReplicationControl`]), with repair traffic reported per epoch.
//! * [`RetryPolicy`] / [`Hostile`] — the hostile-network layer: named
//!   fault plans (per-edge loss, partitions, rate limits — see
//!   [`simnet::FaultPlan`]) and seeded retry/timeout policies composed
//!   via `"pira@lossy-p/r2"`-style registry suffixes. Every engine that
//!   simulates a plan loses real messages to the one
//!   [`simnet::Verdicts`] chain — in `Sim`, or on a layered scheme's
//!   routed gets ([`Dht::route_keys`]) — whose verdicts are a pure
//!   function of the query seed and send order, so faulted reports stay
//!   bitwise thread-count-invariant; a scheme that cannot refuses the
//!   plan. Epoch drivers advance partition epochs through
//!   [`HostileControl`].
//!
//! # Metric vocabulary (§4.3.3 of the paper)
//!
//! Every outcome and report speaks the paper's evaluation language:
//!
//! * **delay** — critical-path length of the query in overlay hops under
//!   unit per-hop latency ([`RangeOutcome::delay`]).
//! * **latency** — critical-path virtual time in milliseconds under the
//!   scheme's [`NetModel`] ([`RangeOutcome::latency`]): the same message
//!   paths, priced edge by edge. Hop metrics are model-invariant; this is
//!   the figure that moves when the network is not the unit-cost one.
//! * **messages** — total protocol messages sent
//!   ([`RangeOutcome::messages`]).
//! * **Destpeers** — ground-truth count of peers whose region intersects
//!   the query ([`RangeOutcome::dest_peers`]).
//! * **MesgRatio** = `Messages / Destpeers`
//!   ([`RangeOutcome::mesg_ratio`]) — messages paid per useful
//!   destination; 1.0 is perfect targeting.
//! * **IncreRatio** = `(Messages − log₂N) / (Destpeers − 1)`
//!   ([`RangeOutcome::incre_ratio`]) — the *marginal* message cost per
//!   additional destination once the first one is reached.
//! * **peer recall** = `reached / Destpeers`
//!   ([`RangeOutcome::peer_recall`]) — completeness under faults (1.0 on
//!   fault-free runs of exact schemes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod digest;
mod driver;
mod dynamics;
mod explain;
mod hostile;
mod metrics;
mod parallel;
mod registry;
mod replication;
mod scheme;
mod workload;

pub use churn::{ChurnEvent, ChurnPlan, ChurnStats, CHURN_PLAN_NAMES};
pub use digest::DigestReport;
pub use driver::{DriverReport, EpochSummary};
pub use dynamics::DynamicScheme;
pub use explain::{CostNode, QueryTrace};
pub use hostile::{Hostile, HostileControl, RetryPolicy};
pub use metrics::{Histogram, LoadSkew, MetricsRegistry, HISTOGRAM_BOUNDS};
pub use parallel::{default_threads, ParallelDriver};
pub use registry::{BuildParams, MultiBuildParams, MultiBuilder, SchemeRegistry, SingleBuilder};
pub use replication::{
    ring_owners, value_key, FetchCost, ReplicaKind, ReplicaPolicy, ReplicaRepair, ReplicaRouting,
    Replicated, ReplicationControl,
};
pub use scheme::{
    MultiRangeScheme, OneAttribute, OutcomeCosts, QueryCtx, RangeOutcome, RangeRequest,
    RangeScheme, RectRequest, SchemeError,
};
pub use workload::{WorkloadGen, WorkloadKind, WORKLOAD_NAMES};

// The observability plane's event vocabulary. Defined in `simnet` (the
// simulator emits the events), re-exported here because the explain layer
// and every traced scheme speak it.
pub use simnet::{HopKind, TraceEvent, TraceRecord, TraceSink, Verdict};

// The network cost-model layer. `NetModel` is defined in `simnet` (the
// simulator charges edge costs as messages are scheduled, and `simnet`
// cannot depend on this crate), but it is part of this crate's query
// contract: `BuildParams::net` selects it, every scheme accumulates its
// edge costs into `RangeOutcome::latency`, and registry names accept
// `"pira@wan"`-style suffixes. The hostile fault catalog re-exports for
// the same reason: registry names accept `"pira@lossy-p/r2"`-style
// suffixes resolved against `FaultPlan::named_hostile`.
pub use simnet::{NetModel, NetModelKind, HOSTILE_PLAN_NAMES, NET_MODEL_NAMES};

use rand::rngs::SmallRng;
use simnet::NodeId;

/// A routed exact-match lookup: the owner found and the overlay hops paid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Peer responsible for the key.
    pub owner: NodeId,
    /// Overlay hops from the source to the owner: the sends the route
    /// made, a refused one included.
    pub hops: usize,
    /// Whether the route reached `owner`: false once a fault plan refused
    /// one of its sends, always true without one.
    pub arrived: bool,
}

/// What a route through a fault plan folds over its edges: the sends made,
/// the virtual latency of those delivered, and whether the route still
/// stands.
pub type FaultedRoute = (usize, u64, bool);

/// Folds the edge `src → dst` into a route ruled by `verdicts` — the
/// `route_fold` step of [`Dht::route_keys`] under a plan. The send is
/// made and counted; a refusal ends the route, so later edges fold
/// nothing. A delivered send adds its edge cost under `net` and its
/// queueing delay.
#[inline]
pub fn faulted_edge(
    verdicts: &mut simnet::Verdicts<'_>,
    net: &NetModel,
    (hops, latency, arrived): FaultedRoute,
    src: NodeId,
    dst: NodeId,
) -> FaultedRoute {
    if !arrived {
        return (hops, latency, false);
    }
    match verdicts.rule(src, dst, true, net, None) {
        Some(queueing) => (hops + 1, latency + queueing + net.edge_cost(src, dst), true),
        None => (hops + 1, latency, false),
    }
}

/// The exact-match interface a layered scheme consumes.
///
/// Keys are opaque `u64`s (layered schemes hash their labels into this
/// space); the DHT maps each key deterministically onto one live peer.
///
/// [`route_keys`](Dht::route_keys) is the one way a layered scheme routes:
/// a single lookup is a batch of one key, so a hop counter or a fault
/// verdict on routed hops has one place to go — the same
/// [`simnet::Verdicts`] chain the simulator rules its sends with.
///
/// `Send + Sync` are supertraits: routing takes `&self`, and a layered
/// scheme (e.g. PHT) can only satisfy [`RangeScheme`]'s thread-safety
/// contract if its substrate satisfies the same one — which every routing
/// table without interior mutability does for free.
pub trait Dht: Send + Sync {
    /// Routes from `from` to the owner of every key in `keys` and appends,
    /// in order, each route's [`Lookup`] and its virtual latency under
    /// `net`: the summed [`NetModel::edge_cost`] of every edge the route
    /// crosses. A batch is what a layered scheme's gets from one client
    /// cost, such as a PHT range query's trie-node gets.
    ///
    /// Without `faults`, routes from one origin share hops, so a substrate
    /// walks them as one route tree (`chord` and `fissione` do), keeping
    /// its buffers in `scratch`; every entry equals the key routed alone,
    /// which debug builds of both hold against the substrate's own single
    /// route. With `faults`, every get is its own message: each key is
    /// routed alone, in batch order, with every edge ruled by the chain
    /// ([`faulted_edge`]). A refused edge ends that key's route — its entry
    /// has `arrived` false and counts every send made, the refused one
    /// included — and a delivered edge adds its queueing delay to the
    /// latency.
    ///
    /// May panic if `from` is not live ([`is_live`](Dht::is_live)).
    fn route_keys(
        &self,
        from: NodeId,
        keys: &[u64],
        net: &NetModel,
        faults: Option<&mut simnet::Verdicts<'_>>,
        scratch: &mut simnet::QueryScratch,
        out: &mut Vec<(Lookup, u64)>,
    );

    /// Whether `node` is a live peer — what a layered scheme checks before
    /// it routes from a caller-supplied origin, since
    /// [`route_keys`](Dht::route_keys) may panic on a dead or unknown one.
    fn is_live(&self, node: NodeId) -> bool;

    /// The `r` distinct peers that should hold copies of `key`'s record —
    /// the substrate's close group around the owner, primary first, found
    /// by a *local* computation that routes nothing: `chord` returns the
    /// key's ring successors (the classic successor list), `fissione` the
    /// owner plus its Kautz neighbors. Deterministic in `(key, r,
    /// membership)` and clamped to the live peer count.
    fn replica_owners(&self, key: u64, r: usize) -> Vec<NodeId>;

    /// Some live peer (used as a default probe source).
    fn any_node(&self) -> NodeId;

    /// A uniformly random live peer.
    fn random_node(&self, rng: &mut SmallRng) -> NodeId;

    /// Number of live peers.
    fn node_count(&self) -> usize;

    /// Human-readable substrate name (for experiment tables).
    fn name(&self) -> &'static str;
}

/// FNV-1a hash used by layered schemes to map labels into the key space —
/// deterministic across runs, unlike `std`'s `DefaultHasher` seeds.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_deterministic_and_spreads() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b"0"), fnv1a(b"00"));
        // Known FNV-1a vector.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
