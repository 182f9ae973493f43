//! A deterministic discrete-event simulator for P2P overlay protocols.
//!
//! The Armada paper evaluates with a hop-count simulator ("we have
//! implemented the single-attribute range query scheme of Armada in the
//! FISSIONE simulator", §4.3.3). This crate is that simulator, rebuilt:
//!
//! * [`Sim`] — a virtual clock in unit ticks and two delivery lanes: a
//!   network message lands one tick after it was sent, a self-delivery in
//!   the tick it was sent in, after the tick's network deliveries. Each
//!   envelope is written once and read once. Protocol logic is a plain
//!   `FnMut(&mut Sim<M>, Envelope<M>)` handler, so node state lives in
//!   ordinary Rust structures captured by the closure.
//! * [`Envelope`] — a delivered message carrying its **hop depth** (overlay
//!   path length from the query origin), which is the paper's delay metric.
//! * [`FaultPlan`] — message-drop probability and crashed-node sets for
//!   robustness experiments, plus the hostile-network families
//!   ([`LossPlan`] hash-verdict per-edge loss, [`PartitionPlan`]
//!   epoch-scheduled splits, [`RateLimitPlan`] token-bucket queueing
//!   delay) whose every decision is a pure hash — see the
//!   [`faults`](FaultPlan) module docs.
//! * [`Verdicts`] — the plan's verdict chain: one ruling per send,
//!   refused or priced with its queueing delay. [`Sim`] runs it on every
//!   scheduled send; a substrate's routed lookups run it on every edge.
//! * [`NetModel`] — the network cost layer: named, seeded, deterministic
//!   per-edge costs in virtual milliseconds (`unit`, `lan`, `wan`,
//!   `cluster`, `straggler`), accumulated along message chains into
//!   [`Envelope::cost`] without perturbing event order — so hop metrics
//!   stay bitwise identical under every cost model.
//! * [`Summary`] / [`Samples`] — helper statistics (mean/min/max/
//!   percentiles) used by the experiment harnesses to aggregate the paper's
//!   1000-query averages; [`Samples`] merges per-shard measurement vectors
//!   deterministically for the parallel drivers.
//!
//! Determinism: all randomness flows through a seeded [`rand::rngs::SmallRng`]
//! or a pure hash, and both lanes are FIFO, so deliveries come in tick order
//! and, within a tick, in send order. A given seed always reproduces the
//! same run — the property the experiment harness relies on to make figures
//! reproducible.
//!
//! # Example
//!
//! ```
//! use simnet::{Envelope, Sim};
//!
//! // Three nodes in a directed line; pass a token along and count hops.
//! let next = vec![Some(1), Some(2), None];
//! let mut sim = Sim::new(42);
//! sim.send(0, 0, 0, ()); // self-delivery starts the protocol
//! let mut seen = vec![false; 3];
//! sim.run(|sim, env: Envelope<()>| {
//!     seen[env.to] = true;
//!     if let Some(n) = next[env.to] {
//!         sim.forward(&env, n, ());
//!     }
//! });
//! assert!(seen.iter().all(|&s| s));
//! assert_eq!(sim.stats().max_hop_delivered, 2); // 0 → 1 → 2
//! assert_eq!(sim.stats().messages_sent, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counts;
mod engine;
mod faults;
mod net;
mod scratch;
mod stats;
mod trace;
mod verdicts;

pub use engine::{Envelope, Sim, SimScratch};
pub use faults::{FaultPlan, LossPlan, PartitionPlan, RateLimitPlan, HOSTILE_PLAN_NAMES};
pub use net::{mix, NetModel, NetModelKind, NET_MODEL_NAMES};
pub use scratch::{Answers, QueryScratch};
pub use stats::{Samples, SimStats, Summary};
pub use trace::{HopKind, TraceEvent, TraceRecord, TraceSink, Verdict};
pub use verdicts::Verdicts;

/// Identifier of a simulated node (index into the caller's node table).
pub type NodeId = usize;

/// Virtual simulation time in unit ticks: every network message takes
/// exactly one, a self-delivery none.
pub type SimTime = u64;

/// Creates the deterministic RNG used across the suite.
///
/// A thin wrapper over [`rand::SeedableRng::seed_from_u64`] so every crate
/// seeds the same way.
pub fn rng_from_seed(seed: u64) -> rand::rngs::SmallRng {
    use rand::SeedableRng;
    rand::rngs::SmallRng::seed_from_u64(seed)
}
