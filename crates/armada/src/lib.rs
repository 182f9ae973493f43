//! Armada: delay-bounded single- and multi-attribute range queries over the
//! FISSIONE constant-degree DHT — the contribution of *"Delay-Bounded Range
//! Queries in DHT-based Peer-to-Peer Systems"* (ICDCS 2006).
//!
//! Armada is a **general** range-query scheme: it layers entirely over the
//! unmodified [`fissione`] DHT. Its two components are
//!
//! 1. **Order-preserving naming** ([`kautz::naming`]): `Single_hash` maps an
//!    attribute interval onto the Kautz namespace interval-preservingly, so a
//!    value range becomes one Kautz region; `Multiple_hash` maps an
//!    `m`-attribute space partial-order-preservingly, so a rectangle query is
//!    bounded by its corner region.
//! 2. **Pruned forwarding over the FRT**: the forward routing tree of the
//!    query origin contains, at level `i`, every peer whose PeerID extends
//!    the suffix `u_{i+1}…u_b` of the origin's ID. PIRA (single-attribute)
//!    and MIRA (multi-attribute) are one query, [`descent::query`]: it
//!    descends this tree, pruning subtrees whose namespace prefix cannot
//!    intersect the query, and answers at the destination level — one
//!    message, one handler, one gather over the network's object table.
//!    The naming decides the rest: a region that is the query's image
//!    (`Single_hash`) is pruned and filtered in key space alone; a corner
//!    region (`Multiple_hash`) adds the rectangle test. The explicit tree,
//!    built in the crate's tests, is the oracle their traces are tested
//!    against.
//!
//! Both algorithms are **delay-bounded**: every query completes within the
//! origin's ID length in hops — `< 2·log₂N` worst case and `< log₂N` on
//! average — *independent of the queried range size*, unlike DCF-CAN
//! (`Ω(N^(1/d))`, growing with range size) and PHT (`O(b·log N)`).
//!
//! # Quickstart
//!
//! ```
//! use armada::SingleArmada;
//!
//! let mut rng = simnet::rng_from_seed(1);
//! // 100 peers; attribute space [0, 1000] (the paper's simulation setup).
//! let mut armada = SingleArmada::build(100, 0.0, 1000.0, &mut rng)?;
//! for score in [12.0, 55.5, 56.7, 58.0, 90.0] {
//!     armada.publish(score);
//! }
//! let origin = armada.net().random_peer(&mut rng);
//! let outcome = armada.pira_query(origin, 50.0, 60.0, 7)?;
//! let mut values: Vec<f64> =
//!     outcome.results.iter().map(|&r| armada.value(r)).collect();
//! values.sort_by(f64::total_cmp);
//! assert_eq!(values, vec![55.5, 56.7, 58.0]);
//! assert!(outcome.metrics.exact);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod descent;
mod engine;
mod metrics;
pub mod scheme;
pub mod seqwalk;
pub mod topk;

pub use engine::{Armada, MultiArmada, RecordId, SingleArmada};
pub use metrics::{QueryMetrics, QueryOutcome};
pub use scheme::{register, MiraScheme, PiraScheme, SeqWalkScheme};
pub use topk::TopKOutcome;

/// Errors returned by Armada query operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ArmadaError {
    /// The underlying DHT rejected an operation.
    Dht(fissione::FissioneError),
    /// Naming rejected the query (empty range, arity mismatch, …).
    Naming(kautz::naming::NamingError),
    /// The query origin is not a live peer.
    BadOrigin {
        /// The offending node id.
        origin: simnet::NodeId,
    },
}

impl std::fmt::Display for ArmadaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArmadaError::Dht(e) => write!(f, "dht error: {e}"),
            ArmadaError::Naming(e) => write!(f, "naming error: {e}"),
            ArmadaError::BadOrigin { origin } => write!(f, "origin {origin} is not live"),
        }
    }
}

impl std::error::Error for ArmadaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArmadaError::Dht(e) => Some(e),
            ArmadaError::Naming(e) => Some(e),
            ArmadaError::BadOrigin { .. } => None,
        }
    }
}

impl From<fissione::FissioneError> for ArmadaError {
    fn from(e: fissione::FissioneError) -> Self {
        ArmadaError::Dht(e)
    }
}

impl From<kautz::naming::NamingError> for ArmadaError {
    fn from(e: kautz::naming::NamingError) -> Self {
        ArmadaError::Naming(e)
    }
}
