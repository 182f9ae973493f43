//! The dynamics contract: membership change as a first-class, scheme-generic
//! capability.
//!
//! The paper's premise is range queries over a *dynamic* P2P system — Armada
//! rides FissionE precisely because FissionE absorbs joins and departures
//! with constant-cost maintenance — yet a query API alone only ever measures
//! frozen networks. This module adds the second half of the contract.
//!
//! [`DynamicScheme`] is what a scheme exposes when its substrate has churn
//! primitives: `join`, `leave`, `crash`, `stabilize`, `live_peers`. Schemes
//! opt in through [`RangeScheme::as_dynamic`], so drivers and experiments
//! discover support at runtime instead of hard-coding scheme lists. A
//! churn-capable substrate (`chord::ChordNet`, `fissione::FissioneNet`)
//! implements the same trait, so a layered scheme (PHT) hands its
//! substrate out as its dynamics: the substrate owns membership, the layer
//! owns the index structure.
//!
//! The key contract is the **stabilize guarantee**: after
//! [`stabilize`](DynamicScheme::stabilize) returns, every query must again
//! be answered exactly (`exact == true`, `peer_recall == 1.0`), whatever
//! sequence of joins, graceful leaves, and crashes preceded it. Graceful
//! leaves hand their records over synchronously; crashes lose locally stored
//! records, and `stabilize` is where the scheme repairs them (schemes keep
//! the published data, so restoration is a re-publish of whatever the
//! crashed peers took down). The workspace-level
//! `tests/scheme_differential.rs` pins this cross-scheme.
//!
//! [`RangeScheme::as_dynamic`]: crate::RangeScheme::as_dynamic

use crate::scheme::SchemeError;
use rand::rngs::SmallRng;
use simnet::NodeId;

/// Churn primitives of a range-query scheme whose substrate supports
/// membership change, or of such a substrate itself (`chord::ChordNet`,
/// `fissione::FissioneNet`).
///
/// All methods take `&mut self`: membership events are serial, unlike
/// queries. [`ParallelDriver::run_epochs`](crate::ParallelDriver::run_epochs)
/// applies them between query epochs, single-threaded, so the epoch
/// determinism guarantee never depends on event interleaving.
pub trait DynamicScheme {
    /// A new peer joins; placement randomness comes from `rng`. Returns the
    /// newcomer's node id.
    ///
    /// # Errors
    ///
    /// Scheme-specific build-time limits (e.g. a region cannot split below
    /// its resolution floor).
    fn join(&mut self, rng: &mut SmallRng) -> Result<NodeId, SchemeError>;

    /// A peer departs gracefully: its region and records are handed over to
    /// the remaining peers before it goes.
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadOrigin`] for dead ids; [`SchemeError::Query`] when
    /// the network is already at its minimum size.
    fn leave(&mut self, node: NodeId) -> Result<(), SchemeError>;

    /// A peer fails abruptly: its region is reclaimed but its locally
    /// stored records are lost until [`stabilize`](Self::stabilize) repairs
    /// them.
    ///
    /// # Errors
    ///
    /// Same conditions as [`leave`](Self::leave).
    fn crash(&mut self, node: NodeId) -> Result<(), SchemeError>;

    /// Restores the scheme to a fully-converged state: overlay invariant
    /// repair (substrate migrations) plus re-publication of records lost to
    /// crashes. Returns the number of repair operations performed.
    ///
    /// After this returns, every query must be exact again — the contract
    /// the workspace differential tests enforce.
    fn stabilize(&mut self) -> usize;

    /// All live peers, in a deterministic order (churn plans pick leave and
    /// crash victims by index into this list).
    fn live_peers(&self) -> Vec<NodeId>;
}
