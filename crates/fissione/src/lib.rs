//! FISSIONE: a constant-degree DHT on Kautz graphs `K(2,k)` (Li, Lu & Wu,
//! INFOCOM 2005), reproduced as the substrate of the Armada range-query
//! scheme (ICDCS 2006, §3).
//!
//! # Model
//!
//! * **PeerIDs** are variable-length base-2 Kautz strings (alphabet
//!   `{0, 1, 2}`) forming a *maximal prefix-free cover* of the Kautz
//!   namespace: every ObjectID (length-`k`, default 100) has exactly one
//!   peer whose PeerID prefixes it.
//!   Equivalently, live peers are the leaf frontier of a pruned partition
//!   tree [`kautz::partition`]. A fresh network is the three root peers
//!   `0`, `1` and `2`, and no network shrinks below three peers.
//! * **Storage**: live PeerIDs tile the namespace in leaf order, so the
//!   published objects sorted by ObjectID are already partitioned peer by
//!   peer into contiguous runs. The network keeps them that way — one
//!   sorted column of `(`[`ObjectKey`]`, handle)` entries — and a peer
//!   *stores* the entries in the key interval its PeerID covers
//!   ([`PeerKey::interval`]): a store is derived from the cover, never
//!   moved when the cover changes.
//! * **Topology**: peer `U = u1…ul` links to every peer whose PeerID is
//!   prefix-compatible with `u2…ul` (the left shift). Under the paper's
//!   *neighborhood invariant* (neighbor depths differ by ≤ 1) this is exactly
//!   the `u2…ul·q1…qm`, `0 ≤ m ≤ 2` rule of §3; our implementation is the
//!   generic closure of that rule, so routing and range queries remain
//!   **correct** even when balance drifts — the invariant is a performance
//!   property, which the test-suite and the `fissione_props` experiment
//!   verify statistically (average degree ≈ 4, diameter < 2·log₂N, average
//!   routing < log₂N).
//! * **Join** ("fission"): route to a random point in the namespace, descend
//!   to a locally minimal-depth peer, and split its leaf; the joiner adopts
//!   one child label — and the upper part of the split peer's interval.
//!   **Leave/crash**: the sibling leaf (or, if the sibling region is
//!   subdivided, a peer freed by merging its deepest sibling-leaf pair)
//!   takes over the region, and with it the interval; a crash is a leave
//!   after which the entries in that interval are deleted.
//!   [`FissioneNet::stabilize`] repairs neighborhood violations after
//!   churn: one pass over the out-edges finds them, and each migration
//!   re-derives only the neighborhood it moved. None of join, leave, merge
//!   or `stabilize` touches an object.
//! * **Routing** (long-path Kautz routing): toward target `T`, a peer `C`
//!   computes the longest suffix of its ID that prefixes `T` and forwards to
//!   the out-neighbor owning `C.id[1..] ++ T[j..]`; every hop makes strict
//!   progress, so delivery takes at most `len(source.id)` hops — under
//!   balance `< 2·log₂N`, average `< log₂N`.
//!
//! # Example
//!
//! ```
//! use fissione::{FissioneConfig, FissioneNet};
//! use kautz::KautzStr;
//!
//! let mut rng = simnet::rng_from_seed(7);
//! let mut net = FissioneNet::build(FissioneConfig::default(), 200, &mut rng)?;
//! assert_eq!(net.len(), 200);
//! net.check_invariants()?;
//!
//! // Exact-match lookup: route from a random peer to an object's owner.
//! let object = KautzStr::random(net.config().object_id_len, &mut rng);
//! let from = net.random_peer(&mut rng);
//! let route = net.route(from, &object)?;
//! assert_eq!(route.dest(), net.owner_of(&object)?);
//! assert!((route.hops() as f64) <= 2.0 * (net.len() as f64).log2());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cover;
mod dht_impl;
mod net;
mod routing;
mod stats;

pub use kautz::{KeyRegion, ObjectKey, PeerKey, MAX_PEER_DEPTH};
pub use net::{FissioneNet, InvariantReport, Peer, RouteTable, MAX_OBJECT_ID_LEN};
pub use routing::{Route, RouteTree};
pub use stats::{DegreeStats, DepthStats, RoutingSample};

use simnet::NodeId;

/// How a joining peer picks the leaf to split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceRule {
    /// Split the owner of a uniformly random namespace point directly
    /// (CAN-style). Simple but lets depth spread grow — kept for the
    /// `ablation_balance` experiment.
    RandomOwner,
    /// From the random owner, hill-descend to a peer whose depth is locally
    /// minimal before splitting (the paper's fission balancing). `max_steps`
    /// bounds the descent.
    LocalMin {
        /// Maximum hill-descent steps before splitting anyway.
        max_steps: usize,
    },
}

impl Default for BalanceRule {
    fn default() -> Self {
        BalanceRule::LocalMin { max_steps: 32 }
    }
}

/// Static configuration of a FISSIONE network. The Kautz base is the
/// paper's 2 (alphabet `{0, 1, 2}`) and not configurable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FissioneConfig {
    /// ObjectID length `k` (the paper uses 100).
    pub object_id_len: usize,
    /// Leaf-split balancing rule for joins.
    pub balance: BalanceRule,
}

impl FissioneConfig {
    /// Checks what [`FissioneNet`] relies on.
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::UnsupportedObjectIdLen`] if `object_id_len`
    /// is zero or above [`MAX_OBJECT_ID_LEN`].
    pub fn validate(&self) -> Result<(), FissioneError> {
        if (1..=MAX_OBJECT_ID_LEN).contains(&self.object_id_len) {
            Ok(())
        } else {
            Err(FissioneError::UnsupportedObjectIdLen {
                len: self.object_id_len,
                max: MAX_OBJECT_ID_LEN,
            })
        }
    }
}

impl Default for FissioneConfig {
    fn default() -> Self {
        FissioneConfig { object_id_len: 100, balance: BalanceRule::default() }
    }
}

/// Errors returned by FISSIONE operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FissioneError {
    /// The referenced peer does not exist or has left.
    NoSuchPeer {
        /// The offending node id.
        node: NodeId,
    },
    /// The network would drop below its minimum size (the three root peers
    /// `0`, `1` and `2`).
    TooSmall,
    /// A routing target was shorter than the deepest PeerID, so ownership
    /// is ambiguous.
    TargetTooShort {
        /// Length of the supplied target.
        target_len: usize,
        /// Maximum live PeerID length.
        max_depth: usize,
    },
    /// A string offered as an ObjectID does not have the network's
    /// ObjectID length.
    ObjectIdLen {
        /// Length of the supplied string.
        len: usize,
        /// The configured `object_id_len`.
        expected: usize,
    },
    /// The configured ObjectID length is zero or above
    /// [`MAX_OBJECT_ID_LEN`].
    UnsupportedObjectIdLen {
        /// The configured `object_id_len`.
        len: usize,
        /// [`MAX_OBJECT_ID_LEN`].
        max: usize,
    },
    /// A join picked a leaf already at the ObjectID depth: its region is a
    /// single ObjectID and cannot be split. `object_id_len` is too small
    /// for the peer count.
    ObjectIdTooShort {
        /// Depth of the leaf the join would have split.
        depth: usize,
        /// The configured `object_id_len`.
        object_id_len: usize,
    },
    /// An invariant check failed (see [`InvariantReport`]).
    InvariantViolated(InvariantReport),
    /// No live route exists (everything usable is crashed).
    Unroutable,
}

impl std::fmt::Display for FissioneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FissioneError::NoSuchPeer { node } => write!(f, "no live peer with id {node}"),
            FissioneError::TooSmall => {
                write!(f, "network cannot shrink below its root peers")
            }
            FissioneError::TargetTooShort { target_len, max_depth } => write!(
                f,
                "target of length {target_len} shorter than deepest peer id ({max_depth})"
            ),
            FissioneError::ObjectIdLen { len, expected } => {
                write!(f, "ObjectID of {len} symbols in a network of {expected}-symbol ObjectIDs")
            }
            FissioneError::UnsupportedObjectIdLen { len, max } => {
                write!(f, "ObjectID length {len} outside 1..={max}")
            }
            FissioneError::ObjectIdTooShort { depth, object_id_len } => write!(
                f,
                "cannot split a depth-{depth} peer: ObjectIDs of {object_id_len} symbols resolve \
                 no deeper (object_id_len is too small for this many peers)"
            ),
            FissioneError::InvariantViolated(report) => {
                write!(f, "invariant violated: {report:?}")
            }
            FissioneError::Unroutable => write!(f, "no live route to the target"),
        }
    }
}

impl std::error::Error for FissioneError {}
