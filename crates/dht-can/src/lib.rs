//! CAN (Content-Addressable Network) with Hilbert-curve interval mapping and
//! DCF (directed controlled flooding) range queries — the baseline of
//! Andrzejak & Xu, *"Scalable, Efficient Range Queries for Grid Information
//! Services"* (IEEE P2P 2002), which the Armada paper compares against
//! ("DCF-CAN", §4.3.3).
//!
//! # Model
//!
//! * [`CanNet`] — a 2-d unit torus tiled by rectangular zones, one per peer
//!   (degree ≈ 2d = 4, matching the paper's "average degree of the
//!   underlying DHT is 4"). Joins split the owner of a random point along
//!   its longer side; routing is greedy by torus distance.
//! * [`hilbert`] — a Hilbert space-filling curve maps the attribute interval
//!   `[L, H]` onto the square, so a value range becomes a curve segment
//!   whose aligned-block decomposition is a handful of squares.
//! * [`dcf`] — a range query routes to the zone owning the range's
//!   **median** value, then floods outward over zones intersecting the
//!   range's image. *Directed controlled* flooding suppresses duplicates by
//!   piggybacking the already-informed set; a naive flood exists for the
//!   `ablation_flood` experiment.
//!
//! The baseline's delay grows with both the queried range and `N^(1/d)` —
//! the behaviour Figures 5 and 7 of the Armada paper contrast against
//! PIRA's bounded delay.
//!
//! # Example
//!
//! ```
//! use dht_can::{CanConfig, CanNet, dcf};
//!
//! let mut rng = simnet::rng_from_seed(5);
//! let mut net = CanNet::build(CanConfig::default(), 100, &mut rng)?;
//! net.publish(42.0, 1);
//! net.publish(55.0, 2);
//! net.publish(90.0, 3);
//! let origin = net.random_zone(&mut rng);
//! let out = dcf::range_query(&net, origin, 40.0, 60.0, 9, dcf::FloodMode::Directed)?;
//! assert!(out.exact);
//! assert_eq!(out.results, vec![1, 2]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
mod can;
pub mod dcf;
pub mod hilbert;
pub mod scheme;

pub use can::{CanConfig, CanNet, Rect, Zone};
pub use scheme::{register, DcfScheme};

/// Errors returned by CAN operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CanError {
    /// The referenced zone does not exist.
    NoSuchZone {
        /// The offending zone id.
        zone: simnet::NodeId,
    },
    /// A query range was empty (`lo > hi`, or a NaN bound).
    EmptyRange {
        /// Supplied lower bound.
        lo: f64,
        /// Supplied upper bound.
        hi: f64,
    },
    /// Greedy routing made no progress (cannot happen on a well-formed
    /// tiling; reported rather than looping).
    RoutingStuck,
    /// A departure would empty the network (the last zone cannot leave).
    TooSmall,
}

impl std::fmt::Display for CanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CanError::NoSuchZone { zone } => write!(f, "no zone with id {zone}"),
            CanError::EmptyRange { lo, hi } => write!(f, "empty range [{lo}, {hi}]"),
            CanError::RoutingStuck => write!(f, "greedy routing made no progress"),
            CanError::TooSmall => write!(f, "the last zone cannot leave the network"),
        }
    }
}

impl std::error::Error for CanError {}
