//! Kautz-namespace mathematics for the Armada / FISSIONE stack.
//!
//! This crate implements the combinatorial substrate shared by the
//! FISSIONE constant-degree DHT (INFOCOM 2005) and the Armada delay-bounded
//! range-query scheme (ICDCS 2006). The paper runs both on the base-2
//! Kautz namespace, and so does this crate: the alphabet is `{0, 1, 2}`
//! and the partition tree is `P(2,k)`.
//!
//! * [`KautzStr`] — validated Kautz strings (no two adjacent symbols equal)
//!   over the alphabet `{0, 1, 2}`, with the lexicographic order `⪯`,
//!   prefix/suffix algebra, and a rank/unrank bijection onto
//!   `0 .. 3·2^(n-1)`.
//! * [`KautzRegion`] — the set of length-`k` Kautz strings between two
//!   endpoints (Definition 1 of the paper), with prefix-intersection tests and
//!   the common-prefix splitting rule used by PIRA.
//! * [`partition`] — the partition tree `P(2,k)` (paper §4.1, Figure 3) with
//!   **exact `u128` fixed-point arithmetic**, so naming stays correct for the
//!   paper's `k = 100` where `f64` intervals would underflow.
//! * [`naming`] — the order-preserving [`SingleHash`](naming::SingleHash)
//!   (Definition 2: interval-preserving) and partial-order-preserving
//!   [`MultiHash`](naming::MultiHash) (Definitions 3–4) object-naming
//!   algorithms, which emit [`ObjectKey`]s directly.
//! * [`key`] — the one packing of a Kautz string into 2-bit groups:
//!   [`ObjectKey`], the fixed-width form of an ObjectID the object table
//!   sorts by, with the region arithmetic on it (the sub-region split,
//!   `|ComT|`) a range query's prologue runs; [`PeerKey`], FISSIONE's
//!   PeerID key, with the neighbour, split and routing arithmetic on it;
//!   and [`KeyRegion`], PIRA's pruning predicates on those keys.
//!
//! # Example
//!
//! ```
//! use kautz::{KautzStr, naming::SingleHash};
//!
//! // The paper's running example: attribute space [0, 1], k = 4.
//! let naming = SingleHash::new(0.0, 1.0, 4)?;
//! // Attribute value 0.1 lies in the leaf labelled 0120 (paper §4.1).
//! assert_eq!(naming.object_id(0.1), "0120".parse::<KautzStr>()?);
//! // The query [0.1, 0.24] maps to the Kautz region ⟨0120, 0202⟩.
//! let region = naming.region(0.1, 0.24)?;
//! assert_eq!(region.low().to_string(), "0120");
//! assert_eq!(region.high().to_string(), "0202");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod region;
mod string;

pub mod fixed;
pub mod key;
pub mod naming;
pub mod partition;

pub use key::{KeyRegion, ObjectKey, PeerKey, MAX_PEER_DEPTH};
pub use region::KautzRegion;
pub use string::{KautzStr, ParseKautzStrError};

/// Errors produced when constructing or combining Kautz strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KautzError {
    /// A symbol lay outside the alphabet `{0, 1, 2}`.
    SymbolOutOfRange {
        /// The offending symbol.
        symbol: u8,
    },
    /// Two adjacent symbols were equal, which Kautz strings forbid.
    AdjacentRepeat {
        /// Index of the first symbol of the repeated pair.
        index: usize,
    },
    /// Operands had different lengths where equal lengths are required.
    LengthMismatch {
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
    /// A region was constructed with `low > high`.
    EmptyRegion,
    /// A rank was out of range for the requested string length.
    RankOutOfRange {
        /// The offending rank.
        rank: u128,
        /// Number of Kautz strings of the requested shape.
        count: u128,
    },
    /// The requested length is not supported (`0` or too large for `u128`
    /// rank arithmetic).
    UnsupportedLength {
        /// The offending length.
        len: usize,
    },
}

impl std::fmt::Display for KautzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KautzError::SymbolOutOfRange { symbol } => {
                write!(f, "symbol {symbol} outside the alphabet {{0, 1, 2}}")
            }
            KautzError::AdjacentRepeat { index } => {
                write!(f, "adjacent symbols at indices {index} and {} repeat", index + 1)
            }
            KautzError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            KautzError::EmptyRegion => write!(f, "region endpoints out of order (low > high)"),
            KautzError::RankOutOfRange { rank, count } => {
                write!(f, "rank {rank} out of range (space has {count} strings)")
            }
            KautzError::UnsupportedLength { len } => {
                write!(f, "unsupported Kautz string length {len}")
            }
        }
    }
}

impl std::error::Error for KautzError {}
