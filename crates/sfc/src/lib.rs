//! The z-order front end shared by the SFC-based range-query schemes
//! (Squid's cluster refinement over Chord, SCRAP's range walks over a Skip
//! Graph).
//!
//! The z-order (Morton) curve interleaves the bits of `m` quantised
//! attribute values into one key. A *cluster* is the set of keys sharing a
//! prefix; it corresponds to an axis-aligned hyper-rectangle, so a rectangle
//! query decomposes into a small set of maximal clusters — each of which is
//! a **contiguous key range**, the property both schemes exploit.
//!
//! [`ZMap`] is everything a scheme needs from the curve: it validates the
//! attribute domains once, maps a point to its key and a rectangle to its
//! merged clusters, and reports malformed input as one [`ZError`]. The
//! schemes keep only their back ends — how a key range is reached and read.
//!
//! # Example
//!
//! ```
//! use sfc::ZMap;
//!
//! let map = ZMap::new(&[(0.0, 100.0), (0.0, 100.0)])?;
//! let key = map.key(&[50.0, 50.0])?;
//! let clusters = map.clusters(&[(40.0, 60.0), (40.0, 60.0)])?;
//! assert!(clusters.iter().any(|c| (c.lo..=c.hi).contains(&key)));
//! assert!(map.key(&[50.0]).is_err()); // one attribute short
//! # Ok::<(), sfc::ZError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dht_api::SchemeError;

/// The widest z-order key a [`ZSpace`] lays out, in bits: `dims · bits`
/// stays below 63 so a key and its successor fit a `u64`.
pub const MAX_KEY_BITS: u32 = 62;

/// Bits per attribute of a [`ZMap`]'s quantisation.
pub const DEFAULT_BITS: u32 = 10;

/// The most attributes a [`ZMap`] key holds at [`DEFAULT_BITS`] bits each.
pub const MAX_ARITY: usize = (MAX_KEY_BITS / DEFAULT_BITS) as usize;

/// Malformed input to a [`ZMap`].
#[derive(Debug, Clone, PartialEq)]
pub enum ZError {
    /// A point or rectangle had the wrong number of attributes.
    WrongArity {
        /// Expected attribute count.
        expected: usize,
        /// Supplied attribute count.
        got: usize,
    },
    /// An attribute domain or query range was empty.
    EmptyRange {
        /// Index of the offending attribute.
        attribute: usize,
    },
    /// A map asked for no attributes, or for more than a key holds at
    /// [`DEFAULT_BITS`] bits each.
    UnsupportedArity {
        /// Supplied attribute count.
        got: usize,
        /// The most attributes a key holds ([`MAX_ARITY`]).
        max: usize,
    },
}

impl std::fmt::Display for ZError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZError::WrongArity { expected, got } => {
                write!(f, "expected {expected} attributes, got {got}")
            }
            ZError::EmptyRange { attribute } => write!(f, "empty range for attribute {attribute}"),
            ZError::UnsupportedArity { got, max } => {
                write!(f, "a z-order key serves 1..={max} attributes, got {got}")
            }
        }
    }
}

impl std::error::Error for ZError {}

impl From<ZError> for SchemeError {
    fn from(e: ZError) -> Self {
        match e {
            ZError::WrongArity { expected, got } => SchemeError::WrongArity { expected, got },
            ZError::EmptyRange { .. } => SchemeError::Query(e.to_string()),
            ZError::UnsupportedArity { .. } => SchemeError::Build(e.to_string()),
        }
    }
}

/// Whether `point` lies in `rect` (inclusive on both ends of every
/// attribute): the exact filter behind a cluster's quantised cells.
pub fn contains(rect: &[(f64, f64)], point: &[f64]) -> bool {
    point.iter().zip(rect).all(|(&v, &(lo, hi))| v >= lo && v <= hi)
}

/// The z-order map of a set of attribute domains: a [`ZSpace`] at
/// [`DEFAULT_BITS`] bits per attribute over validated domains.
#[derive(Debug, Clone, PartialEq)]
pub struct ZMap {
    space: ZSpace,
    domains: Vec<(f64, f64)>,
}

impl ZMap {
    /// Maps the given per-attribute domains.
    ///
    /// # Errors
    ///
    /// [`ZError::UnsupportedArity`] unless there are `1..=`[`MAX_ARITY`]
    /// domains, [`ZError::EmptyRange`] for a domain without `lo < hi`.
    pub fn new(domains: &[(f64, f64)]) -> Result<Self, ZError> {
        if !(1..=MAX_ARITY).contains(&domains.len()) {
            return Err(ZError::UnsupportedArity { got: domains.len(), max: MAX_ARITY });
        }
        if let Some(attribute) = domains
            .iter()
            .position(|&(lo, hi)| lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less))
        {
            return Err(ZError::EmptyRange { attribute });
        }
        Ok(ZMap {
            space: ZSpace::new(domains.len() as u32, DEFAULT_BITS),
            domains: domains.to_vec(),
        })
    }

    /// Number of attributes.
    pub fn dims(&self) -> usize {
        self.domains.len()
    }

    /// The key layout.
    pub fn space(&self) -> ZSpace {
        self.space
    }

    fn check_arity(&self, got: usize) -> Result<(), ZError> {
        match self.dims() {
            expected if expected == got => Ok(()),
            expected => Err(ZError::WrongArity { expected, got }),
        }
    }

    /// Quantises attribute `i`'s value to its cell.
    fn cell(&self, i: usize, v: f64) -> u32 {
        let (lo, hi) = self.domains[i];
        self.space.quantize((v - lo) / (hi - lo))
    }

    /// The z-order key of `point`; out-of-domain values clamp to the edge.
    ///
    /// # Errors
    ///
    /// [`ZError::WrongArity`] unless `point` has [`dims`](Self::dims) values.
    pub fn key(&self, point: &[f64]) -> Result<u64, ZError> {
        self.check_arity(point.len())?;
        let cells: Vec<u32> = point.iter().enumerate().map(|(i, &v)| self.cell(i, v)).collect();
        Ok(self.space.interleave(&cells))
    }

    /// The maximal clusters meeting `rect`, merged and ordered by key: the
    /// key ranges a query must read. Cells are quantised, so a cluster may
    /// hold points just outside `rect`; filter them with [`contains`].
    ///
    /// # Errors
    ///
    /// [`ZError::WrongArity`] unless `rect` has [`dims`](Self::dims)
    /// ranges, [`ZError::EmptyRange`] for the first range without
    /// `lo ≤ hi`.
    pub fn clusters(&self, rect: &[(f64, f64)]) -> Result<Vec<ZRange>, ZError> {
        self.check_arity(rect.len())?;
        let cells = rect
            .iter()
            .enumerate()
            .map(|(attribute, &(lo, hi))| {
                if lo <= hi {
                    Ok((self.cell(attribute, lo), self.cell(attribute, hi)))
                } else {
                    Err(ZError::EmptyRange { attribute })
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(merge_ranges(self.space.decompose(&cells)))
    }
}

/// A z-order key layout: `dims` attributes × `bits` bits each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZSpace {
    dims: u32,
    bits: u32,
}

/// A maximal cluster of the decomposition: the contiguous key range
/// `[lo, hi]` (inclusive), at `prefix_len` interleaved bits of depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZRange {
    /// Smallest key in the cluster.
    pub lo: u64,
    /// Largest key in the cluster.
    pub hi: u64,
    /// Prefix depth at which the cluster was emitted (refinement level).
    pub depth: u32,
}

impl ZSpace {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ dims`, `1 ≤ bits` and `dims·bits ≤`
    /// [`MAX_KEY_BITS`].
    pub fn new(dims: u32, bits: u32) -> Self {
        assert!(dims >= 1 && bits >= 1, "degenerate z-space");
        assert!(dims * bits <= MAX_KEY_BITS, "key would overflow u64");
        ZSpace { dims, bits }
    }

    /// Attribute count.
    pub fn dims(&self) -> u32 {
        self.dims
    }

    /// Bits per attribute.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Total key bits (`dims · bits`).
    pub fn key_bits(&self) -> u32 {
        self.dims * self.bits
    }

    /// Quantises a unit-interval coordinate to `bits` bits.
    pub fn quantize(&self, t: f64) -> u32 {
        let max = (1u64 << self.bits) - 1;
        ((t.clamp(0.0, 1.0) * max as f64) as u64).min(max) as u32
    }

    /// Interleaves quantised coordinates into a z-order key (dimension 0
    /// owns the most significant bit of each round).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or out-of-range coordinates.
    pub fn interleave(&self, coords: &[u32]) -> u64 {
        assert_eq!(coords.len(), self.dims as usize, "arity mismatch");
        let mut key = 0u64;
        for bit in (0..self.bits).rev() {
            for &c in coords {
                assert!(c < 1 << self.bits, "coordinate overflows {} bits", self.bits);
                key = (key << 1) | u64::from((c >> bit) & 1);
            }
        }
        key
    }

    /// Recovers the quantised coordinates from a key.
    pub fn deinterleave(&self, key: u64) -> Vec<u32> {
        let mut coords = vec![0u32; self.dims as usize];
        let total = self.key_bits();
        for i in 0..total {
            let bit = (key >> (total - 1 - i)) & 1;
            let dim = (i % self.dims) as usize;
            coords[dim] = (coords[dim] << 1) | bit as u32;
        }
        coords
    }

    /// Decomposes the quantised rectangle (per-dimension inclusive ranges)
    /// into maximal z-order clusters, each a contiguous key range.
    ///
    /// Recursion: a prefix whose box is disjoint from the query is pruned;
    /// fully contained boxes emit their whole key range; partial overlaps
    /// refine one interleaved bit deeper. The result is ordered by `lo` and
    /// its total size is `O(2^dims · key_bits)` ranges in the worst case.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn decompose(&self, ranges: &[(u32, u32)]) -> Vec<ZRange> {
        assert_eq!(ranges.len(), self.dims as usize, "arity mismatch");
        let mut out = Vec::new();
        // Box state: per-dim [lo, hi] of the current prefix, plus the key
        // prefix accumulated so far.
        let full: Vec<(u32, u32)> = vec![(0, ((1u64 << self.bits) - 1) as u32); self.dims as usize];
        self.decompose_rec(ranges, 0, 0, &full, &mut out);
        out
    }

    fn decompose_rec(
        &self,
        query: &[(u32, u32)],
        depth: u32,
        prefix: u64,
        boxes: &[(u32, u32)],
        out: &mut Vec<ZRange>,
    ) {
        // Disjoint?
        for (d, &(qlo, qhi)) in query.iter().enumerate() {
            let (blo, bhi) = boxes[d];
            if bhi < qlo || blo > qhi {
                return;
            }
        }
        let total = self.key_bits();
        let remaining = total - depth;
        // Fully contained?
        let contained = query
            .iter()
            .zip(boxes.iter())
            .all(|(&(qlo, qhi), &(blo, bhi))| qlo <= blo && bhi <= qhi);
        if contained || remaining == 0 {
            let lo = prefix << remaining;
            let hi = lo | ((1u64 << remaining) - 1);
            out.push(ZRange { lo, hi, depth });
            return;
        }
        // Refine one interleaved bit: it belongs to dimension `depth % dims`.
        let dim = (depth % self.dims) as usize;
        let (blo, bhi) = boxes[dim];
        let mid = blo + (bhi - blo) / 2;
        let mut low_half = boxes.to_vec();
        low_half[dim] = (blo, mid);
        let mut high_half = boxes.to_vec();
        high_half[dim] = (mid + 1, bhi);
        self.decompose_rec(query, depth + 1, prefix << 1, &low_half, out);
        self.decompose_rec(query, depth + 1, (prefix << 1) | 1, &high_half, out);
    }
}

/// Merges adjacent/overlapping ranges (the decomposition is ordered by
/// construction, so a single pass suffices). The `depth` of a merged range
/// is the maximum of its parts (the deepest refinement that produced it).
pub fn merge_ranges(mut ranges: Vec<ZRange>) -> Vec<ZRange> {
    ranges.sort_by_key(|r| r.lo);
    let mut out: Vec<ZRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match out.last_mut() {
            Some(last) if r.lo <= last.hi.saturating_add(1) => {
                last.hi = last.hi.max(r.hi);
                last.depth = last.depth.max(r.depth);
            }
            _ => out.push(r),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_roundtrips() {
        let z = ZSpace::new(2, 8);
        for coords in [[0u32, 0], [255, 255], [170, 85], [1, 2]] {
            let key = z.interleave(&coords);
            assert_eq!(z.deinterleave(key), coords.to_vec());
        }
    }

    #[test]
    fn interleave_is_monotone_per_quadrant() {
        // The first interleaved bit is dim 0's MSB: keys with dim0 < 2^(b-1)
        // precede keys with dim0 ≥ 2^(b-1).
        let z = ZSpace::new(2, 4);
        assert!(z.interleave(&[7, 15]) < z.interleave(&[8, 0]));
    }

    #[test]
    fn decompose_point_is_single_cell() {
        let z = ZSpace::new(2, 6);
        let ranges = z.decompose(&[(13, 13), (42, 42)]);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].lo, ranges[0].hi);
        assert_eq!(z.deinterleave(ranges[0].lo), vec![13, 42]);
    }

    #[test]
    fn decompose_covers_exactly() {
        let z = ZSpace::new(2, 4);
        let query = [(3u32, 9u32), (5u32, 12u32)];
        let ranges = merge_ranges(z.decompose(&query));
        // Collect all covered keys and compare with brute force.
        let mut covered: Vec<u64> = ranges.iter().flat_map(|r| r.lo..=r.hi).collect();
        covered.sort_unstable();
        let mut expect = Vec::new();
        for x in 0u32..16 {
            for y in 0u32..16 {
                if (3..=9).contains(&x) && (5..=12).contains(&y) {
                    expect.push(z.interleave(&[x, y]));
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(covered, expect);
    }

    #[test]
    fn whole_space_is_one_range() {
        let z = ZSpace::new(3, 4);
        let full = [(0u32, 15u32); 3];
        let ranges = z.decompose(&full);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].lo, 0);
        assert_eq!(ranges[0].hi, (1u64 << 12) - 1);
        assert_eq!(ranges[0].depth, 0);
    }

    #[test]
    fn merge_coalesces_adjacent() {
        let merged = merge_ranges(vec![
            ZRange { lo: 0, hi: 3, depth: 2 },
            ZRange { lo: 4, hi: 7, depth: 3 },
            ZRange { lo: 10, hi: 12, depth: 1 },
        ]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], ZRange { lo: 0, hi: 7, depth: 3 });
    }

    #[test]
    fn zmap_refuses_malformed_input() {
        assert_eq!(ZMap::new(&[]), Err(ZError::UnsupportedArity { got: 0, max: 6 }));
        let seven = ZMap::new(&[(0.0, 1.0); 7]).unwrap_err();
        assert_eq!(seven, ZError::UnsupportedArity { got: 7, max: MAX_ARITY });
        assert!(seven.to_string().contains("1..=6") && seven.to_string().contains("got 7"));
        assert_eq!(ZMap::new(&[(0.0, 1.0), (2.0, 2.0)]), Err(ZError::EmptyRange { attribute: 1 }));
        assert_eq!(ZMap::new(&[(f64::NAN, 1.0)]), Err(ZError::EmptyRange { attribute: 0 }));
        let map = ZMap::new(&[(0.0, 1.0); 2]).unwrap();
        assert_eq!(map.key(&[0.5]), Err(ZError::WrongArity { expected: 2, got: 1 }));
        assert_eq!(map.clusters(&[(0.0, 1.0)]), Err(ZError::WrongArity { expected: 2, got: 1 }));
        for bad in [(0.6, 0.4), (f64::NAN, 0.4)] {
            assert_eq!(map.clusters(&[(0.0, 1.0), bad]), Err(ZError::EmptyRange { attribute: 1 }));
        }
        // Each error keeps its meaning behind the scheme contract.
        assert!(matches!(SchemeError::from(seven), SchemeError::Build(_)));
        assert!(matches!(
            SchemeError::from(ZError::EmptyRange { attribute: 1 }),
            SchemeError::Query(_)
        ));
        assert_eq!(
            SchemeError::from(ZError::WrongArity { expected: 2, got: 1 }),
            SchemeError::WrongArity { expected: 2, got: 1 }
        );
    }

    #[test]
    fn zmap_clusters_hold_exactly_the_keys_of_the_rectangle() {
        let map = ZMap::new(&[(0.0, 100.0), (-50.0, 50.0)]).unwrap();
        let rect = [(12.5, 40.0), (-10.0, 3.0)];
        let clusters = map.clusters(&rect).unwrap();
        assert!(clusters.windows(2).all(|w| w[0].hi + 1 < w[1].lo), "merged and ordered");
        let inside = |key: u64| clusters.iter().any(|c| (c.lo..=c.hi).contains(&key));
        for i in 0..=40 {
            for j in 0..=40 {
                let point = [i as f64 * 2.5, j as f64 * 2.5 - 50.0];
                let key = map.key(&point).unwrap();
                assert!(!contains(&rect, &point) || inside(key), "{point:?} lost");
            }
        }
        // Out-of-domain values clamp to the edge cells.
        assert_eq!(map.key(&[-1.0, -99.0]), map.key(&[0.0, -50.0]));
        assert_eq!(map.key(&[1e9, 1e9]).unwrap(), (1 << 20) - 1);
    }

    #[test]
    fn quantize_endpoints() {
        let z = ZSpace::new(2, 8);
        assert_eq!(z.quantize(0.0), 0);
        assert_eq!(z.quantize(1.0), 255);
        assert_eq!(z.quantize(2.0), 255);
    }
}
