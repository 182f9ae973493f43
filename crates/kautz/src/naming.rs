//! Order-preserving object naming (paper §4.1 and §5).
//!
//! [`SingleHash`] implements `Single_hash`: an **interval-preserving**
//! surjection (Definition 2) from an attribute interval `[L, H]` onto
//! `KautzSpace(2,k)` — objects with close attribute values receive adjoining
//! ObjectIDs, so a value range maps to exactly one [`KautzRegion`].
//!
//! [`MultiHash`] implements `Multiple_hash`: a **partial-order-preserving**
//! surjection (Definitions 3–4) from an `m`-attribute space onto
//! `KautzSpace(2,k)` via round-robin splits. The image of a rectangle query
//! is a *subset* of the corner region `⟨F(mins), F(maxs)⟩`, so queries carry
//! the exact rectangle and prune with [`ScaledRect::meets_prefix`].
//! [`Naming::query_region`] is the one question a query asks of either: its
//! region's endpoint keys, and the rectangle still to test when the region
//! is not the query's exact image (always under `Multiple_hash`, never
//! under `Single_hash`).
//!
//! # Keys and strings
//!
//! What the engine publishes under and queries with is the
//! [`ObjectKey`] of a leaf, and the naming emits it directly:
//! [`SingleHash::object_key`], [`SingleHash::region_keys`],
//! [`MultiHash::object_key`] and [`MultiHash::corner_keys`] build no
//! string (a byte transducer over the descent's split indices, see
//! [`crate::partition`]). The string forms — [`SingleHash::object_id`],
//! [`SingleHash::region`], [`MultiHash::object_id`],
//! [`MultiHash::corner_region`] — stay as the API edge for callers that
//! route to or print an ObjectID, and as the reference the keys are
//! property-tested against. [`ScaledRect::meets_prefix`] reads a prefix as a
//! string too: MIRA's rectangle test has no key form yet.

use crate::fixed::{BoundaryInterval, ScaledValue};
use crate::partition::{
    multiple_hash_key, multiple_hash_key_with, multiple_hash_scaled, rect_of_prefix_into,
    single_hash_key, single_hash_scaled, MAX_DEPTH,
};
use crate::{KautzError, KautzRegion, KautzStr, ObjectKey};

/// Errors from constructing or using a naming scheme.
#[derive(Debug, Clone, PartialEq)]
pub enum NamingError {
    /// The attribute interval is empty or not finite.
    BadInterval {
        /// Lower endpoint supplied.
        lo: f64,
        /// Upper endpoint supplied.
        hi: f64,
    },
    /// The ObjectID length is zero or above [`MAX_DEPTH`].
    BadDepth {
        /// The offending depth.
        k: usize,
    },
    /// A query or point had the wrong number of attributes.
    WrongArity {
        /// Attributes expected by the scheme.
        expected: usize,
        /// Attributes supplied.
        got: usize,
    },
    /// A query range was empty (`lo > hi`, or a NaN bound).
    EmptyRange {
        /// Index of the offending attribute.
        attribute: usize,
    },
}

impl std::fmt::Display for NamingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NamingError::BadInterval { lo, hi } => {
                write!(f, "attribute interval [{lo}, {hi}] is empty or not finite")
            }
            NamingError::BadDepth { k } => {
                write!(f, "ObjectID length {k} outside 1..={MAX_DEPTH}")
            }
            NamingError::WrongArity { expected, got } => {
                write!(f, "expected {expected} attribute(s), got {got}")
            }
            NamingError::EmptyRange { attribute } => {
                write!(f, "empty range for attribute {attribute}")
            }
        }
    }
}

impl std::error::Error for NamingError {}

/// What a record store needs of a naming scheme: how many attributes a
/// point has, the key of the ObjectID it is published under, and the region
/// a rectangle query descends to. [`SingleHash`] names one-attribute
/// points, [`MultiHash`] `m`-attribute ones.
pub trait Naming {
    /// Attributes per point.
    fn arity(&self) -> usize;

    /// The [`ObjectKey`] of the ObjectID of a point of
    /// [`arity`](Self::arity) attributes (each coordinate clamped into its
    /// domain).
    ///
    /// # Errors
    ///
    /// Returns [`NamingError::WrongArity`] on arity mismatch.
    fn point_id(&self, point: &[f64]) -> Result<ObjectKey, NamingError>;

    /// The region a query for the closed rectangle `rect` (one range per
    /// attribute) descends to, as its endpoint keys, beside the rectangle in
    /// scaled units when the region is wider than the query's image: then a
    /// peer or a record of the region still has to meet it. `None` promises
    /// the region is the image, so a key strictly inside it names a point
    /// inside the query.
    ///
    /// # Errors
    ///
    /// Returns [`NamingError::WrongArity`] on arity mismatch and
    /// [`NamingError::EmptyRange`] for a range with `lo > hi` or a NaN bound.
    fn query_region(
        &self,
        rect: &[(f64, f64)],
    ) -> Result<((ObjectKey, ObjectKey), Option<ScaledRect>), NamingError>;
}

/// A closed attribute domain `[L, H]` with finite endpoints, `L < H`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueSpace {
    lo: f64,
    hi: f64,
}

impl ValueSpace {
    /// Creates the domain `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`NamingError::BadInterval`] unless `lo < hi` and both are
    /// finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self, NamingError> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(NamingError::BadInterval { lo, hi });
        }
        Ok(ValueSpace { lo, hi })
    }

    /// Lower endpoint `L`.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint `H`.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Normalises a value into exact scaled units, clamping to the domain.
    pub fn normalize(&self, v: f64) -> ScaledValue {
        ScaledValue::normalize(v, self.lo, self.hi)
    }

    /// Maps a boundary interval back to approximate raw endpoints.
    pub fn denormalize(&self, iv: &BoundaryInterval) -> (f64, f64) {
        iv.denormalize(self.lo, self.hi)
    }
}

/// `Single_hash`: interval-preserving naming for one numeric attribute.
///
/// # Example
///
/// ```
/// use kautz::naming::SingleHash;
///
/// let naming = SingleHash::new(0.0, 1000.0, 100)?; // paper's defaults
/// let id = naming.object_id(355.0);
/// assert_eq!(id.len(), 100);
/// let region = naming.region(350.0, 360.0)?;
/// assert!(region.contains(&id));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SingleHash {
    space: ValueSpace,
    k: usize,
}

impl SingleHash {
    /// Creates a naming scheme over `[lo, hi]` producing length-`k`
    /// ObjectIDs.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid interval or unsupported depth.
    pub fn new(lo: f64, hi: f64, k: usize) -> Result<Self, NamingError> {
        if k == 0 || k > MAX_DEPTH {
            return Err(NamingError::BadDepth { k });
        }
        Ok(SingleHash { space: ValueSpace::new(lo, hi)?, k })
    }

    /// The ObjectID length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The attribute domain.
    pub fn space(&self) -> &ValueSpace {
        &self.space
    }

    /// `Single_hash(c, L, H, k)`: the ObjectID of attribute value `c`
    /// (clamped into the domain).
    pub fn object_id(&self, c: f64) -> KautzStr {
        single_hash_scaled(self.space.normalize(c), self.k)
    }

    /// The key of `Single_hash(c, L, H, k)`:
    /// `ObjectKey::new(&self.object_id(c))`, built without the string.
    pub fn object_key(&self, c: f64) -> ObjectKey {
        single_hash_key(self.space.normalize(c), self.k)
    }

    /// The Kautz region `⟨Single_hash(lo), Single_hash(hi)⟩` holding every
    /// object with attribute value in `[lo, hi]` (§4.2).
    ///
    /// # Errors
    ///
    /// Returns [`NamingError::EmptyRange`] if `lo > hi` or a bound is NaN.
    pub fn region(&self, lo: f64, hi: f64) -> Result<KautzRegion, NamingError> {
        check_range(lo, hi, 0)?;
        let low_t = self.object_id(lo);
        let high_t = self.object_id(hi);
        Ok(KautzRegion::new(low_t, high_t).expect("naming is monotone"))
    }

    /// [`region`](Self::region) as its endpoint keys `(LowT, HighT)`, the
    /// form PIRA queries with.
    ///
    /// # Errors
    ///
    /// As [`region`](Self::region).
    pub fn region_keys(&self, lo: f64, hi: f64) -> Result<(ObjectKey, ObjectKey), NamingError> {
        check_range(lo, hi, 0)?;
        Ok((self.object_key(lo), self.object_key(hi)))
    }

    /// The exact attribute subinterval owned by a prefix (a peer whose ID is
    /// `prefix` stores exactly the objects whose value falls here).
    ///
    /// # Errors
    ///
    /// Returns an error if the prefix is deeper than [`MAX_DEPTH`].
    pub fn prefix_interval(&self, prefix: &KautzStr) -> Result<BoundaryInterval, KautzError> {
        crate::partition::interval_of_prefix(prefix)
    }
}

impl Naming for SingleHash {
    fn arity(&self) -> usize {
        1
    }

    fn point_id(&self, point: &[f64]) -> Result<ObjectKey, NamingError> {
        match *point {
            [value] => Ok(self.object_key(value)),
            _ => Err(NamingError::WrongArity { expected: 1, got: point.len() }),
        }
    }

    /// [`region_keys`](Self::region_keys): interval preservation makes the
    /// region the query's exact image.
    #[inline]
    fn query_region(
        &self,
        rect: &[(f64, f64)],
    ) -> Result<((ObjectKey, ObjectKey), Option<ScaledRect>), NamingError> {
        match *rect {
            [(lo, hi)] => Ok((self.region_keys(lo, hi)?, None)),
            _ => Err(NamingError::WrongArity { expected: 1, got: rect.len() }),
        }
    }
}

/// A rectangle query in scaled units: per-attribute closed ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaledRect {
    lo: Vec<ScaledValue>,
    hi: Vec<ScaledValue>,
}

impl ScaledRect {
    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.lo.len()
    }

    /// Scaled lower corner.
    pub fn lo(&self) -> &[ScaledValue] {
        &self.lo
    }

    /// Scaled upper corner.
    pub fn hi(&self) -> &[ScaledValue] {
        &self.hi
    }

    /// Whether a partition-tree node rectangle intersects this query.
    pub fn intersects(&self, node: &[BoundaryInterval]) -> bool {
        debug_assert_eq!(node.len(), self.lo.len());
        node.iter()
            .zip(self.lo.iter().zip(self.hi.iter()))
            .all(|(iv, (&lo, &hi))| iv.intersects_query(lo, hi))
    }

    /// Whether the hyper-rectangle owned by `prefix` meets this query —
    /// MIRA's answer and pruning test — with `buf` holding that rectangle
    /// (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if the prefix is deeper than [`MAX_DEPTH`].
    pub fn meets_prefix(&self, prefix: &KautzStr, buf: &mut Vec<BoundaryInterval>) -> bool {
        rect_of_prefix_into(prefix, self.arity(), buf).expect("prefix within MAX_DEPTH");
        self.intersects(buf)
    }

    /// Whether a scaled point lies inside the closed rectangle.
    pub fn contains_point(&self, point: &[ScaledValue]) -> bool {
        debug_assert_eq!(point.len(), self.lo.len());
        point
            .iter()
            .zip(self.lo.iter().zip(self.hi.iter()))
            .all(|(&p, (&lo, &hi))| p >= lo && p <= hi)
    }
}

/// `Multiple_hash`: partial-order-preserving naming for `m` numeric
/// attributes (§5).
///
/// # Example
///
/// ```
/// use kautz::naming::MultiHash;
///
/// // Grid information service: memory [0,4096] MB, disk [0,500] GB.
/// let naming = MultiHash::new(&[(0.0, 4096.0), (0.0, 500.0)], 100)?;
/// let id = naming.object_id(&[2048.0, 120.0])?;
/// assert_eq!(id.len(), 100);
/// // "1GB ≤ memory ≤ 4GB and 50GB ≤ disk ≤ 200GB"
/// let rect = naming.query_rect(&[(1024.0, 4096.0), (50.0, 200.0)])?;
/// assert!(rect.contains_point(&naming.normalize_point(&[2048.0, 120.0])?));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiHash {
    spaces: Vec<ValueSpace>,
    k: usize,
}

impl MultiHash {
    /// Creates a naming scheme over the given per-attribute domains,
    /// producing length-`k` ObjectIDs.
    ///
    /// # Errors
    ///
    /// Returns an error if no attributes are given, any interval is invalid,
    /// or the depth is unsupported.
    pub fn new(domains: &[(f64, f64)], k: usize) -> Result<Self, NamingError> {
        if domains.is_empty() {
            return Err(NamingError::WrongArity { expected: 1, got: 0 });
        }
        if k == 0 || k > MAX_DEPTH {
            return Err(NamingError::BadDepth { k });
        }
        let spaces = domains
            .iter()
            .map(|&(lo, hi)| ValueSpace::new(lo, hi))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MultiHash { spaces, k })
    }

    /// The ObjectID length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The per-attribute domains.
    pub fn spaces(&self) -> &[ValueSpace] {
        &self.spaces
    }

    /// Normalises a raw point into scaled units.
    ///
    /// # Errors
    ///
    /// Returns [`NamingError::WrongArity`] on arity mismatch.
    pub fn normalize_point(&self, values: &[f64]) -> Result<Vec<ScaledValue>, NamingError> {
        if values.len() != self.spaces.len() {
            return Err(NamingError::WrongArity { expected: self.spaces.len(), got: values.len() });
        }
        Ok(values.iter().zip(self.spaces.iter()).map(|(&v, s)| s.normalize(v)).collect())
    }

    /// `Multiple_hash(v0, …, v(m-1))`: the ObjectID of a multi-attribute
    /// value (each coordinate clamped into its domain).
    ///
    /// # Errors
    ///
    /// Returns [`NamingError::WrongArity`] on arity mismatch.
    pub fn object_id(&self, values: &[f64]) -> Result<KautzStr, NamingError> {
        let scaled = self.normalize_point(values)?;
        Ok(multiple_hash_scaled(&scaled, self.k))
    }

    /// The key of `Multiple_hash(v0, …, v(m-1))`:
    /// `ObjectKey::new(&self.object_id(values)?)`, built without the string
    /// (or a scaled copy of the point).
    ///
    /// # Errors
    ///
    /// Returns [`NamingError::WrongArity`] on arity mismatch.
    pub fn object_key(&self, values: &[f64]) -> Result<ObjectKey, NamingError> {
        if values.len() != self.spaces.len() {
            return Err(NamingError::WrongArity { expected: self.spaces.len(), got: values.len() });
        }
        let value = |d: usize| self.spaces[d].normalize(values[d]);
        Ok(multiple_hash_key_with(values.len(), self.k, value))
    }

    /// The corner region `⟨Multiple_hash(mins), Multiple_hash(maxs)⟩` of a
    /// rectangle query. The query image is a subset of this region (partial-
    /// order preservation), which bounds MIRA's destination level.
    ///
    /// # Errors
    ///
    /// Returns an error on arity mismatch or an empty per-attribute range.
    pub fn corner_region(&self, query: &[(f64, f64)]) -> Result<KautzRegion, NamingError> {
        let rect = self.query_rect(query)?;
        let low_t = multiple_hash_scaled(rect.lo(), self.k);
        let high_t = multiple_hash_scaled(rect.hi(), self.k);
        Ok(KautzRegion::new(low_t, high_t).expect("naming preserves the partial order"))
    }

    /// The [`corner_region`](Self::corner_region) of a rectangle already in
    /// scaled units, as its endpoint keys: the form MIRA queries with.
    pub fn corner_keys(&self, rect: &ScaledRect) -> (ObjectKey, ObjectKey) {
        (multiple_hash_key(rect.lo(), self.k), multiple_hash_key(rect.hi(), self.k))
    }

    /// Converts a raw rectangle query into exact scaled units.
    ///
    /// # Errors
    ///
    /// Returns an error on arity mismatch or an empty per-attribute range
    /// (`lo > hi` or a NaN bound).
    pub fn query_rect(&self, query: &[(f64, f64)]) -> Result<ScaledRect, NamingError> {
        if query.len() != self.spaces.len() {
            return Err(NamingError::WrongArity { expected: self.spaces.len(), got: query.len() });
        }
        let mut lo = Vec::with_capacity(query.len());
        let mut hi = Vec::with_capacity(query.len());
        for (i, (&(a, b), space)) in query.iter().zip(self.spaces.iter()).enumerate() {
            check_range(a, b, i)?;
            lo.push(space.normalize(a));
            hi.push(space.normalize(b));
        }
        Ok(ScaledRect { lo, hi })
    }
}

impl Naming for MultiHash {
    fn arity(&self) -> usize {
        self.spaces.len()
    }

    fn point_id(&self, point: &[f64]) -> Result<ObjectKey, NamingError> {
        self.object_key(point)
    }

    /// [`corner_keys`](Self::corner_keys) beside the
    /// [`query_rect`](Self::query_rect), whose corner region holds the
    /// query's image but more besides.
    fn query_region(
        &self,
        rect: &[(f64, f64)],
    ) -> Result<((ObjectKey, ObjectKey), Option<ScaledRect>), NamingError> {
        let scaled = self.query_rect(rect)?;
        Ok((self.corner_keys(&scaled), Some(scaled)))
    }
}

/// [`NamingError::EmptyRange`] for `attribute` unless `lo ≤ hi` (a NaN
/// bound is never in order).
fn check_range(lo: f64, hi: f64, attribute: usize) -> Result<(), NamingError> {
    if lo <= hi {
        Ok(())
    } else {
        Err(NamingError::EmptyRange { attribute })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_running_example() {
        let naming = SingleHash::new(0.0, 1.0, 4).unwrap();
        assert_eq!(naming.object_id(0.1).to_string(), "0120");
        let region = naming.region(0.1, 0.24).unwrap();
        assert_eq!(region.low().to_string(), "0120");
        assert_eq!(region.high().to_string(), "0202");
        assert_eq!(region.size(), 4);
    }

    #[test]
    fn interval_preservation_exhaustive_small_k() {
        // Definition 2: the image of [a,b] is exactly ⟨F(a), F(b)⟩ — check
        // by enumerating all leaves of a k = 4 tree.
        let naming = SingleHash::new(0.0, 1000.0, 4).unwrap();
        let queries = [(0.0, 1000.0), (0.0, 10.0), (990.0, 1000.0), (400.0, 600.0), (250.0, 250.0)];
        for (a, b) in queries {
            let region = naming.region(a, b).unwrap();
            let whole = KautzRegion::new(
                KautzStr::empty().min_extension(4),
                KautzStr::empty().max_extension(4),
            )
            .unwrap();
            for leaf in whole.iter() {
                let iv = naming.prefix_interval(&leaf).unwrap();
                let (lo, hi) = naming.space().denormalize(&iv);
                // Leaf intersects [a,b] (with closed/half-open edges)?
                let qa = naming.space().normalize(a);
                let qb = naming.space().normalize(b);
                let intersects = iv.intersects_query(qa, qb);
                assert_eq!(
                    region.contains(&leaf),
                    intersects,
                    "query [{a},{b}] leaf {leaf} interval [{lo},{hi})"
                );
            }
        }
    }

    #[test]
    fn region_rejects_reversed_query() {
        let naming = SingleHash::new(0.0, 1.0, 4).unwrap();
        assert!(matches!(naming.region(0.9, 0.1), Err(NamingError::EmptyRange { .. })));
    }

    #[test]
    fn nan_bounds_are_empty_ranges() {
        // A NaN bound normalises to the domain's low end: `(10, NaN)` used to
        // reach `KautzRegion::new` inverted and panic, and `(NaN, 600)` to
        // name a region that holds no value of the range.
        let empty = |r: Result<(), NamingError>| matches!(r, Err(NamingError::EmptyRange { .. }));
        let single = SingleHash::new(0.0, 1000.0, 24).unwrap();
        let multi = MultiHash::new(&[(0.0, 1000.0), (0.0, 1000.0)], 24).unwrap();
        for (lo, hi) in [(10.0, f64::NAN), (f64::NAN, 600.0), (f64::NAN, f64::NAN)] {
            assert!(empty(single.region(lo, hi).map(|_| ())), "[{lo}, {hi}]");
            assert!(
                empty(multi.corner_region(&[(lo, hi), (0.0, 1.0)]).map(|_| ())),
                "[{lo}, {hi}]"
            );
            assert!(empty(multi.query_rect(&[(0.0, 1.0), (lo, hi)]).map(|_| ())), "[{lo}, {hi}]");
        }
    }

    #[test]
    fn point_ids_check_arity_and_agree_with_object_ids() {
        let single = SingleHash::new(0.0, 1000.0, 24).unwrap();
        let multi = MultiHash::new(&[(0.0, 1000.0), (0.0, 1000.0)], 24).unwrap();
        assert_eq!((single.arity(), multi.arity()), (1, 2));
        assert_eq!(single.point_id(&[355.0]), Ok(ObjectKey::new(&single.object_id(355.0))));
        let id = multi.object_id(&[1.0, 2.0]).unwrap();
        assert_eq!(multi.point_id(&[1.0, 2.0]), Ok(ObjectKey::new(&id)));
        let wrong = |expected, got| Err(NamingError::WrongArity { expected, got });
        assert_eq!(single.point_id(&[1.0, 2.0]), wrong(1, 2));
        assert_eq!(single.point_id(&[]), wrong(1, 0));
        assert_eq!(multi.point_id(&[1.0]), wrong(2, 1));
    }

    #[test]
    fn single_hash_k100_region_sizes_scale_with_range() {
        let naming = SingleHash::new(0.0, 1000.0, 100).unwrap();
        let small = naming.region(500.0, 501.0).unwrap();
        let large = naming.region(100.0, 900.0).unwrap();
        assert!(large.size() > small.size());
    }

    #[test]
    fn multi_hash_rejects_bad_arity() {
        let naming = MultiHash::new(&[(0.0, 1.0), (0.0, 1.0)], 8).unwrap();
        assert!(matches!(
            naming.object_id(&[0.5]),
            Err(NamingError::WrongArity { expected: 2, got: 1 })
        ));
    }

    #[test]
    fn corner_region_contains_query_image() {
        // The image of any in-rectangle point must fall inside the corner
        // region (the partial-order preservation property MIRA relies on).
        let naming = MultiHash::new(&[(0.0, 100.0), (0.0, 100.0)], 10).unwrap();
        let query = [(20.0, 60.0), (30.0, 80.0)];
        let region = naming.corner_region(&query).unwrap();
        for i in 0..=20 {
            for j in 0..=20 {
                let p = [20.0 + 2.0 * i as f64, 30.0 + 2.5 * j as f64];
                let id = naming.object_id(&p).unwrap();
                assert!(region.contains(&id), "point {p:?}");
            }
        }
    }

    #[test]
    fn prefix_rect_prunes_consistently_with_membership() {
        let naming = MultiHash::new(&[(0.0, 10.0), (0.0, 10.0)], 6).unwrap();
        let rect = naming.query_rect(&[(2.0, 4.0), (6.0, 9.0)]).unwrap();
        // If a leaf's object is inside the query, every ancestor must pass
        // the pruning test.
        let mut node = Vec::new();
        for i in 0..=10 {
            for j in 0..=10 {
                let p = [2.0 + 0.2 * i as f64, 6.0 + 0.3 * j as f64];
                let id = naming.object_id(&p).unwrap();
                for depth in 1..=6 {
                    let prefix = id.take_front(depth);
                    assert!(rect.meets_prefix(&prefix, &mut node), "point {p:?} depth {depth}");
                }
            }
        }
    }

    /// A value for the key oracle: inside the domain, at or past either
    /// end, ±∞, NaN, a subnormal or a signed zero.
    fn any_value(rng: &mut rand::rngs::SmallRng, (lo, hi): (f64, f64)) -> f64 {
        use rand::Rng;
        match rng.gen_range(0..10) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => [lo, hi, 0.0, -0.0][rng.gen_range(0..4usize)],
            4 => {
                f64::from_bits(rng.gen_range(1..1u64 << 52)) * [1.0, -1.0][rng.gen_range(0..2usize)]
            }
            5 => rng.gen_range(2.0 * lo - hi..=2.0 * hi - lo),
            _ => rng.gen_range(lo..=hi),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        // The keys the naming emits against the strings it spells, on
        // domains that do and do not straddle zero (so subnormals land
        // inside some and outside others).
        #[test]
        fn object_keys_are_the_keys_of_the_object_ids(
            seed in proptest::prelude::any::<u64>(),
            k in proptest::prelude::prop_oneof![
                proptest::prelude::Just(24usize),
                proptest::prelude::Just(100),
                proptest::prelude::Just(120),
            ],
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let domain = match rng.gen_range(0..3usize) {
                0 => (0.0, 1e-310),
                1 => (-1e-300, 1.0),
                _ => {
                    let low_end = rng.gen_range(-1e6..1e6);
                    (low_end, low_end + rng.gen_range(1e-3..1e6))
                }
            };
            let single = SingleHash::new(domain.0, domain.1, k).unwrap();
            let multi = MultiHash::new(&[domain; 3], k).unwrap();
            // NaN clamps to the domain's low end: the lowest key.
            let lowest = ObjectKey::new(&KautzStr::empty().min_extension(k));
            proptest::prop_assert_eq!(single.object_key(f64::NAN), lowest);
            proptest::prop_assert_eq!(single.object_key(f64::NEG_INFINITY), lowest);
            for _ in 0..32 {
                let v = any_value(&mut rng, domain);
                let id = single.object_id(v);
                proptest::prop_assert_eq!(single.object_key(v), ObjectKey::new(&id), "{}", v);
                let point = [v, any_value(&mut rng, domain), any_value(&mut rng, domain)];
                let id = multi.object_id(&point).unwrap();
                let key = multi.object_key(&point);
                proptest::prop_assert_eq!(key, Ok(ObjectKey::new(&id)), "{:?}", point);
                let (lo, hi) = (v, any_value(&mut rng, domain));
                match single.region(lo, hi) {
                    Ok(region) => {
                        let keys = (ObjectKey::new(region.low()), ObjectKey::new(region.high()));
                        proptest::prop_assert_eq!(single.region_keys(lo, hi), Ok(keys));
                    }
                    Err(e) => proptest::prop_assert_eq!(single.region_keys(lo, hi), Err(e)),
                }
                let rect = [(lo.min(hi), lo.max(hi)), (domain.0, v), (v, domain.1)];
                let (scaled, region) = (multi.query_rect(&rect), multi.corner_region(&rect));
                if let (Ok(scaled), Ok(region)) = (scaled, region) {
                    let keys = (ObjectKey::new(region.low()), ObjectKey::new(region.high()));
                    proptest::prop_assert_eq!(multi.corner_keys(&scaled), keys);
                }
            }
        }
    }

    #[test]
    fn value_space_validation() {
        assert!(ValueSpace::new(1.0, 1.0).is_err());
        assert!(ValueSpace::new(f64::NAN, 1.0).is_err());
        assert!(ValueSpace::new(0.0, f64::INFINITY).is_err());
        assert!(ValueSpace::new(-5.0, 5.0).is_ok());
    }
}
