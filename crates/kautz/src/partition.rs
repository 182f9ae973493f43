//! The partition tree `P(2,k)` (paper §4.1, Figure 3) and its descent
//! arithmetic.
//!
//! The tree's root has three children (edge labels `0,1,2`); every other node
//! has two children whose edge labels differ from the node's incoming edge,
//! increasing left to right. Leaf labels at depth `k` enumerate
//! `KautzSpace(2,k)` in lexicographic order, so the tree is simultaneously
//!
//! * an interval partition of an attribute space (single-attribute naming,
//!   `Single_hash`),
//! * a round-robin hyper-rectangle partition of a multi-attribute space
//!   (`Multiple_hash`, §5), and
//! * the split structure of FISSIONE peer IDs (a peer's region is the
//!   subtree under its ID).
//!
//! All descent arithmetic is exact (`u128` fixed point, see [`crate::fixed`]),
//! valid to depth [`MAX_DEPTH`].

use crate::fixed::{Boundary, BoundaryInterval, ScaledValue, BOUNDARY_DEN, SCALE};
use crate::{KautzError, KautzStr, ObjectKey};

/// Maximum supported partition-tree depth (limited by exact `u128`
/// boundary arithmetic; the paper uses `k = 100`).
pub const MAX_DEPTH: usize = 120;

/// The `idx`-th legal child symbol after `last` (alphabet `{0,1,2}` minus
/// `last`, increasing) — the arithmetic form of
/// [`KautzStr::child_symbols`]`().nth(idx)` for base 2.
const fn child2(last: u8, idx: u8) -> u8 {
    match (last, idx) {
        (0, 0) => 1,
        (0, _) => 2,
        (1, 0) => 0,
        (1, _) => 2,
        (2, 0) => 0,
        _ => 1,
    }
}

/// The byte transducer of the binary levels. Indexed by the symbol before
/// a run of eight levels and by their eight split indices (a byte, most
/// significant first), it holds the eight symbols they pick, as key groups
/// (16 bits, the first symbol highest), and the last of them.
const fn build_byte_table() -> [[(u16, u8); 256]; 3] {
    let mut table = [[(0u16, 0u8); 256]; 3];
    let mut start = 0;
    while start < 3 {
        let mut byte = 0;
        while byte < 256 {
            let (mut groups, mut last, mut bit) = (0u16, start as u8, 0);
            while bit < 8 {
                last = child2(last, ((byte >> (7 - bit)) & 1) as u8);
                groups = groups << 2 | (last as u16 + 1);
                bit += 1;
            }
            table[start][byte] = (groups, last);
            byte += 1;
        }
        start += 1;
    }
    table
}

/// [`build_byte_table`], computed at compile time (3 KiB).
static BYTE_TABLE: [[(u16, u8); 256]; 3] = build_byte_table();

/// One exact ternary split step: which of the root's three equal pieces
/// contains relative position `p ∈ [0, SCALE]`, and `p` rescaled within it.
fn step3(p: u128) -> (usize, u128) {
    let t = 3 * p;
    let i = (t >> crate::fixed::SCALE_BITS).min(2) as usize;
    (i, t - (i as u128) * SCALE)
}

/// One exact binary split step.
fn step2(p: u128) -> (usize, u128) {
    let t = 2 * p;
    let i = (t >> crate::fixed::SCALE_BITS).min(1) as usize;
    (i, t - (i as u128) * SCALE)
}

/// The symbols of the descent to `x` (one per level, unbounded): the root
/// step, then one binary step per level, each split index mapped through
/// [`child2`]. The reference the key transducer is checked against.
fn descent(x: ScaledValue) -> impl Iterator<Item = u8> {
    let (root, mut p) = step3(x.raw());
    let mut last = root as u8; // root children are the symbols 0, 1, 2 in order
    std::iter::once(last).chain(std::iter::repeat_with(move || {
        let (idx, rest) = step2(p);
        p = rest;
        last = child2(last, idx as u8);
        last
    }))
}

/// `Single_hash` on a pre-normalised value: the label of the depth-`k` leaf
/// whose subinterval contains `x`, spelled symbol by symbol — the string
/// form [`single_hash_key`] is tested against.
///
/// Boundaries between siblings belong to the right sibling (intervals are
/// half-open `[lo, hi)`), except the top of the space which belongs to the
/// last leaf.
///
/// # Panics
///
/// Panics if `k == 0` or `k > `[`MAX_DEPTH`].
pub fn single_hash_scaled(x: ScaledValue, k: usize) -> KautzStr {
    assert!(k > 0 && k <= MAX_DEPTH, "depth {k} out of range");
    KautzStr::new(descent(x).take(k).collect::<Vec<_>>())
        .expect("descent emits legal child symbols")
}

/// The key of the depth-`k` leaf reached from root child `root` by the
/// binary split indices `levels`: bit `127 − j` is the index at level
/// `j + 1`. The levels run through [`BYTE_TABLE`] a byte at a time, their
/// groups written as if level 1 were symbol 0 (four bytes a word), then
/// shifted one group right under the root's.
fn key_of_descent(root: usize, levels: u128, k: usize) -> ObjectKey {
    let mut words = [0u64; 4];
    let mut last = root as u8;
    for j in 0..(k - 1).div_ceil(8) {
        let byte = (levels >> (120 - 8 * j)) as u8;
        let (groups, end) = BYTE_TABLE[last as usize][byte as usize];
        words[j / 4] |= u64::from(groups) << (48 - 16 * (j % 4));
        last = end;
    }
    let mut carry = (root as u64 + 1) << 62;
    for word in &mut words {
        (*word, carry) = (carry | *word >> 2, *word << 62);
    }
    ObjectKey(words).truncate(k)
}

/// A binary-split residual's split indices, most significant first: its
/// 120 bits, with the top of the space (`SCALE`, which takes the right
/// child at every level) read as all ones.
fn level_bits(p: u128) -> u128 {
    p.min(SCALE - 1) << (128 - crate::fixed::SCALE_BITS)
}

/// `Single_hash` on a pre-normalised value, as a key: the root step, then
/// the binary levels — the residual's bits — through the byte transducer.
/// Equal to `ObjectKey::new(&single_hash_scaled(x, k))`, which debug
/// builds check against the symbol-by-symbol descent.
///
/// # Panics
///
/// Panics if `k == 0` or `k > `[`MAX_DEPTH`].
pub fn single_hash_key(x: ScaledValue, k: usize) -> ObjectKey {
    assert!(k > 0 && k <= MAX_DEPTH, "depth {k} out of range");
    let (root, p) = step3(x.raw());
    let key = key_of_descent(root, level_bits(p), k);
    debug_assert!(
        key.len() == k && descent(x).take(k).enumerate().all(|(i, s)| key.symbol(i) == Some(s)),
        "the key of {x:?} at depth {k} strays from the string descent"
    );
    key
}

/// `Multiple_hash` as a key, on `m` attributes whose scaled values
/// `value(d)` yields (each read once): attribute `d`'s binary splits take
/// its bits in turn at levels `d, d + m, …` (attribute 0's residual after
/// the root step, from level `m`), so the split index of every level is
/// scattered into one level word, which then runs through the same
/// transducer as [`single_hash_key`].
pub(crate) fn multiple_hash_key_with(
    m: usize,
    k: usize,
    value: impl Fn(usize) -> ScaledValue,
) -> ObjectKey {
    assert!(m > 0, "at least one attribute required");
    assert!(k > 0 && k <= MAX_DEPTH, "depth {k} out of range");
    let mut root = 0;
    let mut levels = 0u128;
    for d in 0..m {
        let mut bits = value(d).raw();
        if d == 0 {
            (root, bits) = step3(bits);
        }
        let bits = level_bits(bits);
        let first = if d == 0 { m } else { d };
        for (q, level) in (first..k).step_by(m).enumerate() {
            levels |= (bits << q >> 127) << (128 - level);
        }
    }
    key_of_descent(root, levels, k)
}

/// `Multiple_hash` on pre-normalised per-attribute values, as a key:
/// `ObjectKey::new(&multiple_hash_scaled(values, k))` without the string.
///
/// # Panics
///
/// Panics if `values` is empty, `k == 0`, or `k > `[`MAX_DEPTH`].
pub fn multiple_hash_key(values: &[ScaledValue], k: usize) -> ObjectKey {
    multiple_hash_key_with(values.len(), k, |d| values[d])
}

/// `Multiple_hash` (§5) on pre-normalised per-attribute values: descends the
/// partition tree splitting attribute `j mod m` at level `j` (ternary at the
/// root, binary elsewhere).
///
/// With `m = 1` this coincides with [`single_hash_scaled`]. The string
/// form [`multiple_hash_key`] is tested against.
///
/// # Panics
///
/// Panics if `values` is empty, `k == 0`, or `k > `[`MAX_DEPTH`].
pub fn multiple_hash_scaled(values: &[ScaledValue], k: usize) -> KautzStr {
    assert!(!values.is_empty(), "at least one attribute required");
    assert!(k > 0 && k <= MAX_DEPTH, "depth {k} out of range");
    let m = values.len();
    let mut state: Vec<u128> = values.iter().map(|v| v.raw()).collect();
    let mut label = KautzStr::empty();
    for level in 0..k {
        let dim = level % m;
        let (idx, rest) = if level == 0 { step3(state[dim]) } else { step2(state[dim]) };
        state[dim] = rest;
        let sym = label.child_symbols().nth(idx).expect("split index below child count");
        label.push(sym).expect("child symbol is legal");
    }
    label
}

/// The exact hyper-rectangle of the partition-tree node labelled `prefix`,
/// for an `m`-attribute space (per-dimension half-open boundary intervals).
///
/// With `m = 1` the single entry is the node's attribute subinterval.
///
/// # Errors
///
/// Returns [`KautzError::UnsupportedLength`] if the prefix is deeper than
/// [`MAX_DEPTH`].
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn rect_of_prefix(prefix: &KautzStr, m: usize) -> Result<Vec<BoundaryInterval>, KautzError> {
    let mut out = Vec::with_capacity(m);
    rect_of_prefix_into(prefix, m, &mut out)?;
    Ok(out)
}

/// [`rect_of_prefix`] into a caller-owned buffer (cleared first) — the
/// allocation-free form query hot paths call per hop.
///
/// One dimension at a time with scalar accumulators, so no per-call
/// temporaries: the split index of `sym` at a level is its position among
/// the legal child symbols there, which is `sym` at the root (all of
/// `0..=base` are legal) and `sym` minus one when `sym` sorts after the
/// preceding symbol (every symbol but the predecessor is legal).
///
/// # Errors
///
/// Same conditions as [`rect_of_prefix`].
///
/// # Panics
///
/// Panics if `m == 0`.
pub fn rect_of_prefix_into(
    prefix: &KautzStr,
    m: usize,
    out: &mut Vec<BoundaryInterval>,
) -> Result<(), KautzError> {
    assert!(m > 0, "at least one attribute required");
    if prefix.len() > MAX_DEPTH {
        return Err(KautzError::UnsupportedLength { len: prefix.len() });
    }
    let syms = prefix.symbols();
    out.clear();
    for d in 0..m {
        let mut lo: u128 = 0;
        let mut width: u128 = BOUNDARY_DEN;
        let mut level = d;
        while level < syms.len() {
            let sym = syms[level];
            let (idx, pieces) = if level == 0 {
                (sym as usize, 3u128)
            } else {
                (sym as usize - usize::from(sym > syms[level - 1]), 2u128)
            };
            let w = width / pieces;
            debug_assert_eq!(w * pieces, width, "exact division invariant");
            lo += idx as u128 * w;
            width = w;
            level += m;
        }
        out.push(BoundaryInterval {
            lo: Boundary::from_num(lo),
            hi: Boundary::from_num(lo).add(width),
        });
    }
    Ok(())
}

/// The exact attribute subinterval of the node labelled `prefix` in the
/// single-attribute tree (`m = 1` rectangle).
///
/// # Errors
///
/// Same conditions as [`rect_of_prefix`].
pub fn interval_of_prefix(prefix: &KautzStr) -> Result<BoundaryInterval, KautzError> {
    Ok(rect_of_prefix(prefix, 1)?[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks(s: &str) -> KautzStr {
        s.parse().unwrap()
    }

    fn hash_unit(x: f64, k: usize) -> KautzStr {
        single_hash_scaled(ScaledValue::from_unit(x), k)
    }

    #[test]
    fn paper_figure_3_examples() {
        // Node U with label 0101 represents [0, 1/2^4 · …]: the paper says
        // value 0.1 lies in leaf P = 0120 and [0.1, 0.24] spans ⟨0120, 0202⟩.
        assert_eq!(hash_unit(0.1, 4), ks("0120"));
        assert_eq!(hash_unit(0.24, 4), ks("0202"));
    }

    #[test]
    fn leftmost_and_rightmost_leaves() {
        assert_eq!(hash_unit(0.0, 4), ks("0101"));
        assert_eq!(hash_unit(1.0, 4), ks("2121"));
    }

    #[test]
    fn leaf_order_matches_value_order() {
        let k = 5;
        let mut prev = hash_unit(0.0, k);
        for i in 1..=1000 {
            let cur = hash_unit(i as f64 / 1000.0, k);
            assert!(cur >= prev, "monotone naming at step {i}");
            prev = cur;
        }
    }

    #[test]
    fn every_leaf_is_hit_surjective() {
        // k = 4: 24 leaves; sample finely and expect all leaves covered.
        let k = 4;
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..=4800 {
            seen.insert(hash_unit(i as f64 / 4800.0, k));
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn interval_of_prefix_contains_its_values() {
        let k = 6;
        for i in 0..=500 {
            let x = ScaledValue::from_unit(i as f64 / 500.0);
            let leaf = single_hash_scaled(x, k);
            // Every ancestor's interval contains x.
            for depth in 1..=k {
                let node = leaf.take_front(depth);
                let iv = interval_of_prefix(&node).unwrap();
                assert!(iv.contains_value(x), "x index {i}, depth {depth}");
            }
        }
    }

    #[test]
    fn sibling_intervals_tile_the_parent() {
        // The three root children tile [0,1]; deeper siblings tile parents.
        let roots = ["0", "1", "2"];
        let mut cursor = Boundary::ZERO;
        for r in roots {
            let iv = interval_of_prefix(&ks(r)).unwrap();
            assert_eq!(iv.lo, cursor);
            cursor = iv.hi;
        }
        assert_eq!(cursor, Boundary::ONE);

        let children = ["010", "012"]; // children of 01
        let parent = interval_of_prefix(&ks("01")).unwrap();
        let mut cursor = parent.lo;
        for c in children {
            let iv = interval_of_prefix(&ks(c)).unwrap();
            assert_eq!(iv.lo, cursor);
            cursor = iv.hi;
        }
        assert_eq!(cursor, parent.hi);
    }

    #[test]
    fn depth_100_is_exact_and_consistent() {
        let k = 100;
        let xs = [0.0, 1e-12, 0.1, 1.0 / 3.0, 0.5, 0.9999999, 1.0];
        for &x in &xs {
            let v = ScaledValue::from_unit(x);
            let leaf = single_hash_scaled(v, k);
            assert_eq!(leaf.len(), k);
            let iv = interval_of_prefix(&leaf).unwrap();
            assert!(iv.contains_value(v), "x = {x}");
        }
    }

    #[test]
    fn multiple_hash_round_robin_dims() {
        // Two attributes: level 0 splits dim 0 in thirds, level 1 splits
        // dim 1 in halves, level 2 splits dim 0 again, …
        let v = |a: f64, b: f64| vec![ScaledValue::from_unit(a), ScaledValue::from_unit(b)];
        // dim0 = 0.9 → root child 2; dim1 = 0.1 → first half.
        let id = multiple_hash_scaled(&v(0.9, 0.1), 2);
        assert_eq!(id.symbols()[0], 2);
        // Level 1: children of "2" are {0, 1}; 0.1 in the first half → 0.
        assert_eq!(id.symbols()[1], 0);
    }

    #[test]
    fn multiple_hash_is_partial_order_preserving() {
        // Definition 4: componentwise ≤ implies lexicographic ≤.
        let pts = [(0.1, 0.2), (0.1, 0.9), (0.4, 0.2), (0.4, 0.9), (0.9, 0.95)];
        let f = |(a, b): (f64, f64)| {
            multiple_hash_scaled(&[ScaledValue::from_unit(a), ScaledValue::from_unit(b)], 8)
        };
        for &p in &pts {
            for &q in &pts {
                if p.0 <= q.0 && p.1 <= q.1 {
                    assert!(f(p) <= f(q), "{p:?} vs {q:?}");
                }
            }
        }
    }

    #[test]
    fn rect_of_prefix_contains_hashed_point() {
        let m = 3;
        let k = 12;
        let vals = [0.13, 0.57, 0.86];
        let scaled: Vec<ScaledValue> = vals.iter().map(|&x| ScaledValue::from_unit(x)).collect();
        let leaf = multiple_hash_scaled(&scaled, k);
        for depth in 1..=k {
            let rect = rect_of_prefix(&leaf.take_front(depth), m).unwrap();
            for (d, iv) in rect.iter().enumerate() {
                assert!(iv.contains_value(scaled[d]), "depth {depth} dim {d}");
            }
        }
    }

    #[test]
    fn rect_into_matches_the_child_symbols_walk() {
        // The into-variant's arithmetic split index must reproduce the
        // context-tracking child_symbols() walk on every valid prefix.
        fn rect_via_walk(prefix: &KautzStr, m: usize) -> Vec<BoundaryInterval> {
            let mut lo = vec![0u128; m];
            let mut width = vec![BOUNDARY_DEN; m];
            let mut context = KautzStr::empty();
            for (level, &sym) in prefix.symbols().iter().enumerate() {
                let dim = level % m;
                let idx = context.child_symbols().position(|s| s == sym).unwrap();
                let pieces = if level == 0 { 3 } else { 2 };
                let w = width[dim] / pieces;
                lo[dim] += idx as u128 * w;
                width[dim] = w;
                context.push(sym).unwrap();
            }
            (0..m)
                .map(|d| BoundaryInterval {
                    lo: Boundary::from_num(lo[d]),
                    hi: Boundary::from_num(lo[d]).add(width[d]),
                })
                .collect()
        }
        let mut frontier = vec![KautzStr::empty()];
        for _ in 0..=6 {
            let mut next = Vec::new();
            for p in &frontier {
                for m in 1..=3 {
                    assert_eq!(rect_of_prefix(p, m).unwrap(), rect_via_walk(p, m), "{p:?} m={m}");
                }
                for sym in p.child_symbols() {
                    let mut c = p.clone();
                    c.push(sym).unwrap();
                    next.push(c);
                }
            }
            frontier = next;
        }
    }

    #[test]
    fn rect_of_prefix_rejects_excessive_depth() {
        let mut syms = Vec::new();
        for i in 0..130 {
            syms.push(if i % 2 == 0 { 0 } else { 1 });
        }
        let long = KautzStr::new(syms).unwrap();
        assert!(matches!(rect_of_prefix(&long, 1), Err(KautzError::UnsupportedLength { .. })));
    }

    /// Raw scaled values on and beside every level's exact split
    /// boundaries down to depth `k`: level `j ≥ 1` of root child `i` splits
    /// at `(i + n/2^j)/3` of the space, which is a whole raw value only
    /// when 3 divides it, so its floor and the values around it are tried.
    fn split_boundaries(k: usize) -> Vec<u128> {
        let mut values = vec![0, 1, SCALE - 1, SCALE];
        let mut s: u128 = 0x9e37_79b9_7f4a_7c15;
        for j in 0..k as u32 {
            let unit = SCALE >> j; // SCALE / 2^j
            for i in 0..3u128 {
                s = s.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(0x6361_1c88);
                for n in [0, 1, (1u128 << j) - 1, s % (1u128 << j)] {
                    let b = ((i << j) + n) * unit / 3;
                    values.extend([b.saturating_sub(1), b, b + 1]);
                }
            }
        }
        values
    }

    #[test]
    fn keys_equal_the_string_descent_on_every_split_boundary() {
        // The transducer against the symbol-by-symbol descent, and both
        // against `multiple_hash_scaled` with one attribute, at depths on
        // both sides of every byte and word edge of the key.
        for k in [1, 2, 8, 9, 17, 24, 32, 33, 64, 65, 100, MAX_DEPTH] {
            for raw in split_boundaries(k) {
                let x = ScaledValue::from_raw_clamped(raw);
                let id = single_hash_scaled(x, k);
                assert_eq!(single_hash_key(x, k), ObjectKey::new(&id), "raw {raw} depth {k}");
                assert_eq!(multiple_hash_key(&[x], k), ObjectKey::new(&id), "raw {raw} depth {k}");
                assert_eq!(id, multiple_hash_scaled(&[x], k), "raw {raw} depth {k}");
            }
        }
    }

    #[test]
    fn multi_attribute_keys_equal_the_string_descent_on_split_boundaries() {
        // Every attribute takes values on and beside split boundaries, each
        // its own stride through the list, for two to four attributes.
        for k in [5, 24, 100, MAX_DEPTH] {
            let values = split_boundaries(k / 2);
            for m in 2..=4 {
                for i in 0..values.len() {
                    let point: Vec<ScaledValue> = (0..m)
                        .map(|d| values[(i * (2 * d + 1) + d) % values.len()])
                        .map(ScaledValue::from_raw_clamped)
                        .collect();
                    let id = multiple_hash_scaled(&point, k);
                    assert_eq!(
                        multiple_hash_key(&point, k),
                        ObjectKey::new(&id),
                        "{point:?} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn boundary_value_goes_to_right_sibling() {
        // Exactly 1/3 is the left edge of root child 1: for values exactly
        // on a boundary the descent picks the right-hand child.
        let third = {
            // Construct exactly 1/3 in scaled units via boundary arithmetic:
            // SCALE/3 is not an integer, so use a value slightly above and
            // check sidedness near the boundary instead.
            ScaledValue::from_unit(1.0 / 3.0)
        };
        let leaf = single_hash_scaled(third, 1);
        let iv0 = interval_of_prefix(&ks("0")).unwrap();
        let iv1 = interval_of_prefix(&ks("1")).unwrap();
        assert!(iv0.contains_value(third) ^ iv1.contains_value(third));
        let expected = if iv0.contains_value(third) { ks("0") } else { ks("1") };
        assert_eq!(leaf, expected);
    }
}
