//! Kautz regions: contiguous lexicographic ranges of fixed-length Kautz
//! strings (Definition 1 of the paper).

use crate::{KautzError, KautzStr};

/// The Kautz region `⟨low, high⟩`: all Kautz strings `s` of the same length
/// as the endpoints with `low ⪯ s ⪯ high`.
///
/// Regions are the image of value ranges under the order-preserving
/// [`SingleHash`](crate::naming::SingleHash) naming (Definition 2), and the
/// routing target of the PIRA algorithm.
///
/// # Example
///
/// ```
/// use kautz::{KautzRegion, KautzStr};
///
/// // Paper example: ⟨010, 021⟩ = {010, 012, 020, 021}.
/// let region = KautzRegion::new("010".parse()?, "021".parse()?)?;
/// assert_eq!(region.size(), 4);
/// assert!(region.contains(&"012".parse()?));
/// assert!(!region.contains(&"101".parse()?));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KautzRegion {
    low: KautzStr,
    high: KautzStr,
}

impl KautzRegion {
    /// Creates the region `⟨low, high⟩`.
    ///
    /// # Errors
    ///
    /// Returns an error if the endpoints differ in length, or if
    /// `low > high` (empty regions are not representable, mirroring the
    /// paper's definition).
    pub fn new(low: KautzStr, high: KautzStr) -> Result<Self, KautzError> {
        if low.len() != high.len() {
            return Err(KautzError::LengthMismatch { left: low.len(), right: high.len() });
        }
        if low > high {
            return Err(KautzError::EmptyRegion);
        }
        Ok(KautzRegion { low, high })
    }

    /// The smallest string in the region.
    pub fn low(&self) -> &KautzStr {
        &self.low
    }

    /// The largest string in the region.
    pub fn high(&self) -> &KautzStr {
        &self.high
    }

    /// The common string length `k` of the region's members.
    pub fn string_len(&self) -> usize {
        self.low.len()
    }

    /// Whether `s` belongs to the region. Strings of a different length
    /// never belong.
    pub fn contains(&self, s: &KautzStr) -> bool {
        s.len() == self.low.len() && *s >= self.low && *s <= self.high
    }

    /// Whether some member of the region has `prefix` as a prefix.
    ///
    /// This is PIRA's pruning predicate: a subtree whose members all share
    /// `prefix` can be pruned iff this returns `false`. Computed without
    /// enumeration via the min/max extensions of the prefix:
    /// `min_ext(prefix) ≤ high ∧ max_ext(prefix) ≥ low` — streamed
    /// symbol-by-symbol, so the test never materializes the extensions.
    pub fn intersects_prefix(&self, prefix: &KautzStr) -> bool {
        if prefix.len() > self.string_len() {
            return false;
        }
        self.intersects_extended(prefix.symbols(), &[])
    }

    /// [`intersects_prefix`](Self::intersects_prefix) for the virtual prefix
    /// `head ++ tail` without building the concatenation.
    ///
    /// `tail` is a symbol slice (typically `cid.symbols()[strip..]` for a
    /// neighbor's PeerID). When the junction repeats a symbol — `head.last()
    /// == tail.first()`, so the concatenation is not a valid Kautz string —
    /// the test degrades to `head` alone, matching PIRA's never-prune
    /// fallback for covers that violate the neighborhood invariant.
    pub fn intersects_prefix_parts(&self, head: &KautzStr, tail: &[u8]) -> bool {
        let tail = match (head.last(), tail.first()) {
            (Some(a), Some(&b)) if a == b => &[][..],
            _ => tail,
        };
        if head.len() + tail.len() > self.string_len() {
            return false;
        }
        self.intersects_extended(head.symbols(), tail)
    }

    /// Core of the pruning predicate: `min_ext(head ++ tail) ≤ high ∧
    /// max_ext(head ++ tail) ≥ low`, with both extensions streamed.
    fn intersects_extended(&self, head: &[u8], tail: &[u8]) -> bool {
        use std::cmp::Ordering;
        cmp_extension(head, tail, self.high.symbols(), true) != Ordering::Greater
            && cmp_extension(head, tail, self.low.symbols(), false) != Ordering::Less
    }

    /// The longest common prefix of the two endpoints (`ComT` in §4.2).
    ///
    /// Every member of the region starts with this prefix.
    pub fn common_prefix(&self) -> KautzStr {
        self.low.common_prefix(&self.high)
    }

    /// Number of strings in the region.
    pub fn size(&self) -> u128 {
        self.high.rank() - self.low.rank() + 1
    }

    /// Splits the region into at most three sub-regions whose endpoints
    /// share a non-empty common prefix (§4.2).
    ///
    /// If the endpoints already share a prefix the result is `[self]`.
    /// Otherwise the members are grouped by first symbol: the group of
    /// `low`'s first symbol, full first-symbol groups in between, and the
    /// group of `high`'s first symbol.
    pub fn split_by_common_prefix(&self) -> Vec<KautzRegion> {
        let k = self.string_len();
        if k == 0 {
            return vec![self.clone()];
        }
        let (a, b) = (self.low.first().expect("k > 0"), self.high.first().expect("k > 0"));
        if a == b {
            return vec![self.clone()];
        }
        let mut out = Vec::with_capacity((b - a + 1) as usize);
        for sym in a..=b {
            let head = KautzStr::new(vec![sym]).expect("single symbol");
            let lo = if sym == a { self.low.clone() } else { head.min_extension(k) };
            let hi = if sym == b { self.high.clone() } else { head.max_extension(k) };
            out.push(KautzRegion::new(lo, hi).expect("group endpoints ordered"));
        }
        out
    }

    /// Iterates over every string in the region in increasing order.
    ///
    /// Intended for tests and ground-truth computation on small spaces; the
    /// cost is `O(size · k)`.
    pub fn iter(&self) -> Iter<'_> {
        Iter { next_rank: self.low.rank(), last_rank: self.high.rank(), region: self }
    }
}

/// Lexicographically compares the minimal (`min`) or maximal extension of
/// `head ++ tail` to length `other.len()` against `other`, producing the
/// extension symbols on the fly (the streamed twin of
/// [`KautzStr::min_extension`]/[`KautzStr::max_extension`], which both
/// continue a prefix one symbol at a time from the previous symbol alone).
fn cmp_extension(head: &[u8], tail: &[u8], other: &[u8], min: bool) -> std::cmp::Ordering {
    let mut prev = None;
    for (i, &o) in other.iter().enumerate() {
        let sym = if i < head.len() {
            head[i]
        } else if i < head.len() + tail.len() {
            tail[i - head.len()]
        } else if min {
            match prev {
                Some(0) => 1,
                _ => 0,
            }
        } else {
            match prev {
                Some(2) => 1,
                _ => 2,
            }
        };
        match sym.cmp(&o) {
            std::cmp::Ordering::Equal => {}
            ord => return ord,
        }
        prev = Some(sym);
    }
    std::cmp::Ordering::Equal
}

impl std::fmt::Display for KautzRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨{}, {}⟩", self.low, self.high)
    }
}

/// Iterator over the members of a [`KautzRegion`] in increasing order.
#[derive(Debug)]
pub struct Iter<'a> {
    next_rank: u128,
    last_rank: u128,
    region: &'a KautzRegion,
}

impl Iterator for Iter<'_> {
    type Item = KautzStr;

    fn next(&mut self) -> Option<KautzStr> {
        if self.next_rank > self.last_rank {
            return None;
        }
        let s =
            KautzStr::unrank(self.region.string_len(), self.next_rank).expect("rank within region");
        self.next_rank += 1;
        Some(s)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.last_rank + 1 - self.next_rank) as usize;
        (n, Some(n))
    }
}

impl<'a> IntoIterator for &'a KautzRegion {
    type Item = KautzStr;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks(s: &str) -> KautzStr {
        s.parse().unwrap()
    }

    fn region(lo: &str, hi: &str) -> KautzRegion {
        KautzRegion::new(ks(lo), ks(hi)).unwrap()
    }

    #[test]
    fn paper_example_members() {
        let r = region("010", "021");
        let members: Vec<String> = r.iter().map(|s| s.to_string()).collect();
        assert_eq!(members, vec!["010", "012", "020", "021"]);
    }

    #[test]
    fn rejects_reversed_endpoints() {
        assert_eq!(KautzRegion::new(ks("021"), ks("010")), Err(KautzError::EmptyRegion));
    }

    #[test]
    fn rejects_mixed_lengths() {
        assert!(matches!(
            KautzRegion::new(ks("01"), ks("010")),
            Err(KautzError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn contains_matches_iteration() {
        let r = region("0120", "0202");
        let members: Vec<KautzStr> = r.iter().collect();
        // Paper §4.1: [0.1, 0.24] → ⟨0120, 0202⟩ = {0120, 0121, 0201, 0202}
        // (the four adjoining leaves P, R, W, S of Figure 3).
        assert_eq!(members.len(), 4);
        for m in &members {
            assert!(r.contains(m));
        }
        assert!(!r.contains(&ks("0102")));
        assert!(!r.contains(&ks("0210")));
    }

    #[test]
    fn intersects_prefix_agrees_with_enumeration() {
        let r = region("0120", "0202");
        let prefixes = ["0", "01", "02", "012", "020", "1", "2", "021", "0210"];
        for p in prefixes {
            let prefix = ks(p);
            let truth = r.iter().any(|s| prefix.is_prefix_of(&s));
            assert_eq!(r.intersects_prefix(&prefix), truth, "prefix {p}");
        }
        // The empty prefix intersects every non-empty region.
        assert!(r.intersects_prefix(&KautzStr::empty()));
    }

    #[test]
    fn prefix_longer_than_k_never_intersects() {
        let r = region("010", "021");
        assert!(!r.intersects_prefix(&ks("0102")));
    }

    #[test]
    fn intersects_prefix_parts_agrees_with_concat() {
        // The split form must behave exactly like concatenating and testing,
        // with PIRA's fallback (test the head alone) on a repeated junction.
        let r = region("0120", "0202");
        let heads = ["", "0", "01", "02", "2", "012", "020"];
        let tails: [&[u8]; 6] = [&[], &[0], &[2], &[0, 1], &[2, 0], &[1, 2, 0, 1]];
        for h in heads {
            let head = if h.is_empty() { KautzStr::empty() } else { ks(h) };
            for tail in tails {
                let expect = match head.concat(&tail_str(tail)) {
                    Ok(w) => r.intersects_prefix(&w),
                    Err(_) => r.intersects_prefix(&head),
                };
                assert_eq!(
                    r.intersects_prefix_parts(&head, tail),
                    expect,
                    "head {head} tail {tail:?}"
                );
            }
        }
    }

    fn tail_str(tail: &[u8]) -> KautzStr {
        KautzStr::new(tail.to_vec()).unwrap()
    }

    #[test]
    fn split_by_common_prefix_noop_when_shared() {
        let r = region("0120", "0202");
        assert_eq!(r.split_by_common_prefix(), vec![r.clone()]);
        assert_eq!(r.common_prefix(), ks("0"));
    }

    #[test]
    fn split_by_common_prefix_covers_exactly() {
        // Endpoints starting with 0 and 2: three groups.
        let r = region("0121", "2021");
        let parts = r.split_by_common_prefix();
        assert_eq!(parts.len(), 3);
        // Each part has a non-empty common prefix.
        for p in &parts {
            assert!(!p.common_prefix().is_empty());
        }
        // The parts partition the region exactly.
        let whole: Vec<KautzStr> = r.iter().collect();
        let mut union: Vec<KautzStr> = parts.iter().flat_map(|p| p.iter()).collect();
        union.sort();
        assert_eq!(union, whole);
    }

    #[test]
    fn size_matches_rank_arithmetic() {
        let r = region("0101", "2121");
        assert_eq!(r.size(), 24); // whole space of k = 4
        assert_eq!(region("0120", "0120").size(), 1);
    }
}
