//! Validated Kautz strings and their order/prefix algebra.

use crate::KautzError;
use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// The largest symbol: the paper's alphabet is `{0, 1, 2}` (base `d = 2`).
const MAX_SYMBOL: u8 = 2;

/// A Kautz string: a sequence of symbols over `{0, 1, 2}` in which no two
/// adjacent symbols are equal.
///
/// Kautz strings of length `k` label the nodes of the Kautz graph `K(2,k)`;
/// in FISSIONE they are used both as variable-length PeerIDs and as
/// fixed-length (`k = 100`) ObjectIDs. The empty string is valid and acts
/// as the prefix of everything (it is the label of the partition-tree
/// root).
///
/// # Ordering
///
/// `Ord` implements the lexicographic order `⪯` used by the paper: symbols
/// are compared position-wise, and a proper prefix sorts before its
/// extensions.
///
/// # Example
///
/// ```
/// use kautz::KautzStr;
///
/// let a: KautzStr = "010".parse()?;
/// let b: KautzStr = "012".parse()?;
/// assert!(a < b);
/// assert!(a.is_prefix_of(&"0102".parse()?));
/// assert_eq!(KautzStr::count(3), 12); // |KautzSpace(2,3)| = 3·2²
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KautzStr {
    syms: Vec<u8>,
}

impl KautzStr {
    /// Creates a Kautz string from raw symbols, validating the Kautz
    /// property.
    ///
    /// # Errors
    ///
    /// Returns [`KautzError::SymbolOutOfRange`] if a symbol exceeds 2, or
    /// [`KautzError::AdjacentRepeat`] if two adjacent symbols are equal.
    pub fn new(syms: impl Into<Vec<u8>>) -> Result<Self, KautzError> {
        let syms = syms.into();
        for (i, &s) in syms.iter().enumerate() {
            if s > MAX_SYMBOL {
                return Err(KautzError::SymbolOutOfRange { symbol: s });
            }
            if i > 0 && syms[i - 1] == s {
                return Err(KautzError::AdjacentRepeat { index: i - 1 });
            }
        }
        Ok(KautzStr { syms })
    }

    /// Creates the empty Kautz string.
    pub fn empty() -> Self {
        KautzStr { syms: Vec::new() }
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// Whether the string has no symbols.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// The symbols as a slice.
    pub fn symbols(&self) -> &[u8] {
        &self.syms
    }

    /// First symbol, if any.
    pub fn first(&self) -> Option<u8> {
        self.syms.first().copied()
    }

    /// Last symbol, if any.
    pub fn last(&self) -> Option<u8> {
        self.syms.last().copied()
    }

    /// Appends a symbol, validating the Kautz property.
    ///
    /// # Errors
    ///
    /// Returns an error if the symbol exceeds 2 or repeats the last symbol.
    pub fn push(&mut self, sym: u8) -> Result<(), KautzError> {
        if sym > MAX_SYMBOL {
            return Err(KautzError::SymbolOutOfRange { symbol: sym });
        }
        if self.syms.last() == Some(&sym) {
            return Err(KautzError::AdjacentRepeat { index: self.syms.len() - 1 });
        }
        self.syms.push(sym);
        Ok(())
    }

    /// Returns a copy with `sym` appended.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KautzStr::push`].
    pub fn child(&self, sym: u8) -> Result<Self, KautzError> {
        let mut out = self.clone();
        out.push(sym)?;
        Ok(out)
    }

    /// The symbols that may legally follow this string, in increasing order.
    ///
    /// For the empty string this is the whole alphabet (the partition-tree
    /// root has three children); otherwise every symbol except the last one
    /// (each internal node has two children).
    pub fn child_symbols(&self) -> impl Iterator<Item = u8> + '_ {
        let last = self.last();
        (0..=MAX_SYMBOL).filter(move |&s| Some(s) != last)
    }

    /// Concatenates two Kautz strings.
    ///
    /// # Errors
    ///
    /// Returns an error if the junction repeats a symbol.
    pub fn concat(&self, other: &KautzStr) -> Result<Self, KautzError> {
        if let (Some(a), Some(b)) = (self.last(), other.first()) {
            if a == b {
                return Err(KautzError::AdjacentRepeat { index: self.len() - 1 });
            }
        }
        let mut syms = self.syms.clone();
        syms.extend_from_slice(&other.syms);
        Ok(KautzStr { syms })
    }

    /// The substring dropping the first `n` symbols (the "left shift" used by
    /// Kautz-graph edges). Dropping more symbols than exist yields the empty
    /// string.
    pub fn drop_front(&self, n: usize) -> Self {
        KautzStr { syms: self.syms.get(n..).unwrap_or(&[]).to_vec() }
    }

    /// Buffer-reusing twin of [`concat`](Self::concat): overwrites `self`
    /// with `head ++ tail` (a raw symbol slice), keeping `self`'s
    /// allocation. Returns `false` — leaving `self` as `head` alone — when
    /// the junction repeats a symbol, i.e. exactly when `concat` errs.
    /// `tail` must itself be repeat-free (callers pass suffixes of valid
    /// Kautz strings).
    pub fn assign_concat(&mut self, head: &KautzStr, tail: &[u8]) -> bool {
        self.syms.clear();
        self.syms.extend_from_slice(&head.syms);
        if let (Some(&a), Some(&b)) = (self.syms.last(), tail.first()) {
            if a == b {
                return false;
            }
        }
        self.syms.extend_from_slice(tail);
        true
    }

    /// The prefix keeping only the first `n` symbols (saturating).
    pub fn take_front(&self, n: usize) -> Self {
        KautzStr { syms: self.syms[..n.min(self.syms.len())].to_vec() }
    }

    /// Whether `self` is a (possibly equal) prefix of `other`.
    pub fn is_prefix_of(&self, other: &KautzStr) -> bool {
        other.syms.starts_with(&self.syms)
    }

    /// Whether one of the two strings is a prefix of the other.
    ///
    /// This is the compatibility relation that decides whether two peers'
    /// regions in FISSIONE overlap.
    pub fn prefix_compatible(&self, other: &KautzStr) -> bool {
        self.is_prefix_of(other) || other.is_prefix_of(self)
    }

    /// Length of the longest common prefix of two strings.
    pub fn common_prefix_len(&self, other: &KautzStr) -> usize {
        self.syms.iter().zip(other.syms.iter()).take_while(|(a, b)| a == b).count()
    }

    /// The longest common prefix of two strings.
    pub fn common_prefix(&self, other: &KautzStr) -> KautzStr {
        self.take_front(self.common_prefix_len(other))
    }

    /// Length of the longest suffix of `self` that is a prefix of `target`.
    ///
    /// This drives Kautz long-path routing: the remaining symbols of
    /// `target` are shifted in one hop at a time.
    pub fn longest_suffix_prefix(&self, target: &KautzStr) -> usize {
        let max = self.len().min(target.len());
        for j in (1..=max).rev() {
            if self.syms[self.len() - j..] == target.syms[..j] {
                return j;
            }
        }
        0
    }

    /// The lexicographically smallest length-`k` Kautz string having `self`
    /// as a prefix.
    ///
    /// The minimal continuation appends `0` after a non-zero symbol and `1`
    /// after `0` (e.g. `"02" → "02010…"`).
    ///
    /// # Panics
    ///
    /// Panics if `self.len() > k`.
    pub fn min_extension(&self, k: usize) -> KautzStr {
        assert!(self.len() <= k, "prefix longer than requested extension");
        let mut syms = self.syms.clone();
        while syms.len() < k {
            let next = match syms.last() {
                Some(0) => 1,
                _ => 0,
            };
            syms.push(next);
        }
        KautzStr { syms }
    }

    /// The lexicographically largest length-`k` Kautz string having `self` as
    /// a prefix.
    ///
    /// The maximal continuation appends `2` after a symbol other than `2`
    /// and `1` after `2` (e.g. `"01" → "01212…"`).
    ///
    /// # Panics
    ///
    /// Panics if `self.len() > k`.
    pub fn max_extension(&self, k: usize) -> KautzStr {
        assert!(self.len() <= k, "prefix longer than requested extension");
        let mut syms = self.syms.clone();
        while syms.len() < k {
            let next = match syms.last() {
                Some(&MAX_SYMBOL) => MAX_SYMBOL - 1,
                _ => MAX_SYMBOL,
            };
            syms.push(next);
        }
        KautzStr { syms }
    }

    /// Number of Kautz strings of the given length: `3·2^(n-1)` for
    /// `n ≥ 1`, and 1 for `n = 0`.
    ///
    /// # Panics
    ///
    /// Panics on `u128` overflow (lengths beyond 127).
    pub fn count(len: usize) -> u128 {
        match len {
            0 => 1,
            1..=127 => 3 << (len - 1),
            _ => panic!("Kautz space size overflows u128"),
        }
    }

    /// The rank of this string in the lexicographic enumeration of all Kautz
    /// strings of the same length (`0`-based).
    ///
    /// Together with [`KautzStr::unrank`] this forms a bijection used for
    /// uniform sampling and region sizing.
    ///
    /// # Panics
    ///
    /// Panics for strings longer than 127 symbols, whose ranks overflow.
    pub fn rank(&self) -> u128 {
        let n = self.len();
        assert!(n <= 127, "rank overflow");
        let mut rank = 0u128;
        let mut prev: Option<u8> = None;
        for (i, &s) in self.syms.iter().enumerate() {
            // Index of s among the allowed symbols {0, 1, 2} \ {prev}; the
            // positions after i are free, 2^(n-1-i) strings per choice.
            let idx = match prev {
                None => s as u128,
                Some(p) => (s as u128) - u128::from(s > p),
            };
            rank += idx << (n - 1 - i);
            prev = Some(s);
        }
        rank
    }

    /// The inverse of [`KautzStr::rank`].
    ///
    /// # Errors
    ///
    /// Returns [`KautzError::RankOutOfRange`] if `rank` is not below
    /// [`KautzStr::count`]`(len)`.
    pub fn unrank(len: usize, rank: u128) -> Result<Self, KautzError> {
        let count = KautzStr::count(len);
        if rank >= count {
            return Err(KautzError::RankOutOfRange { rank, count });
        }
        let mut syms = Vec::with_capacity(len);
        let mut prev: Option<u8> = None;
        for i in (0..len).rev() {
            let idx = (rank >> i) as u8;
            let sym = match prev {
                None => idx,
                Some(p) => (idx & 1) + u8::from(idx & 1 >= p),
            };
            syms.push(sym);
            prev = Some(sym);
        }
        Ok(KautzStr { syms })
    }

    /// Draws a uniformly random Kautz string of the given length.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        let count = KautzStr::count(len);
        let rank = rng.gen_range(0..count);
        KautzStr::unrank(len, rank).expect("sampled rank is in range")
    }

    /// The next string in lexicographic order among equal-length Kautz
    /// strings, or `None` if `self` is the maximum.
    pub fn successor(&self) -> Option<Self> {
        KautzStr::unrank(self.len(), self.rank() + 1).ok()
    }
}

impl fmt::Display for KautzStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.syms.is_empty() {
            return write!(f, "ε");
        }
        for s in &self.syms {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for KautzStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K\"{self}\"")
    }
}

/// Errors from parsing a [`KautzStr`] out of text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseKautzStrError {
    /// A character was not a decimal digit.
    NotADigit(char),
    /// The digits did not form a valid Kautz string.
    Invalid(KautzError),
}

impl fmt::Display for ParseKautzStrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseKautzStrError::NotADigit(c) => write!(f, "character {c:?} is not a digit"),
            ParseKautzStrError::Invalid(e) => write!(f, "invalid Kautz string: {e}"),
        }
    }
}

impl std::error::Error for ParseKautzStrError {}

impl FromStr for KautzStr {
    type Err = ParseKautzStrError;

    /// Parses a Kautz string from its decimal digits (`"0120"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digit =
            |ch: char| ch.to_digit(10).map(|d| d as u8).ok_or(ParseKautzStrError::NotADigit(ch));
        let syms = s.chars().map(digit).collect::<Result<Vec<u8>, _>>()?;
        KautzStr::new(syms).map_err(ParseKautzStrError::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ks(s: &str) -> KautzStr {
        s.parse().unwrap()
    }

    #[test]
    fn rejects_adjacent_repeats() {
        assert_eq!(KautzStr::new(vec![0, 0]), Err(KautzError::AdjacentRepeat { index: 0 }));
        assert_eq!(KautzStr::new(vec![0, 1, 1]), Err(KautzError::AdjacentRepeat { index: 1 }));
    }

    #[test]
    fn rejects_out_of_range_symbols() {
        assert_eq!(KautzStr::new(vec![3]), Err(KautzError::SymbolOutOfRange { symbol: 3 }));
    }

    #[test]
    fn empty_string_is_valid_and_prefix_of_all() {
        let e = KautzStr::empty();
        assert!(e.is_empty());
        assert!(e.is_prefix_of(&ks("0120")));
        assert_eq!(e.to_string(), "ε");
    }

    #[test]
    fn lexicographic_order_matches_paper_example() {
        // Kautz region ⟨010, 021⟩ = {010, 012, 020, 021} (Definition 1).
        assert!(ks("010") < ks("012"));
        assert!(ks("012") < ks("020"));
        assert!(ks("020") < ks("021"));
    }

    #[test]
    fn prefix_sorts_before_extension() {
        assert!(ks("01") < ks("010"));
        assert!(ks("01").is_prefix_of(&ks("010")));
    }

    #[test]
    fn child_symbols_exclude_last() {
        let s = ks("01");
        assert_eq!(s.child_symbols().collect::<Vec<_>>(), vec![0, 2]);
        let root = KautzStr::empty();
        assert_eq!(root.child_symbols().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn concat_validates_junction() {
        assert!(ks("01").concat(&ks("12")).is_err());
        assert_eq!(ks("01").concat(&ks("21")).unwrap(), ks("0121"));
    }

    #[test]
    fn drop_and_take_front() {
        assert_eq!(ks("0120").drop_front(1), ks("120"));
        assert_eq!(ks("0120").drop_front(9), KautzStr::empty());
        assert_eq!(ks("0120").take_front(2), ks("01"));
    }

    #[test]
    fn longest_suffix_prefix_examples() {
        // Suffix "12" of 212 is a prefix of 120…
        assert_eq!(ks("212").longest_suffix_prefix(&ks("1202")), 2);
        assert_eq!(ks("212").longest_suffix_prefix(&ks("2120")), 3);
        assert_eq!(ks("212").longest_suffix_prefix(&ks("0102")), 0);
    }

    #[test]
    fn min_max_extensions() {
        assert_eq!(ks("02").min_extension(5), ks("02010"));
        assert_eq!(ks("01").max_extension(5), ks("01212"));
        // From the empty prefix: global min/max of the length-k space.
        assert_eq!(KautzStr::empty().min_extension(4), ks("0101"));
        assert_eq!(KautzStr::empty().max_extension(4), ks("2121"));
    }

    #[test]
    fn assign_concat_reuses_the_buffer_and_matches_concat() {
        // assign_concat mirrors concat, falling back to the head on a
        // repeated junction.
        let mut buf = KautzStr::empty();
        assert!(buf.assign_concat(&ks("012"), ks("01").symbols()));
        assert_eq!(buf, ks("01201"));
        assert!(!buf.assign_concat(&ks("012"), ks("20").symbols()));
        assert_eq!(buf, ks("012"), "failed concat leaves the head alone");
        assert!(buf.assign_concat(&ks("012"), &[]));
        assert_eq!(buf, ks("012"));
    }

    #[test]
    fn count_matches_formula() {
        assert_eq!(KautzStr::count(1), 3);
        assert_eq!(KautzStr::count(3), 12); // K(2,3) has 12 nodes (Fig. 1)
        assert_eq!(KautzStr::count(4), 24); // P(2,4) has 24 leaves (Fig. 3)
        assert_eq!(KautzStr::count(127), 3 << 126);
    }

    #[test]
    fn rank_is_lexicographic_and_bijective() {
        let n = 5;
        let count = KautzStr::count(n) as usize;
        let mut all: Vec<KautzStr> =
            (0..count).map(|r| KautzStr::unrank(n, r as u128).unwrap()).collect();
        // unrank is increasing in rank ⇒ sorted.
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted);
        // rank inverts unrank.
        for (r, s) in all.drain(..).enumerate() {
            assert_eq!(s.rank(), r as u128);
        }
    }

    #[test]
    fn unrank_rejects_out_of_range() {
        assert!(matches!(KautzStr::unrank(3, 12), Err(KautzError::RankOutOfRange { .. })));
    }

    #[test]
    fn successor_walks_the_space() {
        let mut s = KautzStr::empty().min_extension(3);
        let mut seen = 1;
        while let Some(next) = s.successor() {
            assert!(s < next);
            s = next;
            seen += 1;
        }
        assert_eq!(seen, 12);
        assert_eq!(s, KautzStr::empty().max_extension(3));
    }

    #[test]
    fn random_strings_are_valid_and_long_strings_work() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let s = KautzStr::random(100, &mut rng);
            assert_eq!(s.len(), 100);
            // Validity enforced by construction; re-validate explicitly.
            assert!(KautzStr::new(s.symbols().to_vec()).is_ok());
        }
    }

    #[test]
    fn rank_handles_k_100() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            let s = KautzStr::random(100, &mut rng);
            let r = s.rank();
            assert_eq!(KautzStr::unrank(100, r).unwrap(), s);
        }
    }
}
