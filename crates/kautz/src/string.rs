//! Validated Kautz strings and their order/prefix algebra.

use crate::KautzError;
use rand::Rng;
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// The default base used throughout the Armada paper (`d = 2`, alphabet
/// `{0, 1, 2}`).
pub const DEFAULT_BASE: u8 = 2;

/// A Kautz string: a sequence of symbols over `{0, …, d}` in which no two
/// adjacent symbols are equal.
///
/// Kautz strings of length `k` and base `d` label the nodes of the Kautz
/// graph `K(d,k)`; in FISSIONE they are used both as variable-length PeerIDs
/// and as fixed-length (`k = 100`) ObjectIDs. The empty string is valid and
/// acts as the prefix of everything (it is the label of the partition-tree
/// root).
///
/// # Ordering
///
/// `Ord` implements the lexicographic order `⪯` used by the paper: symbols
/// are compared position-wise, and a proper prefix sorts before its
/// extensions. Strings of different bases compare by their symbols first and
/// base last; mixing bases is supported but meaningless and never done by the
/// higher layers.
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
/// assert_eq!(KautzStr::count(2, 3), 12); // |KautzSpace(2,3)| = 3·2²
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct KautzStr {
    base: u8,
    syms: Vec<u8>,
}

impl KautzStr {
    /// Creates a Kautz string from raw symbols, validating the Kautz
    /// property.
    ///
    /// # Errors
    ///
    /// Returns [`KautzError::SymbolOutOfRange`] if a symbol exceeds `base`,
    /// or [`KautzError::AdjacentRepeat`] if two adjacent symbols are equal.
    pub fn new(base: u8, syms: impl Into<Vec<u8>>) -> Result<Self, KautzError> {
        let syms = syms.into();
        for (i, &s) in syms.iter().enumerate() {
            if s > base {
                return Err(KautzError::SymbolOutOfRange { symbol: s, base });
            }
            if i > 0 && syms[i - 1] == s {
                return Err(KautzError::AdjacentRepeat { index: i - 1 });
            }
        }
        Ok(KautzStr { base, syms })
    }

    /// Creates the empty Kautz string of the given base.
    pub fn empty(base: u8) -> Self {
        KautzStr { base, syms: Vec::new() }
    }

    /// Parses a Kautz string of an explicit base from decimal digits.
    ///
    /// # Errors
    ///
    /// Returns an error on non-digit characters or Kautz-property violations.
    pub fn parse_with_base(base: u8, s: &str) -> Result<Self, ParseKautzStrError> {
        let mut syms = Vec::with_capacity(s.len());
        for ch in s.chars() {
            let d = ch.to_digit(10).ok_or(ParseKautzStrError::NotADigit(ch))?;
            syms.push(d as u8);
        }
        KautzStr::new(base, syms).map_err(ParseKautzStrError::Invalid)
    }

    /// The base `d` of this string (alphabet `{0..=d}`).
    pub fn base(&self) -> u8 {
        self.base
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
    /// Returns an error if the symbol exceeds the base or repeats the last
    /// symbol.
    pub fn push(&mut self, sym: u8) -> Result<(), KautzError> {
        if sym > self.base {
            return Err(KautzError::SymbolOutOfRange { symbol: sym, base: self.base });
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
    /// root has `d+1` children); otherwise every symbol except the last one
    /// (each internal node has `d` children).
    pub fn child_symbols(&self) -> impl Iterator<Item = u8> + '_ {
        let last = self.last();
        (0..=self.base).filter(move |&s| Some(s) != last)
    }

    /// Concatenates two Kautz strings.
    ///
    /// # Errors
    ///
    /// Returns an error on base mismatch or if the junction repeats a symbol.
    pub fn concat(&self, other: &KautzStr) -> Result<Self, KautzError> {
        if self.base != other.base {
            return Err(KautzError::BaseMismatch { left: self.base, right: other.base });
        }
        if let (Some(a), Some(b)) = (self.last(), other.first()) {
            if a == b {
                return Err(KautzError::AdjacentRepeat { index: self.len() - 1 });
            }
        }
        let mut syms = self.syms.clone();
        syms.extend_from_slice(&other.syms);
        Ok(KautzStr { base: self.base, syms })
    }

    /// The substring dropping the first `n` symbols (the "left shift" used by
    /// Kautz-graph edges). Dropping more symbols than exist yields the empty
    /// string.
    pub fn drop_front(&self, n: usize) -> Self {
        KautzStr { base: self.base, syms: self.syms.get(n..).unwrap_or(&[]).to_vec() }
    }

    /// Buffer-reusing twin of [`drop_front`](Self::drop_front): overwrites
    /// `self` with `src` minus its first `n` symbols, keeping `self`'s
    /// allocation. Hot paths that shift a PeerID once per delivery use this
    /// to stay allocation-free after warmup.
    pub fn assign_drop_front(&mut self, src: &KautzStr, n: usize) {
        self.base = src.base;
        self.syms.clear();
        self.syms.extend_from_slice(src.syms.get(n..).unwrap_or(&[]));
    }

    /// Buffer-reusing prepend: overwrites `self` with `sym ++ src`, keeping
    /// `self`'s allocation. The caller guarantees `src` does not start with
    /// `sym` (debug-asserted), so the result is a valid Kautz string.
    pub fn assign_prepend(&mut self, sym: u8, src: &KautzStr) {
        debug_assert!(sym <= src.base, "symbol out of range");
        debug_assert!(src.first() != Some(sym), "junction repeat");
        self.base = src.base;
        self.syms.clear();
        self.syms.push(sym);
        self.syms.extend_from_slice(&src.syms);
    }

    /// Buffer-reusing twin of [`concat`](Self::concat): overwrites `self`
    /// with `head ++ tail` (a raw symbol slice), keeping `self`'s
    /// allocation. Returns `false` — leaving `self` as `head` alone — when
    /// the junction repeats a symbol, i.e. exactly when `concat` errs.
    /// `tail` must itself be repeat-free (callers pass suffixes of valid
    /// Kautz strings).
    pub fn assign_concat(&mut self, head: &KautzStr, tail: &[u8]) -> bool {
        self.base = head.base;
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
        KautzStr { base: self.base, syms: self.syms[..n.min(self.syms.len())].to_vec() }
    }

    /// Whether `self` is a (possibly equal) prefix of `other`.
    pub fn is_prefix_of(&self, other: &KautzStr) -> bool {
        self.base == other.base && other.syms.starts_with(&self.syms)
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
        KautzStr { base: self.base, syms }
    }

    /// The lexicographically largest length-`k` Kautz string having `self` as
    /// a prefix.
    ///
    /// The maximal continuation appends `d` after a non-`d` symbol and `d-1`
    /// after `d` (e.g. for `d = 2`: `"01" → "01212…"`).
    ///
    /// # Panics
    ///
    /// Panics if `self.len() > k`.
    pub fn max_extension(&self, k: usize) -> KautzStr {
        assert!(self.len() <= k, "prefix longer than requested extension");
        let mut syms = self.syms.clone();
        while syms.len() < k {
            let next = match syms.last() {
                Some(s) if *s == self.base => self.base - 1,
                _ => self.base,
            };
            syms.push(next);
        }
        KautzStr { base: self.base, syms }
    }

    /// Compares the first `other.len()` symbols of `self` — extended
    /// minimally when `self` is shorter — against `other`, without
    /// materializing the extension. Equivalent to
    /// `self.min_extension(k).cmp(other)` for `self.len() ≤ k` and to
    /// `self.take_front(k).cmp(other)` otherwise (`k = other.len()`);
    /// equal symbols fall through to the base tiebreak like [`Ord`].
    ///
    /// This is the hot-path form of the "does this peer's region start
    /// above `high`" test in range scans, which must not allocate per
    /// candidate.
    pub fn cmp_min_extension(&self, other: &KautzStr) -> std::cmp::Ordering {
        let mut prev = None;
        for (i, &o) in other.syms.iter().enumerate() {
            let sym = if i < self.syms.len() {
                self.syms[i]
            } else {
                match prev {
                    Some(0) => 1,
                    _ => 0,
                }
            };
            match sym.cmp(&o) {
                std::cmp::Ordering::Equal => {}
                ord => return ord,
            }
            prev = Some(sym);
        }
        self.base.cmp(&other.base)
    }

    /// Number of Kautz strings of the given base and length:
    /// `(d+1)·d^(n-1)` for `n ≥ 1`, and 1 for `n = 0`.
    ///
    /// # Panics
    ///
    /// Panics on `u128` overflow (lengths beyond ~125 for base 2).
    pub fn count(base: u8, len: usize) -> u128 {
        if len == 0 {
            return 1;
        }
        let d = base as u128;
        let mut c = d + 1;
        for _ in 1..len {
            c = c.checked_mul(d).expect("Kautz space size overflows u128");
        }
        c
    }

    /// The rank of this string in the lexicographic enumeration of all Kautz
    /// strings of the same base and length (`0`-based).
    ///
    /// Together with [`KautzStr::unrank`] this forms a bijection used for
    /// uniform sampling and region sizing.
    pub fn rank(&self) -> u128 {
        let d = self.base as u128;
        let n = self.len();
        if n == 0 {
            return 0;
        }
        // Strings per subtree below position i (positions after i are free).
        let mut weight = 1u128; // d^(n-1-i) built from the right
        let mut weights = vec![1u128; n];
        for i in (0..n - 1).rev() {
            weight = weight.checked_mul(d).expect("rank overflow");
            weights[i] = weight;
        }
        let mut rank = 0u128;
        let mut prev: Option<u8> = None;
        for (i, &s) in self.syms.iter().enumerate() {
            let idx = match prev {
                None => s as u128,
                Some(p) => {
                    // Index of s among allowed symbols {0..=d} \ {p}.
                    (s as u128) - if s > p { 1 } else { 0 }
                }
            };
            rank += idx * weights[i];
            prev = Some(s);
        }
        rank
    }

    /// The inverse of [`KautzStr::rank`].
    ///
    /// # Errors
    ///
    /// Returns [`KautzError::RankOutOfRange`] if `rank` is not below
    /// [`KautzStr::count`]`(base, len)`.
    pub fn unrank(base: u8, len: usize, rank: u128) -> Result<Self, KautzError> {
        let count = KautzStr::count(base, len);
        if rank >= count {
            return Err(KautzError::RankOutOfRange { rank, count });
        }
        if len == 0 {
            return Ok(KautzStr::empty(base));
        }
        let d = base as u128;
        let mut weights = vec![1u128; len];
        for i in (0..len - 1).rev() {
            weights[i] = weights[i + 1] * d;
        }
        let mut rest = rank;
        let mut syms = Vec::with_capacity(len);
        let mut prev: Option<u8> = None;
        for w in weights {
            let idx = (rest / w) as u8;
            rest %= w;
            let sym = match prev {
                None => idx,
                Some(p) => idx + u8::from(idx >= p),
            };
            syms.push(sym);
            prev = Some(sym);
        }
        Ok(KautzStr { base, syms })
    }

    /// Draws a uniformly random Kautz string of the given base and length.
    pub fn random<R: Rng + ?Sized>(base: u8, len: usize, rng: &mut R) -> Self {
        let count = KautzStr::count(base, len);
        let rank = rng.gen_range(0..count);
        KautzStr::unrank(base, len, rank).expect("sampled rank is in range")
    }

    /// The next string in lexicographic order among equal-length Kautz
    /// strings, or `None` if `self` is the maximum.
    pub fn successor(&self) -> Option<Self> {
        let count = KautzStr::count(self.base, self.len());
        let r = self.rank() + 1;
        if r >= count {
            None
        } else {
            Some(KautzStr::unrank(self.base, self.len(), r).expect("in range"))
        }
    }
}

impl PartialOrd for KautzStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KautzStr {
    fn cmp(&self, other: &Self) -> Ordering {
        self.syms.cmp(&other.syms).then_with(|| self.base.cmp(&other.base))
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
        write!(f, "K(d={})\"", self.base)?;
        if self.syms.is_empty() {
            write!(f, "ε")?;
        }
        for s in &self.syms {
            write!(f, "{s}")?;
        }
        write!(f, "\"")
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

    /// Parses a base-2 (alphabet `{0,1,2}`) Kautz string, the base used
    /// throughout the paper. Use [`KautzStr::parse_with_base`] for other
    /// bases.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        KautzStr::parse_with_base(DEFAULT_BASE, s)
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
        assert_eq!(KautzStr::new(2, vec![0, 0]), Err(KautzError::AdjacentRepeat { index: 0 }));
        assert_eq!(KautzStr::new(2, vec![0, 1, 1]), Err(KautzError::AdjacentRepeat { index: 1 }));
    }

    #[test]
    fn rejects_out_of_range_symbols() {
        assert_eq!(
            KautzStr::new(2, vec![3]),
            Err(KautzError::SymbolOutOfRange { symbol: 3, base: 2 })
        );
    }

    #[test]
    fn empty_string_is_valid_and_prefix_of_all() {
        let e = KautzStr::empty(2);
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
        let root = KautzStr::empty(2);
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
        assert_eq!(ks("0120").drop_front(9), KautzStr::empty(2));
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
        assert_eq!(KautzStr::empty(2).min_extension(4), ks("0101"));
        assert_eq!(KautzStr::empty(2).max_extension(4), ks("2121"));
    }

    #[test]
    fn cmp_min_extension_matches_materialized_compare() {
        // Against every pair drawn from the length-≤5 space: the streamed
        // compare must reproduce min_extension/take_front + Ord exactly.
        let mut strings = vec![KautzStr::empty(2)];
        for len in 1..=5 {
            let count = KautzStr::count(2, len);
            strings.extend((0..count).map(|r| KautzStr::unrank(2, len, r).unwrap()));
        }
        for a in &strings {
            for b in strings.iter().filter(|b| !b.is_empty()) {
                let k = b.len();
                let expect =
                    if a.len() <= k { a.min_extension(k).cmp(b) } else { a.take_front(k).cmp(b) };
                assert_eq!(a.cmp_min_extension(b), expect, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn assign_helpers_reuse_buffers_and_match_allocating_twins() {
        let src = ks("01210");
        let mut buf = KautzStr::empty(2);
        buf.assign_drop_front(&src, 2);
        assert_eq!(buf, src.drop_front(2));
        buf.assign_drop_front(&src, 9); // over-drop → empty
        assert_eq!(buf, KautzStr::empty(2));
        buf.assign_prepend(2, &src);
        assert_eq!(buf, ks("201210"));
        // assign_concat mirrors concat, falling back to the head on a
        // repeated junction.
        assert!(buf.assign_concat(&ks("012"), ks("01").symbols()));
        assert_eq!(buf, ks("01201"));
        assert!(!buf.assign_concat(&ks("012"), ks("20").symbols()));
        assert_eq!(buf, ks("012"), "failed concat leaves the head alone");
        assert!(buf.assign_concat(&ks("012"), &[]));
        assert_eq!(buf, ks("012"));
    }

    #[test]
    fn count_matches_formula() {
        assert_eq!(KautzStr::count(2, 1), 3);
        assert_eq!(KautzStr::count(2, 3), 12); // K(2,3) has 12 nodes (Fig. 1)
        assert_eq!(KautzStr::count(2, 4), 24); // P(2,4) has 24 leaves (Fig. 3)
        assert_eq!(KautzStr::count(3, 2), 12);
    }

    #[test]
    fn rank_is_lexicographic_and_bijective() {
        let n = 5;
        let count = KautzStr::count(2, n) as usize;
        let mut all: Vec<KautzStr> =
            (0..count).map(|r| KautzStr::unrank(2, n, r as u128).unwrap()).collect();
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
        assert!(matches!(KautzStr::unrank(2, 3, 12), Err(KautzError::RankOutOfRange { .. })));
    }

    #[test]
    fn successor_walks_the_space() {
        let mut s = KautzStr::empty(2).min_extension(3);
        let mut seen = 1;
        while let Some(next) = s.successor() {
            assert!(s < next);
            s = next;
            seen += 1;
        }
        assert_eq!(seen, 12);
        assert_eq!(s, KautzStr::empty(2).max_extension(3));
    }

    #[test]
    fn random_strings_are_valid_and_long_strings_work() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let s = KautzStr::random(2, 100, &mut rng);
            assert_eq!(s.len(), 100);
            // Validity enforced by construction; re-validate explicitly.
            assert!(KautzStr::new(2, s.symbols().to_vec()).is_ok());
        }
    }

    #[test]
    fn rank_handles_k_100() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            let s = KautzStr::random(2, 100, &mut rng);
            let r = s.rank();
            assert_eq!(KautzStr::unrank(2, 100, r).unwrap(), s);
        }
    }
}
