//! The one packing of a base-2 Kautz string into 2-bit groups, and the
//! arithmetic FISSIONE and PIRA run on it.
//!
//! Symbol `s` becomes the group `s + 1`, most significant first and
//! zero-padded, so key order is string order and the strings below a
//! prefix are one interval of keys. Two widths carry it:
//!
//! * [`ObjectKey`] (256 bits) is an ObjectID, a leaf of the partition tree
//!   `P(2,k)`. The naming
//!   ([`SingleHash::object_key`](crate::naming::SingleHash::object_key),
//!   [`MultiHash::object_key`](crate::naming::MultiHash::object_key)) emits
//!   it directly, and the FISSIONE object table sorts by it. A region
//!   `⟨LowT, HighT⟩` is the pair of its endpoint keys: its split into
//!   sub-regions that share a first symbol ([`split_region`]) and each
//!   sub-region's `|ComT|` ([`ObjectKey::common_prefix_len`]) are word
//!   arithmetic, not string walks.
//! * [`PeerKey`] (128 bits) is a PeerID, or the first 64 symbols of a
//!   longer string ([`ObjectKey::head`]). FISSIONE's neighbour walks, leaf
//!   splits and merges, and route hops are shifts and masks on it, and
//!   [`KeyRegion`] is PIRA's two pruning predicates on it.
//!
//! [`KautzStr`] and [`KautzRegion`](crate::KautzRegion) stay the reference
//! these are tested against.

use crate::{KautzError, KautzStr};
use std::ops::RangeInclusive;

/// Symbol capacity of an [`ObjectKey`]: 2 bits per symbol in 256 bits.
pub const KEY_SYMS: usize = 128;

/// The exact fixed-width form of a Kautz string of at most [`KEY_SYMS`]
/// symbols: symbol `s` becomes the 2-bit group `s + 1`, packed most
/// significant first and zero-padded. Key order is string order (a proper
/// prefix sorts before its extensions because its padding groups are
/// zero), distinct strings get distinct keys, and the first 64 groups
/// ([`head`](Self::head)) are FISSIONE's PeerID key of the same symbols.
/// The object table sorted by key is the namespace in leaf order:
/// the ObjectIDs below a PeerID are one contiguous interval of it, and so
/// is a range query's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObjectKey(pub(crate) [u64; 4]);

impl ObjectKey {
    /// The key of `id`, which keeps its first [`KEY_SYMS`] symbols: all of
    /// an ObjectID, and of a longer string all that matters.
    pub fn new(id: &KautzStr) -> Self {
        let mut words = [0u64; 4];
        for (word, chunk) in words.iter_mut().zip(id.symbols().chunks(32)) {
            let groups = chunk.iter().fold(0u64, |w, &s| w << 2 | (u64::from(s) + 1));
            *word = groups << (64 - 2 * chunk.len());
        }
        ObjectKey(words)
    }

    /// The key of [`KautzStr::unrank`]`(len, rank)`, written group by group
    /// without the string: each rank bit below the first symbol's picks
    /// one of the two symbols that differ from the one before.
    ///
    /// # Errors
    ///
    /// Returns [`KautzError::RankOutOfRange`] if `rank` is not below
    /// [`KautzStr::count`]`(len)`.
    ///
    /// # Panics
    ///
    /// As [`KautzStr::count`], for `len` above 127.
    pub fn unrank(len: usize, rank: u128) -> Result<Self, KautzError> {
        let count = KautzStr::count(len);
        if rank >= count {
            return Err(KautzError::RankOutOfRange { rank, count });
        }
        let mut words = [0u64; 4];
        let mut prev = 3u8; // no symbol yet: the first takes its two bits whole
        for i in 0..len {
            let bits = (rank >> (len - 1 - i)) as u8;
            let sym = if prev == 3 { bits } else { (bits & 1) + u8::from(bits & 1 >= prev) };
            words[i / 32] |= u64::from(sym + 1) << (62 - 2 * (i % 32));
            prev = sym;
        }
        Ok(ObjectKey(words))
    }

    /// The number of symbols encoded: the position of the last nonzero
    /// group.
    pub fn len(self) -> usize {
        let Some(w) = self.0.iter().rposition(|&word| word != 0) else {
            return 0;
        };
        32 * w + (65 - self.0[w].trailing_zeros() as usize) / 2
    }

    /// Whether the key encodes the empty string.
    pub fn is_empty(self) -> bool {
        self.0 == [0; 4]
    }

    /// The `i`-th symbol; `None` at or past the end.
    pub fn symbol(self, i: usize) -> Option<u8> {
        let group = (*self.0.get(i / 32)? >> (62 - 2 * (i % 32))) as u8 & 3;
        group.checked_sub(1)
    }

    /// The key of the first `n` symbols (all of them when `n` is at least
    /// [`len`](Self::len)).
    pub fn truncate(self, n: usize) -> Self {
        let mut words = self.0;
        for (w, word) in words.iter_mut().enumerate() {
            let keep = (2 * n).saturating_sub(64 * w).min(64) as u32;
            *word &= u64::MAX.checked_shl(64 - keep).unwrap_or(0);
        }
        ObjectKey(words)
    }

    /// The length of the longest common prefix of the two strings: the
    /// leading zero groups of the keys' xor.
    pub fn common_prefix_len(self, other: ObjectKey) -> usize {
        let n = self.len().min(other.len());
        let differ = self.0.iter().zip(other.0).position(|(&a, b)| a != b);
        differ
            .map_or(n, |w| (32 * w + (self.0[w] ^ other.0[w]).leading_zeros() as usize / 2).min(n))
    }

    /// The first 64 groups: the key of the first 64 symbols in FISSIONE's
    /// PeerID packing, which decides every order and prefix relation
    /// against a PeerID.
    #[inline]
    pub fn head(self) -> PeerKey {
        PeerKey(u128::from(self.0[0]) << 64 | u128::from(self.0[1]))
    }

    /// The string this key encodes; `None` if it encodes none (a zero group
    /// before the last nonzero one, or two equal symbols in a row).
    pub fn decode(self) -> Option<KautzStr> {
        let syms: Option<Vec<u8>> = (0..self.len()).map(|i| self.symbol(i)).collect();
        KautzStr::new(syms?).ok()
    }
}

/// The key of the [`KEY_SYMS`]-symbol minimal (`min`) or maximal extension
/// of the one-symbol string `first`: after a symbol the minimal one
/// continues with `0` (with `1` after `0`), the maximal one with `2` (with
/// `1` after `2`).
const fn extension(first: u8, min: bool) -> ObjectKey {
    let mut words = [0u64; 4];
    let (mut sym, mut i) = (first, 0);
    while i < KEY_SYMS {
        words[i / 32] |= (sym as u64 + 1) << (62 - 2 * (i % 32));
        sym = match (min, sym) {
            (true, 0) => 1,
            (true, _) => 0,
            (false, 2) => 1,
            (false, _) => 2,
        };
        i += 1;
    }
    ObjectKey(words)
}

/// Per first symbol, the minimal and the maximal extension windows:
/// truncated to `k` symbols they are the least and the greatest length-`k`
/// string under that symbol.
const EXTENSIONS: [[ObjectKey; 3]; 2] = [
    [extension(0, true), extension(1, true), extension(2, true)],
    [extension(0, false), extension(1, false), extension(2, false)],
];

/// The region `⟨low, high⟩` (equal-length keys, `low ≤ high`) split into
/// sub-regions whose endpoints share a first symbol — at most three, in
/// order: [`KautzRegion::split_by_common_prefix`] on keys. The group of
/// `low`'s first symbol ends at that symbol's maximal extension, a full
/// group in between spans its minimal to its maximal extension, and the
/// group of `high`'s first symbol starts at its minimal extension.
///
/// [`KautzRegion::split_by_common_prefix`]: crate::KautzRegion::split_by_common_prefix
pub fn split_region(
    low: ObjectKey,
    high: ObjectKey,
) -> impl Iterator<Item = (ObjectKey, ObjectKey)> {
    let k = low.len();
    let (a, b) = (low.0[0] >> 62, high.0[0] >> 62);
    (a..=b).map(move |group| {
        let window = |bound: usize| EXTENSIONS[bound][group as usize - 1].truncate(k);
        let sub_low = if group == a { low } else { window(0) };
        let sub_high = if group == b { high } else { window(1) };
        (sub_low, sub_high)
    })
}

/// Symbol capacity of a [`PeerKey`]: 2 bits per symbol in a `u128`.
const PEER_KEY_SYMS: usize = 64;

/// The deepest PeerID the key arithmetic is defined for, one symbol short
/// of a [`PeerKey`]'s capacity: a query shifts keys by `2·f` bits for a
/// `ComS` of `f ≤ depth` symbols (a 128-bit shift by `2·64` overflows), and
/// an in-neighbour walk prepends a symbol to a PeerID. FISSIONE's leaf
/// split, the only operation that deepens a PeerID, refuses to pass it, so
/// every live key satisfies it.
pub const MAX_PEER_DEPTH: usize = PEER_KEY_SYMS - 1;

/// Mask keeping the leading `n ≤ 64` groups of a [`PeerKey`].
#[inline]
fn mask(n: usize) -> u128 {
    u128::MAX.checked_shl(128 - 2 * n as u32).unwrap_or(0)
}

/// The key of a PeerID: the [`ObjectKey`] packing of at most 64 symbols in
/// one `u128`.
///
/// A PeerID of up to [`MAX_PEER_DEPTH`] symbols fits whole, and so do the
/// prefixes a neighbour walk probes the cover with: a PeerID's left
/// [`shift`](Self::shift) and its [`stem`](Self::stem)s. A longer string —
/// a routing target, an ObjectID an owner is sought for — is compared
/// through its window, the key of its first 64 symbols
/// ([`ObjectKey::head`]); live PeerIDs never approach that depth, so every
/// order and prefix relation against one is decided inside the window.
/// Key order is string order, and the keys of the strings a key prefixes
/// are one interval ([`below`](Self::below)), so every probe on FISSIONE's
/// ordered cover is a `u128` comparison, and its membership changes — a
/// split into [`children`](Self::children), a merge into the
/// [`parent`](Self::parent), the [`sibling`](Self::sibling) that absorbs a
/// leaver — are a few shifts and masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerKey(u128);

impl PeerKey {
    /// The key of the empty string, which prefixes every key.
    pub const EMPTY: PeerKey = PeerKey(0);

    /// The key of a PeerID.
    ///
    /// # Panics
    ///
    /// Panics if `id` is empty or deeper than [`MAX_PEER_DEPTH`].
    pub fn new(id: &KautzStr) -> Self {
        assert!((1..=MAX_PEER_DEPTH).contains(&id.len()), "no PeerID has {} symbols", id.len());
        ObjectKey::new(id).head()
    }

    /// The number of symbols encoded: the position of the lowest nonzero
    /// group.
    #[inline]
    pub fn depth(self) -> usize {
        (129 - self.0.trailing_zeros() as usize) / 2
    }

    /// The first symbol; `None` for the empty key.
    #[inline]
    pub fn first(self) -> Option<u8> {
        ((self.0 >> 126) as u8).checked_sub(1)
    }

    /// The `i`-th symbol; `None` at or past the end.
    #[inline]
    pub fn symbol(self, i: usize) -> Option<u8> {
        let at = 126usize.checked_sub(2 * i)?;
        ((self.0 >> at) as u8 & 3).checked_sub(1)
    }

    /// The last symbol's group (`symbol + 1`), for a key of `depth ≥ 1`.
    #[inline]
    fn last_group(self, depth: usize) -> u128 {
        self.0 >> (128 - 2 * depth) & 3
    }

    /// The keys of the strings this key's string prefixes, itself first: an
    /// interval, up to the key with every group below its own set.
    #[inline]
    pub fn below(self) -> RangeInclusive<PeerKey> {
        self..=PeerKey(self.0 | !mask(self.depth()))
    }

    /// Whether this key's string is a (non-strict) prefix of `other`'s.
    #[inline]
    pub fn is_prefix_of(self, other: PeerKey) -> bool {
        self.below().contains(&other)
    }

    /// [`is_prefix_of`](Self::is_prefix_of) for a key whose depth is
    /// known: one masked compare.
    #[inline]
    pub fn is_prefix_at(self, depth: usize, other: PeerKey) -> bool {
        debug_assert_eq!(depth, self.depth(), "a key's depth is its own");
        (self.0 ^ other.0) & mask(depth) == 0
    }

    /// The keys of the ObjectIDs this PeerID prefixes: the interval of the
    /// object table the peer stores.
    pub fn interval(self) -> RangeInclusive<ObjectKey> {
        let (low, high) = self.below().into_inner();
        let split =
            |head: PeerKey, tail| ObjectKey([(head.0 >> 64) as u64, head.0 as u64, tail, tail]);
        split(low, 0)..=split(high, u64::MAX)
    }

    /// The left shift `self[1..]`: every out-neighbour of the peer keyed
    /// `self` is prefix-compatible with it (§3).
    #[inline]
    pub fn shift(self) -> PeerKey {
        PeerKey(self.0 << 2)
    }

    /// `sym ++ self`: the peers prefix-compatible with it are the
    /// in-neighbours whose shift meets `self` under a first symbol `sym`.
    /// `sym` must differ from `self`'s first symbol, and `self` must be a
    /// PeerID (at most [`MAX_PEER_DEPTH`] symbols).
    #[inline]
    pub fn stem(self, sym: u8) -> PeerKey {
        debug_assert!(sym <= 2 && self.first() != Some(sym), "{sym} cannot precede {self:?}");
        debug_assert!(self.depth() <= MAX_PEER_DEPTH, "a stem of {self:?} exceeds the key");
        PeerKey(u128::from(sym + 1) << 126 | self.0 >> 2)
    }

    /// The two children of a nonempty key, in symbol order: its string
    /// extended by each symbol but its last.
    ///
    /// # Panics
    ///
    /// Panics if the key is empty or already holds 64 symbols.
    pub fn children(self) -> [PeerKey; 2] {
        let depth = self.depth();
        assert!((1..PEER_KEY_SYMS).contains(&depth), "a depth-{depth} key has no two children");
        self.children_at(depth)
    }

    /// [`children`](Self::children) of a key known to hold `depth` symbols,
    /// `1 ≤ depth < 64`: a walk that tracks its depth steps down without
    /// recounting it, and without a branch on the last symbol.
    #[inline]
    pub fn children_at(self, depth: usize) -> [PeerKey; 2] {
        debug_assert_eq!(depth, self.depth(), "a walk lost count of its depth");
        // The two groups other than the last, ascending: 2 and 3 below a 1,
        // 1 and 3 below a 2, 1 and 2 below a 3.
        let last = self.last_group(depth);
        let (a, b) = (1 + u128::from(last == 1), 3 - u128::from(last == 3));
        let at = 126 - 2 * depth;
        [PeerKey(self.0 | a << at), PeerKey(self.0 | b << at)]
    }

    /// The key of the first `n ≤ 64` symbols (all of them when `n` is at
    /// least [`depth`](Self::depth)): [`ObjectKey::truncate`]'s twin.
    #[inline]
    pub fn truncate(self, n: usize) -> PeerKey {
        PeerKey(self.0 & mask(n))
    }

    /// The key without its last symbol (the empty key stays empty).
    pub fn parent(self) -> PeerKey {
        PeerKey(self.0 & mask(self.depth().saturating_sub(1)))
    }

    /// The parent's other child. Its last group is `6 − own − parent's`:
    /// the three groups `1, 2, 3` are the parent's last symbol and its two
    /// children.
    ///
    /// # Panics
    ///
    /// Panics below depth 2: the root children are three.
    pub fn sibling(self) -> PeerKey {
        let depth = self.depth();
        assert!(depth >= 2, "a depth-{depth} key has no sibling");
        let (own, up) = (self.last_group(depth), self.last_group(depth - 1));
        PeerKey(self.0 & mask(depth - 1) | (6 - own - up) << (128 - 2 * depth))
    }

    /// The number of leading groups two keys share (64 for equal keys).
    #[inline]
    pub fn common_prefix_len(self, other: PeerKey) -> usize {
        ((self.0 ^ other.0).leading_zeros() / 2) as usize
    }

    /// The window of `self[1..] ++ target[j..]`, where `target`'s first `j`
    /// symbols are the last `j` of `self[1..]` (`j < depth`, the key's own
    /// depth, which a route hop has at hand): a Kautz route's ideal
    /// continuation from the peer keyed `self` toward `target`, laid over
    /// the shift it repeats.
    #[inline]
    pub fn shift_toward(self, depth: usize, target: PeerKey, j: usize) -> PeerKey {
        debug_assert_eq!(depth, self.depth(), "a key's depth is its own");
        PeerKey(self.0 << 2 | target.0 >> (2 * (depth - 1 - j)))
    }

    /// The length of the longest suffix of this key's string that is a
    /// prefix of the first `n` symbols of `target` —
    /// [`KautzStr::longest_suffix_prefix`] on keys: the last `j` symbols,
    /// shifted to the front, against `target`'s first `j`.
    #[inline]
    pub fn longest_suffix_prefix(self, target: PeerKey, n: usize) -> usize {
        let depth = self.depth();
        (1..=depth.min(n))
            .rev()
            .find(|&j| self.0 << (2 * (depth - j)) == target.0 & mask(j))
            .unwrap_or(0)
    }

    /// The string this key encodes; `None` if it encodes none.
    pub fn decode(self) -> Option<KautzStr> {
        ObjectKey([(self.0 >> 64) as u64, self.0 as u64, 0, 0]).decode()
    }
}

/// [`PeerKey::longest_suffix_prefix`] of one key against many targets: the
/// key's suffixes, each shifted to the front once, so a target costs one
/// masked compare per candidate length and no shift.
#[derive(Debug, Clone)]
pub struct Suffixes {
    depth: usize,
    /// `front[j]` (`1 ≤ j ≤ depth`): the key's last `j` symbols, moved to
    /// the front.
    front: [u128; PEER_KEY_SYMS + 1],
}

impl Suffixes {
    /// The suffixes of `key`.
    pub fn new(key: PeerKey) -> Self {
        let depth = key.depth();
        let mut front = [0; PEER_KEY_SYMS + 1];
        for (j, suffix) in front.iter_mut().enumerate().take(depth + 1).skip(1) {
            *suffix = key.0 << (2 * (depth - j));
        }
        Suffixes { depth, front }
    }

    /// `key.longest_suffix_prefix(target, n)` for the `key` these are the
    /// suffixes of.
    #[inline]
    pub fn longest_prefix_of(&self, target: PeerKey, n: usize) -> usize {
        (1..=self.depth.min(n)).rev().find(|&j| self.front[j] == target.0 & mask(j)).unwrap_or(0)
    }
}

/// A Kautz region `⟨low, high⟩` in key space: the [`ObjectKey::head`]
/// windows of its endpoints. A prefix `p` of `n ≤ MAX_PEER_DEPTH` symbols
/// has a member of the region below it iff `low[..n] ≤ p ≤ high[..n]` (the
/// minimal extension of `p` is `≤ high` exactly when `p` is not above
/// `high`'s first `n` symbols, and dually for `low`), and truncating a key
/// to `n` symbols is one mask — so PIRA's two pruning predicates,
/// [`KautzRegion::intersects_prefix`] and
/// [`KautzRegion::intersects_prefix_parts`], become integer comparisons.
/// Where both comparisons are strict, `p` lies *inside* the region: every
/// extension of it (of at most the region's length) is a member or
/// prefixes one, so no extension of `p` needs testing again.
/// The string forms stay the reference these are property-tested against.
///
/// [`KautzRegion::intersects_prefix`]: crate::KautzRegion::intersects_prefix
/// [`KautzRegion::intersects_prefix_parts`]: crate::KautzRegion::intersects_prefix_parts
#[derive(Debug, Clone, Copy)]
pub struct KeyRegion {
    low: u128,
    high: u128,
    /// The region's string length `k`; longer prefixes intersect nothing.
    len: usize,
}

impl KeyRegion {
    /// The region `⟨low, high⟩` of equal-length keys.
    pub fn new(low: ObjectKey, high: ObjectKey) -> Self {
        KeyRegion { low: low.head().0, high: high.head().0, len: low.len() }
    }

    /// Where the `n`-symbol prefix whose key is `prefix` lies against the
    /// region: `None` if no member extends it (it lies outside the
    /// endpoints' first `n` symbols, or the region's strings are shorter
    /// than `n`), `Some(true)` if it lies strictly between them (inside),
    /// `Some(false)` if it meets the region on one of their two paths.
    #[inline]
    fn prefix_verdict(&self, prefix: u128, n: usize) -> Option<bool> {
        let mask = mask(n);
        let (low, high) = (self.low & mask, self.high & mask);
        (n <= self.len && low <= prefix && prefix <= high).then_some(low < prefix && prefix < high)
    }

    /// Whether the peer's region intersects this one —
    /// [`KautzRegion::intersects_prefix`] of its PeerID.
    ///
    /// [`KautzRegion::intersects_prefix`]: crate::KautzRegion::intersects_prefix
    #[inline]
    pub fn intersects(&self, peer: PeerKey) -> bool {
        self.prefix_verdict(peer.0, peer.depth()).is_some()
    }

    /// PIRA's subtree test for a sub-query whose `ComS` is the region's
    /// first `f` symbols, with what it needs of `ComS` taken once: see
    /// [`SubtreeProbe::verdict`]. `f ≤ MAX_PEER_DEPTH`.
    pub fn subtree_probe(&self, f: usize) -> SubtreeProbe {
        debug_assert!(f <= MAX_PEER_DEPTH, "ComS of {f} symbols exceeds MAX_PEER_DEPTH");
        let head = self.low & mask(f);
        // `ComS`'s last group, which a tail may not repeat; 0 (no group)
        // when `ComS` is empty.
        let junction = if f > 0 { (head >> (128 - 2 * f)) & 3 } else { 0 };
        SubtreeProbe { region: *self, head, junction, f }
    }
}

/// PIRA's subtree test of one sub-query ([`KeyRegion::subtree_probe`]):
/// the region, `ComS`'s bits and its last symbol, read per candidate child
/// without being recomputed.
#[derive(Debug, Clone, Copy)]
pub struct SubtreeProbe {
    region: KeyRegion,
    head: u128,
    junction: u128,
    f: usize,
}

impl SubtreeProbe {
    /// `|ComS|`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// The region probed.
    pub fn region(&self) -> &KeyRegion {
        &self.region
    }

    /// Where the prefix `ComS ++ child.id[strip..]` of the out-neighbor
    /// keyed `child`, of `depth` symbols (its own), lies against the
    /// region: `None` outside it, `Some(inside)` where it meets it —
    /// [`KautzRegion::intersects_prefix_parts`]`(low[..f], child.id[strip..])`
    /// with both of its fallbacks, a child no longer than `strip` or a
    /// junction that would repeat a symbol testing `ComS` alone. A
    /// fallback is never inside: `ComS` prefixes both endpoints.
    ///
    /// `ComS` plus the tail must fit a key (in a descent they total at most
    /// the child's own depth).
    ///
    /// [`KautzRegion::intersects_prefix_parts`]: crate::KautzRegion::intersects_prefix_parts
    #[inline]
    pub fn verdict(&self, child: PeerKey, depth: usize, strip: usize) -> Option<bool> {
        debug_assert_eq!(depth, child.depth(), "a key's depth is its own");
        let (mut tail, mut tail_len) =
            if strip < depth { (child.0 << (2 * strip), depth - strip) } else { (0, 0) };
        if tail >> 126 == self.junction {
            (tail, tail_len) = (0, 0);
        }
        debug_assert!(self.f + tail_len <= PEER_KEY_SYMS, "subtree prefix exceeds key capacity");
        self.region.prefix_verdict(self.head | tail >> (2 * self.f), self.f + tail_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KautzRegion;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn ks(s: &str) -> KautzStr {
        s.parse().unwrap()
    }

    /// A random region of length-`k` strings whose endpoints share their
    /// first `share` symbols (fewer when the draw says so).
    fn random_region(k: usize, share: usize, rng: &mut SmallRng) -> KautzRegion {
        let a = KautzStr::random(k, rng);
        let b = match rng.gen_range(0..3) {
            0 => a.clone(),
            1 => KautzStr::random(k, rng),
            _ => {
                let stem = a.take_front(share.min(k - 1));
                let next = stem.child_symbols().nth(rng.gen_range(0..2)).unwrap();
                stem.child(next).unwrap().max_extension(k)
            }
        };
        let (low, high) = if a <= b { (a, b) } else { (b, a) };
        KautzRegion::new(low, high).unwrap()
    }

    #[test]
    fn keys_encode_their_strings() {
        for s in ["", "0", "2", "0120", "21012", "0101010101"] {
            let (id, key) = (ks(s), ObjectKey::new(&ks(s)));
            assert_eq!((key.len(), key.is_empty()), (id.len(), id.is_empty()), "{s}");
            assert_eq!(key.decode(), Some(id.clone()));
            let syms: Vec<u8> = (0..=id.len()).map_while(|i| key.symbol(i)).collect();
            assert_eq!(syms, id.symbols());
            for n in 0..=id.len() + 1 {
                assert_eq!(key.truncate(n), ObjectKey::new(&id.take_front(n)), "{s}[..{n}]");
            }
        }
        let long = ks("01").max_extension(200);
        assert_eq!(ObjectKey::new(&long).len(), KEY_SYMS);
        assert_eq!(ObjectKey::new(&long).symbol(KEY_SYMS), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The key written from a rank against the key of the string
        // unranked, at the empty length, inside one word, at the window's
        // edge (63, 64, 65), at the paper's 100 and at 127, the longest
        // whose ranks fit a `u128`; at both ends of the rank space, at a
        // random rank, and one past the end.
        #[test]
        fn unranked_keys_equal_the_keys_of_unranked_strings(
            len in prop_oneof![
                Just(0usize), Just(1), Just(63), Just(64), Just(65), Just(100), Just(127)
            ],
            raw in any::<u128>(),
        ) {
            let count = KautzStr::count(len);
            for rank in [0, count - 1, raw % count, count] {
                let want = KautzStr::unrank(len, rank).map(|id| ObjectKey::new(&id));
                prop_assert_eq!(ObjectKey::unrank(len, rank), want, "rank {} of {}", rank, len);
            }
        }
    }

    #[test]
    fn extension_windows_are_the_string_extensions() {
        for k in [1, 2, 3, 31, 32, 33, 64, 100, 120, KEY_SYMS] {
            for first in 0..3u8 {
                let head = KautzStr::new(vec![first]).unwrap();
                let [min, max] = [0, 1].map(|b| EXTENSIONS[b][first as usize].truncate(k));
                assert_eq!(min, ObjectKey::new(&head.min_extension(k)), "{first} k={k}");
                assert_eq!(max, ObjectKey::new(&head.max_extension(k)), "{first} k={k}");
            }
        }
    }

    #[test]
    fn the_whole_space_splits_into_the_three_root_groups() {
        let whole = KautzRegion::new(ks("0101"), ks("2121")).unwrap();
        let subs: Vec<_> =
            split_region(ObjectKey::new(whole.low()), ObjectKey::new(whole.high())).collect();
        let want: Vec<_> = whole
            .split_by_common_prefix()
            .iter()
            .map(|r| (ObjectKey::new(r.low()), ObjectKey::new(r.high())))
            .collect();
        assert_eq!(subs, want);
        assert_eq!(subs.len(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The key split and `|ComT|` against the string forms, on regions
        // of every shape: one first-symbol group or up to three, endpoints
        // sharing any prefix, across word boundaries of the key.
        #[test]
        fn split_and_common_prefix_agree_with_the_strings(
            seed in any::<u64>(),
            k in prop_oneof![Just(1usize), Just(2), Just(24), Just(33), Just(100), Just(120)],
            share in 0usize..120,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let region = random_region(k, share % k, &mut rng);
            let (low, high) = (ObjectKey::new(region.low()), ObjectKey::new(region.high()));
            prop_assert_eq!(low.len(), k);
            prop_assert_eq!(low.cmp(&high), region.low().cmp(region.high()));
            prop_assert_eq!(low.common_prefix_len(high), region.common_prefix().len());
            let subs: Vec<_> = split_region(low, high).collect();
            let want = region.split_by_common_prefix();
            prop_assert_eq!(subs.len(), want.len());
            for ((sub_low, sub_high), sub) in subs.into_iter().zip(&want) {
                prop_assert_eq!(sub_low, ObjectKey::new(sub.low()));
                prop_assert_eq!(sub_high, ObjectKey::new(sub.high()));
                prop_assert_eq!(sub_low.common_prefix_len(sub_high), sub.common_prefix().len());
            }
        }
    }

    /// A region of `k`-symbol strings whose endpoints share their first
    /// `share` symbols (junction permitting) and are otherwise independent.
    fn region_sharing(k: usize, share: usize, rng: &mut SmallRng) -> KautzRegion {
        let a = KautzStr::random(k, rng);
        let b = KautzStr::random(k, rng);
        let b = a.take_front(share).concat(&b.drop_front(share)).unwrap_or(b);
        let (low, high) = if a <= b { (a, b) } else { (b, a) };
        KautzRegion::new(low, high).unwrap()
    }

    /// The key-space form of a string region.
    fn key_region(region: &KautzRegion) -> KeyRegion {
        KeyRegion::new(ObjectKey::new(region.low()), ObjectKey::new(region.high()))
    }

    /// `region` and the sub-regions PIRA routes it as.
    fn with_sub_regions(region: KautzRegion) -> Vec<KautzRegion> {
        let mut all = region.split_by_common_prefix();
        all.push(region);
        all
    }

    /// The key of a string of at most 64 symbols, the empty one included.
    fn window(s: &KautzStr) -> PeerKey {
        assert!(s.len() <= PEER_KEY_SYMS);
        ObjectKey::new(s).head()
    }

    #[test]
    fn peer_keys_encode_their_strings() {
        for s in ["0", "2", "01", "0120", "21012", "0101010101"] {
            let key = PeerKey::new(&ks(s));
            assert_eq!((key.depth(), key.first()), (s.len(), ks(s).first()), "{s}");
            assert_eq!(key.decode(), Some(ks(s)));
        }
        assert_eq!((PeerKey::EMPTY.depth(), PeerKey::EMPTY.first()), (0, None));
        assert_eq!(PeerKey::EMPTY.decode(), Some(KautzStr::empty()));
        assert_eq!(PeerKey::EMPTY.below(), PeerKey::EMPTY..=PeerKey(u128::MAX));
        let deepest = ks("01").max_extension(MAX_PEER_DEPTH);
        assert_eq!(PeerKey::new(&deepest).depth(), MAX_PEER_DEPTH);
        assert_eq!(window(&ks("1").max_extension(64)).depth(), 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The membership arithmetic against the string operations it
        // replaces, at every depth a PeerID can have.
        #[test]
        fn peer_key_arithmetic_equals_the_string_forms(
            seed in any::<u64>(),
            depth in 1usize..=MAX_PEER_DEPTH,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let id = KautzStr::random(depth, &mut rng);
            let key = PeerKey::new(&id);
            prop_assert_eq!(key.depth(), depth);
            prop_assert_eq!(key.decode().as_ref(), Some(&id));
            for i in 0..=PEER_KEY_SYMS {
                prop_assert_eq!(key.symbol(i), id.symbols().get(i).copied());
            }
            prop_assert_eq!(key.shift(), window(&id.drop_front(1)));
            prop_assert_eq!(key.parent(), window(&id.take_front(depth - 1)));
            for n in 0..=PEER_KEY_SYMS {
                prop_assert_eq!(key.truncate(n), window(&id.take_front(n.min(depth))));
            }
            for a in (0..3).filter(|&a| Some(a) != id.first()) {
                let stem = KautzStr::new(vec![a]).unwrap().concat(&id).unwrap();
                prop_assert_eq!(key.stem(a), window(&stem));
            }
            if depth < MAX_PEER_DEPTH {
                let kids: Vec<PeerKey> =
                    id.child_symbols().map(|c| PeerKey::new(&id.child(c).unwrap())).collect();
                prop_assert_eq!(key.children().to_vec(), kids);
            }
            if depth >= 2 {
                let parent = id.take_front(depth - 1);
                let last = id.last().unwrap();
                let other = parent.child_symbols().find(|&c| c != last).unwrap();
                prop_assert_eq!(key.sibling(), PeerKey::new(&parent.child(other).unwrap()));
            }
            // Prefix relations against strings above, below and beside it.
            let other = KautzStr::random(rng.gen_range(1..=MAX_PEER_DEPTH), &mut rng);
            let probes = [id.take_front(rng.gen_range(0..=depth)), id.clone(), other];
            for p in probes {
                let longer = p.concat(&KautzStr::random(1, &mut rng)).unwrap_or(p.clone());
                for q in [p.clone(), longer] {
                    if q.len() <= PEER_KEY_SYMS {
                        prop_assert_eq!(key.is_prefix_of(window(&q)), id.is_prefix_of(&q));
                        prop_assert_eq!(key.is_prefix_at(depth, window(&q)), id.is_prefix_of(&q));
                        prop_assert_eq!(window(&q).is_prefix_of(key), q.is_prefix_of(&id));
                        prop_assert_eq!(window(&q).cmp(&key), q.cmp(&id));
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn key_space_region_test_equals_intersects_prefix(
            seed in any::<u64>(),
            k in prop_oneof![Just(24usize), Just(100usize)],
            share in 0usize..100,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            for region in with_sub_regions(region_sharing(k, share % k, &mut rng)) {
                let keys = key_region(&region);
                // Every depth a live PeerID can have, past `k` included
                // (a prefix longer than the region's strings meets nothing).
                for n in 1..=MAX_PEER_DEPTH {
                    let (low, high) = (region.low().take_front(n), region.high().take_front(n));
                    let edge = [low.successor(), high.successor()].into_iter().flatten();
                    let probes = [low.clone(), high.clone(), KautzStr::random(n, &mut rng)];
                    for p in probes.into_iter().chain(edge) {
                        prop_assert_eq!(
                            keys.intersects(PeerKey::new(&p)),
                            region.intersects_prefix(&p),
                            "{} ∩ {}", region, p
                        );
                    }
                }
            }
        }

        #[test]
        fn peer_key_suffix_overlap_equals_the_string_form(
            seed in any::<u64>(),
            k in prop_oneof![Just(24usize), Just(100usize)],
            share in 0usize..100,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let region = region_sharing(k, share % k, &mut rng);
            let com_t = region.common_prefix();
            let target = ObjectKey::new(region.low()).head();
            for _ in 0..32 {
                // A PeerID of any live depth, often ending in a piece of
                // `ComT` so that long overlaps occur.
                let depth = rng.gen_range(1..=MAX_PEER_DEPTH);
                let tail = com_t.take_front(rng.gen_range(0..=depth.min(com_t.len())));
                let id = loop {
                    let head = KautzStr::random(depth - tail.len(), &mut rng);
                    if let Ok(id) = head.concat(&tail) {
                        break id;
                    }
                };
                let peer = PeerKey::new(&id);
                prop_assert_eq!(peer.depth(), depth);
                let suffixes = Suffixes::new(peer);
                for n in [0, com_t.len().min(1), com_t.len() / 2, com_t.len()] {
                    let overlap = id.longest_suffix_prefix(&com_t.take_front(n));
                    prop_assert_eq!(
                        peer.longest_suffix_prefix(target, n),
                        overlap,
                        "{} against {}[..{}]", id, com_t, n
                    );
                    prop_assert_eq!(suffixes.longest_prefix_of(target, n), overlap);
                }
            }
        }

        #[test]
        fn key_space_subtree_verdict_equals_intersects_prefix_parts(
            seed in any::<u64>(),
            k in prop_oneof![Just(24usize), Just(100usize)],
            share in 0usize..100,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut pruned, mut kept) = (0, 0);
            for region in with_sub_regions(region_sharing(k, share % k, &mut rng)) {
                let keys = key_region(&region);
                for f in 0..=k.min(MAX_PEER_DEPTH) {
                    let com_s = region.low().take_front(f);
                    for _ in 0..6 {
                        // A child of any live depth, stripped by anything up
                        // to past its end (`strip ≥ len(child)`: no tail).
                        let child_len = rng.gen_range(1..=MAX_PEER_DEPTH);
                        let strip = rng.gen_range(0..child_len + 3);
                        let t = child_len.saturating_sub(strip);
                        if f + t > PEER_KEY_SYMS {
                            continue;
                        }
                        // The tail continues the region's own endpoints as
                        // often as not (else nearly everything prunes); a
                        // random tail repeats the junction symbol one time
                        // in three.
                        let end = [region.low(), region.high()][rng.gen_range(0..2usize)];
                        let tail = if f + t <= k && rng.gen_range(0..2) == 0 {
                            end.drop_front(f).take_front(t)
                        } else {
                            KautzStr::random(t, &mut rng)
                        };
                        let child = loop {
                            let head = KautzStr::random(child_len - t, &mut rng);
                            if let Ok(child) = head.concat(&tail) {
                                break child;
                            }
                        };
                        let tail = child.symbols().get(strip..).unwrap_or(&[]);
                        let expect = region.intersects_prefix_parts(&com_s, tail);
                        let verdict =
                            keys.subtree_probe(f).verdict(PeerKey::new(&child), child_len, strip);
                        prop_assert_eq!(
                            verdict.is_some(),
                            expect,
                            "{} vs {} ++ {}[{}..]", region, com_s, child, strip
                        );
                        if verdict == Some(true) {
                            // Inside: the least and the greatest extension
                            // of every length up to `k` meet the region.
                            let prefix = KautzStr::new(tail.to_vec())
                                .and_then(|tail| com_s.concat(&tail));
                            prop_assert!(prefix.is_ok(), "fallback {} ++ {} inside", com_s, child);
                            let prefix = prefix.unwrap();
                            for ext in [prefix.min_extension(k), prefix.max_extension(k)] {
                                for n in prefix.len()..=k {
                                    prop_assert!(
                                        region.intersects_prefix(&ext.take_front(n)),
                                        "{} is inside {} but {} is not", prefix, region, ext
                                    );
                                }
                            }
                        }
                        if expect { kept += 1 } else { pruned += 1 }
                    }
                }
            }
            prop_assert!(pruned > 0 && kept > 0, "one-sided case: {} pruned, {} kept", pruned, kept);
        }
    }

    #[test]
    fn a_verdict_is_inside_only_strictly_between_the_boundary_paths() {
        // ⟨0101, 2121⟩ is the whole length-4 space; `ComS` is empty.
        let probe = key_region(&KautzRegion::new(ks("0101"), ks("2121")).unwrap()).subtree_probe(0);
        let verdict =
            |child: &str, strip| probe.verdict(PeerKey::new(&ks(child)), child.len(), strip);
        assert_eq!(verdict("1", 0), Some(true), "between the first symbols 0 and 2");
        assert_eq!(verdict("120", 0), Some(true));
        assert_eq!(verdict("0", 0), Some(false), "on the low path");
        assert_eq!(verdict("010", 0), Some(false));
        assert_eq!(verdict("012", 0), Some(true), "off the low path, above it");
        assert_eq!(verdict("2121", 0), Some(false), "on the high path, to its end");
        assert_eq!(verdict("21201", 0), None, "longer than the region's strings");
        assert_eq!(verdict("12", 2), Some(false), "no tail: `ComS` alone");
        // ⟨0120, 0121⟩ shares `ComS` = 012: its fallback meets, never inside.
        let narrow =
            key_region(&KautzRegion::new(ks("0120"), ks("0121")).unwrap()).subtree_probe(3);
        let verdict =
            |child: &str, strip| narrow.verdict(PeerKey::new(&ks(child)), child.len(), strip);
        assert_eq!(verdict("120", 1), Some(false), "junction 2 ++ 2");
        assert_eq!(verdict("10", 1), Some(false), "tail 0, on the low path");
        assert_eq!(verdict("010", 1), None, "01210 is longer than the region's strings");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn object_keys_order_and_partition_like_the_strings(
            seed in any::<u64>(),
            k in prop_oneof![Just(24usize), Just(64), Just(65), Just(100), Just(120)],
            share in 0usize..120,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let region = region_sharing(k, share % k, &mut rng);
            let (a, b) = (region.low(), region.high());
            let (ka, kb) = (ObjectKey::new(a), ObjectKey::new(b));
            // Same order, and equal keys only for equal ids.
            prop_assert_eq!(ka.cmp(&kb), a.cmp(b), "{} vs {}", a, b);
            prop_assert_eq!(ka.decode().as_ref(), Some(a));
            // A peer of any live depth stores exactly what its id prefixes.
            for n in 1..=MAX_PEER_DEPTH.min(k) {
                let (low, high) = (a.take_front(n), b.take_front(n));
                let edge = [low.successor(), high.successor()].into_iter().flatten();
                let peers = [low.clone(), high.clone(), KautzStr::random(n, &mut rng)];
                for p in peers.into_iter().chain(edge) {
                    for (o, ko) in [(a, ka), (b, kb)] {
                        let stores = PeerKey::new(&p).interval().contains(&ko);
                        prop_assert_eq!(stores, p.is_prefix_of(o), "{} under {}", o, p);
                    }
                }
            }
        }
    }

    #[test]
    fn ids_that_first_differ_past_the_window_get_distinct_ordered_keys() {
        let mut rng = SmallRng::seed_from_u64(19);
        for k in [100, 120] {
            let a = KautzStr::random(k, &mut rng);
            let stem = a.take_front(90);
            let other = stem.child_symbols().find(|&s| s != a.symbols()[90]).unwrap();
            let b = stem.child(other).unwrap().min_extension(k);
            assert_eq!(a.common_prefix_len(&b), 90);
            let (ka, kb) = (ObjectKey::new(&a), ObjectKey::new(&b));
            assert_eq!(ka.head(), kb.head(), "the window alone cannot tell them apart");
            assert_eq!(ka.cmp(&kb), a.cmp(&b));
            assert_ne!(ka, kb);
        }
    }
}
