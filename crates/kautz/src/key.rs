//! [`ObjectKey`]: the fixed-width form of a base-2 Kautz string, and the
//! region arithmetic PIRA's query prologue runs on it.
//!
//! An ObjectID is a leaf of the partition tree `P(2,k)`; the naming
//! ([`SingleHash::object_key`](crate::naming::SingleHash::object_key),
//! [`MultiHash::object_key`](crate::naming::MultiHash::object_key)) emits it
//! in this form directly, and the FISSIONE object table sorts by it. A
//! region `⟨LowT, HighT⟩` is the pair of its endpoint keys: its split into
//! sub-regions that share a first symbol ([`split_region`]) and each
//! sub-region's `|ComT|` ([`ObjectKey::common_prefix_len`]) are word
//! arithmetic, not string walks. [`KautzStr`] and
//! [`KautzRegion`](crate::KautzRegion) stay the reference these are tested
//! against.

use crate::KautzStr;
use std::ops::RangeInclusive;

/// Symbol capacity of an [`ObjectKey`]: 2 bits per symbol in 256 bits.
pub const KEY_SYMS: usize = 128;

/// The exact fixed-width form of a base-2 Kautz string of at most
/// [`KEY_SYMS`] symbols: symbol `s` becomes the 2-bit group `s + 1`,
/// packed most significant first and zero-padded. Key order is string
/// order (a proper prefix sorts before its extensions because its padding
/// groups are zero), distinct strings get distinct keys, and the first 64
/// groups ([`head`](Self::head)) are FISSIONE's PeerID key of the same
/// symbols. The object table sorted by key is the namespace in leaf order:
/// the ObjectIDs below a PeerID are one contiguous interval of it, and so
/// is a range query's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObjectKey(pub(crate) [u64; 4]);

impl ObjectKey {
    /// The key of `id`, which keeps its first [`KEY_SYMS`] symbols: all of
    /// an ObjectID, and of a longer string all that matters.
    pub fn new(id: &KautzStr) -> Self {
        let mut words = [0u64; 4];
        for (i, &s) in id.symbols().iter().take(KEY_SYMS).enumerate() {
            words[i / 32] |= (u64::from(s) + 1) << (62 - 2 * (i % 32));
        }
        ObjectKey(words)
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
    pub fn head(self) -> u128 {
        u128::from(self.0[0]) << 64 | u128::from(self.0[1])
    }

    /// The least and the greatest key whose [`head`](Self::head) lies in
    /// `heads` (the bounds of a search, not keys of strings).
    pub fn with_heads(heads: RangeInclusive<u128>) -> RangeInclusive<ObjectKey> {
        let (low, high) = heads.into_inner();
        let split = |head: u128, tail| ObjectKey([(head >> 64) as u64, head as u64, tail, tail]);
        split(low, 0)..=split(high, u64::MAX)
    }

    /// The string this key encodes; `None` if no Kautz string of `base`
    /// does.
    pub fn decode(self, base: u8) -> Option<KautzStr> {
        let groups = (0..KEY_SYMS).map(|i| (self.0[i / 32] >> (62 - 2 * (i % 32))) as u8 & 3);
        let syms: Vec<u8> = groups.clone().take_while(|&g| g != 0).map(|g| g - 1).collect();
        let padded = groups.skip(syms.len()).all(|g| g == 0);
        KautzStr::new(base, syms).ok().filter(|_| padded)
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
        let a = KautzStr::random(2, k, rng);
        let b = match rng.gen_range(0..3) {
            0 => a.clone(),
            1 => KautzStr::random(2, k, rng),
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
            assert_eq!(key.decode(2), Some(id.clone()));
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

    #[test]
    fn extension_windows_are_the_string_extensions() {
        for k in [1, 2, 3, 31, 32, 33, 64, 100, 120, KEY_SYMS] {
            for first in 0..3u8 {
                let head = KautzStr::new(2, vec![first]).unwrap();
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
}
