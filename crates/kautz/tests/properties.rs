//! Property-based tests for the Kautz namespace invariants the higher layers
//! (FISSIONE routing, PIRA/MIRA pruning) depend on.

use kautz::fixed::ScaledValue;
use kautz::naming::{MultiHash, Naming, SingleHash};
use kautz::partition::{multiple_hash_scaled, rect_of_prefix, single_hash_scaled};
use kautz::{KautzRegion, KautzStr};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Strategy: a uniformly random Kautz string of the given length.
fn kautz_str(len: usize) -> impl Strategy<Value = KautzStr> {
    let count = KautzStr::count(len);
    (0..count).prop_map(move |r| KautzStr::unrank(len, r).expect("rank in range"))
}

/// A query bound: inside the domain, at or past either end, ±∞ or NaN.
fn any_bound(rng: &mut SmallRng, (lo, hi): (f64, f64)) -> f64 {
    match rng.gen_range(0..8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => [lo, hi][rng.gen_range(0..2usize)],
        4 => rng.gen_range(2.0 * lo - hi..=2.0 * hi - lo),
        _ => rng.gen_range(lo..=hi),
    }
}

/// Strategy: an ordered pair of same-length Kautz strings (a valid region).
fn region(len: usize) -> impl Strategy<Value = KautzRegion> {
    (kautz_str(len), kautz_str(len)).prop_map(|(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        KautzRegion::new(lo, hi).expect("ordered endpoints")
    })
}

proptest! {
    #[test]
    fn unranked_strings_are_valid(s in kautz_str(12)) {
        prop_assert!(KautzStr::new(s.symbols().to_vec()).is_ok());
    }

    #[test]
    fn rank_unrank_roundtrip(s in kautz_str(20)) {
        let r = s.rank();
        prop_assert_eq!(KautzStr::unrank(20, r).unwrap(), s);
    }

    #[test]
    fn rank_is_order_isomorphic(a in kautz_str(10), b in kautz_str(10)) {
        prop_assert_eq!(a.cmp(&b), a.rank().cmp(&b.rank()));
    }

    #[test]
    fn extensions_bound_all_extensions(prefix in kautz_str(4), suffix_rank in 0u128..1000) {
        // Any length-10 extension of `prefix` lies between min/max extension.
        let k = 10;
        let tail_len = k - prefix.len();
        // Build an arbitrary valid tail by unranking within the allowed space
        // and gluing only if the junction is legal.
        let tail = KautzStr::unrank(tail_len, suffix_rank % KautzStr::count(tail_len)).unwrap();
        if let Ok(full) = prefix.concat(&tail) {
            prop_assert!(prefix.min_extension(k) <= full);
            prop_assert!(full <= prefix.max_extension(k));
        }
    }

    #[test]
    fn longest_suffix_prefix_matches_bruteforce(a in kautz_str(8), b in kautz_str(8)) {
        let fast = a.longest_suffix_prefix(&b);
        let mut brute = 0;
        for j in 1..=8usize {
            if a.symbols()[8 - j..] == b.symbols()[..j] {
                brute = j;
            }
        }
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn successor_is_rank_plus_one(s in kautz_str(9)) {
        match s.successor() {
            Some(next) => prop_assert_eq!(next.rank(), s.rank() + 1),
            None => prop_assert_eq!(s.rank(), KautzStr::count(9) - 1),
        }
    }

    #[test]
    fn region_split_partitions_exactly(r in region(6)) {
        let parts = r.split_by_common_prefix();
        prop_assert!(parts.len() <= 3);
        // Non-empty common prefix in each part (unless k == 0).
        for p in &parts {
            prop_assert!(!p.common_prefix().is_empty());
        }
        // Sizes add up and parts are disjoint and ordered.
        let total: u128 = parts.iter().map(|p| p.size()).sum();
        prop_assert_eq!(total, r.size());
        for w in parts.windows(2) {
            prop_assert!(w[0].high() < w[1].low());
        }
        prop_assert_eq!(parts.first().unwrap().low(), r.low());
        prop_assert_eq!(parts.last().unwrap().high(), r.high());
    }

    #[test]
    fn intersects_prefix_agrees_with_enumeration(r in region(6), p in kautz_str(3)) {
        let truth = r.iter().any(|s| p.is_prefix_of(&s));
        prop_assert_eq!(r.intersects_prefix(&p), truth);
    }

    #[test]
    fn single_hash_is_monotone(mut a in 0f64..=1000.0, mut b in 0f64..=1000.0) {
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let naming = SingleHash::new(0.0, 1000.0, 32).unwrap();
        prop_assert!(naming.object_id(a) <= naming.object_id(b));
    }

    #[test]
    fn single_hash_leaf_interval_contains_value(x in 0f64..=1.0) {
        let k = 40;
        let v = ScaledValue::from_unit(x);
        let leaf = single_hash_scaled(v, k);
        let iv = kautz::partition::interval_of_prefix(&leaf).unwrap();
        prop_assert!(iv.contains_value(v));
    }

    #[test]
    fn region_covers_every_queried_value(mut a in 0f64..=1000.0, mut b in 0f64..=1000.0, t in 0f64..=1.0) {
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let naming = SingleHash::new(0.0, 1000.0, 24).unwrap();
        let region = naming.region(a, b).unwrap();
        // Any value inside [a, b] maps inside the region (interval
        // preservation, Definition 2).
        let mid = a + t * (b - a);
        prop_assert!(region.contains(&naming.object_id(mid)));
    }

    #[test]
    fn multi_hash_preserves_partial_order(
        a0 in 0f64..=1.0, a1 in 0f64..=1.0, a2 in 0f64..=1.0,
        d0 in 0f64..=1.0, d1 in 0f64..=1.0, d2 in 0f64..=1.0,
    ) {
        // Definition 4: u ⪯ v (componentwise) ⇒ F(u) ≤ F(v).
        let u = [a0, a1, a2];
        let v = [(a0 + d0).min(1.0), (a1 + d1).min(1.0), (a2 + d2).min(1.0)];
        let su: Vec<ScaledValue> = u.iter().map(|&x| ScaledValue::from_unit(x)).collect();
        let sv: Vec<ScaledValue> = v.iter().map(|&x| ScaledValue::from_unit(x)).collect();
        prop_assert!(multiple_hash_scaled(&su, 30) <= multiple_hash_scaled(&sv, 30));
    }

    #[test]
    fn multi_hash_point_stays_in_every_ancestor_rect(
        x in 0f64..=1.0, y in 0f64..=1.0,
    ) {
        let vals = [ScaledValue::from_unit(x), ScaledValue::from_unit(y)];
        let k = 20;
        let id = multiple_hash_scaled(&vals, k);
        for depth in 1..=k {
            let rect = rect_of_prefix(&id.take_front(depth), 2).unwrap();
            for (d, iv) in rect.iter().enumerate() {
                prop_assert!(iv.contains_value(vals[d]), "depth {} dim {}", depth, d);
            }
        }
    }

    #[test]
    fn corner_region_bounds_query_image(
        mut x0 in 0f64..=100.0, mut x1 in 0f64..=100.0,
        mut y0 in 0f64..=100.0, mut y1 in 0f64..=100.0,
        tx in 0f64..=1.0, ty in 0f64..=1.0,
    ) {
        if x0 > x1 { std::mem::swap(&mut x0, &mut x1); }
        if y0 > y1 { std::mem::swap(&mut y0, &mut y1); }
        let naming = MultiHash::new(&[(0.0, 100.0), (0.0, 100.0)], 24).unwrap();
        let region = naming.corner_region(&[(x0, x1), (y0, y1)]).unwrap();
        let p = [x0 + tx * (x1 - x0), y0 + ty * (y1 - y0)];
        prop_assert!(region.contains(&naming.object_id(&p).unwrap()));
    }

    // `Multiple_hash` at arity 1 is `Single_hash`: the same key for every
    // point and the same region keys, or error, for every query (only
    // `Multiple_hash` hands back a rectangle to test as well). A
    // one-attribute MIRA query descends PIRA's sub-regions on the strength
    // of this.
    #[test]
    fn one_attribute_multi_hash_is_single_hash(
        seed in any::<u64>(),
        k in prop_oneof![Just(24usize), Just(100), Just(120)],
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let low_end = rng.gen_range(-1e6..1e6);
        let domain = (low_end, low_end + rng.gen_range(1e-3..1e6));
        let single = SingleHash::new(domain.0, domain.1, k).unwrap();
        let multi = MultiHash::new(&[domain], k).unwrap();
        for _ in 0..32 {
            let (a, b) = (any_bound(&mut rng, domain), any_bound(&mut rng, domain));
            prop_assert_eq!(multi.object_key(&[a]), Ok(single.object_key(a)), "{}", a);
            for rect in [[(a, b)], [(b, a)]] {
                let want = single.query_region(&rect).map(|(keys, _)| keys);
                prop_assert_eq!(multi.query_region(&rect).map(|(keys, _)| keys), want, "{:?}", rect);
            }
        }
        for rect in [&[][..], &[domain; 2][..]] {
            let keys = |r: Result<(_, _), _>| r.map(|(keys, _)| keys);
            prop_assert_eq!(keys(multi.query_region(rect)), keys(single.query_region(rect)));
        }
    }
}
