//! Property tests: Chord ownership and routing on arbitrary ring sizes.

use chord::ChordNet;
use dht_api::Dht;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn routing_reaches_the_clockwise_successor(
        n in 1usize..300,
        seed in 0u64..10_000,
        key in any::<u64>(),
        from_raw in any::<usize>(),
    ) {
        let mut rng = simnet::rng_from_seed(seed);
        let net = ChordNet::build(n, &mut rng);
        let from = from_raw % net.node_count();
        let lookup = net.route_point(from, key);
        prop_assert_eq!(lookup.owner, net.successor_of(key));
        // Hop bound: never more than log2(N) + a small constant for the
        // final successor steps.
        let bound = (n as f64).log2().ceil() + 3.0;
        prop_assert!(
            (lookup.hops as f64) <= bound.max(3.0),
            "{} hops on an N = {} ring", lookup.hops, n
        );
    }

    #[test]
    fn ownership_partitions_the_ring(n in 2usize..100, seed in 0u64..10_000, key in any::<u64>()) {
        let mut rng = simnet::rng_from_seed(seed);
        let net = ChordNet::build(n, &mut rng);
        let owner = net.successor_of(key);
        // The owner's id is at or clockwise-after the key, and no other node
        // sits strictly between.
        let oid = net.id_of(owner);
        for node in 0..net.node_count() {
            if node == owner {
                continue;
            }
            let nid = net.id_of(node);
            // nid must NOT lie in the clockwise-open interval [key, oid).
            let inside = if key <= oid {
                nid >= key && nid < oid
            } else {
                nid >= key || nid < oid
            };
            prop_assert!(!inside, "node {} preempts the successor", node);
        }
    }
}
