//! FISSIONE as a generic [`dht_api::Dht`]: the exact-match interface layered
//! schemes (PHT) consume — plus its [`DynamicScheme`] churn capability.

use crate::{FissioneError, FissioneNet, RouteTree};
use dht_api::{Dht, DynamicScheme, Lookup, SchemeError};
use kautz::{KautzStr, ObjectKey};
use rand::rngs::SmallRng;
use simnet::NodeId;

impl From<FissioneError> for SchemeError {
    fn from(e: FissioneError) -> Self {
        match e {
            FissioneError::NoSuchPeer { node } => SchemeError::BadOrigin { origin: node },
            limit @ FissioneError::ObjectIdTooShort { .. } => SchemeError::Build(limit.to_string()),
            other => SchemeError::Query(other.to_string()),
        }
    }
}

impl FissioneNet {
    /// The ObjectID an opaque 64-bit [`Dht`] key names: an
    /// `object_id_len`-symbol Kautz string, uniform over the namespace,
    /// given by its key. The key is spread over the (much larger) `u128`
    /// rank space by Fibonacci-hash style mixing, then reduced and
    /// unranked, so no string is built.
    pub fn object_of_key(&self, key: u64) -> ObjectKey {
        let k = self.config().object_id_len;
        let spread = (key as u128).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);
        ObjectKey::unrank(k, spread % KautzStr::count(k)).expect("rank reduced into range")
    }
}

impl Dht for FissioneNet {
    fn route_keys(
        &self,
        from: NodeId,
        keys: &[u64],
        model: &simnet::NetModel,
        faults: Option<&mut simnet::Verdicts<'_>>,
        scratch: &mut simnet::QueryScratch,
        out: &mut Vec<(Lookup, u64)>,
    ) {
        if let Some(verdicts) = faults {
            for &key in keys {
                let fold = |acc, src, dst| dht_api::faulted_edge(verdicts, model, acc, src, dst);
                let routed = self.route_fold(from, self.object_of_key(key), (0, 0, true), fold);
                let (owner, (hops, latency, arrived)) =
                    routed.expect("routing on a complete cover succeeds");
                out.push((Lookup { owner, hops, arrived }, latency));
            }
            return;
        }
        // The Kautz long paths, priced edge by edge, walked as one tree on
        // the targets' windows.
        let price =
            |(hops, cost): (usize, u64), src, dst| (hops + 1, cost + model.edge_cost(src, dst));
        let tree = scratch.slot::<RouteTree<(usize, u64)>>();
        let windows = keys.iter().map(|&key| self.object_of_key(key).head());
        self.route_tree_fold(from, windows, (0, 0), price, tree);
        for (&key, got) in keys.iter().zip(tree.results()) {
            if cfg!(debug_assertions) {
                let alone = self.route_fold(from, self.object_of_key(key), (0, 0), price);
                assert_eq!(*got, alone, "the tree routed {from} -> {key:#x} unlike a route alone");
            }
            let &(owner, (hops, cost)) =
                got.as_ref().expect("routing on a complete cover succeeds");
            out.push((Lookup { owner, hops, arrived: true }, cost));
        }
    }

    fn is_live(&self, node: NodeId) -> bool {
        FissioneNet::is_live(self, node)
    }

    fn replica_owners(&self, key: u64, r: usize) -> Vec<NodeId> {
        // The Kautz close group: the owner plus its nearest overlay
        // neighbors, breadth-first — all local table reads, no routing
        // (the maidsafe close-group discipline on a constant-degree graph).
        let want = r.max(1).min(self.len());
        let object = self.object_of_key(key);
        let primary = self.owner_of_window(object.head(), object.len()).expect("cover is complete");
        let mut owners = vec![primary];
        let mut frontier = vec![primary];
        while owners.len() < want && !frontier.is_empty() {
            let mut next = Vec::new();
            for &node in &frontier {
                for neighbor in self.neighbors(node) {
                    if owners.len() >= want {
                        break;
                    }
                    if !owners.contains(&neighbor) {
                        owners.push(neighbor);
                        next.push(neighbor);
                    }
                }
            }
            frontier = next;
        }
        owners
    }

    fn any_node(&self) -> NodeId {
        self.live_peers().next().expect("network is never empty")
    }

    fn random_node(&self, rng: &mut SmallRng) -> NodeId {
        self.random_peer(rng)
    }

    fn node_count(&self) -> usize {
        self.len()
    }

    fn name(&self) -> &'static str {
        "fissione"
    }
}

impl DynamicScheme for FissioneNet {
    fn join(&mut self, rng: &mut SmallRng) -> Result<NodeId, SchemeError> {
        self.try_join(rng).map_err(SchemeError::from)
    }

    fn leave(&mut self, node: NodeId) -> Result<(), SchemeError> {
        FissioneNet::leave(self, node).map_err(SchemeError::from)
    }

    fn crash(&mut self, node: NodeId) -> Result<(), SchemeError> {
        FissioneNet::crash(self, node).map(|_lost| ()).map_err(SchemeError::from)
    }

    fn stabilize(&mut self) -> usize {
        FissioneNet::stabilize(self)
    }

    fn live_peers(&self) -> Vec<NodeId> {
        FissioneNet::live_peers(self).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{FissioneConfig, FissioneNet};
    use dht_api::{Dht, Lookup};
    use kautz::{KautzStr, ObjectKey};
    use proptest::prelude::*;
    use rand::Rng;
    use simnet::{NetModel, NodeId, QueryScratch};

    /// The owner of the ObjectID a `Dht` key names, by the partition tree.
    fn owner(net: &FissioneNet, key: u64) -> NodeId {
        net.lookup(net.object_of_key(key)).unwrap().0
    }

    #[test]
    fn dht_interface_routes_to_owner() {
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(41);
        let net = FissioneNet::build(cfg, 150, &mut rng).unwrap();
        let keys = [0u64, 1, 42, u64::MAX, 0xdead_beef];
        let mut scratch = QueryScratch::new();
        for _ in 0..5 {
            let from = net.random_node(&mut rng);
            let mut out = Vec::new();
            net.route_keys(from, &keys, &NetModel::unit(), None, &mut scratch, &mut out);
            assert_eq!(out.len(), keys.len());
            for (&key, (lookup, latency)) in keys.iter().zip(out) {
                assert_eq!(lookup.owner, owner(&net, key));
                assert!(lookup.hops as f64 <= 2.0 * (150f64).log2());
                assert_eq!(latency, lookup.hops as u64, "a unit edge per hop");
            }
        }
    }

    /// `route_keys` from `from` against one `route_fold` per key, under
    /// `wan`: owner, hops and the summed edge costs.
    fn assert_batch_equals_routes(net: &FissioneNet, from: NodeId, keys: &[u64]) {
        let wan = NetModel::wan();
        let mut out = Vec::new();
        net.route_keys(from, keys, &wan, None, &mut QueryScratch::new(), &mut out);
        assert_eq!(out.len(), keys.len());
        for (&key, &got) in keys.iter().zip(&out) {
            let (owner, (hops, cost)) = net
                .route_fold(from, net.object_of_key(key), (0, 0), |(hops, cost), src, dst| {
                    (hops + 1, cost + wan.edge_cost(src, dst))
                })
                .unwrap();
            assert_eq!(got, (Lookup { owner, hops, arrived: true }, cost), "{from} -> {key:#x}");
        }
    }

    // At ObjectID lengths below and above the 64-symbol window, on a built
    // cover and on one churned (2 : 1 : 1 join, leave, crash) without
    // `stabilize`, so short neighbors make hops slide: random keys, some
    // drawn twice, and keys whose ObjectIDs the origin owns itself.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn route_keys_equals_one_route_fold_per_key(
            seed in 0u64..1000,
            len in prop_oneof![Just(24usize), Just(100)],
            churn in 0usize..60,
        ) {
            let cfg = FissioneConfig { object_id_len: len, ..FissioneConfig::default() };
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = FissioneNet::build(cfg, 60, &mut rng).unwrap();
            for op in 0..churn {
                let victim = net.random_peer(&mut rng);
                match op % 4 {
                    0 | 1 => drop(net.join(&mut rng)),
                    2 => drop(net.leave(victim)),
                    _ => drop(net.crash(victim)),
                }
            }
            for _ in 0..3 {
                let from = net.random_node(&mut rng);
                let mut keys: Vec<u64> = (0..150).map(|_| rng.gen()).collect();
                keys.extend_from_within(..20);
                let own = (0..4000).map(|_| rng.gen()).filter(|&key| owner(&net, key) == from);
                keys.extend(own.take(10));
                assert_batch_equals_routes(&net, from, &keys);
            }
        }
    }

    #[test]
    fn object_of_key_is_the_unranked_string_spelled_as_a_key() {
        for len in [24, 100] {
            let cfg = FissioneConfig { object_id_len: len, ..FissioneConfig::default() };
            let net = FissioneNet::new(cfg);
            for key in [0u64, 1, 7, 0xdead_beef, u64::MAX] {
                let spread = (key as u128).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);
                let id = KautzStr::unrank(len, spread % KautzStr::count(len)).unwrap();
                assert_eq!(net.object_of_key(key), ObjectKey::new(&id), "{key:#x} at {len}");
            }
        }
    }

    #[test]
    fn dynamic_dht_churns_with_invariants_intact() {
        use dht_api::DynamicScheme;
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(43);
        let mut net = FissioneNet::build(cfg, 60, &mut rng).unwrap();
        for _ in 0..20 {
            DynamicScheme::join(&mut net, &mut rng).unwrap();
        }
        for _ in 0..15 {
            let live = DynamicScheme::live_peers(&net);
            DynamicScheme::leave(&mut net, live[7]).unwrap();
        }
        for _ in 0..5 {
            let live = DynamicScheme::live_peers(&net);
            DynamicScheme::crash(&mut net, live[3]).unwrap();
        }
        DynamicScheme::stabilize(&mut net);
        net.check_invariants().unwrap();
        assert_eq!(DynamicScheme::live_peers(&net).len(), 60);
        // Dead ids map to the unified error vocabulary.
        let dead = usize::MAX;
        assert!(matches!(
            DynamicScheme::leave(&mut net, dead),
            Err(dht_api::SchemeError::BadOrigin { .. })
        ));
    }

    #[test]
    fn replica_owners_form_the_kautz_close_group() {
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(44);
        let net = FissioneNet::build(cfg, 80, &mut rng).unwrap();
        for key in [0u64, 9, 0xfeed, u64::MAX] {
            let owners = net.replica_owners(key, 4);
            assert_eq!(owners.len(), 4);
            assert_eq!(owners[0], owner(&net, key), "primary is the key's owner");
            let distinct: std::collections::BTreeSet<_> = owners.iter().collect();
            assert_eq!(distinct.len(), 4);
            assert!(owners.iter().all(|&o| net.is_live(o)));
            // The first replica is an overlay neighbor of the primary —
            // the close-group property.
            assert!(net.neighbors(owners[0]).contains(&owners[1]));
            // Deterministic.
            assert_eq!(owners, net.replica_owners(key, 4));
        }
    }

    #[test]
    fn key_mapping_is_deterministic_and_spread() {
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(42);
        let net = FissioneNet::build(cfg, 50, &mut rng).unwrap();
        assert_eq!(net.object_of_key(7), net.object_of_key(7));
        // Sequential keys spread across distinct owners reasonably often.
        let owners: std::collections::BTreeSet<_> = (0..100u64).map(|k| owner(&net, k)).collect();
        assert!(owners.len() > 25, "only {} distinct owners", owners.len());
    }
}
