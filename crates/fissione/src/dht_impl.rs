//! FISSIONE as a generic [`dht_api::Dht`]: the exact-match interface layered
//! schemes (PHT) consume — plus its [`DynamicDht`] churn capability.

use crate::{FissioneError, FissioneNet};
use dht_api::{Dht, DynamicDht, Lookup, SchemeError};
use kautz::KautzStr;
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
    /// Maps an opaque 64-bit key deterministically onto an ObjectID-length
    /// Kautz string (uniform over the namespace).
    pub fn key_to_kautz(&self, key: u64) -> KautzStr {
        let k = self.config().object_id_len;
        let count = KautzStr::count(k);
        // Spread the 64-bit key over the (much larger) u128 rank space by
        // Fibonacci-hash style mixing, then reduce.
        let spread = (key as u128).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);
        KautzStr::unrank(k, spread % count).expect("rank reduced into range")
    }
}

impl Dht for FissioneNet {
    fn route_key(&self, from: NodeId, key: u64) -> Lookup {
        let (owner, hops) = self
            .route_fold(from, &self.key_to_kautz(key), 0, |hops, _, _| hops + 1)
            .expect("routing on a complete cover succeeds");
        Lookup { owner, hops }
    }

    fn route_key_latency(&self, from: NodeId, key: u64, net: &simnet::NetModel) -> (Lookup, u64) {
        // The real Kautz long path, priced edge by edge.
        let (owner, (hops, cost)) = self
            .route_fold(from, &self.key_to_kautz(key), (0, 0), |(hops, cost), src, dst| {
                (hops + 1, cost + net.edge_cost(src, dst))
            })
            .expect("routing on a complete cover succeeds");
        (Lookup { owner, hops }, cost)
    }

    fn is_live(&self, node: NodeId) -> bool {
        FissioneNet::is_live(self, node)
    }

    fn owner_of_key(&self, key: u64) -> NodeId {
        self.owner_of(&self.key_to_kautz(key)).expect("cover is complete")
    }

    fn replica_owners(&self, key: u64, r: usize) -> Vec<NodeId> {
        // The Kautz close group: the owner plus its nearest overlay
        // neighbors, breadth-first — all local table reads, no routing
        // (the maidsafe close-group discipline on a constant-degree graph).
        let want = r.max(1).min(self.len());
        let primary = Dht::owner_of_key(self, key);
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

impl DynamicDht for FissioneNet {
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

    fn live_nodes(&self) -> Vec<NodeId> {
        self.live_peers().collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{FissioneConfig, FissioneNet};
    use dht_api::Dht;

    #[test]
    fn dht_interface_routes_to_owner() {
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(41);
        let net = FissioneNet::build(cfg, 150, &mut rng).unwrap();
        for key in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
            let from = net.random_node(&mut rng);
            let lookup = net.route_key(from, key);
            assert_eq!(lookup.owner, net.owner_of_key(key));
            assert!(lookup.hops as f64 <= 2.0 * (150f64).log2());
        }
    }

    #[test]
    fn dynamic_dht_churns_with_invariants_intact() {
        use dht_api::DynamicDht;
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(43);
        let mut net = FissioneNet::build(cfg, 60, &mut rng).unwrap();
        for _ in 0..20 {
            DynamicDht::join(&mut net, &mut rng).unwrap();
        }
        for _ in 0..15 {
            let live = net.live_nodes();
            DynamicDht::leave(&mut net, live[7]).unwrap();
        }
        for _ in 0..5 {
            let live = net.live_nodes();
            DynamicDht::crash(&mut net, live[3]).unwrap();
        }
        DynamicDht::stabilize(&mut net);
        net.check_invariants().unwrap();
        assert_eq!(net.live_nodes().len(), 60);
        // Dead ids map to the unified error vocabulary.
        let dead = usize::MAX;
        assert!(matches!(
            DynamicDht::leave(&mut net, dead),
            Err(dht_api::SchemeError::BadOrigin { .. })
        ));
    }

    #[test]
    fn replica_owners_form_the_kautz_close_group() {
        use dht_api::Dht;
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(44);
        let net = FissioneNet::build(cfg, 80, &mut rng).unwrap();
        for key in [0u64, 9, 0xfeed, u64::MAX] {
            let owners = net.replica_owners(key, 4);
            assert_eq!(owners.len(), 4);
            assert_eq!(owners[0], net.owner_of_key(key), "primary is the key's owner");
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
        assert_eq!(net.key_to_kautz(7), net.key_to_kautz(7));
        // Sequential keys spread across distinct owners reasonably often.
        let owners: std::collections::BTreeSet<_> =
            (0..100u64).map(|k| net.owner_of_key(k)).collect();
        assert!(owners.len() > 25, "only {} distinct owners", owners.len());
    }
}
