//! Message-level lookup protocol: exact-match lookups executed through the
//! discrete-event simulator rather than the analytic graph walk.
//!
//! [`FissioneNet::route`] computes the hop count of a lookup directly on the
//! topology. This module runs the same greedy protocol as actual messages
//! through [`simnet::Sim`] — requests forwarded hop by hop, the owner
//! replying with a direct response — which (a) demonstrates the protocol is
//! implementable with purely local per-peer decisions, (b) lets fault plans
//! act on individual messages, and (c) pins the simulator and the analytic
//! walk to identical hop counts (tested below).

use crate::{FissioneError, FissioneNet, ObjectKey};
use simnet::{Envelope, FaultPlan, NodeId, Sim};

/// Messages of the simulated lookup protocol.
#[derive(Debug, Clone)]
enum LookupMsg {
    /// A lookup request traveling toward the owner of the ObjectID keyed
    /// `target`.
    Request { target: ObjectKey, client: NodeId },
    /// The owner's reply, carrying the handles stored under the target.
    Response { handles: Vec<u64> },
}

/// Result of a simulated lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimLookup {
    /// The owning peer, if the request arrived.
    pub owner: Option<NodeId>,
    /// Handles stored under the target at the owner (empty if lost).
    pub handles: Vec<u64>,
    /// Hops the request traveled (delivery depth at the owner).
    pub request_hops: u32,
    /// Total messages (request forwards + the response).
    pub messages: u64,
    /// Whether the response made it back to the client.
    pub completed: bool,
}

impl FissioneNet {
    /// Runs an exact-match lookup for the ObjectID keyed `key` as a message
    /// protocol under `faults`.
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::NoSuchPeer`] if `from` is dead and
    /// [`FissioneError::ObjectIdLen`] if `key` is not an ObjectID of this
    /// network.
    pub fn lookup_via_sim(
        &self,
        from: NodeId,
        key: ObjectKey,
        seed: u64,
        faults: &FaultPlan,
    ) -> Result<SimLookup, FissioneError> {
        self.peer(from)?;
        self.object_id_len(key.len())?;
        let mut sim: Sim<LookupMsg> = Sim::new(seed).with_faults(faults);
        sim.send(from, from, 0, LookupMsg::Request { target: key, client: from });

        let mut result = SimLookup {
            owner: None,
            handles: Vec::new(),
            request_hops: 0,
            messages: 0,
            completed: false,
        };
        sim.run(|sim, env: Envelope<LookupMsg>| match &env.payload {
            LookupMsg::Request { target, client } => {
                let node = env.to;
                match self.next_hop(node, *target) {
                    Ok(None) => {
                        // This peer owns the target: answer directly.
                        result.owner = Some(node);
                        result.request_hops = env.hop;
                        let handles: Vec<u64> = self.handles_under(key).collect();
                        result.handles = handles.clone();
                        sim.forward(&env, *client, LookupMsg::Response { handles });
                    }
                    Ok(Some(next)) => {
                        sim.forward(
                            &env,
                            next,
                            LookupMsg::Request { target: *target, client: *client },
                        );
                    }
                    Err(_) => { /* drop: unroutable under this fault plan */ }
                }
            }
            LookupMsg::Response { handles } => {
                // The client-side view of the answer; it must match what the
                // owner recorded when it replied.
                debug_assert_eq!(handles, &result.handles);
                result.completed = true;
            }
        });
        result.messages = sim.stats().messages_sent;
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FissioneConfig;
    use kautz::KautzStr;

    fn build(n: usize, seed: u64) -> FissioneNet {
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(seed);
        FissioneNet::build(cfg, n, &mut rng).unwrap()
    }

    #[test]
    fn sim_lookup_agrees_with_analytic_walk() {
        let net = build(300, 51);
        let mut rng = simnet::rng_from_seed(510);
        for q in 0..100u64 {
            let target = KautzStr::random(24, &mut rng);
            let from = net.random_peer(&mut rng);
            let walk = net.route(from, &target).unwrap();
            let sim =
                net.lookup_via_sim(from, ObjectKey::new(&target), q, &FaultPlan::new()).unwrap();
            assert_eq!(sim.owner, Some(walk.dest()));
            assert_eq!(sim.request_hops as usize, walk.hops());
            // Request forwards + one response hop (the self-owned case is
            // free: both legs are local deliveries).
            let expected = if walk.hops() == 0 { 0 } else { walk.hops() as u64 + 1 };
            assert_eq!(sim.messages, expected);
            assert!(sim.completed);
        }
    }

    #[test]
    fn sim_lookup_returns_stored_handles() {
        let mut net = build(100, 52);
        let mut rng = simnet::rng_from_seed(520);
        let obj = KautzStr::random(24, &mut rng);
        net.publish(ObjectKey::new(&obj), 77).unwrap();
        net.publish(ObjectKey::new(&obj), 78).unwrap();
        let from = net.random_peer(&mut rng);
        let out = net.lookup_via_sim(from, ObjectKey::new(&obj), 1, &FaultPlan::new()).unwrap();
        assert_eq!(out.handles, vec![77, 78]);
        assert!(out.completed);
    }

    #[test]
    fn sim_lookup_loses_messages_under_faults() {
        let net = build(200, 53);
        let mut rng = simnet::rng_from_seed(530);
        let faults = FaultPlan::with_drop_prob(0.3);
        let mut completed = 0;
        let trials = 100;
        for q in 0..trials {
            let target = KautzStr::random(24, &mut rng);
            let from = net.random_peer(&mut rng);
            let out = net.lookup_via_sim(from, ObjectKey::new(&target), q, &faults).unwrap();
            if out.completed {
                completed += 1;
            }
        }
        assert!(completed < trials, "30% loss must break some lookups");
        assert!(completed > 0, "but not all of them");
    }

    #[test]
    fn sim_lookup_to_crashed_owner_never_completes() {
        let net = build(150, 54);
        let mut rng = simnet::rng_from_seed(540);
        let target = KautzStr::random(24, &mut rng);
        let owner = net.owner_of(&target).unwrap();
        let from = net.live_peers().find(|&n| n != owner).expect("another peer exists");
        let mut faults = FaultPlan::new();
        faults.crash(owner);
        let out = net.lookup_via_sim(from, ObjectKey::new(&target), 1, &faults).unwrap();
        assert!(!out.completed);
        assert_eq!(out.owner, None);
    }
}
