//! Property tests: the FISSIONE cover, storage and routing survive arbitrary
//! churn schedules.

use fissione::{BalanceRule, FissioneConfig, FissioneNet, ObjectKey};
use kautz::KautzStr;
use proptest::prelude::*;
use simnet::NodeId;

#[derive(Debug, Clone)]
enum Op {
    Join,
    Leave(usize),
    Crash(usize),
    Publish(u64),
    Stabilize,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Join),
        2 => any::<usize>().prop_map(Op::Leave),
        1 => any::<usize>().prop_map(Op::Crash),
        3 => any::<u64>().prop_map(Op::Publish),
        1 => Just(Op::Stabilize),
    ]
}

/// Every live peer's neighbour sets against §3's rule, brute force on the
/// PeerID strings: its out-neighbours are, in PeerID order, the live peers
/// prefix-compatible with its shift `id[1..]`; its in-neighbours are that
/// relation's inverse, as a set, less the one loop it has (a depth-1 peer's
/// empty shift makes it its own out-neighbour, and no stem `a ++ id` with
/// `a ≠ id[0]` is the peer itself); and its routing-table row lists its
/// out-neighbours.
fn neighbors_follow_the_shift_rule(net: &FissioneNet) -> Result<(), TestCaseError> {
    let peers: Vec<(NodeId, &KautzStr)> =
        net.live_peers().map(|n| (n, net.peer_id(n).unwrap())).collect();
    let outs: Vec<Vec<NodeId>> = peers
        .iter()
        .map(|(_, id)| {
            let shift = id.drop_front(1);
            peers.iter().filter(|(_, w)| w.prefix_compatible(&shift)).map(|&(w, _)| w).collect()
        })
        .collect();
    let mut ins: Vec<Vec<NodeId>> = vec![Vec::new(); net.live_peers().max().unwrap() + 1];
    for (&(node, _), out) in peers.iter().zip(&outs) {
        out.iter().filter(|&&w| w != node).for_each(|&w| ins[w].push(node));
    }
    let table = net.route_table();
    for (&(node, id), out) in peers.iter().zip(&outs) {
        prop_assert_eq!(&net.out_neighbors(node), out, "out-neighbours of {}", id);
        let mut walked = net.in_neighbors(node);
        walked.sort_unstable();
        ins[node].sort_unstable();
        prop_assert_eq!(&walked, &ins[node], "in-neighbours of {}", id);
        let row: Vec<NodeId> =
            table.out(table.rank(node).unwrap()).map(|r| table.node(r)).collect();
        prop_assert_eq!(&row, out, "routing-table row of {}", id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_hold_under_arbitrary_churn(
        seed in 0u64..1000,
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(seed);
        let mut net = FissioneNet::build(cfg, 12, &mut rng).unwrap();
        let mut published: u64 = 0;
        let mut lost: u64 = 0;
        for op in ops {
            match op {
                Op::Join => {
                    net.join(&mut rng);
                }
                Op::Leave(raw) => {
                    let peers: Vec<_> = net.live_peers().collect();
                    let victim = peers[raw % peers.len()];
                    match net.leave(victim) {
                        Ok(()) => {}
                        Err(fissione::FissioneError::TooSmall) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("leave: {e}"))),
                    }
                }
                Op::Crash(raw) => {
                    let peers: Vec<_> = net.live_peers().collect();
                    let victim = peers[raw % peers.len()];
                    match net.crash(victim) {
                        Ok(n) => lost += n as u64,
                        Err(fissione::FissioneError::TooSmall) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("crash: {e}"))),
                    }
                }
                Op::Publish(h) => {
                    let obj = KautzStr::random(24, &mut rng);
                    net.publish(ObjectKey::new(&obj), h).unwrap();
                    published += 1;
                }
                Op::Stabilize => {
                    net.stabilize();
                }
            }
            let report = net.check_invariants()
                .map_err(|e| TestCaseError::fail(format!("invariants: {e}")))?;
            prop_assert_eq!(report.total_objects as u64 + lost, published);
            neighbors_follow_the_shift_rule(&net)?;
        }
        // Routing still works after the churn storm.
        for _ in 0..20 {
            let target = KautzStr::random(24, &mut rng);
            let from = net.random_peer(&mut rng);
            let route = net.route(from, &target).unwrap();
            prop_assert_eq!(route.dest(), net.owner_of(&target).unwrap());
        }
    }

    #[test]
    fn lookup_finds_every_published_object(
        seed in 0u64..1000,
        n in 10usize..80,
        objects in prop::collection::vec(any::<u64>(), 1..40),
    ) {
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(seed);
        let mut net = FissioneNet::build(cfg, n, &mut rng).unwrap();
        let mut placed = Vec::new();
        for &h in &objects {
            let obj = KautzStr::random(24, &mut rng);
            net.publish(ObjectKey::new(&obj), h).unwrap();
            placed.push((obj, h));
        }
        // Grow some more, then every object must still be resolvable.
        for _ in 0..10 {
            net.join(&mut rng);
        }
        for (obj, h) in placed {
            let (_owner, handles) = net.lookup(ObjectKey::new(&obj)).unwrap();
            let handles: Vec<u64> = handles.collect();
            prop_assert!(handles.contains(&h));
        }
    }

    #[test]
    fn random_owner_rule_still_satisfies_hard_invariants(
        seed in 0u64..500,
        n in 10usize..150,
    ) {
        let cfg = FissioneConfig { object_id_len: 24, balance: BalanceRule::RandomOwner };
        let mut rng = simnet::rng_from_seed(seed);
        let net = FissioneNet::build(cfg, n, &mut rng).unwrap();
        net.check_invariants()
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }
}
