//! A stale routing table must be impossible to read: after every kind of
//! membership change, queries on a network whose table was built *before*
//! the change equal the same queries on a `clone()` taken before the table
//! existed and put through the same change.

use armada::{MultiArmada, PiraScheme, QueryOutcome, SingleArmada};
use dht_api::{
    BuildParams, DigestReport, FetchCost, ParallelDriver, RangeScheme, ReplicaRouting, WorkloadGen,
};
use fissione::{FissioneConfig, FissioneError, FissioneNet};
use kautz::KautzStr;
use rand::rngs::SmallRng;
use rand::Rng;
use simnet::{NetModel, NodeId, QueryScratch, TraceRecord};

const DOMAIN: (f64, f64) = (0.0, 1000.0);

fn small_cfg() -> FissioneConfig {
    FissioneConfig { object_id_len: 24, ..FissioneConfig::default() }
}

/// A live peer of minimal depth (the same one on a network and its clone).
fn shallowest(net: &FissioneNet) -> NodeId {
    net.live_peers().min_by_key(|&n| (net.peer(n).unwrap().depth(), n)).unwrap()
}

type Mutation = fn(&mut FissioneNet);

/// Every kind of membership change, each a pure function of the network it
/// is applied to, so a network and its clone go through the same one.
fn mutations() -> [(&'static str, Mutation); 5] {
    fn rng() -> SmallRng {
        simnet::rng_from_seed(0x7ab1e)
    }
    [
        ("join", |net| {
            net.join(&mut rng());
        }),
        ("leave", |net| net.leave(net.random_peer(&mut rng())).unwrap()),
        ("crash", |net| {
            net.crash(net.random_peer(&mut rng())).unwrap();
        }),
        ("split_leaf", |net| {
            net.split_leaf(shallowest(net));
        }),
        ("stabilize", |net| assert!(net.stabilize() > 0, "nothing to migrate")),
    ]
}

/// Leaves one leaf three levels deeper than its neighbors, so `stabilize`
/// has migrations to perform.
fn unbalance(net: &mut FissioneNet) {
    let leaf = shallowest(net);
    for _ in 0..3 {
        net.split_leaf(leaf);
    }
}

/// Runs `run` on a copy of `base` whose table predates each mutation and on
/// a copy that had none, through one scratch across the change (its stamps
/// must survive it too); both must see the mutated network alike.
fn assert_no_stale_reads<A: Clone, O: PartialEq>(
    base: &A,
    net_mut: fn(&mut A) -> &mut FissioneNet,
    run: impl Fn(&A, &mut QueryScratch) -> Vec<O>,
    exact: fn(&O) -> bool,
) {
    for (name, mutate) in mutations() {
        let mut warm = base.clone();
        let mut cold = base.clone();
        let mut scratch = QueryScratch::new();
        run(&warm, &mut scratch);
        let stale = net_mut(&mut warm).route_table().clone();
        mutate(net_mut(&mut warm));
        mutate(net_mut(&mut cold));
        let fresh = net_mut(&mut warm).route_table();
        assert!(*fresh != stale, "{name} left the routing table as it was");
        let after = run(&warm, &mut scratch);
        assert!(after == run(&cold, &mut QueryScratch::new()), "{name}: stale routing table");
        assert!(after.iter().all(exact), "{name}: inexact after the change");
    }
}

#[test]
fn pira_never_reads_a_table_built_before_a_membership_change() {
    let mut rng = simnet::rng_from_seed(91);
    let mut base =
        SingleArmada::build_with(small_cfg(), 150, DOMAIN.0, DOMAIN.1, &mut rng).unwrap();
    for _ in 0..300 {
        base.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1));
    }
    unbalance(base.net_mut());
    // Outcome and trace records of a fixed query list (the whole domain
    // among them: its destination count is the peer count).
    let run = |a: &SingleArmada, scratch: &mut QueryScratch| {
        let mut rng = simnet::rng_from_seed(910);
        let mut ranges = vec![DOMAIN];
        ranges.extend((0..12).map(|_| {
            let lo = rng.gen_range(0.0..900.0);
            (lo, lo + rng.gen_range(0.5..100.0))
        }));
        let origin = shallowest(a.net());
        ranges
            .into_iter()
            .enumerate()
            .map(|(q, (lo, hi))| {
                armada::descent::query(a, origin, &[(lo, hi)], q as u64, None, true, scratch)
                    .unwrap()
            })
            .collect::<Vec<_>>()
    };
    assert_no_stale_reads(&base, SingleArmada::net_mut, run, |(out, _)| out.metrics.exact);
}

#[test]
fn mira_never_reads_a_table_built_before_a_membership_change() {
    let mut rng = simnet::rng_from_seed(92);
    let domains = [(0.0, 100.0), (0.0, 100.0)];
    let mut base = MultiArmada::build_with(small_cfg(), 150, &domains, &mut rng).unwrap();
    for _ in 0..300 {
        base.publish(&[rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)]).unwrap();
    }
    unbalance(base.net_mut());
    let run = |m: &MultiArmada, scratch: &mut QueryScratch| {
        let mut rng = simnet::rng_from_seed(920);
        let mut rects = vec![domains.to_vec()];
        rects.extend((0..12).map(|_| {
            let lo = [rng.gen_range(0.0..70.0), rng.gen_range(0.0..70.0)];
            vec![
                (lo[0], lo[0] + rng.gen_range(0.5..30.0)),
                (lo[1], lo[1] + rng.gen_range(0.5..30.0)),
            ]
        }));
        let origin = shallowest(m.net());
        rects
            .iter()
            .enumerate()
            .map(|(q, rect)| {
                armada::descent::query(m, origin, rect, q as u64, None, true, scratch).unwrap()
            })
            .collect::<Vec<_>>()
    };
    assert_no_stale_reads(&base, MultiArmada::net_mut, run, |(out, _)| out.metrics.exact);
}

/// What a route through the table produced, in each of its three users'
/// terms.
#[derive(Debug, PartialEq)]
enum Routed {
    Path(Result<Vec<NodeId>, FissioneError>),
    Fetch(FetchCost),
    Walk(QueryOutcome, Option<Vec<TraceRecord>>),
}

#[test]
fn routes_never_read_a_table_built_before_a_membership_change() {
    let wan = NetModel::named("wan").unwrap();
    let params = BuildParams::new(150, DOMAIN.0, DOMAIN.1).with_object_id_len(24).with_net(wan);
    let mut rng = simnet::rng_from_seed(94);
    let mut base = PiraScheme::build(&params, &mut rng).unwrap();
    for h in 0..300 {
        base.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).unwrap();
    }
    unbalance(base.net_mut());
    // Exact-match routes to PeerIDs, ObjectIDs and a prefix too short to
    // have an owner, replica fetch phases priced over the same walk (in one
    // batch, and each fetch as a batch of one), and the sequential walk's
    // routed first phase: a list fixed by the network it runs on, so the
    // same on a network and its clone.
    let run = |scheme: &PiraScheme, scratch: &mut QueryScratch| {
        let net = scheme.inner().net();
        let peers: Vec<NodeId> = net.live_peers().collect();
        let mut rng = simnet::rng_from_seed(940);
        let mut routed = Vec::new();
        for _ in 0..12 {
            let object = KautzStr::random(24, &mut rng);
            let peer_id = net.peer_id(peers[rng.gen_range(0..peers.len())]).unwrap().clone();
            for target in [peer_id, object.take_front(3), object] {
                let from = peers[rng.gen_range(0..peers.len())];
                routed.push(Routed::Path(net.route(from, &target).map(|r| r.path().to_vec())));
            }
            // A fetch phase: random holders, one of them twice, the origin
            // itself and a node that is not live, priced in one batch that
            // must agree with each fetch priced as a batch of one.
            let origin = peers[rng.gen_range(0..peers.len())];
            let mut holders: Vec<NodeId> =
                (0..4).map(|_| peers[rng.gen_range(0..peers.len())]).collect();
            let dead = (0..).find(|&n| !net.is_live(n)).unwrap();
            holders.extend([holders[0], origin, dead]);
            let mut batch = Vec::new();
            scheme.inner().fetch_costs(origin, &holders, scratch, &mut batch);
            assert_eq!(batch.len(), holders.len());
            for (&holder, cost) in holders.iter().zip(batch) {
                let mut alone = Vec::new();
                scheme.inner().fetch_costs(origin, &[holder], scratch, &mut alone);
                assert_eq!(alone, [cost], "{origin} -> {holder}");
                routed.push(Routed::Fetch(cost));
            }
        }
        let origin = shallowest(net);
        let (walk, trace) =
            armada::seqwalk::query(scheme.inner(), origin, 100.0, 400.0, 0, None, true, scratch)
                .unwrap();
        routed.push(Routed::Walk(walk, trace));
        routed
    };
    // Every source is live, so a path ends at an owner or names a target
    // too short to have one; only the walk claims exactness.
    let exact = |routed: &Routed| match routed {
        Routed::Path(path) => !matches!(path, Err(FissioneError::NoSuchPeer { .. })),
        Routed::Fetch(_) => true,
        Routed::Walk(walk, _) => walk.metrics.exact,
    };
    assert_no_stale_reads(&base, PiraScheme::net_mut, run, exact);
}

#[test]
fn the_batch_that_builds_the_table_digests_the_same_at_any_thread_count() {
    let params = BuildParams::new(400, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
    let mut rng = simnet::rng_from_seed(93);
    let mut fresh = PiraScheme::build(&params, &mut rng).unwrap();
    for h in 0..400 {
        fresh.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).unwrap();
    }
    let workload = WorkloadGen::named("mixed", DOMAIN).unwrap();
    // Each run gets a clone that has never answered a query, so the first
    // queries of the batch — on every shard thread at once — race to build
    // its table.
    let digest = |threads: usize| {
        let scheme = fresh.clone();
        let driver = ParallelDriver::new(96).with_seed(930).with_threads(threads);
        DigestReport::of(&driver.run(&scheme, &workload).unwrap())
    };
    assert_eq!(digest(1), digest(4));
}
