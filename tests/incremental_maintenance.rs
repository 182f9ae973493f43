//! The incremental-maintenance equivalence contract, pinned as a property
//! across seeds and churn plans: after any sequence of membership events,
//! the routing state produced by the substrates' incremental repairs —
//! Chord's shifted-arc finger updates, CAN's localized adjacency rebuilds,
//! FissionE's `stabilize` re-deriving only the neighborhood a migration
//! moved — must be **byte-identical** to a from-scratch recomputation on
//! the same membership, and a query batch driven over either state must
//! produce the same [`DigestReport`].
//!
//! This is what licenses the scaling pass: the flat-storage substrates
//! repair `O(log N)` state per event instead of rebuilding `O(N log N)`,
//! and this test is the proof obligation that the shortcut is invisible.

use armada_suite::chord::ChordNet;
use armada_suite::dht_api::{
    ChurnEvent, ChurnPlan, Dht, DigestReport, ParallelDriver, RangeOutcome, RangeScheme,
    SchemeError, WorkloadGen,
};
use armada_suite::dht_can::{CanConfig, CanNet};
use armada_suite::fissione::{FissioneConfig, FissioneNet};
use armada_suite::rand::Rng;
use proptest::prelude::*;
use simnet::{NetModel, QueryScratch};

const DOMAIN: (f64, f64) = (0.0, 1000.0);

/// The three plan shapes exercised: pure turnover, bursty growth/drain,
/// and crash-heavy loss.
const PLANS: [&str; 3] = ["steady-churn", "flash-crowd", "massacre"];

/// Replays a plan's event stream straight onto a Chord ring (the same
/// event lists and placement RNG `ChurnPlan::apply` would use), checking
/// the ring's invariants after every event.
fn churn_chord(net: &mut ChordNet, plan: &ChurnPlan, seed: u64, epochs: u64) {
    net.check_invariants().unwrap_or_else(|e| panic!("built ring: {e}"));
    for epoch in 0..epochs {
        let mut rng = plan.epoch_rng(seed, epoch);
        for event in plan.events(epoch) {
            match event {
                ChurnEvent::Join => {
                    net.join(&mut rng);
                }
                ChurnEvent::Leave | ChurnEvent::Crash => {
                    let live: Vec<usize> = net.live_members().collect();
                    let victim = live[rng.gen_range(0..live.len())];
                    let _ = net.remove(victim);
                }
            }
            net.check_invariants().unwrap_or_else(|e| panic!("epoch {epoch}, {event:?}: {e}"));
        }
    }
}

/// Replays a plan's event stream onto a CAN tiling.
fn churn_can(net: &mut CanNet, plan: &ChurnPlan, seed: u64, epochs: u64) {
    for epoch in 0..epochs {
        let mut rng = plan.epoch_rng(seed, epoch);
        for event in plan.events(epoch) {
            match event {
                ChurnEvent::Join => {
                    net.join(&mut rng);
                }
                ChurnEvent::Leave => {
                    let live: Vec<usize> = net.live_zones().collect();
                    let victim = live[rng.gen_range(0..live.len())];
                    let _ = net.leave(victim);
                }
                ChurnEvent::Crash => {
                    let live: Vec<usize> = net.live_zones().collect();
                    let victim = live[rng.gen_range(0..live.len())];
                    let _ = net.crash(victim);
                }
            }
        }
    }
}

/// Replays a plan's event stream onto a FissionE cover.
fn churn_fissione(net: &mut FissioneNet, plan: &ChurnPlan, seed: u64, epochs: u64) {
    for epoch in 0..epochs {
        let mut rng = plan.epoch_rng(seed, epoch);
        for event in plan.events(epoch) {
            if event == ChurnEvent::Join {
                net.join(&mut rng);
                continue;
            }
            let live: Vec<usize> = net.live_peers().collect();
            let victim = live[rng.gen_range(0..live.len())];
            let _ = if event == ChurnEvent::Leave {
                net.leave(victim)
            } else {
                net.crash(victim).map(drop)
            };
        }
    }
}

/// `FissioneNet::stabilize` as it was before it kept a gap table, written
/// against the public API: every round re-derives every live peer's
/// neighbors, takes the first widest gap of two or more and the last
/// deepest leaf in PeerID order, and migrates — `leave` of a deepest leaf
/// is absorbed by its sibling, `split_leaf` hands the freed slot the
/// shallow peer's right child. Returns the number of migrations.
fn stabilize_by_full_scan(net: &mut FissioneNet) -> usize {
    let depth = |net: &FissioneNet, node: usize| net.peer(node).expect("live").depth();
    let mut migrations = 0;
    loop {
        let mut worst: Option<(usize, usize)> = None;
        for node in net.live_peers() {
            let deepest_nb = net.neighbors(node).into_iter().map(|n| depth(net, n)).max();
            let gap = deepest_nb.unwrap_or(0).saturating_sub(depth(net, node));
            if gap >= 2 && worst.is_none_or(|(widest, _)| gap > widest) {
                worst = Some((gap, node));
            }
        }
        let Some((_, shallow)) = worst else { return migrations };
        let deepest = net.live_peers().max_by_key(|&n| depth(net, n)).expect("non-empty");
        net.leave(deepest).expect("a deepest leaf below a violation can leave");
        net.split_leaf(shallow);
        migrations += 1;
    }
}

/// A minimal [`RangeScheme`] over a raw substrate: each query routes to
/// the owners of two index-derived keys, so hop counts — and with them the
/// whole [`DigestReport`] — are a function of the routing state under
/// test.
struct RouteProbe<D> {
    net: D,
    records: Vec<(f64, u64)>,
}

impl<D: Dht> RangeScheme for RouteProbe<D> {
    fn scheme_name(&self) -> &'static str {
        "route-probe"
    }

    fn substrate(&self) -> String {
        self.net.name().into()
    }

    fn degree(&self) -> String {
        "n/a".into()
    }

    fn node_count(&self) -> usize {
        Dht::node_count(&self.net)
    }

    fn publish(&mut self, value: f64, handle: u64) -> Result<(), SchemeError> {
        self.records.push((value, handle));
        Ok(())
    }

    fn random_origin(&self, rng: &mut armada_suite::rand::rngs::SmallRng) -> usize {
        self.net.random_node(rng)
    }

    fn range_query(
        &self,
        origin: usize,
        lo: f64,
        hi: f64,
        seed: u64,
    ) -> Result<RangeOutcome, SchemeError> {
        let key_lo = armada_suite::dht_api::fnv1a(&lo.to_bits().to_le_bytes()) ^ seed;
        let key_hi = armada_suite::dht_api::fnv1a(&hi.to_bits().to_le_bytes()) ^ seed;
        let mut routed = Vec::new();
        let unit = NetModel::unit();
        self.net.route_keys(
            origin,
            &[key_lo, key_hi],
            &unit,
            None,
            &mut QueryScratch::new(),
            &mut routed,
        );
        let &[(a, _), (b, _)] = routed.as_slice() else { unreachable!("one lookup per key") };
        let mut results: Vec<u64> =
            self.records.iter().filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h).collect();
        results.sort_unstable();
        results.dedup();
        let hops = (a.hops + b.hops) as u64;
        Ok(RangeOutcome {
            results,
            delay: a.hops.max(b.hops) as u64,
            latency: hops,
            messages: hops,
            dest_peers: 2,
            reached_peers: 2,
            exact: true,
        })
    }
}

fn probe_digest(net: impl Dht, seed: u64) -> DigestReport {
    let mut probe = RouteProbe { net, records: Vec::new() };
    let mut rng = simnet::rng_from_seed(seed ^ 0x9ec0);
    for h in 0..80u64 {
        probe.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).unwrap();
    }
    let workload = WorkloadGen::named("mixed", DOMAIN).unwrap();
    let driver = ParallelDriver { queries: 48, seed, threads: 4, shard_salt: 0, metrics: false };
    DigestReport::of(&driver.run(&probe, &workload).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn chord_incremental_fingers_equal_full_rebuild(seed in 0u64..10_000) {
        for plan_name in PLANS {
            let plan = ChurnPlan::named(plan_name).unwrap().with_rate(8);
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = ChordNet::build(96, &mut rng);
            churn_chord(&mut net, &plan, seed, 4);

            // Byte-identical routing state: the incremental slab is exactly
            // the from-scratch recomputation, dead rows included.
            let mut rebuilt = net.clone();
            rebuilt.refresh_all_fingers();
            prop_assert_eq!(
                net.finger_slab(),
                rebuilt.finger_slab(),
                "{}: slab diverged (seed {})", plan_name, seed
            );

            // And a driven query batch cannot tell the two apart.
            prop_assert_eq!(
                probe_digest(net, seed),
                probe_digest(rebuilt, seed),
                "{}: digest diverged (seed {})", plan_name, seed
            );
        }
    }

    #[test]
    fn fissione_incremental_stabilize_equals_full_scan(seed in 0u64..10_000) {
        let mut migrated = 0;
        for plan_name in PLANS {
            let plan = ChurnPlan::named(plan_name).unwrap().with_rate(24);
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = FissioneNet::build(FissioneConfig::default(), 160, &mut rng).unwrap();
            churn_fissione(&mut net, &plan, seed, 4);

            let mut reference = net.clone();
            let migrations = net.stabilize();
            prop_assert_eq!(
                migrations,
                stabilize_by_full_scan(&mut reference),
                "{}: migration count diverged (seed {})", plan_name, seed
            );
            migrated += migrations;
            net.check_invariants().map_err(|e| TestCaseError::fail(e.to_string()))?;

            // The same PeerID in every slot, dead ones included.
            let last = net.live_peers().chain(reference.live_peers()).max().unwrap();
            for node in 0..=last {
                prop_assert_eq!(
                    net.peer_id(node).ok(),
                    reference.peer_id(node).ok(),
                    "{}: slot {} diverged (seed {})", plan_name, node, seed
                );
            }

            // And a driven query batch cannot tell the two apart.
            prop_assert_eq!(
                probe_digest(net, seed),
                probe_digest(reference, seed),
                "{}: digest diverged (seed {})", plan_name, seed
            );
        }
        prop_assert!(migrated > 0, "seed {}: the plans left nothing to repair", seed);
    }

    #[test]
    fn can_incremental_adjacency_equals_full_rebuild(seed in 0u64..10_000) {
        for plan_name in PLANS {
            let plan = ChurnPlan::named(plan_name).unwrap().with_rate(8);
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = CanNet::build(CanConfig::default(), 64, &mut rng).unwrap();
            churn_can(&mut net, &plan, seed, 4);

            net.check_invariants().map_err(TestCaseError::fail)?;
            let mut rebuilt = net.clone();
            rebuilt.refresh_all_adjacency();
            for z in net.live_zones() {
                // List order is history-dependent (splits append to an
                // untouched neighbor's list); membership must be exact.
                let mut incremental = net.neighbors(z).to_vec();
                incremental.sort_unstable();
                prop_assert_eq!(
                    incremental,
                    rebuilt.neighbors(z).to_vec(),
                    "{}: zone {} adjacency diverged (seed {})", plan_name, z, seed
                );
            }
        }
    }
}
