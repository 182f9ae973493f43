//! `Replicated`'s fetch phase against a slow reference, on every
//! `RangeOutcome` field.
//!
//! The reference follows the documented rule with nothing shared but the
//! inner scheme's primary answer and its `fetch_costs`: the expected answer
//! is a brute-force scan of the published records, the missing records are
//! expected minus results, and each is fetched in publish order from the
//! first of its successor-ring owners (the primary aside, minus every peer
//! the churn removed) that the fault plan has not crashed, with the plan's
//! drop draws taken from the query seed in that order; each fetch is priced
//! alone, as a batch of one holder. It runs PIRA (whose fetches are priced
//! over one route tree) and DCF-CAN (which prices one fetch at a time)
//! under loss and burst-loss plans, a plan with message drops and crashed
//! holders, and `massacre` churn left unstabilized; the records include a
//! handle published twice (and, on a second PIRA network, none), and the
//! whole-domain queries fetch more than 512 records at once.

use armada_suite::dht_api::{
    ring_owners, value_key, BuildParams, ChurnEvent, ChurnPlan, DynamicScheme, QueryCtx,
    RangeOutcome, RangeRequest, RangeScheme, ReplicaPolicy, Replicated, ReplicationControl,
};
use armada_suite::experiments::standard_registry;
use armada_suite::rand::Rng;
use simnet::{FaultPlan, NodeId, QueryScratch};
use std::collections::BTreeSet;

const DOMAIN: (f64, f64) = (0.0, 1000.0);
const N: usize = 300;
const RECORDS: u64 = 3000;

/// The salt the fetch phase mixes into the query seed for its drop draws.
const FETCH_SALT: u64 = 0xfe7c_fe7c_fe7c_fe7c;

/// A published network and what the reference knows of it: the records in
/// publish order, each one's replica owners at placement, and every peer
/// the churn has removed since.
struct Published {
    scheme: Replicated,
    records: Vec<(f64, u64)>,
    placed: Vec<Vec<NodeId>>,
    removed: BTreeSet<NodeId>,
}

/// `base` at [`N`] peers under successor-3 placement, with [`RECORDS`]
/// records, and handle 7 published a second time under another value if
/// `twice`.
fn build(base: &str, seed: u64, twice: bool) -> Published {
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(seed);
    let inner = standard_registry().build_single(base, &params, &mut rng).unwrap();
    let mut scheme = Replicated::new(inner, ReplicaPolicy::successor(3)).unwrap();
    let mut records: Vec<(f64, u64)> =
        (0..RECORDS).map(|h| (rng.gen_range(DOMAIN.0..=DOMAIN.1), h)).collect();
    if twice {
        records.push((records[7].0 / 2.0, 7));
    }
    let live = DynamicScheme::live_peers(&scheme);
    let owners = |&(value, _): &(f64, u64)| ring_owners(&live, value_key(value), 3)[1..].to_vec();
    let placed = records.iter().map(owners).collect();
    for &(value, handle) in &records {
        scheme.publish(value, handle).unwrap();
    }
    Published { scheme, records, placed, removed: BTreeSet::new() }
}

impl Published {
    /// Two epochs of `massacre` events (three crashes to a join), victims
    /// drawn from the live peers, and no `stabilize`.
    fn massacre(&mut self, seed: u64) {
        let plan = ChurnPlan::named("massacre").unwrap().with_rate(60);
        let mut rng = simnet::rng_from_seed(seed);
        for event in (0..2).flat_map(|epoch| plan.events(epoch)) {
            if event == ChurnEvent::Join {
                self.scheme.join(&mut rng).unwrap();
            } else {
                let live = DynamicScheme::live_peers(&self.scheme);
                let victim = live[rng.gen_range(0..live.len())];
                if self.scheme.crash(victim).is_ok() {
                    self.removed.insert(victim);
                }
            }
        }
    }

    /// What `Replicated::query` must answer for `req` under `faults`, and
    /// the number of fetches it sends.
    fn reference(&self, req: &RangeRequest, faults: Option<&FaultPlan>) -> (RangeOutcome, usize) {
        let mut scratch = QueryScratch::new();
        let mut cx = QueryCtx { scratch: &mut scratch, faults, trace: None };
        let mut out = self.scheme.inner().query(req, &mut cx).unwrap();
        let in_range = |value: f64| req.lo() <= value && value <= req.hi();
        let expected: BTreeSet<u64> =
            self.records.iter().filter(|r| in_range(r.0)).map(|r| r.1).collect();
        if out.results.iter().copied().eq(expected.iter().copied()) {
            return (out, 0);
        }
        let missing: BTreeSet<u64> =
            expected.iter().copied().filter(|h| !out.results.contains(h)).collect();
        let routing = self.scheme.inner().as_replica_routing().unwrap();
        let mut rng = simnet::rng_from_seed(req.seed() ^ FETCH_SALT);
        let (mut got, mut fetches, mut delay, mut latency) = (BTreeSet::new(), 0, 0, 0);
        for (record, &(value, handle)) in self.records.iter().enumerate() {
            if !in_range(value) || !missing.contains(&handle) || got.contains(&handle) {
                continue;
            }
            let serves = |node: &&NodeId| {
                !self.removed.contains(node) && faults.is_none_or(|plan| !plan.is_crashed(**node))
            };
            let Some(&holder) = self.placed[record].iter().find(serves) else { continue };
            let drop_prob = faults.map_or(0.0, FaultPlan::drop_prob);
            if drop_prob == 0.0 || rng.gen::<f64>() >= drop_prob {
                got.insert(handle);
            }
            let mut cost = Vec::new();
            routing.fetch_costs(req.origin(), &[holder], &mut QueryScratch::new(), &mut cost);
            let cost = cost[0];
            fetches += 1;
            delay = delay.max(cost.hops);
            latency = latency.max(cost.latency);
            out.messages += cost.messages;
        }
        out.delay += delay;
        out.latency += latency;
        if got.is_empty() {
            return (out, fetches);
        }
        out.results.extend(&got);
        out.results.sort_unstable();
        out.results.dedup();
        out.exact = out.results.iter().copied().eq(expected.iter().copied());
        if out.exact {
            out.reached_peers = out.dest_peers;
        } else {
            let gap = out.dest_peers.saturating_sub(out.reached_peers);
            let gain = gap * got.len() / missing.len();
            out.reached_peers = (out.reached_peers + gain)
                .min(out.dest_peers.saturating_sub(1))
                .max(out.reached_peers);
        }
        (out, fetches)
    }

    /// Runs 30 ranges (every tenth the whole domain) from random live
    /// origins under `faults`, each against the reference; returns the
    /// most fetches one query sent.
    fn assert_matches_reference(&self, faults: Option<&FaultPlan>, seed: u64) -> usize {
        let mut rng = simnet::rng_from_seed(seed);
        let mut scratch = QueryScratch::new();
        let mut widest = 0;
        for q in 0..30u64 {
            let (lo, hi) = if q % 10 == 0 {
                DOMAIN
            } else {
                let lo = rng.gen_range(DOMAIN.0..DOMAIN.1);
                (lo, (lo + rng.gen_range(1.0..300.0f64)).min(DOMAIN.1))
            };
            let origin = self.scheme.random_origin(&mut rng);
            let req = RangeRequest::new(origin, lo, hi, seed ^ q).unwrap();
            let mut cx = QueryCtx { scratch: &mut scratch, faults, trace: None };
            let got = self.scheme.query(&req, &mut cx).unwrap();
            let (want, fetches) = self.reference(&req, faults);
            let label = self.scheme.label();
            assert_eq!(got, want, "{label} query {q} [{lo}, {hi}] from {origin}");
            widest = widest.max(fetches);
        }
        widest
    }

    /// A plan dropping 40 % of messages and crashing every fifth live
    /// peer.
    fn drops_and_crashes(&self) -> FaultPlan {
        let mut plan = FaultPlan::with_drop_prob(0.4);
        for &peer in DynamicScheme::live_peers(&self.scheme).iter().step_by(5) {
            plan.crash(peer);
        }
        plan
    }
}

#[test]
fn the_fetch_phase_equals_the_slow_reference() {
    let cells = [("pira", 4301, true), ("dcf-can", 4302, true), ("pira", 4303, false)];
    for (base, seed, twice) in cells {
        let mut net = build(base, seed, twice);
        let mut widest = 0;
        for name in ["lossy-p", "bursty"] {
            let plan = FaultPlan::named_hostile(name).unwrap();
            widest = widest.max(net.assert_matches_reference(Some(&plan), seed));
        }
        let plan = net.drops_and_crashes();
        widest = widest.max(net.assert_matches_reference(Some(&plan), seed + 1));
        assert!(widest > 512, "{base}: no query fetched past the old batch edge ({widest})");
        // Crash churn, never stabilized: the evicted copies are gone, the
        // primaries of crashed peers too.
        net.massacre(seed);
        assert!(net.removed.len() > N / 5, "{base}: the massacre spared the network");
        net.assert_matches_reference(None, seed + 2);
        let plan = FaultPlan::named_hostile("lossy-p").unwrap();
        net.assert_matches_reference(Some(&plan), seed + 3);
        let plan = net.drops_and_crashes();
        net.assert_matches_reference(Some(&plan), seed + 4);
    }
}
