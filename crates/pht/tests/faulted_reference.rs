//! PHT under a fault plan against a slow reference: every get routed alone
//! with the substrate's `route_fold` through a fresh verdict chain, round
//! by round, over the trie read back as a label map.

use dht_api::RangeScheme;
use dht_api::{
    BuildParams, Dht, DynamicScheme, OutcomeCosts, QueryCtx, RangeOutcome, RangeRequest,
};
use pht::{DynamicPhtScheme, Entry, Label, Pht, DEFAULT_WIDTH};
use proptest::prelude::*;
use rand::Rng;
use simnet::{FaultPlan, LossPlan, NetModel, NodeId, PartitionPlan, RateLimitPlan, Verdicts};
use std::collections::BTreeMap;

/// A substrate's own single route, folding `f(acc, src, dst)` over its
/// edges.
trait RouteAlone: Dht + DynamicScheme + Sized {
    fn route_alone<A>(
        &self,
        from: NodeId,
        key: u64,
        init: A,
        f: impl FnMut(A, NodeId, NodeId) -> A,
    ) -> (NodeId, A);
}

impl RouteAlone for chord::ChordNet {
    fn route_alone<A>(
        &self,
        from: NodeId,
        key: u64,
        init: A,
        f: impl FnMut(A, NodeId, NodeId) -> A,
    ) -> (NodeId, A) {
        self.route_fold(from, key, init, f)
    }
}

impl RouteAlone for fissione::FissioneNet {
    fn route_alone<A>(
        &self,
        from: NodeId,
        key: u64,
        init: A,
        f: impl FnMut(A, NodeId, NodeId) -> A,
    ) -> (NodeId, A) {
        self.route_fold(from, self.object_of_key(key), init, f).expect("a complete cover routes")
    }
}

/// The query as the PHT paper runs it, each get sent alone: a binary
/// search over the lcp's prefix lengths (an unanswered probe reads as a
/// missing node), then a parallel descent that loses the subtree of every
/// unanswered get. A round routes its requests, then rules their direct
/// responses, and costs its slowest answered get.
fn reference<D: RouteAlone>(
    pht: &Pht<D>,
    plan: &FaultPlan,
    seed: u64,
    from: NodeId,
    (lo, hi): (f64, f64),
) -> RangeOutcome {
    let w = DEFAULT_WIDTH;
    let nodes: BTreeMap<Label, Option<Vec<Entry>>> =
        pht.trie().map(|(label, entries)| (label, entries.map(<[_]>::to_vec))).collect();
    let net = *pht.net_model();
    let mut chain = Verdicts::new(plan, seed);
    let (a, b) = (pht.quantize(lo.min(hi)), pht.quantize(hi.max(lo)));
    let (mut delay, mut latency, mut messages) = (0u64, 0u64, 0u64);
    let mut round = |labels: &[Label]| -> Vec<bool> {
        let requests: Vec<(NodeId, u64, u64, bool)> = labels
            .iter()
            .map(|label| {
                let step = |(hops, lat, on): (u64, u64, bool), src, dst| {
                    if !on {
                        return (hops, lat, false);
                    }
                    match chain.rule(src, dst, true, &net, None) {
                        Some(queued) => (hops + 1, lat + queued + net.edge_cost(src, dst), true),
                        None => (hops + 1, lat, false),
                    }
                };
                let (owner, (hops, lat, on)) =
                    pht.dht().route_alone(from, label.dht_key(), (0, 0, true), step);
                (owner, hops, lat, on)
            })
            .collect();
        let (mut round_delay, mut round_latency) = (0, 0);
        let answered = requests
            .into_iter()
            .map(|(owner, hops, lat, arrived)| {
                messages += hops;
                if !arrived {
                    return false;
                }
                messages += 1;
                let Some(queued) = chain.rule(owner, from, owner != from, &net, None) else {
                    return false;
                };
                round_delay = round_delay.max(hops + 1);
                round_latency = round_latency.max(lat + net.edge_cost(owner, from) + queued);
                true
            })
            .collect();
        delay += round_delay;
        latency += round_latency;
        answered
    };

    let lcp_len = (a ^ b).leading_zeros().saturating_sub(32 - w);
    let lcp = (0..lcp_len).fold(Label::ROOT, |l, d| l.child((a >> (w - d - 1)) & 1));
    let (mut lo_len, mut hi_len) = (0u32, lcp_len);
    let mut start = Label::ROOT;
    while lo_len <= hi_len {
        let mid = (lo_len + hi_len).div_ceil(2);
        let probe = lcp.prefix(mid);
        if round(&[probe])[0] && nodes.contains_key(&probe) {
            start = probe;
            if mid == hi_len {
                break;
            }
            lo_len = mid;
        } else {
            if mid == 0 {
                break;
            }
            hi_len = mid - 1;
        }
    }
    let (mut results, mut reached) = (Vec::new(), 0);
    let mut frontier = vec![start];
    while !frontier.is_empty() {
        let answered = round(&frontier);
        let mut next = Vec::new();
        for (label, _) in frontier.iter().zip(answered).filter(|&(_, answered)| answered) {
            match &nodes[label] {
                Some(entries) => {
                    results.extend(
                        entries
                            .iter()
                            .filter(|&&(k, v, _)| k >= a && k <= b && v >= lo && v <= hi)
                            .map(|&(_, _, h)| h),
                    );
                    reached += usize::from(label.overlaps(w, a, b));
                }
                None => next.extend(
                    [label.child(0), label.child(1)].into_iter().filter(|c| c.overlaps(w, a, b)),
                ),
            }
        }
        frontier = next;
    }
    results.sort_unstable();
    let dest = nodes.iter().filter(|(l, e)| e.is_some() && l.overlaps(w, a, b)).count();
    let costs = OutcomeCosts { hops: delay, latency, messages };
    RangeOutcome::from_native(results, costs, dest, reached, reached == dest)
}

/// One random plan: each hostile family, the drop probability and a few
/// crashed live peers, each attached about half the time.
#[derive(Debug, Clone, Copy)]
struct Plan {
    seed: u64,
    loss: Option<(f64, u64)>,
    drop: f64,
    islands: Option<u64>,
    throttle: Option<(u64, u64)>,
    crashes: usize,
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    (
        any::<u64>(),
        (any::<bool>(), 0.02f64..0.3, prop_oneof![Just(1u64), 2u64..5]),
        prop_oneof![Just(0.0), 0.02f64..0.2],
        (any::<bool>(), 2u64..4),
        (any::<bool>(), 1u64..12, 1u64..6),
        0usize..4,
    )
        .prop_map(
            |(seed, (lossy, p, burst), drop, (split, islands), (throttled, b, d), crashes)| Plan {
                seed,
                loss: lossy.then_some((p, burst)),
                drop,
                islands: split.then_some(islands),
                throttle: throttled.then_some((b, d)),
                crashes,
            },
        )
}

impl Plan {
    /// The fault plan, its crashes drawn from `live` peers.
    fn build(&self, live: &[NodeId]) -> FaultPlan {
        let mut plan = FaultPlan::with_drop_prob(self.drop).with_plan_seed(self.seed);
        if let Some((p, burst)) = self.loss {
            plan = plan.with_loss(LossPlan::bursty(p, burst));
        }
        if let Some(islands) = self.islands {
            plan = plan.with_partition(PartitionPlan::new(islands, 1, 3));
            plan.set_epoch(1);
        }
        if let Some((burst, delay)) = self.throttle {
            plan = plan.with_rate_limit(RateLimitPlan::new(burst, delay));
        }
        let mut rng = simnet::rng_from_seed(self.seed);
        for _ in 0..self.crashes {
            plan.crash(live[rng.gen_range(0..live.len())]);
        }
        plan
    }
}

/// Loads `records` random records into `scheme`, then holds `queries`
/// random queries under `plan` against [`reference`], and a fault-free plan
/// against the plan-less query.
fn check<D: RouteAlone>(
    mut scheme: DynamicPhtScheme<D>,
    plan: Plan,
    seed: u64,
    records: u64,
) -> Result<(), TestCaseError> {
    let mut rng = simnet::rng_from_seed(seed);
    for h in 0..records {
        scheme.publish(rng.gen_range(0.0..=1000.0), h).expect("publish");
    }
    let live = scheme.inner().pht().dht().live_peers();
    let faults = plan.build(&live);
    let mut scratch = simnet::QueryScratch::new();
    for q in 0..6u64 {
        let lo: f64 = rng.gen_range(0.0..1000.0);
        let hi = (lo + rng.gen_range(0.0f64..400.0)).min(1000.0);
        let from = live[rng.gen_range(0..live.len())];
        let req = RangeRequest::new(from, lo, hi, q ^ seed).expect("well-formed");
        let cx = &mut QueryCtx::new(&mut scratch).with_faults(&faults);
        let got = scheme.query(&req, cx).expect("query runs");
        let want = reference(scheme.inner().pht(), &faults, q ^ seed, from, (lo, hi));
        prop_assert_eq!(&got, &want, "{:?}, query {} from {} on [{}, {}]", plan, q, from, lo, hi);
        let clean = FaultPlan::new();
        let cx = &mut QueryCtx::new(&mut scratch).with_faults(&clean);
        let fault_free = scheme.query(&req, cx).expect("query runs");
        prop_assert_eq!(
            fault_free,
            scheme.range_query(from, lo, hi, q ^ seed).expect("query runs")
        );
    }
    Ok(())
}

fn params(n: usize, wan: bool) -> BuildParams {
    let net = if wan { NetModel::wan() } else { NetModel::unit() };
    BuildParams::new(n, 0.0, 1000.0).with_object_id_len(24).with_net(net)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chord_faulted_queries_equal_the_reference(
        seed in any::<u64>(),
        n in 8usize..120,
        records in 0u64..300,
        wan in any::<bool>(),
        plan in plan_strategy(),
    ) {
        let p = params(n, wan);
        let dht = chord::ChordNet::build(n, &mut simnet::rng_from_seed(seed));
        check(DynamicPhtScheme::new(dht, &p, "pht-chord", String::new()), plan, seed, records)?;
    }

    #[test]
    fn fissione_faulted_queries_equal_the_reference(
        seed in any::<u64>(),
        n in 8usize..120,
        records in 0u64..300,
        wan in any::<bool>(),
        plan in plan_strategy(),
    ) {
        let p = params(n, wan);
        let cfg = fissione::FissioneConfig { object_id_len: 24, ..Default::default() };
        let dht = fissione::FissioneNet::build(cfg, n, &mut simnet::rng_from_seed(seed))
            .expect("the cover builds");
        check(DynamicPhtScheme::new(dht, &p, "pht-fissione", String::new()), plan, seed, records)?;
    }
}
