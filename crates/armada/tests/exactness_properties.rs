//! Property tests: PIRA/MIRA exactness and delay bounds over randomly grown
//! networks, random data and random queries — the core claims of the paper.

mod frt;

use armada::{Armada, MultiArmada, QueryOutcome, RecordId, SingleArmada};
use fissione::{FissioneConfig, FissioneNet};
use frt::ForwardRoutingTree;
use kautz::naming::Naming;
use kautz::{KautzRegion, KautzStr};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use simnet::{FaultPlan, NodeId, TraceEvent, TraceRecord};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

fn small_cfg() -> FissioneConfig {
    FissioneConfig { object_id_len: 24, ..FissioneConfig::default() }
}

/// The peers whose PeerID meets the Kautz region of `[lo, hi]`, by a scan
/// of every live peer (the paper's "Destpeers").
fn peers_meeting(a: &SingleArmada, lo: f64, hi: f64) -> BTreeSet<NodeId> {
    let region = a.naming().region(lo, hi).unwrap();
    let net = a.net();
    net.live_peers().filter(|&n| region.intersects_prefix(net.peer_id(n).unwrap())).collect()
}

/// A PIRA and a MIRA system of `n` peers each, then the joins and leaves
/// `churn` draws (three joins to two leaves, as in
/// `fissione/tests/churn_properties.rs`), stabilized or left as they fell;
/// and the generator, for drawing what comes next.
fn grown(
    seed: u64,
    n: usize,
    churn: &[usize],
    stabilize: bool,
) -> (SingleArmada, MultiArmada, SmallRng) {
    let mut rng = simnet::rng_from_seed(seed);
    let mut a = SingleArmada::build_with(small_cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
    let mut m = MultiArmada::build_with(small_cfg(), n, &[(0.0, 1000.0); 2], &mut rng).unwrap();
    for net in [a.net_mut(), m.net_mut()] {
        for &raw in churn {
            if raw % 5 < 3 {
                net.join(&mut rng);
            } else {
                let peers: Vec<_> = net.live_peers().collect();
                let _ = net.leave(peers[raw / 5 % peers.len()]);
            }
        }
        if stabilize {
            net.stabilize();
        }
    }
    (a, m, rng)
}

/// What a descent did: each delivery `(node, hop, answers)` with its
/// multiplicity, the messages sent, and each answering peer's first hop.
#[derive(Debug, Default, PartialEq)]
struct Deliveries {
    deliveries: BTreeMap<(NodeId, u32, bool), usize>,
    messages: u64,
    first_answer: BTreeMap<NodeId, u32>,
}

impl Deliveries {
    fn deliver(&mut self, node: NodeId, hop: u32, answers: bool) {
        *self.deliveries.entry((node, hop, answers)).or_default() += 1;
        if answers {
            let first = self.first_answer.entry(node).or_insert(hop);
            *first = hop.min(*first);
        }
    }

    /// The deliveries of a traced fault-free query: a delivery answers iff
    /// its handler's `Answer` event follows it.
    fn of_trace(out: &QueryOutcome, trace: &[TraceRecord]) -> Self {
        let mut seen = Deliveries { messages: out.metrics.messages, ..Deliveries::default() };
        for (i, record) in trace.iter().enumerate() {
            if let TraceEvent::Delivery { node, hop, .. } = record.event {
                let answers = match trace.get(i + 1).map(|r| &r.event) {
                    Some(&TraceEvent::Answer { node: n, hop: h, .. }) => (n, h) == (node, hop),
                    _ => false,
                };
                seen.deliver(node, hop, answers);
            }
        }
        seen
    }
}

/// The descent of §4.2 on strings, breadth first, as the reference
/// `descent::query` is held to: the region split by its first symbols, each
/// sub-query from `origin` with `ComS` its longest suffix prefixing `ComT`
/// and `|origin| − |ComS|` levels to go; a peer holding `d` levels answers
/// iff its PeerID meets the sub-region (under a rectangle, its zone meets
/// the rectangle) and forwards to an out-neighbor `C` iff
/// [`KautzRegion::intersects_prefix_parts`]`(ComS, C.id[|ComS|+d−1..])`,
/// with both of its fallbacks (and under a rectangle, the prefix's
/// hyper-rectangle meets it too).
fn string_descent<N: Naming>(
    armada: &Armada<N>,
    origin: NodeId,
    rect: &[(f64, f64)],
) -> Deliveries {
    let net = armada.net();
    let ((low, high), scaled) = armada.naming().query_region(rect).unwrap();
    let region = KautzRegion::new(low.decode().unwrap(), high.decode().unwrap()).unwrap();
    let origin_id = net.peer_id(origin).unwrap();
    let mut subs = Vec::new();
    let mut queue = VecDeque::new();
    for sub in region.split_by_common_prefix() {
        let f = origin_id.longest_suffix_prefix(&sub.common_prefix());
        queue.push_back((subs.len(), origin, origin_id.len() - f, 0u32));
        subs.push((sub.common_prefix().take_front(f), sub));
    }
    let (mut zone, mut prefix) = (Vec::new(), KautzStr::empty());
    let mut seen = Deliveries::default();
    while let Some((s, node, d, hop)) = queue.pop_front() {
        let (com_s, sub) = &subs[s];
        let id = net.peer_id(node).unwrap();
        let answers = match &scaled {
            None => sub.intersects_prefix(id),
            Some(rect) => rect.meets_prefix(id, &mut zone),
        };
        seen.deliver(node, hop, answers);
        if d == 0 {
            continue;
        }
        let strip = com_s.len() + d - 1;
        for c in net.out_neighbors(node) {
            let tail = net.peer_id(c).unwrap().symbols().get(strip..).unwrap_or(&[]);
            let forwards = sub.intersects_prefix_parts(com_s, tail)
                && scaled.as_ref().is_none_or(|rect| {
                    // A junction that repeats a symbol leaves `ComS` alone.
                    prefix.assign_concat(com_s, tail);
                    rect.meets_prefix(&prefix, &mut zone)
                });
            if forwards {
                seen.messages += 1;
                queue.push_back((s, c, d - 1, hop + 1));
            }
        }
    }
    seen
}

/// The records in `rect` whose owner answered in `seen`.
fn held_by_answering<N: Naming>(
    armada: &Armada<N>,
    rect: &[(f64, f64)],
    seen: &Deliveries,
) -> Vec<RecordId> {
    let net = armada.net();
    (0..armada.record_count() as u64)
        .map(RecordId)
        .filter(|&r| armada.point(r).iter().zip(rect).all(|(v, (lo, hi))| lo <= v && v <= hi))
        .filter(|&r| {
            let id = armada.naming().point_id(armada.point(r)).unwrap().decode().unwrap();
            seen.first_answer.contains_key(&net.owner_of(&id).unwrap())
        })
        .collect()
}

/// One traced `descent::query` against [`string_descent`]: the multiset
/// of deliveries, the messages, the delay, the destinations and the
/// results.
fn check_against_the_strings<N: Naming>(
    armada: &Armada<N>,
    origin: NodeId,
    rect: &[(f64, f64)],
    dest_peers: usize,
) -> Result<(), TestCaseError> {
    let mut scratch = simnet::QueryScratch::new();
    let (out, trace) =
        armada::descent::query(armada, origin, rect, 7, None, true, &mut scratch).unwrap();
    let want = string_descent(armada, origin, rect);
    prop_assert_eq!(
        &Deliveries::of_trace(&out, &trace.unwrap()),
        &want,
        "{:?} from {}",
        rect,
        origin
    );
    prop_assert_eq!(out.metrics.delay, want.first_answer.values().copied().max().unwrap_or(0));
    prop_assert_eq!(out.metrics.dest_peers, dest_peers);
    prop_assert_eq!(out.results, held_by_answering(armada, rect, &want));
    Ok(())
}

/// The trace-level oracle of one traced descent from `origin`: every answer
/// comes from a ground-truth peer and every such peer answers, the deepest
/// hop at which a peer first answers is the reported delay (on a cover that
/// violates the neighborhood invariant a peer can be reached twice), and —
/// where `levels` says the cover keeps that invariant — every delivery at
/// hop `h` lands in level `h` of the origin's explicitly built forward
/// routing tree.
fn check_against_the_frt(
    net: &FissioneNet,
    origin: NodeId,
    (out, trace): &(QueryOutcome, Option<Vec<TraceRecord>>),
    truth: &BTreeSet<NodeId>,
    levels: bool,
) -> Result<(), TestCaseError> {
    let frt = ForwardRoutingTree::build(net, origin);
    let mut first_answer = BTreeMap::new();
    for record in trace.as_ref().expect("the query was traced") {
        match record.event {
            TraceEvent::Delivery { node, hop, .. } if levels => {
                let level = frt.level(hop as usize);
                prop_assert!(level.contains(&node), "peer {} delivered at hop {}", node, hop);
            }
            TraceEvent::Answer { node, hop, .. } => {
                let first = first_answer.entry(node).or_insert(hop);
                *first = hop.min(*first);
            }
            _ => {}
        }
    }
    prop_assert_eq!(&first_answer.keys().copied().collect::<BTreeSet<_>>(), truth);
    prop_assert_eq!(first_answer.values().max(), Some(&out.metrics.delay));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn traced_descents_follow_the_forward_routing_tree(
        seed in 0u64..10_000,
        n in 12usize..160,
        churn in prop::collection::vec(any::<usize>(), 0..60),
        stabilize in any::<bool>(),
        q in 0f64..1.0, w in 0f64..1.0,
    ) {
        // Built networks (no churn), and the joins and leaves of
        // `fissione/tests/churn_properties.rs`, stabilized or left as they
        // fell. On a cover that was churned and not stabilized a descent may
        // deliver to a peer whose PeerID is *shorter* than its level's
        // anchor `u_{h+1}…u_b` — it owns the anchor's subtree without
        // extending it, so `peers_with_prefix`, and with it the tree's
        // level, rightly excludes it: only the answers and the delay are
        // asserted there.
        let (a, m, mut rng) = grown(seed, n, &churn, stabilize);
        let levels = churn.is_empty() || stabilize;
        let (lo, hi) = (q * 1000.0, (q + w * (1.0 - q)).min(1.0) * 1000.0);
        let mut scratch = simnet::QueryScratch::new();

        let origin = a.net().random_peer(&mut rng);
        let run = armada::descent::query(&a, origin, &[(lo, hi)], seed, None, true, &mut scratch).unwrap();
        let truth = peers_meeting(&a, lo, hi);
        check_against_the_frt(a.net(), origin, &run, &truth, levels)?;

        let origin = m.net().random_peer(&mut rng);
        // A thinner second side, so that the corner region bounds the
        // rectangle loosely and MIRA has subtrees to cut.
        let rect = [(lo, hi), (lo, lo + (hi - lo) / 8.0)];
        let run = armada::descent::query(&m, origin, &rect, seed, None, true, &mut scratch).unwrap();
        let truth = m.ground_truth_peers(&rect).unwrap();
        check_against_the_frt(m.net(), origin, &run, &truth, levels)?;
    }

    #[test]
    fn pira_exact_for_any_network_and_query(
        seed in 0u64..10_000,
        n in 10usize..220,
        records in 0usize..200,
        lo_frac in 0f64..1.0,
        size_frac in 0f64..1.0,
    ) {
        let mut rng = simnet::rng_from_seed(seed);
        let mut a = SingleArmada::build_with(small_cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
        for _ in 0..records {
            let v: f64 = rng.gen_range(0.0..=1000.0);
            a.publish(v);
        }
        let lo = lo_frac * 1000.0;
        let hi = (lo + size_frac * (1000.0 - lo)).min(1000.0);
        let origin = a.net().random_peer(&mut rng);
        let out = a.pira_query(origin, lo, hi, seed).unwrap();
        prop_assert!(out.metrics.exact, "missed peers for [{}, {}]", lo, hi);
        prop_assert_eq!(out.results, a.expected_results(lo, hi));
        // Delay bound: never more than the origin's depth, hence < 2 log2 N
        // whenever the balance invariant holds (checked separately).
        let b = a.net().peer(origin).unwrap().depth() as u32;
        prop_assert!(out.metrics.delay <= b);
    }

    #[test]
    fn pira_message_cost_close_to_lower_bound(
        seed in 0u64..10_000,
        n in 64usize..256,
    ) {
        // Lower bound: O(logN) + n − 1 messages. Check messages ≥ destpeers − 1
        // (reaching k peers needs at least k−1 sends beyond the first) and
        // messages ≤ 4·(logN + 2·destpeers) (generous upper envelope of the
        // paper's logN + 2n − 2 average).
        let mut rng = simnet::rng_from_seed(seed);
        let a = SingleArmada::build_with(small_cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
        let origin = a.net().random_peer(&mut rng);
        let lo: f64 = rng.gen_range(0.0..500.0);
        let out = a.pira_query(origin, lo, lo + 250.0, seed).unwrap();
        let log_n = (n as f64).log2();
        let n_dest = out.metrics.dest_peers as f64;
        prop_assert!(out.metrics.messages as f64 >= n_dest - 1.0);
        prop_assert!(
            (out.metrics.messages as f64) <= 4.0 * (log_n + 2.0 * n_dest),
            "messages {} for {} destinations at N={}",
            out.metrics.messages, n_dest, n
        );
    }

    #[test]
    fn mira_exact_for_any_network_and_query(
        seed in 0u64..10_000,
        n in 10usize..160,
        records in 0usize..120,
        q0 in 0f64..1.0, w0 in 0f64..1.0,
        q1 in 0f64..1.0, w1 in 0f64..1.0,
        shape in 0usize..4, d in 0u32..6,
    ) {
        let mut rng = simnet::rng_from_seed(seed);
        let mut m = MultiArmada::build_with(
            small_cfg(), n, &[(0.0, 50.0), (0.0, 200.0)], &mut rng,
        ).unwrap();
        for _ in 0..records {
            let p = [rng.gen_range(0.0..=50.0), rng.gen_range(0.0..=200.0)];
            m.publish(&p).unwrap();
        }
        // A quarter of the rectangles have every endpoint on a partition
        // boundary `j·|D|/(3·2^d)` (or, for a third that no float is, on the
        // float next to it), a quarter are single points.
        let cells = f64::from(3u32 << d);
        let snap = |frac: f64| if shape == 0 { (frac * cells).round() / cells } else { frac };
        let side = |q: f64, w: f64, size: f64| {
            let lo = snap(q);
            let hi = if shape == 1 { lo } else { snap(q + w * (1.0 - q)).min(1.0) };
            (lo * size, hi * size)
        };
        let query = [side(q0, w0, 50.0), side(q1, w1, 200.0)];
        let origin = m.net().random_peer(&mut rng);
        let mut scratch = simnet::QueryScratch::new();
        let (out, _) =
            armada::descent::query(&m, origin, &query, seed, None, false, &mut scratch).unwrap();
        prop_assert!(out.metrics.exact, "missed peers for {:?}", query);
        // The destinations MIRA counts — the matching peers of the corner
        // region's run — are the ones a scan of every peer finds.
        prop_assert_eq!(out.metrics.dest_peers, m.ground_truth_peers(&query).unwrap().len());
        prop_assert_eq!(out.results, m.expected_results(&query));
        let b = m.net().peer(origin).unwrap().depth() as u32;
        prop_assert!(out.metrics.delay <= b);
    }

    #[test]
    fn pira_returns_a_record_iff_its_owner_answered(
        seed in 0u64..10_000,
        n in 10usize..220,
        records in 1usize..200,
        lo_frac in 0f64..1.0,
        size_frac in 0f64..1.0,
        drop_prob in 0f64..0.4,
    ) {
        // The gather after the run ≡ one read per answering peer ≡ brute
        // force over the record table, when some destinations never answer:
        // every other one has crashed, and any message may be dropped.
        let mut rng = simnet::rng_from_seed(seed);
        let mut a = SingleArmada::build_with(small_cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
        for _ in 0..records {
            let v: f64 = rng.gen_range(0.0..=1000.0);
            a.publish(v);
        }
        let lo = lo_frac * 1000.0;
        let hi = (lo + size_frac * (1000.0 - lo)).min(1000.0);
        let origin = a.net().random_peer(&mut rng);
        let (low, high) = a.naming().region_keys(lo, hi).unwrap();
        let table = a.net().route_table();
        let due: Vec<NodeId> = table.run(low, high).unwrap().map(|r| table.node(r)).collect();
        let mut faults = FaultPlan::with_drop_prob(drop_prob);
        let crashed: Vec<_> = due.iter().copied().step_by(2).filter(|&p| p != origin).collect();
        crashed.iter().for_each(|&p| faults.crash(p));

        let mut scratch = simnet::QueryScratch::new();
        let (out, trace) =
            armada::descent::query(&a, origin, &[(lo, hi)], seed, Some(&faults), true, &mut scratch)
                .unwrap();
        let answered: BTreeSet<_> = trace
            .unwrap()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Answer { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        prop_assert_eq!(answered.len(), out.metrics.reached_peers);
        prop_assert!(crashed.iter().all(|p| !answered.contains(p)));
        prop_assert_eq!(out.metrics.exact, answered.len() == due.len());

        let wanted = |r: &RecordId| (lo..=hi).contains(&a.value(*r));
        let stretch = |p| {
            let key = table.key(table.rank(p).unwrap());
            a.net().entries_in_stretch((key, key), low, high).iter().map(|&(_, h)| h)
        };
        let per_peer: BTreeSet<RecordId> = answered
            .iter()
            .flat_map(|&p| stretch(p))
            .map(RecordId)
            .filter(wanted)
            .collect();
        let brute: Vec<RecordId> = (0..records as u64)
            .map(RecordId)
            .filter(wanted)
            .filter(|&r| {
                let owner = a.net().owner_of(&a.naming().object_id(a.value(r))).unwrap();
                answered.contains(&owner)
            })
            .collect();
        prop_assert_eq!(&out.results, &brute);
        prop_assert_eq!(out.results, per_peer.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn pira_exact_under_churned_networks(
        seed in 0u64..10_000,
        n in 24usize..120,
        churn in 0usize..40,
    ) {
        // Queries stay exact after interleaved joins and leaves (the cover
        // invariant, not freshness of balance, is what exactness needs).
        let mut rng = simnet::rng_from_seed(seed);
        let mut a = SingleArmada::build_with(small_cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
        for i in 0..200 {
            a.publish((i as f64) * 5.0);
        }
        for _ in 0..churn {
            let victim = a.net().random_peer(&mut rng);
            let _ = a.net_mut().leave(victim);
            a.net_mut().join(&mut rng);
        }
        a.net().check_invariants().unwrap();
        let origin = a.net().random_peer(&mut rng);
        let lo: f64 = rng.gen_range(0.0..800.0);
        let out = a.pira_query(origin, lo, lo + 150.0, seed).unwrap();
        prop_assert!(out.metrics.exact);
        prop_assert_eq!(out.results, a.expected_results(lo, lo + 150.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn descents_equal_the_string_reference(
        seed in 0u64..10_000,
        n in 12usize..160,
        churn in prop::collection::vec(any::<usize>(), 0..60),
        stabilize in any::<bool>(),
        q in 0f64..1.0, w in 0f64..1.0,
    ) {
        // The networks of `traced_descents_follow_the_forward_routing_tree`,
        // on which the key-space descent, which tests the region only on its
        // boundary paths, must do what the string descent does, message for
        // message. Below an inside peer, a child shorter than the peer's
        // shift occurs only on a churned cover left unstabilized (it
        // violates the neighborhood invariant), and matters only below some
        // queries: a cover gets four, and the property many cases.
        let (mut a, mut m, mut rng) = grown(seed, n, &churn, stabilize);
        for _ in 0..80 {
            a.publish(rng.gen_range(0.0..=1000.0));
            m.publish(&[rng.gen_range(0.0..=1000.0), rng.gen_range(0.0..=1000.0)]).unwrap();
        }
        for i in 0..4 {
            let (q, w) =
                if i == 0 { (q, w) } else { (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)) };
            let (lo, hi) = (q * 1000.0, (q + w * (1.0 - q)).min(1.0) * 1000.0);
            let origin = a.net().random_peer(&mut rng);
            check_against_the_strings(&a, origin, &[(lo, hi)], peers_meeting(&a, lo, hi).len())?;
            let origin = m.net().random_peer(&mut rng);
            let rect = [(lo, hi), (lo, lo + (hi - lo) / 8.0)];
            let dest_peers = m.ground_truth_peers(&rect).unwrap().len();
            check_against_the_strings(&m, origin, &rect, dest_peers)?;
        }
    }
}
