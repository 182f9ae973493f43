//! PIRA — the PrunIng Routing Algorithm for single-attribute range queries
//! (§4.2).
//!
//! A query `[lo, hi]` maps to the Kautz region `⟨LowT, HighT⟩` via
//! `Single_hash`; if its endpoints share no prefix it splits into at most
//! three sub-regions that do (the paper's rule). Each sub-query descends the
//! origin's forward routing tree as a message
//! `(low, high, f, hops_left)`:
//!
//! * `f = |ComS|` where `ComS` is the longest string that is both a prefix
//!   of the sub-region's common prefix and a suffix of the origin's PeerID;
//! * a peer holding the message with `d = hops_left` covers — at the
//!   destination level — exactly the strings prefixed by
//!   `ComS ++ id[(f+d)..]`, so it forwards to an out-neighbor `C` iff the
//!   sub-region contains a string prefixed by `ComS ++ C.id[(f+d−1)..]`;
//! * any visited peer whose own region intersects the sub-region answers
//!   from local storage (at the destination level `d = 0` that is every
//!   reached peer; answering along the way additionally keeps the algorithm
//!   exact on covers that violate the neighborhood invariant).
//!
//! The message handler only *marks* the answer. The records are read after
//! the run, by [`gather`]: the destination peers sorted by PeerID tile the
//! query's ObjectID range, so what the peers that answered hold is one
//! ordered pass over one run of the network's object table, not a scan per
//! peer. The result set is sorted either way, so the order in which the
//! records were read is unobservable.
//!
//! Delay is bounded by `hops_left ≤ len(origin.id)` regardless of the range
//! size: `< 2·log₂N` worst case, `< log₂N` on average — the paper's
//! headline result.

use crate::engine::descent_budget;
use crate::{ArmadaError, QueryMetrics, QueryOutcome, RecordId, SingleArmada};
use fissione::{KeyRegion, ObjectKey};
use kautz::KautzRegion;
use simnet::{Answers, Envelope, FaultPlan, NodeId, QueryScratch, Sim, SimScratch};

/// One in-flight PIRA sub-query message — `Copy`, so forwarding a message
/// down the routing tree moves twenty-four bytes instead of cloning two
/// Kautz strings per hop. The sub-region lives once per sub-query in
/// [`PiraScratch::subs`], indexed by `sub`.
#[derive(Debug, Clone, Copy)]
struct PiraMsg {
    /// Index into the per-query sub-region table.
    sub: u8,
    /// `|ComS|` for this sub-query.
    f: usize,
    /// Remaining descent levels.
    hops_left: usize,
}

/// PIRA's reusable per-thread state, slotted into a [`QueryScratch`]: the
/// simulator's collections plus the routing loop's working buffers. Every
/// field is reset at query start, so reuse is invisible to results,
/// metrics, and traces.
#[derive(Default)]
struct PiraScratch {
    sim: SimScratch<PiraMsg>,
    /// The sub-regions `⟨low, high⟩` in key space; `ComS` is the first `f`
    /// symbols of `low`.
    subs: Vec<KeyRegion>,
    arrivals: Vec<(NodeId, u64)>,
    answers: Answers<RecordId>,
}

/// Executes a PIRA range query; see the module docs. The engine's one
/// full-surface entry point: an optional fault plan (drops, crashes, the
/// hostile families), an optional trace, the caller's scratch.
///
/// Every peer forwards from its own row of the network's
/// [`RouteTable`](fissione::RouteTable) and prunes in key space
/// ([`KeyRegion`]): a delivery touches no ordered map and compares no
/// strings.
///
/// With `trace` set the simulator's sink is attached and the full
/// virtual-time event stream (hops, fault verdicts, deliveries, answers)
/// comes back beside the outcome. The outcome is bitwise identical either
/// way — tracing reads the schedule, it never perturbs it — and for any
/// scratch, fresh or reused.
///
/// # Errors
///
/// Returns [`ArmadaError::BadOrigin`] for dead origins and naming errors for
/// empty ranges.
#[allow(clippy::too_many_arguments)]
pub fn query(
    armada: &SingleArmada,
    origin: NodeId,
    lo: f64,
    hi: f64,
    seed: u64,
    faults: Option<&FaultPlan>,
    trace: bool,
    scratch: &mut QueryScratch,
) -> Result<(QueryOutcome, Option<Vec<simnet::TraceRecord>>), ArmadaError> {
    let net = armada.net();
    if !net.is_live(origin) {
        return Err(ArmadaError::BadOrigin { origin });
    }
    let region = armada.naming().region(lo, hi)?;
    let truth = net.peers_intersecting_range(region.low(), region.high())?;
    let origin_id = net.peer_id(origin)?;
    let table = net.route_table();

    let PiraScratch { sim: sim_scratch, subs, arrivals, answers } = scratch.slot::<PiraScratch>();
    let mut sim: Sim<PiraMsg> = Sim::from_scratch(seed, sim_scratch).with_net(*armada.net_model());
    if let Some(faults) = faults {
        sim = sim.with_faults_ref(faults);
    }
    if trace {
        sim = sim.with_trace(simnet::TraceSink::new());
    }
    subs.clear();
    for sub in region.split_by_common_prefix() {
        let (f, hops_left) = descent_budget(origin_id, &sub.common_prefix());
        sim.send(origin, origin, 0, PiraMsg { sub: subs.len() as u8, f, hops_left });
        subs.push(KeyRegion::new(&sub));
    }

    answers.begin(table.node_bound(), &truth);
    // Flat arrival log, one entry per qualifying delivery; the sorted
    // post-pass (`last_first_arrival`) reduces it to the min cost per peer
    // and the max over peers — independent of delivery order (scheduling
    // stays on unit ticks; the cost model rides along in the envelopes).
    arrivals.clear();
    let mut delay: u32 = 0;
    sim.run(|sim, env: Envelope<PiraMsg>| {
        let node = env.to;
        let key = table.key(node);
        let sub = &subs[env.payload.sub as usize];

        // Local answer: this peer's region intersects the sub-region. It
        // is marked once however many sub-regions the peer straddles; what
        // it holds is read after the run, against the *full* query.
        if sub.intersects(key) {
            arrivals.push((node, env.cost));
            sim.trace_answer(&env);
            if answers.first_answer(node) {
                delay = delay.max(env.hop);
            }
        }

        // Pruned descent: forward to an out-neighbor `C` iff the sub-region
        // meets `ComS ++ C.id[strip..]`, C's subtree prefix at the
        // destination level. Children shorter than the transit prefix
        // (possible only when the neighborhood invariant is violated)
        // degrade to the never-prune test `ComS`, as a repeated junction
        // symbol does.
        let d = env.payload.hops_left;
        if d > 0 {
            let f = env.payload.f;
            let strip = f + d - 1; // transit-prefix length at the children
            for c in table.out(node) {
                if sub.intersects_subtree(f, table.key(c), strip) {
                    sim.forward(&env, c, PiraMsg { sub: env.payload.sub, f, hops_left: d - 1 });
                }
            }
        }
    });

    // Critical path in virtual ms: the query completes when the last
    // destination first learns of it.
    let latency = simnet::last_first_arrival(arrivals);
    let records = sim.take_trace().map(simnet::TraceSink::into_records);
    let messages = sim.stats().messages_sent;
    sim.recycle(sim_scratch);
    gather(armada, &region, &truth, (lo, hi), answers);
    Ok((
        QueryOutcome {
            results: answers.results(),
            metrics: QueryMetrics {
                delay,
                latency,
                messages,
                dest_peers: truth.len(),
                reached_peers: answers.reached(),
                exact: answers.exact(),
            },
        },
        records,
    ))
}

/// Hands `answers` the records of `[lo, hi]` held by the peers that answered.
///
/// `run` is the query's destination run — the peers whose regions meet
/// `region`, in PeerID order — so its key intervals tile `region` in table
/// order: one seek at `region.low()`, then the table iterator and the run
/// cursor advance together. A peer outside the run stores nothing inside
/// the region, so whether a stray answered changes nothing here.
///
/// # Panics
///
/// Panics if `run` stops short of the peer that owns `region.high()`.
pub fn gather(
    armada: &SingleArmada,
    region: &KautzRegion,
    run: &[NodeId],
    (lo, hi): (f64, f64),
    answers: &mut Answers<RecordId>,
) {
    let net = armada.net();
    let table = net.route_table();
    let mut run = run.iter();
    // The last key of the current peer's interval, and whether it answered;
    // the first entry moves off `MIN` onto the run's first peer.
    let (mut last, mut answered) = (ObjectKey::MIN, false);
    for (key, handle) in net.objects_in_range(region.low(), region.high()) {
        while key > last {
            let &node = run.next().expect("the destination run covers the region");
            last = *table.key(node).interval().end();
            answered = answers.answered(node);
        }
        let record = RecordId(handle);
        if answered && (lo..=hi).contains(&armada.value(record)) {
            answers.push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{QueryOutcome, SingleArmada};
    use fissione::FissioneConfig;
    use rand::Rng;
    use simnet::{FaultPlan, TraceRecord};

    /// One query through the full-surface entry point with a fresh scratch.
    fn query(
        a: &SingleArmada,
        (origin, lo, hi, seed): (usize, f64, f64, u64),
        faults: Option<&FaultPlan>,
        trace: bool,
    ) -> (QueryOutcome, Vec<TraceRecord>) {
        let mut scratch = simnet::QueryScratch::new();
        let (out, records) =
            super::query(a, origin, lo, hi, seed, faults, trace, &mut scratch).unwrap();
        (out, records.unwrap_or_default())
    }

    fn small_cfg() -> FissioneConfig {
        FissioneConfig { object_id_len: 24, ..FissioneConfig::default() }
    }

    fn build(n: usize, seed: u64) -> SingleArmada {
        let mut rng = simnet::rng_from_seed(seed);
        let mut a = SingleArmada::build_with(small_cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
        for _ in 0..n {
            let v = rng.gen_range(0.0..=1000.0);
            a.publish(v);
        }
        a
    }

    #[test]
    fn pira_is_exact_on_random_queries() {
        let a = build(300, 61);
        let mut rng = simnet::rng_from_seed(610);
        for q in 0..100 {
            let lo: f64 = rng.gen_range(0.0..990.0);
            let size: f64 = rng.gen_range(0.5..200.0);
            let hi = (lo + size).min(1000.0);
            let origin = a.net().random_peer(&mut rng);
            let out = a.pira_query(origin, lo, hi, q).unwrap();
            assert!(out.metrics.exact, "query [{lo},{hi}] missed peers");
            assert_eq!(
                out.results,
                a.expected_results(lo, hi),
                "query [{lo},{hi}] returned wrong records"
            );
        }
    }

    #[test]
    fn pira_delay_is_bounded_by_origin_depth() {
        let a = build(500, 62);
        let mut rng = simnet::rng_from_seed(620);
        for q in 0..100 {
            let lo = rng.gen_range(0.0..700.0);
            let origin = a.net().random_peer(&mut rng);
            let out = a.pira_query(origin, lo, lo + 300.0, q).unwrap();
            let b = a.net().peer(origin).unwrap().depth() as u32;
            assert!(out.metrics.delay <= b, "delay {} > b {}", out.metrics.delay, b);
        }
    }

    #[test]
    fn pira_delay_independent_of_range_size() {
        // The paper's headline: delay stays < logN whether the range covers
        // 0.2% or 30% of the attribute space.
        let a = build(1000, 63);
        let mut rng = simnet::rng_from_seed(630);
        let log_n = (1000f64).log2();
        for &size in &[2.0, 50.0, 300.0] {
            let mut total = 0u64;
            let queries = 200;
            for q in 0..queries {
                let lo = rng.gen_range(0.0..(1000.0 - size));
                let origin = a.net().random_peer(&mut rng);
                let out = a.pira_query(origin, lo, lo + size, q).unwrap();
                total += u64::from(out.metrics.delay);
            }
            let avg = total as f64 / queries as f64;
            assert!(avg < log_n, "size {size}: avg delay {avg} ≥ logN {log_n}");
        }
    }

    #[test]
    fn pira_point_query_reaches_single_owner() {
        let a = build(200, 64);
        let mut rng = simnet::rng_from_seed(640);
        let origin = a.net().random_peer(&mut rng);
        let out = a.pira_query(origin, 421.7, 421.7, 1).unwrap();
        assert_eq!(out.metrics.dest_peers, 1);
        assert!(out.metrics.exact);
    }

    #[test]
    fn pira_whole_space_query_reaches_everyone() {
        let a = build(120, 65);
        let mut rng = simnet::rng_from_seed(650);
        let origin = a.net().random_peer(&mut rng);
        let out = a.pira_query(origin, 0.0, 1000.0, 1).unwrap();
        assert_eq!(out.metrics.dest_peers, a.net().len());
        assert!(out.metrics.exact);
        assert_eq!(out.results.len(), a.record_count());
    }

    #[test]
    fn pira_message_cost_tracks_paper_formula() {
        // Average messages ≈ logN + 2n − 2 (§4.3.2); assert the looser
        // MesgRatio/IncreRatio ≈ 2 shape the paper validates in Figure 6(b).
        let a = build(1000, 66);
        let mut rng = simnet::rng_from_seed(660);
        let mut mesg_ratios = Vec::new();
        let mut incre_ratios = Vec::new();
        for q in 0..300 {
            let lo = rng.gen_range(0.0..900.0);
            let origin = a.net().random_peer(&mut rng);
            let out = a.pira_query(origin, lo, lo + 100.0, q).unwrap();
            mesg_ratios.push(out.metrics.mesg_ratio());
            incre_ratios.push(out.metrics.incre_ratio(a.net().len()));
        }
        let avg_mesg = mesg_ratios.iter().sum::<f64>() / mesg_ratios.len() as f64;
        let avg_incre = incre_ratios.iter().sum::<f64>() / incre_ratios.len() as f64;
        assert!((1.0..3.0).contains(&avg_mesg), "MesgRatio {avg_mesg}");
        assert!((1.0..2.5).contains(&avg_incre), "IncreRatio {avg_incre}");
    }

    #[test]
    fn pira_from_every_origin_small_net() {
        let a = build(40, 67);
        for origin in a.net().live_peers() {
            let out = a.pira_query(origin, 250.0, 350.0, origin as u64).unwrap();
            assert!(out.metrics.exact, "origin {origin}");
            assert_eq!(out.results, a.expected_results(250.0, 350.0));
        }
    }

    #[test]
    fn pira_rejects_dead_origin_and_empty_range() {
        let a = build(30, 68);
        let err = a.pira_query(usize::MAX, 0.0, 1.0, 1).unwrap_err();
        assert!(matches!(err, crate::ArmadaError::BadOrigin { .. }));
        let origin = a.net().live_peers().next().unwrap();
        assert!(a.pira_query(origin, 5.0, 1.0, 1).is_err());
    }

    #[test]
    fn traced_query_matches_untraced_and_streams_answers() {
        let a = build(200, 70);
        let mut rng = simnet::rng_from_seed(700);
        for q in 0..20 {
            let lo: f64 = rng.gen_range(0.0..900.0);
            let hi = lo + rng.gen_range(0.5..100.0);
            let origin = a.net().random_peer(&mut rng);
            let plain = a.pira_query(origin, lo, hi, q).unwrap();
            let (traced, records) = query(&a, (origin, lo, hi, q), None, true);
            assert_eq!(plain, traced, "tracing perturbed query [{lo}, {hi}]");
            // One Answer event per reached peer, and the deepest answer
            // carries exactly the reported delay.
            let answers: Vec<_> = records
                .iter()
                .filter_map(|r| match r.event {
                    simnet::TraceEvent::Answer { node, hop, cost_ms } => Some((node, hop, cost_ms)),
                    _ => None,
                })
                .collect();
            let distinct: std::collections::BTreeSet<_> =
                answers.iter().map(|&(n, _, _)| n).collect();
            assert_eq!(distinct.len(), traced.metrics.reached_peers);
            let max_hop = answers.iter().map(|&(_, h, _)| h).max().unwrap();
            assert_eq!(max_hop, traced.metrics.delay);
        }
    }

    #[test]
    fn traced_query_under_faults_logs_verdicts() {
        let a = build(250, 71);
        let mut rng = simnet::rng_from_seed(710);
        let faults = FaultPlan::with_drop_prob(0.15);
        let mut saw_verdict = false;
        for q in 0..20 {
            let lo = rng.gen_range(0.0..800.0);
            let origin = a.net().random_peer(&mut rng);
            let (plain, _) = query(&a, (origin, lo, lo + 150.0, q), Some(&faults), false);
            let (traced, records) = query(&a, (origin, lo, lo + 150.0, q), Some(&faults), true);
            assert_eq!(plain, traced);
            saw_verdict |=
                records.iter().any(|r| matches!(r.event, simnet::TraceEvent::FaultVerdict { .. }));
        }
        assert!(saw_verdict, "15% drops over 20 queries must log at least one verdict");
    }

    #[test]
    fn pira_under_message_loss_degrades_gracefully() {
        let a = build(300, 69);
        let mut rng = simnet::rng_from_seed(690);
        let faults = FaultPlan::with_drop_prob(0.10);
        let mut recalls = Vec::new();
        for q in 0..100 {
            let lo = rng.gen_range(0.0..800.0);
            let origin = a.net().random_peer(&mut rng);
            let (out, _) = query(&a, (origin, lo, lo + 150.0, q), Some(&faults), false);
            recalls.push(out.metrics.peer_recall());
            assert!(out.metrics.reached_peers <= out.metrics.dest_peers);
        }
        let avg = recalls.iter().sum::<f64>() / recalls.len() as f64;
        // 10% loss on a tree: some subtrees vanish, but most peers answer.
        assert!(avg > 0.5, "recall collapsed to {avg}");
        assert!(avg < 1.0, "drops must actually hurt somewhere");
    }
}
