//! Sequential-walk reference baseline: the `O(logN + n)` delay class of
//! Skip Graph / SkipNet / SCRAP (Table 1), run over the same data placement
//! as Armada.
//!
//! Those systems keep a sorted level-0 linked list of peers, route to the
//! range's first peer in `O(logN)` hops, then hand the query peer-to-peer
//! down the list — so delay grows linearly with the number of destination
//! peers `n`. FISSIONE itself maintains no successor pointers; this module
//! walks the region's destination run instead — its peers are contiguous
//! in PeerID order, one range of routing-table ranks — paying one message
//! per successor step exactly as the linked-list scheme would. It exists to
//! give Table 1's `O(logN + n)` row a measured counterpart — it is **not**
//! part of Armada.
//!
//! Both phases are messages of one [`Sim`] run. A `Route` message is
//! forwarded by [`FissioneNet::next_hop`](fissione::FissioneNet::next_hop)
//! toward the region's low key; its owner, the run's first peer, answers
//! and hands a `Walk` message to the next rank, which does the same. So a
//! fault plan rules on the walk's real edges: a lost or severed hop, or a
//! crashed peer, ends the walk there. As under PIRA, an answer is only
//! marked; the records are read after the run by [`gather`].

use crate::descent::{gather, record_filter};
use crate::{ArmadaError, QueryMetrics, QueryOutcome, RecordId, SingleArmada};
use kautz::naming::Naming;
use simnet::{Answers, Envelope, FaultPlan, NodeId, QueryScratch, Sim, SimScratch, TraceRecord};

/// One in-flight walk message.
#[derive(Debug, Clone, Copy)]
enum Msg {
    /// Routing toward the owner of the region's low key.
    Route,
    /// Walking the destination run: the receiver's routing-table rank.
    Walk { rank: u32 },
}

/// The walk's reusable per-thread state, slotted into a [`QueryScratch`].
#[derive(Default)]
struct State {
    sim: SimScratch<Msg>,
    answers: Answers<RecordId>,
}

/// Executes a sequential range walk for `[lo, hi]` from `origin`: route to
/// the first destination, then traverse the destination run peer by peer
/// (see the module docs). The call has PIRA's full surface: an optional
/// fault plan, an optional trace (the simulator's event stream beside an
/// outcome it never perturbs), and the caller's scratch.
///
/// # Errors
///
/// Returns [`ArmadaError::BadOrigin`] for dead origins, naming errors for
/// empty ranges, and the routing error of a hop the route reaches but
/// cannot take.
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
) -> Result<(QueryOutcome, Option<Vec<TraceRecord>>), ArmadaError> {
    let net = armada.net();
    if !net.is_live(origin) {
        return Err(ArmadaError::BadOrigin { origin });
    }
    let rect = [(lo, hi)];
    let query_region = armada.naming().query_region(&rect)?;
    let region = query_region.0;
    let table = net.route_table();
    let run = table.run(region.0, region.1)?;
    let State { sim: sim_scratch, answers: ledger } = scratch.slot::<State>();

    let mut sim: Sim<Msg> = Sim::from_scratch(seed, sim_scratch).with_net(*armada.net_model());
    if let Some(faults) = faults {
        sim = sim.with_faults(faults);
    }
    if trace {
        sim = sim.with_trace(simnet::TraceSink::new());
    }
    ledger.begin(table.len(), run.clone());
    sim.send(origin, origin, 0, Msg::Route);

    let (mut delay, mut stuck) = (0, None);
    sim.run(|sim, env: Envelope<Msg>| {
        let rank = match env.payload {
            Msg::Walk { rank } => rank as usize,
            Msg::Route => match net.next_hop(env.to, region.0) {
                Ok(None) => run.start,
                Ok(Some(next)) => return sim.forward(&env, next, Msg::Route),
                Err(e) => {
                    stuck = Some(e);
                    return;
                }
            },
        };
        debug_assert_eq!(table.node(rank), env.to, "the walk reached a peer off its run");
        // The walk is strictly sequential: every peer hears it once, each
        // one hop later than the one before, and every edge so far is on
        // its critical path.
        sim.trace_answer(&env);
        ledger.first_answer(rank, env.cost);
        delay = env.hop;
        if rank + 1 < run.end {
            sim.forward(&env, table.node(rank + 1), Msg::Walk { rank: rank as u32 + 1 });
        }
    });

    let records = sim.take_trace().map(simnet::TraceSink::into_records);
    let messages = sim.stats().messages_sent;
    sim.recycle(sim_scratch);
    if let Some(e) = stuck {
        return Err(e.into());
    }
    gather(net, region, run, ledger, record_filter(armada, &query_region, &rect));
    let metrics = QueryMetrics {
        delay,
        latency: ledger.latency(),
        messages,
        dest_peers: ledger.due(),
        reached_peers: ledger.reached(),
        exact: ledger.exact(),
    };
    Ok((QueryOutcome { results: ledger.results(), metrics }, records))
}

#[cfg(test)]
mod tests {
    use crate::{ArmadaError, QueryOutcome, SingleArmada};
    use fissione::FissioneConfig;
    use rand::Rng;
    use simnet::{FaultPlan, NodeId, QueryScratch, TraceEvent};

    fn build(n: usize, records: usize, seed: u64) -> SingleArmada {
        let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
        let mut rng = simnet::rng_from_seed(seed);
        let mut a = SingleArmada::build_with(cfg, n, 0.0, 1000.0, &mut rng).unwrap();
        for _ in 0..records {
            let v: f64 = rng.gen_range(0.0..=1000.0);
            a.publish(v);
        }
        a
    }

    /// One untraced walk for `[lo, hi]` from `origin`, with a fresh scratch.
    fn walk(
        a: &SingleArmada,
        (origin, lo, hi, seed): (NodeId, f64, f64, u64),
        faults: Option<&FaultPlan>,
    ) -> QueryOutcome {
        super::query(a, origin, lo, hi, seed, faults, false, &mut QueryScratch::new()).unwrap().0
    }

    #[test]
    fn seqwalk_returns_the_same_results_as_pira() {
        let a = build(200, 500, 121);
        let mut rng = simnet::rng_from_seed(1210);
        for q in 0..30 {
            let lo: f64 = rng.gen_range(0.0..900.0);
            let hi = lo + rng.gen_range(0.5..100.0);
            let origin = a.net().random_peer(&mut rng);
            let walk = walk(&a, (origin, lo, hi, q), None);
            let pira = a.pira_query(origin, lo, hi, q).unwrap();
            assert_eq!(walk.results, pira.results, "query [{lo}, {hi}]");
            assert_eq!(walk.metrics.dest_peers, pira.metrics.dest_peers);
        }
    }

    #[test]
    fn seqwalk_delay_grows_linearly_with_destinations() {
        let a = build(500, 0, 122);
        let mut rng = simnet::rng_from_seed(1220);
        let origin = a.net().random_peer(&mut rng);
        let small = walk(&a, (origin, 500.0, 510.0, 0), None);
        let large = walk(&a, (origin, 100.0, 900.0, 0), None);
        // delay ≈ route + (n − 1): the large query pays for every peer.
        assert!(large.metrics.delay as usize >= large.metrics.dest_peers - 1);
        assert!(large.metrics.delay > 4 * small.metrics.delay);
    }

    #[test]
    fn seqwalk_delay_is_about_log_n_plus_destinations() {
        let a = build(400, 0, 123);
        let mut rng = simnet::rng_from_seed(1230);
        let log_n = (400f64).log2();
        for q in 0..20 {
            let lo: f64 = rng.gen_range(0.0..800.0);
            let origin = a.net().random_peer(&mut rng);
            let out = walk(&a, (origin, lo, lo + 100.0, q), None);
            let n = out.metrics.dest_peers as f64;
            let d = f64::from(out.metrics.delay);
            assert!(d >= n - 1.0);
            assert!(d <= 2.0 * log_n + n, "delay {d} for n {n}");
        }
    }

    #[test]
    fn the_simulated_route_reaches_the_run_in_route_folds_hops() {
        let a = build(300, 0, 124);
        let (net, table) = (a.net(), a.net().route_table());
        let mut rng = simnet::rng_from_seed(1240);
        for q in 0..100 {
            let lo: f64 = rng.gen_range(0.0..990.0);
            let hi = lo + rng.gen_range(0.0..10.0);
            let origin = net.random_peer(&mut rng);
            let mut scratch = QueryScratch::new();
            let (out, records) =
                super::query(&a, origin, lo, hi, q, None, true, &mut scratch).unwrap();
            let (low, high) = a.naming().region_keys(lo, hi).unwrap();
            let run = table.run(low, high).unwrap();
            let (owner, hops) = net.route_fold(origin, low, 0u32, |hops, _, _| hops + 1).unwrap();
            assert_eq!(owner, table.node(run.start));
            // The first answer ends the route; each later one is a
            // successor step, one message each.
            let first = records.unwrap().iter().find_map(|r| match r.event {
                TraceEvent::Answer { node, hop, .. } => Some((node, hop)),
                _ => None,
            });
            assert_eq!(first, Some((owner, hops)), "query [{lo}, {hi}] from {origin}");
            assert_eq!(out.metrics.delay as usize, hops as usize + run.len() - 1);
            assert_eq!(out.metrics.messages, u64::from(out.metrics.delay));
            assert!(out.metrics.exact);
        }
    }

    #[test]
    fn loss_breaks_some_walks_but_not_all() {
        let a = build(100, 100, 125);
        let mut rng = simnet::rng_from_seed(1250);
        let faults = FaultPlan::with_drop_prob(0.3);
        let (trials, mut exact) = (100, 0);
        for q in 0..trials {
            let lo: f64 = rng.gen_range(0.0..990.0);
            let origin = a.net().random_peer(&mut rng);
            let out = walk(&a, (origin, lo, lo + 2.0, q), Some(&faults));
            assert!(out.metrics.reached_peers <= out.metrics.dest_peers);
            exact += u64::from(out.metrics.exact);
        }
        assert!(exact < trials, "30% loss must break some walks");
        assert!(exact > 0, "but not all of them");
    }

    #[test]
    fn a_crashed_first_destination_leaves_the_walk_unanswered() {
        let a = build(150, 150, 126);
        let (low, high) = a.naming().region_keys(400.0, 450.0).unwrap();
        let table = a.net().route_table();
        let run = table.run(low, high).unwrap();
        assert!(run.len() > 1);
        let first = table.node(run.start);
        let origin = a.net().live_peers().find(|&n| n != first).expect("another peer");
        let mut faults = FaultPlan::new();
        faults.crash(first);
        let out = walk(&a, (origin, 400.0, 450.0, 1), Some(&faults));
        assert_eq!((out.metrics.reached_peers, out.metrics.exact), (0, false));
        assert!(out.results.is_empty());
    }

    #[test]
    fn a_key_without_an_owner_is_an_error_not_an_unanswered_walk() {
        // Five-symbol keys on a network of 24-symbol ObjectIDs: a region's
        // low key can be shorter than the PeerIDs around it. Whether the
        // run's lookup or a hop of the route finds no owner, the walk
        // returns that error, as the analytic route does.
        let a = build(60, 0, 127).with_object_ids_cut_to(5);
        let (net, table) = (a.net(), a.net().route_table());
        let mut rng = simnet::rng_from_seed(1270);
        let mut refused = 0;
        for q in 0..300 {
            let lo: f64 = rng.gen_range(0.0..1000.0);
            let hi = lo + rng.gen_range(0.0..50.0);
            let origin = net.random_peer(&mut rng);
            let got = super::query(&a, origin, lo, hi, q, None, false, &mut QueryScratch::new());
            let (low, high) = a.naming().region_keys(lo, hi).unwrap();
            let routed =
                table.run(low, high).and_then(|_| net.route_fold(origin, low, (), |(), _, _| ()));
            match (routed, got) {
                (Ok(_), Ok((out, _))) => assert!(out.metrics.exact),
                (Err(e), got) => {
                    assert_eq!(got.map(|_| ()), Err(ArmadaError::from(e)));
                    refused += 1;
                }
                (Ok(_), Err(e)) => panic!("[{lo}, {hi}] from {origin}: {e}"),
            }
        }
        assert!((1..300).contains(&refused), "{refused} of 300 low keys had no owner");
    }
}
