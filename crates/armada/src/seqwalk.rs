//! Sequential-walk reference baseline: the `O(logN + n)` delay class of
//! Skip Graph / SkipNet / SCRAP (Table 1), modelled over the same data
//! placement as Armada.
//!
//! Those systems keep a sorted level-0 linked list of peers, route to the
//! range's first peer in `O(logN)` hops, then hand the query peer-to-peer
//! down the list — so delay grows linearly with the number of destination
//! peers `n`. FISSIONE itself maintains no successor pointers; this module
//! *simulates* such a scheme by exploiting the fact that region-intersecting
//! peers are contiguous in PeerID order, charging one hop per successor
//! step exactly as the linked-list scheme would pay. It exists to give
//! Table 1's `O(logN + n)` row a measured counterpart — it is **not** part
//! of Armada.

use crate::{ArmadaError, QueryMetrics, QueryOutcome, RecordId, SingleArmada};
use simnet::{HopKind, NodeId, TraceEvent, TraceRecord, TraceSink};
use std::collections::BTreeSet;

/// Executes a sequential range walk: route to the first destination, then
/// traverse the destination run peer by peer.
///
/// With `trace` set the event stream comes back beside the outcome. The
/// walk is not simulator-driven, so the events are synthesized from the
/// *actual* routed path and successor edges — every hop a real overlay
/// edge priced by the cost model, answers at each destination. The outcome
/// is identical either way.
///
/// # Errors
///
/// Returns [`ArmadaError::BadOrigin`] for dead origins and naming errors
/// for empty ranges.
pub fn query(
    armada: &SingleArmada,
    origin: NodeId,
    lo: f64,
    hi: f64,
    trace: bool,
) -> Result<(QueryOutcome, Option<Vec<TraceRecord>>), ArmadaError> {
    let net = armada.net();
    if !net.is_live(origin) {
        return Err(ArmadaError::BadOrigin { origin });
    }
    let (low, high) = armada.naming().region_keys(lo, hi)?;
    let table = net.route_table();
    let run = table.run(low, high)?;

    let mut sink = trace.then(TraceSink::new);
    if let Some(s) = &mut sink {
        // The seeding self-delivery every critical-path walk terminates on.
        s.emit(
            0,
            TraceEvent::Hop {
                src: origin,
                dst: origin,
                hop: 0,
                edge_cost_ms: 0,
                cost_ms: 0,
                kind: HopKind::Local,
            },
        );
    }

    // Phase 1: DHT-route to the first destination (the owner of LowT).
    let model = armada.net_model();
    // Every routed edge joins the critical path, priced by the cost model.
    let (first, (mut delay, mut latency)) =
        net.route_fold(origin, low, (0u32, 0u64), |(hop, cum), src, dst| {
            let edge = model.edge_cost(src, dst);
            let (hop, cum) = (hop + 1, cum + edge);
            if let Some(s) = &mut sink {
                s.emit(
                    u64::from(hop),
                    TraceEvent::Hop {
                        src,
                        dst,
                        hop,
                        edge_cost_ms: edge,
                        cost_ms: cum,
                        kind: HopKind::Network,
                    },
                );
            }
            (hop, cum)
        })?;
    debug_assert_eq!(first, table.node(run.start));
    let mut messages = u64::from(delay);

    // Phase 2: walk the contiguous destination run, one hop per successor.
    // The walk is strictly sequential, so every successor edge joins the
    // critical path in both currencies.
    let mut results: BTreeSet<RecordId> = BTreeSet::new();
    let mut prev: Option<NodeId> = None;
    for peer in run.clone().map(|rank| table.node(rank)) {
        if let Some(prev) = prev {
            messages += 1;
            delay += 1;
            let edge = model.edge_cost(prev, peer);
            latency += edge;
            if let Some(s) = &mut sink {
                s.emit(
                    u64::from(delay),
                    TraceEvent::Hop {
                        src: prev,
                        dst: peer,
                        hop: delay,
                        edge_cost_ms: edge,
                        cost_ms: latency,
                        kind: HopKind::Network,
                    },
                );
            }
        }
        if let Some(s) = &mut sink {
            s.emit(
                u64::from(delay),
                TraceEvent::Answer { node: peer, hop: delay, cost_ms: latency },
            );
        }
        for &(_, h) in net.entries_in_stretch((peer, peer), low, high) {
            let record = RecordId(h);
            let v = armada.value(record);
            if v >= lo && v <= hi {
                results.insert(record);
            }
        }
        prev = Some(peer);
    }

    Ok((
        QueryOutcome {
            results: results.into_iter().collect(),
            metrics: QueryMetrics {
                delay,
                latency,
                messages,
                dest_peers: run.len(),
                reached_peers: run.len(),
                exact: true,
            },
        },
        sink.map(TraceSink::into_records),
    ))
}

#[cfg(test)]
mod tests {
    use crate::SingleArmada;
    use fissione::FissioneConfig;
    use rand::Rng;

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

    #[test]
    fn seqwalk_returns_the_same_results_as_pira() {
        let a = build(200, 500, 121);
        let mut rng = simnet::rng_from_seed(1210);
        for q in 0..30 {
            let lo: f64 = rng.gen_range(0.0..900.0);
            let hi = lo + rng.gen_range(0.5..100.0);
            let origin = a.net().random_peer(&mut rng);
            let walk = super::query(&a, origin, lo, hi, false).unwrap().0;
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
        let small = super::query(&a, origin, 500.0, 510.0, false).unwrap().0;
        let large = super::query(&a, origin, 100.0, 900.0, false).unwrap().0;
        // delay ≈ route + (n − 1): the large query pays for every peer.
        assert!(large.metrics.delay as usize >= large.metrics.dest_peers - 1);
        assert!(large.metrics.delay > 4 * small.metrics.delay);
    }

    #[test]
    fn seqwalk_delay_is_about_log_n_plus_destinations() {
        let a = build(400, 0, 123);
        let mut rng = simnet::rng_from_seed(1230);
        let log_n = (400f64).log2();
        for _ in 0..20 {
            let lo: f64 = rng.gen_range(0.0..800.0);
            let origin = a.net().random_peer(&mut rng);
            let out = super::query(&a, origin, lo, lo + 100.0, false).unwrap().0;
            let n = out.metrics.dest_peers as f64;
            let d = f64::from(out.metrics.delay);
            assert!(d >= n - 1.0);
            assert!(d <= 2.0 * log_n + n, "delay {d} for n {n}");
        }
    }
}
