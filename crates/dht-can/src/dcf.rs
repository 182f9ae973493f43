//! DCF range queries: route to the median, then flood the range's image
//! (Andrzejak & Xu's directed controlled flooding).
//!
//! A query `[lo, hi]` maps to the Hilbert-curve segment of its normalised
//! endpoints; the segment's aligned-block decomposition gives the square
//! footprint the flood must cover. The query first routes greedily to the
//! zone owning the **median** value, then spreads over every zone whose
//! rectangle intersects the footprint:
//!
//! * [`FloodMode::Directed`] — each message piggybacks the set of zones
//!   already informed along its branch, so a zone never forwards to a zone
//!   its branch has seen (the "controlled" part; residual duplicates across
//!   independent branches remain, as in the original).
//! * [`FloodMode::Naive`] — forward to every intersecting neighbor
//!   unconditionally; receivers dedup. The `ablation_flood` experiment
//!   quantifies the difference.
//!
//! Delay = median-routing hops + flood eccentricity. Both grow with `√N`,
//! and the second also grows with the queried range — the behaviour the
//! Armada paper's Figures 5 and 7 contrast with PIRA.

use crate::{CanError, CanNet, Rect};
use simnet::{Envelope, FaultPlan, NetModel, NodeId, QueryScratch, Sim, SimScratch};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Duplicate-suppression strategy for the flooding phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloodMode {
    /// Directed controlled flooding: piggyback informed sets.
    Directed,
    /// Plain flooding with receiver-side dedup only.
    Naive,
}

/// Result of a DCF range query.
#[derive(Debug, Clone, PartialEq)]
pub struct DcfOutcome {
    /// Handles of records whose value lies in the queried range, ascending.
    pub results: Vec<u64>,
    /// Max hop depth among destination-zone deliveries (routing + flood).
    pub delay: u32,
    /// Critical-path virtual milliseconds under the query's [`NetModel`]:
    /// the largest, over destination zones, of the cheapest accumulated
    /// edge cost among the messages reaching that zone. Equals `delay`
    /// under the `unit` model.
    pub latency: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Ground-truth destination zone count.
    pub dest_zones: usize,
    /// Destination zones that answered.
    pub reached_zones: usize,
    /// Whether every ground-truth zone answered.
    pub exact: bool,
}

#[derive(Debug, Clone)]
enum DcfMsg {
    /// Greedy routing toward the median point.
    Route,
    /// Flooding phase; `informed` = zones this branch already covered.
    /// Shared by reference across a hop's fan-out, so forwarding clones a
    /// refcount instead of the whole set.
    Flood { informed: Arc<Vec<NodeId>> },
}

/// DCF's reusable per-thread state, slotted into a [`QueryScratch`]. Every
/// field is reset at query start, so reuse is invisible to results,
/// metrics, and traces.
#[derive(Default)]
struct DcfScratch {
    sim: SimScratch<DcfMsg>,
    arrivals: Vec<(NodeId, u64)>,
    boxes: Vec<Rect>,
    targets: Vec<NodeId>,
}

/// Executes a plain DCF range query from `origin` over `[lo, hi]`: fresh
/// buffers, no faults, the `unit` cost model, no trace. [`query`] is the
/// full surface.
///
/// # Errors
///
/// Returns [`CanError::EmptyRange`] if `lo > hi` and
/// [`CanError::NoSuchZone`] for dead origins.
pub fn range_query(
    net: &CanNet,
    origin: NodeId,
    lo: f64,
    hi: f64,
    seed: u64,
    mode: FloodMode,
) -> Result<DcfOutcome, CanError> {
    let (unit, mut scratch) = (NetModel::unit(), QueryScratch::new());
    query(net, origin, lo, hi, seed, mode, None, &unit, false, &mut scratch).map(|(out, _)| out)
}

/// [`query`] under a fault plan with a caller-owned scratch, untraced.
///
/// # Errors
///
/// Same conditions as [`range_query`].
#[allow(clippy::too_many_arguments)]
pub fn range_query_priced_scratch(
    net: &CanNet,
    origin: NodeId,
    lo: f64,
    hi: f64,
    seed: u64,
    mode: FloodMode,
    faults: &FaultPlan,
    model: &NetModel,
    scratch: &mut QueryScratch,
) -> Result<DcfOutcome, CanError> {
    query(net, origin, lo, hi, seed, mode, Some(faults), model, false, scratch).map(|(out, _)| out)
}

/// The engine's one full-surface entry point: an optional fault plan
/// (message drops, crashed zones, the hostile families), the network cost
/// model, an optional trace, the caller's scratch.
///
/// Hop metrics, message counts, and result sets are model-invariant (the
/// cost layer never perturbs event scheduling); only
/// [`DcfOutcome::latency`] moves with the model. With `trace` set the
/// simulator's sink is attached and the full virtual-time event stream —
/// routing hops, the route→flood local hand-off, flood hops, fault
/// verdicts, and one answer event per qualifying zone delivery — comes
/// back beside the outcome. The outcome is bit-identical either way, and
/// for any scratch, fresh or reused.
///
/// # Errors
///
/// Same conditions as [`range_query`].
#[allow(clippy::too_many_arguments)]
pub fn query(
    net: &CanNet,
    origin: NodeId,
    lo: f64,
    hi: f64,
    seed: u64,
    mode: FloodMode,
    faults: Option<&FaultPlan>,
    model: &NetModel,
    trace: bool,
    scratch: &mut QueryScratch,
) -> Result<(DcfOutcome, Option<Vec<simnet::TraceRecord>>), CanError> {
    if lo > hi {
        return Err(CanError::EmptyRange { lo, hi });
    }
    net.zone(origin)?;
    let order = net.config().hilbert_order;

    let DcfScratch { sim: sim_scratch, arrivals, boxes, targets } = scratch.slot::<DcfScratch>();

    // The query's image: curve cells of the normalised range, decomposed
    // into aligned squares.
    let ta = crate::hilbert::cell_of(order, net.normalize(lo));
    let tb = crate::hilbert::cell_of(order, net.normalize(hi));
    boxes.clear();
    boxes.extend(
        crate::hilbert::interval_blocks(order, ta, tb)
            .into_iter()
            .map(|b| b.to_unit_rect(order)),
    );
    let boxes: &[Rect] = boxes;
    let hits = |zone: NodeId| -> bool {
        let r = net.zone(zone).expect("live zone").rect();
        boxes.iter().any(|b| r.intersects(b))
    };

    // Ground truth.
    let truth: BTreeSet<NodeId> = net.live_zones().filter(|&z| hits(z)).collect();

    // Median target point.
    let (mx, my) = net.point_of_value((lo + hi) / 2.0);

    let mut sim: Sim<DcfMsg> = Sim::from_scratch(seed, sim_scratch).with_net(*model);
    if let Some(faults) = faults {
        sim = sim.with_faults_ref(faults);
    }
    if trace {
        sim = sim.with_trace(simnet::TraceSink::new());
    }
    sim.send(origin, origin, 0, DcfMsg::Route);

    let mut answered: BTreeSet<NodeId> = BTreeSet::new();
    // Flat arrival log reduced by a sorted post-pass (min cost per zone,
    // max over zones — order-independent, since scheduling stays on unit
    // ticks and the cost model rides along in the envelopes).
    arrivals.clear();
    let mut results: BTreeSet<u64> = BTreeSet::new();
    let mut delay: u32 = 0;
    // Naive floods carry an empty informed set: one shared allocation per
    // query, refcount-cloned into every forward.
    let empty_informed: Arc<Vec<NodeId>> = Arc::new(Vec::new());
    sim.run(|sim, env: Envelope<DcfMsg>| {
        let node = env.to;
        match &env.payload {
            DcfMsg::Route => {
                let rect = net.zone(node).expect("live").rect();
                if rect.torus_dist2(mx, my) > 0.0 {
                    // Continue greedy routing.
                    let next = net
                        .neighbors(node)
                        .iter()
                        .copied()
                        .min_by(|&a, &b| {
                            let da = net.zone(a).expect("live").rect().torus_dist2(mx, my);
                            let db = net.zone(b).expect("live").rect().torus_dist2(mx, my);
                            da.partial_cmp(&db).expect("finite")
                        })
                        .expect("zones have neighbors");
                    sim.forward(&env, next, DcfMsg::Route);
                } else {
                    // Arrived at the median zone: switch to flooding by
                    // re-delivering locally as a flood message (carrying
                    // the routing phase's accumulated cost).
                    let informed = Arc::new(vec![node]);
                    sim.send_with_cost(node, node, env.hop, env.cost, DcfMsg::Flood { informed });
                }
            }
            DcfMsg::Flood { informed } => {
                if !hits(node) {
                    return;
                }
                arrivals.push((node, env.cost));
                sim.trace_answer(&env);
                let first_visit = answered.insert(node);
                if first_visit {
                    delay = delay.max(env.hop);
                    for &(v, h) in net.zone(node).expect("live").records() {
                        if v >= lo && v <= hi {
                            results.insert(h);
                        }
                    }
                } else if mode == FloodMode::Naive {
                    // Receiver-side dedup: do not re-forward.
                    return;
                } else if mode == FloodMode::Directed && !first_visit {
                    return;
                }
                targets.clear();
                targets.extend(
                    net.neighbors(node).iter().copied().filter(|&n| hits(n)).filter(|n| {
                        match mode {
                            FloodMode::Directed => !informed.contains(n),
                            FloodMode::Naive => true,
                        }
                    }),
                );
                let new_informed: Arc<Vec<NodeId>> = match mode {
                    FloodMode::Directed => {
                        let mut v = Vec::with_capacity(informed.len() + targets.len());
                        v.extend_from_slice(informed);
                        v.extend(targets.iter());
                        v.sort_unstable();
                        v.dedup();
                        Arc::new(v)
                    }
                    FloodMode::Naive => Arc::clone(&empty_informed),
                };
                for &t in targets.iter() {
                    sim.forward(&env, t, DcfMsg::Flood { informed: Arc::clone(&new_informed) });
                }
            }
        }
    });

    let reached = answered.len();
    let exact = answered == truth;
    let latency = simnet::last_first_arrival(arrivals);
    let records = sim.take_trace().map(simnet::TraceSink::into_records);
    let messages = sim.stats().messages_sent;
    sim.recycle(sim_scratch);
    Ok((
        DcfOutcome {
            results: results.into_iter().collect(),
            delay,
            latency,
            messages,
            dest_zones: truth.len(),
            reached_zones: reached,
            exact,
        },
        records,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CanConfig;
    use rand::Rng;

    fn build(n: usize, records: usize, seed: u64) -> CanNet {
        let mut rng = simnet::rng_from_seed(seed);
        let mut net = CanNet::build(CanConfig::default(), n, &mut rng).unwrap();
        for h in 0..records as u64 {
            let v: f64 = rng.gen_range(0.0..=1000.0);
            net.publish(v, h);
        }
        net
    }

    #[test]
    fn dcf_is_exact_on_random_queries() {
        let net = build(200, 300, 91);
        let mut rng = simnet::rng_from_seed(910);
        for q in 0..50 {
            let lo: f64 = rng.gen_range(0.0..900.0);
            let hi = lo + rng.gen_range(0.1..100.0);
            let origin = net.random_zone(&mut rng);
            let out = range_query(&net, origin, lo, hi, q, FloodMode::Directed).unwrap();
            assert!(out.exact, "query [{lo}, {hi}] missed zones");
            // Result set matches a direct scan.
            let mut expect: Vec<u64> = net
                .live_zones()
                .flat_map(|z| net.zone(z).unwrap().records().to_vec())
                .filter(|&(v, _)| v >= lo && v <= hi)
                .map(|(_, h)| h)
                .collect();
            expect.sort_unstable();
            assert_eq!(out.results, expect, "query [{lo}, {hi}]");
        }
    }

    #[test]
    fn naive_flood_is_also_exact_but_costlier() {
        let net = build(300, 100, 92);
        let mut rng = simnet::rng_from_seed(920);
        let mut directed_total = 0u64;
        let mut naive_total = 0u64;
        for q in 0..30 {
            let lo: f64 = rng.gen_range(0.0..800.0);
            let hi = lo + 150.0;
            let origin = net.random_zone(&mut rng);
            let d = range_query(&net, origin, lo, hi, q, FloodMode::Directed).unwrap();
            let n = range_query(&net, origin, lo, hi, q, FloodMode::Naive).unwrap();
            assert!(d.exact && n.exact);
            assert_eq!(d.results, n.results);
            directed_total += d.messages;
            naive_total += n.messages;
        }
        assert!(
            naive_total > directed_total,
            "naive {naive_total} should exceed directed {directed_total}"
        );
    }

    #[test]
    fn dcf_delay_grows_with_range_size() {
        // The contrast with PIRA: bigger ranges flood farther.
        let net = build(2000, 0, 93);
        let mut rng = simnet::rng_from_seed(930);
        let avg_delay = |size: f64, rng: &mut rand::rngs::SmallRng| {
            let mut total = 0u64;
            let queries = 40;
            for q in 0..queries {
                let lo = rng.gen_range(0.0..(1000.0 - size));
                let origin = net.random_zone(rng);
                let out = range_query(&net, origin, lo, lo + size, q, FloodMode::Directed).unwrap();
                total += u64::from(out.delay);
            }
            total as f64 / queries as f64
        };
        let small = avg_delay(2.0, &mut rng);
        let large = avg_delay(300.0, &mut rng);
        assert!(large > small + 5.0, "delay must grow with range: small {small}, large {large}");
    }

    #[test]
    fn dcf_point_query_is_a_pure_routing() {
        let net = build(150, 50, 94);
        let mut rng = simnet::rng_from_seed(940);
        let origin = net.random_zone(&mut rng);
        let out = range_query(&net, origin, 500.0, 500.0, 1, FloodMode::Directed).unwrap();
        assert_eq!(out.dest_zones, 1);
        assert!(out.exact);
    }

    #[test]
    fn dcf_rejects_empty_range() {
        let net = build(10, 0, 95);
        assert!(matches!(
            range_query(&net, 0, 5.0, 1.0, 1, FloodMode::Directed),
            Err(CanError::EmptyRange { .. })
        ));
    }

    #[test]
    fn dcf_message_cost_comparable_to_destinations() {
        let net = build(500, 0, 96);
        let mut rng = simnet::rng_from_seed(960);
        for q in 0..30 {
            let lo: f64 = rng.gen_range(0.0..700.0);
            let origin = net.random_zone(&mut rng);
            let out = range_query(&net, origin, lo, lo + 200.0, q, FloodMode::Directed).unwrap();
            // Messages ≥ routing + (reached − 1); bounded by a small factor
            // of the destination count plus the routing path.
            assert!(out.messages as usize >= out.dest_zones.saturating_sub(1));
            assert!(
                (out.messages as f64) < 6.0 * out.dest_zones as f64 + 120.0,
                "messages {} for {} zones",
                out.messages,
                out.dest_zones
            );
        }
    }
}
