//! Property tests: Hilbert-curve invariants, CAN tiling under arbitrary
//! growth, the split tree's curve-span descent against the box descent and
//! the full-tiling scan, DCF exactness on random workloads — with a
//! scratch reused across membership changes — and the directed flood held
//! to a reference that piggybacks copied informed sets.

use dht_can::dcf::{self, DcfOutcome, FloodMode};
use dht_can::{hilbert, CanConfig, CanNet, Rect};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use simnet::{Envelope, FaultPlan, NetModel, NodeId, QueryScratch, Sim, TraceRecord};
use std::collections::{BTreeMap, BTreeSet};

/// The reference the descent is tested against: every live zone tested
/// against every box.
fn scan(net: &CanNet, boxes: &[Rect]) -> Vec<NodeId> {
    net.live_zones()
        .filter(|&z| boxes.iter().any(|b| net.zone(z).unwrap().rect().intersects(b)))
        .collect()
}

/// The box descent's answer, in split-tree order; into a dirty buffer,
/// which it clears.
fn box_descent(net: &CanNet, boxes: &[Rect]) -> Vec<NodeId> {
    let (mut boxes, mut zones) = (boxes.to_vec(), vec![usize::MAX; 3]);
    net.zones_intersecting_into(&mut boxes, &mut zones);
    zones
}

/// The span descent's answer for curve cells `a..=b`, in split-tree order;
/// into a dirty buffer, which it clears.
fn span_descent(net: &CanNet, (a, b): (u64, u64)) -> Vec<NodeId> {
    let mut zones = vec![usize::MAX; 3];
    net.zones_meeting_cells(a, b, &mut zones);
    zones
}

/// The curve cells `dcf::query` floods for `[lo, hi]`.
fn cells_of(net: &CanNet, lo: f64, hi: f64) -> (u64, u64) {
    let order = net.config().hilbert_order;
    (hilbert::cell_of(order, net.normalize(lo)), hilbert::cell_of(order, net.normalize(hi)))
}

/// The geometric footprint of curve cells `a..=b`: their aligned squares.
fn image_of(net: &CanNet, (a, b): (u64, u64)) -> Vec<Rect> {
    let order = net.config().hilbert_order;
    hilbert::interval_blocks(order, a, b).into_iter().map(|s| s.to_unit_rect(order)).collect()
}

/// A zone's cells as curve intervals, read off its rectangle alone: one
/// aligned block for a square, one per stacked half for a 2:1 rectangle,
/// the one cell holding it below the cell resolution.
fn zone_intervals(net: &CanNet, zone: NodeId) -> Vec<(u64, u64)> {
    let order = net.config().hilbert_order;
    let side = (1u64 << order) as f64;
    let r = *net.zone(zone).unwrap().rect();
    let (x, y) = ((r.x0 * side) as u64, (r.y0 * side) as u64);
    let (w, h) = ((r.x1 - r.x0) * side, (r.y1 - r.y0) * side);
    let block = |y: u64, side: u64| {
        let len = side * side;
        let start = hilbert::xy2d(order, x, y) & !(len - 1);
        (start, start + len - 1)
    };
    if w < 1.0 || h < 1.0 {
        vec![block(y, 1)]
    } else if w == h {
        vec![block(y, w as u64)]
    } else {
        assert_eq!(h, 2.0 * w, "splits alternate: zone {zone} is a square or a tall 2:1");
        vec![block(y, w as u64), block(y + w as u64, w as u64)]
    }
}

/// One membership event drawn from `(op, pick)`: joins half the time, a
/// graceful leave or a crash of a random live zone otherwise. Departures
/// take the sibling-absorb or the donor path as the tree dictates and free
/// zone slots and tree-arena entries that later joins recycle.
fn churn(net: &mut CanNet, rng: &mut SmallRng, op: u8, pick: u64) {
    let live: Vec<NodeId> = net.live_zones().collect();
    let victim = live[(pick % live.len() as u64) as usize];
    match op {
        0 | 1 => drop(net.join(rng)),
        2 => drop(net.leave(victim)),
        _ => drop(net.crash(victim)),
    }
}

/// `[lo, hi]` from `origin`, traced, through the engine's full surface.
fn traced(
    net: &CanNet,
    (origin, lo, hi, seed): (NodeId, f64, f64, u64),
    mode: FloodMode,
    scratch: &mut QueryScratch,
) -> (DcfOutcome, Option<Vec<TraceRecord>>) {
    dcf::query(net, origin, lo, hi, seed, mode, None, &NetModel::unit(), true, scratch).unwrap()
}

/// A reference flood message: greedy routing, or a flood message carrying
/// a copy of its branch's informed set.
#[derive(Debug, Clone)]
enum RefMsg {
    Route,
    Flood(Vec<NodeId>),
}

/// Directed controlled flooding as Andrzejak and Xu state it, on a `Sim`
/// of its own: route greedily to the median's zone, then every zone
/// reached for the first time forwards to its neighbors in the range that
/// the informed set its message carries lacks, and hands each of them a
/// copy of that set with its targets added. Ground truth, dedup and
/// latency are kept in ordered maps over a scan of every zone.
fn reference_query(
    net: &CanNet,
    (origin, lo, hi, seed): (NodeId, f64, f64, u64),
    faults: Option<&FaultPlan>,
    model: &NetModel,
) -> DcfOutcome {
    let truth: BTreeSet<NodeId> =
        scan(net, &image_of(net, cells_of(net, lo, hi))).into_iter().collect();
    let (mx, my) = net.point_of_value((lo + hi) / 2.0);
    let dist = |zone: NodeId| net.zone(zone).unwrap().rect().torus_dist2(mx, my);
    let mut sim: Sim<RefMsg> = Sim::new(seed).with_net(*model);
    if let Some(faults) = faults {
        sim = sim.with_faults(faults);
    }
    sim.send(origin, origin, 0, RefMsg::Route);
    // Each answering zone's cheapest arrival cost.
    let mut arrivals: BTreeMap<NodeId, u64> = BTreeMap::new();
    let (mut results, mut delay) = (Vec::new(), 0);
    sim.run(|sim, env: Envelope<RefMsg>| {
        let node = env.to;
        match &env.payload {
            RefMsg::Route if dist(node) > 0.0 => {
                let next = net
                    .neighbors(node)
                    .iter()
                    .map(|&n| n as NodeId)
                    .min_by(|&a, &b| dist(a).partial_cmp(&dist(b)).unwrap())
                    .unwrap();
                sim.forward(&env, next, RefMsg::Route);
            }
            RefMsg::Route => {
                sim.send_with_cost(node, node, env.hop, env.cost, RefMsg::Flood(vec![node]));
            }
            RefMsg::Flood(informed) => {
                if !truth.contains(&node) {
                    return;
                }
                if let Some(cost) = arrivals.get_mut(&node) {
                    *cost = (*cost).min(env.cost);
                    return;
                }
                arrivals.insert(node, env.cost);
                delay = delay.max(env.hop);
                let records = net.zone(node).unwrap().records();
                results
                    .extend(records.iter().filter(|&&(v, _)| v >= lo && v <= hi).map(|&(_, h)| h));
                let targets: Vec<NodeId> = net
                    .neighbors(node)
                    .iter()
                    .map(|&n| n as NodeId)
                    .filter(|n| truth.contains(n) && !informed.contains(n))
                    .collect();
                let mut carried = informed.clone();
                carried.extend(&targets);
                for &t in &targets {
                    sim.forward(&env, t, RefMsg::Flood(carried.clone()));
                }
            }
        }
    });
    results.sort_unstable();
    results.dedup();
    DcfOutcome {
        results,
        delay,
        latency: arrivals.values().copied().max().unwrap_or(0),
        messages: sim.stats().messages_sent,
        dest_zones: truth.len(),
        reached_zones: arrivals.len(),
        exact: arrivals.len() == truth.len(),
    }
}

#[test]
fn the_directed_flood_equals_the_copied_set_reference() {
    // Built and churned CANs of three sizes; no plan, every hostile plan
    // (`split-brain` at an epoch where it is open) and drops beside
    // crashed zones; the `unit` and `wan` models; widths from a point to
    // the whole domain.
    let cfg = CanConfig { domain_lo: 0.0, domain_hi: 1000.0, ..CanConfig::default() };
    let (mut fault_free_walks, mut dropped_walks) = (0, 0);
    for (n, seed) in [(40usize, 1u64), (300, 2), (1200, 3)] {
        for churned in [false, true] {
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = CanNet::build(cfg, n, &mut rng).unwrap();
            for h in 0..2 * n as u64 {
                net.publish(rng.gen_range(0.0..=1000.0), h);
            }
            if churned {
                for _ in 0..n / 2 {
                    let (op, pick) = (rng.gen_range(0u8..4), rng.gen());
                    churn(&mut net, &mut rng, op, pick);
                }
                net.check_invariants().unwrap();
            }
            let mut plans: Vec<(&str, Option<FaultPlan>)> = vec![("none", None)];
            for name in simnet::HOSTILE_PLAN_NAMES {
                let mut plan = FaultPlan::named_hostile(name).unwrap();
                plan.set_epoch(1);
                plans.push((name, Some(plan)));
            }
            let mut dropping = FaultPlan::with_drop_prob(0.3);
            for _ in 0..n / 20 {
                dropping.crash(net.random_zone(&mut rng));
            }
            plans.push(("drop", Some(dropping)));
            let mut scratch = QueryScratch::new();
            for (name, plan) in &plans {
                for model in [NetModel::unit(), NetModel::wan()] {
                    for q in 0..8u64 {
                        let width = [0.0, 5.0, 40.0, 250.0, 1000.0][q as usize % 5];
                        let lo = rng.gen_range(0.0..=1000.0 - width);
                        let req = (net.random_zone(&mut rng), lo, lo + width, q);
                        let (origin, lo, hi, seed) = req;
                        let mode = FloodMode::Directed;
                        let plan = plan.as_ref();
                        let (got, _) = dcf::query(
                            &net,
                            origin,
                            lo,
                            hi,
                            seed,
                            mode,
                            plan,
                            &model,
                            false,
                            &mut scratch,
                        )
                        .unwrap();
                        let want = reference_query(&net, req, plan, &model);
                        let case = format!("{name} on N = {n} (churned {churned}), {req:?}");
                        assert_eq!(got, want, "{case}");
                        let walks = dcf::deep_walks(&mut scratch);
                        match *name {
                            "none" => fault_free_walks += walks,
                            "drop" => dropped_walks += walks,
                            _ => {}
                        }
                    }
                }
            }
        }
    }
    assert_eq!(fault_free_walks, 0, "a fault-free flood walked above a sender's parent");
    assert!(dropped_walks > 0, "no dropped flood walked above a sender's parent");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hilbert_roundtrip_random_cells(order in 1u32..12, raw in any::<u64>()) {
        let d = raw % (1u64 << (2 * order));
        let (x, y) = hilbert::d2xy(order, d);
        prop_assert!(x < 1 << order && y < 1 << order);
        prop_assert_eq!(hilbert::xy2d(order, x, y), d);
    }

    #[test]
    fn hilbert_blocks_cover_and_are_disjoint(order in 2u32..8, a_raw in any::<u64>(), b_raw in any::<u64>()) {
        let total = 1u64 << (2 * order);
        let (mut a, mut b) = (a_raw % total, b_raw % total);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let blocks = hilbert::interval_blocks(order, a, b);
        // Total covered area equals the interval length (disjointness +
        // coverage together).
        let covered: u64 = blocks.iter().map(|s| s.side * s.side).sum();
        prop_assert_eq!(covered, b - a + 1);
        // Every block's cells are inside the interval.
        for blk in &blocks {
            for x in blk.x..blk.x + blk.side {
                for y in blk.y..blk.y + blk.side {
                    let d = hilbert::xy2d(order, x, y);
                    prop_assert!(d >= a && d <= b, "cell {} outside [{}, {}]", d, a, b);
                }
            }
        }
    }

    #[test]
    fn can_tiling_survives_any_growth(n in 1usize..120, seed in 0u64..10_000) {
        let mut rng = simnet::rng_from_seed(seed);
        let net = CanNet::build(CanConfig::default(), n, &mut rng).unwrap();
        net.check_invariants().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn can_routing_always_delivers(n in 2usize..150, seed in 0u64..10_000) {
        let mut rng = simnet::rng_from_seed(seed);
        let net = CanNet::build(CanConfig::default(), n, &mut rng).unwrap();
        for _ in 0..10 {
            let (x, y) = (rng.gen::<f64>(), rng.gen::<f64>());
            let from = net.random_zone(&mut rng);
            let path = net.route_to_point(from, x, y).unwrap();
            let dest = *path.last().unwrap();
            prop_assert!(net.zone(dest).unwrap().rect().contains(x, y));
            // No zone repeats on a greedy path.
            let mut seen = path.clone();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), path.len());
        }
    }

    #[test]
    fn dcf_exact_on_random_networks_and_queries(
        n in 4usize..120,
        seed in 0u64..10_000,
        lo_frac in 0f64..1.0,
        size_frac in 0f64..1.0,
    ) {
        let cfg = CanConfig { domain_lo: 0.0, domain_hi: 1000.0, ..CanConfig::default() };
        let mut rng = simnet::rng_from_seed(seed);
        let mut net = CanNet::build(cfg, n, &mut rng).unwrap();
        for h in 0..60u64 {
            net.publish(rng.gen_range(0.0..=1000.0), h);
        }
        let lo = lo_frac * 999.0;
        let hi = (lo + size_frac * (1000.0 - lo)).min(1000.0);
        let origin = net.random_zone(&mut rng);
        let out = dcf::range_query(&net, origin, lo, hi, seed, FloodMode::Directed).unwrap();
        prop_assert!(out.exact, "[{}, {}] on N = {}", lo, hi, n);
        // Cross-check the result set against a direct scan.
        let mut expect: Vec<u64> = (0..net.len())
            .flat_map(|z| net.zone(z).unwrap().records().to_vec())
            .filter(|&(v, _)| v >= lo && v <= hi)
            .map(|(_, h)| h)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(out.results, expect);
    }

    #[test]
    fn split_tree_descent_equals_the_full_tiling_scan(
        n in 1usize..150,
        seed in 0u64..10_000,
        ops in prop::collection::vec((0u8..4, any::<u64>()), 0..60),
        lo_frac in 0f64..1.0,
        size_frac in 0f64..1.0,
        cell_raw in any::<u64>(),
    ) {
        let mut rng = simnet::rng_from_seed(seed);
        let mut net = CanNet::build(CanConfig::default(), n, &mut rng).unwrap();
        let order = net.config().hilbert_order;
        let last_cell = (1u64 << (2 * order)) - 1;
        // The span descent names the zones the box descent over the same
        // cells' aligned squares names, in the same order, and the set the
        // full-tiling scan finds.
        let agree = |net: &CanNet, cells: (u64, u64)| -> Result<Vec<NodeId>, TestCaseError> {
            let (image, got) = (image_of(net, cells), span_descent(net, cells));
            prop_assert_eq!(&got, &box_descent(net, &image), "cells {:?}", cells);
            let mut sorted = got.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, scan(net, &image), "cells {:?}", cells);
            Ok(got)
        };
        // Checked on the built net (round 0) and after the churn (round 1),
        // whose departures take the sibling-absorb and the donor path and
        // whose joins recycle freed tree nodes.
        for round in 0..2 {
            if round == 1 {
                for &(op, pick) in &ops {
                    churn(&mut net, &mut rng, op, pick);
                }
                net.check_invariants().map_err(TestCaseError::fail)?;
            }
            let lo = lo_frac * 999.0;
            let hi = (lo + size_frac * (1000.0 - lo)).min(1000.0);
            agree(&net, cells_of(&net, lo, hi))?;

            // The whole square is every live zone, in tree order.
            let mut all = agree(&net, (0, last_cell))?;
            all.sort_unstable();
            prop_assert_eq!(all, net.live_zones().collect::<Vec<_>>());

            // One curve cell lies in exactly one zone: its point's owner.
            let cell = cell_raw % (last_cell + 1);
            let (px, py) = hilbert::point_of_cell(order, cell);
            prop_assert_eq!(agree(&net, (cell, cell))?, vec![net.owner_of_point(px, py)]);

            // Every zone's own blocks hit that zone alone — a donor that
            // adopted a leaver's leaf included. A 2:1 zone whose halves
            // are not adjacent on the curve misses the cells between them:
            // one interval from its first cell to its last would not.
            for z in net.live_zones() {
                let blocks = zone_intervals(&net, z);
                for &block in &blocks {
                    prop_assert_eq!(agree(&net, block)?, vec![z], "zone {} block {:?}", z, block);
                }
                if let [(s0, e0), (s1, e1)] = blocks[..] {
                    let gap = (e0.min(e1) + 1, s0.max(s1) - 1);
                    if gap.0 <= gap.1 {
                        prop_assert!(!agree(&net, gap)?.contains(&z), "zone {} gap {:?}", z, gap);
                    }
                }
            }

            // The box descent on boxes no curve interval yields: the whole
            // square is every live zone; no box is no zone.
            let sorted = |mut zones: Vec<NodeId>| {
                zones.sort_unstable();
                zones
            };
            prop_assert_eq!(
                sorted(box_descent(&net, &[Rect::UNIT])),
                net.live_zones().collect::<Vec<_>>()
            );
            prop_assert_eq!(box_descent(&net, &[]), Vec::<NodeId>::new());

            // Boxes whose edges coincide with zone edges: `intersects` is
            // strict, so a zone's own rectangle hits that zone and none of
            // the neighbors it shares an edge with.
            let z = net.random_zone(&mut rng);
            let own = *net.zone(z).unwrap().rect();
            prop_assert_eq!(box_descent(&net, &[own]), vec![z]);
            let mut edges: Vec<Rect> =
                net.neighbors(z).iter().map(|&n| *net.zone(n as NodeId).unwrap().rect()).collect();
            edges.push(Rect { x0: own.x1, x1: own.x1, ..own }); // zero width: no area, no hit
            let hits = sorted(box_descent(&net, &edges));
            prop_assert!(!hits.contains(&z));
            prop_assert_eq!(hits, scan(&net, &edges));
        }
    }

    #[test]
    fn a_reused_scratch_is_invisible_across_membership_changes(
        n in 4usize..100,
        seed in 0u64..10_000,
        ops in prop::collection::vec((0u8..4, any::<u64>()), 1..40),
    ) {
        let cfg = CanConfig { domain_lo: 0.0, domain_hi: 1000.0, ..CanConfig::default() };
        let mut rng = simnet::rng_from_seed(seed);
        let mut net = CanNet::build(cfg, n, &mut rng).unwrap();
        for h in 0..80u64 {
            net.publish(rng.gen_range(0.0..=1000.0), h);
        }
        // One scratch lives through every query on every tiling; its
        // stamps, parent links and buffers from an earlier query — or an
        // earlier tiling, whose zone ids may since have been freed and
        // recycled — must match nothing in a later one.
        let mut reused = QueryScratch::new();
        let mut q = 0u64;
        for step in 0..=ops.len() {
            if step > 0 {
                let (op, pick) = ops[step - 1];
                churn(&mut net, &mut rng, op, pick);
                if step % 8 != 0 && step != ops.len() {
                    continue;
                }
            }
            for mode in [FloodMode::Directed, FloodMode::Naive] {
                let lo = rng.gen_range(0.0..900.0);
                let hi = lo + rng.gen_range(0.0..300.0);
                let req = (net.random_zone(&mut rng), lo, hi, q);
                q += 1;
                let fresh = traced(&net, req, mode, &mut QueryScratch::new());
                prop_assert_eq!(&traced(&net, req, mode, &mut reused), &fresh, "step {}", step);
                prop_assert!(fresh.0.exact);
                let image = image_of(&net, cells_of(&net, lo, hi));
                prop_assert_eq!(fresh.0.dest_zones, scan(&net, &image).len());
            }
        }
    }
}
