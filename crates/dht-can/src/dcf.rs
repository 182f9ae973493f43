//! DCF range queries: route to the median, then flood the range's image
//! (Andrzejak & Xu's directed controlled flooding).
//!
//! A query `[lo, hi]` maps to the Hilbert-curve segment of its normalised
//! endpoints: the cells, scattered over the square, the flood must cover.
//! One descent of the CAN's split tree ([`CanNet::zones_meeting_cells`])
//! turns the segment into the set of zones holding one of its cells — the
//! query's ground truth — once per query, testing each tree node's curve
//! span against the segment as integers; every later "does this zone meet
//! the range" is a stamp read. The query first routes greedily to the zone
//! owning the **median** value, then spreads over those zones:
//!
//! * [`FloodMode::Directed`] — each message piggybacks the set of zones
//!   already informed along its branch, so a zone never forwards to a zone
//!   its branch has seen (the "controlled" part; residual duplicates across
//!   independent branches remain, as in the original).
//! * [`FloodMode::Naive`] — forward to every intersecting neighbor
//!   unconditionally; receivers dedup. The `ablation_flood` experiment
//!   quantifies the difference.
//!
//! The piggybacked set is never built: it follows from the branch. A zone
//! `a` forwards to `T(a) = N_due(a) \ I`, its due neighbors the informed
//! set `I` of its branch lacks, so by induction on the branch `I` is the
//! median zone plus the due neighbors of every zone on it. A zone first
//! reached from `s` therefore forwards to a due neighbor `n` other than
//! the median exactly when `n` neighbors no ancestor-or-self of `s` on the
//! tree of first arrivals, whose parent links the query keeps per zone.
//! The test reads the adjacency lists of `s` and of its parent. Deeper
//! ancestors first heard the query three hops or more before the zone in
//! hand, and they are walked only when some zone that first heard it that
//! early neighbors `n` — a per-zone minimum the flood keeps. A fault-free
//! flood is a breadth-first search of the due zones (each first hears the
//! query at its distance from the median), so no such zone exists and the
//! walk never runs; under drops, loss, partitions and crashes it keeps the
//! rule exact. "Controlled" means what it did with a copied set per hop:
//! the same zones are skipped, the same messages go out in the same order.
//!
//! The [`Answers`] ledger keeps each zone's cheapest arrival as it
//! answers, so the query's latency needs no log of deliveries.
//!
//! Delay = median-routing hops + flood eccentricity. Both grow with `√N`,
//! and the second also grows with the queried range — the behaviour the
//! Armada paper's Figures 5 and 7 contrast with PIRA.

use crate::{CanError, CanNet};
use simnet::{Answers, Envelope, FaultPlan, NetModel, NodeId, QueryScratch, Sim, SimScratch};

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

#[derive(Debug, Clone, Copy)]
enum DcfMsg {
    /// Greedy routing toward the median point.
    Route,
    /// Flooding phase: the sender's branch is its informed set.
    Flood,
}

/// No zone: the median's parent on the tree of first arrivals.
const NO_ZONE: u32 = u32::MAX;

/// What a directed flood keeps per due zone for one query.
#[derive(Debug, Clone, Copy, Default)]
struct Reach {
    /// The zone whose message reached it first ([`NO_ZONE`] for the
    /// median); set when it answers.
    parent: u32,
    /// The earliest hop at which a neighbor of it first heard the query
    /// (`u32::MAX` while none has).
    near: u32,
}

/// DCF's reusable per-thread state, slotted into a [`QueryScratch`]. Every
/// field is reset at query start (the [`Answers`] stamps by generation,
/// `reach` over the ground truth), so reuse is invisible to results,
/// metrics, and traces — across membership changes too.
#[derive(Default)]
struct DcfScratch {
    sim: SimScratch<DcfMsg>,
    /// The ground truth: every zone holding a cell of the query's segment.
    truth: Vec<NodeId>,
    answers: Answers<u64>,
    /// Per zone id; only the ground truth's entries are read.
    reach: Vec<Reach>,
    targets: Vec<NodeId>,
    /// Deep ancestor walks the query made (see the module docs).
    deep_walks: u64,
}

/// Neighbor ids of one near zone a [`Branch`] compares at once.
const LANES: usize = 8;

/// The branch a zone forwards on, as its due neighbors are tested against
/// it: whether the branch through `s` — the zone whose message reached it
/// first at `hop` — has informed one, that is, whether one neighbors `s` or
/// an ancestor of `s`.
struct Branch<'a> {
    /// The neighbor ids of `s` and of its parent, padded with [`NO_ZONE`]:
    /// a due neighbor is compared with all of them at once, without a
    /// branch per id (≈ 1.10× a whole query against two list scans).
    near: [u32; 2 * LANES],
    /// A list of the two longer than [`LANES`], searched as a list.
    long: [&'a [u32]; 2],
    /// The parent of `s`'s parent, where a deep walk starts: it and every
    /// zone above first heard the query at `hop − 3` or before. [`NO_ZONE`]
    /// when the branch has no such zone.
    deep: u32,
    /// `hop − 3` (meaningful only when `deep` is a zone).
    deep_hop: u32,
}

impl<'a> Branch<'a> {
    /// The branch through `s` ([`NO_ZONE`] at the median, whose branch has
    /// informed the median alone) for a delivery at `hop`.
    fn of(net: &'a CanNet, reach: &[Reach], s: u32, hop: u32) -> Self {
        let mut branch =
            Branch { near: [NO_ZONE; 2 * LANES], long: [&[], &[]], deep: NO_ZONE, deep_hop: 0 };
        let mut near = |i: usize, zone: u32| {
            let list = net.neighbors(zone as NodeId);
            if list.len() <= LANES {
                branch.near[i * LANES..][..list.len()].copy_from_slice(list);
            } else {
                branch.long[i] = list;
            }
        };
        if s != NO_ZONE {
            near(0, s);
            let parent = reach[s as usize].parent;
            if parent != NO_ZONE {
                near(1, parent);
                branch.deep = reach[parent as usize].parent;
                branch.deep_hop = hop.wrapping_sub(3);
            }
        }
        branch
    }

    /// Whether the branch has informed the due zone `n`. The zones above
    /// `s`'s parent are walked only if a zone that first heard the query
    /// as early as they did neighbors `n` (`reach[n].near`).
    fn informed(&self, net: &CanNet, reach: &[Reach], n: NodeId, deep_walks: &mut u64) -> bool {
        let id = n as u32;
        let near = self.near.iter().fold(false, |hit, &lane| hit | (lane == id));
        if near || self.long.iter().any(|list| list.contains(&id)) {
            return true;
        }
        if self.deep == NO_ZONE || reach[n].near > self.deep_hop {
            return false;
        }
        *deep_walks += 1;
        let mut a = self.deep;
        while a != NO_ZONE {
            if net.neighbors(a as NodeId).contains(&id) {
                return true;
            }
            a = reach[a as usize].parent;
        }
        false
    }
}

/// The deep ancestor walks the last query run on `scratch` made: how often
/// a zone's due neighbor could be informed by an ancestor above its
/// sender's parent (see the module docs). Zero after every fault-free
/// query and every naive flood.
pub fn deep_walks(scratch: &mut QueryScratch) -> u64 {
    scratch.slot::<DcfScratch>().deep_walks
}

/// Executes a plain DCF range query from `origin` over `[lo, hi]`: fresh
/// buffers, no faults, the `unit` cost model, no trace. [`query`] is the
/// full surface.
///
/// # Errors
///
/// Returns [`CanError::EmptyRange`] unless `lo <= hi` (inverted or NaN
/// bounds) and [`CanError::NoSuchZone`] for dead origins.
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
    // NaN compares false against everything, so requiring `lo <= hi`
    // rejects a NaN bound along with inverted ones (`lo > hi` lets it by).
    let ordered = lo <= hi;
    if !ordered {
        return Err(CanError::EmptyRange { lo, hi });
    }
    net.zone(origin)?;

    let DcfScratch { sim: sim_scratch, truth, answers, reach, targets, deep_walks } =
        scratch.slot::<DcfScratch>();

    // The query's segment: curve cells of the normalised range. One
    // descent of the split tree turns it into the ground truth, stamped
    // per zone: from here on "does this zone meet the range" is
    // `answers.is_due`, one read.
    net.zones_meeting_cells(net.cell_of_value(lo), net.cell_of_value(hi), truth);
    answers.begin(net.node_bound(), truth.iter().copied());
    if reach.len() < net.node_bound() {
        reach.resize(net.node_bound(), Reach::default());
    }
    for &zone in truth.iter() {
        reach[zone].near = u32::MAX;
    }
    *deep_walks = 0;

    // Median target point.
    let (mx, my) = net.point_of_value((lo + hi) / 2.0);

    let mut sim: Sim<DcfMsg> = Sim::from_scratch(seed, sim_scratch).with_net(*model);
    if let Some(faults) = faults {
        sim = sim.with_faults(faults);
    }
    if trace {
        sim = sim.with_trace(simnet::TraceSink::new());
    }
    sim.send(origin, origin, 0, DcfMsg::Route);

    let mut delay: u32 = 0;
    // The zone the routing phase ended at: the root of the tree of first
    // arrivals, and on every branch's informed set from the start.
    let mut median = origin;
    sim.run(|sim, env: Envelope<DcfMsg>| {
        let node = env.to;
        match env.payload {
            DcfMsg::Route => {
                if net.rect_of(node).torus_dist2(mx, my) > 0.0 {
                    // Continue greedy routing.
                    let (_, next) = net
                        .neighbors(node)
                        .iter()
                        .map(|&n| (net.rect_of(n as NodeId).torus_dist2(mx, my), n))
                        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
                        .expect("zones have neighbors");
                    sim.forward(&env, next as NodeId, DcfMsg::Route);
                } else {
                    // Arrived at the median zone: switch to flooding by
                    // re-delivering locally as a flood message (carrying
                    // the routing phase's accumulated cost).
                    median = node;
                    sim.send_with_cost(node, node, env.hop, env.cost, DcfMsg::Flood);
                }
            }
            DcfMsg::Flood => {
                if !answers.is_due(node) {
                    return;
                }
                sim.trace_answer(&env);
                // Receiver-side dedup in both modes: only a zone's first
                // visit collects and forwards (a later one can only lower
                // its arrival cost).
                if !answers.first_answer(node, env.cost) {
                    return;
                }
                delay = delay.max(env.hop);
                for &(v, h) in net.records_of(node) {
                    if v >= lo && v <= hi {
                        answers.push(h);
                    }
                }
                // Targets go out in `neighbors(node)` order: the order of
                // sends is the order of deliveries, and which duplicate
                // arrives first decides who forwards.
                let due =
                    net.neighbors(node).iter().map(|&n| n as NodeId).filter(|&n| answers.is_due(n));
                targets.clear();
                match mode {
                    FloodMode::Naive => targets.extend(due),
                    FloodMode::Directed => {
                        // No directed flood sends to the median, so its
                        // first delivery is the one it sent itself: the
                        // root of the tree of first arrivals.
                        let s = if node == median { NO_ZONE } else { env.from as u32 };
                        reach[node].parent = s;
                        let branch = Branch::of(net, reach, s, env.hop);
                        for n in due {
                            reach[n].near = reach[n].near.min(env.hop);
                            if n != median && !branch.informed(net, reach, n, deep_walks) {
                                targets.push(n);
                            }
                        }
                    }
                }
                for &t in targets.iter() {
                    sim.forward(&env, t, DcfMsg::Flood);
                }
            }
        }
    });
    debug_assert!(
        *deep_walks == 0 || faults.is_some_and(|f| !f.is_fault_free()),
        "a fault-free directed flood is a breadth-first search and never walks deep",
    );

    let records = sim.take_trace().map(simnet::TraceSink::into_records);
    let messages = sim.stats().messages_sent;
    sim.recycle(sim_scratch);
    Ok((
        DcfOutcome {
            results: answers.results(),
            delay,
            latency: answers.latency(),
            messages,
            dest_zones: truth.len(),
            reached_zones: answers.reached(),
            exact: answers.exact(),
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
    fn nan_bounds_are_an_empty_range_on_the_native_entry_points() {
        // Regression: `lo > hi` let NaN by — a NaN `lo` came back `Ok`,
        // empty and "exact"; a NaN `hi` panicked in `interval_blocks`.
        let net = build(10, 5, 95);
        let (faults, unit) = (FaultPlan::new(), NetModel::unit());
        for (lo, hi) in [(f64::NAN, 5.0), (5.0, f64::NAN), (f64::NAN, f64::NAN)] {
            for mode in [FloodMode::Directed, FloodMode::Naive] {
                let plain = range_query(&net, 0, lo, hi, 1, mode);
                assert!(matches!(plain, Err(CanError::EmptyRange { .. })), "[{lo}, {hi}]");
                let mut scratch = QueryScratch::new();
                let priced = range_query_priced_scratch(
                    &net,
                    0,
                    lo,
                    hi,
                    1,
                    mode,
                    &faults,
                    &unit,
                    &mut scratch,
                );
                assert!(matches!(priced, Err(CanError::EmptyRange { .. })), "[{lo}, {hi}]");
            }
        }
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
