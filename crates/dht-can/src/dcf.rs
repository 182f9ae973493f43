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
//! The piggybacked set is simulated, not copied. A branch's informed set
//! is the median zone plus the targets of every forwarding step from there
//! to the message in hand; a message carries the index of the last step's
//! *frame* `{parent, start, len, mask}` — that step's own targets, as a run
//! of one per-query id arena, and a 64-bit filter of every target on the
//! chain — and membership walks the parent chain only while the filter
//! says the zone may be on it. "Controlled" means what it did with a
//! copied, sorted set per hop: the same zones are skipped, the same
//! messages go out in the same order. The arena holds one id per flood
//! message sent, where copies held `Σ |informed|` over every forwarding
//! zone.
//!
//! The [`Answers`] ledger keeps each zone's cheapest arrival as it
//! answers, so the query's latency needs no log of deliveries.
//!
//! Delay = median-routing hops + flood eccentricity. Both grow with `√N`,
//! and the second also grows with the queried range — the behaviour the
//! Armada paper's Figures 5 and 7 contrast with PIRA.

use crate::hilbert;
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
    /// Flooding phase; the branch's informed set is the median zone plus
    /// the targets of every frame on the chain from `frame` up
    /// ([`NO_FRAME`]: the median zone alone).
    Flood { frame: u32 },
}

/// The empty chain: a flood message nobody has forwarded yet, or any
/// message of a naive flood.
const NO_FRAME: u32 = u32::MAX;

/// One forwarding step of a directed flood: the zones it sent to
/// (`ids[start..start + len]` of the arena), the step it continues, and
/// the filter of every zone on the chain it ends.
#[derive(Debug, Clone, Copy)]
struct Frame {
    parent: u32,
    start: u32,
    len: u32,
    /// The parent's mask with [`bit`] set for each of this step's targets:
    /// a clear bit means no frame from here up informed the zone.
    mask: u64,
}

/// The one bit of a 64-bit frame mask a zone sets: the top six bits of a
/// multiply-shift hash of its id.
fn bit(zone: NodeId) -> u64 {
    1 << ((zone as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58)
}

/// The informed sets of one directed flood as parent-pointer frames over
/// one id arena (see the module docs). Membership walks the chain — the
/// `O(|informed|)` a lookup in a copied set costs as well — but stops at
/// the first frame whose mask rules the zone out: a width-20 query at
/// `N = 10⁴` makes ≈ 1 900 frame visits for its ≈ 830 lookups, where the
/// plain walk made ≈ 4 200.
#[derive(Default)]
struct Informed {
    frames: Vec<Frame>,
    ids: Vec<NodeId>,
}

impl Informed {
    fn clear(&mut self) {
        self.frames.clear();
        self.ids.clear();
    }

    /// Whether the chain ending at `frame` already covers `zone`.
    fn contains(&self, mut frame: u32, zone: NodeId) -> bool {
        let bit = bit(zone);
        while frame != NO_FRAME {
            let Frame { parent, start, len, mask } = self.frames[frame as usize];
            // Masks only lose bits toward the root.
            if mask & bit == 0 {
                return false;
            }
            if self.ids[start as usize..][..len as usize].contains(&zone) {
                return true;
            }
            frame = parent;
        }
        false
    }

    /// Extends the chain ending at `parent` by one step that informs
    /// `targets`; the new chain's end.
    fn push(&mut self, parent: u32, targets: &[NodeId]) -> u32 {
        let fit = |n: usize| u32::try_from(n).expect("a flood forwards fewer than 2^32 messages");
        let frame = fit(self.frames.len());
        let inherited = if parent == NO_FRAME { 0 } else { self.frames[parent as usize].mask };
        let mask = targets.iter().fold(inherited, |mask, &t| mask | bit(t));
        let (start, len) = (fit(self.ids.len()), fit(targets.len()));
        self.frames.push(Frame { parent, start, len, mask });
        self.ids.extend_from_slice(targets);
        frame
    }
}

/// DCF's reusable per-thread state, slotted into a [`QueryScratch`]. Every
/// field is reset at query start (the [`Answers`] stamps by generation),
/// so reuse is invisible to results, metrics, and traces — across
/// membership changes too.
#[derive(Default)]
struct DcfScratch {
    sim: SimScratch<DcfMsg>,
    /// The ground truth: every zone holding a cell of the query's segment.
    truth: Vec<NodeId>,
    answers: Answers<u64>,
    informed: Informed,
    targets: Vec<NodeId>,
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
    let order = net.config().hilbert_order;

    let DcfScratch { sim: sim_scratch, truth, answers, informed, targets } =
        scratch.slot::<DcfScratch>();

    // The query's segment: curve cells of the normalised range. One
    // descent of the split tree turns it into the ground truth, stamped
    // per zone: from here on "does this zone meet the range" is
    // `answers.is_due`, one read.
    let ta = hilbert::cell_of(order, net.normalize(lo));
    let tb = hilbert::cell_of(order, net.normalize(hi));
    net.zones_meeting_cells(ta, tb, truth);
    answers.begin(net.node_bound(), truth.iter().copied());

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

    informed.clear();
    let mut delay: u32 = 0;
    // The zone the routing phase ended at: on every branch's informed set
    // from the start, so kept beside the frames rather than in each chain.
    let mut median = origin;
    sim.run(|sim, env: Envelope<DcfMsg>| {
        let node = env.to;
        match env.payload {
            DcfMsg::Route => {
                let rect = net.zone(node).expect("live").rect();
                if rect.torus_dist2(mx, my) > 0.0 {
                    // Continue greedy routing.
                    let (_, next) = net
                        .neighbors(node)
                        .iter()
                        .map(|&n| (net.zone(n).expect("live").rect().torus_dist2(mx, my), n))
                        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
                        .expect("zones have neighbors");
                    sim.forward(&env, next, DcfMsg::Route);
                } else {
                    // Arrived at the median zone: switch to flooding by
                    // re-delivering locally as a flood message (carrying
                    // the routing phase's accumulated cost).
                    median = node;
                    let flood = DcfMsg::Flood { frame: NO_FRAME };
                    sim.send_with_cost(node, node, env.hop, env.cost, flood);
                }
            }
            DcfMsg::Flood { frame } => {
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
                for &(v, h) in net.zone(node).expect("live").records() {
                    if v >= lo && v <= hi {
                        answers.push(h);
                    }
                }
                // Targets go out in `neighbors(node)` order: the order of
                // sends is the order of deliveries, and which duplicate
                // arrives first decides who forwards.
                let directed = mode == FloodMode::Directed;
                targets.clear();
                targets.extend(net.neighbors(node).iter().copied().filter(|&n| {
                    answers.is_due(n) && !(directed && (n == median || informed.contains(frame, n)))
                }));
                if targets.is_empty() {
                    return;
                }
                let frame = if directed { informed.push(frame, targets) } else { NO_FRAME };
                for &t in targets.iter() {
                    sim.forward(&env, t, DcfMsg::Flood { frame });
                }
            }
        }
    });

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
    use proptest::prelude::*;
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
    fn informed_set_memory_is_one_id_per_flood_message() {
        // A whole-domain flood: every zone answers and forwards. Copied
        // informed sets would total Σ|informed| over the forwarding zones;
        // the frames hold the forwarders' own targets and nothing else.
        let net = build(2000, 0, 97);
        let mut scratch = QueryScratch::new();
        let unit = NetModel::unit();
        let (out, _) =
            query(&net, 7, 0.0, 1000.0, 3, FloodMode::Directed, None, &unit, false, &mut scratch)
                .unwrap();
        assert!(out.exact);
        assert_eq!(out.dest_zones, 2000);
        let informed = &scratch.slot::<DcfScratch>().informed;
        assert!(
            informed.ids.len() as u64 <= out.messages,
            "{} informed ids for {} messages",
            informed.ids.len(),
            out.messages
        );
        assert!(informed.ids.len() >= 1999, "every other zone was some forwarder's target");
        assert!(informed.frames.len() <= 2000, "at most one frame per forwarding zone");
    }

    proptest! {
        #[test]
        fn the_masked_chain_answers_what_the_unmasked_walk_does(
            steps in prop::collection::vec((any::<u32>(), prop::collection::vec(0usize..300, 1..6)), 1..120),
            probes in prop::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 1..200),
        ) {
            // A random frame tree: each step continues a random earlier
            // chain or starts a new one, over ids dense enough that their
            // mask bits collide.
            let mut informed = Informed::default();
            let chain = |informed: &Informed, pick: u32| {
                let frames = informed.frames.len() as u32;
                Some(pick % (frames + 1)).filter(|&f| f < frames).unwrap_or(NO_FRAME)
            };
            for (pick, targets) in &steps {
                informed.push(chain(&informed, *pick), targets);
            }
            // The walk the mask cuts short: every frame's ids, up the chain.
            let walk = |mut frame: u32, zone: NodeId| {
                while frame != NO_FRAME {
                    let Frame { parent, start, len, .. } = informed.frames[frame as usize];
                    if informed.ids[start as usize..][..len as usize].contains(&zone) {
                        return true;
                    }
                    frame = parent;
                }
                false
            };
            // Probes name an informed id half the time, any id otherwise.
            for &(pick, raw, informed_id) in &probes {
                let zone = if informed_id {
                    informed.ids[raw as usize % informed.ids.len()]
                } else {
                    raw as usize % 300
                };
                let frame = chain(&informed, pick);
                prop_assert_eq!(informed.contains(frame, zone), walk(frame, zone));
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
