//! PIRA (§4.2) and MIRA (§5) — one query: a pruned descent of the origin's
//! forward routing tree, one message, one handler, one scratch, one gather.
//! The paper has MIRA be PIRA under `Multiple_hash`; here it is that and
//! nothing more, and PIRA is MIRA at arity one.
//!
//! The naming turns the query rectangle into a Kautz region `⟨LowT, HighT⟩`
//! ([`Naming::query_region`]), emitted as its two endpoint keys. Under
//! `Single_hash` interval preservation makes the region the query's exact
//! image. Under `Multiple_hash` it is the *corner region* `⟨Multiple_hash(mins),
//! Multiple_hash(maxs)⟩`, which partial-order preservation makes a bound:
//! every peer whose hyper-rectangle meets the query lies in it, not every
//! peer of it does. Then the naming hands back the scaled rectangle too,
//! and that `Option` is the one thing the handler branches on.
//!
//! A region whose endpoints share no prefix splits into at most three
//! sub-regions that do (the paper's rule, [`kautz::key::split_region`]).
//! Each sub-query descends the origin's forward routing tree as a message
//! `(sub, hops_left, inside)`, under the sub-query's `f`:
//!
//! * `f = |ComS|` where `ComS` is the longest string that is both a prefix
//!   of the sub-region's common prefix `ComT` and a suffix of the origin's
//!   PeerID ([`PeerKey::longest_suffix_prefix`](fissione::PeerKey::longest_suffix_prefix));
//! * a peer holding the message with `d = hops_left` covers — at the
//!   destination level — exactly the strings prefixed by
//!   `ComS ++ id[(f+d)..]`, so it forwards to an out-neighbor `C` iff the
//!   *sub-query's* region meets a string prefixed by `ComS ++ C.id[(f+d−1)..]`
//!   ([`SubtreeProbe::verdict`], on `ComS`'s bits taken once per sub-query)
//!   and, under a rectangle, that prefix's hyper-rectangle meets the query
//!   ([`ScaledRect::meets_prefix`], on `ComS` decoded once per sub-query);
//! * the verdict also says whether that prefix lies strictly between the
//!   region's two boundary paths — *inside*, so that every extension of it
//!   meets the region — and the message carries that bit. Below an inside
//!   peer `X`, a child `C` with `depth(C) + 1 ≥ depth(X)` extends `X`'s
//!   shift, so its subtree prefix extends `X`'s and is inside too: it is
//!   forwarded with no key test (a shorter child, possible only where the
//!   neighborhood invariant is violated, is tested). Only the children of
//!   peers on the two boundary paths pay for the comparison;
//! * a visited peer answers iff its zone meets the query: under the key
//!   region, iff its rank lies in the sub-region's destination run (its
//!   routing-table key [intersects](KeyRegion::intersects) the sub-region
//!   exactly then), or under a rectangle iff its own hyper-rectangle meets
//!   the query (at the destination level `d = 0` that is every reached
//!   peer; answering along the way additionally keeps the algorithm exact
//!   on covers that violate the neighborhood invariant). A delivery at
//!   `d = 0` under the key region reads no row.
//!
//! The destinations are the peers of the region's destination run — one
//! range of routing-table ranks, found by two binary searches — whose zone
//! meets the query: the run itself when the region is the image, so no list
//! is built. A lone sub-query's run is the region's; a split region's
//! sub-runs are searched inside it.
//!
//! The descent works on *ranks*, positions in the network's
//! [`RouteTable`](fissione::RouteTable), which lists the peers in PeerID
//! order: a peer's row is a rank interval, a region's destination run is a
//! rank range, and the answer ledger is indexed by rank, so a wide query
//! reads the table and the ledger in order. The simulator, the net model,
//! fault verdicts and traces see `NodeId`s; a message names its receiver
//! both ways.
//!
//! The handler only *marks* an answer. The records are read after the run,
//! by [`gather`], from the one sorted object column the network keeps: a
//! stretch of ranks that answered is one slice of it, and
//! [`record_filter`] keeps a record iff its point lies in the query — read
//! only for records under the two boundary keys when the region is the
//! image, since `Single_hash` is monotone.
//!
//! Delay is bounded by `hops_left ≤ len(origin.id)` regardless of the
//! query's size: `< 2·log₂N` worst case, `< log₂N` on average — the paper's
//! headline result.

use crate::engine::{descent_budget, in_rect};
use crate::{Armada, ArmadaError, QueryMetrics, QueryOutcome, RecordId};
use fissione::{FissioneNet, KeyRegion, ObjectKey};
use kautz::fixed::BoundaryInterval;
use kautz::key::SubtreeProbe;
use kautz::naming::{Naming, ScaledRect};
use kautz::KautzStr;
use simnet::{Answers, Envelope, FaultPlan, NodeId, QueryScratch, Sim, SimScratch, TraceRecord};
use std::ops::Range;

/// One in-flight sub-query message — `Copy`, so forwarding a message down
/// the routing tree moves eight bytes instead of cloning Kautz strings per
/// hop. What the sub-query prunes with, `f` included, lives once per query
/// in [`State::subs`], indexed by `sub`.
#[derive(Debug, Clone, Copy)]
struct Msg {
    /// Index into the per-query sub-query table.
    sub: u8,
    /// Remaining descent levels (at most [`fissione::MAX_PEER_DEPTH`]).
    hops_left: u8,
    /// Whether the receiver's subtree prefix lies strictly inside the
    /// sub-region, as its sender found ([`SubtreeProbe::verdict`]).
    inside: bool,
    /// The receiver's routing-table rank.
    rank: u32,
}

const _: () = assert!(std::mem::size_of::<Msg>() == 8, "a descent message outgrew 8 bytes");
const _: () = assert!(std::mem::size_of::<Envelope<Msg>>() == 40, "an envelope outgrew 40 bytes");

/// One sub-query, as the handler reads it per delivery.
struct Sub {
    /// The subtree probe: the sub-region and `ComS`.
    probe: SubtreeProbe,
    /// The sub-region's destination run: the ranks whose zone meets it.
    run: Range<usize>,
    /// Under a rectangle, `ComS` spelled out for the rectangle test.
    com_s: Option<KautzStr>,
    /// The levels below the origin, `b − f`.
    hops_left: u8,
}

/// The query's reusable per-thread state, slotted into a [`QueryScratch`]:
/// the simulator's collections plus the routing loop's working buffers.
/// Every field is reset or overwritten before it is read, so reuse is
/// invisible to results, metrics, and traces.
struct State {
    sim: SimScratch<Msg>,
    subs: Vec<Sub>,
    answers: Answers<RecordId>,
    /// Under a rectangle, the ranks of the run whose zone meets it.
    truth: Vec<usize>,
    /// Subtree-prefix buffer: `ComS ++ C.id[strip..]` per candidate child.
    prefix: KautzStr,
    /// Rectangle buffers for the answer and prune tests.
    zone: Vec<BoundaryInterval>,
    subtree: Vec<BoundaryInterval>,
}

impl Default for State {
    fn default() -> Self {
        State {
            sim: SimScratch::new(),
            subs: Vec::new(),
            answers: Answers::default(),
            truth: Vec::new(),
            prefix: KautzStr::empty(),
            zone: Vec::new(),
            subtree: Vec::new(),
        }
    }
}

/// Executes a range query for the closed rectangle `rect` (one range per
/// attribute; `[(lo, hi)]` under `Single_hash`) from `origin`; see the
/// module docs. The engine's one full-surface entry point: an optional
/// fault plan (drops, crashes, the hostile families), an optional trace
/// (the simulator's event stream — hops, fault verdicts, deliveries,
/// answers — beside an outcome it never perturbs), and the caller's scratch
/// (outcomes are bit-identical for any scratch, fresh or reused).
///
/// # Errors
///
/// Returns naming errors for arity mismatches or empty ranges and
/// [`ArmadaError::BadOrigin`] for dead origins.
pub fn query<N: Naming>(
    armada: &Armada<N>,
    origin: NodeId,
    rect: &[(f64, f64)],
    seed: u64,
    faults: Option<&FaultPlan>,
    trace: bool,
    scratch: &mut QueryScratch,
) -> Result<(QueryOutcome, Option<Vec<TraceRecord>>), ArmadaError> {
    let net = armada.net();
    let query_region = armada.naming().query_region(rect)?;
    let (region, scaled) = (query_region.0, query_region.1.as_ref());
    let table = net.route_table();
    let run = table.run(region.0, region.1)?;
    let rank = table.rank(origin).ok_or(ArmadaError::BadOrigin { origin })?;
    let origin_key = table.key(rank);
    let rank = rank as u32;
    let State { sim: sim_scratch, subs, answers: ledger, truth, prefix, zone, subtree } =
        scratch.slot::<State>();

    subs.clear();
    for (low, high) in kautz::key::split_region(region.0, region.1) {
        let (f, hops_left) = descent_budget(origin_key, low, low.common_prefix_len(high));
        let hops_left = u8::try_from(hops_left).expect("a PeerID is at most MAX_PEER_DEPTH long");
        // A lone sub-query's run is the query's; a split's lie inside it.
        let run = if (low, high) == region {
            run.clone()
        } else {
            table.run_in(run.clone(), low, high)?
        };
        // The rectangle test reads strings: `ComS` is decoded once per
        // sub-query.
        let com_s = scaled.map(|_| low.truncate(f).decode().expect("a key's prefix"));
        let probe = KeyRegion::new(low, high).subtree_probe(f);
        subs.push(Sub { probe, run, com_s, hops_left });
    }

    let mut sim: Sim<Msg> = Sim::from_scratch(seed, sim_scratch).with_net(*armada.net_model());
    if let Some(faults) = faults {
        sim = sim.with_faults(faults);
    }
    if trace {
        sim = sim.with_trace(simnet::TraceSink::new());
    }
    for (sub, &Sub { hops_left, .. }) in subs.iter().enumerate() {
        sim.send(origin, origin, 0, Msg { sub: sub as u8, hops_left, inside: false, rank });
    }
    match scaled {
        None => ledger.begin(table.len(), run.clone()),
        Some(rect) => {
            truth.clear();
            truth.extend(run.clone().filter(|&rank| zone_meets(net, rect, rank, zone)));
            ledger.begin(table.len(), truth.iter().copied());
        }
    }

    let mut delay: u32 = 0;
    sim.run(|sim, env: Envelope<Msg>| {
        let Msg { sub, hops_left, inside, rank } = env.payload;
        let (rank, d, Sub { probe, run: sub_run, com_s, .. }) =
            (rank as usize, usize::from(hops_left), &subs[sub as usize]);
        debug_assert_eq!(table.node(rank), env.to, "a message names its receiver twice");
        debug_assert!(
            env.hop == 0
                || Some(inside) == probe.verdict(table.key(rank), table.depth(rank), probe.f() + d),
            "the sender placed peer {} against the sub-region wrongly",
            env.to
        );

        // Local answer: this peer's zone meets the query — under a key
        // region, its rank lies in the sub-region's run. It is marked once
        // however many sub-regions the peer straddles (the ledger keeps its
        // cheapest arrival); what it holds is read after the run, against
        // the *full* query.
        let answered = match scaled {
            None => sub_run.contains(&rank),
            Some(rect) => zone_meets(net, rect, rank, zone),
        };
        debug_assert!(
            scaled.is_some() || answered == probe.region().intersects(table.key(rank)),
            "the run of the sub-region and its key test disagree on peer {}",
            env.to
        );
        if answered {
            sim.trace_answer(&env);
            if ledger.first_answer(rank, env.cost) {
                delay = delay.max(env.hop);
            }
        }

        // Pruned descent: forward to an out-neighbor `C` iff the sub-query
        // can meet `ComS ++ C.id[strip..]`, C's subtree prefix at the
        // destination level. Children shorter than the transit prefix, or a
        // junction that would repeat a symbol (possible only when the
        // neighborhood invariant is violated), degrade to the never-prune
        // test `ComS`. Below an inside peer, a child at least as deep as its
        // shift extends that shift, so its subtree prefix extends the
        // peer's: inside too, with no test.
        if d > 0 {
            let strip = probe.f() + d - 1; // transit-prefix length at the children
            let extends = if inside { table.depth(rank) - 1 } else { usize::MAX };
            for c in table.out(rank) {
                let depth = table.depth(c);
                let verdict = if depth >= extends {
                    Some(true)
                } else {
                    probe.verdict(table.key(c), depth, strip)
                };
                let Some(inside) = verdict else { continue };
                if let Some((rect, com_s)) = scaled.zip(com_s.as_ref()) {
                    if !subtree_meets(net, rect, com_s, (c, strip), prefix, subtree) {
                        continue;
                    }
                }
                let msg = Msg { sub, hops_left: hops_left - 1, inside, rank: c as u32 };
                sim.forward(&env, table.node(c), msg);
            }
        }
    });

    let records = sim.take_trace().map(simnet::TraceSink::into_records);
    let messages = sim.stats().messages_sent;
    sim.recycle(sim_scratch);
    gather(net, region, run, ledger, record_filter(armada, &query_region, rect));
    let metrics = QueryMetrics {
        delay,
        // Critical path in virtual ms: the query completes when the last
        // destination first learns of it.
        latency: ledger.latency(),
        messages,
        dest_peers: ledger.due(),
        reached_peers: ledger.reached(),
        exact: ledger.exact(),
    };
    Ok((QueryOutcome { results: ledger.results(), metrics }, records))
}

/// Under a rectangle, the one definition of "destination": whether the
/// zone of the peer at `rank` meets `rect` (`buf` is scratch). This and
/// [`subtree_meets`] stay out of line, so the key-only handler stays small.
#[inline(never)]
fn zone_meets(
    net: &FissioneNet,
    rect: &ScaledRect,
    rank: usize,
    buf: &mut Vec<BoundaryInterval>,
) -> bool {
    let id = net.peer_id(net.route_table().node(rank)).expect("every rank is a live peer");
    rect.meets_prefix(id, buf)
}

/// Under a rectangle, whether the subtree prefix `ComS ++ C.id[strip..]`
/// of the child at rank `c` meets `rect` (`prefix` and `buf` are scratch).
#[inline(never)]
fn subtree_meets(
    net: &FissioneNet,
    rect: &ScaledRect,
    com_s: &KautzStr,
    (c, strip): (usize, usize),
    prefix: &mut KautzStr,
    buf: &mut Vec<BoundaryInterval>,
) -> bool {
    let cid = net.peer_id(net.route_table().node(c)).expect("out-neighbors are live");
    let _ = prefix.assign_concat(com_s, cid.symbols().get(strip..).unwrap_or(&[]));
    rect.meets_prefix(prefix, buf)
}

/// The record filter of a query for `rect`, given what the naming's
/// [`query_region`](Naming::query_region) returned for it: whether a
/// record, stored under a key, lies in the query. With no rectangle left to
/// test the region is
/// the query's image, so a record under a key strictly inside it is an
/// answer and only one under a boundary key has its point read;
/// `Multiple_hash` otherwise preserves only a partial order, so a key says
/// nothing about the point and every one is tested.
pub fn record_filter<'a, N: Naming>(
    armada: &'a Armada<N>,
    (region, scaled): &((ObjectKey, ObjectKey), Option<ScaledRect>),
    rect: &'a [(f64, f64)],
) -> impl Fn(ObjectKey, RecordId) -> bool + 'a {
    let (image, interior) = (scaled.is_none(), strictly_inside(*region));
    move |key, record| image && interior(key) || in_rect(armada.point(record), rect)
}

/// Whether a key lies strictly between the endpoint keys `(low, high)`:
/// under `Single_hash`'s monotonicity the records stored under such a key
/// satisfy the query.
fn strictly_inside((low, high): (ObjectKey, ObjectKey)) -> impl Fn(ObjectKey) -> bool {
    move |key| low < key && key < high
}

/// Hands `answers` (indexed by rank) the records satisfying `keep` that the
/// peers of `run` which answered hold inside `region` (its endpoint keys).
///
/// `run` is the region's destination run — the ranks of the peers whose
/// zones meet `region` — so their stores are adjacent intervals of the
/// object column: every maximal stretch of ranks that answered is one slice
/// of it (a fault-free PIRA query is one stretch), and `keep` sees each
/// entry's key beside its record. A peer outside the run stores nothing
/// inside the region, so whether a stray answered changes nothing here.
pub fn gather(
    net: &FissioneNet,
    (low, high): (ObjectKey, ObjectKey),
    run: Range<usize>,
    answers: &mut Answers<RecordId>,
    keep: impl Fn(ObjectKey, RecordId) -> bool,
) {
    let table = net.route_table();
    let mut rest = run;
    while let Some(first) = rest.clone().find(|&rank| answers.answered(rank)) {
        let end = (first..rest.end).find(|&rank| !answers.answered(rank)).unwrap_or(rest.end);
        let ends = (table.key(first), table.key(end - 1));
        for &(key, handle) in net.entries_in_stretch(ends, low, high) {
            if keep(key, RecordId(handle)) {
                answers.push(RecordId(handle));
            }
        }
        rest = end..rest.end;
    }
}

#[cfg(test)]
mod tests {
    use crate::{MultiArmada, QueryOutcome, SingleArmada};
    use fissione::FissioneConfig;
    use rand::Rng;
    use simnet::{FaultPlan, NodeId, TraceRecord};

    /// One `[lo, hi]` query through the full-surface entry point with a
    /// fresh scratch.
    fn query(
        a: &SingleArmada,
        (origin, lo, hi, seed): (usize, f64, f64, u64),
        faults: Option<&FaultPlan>,
        trace: bool,
    ) -> (QueryOutcome, Vec<TraceRecord>) {
        let mut scratch = simnet::QueryScratch::new();
        let (out, records) =
            super::query(a, origin, &[(lo, hi)], seed, faults, trace, &mut scratch).unwrap();
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
        // A NaN bound is an empty range: not a panic in the naming layer,
        // nor an exact answer of nothing.
        for (lo, hi) in [(10.0, f64::NAN), (f64::NAN, 600.0), (f64::NAN, f64::NAN)] {
            let err = a.pira_query(origin, lo, hi, 1).unwrap_err();
            let empty = kautz::naming::NamingError::EmptyRange { attribute: 0 };
            assert_eq!(err, crate::ArmadaError::Naming(empty), "[{lo}, {hi}]");
        }
    }

    #[test]
    fn traced_query_matches_untraced_and_streams_answers() {
        // Both namings ride the one query: `[lo, hi]` under PIRA, the
        // square `[lo, hi]²` under MIRA.
        let a = build(200, 70);
        let mut rng = simnet::rng_from_seed(700);
        let mut m =
            MultiArmada::build_with(small_cfg(), 200, &[(0.0, 1000.0); 2], &mut rng).unwrap();
        for _ in 0..200 {
            m.publish(&[rng.gen_range(0.0..=1000.0), rng.gen_range(0.0..=1000.0)]).unwrap();
        }
        type Run<'a> = &'a dyn Fn((usize, f64, f64, u64), bool) -> (QueryOutcome, Vec<TraceRecord>);
        let mira = |(origin, lo, hi, seed), trace| {
            let mut scratch = simnet::QueryScratch::new();
            let square = [(lo, hi); 2];
            let (out, records) =
                super::query(&m, origin, &square, seed, None, trace, &mut scratch).unwrap();
            (out, records.unwrap_or_default())
        };
        let runs: [Run; 2] = [&|at, trace| query(&a, at, None, trace), &mira];
        for q in 0..20 {
            let lo: f64 = rng.gen_range(0.0..900.0);
            let hi = lo + rng.gen_range(0.5..100.0);
            let origin = a.net().random_peer(&mut rng);
            for run in runs {
                let (plain, _) = run((origin, lo, hi, q), false);
                let (traced, records) = run((origin, lo, hi, q), true);
                assert_eq!(plain, traced, "tracing perturbed query [{lo}, {hi}]");
                // One Answer event per reached peer, and the deepest answer
                // carries exactly the reported delay.
                let answers: Vec<_> = records
                    .iter()
                    .filter_map(|r| match r.event {
                        simnet::TraceEvent::Answer { node, hop, cost_ms } => {
                            Some((node, hop, cost_ms))
                        }
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

    /// A value for the interior-key rule: inside the domain, on or past
    /// either end, ±∞ or NaN.
    fn any_value(rng: &mut rand::rngs::SmallRng, (lo, hi): (f64, f64)) -> f64 {
        match rng.gen_range(0..8) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => lo,
            4 => hi,
            5 => rng.gen_range(2.0 * lo - hi..=2.0 * hi - lo),
            _ => rng.gen_range(lo..=hi),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn a_key_strictly_between_the_boundary_keys_holds_a_value_in_the_query(
            seed in proptest::prelude::any::<u64>(),
            k in proptest::prelude::prop_oneof![
                proptest::prelude::Just(24usize),
                proptest::prelude::Just(100),
            ],
        ) {
            let mut rng = simnet::rng_from_seed(seed);
            let low_end: f64 = rng.gen_range(-1e6..1e6);
            let domain = (low_end, low_end + rng.gen_range(1e-3..1e6));
            let naming = kautz::naming::SingleHash::new(domain.0, domain.1, k).unwrap();
            let (lo, hi) = (any_value(&mut rng, domain), any_value(&mut rng, domain));
            // A NaN or inverted bound never reaches the gather.
            let Ok(region) = naming.region_keys(lo, hi) else {
                proptest::prop_assert!(lo.is_nan() || hi.is_nan() || lo > hi);
                return Ok(());
            };
            let interior = super::strictly_inside(region);
            let key = |v| naming.object_key(v);
            // NaN names the lowest key, which no key lies below: it can sit
            // on the low boundary, never strictly inside.
            proptest::prop_assert_eq!(key(f64::NAN), key(f64::NEG_INFINITY));
            proptest::prop_assert!(!interior(key(f64::NAN)));
            for _ in 0..64 {
                let v = any_value(&mut rng, domain);
                if interior(key(v)) {
                    proptest::prop_assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
                }
            }
        }
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

    /// One plain rectangle query: fresh scratch, no faults, no trace.
    fn ask(m: &MultiArmada, origin: NodeId, rect: &[(f64, f64)], seed: u64) -> QueryOutcome {
        let mut scratch = simnet::QueryScratch::new();
        super::query(m, origin, rect, seed, None, false, &mut scratch).unwrap().0
    }

    fn build2(n: usize, records: usize, seed: u64) -> MultiArmada {
        let mut rng = simnet::rng_from_seed(seed);
        let mut m =
            MultiArmada::build_with(small_cfg(), n, &[(0.0, 100.0), (0.0, 100.0)], &mut rng)
                .unwrap();
        for _ in 0..records {
            let p = [rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)];
            m.publish(&p).unwrap();
        }
        m
    }

    fn random_query(rng: &mut rand::rngs::SmallRng) -> Vec<(f64, f64)> {
        (0..2)
            .map(|_| {
                let lo = rng.gen_range(0.0..80.0);
                let hi = lo + rng.gen_range(0.5..20.0);
                (lo, hi)
            })
            .collect()
    }

    #[test]
    fn mira_is_exact_on_random_queries() {
        let m = build2(300, 400, 71);
        let mut rng = simnet::rng_from_seed(710);
        for q in 0..80 {
            let query = random_query(&mut rng);
            let origin = m.net().random_peer(&mut rng);
            let out = ask(&m, origin, &query, q);
            assert!(out.metrics.exact, "query {query:?} missed peers");
            assert_eq!(out.results, m.expected_results(&query), "query {query:?}");
        }
    }

    #[test]
    fn mira_delay_is_bounded_by_origin_depth() {
        let m = build2(400, 100, 72);
        let mut rng = simnet::rng_from_seed(720);
        for q in 0..60 {
            let query = random_query(&mut rng);
            let origin = m.net().random_peer(&mut rng);
            let out = ask(&m, origin, &query, q);
            let b = m.net().peer(origin).unwrap().depth() as u32;
            assert!(out.metrics.delay <= b);
        }
    }

    #[test]
    fn mira_average_delay_below_log_n_regardless_of_volume() {
        let m = build2(600, 200, 73);
        let mut rng = simnet::rng_from_seed(730);
        let log_n = (600f64).log2();
        for &side in &[1.0, 10.0, 50.0] {
            let mut total = 0u64;
            let queries = 100;
            for q in 0..queries {
                let lo0 = rng.gen_range(0.0..(100.0 - side));
                let lo1 = rng.gen_range(0.0..(100.0 - side));
                let query = vec![(lo0, lo0 + side), (lo1, lo1 + side)];
                let origin = m.net().random_peer(&mut rng);
                let out = ask(&m, origin, &query, q);
                total += u64::from(out.metrics.delay);
            }
            let avg = total as f64 / queries as f64;
            assert!(avg < log_n, "side {side}: avg delay {avg} ≥ {log_n}");
        }
    }

    #[test]
    fn mira_whole_space_reaches_everyone() {
        let m = build2(120, 150, 74);
        let mut rng = simnet::rng_from_seed(740);
        let origin = m.net().random_peer(&mut rng);
        let query = vec![(0.0, 100.0), (0.0, 100.0)];
        let out = ask(&m, origin, &query, 1);
        assert_eq!(out.metrics.dest_peers, m.net().len());
        assert!(out.metrics.exact);
        assert_eq!(out.results.len(), m.record_count());
    }

    #[test]
    fn mira_rejects_nan_bounds() {
        let m = build2(60, 20, 77);
        let origin = m.net().live_peers().next().unwrap();
        let mut scratch = simnet::QueryScratch::new();
        for (lo, hi) in [(10.0, f64::NAN), (f64::NAN, 60.0)] {
            let rect = [(0.0, 100.0), (lo, hi)];
            let err = super::query(&m, origin, &rect, 1, None, false, &mut scratch).unwrap_err();
            let empty = kautz::naming::NamingError::EmptyRange { attribute: 1 };
            assert_eq!(err, crate::ArmadaError::Naming(empty), "{rect:?}");
        }
    }

    #[test]
    fn mira_three_attributes() {
        let mut rng = simnet::rng_from_seed(75);
        let mut m = MultiArmada::build_with(
            small_cfg(),
            150,
            &[(0.0, 10.0), (0.0, 10.0), (0.0, 10.0)],
            &mut rng,
        )
        .unwrap();
        for _ in 0..200 {
            let p: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..=10.0)).collect();
            m.publish(&p).unwrap();
        }
        for q in 0..40 {
            let query: Vec<(f64, f64)> = (0..3)
                .map(|_| {
                    let lo = rng.gen_range(0.0..8.0);
                    (lo, lo + rng.gen_range(0.2..2.0))
                })
                .collect();
            let origin = m.net().random_peer(&mut rng);
            let out = ask(&m, origin, &query, q);
            assert!(out.metrics.exact, "query {query:?}");
            assert_eq!(out.results, m.expected_results(&query));
        }
    }

    #[test]
    fn mira_narrower_query_prunes_more() {
        // The corner region is identical, but the true rectangle differs:
        // MIRA must send fewer messages for the narrower query.
        let m = build2(500, 100, 76);
        let mut rng = simnet::rng_from_seed(760);
        let origin = m.net().random_peer(&mut rng);
        let wide = vec![(10.0, 60.0), (10.0, 60.0)];
        let narrow = vec![(10.0, 60.0), (34.9, 35.1)];
        let w = ask(&m, origin, &wide, 1);
        let n = ask(&m, origin, &narrow, 2);
        assert!(
            n.metrics.messages < w.metrics.messages,
            "narrow {} vs wide {}",
            n.metrics.messages,
            w.metrics.messages
        );
        assert!(n.metrics.dest_peers <= w.metrics.dest_peers);
    }
}
