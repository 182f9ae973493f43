//! The pruned descent of the forward routing tree that PIRA (§4.2) and MIRA
//! (§5) share: one message, one handler, one scratch, one gather.
//!
//! A query region whose endpoints share no prefix splits into at most three
//! sub-regions that do (the paper's rule). Each sub-query descends the
//! origin's forward routing tree as a message `(sub, f, hops_left)`:
//!
//! * `f = |ComS|` where `ComS` is the longest string that is both a prefix
//!   of the sub-region's common prefix and a suffix of the origin's PeerID;
//! * a peer holding the message with `d = hops_left` covers — at the
//!   destination level — exactly the strings prefixed by
//!   `ComS ++ id[(f+d)..]`, so it forwards to an out-neighbor `C` iff the
//!   query can meet a string prefixed by `ComS ++ C.id[(f+d−1)..]`;
//! * any visited peer whose own zone meets the query answers (at the
//!   destination level `d = 0` that is every reached peer; answering along
//!   the way additionally keeps the algorithm exact on covers that violate
//!   the neighborhood invariant).
//!
//! "Meets the query" is the one thing the two algorithms differ in, so it is
//! the one thing the descent is handed: `answers` and `forwards`, over a
//! per-sub-query state `prepare` builds. [`pira`](crate::pira) compares
//! routing-table keys against the region; [`mira`](crate::mira) intersects
//! rectangles.
//!
//! The query region arrives as its two endpoint [`ObjectKey`]s, and the
//! prologue stays in key space: the sub-region split is
//! [`kautz::key::split_region`], `|ComT|` the keys'
//! [`common_prefix_len`](ObjectKey::common_prefix_len), and `ComS` the
//! origin's [`PeerKey::longest_suffix_prefix`](fissione::PeerKey::longest_suffix_prefix)
//! against it — no Kautz string is built. A sub-query's pruning state is
//! whatever `prepare` makes of its keys: PIRA's stays a key
//! ([`KeyRegion`](fissione::KeyRegion)), MIRA decodes its `ComS` to a string
//! there because its rectangle test reads strings.
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
//! stretch of ranks that answered is one slice of it.

use crate::engine::descent_budget;
use crate::{ArmadaError, QueryMetrics, QueryOutcome, RecordId};
use fissione::{FissioneNet, ObjectKey};
use simnet::{Answers, Envelope, FaultPlan, NetModel, NodeId, Sim, SimScratch, TraceRecord};
use std::ops::Range;

/// One in-flight sub-query message — `Copy`, so forwarding a message down
/// the routing tree moves twenty-four bytes instead of cloning Kautz strings
/// per hop. What the sub-query prunes with lives once per query in
/// [`State::subs`], indexed by `sub`.
#[derive(Debug, Clone, Copy)]
struct Msg {
    /// Index into the per-query sub-query table.
    sub: u8,
    /// The receiver's routing-table rank (in what would be `sub`'s padding).
    rank: u32,
    /// `|ComS|` for this sub-query.
    f: usize,
    /// Remaining descent levels.
    hops_left: usize,
}

const _: () = assert!(std::mem::size_of::<Msg>() == 24, "a descent message outgrew 24 bytes");

/// The descent's reusable per-thread state, slotted into a
/// [`QueryScratch`](simnet::QueryScratch): the simulator's collections plus
/// the routing loop's working buffers. Every field is reset at query start,
/// so reuse is invisible to results, metrics, and traces.
pub(crate) struct State<S> {
    sim: SimScratch<Msg>,
    /// What each sub-query prunes with.
    subs: Vec<S>,
    answers: Answers<RecordId>,
}

impl<S> Default for State<S> {
    fn default() -> Self {
        State { sim: SimScratch::new(), subs: Vec::new(), answers: Answers::default() }
    }
}

/// Runs one query: seeds a sub-query per sub-region of `region` (its
/// endpoint keys `(LowT, HighT)`), descends the origin's forward routing
/// tree, and gathers what the peers that answered hold.
///
/// `run` is the region's destination run (the ranks of the peers whose zones
/// meet `region`) and `truth` the ranks of it a fault-free query must reach
/// — the ones `answers` holds for. `prepare(sub_low, sub_high, f)` builds a
/// sub-query's pruning state; `answers(state, rank)` says whether that
/// peer's zone meets the query and `forwards(state, f, child, strip)`
/// whether the subtree `ComS ++ child.id[strip..]` of the peer ranked
/// `child` can; `keep(key, record)` is the query itself, on a record and the
/// key it is stored under.
///
/// Every peer forwards from its own row of the network's
/// [`RouteTable`](fissione::RouteTable). With `trace` set the simulator's
/// sink is attached and the full virtual-time event stream (hops, fault
/// verdicts, deliveries, answers) comes back beside the outcome. The outcome
/// is bitwise identical either way — tracing reads the schedule, it never
/// perturbs it — and for any scratch, fresh or reused.
#[allow(clippy::too_many_arguments)]
pub(crate) fn descend<S>(
    net: &FissioneNet,
    model: &NetModel,
    origin: NodeId,
    seed: u64,
    faults: Option<&FaultPlan>,
    trace: bool,
    region: (ObjectKey, ObjectKey),
    run: Range<usize>,
    truth: impl IntoIterator<Item = usize>,
    State { sim: sim_scratch, subs, answers: ledger }: &mut State<S>,
    prepare: impl Fn(ObjectKey, ObjectKey, usize) -> S,
    mut answers: impl FnMut(&S, usize) -> bool,
    mut forwards: impl FnMut(&S, usize, usize, usize) -> bool,
    keep: impl Fn(ObjectKey, RecordId) -> bool,
) -> Result<(QueryOutcome, Option<Vec<TraceRecord>>), ArmadaError> {
    let table = net.route_table();
    let rank = table.rank(origin).ok_or(ArmadaError::BadOrigin { origin })?;
    let origin_key = table.key(rank);
    let rank = rank as u32;

    let mut sim: Sim<Msg> = Sim::from_scratch(seed, sim_scratch).with_net(*model);
    if let Some(faults) = faults {
        sim = sim.with_faults(faults);
    }
    if trace {
        sim = sim.with_trace(simnet::TraceSink::new());
    }
    subs.clear();
    for (low, high) in kautz::key::split_region(region.0, region.1) {
        let (f, hops_left) = descent_budget(origin_key, low, low.common_prefix_len(high));
        sim.send(origin, origin, 0, Msg { sub: subs.len() as u8, rank, f, hops_left });
        subs.push(prepare(low, high, f));
    }

    ledger.begin(table.len(), truth);
    let mut delay: u32 = 0;
    sim.run(|sim, env: Envelope<Msg>| {
        let Msg { sub, rank, f, hops_left: d } = env.payload;
        let (rank, state) = (rank as usize, &subs[sub as usize]);
        debug_assert_eq!(table.node(rank), env.to, "a message names its receiver twice");

        // Local answer: this peer's zone meets the query. It is marked once
        // however many sub-regions the peer straddles (the ledger keeps its
        // cheapest arrival); what it holds is read after the run, against
        // the *full* query.
        if answers(state, rank) {
            sim.trace_answer(&env);
            if ledger.first_answer(rank, env.cost) {
                delay = delay.max(env.hop);
            }
        }

        // Pruned descent: forward to an out-neighbor `C` iff the query can
        // meet `ComS ++ C.id[strip..]`, C's subtree prefix at the
        // destination level. Children shorter than the transit prefix
        // (possible only when the neighborhood invariant is violated)
        // degrade to the never-prune test `ComS`, as a repeated junction
        // symbol does.
        if d > 0 {
            let strip = f + d - 1; // transit-prefix length at the children
            for c in table.out(rank) {
                if forwards(state, f, c, strip) {
                    let msg = Msg { sub, rank: c as u32, f, hops_left: d - 1 };
                    sim.forward(&env, table.node(c), msg);
                }
            }
        }
    });

    let records = sim.take_trace().map(simnet::TraceSink::into_records);
    let messages = sim.stats().messages_sent;
    sim.recycle(sim_scratch);
    gather(net, region, run, ledger, keep);
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
        let ends = (table.node(first), table.node(end - 1));
        for &(key, handle) in net.entries_in_stretch(ends, low, high) {
            if keep(key, RecordId(handle)) {
                answers.push(RecordId(handle));
            }
        }
        rest = end..rest.end;
    }
}
