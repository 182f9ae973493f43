//! MIRA — multi-attribute range queries (§5).
//!
//! A rectangle query `Ω = ⟨[x0,y0], …, [x(m-1),y(m-1)]⟩` is bounded by the
//! corner region `⟨Multiple_hash(mins), Multiple_hash(maxs)⟩` (partial-order
//! preservation, Definition 4). MIRA descends the origin's forward routing
//! tree exactly like PIRA — same `ComS`/`hops_left` accounting over the
//! corner region — but prunes with the *real* query: a subtree whose
//! namespace prefix maps to a hyper-rectangle disjoint from `Ω` is cut, and
//! a visited peer answers iff its own rectangle intersects `Ω`.
//!
//! Like PIRA, MIRA is delay-bounded by the origin's PeerID length:
//! `< 2·log₂N` worst case and `< log₂N` on average, independent of the
//! query volume.

use crate::engine::descent_budget;
use crate::{ArmadaError, MultiArmada, QueryMetrics, QueryOutcome, RecordId};
use kautz::fixed::BoundaryInterval;
use kautz::KautzStr;
use simnet::{Answers, Envelope, FaultPlan, NodeId, QueryScratch, Sim, SimScratch};

/// One in-flight MIRA sub-query message — `Copy`, like [`PiraMsg`]: the
/// sub-query's `ComS` lives once per query in [`MiraScratch::subs`],
/// indexed by `sub`, instead of being cloned into every hop.
///
/// [`PiraMsg`]: crate::pira
#[derive(Debug, Clone, Copy)]
struct MiraMsg {
    /// Index into the per-query `ComS` table.
    sub: u8,
    /// Remaining descent levels.
    hops_left: usize,
}

/// MIRA's reusable per-thread state, slotted into a [`QueryScratch`]. Every
/// field is reset at query start, so reuse is invisible to results and
/// metrics.
struct MiraScratch {
    sim: SimScratch<MiraMsg>,
    /// `ComS` per sub-query (prefix of the sub-region's common prefix,
    /// suffix of the origin's PeerID).
    subs: Vec<KautzStr>,
    arrivals: Vec<(NodeId, u64)>,
    answers: Answers<RecordId>,
    /// Subtree-prefix buffer: `ComS ++ cid[strip..]` per candidate child.
    wbuf: KautzStr,
    /// Rectangle buffers for the answer and prune tests.
    zone: Vec<BoundaryInterval>,
    wrect: Vec<BoundaryInterval>,
}

impl Default for MiraScratch {
    fn default() -> Self {
        MiraScratch {
            sim: SimScratch::new(),
            subs: Vec::new(),
            arrivals: Vec::new(),
            answers: Answers::default(),
            wbuf: KautzStr::empty(2),
            zone: Vec::new(),
            wrect: Vec::new(),
        }
    }
}

/// Executes a MIRA multi-attribute range query; see the module docs. The
/// engine's one full-surface entry point: an optional fault plan and the
/// caller's scratch (outcomes are bit-identical for any scratch, fresh or
/// reused).
///
/// # Errors
///
/// Returns [`ArmadaError::BadOrigin`] for dead origins and naming errors for
/// arity mismatches or empty ranges.
pub fn query(
    armada: &MultiArmada,
    origin: NodeId,
    ranges: &[(f64, f64)],
    seed: u64,
    faults: Option<&FaultPlan>,
    scratch: &mut QueryScratch,
) -> Result<QueryOutcome, ArmadaError> {
    let net = armada.net();
    if !net.is_live(origin) {
        return Err(ArmadaError::BadOrigin { origin });
    }
    let naming = armada.naming();
    let rect = naming.query_rect(ranges)?;
    let corner = naming.corner_region(ranges)?;
    let truth = armada.peers_intersecting_rect(&rect);
    let origin_id = net.peer_id(origin)?;
    let table = net.route_table();

    let MiraScratch { sim: sim_scratch, subs, arrivals, answers, wbuf, zone, wrect } =
        scratch.slot::<MiraScratch>();
    let mut sim: Sim<MiraMsg> = Sim::from_scratch(seed, sim_scratch).with_net(*armada.net_model());
    if let Some(faults) = faults {
        sim = sim.with_faults_ref(faults);
    }
    subs.clear();
    for sub in corner.split_by_common_prefix() {
        let com_t = sub.common_prefix();
        let (f, hops_left) = descent_budget(origin_id, &com_t);
        sim.send(origin, origin, 0, MiraMsg { sub: subs.len() as u8, hops_left });
        subs.push(com_t.take_front(f));
    }

    answers.begin(table.node_bound(), &truth);
    // Flat arrival log reduced by a sorted post-pass (min cost per peer,
    // max over peers — order-independent; see pira.rs).
    arrivals.clear();
    let mut delay: u32 = 0;
    sim.run(|sim, env: Envelope<MiraMsg>| {
        let node = env.to;
        let id = net.peer_id(node).expect("messages are delivered to live peers");
        let com_s = &subs[env.payload.sub as usize];

        // Local answer: this peer's hyper-rectangle intersects the query.
        naming.prefix_rect_into(id, zone).expect("peer depth within naming depth");
        if rect.intersects(zone) {
            arrivals.push((node, env.cost));
            if answers.first_answer(node) {
                delay = delay.max(env.hop);
                for h in net.handles_in_range(node, corner.low(), corner.high()) {
                    let record = RecordId(h);
                    let point = armada.point(record);
                    let inside =
                        point.iter().zip(ranges.iter()).all(|(&v, &(lo, hi))| v >= lo && v <= hi);
                    if inside {
                        answers.push(record);
                    }
                }
            }
        }

        // Pruned descent against the real rectangle.
        let d = env.payload.hops_left;
        if d > 0 {
            let f = com_s.len();
            let strip = f + d - 1;
            for c in table.out(node) {
                let cid = net.peer_id(c).expect("live");
                // `ComS ++ cid[strip..]`; on a repeated junction symbol the
                // buffer degrades to `ComS` alone — PIRA's never-prune
                // fallback for covers violating the neighborhood invariant.
                let tail = cid.symbols().get(strip..).unwrap_or(&[]);
                let _ = wbuf.assign_concat(com_s, tail);
                naming.prefix_rect_into(wbuf, wrect).expect("subtree prefix within depth");
                if rect.intersects(wrect) {
                    sim.forward(&env, c, MiraMsg { sub: env.payload.sub, hops_left: d - 1 });
                }
            }
        }
    });

    let latency = simnet::last_first_arrival(arrivals);
    let messages = sim.stats().messages_sent;
    sim.recycle(sim_scratch);
    Ok(QueryOutcome {
        results: answers.results(),
        metrics: QueryMetrics {
            delay,
            latency,
            messages,
            dest_peers: truth.len(),
            reached_peers: answers.reached(),
            exact: answers.exact(),
        },
    })
}

#[cfg(test)]
mod tests {
    use crate::MultiArmada;
    use fissione::FissioneConfig;
    use rand::Rng;

    fn small_cfg() -> FissioneConfig {
        FissioneConfig { object_id_len: 24, ..FissioneConfig::default() }
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
            let out = m.mira_query(origin, &query, q).unwrap();
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
            let out = m.mira_query(origin, &query, q).unwrap();
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
                let out = m.mira_query(origin, &query, q).unwrap();
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
        let out = m.mira_query(origin, &query, 1).unwrap();
        assert_eq!(out.metrics.dest_peers, m.net().len());
        assert!(out.metrics.exact);
        assert_eq!(out.results.len(), m.record_count());
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
            let out = m.mira_query(origin, &query, q).unwrap();
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
        let w = m.mira_query(origin, &wide, 1).unwrap();
        let n = m.mira_query(origin, &narrow, 2).unwrap();
        assert!(
            n.metrics.messages < w.metrics.messages,
            "narrow {} vs wide {}",
            n.metrics.messages,
            w.metrics.messages
        );
        assert!(n.metrics.dest_peers <= w.metrics.dest_peers);
    }
}
