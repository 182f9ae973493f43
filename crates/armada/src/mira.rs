//! MIRA — multi-attribute range queries (§5).
//!
//! A rectangle query `Ω = ⟨[x0,y0], …, [x(m-1),y(m-1)]⟩` is bounded by the
//! corner region `⟨Multiple_hash(mins), Multiple_hash(maxs)⟩` (partial-order
//! preservation, Definition 4): every peer whose rectangle meets `Ω` lies in
//! the corner region's destination run, but not every peer of the run does.
//! MIRA is the shared [descent](crate::descent) — the same `ComS`/`hops_left`
//! accounting, message, handler and gather as [PIRA](crate::pira) — with
//! three things supplied:
//!
//! * the **region** is the corner region, and the destinations are the
//!   peers of its run whose own rectangle meets `Ω`;
//! * the **predicate** is the *real* query: a visited peer answers iff the
//!   hyper-rectangle of its PeerID intersects `Ω` (the same test that picks
//!   the destinations), and a subtree is cut when its namespace prefix
//!   `ComS ++ child.id[strip..]` maps to a rectangle disjoint from `Ω`;
//! * the **record filter** is `point ∈ Ω`, tested on every gathered record
//!   (PIRA skips the test between its two boundary keys; a corner region's
//!   keys carry no such promise).
//!
//! The corner region reaches the descent as its two endpoint keys
//! ([`MultiHash::corner_keys`](kautz::naming::MultiHash::corner_keys),
//! written from the scaled rectangle without a string), so the destination
//! run, the sub-region split and `ComS` are key arithmetic as under PIRA.
//! The rectangle test is not: it reads a prefix as a string, so `prepare`
//! decodes each sub-query's `ComS` (at most three per query) to the
//! [`KautzStr`] the subtree test extends per candidate child.
//!
//! Like PIRA, MIRA is delay-bounded by the origin's PeerID length:
//! `< 2·log₂N` worst case and `< log₂N` on average, independent of the
//! query volume.

use crate::descent::{descend, State};
use crate::engine::in_rect;
use crate::{ArmadaError, MultiArmada, QueryOutcome};
use kautz::fixed::BoundaryInterval;
use kautz::KautzStr;
use simnet::{FaultPlan, NodeId, QueryScratch, TraceRecord};

/// MIRA's working buffers, slotted into the [`QueryScratch`] beside the
/// descent's [`State`] (whose per-sub-query entry is `ComS`): each is
/// overwritten before it is read.
#[derive(Default)]
struct Bufs {
    /// The ranks of the corner run whose rectangle meets the query.
    truth: Vec<usize>,
    /// Subtree-prefix buffer: `ComS ++ cid[strip..]` per candidate child.
    prefix: Option<KautzStr>,
    /// Rectangle buffers for the answer and prune tests.
    zone: Vec<BoundaryInterval>,
    subtree: Vec<BoundaryInterval>,
}

/// Executes a MIRA multi-attribute range query; see the module docs. The
/// engine's one full-surface entry point, with [`pira::query`]'s planes: an
/// optional fault plan, an optional trace, the caller's scratch (outcomes
/// are bit-identical for any scratch, fresh or reused, traced or not).
///
/// [`pira::query`]: crate::pira::query
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
    trace: bool,
    scratch: &mut QueryScratch,
) -> Result<(QueryOutcome, Option<Vec<TraceRecord>>), ArmadaError> {
    let (net, naming) = (armada.net(), armada.naming());
    let rect = naming.query_rect(ranges)?;
    let corner = naming.corner_keys(&rect);
    let table = net.route_table();
    let run = table.run(corner.0, corner.1)?;

    let (state, Bufs { truth, prefix, zone, subtree }) = scratch.slot::<(State<KautzStr>, Bufs)>();
    let prefix = prefix.get_or_insert_with(KautzStr::empty);
    // One definition of "destination": the test a visited peer answers by.
    let mut meets = |rank: usize| {
        let id = net.peer_id(table.node(rank)).expect("every rank is a live peer");
        naming.prefix_rect_into(id, zone).expect("peer depth within naming depth");
        rect.intersects(zone)
    };
    truth.clear();
    truth.extend(run.clone().filter(|&rank| meets(rank)));
    descend(
        net,
        armada.net_model(),
        origin,
        seed,
        faults,
        trace,
        corner,
        run,
        truth.iter().copied(),
        state,
        // The rectangle test reads strings: `ComS` is decoded once per
        // sub-query.
        |low, _, f| low.truncate(f).decode().expect("a key's prefix is a Kautz string"),
        |_, rank| meets(rank),
        |com_s, _, child, strip| {
            // `ComS ++ cid[strip..]`; on a repeated junction symbol the
            // buffer degrades to `ComS` alone — PIRA's never-prune fallback
            // for covers violating the neighborhood invariant.
            let cid = net.peer_id(table.node(child)).expect("out-neighbors are live");
            let _ = prefix.assign_concat(com_s, cid.symbols().get(strip..).unwrap_or(&[]));
            naming.prefix_rect_into(prefix, subtree).expect("subtree prefix within depth");
            rect.intersects(subtree)
        },
        // `Multiple_hash` only preserves a partial order, so a key inside
        // the corner region says nothing about the point: test every one.
        |_, record| in_rect(armada.point(record), ranges),
    )
}

#[cfg(test)]
mod tests {
    use crate::{MultiArmada, QueryOutcome};
    use fissione::FissioneConfig;
    use rand::Rng;
    use simnet::NodeId;

    fn small_cfg() -> FissioneConfig {
        FissioneConfig { object_id_len: 24, ..FissioneConfig::default() }
    }

    /// One plain query: fresh scratch, no faults, no trace.
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
