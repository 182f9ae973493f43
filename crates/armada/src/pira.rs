//! PIRA — the PrunIng Routing Algorithm for single-attribute range queries
//! (§4.2).
//!
//! A query `[lo, hi]` maps to the Kautz region `⟨LowT, HighT⟩` via
//! `Single_hash`, and interval preservation makes that region the query's
//! exact image. PIRA is the shared [descent](crate::descent) with three
//! things supplied:
//!
//! * the **region** is `⟨LowT, HighT⟩`, and every peer of its destination
//!   run — one range of routing-table ranks, found by two binary searches —
//!   is a destination, so the ground truth is that range itself and no list
//!   is built;
//! * the **predicate** is membership in key space: each sub-region becomes
//!   a [`KeyRegion`], a visited peer answers iff its
//!   [`RouteTable`](fissione::RouteTable) key
//!   [`intersects`](KeyRegion::intersects) it, and a child is forwarded to
//!   iff its subtree prefix [does](KeyRegion::intersects_subtree) — a
//!   delivery touches no ordered map and compares no strings;
//! * the **record filter** is `lo ≤ value ≤ hi`, read only for a record
//!   stored under one of the two boundary keys `ObjectKey(LowT)` and
//!   `ObjectKey(HighT)`: `Single_hash` is monotone, so a key strictly
//!   between them holds a value strictly inside the query (a NaN value
//!   names the lowest key, so it can only sit on a boundary).
//!
//! The region is never spelled as Kautz strings: the naming emits `LowT`
//! and `HighT` as keys ([`SingleHash::region_keys`]), and the destination
//! run, the sub-region split, `ComS`, the pruning state and the gather all
//! read keys. The string region ([`SingleHash::region`]) stays at the API
//! edge and as the reference the tests check these against.
//!
//! The destination peers sorted by PeerID tile the query's ObjectID range,
//! so what the peers that answered hold is read by [`gather`] as one slice
//! of the network's sorted object column, not a scan per peer. The ledger
//! hands the result set back ascending whatever order the records were read
//! in.
//!
//! Delay is bounded by `hops_left ≤ len(origin.id)` regardless of the range
//! size: `< 2·log₂N` worst case, `< log₂N` on average — the paper's
//! headline result.
//!
//! [`gather`]: crate::descent::gather
//! [`SingleHash::region_keys`]: kautz::naming::SingleHash::region_keys
//! [`SingleHash::region`]: kautz::naming::SingleHash::region

use crate::descent::{descend, State};
use crate::{ArmadaError, QueryOutcome, RecordId, SingleArmada};
use fissione::{KeyRegion, ObjectKey};
use simnet::{FaultPlan, NodeId, QueryScratch, TraceRecord};

/// PIRA's record filter for `[lo, hi]`, whose image is the region with
/// endpoint keys `region`: what [`query`] hands the gather. A record stored
/// under a key strictly inside the region is an answer, so only one under a
/// boundary key has its value read.
pub fn record_filter(
    armada: &SingleArmada,
    region: (ObjectKey, ObjectKey),
    (lo, hi): (f64, f64),
) -> impl Fn(ObjectKey, RecordId) -> bool + '_ {
    let interior = strictly_inside(region);
    move |key, record| interior(key) || (lo..=hi).contains(&armada.value(record))
}

/// Whether a key lies strictly between the endpoint keys `(low, high)`:
/// the records stored under such a key satisfy the query by
/// `Single_hash`'s monotonicity.
fn strictly_inside((low, high): (ObjectKey, ObjectKey)) -> impl Fn(ObjectKey) -> bool {
    move |key| low < key && key < high
}

/// Executes a PIRA range query; see the module docs. The engine's one
/// full-surface entry point: an optional fault plan (drops, crashes, the
/// hostile families), an optional trace (the simulator's event stream,
/// beside an outcome it never perturbs), the caller's scratch (outcomes are
/// bit-identical for any scratch, fresh or reused).
///
/// # Errors
///
/// Returns [`ArmadaError::BadOrigin`] for dead origins and naming errors for
/// empty ranges.
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
    let region = armada.naming().region_keys(lo, hi)?;
    let table = net.route_table();
    let run = table.run(region.0, region.1)?;
    let keep = record_filter(armada, region, (lo, hi));
    descend(
        net,
        armada.net_model(),
        origin,
        seed,
        faults,
        trace,
        region,
        run.clone(),
        run,
        scratch.slot::<State<KeyRegion>>(),
        |low, high, _| KeyRegion::new(low, high),
        |sub, rank| sub.intersects(table.key(rank)),
        |sub, f, child, strip| sub.intersects_subtree(f, table.key(child), strip),
        keep,
    )
}

#[cfg(test)]
mod tests {
    use crate::{QueryOutcome, SingleArmada};
    use fissione::FissioneConfig;
    use rand::Rng;
    use simnet::{FaultPlan, TraceRecord};

    /// One query through the full-surface entry point with a fresh scratch.
    fn query(
        a: &SingleArmada,
        (origin, lo, hi, seed): (usize, f64, f64, u64),
        faults: Option<&FaultPlan>,
        trace: bool,
    ) -> (QueryOutcome, Vec<TraceRecord>) {
        let mut scratch = simnet::QueryScratch::new();
        let (out, records) =
            super::query(a, origin, lo, hi, seed, faults, trace, &mut scratch).unwrap();
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
        // Both engines ride the one descent: `[lo, hi]` under PIRA, the
        // square `[lo, hi]²` under MIRA.
        let a = build(200, 70);
        let mut rng = simnet::rng_from_seed(700);
        let mut m = crate::MultiArmada::build_with(small_cfg(), 200, &[(0.0, 1000.0); 2], &mut rng)
            .unwrap();
        for _ in 0..200 {
            m.publish(&[rng.gen_range(0.0..=1000.0), rng.gen_range(0.0..=1000.0)]).unwrap();
        }
        type Run<'a> = &'a dyn Fn((usize, f64, f64, u64), bool) -> (QueryOutcome, Vec<TraceRecord>);
        let mira = |(origin, lo, hi, seed), trace| {
            let mut scratch = simnet::QueryScratch::new();
            let square = [(lo, hi); 2];
            let (out, records) =
                crate::mira::query(&m, origin, &square, seed, None, trace, &mut scratch).unwrap();
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
}
