//! Property tests: PIRA/MIRA exactness and delay bounds over randomly grown
//! networks, random data and random queries — the core claims of the paper.

use armada::{MultiArmada, RecordId, SingleArmada};
use fissione::FissioneConfig;
use proptest::prelude::*;
use rand::Rng;
use simnet::{FaultPlan, TraceEvent};
use std::collections::BTreeSet;

fn small_cfg() -> FissioneConfig {
    FissioneConfig { object_id_len: 24, ..FissioneConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn pira_exact_for_any_network_and_query(
        seed in 0u64..10_000,
        n in 10usize..220,
        records in 0usize..200,
        lo_frac in 0f64..1.0,
        size_frac in 0f64..1.0,
    ) {
        let mut rng = simnet::rng_from_seed(seed);
        let mut a = SingleArmada::build_with(small_cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
        for _ in 0..records {
            let v: f64 = rng.gen_range(0.0..=1000.0);
            a.publish(v);
        }
        let lo = lo_frac * 1000.0;
        let hi = (lo + size_frac * (1000.0 - lo)).min(1000.0);
        let origin = a.net().random_peer(&mut rng);
        let out = a.pira_query(origin, lo, hi, seed).unwrap();
        prop_assert!(out.metrics.exact, "missed peers for [{}, {}]", lo, hi);
        prop_assert_eq!(out.results, a.expected_results(lo, hi));
        // Delay bound: never more than the origin's depth, hence < 2 log2 N
        // whenever the balance invariant holds (checked separately).
        let b = a.net().peer(origin).unwrap().depth() as u32;
        prop_assert!(out.metrics.delay <= b);
    }

    #[test]
    fn pira_message_cost_close_to_lower_bound(
        seed in 0u64..10_000,
        n in 64usize..256,
    ) {
        // Lower bound: O(logN) + n − 1 messages. Check messages ≥ destpeers − 1
        // (reaching k peers needs at least k−1 sends beyond the first) and
        // messages ≤ 4·(logN + 2·destpeers) (generous upper envelope of the
        // paper's logN + 2n − 2 average).
        let mut rng = simnet::rng_from_seed(seed);
        let a = SingleArmada::build_with(small_cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
        let origin = a.net().random_peer(&mut rng);
        let lo: f64 = rng.gen_range(0.0..500.0);
        let out = a.pira_query(origin, lo, lo + 250.0, seed).unwrap();
        let log_n = (n as f64).log2();
        let n_dest = out.metrics.dest_peers as f64;
        prop_assert!(out.metrics.messages as f64 >= n_dest - 1.0);
        prop_assert!(
            (out.metrics.messages as f64) <= 4.0 * (log_n + 2.0 * n_dest),
            "messages {} for {} destinations at N={}",
            out.metrics.messages, n_dest, n
        );
    }

    #[test]
    fn mira_exact_for_any_network_and_query(
        seed in 0u64..10_000,
        n in 10usize..160,
        records in 0usize..120,
        q0 in 0f64..1.0, w0 in 0f64..1.0,
        q1 in 0f64..1.0, w1 in 0f64..1.0,
    ) {
        let mut rng = simnet::rng_from_seed(seed);
        let mut m = MultiArmada::build_with(
            small_cfg(), n, &[(0.0, 50.0), (0.0, 200.0)], &mut rng,
        ).unwrap();
        for _ in 0..records {
            let p = [rng.gen_range(0.0..=50.0), rng.gen_range(0.0..=200.0)];
            m.publish(&p).unwrap();
        }
        let lo0 = q0 * 50.0;
        let hi0 = (lo0 + w0 * (50.0 - lo0)).min(50.0);
        let lo1 = q1 * 200.0;
        let hi1 = (lo1 + w1 * (200.0 - lo1)).min(200.0);
        let query = [(lo0, hi0), (lo1, hi1)];
        let origin = m.net().random_peer(&mut rng);
        let out = m.mira_query(origin, &query, seed).unwrap();
        prop_assert!(out.metrics.exact, "missed peers for {:?}", query);
        prop_assert_eq!(out.results, m.expected_results(&query));
        let b = m.net().peer(origin).unwrap().depth() as u32;
        prop_assert!(out.metrics.delay <= b);
    }

    #[test]
    fn pira_returns_a_record_iff_its_owner_answered(
        seed in 0u64..10_000,
        n in 10usize..220,
        records in 1usize..200,
        lo_frac in 0f64..1.0,
        size_frac in 0f64..1.0,
        drop_prob in 0f64..0.4,
    ) {
        // The gather after the run ≡ one read per answering peer ≡ brute
        // force over the record table, when some destinations never answer:
        // every other one has crashed, and any message may be dropped.
        let mut rng = simnet::rng_from_seed(seed);
        let mut a = SingleArmada::build_with(small_cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
        for _ in 0..records {
            let v: f64 = rng.gen_range(0.0..=1000.0);
            a.publish(v);
        }
        let lo = lo_frac * 1000.0;
        let hi = (lo + size_frac * (1000.0 - lo)).min(1000.0);
        let origin = a.net().random_peer(&mut rng);
        let region = a.naming().region(lo, hi).unwrap();
        let due = a.net().peers_intersecting_range(region.low(), region.high()).unwrap();
        let mut faults = FaultPlan::with_drop_prob(drop_prob);
        let crashed: Vec<_> = due.iter().copied().step_by(2).filter(|&p| p != origin).collect();
        crashed.iter().for_each(|&p| faults.crash(p));

        let mut scratch = simnet::QueryScratch::new();
        let (out, trace) =
            armada::pira::query(&a, origin, lo, hi, seed, Some(&faults), true, &mut scratch)
                .unwrap();
        let answered: BTreeSet<_> = trace
            .unwrap()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::Answer { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        prop_assert_eq!(answered.len(), out.metrics.reached_peers);
        prop_assert!(crashed.iter().all(|p| !answered.contains(p)));
        prop_assert_eq!(out.metrics.exact, answered.len() == due.len());

        let wanted = |r: &RecordId| (lo..=hi).contains(&a.value(*r));
        let per_peer: BTreeSet<RecordId> = answered
            .iter()
            .flat_map(|&p| a.net().handles_in_range(p, region.low(), region.high()))
            .map(RecordId)
            .filter(wanted)
            .collect();
        let brute: Vec<RecordId> = (0..records as u64)
            .map(RecordId)
            .filter(wanted)
            .filter(|&r| {
                let owner = a.net().owner_of(&a.naming().object_id(a.value(r))).unwrap();
                answered.contains(&owner)
            })
            .collect();
        prop_assert_eq!(&out.results, &brute);
        prop_assert_eq!(out.results, per_peer.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn pira_exact_under_churned_networks(
        seed in 0u64..10_000,
        n in 24usize..120,
        churn in 0usize..40,
    ) {
        // Queries stay exact after interleaved joins and leaves (the cover
        // invariant, not freshness of balance, is what exactness needs).
        let mut rng = simnet::rng_from_seed(seed);
        let mut a = SingleArmada::build_with(small_cfg(), n, 0.0, 1000.0, &mut rng).unwrap();
        for i in 0..200 {
            a.publish((i as f64) * 5.0);
        }
        for _ in 0..churn {
            let victim = a.net().random_peer(&mut rng);
            let _ = a.net_mut().leave(victim);
            a.net_mut().join(&mut rng);
        }
        a.net().check_invariants().unwrap();
        let origin = a.net().random_peer(&mut rng);
        let lo: f64 = rng.gen_range(0.0..800.0);
        let out = a.pira_query(origin, lo, lo + 150.0, seed).unwrap();
        prop_assert!(out.metrics.exact);
        prop_assert_eq!(out.results, a.expected_results(lo, lo + 150.0));
    }
}
