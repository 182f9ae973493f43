//! MIRA under churn: the multi-attribute engine is a [`DynamicScheme`] like
//! the single-attribute one, so every named churn plan, followed by
//! `stabilize` (overlay repair plus record repair), leaves rectangle queries
//! exact again.

use armada::{descent, Armada};
use dht_api::{ChurnPlan, DynamicScheme, CHURN_PLAN_NAMES};
use fissione::FissioneConfig;
use kautz::naming::MultiHash;
use rand::Rng;

const DOMAINS: [(f64, f64); 2] = [(0.0, 100.0), (0.0, 1000.0)];
const PEERS: usize = 120;
const RECORDS: usize = 300;

/// A random rectangle inside the domains, each side up to 40 % of its own.
fn random_rect(rng: &mut rand::rngs::SmallRng) -> [(f64, f64); 2] {
    DOMAINS.map(|(lo, hi)| {
        let width = hi - lo;
        let a = rng.gen_range(lo..hi - 0.4 * width);
        (a, a + rng.gen_range(0.0..0.4 * width))
    })
}

#[test]
fn mira_is_exact_after_every_churn_plan_and_stabilize() {
    let cfg = FissioneConfig { object_id_len: 24, ..FissioneConfig::default() };
    for (i, name) in CHURN_PLAN_NAMES.into_iter().enumerate() {
        let seed = 0x5eed + i as u64;
        let mut rng = simnet::rng_from_seed(seed);
        let mut engine = Armada::<MultiHash>::build_with(cfg, PEERS, &DOMAINS, &mut rng).unwrap();
        for _ in 0..RECORDS {
            let point = DOMAINS.map(|(lo, hi)| rng.gen_range(lo..=hi));
            engine.publish(&point).unwrap();
        }

        let plan = ChurnPlan::named(name).unwrap();
        let mut crashes = 0;
        for epoch in 0..2 {
            crashes += plan.apply(&mut engine, seed, epoch).unwrap().crashes;
        }
        engine.stabilize();
        engine.net().check_invariants().unwrap_or_else(|e| panic!("{name}: {e}"));
        // Record repair put back whatever the crashes took down.
        assert_eq!(engine.net().report().total_objects, RECORDS, "{name}");
        if name == "massacre" {
            assert!(crashes > 0, "massacre crashed nobody");
        }

        let mut scratch = simnet::QueryScratch::new();
        for q in 0..20 {
            let rect = random_rect(&mut rng);
            let origin = engine.net().random_peer(&mut rng);
            let (out, _) =
                descent::query(&engine, origin, &rect, q, None, false, &mut scratch).unwrap();
            assert!(out.metrics.exact, "{name}: query {rect:?} missed peers");
            assert_eq!(out.results, engine.expected_results(&rect), "{name}: query {rect:?}");
        }
    }
}
