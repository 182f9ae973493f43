//! Cross-scheme differential property test — the paper's exactness claim
//! enforced uniformly through the unified `RangeScheme` trait.
//!
//! Every registered single-attribute scheme receives the *same* dataset and
//! answers the *same* random range queries; all result sets must be
//! identical (and equal to a direct scan). A scheme that silently drops or
//! invents records cannot pass, whatever its delay profile.
//!
//! The dynamics layer extends the claim to churned networks: after a shared
//! `ChurnPlan` runs and `stabilize()` completes, every *dynamic* scheme
//! must again return identical, exact result sets with full peer recall —
//! the stabilize guarantee, pinned cross-scheme.
//!
//! The hostile layer extends it again to partitioned networks: peers
//! crash *while* a partition plan's split is open, and once the split
//! heals, `stabilize()` + `re_replicate()` must restore identical exact
//! result sets with full recall — a partition is loud while open but may
//! leave no permanent disagreement behind.
//!
//! Last, the one-query-path contract, table-driven over every registered
//! name × wrapper stack: malformed bounds are typed errors, a reused
//! scratch never moves an outcome, and a requested trace never moves one
//! either while its cost tree sums to exactly what the outcome reports.

use armada_suite::dht_api::{
    BuildParams, ChurnPlan, QueryCtx, QueryTrace, RangeRequest, RangeScheme, SchemeError,
    TraceEvent, CHURN_PLAN_NAMES,
};
use armada_suite::experiments::{dynamic_single_names, standard_registry};
use proptest::prelude::*;
use rand::Rng;

const DOMAIN: (f64, f64) = (0.0, 1000.0);

/// The partition shapes of the hostile catalog (their open/heal epochs
/// come from the catalog itself, not a copy here).
const PARTITION_PLANS: [&str; 2] = ["split-brain", "island-3"];

fn build_all(seed: u64, n: usize) -> Vec<Box<dyn RangeScheme>> {
    let registry = standard_registry();
    let params = BuildParams::new(n, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
    registry
        .single_names()
        .iter()
        .map(|name| {
            let mut rng = simnet::rng_from_seed(seed ^ dht_api::fnv1a(name.as_bytes()));
            registry.build_single(name, &params, &mut rng).expect("build")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn all_schemes_return_identical_result_sets(
        seed in 0u64..10_000,
        records in 1usize..150,
    ) {
        let mut schemes = build_all(seed, 60);
        prop_assert!(schemes.len() >= 4, "need at least 4 schemes for the differential");

        // One dataset, published into every scheme.
        let mut data_rng = simnet::rng_from_seed(seed ^ 0xda7a);
        let mut data = Vec::new();
        for h in 0..records as u64 {
            let v = data_rng.gen_range(DOMAIN.0..=DOMAIN.1);
            for s in &mut schemes {
                s.publish(v, h).expect("publish");
            }
            data.push((v, h));
        }

        // Identical random queries against every scheme.
        let mut qrng = simnet::rng_from_seed(seed ^ 0x9e4);
        for q in 0..8u64 {
            let lo: f64 = qrng.gen_range(DOMAIN.0..DOMAIN.1);
            let hi = (lo + qrng.gen_range(0.1f64..300.0)).min(DOMAIN.1);
            let mut expected: Vec<u64> = data
                .iter()
                .filter(|&&(v, _)| v >= lo && v <= hi)
                .map(|&(_, h)| h)
                .collect();
            expected.sort_unstable();
            for s in &schemes {
                let origin = s.random_origin(&mut qrng);
                let out = s.range_query(origin, lo, hi, q).expect("query");
                prop_assert_eq!(
                    &out.results,
                    &expected,
                    "{} disagrees on [{}, {}]",
                    s.scheme_name(),
                    lo,
                    hi
                );
            }
        }
    }

    #[test]
    fn dynamic_schemes_agree_exactly_after_churn_and_stabilize(
        seed in 0u64..10_000,
        plan_idx in 0usize..CHURN_PLAN_NAMES.len(),
    ) {
        // Only the schemes that opt into dynamics take part — discovered
        // through the capability hook, not a hard-coded list.
        let mut schemes = build_all(seed, 60);
        schemes.retain_mut(|s| s.as_dynamic().is_some());
        prop_assert!(schemes.len() >= 4, "need several dynamic schemes for the differential");

        let mut data_rng = simnet::rng_from_seed(seed ^ 0xc4a2);
        let mut data = Vec::new();
        for h in 0..100u64 {
            let v = data_rng.gen_range(DOMAIN.0..=DOMAIN.1);
            for s in &mut schemes {
                s.publish(v, h).expect("publish");
            }
            data.push((v, h));
        }

        // The same plan epochs hit every scheme (victims differ per
        // substrate — the plan draws them from each scheme's own live set).
        let plan = ChurnPlan::named(CHURN_PLAN_NAMES[plan_idx]).expect("cataloged").with_rate(10);
        for s in &mut schemes {
            let dynamic = s.as_dynamic().expect("filtered to dynamic schemes");
            for epoch in 0..3 {
                plan.apply(dynamic, seed, epoch).expect("plans tolerate refusals");
            }
            dynamic.stabilize();
        }

        // Post-stabilize: identical, exact result sets with full recall.
        let mut qrng = simnet::rng_from_seed(seed ^ 0x57ab);
        for q in 0..6u64 {
            let lo: f64 = qrng.gen_range(DOMAIN.0..DOMAIN.1);
            let hi = (lo + qrng.gen_range(0.1f64..300.0)).min(DOMAIN.1);
            let mut expected: Vec<u64> = data
                .iter()
                .filter(|&&(v, _)| v >= lo && v <= hi)
                .map(|&(_, h)| h)
                .collect();
            expected.sort_unstable();
            for s in &schemes {
                let origin = s.random_origin(&mut qrng);
                let out = s.range_query(origin, lo, hi, q).expect("query");
                prop_assert_eq!(
                    &out.results,
                    &expected,
                    "{} disagrees on [{}, {}] after {} churn",
                    s.scheme_name(),
                    lo,
                    hi,
                    plan.name()
                );
                prop_assert!(out.exact, "{} inexact after stabilize", s.scheme_name());
                prop_assert_eq!(out.peer_recall(), 1.0, "{} recall", s.scheme_name());
            }
        }
    }

    #[test]
    fn dynamic_schemes_heal_identically_after_a_partition(
        seed in 0u64..10_000,
        plan_idx in 0usize..PARTITION_PLANS.len(),
    ) {
        let plan_name = PARTITION_PLANS[plan_idx];
        let schedule = simnet::FaultPlan::named_hostile(plan_name).expect("cataloged");
        let partition = schedule.partition().expect("partition plan");
        let (open, heal) = (partition.open_epoch(), partition.heal_epoch());

        // Every dynamic scheme, replicated (so `re_replicate` has copies
        // to restore) and wrapped by the partition plan via the registry
        // suffix grammar.
        let registry = standard_registry();
        let params = BuildParams::new(60, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
        let mut schemes: Vec<Box<dyn RangeScheme>> =
            armada_suite::experiments::dynamic_single_names()
                .iter()
                .map(|name| {
                    let mut rng = simnet::rng_from_seed(seed ^ dht_api::fnv1a(name.as_bytes()));
                    registry
                        .build_single(&format!("{name}+r2@{plan_name}"), &params, &mut rng)
                        .expect("build")
                })
                .collect();
        prop_assert!(schemes.len() >= 4, "need several dynamic schemes for the differential");

        let mut data_rng = simnet::rng_from_seed(seed ^ 0x5b17);
        let mut data = Vec::new();
        for h in 0..100u64 {
            let v = data_rng.gen_range(DOMAIN.0..=DOMAIN.1);
            for s in &mut schemes {
                s.publish(v, h).expect("publish");
            }
            data.push((v, h));
        }

        // Open the split, crash peers mid-partition, then heal and repair.
        for s in &mut schemes {
            s.as_hostile().expect("hostile-wrapped").set_epoch(open);
            let dynamic = s.as_dynamic().expect("filtered to dynamic schemes");
            let mut vrng = simnet::rng_from_seed(seed ^ 0xdead);
            for _ in 0..6 {
                let live = dynamic.live_peers();
                prop_assert!(!live.is_empty());
                let victim = live[vrng.gen_range(0..live.len())];
                dynamic.crash(victim).expect("crash a live peer");
            }
            s.as_hostile().expect("hostile-wrapped").set_epoch(heal);
            s.as_dynamic().expect("dynamic").stabilize();
            s.as_replicated().expect("replicated").re_replicate();
        }

        // Post-heal: identical, exact result sets with full recall.
        let mut qrng = simnet::rng_from_seed(seed ^ 0x57ab);
        for q in 0..6u64 {
            let lo: f64 = qrng.gen_range(DOMAIN.0..DOMAIN.1);
            let hi = (lo + qrng.gen_range(0.1f64..300.0)).min(DOMAIN.1);
            let mut expected: Vec<u64> = data
                .iter()
                .filter(|&&(v, _)| v >= lo && v <= hi)
                .map(|&(_, h)| h)
                .collect();
            expected.sort_unstable();
            for s in &schemes {
                let origin = s.random_origin(&mut qrng);
                let out = s.range_query(origin, lo, hi, q).expect("query");
                prop_assert_eq!(
                    &out.results,
                    &expected,
                    "{} disagrees on [{}, {}] after {} healed",
                    s.scheme_name(),
                    lo,
                    hi,
                    plan_name
                );
                prop_assert!(out.exact, "{} inexact after heal + repair", s.scheme_name());
                prop_assert_eq!(out.peer_recall(), 1.0, "{} recall", s.scheme_name());
            }
        }
    }

    #[test]
    fn whole_domain_query_returns_everything_everywhere(seed in 0u64..10_000) {
        let mut schemes = build_all(seed, 40);
        let mut data_rng = simnet::rng_from_seed(seed ^ 0xa11);
        for h in 0..60u64 {
            let v = data_rng.gen_range(DOMAIN.0..=DOMAIN.1);
            for s in &mut schemes {
                s.publish(v, h).expect("publish");
            }
        }
        for s in &schemes {
            let origin = s.random_origin(&mut data_rng);
            let out = s.range_query(origin, DOMAIN.0, DOMAIN.1, 0).expect("query");
            prop_assert_eq!(
                out.results.len(),
                60,
                "{} dropped records on the whole-domain query",
                s.scheme_name()
            );
        }
    }
}

/// PIRA is MIRA at arity one. Built from one seed over one attribute, with
/// the same records, the two answer every query with the same
/// `RangeOutcome`, field for field — results, hops, latency, messages,
/// destinations, reached peers and exactness — on built covers and again
/// after a churn plan and `stabilize`. A MIRA sub-query that forwarded into
/// a sibling sub-query's subtree would reach peers twice and bill more
/// messages than PIRA.
#[test]
fn pira_is_mira_at_arity_one() {
    use armada_suite::armada::{MiraScheme, PiraScheme};
    use armada_suite::dht_api::{DynamicScheme, MultiBuildParams, MultiRangeScheme};
    for (n, seed, plan) in
        [(50, 0x0a1, "steady-churn"), (700, 0x0a2, "massacre"), (3000, 0x0a3, "flash-crowd")]
    {
        let params = BuildParams::new(n, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
        let mut pira = PiraScheme::build(&params, &mut simnet::rng_from_seed(seed)).unwrap();
        let params = MultiBuildParams::new(n, &[DOMAIN]).with_object_id_len(24);
        let mut mira = MiraScheme::build(&params, &mut simnet::rng_from_seed(seed)).unwrap();
        let mut rng = simnet::rng_from_seed(seed ^ 0xda7a);
        for h in 0..2 * n as u64 {
            let v = rng.gen_range(DOMAIN.0..=DOMAIN.1);
            pira.publish(v, h).expect("publish");
            mira.publish_point(&[v], h).expect("publish");
        }
        for cover in ["built", "churned"] {
            if cover == "churned" {
                let plan = ChurnPlan::named(plan).expect("cataloged").with_rate(n / 20);
                let dynamic: [&mut dyn DynamicScheme; 2] =
                    [pira.as_dynamic().expect("pira is dynamic"), mira.inner_mut()];
                for scheme in dynamic {
                    for epoch in 0..3 {
                        plan.apply(scheme, seed, epoch).expect("plans tolerate refusals");
                    }
                    scheme.stabilize();
                }
            }
            for q in 0..100u64 {
                let lo: f64 = rng.gen_range(DOMAIN.0..DOMAIN.1);
                let width = (DOMAIN.1 - DOMAIN.0) * rng.gen_range(0.0..1.0f64).powi(3);
                let hi = (lo + width).min(DOMAIN.1);
                let origin = pira.random_origin(&mut rng);
                let single = pira.range_query(origin, lo, hi, q).expect("pira query");
                let multi = mira.rect_query(origin, &[(lo, hi)], q).expect("mira query");
                assert_eq!(single, multi, "N = {n}, {cover} cover: query {q} [{lo}, {hi}]");
                assert!(single.exact, "N = {n}, {cover} cover: query {q} inexact");
            }
        }
    }
}

/// A query from an origin past the live set is a typed `BadOrigin` on
/// every registered name, both shapes — never a panic inside a substrate.
#[test]
fn out_of_range_origins_are_bad_origin_errors_everywhere() {
    use armada_suite::dht_api::MultiBuildParams;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    const N: usize = 40;
    let registry = standard_registry();
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
    let domains = [DOMAIN, DOMAIN];
    let multi_params = MultiBuildParams::new(N, &domains).with_object_id_len(24);
    let mut wrong = Vec::new();
    let mut check = |name: String, origin: usize, query: &dyn Fn() -> Result<(), SchemeError>| {
        match catch_unwind(AssertUnwindSafe(query)) {
            Ok(Err(SchemeError::BadOrigin { origin: got })) if got == origin => {}
            Ok(other) => wrong.push(format!("{name} from {origin}: {other:?}")),
            Err(_) => wrong.push(format!("{name} from {origin}: panicked")),
        }
    };
    for name in registry.single_names() {
        let mut rng = simnet::rng_from_seed(0xbad ^ dht_api::fnv1a(name.as_bytes()));
        let scheme = registry.build_single(name, &params, &mut rng).expect("build");
        for origin in [scheme.node_count(), usize::MAX] {
            let query = || scheme.range_query(origin, 10.0, 20.0, 0).map(|_| ());
            check(format!("single {name}"), origin, &query);
        }
    }
    for name in registry.multi_names() {
        let mut rng = simnet::rng_from_seed(0xbad ^ dht_api::fnv1a(name.as_bytes()));
        let scheme = registry.build_multi(name, &multi_params, &mut rng).expect("build");
        for origin in [scheme.node_count(), usize::MAX] {
            let query = || scheme.rect_query(origin, &[(10.0, 20.0), (10.0, 20.0)], 0).map(|_| ());
            check(format!("multi {name}"), origin, &query);
        }
    }
    assert!(wrong.is_empty(), "out-of-range origins not refused:\n{}", wrong.join("\n"));
}

/// A handle published more than once — under two values, and twice under
/// one — comes back once, on every registered name, both shapes: the
/// "ascending and deduplicated" promise of `RangeOutcome::results` holds
/// whatever the scheme stores per publish.
#[test]
fn a_handle_published_twice_comes_back_once_everywhere() {
    use armada_suite::dht_api::MultiBuildParams;
    const N: usize = 40;
    const PUBLISHED: [(f64, u64); 4] = [(120.0, 7), (870.0, 7), (120.0, 7), (500.0, 3)];
    let registry = standard_registry();
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
    let domains = [DOMAIN, DOMAIN];
    let multi_params = MultiBuildParams::new(N, &domains).with_object_id_len(24);
    let mut wrong = Vec::new();
    for name in registry.single_names() {
        let mut rng = simnet::rng_from_seed(0x7007 ^ dht_api::fnv1a(name.as_bytes()));
        let mut scheme = registry.build_single(name, &params, &mut rng).expect("build");
        for (value, handle) in PUBLISHED {
            scheme.publish(value, handle).expect("publish");
        }
        let origin = scheme.random_origin(&mut rng);
        let out = scheme.range_query(origin, DOMAIN.0, DOMAIN.1, 0).expect("query");
        if out.results != [3, 7] {
            wrong.push(format!("single {name}: {:?}", out.results));
        }
    }
    for name in registry.multi_names() {
        let mut rng = simnet::rng_from_seed(0x7007 ^ dht_api::fnv1a(name.as_bytes()));
        let mut scheme = registry.build_multi(name, &multi_params, &mut rng).expect("build");
        for (value, handle) in PUBLISHED {
            scheme.publish_point(&[value, 1000.0 - value], handle).expect("publish");
        }
        let origin = scheme.random_origin(&mut rng);
        let out = scheme.rect_query(origin, &domains, 0).expect("query");
        if out.results != [3, 7] {
            wrong.push(format!("multi {name}: {:?}", out.results));
        }
    }
    assert!(wrong.is_empty(), "repeated handles not deduplicated:\n{}", wrong.join("\n"));
}

/// Query bounds at ±∞ or past the domain clamp to it, and records
/// published past it clamp to its ends: every registered single-attribute
/// name answers such a query with exactly the records whose value lies in
/// the closed range — a record at −5 is in `[−∞, 500]` and in `[−10, 10]`,
/// one at 1005 in `[500, +∞]` and in `[990, 2000]`, though both are named
/// like the domain's ends.
#[test]
fn infinite_and_out_of_domain_bounds_are_exact_everywhere() {
    const N: usize = 60;
    const INF: f64 = f64::INFINITY;
    let values = [-5.0, 0.0, 4.0, 10.0, 250.0, 500.0, 730.5, 990.0, 999.0, 1000.0, 1005.0];
    let queries = [(-INF, 500.0), (500.0, INF), (-INF, INF), (-10.0, 10.0), (990.0, 2000.0)];
    let registry = standard_registry();
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
    let mut wrong = Vec::new();
    for name in registry.single_names() {
        let mut rng = simnet::rng_from_seed(0x1f ^ dht_api::fnv1a(name.as_bytes()));
        let mut scheme = registry.build_single(name, &params, &mut rng).expect("build");
        for (handle, &value) in (0..).zip(&values) {
            scheme.publish(value, handle).expect("publish");
        }
        for (q, &(lo, hi)) in (0..).zip(&queries) {
            let expected: Vec<u64> =
                (0..).zip(&values).filter(|&(_, &v)| lo <= v && v <= hi).map(|(h, _)| h).collect();
            let origin = scheme.random_origin(&mut rng);
            match scheme.range_query(origin, lo, hi, q) {
                Ok(out) if out.results == expected && out.exact => {}
                other => wrong.push(format!("{name} [{lo}, {hi}]: {other:?}, want {expected:?}")),
            }
        }
    }
    assert!(wrong.is_empty(), "clamped bounds answered wrongly:\n{}", wrong.join("\n"));
}

/// Every registered name, both shapes, at N ∈ {0, 1, 2} (multi-attribute
/// ones at every arity in {0, 1, 2, 6, 7}): an empty network is a typed
/// `Build` error, and a tiny one is either a typed error too or answers
/// the whole-domain query exactly — never a panic inside a substrate,
/// never an answer from a network nobody asked for.
#[test]
fn tiny_networks_are_built_or_refused_never_panic() {
    use armada_suite::dht_api::MultiBuildParams;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    const RECORDS: u64 = 30;
    let registry = standard_registry();
    let mut wrong = Vec::new();
    let mut check = |name: String, n: usize, run: &dyn Fn() -> Result<bool, SchemeError>| match (
        n,
        catch_unwind(AssertUnwindSafe(run)),
    ) {
        (_, Err(_)) => wrong.push(format!("{name} at n = {n}: panicked")),
        (0, Ok(Err(SchemeError::Build(_)))) | (1.., Ok(Err(_) | Ok(true))) => {}
        (_, Ok(other)) => wrong.push(format!("{name} at n = {n}: {other:?}")),
    };
    for n in 0..3 {
        let params = BuildParams::new(n, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
        for name in registry.single_names() {
            let run = || {
                let mut rng = simnet::rng_from_seed(0x7171 ^ dht_api::fnv1a(name.as_bytes()));
                let mut scheme = registry.build_single(name, &params, &mut rng)?;
                for h in 0..RECORDS {
                    scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h)?;
                }
                let origin = scheme.random_origin(&mut rng);
                let out = scheme.range_query(origin, DOMAIN.0, DOMAIN.1, 0)?;
                Ok(out.exact && out.results == (0..RECORDS).collect::<Vec<_>>())
            };
            check(format!("single {name}"), n, &run);
        }
        // Every arity a multi-attribute scheme either serves or refuses:
        // none, one, the two of the paper's grid, and both sides of the
        // six a 62-bit z-order key holds at ten bits per attribute.
        for d in [0, 1, 2, 6, 7] {
            let domains = vec![DOMAIN; d];
            let params = MultiBuildParams::new(n, &domains).with_object_id_len(24);
            for name in registry.multi_names() {
                let run = || {
                    let mut rng = simnet::rng_from_seed(0x7171 ^ dht_api::fnv1a(name.as_bytes()));
                    let mut scheme = registry.build_multi(name, &params, &mut rng)?;
                    for h in 0..RECORDS {
                        let p: Vec<f64> =
                            (0..d).map(|_| rng.gen_range(DOMAIN.0..=DOMAIN.1)).collect();
                        scheme.publish_point(&p, h)?;
                    }
                    let origin = scheme.random_origin(&mut rng);
                    let out = scheme.rect_query(origin, &domains, 0)?;
                    Ok(out.exact && out.results == (0..RECORDS).collect::<Vec<_>>())
                };
                check(format!("multi {name} with {d} attributes"), n, &run);
            }
        }
    }
    assert!(wrong.is_empty(), "tiny networks mishandled:\n{}", wrong.join("\n"));
}

/// Every registered single-attribute name × {bare, `+r3`, `@wan`,
/// `+r3@wan@lossy-p/r3`, `@wan@lossy-p/r3`}, all through
/// `RangeScheme::query`. The unreplicated hostile stack is where PHT
/// retries: replica fetches make its replicated answer whole.
#[test]
fn one_query_path_holds_on_every_stack() {
    const N: usize = 60;
    let registry = standard_registry();
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
    let build = |stack: &str| {
        let mut rng = simnet::rng_from_seed(0x0173 ^ dht_api::fnv1a(stack.as_bytes()));
        let mut scheme = registry.build_single(stack, &params, &mut rng)?;
        for h in 0..200u64 {
            scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h)?;
        }
        Ok::<_, SchemeError>(scheme)
    };
    let mut retried = Vec::new();
    let dynamic = dynamic_single_names();
    for name in registry.single_names() {
        let routable = build(name).expect("bare build").as_replica_routing().is_some();
        for suffix in ["", "+r3", "@wan", "+r3@wan@lossy-p/r3", "@wan@lossy-p/r3"] {
            let stack = if routable || !suffix.contains("+r3") {
                format!("{name}{suffix}")
            } else {
                // No replica routing: the wrapper refuses, typed; the rest
                // of the stack still has to hold.
                let refused = build(&format!("{name}{suffix}")).map(|_| ());
                assert!(
                    matches!(refused, Err(SchemeError::Unsupported { feature: "replication", .. })),
                    "{name}{suffix}: {refused:?}"
                );
                format!("{name}{}", suffix.replace("+r3", ""))
            };
            let scheme = build(&stack).expect("stack builds");
            let hostile = stack.contains("lossy");
            if hostile && !dynamic.iter().any(|d| d == name) {
                // A static baseline cannot simulate the plan: every query
                // refuses it, typed.
                let refused = scheme.range_query(0, DOMAIN.0, DOMAIN.1, 0);
                assert!(
                    matches!(
                        refused,
                        Err(SchemeError::Unsupported { feature: "fault injection", .. })
                    ),
                    "{stack}: {refused:?}"
                );
                continue;
            }
            let mut scratch = simnet::QueryScratch::new();
            let mut qrng = simnet::rng_from_seed(0x9e4 ^ dht_api::fnv1a(stack.as_bytes()));
            let mut saw_retry = false;
            for q in 0..12u64 {
                let lo: f64 = qrng.gen_range(DOMAIN.0..DOMAIN.1);
                let hi = (lo + qrng.gen_range(0.1f64..300.0)).min(DOMAIN.1);
                let origin = scheme.random_origin(&mut qrng);

                // (a) NaN bounds are a typed error on every stack — never a
                // panic, never a silently empty "exact" answer.
                for (lo, hi) in [(f64::NAN, hi), (lo, f64::NAN)] {
                    let err = scheme.range_query(origin, lo, hi, q).map(|_| ());
                    assert!(
                        matches!(err, Err(SchemeError::EmptyRange { .. })),
                        "{stack}: [{lo}, {hi}] gave {err:?}"
                    );
                }

                // (b) One scratch reused across the whole batch answers
                // bit for bit like the plain call — on hostile stacks too:
                // every fault verdict is a pure hash of the request.
                let req = RangeRequest::new(origin, lo, hi, q).expect("well-formed");
                let reused = scheme.query(&req, &mut QueryCtx::new(&mut scratch)).expect("query");
                let plain = scheme.range_query(origin, lo, hi, q).expect("plain query");
                assert_eq!(reused, plain, "{stack}: scratch reuse moved query {q} [{lo}, {hi}]");
                assert!(plain.exact || hostile, "{stack}: inexact on a clean network");

                // (c) Requesting a trace observes, never perturbs, and the
                // cost tree accounts for every reported hop, ms and message.
                let mut trace = QueryTrace::default();
                let mut cx = QueryCtx::new(&mut scratch).with_trace(&mut trace);
                let traced = scheme.query(&req, &mut cx).expect("traced query");
                assert_eq!(traced, plain, "{stack}: tracing moved query {q} [{lo}, {hi}]");
                assert_eq!(
                    trace.root.total(),
                    (traced.delay, traced.latency, traced.messages),
                    "{stack}: query {q} explain tree does not sum to the outcome\n{}",
                    trace.explain_text()
                );
                saw_retry |=
                    trace.events.iter().any(|r| matches!(r.event, TraceEvent::RetryAttempt { .. }));
            }
            // Retries execute only under a hostile plan; when they do they
            // show up in the stream as stamped events and meter on the
            // wrapper.
            assert!(hostile || !saw_retry, "{stack}: retried on a clean network");
            assert_eq!(scheme.retry_attempts() > 0, saw_retry, "{stack}: retry metering");
            if saw_retry {
                retried.push(stack);
            }
        }
    }
    // Retries ran on both kinds of fault path: an engine on `Sim` and
    // PHT's routed gets.
    for name in ["dcf-can", "pht-chord"] {
        assert!(retried.iter().any(|s| s.starts_with(name)), "{name} never retried: {retried:?}");
    }
}

/// `DigestReport`s of one fixed batch (N = 600, 600 records, 200 `mixed`
/// queries, seed `0xdcf`) on every stack that runs the DCF engine, and the
/// FNV-1a hash of the `trace_explain --sample 1/1 --format jsonl` stream
/// for `dcf-can@wan` — recorded before `dcf::query` moved onto the
/// split-tree descent and the shared stamp ledger (PR 15), so an engine
/// rewrite that shifts one hop, one virtual millisecond, one message or
/// one trace line fails here by name.
const DCF_GOLDEN_DIGESTS: [(&str, u64); 5] = [
    ("dcf-can", 0x276e_7871_be11_4ac8),
    ("dcf-can-naive", 0xe04e_8999_b93e_839e),
    ("dcf-can@wan", 0x4716_7b5b_4a6e_84f3),
    ("dcf-can@lossy-p/r3", 0xde18_822f_67ae_9f22),
    ("dcf-can+r3", 0x0ba7_e0da_43e0_a2bd),
];
const DCF_WAN_TRACE_JSONL_FNV: u64 = 0xb217_704c_ee65_32dd;
/// The FNV-1a hash of the `trace_explain --sample 1/1 --format jsonl`
/// stream for `pira+r3@wan@lossy-10/r2` at N = 250 and 100 queries (the
/// stream CI validates against the schema) — recorded while `Sim` kept two
/// delivery lanes and a descent message was 24 bytes, so a change to the
/// simulator's delivery order or to PIRA's handler that moves one hop, one
/// fault verdict, one virtual millisecond or one replica fetch fails here.
const PIRA_LOSSY_TRACE_JSONL_FNV: u64 = 0x39e0_930f_dd56_e6e6;

#[test]
fn dcf_golden_digests_hold() {
    use armada_suite::dht_api::{DigestReport, ParallelDriver, WorkloadGen};
    use armada_suite::experiments::trace_explain::{run_sampled, Format, TraceExplainConfig};
    const N: usize = 600;
    const QUERIES: usize = 200;
    const SEED: u64 = 0xdcf;

    let registry = standard_registry();
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1);
    let workload = WorkloadGen::named("mixed", DOMAIN).expect("cataloged");
    for (stack, want) in DCF_GOLDEN_DIGESTS {
        let mut rng = simnet::rng_from_seed(SEED ^ dht_api::fnv1a(stack.as_bytes()));
        let mut scheme = registry.build_single(stack, &params, &mut rng).expect("stack builds");
        for h in 0..N as u64 {
            scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
        }
        let driver = ParallelDriver {
            queries: QUERIES,
            seed: SEED,
            threads: 1,
            shard_salt: 0,
            metrics: false,
        };
        let got = DigestReport::of(&driver.run(scheme.as_ref(), &workload).expect("batch runs"));
        assert_eq!(got.value(), want, "{stack}: digest moved to {:#018x}", got.value());
    }

    let cfg = TraceExplainConfig {
        scheme: "dcf-can@wan".into(),
        n: N,
        queries: QUERIES,
        seed: SEED,
        workload: "mixed".into(),
        ..TraceExplainConfig::default()
    };
    let jsonl = run_sampled(&cfg, 1, Format::Jsonl).expect("trace stream renders");
    let got = dht_api::fnv1a(jsonl.as_bytes());
    assert_eq!(got, DCF_WAN_TRACE_JSONL_FNV, "dcf-can@wan trace stream moved to {got:#018x}");
}

#[test]
fn pira_lossy_trace_stream_holds() {
    use armada_suite::experiments::trace_explain::{run_sampled, Format, TraceExplainConfig};
    let cfg = TraceExplainConfig {
        scheme: "pira+r3@wan@lossy-10/r2".into(),
        n: 250,
        queries: 100,
        ..TraceExplainConfig::default()
    };
    let jsonl = run_sampled(&cfg, 1, Format::Jsonl).expect("trace stream renders");
    let got = dht_api::fnv1a(jsonl.as_bytes());
    assert_eq!(got, PIRA_LOSSY_TRACE_JSONL_FNV, "{} trace stream moved to {got:#018x}", cfg.scheme);
}

/// `DigestReport`s of one fixed batch (N = 600, 600 records, 200 `mixed`
/// queries, seed `0x947`) on the layered PHT stacks, and of a 200-rectangle
/// `rect-correlated` batch on `squid@wan` through `run_multi` — recorded
/// before Chord routing became an allocation-free fold and the PHT trie an
/// arena (PR 25). `pht-chord@wan` and `squid@wan` price every finger edge,
/// so a route that takes one different hop fails here by name, as does a
/// trie walk that probes or visits one different node.
const LAYERED_GOLDEN_DIGESTS: [(&str, u64); 4] = [
    ("pht-chord", 0xfe36_8a7f_4b13_c742),
    ("pht-fissione", 0x80a8_5c6b_f7d2_4b92),
    ("pht-chord@wan", 0xf7ae_1808_3b05_5de5),
    ("pht-chord+r3", 0x9429_23f2_6e56_fee2),
];
const SQUID_WAN_RECT_DIGEST: u64 = 0x3e35_75a9_73ac_298f;

#[test]
fn layered_golden_digests_hold() {
    use armada_suite::dht_api::{DigestReport, MultiBuildParams, ParallelDriver, WorkloadGen};
    const N: usize = 600;
    const QUERIES: usize = 200;
    const SEED: u64 = 0x947;

    let registry = standard_registry();
    let driver =
        ParallelDriver { queries: QUERIES, seed: SEED, threads: 1, shard_salt: 0, metrics: false };
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(24);
    let workload = WorkloadGen::named("mixed", DOMAIN).expect("cataloged");
    let mut moved = Vec::new();
    for (stack, want) in LAYERED_GOLDEN_DIGESTS {
        let mut rng = simnet::rng_from_seed(SEED ^ dht_api::fnv1a(stack.as_bytes()));
        let mut scheme = registry.build_single(stack, &params, &mut rng).expect("stack builds");
        for h in 0..N as u64 {
            scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
        }
        let got = DigestReport::of(&driver.run(scheme.as_ref(), &workload).expect("batch runs"));
        if got.value() != want {
            moved.push(format!("{stack}: digest moved to {:#018x}", got.value()));
        }
    }

    let domains = [DOMAIN, DOMAIN];
    let params = MultiBuildParams::new(N, &domains);
    let mut rng = simnet::rng_from_seed(SEED ^ dht_api::fnv1a(b"squid@wan"));
    let mut scheme = registry.build_multi("squid@wan", &params, &mut rng).expect("squid builds");
    for h in 0..N as u64 {
        let p = [rng.gen_range(DOMAIN.0..=DOMAIN.1), rng.gen_range(DOMAIN.0..=DOMAIN.1)];
        scheme.publish_point(&p, h).expect("publish");
    }
    let rects = WorkloadGen::named("rect-correlated", DOMAIN).expect("cataloged");
    let got =
        DigestReport::of(&driver.run_multi(scheme.as_ref(), &domains, &rects).expect("batch runs"));
    if got.value() != SQUID_WAN_RECT_DIGEST {
        moved.push(format!("squid@wan: digest moved to {:#018x}", got.value()));
    }
    assert!(moved.is_empty(), "layered engines moved:\n{}", moved.join("\n"));
}
