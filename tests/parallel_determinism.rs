//! The parallel driver's headline guarantee, enforced on real schemes:
//! `ParallelDriver` with `threads = 1` and `threads = 8` must produce
//! **identical** merged summaries for the same seed, across the workload
//! catalog.
//!
//! Every query is derived from its index — range, origin, and scheme seed
//! are all pure functions of `(workload, seed, q)` — and per-thread sample
//! vectors merge in shard order before a single sort-and-summarize pass,
//! so nothing about the sharding can leak into the report. This test is
//! the contract the sweeps and the persisted bench baseline rely on to
//! stay reproducible while running at full hardware width.

use armada_suite::dht_api::{
    BuildParams, ChurnPlan, DriverReport, ParallelDriver, RangeScheme, WorkloadGen,
    CHURN_PLAN_NAMES,
};
use armada_suite::experiments::standard_registry;

const DOMAIN: (f64, f64) = (0.0, 1000.0);

/// Field-by-field exact equality of two reports (Summary is `PartialEq`
/// over plain `f64`s; identical merged samples give bitwise-equal stats),
/// including the per-epoch series of epoch-driven runs.
fn assert_reports_identical(a: &DriverReport, b: &DriverReport, ctx: &str) {
    assert_eq!(a.scheme, b.scheme, "{ctx}: scheme");
    assert_eq!(a.queries, b.queries, "{ctx}: queries");
    assert_eq!(a.delay, b.delay, "{ctx}: delay");
    assert_eq!(a.latency, b.latency, "{ctx}: latency");
    assert_eq!(a.messages, b.messages, "{ctx}: messages");
    assert_eq!(a.dest_peers, b.dest_peers, "{ctx}: dest_peers");
    assert_eq!(a.mesg_ratio, b.mesg_ratio, "{ctx}: mesg_ratio");
    assert_eq!(a.incre_ratio, b.incre_ratio, "{ctx}: incre_ratio");
    assert_eq!(a.recall, b.recall, "{ctx}: recall");
    assert_eq!(a.exact_rate, b.exact_rate, "{ctx}: exact_rate");
    assert_eq!(a.results_returned, b.results_returned, "{ctx}: results_returned");
    assert_eq!(a.epochs.len(), b.epochs.len(), "{ctx}: epoch count");
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        let ectx = format!("{ctx} epoch {}", ea.epoch);
        assert_eq!(ea.epoch, eb.epoch, "{ectx}: index");
        assert_eq!(ea.peers, eb.peers, "{ectx}: peers");
        assert_eq!(ea.churn, eb.churn, "{ectx}: churn stats");
        assert_eq!(ea.repair, eb.repair, "{ectx}: repair stats");
        assert_eq!(ea.delay_mean, eb.delay_mean, "{ectx}: delay");
        assert_eq!(ea.latency_mean, eb.latency_mean, "{ectx}: latency");
        assert_eq!(ea.exact_rate, eb.exact_rate, "{ectx}: exact");
        assert_eq!(ea.recall_mean, eb.recall_mean, "{ectx}: recall");
        assert_eq!(ea.results_returned, eb.results_returned, "{ectx}: results");
    }
}

#[test]
fn threads_1_and_8_merge_identically_across_schemes_and_workloads() {
    let registry = standard_registry();
    let params = BuildParams::new(200, DOMAIN.0, DOMAIN.1).with_object_id_len(32);

    // A scheme from each family: Kautz-routed, CAN-flooded, trie-layered,
    // and linked-list walked.
    for scheme_name in ["pira", "dcf-can", "pht-chord", "skipgraph"] {
        let mut rng = simnet::rng_from_seed(0xdec0de);
        let mut scheme = registry.build_single(scheme_name, &params, &mut rng).unwrap();
        for h in 0..200u64 {
            use armada_suite::rand::Rng;
            scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).unwrap();
        }

        for wl_name in ["uniform", "zipf-hot", "clustered", "wide-scan", "mixed"] {
            let workload = WorkloadGen::named(wl_name, DOMAIN).unwrap();
            let driver =
                ParallelDriver { queries: 60, seed: 7, threads: 1, shard_salt: 0, metrics: false };
            let serial = driver.run(scheme.as_ref(), &workload).unwrap();
            let sharded = driver.with_threads(8).run(scheme.as_ref(), &workload).unwrap();
            assert_reports_identical(&serial, &sharded, &format!("{scheme_name}/{wl_name}"));
            // And the batch actually measured something.
            assert_eq!(serial.queries, 60);
            assert!(serial.delay.count == 60 && serial.delay.max >= serial.delay.mean);
        }
    }
}

/// Builds and loads one scheme instance, identically every call: epoch-mode
/// runs mutate the scheme, so each thread-count run gets a fresh build from
/// the same seed.
fn fresh_scheme(name: &str) -> Box<dyn RangeScheme> {
    let registry = standard_registry();
    let params = BuildParams::new(150, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0xe90c);
    let mut scheme = registry.build_single(name, &params, &mut rng).unwrap();
    for h in 0..150u64 {
        use armada_suite::rand::Rng;
        scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).unwrap();
    }
    scheme
}

#[test]
fn epoch_mode_reports_are_identical_across_thread_counts_for_every_plan() {
    // The acceptance bar: under every named churn plan, the epoch-driven
    // report — per-epoch series included — must not depend on threads.
    let workload = WorkloadGen::named("uniform", DOMAIN).unwrap();
    for scheme_name in ["pira", "dcf-can"] {
        for plan_name in CHURN_PLAN_NAMES {
            let plan = ChurnPlan::named(plan_name).unwrap().with_rate(6);
            let driver =
                ParallelDriver { queries: 30, seed: 11, threads: 1, shard_salt: 0, metrics: false };
            let mut serial_scheme = fresh_scheme(scheme_name);
            let serial = driver.run_epochs(serial_scheme.as_mut(), &workload, &plan, 4).unwrap();
            for threads in [3, 8] {
                let mut sharded_scheme = fresh_scheme(scheme_name);
                let sharded = driver
                    .with_threads(threads)
                    .run_epochs(sharded_scheme.as_mut(), &workload, &plan, 4)
                    .unwrap();
                assert_reports_identical(
                    &serial,
                    &sharded,
                    &format!("{scheme_name}/{plan_name}/t{threads}"),
                );
            }
            assert_eq!(serial.queries, 120, "4 epochs × 30 queries");
            assert_eq!(serial.epochs.len(), 4);
            // Churn actually happened (epoch 0 is the clean baseline).
            let events: usize = serial.epochs.iter().map(|e| e.churn.events()).sum();
            assert!(events > 0, "{scheme_name}/{plan_name} applied no churn");
        }
    }
}

#[test]
fn replicated_epoch_reports_are_identical_across_thread_counts() {
    // The replication layer must not cost the determinism guarantee:
    // replica placement, recovery fetches, and the per-epoch repair series
    // are all pure functions of the query index and the membership
    // history, so a replicated scheme's epoch report — repair series
    // included — is bitwise identical for any thread count.
    let workload = WorkloadGen::named("uniform", DOMAIN).unwrap();
    for scheme_name in ["pira+r3", "dcf-can+ns2"] {
        for plan_name in ["massacre", "steady-churn"] {
            let plan = ChurnPlan::named(plan_name).unwrap().with_rate(6);
            let driver =
                ParallelDriver { queries: 30, seed: 11, threads: 1, shard_salt: 0, metrics: false };
            let mut serial_scheme = fresh_scheme(scheme_name);
            let serial = driver.run_epochs(serial_scheme.as_mut(), &workload, &plan, 4).unwrap();
            for threads in [3, 8] {
                let mut sharded_scheme = fresh_scheme(scheme_name);
                let sharded = driver
                    .with_threads(threads)
                    .run_epochs(sharded_scheme.as_mut(), &workload, &plan, 4)
                    .unwrap();
                assert_reports_identical(
                    &serial,
                    &sharded,
                    &format!("{scheme_name}/{plan_name}/t{threads}"),
                );
            }
            // Replication is genuinely active in these runs: the massacre
            // plan's crashes must trigger repair placements somewhere.
            if plan_name == "massacre" {
                let placed: usize = serial.epochs.iter().map(|e| e.repair.placed).sum();
                assert!(placed > 0, "{scheme_name}/{plan_name}: no repair traffic recorded");
            }
        }
    }
}

#[test]
fn latency_reports_are_thread_count_invariant_under_every_net_model() {
    // The cost-model layer's determinism claim: every edge cost is a pure
    // function of (model, seed, src, dst) — no RNG stream order — so the
    // merged latency summary cannot depend on how queries were sharded,
    // under any cataloged model.
    let registry = standard_registry();
    for net_name in armada_suite::dht_api::NET_MODEL_NAMES {
        for scheme_name in ["pira", "pht-chord", "skipgraph"] {
            let name = format!("{scheme_name}@{net_name}");
            let params = BuildParams::new(150, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
            let mut rng = simnet::rng_from_seed(0x1a7);
            let mut scheme = registry.build_single(&name, &params, &mut rng).unwrap();
            for h in 0..150u64 {
                use armada_suite::rand::Rng;
                scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).unwrap();
            }
            let workload = WorkloadGen::named("mixed", DOMAIN).unwrap();
            let driver =
                ParallelDriver { queries: 48, seed: 5, threads: 1, shard_salt: 0, metrics: false };
            let serial = driver.run(scheme.as_ref(), &workload).unwrap();
            for threads in [3, 8] {
                let sharded = driver.with_threads(threads).run(scheme.as_ref(), &workload).unwrap();
                assert_reports_identical(&serial, &sharded, &format!("{name}/t{threads}"));
            }
            assert_eq!(serial.latency.count, 48, "{name}: latency was measured");
            if net_name == "unit" {
                assert!(serial.latency.mean <= serial.delay.mean, "{name}: unit ≤ hop delay");
            }
        }
    }
}

#[test]
fn streaming_and_materialized_drivers_are_interchangeable_at_scale() {
    // The scaling sweeps run the streaming driver (ranges derived on the
    // fly inside each worker) so a 10⁶-query batch never materializes its
    // range table. Contract: at every batch size and thread count, the
    // streaming report is bitwise identical to the materialized oracle —
    // the only difference is *when* `workload.range(seed, q)` is evaluated.
    let scheme = fresh_scheme("pira");
    let workload = WorkloadGen::named("mixed", DOMAIN).unwrap();
    for queries in [1_000usize, 10_000] {
        let mut baseline: Option<DriverReport> = None;
        for threads in [1usize, 4] {
            let driver =
                ParallelDriver { queries, seed: 0xba5e, threads, shard_salt: 0, metrics: false };
            let streamed = driver.run(scheme.as_ref(), &workload).unwrap();
            // The oracle: the whole range table, generated up front.
            let ranges: Vec<(f64, f64)> =
                (0..queries as u64).map(|q| workload.range(driver.seed, q)).collect();
            let materialized = driver.run_indexed(scheme.as_ref(), |q| ranges[q as usize]).unwrap();
            let ctx = format!("pira/q{queries}/t{threads}");
            assert_reports_identical(&streamed, &materialized, &ctx);
            // And across thread counts, both match the t = 1 report.
            match &baseline {
                None => baseline = Some(streamed),
                Some(b) => assert_reports_identical(b, &streamed, &ctx),
            }
        }
    }
}

#[test]
fn trace_streams_are_byte_identical_across_threads_and_shard_salts() {
    // The observability plane's determinism bar, on the nastiest composed
    // stack in the registry grammar: replication + straggler edge pricing
    // + a split-brain partition plan. The *serialized* event streams —
    // virtual-time stamps, event ids, fault verdicts, replica fetches —
    // must be byte-identical however the batch was sharded.
    let registry = standard_registry();
    let name = "pira+r2@straggler@split-brain";
    let params = BuildParams::new(150, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0xe90c);
    let mut scheme = registry.build_single(name, &params, &mut rng).unwrap();
    for h in 0..150u64 {
        use armada_suite::rand::Rng;
        scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).unwrap();
    }
    let workload = WorkloadGen::named("mixed", DOMAIN).unwrap();
    let serialize = |threads: usize, salt: u64| {
        let driver =
            ParallelDriver { queries: 40, seed: 13, threads, shard_salt: salt, metrics: false };
        let (report, traces) = driver.run_traced(scheme.as_ref(), &workload).unwrap();
        assert_eq!(traces.len(), 40, "one trace per query");
        let stream: String = traces.iter().map(|t| t.to_jsonl()).collect();
        (report, stream)
    };
    let (reference_report, reference) = serialize(1, 0);
    assert!(!reference.is_empty(), "the composed stack emitted no events");
    assert!(reference.contains("\"type\":\"hop\""), "no hops in the stream");
    for threads in [1usize, 4] {
        for salt in [0u64, 0x5eed, 0xfeed_face_0ca1] {
            let (report, stream) = serialize(threads, salt);
            assert_reports_identical(
                &report,
                &reference_report,
                &format!("{name}/t{threads}/salt{salt:#x}"),
            );
            assert_eq!(
                stream, reference,
                "{name}: trace stream moved at threads {threads}, salt {salt:#x}"
            );
        }
    }
    // The explain layer's accounting invariant holds for every traced
    // query of the batch: the tree total reproduces the reported costs.
    let driver =
        ParallelDriver { queries: 40, seed: 13, threads: 1, shard_salt: 0, metrics: false };
    for q in 0..8 {
        let (out, trace) = driver.trace_one(scheme.as_ref(), &workload, q).unwrap();
        assert_eq!(
            trace.root.total(),
            (out.delay, out.latency, out.messages),
            "query {q}: explain tree does not reproduce the reported costs"
        );
    }
}

#[test]
fn epoch_mode_refuses_static_schemes_honestly() {
    let workload = WorkloadGen::named("uniform", DOMAIN).unwrap();
    let plan = ChurnPlan::named("steady-churn").unwrap();
    let mut scheme = fresh_scheme("skipgraph");
    let err = ParallelDriver::new(10)
        .run_epochs(scheme.as_mut(), &workload, &plan, 2)
        .expect_err("skipgraph has no dynamics");
    assert!(matches!(err, armada_suite::dht_api::SchemeError::Unsupported { .. }), "{err}");
}

#[test]
fn rect_driver_is_thread_count_invariant_too() {
    let registry = standard_registry();
    let domains = [(0.0, 100.0), (0.0, 100.0)];
    let params = armada_suite::dht_api::MultiBuildParams::new(150, &domains).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0xabcd);
    let mut scheme = registry.build_multi("mira", &params, &mut rng).unwrap();
    for h in 0..150u64 {
        use armada_suite::rand::Rng;
        let p = [rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)];
        scheme.publish_point(&p, h).unwrap();
    }
    for wl_name in ["rect-correlated", "mixed", "uniform"] {
        let workload = WorkloadGen::named(wl_name, (0.0, 100.0)).unwrap();
        let driver =
            ParallelDriver { queries: 40, seed: 3, threads: 1, shard_salt: 0, metrics: false };
        let serial = driver.run_multi(scheme.as_ref(), &domains, &workload).unwrap();
        let sharded =
            driver.with_threads(8).run_multi(scheme.as_ref(), &domains, &workload).unwrap();
        assert_reports_identical(&serial, &sharded, &format!("mira/{wl_name}"));
    }
}
