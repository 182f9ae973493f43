//! The runtime determinism canary: digests must survive hasher
//! perturbation, shuffled shard submission, and thread-count changes.
//!
//! The static rules (`cargo run -p detlint -- --workspace`) catch the
//! *patterns* that break bitwise reproducibility; this test catches
//! whatever the rules miss, by perturbing every ambient source of order
//! the std library offers and asserting the [`DigestReport`] — a
//! canonical bit-exact hash over the full `DriverReport`, epochs included
//! — never moves:
//!
//! * **Hasher seeds** — `std`'s `RandomState` derives fresh sip-hash keys
//!   per thread and per instance, so every run executes inside a freshly
//!   spawned OS thread: any surviving hash collection's iteration order is
//!   genuinely re-randomized between rounds.
//! * **Shard submission order** — [`ParallelDriver::shard_salt`] permutes
//!   the order worker threads are handed their shards; results must merge
//!   by shard index regardless.
//! * **Thread count** — 1 vs 4 workers re-cuts the shard boundaries
//!   entirely.
//!
//! Coverage: every registered single-attribute scheme (bare and under the
//! `@straggler` net model — the costliest, most order-sensitive edge
//! pricing in the catalog), every dynamic scheme's epoch-driven run under
//! churn (bare and `+r3`-replicated, where repair traffic is on the
//! report path), every multi-attribute scheme's rectangle batch, and the
//! hostile-network layer (`@lossy-p/r2` batches, where loss verdicts and
//! retry pricing are on the report path, and `@split-brain` epoch runs,
//! where the partition schedule is).

use armada_suite::dht_api::{
    BuildParams, ChurnPlan, DigestReport, DriverReport, MultiBuildParams, ParallelDriver,
    SchemeError, WorkloadGen,
};
use armada_suite::experiments::{dynamic_single_names, standard_registry};
use armada_suite::rand::Rng;

const DOMAIN: (f64, f64) = (0.0, 1000.0);
const N: usize = 100;
const BATCH_QUERIES: usize = 16;
const EPOCH_QUERIES: usize = 12;
const EPOCHS: usize = 3;

/// One shard-submission salt per perturbation round (round 0 keeps the
/// natural order, so "fresh thread alone" is itself a tested case).
const ROUND_SALTS: [u64; 3] = [0, 0x5eed, 0xfeed_face_0ca1];

/// Batch digest for a single-attribute scheme, built fresh per call so
/// every run (and its hash state, if any crept back in) is independent.
fn batch_digest(name: &str, threads: usize, salt: u64) -> DigestReport {
    DigestReport::of(&batch_run(name, threads, salt).expect("the batch runs"))
}

/// The batch report [`batch_digest`] digests.
fn batch_run(name: &str, threads: usize, salt: u64) -> Result<DriverReport, SchemeError> {
    let registry = standard_registry();
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0x0ca9_a817);
    let mut scheme = registry.build_single(name, &params, &mut rng).expect("scheme builds");
    for h in 0..N as u64 {
        scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
    }
    let workload = WorkloadGen::named("mixed", DOMAIN).expect("cataloged");
    let driver = ParallelDriver {
        queries: BATCH_QUERIES,
        seed: 7,
        threads,
        shard_salt: salt,
        metrics: false,
    };
    driver.run(scheme.as_ref(), &workload)
}

/// Epoch-driven digest for a dynamic scheme under churn: the scheme is
/// rebuilt fresh per call because epoch runs mutate membership.
fn epoch_digest(name: &str, threads: usize, salt: u64) -> DigestReport {
    let registry = standard_registry();
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0x0ca9_a817);
    let mut scheme = registry.build_single(name, &params, &mut rng).expect("scheme builds");
    for h in 0..N as u64 {
        scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
    }
    let workload = WorkloadGen::named("uniform", DOMAIN).expect("cataloged");
    let plan = ChurnPlan::named("steady-churn").expect("cataloged").with_rate(4);
    let driver = ParallelDriver {
        queries: EPOCH_QUERIES,
        seed: 11,
        threads,
        shard_salt: salt,
        metrics: false,
    };
    DigestReport::of(
        &driver.run_epochs(scheme.as_mut(), &workload, &plan, EPOCHS).expect("epoch run"),
    )
}

/// Rectangle-batch digest for a multi-attribute scheme.
fn rect_digest(name: &str, threads: usize, salt: u64) -> DigestReport {
    let registry = standard_registry();
    let domains = [(0.0, 100.0), (0.0, 100.0)];
    let params = MultiBuildParams::new(N, &domains).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0x0ca9_a817);
    let mut scheme = registry.build_multi(name, &params, &mut rng).expect("scheme builds");
    for h in 0..N as u64 {
        let p = [rng.gen_range(0.0..=100.0), rng.gen_range(0.0..=100.0)];
        scheme.publish_point(&p, h).expect("publish");
    }
    let workload = WorkloadGen::named("mixed", (0.0, 100.0)).expect("cataloged");
    let driver = ParallelDriver {
        queries: BATCH_QUERIES,
        seed: 3,
        threads,
        shard_salt: salt,
        metrics: false,
    };
    DigestReport::of(&driver.run_multi(scheme.as_ref(), &domains, &workload).expect("rect run"))
}

/// The canary harness: computes a reference digest on the current thread,
/// then re-runs `digest` inside 3 freshly spawned OS threads (fresh
/// `RandomState` hasher keys each), each round at threads ∈ {1, 4} under
/// that round's shard-submission salt, and requires every digest to be
/// identical.
fn assert_perturbation_invariant_for(
    label: &str,
    name: &str,
    digest: fn(&str, usize, u64) -> DigestReport,
) {
    let reference = digest(name, 1, 0);
    for (round, &salt) in ROUND_SALTS.iter().enumerate() {
        let owned = name.to_string();
        let digests =
            std::thread::spawn(move || [digest(&owned, 1, salt), digest(&owned, 4, salt)])
                .join()
                .expect("perturbation thread panicked");
        for (d, threads) in digests.iter().zip([1usize, 4]) {
            assert_eq!(
                *d, reference,
                "{label}/{name}: digest moved (round {round}, salt {salt:#x}, \
                 threads {threads}) — got {d}, want {reference}"
            );
        }
    }
}

#[test]
fn batch_digests_survive_perturbation_for_every_single_scheme() {
    for name in standard_registry().single_names() {
        assert_perturbation_invariant_for("batch", name, batch_digest);
    }
}

#[test]
fn straggler_net_model_digests_survive_perturbation() {
    // The straggler model prices edges most unevenly — the variant where
    // any ordering leak in latency accounting would show first.
    for name in standard_registry().single_names() {
        assert_perturbation_invariant_for("straggler", &format!("{name}@straggler"), batch_digest);
    }
}

#[test]
fn epoch_digests_survive_perturbation_for_every_dynamic_scheme() {
    for name in dynamic_single_names() {
        assert_perturbation_invariant_for("epochs", &name, epoch_digest);
    }
}

#[test]
fn replicated_epoch_digests_survive_perturbation() {
    // `+r3` puts replica placement, recovery fetches, and per-epoch repair
    // stats on the report path; all of it must digest identically too.
    for name in dynamic_single_names() {
        assert_perturbation_invariant_for("epochs+r3", &format!("{name}+r3"), epoch_digest);
    }
}

#[test]
fn replicated_batch_digests_survive_perturbation() {
    for name in dynamic_single_names() {
        assert_perturbation_invariant_for("batch+r3", &format!("{name}+r3"), batch_digest);
    }
}

#[test]
fn hostile_batch_digests_survive_perturbation() {
    // `@lossy-p/r2` puts loss verdicts, retransmit counting, and
    // timeout/backoff latency pricing on the report path for every
    // scheme that simulates the plan; a static baseline refuses it, typed.
    let dynamic = dynamic_single_names();
    for name in standard_registry().single_names() {
        let stack = format!("{name}@lossy-p/r2");
        if dynamic.iter().any(|d| d == name) {
            assert_perturbation_invariant_for("lossy-p/r2", &stack, batch_digest);
        } else {
            let refused = batch_run(&stack, 1, 0).map(|_| ());
            assert!(
                matches!(refused, Err(SchemeError::Unsupported { feature: "fault injection", .. })),
                "{stack}: {refused:?}"
            );
        }
    }
}

#[test]
fn hostile_epoch_digests_survive_perturbation() {
    // `@split-brain` epoch runs traverse the partition's open/heal
    // schedule while churn keeps mutating membership underneath.
    for name in dynamic_single_names() {
        assert_perturbation_invariant_for(
            "split-brain",
            &format!("{name}@split-brain"),
            epoch_digest,
        );
    }
}

#[test]
fn rect_digests_survive_perturbation_for_every_multi_scheme() {
    for name in standard_registry().multi_names() {
        assert_perturbation_invariant_for("rect", name, rect_digest);
    }
}

/// Batch digest with per-scheme metrics collection on: the merged
/// [`MetricsRegistry`] is part of the digested report, so any
/// shard-order dependence in counter/histogram merging moves the digest.
fn metrics_digest(name: &str, threads: usize, salt: u64) -> DigestReport {
    let registry = standard_registry();
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0x0ca9_a817);
    let mut scheme = registry.build_single(name, &params, &mut rng).expect("scheme builds");
    for h in 0..N as u64 {
        scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
    }
    let workload = WorkloadGen::named("mixed", DOMAIN).expect("cataloged");
    let driver = ParallelDriver {
        queries: BATCH_QUERIES,
        seed: 7,
        threads,
        shard_salt: salt,
        metrics: true,
    };
    DigestReport::of(&driver.run(scheme.as_ref(), &workload).expect("fault-free run"))
}

#[test]
fn metrics_digests_survive_perturbation() {
    // The observability plane's own determinism bar: with metrics on, the
    // digested report includes every counter, histogram, and per-peer
    // load cell — all of which must merge shard-order-independently.
    for name in ["pira", "seqwalk", "pira+r3@lossy-p/r2", "dcf-can@straggler"] {
        assert_perturbation_invariant_for("metrics", name, metrics_digest);
    }
}

#[test]
fn traced_runs_digest_identically_to_untraced_runs() {
    // Tracing is an observer, never an actor: a traced batch must produce
    // the same `DriverReport` — digest-identical — as the plain batch,
    // through the full wrapper stack (replication, net models, hostile
    // plans on Sim-run engines and on PHT's routed gets alike).
    let registry = standard_registry();
    for name in ["pira", "seqwalk@straggler", "pira+r3@lossy-p/r2", "pht-chord@throttle"] {
        let build = || {
            let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
            let mut rng = simnet::rng_from_seed(0x0ca9_a817);
            let mut scheme = registry.build_single(name, &params, &mut rng).expect("scheme builds");
            for h in 0..N as u64 {
                scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
            }
            scheme
        };
        let workload = WorkloadGen::named("mixed", DOMAIN).expect("cataloged");
        let driver = ParallelDriver {
            queries: BATCH_QUERIES,
            seed: 7,
            threads: 4,
            shard_salt: 0,
            metrics: false,
        };
        let plain = driver.run(build().as_ref(), &workload).expect("plain run");
        let (traced, traces) = driver.run_traced(build().as_ref(), &workload).expect("traced run");
        assert_eq!(
            DigestReport::of(&plain),
            DigestReport::of(&traced),
            "{name}: tracing moved the report digest"
        );
        assert_eq!(traces.len(), BATCH_QUERIES, "{name}: one trace per query");
        // And the plain run digests exactly like the canary's.
        assert_eq!(
            DigestReport::of(&plain),
            batch_digest(name, 1, 0),
            "{name}: the plain run moved off the canary digest"
        );
    }
}

#[test]
fn digests_distinguish_different_runs() {
    // Sanity for the canary itself: the digest is not a constant — a
    // different seed or scheme produces a different digest.
    let a = batch_digest("pira", 1, 0);
    let b = batch_digest("seqwalk", 1, 0);
    assert_ne!(a, b, "different schemes digested identically");
}
