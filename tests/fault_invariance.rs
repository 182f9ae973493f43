//! Loss-determinism property test: hostile-network verdicts are pure
//! hashes, so every faulted report must be bitwise identical across
//! worker thread counts and shard-submission salts — for every registered
//! scheme, at several seeds, under loss and partition plans alike.
//!
//! This is the hostile layer's counterpart of `parallel_determinism.rs`:
//! a loss verdict driven by anything ambient (retry counters shared
//! across threads, wall-clock timeouts, iteration order of a fault set)
//! would shard-split differently at different thread counts and move the
//! digest. The battery also pins the retry *trace* — messages and
//! virtual-ms latency, where timeouts and backoff are priced — and the
//! rejection of fault plans naming no live peer, at wrap time and by the
//! native engines, on built and churned networks alike.

use armada_suite::armada::MiraScheme;
use armada_suite::dht_api::{
    BuildParams, ChurnPlan, DigestReport, DriverReport, Hostile, MultiBuildParams,
    MultiRangeScheme, ParallelDriver, QueryCtx, RangeOutcome, RangeRequest, RangeScheme,
    RectRequest, RetryPolicy, SchemeError, WorkloadGen,
};
use armada_suite::experiments::{dynamic_single_names, standard_registry};
use armada_suite::rand::Rng;
use simnet::{FaultPlan, NodeId, QueryScratch};

const DOMAIN: (f64, f64) = (0.0, 1000.0);
const N: usize = 100;
const BATCH_QUERIES: usize = 12;
const EPOCH_QUERIES: usize = 10;
const EPOCHS: usize = 4;

/// Seeds each scheme × plan cell is digested at — the invariance must
/// hold pointwise, not just for one lucky seed.
const SEEDS: [u64; 3] = [7, 0x5eed, 0xbad_5eed];

/// Shard-submission salts (0 = natural order).
const SALTS: [u64; 2] = [0x5eed, 0xfeed_face_0ca1];

fn build(name: &str) -> Box<dyn RangeScheme> {
    let registry = standard_registry();
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0x0ca9_a817);
    let mut scheme = registry.build_single(name, &params, &mut rng).expect("scheme builds");
    for h in 0..N as u64 {
        scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
    }
    scheme
}

/// The batch report under a hostile suffix. The scheme is rebuilt per call
/// so no state (not even a benign cache) can leak between runs.
fn batch_report(
    name: &str,
    seed: u64,
    threads: usize,
    salt: u64,
) -> Result<DriverReport, SchemeError> {
    let scheme = build(name);
    let workload = WorkloadGen::named("mixed", DOMAIN).expect("cataloged");
    let driver =
        ParallelDriver { queries: BATCH_QUERIES, seed, threads, shard_salt: salt, metrics: false };
    driver.run(scheme.as_ref(), &workload)
}

/// Digest of [`batch_report`].
fn batch_digest(name: &str, seed: u64, threads: usize, salt: u64) -> DigestReport {
    DigestReport::of(&batch_report(name, seed, threads, salt).expect("faulted queries degrade"))
}

/// Every registered name under `suffix`: a scheme that churns simulates
/// the plan and its digests are thread-count-invariant; a static baseline
/// refuses the plan, typed.
fn assert_every_name(suffix: &str, digest: fn(&str, u64, usize, u64) -> DigestReport) {
    let dynamic = dynamic_single_names();
    for name in standard_registry().single_names() {
        let stack = format!("{name}@{suffix}");
        if dynamic.iter().any(|d| d == name) {
            assert_thread_invariant(suffix, &stack, digest);
        } else {
            let refused = batch_report(&stack, SEEDS[0], 1, 0).map(|_| ());
            assert!(
                matches!(refused, Err(SchemeError::Unsupported { feature: "fault injection", .. })),
                "{stack}: {refused:?}"
            );
        }
    }
}

/// Epoch-driven digest under a hostile suffix (partitions traverse their
/// open/heal schedule; membership stays frozen so the faults are the only
/// signal).
fn epoch_digest(name: &str, seed: u64, threads: usize, salt: u64) -> DigestReport {
    let mut scheme = build(name);
    let workload = WorkloadGen::named("uniform", DOMAIN).expect("cataloged");
    let plan = ChurnPlan::named("steady-churn").expect("cataloged").with_rate(0);
    let driver =
        ParallelDriver { queries: EPOCH_QUERIES, seed, threads, shard_salt: salt, metrics: false };
    DigestReport::of(
        &driver.run_epochs(scheme.as_mut(), &workload, &plan, EPOCHS).expect("epoch run"),
    )
}

/// The invariance harness: a single-threaded natural-order reference,
/// compared against 4 workers under every shard salt, at every seed.
fn assert_thread_invariant(
    label: &str,
    name: &str,
    digest: fn(&str, u64, usize, u64) -> DigestReport,
) {
    for &seed in &SEEDS {
        let reference = digest(name, seed, 1, 0);
        for &salt in &SALTS {
            for threads in [1usize, 4] {
                let d = digest(name, seed, threads, salt);
                assert_eq!(
                    d, reference,
                    "{label}/{name}: digest moved (seed {seed:#x}, salt {salt:#x}, \
                     threads {threads})"
                );
            }
        }
    }
}

#[test]
fn lossy_batch_digests_are_thread_count_invariant_for_every_scheme() {
    assert_every_name("lossy-p", batch_digest);
}

#[test]
fn retry_traces_are_thread_count_invariant() {
    // r3 puts retransmit counting, timeout pricing, and per-attempt
    // backoff jitter on the report path — all must merge identically.
    assert_every_name("lossy-25/r3", batch_digest);
}

#[test]
fn split_brain_epoch_digests_are_thread_count_invariant() {
    for name in dynamic_single_names() {
        assert_thread_invariant("split-brain", &format!("{name}@split-brain"), epoch_digest);
    }
}

#[test]
fn bursty_loss_composed_with_a_net_model_stays_invariant() {
    // Burst windows share per-edge attempt counters; composing with the
    // cluster model exercises the partition-free hostile path under
    // non-unit edge pricing.
    for name in dynamic_single_names() {
        assert_thread_invariant("bursty@cluster", &format!("{name}@bursty@cluster"), batch_digest);
    }
}

#[test]
fn faulted_reports_actually_differ_from_fault_free_ones() {
    // Sanity for the battery itself: the hostile suffix is not a no-op.
    let hostile = batch_digest("pira@lossy-p", 7, 1, 0);
    let clean = batch_digest("pira", 7, 1, 0);
    assert_ne!(hostile, clean, "lossy-p left pira's report untouched");
}

#[test]
fn out_of_range_fault_plans_are_rejected_at_wrap_time() {
    // The wrapper refuses a plan naming peers outside the scheme's id
    // space instead of silently no-opping the crash (the original bug).
    let inner = build("pira");
    let n = inner.node_count();
    let mut plan = FaultPlan::new();
    plan.crash(n + 7);
    let err = Hostile::new(inner, plan, RetryPolicy::none(), "crash")
        .err()
        .expect("out-of-range plan must not wrap");
    match err {
        SchemeError::FaultPlanOutOfRange { node, n: got_n } => {
            assert_eq!(node, n + 7);
            assert_eq!(got_n, n);
        }
        other => panic!("wrong error for out-of-range plan: {other}"),
    }
}

#[test]
fn native_fault_plans_are_bounded_by_liveness_on_a_churned_network() {
    // Regression: PIRA, MIRA and DCF bounded a plan by the live *count*, so
    // after one of 50 peers left, crashing the highest live id (49) was
    // refused as `FaultPlanOutOfRange { node: 49, n: 49 }`, while a plan
    // crashing the departed id ran as a silent no-op.
    const N: usize = 50;
    let plan = |node: NodeId| {
        let mut plan = FaultPlan::new();
        plan.crash(node);
        plan
    };
    let check = |name: &str, mut live: Vec<NodeId>, ask: &dyn Fn(&FaultPlan) -> RangeQuery| {
        live.sort_unstable();
        let departed = (0..N).find(|id| live.binary_search(id).is_err()).expect("one peer left");
        assert_eq!((live.len(), live.last()), (N - 1, Some(&(N - 1))), "{name}: {live:?}");
        // A live peer crashes for real: the whole domain misses it.
        let out = ask(&plan(N - 1)).unwrap_or_else(|e| panic!("{name}: crashing peer 49: {e}"));
        assert!(!out.exact, "{name}: the crash of live peer 49 was a no-op");
        // An id naming no live peer — freed by a departure, or never
        // handed out — is the typed error.
        for node in [departed, N] {
            let err = ask(&plan(node)).expect_err(name);
            assert_eq!(err, SchemeError::FaultPlanOutOfRange { node, n: N - 1 }, "{name}");
        }
    };

    let registry = standard_registry();
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
    for name in ["pira", "seqwalk", "dcf-can", "dcf-can-naive", "pht-chord", "pht-fissione"] {
        let mut rng = simnet::rng_from_seed(0x11fe);
        let mut scheme = registry.build_single(name, &params, &mut rng).expect("scheme builds");
        for h in 0..N as u64 {
            scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
        }
        let dynamic = scheme.as_dynamic().expect("dynamic");
        dynamic.leave(N / 2).expect("a peer leaves");
        let live = dynamic.live_peers();
        let req = RangeRequest::new(live[0], DOMAIN.0, DOMAIN.1, 1).unwrap();
        check(name, live, &|faults| {
            scheme.query(&req, &mut QueryCtx::new(&mut QueryScratch::new()).with_faults(faults))
        });
    }

    let mut rng = simnet::rng_from_seed(0x11fe);
    let domains = [DOMAIN; 2];
    let params = MultiBuildParams::new(N, &domains).with_object_id_len(32);
    let mut mira = MiraScheme::build(&params, &mut rng).expect("mira builds");
    for h in 0..N as u64 {
        let point = [rng.gen_range(DOMAIN.0..=DOMAIN.1), rng.gen_range(DOMAIN.0..=DOMAIN.1)];
        mira.publish_point(&point, h).expect("publish");
    }
    mira.inner_mut().net_mut().leave(N / 2).expect("a peer leaves");
    let live: Vec<NodeId> = mira.inner().net().live_peers().collect();
    let req = RectRequest::new(live[0], &domains, 1).unwrap();
    check("mira", live, &|faults| {
        let mut scratch = QueryScratch::new();
        MultiRangeScheme::query(&mira, &req, &mut QueryCtx::new(&mut scratch).with_faults(faults))
    });
}

/// `name` at N = 100 after peers 0–9 leave gracefully, wrapped in a plan
/// that crashes `node`.
fn churned_with_crash(name: &str, node: NodeId) -> Result<Hostile, SchemeError> {
    let mut scheme = build(name);
    let dynamic = scheme.as_dynamic().expect("the scheme churns");
    for node in 0..10 {
        dynamic.leave(node).expect("a peer leaves");
    }
    let mut plan = FaultPlan::new();
    plan.crash(node);
    Hostile::new(scheme, plan, RetryPolicy::none(), "crash")
}

#[test]
fn hostile_bounds_crash_plans_by_the_live_peers_of_a_churned_scheme() {
    // Regression: `Hostile::new` bounded a plan by `0..node_count()`, so
    // after 10 of 100 peers left, crashing the highest live id (99) was
    // refused as out of range, while crashing a departed id below 90
    // wrapped as a silent no-op. PHT loses a get only where the crashed
    // peer routes or owns one, so whole-domain queries are asked from every
    // other live origin.
    for name in ["pira", "pht-chord", "pht-fissione"] {
        let hostile =
            churned_with_crash(name, N - 1).expect("the highest live id is a peer to crash");
        assert_eq!(hostile.node_count(), N - 10, "{name}");
        let bitten = (10..N - 1).any(|origin| {
            !hostile.range_query(origin, DOMAIN.0, DOMAIN.1, 1).expect("the query runs").exact
        });
        assert!(bitten, "{name}: the crash of live peer {} was a no-op", N - 1);
        let err = churned_with_crash(name, 5).err().expect("a departed id must not wrap");
        assert_eq!(err, SchemeError::FaultPlanOutOfRange { node: 5, n: N - 10 }, "{name}");
    }
}

/// What a query under a fault plan returns.
type RangeQuery = Result<RangeOutcome, SchemeError>;
