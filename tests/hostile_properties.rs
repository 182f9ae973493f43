//! What the hostile wrapper promises, held on a scheme that loses messages
//! in `Sim` (PIRA) and one that loses them on routed gets (PHT over
//! Chord): retries only ever add, a partition severs while open and heals
//! on schedule, no retry crosses it, a rate limit prices latency only, and
//! retry waits are latency, never hops.

use armada_suite::dht_api::{
    BuildParams, Hostile, QueryCtx, RangeOutcome, RangeRequest, RangeScheme, RetryPolicy,
};
use armada_suite::experiments::standard_registry;
use armada_suite::rand::Rng;
use simnet::{FaultPlan, QueryScratch, RateLimitPlan};

const DOMAIN: (f64, f64) = (0.0, 1000.0);
const N: usize = 100;
const QUERIES: u64 = 40;
const SCHEMES: [&str; 2] = ["pira", "pht-chord"];

/// `stack` at N = 100 with 300 records; the same network and records for
/// every suffix on one base scheme.
fn build(stack: &str) -> Box<dyn RangeScheme> {
    let params = BuildParams::new(N, DOMAIN.0, DOMAIN.1).with_object_id_len(32);
    let mut rng = simnet::rng_from_seed(0x4057);
    let mut scheme = standard_registry().build_single(stack, &params, &mut rng).expect("builds");
    for h in 0..300 {
        scheme.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1), h).expect("publish");
    }
    scheme
}

/// Query `q` of a fixed batch: its origin, range and seed.
fn ask(scheme: &dyn RangeScheme, q: u64) -> RangeOutcome {
    let mut rng = simnet::rng_from_seed(0x9e1 ^ q);
    let lo: f64 = rng.gen_range(DOMAIN.0..DOMAIN.1);
    let hi = (lo + rng.gen_range(1.0f64..250.0)).min(DOMAIN.1);
    let origin = scheme.random_origin(&mut rng);
    scheme.range_query(origin, lo, hi, q).expect("the query runs")
}

#[test]
fn recall_and_messages_never_fall_as_attempts_grow() {
    // At 30% loss no query comes back whole, so every extra attempt runs
    // and adds traffic; what it reaches only ever joins the answer.
    for name in SCHEMES {
        let mut prev = (0.0, 0u64);
        for attempts in 1..=4 {
            let scheme = build(&format!("{name}@lossy-30/r{attempts}"));
            let (mut recall, mut messages) = (0.0, 0);
            for q in 0..QUERIES {
                let out = ask(scheme.as_ref(), q);
                recall += out.peer_recall() / QUERIES as f64;
                messages += out.messages;
            }
            assert!(recall >= prev.0, "{name}: recall {recall} at r{attempts} < {}", prev.0);
            assert!(messages > prev.1, "{name}: r{attempts} sent no more than r{}", attempts - 1);
            prev = (recall, messages);
        }
    }
}

#[test]
fn a_split_severs_while_open_and_heals_on_schedule() {
    for name in SCHEMES {
        let mut scheme = build(&format!("{name}@split-brain"));
        let whole = |scheme: &dyn RangeScheme| {
            (0..QUERIES).all(|q| {
                let out = ask(scheme, q);
                out.exact && out.peer_recall() == 1.0
            })
        };
        // split-brain opens at epoch 1 and heals at 3.
        assert!(whole(scheme.as_ref()), "{name}: severed before the open epoch");
        scheme.as_hostile().expect("hostile").set_epoch(1);
        let cut = (0..QUERIES).filter(|&q| ask(scheme.as_ref(), q).peer_recall() < 1.0).count();
        assert!(cut > QUERIES as usize / 4, "{name}: the split severed {cut} of {QUERIES}");
        scheme.as_hostile().expect("hostile").set_epoch(3);
        assert!(whole(scheme.as_ref()), "{name}: not healed at the heal epoch");
    }
}

#[test]
fn retries_cannot_cross_an_open_split() {
    for name in SCHEMES {
        let [mut once, mut retried] =
            [build(&format!("{name}@split-brain")), build(&format!("{name}@split-brain/r4"))];
        once.as_hostile().expect("hostile").set_epoch(1);
        retried.as_hostile().expect("hostile").set_epoch(1);
        for q in 0..QUERIES {
            let (a, b) = (ask(once.as_ref(), q), ask(retried.as_ref(), q));
            assert_eq!(
                (a.reached_peers, &a.results),
                (b.reached_peers, &b.results),
                "{name} query {q}: a retry reached across a severed edge"
            );
        }
    }
}

#[test]
fn a_rate_limit_prices_latency_only() {
    // A one-message bucket: every peer's second send queues, so PIRA's
    // forwarding peers meet the limit too.
    for name in SCHEMES {
        let clean = build(name);
        let plan = FaultPlan::new().with_rate_limit(RateLimitPlan::new(1, 5));
        let throttled = Hostile::new(build(name), plan, RetryPolicy::none(), "throttle-1")
            .expect("the plan wraps");
        let mut queued = false;
        for q in 0..QUERIES {
            let (a, b) = (ask(clean.as_ref(), q), ask(&throttled, q));
            assert_eq!(
                (a.delay, a.messages, &a.results, a.reached_peers),
                (b.delay, b.messages, &b.results, b.reached_peers),
                "{name} query {q}: throttling moved hops, traffic or answers"
            );
            assert!(b.exact, "{name} query {q}: throttling lost an answer");
            assert!(b.latency >= a.latency, "{name} query {q}");
            queued |= b.latency > a.latency;
        }
        assert!(queued, "{name}: no query queued behind the rate limit");
    }
}

#[test]
fn retry_waits_are_latency_not_hops() {
    // A hostile query is its attempts run one after another: each the
    // inner scheme under the plan at the attempt's seed, until one is
    // exact. Hops and traffic add up; the timeout and backoff before each
    // retry go to latency alone.
    for name in SCHEMES {
        let mut scheme = build(&format!("{name}@lossy-50/r3"));
        let bare = build(name);
        let control = scheme.as_hostile().expect("hostile");
        let (plan, policy) = (control.fault_plan().clone(), control.retry_policy());
        let mut retried = 0;
        for q in 0..QUERIES {
            let out = ask(scheme.as_ref(), q);
            let mut rng = simnet::rng_from_seed(0x9e1 ^ q);
            let lo: f64 = rng.gen_range(DOMAIN.0..DOMAIN.1);
            let hi = (lo + rng.gen_range(1.0f64..250.0)).min(DOMAIN.1);
            let origin = bare.random_origin(&mut rng);
            let (mut delay, mut latency, mut messages) = (0, 0, 0);
            for attempt in 0..policy.attempts {
                if attempt > 0 {
                    latency +=
                        policy.timeout_ms + policy.backoff_wait(plan.plan_seed(), q, attempt);
                }
                let seed = RetryPolicy::attempt_seed(q, attempt);
                let req = RangeRequest::new(origin, lo, hi, seed).expect("well-formed");
                let mut scratch = QueryScratch::new();
                let cx = &mut QueryCtx::new(&mut scratch).with_faults(&plan);
                let run = bare.query(&req, cx).expect("the attempt runs");
                (delay, latency, messages) =
                    (delay + run.delay, latency + run.latency, messages + run.messages);
                retried += usize::from(attempt > 0);
                if run.exact {
                    break;
                }
            }
            assert_eq!(
                (out.delay, out.latency, out.messages),
                (delay, latency, messages),
                "{name} query {q}"
            );
        }
        assert!(retried > 0, "{name}: no query retried at 50% loss");
    }
}
