//! Building what a workload measures: the scheme stack (by registry name,
//! like a user would), its published records, the query mix, the driver —
//! and the brute-force oracle that says what every query must return.

use crate::machine::{MachineClock, Timed};
use crate::spec::{Family, Mix, Workload, DOMAIN, OBJECT_ID_LEN};
use dht_api::{
    BuildParams, ParallelDriver, RangeOutcome, RangeScheme, SchemeError, SchemeRegistry,
    WorkloadGen,
};
use rand::rngs::SmallRng;
use rand::Rng;
use std::time::Instant;

/// The registry with the three scheme families the benchmark measures.
pub fn registry() -> SchemeRegistry {
    let mut reg = SchemeRegistry::new();
    armada::register(&mut reg);
    dht_can::register(&mut reg);
    pht::register(&mut reg);
    reg
}

/// Construction parameters for `n` peers (paper defaults).
pub fn params(n: usize) -> BuildParams {
    BuildParams::new(n, DOMAIN.0, DOMAIN.1).with_object_id_len(OBJECT_ID_LEN)
}

/// The RNG every stack of a run is built and published from. One stream
/// for every stack name, so `pira`, `pira+r3` and `pira+r3@wan` built
/// from the same seed are the same network holding the same records.
pub fn build_rng(seed: u64) -> SmallRng {
    simnet::rng_from_seed(seed ^ dht_api::fnv1a(b"armada-bench/build"))
}

/// The query mix of a workload.
pub fn workload_gen(mix: Mix) -> WorkloadGen {
    match mix {
        Mix::UniformWidth(width) => WorkloadGen::uniform(DOMAIN, width),
        Mix::Named(name) => WorkloadGen::named(name, DOMAIN).expect("cataloged workload"),
    }
}

/// The closed-loop, single-client driver of a workload's slices.
pub fn driver(queries: usize, seed: u64) -> ParallelDriver {
    ParallelDriver {
        queries,
        seed: seed ^ dht_api::fnv1a(b"armada-bench/queries"),
        threads: 1,
        shard_salt: 0,
        metrics: false,
    }
}

/// Publishes `n` records with values drawn uniformly over the domain and
/// handles `0..n`; returns them for the oracle.
pub fn publish_records(
    scheme: &mut dyn RangeScheme,
    rng: &mut SmallRng,
    n: usize,
) -> Vec<(f64, u64)> {
    (0..n as u64)
        .map(|handle| {
            let value = rng.gen_range(DOMAIN.0..=DOMAIN.1);
            scheme.publish(value, handle).expect("in-domain publish");
            (value, handle)
        })
        .collect()
}

/// A built and published stack with its set-up stopwatch readings.
pub struct Built {
    /// The stack, as the registry hands it out.
    pub scheme: Box<dyn RangeScheme>,
    /// What every query is checked against.
    pub oracle: Oracle,
    /// Wall seconds of `SchemeRegistry::build_single`.
    pub build_s: f64,
    /// Wall seconds of publishing `n` records.
    pub publish_s: f64,
}

/// Builds `stack` with `n` peers and publishes `n` records.
pub fn build(reg: &SchemeRegistry, stack: &str, n: usize, seed: u64) -> Built {
    let mut rng = build_rng(seed);
    let start = Instant::now();
    let mut scheme = reg.build_single(stack, &params(n), &mut rng).expect("stack builds");
    let build_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let records = publish_records(scheme.as_mut(), &mut rng, n);
    let publish_s = start.elapsed().as_secs_f64();
    Built { scheme, oracle: Oracle::new(records), build_s, publish_s }
}

/// A natively built engine family: the same network and records
/// `build(reg, family name, …)` gives, with the concrete type kept so the
/// probes can call below the `RangeScheme` trait.
pub enum Native {
    /// `pira`.
    Pira(armada::PiraScheme),
    /// `dcf-can`.
    Dcf(dht_can::DcfScheme),
    /// `pht-chord`.
    PhtChord(pht::DynamicPhtScheme<chord::ChordNet>),
}

impl Native {
    /// Builds the family's engine with `n` peers (no records yet).
    pub fn build(family: Family, n: usize, rng: &mut SmallRng) -> Native {
        let p = params(n);
        match family {
            Family::Pira => Native::Pira(armada::PiraScheme::build(&p, rng).expect("pira builds")),
            Family::Dcf => Native::Dcf(
                dht_can::DcfScheme::build(&p, dht_can::dcf::FloodMode::Directed, rng)
                    .expect("dcf-can builds"),
            ),
            Family::PhtChord => {
                let degree = format!("O(logN) = {:.0}", (n as f64).log2());
                Native::PhtChord(pht::DynamicPhtScheme::new(
                    chord::ChordNet::build(n, rng),
                    &p,
                    "pht-chord",
                    degree,
                ))
            }
        }
    }

    /// The engine behind the trait, for trait-level calls.
    pub fn scheme(&self) -> &dyn RangeScheme {
        match self {
            Native::Pira(s) => s,
            Native::Dcf(s) => s,
            Native::PhtChord(s) => s,
        }
    }

    /// Mutable trait view (publishing).
    pub fn scheme_mut(&mut self) -> &mut dyn RangeScheme {
        match self {
            Native::Pira(s) => s,
            Native::Dcf(s) => s,
            Native::PhtChord(s) => s,
        }
    }

    /// One query through the engine's own entry point, below the trait
    /// adapter: `(messages, destination peers, results)`.
    pub fn native_query(
        &self,
        origin: usize,
        lo: f64,
        hi: f64,
        seed: u64,
        scratch: &mut simnet::QueryScratch,
    ) -> (u64, usize, usize) {
        match self {
            Native::Pira(s) => {
                let out = s
                    .inner()
                    .pira_query_scratch(origin, lo, hi, seed, scratch)
                    .expect("fault-free query");
                (out.metrics.messages, out.metrics.dest_peers, out.results.len())
            }
            Native::Dcf(s) => {
                let out = dht_can::dcf::range_query_priced_scratch(
                    s.net(),
                    origin,
                    lo,
                    hi,
                    seed,
                    dht_can::dcf::FloodMode::Directed,
                    &simnet::FaultPlan::new(),
                    &simnet::NetModel::unit(),
                    scratch,
                )
                .expect("fault-free query");
                (out.messages, out.dest_zones, out.results.len())
            }
            Native::PhtChord(s) => {
                let out = s.inner().pht().range_query(origin, lo, hi);
                (out.messages, out.dest_leaves, out.results.len())
            }
        }
    }
}

/// The brute-force reference: every published `(value, handle)`, sorted by
/// value, answering a range by binary search.
pub struct Oracle {
    sorted: Vec<(f64, u64)>,
}

impl Oracle {
    /// An oracle over the published records.
    pub fn new(mut records: Vec<(f64, u64)>) -> Oracle {
        records.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        Oracle { sorted: records }
    }

    /// Handles of the records with `lo <= value <= hi`, ascending.
    pub fn expected(&self, lo: f64, hi: f64) -> Vec<u64> {
        let from = self.sorted.partition_point(|&(v, _)| v < lo);
        let to = self.sorted.partition_point(|&(v, _)| v <= hi);
        let mut handles: Vec<u64> = self.sorted[from..to].iter().map(|&(_, h)| h).collect();
        handles.sort_unstable();
        handles
    }

    /// Whether `outcome` is a correct answer to `[lo, hi]`: a query that
    /// claims exactness must return the oracle's set; one that admits to
    /// being partial (lost messages on a hostile network) must return a
    /// subset of it and nothing else.
    pub fn accepts(&self, lo: f64, hi: f64, outcome: &RangeOutcome) -> bool {
        let expected = self.expected(lo, hi);
        if outcome.exact {
            outcome.results == expected
        } else {
            outcome.results.windows(2).all(|w| w[0] < w[1])
                && outcome.results.iter().all(|h| expected.binary_search(h).is_ok())
        }
    }
}

/// Runs one batch with every query checked against the oracle; returns
/// the report and how many queries the oracle rejected.
pub fn checked_batch(
    driver: &ParallelDriver,
    scheme: &dyn RangeScheme,
    gen: &WorkloadGen,
    oracle: &Oracle,
) -> Result<(dht_api::DriverReport, usize), SchemeError> {
    let rejected = std::sync::atomic::AtomicUsize::new(0);
    let report = driver.run_streaming(scheme, gen, |q, outcome| {
        let (lo, hi) = gen.range(driver.seed, q as u64);
        if !oracle.accepts(lo, hi, outcome) {
            rejected.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    })?;
    Ok((report, rejected.into_inner()))
}

/// One slice of a workload, timed: a plain batch, cut into laps of
/// `lap_queries` queries by the driver's own per-query result sink, or an
/// epoch-mode run under the workload's churn plan (which changes the
/// stack's membership, and has no sink: one lap).
pub fn run_slice(
    w: &Workload,
    driver: &ParallelDriver,
    scheme: &mut dyn RangeScheme,
    gen: &WorkloadGen,
    clock: &mut MachineClock,
) -> Result<(dht_api::DriverReport, Timed), SchemeError> {
    match w.churn {
        None => {
            // The sink is `Fn + Sync`; with one driver thread the lock is
            // never contended.
            let section = std::sync::Mutex::new(clock.begin());
            let report = driver.run_streaming(scheme, gen, |q, _| {
                if (q + 1) % w.lap_queries == 0 {
                    section.lock().expect("sink never panics").lap();
                }
            })?;
            Ok((report, section.into_inner().expect("sink never panics").finish()))
        }
        Some(c) => {
            let plan = dht_api::ChurnPlan::named("steady-churn").expect("cataloged plan");
            let plan = plan.with_rate(c.rate);
            let (report, timed) = clock.time(|| driver.run_epochs(scheme, gen, &plan, c.epochs));
            Ok((report?, timed))
        }
    }
}
