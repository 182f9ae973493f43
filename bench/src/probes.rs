//! Standalone probes of each layer's public API, called by the traced run.
//! Every probe opens spans under the run's root span and records the
//! per-layer metrics it owns.

use crate::spec::{Family, DOMAIN, OBJECT_ID_LEN};
use crate::stack::{self, Native};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::traced::{AllocMeter, Values};
use dht_api::{
    ChurnPlan, DigestReport, ParallelDriver, RangeScheme, SchemeError, SchemeRegistry, WorkloadGen,
};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Calls of a sub-microsecond primitive one tight-loop probe makes.
const TIGHT_CALLS: usize = 20_000;
/// Calls of a microsecond-scale primitive (routing, neighbor lists).
const ROUTE_CALLS: usize = 2_000;

/// Mean nanoseconds per call of `f` over `calls` calls, timed as one
/// interval (the clock is far coarser than one call).
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Fastest of two runs of `f` in nanoseconds, each under a span.
fn best_of_two<T>(
    tr: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    mut f: impl FnMut() -> Result<T, SchemeError>,
) -> Result<(T, f64), SchemeError> {
    let (first, first_ns) = tr.span(name, Some(parent), None, &mut f);
    let (second, second_ns) = tr.span(name, Some(parent), None, &mut f);
    Ok(if first_ns <= second_ns { (first?, first_ns) } else { (second?, second_ns) })
}

/// What one call of a span-per-query loop measured over the batch.
#[derive(Default)]
struct QueryLoop {
    /// Wall nanoseconds of each query's call.
    ns: Vec<f64>,
    /// Allocations per query.
    allocs: f64,
}

/// One query of a batch: origin, range and scheme seed.
type Query = (usize, f64, f64, u64);

/// A named call made once per query.
type Call<'a> = (&'static str, Box<dyn FnMut(Query) + 'a>);

/// Runs every call once per query of the driver's batch, back to back on
/// the same query and each under its own span; the range, origin and seed
/// are the ones `driver.run` uses. Which call goes first rotates from query
/// to query, so what the first call pays to pull the query's working set
/// into cache — and the box's drift over the loop — falls on every call
/// alike and cancels in their differences.
fn query_loop(
    tr: &mut Tracer,
    parent: SpanId,
    scheme: &dyn RangeScheme,
    gen: &WorkloadGen,
    driver: &ParallelDriver,
    mut calls: Vec<Call<'_>>,
) -> Vec<QueryLoop> {
    let mut out: Vec<QueryLoop> = calls.iter().map(|_| QueryLoop::default()).collect();
    for q in 0..driver.queries {
        let (lo, hi) = gen.range(driver.seed, q as u64);
        let query = (driver.query_origin(scheme, q), lo, hi, driver.query_seed(q));
        for turn in 0..calls.len() {
            let i = (q + turn) % calls.len();
            let (name, call) = &mut calls[i];
            let meter = AllocMeter::start();
            let ((), ns) = tr.span(name, Some(parent), Some(q), || call(query));
            out[i].ns.push(ns);
            out[i].allocs += meter.delta().0 / driver.queries as f64;
        }
    }
    out
}

/// The trait-level call every rung of a stack answers, as a loop call.
fn trait_call<'a>(
    name: &'static str,
    scheme: &'a dyn RangeScheme,
    error: &'a std::cell::RefCell<Option<SchemeError>>,
) -> Call<'a> {
    let mut scratch = simnet::QueryScratch::new();
    let call = move |(origin, lo, hi, seed): Query| {
        if let Err(e) = black_box(scheme.range_query_scratch(origin, lo, hi, seed, &mut scratch)) {
            error.borrow_mut().get_or_insert(e);
        }
    };
    (name, Box::new(call))
}

/// `dht-api` / `simnet.stats`: what `ParallelDriver::run` costs around the
/// scheme calls. Returns the driver's wall nanoseconds per query.
pub fn driver_layer(
    tr: &mut Tracer,
    root: SpanId,
    m: &mut Values,
    scheme: &dyn RangeScheme,
    gen: &WorkloadGen,
    driver: &ParallelDriver,
) -> Result<f64, SchemeError> {
    let queries = driver.queries as f64;
    let (report, run_ns) = best_of_two(tr, "driver.run", root, || driver.run(scheme, gen))?;
    let two = driver.with_threads(2);
    let (_, run2_ns) = best_of_two(tr, "driver.run.t2", root, || two.run(scheme, gen))?;
    m.put("dht-api.parallel.speedup_t2", run_ns / run2_ns);

    // The same queries, one trait call at a time, under spans.
    let error = std::cell::RefCell::new(None);
    let span = tr.open("driver.replica", Some(root), None);
    let call = trait_call("scheme.range_query_scratch", scheme, &error);
    let calls = query_loop(tr, span, scheme, gen, driver, vec![call]);
    tr.close(span);
    if let Some(e) = error.into_inner() {
        return Err(e);
    }
    let call_ns = stats::mean(&calls[0].ns);

    // The driver with the scheme taken out: the same batch over a scheme
    // that answers at once. (Differencing `run` against the loop above
    // would bury a microsecond under the box's drift between the two.)
    let idle = Idle { peers: scheme.node_count() };
    let (_, idle_ns) = best_of_two(tr, "driver.run.idle", root, || driver.run(&idle, gen))?;
    let overhead_ns = idle_ns / queries;
    m.put("dht-api.parallel.driver_overhead_us", overhead_ns / 1e3);

    let draw_ns = ns_per_call(TIGHT_CALLS, |i| {
        black_box(gen.range(driver.seed, i as u64));
    });
    m.put("dht-api.workload.ns_per_draw", draw_ns);
    let origin_ns = ns_per_call(TIGHT_CALLS, |i| {
        black_box(driver.query_origin(scheme, i));
    });
    m.put("dht-api.parallel.ns_per_origin", origin_ns);

    // One batch's worth of samples, summarized the way the driver does
    // for each of its seven series.
    let series: Vec<simnet::Samples> = (0..20)
        .map(|s| (0..driver.queries).map(|i| ((i * 31 + s * 7) % 997) as f64).collect())
        .collect();
    let (_, summarize_ns) = tr.span("simnet.stats.summarize", Some(root), None, || {
        for samples in series {
            black_box(samples.summarize());
        }
    });
    let summarize_ns = summarize_ns / 20.0;
    m.put("simnet.stats.summarize_us", summarize_ns / 1e3);
    let digest_ns = ns_per_call(1000, |_| {
        black_box(DigestReport::of(black_box(&report)));
    });
    m.put("dht-api.digest.us_per_report", digest_ns / 1e3);

    // Share of the driver's per-query wall that the separately measured
    // layers add up to: the scheme calls, the idle driver, and the real
    // origin pick in place of the idle scheme's.
    m.put("trace.attributed_share", (call_ns + overhead_ns + origin_ns) / (run_ns / queries));
    Ok(run_ns / queries)
}

/// A scheme that answers every query at once with nothing: what is left of
/// `ParallelDriver::run` over it is the driver's own per-query cost
/// (workload draw, origin RNG, accumulate, merge, report).
struct Idle {
    peers: usize,
}

impl RangeScheme for Idle {
    fn scheme_name(&self) -> &'static str {
        "idle"
    }
    fn substrate(&self) -> String {
        "none".into()
    }
    fn degree(&self) -> String {
        "0".into()
    }
    fn node_count(&self) -> usize {
        self.peers
    }
    fn publish(&mut self, _: f64, _: u64) -> Result<(), SchemeError> {
        Ok(())
    }
    fn random_origin(&self, rng: &mut rand::rngs::SmallRng) -> usize {
        rng.gen_range(0..self.peers)
    }
    fn range_query(
        &self,
        _: usize,
        _: f64,
        _: f64,
        _: u64,
    ) -> Result<dht_api::RangeOutcome, SchemeError> {
        Ok(dht_api::RangeOutcome {
            results: Vec::new(),
            delay: 1,
            latency: 1,
            messages: 1,
            dest_peers: 1,
            reached_peers: 1,
            exact: true,
        })
    }
}

/// One engine family: substrate build, publish, the native query entry
/// point, the trait adapter over it, and the substrate's primitives.
#[allow(clippy::too_many_arguments)]
pub fn family(
    tr: &mut Tracer,
    root: SpanId,
    m: &mut Values,
    family: Family,
    n: usize,
    seed: u64,
    gen: &WorkloadGen,
    driver: &ParallelDriver,
) {
    // This family's metric names: span, build, p50, p99, per message,
    // allocations, adapter.
    let [span_name, build, p50, p99, per_msg, allocs, adapter_us] = match family {
        Family::Pira => [
            "armada.engine",
            "fissione.net.build_ms",
            "armada.engine.query_us_p50",
            "armada.engine.query_us_p99",
            "armada.engine.ns_per_msg",
            "armada.engine.allocs_per_query",
            "armada.scheme.adapter_us",
        ],
        Family::Dcf => [
            "dht-can.dcf",
            "dht-can.can.build_ms",
            "dht-can.dcf.query_us_p50",
            "dht-can.dcf.query_us_p99",
            "dht-can.dcf.ns_per_msg",
            "dht-can.dcf.allocs_per_query",
            "dht-can.scheme.adapter_us",
        ],
        Family::PhtChord => [
            "pht",
            "chord.build_ms",
            "pht.query_us_p50",
            "pht.query_us_p99",
            "pht.ns_per_msg",
            "pht.allocs_per_query",
            "pht.scheme.adapter_us",
        ],
    };
    let span = tr.open(span_name, Some(root), None);
    let mut rng = stack::build_rng(seed);
    let (mut native, build_ns) =
        tr.span("build", Some(span), None, || Native::build(family, n, &mut rng));
    m.put(build, build_ns / 1e6);
    let (records, publish_ns) = tr.span("publish", Some(span), None, || {
        stack::publish_records(native.scheme_mut(), &mut rng, n)
    });
    if family == Family::PhtChord {
        m.put("pht.insert_us_per_record", publish_ns / 1e3 / n as f64);
    }

    let mut scratch = simnet::QueryScratch::new();
    let (mut msgs, mut dest, mut results) = (0u64, 0usize, 0usize);
    let scheme = native.scheme();
    driver.run(scheme, gen).expect("fault-free query"); // warm-up
    let error = std::cell::RefCell::new(None);
    let engine_call = |(origin, lo, hi, seed): Query| {
        let counts = black_box(native.native_query(origin, lo, hi, seed, &mut scratch));
        msgs += counts.0;
        dest += counts.1;
        results += counts.2;
    };
    let calls: Vec<Call<'_>> = vec![
        ("engine.query", Box::new(engine_call)),
        trait_call("scheme.range_query_scratch", scheme, &error),
    ];
    let loops = query_loop(tr, span, scheme, gen, driver, calls);
    let (engine, adapter) = (&loops[0], &loops[1]);
    assert!(error.into_inner().is_none(), "fault-free query");
    let queries = driver.queries as f64;
    m.put(p50, stats::median(&engine.ns) / 1e3);
    m.put(p99, stats::quantile(&engine.ns, 0.99) / 1e3);
    m.put(per_msg, engine.ns.iter().sum::<f64>() / msgs.max(1) as f64);
    m.put(allocs, engine.allocs);
    m.put(adapter_us, stats::trimmed_mean_difference(&adapter.ns, &engine.ns) / 1e3);
    if family == Family::Pira {
        m.put("armada.engine.dest_peers_per_query", dest as f64 / queries);
        m.put("armada.engine.results_per_query", results as f64 / queries);
    }

    let values: Vec<f64> = records.iter().map(|&(v, _)| v).collect();
    tr.span("substrate", Some(span), None, || match &native {
        Native::Pira(s) => fissione_and_kautz(m, s.inner(), &values, gen, driver.seed),
        Native::Dcf(s) => {
            let net = s.net();
            let mut hops = 0usize;
            let ns = ns_per_call(ROUTE_CALLS, |i| {
                let (x, y) = net.point_of_value(values[i % values.len()]);
                let path = net.route_to_point(net.random_zone(&mut rng), x, y);
                hops += black_box(path).expect("well-formed tiling").len() - 1;
            });
            m.put("dht-can.can.ns_per_route_hop", ns * ROUTE_CALLS as f64 / hops.max(1) as f64);
        }
        Native::PhtChord(s) => {
            use dht_api::Dht;
            let ring = s.inner().pht().dht();
            let mut hops = 0usize;
            let ns = ns_per_call(ROUTE_CALLS, |_| {
                let from = ring.random_node(&mut rng);
                hops += black_box(ring.route_point(from, rng.gen())).hops;
            });
            m.put("chord.ns_per_route_hop", ns * ROUTE_CALLS as f64 / hops.max(1) as f64);
        }
    });
    tr.close(span);
}

/// `kautz` naming and region arithmetic and `fissione`'s lookup
/// primitives, on the workload's record values, query ranges and peers.
fn fissione_and_kautz(
    m: &mut Values,
    engine: &armada::SingleArmada,
    values: &[f64],
    gen: &WorkloadGen,
    draw_seed: u64,
) {
    let (net, naming) = (engine.net(), engine.naming());
    let value = |i: usize| values[i % values.len()];
    m.put(
        "kautz.naming.ns_per_object_id",
        ns_per_call(TIGHT_CALLS, |i| {
            black_box(naming.object_id(value(i)));
        }),
    );
    m.put(
        "kautz.naming.ns_per_region",
        ns_per_call(TIGHT_CALLS, |i| {
            let (lo, hi) = gen.range(draw_seed, i as u64);
            black_box(naming.region(lo, hi)).expect("lo <= hi");
        }) - ns_per_call(TIGHT_CALLS, |i| {
            black_box(gen.range(draw_seed, i as u64));
        }),
    );
    let peer_ids: Vec<&kautz::KautzStr> =
        net.live_peers().take(ROUTE_CALLS).map(|p| net.peer_id(p).expect("live")).collect();
    let regions: Vec<kautz::KautzRegion> = (0..16)
        .map(|q| {
            let (lo, hi) = gen.range(draw_seed, q);
            naming.region(lo, hi).expect("lo <= hi")
        })
        .collect();
    m.put(
        "kautz.region.ns_per_intersects",
        ns_per_call(regions.len(), |r| {
            for id in &peer_ids {
                black_box(regions[r].intersects_prefix(id));
            }
        }) / peer_ids.len() as f64,
    );

    let objects: Vec<kautz::KautzStr> =
        (0..ROUTE_CALLS).map(|i| naming.object_id(value(i))).collect();
    m.put(
        "fissione.net.ns_per_owner_of",
        ns_per_call(TIGHT_CALLS, |i| {
            black_box(net.owner_of(&objects[i % objects.len()])).expect("cover is complete");
        }),
    );
    let sources: Vec<usize> = net.live_peers().step_by(7).take(ROUTE_CALLS).collect();
    let mut hops = 0usize;
    let route_ns = ns_per_call(ROUTE_CALLS, |i| {
        let route = net.route(sources[i % sources.len()], &objects[i]);
        hops += black_box(route).expect("live source").hops();
    });
    m.put("fissione.routing.ns_per_route_hop", route_ns * ROUTE_CALLS as f64 / hops.max(1) as f64);
    m.put(
        "fissione.net.ns_per_neighbors",
        ns_per_call(ROUTE_CALLS, |i| {
            black_box(net.neighbors(sources[i % sources.len()]));
        }),
    );
}

/// The wrapper ladder: the same queries over `pira`, `pira+r3`,
/// `pira+r3@wan` and `pira+r3@wan@lossy-p/r3` built from the same seed;
/// each wrapper's cost is the difference between neighbouring rungs.
#[allow(clippy::too_many_arguments)]
pub fn wrapper_ladder(
    tr: &mut Tracer,
    root: SpanId,
    m: &mut Values,
    reg: &SchemeRegistry,
    n: usize,
    seed: u64,
    gen: &WorkloadGen,
    driver: &ParallelDriver,
) -> Result<(), SchemeError> {
    let span = tr.open("wrapper-ladder", Some(root), None);
    const RUNGS: [(&str, &str); 4] = [
        ("pira", "rung.pira"),
        ("pira+r3", "rung.pira+r3"),
        ("pira+r3@wan", "rung.pira+r3@wan"),
        ("pira+r3@wan@lossy-p/r3", "rung.pira+r3@wan@lossy-p/r3"),
    ];
    let stacks: Vec<stack::Built> =
        RUNGS.iter().map(|(name, _)| stack::build(reg, name, n, seed)).collect();
    for built in &stacks {
        driver.run(built.scheme.as_ref(), gen)?; // warm-up
    }
    let top = stacks[3].scheme.as_ref();
    let retries_before = top.retry_attempts();
    let error = std::cell::RefCell::new(None);
    let calls = stacks
        .iter()
        .zip(RUNGS)
        .map(|(built, (_, span_name))| trait_call(span_name, built.scheme.as_ref(), &error))
        .collect();
    // Same seed, same network: the bare rung's origins are every rung's.
    let loops = query_loop(tr, span, stacks[0].scheme.as_ref(), gen, driver, calls);
    if let Some(e) = error.into_inner() {
        return Err(e);
    }
    let retries = (top.retry_attempts() - retries_before) as f64 / driver.queries as f64;
    tr.close(span);
    // A wrapper's cost: its rung minus the rung below, query by query.
    let step_us = |k: usize| stats::trimmed_mean_difference(&loops[k].ns, &loops[k - 1].ns) / 1e3;
    m.put("dht-api.replication.query_overhead_us", step_us(1));
    m.put("dht-api.replication.allocs_per_query", loops[1].allocs - loops[0].allocs);
    m.put("simnet.net.wan_overhead_us", step_us(2));
    m.put("dht-api.hostile.query_overhead_us", step_us(3));
    m.put("dht-api.hostile.allocs_per_query", loops[3].allocs - loops[2].allocs);
    m.put("dht-api.hostile.retries_per_query", retries);
    Ok(())
}

/// Epoch transitions the maintenance probe averages over.
const TRANSITIONS: u64 = 2;

/// Membership events and repair on `pira+r3`, step by step the way
/// `run_epochs` performs them, and the same primitives on the bare
/// `fissione` overlay.
pub fn maintenance(
    tr: &mut Tracer,
    root: SpanId,
    m: &mut Values,
    reg: &SchemeRegistry,
    n: usize,
    seed: u64,
    rate: usize,
) -> Result<(), SchemeError> {
    let span = tr.open("maintenance", Some(root), None);
    let mut built = stack::build(reg, "pira+r3", n, seed);
    let scheme = built.scheme.as_mut();
    // Stabilization is timed on its own, so the plan must not run it.
    let plan = ChurnPlan::named("steady-churn")?.with_rate(rate).with_stabilize_period(0);
    let (mut apply_ns, mut events) = (0.0, 0usize);
    let (mut stabilize_ns, mut stabilize_ops) = (0.0, 0usize);
    let (mut repair_ns, mut placed, mut repair_msgs) = (0.0, 0usize, 0u64);
    for epoch in 0..TRANSITIONS {
        let dynamic = scheme.as_dynamic().expect("pira+r3 is dynamic");
        let (stats, ns) =
            tr.span("churn.apply", Some(span), None, || plan.apply(dynamic, seed, epoch));
        apply_ns += ns;
        events += stats?.events();
        let (ops, ns) = tr.span("dynamics.stabilize", Some(span), None, || dynamic.stabilize());
        stabilize_ns += ns;
        stabilize_ops += ops;
        let control = scheme.as_replicated().expect("pira+r3 is replicated");
        let (repair, ns) =
            tr.span("replication.re_replicate", Some(span), None, || control.re_replicate());
        repair_ns += ns;
        placed += repair.placed;
        repair_msgs += repair.messages;
    }
    let per_epoch = TRANSITIONS as f64;
    m.put("dht-api.churn.apply_us_per_event", apply_ns / 1e3 / events.max(1) as f64);
    m.put("dht-api.dynamics.stabilize_ms", stabilize_ns / 1e6 / per_epoch);
    m.put("dht-api.dynamics.stabilize_ops", stabilize_ops as f64 / per_epoch);
    m.put("dht-api.replication.re_replicate_ms", repair_ns / 1e6 / per_epoch);
    m.put("dht-api.replication.repair_placed_per_epoch", placed as f64 / per_epoch);
    m.put("dht-api.replication.repair_msgs_per_epoch", repair_msgs as f64 / per_epoch);
    drop(built);

    // The overlay alone: a published FISSIONE network of the same size.
    let mut rng = stack::build_rng(seed);
    let cfg = fissione::FissioneConfig {
        object_id_len: OBJECT_ID_LEN,
        ..fissione::FissioneConfig::default()
    };
    let mut engine = armada::SingleArmada::build_with(cfg, n, DOMAIN.0, DOMAIN.1, &mut rng)
        .map_err(|e| SchemeError::Build(e.to_string()))?;
    for _ in 0..n {
        engine.publish(rng.gen_range(DOMAIN.0..=DOMAIN.1));
    }
    let net = engine.net_mut();
    let (_, join_ns) = tr.span("fissione.join", Some(span), None, || {
        for _ in 0..rate {
            black_box(net.join(&mut rng));
        }
    });
    let victims: Vec<usize> = net.live_peers().step_by(5).take(rate).collect();
    let (_, leave_ns) = tr.span("fissione.leave", Some(span), None, || {
        for &victim in &victims {
            net.leave(victim).expect("live victim above the minimum size");
        }
    });
    let (_, stabilize_ns) =
        tr.span("fissione.stabilize", Some(span), None, || black_box(net.stabilize()));
    m.put("fissione.net.join_us", join_ns / 1e3 / rate as f64);
    m.put("fissione.net.leave_us", leave_ns / 1e3 / victims.len() as f64);
    m.put("fissione.net.stabilize_ms", stabilize_ns / 1e6);
    tr.close(span);
    Ok(())
}

/// Peers the no-op protocol of the event-loop probe relays among.
const SIM_PEERS: usize = 4096;
/// Simulated queries the event-loop probe runs.
const SIM_RUNS: u64 = 200;

/// `simnet`: the event loop alone. Set-up is `Sim::from_scratch` +
/// `recycle` with no events; dispatch is a no-op protocol in which every
/// delivery forwards to two more peers until `msgs` messages were sent —
/// a query's worth of events with none of a scheme's work.
pub fn sim(tr: &mut Tracer, root: SpanId, m: &mut Values, msgs: u64) {
    let span = tr.open("simnet.sim", Some(root), None);
    let mut scratch = simnet::SimScratch::<u32>::new();
    let setup_ns = ns_per_call(TIGHT_CALLS, |i| {
        let sim = simnet::Sim::from_scratch(i as u64, &mut scratch);
        black_box(&sim);
        sim.recycle(&mut scratch);
    });
    m.put("simnet.sim.setup_ns", setup_ns);
    let mut deliveries = 0u64;
    let ((), run_ns) = tr.span("simnet.sim.run", Some(span), None, || {
        for run in 0..SIM_RUNS {
            let mut sim = simnet::Sim::from_scratch(run, &mut scratch);
            let mut sent = 0u64;
            sim.send(0, 0, 0, 0u32);
            sim.run(|sim, env| {
                for k in 1..=2 {
                    if sent < msgs {
                        sent += 1;
                        sim.forward(&env, (env.to * 2 + k) % SIM_PEERS, env.payload + 1);
                    }
                }
            });
            deliveries += sim.stats().deliveries;
            sim.recycle(&mut scratch);
        }
    });
    m.put("simnet.sim.ns_per_event", (run_ns - setup_ns * SIM_RUNS as f64) / deliveries as f64);
    tr.close(span);
}
