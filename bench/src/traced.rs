//! The traced run of one workload: the same slices under the counting
//! allocator, a span-recorded replica of the driver loop, and the
//! standalone probes of each layer's public API. Every per-layer metric
//! comes from here; no end-to-end wall-clock metric does.
//!
//! Each probe times calls the benchmark itself makes, from outside the
//! library, on inputs generated from the workload's seed and query mix.
//! Probes of the workload's own engine family run at the workload's N;
//! the other two families run on an auxiliary instance of at most
//! [`AUX_MAX_N`](crate::spec::AUX_MAX_N) peers, and the wrapper ladder and
//! the maintenance probes on `pira` stacks of at most
//! [`CHURN_MAX_N`](crate::spec::CHURN_MAX_N) (every traced run reports
//! every per-layer metric, mapped to the workload or not).

use crate::cli::Reference;
use crate::machine::{MachineClock, NOMINAL_NS_PER_STEP};
use crate::probes;
use crate::spec::{self, Workload};
use crate::stack;
use crate::stats;
use crate::timed::RunOutput;
use crate::trace::Tracer;
use dht_api::{DigestReport, RangeScheme};
use std::path::Path;

/// Traced repeats of the workload's slice (the first is the warm-up).
const TRACED_SLICES: usize = 3;

/// Collected per-layer values, by metric name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records one metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.0.iter().all(|(n, _)| *n != name), "metric {name} recorded twice");
        self.0.push((name, value));
    }

    /// The values in `spec::PER_LAYER` order; panics when one is missing
    /// or unknown, which `tests/contract.rs` turns into a failing test.
    fn in_spec_order(self) -> Vec<(&'static str, f64)> {
        for (name, _) in &self.0 {
            assert!(spec::PER_LAYER.iter().any(|m| m.name == *name), "unlisted metric {name}");
        }
        spec::PER_LAYER
            .iter()
            .map(|m| {
                let value = self.0.iter().find(|(n, _)| *n == m.name);
                (m.name, value.unwrap_or_else(|| panic!("metric {} not measured", m.name)).1)
            })
            .collect()
    }
}

/// Reads the process-wide allocation counters around a region.
pub struct AllocMeter {
    count: u64,
    bytes: u64,
}

impl AllocMeter {
    /// Starts metering.
    pub fn start() -> AllocMeter {
        AllocMeter {
            count: counting_alloc::allocation_count(),
            bytes: counting_alloc::allocated_bytes(),
        }
    }

    /// `(allocations, bytes requested)` since `start`.
    pub fn delta(&self) -> (f64, f64) {
        (
            (counting_alloc::allocation_count() - self.count) as f64,
            (counting_alloc::allocated_bytes() - self.bytes) as f64,
        )
    }
}

/// Runs the workload traced and writes `trace-<workload>.json` into
/// `trace_dir`.
///
/// # Errors
///
/// A query returned `Err`, or the trace file could not be written.
pub fn run(
    w: &Workload,
    seed: u64,
    reference: &Reference,
    trace_dir: &Path,
) -> Result<RunOutput, String> {
    if !counting_alloc::is_installed() {
        return Err("the traced run needs the counting allocator (armada-bench-traced)".into());
    }
    let fail = |e: dht_api::SchemeError| format!("{}: query failed: {e}", w.name);
    let reg = stack::registry();
    let gen = stack::workload_gen(w.mix);
    let slice_driver = stack::driver(w.slice_queries, seed);
    let probe_driver = stack::driver(w.probe_queries, seed);
    let mut tr = Tracer::with_capacity(4096 + 24 * w.probe_queries);
    let mut m = Values::default();
    let mut notes = Vec::new();
    let mut correct = true;
    let root = tr.open("workload", None, None);

    // The workload's own stack, set up the way the untraced run does
    // (and on the machine clock, so that the first slice below has a fresh
    // reading on its near side).
    let mut clock = MachineClock::new();
    let span = tr.open("setup", Some(root), None);
    let (mut built, _) = clock.time(|| stack::build(&reg, w.stack, w.n, seed));
    tr.close(span);
    m.put("dht-api.registry.build_ms", built.build_s * 1e3);
    m.put("dht-api.scheme.publish_us_per_record", built.publish_s * 1e6 / w.n as f64);

    // The same slice the untraced run measures, now with the counting
    // allocator installed. Spans sit outside the library, so inside a
    // slice the allocator is the only tracing cost: traced minus untraced
    // per-query time (both at the nominal machine speed) is the tracing
    // overhead.
    let mut traced_ns = Vec::new();
    let (mut msgs_per_query, mut delay_max) = (0.0, 0.0);
    for i in 0..TRACED_SLICES {
        if i > 0 && w.churn.is_some() {
            (built, _) = clock.time(|| stack::build(&reg, w.stack, w.n, seed));
        }
        let meter = AllocMeter::start();
        let span = tr.open("driver.slice", Some(root), None);
        let slice = stack::run_slice(w, &slice_driver, built.scheme.as_mut(), &gen, &mut clock);
        tr.close(span);
        let (report, timed) = slice.map_err(fail)?;
        traced_ns.push(timed.ns);
        (msgs_per_query, delay_max) = (report.messages.mean, report.delay.max);
        if i == 1 {
            // Post-warm-up: the scratch buffers have grown.
            let (allocs, bytes) = meter.delta();
            m.put("allocs_per_query", allocs / report.queries as f64);
            m.put("alloc_kb_per_query", bytes / 1024.0 / report.queries as f64);
        }
        if DigestReport::of(&report).value() != reference.digest {
            correct = false;
            notes.push(format!("traced slice {i} digest differs from the untraced run's"));
        }
    }
    m.put("delay_hops_max", delay_max);
    let untraced_ns = stats::median(&reference.ns);
    m.put("trace.overhead_share", (stats::median(&traced_ns) - untraced_ns) / untraced_ns);
    let per_slice = w.queries_per_slice() as f64;
    let slice_qps: Vec<f64> = reference.raw_ns.iter().map(|ns| per_slice * 1e9 / ns).collect();
    m.put("bench.slice_qps_median", stats::median(&slice_qps));
    m.put("bench.slice_qps_iqr", stats::iqr(&slice_qps));
    let walk: Vec<f64> = reference
        .raw_ns
        .iter()
        .zip(&reference.ns)
        .map(|(raw, ns)| raw * NOMINAL_NS_PER_STEP / ns)
        .collect();
    m.put("bench.machine_ns_per_step", stats::median(&walk));

    // The driver's fixed costs, on the first `probe_queries` queries of
    // the slice (queries are index-addressed, so this is a prefix).
    let scheme: &dyn RangeScheme = built.scheme.as_ref();
    let driver_ns =
        probes::driver_layer(&mut tr, root, &mut m, scheme, &gen, &probe_driver).map_err(fail)?;
    notes.push(format!(
        "driver.run {:.2} us/query over {} probe queries",
        driver_ns / 1e3,
        w.probe_queries
    ));
    drop(built);

    // Engine families: native call, trait call, substrate primitives. The
    // workload's own family runs at its N on its probe batch; the other
    // two, and the pira-only probes below, on auxiliary instances.
    let aux_driver = stack::driver(w.probe_queries.min(spec::AUX_MAX_QUERIES), seed);
    for family in [spec::Family::Pira, spec::Family::Dcf, spec::Family::PhtChord] {
        let (n, driver) = if family == w.family {
            (w.n, &probe_driver)
        } else {
            (w.n.min(spec::AUX_MAX_N), &aux_driver)
        };
        probes::family(&mut tr, root, &mut m, family, n, seed, &gen, driver);
    }

    // Wrapper ladder and maintenance, on pira.
    let small_n = w.n.min(spec::CHURN_MAX_N);
    probes::wrapper_ladder(&mut tr, root, &mut m, &reg, small_n, seed, &gen, &aux_driver)
        .map_err(fail)?;
    let rate = w.churn.map_or(64, |c| c.rate);
    probes::maintenance(&mut tr, root, &mut m, &reg, small_n, seed, rate).map_err(fail)?;

    // The bare event loop, relaying as many messages as a query sends.
    probes::sim(&mut tr, root, &mut m, msgs_per_query.round().max(1.0) as u64);

    tr.close(root);
    m.put("trace.probe_queries", w.probe_queries as f64);
    m.put("trace.spans", tr.len() as f64);
    std::fs::create_dir_all(trace_dir)
        .and_then(|()| {
            std::fs::write(
                trace_dir.join(format!("trace-{}.json", w.name)),
                tr.to_json(w.name, seed),
            )
        })
        .map_err(|e| format!("cannot write the trace under {}: {e}", trace_dir.display()))?;

    let attempted = (TRACED_SLICES * w.queries_per_slice() + w.probe_queries) as u64;
    Ok(RunOutput {
        correct,
        attempted,
        failed: if correct { 0 } else { attempted },
        metrics: m.in_spec_order(),
        notes,
        slices: Vec::new(),
        digest: reference.digest,
    })
}
