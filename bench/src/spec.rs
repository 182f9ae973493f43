//! The benchmark's fixed tables: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` repeats the names, units,
//! directions and bounds; `tests/contract.rs` checks the two agree.

/// Attribute domain every workload publishes and queries over (paper §4.3.3).
pub const DOMAIN: (f64, f64) = (0.0, 1000.0);

/// FISSIONE ObjectID length (paper §3: "generally k = 100").
pub const OBJECT_ID_LEN: usize = 100;

/// Workload seed when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 47710;

/// Largest instance the auxiliary probes build: engine families other
/// than the workload's own run at `min(N, AUX_MAX_N)`, so a probe that is
/// not mapped to the workload cannot dominate its traced run.
pub const AUX_MAX_N: usize = 10_000;

/// Largest instance the maintenance probes and the wrapper ladder build:
/// a replicated publish is quadratic in N today.
pub const CHURN_MAX_N: usize = 4_000;

/// Most queries a probe on an auxiliary instance times.
pub const AUX_MAX_QUERIES: usize = 400;

/// The query mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// `WorkloadGen::uniform(domain, width)`.
    UniformWidth(f64),
    /// `WorkloadGen::named(name, domain)`.
    Named(&'static str),
}

/// Which native engine a workload's registry name resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `armada::PiraScheme` over `fissione`.
    Pira,
    /// `dht_can::DcfScheme` over CAN.
    Dcf,
    /// `pht::DynamicPhtScheme` over `chord`.
    PhtChord,
}

/// Epoch-mode parameters: a slice is one `run_epochs` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Churn {
    /// Epochs per slice.
    pub epochs: usize,
    /// Membership events per epoch transition (`steady-churn` plan).
    pub rate: usize,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    /// Registry name of the scheme stack.
    pub stack: &'static str,
    /// Native engine under the stack.
    pub family: Family,
    /// Peers built; the same number of records is published.
    pub n: usize,
    /// Query mix.
    pub mix: Mix,
    /// Queries per slice (per epoch in epoch mode).
    pub slice_queries: usize,
    /// Queries per lap: a slice is timed in laps of this many queries
    /// (about 30 ms), each against a machine-speed reading of its own.
    pub lap_queries: usize,
    /// Queries each per-query probe of the traced run times.
    pub probe_queries: usize,
    /// `Some` when slices run in epoch mode under churn.
    pub churn: Option<Churn>,
    /// Whether the paper's delay bounds are asserted (bare PIRA only).
    pub paper_bounds: bool,
}

impl Workload {
    /// The `--quick` form: N ≤ 10³ and small batches, for tests.
    pub fn quick(mut self) -> Workload {
        self.n = self.n.min(1000);
        self.slice_queries = self.slice_queries.min(120);
        self.lap_queries = self.lap_queries.min(40);
        self.probe_queries = self.probe_queries.min(60);
        if let Some(c) = self.churn.as_mut() {
            c.rate = c.rate.min(8);
        }
        self
    }

    /// Queries one slice executes.
    pub fn queries_per_slice(&self) -> usize {
        self.slice_queries * self.churn.map_or(1, |c| c.epochs)
    }
}

/// The six workloads, in run order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "pira-narrow",
        why: "paper's small-range regime: per-query fixed costs dominate, per-message dispatch is small",
        stack: "pira",
        family: Family::Pira,
        n: 10_000,
        mix: Mix::UniformWidth(2.0),
        slice_queries: 6_000,
        lap_queries: 1_000,
        probe_queries: 2_000,
        churn: None,
        paper_bounds: true,
    },
    Workload {
        name: "pira-scan",
        why: "wide scans at N=1e5: Sim event dispatch and the PIRA handler dominate; only large setup and RSS",
        stack: "pira",
        family: Family::Pira,
        n: 100_000,
        mix: Mix::UniformWidth(200.0),
        slice_queries: 10,
        lap_queries: 1,
        probe_queries: 20,
        churn: None,
        paper_bounds: true,
    },
    Workload {
        name: "stack-hostile",
        why: "the composed stack people run: Replicated, Hostile retry and NetModel pricing do most of the work",
        stack: "pira+r3@wan@lossy-p/r3",
        family: Family::Pira,
        n: 10_000,
        mix: Mix::Named("mixed"),
        slice_queries: 1_200,
        lap_queries: 40,
        probe_queries: 400,
        churn: None,
        paper_bounds: false,
    },
    Workload {
        name: "churn-repair",
        why: "writes beside reads: join/leave, stabilize and re_replicate are most of a slice",
        stack: "pira+r3",
        family: Family::Pira,
        n: 4_000,
        mix: Mix::Named("mixed"),
        slice_queries: 1_000,
        lap_queries: 1_000,
        probe_queries: 500,
        churn: Some(Churn { epochs: 2, rate: 64 }),
        paper_bounds: false,
    },
    Workload {
        name: "dcf-can-uniform",
        why: "dht-can does the work; shares only simnet and dht-api with pira, so armada/kautz changes stay flat",
        stack: "dcf-can",
        family: Family::Dcf,
        n: 10_000,
        mix: Mix::Named("uniform"),
        slice_queries: 400,
        lap_queries: 40,
        probe_queries: 600,
        churn: None,
        paper_bounds: false,
    },
    Workload {
        name: "pht-chord-uniform",
        why: "layered scheme over chord with no Sim event loop: the control for simnet.sim and fissione changes",
        stack: "pht-chord",
        family: Family::PhtChord,
        n: 10_000,
        mix: Mix::Named("uniform"),
        slice_queries: 2_400,
        lap_queries: 300,
        probe_queries: 2_000,
        churn: None,
        paper_bounds: false,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Whether a smaller or a larger value of a metric is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and direction; end-to-end metrics also
/// carry the share of the parent's median they may worsen by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what `--trace 0` prints for every workload.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("host_ns_per_msg", "ns", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("delay_hops_mean", "hops", Lower, 0.10),
    e2e("msgs_per_query", "count", Lower, 0.20),
    e2e("mesg_ratio_mean", "ratio", Lower, 0.10),
    e2e("recall_mean", "ratio", Higher, 0.01),
];

/// Per-layer metrics: what `--trace 1` prints for every workload.
pub const PER_LAYER: [Metric; 64] = [
    // Whole-stack figures of the workload's own slice: what the counting
    // allocator gives, and the worst simulated delay (an extreme value,
    // so it moves too much from seed to seed to carry a bound).
    layer("allocs_per_query", "count", Lower),
    layer("alloc_kb_per_query", "KiB", Lower),
    layer("delay_hops_max", "hops", Lower),
    // dht-api: the driver's fixed per-query and per-batch costs.
    layer("dht-api.workload.ns_per_draw", "ns", Lower),
    layer("dht-api.parallel.ns_per_origin", "ns", Lower),
    layer("dht-api.parallel.driver_overhead_us", "us", Lower),
    layer("dht-api.parallel.speedup_t2", "ratio", Higher),
    layer("dht-api.digest.us_per_report", "us", Lower),
    layer("simnet.stats.summarize_us", "us", Lower),
    layer("dht-api.registry.build_ms", "ms", Lower),
    layer("dht-api.scheme.publish_us_per_record", "us", Lower),
    // Wrapper ladder: pira, +r3, +r3@wan, +r3@wan@lossy-p/r3.
    layer("dht-api.replication.query_overhead_us", "us", Lower),
    layer("dht-api.replication.allocs_per_query", "count", Lower),
    layer("simnet.net.wan_overhead_us", "us", Lower),
    layer("dht-api.hostile.query_overhead_us", "us", Lower),
    layer("dht-api.hostile.allocs_per_query", "count", Lower),
    layer("dht-api.hostile.retries_per_query", "count", Lower),
    // Maintenance on pira+r3.
    layer("dht-api.churn.apply_us_per_event", "us", Lower),
    layer("dht-api.dynamics.stabilize_ms", "ms", Lower),
    layer("dht-api.dynamics.stabilize_ops", "count", Lower),
    layer("dht-api.replication.re_replicate_ms", "ms", Lower),
    layer("dht-api.replication.repair_placed_per_epoch", "count", Lower),
    layer("dht-api.replication.repair_msgs_per_epoch", "count", Lower),
    layer("fissione.net.join_us", "us", Lower),
    layer("fissione.net.leave_us", "us", Lower),
    layer("fissione.net.stabilize_ms", "ms", Lower),
    // simnet: the event loop with a no-op protocol.
    layer("simnet.sim.setup_ns", "ns", Lower),
    layer("simnet.sim.ns_per_event", "ns", Lower),
    // kautz: naming and region arithmetic.
    layer("kautz.naming.ns_per_region", "ns", Lower),
    layer("kautz.naming.ns_per_object_id", "ns", Lower),
    layer("kautz.region.ns_per_intersects", "ns", Lower),
    // fissione: the substrate under pira.
    layer("fissione.net.build_ms", "ms", Lower),
    layer("fissione.net.ns_per_owner_of", "ns", Lower),
    layer("fissione.routing.ns_per_route_hop", "ns", Lower),
    layer("fissione.net.ns_per_neighbors", "ns", Lower),
    // armada: the native PIRA engine and its trait adapter.
    layer("armada.engine.query_us_p50", "us", Lower),
    layer("armada.engine.query_us_p99", "us", Lower),
    layer("armada.engine.ns_per_msg", "ns", Lower),
    layer("armada.engine.allocs_per_query", "count", Lower),
    layer("armada.engine.dest_peers_per_query", "count", Lower),
    layer("armada.engine.results_per_query", "count", Lower),
    layer("armada.scheme.adapter_us", "us", Lower),
    // dht-can: CAN and the DCF flood.
    layer("dht-can.can.build_ms", "ms", Lower),
    layer("dht-can.can.ns_per_route_hop", "ns", Lower),
    layer("dht-can.dcf.query_us_p50", "us", Lower),
    layer("dht-can.dcf.query_us_p99", "us", Lower),
    layer("dht-can.dcf.ns_per_msg", "ns", Lower),
    layer("dht-can.dcf.allocs_per_query", "count", Lower),
    layer("dht-can.scheme.adapter_us", "us", Lower),
    // chord and the PHT layered over it.
    layer("chord.build_ms", "ms", Lower),
    layer("chord.ns_per_route_hop", "ns", Lower),
    layer("pht.insert_us_per_record", "us", Lower),
    layer("pht.query_us_p50", "us", Lower),
    layer("pht.query_us_p99", "us", Lower),
    layer("pht.ns_per_msg", "ns", Lower),
    layer("pht.allocs_per_query", "count", Lower),
    layer("pht.scheme.adapter_us", "us", Lower),
    // The trace's own accounting and the untraced reference slices.
    layer("trace.attributed_share", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.probe_queries", "count", Higher),
    layer("trace.spans", "count", Higher),
    layer("bench.slice_qps_median", "1/s", Higher),
    layer("bench.slice_qps_iqr", "1/s", Lower),
    layer("bench.machine_ns_per_step", "ns", Lower),
];
