//! Experiment harness regenerating every table and figure of the ICDCS'06
//! Armada paper, plus ablations and robustness studies.
//!
//! Every experiment is a library function returning a [`Table`]; the one
//! binary, `armada-exp <subcommand> [--quick] [filters]`, prints the
//! paper-style series and writes CSVs to `target/experiments/`. The
//! mapping from paper artifact to module and subcommand (the dispatch
//! table is [`cli::EXPERIMENTS`]):
//!
//! | Paper artifact | Module | `armada-exp` subcommand |
//! |---|---|---|
//! | Table 1 (scheme comparison) | [`table1`] | `table1` |
//! | Figure 5 (delay vs range size) | [`figures::fig5`] | `fig5` |
//! | Figure 6 (messages vs range size) | [`figures::fig6`] | `fig6` |
//! | Figure 7 (delay vs network size) | [`figures::fig7`] | `fig7` |
//! | Figure 8 (messages vs network size) | [`figures::fig8`] | `fig8` |
//! | §3 substrate claims | [`substrate`] | `fissione_props` |
//! | §5 MIRA analysis | [`mira_eval`] | `mira_bounds` |
//! | §6 future work (top-k) | [`topk_eval`] | `topk_eval` |
//! | ablations (ours) | [`ablations`] | `ablation_flood`, `ablation_balance`, `ablation_pht` |
//! | robustness (ours) | [`faults`] | `fault_tolerance` |
//! | churn dynamics (ours) | [`churn_sweep`] | `churn_sweep` |
//! | replication (ours) | [`replication_sweep`] | `replication_sweep` |
//! | hostile networks (ours) | [`partition_sweep`] | `partition_sweep` |
//! | latency in ms (ours) | [`latency_sweep`] | `latency_sweep` |
//! | all sixteen of the above | [`cli`] | `all_experiments` |
//! | perf baseline (ours) | [`baseline`] | `bench_baseline` |
//! | query tracing (ours) | [`trace_explain`] | `trace_explain` |
//!
//! The harness builds, loads and drives a scheme stack in exactly one
//! place, [`cell`]; the sweeps and the baseline are nested loops over it.
//!
//! All runs are deterministic given a seed — including under the parallel
//! driver, whose per-thread statistics merge identically for any thread
//! count. The paper's setup (§4.3.3) is the default: attribute interval
//! `[0, 1000]`, 1000 random queries per measurement, random origins;
//! Figures 5/6 fix `N = 2000` and sweep the range size over
//! `{2, 10, 50, 100, 150, 200, 250, 300}`; Figures 7/8 fix the range size
//! at 20 and sweep `N` over `1000..=8000`. Beyond the paper, the workload
//! axis is open too: `bench_baseline` measures every scheme under the
//! [`dht_api::WorkloadGen`] catalog (uniform, Zipf-skewed hot ranges,
//! clustered, wide scans, correlated rectangles, a production blend).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod baseline;
pub mod cell;
pub mod churn_sweep;
pub mod cli;
pub mod faults;
pub mod figures;
pub mod latency_sweep;
pub mod mira_eval;
pub mod output;
pub mod partition_sweep;
pub mod replication_sweep;
pub mod row;
pub mod substrate;
pub mod sweeps;
pub mod table1;
pub mod topk_eval;
pub mod trace_explain;

pub use output::Table;

/// Names of every registered single-attribute scheme that opts into the
/// dynamics layer, discovered at runtime through the capability hook (no
/// hard-coded scheme list — a new dynamic scheme joins every churn and
/// replication experiment by registering itself).
pub fn dynamic_single_names() -> Vec<String> {
    let registry = standard_registry();
    let params = dht_api::BuildParams::new(40, 0.0, 1000.0).with_object_id_len(24);
    registry
        .single_names()
        .into_iter()
        .filter(|name| {
            let mut rng = simnet::rng_from_seed(0xd1a9);
            let mut scheme = registry.build_single(name, &params, &mut rng).expect("build");
            scheme.as_dynamic().is_some()
        })
        .map(str::to_string)
        .collect()
}

/// The full workspace registry: every scheme of the paper's Table 1,
/// selectable by name at runtime.
///
/// Single-attribute names: `pira`, `seqwalk`, `dcf-can`, `dcf-can-naive`,
/// `pht-fissione`, `pht-chord`, `skipgraph`, `squid`, `scrap`.
/// Multi-attribute names: `mira`, `squid`, `scrap`.
///
/// # Example
///
/// ```
/// use dht_api::BuildParams;
///
/// let reg = armada_experiments::standard_registry();
/// let mut rng = simnet::rng_from_seed(7);
/// let params = BuildParams::new(100, 0.0, 1000.0).with_object_id_len(24);
/// let mut scheme = reg.build_single("pira", &params, &mut rng).unwrap();
/// scheme.publish(500.0, 1).unwrap();
/// let origin = scheme.random_origin(&mut rng);
/// let out = scheme.range_query(origin, 499.0, 501.0, 0).unwrap();
/// assert_eq!(out.results, vec![1]);
/// ```
pub fn standard_registry() -> dht_api::SchemeRegistry {
    let mut reg = dht_api::SchemeRegistry::new();
    armada::register(&mut reg);
    dht_can::register(&mut reg);
    pht::register(&mut reg);
    skipgraph::register(&mut reg);
    squid::register(&mut reg);
    scrap::register(&mut reg);
    reg
}

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-faithful: 1000 queries per point, full network sizes.
    Full,
    /// Reduced: 100 queries per point, smaller sweeps — used by integration
    /// tests and quick local runs.
    Quick,
}

impl Scale {
    /// Queries per measurement point.
    pub fn queries(self) -> usize {
        match self {
            Scale::Full => 1000,
            Scale::Quick => 100,
        }
    }
}

/// The paper's simulation constants (§4.3.3).
pub mod paper {
    /// Attribute interval lower bound.
    pub const DOMAIN_LO: f64 = 0.0;
    /// Attribute interval upper bound.
    pub const DOMAIN_HI: f64 = 1000.0;
    /// Network size for the range-size sweeps (Figures 5 and 6).
    pub const FIG56_N: usize = 2000;
    /// Range sizes swept in Figures 5 and 6.
    pub const RANGE_SIZES: [f64; 8] = [2.0, 10.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0];
    /// Range size for the network-size sweeps (Figures 7 and 8).
    pub const FIG78_RANGE: f64 = 20.0;
    /// Network sizes swept in Figures 7 and 8.
    pub const NETWORK_SIZES: [usize; 8] = [1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000];
    /// ObjectID length (§3: "generally k = 100").
    pub const OBJECT_ID_LEN: usize = 100;
}
