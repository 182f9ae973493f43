//! R4 — the delay bound in milliseconds: every scheme × every network
//! cost model, swept over range size and network size.
//!
//! The paper states its headline bound — PIRA's query delay stays below
//! `log₂ N` *hops* regardless of the queried range — on a network where
//! every edge costs the same. This experiment re-examines that bound in
//! **virtual milliseconds** under the [`NetModel`](dht_api::NetModel)
//! catalog: homogeneous `lan`/`wan` (where hop counts and wall clocks are
//! proportional and the bound survives trivially), `cluster` transit-stub
//! (where some edges cost 30× others), and `straggler` (where a
//! deterministic 1-in-16 slow-peer set taxes every path that touches it).
//!
//! Two findings the tests pin:
//!
//! * Hop metrics are **model-invariant** — the cost layer observes message
//!   paths, it never perturbs them — so the `unit` column of this sweep
//!   reproduces the Figure 5/7 hop numbers exactly.
//! * Under `straggler`, PIRA's *latency* is no longer bounded by
//!   `log₂ N · max_edge`-style reasoning alone — a wide range almost
//!   surely touches a straggler destination, so the critical path absorbs
//!   the straggler tax — but it still beats the sequential-walk class by
//!   an order of magnitude, because the walk *sums* straggler taxes along
//!   the run while PIRA's parallel descent pays each at most once on the
//!   critical path. The hop bound translates to a latency bound up to the
//!   (bounded) per-path straggler tax.
//!
//! Filterable like the other sweeps: [`Filters`] selects schemes, net
//! models, and the worker thread count (`armada-exp latency_sweep
//! --schemes`, `--nets`, `--threads`); the all-defaults filter is the
//! committed R4 grid.

use crate::cli::{Filters, Tables};
use crate::output::{Column, Table};
use crate::{cell, paper, standard_registry, Scale};
use dht_api::{DriverReport, WorkloadGen, NET_MODEL_NAMES};

/// Which axis a [`LatencyPoint`] sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// Fixed `N`, swept range size (the Figure 5 shape, in ms).
    RangeSize,
    /// Fixed range size, swept `N` (the Figure 7 shape, in ms).
    NetworkSize,
}

impl SweepAxis {
    /// Short label for tables/CSV.
    pub fn label(self) -> &'static str {
        match self {
            SweepAxis::RangeSize => "range",
            SweepAxis::NetworkSize => "n",
        }
    }
}

/// One scheme × net model × axis point.
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    /// Registry name of the scheme.
    pub scheme: String,
    /// Net model name from the catalog.
    pub net: String,
    /// Which sweep axis this point belongs to.
    pub axis: SweepAxis,
    /// Network size the point ran at.
    pub n_peers: usize,
    /// Queried range size (attribute units).
    pub range_size: f64,
    /// The full metric report (hop `delay` and virtual-ms `latency`).
    pub report: DriverReport,
}

/// Runs the sweep — by default every registered single-attribute scheme ×
/// every net model.
///
/// # Errors
///
/// A `--schemes` name outside the registry (net models are checked when
/// the flags are parsed).
///
/// # Panics
///
/// Panics if a scheme fails to build or errs on a fault-free query — a
/// sweep with silently missing cells would be worse than none.
pub fn run_points(scale: Scale, filters: &Filters) -> Result<Vec<LatencyPoint>, String> {
    let registry = standard_registry();
    let singles: Vec<String> = registry.single_names().into_iter().map(String::from).collect();
    let schemes = filters.schemes(&singles)?;
    let nets = filters.nets(&NET_MODEL_NAMES)?;
    let (range_axis_n, range_sizes, network_sizes, object_id_len) = match scale {
        Scale::Full => {
            (1000, paper::RANGE_SIZES.to_vec(), vec![1000, 2000, 4000], paper::OBJECT_ID_LEN)
        }
        Scale::Quick => (200, vec![2.0, 50.0, 300.0], vec![150, 300], 32),
    };
    // Two axes, each a list of `(N, range sizes)` legs: fixed N with swept
    // range size, then fixed range size ([`paper::FIG78_RANGE`]) with
    // swept N.
    let range_axis = (SweepAxis::RangeSize, vec![(range_axis_n, range_sizes)]);
    let legs = network_sizes.iter().map(|&n| (n, vec![paper::FIG78_RANGE])).collect();
    let network_axis = (SweepAxis::NetworkSize, legs);
    let mut points = Vec::new();
    for (axis, legs) in [range_axis, network_axis] {
        for net_name in &nets {
            for (n, sizes) in &legs {
                for scheme_name in &schemes {
                    // Build and driver seeds depend on the point but NOT on
                    // the net model: identical networks, data and queries
                    // under every model, so hop metrics pair bit-for-bit
                    // across the model axis.
                    let seed = 0x1a7e ^ dht_api::fnv1a(scheme_name.as_bytes()) ^ *n as u64;
                    let stack = format!("{scheme_name}@{net_name}");
                    let scheme = cell::loaded(&registry, &stack, *n, object_id_len, seed);
                    for &size in sizes {
                        let workload = WorkloadGen::uniform(cell::DOMAIN, size);
                        let seed = 0x5eed ^ size.to_bits() ^ *n as u64;
                        let report = cell::driver(scale.queries(), seed, filters.threads)
                            .run(scheme.as_ref(), &workload)
                            .expect("fault-free queries succeed");
                        assert_eq!(
                            report.exact_rate, 1.0,
                            "{stack} missed destinations fault-free"
                        );
                        points.push(LatencyPoint {
                            scheme: scheme_name.clone(),
                            net: net_name.clone(),
                            axis,
                            n_peers: *n,
                            range_size: size,
                            report,
                        });
                    }
                }
            }
        }
    }
    Ok(points)
}

/// Runs the sweep and renders the latency table (errors and panics as
/// [`run_points`]).
pub fn run(scale: Scale, filters: &Filters) -> Result<Tables, String> {
    let columns: [Column<LatencyPoint>; 10] = [
        ("scheme", |p| p.scheme.clone()),
        ("net", |p| p.net.clone()),
        ("axis", |p| p.axis.label().to_string()),
        ("N", |p| p.n_peers.to_string()),
        ("range", |p| format!("{:.0}", p.range_size)),
        ("delay_mean (hops)", |p| format!("{:.2}", p.report.delay.mean)),
        ("latency_mean (ms)", |p| format!("{:.2}", p.report.latency.mean)),
        ("latency_p95", |p| format!("{:.1}", p.report.latency.p95)),
        ("latency_p99", |p| format!("{:.1}", p.report.latency.p99)),
        ("latency_max", |p| format!("{:.0}", p.report.latency.max)),
    ];
    let title = "R4 — query latency in virtual ms under the net-model catalog";
    Ok(vec![("latency_sweep", Table::of(title, &columns, &run_points(scale, filters)?))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(schemes: &[&str], nets: &[&str]) -> Filters {
        Filters {
            schemes: Some(schemes.iter().map(|s| s.to_string()).collect()),
            nets: Some(nets.iter().map(|s| s.to_string()).collect()),
            ..Filters::default()
        }
    }

    fn run_points_with(filters: &Filters) -> Vec<LatencyPoint> {
        run_points(Scale::Quick, filters).unwrap()
    }

    #[test]
    fn grid_covers_schemes_nets_and_both_axes() {
        let cfg = quick_cfg(&["pira", "skipgraph"], &["unit", "wan"]);
        let points = run_points_with(&cfg);
        // 2 schemes × 2 nets × (3 range sizes + 2 network sizes).
        assert_eq!(points.len(), 2 * 2 * (3 + 2));
        assert!(points.iter().any(|p| p.axis == SweepAxis::RangeSize));
        assert!(points.iter().any(|p| p.axis == SweepAxis::NetworkSize));
        for p in &points {
            assert_eq!(p.report.exact_rate, 1.0, "{}/{}", p.scheme, p.net);
            assert!(p.report.latency.count > 0);
        }
        // Table mirrors the grid.
        assert_eq!(run(Scale::Quick, &cfg).unwrap()[0].1.rows.len(), points.len());
    }

    #[test]
    fn hop_delay_is_identical_across_net_models_per_cell() {
        let cfg = quick_cfg(&["pira", "dcf-can"], &["unit", "straggler", "cluster"]);
        let points = run_points_with(&cfg);
        for p in &points {
            let unit = points
                .iter()
                .find(|q| {
                    q.net == "unit"
                        && q.scheme == p.scheme
                        && q.axis == p.axis
                        && q.n_peers == p.n_peers
                        && q.range_size == p.range_size
                })
                .expect("unit twin exists");
            assert_eq!(
                p.report.delay, unit.report.delay,
                "{}@{} hop delay drifted from unit",
                p.scheme, p.net
            );
            assert_eq!(p.report.messages, unit.report.messages);
        }
    }

    #[test]
    fn pira_latency_bound_survives_the_straggler_model_relative_to_seqwalk() {
        // The headline question: does the hop bound still translate to a
        // latency bound when 1 in 16 peers is slow? Relative to the
        // sequential-walk class it must — the walk sums straggler taxes
        // along the destination run, PIRA's parallel descent pays each at
        // most once on its critical path.
        let cfg = quick_cfg(&["pira", "seqwalk"], &["straggler"]);
        let points = run_points_with(&cfg);
        let widest = |scheme: &str| {
            points
                .iter()
                .filter(|p| p.scheme == scheme && p.axis == SweepAxis::RangeSize)
                .max_by(|a, b| a.range_size.total_cmp(&b.range_size))
                .expect("range axis ran")
        };
        let pira = widest("pira");
        let walk = widest("seqwalk");
        assert!(
            pira.report.latency.mean < walk.report.latency.mean / 2.0,
            "pira {} !< seqwalk {} / 2 under straggler",
            pira.report.latency.mean,
            walk.report.latency.mean
        );
        // And PIRA's own latency grows sub-linearly in the range: the
        // 150× wider query costs nowhere near 150× the milliseconds.
        let narrow = points
            .iter()
            .filter(|p| p.scheme == "pira" && p.axis == SweepAxis::RangeSize)
            .min_by(|a, b| a.range_size.total_cmp(&b.range_size))
            .unwrap();
        assert!(
            pira.report.latency.mean < 20.0 * narrow.report.latency.mean.max(1.0),
            "pira latency blew up with range size: {} vs {}",
            pira.report.latency.mean,
            narrow.report.latency.mean
        );
    }

    #[test]
    fn wan_scales_every_scheme_by_the_edge_cost_band() {
        let cfg = quick_cfg(&["pira"], &["unit", "wan"]);
        let points = run_points_with(&cfg);
        for p in points.iter().filter(|p| p.net == "wan") {
            let unit = points
                .iter()
                .find(|q| {
                    q.net == "unit"
                        && q.axis == p.axis
                        && q.range_size == p.range_size
                        && q.n_peers == p.n_peers
                })
                .unwrap();
            // Every wan edge costs 30–90 unit edges.
            assert!(p.report.latency.mean >= 30.0 * unit.report.latency.mean);
            assert!(p.report.latency.mean <= 90.0 * unit.report.latency.mean + 1e-9);
        }
    }
}
