//! Shared workload runners: the paper's range-size and network-size sweeps
//! executed against any set of registered schemes through the unified
//! [`dht_api`] interface (PIRA and DCF-CAN by default, matching the
//! paper's Figures 5–8).
//!
//! Since PR 2 the sweeps run through
//! [`ParallelDriver`](dht_api::ParallelDriver): queries fan out across
//! `threads` OS threads against each pre-built scheme, and because
//! every query is derived from its index the measured figures are
//! identical for any thread count — sweep output is a function of the
//! seed alone.

use crate::paper;
use dht_api::{BuildParams, DriverReport, RangeScheme, WorkloadGen};

/// Aggregated measurements for one sweep point: one [`DriverReport`] per
/// swept scheme, keyed by registry name.
#[derive(Debug, Clone)]
pub struct PointMetrics {
    /// Network size `N`.
    pub n_peers: usize,
    /// Queried range size (attribute units).
    pub range_size: f64,
    /// Per-scheme reports, in sweep order.
    pub reports: Vec<DriverReport>,
}

impl PointMetrics {
    /// The report for a scheme by registry name.
    ///
    /// # Panics
    ///
    /// Panics if the scheme was not part of the sweep.
    pub fn report(&self, scheme: &str) -> &DriverReport {
        self.reports
            .iter()
            .find(|r| r.scheme == scheme)
            .unwrap_or_else(|| panic!("scheme {scheme:?} was not swept"))
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct FigureSweep {
    /// Queries per point (the paper averages over 1000).
    pub queries: usize,
    /// Master seed.
    pub seed: u64,
    /// ObjectID length for Kautz-named schemes.
    pub object_id_len: usize,
    /// Registry names of the schemes to sweep.
    pub schemes: Vec<String>,
    /// Worker threads per measurement point (results are thread-count
    /// invariant; this only tunes wall-clock time).
    pub threads: usize,
}

impl Default for FigureSweep {
    fn default() -> Self {
        FigureSweep {
            queries: 1000,
            seed: 20060704,
            object_id_len: paper::OBJECT_ID_LEN,
            schemes: vec!["pira".into(), "dcf-can".into()],
            threads: dht_api::default_threads(),
        }
    }
}

/// Builds every configured scheme at size `n` from one shared seed stream.
pub fn build_schemes(cfg: &FigureSweep, n: usize) -> Vec<Box<dyn RangeScheme>> {
    let registry = crate::standard_registry();
    let params = BuildParams::new(n, paper::DOMAIN_LO, paper::DOMAIN_HI)
        .with_object_id_len(cfg.object_id_len);
    let mut rng = simnet::rng_from_seed(cfg.seed ^ n as u64);
    cfg.schemes
        .iter()
        .map(|name| {
            registry.build_single(name, &params, &mut rng).expect("paper-scale networks build")
        })
        .collect()
}

/// Runs `cfg.queries` random queries of the given size against every
/// pre-built scheme, fanned across `cfg.threads` threads by
/// [`ParallelDriver`](dht_api::ParallelDriver). Every scheme runs under
/// the **same driver seed**, so query `q` pairs completely across schemes: the same range, the same
/// origin-selection stream (each scheme maps it into its own peer space),
/// and the same scheme-internal seed — the cross-scheme comparison is
/// paired query-for-query as in the paper's harness. Exactness violations
/// (impossible fault-free) panic loudly rather than skewing the figures.
pub fn measure_point(
    cfg: &FigureSweep,
    schemes: &[Box<dyn RangeScheme>],
    range_size: f64,
) -> PointMetrics {
    let n = schemes.first().map_or(0, |s| s.node_count());
    let workload = WorkloadGen::uniform((paper::DOMAIN_LO, paper::DOMAIN_HI), range_size);
    let seed = cfg.seed ^ 0x5eed ^ range_size.to_bits() ^ n as u64;
    let driver = crate::cell::driver(cfg.queries, seed, cfg.threads);
    let reports = schemes
        .iter()
        .map(|scheme| {
            let report =
                driver.run(scheme.as_ref(), &workload).expect("fault-free queries succeed");
            assert!(
                report.exact_rate == 1.0,
                "{} missed destinations on a fault-free run",
                scheme.scheme_name()
            );
            report
        })
        .collect();
    PointMetrics { n_peers: n, range_size, reports }
}

/// Figure 5/6 workload: fixed `N`, swept range size.
pub fn range_sweep(cfg: &FigureSweep, n: usize, sizes: &[f64]) -> Vec<PointMetrics> {
    let schemes = build_schemes(cfg, n);
    sizes.iter().map(|&s| measure_point(cfg, &schemes, s)).collect()
}

/// Figure 7/8 workload: fixed range size, swept `N`.
pub fn network_sweep(cfg: &FigureSweep, ns: &[usize], range_size: f64) -> Vec<PointMetrics> {
    ns.iter()
        .map(|&n| {
            let schemes = build_schemes(cfg, n);
            measure_point(cfg, &schemes, range_size)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> FigureSweep {
        FigureSweep { queries: 40, seed: 7, object_id_len: 32, ..FigureSweep::default() }
    }

    #[test]
    fn range_sweep_produces_expected_shape() {
        let cfg = quick_cfg();
        let points = range_sweep(&cfg, 400, &[2.0, 100.0]);
        assert_eq!(points.len(), 2);
        let log_n = (400f64).log2();
        for p in &points {
            assert_eq!(p.report("pira").exact_rate, 1.0);
            assert!(p.report("pira").delay.mean < log_n, "PIRA not delay-bounded");
        }
        // DCF delay grows with range size while PIRA stays flat.
        assert!(points[1].report("dcf-can").delay.mean > points[0].report("dcf-can").delay.mean);
        assert!(
            (points[1].report("pira").delay.mean - points[0].report("pira").delay.mean).abs() < 3.0
        );
        // Destination peers grow with the range.
        assert!(
            points[1].report("pira").dest_peers.mean > points[0].report("pira").dest_peers.mean
        );
    }

    #[test]
    fn network_sweep_keeps_pira_logarithmic() {
        let cfg = quick_cfg();
        let points = network_sweep(&cfg, &[200, 800], 20.0);
        for p in &points {
            let log_n = (p.n_peers as f64).log2();
            assert!(p.report("pira").delay.mean < log_n);
            assert_eq!(p.report("pira").exact_rate, 1.0);
        }
        // DCF delay grows ~√N.
        assert!(points[1].report("dcf-can").delay.mean > points[0].report("dcf-can").delay.mean);
    }

    #[test]
    fn sweeps_extend_to_any_registered_scheme() {
        // The point of the unified API: adding a scheme to a sweep is one
        // name in the config, no new glue.
        let cfg = FigureSweep {
            queries: 20,
            seed: 7,
            object_id_len: 32,
            schemes: vec!["pira".into(), "skipgraph".into(), "scrap".into()],
            ..FigureSweep::default()
        };
        let points = range_sweep(&cfg, 150, &[50.0]);
        assert_eq!(points[0].reports.len(), 3);
        assert!(points[0].report("skipgraph").delay.mean > 0.0);
        assert!(points[0].report("scrap").delay.mean > 0.0);
    }
}
