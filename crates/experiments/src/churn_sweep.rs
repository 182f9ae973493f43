//! R2 — dynamics: recall and delay under membership churn, across every
//! dynamic scheme.
//!
//! The paper evaluates fully-stabilized networks; this extension measures
//! what the related systems literature says actually differentiates
//! schemes — behaviour *while the membership changes*. Every scheme whose
//! [`as_dynamic`](dht_api::RangeScheme::as_dynamic) hook opts in runs the
//! same epoch-driven workload under a churn plan at a sweep of churn rates;
//! the rate-0 run of each scheme is its frozen control, so "result recall"
//! is directly the fraction of the control's answers that survive churn.
//!
//! The default plan is `massacre`, which defers stabilization (every
//! *other* epoch), so the per-epoch series visibly dips where crashes have
//! eaten records and recovers where the stabilize pass re-published them;
//! the table reports both the mean and the worst epoch. The sweep is
//! filterable for local iteration — [`Filters`] selects schemes, plans, and
//! the worker thread count (`armada-exp churn_sweep --schemes`, `--plans`,
//! `--threads`); the all-defaults filter reproduces the committed R2
//! numbers.

use crate::cli::{Filters, Tables};
use crate::output::{Column, Table};
use crate::{cell, standard_registry, Scale};
use dht_api::{ChurnPlan, DriverReport, WorkloadGen, CHURN_PLAN_NAMES};

/// Churn rates swept (membership events per epoch transition); 0 is the
/// frozen control every other rate is compared against.
pub const CHURN_RATES: [usize; 3] = [0, 4, 16];

/// Build and driver seed of the sweep.
const SWEEP_SEED: u64 = 0xc482;

/// One scheme × plan × churn-rate measurement.
#[derive(Debug, Clone)]
pub struct ChurnPoint {
    /// Registry name of the scheme.
    pub scheme: String,
    /// Churn plan name.
    pub plan: String,
    /// Membership events per epoch transition.
    pub rate: usize,
    /// The merged epoch-driven report (carries the per-epoch series).
    pub report: DriverReport,
    /// `results_returned / control results_returned` — 1.0 when churn cost
    /// no answers overall.
    pub result_recall: f64,
    /// The worst single epoch's share of the control's answers for that
    /// epoch — where deferred stabilization shows.
    pub worst_epoch_recall: f64,
    /// Live peers after the final epoch.
    pub final_peers: usize,
}

/// `(result recall, worst-epoch recall)` of an epoch-driven `report`
/// against its control's per-epoch result counts: the share of the
/// control's answers that survived overall, and in the worst single epoch
/// (an epoch the control answered with nothing counts as fully recalled).
pub(crate) fn recall_against(report: &DriverReport, control_epochs: &[u64]) -> (f64, f64) {
    let share = |got: u64, want: u64| if want == 0 { 1.0 } else { got as f64 / want as f64 };
    let worst = report
        .epochs
        .iter()
        .zip(control_epochs)
        .map(|(e, &want)| share(e.results_returned, want))
        .fold(f64::INFINITY, f64::min);
    (share(report.results_returned, control_epochs.iter().sum()), worst)
}

/// Runs the sweep — by default every dynamic scheme under the `massacre`
/// plan — and returns each scheme's points in rate order.
///
/// # Errors
///
/// A `--schemes` or `--plans` name outside its catalog.
///
/// # Panics
///
/// Panics if a dynamic scheme fails to build or errors on a fault-free
/// query — the sweep is meaningless with missing cells.
pub fn run_points(scale: Scale, filters: &Filters) -> Result<Vec<ChurnPoint>, String> {
    let schemes = filters.schemes(&crate::dynamic_single_names())?;
    let plans = filters.plans(&["massacre"], &CHURN_PLAN_NAMES, |p| ChurnPlan::named(p).is_ok())?;
    let registry = standard_registry();
    let (n, epochs) = match scale {
        Scale::Full => (600, 6),
        Scale::Quick => (150, 4),
    };
    let queries_per_epoch = (scale.queries() / epochs).max(10);
    let workload = WorkloadGen::named("uniform", cell::DOMAIN).expect("cataloged");
    let driver = cell::driver(queries_per_epoch, SWEEP_SEED, filters.threads);

    let mut points = Vec::new();
    for name in &schemes {
        for plan_name in &plans {
            let mut control_epochs: Vec<u64> = Vec::new();
            for &rate in &CHURN_RATES {
                let seed = SWEEP_SEED ^ dht_api::fnv1a(name.as_bytes());
                let mut scheme = cell::loaded(&registry, name, n, 32, seed);
                let plan = ChurnPlan::named(plan_name).expect("checked above").with_rate(rate);
                let report = driver
                    .run_epochs(scheme.as_mut(), &workload, &plan, epochs)
                    .expect("epoch run");
                if rate == 0 {
                    control_epochs = report.epochs.iter().map(|e| e.results_returned).collect();
                }
                let (result_recall, worst_epoch_recall) = recall_against(&report, &control_epochs);
                let final_peers = report.epochs.last().expect("epochs ran").peers;
                points.push(ChurnPoint {
                    scheme: name.clone(),
                    plan: plan_name.clone(),
                    rate,
                    report,
                    result_recall,
                    worst_epoch_recall,
                    final_peers,
                });
            }
        }
    }
    Ok(points)
}

/// Runs the sweep and renders the recall-vs-churn-rate table (errors and
/// panics as [`run_points`]).
pub fn run(scale: Scale, filters: &Filters) -> Result<Tables, String> {
    let columns: [Column<ChurnPoint>; 9] = [
        ("scheme", |p| p.scheme.clone()),
        ("plan", |p| p.plan.clone()),
        ("churn rate", |p| p.rate.to_string()),
        ("final peers", |p| p.final_peers.to_string()),
        ("avg delay", |p| format!("{:.2}", p.report.delay.mean)),
        ("exact rate", |p| format!("{:.3}", p.report.exact_rate)),
        ("peer recall", |p| format!("{:.3}", p.report.recall.mean)),
        ("result recall", |p| format!("{:.3}", p.result_recall)),
        ("worst epoch", |p| format!("{:.3}", p.worst_epoch_recall)),
    ];
    let title = "R2 — recall under churn (epoch-driven)";
    Ok(vec![("churn_sweep", Table::of(title, &columns, &run_points(scale, filters)?))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_dynamic_scheme_is_swept_and_controls_are_perfect() {
        let points = run_points(Scale::Quick, &Filters::default()).unwrap();
        let schemes = crate::dynamic_single_names();
        assert_eq!(
            schemes,
            vec!["dcf-can", "dcf-can-naive", "pht-chord", "pht-fissione", "pira", "seqwalk"],
            "runtime discovery should find exactly the opted-in schemes"
        );
        assert_eq!(points.len(), schemes.len() * CHURN_RATES.len());
        for p in &points {
            // Frozen controls answer everything, exactly.
            if p.rate == 0 {
                assert_eq!(p.result_recall, 1.0, "{} control", p.scheme);
                assert_eq!(p.report.exact_rate, 1.0, "{} control", p.scheme);
            }
            assert_eq!(p.plan, "massacre", "default sweep runs the stress plan");
            assert!(p.result_recall <= 1.0 + 1e-9, "{}@{}", p.scheme, p.rate);
            assert!(p.worst_epoch_recall <= p.result_recall + 1e-9);
            assert_eq!(p.report.epochs.len(), 4);
            assert!(p.final_peers > 0);
        }
    }

    #[test]
    fn filters_narrow_the_sweep() {
        let plans = ["steady-churn", "join-storm"].map(String::from).to_vec();
        let filters = Filters {
            schemes: Some(vec!["pira".into()]),
            plans: Some(plans),
            threads: 2,
            ..Filters::default()
        };
        let points = run_points(Scale::Quick, &filters).unwrap();
        // 1 scheme × 2 plans × 3 rates.
        assert_eq!(points.len(), 2 * CHURN_RATES.len());
        assert!(points.iter().all(|p| p.scheme == "pira"));
        assert!(points.iter().any(|p| p.plan == "join-storm"));
        // Graceful plans lose nothing: recall stays perfect at every rate.
        for p in &points {
            assert!(p.result_recall > 0.999, "{}/{}@{}", p.scheme, p.plan, p.rate);
        }
        // A name outside the catalog is an error, not a silently smaller sweep.
        let typo = Filters { schemes: Some(vec!["pira".into(), "typo".into()]), ..filters.clone() };
        let e = run_points(Scale::Quick, &typo).unwrap_err();
        assert!(e.contains("\"typo\"") && e.contains("seqwalk"), "{e}");
        let bad_plan = Filters { plans: Some(vec!["armageddon".into()]), ..filters };
        assert!(run_points(Scale::Quick, &bad_plan).unwrap_err().contains("massacre"));
    }
}
