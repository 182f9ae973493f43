//! R3 — replication: recall, message overhead, and repair traffic as a
//! function of the replication factor, across every dynamic scheme and
//! every churn plan.
//!
//! The paper never asks what recall *costs to keep*: its peer-recall
//! metric (§4.3.3) measures the damage faults do, and the R2 churn sweep
//! confirmed that every scheme's recall collapses between crash events and
//! `stabilize()`. This experiment closes the loop with the replication
//! layer: each scheme runs the same epoch-driven workload under each churn
//! plan at replication factors `r ∈ {1, 2, 3, 5}` (`successor-r`
//! placement — the factor-prefix-stable discipline), and the sweep reports
//!
//! * **result recall** — the fraction of the churn-free control's answers
//!   the churned run still returns (and the worst single epoch);
//! * **MesgRatio** — replica fetches are counted in the outcome, so the
//!   message premium of recovery is visible next to the recall it buys;
//! * **repair cost** — copies placed and messages spent by
//!   [`re_replicate`](dht_api::ReplicationControl::re_replicate) after
//!   each epoch's membership events.
//!
//! Because placement is deterministic and `successor-r` owner lists are
//! prefix-stable in `r`, recall is **monotonically non-decreasing in the
//! replication factor** under *identical* churn histories — pinned by this
//! module's tests for PIRA and DCF-CAN under every cataloged plan.

use crate::churn_sweep::recall_against;
use crate::cli::{Filters, Tables};
use crate::output::{Column, Table};
use crate::{cell, standard_registry, Scale};
use dht_api::{ChurnPlan, DriverReport, WorkloadGen, CHURN_PLAN_NAMES};

/// Replication factors swept (total copies per record, primary included);
/// factor 1 is the unreplicated baseline.
pub const REPLICATION_FACTORS: [usize; 4] = [1, 2, 3, 5];

/// Events per epoch transition (the plans' default rate keeps the
/// comparison honest across plans).
const CHURN_RATE: usize = 8;

/// Build and driver seed of the sweep.
const SWEEP_SEED: u64 = 0x4e91;

/// One scheme × plan × factor measurement.
#[derive(Debug, Clone)]
pub struct ReplicationPoint {
    /// Registry name of the scheme.
    pub scheme: String,
    /// Churn plan name.
    pub plan: String,
    /// Replication factor (total copies per record).
    pub factor: usize,
    /// Canonical policy name (`"none"` for factor 1).
    pub policy: String,
    /// The merged epoch-driven report (per-epoch series included).
    pub report: DriverReport,
    /// `results_returned / churn-free control results_returned`.
    pub result_recall: f64,
    /// The worst single epoch's share of the control's answers.
    pub worst_epoch_recall: f64,
    /// Replica copies placed by repair across all epochs.
    pub repair_placed: usize,
    /// Messages spent by repair across all epochs.
    pub repair_messages: u64,
    /// Live peers after the final epoch.
    pub final_peers: usize,
}

/// Runs the sweep — by default every dynamic scheme × every cataloged
/// plan × [`REPLICATION_FACTORS`]. Every `(scheme, plan, factor)` cell
/// rebuilds the stack `scheme+r{factor}` from the same seed and drives the
/// identical epoch workload, so cells differ *only* in the replication
/// factor; the control (result-recall denominator) is the scheme's
/// churn-free run.
///
/// # Errors
///
/// A `--schemes` or `--plans` name outside its catalog.
///
/// # Panics
///
/// Panics if a scheme fails to build or errors on a fault-free query.
pub fn run_points(scale: Scale, filters: &Filters) -> Result<Vec<ReplicationPoint>, String> {
    let schemes = filters.schemes(&crate::dynamic_single_names())?;
    let plans =
        filters.plans(&CHURN_PLAN_NAMES, &CHURN_PLAN_NAMES, |p| ChurnPlan::named(p).is_ok())?;
    let registry = standard_registry();
    let (n, epochs) = match scale {
        Scale::Full => (600, 6),
        Scale::Quick => (150, 4),
    };
    let queries_per_epoch = (scale.queries() / epochs).max(10);
    let workload = WorkloadGen::named("uniform", cell::DOMAIN).expect("cataloged");
    let driver = cell::driver(queries_per_epoch, SWEEP_SEED, filters.threads);
    let build = |name: &str, factor: usize| {
        let seed = SWEEP_SEED ^ dht_api::fnv1a(name.as_bytes());
        cell::loaded(&registry, &format!("{name}+r{factor}"), n, 32, seed)
    };

    let mut points = Vec::new();
    for name in &schemes {
        // The churn-free control: the same epoch workload with no
        // membership events (shared across plans and factors).
        let control = {
            let mut scheme = build(name, 1);
            let plan = ChurnPlan::named("steady-churn").expect("cataloged").with_rate(0);
            driver.run_epochs(scheme.as_mut(), &workload, &plan, epochs).expect("control run")
        };
        let control_epochs: Vec<u64> = control.epochs.iter().map(|e| e.results_returned).collect();

        for plan_name in &plans {
            for &factor in &REPLICATION_FACTORS {
                let mut scheme = build(name, factor);
                let policy_name = scheme
                    .as_replicated()
                    .map_or_else(|| "none".to_string(), |c| c.policy().name());
                let plan =
                    ChurnPlan::named(plan_name).expect("checked above").with_rate(CHURN_RATE);
                let report = driver
                    .run_epochs(scheme.as_mut(), &workload, &plan, epochs)
                    .expect("epoch run");
                let (result_recall, worst_epoch_recall) = recall_against(&report, &control_epochs);
                let repair_placed: usize = report.epochs.iter().map(|e| e.repair.placed).sum();
                let repair_messages: u64 = report.epochs.iter().map(|e| e.repair.messages).sum();
                let final_peers = report.epochs.last().expect("epochs ran").peers;
                points.push(ReplicationPoint {
                    scheme: name.clone(),
                    plan: plan_name.clone(),
                    factor,
                    policy: policy_name,
                    report,
                    result_recall,
                    worst_epoch_recall,
                    repair_placed,
                    repair_messages,
                    final_peers,
                });
            }
        }
    }
    Ok(points)
}

/// Runs the sweep and renders the recall-vs-replication table (errors and
/// panics as [`run_points`]).
pub fn run(scale: Scale, filters: &Filters) -> Result<Tables, String> {
    let columns: [Column<ReplicationPoint>; 11] = [
        ("scheme", |p| p.scheme.clone()),
        ("plan", |p| p.plan.clone()),
        ("r", |p| p.factor.to_string()),
        ("final peers", |p| p.final_peers.to_string()),
        ("avg delay", |p| format!("{:.2}", p.report.delay.mean)),
        ("mesg ratio", |p| format!("{:.2}", p.report.mesg_ratio.mean)),
        ("peer recall", |p| format!("{:.3}", p.report.recall.mean)),
        ("result recall", |p| format!("{:.3}", p.result_recall)),
        ("worst epoch", |p| format!("{:.3}", p.worst_epoch_recall)),
        ("repair placed", |p| p.repair_placed.to_string()),
        ("repair msgs", |p| p.repair_messages.to_string()),
    ];
    let title = "R3 — recall vs replication factor (epoch-driven churn)";
    Ok(vec![("replication_sweep", Table::of(title, &columns, &run_points(scale, filters)?))])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: recall must be monotonically non-decreasing in
    /// the replication factor under *every* cataloged churn plan, for at
    /// least two schemes. Deterministic placement plus the successor
    /// policy's prefix property make this exact, not statistical.
    #[test]
    fn recall_is_monotone_in_the_replication_factor() {
        let filters =
            Filters { schemes: Some(vec!["pira".into(), "dcf-can".into()]), ..Filters::default() };
        let points = run_points(Scale::Quick, &filters).unwrap();
        assert_eq!(points.len(), 2 * CHURN_PLAN_NAMES.len() * REPLICATION_FACTORS.len());
        for scheme in ["pira", "dcf-can"] {
            for plan in CHURN_PLAN_NAMES {
                let series: Vec<&ReplicationPoint> =
                    points.iter().filter(|p| p.scheme == scheme && p.plan == plan).collect();
                assert_eq!(series.len(), REPLICATION_FACTORS.len());
                for pair in series.windows(2) {
                    assert!(
                        pair[1].result_recall >= pair[0].result_recall - 1e-12,
                        "{scheme}/{plan}: recall not monotone: r={} gives {}, r={} gives {}",
                        pair[0].factor,
                        pair[0].result_recall,
                        pair[1].factor,
                        pair[1].result_recall
                    );
                    assert!(
                        pair[1].worst_epoch_recall >= pair[0].worst_epoch_recall - 1e-12,
                        "{scheme}/{plan}: worst-epoch recall not monotone"
                    );
                }
                // Replication must actually pay for itself on the
                // crash-heavy plan: r = 5 strictly beats r = 1.
                if plan == "massacre" {
                    let first = series.first().unwrap();
                    let last = series.last().unwrap();
                    assert!(
                        last.result_recall > first.result_recall,
                        "{scheme}/massacre: replication bought no recall \
                         ({} at r=1 vs {} at r=5)",
                        first.result_recall,
                        last.result_recall
                    );
                    assert!(last.repair_placed > 0, "{scheme}: crashes must trigger repair");
                    assert!(last.repair_messages > 0);
                }
                // Factor 1 is genuinely unreplicated.
                assert_eq!(series[0].policy, "none");
                assert_eq!(series[0].repair_placed, 0);
            }
        }
    }

    #[test]
    fn replication_cost_shows_up_in_the_message_metrics() {
        let filters = Filters {
            schemes: Some(vec!["pira".into()]),
            plans: Some(vec!["massacre".into()]),
            ..Filters::default()
        };
        let points = run_points(Scale::Quick, &filters).unwrap();
        let r1 = points.iter().find(|p| p.factor == 1).unwrap();
        let r5 = points.iter().find(|p| p.factor == 5).unwrap();
        // Recovery fetches are counted: more copies, more recovered
        // records, more messages per query.
        assert!(
            r5.report.messages.mean > r1.report.messages.mean,
            "replica reads must cost messages: {} !> {}",
            r5.report.messages.mean,
            r1.report.messages.mean
        );
        assert!(r5.report.mesg_ratio.mean > r1.report.mesg_ratio.mean);
        // And the recovered answers are real: strictly more results.
        assert!(r5.report.results_returned > r1.report.results_returned);
    }
}
