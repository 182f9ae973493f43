//! R3 — hostile networks: recall through a partition's lifetime, and the
//! message premium retries pay to win recall back under loss.
//!
//! The paper evaluates delay-bounded range queries on a *well-behaved*
//! overlay; this extension measures the two failure modes the DHT
//! literature cares about most. Both experiments address schemes through
//! the registry's hostile suffixes (`"pira@split-brain"`,
//! `"pira@lossy-p/r3"`), so every fault verdict is the same pure hash the
//! test battery pins — the tables here are bitwise identical for any
//! worker thread count.
//!
//! * **Partition timeline** — every dynamic scheme runs a zero-churn
//!   epoch series under a partition plan (`split-brain`, `island-3`)
//!   crossed with net models (`unit`, `cluster` — under `cluster` the
//!   split follows the transit-stub topology). The per-epoch recall
//!   series shows 1.0 before the split opens, a dip while it is open,
//!   and 1.0 again from the first healed epoch — partitions are loud but
//!   leave no scars on a static membership.
//! * **Retry premium** — every dynamic scheme answers the same batch
//!   under `lossy-p` (10 % per-edge Bernoulli loss) at retry budgets
//!   r1/r2/r3. Recall and messages both rise monotonically in the
//!   attempt budget: retries buy recall and the table prices exactly
//!   what they cost.

use crate::cli::{Filters, Tables};
use crate::output::{Column, Table};
use crate::{cell, standard_registry, Scale};
use dht_api::{ChurnPlan, DriverReport, WorkloadGen};
use simnet::FaultPlan;

/// Partition plans swept by default (both shapes in the hostile catalog).
pub const PARTITION_PLANS: [&str; 2] = ["split-brain", "island-3"];

/// Net models the partition is crossed with; under `cluster` the split
/// follows the transit-stub cluster groups instead of a node-id hash.
pub const PARTITION_NETS: [&str; 2] = ["unit", "cluster"];

/// Retry budgets swept against `lossy-p` (suffix spellings `r1`..`r3`).
pub const RETRY_ATTEMPTS: [u32; 3] = [1, 2, 3];

/// Epochs per timeline run — enough to see every default plan open *and*
/// heal with at least one healed epoch after (`split-brain` heals at 3,
/// `island-3` at 2).
pub const TIMELINE_EPOCHS: usize = 5;

/// Driver seed for both experiments (distinct from the churn sweep's).
const SWEEP_SEED: u64 = 0x9a17;

/// One scheme × partition plan × net model timeline measurement.
#[derive(Debug, Clone)]
pub struct PartitionPoint {
    /// Registry name of the base scheme (no suffixes).
    pub scheme: String,
    /// Partition plan name.
    pub plan: String,
    /// Net model name.
    pub net: String,
    /// First epoch the split is open.
    pub open_epoch: u64,
    /// First epoch the split is healed again.
    pub heal_epoch: u64,
    /// The merged epoch-driven report (its per-epoch series carries the
    /// recall and exact-answer timeline).
    pub report: DriverReport,
}

impl PartitionPoint {
    /// Mean of the per-epoch recall means over `epochs` (1.0 over none).
    fn recall(&self, epochs: std::ops::Range<usize>) -> f64 {
        let series = &self.report.epochs[epochs];
        if series.is_empty() {
            return 1.0;
        }
        series.iter().map(|e| e.recall_mean).sum::<f64>() / series.len() as f64
    }

    /// Mean recall over the epochs the split is open.
    pub fn split_recall(&self) -> f64 {
        self.recall(self.open_epoch as usize..self.heal_epoch as usize)
    }

    /// Mean recall over the epochs at or after the heal.
    pub fn healed_recall(&self) -> f64 {
        self.recall(self.heal_epoch as usize..self.report.epochs.len())
    }

    /// Mean recall over the epochs before the split opens (`None` for
    /// plans that open at epoch 0).
    pub fn pre_split_recall(&self) -> Option<f64> {
        (self.open_epoch > 0).then(|| self.recall(0..self.open_epoch as usize))
    }
}

/// One scheme × retry-budget measurement under `lossy-p`.
#[derive(Debug, Clone)]
pub struct RetryPoint {
    /// Registry name of the base scheme (no suffixes).
    pub scheme: String,
    /// Retry budget (total attempts; 1 = no retries).
    pub attempts: u32,
    /// The batch report under `{scheme}@lossy-p/r{attempts}`.
    pub report: DriverReport,
}

/// Network size of both experiments.
fn network_size(scale: Scale) -> usize {
    match scale {
        Scale::Full => 500,
        Scale::Quick => 150,
    }
}

/// Build seed from the *base* scheme name, so every suffixed variant of a
/// scheme measures the identical network and record load — the comparisons
/// across plans and retry budgets are same-network.
fn build_seed(base: &str) -> u64 {
    SWEEP_SEED ^ dht_api::fnv1a(base.as_bytes())
}

/// The partition a `--plans` name opens, if it is a partition plan.
fn partition_of(plan: &str) -> Option<simnet::PartitionPlan> {
    FaultPlan::named_hostile(plan).and_then(|p| p.partition().copied())
}

/// Runs the partition timeline — by default every dynamic scheme ×
/// [`PARTITION_PLANS`] × [`PARTITION_NETS`] (`armada-exp partition_sweep
/// --schemes`, `--plans`, `--nets`, `--threads` narrow it).
///
/// # Errors
///
/// A `--schemes` name outside the dynamic schemes, or a `--plans` name
/// that is not a partition plan.
///
/// # Panics
///
/// Panics if a dynamic scheme fails to build or errors on a query — the
/// sweep is meaningless with missing cells.
pub fn run_timeline_points(scale: Scale, filters: &Filters) -> Result<Vec<PartitionPoint>, String> {
    let schemes = filters.schemes(&crate::dynamic_single_names())?;
    let catalog = ["split-brain", "island-K"];
    let plans = filters.plans(&PARTITION_PLANS, &catalog, |p| partition_of(p).is_some())?;
    let nets = filters.nets(&PARTITION_NETS)?;
    let registry = standard_registry();
    let n = network_size(scale);
    let queries_per_epoch = (scale.queries() / TIMELINE_EPOCHS).max(10);
    let workload = WorkloadGen::named("uniform", cell::DOMAIN).expect("cataloged");
    let driver = cell::driver(queries_per_epoch, SWEEP_SEED, filters.threads);
    // Queries never change membership and the rate-0 plan applies no
    // events: the timeline isolates the partition itself.
    let frozen = ChurnPlan::named("steady-churn").expect("cataloged").with_rate(0);

    let mut points = Vec::new();
    for name in &schemes {
        for plan_name in &plans {
            let partition = partition_of(plan_name).expect("checked above");
            for net in &nets {
                let stack = format!("{name}@{net}@{plan_name}");
                let mut scheme = cell::loaded(&registry, &stack, n, 32, build_seed(name));
                let report = driver
                    .run_epochs(scheme.as_mut(), &workload, &frozen, TIMELINE_EPOCHS)
                    .expect("epoch run");
                points.push(PartitionPoint {
                    scheme: name.clone(),
                    plan: plan_name.clone(),
                    net: net.clone(),
                    open_epoch: partition.open_epoch(),
                    heal_epoch: partition.heal_epoch(),
                    report,
                });
            }
        }
    }
    Ok(points)
}

/// Runs the retry-premium experiment: every selected scheme at each retry
/// budget against `lossy-p`, in attempt order per scheme. Errors on a
/// `--schemes` name outside the dynamic schemes; panics as
/// [`run_timeline_points`].
pub fn run_retry_points(scale: Scale, filters: &Filters) -> Result<Vec<RetryPoint>, String> {
    let schemes = filters.schemes(&crate::dynamic_single_names())?;
    let registry = standard_registry();
    let workload = WorkloadGen::named("uniform", cell::DOMAIN).expect("cataloged");
    let driver = cell::driver(scale.queries(), SWEEP_SEED, filters.threads);

    let mut points = Vec::new();
    for name in &schemes {
        for &attempts in &RETRY_ATTEMPTS {
            let stack = format!("{name}@lossy-p/r{attempts}");
            let scheme = cell::loaded(&registry, &stack, network_size(scale), 32, build_seed(name));
            let report = driver.run(scheme.as_ref(), &workload).expect("batch run");
            points.push(RetryPoint { scheme: name.clone(), attempts, report });
        }
    }
    Ok(points)
}

/// Runs both experiments and renders their tables: the partition timeline
/// (`partition_sweep`) and the retry premium (`partition_retry_premium`).
/// Errors and panics as [`run_timeline_points`].
pub fn run(scale: Scale, filters: &Filters) -> Result<Tables, String> {
    let timeline: [Column<PartitionPoint>; 8] = [
        ("scheme", |p| p.scheme.clone()),
        ("plan", |p| p.plan.clone()),
        ("net", |p| p.net.clone()),
        ("open..heal", |p| format!("{}..{}", p.open_epoch, p.heal_epoch)),
        ("pre recall", |p| {
            p.pre_split_recall().map_or_else(|| "—".to_string(), |r| format!("{r:.3}"))
        }),
        ("split recall", |p| format!("{:.3}", p.split_recall())),
        ("healed recall", |p| format!("{:.3}", p.healed_recall())),
        ("avg delay", |p| format!("{:.2}", p.report.delay.mean)),
    ];
    let retry: [Column<RetryPoint>; 6] = [
        ("scheme", |p| p.scheme.clone()),
        ("attempts", |p| p.attempts.to_string()),
        ("peer recall", |p| format!("{:.3}", p.report.recall.mean)),
        ("exact rate", |p| format!("{:.3}", p.report.exact_rate)),
        ("avg messages", |p| format!("{:.2}", p.report.messages.mean)),
        ("avg latency", |p| format!("{:.2}", p.report.latency.mean)),
    ];
    let (a, b) = (
        "R3a — recall through a partition (epoch-driven)",
        "R3b — retry premium under lossy-p (10% per-edge loss)",
    );
    Ok(vec![
        ("partition_sweep", Table::of(a, &timeline, &run_timeline_points(scale, filters)?)),
        ("partition_retry_premium", Table::of(b, &retry, &run_retry_points(scale, filters)?)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_dips_during_the_split_and_heals_within_one_epoch() {
        let points = run_timeline_points(Scale::Quick, &Filters::default()).unwrap();
        let schemes = crate::dynamic_single_names();
        assert_eq!(points.len(), schemes.len() * PARTITION_PLANS.len() * PARTITION_NETS.len());
        for p in &points {
            let tag = format!("{}@{}@{}", p.scheme, p.net, p.plan);
            assert_eq!(p.report.epochs.len(), TIMELINE_EPOCHS, "{tag}");
            // Before the split opens the network is fault-free.
            for e in 0..p.open_epoch as usize {
                assert_eq!(p.report.epochs[e].recall_mean, 1.0, "{tag} epoch {e} pre-split");
                assert_eq!(p.report.epochs[e].exact_rate, 1.0, "{tag} epoch {e} pre-split");
            }
            // The split visibly costs recall while it is open...
            assert!(p.split_recall() < 0.9999, "{tag}: split recall {}", p.split_recall());
            // ...and recall is perfect again from the very first healed
            // epoch — no scars on a static membership.
            for e in p.heal_epoch as usize..TIMELINE_EPOCHS {
                assert_eq!(p.report.epochs[e].recall_mean, 1.0, "{tag} epoch {e} post-heal");
                assert_eq!(p.report.epochs[e].exact_rate, 1.0, "{tag} epoch {e} post-heal");
            }
        }
    }

    #[test]
    fn retries_buy_recall_and_pay_in_messages_monotonically() {
        let points = run_retry_points(Scale::Quick, &Filters::default()).unwrap();
        let schemes = crate::dynamic_single_names();
        assert_eq!(points.len(), schemes.len() * RETRY_ATTEMPTS.len());
        for chunk in points.chunks(RETRY_ATTEMPTS.len()) {
            let name = &chunk[0].scheme;
            // 10% per-edge loss costs every scheme something at r1.
            assert!(chunk[0].report.recall.mean < 1.0, "{name} r1 unscathed by lossy-p");
            for pair in chunk.windows(2) {
                let (lo, hi) = (&pair[0], &pair[1]);
                assert_eq!(lo.scheme, hi.scheme);
                assert!(
                    hi.report.recall.mean >= lo.report.recall.mean - 1e-12,
                    "{name}: recall not monotone r{} -> r{}",
                    lo.attempts,
                    hi.attempts
                );
                assert!(
                    hi.report.messages.mean >= lo.report.messages.mean - 1e-12,
                    "{name}: messages not monotone r{} -> r{}",
                    lo.attempts,
                    hi.attempts
                );
            }
            // Retries actually fired: the r3 budget sent more messages
            // than the single attempt it extends.
            assert!(
                chunk[2].report.messages.mean > chunk[0].report.messages.mean,
                "{name}: no retry premium"
            );
            assert!(
                chunk[2].report.recall.mean > chunk[0].report.recall.mean,
                "{name}: retries bought no recall"
            );
        }
    }

    #[test]
    fn filters_narrow_the_sweep() {
        let filters = Filters {
            schemes: Some(vec!["pira".into()]),
            plans: Some(vec!["split-brain".into()]),
            nets: Some(vec!["unit".into()]),
            threads: 2,
        };
        let points = run_timeline_points(Scale::Quick, &filters).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].plan, "split-brain");
        assert_eq!((points[0].open_epoch, points[0].heal_epoch), (1, 3));
        assert_eq!(points[0].pre_split_recall(), Some(1.0));
        // `lossy-p` is a hostile plan but opens no partition: refused by name.
        let lossy = Filters { plans: Some(vec!["lossy-p".into()]), ..filters.clone() };
        let e = run_timeline_points(Scale::Quick, &lossy).unwrap_err();
        assert!(e.contains("\"lossy-p\"") && e.contains("island-K"), "{e}");
        let typo = Filters { schemes: Some(vec!["no-such-scheme".into()]), ..filters };
        assert!(run_retry_points(Scale::Quick, &typo).is_err());
    }
}
