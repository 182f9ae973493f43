//! The persisted baseline: every registered scheme × every named
//! workload, measured once and written to `BENCH_baseline.json` at the
//! workspace root.
//!
//! `armada-exp bench_baseline` runs the full scheme × workload grid through
//! [`ParallelDriver`](dht_api::ParallelDriver) at a fixed network size,
//! records the simulated metrics (mean/p99 delay, messages per query,
//! MesgRatio, …), and persists the grid as JSON so future PRs can diff
//! their numbers against a committed trajectory. Every value in the
//! artifact is a pure function of `(scheme, seed, config)`, which makes the
//! file a golden artifact: `bench_baseline --check` regenerates it and
//! compares it line for line. Nothing here reads a clock — wall time,
//! throughput and memory are measured by the `bench/` harness alone.
//!
//! Since the dynamics layer landed, the artifact also carries a **churn
//! section**: every dynamic scheme × every [`ChurnPlan`] catalog entry,
//! run epoch-driven through
//! [`run_epochs`](dht_api::ParallelDriver::run_epochs) with the per-epoch
//! recall/exactness/delay series persisted alongside the merged metrics. Schema v3 adds a **replication section**: the same
//! scheme × plan grid re-run at higher replication factors
//! (`successor-r` placement through the replication layer), with replica
//! recovery visible in the recall/message metrics and the per-epoch
//! repair traffic persisted next to the churn stats. Schema v4 adds a
//! **latency section**: every single-attribute scheme rebuilt under every
//! [`NetModel`](dht_api::NetModel) catalog entry from the same seed, so
//! hop metrics pair bit-for-bit across the model axis while the latency
//! columns show the virtual-millisecond cost surface — plus `delay_p95`
//! and `latency_mean` columns on the existing grids (whose v3 metric
//! values are unchanged: under the default `unit` model the cost layer is
//! an observer, never an actor). Schema v5 adds a **hostile section**:
//! every dynamic scheme re-run epoch-driven (frozen membership) under a
//! catalog of hostile-network specs (`lossy-p`, `lossy-p/r3`,
//! `split-brain`, `throttle` — see [`simnet::FaultPlan::named_hostile`]),
//! so the artifact pins recall under loss, the retry premium, the
//! partition timeline, and rate-limit latency pricing. Every v4 metric is
//! unchanged: the hostile grid builds *additional* suffixed schemes and
//! touches none of the existing cells. Schema v6 adds a **scaling
//! section**: four representative schemes ([`SCALING_SCHEMES`]) rebuilt at
//! each `N` in `config.scaling_ns` (`{10³, 10⁴, 10⁵}` at full scale), so
//! delay and message growth with `N` is committed as curves. Every v5
//! metric is again unchanged — the scaling grid builds additional
//! networks from its own seeds and touches none of the existing cells.
//! Schema v7 surfaces the median on the latency grid: every latency-section
//! row gains `delay_p50` and `latency_p50` was already present — the p50
//! was always computed by [`DriverReport`](dht_api::DriverReport)'s
//! summaries, v7 just writes it out. Every v6 metric value is bit-for-bit unchanged: v7 adds columns,
//! never touches an existing cell. Schema v8 changes no columns at all —
//! it marks the zero-allocation query hot path, and every simulated metric
//! is bit-for-bit identical to v7. Schema v9 drops the columns that read
//! the machine (wall-clock throughput on every row; build and publish
//! time, allocations per query and peak RSS on the scaling rows): every
//! value left is bit-for-bit its v8 value.
//!
//! Every section is the same measurement — one [`cell`] per row, one
//! [`Row`] per cell — so the module is the sections' nested loops (each
//! with its own seeding convention) over one loop body, one row type, and
//! one table and one JSON writer driven by a per-section column list.

use crate::output::{Column, Table};
use crate::row::{Row, Section};
use crate::{cell, dynamic_single_names, paper, standard_registry};
use dht_api::{ChurnPlan, WorkloadGen, CHURN_PLAN_NAMES, NET_MODEL_NAMES};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The schema tag written to (and expected in) `BENCH_baseline.json` —
/// bumped whenever the JSON shape changes; the CI golden job
/// (`armada-exp bench_baseline --check`) compares the whole artifact, tag
/// included.
pub const SCHEMA_VERSION: &str = "bench-baseline-v9";

/// Hostile-network specs measured in the hostile section: loss alone, the
/// same loss with a 3-attempt retry budget, the two-island partition, and
/// the token-bucket rate limit.
pub const HOSTILE_SPECS: [&str; 4] = ["lossy-p", "lossy-p/r3", "split-brain", "throttle"];

/// Schemes measured in the scaling section: one per substrate family —
/// FissionE/Kautz (`pira`), CAN (`dcf-can`), Chord (`pht-chord`), and the
/// skip graph. Scaling cells always use the paper's ObjectID length and a
/// fixed query count ([`SCALING_QUERIES`]) regardless of quick/full scale,
/// so a cell at a given `N` is the same cell in every run.
pub const SCALING_SCHEMES: [&str; 4] = ["pira", "dcf-can", "pht-chord", "skipgraph"];

/// Queries per scaling cell (kept small: the section tracks how delay and
/// messages grow with `N`; the main grid owns the tight quantiles).
pub const SCALING_QUERIES: usize = 200;

/// Single-attribute workloads measured in the baseline grid.
pub const SINGLE_WORKLOADS: [&str; 5] = ["uniform", "zipf-hot", "clustered", "wide-scan", "mixed"];

/// Multi-attribute workloads measured for the rectangle schemes.
pub const MULTI_WORKLOADS: [&str; 2] = ["rect-correlated", "mixed"];

/// Master seed of the artifact (simulated metrics are a pure function of
/// it and the configuration).
pub const SEED: u64 = 0xba5e;

/// Epochs per epoch-driven cell (the churn, replication and hostile
/// sections split `queries` evenly across them).
pub const EPOCHS: usize = 4;

/// Replication factors measured in the replication section (factor 1 is
/// the unreplicated cross-check against the churn section).
pub const REPLICATION_FACTORS: [usize; 2] = [1, 3];

/// Baseline run configuration: what differs between the committed scale
/// and `--quick`.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Network size every scheme is built at.
    pub n: usize,
    /// Queries per (scheme, workload) cell.
    pub queries: usize,
    /// Worker threads for the parallel driver.
    pub threads: usize,
    /// ObjectID length for Kautz-named schemes.
    pub object_id_len: usize,
    /// Network sizes measured in the scaling section (each
    /// [`SCALING_SCHEMES`] entry is rebuilt and measured at every size).
    pub scaling_ns: Vec<usize>,
}

impl BaselineConfig {
    /// The committed-baseline setup: `N = 1000`, the paper's 1000 queries
    /// per cell.
    pub fn full() -> Self {
        BaselineConfig {
            n: 1000,
            queries: 1000,
            threads: dht_api::default_threads(),
            object_id_len: paper::OBJECT_ID_LEN,
            scaling_ns: vec![1_000, 10_000, 100_000],
        }
    }

    /// A reduced setup for tests and `--quick` runs.
    pub fn quick() -> Self {
        BaselineConfig {
            n: 250,
            queries: 40,
            object_id_len: 32,
            scaling_ns: vec![100, 250],
            ..BaselineConfig::full()
        }
    }
}

/// A complete baseline run: configuration plus the measured rows.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// The configuration the grids ran under.
    pub config: BaselineConfig,
    /// Every measured cell, section by section in [`Section::ALL`] order.
    pub rows: Vec<Row>,
}

/// Runs the full artifact: every registered single-attribute scheme ×
/// [`SINGLE_WORKLOADS`], every multi-attribute scheme ×
/// [`MULTI_WORKLOADS`] on 2-attribute squares, then the latency, churn,
/// replication, hostile and scaling sections (see [`Section`]).
///
/// # Panics
///
/// Panics if a scheme fails to build or a query errs — fault-free queries
/// and cataloged plans never do, and a baseline with silently missing
/// cells would be worse than no baseline.
pub fn run(cfg: &BaselineConfig) -> BaselineReport {
    const NEVER_ERRS: &str = "baseline cells never error";
    let registry = standard_registry();
    let dynamic = dynamic_single_names();
    // Key columns hold JSON values: names quoted, counts bare.
    let text = |s: &str| format!("\"{s}\"");
    // Seeds are the master seed salted by a name: the *base* scheme name
    // for builds (so every stack over one scheme measures the identical
    // network and record load), the workload/plan/section for drivers.
    let salted = |salt: &str| SEED ^ dht_api::fnv1a(salt.as_bytes());
    let uniform = WorkloadGen::named("uniform", cell::DOMAIN).expect("cataloged");
    let mut rows = Vec::new();
    let mut push = |section, stack: &str, scheme: &str, keys, report| {
        let (stack, scheme) = (stack.to_string(), scheme.to_string());
        rows.push(Row { section, stack, scheme, keys, report });
    };

    for name in registry.single_names() {
        let scheme = cell::loaded(&registry, name, cfg.n, cfg.object_id_len, salted(name));
        for wl_name in SINGLE_WORKLOADS {
            let workload = WorkloadGen::named(wl_name, cell::DOMAIN).expect("cataloged");
            let driver = cell::driver(cfg.queries, salted(wl_name), cfg.threads);
            let report = driver.run(scheme.as_ref(), &workload).expect(NEVER_ERRS);
            let keys = vec![("shape", text("single")), ("workload", text(wl_name))];
            push(Section::Grid, name, name, keys, report);
        }
    }
    for name in registry.multi_names() {
        let seed = salted(name) ^ 0xd1;
        let scheme = cell::loaded_multi(&registry, name, cfg.n, cfg.object_id_len, seed);
        for wl_name in MULTI_WORKLOADS {
            let workload = WorkloadGen::named(wl_name, cell::RECT_DOMAINS[0]).expect("cataloged");
            let driver = cell::driver(cfg.queries, salted(wl_name), cfg.threads);
            let report = driver
                .run_multi(scheme.as_ref(), &cell::RECT_DOMAINS, &workload)
                .expect(NEVER_ERRS);
            let keys = vec![("shape", text("rect")), ("workload", text(wl_name))];
            push(Section::Grid, name, name, keys, report);
        }
    }

    // Latency: every stack `scheme@net` shares its scheme's seed, so hop
    // metrics pair bit-for-bit across the model axis and the `unit` row
    // reproduces the grid's uniform-workload hop numbers exactly.
    for name in registry.single_names() {
        for net in NET_MODEL_NAMES {
            let stack = format!("{name}@{net}");
            let scheme = cell::loaded(&registry, &stack, cfg.n, cfg.object_id_len, salted(name));
            let driver = cell::driver(cfg.queries, salted("uniform"), cfg.threads);
            let report = driver.run(scheme.as_ref(), &uniform).expect(NEVER_ERRS);
            push(Section::Latency, &stack, name, vec![("net", text(net))], report);
        }
    }

    // The three epoch-driven sections share one cell body: `queries` split
    // evenly across [`EPOCHS`] epochs of the uniform workload.
    let epoch_queries = (cfg.queries / EPOCHS).max(1);
    let epoch_cell = |stack: &str, base: &str, plan: &ChurnPlan, driver_salt: &str| {
        let mut scheme = cell::loaded(&registry, stack, cfg.n, cfg.object_id_len, salted(base));
        let policy =
            scheme.as_replicated().map_or_else(|| "none".to_string(), |c| c.policy().name());
        let driver = cell::driver(epoch_queries, salted(driver_salt), cfg.threads);
        let report = driver.run_epochs(scheme.as_mut(), &uniform, plan, EPOCHS).expect(NEVER_ERRS);
        (report, policy)
    };
    for name in &dynamic {
        for plan_name in CHURN_PLAN_NAMES {
            let plan = ChurnPlan::named(plan_name).expect("cataloged");
            let (report, _) = epoch_cell(name, name, &plan, plan_name);
            push(Section::Churn, name, name, vec![("plan", text(plan_name))], report);
        }
    }
    // Replication: the churn grid again as `scheme+r{factor}` (`+r1` is the
    // unreplicated scheme and must reproduce the churn section bit for bit
    // — the cross-check the quick tests pin).
    for name in &dynamic {
        for plan_name in CHURN_PLAN_NAMES {
            let plan = ChurnPlan::named(plan_name).expect("cataloged");
            for factor in REPLICATION_FACTORS {
                let stack = format!("{name}+r{factor}");
                let (report, policy) = epoch_cell(&stack, name, &plan, plan_name);
                let keys = vec![
                    ("plan", text(plan_name)),
                    ("factor", factor.to_string()),
                    ("policy", text(&policy)),
                ];
                push(Section::Replication, &stack, name, keys, report);
            }
        }
    }
    // Hostile: frozen membership (rate-0 plan), so partition specs traverse
    // their open/heal schedule while loss and rate-limit specs answer every
    // epoch under fire. One driver seed for the whole section: every spec
    // answers the *same* queries, so recall/message deltas across specs
    // (the retry premium, the partition dip) are attributable to the faults.
    let frozen = ChurnPlan::named("steady-churn").expect("cataloged").with_rate(0);
    for name in &dynamic {
        for spec in HOSTILE_SPECS {
            let stack = format!("{name}@{spec}");
            let (report, _) = epoch_cell(&stack, name, &frozen, "hostile");
            push(Section::Hostile, &stack, name, vec![("spec", text(spec))], report);
        }
    }

    // Scaling: the representative scheme set rebuilt at each size. Cells
    // use the paper's ObjectID length and a fixed query count even under
    // --quick, so a (scheme, n) cell is the same cell in every run.
    for &n in &cfg.scaling_ns {
        for name in SCALING_SCHEMES {
            let seed = salted(name) ^ n as u64;
            let scheme = cell::loaded(&registry, name, n, paper::OBJECT_ID_LEN, seed);
            let driver = cell::driver(SCALING_QUERIES, salted("scaling"), cfg.threads);
            let report = driver.run(scheme.as_ref(), &uniform).expect(NEVER_ERRS);
            push(Section::Scaling, name, name, vec![("n", n.to_string())], report);
        }
    }

    BaselineReport { config: cfg.clone(), rows }
}

impl BaselineReport {
    /// The rows of one section, in measurement order.
    pub fn section(&self, section: Section) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter(move |r| r.section == section)
    }

    /// Renders every row as a printable [`Table`]: stack, section label,
    /// the axis the section sweeps, and the seven headline metrics.
    pub fn to_table(&self) -> Table {
        let title = format!(
            "Bench baseline — N = {}, {} queries/cell, {} threads",
            self.config.n, self.config.queries, self.config.threads
        );
        let columns: [Column<Row>; 10] = [
            ("scheme", |r| r.stack.clone()),
            ("shape", |r| r.label_and_axis().0),
            ("workload", |r| r.label_and_axis().1),
            ("delay_mean", |r| format!("{:.2}", r.report.delay.mean)),
            ("delay_p95", |r| format!("{:.1}", r.report.delay.p95)),
            ("delay_p99", |r| format!("{:.1}", r.report.delay.p99)),
            ("latency_mean", |r| format!("{:.2}", r.report.latency.mean)),
            ("msgs/query", |r| format!("{:.1}", r.report.messages.mean)),
            ("mesg_ratio", |r| format!("{:.2}", r.report.mesg_ratio.mean)),
            ("exact", |r| format!("{:.2}", r.report.exact_rate)),
        ];
        Table::of(title, &columns, &self.rows)
    }

    /// Serializes the report as pretty-printed JSON (hand-rolled — the
    /// build environment has no serde): the schema tag, the configuration,
    /// then one array of row objects per [`Section`].
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let c = &self.config;
        // `threads` is deliberately omitted: it provably cannot affect any
        // simulated metric (see tests/parallel_determinism.rs) and is
        // machine-local. Everything written is a pure function of the seed.
        let quoted = |names: &[&str]| {
            names.iter().map(|m| format!("\"{m}\"")).collect::<Vec<_>>().join(", ")
        };
        let counts = |ns: &[usize]| ns.iter().map(usize::to_string).collect::<Vec<_>>().join(", ");
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"{SCHEMA_VERSION}\",");
        let _ = writeln!(
            s,
            "  \"config\": {{ \"n\": {}, \"queries\": {}, \"seed\": {}, \"object_id_len\": {}, \
             \"churn_epochs\": {}, \"replication_factors\": [{}], \"net_models\": [{}], \
             \"hostile_specs\": [{}], \"scaling_ns\": [{}] }},",
            c.n,
            c.queries,
            SEED,
            c.object_id_len,
            EPOCHS,
            counts(&REPLICATION_FACTORS),
            quoted(&NET_MODEL_NAMES),
            quoted(&HOSTILE_SPECS),
            counts(&c.scaling_ns)
        );
        for section in Section::ALL {
            let rows: Vec<String> = self.section(section).map(Row::to_json).collect();
            let _ = writeln!(s, "  \"{}\": [", section.name());
            for (i, row) in rows.iter().enumerate() {
                let comma = if i + 1 < rows.len() { "," } else { "" };
                let _ = writeln!(s, "    {row}{comma}");
            }
            let _ = writeln!(s, "  ]{}", if section == Section::Scaling { "" } else { "," });
        }
        let _ = writeln!(s, "}}");
        s
    }

    /// Compares this run with a `committed` baseline line for line: every
    /// column is simulated, so any difference is a moved metric or
    /// configuration. Subsumes a schema-tag check — the tag is one of the
    /// compared lines.
    ///
    /// # Errors
    ///
    /// The first differing line of the two artifacts.
    pub fn check(&self, committed: &str) -> Result<(), String> {
        crate::output::compare_lines(&self.to_json(), committed)
            .map_err(|e| format!("the regenerated baseline {e}"))
    }
}

/// Where the committed baseline lives: `BENCH_baseline.json` at the
/// workspace root.
pub fn baseline_path() -> PathBuf {
    crate::output::workspace_root().join("BENCH_baseline.json")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_api::{ChurnStats, DriverReport, EpochSummary, ReplicaRepair};
    use simnet::Summary;

    fn cell_of<'a>(report: &'a BaselineReport, section: Section, stack: &str) -> Vec<&'a Row> {
        report.section(section).filter(|r| r.stack == stack).collect()
    }

    #[test]
    fn quick_grid_covers_every_scheme_workload_churn_plan_and_factor() {
        let report = run(&BaselineConfig::quick());
        // Coverage counts come from the registry, not hand-kept lists.
        let registry = standard_registry();
        let grid: Vec<&Row> = report.section(Section::Grid).collect();
        let singles = grid.iter().filter(|r| r.key("shape") == "single").count();
        assert_eq!(singles, registry.single_names().len() * SINGLE_WORKLOADS.len());
        assert_eq!(grid.len() - singles, registry.multi_names().len() * MULTI_WORKLOADS.len());
        for r in &grid {
            assert_eq!(r.report.queries, report.config.queries);
            assert_eq!(r.report.exact_rate, 1.0, "{}/{} inexact", r.stack, r.key("workload"));
        }
        // Latency section: every single scheme × every cataloged net
        // model, with model-invariant hop metrics and a unit row that
        // reproduces the fault-free grid's uniform cell exactly.
        let latency: Vec<&Row> = report.section(Section::Latency).collect();
        assert_eq!(latency.len(), registry.single_names().len() * NET_MODEL_NAMES.len());
        for r in &latency {
            assert_eq!(r.report.exact_rate, 1.0, "{} inexact", r.stack);
            assert_eq!(r.stack, format!("{}@{}", r.scheme, r.key("net")));
            let unit = cell_of(&report, Section::Latency, &format!("{}@unit", r.scheme))[0];
            assert_eq!(r.report.delay, unit.report.delay, "{} hop drift", r.stack);
            assert_eq!(r.report.messages, unit.report.messages);
            assert_eq!(r.report.results_returned, unit.report.results_returned);
            match r.key("net") {
                // The unit row is the cross-check against the fault-free
                // grid's uniform cell: same build seed, same driver seed.
                "unit" => {
                    let cell = grid
                        .iter()
                        .find(|g| g.stack == r.scheme && g.key("workload") == "uniform")
                        .expect("uniform grid cell exists");
                    assert_eq!(r.report.delay, cell.report.delay, "{} unit != grid", r.scheme);
                    assert_eq!(r.report.latency, cell.report.latency);
                }
                "wan" => assert!(
                    r.report.latency.mean >= 30.0 * unit.report.latency.mean,
                    "{} latency too cheap",
                    r.stack
                ),
                _ => {}
            }
        }
        // Churn section: every dynamic scheme × every cataloged plan.
        let dynamic = dynamic_single_names();
        let churn: Vec<&Row> = report.section(Section::Churn).collect();
        assert_eq!(churn.len(), dynamic.len() * CHURN_PLAN_NAMES.len());
        for r in &churn {
            assert_eq!(r.report.epochs.len(), EPOCHS);
            assert!(r.report.epochs.last().unwrap().peers > 0);
            // Epoch 0 always queries the as-built, fully-exact network.
            assert_eq!(r.report.epochs[0].exact_rate, 1.0, "{}/{}", r.stack, r.key("plan"));
        }
        // Replication section: the churn grid × every factor.
        let replication: Vec<&Row> = report.section(Section::Replication).collect();
        assert_eq!(replication.len(), churn.len() * REPLICATION_FACTORS.len());
        let placed = |r: &Row| r.report.epochs.iter().map(|e| e.repair.placed).sum::<usize>();
        for r in &replication {
            assert_eq!(r.report.epochs.len(), EPOCHS);
            match r.key("factor") {
                "1" => {
                    assert_eq!(r.key("policy"), "none");
                    assert_eq!(placed(r), 0, "{}/{} unreplicated repair", r.stack, r.key("plan"));
                }
                factor => assert_eq!(r.key("policy"), format!("successor-{factor}")),
            }
        }
        // `+r1` rows rebuild the unreplicated scheme from the same seed
        // and must reproduce the churn section exactly.
        for c in &churn {
            let r1 = replication
                .iter()
                .find(|r| r.stack == format!("{}+r1", c.scheme) && r.key("plan") == c.key("plan"))
                .expect("factor-1 row exists");
            assert_eq!(r1.report.delay, c.report.delay, "{}/{}", c.scheme, c.key("plan"));
            assert_eq!(r1.report.results_returned, c.report.results_returned);
            assert_eq!(
                r1.report.epochs.last().unwrap().peers,
                c.report.epochs.last().unwrap().peers
            );
        }
        // Hostile section: every dynamic scheme × every spec.
        assert_eq!(report.section(Section::Hostile).count(), dynamic.len() * HOSTILE_SPECS.len());
        for r in report.section(Section::Hostile) {
            assert_eq!(r.report.epochs.len(), EPOCHS);
            assert!(r.report.recall.mean <= 1.0 + 1e-12);
        }
        for name in &dynamic {
            let cell = |spec: &str| {
                let rows = cell_of(&report, Section::Hostile, &format!("{name}@{spec}"));
                rows.first().copied().unwrap_or_else(|| panic!("{name}@{spec} missing"))
            };
            // Loss costs recall; the 3-attempt retry budget wins some back
            // and pays for it in messages.
            let r1 = cell("lossy-p");
            let r3 = cell("lossy-p/r3");
            assert!(r1.report.recall.mean < 1.0, "{name}@lossy-p unscathed");
            assert!(r3.report.recall.mean >= r1.report.recall.mean, "{name} retries lost recall");
            assert!(r3.report.messages.mean > r1.report.messages.mean, "{name} free retries");
            // split-brain opens at epoch 1: epoch 0 is fault-free and the
            // open interval visibly dips.
            let sb = cell("split-brain");
            assert_eq!(sb.report.epochs[0].recall_mean, 1.0, "{name} pre-split");
            assert!(sb.report.epochs[1].recall_mean < 1.0, "{name} split epoch unscathed");
            // throttle prices latency, never loses answers.
            let th = cell("throttle");
            assert_eq!(th.report.recall.mean, 1.0, "{name}@throttle lost answers");
            assert_eq!(th.report.exact_rate, 1.0, "{name}@throttle inexact");
        }
        // Scaling section: every scaling scheme × every configured size,
        // exact answers and a fixed query count at every N.
        let scaling: Vec<&Row> = report.section(Section::Scaling).collect();
        assert_eq!(scaling.len(), report.config.scaling_ns.len() * SCALING_SCHEMES.len());
        for r in &scaling {
            let tag = format!("{} n={}", r.stack, r.key("n"));
            assert_eq!(r.report.queries, SCALING_QUERIES, "{tag}");
            assert_eq!(r.report.exact_rate, 1.0, "{tag} inexact");
        }
        for name in SCALING_SCHEMES {
            for &n in &report.config.scaling_ns {
                let found = scaling.iter().any(|r| r.stack == name && r.key("n") == n.to_string());
                assert!(found, "scaling cell {name} n={n} missing");
            }
        }

        // JSON sanity: parses at the bracket level and names every scheme.
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for name in registry.single_names().iter().chain(registry.multi_names().iter()) {
            assert!(json.contains(&format!("\"scheme\": \"{name}\"")), "{name} missing");
        }
        assert!(json.contains(&format!("\"schema\": \"{SCHEMA_VERSION}\"")));
        for section in Section::ALL {
            assert!(json.contains(&format!("\"{}\": [", section.name())));
        }
        for spec in HOSTILE_SPECS {
            assert!(json.contains(&format!("\"spec\": \"{spec}\"")), "{spec} missing");
        }
        for net in NET_MODEL_NAMES {
            assert!(json.contains(&format!("\"net\": \"{net}\"")), "{net} missing");
        }
        for plan in CHURN_PLAN_NAMES {
            assert!(json.contains(&format!("\"plan\": \"{plan}\"")), "{plan} missing");
        }
        // The table mirrors every grid, and the run matches itself.
        assert_eq!(report.to_table().rows.len(), report.rows.len());
        assert_eq!(report.check(&json), Ok(()));
    }

    #[test]
    fn simulated_metrics_are_seed_deterministic() {
        let cfg = BaselineConfig {
            queries: 15,
            n: 150,
            scaling_ns: vec![120],
            ..BaselineConfig::quick()
        };
        let (a, b) = (run(&cfg), run(&cfg));
        assert_eq!(a.rows.len(), b.rows.len());
        assert_eq!(a.check(&b.to_json()), Ok(()));
        // And a different configuration is a different artifact, reported
        // at the first line that moved.
        let other = run(&BaselineConfig { queries: 16, ..cfg });
        let e = a.check(&other.to_json()).unwrap_err();
        assert!(e.contains("line 3") && e.contains("\"queries\": 16"), "{e}");
    }

    fn summary(base: f64) -> Summary {
        Summary {
            count: 3,
            mean: base + 0.5,
            min: base,
            max: base + 4.0,
            p50: base + 1.0,
            p95: base + 2.0,
            p99: base + 3.0,
            stddev: 0.25,
        }
    }

    /// A report with a non-finite float in two columns and the given
    /// epoch series.
    fn crafted(epochs: Vec<EpochSummary>) -> DriverReport {
        DriverReport {
            scheme: "pira".into(),
            queries: 3,
            delay: summary(1.0),
            latency: Summary { mean: f64::NAN, max: f64::INFINITY, ..summary(10.0) },
            messages: summary(20.0),
            dest_peers: summary(4.0),
            mesg_ratio: summary(1.125),
            incre_ratio: summary(0.0625),
            recall: summary(0.5),
            exact_rate: 2.0 / 3.0,
            results_returned: 7,
            epochs,
            ..DriverReport::default()
        }
    }

    fn two_epochs() -> Vec<EpochSummary> {
        let first = EpochSummary {
            epoch: 0,
            peers: 40,
            delay_mean: 1.5,
            latency_mean: 1.5,
            exact_rate: 1.0,
            recall_mean: 1.0,
            results_returned: 4,
            ..EpochSummary::default()
        };
        let second = EpochSummary {
            epoch: 1,
            peers: 38,
            churn: ChurnStats { joins: 1, leaves: 2, crashes: 3, ..ChurnStats::default() },
            repair: ReplicaRepair { placed: 5, dropped: 1, messages: 11, latency: 2 },
            delay_mean: 2.25,
            latency_mean: f64::NAN,
            exact_rate: 0.5,
            recall_mean: 0.75,
            results_returned: 3,
        };
        vec![first, second]
    }

    /// The column-list writers reproduce, byte for byte, what the six
    /// hand-written per-section format strings they replaced produced for
    /// the same rows (fixtures generated by those writers, less the
    /// machine columns a later schema dropped): non-finite floats, an
    /// empty epoch series.
    #[test]
    fn column_list_writers_reproduce_the_hand_written_formats() {
        let text = |s: &str| format!("\"{s}\"");
        let row = |section, stack: &str, scheme: &str, keys, epochs| Row {
            section,
            stack: stack.into(),
            scheme: scheme.into(),
            keys,
            report: crafted(epochs),
        };
        let plan = || ("plan", text("massacre"));
        let rows = vec![
            row(
                Section::Grid,
                "pira",
                "pira",
                vec![("shape", text("single")), ("workload", text("uniform"))],
                vec![],
            ),
            row(
                Section::Grid,
                "mira",
                "mira",
                vec![("shape", text("rect")), ("workload", text("mixed"))],
                vec![],
            ),
            row(Section::Latency, "pira@wan", "pira", vec![("net", text("wan"))], vec![]),
            row(Section::Churn, "pira", "pira", vec![plan()], two_epochs()),
            row(
                Section::Replication,
                "pira+r3",
                "pira",
                vec![plan(), ("factor", "3".to_string()), ("policy", text("successor-3"))],
                two_epochs(),
            ),
            row(
                Section::Hostile,
                "pira@lossy-p/r3",
                "pira",
                vec![("spec", text("lossy-p/r3"))],
                vec![],
            ),
            row(Section::Scaling, "pira", "pira", vec![("n", "1000".to_string())], vec![]),
            row(Section::Scaling, "dcf-can", "dcf-can", vec![("n", "250".to_string())], vec![]),
        ];
        let config = BaselineConfig { threads: 1, ..BaselineConfig::quick() };
        let report = BaselineReport { config, rows };
        assert_eq!(report.to_json(), include_str!("../tests/golden/baseline_rows.json"));
        assert_eq!(
            report.to_table().to_markdown(),
            include_str!("../tests/golden/baseline_rows.md")
        );
    }
}
