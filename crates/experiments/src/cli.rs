//! The library half of the `armada-exp` binary: the flag grammar, the
//! sweeps' shared [`Filters`], and the dispatch table from subcommand name
//! to experiment.
//!
//! Everything here returns `Result<_, String>` — usage errors travel to
//! the binary's `main`, the only place the process exits.

use crate::output::Table;
use crate::{
    ablations, churn_sweep, faults, figures, latency_sweep, mira_eval, partition_sweep,
    replication_sweep, substrate, table1, topk_eval, Scale,
};

/// The value of `--name value` (or `--name=value`) in `args`, if present;
/// a flag given last, or followed by another flag, is an error.
pub fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let (long, inline) = (format!("--{name}"), format!("--{name}="));
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&inline) {
            return Ok(Some(v));
        }
        if *a == long {
            return match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => Ok(Some(v)),
                _ => Err(format!("{long} wants a value")),
            };
        }
    }
    Ok(None)
}

/// Whether the bare switch `--name` is present.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a.strip_prefix("--") == Some(name))
}

/// A comma-separated `--name a,b,c` list (errors as [`flag`]).
pub fn flag_list(args: &[String], name: &str) -> Result<Option<Vec<String>>, String> {
    Ok(flag(args, name)?
        .map(|v| v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect()))
}

/// The names of the `--flags` in `args`, without their `=value`.
fn flag_names(args: &[String]) -> impl Iterator<Item = &str> {
    args.iter()
        .filter_map(|a| a.strip_prefix("--"))
        .map(|body| body.split('=').next().unwrap_or(body))
}

/// Rejects every `--flag` in `args` that is not in `known`, so a typo or a
/// retired spelling is an error instead of a silently unfiltered run.
pub fn reject_unknown_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    if let Some(name) = flag_names(args).find(|name| !known.contains(name)) {
        let known: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
        return Err(format!("unknown flag --{name} (this command takes: {})", known.join(", ")));
    }
    Ok(())
}

/// The sweeps' shared selection: which schemes, plans and net models to
/// run, on how many worker threads. `None` means the experiment's default
/// (its committed configuration); the report of any cell is the same for
/// every thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filters {
    /// `--schemes a,b`: registry names of the schemes to sweep.
    pub schemes: Option<Vec<String>>,
    /// `--plans a,b`: churn (or, for `partition_sweep`, partition) plans.
    pub plans: Option<Vec<String>>,
    /// `--nets a,b`: net models from the [`dht_api::NetModel`] catalog.
    pub nets: Option<Vec<String>>,
    /// `--threads N`: worker threads for the parallel driver.
    pub threads: usize,
}

impl Default for Filters {
    fn default() -> Self {
        Filters { schemes: None, plans: None, nets: None, threads: dht_api::default_threads() }
    }
}

impl Filters {
    /// The four filter flags.
    pub const FLAGS: [&'static str; 4] = ["schemes", "plans", "nets", "threads"];

    /// Refuses a filter flag beside `--check`: a sweep's committed CSVs are
    /// its whole default configuration, so a filtered run has nothing to be
    /// compared with.
    pub fn reject_with_check(args: &[String]) -> Result<(), String> {
        match flag_names(args).find(|name| Self::FLAGS.contains(name)) {
            Some(name) => Err(format!("--check runs the committed configuration: drop --{name}")),
            None => Ok(()),
        }
    }

    /// Parses the four filter flags out of `args` (other flags are the
    /// caller's). Net models have one catalog and are checked here, as is
    /// `--threads` (a positive integer); schemes and plans are checked
    /// against the running experiment's catalog by
    /// [`schemes`](Self::schemes) and [`plans`](Self::plans).
    pub fn parse(args: &[String]) -> Result<Filters, String> {
        let mut filters = Filters {
            schemes: flag_list(args, "schemes")?,
            plans: flag_list(args, "plans")?,
            nets: flag_list(args, "nets")?,
            ..Filters::default()
        };
        filters.nets(&[])?;
        if let Some(raw) = flag(args, "threads")? {
            filters.threads = raw
                .parse()
                .ok()
                .filter(|&t| t > 0)
                .ok_or_else(|| format!("--threads wants a positive integer, got {raw:?}"))?;
        }
        Ok(filters)
    }

    /// The schemes to sweep: all of `catalog` unless `--schemes` chose
    /// (errors as [`plans`](Self::plans)).
    pub fn schemes(&self, catalog: &[String]) -> Result<Vec<String>, String> {
        let known = |name: &str| catalog.iter().any(|c| c == name);
        pick("--schemes", &self.schemes, catalog, catalog, known)
    }

    /// The plans to sweep: `default` unless `--plans` chose, in the order
    /// given. `known` decides membership (partition plans are a grammar,
    /// `island-K`, not a list). A chosen name `known` refuses, or a filter
    /// that selects nothing, is an error that prints `catalog`.
    pub fn plans(
        &self,
        default: &[&str],
        catalog: &[&str],
        known: impl Fn(&str) -> bool,
    ) -> Result<Vec<String>, String> {
        pick("--plans", &self.plans, &strings(default), &strings(catalog), known)
    }

    /// The net models to sweep: `default` unless `--nets` chose (errors
    /// as [`plans`](Self::plans), against the net-model catalog).
    pub fn nets(&self, default: &[&str]) -> Result<Vec<String>, String> {
        let known = |name: &str| dht_api::NetModel::named(name).is_some();
        pick("--nets", &self.nets, &strings(default), &strings(&dht_api::NET_MODEL_NAMES), known)
    }
}

fn strings(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// What one filter selects: `default` when the flag was not given, else
/// the names it chose, each checked by `known`.
fn pick(
    flag: &str,
    chosen: &Option<Vec<String>>,
    default: &[String],
    catalog: &[String],
    known: impl Fn(&str) -> bool,
) -> Result<Vec<String>, String> {
    let Some(chosen) = chosen else { return Ok(default.to_vec()) };
    if let Some(bad) = chosen.iter().find(|name| !known(name)) {
        return Err(format!("unknown name {bad:?} in {flag} (catalog: {})", catalog.join(", ")));
    }
    if chosen.is_empty() {
        return Err(format!("{flag} selects nothing (catalog: {})", catalog.join(", ")));
    }
    Ok(chosen.clone())
}

/// The tables one experiment run yields, each with the name its CSV is
/// written under.
pub type Tables = Vec<(&'static str, Table)>;

/// How a subcommand produces its tables.
pub enum Run {
    /// One of the twelve paper artifacts: a function of the scale alone,
    /// written under the subcommand's name.
    Artifact(fn(Scale) -> Table),
    /// A filterable sweep (ours), naming its own tables.
    Sweep(fn(Scale, &Filters) -> Result<Tables, String>),
}

/// `armada-exp`'s dispatch table: every table-producing subcommand, under
/// the name its binary had. `all_experiments` runs every entry in this
/// order, sweeps in their default configuration; `bench_baseline` and
/// `trace_explain` are the two subcommands that yield more than tables and
/// live in the binary.
pub const EXPERIMENTS: [(&str, Run); 16] = [
    ("fissione_props", Run::Artifact(substrate::run)),
    ("table1", Run::Artifact(table1::run)),
    ("fig5", Run::Artifact(figures::fig5::run)),
    ("fig6", Run::Artifact(figures::fig6::run)),
    ("fig7", Run::Artifact(figures::fig7::run)),
    ("fig8", Run::Artifact(figures::fig8::run)),
    ("mira_bounds", Run::Artifact(mira_eval::run)),
    ("topk_eval", Run::Artifact(topk_eval::run)),
    ("ablation_flood", Run::Artifact(ablations::flood::run)),
    ("ablation_balance", Run::Artifact(ablations::balance::run)),
    ("ablation_pht", Run::Artifact(ablations::pht_substrate::run)),
    ("fault_tolerance", Run::Artifact(faults::run)),
    ("churn_sweep", Run::Sweep(churn_sweep::run)),
    ("replication_sweep", Run::Sweep(replication_sweep::run)),
    ("latency_sweep", Run::Sweep(latency_sweep::run)),
    ("partition_sweep", Run::Sweep(partition_sweep::run)),
];

/// Runs the table-producing subcommand `name`; an unknown name is an
/// error that lists the table, as are the sweep's own filter errors.
pub fn run(name: &str, scale: Scale, filters: &Filters) -> Result<Tables, String> {
    let (name, run) = EXPERIMENTS.iter().find(|(n, _)| *n == name).ok_or_else(|| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        format!("unknown experiment {name:?} (have: {})", names.join(", "))
    })?;
    match run {
        Run::Artifact(f) => Ok(vec![(*name, f(scale))]),
        Run::Sweep(f) => f(scale, filters),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn names(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_flag_parses_in_both_spellings() {
        let f = Filters::parse(&args(
            "--quick --schemes pira,seqwalk --plans=massacre --nets wan --threads=3",
        ))
        .unwrap();
        assert_eq!(f.schemes, Some(names(&["pira", "seqwalk"])));
        assert_eq!(f.plans, Some(names(&["massacre"])));
        assert_eq!(f.nets, Some(names(&["wan"])));
        assert_eq!(f.threads, 3);
        assert_eq!(Filters::parse(&args("--quick")).unwrap(), Filters::default());
        let inline = Filters::parse(&args("--schemes=pira --nets=wan,unit --threads 1")).unwrap();
        assert_eq!(inline.schemes, Some(names(&["pira"])));
        assert_eq!(inline.nets, Some(names(&["wan", "unit"])));
        assert_eq!(inline.threads, 1);
    }

    #[test]
    fn malformed_flags_are_errors() {
        for bad in ["--threads 0", "--threads four", "--threads", "--schemes", "--plans --quick"] {
            assert!(Filters::parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
        let e = Filters::parse(&args("--nets wan,atlantis")).unwrap_err();
        assert!(e.contains("\"atlantis\"") && e.contains("straggler"), "{e}");
        // The retired spelling is refused, not ignored.
        let known = ["quick", "schemes", "plans", "nets", "threads"];
        let e = reject_unknown_flags(&args("--quick --net wan"), &known).unwrap_err();
        assert!(e.contains("--net ") && e.contains("--nets"), "{e}");
        assert!(reject_unknown_flags(&args("--quick --nets=wan --threads 2"), &known).is_ok());
        // `--check` runs a sweep's committed configuration, unfiltered.
        assert!(Filters::reject_with_check(&args("--quick --check")).is_ok());
        for (filter, name) in [
            ("--schemes pira", "--schemes"),
            ("--plans=massacre", "--plans"),
            ("--nets wan", "--nets"),
            ("--threads 1", "--threads"),
        ] {
            let e = Filters::reject_with_check(&args(&format!("--quick --check {filter}")));
            assert!(e.is_err_and(|e| e.ends_with(name)), "{filter}");
        }
    }

    #[test]
    fn names_outside_the_catalog_are_errors_that_print_it() {
        let catalog = names(&["dcf-can", "pira", "seqwalk"]);
        let f = Filters { schemes: Some(names(&["seqwalk", "pira"])), ..Filters::default() };
        assert_eq!(f.schemes(&catalog).unwrap(), names(&["seqwalk", "pira"]), "given order");
        assert_eq!(Filters::default().schemes(&catalog).unwrap(), catalog);
        let typo = Filters { schemes: Some(names(&["pira", "typo"])), ..Filters::default() };
        let e = typo.schemes(&catalog).unwrap_err();
        assert!(e.contains("\"typo\"") && e.contains("dcf-can, pira, seqwalk"), "{e}");

        let known = |p: &str| dht_api::ChurnPlan::named(p).is_ok();
        let plans = |f: &Filters| f.plans(&["massacre"], &dht_api::CHURN_PLAN_NAMES, known);
        assert_eq!(plans(&Filters::default()).unwrap(), names(&["massacre"]));
        let two = Filters { plans: Some(names(&["join-storm", "massacre"])), ..Filters::default() };
        assert_eq!(plans(&two).unwrap(), names(&["join-storm", "massacre"]), "given order");
        let bad = Filters { plans: Some(names(&["armageddon"])), ..Filters::default() };
        let e = plans(&bad).unwrap_err();
        assert!(e.contains("\"armageddon\"") && e.contains("steady-churn"), "{e}");

        assert_eq!(
            Filters::default().nets(&["unit", "cluster"]).unwrap(),
            names(&["unit", "cluster"])
        );
        let bad = Filters { nets: Some(names(&["atlantis"])), ..Filters::default() };
        assert!(bad.nets(&["unit"]).is_err());
    }

    #[test]
    fn a_filter_that_leaves_nothing_is_an_error() {
        let f = Filters::parse(&args("--schemes , --plans ,")).unwrap();
        assert_eq!(f.schemes, Some(vec![]));
        let e = f.schemes(&names(&["pira"])).unwrap_err();
        assert!(e.contains("selects nothing") && e.contains("pira"), "{e}");
        assert!(f.plans(&["massacre"], &dht_api::CHURN_PLAN_NAMES, |_| true).is_err());
        assert!(Filters::parse(&args("--nets ,")).is_err());
    }

    /// Replaces the per-binary smoke steps: every subcommand in the
    /// dispatch table runs at quick scale and yields non-empty tables, and
    /// each CSV, a sweep's included, is the committed one under
    /// `artifacts/quick/`.
    #[test]
    fn every_experiment_is_registered_and_runs_quick() {
        let mut seen = std::collections::BTreeSet::new();
        let mut csvs = std::collections::BTreeSet::new();
        for (name, _) in &EXPERIMENTS {
            assert!(seen.insert(*name), "{name} registered twice");
            assert!(
                !["all_experiments", "bench_baseline", "trace_explain"].contains(name),
                "{name} shadows a subcommand of the binary"
            );
            let tables = run(name, Scale::Quick, &Filters::default()).unwrap();
            assert!(!tables.is_empty(), "{name} yields no table");
            for (csv, table) in tables {
                assert!(csvs.insert(csv), "{csv}.csv written twice");
                assert!(!table.rows.is_empty() && !table.columns.is_empty(), "{name}/{csv} empty");
                let path = crate::output::golden_dir().join(format!("{csv}.csv"));
                let golden = std::fs::read_to_string(&path).unwrap();
                let moved = crate::output::compare_lines(&table.to_csv(), &golden);
                assert_eq!(moved, Ok(()), "{}", path.display());
            }
        }
        assert!(csvs.contains("partition_retry_premium"));
        assert_eq!(csvs.len(), 17, "the 17 CSVs the quick suite regenerates");
        // The Artifact entries, the ones that take no filter flag, are
        // exactly the twelve paper artifacts, in this order.
        let all: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|(_, run)| matches!(run, Run::Artifact(_)))
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(
            all,
            [
                "fissione_props",
                "table1",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "mira_bounds",
                "topk_eval",
                "ablation_flood",
                "ablation_balance",
                "ablation_pht",
                "fault_tolerance",
            ]
        );
        assert!(run("no-such", Scale::Quick, &Filters::default()).is_err());
    }
}
