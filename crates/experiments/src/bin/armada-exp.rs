//! `armada-exp <subcommand> [--quick] [flags]` — every experiment of the
//! reproduction behind one binary. Subcommands keep the names the old
//! per-experiment binaries had, so CSV names and prose references still
//! grep:
//!
//! ```sh
//! cargo run --release -p armada-experiments --bin armada-exp -- table1 --quick
//! cargo run --release -p armada-experiments --bin armada-exp -- all_experiments
//! cargo run --release -p armada-experiments --bin armada-exp -- all_experiments --quick --check
//! cargo run --release -p armada-experiments --bin armada-exp -- churn_sweep --quick \
//!     --schemes pira,dcf-can --plans massacre,steady-churn --threads 4
//! cargo run --release -p armada-experiments --bin armada-exp -- bench_baseline --check
//! cargo run --release -p armada-experiments --bin armada-exp -- trace_explain \
//!     --scheme pira+r3@wan@lossy-10/r2 --query 17
//! ```
//!
//! * The paper artifacts and ablations (`table1`, `fig5`–`fig8`,
//!   `fissione_props`, `mira_bounds`, `topk_eval`, `ablation_*`,
//!   `fault_tolerance`) take `--quick` and `--check` only;
//!   `all_experiments` runs them and the four sweeps in sequence. Each
//!   prints its Markdown table and writes `target/experiments/<name>.csv`.
//!   With `--quick --check` each instead compares its CSV with the
//!   committed `artifacts/quick/<name>.csv` line for line, writes nothing,
//!   and exits non-zero naming the file and its first differing line.
//! * The sweeps (`churn_sweep`, `replication_sweep`, `latency_sweep`,
//!   `partition_sweep`) also take `--schemes a,b`, `--plans a,b`,
//!   `--nets a,b` and `--threads N` for local iteration; with no filters
//!   each runs its committed configuration, the one `--check` compares
//!   (a filter beside `--check` is a usage error). A name outside the
//!   experiment's catalog is an error that prints the catalog.
//! * `bench_baseline` runs the baseline grid and persists
//!   `BENCH_baseline.json` at the workspace root (`--quick` runs land
//!   under `target/`). `--check` regenerates at full scale, compares with
//!   the committed artifact line for line, writes nothing, and exits
//!   non-zero at the first differing line (the CI golden job: it also
//!   catches a schema bump that forgot to regenerate the artifact).
//! * `trace_explain` renders one query's causal cost tree (`--query Q`)
//!   or a hash-sampled slice of a batch (`--sample 1/K`) as `--format
//!   text`, `jsonl` or `chrome`; `--scheme`, `--n`, `--queries`, `--seed`
//!   and `--workload` move the batch the indices address (see
//!   [`armada_experiments::trace_explain`]).

use armada_experiments::baseline::{self, BaselineConfig};
use armada_experiments::cli::{self, flag, has_flag, Filters, Run, EXPERIMENTS};
use armada_experiments::trace_explain::{run_one, run_sampled, Format, TraceExplainConfig};
use armada_experiments::{output, Scale, Table};

/// A failed run: the process exit code and what to tell the user.
struct Failure(i32, String);

/// A bare message is a usage error (exit 2); a run that itself failed
/// says so with `Failure(1, …)`.
impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure(2, message)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(Failure(code, message)) = run(&args) {
        eprintln!("error: {message}");
        std::process::exit(code);
    }
}

fn run(args: &[String]) -> Result<(), Failure> {
    let Some((name, args)) = args.split_first() else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        return Err(Failure::from(format!(
            "usage: armada-exp <subcommand> [--quick] [flags]; subcommands: {}, \
             all_experiments, bench_baseline, trace_explain",
            names.join(", ")
        )));
    };
    let scale = if has_flag(args, "quick") { Scale::Quick } else { Scale::Full };
    match name.as_str() {
        "bench_baseline" => bench_baseline(scale, args),
        "trace_explain" => trace_explain(args),
        name => {
            let sweep = EXPERIMENTS.iter().any(|(n, r)| *n == name && matches!(r, Run::Sweep(_)));
            let filters: &[&str] = if sweep { &Filters::FLAGS } else { &[] };
            cli::reject_unknown_flags(args, &[&["quick", "check"], filters].concat())?;
            let check = has_flag(args, "check");
            if check && scale == Scale::Full {
                return Err("--check compares with the committed --quick CSVs: add --quick"
                    .to_string()
                    .into());
            }
            if check {
                Filters::reject_with_check(args)?;
            }
            let names: Vec<&str> = match name {
                "all_experiments" => EXPERIMENTS.iter().map(|(name, _)| *name).collect(),
                name => vec![name],
            };
            let filters = Filters::parse(args)?;
            for name in names {
                for (csv, table) in cli::run(name, scale, &filters)? {
                    emit(&table, csv, check)?;
                }
            }
            Ok(())
        }
    }
}

fn bench_baseline(scale: Scale, args: &[String]) -> Result<(), Failure> {
    cli::reject_unknown_flags(args, &["quick", "check"])?;
    let check = has_flag(args, "check");
    let cfg = match scale {
        Scale::Full => BaselineConfig::full(),
        Scale::Quick if check => {
            let wants = "regenerates the committed full-scale artifact";
            return Err(format!("--check {wants}: no --quick").into());
        }
        Scale::Quick => BaselineConfig::quick(),
    };
    eprintln!(
        "bench_baseline: N = {}, {} queries/cell, {} threads, scaling N = {:?} — building schemes…",
        cfg.n, cfg.queries, cfg.threads, cfg.scaling_ns
    );
    let report = baseline::run(&cfg);
    print!("{}", report.to_table().to_markdown());
    if check {
        let path = baseline::baseline_path();
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| Failure(1, format!("cannot read {}: {e}", path.display())))?;
        let regenerate =
            "cargo run --release -p armada-experiments --bin armada-exp -- bench_baseline";
        report.check(&committed).map_err(|e| {
            Failure(1, format!("{e}\nif the change is intended, regenerate with: {regenerate}"))
        })?;
        println!("\n[check] the regenerated baseline matches the committed BENCH_baseline.json");
        return Ok(());
    }
    // Only full-scale runs refresh the committed baseline; --quick smoke
    // runs land under target/ so they can never clobber the trajectory.
    let path = match scale {
        Scale::Full => baseline::baseline_path(),
        Scale::Quick => output::output_dir().join("BENCH_baseline_quick.json"),
    };
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, report.to_json()))
        .map_err(|e| Failure(1, format!("could not write {}: {e}", path.display())))?;
    println!("\n[json] {}", path.display());
    Ok(())
}

/// Prints a table's markdown, then writes its CSV, or with `check` compares
/// it with the committed one under `artifacts/quick/` and writes nothing:
/// every artifact and sweep subcommand's epilogue.
fn emit(table: &Table, name: &str, check: bool) -> Result<(), Failure> {
    print!("{}", table.to_markdown());
    if check {
        let path = output::golden_dir().join(format!("{name}.csv"));
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| Failure(1, format!("cannot read {}: {e}", path.display())))?;
        output::compare_lines(&table.to_csv(), &committed).map_err(|e| {
            let shown = path.display();
            let rerun = format!("`armada-exp {name} --quick` and copy its CSV over {shown}");
            Failure(
                1,
                format!("the regenerated {shown} {e}\nif the change is intended, run {rerun}"),
            )
        })?;
        println!("\n[check] {} matches\n", path.display());
        return Ok(());
    }
    match table.write_csv(name) {
        Ok(path) => println!("\n[csv] {}\n", path.display()),
        Err(e) => eprintln!("warning: could not write csv: {e}"),
    }
    Ok(())
}

fn trace_explain(args: &[String]) -> Result<(), Failure> {
    let known = ["scheme", "workload", "n", "queries", "seed", "format", "sample", "query"];
    cli::reject_unknown_flags(args, &known)?;
    /// `--name` parsed as the flag's type, or `default` when absent.
    fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
        let Some(raw) = flag(args, name)? else { return Ok(default) };
        raw.parse().map_err(|_| format!("--{name} could not parse {raw:?}"))
    }
    let defaults = TraceExplainConfig::default();
    let cfg = TraceExplainConfig {
        scheme: parsed(args, "scheme", defaults.scheme)?,
        workload: parsed(args, "workload", defaults.workload)?,
        n: parsed(args, "n", defaults.n)?,
        queries: parsed(args, "queries", defaults.queries)?,
        seed: parsed(args, "seed", defaults.seed)?,
        ..defaults
    };
    let format = match flag(args, "format")? {
        None => Format::Text,
        Some(raw) => Format::parse(raw)
            .ok_or_else(|| format!("--format wants text, jsonl, or chrome; got {raw:?}"))?,
    };
    let sample = match flag(args, "sample")? {
        None => None,
        Some(raw) => {
            let k = raw.strip_prefix("1/").and_then(|k| k.parse::<u64>().ok()).filter(|&k| k >= 1);
            Some(k.ok_or_else(|| format!("--sample wants the form 1/K (K >= 1), got {raw:?}"))?)
        }
    };
    let rendered = match (sample, flag(args, "query")?) {
        (Some(_), Some(_)) => {
            return Err("--sample and --query are mutually exclusive".to_string().into())
        }
        (Some(k), None) => run_sampled(&cfg, k, format),
        (None, None) => run_one(&cfg, 0, format),
        (None, Some(raw)) => {
            let q = raw.parse().map_err(|_| format!("--query wants a batch index, got {raw:?}"))?;
            run_one(&cfg, q, format)
        }
    };
    print!("{}", rendered.map_err(|e| Failure(1, e.to_string()))?);
    Ok(())
}
