//! `armada-exp <subcommand> [--quick] [flags]` — every experiment of the
//! reproduction behind one binary. Subcommands keep the names the old
//! per-experiment binaries had, so CSV names and prose references still
//! grep:
//!
//! ```sh
//! cargo run --release -p armada-experiments --bin armada-exp -- table1 --quick
//! cargo run --release -p armada-experiments --bin armada-exp -- all_experiments
//! cargo run --release -p armada-experiments --bin armada-exp -- churn_sweep --quick \
//!     --schemes pira,dcf-can --plans massacre,steady-churn --threads 4
//! cargo run --release -p armada-experiments --bin armada-exp -- bench_baseline --check-simulated
//! cargo run --release -p armada-experiments --bin armada-exp -- trace_explain \
//!     --scheme pira+r3@wan@lossy-10/r2 --query 17
//! ```
//!
//! * The paper artifacts and ablations (`table1`, `fig5`–`fig8`,
//!   `fissione_props`, `mira_bounds`, `topk_eval`, `ablation_*`,
//!   `fault_tolerance`) take `--quick` only; `all_experiments` runs the
//!   twelve of them in sequence. Each prints its Markdown table and writes
//!   `target/experiments/<name>.csv`.
//! * The sweeps (`churn_sweep`, `replication_sweep`, `latency_sweep`,
//!   `partition_sweep`) also take `--schemes a,b`, `--plans a,b`,
//!   `--nets a,b` and `--threads N` for local iteration; with no filters
//!   each runs its committed configuration. A name outside the
//!   experiment's catalog is an error that prints the catalog.
//! * `bench_baseline` runs the baseline grid and persists
//!   `BENCH_baseline.json` at the workspace root (`--quick` runs land
//!   under `target/`). `--features bench-alloc` fills the scaling
//!   section's `allocs_per_query` column (otherwise `null`).
//!   `--check-simulated` regenerates at full scale, compares with the
//!   committed artifact byte for byte after blanking the machine columns
//!   on both sides, writes nothing, and exits non-zero at the first
//!   differing line (the CI bench-schema job: it also catches a schema
//!   bump that forgot to regenerate the artifact). `--scaling-ns a,b,c`
//!   overrides the sizes the scaling section sweeps; `--huge` appends the
//!   opt-in `N = 10⁶` point (minutes and gigabytes); `--gate-qps` and
//!   `--gate-allocs` diff the scaling cells against the committed curve
//!   (see [`gate`]).
//! * `trace_explain` renders one query's causal cost tree (`--query Q`)
//!   or a hash-sampled slice of a batch (`--sample 1/K`) as `--format
//!   text`, `jsonl` or `chrome`; `--scheme`, `--n`, `--queries`, `--seed`
//!   and `--workload` move the batch the indices address (see
//!   [`armada_experiments::trace_explain`]).

use armada_experiments::baseline::{self, BaselineConfig, BaselineReport};
use armada_experiments::cli::{self, flag, flag_list, has_flag, Filters, Run, EXPERIMENTS};
use armada_experiments::row::Section;
use armada_experiments::trace_explain::{run_one, run_sampled, Format, TraceExplainConfig};
use armada_experiments::{output, Scale};

/// Allowed fractional drift per scaling cell before `--gate-qps` (a drop)
/// or `--gate-allocs` (a growth) fails.
const GATE_TOLERANCE: f64 = 0.25;

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
        "bench_baseline" => return bench_baseline(scale, args),
        "trace_explain" => return trace_explain(args),
        "all_experiments" => {
            cli::reject_unknown_flags(args, &["quick"])?;
            for (name, run) in &EXPERIMENTS {
                if let Run::Artifact(artifact) = run {
                    artifact(scale).emit(name);
                }
            }
        }
        name => {
            let sweep = EXPERIMENTS.iter().any(|(n, r)| *n == name && matches!(r, Run::Sweep(_)));
            let filters: &[&str] =
                if sweep { &["schemes", "plans", "nets", "threads"] } else { &[] };
            cli::reject_unknown_flags(args, &[&["quick"], filters].concat())?;
            for (csv, table) in cli::run(name, scale, &Filters::parse(args)?)? {
                table.emit(csv);
            }
        }
    }
    Ok(())
}

fn bench_baseline(scale: Scale, args: &[String]) -> Result<(), Failure> {
    let known = ["quick", "check-simulated", "scaling-ns", "huge", "gate-qps", "gate-allocs"];
    cli::reject_unknown_flags(args, &known)?;
    let mut cfg = match scale {
        Scale::Full => BaselineConfig::full(),
        Scale::Quick => BaselineConfig::quick(),
    };
    if let Some(ns) = flag_list(args, "scaling-ns")? {
        let parse = |raw: &String| raw.parse().ok().filter(|&n: &usize| n > 0);
        cfg.scaling_ns = ns.iter().map(parse).collect::<Option<_>>().ok_or_else(|| {
            format!("--scaling-ns wants positive integers, got {:?}", ns.join(","))
        })?;
    }
    if has_flag(args, "huge") {
        cfg.scaling_ns.push(1_000_000);
    }
    let check = has_flag(args, "check-simulated");
    if check && (scale == Scale::Quick || cfg.scaling_ns != BaselineConfig::full().scaling_ns) {
        let wants = "regenerates the committed full-scale artifact";
        return Err(format!("--check-simulated {wants}: no --quick, --scaling-ns or --huge").into());
    }
    eprintln!(
        "bench_baseline: N = {}, {} queries/cell, {} threads, scaling N = {:?} — building schemes…",
        cfg.n, cfg.queries, cfg.threads, cfg.scaling_ns
    );
    let report = baseline::run(&cfg);
    print!("{}", report.to_table().to_markdown());
    // Every post-run check diffs against the committed artifact.
    let (gate_qps, gate_allocs) = (has_flag(args, "gate-qps"), has_flag(args, "gate-allocs"));
    let committed = if check || gate_qps || gate_allocs {
        let path = baseline::baseline_path();
        std::fs::read_to_string(&path)
            .map_err(|e| Failure(1, format!("cannot read {}: {e}", path.display())))?
    } else {
        String::new()
    };
    if check {
        let regenerate =
            "cargo run --release -p armada-experiments --bin armada-exp -- bench_baseline";
        report.check_simulated(&committed).map_err(|e| {
            Failure(1, format!("{e}\nif the change is intended, regenerate with: {regenerate}"))
        })?;
        println!("\n[check] every simulated column matches the committed BENCH_baseline.json");
    } else {
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
    }
    if gate_qps {
        gate(&report, &committed, "qps", true)?;
    }
    if gate_allocs {
        // Allocation counts are deterministic (seeded workload, serial
        // meter), so unlike qps this diff is immune to machine noise — the
        // headroom only absorbs allocator-internal drift across rustc/libstd
        // versions.
        gate(&report, &committed, "allocs_per_query", false)?;
    }
    Ok(())
}

/// Diffs one machine column of every scaling cell measured here against
/// the same `(scheme, N)` cell of the `committed` baseline: fails when a
/// cell is more than [`GATE_TOLERANCE`] worse. Cells either side has no
/// number for are skipped, so the gate is inert until a full-scale
/// baseline with that `N` (and, for allocations, that feature) is
/// committed.
fn gate(
    report: &BaselineReport,
    committed: &str,
    column: &str,
    higher_is_better: bool,
) -> Result<(), Failure> {
    let (mut checked, mut regressions) = (0usize, Vec::new());
    for row in report.section(Section::Scaling) {
        let measured = match column {
            "qps" => Some(row.machine.qps),
            _ => row.machine.allocs_per_query,
        };
        let reference = committed_scaling_cell(committed, &row.scheme, row.key("n"))
            .and_then(|cell| json_num_field(cell, column));
        let (Some(measured), Some(reference)) = (measured, reference) else { continue };
        checked += 1;
        let slack = if higher_is_better { -GATE_TOLERANCE } else { GATE_TOLERANCE };
        let bound = reference * (1.0 + slack);
        let cell = format!(
            "{} N = {}: {measured:.1} {column} vs committed {reference:.1} (bound {bound:.1})",
            row.scheme,
            row.key("n")
        );
        if if higher_is_better { measured < bound } else { measured > bound } {
            regressions.push(cell);
        } else {
            println!("[gate] {cell} — ok");
        }
    }
    if !regressions.is_empty() {
        return Err(Failure(1, format!("{column} regression — {}", regressions.join("; "))));
    }
    println!("[gate] {checked} scaling cell(s) within 25% of committed {column}");
    if checked == 0 {
        println!(
            "[gate] note: no (scheme, N) overlap with the committed scaling curve — for \
             allocations, run with --features bench-alloc against a baseline generated with it"
        );
    }
    Ok(())
}

/// The row of the committed baseline's `"scaling"` array for `(scheme,
/// n)`. A hand-rolled line scan to match the hand-rolled writer (the
/// build has no serde); tolerant of a missing section (older schema).
fn committed_scaling_cell<'a>(json: &'a str, scheme: &str, n: &str) -> Option<&'a str> {
    let rows = json.lines().skip_while(|l| !l.trim().starts_with("\"scaling\": [")).skip(1);
    rows.take_while(|l| !l.trim().starts_with(']'))
        .find(|l| l.contains(&format!("\"scheme\": \"{scheme}\", \"n\": {n},")))
}

/// The numeric value of `"key": 123[.45]` on a single JSON line, if
/// present (`None` for `null` — a baseline generated without
/// `bench-alloc`).
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().ok()
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
