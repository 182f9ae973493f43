//! The full benchmark: every workload in a child process of its own (so
//! peak RSS is per workload), several untraced passes round-robin over the
//! workloads (so each workload's samples span the whole run and ride out
//! machine-wide slow spells), then one traced pass. Prints a table and one
//! JSON document; `--compare` diffs two such documents.

use crate::cli::Cli;
use crate::json::{self, Json};
use crate::spec::{self, Better, Metric, Workload};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Untraced passes when `--passes` is absent.
const DEFAULT_PASSES: usize = 3;

/// End-to-end metrics that are pure functions of `(stack, seed, config)`:
/// they must repeat bit for bit between passes and between runs.
pub const EXACT_REPEAT: [&str; 4] =
    ["delay_hops_mean", "msgs_per_query", "mesg_ratio_mean", "recall_mean"];

/// One child run's parsed result object.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a child process and parses the last line it
/// prints. The child's own table goes to our stderr so that our stdout
/// stays one table and one document.
fn child(cli: &Cli, w: &Workload, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(&cli.trace_dir)
        .stdout(Stdio::piped());
    if cli.quick {
        cmd.arg("--quick");
    }
    if let Some(k) = cli.slices {
        cmd.args(["--slices", &k.to_string()]);
    }
    let output = cmd.output().map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last)
        .map_err(|e| format!("{}: child printed no result object ({e})", w.name))?;
    let field = |k: &str| doc.get(k).and_then(Json::as_f64);
    Ok(ChildResult {
        correct: output.status.success() && doc.get("correct") == Some(&Json::Bool(true)),
        attempted: field("attempted").unwrap_or(0.0),
        failed: field("failed").unwrap_or(0.0),
        metrics: doc
            .get("metrics")
            .map(Json::members)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// One figure from a metric's per-pass values: the best pass for a
/// wall-clock metric (interference only ever worsens a pass), the largest
/// for peak RSS.
fn across_passes(metric: &Metric, values: &[f64]) -> f64 {
    let pick_max = metric.name == "peak_rss_mb" || metric.better == Better::Higher;
    values.iter().copied().reduce(if pick_max { f64::max } else { f64::min }).expect("a pass ran")
}

fn metric_object(m: &Metric, value: f64, passes: Option<&[f64]>) -> String {
    let mut s = format!(
        "{}: {{\"value\": {}, \"unit\": {}",
        json::quote(m.name),
        json::number(value),
        json::quote(m.unit)
    );
    if let Some(passes) = passes {
        let list: Vec<String> = passes.iter().map(|v| json::number(*v)).collect();
        let _ = write!(s, ", \"passes\": [{}]", list.join(", "));
    }
    s.push('}');
    s
}

/// Runs the suite; exit code 0 only when every run was correct.
pub fn run(cli: &Cli) -> ExitCode {
    let passes = cli.passes.unwrap_or(if cli.quick { 1 } else { DEFAULT_PASSES }).max(1);
    let mut all_correct = true;
    // results[workload][pass]
    let mut untraced: Vec<Vec<ChildResult>> = cli.workloads.iter().map(|_| Vec::new()).collect();
    for pass in 0..passes {
        for (i, w) in cli.workloads.iter().enumerate() {
            eprintln!("== pass {}/{passes}: {}", pass + 1, w.name);
            match child(cli, w, false) {
                Ok(r) => untraced[i].push(r),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let mut traced = Vec::new();
    for w in &cli.workloads {
        eprintln!("== traced pass: {}", w.name);
        match child(cli, w, true) {
            Ok(r) => traced.push(r),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut table = String::new();
    let mut docs = Vec::new();
    for ((w, runs), layers) in cli.workloads.iter().zip(&untraced).zip(&traced) {
        let mut correct = runs.iter().all(|r| r.correct) && layers.correct;
        let _ = writeln!(table, "\n{} — {} N={}", w.name, w.stack, w.n);
        let mut e2e = Vec::new();
        for m in &spec::END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v))
                .collect();
            if values.len() != runs.len() {
                eprintln!("error: {}: a pass did not report {}", w.name, m.name);
                return ExitCode::FAILURE;
            }
            if EXACT_REPEAT.contains(&m.name)
                && values.iter().any(|v| v.to_bits() != values[0].to_bits())
            {
                correct = false;
                eprintln!("error: {}: {} differs between passes: {values:?}", w.name, m.name);
            }
            let value = across_passes(m, &values);
            let _ = writeln!(table, "  {:<46} {value:>16.4} {}", m.name, m.unit);
            e2e.push(metric_object(m, value, Some(&values)));
        }
        let mut per_layer = Vec::new();
        for m in &spec::PER_LAYER {
            let Some((_, value)) = layers.metrics.iter().find(|(k, _)| k == m.name) else {
                eprintln!("error: {}: the traced pass did not report {}", w.name, m.name);
                return ExitCode::FAILURE;
            };
            let _ = writeln!(table, "  {:<46} {value:>16.4} {}", m.name, m.unit);
            per_layer.push(metric_object(m, *value, None));
        }
        all_correct &= correct;
        docs.push(format!(
            "  {{\"name\": {}, \"stack\": {}, \"n\": {}, \"correct\": {correct}, \
             \"attempted\": {}, \"failed\": {},\n   \"end_to_end\": {{{}}},\n   \
             \"per_layer\": {{{}}}}}",
            json::quote(w.name),
            json::quote(w.stack),
            w.n,
            runs.iter().map(|r| r.attempted).sum::<f64>() + layers.attempted,
            runs.iter().map(|r| r.failed).sum::<f64>() + layers.failed,
            e2e.join(", "),
            per_layer.join(", ")
        ));
    }
    let doc = format!(
        "{{\"benchmark\": \"armada-bench\", \"claim\": null, \"seed\": {}, \"seconds\": {}, \
         \"passes\": {passes}, \"quick\": {}, \"correct\": {all_correct},\n \"workloads\": [\n{}\n ]}}\n",
        cli.seed,
        json::number(cli.seconds),
        cli.quick,
        docs.join(",\n")
    );
    println!("{}", table.trim_start());
    print!("{doc}");
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: at least one run was incorrect");
        ExitCode::FAILURE
    }
}
