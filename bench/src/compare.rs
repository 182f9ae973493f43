//! `--compare A.json B.json`: diffs two suite documents metric by metric
//! against the bounds `BENCHMARK.json` fixes. `A` is the base (the parent
//! commit, or the first of two runs of the same code), `B` the candidate.

use crate::json::{self, Json};
use crate::suite::EXACT_REPEAT;
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One `(value, unit)` of a workload's metric section.
fn value_of(workload: &Json, section: &str, metric: &str) -> Option<f64> {
    workload.get(section)?.get(metric)?.get("value")?.as_f64()
}

/// Compares two documents; returns the report and whether every
/// end-to-end metric passed.
///
/// # Errors
///
/// A file is missing, malformed, or the documents do not cover the same
/// workloads.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let same_seed = a.get("seed") == b.get("seed");
    let mut out = String::new();
    let mut pass = true;
    let workloads_b = b.get("workloads").map(Json::items).unwrap_or_default();
    for wa in a.get("workloads").map(Json::items).unwrap_or_default() {
        let name = wa.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
        let wb = workloads_b
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .ok_or_else(|| format!("{name}: missing from the second document"))?;
        let _ = writeln!(out, "\n{name}");
        for m in benchmark.get("end_to_end").map(Json::items).unwrap_or_default() {
            let metric = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let (va, vb) = value_of(wa, "end_to_end", metric)
                .zip(value_of(wb, "end_to_end", metric))
                .ok_or_else(|| format!("{name}: {metric} missing from a document"))?;
            // Positive = the candidate is worse, as a share of the base.
            let worse = if higher { (va - vb) / va } else { (vb - va) / va };
            let exact = same_seed && EXACT_REPEAT.contains(&metric);
            let ok = if exact { va.to_bits() == vb.to_bits() } else { worse <= bound };
            pass &= ok;
            let _ = writeln!(
                out,
                "  {:<6}{metric:<20} {va:>16.4} {vb:>16.4} {unit:<6} worse by {:>+8.3}%  ({})",
                if ok { "PASS" } else { "FAIL" },
                worse * 100.0,
                if exact { "must repeat exactly".to_string() } else { format!("bound {bound}") },
            );
        }
        for (metric, entry) in wa.get("per_layer").map(Json::members).unwrap_or_default() {
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
            if let Some((va, vb)) =
                entry.get("value").and_then(Json::as_f64).zip(value_of(wb, "per_layer", metric))
            {
                let _ = writeln!(
                    out,
                    "  -     {metric:<46} {va:>14.4} {vb:>14.4} {unit:<6} {:>+8.2}%",
                    (vb - va) / va.abs().max(f64::MIN_POSITIVE) * 100.0
                );
            }
        }
    }
    let _ = writeln!(out, "\n{}", if pass { "PASS" } else { "FAIL" });
    Ok((out, pass))
}

/// The `--compare` command.
pub fn run(a: &Path, b: &Path, benchmark: &Path) -> ExitCode {
    let report = load(a)
        .and_then(|a| Ok((a, load(b)?, load(benchmark)?)))
        .and_then(|(a, b, bench)| compare(&a, &b, &bench));
    match report {
        Ok((text, pass)) => {
            print!("{text}");
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
