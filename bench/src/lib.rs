//! The repo benchmark: six closed-loop workloads over the library's public
//! API, eight end-to-end metrics from an untraced run and an outside-in
//! per-layer trace from a second, traced binary. See `README.md` for the
//! workloads, the metrics and how the layers map onto them, and
//! `../BENCHMARK.json` for the contract the numbers are compared under.

#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod json;
pub mod machine;
pub mod probes;
pub mod spec;
pub mod stack;
pub mod stats;
pub mod suite;
pub mod timed;
pub mod trace;
pub mod traced;

use spec::Metric;
use std::process::{Command, ExitCode};
use timed::{RunOpts, RunOutput};

/// The result object a run prints as the last line of its standard output.
pub fn result_line(out: &RunOutput, specs: &[Metric]) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = specs.iter().find(|m| m.name == *name).expect("listed metric").unit;
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::number(*value),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Prints a run for a human (every metric with its unit, then the notes),
/// then the result object.
fn print_run(workload: &str, out: &RunOutput, specs: &[Metric]) {
    println!("workload {workload}");
    for (name, value) in &out.metrics {
        let unit = specs.iter().find(|m| m.name == *name).expect("listed metric").unit;
        println!("  {name:<46} {value:>16.4} {unit}");
    }
    for note in &out.notes {
        println!("  # {note}");
    }
    println!("{}", result_line(out, specs));
}

fn finish(workload: &str, run: Result<RunOutput, String>, specs: &[Metric]) -> ExitCode {
    match run {
        Ok(out) => {
            print_run(workload, &out, specs);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: {workload}: incorrect output (see the notes above)");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Entry point of both binaries; `traced_binary` says which one this is.
pub fn main(traced_binary: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cli::parse(&args) {
        Ok(cli) => cli,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return compare::run(a, b, &cli.benchmark);
    }
    if traced_binary {
        let (Some(reference), [w]) = (&cli.reference, cli.workloads.as_slice()) else {
            eprintln!("armada-bench-traced is started by `armada-bench --trace 1`, not by hand");
            return ExitCode::from(2);
        };
        let run = traced::run(w, cli.seed, reference, &cli.trace_dir);
        return finish(w.name, run, &spec::PER_LAYER);
    }
    if !cli.named || cli.workloads.len() > 1 || cli.passes.is_some_and(|p| p > 1) {
        return suite::run(&cli);
    }

    let w = &cli.workloads[0];
    let mut opts = RunOpts {
        seed: cli.seed,
        seconds: cli.seconds,
        max_slices: cli.slices,
        repeat_setup: true,
    };
    if !cli.trace {
        return finish(w.name, timed::run(w, &opts), &spec::END_TO_END);
    }
    // Traced: a short untraced reference in this process (system
    // allocator, no spans), then the sibling binary with the counting
    // allocator, told what the reference measured.
    opts.seconds /= 3.0;
    opts.repeat_setup = false;
    let reference = match timed::run(w, &opts) {
        Ok(out) if out.correct => cli::Reference {
            raw_ns: out.slices.iter().map(|t| t.raw_ns).collect(),
            ns: out.slices.iter().map(|t| t.ns).collect(),
            digest: out.digest,
        },
        other => return finish(w.name, other, &spec::END_TO_END),
    };
    let sibling = std::env::current_exe().map(|exe| exe.with_file_name("armada-bench-traced"));
    let status = sibling.and_then(|exe| {
        Command::new(exe)
            .args(&args)
            .arg("--reference")
            .arg(cli::reference_arg(&reference))
            .status()
    });
    match status {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: cannot run armada-bench-traced: {e}");
            ExitCode::FAILURE
        }
    }
}
