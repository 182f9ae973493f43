//! Command-line parsing. `--name value` and `--name=value` both work.

use crate::spec;
use std::path::PathBuf;

/// Usage text.
pub const USAGE: &str = "\
usage: armada-bench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                    [--passes P] [--slices K] [--quick] [--out FILE]
       armada-bench --compare A.json B.json [--benchmark BENCHMARK.json]

One --workload with --passes 1 (the default when a workload is named) runs that
workload in this process and prints its result object as the last line.
Several workloads, or --passes > 1, run the suite: every (pass, workload) in a
child process, three untraced passes round-robin then a traced pass by default.
--trace 1 prints the per-layer metrics, --trace 0 the end-to-end ones.";

/// The untraced reference a traced child is told about.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Wall nanoseconds of the untraced run's measured slices.
    pub raw_ns: Vec<f64>,
    /// The same slices at the nominal machine speed.
    pub ns: Vec<f64>,
    /// Digest the untraced run's slices carried.
    pub digest: u64,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// Workloads to run, in order (all six when none is named).
    pub workloads: Vec<spec::Workload>,
    /// Whether `--workload` was given at all.
    pub named: bool,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// `--trace 1`.
    pub trace: bool,
    /// Untraced passes of the suite.
    pub passes: Option<usize>,
    /// Upper limit on measured slices per run.
    pub slices: Option<usize>,
    /// `--quick`.
    pub quick: bool,
    /// Where the suite writes its JSON document.
    pub out: Option<PathBuf>,
    /// Directory the traced run writes `trace-<workload>.json` into.
    pub trace_dir: PathBuf,
    /// `--compare A B`.
    pub compare: Option<(PathBuf, PathBuf)>,
    /// `--benchmark FILE` (for `--compare`).
    pub benchmark: PathBuf,
    /// Set by the parent of a traced child.
    pub reference: Option<Reference>,
}

fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("{flag}: cannot read {raw:?} as a number"))
}

/// Parses `args` (without the program name).
///
/// # Errors
///
/// A usage message naming the offending flag.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        named: false,
        seed: spec::DEFAULT_SEED,
        seconds: 8.0,
        trace: false,
        passes: None,
        slices: None,
        quick: false,
        out: None,
        trace_dir: PathBuf::from("bench/out"),
        compare: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
        reference: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value =
            || inline.clone().or_else(|| it.next().cloned()).ok_or(format!("{flag} wants a value"));
        match flag {
            "--workload" => {
                let name = value()?;
                let w = spec::workload(&name).ok_or_else(|| {
                    let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (have: {})", names.join(", "))
                })?;
                cli.workloads.push(w);
                cli.named = true;
            }
            "--seed" => cli.seed = parse_num(flag, &value()?)?,
            "--seconds" => cli.seconds = parse_num(flag, &value()?)?,
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--passes" => cli.passes = Some(parse_num(flag, &value()?)?),
            "--slices" => cli.slices = Some(parse_num(flag, &value()?)?),
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--trace-dir" => cli.trace_dir = PathBuf::from(value()?),
            "--benchmark" => cli.benchmark = PathBuf::from(value()?),
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = it.next().ok_or("--compare wants two files")?;
                cli.compare = Some((a, PathBuf::from(b)));
            }
            "--reference" => {
                // `digest:raw,raw,…:ns,ns,…` — written by `reference_arg`,
                // never by hand.
                let raw = value()?;
                let list = |s: &str| -> Result<Vec<f64>, String> {
                    s.split(',').map(|x| parse_num(flag, x)).collect()
                };
                let [digest, raw_ns, ns] = raw.split(':').collect::<Vec<_>>()[..] else {
                    return Err("--reference wants digest:raw,...:ns,...".to_string());
                };
                cli.reference = Some(Reference {
                    digest: parse_num(flag, digest)?,
                    raw_ns: list(raw_ns)?,
                    ns: list(ns)?,
                });
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
        return Err("--seconds wants a positive number".to_string());
    }
    if cli.workloads.is_empty() {
        cli.workloads = spec::WORKLOADS.to_vec();
    }
    if cli.quick {
        cli.workloads = cli.workloads.iter().map(|w| w.quick()).collect();
    }
    Ok(cli)
}

/// The `--reference` value handed to a traced child.
pub fn reference_arg(reference: &Reference) -> String {
    let list = |xs: &[f64]| xs.iter().map(|x| format!("{x}")).collect::<Vec<_>>().join(",");
    format!("{}:{}:{}", reference.digest, list(&reference.raw_ns), list(&reference.ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_form_and_round_trips_the_reference() {
        let cli = parse(&args("--workload pira-scan --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(cli.workloads.len(), 1);
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 3.0, true));
        let r = Reference { raw_ns: vec![1.5e9, 2.25e9], ns: vec![1.25e9, 2e9], digest: u64::MAX };
        let cli = parse(&["--reference".to_string(), reference_arg(&r)]).unwrap();
        assert_eq!(cli.reference, Some(r));
        assert_eq!(cli.workloads.len(), spec::WORKLOADS.len());
    }

    #[test]
    fn rejects_strangers() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }
}
