//! The benchmark's own contract: `BENCHMARK.json` and the code agree, a
//! `--quick` run emits exactly the declared metrics, simulated metrics
//! repeat bit for bit, and the oracle catches a wrong answer.

use armada_bench::cli::Reference;
use armada_bench::json::{self, Json};
use armada_bench::spec::{self, Metric};
use armada_bench::suite::EXACT_REPEAT;
use armada_bench::timed::{self, RunOpts, RunOutput};
use armada_bench::{stack, traced};

// The traced run refuses to start without live allocation counters.
#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

const QUICK: RunOpts =
    RunOpts { seed: spec::DEFAULT_SEED, seconds: 0.05, max_slices: Some(3), repeat_setup: true };

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn assert_metrics_match(section: &str, declared: &[Json], expected: &[Metric], bounded: bool) {
    let want_keys: &[&str] =
        if bounded { &["name", "unit", "better", "bound"] } else { &["name", "unit", "better"] };
    assert_eq!(declared.len(), expected.len(), "{section}: count differs from spec.rs");
    for (entry, m) in declared.iter().zip(expected) {
        let keys: Vec<&str> = entry.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, want_keys, "{section}: keys of {}", m.name);
        assert_eq!(text(entry, "name"), m.name, "{section}: order or name");
        assert_eq!(text(entry, "unit"), m.unit, "{section}: unit of {}", m.name);
        assert_eq!(text(entry, "better"), m.better.as_str(), "{section}: direction of {}", m.name);
        assert!(well_formed(m.name), "{section}: name {:?}", m.name);
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(m.unit.len() <= 16 && m.unit.chars().all(unit_ok), "{section}: unit {:?}", m.unit);
        if bounded {
            let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
            assert_eq!(Some(bound), m.bound, "{section}: bound of {}", m.name);
            assert!((0.0..=0.25).contains(&bound), "{section}: bound of {} out of range", m.name);
        }
    }
}

#[test]
fn benchmark_json_and_spec_agree_and_stay_within_the_caps() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let workloads = doc.get("workloads").unwrap().items();
    assert!((2..=8).contains(&workloads.len()));
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(&spec::WORKLOADS) {
        assert_eq!(entry.members().len(), 2, "a workload has exactly name and why");
        assert_eq!(text(entry, "name"), w.name);
        assert_eq!(text(entry, "why"), w.why);
        assert!(well_formed(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
    }

    let e2e = doc.get("end_to_end").unwrap().items();
    let layers = doc.get("per_layer").unwrap().items();
    assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));
    assert_metrics_match("end_to_end", e2e, &spec::END_TO_END, true);
    assert_metrics_match("per_layer", layers, &spec::PER_LAYER, false);
    let setup = spec::END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
    let largest = spec::END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");

    // Every name is used once across workloads and both metric lists.
    let mut names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(spec::END_TO_END.iter().chain(&spec::PER_LAYER).map(|m| m.name));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");

    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let paths: Vec<&str> =
        doc.get("paths").unwrap().items().iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, ["bench"]);
    for arg in doc.get("command").unwrap().items().iter().filter_map(Json::as_str) {
        assert!(!arg.starts_with('/') && !arg.contains(".."), "command argument {arg:?}");
        assert!(!arg.contains('/') || arg.starts_with("bench/"), "{arg:?} is outside paths");
    }
}

fn names_of(out: &RunOutput) -> Vec<&'static str> {
    out.metrics.iter().map(|(name, _)| *name).collect()
}

#[test]
fn a_quick_run_of_every_workload_emits_exactly_the_declared_metrics() {
    let trace_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for w in spec::WORKLOADS.map(|w| w.quick()) {
        let out = timed::run(&w, &QUICK).unwrap();
        assert!(out.correct && out.failed == 0 && out.attempted > 0, "{}: {:?}", w.name, out.notes);
        let declared: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names_of(&out), declared, "{}", w.name);
        assert!(out.metrics.iter().all(|(_, v)| v.is_finite() && *v != 0.0), "{}", w.name);

        let reference = Reference {
            raw_ns: out.slices.iter().map(|t| t.raw_ns).collect(),
            ns: out.slices.iter().map(|t| t.ns).collect(),
            digest: out.digest,
        };
        let layers = traced::run(&w, QUICK.seed, &reference, trace_dir).unwrap();
        assert!(layers.correct, "{}: {:?}", w.name, layers.notes);
        let declared: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names_of(&layers), declared, "{}", w.name);
        assert!(layers.metrics.iter().all(|(_, v)| v.is_finite()), "{}", w.name);
        let trace = std::fs::read_to_string(trace_dir.join(format!("trace-{}.json", w.name)));
        let trace = json::parse(&trace.expect("trace file written")).expect("trace parses");
        assert!(trace.get("spans").unwrap().items().len() > w.probe_queries);
    }
}

#[test]
fn two_quick_runs_agree_exactly_on_the_simulated_metrics() {
    for w in spec::WORKLOADS.map(|w| w.quick()) {
        let (a, b) = (timed::run(&w, &QUICK).unwrap(), timed::run(&w, &QUICK).unwrap());
        assert_eq!(a.digest, b.digest, "{}", w.name);
        for name in EXACT_REPEAT {
            let value = |out: &RunOutput| {
                out.metrics.iter().find(|(n, _)| *n == name).expect("emitted").1.to_bits()
            };
            assert_eq!(value(&a), value(&b), "{}: {name}", w.name);
        }
        let other_seed = RunOpts { seed: QUICK.seed + 1, ..QUICK };
        assert_ne!(
            timed::run(&w, &other_seed).unwrap().digest,
            a.digest,
            "{}: seed ignored",
            w.name
        );
    }
}

#[test]
fn the_oracle_flags_a_corrupted_result_set() {
    let reg = stack::registry();
    let built = stack::build(&reg, "pira", 200, 7);
    let origin = built.scheme.random_origin(&mut simnet::rng_from_seed(1));
    let good = built.scheme.range_query(origin, 100.0, 400.0, 0).unwrap();
    assert!(good.results.len() > 10, "the range holds records");
    assert!(built.oracle.accepts(100.0, 400.0, &good));
    assert_eq!(built.oracle.expected(100.0, 400.0), good.results);

    let mut missing = good.clone();
    missing.results.pop();
    assert!(!built.oracle.accepts(100.0, 400.0, &missing), "a lost record must be flagged");
    // The same set is acceptable only from a query that admits it is partial …
    missing.exact = false;
    assert!(built.oracle.accepts(100.0, 400.0, &missing));
    // … and a handle from outside the range is never acceptable.
    let outside = built.oracle.expected(500.0, 1000.0)[0];
    let mut wrong = good.clone();
    wrong.results.push(outside);
    wrong.results.sort_unstable();
    assert!(!built.oracle.accepts(100.0, 400.0, &wrong));
    wrong.exact = false;
    assert!(!built.oracle.accepts(100.0, 400.0, &wrong));
}
