//! Per-query cost explainers: build any registry scheme with tracing on,
//! replay one (or a sampled set of) driver queries, and render the causal
//! tree — as human-readable text, as the raw JSON-Lines event stream, or
//! as a Chrome-trace array for `chrome://tracing` / Perfetto.
//!
//! The module is the library half of `armada-exp trace_explain`. Every
//! function returns a `String` (or a structured report) rather than
//! printing — the workspace determinism linter bans stdout in library
//! crates — and every rendered explanation is checked against the
//! accounting invariant first: the explain tree's recursive cost total
//! must reproduce the query's reported `delay`, `latency`, and `messages`
//! exactly, or [`run_one`]/[`run_sampled`] refuse to render it.
//!
//! Queries are addressed by driver index: query `q` here is byte-for-byte
//! the query a [`ParallelDriver`] with the same `(seed, queries)` would
//! run at index `q` — same workload draw, same origin, same scheme seed —
//! so a surprising number in a sweep can be replayed and explained after
//! the fact. Sampling (`--sample 1/K`) selects indices by a pure FNV-1a
//! hash of the index, so the 1-in-K stream is a strict subset of the
//! 1-in-1 stream for the same configuration.

use crate::{cell, standard_registry};
use dht_api::{ParallelDriver, QueryTrace, RangeOutcome, SchemeError, WorkloadGen};
use std::fmt::Write as _;

/// Salt mixed into the per-index sampling hash (distinct from every other
/// salt in the workspace so sampling never correlates with origin or
/// retry draws).
const SAMPLE_SALT: u64 = 0x5a3b_5a3b_5a3b_5a3b;

/// Configuration for a trace-explain run. The defaults mirror the quick
/// baseline so a bare `--scheme pira` invocation is fast and meaningful.
#[derive(Debug, Clone)]
pub struct TraceExplainConfig {
    /// Full registry name, suffixes included (`pira+r3@wan@lossy-10/r2`).
    pub scheme: String,
    /// Network size to build at.
    pub n: usize,
    /// Driver batch size — query indices live in `0..queries`.
    pub queries: usize,
    /// Master seed (build, publish, workload, and origins derive from it).
    pub seed: u64,
    /// ObjectID length for Kautz-named schemes.
    pub object_id_len: usize,
    /// Workload the driver batch draws ranges from.
    pub workload: String,
}

impl Default for TraceExplainConfig {
    fn default() -> Self {
        TraceExplainConfig {
            scheme: "pira".to_string(),
            n: 250,
            queries: 1000,
            seed: 0xba5e,
            object_id_len: 32,
            workload: "uniform".to_string(),
        }
    }
}

/// Output format for a rendered explanation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable totals + indented causal tree.
    Text,
    /// Raw JSON-Lines event stream (one event per line, schema-validated
    /// by CI against `schemas/trace.schema.json`).
    Jsonl,
    /// Chrome-trace JSON array (`chrome://tracing` / Perfetto).
    Chrome,
}

impl Format {
    /// Parses the `--format` spelling.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "jsonl" => Some(Format::Jsonl),
            "chrome" => Some(Format::Chrome),
            _ => None,
        }
    }
}

/// One explained query: the outcome the driver reported and the causal
/// trace behind it, accounting-checked.
#[derive(Debug, Clone)]
pub struct Explained {
    /// The driver index the query ran at.
    pub query: usize,
    /// The range the workload drew for this index.
    pub range: (f64, f64),
    /// The reported outcome (delay/latency/messages the tree must match).
    pub outcome: RangeOutcome,
    /// The causal trace.
    pub trace: QueryTrace,
}

/// Checks the accounting invariant: the explain tree's recursive total
/// must equal the reported `(delay, latency, messages)` exactly.
///
/// # Errors
///
/// Returns a human-readable description of the mismatch.
pub fn verify_accounting(out: &RangeOutcome, trace: &QueryTrace) -> Result<(), String> {
    let (summed, reported) = (trace.root.total(), (out.delay, out.latency, out.messages));
    if summed == reported {
        return Ok(());
    }
    Err(format!("explain tree sums (hops, ms, messages) = {summed:?}, query reported {reported:?}"))
}

/// The driver-index subset a `1/k` sample selects: index `q` is in iff
/// `fnv1a(SAMPLE_SALT ‖ q) % k == 0`. Pure in `q` — no RNG, no state — so
/// the selection is stable across runs, thread counts, and shard salts,
/// and `1/k` selects a subset of `1/1` (which selects everything).
pub fn sampled_indices(queries: usize, k: u64) -> Vec<usize> {
    let k = k.max(1);
    (0..queries)
        .filter(|&q| {
            let mut bytes = [0u8; 16];
            bytes[..8].copy_from_slice(&SAMPLE_SALT.to_le_bytes());
            bytes[8..].copy_from_slice(&(q as u64).to_le_bytes());
            dht_api::fnv1a(&bytes).is_multiple_of(k)
        })
        .collect()
}

/// Builds the configured scheme and replays query `q` through
/// [`ParallelDriver::trace_one`], verifying the accounting
/// invariant before returning.
///
/// # Errors
///
/// Propagates build and query errors; an accounting mismatch (which would
/// mean a tracing bug, not a user error) comes back as
/// [`SchemeError::Query`].
pub fn explain_one(cfg: &TraceExplainConfig, q: usize) -> Result<Explained, SchemeError> {
    let (scheme, driver, workload) = build(cfg)?;
    explain_with(cfg, scheme.as_ref(), &driver, &workload, q)
}

/// Builds once and explains every index a `1/k` sample selects (in index
/// order — the stream order is part of the determinism contract).
///
/// # Errors
///
/// Propagates build and query errors.
pub fn explain_sampled(cfg: &TraceExplainConfig, k: u64) -> Result<Vec<Explained>, SchemeError> {
    let (scheme, driver, workload) = build(cfg)?;
    sampled_indices(cfg.queries, k)
        .into_iter()
        .map(|q| explain_with(cfg, scheme.as_ref(), &driver, &workload, q))
        .collect()
}

/// Renders one explained query in the requested format.
///
/// Text output leads with a header (scheme, query, range, outcome) and
/// the tree; `jsonl` output leads with a `"type":"query"` header line
/// carrying the reported totals, then the raw event lines — the shape
/// `schemas/trace.schema.json` validates.
pub fn render(cfg: &TraceExplainConfig, e: &Explained, format: Format) -> String {
    match format {
        Format::Text => {
            let mut s = String::new();
            let _ = writeln!(
                s,
                "query {} on {} (N = {}, workload {}, seed {:#x})",
                e.query, cfg.scheme, cfg.n, cfg.workload, cfg.seed
            );
            let _ = writeln!(
                s,
                "range [{:.3}, {:.3}] \u{2192} {} results, exact: {}",
                e.range.0,
                e.range.1,
                e.outcome.results.len(),
                e.outcome.exact
            );
            s.push_str(&e.trace.explain_text());
            s
        }
        Format::Jsonl => {
            let mut s = query_header_line(cfg, e);
            s.push('\n');
            s.push_str(&e.trace.to_jsonl());
            s
        }
        Format::Chrome => e.trace.to_chrome(),
    }
}

/// Runs and renders one query.
///
/// # Errors
///
/// Propagates [`explain_one`] errors.
pub fn run_one(cfg: &TraceExplainConfig, q: usize, format: Format) -> Result<String, SchemeError> {
    let e = explain_one(cfg, q)?;
    Ok(render(cfg, &e, format))
}

/// Runs a `1/k` sample and concatenates the renderings (text gets a blank
/// line between queries; `jsonl` concatenates line streams — the sampled
/// stream is a strict subset of the `1/1` stream by construction).
///
/// # Errors
///
/// Propagates [`explain_sampled`] errors; refuses [`Format::Chrome`],
/// which has no multi-query concatenation.
pub fn run_sampled(
    cfg: &TraceExplainConfig,
    k: u64,
    format: Format,
) -> Result<String, SchemeError> {
    if format == Format::Chrome {
        return Err(SchemeError::Query(
            "chrome format renders one query; use --query, or --format jsonl with --sample".into(),
        ));
    }
    let explained = explain_sampled(cfg, k)?;
    let mut out = String::new();
    for (i, e) in explained.iter().enumerate() {
        if format == Format::Text && i > 0 {
            out.push('\n');
        }
        out.push_str(&render(cfg, e, format));
    }
    Ok(out)
}

/// The `"type":"query"` JSON-Lines header: which query the following
/// events explain, and the totals the tree was verified against.
fn query_header_line(cfg: &TraceExplainConfig, e: &Explained) -> String {
    format!(
        "{{\"type\":\"query\",\"q\":{},\"scheme\":\"{}\",\"delay\":{},\"latency_ms\":{},\
         \"messages\":{},\"results\":{},\"exact\":{}}}",
        e.query,
        json_escape(&cfg.scheme),
        e.outcome.delay,
        e.outcome.latency,
        e.outcome.messages,
        e.outcome.results.len(),
        e.outcome.exact
    )
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The configured cell — the stack built and loaded with `n` records —
/// plus the driver and workload the explain replays run under. The build
/// seed follows the baseline convention (`seed ^ fnv1a(scheme)`), so
/// explains line up with baseline cells of the same seed.
fn build(
    cfg: &TraceExplainConfig,
) -> Result<(Box<dyn dht_api::RangeScheme>, ParallelDriver, WorkloadGen), SchemeError> {
    let seed = cfg.seed ^ dht_api::fnv1a(cfg.scheme.as_bytes());
    let scheme = cell::build(&standard_registry(), &cfg.scheme, cfg.n, cfg.object_id_len, seed)?;
    let workload = WorkloadGen::named(&cfg.workload, cell::DOMAIN)?;
    Ok((scheme, cell::driver(cfg.queries, cfg.seed, 1), workload))
}

/// Replays one query on an already-built scheme and accounting-checks it.
fn explain_with(
    cfg: &TraceExplainConfig,
    scheme: &dyn dht_api::RangeScheme,
    driver: &ParallelDriver,
    workload: &WorkloadGen,
    q: usize,
) -> Result<Explained, SchemeError> {
    if q >= cfg.queries {
        return Err(SchemeError::Query(format!(
            "query index {q} out of range (batch runs 0..{})",
            cfg.queries
        )));
    }
    let (outcome, trace) = driver.trace_one(scheme, workload, q)?;
    verify_accounting(&outcome, &trace).map_err(|e| {
        SchemeError::Query(format!("accounting mismatch on query {q} of {}: {e}", cfg.scheme))
    })?;
    let range = workload.range(driver.seed, q as u64);
    Ok(Explained { query: q, range, outcome, trace })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scheme: &str) -> TraceExplainConfig {
        TraceExplainConfig {
            scheme: scheme.to_string(),
            n: 120,
            queries: 64,
            ..TraceExplainConfig::default()
        }
    }

    #[test]
    fn explain_matches_the_untraced_driver_query() {
        let cfg = quick("pira");
        let e = explain_one(&cfg, 7).unwrap();
        // The replayed query must be byte-for-byte the driver's query 7.
        let (scheme, driver, workload) = build(&cfg).unwrap();
        let (lo, hi) = workload.range(driver.seed, 7);
        let origin = driver.query_origin(scheme.as_ref(), 7);
        let plain = scheme.range_query(origin, lo, hi, driver.query_seed(7)).unwrap();
        assert_eq!(e.outcome.results, plain.results);
        assert_eq!(e.outcome.delay, plain.delay);
        assert_eq!(e.outcome.latency, plain.latency);
        assert_eq!(e.outcome.messages, plain.messages);
    }

    #[test]
    fn accounting_holds_through_the_full_suffix_stack() {
        // The acceptance spec's worked example: replication + WAN pricing
        // + loss with a retry budget, all composed.
        let cfg = quick("pira+r3@wan@lossy-10/r2");
        for q in [0, 3, 11] {
            let e = explain_one(&cfg, q).unwrap();
            assert_eq!(
                e.trace.root.total(),
                (e.outcome.delay, e.outcome.latency, e.outcome.messages)
            );
        }
    }

    #[test]
    fn renders_are_deterministic_and_carry_the_header() {
        let cfg = quick("seqwalk");
        let a = run_one(&cfg, 5, Format::Jsonl).unwrap();
        let b = run_one(&cfg, 5, Format::Jsonl).unwrap();
        assert_eq!(a, b, "jsonl must be byte-identical across runs");
        let first = a.lines().next().unwrap();
        assert!(first.contains("\"type\":\"query\""), "{first}");
        assert!(first.contains("\"q\":5"), "{first}");
        let text = run_one(&cfg, 5, Format::Text).unwrap();
        assert!(text.contains("query 5 on seqwalk"), "{text}");
        assert!(text.contains("total: delay"), "{text}");
        let chrome = run_one(&cfg, 5, Format::Chrome).unwrap();
        assert!(chrome.starts_with('[') && chrome.ends_with(']'));
    }

    #[test]
    fn sampling_is_a_pure_strict_subset() {
        let all = sampled_indices(512, 1);
        assert_eq!(all.len(), 512, "1/1 selects everything");
        let some = sampled_indices(512, 8);
        assert!(!some.is_empty() && some.len() < 512, "1/8 thins ({} left)", some.len());
        assert!(some.iter().all(|q| all.contains(q)));
        assert_eq!(some, sampled_indices(512, 8), "selection is pure");
        // And the rendered sampled stream is a line-subset of the full one.
        let cfg = TraceExplainConfig { queries: 24, n: 100, ..quick("pira") };
        let full = run_sampled(&cfg, 1, Format::Jsonl).unwrap();
        let sampled = run_sampled(&cfg, 4, Format::Jsonl).unwrap();
        assert!(!sampled.is_empty());
        let full_lines: std::collections::BTreeSet<&str> = full.lines().collect();
        for line in sampled.lines() {
            assert!(full_lines.contains(line), "sampled line missing from full stream: {line}");
        }
        assert!(sampled.lines().count() < full.lines().count());
    }

    #[test]
    fn chrome_refuses_multi_query_sampling() {
        let cfg = quick("pira");
        assert!(run_sampled(&cfg, 4, Format::Chrome).is_err());
    }

    #[test]
    fn out_of_range_indices_and_unknown_workloads_err() {
        let cfg = quick("pira");
        assert!(explain_one(&cfg, cfg.queries).is_err());
        let bad = TraceExplainConfig { workload: "no-such".into(), ..quick("pira") };
        assert!(explain_one(&bad, 0).is_err());
    }
}
