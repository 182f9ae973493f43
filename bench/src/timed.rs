//! The untraced run of one workload: set-up samples, an oracle-checked
//! warm-up slice, then identical measured slices for `--seconds`. Every
//! end-to-end metric comes from here; nothing in this file runs under the
//! counting allocator or records a span.

use crate::machine::{MachineClock, Timed};
use crate::spec::Workload;
use crate::stack::{self, Built};
use crate::stats;
use dht_api::{DigestReport, DriverReport, SchemeRegistry};
use std::time::Instant;

/// How long and how much to measure.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Wall seconds the measured slices may take (`--seconds`).
    pub seconds: f64,
    /// Upper limit on measured slices (`--slices`), if any.
    pub max_slices: Option<usize>,
    /// Whether to repeat the set-up for `setup_s` samples: yes for an
    /// end-to-end run, no for the short reference before a traced run
    /// (which reports no `setup_s`).
    pub repeat_setup: bool,
}

/// Fewest set-ups and measured slices an end-to-end run takes, whatever
/// the budget: a median needs three values.
const MIN_SAMPLES: usize = 3;
/// Set-ups stop once they have used this much wall time …
const SETUP_BUDGET_S: f64 = 2.0;
/// … or this many samples.
const MAX_SETUPS: usize = 15;

/// What one run of one workload produced.
pub struct RunOutput {
    /// Every output checked was correct (oracle, digests, paper bounds).
    pub correct: bool,
    /// Queries executed.
    pub attempted: u64,
    /// Queries that failed a check.
    pub failed: u64,
    /// `(name, value)` in `spec` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines about what was checked and what failed.
    pub notes: Vec<String>,
    /// Each measured slice, in run order.
    pub slices: Vec<Timed>,
    /// Digest every slice's report must carry.
    pub digest: u64,
}

/// The paper's bounds on a bare PIRA batch: the worst delay stays under
/// 2·log₂N and the mean under log₂N. Returns the violated ones.
pub fn paper_bound_violations(report: &DriverReport, n: usize) -> Vec<String> {
    let log_n = (n as f64).log2();
    let mut out = Vec::new();
    if report.delay.max >= 2.0 * log_n {
        out.push(format!("delay max {} >= 2*log2(N) = {:.2}", report.delay.max, 2.0 * log_n));
    }
    if report.delay.mean >= log_n {
        out.push(format!("delay mean {:.3} >= log2(N) = {log_n:.2}", report.delay.mean));
    }
    out
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM in /proc/self/status (Linux only)");
    kb / 1024.0
}

/// Builds the workload's stack, dropping the previous one first so peak
/// RSS is one stack's, and records the set-up time.
fn rebuild(
    reg: &SchemeRegistry,
    w: &Workload,
    seed: u64,
    clock: &mut MachineClock,
    slot: &mut Option<Built>,
    setups: &mut Vec<Timed>,
) {
    *slot = None;
    let (built, timed) = clock.time(|| stack::build(reg, w.stack, w.n, seed));
    setups.push(timed);
    *slot = Some(built);
}

/// The normalized durations of `sections`, in seconds.
fn seconds(sections: &[Timed]) -> Vec<f64> {
    sections.iter().map(|t| t.ns / 1e9).collect()
}

/// Runs the workload untraced.
///
/// # Errors
///
/// A query returned `Err`: the workloads are chosen so that none does.
pub fn run(w: &Workload, opts: &RunOpts) -> Result<RunOutput, String> {
    let reg = stack::registry();
    let gen = stack::workload_gen(w.mix);
    let driver = stack::driver(w.slice_queries, opts.seed);
    let fail = |e: dht_api::SchemeError| format!("{}: query failed: {e}", w.name);
    let mut notes = Vec::new();
    let mut correct = true;

    let mut clock = MachineClock::new();
    let mut slot = None;
    let mut setups: Vec<Timed> = Vec::new();
    rebuild(&reg, w, opts.seed, &mut clock, &mut slot, &mut setups);

    // Warm-up slice, which is also the correctness gate: every query of a
    // batch is checked against the brute-force oracle. In epoch mode the
    // slice itself has no per-query sink, so its own exactness flags are
    // checked and the oracle batch runs on the post-churn stack.
    let built = slot.as_mut().expect("built above");
    let (reference, _) =
        stack::run_slice(w, &driver, built.scheme.as_mut(), &gen, &mut clock).map_err(fail)?;
    // (Timed only so that the first measured slice has a fresh yardstick
    // reading on its near side.)
    let (checked, _) =
        clock.time(|| stack::checked_batch(&driver, built.scheme.as_ref(), &gen, &built.oracle));
    let (checked, rejected) = checked.map_err(fail)?;
    let mut attempted = (reference.queries + checked.queries) as u64;
    let mut failed = rejected as u64;
    if w.churn.is_some() {
        // Every epoch ends stabilized, so every answer must be exact.
        failed += ((1.0 - reference.exact_rate) * reference.queries as f64).round() as u64;
    }
    notes.push(format!("oracle: {} of {} queries rejected", failed, checked.queries));
    if w.paper_bounds {
        for v in paper_bound_violations(&reference, w.n) {
            correct = false;
            notes.push(format!("paper bound violated: {v}"));
        }
    }
    let digest = DigestReport::of(&reference);
    // What a user pays in memory: one set-up and one batch. The repeats
    // below are the benchmark's, not the user's, so the mark is read here.
    let peak_rss_mb = peak_rss_mb();

    // More set-up samples. Epoch-mode slices change the membership, so
    // there each measured slice starts from a fresh set-up of its own and
    // those are the samples.
    let within_budget = |setups: &[Timed]| {
        setups.iter().map(|t| t.raw_ns).sum::<f64>() < SETUP_BUDGET_S * 1e9
            && setups.len() < MAX_SETUPS
    };
    while opts.repeat_setup
        && w.churn.is_none()
        && (setups.len() < MIN_SAMPLES || within_budget(&setups))
    {
        rebuild(&reg, w, opts.seed, &mut clock, &mut slot, &mut setups);
    }

    let mut slices: Vec<Timed> = Vec::new();
    let window = Instant::now();
    while slices.len() < MIN_SAMPLES
        || (window.elapsed().as_secs_f64() < opts.seconds
            && opts.max_slices.is_none_or(|cap| slices.len() < cap))
    {
        if w.churn.is_some() {
            rebuild(&reg, w, opts.seed, &mut clock, &mut slot, &mut setups);
        }
        let scheme = slot.as_mut().expect("built above").scheme.as_mut();
        let (report, timed) =
            stack::run_slice(w, &driver, scheme, &gen, &mut clock).map_err(fail)?;
        slices.push(timed);
        attempted += report.queries as u64;
        if DigestReport::of(&report) != digest {
            correct = false;
            failed += report.queries as u64;
            notes.push(format!("slice {} digest differs from the first", slices.len()));
        }
    }
    correct &= failed == 0;

    // Durations are normalized to the nominal machine speed (see
    // `machine`), which leaves two-sided noise: report medians.
    let queries = w.queries_per_slice() as f64;
    let queries_per_s = queries / stats::median(&seconds(&slices));
    let msgs_per_query = reference.messages.mean;
    let metrics = vec![
        ("setup_s", stats::median(&seconds(&setups))),
        ("queries_per_s", queries_per_s),
        ("host_ns_per_msg", 1e9 / (queries_per_s * msgs_per_query)),
        ("peak_rss_mb", peak_rss_mb),
        ("delay_hops_mean", reference.delay.mean),
        ("msgs_per_query", msgs_per_query),
        ("mesg_ratio_mean", reference.mesg_ratio.mean),
        ("recall_mean", reference.recall.mean),
    ];
    let raw_ms = |sections: &[Timed]| -> String {
        sections.iter().map(|t| format!("{:.1}", t.raw_ns / 1e6)).collect::<Vec<_>>().join(" ")
    };
    let walk: Vec<f64> = slices.iter().map(|t| t.ns_per_step).collect();
    notes.push(format!("{} set-ups, raw ms: {}", setups.len(), raw_ms(&setups)));
    notes.push(format!(
        "{} measured slices of {queries} queries, raw ms: {}",
        slices.len(),
        raw_ms(&slices)
    ));
    notes.push(format!(
        "machine: {:.1} ns/step median during the slices (nominal {})",
        stats::median(&walk),
        crate::machine::NOMINAL_NS_PER_STEP
    ));
    Ok(RunOutput { correct, attempted, failed, metrics, notes, slices, digest: digest.value() })
}
