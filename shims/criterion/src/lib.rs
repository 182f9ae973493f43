//! Offline drop-in subset of the `criterion` benchmark harness.
//!
//! The build environment has no access to crates.io, so the criterion API
//! surface the workspace's benches use is reimplemented here: it times each
//! benchmark over a fixed warm-up plus measured pass and prints a mean
//! per-iteration figure. A group that sets
//! [`sample_size(n)`](BenchmarkGroup::sample_size) splits the measured pass
//! into `n` samples of at least one iteration each, and prints the median
//! sample's time per iteration with the fastest and slowest sample's. No
//! further statistics, plotting, or baselines — just honest wall-clock
//! numbers so `cargo bench` keeps working offline.
//!
//! # This is not the real `criterion`
//!
//! Contributor notes: there is no outlier rejection, no confidence
//! interval, no HTML report, and no `--save-baseline` — treat the printed
//! figure as a smoke-level signal, not a publishable measurement. The
//! durable perf trajectory for this repo is the `bench_baseline` binary in
//! `armada-experiments`, which persists `BENCH_baseline.json` with
//! seed-deterministic simulated metrics next to wall-clock throughput.
//! Extend this shim only with API the real criterion has (same
//! signatures), so benches stay portable.
//!
//! # Filtering
//!
//! As with real criterion, `cargo bench --bench substrate -- 'a|b'` runs
//! only the benchmarks whose id (`group/function`) contains `a` or `b`:
//! the first command-line argument that is not a flag (cargo's `--bench`
//! is one) is split at `|` into substrings, and a benchmark matching none
//! is skipped. Unlike real criterion's regex, each piece is a plain
//! substring. With no such argument everything runs. Only the timed
//! closures are skipped: setup code a bench function runs outside its
//! `bench_function` / `bench_with_input` closures (building a network,
//! say) still runs for a filtered-out benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benched work.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Identifier of one parameterised benchmark case.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter value.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function.into(), parameter) }
    }

    /// An id carrying just a parameter value.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// How long one benchmark's measured pass aims to take, split evenly
/// between its samples.
const MEASUREMENT: Duration = Duration::from_millis(200);

/// Drives closures under measurement (`b.iter(..)`).
#[derive(Debug)]
pub struct Bencher {
    /// How many samples the measured pass is split into.
    samples: u32,
    /// Each sample's time per iteration, in the order taken.
    per_iter: Vec<Duration>,
    /// Iterations over all samples.
    iterations: u64,
}

impl Bencher {
    fn new(samples: u32) -> Self {
        Bencher { samples, per_iter: Vec::new(), iterations: 0 }
    }

    fn record(&mut self, elapsed: Duration, iters: u64) {
        self.per_iter.push(elapsed / iters as u32);
        self.iterations += iters;
    }

    /// Times `routine`, first warming up briefly, then measuring each
    /// sample over the same iteration count.
    // Wall-clock is this shim's whole job (real criterion's stopwatch is
    // wall-clock too); it never runs on a simulation or report path, and
    // detlint excludes `shims/` for the same reason.
    #[allow(clippy::disallowed_methods)]
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run until ~50ms or 10 iterations, whichever first.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_iters < 10 && warm_start.elapsed() < Duration::from_millis(50) {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed() / warm_iters.max(1) as u32;
        // Target ~200ms of measurement, clamped to a sane iteration count.
        let budget = MEASUREMENT / self.samples;
        let iters = (budget.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 100_000) as u64;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.record(start.elapsed(), iters);
        }
    }
}

impl Bencher {
    /// Times `routine` on a fresh input from `setup` per iteration; only
    /// the routine is on the clock, not the setup or dropping the output. Same warm-up and target as
    /// [`iter`](Self::iter), counting routine time alone.
    #[allow(clippy::disallowed_methods)]
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut timed = |iters: u64, budget: Duration| {
            let (mut done, mut elapsed) = (0u64, Duration::ZERO);
            while done < iters && elapsed < budget {
                let input = setup();
                let start = Instant::now();
                let output = black_box(routine(input));
                elapsed += start.elapsed();
                // Dropped off the clock, as real criterion drops a batch's
                // outputs after timing it.
                drop(output);
                done += 1;
            }
            (done, elapsed)
        };
        timed(10, Duration::from_millis(50));
        for _ in 0..self.samples {
            let (done, elapsed) = timed(100_000, MEASUREMENT / self.samples);
            self.record(elapsed, done);
        }
    }
}

/// How many inputs real criterion prepares per batch (accepted for API
/// compatibility; this shim always prepares one per iteration).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small inputs: many per batch.
    SmallInput,
    /// Large inputs: few per batch.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

/// How much one iteration processes, set on a group with
/// [`BenchmarkGroup::throughput`]. Real criterion reports a rate from it;
/// this shim prints the time per element beside the time per iteration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements (records, queries, …) per iteration.
    Elements(u64),
}

/// The command line's benchmark filter: `|`-separated substrings of the
/// ids to run; empty runs everything.
#[derive(Debug, Default, Clone)]
struct Filter(Vec<String>);

impl Filter {
    fn from_args(mut args: impl Iterator<Item = String>) -> Filter {
        match args.find(|arg| !arg.starts_with('-')) {
            Some(arg) => Filter(arg.split('|').map(str::to_string).collect()),
            None => Filter::default(),
        }
    }

    fn admits(&self, id: &str) -> bool {
        self.0.is_empty() || self.0.iter().any(|piece| id.contains(piece.as_str()))
    }
}

/// The median of `times` (the mean of the two middle ones for an even
/// count) and the smallest and largest; all zero when there are none.
fn median_and_range(times: &[Duration]) -> (Duration, Duration, Duration) {
    let mut sorted = times.to_vec();
    sorted.sort_unstable();
    match sorted.len() {
        0 => (Duration::ZERO, Duration::ZERO, Duration::ZERO),
        len => ((sorted[(len - 1) / 2] + sorted[len / 2]) / 2, sorted[0], sorted[len - 1]),
    }
}

fn run_one(
    name: &str,
    filter: &Filter,
    samples: u32,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) {
    if !filter.admits(name) {
        return;
    }
    let mut b = Bencher::new(samples);
    f(&mut b);
    let (median, min, max) = median_and_range(&b.per_iter);
    let per = match throughput {
        Some(Throughput::Elements(n)) if n > 0 => {
            format!(", {}/element", fmt_duration(median.div_f64(n as f64)))
        }
        _ => String::new(),
    };
    let spread = match b.per_iter.len() {
        0 | 1 => String::new(),
        k => format!(" in {k} samples, {} – {}", fmt_duration(min), fmt_duration(max)),
    };
    println!("{name:<40} {:>12}/iter ({} iters{spread}){per}", fmt_duration(median), b.iterations);
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    filter: Filter,
    samples: u32,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Times each of the group's next benchmarks as `n` samples, each at
    /// least one iteration, and reports the median sample.
    ///
    /// # Panics
    ///
    /// Panics if `n < 10`, as real criterion does.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 10, "sample size must be at least 10");
        self.samples = u32::try_from(n).expect("a sample count that fits u32");
        self
    }

    /// Sets how much each iteration of the group's next benchmarks
    /// processes.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benches `f` with an input value under the given id.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id);
        run_one(&label, &self.filter, self.samples, self.throughput, |b| f(b, input));
        self
    }

    /// Benches `f` under the given id.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id);
        run_one(&label, &self.filter, self.samples, self.throughput, &mut f);
        self
    }

    /// Finishes the group (no-op; reporting is incremental).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
#[derive(Debug, Default)]
pub struct Criterion {
    filter: Filter,
}

impl Criterion {
    /// Reads the benchmark filter from the process's command line (see
    /// the crate docs); [`criterion_group!`] calls this.
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        self.filter = Filter::from_args(std::env::args().skip(1));
        self
    }

    /// Benches a single function.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, &self.filter, 1, None, &mut f);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            filter: self.filter.clone(),
            samples: 1,
            throughput: None,
        }
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro:
/// each group runs under the command line's filter.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark `main`, mirroring criterion's macro: it runs
/// every group, and each group skips the benchmarks the command line's
/// filter excludes.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::{median_and_range, BatchSize, Bencher, Criterion, Filter};
    use std::time::Duration;

    fn filter(args: &[&str]) -> Filter {
        Filter::from_args(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn the_first_non_flag_argument_filters_by_substring() {
        let f = filter(&["--bench", "dcf_query|can_zones_meeting", "ignored"]);
        assert!(f.admits("dcf_query/uniform_1e4"));
        assert!(f.admits("can_zones_meeting/100000"));
        assert!(!f.admits("pira_query/scan_1e5"));
        assert!(!f.admits("ignored/1"));
    }

    #[test]
    fn no_filter_argument_runs_everything() {
        for args in [&[][..], &["--bench"][..]] {
            assert!(filter(args).admits("pira_query/scan_1e5"), "{args:?}");
        }
    }

    #[test]
    fn a_sample_size_times_that_many_samples() {
        let mut group = Criterion::default().benchmark_group("g");
        assert_eq!(group.samples, 1, "one measured pass by default");
        group.sample_size(12);
        let mut b = Bencher::new(group.samples);
        b.iter(|| std::hint::black_box(3u64).pow(5));
        assert_eq!(b.per_iter.len(), 12);
        assert!(b.iterations >= 12, "every sample runs at least once");
        let mut b = Bencher::new(group.samples);
        b.iter_batched(|| 7u64, |x| x * 2, BatchSize::SmallInput);
        assert_eq!(b.per_iter.len(), 12);
        assert!(b.iterations >= 12);
    }

    #[test]
    #[should_panic(expected = "at least 10")]
    fn a_sample_size_below_ten_is_refused() {
        Criterion::default().benchmark_group("g").sample_size(2);
    }

    #[test]
    fn the_median_sample_and_the_range_are_reported() {
        let ms = Duration::from_millis;
        assert_eq!(median_and_range(&[ms(5), ms(1), ms(3)]), (ms(3), ms(1), ms(5)));
        assert_eq!(median_and_range(&[ms(4), ms(1), ms(2), ms(9)]), (ms(3), ms(1), ms(9)));
        assert_eq!(median_and_range(&[]), (Duration::ZERO, Duration::ZERO, Duration::ZERO));
    }
}
