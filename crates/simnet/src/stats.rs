//! Run statistics and aggregate summaries.

/// Counters accumulated by a [`Sim`](crate::Sim) run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Network messages sent (self-deliveries and local timers excluded).
    pub messages_sent: u64,
    /// Messages lost to the fault plan's drop probability.
    pub messages_dropped: u64,
    /// Messages lost to a hash-verdict [`LossPlan`](crate::LossPlan).
    pub messages_lost: u64,
    /// Messages refused because a [`PartitionPlan`](crate::PartitionPlan)
    /// severed the edge.
    pub messages_blocked: u64,
    /// Messages that overflowed a [`RateLimitPlan`](crate::RateLimitPlan)
    /// token bucket and accrued queueing delay (still delivered).
    pub messages_throttled: u64,
    /// Messages discarded because the receiver was crashed.
    pub messages_to_crashed: u64,
    /// Envelopes actually handed to the protocol handler.
    pub deliveries: u64,
    /// Maximum hop depth among delivered network messages — the paper's
    /// "delay" for a single protocol run under unit latency.
    pub max_hop_delivered: u32,
}

/// Aggregate statistics over a sample of measurements (the paper reports
/// averages over 1000 random queries per data point).
///
/// # Example
///
/// ```
/// use simnet::Summary;
///
/// let s = Summary::from_samples([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// assert_eq!(s.count, 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Smallest sample (0 for an empty sample).
    pub min: f64,
    /// Largest sample (0 for an empty sample).
    pub max: f64,
    /// Median (linear interpolation, 0 for an empty sample).
    pub p50: f64,
    /// 95th percentile (linear interpolation, 0 for an empty sample).
    pub p95: f64,
    /// 99th percentile (linear interpolation, 0 for an empty sample).
    pub p99: f64,
    /// Sample standard deviation (0 for fewer than 2 samples).
    pub stddev: f64,
}

impl Summary {
    /// Computes a summary from any collection of `f64` samples.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Summary {
        Samples::from_iter(samples).summarize()
    }
}

/// A mergeable sample accumulator: collect measurements shard by shard
/// (e.g. one [`Samples`] per worker thread), [`merge`](Samples::merge) in a
/// deterministic order, then [`summarize`](Samples::summarize).
///
/// Because [`Summary::from_samples`] sorts before computing every statistic,
/// the summary of merged shards is **bitwise identical** no matter how the
/// samples were partitioned — the property the parallel query driver's
/// `threads = 1` vs `threads = N` determinism contract rests on.
///
/// # Example
///
/// ```
/// use simnet::{Samples, Summary};
///
/// let mut a = Samples::new();
/// a.push(1.0);
/// a.push(4.0);
/// let mut b = Samples::new();
/// b.push(3.0);
/// b.push(2.0);
/// a.merge(b);
/// assert_eq!(a.summarize(), Summary::from_samples([1.0, 2.0, 3.0, 4.0]));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty accumulator.
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    /// Records one measurement.
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Appends every sample of `other` (consumed) to this accumulator.
    pub fn merge(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// Number of samples collected so far.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Computes the [`Summary`] of everything collected.
    pub fn summarize(self) -> Summary {
        let Samples(mut xs) = self;
        if xs.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                stddev: 0.0,
            };
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
        let count = xs.len();
        let sum: f64 = xs.iter().sum();
        let mean = sum / count as f64;
        let var = if count > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        Summary {
            count,
            mean,
            min: xs[0],
            max: xs[count - 1],
            p50: percentile(&xs, 0.50),
            p95: percentile(&xs, 0.95),
            p99: percentile(&xs, 0.99),
            stddev: var.sqrt(),
        }
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        Samples(iter.into_iter().collect())
    }
}

/// Linear-interpolated percentile of a **sorted** slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let idx = pos.floor() as usize;
    let frac = pos - idx as f64;
    if idx + 1 < sorted.len() {
        sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac
    } else {
        sorted[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::from_samples(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_samples([42.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.p50, 42.0);
        assert_eq!(s.p95, 42.0);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::from_samples((1..=100).map(f64::from));
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 1e-9);
        assert!((s.p99 - 99.01).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn merged_shards_summarize_identically_to_serial() {
        // 3 shards in order vs one flat pass: bitwise-equal summaries.
        let xs: Vec<f64> = (0..97).map(|i| ((i * 31 + 7) % 50) as f64 / 3.0).collect();
        let serial = Summary::from_samples(xs.iter().copied());
        let mut merged = Samples::new();
        for chunk in xs.chunks(33) {
            merged.merge(chunk.iter().copied().collect());
        }
        assert_eq!(merged.len(), xs.len());
        assert_eq!(merged.summarize(), serial);
    }

    #[test]
    fn stddev_matches_known_value() {
        let s = Summary::from_samples([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        // Sample stddev of this classic set is ~2.138.
        assert!((s.stddev - 2.13809).abs() < 1e-4, "stddev = {}", s.stddev);
    }

    #[test]
    fn order_does_not_matter() {
        let a = Summary::from_samples([3.0, 1.0, 2.0]);
        let b = Summary::from_samples([1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }
}
