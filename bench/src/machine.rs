//! Timing on a box whose speed drifts.
//!
//! The simulator is bound by cache and memory latency (ordered maps,
//! pointer-linked routing state), and on a shared box that latency moves
//! by tens of percent, in spells of tens of seconds, with the other
//! tenants' memory traffic — while a pure ALU loop stays flat to 3 %. A
//! spell outlasts a run, so no estimator over one run's raw wall times
//! repeats: over ten 8 s windows of one `pira-narrow` slice the median
//! moved 21 % and even the fastest slice 13 % (quartile distance over
//! median; the full numbers are in `README.md`, "Steadiness").
//!
//! So every end-to-end duration is measured against a yardstick taken
//! right beside it: one pass of a dependent-load walk over a 2 MiB cyclic
//! permutation (the size whose slowdown tracked the library's best: 4–8 %
//! residual spread on `pira-narrow`, `pira-scan` and `pht-chord-uniform`).
//! The pass runs cold — the section before it has pushed the table out of
//! the private caches — so it pays what the library pays: fetching lines
//! back through the shared cache the other tenants are thrashing. (A
//! second, warm pass reads 22 ns/step whatever the neighbours do; it
//! measures nothing.) A lap's wall time is divided by the mean of the
//! readings on its two sides and multiplied by [`NOMINAL_NS_PER_STEP`],
//! i.e. converted to the seconds it would have taken on a box walking at
//! the nominal speed. The walk is the benchmark's own code and touches
//! nothing of the library, so a change to the library moves the
//! normalized figure exactly as much as it moves the raw one. The raw
//! figures are reported too (per-layer `bench.slice_qps_median`,
//! `bench.machine_ns_per_step`, and every run's notes).

use std::hint::black_box;
use std::time::Instant;

/// Walk speed the normalized figures are quoted at: this box's usual
/// speed, so normalized and raw seconds agree when the box is at ease.
pub const NOMINAL_NS_PER_STEP: f64 = 50.0;

/// Entries of the permutation (`u32` each: 2 MiB).
const ENTRIES: usize = 1 << 19;
/// Dependent loads per reading (about 5 ms; three visits per cache line).
const STEPS: usize = 100_000;

/// One timed section: its wall time and the same converted to the
/// nominal machine speed.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall nanoseconds.
    pub raw_ns: f64,
    /// Nanoseconds at [`NOMINAL_NS_PER_STEP`].
    pub ns: f64,
    /// The yardstick reading the conversion amounts to, nanoseconds per
    /// step (with several laps: their time-weighted harmonic mean).
    pub ns_per_step: f64,
}

/// The yardstick: a single-cycle random permutation, a cursor on it, and
/// the reading taken at the end of the previous timed section.
pub struct MachineClock {
    next: Vec<u32>,
    cursor: u32,
    last: Option<f64>,
}

impl Default for MachineClock {
    fn default() -> Self {
        MachineClock::new()
    }
}

impl MachineClock {
    /// Builds the permutation (a fixed one: the yardstick is not an input).
    pub fn new() -> MachineClock {
        // Fisher–Yates with a xorshift stream, then link the shuffled
        // order into one cycle so a walk never falls into a short loop.
        let mut order: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; ENTRIES];
        for i in 0..ENTRIES {
            next[order[i] as usize] = order[(i + 1) % ENTRIES];
        }
        MachineClock { next, cursor: 0, last: None }
    }

    /// Nanoseconds per dependent load of one pass, right now.
    fn reading(&mut self) -> f64 {
        let start = Instant::now();
        let mut i = self.cursor;
        for _ in 0..STEPS {
            i = self.next[i as usize];
        }
        self.cursor = black_box(i);
        start.elapsed().as_nanos() as f64 / STEPS as f64
    }

    /// Starts a timed section that can be cut into laps, each with a
    /// yardstick reading of its own at its end.
    pub fn begin(&mut self) -> Section<'_> {
        Section { clock: self, raw_ns: 0.0, ns: 0.0, lap_start: Instant::now() }
    }

    /// Times `section` as a single lap.
    pub fn time<T>(&mut self, section: impl FnOnce() -> T) -> (T, Timed) {
        let timer = self.begin();
        let value = section();
        (value, timer.finish())
    }
}

/// A timed section in progress. Every lap is normalized by the readings on
/// its own two sides; the reading that ends one lap begins the next, so a
/// lap costs one pass and every pass follows real work (only the very first
/// lap of a run has a reading on one side alone).
pub struct Section<'c> {
    clock: &'c mut MachineClock,
    raw_ns: f64,
    ns: f64,
    lap_start: Instant,
}

impl Section<'_> {
    /// Ends the current lap here and starts the next after the reading
    /// (the pass itself is not part of either lap).
    pub fn lap(&mut self) {
        let raw_ns = self.lap_start.elapsed().as_nanos() as f64;
        let after = self.clock.reading();
        let ns_per_step = (self.clock.last.unwrap_or(after) + after) / 2.0;
        self.clock.last = Some(after);
        self.raw_ns += raw_ns;
        self.ns += raw_ns * NOMINAL_NS_PER_STEP / ns_per_step;
        self.lap_start = Instant::now();
    }

    /// Ends the last lap and the section.
    pub fn finish(mut self) -> Timed {
        self.lap();
        let Section { raw_ns, ns, .. } = self;
        Timed { raw_ns, ns, ns_per_step: raw_ns * NOMINAL_NS_PER_STEP / ns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_one_cycle_and_readings_are_plausible() {
        let mut clock = MachineClock::new();
        let mut seen = vec![false; ENTRIES];
        let mut i = 0u32;
        for _ in 0..ENTRIES {
            assert!(!seen[i as usize], "short cycle");
            seen[i as usize] = true;
            i = clock.next[i as usize];
        }
        assert_eq!(i, 0, "the walk closes after visiting every entry");
        let ((), t) = clock.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(t.raw_ns >= 2e6 && t.ns > 0.0 && t.ns_per_step > 0.1 && t.ns_per_step < 10_000.0);
    }
}
