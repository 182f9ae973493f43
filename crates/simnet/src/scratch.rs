//! Type-erased per-thread scratch for query hot paths.
//!
//! A [`QueryScratch`] is a small heterogeneous bag of reusable buffers:
//! each scheme stashes its own scratch type (a [`SimScratch`] plus
//! whatever working buffers its routing loop needs) under the type's
//! [`TypeId`] and gets the same instance back on the next query. Drivers
//! own one per worker thread and hand it to every query in its
//! `QueryCtx`, so a sharded sweep pays each scheme's setup allocations
//! once per thread instead of once per query.
//!
//! Reuse is observationally inert: every slot is reset by its scheme at
//! the start of a query, so results, metrics, digests, and traces are
//! bit-identical to the scratch-free path (the scheme differential and
//! hasher-perturbation suites pin this).
//!
//! [`Answers`] is the one piece of such state the flooding and descent
//! engines share: the due/answered ledger a query's exactness is checked
//! against.
//!
//! [`SimScratch`]: crate::SimScratch

use crate::NodeId;
use std::any::{Any, TypeId};

/// A heterogeneous, type-indexed bag of reusable per-thread query state.
#[derive(Default)]
pub struct QueryScratch {
    // A linear scan keyed on TypeId: schemes use a handful of slot types,
    // and a Vec keeps iteration order deterministic (no hasher state).
    slots: Vec<(TypeId, Box<dyn Any + Send>)>,
}

impl QueryScratch {
    /// An empty scratch; slots materialize on first access.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scratch slot for `T`, created via `T::default()` on first
    /// access. Callers must treat the contents as dirty — reset whatever
    /// state matters before use (capacity is the only thing worth
    /// carrying over).
    pub fn slot<T: Default + Send + 'static>(&mut self) -> &mut T {
        let id = TypeId::of::<T>();
        let idx = match self.slots.iter().position(|(t, _)| *t == id) {
            Some(i) => i,
            None => {
                self.slots.push((id, Box::new(T::default())));
                self.slots.len() - 1
            }
        };
        self.slots[idx].1.downcast_mut::<T>().expect("slot is keyed by its own TypeId")
    }

    /// Number of distinct slot types materialized so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot has been materialized.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl std::fmt::Debug for QueryScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryScratch").field("slots", &self.slots.len()).finish()
    }
}

/// A query's answer bookkeeping, kept in an engine's scratch slot across
/// queries: which nodes answered against which were due, when each first
/// heard the query, and the records they handed over.
///
/// A node is any dense index an engine keys its peers by: a [`NodeId`] for
/// DCF's zones, a routing-table rank (the peer's position in PeerID order)
/// for the FissionE descent, whose destinations are then one range of
/// consecutive indices. One stamp per node replaces two ordered sets:
/// `epoch` marks a ground-truth destination of the current query and
/// `epoch + 1` one that has answered; stamps of earlier queries match
/// neither, so starting a query costs only its destinations — whatever the
/// membership did to the node table in between. Beside the stamps, one cost
/// per node holds the cheapest delivery that answered for it (meaningful
/// only once stamped answered, so it is never reset), and the answered
/// nodes are listed in answer order: the query's
/// [`latency`](Self::latency) is a pass over that list, not a sort of every
/// delivery.
///
/// The records are ids (`u64`s or newtypes of one), handed over in any
/// order and possibly more than once. [`results`](Self::results) returns
/// them ascending and distinct without a sort when they are *dense* — the
/// largest below 64 times their count: each sets one bit of a bitmap the
/// ledger keeps, and the bits are read back in order and cleared. Sparser
/// ids are sorted and deduplicated.
pub struct Answers<R> {
    stamps: Vec<u32>,
    /// The cheapest accumulated cost an answering delivery carried, per
    /// node stamped answered.
    costs: Vec<u64>,
    epoch: u32,
    due: usize,
    /// Nodes that answered the current query, each once, in answer order.
    answered: Vec<NodeId>,
    /// A node outside the ground truth answered.
    stray: bool,
    records: Vec<R>,
    /// Bit `id` set for each dense record id; all clear between calls to
    /// [`results`](Self::results), which grows it to the largest id seen.
    bits: Vec<u64>,
}

#[cfg(test)]
impl<R> Answers<R> {
    /// Jumps the generation counter (the wrap is 2³¹ queries away).
    pub(crate) fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

impl<R> Default for Answers<R> {
    fn default() -> Self {
        Answers {
            stamps: Vec::new(),
            costs: Vec::new(),
            epoch: 0,
            due: 0,
            answered: Vec::new(),
            stray: false,
            records: Vec::new(),
            bits: Vec::new(),
        }
    }
}

impl<R: Copy + Ord> Answers<R> {
    /// Starts a query over nodes below `node_bound` whose ground-truth
    /// destinations are `truth` (distinct).
    pub fn begin(&mut self, node_bound: usize, truth: impl IntoIterator<Item = NodeId>) {
        if self.stamps.len() < node_bound {
            self.stamps.resize(node_bound, 0);
            self.costs.resize(node_bound, 0);
        }
        if self.epoch > u32::MAX - 3 {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        self.due = 0;
        for node in truth {
            self.stamps[node] = self.epoch;
            self.due += 1;
        }
        self.stray = false;
        self.answered.clear();
        self.records.clear();
    }

    /// Whether `node` is a ground-truth destination of the current query,
    /// answered or not. (A stray that has answered reads as due as well;
    /// [`exact`](Self::exact) is what reports it.)
    pub fn is_due(&self, node: NodeId) -> bool {
        self.stamps[node].wrapping_sub(self.epoch) < 2
    }

    /// Whether `node` has answered the current query.
    pub fn answered(&self, node: NodeId) -> bool {
        self.stamps[node] == self.epoch + 1
    }

    /// Records an answer from `node` by a delivery whose accumulated cost
    /// is `cost`; `true` the first time it answers. A repeat answer only
    /// lowers the node's arrival cost if it came cheaper.
    pub fn first_answer(&mut self, node: NodeId, cost: u64) -> bool {
        let stamp = &mut self.stamps[node];
        if *stamp == self.epoch + 1 {
            self.costs[node] = self.costs[node].min(cost);
            return false;
        }
        self.stray |= *stamp != self.epoch;
        *stamp = self.epoch + 1;
        self.costs[node] = cost;
        self.answered.push(node);
        true
    }

    /// Adds a matching record an answering node holds.
    pub fn push(&mut self, record: R) {
        self.records.push(record);
    }

    /// Ground-truth destinations of the current query.
    pub fn due(&self) -> usize {
        self.due
    }

    /// Distinct nodes that answered.
    pub fn reached(&self) -> usize {
        self.answered.len()
    }

    /// When the query completed: the largest, over the nodes that answered
    /// (strays too), of the cheapest cost among the deliveries each answered
    /// by — when the last of them first heard it. Zero when none answered.
    /// A max of mins, so the order deliveries came in does not matter.
    pub fn latency(&self) -> u64 {
        self.answered.iter().map(|&node| self.costs[node]).max().unwrap_or(0)
    }

    /// Whether the nodes that answered are exactly the ground truth: none
    /// outside it, and as many as it holds.
    pub fn exact(&self) -> bool {
        !self.stray && self.answered.len() == self.due
    }
}

impl<R: Copy + Ord + From<u64> + Into<u64>> Answers<R> {
    /// The query's result set: the records handed over, ascending and
    /// distinct, in one allocation of at most their number. Dense ids (the
    /// largest below 64 × their count) go through the bitmap, in
    /// `O(count + largest / 64)`; sparser ones are sorted and deduplicated.
    pub fn results(&mut self) -> Vec<R> {
        let count = self.records.len();
        let Some(largest) = self.records.iter().map(|&r| r.into()).max() else {
            return Vec::new();
        };
        if largest / 64 >= count as u64 {
            self.records.sort_unstable();
            self.records.dedup();
            return self.records.clone();
        }
        let words = largest as usize / 64 + 1;
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
        for &record in &self.records {
            let id: u64 = record.into();
            self.bits[id as usize / 64] |= 1 << (id % 64);
        }
        let mut results = Vec::with_capacity(count);
        for (word, bits) in (0u64..).zip(&mut self.bits[..words]) {
            let mut rest = std::mem::take(bits);
            while rest != 0 {
                results.push(R::from(word * 64 + u64::from(rest.trailing_zeros())));
                rest &= rest - 1;
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Default)]
    struct A {
        buf: Vec<u32>,
    }

    #[derive(Default)]
    struct B {
        n: usize,
    }

    #[test]
    fn slots_persist_per_type() {
        let mut s = QueryScratch::new();
        s.slot::<A>().buf.push(7);
        s.slot::<B>().n = 3;
        assert_eq!(s.slot::<A>().buf, vec![7]);
        assert_eq!(s.slot::<B>().n, 3);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn capacity_survives_a_clear() {
        let mut s = QueryScratch::new();
        let a = s.slot::<A>();
        a.buf.extend(0..100);
        a.buf.clear();
        assert!(s.slot::<A>().buf.capacity() >= 100);
    }

    #[test]
    fn answers_check_exactness_against_the_due_set() {
        let mut a = Answers::<u64>::default();
        a.begin(8, [1, 4, 6]);
        assert!(a.is_due(4) && !a.is_due(0) && !a.is_due(7));
        assert!(!a.answered(4));
        assert!(a.first_answer(4, 9) && !a.first_answer(4, 7));
        assert!(a.is_due(4), "an answered destination is still one");
        assert!(a.answered(4) && !a.answered(1) && !a.answered(0));
        a.push(9);
        a.push(3);
        a.push(9);
        assert_eq!((a.reached(), a.exact(), a.latency()), (1, false, 7));
        assert!(a.first_answer(1, 5) && a.first_answer(6, 2));
        assert!(a.exact());
        assert_eq!(a.latency(), 7, "the last node to first hear it heard it at 7");
        assert_eq!(a.results(), vec![3, 9]);
        // A node outside the ground truth spoils exactness, never the count,
        // and its arrival counts toward the latency.
        a.begin(8, [2]);
        assert_eq!(a.latency(), 0, "nothing answered yet");
        assert!(a.first_answer(2, 1) && a.first_answer(5, 4));
        assert_eq!((a.reached(), a.exact(), a.latency()), (2, false, 4));
        assert!(a.results().is_empty());
    }

    #[test]
    fn stamps_of_earlier_queries_match_nothing_across_the_generation_wrap() {
        let mut a = Answers::<u64>::default();
        // Stamp the last generation before the wrap, answered and not…
        a.set_epoch(u32::MAX - 3);
        a.begin(6, 0..3);
        assert!(a.first_answer(1, 0));
        // …then wrap: every old stamp, due (MAX − 1) or answered (MAX),
        // must read as neither in the restarted numbering, and a grown
        // node table starts clean.
        a.begin(9, [3]);
        assert_eq!((0..9).filter(|&n| a.is_due(n)).collect::<Vec<_>>(), vec![3]);
        assert!(a.first_answer(3, 0) && a.exact());
        a.begin(9, [1, 8]);
        assert_eq!((0..9).filter(|&n| a.is_due(n)).collect::<Vec<_>>(), vec![1, 8]);
        assert!(a.first_answer(1, 0) && !a.exact());
    }

    /// The reference [`Answers::latency`] replaced: every answering
    /// delivery logged as `(node, cost)`, sorted, and reduced to the max
    /// over nodes of each node's cheapest arrival. Zero for an empty log.
    fn last_first_arrival(log: &mut [(NodeId, u64)]) -> u64 {
        log.sort_unstable();
        let mut worst = 0;
        let mut i = 0;
        while i < log.len() {
            let (node, first) = log[i];
            worst = worst.max(first); // sorted: a node's first entry is its min
            while i < log.len() && log[i].0 == node {
                i += 1;
            }
        }
        worst
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn latency_is_the_last_first_arrival_of_the_delivery_log(
            bound in 1usize..24,
            rounds in prop::collection::vec(
                (
                    prop::collection::vec(any::<u64>(), 0..12),
                    prop::collection::vec((any::<u64>(), 0u64..64), 0..48),
                ),
                1..5,
            ),
        ) {
            // One ledger across every round: costs from an earlier query
            // (the column is never reset) must not leak into a later one.
            let mut answers = Answers::<u64>::default();
            for (truth_raw, deliveries) in rounds {
                let mut truth: Vec<NodeId> =
                    truth_raw.iter().map(|&r| (r % bound as u64) as NodeId).collect();
                truth.sort_unstable();
                truth.dedup();
                answers.begin(bound, truth.iter().copied());
                prop_assert_eq!(answers.due(), truth.len());
                // Repeats and strays alike: small ids collide often.
                let mut log: Vec<(NodeId, u64)> = deliveries
                    .iter()
                    .map(|&(node, cost)| ((node % bound as u64) as NodeId, cost))
                    .collect();
                for &(node, cost) in &log {
                    answers.first_answer(node, cost);
                }
                let mut distinct: Vec<NodeId> = log.iter().map(|&(node, _)| node).collect();
                distinct.sort_unstable();
                distinct.dedup();
                prop_assert_eq!(answers.reached(), distinct.len());
                prop_assert_eq!(answers.latency(), last_first_arrival(&mut log));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn results_are_the_sorted_distinct_records_either_side_of_the_density_rule(
            rounds in prop::collection::vec(
                (
                    prop_oneof![Just(1u64), Just(64), Just(4096), Just(1 << 20), Just(u64::MAX)],
                    prop::collection::vec((any::<u64>(), 0usize..3), 0..96),
                ),
                1..6,
            ),
        ) {
            // One ledger across every round: a larger earlier query's bits
            // must not leak into a later one.
            let mut answers = Answers::<u64>::default();
            for (span, draws) in rounds {
                answers.begin(0, []);
                // Ids below `span`, each handed over one to three times:
                // small spans are dense, `u64::MAX` sparse up to its top.
                let mut expect = Vec::new();
                for &(raw, repeats) in &draws {
                    let id = if span == u64::MAX { raw } else { raw % span };
                    for _ in 0..=repeats {
                        answers.push(id);
                        expect.push(id);
                    }
                }
                expect.sort_unstable();
                expect.dedup();
                prop_assert_eq!(answers.results(), expect);
                prop_assert!(answers.bits.iter().all(|&w| w == 0), "a read clears the bitmap");
            }
        }
    }

    #[test]
    fn results_take_both_sides_of_the_density_rule_and_clear_the_bitmap() {
        let mut a = Answers::<u64>::default();
        // Dense (largest 200 < 64 × 5), with repeats, out of order.
        a.begin(0, []);
        for id in [200, 3, 64, 3, 63] {
            a.push(id);
        }
        assert_eq!(a.results(), vec![3, 63, 64, 200]);
        assert!(a.bits.iter().all(|&w| w == 0), "the bitmap is clear after a read");
        // Sparse (largest 1 000 ≥ 64 × 2): sorted, and no bit is set.
        a.begin(0, []);
        for id in [1000, 5, 1000] {
            a.push(id);
        }
        assert_eq!(a.results(), vec![5, 1000]);
        a.begin(0, []);
        for id in [u64::MAX, 0, u64::MAX - 1] {
            a.push(id);
        }
        assert_eq!(a.results(), vec![0, u64::MAX - 1, u64::MAX]);
        // A smaller dense query after a larger one sees none of its bits.
        a.begin(0, []);
        a.push(1);
        assert_eq!(a.results(), vec![1]);
        assert!(a.bits.iter().all(|&w| w == 0));
    }

    #[test]
    fn scratch_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QueryScratch>();
    }
}
