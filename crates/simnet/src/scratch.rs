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
/// queries: which nodes answered against which were due, and the records
/// they handed over.
///
/// One stamp per [`NodeId`] replaces two ordered sets: `epoch` marks a
/// ground-truth destination of the current query and `epoch + 1` one that
/// has answered; stamps of earlier queries match neither, so starting a
/// query costs only its destinations — whatever the membership did to the
/// node table in between.
pub struct Answers<R> {
    stamps: Vec<u32>,
    epoch: u32,
    due: usize,
    reached: usize,
    /// A node outside the ground truth answered.
    stray: bool,
    records: Vec<R>,
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
            epoch: 0,
            due: 0,
            reached: 0,
            stray: false,
            records: Vec::new(),
        }
    }
}

impl<R: Copy + Ord> Answers<R> {
    /// Starts a query over node ids below `node_bound` whose ground-truth
    /// destinations are `truth` (distinct).
    pub fn begin(&mut self, node_bound: usize, truth: &[NodeId]) {
        if self.stamps.len() < node_bound {
            self.stamps.resize(node_bound, 0);
        }
        if self.epoch > u32::MAX - 3 {
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        for &node in truth {
            self.stamps[node] = self.epoch;
        }
        (self.due, self.reached, self.stray) = (truth.len(), 0, false);
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

    /// Records an answer from `node`; `true` the first time it answers.
    pub fn first_answer(&mut self, node: NodeId) -> bool {
        let stamp = &mut self.stamps[node];
        if *stamp == self.epoch + 1 {
            return false;
        }
        self.stray |= *stamp != self.epoch;
        *stamp = self.epoch + 1;
        self.reached += 1;
        true
    }

    /// Adds a matching record an answering node holds.
    pub fn push(&mut self, record: R) {
        self.records.push(record);
    }

    /// Distinct nodes that answered.
    pub fn reached(&self) -> usize {
        self.reached
    }

    /// Whether the nodes that answered are exactly the ground truth: none
    /// outside it, and as many as it holds.
    pub fn exact(&self) -> bool {
        !self.stray && self.reached == self.due
    }

    /// The query's result set: the records handed over, ascending and
    /// distinct, in one allocation of their size.
    pub fn results(&mut self) -> Vec<R> {
        self.records.sort_unstable();
        self.records.dedup();
        self.records.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        a.begin(8, &[1, 4, 6]);
        assert!(a.is_due(4) && !a.is_due(0) && !a.is_due(7));
        assert!(!a.answered(4));
        assert!(a.first_answer(4) && !a.first_answer(4));
        assert!(a.is_due(4), "an answered destination is still one");
        assert!(a.answered(4) && !a.answered(1) && !a.answered(0));
        a.push(9);
        a.push(3);
        a.push(9);
        assert_eq!((a.reached(), a.exact()), (1, false));
        assert!(a.first_answer(1) && a.first_answer(6));
        assert!(a.exact());
        assert_eq!(a.results(), vec![3, 9]);
        // A node outside the ground truth spoils exactness, never the count.
        a.begin(8, &[2]);
        assert!(a.first_answer(2) && a.first_answer(5));
        assert_eq!((a.reached(), a.exact()), (2, false));
        assert!(a.results().is_empty());
    }

    #[test]
    fn stamps_of_earlier_queries_match_nothing_across_the_generation_wrap() {
        let mut a = Answers::<u64>::default();
        // Stamp the last generation before the wrap, answered and not…
        a.set_epoch(u32::MAX - 3);
        a.begin(6, &[0, 1, 2]);
        assert!(a.first_answer(1));
        // …then wrap: every old stamp, due (MAX − 1) or answered (MAX),
        // must read as neither in the restarted numbering, and a grown
        // node table starts clean.
        a.begin(9, &[3]);
        assert_eq!((0..9).filter(|&n| a.is_due(n)).collect::<Vec<_>>(), vec![3]);
        assert!(a.first_answer(3) && a.exact());
        a.begin(9, &[1, 8]);
        assert_eq!((0..9).filter(|&n| a.is_due(n)).collect::<Vec<_>>(), vec![1, 8]);
        assert!(a.first_answer(1) && !a.exact());
    }

    #[test]
    fn scratch_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QueryScratch>();
    }
}
