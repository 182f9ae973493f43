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
//! [`SimScratch`]: crate::SimScratch

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
    fn scratch_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QueryScratch>();
    }
}
