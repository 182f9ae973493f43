//! The hostile fault families' per-run send counters.
//!
//! Under a loss plan every network send reads and advances its directed
//! edge's attempt index; under a rate limit every send advances its
//! sender's bucket. [`SendCounts`] holds both in one open-addressed table
//! (linear probing, hashed with [`mix`](crate::net::mix)) that a recycled
//! [`Sim`](crate::Sim) hands on with its capacity: clearing walks the list
//! of slots the run filled, so it costs the entries used, and a steady
//! state of queries allocates nothing.
//!
//! Only [`get`](SendCounts::get) and [`bump`](SendCounts::bump) read the
//! table — there is no iteration, so no hash order can reach a metric,
//! digest or trace.

use crate::NodeId;

/// What one counter counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counted {
    /// Network sends along the directed edge `from → to` (`from ≠ to`).
    Edge(NodeId, NodeId),
    /// Network sends by one peer.
    Peer(NodeId),
}

impl Counted {
    /// The slot key: a peer is keyed as its own self-edge, which no edge
    /// key takes — a self-send is local and never counted.
    fn key(self) -> (u32, u32) {
        let id = |n: NodeId| u32::try_from(n).expect("node ids under a hostile plan fit u32");
        match self {
            Counted::Edge(from, to) => {
                debug_assert_ne!(from, to, "a self-send is local, never counted");
                (id(from), id(to))
            }
            Counted::Peer(peer) => (id(peer), id(peer)),
        }
    }
}

/// One slot, 12 bytes; `count == 0` marks it empty (a stored count is at
/// least 1).
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    from: u32,
    to: u32,
    count: u32,
}

/// Salt separating the table's hash from the edge-cost and verdict hashes.
const SALT: u64 = 0x5e9d_c0a7_5e9d_c0a7;

/// Send counters keyed by [`Counted`]: an open-addressed table that keeps
/// its capacity across [`clear`](SendCounts::clear).
#[derive(Debug, Default)]
pub(crate) struct SendCounts {
    /// Power-of-two length (or empty), at most three-quarters full.
    slots: Vec<Slot>,
    /// Indices of the filled slots, in fill order: what `clear` resets.
    filled: Vec<u32>,
}

impl SendCounts {
    /// The home slot of `key` in a table of `len` (a power of two) slots.
    fn home(key: (u32, u32), len: usize) -> usize {
        crate::net::mix(SALT, key.0.into(), key.1.into()) as usize & (len - 1)
    }

    /// The slot holding `key`, or the empty slot ending its probe run.
    /// The table must be non-empty.
    fn find(&self, key: (u32, u32)) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = Self::home(key, self.slots.len());
        loop {
            let s = &self.slots[i];
            if s.count == 0 || (s.from, s.to) == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The count of `what` so far (0 if never bumped).
    #[cfg(test)]
    pub(crate) fn get(&self, what: Counted) -> u64 {
        if self.slots.is_empty() {
            return 0;
        }
        self.slots[self.find(what.key())].count.into()
    }

    /// Counts one more send of `what` and returns the new count.
    pub(crate) fn bump(&mut self, what: Counted) -> u64 {
        if 4 * (self.filled.len() + 1) > 3 * self.slots.len() {
            self.grow();
        }
        let key = what.key();
        let i = self.find(key);
        let slot = &mut self.slots[i];
        if slot.count == 0 {
            (slot.from, slot.to) = key;
            self.filled.push(u32::try_from(i).expect("send-count slots fit u32"));
        }
        slot.count += 1;
        slot.count.into()
    }

    /// Forgets every count, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        for &i in &self.filled {
            self.slots[i as usize].count = 0;
        }
        self.filled.clear();
    }

    /// Doubles the table (16 slots at first) and re-homes every entry: no
    /// key repeats, so the first empty slot of its probe run is its place.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); len]);
        for f in &mut self.filled {
            let entry = old[*f as usize];
            let mut i = Self::home((entry.from, entry.to), len);
            while self.slots[i].count != 0 {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = entry;
            *f = i as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn counts_match_an_ordered_map_across_growth_and_clears() {
        let mut table = SendCounts::default();
        let mut oracle: BTreeMap<(u8, NodeId, NodeId), u64> = BTreeMap::new();
        let mut rng = crate::rng_from_seed(7);
        for round in 0..4 {
            // Few nodes, many sends: edges repeat, and the table grows past
            // 16 slots several times in the first round only.
            for _ in 0..3000 {
                use rand::Rng as _;
                let (a, b) = (rng.gen_range(0..40usize), rng.gen_range(0..40usize));
                let (what, key) = if a == b {
                    (Counted::Peer(a), (1, a, a))
                } else {
                    (Counted::Edge(a, b), (0, a, b))
                };
                let want = oracle.entry(key).or_insert(0);
                *want += 1;
                assert_eq!(table.bump(what), *want, "round {round}: {what:?}");
            }
            for (&(kind, a, b), &want) in &oracle {
                let what = if kind == 1 { Counted::Peer(a) } else { Counted::Edge(a, b) };
                assert_eq!(table.get(what), want);
            }
            let capacity = table.slots.len();
            table.clear();
            oracle.clear();
            assert_eq!(table.get(Counted::Edge(0, 1)), 0);
            assert_eq!(table.slots.len(), capacity, "clearing keeps the capacity");
        }
    }
}
