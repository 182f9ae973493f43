//! Zone adjacency: one 32-byte row per zone slot, patched in place.
//!
//! A CAN zone has four to six neighbors almost always (at `N = 10⁴` the
//! largest list seen holds twelve), so a row keeps up to [`INLINE`] ids
//! itself and a longer list spills into a side list the row names. Reading
//! a list is one row read for 99 % of zones, where a `Vec` per zone cost a
//! header read and a heap read; a split or a merge edits the rows it
//! touches and nothing else.

/// Neighbor ids a row holds itself; a longer list spills.
const INLINE: usize = 7;

/// One zone's neighbor list: its first `len` ids, or — once `len` exceeds
/// [`INLINE`] — `ids[0]` naming its spill list.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(32))]
struct Row {
    len: u32,
    ids: [u32; INLINE],
}

const _: () = assert!(std::mem::size_of::<Row>() == 32);

/// Every zone slot's neighbor list, in slot order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Adjacency {
    rows: Vec<Row>,
    /// The lists longer than [`INLINE`], each named by one row; a freed
    /// list is empty, listed in `free`, and keeps its capacity.
    spill: Vec<Vec<u32>>,
    free: Vec<u32>,
}

impl Adjacency {
    /// Appends an empty list for a new zone slot.
    pub(crate) fn push_slot(&mut self) {
        self.rows.push(Row::default());
    }

    /// Zone slots.
    pub(crate) fn slots(&self) -> usize {
        self.rows.len()
    }

    /// Slot `z`'s list.
    pub(crate) fn get(&self, z: usize) -> &[u32] {
        let row = &self.rows[z];
        let len = row.len as usize;
        if len <= INLINE {
            &row.ids[..len]
        } else {
            &self.spill[row.ids[0] as usize]
        }
    }

    /// Appends `id` to slot `z`'s list.
    pub(crate) fn push(&mut self, z: usize, id: u32) {
        let Adjacency { rows, spill, free } = self;
        let row = &mut rows[z];
        let len = row.len as usize;
        if len < INLINE {
            row.ids[len] = id;
        } else if len == INLINE {
            let list = free.pop().unwrap_or_else(|| {
                spill.push(Vec::new());
                u32::try_from(spill.len() - 1).expect("fewer than 2^32 spilled lists")
            });
            let spilled = &mut spill[list as usize];
            spilled.extend_from_slice(&row.ids);
            spilled.push(id);
            row.ids[0] = list;
        } else {
            spill[row.ids[0] as usize].push(id);
        }
        row.len += 1;
    }

    /// Keeps the ids of slot `z`'s list that `keep` accepts, in order.
    pub(crate) fn retain(&mut self, z: usize, keep: impl Fn(u32) -> bool) {
        let Adjacency { rows, spill, free } = self;
        let row = &mut rows[z];
        let len = row.len as usize;
        if len <= INLINE {
            let mut kept = 0;
            for i in 0..len {
                let id = row.ids[i];
                if keep(id) {
                    row.ids[kept] = id;
                    kept += 1;
                }
            }
            row.len = kept as u32;
            return;
        }
        let list = row.ids[0];
        let spilled = &mut spill[list as usize];
        spilled.retain(|&id| keep(id));
        row.len = spilled.len() as u32;
        if spilled.len() <= INLINE {
            row.ids[..spilled.len()].copy_from_slice(spilled);
            spilled.clear();
            free.push(list);
        }
    }

    /// Empties slot `z`'s list.
    pub(crate) fn clear(&mut self, z: usize) {
        self.retain(z, |_| false);
    }

    /// Replaces slot `z`'s list with `ids`.
    pub(crate) fn set(&mut self, z: usize, ids: &[u32]) {
        self.clear(z);
        for &id in ids {
            self.push(z, id);
        }
    }

    /// Checks that each spill list is named by exactly one row whose length
    /// it has, or is empty and free.
    pub(crate) fn check(&self) -> Result<(), String> {
        let mut named = vec![0u32; self.spill.len()];
        for (z, row) in self.rows.iter().enumerate() {
            if row.len as usize > INLINE {
                let list = row.ids[0] as usize;
                named[list] += 1;
                if self.spill[list].len() != row.len as usize {
                    return Err(format!("slot {z}'s spilled list disagrees with its length"));
                }
            }
        }
        for &list in &self.free {
            named[list as usize] += 1;
            if !self.spill[list as usize].is_empty() {
                return Err(format!("free spill list {list} is not empty"));
            }
        }
        match named.iter().position(|&n| n != 1) {
            Some(list) => Err(format!("spill list {list} is named {} times", named[list])),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn rows_hold_what_a_vec_per_slot_holds(
            ops in prop::collection::vec((0u8..4, 0usize..6, any::<u32>()), 1..400),
        ) {
            // Few slots and short id ranges, so lists cross the spill
            // length both ways and freed spill lists are reused.
            let mut adjacency = Adjacency::default();
            let mut model: Vec<Vec<u32>> = Vec::new();
            for _ in 0..6 {
                adjacency.push_slot();
                model.push(Vec::new());
            }
            for (op, z, raw) in ops {
                match op {
                    0 | 1 => {
                        adjacency.push(z, raw);
                        model[z].push(raw);
                    }
                    2 => {
                        let keep = |id: u32| id % 3 != raw % 3;
                        adjacency.retain(z, keep);
                        model[z].retain(|&id| keep(id));
                    }
                    _ => {
                        let ids: Vec<u32> = (0..raw % 12).collect();
                        adjacency.set(z, &ids);
                        model[z] = ids;
                    }
                }
                for (slot, list) in model.iter().enumerate() {
                    prop_assert_eq!(adjacency.get(slot), &list[..]);
                }
                adjacency.check().map_err(TestCaseError::fail)?;
            }
        }
    }
}
