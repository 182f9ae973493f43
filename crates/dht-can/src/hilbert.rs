//! Hilbert space-filling curve utilities.
//!
//! The Andrzejak–Xu scheme maps the attribute interval onto the CAN square
//! with a Hilbert curve so that value ranges become compact sets of zones.
//! This module provides the discrete curve (`d2xy`/`xy2d`) plus the
//! *aligned-block decomposition*: any curve interval splits into `O(order)`
//! blocks of `4^j` consecutive cells, each of which occupies an axis-aligned
//! `2^j × 2^j` square — the geometric footprint a range query floods.

/// A square of cells: origin `(x, y)` and side length, all in cell units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSquare {
    /// Cell-grid x of the square's lower corner.
    pub x: u64,
    /// Cell-grid y of the square's lower corner.
    pub y: u64,
    /// Side length in cells (a power of two).
    pub side: u64,
}

impl CellSquare {
    /// The square as a unit-space rectangle `[x0,x1) × [y0,y1)` for a curve
    /// of the given order.
    pub fn to_unit_rect(self, order: u32) -> crate::Rect {
        let n = (1u64 << order) as f64;
        crate::Rect {
            x0: self.x as f64 / n,
            x1: (self.x + self.side) as f64 / n,
            y0: self.y as f64 / n,
            y1: (self.y + self.side) as f64 / n,
        }
    }
}

/// Converts a curve position `d ∈ [0, 4^order)` to cell coordinates.
///
/// Standard iterative Hilbert decode (rotate-and-flip per level).
pub fn d2xy(order: u32, d: u64) -> (u64, u64) {
    debug_assert!(d < 1u64 << (2 * order), "curve position out of range");
    let (mut x, mut y) = (0u64, 0u64);
    let mut t = d;
    let mut s = 1u64;
    while s < (1u64 << order) {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x, y)
}

/// Converts cell coordinates to the curve position (inverse of [`d2xy`]).
pub fn xy2d(order: u32, mut x: u64, mut y: u64) -> u64 {
    debug_assert!(x < 1u64 << order && y < 1u64 << order);
    let n = 1u64 << order;
    let mut d = 0u64;
    let mut s = n / 2;
    while s > 0 {
        let rx = u64::from((x & s) > 0);
        let ry = u64::from((y & s) > 0);
        d += s * s * ((3 * rx) ^ ry);
        // Rotate within the *full* grid (unlike d2xy, which rotates within
        // the current sub-square).
        if ry == 0 {
            if rx == 1 {
                x = n - 1 - x;
                y = n - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// The curve cell containing the normalised value `t ∈ [0, 1]`.
pub fn cell_of(order: u32, t: f64) -> u64 {
    let cells = 1u64 << (2 * order);
    let idx = (t.clamp(0.0, 1.0) * cells as f64) as u64;
    idx.min(cells - 1)
}

/// The unit-space centre point of a curve cell.
pub fn point_of_cell(order: u32, d: u64) -> (f64, f64) {
    let (x, y) = d2xy(order, d);
    let n = (1u64 << order) as f64;
    ((x as f64 + 0.5) / n, (y as f64 + 0.5) / n)
}

/// Decomposes the inclusive cell interval `[a, b]` into aligned blocks, each
/// an axis-aligned square (Hilbert curve property: a `4^j`-aligned run of
/// `4^j` cells fills a `2^j × 2^j` square).
///
/// Returns `O(order)` squares covering exactly the interval's cells.
///
/// # Panics
///
/// Panics if `a > b` or `b` exceeds the curve length.
pub fn interval_blocks(order: u32, a: u64, b: u64) -> Vec<CellSquare> {
    let mut out = Vec::new();
    interval_blocks_into(order, a, b, &mut out);
    out
}

/// [`interval_blocks`] into a caller-owned buffer (cleared first), so a
/// query path that decomposes one interval per query reuses its capacity.
///
/// # Panics
///
/// Same conditions as [`interval_blocks`].
pub fn interval_blocks_into(order: u32, a: u64, b: u64, out: &mut Vec<CellSquare>) {
    assert!(a <= b, "empty interval");
    assert!(b < 1u64 << (2 * order), "interval beyond curve");
    out.clear();
    let mut h = a;
    loop {
        // Largest aligned block starting at h that fits within [h, b].
        let mut j = 0u32;
        loop {
            let next = 1u64 << (2 * (j + 1)); // 4^(j+1)
            if j < order && h.is_multiple_of(next) && b - h + 1 >= next {
                j += 1;
            } else {
                break;
            }
        }
        let size = 1u64 << (2 * j);
        let side = 1u64 << j;
        let (cx, cy) = d2xy(order, h);
        out.push(CellSquare { x: cx & !(side - 1), y: cy & !(side - 1), side });
        if b - h < size {
            break;
        }
        h += size;
        if h > b {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d2xy_roundtrips() {
        for order in [1u32, 2, 3, 6] {
            for d in 0..(1u64 << (2 * order)) {
                let (x, y) = d2xy(order, d);
                assert_eq!(xy2d(order, x, y), d, "order {order} d {d}");
            }
        }
    }

    #[test]
    fn consecutive_cells_are_grid_adjacent() {
        // The defining property of the Hilbert curve.
        let order = 5;
        let (mut px, mut py) = d2xy(order, 0);
        for d in 1..(1u64 << (2 * order)) {
            let (x, y) = d2xy(order, d);
            let manhattan = px.abs_diff(x) + py.abs_diff(y);
            assert_eq!(manhattan, 1, "jump at d = {d}");
            (px, py) = (x, y);
        }
    }

    #[test]
    fn order_1_is_the_canonical_u() {
        // d: 0,1,2,3 → (0,0),(0,1),(1,1),(1,0).
        assert_eq!(d2xy(1, 0), (0, 0));
        assert_eq!(d2xy(1, 1), (0, 1));
        assert_eq!(d2xy(1, 2), (1, 1));
        assert_eq!(d2xy(1, 3), (1, 0));
    }

    #[test]
    fn cell_of_clamps_and_scales() {
        let order = 10;
        assert_eq!(cell_of(order, 0.0), 0);
        assert_eq!(cell_of(order, 1.0), (1u64 << 20) - 1);
        assert_eq!(cell_of(order, -3.0), 0);
        let mid = cell_of(order, 0.5);
        assert_eq!(mid, 1u64 << 19);
    }

    #[test]
    fn blocks_cover_interval_exactly() {
        let order = 4; // 256 cells
        for (a, b) in [(0u64, 255u64), (3, 17), (64, 127), (100, 100), (5, 250)] {
            let blocks = interval_blocks(order, a, b);
            // Collect all cells covered by the squares.
            let mut covered = std::collections::BTreeSet::new();
            for blk in &blocks {
                for x in blk.x..blk.x + blk.side {
                    for y in blk.y..blk.y + blk.side {
                        covered.insert(xy2d(order, x, y));
                    }
                }
            }
            let expect: std::collections::BTreeSet<u64> = (a..=b).collect();
            assert_eq!(covered, expect, "interval [{a}, {b}]");
        }
    }

    #[test]
    fn block_count_is_logarithmic() {
        let order = 16;
        let total = 1u64 << (2 * order);
        let blocks = interval_blocks(order, 1, total - 2);
        // Greedy base-4 alignment yields at most 3 blocks per level on each
        // flank of the interval.
        assert!(blocks.len() <= 6 * order as usize, "{} blocks", blocks.len());
    }

    #[test]
    fn point_of_cell_is_inside_unit_square() {
        let order = 8;
        for d in (0..(1u64 << 16)).step_by(997) {
            let (x, y) = point_of_cell(order, d);
            assert!((0.0..1.0).contains(&x));
            assert!((0.0..1.0).contains(&y));
        }
    }
}
