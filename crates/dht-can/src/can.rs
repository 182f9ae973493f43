//! The CAN torus: zones, joins, departures, adjacency, greedy routing,
//! storage.
//!
//! Zone ids are **stable**: a zone keeps its id for its lifetime, departures
//! free the slot, and later joins may recycle it — the same slot discipline
//! `fissione` uses, so churn plans and drivers can hold `NodeId`s across
//! membership events on either substrate.
//!
//! A zone is a slot of three columns indexed by its id: a dense [`Rect`]
//! column, which greedy routing and the flood read, the records beside it,
//! and one 32-byte row of `u32` neighbor ids. A split or a merge patches
//! the slots it reshapes in place.

use crate::adjacency::Adjacency;
use crate::{hilbert, CanError};
use rand::rngs::SmallRng;
use rand::Rng;
use simnet::NodeId;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// An axis-aligned half-open rectangle `[x0,x1) × [y0,y1)` in the unit
/// square. All coordinates are dyadic (produced by midpoint splits), so
/// `f64` arithmetic on them is exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x0: f64,
    /// Right edge (exclusive).
    pub x1: f64,
    /// Bottom edge (inclusive).
    pub y0: f64,
    /// Top edge (exclusive).
    pub y1: f64,
}

impl Rect {
    /// The unit square.
    pub const UNIT: Rect = Rect { x0: 0.0, x1: 1.0, y0: 0.0, y1: 1.0 };

    /// Whether a point lies inside (half-open edges).
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// Whether two rectangles overlap with positive area.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0 < other.x1 && other.x0 < self.x1 && self.y0 < other.y1 && other.y0 < self.y1
    }

    /// Squared torus distance from a point to this rectangle.
    pub fn torus_dist2(&self, x: f64, y: f64) -> f64 {
        let dx = axis_dist(x, self.x0, self.x1);
        let dy = axis_dist(y, self.y0, self.y1);
        dx * dx + dy * dy
    }

    /// Width × height.
    pub fn area(&self) -> f64 {
        (self.x1 - self.x0) * (self.y1 - self.y0)
    }
}

/// Circular distance from coordinate `p` to the interval `[lo, hi)` on the
/// unit torus.
fn axis_dist(p: f64, lo: f64, hi: f64) -> f64 {
    if p >= lo && p < hi {
        return 0.0;
    }
    let to_lo = circ_dist(p, lo);
    let to_hi = circ_dist(p, hi);
    to_lo.min(to_hi)
}

/// Circular distance between two coordinates on the unit torus.
fn circ_dist(a: f64, b: f64) -> f64 {
    let d = (a - b).abs();
    d.min(1.0 - d)
}

/// Whether intervals `[a0,a1)` and `[b0,b1)` abut on the unit circle
/// (share an endpoint, including the 1.0 ≡ 0.0 wrap).
fn abuts(a0: f64, a1: f64, b0: f64, b1: f64) -> bool {
    let eq = |u: f64, v: f64| u == v || (u == 1.0 && v == 0.0) || (u == 0.0 && v == 1.0);
    eq(a1, b0) || eq(b1, a0)
}

/// Whether intervals overlap with positive length (no wrap: zone edges
/// never wrap because zones subdivide the unit square).
fn overlaps(a0: f64, a1: f64, b0: f64, b1: f64) -> bool {
    a0 < b1 && b0 < a1
}

/// One live CAN zone as [`CanNet::zone`] reads it off the net's columns:
/// its rectangle and locally stored records.
#[derive(Debug, Clone, Copy)]
pub struct Zone<'a> {
    rect: &'a Rect,
    /// `(value, handle)` records whose curve point falls in this zone.
    records: &'a [(f64, u64)],
}

impl<'a> Zone<'a> {
    /// The zone's rectangle.
    pub fn rect(&self) -> &'a Rect {
        self.rect
    }

    /// Records stored at this zone.
    pub fn records(&self) -> &'a [(f64, u64)] {
        self.records
    }
}

/// Configuration of a CAN network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanConfig {
    /// Hilbert curve order: the attribute interval is mapped onto a
    /// `2^order × 2^order` cell grid. 20 gives ~10⁻¹² value resolution.
    pub hilbert_order: u32,
    /// Attribute domain lower bound.
    pub domain_lo: f64,
    /// Attribute domain upper bound.
    pub domain_hi: f64,
}

impl Default for CanConfig {
    fn default() -> Self {
        CanConfig { hilbert_order: 20, domain_lo: 0.0, domain_hi: 1000.0 }
    }
}

/// The absent tree node: the root's parent, and the first child of a leaf
/// (whose [`SpanRow::next`] names its zone instead).
const NO_NODE: u32 = u32::MAX;

/// `node_of` of a free zone slot.
const DEAD: usize = usize::MAX;

/// A zone slot or tree-node index as the `u32` the columns store.
fn fit(i: usize) -> u32 {
    u32::try_from(i).ok().filter(|&i| i != NO_NODE).expect("fewer than 2^32 − 1 zones and nodes")
}

/// One node of the split tree: the BSP history of midpoint splits. Leaves
/// carry live zones; internal nodes remember the rectangle a future merge
/// restores. This is what makes departures always possible while keeping
/// every peer's region a rectangle: a deepest internal node's children are
/// both leaves, so *some* sibling pair can always merge back into its
/// parent (FISSIONE's donor discipline, transplanted to rectangles).
///
/// This is the node's cold half, read by point lookups and maintenance;
/// what a range descent reads is its [`SpanRow`], in a column of its own.
#[derive(Debug, Clone)]
struct SplitNode {
    rect: Rect,
    /// The parent node; [`NO_NODE`] at the root.
    parent: u32,
    depth: u32,
}

impl SplitNode {
    /// The parent node; `None` at the root.
    fn parent(&self) -> Option<usize> {
        (self.parent != NO_NODE).then_some(self.parent as usize)
    }
}

/// The hot half of a split-tree node: everything
/// [`CanNet::zones_meeting_cells`] reads, 32 bytes beside the 40 of its
/// [`SplitNode`].
///
/// Splits alternate from the unit square: a node at even depth is a dyadic
/// square, one at odd depth its left or right half, a 2:1 rectangle of two
/// such squares stacked. On the Hilbert curve an aligned square of `4^k`
/// cells is one aligned run of `4^k` positions, so a node's cells are one
/// or two curve intervals of a length its depth fixes ([`block_len`]) —
/// `span` keeps where they start, and "does this node meet a range of
/// curve cells" is an integer comparison, not a box test.
#[derive(Debug, Clone, Copy)]
struct SpanRow {
    /// First curve cells of the node's aligned blocks: the bottom and top
    /// halves of a 2:1 rectangle (not necessarily adjacent on the curve),
    /// or the one block of a square, twice. A node below the cell
    /// resolution lies inside one cell: that cell, twice.
    span: [u64; 2],
    /// Curve cells per block: [`block_len`] of the node's depth.
    len: u64,
    /// The two child nodes after a split; `[NO_NODE, zone]` at a leaf.
    next: [u32; 2],
}

const _: () = assert!(std::mem::size_of::<SpanRow>() == 32);
const _: () = assert!(std::mem::size_of::<SplitNode>() == 40);

impl SpanRow {
    /// The row of a leaf `rect` at `depth` holding `zone`, its span read
    /// off the curve of `order`.
    fn leaf(order: u32, rect: &Rect, depth: u32, zone: NodeId) -> Self {
        let side = 1u64 << order;
        let (x, y) = ((rect.x0 * side as f64) as u64, (rect.y0 * side as f64) as u64);
        let len = block_len(order, depth);
        let start = |y| hilbert::xy2d(order, x, y) & !(len - 1);
        let halves = depth % 2 == 1 && depth < 2 * order;
        let top = if halves { y + (1 << (order - depth / 2 - 1)) } else { y };
        SpanRow { span: [start(y), start(top)], len, next: [NO_NODE, fit(zone)] }
    }

    /// Child node indices after a split; `None` for leaves.
    fn kids(&self) -> Option<(usize, usize)> {
        let [a, b] = self.next;
        (a != NO_NODE).then_some((a as usize, b as usize))
    }

    /// The live zone occupying a leaf; `None` for internal nodes.
    fn zone(&self) -> Option<NodeId> {
        let [a, b] = self.next;
        (a == NO_NODE).then_some(b as NodeId)
    }

    /// Whether one of the node's cells lies in `[a, b]`.
    fn meets_cells(&self, a: u64, b: u64) -> bool {
        self.span.iter().any(|&s| s <= b && a < s + self.len)
    }
}

/// Curve cells per aligned block of a split-tree node at `depth`: `4^k`
/// for a square of side `2^k` cells or a 2:1 rectangle of two, 1 once the
/// node is no bigger than a cell.
fn block_len(order: u32, depth: u32) -> u64 {
    1 << (2 * order.saturating_sub(depth.div_ceil(2)))
}

/// A 2-d CAN whose zones tile the unit torus, with the attribute interval
/// mapped in by a Hilbert curve (the Andrzejak–Xu substrate).
#[derive(Debug, Clone)]
pub struct CanNet {
    cfg: CanConfig,
    /// Each zone slot's rectangle (a free slot's last one, never read).
    rects: Vec<Rect>,
    /// Each zone slot's `(value, handle)` records; empty for free slots.
    records: Vec<Vec<(f64, u64)>>,
    /// Each zone slot's neighbors; empty for free slots.
    adjacency: Adjacency,
    live: usize,
    /// The split tree, one arena as two columns: `tree[i]` and `rows[i]`
    /// are the two halves of node `i`. `node_of[slot]` is the leaf a live
    /// zone occupies, [`DEAD`] for a free slot.
    tree: Vec<SplitNode>,
    rows: Vec<SpanRow>,
    free_nodes: Vec<usize>,
    node_of: Vec<usize>,
    /// Free zone slots as a min-heap: allocation recycles the lowest free
    /// index, matching the slot-scan discipline without the O(N) scan.
    free_slots: BinaryHeap<Reverse<usize>>,
    /// Internal tree nodes whose children are both leaves, keyed by
    /// `(child depth, Reverse(node index))` so the deepest pair with the
    /// lowest parent index is the last element — the merge candidate
    /// [`deepest_leaf_pair`](Self::deepest_leaf_pair) used to find by a
    /// full scan.
    merge_pairs: BTreeSet<(u32, Reverse<usize>)>,
}

impl CanNet {
    /// Creates a single-zone network owning the whole square.
    pub fn new(cfg: CanConfig) -> Self {
        CanNet {
            cfg,
            rects: vec![Rect::UNIT],
            records: vec![Vec::new()],
            adjacency: {
                let mut adjacency = Adjacency::default();
                adjacency.push_slot();
                adjacency
            },
            live: 1,
            tree: vec![SplitNode { rect: Rect::UNIT, parent: NO_NODE, depth: 0 }],
            rows: vec![SpanRow::leaf(cfg.hilbert_order, &Rect::UNIT, 0, 0)],
            free_nodes: Vec::new(),
            node_of: vec![0],
            free_slots: BinaryHeap::new(),
            merge_pairs: BTreeSet::new(),
        }
    }

    /// Builds an `n`-zone network by `n − 1` random joins.
    ///
    /// # Errors
    ///
    /// Returns [`CanError::EmptyRange`] if the configured domain is empty.
    pub fn build(cfg: CanConfig, n: usize, rng: &mut SmallRng) -> Result<Self, CanError> {
        if cfg.domain_lo.partial_cmp(&cfg.domain_hi) != Some(std::cmp::Ordering::Less) {
            return Err(CanError::EmptyRange { lo: cfg.domain_lo, hi: cfg.domain_hi });
        }
        let mut net = CanNet::new(cfg);
        while net.len() < n {
            net.join(rng);
        }
        Ok(net)
    }

    /// The configuration.
    pub fn config(&self) -> &CanConfig {
        &self.cfg
    }

    /// Number of live zones (= peers).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Always false (a CAN has at least one zone).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `id` refers to a live zone.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.node_of.get(id).is_some_and(|&node| node != DEAD)
    }

    /// One past the largest zone id ever handed out: the length a table
    /// indexed by [`NodeId`] needs, dead slots included.
    pub fn node_bound(&self) -> usize {
        self.node_of.len()
    }

    /// Live zone ids in ascending slot order (a deterministic order churn
    /// plans rely on for victim selection).
    pub fn live_zones(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_of.len()).filter(|&i| self.is_live(i))
    }

    /// The zone behind an id.
    ///
    /// # Errors
    ///
    /// Returns [`CanError::NoSuchZone`] for dead or unknown ids.
    pub fn zone(&self, id: NodeId) -> Result<Zone<'_>, CanError> {
        if !self.is_live(id) {
            return Err(CanError::NoSuchZone { zone: id });
        }
        Ok(Zone { rect: &self.rects[id], records: &self.records[id] })
    }

    /// A live zone's rectangle, read off the column without the liveness
    /// check [`zone`](Self::zone) makes: the flood's and the route's read.
    pub(crate) fn rect_of(&self, id: NodeId) -> &Rect {
        &self.rects[id]
    }

    /// A live zone's records, read like [`rect_of`](Self::rect_of).
    pub(crate) fn records_of(&self, id: NodeId) -> &[(f64, u64)] {
        &self.records[id]
    }

    /// Neighbor zones (abutting on the torus), as the `u32` ids the
    /// adjacency column stores; empty for dead ids.
    ///
    /// # Panics
    ///
    /// Panics for ids that never existed.
    pub fn neighbors(&self, id: NodeId) -> &[u32] {
        self.adjacency.get(id)
    }

    /// A uniformly random live zone id.
    pub fn random_zone(&self, rng: &mut SmallRng) -> NodeId {
        loop {
            let i = rng.gen_range(0..self.node_of.len());
            if self.is_live(i) {
                return i;
            }
        }
    }

    /// The zone owning a point.
    pub fn owner_of_point(&self, x: f64, y: f64) -> NodeId {
        // Descend the split tree: a node's children exactly partition its
        // rectangle (midpoint splits on dyadic edges), so containment picks
        // a unique child and the leaf reached is the unique live owner the
        // old linear scan found.
        assert!(self.tree[0].rect.contains(x, y), "zones tile the unit square");
        let mut node = 0;
        while let Some((a, b)) = self.rows[node].kids() {
            node = if self.tree[a].rect.contains(x, y) { a } else { b };
        }
        self.rows[node].zone().expect("leaves carry live zones")
    }

    /// Every live zone holding one of the curve cells `a..=b`, appended to
    /// `out` once each, in split-tree order; `out` is cleared first. These
    /// are the zones a DCF query over those cells must reach.
    ///
    /// One descent of the split tree's span rows from the root: a node's
    /// children partition its cells and every leaf's cells are its zone's,
    /// so a subtree holds a hit iff its root meets the interval — one
    /// integer test against the node's curve span, whatever the interval's
    /// shape in the square. Debug builds check every answer against the box
    /// descent ([`zones_intersecting_into`](Self::zones_intersecting_into)
    /// over the interval's aligned squares).
    ///
    /// # Panics
    ///
    /// Panics if `a > b` or `b` lies beyond the curve (debug builds).
    pub fn zones_meeting_cells(&self, a: u64, b: u64, out: &mut Vec<NodeId>) {
        out.clear();
        self.collect_meeting(0, a, b, out);
        #[cfg(debug_assertions)]
        self.assert_equals_the_box_descent(a, b, out);
    }

    fn collect_meeting(&self, node: usize, a: u64, b: u64, out: &mut Vec<NodeId>) {
        let row = &self.rows[node];
        if !row.meets_cells(a, b) {
            return;
        }
        match row.kids() {
            None => out.push(row.zone().expect("leaves carry live zones")),
            Some((l, r)) => {
                self.collect_meeting(l, a, b, out);
                self.collect_meeting(r, a, b, out);
            }
        }
    }

    /// The per-query check behind
    /// [`zones_meeting_cells`](Self::zones_meeting_cells): the same zones,
    /// in the same order, as the box descent over the cells' aligned
    /// squares. Its buffers live per thread, so the check adds no
    /// steady-state allocation to a query (the allocation budgets are
    /// metered in debug builds too).
    #[cfg(debug_assertions)]
    fn assert_equals_the_box_descent(&self, a: u64, b: u64, got: &[NodeId]) {
        use hilbert::CellSquare;
        use std::cell::RefCell;
        thread_local! {
            static ORACLE: RefCell<(Vec<CellSquare>, Vec<Rect>, Vec<NodeId>)> =
                RefCell::default();
        }
        let order = self.cfg.hilbert_order;
        ORACLE.with_borrow_mut(|(blocks, boxes, want)| {
            hilbert::interval_blocks_into(order, a, b, blocks);
            boxes.clear();
            boxes.extend(blocks.iter().map(|s| s.to_unit_rect(order)));
            self.zones_intersecting_into(boxes, want);
            assert_eq!(got, &want[..], "span and box descents differ over cells [{a}, {b}]");
        });
    }

    /// Every live zone whose rectangle overlaps one of `boxes` with positive
    /// area (a shared edge is not a hit), appended to `out` once each, in
    /// split-tree order; `out` is cleared first and `boxes` is permuted.
    ///
    /// One descent of the split tree from the root, carrying down only the
    /// boxes that meet a node (kept as a prefix of `boxes`). The geometric
    /// reference [`zones_meeting_cells`](Self::zones_meeting_cells) is
    /// tested against; no query path calls it.
    pub fn zones_intersecting_into(&self, boxes: &mut [Rect], out: &mut Vec<NodeId>) {
        out.clear();
        self.collect_intersecting(0, boxes, out);
    }

    fn collect_intersecting(&self, node: usize, boxes: &mut [Rect], out: &mut Vec<NodeId>) {
        let rect = self.tree[node].rect;
        let mut carried = 0;
        for i in 0..boxes.len() {
            if boxes[i].intersects(&rect) {
                boxes.swap(carried, i);
                carried += 1;
            }
        }
        if carried == 0 {
            return;
        }
        match self.rows[node].kids() {
            None => out.push(self.rows[node].zone().expect("leaves carry live zones")),
            Some((a, b)) => {
                self.collect_intersecting(a, &mut boxes[..carried], out);
                self.collect_intersecting(b, &mut boxes[..carried], out);
            }
        }
    }

    /// The `r` distinct zones that should hold copies of `value`'s record:
    /// the owning zone plus its nearest neighbors, breadth-first over the
    /// adjacency lists — the CAN close group over rectangles. Deterministic
    /// in `(value, r, tiling)`, local table reads only, primary first.
    pub fn replica_owners(&self, value: f64, r: usize) -> Vec<NodeId> {
        let (x, y) = self.point_of_value(value);
        let primary = self.owner_of_point(x, y);
        let want = r.max(1).min(self.len());
        let mut owners = vec![primary];
        let mut frontier = vec![primary];
        while owners.len() < want && !frontier.is_empty() {
            let mut next = Vec::new();
            for &zone in &frontier {
                for &neighbor in self.neighbors(zone) {
                    let neighbor = neighbor as NodeId;
                    if owners.len() >= want {
                        break;
                    }
                    if !owners.contains(&neighbor) {
                        owners.push(neighbor);
                        next.push(neighbor);
                    }
                }
            }
            frontier = next;
        }
        owners
    }

    /// Normalises an attribute value to curve parameter `t ∈ [0, 1]`.
    pub fn normalize(&self, value: f64) -> f64 {
        ((value - self.cfg.domain_lo) / (self.cfg.domain_hi - self.cfg.domain_lo)).clamp(0.0, 1.0)
    }

    /// The unit-square point assigned to an attribute value.
    pub fn point_of_value(&self, value: f64) -> (f64, f64) {
        let cell = crate::hilbert::cell_of(self.cfg.hilbert_order, self.normalize(value));
        crate::hilbert::point_of_cell(self.cfg.hilbert_order, cell)
    }

    /// A new peer joins: picks a random point, splits its owner's zone along
    /// the longer side; the newcomer takes the half containing the point.
    /// Returns the newcomer's id.
    pub fn join(&mut self, rng: &mut SmallRng) -> NodeId {
        let (px, py) = (rng.gen::<f64>(), rng.gen::<f64>());
        let owner = self.owner_of_point(px, py);
        self.split_zone(owner, px, py)
    }

    /// Splits `owner` at the midpoint of its longer side; the new zone is
    /// the half containing `(px, py)` and takes the records falling in it.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is not live.
    pub fn split_zone(&mut self, owner: NodeId, px: f64, py: f64) -> NodeId {
        let rect = *self.live_rect(owner);
        let vertical = (rect.x1 - rect.x0) >= (rect.y1 - rect.y0);
        let (keep, give) = if vertical {
            let mid = (rect.x0 + rect.x1) / 2.0;
            let left = Rect { x1: mid, ..rect };
            let right = Rect { x0: mid, ..rect };
            if right.contains(px, py) {
                (left, right)
            } else {
                (right, left)
            }
        } else {
            let mid = (rect.y0 + rect.y1) / 2.0;
            let bottom = Rect { y1: mid, ..rect };
            let top = Rect { y0: mid, ..rect };
            if top.contains(px, py) {
                (bottom, top)
            } else {
                (top, bottom)
            }
        };

        // Repartition records.
        let order = self.cfg.hilbert_order;
        let (lo, hi) = (self.cfg.domain_lo, self.cfg.domain_hi);
        let point = |value: f64| {
            let t = ((value - lo) / (hi - lo)).clamp(0.0, 1.0);
            crate::hilbert::point_of_cell(order, crate::hilbert::cell_of(order, t))
        };
        let old_records = std::mem::take(&mut self.records[owner]);
        let (kept, given): (Vec<_>, Vec<_>) = old_records.into_iter().partition(|&(v, _)| {
            let (x, y) = point(v);
            keep.contains(x, y)
        });
        self.rects[owner] = keep;
        self.records[owner] = kept;
        let newcomer = self.alloc_slot(give, given);

        // Record the split in the tree: the owner's leaf becomes internal
        // with one child leaf per half.
        let parent = self.node_of[owner];
        let depth = self.tree[parent].depth + 1;
        let keep_node = self.alloc_node(keep, depth, parent, owner);
        let give_node = self.alloc_node(give, depth, parent, newcomer);
        self.rows[parent].next = [fit(keep_node), fit(give_node)];
        self.node_of[owner] = keep_node;
        self.node_of[newcomer] = give_node;
        self.refresh_merge_pair(parent);
        if let Some(grand) = self.tree[parent].parent() {
            self.refresh_merge_pair(grand);
        }

        // Recompute adjacency: candidates are the old neighbor set plus the
        // sibling pair itself.
        let (owner_id, newcomer_id) = (fit(owner), fit(newcomer));
        let mut candidates = self.adjacency.get(owner).to_vec();
        candidates.push(newcomer_id);
        self.adjacency.clear(owner);
        // Drop stale back-references; they are rebuilt below.
        for &c in &candidates {
            self.adjacency.retain(c as usize, |n| n != owner_id);
        }
        for &c in &candidates {
            let z = c as usize;
            if z != owner && self.adjacent(owner, z) {
                self.adjacency.push(owner, c);
                self.adjacency.push(z, owner_id);
            }
            if z != newcomer && z != owner && self.adjacent(newcomer, z) {
                self.adjacency.push(newcomer, c);
                self.adjacency.push(z, newcomer_id);
            }
        }
        newcomer
    }

    /// Graceful departure: the zone's region is reabsorbed into the tiling
    /// and its records move with it.
    ///
    /// If the leaver's split-tree sibling is itself a leaf, that sibling
    /// absorbs the leaver and takes over the parent rectangle. Otherwise
    /// the deepest sibling-leaf pair of the tree merges back into *its*
    /// parent — a deepest internal node's children are always both leaves,
    /// so this never fails — and the freed peer adopts the leaver's zone
    /// and records: FISSIONE's donor trick, transplanted to rectangles.
    ///
    /// # Errors
    ///
    /// Returns [`CanError::NoSuchZone`] for dead ids and
    /// [`CanError::TooSmall`] when only one zone remains.
    pub fn leave(&mut self, id: NodeId) -> Result<(), CanError> {
        self.remove_zone(id, true).map(|_| ())
    }

    /// Abrupt failure: like [`leave`](Self::leave) but the zone's records
    /// are lost (the takeover reclaims only the region). Returns the number
    /// of records lost.
    ///
    /// # Errors
    ///
    /// Same conditions as [`leave`](Self::leave).
    pub fn crash(&mut self, id: NodeId) -> Result<usize, CanError> {
        self.remove_zone(id, false)
    }

    fn remove_zone(&mut self, id: NodeId, keep_records: bool) -> Result<usize, CanError> {
        self.zone(id)?;
        if self.live <= 1 {
            return Err(CanError::TooSmall);
        }
        let dropped = if keep_records { 0 } else { self.records[id].len() };
        let leaf = self.node_of[id];
        let leaver_records = std::mem::take(&mut self.records[id]);
        // Free the slot's liveness now; its old adjacency list stays until
        // the affected set is collected from it.
        self.node_of[id] = DEAD;

        // Fast path: the leaver's tree sibling is a leaf and can absorb the
        // parent rectangle directly.
        if let Some(sibling) = self.leaf_sibling(leaf) {
            let parent = self.tree[leaf].parent().expect("siblings have parents");
            self.merge_pair_into(parent, sibling);
            if keep_records {
                self.records[sibling].extend(leaver_records);
            }
            self.live -= 1;
            let affected = self.collect_affected(&[sibling], &[id, sibling]);
            self.adjacency.clear(id);
            self.free_slots.push(Reverse(id));
            self.refresh_adjacency(&affected);
            return Ok(dropped);
        }

        // Donor path: merge the deepest sibling-leaf pair, freeing a peer
        // that adopts the leaver's zone (and records on a graceful leave).
        let (parent, absorber, donor) =
            self.deepest_leaf_pair(id).expect("live > 1 implies a mergeable sibling pair");
        let donor_records = std::mem::take(&mut self.records[donor]);
        self.merge_pair_into(parent, absorber);
        self.records[absorber].extend(donor_records);
        self.rects[donor] = self.rects[id];
        self.records[donor] = if keep_records { leaver_records } else { Vec::new() };
        self.node_of[donor] = leaf;
        self.rows[leaf].next = [NO_NODE, fit(donor)];
        self.live -= 1;
        let affected = self.collect_affected(&[absorber, donor], &[id, donor, absorber]);
        self.adjacency.clear(id);
        self.free_slots.push(Reverse(id));
        self.refresh_adjacency(&affected);
        Ok(dropped)
    }

    /// The live zone occupying the tree sibling of leaf `node`, if that
    /// sibling is a leaf.
    fn leaf_sibling(&self, node: usize) -> Option<NodeId> {
        let parent = self.tree[node].parent()?;
        let (a, b) = self.rows[parent].kids().expect("parents are internal");
        let sibling = if a == node { b } else { a };
        self.rows[sibling].zone()
    }

    /// The deepest internal node whose children are both leaves occupied by
    /// zones other than `exclude`: `(parent node, absorbing zone, donor
    /// zone)`. Deterministic: maximum depth, then lowest parent index; the
    /// first child absorbs, the second donates its peer.
    fn deepest_leaf_pair(&self, exclude: NodeId) -> Option<(usize, NodeId, NodeId)> {
        // The mergeable-pair index is ordered (depth, Reverse(parent)), so
        // reverse iteration yields maximum depth then lowest parent index —
        // the same winner the old full scan picked. `exclude` occupies one
        // leaf, so at most one candidate is skipped.
        for &(_, Reverse(parent)) in self.merge_pairs.iter().rev() {
            let (a, b) = self.rows[parent].kids().expect("indexed pairs are internal");
            let (za, zb) = (self.rows[a].zone().expect("leaf"), self.rows[b].zone().expect("leaf"));
            if za == exclude || zb == exclude {
                continue;
            }
            return Some((parent, za, zb));
        }
        None
    }

    /// Collapses the sibling pair under `parent` into `parent` itself: the
    /// absorbing zone takes over the parent rectangle, both child nodes are
    /// freed. The caller moves records and frees the other zone slot.
    fn merge_pair_into(&mut self, parent: usize, absorber: NodeId) {
        let (a, b) = self.rows[parent].kids().expect("parent is internal");
        self.rows[parent].next = [NO_NODE, fit(absorber)];
        self.free_nodes.push(a);
        self.free_nodes.push(b);
        self.node_of[absorber] = parent;
        self.rects[absorber] = self.tree[parent].rect;
        self.refresh_merge_pair(parent);
        if let Some(grand) = self.tree[parent].parent() {
            self.refresh_merge_pair(grand);
        }
    }

    /// Re-derives `node`'s membership in the mergeable-pair index: present
    /// iff internal with both children leaves, keyed by child depth.
    fn refresh_merge_pair(&mut self, node: usize) {
        let key = (self.tree[node].depth + 1, Reverse(node));
        let both_leaves = self.rows[node]
            .kids()
            .is_some_and(|(a, b)| self.rows[a].kids().is_none() && self.rows[b].kids().is_none());
        if both_leaves {
            self.merge_pairs.insert(key);
        } else {
            self.merge_pairs.remove(&key);
        }
    }

    /// The zones whose adjacency lists a removal can change: the reshaped
    /// zones themselves plus everything previously adjacent to any involved
    /// slot. (A reshaped zone's new rectangle is a union of old ones, so its
    /// new neighbors all abutted one of the old rectangles.)
    fn collect_affected(&self, reshaped: &[NodeId], involved: &[NodeId]) -> Vec<NodeId> {
        let mut affected: Vec<NodeId> = reshaped.to_vec();
        for &z in involved {
            affected.extend(self.neighbors(z).iter().map(|&n| n as NodeId));
        }
        affected.sort_unstable();
        affected.dedup();
        affected.retain(|&z| self.is_live(z));
        affected
    }

    /// Recomputes the adjacency lists of `affected` against the candidate
    /// set `affected ∪ their old neighbors` — no full-tiling scan. This is
    /// sufficient: a *new* neighbor `b` of an affected zone `a` requires `a`
    /// or `b` to have been reshaped; a reshaped zone's new rectangle is a
    /// union of old rectangles, so `b` abutted one of them and sits in some
    /// involved slot's old list, which `collect_affected` already folded in.
    /// Candidates are sorted ascending, so each rebuilt list keeps the
    /// ascending slot order the old full scan produced.
    fn refresh_adjacency(&mut self, affected: &[NodeId]) {
        let mut candidates: Vec<NodeId> = affected.to_vec();
        for &a in affected {
            candidates.extend(self.neighbors(a).iter().map(|&n| n as NodeId));
        }
        candidates.sort_unstable();
        candidates.dedup();
        candidates.retain(|&z| self.is_live(z));
        for &a in affected {
            let nbrs: Vec<u32> = candidates
                .iter()
                .filter(|&&b| b != a && self.adjacent(a, b))
                .map(|&b| fit(b))
                .collect();
            self.adjacency.set(a, &nbrs);
        }
        // Symmetry: everything `affected` now lists was itself affected (its
        // old list referenced an involved slot), so both ends were rebuilt.
    }

    /// Recomputes every live zone's neighbor list from scratch by a full
    /// pairwise tiling scan — the `O(N²)` oracle the incremental
    /// `refresh_adjacency` repairs are pinned against.
    ///
    /// Lists come out in ascending slot order. The incremental paths keep
    /// each list's *membership* identical but not its order — a split
    /// appends the sibling pair to an untouched neighbor's existing list —
    /// so equivalence tests compare lists as sets.
    pub fn refresh_all_adjacency(&mut self) {
        let live: Vec<NodeId> = self.live_zones().collect();
        for &z in &live {
            self.adjacency.clear(z);
        }
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[(i + 1)..] {
                if self.adjacent(a, b) {
                    self.adjacency.push(a, fit(b));
                    self.adjacency.push(b, fit(a));
                }
            }
        }
    }

    /// Whether two live zones abut on the torus (share an edge of positive
    /// length).
    ///
    /// # Panics
    ///
    /// Panics unless both zones are live.
    pub fn adjacent(&self, a: NodeId, b: NodeId) -> bool {
        let (ra, rb) = (self.live_rect(a), self.live_rect(b));
        let x_abut = abuts(ra.x0, ra.x1, rb.x0, rb.x1) && overlaps(ra.y0, ra.y1, rb.y0, rb.y1);
        let y_abut = abuts(ra.y0, ra.y1, rb.y0, rb.y1) && overlaps(ra.x0, ra.x1, rb.x0, rb.x1);
        x_abut || y_abut
    }

    /// A zone's rectangle, asserting that the zone is live.
    fn live_rect(&self, id: NodeId) -> &Rect {
        assert!(self.is_live(id), "zone {id} is not live");
        &self.rects[id]
    }

    /// Publishes a record: the value's curve point decides the owning zone.
    /// Returns the zone id.
    pub fn publish(&mut self, value: f64, handle: u64) -> NodeId {
        let (x, y) = self.point_of_value(value);
        let owner = self.owner_of_point(x, y);
        self.records[owner].push((value, handle));
        owner
    }

    /// Greedy routing from `from` to the owner of point `(x, y)`: each hop
    /// moves to the neighbor strictly closer (torus rect distance) to the
    /// target.
    ///
    /// # Errors
    ///
    /// Returns [`CanError::RoutingStuck`] if no neighbor improves (cannot
    /// happen on a well-formed tiling).
    pub fn route_to_point(&self, from: NodeId, x: f64, y: f64) -> Result<Vec<NodeId>, CanError> {
        let mut path = vec![from];
        let mut cur = from;
        let mut cur_d = self.zone(cur)?.rect().torus_dist2(x, y);
        while cur_d > 0.0 {
            let next = self
                .neighbors(cur)
                .iter()
                .map(|&n| (self.rects[n as usize].torus_dist2(x, y), n as NodeId))
                .min_by(|a, b| a.partial_cmp(b).expect("distances are finite"))
                .filter(|&(d, _)| d < cur_d);
            match next {
                Some((d, n)) => {
                    cur = n;
                    cur_d = d;
                    path.push(n);
                }
                None => return Err(CanError::RoutingStuck),
            }
        }
        Ok(path)
    }

    /// Verifies the tiling invariants: live zones cover the unit square
    /// exactly (areas sum to 1 and are pairwise disjoint), the adjacency
    /// lists are symmetric and correct, dead slots carry no state, the
    /// rect column is each live zone's split-tree leaf, and every span row
    /// is what its node's rectangle and depth give.
    ///
    /// # Errors
    ///
    /// Returns a descriptive string on violation (test helper).
    pub fn check_invariants(&self) -> Result<(), String> {
        let slots = self.node_of.len();
        if [self.rects.len(), self.records.len(), self.adjacency.slots()] != [slots; 3] {
            return Err("zone columns differ in length".into());
        }
        self.adjacency.check()?;
        if self.rows.len() != self.tree.len() {
            return Err("split-tree columns differ in length".into());
        }
        let live: Vec<NodeId> = self.live_zones().collect();
        if live.len() != self.live {
            return Err(format!("live count {} vs {} live slots", self.live, live.len()));
        }
        let total: f64 = live.iter().map(|&z| self.rects[z].area()).sum();
        if (total - 1.0).abs() > 1e-12 {
            return Err(format!("zone areas sum to {total}"));
        }
        for (i, &a) in live.iter().enumerate() {
            for &b in &live[(i + 1)..] {
                if self.rects[a].intersects(&self.rects[b]) {
                    return Err(format!("zones {a} and {b} overlap"));
                }
            }
        }
        for slot in (0..slots).filter(|&i| !self.is_live(i)) {
            if !self.neighbors(slot).is_empty() {
                return Err(format!("dead slot {slot} still lists neighbors"));
            }
            if !self.records[slot].is_empty() {
                return Err(format!("dead slot {slot} still holds records"));
            }
        }
        // The free-slot heap holds exactly the dead slots.
        let dead: BTreeSet<usize> = (0..slots).filter(|&i| !self.is_live(i)).collect();
        let heap: BTreeSet<usize> = self.free_slots.iter().map(|&Reverse(i)| i).collect();
        if dead != heap {
            return Err(format!("free-slot heap {heap:?} disagrees with dead slots {dead:?}"));
        }
        // Walked from the root, so freed arena entries cannot alias in:
        // every span row is what its node's rectangle and depth give, every
        // child names its parent, and the mergeable-pair index holds exactly
        // the internal nodes whose children are both leaves.
        let order = self.cfg.hilbert_order;
        let mut expected = BTreeSet::new();
        let mut stack = vec![0usize];
        while let Some(n) = stack.pop() {
            let SplitNode { rect, depth, .. } = self.tree[n];
            let want = SpanRow::leaf(order, &rect, depth, 0);
            let row = self.rows[n];
            if (row.span, row.len) != (want.span, want.len) {
                return Err(format!("node {n}'s span row {row:?} disagrees with {want:?}"));
            }
            if let Some((a, b)) = row.kids() {
                if self.tree[a].parent() != Some(n) || self.tree[b].parent() != Some(n) {
                    return Err(format!("node {n}'s children name another parent"));
                }
                if self.rows[a].kids().is_none() && self.rows[b].kids().is_none() {
                    expected.insert((depth + 1, Reverse(n)));
                }
                stack.push(a);
                stack.push(b);
            }
        }
        if expected != self.merge_pairs {
            return Err("mergeable-pair index disagrees with the split tree".into());
        }
        // Every live zone occupies a leaf carrying its id, and the rect
        // column holds that leaf's rectangle.
        for &z in &live {
            let node = self.node_of[z];
            if self.rows[node].zone() != Some(z) {
                return Err(format!("zone {z} not at its tree leaf"));
            }
            if self.tree[node].rect != self.rects[z] {
                return Err(format!("zone {z} rect disagrees with its tree leaf"));
            }
        }
        for &a in &live {
            for &b in self.neighbors(a) {
                let b = b as NodeId;
                if !self.is_live(b) {
                    return Err(format!("{a} lists dead neighbor {b}"));
                }
                if !self.adjacent(a, b) {
                    return Err(format!("{a} lists non-adjacent {b}"));
                }
                if !self.neighbors(b).contains(&fit(a)) {
                    return Err(format!("asymmetric adjacency {a} / {b}"));
                }
            }
            // Completeness: every adjacent zone is listed.
            for &b in &live {
                if b != a && self.adjacent(a, b) && !self.neighbors(a).contains(&fit(b)) {
                    return Err(format!("{a} misses adjacent {b}"));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // internals

    /// A slot for a new zone `rect` holding `records`; the caller sets its
    /// `node_of` right after, which makes it live.
    fn alloc_slot(&mut self, rect: Rect, records: Vec<(f64, u64)>) -> NodeId {
        // The free-slot heap pops the lowest free index — the same slot the
        // old `position(Option::is_none)` scan found, without the scan.
        self.live += 1;
        if let Some(Reverse(i)) = self.free_slots.pop() {
            debug_assert!(!self.is_live(i), "free-slot heap out of sync");
            self.rects[i] = rect;
            self.records[i] = records;
            i
        } else {
            self.rects.push(rect);
            self.records.push(records);
            self.adjacency.push_slot();
            self.node_of.push(DEAD);
            self.node_of.len() - 1
        }
    }

    /// A tree node for a new leaf `rect` under `parent`, holding `zone`:
    /// a recycled arena entry if one is free.
    fn alloc_node(&mut self, rect: Rect, depth: u32, parent: usize, zone: NodeId) -> usize {
        let row = SpanRow::leaf(self.cfg.hilbert_order, &rect, depth, zone);
        let node = SplitNode { rect, parent: fit(parent), depth };
        if let Some(i) = self.free_nodes.pop() {
            self.tree[i] = node;
            self.rows[i] = row;
            i
        } else {
            self.tree.push(node);
            self.rows.push(row);
            self.tree.len() - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, seed: u64) -> CanNet {
        let mut rng = simnet::rng_from_seed(seed);
        CanNet::build(CanConfig::default(), n, &mut rng).unwrap()
    }

    #[test]
    fn build_satisfies_tiling_invariants() {
        for n in [1usize, 2, 3, 10, 64, 100] {
            let net = build(n, n as u64);
            assert_eq!(net.len(), n);
            net.check_invariants().unwrap();
        }
    }

    #[test]
    fn replica_owners_are_the_adjacent_close_group() {
        let net = build(120, 77);
        for value in [0.0, 123.4, 500.0, 999.9] {
            let owners = net.replica_owners(value, 4);
            assert_eq!(owners.len(), 4);
            let (x, y) = net.point_of_value(value);
            assert_eq!(owners[0], net.owner_of_point(x, y), "primary owns the value's point");
            let distinct: std::collections::BTreeSet<_> = owners.iter().collect();
            assert_eq!(distinct.len(), 4);
            assert!(owners.iter().all(|&z| net.is_live(z)));
            // The first replica borders the primary zone.
            assert!(net.adjacent(owners[0], owners[1]), "close group starts at the border");
            assert_eq!(owners, net.replica_owners(value, 4), "deterministic");
        }
        // Clamped to the zone count.
        let tiny = build(2, 5);
        assert_eq!(tiny.replica_owners(10.0, 9).len(), 2);
    }

    #[test]
    fn average_degree_about_four() {
        let net = build(500, 81);
        let total: usize = net.live_zones().map(|z| net.neighbors(z).len()).sum();
        let avg = total as f64 / net.len() as f64;
        assert!((3.0..6.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn owner_of_point_is_unique() {
        let net = build(60, 82);
        let mut rng = simnet::rng_from_seed(820);
        for _ in 0..200 {
            let (x, y) = (rng.gen::<f64>(), rng.gen::<f64>());
            let owner = net.owner_of_point(x, y);
            let holders =
                net.live_zones().filter(|&z| net.zone(z).unwrap().rect().contains(x, y)).count();
            assert_eq!(holders, 1);
            assert!(net.zone(owner).unwrap().rect().contains(x, y));
        }
    }

    #[test]
    fn routing_reaches_any_point() {
        let net = build(300, 83);
        let mut rng = simnet::rng_from_seed(830);
        for _ in 0..100 {
            let (x, y) = (rng.gen::<f64>(), rng.gen::<f64>());
            let from = net.random_zone(&mut rng);
            let path = net.route_to_point(from, x, y).unwrap();
            let dest = *path.last().unwrap();
            assert!(net.zone(dest).unwrap().rect().contains(x, y));
        }
    }

    #[test]
    fn routing_hops_scale_as_sqrt_n() {
        // CAN delay is Θ(√N) for d = 2; check the trend loosely.
        let mut rng = simnet::rng_from_seed(840);
        let mut avgs = Vec::new();
        for &n in &[100usize, 400, 1600] {
            let net = build(n, 84 + n as u64);
            let mut total = 0usize;
            for _ in 0..200 {
                let (x, y) = (rng.gen::<f64>(), rng.gen::<f64>());
                let from = net.random_zone(&mut rng);
                total += net.route_to_point(from, x, y).unwrap().len() - 1;
            }
            avgs.push(total as f64 / 200.0);
        }
        assert!(avgs[1] > avgs[0] * 1.4, "no √N growth: {avgs:?}");
        assert!(avgs[2] > avgs[1] * 1.4, "no √N growth: {avgs:?}");
    }

    #[test]
    fn publish_stores_at_curve_owner() {
        let mut net = build(50, 85);
        let z = net.publish(123.0, 7);
        let (x, y) = net.point_of_value(123.0);
        assert_eq!(net.owner_of_point(x, y), z);
        assert!(net.zone(z).unwrap().records().contains(&(123.0, 7)));
    }

    #[test]
    fn close_values_map_to_close_points() {
        // Hilbert locality: nearby values land in nearby cells.
        let net = build(10, 86);
        let (x1, y1) = net.point_of_value(500.0);
        let (x2, y2) = net.point_of_value(500.001);
        let dist = ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt();
        assert!(dist < 0.01, "distance {dist}");
    }

    #[test]
    fn split_repartitions_records() {
        let mut net = CanNet::new(CanConfig::default());
        let mut rng = simnet::rng_from_seed(87);
        for h in 0..100u64 {
            net.publish(rng.gen_range(0.0..1000.0), h);
        }
        for _ in 0..20 {
            net.join(&mut rng);
        }
        net.check_invariants().unwrap();
        let total: usize = net.live_zones().map(|z| net.zone(z).unwrap().records().len()).sum();
        assert_eq!(total, 100);
        // Every record sits in the zone containing its curve point.
        for z in net.live_zones() {
            for &(v, _) in net.zone(z).unwrap().records() {
                let (x, y) = net.point_of_value(v);
                assert!(net.zone(z).unwrap().rect().contains(x, y));
            }
        }
    }

    #[test]
    fn leaves_keep_tiling_and_records() {
        let mut net = build(80, 88);
        let mut rng = simnet::rng_from_seed(880);
        for h in 0..150u64 {
            net.publish(rng.gen_range(0.0..1000.0), h);
        }
        for _ in 0..60 {
            let victim = net.random_zone(&mut rng);
            net.leave(victim).unwrap();
            net.check_invariants().unwrap();
        }
        assert_eq!(net.len(), 20);
        let total: usize = net.live_zones().map(|z| net.zone(z).unwrap().records().len()).sum();
        assert_eq!(total, 150, "graceful leaves keep records");
        // Records still sit in the zone containing their curve point.
        for z in net.live_zones() {
            for &(v, _) in net.zone(z).unwrap().records() {
                let (x, y) = net.point_of_value(v);
                assert!(net.zone(z).unwrap().rect().contains(x, y));
            }
        }
    }

    #[test]
    fn crash_loses_records_but_keeps_tiling() {
        let mut net = build(40, 89);
        let mut rng = simnet::rng_from_seed(890);
        for h in 0..100u64 {
            net.publish(rng.gen_range(0.0..1000.0), h);
        }
        let victim = net.random_zone(&mut rng);
        let lost = net.crash(victim).unwrap();
        net.check_invariants().unwrap();
        let total: usize = net.live_zones().map(|z| net.zone(z).unwrap().records().len()).sum();
        assert_eq!(total + lost, 100);
        assert_eq!(net.len(), 39);
    }

    #[test]
    fn churn_storm_converges_to_a_valid_tiling() {
        let mut net = build(50, 90);
        let mut rng = simnet::rng_from_seed(900);
        for i in 0..200 {
            if i % 3 == 0 {
                net.join(&mut rng);
            } else {
                let victim = net.random_zone(&mut rng);
                let _ = net.leave(victim);
            }
            if i % 25 == 0 {
                net.check_invariants().unwrap();
            }
        }
        net.check_invariants().unwrap();
        // Routing still reaches everything.
        for _ in 0..50 {
            let (x, y) = (rng.gen::<f64>(), rng.gen::<f64>());
            let from = net.random_zone(&mut rng);
            let dest = *net.route_to_point(from, x, y).unwrap().last().unwrap();
            assert!(net.zone(dest).unwrap().rect().contains(x, y));
        }
    }

    #[test]
    fn range_descent_equals_the_scan_through_both_departure_paths() {
        // The descent reads curve spans off the tree; both departure paths
        // rewrite the tree (the donor path re-homes a zone on another
        // leaf) and free arena entries the next join recycles.
        let mut net = build(120, 92);
        let order = net.cfg.hilbert_order;
        let cells = 1u64 << (2 * order);
        let mut rng = simnet::rng_from_seed(920);
        let (mut absorbed, mut donated, mut recycled, mut apart) = (0, 0, 0, 0);
        for i in 0..300 {
            if i % 2 == 0 {
                let victim = net.random_zone(&mut rng);
                *(if net.leaf_sibling(net.node_of[victim]).is_some() {
                    &mut absorbed
                } else {
                    &mut donated
                }) += 1;
                net.leave(victim).unwrap();
            } else {
                recycled += usize::from(!net.free_nodes.is_empty());
                net.join(&mut rng);
            }
            let scan = |boxes: &[Rect]| -> Vec<NodeId> {
                net.live_zones()
                    .filter(|&z| boxes.iter().any(|b| net.rects[z].intersects(b)))
                    .collect()
            };
            let a = rng.gen_range(0..cells);
            let b = (a + rng.gen_range(0..cells / 16)).min(cells - 1);
            let boxes: Vec<Rect> = hilbert::interval_blocks(order, a, b)
                .into_iter()
                .map(|s| s.to_unit_rect(order))
                .collect();
            let mut got = Vec::new();
            net.zones_meeting_cells(a, b, &mut got);
            got.sort_unstable();
            assert_eq!(got, scan(&boxes), "cells [{a}, {b}] after event {i}");
            // The box descent, on boxes off the cell grid as well.
            let [x, y, w, h]: [f64; 4] = std::array::from_fn(|_| rng.gen());
            let mut boxes = [
                Rect { x0: x, x1: (x + w / 4.0).min(1.0), y0: y, y1: (y + h / 4.0).min(1.0) },
                Rect { x0: 0.0, x1: 0.125, y0: 0.5, y1: 0.75 },
            ];
            let expect = scan(&boxes);
            net.zones_intersecting_into(&mut boxes, &mut got);
            got.sort_unstable();
            assert_eq!(got, expect, "boxes {boxes:?} after event {i}");
            // 2:1 leaves whose halves are apart on the curve: one interval
            // from the first cell to the last would claim cells between.
            apart += net
                .live_zones()
                .map(|z| net.rows[net.node_of[z]])
                .filter(|row| row.span[0].abs_diff(row.span[1]) > row.len)
                .count();
        }
        net.check_invariants().unwrap();
        assert!(absorbed > 20 && donated > 20 && recycled > 100, "{absorbed} {donated} {recycled}");
        assert!(apart > 0, "no 2:1 zone with curve-separated halves");
    }

    #[test]
    fn spans_are_the_cells_of_each_node() {
        // Small enough to enumerate: at order 3 a 100-zone tiling has
        // leaves above, at and below the cell resolution.
        let cfg = CanConfig { hilbert_order: 3, ..CanConfig::default() };
        let mut net = CanNet::build(cfg, 100, &mut simnet::rng_from_seed(93)).unwrap();
        net.leave(7).unwrap();
        net.crash(40).unwrap();
        let side = 8.0;
        let depths: BTreeSet<u32> =
            net.live_zones().map(|z| net.tree[net.node_of[z]].depth).collect();
        assert!(
            depths.first() < Some(&6) && depths.contains(&6) && depths.last() > Some(&6),
            "{depths:?}"
        );
        for node in net.live_zones().map(|z| net.node_of[z]) {
            let SplitNode { rect, depth, .. } = net.tree[node];
            let SpanRow { span, len, .. } = net.rows[node];
            assert_eq!(len, block_len(3, depth));
            let held: BTreeSet<u64> = span.iter().flat_map(|&s| s..s + len).collect();
            // The cells the rectangle overlaps with positive area.
            let cell_rect = |d: u64| {
                let (x, y) = hilbert::d2xy(3, d);
                let (x, y) = (x as f64 / side, y as f64 / side);
                Rect { x0: x, x1: x + 1.0 / side, y0: y, y1: y + 1.0 / side }
            };
            let want: BTreeSet<u64> = (0..64).filter(|&d| cell_rect(d).intersects(&rect)).collect();
            assert_eq!(held, want, "node {node} at depth {depth}: {rect:?}");
        }
    }

    #[test]
    fn last_zone_cannot_leave() {
        let mut net = build(1, 91);
        assert_eq!(net.leave(0), Err(CanError::TooSmall));
        assert!(matches!(net.leave(99), Err(CanError::NoSuchZone { .. })));
    }
}
