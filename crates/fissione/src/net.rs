//! The FISSIONE peer table: prefix-free cover, churn, neighbors, and the
//! one sorted object column every peer's store is an interval of.

use crate::cover::{Cover, Leaves, ROOTS};
use crate::{BalanceRule, FissioneConfig, FissioneError};
use kautz::{KautzStr, ObjectKey, PeerKey, MAX_PEER_DEPTH};
use rand::rngs::SmallRng;
use rand::Rng;
use simnet::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// A live FISSIONE peer: its PeerID, and nothing else. What it *stores* is
/// derived from that: the [`PeerKey::interval`] of the network's object
/// table, the entries whose ObjectIDs the PeerID prefixes.
///
/// The network works on [`PeerKey`]s and on the partition tree whose
/// leaves the peers are; the string is edited in place at each membership
/// change (a split appends a symbol, a merge drops one), and kept only for
/// [`FissioneNet::peer_id`], which lends it out.
#[derive(Debug, Clone)]
pub struct Peer {
    id: KautzStr,
}

impl Peer {
    /// The peer's Kautz-string identifier (its depth is `id().len()`).
    pub fn id(&self) -> &KautzStr {
        &self.id
    }

    /// The peer's depth in the partition tree.
    pub fn depth(&self) -> usize {
        self.id.len()
    }
}

/// Soft-property report produced by [`FissioneNet::check_invariants`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantReport {
    /// Live peer count.
    pub peers: usize,
    /// Maximum PeerID length.
    pub max_depth: usize,
    /// Minimum PeerID length.
    pub min_depth: usize,
    /// Directed neighbor pairs whose depths differ by more than one (the
    /// paper's neighborhood invariant counts these as violations).
    pub neighborhood_violations: usize,
    /// Total stored object handles.
    pub total_objects: usize,
}

/// The longest ObjectID a network can be configured for: the largest both
/// [`KautzStr::count`] (`join` draws a uniform namespace point; `3·2^(k−1)`
/// must fit a `u128`) and [`ObjectKey`] (128 symbols) represent.
pub const MAX_OBJECT_ID_LEN: usize = 127;

/// Every live peer's routing state in one dense read-only structure, in
/// PeerID order: one row record per peer — its [`PeerKey`], its node id and
/// its out-neighbors (§3's routing table) — indexed by *rank*, the peer's
/// position in that order. A query handler reads this instead of
/// re-deriving a peer's neighbors from the partition tree on every delivery,
/// and a range query's destinations — one run of consecutive PeerIDs — are
/// one range of ranks, so a wide descent reads the table in order.
///
/// A row's out-neighbors are an interval of ranks, not a list. A peer's
/// out-neighbors are the owner of a proper prefix of its shift `id[1..]`,
/// or every peer that extends the shift (the cover is prefix-free, so never
/// both): the extensions are one subtree of the cover, and the ancestor is
/// the key just before where that subtree would start. Either way the row
/// is consecutive ranks, in [`FissioneNet::out_neighbors`] order.
///
/// Built by [`FissioneNet::route_table`] on first use and dropped by every
/// membership change; never updated in place (a split inserts a rank, which
/// renumbers every rank after it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    /// One row per rank, ascending by key.
    rows: Vec<Row>,
    /// Rank per slot; `u32::MAX` for a dead slot.
    ranks: Vec<u32>,
    /// The deepest PeerID's length, for [`run`](Self::run)'s error.
    max_depth: usize,
}

/// What a route hop or a descent delivery reads of one rank, in one
/// record: the peer's key and depth, its node id, and its out-neighbors as
/// the rank interval `[first, end)`. 32 bytes, no larger than the columns
/// it replaced took per rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row {
    pub(crate) key: PeerKey,
    pub(crate) node: u32,
    pub(crate) depth: u32,
    first: u32,
    end: u32,
}

const _: () = assert!(std::mem::size_of::<Row>() == 32, "a row is one half cache line");

impl Row {
    /// The ranks of this peer's out-neighbors.
    #[inline]
    pub(crate) fn out(&self) -> Range<usize> {
        self.first as usize..self.end as usize
    }
}

/// The out-neighbors of the peer keyed `key` among the rows of the sorted
/// cover, as a rank interval: the subtree below its shift, or, when that is
/// empty, the key just before it if that one prefixes the shift. A depth-1
/// id's shift is empty and prefixes every PeerID.
fn row_of(rows: &[Row], key: PeerKey) -> Range<usize> {
    let (shift, last) = key.shift().below().into_inner();
    let first = rows.partition_point(|r| r.key < shift);
    let end = first + rows[first..].partition_point(|r| r.key <= last);
    match first.checked_sub(1) {
        Some(ancestor) if first == end && rows[ancestor].key.is_prefix_of(shift) => ancestor..first,
        _ => first..end,
    }
}

impl RouteTable {
    fn build(net: &FissioneNet) -> Self {
        let index = |n: usize| u32::try_from(n).expect("routing table indices fit u32");
        let mut rows: Vec<Row> = Vec::with_capacity(net.live);
        rows.extend(net.cover.keyed(PeerKey::EMPTY).map(|(key, node)| {
            let depth = index(key.depth());
            Row { key, node: index(node), depth, first: 0, end: 0 }
        }));
        let mut ranks = vec![u32::MAX; net.slots.len()];
        for rank in 0..rows.len() {
            ranks[rows[rank].node as usize] = index(rank);
            let out = row_of(&rows, rows[rank].key);
            (rows[rank].first, rows[rank].end) = (index(out.start), index(out.end));
        }
        let table = RouteTable { rows, ranks, max_depth: net.max_depth() };
        #[cfg(debug_assertions)]
        {
            let mut row = Vec::new();
            for rank in 0..table.len() {
                let node = table.node(rank);
                net.out_neighbors_into(node, &mut row);
                let interval = table.out(rank).map(|r| table.node(r));
                assert!(interval.eq(row.iter().copied()), "the row of peer {node} is no interval");
            }
        }
        table
    }

    /// The number of live peers (one rank each).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no peer (never: the root peers cannot leave).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rank of `node`; `None` unless it is a live peer.
    #[inline]
    pub fn rank(&self, node: NodeId) -> Option<usize> {
        self.ranks.get(node).filter(|&&rank| rank != u32::MAX).map(|&rank| rank as usize)
    }

    /// The row of the peer at `rank`.
    #[inline]
    pub(crate) fn row(&self, rank: usize) -> Row {
        self.rows[rank]
    }

    /// The peer at `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not below [`len`](Self::len).
    #[inline]
    pub fn node(&self, rank: usize) -> NodeId {
        self.rows[rank].node as NodeId
    }

    /// The key of the peer at `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not below [`len`](Self::len).
    #[inline]
    pub fn key(&self, rank: usize) -> PeerKey {
        self.rows[rank].key
    }

    /// The depth of the peer at `rank`: its key's, read off its row.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not below [`len`](Self::len).
    #[inline]
    pub fn depth(&self, rank: usize) -> usize {
        self.rows[rank].depth as usize
    }

    /// The ranks of the out-neighbors of the peer at `rank`, in
    /// [`FissioneNet::out_neighbors`] order.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not below [`len`](Self::len).
    #[inline]
    pub fn out(&self, rank: usize) -> Range<usize> {
        self.rows[rank].out()
    }

    /// The ranks of the peers whose regions intersect the lexicographic
    /// ObjectID range `[low, high]` (a range query's destination peers):
    /// they partition the namespace in leaf order, so the run starts at
    /// `low`'s owner and ends at the last key not above `high`. Two binary
    /// searches; empty when `low > high`.
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::TargetTooShort`] if `low` is shorter than
    /// its owning region's depth.
    pub fn run(&self, low: ObjectKey, high: ObjectKey) -> Result<Range<usize>, FissioneError> {
        self.run_in(0..self.len(), low, high)
    }

    /// [`run`](Self::run), searched among the ranks `within` only: a
    /// sub-region's run inside the run of a region that holds it.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), and when `low`'s owner is not in `within`.
    pub fn run_in(
        &self,
        within: Range<usize>,
        low: ObjectKey,
        high: ObjectKey,
    ) -> Result<Range<usize>, FissioneError> {
        let (low_key, high_key) = (low.head(), high.head());
        let rows = &self.rows[within.clone()];
        // `low`'s owner is the greatest key not above it, if that prefixes
        // it. A peer's region starts above `high` exactly when its key does
        // (a minimal extension never exceeds `high` while the two agree).
        let owner = rows.partition_point(|r| r.key <= low_key).checked_sub(1);
        match owner {
            Some(first) if rows[first].key.is_prefix_of(low_key) => {
                let end = first + rows[first..].partition_point(|r| r.key <= high_key);
                Ok(within.start + first..within.start + end)
            }
            _ => Err(FissioneError::TargetTooShort {
                target_len: low.len(),
                max_depth: self.max_depth,
            }),
        }
    }

    /// The rank among `ranks` whose key prefixes `probe`, if one does, and
    /// its row: each candidate is one record, read whole, and tested by
    /// one masked compare at the depth it carries.
    #[inline]
    pub(crate) fn prefixing(&self, ranks: Range<usize>, probe: PeerKey) -> Option<(usize, Row)> {
        let rows = &self.rows[ranks.clone()];
        ranks
            .zip(rows.iter().copied())
            .find(|&(_, row)| row.key.is_prefix_at(row.depth as usize, probe))
    }
}

/// What one [`FissioneNet::stabilize`] call works on: every slot's gap and
/// the buffer its neighbor walks reuse. A local of that call — a table that
/// outlived it would have to be kept current by every join and leave.
struct Gaps {
    /// Per slot, the deepest neighbor's depth minus the peer's own: 0 when
    /// no neighbor is deeper, and for a dead slot.
    gap: Vec<u8>,
    row: Vec<NodeId>,
    /// The peers a migration moved, and their neighbors.
    moved: Vec<NodeId>,
}

/// How far below a peer at depth `own` a neighbor at depth `neighbor` sits
/// (0 if not below). Depths stay within [`MAX_PEER_DEPTH`], so it fits.
fn gap_between(own: usize, neighbor: usize) -> u8 {
    neighbor.saturating_sub(own) as u8
}

/// One published object: its key and its handle.
type Entry = (ObjectKey, u64);

/// Every published `(ObjectKey, handle)` pair, in one flat column: a
/// publish appends, and the first read after a write sorts and dedups the
/// whole column in place, so a key range is two binary searches and one
/// slice. There is one stored copy at any time: in `appended` while writes
/// are pending, in `sorted` once a reader has moved the pairs out and
/// sorted them.
#[derive(Debug, Default)]
struct ObjectTable {
    /// The pairs, unsorted, while `sorted` is unset; empty while it is set.
    appended: Mutex<Vec<Entry>>,
    /// The pairs in `(key, handle)` order, each once: set by the first
    /// read after a write (a `OnceLock` because queries hold `&self` across
    /// driver threads), taken back by the next write.
    sorted: OnceLock<Vec<Entry>>,
}

/// A reader that panicked while sorting the column took the appended pairs
/// with it: nothing is left to recover.
const POISONED: &str = "a reader panicked while sorting the object column";

impl ObjectTable {
    /// Appends a pair, taking the sorted column back first if a read built
    /// it.
    fn push(&mut self, pair: Entry) {
        let appended = self.appended.get_mut().expect(POISONED);
        if let Some(sorted) = self.sorted.take() {
            *appended = sorted;
        }
        appended.push(pair);
    }

    /// The column, ascending and distinct: the first call after a write
    /// moves the appended pairs out, sorts and dedups them (`O(n log n)`;
    /// concurrent first callers wait for one sort).
    fn column(&self) -> &[Entry] {
        self.sorted.get_or_init(|| {
            let mut column = std::mem::take(&mut *self.appended.lock().expect(POISONED));
            column.sort_unstable();
            column.dedup();
            column
        })
    }

    /// The sorted column, for a writer that keeps it sorted.
    fn column_mut(&mut self) -> &mut Vec<Entry> {
        self.column();
        self.sorted.get_mut().expect("`column` has just set it")
    }
}

/// A clone reads the column through [`ObjectTable::column`], so it holds
/// the sorted column whatever state the original was in.
impl Clone for ObjectTable {
    fn clone(&self) -> Self {
        let sorted = OnceLock::from(self.column().to_vec());
        ObjectTable { appended: Mutex::default(), sorted }
    }
}

/// The FISSIONE network: a prefix-free cover of the Kautz namespace under
/// churn, with neighbor computation and one sorted object column.
///
/// The cover is the partition tree itself, its leaves the live peers
/// (`cover.rs`): an owner probe and a neighbor walk descend it one step per
/// symbol, a join splits one leaf and a leave merges two, so a membership
/// change edits one tree node.
///
/// Published objects live in one flat column sorted by [`ObjectKey`], not
/// at peers: a peer *stores* the entries in the [`PeerKey::interval`] of its
/// id, so a store is derived, never moved, and the stores of consecutive
/// peers are one slice of the column. Join, graceful leave, merge and
/// `stabilize` touch no object; a crash deletes the crashed peer's interval.
///
/// A publish is an `O(1)` append; the first read after it (a lookup, a
/// range gather, a crash, [`report`](Self::report)) sorts the whole column
/// once, where [`route_table`](Self::route_table) is built lazily too. A
/// workload that loads its records and then queries pays one sort; one that
/// interleaves a publish with every read pays a sort per read.
///
/// `NodeId`s are stable: a peer keeps its id for its lifetime, and slots of
/// departed peers are reused only by [`FissioneNet::stabilize`]'s internal
/// migrations or new joins.
#[derive(Debug, Clone)]
pub struct FissioneNet {
    cfg: FissioneConfig,
    slots: Vec<Option<Peer>>,
    /// The partition tree, live peers at its leaves — in-order is PeerID
    /// order.
    cover: Cover,
    live: usize,
    /// `depth_hist[d]` = number of live peers with depth `d`.
    depth_hist: Vec<usize>,
    /// Free slots as a min-heap: allocation recycles the lowest free index,
    /// matching the old slot scan without its O(N) cost.
    free_slots: BinaryHeap<Reverse<usize>>,
    /// Every published `(ObjectID, handle)`, sorted on read.
    objects: ObjectTable,
    /// Handles [`crash`](Self::crash) has deleted from `objects` so far.
    lost_handles: u64,
    /// The routing table of the current cover: built by the first
    /// [`route_table`](Self::route_table) call after a membership change
    /// (a `OnceLock` because queries hold `&self` across driver threads),
    /// dropped by [`cover_changed`](Self::cover_changed).
    table: OnceLock<RouteTable>,
}

impl FissioneNet {
    /// Creates the minimal network: the three root peers `0`, `1` and `2`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`FissioneConfig::validate`], which
    /// [`build`](Self::build) reports as an error instead.
    pub fn new(cfg: FissioneConfig) -> Self {
        cfg.validate().expect("a network needs a valid configuration");
        let root = |sym: u8| Some(Peer { id: KautzStr::new([sym]).expect("a symbol") });
        FissioneNet {
            cfg,
            slots: (0..ROOTS as u8).map(root).collect(),
            cover: Cover::new([0, 1, 2]),
            live: ROOTS,
            depth_hist: vec![0, ROOTS],
            free_slots: BinaryHeap::new(),
            objects: ObjectTable::default(),
            lost_handles: 0,
            table: OnceLock::new(),
        }
    }

    /// Builds a network of `n ≥ 3` peers by repeated joins.
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::TooSmall`] if `n` is below the root count,
    /// the error of [`FissioneConfig::validate`] if `cfg` fails it, and
    /// [`FissioneError::ObjectIdTooShort`] if a join on the way to `n` peers
    /// is refused ([`try_join`](Self::try_join)).
    pub fn build(cfg: FissioneConfig, n: usize, rng: &mut SmallRng) -> Result<Self, FissioneError> {
        cfg.validate()?;
        if n < ROOTS {
            return Err(FissioneError::TooSmall);
        }
        let mut net = FissioneNet::new(cfg);
        while net.len() < n {
            net.try_join(rng)?;
        }
        Ok(net)
    }

    /// The static configuration.
    pub fn config(&self) -> &FissioneConfig {
        &self.cfg
    }

    /// Number of live peers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Always `false`: the root peers cannot leave.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `node` refers to a live peer.
    pub fn is_live(&self, node: NodeId) -> bool {
        self.slots.get(node).is_some_and(Option::is_some)
    }

    /// The peer behind a node id.
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::NoSuchPeer`] for dead or unknown ids.
    pub fn peer(&self, node: NodeId) -> Result<&Peer, FissioneError> {
        self.slots.get(node).and_then(Option::as_ref).ok_or(FissioneError::NoSuchPeer { node })
    }

    /// The PeerID behind a node id.
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::NoSuchPeer`] for dead or unknown ids.
    pub fn peer_id(&self, node: NodeId) -> Result<&KautzStr, FissioneError> {
        self.peer(node).map(Peer::id)
    }

    /// Iterates over live peers in PeerID order.
    pub fn live_peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.cover.leaves()
    }

    /// A uniformly random live peer.
    ///
    /// # Panics
    ///
    /// Panics if the slot table is empty (cannot happen: roots are
    /// permanent).
    pub fn random_peer(&self, rng: &mut SmallRng) -> NodeId {
        loop {
            let i = rng.gen_range(0..self.slots.len());
            if self.slots[i].is_some() {
                return i;
            }
        }
    }

    /// Deepest live PeerID length.
    pub fn max_depth(&self) -> usize {
        self.depth_hist.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    /// Shallowest live PeerID length.
    pub fn min_depth(&self) -> usize {
        self.depth_hist.iter().position(|&c| c > 0).unwrap_or(0)
    }

    /// The unique live peer whose PeerID is a prefix of `s`.
    ///
    /// Because live PeerIDs form a prefix-free cover, this is the leaf on
    /// `s`'s path down the partition tree — one step per symbol of its
    /// PeerID.
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::TargetTooShort`] if `s` is shorter than the
    /// owning region's depth (no PeerID prefixes it).
    pub fn owner_of(&self, s: &KautzStr) -> Result<NodeId, FissioneError> {
        self.owner_of_window(ObjectKey::new(s).head(), s.len())
    }

    /// [`owner_of`](Self::owner_of) on the window of a string (the key of
    /// its first 64 symbols, [`ObjectKey::head`]); `len` is the probed
    /// string's full length (the error reports it).
    pub(crate) fn owner_of_window(
        &self,
        window: PeerKey,
        len: usize,
    ) -> Result<NodeId, FissioneError> {
        self.cover.owner(window).ok_or_else(|| self.target_too_short(len))
    }

    /// The error for a probed string of `target_len` symbols that no live
    /// PeerID prefixes.
    pub(crate) fn target_too_short(&self, target_len: usize) -> FissioneError {
        FissioneError::TargetTooShort { target_len, max_depth: self.max_depth() }
    }

    /// Live peers whose PeerIDs start with `prefix` (PeerID order).
    pub fn peers_with_prefix(&self, prefix: &KautzStr) -> impl Iterator<Item = NodeId> + '_ {
        self.cover.below(ObjectKey::new(prefix).head()).unwrap_or_else(|_| Leaves::none())
    }

    /// The key of live peer `node`.
    fn key_of(&self, node: NodeId) -> PeerKey {
        PeerKey::new(self.peer(node).expect("live node").id())
    }

    /// Appends the live peers prefix-compatible with `prefix`, in PeerID
    /// order: the one owning a *proper* prefix of it, if any, then every one
    /// it prefixes (the cover is prefix-free, so never both): one descent
    /// of the tree along `prefix`, which either meets that ancestor's leaf
    /// or ends at the subtree of the rest.
    fn compatible_into(&self, prefix: PeerKey, out: &mut Vec<NodeId>) {
        match self.cover.below(prefix) {
            Ok(leaves) => out.extend(leaves),
            Err(ancestor) => out.push(ancestor),
        }
    }

    /// Out-neighbors of `node`: every live peer prefix-compatible with the
    /// left shift `u2…ul` of the node's PeerID (§3's `u2…ul·q1…qm` rule,
    /// generalised to arbitrary depth differences).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not live.
    pub fn out_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.out_neighbors_into(node, &mut out);
        out
    }

    /// Buffer-reusing core of [`out_neighbors`](Self::out_neighbors):
    /// overwrites `out` with the result, in the same order. The shift is
    /// one key shift, so a walk copies no string and encodes the PeerID
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not live.
    pub fn out_neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        self.compatible_into(self.key_of(node).shift(), out);
    }

    /// The routing table of the current cover, built on the first call
    /// after a membership change (`O(N log N)`; concurrent first callers
    /// wait for one build) and shared by every reader until the next one.
    ///
    /// Who builds one: PIRA, MIRA and sequential-walk queries, and every
    /// route — `next_hop`, `route_fold`, `route_tree_fold`, `route` —
    /// hence a PHT get batch and a replica fetch phase, also the one
    /// `re_replicate` prices for the copies it places: one build per batch
    /// of membership changes, the same one the next query would have paid.
    /// Who must not: the paths that
    /// run *between* the changes of such a batch — `join` (the owner probe
    /// by rank, the three-path steps to a local minimum, the split) and
    /// `stabilize` — keep walking the partition tree directly, or every
    /// join would pay an `O(N log N)` build for a table the split it ends
    /// in drops.
    pub fn route_table(&self) -> &RouteTable {
        self.table.get_or_init(|| RouteTable::build(self))
    }

    /// Drops the routing table. Called by everything that edits the
    /// partition tree, before it does.
    fn cover_changed(&mut self) {
        self.table.take();
    }

    /// In-neighbors of `node`: every live peer `W` with `node ∈ out(W)`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not live.
    pub fn in_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.in_neighbors_into(node, &mut out);
        out
    }

    /// Buffer-reusing core of [`in_neighbors`](Self::in_neighbors):
    /// overwrites `out` with the result, in the same order. Per first
    /// symbol `a` in symbol order, the peers prefix-compatible with the
    /// stem `a ++ id` — one prepended key group: `a ++` a proper prefix of
    /// the id, or `a ++ id ++` any tail.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not live.
    pub fn in_neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        let key = self.key_of(node);
        out.clear();
        for a in (0..ROOTS as u8).filter(|&a| Some(a) != key.first()) {
            self.compatible_into(key.stem(a), out);
        }
    }

    /// Both neighbor sets, deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not live.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut v = self.out_neighbors(node);
        v.extend(self.in_neighbors(node));
        v.sort_unstable();
        v.dedup();
        v
    }

    /// A new peer joins: routes to a random namespace point, descends to a
    /// locally minimal-depth leaf per the configured [`BalanceRule`], and
    /// splits it. Returns the newcomer's node id.
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::ObjectIdTooShort`], the network untouched
    /// (the namespace point drawn from `rng` all the same), if the leaf
    /// picked already sits at the ObjectID depth: its region is one ObjectID
    /// and cannot be halved. The configured `object_id_len` is too small
    /// for this many peers.
    pub fn try_join(&mut self, rng: &mut SmallRng) -> Result<NodeId, FissioneError> {
        // The draw of `KautzStr::random`, walked down the tree bit by bit.
        let len = self.cfg.object_id_len;
        let owner = self.cover.owner_by_rank(len, rng.gen_range(0..KautzStr::count(len)));
        let (victim, key) = match self.cfg.balance {
            BalanceRule::RandomOwner => owner,
            BalanceRule::LocalMin { max_steps } => self.descend_to_local_min(owner, max_steps),
        };
        debug_assert_eq!(key, self.key_of(victim), "the join carried the key of another peer");
        let (depth, object_id_len) = (key.depth(), self.cfg.object_id_len);
        if depth >= object_id_len {
            return Err(FissioneError::ObjectIdTooShort { depth, object_id_len });
        }
        Ok(self.split_keyed(victim, key))
    }

    /// [`try_join`](Self::try_join) for callers that sized `object_id_len`
    /// for their peer count.
    ///
    /// # Panics
    ///
    /// Panics where `try_join` returns an error.
    pub fn join(&mut self, rng: &mut SmallRng) -> NodeId {
        self.try_join(rng).expect("object_id_len resolves one level below the leaf a join splits")
    }

    /// Hill-descends from `start`, a live peer and its key, towards a peer
    /// whose depth is minimal among its neighbors; returns that peer and
    /// its key.
    ///
    /// Consumes no RNG. Each step moves to the `min (depth, node)` over the
    /// neighbor set if that depth is below the current peer's `d`, and
    /// reads it off at most three root-to-leaf paths of the partition tree,
    /// not off the neighbor lists. Out-neighbors are the leaves
    /// prefix-compatible with the shift (`d − 1` symbols): one strictly
    /// below it has depth `≥ d`, so the only shallower one is the leaf its
    /// path meets within `d − 1` steps. In-neighbors are the leaves
    /// prefix-compatible with the two stems (`d + 1` symbols): every leaf
    /// at or below a stem has depth `≥ d + 1`, so the only shallower one is
    /// the leaf its path meets within `d − 1` steps. The neighbors
    /// shallower than `d` are these (at most three), and the minimum over
    /// them is the neighbor set's whenever that one is below `d`. Debug
    /// builds assert every step against the full neighbor scan.
    fn descend_to_local_min(
        &self,
        start: (NodeId, PeerKey),
        max_steps: usize,
    ) -> (NodeId, PeerKey) {
        let mut cur = start;
        // No live peer is shallower than the histogram's global minimum, so
        // a peer already there is a local minimum by definition: the last
        // step of most descents probes nothing.
        let global_min = self.min_depth();
        for _ in 0..max_steps {
            if cur.1.depth() == global_min {
                break;
            }
            let next = self.shallower_neighbor(cur.1);
            #[cfg(debug_assertions)]
            assert_eq!(
                next.map(|(node, _)| node),
                self.shallower_neighbor_by_scan(cur.0),
                "the descent's pick differs from the neighbor scan's"
            );
            match next {
                Some(next) => cur = next,
                None => break,
            }
        }
        cur
    }

    /// The `min (depth, node)` over the neighbors of the peer keyed `key`
    /// shallower than it, with its key: the leaves the paths of its shift
    /// and of its two stems meet above its depth (see
    /// [`descend_to_local_min`](Self::descend_to_local_min)). `key` must be
    /// at depth 2 or more.
    fn shallower_neighbor(&self, key: PeerKey) -> Option<(NodeId, PeerKey)> {
        let depth = key.depth();
        let stems = (0..ROOTS as u8).filter(|&a| Some(a) != key.first()).map(|a| key.stem(a));
        std::iter::once(key.shift())
            .chain(stems)
            .filter_map(|path| {
                let (node, above) = self.cover.leaf_above(path, depth)?;
                Some((above, node, path.truncate(above)))
            })
            .min()
            .map(|(_, node, key)| (node, key))
    }

    /// The reference [`shallower_neighbor`](Self::shallower_neighbor) is
    /// asserted against: `min (depth, node)` over both neighbor lists of
    /// `node`, if that depth is below its own.
    #[cfg(any(test, debug_assertions))]
    fn shallower_neighbor_by_scan(&self, node: NodeId) -> Option<NodeId> {
        let (mut outs, mut ins) = (Vec::new(), Vec::new());
        self.out_neighbors_into(node, &mut outs);
        self.in_neighbors_into(node, &mut ins);
        let best = outs.iter().chain(&ins).map(|&n| (self.depth_of(n), n)).min();
        best.filter(|&(depth, _)| depth < self.depth_of(node)).map(|(_, n)| n)
    }

    /// Splits the leaf of `node` into its two children; `node` keeps the
    /// lexicographically first child, a fresh peer takes the second — and
    /// with it the upper part of the split peer's key interval: no object
    /// moves.
    ///
    /// Returns `(node, newcomer)`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not live, sits at the ObjectID depth limit, or
    /// sits at [`MAX_PEER_DEPTH`].
    pub fn split_leaf(&mut self, node: NodeId) -> (NodeId, NodeId) {
        (node, self.split_keyed(node, self.key_of(node)))
    }

    /// [`split_leaf`](Self::split_leaf) of `node`, keyed `key`: returns the
    /// newcomer.
    fn split_keyed(&mut self, node: NodeId, key: PeerKey) -> NodeId {
        self.cover_changed();
        let depth = key.depth();
        assert!(depth < self.cfg.object_id_len, "peer regions cannot outgrow ObjectID resolution");
        assert!(
            depth < MAX_PEER_DEPTH,
            "cannot split a depth-{depth} leaf: PeerID keys hold MAX_PEER_DEPTH = {MAX_PEER_DEPTH} symbols"
        );
        let [left, right] = key.children().map(|child| child.symbol(depth).expect("a child"));
        let id = &mut self.slots[node].as_mut().expect("live node").id;
        let newcomer = Peer { id: id.child(right).expect("a child symbol") };
        id.push(left).expect("a child symbol");
        let newcomer = self.alloc_slot(newcomer);
        self.cover.split(key, newcomer);
        self.bump_depth(depth, -1);
        self.bump_depth(depth + 1, 2);
        self.live += 1;
        newcomer
    }

    /// Graceful departure: the peer's region — and with it the interval of
    /// the object table it stored — is taken over as the crate docs describe.
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::NoSuchPeer`] for dead ids and
    /// [`FissioneError::TooSmall`] when only the root peers remain.
    pub fn leave(&mut self, node: NodeId) -> Result<(), FissioneError> {
        let key = PeerKey::new(self.peer(node)?.id());
        if self.live <= ROOTS {
            return Err(FissioneError::TooSmall);
        }
        self.cover_changed();

        // Fast path: the sibling leaf exists and can absorb the parent.
        if let Some(sib_node) = self.cover.sibling(key) {
            self.free_slot(node, key);
            self.merge(sib_node, key.sibling());
            return Ok(());
        }

        // Donor path: merge the deepest sibling-leaf pair (inside the
        // sibling subtree when one exists, else anywhere; the last of the
        // deepest in PeerID order), freeing a peer that adopts the leaver's
        // label.
        let scope = if key.depth() > 1 { key.sibling() } else { PeerKey::EMPTY };
        let (deep, donor) = self
            .cover
            .keyed(scope)
            .filter(|&(_, n)| n != node)
            .max_by_key(|&(k, _)| k.depth())
            .ok_or(FissioneError::TooSmall)?;
        if deep.depth() <= scope.depth().max(1) {
            // Scope contains only its root: nothing to merge.
            return Err(FissioneError::TooSmall);
        }

        // Merge the deepest pair: its sibling must itself be a leaf.
        let sib_node = self.cover.sibling(deep).expect("sibling of a deepest leaf is a leaf");
        debug_assert_ne!(sib_node, node);
        self.bump_depth(deep.depth(), -1);
        self.merge(sib_node, deep.sibling());

        // The freed donor adopts the leaver's label, and with it the
        // leaver's interval: the depth histogram at the leaver's depth is
        // unchanged; only the leaver's slot and live count go away.
        self.slots[donor] = self.slots[node].take();
        self.cover.retag(key, donor);
        self.free_slots.push(Reverse(node));
        self.live -= 1;
        Ok(())
    }

    /// Abrupt failure: a [`leave`](Self::leave) after which the entries in
    /// the peer's interval are deleted from the object table
    /// (self-stabilisation reclaims only the region). Returns the number of
    /// handles lost; a refused crash loses nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FissioneNet::leave`].
    pub fn crash(&mut self, node: NodeId) -> Result<usize, FissioneError> {
        let (first, last) = PeerKey::new(self.peer(node)?.id()).interval().into_inner();
        self.leave(node)?;
        let column = self.objects.column_mut();
        let start = column.partition_point(|&(key, _)| key < first);
        let end = start + column[start..].partition_point(|&(key, _)| key <= last);
        column.drain(start..end);
        let lost = end - start;
        self.lost_handles += lost as u64;
        Ok(lost)
    }

    /// Handles deleted by crashes over the network's lifetime. A crash is
    /// the only operation that removes an object, so whoever republished
    /// everything missing at one reading has nothing to look for until the
    /// next reading differs.
    pub fn lost_handles(&self) -> u64 {
        self.lost_handles
    }

    /// Repairs neighborhood-invariant violations by migrating peers from the
    /// deepest sibling-leaf pairs onto too-shallow leaves. Returns the
    /// number of migrations performed (bounded by the peer count).
    ///
    /// A peer's *gap* is its deepest neighbor's depth minus its own; a gap
    /// of 2 or more is a violation. Each round migrates the deepest leaf
    /// pair onto the peer with the widest gap. Ties break in **PeerID
    /// order** — the first of the widest gaps, the last of the deepest
    /// leaves — and that order is part of the determinism contract: which
    /// pair migrates decides the cover, and the cover every query digest
    /// after it.
    ///
    /// Cost: one `O(N)` pass over out-edges for the gaps, then per migration
    /// a linear read of them and of the depths plus `O(deg²)` probes to
    /// re-derive the gaps of the neighborhood that moved. Debug builds
    /// assert every round's pick against a full re-derivation.
    pub fn stabilize(&mut self) -> usize {
        let mut gaps = self.gaps();
        let mut ops = 0;
        let cap = self.live;
        while ops < cap && self.stabilize_round(&mut gaps) {
            ops += 1;
        }
        ops
    }

    /// Every slot's gap, from one pass over out-edges: in-neighbors are the
    /// reverse of the out-neighbor relation, so each edge `u → v` is folded
    /// into both endpoints' gaps.
    fn gaps(&self) -> Gaps {
        let mut gaps = Gaps { gap: vec![0; self.slots.len()], row: Vec::new(), moved: Vec::new() };
        for (node, slot) in self.slots.iter().enumerate() {
            let Some(peer) = slot else { continue };
            self.out_neighbors_into(node, &mut gaps.row);
            for &nb in &gaps.row {
                let (depth, nb_depth) = (peer.depth(), self.depth_of(nb));
                gaps.gap[node] = gaps.gap[node].max(gap_between(depth, nb_depth));
                gaps.gap[nb] = gaps.gap[nb].max(gap_between(nb_depth, depth));
            }
        }
        gaps
    }

    /// The gap of live peer `node`, derived from both its neighbor sets.
    fn gap_of(&self, node: NodeId, row: &mut Vec<NodeId>) -> u8 {
        let depth = self.depth_of(node);
        let widest = |row: &[NodeId]| {
            row.iter().map(|&nb| gap_between(depth, self.depth_of(nb))).max().unwrap_or(0)
        };
        self.out_neighbors_into(node, row);
        let out_gap = widest(row);
        self.in_neighbors_into(node, row);
        out_gap.max(widest(row))
    }

    /// The round's `(donor, target)`: the last deepest leaf and the first
    /// peer with the widest violating gap, both in PeerID order, from one
    /// walk of the tree. `None` when no gap reaches 2.
    fn pick_migration(&self, gap: &[u8]) -> Option<(NodeId, NodeId)> {
        let mut worst: Option<(u8, NodeId)> = None;
        let mut deepest = (0, 0);
        for (key, node) in self.cover.keyed(PeerKey::EMPTY) {
            if gap[node] >= 2 && worst.is_none_or(|(widest, _)| gap[node] > widest) {
                worst = Some((gap[node], node));
            }
            if key.depth() >= deepest.0 {
                deepest = (key.depth(), node);
            }
        }
        let shallow = worst.map(|(_, node)| node);
        #[cfg(debug_assertions)]
        assert_eq!(shallow, self.worst_violation(), "the pick differs from the full scan's");
        let (shallow, deepest) = (shallow?, deepest.1);
        debug_assert!(
            self.depth_of(deepest) >= self.depth_of(shallow) + 2,
            "a gap of 2 has a neighbor two levels down"
        );
        Some((deepest, shallow))
    }

    /// One round of [`stabilize`](Self::stabilize): migrates the picked
    /// pair and brings `gaps` up to date with the cover; `false`, the cover
    /// untouched, when nothing violates.
    ///
    /// Only the neighborhood that moved is re-derived: the three peers
    /// whose PeerID changed and their *current* neighbors. A merged parent's
    /// neighbors are a superset of both children's old ones and a split
    /// leaf's old neighbors are the union of its children's new ones, so
    /// every peer that gained or lost a neighbor, or has one whose depth
    /// changed, is among them.
    fn stabilize_round(&mut self, gaps: &mut Gaps) -> bool {
        let Some((donor, target)) = self.pick_migration(&gaps.gap) else { return false };
        let changed = self.migrate(donor, target);
        // The donor's slot is free again and reads 0 already: nothing was
        // deeper than the deepest leaf. The newcomer took the lowest free
        // slot — that one or another, never a new one.
        debug_assert_eq!(gaps.gap[donor], 0);
        debug_assert_eq!(gaps.gap.len(), self.slots.len());
        gaps.moved.clear();
        for node in changed {
            gaps.moved.push(node);
            self.out_neighbors_into(node, &mut gaps.row);
            gaps.moved.extend_from_slice(&gaps.row);
            self.in_neighbors_into(node, &mut gaps.row);
            gaps.moved.extend_from_slice(&gaps.row);
        }
        gaps.moved.sort_unstable();
        gaps.moved.dedup();
        for &node in &gaps.moved {
            gaps.gap[node] = self.gap_of(node, &mut gaps.row);
        }
        true
    }

    /// The full scan [`pick_migration`](Self::pick_migration) is asserted
    /// against: the first peer in PeerID order with the widest gap of 2 or
    /// more, every gap derived afresh from [`neighbors`](Self::neighbors).
    #[cfg(any(test, debug_assertions))]
    fn worst_violation(&self) -> Option<NodeId> {
        let mut worst: Option<(usize, NodeId)> = None;
        for node in self.live_peers() {
            let d = self.depth_of(node);
            let max_nb =
                self.neighbors(node).into_iter().map(|n| self.depth_of(n)).max().unwrap_or(d);
            if max_nb >= d + 2 {
                let gap = max_nb - d;
                if worst.is_none_or(|(g, _)| gap > g) {
                    worst = Some((gap, node));
                }
            }
        }
        worst.map(|(_, n)| n)
    }

    /// Merges `donor`'s sibling pair and re-splits `target` with the freed
    /// peer. Returns the peers whose PeerID changed: the donor's sibling
    /// (now their parent), `target` (now its left child) and the newcomer on
    /// the right child.
    fn migrate(&mut self, donor: NodeId, target: NodeId) -> [NodeId; 3] {
        let deep = self.key_of(donor);
        debug_assert!(deep.depth() > 1, "root peers are never deepest in a violation");
        let sib_node = self.cover.sibling(deep).expect("sibling of the deepest leaf is a leaf");
        // Both sit two levels or more below the target, so neither is it.
        debug_assert_ne!(donor, target, "the deepest leaf violates nothing");
        debug_assert_ne!(sib_node, target, "the donor's sibling is as deep as the donor");
        self.cover_changed();
        self.free_slot(donor, deep); // the donor, out until the split
        self.merge(sib_node, deep.sibling());

        // Split the target; the lowest free slot takes the right child.
        let (_, newcomer) = self.split_leaf(target);
        [sib_node, target, newcomer]
    }

    /// `Ok(len)`, or [`FissioneError::ObjectIdLen`] unless `len` is the
    /// configured `object_id_len`: a string of another length would sort
    /// into the table without being an ObjectID.
    pub(crate) fn object_id_len(&self, len: usize) -> Result<usize, FissioneError> {
        let expected = self.cfg.object_id_len;
        if len == expected {
            Ok(len)
        } else {
            Err(FissioneError::ObjectIdLen { len, expected })
        }
    }

    /// The peer that stores `key`, an ObjectID of `object_id_len` symbols.
    fn key_owner(&self, key: ObjectKey) -> Result<NodeId, FissioneError> {
        let len = self.object_id_len(key.len())?;
        self.owner_of_window(key.head(), len)
    }

    /// Table entries with keys in `[from, to]`, ascending (none when
    /// `from > to`): two binary searches and a slice.
    fn entries(&self, from: ObjectKey, to: ObjectKey) -> &[(ObjectKey, u64)] {
        let column = self.objects.column();
        let start = column.partition_point(|&(key, _)| key < from);
        let end = start + column[start..].partition_point(|&(key, _)| key <= to);
        &column[start..end]
    }

    /// Publishes an object handle under the ObjectID whose key is `key`.
    /// The pair is stored once however often it is published. An `O(1)`
    /// append: the next read sorts it into place (see [`FissioneNet`]), and
    /// no owner is probed — the peer that stores it is read off the key
    /// ([`lookup`](Self::lookup), [`owner_of`](Self::owner_of)).
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::ObjectIdLen`] unless `key` encodes exactly
    /// `object_id_len` symbols.
    pub fn publish(&mut self, key: ObjectKey, handle: u64) -> Result<(), FissioneError> {
        self.object_id_len(key.len())?;
        self.objects.push((key, handle));
        Ok(())
    }

    /// All handles published under the ObjectID whose key is `key`,
    /// ascending, with the node id of the peer that stores them.
    ///
    /// # Errors
    ///
    /// As [`publish`](Self::publish).
    pub fn lookup(
        &self,
        key: ObjectKey,
    ) -> Result<(NodeId, impl Iterator<Item = u64> + '_), FissioneError> {
        Ok((self.key_owner(key)?, self.handles_under(key)))
    }

    /// The handles published under the ObjectID whose key is `key`.
    pub(crate) fn handles_under(&self, key: ObjectKey) -> impl Iterator<Item = u64> + '_ {
        self.entries(key, key).iter().map(|&(_, handle)| handle)
    }

    /// The entries the consecutive peers keyed `first ..= last` (PeerID
    /// order, both ends read off the [`RouteTable`]) store under ObjectIDs
    /// in `[low, high]`, in `(key, handle)` order: their stores are
    /// adjacent intervals of the column, so a stretch of a range query's
    /// destinations is one slice however many peers it spans.
    pub fn entries_in_stretch(
        &self,
        (first, last): (PeerKey, PeerKey),
        low: ObjectKey,
        high: ObjectKey,
    ) -> &[(ObjectKey, u64)] {
        let (from, to) = (*first.interval().start(), *last.interval().end());
        self.entries(from.max(low), to.min(high))
    }

    /// Verifies the hard invariants (complete prefix-free cover, well-formed
    /// object keys, internal bookkeeping) and reports soft statistics.
    ///
    /// # Errors
    ///
    /// Returns [`FissioneError::InvariantViolated`] describing the state at
    /// failure.
    pub fn check_invariants(&self) -> Result<InvariantReport, FissioneError> {
        let report = self.report();
        // The tree: every leaf is a live slot carrying the leaf's key, and
        // there are as many leaves as live slots. Every internal node has
        // both children, so the leaves are a complete prefix-free cover.
        let carries = |key: PeerKey, node: NodeId| {
            self.slots
                .get(node)
                .and_then(Option::as_ref)
                .is_some_and(|p| PeerKey::new(&p.id) == key)
        };
        let mut leaves = 0;
        let mut walk = self.cover.keyed(PeerKey::EMPTY).inspect(|_| leaves += 1);
        let carried = walk.all(|(key, node)| carries(key, node));
        let live = self.slots.iter().filter(|slot| slot.is_some()).count();
        if !carried || leaves != self.live || live != self.live {
            return Err(FissioneError::InvariantViolated(report));
        }
        // A routing table that outlived a membership change would be stale.
        if self.table.get().is_some_and(|cached| *cached != RouteTable::build(self)) {
            return Err(FissioneError::InvariantViolated(report));
        }
        // The object table: every key is the exact form of an ObjectID of
        // the configured length (which peer stores it needs no check: that
        // is read off the key).
        let is_object_id =
            |key: &ObjectKey| key.decode().is_some_and(|id| id.len() == self.cfg.object_id_len);
        if !self.objects.column().iter().all(|(key, _)| is_object_id(key)) {
            return Err(FissioneError::InvariantViolated(report));
        }
        Ok(report)
    }

    /// Soft statistics without hard-invariant verification.
    pub fn report(&self) -> InvariantReport {
        let mut violations = 0;
        for node in self.live_peers() {
            let d = self.slots[node].as_ref().expect("live").id.len() as isize;
            for nb in self.out_neighbors(node) {
                let nd = self.slots[nb].as_ref().expect("live").id.len() as isize;
                if (nd - d).abs() > 1 {
                    violations += 1;
                }
            }
        }
        InvariantReport {
            peers: self.live,
            max_depth: self.max_depth(),
            min_depth: self.min_depth(),
            neighborhood_violations: violations,
            total_objects: self.objects.column().len(),
        }
    }

    /// Per-depth live peer counts (index = depth).
    pub fn depth_histogram(&self) -> &[usize] {
        &self.depth_hist
    }

    // ------------------------------------------------------------------
    // internals

    /// Depth of live peer `node`.
    fn depth_of(&self, node: NodeId) -> usize {
        self.slots[node].as_ref().expect("live").id.len()
    }

    /// Merges the leaf `survivor`, keyed `key`, with its sibling leaf, whose
    /// peer is already gone: `survivor` takes the parent's PeerID.
    fn merge(&mut self, survivor: NodeId, key: PeerKey) {
        self.cover.merge(key.parent(), survivor);
        let id = &mut self.slots[survivor].as_mut().expect("live node").id;
        *id = id.take_front(key.depth() - 1);
        self.bump_depth(key.depth(), -1);
        self.bump_depth(key.depth() - 1, 1);
    }

    fn alloc_slot(&mut self, peer: Peer) -> NodeId {
        // Pops the lowest free index — the same slot the old
        // `position(Option::is_none)` scan found, without the scan.
        if let Some(Reverse(i)) = self.free_slots.pop() {
            debug_assert!(self.slots[i].is_none(), "free-slot heap out of sync");
            self.slots[i] = Some(peer);
            i
        } else {
            self.slots.push(Some(peer));
            self.slots.len() - 1
        }
    }

    /// Frees the slot of `node`, keyed `key`, whose leaf a merge is about
    /// to drop.
    fn free_slot(&mut self, node: NodeId, key: PeerKey) {
        self.bump_depth(key.depth(), -1);
        self.slots[node] = None;
        self.free_slots.push(Reverse(node));
        self.live -= 1;
    }

    fn bump_depth(&mut self, depth: usize, delta: isize) {
        if self.depth_hist.len() <= depth {
            self.depth_hist.resize(depth + 1, 0);
        }
        let c = &mut self.depth_hist[depth];
        *c = (*c as isize + delta) as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FissioneConfig;
    use kautz::KautzRegion;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn small_cfg() -> FissioneConfig {
        FissioneConfig { object_id_len: 24, ..FissioneConfig::default() }
    }

    fn build(n: usize, seed: u64) -> FissioneNet {
        let mut rng = simnet::rng_from_seed(seed);
        FissioneNet::build(small_cfg(), n, &mut rng).unwrap()
    }

    fn ks(s: &str) -> KautzStr {
        s.parse().unwrap()
    }

    /// The live peers by key, read off the slots: the ordered cover the tree's
    /// answers are held against.
    fn oracle(net: &FissioneNet) -> BTreeMap<PeerKey, NodeId> {
        let slots = net.slots.iter().enumerate();
        slots.filter_map(|(node, slot)| Some((PeerKey::new(&slot.as_ref()?.id), node))).collect()
    }

    #[test]
    fn new_network_has_root_cover() {
        let net = FissioneNet::new(small_cfg());
        assert_eq!(net.len(), 3);
        net.check_invariants().unwrap();
        assert_eq!(net.max_depth(), 1);
    }

    #[test]
    fn grows_with_invariants_intact() {
        let mut rng = simnet::rng_from_seed(1);
        let mut net = FissioneNet::new(small_cfg());
        for i in 0..200 {
            net.join(&mut rng);
            if i % 20 == 0 {
                net.check_invariants().unwrap();
            }
        }
        let report = net.check_invariants().unwrap();
        assert_eq!(report.peers, 203);
        assert_eq!(report.neighborhood_violations, 0, "balanced growth");
    }

    #[test]
    fn depth_bounds_hold_at_n_2000() {
        let net = build(2000, 2);
        let report = net.check_invariants().unwrap();
        let log_n = (2000f64).log2();
        assert!(
            (report.max_depth as f64) < 2.0 * log_n,
            "max depth {} vs 2logN {}",
            report.max_depth,
            2.0 * log_n
        );
        // Average depth < logN (§3).
        let total: usize = net.live_peers().map(|n| net.peer(n).unwrap().depth()).sum();
        let avg = total as f64 / net.len() as f64;
        assert!(avg < log_n, "avg depth {avg} vs logN {log_n}");
    }

    #[test]
    fn owner_is_unique_prefix_holder() {
        let net = build(300, 3);
        let mut rng = simnet::rng_from_seed(33);
        for _ in 0..200 {
            let s = KautzStr::random(net.config().object_id_len, &mut rng);
            let owner = net.owner_of(&s).unwrap();
            let owner_id = net.peer_id(owner).unwrap();
            assert!(owner_id.is_prefix_of(&s));
            // No other live peer prefixes s.
            for n in net.live_peers() {
                if n != owner {
                    assert!(!net.peer_id(n).unwrap().is_prefix_of(&s));
                }
            }
        }
    }

    #[test]
    fn owner_of_short_string_errors() {
        let net = build(50, 4);
        let err = net.owner_of(&ks("0")).unwrap_err();
        assert!(matches!(err, FissioneError::TargetTooShort { .. }));
    }

    #[test]
    fn out_neighbors_are_shift_compatible() {
        let net = build(150, 5);
        for node in net.live_peers() {
            let id = net.peer_id(node).unwrap().clone();
            let shift = id.drop_front(1);
            let nbrs = net.out_neighbors(node);
            assert!(!nbrs.is_empty(), "strongly connected cover");
            for nb in &nbrs {
                let nid = net.peer_id(*nb).unwrap();
                assert!(nid.prefix_compatible(&shift), "{id} -> {nid}");
            }
            // Exhaustive: every compatible peer is listed.
            for other in net.live_peers() {
                let oid = net.peer_id(other).unwrap();
                if oid.prefix_compatible(&shift) {
                    assert!(nbrs.contains(&other), "{id} missing neighbor {oid}");
                }
            }
        }
    }

    #[test]
    fn in_neighbors_invert_out_neighbors() {
        let net = build(120, 6);
        for node in net.live_peers() {
            for nb in net.out_neighbors(node) {
                assert!(
                    net.in_neighbors(nb).contains(&node),
                    "{} -> {}",
                    net.peer_id(node).unwrap(),
                    net.peer_id(nb).unwrap()
                );
            }
            for nb in net.in_neighbors(node) {
                assert!(net.out_neighbors(nb).contains(&node));
            }
        }
    }

    #[test]
    fn average_total_degree_is_about_four() {
        let net = build(1000, 7);
        let total: usize =
            net.live_peers().map(|n| net.out_neighbors(n).len() + net.in_neighbors(n).len()).sum();
        let avg = total as f64 / net.len() as f64;
        assert!((3.0..5.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn publish_places_objects_at_owner() {
        let mut net = build(100, 8);
        let mut rng = simnet::rng_from_seed(88);
        for h in 0..50u64 {
            let obj = KautzStr::random(net.config().object_id_len, &mut rng);
            net.publish(ObjectKey::new(&obj), h).unwrap();
            let (found, handles) = net.lookup(ObjectKey::new(&obj)).unwrap();
            let handles: Vec<u64> = handles.collect();
            assert_eq!(found, net.owner_of(&obj).unwrap());
            assert!(handles.contains(&h));
        }
        net.check_invariants().unwrap();
    }

    #[test]
    fn split_repartitions_objects() {
        let mut net = FissioneNet::new(small_cfg());
        let mut rng = simnet::rng_from_seed(9);
        for h in 0..200u64 {
            let obj = KautzStr::random(net.config().object_id_len, &mut rng);
            net.publish(ObjectKey::new(&obj), h).unwrap();
        }
        for _ in 0..50 {
            net.join(&mut rng);
        }
        let report = net.check_invariants().unwrap();
        assert_eq!(report.total_objects, 200, "no object lost in splits");
    }

    #[test]
    fn leave_fast_path_merges_sibling() {
        let mut rng = simnet::rng_from_seed(10);
        let mut net = FissioneNet::new(small_cfg());
        // Split "0" into 01, 02; then have 02 leave: 01 should become 0.
        let zero = net.owner_of(&ks("0")).unwrap();
        let (left, right) = net.split_leaf(zero);
        assert_eq!(net.peer_id(left).unwrap(), &ks("01"));
        assert_eq!(net.peer_id(right).unwrap(), &ks("02"));
        net.leave(right).unwrap();
        assert_eq!(net.peer_id(left).unwrap(), &ks("0"));
        net.check_invariants().unwrap();
        let _ = &mut rng;
    }

    #[test]
    fn leave_donor_path_preserves_cover() {
        let mut rng = simnet::rng_from_seed(11);
        let mut net = FissioneNet::build(small_cfg(), 60, &mut rng).unwrap();
        // Publish objects, then churn heavily.
        for h in 0..100u64 {
            let obj = KautzStr::random(net.config().object_id_len, &mut rng);
            net.publish(ObjectKey::new(&obj), h).unwrap();
        }
        for _ in 0..30 {
            let victim = net.random_peer(&mut rng);
            net.leave(victim).unwrap();
            net.check_invariants().unwrap();
        }
        let report = net.check_invariants().unwrap();
        assert_eq!(report.peers, 30);
        assert_eq!(report.total_objects, 100, "graceful leaves keep objects");
    }

    #[test]
    fn crash_loses_objects_but_keeps_cover() {
        let mut rng = simnet::rng_from_seed(12);
        let mut net = FissioneNet::build(small_cfg(), 40, &mut rng).unwrap();
        let mut published = 0;
        for h in 0..60u64 {
            let obj = KautzStr::random(net.config().object_id_len, &mut rng);
            net.publish(ObjectKey::new(&obj), h).unwrap();
            published += 1;
        }
        let victim = net.random_peer(&mut rng);
        let lost = net.crash(victim).unwrap();
        let report = net.check_invariants().unwrap();
        assert_eq!(report.total_objects + lost, published);
    }

    #[test]
    fn network_never_shrinks_below_roots() {
        let mut rng = simnet::rng_from_seed(13);
        let mut net = FissioneNet::build(small_cfg(), 4, &mut rng).unwrap();
        let peers: Vec<NodeId> = net.live_peers().collect();
        net.leave(peers[0]).unwrap();
        let remaining: Vec<NodeId> = net.live_peers().collect();
        assert_eq!(remaining.len(), 3);
        let err = net.leave(remaining[0]).unwrap_err();
        assert_eq!(err, FissioneError::TooSmall);
    }

    /// A network churned under the unbalanced join rule, which leaves
    /// violations behind and slot order unrelated to PeerID order.
    fn churned(n: usize, events: usize, seed: u64) -> FissioneNet {
        let mut rng = simnet::rng_from_seed(seed);
        let cfg = FissioneConfig { balance: BalanceRule::RandomOwner, ..small_cfg() };
        let mut net = FissioneNet::build(cfg, n, &mut rng).unwrap();
        for _ in 0..events {
            let victim = net.random_peer(&mut rng);
            let _ = net.leave(victim);
            net.join(&mut rng);
        }
        net
    }

    #[test]
    fn stabilize_reduces_violations_after_churn() {
        let mut net = churned(400, 150, 14);
        let before = net.report().neighborhood_violations;
        net.stabilize();
        let after = net.report().neighborhood_violations;
        net.check_invariants().unwrap();
        assert!(after <= before, "stabilize must not make things worse");
        assert_eq!(after, 0, "stabilize converges to the invariant");
    }

    /// The PeerID in every slot.
    fn cover(net: &FissioneNet) -> Vec<Option<KautzStr>> {
        net.slots.iter().map(|slot| slot.as_ref().map(|peer| peer.id.clone())).collect()
    }

    /// Every slot's gap by the public per-peer derivation: `neighbors()`,
    /// then depths.
    fn fresh_gaps(net: &FissioneNet) -> Vec<u8> {
        let depth = |n: NodeId| net.peer(n).unwrap().depth();
        let gap_of = |node: NodeId| {
            let deepest = net.neighbors(node).into_iter().map(depth).max().unwrap_or(0);
            deepest.saturating_sub(depth(node)) as u8
        };
        (0..net.slots.len()).map(|node| if net.is_live(node) { gap_of(node) } else { 0 }).collect()
    }

    #[test]
    fn ties_break_in_peer_id_order_not_node_id_order() {
        // A seed that ties two peers on the widest gap and two on the
        // greatest depth, with slot order disagreeing on both.
        let net = churned(200, 80, 44);
        let gap = net.gaps().gap;
        let by_id: Vec<NodeId> = net.live_peers().collect();
        let widest = by_id.iter().map(|&n| gap[n]).max().unwrap();
        assert!(widest >= 2, "nothing violates");
        let tied_gap: Vec<NodeId> = by_id.iter().copied().filter(|&n| gap[n] == widest).collect();
        let tied_depth: Vec<NodeId> =
            by_id.iter().copied().filter(|&n| net.depth_of(n) == net.max_depth()).collect();
        assert_eq!((tied_gap.len(), tied_depth.len()), (2, 2));
        // The pin bites only where slot order would choose differently: a
        // scan by NodeId keeps the lowest slot of the widest gaps and the
        // highest of the deepest leaves.
        let (target, donor) = (tied_gap[0], *tied_depth.last().unwrap());
        assert_ne!(target, *tied_gap.iter().min().unwrap(), "first widest gap in either order");
        assert_ne!(donor, *tied_depth.iter().max().unwrap(), "last deepest leaf in either order");
        assert_eq!(net.pick_migration(&gap), Some((donor, target)));
    }

    /// `stabilize` round by round: the maintained gaps against a fresh
    /// derivation of every slot's — the first pass, then after each
    /// migration — and each round's answer against what it did to the cover.
    /// Returns the number of rounds that changed it.
    fn stabilize_checking_rounds(net: &mut FissioneNet) -> usize {
        let mut gaps = net.gaps();
        assert_eq!(gaps.gap, fresh_gaps(net), "the out-edge pass");
        let mut migrations = 0;
        loop {
            let before = cover(net);
            let migrated = net.stabilize_round(&mut gaps);
            assert_eq!(migrated, cover(net) != before, "a round reports what it did");
            if !migrated {
                break;
            }
            migrations += 1;
            assert_eq!(gaps.gap, fresh_gaps(net), "after migration {migrations}");
        }
        assert_eq!(net.report().neighborhood_violations, 0);
        migrations
    }

    #[test]
    fn stabilize_returns_the_number_of_rounds_that_changed_the_cover() {
        for seed in [22, 23, 24] {
            let mut net = churned(300, 120, seed);
            let reported = net.clone().stabilize();
            assert!(reported > 0, "seed {seed} left nothing to repair");
            assert_eq!(reported, stabilize_checking_rounds(&mut net));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_refreshed_neighborhood_holds_every_gap_a_migration_moves(
            seed in 0u64..1000,
            ops in prop::collection::vec((0u8..10, any::<usize>()), 1..40),
        ) {
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = churned(24, 8, seed);
            for (op, raw) in ops {
                let peers: Vec<NodeId> = net.live_peers().collect();
                let victim = peers[raw % peers.len()];
                match op {
                    0..=2 => drop(net.join(&mut rng)),
                    3..=4 => drop(net.leave(victim)),
                    5 => drop(net.crash(victim)),
                    6..=7 if net.depth_of(victim) < 20 => drop(net.split_leaf(victim)),
                    _ => drop(stabilize_checking_rounds(&mut net)),
                }
            }
            // However the schedule left it: two more levels under the
            // deepest leaf put its neighbors two levels up, so something
            // must migrate.
            let leaf = net.live_peers().max_by_key(|&n| net.depth_of(n)).unwrap();
            net.split_leaf(leaf);
            net.split_leaf(leaf);
            prop_assert!(stabilize_checking_rounds(&mut net) > 0);
            net.check_invariants().unwrap();
        }
    }

    #[test]
    fn random_peer_is_live() {
        let mut rng = simnet::rng_from_seed(15);
        let mut net = FissioneNet::build(small_cfg(), 30, &mut rng).unwrap();
        for _ in 0..10 {
            let victim = net.random_peer(&mut rng);
            net.leave(victim).unwrap();
        }
        for _ in 0..50 {
            assert!(net.is_live(net.random_peer(&mut rng)));
        }
    }

    #[test]
    fn split_leaf_stops_at_the_key_depth_limit() {
        // The paper's ObjectID length (100) would allow deeper leaves than
        // the key arithmetic does; the split that would cross the limit
        // must say so instead of overflowing a shift.
        let mut net = FissioneNet::new(FissioneConfig::default());
        let leaf = net.live_peers().next().unwrap();
        while net.peer(leaf).unwrap().depth() < MAX_PEER_DEPTH {
            net.split_leaf(leaf);
        }
        net.check_invariants().unwrap();
        assert_table_matches_the_cover(&net);
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.split_leaf(leaf)))
            .expect_err("a split past the limit must be refused");
        let message = hit.downcast_ref::<String>().expect("a formatted panic message");
        assert!(message.contains("MAX_PEER_DEPTH = 63"), "{message}");
    }

    fn key(id: &KautzStr) -> PeerKey {
        PeerKey::new(id)
    }

    /// A region of `k`-symbol strings whose endpoints share their first
    /// `share` symbols (junction permitting) and are otherwise independent.
    fn random_region(k: usize, share: usize, rng: &mut SmallRng) -> KautzRegion {
        let a = KautzStr::random(k, rng);
        let b = KautzStr::random(k, rng);
        let b = a.take_front(share).concat(&b.drop_front(share)).unwrap_or(b);
        let (low, high) = if a <= b { (a, b) } else { (b, a) };
        KautzRegion::new(low, high).unwrap()
    }

    /// The table against the cover it was built from: its keys are the
    /// oracle map's, rank for rank; `ranks` and `nodes` are inverse (a
    /// dead or unknown slot has no rank); and every live peer's row, mapped
    /// through `nodes`, is its out-neighbor list.
    fn assert_table_matches_the_cover(net: &FissioneNet) {
        let table = net.route_table();
        assert_eq!(table.len(), net.len());
        for (rank, (k, node)) in oracle(net).into_iter().enumerate() {
            assert_eq!((table.key(rank), table.node(rank)), (k, node), "rank {rank}");
            assert_eq!(table.rank(node), Some(rank));
            assert_eq!(k, key(net.peer_id(node).unwrap()));
            let row: Vec<NodeId> = table.out(rank).map(|r| table.node(r)).collect();
            assert_eq!(row, net.out_neighbors(node), "row of {}", net.peer_id(node).unwrap());
        }
        for node in (0..net.slots.len() + 2).chain([usize::MAX]) {
            assert_eq!(table.rank(node).is_some(), net.is_live(node), "slot {node}");
        }
    }

    /// The destination run as a walk of the oracle map: from `low`'s
    /// owner up to the last key not above `high`.
    fn run_by_walk(
        net: &FissioneNet,
        low: &KautzStr,
        high: &KautzStr,
    ) -> Result<Vec<NodeId>, FissioneError> {
        let first = key(net.peer_id(net.owner_of(low)?).unwrap());
        let high = ObjectKey::new(high).head();
        Ok(oracle(net).range(first..).take_while(|&(&k, _)| k <= high).map(|(_, &n)| n).collect())
    }

    /// [`RouteTable::run`] against the walk, on random regions of ObjectIDs
    /// and of PeerID-length strings, both ways round, and on lower ends too
    /// short to have an owner, and [`RouteTable::run_in`] on each region's
    /// sub-regions. Returns how many came out `TargetTooShort`.
    fn assert_runs_match_the_walk(net: &FissioneNet, rng: &mut SmallRng) -> usize {
        let table = net.route_table();
        let mut too_short = 0;
        for _ in 0..6 {
            let k = [24, rng.gen_range(1..=net.max_depth() + 1)][rng.gen_range(0..2usize)];
            let region = random_region(k, rng.gen_range(0..k), rng);
            let (low, high) = (region.low(), region.high());
            let short = low.take_front(rng.gen_range(0..3));
            for (low, high) in [(low, high), (high, low), (&short, high)] {
                let keys = (ObjectKey::new(low), ObjectKey::new(high));
                let run = table.run(keys.0, keys.1).map(|run| run.map(|r| table.node(r)).collect());
                assert_eq!(run, run_by_walk(net, low, high), "[{low}, {high}]");
                too_short += usize::from(matches!(run, Err(FissioneError::TargetTooShort { .. })));
            }
            // A sub-region's run, searched inside the region's, is its own.
            let Ok(whole) = table.run(ObjectKey::new(low), ObjectKey::new(high)) else { continue };
            for sub in region.split_by_common_prefix() {
                let keys = (ObjectKey::new(sub.low()), ObjectKey::new(sub.high()));
                let inside = table.run_in(whole.clone(), keys.0, keys.1);
                assert_eq!(inside.ok(), table.run(keys.0, keys.1).ok(), "{sub} in {region}");
            }
        }
        too_short
    }

    #[test]
    fn route_table_rows_equal_out_neighbors() {
        let mut too_short = 0;
        for (n, seed) in [(3, 16), (40, 17), (700, 18)] {
            let net = build(n, seed);
            assert_table_matches_the_cover(&net);
            too_short += assert_runs_match_the_walk(&net, &mut simnet::rng_from_seed(seed));
        }
        assert!(too_short > 0, "short lower ends must exercise the TargetTooShort arm");
    }

    // The table in rank order against the cover and the walk, after every
    // operation of a schedule that starts unbalanced (slot order unrelated
    // to PeerID order) and splits leaves past their neighbors, so rows reach
    // short ancestors as well as subtrees.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_rank_ordered_table_equals_the_cover_after_every_operation(
            seed in 0u64..1000,
            ops in prop::collection::vec((0u8..9, any::<usize>()), 1..50),
        ) {
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = churned(20, 6, seed);
            for (op, raw) in ops {
                let peers: Vec<NodeId> = net.live_peers().collect();
                let victim = peers[raw % peers.len()];
                match op {
                    0..=1 => drop(net.join(&mut rng)),
                    2..=3 => drop(net.leave(victim)),
                    4 => drop(net.crash(victim)),
                    5..=6 if net.depth_of(victim) < 20 => drop(net.split_leaf(victim)),
                    _ => drop(net.stabilize()),
                }
                assert_table_matches_the_cover(&net);
                assert_runs_match_the_walk(&net, &mut rng);
            }
        }
    }

    #[test]
    fn object_ids_of_another_length_are_refused_at_the_door() {
        let mut net = build(50, 20);
        for len in [23, 25, 30, 200] {
            let stray = ks("0").min_extension(len);
            let refused = |len| FissioneError::ObjectIdLen { len, expected: 24 };
            // A key keeps at most its first 128 symbols.
            let key = ObjectKey::new(&stray);
            assert_eq!(net.publish(key, 7).unwrap_err(), refused(len.min(128)));
            assert_eq!(net.lookup(key).map(|_| ()).unwrap_err(), refused(len.min(128)));
        }
        assert_eq!(net.check_invariants().unwrap().total_objects, 0);
    }

    #[test]
    fn build_names_the_object_id_length_limit() {
        let mut rng = simnet::rng_from_seed(21);
        let cfg = |object_id_len| FissioneConfig { object_id_len, ..FissioneConfig::default() };
        for len in [0, MAX_OBJECT_ID_LEN + 1, 200] {
            let refused = FissioneError::UnsupportedObjectIdLen { len, max: MAX_OBJECT_ID_LEN };
            assert_eq!(FissioneNet::build(cfg(len), 10, &mut rng).unwrap_err(), refused);
        }
        for len in [125, 126, MAX_OBJECT_ID_LEN] {
            let mut net = FissioneNet::build(cfg(len), 40, &mut rng).unwrap();
            let object = KautzStr::random(len, &mut rng);
            net.publish(ObjectKey::new(&object), 3).unwrap();
            let owner = net.owner_of(&object).unwrap();
            assert_eq!(net.lookup(ObjectKey::new(&object)).unwrap().0, owner);
            assert_eq!(net.handles_under(ObjectKey::new(&object)).collect::<Vec<_>>(), [3]);
            assert_eq!(net.check_invariants().unwrap().total_objects, 1);
        }
    }

    #[test]
    fn a_join_below_the_object_id_resolution_is_refused() {
        let cfg = FissioneConfig { object_id_len: 4, ..FissioneConfig::default() };
        let capacity = KautzStr::count(4) as usize;
        let refused = FissioneError::ObjectIdTooShort { depth: 4, object_id_len: 4 };
        let mut rng = simnet::rng_from_seed(22);
        // More peers than ObjectIDs.
        assert_eq!(FissioneNet::build(cfg, capacity + 1, &mut rng).unwrap_err(), refused);
        // A net at the limit, one peer per ObjectID (a draw that lands on a
        // full-depth local minimum on the way there is refused like any).
        let mut net = FissioneNet::new(cfg);
        while net.len() < capacity {
            assert!(net.try_join(&mut rng).map_or_else(|e| e == refused, |_| true));
        }
        assert_eq!((net.min_depth(), net.max_depth()), (4, 4));
        let full = net.check_invariants().unwrap();
        let mut twin = rng.clone();
        assert_eq!(net.try_join(&mut rng), Err(refused.clone()));
        // The refused join drew its namespace point all the same.
        KautzStr::random(4, &mut twin);
        assert_eq!(rng.gen::<u64>(), twin.gen::<u64>());
        let limit = dht_api::DynamicScheme::join(&mut net, &mut rng);
        assert_eq!(limit, Err(dht_api::SchemeError::Build(refused.to_string())));
        assert_eq!(net.check_invariants().unwrap(), full);
    }

    /// What `node` stores, read off the table: the entries in its interval.
    fn stored_at(net: &FissioneNet, node: NodeId) -> Vec<(KautzStr, u64)> {
        let (first, last) = key(net.peer_id(node).unwrap()).interval().into_inner();
        let entries = net.entries(first, last).iter();
        entries.map(|&(k, h)| (k.decode().expect("a valid key"), h)).collect()
    }

    type Model = std::collections::BTreeSet<(KautzStr, u64)>;

    /// The model's pairs that satisfy `keep`, in table order.
    fn pairs(model: &Model, keep: impl Fn(&KautzStr) -> bool) -> Vec<(KautzStr, u64)> {
        model.iter().filter(|(o, _)| keep(o)).cloned().collect()
    }

    /// Every live peer's derived store, and every read of the table, against
    /// the model; `[low, high]` is the range the range reads are tried on.
    fn assert_table_matches_the_model(net: &FissioneNet, model: &Model, rng: &mut SmallRng) {
        assert_eq!(net.report().total_objects, model.len());
        let ends = [KautzStr::random(24, rng), KautzStr::random(24, rng)];
        let (low, high) = (ends.iter().min().unwrap(), ends.iter().max().unwrap());
        let in_range = |o: &KautzStr| low <= o && o <= high;
        // The whole destination run as one stretch, then every peer alone.
        let keys = (ObjectKey::new(low), ObjectKey::new(high));
        let table = net.route_table();
        let run = table.run(keys.0, keys.1).unwrap();
        let (first, last) = (table.key(run.start), table.key(run.end - 1));
        let stretch = net.entries_in_stretch((first, last), keys.0, keys.1);
        let whole: Vec<u64> = stretch.iter().map(|&(_, h)| h).collect();
        let expect = pairs(model, in_range);
        assert_eq!(whole, expect.iter().map(|&(_, h)| h).collect::<Vec<_>>(), "[{low}, {high}]");
        for node in net.live_peers() {
            let id = net.peer_id(node).unwrap();
            assert_eq!(stored_at(net, node), pairs(model, |o| id.is_prefix_of(o)), "store of {id}");
            let key = table.key(table.rank(node).unwrap());
            let local = net.entries_in_stretch((key, key), keys.0, keys.1).iter();
            let local: Vec<u64> = local.map(|&(_, h)| h).collect();
            let expect = pairs(model, |o| id.is_prefix_of(o) && in_range(o));
            assert_eq!(local, expect.iter().map(|&(_, h)| h).collect::<Vec<_>>(), "{id}");
        }
        for (object, _) in model {
            let (owner, handles) = net.lookup(ObjectKey::new(object)).unwrap();
            assert!(net.peer_id(owner).unwrap().is_prefix_of(object));
            let expect = pairs(model, |o| o == object);
            assert_eq!(
                handles.collect::<Vec<_>>(),
                expect.iter().map(|&(_, h)| h).collect::<Vec<_>>()
            );
        }
    }

    /// Crashes `victim`: exactly the model's pairs under its id go, and the
    /// crash says how many; a refused crash takes nothing.
    fn crash(
        net: &mut FissioneNet,
        model: &mut Model,
        victim: NodeId,
    ) -> Result<(), FissioneError> {
        let id = net.peer_id(victim).unwrap().clone();
        let under = pairs(model, |o| id.is_prefix_of(o));
        let lost = net.crash(victim)?;
        assert_eq!(lost, under.len(), "crash of {id}");
        model.retain(|pair| !under.contains(pair));
        Ok(())
    }

    #[test]
    fn a_clone_taken_with_appends_pending_reads_the_same_as_the_original() {
        // Two identical networks under the same writes: `read` is read
        // straight from its pending appends, `cloned` through a clone taken
        // while they were pending, and a round of crashes meets both columns
        // with appends pending.
        let (mut read, mut cloned) = (build(60, 23), build(60, 23));
        let mut model = Model::new();
        let mut rng = simnet::rng_from_seed(230);
        for round in 0..4u64 {
            for h in 0..40 {
                let pair = (KautzStr::random(24, &mut rng), round * 8 + h % 8);
                for net in [&mut read, &mut cloned] {
                    net.publish(ObjectKey::new(&pair.0), pair.1).unwrap();
                }
                model.insert(pair);
            }
            // A stored pair published again is still stored once.
            let again = model.iter().nth(round as usize).cloned().unwrap();
            for net in [&mut read, &mut cloned] {
                net.publish(ObjectKey::new(&again.0), again.1).unwrap();
                assert!(net.objects.sorted.get().is_none(), "a publish takes the column back");
            }
            if round % 2 == 1 {
                let victim = read.live_peers().nth(round as usize).unwrap();
                let mut twin_model = model.clone();
                crash(&mut read, &mut model, victim).unwrap();
                crash(&mut cloned, &mut twin_model, victim).unwrap();
                assert_eq!(model, twin_model);
                continue;
            }
            let twin = cloned.clone();
            assert_table_matches_the_model(&twin, &model, &mut rng.clone());
            assert_table_matches_the_model(&cloned, &model, &mut rng.clone());
            assert_table_matches_the_model(&read, &model, &mut rng);
            assert_eq!(twin.objects.column(), read.objects.column());
        }
        assert_table_matches_the_model(&cloned, &model, &mut rng.clone());
        assert_table_matches_the_model(&read, &model, &mut rng);
    }

    /// Publishes the least and the greatest ObjectID below each of `peers`.
    fn publish_under(net: &mut FissioneNet, model: &mut Model, peers: &[NodeId]) {
        for &node in peers {
            let id = net.peer_id(node).unwrap().clone();
            for object in [id.min_extension(24), id.max_extension(24)] {
                net.publish(ObjectKey::new(&object), node as u64).unwrap();
                assert_eq!(net.owner_of(&object).unwrap(), node);
                model.insert((object, node as u64));
            }
        }
    }

    // The churn schedules of `tests/churn_properties.rs` with publishes
    // between them, against a model of the published pairs, and with the
    // routing table built before every operation: whichever one runs, no
    // object moves or goes missing unless a crash took it, and the next read
    // sees the new cover, never the table of the old one. The object column
    // is read after one operation in three, so runs of publishes and crashes
    // meet it unsorted, and every read → write → read transition occurs; a
    // read with appends pending goes through a clone one time in two (the
    // clone must read what the original would).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn stores_and_route_table_follow_every_membership_change(
            seed in 0u64..1000,
            ops in prop::collection::vec((0u8..11, any::<usize>()), 1..60),
        ) {
            let mut rng = simnet::rng_from_seed(seed);
            let mut net = build(12, seed);
            let mut model = Model::new();
            let check = |net: &FissioneNet, model: &Model, rng: &mut SmallRng| {
                assert_table_matches_the_cover(net);
                net.check_invariants().unwrap();
                assert_table_matches_the_model(net, model, rng);
            };
            for (op, raw) in ops {
                net.route_table();
                let peers: Vec<NodeId> = net.live_peers().collect();
                let victim = peers[raw % peers.len()];
                match op {
                    // A fresh pair two times in three, else one stored before.
                    0..=2 => {
                        let again = model.iter().nth(raw % model.len().max(1)).cloned();
                        let fresh = (KautzStr::random(24, &mut rng), raw as u64 % 4);
                        let (object, handle) = again.filter(|_| op == 0).unwrap_or(fresh);
                        net.publish(ObjectKey::new(&object), handle).unwrap();
                        model.insert((object, handle));
                    }
                    3..=5 => drop(net.join(&mut rng)),
                    6..=7 => drop(net.leave(victim)),
                    8 => drop(crash(&mut net, &mut model, victim)),
                    9 if net.peer(victim).unwrap().depth() < 20 => drop(net.split_leaf(victim)),
                    _ => drop(net.stabilize()),
                }
                if raw % 3 != 0 {
                    continue;
                }
                if net.objects.sorted.get().is_none() && raw % 2 == 0 {
                    check(&net.clone(), &model, &mut rng);
                }
                check(&net, &model, &mut rng);
            }

            // Both removal paths and the refusal, with objects in every
            // interval involved. Sibling-absorb: the crashed leaf's sibling
            // is a leaf.
            let leaf = net.live_peers().min_by_key(|&n| net.peer(n).unwrap().depth()).unwrap();
            let (left, right) = net.split_leaf(leaf);
            publish_under(&mut net, &mut model, &[left, right]);
            net.route_table();
            crash(&mut net, &mut model, right).unwrap();
            check(&net, &model, &mut rng);
            // Donor: the crashed leaf's sibling region is subdivided.
            let (left, right) = net.split_leaf(left);
            let (right, far_right) = net.split_leaf(right);
            publish_under(&mut net, &mut model, &[left, right, far_right]);
            net.route_table();
            crash(&mut net, &mut model, left).unwrap();
            check(&net, &model, &mut rng);
            // Refused: only the root peers remain.
            while net.len() > 3 {
                let last = net.live_peers().last().unwrap();
                net.leave(last).unwrap();
            }
            let root = net.live_peers().next().unwrap();
            let refused = crash(&mut net, &mut model, root);
            prop_assert_eq!(refused, Err(FissioneError::TooSmall));
            check(&net, &model, &mut rng);
        }
    }

    /// The partition tree against the ordered map it replaced: on every cover
    /// a few splits reach, and after churn, each probe of the tree answers what
    /// the map of live peers by key answers.
    mod cover_oracle {
        use super::*;
        use std::collections::BTreeSet;

        /// Every cover that [`FissioneNet::split_leaf`] reaches from the three
        /// roots with at most `max_peers` peers, each once, fewest peers first.
        fn every_cover(max_peers: usize) -> Vec<FissioneNet> {
            let mut level = vec![FissioneNet::new(small_cfg())];
            let mut all = level.clone();
            while level[0].len() < max_peers {
                let mut seen = BTreeSet::new();
                let mut next = Vec::new();
                for net in &level {
                    for node in net.live_peers() {
                        let mut grown = net.clone();
                        grown.split_leaf(node);
                        if seen.insert(oracle(&grown).into_keys().collect::<Vec<_>>()) {
                            next.push(grown);
                        }
                    }
                }
                all.extend(next.iter().cloned());
                level = next;
            }
            all
        }

        /// The oracle's owner of `window`: the greatest key not above it, if that
        /// prefixes it.
        fn owner_in(map: &BTreeMap<PeerKey, NodeId>, window: PeerKey) -> Option<NodeId> {
            let (&key, &node) = map.range(..=window).next_back()?;
            key.is_prefix_of(window).then_some(node)
        }

        /// The oracle's peers prefix-compatible with `prefix`: the owner of a
        /// proper prefix of it, then every peer it prefixes.
        fn compatible_in(map: &BTreeMap<PeerKey, NodeId>, prefix: PeerKey) -> Vec<NodeId> {
            let ancestor =
                map.range(..prefix).next_back().filter(|(&key, _)| key.is_prefix_of(prefix));
            let below = map.range(prefix.below());
            ancestor.into_iter().chain(below).map(|(_, &node)| node).collect()
        }

        /// The strings a probe of the cover is tried on: the empty one, every
        /// string of up to `short` symbols, and around every live PeerID its
        /// parent, its children, its shift and its stems (the probes a neighbor
        /// walk makes).
        fn probes(net: &FissioneNet, short: usize) -> Vec<PeerKey> {
            let mut probes = vec![PeerKey::EMPTY];
            for len in 1..=short {
                let all =
                    (0..KautzStr::count(len)).map(|rank| KautzStr::unrank(len, rank).unwrap());
                probes.extend(all.map(|s| PeerKey::new(&s)));
            }
            for key in oracle(net).into_keys() {
                probes.extend([key, key.parent(), key.shift()]);
                probes.extend(
                    (0..ROOTS as u8).filter(|&a| Some(a) != key.first()).map(|a| key.stem(a)),
                );
                if key.depth() < MAX_PEER_DEPTH {
                    probes.extend(key.children());
                }
            }
            probes
        }

        /// Every probe of the tree against the oracle, and the tree's own checks.
        fn assert_cover_matches_the_oracle(net: &FissioneNet, short: usize) {
            net.check_invariants().unwrap();
            let map = oracle(net);
            assert!(net.live_peers().eq(map.values().copied()), "live peers");
            let mut row = Vec::new();
            for probe in probes(net, short) {
                let owner = net.owner_of_window(probe, probe.depth()).ok();
                assert_eq!(owner, owner_in(&map, probe), "owner of {probe:?}");
                row.clear();
                net.compatible_into(probe, &mut row);
                assert_eq!(row, compatible_in(&map, probe), "compatible with {probe:?}");
                let prefix = probe.decode().unwrap();
                let under: Vec<NodeId> = map.range(probe.below()).map(|(_, &node)| node).collect();
                assert!(net.peers_with_prefix(&prefix).eq(under), "peers with prefix {prefix}");
            }
            for (&key, &node) in &map {
                assert_eq!(net.cover.owner(key), Some(node));
                let sibling = (key.depth() > 1).then(|| map.get(&key.sibling()).copied()).flatten();
                assert_eq!(net.cover.sibling(key), sibling, "sibling of {key:?}");
            }
            // A join's draw, walked by rank, lands on the owner of the string it
            // ranks, and carries the owner's key.
            let len = net.max_depth() + 1;
            for rank in (0..KautzStr::count(len)).step_by(3) {
                let window = PeerKey::new(&KautzStr::unrank(len, rank).unwrap());
                let (node, key) = net.cover.owner_by_rank(len, rank);
                assert_eq!(Some(node), owner_in(&map, window));
                assert_eq!(map.get(&key), Some(&node), "the key of the owner of {window:?}");
            }
            // A descent step's three paths pick what the neighbor scan picks,
            // at every peer the step can leave: above the shallowest depth.
            for (&key, &node) in map.iter().filter(|(key, _)| key.depth() > net.min_depth()) {
                let pick = net.shallower_neighbor(key);
                assert_eq!(pick.map(|(n, _)| n), net.shallower_neighbor_by_scan(node), "{key:?}");
                if let Some((n, carried)) = pick {
                    assert_eq!(map.get(&carried), Some(&n), "the key carried from {key:?}");
                }
            }
        }

        /// [`FissioneNet::try_join`] with the reference pieces: the owner of
        /// the drawn ObjectID's window, the neighbor-scan descent, and the
        /// split that reads the victim's key off its slot.
        fn join_by_scan(net: &mut FissioneNet, rng: &mut SmallRng) {
            let len = net.cfg.object_id_len;
            let drawn = ObjectKey::unrank(len, rng.gen_range(0..KautzStr::count(len))).unwrap();
            let mut victim = net.cover.owner(drawn.head()).unwrap();
            if let BalanceRule::LocalMin { max_steps } = net.cfg.balance {
                let global_min = net.min_depth();
                for _ in 0..max_steps {
                    if net.depth_of(victim) == global_min {
                        break;
                    }
                    match net.shallower_neighbor_by_scan(victim) {
                        Some(next) => victim = next,
                        None => break,
                    }
                }
            }
            net.split_leaf(victim);
        }

        #[test]
        fn a_build_equals_the_build_by_neighbor_scan_join_by_join() {
            let rules = [BalanceRule::RandomOwner, BalanceRule::default()];
            for (seed, balance) in (50..).zip(rules) {
                let cfg = FissioneConfig { balance, ..small_cfg() };
                let (mut walked, mut scanned) = (FissioneNet::new(cfg), FissioneNet::new(cfg));
                let (mut rng, mut twin) = [seed; 2].map(simnet::rng_from_seed).into();
                while walked.len() < 2000 {
                    walked.join(&mut rng);
                    join_by_scan(&mut scanned, &mut twin);
                    let at = walked.len();
                    assert_eq!(cover(&walked), cover(&scanned), "{balance:?} at {at} peers");
                }
                walked.check_invariants().unwrap();
            }
        }

        #[test]
        fn every_small_cover_answers_as_the_ordered_map() {
            let covers = every_cover(7);
            let per_size: Vec<usize> =
                (3..=7).map(|n| covers.iter().filter(|net| net.len() == n).count()).collect();
            assert_eq!(per_size, [1, 3, 9, 28, 90]);
            for net in &covers {
                assert_cover_matches_the_oracle(net, 4);
            }
        }

        #[test]
        fn a_slot_that_disowns_its_leaf_fails_the_invariants() {
            let mut net =
                FissioneNet::build(small_cfg(), 10, &mut simnet::rng_from_seed(40)).unwrap();
            let [a, b] = [0, 5].map(|i| net.live_peers().nth(i).unwrap());
            let swap = |net: &mut FissioneNet| {
                let ids = [a, b].map(|node| net.slots[node].take());
                [net.slots[b], net.slots[a]] = ids;
            };
            swap(&mut net);
            assert!(net.check_invariants().is_err(), "two slots swapped their PeerIDs");
            swap(&mut net);
            net.check_invariants().unwrap();
        }

        // Leave, crash, join, split, a migration between any deep pair and any
        // leaf, and `stabilize`, interleaved on a network whose slot order is
        // unrelated to PeerID order: after each, the tree against the oracle.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn the_tree_answers_as_the_ordered_map_under_churn(
                seed in 0u64..1000,
                ops in prop::collection::vec((0u8..10, any::<usize>(), any::<usize>()), 1..40),
            ) {
                let mut rng = simnet::rng_from_seed(seed);
                let mut net = churned(16, 4, seed);
                for (op, raw, other) in ops {
                    let peers: Vec<NodeId> = net.live_peers().collect();
                    let victim = peers[raw % peers.len()];
                    let sibling = |n: NodeId| net.cover.sibling(net.key_of(n));
                    let paired: Vec<NodeId> =
                        peers.iter().copied().filter(|&n| sibling(n).is_some()).collect();
                    match op {
                        0..=1 => drop(net.leave(victim)),
                        2 => drop(net.crash(victim)),
                        3..=4 => drop(net.join(&mut rng)),
                        5 if net.depth_of(victim) < 20 => drop(net.split_leaf(victim)),
                        6..=7 if !paired.is_empty() => {
                            let donor = paired[other % paired.len()];
                            let pair = [donor, sibling(donor).unwrap()];
                            if !pair.contains(&victim) && net.depth_of(victim) < 20 {
                                net.migrate(donor, victim);
                            }
                        }
                        _ => drop(net.stabilize()),
                    }
                    assert_cover_matches_the_oracle(&net, 2);
                }
            }
        }
    }
}
