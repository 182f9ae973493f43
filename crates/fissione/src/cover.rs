//! The partition tree whose leaves are the live peers (§3, Figure 3): a
//! join splits one leaf, a leave merges two, and every probe of the cover
//! is a walk of at most one step per symbol.

use kautz::{PeerKey, MAX_PEER_DEPTH};
use simnet::NodeId;

/// A link to a tree node: the slot in [`Cover::links`] of an internal
/// node's first child, or, with [`LEAF`] set, a leaf — the live peer whose
/// region it is.
type Link = u32;

const LEAF: Link = 1 << 31;

/// The root peers `0`, `1` and `2`: the minimal cover, which never shrinks.
pub(crate) const ROOTS: usize = 3;

/// The deepest a walk's stack gets: the roots not yet visited, and one
/// pending right subtree per level on the way down to a leaf.
const STACK: usize = MAX_PEER_DEPTH + ROOTS;

fn leaf(node: NodeId) -> Link {
    let node = u32::try_from(node).ok().filter(|&n| n < LEAF);
    node.expect("node ids fit 31 bits") | LEAF
}

fn is_leaf(link: Link) -> bool {
    link & LEAF != 0
}

fn node_of(link: Link) -> NodeId {
    (link & !LEAF) as NodeId
}

/// The child index of symbol `sym` below a node whose last symbol is
/// `prev`: 0 for the lesser of the two symbols that may follow, 1 for the
/// greater (the third symbol is `3 − prev − sym`). It is also the rank bit
/// [`KautzStr::unrank`](kautz::KautzStr::unrank) reads for that symbol.
fn side(prev: u8, sym: u8) -> usize {
    debug_assert_ne!(prev, sym, "a Kautz string repeats no symbol");
    usize::from(sym > 3 - prev - sym)
}

/// The live peers as the leaves of the partition tree, in one column of
/// links: the three roots, then one pair of slots per internal node — its
/// children in symbol order. Leaves are tagged with their peer's
/// [`NodeId`]; in-order is PeerID order.
///
/// The tree is complete by construction — every internal node has both
/// children — so it is a prefix-free cover of the namespace, and the leaf
/// on the path of any string long enough is its owner.
#[derive(Debug, Clone)]
pub(crate) struct Cover {
    /// Slots 0–2 are the roots and slot 3 is padding, so every pair starts
    /// at an even slot and a node's sibling sits at `slot ^ 1`.
    links: Vec<Link>,
    /// First slots of the pairs a merge freed, for the next split.
    free: Vec<Link>,
}

impl Cover {
    /// The root cover: the leaves `0`, `1` and `2`, held by `roots`.
    pub(crate) fn new(roots: [NodeId; ROOTS]) -> Self {
        let [a, b, c] = roots.map(leaf);
        Cover { links: vec![a, b, c, 0], free: Vec::new() }
    }

    /// Follows `key`'s symbols down from the roots, at most `steps` of them
    /// and none past a leaf: the link reached and how many symbols led
    /// there. `None` for the empty key.
    #[inline]
    fn walk(&self, key: PeerKey, steps: usize) -> Option<(Link, usize)> {
        let mut prev = key.symbol(0)?;
        let (mut link, mut followed) = (self.links[usize::from(prev)], 1);
        while followed < steps && !is_leaf(link) {
            let Some(sym) = key.symbol(followed) else { break };
            link = self.links[link as usize + side(prev, sym)];
            (prev, followed) = (sym, followed + 1);
        }
        Some((link, followed))
    }

    /// The slot of the tree node keyed `key`. Every proper prefix of `key`
    /// must be an internal node.
    fn slot(&self, key: PeerKey) -> usize {
        let (depth, sym) = (key.depth(), |i| key.symbol(i).expect("a symbol of the key"));
        if depth == 1 {
            return usize::from(sym(0));
        }
        let (parent, followed) = self.walk(key, depth - 1).expect("a nonempty key");
        debug_assert!(followed == depth - 1 && !is_leaf(parent), "{key:?} hangs below a leaf");
        parent as usize + side(sym(depth - 2), sym(depth - 1))
    }

    /// The peer whose PeerID prefixes `window`; `None` if `window` ends
    /// before reaching a leaf.
    #[inline]
    pub(crate) fn owner(&self, window: PeerKey) -> Option<NodeId> {
        let (link, _) = self.walk(window, usize::MAX)?;
        is_leaf(link).then(|| node_of(link))
    }

    /// The leaf whose PeerID is a prefix of `key` shorter than `depth`
    /// symbols, and its depth: the walk along `key` for at most `depth − 1`
    /// symbols, if it ends at a leaf.
    #[inline]
    pub(crate) fn leaf_above(&self, key: PeerKey, depth: usize) -> Option<(NodeId, usize)> {
        let (link, followed) = self.walk(key, depth - 1)?;
        is_leaf(link).then(|| (node_of(link), followed))
    }

    /// The owner of [`KautzStr::unrank`](kautz::KautzStr::unrank)`(len,
    /// rank)` and its key, read off the rank's bits without writing the
    /// string: the leading bits pick the root, each later bit a child.
    pub(crate) fn owner_by_rank(&self, len: usize, rank: u128) -> (NodeId, PeerKey) {
        let root = (rank >> (len - 1)) as usize;
        let (mut link, mut key) = (self.links[root], PeerKey::EMPTY.stem(root as u8));
        for (depth, bit) in (1..).zip((0..len - 1).rev()) {
            if is_leaf(link) {
                break;
            }
            let side = (rank >> bit) as usize & 1;
            (link, key) = (self.links[link as usize + side], key.children_at(depth)[side]);
        }
        assert!(is_leaf(link), "no leaf is deeper than the ObjectID");
        (node_of(link), key)
    }

    /// The leaves `prefix` prefixes, in PeerID order, or `Err` with the leaf
    /// whose PeerID is a proper prefix of it (the cover is prefix-free, so
    /// exactly one of the two).
    pub(crate) fn below(&self, prefix: PeerKey) -> Result<Leaves<'_>, NodeId> {
        match self.walk(prefix, prefix.depth()) {
            None => Ok(self.leaves()),
            Some((leaf, followed)) if followed < prefix.depth() => Err(node_of(leaf)),
            Some((link, _)) => Ok(Leaves::new(&self.links, &[link])),
        }
    }

    /// Every leaf, in PeerID order.
    pub(crate) fn leaves(&self) -> Leaves<'_> {
        Leaves::new(&self.links, &[self.links[2], self.links[1], self.links[0]])
    }

    /// Every leaf with its key, in PeerID order, below `prefix` — a tree
    /// node, or the empty key for the whole cover.
    pub(crate) fn keyed(&self, prefix: PeerKey) -> KeyedLeaves<'_> {
        let mut walk =
            KeyedLeaves { links: &self.links, stack: [(0, 0, PeerKey::EMPTY); STACK], len: 0 };
        if prefix == PeerKey::EMPTY {
            for sym in (0..ROOTS as u8).rev() {
                walk.push(self.links[usize::from(sym)], 1, PeerKey::EMPTY.stem(sym));
            }
        } else {
            walk.push(self.links[self.slot(prefix)], prefix.depth() as u32, prefix);
        }
        walk
    }

    /// The leaf keyed `key`'s sibling, if that is a leaf too (a root has
    /// no sibling).
    pub(crate) fn sibling(&self, key: PeerKey) -> Option<NodeId> {
        let other = self.links[(key.depth() > 1).then(|| self.slot(key) ^ 1)?];
        is_leaf(other).then(|| node_of(other))
    }

    /// Splits the leaf keyed `key`: its peer keeps the first child, `right`
    /// takes the second.
    pub(crate) fn split(&mut self, key: PeerKey, right: NodeId) {
        let slot = self.slot(key);
        debug_assert!(is_leaf(self.links[slot]), "only a leaf splits");
        let first = self.free.pop().unwrap_or_else(|| {
            self.links.extend([0; 2]);
            let first = u32::try_from(self.links.len() - 2).ok().filter(|&i| i < LEAF);
            first.expect("slots fit 31 bits")
        });
        let pair = [self.links[slot], leaf(right)];
        self.links[first as usize..first as usize + 2].copy_from_slice(&pair);
        self.links[slot] = first;
    }

    /// Merges the two leaves below `parent` into one, `survivor`'s.
    pub(crate) fn merge(&mut self, parent: PeerKey, survivor: NodeId) {
        let slot = self.slot(parent);
        let first = self.links[slot];
        debug_assert!(!is_leaf(first), "only an internal node merges");
        let pair = &self.links[first as usize..first as usize + 2];
        debug_assert!(pair.iter().all(|&child| is_leaf(child)) && pair.contains(&leaf(survivor)));
        self.free.push(first);
        self.links[slot] = leaf(survivor);
    }

    /// Hands the leaf keyed `key` to peer `node`.
    pub(crate) fn retag(&mut self, key: PeerKey, node: NodeId) {
        let slot = self.slot(key);
        debug_assert!(is_leaf(self.links[slot]), "only a leaf changes hands");
        self.links[slot] = leaf(node);
    }
}

/// The leaves below a set of tree nodes, in order: an explicit stack of the
/// subtrees still to visit, no allocation.
#[derive(Debug, Clone)]
pub(crate) struct Leaves<'a> {
    links: &'a [Link],
    stack: [Link; STACK],
    len: usize,
}

impl<'a> Leaves<'a> {
    /// The walk over `starts`, visited last to first.
    fn new(links: &'a [Link], starts: &[Link]) -> Self {
        let mut stack = [0; STACK];
        stack[..starts.len()].copy_from_slice(starts);
        Leaves { links, stack, len: starts.len() }
    }

    /// A walk that yields nothing.
    pub(crate) fn none() -> Self {
        Leaves::new(&[], &[])
    }
}

impl Iterator for Leaves<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.len = self.len.checked_sub(1)?;
        let mut link = self.stack[self.len];
        while !is_leaf(link) {
            self.stack[self.len] = self.links[link as usize + 1];
            self.len += 1;
            link = self.links[link as usize];
        }
        Some(node_of(link))
    }
}

/// [`Leaves`] with each leaf's key, derived on the way down: one
/// [`PeerKey::children_at`] per internal node, nothing per leaf. Each entry
/// carries its key's depth, so no step recounts it.
#[derive(Debug, Clone)]
pub(crate) struct KeyedLeaves<'a> {
    links: &'a [Link],
    stack: [(Link, u32, PeerKey); STACK],
    len: usize,
}

impl KeyedLeaves<'_> {
    fn push(&mut self, link: Link, depth: u32, key: PeerKey) {
        self.stack[self.len] = (link, depth, key);
        self.len += 1;
    }
}

impl Iterator for KeyedLeaves<'_> {
    type Item = (PeerKey, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(PeerKey, NodeId)> {
        self.len = self.len.checked_sub(1)?;
        let (mut link, mut depth, mut key) = self.stack[self.len];
        while !is_leaf(link) {
            let [first, second] = key.children_at(depth as usize);
            depth += 1;
            self.push(self.links[link as usize + 1], depth, second);
            (link, key) = (self.links[link as usize], first);
        }
        Some((key, node_of(link)))
    }
}
