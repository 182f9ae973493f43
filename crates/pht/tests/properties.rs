//! Property tests: the PHT trie against a flat-model oracle under arbitrary
//! insert/query schedules, over both substrates — and the arena trie
//! against the ordered-map trie it replaced, outcome field by field.

use dht_api::Dht;
use pht::{Entry, Label, Pht, PhtOutcome};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A trie node as the comparison sees it: label, and a leaf's entries.
type TrieNode = (Label, Option<Vec<Entry>>);

/// The trie as it was before the arena: nodes in a map keyed by label,
/// every probe a map lookup, every get a fresh label hash. Kept only as
/// the arena's oracle.
enum MapNode {
    Internal,
    Leaf(Vec<Entry>),
}

struct MapTrie {
    width: u32,
    capacity: usize,
    nodes: BTreeMap<Label, MapNode>,
}

impl MapTrie {
    fn new(width: u32, capacity: usize) -> MapTrie {
        MapTrie {
            width,
            capacity,
            nodes: BTreeMap::from([(Label::ROOT, MapNode::Leaf(Vec::new()))]),
        }
    }

    /// `insert` with the key quantised by the trie under test.
    fn insert(&mut self, key: u32, value: f64, handle: u64) {
        let mut label = Label::ROOT;
        while let MapNode::Internal = self.nodes[&label] {
            label = label.child((key >> (self.width - label.len() - 1)) & 1);
        }
        let Some(MapNode::Leaf(entries)) = self.nodes.get_mut(&label) else { unreachable!() };
        entries.push((key, value, handle));
        loop {
            let entries = match self.nodes.get_mut(&label) {
                Some(MapNode::Leaf(e)) if e.len() > self.capacity && label.len() < self.width => {
                    std::mem::take(e)
                }
                _ => return,
            };
            self.nodes.insert(label, MapNode::Internal);
            let bit_pos = self.width - label.len() - 1;
            let (ones, zeros): (Vec<_>, Vec<_>) =
                entries.into_iter().partition(|&(k, _, _)| (k >> bit_pos) & 1 == 1);
            let overflowing = [&zeros, &ones].iter().position(|e| e.len() > self.capacity);
            self.nodes.insert(label.child(0), MapNode::Leaf(zeros));
            self.nodes.insert(label.child(1), MapNode::Leaf(ones));
            match overflowing {
                Some(bit) => label = label.child(bit as u32),
                None => return,
            }
        }
    }

    /// Every node, in label order, as [`Pht::trie`] reports it.
    fn trie(&self) -> Vec<TrieNode> {
        self.nodes
            .iter()
            .map(|(&label, node)| match node {
                MapNode::Internal => (label, None),
                MapNode::Leaf(e) => (label, Some(e.clone())),
            })
            .collect()
    }

    /// The PHT query over the map, each get priced alone (a batch of one
    /// key) by `pht`'s substrate and net model.
    fn range_query<D: Dht>(&self, pht: &Pht<D>, from: usize, lo: f64, hi: f64) -> PhtOutcome {
        let get = |label: Label| {
            let (net, mut routed) = (pht.net_model(), Vec::new());
            let mut scratch = simnet::QueryScratch::new();
            pht.dht().route_keys(from, &[label.dht_key()], net, None, &mut scratch, &mut routed);
            let (lookup, route) = routed[0];
            let rtt = lookup.hops as u64 + 1;
            (rtt, route + net.edge_cost(lookup.owner, from))
        };
        let (a, b) = (pht.quantize(lo.min(hi)), pht.quantize(hi.max(lo)));
        let w = self.width;
        let lcp_len = (a ^ b).leading_zeros().saturating_sub(32 - w);
        let lcp = (0..lcp_len).fold(Label::ROOT, |l, d| l.child((a >> (w - d - 1)) & 1));
        let mut out = PhtOutcome {
            results: Vec::new(),
            delay: 0,
            latency: 0,
            messages: 0,
            nodes_visited: 0,
            dest_leaves: 0,
            reached_leaves: 0,
        };
        let (mut lo_len, mut hi_len) = (0u32, lcp_len);
        let mut start = Label::ROOT;
        while lo_len <= hi_len {
            let mid = (lo_len + hi_len).div_ceil(2);
            let probe = lcp.prefix(mid);
            let (rtt, lat) = get(probe);
            out.delay += rtt;
            out.latency += lat;
            out.messages += rtt;
            out.nodes_visited += 1;
            if self.nodes.contains_key(&probe) {
                start = probe;
                if mid == hi_len {
                    break;
                }
                lo_len = mid;
            } else {
                if mid == 0 {
                    break;
                }
                hi_len = mid - 1;
            }
        }
        let mut frontier = vec![start];
        while !frontier.is_empty() {
            let (mut level_delay, mut level_latency) = (0, 0);
            let mut next = Vec::new();
            for label in frontier {
                let (rtt, lat) = get(label);
                level_delay = level_delay.max(rtt);
                level_latency = level_latency.max(lat);
                out.messages += rtt;
                out.nodes_visited += 1;
                match &self.nodes[&label] {
                    MapNode::Leaf(entries) => {
                        let mut hit = false;
                        for &(k, v, h) in entries {
                            if k >= a && k <= b && v >= lo && v <= hi {
                                out.results.push(h);
                                hit = true;
                            }
                        }
                        if hit || label.overlaps(w, a, b) {
                            out.dest_leaves += 1;
                        }
                    }
                    MapNode::Internal => next
                        .extend((0..2).map(|bit| label.child(bit)).filter(|c| c.overlaps(w, a, b))),
                }
            }
            out.delay += level_delay;
            out.latency += level_latency;
            frontier = next;
        }
        out.results.sort_unstable();
        out.reached_leaves = out.dest_leaves;
        out
    }
}

/// [`Pht::trie`] in label order, owned.
fn arena_trie<D: Dht>(pht: &Pht<D>) -> Vec<TrieNode> {
    let mut nodes: Vec<_> = pht.trie().map(|(label, e)| (label, e.map(<[_]>::to_vec))).collect();
    nodes.sort_by_key(|&(label, _)| label);
    nodes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arena_trie_matches_the_map_oracle(
        seed in 0u64..10_000,
        width in 1u32..31,
        capacity in 1usize..9,
        wan in any::<bool>(),
        // A small value pool: many duplicate keys, pushed past capacity.
        pool in prop::collection::vec(0f64..=1000.0, 1..10),
        picks in prop::collection::vec(any::<usize>(), 0..160),
        queries in prop::collection::vec((0f64..=1000.0, 0f64..=1000.0, any::<usize>()), 1..10),
    ) {
        let mut rng = simnet::rng_from_seed(seed);
        let dht = chord::ChordNet::build(48, &mut rng);
        let mut pht = Pht::with_params(dht, 0.0, 1000.0, width, capacity);
        if wan {
            pht.set_net_model(simnet::NetModel::wan());
        }
        let mut oracle = MapTrie::new(width, capacity);
        for (h, &pick) in picks.iter().enumerate() {
            let value = pool[pick % pool.len()];
            pht.insert(value, h as u64);
            oracle.insert(pht.quantize(value), value, h as u64);
            prop_assert_eq!(arena_trie(&pht), oracle.trie(), "after insert {}", h);
        }
        prop_assert_eq!(pht.record_count(), picks.len());
        // Random ranges, plus point and narrow queries on stored values:
        // the binary search then probes deep along the lcp path.
        let around = pool.iter().enumerate().flat_map(|(i, &v)| [(v, v, i), (v - 0.5, v + 0.5, i)]);
        for (lo, hi, raw_from) in queries.into_iter().chain(around) {
            let from = raw_from % 48;
            prop_assert_eq!(
                pht.range_query(from, lo, hi),
                oracle.range_query(&pht, from, lo, hi),
                "query [{}, {}] from {}", lo, hi, from
            );
        }
    }

    #[test]
    fn pht_agrees_with_flat_model(
        seed in 0u64..10_000,
        values in prop::collection::vec(0f64..=1000.0, 0..150),
        queries in prop::collection::vec((0f64..=1000.0, 0f64..=1000.0), 1..12),
    ) {
        let mut rng = simnet::rng_from_seed(seed);
        let dht = chord::ChordNet::build(48, &mut rng);
        let mut pht = Pht::new(dht, 0.0, 1000.0);
        for (h, &v) in values.iter().enumerate() {
            pht.insert(v, h as u64);
        }
        prop_assert_eq!(pht.record_count(), values.len());
        for &(a, b) in &queries {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let out = pht.range_query(0, lo, hi);
            let mut expect: Vec<u64> = values
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v >= lo && v <= hi)
                .map(|(h, _)| h as u64)
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(out.results, expect, "query [{}, {}]", lo, hi);
        }
    }

    #[test]
    fn pht_depth_respects_capacity(
        seed in 0u64..1000,
        values in prop::collection::vec(0f64..=1.0, 1..120),
        capacity in 1usize..8,
    ) {
        let mut rng = simnet::rng_from_seed(seed);
        let dht = chord::ChordNet::build(16, &mut rng);
        let width = 12;
        let mut pht = Pht::with_params(dht, 0.0, 1.0, width, capacity);
        for (h, &v) in values.iter().enumerate() {
            pht.insert(v, h as u64);
        }
        prop_assert!(pht.depth() <= width);
        // Everything is still retrievable.
        let out = pht.range_query(0, 0.0, 1.0);
        prop_assert_eq!(out.results.len(), values.len());
    }

    #[test]
    fn pht_over_fissione_substrate(
        seed in 0u64..1000,
        values in prop::collection::vec(0f64..=100.0, 1..60),
    ) {
        let cfg = fissione::FissioneConfig {
            object_id_len: 24,
            ..fissione::FissioneConfig::default()
        };
        let mut rng = simnet::rng_from_seed(seed);
        let dht = fissione::FissioneNet::build(cfg, 40, &mut rng).unwrap();
        let mut pht = Pht::new(dht, 0.0, 100.0);
        for (h, &v) in values.iter().enumerate() {
            pht.insert(v, h as u64);
        }
        let from = pht.dht().any_node();
        let out = pht.range_query(from, 25.0, 75.0);
        let mut expect: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|&(_, &v)| (25.0..=75.0).contains(&v))
            .map(|(h, _)| h as u64)
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(out.results, expect);
    }
}
